//! Integration tests for the content-addressed design cache: durable
//! corruption never serves stale data, nonce bumps orphan every existing
//! entry, and concurrent identical queries single-flight into one
//! search — all against the real [`DesignCache`] with a scratch durable
//! tier.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use stellar_bench::cache::{
    parse_serve_line, render_serve_entry, render_serve_response, DesignCache, ServeCommand,
    STATE_FILE,
};
use stellar_bench::durable;
use stellar_core::cache::QueryKey;
use stellar_core::prelude::*;
use stellar_core::{explore_dataflows_profiled, ExploreOptions, ExploreRun};

/// A fresh scratch cache directory, removed and recreated per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stellar-cache-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn query(m: usize, n: usize, k: usize) -> (Functionality, Bounds, ExploreOptions) {
    (
        Functionality::matmul(m, n, k),
        Bounds::from_extents(&[m, n, k]),
        ExploreOptions::default(),
    )
}

/// The comparable image of a run: ranked results only (the funnel's cache
/// counters legitimately differ between a hit and a miss).
fn image(run: &ExploreRun) -> String {
    run.results
        .iter()
        .map(|r| format!("{r:?}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// However an answer is obtained — computed on a miss, served from the
/// memory tier, or decoded from the durable tier by a reopened cache — its
/// ranking and funnel partitions are those of the uncached search (the
/// e20 query: `matmul` 4×4×4 at the default options).
#[test]
fn computed_memory_and_disk_answers_equal_the_uncached_oracle() {
    let dir = scratch("oracle");
    let (func, bounds, opts) = query(4, 4, 4);
    let oracle = explore_dataflows_profiled(&func, &bounds, &opts).unwrap();

    let cache = DesignCache::open(&dir).unwrap();
    let computed = cache.explore(&func, &bounds, &opts).unwrap();
    let memory = cache.explore(&func, &bounds, &opts).unwrap();
    let reopened = DesignCache::open(&dir).unwrap();
    let disk = reopened.explore(&func, &bounds, &opts).unwrap();
    assert_eq!(computed.funnel.cache_misses, 1);
    assert_eq!(memory.funnel.cache_hits, 1);
    assert_eq!(disk.funnel.cache_hits, 1);
    assert_eq!(reopened.stats().disk_hits, 1);

    for (label, run) in [
        ("computed", &computed),
        ("memory", &memory),
        ("disk", &disk),
    ] {
        assert_eq!(image(run), image(&oracle), "{label} ranking diverged");
        // Only the cache's own counters may differ from the uncached funnel.
        let mut partitions = run.funnel;
        partitions.cache_hits = 0;
        partitions.cache_misses = 0;
        partitions.coalesced = 0;
        assert_eq!(partitions, oracle.funnel, "{label} funnel diverged");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Every way of answering one query responds with the same bytes: the
/// computed miss, a memory hit, a disk hit after reopening, a follower
/// coalesced onto an in-flight computation, and `render_serve_response`
/// over `explore()`'s run all carry the byte-identical entry and differ
/// only in `cached`.
#[test]
fn every_tier_answers_the_same_bytes() {
    let dir = scratch("tiers");
    let req = match parse_serve_line(r#"{"id":"q","spec":"matmul","bounds":[4,4,4]}"#) {
        Ok(ServeCommand::Query(req)) => req,
        other => panic!("expected a query, got {other:?}"),
    };
    let q = req.to_query().unwrap();
    let (func, bounds, opts) = (&q.func, &q.bounds, &q.opts);
    let key = QueryKey::of(func, bounds, opts);
    let respond = |(entry, cached): (Arc<str>, bool)| render_serve_entry(Some("q"), cached, &entry);

    let cache = DesignCache::open(&dir).unwrap();
    let (entry, cached) = cache.entry(&key, func, bounds, opts).unwrap();
    assert!(!cached, "the first query must compute");
    let computed = render_serve_entry(Some("q"), false, &entry);
    let served = render_serve_entry(Some("q"), true, &entry);

    let memory = respond(cache.entry(&key, func, bounds, opts).unwrap());
    assert_eq!(memory, served, "memory hit");
    let run = cache.explore(func, bounds, opts).unwrap();
    let explored = render_serve_response(&req, &key, &cache.nonce(), &run);
    assert_eq!(explored, served, "explore() memory hit");
    let oracle = explore_dataflows_profiled(func, bounds, opts).unwrap();
    let uncached = render_serve_response(&req, &key, &cache.nonce(), &oracle);
    assert_eq!(uncached, computed, "uncached search");

    let reopened = DesignCache::open(&dir).unwrap();
    let disk = respond(reopened.entry(&key, func, bounds, opts).unwrap());
    assert_eq!(reopened.stats().disk_hits, 1);
    assert_eq!(disk, served, "disk hit");

    // Followers: threads released together on a cache of the same
    // generation with no entry yet. The leader's search and fsync leave a
    // wide window, but a round where every thread arrived late is retried.
    let state = fs::read(dir.join(STATE_FILE)).unwrap();
    for round in 0.. {
        assert!(round < 20, "no follower coalesced in 20 rounds");
        let fresh = scratch(&format!("tiers-{round}"));
        fs::create_dir_all(&fresh).unwrap();
        fs::write(fresh.join(STATE_FILE), &state).unwrap();
        let shared = DesignCache::open(&fresh).unwrap();
        let barrier = std::sync::Barrier::new(4);
        let answers: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        respond(shared.entry(&key, func, bounds, opts).unwrap())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let _ = fs::remove_dir_all(&fresh);
        assert_eq!(answers.iter().filter(|a| **a == computed).count(), 1);
        assert_eq!(answers.iter().filter(|a| **a == served).count(), 3);
        if shared.stats().coalesced > 0 {
            break;
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Every corruption of the durable entry file must fall back to a clean
/// recompute whose ranking equals the uncached oracle — never a stale or
/// garbled serve, never an error surfaced to the caller.
#[test]
fn corrupted_durable_entries_recompute_never_serve_stale() {
    let dir = scratch("corrupt");
    let (func, bounds, opts) = query(3, 3, 3);
    let oracle = explore_dataflows_profiled(&func, &bounds, &opts).unwrap();
    let key = QueryKey::of(&func, &bounds, &opts);

    // Prime the durable tier once, remember the healthy bytes.
    let entry_path = {
        let cache = DesignCache::open(&dir).unwrap();
        cache.explore(&func, &bounds, &opts).unwrap();
        cache.entry_path(&key).unwrap()
    };
    let healthy = fs::read(&entry_path).unwrap();
    assert!(!healthy.is_empty(), "priming wrote no durable entry");

    // The corruption matrix: truncations at several depths, a bit flip in
    // every region of the file (seal header, payload prefix/middle/CRC
    // tail), and full replacement with a valid envelope holding garbage.
    let mut corruptions: Vec<(String, Vec<u8>)> = Vec::new();
    for frac in [0usize, 1, 2, 3] {
        let len = healthy.len() * frac / 4;
        corruptions.push((format!("truncated to {len} bytes"), healthy[..len].to_vec()));
    }
    for pos in [
        8usize,
        healthy.len() / 4,
        healthy.len() / 2,
        healthy.len() - 2,
    ] {
        let mut flipped = healthy.clone();
        flipped[pos] ^= 0x40;
        corruptions.push((format!("bit flip at byte {pos}"), flipped));
    }
    corruptions.push((
        "valid envelope, garbage payload".into(),
        durable::seal("{\"schema\":\"not-a-cache-entry\"}").into_bytes(),
    ));

    for (label, bytes) in corruptions {
        fs::write(&entry_path, &bytes).unwrap();
        // A fresh open = a restarted service that must consult the
        // (corrupt) durable tier.
        let cache = DesignCache::open(&dir).unwrap();
        let run = cache
            .explore(&func, &bounds, &opts)
            .unwrap_or_else(|e| panic!("{label}: corruption surfaced as an error: {e}"));
        assert_eq!(
            image(&run),
            image(&oracle),
            "{label}: served a ranking that diverged from the oracle"
        );
        assert_eq!(
            run.funnel.cache_misses, 1,
            "{label}: corrupt entry was not classified as a miss"
        );
        let stats = cache.stats();
        assert_eq!(
            stats.disk_hits, 0,
            "{label}: corrupt entry counted as a disk hit"
        );
        // The recompute must also have healed the durable entry.
        let healed = DesignCache::open(&dir).unwrap();
        let again = healed.explore(&func, &bounds, &opts).unwrap();
        assert_eq!(
            again.funnel.cache_hits, 1,
            "{label}: recompute did not re-persist"
        );
        assert_eq!(
            healed.stats().disk_hits,
            1,
            "{label}: healed entry not durable"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// `invalidate()` bumps the generation nonce: the next identical query
/// misses (and recomputes), both against the resident cache and against
/// entries left on disk by the previous generation.
#[test]
fn nonce_bump_invalidates_resident_and_durable_entries() {
    let dir = scratch("nonce");
    let (func, bounds, opts) = query(3, 3, 3);

    let cache = DesignCache::open(&dir).unwrap();
    cache.explore(&func, &bounds, &opts).unwrap();
    let warm = cache.explore(&func, &bounds, &opts).unwrap();
    assert_eq!(warm.funnel.cache_hits, 1);

    let before = cache.nonce();
    let after = cache.invalidate().unwrap();
    assert_ne!(
        before, after,
        "invalidate did not change the generation nonce"
    );

    // Resident tier: the very same handle must now miss.
    let run = cache.explore(&func, &bounds, &opts).unwrap();
    assert_eq!(
        run.funnel.cache_misses, 1,
        "resident entry survived invalidation"
    );
    assert_eq!(cache.stats().invalidations, 1);

    // Durable tier: stamp the old generation back onto disk by writing a
    // stale-nonce entry, then reopen — the load must reject it.
    let key = QueryKey::of(&func, &bounds, &opts);
    let entry_path = cache.entry_path(&key).unwrap();
    let stale = stellar_core::cache::render_cache_entry(&key, &before, &run.results, &run.funnel);
    durable::write_envelope(&entry_path, &stale).unwrap();
    let reopened = DesignCache::open(&dir).unwrap();
    assert_eq!(reopened.nonce(), after, "state file lost the bumped nonce");
    let served = reopened.explore(&func, &bounds, &opts).unwrap();
    assert_eq!(
        served.funnel.cache_misses, 1,
        "a stale-generation durable entry was served"
    );
    assert_eq!(reopened.stats().disk_hits, 0);

    // External invalidation: a second handle on the same directory (a
    // restarted service) picks up a nonce bumped elsewhere only via the
    // state file — entries written after the bump hit again.
    let final_run = reopened.explore(&func, &bounds, &opts).unwrap();
    assert_eq!(
        final_run.funnel.cache_hits, 1,
        "post-bump entry did not serve"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// N threads issuing the identical query concurrently: exactly one search
/// runs (one miss), everyone else either coalesces onto the in-flight
/// computation or hits the published entry, and all answers are
/// byte-identical.
/// The state file stores the generation nonce escaped; reopening must
/// adopt the nonce it decodes to, not the bytes up to the first quote —
/// and, having understood the file, must leave it alone.
#[test]
fn reopening_adopts_a_generation_nonce_that_needs_escaping() {
    let dir = scratch("escaped-nonce");
    fs::create_dir_all(&dir).unwrap();
    let state = dir.join(STATE_FILE);
    let payload = r#"{"schema":"stellar-cache-state-v1","nonce":"a\"b\\c"}"#;
    durable::write_envelope(&state, payload).unwrap();
    for _ in 0..2 {
        let cache = DesignCache::open(&dir).unwrap();
        assert_eq!(cache.nonce(), "a\"b\\c");
        assert_eq!(durable::read_envelope(&state).unwrap(), payload);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn identical_concurrent_queries_single_flight() {
    const THREADS: usize = 8;
    let (func, bounds, opts) = query(3, 3, 3);
    let cache = Arc::new(DesignCache::in_memory(64));

    let barrier = Arc::new(std::sync::Barrier::new(THREADS));
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let cache = Arc::clone(&cache);
        let (func, bounds, opts) = (func.clone(), bounds.clone(), opts);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            cache.explore(&func, &bounds, &opts).unwrap()
        }));
    }
    let runs: Vec<ExploreRun> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let first = image(&runs[0]);
    for run in &runs {
        assert_eq!(image(run), first, "concurrent answers diverged");
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, 1, "more than one search ran for one query");
    assert_eq!(
        stats.hits,
        (THREADS - 1) as u64,
        "every non-leader should be accounted a hit"
    );
    assert_eq!(
        stats.hits + stats.misses,
        THREADS as u64,
        "lost or double-counted queries"
    );
    // Followers that joined mid-flight are a subset of the hits.
    assert!(stats.coalesced <= stats.hits);
}

/// The memory tier evicts least-recently-used entries at capacity, but
/// evicted entries are still served from the durable tier.
#[test]
fn lru_eviction_falls_back_to_durable_tier() {
    let dir = scratch("lru");
    let cache = DesignCache::open_with_capacity(&dir, 2).unwrap();
    let queries = [query(2, 2, 2), query(2, 2, 3), query(2, 3, 3)];
    for (func, bounds, opts) in &queries {
        cache.explore(func, bounds, opts).unwrap();
    }
    assert_eq!(
        cache.stats().evictions,
        1,
        "capacity 2 with 3 entries must evict once"
    );

    // The evicted (oldest) query is gone from memory but intact on disk.
    let (func, bounds, opts) = &queries[0];
    let run = cache.explore(func, bounds, opts).unwrap();
    assert_eq!(run.funnel.cache_hits, 1, "evicted entry was recomputed");
    assert_eq!(
        cache.stats().disk_hits,
        1,
        "evicted entry did not come from disk"
    );
    let _ = fs::remove_dir_all(&dir);
}
