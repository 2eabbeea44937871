//! E20 — automated dataflow search (the §I motivation): enumerate all
//! small-coefficient space-time transforms for the Listing 1 matmul, keep
//! the valid ones, and tabulate the distinct array structures — the
//! classic dataflows fall out of the search rather than being hand-picked.
//!
//! Under `run_all --cache` (`STELLAR_CACHE_DIR` set) both searches route
//! through the content-addressed design cache: the serial pass primes the
//! entry, and — because `parallelism` is byte-invisible to the ranking
//! and therefore excluded from the `QueryKey` — the parallel pass is
//! already a hit. Cache accounting lands in a separate envelope,
//! `out/e20.cache.json`, never in the metrics report: a cold and a warm
//! run must consolidate byte-identical `metrics.json` payloads (the
//! `cache_smoke` CI gate), and wall-clock gauges pin to
//! `STELLAR_FIXED_WALL_MS` like every other wall field.

use std::time::Instant;

use crate::cache::DesignCache;
use crate::{durable, report, table, Report};
use stellar_core::prelude::*;
use stellar_core::{explore_dataflows_profiled, ExploreOptions, ExploreRun};

pub fn run() -> Result<(), CompileError> {
    let mut report = Report::new("e20", "automated dataflow search over {-1,0,1} transforms");

    let func = Functionality::matmul(4, 4, 4);
    let bounds = Bounds::from_extents(&[4, 4, 4]);

    let cache = report::cache_dir().and_then(|dir| match DesignCache::open(&dir) {
        Ok(c) => Some(c),
        Err(e) => {
            eprintln!("e20: design cache unavailable, computing: {e}");
            None
        }
    });
    let search = |opts: &ExploreOptions| -> Result<ExploreRun, CompileError> {
        match &cache {
            Some(c) => c.explore(&func, &bounds, opts),
            None => explore_dataflows_profiled(&func, &bounds, opts),
        }
    };

    // Run the search both single-threaded and sharded across all cores:
    // the parallel ranking is asserted byte-identical (the determinism
    // contract of the sharded scan — and, when cached, of a served
    // entry), and the wall-clock for both paths lands in the metrics so
    // the speedup is tracked run over run.
    let serial_t = Instant::now();
    let serial = search(&ExploreOptions {
        parallelism: 1,
        ..ExploreOptions::default()
    })?;
    let serial_ms = serial_t.elapsed().as_secs_f64() * 1e3;
    let parallel_t = Instant::now();
    let run = search(&ExploreOptions::default())?;
    let parallel_ms = parallel_t.elapsed().as_secs_f64() * 1e3;
    let found = run.results;
    assert_eq!(
        found, serial.results,
        "parallel dataflow ranking diverged from the serial scan"
    );

    let mut rows = Vec::new();
    for (n, e) in found.iter().enumerate() {
        let m = e.transform.matrix();
        let mat = (0..3)
            .map(|r| format!("{:?}", m.row(r)))
            .collect::<Vec<_>>()
            .join(" ");
        rows.push(vec![
            format!("#{n}"),
            mat,
            e.num_pes.to_string(),
            e.moving_conns.to_string(),
            e.stationary_conns.to_string(),
            e.io_ports.to_string(),
            e.time_steps.to_string(),
            format!("{:.0}", e.cost()),
        ]);
    }
    table(
        &[
            "rank",
            "transform rows",
            "PEs",
            "moving",
            "stationary",
            "ports",
            "steps",
            "cost",
        ],
        &rows,
    );
    println!(
        "\n{} distinct valid array structures found in the +-1 coefficient space.",
        found.len()
    );
    // Byte-stable output: when run_all pins the wall clock, the search
    // times pin with it, on stdout and in the gauges (a cold and a warm
    // cached run must consolidate identical metrics).
    let pinned = report::fixed_wall_ms();
    let serial_ms = pinned.unwrap_or(serial_ms);
    let parallel_ms = pinned.unwrap_or(parallel_ms);
    println!(
        "search wall-clock: serial {serial_ms:.1} ms, parallel {parallel_ms:.1} ms \
         ({} worker(s) available), identical rankings",
        rayon::current_num_threads()
    );
    let m = report.metrics();
    m.counter_add("valid_dataflows", &[], found.len() as u64);
    m.gauge_set("explore_wall_ms", &[("mode", "serial")], serial_ms);
    m.gauge_set("explore_wall_ms", &[("mode", "parallel")], parallel_ms);
    m.gauge_set("explore_workers", &[], rayon::current_num_threads() as f64);
    if let Some(best) = found.first() {
        m.gauge_set("best_cost", &[], best.cost());
        m.counter_add("best_pes", &[], best.num_pes as u64);
    }

    // Cache accounting goes in its own sidecar envelope — deliberately
    // outside the metrics report, which must stay byte-identical whether
    // the searches hit or computed.
    if let Some(c) = &cache {
        let stats = c.stats();
        println!(
            "design cache: {} hit(s), {} miss(es), {} coalesced ({} from disk)",
            stats.hits, stats.misses, stats.coalesced, stats.disk_hits
        );
        let path = report::out_dir().join("e20.cache.json");
        if let Err(e) = durable::write_envelope(&path, &stats.render_json(&c.nonce())) {
            eprintln!("e20: could not write cache stats: {e}");
        }
    }

    println!("The 16-PE stationary-operand designs are the input/output-stationary");
    println!("family of Figure 2; the larger arrays include the hexagonal family.");
    println!("Changing one matrix is the entire dataflow design space (§III-B).");
    report.finish("dataflow design space enumerated");
    Ok(())
}
