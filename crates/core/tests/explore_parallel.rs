//! Determinism regression tests for the sharded dataflow search: the
//! parallel scan must produce a result list **byte-equal** to the serial
//! path — same structures, same ranking, same tie-breaks — for every
//! parallelism setting. The comparison renders both lists through `Debug`
//! so any field drift (not just ordering) fails loudly.

use stellar_core::{
    explore_dataflows, explore_dataflows_profiled, explore_dataflows_reference, Bounds,
    ExploreFunnel, ExploreOptions, ExploredDataflow, Functionality,
};

fn sweep_opts(max_coeff: i64, parallelism: usize) -> ExploreOptions {
    ExploreOptions {
        max_coeff,
        parallelism,
        keep: 64,
        ..ExploreOptions::default()
    }
}

fn sweep(max_coeff: i64, parallelism: usize) -> Vec<ExploredDataflow> {
    let f = Functionality::matmul(3, 3, 3);
    let opts = sweep_opts(max_coeff, parallelism);
    explore_dataflows(&f, &Bounds::from_extents(&[3, 3, 3]), &opts).unwrap()
}

fn reference_sweep(max_coeff: i64) -> Vec<ExploredDataflow> {
    let f = Functionality::matmul(3, 3, 3);
    let opts = sweep_opts(max_coeff, 1);
    explore_dataflows_reference(&f, &Bounds::from_extents(&[3, 3, 3]), &opts)
        .unwrap()
        .results
}

fn byte_image(results: &[ExploredDataflow]) -> String {
    results
        .iter()
        .map(|e| format!("{e:?}\n"))
        .collect::<String>()
}

#[test]
fn parallel_is_byte_equal_to_serial_at_max_coeff_1() {
    let serial = sweep(1, 1);
    assert!(!serial.is_empty());
    for parallelism in [0, 2, 5] {
        let parallel = sweep(1, parallelism);
        assert_eq!(
            byte_image(&parallel),
            byte_image(&serial),
            "parallelism={parallelism} diverged from the serial ranking"
        );
    }
}

#[test]
fn parallel_is_byte_equal_to_serial_at_max_coeff_2() {
    // ~1.95M candidate transforms (5^9): the acceptance-criteria sweep.
    let serial = sweep(2, 1);
    assert!(!serial.is_empty());
    let parallel = sweep(2, 0);
    assert_eq!(
        byte_image(&parallel),
        byte_image(&serial),
        "auto-parallel ranking diverged from the serial ranking"
    );
}

#[test]
fn fast_path_is_byte_equal_to_reference_fold_at_max_coeff_1() {
    // The scorer fast path vs the retained full-fold oracle scan: same
    // candidates, same ranking, same fields, at every parallelism — on
    // the 3×3×3 sweep and on the 4×4×4 shape e20 searches.
    for n in [3usize, 4] {
        let f = Functionality::matmul(n, n, n);
        let bounds = Bounds::from_extents(&[n, n, n]);
        let oracle = explore_dataflows_reference(&f, &bounds, &sweep_opts(1, 1))
            .unwrap()
            .results;
        assert!(!oracle.is_empty());
        for parallelism in [0, 1, 2, 5] {
            let fast = explore_dataflows(&f, &bounds, &sweep_opts(1, parallelism)).unwrap();
            assert_eq!(
                byte_image(&fast),
                byte_image(&oracle),
                "matmul {n}^3, parallelism={parallelism} diverged from the reference-fold ranking"
            );
        }
    }
}

#[test]
fn fast_path_is_byte_equal_to_reference_fold_at_max_coeff_2() {
    // The acceptance-criteria sweep (~1.95M candidates) against the oracle.
    let oracle = reference_sweep(2);
    assert!(!oracle.is_empty());
    assert_eq!(
        byte_image(&sweep(2, 0)),
        byte_image(&oracle),
        "fast-path ranking diverged from the reference-fold ranking"
    );
}

#[test]
fn parallelism_one_is_the_serial_path() {
    // `parallelism: 1` must not even shard — spot-check it agrees with an
    // explicitly odd worker count on the small sweep.
    assert_eq!(byte_image(&sweep(1, 1)), byte_image(&sweep(1, 7)));
}

#[test]
fn funnel_is_deterministic_and_matches_the_oracle() {
    // The telemetry funnel is part of the determinism contract: the
    // per-stage counts must be byte-identical across parallelism 1/2/4,
    // must sum to the full (2c+1)^(rank²) candidate space, and must equal
    // the reference oracle's funnel (which classifies in the same
    // canonical order but has no packed fast path, hence pack_fallback
    // is compared separately).
    let f = Functionality::matmul(3, 3, 3);
    let bounds = Bounds::from_extents(&[3, 3, 3]);
    let serial = explore_dataflows_profiled(&f, &bounds, &sweep_opts(1, 1)).unwrap();
    serial.funnel.check().unwrap();
    assert_eq!(serial.funnel.decoded, 3u64.pow(9));
    let funnel_image = format!("{:?}", serial.funnel);
    for parallelism in [2usize, 4] {
        let run = explore_dataflows_profiled(&f, &bounds, &sweep_opts(1, parallelism)).unwrap();
        assert_eq!(
            format!("{:?}", run.funnel),
            funnel_image,
            "parallelism={parallelism} funnel diverged from serial"
        );
        assert_eq!(byte_image(&run.results), byte_image(&serial.results));
    }
    let oracle = explore_dataflows_reference(&f, &bounds, &sweep_opts(1, 1)).unwrap();
    oracle.funnel.check().unwrap();
    assert_eq!(oracle.funnel.pack_fallback, 0);
    assert_eq!(oracle.funnel.analytic_scored, 0);
    // The fast path must have routed work through the analytical tier;
    // those counters are informational (outside the partition sums), so
    // they are zeroed before the bucket-for-bucket oracle comparison.
    let mut fast = serial.funnel;
    assert!(fast.analytic_scored > 0);
    fast.pack_fallback = 0;
    fast.analytic_scored = 0;
    fast.analytic_rejected = 0;
    assert_eq!(fast, oracle.funnel, "fast-path funnel diverged from oracle");
    assert_eq!(byte_image(&oracle.results), byte_image(&serial.results));
}

/// Disabling the analytical tier must not change a single byte of the
/// ranking or of the partitioned funnel buckets — only the informational
/// tier-attribution counters may differ. Returns the tier-on funnel.
fn assert_analytic_tier_is_byte_invisible(max_coeff: i64) -> ExploreFunnel {
    let f = Functionality::matmul(3, 3, 3);
    let bounds = Bounds::from_extents(&[3, 3, 3]);
    let on = explore_dataflows_profiled(&f, &bounds, &sweep_opts(max_coeff, 1)).unwrap();
    let opts_off = ExploreOptions {
        analytic_tier: false,
        ..sweep_opts(max_coeff, 1)
    };
    let off = explore_dataflows_profiled(&f, &bounds, &opts_off).unwrap();
    assert_eq!(
        byte_image(&on.results),
        byte_image(&off.results),
        "max_coeff={max_coeff}: analytic tier changed the ranking"
    );
    assert!(on.funnel.analytic_scored > 0, "max_coeff={max_coeff}");
    assert_eq!(off.funnel.analytic_scored, 0);
    assert_eq!(off.funnel.analytic_rejected, 0);
    let mut on_funnel = on.funnel;
    on_funnel.analytic_scored = 0;
    on_funnel.analytic_rejected = 0;
    assert_eq!(
        on_funnel, off.funnel,
        "max_coeff={max_coeff}: analytic tier changed a partitioned bucket"
    );
    on.funnel
}

#[test]
fn analytic_tier_toggle_is_byte_invisible() {
    for max_coeff in [1i64, 2] {
        assert_analytic_tier_is_byte_invisible(max_coeff);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "40M candidates: release builds only")]
fn analytic_tier_toggle_is_byte_invisible_at_max_coeff_3() {
    // The 7^9 = 40,353,607-candidate sweep, where the analytical tier
    // carries the search: every scored candidate must go through it.
    let funnel = assert_analytic_tier_is_byte_invisible(3);
    funnel.check().unwrap();
    assert_eq!(funnel.decoded, 7u64.pow(9));
    assert_eq!(funnel.analytic_scored, funnel.scored);
}

#[test]
fn wide_offset_bounds_exercise_pack_fallback_and_stay_exact() {
    // A far-offset tile whose coordinates overflow the packed-u64
    // space-time key layout: the fold must take its per-point fallback
    // and still match the reference oracle byte for byte. The analytical
    // tier is forced off so every candidate actually reaches the fold.
    let f = Functionality::matmul(3, 3, 3);
    let wide = 1i64 << 20;
    let bounds = Bounds::from_ranges(&[(wide, wide + 3), (wide, wide + 3), (wide, wide + 3)]);
    let opts = ExploreOptions {
        analytic_tier: false,
        ..sweep_opts(1, 1)
    };
    let fold = explore_dataflows_profiled(&f, &bounds, &opts).unwrap();
    fold.funnel.check().unwrap();
    assert!(
        fold.funnel.pack_fallback > 0,
        "wide bounds did not trigger the packed-key fallback: {:?}",
        fold.funnel
    );
    assert!(!fold.results.is_empty());
    let oracle = explore_dataflows_reference(&f, &bounds, &opts).unwrap();
    assert_eq!(
        byte_image(&fold.results),
        byte_image(&oracle.results),
        "pack-fallback ranking diverged from the reference fold"
    );
    // And with the analytical tier on, the same sweep must agree again —
    // the closed forms are offset-invariant, so the fold (and its
    // fallback) is only consulted for survivor confirmation.
    let on = explore_dataflows_profiled(&f, &bounds, &sweep_opts(1, 1)).unwrap();
    assert!(on.funnel.analytic_scored > 0);
    assert_eq!(byte_image(&on.results), byte_image(&oracle.results));
}

#[test]
fn funnel_is_deterministic_on_the_acceptance_sweep() {
    // The ~1.95M-candidate max_coeff=2 sweep: serial vs auto-parallel
    // funnels must agree bucket for bucket.
    let f = Functionality::matmul(3, 3, 3);
    let bounds = Bounds::from_extents(&[3, 3, 3]);
    let serial = explore_dataflows_profiled(&f, &bounds, &sweep_opts(2, 1)).unwrap();
    serial.funnel.check().unwrap();
    assert_eq!(serial.funnel.decoded, 5u64.pow(9));
    let parallel = explore_dataflows_profiled(&f, &bounds, &sweep_opts(2, 0)).unwrap();
    assert_eq!(
        format!("{:?}", parallel.funnel),
        format!("{:?}", serial.funnel),
        "auto-parallel funnel diverged from serial"
    );
    assert_eq!(byte_image(&parallel.results), byte_image(&serial.results));
}

#[test]
fn steal_heavy_skewed_sweep_is_byte_identical_across_worker_counts() {
    // Adversarial scheduling workload: with the analytical tier off,
    // surviving candidates pay the full space-time fold while rejects are
    // nearly free, so per-shard cost is pathologically skewed and idle
    // workers claim the shards behind a loaded peer. Explicit
    // `parallelism` runs exactly that many pool workers — over-
    // subscribing the machine when it has fewer cores — so the claim
    // order is genuinely exercised even on a single-core runner. Rankings
    // and funnels must stay byte-identical to the serial scan whichever
    // worker ran which shard.
    let f = Functionality::matmul(3, 3, 3);
    let bounds = Bounds::from_extents(&[3, 3, 3]);
    let opts = |parallelism: usize| ExploreOptions {
        analytic_tier: false,
        ..sweep_opts(2, parallelism)
    };
    let serial = explore_dataflows_profiled(&f, &bounds, &opts(1)).unwrap();
    serial.funnel.check().unwrap();
    assert!(!serial.results.is_empty());
    let ranking = byte_image(&serial.results);
    let funnel = format!("{:?}", serial.funnel);
    for parallelism in [2usize, 4, 8] {
        let run = explore_dataflows_profiled(&f, &bounds, &opts(parallelism)).unwrap();
        assert_eq!(
            run.workers.worker_count(),
            parallelism,
            "parallelism={parallelism} did not spawn the requested workers"
        );
        assert_eq!(
            byte_image(&run.results),
            ranking,
            "parallelism={parallelism} ranking diverged"
        );
        assert_eq!(
            format!("{:?}", run.funnel),
            funnel,
            "parallelism={parallelism} funnel diverged"
        );
    }
}

#[test]
fn panicking_shard_is_isolated_and_ranking_unperturbed() {
    // A deliberately panicking candidate must surface as
    // Err(WorkerPanicked) — the process survives — and a clean sweep run
    // afterwards in the same process must still be byte-equal to the
    // serial ranking (the catch_unwind wrapper leaves no residue).
    let f = Functionality::matmul(3, 3, 3);
    let bounds = Bounds::from_extents(&[3, 3, 3]);
    let before = byte_image(&sweep(1, 0));
    for parallelism in [0usize, 1, 4] {
        let opts = ExploreOptions {
            panic_on_code: Some(4242),
            ..sweep_opts(1, parallelism)
        };
        let err = explore_dataflows(&f, &bounds, &opts).unwrap_err();
        match err {
            stellar_core::CompileError::WorkerPanicked { ref message } => {
                assert!(
                    message.contains("4242"),
                    "parallelism={parallelism}: {message}"
                );
            }
            other => panic!("parallelism={parallelism}: expected WorkerPanicked, got {other:?}"),
        }
    }
    assert_eq!(
        byte_image(&sweep(1, 0)),
        before,
        "a caught panic perturbed a later clean sweep"
    );
    assert_eq!(byte_image(&sweep(1, 0)), byte_image(&sweep(1, 1)));
}

/// The funnel of the matmul(3,3,3) sweep at `keep = 64`, as the
/// per-candidate analytical tier booked it before the kernel-class table:
/// every scored candidate analytic, every survivor materialized, every
/// other counter zero. `ExploreFunnel::fields()` is serialized into design
/// cache entries, so any shift in tier attribution would change on-disk
/// bytes.
fn pinned_funnel(
    decoded: u64,
    causality_rejected: u64,
    singular: u64,
    scored: u64,
    dedup_collisions: u64,
    survivors: u64,
) -> ExploreFunnel {
    ExploreFunnel {
        decoded,
        causality_rejected,
        singular,
        analytic_scored: scored,
        scored,
        dedup_collisions,
        survivors,
        materialized: survivors,
        ..ExploreFunnel::default()
    }
}

fn assert_funnel_pinned(max_coeff: i64, want: ExploreFunnel) {
    let f = Functionality::matmul(3, 3, 3);
    let bounds = Bounds::from_extents(&[3, 3, 3]);
    for parallelism in [1usize, 2, 4] {
        let run =
            explore_dataflows_profiled(&f, &bounds, &sweep_opts(max_coeff, parallelism)).unwrap();
        assert_eq!(
            run.funnel, want,
            "max_coeff={max_coeff} parallelism={parallelism}: funnel moved"
        );
    }
}

#[test]
fn funnel_is_pinned_at_max_coeff_1_and_2() {
    assert_funnel_pinned(1, pinned_funnel(19_683, 18_954, 273, 456, 452, 4));
    assert_funnel_pinned(
        2,
        pinned_funnel(1_953_125, 1_828_125, 17_264, 107_736, 107_708, 28),
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "40M candidates: release builds only")]
fn funnel_is_pinned_at_max_coeff_3() {
    assert_funnel_pinned(
        3,
        pinned_funnel(40_353_607, 37_177_084, 192_483, 2_984_040, 2_983_991, 49),
    );
}
