//! E15 — the §IV-F mitigation: a shared Chipyard-style L2 cache between
//! the accelerator's DMA and DRAM.
//!
//! Stellar's private buffers are explicitly managed, but the generated SoC
//! can share an L2 with the host CPU. This experiment measures how much of
//! the scattered-pointer penalty (E9/E14) an L2 absorbs when the pointer
//! working set fits, and how it thrashes when it does not.

use crate::{table, Report};
use stellar_sim::{DramParams, L2Cache};

pub fn run() {
    let mut report = Report::new(
        "e15",
        "§IV-F — shared L2 absorbs scattered pointer reads when they fit",
    );

    // A pointer table accessed twice (multiply phase writes, merge phase
    // reads), at several working-set sizes relative to a 512 KiW L2.
    let mut rows = Vec::new();
    for (label, num_ptrs) in [
        ("64K pointers (fits easily)", 64 * 1024u64),
        ("256K pointers (half of L2)", 256 * 1024),
        ("512K pointers (exactly L2)", 512 * 1024),
        ("2M pointers (4x L2)", 2 * 1024 * 1024),
    ] {
        let mut cache = L2Cache::new(512 * 1024, 8, 8, DramParams::default());
        // First pass: the multiply phase touches every pointer.
        let stride = 13u64; // scattered, not sequential
        let addrs: Vec<u64> = (0..num_ptrs).map(|n| (n * stride) % num_ptrs).collect();
        let first = cache.access_all(addrs.iter().copied());
        cache.reset_stats();
        // Second pass: the merge phase re-reads them.
        let second = cache.access_all(addrs.iter().copied());
        report.breakdown(label, &cache.breakdown());
        report
            .metrics()
            .gauge_set("warm_hit_rate", &[("working_set", label)], cache.hit_rate());
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", first as f64 / num_ptrs as f64),
            format!("{:.1}", second as f64 / num_ptrs as f64),
            format!("{:.0}%", 100.0 * cache.hit_rate()),
        ]);
    }
    table(
        &[
            "pointer working set",
            "cold cyc/ptr",
            "warm cyc/ptr",
            "warm hit rate",
        ],
        &rows,
    );
    println!("\nWhen the pointer table fits in the shared L2, the merge phase's");
    println!("re-reads cost ~hit-latency instead of a DRAM round trip — the same");
    println!("stall the 16-request DMA attacks (E9), absorbed at the memory side.");
    println!("Custom eviction/prefetch policies remain future work, as in §IV-F.");
    report.finish("4 pointer working sets swept against the 512 KiW L2");
}
