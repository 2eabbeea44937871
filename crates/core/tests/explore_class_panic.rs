//! Panic isolation inside a time-row block the kernel-class table
//! decides. `explore_parallel.rs` injects its panics into blocks the
//! causality prefilter rejects; here the injected code lies in a causal
//! block, which the search settles from the table's direction records
//! without visiting its candidates one by one.

use stellar_core::{explore_dataflows, Bounds, CompileError, ExploreOptions, Functionality};

#[test]
fn panic_in_a_class_decided_block_is_isolated() {
    let f = Functionality::matmul(3, 3, 3);
    let bounds = Bounds::from_extents(&[3, 3, 3]);
    let opts = |parallelism, panic_on_code| ExploreOptions {
        parallelism,
        panic_on_code,
        keep: 64,
        ..ExploreOptions::default()
    };
    let sweep = |parallelism| {
        let found = explore_dataflows(&f, &bounds, &opts(parallelism, None)).unwrap();
        format!("{found:?}")
    };
    // Code 19,000 lies in the block of codes 18,954..19,683 (3⁶ = 729
    // codes each), whose time row, the top three base-3 digits of 26, is
    // (1, 1, 1): causal for every matmul recurrence.
    let code = 19_000usize;
    assert_eq!((code / 729, code / 729 * 729), (26, 18_954));
    let before = sweep(0);
    for parallelism in [0usize, 1, 4] {
        match explore_dataflows(&f, &bounds, &opts(parallelism, Some(code))) {
            Err(CompileError::WorkerPanicked { message }) => assert!(
                message.contains("19000"),
                "parallelism={parallelism}: {message}"
            ),
            other => panic!("parallelism={parallelism}: expected WorkerPanicked, got {other:?}"),
        }
    }
    assert_eq!(sweep(0), before, "a caught panic perturbed a later sweep");
    assert_eq!(sweep(1), before);
}
