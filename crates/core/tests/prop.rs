//! Property-based tests for the Stellar compiler's invariants.

use std::collections::HashMap;

use proptest::prelude::*;
use stellar_core::prelude::*;
use stellar_core::{Executor, IndexId, IterationSpace, SpatialArray};
use stellar_tensor::{DenseMatrix, DenseTensor};

fn small_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..=4, 1usize..=4, 1usize..=4)
}

fn invertible_3x3() -> impl Strategy<Value = SpaceTimeTransform> {
    proptest::sample::select(vec![
        SpaceTimeTransform::output_stationary(),
        SpaceTimeTransform::input_stationary(),
        SpaceTimeTransform::hexagonal(),
        SpaceTimeTransform::output_stationary()
            .with_time_scale(2)
            .unwrap(),
        SpaceTimeTransform::output_stationary()
            .with_time_row(&[2, 1, 1])
            .unwrap(),
        SpaceTimeTransform::output_stationary()
            .with_time_row(&[1, 2, 1])
            .unwrap(),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The executor implements exactly dense matmul semantics for the
    /// paper's Listing 1, for arbitrary shapes and values.
    #[test]
    fn executor_matches_golden_matmul(
        (m, n, k) in small_dims(),
        seed in 0u64..1000,
    ) {
        let a = mat_from_seed(m, k, seed);
        let b = mat_from_seed(k, n, seed.wrapping_add(1));
        let f = Functionality::matmul(m, n, k);
        let tensors: Vec<_> = f.tensors().collect();
        let mut inputs = HashMap::new();
        inputs.insert(tensors[0], DenseTensor::from_matrix(&a));
        inputs.insert(tensors[1], DenseTensor::from_matrix(&b));
        let out = Executor::new(&f, &Bounds::from_extents(&[m, n, k]))
            .run(&inputs)
            .unwrap();
        let got = out[&tensors[2]].to_matrix();
        prop_assert!(got.approx_eq(&a.matmul(&b), 1e-9));
    }

    /// Every space-time transform in the library maps distinct iteration
    /// points to distinct space-time coordinates (no collisions), and the
    /// number of PEs never exceeds the number of points.
    #[test]
    fn transform_folds_without_collision(
        (m, n, k) in small_dims(),
        t in invertible_3x3(),
    ) {
        let f = Functionality::matmul(m, n, k);
        let is = IterationSpace::elaborate(&f, &Bounds::from_extents(&[m, n, k])).unwrap();
        let arr = SpatialArray::from_iterspace(&is, &f, &t).unwrap();
        prop_assert!(arr.num_pes() <= is.num_points());
        prop_assert_eq!(arr.total_macs(), is.total_macs(&f));
        // PE point counts sum to the total number of points.
        let total: usize = arr.pes().iter().map(|p| p.num_points).sum();
        prop_assert_eq!(total, is.num_points());
    }

    /// Sparsity pruning is monotone: adding skip clauses never increases the
    /// number of connections and never decreases the number of IO conns.
    #[test]
    fn pruning_is_monotone(
        (m, n, k) in small_dims(),
        skip_j in proptest::bool::ANY,
        skip_i in proptest::bool::ANY,
    ) {
        let f = Functionality::matmul(m, n, k);
        let bounds = Bounds::from_extents(&[m, n, k]);
        let base = IterationSpace::elaborate(&f, &bounds).unwrap();
        let mut skips = Vec::new();
        if skip_j {
            skips.push(SkipSpec::skip(&[IndexId::nth(1)], &[IndexId::nth(2)]));
        }
        if skip_i {
            skips.push(SkipSpec::skip(&[IndexId::nth(0)], &[IndexId::nth(2)]));
        }
        let mut pruned = base.clone();
        stellar_core::prune::apply_sparsity(&mut pruned, &f, &skips);
        prop_assert!(pruned.conns().len() <= base.conns().len());
        prop_assert!(pruned.io_conns().len() >= base.io_conns().len());
    }

    /// Compilation succeeds for every dataflow in the gallery and produces
    /// a design whose PE count matches the spatial fold.
    #[test]
    fn compile_is_total_over_gallery(
        (m, n, k) in small_dims(),
        t in invertible_3x3(),
        sparse in proptest::bool::ANY,
    ) {
        let mut spec = AcceleratorSpec::new("prop", Functionality::matmul(m, n, k))
            .with_bounds(Bounds::from_extents(&[m, n, k]))
            .with_transform(t);
        if sparse {
            spec = spec.with_skip(SkipSpec::skip(&[IndexId::nth(1)], &[IndexId::nth(2)]));
        }
        let design = compile(&spec).unwrap();
        prop_assert_eq!(design.spatial_arrays.len(), 1);
        prop_assert!(design.spatial_arrays[0].num_pes() >= 1);
        prop_assert_eq!(design.regfiles.len(), 3);
        prop_assert_eq!(design.mem_buffers.len(), 3);
    }

    /// Executing in schedule order (any valid transform) gives exactly the
    /// results of the declaration-order semantics: dataflows change *when*,
    /// never *what*.
    #[test]
    fn schedule_order_preserves_semantics(
        (m, n, k) in small_dims(),
        t in invertible_3x3(),
        seed in 0u64..200,
    ) {
        let a = mat_from_seed(m, k, seed);
        let b = mat_from_seed(k, n, seed + 3);
        let f = Functionality::matmul(m, n, k);
        let tensors: Vec<_> = f.tensors().collect();
        let mut inputs = HashMap::new();
        inputs.insert(tensors[0], DenseTensor::from_matrix(&a));
        inputs.insert(tensors[1], DenseTensor::from_matrix(&b));
        let exec = Executor::new(&f, &Bounds::from_extents(&[m, n, k]));
        let plain = exec.run(&inputs).unwrap();
        let (scheduled, profile) = exec.run_scheduled(&t, &inputs).unwrap();
        prop_assert_eq!(&scheduled[&tensors[2]], &plain[&tensors[2]]);
        prop_assert!(profile.time_steps >= 1);
        prop_assert_eq!(profile.busy_points(), (m * n * k) as u64);
    }

    /// The regfile optimizer never upgrades a matching order to something
    /// more expensive than feed-forward, and never downgrades a data-
    /// dependent order below baseline.
    #[test]
    fn regfile_choice_is_stable(perm in proptest::sample::select(vec![
        vec![0usize, 1], vec![1, 0],
    ])) {
        use stellar_core::{choose_regfile, AccessOrder};
        let producer = AccessOrder::from_coords(
            (0..3).flat_map(|r| (0..3).map(move |c| vec![r, c])).collect(),
        );
        let consumer = producer.permute_axes(&perm);
        let kind = choose_regfile(&producer, &consumer);
        if perm == vec![0, 1] {
            prop_assert_eq!(kind, RegfileKind::FeedForward);
        } else {
            prop_assert_eq!(kind, RegfileKind::Transposing);
        }
    }
}

fn mat_from_seed(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    // Small deterministic pseudo-random integer matrix.
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut m = DenseMatrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((state >> 33) % 7) as f64 - 3.0;
            m.set(r, c, v);
        }
    }
    m
}
