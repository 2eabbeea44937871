//! A cycle-stepped weight-stationary systolic array.
//!
//! This is the executable counterpart of the compiled weight-stationary
//! matmul design (Figure 2a's family): weights are pre-loaded into the PE
//! grid, activations are injected along one edge with a skew of one cycle
//! per row, and partial sums flow down and out the bottom. The simulator
//! advances register state cycle by cycle, so fill and drain latency appear
//! exactly as in hardware, and the computed product is checked against the
//! dense golden model in the tests.
//!
//! Unlike the lane models, a systolic step cannot be skipped — every PE's
//! registers move every cycle. The performance win here is allocation-free
//! stepping: the register planes are flat row-major `Vec<f64>` buffers
//! allocated once and double-buffered with `mem::swap`, and each PE row
//! runs a 4-wide unrolled multiply-add lane, where the retained
//! [`mod@reference`] implementation steps PE by PE and allocates two fresh
//! `Vec<Vec<f64>>` grids per cycle.
//!
//! Each dataflow has two entry points: the plain [`simulate_ws_matmul`] /
//! [`simulate_os_matmul`] (default watchdog, no trace) and
//! [`simulate_ws_matmul_traced`] / [`simulate_os_matmul_traced`], which
//! take the watchdog and the tracer.

use stellar_area::TrafficCounts;
use stellar_tensor::DenseMatrix;

use crate::error::{SimError, Watchdog};
use crate::stats::{SimStats, Utilization};
use crate::trace::{CycleBreakdown, StallClass, Tracer};

/// The result of a cycle-stepped weight-stationary matmul.
#[derive(Clone, Debug, PartialEq)]
pub struct WsResult {
    /// The computed product.
    pub product: DenseMatrix,
    /// Simulation statistics.
    pub stats: SimStats,
}

/// Simulates `A(m×k) · B(k×n)` on a `k × n` grid of weight-stationary PEs
/// (one PE per element of `B`), cycle by cycle.
///
/// The array processes the whole `B` at once, so `k` and `n` are the array
/// dimensions; `m` streams through. Latency is `m + k + n` cycles plus
/// pipeline fill, matching the classic systolic schedule.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] if the shapes disagree, or
/// [`SimError::WatchdogExpired`] if the schedule exceeds the default cycle
/// budget (use [`simulate_ws_matmul_traced`] to pick the budget).
pub fn simulate_ws_matmul(a: &DenseMatrix, b: &DenseMatrix) -> Result<WsResult, SimError> {
    simulate_ws_matmul_traced(a, b, Watchdog::default_budget(), &mut Tracer::disabled())
}

/// [`simulate_ws_matmul`] with every control input: the watchdog bounds
/// the run. Every elapsed cycle is attributed to a
/// [`StallClass`] (preload and pre-activity skew are `Fill`, any-PE-active
/// steps are `Compute`, the tail is `Drain`) and, when the tracer is
/// enabled, per-row stream spans plus preload/drain spans are recorded
/// (track = A row index).
pub fn simulate_ws_matmul_traced(
    a: &DenseMatrix,
    b: &DenseMatrix,
    mut watchdog: Watchdog,
    tracer: &mut Tracer,
) -> Result<WsResult, SimError> {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    if k != b.rows() {
        return Err(SimError::InvalidConfig(format!(
            "inner dimensions disagree: A is {m}x{k}, B is {}x{n}",
            b.rows()
        )));
    }
    if k == 0 || n == 0 {
        return Err(SimError::InvalidConfig("empty weight matrix".into()));
    }

    // PE state, flat row-major planes indexed [r * n + c], allocated once
    // and double-buffered: every slot is rewritten each step, so the swap
    // needs no clearing.
    let mut act = vec![0.0f64; k * n]; // activation entering PE (r, c)
    let mut psum = vec![0.0f64; k * n]; // psum leaving PE (r, c) downward
    let mut next_act = vec![0.0f64; k * n];
    let mut next_psum = vec![0.0f64; k * n];
    let mut product = DenseMatrix::zeros(m, n);

    let mut busy: u64 = 0;
    // Weight preload: one column of rows per cycle (k cycles).
    let preload_cycles = k as u64;

    // Stream phase: row i of A enters row 0..k of the array skewed; the
    // bottom of column c emits C[i][c] after the pipeline delay.
    // Total cycles: skew (k-1) + stream (m) + drain (k + 1).
    let total_steps = m + 2 * k + n;
    let mut breakdown = CycleBreakdown::new().with(StallClass::Fill, preload_cycles);
    tracer.span(0, "ws_preload", 0, preload_cycles, StallClass::Fill);
    for i in 0..m {
        // Row i of A is in flight from its skewed entry until it has
        // traversed the k array rows and n columns.
        tracer.span(
            i as u32,
            "ws_stream_row",
            preload_cycles + i as u64,
            (k + n) as u64,
            StallClass::Compute,
        );
    }
    let mut seen_activity = false;
    // All-zero stand-in for the psum row above row 0, so the lane loop
    // reads `up[c]` unconditionally instead of branching on `r == 0`.
    let zero_row = vec![0.0f64; n];
    watchdog.tick(preload_cycles, "ws weight preload")?;
    for t in 0..total_steps {
        watchdog.tick(1, "ws stream loop")?;
        let mut step_busy = false;
        // The bulk of each PE row (c >= 1) reads three contiguous
        // slices (activations shifted by one, the psum row above, the
        // weight row) and runs a 4-wide unrolled multiply-add lane.
        // Each lane slot computes exactly the per-PE expression
        // `p_in + a_in * w` for its own c — lanes never reassociate
        // across slots, so every f64 is bit-identical to the
        // [`mod@reference`] oracle's.
        for r in (0..k).rev() {
            let ro = r * n;
            let up: &[f64] = if r == 0 { &zero_row } else { &psum[ro - n..ro] };
            let b_row = b.row(r);
            let a_row = &act[ro..ro + n];
            // c == 0 edge: activation injected from A, skewed one
            // cycle per row.
            {
                let i = t as isize - r as isize;
                let a_in = if i >= 0 && (i as usize) < m {
                    a.at(i as usize, r)
                } else {
                    0.0
                };
                let p_in = up[0];
                if a_in != 0.0 || p_in != 0.0 {
                    busy += 1;
                    step_busy = true;
                }
                next_act[ro] = a_in;
                next_psum[ro] = p_in + a_in * b_row[0];
            }
            let mut c = 1usize;
            while c + 4 <= n {
                let (a0, a1, a2, a3) = (a_row[c - 1], a_row[c], a_row[c + 1], a_row[c + 2]);
                let (p0, p1, p2, p3) = (up[c], up[c + 1], up[c + 2], up[c + 3]);
                let (w0, w1, w2, w3) = (b_row[c], b_row[c + 1], b_row[c + 2], b_row[c + 3]);
                next_act[ro + c] = a0;
                next_act[ro + c + 1] = a1;
                next_act[ro + c + 2] = a2;
                next_act[ro + c + 3] = a3;
                next_psum[ro + c] = p0 + a0 * w0;
                next_psum[ro + c + 1] = p1 + a1 * w1;
                next_psum[ro + c + 2] = p2 + a2 * w2;
                next_psum[ro + c + 3] = p3 + a3 * w3;
                let live = u64::from(a0 != 0.0 || p0 != 0.0)
                    + u64::from(a1 != 0.0 || p1 != 0.0)
                    + u64::from(a2 != 0.0 || p2 != 0.0)
                    + u64::from(a3 != 0.0 || p3 != 0.0);
                if live != 0 {
                    busy += live;
                    step_busy = true;
                }
                c += 4;
            }
            while c < n {
                let a_in = a_row[c - 1];
                let p_in = up[c];
                if a_in != 0.0 || p_in != 0.0 {
                    busy += 1;
                    step_busy = true;
                }
                next_act[ro + c] = a_in;
                next_psum[ro + c] = p_in + a_in * b_row[c];
                c += 1;
            }
            // Bottom-row output collection as a postpass over the
            // valid c range instead of a branch per PE: C[i][c] with
            // i = t - (k-1) - c lands in [0, m).
            if r == k - 1 {
                let base = t as isize - (k - 1) as isize;
                let c_lo = (base - m as isize + 1).max(0);
                let c_hi = base.min(n as isize - 1);
                let mut c = c_lo;
                while c <= c_hi {
                    product.set((base - c) as usize, c as usize, next_psum[ro + c as usize]);
                    c += 1;
                }
            }
        }
        std::mem::swap(&mut act, &mut next_act);
        std::mem::swap(&mut psum, &mut next_psum);
        // Cycle attribution: while any PE holds live data the array is
        // computing; a quiet step before first activity is pipeline fill
        // (skew), after last activity it is drain.
        if step_busy {
            seen_activity = true;
            breakdown.add(StallClass::Compute, 1);
        } else if seen_activity {
            breakdown.add(StallClass::Drain, 1);
        } else {
            breakdown.add(StallClass::Fill, 1);
        }
    }

    let cycles = preload_cycles + total_steps as u64;
    breakdown.debug_assert_accounts_for(cycles, "ws systolic");
    let macs = (m * n * k) as u64;
    Ok(WsResult {
        product,
        stats: SimStats {
            cycles,
            utilization: Utilization {
                busy,
                total: cycles * (k * n) as u64,
            },
            traffic: TrafficCounts {
                macs,
                sram_accesses: (m * k + k * n + m * n) as u64,
                regfile_accesses: 2 * macs,
                dram_words: 0,
                pe_cycles: cycles * (k * n) as u64,
            },
            breakdown,
        },
    })
}

/// Simulates `A(m×k) · B(k×n)` on an `m × n` grid of *output-stationary*
/// PEs (one PE per element of `C`), cycle by cycle — the Figure 2b
/// dataflow, as a counterpart to the weight-stationary array.
///
/// `A` rows enter from the left (skewed one cycle per row), `B` columns
/// enter from the top (skewed one cycle per column), and each PE
/// accumulates its dot product in place; results drain at the end.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] if the shapes disagree, or
/// [`SimError::WatchdogExpired`] past the default cycle budget.
pub fn simulate_os_matmul(a: &DenseMatrix, b: &DenseMatrix) -> Result<WsResult, SimError> {
    simulate_os_matmul_traced(a, b, Watchdog::default_budget(), &mut Tracer::disabled())
}

/// [`simulate_os_matmul`] with every control input: the watchdog bounds
/// the run. Any-PE-active steps are
/// `Compute`, quiet steps before first activity are `Fill`, the tail and
/// the end-of-run result drain are `Drain`; when enabled, the tracer
/// records one accumulate span per output row (track = C row index).
pub fn simulate_os_matmul_traced(
    a: &DenseMatrix,
    b: &DenseMatrix,
    mut watchdog: Watchdog,
    tracer: &mut Tracer,
) -> Result<WsResult, SimError> {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    if k != b.rows() {
        return Err(SimError::InvalidConfig(format!(
            "inner dimensions disagree: A is {m}x{k}, B is {}x{n}",
            b.rows()
        )));
    }
    if m == 0 || n == 0 {
        return Err(SimError::InvalidConfig("empty output matrix".into()));
    }

    // Flat row-major planes indexed [i * n + j], allocated once; the
    // moving registers double-buffer, the accumulators update in place.
    let mut a_reg = vec![0.0f64; m * n]; // a value flowing right
    let mut b_reg = vec![0.0f64; m * n]; // b value flowing down
    let mut next_a = vec![0.0f64; m * n];
    let mut next_b = vec![0.0f64; m * n];
    let mut acc = vec![0.0f64; m * n]; // stationary accumulators
    let mut busy = 0u64;

    // Element A[i][kk] enters row i at t = i + kk; element B[kk][j] enters
    // column j at t = j + kk; they meet at PE (i, j) at t = i + j + kk.
    let total_steps = k + m + n;
    let mut breakdown = CycleBreakdown::new();
    let mut seen_activity = false;
    for i in 0..m {
        // Row i's accumulators are live from the first A arrival (t = i)
        // until the last k index has flowed across all n columns.
        tracer.span(
            i as u32,
            "os_accumulate_row",
            i as u64,
            (k + n) as u64,
            StallClass::Compute,
        );
    }
    for t in 0..total_steps {
        watchdog.tick(1, "os stream loop")?;
        let mut step_busy = false;
        // 4-wide lanes. The accumulator update is made
        // *unconditional* (`acc + a_in * b_in` even when both inputs
        // are zero), which is bit-identical to the [`mod@reference`]
        // oracle's guarded update: `acc` can never be `-0.0` (it starts at `+0.0`, and
        // under round-to-nearest a sum is `-0.0` only when both
        // addends are `-0.0`), so adding the `±0.0` product of two
        // zero inputs returns `acc` exactly. Busy accounting keeps
        // the original guard. Lanes never reassociate across slots.
        for i in 0..m {
            let io = i * n;
            // j == 0 edge: A enters from the left.
            {
                let kk = t as isize - i as isize;
                let a_in = if kk >= 0 && (kk as usize) < k {
                    a.at(i, kk as usize)
                } else {
                    0.0
                };
                let b_in = if i == 0 {
                    let kk = t as isize;
                    if (kk as usize) < k {
                        b.at(kk as usize, 0)
                    } else {
                        0.0
                    }
                } else {
                    b_reg[io - n]
                };
                if a_in != 0.0 || b_in != 0.0 {
                    busy += 1;
                    step_busy = true;
                }
                acc[io] += a_in * b_in;
                next_a[io] = a_in;
                next_b[io] = b_in;
            }
            if i == 0 {
                // Top row: B still enters from the edge, so the b_in
                // load is not a contiguous slice — keep it scalar.
                for j in 1..n {
                    let a_in = a_reg[j - 1];
                    let kk = t as isize - j as isize;
                    let b_in = if kk >= 0 && (kk as usize) < k {
                        b.at(kk as usize, j)
                    } else {
                        0.0
                    };
                    if a_in != 0.0 || b_in != 0.0 {
                        busy += 1;
                        step_busy = true;
                    }
                    acc[j] += a_in * b_in;
                    next_a[j] = a_in;
                    next_b[j] = b_in;
                }
                continue;
            }
            // Bulk j in 1..n: both operands stream from registers —
            // a shifted by one column, b from the row above.
            let a_row = &a_reg[io..io + n];
            let b_up = &b_reg[io - n..io];
            let mut j = 1usize;
            while j + 4 <= n {
                let (a0, a1, a2, a3) = (a_row[j - 1], a_row[j], a_row[j + 1], a_row[j + 2]);
                let (b0, b1, b2, b3) = (b_up[j], b_up[j + 1], b_up[j + 2], b_up[j + 3]);
                acc[io + j] += a0 * b0;
                acc[io + j + 1] += a1 * b1;
                acc[io + j + 2] += a2 * b2;
                acc[io + j + 3] += a3 * b3;
                next_a[io + j] = a0;
                next_a[io + j + 1] = a1;
                next_a[io + j + 2] = a2;
                next_a[io + j + 3] = a3;
                next_b[io + j] = b0;
                next_b[io + j + 1] = b1;
                next_b[io + j + 2] = b2;
                next_b[io + j + 3] = b3;
                let live = u64::from(a0 != 0.0 || b0 != 0.0)
                    + u64::from(a1 != 0.0 || b1 != 0.0)
                    + u64::from(a2 != 0.0 || b2 != 0.0)
                    + u64::from(a3 != 0.0 || b3 != 0.0);
                if live != 0 {
                    busy += live;
                    step_busy = true;
                }
                j += 4;
            }
            while j < n {
                let a_in = a_row[j - 1];
                let b_in = b_up[j];
                if a_in != 0.0 || b_in != 0.0 {
                    busy += 1;
                    step_busy = true;
                }
                acc[io + j] += a_in * b_in;
                next_a[io + j] = a_in;
                next_b[io + j] = b_in;
                j += 1;
            }
        }
        std::mem::swap(&mut a_reg, &mut next_a);
        std::mem::swap(&mut b_reg, &mut next_b);
        if step_busy {
            seen_activity = true;
            breakdown.add(StallClass::Compute, 1);
        } else if seen_activity {
            breakdown.add(StallClass::Drain, 1);
        } else {
            breakdown.add(StallClass::Fill, 1);
        }
    }

    let mut product = DenseMatrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            product.set(i, j, acc[i * n + j]);
        }
    }
    // Drain: one cycle per output column through the edge ports.
    let cycles = (total_steps + n) as u64;
    breakdown.add(StallClass::Drain, n as u64);
    tracer.span(
        0,
        "os_drain",
        total_steps as u64,
        n as u64,
        StallClass::Drain,
    );
    breakdown.debug_assert_accounts_for(cycles, "os systolic");
    watchdog.tick(n as u64, "os drain")?;
    let macs = (m * n * k) as u64;
    Ok(WsResult {
        product,
        stats: SimStats {
            cycles,
            utilization: Utilization {
                busy,
                total: cycles * (m * n) as u64,
            },
            traffic: TrafficCounts {
                macs,
                sram_accesses: (m * k + k * n + m * n) as u64,
                regfile_accesses: 2 * macs,
                dram_words: 0,
                pe_cycles: cycles * (m * n) as u64,
            },
            breakdown,
        },
    })
}

/// The retained per-cycle implementations with nested-`Vec` PE grids and
/// two fresh grid allocations per step — the observational-equivalence
/// oracle for the flat-buffer paths above and the "pre" side of the `sim`
/// benchmark suite.
pub mod reference {
    use super::*;

    /// Allocation-per-step counterpart of [`simulate_ws_matmul_traced`]
    /// (identical observable behaviour).
    ///
    /// # Errors
    ///
    /// Identical to [`simulate_ws_matmul_traced`].
    pub fn simulate_ws_matmul_traced(
        a: &DenseMatrix,
        b: &DenseMatrix,
        mut watchdog: Watchdog,
        tracer: &mut Tracer,
    ) -> Result<WsResult, SimError> {
        let (m, k) = (a.rows(), a.cols());
        let n = b.cols();
        if k != b.rows() {
            return Err(SimError::InvalidConfig(format!(
                "inner dimensions disagree: A is {m}x{k}, B is {}x{n}",
                b.rows()
            )));
        }
        if k == 0 || n == 0 {
            return Err(SimError::InvalidConfig("empty weight matrix".into()));
        }

        // PE state: stationary weight, activation register, psum register.
        let mut act = vec![vec![0.0f64; n]; k]; // act[r][c]: activation entering PE (r, c)
        let mut psum = vec![vec![0.0f64; n]; k]; // psum leaving PE (r, c) downward
        let mut product = DenseMatrix::zeros(m, n);

        let mut busy: u64 = 0;
        // Weight preload: one column of rows per cycle (k cycles).
        let preload_cycles = k as u64;

        // Stream phase: row i of A enters row 0..k of the array skewed; the
        // bottom of column c emits C[i][c] after the pipeline delay.
        // Total cycles: skew (k-1) + stream (m) + drain (k + 1).
        let total_steps = m + 2 * k + n;
        let mut breakdown = CycleBreakdown::new().with(StallClass::Fill, preload_cycles);
        tracer.span(0, "ws_preload", 0, preload_cycles, StallClass::Fill);
        for i in 0..m {
            // Row i of A is in flight from its skewed entry until it has
            // traversed the k array rows and n columns.
            tracer.span(
                i as u32,
                "ws_stream_row",
                preload_cycles + i as u64,
                (k + n) as u64,
                StallClass::Compute,
            );
        }
        let mut seen_activity = false;
        watchdog.tick(preload_cycles, "ws weight preload")?;
        for t in 0..total_steps {
            watchdog.tick(1, "ws stream loop")?;
            let mut step_busy = false;
            // Advance from the bottom row upward so values move one PE per
            // cycle.
            let mut next_act = vec![vec![0.0f64; n]; k];
            let mut next_psum = vec![vec![0.0f64; n]; k];
            for r in (0..k).rev() {
                for c in 0..n {
                    // Activation arrives from the left (c == 0 edge injects).
                    let a_in = if c == 0 {
                        // Row r receives A[i][r] at time t = i + r (skewed).
                        let i = t as isize - r as isize;
                        if i >= 0 && (i as usize) < m {
                            a.at(i as usize, r)
                        } else {
                            0.0
                        }
                    } else {
                        act[r][c - 1]
                    };
                    // Partial sum arrives from above.
                    let p_in = if r == 0 { 0.0 } else { psum[r - 1][c] };
                    let w = b.at(r, c);
                    let p_out = p_in + a_in * w;
                    if a_in != 0.0 || p_in != 0.0 {
                        busy += 1;
                        step_busy = true;
                    }
                    next_act[r][c] = a_in;
                    next_psum[r][c] = p_out;
                    // The bottom row's output is C[i][c] for the activation
                    // row that entered k + c cycles ago... handled below by
                    // collecting when r == k-1.
                    if r == k - 1 {
                        let i = t as isize - (k - 1) as isize - c as isize;
                        if i >= 0 && (i as usize) < m {
                            product.set(i as usize, c, p_out);
                        }
                    }
                }
            }
            act = next_act;
            psum = next_psum;
            // Cycle attribution: while any PE holds live data the array is
            // computing; a quiet step before first activity is pipeline fill
            // (skew), after last activity it is drain.
            if step_busy {
                seen_activity = true;
                breakdown.add(StallClass::Compute, 1);
            } else if seen_activity {
                breakdown.add(StallClass::Drain, 1);
            } else {
                breakdown.add(StallClass::Fill, 1);
            }
        }

        let cycles = preload_cycles + total_steps as u64;
        breakdown.debug_assert_accounts_for(cycles, "ws systolic");
        let macs = (m * n * k) as u64;
        Ok(WsResult {
            product,
            stats: SimStats {
                cycles,
                utilization: Utilization {
                    busy,
                    total: cycles * (k * n) as u64,
                },
                traffic: TrafficCounts {
                    macs,
                    sram_accesses: (m * k + k * n + m * n) as u64,
                    regfile_accesses: 2 * macs,
                    dram_words: 0,
                    pe_cycles: cycles * (k * n) as u64,
                },
                breakdown,
            },
        })
    }

    /// Allocation-per-step counterpart of [`simulate_os_matmul_traced`]
    /// (identical observable behaviour).
    ///
    /// # Errors
    ///
    /// Identical to [`simulate_os_matmul_traced`].
    pub fn simulate_os_matmul_traced(
        a: &DenseMatrix,
        b: &DenseMatrix,
        mut watchdog: Watchdog,
        tracer: &mut Tracer,
    ) -> Result<WsResult, SimError> {
        let (m, k) = (a.rows(), a.cols());
        let n = b.cols();
        if k != b.rows() {
            return Err(SimError::InvalidConfig(format!(
                "inner dimensions disagree: A is {m}x{k}, B is {}x{n}",
                b.rows()
            )));
        }
        if m == 0 || n == 0 {
            return Err(SimError::InvalidConfig("empty output matrix".into()));
        }

        let mut a_reg = vec![vec![0.0f64; n]; m]; // a value flowing right
        let mut b_reg = vec![vec![0.0f64; n]; m]; // b value flowing down
        let mut acc = vec![vec![0.0f64; n]; m]; // stationary accumulators
        let mut busy = 0u64;

        // Element A[i][kk] enters row i at t = i + kk; element B[kk][j]
        // enters column j at t = j + kk; they meet at PE (i, j) at
        // t = i + j + kk.
        let total_steps = k + m + n;
        let mut breakdown = CycleBreakdown::new();
        let mut seen_activity = false;
        for i in 0..m {
            // Row i's accumulators are live from the first A arrival (t = i)
            // until the last k index has flowed across all n columns.
            tracer.span(
                i as u32,
                "os_accumulate_row",
                i as u64,
                (k + n) as u64,
                StallClass::Compute,
            );
        }
        for t in 0..total_steps {
            watchdog.tick(1, "os stream loop")?;
            let mut step_busy = false;
            let mut next_a = vec![vec![0.0f64; n]; m];
            let mut next_b = vec![vec![0.0f64; n]; m];
            for i in 0..m {
                for j in 0..n {
                    let a_in = if j == 0 {
                        let kk = t as isize - i as isize;
                        if kk >= 0 && (kk as usize) < k {
                            a.at(i, kk as usize)
                        } else {
                            0.0
                        }
                    } else {
                        a_reg[i][j - 1]
                    };
                    let b_in = if i == 0 {
                        let kk = t as isize - j as isize;
                        if kk >= 0 && (kk as usize) < k {
                            b.at(kk as usize, j)
                        } else {
                            0.0
                        }
                    } else {
                        b_reg[i - 1][j]
                    };
                    // Alignment: at PE (i, j), a_in arrived after j hops and
                    // b_in after i hops; a_in carries A[i][t - i - j] and
                    // b_in carries B[t - i - j][j] — the matching k index.
                    if a_in != 0.0 || b_in != 0.0 {
                        busy += 1;
                        step_busy = true;
                        acc[i][j] += a_in * b_in;
                    }
                    next_a[i][j] = a_in;
                    next_b[i][j] = b_in;
                }
            }
            a_reg = next_a;
            b_reg = next_b;
            if step_busy {
                seen_activity = true;
                breakdown.add(StallClass::Compute, 1);
            } else if seen_activity {
                breakdown.add(StallClass::Drain, 1);
            } else {
                breakdown.add(StallClass::Fill, 1);
            }
        }

        let mut product = DenseMatrix::zeros(m, n);
        for (i, row) in acc.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                product.set(i, j, v);
            }
        }
        // Drain: one cycle per output column through the edge ports.
        let cycles = (total_steps + n) as u64;
        breakdown.add(StallClass::Drain, n as u64);
        tracer.span(
            0,
            "os_drain",
            total_steps as u64,
            n as u64,
            StallClass::Drain,
        );
        breakdown.debug_assert_accounts_for(cycles, "os systolic");
        watchdog.tick(n as u64, "os drain")?;
        let macs = (m * n * k) as u64;
        Ok(WsResult {
            product,
            stats: SimStats {
                cycles,
                utilization: Utilization {
                    busy,
                    total: cycles * (m * n) as u64,
                },
                traffic: TrafficCounts {
                    macs,
                    sram_accesses: (m * k + k * n + m * n) as u64,
                    regfile_accesses: 2 * macs,
                    dram_words: 0,
                    pe_cycles: cycles * (m * n) as u64,
                },
                breakdown,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_tensor::gen;

    #[test]
    fn computes_correct_product() {
        let a = gen::dense(5, 4, 1);
        let b = gen::dense(4, 3, 2);
        let r = simulate_ws_matmul(&a, &b).unwrap();
        assert!(
            r.product.approx_eq(&a.matmul(&b), 1e-9),
            "systolic result diverges from golden matmul"
        );
    }

    #[test]
    fn identity_weights() {
        let a = gen::dense(6, 3, 3);
        let id = DenseMatrix::identity(3);
        let r = simulate_ws_matmul(&a, &id).unwrap();
        assert!(r.product.approx_eq(&a, 1e-12));
    }

    #[test]
    fn cycle_count_has_fill_and_drain() {
        let a = gen::dense(8, 4, 4);
        let b = gen::dense(4, 4, 5);
        let r = simulate_ws_matmul(&a, &b).unwrap();
        // Preload k + stream m + skew/drain ~ 2k + n.
        assert_eq!(r.stats.cycles, 4 + (8 + 8 + 4) as u64);
        assert_eq!(r.stats.traffic.macs, 8 * 4 * 4);
    }

    #[test]
    fn utilization_improves_with_longer_streams() {
        let b = gen::dense(4, 4, 7);
        let short = simulate_ws_matmul(&gen::dense(2, 4, 8), &b).unwrap();
        let long = simulate_ws_matmul(&gen::dense(64, 4, 9), &b).unwrap();
        assert!(
            long.stats.utilization.fraction() > short.stats.utilization.fraction(),
            "longer streams must amortize fill/drain"
        );
    }

    #[test]
    fn rectangular_shapes() {
        let a = gen::dense(3, 5, 10);
        let b = gen::dense(5, 2, 11);
        let r = simulate_ws_matmul(&a, &b).unwrap();
        assert!(r.product.approx_eq(&a.matmul(&b), 1e-9));
    }

    #[test]
    fn output_stationary_correct() {
        let a = gen::dense(5, 4, 20);
        let b = gen::dense(4, 3, 21);
        let r = simulate_os_matmul(&a, &b).unwrap();
        assert!(
            r.product.approx_eq(&a.matmul(&b), 1e-9),
            "output-stationary result diverges from golden matmul"
        );
    }

    #[test]
    fn both_dataflows_agree() {
        // The point of the dataflow abstraction: different space-time
        // transforms, identical results, different cycle profiles.
        let a = gen::dense(6, 6, 30);
        let b = gen::dense(6, 6, 31);
        let ws = simulate_ws_matmul(&a, &b).unwrap();
        let os = simulate_os_matmul(&a, &b).unwrap();
        assert!(ws.product.approx_eq(&os.product, 1e-9));
        assert_eq!(ws.stats.traffic.macs, os.stats.traffic.macs);
        assert_ne!(ws.stats.cycles, os.stats.cycles);
    }

    #[test]
    fn mismatched_shapes_are_invalid_config() {
        let a = gen::dense(3, 4, 1);
        let b = gen::dense(5, 2, 2);
        assert!(matches!(
            simulate_ws_matmul(&a, &b),
            Err(SimError::InvalidConfig(_))
        ));
        assert!(matches!(
            simulate_os_matmul(&a, &b),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn watchdog_bounds_the_stream_loop() {
        let a = gen::dense(64, 8, 1);
        let b = gen::dense(8, 8, 2);
        let err =
            simulate_ws_matmul_traced(&a, &b, Watchdog::with_budget(10), &mut Tracer::disabled())
                .unwrap_err();
        assert!(matches!(err, SimError::WatchdogExpired { budget: 10, .. }));
        // A budget covering the full schedule succeeds and reports the same
        // cycles as the default-budget entry point.
        let ok = simulate_ws_matmul_traced(
            &a,
            &b,
            Watchdog::with_budget(1_000_000),
            &mut Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(
            ok.stats.cycles,
            simulate_ws_matmul(&a, &b).unwrap().stats.cycles
        );
    }

    #[test]
    fn breakdown_sums_to_cycles_and_traces() {
        let a = gen::dense(8, 4, 4);
        let b = gen::dense(4, 4, 5);
        let mut tracer = Tracer::enabled();
        let r = simulate_ws_matmul_traced(&a, &b, Watchdog::default_budget(), &mut tracer).unwrap();
        assert_eq!(r.stats.breakdown.total(), r.stats.cycles);
        assert!(r.stats.breakdown.get(StallClass::Compute) > 0);
        // Weight preload is always attributed to Fill.
        assert!(r.stats.breakdown.get(StallClass::Fill) >= 4);
        assert!(!tracer.is_empty(), "enabled tracer must record spans");
        let os = simulate_os_matmul(&a, &b).unwrap();
        assert_eq!(os.stats.breakdown.total(), os.stats.cycles);
        // Result drain through edge ports is attributed to Drain.
        assert!(os.stats.breakdown.get(StallClass::Drain) >= 4);
    }

    #[test]
    fn os_long_reduction_favors_ws_shape() {
        // Output-stationary arrays are m*n PEs; weight-stationary are k*n.
        // For long reductions the OS array holds fewer PEs busy longer.
        let a = gen::dense(2, 32, 40);
        let b = gen::dense(32, 2, 41);
        let os = simulate_os_matmul(&a, &b).unwrap();
        assert!(os.product.approx_eq(&a.matmul(&b), 1e-9));
        assert!(os.stats.cycles >= 32);
    }
}
