//! A reference interpreter for the functional notation.
//!
//! The interpreter executes a [`Functionality`] directly over its tensor
//! iteration space, with no notion of time or space — exactly the semantics
//! the specification promises before any dataflow is chosen. It is the
//! golden model that compiled spatial arrays (and the cycle-level simulator)
//! are validated against.

use std::collections::HashMap;

use stellar_tensor::DenseTensor;

use crate::error::CompileError;
use crate::expr::Expr;
use crate::func::{Functionality, TensorId, TensorRole};
use crate::index::{Bounds, IndexId};
use crate::transform::SpaceTimeTransform;

/// Dense per-variable value storage over a rectangular iteration space:
/// one flat `f64` plane plus a written-flag plane per variable, indexed by
/// the row-major linearization of `(point - lo)`. This replaces the
/// original `Vec<HashMap<Vec<i64>, f64>>` keyed by cloned points — the
/// interpreter's hot loop performs no hashing and no allocation per point.
#[derive(Debug)]
struct DenseStore {
    lo: Vec<i64>,
    strides: Vec<usize>,
    points: usize,
    vals: Vec<f64>,
    written: Vec<bool>,
}

impl DenseStore {
    /// Allocates storage for `num_vars` variables over `bounds`.
    fn new(bounds: &Bounds, num_vars: usize) -> DenseStore {
        let rank = bounds.rank();
        let mut lo = Vec::with_capacity(rank);
        let mut strides = vec![0usize; rank];
        let mut points = 1usize;
        // Row-major: the last iterator varies fastest.
        for d in (0..rank).rev() {
            strides[d] = points;
            points = points.saturating_mul(bounds.extent(IndexId(d)).max(0) as usize);
        }
        for d in 0..rank {
            lo.push(bounds.lo(IndexId(d)));
        }
        DenseStore {
            lo,
            strides,
            points,
            vals: vec![0.0; points.saturating_mul(num_vars)],
            written: vec![false; points.saturating_mul(num_vars)],
        }
    }

    /// Linear slot of `point` for variable `var` (point must be in bounds).
    fn slot(&self, var: usize, point: &[i64]) -> usize {
        let mut n = 0usize;
        for (d, (&p, &l)) in point.iter().zip(&self.lo).enumerate() {
            n += (p - l) as usize * self.strides[d];
        }
        var * self.points + n
    }

    fn get(&self, var: usize, point: &[i64]) -> f64 {
        self.vals[self.slot(var, point)]
    }

    fn is_written(&self, var: usize, point: &[i64]) -> bool {
        self.written[self.slot(var, point)]
    }

    fn set(&mut self, var: usize, point: &[i64], v: f64) {
        let s = self.slot(var, point);
        self.vals[s] = v;
        self.written[s] = true;
    }
}

/// The observable timeline of a scheduled run: how many points did work
/// at each time step of the space-time schedule.
///
/// This is the executor's contribution to cycle attribution: it knows
/// *when* work happened but deliberately not the simulator's stall
/// taxonomy (the dependency points the other way), so it exposes the raw
/// per-step activity profile and lets `stellar-sim` classify it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScheduleProfile {
    /// Number of time steps spanned by the schedule (`tmax - tmin + 1`).
    pub time_steps: i64,
    /// Points that performed an assignment at each step, earliest first.
    /// `busy_per_step.len() == time_steps` for non-empty schedules.
    pub busy_per_step: Vec<u64>,
}

impl ScheduleProfile {
    /// Total busy point count across all steps.
    pub fn busy_points(&self) -> u64 {
        self.busy_per_step.iter().sum()
    }

    /// The peak number of concurrently busy points (0 for empty runs).
    pub fn peak_parallelism(&self) -> u64 {
        self.busy_per_step.iter().copied().max().unwrap_or(0)
    }
}

/// The result of [`Executor::run_scheduled`]: output tensors plus the
/// per-step activity profile.
pub type ProfiledRun = (HashMap<TensorId, DenseTensor>, ScheduleProfile);

/// Executes a [`Functionality`] over concrete bounds and input tensors.
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// use stellar_core::{Bounds, Executor, Functionality};
/// use stellar_tensor::{DenseMatrix, DenseTensor};
///
/// let f = Functionality::matmul(2, 2, 2);
/// let bounds = Bounds::from_extents(&[2, 2, 2]);
/// let tensors: Vec<_> = f.tensors().collect();
///
/// let a = DenseTensor::from_matrix(&DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
/// let b = DenseTensor::from_matrix(&DenseMatrix::identity(2));
/// let mut inputs = HashMap::new();
/// inputs.insert(tensors[0], a.clone());
/// inputs.insert(tensors[1], b);
///
/// let outputs = Executor::new(&f, &bounds).run(&inputs)?;
/// assert_eq!(outputs[&tensors[2]], a); // A * I = A
/// # Ok::<(), stellar_core::CompileError>(())
/// ```
#[derive(Debug)]
pub struct Executor<'f> {
    func: &'f Functionality,
    bounds: Bounds,
    point_budget: u64,
}

/// The default interpreter budget, iteration points. Far above every
/// specification in the suite, low enough to stop a runaway space quickly.
pub const DEFAULT_POINT_BUDGET: u64 = 50_000_000;

impl<'f> Executor<'f> {
    /// Creates an executor for a functionality over the given bounds, with
    /// the default iteration-point budget.
    pub fn new(func: &'f Functionality, bounds: &Bounds) -> Executor<'f> {
        Executor {
            func,
            bounds: bounds.clone(),
            point_budget: DEFAULT_POINT_BUDGET,
        }
    }

    /// Replaces the iteration-point budget: [`Executor::run`] and
    /// [`Executor::run_scheduled`] fail with
    /// [`CompileError::BudgetExhausted`] instead of interpreting more
    /// points than this.
    pub fn with_point_budget(mut self, budget: u64) -> Executor<'f> {
        self.point_budget = budget;
        self
    }

    /// The shape each tensor must have, derived from the iteration bounds
    /// and the tensor's axis iterators.
    pub fn tensor_shape(&self, t: TensorId) -> Vec<usize> {
        self.func
            .tensor_axes(t)
            .iter()
            .map(|&idx| self.bounds.extent(idx) as usize)
            .collect()
    }

    /// Runs the specification, returning the output tensors.
    ///
    /// Assignments at each point execute in declaration order; reads of
    /// out-of-bounds neighbouring points fall back to the variable's current
    /// value at the point (the boundary-input convention of Listing 1).
    ///
    /// # Errors
    ///
    /// Returns an error if validation fails or an input tensor is missing
    /// or mis-shaped.
    pub fn run(
        &self,
        inputs: &HashMap<TensorId, DenseTensor>,
    ) -> Result<HashMap<TensorId, DenseTensor>, CompileError> {
        let (mut vals, mut outputs) = self.prologue(None, inputs)?;
        for point in self.bounds.iter_points() {
            self.step(&point, None, &mut vals, &mut outputs, inputs)?;
        }
        Ok(outputs)
    }

    /// Runs the specification *in the schedule order implied by a
    /// space-time transform*: points execute grouped by time step, earliest
    /// first, exactly as the PEs of the compiled array would.
    ///
    /// Unlike [`Executor::run`], which uses the declaration-order semantics
    /// of the notation, this checks that the dataflow is *causally
    /// consistent* — every value is produced at a strictly earlier time
    /// step (or earlier in the same combinational step) than it is
    /// consumed. A transform that passed compilation but scheduled a read
    /// before its write would be caught here.
    ///
    /// Returns the outputs plus the [`ScheduleProfile`]: how many points
    /// did work at each time step.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::CausalityViolation`] if a point reads a
    /// value its schedule has not yet produced, plus the errors of
    /// [`Executor::run`].
    pub fn run_scheduled(
        &self,
        transform: &SpaceTimeTransform,
        inputs: &HashMap<TensorId, DenseTensor>,
    ) -> Result<ProfiledRun, CompileError> {
        let (mut vals, mut outputs) = self.prologue(Some(transform), inputs)?;
        // Order points by (time, lexicographic) — the hardware schedule.
        let mut points: Vec<(i64, Vec<i64>)> = self
            .bounds
            .iter_points()
            .map(|p| (transform.time_of(&p), p))
            .collect();
        points.sort();
        let (tmin, tmax) = match (points.first(), points.last()) {
            (Some(f), Some(l)) => (f.0, l.0),
            _ => (0, 0),
        };
        let steps = (tmax - tmin + 1).max(0) as usize;
        let mut busy_per_step = vec![0u64; if points.is_empty() { 0 } else { steps }];
        for (t, point) in &points {
            if self.step(point, Some(transform), &mut vals, &mut outputs, inputs)? {
                if let Some(slot) = busy_per_step.get_mut((t - tmin) as usize) {
                    *slot += 1;
                }
            }
        }
        Ok((
            outputs,
            ScheduleProfile {
                time_steps: tmax - tmin + 1,
                busy_per_step,
            },
        ))
    }

    /// Everything both interpreters check before anything is allocated —
    /// the functionality validates, the transform (if any) has the
    /// iteration rank, every input tensor is present with the shape the
    /// bounds give it, and the space fits the point budget — then the value
    /// store and the zeroed output tensors.
    fn prologue(
        &self,
        transform: Option<&SpaceTimeTransform>,
        inputs: &HashMap<TensorId, DenseTensor>,
    ) -> Result<(DenseStore, HashMap<TensorId, DenseTensor>), CompileError> {
        self.func.validate()?;
        if let Some(transform) = transform {
            if transform.rank() != self.bounds.rank() {
                return Err(CompileError::InvalidTransform(format!(
                    "transform rank {} vs iteration rank {}",
                    transform.rank(),
                    self.bounds.rank()
                )));
            }
        }
        for t in self.func.tensors() {
            if self.func.tensor_role(t) == TensorRole::Input {
                let input = inputs.get(&t).ok_or_else(|| {
                    CompileError::Malformed(format!(
                        "missing input tensor '{}'",
                        self.func.tensor_name(t)
                    ))
                })?;
                if input.shape() != self.tensor_shape(t).as_slice() {
                    return Err(CompileError::Malformed(format!(
                        "input tensor '{}' has shape {:?}, expected {:?}",
                        self.func.tensor_name(t),
                        input.shape(),
                        self.tensor_shape(t)
                    )));
                }
            }
        }
        if self.bounds.num_points() as u64 > self.point_budget {
            return Err(CompileError::BudgetExhausted {
                budget: self.point_budget,
            });
        }
        let vals = DenseStore::new(&self.bounds, self.func.num_vars());
        let outputs = self
            .func
            .tensors()
            .filter(|&t| self.func.tensor_role(t) == TensorRole::Output)
            .map(|t| (t, DenseTensor::zeros(&self.tensor_shape(t))))
            .collect();
        Ok((vals, outputs))
    }

    /// Executes one point: the assignments that apply there, in
    /// declaration order, then every output that fires there. Given the
    /// schedule's transform, an assignment first checks that every
    /// in-bounds value it reads from another point is already written.
    /// Returns whether any assignment ran.
    fn step(
        &self,
        point: &[i64],
        transform: Option<&SpaceTimeTransform>,
        vals: &mut DenseStore,
        outputs: &mut HashMap<TensorId, DenseTensor>,
        inputs: &HashMap<TensorId, DenseTensor>,
    ) -> Result<bool, CompileError> {
        let mut did_work = false;
        for a in self.func.assigns() {
            let applies = a
                .lhs
                .iter()
                .enumerate()
                .all(|(d, c)| !c.is_pinned() || c.eval(point, &self.bounds) == point[d]);
            if !applies {
                continue;
            }
            if let Some(transform) = transform {
                for (v, coords) in a.rhs.var_reads() {
                    let src: Vec<i64> =
                        coords.iter().map(|c| c.eval(point, &self.bounds)).collect();
                    if self.bounds.contains(&src) && src != point && !vals.is_written(v.0, &src) {
                        let mut delta = Vec::with_capacity(src.len());
                        let mut here = Vec::with_capacity(src.len());
                        transform.apply_into(&src, &mut delta);
                        transform.apply_into(point, &mut here);
                        for (d, h) in delta.iter_mut().zip(&here) {
                            *d -= h;
                        }
                        return Err(CompileError::CausalityViolation {
                            var: self.func.var_name(v).to_string(),
                            delta,
                        });
                    }
                }
            }
            let v = self.eval(&a.rhs, point, a.var, vals, inputs)?;
            vals.set(a.var.0, point, v);
            did_work = true;
        }
        for o in self.func.outputs() {
            // An output fires at points where its pinned variable reads
            // match the point exactly.
            let fires = o.rhs.var_reads().iter().all(|(_, coords)| {
                coords
                    .iter()
                    .enumerate()
                    .all(|(d, c)| c.eval(point, &self.bounds) == point[d])
            });
            if !fires {
                continue;
            }
            let val = self.eval(&o.rhs, point, o.rhs.var_reads()[0].0, vals, inputs)?;
            let coords: Vec<usize> = o
                .coords
                .iter()
                .map(|c| c.eval(point, &self.bounds) as usize)
                .collect();
            if let Some(out) = outputs.get_mut(&o.tensor) {
                out.set(&coords, val);
            }
        }
        Ok(did_work)
    }

    fn eval(
        &self,
        e: &Expr,
        point: &[i64],
        current_var: crate::func::VarId,
        vals: &DenseStore,
        inputs: &HashMap<TensorId, DenseTensor>,
    ) -> Result<f64, CompileError> {
        Ok(match e {
            Expr::Const(v) => *v,
            Expr::Input(t, coords) => {
                let input = inputs.get(t).ok_or_else(|| {
                    CompileError::Malformed(format!(
                        "missing input tensor '{}'",
                        self.func.tensor_name(*t)
                    ))
                })?;
                let idx: Vec<usize> = coords
                    .iter()
                    .map(|c| c.eval(point, &self.bounds) as usize)
                    .collect();
                input.at(&idx)
            }
            Expr::Var(v, coords) => {
                let src: Vec<i64> = coords.iter().map(|c| c.eval(point, &self.bounds)).collect();
                if self.bounds.contains(&src) {
                    // Unwritten slots read as 0.0, matching the map's miss.
                    vals.get(v.0, &src)
                } else {
                    // Out-of-bounds read: fall back to the variable's
                    // current value at this point (boundary inputs loaded by
                    // an earlier assignment in program order), else 0.
                    let _ = current_var;
                    vals.get(v.0, point)
                }
            }
            Expr::Add(a, b) => {
                self.eval(a, point, current_var, vals, inputs)?
                    + self.eval(b, point, current_var, vals, inputs)?
            }
            Expr::Sub(a, b) => {
                self.eval(a, point, current_var, vals, inputs)?
                    - self.eval(b, point, current_var, vals, inputs)?
            }
            Expr::Mul(a, b) => {
                self.eval(a, point, current_var, vals, inputs)?
                    * self.eval(b, point, current_var, vals, inputs)?
            }
            Expr::Min(a, b) => self
                .eval(a, point, current_var, vals, inputs)?
                .min(self.eval(b, point, current_var, vals, inputs)?),
            Expr::Max(a, b) => self
                .eval(a, point, current_var, vals, inputs)?
                .max(self.eval(b, point, current_var, vals, inputs)?),
            Expr::Select { a, b, if_le, if_gt } => {
                if self.eval(a, point, current_var, vals, inputs)?
                    <= self.eval(b, point, current_var, vals, inputs)?
                {
                    self.eval(if_le, point, current_var, vals, inputs)?
                } else {
                    self.eval(if_gt, point, current_var, vals, inputs)?
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_tensor::DenseMatrix;

    fn run_matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let (m, k) = (a.rows(), a.cols());
        let n = b.cols();
        let f = Functionality::matmul(m, n, k);
        let bounds = Bounds::from_extents(&[m, n, k]);
        let tensors: Vec<TensorId> = f.tensors().collect();
        let mut inputs = HashMap::new();
        inputs.insert(tensors[0], DenseTensor::from_matrix(a));
        // B is indexed B(k, j) in Listing 1: shape [K, N].
        inputs.insert(tensors[1], DenseTensor::from_matrix(b));
        let out = Executor::new(&f, &bounds).run(&inputs).unwrap();
        out[&tensors[2]].to_matrix()
    }

    #[test]
    fn matmul_identity() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let id = DenseMatrix::identity(2);
        assert_eq!(run_matmul(&a, &id), a);
    }

    #[test]
    fn matmul_matches_golden() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = DenseMatrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let got = run_matmul(&a, &b);
        assert!(got.approx_eq(&a.matmul(&b), 1e-9));
    }

    #[test]
    fn matmul_rectangular() {
        let a = DenseMatrix::from_rows(&[&[1.0, 0.5, -2.0, 3.0]]);
        let b = DenseMatrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let got = run_matmul(&a, &b);
        assert!(got.approx_eq(&a.matmul(&b), 1e-9));
    }

    #[test]
    fn tensor_shapes_derived_from_bounds() {
        let f = Functionality::matmul(3, 4, 5);
        let bounds = Bounds::from_extents(&[3, 4, 5]);
        let e = Executor::new(&f, &bounds);
        let tensors: Vec<TensorId> = f.tensors().collect();
        assert_eq!(e.tensor_shape(tensors[0]), vec![3, 5]); // A(i, k)
        assert_eq!(e.tensor_shape(tensors[1]), vec![5, 4]); // B(k, j)
        assert_eq!(e.tensor_shape(tensors[2]), vec![3, 4]); // C(i, j)
    }

    #[test]
    fn scheduled_run_matches_plain_run() {
        use crate::transform::SpaceTimeTransform;
        let f = Functionality::matmul(3, 4, 2);
        let bounds = Bounds::from_extents(&[3, 4, 2]);
        let tensors: Vec<TensorId> = f.tensors().collect();
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, -1.0], &[0.5, 4.0]]);
        let b = DenseMatrix::from_rows(&[&[1.0, 0.0, 2.0, 1.0], &[0.0, 3.0, 1.0, -2.0]]);
        let mut inputs = HashMap::new();
        inputs.insert(tensors[0], DenseTensor::from_matrix(&a));
        inputs.insert(tensors[1], DenseTensor::from_matrix(&b));
        let exec = Executor::new(&f, &bounds);
        let plain = exec.run(&inputs).unwrap();
        for t in [
            SpaceTimeTransform::output_stationary(),
            SpaceTimeTransform::input_stationary(),
            SpaceTimeTransform::hexagonal(),
            SpaceTimeTransform::output_stationary()
                .with_time_scale(2)
                .unwrap(),
        ] {
            let (scheduled, profile) = exec.run_scheduled(&t, &inputs).unwrap();
            assert_eq!(scheduled[&tensors[2]], plain[&tensors[2]], "{t:?}");
            assert!(profile.time_steps > 0);
            assert_eq!(
                profile.busy_points(),
                3 * 4 * 2,
                "every point does work once"
            );
        }
    }

    #[test]
    fn profiled_run_timeline_is_consistent() {
        use crate::transform::SpaceTimeTransform;
        let f = Functionality::matmul(3, 4, 2);
        let bounds = Bounds::from_extents(&[3, 4, 2]);
        let tensors: Vec<TensorId> = f.tensors().collect();
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, -1.0], &[0.5, 4.0]]);
        let b = DenseMatrix::from_rows(&[&[1.0, 0.0, 2.0, 1.0], &[0.0, 3.0, 1.0, -2.0]]);
        let mut inputs = HashMap::new();
        inputs.insert(tensors[0], DenseTensor::from_matrix(&a));
        inputs.insert(tensors[1], DenseTensor::from_matrix(&b));
        let exec = Executor::new(&f, &bounds);
        let t = SpaceTimeTransform::output_stationary();
        let (outputs, profile) = exec.run_scheduled(&t, &inputs).unwrap();
        let plain_out = exec.run(&inputs).unwrap();
        assert_eq!(outputs[&tensors[2]], plain_out[&tensors[2]]);
        assert_eq!(profile.busy_points(), 3 * 4 * 2);
        assert_eq!(profile.busy_per_step.len() as i64, profile.time_steps);
        // Every step of this dense schedule runs some points, and the
        // peak can never exceed the i×j plane of stationary PEs.
        assert!(profile.busy_per_step.iter().all(|&n| n > 0));
        assert!(profile.peak_parallelism() >= 1);
        assert!(profile.peak_parallelism() <= 3 * 4);
    }

    #[test]
    fn scheduled_run_rejects_acausal_transform() {
        use crate::transform::SpaceTimeTransform;
        // Time row (1, 1, -1): accumulation along k runs backwards in time
        // — the schedule reads partial sums before producing them.
        let t = SpaceTimeTransform::output_stationary()
            .with_time_row(&[1, 1, -1])
            .unwrap();
        let f = Functionality::matmul(2, 2, 2);
        let bounds = Bounds::from_extents(&[2, 2, 2]);
        let tensors: Vec<TensorId> = f.tensors().collect();
        let mut inputs = HashMap::new();
        inputs.insert(
            tensors[0],
            DenseTensor::from_matrix(&DenseMatrix::identity(2)),
        );
        inputs.insert(
            tensors[1],
            DenseTensor::from_matrix(&DenseMatrix::identity(2)),
        );
        let err = Executor::new(&f, &bounds).run_scheduled(&t, &inputs);
        assert!(
            matches!(err, Err(CompileError::CausalityViolation { .. })),
            "got {err:?}"
        );
    }

    #[test]
    fn point_budget_bounds_both_interpreters() {
        use crate::transform::SpaceTimeTransform;
        let f = Functionality::matmul(4, 4, 4);
        let bounds = Bounds::from_extents(&[4, 4, 4]);
        let tensors: Vec<TensorId> = f.tensors().collect();
        let mut inputs = HashMap::new();
        inputs.insert(tensors[0], DenseTensor::zeros(&[4, 4]));
        inputs.insert(tensors[1], DenseTensor::zeros(&[4, 4]));
        // 64 points; a budget of 10 must trip.
        let e = Executor::new(&f, &bounds).with_point_budget(10);
        assert!(matches!(
            e.run(&inputs),
            Err(CompileError::BudgetExhausted { budget: 10 })
        ));
        assert!(matches!(
            e.run_scheduled(&SpaceTimeTransform::output_stationary(), &inputs),
            Err(CompileError::BudgetExhausted { budget: 10 })
        ));
        // A budget covering the space runs normally.
        let e = Executor::new(&f, &bounds).with_point_budget(64);
        assert!(e.run(&inputs).is_ok());
    }

    #[test]
    fn missing_input_rejected() {
        let f = Functionality::matmul(2, 2, 2);
        let bounds = Bounds::from_extents(&[2, 2, 2]);
        // Inputs are checked before the point budget, so a missing tensor
        // is named even when the space is also over budget.
        let exec = Executor::new(&f, &bounds).with_point_budget(1);
        let t = SpaceTimeTransform::output_stationary();
        let missing = "missing input tensor 'A'";
        let inputs = HashMap::new();
        assert!(matches!(exec.run(&inputs), Err(CompileError::Malformed(m)) if m == missing));
        assert!(matches!(
            exec.run_scheduled(&t, &inputs),
            Err(CompileError::Malformed(m)) if m == missing
        ));
    }

    #[test]
    fn misshaped_input_rejected() {
        let f = Functionality::matmul(2, 2, 2);
        let bounds = Bounds::from_extents(&[2, 2, 2]);
        let exec = Executor::new(&f, &bounds);
        let tensors: Vec<TensorId> = f.tensors().collect();
        let t = SpaceTimeTransform::output_stationary();
        // Too large would be read as its top-left block, too small would
        // index out of bounds: both must be rejected before any point runs.
        for shape in [[3, 3], [1, 1]] {
            let mut inputs = HashMap::new();
            inputs.insert(tensors[0], DenseTensor::zeros(&shape));
            inputs.insert(tensors[1], DenseTensor::zeros(&[2, 2]));
            let want = format!("input tensor 'A' has shape {shape:?}, expected [2, 2]");
            assert!(matches!(exec.run(&inputs), Err(CompileError::Malformed(m)) if m == want));
            assert!(matches!(
                exec.run_scheduled(&t, &inputs),
                Err(CompileError::Malformed(m)) if m == want
            ));
        }
    }
}
