//! The `IterationSpace` intermediate representation (§IV-B, Figure 9).
//!
//! Elaboration turns a [`Functionality`] plus concrete [`Bounds`] into a set
//! of [`Point`]s — one per tensor iteration — carrying [`Assignment`]s,
//! connected by [`Point2PointConn`]s (data dependencies between points) and
//! [`IOConn`]s (requests to external register files). Subsequent passes
//! prune connections (sparsity, load balancing) and apply the space-time
//! transform.

use std::collections::HashMap;
use std::fmt;

use crate::error::CompileError;
use crate::exec::DEFAULT_POINT_BUDGET;
use crate::func::{Functionality, TensorId, VarId};
use crate::index::Bounds;

/// An opaque handle to a [`Point`] within an [`IterationSpace`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PointId(pub(crate) usize);

/// One point of the tensor iteration space: a concrete value of the
/// iteration vector, e.g. `(i=1, j=2, k=3)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Point {
    coords: Vec<i64>,
}

impl Point {
    /// The iteration coordinates.
    pub fn coords(&self) -> &[i64] {
        &self.coords
    }
}

/// What a point's assignment does, summarized for hardware generation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AssignKind {
    /// Initialize a variable to a constant (e.g. `c := 0`).
    Init,
    /// Load a variable from an input tensor.
    Load(TensorId),
    /// Forward a variable from a neighbouring point unchanged.
    Propagate,
    /// Perform arithmetic (the PE's "User-Defined Logic", Figure 11).
    Compute,
}

/// One operation a point must perform: the per-point instantiation of a
/// functionality assignment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Assignment {
    /// The variable assigned.
    pub var: VarId,
    /// The kind of operation.
    pub kind: AssignKind,
    /// Index of the originating assignment in the functionality.
    pub source: usize,
}

/// A data dependency between two points, carried by a variable
/// (Figure 9a's `Point2PointConn`s).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Point2PointConn {
    /// The variable whose value flows along this connection.
    pub var: VarId,
    /// The producing point.
    pub src: PointId,
    /// The consuming point.
    pub dst: PointId,
    /// The difference vector `dst - src`.
    pub diff: Vec<i64>,
    /// Bundle width: 1 for scalar connections, larger for `OptimisticSkip`
    /// bundles (Figure 5).
    pub bundle: usize,
}

/// The direction of an IO connection, from the spatial array's perspective.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IoDir {
    /// The point reads this tensor element from a register file.
    Read,
    /// The point writes this tensor element to a register file.
    Write,
}

/// An input- or output-request from a point to an external register file
/// (Figure 9a's `IOConn`s).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IOConn {
    /// The tensor being accessed.
    pub tensor: TensorId,
    /// The variable carrying the value inside the array.
    pub var: VarId,
    /// The requesting point.
    pub point: PointId,
    /// Read or write.
    pub dir: IoDir,
    /// The tensor coordinates accessed.
    pub coords: Vec<i64>,
}

/// The elaborated iteration-space IR.
///
/// # Examples
///
/// ```
/// use stellar_core::{Bounds, Functionality, IterationSpace};
///
/// let f = Functionality::matmul(4, 4, 4);
/// let is = IterationSpace::elaborate(&f, &Bounds::from_extents(&[4, 4, 4]))?;
/// assert_eq!(is.num_points(), 64);
/// // Dense matmul: a, b, c each propagate along one axis.
/// assert!(is.conns().len() > 0);
/// # Ok::<(), stellar_core::CompileError>(())
/// ```
#[derive(Clone, Debug)]
pub struct IterationSpace {
    bounds: Bounds,
    points: Vec<Point>,
    ids: HashMap<Vec<i64>, PointId>,
    assigns: Vec<Vec<Assignment>>,
    conns: Vec<Point2PointConn>,
    io_conns: Vec<IOConn>,
}

impl IterationSpace {
    /// Elaborates a functionality over concrete bounds into the baseline
    /// dense IR of Figure 9a.
    ///
    /// # Errors
    ///
    /// Returns an error if the functionality fails validation or has
    /// inconsistent recurrences, and [`CompileError::BudgetExhausted`] —
    /// before allocating anything — for a space of more than
    /// [`DEFAULT_POINT_BUDGET`] points.
    pub fn elaborate(
        func: &Functionality,
        bounds: &Bounds,
    ) -> Result<IterationSpace, CompileError> {
        func.validate()?;
        if bounds.rank() != func.rank() {
            return Err(CompileError::Malformed(format!(
                "bounds rank {} does not match functionality rank {}",
                bounds.rank(),
                func.rank()
            )));
        }
        if bounds.num_points() as u64 > DEFAULT_POINT_BUDGET {
            return Err(CompileError::BudgetExhausted {
                budget: DEFAULT_POINT_BUDGET,
            });
        }
        let mut points = Vec::with_capacity(bounds.num_points());
        let mut ids = HashMap::with_capacity(bounds.num_points());
        for coords in bounds.iter_points() {
            let id = PointId(points.len());
            ids.insert(coords.clone(), id);
            points.push(Point { coords });
        }
        let mut assigns: Vec<Vec<Assignment>> = vec![Vec::new(); points.len()];
        let mut conns = Vec::new();
        let mut io_conns = Vec::new();

        // Per-variable difference vectors, for generating conns.
        let mut diffs: Vec<Option<Vec<i64>>> = Vec::new();
        for v in func.vars() {
            diffs.push(func.difference_vector(v)?);
        }

        for (pid, point) in points.iter().enumerate() {
            let pid = PointId(pid);
            for (a_idx, a) in func.assigns().iter().enumerate() {
                // Does this assignment apply at this point? Pinned lhs
                // coordinates must match the point exactly.
                let applies = a.lhs.iter().enumerate().all(|(d, c)| {
                    !c.is_pinned() || c.eval(&point.coords, bounds) == point.coords[d]
                });
                if !applies {
                    continue;
                }
                // Note: unpinned recurrences execute at *all* points,
                // including boundaries. At a boundary, the pinned
                // assignment (declared first, executed first) provides the
                // incoming value, and the recurrence's out-of-bounds read
                // falls back to it — this is how `c(i,j,k.lowerBound) := 0`
                // followed by the MAC yields c(i,j,0) = a·b at k = 0.

                let kind = classify(func, a_idx);
                assigns[pid.0].push(Assignment {
                    var: a.var,
                    kind,
                    source: a_idx,
                });

                // Input tensor reads become IOConns. An expression that
                // reads the same element twice (e.g. `Select(A, B, A, B)`)
                // uses one physical port and reuses the value, so identical
                // reads at a point are deduplicated.
                for (t, coords) in a.rhs.input_reads() {
                    let tcoords: Vec<i64> = coords
                        .iter()
                        .map(|c| c.eval(&point.coords, bounds))
                        .collect();
                    let conn = IOConn {
                        tensor: t,
                        var: a.var,
                        point: pid,
                        dir: IoDir::Read,
                        coords: tcoords,
                    };
                    if !io_conns.iter().rev().take(8).any(|c: &IOConn| *c == conn) {
                        io_conns.push(conn);
                    }
                }

                // Self-recurrence reads become Point2PointConns when the
                // source point is in bounds.
                if let Some(d) = &diffs[a.var.0] {
                    let has_self_read = a.rhs.var_reads().iter().any(|(v, _)| *v == a.var);
                    if has_self_read && !d.iter().all(|&x| x == 0) {
                        let src: Vec<i64> =
                            point.coords.iter().zip(d).map(|(p, dd)| p - dd).collect();
                        if let Some(&src_id) = ids.get(&src) {
                            conns.push(Point2PointConn {
                                var: a.var,
                                src: src_id,
                                dst: pid,
                                diff: d.clone(),
                                bundle: 1,
                            });
                        }
                    }
                }
            }

            // Output assignments whose pinned variable reads match this
            // point become write IOConns.
            for o in func.outputs() {
                for (v, vcoords) in o.rhs.var_reads() {
                    let matches = vcoords
                        .iter()
                        .enumerate()
                        .all(|(d, c)| c.eval(&point.coords, bounds) == point.coords[d]);
                    if matches {
                        let tcoords: Vec<i64> = o
                            .coords
                            .iter()
                            .map(|c| c.eval(&point.coords, bounds))
                            .collect();
                        io_conns.push(IOConn {
                            tensor: o.tensor,
                            var: v,
                            point: pid,
                            dir: IoDir::Write,
                            coords: tcoords,
                        });
                    }
                }
            }
        }

        Ok(IterationSpace {
            bounds: bounds.clone(),
            points,
            ids,
            assigns,
            conns,
            io_conns,
        })
    }

    /// The elaboration bounds.
    pub fn bounds(&self) -> &Bounds {
        &self.bounds
    }

    /// Number of points.
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// A point by handle.
    pub fn point(&self, id: PointId) -> &Point {
        &self.points[id.0]
    }

    /// Looks up a point by coordinates.
    pub fn point_id(&self, coords: &[i64]) -> Option<PointId> {
        self.ids.get(coords).copied()
    }

    /// The surviving point-to-point connections.
    pub fn conns(&self) -> &[Point2PointConn] {
        &self.conns
    }

    /// Mutable access for pruning passes.
    pub(crate) fn conns_mut(&mut self) -> &mut Vec<Point2PointConn> {
        &mut self.conns
    }

    /// The IO connections.
    pub fn io_conns(&self) -> &[IOConn] {
        &self.io_conns
    }

    /// Mutable access for pruning passes.
    pub(crate) fn io_conns_mut(&mut self) -> &mut Vec<IOConn> {
        &mut self.io_conns
    }

    /// The assignments active at a point.
    pub fn assignments(&self, id: PointId) -> &[Assignment] {
        &self.assigns[id.0]
    }

    /// Connections carrying a given variable.
    pub fn conns_for_var(&self, var: VarId) -> impl Iterator<Item = &Point2PointConn> + '_ {
        self.conns.iter().filter(move |c| c.var == var)
    }

    /// IO connections for a given tensor.
    pub fn io_conns_for_tensor(&self, tensor: TensorId) -> impl Iterator<Item = &IOConn> + '_ {
        self.io_conns.iter().filter(move |c| c.tensor == tensor)
    }

    /// Total multiply count across all points (the denominator of the
    /// utilization metrics).
    pub fn total_macs(&self, func: &Functionality) -> usize {
        self.assigns
            .iter()
            .flatten()
            .map(|a| func.assigns()[a.source].rhs.num_muls())
            .sum()
    }
}

fn classify(func: &Functionality, a_idx: usize) -> AssignKind {
    let a = &func.assigns()[a_idx];
    if !a.rhs.input_reads().is_empty() {
        AssignKind::Load(a.rhs.input_reads()[0].0)
    } else if a.rhs.num_muls() + a.rhs.num_adds() + a.rhs.num_comparators() > 0 {
        AssignKind::Compute
    } else if a.rhs.var_reads().is_empty() {
        AssignKind::Init
    } else {
        AssignKind::Propagate
    }
}

impl fmt::Display for IterationSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IterationSpace({} points, {} conns, {} io conns)",
            self.points.len(),
            self.conns.len(),
            self.io_conns.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul_space(n: usize) -> (Functionality, IterationSpace) {
        let f = Functionality::matmul(n, n, n);
        let is = IterationSpace::elaborate(&f, &Bounds::from_extents(&[n, n, n])).unwrap();
        (f, is)
    }

    #[test]
    fn matmul_point_count() {
        let (_, is) = matmul_space(4);
        assert_eq!(is.num_points(), 64);
    }

    #[test]
    fn matmul_conn_counts() {
        let (f, is) = matmul_space(4);
        let vars: Vec<VarId> = f.vars().collect();
        // a propagates along j: conns exist for j in 1..4 → 4*3*4 = 48.
        assert_eq!(is.conns_for_var(vars[0]).count(), 48);
        assert_eq!(is.conns_for_var(vars[1]).count(), 48);
        assert_eq!(is.conns_for_var(vars[2]).count(), 48);
    }

    #[test]
    fn matmul_io_conns() {
        let (f, is) = matmul_space(4);
        let tensors: Vec<TensorId> = f.tensors().collect();
        // A(i,k) is read at the j=0 boundary: 16 reads.
        assert_eq!(is.io_conns_for_tensor(tensors[0]).count(), 16);
        assert_eq!(is.io_conns_for_tensor(tensors[1]).count(), 16);
        // C(i,j) is written at the k=upper boundary: 16 writes.
        let writes: Vec<&IOConn> = is.io_conns_for_tensor(tensors[2]).collect();
        assert_eq!(writes.len(), 16);
        assert!(writes.iter().all(|c| c.dir == IoDir::Write));
    }

    #[test]
    fn matmul_total_macs() {
        let (f, is) = matmul_space(4);
        // One multiply per (i,j,k) point.
        assert_eq!(is.total_macs(&f), 64);
    }

    #[test]
    fn boundary_points_init_then_compute() {
        let (f, is) = matmul_space(2);
        let c = f.vars().nth(2).unwrap();
        // At k=0, c is initialized to 0 and then the MAC runs (the init
        // provides the incoming value); at k=1, only the MAC runs.
        let p0 = is.point_id(&[0, 0, 0]).unwrap();
        let kinds: Vec<AssignKind> = is
            .assignments(p0)
            .iter()
            .filter(|a| a.var == c)
            .map(|a| a.kind)
            .collect();
        assert_eq!(kinds, vec![AssignKind::Init, AssignKind::Compute]);
        let p1 = is.point_id(&[0, 0, 1]).unwrap();
        let kinds: Vec<AssignKind> = is
            .assignments(p1)
            .iter()
            .filter(|a| a.var == c)
            .map(|a| a.kind)
            .collect();
        assert_eq!(kinds, vec![AssignKind::Compute]);
    }

    #[test]
    fn conn_endpoints_differ_by_diff() {
        let (_, is) = matmul_space(3);
        for c in is.conns() {
            let src = is.point(c.src).coords();
            let dst = is.point(c.dst).coords();
            let diff: Vec<i64> = dst.iter().zip(src).map(|(d, s)| d - s).collect();
            assert_eq!(diff, c.diff);
        }
    }

    #[test]
    fn bounds_rank_mismatch_rejected() {
        let f = Functionality::matmul(2, 2, 2);
        let err = IterationSpace::elaborate(&f, &Bounds::from_extents(&[2, 2]));
        assert!(err.is_err());
    }
}
