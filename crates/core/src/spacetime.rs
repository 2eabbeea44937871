//! Applying the space-time transform: from `IterationSpace` to a physical
//! spatial array (§IV-B, Figure 9c).
//!
//! A fold has two halves. The **point mapping** sends every iteration
//! point through `T`, rejects space-time collisions and names the PEs:
//! the one packed kernel of [`crate::fold`] in production, hashed
//! `Vec<i64>` coordinates in [`mod@reference`]. The **connection/IO fold**
//! (causality, wire dedup, port map, access orders) consumes the point→PE
//! and point→time tables and exists once, as a private function here.

use std::collections::HashMap;
use std::fmt;

use crate::error::CompileError;
use crate::fold::PointScratch;
use crate::func::{Functionality, TensorId, VarId};
use crate::iterspace::{AssignKind, IoDir, IterationSpace, PointId};
use crate::regfile::AccessOrder;
use crate::transform::SpaceTimeTransform;

/// Per-tensor, per-direction access orders keyed for the regfile optimizer.
type IoOrderMap = HashMap<(TensorId, IoDir), AccessOrder>;

/// Time-stamped tensor coordinates, accumulated per `(tensor, dir)` while
/// folding IO connections.
type TimedCoords = Vec<(i64, Vec<i64>)>;

/// One physical PE of the transformed array: a spatial coordinate onto
/// which one or more iteration points fold (different time steps of the
/// same PE).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Pe {
    /// The PE's spatial coordinates.
    pub coords: Vec<i64>,
    /// Number of iteration points mapped to this PE.
    pub num_points: usize,
    /// Total multiplies this PE performs over the computation.
    pub macs: usize,
}

/// A physical PE-to-PE connection after the transform: the image of one or
/// more `Point2PointConn`s sharing endpoints.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PhysConn {
    /// The variable carried.
    pub var: VarId,
    /// Source PE index.
    pub src_pe: usize,
    /// Destination PE index (may equal `src_pe` for stationary variables).
    pub dst_pe: usize,
    /// Spatial delta (zero vector for stationary variables).
    pub dspace: Vec<i64>,
    /// Pipeline registers along the connection (`Δt`, Figure 3).
    pub registers: i64,
    /// Bundle width (>1 for `OptimisticSkip` connections).
    pub bundle: usize,
    /// How many point-level connections folded into this wire.
    pub multiplicity: usize,
}

impl PhysConn {
    /// Returns `true` if the variable stays within one PE (a stationary
    /// operand or in-place accumulator).
    pub fn is_stationary(&self) -> bool {
        self.dspace.iter().all(|&d| d == 0)
    }
}

/// A physical IO port: one PE's read or write traffic for one tensor.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PhysIoPort {
    /// The tensor accessed.
    pub tensor: TensorId,
    /// Read or write.
    pub dir: IoDir,
    /// The PE index.
    pub pe: usize,
    /// Number of accesses over the computation.
    pub accesses: usize,
}

/// The physical spatial array produced by applying a space-time transform
/// to a (possibly pruned) iteration space.
///
/// # Examples
///
/// ```
/// use stellar_core::{Bounds, Functionality, IterationSpace, SpaceTimeTransform, SpatialArray};
///
/// let f = Functionality::matmul(4, 4, 4);
/// let is = IterationSpace::elaborate(&f, &Bounds::from_extents(&[4, 4, 4]))?;
/// let arr = SpatialArray::from_iterspace(&is, &f, &SpaceTimeTransform::output_stationary())?;
/// assert_eq!(arr.num_pes(), 16); // 4x4 grid of output-stationary PEs
/// # Ok::<(), stellar_core::CompileError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SpatialArray {
    transform: SpaceTimeTransform,
    pes: Vec<Pe>,
    conns: Vec<PhysConn>,
    io_ports: Vec<PhysIoPort>,
    io_orders: IoOrderMap,
    time_range: (i64, i64),
}

impl SpatialArray {
    /// Folds an iteration space onto physical space and time.
    ///
    /// The point mapping runs on the packed kernel of [`crate::fold`] —
    /// `u64` keys in open-addressing tables, no per-point `Vec` hashing —
    /// and PE coordinates, per-PE point and MAC counts are read off the
    /// point→PE table it leaves behind. When the coordinates are too wide
    /// to pack the fold falls back to the hashed point mapping of
    /// [`mod@reference`], which is always correct; the two are proven
    /// byte-identical by `crates/core/tests/fold_equivalence.rs`.
    ///
    /// # Errors
    ///
    /// * [`CompileError::SpaceTimeCollision`] if two points map to the same
    ///   space-time coordinate.
    /// * [`CompileError::CausalityViolation`] if any connection would have
    ///   negative `Δt`.
    pub fn from_iterspace(
        is: &IterationSpace,
        func: &Functionality,
        transform: &SpaceTimeTransform,
    ) -> Result<SpatialArray, CompileError> {
        check_rank(is, transform)?;
        let rank = transform.rank();
        let n_points = is.num_points();
        let axis_abs: Vec<i64> = (0..rank).map(|d| is.bounds().abs_coord_bound(d)).collect();
        let mut scratch = PointScratch::new(rank, n_points);
        let points = (0..n_points).map(|pid| is.point(PointId(pid)).coords());
        match scratch.fold(&transform.flat_rows(), &axis_abs, points) {
            Some(folded) => folded?,
            None => return reference::from_iterspace(is, func, transform),
        }

        // PE ids were handed out in point order, so a PE's first point is
        // the one whose id equals the number of PEs seen so far.
        let mut pes: Vec<Pe> = Vec::with_capacity(scratch.num_pes);
        let mut point_pe: Vec<usize> = Vec::with_capacity(n_points);
        for (pid, &pe) in scratch.point_pe.iter().enumerate() {
            let pe = pe as usize;
            if pe == pes.len() {
                pes.push(Pe {
                    coords: transform.space_of(is.point(PointId(pid)).coords()),
                    num_points: 0,
                    macs: 0,
                });
            }
            pes[pe].num_points += 1;
            pes[pe].macs += point_macs(is, func, pid);
            point_pe.push(pe);
        }
        fold_conns_and_io(
            is,
            func,
            transform,
            pes,
            &point_pe,
            &scratch.point_time,
            scratch.time_range,
        )
    }

    /// The transform that produced this array.
    pub fn transform(&self) -> &SpaceTimeTransform {
        &self.transform
    }

    /// The PEs.
    pub fn pes(&self) -> &[Pe] {
        &self.pes
    }

    /// Number of PEs.
    pub fn num_pes(&self) -> usize {
        self.pes.len()
    }

    /// The physical connections.
    pub fn conns(&self) -> &[PhysConn] {
        &self.conns
    }

    /// The IO ports.
    pub fn io_ports(&self) -> &[PhysIoPort] {
        &self.io_ports
    }

    /// The `(first, last)` time steps of the computation.
    pub fn time_range(&self) -> (i64, i64) {
        self.time_range
    }

    /// Total time steps (the dense array's latency in cycles).
    pub fn total_time_steps(&self) -> i64 {
        self.time_range.1 - self.time_range.0 + 1
    }

    /// The order in which the array accesses a tensor's elements, for the
    /// regfile optimizer (Figure 13b).
    pub fn access_order(&self, tensor: TensorId, dir: IoDir) -> Option<&AccessOrder> {
        self.io_orders.get(&(tensor, dir))
    }

    /// Total MACs across all PEs.
    pub fn total_macs(&self) -> usize {
        self.pes.iter().map(|p| p.macs).sum()
    }

    /// Connections carrying a given variable.
    pub fn conns_for_var(&self, var: VarId) -> impl Iterator<Item = &PhysConn> + '_ {
        self.conns.iter().filter(move |c| c.var == var)
    }
}

fn check_rank(is: &IterationSpace, transform: &SpaceTimeTransform) -> Result<(), CompileError> {
    if transform.rank() != is.bounds().rank() {
        return Err(CompileError::InvalidTransform(format!(
            "transform rank {} does not match iteration rank {}",
            transform.rank(),
            is.bounds().rank()
        )));
    }
    Ok(())
}

/// Multiplies the compute assignments of one point perform.
fn point_macs(is: &IterationSpace, func: &Functionality, pid: usize) -> usize {
    is.assignments(PointId(pid))
        .iter()
        .filter(|a| a.kind == AssignKind::Compute)
        .map(|a| func.assigns()[a.source].rhs.num_muls())
        .sum()
}

/// The second half of every fold, shared by the packed path and the
/// [`mod@reference`]: checks causality in connection order, deduplicates
/// wires and ports, collects access orders, and assembles the array from
/// a finished point mapping (`point_pe`, `point_time`, and the first and
/// last time step it saw).
fn fold_conns_and_io(
    is: &IterationSpace,
    func: &Functionality,
    transform: &SpaceTimeTransform,
    pes: Vec<Pe>,
    point_pe: &[usize],
    point_time: &[i64],
    time_range: (i64, i64),
) -> Result<SpatialArray, CompileError> {
    // Fold connections, checking causality and deduplicating wires.
    let mut conn_map: HashMap<(VarId, usize, usize), PhysConn> = HashMap::new();
    for conn in is.conns() {
        let dt = transform.time_delta(&conn.diff);
        if dt < 0 {
            return Err(CompileError::CausalityViolation {
                var: func.var_name(conn.var).to_string(),
                delta: {
                    let mut d = transform.space_delta(&conn.diff);
                    d.push(dt);
                    d
                },
            });
        }
        let src_pe = point_pe[conn.src.0];
        let dst_pe = point_pe[conn.dst.0];
        let entry = conn_map
            .entry((conn.var, src_pe, dst_pe))
            .or_insert_with(|| PhysConn {
                var: conn.var,
                src_pe,
                dst_pe,
                dspace: transform.space_delta(&conn.diff),
                registers: dt,
                bundle: conn.bundle,
                multiplicity: 0,
            });
        entry.multiplicity += 1;
        entry.bundle = entry.bundle.max(conn.bundle);
    }
    let mut conns: Vec<PhysConn> = conn_map.into_values().collect();
    conns.sort_by_key(|a| (a.var.0, a.src_pe, a.dst_pe));

    // Fold IO connections into per-PE ports and per-tensor access
    // orders (for the regfile optimizer).
    let mut port_map: HashMap<(TensorId, IoDir, usize), usize> = HashMap::new();
    let mut order_map: HashMap<(TensorId, IoDir), TimedCoords> = HashMap::new();
    for io in is.io_conns() {
        let pe = point_pe[io.point.0];
        *port_map.entry((io.tensor, io.dir, pe)).or_insert(0) += 1;
        order_map
            .entry((io.tensor, io.dir))
            .or_default()
            .push((point_time[io.point.0], io.coords.clone()));
    }
    let mut io_ports: Vec<PhysIoPort> = port_map
        .into_iter()
        .map(|((tensor, dir, pe), accesses)| PhysIoPort {
            tensor,
            dir,
            pe,
            accesses,
        })
        .collect();
    io_ports.sort_by_key(|a| (a.tensor.0, a.pe, a.dir == IoDir::Write));
    let io_orders: IoOrderMap = order_map
        .into_iter()
        .map(|(k, mut seq)| {
            seq.sort();
            (k, AccessOrder::new(seq))
        })
        .collect();

    Ok(SpatialArray {
        transform: transform.clone(),
        pes,
        conns,
        io_ports,
        io_orders,
        time_range,
    })
}

impl fmt::Display for SpatialArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SpatialArray({} PEs, {} conns, {} io ports, {} steps)",
            self.pes.len(),
            self.conns.len(),
            self.io_ports.len(),
            self.total_time_steps()
        )
    }
}

/// The hashed point mapping: every point's image is a `Vec<i64>` in a
/// `HashMap`/`HashSet`, with no packing layout to get wrong. It is the
/// in-tree oracle for the packed kernel behind
/// [`SpatialArray::from_iterspace`] and [`crate::fold::FoldScorer`] (the
/// house pattern of the simulation engine's per-cycle references), and the
/// fallback when a fold's coordinates cannot be packed into 64-bit keys.
/// Only the point mapping is independent: the connection/IO half is the
/// one private function both paths call.
pub mod reference {
    use std::collections::{HashMap, HashSet};

    use super::{check_rank, fold_conns_and_io, point_macs, Pe, SpatialArray};
    use crate::error::CompileError;
    use crate::func::Functionality;
    use crate::iterspace::{IterationSpace, PointId};
    use crate::transform::SpaceTimeTransform;

    /// Folds an iteration space onto physical space and time, hashing
    /// `Vec<i64>` coordinates.
    ///
    /// # Errors
    ///
    /// Same contract as [`SpatialArray::from_iterspace`].
    pub fn from_iterspace(
        is: &IterationSpace,
        func: &Functionality,
        transform: &SpaceTimeTransform,
    ) -> Result<SpatialArray, CompileError> {
        check_rank(is, transform)?;

        // Map points to PEs, checking space-time collisions.
        let mut pe_ids: HashMap<Vec<i64>, usize> = HashMap::new();
        let mut pes: Vec<Pe> = Vec::new();
        let mut point_pe: Vec<usize> = Vec::with_capacity(is.num_points());
        let mut point_time: Vec<i64> = Vec::with_capacity(is.num_points());
        let mut seen_st: HashSet<Vec<i64>> = HashSet::with_capacity(is.num_points());
        let mut tmin = i64::MAX;
        let mut tmax = i64::MIN;

        for pid in 0..is.num_points() {
            let st = transform.apply(is.point(PointId(pid)).coords());
            if !seen_st.insert(st.clone()) {
                return Err(CompileError::SpaceTimeCollision { coord: st });
            }
            let (space, time) = (st[..st.len() - 1].to_vec(), st[st.len() - 1]);
            tmin = tmin.min(time);
            tmax = tmax.max(time);
            let pe_id = *pe_ids.entry(space.clone()).or_insert_with(|| {
                pes.push(Pe {
                    coords: space,
                    num_points: 0,
                    macs: 0,
                });
                pes.len() - 1
            });
            pes[pe_id].num_points += 1;
            pes[pe_id].macs += point_macs(is, func, pid);
            point_pe.push(pe_id);
            point_time.push(time);
        }
        fold_conns_and_io(
            is,
            func,
            transform,
            pes,
            &point_pe,
            &point_time,
            if tmin <= tmax { (tmin, tmax) } else { (0, 0) },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Bounds;

    fn build(n: usize, t: &SpaceTimeTransform) -> (Functionality, SpatialArray) {
        let f = Functionality::matmul(n, n, n);
        let is = IterationSpace::elaborate(&f, &Bounds::from_extents(&[n, n, n])).unwrap();
        let arr = SpatialArray::from_iterspace(&is, &f, t).unwrap();
        (f, arr)
    }

    #[test]
    fn output_stationary_shape() {
        let (f, arr) = build(4, &SpaceTimeTransform::output_stationary());
        assert_eq!(arr.num_pes(), 16);
        // Each PE computes all 4 k-steps: 4 MACs.
        assert!(arr.pes().iter().all(|pe| pe.macs == 4));
        assert_eq!(arr.total_macs(), 64);
        // c is stationary; a and b move.
        let vars: Vec<VarId> = f.vars().collect();
        assert!(arr.conns_for_var(vars[2]).all(|c| c.is_stationary()));
        assert!(arr.conns_for_var(vars[0]).all(|c| !c.is_stationary()));
        // Time range: t = i + j + k over [0,3]^3 → 0..=9 → 10 steps.
        assert_eq!(arr.total_time_steps(), 10);
    }

    #[test]
    fn input_stationary_shape() {
        let (f, arr) = build(4, &SpaceTimeTransform::input_stationary());
        // x = k, y = j: 16 PEs.
        assert_eq!(arr.num_pes(), 16);
        let vars: Vec<VarId> = f.vars().collect();
        // b (the stationary input) stays put; c travels down x.
        assert!(arr.conns_for_var(vars[1]).all(|c| c.is_stationary()));
        for c in arr.conns_for_var(vars[2]) {
            assert_eq!(c.dspace, vec![1, 0]);
            assert_eq!(c.registers, 1);
        }
    }

    #[test]
    fn hexagonal_is_2d_with_more_pes() {
        let (_, arr) = build(4, &SpaceTimeTransform::hexagonal());
        // x = i - k, y = j - k: coordinates range over [-3, 3]^2 but only
        // feasible combinations appear; more PEs than a 4x4 grid.
        assert!(
            arr.num_pes() > 16,
            "hexagonal array has {} PEs",
            arr.num_pes()
        );
        assert!(arr.pes().iter().all(|pe| pe.coords.len() == 2));
    }

    #[test]
    fn pipelining_scales_registers() {
        let t = SpaceTimeTransform::output_stationary()
            .with_time_scale(2)
            .unwrap();
        let (f, arr) = build(4, &t);
        let vars: Vec<VarId> = f.vars().collect();
        // Doubled time row → 2 registers per a/b hop (Figure 3).
        for c in arr.conns_for_var(vars[0]) {
            assert_eq!(c.registers, 2);
        }
        assert_eq!(arr.total_time_steps(), 19); // t in 0..=18 even steps
    }

    #[test]
    fn collision_detected() {
        // A transform with a non-injective fold: project onto (i, j) with
        // time = k only... make time row equal to a space row to collide.
        let f = Functionality::matmul(2, 2, 2);
        let is = IterationSpace::elaborate(&f, &Bounds::from_extents(&[2, 2, 2])).unwrap();
        // x=i, y=j, t=i+j: all k fold onto the same space-time coordinate.
        // This matrix is singular, so it is rejected at construction —
        // demonstrating that invertibility prevents trivial collisions.
        assert!(SpaceTimeTransform::new(stellar_linalg::IntMat::from_rows(&[
            &[1, 0, 0],
            &[0, 1, 0],
            &[1, 1, 0],
        ]))
        .is_err());
        // An invertible transform over a *folded* bounds can still collide:
        // map two separate tiles onto the same coordinates by using a
        // transform whose image overlaps. x = i mod nothing... Instead we
        // verify the collision check by elaborating with duplicated points:
        // not constructible through the public API, so invertibility plus
        // distinct points guarantees no collision.
        let arr = SpatialArray::from_iterspace(&is, &f, &SpaceTimeTransform::output_stationary());
        assert!(arr.is_ok());
    }

    #[test]
    fn causality_violation_detected() {
        let f = Functionality::matmul(2, 2, 2);
        let is = IterationSpace::elaborate(&f, &Bounds::from_extents(&[2, 2, 2])).unwrap();
        // Time row (1, 1, -1): c's diff (0,0,1) gets Δt = -1.
        let t = SpaceTimeTransform::output_stationary()
            .with_time_row(&[1, 1, -1])
            .unwrap();
        let err = SpatialArray::from_iterspace(&is, &f, &t);
        assert!(matches!(err, Err(CompileError::CausalityViolation { .. })));
    }

    #[test]
    fn fold_inputs_and_outputs_are_send_sync() {
        // The dataflow search folds candidate transforms from parallel
        // worker threads: everything the fold reads or produces must cross
        // thread boundaries, and all scratch state must stay call-local.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SpatialArray>();
        assert_send_sync::<Functionality>();
        assert_send_sync::<IterationSpace>();
        assert_send_sync::<SpaceTimeTransform>();
        assert_send_sync::<CompileError>();
    }

    #[test]
    fn access_orders_available() {
        let (f, arr) = build(4, &SpaceTimeTransform::output_stationary());
        let tensors: Vec<TensorId> = f.tensors().collect();
        let a_reads = arr.access_order(tensors[0], IoDir::Read).unwrap();
        assert_eq!(a_reads.len(), 16);
        let c_writes = arr.access_order(tensors[2], IoDir::Write).unwrap();
        assert_eq!(c_writes.len(), 16);
        assert!(arr.access_order(tensors[2], IoDir::Read).is_none());
    }
}
