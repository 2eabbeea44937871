//! Seeded input generators. The benchmark draws with its own generator, not
//! the repository's, so a change to the program's PRNG cannot change the
//! inputs it is measured on. Equal seeds give byte-identical inputs.

use crate::adapters::Dataflow;

/// SplitMix64.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed, so the streams of a
    /// run do not share draws.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for the
    /// ranges drawn here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for n in (1..xs.len()).rev() {
            xs.swap(n, self.below(n as u64 + 1) as usize);
        }
    }
}

/// Zipf over ranks `0..n` with exponent `s`, by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        Zipf {
            cdf: weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect(),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1)
    }
}

// ---------------------------------------------------------- compile_emit

/// One drawn dense-matmul design point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpecDraw {
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub flow: Dataflow,
    pub bits: u32,
}

impl SpecDraw {
    pub fn points(&self) -> usize {
        self.m * self.n * self.k
    }
}

impl SpecDraw {
    /// Processing elements of the array this point folds to.
    pub fn pes(&self) -> usize {
        let (m, n, k) = (self.m, self.n, self.k);
        match self.flow {
            Dataflow::OutputStationary => m * n,
            Dataflow::WeightStationary => k * n,
            Dataflow::InputStationary => m * k,
            // The hexagon of distinct (i - k, j - k) offsets.
            Dataflow::Hexagonal => m * n + m * k + n * k + 1 - m - n - k,
        }
    }
}

pub const DRAWN_SPECS: usize = 12;
const DRAWS_PER_FLOW: usize = 3;
const FLOWS: [Dataflow; 4] = [
    Dataflow::OutputStationary,
    Dataflow::WeightStationary,
    Dataflow::InputStationary,
    Dataflow::Hexagonal,
];
/// Iteration points of one dataflow's three draws together: the mean of
/// three uniform draws, 3 x 14^3. Compile time follows the point count and
/// emission time the PE count, at a rate that differs by dataflow, so both
/// totals are held near their means for each dataflow: an iteration then
/// does about the same work for every seed while shapes and widths vary.
const FLOW_POINTS: usize = 8232;
const TOLERANCE: f64 = 0.015;

fn flow_pes(flow: Dataflow) -> usize {
    match flow {
        Dataflow::Hexagonal => 3 * (3 * 196 - 42 + 1),
        _ => 3 * 196,
    }
}

fn near(x: usize, target: usize) -> bool {
    (x as f64 - target as f64).abs() <= TOLERANCE * target as f64
}

/// Twelve design points: extents 4..=24, each of four dataflows three
/// times, 8/16/32 data bits, in seeded order. A dataflow's three draws are
/// repeated until their point and PE totals are within 4 % of the means.
pub fn spec_draws(seed: u64) -> Vec<SpecDraw> {
    let mut rng = Rng::new(seed, "compile_emit.specs");
    let mut draws = Vec::with_capacity(DRAWN_SPECS);
    for flow in FLOWS {
        loop {
            let trio: Vec<SpecDraw> = (0..DRAWS_PER_FLOW)
                .map(|_| SpecDraw {
                    m: 4 + rng.below(21) as usize,
                    n: 4 + rng.below(21) as usize,
                    k: 4 + rng.below(21) as usize,
                    flow,
                    bits: *rng.pick(&[8, 16, 32]),
                })
                .collect();
            if near(trio.iter().map(SpecDraw::points).sum(), FLOW_POINTS)
                && near(trio.iter().map(SpecDraw::pes).sum(), flow_pes(flow))
            {
                draws.extend(trio);
                break;
            }
        }
    }
    rng.shuffle(&mut draws);
    draws
}

// ------------------------------------------------------------- sim_models

/// L2 addresses mixing a streaming stride (every access a new line) with a
/// hot set that fits the cache, in equal shares: about half the accesses
/// hit.
pub fn l2_addresses(count: usize, seed: u64) -> Vec<u64> {
    const LINE_WORDS: u64 = 8;
    const HOT_LINES: u64 = 4096;
    const STREAM_BASE: u64 = 1 << 32;
    let mut rng = Rng::new(seed, "sim_models.l2");
    let mut next_stream = 0u64;
    (0..count)
        .map(|_| {
            if rng.below(2) == 0 {
                next_stream += 1;
                STREAM_BASE + next_stream * LINE_WORDS
            } else {
                rng.below(HOT_LINES) * LINE_WORDS + rng.below(LINE_WORDS)
            }
        })
        .collect()
}

// ------------------------------------------------------------------ serve

/// One cacheable query of the serve protocol.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ServeKey {
    pub spec: &'static str,
    pub bounds: Vec<usize>,
    pub keep: usize,
    pub max_pes: usize,
}

impl ServeKey {
    /// The request line for this key under request id `id`.
    pub fn line(&self, id: u64) -> String {
        let bounds: Vec<String> = self.bounds.iter().map(usize::to_string).collect();
        format!(
            "{{\"id\":\"q{id}\",\"spec\":\"{}\",\"bounds\":[{}],\"max_coeff\":1,\"keep\":{},\"max_pes\":{}}}",
            self.spec,
            bounds.join(","),
            self.keep,
            self.max_pes
        )
    }
}

const KEEPS: [usize; 3] = [8, 16, 32];
const MAX_PES: [usize; 2] = [64, 4096];

/// The `(spec, extents)` cells of the churn key universe. Search cost
/// follows the cell, so every generation of `serve_churn` visits each cell
/// once and does the same work for every seed; the seed picks the order
/// and each visit's `keep` and `max_pes`.
pub fn churn_cells() -> Vec<(&'static str, Vec<usize>)> {
    let mut cells = Vec::new();
    let cube = [6usize, 9, 12, 15];
    for spec in ["matmul", "matmul_relu"] {
        for &m in &cube {
            for &n in &cube {
                for &k in &cube {
                    cells.push((spec, vec![m, n, k]));
                }
            }
        }
    }
    for a in (1..=9).map(|x| x * 16) {
        for b in 2..=9 {
            cells.push(("max_pool", vec![a, b]));
            cells.push(("merge_select", vec![a, b * 8]));
        }
    }
    cells
}

/// One operation of a serve script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeOp {
    Query(ServeKey),
    Invalidate,
}

/// One generation of `serve_churn`: an invalidate, then every cell once as
/// a key not yet seen in the generation (70 % of the queries), interleaved
/// with repeats of one of the last 32 keys (25 %) and of a key from the
/// generation's first tenth, by then pushed out of the memory tier (5 %).
pub fn churn_generation(rng: &mut Rng) -> Vec<ServeOp> {
    let mut cells = churn_cells();
    rng.shuffle(&mut cells);
    let half = cells.len() / 2;
    let mut seen: Vec<ServeKey> = Vec::with_capacity(cells.len());
    let mut ops = vec![ServeOp::Invalidate];
    // Repeats owed so far, in seventieths of a query: 25 per fresh key for
    // recent keys, and 10 per fresh key of the second half for old ones.
    let (mut recent_due, mut old_due) = (0, 0);
    for (n, (spec, bounds)) in cells.into_iter().enumerate() {
        let key = ServeKey {
            spec,
            bounds,
            keep: *rng.pick(&KEEPS),
            max_pes: *rng.pick(&MAX_PES),
        };
        seen.push(key.clone());
        ops.push(ServeOp::Query(key));
        recent_due += 25;
        if n >= half {
            old_due += 10;
        }
        while recent_due >= 70 {
            recent_due -= 70;
            let back = 1 + rng.below(seen.len().min(32) as u64) as usize;
            ops.push(ServeOp::Query(seen[seen.len() - back].clone()));
        }
        while old_due >= 70 {
            old_due -= 70;
            let first_tenth = (seen.len() / 10).max(1) as u64;
            ops.push(ServeOp::Query(
                seen[rng.below(first_tenth) as usize].clone(),
            ));
        }
    }
    ops
}

/// The 64 distinct keys `serve_hot` keeps resident: the 4 x 4 x 4 `matmul`
/// cells at one `keep` and `max_pes`, in seeded order.
pub fn hot_keys(seed: u64) -> Vec<ServeKey> {
    let mut keys: Vec<ServeKey> = churn_cells()
        .into_iter()
        .filter(|(spec, _)| *spec == "matmul")
        .map(|(spec, bounds)| ServeKey {
            spec,
            bounds,
            keep: KEEPS[1],
            max_pes: MAX_PES[1],
        })
        .collect();
    debug_assert_eq!(keys.len(), HOT_KEYS);
    Rng::new(seed, "serve_hot.keys").shuffle(&mut keys);
    keys
}

pub const HOT_KEYS: usize = 64;
pub const HOT_ZIPF_S: f64 = 1.1;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equal_seeds_give_identical_inputs_and_other_seeds_differ() {
        assert_eq!(spec_draws(5), spec_draws(5));
        assert_ne!(spec_draws(5), spec_draws(6));
        assert_eq!(l2_addresses(1000, 5), l2_addresses(1000, 5));
        assert_ne!(l2_addresses(1000, 5), l2_addresses(1000, 6));
        assert_eq!(hot_keys(5), hot_keys(5));
        assert_ne!(hot_keys(5), hot_keys(6));
        let gen = |seed| churn_generation(&mut Rng::new(seed, "serve_churn.script"));
        assert_eq!(gen(5), gen(5));
        assert_ne!(gen(5), gen(6));
        let z = Zipf::new(HOT_KEYS, HOT_ZIPF_S);
        let draw = |seed| {
            let mut r = Rng::new(seed, "z");
            (0..200).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    fn streams_of_one_seed_are_independent() {
        assert_ne!(Rng::new(1, "a").next_u64(), Rng::new(1, "b").next_u64());
    }

    #[test]
    fn drawn_specs_hold_each_dataflows_work_steady() {
        for seed in 0..50 {
            let draws = spec_draws(seed);
            assert_eq!(draws.len(), DRAWN_SPECS);
            for d in &draws {
                assert!(
                    (4..=24).contains(&d.m) && (4..=24).contains(&d.n) && (4..=24).contains(&d.k)
                );
                assert!([8, 16, 32].contains(&d.bits));
            }
            for flow in FLOWS {
                let of_flow: Vec<&SpecDraw> = draws.iter().filter(|d| d.flow == flow).collect();
                assert_eq!(of_flow.len(), DRAWS_PER_FLOW);
                assert!(
                    near(of_flow.iter().map(|d| d.points()).sum(), FLOW_POINTS),
                    "seed {seed}"
                );
                assert!(
                    near(of_flow.iter().map(|d| d.pes()).sum(), flow_pes(flow)),
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn hexagonal_pe_count_is_the_offset_hexagon() {
        // Distinct (i - k, j - k) over a 2 x 3 x 4 box, counted directly.
        let mut seen = HashSet::new();
        for i in 0..2i32 {
            for j in 0..3i32 {
                for k in 0..4i32 {
                    seen.insert((i - k, j - k));
                }
            }
        }
        let d = SpecDraw {
            m: 2,
            n: 3,
            k: 4,
            flow: Dataflow::Hexagonal,
            bits: 8,
        };
        assert_eq!(d.pes(), seen.len());
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let z = Zipf::new(HOT_KEYS, HOT_ZIPF_S);
        let mut r = Rng::new(9, "z");
        let mut counts = [0u32; HOT_KEYS];
        for _ in 0..100_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[7] && counts[7] > counts[63]);
        assert!(counts[63] > 0);
        // Rank 1 of Zipf(1.1) over 64 ranks holds about 24 % of the mass.
        assert!((0.20..0.28).contains(&(f64::from(counts[0]) / 100_000.0)));
    }

    #[test]
    fn l2_addresses_are_half_stream_half_hot() {
        let addrs = l2_addresses(100_000, 3);
        let stream = addrs.iter().filter(|a| **a >= 1 << 32).count();
        assert!((48_000..52_000).contains(&stream), "{stream}");
        let lines: HashSet<u64> = addrs
            .iter()
            .filter(|a| **a >= 1 << 32)
            .map(|a| a / 8)
            .collect();
        assert_eq!(lines.len(), stream, "every streamed access is a new line");
    }

    #[test]
    fn a_churn_generation_has_the_stated_mix_and_exceeds_the_memory_tier() {
        let ops = churn_generation(&mut Rng::new(1, "serve_churn.script"));
        assert_eq!(ops[0], ServeOp::Invalidate);
        let mut seen = HashSet::new();
        let (mut fresh, mut repeat) = (0usize, 0usize);
        for op in &ops[1..] {
            match op {
                ServeOp::Query(k) if seen.insert(k.clone()) => fresh += 1,
                ServeOp::Query(_) => repeat += 1,
                ServeOp::Invalidate => panic!("one invalidate per generation"),
            }
        }
        assert_eq!(fresh, churn_cells().len());
        assert!(fresh > crate::adapters::MEMORY_TIER_CAPACITY);
        let share = fresh as f64 / (fresh + repeat) as f64;
        assert!((0.69..0.72).contains(&share), "{share}");
        assert!(
            churn_cells().len() * KEEPS.len() * MAX_PES.len() > 1500,
            "distinct keys"
        );
    }

    #[test]
    fn request_lines_carry_id_and_every_field() {
        let k = ServeKey {
            spec: "matmul",
            bounds: vec![6, 9, 12],
            keep: 8,
            max_pes: 64,
        };
        assert_eq!(
            k.line(12),
            "{\"id\":\"q12\",\"spec\":\"matmul\",\"bounds\":[6,9,12],\"max_coeff\":1,\"keep\":8,\"max_pes\":64}"
        );
    }
}
