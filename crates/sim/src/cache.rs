//! A shared L2 cache model.
//!
//! §IV-F of the paper: Stellar's explicitly-managed buffers cannot express
//! hardware-managed caches, but "this limitation is mitigated to a degree
//! by Stellar's integration with the Chipyard framework, which can
//! provision Stellar-generated SoCs with large L2 caches which can be
//! shared by both CPUs and accelerators". This model lets the simulator
//! interpose such a cache between the DMA and DRAM: scattered accesses
//! with reuse (e.g. OuterSPACE's partial-sum pointers) hit in L2 and skip
//! the DRAM round trip.
//!
//! The tag store is two flat preallocated arrays (struct-of-arrays: one
//! slot per way of every set, tags and last-use stamps side by side), so
//! the per-access hot path is a bounded linear probe with zero heap
//! allocation — where the retained [`mod@reference`] model keeps a
//! `HashMap<set, Vec<(tag, stamp)>>` and reallocates as sets fill.
//! Stamps are unique and monotone, so LRU choice — and therefore every
//! hit/miss outcome — is identical between the two layouts even though
//! the reference's `Vec` reorders on eviction.

use crate::dma::DramParams;
use crate::trace::{CycleBreakdown, StallClass};

/// A set-associative shared L2 cache with LRU replacement.
///
/// Addresses are in words; lines are `line_words` long. The model tracks
/// hits and misses and reports effective access cycles.
#[derive(Clone, Debug)]
pub struct L2Cache {
    line_words: u64,
    num_sets: u64,
    ways: usize,
    hit_latency: u64,
    dram: DramParams,
    /// Tag of slot `set * ways + way`; valid iff its stamp is non-zero.
    tags: Vec<u64>,
    /// Last-use stamp per slot; 0 marks an empty slot (stamps start at 1).
    stamps: Vec<u64>,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl L2Cache {
    /// Creates a cache of `capacity_words` with the given associativity.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or `capacity_words` is smaller than
    /// one way of lines.
    pub fn new(capacity_words: u64, ways: usize, line_words: u64, dram: DramParams) -> L2Cache {
        assert!(
            capacity_words > 0 && ways > 0 && line_words > 0,
            "cache parameters must be non-zero"
        );
        let lines = capacity_words / line_words;
        let num_sets = (lines / ways as u64).max(1);
        let slots = (num_sets as usize).saturating_mul(ways);
        L2Cache {
            line_words,
            num_sets,
            ways,
            hit_latency: 12,
            dram,
            tags: vec![0; slots],
            stamps: vec![0; slots],
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// A 512 KiW cache in the Chipyard style: 8-way, 8-word lines.
    pub fn chipyard_default() -> L2Cache {
        L2Cache::new(512 * 1024, 8, 8, DramParams::default())
    }

    /// Accesses one word; returns the access latency in cycles and whether
    /// it hit.
    pub fn access(&mut self, addr: u64) -> (u64, bool) {
        self.stamp += 1;
        let line = addr / self.line_words;
        let set = line % self.num_sets;
        let tag = line / self.num_sets;
        let base = set as usize * self.ways;
        // Bounded probe over this set's slot slices, 4-wide unrolled: a
        // valid slot (stamp != 0) with a matching tag is a hit. Valid
        // tags are unique within a set (an insert only happens after a
        // whole-set probe missed), so at most one lane matches and the
        // hit choice is identical to the scalar first-match probe the
        // [`reference`] model retains. The victim scan stays a separate
        // pass so the common hit case never pays for it.
        let tags = &self.tags[base..base + self.ways];
        let stamps = &self.stamps[base..base + self.ways];
        let mut hit = usize::MAX;
        let mut w = 0usize;
        while w + 4 <= self.ways {
            let (s0, s1, s2, s3) = (stamps[w], stamps[w + 1], stamps[w + 2], stamps[w + 3]);
            let (t0, t1, t2, t3) = (tags[w], tags[w + 1], tags[w + 2], tags[w + 3]);
            if s0 != 0 && t0 == tag {
                hit = w;
            }
            if s1 != 0 && t1 == tag {
                hit = w + 1;
            }
            if s2 != 0 && t2 == tag {
                hit = w + 2;
            }
            if s3 != 0 && t3 == tag {
                hit = w + 3;
            }
            if hit != usize::MAX {
                break;
            }
            w += 4;
        }
        if hit == usize::MAX {
            while w < self.ways {
                if stamps[w] != 0 && tags[w] == tag {
                    hit = w;
                    break;
                }
                w += 1;
            }
        }
        if hit != usize::MAX {
            self.stamps[base + hit] = self.stamp;
            self.hits += 1;
            return (self.hit_latency, true);
        }
        self.misses += 1;
        // Miss path: fill the first empty slot, else evict the LRU way,
        // with a 4-wide unrolled minimum scan. Stamps are unique with
        // empty slots at 0, so the strict `<` keeps the first minimum —
        // the same victim `min_by_key` chose (empty slots sort first and
        // are filled before anything is evicted).
        let mut victim = 0usize;
        let mut victim_stamp = u64::MAX;
        let mut w = 0usize;
        while w + 4 <= self.ways {
            let (s0, s1, s2, s3) = (stamps[w], stamps[w + 1], stamps[w + 2], stamps[w + 3]);
            if s0 < victim_stamp {
                victim_stamp = s0;
                victim = w;
            }
            if s1 < victim_stamp {
                victim_stamp = s1;
                victim = w + 1;
            }
            if s2 < victim_stamp {
                victim_stamp = s2;
                victim = w + 2;
            }
            if s3 < victim_stamp {
                victim_stamp = s3;
                victim = w + 3;
            }
            w += 4;
        }
        while w < self.ways {
            if stamps[w] < victim_stamp {
                victim_stamp = stamps[w];
                victim = w;
            }
            w += 1;
        }
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.stamp;
        (self.hit_latency + self.dram.latency_cycles, false)
    }

    /// Total cycles for a sequence of word accesses.
    pub fn access_all(&mut self, addrs: impl IntoIterator<Item = u64>) -> u64 {
        addrs.into_iter().map(|a| self.access(a).0).sum()
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Resets the statistics (not the contents).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Cycle attribution of all accesses since the last
    /// [`L2Cache::reset_stats`]: hit cycles are on-chip bandwidth
    /// (`DmaBandwidth`), miss cycles pay the DRAM round trip
    /// (`DmaLatency`). Sums to the total returned by the `access*` calls.
    pub fn breakdown(&self) -> CycleBreakdown {
        CycleBreakdown::new()
            .with(
                StallClass::DmaBandwidth,
                self.hits.saturating_mul(self.hit_latency),
            )
            .with(
                StallClass::DmaLatency,
                self.misses
                    .saturating_mul(self.hit_latency + self.dram.latency_cycles),
            )
    }
}

/// The retained `HashMap`-backed model — the observational-equivalence
/// oracle for the flat tag store above and the "pre" side of the `sim`
/// benchmark suite.
pub mod reference {
    use std::collections::HashMap;

    use super::*;

    /// `HashMap`-of-`Vec` counterpart of [`super::L2Cache`] (identical
    /// hit/miss/latency behaviour).
    #[derive(Clone, Debug)]
    pub struct L2Cache {
        line_words: u64,
        num_sets: u64,
        ways: usize,
        hit_latency: u64,
        dram: DramParams,
        /// set index → list of (tag, last-use stamp).
        sets: HashMap<u64, Vec<(u64, u64)>>,
        stamp: u64,
        hits: u64,
        misses: u64,
    }

    impl L2Cache {
        /// Creates a cache of `capacity_words` with the given associativity.
        ///
        /// # Panics
        ///
        /// Panics if any parameter is zero or `capacity_words` is smaller
        /// than one way of lines.
        pub fn new(capacity_words: u64, ways: usize, line_words: u64, dram: DramParams) -> L2Cache {
            assert!(
                capacity_words > 0 && ways > 0 && line_words > 0,
                "cache parameters must be non-zero"
            );
            let lines = capacity_words / line_words;
            let num_sets = (lines / ways as u64).max(1);
            L2Cache {
                line_words,
                num_sets,
                ways,
                hit_latency: 12,
                dram,
                sets: HashMap::new(),
                stamp: 0,
                hits: 0,
                misses: 0,
            }
        }

        /// A 512 KiW cache in the Chipyard style: 8-way, 8-word lines.
        pub fn chipyard_default() -> L2Cache {
            L2Cache::new(512 * 1024, 8, 8, DramParams::default())
        }

        /// Accesses one word; returns the access latency in cycles and
        /// whether it hit.
        pub fn access(&mut self, addr: u64) -> (u64, bool) {
            self.stamp += 1;
            let line = addr / self.line_words;
            let set = line % self.num_sets;
            let tag = line / self.num_sets;
            let entries = self.sets.entry(set).or_default();
            if let Some(e) = entries.iter_mut().find(|(t, _)| *t == tag) {
                e.1 = self.stamp;
                self.hits += 1;
                return (self.hit_latency, true);
            }
            self.misses += 1;
            if entries.len() >= self.ways {
                // Evict LRU.
                let lru = entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, s))| *s)
                    .map(|(n, _)| n)
                    .expect("non-empty set");
                entries.remove(lru);
            }
            entries.push((tag, self.stamp));
            (self.hit_latency + self.dram.latency_cycles, false)
        }

        /// Total cycles for a sequence of word accesses.
        pub fn access_all(&mut self, addrs: impl IntoIterator<Item = u64>) -> u64 {
            addrs.into_iter().map(|a| self.access(a).0).sum()
        }

        /// Hits so far.
        pub fn hits(&self) -> u64 {
            self.hits
        }

        /// Misses so far.
        pub fn misses(&self) -> u64 {
            self.misses
        }

        /// Hit rate in `[0, 1]`.
        pub fn hit_rate(&self) -> f64 {
            let total = self.hits + self.misses;
            if total == 0 {
                0.0
            } else {
                self.hits as f64 / total as f64
            }
        }

        /// Resets the statistics (not the contents).
        pub fn reset_stats(&mut self) {
            self.hits = 0;
            self.misses = 0;
        }

        /// Cycle attribution of all accesses since the last
        /// [`L2Cache::reset_stats`] (see [`super::L2Cache::breakdown`]).
        pub fn breakdown(&self) -> CycleBreakdown {
            CycleBreakdown::new()
                .with(
                    StallClass::DmaBandwidth,
                    self.hits.saturating_mul(self.hit_latency),
                )
                .with(
                    StallClass::DmaLatency,
                    self.misses
                        .saturating_mul(self.hit_latency + self.dram.latency_cycles),
                )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> L2Cache {
        L2Cache::new(64, 2, 4, DramParams::default()) // 16 lines, 8 sets
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let mut c = small();
        let (lat1, hit1) = c.access(0);
        let (lat2, hit2) = c.access(1); // same line
        assert!(!hit1 && hit2);
        assert!(lat1 > lat2);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn line_granularity() {
        let mut c = small();
        c.access(0);
        assert!(c.access(3).1, "same 4-word line must hit");
        assert!(!c.access(4).1, "next line must miss");
    }

    #[test]
    fn lru_eviction() {
        let mut c = small(); // 2 ways per set, 8 sets
                             // Three lines mapping to the same set (stride = sets * line = 32).
        c.access(0);
        c.access(32);
        c.access(0); // refresh line 0
        c.access(64); // evicts line 32 (LRU)
        assert!(c.access(0).1, "line 0 must survive");
        assert!(!c.access(32).1, "line 32 must have been evicted");
    }

    #[test]
    fn streaming_large_footprint_thrashes() {
        let mut c = small();
        // Stream far more than capacity, twice: second pass still misses.
        let addrs: Vec<u64> = (0..1024u64).map(|n| n * 4).collect();
        c.access_all(addrs.iter().copied());
        c.reset_stats();
        c.access_all(addrs.iter().copied());
        assert!(
            c.hit_rate() < 0.1,
            "thrashing stream should not hit, rate {}",
            c.hit_rate()
        );
    }

    #[test]
    fn small_footprint_reuse_hits() {
        let mut c = L2Cache::chipyard_default();
        let addrs: Vec<u64> = (0..4096u64).collect();
        c.access_all(addrs.iter().copied());
        c.reset_stats();
        c.access_all(addrs.iter().copied());
        assert!(
            c.hit_rate() > 0.99,
            "resident set must hit, rate {}",
            c.hit_rate()
        );
    }

    #[test]
    fn breakdown_matches_access_cycles() {
        use crate::trace::StallClass;
        let mut c = small();
        let total = c.access_all((0..256u64).map(|n| n * 2));
        let b = c.breakdown();
        assert_eq!(b.total(), total, "breakdown must account for every cycle");
        assert!(b.get(StallClass::DmaLatency) > 0, "cold stream must miss");
        c.reset_stats();
        assert_eq!(c.breakdown().total(), 0);
    }

    #[test]
    fn hit_rate_reduces_pointer_chase_cost() {
        // The §IV-F mitigation: scattered pointer reads with reuse become
        // L2 hits instead of DRAM round trips.
        let mut cold = L2Cache::chipyard_default();
        let ptrs: Vec<u64> = (0..1000u64).map(|n| n * 13 % 8000).collect();
        let first = cold.access_all(ptrs.iter().copied());
        let second = cold.access_all(ptrs.iter().copied());
        assert!(
            second < first / 2,
            "warm pointer reads must be much cheaper"
        );
    }

    #[test]
    fn flat_store_matches_reference_per_access() {
        // Every access outcome — latency and hit/miss — must match the
        // retained HashMap model, across conflict misses, evictions, and
        // re-references (unique stamps make LRU deterministic in both).
        let mut flat = small();
        let mut hash = reference::L2Cache::new(64, 2, 4, DramParams::default());
        let mut x = 0x2545F4914F6CDD1Du64;
        for n in 0..4096u64 {
            // A mix of a strided sweep and xorshift-scattered pointers.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = if n % 3 == 0 { n * 4 % 512 } else { x % 700 };
            assert_eq!(flat.access(addr), hash.access(addr), "access #{n}");
        }
        assert_eq!(flat.hits(), hash.hits());
        assert_eq!(flat.misses(), hash.misses());
        assert_eq!(flat.breakdown(), hash.breakdown());
    }
}
