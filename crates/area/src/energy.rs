//! Per-MAC energy accounting (Figure 17 of the paper).

use stellar_core::AcceleratorDesign;

use crate::tech::Technology;

/// Counted events for one layer/kernel execution, produced by the
/// simulator or an analytical tiling model.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrafficCounts {
    /// Multiply-accumulates performed.
    pub macs: u64,
    /// SRAM word reads + writes.
    pub sram_accesses: u64,
    /// Regfile word reads + writes.
    pub regfile_accesses: u64,
    /// DRAM words moved.
    pub dram_words: u64,
    /// Total PE-cycles elapsed (PEs × cycles), for static/control energy.
    pub pe_cycles: u64,
}

impl TrafficCounts {
    /// Element-wise sum.
    pub fn merge(self, o: TrafficCounts) -> TrafficCounts {
        TrafficCounts {
            macs: self.macs.saturating_add(o.macs),
            sram_accesses: self.sram_accesses.saturating_add(o.sram_accesses),
            regfile_accesses: self.regfile_accesses.saturating_add(o.regfile_accesses),
            dram_words: self.dram_words.saturating_add(o.dram_words),
            pe_cycles: self.pe_cycles.saturating_add(o.pe_cycles),
        }
    }
}

/// An energy model bound to a technology and data width.
#[derive(Clone, Debug)]
pub struct EnergyModel {
    tech: Technology,
    data_bits: u32,
    /// Extra control energy fraction charged per event for generated (vs
    /// hand-tuned) control logic — the source of the 7%–30% per-layer
    /// overhead range in Figure 17.
    pub control_overhead: f64,
}

impl EnergyModel {
    /// Creates an energy model for a design in the given node.
    pub fn new(design: &AcceleratorDesign, tech: Technology) -> EnergyModel {
        // Generated designs pay for the time counters, request generators,
        // and global stall trees on every event.
        let generated_overhead = if design.spatial_arrays.iter().any(|a| a.has_global_stall) {
            0.08
        } else {
            0.0
        };
        EnergyModel {
            tech,
            data_bits: design.data_bits,
            control_overhead: generated_overhead,
        }
    }

    /// Energy of one MAC at this data width, pJ.
    pub fn mac_pj(&self) -> f64 {
        let scale = (self.data_bits as f64 / 8.0).powi(2);
        self.tech.mac8_pj * scale
    }

    /// Total energy for the counted traffic, pJ.
    pub fn total_pj(&self, t: &TrafficCounts) -> f64 {
        let dynamic = t.macs as f64 * self.mac_pj()
            + t.sram_accesses as f64 * self.tech.sram_word_pj
            + t.regfile_accesses as f64 * self.tech.regfile_word_pj
            + t.dram_words as f64 * self.tech.dram_word_pj;
        let control = t.pe_cycles as f64 * self.tech.pe_static_pj_per_cycle;
        dynamic * (1.0 + self.control_overhead) + control
    }
}

/// Energy per MAC, pJ — the metric of Figure 17.
///
/// Returns 0 when no MACs were performed.
pub fn energy_per_mac_pj(model: &EnergyModel, traffic: &TrafficCounts) -> f64 {
    if traffic.macs == 0 {
        0.0
    } else {
        model.total_pj(traffic) / traffic.macs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_core::prelude::*;

    fn design(stall: bool) -> AcceleratorDesign {
        compile(
            &AcceleratorSpec::new("e", Functionality::matmul(4, 4, 4))
                .with_data_bits(8)
                .with_global_stall(stall),
        )
        .unwrap()
    }

    fn traffic() -> TrafficCounts {
        TrafficCounts {
            macs: 1_000_000,
            sram_accesses: 120_000,
            regfile_accesses: 900_000,
            dram_words: 30_000,
            pe_cycles: 4_000_000,
        }
    }

    #[test]
    fn energy_positive_and_scales() {
        let m = EnergyModel::new(&design(true), Technology::intel22());
        let e1 = energy_per_mac_pj(&m, &traffic());
        assert!(e1 > 0.0);
        let mut heavy = traffic();
        heavy.dram_words *= 10;
        let e2 = energy_per_mac_pj(&m, &heavy);
        assert!(e2 > e1, "more DRAM traffic must cost more energy");
    }

    #[test]
    fn generated_design_pays_overhead() {
        let gen = EnergyModel::new(&design(true), Technology::intel22());
        let hand = EnergyModel::new(&design(false), Technology::intel22());
        let t = traffic();
        assert!(gen.total_pj(&t) > hand.total_pj(&t));
        // The structural overhead is single-digit percent; per-layer
        // variation (Figure 17's 7%–30%) comes from traffic differences.
        let ratio = gen.total_pj(&t) / hand.total_pj(&t);
        assert!((1.02..1.15).contains(&ratio), "overhead ratio {ratio}");
    }

    #[test]
    fn wider_data_quadratic_mac_energy() {
        let mut d = design(false);
        d.data_bits = 16;
        let wide = EnergyModel::new(&d, Technology::intel22());
        let mut d8 = design(false);
        d8.data_bits = 8;
        let narrow = EnergyModel::new(&d8, Technology::intel22());
        assert!((wide.mac_pj() / narrow.mac_pj() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_macs_zero_epm() {
        let m = EnergyModel::new(&design(false), Technology::intel22());
        assert_eq!(energy_per_mac_pj(&m, &TrafficCounts::default()), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let a = traffic();
        let b = traffic();
        let c = a.merge(b);
        assert_eq!(c.macs, 2_000_000);
        assert_eq!(c.dram_words, 60_000);
    }
}
