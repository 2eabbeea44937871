//! Analytical area, energy, and timing models for Stellar designs.
//!
//! The paper synthesizes generated Verilog with the ASAP7 PDK for area and
//! frequency, and Intel 22nm for energy (§VI-A). This crate substitutes a
//! *component-level analytical model*: unit costs per register bit,
//! multiplier bit², comparator bit, SRAM bit, and so on, applied to the
//! structural design IR. Unit constants are calibrated so that a
//! hand-written Gemmini-class 16×16 8-bit weight-stationary accelerator
//! lands near the paper's Table III; all *other* numbers are then produced
//! by the model from design structure, so area/energy *ratios* between
//! designs are meaningful.
//!
//! * [`Technology`] — unit-cost tables ([`Technology::asap7`] for area,
//!   [`Technology::intel22`] for energy).
//! * [`area`] — per-component and whole-design area (Table III).
//! * [`energy`] — per-MAC energy accounting (Figure 17).
//! * [`timing`] — critical-path and maximum-frequency estimates (the 1 GHz
//!   vs 700 MHz claim of §VI-B).

pub mod area;
pub mod energy;
pub mod merger;
pub mod tech;
pub mod timing;

pub use area::{
    area_of, array_area_um2, membuf_addr_gen_area_um2, membuf_sram_area_um2, pe_area_um2,
    regfile_area_um2, AreaBreakdown,
};
pub use energy::{energy_per_mac_pj, EnergyModel, TrafficCounts};
pub use merger::{flattened_merger_area_um2, merger_area_ratio, row_partitioned_merger_area_um2};
pub use tech::Technology;
pub use timing::{addr_gen_critical_path_ps, array_max_frequency_mhz, max_frequency_mhz};
