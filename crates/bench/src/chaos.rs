//! Deterministic harness-level fault injection.
//!
//! The scheduler's recovery paths — watchdog kill, bounded retry,
//! quarantine, post-flight report validation — are worthless if they only
//! ever run when something *actually* breaks. This module injects child
//! failures on a seeded schedule, the same SplitMix64 pattern the
//! simulator's DMA response-loss [`FaultPlan`](stellar_sim::FaultPlan)
//! uses, but aimed at the harness rather than the simulated hardware: a
//! [`ChaosPlan`]'s fate for a given `(experiment, attempt)` pair is a pure
//! function of the seed, independent of scheduling order or `-j N`, so a
//! chaotic run is exactly reproducible.
//!
//! Three fates model the three ways a child experiment dies in the wild:
//!
//! * **Kill** — the child is SIGKILLed right after spawn (OOM killer,
//!   operator `kill -9`).
//! * **Hang** — the child is treated as wedged, exercising the
//!   wall-clock watchdog path.
//! * **Corrupt** — the child completes but its report file gets a byte
//!   flipped, exercising envelope validation and re-run.

use std::io;
use std::path::Path;

use stellar_tensor::rng::Rng64;

/// What the injector decides for one `(experiment, attempt)` launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Leave the launch alone.
    Healthy,
    /// SIGKILL the child immediately after spawn.
    Kill,
    /// Treat the child as hung so the watchdog fires.
    Hang,
    /// Flip one byte of the child's report after it exits cleanly.
    Corrupt,
}

/// A seeded fault schedule for the experiment scheduler. Equal plans
/// produce identical fates for identical `(experiment, attempt)` pairs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosPlan {
    /// PRNG seed; the sole source of randomness.
    pub seed: u64,
    /// Probability a launch is SIGKILLed.
    pub kill_per_launch: f64,
    /// Probability a launch is treated as hung (watchdog path).
    pub hang_per_launch: f64,
    /// Probability a clean report gets one byte flipped.
    pub corrupt_per_report: f64,
    /// Only attempts below this index are eligible for faults; later
    /// retries run clean. `1` makes every recovery deterministic (first
    /// attempt faulted, first retry succeeds); `u32::MAX` faults forever.
    pub attempts_affected: u32,
}

impl ChaosPlan {
    /// The fault-free plan.
    pub fn none() -> ChaosPlan {
        ChaosPlan {
            seed: 0,
            kill_per_launch: 0.0,
            hang_per_launch: 0.0,
            corrupt_per_report: 0.0,
            attempts_affected: u32::MAX,
        }
    }

    /// True if the plan can never inject anything.
    pub fn is_inert(&self) -> bool {
        (self.kill_per_launch <= 0.0
            && self.hang_per_launch <= 0.0
            && self.corrupt_per_report <= 0.0)
            || self.attempts_affected == 0
    }

    /// Parses a `key=value` spec like `seed=7,kill=0.5,hang=0.1,corrupt=1,first=1`
    /// (the `--chaos` flag). Unknown keys are errors; omitted keys keep
    /// the fault-free defaults (`first` defaults to every attempt).
    ///
    /// # Errors
    ///
    /// A message naming the offending fragment.
    pub fn parse(spec: &str) -> Result<ChaosPlan, String> {
        let mut plan = ChaosPlan::none();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec fragment {part:?} is not key=value"))?;
            let bad = |what: &str| format!("chaos spec {key}={value:?}: invalid {what}");
            match key.trim() {
                "seed" => plan.seed = value.trim().parse().map_err(|_| bad("seed"))?,
                "kill" => {
                    plan.kill_per_launch = value.trim().parse().map_err(|_| bad("probability"))?
                }
                "hang" => {
                    plan.hang_per_launch = value.trim().parse().map_err(|_| bad("probability"))?
                }
                "corrupt" => {
                    plan.corrupt_per_report =
                        value.trim().parse().map_err(|_| bad("probability"))?
                }
                "first" => {
                    plan.attempts_affected = value.trim().parse().map_err(|_| bad("count"))?
                }
                other => return Err(format!("unknown chaos spec key {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// FNV-1a 64-bit, for folding experiment names into the fate stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Applies a [`ChaosPlan`] to scheduler launches.
#[derive(Clone, Copy, Debug)]
pub struct ChaosInjector {
    plan: ChaosPlan,
}

impl ChaosInjector {
    /// An injector driven by `plan`.
    pub fn new(plan: ChaosPlan) -> ChaosInjector {
        ChaosInjector { plan }
    }

    /// The plan this injector runs.
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// The fate of launching `name` on the given (0-based) attempt — a
    /// pure function of `(plan.seed, name, attempt)`, so the schedule is
    /// identical for every `-j N` and every interleaving.
    pub fn fate(&self, name: &str, attempt: u32) -> Fate {
        if self.plan.is_inert() || attempt >= self.plan.attempts_affected {
            return Fate::Healthy;
        }
        let mut rng = Rng64::seed_from_u64(
            self.plan.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ fnv1a(name.as_bytes()).rotate_left(17)
                ^ (attempt as u64).wrapping_mul(0xd134_2543_de82_ef95),
        );
        // Fixed draw order keeps each probability independent of the
        // others' values.
        let kill = rng.chance(self.plan.kill_per_launch);
        let hang = rng.chance(self.plan.hang_per_launch);
        let corrupt = rng.chance(self.plan.corrupt_per_report);
        if kill {
            Fate::Kill
        } else if hang {
            Fate::Hang
        } else if corrupt {
            Fate::Corrupt
        } else {
            Fate::Healthy
        }
    }

    /// Flips one byte of the file at a deterministic offset (seeded by
    /// the plan and the file length). Returns `Ok(false)` if the file is
    /// empty or missing — nothing to corrupt.
    ///
    /// # Errors
    ///
    /// Propagates IO errors from the rewrite.
    pub fn corrupt_file(&self, path: &Path) -> io::Result<bool> {
        let mut bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e),
        };
        if bytes.is_empty() {
            return Ok(false);
        }
        let mut rng = Rng64::seed_from_u64(self.plan.seed ^ bytes.len() as u64);
        let pos = rng.range_usize(0, bytes.len());
        bytes[pos] ^= 0x20;
        std::fs::write(path, &bytes)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fate_is_deterministic_and_name_dependent() {
        let inj = ChaosInjector::new(ChaosPlan {
            seed: 42,
            kill_per_launch: 0.5,
            hang_per_launch: 0.25,
            corrupt_per_report: 0.25,
            attempts_affected: u32::MAX,
        });
        let a: Vec<Fate> = (0..16).map(|n| inj.fate("e01_dataflows", n)).collect();
        let b: Vec<Fate> = (0..16).map(|n| inj.fate("e01_dataflows", n)).collect();
        assert_eq!(a, b, "same plan, same stream");
        let c: Vec<Fate> = (0..16).map(|n| inj.fate("e02_pipelining", n)).collect();
        assert_ne!(a, c, "different experiments draw different fates");
    }

    #[test]
    fn certain_probabilities_are_certain() {
        let kill = ChaosInjector::new(ChaosPlan {
            kill_per_launch: 1.0,
            ..ChaosPlan::none()
        });
        let corrupt = ChaosInjector::new(ChaosPlan {
            corrupt_per_report: 1.0,
            ..ChaosPlan::none()
        });
        for n in 0..8 {
            assert_eq!(kill.fate("e05_gemmini_util", n), Fate::Kill);
            assert_eq!(corrupt.fate("e05_gemmini_util", n), Fate::Corrupt);
        }
    }

    #[test]
    fn attempts_affected_bounds_the_schedule() {
        let inj = ChaosInjector::new(ChaosPlan {
            kill_per_launch: 1.0,
            attempts_affected: 2,
            ..ChaosPlan::none()
        });
        assert_eq!(inj.fate("e01_dataflows", 0), Fate::Kill);
        assert_eq!(inj.fate("e01_dataflows", 1), Fate::Kill);
        assert_eq!(inj.fate("e01_dataflows", 2), Fate::Healthy);
    }

    #[test]
    fn fault_free_plans_never_inject() {
        let inj = ChaosInjector::new(ChaosPlan::none());
        for n in 0..64 {
            assert_eq!(inj.fate("e09_outerspace", n), Fate::Healthy);
        }
    }

    #[test]
    fn spec_parsing() {
        let plan = ChaosPlan::parse("seed=7,kill=0.5,hang=0.25,corrupt=1,first=1").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.kill_per_launch, 0.5);
        assert_eq!(plan.hang_per_launch, 0.25);
        assert_eq!(plan.corrupt_per_report, 1.0);
        assert_eq!(plan.attempts_affected, 1);
        assert!(ChaosPlan::parse("").unwrap().is_inert());
        assert!(ChaosPlan::parse("bogus=1").is_err());
        assert!(ChaosPlan::parse("kill").is_err());
        assert!(ChaosPlan::parse("kill=x").is_err());
    }

    #[test]
    fn corrupt_file_flips_exactly_one_byte() {
        let dir = std::env::temp_dir().join(format!("stellar-chaos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("victim.json");
        let original = b"{\"id\":\"e01\",\"cycles\":12345}".to_vec();
        std::fs::write(&path, &original).unwrap();
        let inj = ChaosInjector::new(ChaosPlan {
            corrupt_per_report: 1.0,
            ..ChaosPlan::none()
        });
        assert!(inj.corrupt_file(&path).unwrap());
        let mutated = std::fs::read(&path).unwrap();
        let diffs = original
            .iter()
            .zip(&mutated)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 1, "exactly one byte must differ");
        // Missing files are a no-op, not an error.
        assert!(!inj.corrupt_file(&dir.join("absent.json")).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
