//! Simulation errors and the watchdog that bounds every simulation loop.
//!
//! FireSim runs of buggy generated designs hang silently; the software
//! simulator must not. Every `simulate_*` entry point in this crate takes
//! (or defaults) a cycle budget, checks it through a [`Watchdog`], and
//! returns `Result<_, SimError>` instead of looping unbounded. The same
//! error type reports a DMA transfer wedged on a response that its retries
//! could not recover.

// The error path must not itself panic: unwinding is denied in
// non-test code here.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::error::Error;
use std::fmt;

/// The default watchdog budget, cycles. Generous enough for every workload
/// in the experiment suite while still terminating a runaway loop quickly.
pub const DEFAULT_WATCHDOG_BUDGET: u64 = 100_000_000;

/// Errors produced by the cycle-level simulators.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// No agent can make progress but work remains — a DMA request whose
    /// response was lost more times than its retry policy allows.
    Deadlock {
        /// The cycle at which the deadlock was detected.
        cycle: u64,
        /// What was still pending.
        detail: String,
    },
    /// The simulation is still making (apparent) progress past its cycle
    /// budget — a livelock or a mis-sized budget.
    WatchdogExpired {
        /// The budget that was exhausted.
        budget: u64,
        /// Which simulation loop expired.
        detail: String,
    },
    /// The simulation parameters are inconsistent (zero bandwidth, empty
    /// array, …).
    InvalidConfig(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { cycle, detail } => {
                write!(f, "deadlock at cycle {cycle}: {detail}")
            }
            SimError::WatchdogExpired { budget, detail } => {
                write!(f, "watchdog expired after {budget} cycles: {detail}")
            }
            SimError::InvalidConfig(msg) => write!(f, "invalid simulation config: {msg}"),
        }
    }
}

impl Error for SimError {}

/// A cycle-budget watchdog: every simulation loop ticks one of these and
/// aborts with [`SimError::WatchdogExpired`] when the budget runs out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Watchdog {
    budget: u64,
    elapsed: u64,
}

impl Watchdog {
    /// A watchdog with the given cycle budget.
    pub fn with_budget(budget: u64) -> Watchdog {
        Watchdog { budget, elapsed: 0 }
    }

    /// The default watchdog ([`DEFAULT_WATCHDOG_BUDGET`] cycles).
    pub fn default_budget() -> Watchdog {
        Watchdog::with_budget(DEFAULT_WATCHDOG_BUDGET)
    }

    /// The configured budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Cycles consumed so far.
    pub fn elapsed(&self) -> u64 {
        self.elapsed
    }

    /// Advances `cycles` and fails if the budget is exhausted. `what` names
    /// the loop for the error message.
    pub fn tick(&mut self, cycles: u64, what: &str) -> Result<(), SimError> {
        self.elapsed = self.elapsed.saturating_add(cycles);
        if self.elapsed > self.budget {
            Err(SimError::WatchdogExpired {
                budget: self.budget,
                detail: what.to_string(),
            })
        } else {
            Ok(())
        }
    }

    /// Checks a precomputed cycle count against the budget without
    /// advancing — used by the analytic (closed-form) models, which know
    /// their total up front.
    pub fn check_total(&self, cycles: u64, what: &str) -> Result<(), SimError> {
        if cycles > self.budget {
            Err(SimError::WatchdogExpired {
                budget: self.budget,
                detail: format!("{what} needs {cycles} cycles"),
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_within_budget() {
        let mut w = Watchdog::with_budget(10);
        for _ in 0..10 {
            w.tick(1, "loop").unwrap();
        }
        assert_eq!(w.elapsed(), 10);
        let err = w.tick(1, "loop").unwrap_err();
        assert!(matches!(err, SimError::WatchdogExpired { budget: 10, .. }));
    }

    #[test]
    fn check_total_is_stateless() {
        let w = Watchdog::with_budget(100);
        w.check_total(100, "analytic").unwrap();
        assert!(w.check_total(101, "analytic").is_err());
        // Checking twice never accumulates.
        w.check_total(100, "analytic").unwrap();
    }

    #[test]
    fn big_ticks_saturate() {
        let mut w = Watchdog::with_budget(5);
        let err = w.tick(u64::MAX, "burst").unwrap_err();
        assert!(matches!(err, SimError::WatchdogExpired { .. }));
    }

    #[test]
    fn display_messages() {
        let e = SimError::Deadlock {
            cycle: 7,
            detail: "2 rows pending".into(),
        };
        assert!(e.to_string().contains("deadlock at cycle 7"));
        let e = SimError::WatchdogExpired {
            budget: 9,
            detail: "sparse".into(),
        };
        assert!(e.to_string().contains("watchdog expired after 9"));
        assert!(SimError::InvalidConfig("x".into())
            .to_string()
            .contains("invalid"));
    }

    #[test]
    fn is_std_error() {
        fn takes<E: std::error::Error + Send + Sync>(_: E) {}
        takes(SimError::InvalidConfig("q".into()));
    }
}
