//! Deterministic fault injection for the master–worker runtime.
//!
//! A [`FaultPlan`] is a seeded, one-shot fault: it picks its victim rank
//! and its parameters from the NPB linear-congruential generator
//! ([`npb_core::random::randlc`]), so a chaos run is exactly reproducible
//! from its `kind:seed` spec. Three faults cover the failure paths the
//! runtime must survive:
//!
//! * **panic** — the victim rank's region body unwinds at region entry,
//!   exercising barrier poisoning, region draining and team healing;
//! * **delay** — the victim rank sleeps before its next barrier *after
//!   the timed section begins* (arming snapshots
//!   [`npb_core::trace::timed_epoch`]; the delay holds its fire until
//!   `trace::reset` advances it past the warm-up), proving barriers
//!   tolerate stragglers without deadlocking and giving the campaign
//!   regression gate a slowdown that `time_secs` can actually see;
//! * **hang** — the victim rank wedges forever at region entry,
//!   exercising the watchdog (which terminates the process, naming the
//!   stuck ranks);
//! * **nan** — the next verification comparison sees a NaN computed
//!   value, exercising the `Verified::Failure` → nonzero-exit path;
//! * **bitflip** — a randlc-chosen bit of a randlc-chosen state-array
//!   element is flipped at a randlc-chosen outer iteration of the next
//!   guarded benchmark run, exercising the in-computation SDC guard's
//!   detect → rollback → replay path (`npb_core::guard`). Without
//!   `--sdc-guard` the same flip silently corrupts the run, which is the
//!   control experiment proving the guard is load-bearing.
//!
//! Faults are one-shot: arming fires the fault at most once, so a driver
//! retry (`--retries`) of the same benchmark runs clean.

use npb_core::guard::ArmedBitFlip;
use npb_core::Randlc;

use crate::team::Team;

/// Which fault a [`FaultPlan`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic the victim rank's region body.
    Panic,
    /// Sleep the victim rank before its next barrier.
    Delay,
    /// Wedge the victim rank forever at region entry (watchdog bait).
    Hang,
    /// Corrupt the next verified quantity to NaN.
    Nan,
    /// Flip one bit of one state-array element at one outer iteration
    /// of the next guarded benchmark run (silent data corruption).
    BitFlip,
}

/// A seeded, deterministic, one-shot fault to inject.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// The fault to inject.
    pub kind: FaultKind,
    /// The user-facing seed the plan was built from.
    pub seed: u64,
    /// The plan's deviate stream, derived from `seed`.
    rng: Randlc,
}

impl FaultPlan {
    /// Build a plan from a kind and seed.
    pub fn new(kind: FaultKind, seed: u64) -> FaultPlan {
        FaultPlan { kind, seed, rng: Randlc::from_seed(seed) }
    }

    /// Every parseable fault kind, for usage and error messages.
    pub const KINDS: &'static str = "panic|delay|hang|nan|bitflip";

    /// Parse a driver spec: one of [`FaultPlan::KINDS`], optionally
    /// followed by `:<seed>` (default seed 1).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let (kind, seed) = match spec.split_once(':') {
            Some((k, s)) => {
                let seed = s
                    .parse::<u64>()
                    .map_err(|_| format!("bad fault seed {s:?} (expected an integer)"))?;
                (k, seed)
            }
            None => (spec, 1),
        };
        let kind = match kind {
            "panic" => FaultKind::Panic,
            "delay" => FaultKind::Delay,
            "hang" => FaultKind::Hang,
            "nan" => FaultKind::Nan,
            "bitflip" => FaultKind::BitFlip,
            other => {
                return Err(format!("unknown fault kind {other:?} (expected {})", FaultPlan::KINDS))
            }
        };
        Ok(FaultPlan::new(kind, seed))
    }

    /// The `k`-th deviate of this plan's stream, in `(0, 1)`.
    fn draw(&self, k: usize) -> f64 {
        let mut rng = self.rng;
        rng.jump(k as u64);
        rng.next_f64()
    }

    /// Deterministic victim rank for a team of `n`.
    pub fn victim(&self, n: usize) -> usize {
        ((self.draw(0) * n as f64) as usize).min(n - 1)
    }

    /// Deterministic barrier-delay duration, 20–200 ms.
    pub fn delay_ms(&self) -> u64 {
        20 + (self.draw(1) * 180.0) as u64
    }

    /// Arm the fault. Panic, delay and hang faults arm on `team` (they
    /// need a worker to victimize); the NaN and bit-flip faults arm the
    /// calling thread's corruption hooks in `npb-core` (kernels verify
    /// and drive their outer loops on the thread that drives the
    /// benchmark, so arm from that same thread — both work serially).
    ///
    /// Errors if the fault needs a team and none was given (serial runs
    /// have no worker to kill).
    pub fn arm(&self, team: Option<&Team>) -> Result<(), String> {
        match self.kind {
            FaultKind::Nan => {
                npb_core::arm_nan_corruption();
                Ok(())
            }
            FaultKind::BitFlip => {
                // Deviates 0 and 1 are reserved by victim()/delay_ms();
                // the flip's coordinates draw the next three, so one seed
                // spec reproduces the exact same corruption everywhere.
                npb_core::arm_bitflip(ArmedBitFlip {
                    iter_frac: self.draw(2),
                    elem_frac: self.draw(3),
                    bit_frac: self.draw(4),
                });
                Ok(())
            }
            FaultKind::Panic | FaultKind::Delay | FaultKind::Hang => match team {
                Some(t) => {
                    t.arm_fault(self);
                    Ok(())
                }
                None => Err(format!(
                    "fault {:?} needs worker threads (run with --threads >= 1)",
                    self.kind
                )),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_kinds_and_defaults_seed() {
        assert_eq!(FaultPlan::parse("panic:7").unwrap().kind, FaultKind::Panic);
        assert_eq!(FaultPlan::parse("delay").unwrap().seed, 1);
        assert_eq!(FaultPlan::parse("hang:2").unwrap().kind, FaultKind::Hang);
        assert_eq!(FaultPlan::parse("nan:3").unwrap().seed, 3);
        assert_eq!(FaultPlan::parse("bitflip:42").unwrap().kind, FaultKind::BitFlip);
        assert!(FaultPlan::parse("explode").is_err());
        assert!(FaultPlan::parse("panic:x").is_err());
    }

    #[test]
    fn parse_error_lists_every_valid_kind() {
        let err = FaultPlan::parse("explode").unwrap_err();
        assert!(err.contains("\"explode\""), "error names the bad kind: {err}");
        for kind in ["panic", "delay", "hang", "nan", "bitflip"] {
            assert!(err.contains(kind), "error must list {kind}: {err}");
        }
    }

    #[test]
    fn bitflip_arms_the_core_hook_serially() {
        assert!(!npb_core::bitflip_armed());
        let plan = FaultPlan::new(FaultKind::BitFlip, 42);
        plan.arm(None).expect("bitflip needs no worker threads");
        assert!(npb_core::bitflip_armed());
        // Claim it so this test leaves no armed fault behind for
        // parallel tests on this thread.
        let guard = npb_core::SdcGuard::new(&npb_core::GuardConfig::default(), 4);
        assert!(!npb_core::bitflip_armed());
        drop(guard);
    }

    #[test]
    fn victim_is_deterministic_and_in_range() {
        for seed in 0..50u64 {
            let plan = FaultPlan::new(FaultKind::Panic, seed);
            for n in 1..9usize {
                let v = plan.victim(n);
                assert!(v < n, "seed {seed}, n {n}: victim {v}");
                assert_eq!(v, plan.victim(n), "victim must be reproducible");
            }
        }
    }

    #[test]
    fn distinct_seeds_spread_victims() {
        let hits: std::collections::HashSet<usize> =
            (0..32u64).map(|s| FaultPlan::new(FaultKind::Panic, s).victim(8)).collect();
        assert!(hits.len() > 3, "seeds should reach several ranks, got {hits:?}");
    }

    #[test]
    fn delay_is_bounded() {
        for seed in 0..20u64 {
            let ms = FaultPlan::new(FaultKind::Delay, seed).delay_ms();
            assert!((20..=200).contains(&ms));
        }
    }

    #[test]
    fn serial_panic_arm_is_an_error() {
        let plan = FaultPlan::new(FaultKind::Panic, 1);
        assert!(plan.arm(None).is_err());
    }
}
