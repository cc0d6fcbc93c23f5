//! The structured failure vocabulary of a parallel region: what
//! [`crate::Team::try_exec`] (and the procs backend) report, and the
//! panic payloads the runtime itself unwinds with.

/// Structured outcome of a failed parallel region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionError {
    /// One or more workers' region bodies unwound. `tids` are the ranks
    /// whose bodies panicked directly (siblings released from a poisoned
    /// barrier are collateral and not listed).
    Panicked {
        /// Ranks whose region body panicked, in ascending order.
        tids: Vec<usize>,
    },
    /// A round hung past its timeout and the recovery budget ran out.
    /// Produced only by the `procs` backend, whose parent can kill and
    /// respawn hung rank processes; a [`crate::Team`] never returns it,
    /// because a stuck thread can be neither killed nor safely abandoned
    /// — its watchdog ([`crate::Team::set_region_timeout`]) terminates
    /// the process instead.
    Timeout {
        /// Ranks that never arrived, in ascending order.
        stuck_ranks: Vec<usize>,
    },
    /// The team's dispatch state was unusable: `exec` was re-entered
    /// from inside one of this team's own region bodies, or the job slot
    /// was left corrupt by an earlier failure.
    Poisoned,
    /// The in-computation SDC guard (`npb_core::guard`) detected data
    /// corruption it could not recover from: either the detection
    /// recurred at the same iteration `detections` times, or no intact
    /// checkpoint remained to roll back to. Produced via
    /// [`escalate_corruption`]; the in-process retry and supervisor
    /// layers handle it like any other region failure.
    Corruption {
        /// Outer iteration the guard could not get past.
        iteration: usize,
        /// Detections at that iteration before the guard gave up.
        detections: usize,
    },
}

/// Escalate an unrecoverable SDC detection out of a benchmark's outer
/// loop: panics with a [`RegionError::Corruption`] payload, which the
/// driver's `catch_unwind` converts into the same structured error path
/// that worker panics take (retry budget, then the supervisor).
pub fn escalate_corruption(iteration: usize, detections: usize) -> ! {
    std::panic::panic_any(RegionError::Corruption { iteration, detections })
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionError::Panicked { tids } => {
                write!(
                    f,
                    "{} worker(s) panicked inside a parallel region (ranks {tids:?})",
                    tids.len()
                )
            }
            RegionError::Timeout { stuck_ranks } => {
                write!(f, "region watchdog timeout: ranks {stuck_ranks:?} never arrived")
            }
            RegionError::Poisoned => {
                write!(f, "team dispatch state poisoned (exec re-entered from inside a region)")
            }
            RegionError::Corruption { iteration, detections } => {
                write!(
                    f,
                    "unrecovered data corruption at iteration {iteration} \
                     ({detections} repeated detection(s); checkpoint rollback exhausted)"
                )
            }
        }
    }
}

impl std::error::Error for RegionError {}

/// Panic payload used to release siblings blocked in a poisoned barrier.
/// Workers unwound by this marker are collateral damage, not the fault's
/// origin, and are excluded from [`RegionError::Panicked`]'s rank list.
pub struct BarrierPoisoned;

/// Panic payload for faults injected by a [`crate::FaultPlan`].
pub struct InjectedFault;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalate_corruption_unwinds_with_a_structured_payload() {
        let payload = std::panic::catch_unwind(|| escalate_corruption(7, 3)).unwrap_err();
        let err = payload.downcast::<RegionError>().expect("RegionError payload");
        assert_eq!(*err, RegionError::Corruption { iteration: 7, detections: 3 });
        let text = err.to_string();
        assert!(text.contains("iteration 7") && text.contains("3 repeated"), "{text}");
    }
}
