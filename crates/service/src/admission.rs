//! Admission control: the bounded queue's gatekeeper.
//!
//! The north-star scenario is heavy traffic from many users, and the
//! first thing a service under heavy traffic must do is *refuse work it
//! cannot absorb* — an unbounded queue converts overload into unbounded
//! latency for everyone and an OOM kill for the daemon. Admission is
//! therefore costed, not counted: a C-class BT job is not one S-class
//! EP job, and the per-class cost model (problem sizes grow roughly
//! 16× per class step) makes the bound meaningful across mixed traffic.
//!
//! Every refusal is explicit and immediate (`rejected:{reason}` on the
//! wire — the 429 of this protocol), so a well-behaved client can back
//! off while a misbehaving one cannot hurt anyone but itself.

use npb_core::Class;

/// Cost units for one job of each class. The model itself lives on
/// [`Class::cost`], beside the class ladder it scales with.
pub fn class_cost(class: Class) -> u64 {
    class.cost()
}

/// Why a submit was refused. `tag()` is the wire string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The daemon is draining (SIGTERM / `drain` op): no new work, but
    /// the refusal is still a polite reply, not a dropped connection.
    Draining,
    /// The job alone costs more than the whole queue's capacity; it can
    /// never be admitted, so "try again later" would be a lie.
    CostExceedsCapacity,
    /// The queue's cost budget is currently exhausted — the retryable
    /// backpressure case.
    QueueFull,
}

impl RejectReason {
    pub fn tag(&self) -> &'static str {
        match self {
            RejectReason::Draining => "draining",
            RejectReason::CostExceedsCapacity => "cost-exceeds-capacity",
            RejectReason::QueueFull => "queue-full",
        }
    }
}

/// The admission decision, as a pure function of the queue's state:
/// `in_service_cost` is the summed cost of every accepted-but-not-done
/// job (queued *and* running — a job's budget is released only when its
/// terminal disposition is journaled).
pub fn admit(
    in_service_cost: u64,
    capacity: u64,
    job_cost: u64,
    draining: bool,
) -> Result<(), RejectReason> {
    if draining {
        return Err(RejectReason::Draining);
    }
    if job_cost > capacity {
        return Err(RejectReason::CostExceedsCapacity);
    }
    if in_service_cost + job_cost > capacity {
        return Err(RejectReason::QueueFull);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_follow_the_class_ladder() {
        let costs: Vec<u64> = [Class::S, Class::W, Class::A, Class::B, Class::C]
            .iter()
            .map(|&c| class_cost(c))
            .collect();
        assert_eq!(costs, vec![1, 4, 16, 64, 256]);
        assert!(costs.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
    }

    #[test]
    fn admission_is_costed_backpressure() {
        // Room left: admitted.
        assert_eq!(admit(3, 8, 4, false), Ok(()));
        // Exactly full is still admitted (<= capacity)...
        assert_eq!(admit(4, 8, 4, false), Ok(()));
        // ...one unit over is queue-full.
        assert_eq!(admit(5, 8, 4, false), Err(RejectReason::QueueFull));
        // A job that can never fit is its own reason.
        assert_eq!(admit(0, 8, 16, false), Err(RejectReason::CostExceedsCapacity));
        // Draining wins over everything.
        assert_eq!(admit(0, 8, 1, true), Err(RejectReason::Draining));
    }

    #[test]
    fn tags_are_the_wire_strings() {
        assert_eq!(RejectReason::Draining.tag(), "draining");
        assert_eq!(RejectReason::CostExceedsCapacity.tag(), "cost-exceeds-capacity");
        assert_eq!(RejectReason::QueueFull.tag(), "queue-full");
    }
}
