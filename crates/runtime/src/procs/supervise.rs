//! Rank supervision: the parent's view of its worker processes, with
//! the deadline-kill / kill-then-reap idioms the suite supervisor
//! established — `try_wait` for liveness while a run is in flight,
//! `kill()` escalation, and a bounded reap on the supervisor's own
//! blocking [`wait_child`], so the parent can never hang on a zombie.

use std::io;
use std::os::unix::process::ExitStatusExt;
use std::process::{Child, ExitStatus};
use std::time::{Duration, Instant};

use npb_core::child::wait_child;

/// How a worker rank ended, as the taxonomy string the report's
/// `rank_dispositions` carries: `done`, `exit:N`, `signal:N`, or
/// `killed` (terminated by the parent during recovery).
pub fn describe_exit(status: ExitStatus) -> String {
    match (status.code(), status.signal()) {
        (Some(c), _) => format!("exit:{c}"),
        (None, Some(sig)) => format!("signal:{sig}"),
        (None, None) => "exit:?".to_string(),
    }
}

/// One spawned worker rank.
pub struct RankProc {
    /// Rank index (also the index in [`RankSet::procs`]).
    pub rank: usize,
    /// The process, until reaped.
    pub child: Option<Child>,
    /// Terminal disposition once known.
    pub disposition: Option<String>,
}

/// The parent's handle on one incarnation of the worker set.
pub struct RankSet {
    /// All ranks of this incarnation, index = rank.
    pub procs: Vec<RankProc>,
}

impl RankSet {
    /// Wrap freshly spawned children (index = rank).
    pub fn new(children: Vec<Child>) -> RankSet {
        RankSet {
            procs: children
                .into_iter()
                .enumerate()
                .map(|(rank, child)| RankProc { rank, child: Some(child), disposition: None })
                .collect(),
        }
    }

    /// Non-blocking death check: reaps and reports the first rank found
    /// exited. *Any* exit while the run is in flight is a failure —
    /// clean completion is observed at the final barrier, not here.
    pub fn poll_death(&mut self) -> Option<(usize, String)> {
        for p in &mut self.procs {
            let Some(child) = p.child.as_mut() else { continue };
            match child.try_wait() {
                Ok(Some(status)) => {
                    let d = describe_exit(status);
                    p.child = None;
                    p.disposition = Some(d.clone());
                    return Some((p.rank, d));
                }
                Ok(None) => {}
                Err(_) => {
                    // ECHILD et al.: treat an unwaitable child as dead.
                    p.child = None;
                    p.disposition = Some("exit:?".to_string());
                    return Some((p.rank, "exit:?".to_string()));
                }
            }
        }
        None
    }

    /// SIGKILL and reap every rank still running (recovery path). The
    /// `kill()` + blocking `wait()` pair is safe: a SIGKILLed child
    /// cannot linger, so the wait is bounded by the kernel.
    pub fn kill_all(&mut self) {
        for p in &mut self.procs {
            if let Some(mut child) = p.child.take() {
                let _ = child.kill();
                let _ = child.wait();
                p.disposition = Some("killed".to_string());
            }
        }
    }

    /// Reap ranks that are exiting on their own (post-final-barrier),
    /// escalating to SIGKILL past `deadline` so a straggler that caught
    /// the barrier but wedged on the way out cannot hang the parent.
    pub fn reap_all(&mut self, deadline: Duration) -> io::Result<()> {
        let t0 = Instant::now();
        for p in &mut self.procs {
            let Some(child) = p.child.as_mut() else { continue };
            // Blocks until this rank exits; what is left of the deadline
            // is shared, so the whole reap is bounded by it.
            let w = wait_child(child, Some(deadline.saturating_sub(t0.elapsed())))?;
            p.disposition = Some(match w.status.code() {
                _ if w.killed => "killed".to_string(),
                Some(0) => "done".to_string(),
                _ => describe_exit(w.status),
            });
            p.child = None;
        }
        Ok(())
    }

    /// The per-rank disposition strings, in rank order (`spawned` for a
    /// rank whose fate was never resolved).
    pub fn dispositions(&self) -> Vec<String> {
        self.procs
            .iter()
            .map(|p| p.disposition.clone().unwrap_or_else(|| "spawned".to_string()))
            .collect()
    }
}

impl Drop for RankSet {
    fn drop(&mut self) {
        // No incarnation outlives its supervisor: dropping the set
        // (error paths included) must not leak orphan ranks.
        self.kill_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::{Command, Stdio};

    fn spawn_sleeper(secs: &str) -> Child {
        Command::new("sleep").arg(secs).stdout(Stdio::null()).spawn().expect("spawn sleep")
    }

    #[test]
    fn poll_death_sees_an_exit_and_kill_all_reaps_the_rest() {
        let fast = Command::new("false").stdout(Stdio::null()).spawn().expect("spawn false");
        let mut set = RankSet::new(vec![spawn_sleeper("30"), fast]);
        let t0 = Instant::now();
        let dead = loop {
            if let Some(d) = set.poll_death() {
                break d;
            }
            assert!(t0.elapsed() < Duration::from_secs(10), "never saw the exit");
            std::thread::sleep(Duration::from_millis(2));
        };
        assert_eq!(dead.0, 1);
        assert_eq!(dead.1, "exit:1");
        set.kill_all();
        let d = set.dispositions();
        assert_eq!(d[0], "killed");
        assert_eq!(d[1], "exit:1");
    }

    #[test]
    fn reap_all_escalates_past_the_deadline() {
        let mut set = RankSet::new(vec![spawn_sleeper("30")]);
        let t0 = Instant::now();
        set.reap_all(Duration::from_millis(50)).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(10), "reap must be bounded");
        assert_eq!(set.dispositions(), vec!["killed".to_string()]);
    }
}
