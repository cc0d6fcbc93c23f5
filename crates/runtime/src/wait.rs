//! Spin-then-park: the one way a thread of the threads runtime waits.
//! A waiter first runs the bounded adaptive spin ([`spin_wait`]) and
//! then sleeps on a futex [`Gate`] until its condition holds. Worker
//! dispatch, the master's join and the team barrier each own one gate.
//!
//! Spinning is adaptive: `spin_loop` hints with exponential backoff,
//! degrading to `yield_now` once the backoff saturates so an
//! oversubscribed machine (more ranks than cores) still makes progress;
//! a single-CPU host skips the `spin_loop` phase outright and yields on
//! every probe, because a pause can never observe progress there.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::procs::sys::{futex_wait, futex_wake_all};

/// Default spin budget in microseconds before a waiter sleeps on its
/// futex gate. Sized so that back-to-back regions (the NPB hot path: a
/// kernel dispatches thousands of regions with only short serial gaps
/// between them) keep every rank on the lock-free path, while a team
/// idling between benchmarks sleeps within a scheduler quantum.
pub const DEFAULT_SPIN_US: u64 = 100;

/// Spin backoff saturation: after this many `spin_loop` hints per probe
/// the waiter starts yielding its timeslice instead, so spinning stays
/// sound when ranks outnumber cores (`yield_now` lets the awaited thread
/// run; pure `spin_loop` would burn the whole quantum).
const MAX_SPIN_BACKOFF: u32 = 64;

/// True when the host exposes exactly one logical CPU. Cached: the
/// answer decides the spin strategy on every probe of the hot path.
fn single_cpu() -> bool {
    static ONE: OnceLock<bool> = OnceLock::new();
    *ONE.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() == 1))
}

/// Bounded adaptive spin: probe `ready` until it yields a value or the
/// budget expires (`None`). Backoff doubles the `spin_loop` hints per
/// probe up to [`MAX_SPIN_BACKOFF`], then degrades to `yield_now` so an
/// oversubscribed machine still schedules the thread being awaited. On a
/// single-CPU host the `spin_loop` phase is skipped entirely — the
/// awaited thread cannot run while we pause, so every hint is pure
/// wasted latency (and under a hypervisor with pause-loop exiting, a
/// trap) — and each probe yields the timeslice instead.
fn spin_wait<T>(spin_us: u64, mut ready: impl FnMut() -> Option<T>) -> Option<T> {
    if let Some(v) = ready() {
        return Some(v);
    }
    if spin_us == 0 {
        return None;
    }
    let deadline = Instant::now() + Duration::from_micros(spin_us);
    let mut backoff = if single_cpu() { MAX_SPIN_BACKOFF + 1 } else { 1 };
    loop {
        if backoff <= MAX_SPIN_BACKOFF {
            for _ in 0..backoff {
                std::hint::spin_loop();
            }
            backoff <<= 1;
        } else {
            std::thread::yield_now();
        }
        if let Some(v) = ready() {
            return Some(v);
        }
        if Instant::now() >= deadline {
            return None;
        }
    }
}

/// Where waiters sleep once their spin budget is spent: a futex word
/// and a count of the threads that may be asleep on it. A [`Gate::open`]
/// that finds no sleeper is one load — no read-modify-write, no syscall —
/// so the spin fast path costs what it did before the gate existed.
///
/// # No lost wakeups
///
/// The waiter's condition lives outside the gate; the gate only orders
/// the sleep against the store that makes the condition true.
///
/// * A sleeper increments `sleepers` (`SeqCst`), reads `seq` (`SeqCst`),
///   probes its condition with `SeqCst` loads, and then futex-waits on
///   the `seq` it read.
/// * An opener stores its condition (`SeqCst`) and then reads `sleepers`
///   (`SeqCst`); only if that is nonzero does it bump `seq` and wake.
///
/// In the single `SeqCst` order, if the opener read `sleepers` before
/// the sleeper's increment, the sleeper's probe comes after the
/// condition store and sees it. Otherwise the opener bumps `seq`. Then
/// either the sleeper's read of `seq` saw the bump, which it
/// synchronizes with, so its probe sees the condition; or it read the
/// old value, and the kernel either finds `seq` moved and returns at
/// once or has already queued the sleeper, which the wake finds.
pub(crate) struct Gate {
    /// The futex word; its value means nothing but "changed".
    seq: AtomicU32,
    /// Threads that have registered to sleep and not yet returned.
    sleepers: AtomicU32,
}

impl Gate {
    pub(crate) const fn new() -> Gate {
        Gate { seq: AtomicU32::new(0), sleepers: AtomicU32::new(0) }
    }

    /// Wake every thread asleep on the gate. Call it after the `SeqCst`
    /// store that makes their condition true.
    pub(crate) fn open(&self) {
        if self.sleepers.load(Ordering::SeqCst) != 0 {
            self.seq.fetch_add(1, Ordering::SeqCst);
            futex_wake_all(&self.seq);
        }
    }

    /// Wait until `probe` yields a value: spin for up to `spin_us`
    /// (never past `deadline`), call `on_park` once if the spin did not
    /// succeed, then sleep on the gate, re-probing after every wake.
    /// Returns `None` once `deadline` has passed; without a deadline it
    /// returns only a value. `spin_us = 0` probes once and then sleeps.
    /// `probe` must read the condition with `SeqCst` loads (see the
    /// type's docs).
    pub(crate) fn wait<T>(
        &self,
        spin_us: u64,
        deadline: Option<Instant>,
        mut probe: impl FnMut() -> Option<T>,
        on_park: impl FnOnce(),
    ) -> Option<T> {
        let spin_us = match deadline {
            Some(d) => spin_us.min(d.saturating_duration_since(Instant::now()).as_micros() as u64),
            None => spin_us,
        };
        if let Some(v) = spin_wait(spin_us, &mut probe) {
            return Some(v);
        }
        on_park();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let got = loop {
            let seen = self.seq.load(Ordering::SeqCst);
            if let Some(v) = probe() {
                break Some(v);
            }
            let timeout = match deadline {
                None => None,
                Some(d) => match d.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => break None,
                },
            };
            futex_wait(&self.seq, seen, timeout);
        };
        // Relaxed: a stale nonzero count costs an opener one needless
        // wake, never a missed one.
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
        got
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Arc};

    /// Run `f` on its own thread and fail, instead of hanging the suite,
    /// if it has not finished within `limit` (a lost wakeup).
    pub(crate) fn guarded<R: Send + 'static>(
        limit: Duration,
        f: impl FnOnce() -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(f()).expect("the test is still waiting"));
        rx.recv_timeout(limit).expect("the body panicked, or a sleeper was never woken")
    }

    #[test]
    fn spin_wait_honours_a_zero_budget() {
        // spin_us = 0 must probe exactly once and never busy-wait.
        let mut calls = 0;
        let r: Option<()> = spin_wait(0, || {
            calls += 1;
            None
        });
        assert!(r.is_none());
        assert_eq!(calls, 1);
        // Through the gate: one probe, then straight to sleep, where
        // only a wake (here the deadline) probes again.
        let gate = Gate::new();
        let (probes, probes_at_park) = (Cell::new(0), Cell::new(None));
        let deadline = Instant::now() + Duration::from_millis(20);
        let r: Option<()> = gate.wait(
            0,
            Some(deadline),
            || {
                probes.set(probes.get() + 1);
                None
            },
            || probes_at_park.set(Some(probes.get())),
        );
        assert!(r.is_none());
        assert_eq!(probes_at_park.get(), Some(1), "one probe before sleeping");
        let probes = probes.get();
        assert!(probes < 10, "{probes} probes in 20 ms: the wait spun instead of sleeping");
    }

    /// An `open` that lands after the sleeper registered and read `seq`,
    /// but before its futex call, still releases it: the probe that
    /// precedes the futex call here runs the whole opener and then
    /// reports the condition false, as a read taken just before the
    /// opener's store would.
    #[test]
    fn an_open_between_registration_and_the_futex_call_is_not_lost() {
        guarded(Duration::from_secs(30), || {
            let gate = Arc::new(Gate::new());
            let ready = Arc::new(AtomicBool::new(false));
            let mut probes = 0;
            let r = gate.wait(
                0,
                None,
                || {
                    probes += 1;
                    if probes == 2 {
                        // First probe after registration.
                        let (gate, ready) = (Arc::clone(&gate), Arc::clone(&ready));
                        std::thread::spawn(move || {
                            ready.store(true, Ordering::SeqCst);
                            gate.open();
                        })
                        .join()
                        .expect("opener thread");
                        return None;
                    }
                    ready.load(Ordering::SeqCst).then_some(probes)
                },
                || {},
            );
            assert_eq!(r, Some(3), "woken and re-probed once");
        });
    }

    /// A deadline with no `open` returns `None`: never early, and never
    /// more than one scheduler tick (10 ms at HZ=100) late — the futex
    /// timeout is armed for exactly the time left. The best of five
    /// tries is checked, so one slow spell on a loaded test host cannot
    /// fail it. A spin budget far past the deadline is clamped to it.
    #[test]
    fn a_deadline_without_an_open_returns_none_within_a_tick() {
        const TICK: Duration = Duration::from_millis(10);
        let gate = Gate::new();
        for spin_us in [0, 10_000_000] {
            let mut best = Duration::MAX;
            for _ in 0..5 {
                let wait = Duration::from_millis(20);
                let t0 = Instant::now();
                let r: Option<()> = gate.wait(spin_us, Some(t0 + wait), || None, || {});
                let took = t0.elapsed();
                assert!(r.is_none());
                assert!(took >= wait, "returned after {took:?}, before its deadline");
                best = best.min(took - wait);
            }
            assert!(best < TICK, "slept {best:?} past the deadline at spin_us={spin_us}");
        }
    }

    #[test]
    fn one_open_releases_every_sleeper() {
        guarded(Duration::from_secs(30), || {
            let gate = Arc::new(Gate::new());
            let ready = Arc::new(AtomicBool::new(false));
            let sleepers: Vec<_> = (0..4)
                .map(|_| {
                    let (gate, ready) = (Arc::clone(&gate), Arc::clone(&ready));
                    std::thread::spawn(move || {
                        gate.wait(0, None, || ready.load(Ordering::SeqCst).then_some(()), || {})
                    })
                })
                .collect();
            while gate.sleepers.load(Ordering::SeqCst) < 4 {
                std::thread::yield_now();
            }
            ready.store(true, Ordering::SeqCst);
            gate.open();
            for s in sleepers {
                assert_eq!(s.join().expect("sleeper thread"), Some(()));
            }
        });
    }
}
