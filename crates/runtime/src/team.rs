//! The master–worker team: persistent threads dispatched per parallel
//! region, exactly the state machine of the paper's §4 — hardened with a
//! structured failure model (panic-safe barriers, a watchdog timeout on
//! the master's wait, and worker respawn) so one dying or stalling worker
//! cannot wedge the whole suite.
//!
//! # Hybrid spin-then-park synchronization
//!
//! The paper attributes much of Java's scalability gap to the
//! `wait()`/`notify()` round-trips around every parallel region. The
//! seed of this crate reproduced that cost literally: dispatch took a
//! mutex and `notify_all`, every barrier crossing parked on a condvar.
//! Both hot paths are now lock-free:
//!
//! * **Dispatch** is epoch-based: the master writes the region body into
//!   a slot, bumps an atomic *region epoch*, and workers observe the new
//!   epoch with acquire loads. The mutex + condvar pair survives only as
//!   the fallback park path for workers whose bounded spin budget
//!   expires between regions.
//! * **Barriers** are sense-reversing (see [`crate::par`]): arrival is
//!   one `fetch_add`; the last rank resets the count and advances an
//!   atomic generation word, which waiting ranks spin on before falling
//!   back to the condvar.
//! * **Completion** is a per-rank cache-padded *done-epoch* word (read by
//!   the watchdog without any lock) plus one shared countdown; the master
//!   spins on the countdown before parking.
//!
//! The spin budget is `NPB_SPIN_US` microseconds (or
//! [`Team::set_spin_us`]); `0` forces the pure park path, which keeps the
//! paper's original wait/notify behavior reachable and testable (the
//! adaptive spin itself is [`crate::spin`]). Every waiter re-checks its
//! wake condition under the park lock before sleeping, and every waker
//! only takes that lock when a `SeqCst` parked-counter says someone is
//! actually parked — the lock-free fast path pays no lock round-trip.
//!
//! # One team, one width, for life
//!
//! A [`Team`] owns one `Inner` from [`Team::new`] to drop: its width and
//! identity never change. A failed region heals in place (dead worker
//! threads are respawned at the same rank); running *narrower* after
//! failures is the suite supervisor's process-level ladder, not the
//! runtime's.

use std::cell::{Cell, UnsafeCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use npb_core::trace::{self, SpanKind, TraceSession};

use crate::error::{BarrierPoisoned, InjectedFault, RegionError};
use crate::par::{Barrier, Par};
use crate::partials::CachePadded;
use crate::sched::{self, Sched};
use crate::spin::{region_timeout_ms_from_env, spin_us_from_env, spin_wait};

/// Process exit status used by the safe watchdog ([`Team::set_region_timeout`])
/// when a region times out. Defined in [`npb_core::exit`] (the one
/// exit-code contract module); re-exported here because the watchdog is
/// where the code is produced.
pub use npb_core::exit::WATCHDOG_EXIT_CODE;

pub(crate) const FAULT_PANIC: u8 = 1;
pub(crate) const FAULT_DELAY: u8 = 2;
pub(crate) const FAULT_HANG: u8 = 3;

/// Pack a fault kind and its victim rank into one word (kind in bits
/// 0..8, victim in bits 8..64) so workers read and clear both with a
/// single atomic operation — the pairing can never tear.
const fn pack_fault(kind: u8, victim: usize) -> u64 {
    ((victim as u64) << 8) | kind as u64
}

thread_local! {
    /// `Arc::as_ptr` address of the [`Inner`] this thread serves as a
    /// worker (0 on every other thread). `try_exec` uses it to detect a
    /// region body calling back into its own team — which would deadlock
    /// on the workers lock the master holds for the whole region.
    static WORKER_OF: Cell<usize> = const { Cell::new(0) };
}

/// Erased pointer to the current region's body.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee outlives the region: the master blocks in
// `try_exec` until every worker has finished running it (or the watchdog
// terminates the process with the frame still live).
unsafe impl Send for TaskPtr {}

/// What a worker's dispatch wait resolved to.
enum Dispatch {
    /// A new region epoch to execute.
    Region(u64),
    /// The team is shutting down; the worker thread exits.
    Shutdown,
}

/// Everything the master and the workers of one team share. Only the
/// fields [`Par`] reads are visible outside this module; the dispatch
/// words (and the `task` slot the `unsafe` code relies on) stay private.
pub(crate) struct Inner {
    /// Team width: fixed for the team's life.
    pub(crate) n: usize,
    /// Region epoch: the master publishes a region by writing [`Inner::task`]
    /// and then bumping this word (`SeqCst`); workers observe the bump
    /// with acquire loads. Replaces the seed's lock-and-`notify_all`
    /// dispatch on the fast path.
    region_epoch: AtomicU64,
    /// Set once, on team shutdown; observed by the same loads that watch
    /// [`Inner::region_epoch`], so an idle drop never takes the dispatch
    /// lock unless a worker is actually parked.
    shutdown: AtomicBool,
    /// The current region's body. Written by the master strictly before
    /// the `region_epoch` bump that publishes it, and cleared only after
    /// every rank has completed — so the epoch's release/acquire edge
    /// orders every access (see the `Sync` impl below).
    task: UnsafeCell<Option<TaskPtr>>,
    /// Ranks that have not yet finished the current region. The master
    /// spins on this reaching zero before parking on `done_cv`.
    remaining: AtomicUsize,
    /// Per-rank completion epochs, cache-padded so rank completions never
    /// false-share: rank `t` stores the region epoch it finished. The
    /// watchdog computes stuck ranks from these without any lock.
    done_epochs: Vec<CachePadded<AtomicU64>>,
    /// Number of workers parked on `work_cv` (maintained under `park`,
    /// readable without it). The master only takes the park lock to
    /// notify when this is nonzero.
    parked_workers: AtomicUsize,
    /// 1 while the master is parked on `done_cv`; the last-finishing rank
    /// only takes the park lock to notify when set.
    master_parked: AtomicUsize,
    /// Park-path lock for both condvars below. Carries no state of its
    /// own — all dispatch state lives in the atomics above.
    park: Mutex<()>,
    /// Workers park here when their spin budget expires between regions —
    /// the paper's `wait()`.
    work_cv: Condvar,
    /// The master parks here while workers run — the paper's master
    /// "controls the synchronization of the workers".
    done_cv: Condvar,
    /// Ranks whose body panicked this region (cold path only).
    panicked: Mutex<Vec<usize>>,
    /// The [`Par::barrier`] words.
    pub(crate) barrier: Barrier,
    /// Spin budget (µs) for every waiter on this team; 0 = pure park.
    pub(crate) spin_us: AtomicU64,
    /// Loop scheduling policy ([`Sched::as_u8`]) for
    /// [`Par::for_chunks`] / [`Par::ordered_split`]; [`Par::range`] is
    /// always the static partition (reductions must stay rank-ordered).
    sched: AtomicU8,
    /// Guided claim-counter ring, cache-padded: scheduled-loop
    /// invocation `seq` claims chunks from slot `seq % GUIDED_RING`.
    /// Reset (with `sched_seq`) by the master at region dispatch, while
    /// workers are provably quiescent.
    pub(crate) sched_ring: Box<[CachePadded<AtomicU64>]>,
    /// Per-rank scheduled-loop invocation counters. SPMD region bodies
    /// keep them mutually equal; the dispatch reset re-equalizes them
    /// after a poisoned region cut some ranks short.
    pub(crate) sched_seq: Vec<CachePadded<AtomicU64>>,
    /// Feedback timing histories, keyed by loop site + extent.
    pub(crate) sched_table: sched::SchedTable,
    /// Feedback history generation: bumped by team healing and by
    /// [`Team::reset_sched_history`]. Stamps from older generations fail
    /// every read-side consistency check, so stale or torn timings can
    /// only degrade to the static split — identically on every rank —
    /// never to inconsistent boundaries.
    pub(crate) sched_gen: AtomicU64,
    /// One-shot fault-injection slot (see [`crate::FaultPlan`]): kind and
    /// victim packed by [`pack_fault`], 0 when disarmed. Armed with a
    /// Release store so the Acquire CAS in [`Inner::take_fault`] also
    /// makes `fault_delay_ms` visible to the winning rank.
    fault: AtomicU64,
    fault_delay_ms: AtomicU64,
    /// [`npb_core::trace::timed_epoch`] snapshot taken when the fault
    /// was armed. A barrier delay holds its fire while the epoch still
    /// equals this — i.e. through untimed warm-up — so the injected
    /// slowdown lands inside the benchmark's measured window (where the
    /// campaign regression gate can see it), not before it.
    fault_arm_epoch: AtomicU64,
    /// The `npb-trace` session workers record spans into, when tracing
    /// is on. Read (one uncontended lock) at most once per region per
    /// thread, and only after the global `trace::enabled()` bool says
    /// tracing is live — the disabled hot path never touches it.
    trace: Mutex<Option<Arc<TraceSession>>>,
}

// SAFETY: `task` is the only non-Sync field. The master writes it
// strictly before the `SeqCst` bump of `region_epoch` that publishes the
// region, and clears it only after `remaining` has drained to zero (a
// release/acquire edge each rank participates in), so no worker read can
// race a master write.
unsafe impl Sync for Inner {}

/// Lock recovering from std mutex poisoning: our own explicit `poisoned`
/// flags carry the failure semantics, so a panicked lock holder must not
/// wedge every later region.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Inner {
    /// The team's current loop scheduling policy. Relaxed: the master
    /// only changes it between regions, where the dispatch publication
    /// already orders it for every worker.
    #[inline]
    pub(crate) fn sched_policy(&self) -> Sched {
        Sched::from_u8(self.sched.load(Ordering::Relaxed))
    }

    /// Reset the guided claim ring and the per-rank invocation counters
    /// for a new region. Master-only, called from `try_exec` inside the
    /// quiescent window (`remaining == 0` proved every worker idle).
    fn reset_sched_dispatch(&self) {
        for slot in self.sched_ring.iter() {
            slot.store(sched::GUIDED_RESET, Ordering::Relaxed);
        }
        for seq in &self.sched_seq {
            seq.store(0, Ordering::Relaxed);
        }
    }

    /// Consume the armed fault if it targets `(kind, tid)`.
    fn take_fault(&self, kind: u8, tid: usize) -> bool {
        let want = pack_fault(kind, tid);
        // Cheap fast path for the common no-fault case.
        if self.fault.load(Ordering::Relaxed) != want {
            return false;
        }
        self.fault.compare_exchange(want, 0, Ordering::Acquire, Ordering::Relaxed).is_ok()
    }

    /// Claim the one-shot barrier delay, but only once the timed
    /// section has begun (`trace::reset` advances the epoch past the
    /// arm-time snapshot). Every benchmark's untimed warm-up crosses
    /// barriers too; claiming there would spend the fault where the
    /// benchmark clock — and the campaign regression gate reading it —
    /// cannot see the slowdown. The epoch check happens *before* the
    /// CAS so a warm-up crossing leaves the fault armed, not consumed.
    pub(crate) fn take_delay_fault(&self, tid: usize) -> Option<Duration> {
        let want = pack_fault(FAULT_DELAY, tid);
        if self.fault.load(Ordering::Relaxed) != want {
            return None;
        }
        if npb_core::trace::timed_epoch() == self.fault_arm_epoch.load(Ordering::Relaxed) {
            return None; // still in untimed warm-up — hold fire
        }
        self.fault
            .compare_exchange(want, 0, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
            .then(|| Duration::from_millis(self.fault_delay_ms.load(Ordering::Relaxed)))
    }

    /// Signal shutdown through the worker wake path: the flag is seen by
    /// spinning workers without any lock, and the dispatch lock is taken
    /// only if some worker is actually parked — so dropping an idle,
    /// still-spinning team never pays the lock round-trip.
    fn signal_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if self.parked_workers.load(Ordering::SeqCst) != 0 {
            let _g = lock(&self.park);
            self.work_cv.notify_all();
        }
    }

    /// Wait (spin, then park) for a region epoch different from `seen`,
    /// or shutdown.
    fn wait_for_dispatch(&self, seen: u64) -> Dispatch {
        let probe = || {
            if self.shutdown.load(Ordering::Acquire) {
                return Some(Dispatch::Shutdown);
            }
            let e = self.region_epoch.load(Ordering::Acquire);
            (e != seen).then_some(Dispatch::Region(e))
        };
        if let Some(d) = spin_wait(self.spin_us.load(Ordering::Relaxed), probe) {
            return d;
        }
        // Park path. Publishing `parked_workers` with SeqCst and then
        // re-probing (also SeqCst) pairs with the master's SeqCst epoch
        // bump followed by its SeqCst read of `parked_workers`: one side
        // always sees the other, so the wake cannot be missed.
        let mut g = lock(&self.park);
        self.parked_workers.fetch_add(1, Ordering::SeqCst);
        let d = loop {
            if self.shutdown.load(Ordering::SeqCst) {
                break Dispatch::Shutdown;
            }
            let e = self.region_epoch.load(Ordering::SeqCst);
            if e != seen {
                break Dispatch::Region(e);
            }
            g = self.work_cv.wait(g).unwrap_or_else(|e| e.into_inner());
        };
        self.parked_workers.fetch_sub(1, Ordering::Relaxed);
        drop(g);
        d
    }
}

/// A persistent team of worker threads.
///
/// Workers are spawned once and then switched between blocked and
/// runnable states per parallel region, as the paper's Java port does
/// with `wait()`/`notify()` — except that both dispatch and barriers take
/// a lock-free spin fast path first (see the module docs), with the
/// paper's park behavior as the fallback and as the explicit
/// `NPB_SPIN_US=0` configuration.
///
/// # Failure model
///
/// A region body that panics no longer wedges the suite: the failing
/// worker poisons the barrier (releasing siblings blocked in
/// [`Par::barrier`], which unwind cleanly), the region drains, and
/// [`Team::try_exec`] reports [`RegionError::Panicked`]. A configurable
/// watchdog ([`Team::set_region_timeout`], or `NPB_REGION_TIMEOUT_MS`)
/// bounds the master's wait and names *which* ranks never arrived before
/// terminating the process (stuck ranks cannot be killed or safely
/// abandoned). After a panicked region the team heals in place — same
/// width, same settings — so the next region runs normally.
pub struct Team {
    /// Everything the master and the workers share, for the team's
    /// whole life (see the module docs).
    inner: Arc<Inner>,
    /// The workers' join handles, by rank. The master holds this lock
    /// for the whole of every region, so it also serializes regions
    /// dispatched from different threads, and the setters that must
    /// only take effect between regions.
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Watchdog for the master's region wait, in ms; 0 = disabled.
    timeout_ms: AtomicU64,
    /// Times the feedback timing history was invalidated (team healing
    /// after a poisoned region, plus explicit
    /// [`Team::reset_sched_history`] calls — the SDC rollback hook).
    sched_resets: AtomicU64,
}

fn spawn_worker(inner: &Arc<Inner>, tid: usize, epoch: u64) -> JoinHandle<()> {
    let inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name(format!("npb-worker-{tid}"))
        .spawn(move || {
            // A worker serves exactly one team for its whole life; mark
            // the thread so try_exec can recognize its own workers.
            WORKER_OF.with(|w| w.set(Arc::as_ptr(&inner) as usize));
            worker_loop(&inner, tid, epoch)
        })
        .expect("failed to spawn worker thread")
}

impl Team {
    /// Spawn a team of `n` persistent workers (`n >= 1`).
    ///
    /// If `NPB_REGION_TIMEOUT_MS` is set to a positive integer, the
    /// (safe, process-terminating) watchdog starts enabled at that value.
    /// If `NPB_SPIN_US` is set, it overrides the default spin budget
    /// ([`crate::DEFAULT_SPIN_US`] µs; `0` = pure park path). A malformed
    /// value of either leaves the default in place and warns once on
    /// stderr naming the bad value.
    pub fn new(n: usize) -> Team {
        assert!(n >= 1, "a team needs at least one worker");
        let inner = Arc::new(Inner {
            n,
            region_epoch: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            task: UnsafeCell::new(None),
            remaining: AtomicUsize::new(0),
            done_epochs: (0..n).map(|_| CachePadded::new(AtomicU64::new(0))).collect(),
            parked_workers: AtomicUsize::new(0),
            master_parked: AtomicUsize::new(0),
            park: Mutex::new(()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            panicked: Mutex::new(Vec::new()),
            barrier: Barrier::new(),
            spin_us: AtomicU64::new(spin_us_from_env()),
            sched: AtomicU8::new(sched::sched_from_env().as_u8()),
            sched_ring: (0..sched::GUIDED_RING)
                .map(|_| CachePadded::new(AtomicU64::new(sched::GUIDED_RESET)))
                .collect(),
            sched_seq: (0..n).map(|_| CachePadded::new(AtomicU64::new(0))).collect(),
            sched_table: sched::SchedTable::new(),
            // Generation 0 is "never valid" (zero-initialized stamps would
            // match it); histories start at 1.
            sched_gen: AtomicU64::new(1),
            fault: AtomicU64::new(0),
            fault_delay_ms: AtomicU64::new(0),
            fault_arm_epoch: AtomicU64::new(0),
            trace: Mutex::new(None),
        });
        let workers = (0..n).map(|tid| spawn_worker(&inner, tid, 0)).collect();
        Team {
            inner,
            workers: Mutex::new(workers),
            timeout_ms: AtomicU64::new(region_timeout_ms_from_env()),
            sched_resets: AtomicU64::new(0),
        }
    }

    /// Number of workers: fixed at [`Team::new`] for the team's life.
    pub fn size(&self) -> usize {
        self.inner.n
    }

    /// Set the spin budget, in microseconds, that every waiter on this
    /// team (workers awaiting dispatch, barrier waiters, the master
    /// awaiting completion) burns before parking on its condvar.
    ///
    /// `0` disables spinning entirely — the pure park path, which is the
    /// paper's Java `wait()`/`notify()` model and the behavior of this
    /// runtime before the hybrid fast path existed. The setting survives
    /// team healing.
    pub fn set_spin_us(&self, us: u64) {
        let _between_regions = lock(&self.workers);
        self.inner.spin_us.store(us, Ordering::Relaxed);
    }

    /// The team's current spin budget in microseconds.
    pub fn spin_us(&self) -> u64 {
        self.inner.spin_us.load(Ordering::Relaxed)
    }

    /// Set the loop scheduling policy applied by [`Par::for_chunks`] and
    /// [`Par::ordered_split`] (`--sched` / `NPB_SCHED`; the default is
    /// [`Sched::Static`], the paper's model, bit-for-bit). Reductions
    /// and every [`Par::range`] loop stay on the static partition
    /// regardless, which is what keeps verification bitwise. The setting
    /// survives team healing.
    pub fn set_sched(&self, policy: Sched) {
        let _between_regions = lock(&self.workers);
        self.inner.sched.store(policy.as_u8(), Ordering::Relaxed);
    }

    /// The team's current loop scheduling policy.
    pub fn sched(&self) -> Sched {
        self.inner.sched_policy()
    }

    /// Invalidate every persisted feedback timing history by bumping the
    /// history generation: the next visit of every scheduled loop falls
    /// back to the static split and re-measures from scratch.
    ///
    /// This is the SDC-rollback hook — a rollback replays iterations, so
    /// timings recorded by the discarded execution must not steer the
    /// replay's partitioning — and it is also applied automatically when
    /// the team heals after a poisoned region (where per-rank visit
    /// counts may have diverged).
    pub fn reset_sched_history(&self) {
        let _between_regions = lock(&self.workers);
        self.bump_sched_gen();
    }

    /// Advance the feedback history generation (caller holds the
    /// `workers` lock, so no region is mid-visit) and count the reset.
    fn bump_sched_gen(&self) {
        self.inner.sched_gen.fetch_add(1, Ordering::Relaxed);
        self.sched_resets.fetch_add(1, Ordering::Relaxed);
    }

    /// Times the feedback history was invalidated (healing + explicit).
    pub fn sched_resets(&self) -> u64 {
        self.sched_resets.load(Ordering::Relaxed)
    }

    /// Attach (or detach, with `None`) an `npb-trace` session: while set
    /// *and* the global `trace::enabled()` switch is on, workers record
    /// dispatch waits, region bodies and barrier spin/park splits on
    /// their per-rank lanes. The handle survives team healing. Costs
    /// nothing per region when tracing is disabled.
    pub fn set_trace(&self, session: Option<Arc<TraceSession>>) {
        let _between_regions = lock(&self.workers);
        *lock(&self.inner.trace) = session;
    }

    /// Set (or disable, with `None`) the watchdog on the master's wait
    /// for region completion.
    ///
    /// When the watchdog fires it prints which ranks never arrived and
    /// **terminates the process** with [`WATCHDOG_EXIT_CODE`]. It cannot
    /// do less and stay sound: a stuck rank cannot be killed, and the
    /// region body it may still be executing borrows data from
    /// `try_exec`'s caller — returning would let a merely-slow rank
    /// resume over freed memory. Terminating keeps every caller frame
    /// alive for as long as any straggler can run, and still turns a
    /// silent hang into a fast, diagnosable failure.
    pub fn set_region_timeout(&self, timeout: Option<Duration>) {
        let ms = timeout.map_or(0, |d| d.as_millis().max(1) as u64);
        self.timeout_ms.store(ms, Ordering::Relaxed);
    }

    /// Arm a one-shot injected fault (panic or barrier delay) on this
    /// team; the victim rank is chosen deterministically by the plan's
    /// seed. NaN plans are armed process-globally via
    /// [`crate::FaultPlan::arm`], not here.
    pub fn arm_fault(&self, plan: &crate::FaultPlan) {
        let _between_regions = lock(&self.workers);
        let inner = &self.inner;
        let kind = match plan.kind {
            crate::FaultKind::Panic => FAULT_PANIC,
            crate::FaultKind::Delay => FAULT_DELAY,
            crate::FaultKind::Hang => FAULT_HANG,
            // Armed through npb-core's thread-local hooks, not a worker.
            crate::FaultKind::Nan | crate::FaultKind::BitFlip => return,
        };
        inner.fault_delay_ms.store(plan.delay_ms(), Ordering::Relaxed);
        // Snapshot the timed-section epoch: a barrier delay defers
        // until the epoch moves past this (see take_delay_fault).
        inner.fault_arm_epoch.store(npb_core::trace::timed_epoch(), Ordering::Relaxed);
        // Kind and victim publish as one Release-stored word, so a
        // worker can never pair a new kind with a stale victim (and the
        // Acquire CAS in take_fault makes the delay store visible too).
        inner.fault.store(pack_fault(kind, plan.victim(inner.n)), Ordering::Release);
    }

    /// Run `f` on every worker as one parallel region.
    ///
    /// The master publishes the task by bumping the region epoch, wakes
    /// any parked workers, and blocks (spin, then park) until all have
    /// finished — the paper's master–worker protocol with the lock-free
    /// fast path described in the module docs. Panicking wrapper over
    /// [`Team::try_exec`]: a failed region panics here with the
    /// [`RegionError`] as payload.
    pub fn exec<F>(&self, f: F)
    where
        F: Fn(Par<'_>) + Sync,
    {
        if let Err(e) = self.try_exec(f) {
            std::panic::panic_any(e);
        }
    }

    /// Run `f` on every worker as one parallel region, reporting failure
    /// as a structured [`RegionError`] instead of panicking.
    ///
    /// After an error the team has already healed itself in place (same
    /// width, dead worker threads respawned) and can run further regions.
    ///
    /// Distinct threads may share a `&Team`; their regions serialize on
    /// an internal lock. Calling back into `exec`/`try_exec` from
    /// *inside* a region body of the same team is reentrancy and
    /// reports [`RegionError::Poisoned`].
    pub fn try_exec<F>(&self, f: F) -> Result<(), RegionError>
    where
        F: Fn(Par<'_>) + Sync,
    {
        let inner: &Inner = &self.inner;
        // Reentrancy guard: a region body runs on one of this team's own
        // worker threads, and the master holds the workers lock for the
        // whole region — calling back in would deadlock, so report it
        // by thread identity instead. Other threads fall through and
        // legitimately serialize on the lock.
        if WORKER_OF.with(|w| w.get()) == inner as *const Inner as usize {
            return Err(RegionError::Poisoned);
        }
        let mut workers = lock(&self.workers);

        // No worker is active between regions, so the barrier and the
        // panic ledger reset race-free.
        inner.barrier.reset();
        lock(&inner.panicked).clear();
        // Same quiescent window: rewind the guided claim ring and the
        // per-rank invocation counters, so every rank enters this region
        // agreeing on slot 0 even if a poisoned region cut some short.
        // The static path pays nothing.
        if inner.sched_policy() != Sched::Static {
            inner.reset_sched_dispatch();
        }

        // Capture the trace session once per region (one uncontended
        // lock, and only when the global switch is on): every rank's
        // `Par` borrows this clone for barrier spans.
        let trace_session = if trace::enabled() { lock(&inner.trace).clone() } else { None };

        let wrapper: Box<dyn Fn(usize) + Sync + '_> = Box::new(move |tid| {
            if inner.take_fault(FAULT_PANIC, tid) {
                std::panic::panic_any(InjectedFault);
            }
            if inner.take_fault(FAULT_HANG, tid) {
                // Wedge this rank forever: the hang fault exists to
                // exercise the watchdog, which terminates the process.
                loop {
                    std::thread::park();
                }
            }
            f(Par::on_team(tid, inner, trace_session.as_deref()));
        });
        let obj: &(dyn Fn(usize) + Sync) = &*wrapper;
        // SAFETY: we erase the lifetime of `obj`; the master does not
        // release the box until no worker can still dereference it (the
        // watchdog exits the process rather than return early).
        let obj: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(obj) };

        if inner.remaining.load(Ordering::Acquire) != 0 {
            return Err(RegionError::Poisoned);
        }

        // Lock-free publication: write the task slot, then bump the
        // epoch. The SeqCst store both releases the task write to the
        // workers' acquire loads and orders against the parked-workers
        // read below (the Dekker handshake with a parking worker).
        // SAFETY: no worker reads the slot until the epoch bump below,
        // and `remaining == 0` proved the previous region fully drained.
        unsafe {
            *inner.task.get() = Some(TaskPtr(obj as *const _));
        }
        inner.remaining.store(inner.n, Ordering::Relaxed);
        let epoch = inner.region_epoch.load(Ordering::Relaxed).wrapping_add(1);
        inner.region_epoch.store(epoch, Ordering::SeqCst);
        if inner.parked_workers.load(Ordering::SeqCst) != 0 {
            // Taking the park lock before notifying closes the race with
            // a worker that re-checked the epoch and is entering wait().
            let _g = lock(&inner.park);
            inner.work_cv.notify_all();
        }

        // Await completion: spin (bounded by both the spin budget and
        // the watchdog deadline), then park on done_cv.
        let timeout_ms = self.timeout_ms.load(Ordering::Relaxed);
        let deadline = (timeout_ms > 0).then(|| Instant::now() + Duration::from_millis(timeout_ms));
        let spin_us = inner.spin_us.load(Ordering::Relaxed);
        let spin_us = match deadline {
            // Never spin past the watchdog deadline: the park loop owns
            // timeout handling.
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now()).as_micros() as u64;
                spin_us.min(left)
            }
            None => spin_us,
        };
        let done =
            spin_wait(spin_us, || (inner.remaining.load(Ordering::Acquire) == 0).then_some(()))
                .is_some();
        if !done {
            let mut g = lock(&inner.park);
            inner.master_parked.store(1, Ordering::SeqCst);
            while inner.remaining.load(Ordering::SeqCst) != 0 {
                match deadline {
                    None => g = inner.done_cv.wait(g).unwrap_or_else(|e| e.into_inner()),
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            drop(g);
                            self.watchdog_exit(timeout_ms, epoch);
                        }
                        let (g2, _) = inner
                            .done_cv
                            .wait_timeout(g, d - now)
                            .unwrap_or_else(|e| e.into_inner());
                        g = g2;
                    }
                }
            }
            inner.master_parked.store(0, Ordering::Relaxed);
        }

        // SAFETY: every rank completed (remaining drained to zero with
        // release stores our acquire load above observed), so no worker
        // can still read the slot.
        unsafe {
            *inner.task.get() = None;
        }
        let mut panicked = std::mem::take(&mut *lock(&inner.panicked));
        drop(wrapper);
        if panicked.is_empty() {
            return Ok(());
        }
        panicked.sort_unstable();
        self.heal(&mut workers);
        Err(RegionError::Panicked { tids: panicked })
    }

    /// The watchdog fired: name the ranks that have not finished region
    /// `epoch` and terminate the process. We cannot kill a stuck rank
    /// and we must not return while it may still run the region body
    /// (which borrows from `try_exec`'s caller's frames). Exiting pops
    /// no frame, so a merely-slow straggler never touches freed memory.
    fn watchdog_exit(&self, timeout_ms: u64, epoch: u64) -> ! {
        let stuck: Vec<usize> = (0..self.inner.n)
            .filter(|&t| self.inner.done_epochs[t].load(Ordering::Acquire) != epoch)
            .collect();
        eprintln!(
            "npb region watchdog: timeout after {timeout_ms} ms; \
             ranks {stuck:?} never arrived; terminating"
        );
        // Last chance to get the profile out: flush a truncated trace
        // dump so the hang is diagnosable post-mortem.
        trace::emergency_dump();
        std::process::exit(WATCHDOG_EXIT_CODE);
    }

    /// Restore the team after a panicked (fully drained) region.
    fn heal(&self, workers: &mut [JoinHandle<()>]) {
        // A poisoned region may have left per-rank feedback visit counts
        // unequal; bump the history generation so every rank rebases to
        // a consistent (static-fallback) state instead of reading torn
        // timings.
        self.bump_sched_gen();
        // Workers catch body panics and survive, so threads die only in
        // exotic cases (e.g. a panic payload that panics on drop);
        // respawn any that did so the team keeps its width.
        let epoch = self.inner.region_epoch.load(Ordering::Relaxed);
        for (tid, worker) in workers.iter_mut().enumerate() {
            if worker.is_finished() {
                *worker = spawn_worker(&self.inner, tid, epoch);
            }
        }
    }

    /// Run `f(tid)` on every worker and sum `f`'s returns in rank order.
    pub fn reduce_sum<F>(&self, f: F) -> f64
    where
        F: Fn(Par<'_>) -> f64 + Sync,
    {
        let partials = crate::Partials::new(self.size());
        self.exec(|p| {
            let v = f(p);
            partials.set(p.tid(), v);
        });
        partials.sum()
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        // Shutdown rides the worker wake path: spinning workers see the
        // flag without any lock, so dropping an idle team skips the
        // dispatch-lock round-trip entirely.
        self.inner.signal_shutdown();
        let workers = self.workers.get_mut().unwrap_or_else(|e| e.into_inner());
        for h in workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner, tid: usize, initial_epoch: u64) {
    let mut seen = initial_epoch;
    loop {
        // Tracing is one Relaxed bool when off; when on, stamp the wait
        // start so the dispatch latency becomes a span.
        let wait_t0 = trace::enabled().then(Instant::now);
        // Blocked state: spin on the region epoch, then park.
        let epoch = match inner.wait_for_dispatch(seen) {
            Dispatch::Shutdown => return,
            Dispatch::Region(e) => e,
        };
        seen = epoch;
        // One uncontended lock per region, and only while tracing is on.
        let session = if trace::enabled() { lock(&inner.trace).clone() } else { None };
        if let (Some(s), Some(t0)) = (session.as_deref(), wait_t0) {
            // The master enters the phase scope before dispatching, so
            // `current_region` names the region this wait led into.
            let region = s.current_region();
            // SAFETY: this thread is the sole writer of rank `tid`'s lane.
            unsafe { s.record(tid, region, SpanKind::Dispatch, s.ns_since_epoch(t0), s.now()) };
        }
        // SAFETY: the task slot was written before the epoch bump our
        // acquire load observed, and is not cleared until this rank
        // reports completion below.
        let task = unsafe { *inner.task.get() }.expect("dispatched without a task");
        // Runnable state: execute the region body.
        let body = session.as_deref().map(|s| (s.current_region(), s.now()));
        let res = catch_unwind(AssertUnwindSafe(|| {
            (unsafe { &*task.0 })(tid);
        }));
        if let (Some(s), Some((region, t0))) = (session.as_deref(), body) {
            // SAFETY: rank-owned lane, as above.
            unsafe {
                s.record(tid, region, SpanKind::Compute, t0, s.now());
                if res.is_err() {
                    // Partial spans stay in the lane; mark them so the
                    // profile says this rank's region unwound.
                    s.mark_poisoned(tid);
                }
            }
        }
        let primary_panic = match &res {
            Ok(()) => false,
            // Collateral unwind out of a poisoned barrier: this rank is a
            // casualty of a sibling's panic, not a fault origin.
            Err(payload) => !payload.is::<BarrierPoisoned>(),
        };
        if res.is_err() {
            // Poison the barrier so siblings in it — spinning or parked —
            // unwind instead of waiting forever for this rank.
            inner.barrier.poison();
        }
        if primary_panic {
            lock(&inner.panicked).push(tid);
        }
        // Completion: publish this rank's done epoch for the watchdog,
        // then count down; the last rank wakes the master only if it is
        // actually parked (SeqCst pairs with the master's parked store).
        inner.done_epochs[tid].store(epoch, Ordering::Release);
        if inner.remaining.fetch_sub(1, Ordering::SeqCst) == 1
            && inner.master_parked.load(Ordering::SeqCst) != 0
        {
            let _g = lock(&inner.park);
            inner.done_cv.notify_all();
        }
    }
}

/// Run `f` either serially on the calling thread (`team == None`) or as a
/// parallel region on the team.
///
/// This is the single entry point kernels use, so "Serial" and
/// "`n` threads" rows of the paper's tables execute the *same* numerical
/// code.
pub fn run_par<F>(team: Option<&Team>, f: F)
where
    F: Fn(Par<'_>) + Sync,
{
    match team {
        None => f(Par::serial()),
        Some(t) => t.exec(f),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{run_par, Partials, SharedMut};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Tests that install the process-global trace session take this
    /// lock so the harness's parallel test threads cannot interleave
    /// install/uninstall (and cross-record into each other's sessions).
    pub(crate) static TRACE_TESTS: Mutex<()> = Mutex::new(());

    /// Run the closure under both synchronization modes: the pure park
    /// path (`spin_us = 0`, the paper's wait/notify model) and a spin
    /// budget large enough that the fast path handles everything.
    pub(crate) fn for_both_modes(n: usize, f: impl Fn(&Team)) {
        for spin_us in [0u64, 200_000] {
            let team = Team::new(n);
            team.set_spin_us(spin_us);
            f(&team);
        }
    }

    #[test]
    fn every_worker_runs_the_region() {
        for_both_modes(4, |team| {
            let hits = AtomicUsize::new(0);
            team.exec(|p| {
                assert_eq!(p.num_threads(), 4);
                hits.fetch_add(1 << (8 * p.tid()), Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 0x01010101);
        });
    }

    #[test]
    fn regions_run_in_sequence() {
        for_both_modes(3, |team| {
            let counter = AtomicUsize::new(0);
            for i in 0..50 {
                team.exec(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(counter.load(Ordering::Relaxed), (i + 1) * 3);
            }
        });
    }

    #[test]
    fn reduce_sum_is_deterministic_and_correct() {
        let team = Team::new(4);
        let n = 1000usize;
        let s = team.reduce_sum(|p| p.range(n).map(|i| i as f64).sum());
        assert_eq!(s, (n * (n - 1) / 2) as f64);
        let s2 = team.reduce_sum(|p| p.range(n).map(|i| i as f64).sum());
        assert_eq!(s.to_bits(), s2.to_bits());
    }

    #[test]
    fn spin_and_park_reductions_are_bit_identical() {
        // The synchronization mode must be invisible to the numerics:
        // same partitions, same rank-ordered combination, same bits.
        let n = 4096usize;
        let run = |spin_us: u64| {
            let team = Team::new(4);
            team.set_spin_us(spin_us);
            team.reduce_sum(|p| p.range(n).map(|i| (i as f64).sqrt().sin()).sum())
        };
        assert_eq!(run(0).to_bits(), run(200_000).to_bits());
    }

    #[test]
    fn partials_with_team() {
        let team = Team::new(3);
        let partials = Partials::new(3);
        team.exec(|p| {
            partials.set(p.tid(), (p.tid() + 1) as f64);
        });
        assert_eq!(partials.sum(), 6.0);
    }

    #[test]
    fn worker_panic_is_propagated_not_deadlocked() {
        for_both_modes(2, |team| {
            let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
                team.exec(|p| {
                    if p.tid() == 1 {
                        panic!("injected failure");
                    }
                });
            }));
            assert!(res.is_err());
            // The team must still be usable after a failed region.
            let ok = AtomicUsize::new(0);
            team.exec(|_| {
                ok.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(ok.load(Ordering::Relaxed), 2);
        });
    }

    #[test]
    fn try_exec_reports_panicking_ranks() {
        for_both_modes(4, |team| {
            let err = team
                .try_exec(|p| {
                    if p.tid() == 2 {
                        panic!("boom");
                    }
                })
                .unwrap_err();
            assert_eq!(err, RegionError::Panicked { tids: vec![2] });
            assert_eq!(team.size(), 4);
            team.exec(|_| {});
        });
    }

    /// A team's width and settings are fixed for life: a panicked region
    /// heals in place, it never rebuilds or shrinks the team.
    #[test]
    fn panicked_region_leaves_width_and_settings_unchanged() {
        for_both_modes(4, |team| {
            team.set_sched(Sched::Guided);
            let spin_us = team.spin_us();
            let err = team
                .try_exec(|p| {
                    if p.tid() == 3 {
                        panic!("die");
                    }
                })
                .unwrap_err();
            assert_eq!(err, RegionError::Panicked { tids: vec![3] });
            assert_eq!(team.size(), 4);
            assert_eq!(team.spin_us(), spin_us);
            assert_eq!(team.sched(), Sched::Guided);
            let hits = AtomicUsize::new(0);
            team.exec(|p| {
                assert_eq!(p.num_threads(), 4);
                hits.fetch_add(1 << (8 * p.tid()), Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 0x01010101, "every rank ran");
        });
    }

    #[test]
    fn exec_panics_with_region_error_payload() {
        let team = Team::new(2);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            team.exec(|p| {
                if p.tid() == 0 {
                    panic!("first");
                }
            });
        }));
        let payload = res.unwrap_err();
        let err = payload.downcast::<RegionError>().expect("RegionError payload");
        assert_eq!(*err, RegionError::Panicked { tids: vec![0] });
    }

    #[test]
    fn reentrant_exec_is_poisoned_not_corrupted() {
        let team = Team::new(2);
        let seen = Mutex::new(None);
        team.exec(|p| {
            if p.is_root() {
                let r = team.try_exec(|_| {});
                *lock(&seen) = Some(r);
            }
        });
        assert_eq!(lock(&seen).take(), Some(Err(RegionError::Poisoned)));
        // The outer region completed and the team still works.
        team.exec(|_| {});
    }

    #[test]
    fn concurrent_exec_from_other_threads_serializes() {
        // Two non-worker threads sharing a &Team must both succeed
        // (serializing on the state lock), not get Poisoned.
        let team = Team::new(2);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..20 {
                        team.try_exec(|_| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        })
                        .expect("cross-thread exec is contention, not reentrancy");
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2 * 20 * 2);
    }

    #[test]
    fn run_par_serial_and_team_agree() {
        let n = 128;
        let compute = |team: Option<&Team>| {
            let mut out = vec![0.0f64; n];
            let s = unsafe { SharedMut::new(&mut out) };
            run_par(team, |p| {
                for i in p.range(n) {
                    s.set::<true>(i, (i * i) as f64);
                }
            });
            drop(s);
            out
        };
        let serial = compute(None);
        let team = Team::new(4);
        let parallel = compute(Some(&team));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn team_of_one_matches_serial() {
        let team = Team::new(1);
        let s = team.reduce_sum(|p| {
            assert_eq!(p.num_threads(), 1);
            42.0
        });
        assert_eq!(s, 42.0);
    }

    #[test]
    fn drop_of_idle_team_is_prompt_even_while_spinning() {
        // The shutdown signal rides the worker wake path: spinning
        // workers observe the flag without the dispatch lock, parked
        // workers get the condvar notify. Run the whole create → exec →
        // drop cycle on a guarded thread so a missed wake fails the test
        // instead of hanging the suite, and assert the drop itself stays
        // far below any park/retry timescale.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for spin_us in [0u64, 1_000_000] {
                let team = Team::new(4);
                team.set_spin_us(spin_us);
                team.exec(|_| {});
                let t0 = Instant::now();
                drop(team);
                let elapsed = t0.elapsed();
                assert!(
                    elapsed < Duration::from_secs(2),
                    "drop took {elapsed:?} at spin_us={spin_us}"
                );
            }
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(30)).expect("team drop deadlocked");
    }

    #[test]
    fn set_spin_us_survives_healing() {
        let team = Team::new(3);
        team.set_spin_us(0);
        let _ = team.try_exec(|p| {
            if p.tid() == 1 {
                panic!("lose a worker");
            }
        });
        assert_eq!(team.spin_us(), 0, "healing must not reset the spin budget");
        team.exec(|p| p.barrier());
    }

    #[test]
    fn trace_records_dispatch_compute_and_barrier_spans_per_rank() {
        // Run a traced region on a team and check every rank's lane got
        // its compute span (and the waits were attributed to the named
        // region). Installs the global session, so serialize with any
        // other test doing the same.
        let _g = lock(&TRACE_TESTS);
        let session = TraceSession::new(4);
        trace::install(Arc::clone(&session));
        let team = Team::new(4);
        team.set_trace(Some(Arc::clone(&session)));
        {
            let _scope = trace::scope("region_a");
            team.exec(|p| {
                std::thread::sleep(Duration::from_millis(2));
                p.barrier();
            });
        }
        team.set_trace(None);
        trace::uninstall();
        let sums = session.summarize();
        let a = sums.iter().find(|r| r.name == "region_a").expect("named region summarized");
        assert_eq!(a.rank_secs.len(), 4, "every rank recorded compute");
        assert!(a.rank_secs.iter().all(|&s| s >= 0.002), "bodies slept 2ms: {:?}", a.rank_secs);
        assert!(a.total_secs >= 0.002, "master scope covers the region");
        assert_eq!(a.count, 1);
        // 3 of 4 ranks wait at the barrier (the last arriver doesn't),
        // and at least the dispatch wait of the region itself shows up.
        let spans = session.spans();
        assert!(spans.iter().any(|(_, s)| s.kind == SpanKind::Dispatch));
        assert!(spans.iter().all(|(_, s)| s.end_ns >= s.start_ns));
    }

    #[test]
    fn trace_marks_poisoned_ranks_and_keeps_partial_spans() {
        let _g = lock(&TRACE_TESTS);
        let session = TraceSession::new(2);
        trace::install(Arc::clone(&session));
        let team = Team::new(2);
        team.set_trace(Some(Arc::clone(&session)));
        let err = {
            let _scope = trace::scope("doomed");
            team.try_exec(|p| {
                if p.tid() == 1 {
                    panic!("die mid-region");
                }
            })
            .unwrap_err()
        };
        team.set_trace(None);
        trace::uninstall();
        assert_eq!(err, RegionError::Panicked { tids: vec![1] });
        assert_eq!(session.poisoned_ranks(), vec![1], "the unwound rank is marked");
        // The surviving rank's compute span was still recorded.
        let sums = session.summarize();
        let d = sums.iter().find(|r| r.name == "doomed").expect("poisoned region summarized");
        assert!(!d.rank_secs.is_empty());
    }

    #[test]
    fn untraced_team_is_unaffected_by_global_session() {
        // A session installed globally but not attached to this team must
        // leave the team's lanes empty (teams opt in via set_trace).
        let _g = lock(&TRACE_TESTS);
        let session = TraceSession::new(2);
        trace::install(Arc::clone(&session));
        let team = Team::new(2);
        team.exec(|p| p.barrier());
        trace::uninstall();
        assert!(session.spans().is_empty(), "no set_trace, no worker spans");
    }
}
