//! The `procs` backend drivers: benchmark domains sharded across worker
//! **processes** with rank-crash containment.
//!
//! The mechanism (shared-memory segments, cross-process futex barriers,
//! per-rank checkpoint slots, rank supervision) lives in
//! [`npb_runtime::procs`], the checkpoint commit protocol (the SDC
//! guard's two-bank image) in [`npb_core::ckpt`]; the arithmetic lives
//! in the kernel crates.
//! This module family is glue only: the segment layout of each
//! benchmark, spawning, the rank view a kernel body runs against, the
//! supervised round/recovery loop, checkpoints, and the procs-only
//! report fields:
//!
//! * the parent creates the segment, spawns `npb <bench> --rank R/N`
//!   workers against the inherited memfd (the run's own flags, from
//!   [`RunSpec::to_argv`]), and participates in every outer barrier;
//! * a barrier that does not open within the round deadline makes the
//!   parent poll `waitpid`: a dead rank (crash, OOM kill, injected
//!   fault) or a hung one is answered by killing the stragglers,
//!   computing the resume round from the per-rank checkpoint images
//!   (`npb_core::ckpt`, hash-checked two-bank slots in the segment),
//!   and respawning every rank from that round;
//! * recoveries are bounded (`--max-recoveries`); past the budget the
//!   run fails with the same structured [`RegionError`] taxonomy the
//!   threads backend uses, so retry/exit-code handling is shared.
//!
//! Supported kernels: EP (independent batches — pure reduction), IS
//! (histogram exchange) and CG (spmv with an inner workers-only barrier
//! per reduction). Both backends run the kernel crate's rank body —
//! `npb_ep::combine`, `npb_is::rank_pass` and `npb_cg::conj_grad_rank`
//! — against an [`Exchange`]: [`npb_runtime::Par`] on threads, a
//! [`RankView`] here. Partitions, barriers and reduction order are the
//! same code, so a procs run at width N is **bit-identical** to a
//! threads run at N (`result_sig` equality is CI-enforced).

mod cg;
mod ep;
mod is;

use std::cell::Cell;
use std::io::Write;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use npb_core::ckpt::Checkpoint;
use npb_core::trace::{self, SpanKind};
use npb_core::{Class, IoDegraded, IoFaultPlan, Style, WATCHDOG_EXIT_CODE};
use npb_runtime::procs::shm::{header, ShmBanks, ShmSegment, STATUS_DONE, STATUS_RUNNING};
use npb_runtime::procs::{ProcBarrier, RankSet};
use npb_runtime::spec::Flag;
use npb_runtime::{Backend, Exchange, FaultKind, FaultPlan, RegionError, RunSpec, SharedMut};

use crate::{RunError, RunOptions};

/// Default recovery budget: how many rank-death/hang recoveries a run
/// absorbs before it fails structurally (`--max-recoveries` overrides).
pub const DEFAULT_MAX_RECOVERIES: usize = 4;

/// Default per-barrier deadline when `--timeout` is not given: a round
/// whose outer barrier stays closed this long with every rank still
/// alive is declared hung.
pub const DEFAULT_ROUND_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a *worker* waits on any one barrier before concluding its
/// parent is gone and exiting. This is the orphan safety net: the
/// parent normally kills the whole rank set on any failure (including
/// its own drop), but a SIGKILLed parent cannot — so workers bound
/// their own waits instead of idling forever.
const WORKER_SYNC_TIMEOUT: Duration = Duration::from_secs(120);

/// Parent liveness-poll cadence: the futex wait slice between
/// `waitpid` checks while the parent sits at an outer barrier.
const PARENT_POLL: Duration = Duration::from_millis(20);

/// The round at which an injected worker fault fires (the first round
/// after every rank has committed a checkpoint, so the recovery that
/// follows proves checkpoint restore, not just restart-from-scratch).
const FAULT_ROUND: u32 = 1;

/// Run a benchmark under the procs backend. Called by
/// `try_run_benchmark` once [`RunSpec::validate`] passed, so `nranks`,
/// the `--threads` value (one worker process per rank), is at least 1.
pub(crate) fn run_procs(
    name: &str,
    class: Class,
    style: Style,
    nranks: usize,
    opts: &RunOptions<'_>,
) -> Result<npb_core::BenchReport, RunError> {
    let cfg = ProcsConfig {
        class,
        style,
        nranks,
        round_timeout: opts.timeout.unwrap_or(DEFAULT_ROUND_TIMEOUT),
        max_recoveries: opts.max_recoveries.unwrap_or(DEFAULT_MAX_RECOVERIES),
        fault: opts.inject.map(|plan| (plan.victim(nranks), *plan)),
    };
    match name {
        "EP" => ep::run_parent(&cfg),
        "IS" => is::run_parent(&cfg),
        "CG" => cg::run_parent(&cfg),
        other => Err(RunError::Config(format!(
            "--backend procs supports EP, IS and CG; {other} has no process-sharded driver yet \
             (run it with --backend threads)"
        ))),
    }
}

/// Everything a parent driver needs to set up one procs run.
pub(crate) struct ProcsConfig {
    pub class: Class,
    pub style: Style,
    pub nranks: usize,
    pub round_timeout: Duration,
    pub max_recoveries: usize,
    /// The victim rank and the fault it inflicts on itself: panic →
    /// the worker aborts, delay → it stalls, hang → it wedges (the
    /// in-process corruptions cannot cross exec; [`RunSpec::validate`]
    /// refuses them here).
    pub fault: Option<(usize, FaultPlan)>,
}

impl ProcsConfig {
    /// Create the run's shared segment of `len` bytes.
    pub fn segment(&self, len: usize) -> Result<ShmSegment, RunError> {
        ShmSegment::create(len, self.nranks)
            .map_err(|e| RunError::Config(format!("cannot create the procs shm segment: {e}")))
    }
}

/// The parent-inclusive outer barrier: every worker plus the parent.
fn outer_barrier(seg: &ShmSegment, nranks: usize) -> ProcBarrier<'_> {
    ProcBarrier::new(seg, header::OUTER_GEN, header::OUTER_COUNT, nranks as u32 + 1)
}

/// Spawn one incarnation of the rank set: `npb <run's flags> --rank R/N
/// --shm-fd FD --shm-len LEN`, with `fault` on its victim's command line
/// only, stdout silenced (the parent owns the report channel), stderr
/// inherited (worker panics stay diagnosable).
fn spawn(
    seg: &ShmSegment,
    run: &RunSpec,
    fault: Option<(usize, FaultPlan)>,
) -> Result<RankSet, RunError> {
    let exe = worker_binary()?;
    let mut children = Vec::with_capacity(run.threads);
    for rank in 0..run.threads {
        let inject = fault.filter(|&(victim, _)| victim == rank).map(|(_, plan)| plan);
        let mut cmd = Command::new(&exe);
        cmd.args(RunSpec { inject, ..run.clone() }.to_argv())
            .args(["--rank", &format!("{rank}/{}", run.threads)])
            .args(["--shm-fd", &seg.fd().to_string(), "--shm-len", &seg.len().to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .stdin(Stdio::null());
        match cmd.spawn() {
            Ok(child) => children.push(child),
            Err(e) => {
                // Kill the ranks already spawned: a half-set must
                // not linger (RankSet's Drop covers them).
                drop(RankSet::new(children));
                return Err(RunError::Config(format!(
                    "cannot spawn procs worker rank {rank}: {e}"
                )));
            }
        }
    }
    Ok(RankSet::new(children))
}

/// The worker binary: this very executable (workers are the `npb`
/// binary re-entered in `--rank` mode). `NPB_PROCS_WORKER_BIN`
/// overrides. It stays an environment variable because it belongs to
/// no command line: in-process callers of the library, whose
/// `current_exe` has no worker mode (`benchmark/src/main.rs` is one),
/// point spawning at a real `npb` with it.
fn worker_binary() -> Result<std::path::PathBuf, RunError> {
    if let Ok(p) = std::env::var("NPB_PROCS_WORKER_BIN") {
        return Ok(std::path::PathBuf::from(p));
    }
    std::env::current_exe()
        .map_err(|e| RunError::Config(format!("cannot locate the worker binary: {e}")))
}

/// Why a supervised round did not complete.
pub(crate) enum RoundFailure {
    /// A rank exited mid-run (crash, signal, injected panic).
    Death { rank: usize, what: String },
    /// No rank died, but the barrier stayed closed past the deadline.
    Hang,
}

/// The parent's side of one procs run: the current rank-set
/// incarnation plus the outer (parent-inclusive) barrier and the
/// recovery accounting.
pub(crate) struct Parent<'a> {
    seg: &'a ShmSegment,
    /// The run every rank is part of, as its workers are told it.
    run: RunSpec,
    outer: ProcBarrier<'a>,
    ranks: RankSet,
    round_timeout: Duration,
    /// Recoveries performed so far (reported as `recoveries`).
    pub recoveries: usize,
    max_recoveries: usize,
}

impl<'a> Parent<'a> {
    /// Spawn the first incarnation of `bench`'s ranks against `seg`.
    /// `cfg.fault` victimizes one rank of this incarnation only —
    /// recovery respawns are always clean, matching the one-shot fault
    /// contract of the threads backend.
    pub fn launch(
        seg: &'a ShmSegment,
        bench: &'static str,
        cfg: &ProcsConfig,
    ) -> Result<Parent<'a>, RunError> {
        let run = RunSpec {
            class: cfg.class,
            style: cfg.style,
            threads: cfg.nranks,
            backend: Backend::Procs,
            ..RunSpec::new(bench)
        };
        let ranks = spawn(seg, &run, cfg.fault)?;
        Ok(Parent {
            seg,
            outer: outer_barrier(seg, cfg.nranks),
            run,
            ranks,
            round_timeout: cfg.round_timeout,
            recoveries: 0,
            max_recoveries: cfg.max_recoveries,
        })
    }

    /// The supervised round loop every driver shares: run the parent's
    /// side of rounds `0..rounds` with `round`, and answer a failed
    /// crossing by [`Parent::recover_with`] — `restore` rebuilds the
    /// parent-owned state from the checkpoints and returns the round to
    /// resume from — before continuing from that round.
    pub fn run_rounds(
        &mut self,
        rounds: u32,
        mut round: impl FnMut(&mut Parent<'a>, u32) -> Result<(), RoundFailure>,
        mut restore: impl FnMut() -> u32,
    ) -> Result<(), RunError> {
        let mut next = 0;
        while next < rounds {
            match round(self, next) {
                Ok(()) => next += 1,
                Err(f) => next = self.recover_with(&f, &mut restore)?,
            }
        }
        Ok(())
    }

    /// Arrive at the outer barrier and wait for it to open,
    /// interleaving short futex sleeps with rank liveness polls — this
    /// is the rank-death detection point. Recorded as a `proc_barrier`
    /// span on the master lane.
    pub fn outer_sync(&mut self) -> Result<(), RoundFailure> {
        let _span = trace::master_span(SpanKind::ProcBarrier);
        let gen = self.outer.arrive();
        let t0 = Instant::now();
        loop {
            if self.outer.wait(gen, PARENT_POLL) {
                return Ok(());
            }
            if let Some((rank, what)) = self.ranks.poll_death() {
                return Err(RoundFailure::Death { rank, what });
            }
            if t0.elapsed() >= self.round_timeout {
                return Err(RoundFailure::Hang);
            }
        }
    }

    /// Recover from a failed round: kill and reap every straggler,
    /// charge the recovery budget, reset both barriers' arrival counts
    /// (dead ranks' arrivals are abandoned), publish `resume` in the
    /// header, and respawn a clean incarnation. `resume` comes from a
    /// closure because it reads the checkpoint slots, which is only
    /// safe after the kill (no live writers).
    ///
    /// Past the budget the failure surfaces as the structured
    /// [`RegionError`] the threads backend uses: `Panicked` naming the
    /// dead rank, `Timeout` for a hang.
    fn recover_with(
        &mut self,
        failure: &RoundFailure,
        resume_round: impl FnOnce() -> u32,
    ) -> Result<u32, RunError> {
        self.ranks.kill_all();
        self.recoveries += 1;
        match failure {
            RoundFailure::Death { rank, what } => eprintln!(
                "npb procs: {} rank {rank} died ({what}); recovery {} of {}",
                self.run.bench, self.recoveries, self.max_recoveries
            ),
            RoundFailure::Hang => eprintln!(
                "npb procs: {} round hung past {:?}; recovery {} of {}",
                self.run.bench, self.round_timeout, self.recoveries, self.max_recoveries
            ),
        }
        if self.recoveries > self.max_recoveries {
            return Err(RunError::Region(match failure {
                RoundFailure::Death { rank, .. } => RegionError::Panicked { tids: vec![*rank] },
                RoundFailure::Hang => {
                    RegionError::Timeout { stuck_ranks: (0..self.run.threads).collect() }
                }
            }));
        }
        let resume = resume_round();
        self.seg.atomic_u32(header::RESUME).store(resume, Ordering::SeqCst);
        self.outer.reset();
        self.seg.atomic_u32(header::INNER_COUNT).store(0, Ordering::SeqCst);
        eprintln!("npb procs: restoring every rank from checkpoint round {resume} and respawning");
        self.ranks = spawn(self.seg, &self.run, None)?;
        Ok(resume)
    }

    /// Reap the finished incarnation (bounded; stragglers are killed)
    /// and return the per-rank disposition taxonomy for the report.
    pub fn finish(&mut self) -> Vec<String> {
        let _ = self.ranks.reap_all(Duration::from_secs(5));
        self.ranks.dispositions()
    }
}

/// The smallest hash-valid checkpoint round across `slots` — the round
/// every rank can safely resume from (a rank ahead of it skips redone
/// work it has already committed). A slot with no intact image (rank
/// died before its first commit, or every image it has is torn) pins
/// the resume to 0; a slot whose newest commit is torn falls back to
/// its previous committed round, so one bad write degrades the resume
/// by one round instead of restarting the run from scratch. Runs with
/// every rank dead, and copies no payload.
pub(crate) fn min_slot_round(slots: &[Checkpoint<ShmBanks<'_>>]) -> u32 {
    slots.iter().map(|s| s.newest_round().unwrap_or(0)).min().unwrap_or(0)
}

/// The checkpoint image over the [`ckpt_slot_bytes`] reservation at
/// `off`, its commits injectable from `NPB_IO_INJECT` on surface `ckpt`,
/// so a hostile-host run can deterministically tear or refuse them.
///
/// [`ckpt_slot_bytes`]: npb_runtime::procs::ckpt_slot_bytes
pub(crate) fn ckpt_image(seg: &ShmSegment, off: usize, len: usize) -> Checkpoint<ShmBanks<'_>> {
    Checkpoint::new(ShmBanks::at(seg, off, len), IoFaultPlan::from_env(), "ckpt")
}

/// Commit `payload` at `round`. A commit the injected fault refused or
/// tore is a degradation, not a failure: `who` (`rank 2`, `parent`)
/// reports it on stderr as `io-degraded` and the computation goes on,
/// since the image's hash check vetoes a torn bank at restore.
pub(crate) fn commit(ckpt: &mut Checkpoint<ShmBanks<'_>>, who: &str, round: u32, payload: &[f64]) {
    if let Err(e) = ckpt.commit(round, &[payload]) {
        eprint_line(&format!("npb procs: {who}: {}", IoDegraded::new("ckpt", "save", &e)));
    }
}

/// [`commit`] for a rank: when the commit flipped the image, count it in
/// the rank's tally, a `u32` of the segment. The count thus outlives the
/// rank's process (a respawned rank adds to its predecessors'), and the
/// parent reports the sum over ranks ([`tallied`]) as
/// `checkpoint_count`: a refused commit is not a checkpoint.
pub(crate) fn commit_counted(
    ckpt: &mut Checkpoint<ShmBanks<'_>>,
    tally: &AtomicU32,
    who: &str,
    round: u32,
    payload: &[f64],
) {
    let before = ckpt.commits();
    commit(ckpt, who, round, payload);
    tally.fetch_add((ckpt.commits() - before) as u32, Ordering::SeqCst);
}

/// The sum of the `nranks` rank tallies at byte offset `off`.
pub(crate) fn tallied(seg: &ShmSegment, off: usize, nranks: usize) -> usize {
    (0..nranks).map(|r| seg.atomic_u32(off + 4 * r).load(Ordering::SeqCst) as usize).sum()
}

/// Write `line` and its newline to stderr in one `write(2)`. Every rank
/// inherits the parent's stderr, and `eprintln!` may issue several
/// writes, so two ranks reporting at once would splice their lines.
fn eprint_line(line: &str) {
    let _ = std::io::stderr().write_all(format!("{line}\n").as_bytes());
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// Everything a worker rank knows, parsed from its hidden CLI.
pub(crate) struct WorkerCtx {
    pub seg: ShmSegment,
    pub rank: usize,
    pub nranks: usize,
    pub class: Class,
    pub style: Style,
    /// The fault this rank inflicts on itself at [`FAULT_ROUND`]: panic
    /// (unwind, the process exits 101), delay (stall once) or hang
    /// (wedge forever). One-shot (in a `Cell` so `round_start` composes
    /// with the segment borrows the barrier and checkpoint views hold).
    fault: std::cell::Cell<Option<FaultPlan>>,
    /// Test pacing lever (`NPB_PROCS_ROUND_DELAY_MS`): an extra sleep
    /// per round so chaos tests have a window to SIGKILL a rank
    /// mid-run (an S-class run is otherwise over in milliseconds). An
    /// environment variable and not a flag: only `chaos_suite` sets it,
    /// and a worker inherits it across exec untouched.
    round_delay: Option<Duration>,
}

impl WorkerCtx {
    /// The round every rank restarts from (header word, parent-owned).
    pub fn resume(&self) -> u32 {
        self.seg.atomic_u32(header::RESUME).load(Ordering::SeqCst)
    }

    /// Apply the pacing delay and, at [`FAULT_ROUND`], the injected
    /// fault. Call once per round, before the round's compute.
    pub fn round_start(&self, round: u32) {
        if let Some(d) = self.round_delay {
            std::thread::sleep(d);
        }
        if round != FAULT_ROUND {
            return;
        }
        let Some(plan) = self.fault.take() else { return };
        match plan.kind {
            FaultKind::Panic => {
                panic!("npb procs: injected panic in rank {} at round {round}", self.rank)
            }
            FaultKind::Delay => std::thread::sleep(Duration::from_millis(plan.delay_ms())),
            FaultKind::Hang => loop {
                std::thread::sleep(Duration::from_secs(60));
            },
            FaultKind::Nan | FaultKind::BitFlip => {}
        }
    }
}

/// Reduction slots of a [`RankView`]'s area: consecutive
/// [`Exchange::all_sum`] calls alternate between two, so one barrier per
/// reduction suffices — a rank writes a slot again only after a later
/// reduction's barrier, by which time every rank has read the slot's
/// previous sum.
pub(crate) const REDUCE_SLOTS: usize = 2;

/// One worker rank as an [`Exchange`]: its [`WorkerCtx`], the
/// [`ProcBarrier`] its driver gives it, and the segment's reduction
/// area. EP and IS hand it the outer barrier, whose every crossing the
/// parent attends; CG hands it the workers-only inner barrier, since
/// its reductions need no parent. The reduction area holds
/// [`REDUCE_SLOTS`] × `nranks` `f64`s, slot-major and packed 8 bytes
/// apart (empty for drivers that do not reduce).
pub(crate) struct RankView<'a> {
    ctx: &'a WorkerCtx,
    barrier: ProcBarrier<'a>,
    slots: SharedMut<'a, f64>,
    /// Reductions this incarnation has made; its parity picks the slot.
    /// Every rank makes the same calls, and a recovery respawns every
    /// rank, so the count agrees across ranks.
    reductions: Cell<usize>,
}

impl<'a> RankView<'a> {
    pub fn new(ctx: &'a WorkerCtx, barrier: ProcBarrier<'a>, slots: &'a mut [f64]) -> Self {
        assert!(slots.is_empty() || slots.len() == REDUCE_SLOTS * ctx.nranks);
        // SAFETY: all_sum writes only this rank's entry of a slot and
        // reads a slot whole only after the barrier that publishes it.
        let slots = unsafe { SharedMut::new(slots) };
        RankView { ctx, barrier, slots, reductions: Cell::new(0) }
    }

    /// The parent-inclusive outer barrier.
    pub fn outer(ctx: &'a WorkerCtx) -> Self {
        RankView::new(ctx, outer_barrier(&ctx.seg, ctx.nranks), &mut [])
    }
}

impl Exchange for RankView<'_> {
    fn rank(&self) -> usize {
        self.ctx.rank
    }

    fn width(&self) -> usize {
        self.ctx.nranks
    }

    /// Bounded by the orphan safety net: if the barrier never opens
    /// (parent SIGKILLed, siblings gone), the worker exits rather than
    /// idling forever.
    fn barrier(&self) {
        if !self.barrier.sync(WORKER_SYNC_TIMEOUT) {
            eprint_line(&format!(
                "npb procs: rank {} abandoned at a barrier for {:?}; exiting",
                self.ctx.rank, WORKER_SYNC_TIMEOUT
            ));
            std::process::exit(WATCHDOG_EXIT_CODE);
        }
    }

    fn all_sum(&self, v: f64) -> f64 {
        let n = self.ctx.nranks;
        let slot = self.reductions.replace(self.reductions.get() + 1) % REDUCE_SLOTS;
        debug_assert!(self.ctx.rank < n);
        // SAFETY: entry (slot, rank) is this rank's alone; the barrier
        // below publishes it.
        let mine = unsafe { self.slots.row_mut(slot * n + self.ctx.rank, 1) };
        mine[0] = v;
        self.barrier();
        // SAFETY: no rank writes this slot again before a later
        // reduction's barrier (the REDUCE_SLOTS alternation).
        unsafe { self.slots.row(slot * n, n) }.iter().sum()
    }
}

/// Entry point of the hidden worker mode (`npb <bench> --rank R/N
/// --shm-fd FD --shm-len LEN`): attach the inherited segment, run the
/// bench-specific rank loop, return the process exit code.
pub fn worker_main(bench: &str, args: &[String]) -> i32 {
    match worker_ctx(args) {
        Err(msg) => {
            eprint_line(&format!("npb procs worker: {msg}"));
            npb_core::USAGE_EXIT_CODE
        }
        Ok(ctx) => {
            ctx.seg.status(ctx.rank).store(STATUS_RUNNING, Ordering::SeqCst);
            let rank_loop: fn(&WorkerCtx) = match (bench.to_ascii_uppercase().as_str(), ctx.style) {
                ("EP", Style::Opt) => ep::worker::<false>,
                ("EP", Style::Safe) => ep::worker::<true>,
                ("IS", Style::Opt) => is::worker::<false>,
                ("IS", Style::Safe) => is::worker::<true>,
                ("CG", Style::Opt) => cg::worker::<false>,
                ("CG", Style::Safe) => cg::worker::<true>,
                (other, _) => {
                    eprint_line(&format!("npb procs worker: no rank loop for {other}"));
                    return npb_core::USAGE_EXIT_CODE;
                }
            };
            rank_loop(&ctx);
            ctx.seg.status(ctx.rank).store(STATUS_DONE, Ordering::SeqCst);
            0
        }
    }
}

/// Parse the worker-mode flags out of the (already `--flag=value`
/// expanded) argument list, attach the segment, read the env knobs.
fn worker_ctx(args: &[String]) -> Result<WorkerCtx, String> {
    let mut run = RunSpec::new("");
    let mut rank_spec: Option<String> = None;
    let mut fd: Option<i32> = None;
    let mut len: Option<usize> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if run.parse_flag(flag, &mut it)? != Flag::Other {
            continue;
        }
        let mut val = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--rank" => rank_spec = Some(val()?),
            "--shm-fd" => fd = Some(val()?.parse().map_err(|_| "bad --shm-fd".to_string())?),
            "--shm-len" => len = Some(val()?.parse().map_err(|_| "bad --shm-len".to_string())?),
            // Anything else on the worker command line is a parent-mode
            // flag that does not concern the rank loop.
            _ => {}
        }
    }
    let rank_spec = rank_spec.ok_or("missing --rank R/N")?;
    let (rank, nranks) = rank_spec
        .split_once('/')
        .and_then(|(r, n)| Some((r.parse::<usize>().ok()?, n.parse::<usize>().ok()?)))
        .filter(|&(r, n)| n >= 1 && r < n)
        .ok_or_else(|| format!("bad --rank {rank_spec:?} (expected R/N with R < N)"))?;
    let fd = fd.ok_or("missing --shm-fd")?;
    let len = len.ok_or("missing --shm-len")?;
    let seg = ShmSegment::attach(fd, len).map_err(|e| format!("cannot attach shm: {e}"))?;
    if seg.atomic_u32(header::NRANKS).load(Ordering::SeqCst) != nranks as u32 {
        return Err(format!("segment was created for a different rank count than {nranks}"));
    }
    let round_delay = std::env::var("NPB_PROCS_ROUND_DELAY_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_millis);
    Ok(WorkerCtx {
        seg,
        rank,
        nranks,
        class: run.class,
        style: run.style,
        fault: std::cell::Cell::new(run.inject),
        round_delay,
    })
}
