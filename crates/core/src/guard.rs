//! In-computation fault tolerance: SDC detection and iteration-level
//! checkpoint/rollback.
//!
//! The NPB kernels are all iterative (CG power steps, MG V-cycles, FT
//! time steps, BT/SP ADI steps, LU SSOR steps) and only verify *after*
//! the full computation — a silent data corruption (SDC) at iteration 3
//! wastes the whole run. This module is the innermost level of the
//! three-level failure model (in-computation / in-process / supervisor):
//! it watches the benchmark's mutable state at every outer-iteration
//! boundary and, on detection, rolls the state back to the last good
//! in-memory checkpoint instead of letting the run die at verification.
//!
//! The pieces:
//!
//! * [`IterationGuard`] — the monitor trait. Three cheap implementations
//!   cover complementary corruption windows:
//!   [`RollingChecksum`] (a randlc-style multiplicative hash of the raw
//!   bit patterns, recorded when an iteration ends and verified before
//!   the next one consumes the state — catches *any* bit flip landing
//!   between iterations, exactly), [`FiniteScan`] (NaN/Inf scan — catches
//!   corruption that happened *inside* an iteration body once it poisons
//!   the arithmetic), and [`ResidualSentinel`] (flags a residual that
//!   explodes relative to the accepted history — catches in-body
//!   corruption in kernels that produce a per-iteration residual).
//! * The rollback image — a [`Checkpoint`] over [`HeapBanks`] (surface
//!   `checkpoint`), committed every `k` outer iterations. Its two banks
//!   are hash-checked at restore, so a rollback that finds the newest
//!   image corrupted or torn falls back to the older one; the commit
//!   protocol is the one every procs rank slot uses
//!   ([`crate::ckpt`]).
//! * [`SdcGuard`] — the per-run orchestrator:
//!   [`SdcGuard::begin`] at the top of each iteration (applies any armed
//!   deterministic bit flip, then runs the detection stack and decides
//!   continue / rollback / escalate), [`SdcGuard::end`] at the bottom
//!   (screens, records the trusted reference, takes the periodic
//!   checkpoint).
//!
//! One loop drives it: `npb_runtime::guarded_loop`, the outer loop BT,
//! SP, LU, MG, FT and CG all run, is the only caller of `begin`/`end`
//! outside this module's tests, so it alone decides what a verdict does.
//! Detection → rollback → escalate state machine: a detection restores
//! the last good checkpoint and replays (counted in
//! [`GuardStats::recoveries`]; the loop also discards the team's
//! feedback-scheduling history); `max_detections` repeated detections at
//! the *same* iteration — or a detection with no intact checkpoint left —
//! escalate, which the loop converts into a `RegionError` for the
//! in-process and supervisor levels to handle.
//!
//! The deterministic bit-flip fault (`--inject bitflip:<seed>`) arms
//! through the thread-local [`arm_bitflip`] hook, mirroring the NaN hook
//! in [`crate::verify`]: the runtime crate draws the fault coordinates
//! from its randlc stream and arms here, and the guard applies the flip
//! at the chosen iteration boundary whether or not detection is enabled —
//! so an unguarded run demonstrably fails verification from the same
//! spec that a guarded run survives.

use std::cell::Cell;

use crate::ckpt::{Checkpoint, HeapBanks};
use crate::iofault::{IoDegraded, IoFaultPlan};
use crate::timer::timed;

/// Default checkpoint period (outer iterations per snapshot).
pub const DEFAULT_CHECKPOINT_EVERY: usize = 4;

/// Default escalation threshold: repeated detections at the same
/// iteration before the guard gives up and escalates.
pub const DEFAULT_MAX_DETECTIONS: usize = 3;

/// The randlc multiplier 5^13 (see [`crate::random`]), reused as the
/// multiplicative mixing constant of the rolling state hash. Odd, so
/// multiplication by it is a bijection on `u64` and a change to any
/// single element always changes the final hash.
const HASH_MULTIPLIER: u64 = 1_220_703_125;

/// A residual this many times larger than everything previously accepted
/// is declared divergent. NPB residuals fluctuate within a decade;
/// exponent-field corruption moves them by hundreds of decades.
const DIVERGENCE_FACTOR: f64 = 1.0e9;

// ---------------------------------------------------------------------
// Configuration and stats
// ---------------------------------------------------------------------

/// Configuration of the in-computation guard layer.
#[derive(Debug, Clone, Copy)]
pub struct GuardConfig {
    /// Run the detection stack and keep checkpoints (`--sdc-guard`).
    /// When false the guard layer is dormant: it still applies an armed
    /// bit flip (so unguarded control runs corrupt identically) but
    /// never checks, snapshots or rolls back.
    pub enabled: bool,
    /// Take a checkpoint every this many outer iterations
    /// (`--checkpoint-every=K`, K >= 1).
    pub checkpoint_every: usize,
    /// Escalate after this many repeated detections at one iteration.
    pub max_detections: usize,
}

impl Default for GuardConfig {
    fn default() -> GuardConfig {
        GuardConfig {
            enabled: false,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            max_detections: DEFAULT_MAX_DETECTIONS,
        }
    }
}

impl GuardConfig {
    /// An enabled config checkpointing every `k` iterations.
    pub fn enabled_every(k: usize) -> GuardConfig {
        GuardConfig { enabled: true, checkpoint_every: k.max(1), ..GuardConfig::default() }
    }
}

/// Parse a `--checkpoint-every` value: a positive integer number of
/// iterations. Malformed values are reported (the driver warns once on
/// stderr and falls back to [`DEFAULT_CHECKPOINT_EVERY`]) rather than
/// silently accepted.
pub fn parse_checkpoint_every(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(k) if k >= 1 => Ok(k),
        _ => Err(format!(
            "ignoring malformed --checkpoint-every value {raw:?} \
             (expected a positive integer number of iterations); \
             using the default of {DEFAULT_CHECKPOINT_EVERY}"
        )),
    }
}

/// What the guard layer did during a run, for `BenchReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GuardStats {
    /// Detections that were answered by a successful rollback.
    pub recoveries: usize,
    /// Checkpoints taken.
    pub checkpoint_count: usize,
    /// Wall-clock seconds spent in the guard layer (checks, checksums
    /// and checkpoint copies), measured with the core timer infra.
    pub checkpoint_overhead_s: f64,
}

/// Verdict of [`SdcGuard::begin`] — what the benchmark loop must do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardAction {
    /// State is clean (or the guard is dormant): run the iteration.
    Continue,
    /// Corruption was detected and the state arrays have been restored
    /// from a checkpoint: resume the loop at iteration `resume` (any
    /// per-iteration side state, e.g. FT's checksum log, must be
    /// truncated to match before the replayed iteration appends).
    Rollback {
        /// First iteration to re-run.
        resume: usize,
    },
    /// Detection recurred at the same iteration (or no intact checkpoint
    /// remains): in-computation recovery has failed, hand the failure to
    /// the in-process level (a `RegionError`).
    Escalate {
        /// The iteration the guard could not get past.
        iteration: usize,
        /// How many detections it took to give up.
        detections: usize,
    },
}

// ---------------------------------------------------------------------
// Deterministic bit-flip arming (thread-local, mirrors verify.rs's NaN)
// ---------------------------------------------------------------------

/// An armed bit-flip fault, in resolution-independent coordinates: the
/// arming side (the runtime's `FaultPlan`) knows only its randlc stream,
/// not the benchmark's iteration count or state-array sizes, so it arms
/// three unit-interval draws and the guard resolves them against the
/// actual run.
#[derive(Debug, Clone, Copy)]
pub struct ArmedBitFlip {
    /// Selects the victim iteration within the adversarial tail window
    /// (the final `max(1, niter/8)` outer iterations — see
    /// [`SdcGuard::new`] for why early flips are not worth injecting).
    pub iter_frac: f64,
    /// Selects the victim element across the concatenated state arrays.
    pub elem_frac: f64,
    /// Selects the victim bit within the high exponent field (bits
    /// 55..=62): a flip there scales the value by at least 2^8 or sends
    /// it to Inf/NaN, i.e. is always numerically catastrophic. Low
    /// mantissa flips sit below every verification tolerance and model
    /// noise that is undetectable *by design*, which would make the
    /// control experiment (unguarded run must fail) nondeterministic.
    pub bit_frac: f64,
}

/// Bit range the flip is drawn from (inclusive low, exclusive count).
const FLIP_BIT_LO: u32 = 55;
const FLIP_BIT_SPAN: u32 = 8;

thread_local! {
    /// One-shot bit-flip fault armed for the next guarded benchmark run
    /// **on this thread** (benchmarks run their outer loop on the thread
    /// that drives them). Thread-local for the same reason as the NaN
    /// hook: concurrent benchmark runs in one process must not steal or
    /// trip each other's armed fault.
    static BITFLIP: Cell<Option<ArmedBitFlip>> = const { Cell::new(None) };
}

/// Arm a one-shot bit flip for the next guarded benchmark run on the
/// calling thread.
pub fn arm_bitflip(flip: ArmedBitFlip) {
    BITFLIP.with(|c| c.set(Some(flip)));
}

/// True while a bit flip is armed on this thread but not yet claimed by
/// a benchmark run.
pub fn bitflip_armed() -> bool {
    BITFLIP.with(|c| c.get().is_some())
}

fn take_bitflip() -> Option<ArmedBitFlip> {
    BITFLIP.with(|c| c.take())
}

// ---------------------------------------------------------------------
// The monitor trait and its three implementations
// ---------------------------------------------------------------------

/// A cheap per-outer-iteration invariant monitor.
///
/// Lifecycle: [`IterationGuard::record`] observes trusted state when an
/// iteration completes (the recorded reference belongs to the iteration
/// that will consume the state next); [`IterationGuard::check`] validates
/// the state at the top of that next iteration, before the body consumes
/// it; [`IterationGuard::screen`] pre-screens freshly produced state
/// before it is trusted at all (so a corrupted iteration's output is
/// never checkpointed); [`IterationGuard::reset`] drops transient
/// expectations after a rollback (the orchestrator re-records from the
/// restored state).
pub trait IterationGuard {
    /// Monitor name, used in detection reports.
    fn name(&self) -> &'static str;

    /// Observe trusted state. `next_iter` is the iteration that will
    /// consume it (end of iteration `i` records with `next_iter = i+1`;
    /// the pre-loop baseline records with `next_iter = 0`). `residual`
    /// is the kernel's per-iteration residual where one exists.
    fn record(&mut self, next_iter: usize, arrays: &[&[f64]], residual: Option<f64>);

    /// Validate the state at the top of iteration `iter`.
    fn check(&self, iter: usize, arrays: &[&[f64]]) -> Result<(), String>;

    /// Pre-screen freshly produced (not yet trusted) state. A failure
    /// here vetoes the checkpoint at this boundary and is surfaced as a
    /// detection at the next [`IterationGuard::check`] point.
    fn screen(&self, _arrays: &[&[f64]], _residual: Option<f64>) -> Result<(), String> {
        Ok(())
    }

    /// Forget transient expectations after a rollback.
    fn reset(&mut self);
}

/// Randlc-style rolling hash of the raw bit patterns of every state
/// array, position-weighted by powers of the (odd) multiplier, so any
/// single-element change — down to one flipped mantissa bit — changes
/// the hash. Exact integer compare: recomputing over unchanged memory
/// always matches, so there are no false positives.
pub fn state_hash(arrays: &[&[f64]]) -> u64 {
    arrays.iter().fold(arrays.len() as u64, |h, a| hash_array(h, &[a]))
}

/// Fold one array of [`state_hash`], given as consecutive `parts`, into
/// the running hash `h`: its length, then every element's bit pattern.
pub(crate) fn hash_array(h: u64, parts: &[&[f64]]) -> u64 {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let mut h = h.wrapping_mul(HASH_MULTIPLIER).wrapping_add(len as u64);
    for part in parts {
        for &v in *part {
            h = h.wrapping_mul(HASH_MULTIPLIER).wrapping_add(v.to_bits());
        }
    }
    h
}

/// Checksum monitor: catches any corruption of the state between the
/// end of one iteration and the start of the next.
#[derive(Debug, Default)]
pub struct RollingChecksum {
    /// `(iteration that should see this state, expected hash)`.
    expected: Option<(usize, u64)>,
}

impl IterationGuard for RollingChecksum {
    fn name(&self) -> &'static str {
        "rolling-checksum"
    }

    fn record(&mut self, next_iter: usize, arrays: &[&[f64]], _residual: Option<f64>) {
        self.expected = Some((next_iter, state_hash(arrays)));
    }

    fn check(&self, iter: usize, arrays: &[&[f64]]) -> Result<(), String> {
        match self.expected {
            Some((at, want)) if at == iter => {
                let got = state_hash(arrays);
                if got == want {
                    Ok(())
                } else {
                    Err(format!("state checksum mismatch (expected {want:#018x}, got {got:#018x})"))
                }
            }
            _ => Ok(()),
        }
    }

    fn reset(&mut self) {
        self.expected = None;
    }
}

/// NaN/Inf scan of every state array.
#[derive(Debug, Default)]
pub struct FiniteScan;

fn scan_finite(arrays: &[&[f64]]) -> Result<(), String> {
    for (ai, a) in arrays.iter().enumerate() {
        for (i, &v) in a.iter().enumerate() {
            if !v.is_finite() {
                return Err(format!("non-finite value {v} at array {ai} index {i}"));
            }
        }
    }
    Ok(())
}

impl IterationGuard for FiniteScan {
    fn name(&self) -> &'static str {
        "finite-scan"
    }

    fn record(&mut self, _next_iter: usize, _arrays: &[&[f64]], _residual: Option<f64>) {}

    fn check(&self, _iter: usize, arrays: &[&[f64]]) -> Result<(), String> {
        scan_finite(arrays)
    }

    fn screen(&self, arrays: &[&[f64]], _residual: Option<f64>) -> Result<(), String> {
        scan_finite(arrays)
    }

    fn reset(&mut self) {}
}

/// Residual-divergence sentinel: a per-iteration residual explosively
/// larger than everything previously accepted signals in-body
/// corruption. Only active for kernels that report a residual.
#[derive(Debug, Default)]
pub struct ResidualSentinel {
    /// Residual produced by the last completed iteration, not yet
    /// trusted (it survives one check() before being folded).
    pending: Option<f64>,
    /// Largest residual that survived a full check cycle.
    accepted_max: Option<f64>,
}

impl ResidualSentinel {
    fn diverged(&self, residual: f64) -> Option<String> {
        if !residual.is_finite() {
            return Some(format!("non-finite residual {residual}"));
        }
        if let Some(max) = self.accepted_max {
            if residual > DIVERGENCE_FACTOR * max {
                return Some(format!(
                    "residual {residual:e} diverged beyond {DIVERGENCE_FACTOR:e} x the \
                     accepted maximum {max:e}"
                ));
            }
        }
        None
    }
}

impl IterationGuard for ResidualSentinel {
    fn name(&self) -> &'static str {
        "residual-sentinel"
    }

    fn record(&mut self, _next_iter: usize, _arrays: &[&[f64]], residual: Option<f64>) {
        // The previously pending residual has survived a check cycle:
        // fold it into the accepted history.
        if let Some(p) = self.pending.take() {
            self.accepted_max = Some(self.accepted_max.map_or(p, |m: f64| m.max(p)));
        }
        self.pending = residual;
    }

    fn check(&self, _iter: usize, _arrays: &[&[f64]]) -> Result<(), String> {
        match self.pending {
            Some(r) => self.diverged(r).map_or(Ok(()), Err),
            None => Ok(()),
        }
    }

    fn screen(&self, _arrays: &[&[f64]], residual: Option<f64>) -> Result<(), String> {
        match residual {
            Some(r) => self.diverged(r).map_or(Ok(()), Err),
            None => Ok(()),
        }
    }

    fn reset(&mut self) {
        // Drop the untrusted pending residual; keep the accepted
        // history — it describes the healthy computation.
        self.pending = None;
    }
}

// ---------------------------------------------------------------------
// The orchestrator
// ---------------------------------------------------------------------

/// Per-run SDC guard: owns the monitor stack, the rollback image and
/// the armed bit-flip fault, and drives the detection → rollback →
/// escalate state machine from the two calls the guarded outer loop
/// (`npb_runtime::guarded_loop`) makes each iteration
/// ([`SdcGuard::begin`] / [`SdcGuard::end`]).
pub struct SdcGuard {
    cfg: GuardConfig,
    guards: Vec<Box<dyn IterationGuard>>,
    /// Sized by [`SdcGuard::init`]; `None` while the guard is dormant.
    ckpt: Option<Checkpoint<HeapBanks>>,
    /// Armed fault, resolved to its victim iteration. Claimed from the
    /// thread-local at construction even when detection is disabled, so
    /// the unguarded control run corrupts identically.
    fault: Option<(usize, ArmedBitFlip)>,
    /// Screen failure carried from the previous `end` to the next
    /// `begin` (the single decision point).
    tainted: Option<(&'static str, String)>,
    /// `(iteration, consecutive detections there)`.
    detections: Option<(usize, usize)>,
    recoveries: usize,
    overhead_s: f64,
}

impl SdcGuard {
    /// Build the guard for a run of `niter` outer iterations, claiming
    /// any bit flip armed on this thread.
    pub fn new(cfg: &GuardConfig, niter: usize) -> SdcGuard {
        let fault = take_bitflip().filter(|_| niter > 0).map(|f| {
            // Adversarial tail placement: contractive solvers (CG's
            // power iteration, MG's V-cycles) transparently damp a flip
            // that lands early — the remaining iterations heal it
            // before verification ever looks. The SDC worth modeling is
            // the one verification cannot outrun, so the victim
            // iteration is drawn from the final eighth of the run.
            let window = (niter / 8).max(1);
            let offset = ((f.iter_frac * window as f64) as usize).min(window - 1);
            (niter - 1 - offset, f)
        });
        SdcGuard {
            cfg: *cfg,
            guards: vec![
                Box::new(RollingChecksum::default()),
                Box::new(FiniteScan),
                Box::new(ResidualSentinel::default()),
            ],
            ckpt: None,
            fault,
            tainted: None,
            detections: None,
            recoveries: 0,
            overhead_s: 0.0,
        }
    }

    /// Record the pre-loop baseline and take the iteration-0 checkpoint,
    /// so corruption at the very first iteration is detectable and
    /// recoverable.
    pub fn init(&mut self, arrays: &[&[f64]]) {
        if !self.cfg.enabled {
            return;
        }
        let ((), dt) = timed(|| {
            for g in &mut self.guards {
                g.record(0, arrays, None);
            }
            // Armed from the ambient `NPB_IO_INJECT` plan (which
            // `--io-inject` exports), so the checkpoint path is
            // injectable without threading a plan through every guard.
            let len = arrays.iter().map(|a| a.len()).sum();
            let ckpt = Checkpoint::new(HeapBanks::new(len), IoFaultPlan::from_env(), "checkpoint");
            commit(self.ckpt.insert(ckpt), 0, arrays);
        });
        self.overhead_s += dt;
    }

    /// Top of iteration `it`: apply any armed flip due now, then run the
    /// detection stack and decide what the loop does.
    pub fn begin(&mut self, it: usize, arrays: &mut [&mut [f64]]) -> GuardAction {
        if let Some((target, flip)) = self.fault {
            if target == it {
                self.fault = None;
                apply_bitflip(&flip, arrays);
            }
        }
        if !self.cfg.enabled {
            return GuardAction::Continue;
        }
        let (action, dt) = timed(|| self.begin_checks(it, arrays));
        self.overhead_s += dt;
        action
    }

    fn begin_checks(&mut self, it: usize, arrays: &mut [&mut [f64]]) -> GuardAction {
        let views: Vec<&[f64]> = arrays.iter().map(|a| &a[..]).collect();
        let detected: Option<(&'static str, String)> = self.tainted.take().or_else(|| {
            self.guards.iter().find_map(|g| g.check(it, &views).err().map(|e| (g.name(), e)))
        });
        let Some((monitor, reason)) = detected else {
            // A clean pass through the previously failing iteration
            // means the recovery held.
            if self.detections.is_some_and(|(at, _)| at == it) {
                self.detections = None;
            }
            return GuardAction::Continue;
        };

        let count = match self.detections {
            Some((at, n)) if at == it => n + 1,
            _ => 1,
        };
        self.detections = Some((it, count));
        eprintln!(
            "npb: sdc-guard: corruption detected at iteration {it} by {monitor}: {reason} \
             (detection {count} of {max})",
            max = self.cfg.max_detections
        );
        if count >= self.cfg.max_detections {
            return GuardAction::Escalate { iteration: it, detections: count };
        }
        // A rollback is a real consumer of wall clock; record it as a
        // trace span so recoveries are visible in the profile.
        let span = crate::trace::master_span(crate::trace::SpanKind::Rollback);
        match self.ckpt.as_mut().and_then(|c| c.restore(arrays)) {
            Some(round) => {
                let resume = round as usize;
                drop(span);
                self.recoveries += 1;
                let views: Vec<&[f64]> = arrays.iter().map(|a| &a[..]).collect();
                for g in &mut self.guards {
                    g.reset();
                    g.record(resume, &views, None);
                }
                eprintln!(
                    "npb: sdc-guard: rolled back to the checkpoint at iteration {resume} \
                     (recovery {n})",
                    n = self.recoveries
                );
                GuardAction::Rollback { resume }
            }
            None => {
                span.cancel();
                eprintln!("npb: sdc-guard: no intact checkpoint remains; escalating");
                GuardAction::Escalate { iteration: it, detections: count }
            }
        }
    }

    /// Bottom of iteration `it`: screen the freshly produced state,
    /// record the trusted references and take the periodic checkpoint.
    pub fn end(&mut self, it: usize, arrays: &[&[f64]], residual: Option<f64>) {
        if !self.cfg.enabled {
            return;
        }
        let ((), dt) = timed(|| {
            let tainted = self
                .guards
                .iter()
                .find_map(|g| g.screen(arrays, residual).err().map(|e| (g.name(), e)));
            for g in &mut self.guards {
                g.record(it + 1, arrays, residual);
            }
            // Never checkpoint state that failed its own screen; the
            // failure becomes a detection at the next begin().
            if tainted.is_none() && (it + 1) % self.cfg.checkpoint_every == 0 {
                if let Some(ckpt) = &mut self.ckpt {
                    commit(ckpt, it + 1, arrays);
                }
            }
            self.tainted = tainted;
        });
        self.overhead_s += dt;
    }

    /// What the guard did, for the benchmark report.
    pub fn stats(&self) -> GuardStats {
        GuardStats {
            recoveries: self.recoveries,
            checkpoint_count: self.ckpt.as_ref().map_or(0, Checkpoint::commits),
            checkpoint_overhead_s: self.overhead_s,
        }
    }
}

/// Commit the state a resume-at-`resume` restart needs. A commit the
/// injected I/O fault refused or tore costs at most that checkpoint
/// (restore's hash check vetoes a torn image), so it is reported as
/// `io-degraded`, never a panic.
fn commit(ckpt: &mut Checkpoint<HeapBanks>, resume: usize, arrays: &[&[f64]]) {
    let round = u32::try_from(resume).expect("iteration counts fit in u32");
    if let Err(e) = ckpt.commit(round, arrays) {
        eprintln!("npb: {}", IoDegraded::new("checkpoint", "write", &e));
    }
}

/// Flip the armed bit of the armed element across the concatenated
/// state arrays.
fn apply_bitflip(flip: &ArmedBitFlip, arrays: &mut [&mut [f64]]) {
    let total: usize = arrays.iter().map(|a| a.len()).sum();
    if total == 0 {
        return;
    }
    let mut idx = ((flip.elem_frac * total as f64) as usize).min(total - 1);
    let bit = FLIP_BIT_LO + ((flip.bit_frac * FLIP_BIT_SPAN as f64) as u32).min(FLIP_BIT_SPAN - 1);
    for a in arrays.iter_mut() {
        if idx < a.len() {
            let old = a[idx];
            a[idx] = f64::from_bits(old.to_bits() ^ (1u64 << bit));
            return;
        }
        idx -= a.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(a: &[Vec<f64>]) -> Vec<&[f64]> {
        a.iter().map(|v| v.as_slice()).collect()
    }

    #[test]
    fn state_hash_sees_every_bit() {
        let a = vec![vec![1.0, -2.5, 3.25], vec![0.125; 5]];
        let h0 = state_hash(&views(&a));
        for (ai, i, bit) in [(0usize, 0usize, 0u32), (0, 2, 63), (1, 4, 31)] {
            let mut b = a.clone();
            b[ai][i] = f64::from_bits(b[ai][i].to_bits() ^ (1u64 << bit));
            assert_ne!(state_hash(&views(&b)), h0, "array {ai} elem {i} bit {bit}");
        }
        assert_eq!(state_hash(&views(&a)), h0, "hash must be a pure function");
    }

    #[test]
    fn rolling_checksum_detects_interiteration_flip() {
        let mut g = RollingChecksum::default();
        let mut a = vec![vec![1.0f64; 8]];
        g.record(3, &views(&a), None);
        assert!(g.check(3, &views(&a)).is_ok());
        a[0][5] = f64::from_bits(a[0][5].to_bits() ^ 1); // lowest mantissa bit
        assert!(g.check(3, &views(&a)).is_err(), "even a 1-ulp flip must be caught");
        // A reference recorded for iteration 3 says nothing about 4.
        assert!(g.check(4, &views(&a)).is_ok());
    }

    #[test]
    fn finite_scan_catches_nan_and_inf() {
        let g = FiniteScan;
        let mut a = vec![vec![0.0f64; 4]];
        assert!(g.check(0, &views(&a)).is_ok());
        a[0][2] = f64::NAN;
        assert!(g.check(0, &views(&a)).is_err());
        a[0][2] = f64::INFINITY;
        assert!(g.screen(&views(&a), None).is_err());
    }

    #[test]
    fn residual_sentinel_flags_divergence_not_fluctuation() {
        let mut g = ResidualSentinel::default();
        let a: Vec<Vec<f64>> = vec![];
        g.record(1, &views(&a), Some(1.0e-10));
        assert!(g.check(1, &views(&a)).is_ok());
        g.record(2, &views(&a), Some(5.0e-10)); // ordinary fluctuation
        assert!(g.check(2, &views(&a)).is_ok());
        g.record(3, &views(&a), Some(1.0e150)); // exponent-field corruption
        assert!(g.check(3, &views(&a)).is_err());
        assert!(g.screen(&views(&a), Some(f64::NAN)).is_err());
    }

    /// Drive a synthetic guarded loop: state is one array the "kernel"
    /// increments each iteration; an armed flip (tail placement puts it
    /// at the last iteration) must be detected and rolled back, and the
    /// run must converge to the same final state as a fault-free run.
    #[test]
    fn guarded_loop_recovers_from_armed_flip() {
        // Rollbacks record a trace span when a session is installed;
        // serialize against the trace tests that install one.
        let _trace = crate::trace::GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let niter = 8usize;
        let run = |arm: bool, cfg: &GuardConfig| -> (Vec<f64>, GuardStats) {
            if arm {
                // Tail window of 8 iterations is 1 wide -> iteration 7;
                // element 1; top of the bit span.
                arm_bitflip(ArmedBitFlip { iter_frac: 0.4, elem_frac: 0.3, bit_frac: 0.99 });
            }
            let mut state = vec![vec![1.0f64, 2.0, 3.0, 4.0]];
            let mut guard = SdcGuard::new(cfg, niter);
            guard.init(&views(&state));
            let mut it = 0;
            while it < niter {
                {
                    let mut slices: Vec<&mut [f64]> =
                        state.iter_mut().map(|v| v.as_mut_slice()).collect();
                    match guard.begin(it, &mut slices) {
                        GuardAction::Continue => {}
                        GuardAction::Rollback { resume } => {
                            it = resume;
                            continue;
                        }
                        GuardAction::Escalate { .. } => panic!("must not escalate"),
                    }
                }
                for v in state[0].iter_mut() {
                    *v += 1.0;
                }
                let r = state[0][0] * 1e-12;
                let v = views(&state);
                guard.end(it, &v, Some(r));
                it += 1;
            }
            (state.remove(0), guard.stats())
        };

        let cfg = GuardConfig::enabled_every(2);
        let (clean, clean_stats) = run(false, &cfg);
        assert_eq!(clean_stats.recoveries, 0);
        assert!(clean_stats.checkpoint_count >= 4);
        let (healed, stats) = run(true, &cfg);
        assert_eq!(stats.recoveries, 1, "exactly one rollback");
        assert_eq!(healed, clean, "recovered run must match the fault-free run");
        assert!(!bitflip_armed(), "the fault is one-shot");

        // Control: the same armed flip without the guard corrupts the
        // final state (proving the guard is load-bearing).
        let (corrupt, stats) = run(true, &GuardConfig::default());
        assert_eq!(stats.recoveries, 0);
        assert_ne!(corrupt, clean);
    }

    #[test]
    fn repeated_detection_at_same_iteration_escalates() {
        let _trace = crate::trace::GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let cfg = GuardConfig { enabled: true, checkpoint_every: 1, max_detections: 3 };
        let mut state = vec![vec![1.0f64; 4]];
        let mut guard = SdcGuard::new(&cfg, 10);
        guard.init(&views(&state));
        // A "sticky" corruption: re-corrupt the state before every
        // begin(), as persistent hardware damage would.
        let mut escalated = None;
        for attempt in 0.. {
            state[0][2] = f64::NAN;
            let mut slices: Vec<&mut [f64]> = state.iter_mut().map(|v| v.as_mut_slice()).collect();
            match guard.begin(0, &mut slices) {
                GuardAction::Rollback { resume } => assert_eq!(resume, 0),
                GuardAction::Escalate { iteration, detections } => {
                    escalated = Some((iteration, detections, attempt));
                    break;
                }
                GuardAction::Continue => panic!("NaN state must be detected"),
            }
        }
        let (iteration, detections, attempt) = escalated.expect("must escalate eventually");
        assert_eq!(iteration, 0);
        assert_eq!(detections, 3);
        assert_eq!(attempt, 2, "escalates on the third detection");
        assert_eq!(guard.stats().recoveries, 2, "two rollbacks before giving up");
    }

    #[test]
    fn disabled_guard_still_applies_the_armed_flip() {
        arm_bitflip(ArmedBitFlip { iter_frac: 0.0, elem_frac: 0.0, bit_frac: 0.0 });
        // A 1-iteration run puts the adversarial tail at iteration 0.
        let mut state = vec![vec![1.0f64, 1.0]];
        let mut guard = SdcGuard::new(&GuardConfig::default(), 1);
        guard.init(&views(&state)); // no-op while disabled
        let mut slices: Vec<&mut [f64]> = state.iter_mut().map(|v| v.as_mut_slice()).collect();
        assert_eq!(guard.begin(0, &mut slices), GuardAction::Continue);
        assert_ne!(state[0][0], 1.0, "flip applied even without detection");
        assert_eq!(state[0][1], 1.0, "only the chosen element is hit");
        let stats = guard.stats();
        assert_eq!(stats.checkpoint_count, 0);
        assert_eq!(stats.recoveries, 0);
    }

    #[test]
    fn bitflip_lands_in_the_catastrophic_bit_range() {
        for frac in [0.0, 0.37, 0.5, 0.999] {
            let mut state = [vec![1.5f64]];
            let flip = ArmedBitFlip { iter_frac: 0.0, elem_frac: 0.0, bit_frac: frac };
            let mut slices: Vec<&mut [f64]> = state.iter_mut().map(|v| v.as_mut_slice()).collect();
            apply_bitflip(&flip, &mut slices);
            let changed = state[0][0].to_bits() ^ 1.5f64.to_bits();
            let bit = changed.trailing_zeros();
            assert_eq!(changed.count_ones(), 1);
            assert!((55..63).contains(&bit), "bit {bit} outside the exponent field");
        }
    }

    #[test]
    fn parse_checkpoint_every_accepts_positive_integers_only() {
        assert_eq!(parse_checkpoint_every("1"), Ok(1));
        assert_eq!(parse_checkpoint_every(" 16 "), Ok(16));
        for bad in ["0", "-3", "2.5", "soon", ""] {
            let err = parse_checkpoint_every(bad).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "error must name the bad value: {err}");
            assert!(
                err.contains(&DEFAULT_CHECKPOINT_EVERY.to_string()),
                "error must name the fallback: {err}"
            );
        }
    }
}
