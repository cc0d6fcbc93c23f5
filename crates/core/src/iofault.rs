//! Deterministic I/O fault injection — the probe for level 6 of the
//! fault-tolerance stack (environmental faults).
//!
//! Every durable path in the stack — the npbd job journal, the suite
//! manifest, the checkpoint store, trace export — assumes a cooperative
//! host: writes land whole, fsync succeeds, the disk never fills. A
//! production host breaks every one of those assumptions, and the only
//! way to *prove* the recovery contracts ("a failed write loses at most
//! the in-flight record, surfaces a structured `io-degraded` state, and
//! `--resume`/`recover()` converge afterward") is to inject the
//! failures deterministically and test the aftermath.
//!
//! This module is that injector. Faults are seeded with the same NPB
//! 48-bit LCG (`randlc`) every other deterministic knob in the repo
//! uses, so a failing run is *reproducible*: `--io-inject enospc:42`
//! trips the same write, every time, on every machine.
//!
//! Kinds (`--io-inject KIND[:SEED]` / `NPB_IO_INJECT=KIND[:SEED]`):
//!
//! * `enospc`     — a write fails with "no space left on device";
//!   **sticky** (a full disk stays full), every later write fails too.
//! * `eio`        — a write fails with an I/O error; transient (the
//!   next write may succeed — flaky medium, not a dead one).
//! * `short-write` — a write persists only a prefix of the buffer and
//!   then fails: the torn-record case every JSONL reader must skip.
//! * `fsync-fail` — writes succeed but `sync_data` fails; **sticky**
//!   (a journal that cannot promise durability must seal itself).
//!
//! Each durable surface owns an independent [`FaultInjector`] whose
//! stream is derived from `(seed, surface-name)`, so arming injection
//! on the manifest does not perturb the journal's sequence. Every
//! durable operation draws one deviate; the op trips when the deviate
//! falls under [`TRIP_RATE`]. Tests recreate the injector to *predict*
//! which op fails instead of hardcoding magic counts.
//!
//! The structured failure surface is [`IoDegraded`]: call sites wrap
//! the raw `io::Error` with the surface name and operation so logs and
//! journals carry a machine-readable `io-degraded` record instead of a
//! panic or a silent loss.

use std::fs::File;
use std::io::{self, Write};
use std::sync::OnceLock;

use crate::random::Randlc;

/// Probability that any single durable operation trips an armed fault.
/// Low enough that a few records land first (the interesting recovery
/// cases), high enough that short smokes trip within a handful of ops.
pub const TRIP_RATE: f64 = 0.25;

/// The injectable environmental fault kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// Write fails, disk stays full (sticky).
    Enospc,
    /// Write fails once, medium recovers (transient).
    Eio,
    /// Write persists a prefix, then fails (torn record).
    ShortWrite,
    /// Writes succeed, `sync_data` fails (sticky).
    FsyncFail,
}

impl IoFaultKind {
    /// The CLI grammar, for usage strings.
    pub const KINDS: &'static str = "enospc|eio|short-write|fsync-fail";

    pub fn label(self) -> &'static str {
        match self {
            IoFaultKind::Enospc => "enospc",
            IoFaultKind::Eio => "eio",
            IoFaultKind::ShortWrite => "short-write",
            IoFaultKind::FsyncFail => "fsync-fail",
        }
    }

    fn parse(s: &str) -> Option<IoFaultKind> {
        match s {
            "enospc" => Some(IoFaultKind::Enospc),
            "eio" => Some(IoFaultKind::Eio),
            "short-write" => Some(IoFaultKind::ShortWrite),
            "fsync-fail" => Some(IoFaultKind::FsyncFail),
            _ => None,
        }
    }
}

/// A parsed `--io-inject` / `NPB_IO_INJECT` spec: what to inject and
/// the randlc seed that makes the trip sequence reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoFaultPlan {
    pub kind: IoFaultKind,
    pub seed: u64,
}

impl IoFaultPlan {
    /// Parse `KIND` or `KIND:SEED` (seed defaults to 1).
    pub fn parse(spec: &str) -> Result<IoFaultPlan, String> {
        let (kind_str, seed_str) = match spec.split_once(':') {
            Some((k, s)) => (k, Some(s)),
            None => (spec, None),
        };
        let kind = IoFaultKind::parse(kind_str).ok_or_else(|| {
            format!("--io-inject {spec:?}: unknown kind (expected {})", IoFaultKind::KINDS)
        })?;
        let seed = match seed_str {
            Some(s) => s
                .parse::<u64>()
                .map_err(|_| format!("--io-inject {spec:?}: seed must be an integer"))?,
            None => 1,
        };
        Ok(IoFaultPlan { kind, seed })
    }

    /// The canonical `KIND:SEED` spelling — what `parse` accepts, and
    /// what a parent exports as `NPB_IO_INJECT` for its children.
    pub fn spec(&self) -> String {
        format!("{}:{}", self.kind.label(), self.seed)
    }

    /// The ambient plan from `NPB_IO_INJECT`, parsed once per process.
    /// This is one of the stack's three environment variables, and no
    /// flag's default: `--io-inject` exports it so the plan crosses exec
    /// into procs workers and reaches every durable path without being
    /// threaded through each call. A malformed value warns once and
    /// disarms.
    pub fn from_env() -> Option<IoFaultPlan> {
        static AMBIENT: OnceLock<Option<IoFaultPlan>> = OnceLock::new();
        *AMBIENT.get_or_init(|| {
            let spec = std::env::var("NPB_IO_INJECT").ok()?;
            if spec.is_empty() {
                return None;
            }
            match IoFaultPlan::parse(&spec) {
                Ok(p) => Some(p),
                Err(e) => {
                    eprintln!("npb: NPB_IO_INJECT ignored: {e}");
                    None
                }
            }
        })
    }

    /// An explicit plan (CLI flag) if given, else the ambient env plan.
    pub fn resolve(explicit: Option<IoFaultPlan>) -> Option<IoFaultPlan> {
        explicit.or_else(IoFaultPlan::from_env)
    }
}

/// FNV-1a 64 over the surface name: mixes the per-surface stream apart
/// from every other surface armed with the same seed.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What the injector decided about one write.
#[derive(Debug)]
pub enum WriteFault {
    /// Let the write through untouched.
    Pass,
    /// Fail the write; nothing reaches the file.
    Fail(io::Error),
    /// Persist only the first `n` bytes, then fail (torn record).
    Short(usize, io::Error),
}

/// The per-surface deterministic fault source. One instance per durable
/// file; each durable op (`write`, `sync`) draws one deviate.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: IoFaultPlan,
    rng: Randlc,
    ops: u64,
    /// Sticky kinds (enospc, fsync-fail) stay tripped once tripped.
    stuck: bool,
}

impl FaultInjector {
    pub fn new(plan: IoFaultPlan, surface: &str) -> FaultInjector {
        // Mix the seed with the surface name and force the state odd:
        // the 46-bit LCG has full period only on odd state, and seed 0
        // would pin the stream at zero. The mix already spreads small
        // seeds over the whole range, so unlike `Randlc::from_seed` this
        // stream was never warmed — and must stay so to replay.
        let state =
            (plan.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ fnv1a64(surface.as_bytes())) | 1;
        FaultInjector { plan, rng: Randlc::from_state(state), ops: 0, stuck: false }
    }

    pub fn kind(&self) -> IoFaultKind {
        self.plan.kind
    }

    /// Durable ops observed so far (writes + syncs), for diagnostics.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Draw one deviate; true when this op trips.
    fn roll(&mut self) -> bool {
        self.ops += 1;
        if self.stuck {
            return true;
        }
        let trip = self.rng.next_f64() < TRIP_RATE;
        if trip && matches!(self.plan.kind, IoFaultKind::Enospc | IoFaultKind::FsyncFail) {
            self.stuck = true;
        }
        trip
    }

    fn injected(&self, what: &str) -> io::Error {
        io::Error::other(format!(
            "injected {what} ({}:{}, durable op {})",
            self.plan.kind.label(),
            self.plan.seed,
            self.ops
        ))
    }

    /// Consult the injector about a write of `len` bytes.
    pub fn on_write(&mut self, len: usize) -> WriteFault {
        match self.plan.kind {
            IoFaultKind::FsyncFail => WriteFault::Pass,
            IoFaultKind::Enospc => {
                if self.roll() {
                    WriteFault::Fail(self.injected("ENOSPC: no space left on device"))
                } else {
                    WriteFault::Pass
                }
            }
            IoFaultKind::Eio => {
                if self.roll() {
                    WriteFault::Fail(self.injected("EIO: input/output error"))
                } else {
                    WriteFault::Pass
                }
            }
            IoFaultKind::ShortWrite => {
                if self.roll() {
                    let kept = len / 2;
                    WriteFault::Short(kept, self.injected("short write"))
                } else {
                    WriteFault::Pass
                }
            }
        }
    }

    /// Consult the injector about a `sync_data`.
    pub fn on_sync(&mut self) -> Option<io::Error> {
        match self.plan.kind {
            IoFaultKind::FsyncFail => {
                if self.roll() {
                    Some(self.injected("fsync failure"))
                } else {
                    None
                }
            }
            // The write already failed for the other kinds; a sync of
            // what did land is honest.
            _ => None,
        }
    }
}

/// The structured degraded state a durable path surfaces when a write
/// fails: never a panic, never silent loss. Carries which surface
/// degraded, which operation, and the underlying error — enough for a
/// log line, a journal record, or an operator to act on.
#[derive(Debug, Clone)]
pub struct IoDegraded {
    /// Durable surface: `journal`, `manifest`, `checkpoint`, `trace`.
    pub surface: &'static str,
    /// Operation that failed: `write` or `sync`.
    pub op: &'static str,
    /// The underlying error text.
    pub error: String,
}

impl IoDegraded {
    pub fn new(surface: &'static str, op: &'static str, err: &io::Error) -> IoDegraded {
        IoDegraded { surface, op, error: err.to_string() }
    }

    /// One JSONL record, for journals/manifests that can still write
    /// (or for stderr when they cannot).
    pub fn json(&self) -> String {
        format!(
            "{{\"ev\":\"io-degraded\",\"surface\":\"{}\",\"op\":\"{}\",\"error\":{:?}}}",
            self.surface, self.op, self.error
        )
    }
}

impl std::fmt::Display for IoDegraded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "io-degraded: {} {} failed: {} \
             (at most the in-flight record is lost; resume/recover converges)",
            self.surface, self.op, self.error
        )
    }
}

/// A durable append-only file with optional fault injection: the drop-in
/// carrier for the journal/manifest/checkpoint write paths. Without an
/// armed plan it is a zero-branch passthrough to [`File`].
#[derive(Debug)]
pub struct FaultFile {
    file: File,
    injector: Option<FaultInjector>,
}

impl FaultFile {
    pub fn new(file: File, surface: &str, plan: Option<IoFaultPlan>) -> FaultFile {
        FaultFile { file, injector: plan.map(|p| FaultInjector::new(p, surface)) }
    }

    pub fn armed(&self) -> bool {
        self.injector.is_some()
    }

    pub fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        if let Some(inj) = &mut self.injector {
            match inj.on_write(buf.len()) {
                WriteFault::Pass => {}
                WriteFault::Fail(e) => return Err(e),
                WriteFault::Short(n, e) => {
                    // The torn-record case: a prefix reaches the disk,
                    // then the write dies. Best-effort persist of the
                    // prefix — the reader's torn-tail rule must cope.
                    let _ = self.file.write_all(&buf[..n]);
                    let _ = self.file.flush();
                    return Err(e);
                }
            }
        }
        self.file.write_all(buf)
    }

    pub fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }

    pub fn sync_data(&mut self) -> io::Result<()> {
        if let Some(inj) = &mut self.injector {
            if let Some(e) = inj.on_sync() {
                return Some(e).map_or(Ok(()), Err);
            }
        }
        self.file.sync_data()
    }

    /// One durable JSONL record: write + flush + fsync. The record and
    /// its newline go down as ONE write — one durable op, so a tripped
    /// injection fails (or tears) the whole record instead of landing
    /// the bytes and failing only the line terminator. The failure
    /// contract of every journal in the stack hangs off this: an error
    /// here may have torn at most this one record.
    pub fn append_record(&mut self, record: &str) -> io::Result<()> {
        let mut line = String::with_capacity(record.len() + 1);
        line.push_str(record);
        line.push('\n');
        self.write_all(line.as_bytes())?;
        self.flush()?;
        self.sync_data()
    }
}

/// A generic `Write` adapter with the same injection semantics, for
/// durable paths that stream through `io::Write` (trace export).
pub struct FaultWriter<W: Write> {
    inner: W,
    injector: Option<FaultInjector>,
}

impl<W: Write> FaultWriter<W> {
    pub fn new(inner: W, surface: &str, plan: Option<IoFaultPlan>) -> FaultWriter<W> {
        FaultWriter { inner, injector: plan.map(|p| FaultInjector::new(p, surface)) }
    }

    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(inj) = &mut self.injector {
            match inj.on_write(buf.len()) {
                WriteFault::Pass => {}
                WriteFault::Fail(e) => return Err(e),
                WriteFault::Short(n, e) => {
                    let kept = self.inner.write(&buf[..n]).unwrap_or(0);
                    let _ = self.inner.flush();
                    // A torn streaming write surfaces the error on the
                    // *next* call if anything landed, per Write's
                    // short-write contract; nothing landed → fail now.
                    if kept > 0 {
                        return Ok(kept);
                    }
                    return Err(e);
                }
            }
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("npb-iofault-{}-{name}", std::process::id()))
    }

    #[test]
    fn plan_parse_grammar() {
        assert_eq!(
            IoFaultPlan::parse("enospc:42").unwrap(),
            IoFaultPlan { kind: IoFaultKind::Enospc, seed: 42 }
        );
        assert_eq!(IoFaultPlan::parse("eio").unwrap().seed, 1);
        assert_eq!(IoFaultPlan::parse("short-write:7").unwrap().kind, IoFaultKind::ShortWrite);
        assert_eq!(IoFaultPlan::parse("fsync-fail:0").unwrap().kind, IoFaultKind::FsyncFail);
        assert!(IoFaultPlan::parse("ebadf:1").is_err(), "unknown kind rejected");
        assert!(IoFaultPlan::parse("enospc:x").is_err(), "non-integer seed rejected");
    }

    #[test]
    fn injector_is_deterministic_and_surface_mixed() {
        let plan = IoFaultPlan { kind: IoFaultKind::Enospc, seed: 42 };
        let trips = |surface: &str| -> Vec<bool> {
            let mut inj = FaultInjector::new(plan, surface);
            (0..32).map(|_| matches!(inj.on_write(64), WriteFault::Fail(_))).collect()
        };
        assert_eq!(trips("journal"), trips("journal"), "same seed+surface → same sequence");
        assert_ne!(
            trips("journal"),
            trips("manifest"),
            "different surfaces draw independent streams"
        );
        // enospc is sticky: everything after the first trip fails.
        let first = trips("journal").iter().position(|&t| t).expect("trips eventually");
        assert!(trips("journal")[first..].iter().all(|&t| t), "a full disk stays full");
    }

    /// Which of the first 64 durable ops trip, per (seed, surface): a
    /// recorded `--io-inject` plan must keep failing the same writes.
    #[test]
    fn trip_sequences_are_pinned() {
        for (seed, surface, want) in [
            (0u64, "manifest", 0x0a10_3401_b49a_480bu64),
            (1, "journal", 0x0811_0406_51a0_1010),
            (3, "checkpoint", 0x5810_190b_8904_41d0),
            (42, "trace", 0x8402_2113_6880_1046),
        ] {
            let mut inj = FaultInjector::new(IoFaultPlan { kind: IoFaultKind::Eio, seed }, surface);
            let got = (0..64).fold(0u64, |mask, op| {
                mask | (u64::from(matches!(inj.on_write(64), WriteFault::Fail(_))) << op)
            });
            assert_eq!(got, want, "{seed}:{surface} trips {got:#018x}");
        }
    }

    #[test]
    fn eio_is_transient_not_sticky() {
        let plan = IoFaultPlan { kind: IoFaultKind::Eio, seed: 3 };
        let mut inj = FaultInjector::new(plan, "journal");
        let seq: Vec<bool> =
            (0..64).map(|_| matches!(inj.on_write(64), WriteFault::Fail(_))).collect();
        let first = seq.iter().position(|&t| t).expect("trips eventually");
        assert!(
            seq[first..].iter().any(|&t| !t),
            "eio must let later writes through (flaky medium, not a dead one)"
        );
    }

    #[test]
    fn fault_file_enospc_loses_at_most_the_inflight_record() {
        let path = temp("enospc");
        let _ = fs::remove_file(&path);
        let plan = IoFaultPlan { kind: IoFaultKind::Enospc, seed: 42 };
        let file = fs::OpenOptions::new().create(true).append(true).open(&path).unwrap();
        let mut ff = FaultFile::new(file, "test", Some(plan));
        let mut landed = 0usize;
        let mut failed = false;
        for i in 0..64 {
            match ff.append_record(&format!("{{\"n\":{i}}}")) {
                Ok(()) => landed += 1,
                Err(e) => {
                    failed = true;
                    assert!(e.to_string().contains("injected"), "error names the injection");
                    break;
                }
            }
        }
        assert!(failed, "the armed writer must trip within 64 records");
        // Every *completed* record survives whole; a torn prefix of the
        // failed record is allowed but no full bogus line is.
        let text = fs::read_to_string(&path).unwrap();
        let whole: Vec<&str> = text.lines().filter(|l| l.ends_with('}')).collect();
        assert_eq!(whole.len(), landed, "completed records all reached the disk");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fault_file_short_write_tears_exactly_one_record() {
        let path = temp("short");
        let _ = fs::remove_file(&path);
        let plan = IoFaultPlan { kind: IoFaultKind::ShortWrite, seed: 5 };
        let file = fs::OpenOptions::new().create(true).append(true).open(&path).unwrap();
        let mut ff = FaultFile::new(file, "test", Some(plan));
        let record = "{\"payload\":\"0123456789abcdef0123456789abcdef\"}";
        let mut errs = 0usize;
        for _ in 0..64 {
            if ff.append_record(record).is_err() {
                errs += 1;
                if errs == 1 {
                    break;
                }
            }
        }
        assert_eq!(errs, 1, "short-write trips");
        let text = fs::read_to_string(&path).unwrap();
        // The torn prefix (if it is the record write that tore, not the
        // newline) is strictly shorter than the record and unparseable
        // as a full line; every earlier line is whole.
        for line in text.lines().take(text.lines().count().saturating_sub(1)) {
            assert_eq!(line, record, "earlier records are untouched");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fsync_fail_lets_writes_through_but_fails_sync() {
        let path = temp("fsync");
        let _ = fs::remove_file(&path);
        let plan = IoFaultPlan { kind: IoFaultKind::FsyncFail, seed: 9 };
        let file = fs::OpenOptions::new().create(true).append(true).open(&path).unwrap();
        let mut ff = FaultFile::new(file, "test", Some(plan));
        let mut tripped = false;
        for i in 0..64 {
            match ff.append_record(&format!("{{\"n\":{i}}}")) {
                Ok(()) => {}
                Err(e) => {
                    tripped = true;
                    assert!(e.to_string().contains("fsync"), "the failure is the sync: {e}");
                    break;
                }
            }
        }
        assert!(tripped, "fsync-fail trips within 64 records");
        // Sticky: once durability is gone it stays gone.
        let err = ff.append_record("{\"again\":true}");
        assert!(err.is_err(), "fsync failure is sticky");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn io_degraded_is_structured() {
        let d = IoDegraded::new("journal", "sync", &io::Error::other("injected fsync failure"));
        assert!(d.json().contains("\"ev\":\"io-degraded\""));
        assert!(d.json().contains("\"surface\":\"journal\""));
        assert!(d.to_string().contains("at most the in-flight record is lost"));
    }

    #[test]
    fn unarmed_fault_file_is_a_passthrough_control() {
        // The unguarded control: no plan, no injection, every record
        // lands — documents that injection is opt-in.
        let path = temp("control");
        let _ = fs::remove_file(&path);
        let file = fs::OpenOptions::new().create(true).append(true).open(&path).unwrap();
        let mut ff = FaultFile::new(file, "test", None);
        assert!(!ff.armed());
        for i in 0..128 {
            ff.append_record(&format!("{{\"n\":{i}}}")).expect("unarmed writer never fails");
        }
        assert_eq!(fs::read_to_string(&path).unwrap().lines().count(), 128);
        let _ = fs::remove_file(&path);
    }
}
