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

use crate::json::json_escape;
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
}

/// FNV-1a 64, the workspace's one byte hash. It mixes each surface's
/// fault stream apart from every other surface armed with the same
/// seed, and it is the content address of an `npbd` job: hermetic and
/// stable across processes, which a journal that outlives the daemon
/// requires.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
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
            "{{\"ev\":\"io-degraded\",\"surface\":\"{}\",\"op\":\"{}\",\"error\":\"{}\"}}",
            self.surface,
            self.op,
            json_escape(&self.error)
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

/// A file with optional fault injection: the carrier under
/// [`crate::log::AppendLog`] and the trace export. Without an armed plan
/// it is a zero-branch passthrough to [`File`].
#[derive(Debug)]
pub struct FaultFile {
    file: File,
    injector: Option<FaultInjector>,
}

impl FaultFile {
    pub fn new(file: File, surface: &str, plan: Option<IoFaultPlan>) -> FaultFile {
        FaultFile { file, injector: plan.map(|p| FaultInjector::new(p, surface)) }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

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
    fn fnv_is_the_reference_function() {
        // Reference vectors for 64-bit FNV-1a.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
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
    fn io_degraded_is_structured() {
        // The error text goes through the workspace's JSON escaping, so
        // a control character in it still makes a record that parses.
        let text = "injected fsync failure: bad \u{1b} byte, é";
        let d = IoDegraded::new("journal", "sync", &io::Error::other(text));
        let v = Json::parse(&d.json()).expect("the io-degraded record is valid JSON");
        assert_eq!(v.get_str("ev"), Some("io-degraded"));
        assert_eq!(v.get_str("surface"), Some("journal"));
        assert_eq!(v.get_str("error"), Some(text));
        assert!(d.to_string().contains("at most the in-flight record is lost"));
    }
}
