//! `npb-trace`: low-overhead per-rank span tracing for the whole stack.
//!
//! The paper's analysis (§4, Table 7) attributes scalability gaps to
//! *where* time goes inside each parallel region — compute vs. barrier
//! vs. dispatch — yet a wall-clock total cannot answer that. This module
//! is the observability substrate: the runtime records spans on per-rank
//! lanes, the benchmarks name their phases (CG `conj_grad`, MG
//! `resid`/`psinv`/..., BT/SP `rhs`/`x_solve`/...), and the driver
//! exports a JSON profile or a flamegraph-compatible folded dump.
//!
//! # Design
//!
//! * **Per-rank lanes, plain stores.** Each worker rank owns one
//!   cache-aligned lane: a fixed-capacity ring of raw [`Span`] records
//!   plus an exact per-`(region, kind)` accumulator table. Only the
//!   owning rank writes its lane, and every cross-thread read is ordered
//!   by the runtime's existing region dispatch/completion edges (the
//!   same argument that makes the runtime's task slot sound), so the hot
//!   path needs **no atomics and no locks** — a span is two `Instant`
//!   reads and a handful of plain stores.
//! * **Master lane.** Phase scopes, rollback spans and everything else
//!   recorded by the thread driving the run goes to a separate
//!   mutex-protected lane; those events are per-phase, not per-span, so
//!   the lock is cold.
//! * **Zero-cost when off.** Every entry point first reads one cached
//!   [`AtomicBool`]; when tracing is disabled that is the entire cost —
//!   no allocation, no `Instant::now()`, no lock.
//! * **Bounded memory.** Rings and accumulator tables are pre-sized at
//!   session creation ([`RING_CAPACITY`], [`MAX_REGIONS`]); an enabled
//!   session allocates nothing on the hot path, and ring overflow drops
//!   the oldest raw spans (counted in `dropped_spans`) while the exact
//!   accumulators keep every nanosecond.

use std::cell::UnsafeCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::report::json_escape;
use crate::timer::RegionStats;

/// Maximum distinct named regions per session. Registration past the cap
/// falls back to the untracked region 0 rather than allocating.
pub const MAX_REGIONS: usize = 64;

/// Raw spans retained per lane; overflow keeps the newest spans and
/// counts the dropped ones (the accumulators stay exact regardless).
pub const RING_CAPACITY: usize = 4096;

/// Region id 0: activity recorded outside any named phase scope.
pub const UNTRACKED: u32 = 0;

const UNTRACKED_NAME: &str = "(untracked)";

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A region body (worker lanes) or a named phase scope (master lane).
    Compute = 0,
    /// Barrier wait burned on the lock-free spin path.
    BarrierSpin = 1,
    /// Barrier wait spent asleep on the futex gate (the paper's `wait()`).
    BarrierPark = 2,
    /// Worker wait for region dispatch while a session was active.
    Dispatch = 3,
    /// An SDC-guard checkpoint rollback (master lane).
    Rollback = 4,
    /// Cross-process data exchange through the shared-memory segment
    /// (the `procs` backend's reductions / merges / scatter-gather).
    Exchange = 5,
    /// Cross-process futex-barrier wait (the `procs` backend's
    /// supervised rendezvous, rank-death polling included).
    ProcBarrier = 6,
    /// Scheduling overhead of the adaptive loop policies: guided chunk
    /// claims and feedback re-split decisions (worker lanes).
    Sched = 7,
}

/// Number of [`SpanKind`] variants (accumulator table stride).
pub const NKINDS: usize = 8;

impl SpanKind {
    /// Every kind, in discriminant order.
    pub const ALL: [SpanKind; NKINDS] = [
        SpanKind::Compute,
        SpanKind::BarrierSpin,
        SpanKind::BarrierPark,
        SpanKind::Dispatch,
        SpanKind::Rollback,
        SpanKind::Exchange,
        SpanKind::ProcBarrier,
        SpanKind::Sched,
    ];

    /// Stable lower-case label used in profiles and folded stacks.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::BarrierSpin => "barrier_spin",
            SpanKind::BarrierPark => "barrier_park",
            SpanKind::Dispatch => "dispatch",
            SpanKind::Rollback => "rollback",
            SpanKind::Exchange => "exchange",
            SpanKind::ProcBarrier => "proc_barrier",
            SpanKind::Sched => "sched",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Output format of the trace export (`--trace-format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// Hand-rolled JSON profile (regions + raw spans).
    #[default]
    Json,
    /// Flamegraph-compatible collapsed stacks: `region;kind <ns>`.
    Folded,
}

impl std::str::FromStr for TraceFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<TraceFormat, String> {
        match s {
            "json" => Ok(TraceFormat::Json),
            "folded" => Ok(TraceFormat::Folded),
            other => Err(format!("unknown trace format {other:?} (expected json|folded)")),
        }
    }
}

/// One recorded interval, in nanoseconds since the session epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Interned region id ([`UNTRACKED`] = outside any named phase).
    pub region: u32,
    /// What the interval measures.
    pub kind: SpanKind,
    /// Start, ns since the session epoch.
    pub start_ns: u64,
    /// End, ns since the session epoch (`>= start_ns` by construction).
    pub end_ns: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    count: u64,
    total_ns: u64,
}

/// A lane's storage: the raw-span ring plus the exact accumulators.
#[derive(Debug)]
struct LaneData {
    ring: Vec<Span>,
    /// Spans ever recorded (write index = `len % RING_CAPACITY`).
    len: u64,
    /// `region * NKINDS + kind`, pre-sized to `MAX_REGIONS * NKINDS`.
    accum: Vec<Acc>,
    /// Set when this rank's region body unwound (partial spans remain).
    poisoned: bool,
}

impl LaneData {
    fn new() -> LaneData {
        LaneData {
            ring: Vec::with_capacity(RING_CAPACITY),
            len: 0,
            accum: vec![Acc::default(); MAX_REGIONS * NKINDS],
            poisoned: false,
        }
    }

    fn record(&mut self, region: u32, kind: SpanKind, start_ns: u64, end_ns: u64) {
        let end_ns = end_ns.max(start_ns);
        let region = if (region as usize) < MAX_REGIONS { region } else { UNTRACKED };
        let a = &mut self.accum[region as usize * NKINDS + kind.index()];
        a.count += 1;
        a.total_ns += end_ns - start_ns;
        let span = Span { region, kind, start_ns, end_ns };
        if self.ring.len() < RING_CAPACITY {
            self.ring.push(span);
        } else {
            self.ring[(self.len % RING_CAPACITY as u64) as usize] = span;
        }
        self.len += 1;
    }

    /// Ring contents in chronological order.
    fn spans(&self) -> Vec<Span> {
        if self.ring.len() < RING_CAPACITY {
            return self.ring.clone();
        }
        let head = (self.len % RING_CAPACITY as u64) as usize;
        let mut out = Vec::with_capacity(RING_CAPACITY);
        out.extend_from_slice(&self.ring[head..]);
        out.extend_from_slice(&self.ring[..head]);
        out
    }

    fn dropped(&self) -> u64 {
        self.len.saturating_sub(self.ring.len() as u64)
    }

    fn any_activity(&self) -> bool {
        self.len > 0 || self.poisoned
    }

    fn clear(&mut self) {
        self.ring.clear();
        self.len = 0;
        self.accum.iter_mut().for_each(|a| *a = Acc::default());
        self.poisoned = false;
    }
}

/// One worker rank's lane. Cache-line aligned so rank-local stores never
/// false-share with a neighbour's lane.
#[repr(align(128))]
struct Lane {
    data: UnsafeCell<LaneData>,
}

// SAFETY: the owner-writes-only protocol. During a region, lane `t` is
// written exclusively by the worker thread running rank `t` (enforced by
// the runtime: `TraceSession::record`'s contract). Cross-thread reads
// (summaries, profile export, `reset`) happen on the thread driving the
// run strictly between regions, where the runtime's dispatch publication
// (SeqCst epoch bump) and completion drain (release/acquire on the
// remaining-count) order them against every worker store — exactly the
// argument that makes the runtime's shared task slot sound.
unsafe impl Sync for Lane {}

/// Run metadata carried into the exported profile.
#[derive(Debug, Clone, Default)]
pub struct ProfileMeta {
    /// Benchmark name ("CG", ...); empty until the driver sets it.
    pub bench: String,
    /// Problem class ("S", ...).
    pub class: String,
    /// Worker threads (0 = serial path).
    pub threads: usize,
    /// Reported wall-clock seconds of the timed section (0 until known).
    pub wall_secs: f64,
}

/// Derived per-region metrics, the unit of `BenchReport::regions` and of
/// the profile's `regions` array.
#[derive(Debug, Clone)]
pub struct RegionSummary {
    /// Phase name as registered by the benchmark.
    pub name: String,
    /// Completed master-lane scopes of this region.
    pub count: u64,
    /// Master-lane (wall attributable) seconds inside the region.
    pub total_secs: f64,
    /// Per-rank compute seconds (worker lanes with any activity; empty
    /// on the serial path).
    pub rank_secs: Vec<f64>,
    /// min/max/mean over `rank_secs` (over `total_secs` when serial).
    pub stats: RegionStats,
    /// Barrier wait burned spinning, summed over ranks.
    pub barrier_spin_secs: f64,
    /// Barrier wait spent parked, summed over ranks.
    pub barrier_park_secs: f64,
    /// Dispatch wait attributed to this region, summed over ranks.
    pub dispatch_secs: f64,
    /// Cross-process shared-memory exchange time (`procs` backend).
    pub exchange_secs: f64,
    /// Cross-process futex-barrier wait (`procs` backend), supervision
    /// polling included.
    pub proc_barrier_secs: f64,
    /// Adaptive-scheduling overhead (guided claims, feedback re-split
    /// decisions), summed over ranks.
    pub sched_secs: f64,
    /// SDC-guard rollbacks recorded inside this region.
    pub rollbacks: u64,
}

impl RegionSummary {
    /// Load imbalance: max/mean of per-rank compute time (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        self.stats.imbalance()
    }

    /// Fraction of the region's rank-time spent waiting at barriers.
    pub fn barrier_share(&self) -> f64 {
        let barrier = self.barrier_spin_secs + self.barrier_park_secs;
        let compute: f64 = self.rank_secs.iter().sum::<f64>().max(self.total_secs);
        let denom = barrier + compute;
        if denom > 0.0 {
            barrier / denom
        } else {
            0.0
        }
    }
}

/// A tracing session: the per-rank lanes, the region-name registry and
/// the export configuration. Created by the driver (or a test), shared
/// with the runtime via [`install`] and the team's trace handle.
pub struct TraceSession {
    epoch: Instant,
    /// Worker lanes, index = rank.
    lanes: Vec<Lane>,
    /// Lane for the thread driving the run (phase scopes, rollbacks,
    /// the serial path). Mutex-protected: master events are per-phase.
    master: Mutex<LaneData>,
    /// Interned region names; index = region id, `[0]` = untracked.
    names: Mutex<Vec<String>>,
    /// Region id the master most recently entered; workers attribute
    /// their spans to it (Relaxed: ordered by the dispatch publication).
    current: AtomicU32,
    meta: Mutex<ProfileMeta>,
    /// Where the profile goes (`--trace`); also the emergency-dump
    /// target when the watchdog terminates the process.
    output: Mutex<Option<(PathBuf, TraceFormat)>>,
    /// Latest chosen feedback boundaries per `(region, site, extent)`,
    /// noted by rank 0 when a re-split is actually used; exported as the
    /// profile's `sched` array. Cold: one uncontended lock per note,
    /// only while tracing.
    sched_notes: Mutex<Vec<SchedNote>>,
}

/// One chosen-boundary record for the profile's `sched` array.
#[derive(Debug, Clone)]
struct SchedNote {
    region: u32,
    file: String,
    line: u32,
    len: usize,
    bounds: Vec<usize>,
}

/// Most chosen-boundary notes retained (distinct scheduled sites are
/// few; this only guards against a pathological caller).
const MAX_SCHED_NOTES: usize = 128;

impl TraceSession {
    /// Pre-size a session for `worker_ranks` worker lanes (use the team
    /// width; 1 is fine for serial runs, whose spans use the master
    /// lane). All memory is allocated here, none on the hot path.
    pub fn new(worker_ranks: usize) -> Arc<TraceSession> {
        Arc::new(TraceSession {
            epoch: Instant::now(),
            lanes: (0..worker_ranks)
                .map(|_| Lane { data: UnsafeCell::new(LaneData::new()) })
                .collect(),
            master: Mutex::new(LaneData::new()),
            names: Mutex::new(vec![UNTRACKED_NAME.to_string()]),
            current: AtomicU32::new(UNTRACKED),
            meta: Mutex::new(ProfileMeta::default()),
            output: Mutex::new(None),
            sched_notes: Mutex::new(Vec::new()),
        })
    }

    /// Number of worker lanes this session was sized for.
    pub fn worker_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Nanoseconds since the session epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.ns_since_epoch(Instant::now())
    }

    /// Convert an `Instant` to session-relative nanoseconds (an instant
    /// before the epoch saturates to 0).
    #[inline]
    pub fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.epoch).map_or(0, |d| d.as_nanos() as u64)
    }

    /// Intern a region name, returning its id. Idempotent per name;
    /// past [`MAX_REGIONS`] names the untracked id is returned instead
    /// of growing the accumulator tables.
    pub fn intern(&self, name: &str) -> u32 {
        let mut names = lock(&self.names);
        if let Some(id) = names.iter().position(|n| n == name) {
            return id as u32;
        }
        if names.len() >= MAX_REGIONS {
            return UNTRACKED;
        }
        names.push(name.to_string());
        (names.len() - 1) as u32
    }

    /// Every interned region name, index = region id.
    pub fn region_names(&self) -> Vec<String> {
        lock(&self.names).clone()
    }

    /// Region id the master most recently entered.
    #[inline]
    pub fn current_region(&self) -> u32 {
        self.current.load(Ordering::Relaxed)
    }

    /// Enter region `id`, returning the previous id (for scope nesting).
    pub fn set_current_region(&self, id: u32) -> u32 {
        self.current.swap(id, Ordering::Relaxed)
    }

    /// Record a span on worker rank `rank`'s lane. Plain stores, no
    /// atomics — this is the hot path.
    ///
    /// # Safety
    ///
    /// The caller must be the thread currently running rank `rank`'s
    /// region body (the runtime's worker loop / barrier), so the lane
    /// has exactly one writer; cross-thread reads are ordered by the
    /// region dispatch/completion edges (see the `Sync` impl).
    #[inline]
    pub unsafe fn record(
        &self,
        rank: usize,
        region: u32,
        kind: SpanKind,
        start_ns: u64,
        end_ns: u64,
    ) {
        if let Some(lane) = self.lanes.get(rank) {
            (*lane.data.get()).record(region, kind, start_ns, end_ns);
        }
    }

    /// Mark rank `rank`'s lane poisoned: its region body unwound, so the
    /// lane holds partial spans.
    ///
    /// # Safety
    ///
    /// Same single-writer contract as [`TraceSession::record`].
    pub unsafe fn mark_poisoned(&self, rank: usize) {
        if let Some(lane) = self.lanes.get(rank) {
            (*lane.data.get()).poisoned = true;
        }
    }

    /// Record a span on the master lane (phase scopes, rollbacks, serial
    /// activity). Cold path — takes the master-lane lock.
    pub fn record_master(&self, region: u32, kind: SpanKind, start_ns: u64, end_ns: u64) {
        lock(&self.master).record(region, kind, start_ns, end_ns);
    }

    /// Set the run metadata exported with the profile.
    pub fn set_meta(&self, bench: &str, class: &str, threads: usize) {
        let mut m = lock(&self.meta);
        m.bench = bench.to_string();
        m.class = class.to_string();
        m.threads = threads;
    }

    /// Record the reported wall-clock seconds of the timed section.
    pub fn set_wall_secs(&self, secs: f64) {
        lock(&self.meta).wall_secs = secs;
    }

    /// Configure the export target (also used by the watchdog's
    /// emergency dump).
    pub fn set_output(&self, path: &Path, format: TraceFormat) {
        *lock(&self.output) = Some((path.to_path_buf(), format));
    }

    /// Clear every lane (rings, accumulators, poison marks), keeping the
    /// interned names. Benchmarks call this (via [`reset`]) when their
    /// timed section starts, so warm-up work does not inflate the
    /// profile.
    ///
    /// Must be called from the thread driving the run with no region in
    /// flight: the lane writes here are ordered against worker activity
    /// by the same dispatch/completion edges as every other cross-thread
    /// lane access.
    pub fn reset(&self) {
        for lane in &self.lanes {
            // SAFETY: no region is in flight (caller contract), so no
            // worker is writing; the next region's dispatch publication
            // orders these stores before any future worker access.
            unsafe { (*lane.data.get()).clear() };
        }
        lock(&self.master).clear();
        lock(&self.sched_notes).clear();
        self.current.store(UNTRACKED, Ordering::Relaxed);
    }

    /// Note the boundary table an adaptive schedule chose for the loop
    /// at `file:line` partitioning `0..len` inside `region` (latest
    /// note per `(region, site, len)` wins). Called by the runtime's
    /// rank 0 when a feedback re-split is actually applied, so the
    /// profile shows *where* the boundaries settled.
    pub fn note_sched(&self, region: u32, file: &str, line: u32, len: usize, bounds: &[usize]) {
        let mut notes = lock(&self.sched_notes);
        if let Some(n) = notes
            .iter_mut()
            .find(|n| n.region == region && n.line == line && n.len == len && n.file == file)
        {
            if n.bounds != bounds {
                n.bounds = bounds.to_vec();
            }
            return;
        }
        if notes.len() < MAX_SCHED_NOTES {
            notes.push(SchedNote {
                region,
                file: file.to_string(),
                line,
                len,
                bounds: bounds.to_vec(),
            });
        }
    }

    /// Read a worker lane. Only called between regions (summaries,
    /// export) or best-effort from the watchdog's emergency dump.
    #[allow(clippy::mut_from_ref)]
    fn lane_data(&self, rank: usize) -> &LaneData {
        // SAFETY: caller contract as for `reset` — no region in flight.
        unsafe { &*self.lanes[rank].data.get() }
    }

    /// Ranks whose lane was poisoned by an unwinding region body.
    pub fn poisoned_ranks(&self) -> Vec<usize> {
        (0..self.lanes.len()).filter(|&r| self.lane_data(r).poisoned).collect()
    }

    /// Raw spans dropped to ring overflow, summed over every lane.
    pub fn dropped_spans(&self) -> u64 {
        let mut n: u64 = lock(&self.master).dropped();
        for r in 0..self.lanes.len() {
            n += self.lane_data(r).dropped();
        }
        n
    }

    /// Every retained raw span, as `(rank, span)`; rank −1 is the master
    /// lane. Chronological per lane.
    pub fn spans(&self) -> Vec<(i64, Span)> {
        let mut out = Vec::new();
        for r in 0..self.lanes.len() {
            out.extend(self.lane_data(r).spans().into_iter().map(|s| (r as i64, s)));
        }
        out.extend(lock(&self.master).spans().into_iter().map(|s| (-1, s)));
        out
    }

    /// Summarize every region that saw any activity, in id order.
    pub fn summarize(&self) -> Vec<RegionSummary> {
        let names = self.region_names();
        let active: Vec<usize> =
            (0..self.lanes.len()).filter(|&r| self.lane_data(r).any_activity()).collect();
        let master = lock(&self.master);
        let mut out = Vec::new();
        for (id, name) in names.iter().enumerate() {
            let at = |lane: &LaneData, kind: SpanKind| lane.accum[id * NKINDS + kind.index()];
            let scope = at(&master, SpanKind::Compute);
            let rank_secs: Vec<f64> = active
                .iter()
                .map(|&r| at(self.lane_data(r), SpanKind::Compute).total_ns as f64 * 1e-9)
                .collect();
            let sum_kind = |kind: SpanKind| -> f64 {
                let mut ns = at(&master, kind).total_ns;
                for &r in &active {
                    ns += at(self.lane_data(r), kind).total_ns;
                }
                ns as f64 * 1e-9
            };
            let total_secs = scope.total_ns as f64 * 1e-9;
            let barrier_spin_secs = sum_kind(SpanKind::BarrierSpin);
            let barrier_park_secs = sum_kind(SpanKind::BarrierPark);
            let dispatch_secs = sum_kind(SpanKind::Dispatch);
            let exchange_secs = sum_kind(SpanKind::Exchange);
            let proc_barrier_secs = sum_kind(SpanKind::ProcBarrier);
            let sched_secs = sum_kind(SpanKind::Sched);
            let rollbacks = at(&master, SpanKind::Rollback).count;
            let worker_compute: f64 = rank_secs.iter().sum();
            if scope.count == 0
                && worker_compute == 0.0
                && barrier_spin_secs
                    + barrier_park_secs
                    + dispatch_secs
                    + exchange_secs
                    + proc_barrier_secs
                    + sched_secs
                    == 0.0
                && rollbacks == 0
            {
                continue;
            }
            let stats = if rank_secs.iter().any(|&s| s > 0.0) {
                RegionStats::from_samples(&rank_secs)
            } else {
                RegionStats::from_samples(&[total_secs])
            };
            out.push(RegionSummary {
                name: name.clone(),
                count: scope.count,
                total_secs,
                rank_secs,
                stats,
                barrier_spin_secs,
                barrier_park_secs,
                dispatch_secs,
                exchange_secs,
                proc_barrier_secs,
                sched_secs,
                rollbacks,
            });
        }
        out
    }

    /// Render the JSON profile (one line; parses with the harness's
    /// hand-rolled reader). `truncated` marks an emergency dump taken
    /// while a region may still have been in flight.
    pub fn render_json_profile(&self, truncated: bool) -> String {
        let meta = lock(&self.meta).clone();
        let names = self.region_names();
        let mut s = String::with_capacity(4096);
        s.push_str(&format!(
            "{{\"bench\":\"{}\",\"class\":\"{}\",\"threads\":{},\"wall_secs\":{},\
             \"truncated\":{},\"dropped_spans\":{},\"poisoned_ranks\":[",
            json_escape(&meta.bench),
            json_escape(&meta.class),
            meta.threads,
            finite(meta.wall_secs),
            truncated,
            self.dropped_spans(),
        ));
        let poisoned = self.poisoned_ranks();
        push_joined(&mut s, poisoned.iter().map(|r| r.to_string()));
        s.push_str("],\"regions\":[");
        let items = self.summarize().into_iter().map(|r| {
            format!(
                "{{\"name\":\"{}\",\"count\":{},\"secs\":{},\"min\":{},\"max\":{},\"mean\":{},\
                 \"imbalance\":{},\"barrier_spin_secs\":{},\"barrier_park_secs\":{},\
                 \"dispatch_secs\":{},\"exchange_secs\":{},\"proc_barrier_secs\":{},\
                 \"sched_secs\":{},\"barrier_share\":{},\"rollbacks\":{},\"rank_secs\":[{}]}}",
                json_escape(&r.name),
                r.count,
                finite(r.total_secs),
                finite(r.stats.min),
                finite(r.stats.max),
                finite(r.stats.mean),
                finite(r.imbalance()),
                finite(r.barrier_spin_secs),
                finite(r.barrier_park_secs),
                finite(r.dispatch_secs),
                finite(r.exchange_secs),
                finite(r.proc_barrier_secs),
                finite(r.sched_secs),
                finite(r.barrier_share()),
                r.rollbacks,
                r.rank_secs.iter().map(|&v| finite(v).to_string()).collect::<Vec<_>>().join(","),
            )
        });
        push_joined(&mut s, items);
        s.push_str("],\"sched\":[");
        let name_of_note =
            |id: u32| names.get(id as usize).map_or(UNTRACKED_NAME, |n| n.as_str()).to_string();
        let notes = lock(&self.sched_notes).clone();
        let items = notes.into_iter().map(|n| {
            format!(
                "{{\"region\":\"{}\",\"site\":\"{}:{}\",\"len\":{},\"bounds\":[{}]}}",
                json_escape(&name_of_note(n.region)),
                json_escape(&n.file),
                n.line,
                n.len,
                n.bounds.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(","),
            )
        });
        push_joined(&mut s, items);
        s.push_str("],\"spans\":[");
        let name_of = |id: u32| names.get(id as usize).map_or(UNTRACKED_NAME, |n| n.as_str());
        let items = self.spans().into_iter().map(|(rank, sp)| {
            format!(
                "{{\"rank\":{},\"region\":\"{}\",\"kind\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                rank,
                json_escape(name_of(sp.region)),
                sp.kind.label(),
                sp.start_ns,
                sp.end_ns
            )
        });
        push_joined(&mut s, items);
        s.push_str("]}");
        s
    }

    /// Render the flamegraph-compatible collapsed-stack dump: one line
    /// per `(region, kind)` with activity, `region;kind <total_ns>`.
    /// Worker lanes are aggregated; the master lane stands in on the
    /// serial path (where no worker lane ever records).
    pub fn render_folded(&self) -> String {
        let names = self.region_names();
        let active: Vec<usize> =
            (0..self.lanes.len()).filter(|&r| self.lane_data(r).any_activity()).collect();
        let master = lock(&self.master);
        let mut s = String::new();
        for (id, name) in names.iter().enumerate() {
            for kind in SpanKind::ALL {
                let mut ns: u64 = active
                    .iter()
                    .map(|&r| self.lane_data(r).accum[id * NKINDS + kind.index()].total_ns)
                    .sum();
                let mut count: u64 = active
                    .iter()
                    .map(|&r| self.lane_data(r).accum[id * NKINDS + kind.index()].count)
                    .sum();
                // Master-lane-only kinds (rollbacks, the procs backend's
                // exchange / cross-process barrier) are included even
                // when worker lanes are active.
                if active.is_empty()
                    || matches!(
                        kind,
                        SpanKind::Rollback | SpanKind::Exchange | SpanKind::ProcBarrier
                    )
                {
                    let a = master.accum[id * NKINDS + kind.index()];
                    ns += a.total_ns;
                    count += a.count;
                }
                if count > 0 {
                    s.push_str(&format!("{};{} {}\n", folded_frame(name), kind.label(), ns));
                }
            }
        }
        s
    }

    /// Write the configured output (path + format from
    /// [`TraceSession::set_output`]); no-op if none was configured.
    /// The trace path honours the ambient `NPB_IO_INJECT` plan like
    /// every other durable surface: an injected failure here loses at
    /// most this export, never the run that produced it.
    pub fn write_output(&self, truncated: bool) -> std::io::Result<()> {
        let Some((path, format)) = lock(&self.output).clone() else { return Ok(()) };
        let body = match format {
            TraceFormat::Json => {
                let mut b = self.render_json_profile(truncated);
                b.push('\n');
                b
            }
            TraceFormat::Folded => self.render_folded(),
        };
        let f = std::fs::File::create(&path)?;
        let mut f =
            crate::iofault::FaultFile::new(f, "trace", crate::iofault::IoFaultPlan::from_env());
        f.write_all(body.as_bytes())?;
        f.flush()
    }
}

/// A folded-stack frame must not contain `;`, space or newline (the
/// grammar's separators); region names are identifiers in practice, but
/// sanitize defensively.
fn folded_frame(name: &str) -> String {
    name.chars().map(|c| if c == ';' || c.is_whitespace() { '_' } else { c }).collect()
}

/// Shortest-roundtrip float that is always valid JSON (non-finite
/// values, which JSON cannot carry, degrade to 0).
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn push_joined(s: &mut String, items: impl Iterator<Item = String>) {
    let mut first = true;
    for item in items {
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(&item);
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------
// Global session (the disabled fast path is one Relaxed bool load)
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static SESSION: Mutex<Option<Arc<TraceSession>>> = Mutex::new(None);

/// True while a session is installed. This is the cached bool every
/// entry point branches on; when false, tracing costs exactly this load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install `session` as the process-global tracing session.
pub fn install(session: Arc<TraceSession>) {
    *lock(&SESSION) = Some(session);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Uninstall and return the global session (tracing becomes disabled).
pub fn uninstall() -> Option<Arc<TraceSession>> {
    ENABLED.store(false, Ordering::SeqCst);
    lock(&SESSION).take()
}

/// The installed session, if any.
pub fn current() -> Option<Arc<TraceSession>> {
    if !enabled() {
        return None;
    }
    lock(&SESSION).clone()
}

/// Process-global count of timed-section starts (every [`reset`] call
/// bumps it, tracing session or not). Fault injectors snapshot this at
/// arm time to hold their fire through untimed warm-up: a perturbation
/// that lands outside the measured window is invisible to the clock it
/// exists to perturb: the injected slowdown must show up in `time_secs`.
static TIMED_EPOCH: AtomicU64 = AtomicU64::new(0);

/// The current timed-section epoch (see [`reset`]).
pub fn timed_epoch() -> u64 {
    TIMED_EPOCH.load(Ordering::Relaxed)
}

/// Clear the installed session's lanes (see [`TraceSession::reset`]);
/// benchmarks call this when their timed section starts so untimed
/// warm-up work never inflates the profile. The session clearing is a
/// no-op when tracing is off, but the timed-section epoch always
/// advances — deferred fault injection keys on it.
pub fn reset() {
    TIMED_EPOCH.fetch_add(1, Ordering::Relaxed);
    if let Some(s) = current() {
        s.reset();
    }
}

/// Best-effort profile flush for fatal paths (the region watchdog calls
/// this immediately before terminating the process): writes the
/// configured output with the `truncated` marker set. Lane reads here
/// may race a wedged rank's stores — acceptable for a crash dump, and
/// every span is validated (`end >= start`) at record time.
pub fn emergency_dump() {
    if let Some(s) = current() {
        let _ = s.write_output(true);
    }
}

// ---------------------------------------------------------------------
// Phase scopes (what benchmarks call) and master spans (guard hooks)
// ---------------------------------------------------------------------

/// Open a named phase scope: enters the region (workers attribute their
/// spans to it) and records a master-lane compute span on drop. Inert —
/// one atomic load, no allocation — when tracing is disabled.
pub fn scope(name: &str) -> PhaseScope {
    if !enabled() {
        return PhaseScope { session: None, id: UNTRACKED, prev: UNTRACKED, start_ns: 0 };
    }
    match current() {
        None => PhaseScope { session: None, id: UNTRACKED, prev: UNTRACKED, start_ns: 0 },
        Some(s) => {
            let id = s.intern(name);
            let prev = s.set_current_region(id);
            let start_ns = s.now();
            PhaseScope { session: Some(s), id, prev, start_ns }
        }
    }
}

/// An open phase scope; closing (drop) records the span and restores the
/// enclosing region.
pub struct PhaseScope {
    session: Option<Arc<TraceSession>>,
    id: u32,
    prev: u32,
    start_ns: u64,
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        if let Some(s) = self.session.take() {
            let end = s.now();
            s.set_current_region(self.prev);
            s.record_master(self.id, SpanKind::Compute, self.start_ns, end);
        }
    }
}

/// Open a master-lane span of `kind` attributed to the current region
/// (the SDC guard uses this to make rollbacks visible in the profile).
/// Inert when tracing is disabled; [`MasterSpan::cancel`] discards it.
pub fn master_span(kind: SpanKind) -> MasterSpan {
    match current() {
        None => MasterSpan { session: None, kind, start_ns: 0 },
        Some(s) => {
            let start_ns = s.now();
            MasterSpan { session: Some(s), kind, start_ns }
        }
    }
}

/// See [`master_span`].
pub struct MasterSpan {
    session: Option<Arc<TraceSession>>,
    kind: SpanKind,
    start_ns: u64,
}

impl MasterSpan {
    /// Discard without recording.
    pub fn cancel(mut self) {
        self.session = None;
    }
}

impl Drop for MasterSpan {
    fn drop(&mut self) {
        if let Some(s) = self.session.take() {
            let end = s.now();
            let region = s.current_region();
            s.record_master(region, self.kind, self.start_ns, end);
        }
    }
}

/// Unit tests that install the global session (or can record into one —
/// e.g. a guard rollback) take this lock so the harness's parallel test
/// threads cannot interleave with an installed session.
#[cfg(test)]
pub(crate) static GLOBAL_TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    use super::GLOBAL_TEST_LOCK as GLOBAL;

    #[test]
    fn intern_is_idempotent_and_capped() {
        let s = TraceSession::new(2);
        let a = s.intern("alpha");
        let b = s.intern("beta");
        assert_ne!(a, UNTRACKED);
        assert_ne!(a, b);
        assert_eq!(s.intern("alpha"), a);
        for i in 0..2 * MAX_REGIONS {
            s.intern(&format!("r{i}"));
        }
        assert_eq!(s.intern("overflow"), UNTRACKED, "past the cap falls back to untracked");
        assert_eq!(s.region_names().len(), MAX_REGIONS);
    }

    #[test]
    fn spans_accumulate_and_clamp() {
        let s = TraceSession::new(1);
        let id = s.intern("phase");
        // SAFETY: single-threaded test, this thread owns rank 0.
        unsafe {
            s.record(0, id, SpanKind::Compute, 100, 300);
            s.record(0, id, SpanKind::Compute, 400, 350); // end < start clamps
            s.record(0, id, SpanKind::BarrierSpin, 300, 400);
        }
        s.record_master(id, SpanKind::Compute, 0, 1_000);
        let sums = s.summarize();
        assert_eq!(sums.len(), 1);
        let r = &sums[0];
        assert_eq!(r.name, "phase");
        assert_eq!(r.count, 1);
        assert_eq!(r.rank_secs.len(), 1);
        assert!((r.rank_secs[0] - 200e-9).abs() < 1e-15);
        assert!((r.barrier_spin_secs - 100e-9).abs() < 1e-15);
        let all = s.spans();
        assert_eq!(all.len(), 4);
        assert!(all.iter().all(|(_, sp)| sp.end_ns >= sp.start_ns));
    }

    #[test]
    fn ring_overflow_drops_oldest_but_accumulators_stay_exact() {
        let s = TraceSession::new(1);
        let id = s.intern("hot");
        let n = RING_CAPACITY as u64 + 100;
        for i in 0..n {
            // SAFETY: single-threaded test.
            unsafe { s.record(0, id, SpanKind::Compute, i, i + 1) };
        }
        assert_eq!(s.dropped_spans(), 100);
        let spans = s.spans();
        assert_eq!(spans.len(), RING_CAPACITY);
        assert_eq!(spans[0].1.start_ns, 100, "oldest dropped, order kept");
        let total = s.summarize()[0].rank_secs[0];
        assert!((total - n as f64 * 1e-9).abs() < 1e-12, "accumulator kept every span");
    }

    #[test]
    fn scope_is_inert_when_disabled_and_records_when_installed() {
        let _g = lock(&GLOBAL);
        assert!(!enabled());
        {
            let _g = scope("nothing");
        }
        let s = TraceSession::new(1);
        install(s.clone());
        {
            let _g = scope("outer");
            assert_eq!(s.current_region(), s.intern("outer"));
            {
                let _h = scope("inner");
                assert_eq!(s.current_region(), s.intern("inner"));
            }
            assert_eq!(s.current_region(), s.intern("outer"), "nesting restores");
        }
        let got = uninstall().expect("session was installed");
        assert_eq!(got.current_region(), UNTRACKED);
        let sums = got.summarize();
        let names: Vec<&str> = sums.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"outer") && names.contains(&"inner"), "{names:?}");
    }

    #[test]
    fn folded_lines_follow_the_grammar() {
        let s = TraceSession::new(1);
        let id = s.intern("my phase;x"); // hostile name gets sanitized
                                         // SAFETY: single-threaded test.
        unsafe { s.record(0, id, SpanKind::Compute, 0, 50) };
        s.record_master(id, SpanKind::Rollback, 50, 60);
        let folded = s.render_folded();
        assert!(!folded.is_empty());
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("frame<space>count");
            count.parse::<u64>().expect("count is an integer");
            let parts: Vec<&str> = stack.split(';').collect();
            assert_eq!(parts.len(), 2, "exactly region;kind: {line}");
            assert!(parts.iter().all(|p| !p.is_empty() && !p.contains(char::is_whitespace)));
        }
        assert!(folded.contains("my_phase_x;compute "));
        assert!(folded.contains("my_phase_x;rollback "));
    }

    #[test]
    fn reset_clears_lanes_but_keeps_names() {
        let s = TraceSession::new(2);
        let id = s.intern("phase");
        // SAFETY: single-threaded test.
        unsafe {
            s.record(1, id, SpanKind::Compute, 0, 10);
            s.mark_poisoned(1);
        }
        assert_eq!(s.poisoned_ranks(), vec![1]);
        s.reset();
        assert!(s.poisoned_ranks().is_empty());
        assert!(s.spans().is_empty());
        assert_eq!(s.intern("phase"), id, "names survive reset");
    }

    #[test]
    fn master_span_cancel_discards() {
        let _g = lock(&GLOBAL);
        let s = TraceSession::new(0);
        install(s);
        master_span(SpanKind::Rollback).cancel();
        {
            let _sp = master_span(SpanKind::Rollback);
        }
        let s = uninstall().unwrap();
        let sums = s.summarize();
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].rollbacks, 1, "one recorded, one cancelled");
    }

    #[test]
    fn json_profile_has_the_advertised_fields() {
        let s = TraceSession::new(1);
        s.set_meta("CG", "S", 2);
        s.set_wall_secs(0.5);
        let id = s.intern("conj_grad");
        // SAFETY: single-threaded test.
        unsafe { s.record(0, id, SpanKind::Compute, 0, 100) };
        let j = s.render_json_profile(false);
        for needle in [
            "\"bench\":\"CG\"",
            "\"class\":\"S\"",
            "\"threads\":2",
            "\"wall_secs\":0.5",
            "\"truncated\":false",
            "\"regions\":[",
            "\"name\":\"conj_grad\"",
            "\"imbalance\":",
            "\"spans\":[",
            "\"kind\":\"compute\"",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
        assert!(s.render_json_profile(true).contains("\"truncated\":true"));
    }
}
