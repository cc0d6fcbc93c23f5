//! The platform phases: class-S jobs through the layers above the
//! kernels, where spawn, the supervisor's 10 ms poll, JSON, manifest and
//! journal fsync, admission, the result cache and the procs backend's
//! shared-memory exchange cost more than the kernels themselves.
//!
//! (a) `npb_harness::run_cell` with a `Manifest`, one call at a time;
//! (b) a real `npbd` (2 workers) under two closed-loop clients, every
//!     submit cold (a fresh seed-derived `JobSpec.seed`);
//! (c) the same clients resubmitting what they ran: cache hits;
//! (d) EP.S, IS.W and CG.W under `Backend::Procs` width 2, beside the
//!     same cells under a Team of 2.
//!
//! Each phase runs for its share of the budget; what it gets through in
//! that time is the sample count the report states. (a) and (d), whose
//! cells report their best pass, run in [`Budget::parts`] slices spread
//! over the run — a(1) b c d(1) a(2) d(2) … — so that a busy spell of the
//! host, which lasts 10-20 s, does not cover every pass of a cell.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use npb_core::{Class, ResourceLimits, Style};
use npb_harness::{read_manifest, CellStatus, Json, Manifest, SuiteConfig};
use npb_service::{Addr, Client};

use crate::cells::{run_passes, PassBudget, Samples};
use crate::host::peak_rss_mb;
use crate::plan::{job_list, pass_order, procs_cells, Cell as PlanCell, Job, Mode, SMALL_BENCHES};
use crate::spans::SpanLog;

/// Where the shipped binaries are and where scratch files go. The
/// process's working directory is `scratch`, so the daemon's socket is
/// the relative `npbd.sock` whatever the checkout's depth (a Unix socket
/// path holds at most 108 bytes).
pub struct Env {
    pub npb_bin: PathBuf,
    pub npbd_bin: PathBuf,
    pub scratch: PathBuf,
}

/// Seconds each phase may run, how often `npbd` start-up is timed, and
/// into how many slices (a) and (d) are cut.
pub struct Budget {
    pub daemon_starts: usize,
    pub parts: usize,
    pub cells_s: f64,
    pub cold_s: f64,
    pub hits_s: f64,
    pub procs_s: f64,
}

impl Budget {
    /// The `platform_s` workload's split of `seconds`.
    pub fn full(seconds: f64) -> Budget {
        Budget {
            daemon_starts: 5,
            parts: 3,
            cells_s: 0.30 * seconds,
            cold_s: 0.26 * seconds,
            hits_s: 0.06 * seconds,
            procs_s: 0.38 * seconds,
        }
    }

    /// The short version a traced run of another workload adds so that
    /// the platform's per-layer rows exist there too: one daemon start,
    /// one pass of (a) and (d), 0.7 s of cold submits, a moment of hits.
    pub fn mini() -> Budget {
        Budget { daemon_starts: 1, parts: 1, cells_s: 0.0, cold_s: 0.7, hits_s: 0.1, procs_s: 0.0 }
    }
}

/// One supervised child of phase (a).
pub struct CellCall {
    pub bench: &'static str,
    pub wall_s: f64,
    pub time_s: f64,
    pub mops: f64,
    pub attempts: u64,
}

/// One submit of phase (b) or (c), timed at the client.
pub struct JobTiming {
    /// Submit written → terminal `done` line read.
    pub lat_s: f64,
    /// Submit written → `accepted` line read (admission + journal
    /// fsync); 0 for a cache hit, which has no `accepted` line.
    pub accept_s: f64,
}

#[derive(Default)]
pub struct PlatformData {
    pub daemon_start_s: Vec<f64>,
    pub cells: Vec<CellCall>,
    pub cell_passes: usize,
    pub cold: Vec<JobTiming>,
    /// Wall seconds of phase (b): the slower client's first submit to
    /// its last `done`.
    pub cold_wall_s: f64,
    pub hits: Vec<JobTiming>,
    /// Submits sent in phase (b) and in phase (c), whatever came back.
    pub cold_submits: u64,
    pub resubmits: u64,
    pub procs: Samples,
    pub rejected: u64,
    pub attempted: u64,
    pub failures: Vec<(String, String)>,
    pub npbd_rss_mb: f64,
    pub read_manifest_ms: f64,
    pub recover_ms: f64,
}

/// A running `npbd`. Dropping it kills and reaps the process, so no
/// path out of the benchmark leaves a daemon behind.
struct Daemon {
    child: Child,
    addr: Addr,
    journal: PathBuf,
}

impl Daemon {
    /// Spawn `npbd` in `dir` and return once it answers `stats`; the
    /// seconds from spawn to that reply are the daemon's start-up time.
    fn start(env: &Env, dir: &Path) -> std::io::Result<(Daemon, f64)> {
        std::fs::create_dir_all(dir)?;
        let rel = dir.strip_prefix(&env.scratch).unwrap_or(dir);
        let socket = rel.join("npbd.sock");
        let journal = rel.join("journal.jsonl");
        let log = std::fs::File::create(dir.join("npbd.stderr"))?;
        let t0 = Instant::now();
        let child = Command::new(&env.npbd_bin)
            .arg("--socket")
            .arg(&socket)
            .arg("--journal")
            .arg(&journal)
            .arg("--npb-bin")
            .arg(&env.npb_bin)
            .args(["--workers", "2", "--backoff-ms", "0"])
            .current_dir(&env.scratch)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()?;
        let mut daemon = Daemon { child, addr: Addr::Unix(socket), journal };
        // `Client::connect_retry` sleeps 50 ms between attempts, which
        // would quantize the very time being measured; poll finely.
        let deadline = t0 + Duration::from_secs(20);
        loop {
            if let Ok(mut c) = Client::connect(&daemon.addr) {
                let reply = c.request("{\"op\":\"stats\"}")?;
                if reply.get_str("status") == Some("stats") {
                    return Ok((daemon, t0.elapsed().as_secs_f64()));
                }
                return Err(std::io::Error::other(format!("unexpected stats reply {reply:?}")));
            }
            if let Some(status) = daemon.child.try_wait()? {
                return Err(std::io::Error::other(format!("npbd exited at start-up: {status}")));
            }
            if Instant::now() > deadline {
                return Err(std::io::Error::other("npbd did not answer within 20 s"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn connect(&self) -> std::io::Result<Client> {
        Client::connect(&self.addr)
    }

    /// Graceful drain (the `drain` op), then wait for the exit; a daemon
    /// that overstays is killed by `Drop`.
    fn stop(mut self) -> std::io::Result<()> {
        if let Ok(mut c) = self.connect() {
            let _ = c.request("{\"op\":\"drain\"}");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(std::io::Error::other("npbd did not drain within 10 s"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn suite_config(env: &Env, seed: u64) -> SuiteConfig {
    SuiteConfig {
        npb_bin: env.npb_bin.clone(),
        deadline: Some(Duration::from_secs(60)),
        retries: 0,
        inject: None,
        child_timeout_ms: None,
        sdc_guard: false,
        checkpoint_every: None,
        spin_us: None,
        backend: None,
        sched: None,
        trace: false,
        degrade: false,
        backoff_base_ms: 0,
        seed,
        limits: ResourceLimits::default(),
    }
}

/// Slice `part` of phase (a): whole seed-shuffled passes over the seven
/// class-S serial cells, each a supervised child with manifest append +
/// fsync. Every slice writes and reads back a manifest of its own.
fn phase_cells(
    env: &Env,
    seed: u64,
    part: usize,
    budget_s: f64,
    data: &mut PlatformData,
    mut spans: Option<&mut SpanLog>,
) -> std::io::Result<()> {
    let cfg = suite_config(env, seed);
    let path = env.scratch.join(format!("manifest{part}.jsonl"));
    let mut manifest = Manifest::create(&path)?;
    manifest.run_header(SMALL_BENCHES.len(), seed, false)?;
    let cells: Vec<PlanCell> = SMALL_BENCHES
        .iter()
        .map(|&bench| PlanCell { bench, class: Class::S, mode: Mode::Serial })
        .collect();
    let mut budget = PassBudget::new(budget_s);
    let mut index = 0u64;
    while let Some(pass) = budget.next_pass(1) {
        for cell in pass_order(&cells, seed, data.cell_passes + pass) {
            let hcell = npb_harness::Cell {
                bench: cell.bench.to_string(),
                class: cell.class,
                style: Style::Opt,
                threads: 0,
            };
            let span = spans
                .as_deref_mut()
                .map(|log| log.enter("harness", "harness.run_cell", &cell.id()));
            let t0 = Instant::now();
            let out = npb_harness::run_cell(&cfg, &hcell, index, Some(&mut manifest))?;
            let wall_s = t0.elapsed().as_secs_f64();
            if let (Some(log), Some(span)) = (spans.as_deref_mut(), span) {
                log.exit(span);
                log.reported_tail(
                    span,
                    "kernel",
                    "child timed section (reported)",
                    out.time_secs.unwrap_or(0.0),
                );
            }
            index += 1;
            data.attempted += 1;
            match (&out.status, out.time_secs, out.mops) {
                (CellStatus::Verified, Some(time_s), Some(mops)) => data.cells.push(CellCall {
                    bench: cell.bench,
                    wall_s,
                    time_s,
                    mops,
                    attempts: out.attempts,
                }),
                _ => data.failures.push((cell.id(), format!("run_cell: {}", out.status.tag()))),
            }
        }
    }
    data.cell_passes += budget.passes;
    drop(manifest);
    // Resuming from the run's own manifest is the harness's set-up path.
    let t0 = Instant::now();
    let resumed = read_manifest(&path)?;
    data.read_manifest_ms = t0.elapsed().as_secs_f64() * 1e3;
    if resumed.outcomes.len() as u64 != index {
        data.failures.push((
            "manifest".to_string(),
            format!("read back {} of {index} cell records", resumed.outcomes.len()),
        ));
    }
    Ok(())
}

/// What one closed-loop client brought back.
#[derive(Default)]
struct ClientRun {
    cold: Vec<JobTiming>,
    hits: Vec<JobTiming>,
    failures: Vec<(String, String)>,
    rejected: u64,
    cold_submits: u64,
    resubmits: u64,
    log: Option<SpanLog>,
    /// First cold submit written to last cold `done` read.
    cold_wall_s: f64,
}

/// Submit `job` and wait for its terminal line.
fn submit(
    client: &mut Client,
    job: &Job,
    run: &mut ClientRun,
    want_cached: bool,
) -> std::io::Result<()> {
    let id = job.id();
    let span_name = if want_cached { "service.resubmit" } else { "service.submit" };
    let span = run.log.as_mut().map(|log| log.enter("service", span_name, &id));
    if want_cached {
        run.resubmits += 1;
    } else {
        run.cold_submits += 1;
    }
    let t0 = Instant::now();
    client.send(&job.submit_line())?;
    let first = Json::parse(&client.read_line()?).map_err(std::io::Error::other)?;
    let t_first = Instant::now();
    let (terminal, accept_s) = match first.get_str("status") {
        Some("accepted") => {
            let line = Json::parse(&client.read_line()?).map_err(std::io::Error::other)?;
            (line, (t_first - t0).as_secs_f64())
        }
        _ => (first, 0.0),
    };
    let t_done = Instant::now();
    if let (Some(log), Some(span)) = (run.log.as_mut(), span) {
        log.exit(span);
        if accept_s > 0.0 {
            let epoch = log.epoch();
            let ns = |t: Instant| (t - epoch).as_nanos() as u64;
            log.child(span, "service", "service.accept", ns(t0), ns(t_first), false);
            let exec = log.child(span, "service", "service.exec", ns(t_first), ns(t_done), false);
            let time_s = terminal.get_num("time_secs").unwrap_or(0.0);
            log.reported_tail(exec, "kernel", "child timed section (reported)", time_s);
        }
    }
    let from_cache = terminal.get("from_cache") == Some(&Json::Bool(true));
    let status = terminal.get_str("status").unwrap_or("?");
    if status == "rejected" {
        run.rejected += 1;
    }
    if status != "done" || terminal.get_str("disposition") != Some("verified") {
        let why = terminal.get_str("reason").or(terminal.get_str("disposition")).unwrap_or("?");
        run.failures.push((id, format!("npbd replied {status}: {why}")));
        return Ok(());
    }
    if from_cache != want_cached {
        let what =
            if want_cached { "resubmit missed the cache" } else { "cold submit hit the cache" };
        run.failures.push((id, what.to_string()));
        return Ok(());
    }
    let timing = JobTiming { lat_s: (t_done - t0).as_secs_f64(), accept_s };
    if want_cached {
        run.hits.push(timing);
    } else {
        run.cold.push(timing);
    }
    Ok(())
}

/// Most times phase (c) resubmits what phase (b) ran.
const HIT_ROUNDS: usize = 10;

/// Phases (b) and (c) for one client: cold submits down its job list
/// until `cold_s` is up, then up to [`HIT_ROUNDS`] rounds of resubmits
/// within `hits_s`.
fn client_loop(
    daemon: &Daemon,
    jobs: &[Job],
    cold_s: f64,
    hits_s: f64,
    log: Option<SpanLog>,
) -> std::io::Result<ClientRun> {
    let mut client = daemon.connect()?;
    let mut run = ClientRun { log, ..ClientRun::default() };
    let start = Instant::now();
    let mut done = 0;
    let mut slowest = 0.0f64;
    while done < jobs.len() && (done == 0 || start.elapsed().as_secs_f64() + slowest <= cold_s) {
        let t0 = Instant::now();
        submit(&mut client, &jobs[done], &mut run, false)?;
        slowest = slowest.max(t0.elapsed().as_secs_f64());
        done += 1;
    }
    run.cold_wall_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    'rounds: for round in 0..HIT_ROUNDS {
        for job in &jobs[..done] {
            if round > 0 && start.elapsed().as_secs_f64() > hits_s {
                break 'rounds;
            }
            submit(&mut client, job, &mut run, true)?;
        }
    }
    Ok(run)
}

/// Run the platform phases within `budget`. With a span log, every call
/// into a layer is recorded in it.
pub fn run(
    env: &Env,
    seed: u64,
    budget: &Budget,
    traced: bool,
    mut spans: Option<&mut SpanLog>,
) -> std::io::Result<PlatformData> {
    let mut data = PlatformData::default();

    // Set-up: start the daemon several times, keep the last one.
    let mut daemon = None;
    for i in 0..budget.daemon_starts.max(1) {
        if let Some(previous) = daemon.take() {
            Daemon::stop(previous)?;
        }
        let span =
            spans.as_deref_mut().map(|log| log.enter("service", "service.npbd_start", "npbd"));
        let (d, secs) = Daemon::start(env, &env.scratch.join(format!("npbd{i}")))?;
        if let (Some(log), Some(span)) = (spans.as_deref_mut(), span) {
            log.exit(span);
        }
        data.daemon_start_s.push(secs);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one daemon start");

    let parts = budget.parts.max(1);
    phase_cells(env, seed, 0, budget.cells_s / parts as f64, &mut data, spans.as_deref_mut())?;

    // Phases (b) and (c): two closed-loop clients, one connection each.
    let epoch = spans.as_deref().map(|log| log.epoch());
    let phase = spans.as_deref_mut().map(|log| log.enter("service", "service.clients", "npbd"));
    // Far more jobs than a client can get through in its phase.
    let rounds = (budget.cold_s * 40.0) as usize + 2;
    let runs: Vec<std::io::Result<ClientRun>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                let daemon = &daemon;
                let jobs = job_list(seed, c, rounds);
                let log = epoch.map(SpanLog::with_epoch);
                scope.spawn(move || client_loop(daemon, &jobs, budget.cold_s, budget.hits_s, log))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    if let (Some(log), Some(phase)) = (spans.as_deref_mut(), phase) {
        log.exit(phase);
    }
    for run in runs {
        let run = run?;
        data.attempted += run.cold_submits + run.resubmits;
        data.cold_submits += run.cold_submits;
        data.resubmits += run.resubmits;
        data.rejected += run.rejected;
        data.failures.extend(run.failures);
        // The clients start together; the phase lasts as long as the
        // slower of them.
        data.cold_wall_s = data.cold_wall_s.max(run.cold_wall_s);
        data.cold.extend(run.cold);
        data.hits.extend(run.hits);
        if let (Some(log), Some(client_log)) = (spans.as_deref_mut(), run.log) {
            log.absorb(client_log, phase);
        }
    }

    data.npbd_rss_mb = peak_rss_mb(daemon.child.id()).unwrap_or(0.0);
    let journal = env.scratch.join(&daemon.journal);
    Daemon::stop(daemon)?;
    let t0 = Instant::now();
    let recovery = npb_service::recover(&journal)?;
    data.recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    if !recovery.pending.is_empty() || !recovery.clean_shutdown {
        data.failures.push((
            "journal".to_string(),
            format!(
                "{} job(s) pending after drain, clean_shutdown {}",
                recovery.pending.len(),
                recovery.clean_shutdown
            ),
        ));
    }

    // Phase (d): procs beside threads, through the root facade, in
    // slices that alternate with the rest of phase (a).
    let procs_s = budget.procs_s / parts as f64;
    for part in 0..parts {
        if part > 0 {
            let cells_s = budget.cells_s / parts as f64;
            phase_cells(env, seed, part, cells_s, &mut data, spans.as_deref_mut())?;
        }
        let slice_seed = seed.wrapping_add(part as u64);
        let slice =
            run_passes(&procs_cells(), slice_seed, procs_s, 1, traced, spans.as_deref_mut());
        data.procs.extend(slice);
    }
    data.attempted += data.procs.samples.len() as u64;
    data.failures.extend(data.procs.failures());
    Ok(data)
}
