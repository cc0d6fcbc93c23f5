//! The `npbd` daemon core: listener, bounded queue, worker pool,
//! graceful drain.
//!
//! Life of a submit:
//!
//! 1. **Cache** — a verified result for the same content address is
//!    served immediately (`from_cache:true`), no child spawned.
//! 2. **Single-flight** — an identical job already accepted but not
//!    terminal absorbs this submission as a waiter (`dedup:true`).
//! 3. **Admission** — costed backpressure; refusals are immediate
//!    one-line `rejected` replies, never silent queueing.
//! 4. **Journal** — the `accepted` record is fsync'd *before* the
//!    client sees `accepted`: once a client has the acceptance, a
//!    SIGKILL cannot lose the job (`--resume` re-runs it).
//! 5. **Execute** — a worker drives the job through the harness
//!    supervisor; the terminal record is fsync'd *before* waiters are
//!    woken, so any result a client observed is also durable.
//!
//! Drain (SIGTERM or the `drain` op) stops admission — submits get
//! `rejected:draining` — finishes every accepted job, journals
//! `shutdown`, and exits 0.
//!
//! Hostile-host hardening (Level 6):
//!
//! * a **journal write failure** never panics the daemon: it *seals* —
//!   new submits get `rejected:io-degraded`, owed (already-journaled)
//!   work runs to its terminal disposition, and the drained daemon
//!   exits 0. At most the one in-flight record is lost, and `--resume`
//!   re-runs any job whose terminal record did not land;
//! * **read deadlines** (`read_deadline`) bound how long one request
//!   line may take to arrive — a slowloris client trickling bytes is
//!   evicted while honest clients progress;
//! * **line caps** (`max_line_bytes`) bound request-line memory; an
//!   overlong line gets a structured `rejected:line-too-long` and the
//!   connection closes instead of buffering without bound;
//! * a **connection budget** (`max_conns`) sheds excess connections
//!   with `rejected:overloaded` instead of spawning threads without
//!   bound.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use npb_core::iofault::IoFaultPlan;
use npb_core::IoDegraded;

use crate::admission::{admit, class_cost};
use crate::cache::{InFlightJob, JobResult, ResultCache};
use crate::client::Client;
use crate::exec::{run_job, ExecConfig};
use crate::journal::{recover, JobJournal};
use crate::proto::{accepted, rejected, JobSpec, Request};

/// Where the daemon listens. `tcp:HOST:PORT` on the CLI selects TCP;
/// anything else is a Unix socket path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    Unix(PathBuf),
    Tcp(String),
}

impl Addr {
    pub fn parse(s: &str) -> Addr {
        match s.strip_prefix("tcp:") {
            Some(hostport) => Addr::Tcp(hostport.to_string()),
            None => Addr::Unix(PathBuf::from(s)),
        }
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Unix(p) => write!(f, "{}", p.display()),
            Addr::Tcp(hp) => write!(f, "tcp:{hp}"),
        }
    }
}

/// Daemon configuration (the `npbd` CLI maps 1:1 onto this).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    pub addr: Addr,
    pub journal_path: PathBuf,
    pub exec: ExecConfig,
    /// Queue capacity in admission cost units (S=1 … C=256).
    pub capacity: u64,
    /// Warm worker slots: jobs executing concurrently.
    pub workers: usize,
    /// Recover the journal: re-enqueue incomplete jobs, seed the cache
    /// from verified terminal records.
    pub resume: bool,
    /// Per-connection budget for receiving one complete request line
    /// (`None` = no deadline). Applied both as a socket read timeout
    /// (idle trickle) and as a total per-line budget (slowloris).
    pub read_deadline: Option<Duration>,
    /// Maximum bytes one request line may occupy before the connection
    /// is refused with `rejected:line-too-long`.
    pub max_line_bytes: usize,
    /// Maximum concurrently-served connections (0 = unlimited); excess
    /// connections get one `rejected:overloaded` line and are closed.
    pub max_conns: usize,
    /// Deterministic I/O fault injection armed on the journal path
    /// (hostile-host drills).
    pub io_inject: Option<IoFaultPlan>,
}

/// Counters reported by `stats` (and mirrored into the shutdown log).
#[derive(Debug, Default)]
struct Counters {
    executed: u64,
    cache_hits: u64,
    deduped: u64,
    rejected: u64,
}

/// Everything the queue's mutex protects.
struct QueueState {
    queue: VecDeque<Arc<InFlightJob>>,
    /// Accepted-but-not-terminal jobs by canonical key (queued AND
    /// running) — the single-flight table.
    in_flight: HashMap<String, Arc<InFlightJob>>,
    in_service_cost: u64,
    draining: bool,
    /// Workers exit when this is set (drain finished).
    stop: bool,
    /// Monotonic acceptance sequence (jitter stream selector).
    seq: u64,
    counters: Counters,
    /// Journal writes are failing: reject new work, finish owed work,
    /// exit cleanly. Implies `draining`.
    sealed: bool,
}

struct Daemon {
    cfg: ServerConfig,
    cache: ResultCache,
    journal: Mutex<JobJournal>,
    state: Mutex<QueueState>,
    /// Workers park here waiting for queued jobs (or stop).
    work_ready: Condvar,
    /// `serve` parks here until `draining && in_service_cost == 0`.
    idle: Condvar,
}

impl Daemon {
    /// Begin graceful drain (idempotent): stop admitting, let running
    /// and queued jobs finish. Queued jobs were journaled as accepted —
    /// a client holds their acceptance — so they run to terminal even
    /// though they have not started yet.
    fn begin_drain(&self) {
        let mut st = self.state.lock().unwrap();
        if st.draining {
            return;
        }
        st.draining = true;
        let _ = self.journal.lock().unwrap().drain();
        // Wake the drain waiter in case the queue is already empty.
        self.idle.notify_all();
        self.work_ready.notify_all();
    }

    /// Journal writes are failing: seal the daemon. Admission stops
    /// (submits get `rejected:io-degraded`), already-journaled work
    /// runs to its terminal disposition, and the drain path exits 0.
    /// The structured event prints once; repeat trips are silent.
    fn seal(&self, op: &'static str, e: &std::io::Error) {
        let first = {
            let mut st = self.state.lock().unwrap();
            let first = !st.sealed;
            st.sealed = true;
            st.draining = true;
            first
        };
        if first {
            let ev = IoDegraded::new("journal", op, e);
            eprintln!("npbd: {ev}");
            eprintln!("{}", ev.json());
            eprintln!("npbd: sealed: rejecting new work, finishing owed work, then exiting");
        }
        self.idle.notify_all();
        self.work_ready.notify_all();
    }

    /// Enqueue a job whose acceptance is already durable (resume
    /// replay): no journal write, no failure mode.
    fn enqueue_owed(&self, st: &mut QueueState, spec: JobSpec, cost: u64) -> Arc<InFlightJob> {
        let seq = st.seq;
        st.seq += 1;
        let job = Arc::new(InFlightJob::new(spec, cost, seq));
        st.in_service_cost += cost;
        st.in_flight.insert(job.key.clone(), Arc::clone(&job));
        st.queue.push_back(Arc::clone(&job));
        self.work_ready.notify_one();
        job
    }

    /// Accept one job under the state lock path: journal (fsync) →
    /// enqueue → return. The caller replies `accepted` only after this
    /// returns, so an acceptance a client observed is always durable —
    /// and a journal that cannot take the record refuses the job
    /// (the caller seals) instead of accepting unjournaled work.
    fn accept_job(
        &self,
        st: &mut QueueState,
        spec: JobSpec,
        cost: u64,
    ) -> std::io::Result<Arc<InFlightJob>> {
        self.journal.lock().unwrap().accepted(&spec, st.seq)?;
        Ok(self.enqueue_owed(st, spec, cost))
    }

    /// The submit path. Returns the immediate reply line (`rejected`,
    /// cache-hit `done`, or `accepted`) plus, for a wait-mode accept,
    /// the job to block on for the terminal line. The split matters:
    /// the connection thread must *flush* the acceptance before it
    /// waits, or a client cannot observe `accepted` (and a drain cannot
    /// start) until the job is already finished.
    fn submit(&self, spec: JobSpec, wait: bool) -> (String, Option<(Arc<InFlightJob>, String)>) {
        let key = spec.canonical_key();
        let id = spec.job_id();
        // 1. Cache.
        if let Some(result) = self.cache.get(&key) {
            self.state.lock().unwrap().counters.cache_hits += 1;
            return (result.done_line(&id, true), None);
        }
        let (first, job) = {
            let mut st = self.state.lock().unwrap();
            // 2. Single-flight.
            if let Some(job) = st.in_flight.get(&key).map(Arc::clone) {
                st.counters.deduped += 1;
                (accepted(&id, true), job)
            } else {
                // 3. Admission.
                let cost = class_cost(spec.class);
                if let Err(reason) = admit(st.in_service_cost, self.cfg.capacity, cost, st.draining)
                {
                    st.counters.rejected += 1;
                    let detail = match reason {
                        crate::admission::RejectReason::QueueFull => format!(
                            "cost {cost} + in-service {} exceeds capacity {}",
                            st.in_service_cost, self.cfg.capacity
                        ),
                        crate::admission::RejectReason::CostExceedsCapacity => {
                            format!("cost {cost} exceeds total capacity {}", self.cfg.capacity)
                        }
                        crate::admission::RejectReason::Draining => String::new(),
                    };
                    return (rejected(reason.tag(), &detail), None);
                }
                // 4. Journal + enqueue. A journal that cannot take the
                // acceptance refuses the job and seals the daemon —
                // never an unjournaled accept, never a panic.
                match self.accept_job(&mut st, spec, cost) {
                    Ok(job) => (accepted(&id, false), job),
                    Err(e) => {
                        st.counters.rejected += 1;
                        drop(st);
                        self.seal("accept", &e);
                        return (
                            rejected(
                                "io-degraded",
                                "journal write failed; daemon sealed (finishing owed work)",
                            ),
                            None,
                        );
                    }
                }
            }
        };
        (first, wait.then_some((job, id)))
    }

    /// One worker: pull, execute, journal the terminal record, wake
    /// waiters, release the admission budget.
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut st = self.state.lock().unwrap();
                loop {
                    if let Some(job) = st.queue.pop_front() {
                        break job;
                    }
                    if st.stop {
                        return;
                    }
                    st = self.work_ready.wait(st).unwrap();
                }
            };
            let _ = self.journal.lock().unwrap().started(&job.id);
            let result = run_job(&self.cfg.exec, &job.spec, job.seq);
            self.finish_job(&job, result);
        }
    }

    /// Publish a terminal result: durable first, observable second. A
    /// failed terminal write seals the daemon instead of panicking: the
    /// waiter still gets the result (the client observes it), and the
    /// journal keeps the job's acceptance without a terminal record, so
    /// `--resume` re-runs it — at most this one record is lost.
    fn finish_job(&self, job: &InFlightJob, result: JobResult) {
        if let Err(e) = self.journal.lock().unwrap().done(&job.id, &result) {
            self.seal("done", &e);
        }
        self.cache.insert_if_verified(&job.key, &result);
        {
            let mut st = self.state.lock().unwrap();
            st.in_service_cost -= job.cost;
            st.in_flight.remove(&job.key);
            st.counters.executed += 1;
        }
        job.finish(result);
        self.idle.notify_all();
    }

    fn stats_line(&self) -> String {
        let st = self.state.lock().unwrap();
        format!(
            "{{\"status\":\"stats\",\"queued\":{},\"running\":{},\"in_service_cost\":{},\
             \"capacity\":{},\"workers\":{},\"cache_size\":{},\"executed\":{},\
             \"cache_hits\":{},\"deduped\":{},\"rejected\":{},\"draining\":{},\"sealed\":{}}}",
            st.queue.len(),
            st.in_flight.len() - st.queue.len(),
            st.in_service_cost,
            self.cfg.capacity,
            self.cfg.workers,
            self.cache.len(),
            st.counters.executed,
            st.counters.cache_hits,
            st.counters.deduped,
            st.counters.rejected,
            st.draining,
            st.sealed,
        )
    }

    /// The `npbd-accept` thread: block in `accept`; connections get their
    /// own threads, so a slow or hung client never stalls accept — bounded
    /// by the connection budget, so a flood sheds with a structured
    /// rejection instead of unbounded thread spawn. Returns at the first
    /// connection after `stop` (`serve` makes one to say so).
    fn accept_loop(self: &Arc<Self>, listener: &Listener) {
        let active_conns = Arc::new(AtomicUsize::new(0));
        loop {
            let conn = match listener.accept() {
                Ok(conn) => conn,
                Err(e) => {
                    eprintln!("npbd: accept failed, draining: {e}");
                    return self.begin_drain();
                }
            };
            if self.state.lock().unwrap().stop {
                return;
            }
            let budget = self.cfg.max_conns;
            if budget > 0 && active_conns.load(Ordering::SeqCst) >= budget {
                self.state.lock().unwrap().counters.rejected += 1;
                // One structured line, then close: the client knows
                // it was shed, not ignored.
                if let Ok((_, mut w)) = conn.split(None) {
                    let line = rejected(
                        "overloaded",
                        &format!("{budget} active connection(s) at the --max-conns budget"),
                    );
                    let _ = w.write_all(line.as_bytes());
                    let _ = w.write_all(b"\n");
                    let _ = w.flush();
                }
                continue;
            }
            let (d, active) = (Arc::clone(self), Arc::clone(&active_conns));
            let served = conn.split(self.cfg.read_deadline).and_then(|(reader, writer)| {
                active.fetch_add(1, Ordering::SeqCst);
                std::thread::Builder::new().name("npbd-conn".into()).spawn(move || {
                    d.handle_connection(reader, writer);
                    active.fetch_sub(1, Ordering::SeqCst);
                })
            });
            if let Err(e) = served {
                eprintln!("npbd: dropped a connection: {e}");
            }
        }
    }

    /// Serve one connection: request lines in, reply lines out, until
    /// EOF. Any I/O error just ends the connection — the daemon and the
    /// jobs it owns are unaffected (fault containment includes clients
    /// that vanish mid-reply). A request line that overstays the read
    /// deadline (slowloris) or the byte cap is refused and the
    /// connection closed.
    fn handle_connection(&self, mut reader: impl BufRead, mut writer: impl Write) {
        fn write_line(w: &mut impl Write, line: &str) -> std::io::Result<()> {
            w.write_all(line.as_bytes())?;
            w.write_all(b"\n")?;
            w.flush()
        }
        loop {
            let line = match read_request_line(
                &mut reader,
                self.cfg.max_line_bytes,
                self.cfg.read_deadline,
            ) {
                Line::Req(line) => line,
                Line::Eof | Line::Dead => return,
                Line::TooLong => {
                    let _ = write_line(
                        &mut writer,
                        &rejected(
                            "line-too-long",
                            &format!("request line exceeds {} byte(s)", self.cfg.max_line_bytes),
                        ),
                    );
                    return;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            let reply = match Request::parse(&line) {
                Err(detail) => rejected("bad-request", &detail),
                Ok(Request::Ping) => {
                    format!("{{\"status\":\"pong\",\"pid\":{}}}", std::process::id())
                }
                Ok(Request::Stats) => self.stats_line(),
                Ok(Request::Drain) => {
                    self.begin_drain();
                    "{\"status\":\"draining\"}".to_string()
                }
                Ok(Request::Submit { spec, wait }) => {
                    let (first, waiter) = self.submit(*spec, wait);
                    // Flush the acceptance *before* blocking on the
                    // terminal result — the client (and any drain that
                    // follows) must see it while the job is in flight.
                    if write_line(&mut writer, &first).is_err() {
                        return;
                    }
                    let Some((job, id)) = waiter else { continue };
                    job.wait().done_line(&id, false)
                }
            };
            if write_line(&mut writer, &reply).is_err() {
                return;
            }
        }
    }
}

/// The fate of one request-line read.
enum Line {
    /// A complete line (without its newline), possibly the EOF-
    /// terminated last one.
    Req(String),
    /// Clean end of stream between requests.
    Eof,
    /// The line outgrew `max_line_bytes`: refuse it, structured.
    TooLong,
    /// Timeout, deadline overrun, or transport error: just close.
    Dead,
}

/// Read one request line, enforcing the byte cap and — against clients
/// that trickle bytes to hold a thread hostage (slowloris) — a total
/// per-line deadline on top of the socket's per-read timeout.
fn read_request_line(r: &mut impl BufRead, max: usize, deadline: Option<Duration>) -> Line {
    let started = Instant::now();
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = match r.fill_buf() {
            Ok(c) if c.is_empty() => {
                return if buf.is_empty() {
                    Line::Eof
                } else {
                    Line::Req(String::from_utf8_lossy(&buf).into_owned())
                };
            }
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Line::Dead, // includes WouldBlock/TimedOut: evicted
        };
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                buf.extend_from_slice(&chunk[..i]);
                r.consume(i + 1);
                if buf.len() > max {
                    return Line::TooLong;
                }
                // Lossy: malformed UTF-8 still reaches Request::parse,
                // which answers with a structured bad-request.
                return Line::Req(String::from_utf8_lossy(&buf).into_owned());
            }
            None => {
                let n = chunk.len();
                buf.extend_from_slice(chunk);
                r.consume(n);
                if buf.len() > max {
                    return Line::TooLong;
                }
            }
        }
        if deadline.is_some_and(|d| started.elapsed() > d) {
            return Line::Dead;
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn bind(addr: &Addr) -> std::io::Result<Listener> {
        match addr {
            Addr::Unix(path) => {
                // A dead daemon leaves its socket file behind; rebinding
                // over it is the expected restart path.
                let _ = std::fs::remove_file(path);
                Ok(Listener::Unix(UnixListener::bind(path)?))
            }
            Addr::Tcp(hostport) => Ok(Listener::Tcp(TcpListener::bind(hostport)?)),
        }
    }

    /// Block until a connection arrives.
    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        }
    }
}

enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    /// Split into a buffered reader and writer. `read_deadline` becomes
    /// the socket read timeout, so a silent client's read returns
    /// instead of parking the connection thread forever.
    fn split(
        self,
        read_deadline: Option<Duration>,
    ) -> std::io::Result<(Box<dyn BufRead + Send>, Box<dyn Write + Send>)> {
        match self {
            Conn::Unix(s) => {
                s.set_read_timeout(read_deadline)?;
                let r = s.try_clone()?;
                Ok((Box::new(BufReader::new(r)), Box::new(s)))
            }
            Conn::Tcp(s) => {
                s.set_read_timeout(read_deadline)?;
                let r = s.try_clone()?;
                Ok((Box::new(BufReader::new(r)), Box::new(s)))
            }
        }
    }
}

/// Run the daemon until drained. Returns after the `shutdown` record is
/// durable; the caller (the `npbd` binary) then exits 0.
///
/// `install_signals` wires SIGTERM/SIGINT to graceful drain; tests that
/// run several daemons in one process pass `false` and use the `drain`
/// op instead.
pub fn serve(cfg: ServerConfig, install_signals: bool) -> std::io::Result<()> {
    let mut journal = JobJournal::open_with(&cfg.journal_path, cfg.io_inject)?;
    let cache = ResultCache::default();
    let mut pending = Vec::new();
    if cfg.resume {
        let rec = recover(&cfg.journal_path)?;
        for (key, result) in &rec.seeds {
            cache.insert_if_verified(key, result);
        }
        pending = rec.pending;
        eprintln!(
            "npbd: resume: {} cache seed(s), {} incomplete job(s) re-enqueued, {} torn line(s) skipped",
            rec.seeds.len(),
            pending.len(),
            rec.torn_lines
        );
    }
    // The daemon header is best-effort: a journal that is already
    // failing at startup is the hostile-host case, and the daemon's
    // answer is seal-and-drain, not refusing to exist. The failure is
    // re-detected (and sealed on) at the first accept.
    if let Err(e) = journal.daemon(std::process::id(), cfg.capacity, cfg.workers) {
        eprintln!("npbd: {}", IoDegraded::new("journal", "daemon-header", &e));
    }

    let listener = Listener::bind(&cfg.addr)?;
    let workers = cfg.workers.max(1);
    let daemon = Arc::new(Daemon {
        cfg,
        cache,
        journal: Mutex::new(journal),
        state: Mutex::new(QueueState {
            queue: VecDeque::new(),
            in_flight: HashMap::new(),
            in_service_cost: 0,
            draining: false,
            stop: false,
            seq: 0,
            counters: Counters::default(),
            sealed: false,
        }),
        work_ready: Condvar::new(),
        idle: Condvar::new(),
    });

    // Re-accept the crashed incarnation's unfinished jobs before the
    // socket opens: their original clients are gone, but the acceptance
    // contract survives the clients. Their acceptance records are
    // already durable in the journal being resumed, so this enqueues
    // without re-journaling — owed work runs even on a failing disk.
    {
        let mut st = daemon.state.lock().unwrap();
        for spec in pending {
            let cost = class_cost(spec.class);
            daemon.enqueue_owed(&mut st, spec, cost);
        }
    }

    if install_signals {
        let d = Arc::clone(&daemon);
        crate::signal::watch(move |_sig| d.begin_drain())
            .map_err(|e| std::io::Error::other(format!("signal watcher: {e}")))?;
    }

    let mut worker_handles = Vec::new();
    for i in 0..workers {
        let d = Arc::clone(&daemon);
        worker_handles.push(
            std::thread::Builder::new()
                .name(format!("npbd-worker-{i}"))
                .spawn(move || d.worker_loop())?,
        );
    }

    let acceptor = {
        let d = Arc::clone(&daemon);
        std::thread::Builder::new()
            .name("npbd-accept".into())
            .spawn(move || d.accept_loop(&listener))?
    };

    // Park until drained: every accepted job is terminal and journaled.
    // Stop the workers, give in-flight replies a beat to flush, stop the
    // accept thread, seal the journal.
    let executed = {
        let st = daemon.state.lock().unwrap();
        let mut st =
            daemon.idle.wait_while(st, |st| !(st.draining && st.in_service_cost == 0)).unwrap();
        st.stop = true;
        daemon.work_ready.notify_all();
        st.counters.executed
    };
    for h in worker_handles {
        let _ = h.join();
    }
    std::thread::sleep(Duration::from_millis(100));
    // The accept thread sees `stop` at its next connection: make it.
    if Client::connect(&daemon.cfg.addr).is_ok() {
        let _ = acceptor.join();
    }
    // The drain itself is complete; a shutdown record that cannot land
    // (sealed journal) costs a resume replay of nothing — every
    // terminal record either landed or already sealed the daemon — so
    // it degrades the exit message, not the exit code.
    if let Err(e) = daemon.journal.lock().unwrap().shutdown(executed) {
        eprintln!("npbd: {}", IoDegraded::new("journal", "shutdown", &e));
    }
    if let Addr::Unix(path) = &daemon.cfg.addr {
        let _ = std::fs::remove_file(path);
    }
    let sealed = daemon.state.lock().unwrap().sealed;
    eprintln!(
        "npbd: drained after {executed} job(s); {}",
        if sealed {
            "journal sealed (write failures) — owed work finished"
        } else {
            "shutdown journaled"
        }
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-process daemon on a fresh Unix socket. No job ever runs:
    /// these tests are about the accept and drain paths.
    fn start(name: &str) -> (Addr, std::thread::JoinHandle<std::io::Result<()>>) {
        let base = std::env::temp_dir().join(format!("npbd-unit-{}-{name}", std::process::id()));
        let addr = Addr::Unix(base.with_extension("sock"));
        let cfg = ServerConfig {
            addr: addr.clone(),
            journal_path: base.with_extension("journal.jsonl"),
            exec: ExecConfig {
                npb_bin: PathBuf::from("/nonexistent/npb"),
                default_deadline_ms: 1000,
                backoff_base_ms: 0,
                limits: Default::default(),
            },
            capacity: 8,
            workers: 2,
            resume: false,
            read_deadline: None,
            max_line_bytes: 4096,
            max_conns: 0,
            io_inject: None,
        };
        (addr, std::thread::spawn(move || serve(cfg, false)))
    }

    /// Connect the way `benchmark/`'s `Daemon::start` does: retry every
    /// 0.5 ms until the socket is bound.
    fn connect(addr: &Addr) -> Client {
        let give_up = Instant::now() + Duration::from_secs(20);
        loop {
            match Client::connect(addr) {
                Ok(c) => return c,
                Err(e) => assert!(Instant::now() < give_up, "npbd never bound: {e}"),
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Seven daemon lives, start to drained; from each, the wait for the
    /// first `stats` reply and for `serve` to return after `drain`'s.
    /// The tests bound medians: a busy host may stretch one life, not four.
    fn seven_lives(name: &str) -> (Vec<Duration>, Vec<Duration>) {
        let lives = (0..7).map(|i| {
            let (addr, daemon) = start(&format!("{name}-{i}"));
            let mut c = connect(&addr);
            let connected = Instant::now();
            let reply = c.request("{\"op\":\"stats\"}").unwrap();
            let answered = connected.elapsed();
            assert_eq!(reply.get_str("status"), Some("stats"));
            let reply = c.request("{\"op\":\"drain\"}").unwrap();
            let draining = Instant::now();
            assert_eq!(reply.get_str("status"), Some("draining"));
            daemon.join().unwrap().unwrap();
            let drained = draining.elapsed();
            if let Addr::Unix(socket) = &addr {
                let _ = std::fs::remove_file(socket.with_extension("journal.jsonl"));
            }
            (answered, drained)
        });
        let (mut answered, mut drained): (Vec<_>, Vec<_>) = lives.unzip();
        answered.sort();
        drained.sort();
        (answered, drained)
    }

    #[test]
    fn a_fresh_daemon_answers_stats_without_an_accept_tick() {
        // A listener polled every 10 ms misses a client that connects the
        // moment the socket is bound, and answers it a whole tick later.
        let (answered, _) = seven_lives("fresh");
        assert!(answered[3] < Duration::from_millis(5), "connect -> stats reply: {answered:?}");
    }

    #[test]
    fn an_idle_daemon_drains_at_once() {
        // Nothing in service: `serve` wakes on the drain's own signal and
        // is gone after the 100 ms it gives replies to flush, not after
        // that and what was left of an accept tick (5 ms in the mean).
        let (_, drained) = seven_lives("idle");
        assert!(drained[3] < Duration::from_millis(103), "drain -> serve returned: {drained:?}");
    }
}
