//! `npbd` — the fault-contained benchmark service daemon.
//!
//! ```text
//! npbd --socket PATH|tcp:HOST:PORT [--journal PATH] [--resume]
//!      [--npb-bin PATH] [--workers N] [--queue-cost UNITS]
//!      [--deadline-ms MS] [--backoff-ms MS]
//!      [--read-deadline-ms MS] [--max-line-bytes N] [--max-conns N]
//!      [--mem-limit-mb MB] [--cpu-limit-s S] [--fd-limit N]
//!      [--io-inject KIND[:SEED]]
//! ```
//!
//! The daemon owns a bounded job queue (costed in class units: S=1,
//! W=4, A=16, B=64, C=256) and `--workers` warm slots, accepts
//! line-delimited JSON requests on the socket, and executes each job as
//! a supervised `npb` child process with per-job deadline-kill,
//! deterministic jittered retries, an optional degradation ladder, and
//! the per-job fault policy carried in the request. Verified results
//! are content-address cached; identical in-flight submissions dedupe
//! onto one execution.
//!
//! Every accepted job is fsync'd to `--journal` before the client sees
//! `accepted`, and every terminal result before the client sees `done`.
//! SIGKILL the daemon at any point: restarting with `--resume` replays
//! the journal, re-enqueues exactly the incomplete jobs, and seeds the
//! cache from the verified ones. SIGTERM (or the `drain` op) drains
//! gracefully: new submits get `rejected:draining`, accepted jobs run
//! to their terminal dispositions, the journal gets a `shutdown`
//! record, and the process exits 0.
//!
//! Hostile-host hardening: `--read-deadline-ms` evicts clients that
//! trickle a request (slowloris), `--max-line-bytes` caps request-line
//! memory, `--max-conns` sheds connection floods with
//! `rejected:overloaded`, `--mem-limit-mb`/`--cpu-limit-s`/`--fd-limit`
//! set the default `setrlimit` caps every job's children apply to
//! themselves, and `--io-inject` arms deterministic journal fault
//! injection for drills — a failing journal seals the daemon (reject
//! new work, finish owed work, exit 0) instead of panicking.
//!
//! Protocol quickstart (one JSON object per line):
//!
//! ```text
//! → {"op":"submit","bench":"EP","class":"S","threads":2}
//! ← {"status":"accepted","job":"6d0e…","dedup":false}
//! ← {"status":"done","job":"6d0e…","disposition":"verified",...}
//! → {"op":"stats"}   → {"op":"ping"}   → {"op":"drain"}
//! ```

use std::path::PathBuf;

use npb::expand_flag_args;
use npb_service::exec::ExecConfig;
use npb_service::server::{serve, Addr, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: npbd --socket PATH|tcp:HOST:PORT [--journal PATH] [--resume]\n\
         \x20           [--npb-bin PATH] [--workers N] [--queue-cost UNITS]\n\
         \x20           [--deadline-ms MS] [--backoff-ms MS]\n\
         \x20           [--read-deadline-ms MS] [--max-line-bytes N] [--max-conns N]\n\
         \x20           [--mem-limit-mb MB] [--cpu-limit-s S] [--fd-limit N]\n\
         \x20           [--io-inject {}[:SEED]]",
        npb_core::iofault::IoFaultKind::KINDS
    );
    std::process::exit(npb_core::USAGE_EXIT_CODE);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut socket: Option<String> = None;
    let mut journal: Option<PathBuf> = None;
    let mut resume = false;
    let mut npb_bin: Option<PathBuf> = None;
    let mut workers = 2usize;
    let mut queue_cost = 64u64;
    let mut deadline_ms = 60_000u64;
    let mut backoff_ms = 50u64;
    let mut read_deadline_ms: Option<u64> = None;
    let mut max_line_bytes = 64 * 1024usize;
    let mut max_conns = 0usize;
    let mut limits = npb_core::ResourceLimits::default();
    let mut io_inject: Option<npb_core::IoFaultPlan> = None;

    let expanded = expand_flag_args(&args);
    let mut it = expanded.iter();
    while let Some(flag) = it.next() {
        let val = |it: &mut std::slice::Iter<String>| -> String {
            it.next().cloned().unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--socket" => socket = Some(val(&mut it)),
            "--journal" => journal = Some(PathBuf::from(val(&mut it))),
            "--resume" => resume = true,
            "--npb-bin" => npb_bin = Some(PathBuf::from(val(&mut it))),
            "--workers" => workers = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--queue-cost" => queue_cost = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--deadline-ms" => deadline_ms = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--backoff-ms" => backoff_ms = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--read-deadline-ms" => {
                read_deadline_ms = Some(val(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--max-line-bytes" => max_line_bytes = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--max-conns" => max_conns = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--mem-limit-mb" => {
                limits.mem_limit_mb = Some(val(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--cpu-limit-s" => {
                limits.cpu_limit_s = Some(val(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--fd-limit" => {
                limits.fd_limit = Some(val(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--io-inject" => match npb_core::IoFaultPlan::parse(&val(&mut it)) {
                Ok(plan) => io_inject = Some(plan),
                Err(e) => {
                    eprintln!("npbd: {e}");
                    usage()
                }
            },
            _ => usage(),
        }
    }
    let Some(socket) = socket else { usage() };
    let addr = Addr::parse(&socket);
    // Default the journal next to a Unix socket; TCP must say where.
    let journal_path = journal.unwrap_or_else(|| match &addr {
        Addr::Unix(p) => p.with_extension("journal.jsonl"),
        Addr::Tcp(_) => {
            eprintln!("npbd: --journal is required with a tcp socket");
            usage()
        }
    });
    // Default to the npb binary sitting beside this one: the normal
    // install layout, and exactly right under `cargo test`/`cargo run`.
    let npb_bin = npb_bin.unwrap_or_else(|| {
        std::env::current_exe()
            .map(|p| p.with_file_name("npb"))
            .unwrap_or_else(|_| PathBuf::from("npb"))
    });
    if !npb_bin.is_file() {
        eprintln!("npbd: npb binary not found at {} (use --npb-bin)", npb_bin.display());
        std::process::exit(npb_core::USAGE_EXIT_CODE);
    }

    let cfg = ServerConfig {
        addr,
        journal_path,
        exec: ExecConfig {
            npb_bin,
            default_deadline_ms: deadline_ms,
            backoff_base_ms: backoff_ms,
            limits,
        },
        capacity: queue_cost,
        workers,
        resume,
        read_deadline: read_deadline_ms.map(std::time::Duration::from_millis),
        max_line_bytes,
        max_conns,
        io_inject,
    };
    eprintln!(
        "npbd: listening on {} (journal {}, {} worker(s), queue capacity {} cost unit(s))",
        cfg.addr,
        cfg.journal_path.display(),
        cfg.workers,
        cfg.capacity
    );
    if let Err(e) = serve(cfg, true) {
        eprintln!("npbd: fatal: {e}");
        std::process::exit(1);
    }
}
