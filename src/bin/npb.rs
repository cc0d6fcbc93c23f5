//! Command-line runner for the NPB suite.
//!
//! ```text
//! npb <BENCH|all> [CLASS] [--class S|W|A|B|C] [--style opt|safe] [--threads N]
//!                 [--backend threads|procs] [--max-recoveries N]
//!                 [--sched static|guided|feedback]
//!                 [--spin-us US] [--timeout MS]
//!                 [--inject panic|delay|hang|nan|bitflip[:SEED]]
//!                 [--retries N] [--sdc-guard] [--checkpoint-every K] [--json]
//!                 [--trace PATH] [--trace-format json|folded]
//!                 [--io-inject enospc|eio|short-write|fsync-fail[:SEED]]
//!                 [--mem-limit-mb MB] [--cpu-limit-s S] [--fd-limit N]
//! ```
//!
//! `--threads 0` (default) is the pure serial path. The class can be
//! given positionally (`npb cg S`) or via `--class`; every value flag
//! also accepts the `--flag=value` spelling.
//!
//! `--backend procs` shards the domain across `--threads` worker
//! *processes* instead of threads (EP, IS and CG): the parent spawns
//! `npb <bench> --rank R/N` workers against a shared-memory segment,
//! supervises their PIDs, and answers a rank crash or hang by restoring
//! every rank from the last integrity-hashed checkpoint and respawning
//! (`--max-recoveries N` bounds the attempts, default 4; `--timeout MS`
//! doubles as the per-round hang deadline). Results are bit-identical
//! to `--backend threads` at the same width.
//!
//! `--sched POLICY` picks the loop-scheduling policy for the team's
//! schedulable parallel loops: `static` (default) is the deterministic
//! rank-partitioned model, `guided` self-schedules shrinking chunks off
//! a shared counter, `feedback` re-splits each region from its measured
//! per-rank compute times. All three are bitwise-identical on every
//! benchmark; only static works with `--backend procs`.
//!
//! `--spin-us US` sets the team's hybrid-synchronization spin budget in
//! microseconds (waiters spin that long on the lock-free fast path
//! before sleeping on a futex gate); `0` forces the pure park path — the
//! paper's `wait()`/`notify()` model. Defaults to the runtime's tuned
//! budget.
//!
//! Fault tolerance:
//!
//! * `--timeout MS` arms the region watchdog: a parallel region that does
//!   not complete within MS milliseconds terminates the process with exit
//!   code 3, naming the stuck ranks (a stuck rank can be neither killed
//!   nor safely abandoned, so the watchdog turns a silent hang into a
//!   fast, diagnosable death).
//! * `--inject KIND[:SEED]` arms one deterministic fault (worker panic,
//!   barrier delay, a rank wedged forever, NaN corruption of a verified
//!   quantity, or a bit flip in a state array mid-computation) before
//!   the first attempt of each benchmark.
//! * `--retries N` reruns a benchmark whose parallel region failed, up to
//!   N times (injected faults are one-shot, so a retry runs clean).
//! * `--sdc-guard` turns on the in-computation SDC guard for the
//!   iterative benchmarks (BT, SP, LU, FT, CG, MG): per-iteration
//!   invariant checks plus periodic in-memory checkpoints; a detected
//!   corruption rolls the solver back and replays instead of letting a
//!   silently wrong answer reach verification.
//! * `--checkpoint-every K` sets the checkpoint cadence in outer
//!   iterations (default 4). A malformed value warns once on stderr and
//!   keeps the default.
//! * `--json` additionally emits one machine-readable JSON object per
//!   benchmark on stdout (name, class, style, threads, verification,
//!   Mop/s, time, attempt count) — the structured channel the
//!   `npb-suite` supervisor parses instead of scraping banners.
//!
//! Environmental faults (Level 6):
//!
//! * `--io-inject KIND[:SEED]` arms deterministic I/O fault injection
//!   (disk full, I/O error, short write, fsync failure) on every
//!   durable path this process — and, via the `NPB_IO_INJECT`
//!   environment it sets, its procs workers — touches: guard
//!   checkpoints and trace export. Same seeded-randlc reproducibility
//!   contract as `--inject`.
//! * `--mem-limit-mb MB` / `--cpu-limit-s S` / `--fd-limit N` make the
//!   process apply `setrlimit` caps to *itself* at startup
//!   (`RLIMIT_AS` / `RLIMIT_CPU` / `RLIMIT_NOFILE`). The `npb-suite`
//!   supervisor forwards these to children and maps the resulting
//!   SIGKILL/SIGABRT/SIGXCPU deaths onto the first-class `oom-killed`
//!   and `cpu-limit` outcomes.
//!
//! Observability:
//!
//! * `--trace PATH` turns on the `npb-trace` span recorder for the timed
//!   section and writes the per-region profile to PATH after the run
//!   (when `all` is selected, each benchmark overwrites the file in
//!   turn). The banner and `--json` record also gain per-region times
//!   and imbalance.
//! * `--trace-format json|folded` picks the export: the default JSON
//!   profile (regions + raw spans), or flamegraph-compatible collapsed
//!   stacks (`region;kind <ns>` — feed to `flamegraph.pl`).
//!
//! Exit codes (the shared `npb_core::exit` contract): 0 all benchmarks
//! verified; 1 a benchmark failed verification or its region failed
//! beyond the retry budget; 2 usage error; 3 the region watchdog fired;
//! 128+signum death by signal.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use npb::{
    expand_flag_args, parse_checkpoint_every, try_run_benchmark, Backend, Class, FaultPlan,
    GuardConfig, RunError, RunOptions, Sched, Style, TraceFormat, BENCHMARKS,
};

fn usage() -> ! {
    eprintln!(
        "usage: npb <{}|all> [CLASS] [--class S|W|A|B|C] [--style opt|safe] [--threads N]\n\
         \x20          [--backend threads|procs] [--max-recoveries N]\n\
         \x20          [--sched static|guided|feedback]\n\
         \x20          [--spin-us US] [--timeout MS] [--inject {}[:SEED]] [--retries N]\n\
         \x20          [--sdc-guard] [--checkpoint-every K] [--json]\n\
         \x20          [--trace PATH] [--trace-format json|folded]\n\
         \x20          [--io-inject {}[:SEED]]\n\
         \x20          [--mem-limit-mb MB] [--cpu-limit-s S] [--fd-limit N]",
        BENCHMARKS.join("|"),
        FaultPlan::KINDS,
        npb_core::iofault::IoFaultKind::KINDS
    );
    std::process::exit(npb::USAGE_EXIT_CODE);
}

fn main() {
    // Structural panics — injected faults, barrier poisoning, and the
    // master's `RegionError` rethrow — are caught and reported as
    // `RunError::Region`; keep the default hook from printing a raw
    // backtrace for each of them. Genuine kernel panics still print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let p = info.payload();
        if p.is::<npb::RegionError>()
            || p.is::<npb::InjectedFault>()
            || p.is::<npb::BarrierPoisoned>()
        {
            return;
        }
        default_hook(info);
    }));

    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut which = args[0].clone();
    let mut class = Class::S;
    let mut style = Style::Opt;
    let mut threads = 0usize;
    let mut backend = Backend::Threads;
    let mut max_recoveries: Option<usize> = None;
    let mut sched = Sched::Static;
    let mut spin_us: Option<u64> = None;
    let mut timeout: Option<Duration> = None;
    let mut inject: Option<FaultPlan> = None;
    let mut retries = 0usize;
    let mut guard = GuardConfig::default();
    let mut json = false;
    let mut trace_path: Option<std::path::PathBuf> = None;
    let mut trace_format = TraceFormat::default();
    let mut limits = npb_core::ResourceLimits::default();

    // Accept `--flag=value` as well as `--flag value`.
    let expanded = expand_flag_args(&args[1..]);

    // Hidden worker mode: the procs backend re-enters this binary as
    // `npb <bench> --rank R/N --shm-fd FD --shm-len LEN`. Dispatch
    // before the parent-mode flag loop (the worker's flags are not
    // parent flags) and without the signal watcher — a worker's death
    // is the parent's supervision event, not a report channel.
    if expanded.iter().any(|a| a == "--rank") {
        std::process::exit(npb::procs::worker_main(&which, &expanded));
    }

    let mut it = expanded.iter();
    while let Some(flag) = it.next() {
        let val = |it: &mut std::slice::Iter<String>| -> String {
            it.next().cloned().unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--class" | "-c" => {
                class = val(&mut it).parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--style" | "-s" => {
                style = val(&mut it).parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--threads" | "-t" => threads = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--backend" => {
                backend = val(&mut it).parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--max-recoveries" => {
                max_recoveries = Some(val(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--sched" => {
                sched = val(&mut it).parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--spin-us" => spin_us = Some(val(&mut it).parse().unwrap_or_else(|_| usage())),
            "--timeout" => {
                let ms: u64 = val(&mut it).parse().unwrap_or_else(|_| usage());
                timeout = Some(Duration::from_millis(ms));
            }
            "--inject" => {
                inject = Some(FaultPlan::parse(&val(&mut it)).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                }));
            }
            "--retries" => retries = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--sdc-guard" => guard.enabled = true,
            "--checkpoint-every" => match parse_checkpoint_every(&val(&mut it)) {
                Ok(k) => guard.checkpoint_every = k,
                Err(msg) => {
                    // Warn once: a bad cadence must not kill a long
                    // batch run.
                    static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                    WARN_ONCE.call_once(|| eprintln!("npb: {msg}"));
                }
            },
            "--json" => json = true,
            "--io-inject" => match npb_core::IoFaultPlan::parse(&val(&mut it)) {
                // The plan travels as the ambient NPB_IO_INJECT so every
                // durable path in this process — and in the procs
                // workers it spawns, which inherit the environment —
                // arms the same deterministic injector.
                Ok(plan) => std::env::set_var("NPB_IO_INJECT", plan.spec()),
                Err(e) => {
                    eprintln!("npb: {e}");
                    usage()
                }
            },
            "--mem-limit-mb" => {
                limits.mem_limit_mb = Some(val(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--cpu-limit-s" => {
                limits.cpu_limit_s = Some(val(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--fd-limit" => {
                limits.fd_limit = Some(val(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--trace" => trace_path = Some(std::path::PathBuf::from(val(&mut it))),
            "--trace-format" => {
                trace_format = val(&mut it).parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            // A bare non-flag argument is a positional problem class
            // (`npb cg S` reads as BENCH CLASS).
            other if !other.starts_with('-') => {
                class = other.parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            _ => usage(),
        }
    }

    // Self-applied containment: the caps land before any benchmark
    // state is allocated, so blowing one is attributable to the
    // benchmark, not the setup. A cap the host refuses is a usage
    // error — silently running uncapped would defeat the supervisor's
    // oom-killed/cpu-limit classification.
    if let Err(e) = limits.apply() {
        eprintln!("npb: {e}");
        std::process::exit(npb::USAGE_EXIT_CODE);
    }

    which.make_ascii_uppercase();
    let list: Vec<&str> = if which == "ALL" { BENCHMARKS.to_vec() } else { vec![which.as_str()] };

    // SIGTERM/SIGINT (a supervisor's deadline-kill, a user's ^C) must
    // not vaporize an in-progress run's evidence: the watcher flushes
    // the partial trace profile (marked truncated) and an `interrupted`
    // report for the benchmark that was running, then dies with the
    // conventional 128+signum. Best effort by design — if the handler
    // itself wedges, the supervisor's SIGKILL escalation still wins.
    let in_progress: Arc<Mutex<Option<(String, Class, Style, usize)>>> = Arc::new(Mutex::new(None));
    {
        let in_progress = Arc::clone(&in_progress);
        let _ = npb_service::signal::watch(move |sig| {
            if let Some(session) = npb::trace::current() {
                let _ = session.write_output(true);
            }
            if let Some((name, class, style, threads)) = in_progress.lock().unwrap().clone() {
                println!(
                    "{}",
                    npb::BenchReport::interrupted_json(&name, class, style, threads, sig)
                );
            }
            std::process::exit(npb::signal_exit_code(sig));
        });
    }

    let mut failed = false;
    for name in list {
        *in_progress.lock().unwrap() = Some((name.to_string(), class, style, threads));
        let mut attempt = 0usize;
        loop {
            // The injected fault is armed only on the first attempt: it
            // is one-shot by design, so a retry must run clean.
            let opts = RunOptions {
                timeout,
                inject: inject.as_ref().filter(|_| attempt == 0),
                guard,
                spin_us,
                trace: trace_path.as_deref(),
                trace_format,
                backend,
                max_recoveries,
                sched,
            };
            match try_run_benchmark(name, class, style, threads, &opts) {
                Ok(report) => {
                    println!("{}", report.banner());
                    if json {
                        println!("{}", report.to_json(attempt + 1));
                    }
                    failed |= !report.verified.is_success()
                        && report.verified != npb::Verified::NotPerformed;
                    break;
                }
                Err(e @ (RunError::Unknown(_) | RunError::Config(_))) => {
                    eprintln!("{e}");
                    failed = true;
                    break;
                }
                Err(RunError::Region(e)) => {
                    eprintln!("{name}: {e}");
                    if attempt >= retries {
                        failed = true;
                        break;
                    }
                    attempt += 1;
                    eprintln!("{name}: retrying (attempt {attempt} of {retries})");
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
