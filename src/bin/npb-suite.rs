//! `npb-suite` — the process-isolated suite supervisor CLI.
//!
//! ```text
//! npb-suite <BENCH[,BENCH...]|all>
//!           [--class S[,W,...]] [--style opt[,safe]] [--threads N[,M,...]]
//!           [--deadline-ms MS] [--retries N]
//!           [--inject panic|delay|hang|nan|bitflip[:SEED]]
//!           [--sdc-guard] [--checkpoint-every K] [--spin-us US]
//!           [--sched static|guided|feedback]
//!           [--backoff-ms MS] [--seed N] [--child-timeout-ms MS]
//!           [--manifest PATH] [--resume PATH] [--npb-bin PATH] [--trace]
//!           [--io-inject KIND[:SEED]] [--mem-limit-mb MB] [--cpu-limit-s S]
//!           [--fd-limit N]
//! ```
//!
//! Runs each (benchmark, class, style, threads) cell of the sweep as an
//! isolated child `npb` process, so one hung or dying cell cannot take
//! the sweep with it (which is exactly what a watchdog exit or a
//! wedged rank does to an in-process `npb all`):
//!
//! * `--deadline-ms` kills (then reaps) any child that overstays its
//!   wall-clock budget — the fault the in-process watchdog can only
//!   answer by dying;
//! * `--retries N` re-runs a failed cell up to N times per ladder rung,
//!   sleeping a deterministic exponential backoff (randlc-seeded jitter,
//!   `--seed`/`--backoff-ms`) between attempts;
//! * repeated region-class failures walk the degradation ladder
//!   (threads N → N/2 → … → serial) before the cell is quarantined;
//!   quarantined cells are reported, never silently dropped;
//! * `--manifest PATH` journals every attempt and outcome to an
//!   append-only JSONL file; `--resume PATH` skips cells the journal
//!   already completed, so a killed sweep continues where it died;
//! * the run flags — `--inject`, `--sdc-guard`, `--checkpoint-every K`,
//!   `--spin-us`, `--sched`, `--backend`, `--mem-limit-mb`,
//!   `--cpu-limit-s`, `--fd-limit`, and `--child-timeout-ms` as the
//!   child's `--timeout` — mean what they mean to `npb` (one `RunSpec`
//!   reads them for both) and reach every child; a sweep holding a run
//!   that cannot work (a worker fault or procs at a serial width, procs
//!   with a dynamic `--sched`, a width over 256) is refused before its
//!   first cell. On top of `npb`:
//!   - `--inject` rides only the *first* attempt of every cell (chaos
//!     testing; retries run clean);
//!   - a cell that verified only because the SDC guard rolled back is
//!     reported as *recovered* (the third level of the fault-tolerance
//!     stack, below the in-process watchdog and this supervisor);
//!   - the scalability table and each manifest cell record carry the
//!     `--sched` policy (all three are bitwise-identical per benchmark);
//!   - with `--backend procs` the degradation ladder bottoms out at one
//!     rank, and the verifying child's per-rank dispositions ride its
//!     record into the manifest;
//!   - a child killed by its `setrlimit` cap is journaled as
//!     `oom-killed` / `cpu-limit` and retried at a *smaller class*
//!     (C → B → … → S) before the thread ladder;
//! * `--trace` runs every child with the `npb-trace` span recorder: the
//!   per-region profile rides each child's `--json` record into the
//!   manifest's cell records, and the final summary prints a
//!   paper-style scalability table (benchmark × threads → time,
//!   speedup, efficiency, most imbalanced region);
//! * `--io-inject KIND[:SEED]` arms deterministic I/O fault injection
//!   on the *manifest* path (hostile-host drills): a tripped append
//!   loses at most that in-flight record, surfaces a structured
//!   `io-degraded` error, and a later `--resume` run picks up every
//!   cell the journal did land.
//!
//! Exit codes: 0 every cell of the sweep verified; 1 any cell failed or
//! was quarantined; 2 usage error.

use std::path::PathBuf;
use std::time::Duration;

use npb::{RunSpec, BENCHMARKS};
use npb_core::iofault::IoFaultPlan;
use npb_core::{Class, IoDegraded, Style};
use npb_harness::manifest::{Cell, CellStatus, Manifest, ResumeState};
use npb_harness::read_manifest;
use npb_harness::supervisor::{run_sweep, SuiteConfig};
use npb_runtime::spec::Flag;
use npb_runtime::FaultPlan;

fn usage() -> ! {
    eprintln!(
        "usage: npb-suite <{}|all>\n\
         \x20         [--class S[,W,...]] [--style opt[,safe]] [--threads N[,M,...]]\n\
         \x20         [--deadline-ms MS] [--retries N] [--inject {}[:SEED]]\n\
         \x20         [--sdc-guard] [--checkpoint-every K] [--spin-us US]\n\
         \x20         [--sched static|guided|feedback]\n\
         \x20         [--backoff-ms MS] [--seed N] [--child-timeout-ms MS]\n\
         \x20         [--backend threads|procs] [--manifest PATH] [--resume PATH]\n\
         \x20         [--npb-bin PATH] [--trace] [--io-inject {}[:SEED]]\n\
         \x20         [--mem-limit-mb MB] [--cpu-limit-s S] [--fd-limit N]",
        BENCHMARKS.join("|"),
        FaultPlan::KINDS,
        npb_core::iofault::IoFaultKind::KINDS
    );
    std::process::exit(npb::USAGE_EXIT_CODE);
}

fn fail(msg: &str) -> ! {
    eprintln!("npb-suite: {msg}");
    std::process::exit(npb::USAGE_EXIT_CODE);
}

/// Each entry of the comma-separated list axis `flag`, parsed.
fn each<T: std::str::FromStr>(flag: &str, raw: &str) -> Vec<T>
where
    T::Err: std::fmt::Display,
{
    let entry = |v: &str| v.parse().unwrap_or_else(|e| fail(&format!("{flag} {v:?}: {e}")));
    raw.split(',').map(entry).collect()
}

/// Locate the `npb` driver binary: an explicit `--npb-bin`, or the
/// sibling of this executable (both live in the same cargo target dir).
fn discover_npb_bin(explicit: Option<PathBuf>) -> PathBuf {
    if let Some(path) = explicit {
        if !path.is_file() {
            fail(&format!("--npb-bin {}: no such file", path.display()));
        }
        return path;
    }
    let sibling = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("npb")))
        .filter(|p| p.is_file());
    match sibling {
        Some(p) => p,
        None => fail(
            "could not find the `npb` binary next to npb-suite; \
             build it (cargo build --release) or pass --npb-bin <path>",
        ),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }

    let mut benches: Vec<String> = Vec::new();
    let which = args[0].clone();
    if which.eq_ignore_ascii_case("all") {
        benches.extend(BENCHMARKS.iter().map(|b| b.to_string()));
    } else {
        for b in which.split(',') {
            let b = b.to_ascii_uppercase();
            if !BENCHMARKS.contains(&b.as_str()) {
                fail(&format!("unknown benchmark {b:?} (expected one of {BENCHMARKS:?} or all)"));
            }
            benches.push(b);
        }
    }

    let mut classes = vec![Class::S];
    let mut styles = vec![Style::Opt];
    let mut threads: Vec<usize> = vec![0];
    let mut deadline: Option<Duration> = None;
    let mut retries = 0usize;
    let mut backoff_ms = 100u64;
    let mut seed = 1u64;
    let mut manifest_path: Option<PathBuf> = None;
    let mut resume_path: Option<PathBuf> = None;
    let mut npb_bin: Option<PathBuf> = None;
    let mut trace = false;
    let mut io_inject: Option<IoFaultPlan> = None;
    // Every child's run flags; class, style and width are the sweep's
    // list axes, and the watchdog is spelled `--child-timeout-ms` here.
    let mut run = RunSpec::new("");

    // Accept `--flag=value` as well as `--flag value`, like `npb`.
    let expanded = npb::expand_flag_args(&args[1..]);
    let mut it = expanded.iter();
    while let Some(flag) = it.next() {
        let axis =
            matches!(flag.as_str(), "--class" | "-c" | "--style" | "-s" | "--threads" | "-t");
        if !axis && flag != "--timeout" {
            match run.parse_flag(flag, &mut it) {
                Ok(Flag::Run) => continue,
                // Same warn-don't-die contract as the npb driver: a bad
                // cadence falls back to the child's default.
                Ok(Flag::Ignored(msg)) => {
                    eprintln!("npb-suite: {msg}");
                    continue;
                }
                Ok(Flag::Other) => {}
                Err(e) => {
                    eprintln!("npb-suite: {e}");
                    usage()
                }
            }
        }
        let val = |it: &mut std::slice::Iter<String>| -> String {
            it.next().cloned().unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--class" | "-c" => classes = each(flag, &val(&mut it)),
            "--style" | "-s" => styles = each(flag, &val(&mut it)),
            "--threads" | "-t" => threads = each(flag, &val(&mut it)),
            "--deadline-ms" => {
                let ms: u64 = val(&mut it).parse().unwrap_or_else(|_| usage());
                deadline = Some(Duration::from_millis(ms));
            }
            "--retries" => retries = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--backoff-ms" => backoff_ms = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--child-timeout-ms" => {
                run.timeout_ms = Some(val(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--manifest" => manifest_path = Some(PathBuf::from(val(&mut it))),
            "--resume" => resume_path = Some(PathBuf::from(val(&mut it))),
            "--npb-bin" => npb_bin = Some(PathBuf::from(val(&mut it))),
            "--trace" => trace = true,
            "--io-inject" => match IoFaultPlan::parse(&val(&mut it)) {
                Ok(plan) => io_inject = Some(plan),
                Err(e) => {
                    eprintln!("npb-suite: {e}");
                    usage()
                }
            },
            _ => usage(),
        }
    }

    // Refuse a sweep with a run that cannot work here, once, instead of
    // failing its cells one child at a time.
    for &t in &threads {
        if let Err(e) = (RunSpec { threads: t, ..run.clone() }).validate() {
            fail(&format!("the sweep's --threads {t} width: {e}"));
        }
    }

    if manifest_path.is_some() && resume_path.is_some() {
        fail(
            "--manifest and --resume are mutually exclusive (resume appends to the given manifest)",
        );
    }

    // The sweep, bench-major like `npb all`, with the full cross-product
    // of the class/style/thread axes (the paper's Tables 2-6 shape).
    let mut cells = Vec::new();
    for bench in &benches {
        for &class in &classes {
            for &style in &styles {
                for &t in &threads {
                    cells.push(Cell { bench: bench.clone(), class, style, threads: t });
                }
            }
        }
    }

    // Resume: learn which cells the journal already completed, then
    // keep appending to the same file (read first: the append cuts the
    // torn tail the read counted).
    let (mut manifest, resume) = if let Some(path) = resume_path {
        let state = read_manifest(&path).unwrap_or_else(|e| {
            fail(&format!("--resume {}: {e}", path.display()));
        });
        if state.torn_lines > 0 {
            eprintln!(
                "npb-suite: resume: skipped {} torn line(s) at the journal tail \
                 (the previous run died mid-append)",
                state.torn_lines
            );
        }
        let manifest = Manifest::append_with(&path, io_inject).unwrap_or_else(|e| {
            fail(&format!("--resume {}: {e}", path.display()));
        });
        (Some(manifest), state)
    } else if let Some(path) = manifest_path {
        let manifest = Manifest::create_with(&path, io_inject).unwrap_or_else(|e| {
            fail(&format!("--manifest {}: {e}", path.display()));
        });
        (Some(manifest), ResumeState::default())
    } else {
        (None, ResumeState::default())
    };

    let cfg = SuiteConfig {
        npb_bin: discover_npb_bin(npb_bin),
        deadline,
        retries,
        inject: run.inject,
        child_timeout_ms: run.timeout_ms,
        sdc_guard: run.sdc_guard,
        checkpoint_every: run.checkpoint_every,
        spin_us: run.spin_us,
        backend: Some(run.backend),
        sched: Some(run.sched),
        trace,
        degrade: true,
        backoff_base_ms: backoff_ms,
        seed,
        limits: run.limits,
    };

    // A manifest write failure is structured degradation, not a crash:
    // at most the in-flight record is lost, the event says so on
    // stderr, and a later --resume run completes the remaining cells.
    let manifest_failed = |op: &'static str, e: &std::io::Error| -> ! {
        let ev = IoDegraded::new("manifest", op, e);
        eprintln!("npb-suite: {ev}");
        eprintln!("{}", ev.json());
        std::process::exit(1);
    };

    if let Some(m) = manifest.as_mut() {
        if let Err(e) = m.run_header(cells.len(), seed, !resume.completed.is_empty()) {
            manifest_failed("run-header", &e);
        }
    }

    let result = match run_sweep(&cfg, &cells, manifest.as_mut(), &resume) {
        Ok(r) => r,
        Err(e) => manifest_failed("append", &e),
    };

    // Summary: every cell accounted for, quarantines named explicitly.
    let mut verified = 0usize;
    let mut recovered = 0usize;
    let mut failed = 0usize;
    let mut quarantined = 0usize;
    for o in &result.outcomes {
        match o.status {
            CellStatus::Verified => {
                verified += 1;
                if o.recoveries > 0 {
                    recovered += 1;
                }
            }
            CellStatus::Quarantined => quarantined += 1,
            CellStatus::Failed(_) => failed += 1,
        }
    }
    println!(
        "\nnpb-suite: {} cell(s): {verified} verified{}, {failed} failed, \
         {quarantined} quarantined{}",
        result.outcomes.len(),
        if recovered > 0 { format!(" ({recovered} via sdc recovery)") } else { String::new() },
        if result.skipped > 0 {
            format!(" ({} skipped via resume)", result.skipped)
        } else {
            String::new()
        }
    );
    for o in &result.outcomes {
        if o.status != CellStatus::Verified {
            println!(
                "npb-suite:   {}: {} after {} attempt(s), {} kill(s)",
                o.cell,
                o.status.tag(),
                o.attempts,
                o.kills
            );
        }
    }

    // The paper-style scalability table. A group whose smallest width
    // did not verify renders an explicit base-missing row — measured
    // rows are never dropped, and speedups are never silently rebased
    // on a different width.
    if let Some(table) = npb_harness::render_scalability(&result.outcomes) {
        print!("{table}");
    }

    if !result.all_verified() {
        std::process::exit(1);
    }
}
