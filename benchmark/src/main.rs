//! `npb-benchmark` — the repo's one benchmark: kernel throughput, thread
//! scaling and layer tax. See `benchmark/README.md`; run it through
//! `benchmark/run.sh`, which builds this crate and the shipped `npb` and
//! `npbd` binaries first.

mod cells;
mod compare;
mod host;
mod metrics;
mod plan;
mod platform;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use std::io::Write;
use std::path::{absolute, Path, PathBuf};
use std::process::ExitCode;

use host::Host;
use metrics::{END_TO_END, WORKLOADS};

/// The `run_seconds` written into `BENCHMARK.json`, and `--seconds` when
/// the caller gives none: five or more rounds of every kernel workload.
const RUN_SECONDS: u64 = 30;

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--out FILE]\n\
         \x20      run.sh --compare A.jsonl B.jsonl\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    );
    ExitCode::from(2)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    bin_dir: PathBuf,
    root: PathBuf,
}

fn run(args: &Args) -> std::io::Result<bool> {
    let host = Host::detect(&args.root);
    let out_dir = args.root.join("benchmark").join("out");
    let scratch = out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)?;
    // Scratch files (socket, journal, manifest) are named relative to
    // the working directory; see `platform::Env`.
    std::env::set_current_dir(&scratch)?;
    let env = platform::Env {
        npb_bin: args.bin_dir.join("npb"),
        npbd_bin: args.bin_dir.join("npbd"),
        scratch: scratch.clone(),
    };
    for bin in [&env.npb_bin, &env.npbd_bin] {
        if !bin.is_file() {
            return Err(std::io::Error::other(format!("{} is not built", bin.display())));
        }
    }
    // In-process callers of the procs backend have no worker mode of
    // their own; point rank spawning at the shipped binary.
    std::env::set_var("NPB_PROCS_WORKER_BIN", &env.npb_bin);

    let result = if args.traced {
        workloads::traced(&args.workload, args.seed, args.seconds, &env, &host, &out_dir)
    } else {
        workloads::untraced(&args.workload, args.seed, args.seconds, &env)
    };
    std::env::set_current_dir(&args.root)?;
    let _ = std::fs::remove_dir_all(&scratch);
    let report = result?;

    print!("{}", report.table(&host));
    for (what, why) in &report.failures {
        eprintln!("FAILED {what}: {why}");
    }
    if let Some(path) = &args.out {
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        writeln!(f, "{}", report.record(&host))?;
    }
    let names: Vec<String> = if args.traced {
        metrics::traced_names().into_iter().map(|(name, _)| name).collect()
    } else {
        END_TO_END.iter().filter(|m| m.universal()).map(|m| m.name.to_string()).collect()
    };
    let line = report.driver_line(&names).map_err(std::io::Error::other)?;
    println!("{line}");
    Ok(report.failures.is_empty())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        out: None,
        bin_dir: PathBuf::new(),
        root: PathBuf::new(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str);
        let ok = match flag.as_str() {
            "--compare" => {
                let (Some(a), Some(b)) = (value(), value()) else { return usage() };
                return match compare::run(Path::new(a), Path::new(b)) {
                    Ok(true) => ExitCode::SUCCESS,
                    Ok(false) => ExitCode::FAILURE,
                    Err(e) => {
                        eprintln!("compare: {e}");
                        ExitCode::from(2)
                    }
                };
            }
            "--print-benchmark-json" => {
                print!("{}", metrics::benchmark_json(RUN_SECONDS));
                return ExitCode::SUCCESS;
            }
            "--list-metrics" => {
                print!("{}", metrics::listing());
                return ExitCode::SUCCESS;
            }
            "--workload" => value().map(|v| args.workload = v.to_string()).is_some(),
            "--seed" => value().and_then(|v| v.parse().ok()).map(|v| args.seed = v).is_some(),
            "--seconds" => value()
                .and_then(|v| v.parse().ok())
                .filter(|s: &f64| s.is_finite() && *s > 0.0)
                .map(|v| args.seconds = v)
                .is_some(),
            "--trace" => match value() {
                Some("0") => true,
                Some("1") => {
                    args.traced = true;
                    true
                }
                _ => false,
            },
            "--out" => value().and_then(|v| absolute(v).ok()).map(|v| args.out = Some(v)).is_some(),
            "--bin-dir" => {
                value().and_then(|v| absolute(v).ok()).map(|v| args.bin_dir = v).is_some()
            }
            "--root" => value().and_then(|v| absolute(v).ok()).map(|v| args.root = v).is_some(),
            _ => false,
        };
        if !ok {
            eprintln!("bad argument {flag:?}");
            return usage();
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == args.workload)
        || args.bin_dir.as_os_str().is_empty()
        || args.root.as_os_str().is_empty()
    {
        return usage();
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("npb-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    /// The `key = value` lines of a manifest's `[profile.release]` table.
    fn release_profile(manifest: &str) -> Vec<String> {
        let mut lines: Vec<String> = manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| l.split('#').next().unwrap_or("").split_whitespace().collect::<String>())
            .filter(|l| !l.is_empty())
            .collect();
        lines.sort();
        lines
    }

    #[test]
    fn release_profile_equals_the_root_manifests() {
        let own = include_str!("../Cargo.toml");
        let root = include_str!("../../Cargo.toml");
        let profile = release_profile(own);
        assert!(profile.iter().any(|l| l.starts_with("opt-level=")), "{profile:?}");
        assert_eq!(
            profile,
            release_profile(root),
            "benchmark/Cargo.toml must measure npb's codegen"
        );
    }
}
