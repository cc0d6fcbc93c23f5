//! The golden table: every pinned `result_sig` of the suite, checked
//! through the shipped `npb` binary.
//!
//! `result_sig` is the integrity hash over exactly what verification
//! reads, so an equal value means equal bits. Each row is the argument
//! list of one `npb … --json` run and the signature its record must
//! carry; the run must also exit 0 and verify. Rows that share a value
//! pin an equivalence (two ranks against one, threads against procs, a
//! guarded replay against the clean run), and a value that only one
//! row carries pins that configuration across commits.
//!
//! `cargo test` runs this against the dev profile and `scripts/ci.sh`
//! runs it again with `--release`: the two builds must agree, since no
//! kernel uses a reassociating or contracting operation.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use npb_harness::json::Json;

/// What a row checks beyond exit 0, `"verified":"success"` and its
/// signature.
enum Check {
    /// Nothing more.
    Sig,
    /// The record reports `recoveries >= 1`: the injected fault fired,
    /// was contained, and the replay still reproduced the clean bits.
    Recovered,
    /// `{trace}` in the arguments names a fresh file; the record carries
    /// a `regions` profile, and the file written there names each region
    /// (JSON `"name":"…"`, or a folded line `region;…`).
    Regions(&'static [&'static str]),
}

use Check::{Recovered, Regions, Sig};

/// One row: the `npb` arguments, the pinned signature, the extra check.
type Row = (&'static str, &'static str, Check);

// The table, one section per `#[test]` below so a failure names its
// section and libtest runs the sections side by side.

#[rustfmt::skip]
const CLASS_W: &[Row] = &[
    // One class up, longest first so the slow rows start early. SP, BT,
    // LU, FT and IS have no cross-rank reduction, so two ranks reproduce
    // the serial bits; MG's two-rank norm partials differ from serial in
    // the last bit by design, and so do EP's Gaussian sums. Class W rows
    // are a vector body plus a tail at every level of MG and in the CFD
    // `rhs`; a line of BT or SP has full lane groups and a short last
    // one; FT.W is non-cubic (128 x 128 x 32).
    ("lu W",               "fbd2702917e9368f", Sig),
    ("lu W --threads 2",   "fbd2702917e9368f", Sig),
    ("sp W",               "e1fcdbc51df117a1", Sig),
    ("sp W --threads 2",   "e1fcdbc51df117a1", Sig),
    ("ft A",               "45a4ef276c97c6ac", Sig),
    ("bt W",               "5e10193d54224eb5", Sig),
    ("bt W --threads 2",   "5e10193d54224eb5", Sig),
    ("ep W",               "186d58c1226b8d19", Sig),
    ("ep W --threads 2",   "0aeea9318a29fd4a", Sig),
    ("cg W",               "54d2ae5d8af76ee7", Sig),
    ("cg W --threads 2",   "54d2ae5d8af76ee7", Sig),
    ("mg W",               "538914f57119183d", Sig),
    ("mg W --threads 2",   "538914f5711918c4", Sig),
    ("ft W",               "f3f4c1c52f452c45", Sig),
    ("ft W --threads 2",   "f3f4c1c52f452c45", Sig),
    ("is W",               "eaa689d79cff7395", Sig),
    ("is W --threads 2",   "eaa689d79cff7395", Sig),
];

#[rustfmt::skip]
const CLASS_A: &[Row] = &[
    // The class-A cells of the benchmark's memory-bound workload: IS.A
    // ranks 2^23 keys (32 MB each of keys, snapshot and the sorted array
    // full verification scatters), CG.A builds a 14,000-row sparse
    // matrix. As at classes S and W, two ranks reproduce the serial bits.
    ("cg A",             "54df160e90678231", Sig),
    ("cg A --threads 2", "54df160e90678231", Sig),
    ("is A",             "b089f4b7eaaa7395", Sig),
    ("is A --threads 2", "b089f4b7eaaa7395", Sig),
];

#[rustfmt::skip]
const CLASS_S: &[Row] = &[
    // Class S, serially, on two ranks, and on two ranks in the safe style
    // on the pure park path (the paper's wait/notify model). The five
    // benchmarks fed by the NPB generator were recorded with the
    // reference's double-precision split-multiply `randlc`; BT, SP and LU
    // with scalar sweeps and the per-point right-hand side, so a lane
    // kernel must reproduce them at whatever width the host dispatches.
    ("ep S",                                      "c0aed46ec67e150c", Sig),
    ("ep S --threads 2",                          "26e263b82a20c58f", Sig),
    ("ep S --threads 2 --style safe --spin-us 0", "26e263b82a20c58f", Sig),
    ("is S",                                      "6bbde6d3f0645b95", Sig),
    ("is S --threads 2",                          "6bbde6d3f0645b95", Sig),
    ("is S --threads 2 --style safe --spin-us 0", "6bbde6d3f0645b95", Sig),
    ("cg S",                                      "54cf2678bada079b", Sig),
    ("cg S --threads 2",                          "54cf2678bada079b", Sig),
    ("cg S --threads 2 --style safe --spin-us 0", "54cf2678bada079b", Sig),
    ("mg S",                                      "53b9c899b857c11d", Sig),
    ("mg S --threads 2",                          "53b9c899b857c11f", Sig),
    ("mg S --threads 2 --style safe",             "53b9c899b857c11f", Sig),
    ("mg S --threads 2 --style safe --spin-us 0", "53b9c899b857c11f", Sig),
    ("ft S",                                      "b830222e10844859", Sig),
    ("ft S --threads 2",                          "b830222e10844859", Sig),
    ("ft S --threads 2 --style safe --spin-us 0", "b830222e10844859", Sig),
    ("bt S",                                      "bf42440eb4417b06", Sig),
    ("bt S --threads 2",                          "bf42440eb4417b06", Sig),
    ("bt S --threads 2 --style safe --spin-us 0", "bf42440eb4417b06", Sig),
    ("sp S",                                      "7df6ccd34715cf27", Sig),
    ("sp S --threads 2",                          "7df6ccd34715cf27", Sig),
    ("sp S --threads 2 --style safe --spin-us 0", "7df6ccd34715cf27", Sig),
    ("lu S",                                      "529c15ac30ea7787", Sig),
    ("lu S --threads 2",                          "529c15ac30ea7787", Sig),
    ("lu S --threads 2 --style safe --spin-us 0", "529c15ac30ea7787", Sig),
];

#[rustfmt::skip]
const PROCS: &[Row] = &[
    // Threads against processes: EP, IS and CG run one rank body on both
    // backends, so each procs row carries its threads twin's value. Width
    // 3 splits CG.S's 1400 rows and IS.S's 65,536 keys unevenly; width 1
    // is the procs backend's single-rank edge.
    ("ep S --backend threads --threads 1",              "c0aed46ec67e150c", Sig),
    ("ep S --backend procs --threads 1",                "c0aed46ec67e150c", Sig),
    ("ep S --backend threads --threads 1 --style safe", "c0aed46ec67e150c", Sig),
    ("ep S --backend procs --threads 1 --style safe",   "c0aed46ec67e150c", Sig),
    ("ep S --backend threads --threads 3",              "52ab6a58d79c0bc9", Sig),
    ("ep S --backend procs --threads 3",                "52ab6a58d79c0bc9", Sig),
    ("ep S --backend threads --threads 3 --style safe", "52ab6a58d79c0bc9", Sig),
    ("ep S --backend procs --threads 3 --style safe",   "52ab6a58d79c0bc9", Sig),
    ("ep S --backend threads --threads 4",              "70aec715a5656920", Sig),
    ("ep S --backend procs --threads 4",                "70aec715a5656920", Sig),
    ("ep S --backend threads --threads 4 --style safe", "70aec715a5656920", Sig),
    ("ep S --backend procs --threads 4 --style safe",   "70aec715a5656920", Sig),
    ("is S --backend threads --threads 1",              "6bbde6d3f0645b95", Sig),
    ("is S --backend procs --threads 1",                "6bbde6d3f0645b95", Sig),
    ("is S --backend threads --threads 1 --style safe", "6bbde6d3f0645b95", Sig),
    ("is S --backend procs --threads 1 --style safe",   "6bbde6d3f0645b95", Sig),
    ("is S --backend threads --threads 3",              "6bbde6d3f0645b95", Sig),
    ("is S --backend procs --threads 3",                "6bbde6d3f0645b95", Sig),
    ("is S --backend threads --threads 3 --style safe", "6bbde6d3f0645b95", Sig),
    ("is S --backend procs --threads 3 --style safe",   "6bbde6d3f0645b95", Sig),
    ("is S --backend threads --threads 4",              "6bbde6d3f0645b95", Sig),
    ("is S --backend procs --threads 4",                "6bbde6d3f0645b95", Sig),
    ("is S --backend threads --threads 4 --style safe", "6bbde6d3f0645b95", Sig),
    ("is S --backend procs --threads 4 --style safe",   "6bbde6d3f0645b95", Sig),
    ("cg S --backend threads --threads 1",              "54cf2678bada079b", Sig),
    ("cg S --backend procs --threads 1",                "54cf2678bada079b", Sig),
    ("cg S --backend threads --threads 1 --style safe", "54cf2678bada079b", Sig),
    ("cg S --backend procs --threads 1 --style safe",   "54cf2678bada079b", Sig),
    ("cg S --backend threads --threads 3",              "54cf2678bada079b", Sig),
    ("cg S --backend procs --threads 3",                "54cf2678bada079b", Sig),
    ("cg S --backend threads --threads 3 --style safe", "54cf2678bada079b", Sig),
    ("cg S --backend procs --threads 3 --style safe",   "54cf2678bada079b", Sig),
    ("cg S --backend threads --threads 4",              "54cf2678bada079b", Sig),
    ("cg S --backend procs --threads 4",                "54cf2678bada079b", Sig),
    ("cg S --backend threads --threads 4 --style safe", "54cf2678bada079b", Sig),
    ("cg S --backend procs --threads 4 --style safe",   "54cf2678bada079b", Sig),
    // A rank dies after every rank committed a checkpoint; all restore
    // from it, and the replay reproduces the clean bits.
    ("ep S --backend procs --threads 2 --inject panic", "26e263b82a20c58f", Recovered),
    ("cg S --backend procs --threads 4 --inject panic", "54cf2678bada079b", Recovered),
];

#[rustfmt::skip]
const SCHED: &[Row] = &[
    // Adaptive loop scheduling matches the static partition bit for bit:
    // CG self-schedules its elementwise loops and keeps its reductions
    // static; feedback re-splits LU's pipelined wavefront, and guided
    // degrades to static there.
    ("cg S --threads 4 --sched static",   "54cf2678bada079b", Sig),
    ("cg S --threads 4 --sched guided",   "54cf2678bada079b", Sig),
    ("cg S --threads 4 --sched feedback", "54cf2678bada079b", Sig),
    ("lu S --threads 4 --sched static",   "529c15ac30ea7787", Sig),
    ("lu S --threads 4 --sched guided",   "529c15ac30ea7787", Sig),
    ("lu S --threads 4 --sched feedback", "529c15ac30ea7787", Sig),
];

#[rustfmt::skip]
const GUARDED: &[Row] = &[
    // The SDC guard: an exponent bit flip lands in the outer loop, the
    // guard detects it, rolls back to the last checkpoint and replays.
    // The replay is exact, so each row carries the clean serial value.
    ("cg S --sdc-guard --checkpoint-every=2 --inject bitflip:42", "54cf2678bada079b", Recovered),
    ("mg S --sdc-guard --checkpoint-every=2 --inject bitflip:42", "53b9c899b857c11d", Recovered),
    ("ft S --sdc-guard --checkpoint-every=2 --inject bitflip:42", "b830222e10844859", Recovered),
    ("bt S --sdc-guard --checkpoint-every=2 --inject bitflip:42", "bf42440eb4417b06", Recovered),
    ("sp S --sdc-guard --checkpoint-every=2 --inject bitflip:42", "7df6ccd34715cf27", Recovered),
    ("lu S --sdc-guard --checkpoint-every=2 --inject bitflip:42", "529c15ac30ea7787", Recovered),
];

#[rustfmt::skip]
const TRACED: &[Row] = &[
    // Tracing is observation only, in either export format. The folded
    // stacks hold the regions that ran on the team, so CG's serial
    // `power_step` shows only in the JSON profile.
    ("cg S --trace {trace}", "54cf2678bada079b", Regions(&["conj_grad", "power_step"])),
    ("cg S --threads 2 --trace {trace} --trace-format folded", "54cf2678bada079b",
        Regions(&["conj_grad"])),
];

/// Run one row and check it; `Err` says what went wrong.
fn check_row((args, sig, check): &Row) -> Result<(), String> {
    static TRACES: AtomicUsize = AtomicUsize::new(0);
    let trace = std::env::temp_dir().join(format!(
        "npb-golden-{}-{}",
        std::process::id(),
        TRACES.fetch_add(1, Ordering::Relaxed)
    ));
    let argv: Vec<String> = args
        .split_whitespace()
        .map(|a| a.replace("{trace}", trace.to_str().expect("utf-8 temp dir")))
        .collect();
    let out = Command::new(env!("CARGO_BIN_EXE_npb"))
        .args(&argv)
        .arg("--json")
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let profile = std::fs::read_to_string(&trace);
    std::fs::remove_file(&trace).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    let fail = |why: String| Err(format!("{why}\n  stderr: {}", stderr.trim_end()));
    if out.status.code() != Some(0) {
        return fail(format!("exit {:?}", out.status.code()));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let Some(line) = stdout.lines().rev().map(str::trim).find(|l| l.starts_with('{')) else {
        return fail("no --json record".into());
    };
    let record = Json::parse(line).map_err(|e| format!("unparseable record {line}: {e:?}"))?;
    if record.get_str("verified") != Some("success") {
        return fail(format!("verified = {:?}", record.get_str("verified")));
    }
    if record.get_str("result_sig") != Some(*sig) {
        return fail(format!("result_sig = {:?}, pinned {sig}", record.get_str("result_sig")));
    }
    match check {
        Sig => {}
        Recovered => {
            if record.get_uint("recoveries").unwrap_or(0) < 1 {
                return fail("no recovery reported: the fault never fired".into());
            }
        }
        Regions(regions) => {
            if !line.contains(r#""regions":["#) {
                return fail("the record carries no regions profile".into());
            }
            let profile = profile.map_err(|e| format!("no profile written: {e}"))?;
            let named = |r: &str| {
                profile.contains(&format!(r#""name":"{r}""#))
                    || profile.lines().any(|l| l.starts_with(&format!("{r};")))
            };
            if let Some(r) = regions.iter().find(|r| !named(r)) {
                return fail(format!("the profile does not name region {r}:\n{profile}"));
            }
        }
    }
    Ok(())
}

/// Rows in flight across every section: libtest runs the sections side
/// by side, and all of them together still start no more `npb` runs at
/// once than the host has CPUs (at most four, so FT.A and the class-W
/// rows stay within a small memory budget).
static IN_FLIGHT: (Mutex<usize>, Condvar) = (Mutex::new(0), Condvar::new());

fn max_in_flight() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// A slot of `IN_FLIGHT`, given back on drop (a panicking row included).
struct Slot;

impl Slot {
    fn take() -> Slot {
        let (count, freed) = &IN_FLIGHT;
        let mut n = freed.wait_while(count.lock().unwrap(), |n| *n >= max_in_flight()).unwrap();
        *n += 1;
        Slot
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        let (count, freed) = &IN_FLIGHT;
        *count.lock().unwrap() -= 1;
        freed.notify_one();
    }
}

/// Every row of `section`, on up to `max_in_flight()` runners; the
/// failure lists every row that missed, not only the first.
fn check_section(section: &[Row]) {
    let next = AtomicUsize::new(0);
    let failures: Vec<String> = std::thread::scope(|s| {
        let runners: Vec<_> = (0..max_in_flight())
            .map(|_| {
                s.spawn(|| {
                    let mut failed = Vec::new();
                    loop {
                        let Some(row) = section.get(next.fetch_add(1, Ordering::Relaxed)) else {
                            break failed;
                        };
                        let _slot = Slot::take();
                        if let Err(why) = check_row(row) {
                            failed.push(format!("npb {} --json: {why}", row.0));
                        }
                    }
                })
            })
            .collect();
        runners.into_iter().flat_map(|r| r.join().expect("runner panicked")).collect()
    });
    assert!(
        failures.is_empty(),
        "{} of {} rows failed:\n{}",
        failures.len(),
        section.len(),
        failures.join("\n")
    );
}

#[test]
fn class_w_and_ft_a_rows_reproduce_their_pinned_signatures() {
    check_section(CLASS_W);
}

#[test]
fn class_a_rows_reproduce_their_pinned_signatures() {
    check_section(CLASS_A);
}

#[test]
fn class_s_rows_reproduce_their_pinned_signatures() {
    check_section(CLASS_S);
}

#[test]
fn procs_rows_reproduce_their_threads_twins() {
    check_section(PROCS);
}

#[test]
fn dynamic_sched_rows_reproduce_the_static_signature() {
    check_section(SCHED);
}

#[test]
fn guarded_replays_reproduce_the_clean_signature() {
    check_section(GUARDED);
}

#[test]
fn traced_rows_reproduce_the_signature_and_name_their_regions() {
    check_section(TRACED);
}
