//! Integration: the `npb-trace` observability layer.
//!
//! Covers the export contracts end to end — the JSON profile parses
//! with the harness's own strict reader and its spans are well-formed,
//! the folded export follows the `frame;frame <count>` grammar — plus
//! the two quantitative promises: per-region times account for the
//! wall clock of every benchmark's timed section, and recording costs
//! little enough that a traced run stays close to an untraced one.
//!
//! Every test here installs (directly or via `--trace`) the
//! process-global trace session, so they serialize on [`LOCK`].

use std::path::PathBuf;
use std::sync::Mutex;

use npb::{try_run_benchmark, Class, RunOptions, Style, TraceFormat, BENCHMARKS};
use npb_core::json::Json;

/// Serializes tests that install the process-global trace session.
static LOCK: Mutex<()> = Mutex::new(());

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("npb-trace-suite-{}-{name}", std::process::id()))
}

const KINDS: [&str; 5] = ["compute", "barrier_spin", "barrier_park", "dispatch", "rollback"];

#[test]
fn json_profile_roundtrips_through_the_harness_reader() {
    let _guard = LOCK.lock().unwrap();
    let path = tmp("cg-profile.json");
    let opts = RunOptions { trace: Some(&path), ..RunOptions::default() };
    let report = try_run_benchmark("CG", Class::S, Style::Opt, 2, &opts).expect("CG runs");
    assert!(report.verified.is_success());

    let text = std::fs::read_to_string(&path).expect("profile written");
    let v = Json::parse(text.trim()).expect("profile parses with the harness reader");
    assert_eq!(v.get_str("bench"), Some("CG"));
    assert_eq!(v.get_str("class"), Some("S"));
    assert_eq!(v.get_uint("threads"), Some(2));
    assert_eq!(v.get("truncated"), Some(&Json::Bool(false)));
    assert!(v.get_num("wall_secs").expect("wall_secs") > 0.0);

    // Every CG phase shows up with sane derived metrics, and the
    // profile's region list matches the report's regions field.
    let Some(Json::Arr(regions)) = v.get("regions") else { panic!("regions array") };
    let names: Vec<&str> = regions.iter().filter_map(|r| r.get_str("name")).collect();
    assert!(names.contains(&"conj_grad"), "regions: {names:?}");
    assert!(names.contains(&"power_step"), "regions: {names:?}");
    for r in regions {
        assert!(r.get_num("secs").expect("secs") >= 0.0);
        assert!(r.get_num("imbalance").expect("imbalance") >= 1.0 - 1e-9);
        assert!(r.get_num("min").unwrap() <= r.get_num("max").unwrap());
        let share = r.get_num("barrier_share").unwrap();
        assert!((0.0..=1.0).contains(&share), "barrier_share {share}");
    }
    let reported: Vec<&str> = report.regions.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, reported, "profile and BenchReport must agree on regions");
    std::fs::remove_file(&path).ok();
}

#[test]
fn spans_are_well_formed_and_per_rank_non_overlapping() {
    let _guard = LOCK.lock().unwrap();
    let path = tmp("mg-spans.json");
    let opts = RunOptions { trace: Some(&path), ..RunOptions::default() };
    let report = try_run_benchmark("MG", Class::S, Style::Opt, 2, &opts).expect("MG runs");
    assert!(report.verified.is_success());

    let text = std::fs::read_to_string(&path).expect("profile written");
    let v = Json::parse(text.trim()).expect("profile parses");
    let Some(Json::Arr(spans)) = v.get("spans") else { panic!("spans array") };
    assert!(!spans.is_empty(), "a traced MG run records spans");

    // (rank, kind) -> intervals. Worker lanes (rank >= 0) are single
    // writer and sequential per kind; the master lane (-1) may nest
    // scopes, so it only gets the end >= start check.
    let mut by_lane: std::collections::BTreeMap<(i64, String), Vec<(u64, u64)>> =
        std::collections::BTreeMap::new();
    for sp in spans {
        let rank = sp.get_num("rank").expect("rank") as i64;
        assert!(rank >= -1, "rank {rank}");
        let kind = sp.get_str("kind").expect("kind").to_string();
        assert!(KINDS.contains(&kind.as_str()), "unknown kind {kind}");
        assert!(sp.get_str("region").is_some());
        let start = sp.get_uint("start_ns").expect("start_ns");
        let end = sp.get_uint("end_ns").expect("end_ns");
        assert!(end >= start, "span ends before it starts: {start}..{end}");
        if rank >= 0 {
            by_lane.entry((rank, kind)).or_default().push((start, end));
        }
    }
    for ((rank, kind), mut iv) in by_lane {
        iv.sort_unstable();
        for w in iv.windows(2) {
            assert!(
                w[1].0 >= w[0].1,
                "rank {rank} {kind}: spans overlap ({:?} then {:?})",
                w[0],
                w[1]
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn folded_export_follows_the_collapsed_stack_grammar() {
    let _guard = LOCK.lock().unwrap();
    let path = tmp("mg.folded");
    let opts =
        RunOptions { trace: Some(&path), trace_format: TraceFormat::Folded, ..Default::default() };
    let report = try_run_benchmark("MG", Class::S, Style::Opt, 2, &opts).expect("MG runs");
    assert!(report.verified.is_success());

    let text = std::fs::read_to_string(&path).expect("folded written");
    assert!(!text.is_empty());
    let mut frames = Vec::new();
    for line in text.lines() {
        // Grammar: `region;kind <count>` — one space, integer count,
        // no separator characters inside the frames.
        let (stack, count) = line.rsplit_once(' ').expect("frame/count separator");
        count.parse::<u64>().expect("integer sample count");
        let parts: Vec<&str> = stack.split(';').collect();
        assert_eq!(parts.len(), 2, "exactly region;kind: {line:?}");
        assert!(parts.iter().all(|p| !p.is_empty() && !p.contains(char::is_whitespace)));
        assert!(KINDS.contains(&parts[1]), "kind frame: {line:?}");
        frames.push(stack.to_string());
    }
    assert!(frames.iter().any(|f| f == "resid;compute"), "frames: {frames:?}");
    assert!(frames.iter().any(|f| f == "psinv;compute"), "frames: {frames:?}");
    std::fs::remove_file(&path).ok();
}

/// The acceptance criterion: per-region times sum to within 10% of the
/// reported wall clock for every benchmark at class S (the phase scopes
/// cover essentially the whole timed section).
#[test]
fn region_times_account_for_the_wall_clock_of_every_benchmark() {
    let _guard = LOCK.lock().unwrap();
    for name in BENCHMARKS {
        let path = tmp(&format!("{name}-wall.json"));
        let opts = RunOptions { trace: Some(&path), ..RunOptions::default() };
        let report = try_run_benchmark(name, Class::S, Style::Opt, 0, &opts).unwrap_or_else(|e| {
            panic!("{name}: {e}");
        });
        std::fs::remove_file(&path).ok();
        assert!(!report.regions.is_empty(), "{name}: traced run must report regions");
        let sum: f64 = report.regions.iter().map(|r| r.secs).sum();
        let wall = report.time_secs;
        // 10% relative plus 1ms absolute slack for sub-10ms sections.
        let tol = 0.10 * wall + 1e-3;
        assert!(
            (sum - wall).abs() <= tol,
            "{name}: region sum {sum:.6}s vs wall {wall:.6}s (tol {tol:.6}s)"
        );
    }
}

/// Recording overhead stays small: a traced run's timed section is
/// within 25% (plus scheduling slack) of an untraced one, min-of-N on
/// both sides to shed scheduler noise.
#[test]
fn tracing_overhead_is_bounded_on_cg_and_mg() {
    let _guard = LOCK.lock().unwrap();
    let min_time = |name: &str, trace_to: Option<&PathBuf>| -> f64 {
        (0..5)
            .map(|_| {
                let opts =
                    RunOptions { trace: trace_to.map(|p| p.as_path()), ..Default::default() };
                let r = try_run_benchmark(name, Class::S, Style::Opt, 0, &opts).expect("runs");
                assert!(r.verified.is_success());
                r.time_secs
            })
            .fold(f64::INFINITY, f64::min)
    };
    for name in ["CG", "MG"] {
        let path = tmp(&format!("{name}-overhead.json"));
        let off = min_time(name, None);
        let on = min_time(name, Some(&path));
        std::fs::remove_file(&path).ok();
        assert!(on <= off * 1.25 + 2e-3, "{name}: traced min {on:.6}s vs untraced min {off:.6}s");
    }
}
