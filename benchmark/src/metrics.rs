//! The metric catalog: every workload, end-to-end metric and per-layer
//! metric the benchmark reports, by name, with unit and direction.
//! `BENCHMARK.json` at the repo root is this catalog in the driver's
//! format; a unit test keeps the two equal.

use std::collections::BTreeMap;
use std::sync::OnceLock;

/// This repo's layers, by module. `machine` is the host itself (the
/// roofline probes), not a layer of the program.
#[cfg(test)]
pub const LAYERS: [&str; 9] =
    ["machine", "core", "runtime", "kernel", "cfd_ops", "jgf", "npb", "harness", "service"];

/// The eight NPB benchmarks, lower-case, in the paper's table order.
pub const BENCHES: [&str; 8] = ["bt", "sp", "lu", "ft", "is", "cg", "mg", "ep"];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "compute_w",
        why: "BT class W and EP class S, serial and Team t2: compute-bound cache-friendly kernels (5x5 block solves, Gaussian pairs), where the kernel layer does nearly all the work and SIMD work must show",
    },
    Workload {
        name: "memory_a",
        why: "CG IS class A, MG FT class W, serial and Team t2: 25-110 MB working sets past the 4 MiB L2, bandwidth-bound, and the only workload with seconds of untimed set-up",
    },
    Workload {
        name: "small_s",
        why: "7 benchmarks class S x serial/safe/t1/t2/t2-park: cache-resident, so Team dispatch, barriers, spin-vs-park and bounds checks dominate",
    },
    Workload {
        name: "platform_s",
        why: "class S jobs through run_cell, a real npbd (cold then cached) and the procs backend: spawn, poll, JSON, fsync, admission and cache dominate",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` is `new` worse (positive) or better
    /// (negative)?
    pub fn worse_by(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }
}

/// A metric a user of the system would see, with the share of the
/// parent's median by which it may worsen before `--compare` calls a
/// regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// Workloads on which `--compare` gates it.
    pub workloads: &'static [&'static str],
    /// Listed under `end_to_end` in `BENCHMARK.json`, so gated by the
    /// driver too. The driver wants every such metric from every
    /// workload and a ten-seed spread within its bound on each; the
    /// others are listed there under `per_layer`.
    pub driver: bool,
}

const ALL: &[&str] = &["compute_w", "memory_a", "small_s", "platform_s"];
const SMALL: &[&str] = &["small_s"];
const PLATFORM: &[&str] = &["platform_s"];

const fn gate(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    workloads: &'static [&'static str],
) -> EndToEnd {
    EndToEnd { name, unit, better, bound, workloads, driver: false }
}

/// The `--compare`-only bounds are about three times the spread
/// (interquartile range over median) that ten seeds showed on the 2-vCPU
/// guest this was written on while it was quiet. The driver-gated three
/// carry the contract's maximum: the best round of a cell sheds what a
/// busy spell of seconds adds, but when the neighbours of that guest
/// stay busy for minutes a whole ten-seed set reads 10-15 % slower with
/// no change to the code. See README "This host".
pub const END_TO_END: [EndToEnd; 11] = [
    EndToEnd { driver: true, ..gate("setup_s", "s", Better::Lower, 0.25, ALL) },
    EndToEnd { driver: true, ..gate("serial_s", "s", Better::Lower, 0.25, ALL) },
    EndToEnd { driver: true, ..gate("mops_geomean", "Mop/s", Better::Higher, 0.25, ALL) },
    gate("t2_s", "s", Better::Lower, 0.22, ALL),
    gate("t1_s", "s", Better::Lower, 0.25, SMALL),
    gate("park_t2_s", "s", Better::Lower, 0.22, SMALL),
    gate("safe_s", "s", Better::Lower, 0.15, SMALL),
    // Not on compute_w: 13 MB whose high-water mark depends on the
    // seed-shuffled cell order through the allocator's retention.
    gate("peak_rss_mb", "MB", Better::Lower, 0.10, &["memory_a", "small_s"]),
    gate("procs_t2_s", "s", Better::Lower, 0.15, PLATFORM),
    gate("jobs_per_s", "1/s", Better::Higher, 0.10, PLATFORM),
    gate("lat_p95_ms", "ms", Better::Lower, 0.10, PLATFORM),
];

impl EndToEnd {
    /// In `BENCHMARK.json`'s `end_to_end`: measured by every workload
    /// and gated by the driver.
    pub fn universal(&self) -> bool {
        self.driver
    }

    pub fn on(&self, workload: &str) -> bool {
        self.workloads.contains(&workload)
    }
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A metric of one layer, from the traced run. `moves` names the
/// end-to-end metric (and workload) a change to it should move; "none"
/// marks ledger-only rows.
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

/// The trace regions each kernel already names (read back from
/// `BenchReport.regions`).
pub fn regions_of(bench: &str) -> &'static [&'static str] {
    match bench {
        "bt" | "sp" => &["rhs", "x_solve", "y_solve", "z_solve", "add"],
        "lu" => &["rhs", "blts", "buts", "add", "scale"],
        "ft" => &["setup", "fft", "evolve", "checksum"],
        "mg" => &["resid", "psinv", "rprj3", "interp", "norm2"],
        "cg" => &["conj_grad", "power_step"],
        "is" => &["rank"],
        "ep" => &["gaussian_pairs"],
        _ => &[],
    }
}

/// The metric name of a kernel's trace region. FT names a region `setup`
/// (inside its timed section), which would collide with FT's term of
/// `setup_s` (outside it); that one row says `region_setup`.
pub fn region_metric(bench: &str, region: &str) -> String {
    match (bench, region) {
        ("ft", "setup") => "kernel.ft.region_setup_s".to_string(),
        _ => format!("kernel.{bench}.{region}_s"),
    }
}

/// Every per-layer metric, in report order (111 of the layers' own,
/// plus the demoted `cell_p50_ms`, `lat_p50_ms` and `hit_p50_ms`).
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut v: Vec<PerLayer> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better, moves: &'static str| {
        v.push(PerLayer { name: name.to_string(), unit, better, moves });
    };
    add("machine.triad_gb_per_s", "GB/s", Higher, "none (roofline context)");
    add("machine.fma_gflops", "Gflop/s", Higher, "none (roofline context)");

    add("core.vranlc_mrand_per_s", "M/s", Higher, "setup_s@memory_a, serial_s@compute_w (EP)");
    add("core.report_json_us", "us", Lower, "lat_p50_ms");
    add("core.state_hash_gb_per_s", "GB/s", Higher, "none");
    add("core.guard_overhead_ratio", "ratio", Lower, "none");
    add("core.trace_overhead_ratio", "ratio", Lower, "none; must stay < 1.05");

    add("runtime.team_spawn_us", "us", Lower, "setup_s@small_s, lat_p50_ms");
    add("runtime.fork_join_ns.t1", "ns", Lower, "t1_s@small_s");
    add("runtime.fork_join_ns.t2", "ns", Lower, "t2_s@small_s; no move @memory_a");
    add("runtime.fork_join_ns.t2_park", "ns", Lower, "park_t2_s@small_s");
    add("runtime.barrier_ns.t2", "ns", Lower, "t2_s@small_s, LU's share of t2_s@compute_w");
    add("runtime.barrier_ns.t2_park", "ns", Lower, "park_t2_s@small_s");
    add("runtime.reduce_sum_ns.t2", "ns", Lower, "t2_s@small_s (CG)");
    add("runtime.sched_dispatch_ns.static", "ns", Lower, "none");
    add("runtime.sched_dispatch_ns.guided", "ns", Lower, "none");
    add("runtime.sched_dispatch_ns.feedback", "ns", Lower, "none");
    add("runtime.dispatches", "count", Lower, "t2_s");
    add("runtime.barrier_share", "ratio", Lower, "t2_s");
    add("runtime.imbalance_max", "ratio", Lower, "t2_s");
    add("runtime.sync_tax_predicted_s", "s", Lower, "t2_s - serial_s/2 @small_s");
    add("runtime.t1_ratio", "ratio", Lower, "derived: t1_s / serial_s");
    add("runtime.t2_speedup", "ratio", Higher, "derived: serial_s / t2_s");

    for b in BENCHES {
        add(&format!("kernel.{b}.serial_s"), "s", Lower, "serial_s");
        add(&format!("kernel.{b}.t2_s"), "s", Lower, "t2_s");
        add(&format!("kernel.{b}.mops"), "Mop/s", Higher, "mops_geomean");
        add(&format!("kernel.{b}.setup_s"), "s", Lower, "setup_s");
    }
    for b in BENCHES {
        for r in regions_of(b) {
            add(&region_metric(b, r), "s", Lower, "serial_s of its workload");
        }
    }
    add("kernel.mg.resid_gb_per_s", "GB/s", Higher, "serial_s@memory_a");
    add("kernel.ft.cfftz_gflops", "Gflop/s", Higher, "serial_s@memory_a");
    add("kernel.bt.matmul_sub_gflops", "Gflop/s", Higher, "serial_s@compute_w");
    add("kernel.is.rank_mkeys_per_s", "Mkey/s", Higher, "serial_s@memory_a");

    for op in ["assignment", "stencil1", "stencil2", "matvec", "reduction"] {
        add(&format!("cfd_ops.{op}_s"), "s", Lower, "none (Table 1 control)");
    }
    add("jgf.lufact_mflops", "Mflop/s", Higher, "none (Table 7 control)");
    add("jgf.blocked_mflops", "Mflop/s", Higher, "none (Table 7 control)");

    add("npb.facade_overhead_ms", "ms", Lower, "setup_s@small_s");
    add("npb.safe_ratio", "ratio", Lower, "derived: safe_s / serial_s");
    add("npb.procs_tax_ratio", "ratio", Lower, "procs_t2_s");
    add("npb.procs_spawn_ms", "ms", Lower, "procs_t2_s, setup_s@platform_s");

    add("harness.spawn_overhead_ms", "ms", Lower, "cell_p50_ms, lat_p50_ms, jobs_per_s");
    add("harness.manifest_append_us", "us", Lower, "cell_p50_ms");
    add("harness.json_parse_mb_per_s", "MB/s", Higher, "setup_s");
    add("harness.read_manifest_ms", "ms", Lower, "setup_s");
    add("harness.attempts_per_cell", "ratio", Lower, "must be 1.0");
    // Meant as end-to-end metrics; demoted because the supervisors poll
    // every 10 ms, so a call's wall is a step function of the child's
    // time and the median call sits on one step or the next (31 or 42 ms)
    // from one set of runs to another. `setup_s`@platform_s, the sum of
    // the calls' untimed parts, carries the same tax without the step.
    add("cell_p50_ms", "ms", Lower, "ungated: median run_cell wall, phase (a)");
    add("lat_p50_ms", "ms", Lower, "ungated: median cold submit -> done, phase (b)");

    add("service.proto_parse_us", "us", Lower, "lat_p50_ms");
    add("service.accept_ms", "ms", Lower, "lat_p50_ms, lat_p95_ms, jobs_per_s");
    add("service.exec_ms", "ms", Lower, "lat_p50_ms, lat_p95_ms, jobs_per_s");
    add("service.journal_append_us", "us", Lower, "lat_p50_ms, jobs_per_s");
    add("service.cache_hit_us", "us", Lower, "hit_p50_ms");
    add("service.cache_hit_share", "ratio", Higher, "hit_p50_ms; 0 cold, 1 on resubmit");
    // Meant as an end-to-end metric; demoted because it does not repeat
    // (31 % spread over ten seeds: a cached reply takes 12 us or 50 us
    // depending on which vCPU the daemon's thread wakes on).
    add("hit_p50_ms", "ms", Lower, "ungated: cached resubmit -> done, phase (c)");
    add("service.recover_ms", "ms", Lower, "setup_s");
    // The complement of the issue's `rejected_share` (must be 0): no
    // reported value is ever 0, so a reader cannot mistake it for absent.
    add("service.admitted_share", "ratio", Higher, "must be 1");
    v
}

/// The catalog's unit for a metric name ("" for a name it does not
/// know, which the report's own checks then refuse).
pub fn unit_of(name: &str) -> &'static str {
    static UNITS: OnceLock<BTreeMap<String, &'static str>> = OnceLock::new();
    UNITS
        .get_or_init(|| {
            let mut units: BTreeMap<String, &'static str> =
                per_layer().into_iter().map(|m| (m.name, m.unit)).collect();
            units.extend(END_TO_END.iter().map(|m| (m.name.to_string(), m.unit)));
            units
        })
        .get(name)
        .copied()
        .unwrap_or("")
}

/// What `--trace 1` prints: the catalog's per-layer metrics, preceded by
/// the end-to-end metrics that only some workloads measure.
pub fn traced_names() -> Vec<(String, Better)> {
    let mut v: Vec<(String, Better)> = END_TO_END
        .iter()
        .filter(|m| !m.universal())
        .map(|m| (m.name.to_string(), m.better))
        .collect();
    v.extend(per_layer().into_iter().map(|m| (m.name, m.better)));
    v
}

/// The catalog as text (`--list-metrics`): what each metric is gated by
/// or, for a per-layer metric, what it is expected to move.
pub fn listing() -> String {
    let mut out = String::from("end-to-end: name, unit, better, bound, workloads\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "  {:<14} {:<6} {:<6} {:>3.0}%  {}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound * 100.0,
            m.workloads.join(" ")
        ));
    }
    out.push_str("per-layer: name, unit, better, should move\n");
    for m in per_layer() {
        out.push_str(&format!(
            "  {:<34} {:<8} {:<6} {}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.moves
        ));
    }
    out
}

/// `BENCHMARK.json`, rendered from the catalog.
pub fn benchmark_json(run_seconds: u64) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .filter(|m| m.universal())
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            )
        })
        .collect();
    let layer: Vec<String> = traced_names()
        .iter()
        .map(|(name, better)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                unit_of(name),
                better.label()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        let layer = per_layer();
        assert_eq!(layer.len(), 114);
        let traced = traced_names();
        assert!(traced.len() <= 128, "{} per-layer metrics", traced.len());
        assert!(END_TO_END.len() <= 16);
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name.to_string()), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name.to_string()), "duplicate {}", m.name);
            assert!(m.workloads.iter().all(|w| WORKLOADS.iter().any(|x| x.name == *w)));
        }
        for m in &layer {
            assert!(name_ok(&m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
            let layer_of = m.name.split('.').next().unwrap();
            assert!(
                LAYERS.contains(&layer_of) || m.name.ends_with("_p50_ms"),
                "{} names no layer",
                m.name
            );
        }
        let setup = end_to_end("setup_s").unwrap();
        assert!(setup.universal() && setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().filter(|m| m.driver).all(|m| m.workloads == ALL));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the widest bound");
    }

    #[test]
    fn benchmark_json_at_the_root_is_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = npb_harness::Json::parse(&on_disk).expect("BENCHMARK.json parses");
        let secs = v.get_uint("run_seconds").expect("run_seconds");
        assert!((1..=60).contains(&secs));
        assert_eq!(
            on_disk,
            benchmark_json(secs),
            "regenerate with `run.sh --print-benchmark-json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((Better::Lower.worse_by(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worse_by(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Lower.worse_by(10.0, 9.0) < 0.0);
    }
}
