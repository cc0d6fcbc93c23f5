//! The four workloads, untraced (end-to-end metrics) and traced
//! (per-layer metrics), as functions from `(workload, seed, seconds)` to
//! a [`Report`].

use std::path::Path;
use std::time::Instant;

use npb_core::Class;

use crate::cells::{run_passes, Sample, Samples, TeamTrace};
use crate::host::{peak_rss_mb, Host};
use crate::metrics::{region_metric, regions_of, BENCHES};
use crate::plan::{context_cells, kernel_cells, ledger_cells, Cell, Mode, SMALL_BENCHES};
use crate::platform::{self, Budget, Env, PlatformData};
use crate::probes;
use crate::report::Report;
use crate::spans::SpanLog;
use crate::stats::{geomean, median, percentile_sorted, top_percentile, Summary};

/// Seconds since the previous lap.
struct Laps(Instant);

impl Laps {
    fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let secs = (now - self.0).as_secs_f64();
        self.0 = now;
        secs
    }
}

fn time_s(s: &Sample) -> f64 {
    s.time_s
}

fn own_peak_rss() -> Option<Summary> {
    peak_rss_mb(std::process::id()).map(|mb| Summary::point(mb, 1))
}

/// The end-to-end metrics of a set of in-process cells.
fn kernel_end_to_end(samples: &Samples, small: bool, r: &mut Report) {
    r.push("setup_s", samples.setup());
    r.push("serial_s", samples.sum_over_benches(Mode::Serial, time_s));
    r.push("mops_geomean", samples.mops_geomean());
    r.push("t2_s", samples.sum_over_benches(Mode::T2, time_s));
    if small {
        r.push("t1_s", samples.sum_over_benches(Mode::T1, time_s));
        r.push("park_t2_s", samples.sum_over_benches(Mode::Park, time_s));
        r.push("safe_s", samples.sum_over_benches(Mode::Safe, time_s));
    }
}

fn ms(samples: impl Iterator<Item = f64>) -> Vec<f64> {
    samples.map(|s| s * 1e3).collect()
}

/// Per benchmark of phase (a), the best pass's `f` of its supervised
/// child (the highest with `higher`, else the lowest), folded over the
/// seven benchmarks. `None` when one of them never verified.
fn best_over_children(
    data: &PlatformData,
    f: impl Fn(&platform::CellCall) -> f64,
    higher: bool,
    fold: impl Fn(&[f64]) -> f64,
) -> Option<Summary> {
    let parts: Option<Vec<Summary>> = SMALL_BENCHES
        .iter()
        .map(|b| {
            let v: Vec<f64> = data.cells.iter().filter(|c| c.bench == *b).map(&f).collect();
            Summary::of(&v).map(|s| s.best(higher))
        })
        .collect();
    Summary::fold(&parts?, fold)
}

/// The metrics every workload reports, as the platform phases have them.
fn platform_common(data: &PlatformData, r: &mut Report) {
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    // Everything the caller waits for that is not a kernel's timed
    // section: the daemon coming up, and around each supervised child
    // the spawn, the 10 ms poll, the JSON record and the manifest fsync.
    let start = Summary::of(&data.daemon_start_s).map(|s| s.best(false));
    let tax = best_over_children(data, |c| c.wall_s - c.time_s, false, sum);
    r.push("setup_s", start.zip(tax).and_then(|(start, tax)| Summary::fold(&[start, tax], sum)));
    r.push("serial_s", best_over_children(data, |c| c.time_s, false, sum));
    r.push("mops_geomean", best_over_children(data, |c| c.mops, true, geomean));
    r.push("t2_s", data.procs.sum_over_benches(Mode::T2, time_s));
}

/// The end-to-end metrics only the platform phases have.
fn platform_native(data: &PlatformData, r: &mut Report) {
    r.push("procs_t2_s", data.procs.sum_over_benches(Mode::Procs, time_s));
    r.push("cell_p50_ms", Summary::of(&ms(data.cells.iter().map(|c| c.wall_s))));
    let done = data.cold.len();
    r.push(
        "jobs_per_s",
        (data.cold_wall_s > 0.0).then(|| Summary::point(done as f64 / data.cold_wall_s, done)),
    );
    let mut lat = ms(data.cold.iter().map(|j| j.lat_s));
    lat.sort_by(f64::total_cmp);
    r.push("lat_p50_ms", Summary::of(&lat));
    r.push(
        "lat_p95_ms",
        (!lat.is_empty()).then(|| Summary::point(percentile_sorted(&lat, 95.0), lat.len())),
    );
    r.push("hit_p50_ms", Summary::of(&ms(data.hits.iter().map(|j| j.lat_s))));
    r.notes.push(format!(
        "platform: {} npbd starts, {} run_cell passes, {} cold jobs in {:.2} s (2 clients), \
         {} cached resubmits, {} procs passes; highest percentile with 10 samples beyond it: \
         p{} of cold latency",
        data.daemon_start_s.len(),
        data.cell_passes,
        done,
        data.cold_wall_s,
        data.hits.len(),
        data.procs.passes,
        top_percentile(lat.len()).map_or("-".to_string(), |p| p.to_string()),
    ));
}

/// Run `workload` with tracing off and report its end-to-end metrics.
pub fn untraced(workload: &str, seed: u64, seconds: f64, env: &Env) -> std::io::Result<Report> {
    let mut r = Report::new(workload, seed, false, seconds);
    if workload == "platform_s" {
        let data = platform::run(env, seed, &Budget::full(seconds), false, None)?;
        platform_common(&data, &mut r);
        platform_native(&data, &mut r);
        r.push("peak_rss_mb", Some(Summary::point(data.npbd_rss_mb, 1)));
        r.attempted = data.attempted;
        r.failures.extend(data.failures);
    } else {
        let cells = kernel_cells(workload);
        let samples = run_passes(&cells, seed, seconds, 1, false, None);
        kernel_end_to_end(&samples, workload == "small_s", &mut r);
        r.push("peak_rss_mb", own_peak_rss());
        r.attempted = samples.samples.len() as u64;
        r.failures.extend(samples.failures());
        r.notes.push(format!(
            "{} round(s) over {} cells; timings are sums over cells of the best round",
            samples.passes,
            cells.len()
        ));
    }
    Ok(r)
}

/// `kernel.<b>.*` rows: each benchmark from the first of `sources` that
/// ran it — the workload's long ledger cells, its own cells, the class-S
/// context cells — so at the biggest class the run has it at.
fn kernel_rows(sources: [&Samples; 3], r: &mut Report) {
    let source = |upper: &str| {
        sources
            .into_iter()
            .find(|s| s.summary(upper, Mode::Serial, time_s).is_some())
            .unwrap_or(sources[2])
    };
    let mut classes = Vec::new();
    for b in BENCHES {
        let upper = b.to_ascii_uppercase();
        let src = source(&upper);
        let class = src.samples.iter().find(|s| s.cell.bench == upper).map(|s| s.cell.class);
        classes.push(format!("{upper}.{}", class.map_or('?', Class::as_char)));
        let best = |mode, f: fn(&Sample) -> f64, higher| {
            src.summary(&upper, mode, f).map(|s| s.best(higher))
        };
        r.push(&format!("kernel.{b}.serial_s"), best(Mode::Serial, time_s, false));
        r.push(&format!("kernel.{b}.t2_s"), best(Mode::T2, time_s, false));
        r.push(&format!("kernel.{b}.mops"), best(Mode::Serial, |s| s.mops, true));
        r.push(
            &format!("kernel.{b}.setup_s"),
            best(Mode::Serial, |s| (s.wall_s - s.time_s).max(0.0), false),
        );
    }
    for b in BENCHES {
        let upper = b.to_ascii_uppercase();
        for region in regions_of(b) {
            let secs = source(&upper).region_s(&upper, region);
            r.push(&region_metric(b, region), secs.map(|v| Summary::point(v, 1)));
        }
    }
    r.notes.push(format!("kernel.<b>.* rows are for {}", classes.join(" ")));
}

/// Rows read from the runtime's own trace of the Team-of-2 cells.
fn runtime_trace_rows(samples: &Samples, fork_join_ns: f64, barrier_ns: f64, r: &mut Report) {
    let traces = samples.team_traces();
    let mut cells: Vec<Cell> = traces.iter().map(|(c, _)| *c).collect();
    cells.sort();
    cells.dedup();
    // Per cell the median over passes, then summed (counts) or folded.
    let per_cell = |f: &dyn Fn(&TeamTrace) -> f64| -> Vec<f64> {
        cells
            .iter()
            .map(|c| {
                median(
                    &traces.iter().filter(|(x, _)| x == c).map(|(_, t)| f(t)).collect::<Vec<_>>(),
                )
            })
            .collect()
    };
    let n = cells.len();
    let dispatches: f64 = per_cell(&|t| t.dispatches).iter().sum();
    let barriers: f64 = per_cell(&|t| t.barriers).iter().sum();
    let shares = per_cell(&|t| t.barrier_share);
    let some = |v: f64| (n > 0).then(|| Summary::point(v, n));
    r.push("runtime.dispatches", some(dispatches));
    r.push("runtime.barrier_share", some(shares.iter().sum::<f64>() / n.max(1) as f64));
    r.push(
        "runtime.imbalance_max",
        some(per_cell(&|t| t.imbalance_max).iter().copied().fold(1.0, f64::max)),
    );
    let predicted = (dispatches * fork_join_ns + barriers * barrier_ns) * 1e-9;
    r.push("runtime.sync_tax_predicted_s", some(predicted));
    let exact = traces.iter().all(|(_, t)| t.exact);
    let serial = samples.sum_over_benches(Mode::Serial, time_s).map_or(0.0, |s| s.value);
    let t2 = samples.sum_over_benches(Mode::T2, time_s).map_or(0.0, |s| s.value);
    r.notes.push(format!(
        "runtime: {dispatches:.0} dispatches and {barriers:.0} barriers over {n} t2 cells ({}); \
         predicted sync tax {predicted:.4} s beside measured t2_s - serial_s/2 = {:.4} s",
        if exact { "exact" } else { "scaled up from the retained span window" },
        t2 - serial / 2.0
    ));
}

/// The per-layer rows the platform phases give.
fn platform_layer_rows(data: &PlatformData, r: &mut Report) {
    let point = |v: f64, n: usize| (n > 0).then(|| Summary::point(v, n));
    r.push(
        "harness.spawn_overhead_ms",
        Summary::of(&ms(data.cells.iter().map(|c| c.wall_s - c.time_s))),
    );
    let attempts: u64 = data.cells.iter().map(|c| c.attempts).sum();
    r.push(
        "harness.attempts_per_cell",
        point(attempts as f64 / data.cells.len().max(1) as f64, data.cells.len()),
    );
    r.push("harness.read_manifest_ms", Some(Summary::point(data.read_manifest_ms, 1)));
    r.push("service.accept_ms", Summary::of(&ms(data.cold.iter().map(|j| j.accept_s))));
    r.push("service.exec_ms", Summary::of(&ms(data.cold.iter().map(|j| j.lat_s - j.accept_s))));
    // `hits` holds the resubmits that came back `from_cache`; any other
    // reply to a resubmit is among the failures.
    r.push(
        "service.cache_hit_share",
        point(data.hits.len() as f64 / data.resubmits.max(1) as f64, data.resubmits as usize),
    );
    r.push("service.recover_ms", Some(Summary::point(data.recover_ms, 1)));
    let submits = data.cold_submits + data.resubmits;
    r.push(
        "service.admitted_share",
        point(1.0 - data.rejected as f64 / submits.max(1) as f64, submits as usize),
    );
    let procs = data.procs.sum_over_benches(Mode::Procs, time_s);
    let team = data.procs.sum_over_benches(Mode::T2, time_s);
    r.push(
        "npb.procs_tax_ratio",
        procs.zip(team).map(|(p, t)| Summary::point(p.value / t.value, p.n)),
    );
    // Rank spawn, per-rank init and teardown: what the procs calls
    // spend outside their timed sections, summed over the three cells.
    r.push(
        "npb.procs_spawn_ms",
        data.procs.sum_over_benches(Mode::Procs, |s| (s.wall_s - s.time_s).max(0.0) * 1e3),
    );
}

/// Run `workload` traced and report every per-layer metric: one traced
/// round of the workload itself (`platform_s`: half the budget) and of
/// its long ledger cells, the class-S context cells and short platform
/// phases wherever the workload does not already contain them, and the
/// direct probes. Writes `trace_<workload>.json` into `out_dir`.
pub fn traced(
    workload: &str,
    seed: u64,
    seconds: f64,
    env: &Env,
    host: &Host,
    out_dir: &Path,
) -> std::io::Result<Report> {
    let mut r = Report::new(workload, seed, true, seconds);
    let mut spans = SpanLog::new();
    let mut clock = Laps(Instant::now());

    // The workload's own traced round.
    let root = spans.enter("npb", &format!("workload {workload} (traced)"), workload);
    let own_cells = kernel_cells(workload);
    let own = run_passes(&own_cells, seed, 0.0, 1, true, Some(&mut spans));
    let ledger = run_passes(&ledger_cells(workload), seed, 0.0, 1, true, Some(&mut spans));
    let data = if workload == "platform_s" {
        platform::run(env, seed, &Budget::full(seconds / 2.0), true, Some(&mut spans))?
    } else {
        platform::run(env, seed, &Budget::mini(), true, Some(&mut spans))?
    };
    spans.exit(root);
    let t_own = clock.lap();
    // Before the probes' large arrays raise the high-water mark.
    let rss = if workload == "platform_s" {
        Some(Summary::point(data.npbd_rss_mb, 1))
    } else {
        own_peak_rss()
    };

    // Class-S context: whatever of it the workload did not already run.
    let context_list: Vec<Cell> = context_cells()
        .into_iter()
        .filter(|c| !own_cells.contains(c))
        .filter(|c| c.bench != "EP" || !own_cells.iter().any(|o| o.bench == "EP"))
        .collect();
    let context = run_passes(&context_list, seed, 0.0, 1, true, Some(&mut spans));
    // The seven class-S benchmarks in all five modes (EP has only two).
    let mut sweep = if workload == "small_s" { own.clone() } else { Samples::default() };
    sweep.extend(context.clone());
    sweep.samples.retain(|s| s.cell.bench != "EP");
    let t_context = clock.lap();

    // Tracing on over tracing off, same serial class-S cells, passes
    // alternating so a slow spell of the host lands on both sides.
    let serial_s: Vec<Cell> =
        kernel_cells("small_s").into_iter().filter(|c| c.mode == Mode::Serial).collect();
    let (mut on, mut off) = (Samples::default(), Samples::default());
    for pass in 0..3 {
        off.extend(run_passes(&serial_s, seed.wrapping_add(pass), 0.0, 1, false, None));
        on.extend(run_passes(&serial_s, seed.wrapping_add(pass), 0.0, 1, true, None));
    }
    let t_overhead = clock.lap();
    let probed = probes::run(host.llc_bytes, &env.scratch, &mut spans)?;
    r.notes.push(format!(
        "traced run: workload and platform phases {t_own:.1} s, class-S context {t_context:.1} s, \
         tracing on/off pairs {t_overhead:.1} s, direct probes {:.1} s",
        clock.lap()
    ));

    // End-to-end metrics that only some workloads gate, from wherever a
    // traced run has them: the class-S sweep and the platform phases.
    r.push("t1_s", sweep.sum_over_benches(Mode::T1, time_s));
    r.push("park_t2_s", sweep.sum_over_benches(Mode::Park, time_s));
    r.push("safe_s", sweep.sum_over_benches(Mode::Safe, time_s));
    r.push("peak_rss_mb", rss);
    let own_t2 = if own_cells.is_empty() {
        data.procs.sum_over_benches(Mode::T2, time_s)
    } else {
        own.sum_over_benches(Mode::T2, time_s)
    };
    r.push("t2_s", own_t2);
    platform_native(&data, &mut r);

    let value = |name: &str| probed.rows.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    let ratio = |a: Option<Summary>, b: Option<Summary>| {
        a.zip(b).map(|(a, b)| Summary::point(a.value / b.value, a.n.min(b.n)))
    };
    let serial_of = |s: &Samples| s.sum_over_benches(Mode::Serial, time_s);
    let t2_of = |s: &Samples| s.sum_over_benches(Mode::T2, time_s);
    // The workload's own Team cells where it has them, else the sweep's.
    let team_src = if own.team_traces().is_empty() { &sweep } else { &own };

    for (name, v) in &probed.rows {
        r.push(name, Some(Summary::point(*v, 1)));
    }
    r.push("core.trace_overhead_ratio", ratio(serial_of(&on), serial_of(&off)));
    runtime_trace_rows(
        team_src,
        value("runtime.fork_join_ns.t2").unwrap_or(0.0),
        value("runtime.barrier_ns.t2").unwrap_or(0.0),
        &mut r,
    );
    r.push("runtime.t1_ratio", ratio(sweep.sum_over_benches(Mode::T1, time_s), serial_of(&sweep)));
    r.push("runtime.t2_speedup", ratio(serial_of(team_src), t2_of(team_src)));
    kernel_rows([&ledger, &own, &context], &mut r);
    r.push("npb.safe_ratio", ratio(sweep.sum_over_benches(Mode::Safe, time_s), serial_of(&sweep)));
    platform_layer_rows(&data, &mut r);

    let sets = [&own, &ledger, &context, &on, &off];
    r.attempted = sets.iter().map(|s| s.samples.len() as u64).sum::<u64>() + data.attempted;
    for set in sets {
        r.failures.extend(set.failures());
    }
    r.failures.extend(data.failures);
    r.notes.extend(probed.notes);
    let by_layer: Vec<String> =
        spans.self_secs_by_layer().iter().map(|(layer, s)| format!("{layer} {s:.3} s")).collect();
    r.notes.push(format!("span self time by layer: {}", by_layer.join(", ")));

    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, spans.to_json(workload, seed))?;
    r.notes.push(format!("{} spans written to {}", spans.spans().len(), path.display()));
    Ok(r)
}
