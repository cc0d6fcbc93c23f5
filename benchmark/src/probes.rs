//! Direct probes of single layers: small timed loops over public
//! functions, one per-layer metric each. Where a rate needs a byte or
//! flop count, it is *computed* from array sizes and operation counts
//! (cache misses and write-allocate traffic are not seen), and the
//! report says so.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use npb_cfd_ops::{run_linearized, Op, OpConfig};
use npb_core::{state_hash, vranlc, BenchReport, Class, GuardConfig, Style, Verified};
use npb_harness::{Cell, CellOutcome, CellStatus, Json, Manifest};
use npb_runtime::{run_par, Sched, Team};
use npb_service::{JobJournal, JobPolicy, JobResult, JobSpec, Request, ResultCache};

use crate::spans::SpanLog;
use crate::stats::median;

/// `(metric name, value)` rows plus header notes.
#[derive(Default)]
pub struct Probed {
    pub rows: Vec<(String, f64)>,
    pub notes: Vec<String>,
}

impl Probed {
    fn put(&mut self, name: &str, value: f64) {
        self.rows.push((name.to_string(), value));
    }
}

/// Median over `reps` of the seconds `f` reports.
fn med(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..reps).map(|_| f()).collect::<Vec<_>>())
}

/// Seconds one call of `f` takes.
fn secs<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------- machine

fn mem_available_bytes() -> u64 {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("MemAvailable:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(4 << 30, |kb| kb << 10)
}

/// STREAM triad `a = b + s·c` over three arrays of one last-level cache
/// each, so every sweep streams three times the LLC through it.
///
/// The usual rule is four times the LLC *per array*. This host reports a
/// 260 MiB L3 (the whole socket's, of which a 2-vCPU guest gets a
/// sliver), and first-touching 3 x 1040 MiB of guest memory costs 2 s at
/// best and 15-20 s whenever the host has reclaimed the pages — more
/// than the whole run. The note states both sizes.
fn triad(llc_bytes: u64, out: &mut Probed) {
    let llc = if llc_bytes == 0 { 32 << 20 } else { llc_bytes };
    let array_bytes = llc.min(mem_available_bytes() / 6);
    let n = (array_bytes / 8) as usize;
    let mut a = vec![0.5f64; n];
    let b = vec![1.5f64; n];
    let c = vec![2.5f64; n];
    let sweep = |a: &mut [f64]| {
        secs(|| {
            for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
                *x = *y + 3.0 * *z;
            }
        })
    };
    let best = (0..3).map(|_| sweep(&mut a)).fold(f64::INFINITY, f64::min);
    black_box(&a);
    out.put("machine.triad_gb_per_s", 3.0 * array_bytes as f64 / best / 1e9);
    out.notes.push(format!(
        "machine.triad: 3 arrays of {} MiB each = {:.1} x the {} MiB LLC per sweep (short of 4 x LLC per array, \
         see probes.rs); bytes computed as 3 x array, best of 3 sweeps",
        array_bytes >> 20,
        3.0 * array_bytes as f64 / llc as f64,
        llc >> 20,
    ));
}

const FMA_LANES: usize = 48;

/// `iters` rounds of 48 independent multiply-adds held in registers.
#[inline(always)]
fn fma_rounds<const FUSED: bool>(iters: u64) -> f64 {
    let mut acc = [1.0f64; FMA_LANES];
    let (m, a) = (black_box(0.999_999_9f64), black_box(1.0e-7f64));
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = if FUSED { x.mul_add(m, a) } else { *x * m + a };
        }
    }
    acc.iter().sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_rounds_avx2(iters: u64) -> f64 {
    fma_rounds::<true>(iters)
}

/// Peak multiply-add rate of one core: AVX2+FMA code where the CPU has
/// it (what a `core::arch` vector layer could reach), otherwise the
/// build's baseline ISA.
fn fma_peak(out: &mut Probed) {
    const ITERS: u64 = 4_000_000;
    #[cfg(target_arch = "x86_64")]
    let wide = std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let wide = false;
    let run = || {
        #[cfg(target_arch = "x86_64")]
        if wide {
            // SAFETY: avx2 and fma were detected on this CPU just above.
            return unsafe { fma_rounds_avx2(ITERS) };
        }
        fma_rounds::<false>(ITERS)
    };
    let best = (0..3).map(|_| secs(run)).fold(f64::INFINITY, f64::min);
    out.put("machine.fma_gflops", 2.0 * FMA_LANES as f64 * ITERS as f64 / best / 1e9);
    out.notes.push(format!(
        "machine.fma: {} independent f64 multiply-adds per round, {} code, one core",
        FMA_LANES,
        if wide { "avx2+fma" } else { "baseline-ISA mul+add" }
    ));
}

// ------------------------------------------------------------------- core

fn sample_report() -> BenchReport {
    BenchReport {
        name: "CG",
        class: Class::S,
        size: (1400, 0, 0),
        niter: 15,
        time_secs: 0.017_859_054,
        mops: 3_731.824_5,
        threads: 0,
        style: Style::Opt,
        verified: Verified::Success,
        recoveries: 0,
        checkpoint_count: 0,
        checkpoint_overhead_s: 0.0,
        regions: Vec::new(),
        result_sig: Some(0x1234_5678_9abc_def0),
        rank_dispositions: Vec::new(),
    }
}

fn core(out: &mut Probed) {
    let mut y = vec![0.0f64; 1 << 20];
    let t = med(5, || {
        let mut x = npb_core::SEED_DEFAULT;
        secs(|| vranlc(&mut x, npb_core::A_DEFAULT, &mut y))
    });
    out.put("core.vranlc_mrand_per_s", y.len() as f64 / t / 1e6);

    let report = sample_report();
    const N: usize = 2000;
    let t = med(5, || {
        secs(|| {
            for _ in 0..N {
                let line = black_box(&report).to_json(1);
                black_box(Json::parse(&line).expect("a report record parses"));
            }
        })
    });
    out.put("core.report_json_us", t / N as f64 * 1e6);

    let t = med(5, || secs(|| state_hash(&[&y])));
    out.put("core.state_hash_gb_per_s", (y.len() * 8) as f64 / t / 1e9);

    // SDC guard on over guard off, on the two cheapest guarded kernels.
    let guard = GuardConfig::enabled_every(GuardConfig::default().checkpoint_every);
    let mut plain = Vec::new();
    let mut guarded = Vec::new();
    for _ in 0..5 {
        plain.push(
            npb_cg::run(Class::S, Style::Opt, None).time_secs
                + npb_mg::run(Class::S, Style::Opt, None).time_secs,
        );
        guarded.push(
            npb_cg::run_with_guard(Class::S, Style::Opt, None, &guard).time_secs
                + npb_mg::run_with_guard(Class::S, Style::Opt, None, &guard).time_secs,
        );
    }
    out.put("core.guard_overhead_ratio", median(&guarded) / median(&plain));
}

// ---------------------------------------------------------------- runtime

/// Nanoseconds per empty `Team::exec`, median of `batches` batches.
fn fork_join_ns(team: &Team, reps: usize, batches: usize) -> f64 {
    med(batches, || {
        secs(|| {
            for _ in 0..reps {
                team.exec(|_| {});
            }
        }) / reps as f64
            * 1e9
    })
}

/// Nanoseconds per barrier crossing inside one region.
fn barrier_ns(team: &Team, barriers: usize, batches: usize) -> f64 {
    med(batches, || {
        secs(|| {
            run_par(Some(team), |p| {
                for _ in 0..barriers {
                    p.barrier();
                }
            })
        }) / barriers as f64
            * 1e9
    })
}

fn runtime(out: &mut Probed) {
    let t = med(20, || secs(|| drop(Team::new(2))));
    out.put("runtime.team_spawn_us", t * 1e6);

    let t1 = Team::new(1);
    out.put("runtime.fork_join_ns.t1", fork_join_ns(&t1, 2000, 9));
    drop(t1);
    let t2 = Team::new(2);
    out.put("runtime.fork_join_ns.t2", fork_join_ns(&t2, 2000, 9));
    out.put("runtime.barrier_ns.t2", barrier_ns(&t2, 2000, 9));
    let t = med(9, || {
        secs(|| {
            for _ in 0..1000 {
                black_box(t2.reduce_sum(|p| p.tid() as f64));
            }
        }) / 1000.0
    });
    out.put("runtime.reduce_sum_ns.t2", t * 1e9);
    for (label, policy) in
        [("static", Sched::Static), ("guided", Sched::Guided), ("feedback", Sched::Feedback)]
    {
        t2.set_sched(policy);
        let t = med(9, || {
            secs(|| {
                for _ in 0..1000 {
                    t2.exec(|p| {
                        p.for_chunks(64, |r| {
                            black_box(r);
                        })
                    });
                }
            }) / 1000.0
        });
        out.put(&format!("runtime.sched_dispatch_ns.{label}"), t * 1e9);
    }
    t2.set_sched(Sched::Static);
    // The paper's wait/notify model: no spinning, every wait parks. Far
    // fewer repetitions: a parked hand-off costs tens of microseconds.
    t2.set_spin_us(0);
    out.put("runtime.fork_join_ns.t2_park", fork_join_ns(&t2, 300, 9));
    out.put("runtime.barrier_ns.t2_park", barrier_ns(&t2, 300, 9));
}

// ----------------------------------------------------------------- kernel

fn kernel(out: &mut Probed) {
    // MG residual on the class A grid: r = v - A u, then its norm.
    let mut mg = npb_mg::MgState::new(Class::A);
    let n = mg.params().nx + 2;
    let t = med(3, || secs(|| mg.residual_norms::<false>(None)));
    let bytes = 4.0 * (n * n * n * 8) as f64;
    out.put("kernel.mg.resid_gb_per_s", bytes / t / 1e9);
    out.notes.push(format!(
        "kernel.mg.resid: {n}^3 grid, bytes computed as 4 array passes (read u, read v, write r, read r for the norm)"
    ));
    drop(mg);

    // One FT line transform at class A's longest extent.
    const LEN: usize = 256;
    let table = npb_ft::FftTable::new(LEN);
    let template: Vec<npb_ft::C64> =
        (0..LEN).map(|i| npb_ft::c64((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos())).collect();
    let mut x = template.clone();
    let mut y = template.clone();
    const FFTS: usize = 4000;
    let t = med(5, || {
        secs(|| {
            for _ in 0..FFTS {
                x.copy_from_slice(&template);
                npb_ft::cfftz::<false>(1, LEN, &table, &mut x, &mut y);
            }
        })
    });
    black_box(&x);
    let flops = 5.0 * LEN as f64 * (LEN.trailing_zeros() as f64);
    out.put("kernel.ft.cfftz_gflops", flops * FFTS as f64 / t / 1e9);

    // BT's 5x5 block multiply-subtract: 125 multiplies, 125 subtracts.
    let a: Vec<npb_bt::blocks::Block> = (0..64)
        .map(|k| std::array::from_fn(|i| std::array::from_fn(|j| 1e-3 * (i + 2 * j + k) as f64)))
        .collect();
    let mut c = a.clone();
    const ROUNDS: usize = 4000;
    let t = med(5, || {
        secs(|| {
            for _ in 0..ROUNDS {
                for k in 0..a.len() {
                    npb_bt::blocks::matmul_sub(&a[k], &a[(k + 1) % a.len()], &mut c[k]);
                }
            }
        })
    });
    black_box(&c);
    out.put("kernel.bt.matmul_sub_gflops", 250.0 * (ROUNDS * a.len()) as f64 / t / 1e9);

    // IS ranking passes over class W's 2^20 keys.
    let mut is = npb_is::IsBench::new(Class::W);
    let keys = is.params().num_keys;
    let mut hists = vec![0i32; is.params().max_key];
    let t = med(5, || secs(|| is.rank::<false>(1, None, &mut hists)));
    out.put("kernel.is.rank_mkeys_per_s", keys as f64 / t / 1e6);
}

// ---------------------------------------------------------- cfd_ops, jgf

fn controls(out: &mut Probed) {
    let cfg = OpConfig::default();
    for (label, op) in [
        ("assignment", Op::Assignment),
        ("stencil1", Op::Stencil1),
        ("stencil2", Op::Stencil2),
        ("matvec", Op::MatVec),
        ("reduction", Op::ReductionSum),
    ] {
        // The first call of each pays the page faults of fresh buffers.
        let best = (0..3)
            .map(|_| run_linearized::<false>(op, &cfg, None).secs)
            .fold(f64::INFINITY, f64::min);
        out.put(&format!("cfd_ops.{op_label}_s", op_label = label), best);
    }
    out.put("jgf.lufact_mflops", med(3, || npb_jgf::run_lufact(500, Style::Opt, None).mflops));
    out.put("jgf.blocked_mflops", med(3, || npb_jgf::run_lufact(500, Style::Opt, Some(32)).mflops));
}

// -------------------------------------------------------------------- npb

fn facade(out: &mut Probed, spans: &mut SpanLog) {
    // What the root facade adds around the crate entry point it wraps:
    // it builds and joins a Team per call, looks the name up, catches
    // unwinds. Both sides subtract their own timed section, so the
    // kernel's run-to-run noise cancels and the untimed parts remain.
    let team = Team::new(2);
    let mut through = Vec::new();
    let mut direct = Vec::new();
    for _ in 0..15 {
        let span = spans.enter("npb", "npb.try_run_benchmark (probe)", "MG/S/t2");
        let t0 = Instant::now();
        let report =
            npb::try_run_benchmark("MG", Class::S, Style::Opt, 2, &npb::RunOptions::default());
        let wall = t0.elapsed().as_secs_f64();
        spans.exit(span);
        through.push(wall - report.map_or(0.0, |r| r.time_secs));
        let span = spans.enter("kernel", "npb_mg::run (probe)", "MG/S/t2");
        let t0 = Instant::now();
        let report = npb_mg::run(Class::S, Style::Opt, Some(&team));
        let wall = t0.elapsed().as_secs_f64();
        spans.exit(span);
        direct.push(wall - report.time_secs);
    }
    out.put("npb.facade_overhead_ms", (median(&through) - median(&direct)) * 1e3);
}

// ------------------------------------------------------- harness, service

fn outcome(i: usize) -> CellOutcome {
    CellOutcome {
        cell: Cell {
            bench: npb::BENCHMARKS[i % 8].to_string(),
            class: Class::S,
            style: Style::Opt,
            threads: i % 3,
        },
        status: CellStatus::Verified,
        attempts: 1,
        kills: 0,
        final_threads: i % 3,
        final_class: Class::S,
        mops: Some(1234.5 + i as f64),
        time_secs: Some(0.0123 + i as f64 * 1e-6),
        recoveries: 0,
        regions: Vec::new(),
        rank_dispositions: Vec::new(),
        sched: "static".to_string(),
    }
}

fn durable_logs(scratch: &Path, out: &mut Probed, spans: &mut SpanLog) -> std::io::Result<()> {
    const APPENDS: usize = 40;
    let path = scratch.join("probe_manifest.jsonl");
    let mut manifest = Manifest::create(&path)?;
    let span = spans.enter("harness", "harness.Manifest::cell x40 (probe)", "manifest");
    let mut each = Vec::with_capacity(APPENDS);
    for i in 0..APPENDS {
        let record = outcome(i);
        let t0 = Instant::now();
        manifest.cell(&record)?;
        each.push(t0.elapsed().as_secs_f64());
    }
    spans.exit(span);
    out.put("harness.manifest_append_us", median(&each) * 1e6);

    // Reader throughput on a manifest-shaped megabyte.
    let line = std::fs::read_to_string(&path)?.lines().next().unwrap_or("{}").to_string();
    let lines = (1 << 20) / line.len().max(1);
    let t = med(5, || {
        secs(|| {
            for _ in 0..lines {
                black_box(Json::parse(black_box(&line)).expect("a manifest line parses"));
            }
        })
    });
    out.put("harness.json_parse_mb_per_s", (lines * line.len()) as f64 / t / 1e6);

    let submit = "{\"op\":\"submit\",\"bench\":\"CG\",\"class\":\"S\",\"threads\":0,\"seed\":4503599627370495}";
    const PARSES: usize = 5000;
    let t = med(5, || {
        secs(|| {
            for _ in 0..PARSES {
                black_box(Request::parse(black_box(submit)).expect("a valid submit"));
            }
        })
    });
    out.put("service.proto_parse_us", t / PARSES as f64 * 1e6);

    // What the journal charges one job: accepted + started + done, each
    // its own fsync'd record.
    let spec = JobSpec {
        bench: "CG".to_string(),
        class: Class::S,
        style: Style::Opt,
        threads: 0,
        seed: 7,
        policy: JobPolicy::default(),
    };
    let result = JobResult {
        disposition: "verified".to_string(),
        mops: Some(3731.8),
        time_secs: Some(0.0178),
        attempts: 1,
        kills: 0,
        recoveries: 0,
        final_threads: 0,
    };
    let mut journal = JobJournal::open(&scratch.join("probe_journal.jsonl"))?;
    let span = spans.enter("service", "service.JobJournal x40 jobs (probe)", "journal");
    let mut each = Vec::with_capacity(APPENDS);
    for seq in 0..APPENDS as u64 {
        let id = spec.job_id();
        let t0 = Instant::now();
        journal.accepted(&spec, seq)?;
        journal.started(&id)?;
        journal.done(&id, &result)?;
        each.push(t0.elapsed().as_secs_f64());
    }
    spans.exit(span);
    out.put("service.journal_append_us", median(&each) * 1e6);

    let cache = ResultCache::default();
    let keys: Vec<String> =
        (0..256u64).map(|seed| JobSpec { seed, ..spec.clone() }.canonical_key()).collect();
    for key in &keys {
        cache.insert_if_verified(key, &result);
    }
    const GETS: usize = 200;
    let t = med(5, || {
        secs(|| {
            for _ in 0..GETS {
                for key in &keys {
                    black_box(cache.get(key));
                }
            }
        })
    });
    out.put("service.cache_hit_us", t / (GETS * keys.len()) as f64 * 1e6);
    Ok(())
}

/// Run every direct probe. `scratch` takes the durable-log probes'
/// files; probe calls that enter a layer are recorded in `spans`.
pub fn run(llc_bytes: u64, scratch: &Path, spans: &mut SpanLog) -> std::io::Result<Probed> {
    let mut out = Probed::default();
    let mut laps = Vec::new();
    let mut t0 = Instant::now();
    let mut lap = |name: &str| {
        laps.push(format!("{name} {:.1} s", t0.elapsed().as_secs_f64()));
        t0 = Instant::now();
    };
    triad(llc_bytes, &mut out);
    fma_peak(&mut out);
    lap("machine");
    core(&mut out);
    lap("core");
    runtime(&mut out);
    lap("runtime");
    kernel(&mut out);
    lap("kernel");
    controls(&mut out);
    lap("cfd_ops+jgf");
    facade(&mut out, spans);
    durable_logs(scratch, &mut out, spans)?;
    lap("npb+harness+service");
    out.notes.push(format!("direct probes: {}", laps.join(", ")));
    Ok(out)
}
