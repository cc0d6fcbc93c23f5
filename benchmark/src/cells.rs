//! Running in-process cells through the root facade
//! (`npb::try_run_benchmark`) and folding their samples into metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use npb::{trace, Backend, RunOptions, TraceSession};
use npb_core::trace::SpanKind;
use npb_core::RegionProfile;

use crate::plan::{pass_order, Cell, Mode};
use crate::spans::SpanLog;
use crate::stats::{geomean, Summary};

/// What the runtime's own trace session saw during one Team cell.
#[derive(Debug, Clone, Copy)]
pub struct TeamTrace {
    /// `Team::exec` regions (worker-lane compute spans of rank 0).
    pub dispatches: f64,
    /// Barrier crossings of rank 0.
    pub barriers: f64,
    /// False when the 4096-span ring overflowed and the two counts are
    /// scaled up from the retained window.
    pub exact: bool,
    /// Barrier wait over barrier wait plus compute, all regions.
    pub barrier_share: f64,
    /// Worst per-region max/mean rank time.
    pub imbalance_max: f64,
}

/// One run of one cell.
#[derive(Debug, Clone)]
pub struct Sample {
    pub cell: Cell,
    /// Wall seconds of the whole call: untimed init, team or rank spawn,
    /// the timed section, verification.
    pub wall_s: f64,
    /// The kernel's own timed section (`BenchReport::time_secs`).
    pub time_s: f64,
    pub mops: f64,
    pub sig: Option<u64>,
    /// `None` when the cell verified; otherwise what went wrong.
    pub error: Option<String>,
    pub regions: Vec<RegionProfile>,
    pub team: Option<TeamTrace>,
}

fn team_trace(session: &TraceSession) -> TeamTrace {
    let spans = session.spans();
    let lane0: Vec<_> = spans.iter().filter(|(rank, _)| *rank == 0).collect();
    let count =
        |pred: &dyn Fn(SpanKind) -> bool| lane0.iter().filter(|(_, s)| pred(s.kind)).count() as f64;
    let dispatches = count(&|k| k == SpanKind::Compute);
    let barriers = count(&|k| matches!(k, SpanKind::BarrierSpin | SpanKind::BarrierPark));
    // Ring overflow drops the oldest raw spans of every lane alike;
    // scale the retained window's counts by recorded / retained.
    let retained = spans.len() as f64;
    let scale =
        if retained > 0.0 { (retained + session.dropped_spans() as f64) / retained } else { 1.0 };
    let regions = session.summarize();
    let barrier: f64 = regions.iter().map(|r| r.barrier_spin_secs + r.barrier_park_secs).sum();
    let compute: f64 =
        regions.iter().map(|r| r.rank_secs.iter().sum::<f64>().max(r.total_secs)).sum();
    TeamTrace {
        dispatches: dispatches * scale,
        barriers: barriers * scale,
        exact: session.dropped_spans() == 0,
        barrier_share: if barrier + compute > 0.0 { barrier / (barrier + compute) } else { 0.0 },
        imbalance_max: regions.iter().map(|r| r.imbalance()).fold(1.0, f64::max),
    }
}

/// Run `cell` once. With `traced`, the repo's public `TraceSession` is
/// installed around the call, which fills `regions` (and `team` for a
/// Team cell). With a span log, the call and the kernel's reported timed
/// section are recorded as spans.
pub fn run_cell(cell: Cell, traced: bool, mut spans: Option<&mut SpanLog>) -> Sample {
    let threads = cell.mode.threads();
    let opts = RunOptions {
        spin_us: (cell.mode == Mode::Park).then_some(0),
        backend: if cell.mode == Mode::Procs { Backend::Procs } else { Backend::Threads },
        ..RunOptions::default()
    };
    let session = traced.then(|| TraceSession::new(threads.max(1)));
    if let Some(s) = &session {
        trace::install(s.clone());
    }
    let id = cell.id();
    let layer = if cell.mode == Mode::Procs { "npb.procs" } else { "npb.try_run_benchmark" };
    let span = spans.as_deref_mut().map(|log| log.enter("npb", layer, &id));
    let t0 = Instant::now();
    let result = npb::try_run_benchmark(cell.bench, cell.class, cell.mode.style(), threads, &opts);
    let wall_s = t0.elapsed().as_secs_f64();
    if let (Some(log), Some(span)) = (spans, span) {
        log.exit(span);
        if let Ok(r) = &result {
            log.reported_tail(span, "kernel", "timed section (reported)", r.time_secs);
        }
    }
    if session.is_some() {
        trace::uninstall();
    }
    let team =
        session.as_deref().filter(|_| threads > 0 && cell.mode != Mode::Procs).map(team_trace);
    match result {
        Ok(r) => Sample {
            cell,
            wall_s,
            time_s: r.time_secs,
            mops: r.mops,
            sig: r.result_sig,
            error: (!r.verified.is_success()).then(|| format!("verification {:?}", r.verified)),
            regions: r.regions,
            team,
        },
        Err(e) => Sample {
            cell,
            wall_s,
            time_s: 0.0,
            mops: 0.0,
            sig: None,
            error: Some(e.to_string()),
            regions: Vec::new(),
            team,
        },
    }
}

/// Whole passes within a time budget: another pass starts only if,
/// judged by the slowest pass so far, it would end inside the budget.
pub struct PassBudget {
    start: Instant,
    budget_s: f64,
    slowest_s: f64,
    pass_start: Instant,
    /// Passes started so far.
    pub passes: usize,
}

impl PassBudget {
    pub fn new(budget_s: f64) -> PassBudget {
        let now = Instant::now();
        PassBudget { start: now, budget_s, slowest_s: 0.0, pass_start: now, passes: 0 }
    }

    /// Close the pass that just ran and say whether another starts (its
    /// index); at least `min_passes` always do.
    pub fn next_pass(&mut self, min_passes: usize) -> Option<usize> {
        let now = Instant::now();
        if self.passes > 0 {
            self.slowest_s = self.slowest_s.max((now - self.pass_start).as_secs_f64());
        }
        if self.passes >= min_passes
            && (now - self.start).as_secs_f64() + self.slowest_s > self.budget_s
        {
            return None;
        }
        self.pass_start = now;
        self.passes += 1;
        Some(self.passes - 1)
    }
}

/// Run whole passes over `cells`, rep-major, each pass in its own
/// seed-shuffled order, for as long as `budget_s` allows (see
/// [`PassBudget`]). At least `min_passes` run.
pub fn run_passes(
    cells: &[Cell],
    seed: u64,
    budget_s: f64,
    min_passes: usize,
    traced: bool,
    mut spans: Option<&mut SpanLog>,
) -> Samples {
    let mut budget = PassBudget::new(budget_s);
    let mut samples = Vec::new();
    while let Some(pass) = budget.next_pass(min_passes) {
        for cell in pass_order(cells, seed, pass) {
            samples.push(run_cell(cell, traced, spans.as_deref_mut()));
        }
    }
    Samples { samples, passes: budget.passes }
}

/// The samples of a set of passes, with the folds the metrics need.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    pub samples: Vec<Sample>,
    pub passes: usize,
}

impl Samples {
    /// Append `other`'s passes after this set's own.
    pub fn extend(&mut self, other: Samples) {
        self.samples.extend(other.samples);
        self.passes += other.passes;
    }

    /// Cells that errored or did not verify, plus cells whose
    /// `result_sig` differs from the first good sample of the same
    /// benchmark, class and rank count: `(cell id, reason)`.
    ///
    /// The repo's bit-identity invariant is per width: reductions add
    /// per-rank partial sums in rank order, so style, spin budget and
    /// backend never change a bit, while two ranks round differently
    /// from one (MG's residual norm differs in its last bit).
    pub fn failures(&self) -> Vec<(String, String)> {
        let mut reference: BTreeMap<(&str, char, usize), (u64, String)> = BTreeMap::new();
        let mut bad = Vec::new();
        for s in &self.samples {
            if let Some(e) = &s.error {
                bad.push((s.cell.id(), e.clone()));
                continue;
            }
            let Some(sig) = s.sig else { continue };
            let key = (s.cell.bench, s.cell.class.as_char(), s.cell.mode.threads().max(1));
            let (want, from) = reference.entry(key).or_insert_with(|| (sig, s.cell.id()));
            if *want != sig {
                bad.push((
                    s.cell.id(),
                    format!("result_sig {sig:016x} differs from {from}'s {want:016x}"),
                ));
            }
        }
        bad
    }

    fn of_cell<'a>(&'a self, bench: &'a str, mode: Mode) -> impl Iterator<Item = &'a Sample> + 'a {
        self.samples
            .iter()
            .filter(move |s| s.error.is_none() && s.cell.mode == mode && s.cell.bench == bench)
    }

    /// Summary over rounds of `f` for one (benchmark, mode).
    pub fn summary(&self, bench: &str, mode: Mode, f: impl Fn(&Sample) -> f64) -> Option<Summary> {
        let v: Vec<f64> = self.of_cell(bench, mode).map(f).collect();
        Summary::of(&v)
    }

    /// Per cell that `pick` selects, the best round's `f` (the highest
    /// with `higher`, else the lowest; see [`Summary::best`] for why the
    /// best), folded over the cells. `None` when a picked cell has no
    /// good sample (the fold would be short of a term).
    fn best_over_cells(
        &self,
        pick: impl Fn(&Cell) -> bool,
        f: impl Fn(&Sample) -> f64,
        higher: bool,
        fold: impl Fn(&[f64]) -> f64,
    ) -> Option<Summary> {
        let mut cells: Vec<Cell> = self.samples.iter().map(|s| s.cell).filter(&pick).collect();
        cells.sort();
        cells.dedup();
        let parts: Option<Vec<Summary>> = cells
            .iter()
            .map(|c| self.summary(c.bench, c.mode, &f).map(|s| s.best(higher)))
            .collect();
        Summary::fold(&parts?, fold)
    }

    /// Σ over benchmarks of the cell's best `f` over rounds, in `mode`:
    /// the shape of `serial_s`, `t2_s`, `t1_s`, `park_t2_s`, `safe_s` and
    /// `procs_t2_s`.
    pub fn sum_over_benches(&self, mode: Mode, f: impl Fn(&Sample) -> f64) -> Option<Summary> {
        self.best_over_cells(|c| c.mode == mode, f, false, |v| v.iter().sum())
    }

    /// Σ over every cell (all modes) of the cell's least call wall minus
    /// timed section. The pieces are milliseconds long, so even a busy
    /// host leaves some round's undisturbed.
    pub fn setup(&self) -> Option<Summary> {
        let untimed = |s: &Sample| (s.wall_s - s.time_s).max(0.0);
        self.best_over_cells(|_| true, untimed, false, |v| v.iter().sum())
    }

    /// Geometric mean over benchmarks of the cell's best serial Mop/s.
    pub fn mops_geomean(&self) -> Option<Summary> {
        self.best_over_cells(|c| c.mode == Mode::Serial, |s| s.mops, true, geomean)
    }

    /// Median seconds of a named trace region of `bench`'s serial cells.
    pub fn region_s(&self, bench: &str, region: &str) -> Option<f64> {
        let v: Vec<f64> = self
            .of_cell(bench, Mode::Serial)
            .filter_map(|s| s.regions.iter().find(|r| r.name == region).map(|r| r.secs))
            .collect();
        Summary::of(&v).map(|s| s.median)
    }

    /// The Team-of-2 cells' runtime traces.
    pub fn team_traces(&self) -> Vec<(Cell, TeamTrace)> {
        self.samples
            .iter()
            .filter(|s| s.cell.mode == Mode::T2)
            .filter_map(|s| s.team.map(|t| (s.cell, t)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npb_core::Class;

    fn sample(bench: &'static str, mode: Mode, time_s: f64, sig: u64) -> Sample {
        Sample {
            cell: Cell { bench, class: Class::S, mode },
            wall_s: time_s + 0.5,
            time_s,
            mops: 100.0 / time_s,
            sig: Some(sig),
            error: None,
            regions: Vec::new(),
            team: None,
        }
    }

    #[test]
    fn timings_are_sums_over_cells_of_the_best_round() {
        let mut set = Samples { samples: Vec::new(), passes: 3 };
        for (bt, cg) in [(1.0, 10.0), (3.0, 12.0), (2.0, 30.0)] {
            set.samples.push(sample("BT", Mode::Serial, bt, 1));
            set.samples.push(sample("CG", Mode::Serial, cg, 2));
            set.samples.push(sample("CG", Mode::T2, 6.0, 3));
        }
        // BT's best round is its first, CG's too; the medians are 2 and 12.
        let serial = set.sum_over_benches(Mode::Serial, |s| s.time_s).unwrap();
        assert_eq!((serial.n, serial.value, serial.median, serial.max), (3, 11.0, 14.0, 33.0));
        assert_eq!(set.sum_over_benches(Mode::T2, |s| s.time_s).unwrap().value, 6.0);
        assert!(set.sum_over_benches(Mode::Park, |s| s.time_s).is_none());
        // Each of the three cells spends 0.5 s outside its timed section.
        assert_eq!(set.setup().unwrap().value, 1.5);
        let g = set.mops_geomean().unwrap();
        assert!((g.value - (100.0f64 * 10.0).sqrt()).abs() < 1e-9);
        assert!(set.failures().is_empty());
        // A failed round is left out of its cell's samples.
        set.samples[0].error = Some("boom".into());
        let serial = set.sum_over_benches(Mode::Serial, |s| s.time_s).unwrap();
        assert_eq!((serial.n, serial.value), (2, 12.0));
    }

    #[test]
    fn a_pass_budget_runs_the_minimum_and_stops_when_the_next_would_overrun() {
        let mut none = PassBudget::new(0.0);
        assert_eq!(none.next_pass(2), Some(0));
        assert_eq!(none.next_pass(2), Some(1));
        assert_eq!(none.next_pass(2), None);
        assert_eq!(none.passes, 2);
        let mut roomy = PassBudget::new(3600.0);
        assert_eq!((roomy.next_pass(0), roomy.next_pass(0)), (Some(0), Some(1)));
        let mut tight = PassBudget::new(0.02);
        assert_eq!(tight.next_pass(1), Some(0));
        std::thread::sleep(std::time::Duration::from_millis(15));
        assert_eq!(tight.next_pass(1), None, "15 ms spent, a second 15 ms pass overruns 20 ms");
    }

    #[test]
    fn extend_appends_passes() {
        let mut a = Samples { samples: vec![sample("BT", Mode::Serial, 1.0, 1)], passes: 1 };
        let b = Samples { samples: vec![sample("BT", Mode::Serial, 3.0, 1)], passes: 1 };
        a.extend(b);
        assert_eq!(a.passes, 2);
        assert_eq!(a.sum_over_benches(Mode::Serial, |s| s.time_s).unwrap().n, 2);
    }

    #[test]
    fn a_signature_that_differs_at_equal_width_is_a_failure() {
        let mut bad = sample("CG", Mode::Park, 1.0, 99);
        let mut set = Samples {
            samples: vec![
                sample("CG", Mode::T2, 1.0, 7),
                bad.clone(),
                sample("BT", Mode::T2, 1.0, 99),
                // One rank may round differently from two.
                sample("CG", Mode::Serial, 1.0, 8),
                sample("CG", Mode::Safe, 1.0, 8),
                sample("CG", Mode::T1, 1.0, 8),
            ],
            passes: 1,
        };
        let failures = set.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, "CG/S/park");
        assert!(failures[0].1.contains("CG/S/t2"));
        bad.error = Some("region failure".into());
        set.samples[1] = bad;
        assert_eq!(set.failures()[0].1, "region failure");
        assert!(set.sum_over_benches(Mode::Park, |s| s.time_s).is_none());
    }
}
