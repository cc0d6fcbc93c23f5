//! What a run executes, as a pure function of the workload and `--seed`:
//! the cell lists, the per-pass cell order and the `npbd` job lists.
//!
//! The NPB inputs themselves are fixed by the specification (a class
//! names a grid and an iteration count), so the seed cannot vary them;
//! it drives the order cells run in, the jobs' `seed` fields (which make
//! a job cold to `npbd`'s content-addressed cache) and the job mix.

use npb_core::{Class, Style};

/// SplitMix64: a small, well-mixed generator, enough to shuffle a cell
/// list and mint job seeds.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-50 for
    /// the list lengths used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// How a cell runs a benchmark: the axes of the paper's tables plus the
/// process-sharded backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mode {
    /// `threads = 0`, opt style: no team at all.
    Serial,
    /// `threads = 0`, safe ("Java") style.
    Safe,
    /// Team of 1: the paper's 1-thread tax.
    T1,
    /// Team of 2, default spin budget.
    T2,
    /// Team of 2, `spin_us = 0`: the paper's wait/notify model.
    Park,
    /// `Backend::Procs`, two worker processes.
    Procs,
}

impl Mode {
    pub fn label(self) -> &'static str {
        match self {
            Mode::Serial => "serial",
            Mode::Safe => "safe",
            Mode::T1 => "t1",
            Mode::T2 => "t2",
            Mode::Park => "park",
            Mode::Procs => "procs",
        }
    }

    pub fn threads(self) -> usize {
        match self {
            Mode::Serial | Mode::Safe => 0,
            Mode::T1 => 1,
            Mode::T2 | Mode::Park | Mode::Procs => 2,
        }
    }

    pub fn style(self) -> Style {
        if self == Mode::Safe {
            Style::Safe
        } else {
            Style::Opt
        }
    }
}

/// One (benchmark, class, mode) point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cell {
    pub bench: &'static str,
    pub class: Class,
    pub mode: Mode,
}

impl Cell {
    pub fn id(&self) -> String {
        format!("{}/{}/{}", self.bench, self.class, self.mode.label())
    }
}

fn cross(benches: &[&'static str], class: Class, modes: &[Mode]) -> Vec<Cell> {
    benches
        .iter()
        .flat_map(|&bench| modes.iter().map(move |&mode| Cell { bench, class, mode }))
        .collect()
}

/// The seven benchmarks of the class-S workloads (EP.S alone runs 1.3 s,
/// as long as the other seven together, and has no µs-scale regions).
pub const SMALL_BENCHES: [&str; 7] = ["BT", "SP", "LU", "FT", "IS", "CG", "MG"];

pub const SMALL_MODES: [Mode; 5] = [Mode::Serial, Mode::Safe, Mode::T1, Mode::T2, Mode::Park];

const WIDE: [Mode; 2] = [Mode::Serial, Mode::T2];

/// The in-process cells of a kernel workload, in catalog order. Every
/// cell is short enough (under 2 s a call) for a 30 s run to repeat it
/// five times or more: on a shared host only the best of several rounds
/// repeats, and a 4-7 s cell (SP, LU class W; MG, FT class A) gets one
/// round. Those four run once in the traced run; see [`ledger_cells`].
pub fn kernel_cells(workload: &str) -> Vec<Cell> {
    match workload {
        // EP's cost per pair is the same at every class; class S (1.3 s)
        // buys BT two more rounds than class W (2.7 s) would.
        "compute_w" => [cross(&["BT"], Class::W, &WIDE), cross(&["EP"], Class::S, &WIDE)].concat(),
        "memory_a" => {
            [cross(&["CG", "IS"], Class::A, &WIDE), cross(&["MG", "FT"], Class::W, &WIDE)].concat()
        }
        "small_s" => cross(&SMALL_BENCHES, Class::S, &SMALL_MODES),
        _ => Vec::new(),
    }
}

/// The long cells of a workload's kind, which its traced run adds (one
/// round) so that the ledger has every benchmark's seconds and Mop/s at
/// class W or A: they are too long to repeat within a run, so they stay
/// out of the gated sums.
pub fn ledger_cells(workload: &str) -> Vec<Cell> {
    match workload {
        "compute_w" => cross(&["SP", "LU"], Class::W, &WIDE),
        "memory_a" => cross(&["MG", "FT"], Class::A, &WIDE),
        _ => Vec::new(),
    }
}

/// Phase (d) of `platform_s`: the three benchmarks the procs backend
/// shards, under procs width 2 and under a Team of 2.
pub fn procs_cells() -> Vec<Cell> {
    [("EP", Class::S), ("IS", Class::W), ("CG", Class::W)]
        .iter()
        .flat_map(|&(bench, class)| [Mode::Procs, Mode::T2].map(|mode| Cell { bench, class, mode }))
        .collect()
}

/// The class-S cells a traced run adds so that every benchmark has its
/// `kernel.<b>.*` rows whatever the workload: the `small_s` cells plus
/// EP.S serial and t2.
pub fn context_cells() -> Vec<Cell> {
    let mut cells = kernel_cells("small_s");
    cells.extend(cross(&["EP"], Class::S, &[Mode::Serial, Mode::T2]));
    cells
}

/// The order pass `pass` runs `cells` in: a shuffle keyed by the seed
/// and the pass number, so passes interleave the cells differently and a
/// slow spell of the host does not always land on the same cell.
pub fn pass_order(cells: &[Cell], seed: u64, pass: usize) -> Vec<Cell> {
    let mut order = cells.to_vec();
    Rng::new(seed ^ (pass as u64).wrapping_mul(0xa076_1d64_78bd_642f)).shuffle(&mut order);
    order
}

/// One `npbd` job: a class-S serial run whose `seed` field makes it a
/// distinct content address (so the first submit is a cache miss).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    pub bench: &'static str,
    pub seed: u64,
}

impl Job {
    pub fn submit_line(&self) -> String {
        format!(
            "{{\"op\":\"submit\",\"bench\":\"{}\",\"class\":\"S\",\"threads\":0,\"seed\":{}}}",
            self.bench, self.seed
        )
    }

    pub fn id(&self) -> String {
        format!("{}/S/job{}", self.bench, self.seed)
    }
}

/// Client `client`'s job list: `rounds` shuffled rounds over the seven
/// benchmarks, each job with a seed-derived `seed` of its own. A client
/// works down its list for as long as its phase lasts; the list is the
/// same for the same `--seed` however far it gets.
pub fn job_list(seed: u64, client: usize, rounds: usize) -> Vec<Job> {
    let mut rng = Rng::new(seed ^ ((client as u64 + 1) << 32));
    let mut jobs = Vec::with_capacity(rounds * SMALL_BENCHES.len());
    for _ in 0..rounds {
        let mut round = SMALL_BENCHES;
        rng.shuffle(&mut round);
        // Job seeds stay below 2^53 so they survive the JSON number type.
        jobs.extend(round.iter().map(|&bench| Job { bench, seed: rng.next_u64() >> 11 }));
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_same_cell_order_and_job_list() {
        for workload in ["compute_w", "memory_a", "small_s"] {
            let cells = kernel_cells(workload);
            for pass in 0..4 {
                assert_eq!(pass_order(&cells, 7, pass), pass_order(&cells, 7, pass));
            }
        }
        assert_eq!(job_list(7, 0, 30), job_list(7, 0, 30));
        // A longer list extends a shorter one: how far a client gets
        // does not change what it was given.
        assert_eq!(job_list(7, 1, 30)[..70], job_list(7, 1, 10)[..]);
    }

    #[test]
    fn seeds_passes_and_clients_differ() {
        let cells = kernel_cells("small_s");
        assert_ne!(pass_order(&cells, 7, 0), pass_order(&cells, 8, 0));
        assert_ne!(pass_order(&cells, 7, 0), pass_order(&cells, 7, 1));
        assert_ne!(job_list(7, 0, 5), job_list(7, 1, 5));
        assert_ne!(job_list(7, 0, 5), job_list(8, 0, 5));
    }

    #[test]
    fn a_pass_is_a_permutation_and_jobs_are_all_cold() {
        let cells = kernel_cells("small_s");
        assert_eq!(cells.len(), 35);
        let mut order = pass_order(&cells, 3, 2);
        order.sort();
        let mut sorted = cells.clone();
        sorted.sort();
        assert_eq!(order, sorted);
        let jobs: Vec<Job> = (0..2).flat_map(|c| job_list(11, c, 40)).collect();
        let distinct: BTreeSet<(&str, u64)> = jobs.iter().map(|j| (j.bench, j.seed)).collect();
        assert_eq!(distinct.len(), jobs.len(), "a repeated (bench, seed) would be a cache hit");
        assert!(jobs.iter().all(|j| j.seed < 1 << 53));
    }

    #[test]
    fn cell_lists_are_the_documented_ones() {
        assert_eq!(kernel_cells("compute_w").len(), 4);
        assert_eq!(kernel_cells("memory_a").len(), 8);
        for w in ["compute_w", "memory_a"] {
            assert_eq!(ledger_cells(w).len(), 4);
            // A benchmark's ledger cell is a bigger class, never the same cell.
            assert!(ledger_cells(w).iter().all(|c| !kernel_cells(w).contains(c)));
        }
        assert_eq!(procs_cells().len(), 6);
        assert_eq!(context_cells().len(), 37);
        assert!(kernel_cells("platform_s").is_empty());
        let job = Job { bench: "CG", seed: 5 };
        let spec = npb_service::Request::parse(&job.submit_line()).expect("a valid submit");
        assert!(matches!(spec, npb_service::Request::Submit { wait: true, .. }));
    }
}
