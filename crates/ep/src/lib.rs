//! # npb-ep — the NPB "Embarrassingly Parallel" kernel
//!
//! Generates `2^M` pairs of uniform deviates from the NPB linear
//! congruential generator, transforms the accepted pairs to independent
//! Gaussian deviates with the Marsaglia polar method, and tallies the sums
//! `Σ Xk`, `Σ Yk` and the counts `Q_l` of pairs in the square annuli
//! `l ≤ max(|X|,|Y|) < l+1`.
//!
//! EP is the upper bound of achievable parallel performance: batches are
//! fully independent, so it isolates raw generator + transcendental
//! throughput from any communication effects.

mod params;

pub use params::{EpParams, EpRefs};

use std::sync::Mutex;

use npb_core::{fmadd, trace, BenchReport, Class, GuardStats, Randlc, Style, Verified};
use npb_runtime::{run_par, Team};

/// Log2 of the batch size (NPB's `MK`): each batch draws `2^(MK+1)`
/// uniforms, i.e. `2^MK` candidate pairs.
pub const MK: u32 = 16;
/// Number of annulus tallies (NPB's `NQ`).
pub const NQ: usize = 10;

const S: f64 = 271_828_183.0;

/// Raw results of an EP run, before verification.
#[derive(Debug, Clone, PartialEq)]
pub struct EpResult {
    /// Sum of the Gaussian X deviates.
    pub sx: f64,
    /// Sum of the Gaussian Y deviates.
    pub sy: f64,
    /// Annulus counts `Q_0..Q_9`.
    pub q: [f64; NQ],
    /// Total accepted pairs (`Σ Q_l`).
    pub gc: f64,
}

impl EpResult {
    /// All sums zero: a rank's accumulator before its first batch.
    pub fn zero() -> EpResult {
        EpResult { sx: 0.0, sy: 0.0, q: [0.0; NQ], gc: 0.0 }
    }
}

/// Run one batch of `2^MK` candidate pairs whose batch index is `k`
/// (0-based), accumulating into `res`. `x` is the per-thread scratch
/// buffer of `2^(MK+1)` doubles. Public so the `procs` backend's worker
/// ranks can run exactly the kernel the thread ranks run — bit-identity
/// across backends falls out of batch indices being processed in the
/// same order with the same arithmetic.
pub fn batch<const SAFE: bool>(k: usize, x: &mut [f64], res: &mut EpResult) {
    let nk = 1usize << MK;
    debug_assert_eq!(x.len(), 2 * nk);

    // Batch k owns draws [k * 2^(MK+1), (k+1) * 2^(MK+1)) of the stream
    // seeded at S: jump there (ep.f's binary "find my seed" loop) and
    // draw the batch's uniforms.
    let mut rng = Randlc::new(S);
    rng.jump((k as u64) << (MK + 1));
    rng.fill(x);

    // Polar-method acceptance + tallies.
    for i in 0..nk {
        let x1 = npb_core::ld::<_, SAFE>(x, 2 * i);
        let x2 = npb_core::ld::<_, SAFE>(x, 2 * i + 1);
        let x1 = fmadd::<SAFE>(2.0, x1, -1.0);
        let x2 = fmadd::<SAFE>(2.0, x2, -1.0);
        let t = x1 * x1 + x2 * x2;
        if t <= 1.0 {
            let t2 = ((-2.0 * t.ln()) / t).sqrt();
            let t3 = x1 * t2;
            let t4 = x2 * t2;
            let l = t3.abs().max(t4.abs()) as usize;
            res.q[l] += 1.0;
            res.sx += t3;
            res.sy += t4;
        }
    }
}

/// Combine the ranks' sums, given in rank order: each quantity summed
/// over ascending rank (the `Partials::sum` fold), then `gc = Σ q`. Both
/// backends finish an EP run with this.
pub fn combine(ranks: &[EpResult]) -> EpResult {
    let q: [f64; NQ] = std::array::from_fn(|l| ranks.iter().map(|r| r.q[l]).sum());
    EpResult {
        sx: ranks.iter().map(|r| r.sx).sum(),
        sy: ranks.iter().map(|r| r.sy).sum(),
        q,
        gc: q.iter().sum(),
    }
}

fn run_impl<const SAFE: bool>(params: &EpParams, team: Option<&Team>) -> EpResult {
    let nn = 1usize << (params.m - MK); // number of batches
    let nk = 1usize << MK;
    let ranks = Mutex::new(vec![EpResult::zero(); team.map_or(1, Team::size)]);

    let _phase = trace::scope("gaussian_pairs");
    // Deliberately static even when the team runs a guided/feedback
    // scheduling policy: each rank folds its batches into rank-local FP
    // partial sums, so which rank owns a batch changes the grouping (and
    // therefore the bits) of the reduction. `p.range` pins the batch ->
    // rank map to the deterministic static partition; only the rank
    // *count* may change it, never the schedule.
    run_par(team, |p| {
        let mut local = EpResult::zero();
        let mut x = vec![0.0f64; 2 * nk];
        for k in p.range(nn) {
            batch::<SAFE>(k, &mut x, &mut local);
        }
        ranks.lock().expect("a rank panicked while publishing its sums")[p.tid()] = local;
    });
    combine(&ranks.into_inner().expect("a rank panicked while publishing its sums"))
}

/// Verify a result against the published NPB reference sums for `class`.
pub fn verify(class: Class, res: &EpResult) -> Verified {
    npb_core::verify_all(&[res.sx, res.sy], params::refs(class).map(|r| [r.sx, r.sy]), 1.0e-8)
}

/// Bit-exact signature of a result: the integrity hash over exactly the
/// quantities verification reads (the sums and the annulus counts), so
/// two runs with equal signatures agree to the last bit — the check the
/// cross-backend (threads vs procs) identity tests and the ci smoke use.
pub fn result_sig(res: &EpResult) -> u64 {
    npb_core::guard::state_hash(&[&[res.sx, res.sy], &res.q])
}

/// Run the EP benchmark: full timed run plus verification and Mop/s
/// accounting (NPB counts the number of Gaussian pairs per second).
pub fn run(class: Class, style: Style, team: Option<&Team>) -> BenchReport {
    let params = EpParams::for_class(class);
    // EP has no warm-up: the whole run is the timed section.
    trace::reset();
    let t0 = std::time::Instant::now();
    let res = match style {
        Style::Opt => run_impl::<false>(&params, team),
        Style::Safe => run_impl::<true>(&params, team),
    };
    let time = t0.elapsed().as_secs_f64();
    let n = 2f64.powi(params.m as i32);
    let mops = n * 1.0e-6 / time.max(1e-12);
    BenchReport::new(
        "EP",
        class,
        style,
        team.map_or(0, Team::size),
        (1usize << params.m, 0, 0),
        1,
        time,
        mops,
        verify(class, &res),
        result_sig(&res),
        GuardStats::default(),
    )
}

/// Run and return the raw sums (used by tests and the harness).
pub fn run_raw(class: Class, style: Style, team: Option<&Team>) -> EpResult {
    let params = EpParams::for_class(class);
    match style {
        Style::Opt => run_impl::<false>(&params, team),
        Style::Safe => run_impl::<true>(&params, team),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_s_matches_published_reference() {
        let res = run_raw(Class::S, Style::Opt, None);
        assert_eq!(verify(Class::S, &res), Verified::Success, "sx={} sy={}", res.sx, res.sy);
        // Acceptance ratio of the polar method is pi/4.
        let n = 2f64.powi(24);
        let ratio = res.gc / n;
        assert!((ratio - std::f64::consts::FRAC_PI_4).abs() < 1e-3, "ratio {ratio}");
    }

    #[test]
    fn safe_style_is_bit_identical_to_opt() {
        // EP's arithmetic has no fmadd-sensitive accumulation ordering
        // differences: fmadd(2,x,-1) is exact either way, so the two
        // styles must agree to the last bit.
        let a = run_raw(Class::S, Style::Opt, None);
        let b = run_raw(Class::S, Style::Safe, None);
        assert_eq!(a.sx.to_bits(), b.sx.to_bits());
        assert_eq!(a.sy.to_bits(), b.sy.to_bits());
        assert_eq!(a.q, b.q);
    }

    #[test]
    fn parallel_runs_verify_and_match_serial_counts() {
        let serial = run_raw(Class::S, Style::Opt, None);
        for n in [1, 2, 4] {
            let team = Team::new(n);
            let par = run_raw(Class::S, Style::Opt, Some(&team));
            // Counts are integers: must match exactly regardless of the
            // summation split.
            assert_eq!(par.q, serial.q, "q mismatch at {n} threads");
            assert_eq!(par.gc, serial.gc);
            assert_eq!(verify(Class::S, &par), Verified::Success);
        }
    }

    #[test]
    fn report_banner_runs() {
        let rep = run(Class::S, Style::Opt, None);
        assert!(rep.verified.is_success());
        assert!(rep.mops > 0.0);
        assert!(rep.banner().contains("EP"));
    }
}
