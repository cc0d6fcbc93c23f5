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
//!
//! Each batch is four passes over one scratch buffer, in place of NPB's
//! single loop, whose `t <= 1` test is a coin the branch predictor cannot
//! learn (true for π/4 of the pairs) and whose `q[l] += 1` chains through
//! memory: draw the uniforms; a branch-free acceptance pass that compacts
//! the pairs inside the unit circle to the front in order; the `ln`/`sqrt`
//! transform of those pairs; and the tallies, with the annulus counts kept
//! as integers and added to `q` once a batch. The arithmetic and the
//! summation order are NPB's, so the results agree with the single loop
//! to the last bit (the test `oracle` module keeps that loop to check it).

mod params;

pub use params::{EpParams, EpRefs};

use std::sync::Mutex;

use npb_core::{fmadd, ld, st, trace, BenchReport, Class, GuardStats, Randlc, Style, Verified};
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
    debug_assert_eq!(x.len(), 2 << MK);

    // Batch k owns draws [k * 2^(MK+1), (k+1) * 2^(MK+1)) of the stream
    // seeded at S: jump there (ep.f's binary "find my seed" loop) and
    // draw the batch's uniforms.
    let mut rng = Randlc::new(S);
    rng.jump((k as u64) << (MK + 1));
    rng.fill(x);
    polar::<SAFE>(x, res);
}

/// The polar method over the uniform pairs in `x`, with the arithmetic
/// of NPB's one branchy loop, in three passes: map each pair to
/// `(2x1-1, 2x2-1)` and compact the pairs inside the unit circle to the
/// front, in order and without a branch; turn each accepted pair into
/// Gaussians; then [`tally`] them in pair order.
fn polar<const SAFE: bool>(x: &mut [f64], res: &mut EpResult) {
    // Acceptance: every pair is written to slot n, and n only advances
    // past the accepted ones. Slot n <= i, so the pair is read first.
    let mut n = 0;
    for i in 0..x.len() / 2 {
        let x1 = fmadd::<SAFE>(2.0, ld::<_, SAFE>(x, 2 * i), -1.0);
        let x2 = fmadd::<SAFE>(2.0, ld::<_, SAFE>(x, 2 * i + 1), -1.0);
        let t = x1 * x1 + x2 * x2;
        st::<_, SAFE>(x, 2 * n, x1);
        st::<_, SAFE>(x, 2 * n + 1, x2);
        n += (t <= 1.0) as usize;
    }

    // Polar transform of the accepted pairs, `t` recomputed to the same
    // bits. `f64::ln` stays scalar: a lane `ln` rounds differently.
    for j in 0..n {
        let x1 = ld::<_, SAFE>(x, 2 * j);
        let x2 = ld::<_, SAFE>(x, 2 * j + 1);
        let t = x1 * x1 + x2 * x2;
        let t2 = ((-2.0 * t.ln()) / t).sqrt();
        st::<_, SAFE>(x, 2 * j, x1 * t2);
        st::<_, SAFE>(x, 2 * j + 1, x2 * t2);
    }

    tally(&x[..2 * n], res);
}

/// Fold Gaussian pairs into `res`: `sx` and `sy` in pair order (never
/// reassociated: the bits are pinned), and the annulus counts as
/// integers, added to `q` once. `ge[c]` counts the pairs with
/// `max(|X|,|Y|) >= c`, so `q[l]` gains `ge[l] - ge[l+1]`: for a
/// non-negative `m`, `m >= c` exactly when `m as usize >= c`, the index
/// NPB's `q[l] += 1` uses. A NaN `m` lands in `q[0]`, as `NaN as usize`
/// does; a pair at or beyond `NQ` panics, as that index would.
fn tally(pairs: &[f64], res: &mut EpResult) {
    let mut ge = [0usize; NQ + 1];
    for p in pairs.chunks_exact(2) {
        let (t3, t4) = (p[0], p[1]);
        res.sx += t3;
        res.sy += t4;
        let m = t3.abs().max(t4.abs());
        for (c, g) in ge.iter_mut().enumerate().skip(1) {
            *g += (m >= c as f64) as usize;
        }
    }
    assert_eq!(ge[NQ], 0, "a Gaussian pair fell outside the {NQ} annuli");
    ge[0] = pairs.len() / 2;
    for l in 0..NQ {
        // Counts stay below 2^53, so the conversion is exact.
        res.q[l] += (ge[l] - ge[l + 1]) as f64;
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
/// accounting. Mop/s here is `2^M / t`, candidate *pairs* per second;
/// NPB 3.x `ep.f` reports `2^(M+1) / t`, uniform deviates per second, so
/// its figure is twice this one for the same time.
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

/// NPB's single branchy loop, the reference `batch` must match bit for
/// bit.
#[cfg(test)]
mod oracle {
    use super::*;

    pub fn batch<const SAFE: bool>(k: usize, x: &mut [f64], res: &mut EpResult) {
        let mut rng = Randlc::new(S);
        rng.jump((k as u64) << (MK + 1));
        rng.fill(x);
        polar::<SAFE>(x, res);
    }

    pub fn polar<const SAFE: bool>(x: &[f64], res: &mut EpResult) {
        for u in x.chunks_exact(2) {
            let x1 = fmadd::<SAFE>(2.0, u[0], -1.0);
            let x2 = fmadd::<SAFE>(2.0, u[1], -1.0);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(r: &EpResult) -> (u64, u64, [u64; NQ]) {
        (r.sx.to_bits(), r.sy.to_bits(), r.q.map(f64::to_bits))
    }

    /// A rank's accumulator after some earlier batches.
    fn seeded() -> EpResult {
        let mut r = EpResult::zero();
        r.sx = -0.1;
        r.sy = 1_234.567_89;
        r.q = std::array::from_fn(|l| (1000 * (NQ - l)) as f64);
        r
    }

    #[test]
    fn batch_equals_the_branchy_oracle_bit_for_bit() {
        agrees_with_the_oracle::<false>();
        agrees_with_the_oracle::<true>();
    }

    fn agrees_with_the_oracle<const SAFE: bool>() {
        let batches = |class| 1usize << (EpParams::for_class(class).m - MK);
        let (s, w, a) = (batches(Class::S), batches(Class::W), batches(Class::A));
        let mut x = vec![0.0f64; 2 << MK];
        for k in [0, 1, s - 1, w - 1, a / 7, a / 3, a / 2 + 1, a - 2, a - 1] {
            let (mut got, mut want) = (seeded(), seeded());
            batch::<SAFE>(k, &mut x, &mut got);
            oracle::batch::<SAFE>(k, &mut x, &mut want);
            assert_eq!(bits(&got), bits(&want), "batch {k}, safe={SAFE}");
        }

        // No drawn pair lands on t = 1 exactly, so plant uniform pairs on,
        // just inside and just outside the unit circle among ordinary ones:
        // a moved boundary or a dropped pair shows here.
        let tiny = |e: i32| 2f64.powi(-e);
        let below_one = f64::from_bits(1.0f64.to_bits() - 1);
        #[rustfmt::skip]
        let u = [
            0.5, 0.0,             // (0, -1): t = 1 exactly, accepted
            0.9, 0.3,             // t = 0.8
            0.5 + tiny(20), 0.0,  // t = 1 + 2^-38, rejected
            0.5, tiny(50),        // t = 1 - 2^-48, accepted
            0.2, 0.7,             // t = 0.52
            0.0, 0.0,             // t = 2, rejected
            0.6, 0.1,             // t = 0.68
            below_one, 0.5,       // t = 1 - 2^-51, accepted
        ];
        let (mut got, mut want) = (seeded(), seeded());
        let mut x = u;
        polar::<SAFE>(&mut x, &mut got);
        oracle::polar::<SAFE>(&u, &mut want);
        assert_eq!(bits(&got), bits(&want), "planted, safe={SAFE}");
        let accepted: f64 = (0..NQ).map(|l| got.q[l] - seeded().q[l]).sum();
        assert_eq!(accepted, 6.0, "safe={SAFE}");
    }

    /// Pairs `(m, -m/2)` and `(m/3, -m)`: the larger magnitude is `m`,
    /// in either slot and either sign.
    fn planted(ms: &[f64]) -> Vec<f64> {
        ms.iter().flat_map(|&m| [m, -0.5 * m, m / 3.0, -m]).collect()
    }

    #[test]
    fn tally_bins_planted_pairs_as_the_index_would() {
        let below_one = f64::from_bits(1.0f64.to_bits() - 1);
        let below_ten = f64::from_bits(10.0f64.to_bits() - 1);
        let ms = [0.0, below_one, 1.0, 9.0, below_ten, 4.5];
        let pairs = planted(&ms);
        let mut got = seeded();
        tally(&pairs, &mut got);
        let mut want = seeded();
        for p in pairs.chunks_exact(2) {
            want.sx += p[0];
            want.sy += p[1];
            want.q[p[0].abs().max(p[1].abs()) as usize] += 1.0;
        }
        assert_eq!(bits(&got), bits(&want));
        // Each planted m lands twice in the annulus of its integer part.
        let gained: Vec<f64> = (0..NQ).map(|l| got.q[l] - seeded().q[l]).collect();
        assert_eq!(gained, [4.0, 2.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 4.0]);

        // The t = 0 pair's NaN lands in q[0], as `NaN as usize == 0` puts it.
        let mut nan = EpResult::zero();
        tally(&[f64::NAN, f64::NAN], &mut nan);
        assert_eq!(nan.q[0], 1.0);
    }

    #[test]
    #[should_panic(expected = "outside the 10 annuli")]
    fn tally_panics_on_a_pair_at_nq() {
        tally(&planted(&[1.0, NQ as f64]), &mut EpResult::zero());
    }

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
