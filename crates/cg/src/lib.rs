//! # npb-cg — the NPB "Conjugate Gradient" kernel
//!
//! Estimates the smallest eigenvalue of a large random sparse symmetric
//! positive-definite matrix with shifted inverse power iteration; each
//! power step solves `A z = x` approximately with 25 unpreconditioned
//! conjugate-gradient iterations. The matrix comes from the faithful
//! [`makea`] port, so the published zeta verification values apply.
//!
//! CG is one of the paper's two "unstructured computation" benchmarks
//! (with IS): irregular memory access, long dependence chains of dot
//! products, and little work per thread — which is why the paper needed
//! its "initialize a large work section per thread" trick to get the JVM
//! to spread CG threads over processors at all (§5.2).

mod makea;
mod params;

pub use makea::{makea, Csr};
pub use params::CgParams;

use npb_core::{
    fmadd, ld, trace, BenchReport, Class, GuardAction, GuardConfig, GuardStats, Randlc, SdcGuard,
    Style, Verified,
};
use npb_runtime::{escalate_corruption, run_par, Partials, SharedMut, Team};

/// Number of CG iterations per outer power step (NPB `cgitmax`).
pub const CGITMAX: usize = 25;

/// Benchmark state: the matrix and the five working vectors.
pub struct CgState {
    /// The generated sparse matrix.
    pub mat: Csr,
    p: CgParams,
    x: Vec<f64>,
    z: Vec<f64>,
    pvec: Vec<f64>,
    q: Vec<f64>,
    r: Vec<f64>,
}

/// Outcome of a full CG run.
#[derive(Debug, Clone, Copy)]
pub struct CgOutcome {
    /// Final eigenvalue estimate.
    pub zeta: f64,
    /// Residual norm of the last conj_grad call.
    pub rnorm: f64,
    /// Seconds in the timed section.
    pub secs: f64,
    /// What the SDC guard did (recoveries, checkpoints, overhead).
    pub guard: GuardStats,
}

impl CgState {
    /// Generate the matrix for `class` (this is the untimed setup).
    pub fn new(class: Class) -> CgState {
        let p = CgParams::for_class(class);
        let mut rng = Randlc::new(npb_core::SEED_DEFAULT);
        rng.next_f64(); // main's zeta = randlc(tran, amult) before makea
        let mat = makea(&mut rng, p.na, p.nonzer, p.rcond, p.shift);
        let n = p.na;
        CgState {
            mat,
            p,
            x: vec![1.0; n],
            z: vec![0.0; n],
            pvec: vec![0.0; n],
            q: vec![0.0; n],
            r: vec![0.0; n],
        }
    }

    /// Problem parameters.
    pub fn params(&self) -> &CgParams {
        &self.p
    }

    /// One `conj_grad` call: 25 CG iterations solving `A z ≈ x`,
    /// returning `‖x - A z‖`. One parallel region with barrier-separated
    /// phases; all reductions combine rank-ordered partials.
    ///
    /// Scheduling: the three pure elementwise phases (`q = A p`,
    /// `p = r + βp`, the final `A z`) go through [`Par::for_chunks`], so
    /// `--sched guided|feedback` rebalances the irregular sparse rows —
    /// each element is computed identically whichever rank claims it, so
    /// the bits cannot move. Every loop that accumulates an FP partial
    /// stays pinned to the static [`Par::range`]: the rank-ordered
    /// reduction's grouping (and therefore its rounding) depends on which
    /// rows each rank owns.
    ///
    /// [`Par::for_chunks`]: npb_runtime::Par::for_chunks
    /// [`Par::range`]: npb_runtime::Par::range
    pub fn conj_grad<const SAFE: bool>(&mut self, team: Option<&Team>) -> f64 {
        let n = self.mat.n;
        let nthreads = team.map_or(1, Team::size);
        let p_rho = Partials::new(nthreads);
        let p_d = Partials::new(nthreads);
        let p_rnorm = Partials::new(nthreads);

        let rowstr: &[usize] = &self.mat.rowstr;
        let colidx: &[u32] = &self.mat.colidx;
        let a: &[f64] = &self.mat.a;
        let x: &[f64] = &self.x;
        // SAFETY: each thread writes only its own row-range of z, p, q, r
        // between barriers; x and the matrix are read-only in the region.
        let z = unsafe { SharedMut::new(&mut self.z) };
        let pv = unsafe { SharedMut::new(&mut self.pvec) };
        let q = unsafe { SharedMut::new(&mut self.q) };
        let r = unsafe { SharedMut::new(&mut self.r) };

        run_par(team, |par| {
            let rows = par.range(n);

            // Initialization: q = z = 0, r = x, p = r; rho = r.r.
            let mut rho_part = 0.0;
            for j in rows.clone() {
                q.set::<SAFE>(j, 0.0);
                z.set::<SAFE>(j, 0.0);
                let xj = ld::<_, SAFE>(x, j);
                r.set::<SAFE>(j, xj);
                pv.set::<SAFE>(j, xj);
                rho_part = fmadd::<SAFE>(xj, xj, rho_part);
            }
            p_rho.set(par.tid(), rho_part);
            par.barrier();
            let mut rho = p_rho.sum();

            for _cgit in 0..CGITMAX {
                // q = A p: disjoint row writes, so dynamically scheduled.
                par.for_chunks(n, |chunk| {
                    for j in chunk {
                        let mut sum = 0.0;
                        for k in ld::<_, SAFE>(rowstr, j)..ld::<_, SAFE>(rowstr, j + 1) {
                            let col = ld::<_, SAFE>(colidx, k) as usize;
                            sum = fmadd::<SAFE>(ld::<_, SAFE>(a, k), pv.get::<SAFE>(col), sum);
                        }
                        q.set::<SAFE>(j, sum);
                    }
                });
                // d = p.q
                let mut d_part = 0.0;
                for j in rows.clone() {
                    d_part = fmadd::<SAFE>(pv.get::<SAFE>(j), q.get::<SAFE>(j), d_part);
                }
                p_d.set(par.tid(), d_part);
                par.barrier();
                let d = p_d.sum();
                let alpha = rho / d;

                // z += alpha p ; r -= alpha q ; rho' = r.r
                let mut rho_part = 0.0;
                for j in rows.clone() {
                    z.set::<SAFE>(j, fmadd::<SAFE>(alpha, pv.get::<SAFE>(j), z.get::<SAFE>(j)));
                    let rj = fmadd::<SAFE>(-alpha, q.get::<SAFE>(j), r.get::<SAFE>(j));
                    r.set::<SAFE>(j, rj);
                    rho_part = fmadd::<SAFE>(rj, rj, rho_part);
                }
                p_rho.set(par.tid(), rho_part);
                par.barrier();
                let rho_new = p_rho.sum();
                let beta = rho_new / rho;
                rho = rho_new;

                // p = r + beta p. The next iteration's A p read needs the
                // whole p vector, so a barrier closes the phase.
                par.for_chunks(n, |chunk| {
                    for j in chunk {
                        pv.set::<SAFE>(j, fmadd::<SAFE>(beta, pv.get::<SAFE>(j), r.get::<SAFE>(j)));
                    }
                });
                par.barrier();
            }

            // rnorm = || x - A z ||, reusing r for A z.
            par.for_chunks(n, |chunk| {
                for j in chunk {
                    let mut sum = 0.0;
                    for k in ld::<_, SAFE>(rowstr, j)..ld::<_, SAFE>(rowstr, j + 1) {
                        let col = ld::<_, SAFE>(colidx, k) as usize;
                        sum = fmadd::<SAFE>(ld::<_, SAFE>(a, k), z.get::<SAFE>(col), sum);
                    }
                    r.set::<SAFE>(j, sum);
                }
            });
            par.barrier();
            let mut s = 0.0;
            for j in rows {
                let dlt = ld::<_, SAFE>(x, j) - r.get::<SAFE>(j);
                s = fmadd::<SAFE>(dlt, dlt, s);
            }
            p_rnorm.set(par.tid(), s);
        });

        p_rnorm.sum().sqrt()
    }

    /// One outer power step after `conj_grad`: compute zeta and replace
    /// `x` by the normalized `z` (master-serial, as the cost is O(n)).
    fn power_step(&mut self) -> f64 {
        let mut tx = 0.0; // x.z
        let mut tz = 0.0; // z.z
        for j in 0..self.mat.n {
            tx += self.x[j] * self.z[j];
            tz += self.z[j] * self.z[j];
        }
        let inv = 1.0 / tz.sqrt();
        for j in 0..self.mat.n {
            self.x[j] = inv * self.z[j];
        }
        self.p.shift + 1.0 / tx
    }

    /// Full benchmark: one untimed warm-up conj_grad, reset, then `niter`
    /// timed power steps.
    pub fn run<const SAFE: bool>(&mut self, team: Option<&Team>) -> CgOutcome {
        self.run_guarded::<SAFE>(team, &GuardConfig::default())
    }

    /// [`CgState::run`] under the in-computation SDC guard: the state
    /// carried across power steps is exactly `x` (every other vector is
    /// regenerated by `conj_grad` from it), so `x` is what the guard
    /// watches, checkpoints and restores.
    pub fn run_guarded<const SAFE: bool>(
        &mut self,
        team: Option<&Team>,
        gcfg: &GuardConfig,
    ) -> CgOutcome {
        // Untimed warm-up (NPB: "init all code and data page tables").
        self.x.fill(1.0);
        self.conj_grad::<SAFE>(team);
        self.power_step();
        self.x.fill(1.0);

        let mut guard = SdcGuard::new(gcfg, self.p.niter);
        guard.init(&[&self.x[..]]);
        let mut zeta = 0.0;
        let mut rnorm = 0.0;
        // Timed section starts here: drop the warm-up's spans so the
        // profile covers exactly what `secs` covers.
        trace::reset();
        let t0 = std::time::Instant::now();
        let mut it = 0;
        while it < self.p.niter {
            match guard.begin(it, &mut [&mut self.x[..]]) {
                GuardAction::Continue => {}
                GuardAction::Rollback { resume } => {
                    // Replayed iterations must not consult timings from
                    // the corrupted pass.
                    if let Some(t) = team {
                        t.reset_sched_history();
                    }
                    it = resume;
                    continue;
                }
                GuardAction::Escalate { iteration, detections } => {
                    escalate_corruption(iteration, detections)
                }
            }
            rnorm = {
                let _phase = trace::scope("conj_grad");
                self.conj_grad::<SAFE>(team)
            };
            zeta = {
                let _phase = trace::scope("power_step");
                self.power_step()
            };
            guard.end(it, &[&self.x[..]], Some(rnorm));
            it += 1;
        }
        let secs = t0.elapsed().as_secs_f64();
        CgOutcome { zeta, rnorm, secs, guard: guard.stats() }
    }
}

/// Verify a zeta value against the published reference (tolerance 1e-10,
/// as in `cg.f`).
pub fn verify(class: Class, zeta: f64) -> Verified {
    match CgParams::for_class(class).zeta_verify {
        None => Verified::NotPerformed,
        Some(zv) => {
            if npb_core::rel_err_ok(zeta, zv, 1.0e-10) {
                Verified::Success
            } else {
                Verified::Failure
            }
        }
    }
}

/// Bit-exact signature of an outcome: the integrity hash over the final
/// zeta (what verification reads), so cross-backend identity checks
/// reduce to comparing one hex string.
pub fn result_sig(zeta: f64) -> u64 {
    npb_core::guard::state_hash(&[&[zeta]])
}

/// Run the CG benchmark and produce the standard report.
pub fn run(class: Class, style: Style, team: Option<&Team>) -> BenchReport {
    run_with_guard(class, style, team, &GuardConfig::default())
}

/// [`run`] with an explicit SDC-guard configuration (the `npb` driver's
/// `--sdc-guard` / `--checkpoint-every` path).
pub fn run_with_guard(
    class: Class,
    style: Style,
    team: Option<&Team>,
    gcfg: &GuardConfig,
) -> BenchReport {
    let mut st = CgState::new(class);
    let out = match style {
        Style::Opt => st.run_guarded::<false>(team, gcfg),
        Style::Safe => st.run_guarded::<true>(team, gcfg),
    };
    let p = st.params();
    BenchReport {
        name: "CG",
        class,
        size: (p.na, 0, 0),
        niter: p.niter,
        time_secs: out.secs,
        mops: p.flops() * 1.0e-6 / out.secs.max(1e-12),
        threads: team.map_or(0, Team::size),
        style,
        verified: verify(class, out.zeta),
        recoveries: out.guard.recoveries,
        checkpoint_count: out.guard.checkpoint_count,
        checkpoint_overhead_s: out.guard.checkpoint_overhead_s,
        regions: Vec::new(),
        result_sig: Some(result_sig(out.zeta)),
        rank_dispositions: Vec::new(),
    }
}

/// Run and return the raw outcome (tests / harness).
pub fn run_raw(class: Class, style: Style, team: Option<&Team>) -> CgOutcome {
    let mut st = CgState::new(class);
    match style {
        Style::Opt => st.run::<false>(team),
        Style::Safe => st.run::<true>(team),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_s_zeta_matches_published_reference() {
        let out = run_raw(Class::S, Style::Opt, None);
        assert_eq!(verify(Class::S, out.zeta), Verified::Success, "zeta = {:.13}", out.zeta);
        assert!(out.rnorm < 1e-10, "rnorm = {}", out.rnorm);
    }

    #[test]
    fn safe_style_also_verifies() {
        let out = run_raw(Class::S, Style::Safe, None);
        assert_eq!(verify(Class::S, out.zeta), Verified::Success, "zeta = {:.13}", out.zeta);
    }

    #[test]
    fn parallel_zeta_matches_reference_for_several_team_sizes() {
        for n in [1usize, 2, 4] {
            let team = Team::new(n);
            let out = run_raw(Class::S, Style::Opt, Some(&team));
            assert_eq!(
                verify(Class::S, out.zeta),
                Verified::Success,
                "{n} threads: zeta = {:.13}",
                out.zeta
            );
        }
    }

    #[test]
    fn fixed_thread_count_is_deterministic() {
        let team = Team::new(3);
        let a = run_raw(Class::S, Style::Opt, Some(&team));
        let b = run_raw(Class::S, Style::Opt, Some(&team));
        assert_eq!(a.zeta.to_bits(), b.zeta.to_bits());
    }

    #[test]
    fn conj_grad_reduces_residual() {
        // A single conj_grad on x = 1 must produce a small residual for
        // this well-conditioned matrix; a perturbed "solve" must not.
        let mut st = CgState::new(Class::S);
        st.x.fill(1.0);
        let rnorm = st.conj_grad::<false>(None);
        assert!(rnorm < 1e-9, "rnorm = {rnorm}");
    }

    #[test]
    fn verify_rejects_wrong_zeta() {
        assert_eq!(verify(Class::S, 8.6), Verified::Failure);
    }

    #[test]
    fn guarded_run_recovers_from_armed_bitflip() {
        use npb_core::{arm_bitflip, ArmedBitFlip};
        let flip = ArmedBitFlip { iter_frac: 0.45, elem_frac: 0.2, bit_frac: 0.5 };

        // Control: the same flip without the guard corrupts zeta.
        arm_bitflip(flip);
        let mut st = CgState::new(Class::S);
        let corrupt = st.run_guarded::<false>(None, &GuardConfig::default());
        assert_eq!(verify(Class::S, corrupt.zeta), Verified::Failure, "zeta = {}", corrupt.zeta);
        assert_eq!(corrupt.guard.recoveries, 0);

        // Guarded: detected, rolled back, verification passes.
        arm_bitflip(flip);
        let mut st = CgState::new(Class::S);
        let healed = st.run_guarded::<false>(None, &GuardConfig::enabled_every(2));
        assert_eq!(verify(Class::S, healed.zeta), Verified::Success, "zeta = {}", healed.zeta);
        assert_eq!(healed.guard.recoveries, 1);
        assert!(healed.guard.checkpoint_count >= 2);
    }
}
