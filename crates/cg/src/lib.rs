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
    fmadd, ld, st, trace, BenchReport, Class, GuardConfig, GuardStats, Randlc, Style, Verified,
};
use npb_runtime::{guarded_loop, run_par, Exchange, Partials, SharedMut, Team};

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

/// Generate the class's sparse matrix: `cg.f`'s `makea` from the shared
/// NPB seed, so every caller (and every procs rank) builds the same one.
pub fn matrix(p: &CgParams) -> Csr {
    let mut rng = Randlc::new(npb_core::SEED_DEFAULT);
    rng.next_f64(); // main's zeta = randlc(tran, amult) before makea
    makea(&mut rng, p.na, p.nonzer, p.rcond, p.shift)
}

/// The vectors of one `conj_grad` call as every rank sees them: `x` is
/// read-only, the other four are written under the phase discipline of
/// [`conj_grad_rank`]. The threads backend builds them over its `Vec`s,
/// the procs backend over shared-memory slices (`x`, `z`, `p`) and
/// process-local vectors (`q`, `r`, of which a rank touches only its
/// own rows).
pub struct CgVectors<'a> {
    /// The right-hand side of `A z = x`.
    pub x: &'a [f64],
    /// The solution estimate.
    pub z: SharedMut<'a, f64>,
    /// The search direction.
    pub p: SharedMut<'a, f64>,
    /// `A p`.
    pub q: SharedMut<'a, f64>,
    /// The residual.
    pub r: SharedMut<'a, f64>,
}

/// One rank's share of `conj_grad`: 25 CG iterations solving `A z ≈ x`
/// in barrier-separated phases, the one body both backends run. Returns
/// this rank's partial of `‖x − A z‖²`; the caller sums the partials in
/// rank order.
///
/// Scheduling: the three pure elementwise phases (`q = A p`,
/// `p = r + βp`, the final `A z`) go through [`Exchange::for_chunks`],
/// so `--sched guided|feedback` rebalances the irregular sparse rows on
/// threads — each element is computed identically whichever rank claims
/// it, so the bits cannot move. Every loop that accumulates an FP
/// partial stays on the static [`Exchange::range`]: the rank-ordered
/// reduction's grouping (and therefore its rounding) depends on which
/// rows each rank owns.
///
/// Each phase borrows the rows it touches through `SharedMut::row` /
/// `row_mut` and drops them before the barrier that closes it. Between
/// two barriers a rank writes only the rows of its range or its chunks,
/// and reads `p` or `z` whole only in phases where no rank writes them.
pub fn conj_grad_rank<X: Exchange, const SAFE: bool>(ex: &X, mat: &Csr, v: &CgVectors<'_>) -> f64 {
    let n = mat.n;
    let (rowstr, colidx, a) = (&mat.rowstr[..], &mat.colidx[..], &mat.a[..]);
    // Row `j` of `A y`.
    let spmv_row = |j: usize, y: &[f64]| {
        let mut sum = 0.0;
        for k in ld::<_, SAFE>(rowstr, j)..ld::<_, SAFE>(rowstr, j + 1) {
            let col = ld::<_, SAFE>(colidx, k) as usize;
            sum = fmadd::<SAFE>(ld::<_, SAFE>(a, k), ld::<_, SAFE>(y, col), sum);
        }
        sum
    };
    let rows = ex.range(n);
    let (lo, len) = (rows.start, rows.len());

    // Initialization: q = z = 0, r = x, p = r; rho = r.r.
    let mut rho_part = 0.0;
    {
        // SAFETY: this phase writes only this rank's rows of q, z, r, p.
        let (q, z, r, p) = unsafe {
            (v.q.row_mut(lo, len), v.z.row_mut(lo, len), v.r.row_mut(lo, len), v.p.row_mut(lo, len))
        };
        for j in 0..len {
            let xj = ld::<_, SAFE>(v.x, lo + j);
            st::<_, SAFE>(q, j, 0.0);
            st::<_, SAFE>(z, j, 0.0);
            st::<_, SAFE>(r, j, xj);
            st::<_, SAFE>(p, j, xj);
            rho_part = fmadd::<SAFE>(xj, xj, rho_part);
        }
    }
    let mut rho = ex.all_sum(rho_part);

    for _cgit in 0..CGITMAX {
        // q = A p: disjoint row writes, so dynamically scheduled.
        ex.for_chunks(n, |chunk| {
            // SAFETY: nobody writes p in this phase; the chunks of q are
            // disjoint across ranks.
            let (p, q) = unsafe { (v.p.row(0, n), v.q.row_mut(chunk.start, chunk.len())) };
            for (i, j) in chunk.enumerate() {
                st::<_, SAFE>(q, i, spmv_row(j, p));
            }
        });
        // d = p.q
        let mut d_part = 0.0;
        {
            // SAFETY: read-only phase for p and q.
            let (p, q) = unsafe { (v.p.row(lo, len), v.q.row(lo, len)) };
            for j in 0..len {
                d_part = fmadd::<SAFE>(ld::<_, SAFE>(p, j), ld::<_, SAFE>(q, j), d_part);
            }
        }
        let alpha = rho / ex.all_sum(d_part);

        // z += alpha p ; r -= alpha q ; rho' = r.r
        let mut rho_part = 0.0;
        {
            // SAFETY: this phase writes only this rank's rows of z and r,
            // and nobody writes p or q.
            let (z, r, p, q) = unsafe {
                (v.z.row_mut(lo, len), v.r.row_mut(lo, len), v.p.row(lo, len), v.q.row(lo, len))
            };
            for j in 0..len {
                let pj = ld::<_, SAFE>(p, j);
                st::<_, SAFE>(z, j, fmadd::<SAFE>(alpha, pj, ld::<_, SAFE>(z, j)));
                let rj = fmadd::<SAFE>(-alpha, ld::<_, SAFE>(q, j), ld::<_, SAFE>(r, j));
                st::<_, SAFE>(r, j, rj);
                rho_part = fmadd::<SAFE>(rj, rj, rho_part);
            }
        }
        let rho_new = ex.all_sum(rho_part);
        let beta = rho_new / rho;
        rho = rho_new;

        // p = r + beta p. The next iteration's A p read needs the whole
        // p vector, so a barrier closes the phase.
        ex.for_chunks(n, |chunk| {
            // SAFETY: the chunks of p are disjoint across ranks; nobody
            // writes r in this phase.
            let (p, r) = unsafe {
                (v.p.row_mut(chunk.start, chunk.len()), v.r.row(chunk.start, chunk.len()))
            };
            for j in 0..chunk.len() {
                st::<_, SAFE>(p, j, fmadd::<SAFE>(beta, ld::<_, SAFE>(p, j), ld::<_, SAFE>(r, j)));
            }
        });
        ex.barrier();
    }

    // rnorm = || x - A z ||, reusing r for A z.
    ex.for_chunks(n, |chunk| {
        // SAFETY: nobody writes z in this phase; the chunks of r are
        // disjoint across ranks.
        let (z, r) = unsafe { (v.z.row(0, n), v.r.row_mut(chunk.start, chunk.len())) };
        for (i, j) in chunk.enumerate() {
            st::<_, SAFE>(r, i, spmv_row(j, z));
        }
    });
    // SAFETY: this rank reads back only the rows of r it wrote itself
    // (static split), or every chunk is done (a dynamic `for_chunks`
    // ends at a barrier); nobody writes r again in this call.
    let r = unsafe { v.r.row(lo, len) };
    let mut s = 0.0;
    for j in 0..len {
        let dlt = ld::<_, SAFE>(v.x, lo + j) - ld::<_, SAFE>(r, j);
        s = fmadd::<SAFE>(dlt, dlt, s);
    }
    s
}

/// One outer power step after `conj_grad`: zeta from `x·z` and `z·z`,
/// then `x = z / ‖z‖`. Master-serial on both backends (the cost is
/// O(n)).
pub fn power_step(x: &mut [f64], z: &[f64], shift: f64) -> f64 {
    let mut tx = 0.0; // x.z
    let mut tz = 0.0; // z.z
    for (xj, zj) in x.iter().zip(z) {
        tx += xj * zj;
        tz += zj * zj;
    }
    let inv = 1.0 / tz.sqrt();
    for (xj, zj) in x.iter_mut().zip(z) {
        *xj = inv * zj;
    }
    shift + 1.0 / tx
}

impl CgState {
    /// Generate the matrix for `class` (this is the untimed setup).
    pub fn new(class: Class) -> CgState {
        let p = CgParams::for_class(class);
        let mat = matrix(&p);
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
    /// returning `‖x - A z‖` — one parallel region running
    /// [`conj_grad_rank`] on every rank.
    pub fn conj_grad<const SAFE: bool>(&mut self, team: Option<&Team>) -> f64 {
        let p_rnorm = Partials::new(team.map_or(1, Team::size));
        // SAFETY: conj_grad_rank writes the four vectors only under its
        // phase discipline (disjoint rows between barriers).
        let v = unsafe {
            CgVectors {
                x: &self.x,
                z: SharedMut::new(&mut self.z),
                p: SharedMut::new(&mut self.pvec),
                q: SharedMut::new(&mut self.q),
                r: SharedMut::new(&mut self.r),
            }
        };
        let mat = &self.mat;
        run_par(team, |par| p_rnorm.set(par.tid(), conj_grad_rank::<_, SAFE>(&par, mat, &v)));
        p_rnorm.sum().sqrt()
    }

    /// Full benchmark under the in-computation SDC guard: one untimed
    /// warm-up conj_grad, reset, then `niter` timed power steps. The state
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
        power_step(&mut self.x, &self.z, self.p.shift);
        self.x.fill(1.0);

        let mut zeta = 0.0;
        let mut rnorm = 0.0;
        // Timed section starts here: drop the warm-up's spans so the
        // profile covers exactly what `secs` covers.
        trace::reset();
        let t0 = std::time::Instant::now();
        let guard = guarded_loop(
            team,
            gcfg,
            self.p.niter,
            self,
            |s| [&mut s.x[..]],
            |s, _| {
                rnorm = {
                    let _phase = trace::scope("conj_grad");
                    s.conj_grad::<SAFE>(team)
                };
                zeta = {
                    let _phase = trace::scope("power_step");
                    power_step(&mut s.x, &s.z, s.p.shift)
                };
                Some(rnorm)
            },
        );
        let secs = t0.elapsed().as_secs_f64();
        CgOutcome { zeta, rnorm, secs, guard }
    }
}

/// Verify a zeta value against the published reference (tolerance 1e-10,
/// as in `cg.f`).
pub fn verify(class: Class, zeta: f64) -> Verified {
    npb_core::verify_all(&[zeta], CgParams::for_class(class).zeta_verify.map(|z| [z]), 1.0e-10)
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
    BenchReport::new(
        "CG",
        class,
        style,
        team.map_or(0, Team::size),
        (p.na, 0, 0),
        p.niter,
        out.secs,
        p.flops() * 1.0e-6 / out.secs.max(1e-12),
        verify(class, out.zeta),
        result_sig(out.zeta),
        out.guard,
    )
}

/// Run and return the raw outcome (tests / harness).
pub fn run_raw(class: Class, style: Style, team: Option<&Team>) -> CgOutcome {
    let mut st = CgState::new(class);
    match style {
        Style::Opt => st.run_guarded::<false>(team, &GuardConfig::default()),
        Style::Safe => st.run_guarded::<true>(team, &GuardConfig::default()),
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
