//! # npb-mg — the NPB "MultiGrid" kernel
//!
//! Solves the 3-D scalar Poisson equation `∇²u = v` with periodic
//! boundary conditions using `nit` V-cycles of a multigrid method. The
//! right-hand side is ±1 point charges at the extremes of a
//! deterministic random field ([`zran3`]); verification compares the
//! L2 norm of the final residual against the published references.
//!
//! MG is one of the paper's structured-grid benchmarks: its smoothing
//! operator is the "compact 3x3x3 stencil" of the basic-operation study
//! (Table 1), so its Java/Fortran — here safe/opt — gap tracks the
//! second-order-stencil ratio.

pub mod ops;
mod params;
mod zran3;

pub use params::MgParams;
pub use zran3::zran3;

use npb_core::{trace, BenchReport, Class, GuardConfig, GuardStats, Style, Verified};
use npb_runtime::{guarded_loop, SharedMut, Team};
pub use ops::MgScratch;
use ops::{interp, norm2u3, psinv, resid, rprj3, zero3};

/// MG benchmark state: the grid hierarchy.
pub struct MgState {
    p: MgParams,
    lt: usize,
    /// Extent (incl. ghosts) per level, index 0 = coarsest.
    sizes: Vec<usize>,
    /// Solution grids per level.
    u: Vec<Vec<f64>>,
    /// Residual grids per level.
    r: Vec<Vec<f64>>,
    /// Right-hand side (finest level only).
    v: Vec<f64>,
    a: [f64; 4],
    c: [f64; 4],
    /// Per-rank stencil line buffers, sized lazily for the team width of
    /// the first cycle and reused across every level and V-cycle.
    scratch: Option<MgScratch>,
}

/// Outcome of a full MG run.
#[derive(Debug, Clone, Copy)]
pub struct MgOutcome {
    /// Scaled L2 norm of the final residual (the verification quantity).
    pub rnm2: f64,
    /// Max norm of the final residual.
    pub rnmu: f64,
    /// Seconds in the timed section.
    pub secs: f64,
    /// What the SDC guard did (recoveries, checkpoints, overhead).
    pub guard: GuardStats,
}

impl MgState {
    /// Allocate the hierarchy for `class`.
    pub fn new(class: Class) -> MgState {
        let p = MgParams::for_class(class);
        let lt = p.lt();
        assert!(lt >= 2, "MG needs at least two levels");
        let sizes: Vec<usize> = (0..lt).map(|lev| (1usize << (lev + 1)) + 2).collect();
        let u = sizes.iter().map(|&s| vec![0.0; s * s * s]).collect();
        let r = sizes.iter().map(|&s| vec![0.0; s * s * s]).collect();
        let nf = sizes[lt - 1];
        MgState {
            a: p.operator_a(),
            c: p.smoother_c(class),
            p,
            lt,
            sizes,
            u,
            r,
            v: vec![0.0; nf * nf * nf],
            scratch: None,
        }
    }

    /// Problem parameters.
    pub fn params(&self) -> &MgParams {
        &self.p
    }

    /// Reset `u` to zero and regenerate the right-hand side.
    pub fn reset(&mut self) {
        for lev in 0..self.lt {
            self.u[lev].fill(0.0);
            self.r[lev].fill(0.0);
        }
        let nf = self.sizes[self.lt - 1];
        zran3(&mut self.v, nf, self.p.nx);
    }

    /// Make sure the per-rank stencil scratch matches `team`'s width
    /// (cheap no-op once sized; `run_guarded` triggers it before the
    /// timed section via the warm-up cycle).
    fn ensure_scratch(&mut self, team: Option<&Team>) {
        let ranks = team.map_or(1, Team::size);
        if self.scratch.as_ref().is_none_or(|s| s.ranks() != ranks) {
            self.scratch = Some(MgScratch::new(ranks, self.sizes[self.lt - 1]));
        }
    }

    /// `r(finest) = v - A u(finest)`.
    fn resid_finest<const SAFE: bool>(&mut self, team: Option<&Team>) {
        self.ensure_scratch(team);
        let lev = self.lt - 1;
        let n = self.sizes[lev];
        let scratch = self.scratch.as_ref().expect("ensured above");
        // SAFETY: distinct buffers; per-thread plane partitions inside.
        let su = unsafe { SharedMut::new(&mut self.u[lev]) };
        let sv = unsafe { SharedMut::new(&mut self.v) };
        let sr = unsafe { SharedMut::new(&mut self.r[lev]) };
        let _phase = trace::scope("resid");
        resid::<SAFE>(&su, Some(&sv), &sr, n, &self.a, scratch, team);
    }

    /// One V-cycle (`mg3P`).
    pub fn mg3p<const SAFE: bool>(&mut self, team: Option<&Team>) {
        self.ensure_scratch(team);
        let lt = self.lt;
        // Restrict the residual down the hierarchy.
        for lev in (1..lt).rev() {
            let (lo, hi) = self.r.split_at_mut(lev);
            // SAFETY: two different levels; `rprj3` reads the fine one and writes
            // only the coarse planes of each rank's own chunk.
            let sf = unsafe { SharedMut::new(&mut hi[0]) };
            let sc = unsafe { SharedMut::new(&mut lo[lev - 1]) };
            let scratch = self.scratch.as_ref().expect("ensured above");
            let _phase = trace::scope("rprj3");
            rprj3::<SAFE>(&sf, self.sizes[lev], &sc, self.sizes[lev - 1], scratch, team);
        }
        // Coarsest level: u = 0 then one smoothing step.
        {
            let n = self.sizes[0];
            // SAFETY: distinct buffers; `zero3` and `psinv` write only the `u`
            // planes of each rank's own chunk, and nothing writes `r`.
            let su = unsafe { SharedMut::new(&mut self.u[0]) };
            let sr = unsafe { SharedMut::new(&mut self.r[0]) };
            let scratch = self.scratch.as_ref().expect("ensured above");
            let _phase = trace::scope("psinv");
            zero3(&su, n, team);
            psinv::<SAFE>(&sr, &su, n, &self.c, scratch, team);
        }
        // Up the hierarchy: prolongate, re-residual, smooth.
        for lev in 1..lt - 1 {
            let n = self.sizes[lev];
            let nc = self.sizes[lev - 1];
            {
                let (lo, hi) = self.u.split_at_mut(lev);
                // SAFETY: two different levels; `interp` reads the coarse one and
                // writes only the fine planes of each rank's own chunk.
                let sc = unsafe { SharedMut::new(&mut lo[lev - 1]) };
                let sf = unsafe { SharedMut::new(&mut hi[0]) };
                let scratch = self.scratch.as_ref().expect("ensured above");
                let _phase = trace::scope("interp");
                zero3(&sf, n, team);
                interp::<SAFE>(&sc, nc, &sf, n, scratch, team);
            }
            {
                // SAFETY: distinct buffers; `resid` then `psinv` each write one of
                // them, only in the planes of each rank's own chunk.
                let su = unsafe { SharedMut::new(&mut self.u[lev]) };
                let sr = unsafe { SharedMut::new(&mut self.r[lev]) };
                let scratch = self.scratch.as_ref().expect("ensured above");
                {
                    let _phase = trace::scope("resid");
                    // In place: r = r - A u.
                    resid::<SAFE>(&su, None, &sr, n, &self.a, scratch, team);
                }
                let _phase = trace::scope("psinv");
                psinv::<SAFE>(&sr, &su, n, &self.c, scratch, team);
            }
        }
        // Finest level.
        {
            let lev = lt - 1;
            let n = self.sizes[lev];
            let nc = self.sizes[lev - 1];
            {
                let (lo, hi) = self.u.split_at_mut(lev);
                // SAFETY: two different levels; `interp` reads the coarse one and
                // writes only the fine planes of each rank's own chunk.
                let sc = unsafe { SharedMut::new(&mut lo[lev - 1]) };
                let sf = unsafe { SharedMut::new(&mut hi[0]) };
                let scratch = self.scratch.as_ref().expect("ensured above");
                let _phase = trace::scope("interp");
                interp::<SAFE>(&sc, nc, &sf, n, scratch, team);
            }
            self.resid_finest::<SAFE>(team);
            // SAFETY: distinct buffers; `psinv` reads `r` and writes only the `u`
            // planes of each rank's own chunk.
            let su = unsafe { SharedMut::new(&mut self.u[lev]) };
            let sr = unsafe { SharedMut::new(&mut self.r[lev]) };
            let scratch = self.scratch.as_ref().expect("ensured above");
            let _phase = trace::scope("psinv");
            psinv::<SAFE>(&sr, &su, n, &self.c, scratch, team);
        }
    }

    /// Norms of the finest-level residual.
    pub fn residual_norms<const SAFE: bool>(&mut self, team: Option<&Team>) -> (f64, f64) {
        let lev = self.lt - 1;
        let n = self.sizes[lev];
        // SAFETY: `norm2u3` only reads the grid.
        let sr = unsafe { SharedMut::new(&mut self.r[lev]) };
        norm2u3::<SAFE>(&sr, n, team)
    }

    /// Full benchmark under the in-computation SDC guard: one untimed
    /// warm-up cycle, reset, then the timed
    /// `resid + nit × (mg3P + resid) + norm` section of `mg.f`. The state
    /// a V-cycle carries into the next iteration is exactly the finest
    /// `u` and `r` grids: every coarse level is rebuilt from them (the
    /// downward restriction rewrites `r[lev<finest]`, `zero3`+`interp`
    /// rewrite `u[lev<finest]`) and `v` is constant after `reset` — so
    /// the finest pair is what the guard watches and restores.
    pub fn run_guarded<const SAFE: bool>(
        &mut self,
        team: Option<&Team>,
        gcfg: &GuardConfig,
    ) -> MgOutcome {
        self.reset();
        self.resid_finest::<SAFE>(team);
        self.mg3p::<SAFE>(team);
        self.resid_finest::<SAFE>(team);

        self.reset();
        // Timed section starts here: drop the warm-up cycle's spans so
        // the profile covers exactly what `secs` covers.
        trace::reset();
        let t0 = std::time::Instant::now();
        self.resid_finest::<SAFE>(team);
        let guard = guarded_loop(
            team,
            gcfg,
            self.p.nit,
            self,
            |s| {
                let fin = s.lt - 1;
                [&mut s.u[fin][..], &mut s.r[fin][..]]
            },
            |s, _| {
                s.mg3p::<SAFE>(team);
                s.resid_finest::<SAFE>(team);
                None
            },
        );
        let (rnm2, rnmu) = {
            let _phase = trace::scope("norm2");
            self.residual_norms::<SAFE>(team)
        };
        let secs = t0.elapsed().as_secs_f64();
        MgOutcome { rnm2, rnmu, secs, guard }
    }
}

/// Verify `rnm2` against the published reference (tolerance 1e-8).
pub fn verify(class: Class, rnm2: f64) -> Verified {
    npb_core::verify_all(&[rnm2], MgParams::for_class(class).verify_rnm2.map(|r| [r]), 1.0e-8)
}

/// Run the MG benchmark and produce the standard report (NPB's 58 flops
/// per point per cycle accounting).
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
    let mut st = MgState::new(class);
    let out = match style {
        Style::Opt => st.run_guarded::<false>(team, gcfg),
        Style::Safe => st.run_guarded::<true>(team, gcfg),
    };
    let p = *st.params();
    let nn = (p.nx * p.nx * p.nx) as f64;
    BenchReport::new(
        "MG",
        class,
        style,
        team.map_or(0, Team::size),
        (p.nx, p.nx, p.nx),
        p.nit,
        out.secs,
        58.0 * p.nit as f64 * nn * 1.0e-6 / out.secs.max(1e-12),
        verify(class, out.rnm2),
        npb_core::state_hash(&[&[out.rnm2]]),
        out.guard,
    )
}

/// Run and return the raw outcome (tests / harness).
pub fn run_raw(class: Class, style: Style, team: Option<&Team>) -> MgOutcome {
    let mut st = MgState::new(class);
    match style {
        Style::Opt => st.run_guarded::<false>(team, &GuardConfig::default()),
        Style::Safe => st.run_guarded::<true>(team, &GuardConfig::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_s_matches_published_reference() {
        let out = run_raw(Class::S, Style::Opt, None);
        assert_eq!(verify(Class::S, out.rnm2), Verified::Success, "rnm2 = {:.13e}", out.rnm2);
    }

    #[test]
    fn safe_style_also_verifies() {
        let out = run_raw(Class::S, Style::Safe, None);
        assert_eq!(verify(Class::S, out.rnm2), Verified::Success, "rnm2 = {:.13e}", out.rnm2);
    }

    #[test]
    fn parallel_matches_serial() {
        // The V-cycle itself has no cross-thread reduction, so the fields
        // are exactly reproduced; only the final norm's summation order
        // depends on the thread count (rank-ordered partials), so rnm2 is
        // compared to near machine precision rather than bitwise.
        let serial = run_raw(Class::S, Style::Opt, None);
        for n in [2usize, 4] {
            let team = Team::new(n);
            let par = run_raw(Class::S, Style::Opt, Some(&team));
            let rel = ((par.rnm2 - serial.rnm2) / serial.rnm2).abs();
            assert!(rel < 1e-12, "{n} threads: rel = {rel}");
            assert_eq!(verify(Class::S, par.rnm2), Verified::Success);
        }
    }

    #[test]
    fn cycles_reduce_the_residual() {
        let mut st = MgState::new(Class::S);
        st.reset();
        st.resid_finest::<false>(None);
        let (r0, _) = st.residual_norms::<false>(None);
        st.mg3p::<false>(None);
        st.resid_finest::<false>(None);
        let (r1, _) = st.residual_norms::<false>(None);
        // Class S converges at roughly 4-5x per cycle (0.027 -> 5.3e-5
        // over four cycles); require at least a 2x drop from one.
        assert!(r1 < r0 * 0.5, "one cycle: {r0} -> {r1}");
    }

    #[test]
    fn verify_rejects_wrong_norm() {
        assert_eq!(verify(Class::S, 1.0), Verified::Failure);
    }
}
