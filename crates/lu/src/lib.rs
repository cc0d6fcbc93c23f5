//! # npb-lu — the NPB "Lower-Upper symmetric Gauss-Seidel" application
//!
//! Solves the discrete 3-D Navier–Stokes system with symmetric
//! successive over-relaxation (SSOR): each iteration scales the
//! steady-state residual by `dt`, sweeps a block *lower* triangular
//! solve up the grid planes and a block *upper* triangular solve back
//! down ([`sweep`]), and relaxes the solution.
//!
//! Unlike BT/SP, the triangular solves carry a point-to-point wavefront
//! dependency; the parallelization pipelines grid planes across threads
//! with per-plane flag synchronization — the "synchronization inside a
//! loop over one grid dimension" the paper blames for LU's lower
//! scalability (§5.2).

mod norms;
mod params;
pub mod rhs;
pub mod sweep;

pub use norms::{error, l2norm, pintgr};
pub use params::{reference, LuParams, LuRefs, OMEGA};
pub use rhs::LuFields;

use npb_cfd_common::{idx5, Consts};
use npb_core::{ld, st, trace, BenchReport, Class, GuardConfig, GuardStats, Style, Verified};
use npb_runtime::{guarded_loop, run_par, SharedMut, Team};

/// LU benchmark instance.
pub struct LuState {
    /// Problem parameters.
    pub p: LuParams,
    /// Discretization constants.
    pub consts: Consts,
    /// Field storage.
    pub fields: LuFields,
}

/// Outcome of a full LU run.
#[derive(Debug, Clone, Copy)]
pub struct LuOutcome {
    /// Final residual norms (`xcr`).
    pub xcr: [f64; 5],
    /// Solution error norms (`xce`).
    pub xce: [f64; 5],
    /// Surface integral (`xci`).
    pub xci: f64,
    /// Seconds in the timed section.
    pub secs: f64,
    /// What the SDC guard did (recoveries, checkpoints, overhead).
    pub guard: GuardStats,
}

impl LuState {
    /// Set up the problem for `class`.
    pub fn new(class: Class) -> LuState {
        let p = LuParams::for_class(class);
        LuState { p, consts: Consts::new(p.n, p.n, p.n, p.dt), fields: LuFields::new(p.n) }
    }

    /// Reset boundary/initial values and the forcing.
    pub fn reset(&mut self, team: Option<&Team>) {
        rhs::setbv(&mut self.fields, &self.consts);
        rhs::setiv(&mut self.fields, &self.consts);
        rhs::erhs(&mut self.fields, &self.consts, team);
    }

    /// One SSOR iteration (assumes `fields.rsd` holds the current
    /// steady-state residual; leaves the refreshed residual in place).
    pub fn ssor_step<const SAFE: bool>(&mut self, team: Option<&Team>) {
        let n = self.p.n;
        let dt = self.p.dt;
        // rsd *= dt over the interior.
        {
            let _phase = trace::scope("scale");
            // SAFETY: each rank scales only the points of its own
            // k-planes, and no rank reads `rsd` elsewhere in the region.
            let rsd = unsafe { SharedMut::new(&mut self.fields.rsd) };
            run_par(team, |par| {
                par.for_chunks_in(1, n - 1, |ks| {
                    for (j, k) in ks.flat_map(|k| (1..n - 1).map(move |j| (j, k))) {
                        // SAFETY: the interior of row `(j, k)`, in a plane of
                        // this rank's chunk; the only view of it.
                        let row = unsafe { rsd.row_mut(idx5(n, n, 0, 1, j, k), 5 * (n - 2)) };
                        for x in 0..row.len() {
                            st::<_, SAFE>(row, x, dt * ld::<_, SAFE>(row, x));
                        }
                    }
                });
            });
        }
        {
            // The lower/upper triangular sweeps — `blts`/`buts` in
            // `lu.f`'s phase naming.
            let _phase = trace::scope("blts");
            sweep::lower_sweep::<SAFE>(&mut self.fields, &self.consts, dt, team);
        }
        {
            let _phase = trace::scope("buts");
            sweep::upper_sweep::<SAFE>(&mut self.fields, &self.consts, dt, team);
        }
        // u += rsd / (omega (2 - omega)).
        {
            let _phase = trace::scope("add");
            let tmp = 1.0 / (OMEGA * (2.0 - OMEGA));
            let rsd: &[f64] = &self.fields.rsd;
            // SAFETY: each rank updates only the points of its own
            // k-planes, and `u` is read by no rank in the region.
            let u = unsafe { SharedMut::new(&mut self.fields.u) };
            run_par(team, |par| {
                par.for_chunks_in(1, n - 1, |ks| {
                    for (j, k) in ks.flat_map(|k| (1..n - 1).map(move |j| (j, k))) {
                        let (at, len) = (idx5(n, n, 0, 1, j, k), 5 * (n - 2));
                        // SAFETY: the interior of row `(j, k)`, in a plane of
                        // this rank's chunk; the only view of it.
                        let row = unsafe { u.row_mut(at, len) };
                        let r = &rsd[at..][..len];
                        for x in 0..len {
                            st::<_, SAFE>(
                                row,
                                x,
                                ld::<_, SAFE>(row, x) + tmp * ld::<_, SAFE>(r, x),
                            );
                        }
                    }
                });
            });
        }
        let _phase = trace::scope("rhs");
        rhs::rhs::<SAFE>(&mut self.fields, &self.consts, team);
    }

    /// Full benchmark under the in-computation SDC guard: one untimed
    /// warm-up iteration, re-init, `niter` timed SSOR iterations,
    /// verification quantities. An SSOR iteration consumes both the
    /// solution `u` and the residual `rsd` left by the previous step
    /// (`frct` is constant after `reset`), so the guard watches and
    /// restores that pair.
    pub fn run_guarded<const SAFE: bool>(
        &mut self,
        team: Option<&Team>,
        gcfg: &GuardConfig,
    ) -> LuOutcome {
        self.reset(team);
        rhs::rhs::<SAFE>(&mut self.fields, &self.consts, team);
        self.ssor_step::<SAFE>(team);

        self.reset(team);
        rhs::rhs::<SAFE>(&mut self.fields, &self.consts, team);
        // Timed section starts here: drop the warm-up iteration's spans
        // so the profile covers exactly what `secs` covers.
        trace::reset();
        let t0 = std::time::Instant::now();
        let guard = guarded_loop(
            team,
            gcfg,
            self.p.niter,
            self,
            |s| [&mut s.fields.u[..], &mut s.fields.rsd[..]],
            |s, _| {
                s.ssor_step::<SAFE>(team);
                None
            },
        );
        let xcr = l2norm(self.p.n, &self.fields.rsd);
        let secs = t0.elapsed().as_secs_f64();

        let xce = error(&self.fields, &self.consts);
        let xci = pintgr(&self.fields, &self.consts);
        LuOutcome { xcr, xce, xci, secs, guard }
    }
}

/// Verify against the published class references (tolerance 1e-8).
pub fn verify(class: Class, out: &LuOutcome) -> Verified {
    let Some(r) = reference(class) else {
        return Verified::NotPerformed;
    };
    let eps = 1.0e-8;
    if (LuParams::for_class(class).dt - r.dt).abs() > eps {
        return Verified::NotPerformed;
    }
    let flat = |xcr: &[f64], xce: &[f64], xci: f64| [xcr, xce, &[xci]].concat();
    npb_core::verify_all(&flat(&out.xcr, &out.xce, out.xci), Some(flat(&r.xcr, &r.xce, r.xci)), eps)
}

/// Run the LU benchmark and produce the standard report.
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
    let mut st = LuState::new(class);
    let out = match style {
        Style::Opt => st.run_guarded::<false>(team, gcfg),
        Style::Safe => st.run_guarded::<true>(team, gcfg),
    };
    BenchReport::new(
        "LU",
        class,
        style,
        team.map_or(0, Team::size),
        (st.p.n, st.p.n, st.p.n),
        st.p.niter,
        out.secs,
        st.p.mops(out.secs),
        verify(class, &out),
        npb_core::state_hash(&[&out.xcr, &out.xce, &[out.xci]]),
        out.guard,
    )
}

/// Run and return the raw norms (tests / harness).
pub fn run_raw(class: Class, style: Style, team: Option<&Team>) -> LuOutcome {
    let mut st = LuState::new(class);
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
        assert_eq!(
            verify(Class::S, &out),
            Verified::Success,
            "xcr = {:?}\nxce = {:?}\nxci = {:.16e}",
            out.xcr,
            out.xce,
            out.xci
        );
    }

    #[test]
    fn safe_style_matches_opt_bitwise() {
        let a = run_raw(Class::S, Style::Opt, None);
        let b = run_raw(Class::S, Style::Safe, None);
        assert_eq!(a.xcr, b.xcr);
        assert_eq!(a.xce, b.xce);
        assert_eq!(a.xci, b.xci);
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        // The pipelined wavefront preserves the serial dependence order,
        // so any team size reproduces the serial bits.
        let serial = run_raw(Class::S, Style::Opt, None);
        for n in [2usize, 3] {
            let team = Team::new(n);
            let par = run_raw(Class::S, Style::Opt, Some(&team));
            assert_eq!(par.xcr, serial.xcr, "{n} threads");
            assert_eq!(par.xce, serial.xce, "{n} threads");
            assert_eq!(par.xci, serial.xci, "{n} threads");
        }
    }

    #[test]
    fn verify_rejects_perturbed_norms() {
        let out = run_raw(Class::S, Style::Opt, None);
        let mut bad = out;
        bad.xci *= 1.0 + 1e-6;
        assert_eq!(verify(Class::S, &bad), Verified::Failure);
    }
}
