//! # npb-bt — the NPB "Block Tridiagonal" pseudo-application
//!
//! Solves the 3-D compressible Navier–Stokes system with an Alternating
//! Direction Implicit approximate factorization that decouples the x, y
//! and z dimensions; the resulting systems are block-tridiagonal with
//! 5×5 blocks and are solved sequentially along each dimension
//! ([`solve`]), after the shared explicit RHS of
//! [`npb_cfd_common::compute_rhs`].
//!
//! BT is the largest of the paper's three simulated CFD applications and
//! the headline entry of Tables 2–6.

pub mod blocks;
mod params;
pub mod solve;

pub use params::{reference, BtParams};

use npb_cfd_common::{
    add, compute_rhs, error_norm, exact_rhs, initialize, rhs_norm, verify_norms, Consts, Fields,
};
use npb_core::{trace, BenchReport, Class, GuardConfig, GuardStats, Style, Verified};
use npb_runtime::{guarded_loop, Team};

/// BT benchmark instance.
pub struct BtState {
    /// Problem parameters.
    pub p: BtParams,
    /// Discretization constants.
    pub consts: Consts,
    /// Field storage.
    pub fields: Fields,
}

/// Outcome of a full BT run.
#[derive(Debug, Clone, Copy)]
pub struct BtOutcome {
    /// Residual norms divided by dt (`xcr`).
    pub xcr: [f64; 5],
    /// Error norms (`xce`).
    pub xce: [f64; 5],
    /// Seconds in the timed section.
    pub secs: f64,
    /// What the SDC guard did (recoveries, checkpoints, overhead).
    pub guard: GuardStats,
}

impl BtState {
    /// Set up the problem for `class`.
    pub fn new(class: Class) -> BtState {
        let p = BtParams::for_class(class);
        BtState { p, consts: Consts::new(p.n, p.n, p.n, p.dt), fields: Fields::new(p.n, p.n, p.n) }
    }

    /// One ADI time step.
    pub fn adi<const SAFE: bool>(&mut self, team: Option<&Team>) {
        {
            let _phase = trace::scope("rhs");
            compute_rhs::<SAFE, false>(&mut self.fields, &self.consts, team);
        }
        {
            let _phase = trace::scope("x_solve");
            solve::x_solve::<SAFE>(&mut self.fields, &self.consts, team);
        }
        {
            let _phase = trace::scope("y_solve");
            solve::y_solve::<SAFE>(&mut self.fields, &self.consts, team);
        }
        {
            let _phase = trace::scope("z_solve");
            solve::z_solve::<SAFE>(&mut self.fields, &self.consts, team);
        }
        let _phase = trace::scope("add");
        add::<SAFE>(&mut self.fields, team);
    }

    /// Full benchmark under the in-computation SDC guard: initialize, one
    /// untimed warm-up step, re-initialize, `niter` timed steps,
    /// verification norms. Each ADI step recomputes `rhs` and every
    /// auxiliary field from the solution `u`, so `u` is the complete
    /// inter-iteration state the guard watches and restores.
    pub fn run_guarded<const SAFE: bool>(
        &mut self,
        team: Option<&Team>,
        gcfg: &GuardConfig,
    ) -> BtOutcome {
        initialize(&mut self.fields, &self.consts);
        exact_rhs(&mut self.fields, &self.consts);
        self.adi::<SAFE>(team);
        initialize(&mut self.fields, &self.consts);

        // Timed section starts here: drop the warm-up step's spans so
        // the profile covers exactly what `secs` covers.
        trace::reset();
        let t0 = std::time::Instant::now();
        let guard = guarded_loop(
            team,
            gcfg,
            self.p.niter,
            self,
            |s| [&mut s.fields.u[..]],
            |s, _| {
                s.adi::<SAFE>(team);
                None
            },
        );
        let secs = t0.elapsed().as_secs_f64();

        let xce = error_norm(&self.fields, &self.consts);
        compute_rhs::<SAFE, false>(&mut self.fields, &self.consts, team);
        let mut xcr = rhs_norm(&self.fields);
        for m in 0..5 {
            xcr[m] /= self.consts.dt;
        }
        BtOutcome { xcr, xce, secs, guard }
    }
}

/// Verify against the published class references.
pub fn verify(class: Class, out: &BtOutcome) -> Verified {
    let set = reference(class);
    verify_norms(set.as_ref(), BtParams::for_class(class).dt, &out.xcr, &out.xce)
}

/// Run the BT benchmark and produce the standard report.
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
    let mut st = BtState::new(class);
    let out = match style {
        Style::Opt => st.run_guarded::<false>(team, gcfg),
        Style::Safe => st.run_guarded::<true>(team, gcfg),
    };
    BenchReport::new(
        "BT",
        class,
        style,
        team.map_or(0, Team::size),
        (st.p.n, st.p.n, st.p.n),
        st.p.niter,
        out.secs,
        st.p.mops(out.secs),
        verify(class, &out),
        npb_core::state_hash(&[&out.xcr, &out.xce]),
        out.guard,
    )
}

/// Run and return the raw norms (tests / harness).
pub fn run_raw(class: Class, style: Style, team: Option<&Team>) -> BtOutcome {
    let mut st = BtState::new(class);
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
            "xcr = {:?}\nxce = {:?}",
            out.xcr,
            out.xce
        );
    }

    #[test]
    fn safe_style_matches_opt_bitwise() {
        let a = run_raw(Class::S, Style::Opt, None);
        let b = run_raw(Class::S, Style::Safe, None);
        assert_eq!(a.xcr, b.xcr);
        assert_eq!(a.xce, b.xce);
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let serial = run_raw(Class::S, Style::Opt, None);
        for n in [2usize, 4] {
            let team = Team::new(n);
            let par = run_raw(Class::S, Style::Opt, Some(&team));
            assert_eq!(par.xcr, serial.xcr, "{n} threads");
            assert_eq!(par.xce, serial.xce, "{n} threads");
        }
    }

    #[test]
    fn solution_error_decreases_from_initial_state() {
        let mut st = BtState::new(Class::S);
        initialize(&mut st.fields, &st.consts);
        exact_rhs(&mut st.fields, &st.consts);
        let e0 = error_norm(&st.fields, &st.consts);
        for _ in 0..10 {
            st.adi::<false>(None);
        }
        let e1 = error_norm(&st.fields, &st.consts);
        for m in 0..5 {
            assert!(e1[m] < e0[m], "component {m}: {} -> {}", e0[m], e1[m]);
        }
    }
}
