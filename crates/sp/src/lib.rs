//! # npb-sp — the NPB "Scalar Pentadiagonal" pseudo-application
//!
//! Solves the 3-D compressible Navier–Stokes system with the
//! Beam–Warming approximate factorization: the implicit operator is
//! diagonalized per direction, so each ADI sweep reduces to independent
//! *scalar pentadiagonal* line solves (three operators: the convective
//! eigenvalue and the two acoustic eigenvalues), bracketed by the
//! block-diagonal eigenvector transforms `txinvr`, `ninvr`, `pinvr` and
//! `tzetar`.
//!
//! One of the paper's three "simulated CFD applications"; the x/y sweeps
//! parallelize over the outermost grid plane and the z sweep over the
//! middle one, exactly like the OpenMP prototype the Java port copied.
//! The transforms are pointwise and live inside the sweeps ([`solve`]):
//! `txinvr` is applied as the x sweep gathers a point, the other three
//! as the x, y and z sweeps store one. A step is therefore five parallel
//! regions — `compute_rhs`, x, y, z, `add` — where `sp.f` has nine loop
//! nests, and `txinvr` is timed under `x_solve`, not `rhs`.

mod inv;
#[cfg(test)]
mod oracle;
mod params;
pub mod solve;

pub use params::{reference, SpParams};

use npb_cfd_common::{
    add, compute_rhs, error_norm, exact_rhs, initialize, rhs_norm, verify_norms, Consts, Fields,
};
use npb_core::{
    trace, BenchReport, Class, GuardAction, GuardConfig, GuardStats, SdcGuard, Style, Verified,
};
use npb_runtime::{escalate_corruption, Team};

/// SP benchmark instance.
pub struct SpState {
    /// Problem parameters.
    pub p: SpParams,
    /// Discretization constants.
    pub consts: Consts,
    /// Field storage.
    pub fields: Fields,
}

/// Outcome of a full SP run.
#[derive(Debug, Clone, Copy)]
pub struct SpOutcome {
    /// Residual norms divided by dt (`xcr`).
    pub xcr: [f64; 5],
    /// Error norms (`xce`).
    pub xce: [f64; 5],
    /// Seconds in the timed section.
    pub secs: f64,
    /// What the SDC guard did (recoveries, checkpoints, overhead).
    pub guard: GuardStats,
}

impl SpState {
    /// Set up the problem for `class`.
    pub fn new(class: Class) -> SpState {
        let p = SpParams::for_class(class);
        let consts = Consts::new(p.n, p.n, p.n, p.dt);
        let fields = Fields::new(p.n, p.n, p.n);
        SpState { p, consts, fields }
    }

    /// One ADI time step: five regions. Each sweep scope includes the
    /// transforms fused into it, so `txinvr` is timed under `x_solve`.
    pub fn adi<const SAFE: bool>(&mut self, team: Option<&Team>) {
        {
            let _phase = trace::scope("rhs");
            compute_rhs::<SAFE, true>(&mut self.fields, &self.consts, team);
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

    /// Full benchmark: initialize, one untimed warm-up step,
    /// re-initialize, `niter` timed steps, verification norms.
    pub fn run<const SAFE: bool>(&mut self, team: Option<&Team>) -> SpOutcome {
        self.run_guarded::<SAFE>(team, &GuardConfig::default())
    }

    /// [`SpState::run`] under the in-computation SDC guard. Each ADI
    /// step recomputes `rhs` and every auxiliary field from the solution
    /// `u`, so `u` is the complete inter-iteration state the guard
    /// watches and restores.
    pub fn run_guarded<const SAFE: bool>(
        &mut self,
        team: Option<&Team>,
        gcfg: &GuardConfig,
    ) -> SpOutcome {
        initialize(&mut self.fields, &self.consts);
        exact_rhs(&mut self.fields, &self.consts);
        self.adi::<SAFE>(team);
        initialize(&mut self.fields, &self.consts);

        // Timed section starts here: drop the warm-up step's spans so
        // the profile covers exactly what `secs` covers.
        trace::reset();
        let t0 = std::time::Instant::now();
        let mut guard = SdcGuard::new(gcfg, self.p.niter);
        guard.init(&[&self.fields.u[..]]);
        let mut it = 0;
        while it < self.p.niter {
            match guard.begin(it, &mut [&mut self.fields.u[..]]) {
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
            self.adi::<SAFE>(team);
            guard.end(it, &[&self.fields.u[..]], None);
            it += 1;
        }
        let secs = t0.elapsed().as_secs_f64();

        let xce = error_norm(&self.fields, &self.consts);
        compute_rhs::<SAFE, true>(&mut self.fields, &self.consts, team);
        let mut xcr = rhs_norm(&self.fields);
        for m in 0..5 {
            xcr[m] /= self.consts.dt;
        }
        SpOutcome { xcr, xce, secs, guard: guard.stats() }
    }
}

/// Verify against the published class references.
pub fn verify(class: Class, out: &SpOutcome) -> Verified {
    let set = reference(class);
    verify_norms(set.as_ref(), SpParams::for_class(class).dt, &out.xcr, &out.xce)
}

/// Run the SP benchmark and produce the standard report.
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
    let mut st = SpState::new(class);
    let out = match style {
        Style::Opt => st.run_guarded::<false>(team, gcfg),
        Style::Safe => st.run_guarded::<true>(team, gcfg),
    };
    BenchReport {
        name: "SP",
        class,
        size: (st.p.n, st.p.n, st.p.n),
        niter: st.p.niter,
        time_secs: out.secs,
        mops: st.p.mops(out.secs),
        threads: team.map_or(0, Team::size),
        style,
        verified: verify(class, &out),
        recoveries: out.guard.recoveries,
        checkpoint_count: out.guard.checkpoint_count,
        checkpoint_overhead_s: out.guard.checkpoint_overhead_s,
        regions: Vec::new(),
        result_sig: Some(npb_core::state_hash(&[&out.xcr, &out.xce])),
        rank_dispositions: Vec::new(),
    }
}

/// Run and return the raw norms (tests / harness).
pub fn run_raw(class: Class, style: Style, team: Option<&Team>) -> SpOutcome {
    let mut st = SpState::new(class);
    match style {
        Style::Opt => st.run::<false>(team),
        Style::Safe => st.run::<true>(team),
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
        // SP has no cross-thread reductions in the timed loop, so the
        // fields are bit-identical for any team size.
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
        let mut st = SpState::new(Class::S);
        initialize(&mut st.fields, &st.consts);
        exact_rhs(&mut st.fields, &st.consts);
        let e0 = error_norm(&st.fields, &st.consts);
        for _ in 0..20 {
            st.adi::<false>(None);
        }
        let e1 = error_norm(&st.fields, &st.consts);
        for m in 0..5 {
            assert!(e1[m] < e0[m], "component {m}: {} -> {}", e0[m], e1[m]);
        }
    }
}
