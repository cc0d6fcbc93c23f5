//! Integration: numerical results are independent of the team size.
//!
//! The structured-grid benchmarks have no cross-thread reductions in
//! their timed loops, so their verification quantities reproduce
//! bitwise at any thread count; the reduction-carrying kernels (CG, EP,
//! MG's final norm) stay within the NPB verification tolerance.
//!
//! Every team here runs at both ends of the spin-then-park runtime:
//! the tuned spin budget and the pure park path, the paper's
//! wait/notify model.

use npb::{trace, Class, Sched, Style, Team, TraceFormat, TraceSession};

/// The spin budgets every team-size test runs under: the default, and
/// `0` (waiters park at once).
const SPINS: [u64; 2] = [npb_runtime::DEFAULT_SPIN_US, 0];

fn team(n: usize, spin_us: u64) -> Team {
    let team = Team::new(n);
    team.set_spin_us(spin_us);
    team
}

#[test]
fn bt_norms_bitwise_across_team_sizes() {
    let base = npb_bt::run_raw(Class::S, Style::Opt, None);
    for spin in SPINS {
        for n in [1usize, 3] {
            let r = npb_bt::run_raw(Class::S, Style::Opt, Some(&team(n, spin)));
            assert_eq!(r.xcr, base.xcr, "{n} threads, spin {spin}");
            assert_eq!(r.xce, base.xce, "{n} threads, spin {spin}");
        }
    }
}

#[test]
fn lu_pipelined_wavefront_bitwise_across_team_sizes() {
    let base = npb_lu::run_raw(Class::S, Style::Opt, None);
    for spin in SPINS {
        let r = npb_lu::run_raw(Class::S, Style::Opt, Some(&team(3, spin)));
        assert_eq!(r.xcr, base.xcr, "spin {spin}");
        assert_eq!(r.xci, base.xci, "spin {spin}");
    }
}

#[test]
fn ft_checksums_bitwise_across_team_sizes() {
    let base = npb_ft::run_raw(Class::S, Style::Opt, None);
    for spin in SPINS {
        let r = npb_ft::run_raw(Class::S, Style::Opt, Some(&team(4, spin)));
        assert_eq!(r.sums, base.sums, "spin {spin}");
    }
}

#[test]
fn cg_zeta_within_tolerance_across_team_sizes() {
    let base = npb_cg::run_raw(Class::S, Style::Opt, None);
    for spin in SPINS {
        for n in [2usize, 5] {
            let r = npb_cg::run_raw(Class::S, Style::Opt, Some(&team(n, spin)));
            let rel = ((r.zeta - base.zeta) / base.zeta).abs();
            assert!(rel < 1e-12, "{n} threads, spin {spin}: rel = {rel}");
        }
    }
}

/// Every benchmark at class S, serial vs teams of 1 / 2 / 4 threads.
///
/// The structured-grid codes (BT, SP, LU, FT) and the sort (IS) have no
/// order-sensitive cross-thread reductions, so their verification values
/// must reproduce **bitwise** at every team size. CG's dot products are
/// reduced in rank order over identically-partitioned rows and come out
/// bitwise-equal at class S too (checked empirically; asserted so a
/// future change that breaks it is noticed). EP's Gaussian sums and MG's
/// final residual norm genuinely depend on summation order, so they get
/// the NPB verification tolerance instead, with the exactly-countable
/// parts (EP's annulus counts) still asserted bitwise.
#[test]
fn every_benchmark_reproduces_across_serial_and_1_2_4_threads() {
    let c = Class::S;
    let s = Style::Opt;
    let bt0 = npb_bt::run_raw(c, s, None);
    let sp0 = npb_sp::run_raw(c, s, None);
    let lu0 = npb_lu::run_raw(c, s, None);
    let ft0 = npb_ft::run_raw(c, s, None);
    let cg0 = npb_cg::run_raw(c, s, None);
    let mg0 = npb_mg::run_raw(c, s, None);
    let ep0 = npb_ep::run_raw(c, s, None);
    assert!(npb_is::run(c, s, None).verified.is_success());

    for spin in SPINS {
        for n in [1usize, 2, 4] {
            let team = team(n, spin);
            let t = Some(&team);

            let bt = npb_bt::run_raw(c, s, t);
            assert_eq!((bt.xcr, bt.xce), (bt0.xcr, bt0.xce), "BT t{n} spin {spin}");
            let sp = npb_sp::run_raw(c, s, t);
            assert_eq!((sp.xcr, sp.xce), (sp0.xcr, sp0.xce), "SP t{n} spin {spin}");
            let lu = npb_lu::run_raw(c, s, t);
            assert_eq!(
                (lu.xcr, lu.xce, lu.xci),
                (lu0.xcr, lu0.xce, lu0.xci),
                "LU t{n} spin {spin}"
            );
            let ft = npb_ft::run_raw(c, s, t);
            assert_eq!(ft.sums, ft0.sums, "FT t{n} spin {spin}");
            let cg = npb_cg::run_raw(c, s, t);
            assert_eq!(cg.zeta, cg0.zeta, "CG t{n} spin {spin}");

            // IS verifies exactly (integer ranks + partial checks).
            assert!(npb_is::run(c, s, t).verified.is_success(), "IS t{n} spin {spin}");

            // Order-sensitive reductions: NPB tolerance, not bitwise.
            let mg = npb_mg::run_raw(c, s, t);
            let rel = ((mg.rnm2 - mg0.rnm2) / mg0.rnm2).abs();
            assert!(rel < 1e-12, "MG t{n} spin {spin}: rel = {rel}");
            let ep = npb_ep::run_raw(c, s, t);
            assert_eq!(ep.q, ep0.q, "EP t{n} spin {spin}: annulus counts are exact integers");
            assert!(((ep.sx - ep0.sx) / ep0.sx).abs() < 1e-12, "EP t{n} spin {spin} sx");
            assert!(((ep.sy - ep0.sy) / ep0.sy).abs() < 1e-12, "EP t{n} spin {spin} sy");
        }
    }
}

/// Spin-vs-park equivalence: the synchronization mode must never change
/// a numerical result.
///
/// The hybrid runtime's two extremes — the pure park path
/// (`spin_us = 0`, the paper's wait/notify model) and an effectively
/// always-spin budget — schedule the same rank-ordered work over the
/// same cached partitions, so every benchmark must produce **bitwise**
/// identical verification quantities under both, at every team size.
/// Unlike the serial-vs-team comparison above, this holds even for the
/// order-sensitive reductions (EP, MG): at a fixed thread count the
/// reduction order is fixed, whatever the waiters do while they wait.
#[test]
fn spin_and_park_paths_are_bit_identical_for_every_benchmark() {
    let c = Class::S;
    let s = Style::Opt;
    // Large enough that no waiter ever parks at class S region lengths.
    const ALWAYS_SPIN_US: u64 = 200_000;
    for n in [1usize, 2, 4] {
        let run = |spin_us: u64| {
            let team = team(n, spin_us);
            let t = Some(&team);
            let bt = npb_bt::run_raw(c, s, t);
            let sp = npb_sp::run_raw(c, s, t);
            let lu = npb_lu::run_raw(c, s, t);
            let ft = npb_ft::run_raw(c, s, t);
            let cg = npb_cg::run_raw(c, s, t);
            let mg = npb_mg::run_raw(c, s, t);
            let ep = npb_ep::run_raw(c, s, t);
            let is_ok = npb_is::run(c, s, t).verified.is_success();
            (
                (bt.xcr, bt.xce),
                (sp.xcr, sp.xce),
                (lu.xcr, lu.xce, lu.xci),
                ft.sums,
                cg.zeta,
                mg.rnm2,
                (ep.sx, ep.sy, ep.q),
                is_ok,
            )
        };
        let park = run(0);
        let spin = run(ALWAYS_SPIN_US);
        assert_eq!(park.0, spin.0, "BT t{n}");
        assert_eq!(park.1, spin.1, "SP t{n}");
        assert_eq!(park.2, spin.2, "LU t{n}");
        assert_eq!(park.3, spin.3, "FT t{n}");
        assert_eq!(park.4, spin.4, "CG t{n}");
        assert_eq!(park.5, spin.5, "MG t{n}");
        assert_eq!(park.6, spin.6, "EP t{n}");
        assert!(park.7 && spin.7, "IS t{n}: both modes must verify");
    }
}

/// Observability must be observation only: running every benchmark with
/// the `npb-trace` span recorder off, on, and on-with-folded-export must
/// produce bit-identical verification values at every team size — and
/// leave the NPB random-number stream in exactly the same position (the
/// recorder must never draw from or reseed the generator).
#[test]
fn tracing_off_on_and_folded_are_bit_identical_for_every_benchmark() {
    let c = Class::S;
    let s = Style::Opt;
    for (n, spin) in [0usize, 1, 2, 4].into_iter().flat_map(|n| SPINS.map(|spin| (n, spin))) {
        if n == 0 && spin != SPINS[0] {
            continue; // no team, nothing waits
        }
        // Runs the whole suite, interleaving an explicit randlc stream
        // so a recorder that touched the generator would shift the
        // final seed. Returns every verification quantity + that seed.
        let run_all = |traced: Option<TraceFormat>| {
            let team = (n > 0).then(|| team(n, spin));
            let t = team.as_ref();
            let session = traced.map(|_| {
                let session = TraceSession::new(n.max(1));
                trace::install(session.clone());
                if let Some(team) = t {
                    team.set_trace(Some(session.clone()));
                }
                session
            });
            let mut seed = npb_core::SEED_DEFAULT;
            let a = 1_220_703_125.0;
            let bt = npb_bt::run_raw(c, s, t);
            npb_core::randlc(&mut seed, a);
            let sp = npb_sp::run_raw(c, s, t);
            let lu = npb_lu::run_raw(c, s, t);
            npb_core::randlc(&mut seed, a);
            let ft = npb_ft::run_raw(c, s, t);
            let cg = npb_cg::run_raw(c, s, t);
            let mg = npb_mg::run_raw(c, s, t);
            let ep = npb_ep::run_raw(c, s, t);
            let is_ok = npb_is::run(c, s, t).verified.is_success();
            npb_core::randlc(&mut seed, a);
            if let Some(session) = session {
                // Exercise the export path too: rendering must also
                // leave the numerics (trivially) and the stream alone.
                match traced {
                    Some(TraceFormat::Folded) => drop(session.render_folded()),
                    _ => drop(session.render_json_profile(false)),
                }
                if let Some(team) = t {
                    team.set_trace(None);
                }
                trace::uninstall();
            }
            (
                (bt.xcr, bt.xce),
                (sp.xcr, sp.xce),
                (lu.xcr, lu.xce, lu.xci),
                ft.sums,
                cg.zeta,
                mg.rnm2,
                (ep.sx, ep.sy, ep.q),
                is_ok,
                seed.to_bits(),
            )
        };
        let off = run_all(None);
        let json = run_all(Some(TraceFormat::Json));
        let folded = run_all(Some(TraceFormat::Folded));
        assert_eq!(off, json, "tracing on (json) perturbed a result at t{n}, spin {spin}");
        assert_eq!(off, folded, "tracing on (folded) perturbed a result at t{n}, spin {spin}");
    }
}

#[test]
fn one_team_can_serve_many_benchmarks_in_sequence() {
    // The persistent master-worker team survives across whole benchmark
    // runs, as the paper's long-lived Java threads do.
    for spin in SPINS {
        let team = team(2, spin);
        let a = npb_mg::run(Class::S, Style::Opt, Some(&team));
        let b = npb_is::run(Class::S, Style::Opt, Some(&team));
        let c = npb_cg::run(Class::S, Style::Safe, Some(&team));
        assert!(
            a.verified.is_success() && b.verified.is_success() && c.verified.is_success(),
            "spin {spin}"
        );
    }
}

/// Scheduling-policy equivalence: static, guided and feedback must be
/// **bitwise** interchangeable on every benchmark.
///
/// The schedulable loops are all elementwise/disjoint-write (each index
/// computes from pre-region state and writes only its own cells, in a
/// fixed per-cell operation order), so which rank executes a chunk can
/// never change a bit. The FP reductions stay pinned to the static
/// partition by construction (`Par::range` + rank-ordered `Partials`),
/// and LU's wavefront accepts any *contiguous ordered* split
/// (`ordered_split`), which is exactly what feedback produces and
/// guided degrades to. Every benchmark therefore reports the same
/// `result_sig` under all three policies at every team size.
#[test]
fn sched_policies_are_bit_identical_for_every_benchmark() {
    let c = Class::S;
    let s = Style::Opt;
    for (n, spin) in [1usize, 2, 4].into_iter().flat_map(|n| SPINS.map(|spin| (n, spin))) {
        let run = |policy: Sched| {
            let team = team(n, spin);
            team.set_sched(policy);
            let t = Some(&team);
            let bt = npb_bt::run(c, s, t);
            let sp = npb_sp::run(c, s, t);
            let lu = npb_lu::run(c, s, t);
            let ft = npb_ft::run(c, s, t);
            let cg = npb_cg::run(c, s, t);
            let mg = npb_mg::run(c, s, t);
            let ep = npb_ep::run(c, s, t);
            let is = npb_is::run(c, s, t);
            let reports = [&bt, &sp, &lu, &ft, &cg, &mg, &ep, &is];
            assert!(
                reports.iter().all(|r| r.verified.is_success()),
                "{policy:?} t{n} spin {spin}: every benchmark must verify"
            );
            reports.map(|r| r.result_sig.expect("every benchmark reports a result_sig"))
        };
        let stat = run(Sched::Static);
        let guided = run(Sched::Guided);
        let feedback = run(Sched::Feedback);
        assert_eq!(stat, guided, "guided diverged from static at t{n}, spin {spin}");
        assert_eq!(stat, feedback, "feedback diverged from static at t{n}, spin {spin}");
    }
}
