//! Integration: every benchmark of the suite verifies through the
//! facade, in both execution styles, serially and on a worker team —
//! the full matrix a Table 2–4 harness run exercises.

use npb::{run_benchmark, Class, Style, Verified};

#[test]
fn all_benchmarks_verify_serial_opt() {
    for name in npb::BENCHMARKS {
        let r = run_benchmark(name, Class::S, Style::Opt, 0).unwrap();
        assert_eq!(r.verified, Verified::Success, "{name} serial opt");
        assert!(r.time_secs > 0.0 && r.mops > 0.0, "{name} timing");
    }
}

#[test]
fn all_benchmarks_verify_on_a_team_safe_style() {
    for name in npb::BENCHMARKS {
        let r = run_benchmark(name, Class::S, Style::Safe, 2).unwrap();
        assert_eq!(r.verified, Verified::Success, "{name} 2-thread safe");
        assert_eq!(r.threads, 2);
    }
}

#[test]
fn report_rows_are_well_formed() {
    let r = run_benchmark("MG", Class::S, Style::Opt, 3).unwrap();
    let row = r.row();
    assert!(row.starts_with("MG,S,opt,3,"), "{row}");
    assert!(row.ends_with(",ok"), "{row}");
    assert!(r.banner().contains("MG Benchmark Completed"));
}

/// Cross-commit identity: the serial class S signature of every
/// benchmark. The five fed by the NPB generator were recorded with the
/// reference's double-precision split-multiply `randlc` — the generator
/// must reproduce that sequence, not merely agree with itself across
/// styles and team sizes. The three CFD codes were recorded with scalar
/// sweeps — a lane-vectorized kernel must reproduce every bit of them,
/// whichever lane width the host dispatches to.
#[test]
fn class_s_signatures_are_pinned() {
    for (name, sig) in [
        ("EP", 0xc0aed46ec67e150c_u64),
        ("IS", 0x6bbde6d3f0645b95),
        ("CG", 0x54cf2678bada079b),
        ("MG", 0x53b9c899b857c11d),
        ("FT", 0xb830222e10844859),
        ("BT", 0xbf42440eb4417b06),
        ("SP", 0x7df6ccd34715cf27),
        ("LU", 0x529c15ac30ea7787),
    ] {
        let r = run_benchmark(name, Class::S, Style::Opt, 0).unwrap();
        assert_eq!(r.result_sig, Some(sig), "{name} class S: {:016x?}", r.result_sig);
    }
}

/// MG one width out: on two ranks the V-cycle's grids are bit-identical
/// to serial and only the final norm's rank-ordered partial sums differ —
/// in the last bit (`…c11f` against serial's `…c11d`), by design. Pinned
/// so a change to the operators' plane split or row kernels cannot hide
/// behind the serial signature.
#[test]
fn mg_class_s_two_rank_signature_is_pinned() {
    for style in [Style::Opt, Style::Safe] {
        let r = run_benchmark("MG", Class::S, style, 2).unwrap();
        assert_eq!(r.verified, Verified::Success, "{style:?}");
        assert_eq!(r.result_sig, Some(0x53b9c899b857c11f), "{style:?}: {:016x?}", r.result_sig);
    }
}
