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
