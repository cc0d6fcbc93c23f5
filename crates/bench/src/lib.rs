//! Shared helpers for the table harness binaries.

use npb_core::{BenchReport, Class, Style};
use npb_runtime::Team;

/// Parse `--class`, `--style`, `--threads` style flags from `args`.
pub struct HarnessArgs {
    /// Problem class (default S — see EXPERIMENTS.md for why A is not
    /// the single-core default).
    pub class: Class,
    /// Thread counts to sweep (0 = serial path).
    pub threads: Vec<usize>,
    /// Styles to run.
    pub styles: Vec<Style>,
}

impl HarnessArgs {
    /// Parse from `std::env::args`, with the given default thread sweep.
    pub fn parse(default_threads: &[usize]) -> HarnessArgs {
        let mut class = Class::S;
        let mut threads: Vec<usize> = default_threads.to_vec();
        let mut styles = vec![Style::Opt, Style::Safe];
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--class" | "-c" => {
                    class = it.next().expect("--class VALUE").parse().expect("valid class");
                }
                "--threads" | "-t" => {
                    threads = it
                        .next()
                        .expect("--threads LIST")
                        .split(',')
                        .map(|s| s.parse().expect("thread count"))
                        .collect();
                }
                "--style" | "-s" => {
                    let v = it.next().expect("--style VALUE");
                    styles = match v.as_str() {
                        "both" => vec![Style::Opt, Style::Safe],
                        other => vec![other.parse().expect("valid style")],
                    };
                }
                other => panic!("unknown flag {other}"),
            }
        }
        HarnessArgs { class, threads, styles }
    }
}

/// Run `f` with a fresh team of `threads` workers (0 = serial).
pub fn with_team<T>(threads: usize, f: impl FnOnce(Option<&Team>) -> T) -> T {
    if threads == 0 {
        f(None)
    } else {
        let team = Team::new(threads);
        f(Some(&team))
    }
}

/// Format one row of a per-thread-count table.
pub fn fmt_row(label: &str, cells: &[(String, f64)]) -> String {
    let mut s = format!("{label:<34}");
    for (tag, secs) in cells {
        s.push_str(&format!(" {tag}={secs:<9.4}"));
    }
    s
}

/// Print the standard harness header.
pub fn header(table: &str, note: &str) {
    println!("== {table} ==");
    println!("host: single-CPU substitute for the paper's SMPs (see DESIGN.md)");
    println!("{note}");
    println!();
}

/// Column tag for a thread count (0 = serial).
pub fn ttag(threads: usize) -> String {
    if threads == 0 {
        "serial".to_string()
    } else {
        format!("t{threads}")
    }
}

/// One benchmark cell: run and return the report, asserting verification.
pub fn cell(
    name: &str,
    class: Class,
    style: Style,
    threads: usize,
    run: impl Fn(Class, Style, Option<&Team>) -> BenchReport,
) -> BenchReport {
    let report = with_team(threads, |team| run(class, style, team));
    if !report.verified.is_success() && report.verified != npb_core::Verified::NotPerformed {
        eprintln!("WARNING: {name} {class} {} t{threads} failed verification", style.label());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_row_pads_the_label_and_tags_every_cell() {
        let row = fmt_row("EP", &[(ttag(0), 1.5), (ttag(2), 0.75)]);
        assert_eq!(row, format!("{:<34} serial=1.5000    t2=0.7500   ", "EP"));
    }

    #[test]
    fn with_team_zero_runs_serial_and_n_builds_an_n_wide_team() {
        assert_eq!(with_team(0, |t| t.map(Team::size)), None);
        assert_eq!(with_team(2, |t| t.map(Team::size)), Some(2));
    }
}
