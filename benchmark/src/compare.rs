//! `--compare A B`: check result set B against result set A, metric by
//! metric, with the bounds of the catalog.
//!
//! A result set is what `--out` appends: one JSON record per run. Where
//! a set holds several untraced runs of a workload (ten seeds, say), the
//! median of their values stands for the set. Two sets of the same code
//! must pass (the A/A check); parent against change is the same command.

use std::collections::BTreeMap;
use std::path::Path;

use npb_harness::Json;

use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::median;

/// workload → metric → the value of each untraced run in the set.
#[derive(Debug, Default, PartialEq)]
pub struct ResultSet {
    pub values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// Failed cells and jobs over all of the set's runs, per workload.
    pub failed: BTreeMap<String, u64>,
}

pub fn parse_set(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::default();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if v.get_uint("trace") != Some(0) {
            continue;
        }
        let workload = v.get_str("workload").ok_or(format!("line {}: no workload", i + 1))?;
        *set.failed.entry(workload.to_string()).or_default() += v.get_uint("failed").unwrap_or(0);
        let Some(Json::Obj(metrics)) = v.get("metrics") else {
            return Err(format!("line {}: no metrics object", i + 1));
        };
        let by_metric = set.values.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(x) = m.get_num("value") {
                by_metric.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok(set)
}

/// One compared metric@workload.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub metric: &'static str,
    pub workload: &'static str,
    pub base: f64,
    pub new: f64,
    /// Share of `base` by which `new` is worse (negative = better).
    pub worse_by: f64,
    pub bound: f64,
}

impl Row {
    pub fn regressed(&self) -> bool {
        self.worse_by > self.bound
    }
}

/// Every end-to-end metric on every workload both sets measured, plus
/// the complaints that make the comparison fail outright.
pub fn compare(a: &ResultSet, b: &ResultSet) -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    let mut complaints = Vec::new();
    for w in &WORKLOADS {
        let (Some(va), Some(vb)) = (a.values.get(w.name), b.values.get(w.name)) else {
            continue;
        };
        for (label, set) in [("A", a), ("B", b)] {
            let failed = set.failed.get(w.name).copied().unwrap_or(0);
            if failed > 0 {
                complaints
                    .push(format!("fail_share@{}: {failed} failure(s) in set {label}", w.name));
            }
        }
        for m in END_TO_END.iter().filter(|m| m.on(w.name)) {
            match (va.get(m.name), vb.get(m.name)) {
                (Some(xa), Some(xb)) => {
                    let (base, new) = (median(xa), median(xb));
                    rows.push(Row {
                        metric: m.name,
                        workload: w.name,
                        base,
                        new,
                        worse_by: m.better.worse_by(base, new),
                        bound: m.bound,
                    });
                }
                _ => complaints.push(format!("{}@{}: missing from one set", m.name, w.name)),
            }
        }
    }
    if rows.is_empty() {
        complaints.push("the two sets share no workload".to_string());
    }
    (rows, complaints)
}

/// Compare two result files; print the table and the offenders; return
/// whether B is within bounds of A everywhere.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|t| parse_set(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    let (rows, complaints) = compare(&read(a)?, &read(b)?);
    println!(
        "{:<28} {:>14} {:>14} {:>9} {:>7}  verdict",
        "metric@workload", "A", "B", "worse by", "bound"
    );
    for r in &rows {
        println!(
            "{:<28} {:>14.6} {:>14.6} {:>8.1}% {:>6.0}%  {}",
            format!("{}@{}", r.metric, r.workload),
            r.base,
            r.new,
            r.worse_by * 100.0,
            r.bound * 100.0,
            if r.regressed() { "REGRESSION" } else { "ok" }
        );
    }
    let offenders: Vec<String> = rows
        .iter()
        .filter(|r| r.regressed())
        .map(|r| {
            format!(
                "{}@{}: worse by {:.1}% (bound {:.0}%)",
                r.metric,
                r.workload,
                r.worse_by * 100.0,
                r.bound * 100.0
            )
        })
        .chain(complaints)
        .collect();
    for o in &offenders {
        println!("OUT OF BOUNDS {o}");
    }
    Ok(offenders.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, trace: u8, failed: u64, metrics: &[(&str, f64)]) -> String {
        let m: Vec<String> = metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\":{{\"unit\":\"s\",\"n\":3,\"value\":{v}}}"))
            .collect();
        format!(
            "{{\"workload\":\"{workload}\",\"trace\":{trace},\"seed\":1,\"failed\":{failed},\"metrics\":{{{}}}}}",
            m.join(",")
        )
    }

    const ALL5: [(&str, f64); 5] = [
        ("setup_s", 1.0),
        ("serial_s", 10.0),
        ("mops_geomean", 100.0),
        ("t2_s", 6.0),
        ("peak_rss_mb", 50.0),
    ];

    #[test]
    fn a_set_is_the_median_of_its_untraced_runs() {
        let text = [
            record("memory_a", 0, 0, &[("serial_s", 10.0)]),
            record("memory_a", 0, 0, &[("serial_s", 30.0)]),
            record("memory_a", 0, 0, &[("serial_s", 11.0)]),
            record("memory_a", 1, 0, &[("serial_s", 99.0)]),
        ]
        .join("\n");
        let set = parse_set(&text).unwrap();
        assert_eq!(set.values["memory_a"]["serial_s"], vec![10.0, 30.0, 11.0]);
        assert!(parse_set("{not json").is_err());
    }

    #[test]
    fn within_bounds_passes_and_direction_matters() {
        let a = parse_set(&record("memory_a", 0, 0, &ALL5)).unwrap();
        let mut better = ALL5;
        better[1].1 = 9.0; // serial_s down: better
        better[2].1 = 109.0; // Mop/s up: better
        let (rows, complaints) =
            compare(&a, &parse_set(&record("memory_a", 0, 0, &better)).unwrap());
        assert_eq!(rows.len(), 5);
        assert!(complaints.is_empty() && rows.iter().all(|r| !r.regressed()));

        let mut worse = ALL5;
        worse[2].1 = 60.0; // Mop/s down 40 %: worse than any bound
        let (rows, _) = compare(&a, &parse_set(&record("memory_a", 0, 0, &worse)).unwrap());
        let bad: Vec<_> = rows.iter().filter(|r| r.regressed()).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!((bad[0].metric, bad[0].workload), ("mops_geomean", "memory_a"));
    }

    #[test]
    fn failures_missing_metrics_and_disjoint_sets_fail() {
        let a = parse_set(&record("memory_a", 0, 0, &ALL5)).unwrap();
        let failed = parse_set(&record("memory_a", 0, 2, &ALL5)).unwrap();
        assert!(compare(&a, &failed).1.iter().any(|c| c.starts_with("fail_share@memory_a")));
        let thin = parse_set(&record("memory_a", 0, 0, &ALL5[..4])).unwrap();
        assert!(compare(&a, &thin).1.iter().any(|c| c.starts_with("peak_rss_mb@memory_a")));
        let other = parse_set(&record("compute_w", 0, 0, &ALL5)).unwrap();
        assert!(!compare(&a, &other).1.is_empty());
    }
}
