//! One run's result: named metrics with their summaries, the failure
//! count, and the three ways it leaves the process — the table a person
//! reads, the JSONL record `--out` appends, and the driver's last line.

use npb_core::report::json_escape;

use crate::host::Host;
use crate::metrics::unit_of;
use crate::stats::Summary;

pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub seconds: f64,
    /// `(name, summary)`, in report order; units are the catalog's.
    pub metrics: Vec<(String, Summary)>,
    /// Cells, calls and jobs attempted.
    pub attempted: u64,
    /// `(cell or job, reason)` for each one that errored, was refused,
    /// did not verify or disagreed on `result_sig`.
    pub failures: Vec<(String, String)>,
    /// Pass counts and other facts of the run, for the header.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, traced: bool, seconds: f64) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            traced,
            seconds,
            metrics: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn push(&mut self, name: &str, summary: Option<Summary>) {
        match summary {
            Some(s) => self.metrics.push((name.to_string(), s)),
            None => self.failures.push((name.to_string(), "metric has no samples".to_string())),
        }
    }

    pub fn get(&self, name: &str) -> Option<&Summary> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    pub fn fail_share(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    /// Header, caveats and one row per metric.
    pub fn table(&self, host: &Host) -> String {
        let mut out = format!(
            "== {} ({}) seed {} budget {} s ==\n{}",
            self.workload,
            if self.traced { "traced: per-layer metrics" } else { "untraced: end-to-end metrics" },
            self.seed,
            self.seconds,
            host.banner()
        );
        for note in &self.notes {
            out.push_str(&format!("{note}\n"));
        }
        out.push_str(&format!(
            "{:<36} {:>8} {:>6} {:>13} {:>13} {:>13} {:>13} {:>13} {:>13}\n",
            "metric", "unit", "n", "value", "median", "q1", "q3", "min", "max"
        ));
        for (name, s) in &self.metrics {
            out.push_str(&format!(
                "{:<36} {:>8} {:>6} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>13.6}\n",
                name,
                unit_of(name),
                s.n,
                s.value,
                s.median,
                s.q1,
                s.q3,
                s.min,
                s.max
            ));
        }
        out.push_str(&format!(
            "{:<36} {:>8} {:>6} {:>13.6}   ({} failed of {} attempted)\n",
            "fail_share",
            "ratio",
            self.attempted,
            self.fail_share(),
            self.failures.len(),
            self.attempted
        ));
        out
    }

    /// One JSONL record for `--out`: what `--compare` reads back.
    pub fn record(&self, host: &Host) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, s)| {
                let unit = unit_of(name);
                format!(
                    "\"{}\":{{\"unit\":\"{unit}\",\"n\":{},\"value\":{},\"median\":{},\"q1\":{},\
                     \"q3\":{},\"min\":{},\"max\":{}}}",
                    json_escape(name),
                    s.n,
                    s.value,
                    s.median,
                    s.q1,
                    s.q3,
                    s.min,
                    s.max
                )
            })
            .collect();
        let notes: Vec<String> =
            self.notes.iter().map(|n| format!("\"{}\"", json_escape(n))).collect();
        format!(
            "{{\"workload\":\"{}\",\"trace\":{},\"seed\":{},\"seconds\":{},{},\"attempted\":{},\
             \"failed\":{},\"notes\":[{}],\"metrics\":{{{}}}}}",
            json_escape(&self.workload),
            u8::from(self.traced),
            self.seed,
            self.seconds,
            host.json_fields(),
            self.attempted,
            self.failures.len(),
            notes.join(","),
            metrics.join(",")
        )
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed` and
    /// the `names`d metrics. A name the run did not produce is an error.
    pub fn driver_line(&self, names: &[String]) -> Result<String, String> {
        let mut items = Vec::with_capacity(names.len());
        for name in names {
            let unit = unit_of(name);
            let s = self.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
            if !s.value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            items.push(format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", s.value));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            items.join(",")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npb_harness::Json;

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("small_s", 3, false, 25.0);
        r.attempted = 40;
        r.push("serial_s", Summary::of(&[0.2, 0.21, 0.19]));
        r.push("setup_s", Summary::of(&[0.1]));
        let names = vec!["serial_s".to_string(), "setup_s".to_string()];
        let v = Json::parse(&r.driver_line(&names).unwrap()).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get_uint("attempted"), Some(40));
        assert_eq!(v.get_uint("failed"), Some(0));
        let m = v.get("metrics").unwrap();
        assert_eq!(m.get("serial_s").unwrap().get_num("value"), Some(0.2));
        assert_eq!(m.get("setup_s").unwrap().get_str("unit"), Some("s"));
        assert!(r.driver_line(&["t2_s".to_string()]).is_err());
        r.push("t2_s", None);
        assert_eq!(r.failures.len(), 1, "a metric without samples is a failure, not a zero");
    }

    #[test]
    fn record_round_trips_through_the_repo_reader() {
        let mut r = Report::new("platform_s", 9, true, 25.0);
        r.attempted = 3;
        r.failures.push(("CG/S/job5".into(), "rejected: queue-full".into()));
        r.push("lat_p50_ms", Summary::of(&[40.0, 42.0]));
        let host = Host::detect(std::path::Path::new("/nonexistent"));
        let v = Json::parse(&r.record(&host)).unwrap();
        assert_eq!(v.get_str("workload"), Some("platform_s"));
        assert_eq!(v.get_uint("trace"), Some(1));
        assert_eq!(v.get_uint("failed"), Some(1));
        let lat = v.get("metrics").unwrap().get("lat_p50_ms").unwrap();
        assert_eq!((lat.get_num("value"), lat.get_str("unit")), (Some(41.0), Some("ms")));
        assert!(r.table(&host).contains("fail_share"));
    }
}
