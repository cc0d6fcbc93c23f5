//! The standard NPB result banner and a machine-readable result struct.

use crate::{Class, GuardStats, Style, Verified};

/// Per-region profile attached to a [`BenchReport`] when tracing ran:
/// the benchmark-named phase, its attributable seconds, and its
/// per-rank load-imbalance ratio (max/mean, 1.0 = balanced).
#[derive(Debug, Clone, PartialEq)]
pub struct RegionProfile {
    /// Phase name as registered by the benchmark (e.g. `conj_grad`).
    pub name: String,
    /// Seconds attributable to the region (master-scope wall time).
    pub secs: f64,
    /// Per-rank compute imbalance, max/mean.
    pub imbalance: f64,
}

/// Escape `s` for inclusion inside a JSON string literal.
///
/// This is the single JSON-string escaper of the workspace (the build is
/// hermetic, so there is no serde): `BenchReport::to_json` and the
/// suite supervisor's run manifest both write through it, and the
/// harness's hand-rolled reader inverts exactly this escaping. Control
/// characters use `\u00XX`, everything else passes through as UTF-8.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A stable fingerprint of the measuring host, recorded beside every
/// `benchmark/` run: performance numbers are only comparable within one
/// host. Shape: `hostname/Ncpu/os` — hostname for "which machine", the CPU
/// count because a re-provisioned container with a different width is a
/// different performance regime even under the same name, and the OS
/// because timer and scheduler behavior differ across kernels.
pub fn host_fingerprint() -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .or_else(|| std::env::var("HOSTNAME").ok().filter(|s| !s.is_empty()))
        .unwrap_or_else(|| "unknown-host".to_string());
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    format!("{host}/{cpus}cpu/{}", std::env::consts::OS)
}

/// Everything a benchmark run reports — the same fields the NPB
/// `print_results` routine prints.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Benchmark name ("BT", "SP", ...).
    pub name: &'static str,
    /// Problem class.
    pub class: Class,
    /// Problem size (grid extents, or `(n, 0, 0)` for 1-D problems).
    pub size: (usize, usize, usize),
    /// Number of benchmark iterations performed.
    pub niter: usize,
    /// Wall-clock seconds for the timed section.
    pub time_secs: f64,
    /// Millions of operations per second (benchmark-specific op count).
    pub mops: f64,
    /// Worker threads used (0 = pure serial path, no team).
    pub threads: usize,
    /// Execution style (opt = "Fortran", safe = "Java").
    pub style: Style,
    /// Verification outcome.
    pub verified: Verified,
    /// SDC detections answered by a checkpoint rollback (see
    /// [`crate::guard`]); 0 when the guard is off or nothing corrupted.
    pub recoveries: usize,
    /// In-memory checkpoints taken by the SDC guard.
    pub checkpoint_count: usize,
    /// Wall-clock seconds spent in the guard layer (checks + snapshots),
    /// so checkpoint cost is visible in sweeps.
    pub checkpoint_overhead_s: f64,
    /// Per-region profile from `npb-trace`; empty when tracing was off
    /// (the JSON record then omits the field, keeping the classic shape).
    pub regions: Vec<RegionProfile>,
    /// Bit-exact signature of the verified quantity (hash of EP's sums,
    /// of IS's final counts, CG's zeta bits, ...). `Some` when the
    /// kernel computes one; the JSON record carries it as a hex string
    /// so cross-backend bit-identity reduces to string equality. `None`
    /// omits the field, keeping the classic record shape.
    pub result_sig: Option<u64>,
    /// Per-rank terminal dispositions from the `procs` backend (e.g.
    /// `done`, `killed:9`, `exit:101`), one entry per worker process of
    /// the *last* incarnation; empty for in-process backends (the JSON
    /// record then omits the field).
    pub rank_dispositions: Vec<String>,
}

impl BenchReport {
    /// The report of one finished run, filled the way every producer fills
    /// it: the guard counters come from `guard`, and the per-region profile
    /// and rank dispositions start empty (the driver attaches the profile
    /// when tracing ran, the procs backend its ranks' dispositions).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &'static str,
        class: Class,
        style: Style,
        threads: usize,
        size: (usize, usize, usize),
        niter: usize,
        time_secs: f64,
        mops: f64,
        verified: Verified,
        result_sig: u64,
        guard: GuardStats,
    ) -> BenchReport {
        BenchReport {
            name,
            class,
            size,
            niter,
            time_secs,
            mops,
            threads,
            style,
            verified,
            recoveries: guard.recoveries,
            checkpoint_count: guard.checkpoint_count,
            checkpoint_overhead_s: guard.checkpoint_overhead_s,
            regions: Vec::new(),
            result_sig: Some(result_sig),
            rank_dispositions: Vec::new(),
        }
    }

    /// Render the classic NPB banner.
    pub fn banner(&self) -> String {
        let ver = match self.verified {
            Verified::Success => "SUCCESSFUL",
            Verified::Failure => "UNSUCCESSFUL",
            Verified::NotPerformed => "NOT PERFORMED",
        };
        let size = if self.size.1 == 0 {
            format!("{:>12}", self.size.0)
        } else {
            format!("{:>4}x{:>4}x{:>4}", self.size.0, self.size.1, self.size.2)
        };
        let threads = if self.threads == 0 {
            "serial".to_string()
        } else {
            format!("{} threads", self.threads)
        };
        let mut banner = format!(
            "\n\n {} Benchmark Completed.\n\
             Class           =             {}\n\
             Size            =  {}\n\
             Iterations      = {:>12}\n\
             Time in seconds = {:>12.3}\n\
             Mop/s total     = {:>12.2}\n\
             Execution       = {:>12} ({})\n\
             Verification    = {:>12}\n",
            self.name,
            self.class,
            size,
            self.niter,
            self.time_secs,
            self.mops,
            threads,
            self.style.label(),
            ver
        );
        // The SDC-guard lines appear only when the guard ran, so the
        // classic banner is untouched for plain runs.
        if self.checkpoint_count > 0 || self.recoveries > 0 {
            banner.push_str(&format!(
                "Recoveries      = {:>12}\n\
                 Checkpoints     = {:>12} ({:.3}s overhead)\n",
                self.recoveries, self.checkpoint_count, self.checkpoint_overhead_s
            ));
        }
        // The procs backend reports each worker rank's terminal state,
        // so a recovered run shows *which* rank died and came back.
        if !self.rank_dispositions.is_empty() {
            banner
                .push_str(&format!("Ranks           = {:>12}\n", self.rank_dispositions.join(" ")));
        }
        // Likewise the per-region profile: only when tracing ran.
        for r in &self.regions {
            banner.push_str(&format!(
                "Region          = {:>12} {:>9.3}s (imbalance {:.2})\n",
                r.name, r.secs, r.imbalance
            ));
        }
        banner
    }

    /// One-line machine-readable JSON record (the structured channel the
    /// suite supervisor parses instead of scraping banners).
    ///
    /// `attempts` is how many driver attempts this report took (1 = the
    /// first try verified); it is driver state, not kernel state, so it
    /// is a parameter rather than a field. Float fields use Rust's
    /// shortest-roundtrip formatting, so the value survives the trip
    /// through the supervisor bit-exactly.
    pub fn to_json(&self, attempts: usize) -> String {
        let verified = match self.verified {
            Verified::Success => "success",
            Verified::Failure => "failure",
            Verified::NotPerformed => "not-performed",
        };
        let mut json = format!(
            "{{\"name\":\"{}\",\"class\":\"{}\",\"style\":\"{}\",\"threads\":{},\
             \"size\":[{},{},{}],\"niter\":{},\"time_secs\":{},\"mops\":{},\
             \"verified\":\"{}\",\"attempts\":{},\"recoveries\":{},\
             \"checkpoint_count\":{},\"checkpoint_overhead_s\":{}",
            json_escape(self.name),
            json_escape(&self.class.to_string()),
            json_escape(self.style.label()),
            self.threads,
            self.size.0,
            self.size.1,
            self.size.2,
            self.niter,
            self.time_secs,
            self.mops,
            verified,
            attempts,
            self.recoveries,
            self.checkpoint_count,
            self.checkpoint_overhead_s
        );
        // Optional fields are appended only when present, so plain runs
        // keep the exact classic record shape.
        if let Some(sig) = self.result_sig {
            json.push_str(&format!(",\"result_sig\":\"{sig:016x}\""));
        }
        if !self.rank_dispositions.is_empty() {
            json.push_str(",\"rank_dispositions\":[");
            for (i, d) in self.rank_dispositions.iter().enumerate() {
                if i > 0 {
                    json.push(',');
                }
                json.push_str(&format!("\"{}\"", json_escape(d)));
            }
            json.push(']');
        }
        if !self.regions.is_empty() {
            json.push_str(",\"regions\":[");
            for (i, r) in self.regions.iter().enumerate() {
                if i > 0 {
                    json.push(',');
                }
                json.push_str(&format!(
                    "{{\"name\":\"{}\",\"secs\":{},\"imbalance\":{}}}",
                    json_escape(&r.name),
                    r.secs,
                    r.imbalance
                ));
            }
            json.push(']');
        }
        json.push('}');
        json
    }

    /// The partial record a driver emits when a termination signal
    /// (SIGTERM/SIGINT) interrupts a run before the benchmark could
    /// report: the identity of the in-progress run plus
    /// `"interrupted":true`, so downstream readers (the suite
    /// supervisor, the `npbd` journal, log scrapers) can tell a
    /// deliberate shutdown from a silent death. This is the same flush
    /// shape the daemon's graceful drain journals for its own jobs.
    pub fn interrupted_json(
        name: &str,
        class: Class,
        style: Style,
        threads: usize,
        signal: i32,
    ) -> String {
        format!(
            "{{\"name\":\"{}\",\"class\":\"{}\",\"style\":\"{}\",\"threads\":{},\
             \"interrupted\":true,\"signal\":{}}}",
            json_escape(name),
            json_escape(&class.to_string()),
            json_escape(style.label()),
            threads,
            signal
        )
    }

    /// One-line CSV-ish record for harness output.
    pub fn row(&self) -> String {
        format!(
            "{},{},{},{},{:.4},{:.2},{}",
            self.name,
            self.class,
            self.style.label(),
            self.threads,
            self.time_secs,
            self.mops,
            if self.verified.is_success() { "ok" } else { "FAIL" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            name: "CG",
            class: Class::S,
            size: (1400, 0, 0),
            niter: 15,
            time_secs: 0.123,
            mops: 456.7,
            threads: 4,
            style: Style::Opt,
            verified: Verified::Success,
            recoveries: 0,
            checkpoint_count: 0,
            checkpoint_overhead_s: 0.0,
            regions: Vec::new(),
            result_sig: None,
            rank_dispositions: Vec::new(),
        }
    }

    #[test]
    fn host_fingerprint_is_stable_and_names_cpus_and_os() {
        let fp = host_fingerprint();
        assert_eq!(fp, host_fingerprint(), "one host, one fingerprint");
        let parts: Vec<&str> = fp.rsplitn(3, '/').collect();
        assert_eq!(parts[0], std::env::consts::OS);
        let cpus = parts[1].strip_suffix("cpu").and_then(|n| n.parse::<usize>().ok());
        assert!(cpus.is_some_and(|n| n >= 1) && !parts[2].is_empty(), "{fp}");
    }

    #[test]
    fn banner_contains_key_fields() {
        let b = sample().banner();
        assert!(b.contains("CG Benchmark Completed"));
        assert!(b.contains("SUCCESSFUL"));
        assert!(b.contains("4 threads"));
    }

    #[test]
    fn serial_threads_label() {
        let mut r = sample();
        r.threads = 0;
        assert!(r.banner().contains("serial"));
    }

    #[test]
    fn row_is_stable() {
        assert_eq!(sample().row(), "CG,S,opt,4,0.1230,456.70,ok");
    }

    #[test]
    fn json_record_is_stable() {
        assert_eq!(
            sample().to_json(2),
            "{\"name\":\"CG\",\"class\":\"S\",\"style\":\"opt\",\"threads\":4,\
             \"size\":[1400,0,0],\"niter\":15,\"time_secs\":0.123,\"mops\":456.7,\
             \"verified\":\"success\",\"attempts\":2,\"recoveries\":0,\
             \"checkpoint_count\":0,\"checkpoint_overhead_s\":0}"
        );
    }

    #[test]
    fn json_guard_fields_round_trip() {
        let mut r = sample();
        r.recoveries = 2;
        r.checkpoint_count = 7;
        r.checkpoint_overhead_s = 0.015625; // exactly representable
        let j = r.to_json(1);
        assert!(j.contains("\"recoveries\":2"));
        assert!(j.contains("\"checkpoint_count\":7"));
        // Shortest-roundtrip float formatting: the value survives the
        // trip through the supervisor's reader bit-exactly.
        assert!(j.contains("\"checkpoint_overhead_s\":0.015625"));
    }

    #[test]
    fn banner_reports_recoveries_only_when_the_guard_ran() {
        let mut r = sample();
        assert!(!r.banner().contains("Recoveries"));
        r.recoveries = 1;
        r.checkpoint_count = 8;
        let b = r.banner();
        assert!(b.contains("Recoveries      =            1"));
        assert!(b.contains("Checkpoints     =            8"));
    }

    #[test]
    fn json_and_banner_carry_regions_only_when_traced() {
        let mut r = sample();
        assert!(!r.to_json(1).contains("regions"), "plain record keeps classic shape");
        assert!(!r.banner().contains("Region"));
        r.regions = vec![
            RegionProfile { name: "conj_grad".to_string(), secs: 0.5, imbalance: 1.25 },
            RegionProfile { name: "power_step".to_string(), secs: 0.125, imbalance: 1.0 },
        ];
        let j = r.to_json(1);
        assert!(j.contains(
            "\"regions\":[{\"name\":\"conj_grad\",\"secs\":0.5,\"imbalance\":1.25},\
             {\"name\":\"power_step\",\"secs\":0.125,\"imbalance\":1}]"
        ));
        assert!(j.ends_with("}]}"));
        let b = r.banner();
        assert!(b.contains("conj_grad"));
        assert!(b.contains("(imbalance 1.25)"));
    }

    #[test]
    fn json_carries_result_sig_and_rank_dispositions_only_when_set() {
        let mut r = sample();
        let j = r.to_json(1);
        assert!(!j.contains("result_sig") && !j.contains("rank_dispositions"));
        r.result_sig = Some(0x1f);
        r.rank_dispositions = vec!["done".into(), "killed:9".into()];
        let j = r.to_json(1);
        // Fixed-width hex: bit-identity checks are string equality.
        assert!(j.contains("\"result_sig\":\"000000000000001f\""), "{j}");
        assert!(j.contains("\"rank_dispositions\":[\"done\",\"killed:9\"]"), "{j}");
        assert!(r.banner().contains("Ranks           = done killed:9"), "{}", r.banner());
    }

    #[test]
    fn json_verified_states_are_distinct() {
        let mut r = sample();
        r.verified = Verified::Failure;
        assert!(r.to_json(1).contains("\"verified\":\"failure\""));
        r.verified = Verified::NotPerformed;
        assert!(r.to_json(1).contains("\"verified\":\"not-performed\""));
    }

    #[test]
    fn interrupted_record_is_stable_and_marked() {
        assert_eq!(
            BenchReport::interrupted_json("CG", Class::S, Style::Opt, 4, 15),
            "{\"name\":\"CG\",\"class\":\"S\",\"style\":\"opt\",\"threads\":4,\
             \"interrupted\":true,\"signal\":15}"
        );
    }

    #[test]
    fn json_escape_handles_every_class() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("nl\n cr\r tab\t"), "nl\\n cr\\r tab\\t");
        assert_eq!(json_escape("bell\u{7}"), "bell\\u0007");
        assert_eq!(json_escape("é ✓"), "é ✓");
        // Escaping is idempotent-safe under composition: escaping the
        // escaped form escapes the introduced backslashes, not more.
        assert_eq!(json_escape("\\n"), "\\\\n");
    }
}
