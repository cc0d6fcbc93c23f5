//! The host a result was taken on: everything a reader needs to decide
//! whether two result sets are comparable, and the caveats that follow
//! from the host's width.

use std::path::Path;

use npb_core::report::json_escape;

#[derive(Debug, Clone)]
pub struct Host {
    pub fingerprint: String,
    pub nproc: usize,
    pub cpu_model: String,
    /// Largest data/unified cache any CPU reports, in bytes (0 = unknown).
    pub llc_bytes: u64,
    pub git_rev: String,
}

fn read_trimmed(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// Parse sysfs cache sizes such as `266240K` or `4M`.
fn parse_cache_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

fn llc_bytes() -> u64 {
    let mut best = 0;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        if read_trimmed(format!("{dir}/type")).is_some_and(|t| t == "Instruction") {
            continue;
        }
        if let Some(size) = read_trimmed(format!("{dir}/size")).and_then(|s| parse_cache_size(&s)) {
            best = best.max(size);
        }
    }
    if best == 0 {
        // Containers often hide sysfs caches; /proc/cpuinfo's "cache
        // size" is the last-level cache on x86.
        if let Some(info) = read_trimmed("/proc/cpuinfo") {
            best = info
                .lines()
                .find(|l| l.starts_with("cache size"))
                .and_then(|l| l.split(':').nth(1))
                .and_then(|v| parse_cache_size(&v.replace(" KB", "K")))
                .unwrap_or(0);
        }
    }
    best
}

/// The checked-out revision, read from `.git` directly (no `git`
/// process; the driver's checkout is not a repository at all).
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Some(head) = read_trimmed(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    match head.strip_prefix("ref: ") {
        Some(r) => read_trimmed(git.join(r)).unwrap_or_else(|| head.clone()),
        None => head,
    }
}

impl Host {
    pub fn detect(root: &Path) -> Host {
        let cpu_model = read_trimmed("/proc/cpuinfo")
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            fingerprint: npb_core::report::host_fingerprint(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            llc_bytes: llc_bytes(),
            git_rev: git_rev(root),
        }
    }

    pub fn json_fields(&self) -> String {
        format!(
            "\"host\":\"{}\",\"nproc\":{},\"cpu_model\":\"{}\",\"llc_bytes\":{},\"git_rev\":\"{}\"",
            json_escape(&self.fingerprint),
            self.nproc,
            json_escape(&self.cpu_model),
            self.llc_bytes,
            json_escape(&self.git_rev)
        )
    }

    /// The header lines of a report.
    pub fn banner(&self) -> String {
        let mut s = format!(
            "host {}  nproc {}  cpu {}  llc {} MiB  rev {}\n",
            self.fingerprint,
            self.nproc,
            self.cpu_model,
            self.llc_bytes >> 20,
            self.git_rev
        );
        if self.nproc < 2 {
            s.push_str(
                "*** nproc < 2: t2_s, park_t2_s and procs_t2_s are OVERHEAD curves on this host, \
                 not speed-up; two ranks share one CPU ***\n",
            );
        }
        s
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("266240K"), Some(266240 << 10));
        assert_eq!(parse_cache_size("4M"), Some(4 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("big"), None);
    }

    #[test]
    fn own_peak_rss_is_positive_and_narrow_hosts_are_flagged() {
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.0);
        let mut host = Host::detect(Path::new("/nonexistent"));
        assert_eq!(host.git_rev, "unknown");
        host.nproc = 1;
        assert!(host.banner().contains("OVERHEAD"));
        host.nproc = 2;
        assert!(!host.banner().contains("OVERHEAD"));
    }
}
