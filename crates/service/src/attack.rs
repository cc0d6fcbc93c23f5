//! `npb-attack`: the load generator that proves the daemon's
//! containment story under pressure.
//!
//! N concurrent clients hammer the daemon with submit requests and the
//! generator reports what a capacity-planning reader wants: a
//! log-2-bucketed latency histogram with percentiles, the acceptance /
//! cache-hit / dedupe / rejection mix, and — in ramp mode — the
//! *saturation point*: the lowest concurrency at which the daemon
//! starts shedding load (`rejected:queue-full`). Chaos mode mixes
//! fault-injected jobs (hangs, panics, SDC flips) into the stream, so
//! the daemon is absorbing deadline-kills and retries while serving
//! clean traffic.
//!
//! Everything lands in one JSON report via [`AttackReport::to_json`].

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use npb_core::json::Json;

use crate::client::Client;
use crate::server::Addr;

/// Latency histogram: log-2 buckets of microseconds (bucket i holds
/// samples in `[2^i, 2^(i+1))` µs). 40 buckets covers ~13 days.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 40],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { buckets: [0; 40], count: 0, sum_us: 0, max_us: 0 }
    }
}

impl Histogram {
    pub fn record(&mut self, us: u64) {
        let idx = (64 - us.max(1).leading_zeros() as usize - 1).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_us += us;
        self.max_us = self.max_us.max(us);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.max_us = self.max_us.max(other.max_us);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket holding the p-th percentile sample
    /// (p in [0,100]), clamped to the largest sample recorded: a bucket
    /// edge above every observation is not a latency anyone saw.
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return (1u64 << (i + 1)).min(self.max_us);
            }
        }
        self.max_us
    }

    fn to_json(&self) -> String {
        let nonzero: Vec<String> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| **b > 0)
            .map(|(i, b)| format!("{{\"le_us\":{},\"count\":{b}}}", 1u64 << (i + 1)))
            .collect();
        format!(
            "{{\"count\":{},\"mean_us\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\
             \"max_us\":{},\"buckets\":[{}]}}",
            self.count,
            self.mean_us(),
            self.percentile_us(50.0),
            self.percentile_us(90.0),
            self.percentile_us(99.0),
            self.max_us,
            nonzero.join(",")
        )
    }
}

/// One attack run's shape.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    pub addr: Addr,
    /// Concurrent client connections.
    pub clients: usize,
    /// Submits per client.
    pub requests: usize,
    /// Base spec fields spliced into every submit (e.g.
    /// `"bench":"EP","class":"S"`); the generator adds op/seed/wait.
    pub spec: String,
    /// Distinct seeds to cycle through — 1 turns the attack into a
    /// cache/dedupe stress (all clients want the same job), larger
    /// values force distinct executions.
    pub seeds: u64,
    /// Chaos mode: every third request carries a fault-injection spec
    /// (hang / panic / SDC flip), so deadline-kills and retries run
    /// interleaved with clean traffic.
    pub chaos: bool,
    /// Ramp mode: double concurrency per step until the daemon sheds
    /// load, reporting the saturation point.
    pub ramp: bool,
}

/// Aggregate tallies across every client thread.
#[derive(Debug, Default)]
pub struct AttackTallies {
    pub sent: u64,
    pub done_verified: u64,
    pub done_failed: u64,
    pub cache_hits: u64,
    pub deduped: u64,
    pub rejected_queue_full: u64,
    pub rejected_draining: u64,
    pub rejected_other: u64,
    pub io_errors: u64,
}

#[derive(Debug)]
pub struct AttackReport {
    pub tallies: AttackTallies,
    pub latency: Histogram,
    /// Lowest client count that produced a `queue-full` rejection
    /// (ramp mode; `None` = never saturated).
    pub saturation_clients: Option<usize>,
    pub wall_secs: f64,
}

impl AttackReport {
    /// The report as one JSON line: `npb-attack`'s `--out` file or stdout.
    pub fn to_json(&self, cfg: &AttackConfig) -> String {
        let t = &self.tallies;
        format!(
            "{{\"bench\":\"service\",\"addr\":\"{}\",\"clients\":{},\"requests_per_client\":{},\
             \"chaos\":{},\"ramp\":{},\"wall_secs\":{:.3},\
             \"sent\":{},\"done_verified\":{},\"done_failed\":{},\"cache_hits\":{},\
             \"deduped\":{},\"rejected\":{{\"queue_full\":{},\"draining\":{},\"other\":{}}},\
             \"io_errors\":{},\"saturation_clients\":{},\"latency\":{}}}",
            cfg.addr,
            cfg.clients,
            cfg.requests,
            cfg.chaos,
            cfg.ramp,
            self.wall_secs,
            t.sent,
            t.done_verified,
            t.done_failed,
            t.cache_hits,
            t.deduped,
            t.rejected_queue_full,
            t.rejected_draining,
            t.rejected_other,
            t.io_errors,
            self.saturation_clients.map_or("null".to_string(), |c| c.to_string()),
            self.latency.to_json(),
        )
    }
}

/// The rotating chaos menu: a hang (deadline-kill leg), a panic (crash
/// leg), and an SDC bit-flip (detect/retry leg).
const CHAOS_INJECTS: [&str; 3] = ["hang:1", "panic:1", "bitflip:1"];

fn submit_line(cfg: &AttackConfig, client_id: usize, req: usize) -> String {
    let i = client_id * cfg.requests + req;
    let seed = (i as u64) % cfg.seeds.max(1);
    let mut extra = String::new();
    if cfg.chaos && i % 3 == 2 {
        let inject = CHAOS_INJECTS[(i / 3) % CHAOS_INJECTS.len()];
        // Injected faults need headroom to retry inside the deadline.
        extra = format!(",\"inject\":\"{inject}\",\"retries\":2");
    }
    format!("{{\"op\":\"submit\",{},\"seed\":{seed}{extra}}}", cfg.spec)
}

fn run_client(
    cfg: &AttackConfig,
    client_id: usize,
    tallies: &Mutex<AttackTallies>,
    hist: &Mutex<Histogram>,
) {
    let mut local = AttackTallies::default();
    let mut lat = Histogram::default();
    let mut client = match Client::connect_retry(&cfg.addr, 40) {
        Ok(c) => c,
        Err(_) => {
            local.io_errors += 1;
            merge(tallies, hist, local, lat);
            return;
        }
    };
    for req in 0..cfg.requests {
        let line = submit_line(cfg, client_id, req);
        local.sent += 1;
        let started = Instant::now();
        let replies = match client.submit(&line) {
            Ok(r) => r,
            Err(_) => {
                local.io_errors += 1;
                // The daemon may have been SIGKILLed (chaos test) —
                // reconnect and keep attacking.
                match Client::connect_retry(&cfg.addr, 40) {
                    Ok(c) => {
                        client = c;
                        continue;
                    }
                    Err(_) => break,
                }
            }
        };
        lat.record(started.elapsed().as_micros() as u64);
        for reply in &replies {
            match (reply.get_str("status"), reply.get_str("reason")) {
                (Some("rejected"), Some("queue-full")) => local.rejected_queue_full += 1,
                (Some("rejected"), Some("draining")) => local.rejected_draining += 1,
                (Some("rejected"), _) => local.rejected_other += 1,
                (Some("accepted"), _) => {
                    if reply.get("dedup") == Some(&Json::Bool(true)) {
                        local.deduped += 1;
                    }
                }
                (Some("done"), _) => {
                    if reply.get("from_cache") == Some(&Json::Bool(true)) {
                        local.cache_hits += 1;
                    }
                    if reply.get_str("disposition") == Some("verified") {
                        local.done_verified += 1;
                    } else {
                        local.done_failed += 1;
                    }
                }
                _ => local.io_errors += 1,
            }
        }
    }
    merge(tallies, hist, local, lat);
}

fn merge(
    tallies: &Mutex<AttackTallies>,
    hist: &Mutex<Histogram>,
    local: AttackTallies,
    lat: Histogram,
) {
    let mut t = tallies.lock().unwrap();
    t.sent += local.sent;
    t.done_verified += local.done_verified;
    t.done_failed += local.done_failed;
    t.cache_hits += local.cache_hits;
    t.deduped += local.deduped;
    t.rejected_queue_full += local.rejected_queue_full;
    t.rejected_draining += local.rejected_draining;
    t.rejected_other += local.rejected_other;
    t.io_errors += local.io_errors;
    hist.lock().unwrap().merge(&lat);
}

/// One wave of `clients` concurrent attackers. Returns the wave's
/// tallies and latency histogram.
fn wave(cfg: &AttackConfig, clients: usize) -> (AttackTallies, Histogram) {
    let tallies = Mutex::new(AttackTallies::default());
    let hist = Mutex::new(Histogram::default());
    std::thread::scope(|scope| {
        for id in 0..clients {
            let (cfg, tallies, hist) = (&*cfg, &tallies, &hist);
            scope.spawn(move || run_client(cfg, id, tallies, hist));
        }
    });
    (tallies.into_inner().unwrap(), hist.into_inner().unwrap())
}

/// Run the attack. Ramp mode doubles concurrency 1, 2, 4, … up to
/// `cfg.clients` and records the first level that saturates; plain mode
/// runs a single wave at `cfg.clients`.
pub fn run(cfg: &AttackConfig) -> AttackReport {
    let started = Instant::now();
    let mut total = AttackTallies::default();
    let mut latency = Histogram::default();
    let mut saturation = None;
    let levels: Vec<usize> = if cfg.ramp {
        let mut l = Vec::new();
        let mut c = 1;
        while c < cfg.clients {
            l.push(c);
            c *= 2;
        }
        l.push(cfg.clients);
        l
    } else {
        vec![cfg.clients]
    };
    for clients in levels {
        let (t, h) = wave(cfg, clients);
        if cfg.ramp && saturation.is_none() && t.rejected_queue_full > 0 {
            saturation = Some(clients);
        }
        total.sent += t.sent;
        total.done_verified += t.done_verified;
        total.done_failed += t.done_failed;
        total.cache_hits += t.cache_hits;
        total.deduped += t.deduped;
        total.rejected_queue_full += t.rejected_queue_full;
        total.rejected_draining += t.rejected_draining;
        total.rejected_other += t.rejected_other;
        total.io_errors += t.io_errors;
        latency.merge(&h);
    }
    AttackReport {
        tallies: total,
        latency,
        saturation_clients: saturation,
        wall_secs: started.elapsed().as_secs_f64(),
    }
}

/// One slowloris campaign's outcome: how the daemon's read deadline
/// handled clients that trickle a request one byte at a time.
#[derive(Debug)]
pub struct SlowlorisReport {
    /// Clients that connected and started trickling.
    pub connected: usize,
    /// Clients whose connection the daemon closed before they finished
    /// a request line — the read deadline doing its job.
    pub evicted: usize,
    /// Seconds from first byte to eviction, per evicted client.
    pub evict_secs: Vec<f64>,
}

impl SlowlorisReport {
    pub fn to_json(&self) -> String {
        let mean = if self.evict_secs.is_empty() {
            0.0
        } else {
            self.evict_secs.iter().sum::<f64>() / self.evict_secs.len() as f64
        };
        format!(
            "{{\"bench\":\"slowloris\",\"connected\":{},\"evicted\":{},\"mean_evict_secs\":{:.3}}}",
            self.connected, self.evicted, mean
        )
    }
}

/// Open a raw byte stream to the daemon (the slowloris path needs
/// byte-level control the line-oriented [`Client`] hides).
fn raw_stream(addr: &Addr) -> std::io::Result<Box<dyn std::io::Write + Send>> {
    match addr {
        Addr::Unix(path) => Ok(Box::new(std::os::unix::net::UnixStream::connect(path)?)),
        Addr::Tcp(hostport) => Ok(Box::new(std::net::TcpStream::connect(hostport.as_str())?)),
    }
}

/// The slowloris attack: `clients` connections each trickle one byte of
/// a request per `interval`, never completing a line, for at most
/// `max_wait`. A hardened daemon (armed `--read-deadline-ms`) evicts
/// them — the write eventually fails with EPIPE — while honest clients
/// keep being served; an unhardened daemon leaks a parked connection
/// thread per client (reported as `connected - evicted` survivors).
pub fn slowloris(
    addr: &Addr,
    clients: usize,
    interval: std::time::Duration,
    max_wait: std::time::Duration,
) -> SlowlorisReport {
    let report = Mutex::new(SlowlorisReport { connected: 0, evicted: 0, evict_secs: Vec::new() });
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let report = &report;
            scope.spawn(move || {
                let Ok(mut stream) = raw_stream(addr) else { return };
                report.lock().unwrap().connected += 1;
                let started = Instant::now();
                while started.elapsed() < max_wait {
                    // One byte of an endless request line. The daemon's
                    // eviction lands as a failed write (EPIPE) — maybe
                    // one byte late, since the first write after the
                    // close can still land in the kernel buffer.
                    if stream.write_all(b"x").and_then(|_| stream.flush()).is_err() {
                        let mut r = report.lock().unwrap();
                        r.evicted += 1;
                        r.evict_secs.push(started.elapsed().as_secs_f64());
                        return;
                    }
                    std::thread::sleep(interval);
                }
            });
        }
    });
    report.into_inner().unwrap()
}

/// A process-wide monotonically increasing counter for unique temp
/// names in tests.
pub static UNIQUE: AtomicU64 = AtomicU64::new(0);

pub fn unique_id() -> u64 {
    UNIQUE.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_percentiles_and_merge() {
        let mut h = Histogram::default();
        for us in [1u64, 2, 3, 100, 100, 100, 100, 100, 100, 5000] {
            h.record(us);
        }
        assert_eq!(h.count(), 10);
        assert!(h.mean_us() > 0);
        // p50 lands in the 64..128 bucket (the six 100µs samples).
        assert_eq!(h.percentile_us(50.0), 128);
        // p99 reaches the 4096..8192 bucket (the 5000µs tail), whose
        // upper edge is clamped to the largest sample actually seen.
        assert_eq!(h.percentile_us(99.0), 5000);
        assert_eq!(h.max_us, 5000);
        let mut other = Histogram::default();
        other.record(1_000_000);
        h.merge(&other);
        assert_eq!(h.count(), 11);
        assert_eq!(h.max_us, 1_000_000);
        // Report JSON parses and carries the percentiles.
        let v = Json::parse(&h.to_json()).unwrap();
        assert_eq!(v.get_uint("count"), Some(11));
        assert!(v.get_uint("p99_us").unwrap() >= 8192);
    }

    #[test]
    fn zero_sample_histogram_is_calm() {
        let h = Histogram::default();
        assert_eq!(h.percentile_us(99.0), 0);
        assert_eq!(h.mean_us(), 0);
        assert!(Json::parse(&h.to_json()).is_ok());
    }

    #[test]
    fn chaos_requests_rotate_the_fault_menu() {
        let cfg = AttackConfig {
            addr: Addr::Unix("/tmp/x.sock".into()),
            clients: 1,
            requests: 9,
            spec: "\"bench\":\"EP\",\"class\":\"S\"".into(),
            seeds: 4,
            chaos: true,
            ramp: false,
        };
        let lines: Vec<String> = (0..9).map(|r| submit_line(&cfg, 0, r)).collect();
        let injected: Vec<&String> = lines.iter().filter(|l| l.contains("inject")).collect();
        assert_eq!(injected.len(), 3, "every third request carries a fault");
        assert!(injected[0].contains("hang:1"));
        assert!(injected[1].contains("panic:1"));
        assert!(injected[2].contains("bitflip:1"));
        // Every line is a valid submit the daemon would parse.
        for l in &lines {
            crate::proto::Request::parse(l).unwrap();
        }
    }

    #[test]
    fn report_json_is_parseable() {
        let cfg = AttackConfig {
            addr: Addr::Tcp("127.0.0.1:7777".into()),
            clients: 8,
            requests: 4,
            spec: "\"bench\":\"EP\"".into(),
            seeds: 1,
            chaos: false,
            ramp: true,
        };
        let report = AttackReport {
            tallies: AttackTallies {
                sent: 32,
                done_verified: 30,
                rejected_queue_full: 2,
                ..Default::default()
            },
            latency: Histogram::default(),
            saturation_clients: Some(4),
            wall_secs: 1.25,
        };
        let v = Json::parse(&report.to_json(&cfg)).unwrap();
        assert_eq!(v.get_str("bench"), Some("service"));
        assert_eq!(v.get_uint("saturation_clients"), Some(4));
        assert_eq!(v.get_uint("sent"), Some(32));
    }
}
