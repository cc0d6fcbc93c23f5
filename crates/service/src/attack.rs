//! `npb-attack`'s loads: N concurrent clients that submit through
//! [`Client`], reconnect when the daemon dies under them and count how
//! every reply came back (chaos mode mixes hangs, panics and SDC flips
//! in), and the slowloris campaign. `benchmark/`'s `platform_s` workload
//! measures the daemon; nothing here does.

use std::sync::Mutex;
use std::time::Instant;

use npb_core::json::{json_escape, Json};

use crate::client::Client;
use crate::server::Addr;

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
}

/// What the clients sent and how every reply came back. A reply counts
/// under every label that applies: a cache hit is also verified.
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

impl AttackTallies {
    fn count(&mut self, reply: &Json) {
        match (reply.get_str("status"), reply.get_str("reason")) {
            (Some("rejected"), Some("queue-full")) => self.rejected_queue_full += 1,
            (Some("rejected"), Some("draining")) => self.rejected_draining += 1,
            (Some("rejected"), _) => self.rejected_other += 1,
            (Some("accepted"), _) => {
                if reply.get("dedup") == Some(&Json::Bool(true)) {
                    self.deduped += 1;
                }
            }
            (Some("done"), _) => {
                if reply.get("from_cache") == Some(&Json::Bool(true)) {
                    self.cache_hits += 1;
                }
                if reply.get_str("disposition") == Some("verified") {
                    self.done_verified += 1;
                } else {
                    self.done_failed += 1;
                }
            }
            _ => self.io_errors += 1,
        }
    }

    /// The report as one JSON line, for `npb-attack`'s stdout.
    pub fn to_json(&self, cfg: &AttackConfig) -> String {
        let AttackTallies { sent, done_verified, done_failed, cache_hits, deduped, .. } = self;
        let (queue_full, draining, other) =
            (self.rejected_queue_full, self.rejected_draining, self.rejected_other);
        format!(
            "{{\"bench\":\"service\",\"addr\":\"{}\",\"clients\":{},\"requests_per_client\":{},\
             \"chaos\":{},\"sent\":{sent},\"done_verified\":{done_verified},\
             \"done_failed\":{done_failed},\"cache_hits\":{cache_hits},\"deduped\":{deduped},\
             \"rejected\":{{\"queue_full\":{queue_full},\"draining\":{draining},\"other\":{other}}},\
             \"io_errors\":{}}}",
            json_escape(&cfg.addr.to_string()),
            cfg.clients,
            cfg.requests,
            cfg.chaos,
            self.io_errors,
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

fn run_client(cfg: &AttackConfig, client_id: usize, tallies: &Mutex<AttackTallies>) {
    let tally = || tallies.lock().expect("no client panics while counting");
    let Ok(mut client) = Client::connect_retry(&cfg.addr, 40) else {
        tally().io_errors += 1;
        return;
    };
    for req in 0..cfg.requests {
        tally().sent += 1;
        match client.submit(&submit_line(cfg, client_id, req)) {
            Ok(replies) => replies.iter().for_each(|reply| tally().count(reply)),
            Err(_) => {
                tally().io_errors += 1;
                // The daemon may have been SIGKILLed (chaos test) —
                // reconnect and keep attacking.
                match Client::connect_retry(&cfg.addr, 40) {
                    Ok(c) => client = c,
                    Err(_) => break,
                }
            }
        }
    }
}

/// Run `cfg.clients` concurrent clients to completion, every one
/// counting into the same tallies.
pub fn run(cfg: &AttackConfig) -> AttackTallies {
    let tallies = Mutex::new(AttackTallies::default());
    let shared = &tallies;
    std::thread::scope(|scope| {
        for id in 0..cfg.clients {
            scope.spawn(move || run_client(cfg, id, shared));
        }
    });
    tallies.into_inner().expect("no client panics while counting")
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
                let Ok(mut stream) = Client::connect(addr) else { return };
                report.lock().unwrap().connected += 1;
                let started = Instant::now();
                while started.elapsed() < max_wait {
                    // One byte of an endless request line. The daemon's
                    // eviction lands as a failed write (EPIPE) — maybe
                    // one byte late, since the first write after the
                    // close can still land in the kernel buffer.
                    if stream.send_raw(b"x").is_err() {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(chaos: bool) -> AttackConfig {
        // Two threads, as the CLI's `--chaos` runs: the daemon refuses a
        // worker fault without a worker.
        let spec = "\"bench\":\"EP\",\"threads\":2".into();
        let addr = Addr::Unix("/tmp/x\"y.sock".into());
        AttackConfig { addr, clients: 1, requests: 9, spec, seeds: 4, chaos }
    }

    #[test]
    fn chaos_requests_rotate_the_fault_menu() {
        let lines: Vec<String> = (0..9).map(|r| submit_line(&cfg(true), 0, r)).collect();
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
        let mut tallies = AttackTallies { sent: 2, ..Default::default() };
        for reply in [
            r#"{"status":"accepted","dedup":true}"#,
            r#"{"status":"done","from_cache":true,"disposition":"verified"}"#,
            r#"{"status":"rejected","reason":"queue-full"}"#,
        ] {
            tallies.count(&Json::parse(reply).unwrap());
        }
        let v = Json::parse(&tallies.to_json(&cfg(false))).unwrap();
        assert_eq!(v.get_str("addr"), Some("/tmp/x\"y.sock"), "the address is escaped");
        // A cache hit is also verified.
        for (key, n) in [("sent", 2), ("cache_hits", 1), ("done_verified", 1), ("deduped", 1)] {
            assert_eq!(v.get_uint(key), Some(n), "{key}");
        }
        assert_eq!(v.get("rejected").and_then(|r| r.get_uint("queue_full")), Some(1));
    }
}
