//! `npb-attack` — chaos and hostile-client load for the `npbd` daemon.
//!
//! ```text
//! npb-attack --socket PATH|tcp:HOST:PORT [--clients N] [--requests N]
//!            [--bench B] [--class C] [--threads T] [--seeds K] [--chaos]
//! npb-attack --socket ... --once JSON      # single request, reply on stdout
//! npb-attack --socket ... --slowloris N [--max-wait-s S]
//! ```
//!
//! N concurrent clients each submit `--requests` jobs and wait for the
//! terminal replies, reconnecting when the daemon dies under them.
//! `--seeds K` cycles K distinct seeds through the stream: `--seeds 1`
//! makes every client ask for the *same* job (a cache/dedupe stress),
//! larger K forces distinct executions. `--chaos` injects a rotating
//! fault (hang / panic / bitflip) into every third request, so the
//! daemon absorbs deadline-kills and retries while serving clean
//! traffic. The report is one JSON line of counts on stdout; measuring
//! the daemon is `benchmark/`'s job (`platform_s`).
//!
//! `--once JSON` sends a single raw request line and prints every reply
//! line to stdout — the scriptable probe the CI smoke test uses. A
//! rejection exits 3.
//!
//! `--slowloris N` opens N connections that each trickle one byte of a
//! request per second without ever completing a line — the classic
//! thread-starvation attack. Against a daemon armed with
//! `--read-deadline-ms` every client is evicted; the report (stdout
//! JSON) counts connections, evictions, and mean seconds to eviction.
//! Exit 0 when every client was evicted, 1 when any survived
//! `--max-wait-s` (default 30) still holding a connection.

use npb::expand_flag_args;
use npb_service::attack::{run, slowloris, AttackConfig};
use npb_service::client::Client;
use npb_service::server::Addr;

fn usage() -> ! {
    eprintln!(
        "usage: npb-attack --socket PATH|tcp:HOST:PORT [--clients N] [--requests N]\n\
         \x20                [--bench B] [--class C] [--threads T] [--seeds K] [--chaos]\n\
         \x20      npb-attack --socket ... --once JSON\n\
         \x20      npb-attack --socket ... --slowloris N [--max-wait-s S]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut socket: Option<String> = None;
    let mut clients = 8usize;
    let mut requests = 8usize;
    let mut bench = "EP".to_string();
    let mut class = "S".to_string();
    let mut threads = 0usize;
    let mut seeds = 4u64;
    let mut chaos = false;
    let mut once: Option<String> = None;
    let mut slowloris_clients: Option<usize> = None;
    let mut max_wait_s = 30u64;

    let expanded = expand_flag_args(&args);
    let mut it = expanded.iter();
    while let Some(flag) = it.next() {
        let val = |it: &mut std::slice::Iter<String>| -> String {
            it.next().cloned().unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--socket" => socket = Some(val(&mut it)),
            "--clients" => clients = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--requests" => requests = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--bench" => bench = val(&mut it).to_ascii_uppercase(),
            "--class" => class = val(&mut it).to_ascii_uppercase(),
            "--threads" => threads = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--seeds" => seeds = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--chaos" => chaos = true,
            "--once" => once = Some(val(&mut it)),
            "--slowloris" => {
                slowloris_clients = Some(val(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--max-wait-s" => max_wait_s = val(&mut it).parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    let Some(socket) = socket else { usage() };
    let addr = Addr::parse(&socket);

    // Slowloris mode: trickle bytes, report evictions.
    if let Some(n) = slowloris_clients {
        let report = slowloris(
            &addr,
            n.max(1),
            std::time::Duration::from_secs(1),
            std::time::Duration::from_secs(max_wait_s),
        );
        println!("{}", report.to_json());
        std::process::exit(if report.evicted == report.connected { 0 } else { 1 });
    }

    // Scriptable single-shot probe: one request line, replies verbatim.
    if let Some(line) = once {
        let mut client = Client::connect_retry(&addr, 40).unwrap_or_else(|e| {
            eprintln!("npb-attack: cannot connect to {addr}: {e}");
            std::process::exit(1);
        });
        match client.exchange(&line) {
            Ok(replies) => {
                replies.iter().for_each(|reply| println!("{reply}"));
                // A rejected submit is a nonzero exit so shell tests can
                // assert on backpressure without parsing.
                if replies.iter().any(|reply| reply.contains("\"status\":\"rejected\"")) {
                    std::process::exit(3);
                }
            }
            Err(e) => {
                eprintln!("npb-attack: request failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    // Worker faults cannot be injected into a serial run (the driver
    // and the daemon reject that up front), so chaos mode needs a real
    // team.
    if chaos && threads == 0 {
        threads = 2;
    }
    let cfg = AttackConfig {
        addr,
        clients: clients.max(1),
        requests: requests.max(1),
        spec: format!(
            "\"bench\":\"{bench}\",\"class\":\"{class}\",\"threads\":{threads},\"deadline_ms\":10000"
        ),
        seeds: seeds.max(1),
        chaos,
    };
    println!("{}", run(&cfg).to_json(&cfg));
}
