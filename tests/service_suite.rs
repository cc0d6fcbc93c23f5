//! Integration suite for the `npbd` service: the Level 4 containment
//! story, exercised through real daemons, real sockets, and real
//! supervised `npb` children.
//!
//! Covered here:
//! * submit → verified; identical submit → cache hit without a child
//!   spawn; concurrent identical submits → single-flight dedupe;
//! * costed admission: queue-full rejection under load, with the
//!   queue recovering afterwards;
//! * per-job fault policy: a hanging job is deadline-killed, journaled,
//!   and retried to a verified result;
//! * crash safety: SIGKILL the daemon mid-job, restart `--resume`,
//!   every accepted job still reaches a terminal disposition and the
//!   re-run result is served from cache afterwards;
//! * graceful drain: SIGTERM stops admission (`rejected:draining`),
//!   running jobs finish, the journal is sealed, exit code 0 —
//!   and the chaos acceptance run: 32 concurrent `npb-attack` clients
//!   with a mid-run SIGKILL, no accepted job lost.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use npb_core::json::Json;
use npb_service::client::Client;
use npb_service::journal::recover;
use npb_service::server::Addr;
use npb_service::signal;

/// These tests assert on *timing* (a job still being in flight when a
/// second request lands). Run them one daemon at a time: five daemons
/// plus 32 attack clients sharing the test box's cores turns "still in
/// flight" into a coin flip.
static ONE_DAEMON_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    ONE_DAEMON_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// Unique temp paths per test so parallel tests never share a socket.
fn temp(name: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("npbd-suite-{}-{name}.{ext}", std::process::id()))
}

struct DaemonFixture {
    child: Child,
    addr: Addr,
    journal: PathBuf,
    socket: PathBuf,
}

impl DaemonFixture {
    /// Start an `npbd` on a fresh Unix socket. `extra` appends CLI
    /// flags (`--queue-cost`, `--resume`, ...).
    fn start(name: &str, extra: &[&str]) -> DaemonFixture {
        let socket = temp(name, "sock");
        let journal = temp(name, "journal.jsonl");
        if !extra.contains(&"--resume") {
            let _ = std::fs::remove_file(&journal);
        }
        let _ = std::fs::remove_file(&socket);
        // Daemon stderr goes to a log file so a failing test can show
        // what the daemon saw.
        let log = std::fs::File::create(temp(name, "stderr.log")).expect("create daemon log");
        let child = Command::new(env!("CARGO_BIN_EXE_npbd"))
            .arg("--socket")
            .arg(&socket)
            .arg("--journal")
            .arg(&journal)
            .args(["--npb-bin", env!("CARGO_BIN_EXE_npb"), "--backoff-ms", "0"])
            .args(extra)
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .expect("spawn npbd");
        DaemonFixture { child, addr: Addr::Unix(socket.clone()), journal, socket }
    }

    fn client(&self) -> Client {
        Client::connect_retry(&self.addr, 100).expect("connect to npbd")
    }

    /// Graceful drain via the wire op; returns the daemon's exit code.
    fn drain_and_wait(&mut self) -> i32 {
        let mut c = self.client();
        let reply = c.request("{\"op\":\"drain\"}").expect("drain reply");
        assert_eq!(reply.get_str("status"), Some("draining"));
        self.wait_exit()
    }

    fn wait_exit(&mut self) -> i32 {
        let status = self.child.wait().expect("wait npbd");
        status.code().unwrap_or(-1)
    }

    fn cleanup(&self) {
        let _ = std::fs::remove_file(&self.journal);
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for DaemonFixture {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn submit_line(extra: &str) -> String {
    format!("{{\"op\":\"submit\",\"bench\":\"EP\",\"class\":\"S\"{extra}}}")
}

#[test]
fn submit_cache_hit_and_dedupe() {
    let _serial = serialized();
    let mut d = DaemonFixture::start("cache", &["--workers", "2", "--queue-cost", "8"]);

    // Cold submit: accepted, executed, verified.
    let replies = d.client().submit(&submit_line(",\"threads\":2,\"seed\":11")).unwrap();
    assert_eq!(replies[0].get_str("status"), Some("accepted"));
    assert_eq!(replies[0].get("dedup"), Some(&Json::Bool(false)));
    assert_eq!(replies[1].get_str("disposition"), Some("verified"));
    assert_eq!(replies[1].get("from_cache"), Some(&Json::Bool(false)));

    // Identical submit: served from cache, no second execution.
    let replies = d.client().submit(&submit_line(",\"threads\":2,\"seed\":11")).unwrap();
    assert_eq!(replies.len(), 1, "cache hits skip the accepted line: {replies:?}");
    assert_eq!(replies[0].get("from_cache"), Some(&Json::Bool(true)));
    assert_eq!(replies[0].get_str("disposition"), Some("verified"));

    // A *different* job (new seed) submitted concurrently from several
    // clients dedupes onto one execution.
    let line = submit_line(",\"threads\":2,\"seed\":12");
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let (addr, line) = (d.addr.clone(), line.clone());
            std::thread::spawn(move || {
                Client::connect_retry(&addr, 100).unwrap().submit(&line).unwrap()
            })
        })
        .collect();
    let mut dedup_count = 0;
    for h in handles {
        let replies = h.join().unwrap();
        let terminal = replies.last().unwrap();
        assert_eq!(terminal.get_str("disposition"), Some("verified"), "{replies:?}");
        if replies[0].get("dedup") == Some(&Json::Bool(true)) {
            dedup_count += 1;
        }
    }
    assert!(dedup_count >= 1, "concurrent identical submits must dedupe");

    // stats agrees: one cache hit, at least one dedupe, and exactly two
    // distinct executions (seed 11, seed 12) no matter how many submits.
    let stats = d.client().request("{\"op\":\"stats\"}").unwrap();
    assert_eq!(stats.get_uint("executed"), Some(2), "{stats:?}");
    assert!(stats.get_uint("cache_hits").unwrap() >= 1);
    assert!(stats.get_uint("deduped").unwrap() >= 1);

    assert_eq!(d.drain_and_wait(), 0);
    d.cleanup();
}

#[test]
fn queue_full_rejection_under_load_is_explicit_and_recoverable() {
    let _serial = serialized();
    // Capacity 1 cost unit, 1 worker: the first S job fills the queue.
    let mut d = DaemonFixture::start("backpressure", &["--workers", "1", "--queue-cost", "1"]);

    // Occupy the only slot with a job that hangs long enough to observe
    // backpressure (deadline-killed after 3s, then a clean retry).
    let mut holder = d.client();
    holder
        .send(&submit_line(
            ",\"threads\":2,\"seed\":21,\"inject\":\"hang:1\",\"deadline_ms\":3000,\"retries\":1",
        ))
        .unwrap();
    let accepted = holder.read_line().unwrap();
    assert!(accepted.contains("\"status\":\"accepted\""), "{accepted}");

    // While it holds the queue, every further submit is shed, loudly.
    let reply = d.client().submit(&submit_line(",\"threads\":2,\"seed\":22")).unwrap();
    assert_eq!(reply[0].get_str("status"), Some("rejected"), "{reply:?}");
    assert_eq!(reply[0].get_str("reason"), Some("queue-full"));

    // A job that can never fit gets its own reason (W costs 4 > 1).
    let reply = d
        .client()
        .submit("{\"op\":\"submit\",\"bench\":\"EP\",\"class\":\"W\",\"seed\":23}")
        .unwrap();
    assert_eq!(reply[0].get_str("reason"), Some("cost-exceeds-capacity"), "{reply:?}");

    // The holder's job finishes (deadline-kill + clean retry) and the
    // queue recovers: the same rejected submit is now admitted.
    let terminal = holder.read_line().unwrap();
    assert!(terminal.contains("\"disposition\":\"verified\""), "{terminal}");
    let replies = d.client().submit(&submit_line(",\"threads\":2,\"seed\":22")).unwrap();
    assert_eq!(replies.last().unwrap().get_str("disposition"), Some("verified"), "{replies:?}");

    assert_eq!(d.drain_and_wait(), 0);
    d.cleanup();
}

#[test]
fn deadline_killed_job_is_journaled_and_retried() {
    let _serial = serialized();
    let mut d = DaemonFixture::start("deadline", &["--workers", "1", "--queue-cost", "8"]);

    // First attempt hangs (injected), the per-job deadline kills it,
    // the retry runs clean (faults are one-shot) and verifies.
    let replies = d
        .client()
        .submit(&submit_line(
            ",\"threads\":2,\"seed\":31,\"inject\":\"hang:1\",\"deadline_ms\":2000,\"retries\":1",
        ))
        .unwrap();
    let terminal = replies.last().unwrap();
    assert_eq!(terminal.get_str("disposition"), Some("verified"), "{replies:?}");
    assert_eq!(terminal.get_uint("kills"), Some(1), "the hung attempt was deadline-killed");
    assert_eq!(terminal.get_uint("attempts"), Some(2), "kill + clean retry");

    assert_eq!(d.drain_and_wait(), 0);

    // The journal carries the full story: accepted with the policy,
    // started, and a terminal `done` recording the kill.
    let text = std::fs::read_to_string(&d.journal).unwrap();
    assert!(text.contains("\"ev\":\"accepted\"") && text.contains("\"inject\":\"hang:1\""));
    assert!(text.contains("\"ev\":\"done\"") && text.contains("\"kills\":1"), "{text}");
    let rec = recover(&d.journal).unwrap();
    assert!(rec.pending.is_empty(), "the killed-and-retried job is terminal");
    assert_eq!(rec.completed, 1);
    d.cleanup();
}

#[test]
fn graceful_drain_finishes_running_jobs_and_refuses_new_ones() {
    let _serial = serialized();
    let mut d = DaemonFixture::start("drain", &["--workers", "1", "--queue-cost", "8"]);

    // A slow job (hang + 2s deadline + retry) is mid-flight when the
    // drain starts.
    let mut slow = d.client();
    slow.send(&submit_line(
        ",\"threads\":2,\"seed\":41,\"inject\":\"hang:1\",\"deadline_ms\":2000,\"retries\":1",
    ))
    .unwrap();
    assert!(slow.read_line().unwrap().contains("accepted"));

    // SIGTERM → graceful drain (the same path as the `drain` op).
    assert!(signal::send(d.child.id(), signal::SIGTERM));

    // Give the watcher a beat, then: new submits are refused with the
    // draining reason — an explicit reply, not a dropped connection.
    std::thread::sleep(Duration::from_millis(300));
    let reply = d.client().submit(&submit_line(",\"threads\":2,\"seed\":42")).unwrap();
    assert_eq!(reply[0].get_str("reason"), Some("draining"), "{reply:?}");

    // The in-flight job still runs to its verified terminal line...
    let terminal = slow.read_line().unwrap();
    assert!(terminal.contains("\"disposition\":\"verified\""), "{terminal}");

    // ...and the daemon exits 0 with a sealed journal.
    assert_eq!(d.wait_exit(), 0);
    let rec = recover(&d.journal).unwrap();
    assert!(rec.clean_shutdown, "shutdown record sealed the journal");
    assert!(rec.pending.is_empty());
    assert_eq!(rec.completed, 1, "the drained job is terminal, the refused one never accepted");
    d.cleanup();
}

/// Hostile-client containment: slowloris clients trickling one byte at
/// a time are evicted by the read deadline while an honest client's
/// submits keep verifying. Uses short trickle intervals so the whole
/// campaign fits in a few seconds; the daemon's 300ms read deadline
/// fires between bytes either way.
#[test]
fn slowloris_clients_are_evicted_while_honest_clients_progress() {
    let _serial = serialized();
    let mut d = DaemonFixture::start(
        "slowloris",
        &["--workers", "2", "--queue-cost", "8", "--read-deadline-ms", "300"],
    );
    // Make sure the daemon is up before the attack (an honest ping).
    let pong = d.client().request("{\"op\":\"ping\"}").unwrap();
    assert_eq!(pong.get_str("status"), Some("pong"));

    let addr = d.addr.clone();
    let attack = std::thread::spawn(move || {
        npb_service::attack::slowloris(&addr, 4, Duration::from_secs(1), Duration::from_secs(20))
    });

    // While the attackers hold their trickling connections, honest
    // clients are served: submit and verify a real job.
    let replies = d.client().submit(&submit_line(",\"threads\":2,\"seed\":71")).unwrap();
    assert_eq!(replies.last().unwrap().get_str("disposition"), Some("verified"), "{replies:?}");

    let report = attack.join().unwrap();
    assert_eq!(report.connected, 4, "all attackers connected");
    assert_eq!(
        report.evicted, report.connected,
        "the read deadline evicted every slowloris client: {report:?}"
    );
    assert!(
        report.evict_secs.iter().all(|&s| s < 10.0),
        "evictions were prompt, not eventual: {report:?}"
    );

    // The CLI's campaign exits 0 when every client was evicted.
    let out =
        attack_within(&d, &["--slowloris", "2", "--max-wait-s", "10"], Duration::from_secs(30));
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let report = Json::parse(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    assert_eq!(report.get_uint("evicted"), Some(2), "{report:?}");

    assert_eq!(d.drain_and_wait(), 0);
    d.cleanup();
}

/// Journal fault containment: with sticky fsync-failure injection armed
/// on the journal, the daemon *seals* — the tripped request (or a
/// later one) gets `rejected:io-degraded`, owed work still reaches its
/// terminal line, and the drained daemon exits 0 instead of panicking.
#[test]
fn journal_write_failure_seals_and_drains_cleanly() {
    let _serial = serialized();
    // Seed 7 trips the journal surface quickly but not instantly (the
    // daemon-header record at startup is best-effort either way).
    let mut d = DaemonFixture::start(
        "seal",
        &["--workers", "1", "--queue-cost", "8", "--io-inject", "fsync-fail:7"],
    );

    // Submit distinct jobs until the sticky injection trips. Every
    // reply is structured: accepted+done before the trip,
    // rejected:io-degraded after — never a dropped connection.
    let mut sealed = false;
    for seed in 0..32 {
        let line = submit_line(&format!(",\"threads\":2,\"seed\":{}", 80 + seed));
        let Ok(replies) = d.client().submit(&line) else {
            // The daemon may finish its seal-drain and exit while we
            // probe; that IS the sealed outcome.
            sealed = true;
            break;
        };
        let first = &replies[0];
        match first.get_str("status") {
            Some("rejected") => {
                // "io-degraded" when this very accept tripped the
                // journal; "draining" when an earlier terminal record
                // did (seal implies drain, and no drain op was sent).
                let reason = first.get_str("reason");
                assert!(reason == Some("io-degraded") || reason == Some("draining"), "{replies:?}");
                sealed = true;
                break;
            }
            Some(_) => {
                // Accepted before the trip: the job must still reach a
                // terminal line (owed work is finished, not dropped).
                assert!(replies.last().unwrap().get_str("disposition").is_some(), "{replies:?}");
            }
            None => panic!("unstructured reply: {replies:?}"),
        }
    }
    assert!(sealed, "fsync-fail:7 must trip within 32 journal records");

    // Sealing implies draining: the daemon finishes owed work and
    // exits 0 on its own — no drain op needed, no panic, no hang.
    assert_eq!(d.wait_exit(), 0, "sealed daemon exits cleanly after the drain");
    d.cleanup();
}

/// The acceptance chaos run: 32 concurrent attack clients, SIGKILL the
/// daemon while a job is provably in flight and the attack still runs,
/// restart with `--resume`. No accepted job may be lost, the journal
/// must converge to all-terminal, the job that was in flight at the kill
/// is served from cache afterwards, and the attack's clients rode out
/// the kill by reconnecting.
#[test]
fn chaos_sigkill_resume_loses_no_accepted_job() {
    let _serial = serialized();
    let mut d = DaemonFixture::start("chaos", &["--workers", "2", "--queue-cost", "8"]);

    // 32 clients × 2 requests over 6 seeds: heavy dedupe/cache traffic
    // plus enough distinct jobs to keep both workers busy.
    let mut attack = Command::new(env!("CARGO_BIN_EXE_npb-attack"))
        .arg("--socket")
        .arg(d.socket.as_os_str())
        .args(["--clients", "32", "--requests", "2", "--seeds", "6"])
        .args(["--bench", "EP", "--class", "S", "--threads", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn npb-attack");

    // Wait (bounded) until the journal shows an accepted job with no
    // terminal record, then SIGKILL the daemon — no drain, no warning,
    // mid-job.
    let deadline = Instant::now() + Duration::from_secs(30);
    while recover(&d.journal).map(|rec| rec.pending.is_empty()).unwrap_or(true) {
        assert!(Instant::now() < deadline, "no job ever in flight");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(attack.try_wait().unwrap().is_none(), "the attack ended before the SIGKILL");
    assert!(signal::send(d.child.id(), signal::SIGKILL));
    let _ = d.child.wait();

    // The journal now has accepted jobs with no terminal record.
    let pending = recover(&d.journal).unwrap().pending;
    let lost = pending.len();
    assert!(lost >= 1, "no job in flight at the SIGKILL");

    // Restart on the same socket and journal with --resume: incomplete
    // jobs are re-enqueued, verified ones seed the cache. The attack's
    // clients reconnect on their own.
    let mut d2 =
        DaemonFixture::start("chaos", &["--workers", "2", "--queue-cost", "8", "--resume"]);
    let out = attack.wait_with_output().expect("attack exits");
    assert!(out.status.success(), "npb-attack must survive the daemon's death");

    // Wait (bounded) for the resumed daemon to finish the re-enqueued
    // jobs, then every journaled job must have a terminal disposition.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let rec = recover(&d2.journal).unwrap();
        if rec.pending.is_empty() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "jobs still pending after resume: {:?}",
            rec.pending.iter().map(|s| s.to_string()).collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(200));
    }

    // The job in flight at the kill is now a cache hit — served without
    // a child spawn, proving the resumed daemon kept its result. The
    // resubmit carries the journaled spec, policy included: the policy
    // is part of the content address.
    let resubmit = format!("{{\"op\":\"submit\",{}}}", pending[0].json_fields());
    let replies = d2.client().submit(&resubmit).unwrap();
    assert_eq!(replies[0].get("from_cache"), Some(&Json::Bool(true)), "{replies:?}");

    assert_eq!(d2.drain_and_wait(), 0);
    eprintln!("chaos: {lost} job(s) in flight at SIGKILL, all recovered");

    // The attack's report: every request sent, and the clients waiting
    // on the killed daemon saw their connection drop.
    let report = String::from_utf8_lossy(&out.stdout);
    let v = Json::parse(report.trim()).unwrap();
    assert_eq!(v.get_str("bench"), Some("service"));
    assert!(v.get_uint("sent").unwrap() >= 64, "all 32 clients × 2 requests sent: {report}");
    assert!(v.get_uint("io_errors").unwrap() >= 1, "no client saw the SIGKILL: {report}");

    d2.cleanup();
}

#[test]
fn attack_without_out_prints_the_report_on_stdout() {
    let _serial = serialized();
    let mut d = DaemonFixture::start("stdout", &["--workers", "1"]);
    let cwd = temp("stdout", "cwd");
    std::fs::create_dir_all(&cwd).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_npb-attack"))
        .arg("--socket")
        .arg(&d.socket)
        .args(["--clients", "1", "--requests", "1", "--seeds", "1"])
        .current_dir(&cwd)
        .output()
        .expect("run npb-attack");
    assert!(out.status.success(), "{out:?}");
    let report = Json::parse(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    assert_eq!(report.get_uint("sent"), Some(1), "{report:?}");
    assert_eq!(std::fs::read_dir(&cwd).unwrap().count(), 0, "npb-attack wrote into its cwd");
    std::fs::remove_dir(&cwd).ok();

    // `--once` with a fire-and-forget submit, spaced as a hand-typed
    // request would be: one `accepted` line, and no wait for a terminal
    // line the daemon never sends.
    let out = attack_within(
        &d,
        &["--once", r#"{"op":"submit","bench":"EP","class":"S","seed":2, "wait": false}"#],
        Duration::from_secs(10),
    );
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "{stdout}");
    assert_eq!(Json::parse(lines[0]).unwrap().get_str("status"), Some("accepted"), "{stdout}");

    // A rejected `--once` exits 3, so a shell can test for backpressure.
    let out = attack_within(
        &d,
        &["--once", r#"{"op":"submit","bench":"EP","class":"C"}"#],
        Duration::from_secs(10),
    );
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("cost-exceeds-capacity"), "{out:?}");
    assert_eq!(d.drain_and_wait(), 0);
    d.cleanup();
}

/// Run `npb-attack` against `d` with `args`; kill it and fail if it is
/// still running after `limit`.
fn attack_within(d: &DaemonFixture, args: &[&str], limit: Duration) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_npb-attack"))
        .arg("--socket")
        .arg(&d.socket)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn npb-attack");
    let deadline = Instant::now() + limit;
    while child.try_wait().unwrap().is_none() {
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("npb-attack {args:?} still running after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().unwrap()
}
