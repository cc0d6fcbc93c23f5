//! The one durable log: an append-only JSONL file whose records survive
//! a crash at any instant. The run manifest (`npb-harness`) and the
//! `npbd` job journal (`npb-service`) are formatters and interpreters
//! over it; the record format and the torn-tail rule live only here.
//!
//! **Writing.** A record is one JSON object on one line, appended by
//! [`AppendLog::record`] as one `write` + `flush` + `fsync`. There is no
//! framing to corrupt and no state to rewrite, so a writer killed at any
//! instant, or a write tripped by `--io-inject`, loses at most the
//! record in flight.
//!
//! **The torn-tail rule.** A record is real only once its `\n` hit the
//! disk. [`replay`] reads raw bytes, trusts only `\n`-terminated lines
//! and counts everything else — the unterminated tail, a line that does
//! not parse (including one cut inside a `\uXXXX` escape or a UTF-8
//! sequence) — as torn, never misread. [`AppendLog::open`] cuts that
//! tail before it appends, so a record written after a crash starts on
//! a line of its own instead of being glued to the torn bytes, and a
//! second replay agrees with the first.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;

use crate::iofault::{FaultFile, IoFaultPlan};
use crate::json::Json;

/// An append-only JSONL log. It rides a [`FaultFile`], so an armed
/// [`IoFaultPlan`] fails, tears or un-syncs records deterministically,
/// and callers can prove that a failed append loses at most the
/// in-flight record.
pub struct AppendLog {
    file: FaultFile,
}

impl AppendLog {
    /// Create (or truncate) the log at `path`. `surface` names the log
    /// to the fault injector, which draws a stream per surface.
    pub fn create(
        path: &Path,
        surface: &str,
        inject: Option<IoFaultPlan>,
    ) -> io::Result<AppendLog> {
        Ok(AppendLog { file: FaultFile::new(File::create(path)?, surface, inject) })
    }

    /// Open the log at `path` for appending, creating it if missing. A
    /// file that does not end in `\n` is cut back to its last `\n` and
    /// synced once before the first append.
    pub fn open(path: &Path, surface: &str, inject: Option<IoFaultPlan>) -> io::Result<AppendLog> {
        let mut file = OpenOptions::new().create(true).read(true).append(true).open(path)?;
        cut_torn_tail(&mut file)?;
        Ok(AppendLog { file: FaultFile::new(file, surface, inject) })
    }

    /// Append `record` as one line: write + flush + fsync. The record and
    /// its newline go down as ONE write — one durable op, so a tripped
    /// injection fails (or tears) the whole record instead of landing
    /// the bytes and failing only the line terminator. An error here may
    /// have torn at most this one record. (The flush alone reaches only
    /// the page cache; the fsync puts the record on the device before the
    /// caller acts on it, so an acknowledged record survives power loss.)
    pub fn record(&mut self, record: &str) -> io::Result<()> {
        let mut line = String::with_capacity(record.len() + 1);
        line.push_str(record);
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        self.file.sync_data()
    }
}

fn cut_torn_tail(file: &mut File) -> io::Result<()> {
    if file.metadata()?.len() == 0 {
        return Ok(());
    }
    let mut last = [0u8];
    file.seek(SeekFrom::End(-1))?;
    file.read_exact(&mut last)?;
    if last[0] == b'\n' {
        return Ok(());
    }
    let mut bytes = Vec::new();
    file.seek(SeekFrom::Start(0))?;
    file.read_to_end(&mut bytes)?;
    let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    file.set_len(keep as u64)?;
    file.sync_data()
}

/// What [`replay`] read back from a log.
#[derive(Debug, Default)]
pub struct Replay {
    /// Every `\n`-terminated line that parsed, in file order.
    pub records: Vec<Json>,
    /// Lines that did not parse, plus the unterminated tail if any: the
    /// torn record of a crash mid-append (more than one suggests damage
    /// other than a crash, so callers report the count).
    pub torn: usize,
}

/// Read the log at `path` back under the torn-tail rule. Blank lines are
/// skipped, and each line is decoded lossily so that invalid UTF-8 makes
/// a torn line, not an error. A missing file is the caller's policy: the
/// error comes back as is.
pub fn replay(path: &Path) -> io::Result<Replay> {
    let bytes = std::fs::read(path)?;
    let mut out = Replay::default();
    let mut lines = bytes.split(|&b| b == b'\n');
    // `split` yields at least one piece, and the last has no `\n`.
    if !lines.next_back().unwrap_or_default().is_empty() {
        out.torn += 1;
    }
    for line in lines {
        let line = String::from_utf8_lossy(line);
        if line.trim().is_empty() {
            continue;
        }
        match Json::parse(&line) {
            Ok(v) => out.records.push(v),
            Err(_) => out.torn += 1,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iofault::IoFaultKind;
    use crate::random::Randlc;
    use std::fs;
    use std::path::PathBuf;

    fn temp(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("npb-log-{}-{name}", std::process::id()));
        let _ = fs::remove_file(&path);
        path
    }

    const RECORDS: [&str; 3] = [
        "{\"ev\":\"accepted\",\"job\":\"a1\",\"seq\":0}",
        "{\"event\":\"cell\",\"bench\":\"pr\\u00e9 \\\"q\\\"\",\"mops\":1.5e3}",
        "{\"ev\":\"done\",\"arr\":[1,null,true],\"o\":{}}",
    ];

    fn parsed(records: &[&str]) -> Vec<Json> {
        records.iter().map(|r| Json::parse(r).expect("a test record parses")).collect()
    }

    #[test]
    fn enospc_loses_at_most_the_inflight_record() {
        let path = temp("enospc");
        let plan = IoFaultPlan { kind: IoFaultKind::Enospc, seed: 42 };
        let mut log = AppendLog::create(&path, "test", Some(plan)).unwrap();
        let mut landed = 0usize;
        let mut failed = false;
        for i in 0..64 {
            match log.record(&format!("{{\"n\":{i}}}")) {
                Ok(()) => landed += 1,
                Err(e) => {
                    failed = true;
                    assert!(e.to_string().contains("injected"), "error names the injection");
                    break;
                }
            }
        }
        assert!(failed, "the armed writer must trip within 64 records");
        // Every *completed* record survives whole; a torn prefix of the
        // failed record is allowed but no full bogus line is.
        let text = fs::read_to_string(&path).unwrap();
        let whole: Vec<&str> = text.lines().filter(|l| l.ends_with('}')).collect();
        assert_eq!(whole.len(), landed, "completed records all reached the disk");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn short_write_tears_exactly_one_record() {
        let path = temp("short");
        let plan = IoFaultPlan { kind: IoFaultKind::ShortWrite, seed: 5 };
        let mut log = AppendLog::create(&path, "test", Some(plan)).unwrap();
        let record = "{\"payload\":\"0123456789abcdef0123456789abcdef\"}";
        let mut errs = 0usize;
        for _ in 0..64 {
            if log.record(record).is_err() {
                errs += 1;
                if errs == 1 {
                    break;
                }
            }
        }
        assert_eq!(errs, 1, "short-write trips");
        let text = fs::read_to_string(&path).unwrap();
        // The torn prefix (if it is the record write that tore, not the
        // newline) is strictly shorter than the record and unparseable
        // as a full line; every earlier line is whole.
        for line in text.lines().take(text.lines().count().saturating_sub(1)) {
            assert_eq!(line, record, "earlier records are untouched");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fsync_fail_lets_writes_through_but_fails_sync() {
        let path = temp("fsync");
        let plan = IoFaultPlan { kind: IoFaultKind::FsyncFail, seed: 9 };
        let mut log = AppendLog::create(&path, "test", Some(plan)).unwrap();
        let mut tripped = false;
        for i in 0..64 {
            match log.record(&format!("{{\"n\":{i}}}")) {
                Ok(()) => {}
                Err(e) => {
                    tripped = true;
                    assert!(e.to_string().contains("fsync"), "the failure is the sync: {e}");
                    break;
                }
            }
        }
        assert!(tripped, "fsync-fail trips within 64 records");
        // Sticky: once durability is gone it stays gone.
        let err = log.record("{\"again\":true}");
        assert!(err.is_err(), "fsync failure is sticky");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn an_unarmed_log_is_a_passthrough_control() {
        // The unguarded control: no plan, no injection, every record
        // lands — documents that injection is opt-in.
        let path = temp("control");
        let mut log = AppendLog::create(&path, "test", None).unwrap();
        for i in 0..128 {
            log.record(&format!("{{\"n\":{i}}}")).expect("unarmed writer never fails");
        }
        assert_eq!(fs::read_to_string(&path).unwrap().lines().count(), 128);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_torn_tail_is_cut_on_reopen_and_the_next_record_reads_back() {
        let path = temp("reopen");
        let mut log = AppendLog::open(&path, "test", None).expect("open creates a missing log");
        log.record(RECORDS[0]).unwrap();
        drop(log);
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&RECORDS[1].as_bytes()[..20]);
        fs::write(&path, &bytes).unwrap();
        let first = replay(&path).unwrap();
        assert_eq!((first.records, first.torn), (parsed(&RECORDS[..1]), 1));

        let mut log = AppendLog::open(&path, "test", None).unwrap();
        log.record(RECORDS[2]).unwrap();
        drop(log);
        let second = replay(&path).unwrap();
        assert_eq!(second.records, parsed(&[RECORDS[0], RECORDS[2]]), "nothing glued");
        assert_eq!(second.torn, 0, "the reopen cut the torn bytes");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn an_unterminated_tail_is_torn_even_when_it_parses_or_is_not_utf8() {
        let path = temp("tails");
        for tail in [RECORDS[1].as_bytes(), &[0xff, 0xfe]] {
            let mut log = AppendLog::create(&path, "test", None).unwrap();
            log.record(RECORDS[0]).unwrap();
            drop(log);
            let mut bytes = fs::read(&path).unwrap();
            bytes.extend_from_slice(tail);
            fs::write(&path, &bytes).unwrap();
            let got = replay(&path).expect("a torn tail is not an error");
            assert_eq!(
                (got.records, got.torn),
                (parsed(&RECORDS[..1]), 1),
                "tail {:?}",
                String::from_utf8_lossy(tail)
            );
        }
        let _ = fs::remove_file(&path);
        assert_eq!(replay(&path).unwrap_err().kind(), io::ErrorKind::NotFound);
    }

    /// Seeded fuzz over the reader: every prefix truncation and every
    /// single-byte flip of a valid three-record log. `replay` never
    /// panics; a truncation returns exactly the records whose `\n`
    /// landed; a flip leaves every line it did not touch intact and adds
    /// at most the one line it landed in, which it cannot tell from a
    /// record — unless the flip is to `\n`, which only ever tears.
    #[test]
    fn replay_survives_every_truncation_and_byte_flip() {
        let path = temp("fuzz");
        let bytes: Vec<u8> = RECORDS.iter().flat_map(|r| format!("{r}\n").into_bytes()).collect();
        let want = parsed(&RECORDS);
        let read = |b: &[u8]| {
            fs::write(&path, b).unwrap();
            replay(&path).unwrap()
        };
        for cut in 0..=bytes.len() {
            let got = read(&bytes[..cut]);
            let whole = bytes[..cut].iter().filter(|&&b| b == b'\n').count();
            assert_eq!(got.records, want[..whole], "prefix {cut}");
            assert_eq!(got.torn, usize::from(cut > 0 && bytes[cut - 1] != b'\n'), "prefix {cut}");
        }
        let mut rng = Randlc::from_seed(34);
        for pos in 0..bytes.len() {
            let mask = 1 + (rng.next_f64() * 255.0) as u8;
            for flip in [b'\n', bytes[pos] ^ mask] {
                if flip == bytes[pos] {
                    continue;
                }
                let mut b = bytes.clone();
                b[pos] = flip;
                let got = read(&b);
                // The line the flip landed in; flipping a `\n` merges it
                // with the next.
                let hit = bytes[..pos].iter().filter(|&&c| c == b'\n').count();
                let merged = usize::from(bytes[pos] == b'\n');
                let intact: Vec<Json> = (0..want.len())
                    .filter(|j| !(hit..=hit + merged).contains(j))
                    .map(|j| want[j].clone())
                    .collect();
                let kept: Vec<Json> =
                    got.records.iter().filter(|r| intact.contains(r)).cloned().collect();
                assert_eq!(kept, intact, "flip {flip:#04x} at {pos}");
                if flip == b'\n' {
                    assert_eq!(got.records, intact, "a split record tears at {pos}");
                } else {
                    assert!(got.records.len() <= intact.len() + 1, "flip {flip:#04x} at {pos}");
                }
            }
        }
        let _ = fs::remove_file(&path);
    }
}
