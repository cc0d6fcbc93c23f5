//! A minimal `npbd` client: connect, send request lines, read reply
//! lines. [`Client::exchange`] is the one place that decides how many
//! lines a request gets back. Shared by `npb-attack` (its chaos clients
//! and its `--once` probe, which the CI smoke drives) and the
//! integration suite.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use npb_core::json::Json;

use crate::server::Addr;

pub struct Client {
    reader: Box<dyn BufRead + Send>,
    writer: Box<dyn Write + Send>,
}

impl Client {
    pub fn connect(addr: &Addr) -> std::io::Result<Client> {
        match addr {
            Addr::Unix(path) => {
                let s = UnixStream::connect(path)?;
                let r = s.try_clone()?;
                Ok(Client { reader: Box::new(BufReader::new(r)), writer: Box::new(s) })
            }
            Addr::Tcp(hostport) => {
                let s = TcpStream::connect(hostport)?;
                let r = s.try_clone()?;
                Ok(Client { reader: Box::new(BufReader::new(r)), writer: Box::new(s) })
            }
        }
    }

    /// Retry `connect` until the daemon's socket answers (it binds
    /// asynchronously at startup, within a few ms) or the budget of
    /// `attempts` × 50 ms runs out; the pause doubles from 1 ms to 50.
    pub fn connect_retry(addr: &Addr, attempts: usize) -> std::io::Result<Client> {
        let step = Duration::from_millis(50);
        let give_up = Instant::now() + step * attempts as u32;
        let mut pause = Duration::from_millis(1);
        loop {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= give_up => return Err(e),
                Err(_) => {}
            }
            std::thread::sleep(pause);
            pause = (pause * 2).min(step);
        }
    }

    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.send_raw(format!("{line}\n").as_bytes())
    }

    /// Write `bytes` unframed: the slowloris campaign trickles a request
    /// line it never ends.
    pub(crate) fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Read one reply line (EOF is an error: the daemon hung up).
    pub fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// Send one request, read one reply, parse it.
    pub fn request(&mut self, line: &str) -> std::io::Result<Json> {
        self.send(line)?;
        parse_reply(&self.read_line()?)
    }

    /// One request, its reply lines verbatim: `rejected` alone; `done`
    /// alone on a cache hit; `accepted` alone for a `"wait":false`
    /// submit; `accepted` then the terminal line otherwise.
    pub fn exchange(&mut self, line: &str) -> std::io::Result<Vec<String>> {
        self.send(line)?;
        let first = self.read_line()?;
        let accepted = Json::parse(&first).is_ok_and(|v| v.get_str("status") == Some("accepted"));
        let wants_wait = Json::parse(line).is_ok_and(|v| v.get("wait") != Some(&Json::Bool(false)));
        let mut replies = vec![first];
        if accepted && wants_wait {
            replies.push(self.read_line()?);
        }
        Ok(replies)
    }

    /// [`Client::exchange`] with every reply parsed.
    pub fn submit(&mut self, submit_line: &str) -> std::io::Result<Vec<Json>> {
        self.exchange(submit_line)?.iter().map(|reply| parse_reply(reply)).collect()
    }
}

fn parse_reply(reply: &str) -> std::io::Result<Json> {
    Json::parse(reply).map_err(|e| std::io::Error::other(format!("bad reply {reply:?}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A client whose daemon has already written `replies`.
    fn scripted(replies: &str) -> Client {
        Client { reader: Box::new(Cursor::new(replies.to_string())), writer: Box::new(Vec::new()) }
    }

    #[test]
    fn exchange_reads_the_terminal_line_only_for_a_waiting_accept() {
        let accepted = "{\"status\":\"accepted\",\"job\":1}\n";
        let done = "{\"status\":\"done\",\"disposition\":\"verified\"}\n";
        let rejected = "{\"status\":\"rejected\",\"reason\":\"queue-full\"}\n";
        for (submit, replies, lines) in [
            ("{\"op\":\"submit\"}", format!("{accepted}{done}"), 2),
            ("{\"op\":\"submit\",\"wait\":true}", format!("{accepted}{done}"), 2),
            // A spaced `"wait": false` is still a fire-and-forget submit.
            ("{\"op\":\"submit\", \"wait\": false}", format!("{accepted}{done}"), 1),
            ("{\"op\":\"submit\"}", format!("{rejected}{done}"), 1),
            // A cache hit answers `done` at once.
            ("{\"op\":\"submit\"}", format!("{done}{done}"), 1),
        ] {
            let got = scripted(&replies).exchange(submit).unwrap();
            assert_eq!(got.len(), lines, "{submit} after {replies:?}");
            assert_eq!(got[0], replies.lines().next().unwrap(), "the first reply verbatim");
        }
    }

    #[test]
    fn a_hang_up_is_an_error_not_an_empty_reply() {
        let err = scripted("").exchange("{\"op\":\"submit\"}").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        // The daemon hung up between `accepted` and the terminal line.
        let err =
            scripted("{\"status\":\"accepted\"}\n").submit("{\"op\":\"submit\"}").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        let err = scripted("not json\n").request("{\"op\":\"status\"}").unwrap_err();
        assert!(err.to_string().contains("bad reply"), "{err}");
    }
}
