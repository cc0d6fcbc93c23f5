//! A minimal `npbd` client: connect, send request lines, read reply
//! lines. Shared by `npb-attack`, the CI smoke test, and the
//! integration suite.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use npb_harness::Json;

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
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
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
        let reply = self.read_line()?;
        Json::parse(&reply).map_err(|e| std::io::Error::other(format!("bad reply {reply:?}: {e}")))
    }

    /// Submit-and-wait convenience: returns the full reply sequence
    /// (`rejected` alone; `done` alone on a cache hit; `accepted` then
    /// `done` otherwise), already parsed.
    pub fn submit(&mut self, submit_line: &str) -> std::io::Result<Vec<Json>> {
        let first = self.request(submit_line)?;
        let mut replies = vec![first];
        if replies[0].get_str("status") == Some("accepted") {
            let wants_wait = Json::parse(submit_line)
                .ok()
                .and_then(|v| v.get("wait").cloned())
                .is_none_or(|w| w == Json::Bool(true));
            if wants_wait {
                let terminal = self.read_line()?;
                replies.push(Json::parse(&terminal).map_err(std::io::Error::other)?);
            }
        }
        Ok(replies)
    }
}
