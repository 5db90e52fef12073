//! The system under test: `snorlax serve` daemons in their own
//! processes, started, probed and drained from the generator.

use lazy_snorlax::RemoteClient;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// What a daemon prints when it drains (its `DaemonStats`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Drained {
    pub busy: u64,
    pub timeouts: u64,
    pub corrupt: u64,
}

/// One running `snorlax serve <bug> --port 0`.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts a daemon and returns once it prints its bound address.
    pub fn spawn(snorlax: &Path, bug: &str) -> Result<Daemon, String> {
        let mut child = Command::new(snorlax)
            .args(["serve", bug, "--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", snorlax.display()))?;
        let Some(out) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout not captured".into());
        };
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(out),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading daemon address: {e}"))?;
        // "snorlaxd listening on 127.0.0.1:PORT (module ...)"
        daemon.addr = line
            .split_whitespace()
            .nth(3)
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?;
        Ok(daemon)
    }

    /// Waits until the daemon answers a health probe.
    pub fn wait_ready(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match RemoteClient::connect(self.addr).and_then(|mut c| c.health()) {
                Ok(status) if status.starts_with("ok") => return Ok(()),
                _ if Instant::now() > deadline => return Err("daemon never became ready".into()),
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// A new client connection.
    pub fn connect(&self) -> Result<RemoteClient, String> {
        RemoteClient::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// CPU time the process (all its threads, ended ones included) has
    /// run, in seconds. Time the hypervisor gives other guests is not
    /// charged to it. NaN once the process is gone, when its requests
    /// fail too.
    pub fn cpu_s(&self) -> f64 {
        /// `USER_HZ`: the unit of the process's `/proc` CPU times.
        const TICKS_PER_S: f64 = 100.0;
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).unwrap_or_default();
        // Fields after the parenthesised command name start at `state`;
        // `utime` and `stime` are the 12th and 13th of them.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
        let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(user), Some(system)) => (user + system) / TICKS_PER_S,
            _ => f64::NAN,
        }
    }

    /// Resets the process's peak resident set to its current one.
    pub fn reset_peak_rss(&self) -> Result<(), String> {
        std::fs::write(format!("/proc/{}/clear_refs", self.child.id()), "5")
            .map_err(|e| format!("resetting the daemon's peak memory: {e}"))
    }

    /// The process's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kib| kib / 1024.0)
    }

    /// Drains the daemon, waits for the process to end, and returns the
    /// stats it printed.
    pub fn shutdown(mut self) -> Result<Drained, String> {
        self.connect()?
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .map_err(|e| format!("reading daemon output: {e}"))?;
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        parse_drained(&rest).ok_or_else(|| format!("no drain line in {rest:?}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached only when a run aborts before `shutdown`.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Parses "snorlaxd drained: C connections, R requests, B busy-rejected,
/// T timeouts, X corrupt frames".
fn parse_drained(out: &str) -> Option<Drained> {
    let line = out
        .lines()
        .find_map(|l| l.strip_prefix("snorlaxd drained:"))?;
    let nums: Vec<u64> = line
        .split(',')
        .filter_map(|part| part.split_whitespace().next()?.parse().ok())
        .collect();
    match nums[..] {
        [_, _, busy, timeouts, corrupt] => Some(Drained {
            busy,
            timeouts,
            corrupt,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn parses_drain_line() {
        let d = super::parse_drained(
            "snorlaxd drained: 4 connections, 120 requests, 1 busy-rejected, 2 timeouts, 3 corrupt frames\n",
        )
        .expect("parses");
        assert_eq!((d.busy, d.timeouts, d.corrupt), (1, 2, 3));
    }
}
