//! The system under test: `apcm serve` / `apcm route` child processes,
//! their readiness checks, `STATS` snapshots, and `/proc` accounting.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// PIDs of live children, for the watchdog's last-resort kill.
pub static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (USER_HZ,
/// 100 on every mainstream Linux build).
const TICKS_PER_SEC: f64 = 100.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// A broker that matches (standalone, backend, or primary).
    Broker,
    /// A read-only replication follower.
    Follower,
    Router,
}

/// One child process. Dropping it kills and reaps the child.
pub struct Proc {
    pub role: Role,
    pub addr: String,
    child: Child,
    stdin: Option<ChildStdin>,
    /// Drains stdout past the banner; ends when the child exits.
    drain: Option<JoinHandle<()>>,
    reaped: bool,
}

impl Proc {
    /// Spawns `apcm serve|route <args> --addr 127.0.0.1:0` and waits for
    /// its banner, which names the bound address.
    pub fn spawn(apcm: &Path, role: Role, args: &[String]) -> Result<Proc, String> {
        let verb = if role == Role::Router {
            "route"
        } else {
            "serve"
        };
        let mut child = Command::new(apcm)
            .arg(verb)
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", apcm.display()))?;
        LIVE.lock().expect("pid registry").push(child.id());
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut proc = Proc {
            role,
            addr: String::new(),
            child,
            stdin,
            drain: None,
            reaped: false,
        };
        let marker = if role == Role::Router {
            "routing on "
        } else {
            "listening on "
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading apcm {verb} banner: {e}"))?;
            if n == 0 {
                return Err(format!("apcm {verb} exited before listening"));
            }
            if let Some(rest) = line.strip_prefix(marker) {
                proc.addr = rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
                // Keep the read end open until the child exits so its
                // shutdown report never hits a closed pipe.
                proc.drain = Some(std::thread::spawn(move || {
                    let _ = std::io::copy(&mut stdout, &mut std::io::sink());
                }));
                return Ok(proc);
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Orderly stop: `stop` on stdin, then reap (killing after 15 s).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if self.reaped {
            return;
        }
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"stop\n");
        }
        let deadline = Instant::now() + Duration::from_secs(15);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        self.reaped = true;
        let pid = self.child.id();
        LIVE.lock().expect("pid registry").retain(|&p| p != pid);
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A running system under test. Stopping goes router first, then
/// followers, then brokers, so nothing reconnects to a stopped peer.
pub struct Sut {
    pub procs: Vec<Proc>,
}

impl Sut {
    pub fn entry(&self) -> &str {
        let router = self.procs.iter().find(|p| p.role == Role::Router);
        &router.unwrap_or(&self.procs[0]).addr
    }

    pub fn brokers(&self) -> impl Iterator<Item = &Proc> {
        self.procs.iter().filter(|p| p.role != Role::Router)
    }

    pub fn router(&self) -> Option<&Proc> {
        self.procs.iter().find(|p| p.role == Role::Router)
    }

    pub fn stop(mut self) {
        for role in [Role::Router, Role::Follower, Role::Broker] {
            while let Some(i) = self.procs.iter().position(|p| p.role == role) {
                self.procs.remove(i).stop();
            }
        }
    }
}

/// Sends one request on a fresh connection and returns the reply lines up
/// to (excluding) the terminator: a single line, or for `STATS` the body
/// up to the lone `.`.
fn request(addr: &str, line: &str, multi: bool) -> Result<Vec<String>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    (&stream)
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("{addr}: {e}"))?;
    let mut reader = BufReader::new(&stream);
    let mut lines = Vec::new();
    let mut text = String::new();
    loop {
        text.clear();
        if reader
            .read_line(&mut text)
            .map_err(|e| format!("{addr}: {e}"))?
            == 0
        {
            return Err(format!("{addr} closed during `{line}`"));
        }
        let trimmed = text.trim_end();
        if !multi {
            lines.push(trimmed.to_string());
            return Ok(lines);
        }
        if trimmed == "." {
            return Ok(lines);
        }
        lines.push(trimmed.to_string());
    }
}

pub fn ping(addr: &str) -> Result<(), String> {
    let reply = request(addr, "PING", false)?;
    if reply[0] == "+PONG" {
        Ok(())
    } else {
        Err(format!("{addr} answered PING with `{}`", reply[0]))
    }
}

/// One `STATS` snapshot as `key -> value` (non-numeric values skipped).
pub type Stats = BTreeMap<String, u64>;

pub fn stats(addr: &str) -> Result<Stats, String> {
    let lines = request(addr, "STATS", true)?;
    if lines.first().map(String::as_str) != Some("+OK stats") {
        return Err(format!("{addr}: unexpected STATS reply {lines:?}"));
    }
    Ok(lines[1..]
        .iter()
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), v.trim().parse().ok()?))
        })
        .collect())
}

pub fn stat(s: &Stats, key: &str) -> u64 {
    s.get(key).copied().unwrap_or(0)
}

/// Subscriptions held by a broker, from its `shard_<i>_subs` gauges.
pub fn held_subs(s: &Stats) -> u64 {
    s.iter()
        .filter(|(k, _)| k.starts_with("shard_") && k.ends_with("_subs"))
        .map(|(_, v)| v)
        .sum()
}

/// CPU accounting for one process at one instant.
#[derive(Clone, Debug, Default)]
pub struct CpuSample {
    /// utime+stime of the whole process (exited threads included), ms.
    pub total_ms: f64,
    /// Live threads: tid -> (name, on-CPU ms from `schedstat`).
    pub threads: BTreeMap<u32, (String, f64)>,
}

fn stat_fields(path: &Path) -> Option<(String, f64)> {
    let text = std::fs::read_to_string(path).ok()?;
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let name = text[open + 1..close].to_string();
    // Fields after the name start at `state` (field 3); utime and stime
    // are fields 14 and 15.
    let rest: Vec<&str> = text[close + 2..].split_whitespace().collect();
    let ticks: u64 = rest.get(11)?.parse::<u64>().ok()? + rest.get(12)?.parse::<u64>().ok()?;
    Some((name, ticks as f64 * 1000.0 / TICKS_PER_SEC))
}

pub fn cpu_sample(pid: u32) -> CpuSample {
    let base = PathBuf::from(format!("/proc/{pid}"));
    let total_ms = stat_fields(&base.join("stat")).map_or(0.0, |(_, ms)| ms);
    let mut threads = BTreeMap::new();
    if let Ok(dir) = std::fs::read_dir(base.join("task")) {
        for entry in dir.flatten() {
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u32>().ok())
            else {
                continue;
            };
            let name = std::fs::read_to_string(entry.path().join("comm"))
                .map(|s| s.trim().to_string())
                .unwrap_or_default();
            let run_ns: f64 = std::fs::read_to_string(entry.path().join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse().ok())
                .unwrap_or(0.0);
            threads.insert(tid, (name, run_ns / 1e6));
        }
    }
    CpuSample { total_ms, threads }
}

/// Per-process CPU between two samples: total ms, per-thread-role ms,
/// and the share no live thread accounts for (threads that exited).
pub struct CpuDelta {
    pub total_ms: f64,
    pub roles: BTreeMap<&'static str, f64>,
    pub exited_ms: f64,
}

/// Thread-name prefixes grouped into the roles the per-layer table
/// reports. The event-loop broker runs its maintenance sweep on the netio
/// timer wheel, so that work counts under `netio`.
pub fn thread_role(name: &str) -> &'static str {
    if name == "apcm-ingest" {
        "ingest"
    } else if name.starts_with("apcm-netio-") {
        "netio"
    } else if name.starts_with("apcm-route-") && name.ends_with("-r") {
        "router_reader"
    } else if name.starts_with("apcm-route-") && name.ends_with("-w") {
        "router_writer"
    } else if name.starts_with("apcm-replica-") {
        "replica"
    } else {
        "other"
    }
}

pub fn cpu_delta(before: &CpuSample, after: &CpuSample) -> CpuDelta {
    let mut roles = BTreeMap::new();
    let mut live = 0.0;
    for (tid, (name, ms)) in &after.threads {
        let start = before.threads.get(tid).map_or(0.0, |(_, b)| *b);
        let d = (ms - start).max(0.0);
        live += d;
        *roles.entry(thread_role(name)).or_insert(0.0) += d;
    }
    let total_ms = (after.total_ms - before.total_ms).max(0.0);
    CpuDelta {
        total_ms,
        roles,
        exited_ms: (total_ms - live).max(0.0),
    }
}

/// Host CPU time stolen from this machine (virtualized hosts) and all
/// CPU time so far, in ticks: `(steal, total)` from `/proc/stat`.
pub fn host_steal() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Peak resident set (`VmHWM`) of a process, MiB.
pub fn peak_rss_mib(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_roles_follow_the_program_thread_names() {
        assert_eq!(thread_role("apcm-ingest"), "ingest");
        assert_eq!(thread_role("apcm-netio-1"), "netio");
        assert_eq!(thread_role("apcm-route-12-r"), "router_reader");
        assert_eq!(thread_role("apcm-route-12-w"), "router_writer");
        assert_eq!(thread_role("apcm-replica-g1"), "replica");
        assert_eq!(thread_role("apcm"), "other");
    }

    #[test]
    fn own_process_is_sampled() {
        let s = cpu_sample(std::process::id());
        assert!(!s.threads.is_empty());
        assert!(peak_rss_mib(std::process::id()) > 0.0);
    }
}
