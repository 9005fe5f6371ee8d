//! The parent side of a repetition: spawn this binary in its `--rep` role
//! as the leader of a fresh process group, read its one report line, and
//! on a timeout kill the whole group — the TCP master together with its
//! worker processes — so no orphan keeps a port.

use std::collections::BTreeMap;
use std::io::Read;
use std::os::unix::process::CommandExt;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::rep::{RepArgs, LINE_TAG};

/// A finished repetition: its report fields and what the parent timed.
#[derive(Debug, Clone)]
pub struct Rep {
    fields: BTreeMap<String, String>,
    /// Seconds from spawning the process to reaping it.
    pub wall_s: f64,
}

impl Rep {
    /// Field `key` as a number; `Err` names the missing or malformed key.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        self.fields
            .get(key)
            .ok_or_else(|| format!("report has no `{key}`"))?
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("report field `{key}` is not a finite number"))
    }

    /// Field `key` as a number, 0 when the repetition did not report it
    /// (a counter the engine under test does not keep).
    pub fn num_or_zero(&self, key: &str) -> f64 {
        self.num(key).unwrap_or(0.0)
    }

    /// Field `key` verbatim.
    pub fn text(&self, key: &str) -> Option<&str> {
        self.fields.get(key).map(String::as_str)
    }
}

/// Parse a `DPS_REP k=v k=v …` line.
pub fn parse_line(line: &str) -> Option<BTreeMap<String, String>> {
    let body = line.trim().strip_prefix(LINE_TAG)?;
    body.split_whitespace()
        .map(|kv| {
            kv.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
        })
        .collect()
}

extern "C" {
    /// `kill(2)` from the C library `std` already links.
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// SIGKILL every process of the group led by `leader`, which the caller
/// has spawned with `process_group(0)` and **not yet reaped**.
fn kill_group(leader: &Child) {
    let Ok(pgid) = i32::try_from(leader.id()) else {
        return;
    };
    // SAFETY: `kill` takes two integers and touches no memory of ours. A
    // negative pid addresses a process group. `pgid` is the pid of a child
    // we spawned as a group leader and have not waited for: running or
    // zombie, it still owns that id, so the id cannot have been recycled
    // and the signal reaches only the repetition's own processes.
    unsafe {
        kill(-pgid, SIGKILL);
    }
}

/// Spawn `cmd` as the leader of a new process group with stdout piped and
/// wait until stdout reaches end-of-file, for at most `timeout`. Returns
/// what was printed, the leader's exit status, and the seconds from spawn
/// to reaping; `Err` on a timeout, after the whole group has been killed.
///
/// Every process of the group — on TCP the master and its workers —
/// inherits the pipe, so end-of-file means every one of them has ended.
/// That is what the parent waits for: no polling, and a group killed after
/// a timeout is known to be gone when the pipe closes.
fn run_group(mut cmd: Command, timeout: Duration) -> Result<(String, ExitStatus, f64), String> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .process_group(0);
    let t0 = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("spawn failed: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        let _ = tx.send(s);
    });

    let mut timed_out = false;
    let out = rx.recv_timeout(timeout).or_else(|_| {
        timed_out = true;
        kill_group(&child);
        // Dead processes close the pipe. One that survives SIGKILL for
        // five seconds is stuck in the kernel and not ours to fix.
        rx.recv_timeout(Duration::from_secs(5))
    });
    let status = child.wait();
    let wall_s = t0.elapsed().as_secs_f64();
    if out.is_ok() {
        // End-of-file was read: the thread has sent and is returning.
        reader
            .join()
            .map_err(|_| "stdout reader panicked".to_string())?;
    }
    if timed_out {
        return Err(format!("timed out after {timeout:?}; process group killed"));
    }
    let out = out.map_err(|_| "stdout reader ended without output".to_string())?;
    let status = status.map_err(|e| format!("wait failed: {e}"))?;
    Ok((out, status, wall_s))
}

/// Run one repetition in a child process. `Err` is a failed repetition:
/// it could not start, exited non-zero, printed no report, or outlived
/// `timeout` (and was killed with its whole process group).
pub fn run_rep(args: RepArgs, timeout: Duration) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--rep")
        .arg(args.kind.name())
        .arg("--seed")
        .arg(args.seed.to_string());
    if args.smoke {
        cmd.arg("--smoke");
    }
    if args.traced {
        cmd.arg("--traced");
    }
    // A parent that is itself somebody's NetEngine worker must not leak
    // that role into the repetition.
    cmd.env_remove("DPS_NET_ROLE")
        .env_remove("DPS_NET_RANK")
        .env_remove("DPS_NET_MASTER");
    let (out, status, wall_s) = run_group(cmd, timeout)?;
    if !status.success() {
        return Err(format!("exited with {status}"));
    }
    let fields = out
        .lines()
        .find_map(parse_line)
        .ok_or_else(|| "no report line on stdout".to_string())?;
    Ok(Rep { fields, wall_s })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_lines_parse() {
        let f = parse_line("DPS_REP makespan_s=0.5 hash=00ff chunks=12").unwrap();
        assert_eq!(f["makespan_s"], "0.5");
        assert_eq!(f["hash"], "00ff");
        assert_eq!(f.len(), 3);
        assert!(parse_line("something else").is_none());
        assert!(parse_line("DPS_REP broken").is_none());
    }

    /// A leader that hangs with a child of its own: both die at the
    /// timeout, and the call returns when the pipe they shared closes —
    /// well before the five-second fallback, which is what a surviving
    /// grandchild would cost.
    #[test]
    fn a_hung_group_is_killed_whole() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "sleep 60 & sleep 60"]);
        let t0 = Instant::now();
        let err = run_group(cmd, Duration::from_millis(300)).unwrap_err();
        assert!(err.contains("timed out"), "{err}");
        assert!(t0.elapsed() < Duration::from_secs(3), "{:?}", t0.elapsed());
    }

    #[test]
    fn a_finished_group_reports_output_and_status() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo DPS_REP a=1; exit 3"]);
        let (out, status, wall_s) = run_group(cmd, Duration::from_secs(10)).unwrap();
        assert_eq!(out, "DPS_REP a=1\n");
        assert_eq!(status.code(), Some(3));
        assert!(wall_s > 0.0);
    }

    #[test]
    fn numbers_must_be_present_and_finite() {
        let rep = Rep {
            fields: parse_line("DPS_REP a=1.5 b=NaN c=x").unwrap(),
            wall_s: 0.0,
        };
        assert_eq!(rep.num("a"), Ok(1.5));
        assert!(rep.num("b").is_err());
        assert!(rep.num("c").is_err());
        assert!(rep.num("d").is_err());
        assert_eq!(rep.num_or_zero("d"), 0.0);
        assert_eq!(rep.text("c"), Some("x"));
    }
}
