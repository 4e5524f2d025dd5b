//! Spawning the release `facile` binary and observing it from outside.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The release binary under the build's target directory
/// (`$CARGO_TARGET_DIR`, default `target`), which `run.sh` builds.
pub fn facile_binary() -> Result<PathBuf, String> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("facile");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found: build it with `cargo build --release -p facile-cli`",
            bin.display()
        ))
    }
}

/// What one invocation did, seen from outside.
pub struct RunOut {
    /// Spawn to exit.
    pub wall: Duration,
    pub stdout: Vec<u8>,
    pub status: ExitStatus,
    /// Largest `VmHWM` read while the process ran, in kB.
    pub peak_rss_kb: u64,
}

/// `VmHWM` (peak resident set) of a live process, in kB.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Read a child's stdout to the end, sampling its peak RSS after every
/// read (the last sample lands just before it exits).
fn drain(child_pid: u32, mut out: ChildStdout) -> std::io::Result<(Vec<u8>, u64)> {
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut peak = 0u64;
    loop {
        let n = out.read(&mut chunk)?;
        peak = peak.max(peak_rss_kb(child_pid).unwrap_or(0));
        if n == 0 {
            return Ok((buf, peak));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Run `bin args` with `input` on stdin, timing spawn to exit.
pub fn run(bin: &Path, args: &[&str], input: &[u8]) -> std::io::Result<RunOut> {
    spawn_and_wait(bin, args, input, false)
}

/// [`run`], also polling the peak RSS every 2 ms while the child runs (a
/// process that prints only at the end has exited by the time its output
/// is read).
pub fn run_watched(bin: &Path, args: &[&str], input: &[u8]) -> std::io::Result<RunOut> {
    spawn_and_wait(bin, args, input, true)
}

fn spawn_and_wait(bin: &Path, args: &[&str], input: &[u8], watch: bool) -> std::io::Result<RunOut> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(if input.is_empty() {
            Stdio::null()
        } else {
            Stdio::piped()
        })
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let pid = child.id();
    let stdin = child.stdin.take();
    let stdout = child.stdout.take().expect("stdout is piped");
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let poller = watch.then(|| {
            s.spawn(|| {
                let mut peak = 0u64;
                while !done.load(Ordering::Relaxed) {
                    peak = peak.max(peak_rss_kb(pid).unwrap_or(0));
                    std::thread::park_timeout(Duration::from_millis(2));
                }
                peak
            })
        });
        if let Some(mut stdin) = stdin {
            // A child that exits early closes the pipe; its exit status
            // and row count report that, so the write error is not fatal.
            s.spawn(move || {
                let _ = stdin.write_all(input);
            });
        }
        let drained = drain(pid, stdout);
        let status = child.wait();
        let wall = start.elapsed();
        done.store(true, Ordering::Relaxed);
        let polled = poller.map_or(0, |p| {
            p.thread().unpark();
            p.join().expect("RSS poller panicked")
        });
        let (stdout, read_peak) = drained?;
        Ok(RunOut {
            wall,
            stdout,
            status: status?,
            peak_rss_kb: read_peak.max(polled),
        })
    })
}

/// A `facile serve` daemon on a Unix socket, stopped and reaped on drop.
pub struct Daemon {
    child: Child,
    pub socket: PathBuf,
    /// Spawn until the `{"serving":…}` ready line.
    pub ready: Duration,
}

impl Daemon {
    pub fn start(bin: &Path, socket: &Path, extra: &[&str]) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn facile serve: {e}"))?;
        let mut out = child.stdout.take().expect("stdout is piped");
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        while out.read(&mut byte).map_err(|e| e.to_string())? == 1 && byte[0] != b'\n' {
            line.push(byte[0]);
        }
        let ready = start.elapsed();
        let daemon = Daemon {
            child,
            socket: socket.to_path_buf(),
            ready,
        };
        if !line.starts_with(b"{\"serving\":") {
            return Err(format!(
                "facile serve did not report ready: {:?}",
                String::from_utf8_lossy(&line)
            ));
        }
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}
