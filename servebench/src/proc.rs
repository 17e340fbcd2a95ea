//! Server processes: spawn `skydiver serve`, wait until it listens, read
//! its peak RSS, and stop it.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use skydiver_serve::protocol::json_u64;
use skydiver_serve::Client;

/// Bound on every wait for a reply, so a wedged server is a counted
/// failure instead of a hung benchmark.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `skydiver serve` child. Dropping it kills and reaps the
/// process, so no error path leaves one behind.
pub struct ServerProc {
    child: Option<Child>,
    pub addr: String,
    pub pid: u32,
}

impl ServerProc {
    /// Starts `bin serve --addr <addr> <args>` with stderr sent to `log`
    /// and waits until it reports its listening address.
    pub fn spawn(bin: &Path, addr: &str, args: &[String], log: &Path) -> Result<Self, String> {
        let err_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(bin)
            .arg("serve")
            .arg("--addr")
            .arg(addr)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err_file)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let pid = child.id();
        let mut proc = ServerProc {
            child: Some(child),
            addr: String::new(),
            pid,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            // The address is complete once the text after it has begun:
            // the line may be read while it is still being written.
            let rest = text.split("listening on ").nth(1);
            if let Some((addr, _)) = rest.and_then(|r| r.split_once(char::is_whitespace)) {
                proc.addr = addr.to_string();
                return Ok(proc);
            }
            if let Some(child) = proc.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("server exited with {status} at start: {text}"));
                }
            }
            if Instant::now() > deadline {
                return Err(format!("server did not start listening: {text}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid))
            .map_err(|e| format!("/proc/{}/status: {e}", self.pid))?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or("no VmHWM line")?;
        Ok(kib / 1024.0)
    }

    /// Sends `SHUTDOWN` and waits for the process to exit; kills it if
    /// it has not exited within ten seconds.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = connect(&self.addr).and_then(|mut c| c.exchange("SHUTDOWN"));
        let mut child = self.child.take().ok_or("already stopped")?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match child.try_wait() {
                Ok(Some(_)) => return asked.map(|_| ()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("server {} ignored SHUTDOWN", self.addr));
                }
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Connects a client whose every wait is bounded by [`REPLY_TIMEOUT`].
pub fn connect(addr: &str) -> Result<Client, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .and_then(|_| stream.set_write_timeout(Some(REPLY_TIMEOUT)))
        .map_err(|e| e.to_string())?;
    Client::from_stream(stream).map_err(|e| e.to_string())
}

/// Difference of one `STATS` counter between two snapshots.
pub fn delta(before: &str, after: &str, key: &str) -> u64 {
    let get = |json: &str| json_u64(json, key).unwrap_or(0);
    get(after).saturating_sub(get(before))
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(name: &str) -> Result<Self, String> {
        let dir = PathBuf::from(".servebench").join(format!("run-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
