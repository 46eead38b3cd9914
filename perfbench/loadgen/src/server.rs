//! The server under test as a child process: spawn, wait for the port
//! file, read its peak memory, SIGKILL.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How the benchmark starts every `scrutinizer-serve` of a run.
pub struct Launcher {
    pub bin: PathBuf,
    pub scale: &'static str,
    pub seed: u64,
    pub extra: Vec<String>,
    pub out: PathBuf,
    pub trace: bool,
}

/// A running server, killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    /// Index of this process within the run: names its log and trace
    /// files and tags the trace ids of requests sent to it.
    pub gen: u32,
    pub addr: String,
}

/// Longest a start (cold pretrain or recovery) may take before the run
/// fails.
const START_DEADLINE: Duration = Duration::from_secs(150);

impl Launcher {
    pub fn log_path(&self, gen: u32) -> PathBuf {
        self.out.join(format!("server-{gen}.log"))
    }

    pub fn trace_path(&self, gen: u32) -> PathBuf {
        self.out.join(format!("trace-{gen}.jsonl"))
    }

    /// Starts server `gen` on `data_dir` and blocks until it has written
    /// its port file, i.e. until it accepts connections.
    pub fn start(&self, gen: u32, data_dir: &Path) -> io::Result<ServerProc> {
        let port_file = self.out.join(format!("port-{gen}"));
        let _ = std::fs::remove_file(&port_file);
        let mut command = Command::new(&self.bin);
        command
            .arg("127.0.0.1:0")
            .args(["--scale", self.scale])
            .args(["--seed", &self.seed.to_string()])
            .arg("--data-dir")
            .arg(data_dir)
            .arg("--port-file")
            .arg(&port_file)
            .args(&self.extra);
        if self.trace {
            command.arg("--trace-log").arg(self.trace_path(gen));
        }
        let child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(self.log_path(gen))?)
            .spawn()?;
        let mut server = ServerProc {
            child,
            gen,
            addr: String::new(),
        };
        let deadline = Instant::now() + START_DEADLINE;
        loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                if !addr.is_empty() {
                    server.addr = addr;
                    return Ok(server);
                }
            }
            if let Some(status) = server.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "server {gen} exited during start-up ({status})"
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other(format!(
                    "server {gen} never wrote its port file"
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl ServerProc {
    /// Peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// SIGKILL: no shutdown hook runs, so whatever the server acknowledged
    /// must already be durable.
    pub fn kill(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
