//! Child processes: the real `ppa` binary and the `ppa serve` daemon.
//!
//! Children are reaped with `wait4`, so their CPU time is the kernel's
//! own accounting. Their peak RSS is *not* taken from `ru_maxrss`: on
//! Linux, exec folds the high-water RSS of the address space the child
//! ran on before exec — the harness's, which holds whole fixtures —
//! into the child's `ru_maxrss`, so that field reads
//! max(harness, child). `VmHWM` in `/proc/<pid>/status` belongs to the
//! child's own address space and is sampled while it runs instead.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// What the kernel accounted to one reaped child.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub ok: bool,
    pub wall_s: f64,
    /// `ru_utime + ru_stime`.
    pub cpu_s: f64,
    /// Highest `VmHWM` sampled, in MiB.
    pub rss_mib: f64,
}

/// `struct timeval` / `struct rusage` as 64-bit Linux lays them out.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout above is the 64-bit Linux one");

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// How often a running child's `VmHWM` is sampled. The peak is
/// cumulative, so only growth in a child's last few milliseconds can be
/// missed; at this period the sampler costs well under 1 % of a core.
const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(5);

/// `VmHWM` of `pid` in KiB; `None` once it is a zombie or gone.
fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Waits for `child` while a second thread samples its `VmHWM`.
fn reap_sampled(child: Child, started: Instant) -> io::Result<Usage> {
    let pid = child.id();
    let peak_kib = AtomicU64::new(0);
    // Publishes nothing but itself: Relaxed is enough.
    let exited = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !exited.load(Ordering::Relaxed) {
                if let Some(kib) = vm_hwm_kib(pid) {
                    peak_kib.fetch_max(kib, Ordering::Relaxed);
                }
                std::thread::sleep(RSS_SAMPLE_EVERY);
            }
        });
        let usage = reap(child, started);
        exited.store(true, Ordering::Relaxed);
        usage
    })
    .map(|usage| Usage {
        rss_mib: peak_kib.load(Ordering::Relaxed) as f64 / 1024.0,
        ..usage
    })
}

/// Blocks until `child` exits and returns its exit status and CPU
/// time (`rss_mib` is left 0). Consumes the `Child`, so std never waits
/// on the reaped pid again.
fn reap(child: Child, started: Instant) -> io::Result<Usage> {
    let mut status = 0i32;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: `status` and `ru` are valid, exclusively borrowed
        // out-parameters of the types wait4 writes (`int`, and a
        // `struct rusage` whose 64-bit Linux layout `Rusage` mirrors);
        // the pid is a child of this process that has not been waited
        // on, because `child` was moved in here unreaped.
        let r = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
        if r >= 0 {
            break;
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(Usage {
        // Exited (low 7 bits clear) with exit code 0 (next 8 bits).
        ok: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        rss_mib: 0.0,
    })
}

/// Runs `ppa <args>` to completion. The child's stdout (its run
/// summary) is discarded; its stderr is the harness's own, so a failing
/// operation explains itself.
pub fn run_ppa(ppa: &Path, args: &[String]) -> io::Result<Usage> {
    let started = Instant::now();
    let child = Command::new(ppa)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()?;
    reap_sampled(child, started)
}

/// A running `ppa serve` daemon on a unix socket.
pub struct Daemon {
    child: Option<Child>,
    started: Instant,
    pub socket: PathBuf,
    pub state_dir: PathBuf,
}

impl Daemon {
    /// Spawns the daemon under `dir` and returns once it accepts
    /// connections.
    pub fn start(ppa: &Path, dir: &Path, checkpoint_every: u64) -> io::Result<Daemon> {
        let state_dir = dir.join("state");
        std::fs::create_dir_all(&state_dir)?;
        let socket = dir.join("ppa.sock");
        std::fs::remove_file(&socket).ok();
        let started = Instant::now();
        let child = Command::new(ppa)
            .arg("serve")
            .arg("--checkpoint-dir")
            .arg(&state_dir)
            .arg("--unix-socket")
            .arg(&socket)
            .args(["--checkpoint-every", &checkpoint_every.to_string()])
            .args(["--reorder-window", "64"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let mut daemon = Daemon {
            child: Some(child),
            started,
            socket,
            state_dir,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        while std::os::unix::net::UnixStream::connect(&daemon.socket).is_err() {
            let exited = daemon
                .child
                .as_mut()
                .is_some_and(|c| !matches!(c.try_wait(), Ok(None)));
            if exited || Instant::now() > deadline {
                return Err(io::Error::other("ppa serve did not come up"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(daemon)
    }

    pub fn report_path(&self, tenant: &str, stream: &str) -> PathBuf {
        self.state_dir
            .join(tenant)
            .join(format!("{stream}.report.jsonl"))
    }

    /// SIGTERMs the daemon (its graceful shutdown) and reaps it. `ok`
    /// in the result is true when it then exited with code 0.
    pub fn stop(mut self) -> io::Result<Usage> {
        let mut child = self.child.take().expect("daemon stopped once");
        // Its peak so far, read while it is still alive.
        let rss_mib = vm_hwm_kib(child.id()).unwrap_or(0) as f64 / 1024.0;
        // SAFETY: `kill` takes two integers and touches no memory; the
        // pid is this process's own unreaped child, so it cannot have
        // been recycled for another process.
        if unsafe { kill(child.id() as i32, SIGTERM) } != 0 {
            // Still reaped below; SIGKILL makes the result not `ok`.
            child.kill().ok();
        }
        reap(child, self.started).map(|usage| Usage { rss_mib, ..usage })
    }
}

impl Drop for Daemon {
    /// Error paths only: a daemon that was not [`stop`](Self::stop)ped
    /// is killed and reaped so no process outlives the benchmark.
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            c.kill().ok();
            c.wait().ok();
        }
    }
}
