//! Child processes: spawn, wait with resource usage, deadline kill.

use std::process::{Child, Command};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// How a waited-for child ended.
pub struct Exit {
    /// The exit code, or `None` if a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set size in MiB.
    pub peak_rss_mb: f64,
    /// Wall time from spawn to reap.
    pub wall_s: f64,
}

/// A running child whose resource usage is collected when it is reaped.
/// Dropped without [`Running::wait`] (an early error return), the
/// child is killed and reaped.
pub struct Running {
    child: Option<Child>,
    started: Instant,
}

pub fn spawn(cmd: &mut Command) -> Result<Running, String> {
    let started = Instant::now();
    let child = cmd.spawn().map_err(|e| format!("spawning {cmd:?}: {e}"))?;
    Ok(Running { child: Some(child), started })
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Running {
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Waits for the child; kills it if it is still running after
    /// `limit`.
    // The child is reaped by `wait4`, which the lint does not know.
    #[allow(clippy::zombie_processes)]
    pub fn wait(mut self, limit: Duration) -> Result<Exit, String> {
        let child = self.child.take().expect("a running child is waited for once");
        let pid = child.id() as i32;
        let (done, rx) = mpsc::channel::<()>();
        let watchdog = std::thread::spawn(move || {
            if rx.recv_timeout(limit).is_err() {
                // SAFETY: `kill` takes plain integers and touches no
                // memory of this process.
                unsafe { kill(pid, 9) };
            }
        });
        let mut status = 0i32;
        let mut usage = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss: 0,
            rest: [0; 13],
        };
        let reaped = loop {
            // SAFETY: both out-pointers point at live, writable locals of
            // the layout the C declaration names.
            let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
            if r == pid {
                break Ok(());
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                break Err(format!("wait4({pid}): {err}"));
            }
        };
        let wall_s = self.started.elapsed().as_secs_f64();
        let _ = done.send(());
        watchdog.join().map_err(|_| "watchdog thread panicked".to_string())?;
        if let Err(e) = reaped {
            let mut child = child;
            let _ = child.kill();
            let _ = child.wait();
            return Err(e);
        }
        let code = if status & 0x7f == 0 { Some((status >> 8) & 0xff) } else { None };
        // `child` is dropped without waiting: wait4 reaped it.
        drop(child);
        Ok(Exit { code, peak_rss_mb: usage.maxrss as f64 / 1024.0, wall_s })
    }
}
