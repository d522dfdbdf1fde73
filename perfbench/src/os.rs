//! What the standard library does not expose: a child's CPU time at reap
//! (`wait4`), per-thread and per-process CPU clocks, peak RSS from
//! `/proc`, a fine-grained readiness wait (`ppoll`) and `TCP_QUICKACK`.
//! Linux, 64-bit.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_long, c_ulong};
use std::time::Duration;

#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as laid out by Linux on 64-bit targets.
#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
pub struct Rusage {
    utime: Timeval,
    stime: Timeval,
    // ru_maxrss and the rest are unused: Linux carries the spawning
    // process's peak RSS into a child's ru_maxrss across exec.
    _rest: [c_long; 14],
}

impl Rusage {
    /// User plus system CPU time, in nanoseconds.
    pub fn cpu_ns(&self) -> u64 {
        let us = |t: Timeval| (t.sec.max(0) as u64) * 1_000_000 + t.usec.max(0) as u64;
        (us(self.utime) + us(self.stime)) * 1_000
    }
}

#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: c_long,
    nsec: c_long,
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut Rusage) -> c_int;
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const u8,
    ) -> c_int;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_int, len: u32) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
const POLLIN: i16 = 0x001;
const IPPROTO_TCP: c_int = 6;
const TCP_QUICKACK: c_int = 12;

/// Waits up to `timeout` for `fd` to become readable (or hung up), with
/// nanosecond timeout resolution (a socket read timeout rounds up to
/// scheduler ticks, which would make an open-loop sender late).
pub fn wait_readable(fd: RawFd, timeout: Duration) -> io::Result<bool> {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        nsec: c_long::from(timeout.subsec_nanos()),
    };
    // SAFETY: one live, C-layout pollfd and timespec; a null sigmask
    // leaves the signal mask unchanged.
    let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    match rc {
        0 => Ok(false),
        n if n > 0 => Ok(true),
        _ => {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(err)
            }
        }
    }
}

/// Asks the kernel to acknowledge received data on `fd` at once instead
/// of delaying the ACK. The flag is not sticky, so callers re-arm it
/// after every read.
pub fn quickack(fd: RawFd) {
    let one: c_int = 1;
    // SAFETY: `one` is a live c_int and the length passed matches it.
    unsafe { setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, 4) };
}

/// Peak resident set size of a live process since its `exec`, in MiB
/// (`VmHWM`).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reaps child `pid`, returning its exit code (`None` when a signal
/// ended it) and its resource usage.
pub fn reap(pid: u32) -> io::Result<(Option<i32>, Rusage)> {
    let pid = c_int::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: both pointers refer to live, properly aligned locals of
        // the exact C layout wait4 writes into.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok((code, usage))
}

fn clock_ns(clock: c_int) -> u64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a live local with the C layout clock_gettime fills;
    // both CPU clocks used here exist on every Linux kernel.
    unsafe { clock_gettime(clock, &mut ts) };
    (ts.sec.max(0) as u64) * 1_000_000_000 + ts.nsec.max(0) as u64
}

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed by the whole process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}
