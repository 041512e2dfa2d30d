//! Process and thread accounting from `/proc`, and a nanosecond
//! readiness wait for the load generator.

use std::fs;
use std::io;
use std::time::Duration;

use agequant_netpoll::PollFd;

/// Clock ticks per second of `/proc/<pid>/stat` CPU fields (`USER_HZ`,
/// 100 on every mainstream Linux target).
pub const TICKS_PER_S: f64 = 100.0;

/// User and system CPU time of one thread or process, seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cpu {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds (syscalls, interrupts on its behalf).
    pub sys_s: f64,
}

impl Cpu {
    /// Total CPU seconds.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// CPU used since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }

    fn add(&mut self, other: Cpu) {
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
    }
}

/// Parses the `utime` and `stime` fields of a `stat` line. The command
/// name may hold spaces and parentheses, so fields count from the last
/// `)`.
fn parse_stat(text: &str) -> Option<Cpu> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state(0) ppid(1) ... utime(11) stime(12).
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some(Cpu {
        user_s: utime / TICKS_PER_S,
        sys_s: stime / TICKS_PER_S,
    })
}

/// Summed CPU of the threads of `pid` whose name starts with `prefix`.
#[must_use]
pub fn threads_cpu(pid: u32, prefix: &str) -> Cpu {
    let mut total = Cpu::default();
    let Ok(entries) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return total;
    };
    for entry in entries.flatten() {
        let dir = entry.path();
        let Ok(comm) = fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if !comm.trim_end().starts_with(prefix) {
            continue;
        }
        if let Some(cpu) = fs::read_to_string(dir.join("stat"))
            .ok()
            .and_then(|t| parse_stat(&t))
        {
            total.add(cpu);
        }
    }
    total
}

/// CPU of the calling thread.
#[must_use]
pub fn this_thread_cpu() -> Cpu {
    fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|t| parse_stat(&t))
        .unwrap_or_default()
}

/// Peak resident set (`VmHWM`) of `pid` (`"self"` for this process),
/// mebibytes; 0 when unreadable.
#[must_use]
pub fn peak_rss_mb(pid: &str) -> f64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set (writes
/// `5` to `/proc/self/clear_refs`), so a later [`peak_rss_mb`] reads
/// the peak of the work in between. Where the kernel refuses, the
/// peak stays the whole process's.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn prctl(option: i32, arg2: std::ffi::c_ulong, ...) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the allocator's free memory in every arena to the kernel, so
/// memory the benchmark itself freed does not count in the next
/// [`peak_rss_mb`].
pub fn trim_heap() {
    // SAFETY: glibc's `malloc_trim` takes a byte count and only
    // releases free pages; it is safe to call from any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

/// `WNOHANG` from `<sys/wait.h>`.
const WNOHANG: i32 = 1;

/// Reaps the child `pid` if it has exited, returning its raw wait
/// status (0 for a clean exit) and the CPU time all its threads used
/// over its whole life, seconds; `None` while it still runs. The
/// caller must not wait on the child any other way afterwards.
///
/// # Errors
///
/// The OS error of a failed `wait4`.
pub fn try_reap(pid: u32) -> io::Result<Option<(i32, f64)>> {
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        rest: [0; 14],
    };
    // SAFETY: `status` and `usage` are live, writable and laid out as
    // the kernel's `int` and `struct rusage`; WNOHANG makes the call
    // return at once when the child still runs.
    let rc = unsafe { wait4(pid, &mut status, WNOHANG, &mut usage) };
    match rc {
        0 => Ok(None),
        r if r < 0 => Err(io::Error::last_os_error()),
        _ => {
            #[allow(clippy::cast_precision_loss)]
            let seconds = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
            Ok(Some((
                status,
                seconds(&usage.utime) + seconds(&usage.stime),
            )))
        }
    }
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of this process over all its threads, live and exited,
/// seconds. It leaves out time the guest kernel knows was stolen from
/// its virtual CPUs, but still follows a shared host's load, so gated
/// figures scale it by [`crate::calib`].
#[must_use]
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two `i64`
    // fields on 64-bit Linux) for the duration of the call, and
    // CLOCK_PROCESS_CPUTIME_ID is a valid clock id.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on Linux");
    #[allow(clippy::cast_precision_loss)]
    {
        ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
    }
}

/// `PR_SET_TIMERSLACK` from `<linux/prctl.h>`.
const PR_SET_TIMERSLACK: i32 = 29;

/// Asks the kernel to wake the calling thread's timed waits within
/// 1µs of their deadline instead of the default 50µs slack, so the
/// generator's lateness measures the host, not the slack.
pub fn tighten_timer_slack() {
    // SAFETY: prctl(PR_SET_TIMERSLACK, n) takes one integer argument
    // and touches no caller memory; it only changes this thread's
    // timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000);
    }
}

/// Waits until a descriptor in `fds` is ready or `timeout` passes,
/// with nanosecond timeout resolution (`ppoll(2)`). Returns the
/// number of ready descriptors.
///
/// # Errors
///
/// The OS error of a failed `ppoll`, except `EINTR`, which reads as 0.
pub fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    let nfds = std::ffi::c_ulong::try_from(fds.len()).expect("pollfd count fits nfds_t");
    // SAFETY: `PollFd` is `#[repr(C)]` with the layout of `struct
    // pollfd` (pinned by agequant-netpoll), the pointer and length come
    // from one live mutable slice the kernel may write `revents` into,
    // `ts` outlives the call, and a null sigmask leaves the signal
    // mask unchanged.
    let n = unsafe { ppoll(fds.as_mut_ptr(), nfds, &ts, std::ptr::null()) };
    if n < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(usize::try_from(n).expect("non-negative ready count"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_parenthesis() {
        let line = "4242 (serve-loop-0 (x)) S 1 2 3 4 5 6 7 8 9 10 250 37 0 0 20 0 5 0";
        let cpu = parse_stat(line).expect("parses");
        assert!((cpu.user_s - 2.5).abs() < 1e-12);
        assert!((cpu.sys_s - 0.37).abs() < 1e-12);
        assert!(parse_stat("garbage").is_none());
    }

    #[test]
    #[allow(clippy::zombie_processes)] // `try_reap` waits on it.
    fn a_reaped_child_reports_its_status() {
        let child = std::process::Command::new("true")
            .spawn()
            .expect("spawns true");
        let reaped = loop {
            if let Some(r) = try_reap(child.id()).expect("wait4") {
                break r;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(reaped.0, 0);
        assert!(reaped.1 >= 0.0);
    }

    #[test]
    fn own_process_is_readable() {
        assert!(peak_rss_mb("self") > 0.0);
        let _ = this_thread_cpu();
        let t0 = process_cpu_s();
        let spin = (0..2_000_000u64).fold(0u64, |a, i| a.wrapping_add(std::hint::black_box(i)));
        std::hint::black_box(spin);
        assert!(process_cpu_s() > t0);
    }
}
