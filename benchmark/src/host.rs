//! Host-side clocks and `/proc` readers.
//!
//! Host time in this benchmark is **on-CPU time**, not wall time: a rep is
//! one busy thread, so on-CPU time is what the code costs and excludes
//! whatever the shared box stole. It is read with `clock_gettime`, which
//! the kernel answers to the nanosecond. `/proc/thread-self/schedstat`
//! field 1 carries the same quantity but only advances on scheduler ticks
//! (measured on this kernel: 4 ms steps), far too coarse for a 5 ms
//! microbench batch or a 2 ms set-up; its field 2 (run-queue wait) is
//! exact at context switches and is what `host.runq_wait_share` uses.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// On-CPU nanoseconds of this process since it started. Every process in
/// the benchmark runs one thread, so this is also the thread's time.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // every 64-bit Linux target) and the clock id is a constant the
    // kernel defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// One timed phase: on-CPU time, wall time and run-queue wait.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phase {
    /// On-CPU nanoseconds.
    pub cpu_ns: u64,
    /// Wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Nanoseconds spent runnable but waiting for a core.
    pub runq_wait_ns: u64,
}

impl Phase {
    /// On-CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.cpu_ns as f64 / 1e9
    }

    /// Share of wall time spent waiting for a core.
    pub fn runq_wait_share(&self) -> f64 {
        self.runq_wait_ns as f64 / self.wall_ns.max(1) as f64
    }
}

/// Starts a [`Phase`]; `stop` returns what elapsed.
pub struct PhaseTimer {
    cpu0: u64,
    wall0: Instant,
    wait0: u64,
}

impl PhaseTimer {
    /// Start timing now.
    pub fn start() -> PhaseTimer {
        PhaseTimer {
            cpu0: cpu_ns(),
            wall0: Instant::now(),
            wait0: runq_wait_ns(),
        }
    }

    /// Elapsed since `start`.
    pub fn stop(&self) -> Phase {
        Phase {
            cpu_ns: cpu_ns() - self.cpu0,
            wall_ns: self.wall0.elapsed().as_nanos() as u64,
            runq_wait_ns: runq_wait_ns().saturating_sub(self.wait0),
        }
    }
}

/// Parse `/proc/<pid>/schedstat`: `(on_cpu_ns, runq_wait_ns)`.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_whitespace();
    let run = fields.next()?.parse().ok()?;
    let wait = fields.next()?.parse().ok()?;
    Some((run, wait))
}

/// Run-queue wait of this thread so far; 0 where the kernel keeps no
/// schedstats.
fn runq_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| parse_schedstat(&s))
        .map_or(0, |(_, wait)| wait)
}

/// Parse the `VmHWM` line of `/proc/<pid>/status`, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_parses_first_two_fields() {
        assert_eq!(
            parse_schedstat("199270356 215620 51\n"),
            Some((199270356, 215620))
        );
        assert_eq!(parse_schedstat("12"), None);
        assert_eq!(parse_schedstat("a b c"), None);
    }

    #[test]
    fn vm_hwm_parses_kib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t  687104 kB\nVmRSS:\t  1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(687104));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let t = PhaseTimer::start();
        let mut x = 1u64;
        while t.stop().cpu_ns < 2_000_000 {
            x = std::hint::black_box(x.wrapping_mul(3).wrapping_add(1));
        }
        // Wall time may be shorter: other test threads burn process CPU too.
        let p = t.stop();
        assert!(p.cpu_ns >= 2_000_000 && p.wall_ns > 0);
        assert!(peak_rss_mib() > 0.0);
    }
}
