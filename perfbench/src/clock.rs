//! The clocks the benchmark times with.
//!
//! End-to-end times use the process's CPU time: the time the host
//! actually ran the benchmark's threads. On a shared virtual machine the
//! hypervisor takes the CPU away for stretches (steal time, visible in
//! `/proc/stat`) that swing a wall-clock time by a third or more between
//! runs, while the CPU time of the same work stays put. The benchmark is
//! single-threaded and never sleeps or waits on I/O, so its CPU time is
//! its whole cost. Per-layer timings keep the wall clock, which is cheap
//! enough to read around a single call.

use std::sync::OnceLock;
use std::time::Instant;

/// A clock that reads as seconds since a fixed origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Monotonic wall time.
    Wall,
    /// CPU time of the whole process.
    Cpu,
}

impl Clock {
    /// Seconds since this clock's origin.
    pub fn now(self) -> f64 {
        match self {
            Clock::Wall => {
                static ORIGIN: OnceLock<Instant> = OnceLock::new();
                ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
            }
            Clock::Cpu => process_cpu_secs(),
        }
    }

    /// Seconds `f` took, and what it returned.
    pub fn time<T>(self, f: impl FnOnce() -> T) -> (f64, T) {
        let t0 = self.now();
        let out = f();
        (self.now() - t0, out)
    }
}

#[cfg(target_os = "linux")]
fn process_cpu_secs() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere the wall clock stands in.
#[cfg(not(target_os = "linux"))]
fn process_cpu_secs() -> f64 {
    Clock::Wall.now()
}

#[cfg(test)]
mod tests {
    use super::Clock;

    #[test]
    fn cpu_clock_advances_with_work() {
        let n = std::hint::black_box(5_000_000u64);
        let (secs, sum) = Clock::Cpu.time(|| (0..n).fold(0u64, |a, x| a ^ x.wrapping_mul(31)));
        std::hint::black_box(sum);
        assert!(secs > 0.0 && secs < 10.0, "{secs}");
    }
}
