//! CPU time of the calling thread.
//!
//! The benchmark times calls on the thread's CPU clock, not the wall
//! clock: the CPU clock advances only while the thread runs, so time the
//! host gives to other processes, or on a virtual machine to other
//! guests (steal time), does not count.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// Seconds of CPU time the calling thread has used.
fn cpu_s() -> f64 {
    let mut time = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `time` is a valid, writable `timespec` for the call.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    time.tv_sec as f64 + time.tv_nsec as f64 / 1e9
}

/// CPU seconds `work` takes, and what it returns.
pub fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let started = cpu_s();
    let value = work();
    (value, cpu_s() - started)
}
