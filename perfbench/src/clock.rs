//! The benchmark's clocks and host probes.
//!
//! CPU-clock metrics use the on-CPU time of the whole benchmark process,
//! `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`: the `sum_exec_runtime`
//! counters of all its threads, brought up to date at the read, plus
//! those of threads that have already exited. The execution pipelines
//! run blocks on short-lived worker threads (`execute_parallel`), so the
//! calling thread's own clock would miss their work. Apart from the
//! calibration kernel, which joins its threads before it returns, the
//! benchmark starts no threads, so every thread the process runs during
//! a measurement belongs to the code being measured. Wall time of a run
//! varies far more than on-CPU time on a shared host, because it also
//! counts time the threads spend descheduled.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux process CPU time through a 64-bit timespec");

/// Where CPU-clock metrics come from, as recorded in the run header.
pub const CPU_CLOCK_SOURCE: &str =
    "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) (all threads, worker threads included)";

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// On-CPU nanoseconds of the process so far, over all its threads.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked by the `compile_error!` above) for
    // the whole call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Runs `f` and adds its on-CPU nanoseconds to `acc`.
#[inline]
pub fn timed<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let start = cpu_ns();
    let out = f();
    *acc += cpu_ns() - start;
    out
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status for VmHWM");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// The git commit of the checkout, read from `.git` in the working
/// directory; `unknown` where the checkout is not a git repository.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}
