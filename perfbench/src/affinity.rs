//! Thread placement for the sequential workloads. On a two-core virtual
//! machine a round trip between a client and the server's threads crosses
//! cores, and each crossing waits for the hypervisor to wake an idle
//! virtual CPU; that wake-up latency changes with the host's load, from
//! launch to launch and within one run (15 µs and 34 µs median round
//! trips were both measured). With every thread of the run on one CPU a
//! round trip is hand-offs within one core — syscalls, context switches,
//! codec and dispatch, the path the program controls — so `interactive`
//! and `coordinate`, which keep one request in flight, pin themselves that
//! way. `analyst` pipelines work for both server workers and is left to
//! the scheduler.

/// Bytes of a Linux `cpu_set_t`.
const SET_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

/// The CPUs the calling thread may run on.
pub fn allowed() -> Vec<usize> {
    let mut set = [0u8; SET_BYTES];
    // SAFETY: `set` is a writable buffer of exactly `SET_BYTES` bytes, the
    // size passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, SET_BYTES, set.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..SET_BYTES * 8)
        .filter(|&c| set[c / 8] & (1 << (c % 8)) != 0)
        .collect()
}

/// Restricts the calling thread (and threads it spawns later) to `cpus`;
/// returns whether the kernel accepted it.
pub fn pin(cpus: &[usize]) -> bool {
    let mut set = [0u8; SET_BYTES];
    for &c in cpus.iter().filter(|&&c| c < SET_BYTES * 8) {
        set[c / 8] |= 1 << (c % 8);
    }
    // SAFETY: `set` is a readable buffer of exactly `SET_BYTES` bytes, the
    // size passed; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, SET_BYTES, set.as_ptr()) == 0 }
}
