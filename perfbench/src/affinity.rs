//! Pinning the benchmark, and the `bfd` children it spawns, to one CPU.
//!
//! With one closed-loop connection only one side runs at a time, so a
//! single CPU serves the traffic. Left to the scheduler, every request
//! hands off between client, connection thread and tenant worker on
//! whichever CPUs they last ran on. On a 2-vCPU virtual machine the
//! cross-CPU wake-ups spread one seed's round-trip metrics by 0.15–0.54
//! (IQR ÷ median over 4 runs); pinned, by 0.04–0.13.

use std::io;
use std::mem::size_of_val;

/// glibc's `cpu_set_t`: 1024 CPU bits.
const MASK_WORDS: usize = 16;

extern "C" {
    // Linux `sched_getaffinity(2)` / `sched_setaffinity(2)`. The
    // container has no libc crate; std already links the C library.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread or process it starts
/// afterwards, to the highest-numbered CPU it may run on. Returns that
/// CPU.
///
/// # Errors
///
/// The system call's error.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let mut allowed = [0u64; MASK_WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}
