//! Handing freed heap back to the operating system.
//!
//! glibc keeps what a process frees: chunks below its (self-raising, up to
//! 32 MiB) `mmap` threshold come from the `brk` heap and the per-thread
//! arenas, and only a free *top* ever shrinks those. A process that
//! generates, trains or thaws a table and then serves it therefore carries
//! the pages of everything it built on the way as resident holes — and what
//! a later large allocation costs in resident memory depends on whether one
//! of those holes happens to fit it, which differs from run to run
//! (`HashMap` seeds and thread timing order the frees). Releasing the holes
//! at the one point a process turns from loading to serving makes its
//! resident size its live data instead of its allocation history.
//!
//! Declared by hand like [`crate::poll`]'s syscalls (no `libc` crate);
//! compiled to nothing where the allocator is not glibc's.

/// Return every wholly free page of the allocator's arenas to the operating
/// system (`malloc_trim(0)` on glibc; a no-op elsewhere). Live allocations
/// are untouched; the released address space stays reserved and faults
/// fresh pages back in when reused. Takes each arena's lock in turn for
/// about a millisecond per 10 MB of free chunks, so call it at a phase
/// boundary, not on a request path.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` has no preconditions; it locks each arena
        // while it works on it and never touches memory in use.
        unsafe { malloc_trim(0) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `VmRSS` of this process, in KB.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn resident_kb() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
        let line = status
            .lines()
            .find(|l| l.starts_with("VmRSS:"))
            .expect("VmRSS");
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    }

    #[test]
    fn releasing_returns_the_holes_and_keeps_what_is_live() {
        // 32 KB buffers (below any mmap threshold, so they sit side by side
        // in an arena), every other one freed: 32 MB of holes between live
        // chunks, which only a trim, not a shrinking top, can release.
        const WORDS: u64 = 4096;
        let mut bufs: Vec<Option<Vec<u64>>> = (0..2048u64)
            .map(|i| Some((0..WORDS).map(|w| w ^ i).collect()))
            .collect();
        for hole in bufs.iter_mut().step_by(2) {
            *hole = None;
        }
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        let before = resident_kb();
        release_free_heap();
        // Other tests of this binary allocate beside this one, but not tens
        // of megabytes: at least half of the 32 MB went back.
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        assert!(
            resident_kb() + 16 * 1024 <= before,
            "resident {} KB before, {} KB after",
            before,
            resident_kb()
        );
        for (i, buf) in bufs.iter().enumerate().skip(1).step_by(2) {
            let buf = buf.as_ref().expect("odd buffers were kept");
            assert!(buf.iter().zip(0u64..).all(|(&w, at)| w == at ^ i as u64));
        }
        // The released holes are still usable.
        let again: Vec<Vec<u64>> = (0..1024).map(|_| (0..WORDS).collect()).collect();
        assert!(again.iter().all(|b| b[WORDS as usize - 1] == WORDS - 1));
    }
}
