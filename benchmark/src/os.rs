//! std-only OS helpers: CPU affinity, process resource usage, heap in use,
//! peak RSS, and the counting allocator behind `allocs_per_op`.
//!
//! The foreign calls are the four libc entry points the benchmark needs
//! (`sched_getaffinity`, `sched_setaffinity`, `getrusage`, and glibc's
//! `mallinfo2`); no crate is pulled in for them. The layouts below are
//! those of 64-bit Linux.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark's OS helpers assume 64-bit Linux (cpu_set_t and rusage layouts)");

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with two statistics bolted on: heap requests
/// (`alloc`, `alloc_zeroed` and `realloc` each count one) and bytes
/// requested. Relaxed adds: the counters publish no other data, and the
/// process runs on one CPU, so the adds are uncontended.
pub struct CountingAlloc;

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no memory
// the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(heap requests, bytes requested)` by the whole process so far.
pub fn alloc_counts() -> (u64, u64) {
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

// ---------------------------------------------------------------------------
// CPU affinity
// ---------------------------------------------------------------------------

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn mallinfo2() -> MallInfo2;
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable `cpu_set_t`-sized buffer and the
    // size passed is its size; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..1024).filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1).collect())
}

/// Restrict the calling thread — and every thread it spawns afterwards,
/// which is why `main` calls this before any world exists — to the first
/// CPU of its allowed set. Returns that CPU. On a one-CPU cpuset nothing
/// is changed.
pub fn pin_to_first_cpu() -> io::Result<usize> {
    let allowed = allowed_cpus()?;
    let first = *allowed.first().ok_or_else(|| io::Error::other("empty CPU affinity set"))?;
    if allowed.len() > 1 {
        let mut set: CpuSet = [0; 16];
        set[first / 64] = 1 << (first % 64);
        // SAFETY: `set` is a live `cpu_set_t`-sized buffer and the size
        // passed is its size; pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(first)
}

// ---------------------------------------------------------------------------
// Resource usage
// ---------------------------------------------------------------------------

/// `struct rusage`: two `timeval`s, then fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    /// maxrss ixrss idrss isrss minflt majflt nswap inblock oublock
    /// msgsnd msgrcv nsignals nvcsw nivcsw
    longs: [i64; 14],
}

/// Process totals over all threads, live and joined.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

/// `getrusage(RUSAGE_SELF)`.
pub fn usage() -> Usage {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a live, writable buffer with `struct rusage`'s
    // layout; 0 is RUSAGE_SELF. The call cannot fail with these arguments.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    Usage {
        cpu_s: secs(ru.utime) + secs(ru.stime),
        ctx_switches: (ru.longs[12] + ru.longs[13]) as u64,
    }
}

/// glibc's `struct mallinfo2` (2.33 and later): ten `size_t`s.
#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    /// Bytes in mmapped chunks.
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    /// Bytes in chunks in use, all arenas.
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

/// Bytes the process's heap holds in live allocations right now, malloc
/// overhead included, over every arena. Unlike the resident set it does
/// not depend on which arena a thread happened to be given.
pub fn heap_in_use_bytes() -> usize {
    // SAFETY: `mallinfo2` takes no arguments, returns its struct by value
    // and only reads the allocator's own bookkeeping under its locks.
    let info = unsafe { mallinfo2() };
    info.uordblks + info.hblkhd
}

/// The value of one `/proc/self/status` field, e.g. `VmHWM` or
/// `Cpus_allowed_list`.
pub fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        (name == field).then(|| value.trim().to_owned())
    })
}

/// Peak resident set size of the process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let value = proc_status("VmHWM")?;
    let kib: f64 = value.strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// The CPU the calling thread last ran on (`/proc/thread-self/stat`
/// field 39).
pub fn last_cpu() -> Option<usize> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // The command name (field 2) may hold spaces; count from its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    rest.split(' ').nth(36)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Other test threads allocate too, which can only add to a delta;
    /// the smallest delta over many tries is this thread's own.
    fn own_allocs(f: impl Fn()) -> (u64, u64) {
        (0..200)
            .map(|_| {
                let (a0, b0) = alloc_counts();
                f();
                let (a1, b1) = alloc_counts();
                (a1 - a0, b1 - b0)
            })
            .min()
            .unwrap()
    }

    #[test]
    fn allocator_counts_a_known_vec_growth_exactly() {
        // with_capacity(4) is one alloc of 32 bytes; the fifth push
        // doubles the buffer with one realloc to 64 bytes.
        let (allocs, bytes) = own_allocs(|| {
            let mut v: Vec<u64> = Vec::with_capacity(4);
            for i in 0..5 {
                v.push(std::hint::black_box(i));
            }
            std::hint::black_box(&v);
        });
        assert_eq!((allocs, bytes), (2, 32 + 64));
        let (allocs, _) = own_allocs(|| {
            std::hint::black_box(0u64);
        });
        assert_eq!(allocs, 0, "no heap use, no count");
    }

    #[test]
    fn heap_in_use_follows_a_large_allocation() {
        // Other test threads allocate little; 32 MiB stands out.
        const BIG: usize = 32 << 20;
        let before = heap_in_use_bytes();
        let big = vec![1u8; BIG];
        let during = heap_in_use_bytes();
        drop(std::hint::black_box(big));
        let after = heap_in_use_bytes();
        assert!(during >= before + BIG && during < before + BIG + (4 << 20), "{before} {during}");
        assert!(after < before + (4 << 20), "{before} {after}");
    }

    #[test]
    fn pinning_a_one_cpu_set_is_a_no_op() {
        // The first pin may narrow this test thread; the second finds a
        // one-CPU set and must leave it exactly as it is.
        let cpu = pin_to_first_cpu().unwrap();
        let before = allowed_cpus().unwrap();
        assert_eq!(before, vec![cpu]);
        assert_eq!(pin_to_first_cpu().unwrap(), cpu);
        assert_eq!(allowed_cpus().unwrap(), before);
        // A thread spawned now inherits the one-CPU set.
        let child = std::thread::spawn(|| allowed_cpus().unwrap()).join().unwrap();
        assert_eq!(child, before);
        assert_eq!(last_cpu(), Some(cpu));
    }

    #[test]
    fn usage_and_peak_rss_read_sane_values() {
        let t0 = usage();
        let mut x = 0u64;
        while usage().cpu_s - t0.cpu_s < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(usage().cpu_s > t0.cpu_s);
        assert!(peak_rss_mb().unwrap() > 0.5);
        assert!(proc_status("Cpus_allowed_list").is_some());
    }
}
