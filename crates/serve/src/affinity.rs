//! CPU affinity for shard workers — dependency-free, like the epoll
//! backend in [`crate::net`].
//!
//! The vendored dependency set has no `libc`/`core_affinity`, so on
//! Linux (x86_64/aarch64) thread pinning issues the raw
//! `sched_setaffinity` syscall through `crate::sys`; everywhere else
//! it is a no-op that reports failure, and callers degrade to unpinned
//! workers.
//!
//! Placement policy ([`placement`]): on a host with at least two cores
//! shard `i` pins to core `1 + (i % (cores - 1))`, so no shard is pinned
//! to core 0. Nothing else is pinned: the network I/O thread(s), the
//! producers and the rest of the process run wherever the scheduler puts
//! them — core 0 is only the core no shard claims, and a busy I/O thread
//! may well share a shard's core. On a single-core host pinning is
//! pointless (everything time-shares core 0 anyway), so the policy
//! assigns nothing and workers run unpinned.
//!
//! The cores counted are the process's ([`host_cores`]), not the
//! calling thread's: a server started from a thread pinned to one core
//! still spreads its shards.

/// Number of logical CPUs this process may run on: the affinity mask of
/// its main thread, not of the caller (best-effort; where the mask cannot
/// be read, the caller's count, and 1 when that is unknown too).
pub fn host_cores() -> usize {
    imp::process_cores()
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Target core for one shard under the placement policy, or `None` when
/// the shard should run unpinned.
///
/// With `cores >= 2` shard `shard` goes to core
/// `1 + (shard % (cores - 1))`, leaving core 0 to whatever the scheduler
/// places there; with one core the policy pins nothing.
pub fn placement(shard: usize, cores: usize) -> Option<usize> {
    if cores < 2 {
        return None;
    }
    Some(1 + (shard % (cores - 1)))
}

/// Pins the calling thread to `cpu`. Returns `true` on success; `false`
/// where unsupported (non-Linux, exotic arch) or when the kernel
/// rejects the mask (e.g. the cpu is outside the cgroup's cpuset).
pub fn pin_current_thread(cpu: usize) -> bool {
    imp::pin_current_thread(cpu)
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    // Syscall numbers (same order: x86_64, aarch64).
    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const SCHED_SETAFFINITY: usize = 203;
        pub const SCHED_GETAFFINITY: usize = 204;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const SCHED_SETAFFINITY: usize = 122;
        pub const SCHED_GETAFFINITY: usize = 123;
    }

    use crate::sys::syscall6;

    pub fn process_cores() -> Option<usize> {
        let mut mask = [0u64; 16];
        // The process id names the main thread, whatever the caller's mask.
        let (pid, len) = (std::process::id() as usize, std::mem::size_of_val(&mask));
        let args = [pid, len, mask.as_mut_ptr() as usize, 0, 0, 0];
        // SAFETY: sched_getaffinity writes at most `size_of_val(&mask)`
        // bytes into `mask`, a live local array of exactly that size.
        let ret = unsafe { syscall6(nr::SCHED_GETAFFINITY, args) };
        (ret > 0).then(|| mask.iter().map(|w| w.count_ones() as usize).sum())
    }

    pub fn pin_current_thread(cpu: usize) -> bool {
        // 1024-bit cpu mask, the kernel's default CONFIG_NR_CPUS ceiling.
        let mut mask = [0u64; 16];
        let (word, bit) = (cpu / 64, cpu % 64);
        if word >= mask.len() {
            return false;
        }
        mask[word] = 1u64 << bit;
        // pid 0 = calling thread.
        // SAFETY: sched_setaffinity only reads `size_of_val(&mask)` bytes
        // from `mask`, a live local array of exactly that size.
        let ret = unsafe {
            syscall6(
                nr::SCHED_SETAFFINITY,
                [
                    0,
                    std::mem::size_of_val(&mask),
                    mask.as_ptr() as usize,
                    0,
                    0,
                    0,
                ],
            )
        };
        ret == 0
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    pub fn process_cores() -> Option<usize> {
        None
    }

    pub fn pin_current_thread(_cpu: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_leaves_core_zero_unclaimed() {
        // Single core: nothing pins.
        for shard in 0..8 {
            assert_eq!(placement(shard, 1), None);
        }
        // Two cores: every shard shares core 1, no shard takes core 0.
        for shard in 0..8 {
            assert_eq!(placement(shard, 2), Some(1));
        }
        // Four cores: shards round-robin over cores 1..=3.
        let cores: Vec<_> = (0..6).map(|s| placement(s, 4).unwrap()).collect();
        assert_eq!(cores, vec![1, 2, 3, 1, 2, 3]);
        assert!(!cores.contains(&0));
    }

    #[test]
    fn pin_current_thread_succeeds_on_linux() {
        // Core 0 always exists; on supported Linux targets the syscall
        // must succeed, elsewhere the portable fallback reports false.
        let ok = pin_current_thread(0);
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        assert!(ok);
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        assert!(!ok);
        // An absurd cpu index is rejected, not fatal.
        assert!(!pin_current_thread(1 << 20));
    }

    #[test]
    fn a_server_started_on_a_pinned_thread_places_its_shard() {
        // The caller's one-core mask is not the process's: a shard
        // started from a thread pinned to core 0 still goes to core 1.
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            return; // one core: nothing to place
        }
        let core = std::thread::spawn(|| {
            if !pin_current_thread(0) {
                return None; // no affinity here: nothing to place
            }
            let config = crate::ServerConfig::new()
                .with_shards(1)
                .with_pin_shards(true);
            let server = crate::Server::start(config);
            server.drain().unwrap();
            let core = server.metrics().shards[0].pinned_core;
            server.shutdown();
            Some(core)
        })
        .join()
        .unwrap();
        assert!(core.is_none_or(|c| c == 1), "shard pinned to {core:?}");
    }
}
