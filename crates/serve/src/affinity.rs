//! CPU affinity for shard workers — dependency-free, like the epoll
//! backend in [`crate::net`].
//!
//! The vendored dependency set has no `libc`/`core_affinity`, so on
//! Linux (x86_64/aarch64) thread pinning issues the raw
//! `sched_setaffinity` syscall through `crate::sys`; everywhere else
//! it is a no-op that reports failure, and callers degrade to unpinned
//! workers.
//!
//! Placement policy ([`placement`]): core 0 is reserved for the network
//! I/O thread(s) whenever the host has at least one core to spare, and
//! shard `i` pins to core `1 + (i % (cores - 1))`. On a single-core
//! host pinning is pointless (everything time-shares core 0 anyway), so
//! the policy assigns nothing and workers run unpinned.

/// Number of logical CPUs visible to this process (best-effort; 1 when
/// unknown).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Target core for one shard under the placement policy, or `None` when
/// the shard should run unpinned.
///
/// With `cores >= 2`, core 0 is left to the net I/O thread(s) and shard
/// `shard` goes to core `1 + (shard % (cores - 1))`; with one core the
/// policy pins nothing.
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
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const SCHED_SETAFFINITY: usize = 122;
    }

    use crate::sys::syscall6;

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
    pub fn pin_current_thread(_cpu: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_reserves_core_zero() {
        // Single core: nothing pins.
        for shard in 0..8 {
            assert_eq!(placement(shard, 1), None);
        }
        // Two cores: every shard shares core 1, core 0 stays free for I/O.
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
}
