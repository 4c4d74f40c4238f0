//! Readiness polling for the TCP edge.
//!
//! The vendored dependency set has no `tokio`/`mio`/`libc`, so this
//! module brings its own event loop substrate: on Linux
//! (x86_64/aarch64) a minimal **epoll** wrapper over raw syscalls —
//! `epoll_create1`/`epoll_ctl`/`epoll_pwait` issued through
//! `crate::sys` — giving O(ready) wakeups across tens of
//! thousands of connections; everywhere else a portable fallback that
//! reports every registered fd as maybe-ready after a short sleep
//! (correct with non-blocking sockets, just less efficient). The
//! [`Poller`] API is the common denominator: level-triggered
//! readable/writable interest keyed by caller tokens.

use std::io;

/// Readiness interest for one registered fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    pub(crate) const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (includes peer hang-up and errors, so a subsequent
    /// `read` observes them).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) use epoll::Poller;

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub(crate) use fallback::Poller;

/// Raises the process's soft `RLIMIT_NOFILE` to its hard limit so one
/// box can hold tens of thousands of connections. Best-effort: returns
/// the (possibly unchanged) soft limit, or `None` where unsupported.
pub(crate) fn raise_nofile_limit() -> Option<u64> {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        epoll::raise_nofile_limit()
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    {
        None
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod epoll {
    //! Raw-syscall epoll backend (level-triggered).

    use std::io;
    use std::os::fd::RawFd;

    use super::{Event, Interest};
    use crate::sys::syscall6;

    // Syscall numbers (same order: x86_64, aarch64).
    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const EPOLL_CREATE1: usize = 291;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const PRLIMIT64: usize = 302;
        pub const CLOSE: usize = 3;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EPOLL_CREATE1: usize = 20;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const PRLIMIT64: usize = 261;
        pub const CLOSE: usize = 57;
    }

    const EPOLL_CLOEXEC: usize = 0o2000000;
    const EPOLL_CTL_ADD: usize = 1;
    const EPOLL_CTL_DEL: usize = 2;
    const EPOLL_CTL_MOD: usize = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const RLIMIT_NOFILE: usize = 7;

    /// Kernel `struct epoll_event`. x86_64 packs it to 12 bytes;
    /// aarch64 uses natural alignment (16 bytes).
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    #[repr(C)]
    struct Rlimit64 {
        cur: u64,
        max: u64,
    }

    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    /// See [`super::raise_nofile_limit`].
    pub(crate) fn raise_nofile_limit() -> Option<u64> {
        let mut old = Rlimit64 { cur: 0, max: 0 };
        // prlimit64(pid = 0 (self), resource, new = NULL, old).
        // SAFETY: the kernel writes one `struct rlimit64` through `old`,
        // a live local of exactly that `repr(C)` layout; `new` is NULL.
        let ret = unsafe {
            syscall6(
                nr::PRLIMIT64,
                [
                    0,
                    RLIMIT_NOFILE,
                    0,
                    std::ptr::addr_of_mut!(old) as usize,
                    0,
                    0,
                ],
            )
        };
        if ret < 0 {
            return None;
        }
        if old.cur >= old.max {
            return Some(old.cur);
        }
        let new = Rlimit64 {
            cur: old.max,
            max: old.max,
        };
        // SAFETY: the kernel reads one `struct rlimit64` from `new`, a
        // live local of exactly that `repr(C)` layout; `old` is NULL.
        let ret = unsafe {
            syscall6(
                nr::PRLIMIT64,
                [0, RLIMIT_NOFILE, std::ptr::addr_of!(new) as usize, 0, 0, 0],
            )
        };
        Some(if ret < 0 { old.cur } else { new.cur })
    }

    /// Level-triggered epoll instance.
    pub(crate) struct Poller {
        epfd: RawFd,
        /// Scratch for `epoll_pwait` results.
        events: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            // SAFETY: epoll_create1(2) takes no pointer arguments.
            let ret = unsafe { syscall6(nr::EPOLL_CREATE1, [EPOLL_CLOEXEC, 0, 0, 0, 0, 0]) };
            Ok(Poller {
                epfd: check(ret)? as RawFd,
                events: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&mut self, op: usize, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
            let mut mask = EPOLLRDHUP;
            if interest.read {
                mask |= EPOLLIN;
            }
            if interest.write {
                mask |= EPOLLOUT;
            }
            let mut ev = EpollEvent {
                events: mask,
                data: token,
            };
            // SAFETY: the kernel reads one `struct epoll_event` from
            // `ev`, a live local laid out as the kernel's (see
            // `EpollEvent`).
            check(unsafe {
                syscall6(
                    nr::EPOLL_CTL,
                    [
                        self.epfd as usize,
                        op,
                        fd as usize,
                        std::ptr::addr_of_mut!(ev) as usize,
                        0,
                        0,
                    ],
                )
            })
            .map(|_| ())
        }

        pub fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest, token)
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest, token)
        }

        pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
            // The event argument is ignored for DEL on modern kernels.
            self.ctl(EPOLL_CTL_DEL, fd, Interest::READ, 0)
        }

        /// Waits up to `timeout_ms` for readiness, appending to `out`.
        pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            let n = loop {
                // SAFETY: the kernel writes at most `self.events.len()`
                // `struct epoll_event`s to `self.events.as_mut_ptr()`, an
                // owned, initialised buffer of exactly that many
                // `EpollEvent`s, exclusively borrowed for the call; the
                // sigmask pointer is NULL.
                let ret = unsafe {
                    syscall6(
                        nr::EPOLL_PWAIT,
                        [
                            self.epfd as usize,
                            self.events.as_mut_ptr() as usize,
                            self.events.len(),
                            timeout_ms as usize,
                            0, // sigmask = NULL
                            8, // sigsetsize
                        ],
                    )
                };
                match check(ret) {
                    Ok(n) => break n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for ev in &self.events[..n] {
                let mask = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: mask & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0,
                    writable: mask & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            if n == self.events.len() {
                // Saturated: grow so a huge ready set drains in fewer
                // rounds.
                self.events
                    .resize(self.events.len() * 2, EpollEvent { events: 0, data: 0 });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: no pointer arguments; `epfd` is owned by this
            // `Poller` and closed exactly once, here.
            unsafe {
                syscall6(nr::CLOSE, [self.epfd as usize, 0, 0, 0, 0, 0]);
            }
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod fallback {
    //! Portable backend: no kernel readiness — after a short sleep every
    //! registered fd is reported as maybe-readable/writable and the
    //! non-blocking socket calls sort out reality. Scales worse than
    //! epoll (O(fds) per round) but behaves identically.

    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    use super::{Event, Interest};

    pub(crate) struct Poller {
        registered: HashMap<RawFd, (u64, Interest)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            Ok(Poller {
                registered: HashMap::new(),
            })
        }

        pub fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.registered.insert(fd, (token, interest));
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.registered.insert(fd, (token, interest));
            Ok(())
        }

        pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
            self.registered.remove(&fd);
            Ok(())
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            std::thread::sleep(Duration::from_millis((timeout_ms.clamp(0, 2)) as u64));
            for (&_fd, &(token, interest)) in &self.registered {
                out.push(Event {
                    token,
                    readable: interest.read,
                    writable: interest.write,
                });
            }
            Ok(())
        }
    }
}

/// Classifies an I/O result into "would block" vs real error — shared
/// by the read and write paths of the event loop.
pub(crate) fn would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
    )
}
