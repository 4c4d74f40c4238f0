//! The one place in the workspace that issues raw syscalls.
//!
//! The vendored dependency set has no `libc`, so the epoll backend
//! ([`crate::net`]) and thread pinning ([`crate::affinity`]) talk to the
//! Linux kernel through [`syscall6`]. This module is compiled only on
//! Linux x86_64/aarch64; callers carry their own syscall-number tables
//! and portable fallbacks.

/// Issues the raw syscall `n` with six argument registers; returns the
/// kernel's result (negative = `-errno`). Unused arguments are passed as
/// zero.
///
/// # Safety
///
/// The instruction itself is sound for any arguments; what the *kernel*
/// does with them is the caller's responsibility. Every argument that
/// syscall `n` interprets as a pointer must point to memory valid for
/// the access the kernel performs (read, write, or both) for the length
/// the call implies, for the whole duration of the call, and `n` must
/// not be a syscall that invalidates state Rust relies on (unmapping
/// live memory, closing an fd something else owns, …).
pub(crate) unsafe fn syscall6(n: usize, args: [usize; 6]) -> isize {
    let ret: isize;
    // Invariant (x86_64 Linux syscall ABI): number in rax, arguments in
    // rdi, rsi, rdx, r10, r8, r9, result in rax; the `syscall`
    // instruction clobbers exactly rcx and r11 (return address and
    // rflags) and the kernel preserves every other register and never
    // touches the user stack — hence the two `lateout` clobbers and
    // `nostack`. Memory is not declared `nomem`: the kernel may read and
    // write through pointer arguments.
    #[cfg(target_arch = "x86_64")]
    core::arch::asm!(
        "syscall",
        inlateout("rax") n as isize => ret,
        in("rdi") args[0],
        in("rsi") args[1],
        in("rdx") args[2],
        in("r10") args[3],
        in("r8") args[4],
        in("r9") args[5],
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
    // Invariant (aarch64 Linux syscall ABI): number in x8, arguments in
    // x0–x5, result in x0; the kernel preserves every other register
    // across `svc 0` and never touches the user stack — hence no extra
    // clobbers and `nostack`.
    #[cfg(target_arch = "aarch64")]
    core::arch::asm!(
        "svc 0",
        in("x8") n,
        inlateout("x0") args[0] => ret,
        in("x1") args[1],
        in("x2") args[2],
        in("x3") args[3],
        in("x4") args[4],
        in("x5") args[5],
        options(nostack),
    );
    ret
}
