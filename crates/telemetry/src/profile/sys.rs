//! Raw Linux syscalls for the sampling profiler.
//!
//! The workspace is dependency-free, so the profiler talks to the kernel
//! directly: `rt_sigaction` to
//! install the SIGPROF handler (x86_64 must supply its own `sa_restorer`
//! trampoline; arm64 falls back to the vDSO sigreturn), POSIX interval
//! timers (`timer_create`/`timer_settime`/`timer_delete`) to drive the
//! sampling clock, and `process_vm_readv` *on ourselves* so the stack walk
//! reads arbitrary frame-pointer chains without ever being able to fault
//! inside a signal handler (a bad pointer comes back as `-EFAULT`, not
//! SIGSEGV).
//!
//! Everything here uses the *kernel* ABI structures (the ones the raw
//! syscalls expect), not libc's — field layouts below are the uapi ones
//! for x86_64 and aarch64.

#![allow(dead_code)]

use std::arch::asm;

pub(super) const SIGPROF: i32 = 27;
pub(super) const SA_SIGINFO: usize = 4;
pub(super) const SA_RESTART: usize = 0x1000_0000;
pub(super) const SA_RESTORER: usize = 0x0400_0000;

pub(super) const CLOCK_MONOTONIC: i32 = 1;
pub(super) const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
pub(super) const SIGEV_SIGNAL: i32 = 0;

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const RT_SIGACTION: usize = 13;
    pub const TIMER_CREATE: usize = 222;
    pub const TIMER_SETTIME: usize = 223;
    pub const TIMER_DELETE: usize = 226;
    pub const GETPID: usize = 39;
    pub const PROCESS_VM_READV: usize = 310;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const RT_SIGACTION: usize = 134;
    pub const TIMER_CREATE: usize = 107;
    pub const TIMER_SETTIME: usize = 110;
    pub const TIMER_DELETE: usize = 111;
    pub const GETPID: usize = 172;
    pub const PROCESS_VM_READV: usize = 270;
}

/// Six-argument syscall. Returns the raw kernel result (`-errno` on
/// failure, in `-4095..=-1`).
#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    asm!(
        "syscall",
        inlateout("rax") n => ret,
        in("rdi") a,
        in("rsi") b,
        in("rdx") c,
        in("r10") d,
        in("r8") e,
        in("r9") f,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack)
    );
    ret
}

#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    asm!(
        "svc #0",
        inlateout("x8") n => _,
        inlateout("x0") a => ret,
        in("x1") b,
        in("x2") c,
        in("x3") d,
        in("x4") e,
        in("x5") f,
        options(nostack)
    );
    ret
}

// The signal-frame return trampoline x86_64 `rt_sigaction` requires: the
// kernel has no default restorer for handlers installed via the raw
// syscall (libc normally supplies one), so we provide the canonical
// two-instruction stub that invokes `rt_sigreturn` (syscall 15).
#[cfg(target_arch = "x86_64")]
std::arch::global_asm!(
    ".globl telemetry_profile_sigreturn",
    ".hidden telemetry_profile_sigreturn",
    "telemetry_profile_sigreturn:",
    "mov rax, 15",
    "syscall",
);

#[cfg(target_arch = "x86_64")]
extern "C" {
    fn telemetry_profile_sigreturn();
}

/// Kernel `struct sigaction` (x86_64: handler, flags, restorer, mask).
#[cfg(target_arch = "x86_64")]
#[repr(C)]
struct KernelSigaction {
    handler: usize,
    flags: usize,
    restorer: usize,
    mask: u64,
}

/// Kernel `struct sigaction` (aarch64 defines no SA_RESTORER field).
#[cfg(target_arch = "aarch64")]
#[repr(C)]
struct KernelSigaction {
    handler: usize,
    flags: usize,
    mask: u64,
}

pub(super) type Handler = extern "C" fn(i32, *mut core::ffi::c_void, *mut core::ffi::c_void);

/// Installs `handler` for SIGPROF with `SA_SIGINFO | SA_RESTART` (restart
/// interrupted syscalls — the daemon's accept/read loops must not see
/// spurious EINTR). Returns `false` on kernel refusal.
pub(super) fn install_sigprof_handler(handler: Handler) -> bool {
    #[cfg(target_arch = "x86_64")]
    let act = KernelSigaction {
        handler: handler as usize,
        flags: SA_SIGINFO | SA_RESTART | SA_RESTORER,
        restorer: telemetry_profile_sigreturn as *const () as usize,
        mask: 0,
    };
    #[cfg(target_arch = "aarch64")]
    let act = KernelSigaction {
        handler: handler as usize,
        flags: SA_SIGINFO | SA_RESTART,
        mask: 0,
    };
    let ret = unsafe {
        syscall6(
            nr::RT_SIGACTION,
            SIGPROF as usize,
            &act as *const _ as usize,
            0,
            8, // sizeof(kernel sigset_t)
            0,
            0,
        )
    };
    ret == 0
}

/// Kernel `struct sigevent`, padded to its fixed 64-byte uapi size.
#[repr(C)]
struct SigEvent {
    value: usize,
    signo: i32,
    notify: i32,
    pad: [i32; 12],
}

#[repr(C)]
#[derive(Clone, Copy)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

#[repr(C)]
struct Itimerspec {
    interval: Timespec,
    value: Timespec,
}

/// A POSIX interval timer delivering process-directed SIGPROF; disarmed
/// and deleted on drop.
pub(super) struct SampleTimer {
    id: i32,
}

impl SampleTimer {
    /// Creates and arms a periodic timer on `clockid` firing every
    /// `period_ns` nanoseconds.
    pub(super) fn start(clockid: i32, period_ns: u64) -> Option<SampleTimer> {
        let ev = SigEvent {
            value: 0,
            signo: SIGPROF,
            notify: SIGEV_SIGNAL,
            pad: [0; 12],
        };
        let mut id: i32 = 0;
        let ret = unsafe {
            syscall6(
                nr::TIMER_CREATE,
                clockid as usize,
                &ev as *const _ as usize,
                &mut id as *mut _ as usize,
                0,
                0,
                0,
            )
        };
        if ret != 0 {
            return None;
        }
        let period = Timespec {
            sec: (period_ns / 1_000_000_000) as i64,
            nsec: (period_ns % 1_000_000_000) as i64,
        };
        let spec = Itimerspec {
            interval: period,
            value: period,
        };
        let ret = unsafe {
            syscall6(
                nr::TIMER_SETTIME,
                id as usize,
                0,
                &spec as *const _ as usize,
                0,
                0,
                0,
            )
        };
        if ret != 0 {
            unsafe { syscall6(nr::TIMER_DELETE, id as usize, 0, 0, 0, 0, 0) };
            return None;
        }
        Some(SampleTimer { id })
    }

    /// Disarms the timer (expirations stop; already-pending signals may
    /// still deliver).
    pub(super) fn disarm(&self) {
        let zero = Itimerspec {
            interval: Timespec { sec: 0, nsec: 0 },
            value: Timespec { sec: 0, nsec: 0 },
        };
        unsafe {
            syscall6(
                nr::TIMER_SETTIME,
                self.id as usize,
                0,
                &zero as *const _ as usize,
                0,
                0,
                0,
            )
        };
    }
}

impl Drop for SampleTimer {
    fn drop(&mut self) {
        self.disarm();
        unsafe { syscall6(nr::TIMER_DELETE, self.id as usize, 0, 0, 0, 0, 0) };
    }
}

#[repr(C)]
struct IoVec {
    base: usize,
    len: usize,
}

/// Our own pid, cached for `process_vm_readv`.
pub(super) fn getpid() -> i32 {
    (unsafe { syscall6(nr::GETPID, 0, 0, 0, 0, 0, 0) }) as i32
}

/// Reads `dst.len()` bytes of our *own* address space at `addr` via
/// `process_vm_readv`, which validates the pointer in the kernel: an
/// unmapped or guard-page address returns `false` instead of faulting.
/// Async-signal-safe (a plain syscall, no allocation).
pub(super) fn read_self_mem(pid: i32, addr: u64, dst: &mut [u8]) -> bool {
    let local = IoVec {
        base: dst.as_mut_ptr() as usize,
        len: dst.len(),
    };
    let remote = IoVec {
        base: addr as usize,
        len: dst.len(),
    };
    let ret = unsafe {
        syscall6(
            nr::PROCESS_VM_READV,
            pid as usize,
            &local as *const _ as usize,
            1,
            &remote as *const _ as usize,
            1,
            0,
        )
    };
    ret == dst.len() as isize
}

/// Program counter and frame pointer out of the kernel `ucontext` passed
/// to a `SA_SIGINFO` handler. Offsets are the kernel signal-frame layout
/// (we installed the handler via raw `rt_sigaction`, so this *is* the
/// kernel's struct, not libc's).
///
/// x86_64: `uc_mcontext` (a `struct sigcontext`) starts at byte 40
/// (after `uc_flags`, `uc_link`, `uc_stack`); within it the gpr order is
/// r8..r15, di, si, bp, bx, dx, ax, cx, sp, ip — so rbp is slot 10 and
/// rip slot 16.
///
/// aarch64: `uc_mcontext` starts at byte 176 (8 + 8 + 24 `uc_stack` +
/// 128 `uc_sigmask`, 16-aligned); within it `fault_address` (8) precedes
/// `regs[31]`, `sp`, `pc` — fp is `regs[29]`.
pub(super) unsafe fn ucontext_pc_fp(uctx: *const u8) -> (u64, u64) {
    #[cfg(target_arch = "x86_64")]
    {
        let mcontext = uctx.add(40) as *const u64;
        let fp = mcontext.add(10).read();
        let pc = mcontext.add(16).read();
        (pc, fp)
    }
    #[cfg(target_arch = "aarch64")]
    {
        let regs = uctx.add(176 + 8) as *const u64;
        let fp = regs.add(29).read();
        // After regs[0..=30] come sp (index 31) and pc (index 32).
        let pc = regs.add(32).read();
        (pc, fp)
    }
}
