//! Dependency-free sampling wall/CPU profiler.
//!
//! A POSIX interval timer delivers process-directed SIGPROF at a fixed
//! rate; the handler captures a frame-pointer backtrace of whichever
//! thread the kernel interrupted into that thread's lock-free sample ring
//! (claimed once per thread from a preallocated pool under a fixed byte
//! budget), tags it with the innermost active `omega::trace` span, and
//! returns. Nothing in the signal path allocates, locks, or faults: stack
//! memory is read through `process_vm_readv` on our own pid, so a bogus
//! frame pointer ends the walk with `-EFAULT` instead of killing the
//! process, and a start-time self-test downgrades to pc-only samples if
//! the syscall is unavailable (e.g. a seccomp profile that denies it).
//!
//! Samples are raw program counters until export: [`Profile::resolve`]
//! symbolizes them once from `/proc/self/maps` + the ELF symbol table and
//! aggregates identical stacks, and the result renders as collapsed
//! flamegraph text ([`ResolvedProfile::collapsed`]).
//!
//! One session may be active at a time ([`start`] returns
//! [`ProfileError::Busy`] otherwise); the codegend HTTP endpoint maps
//! that to 409. Frame-pointer walks need the workspace's
//! `-C force-frame-pointers=yes` (see `.cargo/config.toml`) — without it
//! stacks degrade to the leaf frame, which is still attributable.

mod symbolize;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys;

pub use symbolize::{demangle, Symbolizer};

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Which clock drives the sampler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `CLOCK_MONOTONIC`: samples accrue with wall time, so blocked
    /// threads (queue waits, lock convoys) show up in proportion to real
    /// time — when the kernel picks them for delivery.
    Wall,
    /// `CLOCK_PROCESS_CPUTIME_ID`: samples accrue only while the process
    /// burns CPU — the classic profiling clock, preferring running
    /// threads.
    Cpu,
}

impl Mode {
    /// `"wall"` / `"cpu"` — used in exports and URLs.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Wall => "wall",
            Mode::Cpu => "cpu",
        }
    }
}

/// Sampler configuration.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Sampling clock.
    pub mode: Mode,
    /// Samples per second (clamped to `1..=1000`). 99 Hz default — the
    /// conventional prime-ish rate that avoids lockstep with periodic
    /// work.
    pub hz: u32,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            mode: Mode::Cpu,
            hz: 99,
        }
    }
}

/// Why a profiling session could not start or stop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProfileError {
    /// Another session is already collecting (one at a time).
    Busy,
    /// This platform has no sampler (non-Linux, or an unsupported arch).
    Unsupported,
    /// The kernel refused the signal handler or timer.
    TimerFailed,
    /// [`stop`] without an active session.
    NotActive,
}

impl ProfileError {
    /// Stable lowercase token for logs and HTTP bodies.
    pub fn as_str(self) -> &'static str {
        match self {
            ProfileError::Busy => "busy",
            ProfileError::Unsupported => "unsupported",
            ProfileError::TimerFailed => "timer-failed",
            ProfileError::NotActive => "not-active",
        }
    }
}

/// One aggregated stack: symbolized frames, leaf first.
#[derive(Clone, Debug)]
pub struct StackSample {
    /// Frame names, innermost (leaf) first.
    pub frames: Vec<String>,
    /// Innermost `omega::trace` span active at capture, if any.
    pub span: Option<String>,
    /// Number of raw samples that collapsed into this stack.
    pub count: u64,
}

/// One captured backtrace, still unsymbolized.
#[derive(Clone, Debug)]
pub struct RawSample {
    /// Program counters, leaf first (`frames[0]` is the interrupted pc).
    pub frames: Vec<u64>,
    /// Innermost `omega::trace` span active on the sampled thread.
    pub span: Option<String>,
}

/// The outcome of a sampling session ([`stop`]'s result).
#[derive(Clone, Debug)]
pub struct Profile {
    /// Captured samples across all threads.
    pub samples: Vec<RawSample>,
    /// Samples lost to ring overwrites or pool exhaustion.
    pub dropped: u64,
    /// Sampling clock.
    pub mode: Mode,
}

impl Profile {
    /// Symbolizes every frame and aggregates identical stacks.
    pub fn resolve(&self) -> ResolvedProfile {
        let mut sym = Symbolizer::for_self();
        let mut agg: HashMap<(Option<String>, Vec<String>), u64> = HashMap::new();
        for s in &self.samples {
            let frames: Vec<String> = s
                .frames
                .iter()
                .enumerate()
                .map(|(i, &pc)| {
                    // Non-leaf frames hold return addresses: resolve the
                    // call site (pc − 1), not the instruction after it.
                    sym.resolve(if i == 0 { pc } else { pc.saturating_sub(1) })
                })
                .collect();
            *agg.entry((s.span.clone(), frames)).or_insert(0) += 1;
        }
        let mut stacks: Vec<StackSample> = agg
            .into_iter()
            .map(|((span, frames), count)| StackSample {
                frames,
                span,
                count,
            })
            .collect();
        stacks.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.frames.cmp(&b.frames)));
        ResolvedProfile {
            stacks,
            sample_count: self.samples.len() as u64,
            dropped: self.dropped,
            mode: self.mode,
        }
    }
}

/// A symbolized, aggregated profile ready to export.
#[derive(Debug)]
pub struct ResolvedProfile {
    /// Distinct stacks with counts, most-sampled first.
    pub stacks: Vec<StackSample>,
    /// Raw samples that went into the aggregation.
    pub sample_count: u64,
    /// Samples lost to ring overwrites or pool exhaustion.
    pub dropped: u64,
    /// Sampling clock.
    pub mode: Mode,
}

impl ResolvedProfile {
    /// Collapsed-stack (flamegraph) text: one `frame;frame;… count` line
    /// per distinct stack, root first, with the attributed span prepended
    /// as a synthetic root frame (`span:<name>`). Deterministic order.
    pub fn collapsed(&self) -> String {
        let mut lines: Vec<String> = self
            .stacks
            .iter()
            .map(|s| {
                let mut parts: Vec<&str> = Vec::with_capacity(s.frames.len() + 1);
                let span_frame;
                if let Some(span) = &s.span {
                    span_frame = format!("span:{span}");
                    parts.push(&span_frame);
                }
                for f in s.frames.iter().rev() {
                    parts.push(f);
                }
                format!("{} {}", parts.join(";"), s.count)
            })
            .collect();
        lines.sort();
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }
}

/// Point-in-time profiler status, surfaced on `/healthz`.
#[derive(Clone, Copy, Debug)]
pub struct ProfilerState {
    /// Whether this build/platform can profile at all.
    pub supported: bool,
    /// A session is currently collecting.
    pub active: bool,
    /// Sessions completed since process start.
    pub sessions: u64,
    /// Samples captured by the most recent completed session.
    pub last_samples: u64,
    /// `true` once a self-test downgraded capture to pc-only samples
    /// (no `process_vm_readv`).
    pub pc_only: bool,
}

// ---------------------------------------------------------------------------
// Span attribution (portable — maintained even where sampling isn't).
// ---------------------------------------------------------------------------

const SPAN_DEPTH: usize = 32;

/// Per-thread stack of `&'static str` span names, stored as raw
/// (ptr, len) pairs in atomics so the SIGPROF handler — which only ever
/// interrupts, never races, this thread — can read a consistent innermost
/// entry: an entry below `depth` is always fully written before `depth`
/// exposes it.
struct SpanStack {
    depth: AtomicUsize,
    ptrs: [AtomicUsize; SPAN_DEPTH],
    lens: [AtomicUsize; SPAN_DEPTH],
}

impl SpanStack {
    const fn new() -> SpanStack {
        SpanStack {
            depth: AtomicUsize::new(0),
            ptrs: [const { AtomicUsize::new(0) }; SPAN_DEPTH],
            lens: [const { AtomicUsize::new(0) }; SPAN_DEPTH],
        }
    }
}

thread_local! {
    static SPAN_STACK: SpanStack = const { SpanStack::new() };
}

/// Marks `name` as this thread's innermost active span. Called by the
/// `omega::trace` profile hook on span entry; must be paired with
/// [`span_exit`]. A few relaxed thread-local stores — cheap enough to
/// leave armed permanently.
pub fn span_enter(name: &'static str) {
    SPAN_STACK.with(|s| {
        let d = s.depth.load(Ordering::Relaxed);
        if d < SPAN_DEPTH {
            s.ptrs[d].store(name.as_ptr() as usize, Ordering::Relaxed);
            s.lens[d].store(name.len(), Ordering::Relaxed);
        }
        // Write the entry before exposing it: the handler reads only
        // indices < depth. Depth still advances past capacity so
        // enter/exit stay balanced; overflow entries just aren't recorded.
        s.depth.store(d + 1, Ordering::Relaxed);
    });
}

/// Pops the innermost span. Unbalanced exits are clamped at zero.
pub fn span_exit() {
    SPAN_STACK.with(|s| {
        let d = s.depth.load(Ordering::Relaxed);
        if d > 0 {
            s.depth.store(d - 1, Ordering::Relaxed);
        }
    });
}

/// The sampled thread's innermost span as a raw (ptr, len) pair; (0, 0)
/// when no span is active. Async-signal-safe.
fn current_span_raw() -> (usize, usize) {
    SPAN_STACK.with(|s| {
        let d = s.depth.load(Ordering::Relaxed).min(SPAN_DEPTH);
        if d == 0 {
            (0, 0)
        } else {
            (
                s.ptrs[d - 1].load(Ordering::Relaxed),
                s.lens[d - 1].load(Ordering::Relaxed),
            )
        }
    })
}

// ---------------------------------------------------------------------------
// Sampler (Linux x86_64 / aarch64).
// ---------------------------------------------------------------------------

static SESSIONS: AtomicU64 = AtomicU64::new(0);
static LAST_SAMPLES: AtomicU64 = AtomicU64::new(0);

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sampler {
    use super::*;
    use std::cell::{Cell, UnsafeCell};
    use std::sync::atomic::{AtomicBool, AtomicU32};
    use std::sync::OnceLock;

    pub(super) const MAX_FRAMES: usize = 64;
    const MAX_THREADS: usize = 64;
    /// Total sample-slot budget: ~4 MiB across all threads.
    const BUDGET_BYTES: usize = 4 << 20;

    struct Slot {
        len: AtomicU32,
        span_ptr: AtomicUsize,
        span_len: AtomicUsize,
        frames: UnsafeCell<[u64; MAX_FRAMES]>,
    }

    // Single writer (the owning thread's signal handler; handlers on one
    // thread are serialized by the kernel's sa_mask); readers only run
    // after the session quiesces, ordered by the Release head store.
    unsafe impl Sync for Slot {}

    struct Ring {
        claimed: AtomicBool,
        head: AtomicUsize,
        slots: Box<[Slot]>,
    }

    impl Ring {
        fn push(&self, frames: &[u64], span_ptr: usize, span_len: usize) {
            let h = self.head.load(Ordering::Relaxed);
            let slot = &self.slots[h % self.slots.len()];
            unsafe {
                (&mut *slot.frames.get())[..frames.len()].copy_from_slice(frames);
            }
            slot.span_ptr.store(span_ptr, Ordering::Relaxed);
            slot.span_len.store(span_len, Ordering::Relaxed);
            slot.len.store(frames.len() as u32, Ordering::Relaxed);
            self.head.store(h + 1, Ordering::Release);
        }
    }

    pub(super) struct Pool {
        rings: Box<[Ring]>,
        dropped: AtomicU64,
        pid: i32,
        pc_only: AtomicBool,
    }

    static POOL: OnceLock<Pool> = OnceLock::new();
    static COLLECTING: AtomicBool = AtomicBool::new(false);
    static HANDLER_INSTALLED: AtomicBool = AtomicBool::new(false);

    thread_local! {
        static MY_RING: Cell<*const Ring> = const { Cell::new(std::ptr::null()) };
    }

    fn pool() -> &'static Pool {
        POOL.get_or_init(|| {
            let slot_bytes = std::mem::size_of::<Slot>();
            let per_ring = (BUDGET_BYTES / MAX_THREADS / slot_bytes).max(8);
            let rings = (0..MAX_THREADS)
                .map(|_| Ring {
                    claimed: AtomicBool::new(false),
                    head: AtomicUsize::new(0),
                    slots: (0..per_ring)
                        .map(|_| Slot {
                            len: AtomicU32::new(0),
                            span_ptr: AtomicUsize::new(0),
                            span_len: AtomicUsize::new(0),
                            frames: UnsafeCell::new([0; MAX_FRAMES]),
                        })
                        .collect(),
                })
                .collect();
            Pool {
                rings,
                dropped: AtomicU64::new(0),
                pid: sys::getpid(),
                pc_only: AtomicBool::new(false),
            }
        })
    }

    impl Pool {
        fn claim(&self) -> *const Ring {
            for r in self.rings.iter() {
                if !r.claimed.load(Ordering::Relaxed)
                    && r.claimed
                        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                {
                    return r as *const Ring;
                }
            }
            std::ptr::null()
        }
    }

    extern "C" fn on_sigprof(
        _sig: i32,
        _info: *mut core::ffi::c_void,
        uctx: *mut core::ffi::c_void,
    ) {
        if !COLLECTING.load(Ordering::Acquire) {
            return;
        }
        let Some(pool) = POOL.get() else { return };
        let (pc, fp) = unsafe { sys::ucontext_pc_fp(uctx as *const u8) };
        let ring = MY_RING.with(|c| {
            let p = c.get();
            if !p.is_null() {
                return p;
            }
            let p = pool.claim();
            c.set(p);
            p
        });
        if ring.is_null() {
            pool.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let ring = unsafe { &*ring };
        let mut frames = [0u64; MAX_FRAMES];
        frames[0] = pc;
        let mut n = 1;
        if !pool.pc_only.load(Ordering::Relaxed) {
            let mut fp = fp;
            let mut buf = [0u8; 16];
            while n < MAX_FRAMES {
                // Frame-pointer sanity: aligned, nonzero, strictly
                // ascending with a bounded hop — anything else ends the
                // walk rather than wandering the heap.
                if fp == 0 || fp & 7 != 0 {
                    break;
                }
                if !sys::read_self_mem(pool.pid, fp, &mut buf) {
                    break;
                }
                let next_fp = u64::from_le_bytes(buf[0..8].try_into().unwrap());
                let ret = u64::from_le_bytes(buf[8..16].try_into().unwrap());
                if ret < 0x1000 {
                    break;
                }
                frames[n] = ret;
                n += 1;
                if next_fp <= fp || next_fp - fp > (1 << 20) {
                    break;
                }
                fp = next_fp;
            }
        }
        let (span_ptr, span_len) = current_span_raw();
        ring.push(&frames[..n], span_ptr, span_len);
    }

    pub(super) struct Active {
        timer: sys::SampleTimer,
    }

    pub(super) fn begin(opts: Options) -> Result<Active, ProfileError> {
        let pool = pool();
        // Self-test process_vm_readv before the handler needs it: a
        // seccomp profile denying it downgrades to pc-only samples.
        let probe: u64 = 0x5eed;
        let mut buf = [0u8; 8];
        let ok = sys::read_self_mem(pool.pid, &probe as *const u64 as u64, &mut buf)
            && buf == probe.to_le_bytes();
        pool.pc_only.store(!ok, Ordering::Relaxed);

        if !HANDLER_INSTALLED.load(Ordering::Acquire) {
            if !sys::install_sigprof_handler(on_sigprof) {
                return Err(ProfileError::TimerFailed);
            }
            HANDLER_INSTALLED.store(true, Ordering::Release);
        }
        for r in pool.rings.iter() {
            r.head.store(0, Ordering::Relaxed);
        }
        pool.dropped.store(0, Ordering::Relaxed);

        let hz = opts.hz.clamp(1, 1000);
        let period_ns = 1_000_000_000 / hz as u64;
        let clock = match opts.mode {
            Mode::Wall => sys::CLOCK_MONOTONIC,
            Mode::Cpu => sys::CLOCK_PROCESS_CPUTIME_ID,
        };
        let timer = sys::SampleTimer::start(clock, period_ns).ok_or(ProfileError::TimerFailed)?;
        COLLECTING.store(true, Ordering::Release);
        Ok(Active { timer })
    }

    pub(super) fn end(active: Active) -> (Vec<RawSample>, u64) {
        active.timer.disarm();
        COLLECTING.store(false, Ordering::SeqCst);
        drop(active.timer);
        // Grace period: a handler mid-flight on another thread finishes
        // its (sub-millisecond) capture well within this.
        std::thread::sleep(Duration::from_millis(20));

        let pool = pool();
        let mut samples = Vec::new();
        let mut dropped = pool.dropped.load(Ordering::Relaxed);
        for ring in pool.rings.iter() {
            let head = ring.head.load(Ordering::Acquire);
            if head == 0 {
                continue;
            }
            let cap = ring.slots.len();
            dropped += head.saturating_sub(cap) as u64;
            for slot in ring.slots.iter().take(head.min(cap)) {
                let len = slot.len.load(Ordering::Acquire) as usize;
                if len == 0 || len > MAX_FRAMES {
                    continue;
                }
                let frames = unsafe { (&*slot.frames.get())[..len].to_vec() };
                let span_ptr = slot.span_ptr.load(Ordering::Relaxed);
                let span_len = slot.span_len.load(Ordering::Relaxed);
                // (ptr, len) pairs only ever come from `&'static str`
                // span names written by this slot's owning thread.
                let span = if span_ptr != 0 && span_len > 0 && span_len < 1024 {
                    std::str::from_utf8(unsafe {
                        std::slice::from_raw_parts(span_ptr as *const u8, span_len)
                    })
                    .ok()
                    .map(str::to_owned)
                } else {
                    None
                };
                samples.push(RawSample { frames, span });
            }
        }
        (samples, dropped)
    }

    pub(super) fn pc_only() -> bool {
        POOL.get()
            .map(|p| p.pc_only.load(Ordering::Relaxed))
            .unwrap_or(false)
    }
}

struct ActiveSession {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    inner: sampler::Active,
    mode: Mode,
}

static SESSION: Mutex<Option<ActiveSession>> = Mutex::new(None);

/// Starts a sampling session. At most one runs at a time.
pub fn start(opts: Options) -> Result<(), ProfileError> {
    let mut session = SESSION.lock().unwrap_or_else(|e| e.into_inner());
    if session.is_some() {
        return Err(ProfileError::Busy);
    }
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        let inner = sampler::begin(opts)?;
        *session = Some(ActiveSession {
            inner,
            mode: opts.mode,
        });
        Ok(())
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    {
        let _ = opts;
        Err(ProfileError::Unsupported)
    }
}

/// Ends the active session and returns its samples.
pub fn stop() -> Result<Profile, ProfileError> {
    let active = {
        let mut session = SESSION.lock().unwrap_or_else(|e| e.into_inner());
        session.take().ok_or(ProfileError::NotActive)?
    };
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        let (samples, dropped) = sampler::end(active.inner);
        SESSIONS.fetch_add(1, Ordering::Relaxed);
        LAST_SAMPLES.store(samples.len() as u64, Ordering::Relaxed);
        Ok(Profile {
            samples,
            dropped,
            mode: active.mode,
        })
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    {
        let _ = active;
        Err(ProfileError::Unsupported)
    }
}

/// Convenience wrapper: profile for `duration`, then stop and return.
pub fn run_for(opts: Options, duration: Duration) -> Result<Profile, ProfileError> {
    start(opts)?;
    std::thread::sleep(duration);
    stop()
}

/// Current profiler status for health/introspection endpoints.
pub fn state() -> ProfilerState {
    let supported = cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ));
    let active = SESSION.lock().unwrap_or_else(|e| e.into_inner()).is_some();
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    let pc_only = sampler::pc_only();
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    let pc_only = false;
    ProfilerState {
        supported,
        active,
        sessions: SESSIONS.load(Ordering::Relaxed),
        last_samples: LAST_SAMPLES.load(Ordering::Relaxed),
        pc_only,
    }
}

#[cfg(all(
    test,
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod tests {
    use super::*;
    use std::time::Instant;

    /// Recognizable CPU burner: integer mixing the optimizer cannot
    /// remove, never inlined so its symbol anchors the profile.
    #[inline(never)]
    fn profile_test_hot_loop(rounds: u64) -> u64 {
        let mut acc = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..rounds {
            acc = acc.rotate_left(13) ^ i;
            acc = acc.wrapping_mul(0x2545_f491_4f6c_dd1d);
        }
        std::hint::black_box(acc)
    }

    #[test]
    fn cpu_profile_captures_and_attributes_hot_loop() {
        span_enter("profile_test_span");
        let opts = Options {
            mode: Mode::Cpu,
            hz: 499,
        };
        start(opts).unwrap();
        assert_eq!(
            start(opts),
            Err(ProfileError::Busy),
            "sessions are exclusive"
        );
        let deadline = Instant::now() + Duration::from_millis(600);
        while Instant::now() < deadline {
            profile_test_hot_loop(200_000);
        }
        let profile = stop().unwrap();
        span_exit();
        assert!(
            !profile.samples.is_empty(),
            "a 600 ms busy loop at 499 Hz must catch samples"
        );
        let resolved = profile.resolve();
        let collapsed = resolved.collapsed();
        assert!(
            collapsed.contains("profile_test_hot_loop"),
            "hot function missing from:\n{collapsed}"
        );
        assert!(
            collapsed.contains("span:profile_test_span"),
            "span attribution missing from:\n{collapsed}"
        );
        let st = state();
        assert!(!st.active);
        assert!(st.sessions >= 1);
        assert!(st.last_samples > 0);
    }
}
