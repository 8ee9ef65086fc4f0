//! Dependency-free sampling wall/CPU profiler.
//!
//! A POSIX interval timer delivers process-directed SIGPROF at a fixed
//! rate; the handler captures a frame-pointer backtrace of whichever
//! thread the kernel interrupted into the next free slot of one
//! preallocated pool (a fixed byte budget shared by every thread, each
//! slot claimed with one atomic increment), tags it with the innermost
//! active `omega::trace` span, and returns. One busy thread can fill the
//! whole pool; once it is full, later samples are counted as dropped, so
//! a session keeps its first samples. Nothing in the signal path
//! allocates, locks, or faults: stack
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

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{compiler_fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

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
    /// work. The CPU clock fires no faster than the kernel tick, so high
    /// rates are capped by it: `hz: 997` gave about 250 samples/s on a
    /// 250 Hz-tick Linux VM.
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
    /// Samples lost because the slot pool was full.
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
    /// Samples lost because the slot pool was full.
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
// Span attribution and per-job span timing (portable — maintained even
// where sampling isn't).
// ---------------------------------------------------------------------------

const SPAN_DEPTH: usize = 32;

/// Per-thread stack of `&'static str` span names, stored as raw
/// (ptr, len) pairs in atomics so the SIGPROF handler — which only ever
/// interrupts, never races, this thread — can read a consistent innermost
/// entry: an entry below `depth` is always fully written before `depth`
/// exposes it.
///
/// While a [`timed`] scope is armed, each slot opened at or above
/// `armed_at` also holds an [`Opened`] record, which the handler never
/// reads.
struct SpanStack {
    depth: AtomicUsize,
    ptrs: [AtomicUsize; SPAN_DEPTH],
    lens: [AtomicUsize; SPAN_DEPTH],
    opened: [Cell<Option<Opened>>; SPAN_DEPTH],
    /// Stack depth when the innermost armed scope began; `usize::MAX`
    /// when none is armed. Slots below it may hold stale open times.
    armed_at: Cell<usize>,
}

/// An armed slot: when and under what name its span opened, and the wall
/// time of the children that have closed inside it so far.
#[derive(Clone, Copy)]
struct Opened {
    at: Instant,
    name: &'static str,
    child_ns: u64,
}

impl SpanStack {
    const fn new() -> SpanStack {
        SpanStack {
            depth: AtomicUsize::new(0),
            ptrs: [const { AtomicUsize::new(0) }; SPAN_DEPTH],
            lens: [const { AtomicUsize::new(0) }; SPAN_DEPTH],
            opened: [const { Cell::new(None) }; SPAN_DEPTH],
            armed_at: Cell::new(usize::MAX),
        }
    }
}

thread_local! {
    static SPAN_STACK: SpanStack = const { SpanStack::new() };
    /// The armed scope's totals, in first-close order.
    static TOTALS: RefCell<SpanTotals> = const { RefCell::new(SpanTotals { spans: Vec::new(), untimed: 0 }) };
}

/// Marks `name` as this thread's innermost active span. Called by the
/// `omega::trace` profile hook on span entry; must be paired with
/// [`span_exit`]. A few relaxed thread-local stores — cheap enough to
/// leave armed permanently; inside a [`timed`] scope, one clock read more.
pub fn span_enter(name: &'static str) {
    SPAN_STACK.with(|s| {
        let d = s.depth.load(Ordering::Relaxed);
        if d < SPAN_DEPTH {
            s.ptrs[d].store(name.as_ptr() as usize, Ordering::Relaxed);
            s.lens[d].store(name.len(), Ordering::Relaxed);
            if d >= s.armed_at.get() {
                s.opened[d].set(Some(Opened {
                    at: Instant::now(),
                    name,
                    child_ns: 0,
                }));
            }
        }
        // Write the entry before exposing it: the handler reads only
        // indices < depth. Relaxed stores alone do not order the slot
        // before `depth`; the compiler fence does, and it is enough
        // because the only reader is a signal handler on this thread.
        // Depth still advances past capacity so enter/exit stay
        // balanced; overflow entries just aren't recorded.
        compiler_fence(Ordering::Release);
        s.depth.store(d + 1, Ordering::Relaxed);
    });
}

/// Pops the innermost span. Unbalanced exits are clamped at zero. Inside
/// a [`timed`] scope, counts the span in the scope's totals with its self
/// time, and its wall time unless an enclosing slot of the scope is open
/// under the same name (see [`SpanTotal`]); the wall time also leaves the
/// enclosing slot's self time.
pub fn span_exit() {
    SPAN_STACK.with(|s| {
        let d = s.depth.load(Ordering::Relaxed);
        if d == 0 {
            return;
        }
        s.depth.store(d - 1, Ordering::Relaxed);
        let (armed, slot) = (s.armed_at.get(), d - 1);
        if slot < armed {
            return;
        }
        let opened = s.opened.get(slot).and_then(Cell::get);
        TOTALS.with(|t| {
            let t = &mut *t.borrow_mut();
            let Some(open) = opened else {
                t.untimed += 1;
                return;
            };
            let ns = open.at.elapsed().as_nanos() as u64;
            if slot > armed {
                let parent = &s.opened[slot - 1];
                parent.set(parent.get().map(|p| Opened {
                    child_ns: p.child_ns + ns,
                    ..p
                }));
            }
            let enclosed = s.opened[armed..slot].iter().any(|o| {
                o.get()
                    .is_some_and(|o| std::ptr::eq(o.name, open.name) || o.name == open.name)
            });
            let ns_once = if enclosed { 0 } else { ns };
            // Children open and close inside their parent, so their times
            // never sum past its own; the hook must not panic regardless.
            let self_ns = ns.saturating_sub(open.child_ns);
            match t.spans.iter_mut().find(|x| x.name == open.name) {
                Some(x) => {
                    x.count += 1;
                    x.ns += ns_once;
                    x.self_ns += self_ns;
                }
                None => t.spans.push(SpanTotal {
                    name: open.name,
                    count: 1,
                    ns: ns_once,
                    self_ns,
                }),
            }
        });
    });
}

/// One span name's totals over a [`timed`] scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanTotal {
    /// The span name (`omega::span!` site name).
    pub name: &'static str,
    /// Spans of this name that closed inside the scope, nested ones
    /// included.
    pub count: u64,
    /// Their wall time in nanoseconds, inclusive of the spans they
    /// enclose. A span that closes inside an open span of the same name
    /// (a recursive one) adds nothing here: the enclosing span's time
    /// already covers it, so `ns` never counts one instant twice.
    pub ns: u64,
    /// Their self time in nanoseconds: each span's wall time less that of
    /// the timed spans that closed directly inside it, every level of a
    /// recursive span included. A `root_span!` is a nested span here, so
    /// a detached query's time leaves its asker's. Over a scope, the self
    /// times of all names sum exactly to the wall time of its outermost
    /// spans.
    pub self_ns: u64,
}

/// What a [`timed`] scope recorded on its thread.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Per span name, sorted by name.
    pub spans: Vec<SpanTotal>,
    /// Spans that closed inside the scope nested deeper than the stack's
    /// 32 slots, so were counted here instead of timed.
    pub untimed: u64,
}

/// Runs `f` with this thread's span timing armed, and returns the count,
/// wall time and self time per span name of every span that opened and
/// closed inside it. The span hook (`telemetry::span_hook`) must be installed,
/// or no span reaches the stack. Only this thread's spans count; a scope
/// nested in another takes over until it returns, and its spans do not
/// count in the outer one. Restores the outer scope also when `f` unwinds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, SpanTotals) {
    /// The outer scope's stack mark and totals, put back on drop.
    struct Outer(usize, SpanTotals);
    impl Drop for Outer {
        fn drop(&mut self) {
            SPAN_STACK.with(|s| s.armed_at.set(self.0));
            TOTALS.with(|t| t.replace(std::mem::take(&mut self.1)));
        }
    }
    let outer = Outer(
        SPAN_STACK.with(|s| s.armed_at.replace(s.depth.load(Ordering::Relaxed))),
        TOTALS.with(RefCell::take),
    );
    let r = f();
    let mut totals = TOTALS.with(RefCell::take);
    drop(outer);
    totals.spans.sort_by_key(|x| x.name);
    (r, totals)
}

/// The sampled thread's innermost span as a raw (ptr, len) pair; (0, 0)
/// when no span is active. Async-signal-safe.
fn current_span_raw() -> (usize, usize) {
    SPAN_STACK.with(|s| {
        let d = s.depth.load(Ordering::Relaxed).min(SPAN_DEPTH);
        // Pairs with the fence in `span_enter`: slot reads stay after
        // the `depth` read that exposed them.
        compiler_fence(Ordering::Acquire);
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
    use std::cell::UnsafeCell;
    use std::sync::atomic::{AtomicBool, AtomicU32};
    use std::sync::OnceLock;

    pub(super) const MAX_FRAMES: usize = 64;
    /// Total sample-slot budget: ~4 MiB (about 7,800 samples) shared by
    /// every thread.
    const BUDGET_BYTES: usize = 4 << 20;

    struct Slot {
        /// Frame count; 0 until the claiming handler has written the slot.
        len: AtomicU32,
        span_ptr: AtomicUsize,
        span_len: AtomicUsize,
        frames: UnsafeCell<[u64; MAX_FRAMES]>,
    }

    // SAFETY: the atomics are Sync; `frames` has a single writer, the one
    // handler whose increment of `Pool::next` claimed the slot this
    // session, and readers only run after the session quiesces, ordered
    // by the Release `len` store.
    unsafe impl Sync for Slot {}

    pub(super) struct Pool {
        slots: Box<[Slot]>,
        /// Slots claimed this session (may run past `slots.len()`; the
        /// claims past it are the dropped samples).
        next: AtomicUsize,
        dropped: AtomicU64,
        pid: i32,
        pc_only: AtomicBool,
    }

    static POOL: OnceLock<Pool> = OnceLock::new();
    static COLLECTING: AtomicBool = AtomicBool::new(false);
    static HANDLER_INSTALLED: AtomicBool = AtomicBool::new(false);

    fn pool() -> &'static Pool {
        POOL.get_or_init(|| {
            let n = BUDGET_BYTES / std::mem::size_of::<Slot>();
            Pool {
                slots: (0..n)
                    .map(|_| Slot {
                        len: AtomicU32::new(0),
                        span_ptr: AtomicUsize::new(0),
                        span_len: AtomicUsize::new(0),
                        frames: UnsafeCell::new([0; MAX_FRAMES]),
                    })
                    .collect(),
                next: AtomicUsize::new(0),
                dropped: AtomicU64::new(0),
                pid: sys::getpid(),
                pc_only: AtomicBool::new(false),
            }
        })
    }

    impl Pool {
        /// Writes one sample into the next free slot, or counts it as
        /// dropped when the pool is full. Lock-free: one atomic increment.
        fn push(&self, frames: &[u64], span_ptr: usize, span_len: usize) {
            // Relaxed: the claim publishes nothing; the slot's Release
            // `len` store publishes what is written into it.
            let Some(slot) = self.slots.get(self.next.fetch_add(1, Ordering::Relaxed)) else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            };
            // SAFETY: the increment above gave this handler the slot, so it
            // is the slot's only writer this session, and no reader runs
            // until the session quiesces.
            unsafe {
                (&mut *slot.frames.get())[..frames.len()].copy_from_slice(frames);
            }
            slot.span_ptr.store(span_ptr, Ordering::Relaxed);
            slot.span_len.store(span_len, Ordering::Relaxed);
            slot.len.store(frames.len() as u32, Ordering::Release);
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
        pool.push(&frames[..n], span_ptr, span_len);
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
        for slot in pool.slots.iter() {
            slot.len.store(0, Ordering::Relaxed);
        }
        pool.next.store(0, Ordering::Relaxed);
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
        let claimed = pool.next.load(Ordering::Relaxed);
        for slot in pool.slots.iter().take(claimed) {
            let len = slot.len.load(Ordering::Acquire) as usize;
            if len == 0 || len > MAX_FRAMES {
                continue;
            }
            let frames = unsafe { (&*slot.frames.get())[..len].to_vec() };
            let span_ptr = slot.span_ptr.load(Ordering::Relaxed);
            let span_len = slot.span_len.load(Ordering::Relaxed);
            // (ptr, len) pairs only ever come from `&'static str` span
            // names written by the handler that claimed this slot.
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
        (samples, pool.dropped.load(Ordering::Relaxed))
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

    /// Sessions are exclusive per process: tests that start one take turns.
    static SESSION_TURN: Mutex<()> = Mutex::new(());

    #[test]
    fn cpu_profile_captures_and_attributes_hot_loop() {
        let _turn = SESSION_TURN.lock().unwrap_or_else(|e| e.into_inner());
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

    /// One busy thread may use the whole slot budget: a 5 s loop keeps
    /// (nearly) every sample it took, where per-thread rings kept only
    /// the last ~122.
    #[test]
    fn one_busy_thread_keeps_its_samples() {
        let _turn = SESSION_TURN.lock().unwrap_or_else(|e| e.into_inner());
        start(Options {
            mode: Mode::Cpu,
            hz: 997,
        })
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            profile_test_hot_loop(200_000);
        }
        let profile = stop().unwrap();
        let kept = profile.samples.len() as u64;
        let taken = kept + profile.dropped;
        assert!(taken > 250, "a 5 s CPU loop took only {taken} samples");
        assert!(
            kept * 100 >= taken * 95,
            "kept {kept} of {taken} samples ({} dropped)",
            profile.dropped
        );
    }
}

#[cfg(test)]
mod timing_tests {
    use super::*;

    #[test]
    fn spans_nested_past_the_stack_depth_stay_balanced_and_timed_below_it() {
        let pause = Duration::from_millis(2);
        let t0 = Instant::now();
        let ((), totals) = timed(|| {
            span_enter("outer");
            for _ in 1..SPAN_DEPTH + 8 {
                span_enter("inner");
            }
            std::thread::sleep(pause);
            for _ in 0..SPAN_DEPTH + 8 {
                span_exit();
            }
            span_enter("after");
            span_exit();
        });
        let elapsed = t0.elapsed().as_nanos() as u64;
        assert_eq!(current_span_raw(), (0, 0), "opens and closes balance");
        let names: Vec<_> = totals.spans.iter().map(|s| (s.name, s.count)).collect();
        assert_eq!(
            names,
            [("after", 1), ("inner", SPAN_DEPTH as u64 - 1), ("outer", 1)]
        );
        assert_eq!(totals.untimed, 8, "the levels past the stack are counted");
        let ns = |name| totals.spans.iter().find(|s| s.name == name).unwrap().ns;
        let p = pause.as_nanos() as u64;
        // Every recorded level encloses the pause, none outlasts the scope,
        // and the recursive `inner` levels are timed once, by the outermost.
        assert!((p..=elapsed).contains(&ns("outer")), "{totals:?}");
        assert!((p..=ns("outer")).contains(&ns("inner")), "{totals:?}");
    }

    #[test]
    fn nested_same_name_spans_count_twice_and_time_once() {
        let pause = Duration::from_millis(2);
        let ((), totals) = timed(|| {
            span_enter("outer");
            span_enter("rec");
            std::thread::sleep(pause);
            span_enter("rec");
            std::thread::sleep(pause);
            span_exit();
            span_exit();
            span_exit();
        });
        let get = |name| *totals.spans.iter().find(|s| s.name == name).unwrap();
        let (rec, outer) = (get("rec"), get("outer"));
        assert_eq!((rec.count, outer.count), (2, 1), "{totals:?}");
        // Roughly the outer `rec`'s time: both pauses, once each, and no
        // more than the span around it.
        let p = pause.as_nanos() as u64;
        assert!((2 * p..=outer.ns).contains(&rec.ns), "{totals:?}");
        // A same-name span outside the scope does not hide one inside it.
        span_enter("rec");
        let ((), inside) = timed(|| {
            span_enter("rec");
            std::thread::sleep(pause);
            span_exit();
        });
        span_exit();
        assert!(inside.spans[0].ns >= p, "{inside:?}");
    }

    #[test]
    fn self_times_sum_to_the_outermost_span() {
        let pause = Duration::from_millis(1);
        let ((), totals) = timed(|| {
            span_enter("root");
            std::thread::sleep(pause);
            span_enter("rec");
            std::thread::sleep(pause);
            span_enter("rec");
            std::thread::sleep(pause);
            span_exit();
            span_exit();
            span_enter("sibling");
            std::thread::sleep(pause);
            span_exit();
            span_exit();
        });
        let get = |name| *totals.spans.iter().find(|s| s.name == name).unwrap();
        let (root, rec, sibling) = (get("root"), get("rec"), get("sibling"));
        let all: u64 = totals.spans.iter().map(|s| s.self_ns).sum();
        assert_eq!(all, root.ns, "{totals:?}");
        assert_eq!(root.self_ns, root.ns - rec.ns - sibling.ns, "{totals:?}");
        // Each level of `rec` adds its own self time, so together they
        // make up the outer level's wall time, the one `ns` counts.
        assert_eq!(rec.self_ns, rec.ns, "{totals:?}");
        assert_eq!(sibling.self_ns, sibling.ns, "{totals:?}");
        let p = pause.as_nanos() as u64;
        assert!(root.self_ns >= p && rec.ns >= 2 * p, "{totals:?}");
    }

    #[test]
    fn only_spans_inside_the_scope_count() {
        span_enter("enclosing");
        span_enter("before");
        span_exit();
        let ((), totals) = timed(|| {
            span_enter("nested");
            let ((), inner) = timed(|| {
                span_enter("innermost");
                span_exit();
            });
            assert_eq!(inner.spans.len(), 1, "{inner:?}");
            span_exit();
        });
        span_exit();
        assert_eq!(current_span_raw(), (0, 0));
        let names: Vec<_> = totals.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["nested"], "{totals:?}");
        // After the scope, nothing is recorded.
        span_enter("later");
        span_exit();
        let ((), empty) = timed(|| ());
        assert_eq!(empty, SpanTotals::default());
    }
}
