//! Structured tracing: a span-tree profiler threaded through the solver
//! and the scanner.
//!
//! The paper's whole contribution is a time/size/overhead trade-off, so
//! knowing *where* code generation time goes (gist? FM elimination?
//! if-simplification at level 3?) is the standing instrumentation every
//! performance change is judged against. This module provides
//!
//! * a **span API** ([`span!`](crate::span!)) recording a per-query call tree with
//!   monotonic timestamps, depth, thread id and key attributes (conjunct
//!   counts, the tier that answered, degradation reasons);
//! * a **collector** ([`Collector`]) installed on the calling thread for a
//!   scope. A generation runs on one thread, so children keep program
//!   order; detached per-query roots are ordered by name and query key at
//!   the end of the scope, never by arrival time, so a trace's *shape* is
//!   a pure function of the work done;
//! * **exporters** — a Chrome trace-event JSON file (loadable in
//!   `chrome://tracing` / Perfetto) and a plain-text hot-spot summary
//!   (top-N span names by inclusive/exclusive time).
//!
//! # Cost when disabled
//!
//! Probes are always compiled but gated on [`probes_live`]: with no
//! collector installed and no span hook, a [`span!`](crate::span!) site is a
//! `Cell<bool>` read, a relaxed atomic load and a branch — no timestamp
//! read, no allocation. Probe sites sit at query/phase granularity
//! (never inside arithmetic kernels), so the dormant cost is
//! unmeasurable next to the work they would time.
//!
//! # Span hook
//!
//! A process may install one [`SpanHook`] (see [`install_span_hook`])
//! that observes every span open/close on every thread, independent of
//! collectors — the seam through which `telemetry::span_hook` plugs in
//! without `omega` gaining a dependency. That hook is the one always-on
//! sink: it keeps the sampling profiler's per-thread span stack, and
//! inside a `telemetry::profile::timed` scope it also sums each span
//! name's count and wall time on that thread, which is where `codegend`
//! and `table1` take a job's phases from. A [`Collector`] is installed
//! only when a span tree itself is wanted: `table1 --trace`/`--dump-dir`
//! and `codegend --slow-ms`.
//!
//! # Example
//!
//! ```
//! use omega::trace::{self, Collector};
//!
//! let c = Collector::new();
//! trace::with_collector(Some(c.clone()), || {
//!     let _outer = omega::span!(example_outer);
//!     let _inner = omega::span!(example_inner, items = 3);
//! });
//! let t = c.finish();
//! assert_eq!(t.roots.len(), 1);
//! assert_eq!(t.roots[0].name, "example_outer");
//! assert_eq!(t.roots[0].children[0].attr("items"), Some(&trace::AttrValue::Int(3)));
//! ```

use std::cell::{Cell, RefCell};
use std::fmt;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// An attribute value attached to a span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttrValue {
    /// Integer attribute (counts, levels, sizes).
    Int(i64),
    /// String attribute (tier names, verdicts, degradation reasons).
    Str(String),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Str(s) => f.write_str(s),
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> AttrValue {
        AttrValue::Int(v)
    }
}

impl From<i32> for AttrValue {
    fn from(v: i32) -> AttrValue {
        AttrValue::Int(v as i64)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> AttrValue {
        AttrValue::Int(v as i64)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> AttrValue {
        AttrValue::Int(v as i64)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> AttrValue {
        AttrValue::Int(v as i64)
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> AttrValue {
        AttrValue::Int(v as i64)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_owned())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Str(v)
    }
}

/// One completed span: a named interval with attributes and child spans.
#[derive(Clone, Debug)]
pub struct Span {
    /// Static site name (e.g. `sat_query`, `cg_lower`).
    pub name: &'static str,
    /// Key/value attributes recorded at open or close time.
    pub attrs: Vec<(String, AttrValue)>,
    /// Start, in nanoseconds since the collector was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the collector was created.
    pub end_ns: u64,
    /// Nesting depth at record time (0 for roots of the recording thread).
    pub depth: u32,
    /// Process-unique recording thread id (small integer, stable per
    /// thread, not an OS tid).
    pub thread: u64,
    /// Child spans, in completion-site order.
    pub children: Vec<Span>,
}

impl Span {
    /// Inclusive duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Exclusive duration: inclusive minus the children's inclusive time.
    pub fn exclusive_ns(&self) -> u64 {
        self.duration_ns()
            .saturating_sub(self.children.iter().map(Span::duration_ns).sum())
    }

    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The structural shape of this span — name, attributes and child
    /// shapes, but no timestamps or thread ids. Two traces of the same
    /// work compare equal on shapes.
    pub fn shape(&self) -> String {
        let mut out = String::new();
        self.write_shape(&mut out);
        out
    }

    fn write_shape(&self, out: &mut String) {
        out.push_str(self.name);
        if !self.attrs.is_empty() {
            out.push('{');
            for (i, (k, v)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(k);
                out.push('=');
                out.push_str(&v.to_string());
            }
            out.push('}');
        }
        if !self.children.is_empty() {
            out.push('(');
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                c.write_shape(out);
            }
            out.push(')');
        }
    }

    /// Checks interval well-formedness: children are contained within the
    /// parent interval and do not start before the previous sibling (the
    /// LIFO-close property of the recording API, restated on the data).
    pub fn is_well_formed(&self) -> bool {
        if self.end_ns < self.start_ns {
            return false;
        }
        let mut prev_start = self.start_ns;
        for c in &self.children {
            if c.start_ns < prev_start || c.end_ns > self.end_ns || !c.is_well_formed() {
                return false;
            }
            prev_start = c.start_ns;
        }
        true
    }

    /// Depth-first walk over this span and all descendants.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Span)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }
}

/// A merged forest of spans from one collection scope.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Top-level spans, deterministically ordered.
    pub roots: Vec<Span>,
}

impl Trace {
    /// Depth-first walk over every span in the forest.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Span)) {
        for r in &self.roots {
            r.walk(f);
        }
    }

    /// Total number of spans.
    pub fn len(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// True when no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Number of spans with the given name anywhere in the forest.
    pub fn count_named(&self, name: &str) -> usize {
        let mut n = 0;
        self.walk(&mut |s| {
            if s.name == name {
                n += 1;
            }
        });
        n
    }

    /// The canonical shape of the whole forest (see [`Span::shape`]).
    pub fn shape(&self) -> String {
        let mut out = String::new();
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            r.write_shape(&mut out);
        }
        out
    }

    /// Interval well-formedness of every recorded tree.
    pub fn is_well_formed(&self) -> bool {
        self.roots.iter().all(Span::is_well_formed)
    }

    /// Writes the forest as Chrome trace-event JSON (the array form): one
    /// balanced `B`/`E` event pair per span, timestamps in microseconds,
    /// attributes under `args`. Loadable in `chrome://tracing` / Perfetto.
    ///
    /// # Errors
    ///
    /// Propagates write errors from `w`.
    pub fn write_chrome_json<W: Write>(&self, w: &mut W) -> io::Result<()> {
        fn event(
            w: &mut impl Write,
            first: &mut bool,
            ph: char,
            s: &Span,
            ts_ns: u64,
        ) -> io::Result<()> {
            if !*first {
                w.write_all(b",\n")?;
            }
            *first = false;
            let mut line = String::new();
            line.push_str("{\"name\":\"");
            escape_json(s.name, &mut line);
            line.push_str("\",\"cat\":\"omega\",\"ph\":\"");
            line.push(ph);
            // Microsecond floats keep nanosecond precision for short spans.
            line.push_str(&format!(
                "\",\"ts\":{:.3},\"pid\":1,\"tid\":{}",
                ts_ns as f64 / 1_000.0,
                s.thread
            ));
            if ph == 'B' && !s.attrs.is_empty() {
                line.push_str(",\"args\":{");
                for (i, (k, v)) in s.attrs.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    line.push('"');
                    escape_json(k, &mut line);
                    line.push_str("\":");
                    match v {
                        AttrValue::Int(n) => line.push_str(&n.to_string()),
                        AttrValue::Str(t) => {
                            line.push('"');
                            escape_json(t, &mut line);
                            line.push('"');
                        }
                    }
                }
                line.push('}');
            }
            line.push('}');
            w.write_all(line.as_bytes())
        }
        fn emit(w: &mut impl Write, first: &mut bool, s: &Span) -> io::Result<()> {
            event(w, first, 'B', s, s.start_ns)?;
            for c in &s.children {
                emit(w, first, c)?;
            }
            event(w, first, 'E', s, s.end_ns)
        }
        w.write_all(b"[\n")?;
        let mut first = true;
        for r in &self.roots {
            emit(w, &mut first, r)?;
        }
        w.write_all(b"\n]\n")
    }

    /// A plain-text hot-spot summary: the top `n` span names by exclusive
    /// time, with counts and inclusive totals.
    pub fn hotspots(&self, n: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>9} {:>13} {:>13}\n",
            "span", "count", "exclusive", "inclusive"
        ));
        for h in self.hotspot_rows().iter().take(n) {
            out.push_str(&format!(
                "{:<28} {:>9} {:>13} {:>13}\n",
                h.name,
                h.count,
                format_ns(h.excl_ns),
                format_ns(h.incl_ns),
            ));
        }
        out
    }

    /// Per-name totals behind [`Trace::hotspots`], by exclusive time.
    ///
    /// A span's exclusive time is its duration minus the spans nested
    /// directly inside it: its children, and the detached roots (the
    /// solver's `sat_exact`/`gist_exact`) opened while it was the
    /// innermost open span on its thread. Those roots are recorded apart
    /// from their asker, but their time was spent inside it; nesting is
    /// read off the same-thread intervals.
    fn hotspot_rows(&self) -> Vec<Hotspot> {
        let mut spans: Vec<&Span> = Vec::new();
        self.walk(&mut |s| spans.push(s));
        let mut excl: Vec<i64> = spans.iter().map(|s| s.duration_ns() as i64).collect();
        // Per thread, outer spans first: by start, then longest first; the
        // stable sort keeps parents (walked first) ahead on ties.
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_by_key(|&i| {
            let s = spans[i];
            (
                s.thread,
                s.start_ns,
                std::cmp::Reverse(s.end_ns.max(s.start_ns)),
            )
        });
        let mut open: Vec<usize> = Vec::new();
        let mut thread = None;
        for i in order {
            let s = spans[i];
            if thread != Some(s.thread) {
                open.clear();
                thread = Some(s.thread);
            }
            while open.last().is_some_and(|&p| spans[p].end_ns < s.end_ns) {
                open.pop();
            }
            if let Some(&p) = open.last() {
                excl[p] -= s.duration_ns() as i64;
            }
            open.push(i);
        }
        let mut rows: Vec<Hotspot> = Vec::new();
        for (s, x) in spans.iter().zip(excl) {
            let row = match rows.iter_mut().find(|h| h.name == s.name) {
                Some(h) => h,
                None => {
                    rows.push(Hotspot {
                        name: s.name,
                        count: 0,
                        incl_ns: 0,
                        excl_ns: 0,
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.count += 1;
            row.incl_ns += s.duration_ns();
            row.excl_ns += x.max(0) as u64;
        }
        rows.sort_by(|a, b| b.excl_ns.cmp(&a.excl_ns).then(a.name.cmp(b.name)));
        rows
    }
}

/// One row of [`Trace::hotspots`].
struct Hotspot {
    name: &'static str,
    count: u64,
    incl_ns: u64,
    excl_ns: u64,
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Escapes `s` into `out` as a JSON string body (no surrounding quotes):
/// quotes and backslashes get a backslash, control characters become
/// `\u00XX`. The one escaper behind omega's JSON writers: the Chrome trace
/// export, [`crate::report::QueryReport::to_json`] and `omega-replay
/// --stats`.
pub fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

// ---------------------------------------------------------------------------
// Recording machinery
// ---------------------------------------------------------------------------

/// Replayable `.omega` query dumps held in memory until the owner
/// writes them out ([`Collector::write_buffered_dumps`]) or drops them.
/// `dropped` counts dumps refused past [`DUMP_BUFFER_CAP`].
#[derive(Default)]
struct DumpBuffer {
    dumps: Vec<(String, String)>,
    dropped: usize,
}

/// Cap on in-memory buffered dumps per collector, so a pathological job
/// cannot hold unbounded provenance text while waiting for the keep/drop
/// decision. Overflow drops the newest dumps (the earliest queries are
/// the ones that reproduce cold-cache behavior).
const DUMP_BUFFER_CAP: usize = 4096;

struct CollectorInner {
    base: Instant,
    // Completed roots from every thread that recorded into this collector.
    done: Mutex<Vec<Span>>,
    // When set, tier-2 sat/gist queries are rendered as replayable
    // `.omega` dumps (see `crate::provenance`) into the buffer.
    dump: Mutex<Option<DumpBuffer>>,
    dump_seq: AtomicU64,
}

/// A shared, thread-safe span collector. Clone-cheap (an `Arc`); install
/// for a scope with [`with_collector`] and harvest with
/// [`Collector::finish`].
#[derive(Clone)]
pub struct Collector {
    inner: Arc<CollectorInner>,
}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collector").finish_non_exhaustive()
    }
}

impl Default for Collector {
    fn default() -> Collector {
        Collector::new()
    }
}

impl Collector {
    /// A fresh collector; its creation instant is timestamp zero.
    pub fn new() -> Collector {
        Collector {
            inner: Arc::new(CollectorInner {
                base: Instant::now(),
                done: Mutex::new(Vec::new()),
                dump: Mutex::new(None),
                dump_seq: AtomicU64::new(0),
            }),
        }
    }

    /// Enables query provenance: every tier-2 sat/gist query recorded
    /// while this collector is installed is rendered as a replayable
    /// `.omega` dump and held in memory (up to an internal cap), so the
    /// owner decides afterwards whether to keep them — `codegend
    /// --slow-ms` keeps only slow, erroring or degrading jobs'. Write them
    /// out with [`Collector::write_buffered_dumps`]; dropping the
    /// collector discards them.
    pub fn buffer_queries(&self) {
        *lock(&self.inner.dump) = Some(DumpBuffer::default());
    }

    /// True when dumps are being buffered; the solver's dump sites skip
    /// rendering entirely when they are not.
    pub(crate) fn wants_dumps(&self) -> bool {
        lock(&self.inner.dump).is_some()
    }

    /// Buffers one rendered dump. `prefix` is the dump kind
    /// (`sat`/`gist`); the sequence number keeps stems unique and in
    /// query order.
    pub(crate) fn submit_dump(&self, prefix: &str, text: String) {
        let seq = self.inner.dump_seq.fetch_add(1, Ordering::Relaxed);
        match &mut *lock(&self.inner.dump) {
            Some(b) if b.dumps.len() < DUMP_BUFFER_CAP => {
                b.dumps.push((format!("{prefix}-{seq:06}"), text));
            }
            Some(b) => b.dropped += 1,
            None => {}
        }
    }

    /// Writes the dumps buffered under [`Collector::buffer_queries`] into
    /// `dir` (created if needed) as replayable `.omega` files and empties
    /// the buffer. Returns `(written, dropped)`: the files written, and
    /// the dumps refused earlier because the buffer was full — nonzero
    /// means `dir` holds only the first queries. `(0, 0)` when buffering
    /// was never enabled.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-write errors.
    pub fn write_buffered_dumps(&self, dir: &Path) -> io::Result<(usize, usize)> {
        let DumpBuffer { dumps, dropped } = lock(&self.inner.dump)
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default();
        for (stem, text) in &dumps {
            crate::provenance::write_dump(dir, stem, text)?;
        }
        Ok((dumps.len(), dropped))
    }

    fn now_ns(&self) -> u64 {
        self.inner.base.elapsed().as_nanos() as u64
    }

    /// Drains everything recorded so far into a deterministic [`Trace`]:
    /// roots are ordered by name, then the query fingerprint `key`
    /// attribute (per-query call trees); timestamps only break ties
    /// between genuinely identical roots.
    pub fn finish(&self) -> Trace {
        let mut roots = std::mem::take(&mut *lock(&self.inner.done));
        roots.sort_by(|a, b| {
            root_key(a)
                .cmp(&root_key(b))
                .then(a.start_ns.cmp(&b.start_ns))
        });
        Trace { roots }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Sort key for top-level roots: name, then the query fingerprint `key`
/// attribute — never timestamps.
fn root_key(s: &Span) -> (&'static str, String) {
    let key = match s.attr("key") {
        Some(v) => v.to_string(),
        None => String::new(),
    };
    (s.name, key)
}

thread_local! {
    /// Fast gate: true iff a collector is installed on this thread.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<ThreadState> = RefCell::new(ThreadState::new());
    /// Process-unique small thread id for trace output.
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn thread_id() -> u64 {
    THREAD_ID.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
}

struct OpenSpan {
    name: &'static str,
    attrs: Vec<(String, AttrValue)>,
    start_ns: u64,
    children: Vec<Span>,
    /// Detached spans are recorded as top-level roots (per-query call
    /// trees) even when enclosing spans are open — see [`root_span!`](crate::root_span!).
    detached: bool,
}

struct ThreadState {
    collector: Option<Collector>,
    stack: Vec<OpenSpan>,
}

impl ThreadState {
    fn new() -> ThreadState {
        ThreadState {
            collector: None,
            stack: Vec::new(),
        }
    }
}

/// True when a collector is installed on the current thread (probes are
/// live). A single thread-local flag read.
#[inline]
pub fn active() -> bool {
    ACTIVE.with(Cell::get)
}

/// A process-wide span sink: called with `(true, name)` when a span
/// opens and `(false, name)` when it closes, on the recording thread,
/// whether or not a collector is installed. Closes arrive in LIFO order.
///
/// This is the one seam between `omega` (which owns the probe sites but
/// depends on nothing) and the always-on sink living elsewhere
/// (`telemetry::span_hook` feeds the profiler's per-thread span stack).
/// The hook must be cheap, lock-free, allocation-free and panic-free —
/// it runs inside every `span!` site, and the profiler's signal handler
/// reads what it writes.
pub type SpanHook = fn(begin: bool, name: &'static str);

static SPAN_HOOK: OnceLock<SpanHook> = OnceLock::new();

/// Installs the process-wide [`SpanHook`]. The first call wins;
/// subsequent calls are ignored (a hook cannot be uninstalled — probe
/// sites cache no state, so "installed once, on forever" keeps the gate
/// a single atomic load).
pub fn install_span_hook(hook: SpanHook) {
    let _ = SPAN_HOOK.set(hook);
}

#[inline]
fn span_hook() -> Option<SpanHook> {
    SPAN_HOOK.get().copied()
}

/// True when any span sink wants events: a collector on this thread or
/// the process-wide span hook. This is the gate the [`span!`](crate::span!) /
/// [`root_span!`](crate::root_span!) macros check; without any sink it is one thread-local
/// read plus one relaxed atomic load.
#[inline]
pub fn probes_live() -> bool {
    active() || SPAN_HOOK.get().is_some()
}

/// The collector installed on the current thread, if any.
pub fn current() -> Option<Collector> {
    if !active() {
        return None;
    }
    STATE.with(|s| s.borrow().collector.clone())
}

/// Installs `collector` on the current thread for the duration of `f`,
/// restoring the previous state afterwards — also when `f` unwinds. Spans
/// recorded inside land in `collector`; the previous collector's open
/// spans are set aside and resume afterwards. `None` runs `f` under
/// whatever is already installed.
pub fn with_collector<R>(collector: Option<Collector>, f: impl FnOnce() -> R) -> R {
    let Some(collector) = collector else {
        return f();
    };
    // The outer scope's open spans are set aside so spans recorded inside
    // `f` cannot attach to a different collector's tree.
    let (prev_collector, prev_stack, prev_active) = STATE.with(|s| {
        let mut st = s.borrow_mut();
        let pc = st.collector.replace(collector);
        let ps = std::mem::take(&mut st.stack);
        (pc, ps, ACTIVE.with(Cell::get))
    });
    ACTIVE.with(|a| a.set(true));
    // Panic safety: restore on unwind so a panicking scope cannot leave
    // the thread recording into a finished collector.
    struct Restore {
        prev_collector: Option<Collector>,
        prev_stack: Vec<OpenSpan>,
        prev_active: bool,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            let pc = self.prev_collector.take();
            let ps = std::mem::take(&mut self.prev_stack);
            STATE.with(|s| {
                let mut st = s.borrow_mut();
                // Close any spans left open by an unwinding scope so the
                // stack cannot leak across scopes.
                while !st.stack.is_empty() {
                    close_top(&mut st);
                }
                st.collector = pc;
                st.stack = ps;
            });
            ACTIVE.with(|a| a.set(self.prev_active));
        }
    }
    let _restore = Restore {
        prev_collector,
        prev_stack,
        prev_active,
    };
    f()
}

fn close_top(st: &mut ThreadState) {
    let Some(open) = st.stack.pop() else { return };
    let Some(collector) = st.collector.clone() else {
        return;
    };
    let detached = open.detached;
    let span = Span {
        name: open.name,
        attrs: open.attrs,
        start_ns: open.start_ns,
        end_ns: collector.now_ns(),
        depth: if detached { 0 } else { st.stack.len() as u32 },
        thread: thread_id(),
        children: open.children,
    };
    // A detached span is a per-query call tree: always a top-level root,
    // regardless of what phase happened to ask the query (the cache
    // decides which asker runs the query cold; the query itself is fixed).
    match st.stack.last_mut() {
        Some(parent) if !detached => parent.children.push(span),
        _ => lock(&collector.inner.done).push(span),
    }
}

/// RAII guard returned by [`span!`](crate::span!); records the span's end when dropped.
/// The inert (tracing-off) variant carries no drop cost. Guards must be
/// dropped in LIFO order (the natural scoping discipline); the
/// well-formedness proptest in `tests/` asserts the resulting invariant.
#[must_use = "a span guard records its end time when dropped"]
pub struct SpanGuard {
    /// Stack index of this guard's span while open; `usize::MAX` when
    /// inert. While the guard lives, its `OpenSpan` sits at exactly this
    /// index (children push above, LIFO close pops back down to it).
    slot: usize,
    /// Set when the span hook saw this span open: its close is sent to
    /// the hook on drop, whether or not a collector is also recording.
    hooked: Option<&'static str>,
}

impl SpanGuard {
    /// Attaches an attribute to this guard's span (usable at any point
    /// before the guard drops, including after nested spans opened and
    /// closed). A no-op when tracing is inactive (the span hook receives
    /// names only, so hook-only spans carry no attributes).
    pub fn attr(&self, key: &str, value: impl Into<AttrValue>) {
        if self.slot == usize::MAX {
            return;
        }
        STATE.with(|s| {
            if let Some(open) = s.borrow_mut().stack.get_mut(self.slot) {
                open.attrs.push((key.to_owned(), value.into()));
            }
        });
    }

    /// Like [`attr`](Self::attr), but builds the value only when the span
    /// is recording: for values that cost an allocation to make.
    pub fn attr_with<V: Into<AttrValue>>(&self, key: &str, value: impl FnOnce() -> V) {
        if self.slot != usize::MAX {
            self.attr(key, value());
        }
    }

    /// The no-op guard used by [`span!`](crate::span!) when tracing is inactive.
    #[inline]
    pub fn inert() -> SpanGuard {
        SpanGuard {
            slot: usize::MAX,
            hooked: None,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.slot != usize::MAX {
            STATE.with(|s| close_top(&mut s.borrow_mut()));
        }
        // Guards drop in LIFO order by scoping, so the hook sees closes
        // in the order its per-thread span stacks pop them.
        if let Some(name) = self.hooked {
            if let Some(hook) = span_hook() {
                hook(false, name);
            }
        }
    }
}

fn begin(name: &'static str, detached: bool) -> SpanGuard {
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        let Some(collector) = st.collector.clone() else {
            return SpanGuard::inert();
        };
        let slot = st.stack.len();
        st.stack.push(OpenSpan {
            name,
            attrs: Vec::new(),
            start_ns: collector.now_ns(),
            children: Vec::new(),
            detached,
        });
        SpanGuard { slot, hooked: None }
    })
}

/// Opens `name` toward every sink: the span hook sees the begin
/// immediately; the collector (when installed) gets a stack entry. The
/// returned guard closes whichever sinks saw the open.
fn begin_with_hook(name: &'static str, detached: bool) -> SpanGuard {
    let hook = span_hook();
    if let Some(hook) = hook {
        hook(true, name);
    }
    let mut guard = if active() {
        begin(name, detached)
    } else {
        SpanGuard::inert()
    };
    guard.hooked = hook.map(|_| name);
    guard
}

/// Opens a span named `name`. Prefer the [`span!`](crate::span!) macro, which skips even
/// the call when no sink is live.
pub fn span_begin(name: &'static str) -> SpanGuard {
    begin_with_hook(name, false)
}

/// Opens a *detached* span: recorded as a top-level root of the trace (a
/// per-query call tree) even when enclosing spans are open. Prefer the
/// [`root_span!`](crate::root_span!) macro. The span hook sees it as an ordinary nested
/// span (its sinks are per thread; detachment is a collector merge
/// concept).
pub fn root_span_begin(name: &'static str) -> SpanGuard {
    begin_with_hook(name, true)
}

/// Opens a span recording a call-tree interval, returning an RAII guard.
///
/// ```ignore
/// let _s = span!(gist);                       // named span
/// let _s = span!(fm_eliminate, vars = n);     // with open-time attributes
/// _s.attr("tier", "cache");                   // close-time attribute
/// ```
///
/// With no collector installed and no span hook, the expansion is one
/// thread-local flag check plus one relaxed atomic load; nothing is
/// timed or allocated. With only the span hook live, the span is one
/// hook call at open and one at close.
#[macro_export]
macro_rules! span {
    ($name:ident) => {
        if $crate::trace::probes_live() {
            $crate::trace::span_begin(stringify!($name))
        } else {
            $crate::trace::SpanGuard::inert()
        }
    };
    ($name:ident, $($key:ident = $value:expr),+ $(,)?) => {{
        let guard = $crate::span!($name);
        $(guard.attr(stringify!($key), $value);)+
        guard
    }};
}

/// Like [`span!`](crate::span!), but the span becomes a top-level root of the trace — a
/// per-query call tree — regardless of what spans are open around it.
/// Roots are ordered canonically at [`Collector::finish`] time by
/// (name, `key` attribute), so the trace shape stays a pure function of
/// the queries asked, not of which phase happened to ask first.
#[macro_export]
macro_rules! root_span {
    ($name:ident) => {
        if $crate::trace::probes_live() {
            $crate::trace::root_span_begin(stringify!($name))
        } else {
            $crate::trace::SpanGuard::inert()
        }
    };
    ($name:ident, $($key:ident = $value:expr),+ $(,)?) => {{
        let guard = $crate::root_span!($name);
        $(guard.attr(stringify!($key), $value);)+
        guard
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn hotspots_exclude_detached_roots_from_their_asker() {
        let c = Collector::new();
        with_collector(Some(c.clone()), || {
            let _probe = crate::span!(sat_query);
            std::thread::sleep(Duration::from_millis(2));
            {
                // Detached, like the solver's exact queries.
                let _exact = crate::root_span!(sat_exact);
                std::thread::sleep(Duration::from_millis(4));
                let _fm = crate::span!(fm_eliminate);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let trace = c.finish();
        let rows = trace.hotspot_rows();
        let row = |name: &str| rows.iter().find(|h| h.name == name).expect(name);
        let (probe, exact, fm) = (row("sat_query"), row("sat_exact"), row("fm_eliminate"));
        assert_eq!(probe.excl_ns, probe.incl_ns - exact.incl_ns);
        assert_eq!(exact.excl_ns, exact.incl_ns - fm.incl_ns);
        assert!(probe.excl_ns >= 2_000_000);
        // Nothing counted twice: the exclusive column sums to the traced
        // wall time, the probe span's.
        let total: u64 = rows.iter().map(|h| h.excl_ns).sum();
        assert_eq!(total, probe.incl_ns);
    }

    #[test]
    fn a_panic_in_a_nested_collector_restores_the_outer_one() {
        // The daemon catches a panicking job and reuses its worker thread,
        // so an unwinding scope must hand the thread back intact.
        let (outer, inner) = (Collector::new(), Collector::new());
        with_collector(Some(outer.clone()), || {
            let _phase = crate::span!(outer_phase);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_collector(Some(inner.clone()), || {
                    let _work = crate::span!(inner_work);
                    panic!("job failed");
                })
            }));
            assert!(result.is_err());
            let now = current().expect("outer collector reinstalled");
            assert!(Arc::ptr_eq(&now.inner, &outer.inner));
            let _after = crate::span!(after_panic);
        });
        assert!(!active());
        assert_eq!(outer.finish().shape(), "outer_phase(after_panic)");
        assert_eq!(inner.finish().shape(), "inner_work");
    }

    #[test]
    fn buffered_dumps_past_the_cap_are_counted_as_dropped() {
        let c = Collector::new();
        c.buffer_queries();
        for i in 0..DUMP_BUFFER_CAP + 3 {
            c.submit_dump("sat", format!("# dump {i}\n"));
        }
        let dir = std::env::temp_dir().join(format!("omega-trace-cap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(c.write_buffered_dumps(&dir).unwrap(), (DUMP_BUFFER_CAP, 3));
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, DUMP_BUFFER_CAP);
        // The buffer and its drop count start over.
        assert_eq!(c.write_buffered_dumps(&dir).unwrap(), (0, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
