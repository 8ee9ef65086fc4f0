//! Sample statistics, solver work counters and process facts.

use omega::stats::Snapshot;

/// Linear-interpolation quantile (`q` in 0..=1) of `samples`; 0 when
/// there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The calibration loop's time on the host the end-to-end times are
/// scaled to, in milliseconds.
pub const CALIBRATION_REF_MS: f64 = 3.0;

/// Integers each core sorts and probes per calibration run.
const CALIBRATION_KEYS: usize = 40_000;

/// The calibration loop: on every core the process may use, at the same
/// time, fill a buffer with pseudo-random integers, sort it and probe it
/// by binary search. It shares no code with the program under test. On a
/// shared host the speed one process gets drifts by tens of percent over
/// minutes, and not equally on every core; this loop's wall time (until
/// the last core finishes), taken between the measured passes, drifts
/// with it. On one core alone it tracked the generators worse than the
/// unscaled times themselves. The buffers are allocated once, so the loop
/// adds a fixed 320 KB per core to the peak resident size.
#[derive(Debug)]
pub struct Calibration {
    buffers: Vec<Vec<u64>>,
}

impl Default for Calibration {
    fn default() -> Calibration {
        Calibration {
            buffers: vec![vec![0; CALIBRATION_KEYS]; nproc()],
        }
    }
}

impl Calibration {
    /// Runs the loop once and returns its wall time in ms.
    pub fn run_ms(&mut self) -> f64 {
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            let (own, others) = self.buffers.split_first_mut().expect("at least one core");
            for keys in others {
                s.spawn(move || calibration_loop(keys));
            }
            calibration_loop(own);
        });
        t0.elapsed().as_secs_f64() * 1e3
    }
}

fn calibration_loop(keys: &mut [u64]) {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for k in keys.iter_mut() {
        *k = next();
    }
    keys.sort_unstable();
    let mut sum = 0u64;
    for _ in 0..keys.len() {
        let probe = keys[(next() % keys.len() as u64) as usize];
        sum = sum.wrapping_add(keys.binary_search(&probe).unwrap_or(0) as u64);
    }
    std::hint::black_box(sum);
}

/// The host's available parallelism (what `threads(0)` resolves to).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts the `VmHWM` high-water mark at the current resident size, so
/// the peak read at the end covers the measured loop and not the output
/// checks that ran before it. Best effort: without the kernel interface
/// the peak covers the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Solver work of one tool, summed over `omega::stats` snapshot deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Satisfiability queries past the trivial cases (cache probes).
    pub sat_queries: u64,
    /// Of those, answered by the memo cache.
    pub sat_hits: u64,
    /// Cache misses decided unsatisfiable by tier 0.
    pub tier0_unsat: u64,
    /// Cache misses decided by tier 1 (either verdict).
    pub tier1_decided: u64,
    /// Cache misses that ran the exact Omega test.
    pub exact_solves: u64,
    /// Gist queries (cache probes).
    pub gist_queries: u64,
    /// Of those, answered by the gist cache.
    pub gist_hits: u64,
    /// Memo-cache evictions.
    pub evictions: u64,
    /// Sat and gist answers degraded by a resource limit.
    pub degraded: u64,
    /// Intra-query parallel batches.
    pub par_batches: u64,
    /// Tasks in those batches.
    pub par_tasks: u64,
    /// Tasks claimed by a thread other than the submitter.
    pub par_steals: u64,
}

impl Work {
    /// Adds the counters of `delta` (a snapshot difference).
    pub fn add(&mut self, delta: &Snapshot) {
        self.sat_queries += delta.total();
        self.sat_hits += delta.cache_hits;
        self.tier0_unsat += delta.tier0_unsat;
        self.tier1_decided += delta.tier1_unsat + delta.tier1_sat;
        self.exact_solves += delta.exact_solves();
        self.gist_queries += delta.gist_hits + delta.gist_misses;
        self.gist_hits += delta.gist_hits;
        self.evictions += delta.evictions;
        self.degraded += delta.sat_degraded + delta.gist_degraded;
        self.par_batches += delta.par_batches;
        self.par_tasks += delta.par_tasks;
        self.par_steals += delta.par_steals;
    }

    /// Runs `f` and adds the solver work it did.
    pub fn measure<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = omega::stats::snapshot();
        let r = f();
        self.add(&omega::stats::snapshot().delta(&before));
        r
    }

    /// The exact per-tool counters, named `<tool>.omega.<counter>`.
    pub fn report(&self, tool: &str, out: &mut crate::Outcome) {
        let counts = [
            ("sat_queries", self.sat_queries),
            ("tier0_unsat", self.tier0_unsat),
            ("tier1_decided", self.tier1_decided),
            ("exact_solves", self.exact_solves),
            ("gist_queries", self.gist_queries),
            ("evictions", self.evictions),
            ("degraded", self.degraded),
        ];
        for (name, v) in counts {
            out.metric(format!("{tool}.omega.{name}"), v as f64, "count");
        }
        out.metric(
            format!("{tool}.omega.sat_hit_ratio"),
            ratio(self.sat_hits, self.sat_queries),
            "ratio",
        );
        out.metric(
            format!("{tool}.omega.gist_hit_ratio"),
            ratio(self.gist_hits, self.gist_queries),
            "ratio",
        );
    }
}
