//! # bench-harness — regenerating the PLDI 2012 evaluation
//!
//! Shared measurement pipeline for the Table 1 / Figure 7 / Figure 8
//! experiments: run a [`chill::Kernel`] through both generators, collect
//! the paper's four metric columns (lines of generated code, code
//! generation time, downstream compile time, code performance), and verify
//! both tools execute identical statement traces.
//!
//! Substitutions relative to the paper's testbed are documented in
//! `DESIGN.md`: gcc compile time → the timed `polyir::passes::compile`
//! pipeline; hardware execution time → the `polyir` dynamic-cost model.
//! When a real `gcc` is on PATH, the [`gcc`] module additionally measures
//! actual `gcc -O3` compile times and compiled-binary run times — the
//! paper's literal methodology (`table1 --gcc`).

pub mod gcc;

use chill::Kernel;
use cloog::{Cloog, Options};
use codegenplus::{pad_statements, CodeGen, Generated, Statement};
use polyir::{CostModel, ExecConfig};
use std::time::{Duration, Instant};

/// Which generator to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tool {
    /// The paper's contribution at a given overhead-removal effort.
    CodeGenPlus {
        /// Loop nesting depth for overhead removal (paper default 1).
        effort: usize,
        /// If-merging, the paper's second algorithm (§3.2); on by default.
        merge_ifs: bool,
    },
    /// The Quilleré/CLooG-style baseline.
    Cloog {
        /// Baseline options.
        options: Options,
    },
}

impl Tool {
    /// The paper's default CodeGen+ configuration.
    pub fn codegenplus() -> Tool {
        Tool::CodeGenPlus {
            effort: 1,
            merge_ifs: true,
        }
    }

    /// The baseline with default options.
    pub fn cloog() -> Tool {
        Tool::Cloog {
            options: Options::default(),
        }
    }

    /// The paper's ablations: CodeGen+ at efforts 0–3 (Figure 7's
    /// overhead-vs-size trade-off), each with if-merging on and off, then
    /// the baseline with compaction on and off.
    pub fn ablations() -> Vec<Tool> {
        let mut tools: Vec<Tool> = (0..=3)
            .flat_map(|effort| {
                [true, false].map(|merge_ifs| Tool::CodeGenPlus { effort, merge_ifs })
            })
            .collect();
        tools.extend([true, false].map(|compact| Tool::Cloog {
            options: Options {
                compact,
                ..Options::default()
            },
        }));
        tools
    }

    /// A short label naming the tool and its settings, e.g.
    /// `cgplus effort=1 merge_ifs=on` or `cloog compact=off`.
    pub fn label(&self) -> String {
        let on = |b: bool| if b { "on" } else { "off" };
        match self {
            Tool::CodeGenPlus { effort, merge_ifs } => {
                format!("cgplus effort={effort} merge_ifs={}", on(*merge_ifs))
            }
            Tool::Cloog { options } => format!("cloog compact={}", on(options.compact)),
        }
    }
}

/// Measurements for one (kernel, tool) pair — one cell group of Table 1.
#[derive(Clone, Debug)]
pub struct ToolReport {
    /// Lines of generated code.
    pub lines: usize,
    /// Wall-clock code generation time: the median repetition.
    pub codegen_time: Duration,
    /// Wall-clock of the stand-in compiler pipeline.
    pub compile_time: Duration,
    /// Dynamic cost under the default [`CostModel`] (performance proxy).
    pub dynamic_cost: u64,
    /// Statement instances executed (sanity: equal across tools).
    pub instances: u64,
    /// Bytes of generated C, counted exactly like the daemon counts its
    /// response body (trailing newline included), so a batch
    /// `QueryReport` matches the daemon's for the same kernel.
    pub bytes: usize,
    /// `exact` or `approximate:reason+reason` — the
    /// [`omega::Certainty`] rendering the daemon reports too.
    pub certainty: String,
}

/// Pads and converts a kernel's statements for the generators.
pub fn statements_of(kernel: &Kernel) -> Vec<Statement> {
    let stmts: Vec<Statement> = kernel
        .nest
        .statements()
        .iter()
        .map(|s| Statement::new(s.name.clone(), s.domain.clone()).with_args(s.args.clone()))
        .collect();
    pad_statements(&stmts, 0)
}

/// Runs one tool on prepared statements.
///
/// # Panics
///
/// Panics if generation fails (the kernels are known-good inputs).
pub fn generate(stmts: &[Statement], tool: Tool) -> (Generated, Duration) {
    let t0 = Instant::now();
    let g = match tool {
        Tool::CodeGenPlus { effort, merge_ifs } => CodeGen::new()
            .statements(stmts.to_vec())
            .effort(effort)
            .merge_ifs(merge_ifs)
            .generate()
            .expect("codegen+ generation failed"),
        Tool::Cloog { options } => Cloog::new()
            .statements(stmts.to_vec())
            .options(options)
            .generate()
            .expect("cloog generation failed"),
    };
    (g, t0.elapsed())
}

/// Runs `g` on `kernel`'s parameters after the stand-in compiler: the
/// dynamic cost under the default [`CostModel`], the statement instances
/// executed, and the compiler's wall-clock time.
///
/// # Panics
///
/// Panics when the generated code fails to execute.
fn run_compiled(g: &Generated, kernel: &Kernel) -> (u64, u64, Duration) {
    let t0 = Instant::now();
    let compiled = polyir::passes::compile(&g.code);
    let compile_time = t0.elapsed();
    let cfg = ExecConfig {
        record_trace: false,
        ..ExecConfig::default()
    };
    let run = polyir::execute_with(&compiled.optimized, &kernel.params, &cfg)
        .expect("generated code must execute");
    let cost = CostModel::default().cost(&run.counters);
    (cost, run.counters.stmt_execs, compile_time)
}

/// One tool's Table 1 cell group from its last generated program and the
/// wall-clock time of every repetition.
fn report(kernel: &Kernel, g: &Generated, mut times: Vec<Duration>) -> ToolReport {
    times.sort_unstable();
    let (dynamic_cost, instances, compile_time) = run_compiled(g, kernel);
    let code = g.to_c();
    ToolReport {
        lines: polyir::lines_of_text(&code),
        codegen_time: times[times.len() / 2],
        compile_time,
        dynamic_cost,
        instances,
        bytes: code.len() + usize::from(!code.ends_with('\n')),
        certainty: g.certainty.to_string(),
    }
}

/// One traced CodeGen+ generation of `kernel` against cold solver caches:
/// every pass and solver query records a span (and, when the collector has
/// a dump directory, every tier-2 query a replayable `.omega` dump) into
/// `collector`. The result is also run through the stand-in compiler under
/// the same collector so the `pass_*` spans are captured.
///
/// The caches are reset first because a warm cache answers everything at
/// the `cache` tier — the per-query call trees the trace exists to show
/// would be empty.
///
/// # Panics
///
/// Panics if generation fails (the kernels are known-good inputs).
pub fn trace_kernel(kernel: &Kernel, collector: &omega::trace::Collector) -> Generated {
    let stmts = statements_of(kernel);
    omega::reset_sat_cache();
    let g = CodeGen::new()
        .statements(stmts)
        .effort(1)
        .trace(collector.clone())
        .generate()
        .expect("codegen+ generation failed");
    omega::trace::with_collector(Some(collector.clone()), || {
        polyir::passes::compile(&g.code);
    });
    g
}

/// One Table 1 row: both tools measured on the same spaces, with the
/// derived ratios the paper reports.
#[derive(Clone, Debug)]
pub struct Row {
    /// Kernel name.
    pub name: &'static str,
    /// CLooG baseline measurements.
    pub cloog: ToolReport,
    /// CodeGen+ measurements.
    pub cgplus: ToolReport,
}

impl Row {
    /// Lines-of-code reduction (CLooG / CodeGen+).
    pub fn loc_reduction(&self) -> f64 {
        self.cloog.lines as f64 / self.cgplus.lines.max(1) as f64
    }

    /// Code-generation speedup (CLooG time / CodeGen+ time).
    pub fn codegen_speedup(&self) -> f64 {
        self.cloog.codegen_time.as_secs_f64() / self.cgplus.codegen_time.as_secs_f64().max(1e-9)
    }

    /// Compile-time speedup.
    pub fn compile_speedup(&self) -> f64 {
        self.cloog.compile_time.as_secs_f64() / self.cgplus.compile_time.as_secs_f64().max(1e-9)
    }

    /// Performance speedup (CLooG dynamic cost / CodeGen+ dynamic cost).
    pub fn perf_speedup(&self) -> f64 {
        self.cloog.dynamic_cost as f64 / self.cgplus.dynamic_cost.max(1) as f64
    }
}

/// Measures one kernel with both tools (a full Table 1 row).
///
/// The two tools' code-generation repetitions alternate inside one time
/// window, so both see the same phases of a shared host, and each tool
/// reports its median repetition. Sub-millisecond kernels get up to 100
/// pairs; multi-millisecond ones still stop after a handful.
///
/// # Panics
///
/// Panics when generation or execution fails.
pub fn compare(kernel: &Kernel) -> Row {
    let stmts = statements_of(kernel);
    let tools = [Tool::codegenplus(), Tool::cloog()];
    let mut times: [Vec<Duration>; 2] = Default::default();
    let mut last = [None, None];
    let window = Instant::now();
    while times[0].len() < 100
        && (times[0].is_empty() || window.elapsed() < Duration::from_millis(800))
    {
        for (i, &tool) in tools.iter().enumerate() {
            let (g, t) = generate(&stmts, tool);
            times[i].push(t);
            last[i] = Some(g);
        }
    }
    let [cg_times, cl_times] = times;
    let [cg, cl] = last.map(|g| g.expect("at least one repetition"));
    Row {
        name: kernel.name,
        cgplus: report(kernel, &cg, cg_times),
        cloog: report(kernel, &cl, cl_times),
    }
}

/// One ablation cell: a kernel under one [`Tool::ablations`] variant,
/// exact figures only, so the cells repeat from run to run and on any host.
#[derive(Clone, Debug)]
pub struct Ablation {
    /// Lines of generated code.
    pub lines: usize,
    /// Dynamic cost of the compiled code, as in the Table 1 column.
    pub dynamic_cost: u64,
    /// Statement instances executed.
    pub instances: u64,
    /// Sat queries of one generation against cold solver caches (cache
    /// hits plus misses).
    pub sat_queries: u64,
}

/// Generates `kernel` once under `tool` against cold solver caches and
/// returns the program with its exact [`Ablation`] figures.
///
/// # Panics
///
/// Panics when generation or execution fails.
pub fn ablate(kernel: &Kernel, tool: Tool) -> (Generated, Ablation) {
    let stmts = statements_of(kernel);
    omega::reset_sat_cache();
    let before = omega::stats::snapshot();
    let (g, _) = generate(&stmts, tool);
    let queries = omega::stats::snapshot().delta(&before);
    let (dynamic_cost, instances, _) = run_compiled(&g, kernel);
    let cell = Ablation {
        lines: polyir::lines_of_code(&g.code, &g.names),
        dynamic_cost,
        instances,
        sat_queries: queries.cache_hits + queries.cache_misses,
    };
    (g, cell)
}

/// Verifies both tools execute the identical statement trace (the
/// correctness precondition for every Table 1 comparison).
///
/// # Panics
///
/// Panics on generation or execution failure.
pub fn traces_match(kernel: &Kernel) -> bool {
    let stmts = statements_of(kernel);
    let (a, _) = generate(&stmts, Tool::codegenplus());
    let (b, _) = generate(&stmts, Tool::cloog());
    let ra = polyir::execute(&a.code, &kernel.params).expect("cg+ execution");
    let rb = polyir::execute(&b.code, &kernel.params).expect("cloog execution");
    ra.trace == rb.trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemv_row_shape() {
        let k = chill::recipes::gemv(16);
        assert!(traces_match(&k));
        let row = compare(&k);
        assert!(row.loc_reduction() >= 1.0, "CLooG must not be smaller");
        assert_eq!(row.cgplus.instances, row.cloog.instances);
        assert!(row.cgplus.dynamic_cost > 0);
    }

    #[test]
    fn all_kernels_traces_match_small() {
        for k in chill::recipes::all(9) {
            assert!(traces_match(&k), "trace mismatch for {}", k.name);
        }
    }
}
