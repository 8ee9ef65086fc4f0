//! The generation inputs, one pass of both tools over them, and the
//! output checks.

use crate::layers::{self, Split};
use crate::stats::Work;
use codegenplus::{pad_statements, CodeGen, CodeGenError, Generated, Statement};
use omega::trace::{with_collector, Collector};
use polyir::{CostModel, ExecConfig};
use std::time::Instant;

/// Table 1 problem size.
pub const N: i64 = 64;

/// Corpus size: the `difftest::gen_case` spaces of seeds
/// `0..CORPUS_CASES`.
pub const CORPUS_CASES: u64 = 64;

/// Statement instances each Table 1 kernel executes at `N = 64`.
const KERNEL_INSTANCES: [(&str, u64); 5] = [
    ("gemv", 4096),
    ("qr", 2080),
    ("swim", 36864),
    ("gemm", 262144),
    ("lu", 87360),
];

/// How a program's outputs are checked. The reference never comes from
/// the generator under test alone.
#[derive(Clone, Debug)]
pub enum Oracle {
    /// A Table 1 kernel: both tools execute identical `polyir` traces of
    /// this many statement instances.
    Kernel {
        /// Expected statement instances.
        instances: u64,
    },
    /// A corpus space: each tool's trace equals
    /// `difftest::check::expected_trace`. An empty space is correct when
    /// the tool reports `EmptyDomains`.
    Enumerated,
}

/// One generation input for both tools.
#[derive(Clone, Debug)]
pub struct Program {
    /// Kernel name or `seed-<n>`.
    pub name: String,
    /// Statements, as both tools receive them.
    pub stmts: Vec<Statement>,
    /// Parameter values for execution.
    pub params: Vec<i64>,
    /// How the outputs are checked.
    pub oracle: Oracle,
}

/// The five Table 1 kernels at `N`, padded like the `table1` harness.
pub fn table1_kernels() -> Vec<Program> {
    chill::recipes::all(N)
        .into_iter()
        .map(|k| {
            let stmts: Vec<Statement> = k
                .nest
                .statements()
                .iter()
                .map(|s| Statement::new(s.name.clone(), s.domain.clone()).with_args(s.args.clone()))
                .collect();
            let instances = KERNEL_INSTANCES
                .iter()
                .find(|(name, _)| *name == k.name)
                .map(|&(_, n)| n)
                .expect("every Table 1 kernel has an instance count");
            Program {
                name: k.name.to_owned(),
                stmts: pad_statements(&stmts, 0),
                params: k.params,
                oracle: Oracle::Kernel { instances },
            }
        })
        .collect()
}

/// The corpus: the difftest spaces of seeds `0..CORPUS_CASES`, in an
/// order drawn from `seed`. The set itself does not follow `seed`: two
/// disjoint 64-space draws differ up to threefold in total work, more
/// than any bound on a run-to-run spread could absorb.
pub fn corpus(seed: u64) -> Vec<Program> {
    let mut rng = omega::arbitrary::Rng::new(seed);
    shuffled(&mut rng, CORPUS_CASES as usize)
        .into_iter()
        .map(|i| {
            let case = difftest::gen_case(i as u64);
            Program {
                name: format!("seed-{}", case.seed),
                stmts: case.statements(),
                params: case.params,
                oracle: Oracle::Enumerated,
            }
        })
        .collect()
}

/// A seeded permutation of `0..n`.
pub fn shuffled(rng: &mut omega::arbitrary::Rng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.range(0, i as i64) as usize);
    }
    v
}

/// The two generators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tool {
    /// CodeGen+ at its default effort.
    CgPlus,
    /// The CLooG-style baseline at its default options.
    Cloog,
}

/// Both tools, CodeGen+ first.
pub const TOOLS: [Tool; 2] = [Tool::CgPlus, Tool::Cloog];

impl Tool {
    /// Metric prefix.
    pub fn tag(self) -> &'static str {
        match self {
            Tool::CgPlus => "cgplus",
            Tool::Cloog => "cloog",
        }
    }
}

/// CodeGen+ thread settings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Threads {
    /// What users get: `threads(0)` and `intra_threads(0)`.
    Default,
    /// `threads(1)` and `intra_threads(1)`, whose work counts repeat
    /// exactly.
    One,
}

/// One generation's result.
pub type Output = Result<Generated, CodeGenError>;

/// Runs `tool` on `p` and returns the output with the wall time of the
/// generate call alone. With `split`, the call is traced (see [`timed`]).
pub fn generate(
    tool: Tool,
    p: &Program,
    threads: Threads,
    split: Option<&mut Split>,
) -> (Output, u64) {
    match tool {
        Tool::CgPlus => {
            let mut cg = CodeGen::new().statements(p.stmts.iter().cloned());
            if threads == Threads::One {
                cg = cg.threads(1).intra_threads(1);
            }
            timed(split, |c| {
                let _s = omega::span!(bench_cgplus);
                match c {
                    Some(c) => cg.trace(c.clone()).generate(),
                    None => cg.generate(),
                }
            })
        }
        Tool::Cloog => {
            let cl = cloog::Cloog::new().statements(p.stmts.iter().cloned());
            timed(split, |_| {
                let _s = omega::span!(bench_cloog);
                cl.generate()
            })
        }
    }
}

/// The stand-in compile of a generated program (`polyir::passes`), with
/// its wall time.
pub fn compile(g: &Generated, split: Option<&mut Split>) -> (polyir::passes::CompileReport, u64) {
    timed(split, |_| {
        let _s = omega::span!(bench_compile);
        polyir::passes::compile(&g.code)
    })
}

/// Times `f`. With `split`, `f` runs under a fresh collector (installed
/// here, and handed to `f` for builders that take one) inside the
/// caller's `bench_*` span, and the call's layer split is added to
/// `split` after the clock stops. One collector per call keeps each
/// trace small.
fn timed<R>(split: Option<&mut Split>, f: impl FnOnce(Option<&Collector>) -> R) -> (R, u64) {
    let collector = split.is_some().then(Collector::new);
    let t0 = Instant::now();
    let r = with_collector(collector.clone(), || f(collector.as_ref()));
    let ns = t0.elapsed().as_nanos() as u64;
    if let (Some(split), Some(c)) = (split, collector) {
        split.add(&layers::split(&c.finish()));
    }
    (r, ns)
}

/// One pass: every program through both tools, then the compile of each
/// CodeGen+ output. With `cold`, the solver caches are reset before
/// every generation (outside the timed call), so CLooG never runs on a
/// cache CodeGen+ filled. A traced pass also splits every call by layer.
#[derive(Debug)]
pub struct Pass {
    /// Per-tool generation wall time, summed over programs.
    pub gen_ns: [u64; 2],
    /// CodeGen+ generation wall time per program.
    pub cgplus_ns: Vec<u64>,
    /// Wall time of the compiles, summed.
    pub compile_ns: u64,
    /// `[CodeGen+, CLooG]` outputs per program.
    pub outputs: Vec<[Output; 2]>,
    /// Solver work per tool (snapshot deltas around each call).
    pub work: [Work; 2],
    /// Layer self times of a traced pass (empty otherwise).
    pub split: Split,
}

impl Pass {
    /// Wall time of everything timed in the pass.
    pub fn total_ns(&self) -> u64 {
        self.gen_ns.iter().sum::<u64>() + self.compile_ns
    }
}

/// Runs one pass (see [`Pass`]).
pub fn run_pass(programs: &[Program], cold: bool, threads: Threads, traced: bool) -> Pass {
    let mut pass = Pass {
        gen_ns: [0; 2],
        cgplus_ns: Vec::with_capacity(programs.len()),
        compile_ns: 0,
        outputs: Vec::with_capacity(programs.len()),
        work: [Work::default(); 2],
        split: Split::default(),
    };
    for p in programs {
        let [cg, cl] = TOOLS.map(|tool| {
            if cold {
                omega::reset_sat_cache();
            }
            let split = traced.then_some(&mut pass.split);
            let (out, ns) = pass.work[tool as usize].measure(|| generate(tool, p, threads, split));
            pass.gen_ns[tool as usize] += ns;
            if tool == Tool::CgPlus {
                pass.cgplus_ns.push(ns);
            }
            out
        });
        if let Ok(g) = &cg {
            pass.compile_ns += compile(g, traced.then_some(&mut pass.split)).1;
        }
        pass.outputs.push([cg, cl]);
    }
    pass
}

/// A checked output: its C text (or error) for comparing later passes,
/// and the paper's output columns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checked {
    /// `to_c()` text, or the generation error.
    pub text: Result<String, CodeGenError>,
    /// Lines of generated code (0 for an error).
    pub lines: u64,
    /// Dynamic cost of the compiled program (0 for an error).
    pub dyn_cost: u64,
}

/// Verified outputs of one pass: the reference later passes must equal.
#[derive(Clone, Debug)]
pub struct Reference {
    /// `[CodeGen+, CLooG]` per program.
    pub outputs: Vec<[Checked; 2]>,
}

impl Reference {
    /// Lines summed over programs, per tool.
    pub fn lines(&self, tool: Tool) -> u64 {
        self.outputs.iter().map(|o| o[tool as usize].lines).sum()
    }

    /// Dynamic cost summed over programs, per tool.
    pub fn dyn_cost(&self, tool: Tool) -> u64 {
        self.outputs.iter().map(|o| o[tool as usize].dyn_cost).sum()
    }
}

/// Output-check totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs wrong, or errors where the oracle has points.
    pub failed: u64,
    /// Outputs with `Certainty::Approximate`.
    pub degraded: u64,
}

impl Tally {
    /// Records one checked output.
    pub fn record(&mut self, ok: bool, degraded: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.degraded += u64::from(degraded);
    }

    fn record_output(&mut self, ok: bool, out: &Output) {
        let degraded = out
            .as_ref()
            .is_ok_and(|g| g.certainty != omega::Certainty::Exact);
        self.record(ok, degraded);
    }
}

/// Checks every output of `pass` against its program's oracle by
/// executing it, and returns the reference for later passes.
pub fn verify(programs: &[Program], pass: &Pass, tally: &mut Tally) -> Reference {
    let outputs = programs
        .iter()
        .zip(&pass.outputs)
        .map(|(p, outs)| {
            let traces: Vec<Option<Vec<polyir::TraceEntry>>> = outs
                .iter()
                .map(|o| {
                    o.as_ref()
                        .ok()
                        .and_then(|g| g.execute(&p.params).ok())
                        .map(|r| r.trace)
                })
                .collect();
            let oks: Vec<bool> = match &p.oracle {
                Oracle::Kernel { instances } => {
                    let agree = traces[0].is_some() && traces[0] == traces[1];
                    traces
                        .iter()
                        .map(|t| agree && t.as_ref().is_some_and(|t| t.len() as u64 == *instances))
                        .collect()
                }
                Oracle::Enumerated => {
                    let expected = difftest::check::expected_trace(&p.stmts, &p.params);
                    outs.iter()
                        .zip(&traces)
                        .map(|(o, t)| match o {
                            Ok(_) => t.as_ref() == Some(&expected),
                            Err(e) => *e == CodeGenError::EmptyDomains && expected.is_empty(),
                        })
                        .collect()
                }
            };
            let mut checked = outs.iter().zip(oks).map(|(o, ok)| {
                tally.record_output(ok, o);
                check_columns(o, &p.params)
            });
            [checked.next().unwrap(), checked.next().unwrap()]
        })
        .collect();
    Reference { outputs }
}

/// Text, lines and dynamic cost of one output.
fn check_columns(out: &Output, params: &[i64]) -> Checked {
    match out {
        Err(e) => Checked {
            text: Err(e.clone()),
            lines: 0,
            dyn_cost: 0,
        },
        Ok(g) => {
            let compiled = polyir::passes::compile(&g.code);
            let cfg = ExecConfig {
                record_trace: false,
                ..ExecConfig::default()
            };
            let dyn_cost = polyir::execute_with(&compiled.optimized, params, &cfg)
                .map_or(0, |run| CostModel::default().cost(&run.counters));
            Checked {
                text: Ok(g.to_c()),
                lines: polyir::lines_of_code(&g.code, &g.names) as u64,
                dyn_cost,
            }
        }
    }
}

/// Checks a later pass: every output must render exactly the verified
/// reference text (generation is deterministic at every thread count).
pub fn check_against(reference: &Reference, pass: &Pass, tally: &mut Tally) {
    for (want, outs) in reference.outputs.iter().zip(&pass.outputs) {
        for (w, o) in want.iter().zip(outs) {
            check_one(w, o, tally);
        }
    }
}

/// Checks one output against its verified reference.
pub fn check_one(want: &Checked, out: &Output, tally: &mut Tally) {
    let ok = match (out, &want.text) {
        (Ok(g), Ok(text)) => g.to_c() == *text,
        (Err(e), Err(want)) => e == want,
        _ => false,
    };
    tally.record_output(ok, out);
}
