//! # codegenplus — the CodeGen+ polyhedra scanner
//!
//! A Rust reimplementation of **CodeGen+** from *Polyhedra Scanning
//! Revisited* (Chun Chen, PLDI 2012): code generation for sets of
//! polyhedra with
//!
//! * a **loop overhead removal** algorithm giving precise control of the
//!   trade-off between loop overhead and code size via the loop nesting
//!   depth parameter (`effort`), and
//! * an **if-statement simplification** algorithm merging neighboring
//!   guard conditions into if-then-else trees using Presburger reasoning,
//!
//! all while preserving the lexicographic order of the input iteration
//! spaces at every trade-off point — the property CLooG only guarantees at
//! its default setting (paper §4.1).
//!
//! # Examples
//!
//! ```
//! use codegenplus::{CodeGen, Statement};
//! use omega::Set;
//!
//! let domain = Set::parse("[n] -> { [i,j] : 0 <= i < n && 0 <= j < i }")?;
//! let program = CodeGen::new()
//!     .statement(Statement::new("s0", domain))
//!     .effort(1)
//!     .generate()?;
//! let text = polyir::to_c(&program.code, &program.names);
//! assert!(text.contains("for"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod ast;
pub mod diff;
mod init;
mod input;
mod lift;
mod lower;
mod minmax;

pub use input::{pad_statements, CodeGenError, Statement};
pub use lower::{cond_of_conjunct, conv, lower_bound_expr, try_cond_of_conjunct, upper_bound_expr};

use ast::{Piece, Problem};
use omega::{Conjunct, Set, Space};
use polyir::{Names, Stmt};

/// A generated program: the `polyir` code plus naming for printing.
#[derive(Clone, Debug)]
pub struct Generated {
    /// The generated loop nest.
    pub code: Stmt,
    /// Names for parameters, loop variables and statements.
    pub names: Names,
    /// Degradation certificate for this run: [`omega::Certainty::Exact`]
    /// when every Presburger verdict taken during generation was exact, or
    /// `Approximate(reasons)` when some query hit a resource limit (see
    /// [`CodeGen::limits`]) and a sound conservative answer was used
    /// instead. Approximate code still executes exactly the requested
    /// points — degradation only costs redundant guards or looser bounds.
    pub certainty: omega::Certainty,
}

impl Generated {
    /// The C-like rendering of the program.
    pub fn to_c(&self) -> String {
        polyir::to_c(&self.code, &self.names)
    }

    /// Static metrics (lines, ifs, loops, depth) of the program.
    pub fn metrics(&self) -> polyir::CodeMetrics {
        polyir::CodeMetrics::of(&self.code, &self.names)
    }

    /// Executes the program under a parameter binding.
    ///
    /// # Errors
    ///
    /// See [`polyir::execute`].
    pub fn execute(&self, params: &[i64]) -> Result<polyir::Execution, polyir::ExecError> {
        polyir::execute(&self.code, params)
    }
}

/// Builder for a CodeGen+ run.
///
/// Configure with [`CodeGen::statement`], [`CodeGen::effort`] (the loop
/// nesting depth for overhead removal, counted from the innermost loop;
/// the paper's default is 1), and [`CodeGen::known`] (context assumed to
/// hold, e.g. parameter bounds), then call [`CodeGen::generate`].
#[derive(Clone, Debug)]
pub struct CodeGen {
    stmts: Vec<Statement>,
    effort: usize,
    minmax_effort: usize,
    known: Option<Conjunct>,
    merge_ifs: bool,
    reorder_leaves: bool,
    limits: omega::Limits,
    trace: Option<omega::trace::Collector>,
}

impl Default for CodeGen {
    fn default() -> Self {
        CodeGen::new()
    }
}

impl CodeGen {
    /// An empty builder with the paper's default effort (depth 1).
    pub fn new() -> CodeGen {
        CodeGen {
            stmts: Vec::new(),
            effort: 1,
            minmax_effort: 0,
            known: None,
            merge_ifs: true,
            reorder_leaves: false,
            limits: omega::Limits::default(),
            trace: None,
        }
    }

    /// Adds a statement to scan. Statements execute in lexicographic order
    /// of their (shared) iteration space; statements at identical points
    /// run in the order they were added.
    pub fn statement(mut self, s: Statement) -> CodeGen {
        self.stmts.push(s);
        self
    }

    /// Adds many statements.
    pub fn statements<I: IntoIterator<Item = Statement>>(mut self, it: I) -> CodeGen {
        self.stmts.extend(it);
        self
    }

    /// Sets the loop overhead removal depth `d` (paper §3.2.2): guards are
    /// lifted out of subloops of nesting depth ≤ `d`. `0` disables lifting
    /// (minimal code size); larger values trade code size for less control
    /// flow inside loops.
    pub fn effort(mut self, d: usize) -> CodeGen {
        self.effort = d;
        self
    }

    /// Declares a context known to hold on entry (e.g. `n >= 1`); generated
    /// code will not re-test it.
    pub fn known(mut self, known: Conjunct) -> CodeGen {
        self.known = Some(known);
        self
    }

    /// Sets the min/max bound removal depth (paper §3.2.2, final
    /// paragraph): loops of nesting depth ≤ `dm` with several lower or
    /// upper bounds are split so each side gets a single bound, removing
    /// `min`/`max` operators at the cost of code duplication. `0` (the
    /// paper's default) leaves min/max bounds alone.
    pub fn minmax_effort(mut self, dm: usize) -> CodeGen {
        self.minmax_effort = dm;
        self
    }

    /// Allows reordering statements at identical lexicographic positions
    /// to maximize if-statement merging (the paper's out-of-order merge
    /// for leaf statements, §3.2.3). Off by default because it changes the
    /// relative order of same-point statements.
    pub fn reorder_leaves(mut self, on: bool) -> CodeGen {
        self.reorder_leaves = on;
        self
    }

    /// No-op, kept only until the repository benchmark stops calling it:
    /// every generation runs on its calling thread (see the README's "One
    /// thread per generation").
    pub fn threads(self, _n: usize) -> CodeGen {
        self
    }

    /// No-op, kept only until the repository benchmark stops calling it:
    /// every solver query runs on its calling thread.
    pub fn intra_threads(self, _n: usize) -> CodeGen {
        self
    }

    /// Always `1`, kept only until the repository benchmark stops calling
    /// it: every generation runs on its calling thread.
    pub fn resolved_threads(&self) -> usize {
        1
    }

    /// Always `1`, kept only until the repository benchmark stops calling
    /// it: every solver query runs on its calling thread.
    pub fn resolved_intra_threads(&self) -> usize {
        1
    }

    /// Enables or disables the Figure 5 if-statement simplification
    /// (default on). Disabling it is the ablation of the paper's second
    /// algorithm: every guard is emitted separately.
    pub fn merge_ifs(mut self, on: bool) -> CodeGen {
        self.merge_ifs = on;
        self
    }

    /// Sets per-query resource limits for the Presburger solver (budget,
    /// recursion depth, row cap, optional deadline). When a query exceeds a
    /// limit the solver degrades to a sound conservative answer instead of
    /// panicking, and the run's [`Generated::certainty`] records why. The
    /// default ([`omega::Limits::default`]) is generous enough that every
    /// benchmark kernel generates exactly. Note that a wall-clock
    /// `deadline` makes results timing-dependent; the other limits keep
    /// generation fully deterministic, on a cold cache or a warm one.
    pub fn limits(mut self, limits: omega::Limits) -> CodeGen {
        self.limits = limits;
        self
    }

    /// Installs a span collector for this run: every pass and solver query
    /// executed by [`CodeGen::generate`] records a timed span into it (see
    /// [`omega::trace`]). Harvest with [`omega::trace::Collector::finish`]
    /// after `generate` returns, then export via
    /// [`omega::trace::Trace::write_chrome_json`]. Without a collector the
    /// probes still reach the process's span hook, when one is installed
    /// (per-name times come from its `telemetry::profile::timed` totals);
    /// with neither, each is a thread-local read and an atomic load.
    pub fn trace(mut self, collector: omega::trace::Collector) -> CodeGen {
        self.trace = Some(collector);
        self
    }

    /// Runs the scanner.
    ///
    /// The whole run executes under this builder's [`CodeGen::limits`]; the
    /// resulting [`Generated::certainty`] is `Exact` unless some solver
    /// query had to degrade.
    ///
    /// # Errors
    ///
    /// Returns [`CodeGenError`] when no statements are supplied, the
    /// statements disagree on the scanning space, every domain is empty, or
    /// a loop level is unbounded.
    pub fn generate(&self) -> Result<Generated, CodeGenError> {
        let (result, certainty) = omega::limits::with_limits(self.limits, || {
            omega::trace::with_collector(self.trace.clone(), || self.generate_inner())
        });
        let (code, names) = result?;
        Ok(Generated {
            code,
            names,
            certainty,
        })
    }

    fn generate_inner(&self) -> Result<(Stmt, Names), CodeGenError> {
        let run_span = omega::span!(cg_generate, stmts = self.stmts.len(), effort = self.effort);
        let (pb, known, names) = {
            let _s = omega::span!(cg_prepare);
            self.prepare()?
        };
        run_span.attr("pieces", pb.pieces.len());
        // 1. initial AST (Figure 2) + node properties (Figure 3)
        let root = {
            let _s = omega::span!(cg_init_ast);
            init::init_ast(&pb)
        };
        let all: Vec<usize> = (0..pb.pieces.len()).collect();
        let root = {
            let _s = omega::span!(cg_recompute);
            root.recompute(&pb, &all, &known, &Conjunct::universe(&pb.space))
                .ok_or(CodeGenError::EmptyDomains)?
        };
        // 2+3. loop overhead removal at the requested depth (Figure 4),
        // optional min/max bound removal (§3.2.2 extension), then lowering
        // with if-statement simplification (Figure 5/6, §3.3). Overhead
        // removal can manufacture a guard with several coupled existential
        // variables (e.g. by substituting a degenerate level's equality
        // into a stride condition) that has no closed form in the runtime
        // condition language; when lowering rejects one, degrade the
        // removal depth and retry — depth 0 adds no guards beyond the
        // scanning pipeline's own, which always lower.
        let ctx = lower::LowerCtx {
            pb: &pb,
            stmts: &self.stmts,
            merge_ifs: self.merge_ifs,
            reorder_leaves: self.reorder_leaves,
        };
        let base = root;
        let mut effort = self.effort;
        let mut minmax_effort = self.minmax_effort;
        let code = loop {
            let root = {
                let _s = omega::span!(cg_lift, effort = effort);
                lift::lift_overhead(&pb, base.clone(), effort)
            };
            let root = if minmax_effort > 0 {
                let _s = omega::span!(cg_minmax, effort = minmax_effort);
                minmax::remove_minmax(&pb, root, minmax_effort)
            } else {
                root
            };
            let lowered = {
                let _s = omega::span!(cg_lower);
                ctx.lower_root(&root, &known)
            };
            match lowered {
                Ok(code) => break code,
                Err(CodeGenError::UnloweredGuard { .. }) if effort > 0 || minmax_effort > 0 => {
                    if effort > 0 {
                        effort -= 1;
                    } else {
                        minmax_effort = 0;
                    }
                }
                Err(e) => return Err(e),
            }
        };
        Ok((code, names))
    }

    fn prepare(&self) -> Result<(Problem, Conjunct, Names), CodeGenError> {
        if self.stmts.is_empty() {
            return Err(CodeGenError::NoStatements);
        }
        let space: &Space = self.stmts[0].domain.space();
        for (i, s) in self.stmts.iter().enumerate() {
            if s.domain.space() != space {
                return Err(CodeGenError::SpaceMismatch { stmt: i });
            }
        }
        // Preprocessing: split every statement's space into disjoint
        // single-conjunct pieces, in statement order.
        let pieces: Vec<Piece> = self
            .stmts
            .iter()
            .enumerate()
            .flat_map(|(i, s)| {
                s.domain
                    .make_disjoint()
                    .into_iter()
                    .map(|c| c.simplified())
                    .filter(|c| c.is_sat())
                    .map(move |domain| Piece { stmt: i, domain })
            })
            .collect();
        if pieces.is_empty() {
            return Err(CodeGenError::EmptyDomains);
        }
        let pb = Problem::new(space.clone(), pieces, space.n_vars());
        let known = self
            .known
            .clone()
            .unwrap_or_else(|| Conjunct::universe(space));
        let names = Names {
            params: space.param_names().to_vec(),
            vars: (1..=space.n_vars()).map(|i| format!("t{i}")).collect(),
            stmts: self.stmts.iter().map(|s| s.name.clone()).collect(),
        };
        Ok((pb, known, names))
    }
}

/// Convenience: scan a single set with default options and return the
/// generated code.
///
/// # Errors
///
/// Same as [`CodeGen::generate`].
pub fn scan(domain: &Set) -> Result<Generated, CodeGenError> {
    CodeGen::new()
        .statement(Statement::new("s0", domain.clone()))
        .generate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyir::execute;

    fn gen(domains: &[&str], effort: usize) -> Generated {
        let mut cg = CodeGen::new().effort(effort);
        for (i, d) in domains.iter().enumerate() {
            cg = cg.statement(Statement::new(format!("s{i}"), Set::parse(d).unwrap()));
        }
        cg.generate().expect("generate")
    }

    /// Oracle: generated code must execute exactly the lattice points of
    /// each domain, in lexicographic order of the scanned space, with
    /// statements at identical points kept in input order.
    fn check_oracle(domains: &[&str], effort: usize, params: &[i64], lo: i64, hi: i64) {
        let g = gen(domains, effort);
        let run = execute(&g.code, params).expect("execute");
        let sets: Vec<Set> = domains.iter().map(|d| Set::parse(d).unwrap()).collect();
        let nv = sets[0].space().n_vars();
        let lovec = vec![lo; nv];
        let hivec = vec![hi; nv];
        let mut all_points: Vec<Vec<i64>> = Vec::new();
        for s in &sets {
            for p in s.enumerate(params, &lovec, &hivec) {
                if !all_points.contains(&p) {
                    all_points.push(p);
                }
            }
        }
        all_points.sort();
        let mut expected: Vec<(usize, Vec<i64>)> = Vec::new();
        for p in &all_points {
            for (k, s) in sets.iter().enumerate() {
                if s.contains(params, p) {
                    expected.push((k, p.clone()));
                }
            }
        }
        assert_eq!(
            run.trace,
            expected,
            "oracle mismatch (effort {effort}) for {domains:?}\ncode:\n{}",
            polyir::to_c(&g.code, &g.names)
        );
    }

    #[test]
    fn single_triangle() {
        for effort in 0..=2 {
            check_oracle(
                &["[n] -> { [i,j] : 0 <= i < n && 0 <= j < i }"],
                effort,
                &[6],
                -1,
                7,
            );
        }
    }

    #[test]
    fn interchanged_triangle_matches_paper_intro() {
        // After the paper's interchange mapping the scanned space is
        // {[t1,t2] : 0 <= t1 < t2 < n}.
        let g = gen(&["[n] -> { [i,j] : 0 <= i && i < j && j < n }"], 1);
        let txt = polyir::to_c(&g.code, &g.names);
        assert!(txt.contains("for (t1=0; t1<=n-2; t1++)"), "{txt}");
        assert!(txt.contains("for (t2=t1+1; t2<=n-1; t2++)"), "{txt}");
    }

    #[test]
    fn two_overlapping_statements() {
        for effort in 0..=2 {
            check_oracle(
                &[
                    "[n] -> { [i] : 0 <= i < n }",
                    "[n] -> { [i] : 2 <= i <= 8 }",
                ],
                effort,
                &[6],
                -2,
                10,
            );
        }
    }

    #[test]
    fn disjoint_statements() {
        for effort in 0..=1 {
            check_oracle(
                &["{ [i] : 0 <= i <= 4 }", "{ [i] : 10 <= i <= 14 }"],
                effort,
                &[],
                -1,
                16,
            );
        }
    }

    #[test]
    fn strided_single_statement() {
        for effort in 0..=1 {
            check_oracle(
                &["{ [i] : 1 <= i <= 20 && exists(a : i = 4a + 1) }"],
                effort,
                &[],
                0,
                21,
            );
        }
    }

    #[test]
    fn figure8d_even_odd_mod4() {
        for effort in 0..=2 {
            check_oracle(
                &[
                    "[n] -> { [i] : 1 <= i <= n && exists(a : i = 4a) }",
                    "[n] -> { [i] : 1 <= i <= n && exists(a : i = 4a + 2) }",
                ],
                effort,
                &[17],
                0,
                18,
            );
        }
    }

    #[test]
    fn figure8a_strided_2d() {
        check_oracle(
            &["[n] -> { [i,j] : 1 <= i && i <= n && i <= j && j <= n && exists(a, b : i = 1 + 4a && j = i + 3b) }"],
            1,
            &[14],
            0,
            15,
        );
    }

    #[test]
    fn union_domain_statement() {
        for effort in 0..=1 {
            check_oracle(
                &["{ [i] : 0 <= i <= 3 || 7 <= i <= 9 }"],
                effort,
                &[],
                -1,
                11,
            );
        }
    }

    #[test]
    fn empty_domain_errors() {
        let r = CodeGen::new()
            .statement(Statement::new(
                "s0",
                Set::parse("{ [i] : i >= 1 && i <= 0 }").unwrap(),
            ))
            .generate();
        assert_eq!(r.unwrap_err(), CodeGenError::EmptyDomains);
        assert_eq!(
            CodeGen::new().generate().unwrap_err(),
            CodeGenError::NoStatements
        );
    }

    #[test]
    fn figure7_shapes_by_effort() {
        // Paper Figure 7: three statements; guard (n >= 2) moves outward as
        // the effort rises.
        let domains = [
            "[n] -> { [i,j] : 1 <= i <= 6 && j = 0 && n >= 2 }",
            "[n] -> { [i,j] : 1 <= i <= 6 && 1 <= j <= 6 && n >= 2 }",
            "[n] -> { [i,j] : 1 <= i <= 6 && 1 <= j <= 6 }",
        ];
        for effort in 0..=2 {
            check_oracle(&domains, effort, &[2], -1, 8);
            check_oracle(&domains, effort, &[1], -1, 8);
        }
        // Structural expectations: ifs inside loops drop as effort rises.
        let g0 = gen(&domains, 0);
        let m0 = polyir::CodeMetrics::of(&g0.code, &g0.names);
        let g2 = gen(&domains, 2);
        let m2 = polyir::CodeMetrics::of(&g2.code, &g2.names);
        assert!(m0.ifs_inside_loops > 0, "depth 0 keeps guards inside");
        assert_eq!(
            m2.ifs_inside_loops,
            0,
            "depth 2 lifts all guards out:\n{}",
            polyir::to_c(&g2.code, &g2.names)
        );
        assert!(m2.lines >= m0.lines, "lifting duplicates code");
    }

    #[test]
    fn known_context_suppresses_guard() {
        let known = Set::parse("[n] -> { [i] : n >= 2 }").unwrap().conjuncts()[0].clone();
        let g = CodeGen::new()
            .statement(Statement::new(
                "s0",
                Set::parse("[n] -> { [i] : 1 <= i <= 10 && n >= 2 }").unwrap(),
            ))
            .known(known)
            .generate()
            .unwrap();
        assert_eq!(g.code.count_ifs(), 0, "{}", polyir::to_c(&g.code, &g.names));
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use polyir::execute;

    /// min/max removal: two overlapping statements force `min`/`max` in the
    /// shared loop's bounds; with `minmax_effort(1)` the loop splits into
    /// single-bound ranges.
    #[test]
    fn minmax_effort_removes_minmax_bounds() {
        let domains = [
            "[n] -> { [i] : 0 <= i < n }",
            "[n] -> { [i] : 2 <= i <= 8 }",
        ];
        let stmts: Vec<Statement> = domains
            .iter()
            .enumerate()
            .map(|(i, d)| Statement::new(format!("s{i}"), Set::parse(d).unwrap()))
            .collect();
        let plain = CodeGen::new()
            .statements(stmts.clone())
            .effort(0)
            .generate()
            .unwrap();
        let split = CodeGen::new()
            .statements(stmts)
            .effort(0)
            .minmax_effort(1)
            .generate()
            .unwrap();
        let plain_txt = polyir::to_c(&plain.code, &plain.names);
        let split_txt = polyir::to_c(&split.code, &split.names);
        assert!(
            plain_txt.contains("max(") || plain_txt.contains("min("),
            "baseline shape should need min/max:\n{plain_txt}"
        );
        assert!(
            !split_txt.contains("max(") && !split_txt.contains("min("),
            "minmax_effort must remove them:\n{split_txt}"
        );
        // Identical semantics for several parameter values.
        for n in [0i64, 3, 6, 12] {
            assert_eq!(
                execute(&plain.code, &[n]).unwrap().trace,
                execute(&split.code, &[n]).unwrap().trace,
                "n={n}"
            );
        }
    }

    /// Out-of-order leaf merging groups statements with equal guards so a
    /// single if covers them.
    #[test]
    fn reorder_leaves_groups_equal_guards() {
        // s0 and s2 share a guard; s1 sits between them.
        let domains = [
            "[n] -> { [i] : 0 <= i <= 9 && n >= 5 }",
            "[n] -> { [i] : 0 <= i <= 9 }",
            "[n] -> { [i] : 0 <= i <= 9 && n >= 5 }",
        ];
        let stmts: Vec<Statement> = domains
            .iter()
            .enumerate()
            .map(|(i, d)| Statement::new(format!("s{i}"), Set::parse(d).unwrap()))
            .collect();
        let inorder = CodeGen::new()
            .statements(stmts.clone())
            .effort(0)
            .generate()
            .unwrap();
        let reordered = CodeGen::new()
            .statements(stmts)
            .effort(0)
            .reorder_leaves(true)
            .generate()
            .unwrap();
        assert!(
            reordered.code.count_ifs() <= inorder.code.count_ifs(),
            "reordering must not add ifs: {} vs {}\n{}",
            reordered.code.count_ifs(),
            inorder.code.count_ifs(),
            polyir::to_c(&reordered.code, &reordered.names)
        );
        // The multiset of executed instances is unchanged (order within a
        // point may differ — that is the point of out-of-order merging).
        let mut a = execute(&inorder.code, &[7]).unwrap().trace;
        let mut b = execute(&reordered.code, &[7]).unwrap().trace;
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    /// The combination of every knob still satisfies the oracle.
    #[test]
    fn all_knobs_combined_still_correct() {
        let domains = [
            "[n] -> { [i,j] : 0 <= i < n && 0 <= j < i }",
            "[n] -> { [i,j] : 2 <= i <= 8 && j = 0 }",
        ];
        let stmts: Vec<Statement> = domains
            .iter()
            .enumerate()
            .map(|(i, d)| Statement::new(format!("s{i}"), Set::parse(d).unwrap()))
            .collect();
        let g = CodeGen::new()
            .statements(stmts)
            .effort(2)
            .minmax_effort(2)
            .reorder_leaves(true)
            .generate()
            .unwrap();
        let run = execute(&g.code, &[6]).unwrap();
        let sets: Vec<Set> = domains.iter().map(|d| Set::parse(d).unwrap()).collect();
        let mut expected = 0usize;
        for i in -1..10 {
            for j in -1..10 {
                for s in &sets {
                    if s.contains(&[6], &[i, j]) {
                        expected += 1;
                    }
                }
            }
        }
        assert_eq!(run.trace.len(), expected);
    }
}

#[cfg(test)]
mod generated_api_tests {
    use super::*;

    #[test]
    fn generated_convenience_methods() {
        let g = scan(&Set::parse("{ [i] : 0 <= i <= 4 }").unwrap()).unwrap();
        assert!(g.to_c().contains("for"));
        assert_eq!(g.metrics().loops, 1);
        assert_eq!(g.execute(&[]).unwrap().trace.len(), 5);
    }
}
