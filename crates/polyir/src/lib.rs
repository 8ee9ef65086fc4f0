//! # polyir — generated-code IR, interpreter, and metrics
//!
//! The output language shared by the `codegenplus` scanner and the
//! `cloog` baseline: C-like loop nests with affine bounds, `min`/`max`/
//! `floord`/`ceild` operators, guard conditions, and statement-instance
//! calls.
//!
//! Three consumers:
//!
//! * [`mod@print`] renders the C text the paper counts lines of;
//! * [`execute`] runs programs, recording the exact statement trace (the
//!   correctness oracle) and dynamic-cost counters (the performance model);
//! * [`passes::compile`] is a small optimizing pass pipeline whose wall
//!   clock stands in for the downstream gcc compile times of Table 1.
//!
//! # Examples
//!
//! ```
//! use polyir::{Expr, Stmt, execute};
//! // for (t1=0; t1<=3; t1++) s0(t1);
//! let prog = Stmt::Loop {
//!     var: 0,
//!     lower: Expr::Const(0),
//!     upper: Expr::Const(3),
//!     step: 1,
//!     body: Box::new(Stmt::Call { stmt: 0, args: vec![Expr::Var(0)] }),
//! };
//! let run = execute(&prog, &[])?;
//! assert_eq!(run.trace.len(), 4);
//! # Ok::<(), polyir::ExecError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod diff;
mod expr;
mod interp;
pub mod metrics;
pub mod passes;
pub mod print;
mod stmt;

pub use expr::{Cond, CondAtom, Expr};
pub use interp::{
    execute, execute_with, CostModel, Counters, ExecConfig, ExecError, Execution, TraceEntry,
};
pub use metrics::CodeMetrics;
pub use print::{lines_of_code, lines_of_text, to_c, Names};
pub use stmt::Stmt;
