//! Expressions: AST, scalar functions, compilation and evaluation.

mod ast;
mod block;
mod eval;
mod functions;

pub(crate) use ast::write_quoted;
pub use ast::{BinOp, Expr, UnaryOp};
pub use block::{BlockMasks, EvalScratch};
pub use eval::{compile, CompiledExpr, FusedInput};
pub use functions::{Arity, FunctionRegistry, ScalarFn};
