//! Expression AST for event predicates.
//!
//! Expressions appear inside event patterns, e.g. the paper's
//! `abs(rHand_x - torso_x - 0) < 50 and ...` (Fig. 1). The AST is
//! printable back to query text ([`std::fmt::Display`]) so the learner can
//! emit queries and the parser can be round-trip tested.

use std::fmt;

use gesto_stream::Value;
use serde::{Deserialize, Serialize};

/// Binary operators in precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinOp {
    /// Addition `+`.
    Add,
    /// Subtraction `-`.
    Sub,
    /// Multiplication `*`.
    Mul,
    /// Division `/`.
    Div,
    /// Less-than `<`.
    Lt,
    /// Less-or-equal `<=`.
    Le,
    /// Greater-than `>`.
    Gt,
    /// Greater-or-equal `>=`.
    Ge,
    /// Equality `=`.
    Eq,
    /// Inequality `!=`.
    Ne,
    /// Logical conjunction `and`.
    And,
    /// Logical disjunction `or`.
    Or,
}

impl BinOp {
    /// Operator precedence (higher binds tighter).
    pub fn precedence(&self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => 3,
            BinOp::Add | BinOp::Sub => 4,
            BinOp::Mul | BinOp::Div => 5,
        }
    }

    /// Query-text spelling.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::And => "and",
            BinOp::Or => "or",
        }
    }

    /// True for comparison operators.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnaryOp {
    /// Arithmetic negation `-`.
    Neg,
    /// Logical negation `not`.
    Not,
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Field reference (`rHand_x`).
    Column(String),
    /// Constant.
    Literal(Value),
    /// Unary application.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary application.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Scalar function call (`abs(x)`, `dist(...)`).
    Call {
        /// Function name (lower-cased).
        func: String,
        /// Arguments.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Literal value.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// `abs(e)`.
    pub fn abs(e: Expr) -> Expr {
        Expr::Call {
            func: "abs".into(),
            args: vec![e],
        }
    }

    /// Binary helper.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `lhs and rhs`.
    pub fn and(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::And, lhs, rhs)
    }

    /// Conjunction of all expressions (`true` literal when empty).
    pub fn and_all(exprs: impl IntoIterator<Item = Expr>) -> Expr {
        let mut it = exprs.into_iter();
        match it.next() {
            None => Expr::lit(true),
            Some(first) => it.fold(first, Expr::and),
        }
    }

    /// `lhs < rhs`.
    pub fn lt(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Lt, lhs, rhs)
    }

    /// All column names referenced by this expression.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Column(c) => {
                if !out.contains(&c.as_str()) {
                    out.push(c);
                }
            }
            Expr::Literal(_) => {}
            Expr::Unary { expr, .. } => expr.collect_columns(out),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_columns(out);
                rhs.collect_columns(out);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.collect_columns(out);
                }
            }
        }
    }

    /// Number of nodes in the tree (complexity measure used by the
    /// optimiser's cost reports).
    pub fn size(&self) -> usize {
        match self {
            Expr::Column(_) | Expr::Literal(_) => 1,
            Expr::Unary { expr, .. } => 1 + expr.size(),
            Expr::Binary { lhs, rhs, .. } => 1 + lhs.size() + rhs.size(),
            Expr::Call { args, .. } => 1 + args.iter().map(Expr::size).sum::<usize>(),
        }
    }

    /// True when the printed text starts with `-`: a unary minus or a
    /// negative number (binary operands of a unary are parenthesised).
    fn prints_minus_first(&self) -> bool {
        match self {
            Expr::Unary { op, .. } => *op == UnaryOp::Neg,
            Expr::Literal(Value::Float(x)) => *x < 0.0,
            Expr::Literal(Value::Int(i)) => *i < 0,
            _ => false,
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, parent_prec: u8) -> fmt::Result {
        match self {
            Expr::Column(c) => f.write_str(c),
            Expr::Literal(v) => match v {
                Value::Str(s) => write_quoted(f, s),
                Value::Float(x) => {
                    // Integral floats print without a trailing ".0" to match
                    // the paper's query style (`< 50`).
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        write!(f, "{}", *x as i64)
                    } else {
                        write!(f, "{x}")
                    }
                }
                other => write!(f, "{other}"),
            },
            Expr::Unary { op, expr } => {
                f.write_str(match op {
                    UnaryOp::Not => "not ",
                    // `--` would start a comment.
                    UnaryOp::Neg if expr.prints_minus_first() => "- ",
                    UnaryOp::Neg => "-",
                })?;
                expr.fmt_prec(f, 6)
            }
            Expr::Binary { op, lhs, rhs } => {
                let prec = op.precedence();
                let need_parens = prec < parent_prec;
                if need_parens {
                    f.write_str("(")?;
                }
                // The parser is left-associative, so a right operand of the
                // same precedence must be parenthesised to preserve the
                // tree structure on re-parse; comparisons are
                // non-associative, so their left side needs parens too.
                let lhs_prec = if op.is_comparison() { prec + 1 } else { prec };
                lhs.fmt_prec(f, lhs_prec)?;
                write!(f, " {} ", op.symbol())?;
                rhs.fmt_prec(f, prec + 1)?;
                if need_parens {
                    f.write_str(")")?;
                }
                Ok(())
            }
            Expr::Call { func, args } => {
                write!(f, "{func}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    a.fmt_prec(f, 0)?;
                }
                f.write_str(")")
            }
        }
    }
}

/// Writes `s` as a query-text string literal: in double quotes, with
/// `"` and `\` escaped by a backslash.
pub(crate) fn write_quoted(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    let escaped = s.replace('\\', r"\\").replace('"', r#"\""#);
    write!(f, "\"{escaped}\"")
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_ordering() {
        assert!(BinOp::Mul.precedence() > BinOp::Add.precedence());
        assert!(BinOp::Add.precedence() > BinOp::Lt.precedence());
        assert!(BinOp::Lt.precedence() > BinOp::And.precedence());
        assert!(BinOp::And.precedence() > BinOp::Or.precedence());
    }

    #[test]
    fn display_paper_predicate() {
        // abs(rHand_x - torso_x - 0) < 50
        let e = Expr::lt(
            Expr::abs(Expr::bin(
                BinOp::Sub,
                Expr::bin(BinOp::Sub, Expr::col("rHand_x"), Expr::col("torso_x")),
                Expr::lit(0.0),
            )),
            Expr::lit(50.0),
        );
        assert_eq!(e.to_string(), "abs(rHand_x - torso_x - 0) < 50");
    }

    #[test]
    fn display_parenthesises_lower_precedence() {
        let e = Expr::bin(
            BinOp::Mul,
            Expr::bin(BinOp::Add, Expr::col("a"), Expr::col("b")),
            Expr::col("c"),
        );
        assert_eq!(e.to_string(), "(a + b) * c");
    }

    #[test]
    fn display_logical() {
        let e = Expr::and(
            Expr::lt(Expr::col("x"), Expr::lit(1.0)),
            Expr::bin(
                BinOp::Or,
                Expr::lit(true),
                Expr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(Expr::col("b")),
                },
            ),
        );
        assert_eq!(e.to_string(), "x < 1 and (true or not b)");
    }

    #[test]
    fn and_all_folds() {
        let e = Expr::and_all(vec![
            Expr::lt(Expr::col("a"), Expr::lit(1.0)),
            Expr::lt(Expr::col("b"), Expr::lit(2.0)),
            Expr::lt(Expr::col("c"), Expr::lit(3.0)),
        ]);
        assert_eq!(e.to_string(), "a < 1 and b < 2 and c < 3");
        assert_eq!(Expr::and_all(vec![]), Expr::lit(true));
    }

    #[test]
    fn columns_deduplicated_in_order() {
        let e = Expr::and(
            Expr::lt(Expr::col("x"), Expr::col("y")),
            Expr::lt(Expr::col("x"), Expr::lit(1.0)),
        );
        assert_eq!(e.columns(), vec!["x", "y"]);
    }

    #[test]
    fn size_counts_nodes() {
        let e = Expr::lt(Expr::col("x"), Expr::lit(1.0));
        assert_eq!(e.size(), 3);
    }

    #[test]
    fn subtraction_right_assoc_parens() {
        let e = Expr::bin(
            BinOp::Sub,
            Expr::col("a"),
            Expr::bin(BinOp::Sub, Expr::col("b"), Expr::col("c")),
        );
        assert_eq!(e.to_string(), "a - (b - c)");
    }

    #[test]
    fn minus_before_a_minus_is_spaced() {
        let neg = |e| Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(e),
        };
        assert_eq!(neg(neg(Expr::col("x"))).to_string(), "- -x");
        assert_eq!(neg(Expr::lit(-5.0)).to_string(), "- -5");
        assert_eq!(Expr::lit("a\"b\\c").to_string(), r#""a\"b\\c""#);
    }
}
