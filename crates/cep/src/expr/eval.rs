//! Expression compilation and evaluation.
//!
//! Expressions are compiled once against a schema (column names →
//! indices, function names → callables) and then evaluated per tuple with
//! no name lookups on the hot path. Logic is three-valued: comparisons and
//! predicates over `Null` yield `Null`, and a pattern step only fires when
//! its predicate evaluates to *true* (unknown ≠ true).
//!
//! After structural compilation an optimiser pass fuses the hot shapes —
//! window bands `abs(x ± c) < w`, plain comparisons `x op c`, `dist()`
//! over float columns, and `and`/`or` chains — into flat variants that
//! evaluate as a handful of slot reads, with the original tree kept as a
//! bit-equivalent fallback for non-`Float` inputs.

use std::sync::Arc;

use gesto_stream::{SchemaRef, Tuple, Value};

use crate::error::CepError;
use crate::expr::ast::{BinOp, Expr, UnaryOp};
use crate::expr::functions::{FunctionRegistry, ScalarFn};

/// An expression compiled against a fixed schema.
pub enum CompiledExpr {
    /// Column by index.
    Column(usize),
    /// Constant.
    Literal(Value),
    /// Unary application.
    Unary(UnaryOp, Box<CompiledExpr>),
    /// Binary application.
    Binary(BinOp, Box<CompiledExpr>, Box<CompiledExpr>),
    /// Bound function call.
    Call(Arc<str>, ScalarFn, Vec<CompiledExpr>),
    /// Fused window check `abs(input ± center) < width` — the shape of
    /// every learned pose predicate. Evaluated as a few slot reads and
    /// float ops when the inputs are `Float`s; `Null` propagates, and
    /// any other value delegates to the bit-equivalent `fallback` tree
    /// (the unfused original).
    Band {
        /// The quantity being windowed.
        input: FusedInput,
        /// True when the centre offset is added (`+ |c|` for negative
        /// centres, matching the paper's print style).
        add: bool,
        /// Centre offset literal.
        center: f64,
        /// Window half-width literal.
        width: f64,
        /// The original tree, for exact semantics on non-`Float` input.
        fallback: Box<CompiledExpr>,
    },
    /// Fused plain comparison `input op rhs` (e.g. `rHand_y > 100`,
    /// `rHand_x - torso_x < -50`, `dist(...) < 80`). Same contract as
    /// [`Self::Band`]: float fast path, `Null` propagates, anything else
    /// delegates to the bit-equivalent `fallback` tree.
    Cmp {
        /// The compared quantity.
        input: FusedInput,
        /// The comparison operator (a comparison, never logical).
        op: BinOp,
        /// Right-hand literal.
        rhs: f64,
        /// The original tree, for exact semantics on non-`Float` input.
        fallback: Box<CompiledExpr>,
    },
    /// Flattened left-to-right Kleene conjunction (`a and b and …`):
    /// false short-circuits, `Null` is sticky-unknown.
    AndAll(Vec<CompiledExpr>),
    /// Flattened left-to-right Kleene disjunction (`a or b or …`):
    /// true short-circuits, `Null` is sticky-unknown.
    OrAll(Vec<CompiledExpr>),
}

/// The fused float quantity of a [`CompiledExpr::Band`] or
/// [`CompiledExpr::Cmp`].
pub enum FusedInput {
    /// A single column.
    Col(usize),
    /// Difference of two columns (raw torso-relative style).
    Diff(usize, usize),
    /// Built-in `dist(x1,y1,z1, x2,y2,z2)` over six columns of the joint
    /// block (Euclidean distance between two 3-D points).
    Dist([usize; 6]),
}

/// Outcome of reading a [`FusedInput`] from a tuple.
enum FusedVal {
    /// All involved slots were `Float`s.
    Float(f64),
    /// `Null` propagates (exactly where the original tree would yield
    /// `Null`).
    Null,
    /// Some slot held another value kind: delegate to the fallback tree.
    Other,
}

impl FusedInput {
    /// Appends the column indices this fused quantity reads (the float
    /// lanes a block kernel will touch).
    pub(crate) fn push_columns(&self, out: &mut Vec<usize>) {
        match self {
            FusedInput::Col(i) => out.push(*i),
            FusedInput::Diff(a, b) => out.extend([*a, *b]),
            FusedInput::Dist(cols) => out.extend(cols.iter().copied()),
        }
    }

    /// Reads the fused quantity from a tuple's value slots, mirroring
    /// the original tree's `Null` ordering exactly (see the per-variant
    /// comments); any non-`Float`, non-`Null` value defers to the
    /// caller's fallback, which replays the exact tree semantics.
    #[inline]
    fn read(&self, vals: &[Value]) -> FusedVal {
        match self {
            FusedInput::Col(i) => match &vals[*i] {
                Value::Float(x) => FusedVal::Float(*x),
                Value::Null => FusedVal::Null,
                _ => FusedVal::Other,
            },
            // Binary arithmetic checks Null on either side before the
            // numeric check, so (Str, Null) is Null, not an error.
            FusedInput::Diff(a, b) => match (&vals[*a], &vals[*b]) {
                (Value::Float(x), Value::Float(y)) => FusedVal::Float(x - y),
                (Value::Null, _) | (_, Value::Null) => FusedVal::Null,
                _ => FusedVal::Other,
            },
            // `numeric_fn` scans arguments left to right: the first Null
            // yields Null, but only if everything before it was numeric
            // (a preceding non-Float defers to the fallback, which then
            // errors or coerces exactly like the tree).
            FusedInput::Dist(cols) => {
                let mut a = [0.0f64; 6];
                for (slot, c) in a.iter_mut().zip(cols) {
                    match &vals[*c] {
                        Value::Float(x) => *slot = *x,
                        Value::Null => return FusedVal::Null,
                        _ => return FusedVal::Other,
                    }
                }
                let dx = a[0] - a[3];
                let dy = a[1] - a[4];
                let dz = a[2] - a[5];
                FusedVal::Float((dx * dx + dy * dy + dz * dz).sqrt())
            }
        }
    }
}

impl std::fmt::Debug for FusedInput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FusedInput::Col(i) => write!(f, "col{i}"),
            FusedInput::Diff(a, b) => write!(f, "col{a} - col{b}"),
            FusedInput::Dist(c) => write!(
                f,
                "dist(col{},col{},col{},col{},col{},col{})",
                c[0], c[1], c[2], c[3], c[4], c[5]
            ),
        }
    }
}

impl std::fmt::Debug for CompiledExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompiledExpr::Column(i) => write!(f, "Column({i})"),
            CompiledExpr::Literal(v) => write!(f, "Literal({v})"),
            CompiledExpr::Unary(op, e) => write!(f, "Unary({op:?}, {e:?})"),
            CompiledExpr::Binary(op, l, r) => write!(f, "Binary({op:?}, {l:?}, {r:?})"),
            CompiledExpr::Call(name, _, args) => write!(f, "Call({name}, {args:?})"),
            CompiledExpr::Band {
                input,
                add,
                center,
                width,
                ..
            } => {
                let sign = if *add { '+' } else { '-' };
                write!(f, "Band(abs({input:?} {sign} {center}) < {width})")
            }
            CompiledExpr::Cmp { input, op, rhs, .. } => {
                write!(f, "Cmp({input:?} {op:?} {rhs})")
            }
            CompiledExpr::AndAll(terms) => write!(f, "AndAll({terms:?})"),
            CompiledExpr::OrAll(terms) => write!(f, "OrAll({terms:?})"),
        }
    }
}

/// Compiles `expr` against `schema`, resolving functions in `funcs`,
/// then fuses the hot shapes (window bands, plain comparisons, `dist`
/// distances, conjunction/disjunction chains) so the per-tuple
/// evaluation of learned gesture predicates is a handful of slot reads
/// instead of a tree walk.
pub fn compile(
    expr: &Expr,
    schema: &SchemaRef,
    funcs: &FunctionRegistry,
) -> Result<CompiledExpr, CepError> {
    Ok(optimize(compile_tree(expr, schema, funcs)?))
}

/// The plain structural compilation (no fusion).
fn compile_tree(
    expr: &Expr,
    schema: &SchemaRef,
    funcs: &FunctionRegistry,
) -> Result<CompiledExpr, CepError> {
    match expr {
        Expr::Column(name) => {
            let idx = schema.index_of(name).ok_or_else(|| {
                CepError::Compile(format!(
                    "unknown column '{name}' in stream '{}'",
                    schema.name
                ))
            })?;
            Ok(CompiledExpr::Column(idx))
        }
        Expr::Literal(v) => Ok(CompiledExpr::Literal(v.clone())),
        Expr::Unary { op, expr } => Ok(CompiledExpr::Unary(
            *op,
            Box::new(compile_tree(expr, schema, funcs)?),
        )),
        Expr::Binary { op, lhs, rhs } => Ok(CompiledExpr::Binary(
            *op,
            Box::new(compile_tree(lhs, schema, funcs)?),
            Box::new(compile_tree(rhs, schema, funcs)?),
        )),
        Expr::Call { func, args } => {
            let f = funcs.resolve(func, args.len())?;
            let compiled = args
                .iter()
                .map(|a| compile_tree(a, schema, funcs))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(CompiledExpr::Call(Arc::from(func.as_str()), f, compiled))
        }
    }
}

/// Rewrites a compiled tree into its fused form. Pure strength
/// reduction: every rewrite preserves evaluation order, three-valued
/// logic, and error behaviour exactly (fused nodes keep the original
/// tree as their fallback for non-`Float` values).
fn optimize(expr: CompiledExpr) -> CompiledExpr {
    match expr {
        CompiledExpr::Binary(op @ (BinOp::And | BinOp::Or), l, r) => {
            let mut terms = Vec::new();
            flatten(op, *l, &mut terms);
            flatten(op, *r, &mut terms);
            if op == BinOp::And {
                CompiledExpr::AndAll(terms)
            } else {
                CompiledExpr::OrAll(terms)
            }
        }
        CompiledExpr::Binary(op, l, r) if op.is_comparison() => fuse_comparison(op, *l, *r),
        CompiledExpr::Binary(op, l, r) => {
            CompiledExpr::Binary(op, Box::new(optimize(*l)), Box::new(optimize(*r)))
        }
        CompiledExpr::Unary(op, e) => CompiledExpr::Unary(op, Box::new(optimize(*e))),
        CompiledExpr::Call(name, f, args) => {
            CompiledExpr::Call(name, f, args.into_iter().map(optimize).collect())
        }
        leaf => leaf,
    }
}

/// Flattens a (left-associative) `op` chain — `and` or `or` — into its
/// terms.
fn flatten(op: BinOp, expr: CompiledExpr, out: &mut Vec<CompiledExpr>) {
    match expr {
        CompiledExpr::Binary(o, l, r) if o == op => {
            flatten(op, *l, out);
            flatten(op, *r, out);
        }
        other => out.push(optimize(other)),
    }
}

/// True when the compiled call really is the process-wide built-in `f`
/// (a user-overridden registration yields a different `Arc` and is never
/// fused).
fn is_builtin(f: &ScalarFn, builtin: &'static ScalarFn) -> bool {
    Arc::ptr_eq(f, builtin)
}

/// Fuses a slot-readable float quantity: a column, a column difference,
/// or a built-in `dist` over six columns.
fn fuse_input(e: &CompiledExpr) -> Option<FusedInput> {
    match e {
        CompiledExpr::Column(i) => Some(FusedInput::Col(*i)),
        CompiledExpr::Binary(BinOp::Sub, a, b) => match (&**a, &**b) {
            (CompiledExpr::Column(a), CompiledExpr::Column(b)) => Some(FusedInput::Diff(*a, *b)),
            _ => None,
        },
        CompiledExpr::Call(_, f, args)
            if is_builtin(f, crate::expr::functions::builtin_dist()) && args.len() == 6 =>
        {
            let mut cols = [0usize; 6];
            for (slot, a) in cols.iter_mut().zip(args) {
                match a {
                    CompiledExpr::Column(i) => *slot = *i,
                    _ => return None,
                }
            }
            Some(FusedInput::Dist(cols))
        }
        _ => None,
    }
}

/// Fuses a comparison: the band shape `abs(input ± c) < w` (for `<`),
/// else the plain shape `input op float-literal`; anything else
/// recompiles as a plain `Binary`.
fn fuse_comparison(op: BinOp, lhs: CompiledExpr, rhs: CompiledExpr) -> CompiledExpr {
    let plain = |op: BinOp, l: CompiledExpr, r: CompiledExpr| {
        CompiledExpr::Binary(op, Box::new(optimize(l)), Box::new(optimize(r)))
    };
    let rhs_lit = match &rhs {
        CompiledExpr::Literal(Value::Float(w)) => Some(*w),
        _ => None,
    };
    let Some(rhs_lit) = rhs_lit else {
        return plain(op, lhs, rhs);
    };

    // Band: `abs(input ± c) < w` with the *built-in* abs.
    if op == BinOp::Lt {
        if let CompiledExpr::Call(_, f, args) = &lhs {
            if is_builtin(f, crate::expr::functions::builtin_abs()) && args.len() == 1 {
                if let CompiledExpr::Binary(inner_op @ (BinOp::Sub | BinOp::Add), inner, c) =
                    &args[0]
                {
                    if let (Some(input), CompiledExpr::Literal(Value::Float(center))) =
                        (fuse_input(inner), &**c)
                    {
                        let (add, center) = (*inner_op == BinOp::Add, *center);
                        return CompiledExpr::Band {
                            input,
                            add,
                            center,
                            width: rhs_lit,
                            fallback: Box::new(CompiledExpr::Binary(
                                op,
                                Box::new(lhs),
                                Box::new(rhs),
                            )),
                        };
                    }
                }
            }
        }
    }

    // Plain comparison: `input op c`.
    match fuse_input(&lhs) {
        Some(input) => CompiledExpr::Cmp {
            input,
            op,
            rhs: rhs_lit,
            fallback: Box::new(CompiledExpr::Binary(op, Box::new(lhs), Box::new(rhs))),
        },
        None => plain(op, lhs, rhs),
    }
}

impl CompiledExpr {
    /// Appends the column indices the *block kernels* would read for
    /// this expression — exactly the fused inputs of `Band`/`Cmp` nodes
    /// (recursively through `AndAll`/`OrAll`). Lanes outside this set
    /// are never touched by [`Self::eval_block`], so a block that only
    /// materialises these columns serves the kernels fully.
    pub fn collect_block_columns(&self, out: &mut Vec<usize>) {
        match self {
            CompiledExpr::Band { input, .. } | CompiledExpr::Cmp { input, .. } => {
                input.push_columns(out)
            }
            CompiledExpr::AndAll(terms) | CompiledExpr::OrAll(terms) => {
                for t in terms {
                    t.collect_block_columns(out);
                }
            }
            _ => {}
        }
    }

    /// Evaluates against a tuple.
    pub fn eval(&self, tuple: &Tuple) -> Result<Value, CepError> {
        match self {
            CompiledExpr::Column(i) => Ok(tuple.values()[*i].clone()),
            CompiledExpr::Literal(v) => Ok(v.clone()),
            CompiledExpr::Unary(op, e) => {
                let v = e.eval(tuple)?;
                eval_unary(*op, v)
            }
            CompiledExpr::Binary(op @ (BinOp::And | BinOp::Or), l, r) => {
                kleene(*op, [&**l, &**r], tuple)
            }
            CompiledExpr::Binary(op, l, r) => {
                let a = l.eval(tuple)?;
                let b = r.eval(tuple)?;
                eval_binary(*op, a, b)
            }
            CompiledExpr::Call(_name, f, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(tuple)?);
                }
                f(&vals)
            }
            CompiledExpr::Band {
                input,
                add,
                center,
                width,
                fallback,
            } => {
                let x = match input.read(tuple.values()) {
                    FusedVal::Float(x) => x,
                    FusedVal::Null => return Ok(Value::Null),
                    FusedVal::Other => return fallback.eval(tuple),
                };
                let r = if *add { x + center } else { x - center }.abs();
                // Same comparison kernel as the tree (incl. the NaN
                // error path).
                eval_comparison(BinOp::Lt, Value::Float(r), Value::Float(*width))
            }
            CompiledExpr::Cmp {
                input,
                op,
                rhs,
                fallback,
            } => match input.read(tuple.values()) {
                FusedVal::Float(x) => eval_comparison(*op, Value::Float(x), Value::Float(*rhs)),
                FusedVal::Null => Ok(Value::Null),
                FusedVal::Other => fallback.eval(tuple),
            },
            CompiledExpr::AndAll(terms) => kleene(BinOp::And, terms, tuple),
            CompiledExpr::OrAll(terms) => kleene(BinOp::Or, terms, tuple),
        }
    }

    /// Evaluates as a predicate: `true` only when the result is boolean
    /// true; `Null`/unknown is `false`.
    pub fn eval_bool(&self, tuple: &Tuple) -> Result<bool, CepError> {
        Ok(matches!(self.eval(tuple)?, Value::Bool(true)))
    }
}

fn eval_unary(op: UnaryOp, v: Value) -> Result<Value, CepError> {
    match op {
        UnaryOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(CepError::Eval(format!("cannot negate {other}"))),
        },
        UnaryOp::Not => match v {
            Value::Null => Ok(Value::Null),
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(CepError::Eval(format!("cannot apply 'not' to {other}"))),
        },
    }
}

/// Kleene `and`/`or` over `terms`, left to right: the deciding value
/// (`false` for `and`, `true` for `or`) returns at once and later terms
/// are not evaluated, a `Null` is remembered, and any other value is an
/// error.
///
/// Inlined so each `AndAll` / `OrAll` arm gets its own copy with `op`
/// known: out of line, the scalar folds of the `and_all` and `or_all`
/// shapes of the `kernel_speed` test ran 5–11 % slower per row, as
/// measured when the fold was introduced.
#[inline(always)]
fn kleene<'a>(
    op: BinOp,
    terms: impl IntoIterator<Item = &'a CompiledExpr>,
    tuple: &Tuple,
) -> Result<Value, CepError> {
    let decides = op == BinOp::Or;
    let mut saw_null = false;
    for t in terms {
        match t.eval(tuple)? {
            Value::Bool(b) if b == decides => return Ok(Value::Bool(b)),
            Value::Bool(_) => {}
            Value::Null => saw_null = true,
            other => {
                return Err(CepError::Eval(format!(
                    "non-boolean operand {other} for {op:?}"
                )))
            }
        }
    }
    Ok(if saw_null {
        Value::Null
    } else {
        Value::Bool(!decides)
    })
}

fn eval_binary(op: BinOp, a: Value, b: Value) -> Result<Value, CepError> {
    if op.is_comparison() {
        return eval_comparison(op, a, b);
    }
    // Arithmetic. Null propagates.
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    match (&a, &b) {
        (Value::Int(x), Value::Int(y)) => {
            let v = match op {
                BinOp::Add => Value::Int(x + y),
                BinOp::Sub => Value::Int(x - y),
                BinOp::Mul => Value::Int(x * y),
                BinOp::Div => {
                    if *y == 0 {
                        return Err(CepError::Eval("integer division by zero".into()));
                    }
                    Value::Float(*x as f64 / *y as f64)
                }
                _ => unreachable!(),
            };
            Ok(v)
        }
        _ => {
            let x = a
                .as_f64()
                .ok_or_else(|| CepError::Eval(format!("non-numeric operand {a}")))?;
            let y = b
                .as_f64()
                .ok_or_else(|| CepError::Eval(format!("non-numeric operand {b}")))?;
            let v = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                _ => unreachable!(),
            };
            Ok(Value::Float(v))
        }
    }
}

fn eval_comparison(op: BinOp, a: Value, b: Value) -> Result<Value, CepError> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    use std::cmp::Ordering;
    let ord = a.partial_cmp_value(&b);
    let out = match op {
        BinOp::Eq => a.eq_value(&b),
        BinOp::Ne => a.eq_value(&b).map(|e| !e),
        BinOp::Lt => ord.map(|o| o == Ordering::Less),
        BinOp::Le => ord.map(|o| o != Ordering::Greater),
        BinOp::Gt => ord.map(|o| o == Ordering::Greater),
        BinOp::Ge => ord.map(|o| o != Ordering::Less),
        _ => unreachable!(),
    };
    match out {
        Some(b) => Ok(Value::Bool(b)),
        None => Err(CepError::Eval(format!("incomparable values {a} and {b}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesto_stream::SchemaBuilder;

    fn schema() -> SchemaRef {
        SchemaBuilder::new("k")
            .timestamp("ts")
            .float("x")
            .float("y")
            .bool("flag")
            .str("tag")
            .build()
            .unwrap()
    }

    fn tuple(x: f64, y: f64) -> Tuple {
        Tuple::new(
            schema(),
            vec![
                Value::Timestamp(0),
                Value::Float(x),
                Value::Float(y),
                Value::Bool(true),
                Value::Str("t".into()),
            ],
        )
        .unwrap()
    }

    fn eval(e: &Expr, t: &Tuple) -> Value {
        let reg = FunctionRegistry::with_builtins();
        compile(e, t.schema(), &reg).unwrap().eval(t).unwrap()
    }

    #[test]
    fn paper_range_predicate() {
        // abs(x - y - 0) < 50
        let e = Expr::lt(
            Expr::abs(Expr::bin(
                BinOp::Sub,
                Expr::bin(BinOp::Sub, Expr::col("x"), Expr::col("y")),
                Expr::lit(0.0),
            )),
            Expr::lit(50.0),
        );
        assert_eq!(eval(&e, &tuple(100.0, 60.0)), Value::Bool(true));
        assert_eq!(eval(&e, &tuple(100.0, 20.0)), Value::Bool(false));
    }

    #[test]
    fn arithmetic_int_and_float() {
        let t = tuple(10.0, 4.0);
        let add = Expr::bin(BinOp::Add, Expr::lit(2i64), Expr::lit(3i64));
        assert_eq!(eval(&add, &t), Value::Int(5));
        let div = Expr::bin(BinOp::Div, Expr::lit(7i64), Expr::lit(2i64));
        assert_eq!(eval(&div, &t), Value::Float(3.5));
        let mixed = Expr::bin(BinOp::Mul, Expr::col("x"), Expr::lit(2i64));
        assert_eq!(eval(&mixed, &t), Value::Float(20.0));
    }

    #[test]
    fn division_by_zero_errors() {
        let reg = FunctionRegistry::with_builtins();
        let t = tuple(1.0, 1.0);
        let e = Expr::bin(BinOp::Div, Expr::lit(1i64), Expr::lit(0i64));
        let c = compile(&e, t.schema(), &reg).unwrap();
        assert!(matches!(c.eval(&t), Err(CepError::Eval(_))));
        // Float division by zero is IEEE infinity, not an error.
        let e = Expr::bin(BinOp::Div, Expr::lit(1.0), Expr::lit(0.0));
        let c = compile(&e, t.schema(), &reg).unwrap();
        assert_eq!(c.eval(&t).unwrap(), Value::Float(f64::INFINITY));
    }

    #[test]
    fn null_propagates_to_unknown_predicate() {
        let s = schema();
        let t = Tuple::new(
            s,
            vec![
                Value::Timestamp(0),
                Value::Null,
                Value::Float(1.0),
                Value::Bool(true),
                Value::Null,
            ],
        )
        .unwrap();
        let e = Expr::lt(Expr::col("x"), Expr::lit(50.0));
        let reg = FunctionRegistry::with_builtins();
        let c = compile(&e, t.schema(), &reg).unwrap();
        assert_eq!(c.eval(&t).unwrap(), Value::Null);
        assert!(!c.eval_bool(&t).unwrap(), "unknown is not a match");
    }

    #[test]
    fn kleene_short_circuit() {
        let t = tuple(1.0, 1.0);
        // false and (1/0) must not evaluate the rhs
        let e = Expr::and(
            Expr::lit(false),
            Expr::bin(BinOp::Div, Expr::lit(1i64), Expr::lit(0i64)),
        );
        let reg = FunctionRegistry::with_builtins();
        let c = compile(&e, t.schema(), &reg).unwrap();
        assert_eq!(c.eval(&t).unwrap(), Value::Bool(false));

        // true or error-rhs = true
        let e = Expr::bin(
            BinOp::Or,
            Expr::lit(true),
            Expr::bin(BinOp::Div, Expr::lit(1i64), Expr::lit(0i64)),
        );
        let c = compile(&e, t.schema(), &reg).unwrap();
        assert_eq!(c.eval(&t).unwrap(), Value::Bool(true));
    }

    #[test]
    fn null_and_false_is_false() {
        let s = schema();
        let t = Tuple::new(
            s,
            vec![
                Value::Timestamp(0),
                Value::Null,
                Value::Float(1.0),
                Value::Bool(true),
                Value::Null,
            ],
        )
        .unwrap();
        let reg = FunctionRegistry::with_builtins();
        // (x < 1) and false  => false even though lhs is unknown
        let e = Expr::and(Expr::lt(Expr::col("x"), Expr::lit(1.0)), Expr::lit(false));
        let c = compile(&e, t.schema(), &reg).unwrap();
        assert_eq!(c.eval(&t).unwrap(), Value::Bool(false));
        // (x < 1) or true => true
        let e = Expr::bin(
            BinOp::Or,
            Expr::lt(Expr::col("x"), Expr::lit(1.0)),
            Expr::lit(true),
        );
        let c = compile(&e, t.schema(), &reg).unwrap();
        assert_eq!(c.eval(&t).unwrap(), Value::Bool(true));
    }

    /// Kleene `and`/`or` over `true`, `false`, `Null`, a non-boolean
    /// `Int` and an erroring term, as a binary tree and as the compiled
    /// flattened chain, against a table written out by hand.
    #[test]
    fn kleene_truth_table() {
        let reg = FunctionRegistry::with_builtins();
        let s = schema();
        let t = tuple(0.0, 0.0);
        let operand = |k: char| match k {
            'T' => Expr::lit(true),
            'F' => Expr::lit(false),
            'N' => Expr::Literal(Value::Null),
            'I' => Expr::lit(7i64),
            'E' => Expr::bin(BinOp::Div, Expr::lit(1i64), Expr::lit(0i64)),
            _ => unreachable!(),
        };
        let expected = |op: BinOp, k: char| match k {
            'T' => Ok(Value::Bool(true)),
            'F' => Ok(Value::Bool(false)),
            'N' => Ok(Value::Null),
            'I' => Err(format!("non-boolean operand 7 for {op:?}")),
            'E' => Err("integer division by zero".to_string()),
            _ => unreachable!(),
        };
        // Row = left operand, column = right operand, both in `TFNIE`
        // order; a trailing triple is `(a op b) op c`.
        let tables = [
            (
                BinOp::And,
                ["TFNIE", "FFFFF", "NFNIE", "IIIII", "EEEEE"],
                ("NFE", 'F'),
            ),
            (
                BinOp::Or,
                ["TTTTT", "TFNIE", "TNNIE", "IIIII", "EEEEE"],
                ("NFE", 'E'),
            ),
        ];
        for (op, rows, (triple, triple_out)) in tables {
            let mut cases: Vec<(String, char)> = Vec::new();
            for (a, row) in "TFNIE".chars().zip(rows) {
                for (b, out) in "TFNIE".chars().zip(row.chars()) {
                    cases.push((format!("{a}{b}"), out));
                }
            }
            cases.push((triple.to_string(), triple_out));
            for (ks, out) in cases {
                let e = ks
                    .chars()
                    .map(operand)
                    .reduce(|l, r| Expr::bin(op, l, r))
                    .unwrap();
                let chain = compile(&e, &s, &reg).unwrap();
                let chain_kind = if op == BinOp::And { "AndAll" } else { "OrAll" };
                assert!(format!("{chain:?}").starts_with(chain_kind), "{op:?} {ks}");
                for c in [compile_tree(&e, &s, &reg).unwrap(), chain] {
                    let got = c.eval(&t).map_err(|e| match e {
                        CepError::Eval(m) => m,
                        other => panic!("{op:?} {ks}: {other}"),
                    });
                    assert_eq!(got, expected(op, out), "{op:?} {ks} via {c:?}");
                }
            }
        }
    }

    fn band_expr(center: f64, width: f64) -> Expr {
        Expr::lt(
            Expr::abs(Expr::bin(BinOp::Sub, Expr::col("x"), Expr::lit(center))),
            Expr::lit(width),
        )
    }

    #[test]
    fn learned_shape_fuses_into_band() {
        let reg = FunctionRegistry::with_builtins();
        let e = Expr::and(band_expr(400.0, 50.0), band_expr(150.0, 40.0));
        let c = compile(&e, &schema(), &reg).unwrap();
        let dbg = format!("{c:?}");
        assert!(dbg.starts_with("AndAll"), "{dbg}");
        assert_eq!(dbg.matches("Band(").count(), 2, "{dbg}");
        // Negative centre prints as `+ |c|` and still fuses.
        let neg = Expr::lt(
            Expr::abs(Expr::bin(BinOp::Add, Expr::col("x"), Expr::lit(120.0))),
            Expr::lit(50.0),
        );
        let c = compile(&neg, &schema(), &reg).unwrap();
        assert!(format!("{c:?}").contains("Band"), "{c:?}");
        let t = tuple(-100.0, 0.0);
        assert_eq!(c.eval(&t).unwrap(), Value::Bool(true), "abs(-100+120)<50");
    }

    #[test]
    fn band_matches_tree_on_every_value_kind() {
        // Int-in-float-slot, Null, and plain Float must all agree with
        // the unfused tree bit for bit.
        let reg = FunctionRegistry::with_builtins();
        let s = schema();
        let e = band_expr(10.0, 5.0);
        let fused = compile(&e, &s, &reg).unwrap();
        assert!(format!("{fused:?}").contains("Band"));
        let tree = compile_tree(&e, &s, &reg).unwrap();
        for x in [
            Value::Float(12.0),
            Value::Float(100.0),
            Value::Float(f64::NAN),
            Value::Int(11),
            Value::Null,
        ] {
            let t = Tuple::new(
                s.clone(),
                vec![
                    Value::Timestamp(0),
                    x.clone(),
                    Value::Float(0.0),
                    Value::Bool(true),
                    Value::Null,
                ],
            )
            .unwrap();
            match (fused.eval(&t), tree.eval(&t)) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "value {x}"),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "value {x}"),
                (a, b) => panic!("divergence on {x}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn plain_comparisons_fuse_into_cmp() {
        let reg = FunctionRegistry::with_builtins();
        for (e, expect) in [
            (Expr::lt(Expr::col("x"), Expr::lit(5.0)), true),
            (Expr::bin(BinOp::Ge, Expr::col("x"), Expr::lit(5.0)), false),
            (
                // diff shape: x - y > -10
                Expr::bin(
                    BinOp::Gt,
                    Expr::bin(BinOp::Sub, Expr::col("x"), Expr::col("y")),
                    Expr::lit(-10.0),
                ),
                true,
            ),
        ] {
            let c = compile(&e, &schema(), &reg).unwrap();
            assert!(format!("{c:?}").starts_with("Cmp"), "{c:?}");
            assert_eq!(c.eval(&tuple(1.0, 2.0)).unwrap(), Value::Bool(expect));
        }
        // Non-float literal: not fused.
        let c = compile(
            &Expr::bin(BinOp::Eq, Expr::col("tag"), Expr::lit("t")),
            &schema(),
            &reg,
        )
        .unwrap();
        assert!(!format!("{c:?}").starts_with("Cmp"), "{c:?}");
    }

    #[test]
    fn cmp_matches_tree_on_every_value_kind() {
        let reg = FunctionRegistry::with_builtins();
        let s = schema();
        for op in [
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
        ] {
            let e = Expr::bin(op, Expr::col("x"), Expr::lit(10.0));
            let fused = compile(&e, &s, &reg).unwrap();
            assert!(format!("{fused:?}").starts_with("Cmp"), "{fused:?}");
            let tree = compile_tree(&e, &s, &reg).unwrap();
            for x in [
                Value::Float(9.0),
                Value::Float(10.0),
                Value::Float(11.0),
                Value::Float(f64::NAN),
                Value::Int(10),
                Value::Null,
            ] {
                let t = Tuple::new(
                    s.clone(),
                    vec![
                        Value::Timestamp(0),
                        x.clone(),
                        Value::Float(0.0),
                        Value::Bool(true),
                        Value::Null,
                    ],
                )
                .unwrap();
                match (fused.eval(&t), tree.eval(&t)) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "{op:?} on {x}"),
                    (Err(a), Err(b)) => {
                        assert_eq!(a.to_string(), b.to_string(), "{op:?} on {x}")
                    }
                    (a, b) => panic!("divergence for {op:?} on {x}: {a:?} vs {b:?}"),
                }
            }
        }
    }

    fn dist_schema() -> SchemaRef {
        SchemaBuilder::new("k")
            .timestamp("ts")
            .float("ax")
            .float("ay")
            .float("az")
            .float("bx")
            .float("by")
            .float("bz")
            .build()
            .unwrap()
    }

    fn dist_expr() -> Expr {
        Expr::Call {
            func: "dist".into(),
            args: ["ax", "ay", "az", "bx", "by", "bz"]
                .iter()
                .map(|c| Expr::col(*c))
                .collect(),
        }
    }

    #[test]
    fn dist_over_columns_fuses() {
        let reg = FunctionRegistry::with_builtins();
        let e = Expr::lt(dist_expr(), Expr::lit(6.0));
        let c = compile(&e, &dist_schema(), &reg).unwrap();
        assert!(format!("{c:?}").starts_with("Cmp(dist("), "{c:?}");
        let t = Tuple::new(
            dist_schema(),
            vec![
                Value::Timestamp(0),
                Value::Float(0.0),
                Value::Float(0.0),
                Value::Float(0.0),
                Value::Float(3.0),
                Value::Float(4.0),
                Value::Float(0.0),
            ],
        )
        .unwrap();
        assert_eq!(c.eval(&t).unwrap(), Value::Bool(true), "5 < 6");

        // Null joint propagates to unknown, exactly like the tree.
        let tree = compile_tree(&e, &dist_schema(), &reg).unwrap();
        let t = Tuple::new(
            dist_schema(),
            vec![
                Value::Timestamp(0),
                Value::Float(0.0),
                Value::Null,
                Value::Float(0.0),
                Value::Float(3.0),
                Value::Float(4.0),
                Value::Float(0.0),
            ],
        )
        .unwrap();
        assert_eq!(c.eval(&t).unwrap(), Value::Null);
        assert_eq!(tree.eval(&t).unwrap(), Value::Null);
    }

    #[test]
    fn overridden_dist_is_not_fused() {
        let reg = FunctionRegistry::with_builtins();
        reg.register(
            "dist",
            crate::expr::functions::Arity::Exact(6),
            Arc::new(|_| Ok(Value::Float(0.0))),
        );
        let e = Expr::lt(dist_expr(), Expr::lit(6.0));
        let c = compile(&e, &dist_schema(), &reg).unwrap();
        assert!(!format!("{c:?}").contains("dist(col"), "{c:?}");
    }

    #[test]
    fn or_chain_flattens_and_short_circuits() {
        let reg = FunctionRegistry::with_builtins();
        let e = Expr::bin(
            BinOp::Or,
            Expr::bin(
                BinOp::Or,
                Expr::lt(Expr::col("x"), Expr::lit(0.0)),
                Expr::lt(Expr::col("y"), Expr::lit(0.0)),
            ),
            Expr::lit(true),
        );
        let c = compile(&e, &schema(), &reg).unwrap();
        let dbg = format!("{c:?}");
        assert!(dbg.starts_with("OrAll"), "{dbg}");
        assert_eq!(dbg.matches("Cmp").count(), 2, "terms fused too: {dbg}");
        assert_eq!(c.eval(&tuple(5.0, 5.0)).unwrap(), Value::Bool(true));

        // true short-circuits past an erroring tail.
        let e = Expr::bin(
            BinOp::Or,
            Expr::lit(true),
            Expr::bin(BinOp::Div, Expr::lit(1i64), Expr::lit(0i64)),
        );
        let c = compile(&e, &schema(), &reg).unwrap();
        assert!(format!("{c:?}").starts_with("OrAll"));
        assert_eq!(c.eval(&tuple(0.0, 0.0)).unwrap(), Value::Bool(true));

        // Null is sticky-unknown: null or false = null, null or true = true.
        let s = schema();
        let null_t = Tuple::new(
            s.clone(),
            vec![
                Value::Timestamp(0),
                Value::Null,
                Value::Float(1.0),
                Value::Bool(true),
                Value::Null,
            ],
        )
        .unwrap();
        let e = Expr::bin(
            BinOp::Or,
            Expr::lt(Expr::col("x"), Expr::lit(1.0)),
            Expr::lit(false),
        );
        let c = compile(&e, &s, &reg).unwrap();
        assert_eq!(c.eval(&null_t).unwrap(), Value::Null);
        let e = Expr::bin(
            BinOp::Or,
            Expr::lt(Expr::col("x"), Expr::lit(1.0)),
            Expr::lit(true),
        );
        let c = compile(&e, &s, &reg).unwrap();
        assert_eq!(c.eval(&null_t).unwrap(), Value::Bool(true));
    }

    #[test]
    fn overridden_abs_is_not_fused() {
        let reg = FunctionRegistry::with_builtins();
        // A user-redefined `abs` must keep its (weird) semantics.
        reg.register(
            "abs",
            crate::expr::functions::Arity::Exact(1),
            Arc::new(|_| Ok(Value::Float(0.0))),
        );
        let c = compile(&band_expr(400.0, 50.0), &schema(), &reg).unwrap();
        assert!(!format!("{c:?}").contains("Band"), "{c:?}");
        let t = tuple(9999.0, 0.0);
        assert_eq!(c.eval(&t).unwrap(), Value::Bool(true), "0.0 < 50");
    }

    #[test]
    fn unknown_column_fails_compile() {
        let reg = FunctionRegistry::with_builtins();
        let e = Expr::col("nope");
        assert!(matches!(
            compile(&e, &schema(), &reg),
            Err(CepError::Compile(_))
        ));
    }

    #[test]
    fn string_equality() {
        let t = tuple(0.0, 0.0);
        let e = Expr::bin(BinOp::Eq, Expr::col("tag"), Expr::lit("t"));
        assert_eq!(eval(&e, &t), Value::Bool(true));
        let e = Expr::bin(BinOp::Ne, Expr::col("tag"), Expr::lit("z"));
        assert_eq!(eval(&e, &t), Value::Bool(true));
    }

    #[test]
    fn incomparable_types_error() {
        let reg = FunctionRegistry::with_builtins();
        let t = tuple(0.0, 0.0);
        let e = Expr::lt(Expr::col("tag"), Expr::lit(1.0));
        let c = compile(&e, t.schema(), &reg).unwrap();
        assert!(matches!(c.eval(&t), Err(CepError::Eval(_))));
    }

    #[test]
    fn nested_function_calls() {
        let t = tuple(-9.0, 2.0);
        let e = Expr::Call {
            func: "sqrt".into(),
            args: vec![Expr::abs(Expr::col("x"))],
        };
        assert_eq!(eval(&e, &t), Value::Float(3.0));
    }

    #[test]
    fn negation() {
        let t = tuple(5.0, 0.0);
        let e = Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(Expr::col("x")),
        };
        assert_eq!(eval(&e, &t), Value::Float(-5.0));
        let e = Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(Expr::col("flag")),
        };
        assert_eq!(eval(&e, &t), Value::Bool(false));
    }
}
