//! Vectorized (batch) evaluation of fused predicates over a
//! [`ColumnBlock`].
//!
//! The scalar [`CompiledExpr::eval`] walks enum-tagged `Value` slices one
//! tuple at a time. For the fused hot shapes — [`CompiledExpr::Band`],
//! [`CompiledExpr::Cmp`] (including `dist()` inputs), their
//! `AndAll`/`OrAll` folds and `Bool`/`Null` literals — this module
//! decides a whole batch over the block's contiguous `f64` lanes,
//! producing per-row bitmasks. No nightly `std::simd` is involved: the
//! loops are branch-free so stable rustc autovectorizes them.
//!
//! # Contract with the scalar oracle
//!
//! [`CompiledExpr::eval_block`] never errors and never guesses: for every
//! row whose `known` bit it sets, the scalar evaluation of the same
//! predicate over the same tuple is guaranteed to return `Ok` with
//! exactly the value the masks encode (`truth` ⇔ `Bool(true)`, `null` ⇔
//! `Null`, otherwise `Bool(false)`). Rows the kernels cannot decide
//! — non-float cells (`Int` widening, foreign-schema rows), `NaN`
//! quantities whose scalar comparison would error, or expression shapes
//! outside the fused set — are simply left unknown, and the caller
//! replays them through the scalar path, which then yields the exact
//! seed semantics including errors. The scalar evaluator therefore
//! remains the bit-equivalence oracle *and* the fallback.
//!
//! **Bounds decide only what the kernels would.** Before any row pass,
//! a `Band` on a column — or the leading `Band`-on-column terms of an
//! `AndAll` — is checked against the lane's batch [`FloatLane::bounds`]:
//! if `fl(hi ± c) <= -w` or `fl(lo ± c) >= w` for some such term, every
//! row is known-false. Rounded subtraction is monotone, and a `NaN`
//! edge (an infinite cell meeting an infinite centre) voids the check,
//! so each row's scalar walk would also return `false` without error.
//! The walk stops at the first term that is not such a band, because
//! the scalar walk could err there.
//!
//! **One word at a time.** Every row pass decides one 64-row word of
//! the whole predicate before the next: a comparison reads its word of
//! the quantity (a column's lane in place; a difference or `dist()` into
//! the one 64-value buffer of [`EvalScratch`]) and packs its compare and
//! `NaN` bits eight rows at a time, and an `AndAll` / `OrAll` folds its
//! terms' known / null / truth words with the Kleene rule, stopping at
//! the first term that leaves none of the word's rows alive. No mask is
//! built per term, so a learned pose — a conjunction of column bands —
//! is decided in one pass.

use std::ops::Range;

use gesto_stream::{BitMask, ColumnBlock, FloatLane, Value};

use crate::expr::ast::BinOp;
use crate::expr::eval::{CompiledExpr, FusedInput};

/// Per-row results of one block evaluation, as bitmasks.
///
/// Bits are only meaningful where `known` is set; `truth` and `null` are
/// always subsets of `known` and disjoint from each other (known and
/// neither ⇒ the scalar result is `Bool(false)`).
#[derive(Debug, Default)]
pub struct BlockMasks {
    /// Scalar evaluation would yield `Bool(true)`.
    pub truth: BitMask,
    /// Scalar evaluation would yield `Null` (three-valued unknown — not
    /// a match, but distinct from `false` under `and`/`or` folding).
    pub null: BitMask,
    /// The kernel decided this row; unset rows must take the scalar
    /// path.
    pub known: BitMask,
}

impl BlockMasks {
    /// Resets to `rows` rows, everything unknown. Capacity-preserving.
    pub fn reset(&mut self, rows: usize) {
        self.truth.reset(rows);
        self.null.reset(rows);
        self.known.reset(rows);
    }
}

/// Scratch for block evaluation: the one word of values a `Diff` or
/// `dist()` quantity is computed into. Reused across words and batches,
/// so warm calls allocate and zero-fill nothing.
#[derive(Debug)]
pub struct EvalScratch {
    buf: [f64; 64],
}

impl Default for EvalScratch {
    fn default() -> Self {
        Self { buf: [0.0; 64] }
    }
}

impl EvalScratch {
    /// A fresh scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One word's share of [`BlockMasks`]: the same bits, same invariants.
#[derive(Default)]
struct Word {
    truth: u64,
    null: u64,
    known: u64,
}

/// One word of a fused quantity over `rows` (at most 64, starting on a
/// word boundary): its values, the rows whose scalar read yields `Null`,
/// and the rows where every cell read was a plain float. Rows in neither
/// set held some other value kind and must take the scalar fallback.
/// `None` when a referenced column has no lane.
fn read<'a>(
    input: &FusedInput,
    block: &'a ColumnBlock,
    rows: Range<usize>,
    buf: &'a mut [f64; 64],
) -> Option<(&'a [f64], u64, u64)> {
    let w = rows.start / 64;
    let len = rows.len();
    match input {
        FusedInput::Col(i) => {
            let lane = block.lane(*i)?;
            let n = lane.null().words()[w];
            Some((&lane.values()[rows], n, !(n | lane.other().words()[w])))
        }
        // Binary arithmetic checks `Null` on either side before the
        // numeric check (see `FusedInput::read`), so `Null` wins over an
        // `other` cell on the other side.
        FusedInput::Diff(a, b) => {
            let (la, lb) = (block.lane(*a)?, block.lane(*b)?);
            let (xa, xb) = (&la.values()[rows.clone()], &lb.values()[rows]);
            for ((d, x), y) in buf.iter_mut().zip(xa).zip(xb) {
                *d = x - y;
            }
            let n = la.null().words()[w] | lb.null().words()[w];
            let f = !(n | la.other().words()[w] | lb.other().words()[w]);
            Some((&buf[..len], n, f))
        }
        // `dist()` scans its six arguments left to right: the *first*
        // non-float cell decides between `Null` and fallback, exactly
        // like the scalar read.
        FusedInput::Dist(cols) => {
            let mut lanes: [&FloatLane; 6] = [block.lane(cols[0])?; 6];
            for (slot, c) in lanes.iter_mut().zip(cols).skip(1) {
                *slot = block.lane(*c)?;
            }
            // `f`: every lane scanned so far was a plain float.
            let (mut n, mut f) = (0u64, !0u64);
            for lane in &lanes {
                n |= f & lane.null().words()[w];
                f &= !(lane.null().words()[w] | lane.other().words()[w]);
            }
            let x = lanes.map(|l| &l.values()[rows.clone()]);
            for (r, d) in buf[..len].iter_mut().enumerate() {
                // Same expression, same order as the scalar kernel.
                let dx = x[0][r] - x[3][r];
                let dy = x[1][r] - x[4][r];
                let dz = x[2][r] - x[5][r];
                *d = (dx * dx + dy * dy + dz * dz).sqrt();
            }
            Some((&buf[..len], n, f))
        }
    }
}

/// The `test(map(x))` and `NaN`-of-`map(x)` bits of one word's values.
/// Eight rows at a time, so each row's bit has a constant position and
/// the loop vectorises to compare masks and ORs, not per-row shifts.
fn bits(xs: &[f64], map: impl Fn(f64) -> f64, test: impl Fn(f64) -> bool) -> (u64, u64) {
    let (mut cmp, mut nan) = (0u64, 0u64);
    let mut pack = |xs: &[f64], at: usize| {
        let (mut cb, mut nb) = (0u64, 0u64);
        for (i, &x) in xs.iter().enumerate() {
            let y = map(x);
            cb |= (test(y) as u64) << i;
            nb |= (y.is_nan() as u64) << i;
        }
        // `% 64`: an empty tail of a full word sits at bit 64, adding 0.
        cmp |= cb << (at % 64);
        nan |= nb << (at % 64);
    };
    let chunks = xs.chunks_exact(8);
    let tail = chunks.remainder();
    for (k, ch) in chunks.enumerate() {
        pack(ch, 8 * k);
    }
    pack(tail, xs.len() - tail.len());
    (cmp, nan)
}

/// One word of the fused comparison `test(map(input))`. A row is known
/// where its scalar read is `Null`, or every cell was a plain float and
/// the mapped quantity is not `NaN` (a `NaN` comparison errs
/// scalar-side).
fn compare(
    input: &FusedInput,
    block: &ColumnBlock,
    rows: Range<usize>,
    buf: &mut [f64; 64],
    map: impl Fn(f64) -> f64,
    test: impl Fn(f64) -> bool,
) -> Word {
    let live = !0u64 >> (64 - rows.len());
    let Some((xs, null, float)) = read(input, block, rows, buf) else {
        return Word::default();
    };
    let (cmp, nan) = bits(xs, map, test);
    let f = float & !nan & live;
    Word {
        truth: cmp & f,
        null,
        known: f | null,
    }
}

/// What the lane bounds say about `abs(col ± c) < w` on every row:
/// `Some(true)` when no row can hold it, `Some(false)` when no row's
/// scalar evaluation can be `Null` or err, and `None` when `expr` is not
/// a band over a lane with bounds (or some row could err).
fn excludes(expr: &CompiledExpr, block: &ColumnBlock) -> Option<bool> {
    let CompiledExpr::Band {
        input: FusedInput::Col(i),
        add,
        center,
        width,
        ..
    } = expr
    else {
        return None;
    };
    let (lo, hi) = block.lane(*i)?.bounds()?;
    // `x + c` is exactly `x - (-c)`.
    let c = if *add { -center } else { *center };
    let (lo, hi) = (lo - c, hi - c);
    (!(lo.is_nan() || hi.is_nan() || width.is_nan())).then(|| hi <= -width || lo >= *width)
}

impl CompiledExpr {
    /// Evaluates this predicate over every row of `block` at once,
    /// writing the per-row results into `out` (see [`BlockMasks`] and
    /// the module docs for the exactness contract). `scratch` holds the
    /// word buffer, so warm calls allocate nothing. Returns `true` when
    /// the lane bounds decided every row false with no row pass.
    ///
    /// Expression shapes outside the fused set — and rows the kernels
    /// cannot decide exactly — are left with their `known` bit unset;
    /// callers replay those through the scalar [`Self::eval`].
    pub fn eval_block(
        &self,
        block: &ColumnBlock,
        out: &mut BlockMasks,
        scratch: &mut EvalScratch,
    ) -> bool {
        out.reset(block.rows());
        let excluded = self.bounds_exclude(block);
        if excluded {
            out.known.set_all();
        } else {
            self.eval_rows(block, out, scratch);
        }
        excluded
    }

    /// True when the lane bounds of `block` decide this predicate false
    /// on every row, with no row pass (module docs): what
    /// [`Self::eval_block`] then returns.
    pub(crate) fn bounds_exclude(&self, block: &ColumnBlock) -> bool {
        self.conjuncts()
            .iter()
            .map_while(|t| excludes(t, block))
            .any(|x| x)
    }

    /// The terms of an `AndAll`, or this expression as the one term.
    fn conjuncts(&self) -> &[CompiledExpr] {
        match self {
            CompiledExpr::AndAll(terms) => terms,
            e => std::slice::from_ref(e),
        }
    }

    /// The row pass behind [`Self::eval_block`], one [`Self::word`] per
    /// word; `out` is already reset to the block's rows.
    fn eval_rows(&self, block: &ColumnBlock, out: &mut BlockMasks, scratch: &mut EvalScratch) {
        let rows = block.rows();
        for w in 0..out.known.words().len() {
            let word = self.word(block, w * 64..rows.min(w * 64 + 64), &mut scratch.buf);
            out.truth.words_mut()[w] = word.truth;
            out.null.words_mut()[w] = word.null;
            out.known.words_mut()[w] = word.known;
        }
    }

    /// Decides this predicate on the word of `rows` (1 to 64 rows from a
    /// word boundary); shapes outside the fused set leave it unknown.
    fn word(&self, block: &ColumnBlock, rows: Range<usize>, buf: &mut [f64; 64]) -> Word {
        let live = !0u64 >> (64 - rows.len());
        match self {
            CompiledExpr::Band {
                input,
                add,
                center,
                width,
                ..
            } if !(center.is_nan() || width.is_nan()) => {
                // `x + c` is exactly `x - (-c)`.
                let c = if *add { -center } else { *center };
                compare(input, block, rows, buf, |x| (x - c).abs(), |y| y < *width)
            }
            CompiledExpr::Cmp { input, op, rhs, .. } if !rhs.is_nan() => {
                let (id, r) = (|x| x, *rhs);
                match op {
                    BinOp::Lt => compare(input, block, rows, buf, id, |y| y < r),
                    BinOp::Le => compare(input, block, rows, buf, id, |y| y <= r),
                    BinOp::Gt => compare(input, block, rows, buf, id, |y| y > r),
                    BinOp::Ge => compare(input, block, rows, buf, id, |y| y >= r),
                    BinOp::Eq => compare(input, block, rows, buf, id, |y| y == r),
                    BinOp::Ne => compare(input, block, rows, buf, id, |y| y != r),
                    // Not a comparison (never produced by the fuser).
                    _ => Word::default(),
                }
            }
            // Kleene folds. A row stays `alive` until some term decides
            // it (`false` for AND, `true` for OR); a term leaving a live
            // row unknown makes it unknown overall (the scalar walk
            // might err there), and a `Null` keeps it alive. Rows no
            // longer alive short-circuit past later terms exactly like
            // the scalar walk.
            CompiledExpr::AndAll(terms) | CompiledExpr::OrAll(terms) => {
                let and = matches!(self, CompiledExpr::AndAll(_));
                let (mut known, mut alive, mut null, mut decided) = (live, live, 0u64, 0u64);
                for t in terms {
                    let tw = t.word(block, rows.clone(), buf);
                    let hit = if and {
                        tw.known & !tw.truth & !tw.null
                    } else {
                        tw.truth
                    };
                    known &= !(alive & !tw.known);
                    decided |= alive & hit;
                    null |= alive & tw.null;
                    alive &= tw.known & !hit;
                    if alive == 0 {
                        break;
                    }
                }
                let null = known & !decided & null;
                let truth = if and {
                    known & !decided & !null
                } else {
                    known & decided
                };
                Word { truth, null, known }
            }
            CompiledExpr::Literal(Value::Bool(b)) => Word {
                truth: if *b { live } else { 0 },
                null: 0,
                known: live,
            },
            CompiledExpr::Literal(Value::Null) => Word {
                truth: 0,
                null: live,
                known: live,
            },
            // Column reads, unfused binaries, unary ops, calls, and a
            // non-boolean literal (standalone "no match", but an error
            // inside `and`/`or`): the scalar path handles every row.
            _ => Word::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ast::Expr;
    use crate::expr::eval::compile;
    use crate::expr::functions::FunctionRegistry;
    use gesto_stream::{SchemaBuilder, SchemaRef, Tuple};

    fn schema() -> SchemaRef {
        SchemaBuilder::new("k")
            .timestamp("ts")
            .float("x")
            .float("y")
            .float("ax")
            .float("ay")
            .float("az")
            .float("bx")
            .float("by")
            .float("bz")
            .str("tag")
            .build()
            .unwrap()
    }

    /// Cross-checks `eval_block` against the scalar oracle on every row:
    /// known rows must agree exactly; unknown rows carry no claim.
    fn assert_matches_oracle(expr: &CompiledExpr, tuples: &[Tuple]) {
        let mut block = ColumnBlock::new();
        block.fill_from_tuples(tuples);
        let mut masks = BlockMasks::default();
        let mut scratch = EvalScratch::new();
        expr.eval_block(&block, &mut masks, &mut scratch);
        for (r, t) in tuples.iter().enumerate() {
            if !masks.known.get(r) {
                continue;
            }
            let scalar = expr
                .eval(t)
                .unwrap_or_else(|e| panic!("row {r}: known row errored scalar: {e}"));
            let expect = match (masks.truth.get(r), masks.null.get(r)) {
                (true, false) => Value::Bool(true),
                (false, true) => Value::Null,
                (false, false) => Value::Bool(false),
                (true, true) => panic!("row {r}: truth and null both set"),
            };
            assert_eq!(scalar, expect, "row {r} of {expr:?}");
        }
    }

    fn rows(xs: &[Value]) -> Vec<Tuple> {
        let s = schema();
        xs.iter()
            .map(|x| {
                let mut vals = vec![Value::Float(1.0); s.len()];
                vals[0] = Value::Timestamp(0);
                vals[1] = x.clone();
                vals[s.len() - 1] = Value::Str("t".into());
                Tuple::new_unchecked(s.clone(), vals)
            })
            .collect()
    }

    fn mixed_values() -> Vec<Value> {
        vec![
            Value::Float(5.0),
            Value::Float(10.0),
            Value::Float(15.0),
            Value::Null,
            Value::Int(10),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(-0.0),
        ]
    }

    #[test]
    fn band_kernel_decides_floats_and_nulls_defers_rest() {
        let reg = FunctionRegistry::with_builtins();
        let e = Expr::lt(
            Expr::abs(Expr::bin(BinOp::Sub, Expr::col("x"), Expr::lit(10.0))),
            Expr::lit(4.0),
        );
        let c = compile(&e, &schema(), &reg).unwrap();
        assert!(format!("{c:?}").contains("Band"), "{c:?}");
        let tuples = rows(&mixed_values());
        let mut block = ColumnBlock::new();
        block.fill_from_tuples(&tuples);
        let mut masks = BlockMasks::default();
        let mut scratch = EvalScratch::new();
        c.eval_block(&block, &mut masks, &mut scratch);
        // Floats and Null decided; Int (other) and NaN deferred.
        assert!(masks.known.get(0) && !masks.truth.get(0), "|5-10|=5 ≥ 4");
        assert!(masks.truth.get(1), "|10-10|=0 < 4");
        assert!(masks.null.get(3) && masks.known.get(3));
        assert!(!masks.known.get(4), "Int cell defers to fallback");
        assert!(!masks.known.get(5), "NaN would error scalar: unknown");
        assert!(
            masks.known.get(6) && !masks.truth.get(6),
            "inf is decidable"
        );
        assert_matches_oracle(&c, &tuples);
    }

    #[test]
    fn cmp_kernels_match_oracle_for_every_op() {
        let reg = FunctionRegistry::with_builtins();
        let tuples = rows(&mixed_values());
        for op in [
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
        ] {
            let e = Expr::bin(op, Expr::col("x"), Expr::lit(10.0));
            let c = compile(&e, &schema(), &reg).unwrap();
            assert!(format!("{c:?}").starts_with("Cmp"), "{c:?}");
            assert_matches_oracle(&c, &tuples);
        }
        // Diff shape.
        let e = Expr::bin(
            BinOp::Gt,
            Expr::bin(BinOp::Sub, Expr::col("x"), Expr::col("y")),
            Expr::lit(2.0),
        );
        assert_matches_oracle(&compile(&e, &schema(), &reg).unwrap(), &tuples);
    }

    #[test]
    fn diff_kernel_single_pass_matches_oracle() {
        let reg = FunctionRegistry::with_builtins();
        let s = schema();
        // Mixed cells on *both* lanes: Null/Int on either side, a NaN
        // difference produced by two plain floats (inf - inf), and a
        // NaN cell itself.
        let pairs = [
            (Value::Float(5.0), Value::Float(1.0)),
            (Value::Float(1.0), Value::Float(5.0)),
            (Value::Null, Value::Int(3)),
            (Value::Int(3), Value::Null),
            (Value::Int(3), Value::Float(1.0)),
            (Value::Float(f64::INFINITY), Value::Float(f64::INFINITY)),
            (Value::Float(f64::NAN), Value::Float(0.0)),
            (Value::Float(-0.0), Value::Float(0.0)),
        ];
        let tuples: Vec<Tuple> = pairs
            .iter()
            .map(|(x, y)| {
                let mut vals = vec![Value::Float(1.0); s.len()];
                vals[0] = Value::Timestamp(0);
                vals[1] = x.clone();
                vals[2] = y.clone();
                vals[s.len() - 1] = Value::Str("t".into());
                Tuple::new_unchecked(s.clone(), vals)
            })
            .collect();
        let diff = || Expr::bin(BinOp::Sub, Expr::col("x"), Expr::col("y"));
        for op in [
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
        ] {
            let c = compile(&Expr::bin(op, diff(), Expr::lit(2.0)), &s, &reg).unwrap();
            // The fused input renders as `colA - colB`.
            assert!(format!("{c:?}").contains("col1 - col2"), "{c:?}");
            assert_matches_oracle(&c, &tuples);
        }

        // Pin the Gt kernel's decisions row by row.
        let c = compile(&Expr::bin(BinOp::Gt, diff(), Expr::lit(2.0)), &s, &reg).unwrap();
        let mut block = ColumnBlock::new();
        block.fill_from_tuples(&tuples);
        let mut masks = BlockMasks::default();
        let mut scratch = EvalScratch::new();
        c.eval_block(&block, &mut masks, &mut scratch);
        assert!(masks.truth.get(0), "5 - 1 = 4 > 2");
        assert!(masks.known.get(1) && !masks.truth.get(1), "1 - 5 = -4 ≤ 2");
        assert!(
            masks.null.get(2) && masks.null.get(3),
            "Null on either side is known-Null (checked before the Int)"
        );
        assert!(!masks.known.get(4), "Int cell defers to fallback");
        assert!(!masks.known.get(5), "inf - inf is NaN: would error scalar");
        assert!(!masks.known.get(6), "NaN cell: would error scalar");
        assert!(masks.known.get(7) && !masks.truth.get(7), "-0.0 - 0.0 ≤ 2");

        // Band over a difference: |x - y - 2| < 1 reads the same word
        // of differences.
        let band = Expr::lt(
            Expr::abs(Expr::bin(BinOp::Sub, diff(), Expr::lit(2.0))),
            Expr::lit(1.0),
        );
        let c = compile(&band, &s, &reg).unwrap();
        assert!(format!("{c:?}").contains("Band"), "{c:?}");
        assert_matches_oracle(&c, &tuples);
    }

    #[test]
    fn dist_kernel_first_nonfloat_decides() {
        let reg = FunctionRegistry::with_builtins();
        let e = Expr::lt(
            Expr::Call {
                func: "dist".into(),
                args: ["ax", "ay", "az", "bx", "by", "bz"]
                    .iter()
                    .map(|c| Expr::col(*c))
                    .collect(),
            },
            Expr::lit(6.0),
        );
        let c = compile(&e, &schema(), &reg).unwrap();
        assert!(format!("{c:?}").starts_with("Cmp(dist("), "{c:?}");

        let s = schema();
        let mk = |cells: [Value; 6]| {
            let mut vals = vec![Value::Float(0.0); s.len()];
            vals[0] = Value::Timestamp(0);
            vals[s.len() - 1] = Value::Str("t".into());
            for (i, v) in cells.into_iter().enumerate() {
                vals[3 + i] = v;
            }
            Tuple::new_unchecked(s.clone(), vals)
        };
        let f = Value::Float(1.0);
        let tuples = vec![
            // all floats: 5 < 6
            mk([
                Value::Float(0.0),
                Value::Float(0.0),
                Value::Float(0.0),
                Value::Float(3.0),
                Value::Float(4.0),
                Value::Float(0.0),
            ]),
            // Null before the Int: known Null.
            mk([
                f.clone(),
                Value::Null,
                Value::Int(3),
                f.clone(),
                f.clone(),
                f.clone(),
            ]),
            // Int before the Null: scalar defers to fallback → unknown.
            mk([
                f.clone(),
                Value::Int(3),
                Value::Null,
                f.clone(),
                f.clone(),
                f.clone(),
            ]),
        ];
        let mut block = ColumnBlock::new();
        block.fill_from_tuples(&tuples);
        let mut masks = BlockMasks::default();
        let mut scratch = EvalScratch::new();
        c.eval_block(&block, &mut masks, &mut scratch);
        assert!(masks.truth.get(0));
        assert!(masks.null.get(1) && masks.known.get(1));
        assert!(!masks.known.get(2), "Other before Null defers");
        assert_matches_oracle(&c, &tuples);
    }

    #[test]
    fn and_or_folding_matches_oracle() {
        let reg = FunctionRegistry::with_builtins();
        let band = |col: &str, c: f64, w: f64| {
            Expr::lt(
                Expr::abs(Expr::bin(BinOp::Sub, Expr::col(col), Expr::lit(c))),
                Expr::lit(w),
            )
        };
        let tuples = rows(&mixed_values());
        // x-band and y-band: y is always 1.0 here, so the second term
        // exercises both pass and fail.
        for second_w in [5.0, 0.1] {
            let e = Expr::and(band("x", 10.0, 6.0), band("y", 1.0, second_w));
            let c = compile(&e, &schema(), &reg).unwrap();
            assert!(format!("{c:?}").starts_with("AndAll"), "{c:?}");
            assert_matches_oracle(&c, &tuples);
        }
        let e = Expr::bin(
            BinOp::Or,
            band("x", 10.0, 1.0),
            Expr::bin(BinOp::Or, band("x", 5.0, 1.0), Expr::lit(false)),
        );
        let c = compile(&e, &schema(), &reg).unwrap();
        assert!(format!("{c:?}").starts_with("OrAll"), "{c:?}");
        assert_matches_oracle(&c, &tuples);

        // Null is sticky through And: null term + true term ⇒ Null.
        let e = Expr::and(band("x", 10.0, 6.0), Expr::lit(true));
        assert_matches_oracle(&compile(&e, &schema(), &reg).unwrap(), &tuples);
    }

    #[test]
    fn false_short_circuit_hides_later_unknown_terms() {
        // Scalar: `false and <erroring>` returns false without touching
        // the second term. The kernel must decide those rows, and only
        // defer rows whose walk actually reaches the undecidable term.
        let reg = FunctionRegistry::with_builtins();
        let e = Expr::and(
            Expr::lt(Expr::col("x"), Expr::lit(10.0)),
            // `tag < 1.0` errors whenever evaluated: no kernel for it.
            Expr::lt(Expr::col("tag"), Expr::lit(1.0)),
        );
        let c = compile(&e, &schema(), &reg).unwrap();
        let tuples = rows(&[Value::Float(50.0), Value::Float(5.0)]);
        let mut block = ColumnBlock::new();
        block.fill_from_tuples(&tuples);
        let mut masks = BlockMasks::default();
        let mut scratch = EvalScratch::new();
        c.eval_block(&block, &mut masks, &mut scratch);
        assert!(
            masks.known.get(0) && !masks.truth.get(0),
            "50 < 10 is false: short-circuits past the bad term"
        );
        assert!(!masks.known.get(1), "5 < 10 walks into the bad term");
        assert_matches_oracle(&c, &tuples);
    }

    #[test]
    fn bounds_decide_only_what_the_kernels_would() {
        let reg = FunctionRegistry::with_builtins();
        let inf = f64::INFINITY;
        let band = |op: BinOp, c: f64, w: f64| {
            Expr::lt(
                Expr::abs(Expr::bin(op, Expr::col("x"), Expr::lit(c))),
                Expr::lit(w),
            )
        };
        let (sub, add) = (BinOp::Sub, BinOp::Add);
        let wide = band(sub, 2.0, 50.0); // holds on [1, 3]: bounded, not excluding
        let y_pos = Expr::bin(BinOp::Gt, Expr::col("y"), Expr::lit(0.0)); // no band
        let bad = Expr::lt(Expr::col("tag"), Expr::lit(1.0)); // errors on every row
        let floats = |xs: &[f64]| xs.iter().map(|x| Value::Float(*x)).collect::<Vec<_>>();
        let (mid, infs) = (floats(&[1.0, 2.5, 3.0]), floats(&[inf, 5.0, inf]));
        // (predicate, x cells, decided by the bounds?)
        let cases = [
            (band(sub, 10.0, 2.0), mid.clone(), true), // hi - c = -7 <= -2
            (band(add, 10.0, 2.0), mid.clone(), true), // lo + c = 11 >= 2
            (band(sub, 5.0, 2.0), mid.clone(), true),  // hi - c = -2: edge, exact
            (band(add, 1.0, 2.0), mid.clone(), true),  // lo + c = 2: edge, exact
            (band(sub, 4.9, 2.0), mid.clone(), false), // |3 - 4.9| < 2 holds
            (band(sub, 0.0, 2.0), infs.clone(), true), // lo = 5 >= 2, inf rows false
            (band(sub, 10.0, 2.0), floats(&[-inf, 5.0]), true),
            (band(add, 0.0, 2.0), floats(&[-inf, 5.0]), false),
            (band(sub, inf, 2.0), mid.clone(), true), // every cell shifts to -inf
            (band(sub, inf, 2.0), infs.clone(), false), // inf - inf: rows err
            (band(add, inf, 2.0), floats(&[-inf, 1.0]), false),
            (band(sub, -inf, 2.0), floats(&[-inf, 1.0]), false),
            // A `NaN` edge voids the check even where `w = -inf` would
            // pass it: the `inf - inf` row errs.
            (band(sub, inf, -inf), floats(&[1.0, inf]), false),
            (band(sub, -inf, -inf), floats(&[-inf, 1.0]), false),
            (band(sub, 0.0, inf), mid.clone(), false), // holds everywhere
            (band(sub, 0.0, inf), floats(&[inf, inf]), true), // inf < inf fails
            (band(sub, 10.0, 2.0), floats(&[1.0, f64::NAN]), false),
            (
                band(sub, 10.0, 2.0),
                vec![Value::Float(1.0), Value::Null],
                false,
            ),
            (
                band(sub, 10.0, 2.0),
                vec![Value::Float(1.0), Value::Int(1)],
                false,
            ),
            // A whole AndAll: bounded band, then the excluding one.
            (
                Expr::and(wide.clone(), band(sub, 10.0, 2.0)),
                mid.clone(),
                true,
            ),
            // The walk stops at a term that is not a band…
            (Expr::and(y_pos, band(sub, 10.0, 2.0)), mid.clone(), false),
            // …and must, where that term errs before the excluding one.
            (Expr::and(bad, band(sub, 10.0, 2.0)), mid.clone(), false),
            (Expr::and(wide, band(sub, 2.0, 0.1)), mid.clone(), false),
        ];
        for (i, (e, xs, decides)) in cases.into_iter().enumerate() {
            let c = compile(&e, &schema(), &reg).unwrap();
            let tuples = rows(&xs);
            assert_matches_oracle(&c, &tuples);
            let mut block = ColumnBlock::new();
            block.fill_from_tuples(&tuples);
            let (mut masks, mut kernels) = (BlockMasks::default(), BlockMasks::default());
            let mut scratch = EvalScratch::new();
            assert_eq!(
                c.eval_block(&block, &mut masks, &mut scratch),
                decides,
                "case {i}: {c:?}"
            );
            kernels.reset(tuples.len());
            c.eval_rows(&block, &mut kernels, &mut scratch);
            assert_eq!(masks.truth, kernels.truth, "case {i}");
            assert_eq!(masks.null, kernels.null, "case {i}");
            assert_eq!(masks.known, kernels.known, "case {i}");
        }
    }

    /// `eval_block`'s masks as a row-by-row Kleene fold: an `AndAll` /
    /// `OrAll` folds each term's own reference masks, any other shape
    /// is its own `eval_block`. The word evaluator must reproduce it bit
    /// for bit.
    fn reference(e: &CompiledExpr, block: &ColumnBlock) -> BlockMasks {
        let (and, terms) = match e {
            CompiledExpr::AndAll(terms) => (true, terms),
            CompiledExpr::OrAll(terms) => (false, terms),
            _ => {
                let mut out = BlockMasks::default();
                e.eval_block(block, &mut out, &mut EvalScratch::new());
                return out;
            }
        };
        let rows = block.rows();
        let mut out = BlockMasks::default();
        out.reset(rows);
        out.known.set_all();
        // `decided`: a term settled the row (`false` for AND, `true` for OR).
        let (mut alive, mut decided) = (out.known.clone(), out.truth.clone());
        for t in terms {
            let term = reference(t, block);
            for r in 0..rows {
                if !alive.get(r) {
                    continue;
                }
                if !term.known.get(r) {
                    out.known.unset(r); // the scalar walk might err here
                    alive.unset(r);
                } else if term.null.get(r) {
                    out.null.set(r); // sticky, unless a later term decides
                } else if term.truth.get(r) != and {
                    decided.set(r);
                    alive.unset(r);
                }
            }
        }
        for r in 0..rows {
            let (known, hit) = (out.known.get(r), decided.get(r));
            if !known || hit {
                out.null.unset(r);
            }
            let truth = if and { !hit && !out.null.get(r) } else { hit };
            if known && truth {
                out.truth.set(r);
            }
        }
        out
    }

    /// Asserts `eval_block`, with and without the bounds check, against
    /// [`reference`], and its known rows against the scalar `eval`.
    fn assert_matches_reference(
        c: &CompiledExpr,
        block: &ColumnBlock,
        tuples: &[Tuple],
        case: &str,
    ) {
        let expect = reference(c, block);
        let (mut masks, mut scratch) = (BlockMasks::default(), EvalScratch::new());
        for bounds in [false, true] {
            if bounds {
                c.eval_block(block, &mut masks, &mut scratch);
            } else {
                masks.reset(block.rows());
                c.eval_rows(block, &mut masks, &mut scratch);
            }
            assert_eq!(masks.truth, expect.truth, "{case}: {c:?}");
            assert_eq!(masks.null, expect.null, "{case}");
            assert_eq!(masks.known, expect.known, "{case}");
        }
        for (r, t) in tuples
            .iter()
            .enumerate()
            .filter(|(r, _)| masks.known.get(*r))
        {
            let scalar = c.eval(t).unwrap_or_else(|e| panic!("{case} row {r}: {e}"));
            let decided = match (masks.truth.get(r), masks.null.get(r)) {
                (true, _) => Value::Bool(true),
                (_, true) => Value::Null,
                _ => Value::Bool(false),
            };
            assert_eq!(scalar, decided, "{case} row {r}");
        }
    }

    #[test]
    fn col_band_conjunctions_match_the_per_term_fold() {
        let reg = FunctionRegistry::with_builtins();
        let s = schema();
        // Lanes x, y, ax; y is banded by `+`, so its centre is -10.
        let centres = [10.0, -10.0, 10.0];
        let band = |col: &str, op: BinOp, c: f64| {
            Expr::lt(
                Expr::abs(Expr::bin(op, Expr::col(col), Expr::lit(c))),
                Expr::lit(4.0),
            )
        };
        let (x, y, ax) = (
            band("x", BinOp::Sub, 10.0),
            band("y", BinOp::Add, 10.0),
            band("ax", BinOp::Sub, 10.0),
        );
        let pose = Expr::and(Expr::and(x.clone(), y.clone()), ax.clone());
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut cell = |lane: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let c = centres[lane];
            match seed % 16 {
                0..=7 => Value::Float(c + (seed >> 8) as f64 % 7.0 - 3.0),
                8..=10 => Value::Float(c + 20.0),
                11 => Value::Null,
                12 => Value::Int(10),
                13 => Value::Float(f64::NAN),
                14 => Value::Float(f64::INFINITY),
                _ => Value::Float(f64::NEG_INFINITY),
            }
        };
        let mut grid = |n: usize, word0_x_out: bool| -> Vec<Tuple> {
            (0..n)
                .map(|r| {
                    let mut vals = vec![Value::Float(1.0); s.len()];
                    vals[0] = Value::Timestamp(r as i64);
                    for lane in 0..3 {
                        vals[1 + lane] = cell(lane);
                    }
                    if word0_x_out && r < 64 {
                        vals[1] = Value::Float(100.0);
                    }
                    vals[s.len() - 1] = Value::Str("t".into());
                    Tuple::new_unchecked(s.clone(), vals)
                })
                .collect()
        };
        let nan_centre = Expr::and(x.clone(), band("y", BinOp::Sub, f64::NAN));
        // (predicate, rows, x out of band on word 0, lanes built)
        let all = Some(&[1usize, 2, 3][..]);
        let mut cases = Vec::new();
        for n in [1, 30, 63, 64, 65, 130] {
            cases.push((pose.clone(), n, false, all));
            cases.push((x.clone(), n, false, all));
        }
        cases.push((pose.clone(), 130, true, all));
        cases.push((pose.clone(), 130, false, Some(&[1, 2][..])));
        cases.push((nan_centre, 130, false, all));
        for (i, (e, n, word0_x_out, cols)) in cases.into_iter().enumerate() {
            let c = compile(&e, &s, &reg).unwrap();
            let tuples = grid(n, word0_x_out);
            let mut block = ColumnBlock::new();
            block.fill_from_tuples_filtered(&tuples, cols);
            assert_matches_reference(&c, &block, &tuples, &format!("case {i}"));
            if word0_x_out {
                let mut masks = BlockMasks::default();
                c.eval_block(&block, &mut masks, &mut EvalScratch::new());
                assert_eq!(masks.known.words()[0], !0, "word 0 known false");
                assert_eq!(masks.truth.words()[0] | masks.null.words()[0], 0);
                assert!(masks.truth.words()[1] != 0, "word 1 still decided");
            }
        }
    }

    #[test]
    fn every_arm_decides_across_word_boundaries() {
        let reg = FunctionRegistry::with_builtins();
        let s = schema();
        // Lanes x, y, ax, ay, az, bx, by, bz (columns 1..=8) and the
        // centre of each lane's plain-float cells.
        let centres = [10.0, 9.0, 0.0, 0.0, 0.0, 2.0, 2.0, 2.0];
        let diff_band = Expr::lt(
            Expr::abs(Expr::bin(
                BinOp::Sub,
                Expr::bin(BinOp::Sub, Expr::col("x"), Expr::col("y")),
                Expr::lit(1.0),
            )),
            Expr::lit(2.0),
        );
        let dist_cmp = Expr::lt(
            Expr::Call {
                func: "dist".into(),
                args: ["ax", "ay", "az", "bx", "by", "bz"]
                    .iter()
                    .map(|c| Expr::col(*c))
                    .collect(),
            },
            Expr::lit(4.0),
        );
        let x_cmp = Expr::bin(BinOp::Gt, Expr::col("x"), Expr::lit(11.0));
        let nested = Expr::bin(
            BinOp::Or,
            Expr::and(diff_band.clone(), dist_cmp.clone()),
            x_cmp.clone(),
        );
        // `x > 11` first: with x out of range on word 0 it decides every
        // row of word 0 true, and the fold stops there for word 0 only.
        let or_first = Expr::bin(
            BinOp::Or,
            x_cmp.clone(),
            Expr::and(diff_band.clone(), dist_cmp.clone()),
        );
        let with_null = Expr::and(Expr::and(dist_cmp, Expr::lit(Value::Null)), x_cmp);
        let with_false = Expr::bin(BinOp::Or, Expr::lit(false), diff_band);
        let mut seed = 0x9E3779B97F4A7C15u64;
        // Every kind of cell in every lane: the first 16 rows cycle
        // through the kinds (offset per lane), the rest are drawn.
        let mut cell = |r: usize, lane: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let c = centres[lane];
            let kind = if r < 16 {
                (r + 3 * lane) % 16
            } else {
                seed as usize % 16
            };
            match kind {
                0..=7 => Value::Float(c + (seed >> 8) as f64 % 5.0 - 2.0),
                8 => Value::Float(c + 20.0),
                9 | 10 => Value::Null,
                11 => Value::Int(c as i64),
                12 => Value::Str("s".into()),
                13 => Value::Float(f64::NAN),
                14 => Value::Float(f64::INFINITY),
                _ => Value::Float(f64::NEG_INFINITY),
            }
        };
        let mut grid = |n: usize, word0_x_out: bool| -> Vec<Tuple> {
            (0..n)
                .map(|r| {
                    let mut vals = vec![Value::Float(1.0); s.len()];
                    vals[0] = Value::Timestamp(r as i64);
                    for lane in 0..8 {
                        vals[1 + lane] = cell(r, lane);
                    }
                    if word0_x_out && r < 64 {
                        vals[1] = Value::Float(100.0);
                    }
                    vals[s.len() - 1] = Value::Str("t".into());
                    Tuple::new_unchecked(s.clone(), vals)
                })
                .collect()
        };
        let all = Some(&[1usize, 2, 3, 4, 5, 6, 7, 8][..]);
        let no_ay = Some(&[1usize, 2, 3, 5, 6, 7, 8][..]);
        let shapes = [nested, or_first, with_null, with_false];
        for (k, e) in shapes.iter().enumerate() {
            let c = compile(e, &s, &reg).unwrap();
            assert!(format!("{c:?}").contains("All("), "{c:?}");
            for n in [1, 63, 64, 65, 130] {
                for (cols, word0_x_out) in [(all, false), (all, true), (no_ay, false)] {
                    let tuples = grid(n, word0_x_out);
                    let mut block = ColumnBlock::new();
                    block.fill_from_tuples_filtered(&tuples, cols);
                    let case = format!("shape {k}, {n} rows, {cols:?}, x out {word0_x_out}");
                    assert_matches_reference(&c, &block, &tuples, &case);
                }
            }
        }
    }

    /// The fused shapes of learned gesture queries, over batches of 1,
    /// 16, 30 (the serving batch) and 256 pseudo-random all-float rows:
    /// the kernels decide every row, bit for bit as the scalar oracle.
    #[test]
    fn fused_shapes_decide_every_all_float_row_as_scalar_does() {
        let s = SchemaBuilder::new("k").timestamp("ts");
        let cols = ["x", "y", "z", "ax", "ay", "az", "bx", "by", "bz"];
        let s = cols.iter().fold(s, |s, c| s.float(*c)).build().unwrap();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Value::Float((state % 1000) as f64 / 10.0)
        };
        let shapes = [
            ("band", "abs(x - 50) < 12"),
            ("cmp", "x > 50"),
            ("diff", "x - y > 20"),
            ("diff_band", "abs(x - y - 10) < 12"),
            ("dist", "dist(ax, ay, az, bx, by, bz) < 40"),
            (
                "and_all",
                "abs(x - 50) < 12 and abs(y - 50) < 12 and abs(z - 50) < 12",
            ),
            ("or_all", "x < 10 or abs(y - 50) < 5"),
        ];
        let reg = FunctionRegistry::with_builtins();
        let (mut block, mut masks) = (ColumnBlock::new(), BlockMasks::default());
        let mut scratch = EvalScratch::new();
        for batch in [1, 16, 30, 256] {
            let tuples: Vec<Tuple> = (0..batch)
                .map(|i| {
                    let mut vals = vec![Value::Timestamp(i as i64 * 33)];
                    vals.extend((0..cols.len()).map(|_| next()));
                    Tuple::new_unchecked(s.clone(), vals)
                })
                .collect();
            block.fill_from_tuples(&tuples);
            for (name, text) in shapes {
                let e = compile(&crate::parser::parse_expr(text).unwrap(), &s, &reg).unwrap();
                assert!(
                    matches!(
                        e,
                        CompiledExpr::Band { .. }
                            | CompiledExpr::Cmp { .. }
                            | CompiledExpr::AndAll(_)
                            | CompiledExpr::OrAll(_)
                    ),
                    "{name} fuses: {e:?}"
                );
                e.eval_block(&block, &mut masks, &mut scratch);
                let mut hits = 0;
                for (r, t) in tuples.iter().enumerate() {
                    let scalar = e.eval_bool(t).unwrap();
                    hits += usize::from(scalar);
                    assert!(masks.known.get(r), "{name}, batch {batch}: row {r} known");
                    assert_eq!(masks.truth.get(r), scalar, "{name}, batch {batch}: row {r}");
                }
                assert_eq!(masks.truth.count(), hits, "{name}, batch {batch}: hits");
            }
        }
    }

    #[test]
    fn unfused_shapes_stay_unknown() {
        let reg = FunctionRegistry::with_builtins();
        // Non-literal rhs: not fused, no kernel.
        let e = Expr::lt(Expr::col("x"), Expr::col("y"));
        let c = compile(&e, &schema(), &reg).unwrap();
        let tuples = rows(&[Value::Float(1.0)]);
        let mut block = ColumnBlock::new();
        block.fill_from_tuples(&tuples);
        let mut masks = BlockMasks::default();
        let mut scratch = EvalScratch::new();
        c.eval_block(&block, &mut masks, &mut scratch);
        assert!(!masks.known.any());
    }

    #[test]
    fn empty_block_yields_empty_masks() {
        let reg = FunctionRegistry::with_builtins();
        let e = Expr::lt(Expr::col("x"), Expr::lit(1.0));
        let c = compile(&e, &schema(), &reg).unwrap();
        let block = ColumnBlock::new();
        let mut masks = BlockMasks::default();
        let mut scratch = EvalScratch::new();
        c.eval_block(&block, &mut masks, &mut scratch);
        assert_eq!(masks.known.len(), 0);
    }
}
