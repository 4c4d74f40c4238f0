//! Vectorized (batch) evaluation of fused predicates over a
//! [`ColumnBlock`].
//!
//! The scalar [`CompiledExpr::eval`] walks enum-tagged `Value` slices one
//! tuple at a time. For the fused hot shapes — [`CompiledExpr::Band`],
//! [`CompiledExpr::Cmp`] (including `dist()` inputs) and their
//! `AndAll`/`OrAll` folds — this module evaluates a whole batch in one
//! pass over the block's contiguous `f64` lanes, producing per-row
//! bitmasks. The loops are chunked (64 rows per mask word) and
//! branch-free so stable rustc autovectorizes them; no nightly
//! `std::simd` is involved.
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
//! **A learned pose is decided in one pass.** A conjunction of
//! `Band`-on-column terms — every pose `query_gen` emits, and a lone band
//! as its one-term case — is decided word by word (`col_bands_into`):
//! the running known / null / decided-false words of 64 rows stay in
//! registers while each term's bits fold in, and the word stops at the
//! first term that leaves none of its rows alive. The masks are bit-
//! identical to folding each term's own `eval_block` masks; a term with
//! a `NaN` centre or width, or an unbuilt lane, sends the conjunction
//! down that per-term fold instead.

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

/// Pooled scratch buffers for block evaluation.
///
/// Kernel recursion (e.g. an `AndAll` over terms other than column
/// bands) needs temporary value lanes and masks; taking them from this
/// pool instead of allocating keeps the steady-state hot loop
/// allocation-free (the pool warms up on the first batch and is reused
/// afterwards).
#[derive(Debug, Default)]
pub struct EvalScratch {
    vals: Vec<Vec<f64>>,
    bits: Vec<BitMask>,
    masks: Vec<BlockMasks>,
}

impl EvalScratch {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    fn take_vals(&mut self) -> Vec<f64> {
        self.vals.pop().unwrap_or_default()
    }

    fn give_vals(&mut self, v: Vec<f64>) {
        self.vals.push(v);
    }

    fn take_bits(&mut self) -> BitMask {
        self.bits.pop().unwrap_or_default()
    }

    fn give_bits(&mut self, b: BitMask) {
        self.bits.push(b);
    }

    fn take_masks(&mut self) -> BlockMasks {
        self.masks.pop().unwrap_or_default()
    }

    fn give_masks(&mut self, m: BlockMasks) {
        self.masks.push(m);
    }
}

/// Reads a fused float quantity ([`FusedInput`]) over a whole block:
/// `vals[r]` receives the quantity for row `r`, `null` marks rows whose
/// scalar read yields `Null`, and `float` marks rows where every
/// involved cell was a plain float (so `vals[r]` is exact — possibly
/// `NaN`/`±inf`, which comparisons handle separately). Rows in neither
/// mask held some other value kind and must take the scalar fallback.
///
/// Returns `false` when a referenced column has no float lane (non-float
/// column type): the caller then leaves every row unknown.
pub fn eval_fused_block(
    input: &FusedInput,
    block: &ColumnBlock,
    vals: &mut Vec<f64>,
    null: &mut BitMask,
    float: &mut BitMask,
) -> bool {
    let rows = block.rows();
    vals.clear();
    null.reset(rows);
    float.reset(rows);
    match input {
        FusedInput::Col(i) => {
            let Some(lane) = block.lane(*i) else {
                return false;
            };
            vals.extend_from_slice(lane.values());
            null.copy_from(lane.null());
            float.set_all();
            for ((f, n), o) in float
                .words_mut()
                .iter_mut()
                .zip(lane.null().words())
                .zip(lane.other().words())
            {
                *f &= !(n | o);
            }
            true
        }
        // Binary arithmetic checks `Null` on either side before the
        // numeric check (see `FusedInput::read`), so the null mask is
        // the plain union, independent of `other` cells.
        FusedInput::Diff(a, b) => {
            let (Some(la), Some(lb)) = (block.lane(*a), block.lane(*b)) else {
                return false;
            };
            let (xa, xb) = (la.values(), lb.values());
            vals.extend(xa.iter().zip(xb).map(|(x, y)| x - y));
            float.set_all();
            for i in 0..null.words().len() {
                let n = la.null().words()[i] | lb.null().words()[i];
                null.words_mut()[i] |= n;
                float.words_mut()[i] &= !(n | la.other().words()[i] | lb.other().words()[i]);
            }
            true
        }
        // `dist()` scans its six arguments left to right: the *first*
        // non-float cell decides between `Null` and fallback, exactly
        // like the scalar read.
        FusedInput::Dist(cols) => {
            // Fixed-size lane table: this runs per batch inside the
            // zero-allocation hot loop.
            let mut lanes = [None; 6];
            for (slot, c) in lanes.iter_mut().zip(cols) {
                match block.lane(*c) {
                    Some(l) => *slot = Some(l),
                    None => return false,
                }
            }
            let lanes = lanes.map(|l| l.expect("all six lanes resolved"));
            // `pending[r]`: every lane scanned so far was a plain float.
            float.set_all(); // reused as the running `pending` mask
            for lane in &lanes {
                for i in 0..null.words().len() {
                    let pending = float.words()[i];
                    null.words_mut()[i] |= pending & lane.null().words()[i];
                    float.words_mut()[i] =
                        pending & !(lane.null().words()[i] | lane.other().words()[i]);
                }
            }
            let (ax, ay, az) = (lanes[0].values(), lanes[1].values(), lanes[2].values());
            let (bx, by, bz) = (lanes[3].values(), lanes[4].values(), lanes[5].values());
            vals.extend((0..rows).map(|r| {
                // Same expression, same order as the scalar kernel.
                let dx = ax[r] - bx[r];
                let dy = ay[r] - by[r];
                let dz = az[r] - bz[r];
                (dx * dx + dy * dy + dz * dz).sqrt()
            }));
            true
        }
    }
}

/// Comparison kernel: `out.truth[r] = vals[r] op rhs` for every row
/// where all inputs were floats and the quantity is not `NaN` (a `NaN`
/// ordering comparison errors on the scalar path, so those rows stay
/// unknown); `null` rows are known-`Null`.
fn compare_into(
    vals: &[f64],
    op: BinOp,
    rhs: f64,
    float: &BitMask,
    null: &BitMask,
    out: &mut BlockMasks,
) {
    let rows = vals.len();
    out.reset(rows);
    macro_rules! cmp_words {
        ($op:tt) => {
            for w in 0..out.known.words().len() {
                let start = w * 64;
                let chunk = &vals[start..rows.min(start + 64)];
                let mut cmp = 0u64;
                let mut nan = 0u64;
                for (b, &x) in chunk.iter().enumerate() {
                    cmp |= ((x $op rhs) as u64) << b;
                    nan |= ((x != x) as u64) << b;
                }
                let f = float.words()[w] & !nan;
                let n = null.words()[w];
                out.truth.words_mut()[w] = cmp & f;
                out.null.words_mut()[w] = n;
                out.known.words_mut()[w] = f | n;
            }
        };
    }
    match op {
        BinOp::Lt => cmp_words!(<),
        BinOp::Le => cmp_words!(<=),
        BinOp::Gt => cmp_words!(>),
        BinOp::Ge => cmp_words!(>=),
        BinOp::Eq => cmp_words!(==),
        BinOp::Ne => cmp_words!(!=),
        // Not a comparison: leave everything unknown (never produced by
        // the fuser; defensive).
        _ => {}
    }
}

/// The lane, shift and width of a term [`col_bands_into`] decides:
/// `abs(col - c) < w` over a built lane, `c` and `w` not `NaN` (a
/// `NaN` comparison errs scalar-side). `x + c` is exactly `x - (-c)`.
fn col_band<'a>(t: &CompiledExpr, block: &'a ColumnBlock) -> Option<(&'a FloatLane, f64, f64)> {
    match t {
        CompiledExpr::Band {
            input: FusedInput::Col(i),
            add,
            center,
            width,
            ..
        } if !(center.is_nan() || width.is_nan()) => Some((
            block.lane(*i)?,
            if *add { -center } else { *center },
            *width,
        )),
        _ => None,
    }
}

/// The `abs(x - c) < w` and `NaN` bits of one word's rows (at most 64).
/// Eight rows at a time, so each row's bit has a constant position and
/// the loop vectorises to compare masks and ORs, not per-row shifts.
fn band_word(xs: &[f64], c: f64, width: f64) -> (u64, u64) {
    let (mut cmp, mut nan) = (0u64, 0u64);
    let mut bits = |xs: &[f64], at: usize| {
        let (mut cb, mut nb) = (0u64, 0u64);
        for (i, &x) in xs.iter().enumerate() {
            let y = (x - c).abs();
            cb |= ((y < width) as u64) << i;
            nb |= (y.is_nan() as u64) << i;
        }
        // `% 64`: an empty tail of a full word sits at bit 64, adding 0.
        cmp |= cb << (at % 64);
        nan |= nb << (at % 64);
    };
    let chunks = xs.chunks_exact(8);
    let tail = chunks.remainder();
    for (k, ch) in chunks.enumerate() {
        bits(ch, 8 * k);
    }
    bits(tail, xs.len() - tail.len());
    (cmp, nan)
}

/// The word routine of the module docs ("A learned pose is decided in
/// one pass"): decides the conjunction of `terms` into `out` with the
/// Kleene rule of the `AndAll` fold, taking no mask from the pool.
/// Returns `false`, writing nothing, when some term is not a
/// [`col_band`].
fn col_bands_into(terms: &[CompiledExpr], block: &ColumnBlock, out: &mut BlockMasks) -> bool {
    if !terms.iter().all(|t| col_band(t, block).is_some()) {
        return false;
    }
    let rows = block.rows();
    for w in 0..out.known.words().len() {
        let (start, end) = (w * 64, rows.min(w * 64 + 64));
        let mut known = !0u64 >> (64 - (end - start));
        let (mut alive, mut null, mut dead) = (known, 0u64, 0u64);
        for (lane, c, width) in terms.iter().filter_map(|t| col_band(t, block)) {
            let (cmp, nan) = band_word(&lane.values()[start..end], c, width);
            let n = lane.null().words()[w];
            let f = !(n | lane.other().words()[w] | nan);
            // A live row the term leaves undecided is unknown overall;
            // a `Null` row stays alive, a later `false` still wins.
            known &= !(alive & !(f | n));
            dead |= alive & f & !cmp;
            null |= alive & n;
            alive &= (f & cmp) | n;
            if alive == 0 {
                break;
            }
        }
        out.truth.words_mut()[w] = known & !dead & !null;
        out.null.words_mut()[w] = known & !dead & null;
        out.known.words_mut()[w] = known;
    }
    true
}

/// Single-pass compare straight over a column lane — the `Col` fast
/// path of `Cmp`: no copy into scratch, the comparison runs in the same
/// chunked loop that packs the result bits.
fn lane_compare_into(
    xs: &[f64],
    op: BinOp,
    rhs: f64,
    null: &BitMask,
    other: &BitMask,
    out: &mut BlockMasks,
) {
    let rows = xs.len();
    out.reset(rows);
    macro_rules! cmp_words {
        ($op:tt) => {
            for w in 0..out.known.words().len() {
                let start = w * 64;
                let chunk = &xs[start..rows.min(start + 64)];
                let mut cmp = 0u64;
                let mut nan = 0u64;
                for (b, &x) in chunk.iter().enumerate() {
                    cmp |= ((x $op rhs) as u64) << b;
                    nan |= ((x != x) as u64) << b;
                }
                let n = null.words()[w];
                let f = !(n | other.words()[w]) & !nan;
                out.truth.words_mut()[w] = cmp & f;
                out.null.words_mut()[w] = n;
                out.known.words_mut()[w] = f | n;
            }
        };
    }
    match op {
        BinOp::Lt => cmp_words!(<),
        BinOp::Le => cmp_words!(<=),
        BinOp::Gt => cmp_words!(>),
        BinOp::Ge => cmp_words!(>=),
        BinOp::Eq => cmp_words!(==),
        BinOp::Ne => cmp_words!(!=),
        _ => return,
    }
    // `!(n | o)` sets bits past the row count; re-establish the
    // mask invariant (bits past the length are zero).
    out.truth.mask_tail_words();
    out.known.mask_tail_words();
}

/// Single-pass two-lane kernel — the `Diff` fast path of `Band`/`Cmp`:
/// the difference `la[r] - lb[r]` is mapped (`|d ± c|` for bands,
/// identity for plain comparisons) and compared in the same chunked
/// loop that packs the result bits. No difference lane is materialised
/// and the row range is scanned once, where the scratch path copied
/// `la - lb` into a temporary and re-scanned it (plus its masks) in
/// [`compare_into`].
///
/// Mask semantics match [`eval_fused_block`]'s `Diff` arm exactly:
/// `Null` on either side wins over a non-float cell on the other (the
/// scalar read checks `Null` first), any `other` cell defers the row,
/// and a `NaN` difference stays unknown because its scalar comparison
/// would error.
fn diff_compare_into(
    la: &FloatLane,
    lb: &FloatLane,
    op: BinOp,
    rhs: f64,
    map: impl Fn(f64) -> f64 + Copy,
    out: &mut BlockMasks,
) {
    let (xa, xb) = (la.values(), lb.values());
    let rows = xa.len();
    out.reset(rows);
    macro_rules! cmp_words {
        ($op:tt) => {
            for w in 0..out.known.words().len() {
                let start = w * 64;
                let end = rows.min(start + 64);
                let (ca, cb) = (&xa[start..end], &xb[start..end]);
                let mut cmp = 0u64;
                let mut nan = 0u64;
                for (b, (&x, &y)) in ca.iter().zip(cb).enumerate() {
                    let d = map(x - y);
                    cmp |= ((d $op rhs) as u64) << b;
                    nan |= ((d != d) as u64) << b;
                }
                let n = la.null().words()[w] | lb.null().words()[w];
                let f = !(n | la.other().words()[w] | lb.other().words()[w]) & !nan;
                out.truth.words_mut()[w] = cmp & f;
                out.null.words_mut()[w] = n;
                out.known.words_mut()[w] = f | n;
            }
        };
    }
    match op {
        BinOp::Lt => cmp_words!(<),
        BinOp::Le => cmp_words!(<=),
        BinOp::Gt => cmp_words!(>),
        BinOp::Ge => cmp_words!(>=),
        BinOp::Eq => cmp_words!(==),
        BinOp::Ne => cmp_words!(!=),
        _ => return,
    }
    // `!(n | o)` sets bits past the row count; re-establish the
    // mask invariant (bits past the length are zero).
    out.truth.mask_tail_words();
    out.known.mask_tail_words();
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
    /// the module docs for the exactness contract). `scratch` pools the
    /// temporary lanes/masks so warm steady-state calls allocate
    /// nothing. Returns `true` when the lane bounds decided every row
    /// false with no row pass.
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

    /// The row kernels behind [`Self::eval_block`]; `out` is already
    /// reset to the block's rows.
    fn eval_rows(&self, block: &ColumnBlock, out: &mut BlockMasks, scratch: &mut EvalScratch) {
        if col_bands_into(self.conjuncts(), block, out) {
            return;
        }
        let rows = block.rows();
        match self {
            CompiledExpr::Band {
                input,
                add,
                center,
                width,
                ..
            } => {
                if center.is_nan() || width.is_nan() {
                    return; // scalar comparison may error: stay unknown
                }
                let (add, center) = (*add, *center);
                match input {
                    // A built lane is `col_bands_into`'s; an unbuilt one
                    // leaves every row unknown.
                    FusedInput::Col(_) => return,
                    // Single-pass fast path over both lanes at once.
                    FusedInput::Diff(a, b) => {
                        if let (Some(la), Some(lb)) = (block.lane(*a), block.lane(*b)) {
                            diff_compare_into(
                                la,
                                lb,
                                BinOp::Lt,
                                *width,
                                move |d| (if add { d + center } else { d - center }).abs(),
                                out,
                            );
                        }
                        return;
                    }
                    FusedInput::Dist(_) => {}
                }
                let mut vals = scratch.take_vals();
                let mut null = scratch.take_bits();
                let mut float = scratch.take_bits();
                if eval_fused_block(input, block, &mut vals, &mut null, &mut float) {
                    for x in vals.iter_mut() {
                        *x = if add { *x + center } else { *x - center }.abs();
                    }
                    compare_into(&vals, BinOp::Lt, *width, &float, &null, out);
                }
                scratch.give_bits(float);
                scratch.give_bits(null);
                scratch.give_vals(vals);
            }
            CompiledExpr::Cmp { input, op, rhs, .. } => {
                if rhs.is_nan() {
                    return;
                }
                match input {
                    FusedInput::Col(i) => {
                        if let Some(lane) = block.lane(*i) {
                            lane_compare_into(
                                lane.values(),
                                *op,
                                *rhs,
                                lane.null(),
                                lane.other(),
                                out,
                            );
                        }
                        return;
                    }
                    FusedInput::Diff(a, b) => {
                        if let (Some(la), Some(lb)) = (block.lane(*a), block.lane(*b)) {
                            diff_compare_into(la, lb, *op, *rhs, |d| d, out);
                        }
                        return;
                    }
                    FusedInput::Dist(_) => {}
                }
                let mut vals = scratch.take_vals();
                let mut null = scratch.take_bits();
                let mut float = scratch.take_bits();
                if eval_fused_block(input, block, &mut vals, &mut null, &mut float) {
                    compare_into(&vals, *op, *rhs, &float, &null, out);
                }
                scratch.give_bits(float);
                scratch.give_bits(null);
                scratch.give_vals(vals);
            }
            // Kleene conjunction, folded word-wise. A row stays `alive`
            // while no term decided it `false`; an unknown term on a
            // live row makes the whole row unknown (the scalar walk
            // might error there), while rows already decided false
            // short-circuit past later terms exactly like the scalar
            // evaluator.
            CompiledExpr::AndAll(terms) => {
                let mut term = scratch.take_masks();
                let mut alive = scratch.take_bits();
                let mut dead_false = scratch.take_bits();
                alive.reset(rows);
                alive.set_all();
                dead_false.reset(rows);
                out.known.set_all();
                for t in terms {
                    t.eval_block(block, &mut term, scratch);
                    for w in 0..alive.words().len() {
                        let a = alive.words()[w];
                        let tk = term.known.words()[w];
                        let t_false = tk & !term.truth.words()[w] & !term.null.words()[w];
                        out.known.words_mut()[w] &= !(a & !tk);
                        dead_false.words_mut()[w] |= a & t_false;
                        out.null.words_mut()[w] |= a & term.null.words()[w];
                        alive.words_mut()[w] = a & tk & !t_false;
                    }
                    if !alive.any() {
                        break; // every row decided false or went unknown
                    }
                }
                for w in 0..out.known.words().len() {
                    let k = out.known.words()[w];
                    let f = dead_false.words()[w];
                    let n = out.null.words()[w];
                    out.null.words_mut()[w] = k & !f & n;
                    out.truth.words_mut()[w] = k & !f & !n;
                }
                scratch.give_bits(dead_false);
                scratch.give_bits(alive);
                scratch.give_masks(term);
            }
            // Kleene disjunction: `true` short-circuits, `Null` is
            // sticky-unknown.
            CompiledExpr::OrAll(terms) => {
                let mut term = scratch.take_masks();
                let mut alive = scratch.take_bits();
                let mut dead_true = scratch.take_bits();
                alive.reset(rows);
                alive.set_all();
                dead_true.reset(rows);
                out.known.set_all();
                for t in terms {
                    t.eval_block(block, &mut term, scratch);
                    for w in 0..alive.words().len() {
                        let a = alive.words()[w];
                        let tk = term.known.words()[w];
                        let t_true = tk & term.truth.words()[w];
                        out.known.words_mut()[w] &= !(a & !tk);
                        dead_true.words_mut()[w] |= a & t_true;
                        out.null.words_mut()[w] |= a & term.null.words()[w];
                        alive.words_mut()[w] = a & tk & !t_true;
                    }
                    if !alive.any() {
                        break;
                    }
                }
                for w in 0..out.known.words().len() {
                    let k = out.known.words()[w];
                    let t = dead_true.words()[w];
                    let n = out.null.words()[w];
                    out.truth.words_mut()[w] = k & t;
                    out.null.words_mut()[w] = k & !t & n;
                }
                scratch.give_bits(dead_true);
                scratch.give_bits(alive);
                scratch.give_masks(term);
            }
            CompiledExpr::Literal(v) => match v {
                Value::Bool(b) => {
                    out.known.set_all();
                    if *b {
                        out.truth.set_all();
                    }
                }
                Value::Null => {
                    out.known.set_all();
                    out.null.set_all();
                }
                // A non-boolean literal in predicate position: standalone
                // it is simply "no match", but inside `and`/`or` the
                // scalar walk errors — stay unknown either way.
                _ => {}
            },
            // Column reads, unfused binaries, unary ops, calls: no
            // kernel; the scalar path handles every row.
            _ => {}
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

        // Band over a difference: |x - y - 2| < 1 takes the same
        // two-lane single pass.
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

    /// The Kleene AND of each term's own `eval_block` masks, row by row:
    /// the fold `col_bands_into` must reproduce bit for bit.
    fn and_reference(terms: &[CompiledExpr], block: &ColumnBlock) -> BlockMasks {
        let rows = block.rows();
        let (mut out, mut term) = (BlockMasks::default(), BlockMasks::default());
        let mut scratch = EvalScratch::new();
        out.reset(rows);
        out.known.set_all();
        let (mut alive, mut dead) = (out.known.clone(), out.truth.clone());
        for t in terms {
            t.eval_block(block, &mut term, &mut scratch);
            for r in 0..rows {
                if !alive.get(r) {
                    continue;
                }
                if !term.known.get(r) {
                    out.known.unset(r); // the scalar walk might err here
                    alive.unset(r);
                } else if term.null.get(r) {
                    out.null.set(r); // sticky, unless a later term is false
                } else if !term.truth.get(r) {
                    dead.set(r);
                    alive.unset(r);
                }
            }
        }
        for r in 0..rows {
            if !out.known.get(r) || dead.get(r) {
                out.null.unset(r);
            } else if !out.null.get(r) {
                out.truth.set(r);
            }
        }
        out
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
        // (predicate, rows, x out of band on word 0, lanes built, routine?)
        let all = Some(&[1usize, 2, 3][..]);
        let mut cases = Vec::new();
        for n in [1, 30, 63, 64, 65, 130] {
            cases.push((pose.clone(), n, false, all, true));
            cases.push((x.clone(), n, false, all, true));
        }
        cases.push((pose.clone(), 130, true, all, true));
        cases.push((pose.clone(), 130, false, Some(&[1, 2][..]), false));
        cases.push((nan_centre, 130, false, all, false));
        for (i, (e, n, word0_x_out, cols, routine)) in cases.into_iter().enumerate() {
            let c = compile(&e, &s, &reg).unwrap();
            let tuples = grid(n, word0_x_out);
            let mut block = ColumnBlock::new();
            block.fill_from_tuples_filtered(&tuples, cols);
            let expect = and_reference(c.conjuncts(), &block);
            let (mut masks, mut scratch) = (BlockMasks::default(), EvalScratch::new());
            masks.reset(n);
            assert_eq!(col_bands_into(c.conjuncts(), &block, &mut masks), routine);
            for bounds in [false, true] {
                if bounds {
                    c.eval_block(&block, &mut masks, &mut scratch);
                } else {
                    masks.reset(n);
                    c.eval_rows(&block, &mut masks, &mut scratch);
                }
                assert_eq!(masks.truth, expect.truth, "case {i}: {c:?}");
                assert_eq!(masks.null, expect.null, "case {i}");
                assert_eq!(masks.known, expect.known, "case {i}");
            }
            if word0_x_out {
                assert_eq!(masks.known.words()[0], !0, "word 0 known false");
                assert_eq!(masks.truth.words()[0] | masks.null.words()[0], 0);
                assert!(masks.truth.words()[1] != 0, "word 1 still decided");
            }
            for (r, t) in tuples
                .iter()
                .enumerate()
                .filter(|(r, _)| masks.known.get(*r))
            {
                let scalar = c
                    .eval(t)
                    .unwrap_or_else(|e| panic!("case {i} row {r}: {e}"));
                let decided = match (masks.truth.get(r), masks.null.get(r)) {
                    (true, _) => Value::Bool(true),
                    (_, true) => Value::Null,
                    _ => Value::Bool(false),
                };
                assert_eq!(scalar, decided, "case {i} row {r}");
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
