//! Columnar (structure-of-arrays) batch representation.
//!
//! The row-major [`Tuple`] is the right shape for operators that rewrite
//! whole rows, but the gesture hot loop evaluates a handful of float
//! predicates over the same few columns of every tuple in a batch. A
//! [`ColumnBlock`] lays a batch out column-major: every `Float`-typed
//! column becomes one contiguous `f64` lane plus two validity bitmaps
//! (`Null` cells, and non-float cells such as an `Int` widening into a
//! float slot), so a predicate kernel can stream through a cache-line of
//! values with branch-free, autovectorizable loops. Non-float columns get
//! no lane at all — consumers fall back to the row-major tuples, which
//! remain the source of truth (the block is a *derived* view built once
//! per batch, never the owner of the data).
//!
//! Invalid cells still occupy a slot in the lane (holding an arbitrary
//! value) so row indices line up across lanes and with the tuple slice
//! the block was built from; kernels mask their results with the bitmaps.
//! All buffers are reused across batches: rebuilding a block for a new
//! batch of the same schema performs no heap allocation once warm.

use std::ops::Range;

use crate::schema::SchemaRef;
use crate::tuple::Tuple;
use crate::value::{Value, ValueType};

/// A fixed-length bitmask, one bit per batch row, stored as `u64` words
/// (bit `r % 64` of word `r / 64`). Bits past the length are always zero,
/// so word-wise folds need no tail handling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitMask {
    words: Vec<u64>,
    bits: usize,
}

impl BitMask {
    /// An empty mask.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of `u64` words needed for `bits` bits.
    pub fn words_for(bits: usize) -> usize {
        bits.div_ceil(64)
    }

    /// Resizes to `bits` bits, all zero. Capacity-preserving: shrinking
    /// or re-growing within a previous high-water mark never allocates.
    pub fn reset(&mut self, bits: usize) {
        self.bits = bits;
        self.words.clear();
        self.words.resize(Self::words_for(bits), 0);
    }

    /// Sets every bit (bits past the length stay zero).
    pub fn set_all(&mut self) {
        self.words.fill(!0u64);
        self.mask_tail();
    }

    /// Zeroes the unused high bits of the last word.
    fn mask_tail(&mut self) {
        let tail = self.bits % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.bits
    }

    /// True when the mask has zero bits.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.bits);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn unset(&mut self, i: usize) {
        debug_assert!(i < self.bits);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.bits);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// The backing words (immutable).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The backing words (mutable). Callers must keep bits past the
    /// length zero (use [`Self::mask_tail_words`] after bulk writes).
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Re-zeroes the out-of-range tail bits after bulk word writes.
    pub fn mask_tail_words(&mut self) {
        self.mask_tail();
    }

    /// True when any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Index of the first set bit at or after `from`. Reads the words
    /// as they are now, so a caller walking the mask with this may set
    /// further bits ahead of its position between calls.
    #[inline]
    pub fn next_set(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut word = *self.words.get(w)? & (!0u64 << (from % 64));
        while word == 0 {
            w += 1;
            word = *self.words.get(w)?;
        }
        Some(w * 64 + word.trailing_zeros() as usize)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        if self.bits == self.words.len() * 64 {
            self.words.push(0);
        }
        self.bits += 1;
        if bit {
            self.set(self.bits - 1);
        }
    }
}

/// One float column of a [`ColumnBlock`]: a contiguous `f64` lane plus
/// validity bitmaps. `data[r]` is meaningful only where neither bitmap
/// has bit `r` set.
#[derive(Debug, Default)]
pub struct FloatLane {
    data: Vec<f64>,
    /// The cell held [`Value::Null`].
    null: BitMask,
    /// The cell held a non-float, non-null value (e.g. an `Int` widening
    /// into a float slot, or a foreign-schema row): consumers must fall
    /// back to the row-major tuple for exact semantics.
    other: BitMask,
    /// [`Self::bounds`] once computed; every `&mut` write to the lane
    /// resets it to "not computed" (`None`).
    bounds: std::cell::Cell<Option<Option<(f64, f64)>>>,
}

impl FloatLane {
    /// The value lane (garbage where a validity bitmap is set).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Rows whose cell was `Null`.
    #[inline]
    pub fn null(&self) -> &BitMask {
        &self.null
    }

    /// Rows whose cell held a non-float, non-null value.
    #[inline]
    pub fn other(&self) -> &BitMask {
        &self.other
    }

    /// `(min, max)` over the batch when every cell is a plain non-`NaN`
    /// float; `None` for an empty lane or one with any `Null`, non-float
    /// or `NaN` cell. Computed at most once per batch, however many
    /// predicates read it.
    pub fn bounds(&self) -> Option<(f64, f64)> {
        if let Some(b) = self.bounds.get() {
            return b;
        }
        // Selects and a `NaN` flag, not `f64::min` and an early exit:
        // the loop has no data-dependent branch.
        let (mut lo, mut hi, mut nan) = (f64::INFINITY, f64::NEG_INFINITY, false);
        for &x in &self.data {
            lo = if x < lo { x } else { lo };
            hi = if x > hi { x } else { hi };
            nan |= x.is_nan();
        }
        let plain = !nan && !self.data.is_empty() && !self.null.any() && !self.other.any();
        let b = plain.then_some((lo, hi));
        self.bounds.set(Some(b));
        b
    }

    fn reset(&mut self, rows: usize) {
        self.data.clear();
        self.data.resize(rows, 0.0);
        self.null.reset(rows);
        self.other.reset(rows);
        *self.bounds.get_mut() = None;
    }
}

/// A column-major view of one batch of same-schema tuples.
///
/// Built once per batch next to the row-major scratch (from tuples via
/// [`Self::fill_from_tuples`], or straight from sensor frames by
/// `gesto_kinect::KinectSlots::write_block`). Only `Float`-typed schema
/// columns get lanes; everything else — and any row whose tuple carries
/// a different schema than the block layout — is reported through the
/// `other` bitmap so consumers replay those rows against the tuples.
#[derive(Debug, Default)]
pub struct ColumnBlock {
    rows: usize,
    /// Lane index per schema column (`None` for non-float columns).
    lane_of: Vec<Option<u32>>,
    lanes: Vec<FloatLane>,
    /// Whether each lane was materialised for the *current* batch (a
    /// column-filtered fill skips unread lanes; [`Self::lane`] hides
    /// the skipped ones so consumers fall back to the tuples).
    built: Vec<bool>,
    /// Schema the layout was resolved against (pointer identity is used
    /// as the cheap per-batch check; a different `Arc` re-resolves).
    schema: Option<SchemaRef>,
}

impl ColumnBlock {
    /// An empty block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rows in the current batch.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True when the current batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The lane of schema column `col`, or `None` when the column is
    /// not float-typed (or out of range / no layout yet / skipped by
    /// the current batch's column filter).
    #[inline]
    pub fn lane(&self, col: usize) -> Option<&FloatLane> {
        let idx = (*self.lane_of.get(col)?)?;
        self.built[idx as usize].then(|| &self.lanes[idx as usize])
    }

    /// Drops the current batch (keeps the layout and all capacity):
    /// no rows, and no lane readable until the next fill builds it.
    pub fn clear(&mut self) {
        self.rows = 0;
        self.built.fill(false);
    }

    /// Heap bytes held, by capacity (what the block keeps between
    /// batches, whatever the current batch uses of it).
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        let lanes: usize = self
            .lanes
            .iter()
            .map(|l| {
                (l.data.capacity() + l.null.words.capacity() + l.other.words.capacity())
                    * size_of::<u64>()
            })
            .sum();
        lanes
            + self.lanes.capacity() * size_of::<FloatLane>()
            + self.lane_of.capacity() * size_of::<Option<u32>>()
            + self.built.capacity()
    }

    /// Resolves the lane layout for `schema` (no-op when the layout is
    /// already for this schema `Arc`).
    fn ensure_layout(&mut self, schema: &SchemaRef) {
        if let Some(s) = &self.schema {
            if std::sync::Arc::ptr_eq(s, schema) {
                return;
            }
        }
        self.lane_of.clear();
        let mut lanes = 0u32;
        for f in schema.fields() {
            if f.ty == ValueType::Float {
                self.lane_of.push(Some(lanes));
                lanes += 1;
            } else {
                self.lane_of.push(None);
            }
        }
        // Reuse existing lane buffers; only grow the vector if the new
        // schema has more float columns than any previous one.
        if self.lanes.len() < lanes as usize {
            self.lanes.resize_with(lanes as usize, FloatLane::default);
        }
        self.built.clear();
        self.built.resize(self.lanes.len(), false);
        self.schema = Some(schema.clone());
    }

    /// Starts a new batch of `rows` rows laid out for `schema`, with
    /// every lane cell marked `Null` (the state of an unwritten slot).
    /// Writers then fill cells with [`Self::write_float`]. Reuses all
    /// buffers; allocation-free once warm.
    pub fn begin(&mut self, schema: &SchemaRef, rows: usize) {
        self.begin_filtered(schema, rows, None);
    }

    /// [`Self::begin`] restricted to a column filter (same contract as
    /// [`Self::fill_from_tuples_filtered`]): only the listed float
    /// columns are materialised; writes to skipped lanes are ignored
    /// and those lanes read back as absent.
    pub fn begin_filtered(&mut self, schema: &SchemaRef, rows: usize, cols: Option<&[usize]>) {
        crate::metrics::BLOCKS_BUILT_TOTAL.inc();
        crate::metrics::BLOCK_ROWS_BUILT_TOTAL.add(rows as u64);
        self.ensure_layout(schema);
        self.rows = rows;
        for (c, slot) in self.lane_of.iter().enumerate() {
            let Some(i) = slot else { continue };
            let wanted = cols.is_none_or(|f| f.binary_search(&c).is_ok());
            self.built[*i as usize] = wanted;
            if wanted {
                let lane = &mut self.lanes[*i as usize];
                lane.reset(rows);
                lane.null.set_all();
            }
        }
    }

    /// Writes one float cell (clearing its `Null` mark). `col` must be a
    /// float column of the layout schema; non-float columns — and lanes
    /// skipped by the [`Self::begin_filtered`] column filter — are
    /// ignored.
    #[inline]
    pub fn write_float(&mut self, col: usize, row: usize, v: f64) {
        self.write_lane(col, row..row + 1, |_| Some(v));
    }

    /// [`Self::write_float`] over `rows` of column `col`, one lane pass:
    /// `cell(r)` is row `r`'s value, `None` leaving the cell as it is.
    #[inline]
    pub fn write_lane<F: FnMut(usize) -> Option<f64>>(
        &mut self,
        col: usize,
        rows: Range<usize>,
        mut cell: F,
    ) {
        let Some(&Some(i)) = self.lane_of.get(col) else {
            return;
        };
        if self.built[i as usize] {
            let lane = &mut self.lanes[i as usize];
            for r in rows {
                if let Some(v) = cell(r) {
                    lane.data[r] = v;
                    lane.null.unset(r);
                }
            }
            *lane.bounds.get_mut() = None;
        }
    }

    /// Builds the block from a row-major batch: layout from the first
    /// tuple's schema, one pass per float column. Rows whose tuple
    /// carries a different schema `Arc` (or arity) than the first are
    /// marked `other` in every lane, forcing consumers back to the exact
    /// row-major semantics for those rows.
    pub fn fill_from_tuples(&mut self, tuples: &[Tuple]) {
        self.fill_from_tuples_filtered(tuples, None);
    }

    /// [`Self::fill_from_tuples`] restricted to a column filter: only
    /// the float columns listed in `cols` (sorted, deduplicated) are
    /// materialised; the skipped lanes read back as absent, so kernels
    /// fall back to the tuples for anything outside the filter. With
    /// `None`, every float column is built.
    ///
    /// The filter is how the data path avoids paying for the full
    /// 45-float joint block when the deployed gestures read a handful
    /// of joints: the engine/serve sync passes exactly the columns some
    /// compiled predicate reads.
    pub fn fill_from_tuples_filtered(&mut self, tuples: &[Tuple], cols: Option<&[usize]>) {
        let Some(first) = tuples.first() else {
            self.clear();
            return;
        };
        let schema = first.schema().clone();
        self.ensure_layout(&schema);
        self.rows = tuples.len();
        let ncols = schema.len();
        for (c, slot) in self.lane_of.iter().enumerate() {
            let Some(i) = slot else { continue };
            let wanted = cols.is_none_or(|f| f.binary_search(&c).is_ok());
            self.built[*i as usize] = wanted;
            if !wanted {
                continue;
            }
            let lane = &mut self.lanes[*i as usize];
            lane.reset(tuples.len());
            for (r, t) in tuples.iter().enumerate() {
                let vals = t.values();
                if !std::sync::Arc::ptr_eq(t.schema(), &schema) || vals.len() != ncols {
                    lane.other.set(r);
                    continue;
                }
                match &vals[c] {
                    Value::Float(x) => lane.data[r] = *x,
                    Value::Null => lane.null.set(r),
                    _ => lane.other.set(r),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;

    fn schema() -> SchemaRef {
        SchemaBuilder::new("k")
            .timestamp("ts")
            .float("x")
            .float("y")
            .str("tag")
            .build()
            .unwrap()
    }

    #[test]
    fn bitmask_basics() {
        let mut m = BitMask::new();
        m.reset(70);
        assert_eq!(m.len(), 70);
        assert!(!m.any());
        m.set(0);
        m.set(69);
        assert!(m.get(0) && m.get(69) && !m.get(1));
        assert_eq!(m.count(), 2);
        assert_eq!(m.next_set(0), Some(0));
        assert_eq!(m.next_set(1), Some(69), "crosses the word boundary");
        assert_eq!(m.next_set(69), Some(69));
        assert_eq!(m.next_set(70), None, "`from` may equal the length");
        m.unset(0);
        assert_eq!(m.count(), 1);
        m.set_all();
        assert_eq!(m.count(), 70, "tail bits masked");
        assert_eq!(m.words().len(), 2);
        assert_eq!(m.words()[1] >> 6, 0, "bits past len stay zero");
        m.reset(3);
        assert!(!m.any(), "reset zeroes");
    }

    #[test]
    fn lanes_only_for_float_columns() {
        let s = schema();
        let tuples = vec![
            Tuple::new(
                s.clone(),
                vec![
                    Value::Timestamp(0),
                    Value::Float(1.5),
                    Value::Null,
                    Value::Str("a".into()),
                ],
            )
            .unwrap(),
            Tuple::new(
                s.clone(),
                vec![
                    Value::Timestamp(1),
                    Value::Int(2),
                    Value::Float(3.0),
                    Value::Null,
                ],
            )
            .unwrap(),
        ];
        let mut b = ColumnBlock::new();
        b.fill_from_tuples(&tuples);
        assert_eq!(b.rows(), 2);
        assert!(b.lane(0).is_none(), "timestamp column has no lane");
        assert!(b.lane(3).is_none(), "str column has no lane");
        assert!(b.lane(99).is_none());

        let x = b.lane(1).unwrap();
        assert_eq!(x.values()[0], 1.5);
        assert!(!x.null().get(0) && !x.other().get(0));
        assert!(x.other().get(1), "Int widening is an `other` cell");

        let y = b.lane(2).unwrap();
        assert!(y.null().get(0), "Null cell flagged");
        assert_eq!(y.values()[1], 3.0);
    }

    #[test]
    fn refill_reuses_layout_and_capacity() {
        let s = schema();
        let mk = |n: usize| -> Vec<Tuple> {
            (0..n)
                .map(|i| {
                    Tuple::new(
                        s.clone(),
                        vec![
                            Value::Timestamp(i as i64),
                            Value::Float(i as f64),
                            Value::Float(0.0),
                            Value::Null,
                        ],
                    )
                    .unwrap()
                })
                .collect()
        };
        let mut b = ColumnBlock::new();
        b.fill_from_tuples(&mk(8));
        assert_eq!(b.rows(), 8);
        b.fill_from_tuples(&mk(3));
        assert_eq!(b.rows(), 3);
        assert_eq!(b.lane(1).unwrap().values(), &[0.0, 1.0, 2.0]);
        b.fill_from_tuples(&[]);
        assert_eq!(b.rows(), 0);
    }

    #[test]
    fn foreign_schema_rows_are_other() {
        let s = schema();
        // Same layout, different Arc: pointer identity must flag the row.
        let s2 = SchemaBuilder::new("k")
            .timestamp("ts")
            .float("x")
            .float("y")
            .str("tag")
            .build()
            .unwrap();
        let t1 = Tuple::new(
            s.clone(),
            vec![
                Value::Timestamp(0),
                Value::Float(1.0),
                Value::Float(2.0),
                Value::Null,
            ],
        )
        .unwrap();
        let t2 = Tuple::new(
            s2,
            vec![
                Value::Timestamp(1),
                Value::Float(9.0),
                Value::Float(9.0),
                Value::Null,
            ],
        )
        .unwrap();
        let mut b = ColumnBlock::new();
        b.fill_from_tuples(&[t1, t2]);
        let x = b.lane(1).unwrap();
        assert!(!x.other().get(0));
        assert!(x.other().get(1), "foreign-schema row forced to fallback");
    }

    #[test]
    fn begin_write_float_matches_fill() {
        let s = schema();
        let tuples = vec![Tuple::new(
            s.clone(),
            vec![
                Value::Timestamp(0),
                Value::Float(4.0),
                Value::Null,
                Value::Null,
            ],
        )
        .unwrap()];
        let mut via_fill = ColumnBlock::new();
        via_fill.fill_from_tuples(&tuples);
        let mut via_write = ColumnBlock::new();
        via_write.begin(&s, 1);
        via_write.write_float(1, 0, 4.0);
        via_write.write_float(0, 0, 123.0); // non-float column: ignored
        for c in 0..s.len() {
            match (via_fill.lane(c), via_write.lane(c)) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.values(), b.values(), "col {c}");
                    assert_eq!(a.null(), b.null(), "col {c}");
                    assert_eq!(a.other(), b.other(), "col {c}");
                }
                other => panic!("lane presence diverged on col {c}: {other:?}"),
            }
        }
    }

    #[test]
    fn lane_writes_match_cell_writes() {
        // 70 rows cross a bitmap word; a dirty block (other schema
        // shape, more rows, every lane built) must not show through.
        let s = schema();
        let cols: &[usize] = &[2];
        let mut by_cell = ColumnBlock::new();
        by_cell.begin_filtered(&s, 70, Some(cols));
        let mut by_lane = ColumnBlock::new();
        by_lane.begin(&s, 90);
        by_lane.write_float(2, 80, 1.0);
        by_lane.clear();
        assert!(by_lane.lane(2).is_none() && by_lane.rows() == 0);
        by_lane.begin_filtered(&s, 70, Some(cols));
        let cell = |r: usize| (!r.is_multiple_of(3)).then_some(r as f64);
        for r in 0..70 {
            if let Some(x) = cell(r) {
                by_cell.write_float(2, r, x);
            }
        }
        by_lane.write_lane(2, 0..30, cell);
        by_lane.write_lane(2, 30..70, cell);
        by_lane.write_lane(1, 0..70, |_| Some(7.0)); // filtered out: ignored
        assert!(by_lane.lane(1).is_none());
        let (a, b) = (by_cell.lane(2).unwrap(), by_lane.lane(2).unwrap());
        assert_eq!(a.values(), b.values());
        assert_eq!(a.null(), b.null());
        assert_eq!(a.other(), b.other());
        assert!(by_lane.bytes() >= 70 * 8);
        assert_eq!(ColumnBlock::new().bytes(), 0);
    }

    #[test]
    fn bounds_are_dropped_by_every_write() {
        let s = schema();
        let row = |x: Value| {
            let vals = vec![Value::Timestamp(0), x, Value::Float(0.0), Value::Null];
            Tuple::new_unchecked(s.clone(), vals)
        };
        let floats = |xs: &[f64]| xs.iter().map(|x| row(Value::Float(*x))).collect::<Vec<_>>();
        let bounds = |b: &ColumnBlock| b.lane(1).and_then(FloatLane::bounds);

        // write_float after a read.
        let mut b = ColumnBlock::new();
        b.begin(&s, 2);
        b.write_float(1, 0, 3.0);
        b.write_float(1, 1, -1.0);
        assert_eq!(bounds(&b), Some((-1.0, 3.0)));
        b.write_float(1, 1, 7.0);
        assert_eq!(bounds(&b), Some((3.0, 7.0)));

        // write_lane after a read.
        b.write_lane(1, 0..2, |r| (r == 1).then_some(-5.0));
        assert_eq!(bounds(&b), Some((-5.0, 3.0)));

        // A filtered fill, then clear and a fresh begin.
        b.fill_from_tuples_filtered(&floats(&[2.0, 4.0]), Some(&[1]));
        assert_eq!(bounds(&b), Some((2.0, 4.0)));
        b.clear();
        assert_eq!(bounds(&b), None);
        b.begin(&s, 1);
        b.write_float(1, 0, 9.0);
        assert_eq!(bounds(&b), Some((9.0, 9.0)));

        // ±inf are plain floats; Null, Int and NaN cells void the bounds.
        b.fill_from_tuples(&floats(&[f64::INFINITY, 0.0, f64::NEG_INFINITY]));
        assert_eq!(bounds(&b), Some((f64::NEG_INFINITY, f64::INFINITY)));
        for bad in [Value::Null, Value::Int(1), Value::Float(f64::NAN)] {
            b.fill_from_tuples(&[row(Value::Float(1.0)), row(bad.clone())]);
            assert_eq!(bounds(&b), None, "{bad:?}");
        }
        b.fill_from_tuples(&[]);
        assert_eq!(bounds(&b), None);
    }
}
