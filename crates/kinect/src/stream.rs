//! Converting skeleton frames to stream tuples (the `kinect` stream).
//!
//! The hot path never looks fields up by name: [`KinectSlots`] resolves
//! the kinect tuple layout to positional slot indices once, and every
//! frame↔tuple conversion in the workspace goes through it.

use std::sync::Arc;

use gesto_stream::{ColumnBlock, Field, Schema, SchemaRef, Tuple, Value, ValueType};

use crate::joints::{Joint, SkeletonFrame, ALL_JOINTS, JOINT_COUNT};
use crate::vec3::Vec3;

/// Name of the raw sensor stream.
pub const KINECT_STREAM: &str = "kinect";

/// Builds the `kinect` stream schema:
/// `(player: int, ts: timestamp, <joint>_x/_y/_z: float × 15)`.
pub fn kinect_schema() -> SchemaRef {
    schema_named(KINECT_STREAM, "")
}

/// Builds a kinect-layout schema under another stream name with an
/// optional per-field suffix (used by the transformed `kinect_t` view).
pub fn schema_named(name: &str, field_suffix: &str) -> SchemaRef {
    let mut fields = Vec::with_capacity(2 + 3 * ALL_JOINTS.len());
    fields.push(Field::new("player", ValueType::Int));
    fields.push(Field::new("ts", ValueType::Timestamp));
    for j in ALL_JOINTS {
        for axis in ["x", "y", "z"] {
            fields.push(Field::new(
                format!("{}_{axis}{field_suffix}", j.prefix()),
                ValueType::Float,
            ));
        }
    }
    Arc::new(Schema::new(name, fields).expect("static kinect schema"))
}

/// Slot indices of a kinect-layout tuple, resolved once per schema.
///
/// Every per-joint loop over a kinect-layout tuple (`tuple_to_frame`,
/// the Fig. 1 trace tuples, the `kinect_t` view operator) shares this
/// table; after [`Self::resolve`] all reads and writes are plain slice
/// indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KinectSlots {
    player: Option<usize>,
    ts: Option<usize>,
    /// `(x, y, z)` value slots per joint, [`Joint::index`]-ordered;
    /// `None` when the schema lacks any of the three coordinate fields.
    joints: [Option<[usize; 3]>; JOINT_COUNT],
    /// Distinct value slots resolved above ([`Self::covers_frame`]).
    covered: usize,
}

impl KinectSlots {
    /// Resolves the slot table against `schema` with an optional field
    /// suffix (e.g. `""` for `kinect`/`kinect_t`). Fields the schema
    /// lacks resolve to `None` and read back as untracked joints.
    pub fn resolve(schema: &Schema, field_suffix: &str) -> Self {
        let mut joints = [None; JOINT_COUNT];
        for (k, j) in ALL_JOINTS.iter().enumerate() {
            let p = j.prefix();
            let x = schema.index_of(&format!("{p}_x{field_suffix}"));
            let y = schema.index_of(&format!("{p}_y{field_suffix}"));
            let z = schema.index_of(&format!("{p}_z{field_suffix}"));
            if let (Some(x), Some(y), Some(z)) = (x, y, z) {
                joints[k] = Some([x, y, z]);
            }
        }
        let (player, ts) = (schema.index_of("player"), schema.timestamp_slot());
        let mut seen = vec![false; schema.len()];
        for i in joints.iter().flatten().flatten().chain(&player).chain(&ts) {
            seen[*i] = true;
        }
        Self {
            player,
            ts,
            joints,
            covered: seen.iter().filter(|&&s| s).count(),
        }
    }

    /// The canonical layout produced by [`schema_named`]: `player`, `ts`,
    /// then `x/y/z` per joint in [`ALL_JOINTS`] order. No lookups at all.
    pub fn canonical() -> Self {
        let mut joints = [None; JOINT_COUNT];
        for (k, slot) in joints.iter_mut().enumerate() {
            let base = 2 + 3 * k;
            *slot = Some([base, base + 1, base + 2]);
        }
        Self {
            player: Some(0),
            ts: Some(1),
            joints,
            covered: 2 + 3 * JOINT_COUNT,
        }
    }

    /// True when the table resolves `player`, `ts` and every joint, each
    /// to a slot of its own: a tuple of its schema then holds everything
    /// a frame does, so [`Self::tuple`] followed by [`Self::read_frame`]
    /// is the identity.
    pub fn covers_frame(&self) -> bool {
        self.covered == 2 + 3 * JOINT_COUNT
    }

    /// Reads one joint position; `None` when untracked or unresolved.
    pub fn joint(&self, tuple: &Tuple, joint: Joint) -> Option<Vec3> {
        let [x, y, z] = self.joints[joint.index()]?;
        let v = tuple.values();
        Some(Vec3::new(
            v.get(x)?.as_f64()?,
            v.get(y)?.as_f64()?,
            v.get(z)?.as_f64()?,
        ))
    }

    /// Fills `frame` from `tuple` (timestamp, player, all joints) without
    /// allocating.
    pub fn read_frame(&self, tuple: &Tuple, frame: &mut SkeletonFrame) {
        let v = tuple.values();
        frame.ts = self
            .ts
            .and_then(|i| v.get(i))
            .and_then(Value::as_i64)
            .unwrap_or(0);
        frame.player = self
            .player
            .and_then(|i| v.get(i))
            .and_then(Value::as_i64)
            .unwrap_or(1);
        for (k, slot) in self.joints.iter().enumerate() {
            frame.joints[k] = slot.and_then(|[x, y, z]| {
                Some(Vec3::new(
                    v.get(x)?.as_f64()?,
                    v.get(y)?.as_f64()?,
                    v.get(z)?.as_f64()?,
                ))
            });
        }
    }

    /// Converts `tuple` into a fresh frame.
    pub fn frame(&self, tuple: &Tuple) -> SkeletonFrame {
        let mut f = SkeletonFrame::empty(0, 1);
        self.read_frame(tuple, &mut f);
        f
    }

    /// Converts `frame` into a tuple of `schema` (whose layout this table
    /// was resolved against). Missing joints and unresolved fields become
    /// `Null`s; one allocation (the shared value buffer), no name lookups.
    pub fn tuple(&self, frame: &SkeletonFrame, schema: &SchemaRef) -> Tuple {
        let nulls = std::iter::repeat_n(Value::Null, schema.len());
        let mut tuple = Tuple::from_iter_unchecked(schema.clone(), nulls);
        self.write_values(frame, tuple.values_mut().expect("fresh tuple is unique"));
        tuple
    }

    /// Writes `frame` into `values`, the all-`Null` value slice of a
    /// fresh tuple laid out like the schema this table was resolved
    /// against; untracked joints and unresolved fields stay `Null`.
    fn write_values(&self, frame: &SkeletonFrame, values: &mut [Value]) {
        if let Some(i) = self.player {
            values[i] = Value::Int(frame.player);
        }
        if let Some(i) = self.ts {
            values[i] = Value::Timestamp(frame.ts);
        }
        for (slot, joint) in self.joints.iter().zip(&frame.joints) {
            if let (Some([x, y, z]), Some(p)) = (slot, joint) {
                [values[*x], values[*y], values[*z]] =
                    [Value::Float(p.x), Value::Float(p.y), Value::Float(p.z)];
            }
        }
    }

    /// Converts a batch of frames straight into a [`ColumnBlock`] laid
    /// out for `schema` — the columnar twin of [`Self::tuple`] with no
    /// per-frame `Vec<Value>` round-trip: tracked joints write three
    /// `f64` lane cells each, untracked joints and unresolved fields
    /// stay `Null` in the validity bitmap. `cols` restricts which float
    /// columns are materialised (sorted, deduplicated; `None` builds
    /// all) — consumers declare the columns their predicates read, so a
    /// gesture over one joint pays for 3 lanes, not 45. Bit-identical
    /// to building the tuples first and calling
    /// [`ColumnBlock::fill_from_tuples_filtered`] (the non-float
    /// `player`/`ts` columns have no lanes either way).
    pub fn write_block(
        &self,
        frames: &[SkeletonFrame],
        schema: &SchemaRef,
        cols: Option<&[usize]>,
        block: &mut ColumnBlock,
    ) {
        block.begin_filtered(schema, frames.len(), cols);
        for (row, frame) in frames.iter().enumerate() {
            for (slot, joint) in self.joints.iter().zip(&frame.joints) {
                if let (Some([x, y, z]), Some(p)) = (slot, joint) {
                    block.write_float(*x, row, p.x);
                    block.write_float(*y, row, p.y);
                    block.write_float(*z, row, p.z);
                }
            }
        }
    }

    /// The joints ([`Joint::index`]) with a lane built in `block`, begun
    /// for this table's schema, and their `(x, y, z)` columns: all a
    /// writer of the block's rows has to visit.
    pub fn built_joints<'a>(
        &'a self,
        block: &'a ColumnBlock,
    ) -> impl Iterator<Item = (usize, [usize; 3])> + 'a {
        let built = |cols: &[usize; 3]| cols.iter().any(|&c| block.lane(c).is_some());
        (0..JOINT_COUNT).filter_map(move |j| Some((j, self.joints[j].filter(built)?)))
    }
}

/// Converts one skeleton frame into a tuple of `schema` (which must have
/// the kinect layout). Missing joints become `Null`s.
pub fn frame_to_tuple(frame: &SkeletonFrame, schema: &SchemaRef) -> Tuple {
    KinectSlots::canonical().tuple(frame, schema)
}

/// Converts a frame sequence into tuples.
pub fn frames_to_tuples(frames: &[SkeletonFrame], schema: &SchemaRef) -> Vec<Tuple> {
    let slots = KinectSlots::canonical();
    frames.iter().map(|f| slots.tuple(f, schema)).collect()
}

/// Converts a kinect-layout tuple back into a skeleton frame.
pub fn tuple_to_frame(tuple: &Tuple, field_suffix: &str) -> SkeletonFrame {
    KinectSlots::resolve(tuple.schema(), field_suffix).frame(tuple)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gestures::swipe_right;
    use crate::performer::{Performer, Persona};

    #[test]
    fn schema_layout() {
        let s = kinect_schema();
        assert_eq!(s.len(), 2 + 45);
        assert_eq!(s.index_of("player"), Some(0));
        assert_eq!(s.index_of("ts"), Some(1));
        assert!(s.index_of("rHand_x").is_some());
        assert!(s.index_of("torso_z").is_some());
        assert_eq!(s.name, "kinect");
    }

    #[test]
    fn suffixed_schema() {
        let s = schema_named("kinect_t", "");
        assert_eq!(s.name, "kinect_t");
        assert!(s.index_of("rHand_x").is_some());
    }

    #[test]
    fn canonical_slots_match_resolved() {
        assert_eq!(
            KinectSlots::canonical(),
            KinectSlots::resolve(&kinect_schema(), "")
        );
        assert!(KinectSlots::canonical().covers_frame());
    }

    #[test]
    fn frame_tuple_roundtrip() {
        let mut perf = Performer::new(Persona::reference(), 0);
        let frames = perf.render(&swipe_right());
        let schema = kinect_schema();
        for f in &frames {
            let t = frame_to_tuple(f, &schema);
            let back = tuple_to_frame(&t, "");
            assert_eq!(back.ts, f.ts);
            for j in ALL_JOINTS {
                let a = f.joint(j).unwrap();
                let b = back.joint(j).unwrap();
                assert!(a.dist(&b) < 1e-9);
            }
        }
    }

    #[test]
    fn slots_read_frame_reuses_scratch() {
        let mut perf = Performer::new(Persona::reference(), 0);
        let frames = perf.render(&swipe_right());
        let schema = kinect_schema();
        let slots = KinectSlots::resolve(&schema, "");
        let mut scratch = SkeletonFrame::empty(0, 0);
        for f in &frames {
            let t = frame_to_tuple(f, &schema);
            slots.read_frame(&t, &mut scratch);
            assert_eq!(&scratch, f);
        }
    }

    #[test]
    fn dropout_becomes_null() {
        let mut f = SkeletonFrame::empty(5, 1);
        f.set_joint(Joint::Torso, Vec3::new(1.0, 2.0, 3.0));
        let schema = kinect_schema();
        let t = frame_to_tuple(&f, &schema);
        assert!(t.get_by_name("rHand_x").unwrap().is_null());
        assert_eq!(t.f64("torso_y"), Some(2.0));
        let slots = KinectSlots::resolve(&schema, "");
        assert_eq!(slots.joint(&t, Joint::RightHand), None);
        assert_eq!(
            slots.joint(&t, Joint::Torso),
            Some(Vec3::new(1.0, 2.0, 3.0))
        );
    }

    #[test]
    fn write_block_matches_tuple_round_trip() {
        // The frame→block fast path must be bit-identical to frame→tuple
        // →fill_from_tuples, including dropout Nulls.
        let mut perf = Performer::new(Persona::reference(), 0);
        let mut frames = perf.render(&swipe_right());
        frames[3].joints[Joint::RightHand.index()] = None; // dropout
        let schema = kinect_schema();
        let slots = KinectSlots::resolve(&schema, "");

        // Both unfiltered and filtered to the right hand's columns.
        let rhand: Vec<usize> = ["rHand_x", "rHand_y", "rHand_z"]
            .iter()
            .map(|n| schema.index_of(n).unwrap())
            .collect();
        for cols in [None, Some(rhand.as_slice())] {
            let mut direct = ColumnBlock::new();
            slots.write_block(&frames, &schema, cols, &mut direct);

            let tuples: Vec<Tuple> = frames.iter().map(|f| slots.tuple(f, &schema)).collect();
            let mut via_tuples = ColumnBlock::new();
            via_tuples.fill_from_tuples_filtered(&tuples, cols);

            assert_eq!(direct.rows(), via_tuples.rows());
            for c in 0..schema.len() {
                match (direct.lane(c), via_tuples.lane(c)) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert_eq!(a.null(), b.null(), "col {c} null mask");
                        assert_eq!(a.other(), b.other(), "col {c} other mask");
                        for r in 0..direct.rows() {
                            if !a.null().get(r) {
                                assert_eq!(
                                    a.values()[r].to_bits(),
                                    b.values()[r].to_bits(),
                                    "col {c} row {r}"
                                );
                            }
                        }
                    }
                    other => panic!("lane presence diverged on col {c}: {other:?}"),
                }
            }
            if cols.is_some() {
                assert!(direct.lane(rhand[0]).is_some());
                let torso = schema.index_of("torso_x").unwrap();
                assert!(direct.lane(torso).is_none(), "filtered lane absent");
            }
        }
    }

    #[test]
    fn timestamp_falls_back_to_first_timestamp_field() {
        // Seed behaviour (`Tuple::timestamp`): no field named `ts` →
        // the first Timestamp-typed field carries the frame time.
        let schema = Arc::new(
            Schema::new(
                "odd",
                vec![
                    Field::new("rHand_x", ValueType::Float),
                    Field::new("stamp", ValueType::Timestamp),
                ],
            )
            .unwrap(),
        );
        let t = Tuple::new(
            schema.clone(),
            vec![Value::Float(1.0), Value::Timestamp(42)],
        )
        .unwrap();
        assert_eq!(tuple_to_frame(&t, "").ts, 42);
    }

    #[test]
    fn unresolved_fields_stay_untracked() {
        // A schema with only the right hand: every other joint reads
        // back as a dropout, and writing skips the missing slots.
        let schema = Arc::new(
            Schema::new(
                "partial",
                vec![
                    Field::new("ts", ValueType::Timestamp),
                    Field::new("rHand_x", ValueType::Float),
                    Field::new("rHand_y", ValueType::Float),
                    Field::new("rHand_z", ValueType::Float),
                ],
            )
            .unwrap(),
        );
        let slots = KinectSlots::resolve(&schema, "");
        assert!(!slots.covers_frame(), "a tuple of it loses joints");
        let mut f = SkeletonFrame::empty(7, 2);
        f.set_joint(Joint::RightHand, Vec3::new(1.0, 2.0, 3.0));
        f.set_joint(Joint::Torso, Vec3::new(9.0, 9.0, 9.0));
        let t = slots.tuple(&f, &schema);
        assert_eq!(t.timestamp(), Some(7));
        let back = slots.frame(&t);
        assert_eq!(back.player, 1, "missing player defaults");
        assert_eq!(back.joint(Joint::RightHand), Some(Vec3::new(1.0, 2.0, 3.0)));
        assert_eq!(back.joint(Joint::Torso), None);
    }
}
