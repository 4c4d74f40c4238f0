//! Data model of the learner: joint sets, sample paths, learned gesture
//! definitions.

use gesto_kinect::{Joint, SkeletonFrame};
use serde::{Deserialize, Serialize};

use crate::window::PoseWindow;

/// The ordered set of joints a gesture is defined over. Feature vectors
/// concatenate `(x, y, z)` per joint in this order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JointSet {
    joints: Vec<Joint>,
}

impl JointSet {
    /// Creates a joint set (order matters, duplicates removed).
    pub fn new(joints: impl IntoIterator<Item = Joint>) -> Self {
        let mut out = Vec::new();
        for j in joints {
            if !out.contains(&j) {
                out.push(j);
            }
        }
        Self { joints: out }
    }

    /// The common single-joint case: right hand only.
    pub fn right_hand() -> Self {
        Self::new([Joint::RightHand])
    }

    /// Both hands.
    pub fn both_hands() -> Self {
        Self::new([Joint::RightHand, Joint::LeftHand])
    }

    /// Joints in feature order.
    pub fn joints(&self) -> &[Joint] {
        &self.joints
    }

    /// Number of feature dimensions (3 per joint).
    pub fn dims(&self) -> usize {
        self.joints.len() * 3
    }

    /// Field name of dimension `d` (e.g. `rHand_x`).
    pub fn dim_name(&self, d: usize) -> String {
        let joint = self.joints[d / 3];
        let axis = ["x", "y", "z"][d % 3];
        format!("{}_{axis}", joint.prefix())
    }

    /// Extracts the feature vector from a skeleton frame.
    pub fn features_from_frame(&self, frame: &SkeletonFrame) -> Option<Vec<f64>> {
        let mut feat = Vec::with_capacity(self.dims());
        for j in &self.joints {
            let p = frame.joint(*j)?;
            feat.extend_from_slice(&[p.x, p.y, p.z]);
        }
        Some(feat)
    }
}

impl Default for JointSet {
    fn default() -> Self {
        Self::right_hand()
    }
}

/// One point on a recorded gesture path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathPoint {
    /// Stream time of the reading.
    pub ts: i64,
    /// Feature vector (see [`JointSet`]).
    pub feat: Vec<f64>,
}

impl PathPoint {
    /// Creates a path point.
    pub fn new(ts: i64, feat: Vec<f64>) -> Self {
        Self { ts, feat }
    }
}

/// A recorded gesture sample: the filtered feature path of one
/// performance.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GestureSample {
    /// Path points in stream order.
    pub points: Vec<PathPoint>,
}

impl GestureSample {
    /// Builds a sample from skeleton frames.
    pub fn from_frames(frames: &[SkeletonFrame], joints: &JointSet) -> Self {
        let points = frames
            .iter()
            .filter_map(|f| {
                joints
                    .features_from_frame(f)
                    .map(|feat| PathPoint::new(f.ts, feat))
            })
            .collect();
        Self { points }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the sample has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Duration from first to last point, ms.
    pub fn duration_ms(&self) -> i64 {
        match (self.points.first(), self.points.last()) {
            (Some(a), Some(b)) => b.ts - a.ts,
            _ => 0,
        }
    }
}

/// A learned gesture: the final output of the §3.3 pipeline, ready for
/// query generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GestureDefinition {
    /// Gesture name (becomes the query's `SELECT` string).
    pub name: String,
    /// Joints the windows range over.
    pub joints: JointSet,
    /// Pose windows in sequence order.
    pub poses: Vec<PoseWindow>,
    /// Per-transition time budget in ms (`within` of each nested
    /// sequence); `poses.len() - 1` entries.
    pub within_ms: Vec<i64>,
    /// Which feature dimensions carry predicates (the §3.3.3 coordinate
    /// elimination); always `dims()` long.
    pub active_dims: Vec<bool>,
    /// How many samples contributed.
    pub sample_count: usize,
}

impl GestureDefinition {
    /// Number of poses.
    pub fn pose_count(&self) -> usize {
        self.poses.len()
    }

    /// Number of active dimensions.
    pub fn active_dim_count(&self) -> usize {
        self.active_dims.iter().filter(|b| **b).count()
    }

    /// Total number of range predicates the generated query will contain.
    pub fn predicate_count(&self) -> usize {
        self.pose_count() * self.active_dim_count()
    }

    /// Checks structural invariants (used by tests and the DB layer).
    pub fn validate(&self) -> Result<(), String> {
        let dims = self.joints.dims();
        if self.poses.is_empty() {
            return Err(format!("gesture '{}' has no poses", self.name));
        }
        for (i, p) in self.poses.iter().enumerate() {
            if p.dims() != dims {
                return Err(format!(
                    "gesture '{}': pose {i} has {} dims, joint set needs {dims}",
                    self.name,
                    p.dims()
                ));
            }
        }
        if self.within_ms.len() + 1 != self.poses.len() {
            return Err(format!(
                "gesture '{}': {} within entries for {} poses",
                self.name,
                self.within_ms.len(),
                self.poses.len()
            ));
        }
        if self.active_dims.len() != dims {
            return Err(format!(
                "gesture '{}': active_dims has {} entries, need {dims}",
                self.name,
                self.active_dims.len()
            ));
        }
        if self.active_dim_count() == 0 {
            return Err(format!(
                "gesture '{}': all dimensions eliminated",
                self.name
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesto_kinect::Vec3;

    #[test]
    fn joint_set_dedup_and_dims() {
        let js = JointSet::new([Joint::RightHand, Joint::RightHand, Joint::LeftHand]);
        assert_eq!(js.joints().len(), 2);
        assert_eq!(js.dims(), 6);
        assert_eq!(js.dim_name(0), "rHand_x");
        assert_eq!(js.dim_name(5), "lHand_z");
    }

    #[test]
    fn features_from_frame() {
        let js = JointSet::both_hands();
        let mut f = SkeletonFrame::empty(10, 1);
        f.set_joint(Joint::RightHand, Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(js.features_from_frame(&f), None, "left hand missing");
        f.set_joint(Joint::LeftHand, Vec3::new(4.0, 5.0, 6.0));
        assert_eq!(
            js.features_from_frame(&f),
            Some(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        );
    }

    #[test]
    fn sample_skips_dropout_frames() {
        let js = JointSet::right_hand();
        let mut ok = SkeletonFrame::empty(0, 1);
        ok.set_joint(Joint::RightHand, Vec3::new(1.0, 1.0, 1.0));
        let missing = SkeletonFrame::empty(33, 1);
        let mut ok2 = SkeletonFrame::empty(66, 1);
        ok2.set_joint(Joint::RightHand, Vec3::new(2.0, 2.0, 2.0));
        let s = GestureSample::from_frames(&[ok, missing, ok2], &js);
        assert_eq!(s.len(), 2);
        assert_eq!(s.duration_ms(), 66);
    }

    #[test]
    fn definition_validation() {
        let js = JointSet::right_hand();
        let def = GestureDefinition {
            name: "g".into(),
            joints: js.clone(),
            poses: vec![
                PoseWindow::point(vec![0.0; 3]),
                PoseWindow::point(vec![1.0; 3]),
            ],
            within_ms: vec![1000],
            active_dims: vec![true, true, false],
            sample_count: 1,
        };
        assert!(def.validate().is_ok());
        assert_eq!(def.predicate_count(), 4);

        let mut bad = def.clone();
        bad.within_ms = vec![];
        assert!(bad.validate().is_err());

        let mut bad = def.clone();
        bad.active_dims = vec![false, false, false];
        assert!(bad.validate().is_err());

        let mut bad = def;
        bad.poses[0] = PoseWindow::point(vec![0.0; 2]);
        assert!(bad.validate().is_err());
    }
}
