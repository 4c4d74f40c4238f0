//! The user-invariant coordinate transformation (paper §3.2, Fig. 3).
//!
//! Three steps, applied per frame in a single pass:
//!
//! 1. **Position invariance** — subtract the torso position from every
//!    joint: the torso becomes the origin.
//! 2. **Orientation invariance** — rotate so the user's viewing direction
//!    is axis-aligned. The lateral axis is estimated from the shoulder
//!    line; output axes are `x' = user's right`, `y' = up`,
//!    `z' = depth` (negative in front of the user), matching the
//!    coordinate convention of the paper's Fig. 1/Fig. 2 window tables.
//! 3. **Scale invariance** — divide by the right forearm length
//!    (`dist(rHand, rElbow)`), then multiply by a reference forearm so
//!    learned windows keep familiar millimetre-scale numbers.

use gesto_kinect::{Joint, SkeletonFrame, Vec3, REFERENCE_FOREARM_MM};
use serde::{Deserialize, Serialize};

/// Configuration of the transformation view.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransformConfig {
    /// Reference forearm length; transformed coordinates are expressed in
    /// millimetres of a body with this forearm. Set to `1.0` for the
    /// paper's pure unit-forearm normalisation.
    pub reference_scale: f64,
    /// Reject scale estimates below this (degenerate elbow/hand overlap).
    pub min_scale_mm: f64,
    /// Exponential smoothing factor for the scale estimate in `[0, 1]`;
    /// 1.0 = no smoothing. Smoothing damps sensor jitter in the forearm
    /// length, which would otherwise wobble every coordinate.
    pub scale_alpha: f64,
    /// Apply the orientation (yaw) alignment. Disabling it yields a
    /// torso-centred but camera-aligned frame — the ablation case of
    /// experiment E3.
    pub align_orientation: bool,
    /// Apply the scale normalisation (ablation switch).
    pub normalize_scale: bool,
}

impl Default for TransformConfig {
    fn default() -> Self {
        Self {
            reference_scale: REFERENCE_FOREARM_MM,
            min_scale_mm: 20.0,
            scale_alpha: 0.3,
            align_orientation: true,
            normalize_scale: true,
        }
    }
}

impl TransformConfig {
    /// Identity-like config that only re-centres on the torso (no
    /// rotation, no scaling) — what the raw Fig. 1 query effectively uses.
    pub fn torso_only() -> Self {
        Self {
            align_orientation: false,
            normalize_scale: false,
            ..Self::default()
        }
    }
}

/// Stateful frame transformer (keeps a smoothed scale estimate across
/// frames so dropouts of hand/elbow don't invalidate whole frames).
#[derive(Debug, Clone)]
pub struct Transformer {
    config: TransformConfig,
    smoothed_scale: Option<f64>,
}

impl Transformer {
    /// Creates a transformer.
    pub fn new(config: TransformConfig) -> Self {
        Self {
            config,
            smoothed_scale: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TransformConfig {
        &self.config
    }

    /// Current smoothed forearm estimate (mm), if any frame provided one.
    pub fn scale_estimate(&self) -> Option<f64> {
        self.smoothed_scale
    }

    /// Transforms one frame into the user-invariant coordinate system:
    /// [`Self::prepare`], then [`Basis::apply`] on every tracked joint.
    ///
    /// Returns `None` when the torso is untracked (no origin — the frame
    /// is dropped, as a view predicate over garbage would be worse than a
    /// gap). Joints that are untracked stay untracked.
    pub fn transform_frame(&mut self, frame: &SkeletonFrame) -> Option<SkeletonFrame> {
        Some(self.prepare(frame)?.apply_frame(frame))
    }

    /// The first half of [`Self::transform_frame`]: `frame`'s basis, or
    /// `None` without a torso. Advances the smoothed scale estimate, so
    /// call it exactly once per frame, in stream order; the basis then
    /// transforms any of the frame's joints, now or later.
    pub fn prepare(&mut self, frame: &SkeletonFrame) -> Option<Basis> {
        let torso = frame.joint(Joint::Torso)?;

        // Orientation estimate from the shoulder line (fallback: hips,
        // then camera-aligned): the right, up and backward axes.
        let axes = if self.config.align_orientation {
            self.estimate_basis(frame)
        } else {
            [
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
                Vec3::new(0.0, 0.0, 1.0),
            ]
        };

        // Scale estimate from the right forearm.
        let scale = if self.config.normalize_scale {
            self.update_scale(frame);
            self.smoothed_scale
        } else {
            None
        };
        let k = match scale {
            Some(s) => self.config.reference_scale / s,
            None if self.config.normalize_scale => 1.0, // no estimate yet
            None => 1.0,
        };
        Some(Basis { torso, axes, k })
    }

    fn estimate_basis(&self, frame: &SkeletonFrame) -> [Vec3; 3] {
        let up = Vec3::new(0.0, 1.0, 0.0);
        let lateral = frame
            .joint(Joint::RightShoulder)
            .zip(frame.joint(Joint::LeftShoulder))
            .map(|(r, l)| r - l)
            .or_else(|| {
                frame
                    .joint(Joint::RightHip)
                    .zip(frame.joint(Joint::LeftHip))
                    .map(|(r, l)| r - l)
            });
        let right = lateral
            .map(|v| Vec3::new(v.x, 0.0, v.z)) // project to horizontal
            .and_then(|v| v.normalized())
            .unwrap_or(Vec3::new(1.0, 0.0, 0.0));
        let backward = -up.cross(&right);
        [right, up, backward]
    }

    fn update_scale(&mut self, frame: &SkeletonFrame) {
        let raw = frame
            .joint(Joint::RightHand)
            .zip(frame.joint(Joint::RightElbow))
            .map(|(h, e)| h.dist(&e))
            .filter(|d| *d >= self.config.min_scale_mm);
        if let Some(raw) = raw {
            let alpha = self.config.scale_alpha.clamp(0.0, 1.0);
            self.smoothed_scale = Some(match self.smoothed_scale {
                Some(prev) => prev + alpha * (raw - prev),
                None => raw,
            });
        }
    }
}

/// One frame's transform ([`Transformer::prepare`]): the torso origin,
/// the user's right / up / backward axes and the scale factor `k`.
/// Stateless, so a joint can be transformed whenever somebody reads it.
#[derive(Debug, Clone, Copy)]
pub struct Basis {
    torso: Vec3,
    axes: [Vec3; 3],
    k: f64,
}

impl Basis {
    /// The user-invariant position of camera-space joint position `p`.
    #[inline]
    pub fn apply(&self, p: Vec3) -> Vec3 {
        let [x, y, z] = [0, 1, 2].map(|axis| self.apply_axis(p, axis));
        Vec3::new(x, y, z)
    }

    /// Coordinate `axis` (0 = x, 1 = y, 2 = z) of [`Self::apply`]`(p)`.
    #[inline]
    pub fn apply_axis(&self, p: Vec3, axis: usize) -> f64 {
        (p - self.torso).dot(&self.axes[axis]) * self.k
    }

    /// [`Self::apply`] on every tracked joint of `frame`.
    pub fn apply_frame(&self, frame: &SkeletonFrame) -> SkeletonFrame {
        let mut out = SkeletonFrame::empty(frame.ts, frame.player);
        for (o, p) in out.joints.iter_mut().zip(&frame.joints) {
            *o = p.map(|p| self.apply(p));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesto_kinect::{gestures, NoiseModel, Performer, Persona};

    fn transformed_hand_path(persona: Persona) -> Vec<Vec3> {
        let mut perf = Performer::new(persona, 0);
        let frames = perf.render(&gestures::swipe_right());
        let mut tr = Transformer::new(TransformConfig::default());
        frames
            .iter()
            .filter_map(|f| tr.transform_frame(f))
            .filter_map(|f| f.joint(Joint::RightHand))
            .collect()
    }

    fn max_pointwise_dist(a: &[Vec3], b: &[Vec3]) -> f64 {
        assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| x.dist(y)).fold(0.0, f64::max)
    }

    #[test]
    fn reference_user_maps_to_spec_coordinates() {
        let path = transformed_hand_path(Persona::reference());
        let first = path.first().unwrap();
        let last = path.last().unwrap();
        assert!(
            first.dist(&Vec3::new(0.0, 150.0, -120.0)) < 1.0,
            "{first:?}"
        );
        assert!(
            last.dist(&Vec3::new(800.0, 150.0, -120.0)) < 1.0,
            "{last:?}"
        );
    }

    #[test]
    fn position_invariance() {
        let base = transformed_hand_path(Persona::reference());
        let moved = transformed_hand_path(Persona::reference().at(-800.0, 3100.0));
        assert!(
            max_pointwise_dist(&base, &moved) < 1e-6,
            "translation must cancel"
        );
    }

    #[test]
    fn orientation_invariance() {
        let base = transformed_hand_path(Persona::reference());
        for yaw in [-1.0, -0.4, 0.7, 1.2] {
            let rotated = transformed_hand_path(Persona::reference().rotated(yaw));
            assert!(
                max_pointwise_dist(&base, &rotated) < 1e-6,
                "yaw {yaw} must cancel"
            );
        }
    }

    #[test]
    fn scale_invariance_across_heights() {
        let base = transformed_hand_path(Persona::reference());
        for h in [1100.0, 1400.0, 2000.0] {
            let other = transformed_hand_path(Persona::reference().with_height(h));
            assert!(
                max_pointwise_dist(&base, &other) < 1e-6,
                "height {h} must normalise away"
            );
        }
    }

    #[test]
    fn combined_invariance_with_noise_stays_tight() {
        let base = transformed_hand_path(Persona::reference());
        let noisy = transformed_hand_path(
            Persona::reference()
                .with_height(1250.0)
                .at(500.0, 2600.0)
                .rotated(0.5)
                .with_noise(NoiseModel::sensor_only())
                .with_seed(11),
        );
        // Noise jitter is a few mm per joint; normalised for a 1.25 m
        // child it scales up ~1.9x, and a jittered shoulder line tilts
        // the estimated basis slightly. Everything comfortably inside
        // the paper's ±50 windows (plus generalisation) is fine.
        let d = max_pointwise_dist(&base, &noisy);
        assert!(d < 60.0, "noisy invariance error {d}");
    }

    #[test]
    fn ablation_no_orientation_breaks_rotated_users() {
        let cfg = TransformConfig {
            align_orientation: false,
            ..Default::default()
        };
        let render = |persona: Persona| {
            let mut perf = Performer::new(persona, 0);
            let frames = perf.render(&gestures::swipe_right());
            let mut tr = Transformer::new(cfg);
            frames
                .iter()
                .filter_map(|f| tr.transform_frame(f))
                .filter_map(|f| f.joint(Joint::RightHand))
                .collect::<Vec<_>>()
        };
        let base = render(Persona::reference());
        let rotated = render(Persona::reference().rotated(1.0));
        assert!(
            max_pointwise_dist(&base, &rotated) > 100.0,
            "without alignment, rotation must show"
        );
    }

    #[test]
    fn transform_frame_is_prepare_then_apply_on_every_joint() {
        // The split a deferred `kinect_t` row relies on: `prepare` now,
        // `Basis::apply` per joint whenever a reader asks, bit for bit
        // the whole-frame transform — torso-less frames (no basis),
        // shoulder-less ones (hip fallback) and joint dropouts included,
        // with the smoothed scale advancing identically.
        use gesto_kinect::ALL_JOINTS;
        let persona = Persona::reference()
            .rotated(0.6)
            .with_noise(NoiseModel::realistic())
            .with_seed(9);
        let mut frames = Performer::new(persona, 0).render(&gestures::swipe_right());
        for (i, f) in frames.iter_mut().enumerate() {
            let dropped: &[Joint] = match i % 5 {
                1 => &[Joint::Torso],
                2 => &[Joint::LeftShoulder, Joint::RightShoulder],
                3 => &[Joint::RightHand, Joint::LeftHip],
                _ => &[],
            };
            dropped.iter().for_each(|&j| f.drop_joint(j));
        }
        let bits = |v: Option<Vec3>| v.map(|v| [v.x, v.y, v.z].map(f64::to_bits));
        let mut whole = Transformer::new(TransformConfig::default());
        let mut split = Transformer::new(TransformConfig::default());
        let mut checked = 0;
        for f in &frames {
            let (expect, basis) = (whole.transform_frame(f), split.prepare(f));
            assert_eq!(expect.is_none(), basis.is_none(), "torso-less frames drop");
            assert_eq!(whole.scale_estimate(), split.scale_estimate());
            let Some((expect, basis)) = expect.zip(basis) else {
                continue;
            };
            for j in ALL_JOINTS {
                assert_eq!(
                    bits(f.joint(j).map(|p| basis.apply(p))),
                    bits(expect.joint(j))
                );
            }
            checked += 1;
        }
        assert!(checked > frames.len() / 2);
    }

    #[test]
    fn missing_torso_drops_frame() {
        let mut tr = Transformer::new(TransformConfig::default());
        let f = SkeletonFrame::empty(0, 1);
        assert!(tr.transform_frame(&f).is_none());
    }

    #[test]
    fn missing_shoulders_falls_back_gracefully() {
        let mut tr = Transformer::new(TransformConfig::default());
        let mut f = SkeletonFrame::empty(0, 1);
        f.set_joint(Joint::Torso, Vec3::new(100.0, 1000.0, 2000.0));
        f.set_joint(Joint::RightHand, Vec3::new(300.0, 1100.0, 1900.0));
        let out = tr.transform_frame(&f).unwrap();
        // Camera-aligned fallback: plain offset (no scale estimate yet).
        let hand = out.joint(Joint::RightHand).unwrap();
        assert!(hand.dist(&Vec3::new(200.0, 100.0, -100.0)) < 1e-9);
        assert!(
            out.joint(Joint::Head).is_none(),
            "untracked stays untracked"
        );
    }

    #[test]
    fn scale_estimate_smooths_and_survives_dropouts() {
        let mut tr = Transformer::new(TransformConfig {
            scale_alpha: 0.5,
            ..Default::default()
        });
        let mut f = SkeletonFrame::empty(0, 1);
        f.set_joint(Joint::Torso, Vec3::ZERO);
        f.set_joint(Joint::RightHand, Vec3::new(200.0, 0.0, 0.0));
        f.set_joint(Joint::RightElbow, Vec3::ZERO);
        tr.transform_frame(&f).unwrap();
        assert_eq!(tr.scale_estimate(), Some(200.0));

        // Next frame: forearm reads 300 -> smoothed to 250.
        f.set_joint(Joint::RightHand, Vec3::new(300.0, 0.0, 0.0));
        tr.transform_frame(&f).unwrap();
        assert_eq!(tr.scale_estimate(), Some(250.0));

        // Dropout: estimate persists.
        f.drop_joint(Joint::RightHand);
        tr.transform_frame(&f).unwrap();
        assert_eq!(tr.scale_estimate(), Some(250.0));
    }

    #[test]
    fn degenerate_forearm_rejected() {
        let mut tr = Transformer::new(TransformConfig::default());
        let mut f = SkeletonFrame::empty(0, 1);
        f.set_joint(Joint::Torso, Vec3::ZERO);
        f.set_joint(Joint::RightHand, Vec3::new(1.0, 0.0, 0.0));
        f.set_joint(Joint::RightElbow, Vec3::ZERO); // 1mm "forearm"
        tr.transform_frame(&f).unwrap();
        assert_eq!(tr.scale_estimate(), None);
    }

    #[test]
    fn torso_only_config_matches_raw_offsets() {
        let mut tr = Transformer::new(TransformConfig::torso_only());
        let frames = gesto_kinect::fig1::frames(0);
        let offs = gesto_kinect::fig1::hand_offsets();
        for (f, expect) in frames.iter().zip(offs) {
            let out = tr.transform_frame(f).unwrap();
            let hand = out.joint(Joint::RightHand).unwrap();
            assert!(hand.dist(&expect) < 1e-9);
        }
    }
}
