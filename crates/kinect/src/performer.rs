//! Rendering gestures into skeleton streams for concrete users.
//!
//! A [`Persona`] stands somewhere in front of the camera, has a body
//! (height → limb lengths), an orientation, a tempo and a noise level.
//! The [`Performer`] turns a [`GestureSpec`] into the 30 Hz skeleton
//! stream a Kinect would deliver for that persona performing the gesture —
//! the hardware substitution described in DESIGN.md.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use gesto_stream::FrameClock;

use crate::body::BodyModel;
use crate::gestures::GestureSpec;
use crate::joints::{Joint, SkeletonFrame, ALL_JOINTS};
use crate::vec3::Vec3;

/// Sensor noise model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Per-axis Gaussian jitter sigma in mm (Kinect skeletal noise is
    /// roughly 2–8 mm at 2 m distance).
    pub jitter_mm: f64,
    /// Probability that a joint is lost in a frame (tracking dropout).
    pub dropout_prob: f64,
    /// Amplitude of slow idle sway (breathing/balance), in mm.
    pub sway_mm: f64,
    /// Per-performance path variability sigma in mm: humans never repeat
    /// a gesture exactly; each rendered performance is offset by a random
    /// amount drawn once per performance. This is what makes multiple
    /// training samples informative (paper: "recorded samples usually
    /// differ slightly", §3.3.2).
    pub path_variation_mm: f64,
    /// Per-performance tempo jitter (relative sigma, e.g. 0.08 = ±8%).
    pub tempo_jitter: f64,
}

impl NoiseModel {
    /// No noise at all (deterministic geometry tests).
    pub const NONE: NoiseModel = NoiseModel {
        jitter_mm: 0.0,
        dropout_prob: 0.0,
        sway_mm: 0.0,
        path_variation_mm: 0.0,
        tempo_jitter: 0.0,
    };

    /// Sensor noise only (jitter + sway), perfectly repeatable movement.
    pub fn sensor_only() -> Self {
        Self {
            jitter_mm: 4.0,
            dropout_prob: 0.0,
            sway_mm: 1.5,
            ..Self::NONE
        }
    }

    /// Typical live conditions: sensor noise plus human performance
    /// variability.
    pub fn realistic() -> Self {
        Self {
            jitter_mm: 4.0,
            dropout_prob: 0.002,
            sway_mm: 1.5,
            path_variation_mm: 15.0,
            tempo_jitter: 0.08,
        }
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self::realistic()
    }
}

/// A simulated user in front of the camera.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Persona {
    /// Display name.
    pub name: String,
    /// Body proportions.
    pub body: BodyModel,
    /// Ground position of the user in camera coordinates (x lateral, z
    /// depth; y is ignored — feet stand on y = 0).
    pub position: Vec3,
    /// Orientation around the vertical axis in radians; 0 = facing the
    /// camera.
    pub yaw: f64,
    /// Speed multiplier (> 1 = faster than the spec's nominal duration).
    pub tempo: f64,
    /// Sensor noise.
    pub noise: NoiseModel,
    /// RNG seed (frames are deterministic given the persona).
    pub seed: u64,
}

impl Persona {
    /// The reference adult standing 2 m in front of the camera.
    pub fn reference() -> Self {
        Self {
            name: "reference".into(),
            body: BodyModel::reference(),
            position: Vec3::new(0.0, 0.0, 2000.0),
            yaw: 0.0,
            tempo: 1.0,
            noise: NoiseModel::NONE,
            seed: 7,
        }
    }

    /// Same persona with a different height.
    pub fn with_height(mut self, height_mm: f64) -> Self {
        self.body = BodyModel::from_height(height_mm);
        self
    }

    /// Same persona standing elsewhere.
    pub fn at(mut self, x: f64, z: f64) -> Self {
        self.position = Vec3::new(x, 0.0, z);
        self
    }

    /// Same persona rotated by `yaw` radians.
    pub fn rotated(mut self, yaw: f64) -> Self {
        self.yaw = yaw;
        self
    }

    /// Same persona with different tempo.
    pub fn with_tempo(mut self, tempo: f64) -> Self {
        self.tempo = tempo.max(0.05);
        self
    }

    /// Same persona with a noise model.
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Same persona with another RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// User-frame basis vectors `(right, up, backward)` in camera
    /// coordinates. Gesture space maps as
    /// `world = torso + right·gx + up·gy + backward·gz`
    /// (gz is negative in front of the user).
    pub fn basis(&self) -> (Vec3, Vec3, Vec3) {
        let right = Vec3::new(self.yaw.cos(), 0.0, self.yaw.sin());
        let up = Vec3::new(0.0, 1.0, 0.0);
        let backward = -up.cross(&right); // -(u × r) = -forward
        (right, up, backward)
    }

    /// World position of the torso joint.
    pub fn torso_world(&self) -> Vec3 {
        Vec3::new(self.position.x, self.body.torso_h, self.position.z)
    }
}

/// Renders gestures for a persona.
pub struct Performer {
    persona: Persona,
    rng: ChaCha8Rng,
    clock: FrameClock,
    frame_no: u64,
    /// Per-performance path offset (gesture space, reference mm).
    perf_offset: Vec3,
    /// Per-performance amplitude factor.
    perf_amp: f64,
}

impl Performer {
    /// Creates a performer starting its stream clock at `start_ts`.
    pub fn new(persona: Persona, start_ts: i64) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(persona.seed);
        Self {
            persona,
            rng,
            clock: FrameClock::kinect(start_ts),
            frame_no: 0,
            perf_offset: Vec3::ZERO,
            perf_amp: 1.0,
        }
    }

    /// The persona being simulated.
    pub fn persona(&self) -> &Persona {
        &self.persona
    }

    /// Renders `spec` as a 30 Hz frame sequence at the persona's tempo.
    pub fn render(&mut self, spec: &GestureSpec) -> Vec<SkeletonFrame> {
        self.render_padded(spec, 0, 0)
    }

    /// Renders `spec` with still lead-in/lead-out phases (the §3.1
    /// recording protocol: the user holds the start pose, performs the
    /// movement, then holds the end pose).
    pub fn render_padded(
        &mut self,
        spec: &GestureSpec,
        lead_in_ms: i64,
        lead_out_ms: i64,
    ) -> Vec<SkeletonFrame> {
        // Human performance variability: a fresh offset, amplitude and
        // tempo for every performance.
        let noise = self.persona.noise;
        if noise.path_variation_mm > 0.0 {
            self.perf_offset = Vec3::new(
                self.gauss() * noise.path_variation_mm,
                self.gauss() * noise.path_variation_mm,
                self.gauss() * noise.path_variation_mm * 0.7,
            );
            self.perf_amp = (1.0 + self.gauss() * 0.04).clamp(0.85, 1.15);
        } else {
            self.perf_offset = Vec3::ZERO;
            self.perf_amp = 1.0;
        }
        let tempo_mult = if noise.tempo_jitter > 0.0 {
            (1.0 + self.gauss() * noise.tempo_jitter).clamp(0.5, 2.0)
        } else {
            1.0
        };
        let duration =
            ((spec.duration_ms as f64 / (self.persona.tempo * tempo_mult)).round() as i64).max(33);
        let n_in = self.clock.frames_for(lead_in_ms);
        let n_move = self.clock.frames_for(duration).max(2);
        let n_out = self.clock.frames_for(lead_out_ms);
        let total = n_in + n_move + n_out;
        let mut frames = Vec::with_capacity(total as usize);
        for k in 0..total {
            let ts = self.clock.frame_ts(self.frame_no);
            self.frame_no += 1;
            let u = if k < n_in {
                0.0
            } else if k < n_in + n_move {
                let t = (k - n_in) as f64 / (n_move - 1) as f64;
                spec.profile.warp(t)
            } else {
                1.0
            };
            frames.push(self.frame_at(spec, u, ts));
        }
        frames
    }

    /// Renders an idle (rest-pose) segment of `duration_ms`.
    pub fn render_idle(&mut self, duration_ms: i64) -> Vec<SkeletonFrame> {
        let hold = GestureSpec {
            name: "idle".into(),
            channels: vec![],
            duration_ms: duration_ms.max(33),
            profile: crate::trajectory::TimeProfile::Linear,
        };
        self.render(&hold)
    }

    /// One skeleton frame with the gesture at parameter `u`.
    fn frame_at(&mut self, spec: &GestureSpec, u: f64, ts: i64) -> SkeletonFrame {
        let noise = self.persona.noise;
        let body = self.persona.body;
        let scale = body.scale_vs_reference();
        let (right, up, backward) = self.persona.basis();
        let torso = self.persona.torso_world();
        let to_world =
            |g: Vec3| torso + right * (g.x * scale) + up * (g.y * scale) + backward * (g.z * scale);

        // Idle sway: slow ellipse of the whole upper body.
        let sway = if noise.sway_mm > 0.0 {
            let phase = ts as f64 / 1000.0 * std::f64::consts::TAU * 0.25; // 0.25 Hz
            right * (noise.sway_mm * phase.sin()) + backward * (noise.sway_mm * 0.6 * phase.cos())
        } else {
            Vec3::ZERO
        };

        let mut frame = SkeletonFrame::empty(ts, 1);

        // Static landmarks (user frame, unscaled by reference since they
        // derive from the body itself).
        let rel_h = |h: f64| h - body.torso_h;
        let set_rel = |frame: &mut SkeletonFrame, j: Joint, g: Vec3| {
            frame.set_joint(j, torso + right * g.x + up * g.y + backward * g.z + sway);
        };
        set_rel(&mut frame, Joint::Torso, Vec3::ZERO);
        set_rel(
            &mut frame,
            Joint::Head,
            Vec3::new(0.0, rel_h(body.head_h), 0.0),
        );
        set_rel(
            &mut frame,
            Joint::Neck,
            Vec3::new(0.0, rel_h(body.neck_h), 0.0),
        );
        set_rel(
            &mut frame,
            Joint::RightShoulder,
            Vec3::new(body.shoulder_half_w, rel_h(body.shoulder_h), 0.0),
        );
        set_rel(
            &mut frame,
            Joint::LeftShoulder,
            Vec3::new(-body.shoulder_half_w, rel_h(body.shoulder_h), 0.0),
        );
        set_rel(
            &mut frame,
            Joint::RightHip,
            Vec3::new(body.hip_half_w, rel_h(body.hip_h), 0.0),
        );
        set_rel(
            &mut frame,
            Joint::LeftHip,
            Vec3::new(-body.hip_half_w, rel_h(body.hip_h), 0.0),
        );
        set_rel(
            &mut frame,
            Joint::RightKnee,
            Vec3::new(body.hip_half_w, rel_h(body.knee_h), 0.0),
        );
        set_rel(
            &mut frame,
            Joint::LeftKnee,
            Vec3::new(-body.hip_half_w, rel_h(body.knee_h), 0.0),
        );
        set_rel(
            &mut frame,
            Joint::RightFoot,
            Vec3::new(body.hip_half_w, rel_h(body.foot_h), 30.0),
        );
        set_rel(
            &mut frame,
            Joint::LeftFoot,
            Vec3::new(-body.hip_half_w, rel_h(body.foot_h), 30.0),
        );

        // Hands: rest pose unless a channel drives them.
        let rest_r = Vec3::new(body.shoulder_half_w + 40.0, rel_h(body.hip_h) - 60.0, -70.0);
        let rest_l = Vec3::new(
            -(body.shoulder_half_w + 40.0),
            rel_h(body.hip_h) - 60.0,
            -70.0,
        );
        let mut r_hand = torso + right * rest_r.x + up * rest_r.y + backward * rest_r.z + sway;
        let mut l_hand = torso + right * rest_l.x + up * rest_l.y + backward * rest_l.z + sway;
        for (joint, path) in &spec.channels {
            let g = path.at(u) * self.perf_amp + self.perf_offset;
            let target = to_world(g) + sway;
            match joint {
                Joint::RightHand => r_hand = target,
                Joint::LeftHand => l_hand = target,
                other => frame.set_joint(*other, target),
            }
        }
        frame.set_joint(Joint::RightHand, r_hand);
        frame.set_joint(Joint::LeftHand, l_hand);

        // Elbows: exactly `forearm` away from the hand, towards the
        // shoulder. This keeps the paper's scale factor
        // dist(hand, elbow) == forearm exact regardless of reach; an
        // over-extended reach reads as a shoulder lean rather than a
        // stretched forearm.
        let elbow = |hand: Vec3, shoulder: Vec3, fallback_dir: Vec3| {
            let dir = (shoulder - hand).normalized().unwrap_or(fallback_dir);
            hand + dir * body.forearm
        };
        let r_shoulder = frame.joint(Joint::RightShoulder).expect("set above");
        let l_shoulder = frame.joint(Joint::LeftShoulder).expect("set above");
        frame.set_joint(Joint::RightElbow, elbow(r_hand, r_shoulder, backward));
        frame.set_joint(Joint::LeftElbow, elbow(l_hand, l_shoulder, backward));

        // Sensor noise: jitter then dropouts.
        if noise.jitter_mm > 0.0 {
            for j in ALL_JOINTS {
                if let Some(pos) = frame.joint(j) {
                    let jittered = pos
                        + Vec3::new(
                            self.gauss() * noise.jitter_mm,
                            self.gauss() * noise.jitter_mm,
                            self.gauss() * noise.jitter_mm,
                        );
                    frame.set_joint(j, jittered);
                }
            }
        }
        if noise.dropout_prob > 0.0 {
            for j in ALL_JOINTS {
                if self.rng.gen::<f64>() < noise.dropout_prob {
                    frame.drop_joint(j);
                }
            }
        }
        frame
    }

    /// Standard normal sample (Box-Muller).
    fn gauss(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen::<f64>();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gestures::{swipe_right, two_hand_swipe};

    #[test]
    fn render_produces_30hz_frames() {
        let mut perf = Performer::new(Persona::reference(), 0);
        let frames = perf.render(&swipe_right());
        assert!(
            frames.len() >= 25,
            "900ms at 30Hz ≈ 27 frames, got {}",
            frames.len()
        );
        assert_eq!(frames[0].ts, 0);
        for w in frames.windows(2) {
            let dt = w[1].ts - w[0].ts;
            assert!((33..=34).contains(&dt));
        }
        assert!(frames.iter().all(SkeletonFrame::complete));
    }

    #[test]
    fn swipe_endpoints_land_on_spec() {
        let mut perf = Performer::new(Persona::reference(), 0);
        let frames = perf.render(&swipe_right());
        let first = frames.first().unwrap();
        let last = frames.last().unwrap();
        let torso = first.joint(Joint::Torso).unwrap();
        let start = first.joint(Joint::RightHand).unwrap() - torso;
        // Reference persona faces the camera: user x == camera x,
        // user z(front-) == camera z offset.
        assert!((start.x - 0.0).abs() < 1.0, "{start:?}");
        assert!((start.y - 150.0).abs() < 1.0);
        assert!((start.z - -120.0).abs() < 1.0);
        let end = last.joint(Joint::RightHand).unwrap() - last.joint(Joint::Torso).unwrap();
        assert!((end.x - 800.0).abs() < 1.0, "{end:?}");
    }

    #[test]
    fn forearm_length_exact_for_scale_factor() {
        let mut perf = Performer::new(Persona::reference().with_height(1300.0), 0);
        let frames = perf.render(&swipe_right());
        let forearm = perf.persona().body.forearm;
        for f in &frames {
            let d = f
                .joint(Joint::RightHand)
                .unwrap()
                .dist(&f.joint(Joint::RightElbow).unwrap());
            assert!((d - forearm).abs() < 1e-6, "forearm {d} != {forearm}");
        }
    }

    #[test]
    fn height_scales_movement() {
        let small = {
            let mut p = Performer::new(Persona::reference().with_height(1200.0), 0);
            p.render(&swipe_right())
        };
        let tall = {
            let mut p = Performer::new(Persona::reference().with_height(2000.0), 0);
            p.render(&swipe_right())
        };
        let span = |frames: &[SkeletonFrame]| {
            let xs: Vec<f64> = frames
                .iter()
                .map(|f| f.joint(Joint::RightHand).unwrap().x)
                .collect();
            xs.iter().cloned().fold(f64::MIN, f64::max)
                - xs.iter().cloned().fold(f64::MAX, f64::min)
        };
        let s = span(&small);
        let t = span(&tall);
        assert!(t > s * 1.4, "tall span {t} vs small span {s}");
    }

    #[test]
    fn yaw_rotates_movement_direction() {
        let mut perf = Performer::new(Persona::reference().rotated(std::f64::consts::FRAC_PI_2), 0);
        let frames = perf.render(&swipe_right());
        let dx = frames.last().unwrap().joint(Joint::RightHand).unwrap().x
            - frames[0].joint(Joint::RightHand).unwrap().x;
        let dz = frames.last().unwrap().joint(Joint::RightHand).unwrap().z
            - frames[0].joint(Joint::RightHand).unwrap().z;
        // Rotated 90°: lateral movement becomes depth movement.
        assert!(dz.abs() > 600.0, "dz {dz}");
        assert!(dx.abs() < 100.0, "dx {dx}");
    }

    #[test]
    fn padded_render_holds_endpoints_still() {
        let mut perf = Performer::new(Persona::reference(), 0);
        let frames = perf.render_padded(&swipe_right(), 500, 500);
        let n_in = 15; // 500ms at 30Hz
        let first = frames[0].joint(Joint::RightHand).unwrap();
        for f in &frames[..n_in] {
            assert!(f.joint(Joint::RightHand).unwrap().dist(&first) < 1e-6);
        }
        let last = frames.last().unwrap().joint(Joint::RightHand).unwrap();
        for f in &frames[frames.len() - n_in..] {
            assert!(f.joint(Joint::RightHand).unwrap().dist(&last) < 1e-6);
        }
    }

    #[test]
    fn tempo_changes_frame_count() {
        let slow = Performer::new(Persona::reference().with_tempo(0.5), 0)
            .render(&swipe_right())
            .len();
        let fast = Performer::new(Persona::reference().with_tempo(2.0), 0)
            .render(&swipe_right())
            .len();
        assert!(slow > fast * 3, "slow {slow} vs fast {fast}");
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let render = |seed: u64| {
            let persona = Persona::reference()
                .with_noise(NoiseModel::realistic())
                .with_seed(seed);
            Performer::new(persona, 0).render(&swipe_right())
        };
        assert_eq!(render(42), render(42));
        assert_ne!(render(42), render(43));
    }

    #[test]
    fn dropouts_remove_joints() {
        let persona = Persona::reference().with_noise(NoiseModel {
            dropout_prob: 0.5,
            ..NoiseModel::NONE
        });
        let frames = Performer::new(persona, 0).render(&swipe_right());
        let missing: usize = frames
            .iter()
            .map(|f| f.joints.iter().filter(|j| j.is_none()).count())
            .sum();
        assert!(missing > 0, "50% dropout must lose joints");
    }

    #[test]
    fn two_hand_gesture_moves_both() {
        let mut perf = Performer::new(Persona::reference(), 0);
        let frames = perf.render(&two_hand_swipe());
        let dr = frames.last().unwrap().joint(Joint::RightHand).unwrap().x
            - frames[0].joint(Joint::RightHand).unwrap().x;
        let dl = frames.last().unwrap().joint(Joint::LeftHand).unwrap().x
            - frames[0].joint(Joint::LeftHand).unwrap().x;
        assert!(dr > 400.0);
        assert!(dl < -400.0);
    }

    #[test]
    fn idle_render_stays_near_rest() {
        let mut perf = Performer::new(Persona::reference(), 0);
        let frames = perf.render_idle(1000);
        assert!(frames.len() >= 29);
        let first = frames[0].joint(Joint::RightHand).unwrap();
        for f in &frames {
            assert!(f.joint(Joint::RightHand).unwrap().dist(&first) < 10.0);
        }
    }

    #[test]
    fn consecutive_renders_continue_the_clock() {
        let mut perf = Performer::new(Persona::reference(), 0);
        let a = perf.render(&swipe_right());
        let b = perf.render(&swipe_right());
        assert!(b[0].ts > a.last().unwrap().ts);
    }
}
