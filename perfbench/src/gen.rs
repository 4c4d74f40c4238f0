//! Seeded input generation: everything the program under test receives
//! is made here from `--seed` — the skeleton traces the sessions stream
//! and the raw teaching samples of the gesture catalog. The program sees
//! frames only; personas, gesture order and learner settings never
//! reach it except through those frames and the public learn/deploy
//! calls of set-up.

use gesto_kinect::{gestures, GestureSpec, NoiseModel, Performer, Persona, SkeletonFrame};
use gesto_learn::{JointSet, LearnerConfig};

/// Distinct traces the sessions draw from, round-robin.
pub const TRACES: usize = 16;
/// Frames per trace (30 s of a 30 Hz sensor): long enough for one
/// performance of each library gesture with idle padding.
pub const TRACE_FRAMES: usize = 900;

/// Splitmix64: small, seedable, and independent of the vendored `rand`
/// shims, so a change to those cannot silently change the workloads.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a seed (the stream index
    /// keeps traces, catalog and samples independent of each other).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One session's sensor stream for one round: exactly [`TRACE_FRAMES`]
/// frames with timestamps starting at 0.
pub struct Trace {
    pub frames: Vec<SkeletonFrame>,
    /// Stream time one replay advances by; round `r` of a session is
    /// this trace shifted by `r * span_ms`.
    pub span_ms: i64,
}

impl Trace {
    /// Index of the frame stamped `ts` in a replayed stream, and the
    /// round it belongs to.
    pub fn locate(&self, ts: i64) -> Option<(usize, usize)> {
        let round = ts.div_euclid(self.span_ms);
        let within = ts.rem_euclid(self.span_ms);
        let idx = self.frames.binary_search_by_key(&within, |f| f.ts).ok()?;
        Some((round as usize, idx))
    }
}

/// A live user: height, position, rotation and tempo vary across the
/// ranges the paper's invariance claim covers, with realistic sensor
/// and performance noise.
fn persona(rng: &mut Rng) -> Persona {
    Persona::reference()
        .with_height(rng.range(1450.0, 1950.0))
        .at(rng.range(-700.0, 700.0), rng.range(1900.0, 3000.0))
        .rotated(rng.range(-0.5, 0.5))
        .with_tempo(rng.range(0.85, 1.25))
        .with_noise(NoiseModel::realistic())
        .with_seed(rng.next_u64())
}

/// The [`TRACES`] seeded traces: each a random order of the standard
/// library's gestures with idle padding, by its own persona.
pub fn traces(seed: u64) -> Vec<Trace> {
    (0..TRACES as u64)
        .map(|i| {
            let mut rng = Rng::new(seed, 1 + i);
            let mut performer = Performer::new(persona(&mut rng), 0);
            let mut order = gestures::standard_library();
            rng.shuffle(&mut order);
            let mut frames = performer.render_idle(300);
            for spec in order.iter().cycle() {
                if frames.len() >= TRACE_FRAMES {
                    break;
                }
                let lead_in = rng.range(200.0, 500.0) as i64;
                let lead_out = rng.range(300.0, 700.0) as i64;
                frames.extend(performer.render_padded(spec, lead_in, lead_out));
            }
            frames.truncate(TRACE_FRAMES);
            // The frame clock is drift-free: frame 900 is due at 30 s
            // sharp, so a replay shifted by that continues the cadence.
            let span_ms = (TRACE_FRAMES as f64 * 1000.0 / gesto_stream::KINECT_HZ).round() as i64;
            assert!(frames.last().expect("non-empty trace").ts < span_ms);
            Trace { frames, span_ms }
        })
        .collect()
}

/// One catalog entry as the program receives it: a name, raw teaching
/// samples and the learner settings to use.
pub struct GestureSource {
    pub name: String,
    pub samples: Vec<Vec<SkeletonFrame>>,
    pub config: LearnerConfig,
}

/// `n` distinct gestures to learn: the library's specs cycled, each
/// variant with its own seeded samples, sample count and window
/// generalisation, so the learned predicates overlap without being
/// identical (a catalog of copies would let predicate sharing collapse
/// the workload to one gesture).
pub fn catalog(seed: u64, n: usize) -> Vec<GestureSource> {
    // `wave` is performed in the traces but not taught: its start and
    // end pose coincide, so the learner reduces it to one pose that
    // fires on every frame the hand is raised — a detection flood, not
    // a gesture.
    let library: Vec<GestureSpec> = gestures::standard_library()
        .into_iter()
        .filter(|g| g.name != "wave")
        .collect();
    (0..n)
        .map(|i| {
            let spec = &library[i % library.len()];
            let variant = i / library.len();
            let mut rng = Rng::new(seed, 1000 + i as u64);
            // Learn over the joints the gesture moves: with the default
            // (right hand only) a left-hand gesture degenerates into a
            // one-pose pattern that fires on every idle frame.
            let mut config = LearnerConfig {
                joints: JointSet::new(spec.joints()),
                ..LearnerConfig::default()
            };
            let k = if variant == 0 {
                3
            } else {
                config.width_scale = rng.range(1.0, 1.5);
                config.min_width_mm = rng.range(40.0, 70.0);
                3 + rng.below(3) as usize
            };
            GestureSource {
                name: format!("{}_v{variant}", spec.name),
                samples: (0..k).map(|_| teaching_sample(spec, &mut rng)).collect(),
                config,
            }
        })
        .collect()
}

/// One noisy performance by the reference teacher (the §3.1 recording
/// protocol).
fn teaching_sample(spec: &GestureSpec, rng: &mut Rng) -> Vec<SkeletonFrame> {
    let teacher = Persona::reference()
        .with_noise(NoiseModel::realistic())
        .with_seed(rng.next_u64());
    Performer::new(teacher, 0).render(spec)
}
