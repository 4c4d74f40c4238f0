//! Shared harness utilities for the experiment binaries: persona
//! sweeps, teach/detect helpers and plain-text table rendering (the
//! experiment binaries print paper-style tables).

pub mod chaos;

use gesto_cep::Engine;
use gesto_kinect::{
    frames_to_tuples, kinect_schema, GestureSpec, NoiseModel, Performer, Persona, SkeletonFrame,
    KINECT_STREAM,
};
use gesto_learn::query_gen::{generate_query, QueryStyle};
use gesto_learn::{GestureDefinition, Learner, LearnerConfig};
use gesto_transform::{standard_catalog, TransformConfig, Transformer};

/// Renders one gesture performance for a persona (fresh performer).
pub fn perform(spec: &GestureSpec, persona: &Persona, seed: u64) -> Vec<SkeletonFrame> {
    let mut p = Performer::new(persona.clone().with_seed(seed), 0);
    p.render(spec)
}

/// Applies the standard `kinect_t` transformation to raw frames.
pub fn transform_frames(frames: &[SkeletonFrame]) -> Vec<SkeletonFrame> {
    let mut tr = Transformer::new(TransformConfig::default());
    frames
        .iter()
        .filter_map(|f| tr.transform_frame(f))
        .collect()
}

/// Learns a definition from `k` noisy samples of `spec` (seeds
/// `seed_base..seed_base+k`).
pub fn learn_gesture(
    spec: &GestureSpec,
    k: usize,
    seed_base: u64,
    config: LearnerConfig,
) -> GestureDefinition {
    let persona = Persona::reference().with_noise(NoiseModel::realistic());
    let mut learner = Learner::new(config);
    for i in 0..k as u64 {
        let frames = perform(spec, &persona, seed_base + i);
        learner
            .add_sample_frames(&transform_frames(&frames))
            .expect("simulated sample non-empty");
    }
    learner.finalize(&spec.name).expect("finalizable")
}

/// Builds an engine with the standard catalog and the given definitions
/// deployed (transformed-view style).
pub fn engine_with(defs: &[GestureDefinition]) -> Engine {
    let engine = Engine::new(standard_catalog());
    for def in defs {
        engine
            .deploy(generate_query(def, QueryStyle::TransformedView))
            .expect("deployable");
    }
    engine
}

/// Feeds one performance into `engine`; returns the detected gesture
/// names (engine runs are reset afterwards so trials are independent).
pub fn detect(engine: &Engine, frames: &[SkeletonFrame]) -> Vec<String> {
    let tuples = frames_to_tuples(frames, &kinect_schema());
    let out = engine
        .push_batch(KINECT_STREAM, &tuples)
        .expect("stream ok")
        .into_iter()
        .map(|d| d.gesture)
        .collect();
    engine.reset_runs();
    out
}

/// The persona sweep used by the invariance and accuracy experiments:
/// heights from child to tall adult, positions across the field of view,
/// rotations, tempi.
pub fn persona_sweep() -> Vec<(String, Persona)> {
    let base = Persona::reference().with_noise(NoiseModel::realistic());
    vec![
        ("reference".into(), base.clone()),
        ("child 1.15m".into(), base.clone().with_height(1150.0)),
        ("teen 1.45m".into(), base.clone().with_height(1450.0)),
        ("tall 2.00m".into(), base.clone().with_height(2000.0)),
        ("left of camera".into(), base.clone().at(-900.0, 2200.0)),
        ("far away".into(), base.clone().at(300.0, 3400.0)),
        ("rotated -35deg".into(), base.clone().rotated(-0.61)),
        ("rotated +45deg".into(), base.clone().rotated(0.79)),
        ("slow (x0.7)".into(), base.clone().with_tempo(0.7)),
        ("fast (x1.5)".into(), base.clone().with_tempo(1.5)),
        (
            "child, moved, rotated".into(),
            base.with_height(1200.0).at(700.0, 2800.0).rotated(0.5),
        ),
    ]
}

/// Simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("| ");
            for (c, w) in cells.iter().zip(widths) {
                let pad = w - c.chars().count();
                line.push_str(c);
                line.push_str(&" ".repeat(pad));
                line.push_str(" | ");
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&"-".repeat(w + 2));
            sep.push('|');
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Percentage formatting helper.
pub fn pct(hits: usize, total: usize) -> String {
    if total == 0 {
        "n/a".into()
    } else {
        format!("{:.0}%", 100.0 * hits as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesto_kinect::gestures;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with("|--"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(1, 2), "50%");
        assert_eq!(pct(0, 0), "n/a");
    }

    #[test]
    fn learn_and_detect_helper_roundtrip() {
        let def = learn_gesture(&gestures::push(), 2, 0, LearnerConfig::default());
        let engine = engine_with(std::slice::from_ref(&def));
        let frames = perform(
            &gestures::push(),
            &Persona::reference().with_noise(NoiseModel::realistic()),
            99,
        );
        let hits = detect(&engine, &frames);
        assert!(hits.contains(&"push".to_string()));
    }

    #[test]
    fn sweep_is_diverse() {
        let sweep = persona_sweep();
        assert!(sweep.len() >= 10);
        let heights: std::collections::BTreeSet<i64> =
            sweep.iter().map(|(_, p)| p.body.height as i64).collect();
        assert!(heights.len() >= 4);
    }
}
