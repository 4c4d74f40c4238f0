//! The reference: what a single-threaded `gesto_cep::Engine` detects on
//! each distinct session stream. Every run's per-session `(gesture, ts)`
//! multiset must equal it.

use std::collections::HashMap;

use gesto_cep::{Engine, Query};
use gesto_kinect::{kinect_schema, KinectSlots, KINECT_STREAM};
use gesto_stream::SchemaRef;
use gesto_transform::{register_rpy, standard_catalog};

use crate::gen::Trace;
use crate::workloads::{stream_frame, WARMUP_START};

/// Frames per batch the reference engine is fed: aligned with no
/// workload's batching (30 and 1), so a result that depended on where
/// batches are cut would differ from it. (Tuple-at-a-time would be the
/// purest reference but costs as much as the measured run itself on the
/// 64-gesture catalog.)
const ORACLE_BATCH: usize = 45;

/// One detection, reduced to what correctness is judged on.
pub type Key = (u16, i64);

/// Reference detections per trace, extended lazily as far as a run got.
pub struct Oracle<'a> {
    traces: &'a [Trace],
    engines: Vec<Engine>,
    /// Detections per trace in stream order.
    expected: Vec<Vec<Key>>,
    /// Stream position each trace's engine has consumed up to.
    fed: usize,
    ids: HashMap<String, u16>,
    schema: SchemaRef,
    slots: KinectSlots,
}

impl<'a> Oracle<'a> {
    /// One fresh engine per trace with `queries` deployed (compiled
    /// here, independently of the server under test).
    pub fn new(queries: &[Query], traces: &'a [Trace]) -> Self {
        let engines = traces
            .iter()
            .map(|_| {
                let engine = Engine::new(standard_catalog());
                register_rpy(engine.functions());
                for q in queries {
                    engine.deploy(q.clone()).expect("oracle deploy");
                }
                engine
            })
            .collect();
        let schema = kinect_schema();
        Oracle {
            traces,
            engines,
            expected: vec![Vec::new(); traces.len()],
            fed: WARMUP_START,
            ids: gesture_ids(queries),
            slots: KinectSlots::resolve(&schema, ""),
            schema,
        }
    }

    /// Gesture name → dense id, shared with the run's collectors.
    pub fn ids(&self) -> &HashMap<String, u16> {
        &self.ids
    }

    /// Feeds every trace's engine up to stream position `end`, in
    /// [`ORACLE_BATCH`]-frame batches.
    fn extend_to(&mut self, end: usize) {
        let mut tuples = Vec::with_capacity(ORACLE_BATCH);
        for (t, engine) in self.engines.iter().enumerate() {
            let mut p = self.fed;
            while p < end {
                let n = ORACLE_BATCH.min(end - p);
                tuples.clear();
                tuples.extend((p..p + n).map(|q| {
                    self.slots
                        .tuple(&stream_frame(&self.traces[t], q), &self.schema)
                }));
                for d in engine
                    .push_batch(KINECT_STREAM, &tuples)
                    .expect("oracle push")
                {
                    self.expected[t].push((self.ids[&d.gesture], d.ts));
                }
                p += n;
            }
        }
        self.fed = self.fed.max(end);
    }

    /// Compares what each session observed over stream positions
    /// `start..end` with the reference. Returns `(expected, missing,
    /// extra)` detection counts summed over sessions.
    pub fn check(
        &mut self,
        observed: &mut [Vec<Key>],
        start: usize,
        end: usize,
    ) -> (u64, u64, u64) {
        self.extend_to(end);
        let (mut expected, mut missing, mut extra) = (0, 0, 0);
        for (s, obs) in observed.iter_mut().enumerate() {
            let t = s % self.traces.len();
            let (lo, hi) = (
                stream_frame(&self.traces[t], start).ts,
                stream_frame(&self.traces[t], end).ts,
            );
            let mut want: Vec<Key> = self.expected[t]
                .iter()
                .copied()
                .filter(|&(_, ts)| ts >= lo && ts < hi)
                .collect();
            want.sort_unstable();
            obs.sort_unstable();
            expected += want.len() as u64;
            let (mut i, mut j) = (0, 0);
            while i < want.len() || j < obs.len() {
                match (want.get(i), obs.get(j)) {
                    (Some(w), Some(o)) if w == o => {
                        i += 1;
                        j += 1;
                    }
                    (Some(w), Some(o)) if w < o => {
                        missing += 1;
                        i += 1;
                    }
                    (Some(_), Some(_)) | (None, Some(_)) => {
                        extra += 1;
                        j += 1;
                    }
                    (Some(_), None) => {
                        missing += 1;
                        i += 1;
                    }
                    (None, None) => unreachable!("loop condition"),
                }
            }
        }
        (expected, missing, extra)
    }
}

/// Dense ids for the catalog's gesture names, in catalog order.
pub fn gesture_ids(queries: &[Query]) -> HashMap<String, u16> {
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| (q.name.clone(), i as u16))
        .collect()
}
