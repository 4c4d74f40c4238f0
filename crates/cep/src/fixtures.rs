//! Dev-facing fixtures: the paper's Fig. 1 query text, verbatim (modulo
//! whitespace), and [`PerRouteReference`], the per-route data path the
//! equivalence suite compares the engine against.

use std::sync::Arc;

use gesto_stream::{run_operator, BoxedOperator, Tuple};

use crate::detection::Detection;
use crate::error::CepError;
use crate::nfa::{MatchScratch, NfaRuntime};
use crate::plan::QueryPlan;

/// The `swipe_right` detection query from Fig. 1 of the paper.
///
/// Three poses of the right hand relative to the torso — start at
/// (0, 150, −120), middle at (400, 150, −420), end at (800, 150, −120) —
/// each with a ±50 window, consecutive poses within 1 second.
pub const FIG1_QUERY: &str = r#"SELECT "swipe_right"
MATCHING (
  kinect(
    abs(rHand_x - torso_x - 0) < 50 and
    abs(rHand_y - torso_y - 150) < 50 and
    abs(rHand_z - torso_z + 120) < 50
  ) ->
  kinect(
    abs(rHand_x - torso_x - 400) < 50 and
    abs(rHand_y - torso_y - 150) < 50 and
    abs(rHand_z - torso_z + 420) < 50
  )
  within 1 seconds select first consume all
) ->
kinect(
  abs(rHand_x - torso_x - 800) < 50 and
  abs(rHand_y - torso_y - 150) < 50 and
  abs(rHand_z - torso_z + 120) < 50
)
within 1 seconds select first consume all;
"#;

/// The seed's per-route data path, kept as a **test oracle**: every
/// view route of the plan runs its own private view operator (one
/// `kinect_t` transformer per route, nothing shared between plans) and
/// the NFA is stepped one tuple at a time on the scalar path. The engine
/// and the shard worker must detect exactly what this does
/// (`tests/datapath_equivalence.rs`); `bench_datapath` times the gap.
/// Built from public pieces only — the data path does not know it exists.
pub struct PerRouteReference {
    plan: Arc<QueryPlan>,
    /// One private operator per route that reads a view.
    ops: Vec<Option<BoxedOperator>>,
    nfa: NfaRuntime,
    scratch: MatchScratch,
}

impl PerRouteReference {
    /// Fresh per-route state over `plan`: one operator per view route.
    pub fn new(plan: &Arc<QueryPlan>) -> Self {
        Self {
            plan: Arc::clone(plan),
            ops: plan
                .routes()
                .iter()
                .map(|r| r.factory.as_ref().map(|f| f()))
                .collect(),
            nfa: NfaRuntime::instantiate(Arc::clone(plan.program())),
            scratch: MatchScratch::new(),
        }
    }

    /// Pushes one tuple of base stream `stream`, appending any detections
    /// to `out`. Matches completed before a stepping error are delivered.
    pub fn push(
        &mut self,
        stream: &str,
        tuple: &Tuple,
        out: &mut Vec<Detection>,
    ) -> Result<(), CepError> {
        for (route, op) in self.plan.routes().iter().zip(&mut self.ops) {
            if route.base != stream {
                continue;
            }
            // A view may emit 0..n tuples per input.
            let staged = match op {
                Some(op) => run_operator(op.as_mut(), std::slice::from_ref(tuple)),
                None => vec![tuple.clone()],
            };
            for t in &staged {
                let stepped = self.nfa.advance_block_into(
                    &route.source,
                    std::slice::from_ref(t),
                    None,
                    &mut self.scratch,
                );
                out.extend(self.scratch.matches().map(|m| Detection {
                    gesture: self.plan.name().to_owned(),
                    ts: m.ts,
                    started_at: m.started_at,
                    events: m.events.iter().cloned().collect(),
                }));
                self.scratch.clear();
                stepped?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    #[test]
    fn fixture_parses() {
        let q = parse_query(FIG1_QUERY).unwrap();
        assert_eq!(q.name, "swipe_right");
        assert_eq!(q.pattern.event_count(), 3);
    }
}
