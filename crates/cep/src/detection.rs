//! The detection event: what a deployed query reports for every completed
//! match — the "result tuple … which can be used to trigger arbitrary
//! actions in any listening application" of §2.

use std::sync::Arc;

use gesto_stream::Tuple;

/// A detection event produced by a deployed query.
#[derive(Debug, Clone)]
pub struct Detection {
    /// Gesture (query) name.
    pub gesture: String,
    /// Completion stream time.
    pub ts: i64,
    /// Stream time of the first matched event.
    pub started_at: i64,
    /// The matched event tuples, one per pattern step. Shared: cloning a
    /// detection (e.g. fanning it out to several sinks) bumps one
    /// refcount instead of deep-copying the events.
    pub events: Arc<[Tuple]>,
}

impl Detection {
    /// Duration of the gesture in stream milliseconds.
    pub fn duration_ms(&self) -> i64 {
        self.ts - self.started_at
    }
}
