//! The detection event: what a deployed query reports for every completed
//! match — the "result tuple … which can be used to trigger arbitrary
//! actions in any listening application" of §2.

use std::fmt;
use std::sync::Arc;

use gesto_stream::{KeptRow, Tuple};

/// A detection event produced by a deployed query.
#[derive(Debug, Clone)]
pub struct Detection {
    /// Gesture (query) name.
    pub gesture: String,
    /// Completion stream time.
    pub ts: i64,
    /// Stream time of the first matched event.
    pub started_at: i64,
    /// The matched events, one per pattern step. Shared: cloning a
    /// detection (e.g. fanning it out to several sinks) bumps one
    /// refcount instead of deep-copying the events.
    pub events: Events,
}

impl Detection {
    /// Duration of the gesture in stream milliseconds.
    pub fn duration_ms(&self) -> i64 {
        self.ts - self.started_at
    }
}

/// A match's events, one per pattern step: the rows the NFA kept, each
/// built as a tuple on its first read ([`KeptRow::tuple`]), once however
/// many detections carry it — so a detection nobody reads builds none.
/// `R` holds the rows: shared by a [`Detection`], or borrowed from a
/// [`crate::MatchScratch`] by a [`crate::MatchView`].
#[derive(Clone, Copy)]
pub struct Events<R = Arc<[KeptRow]>>(pub(crate) R);

impl<R: AsRef<[KeptRow]>> Events<R> {
    /// Number of events (the pattern's step count).
    pub fn len(&self) -> usize {
        self.0.as_ref().len()
    }

    /// True when there is no event.
    pub fn is_empty(&self) -> bool {
        self.0.as_ref().is_empty()
    }

    /// Every step's tuple in order, each read as it is reached.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &Tuple> {
        self.0.as_ref().iter().map(KeptRow::tuple)
    }
}

impl From<Events<&[KeptRow]>> for Events {
    fn from(events: Events<&[KeptRow]>) -> Self {
        Self(events.0.into())
    }
}

/// Prints the tuples, so printing reads (builds) every row.
impl<R: AsRef<[KeptRow]>> fmt::Debug for Events<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}
