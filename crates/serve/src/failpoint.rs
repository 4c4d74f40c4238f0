//! Data-path fault injection for supervision tests and the chaos
//! harness.
//!
//! PR 9's `FailpointFs` injects faults into the durability layer's
//! filesystem; this module generalises the idea to the **data path**.
//! The hooks are process-global, deliberately content-addressed and
//! dirt cheap when disarmed (one relaxed atomic load per batch), so
//! the same injection works identically whether frames arrive through
//! [`crate::ServerHandle::push_batch`] or over the `GSW1` wire — the
//! network edge allocates its own engine session ids, so a failpoint
//! keyed on a session id would not survive the wire path, but a frame
//! timestamp does.
//!
//! Arming [`arm_poison_ts`] makes the **first** shard worker that
//! processes a batch containing a frame with exactly that timestamp
//! panic mid-batch (one-shot: the trigger disarms itself). The panic
//! exercises the full recovery path: the worker catches it,
//! quarantines the poison batch, resets that one session and carries
//! on with its next job on the same thread.
//!
//! These hooks exist for tests and the chaos harness; they default to
//! disarmed and cost nothing when unused. They are intentionally not
//! reachable from any network input.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use gesto_kinect::SkeletonFrame;

/// Sentinel meaning "no poison timestamp armed".
const DISARMED: i64 = i64::MIN;

static POISON_TS: AtomicI64 = AtomicI64::new(DISARMED);
static POISON_TRIPS: AtomicU64 = AtomicU64::new(0);

/// Arms the one-shot poison timestamp: the next processed batch
/// containing a frame with exactly this `ts` panics its shard worker.
/// The trigger disarms itself when it fires.
pub fn arm_poison_ts(ts: i64) {
    assert_ne!(ts, DISARMED, "reserved sentinel");
    POISON_TS.store(ts, Ordering::Release);
}

/// Disarms a pending poison timestamp (idempotent).
pub fn disarm() {
    POISON_TS.store(DISARMED, Ordering::Release);
}

/// Times the poison failpoint has fired since process start.
pub fn poison_trips() -> u64 {
    POISON_TRIPS.load(Ordering::Acquire)
}

/// Hot-path check: panics iff the poison timestamp is armed and one of
/// `frames` carries it (winning the one-shot CAS). One relaxed load
/// when disarmed — the steady state.
pub(crate) fn maybe_poison(frames: &[SkeletonFrame]) {
    let armed = POISON_TS.load(Ordering::Relaxed);
    if armed == DISARMED {
        return;
    }
    if frames.iter().any(|f| f.ts == armed)
        && POISON_TS
            .compare_exchange(armed, DISARMED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    {
        POISON_TRIPS.fetch_add(1, Ordering::AcqRel);
        panic!("failpoint: poisoned batch (ts {armed})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_is_inert_and_oneshot_fires_once() {
        disarm();
        let mut f = SkeletonFrame::empty(42, 0);
        maybe_poison(std::slice::from_ref(&f)); // disarmed: no panic
        arm_poison_ts(42);
        let trips = poison_trips();
        let hit = std::panic::catch_unwind(|| maybe_poison(std::slice::from_ref(&f)));
        assert!(hit.is_err(), "armed poison ts panics");
        assert_eq!(poison_trips(), trips + 1);
        // One-shot: the same frame no longer trips.
        maybe_poison(std::slice::from_ref(&f));
        f.ts = 43;
        maybe_poison(std::slice::from_ref(&f));
    }
}
