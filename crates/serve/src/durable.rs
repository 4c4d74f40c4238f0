//! The durable control plane: journaled operations and checkpoint
//! payloads.
//!
//! Every control-plane mutation of a durable server — teaching a
//! gesture, deploying or undeploying a plan — is serialised as one
//! [`ControlOp`] (JSON) and appended to the write-ahead journal
//! **before** it is acknowledged to the caller.
//! Recovery ([`crate::Server::try_with_parts`]) loads the newest valid
//! checkpoint, replays the journal tail in sequence order, recompiles
//! each surviving plan exactly once, and broadcasts it to the shards —
//! a restarted server detects bit-identically to one that never went
//! down. See `docs/DURABILITY.md` for the full recovery algorithm and
//! crash-consistency argument.
//!
//! Data-plane frames are **never** journaled: the control plane changes
//! rarely, skeleton streams are ephemeral, and keeping the journal off
//! the hot path is what makes durability free at steady state.

use std::collections::HashMap;

use gesto_db::{GestureRecord, StoreSnapshot};
use gesto_durability::Journal;
use serde::{Deserialize, Serialize};

use crate::config::DurabilityConfig;

/// One journaled control-plane operation. The JSON encoding of this
/// enum (externally tagged: `{"Deploy":{...}}`) is the journal's
/// payload format; changing a variant's shape is a journal format
/// change and must be versioned.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControlOp {
    /// A gesture record was stored (teach: samples + definition +
    /// query text). Replay restores the store entry verbatim — no
    /// re-learning on recovery.
    PutRecord {
        /// Gesture name.
        name: String,
        /// The full stored record.
        record: GestureRecord,
    },
    /// A query was deployed as version `version` of `name`. Replay
    /// recompiles `text` (compile-once: the newest surviving version
    /// per name is compiled, earlier ones are superseded in-memory).
    Deploy {
        /// Gesture (query) name.
        name: String,
        /// Canonical query text (parsable by `gesto_cep::parse_query`).
        text: String,
        /// Monotone version of this name, starting at 1.
        version: u32,
    },
    /// A plan was removed.
    Undeploy {
        /// Gesture (query) name.
        name: String,
    },
}

/// One deployed plan's durable identity inside a checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanMeta {
    /// Gesture (query) name.
    pub name: String,
    /// Canonical query text.
    pub text: String,
    /// Deployed version.
    pub version: u32,
}

/// The checkpoint payload: full control-plane state as of one journal
/// sequence number. Serialised as JSON inside the CRC-framed checkpoint
/// file (`gesto_durability::checkpoint`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointPayload {
    /// The gesture store (samples, definitions, query texts).
    pub store: StoreSnapshot,
    /// Deployed plans, sorted by name (deterministic payload bytes).
    pub plans: Vec<PlanMeta>,
}

/// Live state of a durable server: the open journal plus checkpoint
/// pacing. Lives behind `Mutex<Option<_>>` on the server core — `None`
/// when durability is off, and the mutex serialises control-plane ops
/// (which are rare) without touching the data path.
pub(crate) struct DurableState {
    /// The open write-ahead journal.
    pub journal: Journal,
    /// The durability configuration (dir, fsync, checkpoint pacing).
    pub cfg: DurabilityConfig,
    /// Ops journaled since the last checkpoint.
    pub ops_since_ckpt: u64,
}

/// Renders the journal payload of one op.
pub(crate) fn encode_op(op: &ControlOp) -> Result<String, crate::ServeError> {
    serde_json::to_string(op)
        .map_err(|e| crate::ServeError::Durability(format!("encoding control op: {e}")))
}

/// Parses one journal payload.
pub(crate) fn decode_op(payload: &[u8]) -> Result<ControlOp, crate::ServeError> {
    let text = std::str::from_utf8(payload).map_err(|_| {
        crate::ServeError::Durability("journal payload is not UTF-8 JSON".to_owned())
    })?;
    serde_json::from_str(text)
        .map_err(|e| crate::ServeError::Durability(format!("decoding control op: {e}")))
}

/// Builds the (deterministic) checkpoint payload JSON from live state.
pub(crate) fn encode_checkpoint(
    store: StoreSnapshot,
    plans: &HashMap<String, crate::server::DeployedPlan>,
) -> Result<String, crate::ServeError> {
    let mut metas: Vec<PlanMeta> = plans
        .iter()
        .map(|(name, d)| PlanMeta {
            name: name.clone(),
            text: d.plan.query().to_query_text(),
            version: d.version,
        })
        .collect();
    metas.sort_by(|a, b| a.name.cmp(&b.name));
    serde_json::to_string(&CheckpointPayload {
        store,
        plans: metas,
    })
    .map_err(|e| crate::ServeError::Durability(format!("encoding checkpoint: {e}")))
}

/// Parses a checkpoint payload.
pub(crate) fn decode_checkpoint(payload: &[u8]) -> Result<CheckpointPayload, crate::ServeError> {
    let text = std::str::from_utf8(payload).map_err(|_| {
        crate::ServeError::Durability("checkpoint payload is not UTF-8 JSON".to_owned())
    })?;
    serde_json::from_str(text)
        .map_err(|e| crate::ServeError::Durability(format!("decoding checkpoint: {e}")))
}

/// Maps an I/O error of the durability layer into a [`crate::ServeError`].
pub(crate) fn io_err(context: &str, e: std::io::Error) -> crate::ServeError {
    crate::ServeError::Durability(format!("{context}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_op_json_roundtrip() {
        let ops = vec![
            ControlOp::PutRecord {
                name: "swipe".into(),
                record: GestureRecord::default(),
            },
            ControlOp::Deploy {
                name: "swipe".into(),
                text: "SELECT \"swipe\"\nMATCHING kinect(x > 1);".into(),
                version: 3,
            },
            ControlOp::Undeploy {
                name: "swipe".into(),
            },
            ControlOp::Deploy {
                name: "swipe".into(),
                text: "SELECT \"swipe\"\nMATCHING kinect(x < 2);".into(),
                version: 4,
            },
        ];
        for op in ops {
            let json = encode_op(&op).unwrap();
            let back = decode_op(json.as_bytes()).unwrap();
            assert_eq!(back, op);
        }
    }

    #[test]
    fn a_checkpoint_with_the_removed_config_map_still_loads() {
        let store = gesto_db::GestureStore::new().snapshot();
        let json = encode_checkpoint(store.clone(), &HashMap::new()).unwrap();
        let old = format!(
            r#"{},"config":{{"mode":"demo"}}}}"#,
            &json[..json.len() - 1]
        );
        let payload = decode_checkpoint(old.as_bytes()).unwrap();
        assert_eq!((payload.store, payload.plans), (store, Vec::new()));
    }

    #[test]
    fn bad_payloads_are_errors_not_panics() {
        assert!(decode_op(b"\xFF\xFE").is_err());
        assert!(decode_op(b"{\"Nope\":{}}").is_err());
        assert!(decode_checkpoint(b"not json").is_err());
    }
}
