//! The gesture store: samples, definitions and generated queries.
//!
//! §3 of the paper: "the sample data is stored in a database for further
//! processing and manual debugging" and "all gesture patterns are stored
//! in a database for an optional post-processing step". This module is
//! that database — an in-memory store with JSON persistence.

use std::collections::BTreeMap;
use std::path::Path;

use gesto_learn::{GestureDefinition, GestureSample};
use parking_lot::RwLock;
use serde::{Content, DeError, Deserialize, Serialize};

use crate::error::DbError;

/// Everything stored about one gesture.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GestureRecord {
    /// Recorded training samples (transformed feature paths).
    pub samples: Vec<GestureSample>,
    /// The learned definition, once finalised.
    pub definition: Option<GestureDefinition>,
    /// The generated query text, once generated.
    pub query_text: Option<String>,
}

/// Serialisable snapshot of the whole store.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StoreSnapshot {
    /// Format version for forward compatibility.
    pub version: u32,
    /// CRC-32 over the canonical JSON of `gestures` — bit rot in a
    /// persisted snapshot is caught at [`GestureStore::restore`] instead
    /// of silently loading a mangled gesture. Version-1 snapshots
    /// predate the checksum; they deserialise with `crc == 0` and skip
    /// the check.
    pub crc: u32,
    /// Gestures by name.
    pub gestures: BTreeMap<String, GestureRecord>,
}

// Hand-written (not derived) so version-1 snapshots — which have no
// `crc` key — keep loading: the vendored serde shim treats every missing
// struct field as an error.
impl Serialize for StoreSnapshot {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("version".to_owned(), self.version.to_content()),
            ("crc".to_owned(), self.crc.to_content()),
            ("gestures".to_owned(), self.gestures.to_content()),
        ])
    }
}

impl Deserialize for StoreSnapshot {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let version = match content.get("version") {
            Some(c) => u32::from_content(c)?,
            None => return Err(DeError::new("missing field `version`")),
        };
        let crc = match content.get("crc") {
            Some(c) => u32::from_content(c)?,
            None => 0,
        };
        let gestures = match content.get("gestures") {
            Some(c) => BTreeMap::from_content(c)?,
            None => return Err(DeError::new("missing field `gestures`")),
        };
        Ok(StoreSnapshot {
            version,
            crc,
            gestures,
        })
    }
}

/// Current snapshot format version. Version 2 added the payload CRC;
/// version-1 snapshots still load (without the integrity check).
pub const SNAPSHOT_VERSION: u32 = 2;

/// CRC-32 over the canonical JSON of a gesture map. `BTreeMap` ordering
/// makes the serialisation deterministic, so the checksum is stable
/// across processes.
pub fn snapshot_crc(gestures: &BTreeMap<String, GestureRecord>) -> u32 {
    let json = serde_json::to_string(gestures)
        .expect("in-memory serialisation of the gesture map cannot fail");
    gesto_durability::crc32(json.as_bytes())
}

/// Thread-safe gesture database.
#[derive(Default)]
pub struct GestureStore {
    inner: RwLock<BTreeMap<String, GestureRecord>>,
}

impl GestureStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a training sample for `name` (creates the record if needed).
    /// Returns the new sample count.
    pub fn add_sample(&self, name: &str, sample: GestureSample) -> usize {
        let mut inner = self.inner.write();
        let rec = inner.entry(name.to_owned()).or_default();
        rec.samples.push(sample);
        rec.samples.len()
    }

    /// Stores (or replaces) the learned definition of `name`.
    pub fn put_definition(&self, def: GestureDefinition) -> Result<(), DbError> {
        def.validate().map_err(DbError::InvalidDefinition)?;
        let mut inner = self.inner.write();
        let rec = inner.entry(def.name.clone()).or_default();
        rec.definition = Some(def);
        Ok(())
    }

    /// Inserts (or replaces) the full record of `name` — the journal-
    /// replay entry point: a recovered control-plane op carries the
    /// whole record. Validates the definition (if any) first.
    pub fn put_record(&self, name: &str, record: GestureRecord) -> Result<(), DbError> {
        if let Some(def) = &record.definition {
            def.validate()
                .map_err(|e| DbError::InvalidDefinition(format!("gesture '{name}': {e}")))?;
        }
        self.inner.write().insert(name.to_owned(), record);
        Ok(())
    }

    /// Stores the generated query text of `name`.
    pub fn put_query_text(&self, name: &str, text: impl Into<String>) {
        let mut inner = self.inner.write();
        let rec = inner.entry(name.to_owned()).or_default();
        rec.query_text = Some(text.into());
    }

    /// Full record of a gesture.
    pub fn get(&self, name: &str) -> Option<GestureRecord> {
        self.inner.read().get(name).cloned()
    }

    /// The learned definition of a gesture.
    pub fn definition(&self, name: &str) -> Option<GestureDefinition> {
        self.inner
            .read()
            .get(name)
            .and_then(|r| r.definition.clone())
    }

    /// All stored definitions (for cross-checks).
    pub fn definitions(&self) -> Vec<GestureDefinition> {
        self.inner
            .read()
            .values()
            .filter_map(|r| r.definition.clone())
            .collect()
    }

    /// Sorted gesture names.
    pub fn names(&self) -> Vec<String> {
        self.inner.read().keys().cloned().collect()
    }

    /// Number of stored gestures.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Removes a gesture entirely; returns its record.
    pub fn remove(&self, name: &str) -> Option<GestureRecord> {
        self.inner.write().remove(name)
    }

    /// Snapshot for persistence (carries a CRC over the payload).
    pub fn snapshot(&self) -> StoreSnapshot {
        let gestures = self.inner.read().clone();
        StoreSnapshot {
            version: SNAPSHOT_VERSION,
            crc: snapshot_crc(&gestures),
            gestures,
        }
    }

    /// Restores from a snapshot (replaces current contents).
    ///
    /// Everything is validated **before** the write lock is taken — the
    /// store is never left holding a half-checked snapshot: the version
    /// must be supported, the CRC must match (version ≥ 2), and every
    /// definition must validate.
    pub fn restore(&self, snapshot: StoreSnapshot) -> Result<(), DbError> {
        if snapshot.version == 0 || snapshot.version > SNAPSHOT_VERSION {
            return Err(DbError::Version {
                found: snapshot.version,
                supported: SNAPSHOT_VERSION,
            });
        }
        if snapshot.version >= 2 {
            let computed = snapshot_crc(&snapshot.gestures);
            if computed != snapshot.crc {
                return Err(DbError::Corrupt {
                    stored: snapshot.crc,
                    computed,
                });
            }
        }
        for (name, rec) in &snapshot.gestures {
            if let Some(def) = &rec.definition {
                def.validate()
                    .map_err(|e| DbError::InvalidDefinition(format!("gesture '{name}': {e}")))?;
            }
        }
        *self.inner.write() = snapshot.gestures;
        Ok(())
    }

    /// Saves the store as pretty JSON.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DbError> {
        let json = serde_json::to_string_pretty(&self.snapshot())?;
        std::fs::write(path.as_ref(), json).map_err(|e| DbError::Io(e.to_string()))?;
        Ok(())
    }

    /// Loads a store from JSON.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, DbError> {
        let json =
            std::fs::read_to_string(path.as_ref()).map_err(|e| DbError::Io(e.to_string()))?;
        let snapshot: StoreSnapshot = serde_json::from_str(&json)?;
        let store = Self::new();
        store.restore(snapshot)?;
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesto_learn::{JointSet, PathPoint, PoseWindow};

    fn def(name: &str) -> GestureDefinition {
        GestureDefinition {
            name: name.into(),
            joints: JointSet::right_hand(),
            poses: vec![
                PoseWindow::new(vec![0.0; 3], vec![50.0; 3]),
                PoseWindow::new(vec![400.0, 0.0, 0.0], vec![50.0; 3]),
            ],
            within_ms: vec![1000],
            active_dims: vec![true; 3],
            sample_count: 2,
        }
    }

    fn sample() -> GestureSample {
        GestureSample {
            points: vec![
                PathPoint::new(0, vec![0.0, 0.0, 0.0]),
                PathPoint::new(33, vec![10.0, 0.0, 0.0]),
            ],
        }
    }

    #[test]
    fn add_samples_and_definitions() {
        let store = GestureStore::new();
        assert!(store.is_empty());
        assert_eq!(store.add_sample("swipe", sample()), 1);
        assert_eq!(store.add_sample("swipe", sample()), 2);
        store.put_definition(def("swipe")).unwrap();
        store.put_query_text("swipe", "SELECT ...");
        let rec = store.get("swipe").unwrap();
        assert_eq!(rec.samples.len(), 2);
        assert!(rec.definition.is_some());
        assert_eq!(rec.query_text.as_deref(), Some("SELECT ..."));
        assert_eq!(store.names(), vec!["swipe"]);
    }

    #[test]
    fn invalid_definition_rejected() {
        let store = GestureStore::new();
        let mut bad = def("x");
        bad.within_ms.clear();
        assert!(matches!(
            store.put_definition(bad),
            Err(DbError::InvalidDefinition(_))
        ));
        assert!(store.definition("x").is_none());
    }

    #[test]
    fn remove_drops_the_record() {
        let store = GestureStore::new();
        store.add_sample("a", sample());
        store.add_sample("a", sample());
        assert_eq!(store.remove("a").unwrap().samples.len(), 2);
        assert!(store.get("a").is_none());
        assert!(store.remove("a").is_none());
    }

    #[test]
    fn snapshot_roundtrip_in_memory() {
        let store = GestureStore::new();
        store.add_sample("a", sample());
        store.put_definition(def("a")).unwrap();
        let snap = store.snapshot();
        let store2 = GestureStore::new();
        store2.restore(snap).unwrap();
        assert_eq!(store2.definition("a"), Some(def("a")));
        assert_eq!(store2.get("a").unwrap().samples.len(), 1);
    }

    #[test]
    fn version_mismatch_rejected() {
        let store = GestureStore::new();
        let snap = StoreSnapshot {
            version: 99,
            crc: 0,
            gestures: BTreeMap::new(),
        };
        assert!(matches!(
            store.restore(snap),
            Err(DbError::Version { found: 99, .. })
        ));
    }

    #[test]
    fn v1_snapshot_without_crc_still_loads() {
        // A version-1 snapshot (written before the checksum existed) has
        // no `crc` key at all; it must keep loading.
        let store = GestureStore::new();
        store.add_sample("a", sample());
        store.put_definition(def("a")).unwrap();
        let gestures_json = serde_json::to_string(&store.snapshot().gestures).unwrap();
        let v1 = format!("{{\"version\":1,\"gestures\":{gestures_json}}}");
        let snap: StoreSnapshot = serde_json::from_str(&v1).unwrap();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.crc, 0);
        let store2 = GestureStore::new();
        store2.restore(snap).unwrap();
        assert_eq!(store2.definition("a"), Some(def("a")));
    }

    #[test]
    fn crc_mismatch_rejected() {
        let store = GestureStore::new();
        store.add_sample("a", sample());
        let mut snap = store.snapshot();
        assert_eq!(snap.version, SNAPSHOT_VERSION);
        assert_ne!(snap.crc, 0);
        // Mutate the payload after the checksum was taken.
        snap.gestures
            .insert("ghost".into(), GestureRecord::default());
        let store2 = GestureStore::new();
        assert!(matches!(store2.restore(snap), Err(DbError::Corrupt { .. })));
    }

    #[test]
    fn put_record_validates_and_inserts() {
        let store = GestureStore::new();
        let rec = GestureRecord {
            samples: vec![sample()],
            definition: Some(def("w")),
            query_text: Some("Q".into()),
        };
        store.put_record("w", rec.clone()).unwrap();
        assert_eq!(store.get("w"), Some(rec));

        let mut bad = def("b");
        bad.within_ms.clear();
        let rec = GestureRecord {
            samples: vec![],
            definition: Some(bad),
            query_text: None,
        };
        assert!(matches!(
            store.put_record("b", rec),
            Err(DbError::InvalidDefinition(_))
        ));
        assert!(store.get("b").is_none());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("gesto-db-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        let store = GestureStore::new();
        store.add_sample("swipe", sample());
        store.put_definition(def("swipe")).unwrap();
        store.put_query_text("swipe", "Q");
        store.save(&path).unwrap();

        let loaded = GestureStore::load(&path).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded.definition("swipe"), Some(def("swipe")));
        assert_eq!(
            loaded.get("swipe").unwrap().query_text.as_deref(),
            Some("Q")
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(matches!(
            GestureStore::load("/nonexistent/gesto.json"),
            Err(DbError::Io(_))
        ));
    }

    #[test]
    fn load_corrupt_json_errors() {
        let dir = std::env::temp_dir().join(format!("gesto-db-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{ not json").unwrap();
        assert!(matches!(GestureStore::load(&path), Err(DbError::Serde(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
