//! Crash-recovery sweep: a durable server's journal is cut dead (or
//! bit-flipped) at **every record boundary and a hundred random byte
//! offsets**, and for each mutilation a fresh server is started from
//! the wreckage. The invariant under test is the one `docs/DURABILITY.md`
//! promises: a crash at *any* byte yields a **valid prefix** of the
//! op log — recovery never panics, never invents state, and restores
//! exactly the control-plane state the server had after the last
//! fully-persisted op.
//!
//! The expected states are captured live while the op log is built
//! (`states[n]` = control-plane state after `n` journal records), so
//! the sweep compares restarted servers against *observed* history,
//! not against a re-implementation of replay.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use gesto_durability::replay_dir;
use gesto_kinect::{gestures, Performer, Persona, SkeletonFrame};
use gesto_serve::{DurabilityConfig, Server, ServerConfig};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gesto-crash-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn swipe_frames(seed: u64) -> Vec<SkeletonFrame> {
    let mut p = Performer::new(Persona::reference().with_seed(seed), 0);
    p.render(&gestures::swipe_right())
}

/// One shard, checkpoints effectively disabled: the whole history lives
/// in a single journal segment so truncation offsets map 1:1 to op-log
/// prefixes (checkpoint interplay is covered by the serve unit tests).
fn durable_config(dir: &Path) -> ServerConfig {
    ServerConfig::new()
        .with_shards(1)
        .with_durability_config(DurabilityConfig::new(dir).with_checkpoint_every(1_000_000))
}

/// The control-plane state a restart must reproduce, down to the store
/// content checksum.
#[derive(Debug, Clone, PartialEq)]
struct ControlState {
    deployed: Vec<(String, u32)>,
    store_names: Vec<String>,
    store_crc: u32,
}

fn state_of(server: &Server) -> ControlState {
    let mut deployed = server.deployed_versions();
    deployed.sort();
    ControlState {
        deployed,
        store_names: server.store().names(),
        store_crc: server.store().snapshot().crc,
    }
}

/// Builds the op log (teach + deploys + undeploys + redeploys)
/// and records the control-plane state after every journal record
/// count. Returns the per-record-count states; the journal stays on
/// disk in `dir`.
fn build_oplog(dir: &Path) -> BTreeMap<usize, ControlState> {
    let server = Server::try_start(durable_config(dir)).unwrap();
    let mut states = BTreeMap::new();
    states.insert(0, state_of(&server));
    // `note` after each API call: one call may append several records
    // (teach = PutRecord + Deploy), so states are keyed by the record
    // count actually on disk, read back through the public replay API.
    macro_rules! note {
        () => {
            states.insert(replay_dir(dir, 0).unwrap().records.len(), state_of(&server))
        };
    }

    let samples: Vec<Vec<SkeletonFrame>> = (0..2).map(|s| swipe_frames(40 + s)).collect();
    server.teach("swipe_right", &samples).unwrap();
    note!();
    for i in 0..5 {
        let text = format!(r#"SELECT "g{i}" MATCHING kinect(head_y > {i}000.0);"#);
        server.deploy_text(&text).unwrap();
        note!();
    }
    server
        .deploy_text(r#"SELECT "g5" MATCHING kinect(head_y > 5000.0);"#)
        .unwrap();
    note!();
    server
        .deploy_text(r#"SELECT "g0" MATCHING kinect(head_y > 99.0);"#)
        .unwrap();
    note!();
    server.undeploy("g2").unwrap();
    note!();
    // Redeploy bumps g1 to version 2 — the sweep must restore the
    // version number, not just the plan set.
    server
        .deploy_text(r#"SELECT "g1" MATCHING kinect(head_y > 999.0);"#)
        .unwrap();
    note!();
    server.undeploy("g5").unwrap();
    note!();
    server.shutdown();
    states
}

/// The single journal segment file in `dir`.
fn segment_path(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    assert_eq!(segments.len(), 1, "sweep expects a single journal segment");
    segments.pop().unwrap()
}

/// End offsets of every record (including 0, the empty prefix), walked
/// from the framing: `[payload_len u32][seq u64][crc u32][payload]`.
fn record_boundaries(segment: &[u8]) -> Vec<usize> {
    let mut ends = vec![0usize];
    let mut off = 0usize;
    while off + 16 <= segment.len() {
        let len = u32::from_le_bytes(segment[off..off + 4].try_into().unwrap()) as usize;
        let end = off + 16 + len;
        if end > segment.len() {
            break;
        }
        ends.push(end);
        off = end;
    }
    assert_eq!(off, segment.len(), "op-log builder left a torn tail");
    ends
}

fn copy_journal_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dst.join(path.file_name().unwrap())).unwrap();
    }
}

/// Deterministic PRNG (splitmix64) so the "random" offsets are the
/// same on every run — a failing offset must stay reproducible.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

enum Fault {
    TruncateAt(usize),
    BitFlipAt(usize),
}

/// Copies the pristine journal dir, applies the fault to the segment
/// file, and verifies the crash invariant:
/// 1. replay yields exactly `full_records[..expected_prefix]`;
/// 2. a server starting from the wreckage recovers without error;
/// 3. if the expected state for that prefix was observed during the
///    build, the restarted server reproduces it bit for bit.
fn check_crash(
    pristine: &Path,
    fault: Fault,
    case: &str,
    full_records: &[(u64, Vec<u8>)],
    states: &BTreeMap<usize, ControlState>,
) -> ControlState {
    let dir = temp_dir(case);
    copy_journal_dir(pristine, &dir);
    let segment = segment_path(&dir);
    let mut bytes = std::fs::read(&segment).unwrap();
    let expected_prefix = match fault {
        Fault::TruncateAt(at) => {
            bytes.truncate(at);
            full_records
                .iter()
                .scan(0usize, |end, (_, payload)| {
                    *end += 16 + payload.len();
                    Some(*end)
                })
                .filter(|&end| end <= at)
                .count()
        }
        Fault::BitFlipAt(at) => {
            bytes[at] ^= 0x01;
            // The record containing the flipped byte fails its CRC;
            // everything before it survives.
            full_records
                .iter()
                .scan(0usize, |end, (_, payload)| {
                    *end += 16 + payload.len();
                    Some(*end)
                })
                .filter(|&end| end <= at)
                .count()
        }
    };
    std::fs::write(&segment, &bytes).unwrap();

    let replay = replay_dir(&dir, 0).unwrap();
    assert_eq!(
        replay.records,
        full_records[..expected_prefix],
        "{case}: replay is not the expected op-log prefix"
    );

    let server = Server::try_start(durable_config(&dir))
        .unwrap_or_else(|e| panic!("{case}: recovery failed: {e}"));
    let state = state_of(&server);
    server.shutdown();
    if let Some(expected) = states.get(&expected_prefix) {
        assert_eq!(
            &state, expected,
            "{case}: restarted control-plane state diverged from the \
             state observed after record {expected_prefix}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    state
}

#[test]
fn crash_sweep_every_boundary_and_random_offsets_yield_a_valid_prefix() {
    let pristine = temp_dir("pristine");
    let states = build_oplog(&pristine);
    let full = replay_dir(&pristine, 0).unwrap().records;
    assert!(full.len() >= 12, "op log too short for a meaningful sweep");
    let segment = std::fs::read(segment_path(&pristine)).unwrap();
    let ends = record_boundaries(&segment);
    assert_eq!(ends.len(), full.len() + 1);
    // Every record count is an observed state except the mid-teach one
    // (PutRecord persisted, Deploy lost) — that prefix is still valid,
    // just never observable through the API while the server ran.
    assert!(states.len() >= full.len(), "missed states during the build");

    // Every record boundary: truncation here loses exactly the records
    // after it. Restart twice to pin determinism of recovery itself.
    for (i, &end) in ends.iter().enumerate() {
        let a = check_crash(
            &pristine,
            Fault::TruncateAt(end),
            &format!("boundary-{i}"),
            &full,
            &states,
        );
        let b = check_crash(
            &pristine,
            Fault::TruncateAt(end),
            &format!("boundary-{i}-again"),
            &full,
            &states,
        );
        assert_eq!(a, b, "boundary-{i}: recovery is not deterministic");
    }

    // 100 random mid-record offsets: the torn record is discarded, the
    // prefix before it survives.
    let mut rng = 0x6765_7374_6f21_u64; // deterministic seed
    for n in 0..100 {
        let at = 1 + (splitmix64(&mut rng) % (segment.len() as u64 - 1)) as usize;
        check_crash(
            &pristine,
            Fault::TruncateAt(at),
            &format!("random-{n}-at-{at}"),
            &full,
            &states,
        );
    }

    // Bit flips (silent media corruption): CRC catches the damaged
    // record; recovery keeps the records before it.
    for n in 0..25 {
        let at = (splitmix64(&mut rng) % segment.len() as u64) as usize;
        check_crash(
            &pristine,
            Fault::BitFlipAt(at),
            &format!("flip-{n}-at-{at}"),
            &full,
            &states,
        );
    }

    std::fs::remove_dir_all(&pristine).ok();
}

#[test]
fn recovery_after_torn_tail_keeps_accepting_and_persisting_ops() {
    let pristine = temp_dir("resume-pristine");
    let states = build_oplog(&pristine);
    let full = replay_dir(&pristine, 0).unwrap().records;
    let segment = segment_path(&pristine);
    let bytes = std::fs::read(&segment).unwrap();
    let ends = record_boundaries(&bytes);

    // Crash mid-way through the penultimate record...
    let dir = temp_dir("resume");
    copy_journal_dir(&pristine, &dir);
    let cut = ends[full.len() - 1] + 3; // 3 bytes into the last record
    let mut wounded = bytes.clone();
    wounded.truncate(cut);
    std::fs::write(segment_path(&dir), &wounded).unwrap();

    // ...recover, keep operating (the journal tail must have been
    // repaired so new appends land on a clean boundary)...
    let server = Server::try_start(durable_config(&dir)).unwrap();
    let recovered = state_of(&server);
    assert_eq!(&recovered, states.get(&(full.len() - 1)).unwrap());
    server
        .deploy_text(r#"SELECT "resumed" MATCHING kinect(head_y > 1.0);"#)
        .unwrap();
    server.shutdown();

    // ...and the post-crash op must survive the *next* restart too.
    let server = Server::try_start(durable_config(&dir)).unwrap();
    assert_eq!(server.plan_version("resumed"), Some(1));
    assert_eq!(
        server.deployed_versions().len(),
        recovered.deployed.len() + 1
    );
    server.shutdown();

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&pristine).ok();
}
