//! Wire format v2 (binary) — bit-identity and rejection.
//!
//! For **every** [`SketchSpec`] task the format gauntlet must be
//! bit-exact: sketch → write v2 → read → decode equals the in-process
//! decode, with the states structurally equal and the bytes stable. And
//! malformed binary files — truncations at every prefix, geometry
//! tampering, bad magic — must be refused with a typed [`WireError`],
//! never mis-loaded.

use graph_sketches::api::{SketchSpec, SketchTask};
use graph_sketches::wire::{v2_checksum, SketchFile, WireError, V2_MAGIC, WIRE_FORMAT_BIN};
use gs_graph::gen;
use gs_sketch::EdgeUpdate;
use gs_stream::distributed::sketch_central;
use gs_stream::GraphStream;

fn churn_updates(n: usize, p: f64, seed: u64) -> Vec<EdgeUpdate> {
    let g = gen::gnp(n, p, seed);
    GraphStream::with_churn(&g, 150, seed ^ 0xD1).edge_updates()
}

fn weighted_updates(n: usize, seed: u64) -> Vec<EdgeUpdate> {
    let g = gen::gnp_weighted(n, 0.4, 8, seed);
    g.edges()
        .iter()
        .map(|&(u, v, w)| EdgeUpdate::weighted(u, v, w, 1))
        .collect()
}

fn task_updates(task: SketchTask, n: usize, seed: u64) -> Vec<EdgeUpdate> {
    match task {
        SketchTask::WeightedSparsify | SketchTask::Mst => weighted_updates(n, seed),
        _ => churn_updates(n, 0.3, seed),
    }
}

/// Rewrites the trailing checksum after a deliberate in-place edit, so the
/// test reaches the structural validation *behind* the checksum gate.
fn reseal(bytes: &mut [u8]) {
    let split = bytes.len() - 8;
    let sum = v2_checksum(&bytes[..split]);
    bytes[split..].copy_from_slice(&sum.to_le_bytes());
}

fn spec_for(task: SketchTask) -> SketchSpec {
    SketchSpec::new(task, 12)
        .with_eps(0.9)
        .with_max_weight(8)
        .with_seed(0x22E)
}

/// A fed sketch file for one task, plus the central sketch it carries.
fn fed_file(task: SketchTask) -> SketchFile {
    let spec = spec_for(task);
    let updates = task_updates(task, 12, 7);
    let central = sketch_central(&updates, || spec.build());
    SketchFile::new(spec, central).expect("state matches spec")
}

#[test]
fn v2_gauntlet_is_bit_exact_for_every_task() {
    for task in SketchTask::ALL {
        let file = fed_file(task);
        let answer = file.decode();

        let v2_bytes = file.to_bytes();
        assert!(v2_bytes.starts_with(V2_MAGIC));
        let from_v2 = SketchFile::from_bytes(&v2_bytes).expect("v2 loads");
        assert_eq!(from_v2.spec, file.spec, "{task:?}: spec drifted");
        assert_eq!(from_v2.state, file.state, "{task:?}: v2 state drifted");
        assert_eq!(from_v2.decode(), answer, "{task:?}: answers differ");

        // The binary form re-round-trips to itself byte for byte.
        assert_eq!(from_v2.to_bytes(), v2_bytes, "{task:?}: v2 bytes unstable");
    }
}

#[test]
fn v2_merge_equals_central_for_every_task() {
    for task in SketchTask::ALL {
        let spec = spec_for(task);
        let updates = task_updates(task, 12, 9);
        let central = sketch_central(&updates, || spec.build());
        let mid = updates.len() / 2;
        let mut acc: Option<SketchFile> = None;
        for share in [&updates[..mid], &updates[mid..]] {
            let site = SketchFile::new(spec, sketch_central(share, || spec.build())).unwrap();
            // Ship through the binary format.
            let shipped = SketchFile::from_bytes(&site.to_bytes()).expect("v2 loads");
            match &mut acc {
                None => acc = Some(shipped),
                Some(a) => a.try_merge(&shipped).expect("compatible sites merge"),
            }
        }
        assert_eq!(acc.unwrap().state, central, "{task:?}: v2 merge != central");
    }
}

#[test]
fn truncated_v2_is_rejected_at_every_prefix() {
    let file = fed_file(SketchTask::Connectivity);
    let bytes = file.to_bytes();
    // Every strict prefix long enough to keep the magic must report
    // truncation (or a corrupt count), never load or panic.
    for cut in [
        V2_MAGIC.len(),
        V2_MAGIC.len() + 2,
        bytes.len() / 4,
        bytes.len() / 2,
        bytes.len() - 1,
    ] {
        match SketchFile::from_bytes(&bytes[..cut]) {
            Err(WireError::Truncated { .. }) | Err(WireError::Corrupt(_)) => {}
            other => panic!("prefix of {cut} bytes: expected truncation, got {other:?}"),
        }
    }
}

#[test]
fn bad_magic_is_rejected() {
    let file = fed_file(SketchTask::Connectivity);
    let mut bytes = file.to_bytes();
    bytes[0] ^= 0xFF;
    assert_eq!(SketchFile::from_bytes(&bytes), Err(WireError::BadMagic));
    // Arbitrary non-sketch binary data is refused the same way, and so is
    // JSON text shaped like the retired format-1 sketch file.
    assert_eq!(
        SketchFile::from_bytes(&[0xFFu8, 0xFE, 0x00, 0x01]),
        Err(WireError::BadMagic)
    );
    let json = format!(
        "{{\"format\":1,\"spec\":{},\"state\":{{}}}}",
        file.spec.to_json()
    );
    assert_eq!(
        SketchFile::from_bytes(json.as_bytes()),
        Err(WireError::BadMagic)
    );
}

#[test]
fn wrong_v2_version_is_rejected() {
    let file = fed_file(SketchTask::Connectivity);
    let mut bytes = file.to_bytes();
    let at = V2_MAGIC.len();
    bytes[at..at + 4].copy_from_slice(&7u32.to_le_bytes());
    assert_eq!(
        SketchFile::from_bytes(&bytes),
        Err(WireError::Format { found: 7 })
    );
    assert_eq!(WIRE_FORMAT_BIN, 3);
}

#[test]
fn geometry_mismatch_is_rejected() {
    let file = fed_file(SketchTask::Connectivity);
    let bytes = file.to_bytes();
    // Locate the first bank's geometry triple: magic + version + spec.
    let spec_len = u32::from_le_bytes(
        bytes[V2_MAGIC.len() + 4..V2_MAGIC.len() + 8]
            .try_into()
            .unwrap(),
    ) as usize;
    let geom_at = V2_MAGIC.len() + 8 + spec_len + 4;
    let mut tampered = bytes.clone();
    // Double the declared rep count of bank 0 (and re-seal the checksum:
    // the structural gate must catch a deliberate tamperer too).
    let reps = u32::from_le_bytes(tampered[geom_at..geom_at + 4].try_into().unwrap());
    tampered[geom_at..geom_at + 4].copy_from_slice(&(reps * 2).to_le_bytes());
    reseal(&mut tampered);
    match SketchFile::from_bytes(&tampered) {
        Err(WireError::Geometry { bank: 0, .. }) => {}
        other => panic!("expected geometry rejection, got {other:?}"),
    }
}

#[test]
fn out_of_field_fingerprint_is_rejected() {
    let file = fed_file(SketchTask::Connectivity);
    let mut bytes = file.to_bytes();
    // A connectivity file has no fingerprints, so the final content words
    // before the u32 fingerprint count and u64 checksum are f-lane values.
    // Setting the top bits pushes one out of F_{2^61−1}.
    let at = bytes.len() - 8 - 4 - 8; // last f word (fp count, checksum follow)
    bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    reseal(&mut bytes);
    match SketchFile::from_bytes(&bytes) {
        Err(WireError::Corrupt(detail)) => {
            assert!(detail.contains("fingerprint"), "unexpected detail {detail}")
        }
        other => panic!("expected corrupt rejection, got {other:?}"),
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let file = fed_file(SketchTask::Bipartite);
    // Appended junk lands after the checksum word: the checksum gate
    // refuses (the declared sum is no longer the last 8 bytes).
    let mut appended = file.to_bytes();
    appended.extend_from_slice(b"junk");
    match SketchFile::from_bytes(&appended) {
        Err(WireError::Corrupt(detail)) => {
            assert!(detail.contains("checksum"), "unexpected detail {detail}")
        }
        other => panic!("expected checksum rejection, got {other:?}"),
    }
    // Junk spliced *before* a re-sealed checksum reaches the structural
    // trailing-byte check instead.
    let mut spliced = file.to_bytes();
    let at = spliced.len() - 8;
    spliced.splice(at..at, b"junk".iter().copied());
    reseal(&mut spliced);
    match SketchFile::from_bytes(&spliced) {
        Err(WireError::Corrupt(detail)) => {
            assert!(detail.contains("trailing"), "unexpected detail {detail}")
        }
        other => panic!("expected trailing-byte rejection, got {other:?}"),
    }
}
