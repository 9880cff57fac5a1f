//! Corruption battery for the binary wire formats: **every** byte flip,
//! truncation, and splice of a v2 sketch file and of a delta record must
//! be refused with a typed [`WireError`] — never a panic, never a load
//! that silently carries a wrong state. The trailing FNV-1a checksum is
//! what makes "every" reachable: any single-byte change alters it (the
//! per-byte step `h ↦ (h ⊕ b) · prime` is injective in both arguments),
//! so damage in the lane data — bytes no structural check could ever
//! vouch for — is caught before the reader acts on it.

use graph_sketches::api::{SketchSpec, SketchTask};
use graph_sketches::wire::{SketchDelta, SketchFile, WireError};
use gs_sketch::{EdgeUpdate, LinearSketch};

/// The smallest real fixture: a fed connectivity sketch over 4 vertices.
fn fixture() -> SketchFile {
    let spec = SketchSpec::new(SketchTask::Connectivity, 4)
        .with_eps(0.9)
        .with_seed(0xF1);
    let mut sketch = spec.build();
    sketch.absorb(&[
        EdgeUpdate::insert(0, 1),
        EdgeUpdate::insert(1, 2),
        EdgeUpdate::insert(2, 3),
        EdgeUpdate::delete(1, 2),
    ]);
    SketchFile::new(spec, sketch).expect("state matches spec")
}

/// A payload kind's parser, reduced to the only question the battery
/// asks: what error, if any, does this byte string raise?
type Parser = fn(&[u8]) -> Option<WireError>;

/// The two payload kinds under test, with their parsers. The parsers
/// return `Err` variants only — a `WireError` is by construction a typed
/// rejection; what the battery rules out is `Ok` (silent wrong state) and
/// panics (the test process would abort).
fn payloads() -> Vec<(&'static str, Vec<u8>, Parser)> {
    let file = fixture();
    let full = file.to_bytes();
    let delta = file.clone().delta_bytes();
    fn parse_full(bytes: &[u8]) -> Option<WireError> {
        SketchFile::from_bytes(bytes).err()
    }
    fn parse_delta(bytes: &[u8]) -> Option<WireError> {
        SketchDelta::from_bytes(bytes).err()
    }
    vec![("v2", full, parse_full), ("delta", delta, parse_delta)]
}

#[test]
fn pristine_payloads_parse() {
    for (kind, bytes, parse) in payloads() {
        assert!(parse(&bytes).is_none(), "{kind}: pristine payload refused");
    }
}

#[test]
fn every_byte_flip_is_refused() {
    for (kind, bytes, parse) in payloads() {
        for at in 0..bytes.len() {
            for mask in [0x01u8, 0x80] {
                let mut mutated = bytes.clone();
                mutated[at] ^= mask;
                assert!(
                    parse(&mutated).is_some(),
                    "{kind}: flip {mask:#04x} at byte {at}/{} loaded silently",
                    bytes.len()
                );
            }
        }
    }
}

#[test]
fn every_truncation_is_refused() {
    for (kind, bytes, parse) in payloads() {
        for cut in 0..bytes.len() {
            assert!(
                parse(&bytes[..cut]).is_some(),
                "{kind}: truncation to {cut}/{} bytes loaded silently",
                bytes.len()
            );
        }
    }
}

#[test]
fn every_single_byte_splice_is_refused() {
    for (kind, bytes, parse) in payloads() {
        // Deleting any one byte shifts everything behind it.
        for at in 0..bytes.len() {
            let mut shorter = bytes.clone();
            shorter.remove(at);
            assert!(
                parse(&shorter).is_some(),
                "{kind}: deleting byte {at} loaded silently"
            );
        }
        // So does inserting one (a zero, and a magic-looking 'A').
        for at in 0..=bytes.len() {
            for byte in [0x00u8, b'A'] {
                let mut longer = bytes.clone();
                longer.insert(at, byte);
                assert!(
                    parse(&longer).is_some(),
                    "{kind}: inserting {byte:#04x} at {at} loaded silently"
                );
            }
        }
    }
}

/// Rewrites the trailing checksum after a deliberate edit, so a test
/// exercises the structural validation *behind* the checksum gate (a
/// tamperer who re-seals is exactly who that layer is for).
fn reseal(bytes: &mut [u8]) {
    let split = bytes.len() - 8;
    let sum = graph_sketches::wire::v2_checksum(&bytes[..split]);
    bytes[split..].copy_from_slice(&sum.to_le_bytes());
}

/// Byte offset of the first bank's geometry words in a v2 payload:
/// magic(8) + version(4) + spec_len(4) + spec + bank_count(4).
fn first_geometry_at(bytes: &[u8]) -> usize {
    let spec_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    16 + spec_len + 4
}

#[test]
fn hostile_geometry_header_is_refused_resealed() {
    // A checksum-valid file whose bank header declares an absurd
    // geometry: the reader must refuse with a typed Geometry error — the
    // declared axes gate *before* any lane is read, and the capped lane
    // capacities mean even a lying header cannot force an allocation the
    // payload does not back.
    let bytes = fixture().to_bytes();
    let at = first_geometry_at(&bytes);
    for (axis, value) in [(0usize, 0x4000_0000u32), (1, u32::MAX), (2, 0x00FF_FFFF)] {
        let mut hostile = bytes.clone();
        hostile[at + 4 * axis..at + 4 * axis + 4].copy_from_slice(&value.to_le_bytes());
        reseal(&mut hostile);
        match SketchFile::from_bytes(&hostile) {
            Err(WireError::Geometry { bank: 0, .. }) => {}
            other => panic!("hostile axis {axis} = {value:#x}: got {other:?}"),
        }
    }
}

#[test]
fn resealed_truncation_is_refused_without_unbacked_allocation() {
    // Cut the payload right after the first bank's (valid) geometry and
    // re-seal: the checksum passes, the header promises a full bank of
    // lanes, and the file carries none of them. The lane reader's
    // capacity cap (`len.min(remaining/width + 1)`) means the declared
    // geometry cannot pre-allocate what the payload never backs; the
    // read fails with a typed Truncated error.
    let bytes = fixture().to_bytes();
    let cut = first_geometry_at(&bytes) + 12;
    let mut short = bytes[..cut].to_vec();
    short.extend_from_slice(&[0u8; 8]); // room for the checksum word
    reseal(&mut short);
    match SketchFile::from_bytes(&short) {
        Err(WireError::Truncated { .. }) => {}
        other => panic!("expected typed truncation, got {other:?}"),
    }
}

#[test]
fn hostile_spec_header_is_refused_typed_resealed() {
    // A checksum-valid file whose spec header declares a degenerate
    // sketch (n = 1): refused with a typed Spec error before anything is
    // built from it (same-length JSON edit keeps the length prefix
    // honest).
    let bytes = fixture().to_bytes();
    let spec_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let header = String::from_utf8(bytes[16..16 + spec_len].to_vec()).unwrap();
    let bad = header.replacen("\"n\":4", "\"n\":1", 1);
    assert_eq!(bad.len(), spec_len);
    let mut hostile = bytes.clone();
    hostile[16..16 + spec_len].copy_from_slice(bad.as_bytes());
    reseal(&mut hostile);
    match SketchFile::from_bytes(&hostile) {
        Err(WireError::Spec(_)) => {}
        other => panic!("expected typed spec rejection, got {other:?}"),
    }
    // A header that is 100,000 nested `[`: the spec parser refuses it
    // typed instead of recursing until the stack overflows.
    let deep = "[".repeat(100_000);
    let mut hostile = bytes[..12].to_vec();
    hostile.extend_from_slice(&(deep.len() as u32).to_le_bytes());
    hostile.extend_from_slice(deep.as_bytes());
    hostile.extend_from_slice(&bytes[16 + spec_len..]);
    reseal(&mut hostile);
    match SketchFile::from_bytes(&hostile) {
        Err(WireError::Json(_)) => {}
        other => panic!("expected typed JSON rejection, got {other:?}"),
    }
}

#[test]
fn block_splices_and_cross_format_grafts_are_refused() {
    let (full, delta) = {
        let mut p = payloads();
        let (_, d, _) = p.pop().expect("delta payload");
        let (_, f, _) = p.pop().expect("v2 payload");
        (f, d)
    };
    // Swap two 32-byte blocks within each payload, at a spread of offsets.
    for (bytes, kind) in [(&full, "v2"), (&delta, "delta")] {
        let len = bytes.len();
        for step in 1..8 {
            let a = step * len / 9;
            let b = (step * len / 9 + len / 3).min(len - 32);
            if a + 32 > b {
                continue;
            }
            let mut spliced = bytes.to_vec();
            for k in 0..32 {
                spliced.swap(a + k, b + k);
            }
            let refused = if kind == "v2" {
                SketchFile::from_bytes(&spliced).is_err()
            } else {
                SketchDelta::from_bytes(&spliced).is_err()
            };
            assert!(refused, "{kind}: swapping blocks {a}/{b} loaded silently");
        }
    }
    // Graft a window of the delta into the v2 file (and vice versa).
    let at = full.len() / 2;
    let mut grafted = full.clone();
    grafted[at..at + 64].copy_from_slice(&delta[delta.len() / 2..delta.len() / 2 + 64]);
    assert!(SketchFile::from_bytes(&grafted).is_err(), "v2 graft loaded");
    let at = delta.len() / 2;
    let mut grafted = delta.clone();
    grafted[at..at + 64].copy_from_slice(&full[full.len() / 2..full.len() / 2 + 64]);
    assert!(
        SketchDelta::from_bytes(&grafted).is_err(),
        "delta graft loaded"
    );
    // And whole-payload kind confusion is named, not mis-parsed.
    match SketchFile::from_bytes(&delta) {
        Err(WireError::Corrupt(detail)) => assert!(detail.contains("delta record")),
        other => panic!("delta as sketch file: {other:?}"),
    }
    assert_eq!(SketchDelta::from_bytes(&full), Err(WireError::BadMagic));
}
