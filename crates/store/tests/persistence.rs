//! Persistence tests: proptest round-trips over arbitrary stores and
//! shard counts, the corruption matrix (torn shards, flipped manifest
//! CRCs, swapped shard records) for both the v2 and the v3 (cold,
//! mmap'd) formats, the fail-closed refusal of retired v1 blobs,
//! cross-version opens through the unified [`StoreOpenOptions`] entry
//! point, and the sealed-export nonce-reuse regression.
//!
//! `scripts/ci.sh` runs this file explicitly as the corruption gate.

use browserflow_fingerprint::Fingerprinter;
use browserflow_store::{
    codec, CodecError, FingerprintStore, PersistError, PersistOptions, SegmentId, StoreFormat,
    StoreKey, StoreOpenOptions, TierMode,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

const WORDS: [&str; 16] = [
    "acquisition",
    "initech",
    "margin",
    "outlook",
    "reorganisation",
    "timeline",
    "incident",
    "postmortem",
    "remediation",
    "quarterly",
    "earnings",
    "zurich",
    "press",
    "event",
    "subsidiaries",
    "patents",
];

/// Builds a store from (segment id, word-index seed) pairs — enough
/// variety for the round-trip property without fingerprinting megabytes.
fn build_store(specs: &[(u64, usize)]) -> FingerprintStore {
    let fp = Fingerprinter::default();
    let store = FingerprintStore::new();
    for &(id, seed) in specs {
        let text: Vec<&str> = (0..12)
            .map(|i| WORDS[(seed + i * 3) % WORDS.len()])
            .collect();
        store.observe(
            SegmentId::new(id),
            &fp.fingerprint(&text.join(" ")),
            (seed % 10) as f64 / 10.0,
        );
    }
    store
}

fn assert_equivalent(a: &FingerprintStore, b: &FingerprintStore) {
    assert_eq!(a.segment_count(), b.segment_count());
    assert_eq!(a.hash_count(), b.hash_count());
    assert_eq!(a.now(), b.now());
    let mut ids: Vec<SegmentId> = a.segment_ids().collect();
    ids.sort_unstable();
    for id in ids {
        let sa = a.segment(id).unwrap();
        let sb = b.segment(id).unwrap();
        assert_eq!(sa.hashes(), sb.hashes());
        assert_eq!(sa.threshold(), sb.threshold());
        assert_eq!(sa.updated(), sb.updated());
        assert_eq!(
            a.authoritative_fingerprint(id),
            b.authoritative_fingerprint(id)
        );
    }
}

/// Byte offsets of the v2 layout pieces, derived from the manifest header:
/// magic(4) + version(2) + clock(8) + shard_count(4) = 18, then 28 bytes
/// per shard entry, then the 4-byte manifest CRC, then the records.
struct Layout {
    shard_count: usize,
    shard_lens: Vec<usize>,
    records_start: usize,
}

fn layout_of(bytes: &[u8]) -> Layout {
    let shard_count = u32::from_le_bytes(bytes[14..18].try_into().unwrap()) as usize;
    let mut shard_lens = Vec::with_capacity(shard_count);
    for i in 0..shard_count {
        let entry = 18 + i * 28;
        shard_lens
            .push(u64::from_le_bytes(bytes[entry + 4..entry + 12].try_into().unwrap()) as usize);
    }
    Layout {
        shard_count,
        shard_lens,
        records_start: 18 + shard_count * 28 + 4,
    }
}

fn shard_range(layout: &Layout, shard: usize) -> std::ops::Range<usize> {
    let start = layout.records_start + layout.shard_lens[..shard].iter().sum::<usize>();
    start..start + layout.shard_lens[shard]
}

#[test]
fn corruption_matrix_isolates_damage_to_one_shard() {
    let store = build_store(&[
        (1, 0),
        (2, 3),
        (3, 5),
        (4, 7),
        (5, 9),
        (6, 11),
        (7, 13),
        (8, 2),
    ]);
    let blob = codec::encode_v2_with_shards(&store, 8).unwrap();
    let layout = layout_of(&blob);
    assert_eq!(layout.shard_count, 8);

    // Flip a byte inside each shard record in turn: exactly that shard is
    // reported lost, every other shard still loads, and the strict
    // decoder rejects the whole blob.
    for shard in 0..layout.shard_count {
        let range = shard_range(&layout, shard);
        if range.is_empty() {
            continue;
        }
        let mut damaged = blob.clone();
        damaged[range.start + range.len() / 2] ^= 0xA5;
        assert!(codec::decode(&damaged).is_err(), "shard {shard}");
        let (_, report) = codec::decode_lossy(&damaged).unwrap();
        assert_eq!(report.lost_shards, vec![shard]);
        assert_eq!(report.loaded_shards, layout.shard_count - 1);
    }

    // Truncate inside each shard's record region: the cut shard and every
    // shard after it are lost; the shards before it load.
    for shard in 0..layout.shard_count {
        let range = shard_range(&layout, shard);
        if range.is_empty() {
            continue;
        }
        let truncated = &blob[..range.start + range.len() / 2];
        assert!(codec::decode(truncated).is_err());
        let (_, report) = codec::decode_lossy(truncated).unwrap();
        assert!(report.lost_shards.contains(&shard), "shard {shard}");
        assert_eq!(
            report.loaded_shards + report.lost_shards.len(),
            layout.shard_count
        );
    }

    // Flip a manifest CRC byte: nothing can be trusted, lossy or not.
    let mut bad_manifest = blob.clone();
    bad_manifest[18 + layout.shard_count * 28] ^= 0xFF;
    assert_eq!(
        codec::decode(&bad_manifest).unwrap_err(),
        CodecError::ManifestChecksum
    );
    assert_eq!(
        codec::decode_lossy(&bad_manifest).unwrap_err(),
        CodecError::ManifestChecksum
    );

    // Swap two equal-length shard records: both land in foreign slots and
    // both are reported lost (by CRC or membership check), nothing else.
    let (a, b) = {
        let mut found = None;
        'outer: for i in 0..layout.shard_count {
            for j in i + 1..layout.shard_count {
                if layout.shard_lens[i] == layout.shard_lens[j] && layout.shard_lens[i] > 0 {
                    found = Some((i, j));
                    break 'outer;
                }
            }
        }
        // With 8 segments over 8 shards equal lengths can be rare; fall
        // back to shards 0 and 1 and skip the swap if they differ in size.
        found.unwrap_or((0, 1))
    };
    let ra = shard_range(&layout, a);
    let rb = shard_range(&layout, b);
    if ra.len() == rb.len() {
        let mut swapped = blob.clone();
        let tmp = swapped[ra.clone()].to_vec();
        let rb_bytes = swapped[rb.clone()].to_vec();
        swapped[ra.clone()].copy_from_slice(&rb_bytes);
        swapped[rb].copy_from_slice(&tmp);
        assert!(codec::decode(&swapped).is_err());
        let (_, report) = codec::decode_lossy(&swapped).unwrap();
        assert_eq!(report.lost_shards, vec![a, b]);
        assert_eq!(report.loaded_shards, layout.shard_count - 2);
    }
}

#[test]
fn torn_directory_loads_healthy_shards_and_reports_the_torn_one() {
    // The acceptance-criteria scenario: persist to a directory, tear one
    // shard file mid-write (truncate it), and the load still brings up
    // every other shard while reporting exactly one lost shard.
    let dir = std::env::temp_dir().join(format!("bf-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = build_store(&[(1, 0), (2, 3), (3, 5), (4, 7), (5, 9), (6, 11)]);
    PersistOptions::new().persist(&store, &dir).unwrap();

    // Find a shard file with content and tear it.
    let mut torn_index = None;
    for index in 0..store.shard_count() {
        let path = dir.join(format!("shard-{index:04}.bfs"));
        let len = std::fs::metadata(&path).unwrap().len();
        if len > 16 {
            std::fs::write(&path, &std::fs::read(&path).unwrap()[..len as usize / 2]).unwrap();
            torn_index = Some(index);
            break;
        }
    }
    let torn_index = torn_index.expect("at least one shard holds data");

    let (loaded, report) = StoreOpenOptions::new().open(&dir).unwrap();
    assert_eq!(report.lost_shards, vec![torn_index]);
    assert_eq!(report.loaded_shards, store.shard_count() - 1);
    assert!(report.lost_segments > 0);
    assert!(loaded.segment_count() < store.segment_count());
    assert!(loaded.segment_count() > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v1_blob_is_rejected_as_unsupported() {
    // A well-formed blob in the retired monolithic v1 layout (magic,
    // version 1, clock, no segments, no sightings) fails closed on every
    // decode path instead of loading.
    let mut v1 = b"BFST".to_vec();
    v1.extend_from_slice(&1u16.to_le_bytes());
    for field in [5u64, 0, 0] {
        v1.extend_from_slice(&field.to_le_bytes());
    }
    let unsupported = CodecError::UnsupportedVersion { found: 1 };
    assert_eq!(codec::decode(&v1).unwrap_err(), unsupported);
    assert_eq!(codec::decode_lossy(&v1).unwrap_err(), unsupported);
    let file = std::env::temp_dir().join(format!("bf-v1-{}.bfst", std::process::id()));
    std::fs::write(&file, &v1).unwrap();
    let opened = StoreOpenOptions::new().open(&file);
    std::fs::remove_file(&file).unwrap();
    assert!(
        matches!(opened, Err(PersistError::Codec(ref e)) if *e == unsupported),
        "{opened:?}"
    );
}

#[test]
fn consecutive_sealed_exports_use_fresh_nonces() {
    // Nonce-reuse regression: under the old API both exports sealed with
    // the same caller-supplied nonce, handing an attacker the XOR of two
    // plaintexts. seal_auto must make consecutive exports differ.
    let mut rng = StdRng::seed_from_u64(77);
    let key = StoreKey::generate(&mut rng);
    let store = build_store(&[(1, 0), (2, 3)]);
    let first = store.export_sealed(&key).unwrap();
    let second = store.export_sealed(&key).unwrap();
    assert_ne!(first, second, "two exports of the same store must differ");
    // Both still unseal to equivalent stores.
    assert_equivalent(
        &FingerprintStore::import_sealed(&key, &first).unwrap(),
        &FingerprintStore::import_sealed(&key, &second).unwrap(),
    );
}

#[test]
fn sealed_shard_tamper_degrades_gracefully() {
    let mut rng = StdRng::seed_from_u64(78);
    let key = StoreKey::generate(&mut rng);
    let store = build_store(&[(1, 0), (2, 3), (3, 5), (4, 7)]);
    let sealed = store.export_sealed(&key).unwrap();
    // Round-trip through the wire format, then tamper with one shard's
    // ciphertext bytes in the container.
    let mut wire = sealed.to_bytes();
    let target = wire.len() - 4; // inside the last shard's ciphertext
    wire[target] ^= 0x5A;
    let tampered = browserflow_store::SealedStore::from_bytes(&wire).unwrap();
    assert!(FingerprintStore::import_sealed(&key, &tampered).is_err());
    let (_, report) = FingerprintStore::import_sealed_lossy(&key, &tampered).unwrap();
    assert_eq!(report.lost_shards.len(), 1);
    assert_eq!(report.loaded_shards, sealed.shard_count() - 1);
}

#[test]
fn truncation_matrix_no_decode_path_panics() {
    // Fuzz-style truncation sweep over every untrusted decode surface the
    // daemon relies on when restoring tenant state: every strict prefix of
    // a valid encoding must come back as a typed error (or a lossy report),
    // never a slice panic.
    let store = build_store(&[(1, 0), (2, 5), (9, 11), (42, 13)]);
    let key = StoreKey::from_bytes([7u8; 32]);

    // Plain v2 blob.
    let blob = codec::encode(&store).unwrap();
    for len in 0..blob.len() {
        assert!(
            codec::decode(&blob[..len]).is_err(),
            "strict decode accepted a {len}-byte prefix of {}",
            blob.len()
        );
        // Lossy decode may salvage shards once the manifest is intact,
        // but must also never panic and never report a torn shard loaded.
        if let Ok((_, report)) = codec::decode_lossy(&blob[..len]) {
            assert!(
                !report.is_complete(),
                "lossy decode called a {len}-byte prefix complete"
            );
        }
    }

    // Sealed container wire format.
    let sealed = store.export_sealed(&key).unwrap().to_bytes();
    for len in 0..sealed.len() {
        assert!(
            browserflow_store::SealedStore::from_bytes(&sealed[..len]).is_err(),
            "SealedStore::from_bytes accepted a {len}-byte prefix of {}",
            sealed.len()
        );
    }

    // Single sealed payload wire format.
    let one = key.seal_auto(b"short payload").to_bytes();
    for len in 0..one.len() {
        assert!(
            browserflow_store::SealedBytes::from_bytes(&one[..len]).is_err(),
            "SealedBytes::from_bytes accepted a {len}-byte prefix"
        );
    }
}

#[test]
fn hostile_length_fields_fail_closed() {
    // A container whose entry length field points far past the buffer
    // (and near usize::MAX once added to the cursor) must be rejected,
    // not panic or allocate unboundedly.
    let store = build_store(&[(1, 0)]);
    let key = StoreKey::from_bytes([9u8; 32]);
    let mut wire = store.export_sealed(&key).unwrap().to_bytes();
    // First entry length field sits right after magic+version+count.
    wire[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(browserflow_store::SealedStore::from_bytes(&wire).is_err());
}

// ---------------------------------------------------------------------------
// v3 (cold/mmap) corruption matrix
// ---------------------------------------------------------------------------

/// Reference CRC-32 (reflected, 0xEDB88320) — used to re-sign manifests
/// after deliberate tampering so geometry checks are exercised *past* the
/// checksum gate.
fn crc32_ref(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn v3_temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bf-v3mx-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn shard_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard-{index:04}.bfs"))
}

/// Patches shard `index`'s manifest entry (crc at +0, byte_len at +4) and
/// re-signs the manifest CRC, simulating an adversary — or a buggy writer —
/// that produces internally *consistent* metadata for damaged bytes.
fn resign_manifest(dir: &Path, index: usize, crc: u32, byte_len: u64) {
    let path = dir.join("manifest.bfm");
    let mut bytes = std::fs::read(&path).unwrap();
    let count = u32::from_le_bytes(bytes[14..18].try_into().unwrap()) as usize;
    assert!(index < count);
    let entry = 18 + index * 28;
    bytes[entry..entry + 4].copy_from_slice(&crc.to_le_bytes());
    bytes[entry + 4..entry + 12].copy_from_slice(&byte_len.to_le_bytes());
    let crc_pos = 18 + count * 28;
    let manifest_crc = crc32_ref(&bytes[..crc_pos]);
    bytes[crc_pos..crc_pos + 4].copy_from_slice(&manifest_crc.to_le_bytes());
    std::fs::write(&path, bytes).unwrap();
}

fn v3_fixture(tag: &str) -> (FingerprintStore, PathBuf, Vec<usize>) {
    let specs: Vec<(u64, usize)> = (1..=48).map(|i| (i, i as usize)).collect();
    let store = build_store(&specs);
    let dir = v3_temp_dir(tag);
    PersistOptions::new()
        .format(StoreFormat::V3)
        .persist(&store, &dir)
        .unwrap();
    let populated: Vec<usize> = (0..store.shard_count())
        .filter(|&index| std::fs::metadata(shard_path(&dir, index)).unwrap().len() > 64)
        .collect();
    assert!(!populated.is_empty());
    (store, dir, populated)
}

/// After a lossy cold open, every surviving segment must answer exactly
/// like the reference and every lost segment must be absent — damaged
/// shards fail closed, they never produce wrong verdicts.
fn assert_fails_closed(reference: &FingerprintStore, opened: &FingerprintStore) {
    let mut ids: Vec<SegmentId> = reference.segment_ids().collect();
    ids.sort_unstable();
    for id in ids {
        let expected = reference.segment(id).unwrap();
        // An absent segment was lost with its shard: closed, not wrong.
        if let Some(handle) = opened.segment_handle(id) {
            assert_eq!(handle.hashes(), expected.hashes());
            assert_eq!(handle.authoritative(), expected.authoritative());
            assert_eq!(handle.threshold(), expected.threshold());
        }
    }
}

#[test]
fn v3_bit_flips_fail_closed_per_shard() {
    let (store, dir, populated) = v3_fixture("flip");
    for &index in &populated {
        let path = shard_path(&dir, index);
        let original = std::fs::read(&path).unwrap();
        // Flip a byte in each region of the file: header, directory/pool,
        // and the tail (sighting records).
        for position in [8, original.len() / 2, original.len() - 8] {
            let mut damaged = original.clone();
            damaged[position] ^= 0xA5;
            std::fs::write(&path, &damaged).unwrap();
            for tier in [TierMode::Cold, TierMode::Hot] {
                let (opened, report) = StoreOpenOptions::new().tier(tier).open(&dir).unwrap();
                assert_eq!(
                    report.lost_shards,
                    vec![index],
                    "shard {index} @ {position}"
                );
                assert_eq!(report.loaded_shards, store.shard_count() - 1);
                assert!(report.lost_segments > 0);
                assert_fails_closed(&store, &opened);
            }
        }
        std::fs::write(&path, &original).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v3_truncation_fails_closed_per_shard() {
    let (store, dir, populated) = v3_fixture("trunc");
    for &index in &populated {
        let path = shard_path(&dir, index);
        let original = std::fs::read(&path).unwrap();
        for keep in [0, 1, 63, 64, original.len() / 2, original.len() - 1] {
            std::fs::write(&path, &original[..keep]).unwrap();
            let (opened, report) = StoreOpenOptions::new()
                .tier(TierMode::Cold)
                .open(&dir)
                .unwrap();
            assert_eq!(report.lost_shards, vec![index], "shard {index} keep {keep}");
            assert_fails_closed(&store, &opened);
        }
        std::fs::write(&path, &original).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v3_misaligned_lengths_fail_closed_even_with_consistent_metadata() {
    // The nasty corner for a zero-copy reader: the manifest agrees with
    // the file bytes (CRC and length re-signed), but the length no longer
    // matches the geometry the header declares — including lengths that
    // break the 8-byte alignment a mapped view relies on. Open must
    // reject the shard via its geometry validation, not trust the CRC.
    let (store, dir, populated) = v3_fixture("align");
    let index = populated[0];
    let path = shard_path(&dir, index);
    let original = std::fs::read(&path).unwrap();
    let manifest = std::fs::read(dir.join("manifest.bfm")).unwrap();

    // (a) Shave 4 bytes: length is no longer a multiple of 8.
    // (b) Shave a whole trailing record: aligned, but short of the header.
    // (c) Append 8 zero bytes: aligned, but long of the header.
    let mut variants: Vec<Vec<u8>> = vec![
        original[..original.len() - 4].to_vec(),
        original[..original.len() - 24].to_vec(),
    ];
    let mut padded = original.clone();
    padded.extend_from_slice(&[0u8; 8]);
    variants.push(padded);

    for (case, damaged) in variants.iter().enumerate() {
        std::fs::write(&path, damaged).unwrap();
        resign_manifest(&dir, index, crc32_ref(damaged), damaged.len() as u64);
        let (opened, report) = StoreOpenOptions::new()
            .tier(TierMode::Cold)
            .open(&dir)
            .unwrap();
        assert!(
            report.lost_shards.contains(&index),
            "case {case}: consistent-but-misaligned shard must be rejected"
        );
        assert_fails_closed(&store, &opened);
        // Restore pristine state for the next variant.
        std::fs::write(&path, &original).unwrap();
        std::fs::write(dir.join("manifest.bfm"), &manifest).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v3_manifest_corruption_is_fatal_not_a_panic() {
    let (_, dir, _) = v3_fixture("manifest");
    let path = dir.join("manifest.bfm");
    let original = std::fs::read(&path).unwrap();
    // Flip the trailing CRC: nothing can be trusted.
    let mut damaged = original.clone();
    let last = damaged.len() - 1;
    damaged[last] ^= 0xFF;
    std::fs::write(&path, &damaged).unwrap();
    assert!(matches!(
        StoreOpenOptions::new().tier(TierMode::Cold).open(&dir),
        Err(PersistError::Codec(CodecError::ManifestChecksum))
    ));
    // Every strict prefix is a typed error as well, never a panic.
    for keep in 0..original.len() {
        std::fs::write(&path, &original[..keep]).unwrap();
        assert!(StoreOpenOptions::new()
            .tier(TierMode::Cold)
            .open(&dir)
            .is_err());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Cross-version opens through the unified entry point
// ---------------------------------------------------------------------------

#[test]
fn every_historic_snapshot_format_opens_through_store_open_options() {
    let store = build_store(&[(1, 0), (2, 3), (3, 5), (4, 7), (5, 9)]);
    let mut rng = StdRng::seed_from_u64(21);
    let key = StoreKey::generate(&mut rng);
    let base = std::env::temp_dir().join(format!("bf-xver-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();

    // Single-file payloads: v2 blob, sealed container.
    let v2_file = base.join("store.v2.bfst");
    std::fs::write(&v2_file, codec::encode(&store).unwrap()).unwrap();
    let sealed_file = base.join("store.bfss");
    std::fs::write(&sealed_file, store.export_sealed(&key).unwrap().to_bytes()).unwrap();

    // Directory payloads: plain v2, sealed v2, plain v3.
    let v2_dir = base.join("dir-v2");
    PersistOptions::new().persist(&store, &v2_dir).unwrap();
    let sealed_dir = base.join("dir-sealed");
    PersistOptions::sealed(key.clone())
        .persist(&store, &sealed_dir)
        .unwrap();
    let v3_dir = base.join("dir-v3");
    PersistOptions::new()
        .format(StoreFormat::V3)
        .persist(&store, &v3_dir)
        .unwrap();

    let opts = StoreOpenOptions::sealed(key.clone());
    for (label, path) in [
        ("v2 file", &v2_file),
        ("sealed file", &sealed_file),
        ("v2 dir", &v2_dir),
        ("sealed dir", &sealed_dir),
        ("v3 dir", &v3_dir),
    ] {
        // Both tier modes must open every payload (cold only takes effect
        // for the v3 directory; the rest decode hot).
        for tier in [TierMode::Hot, TierMode::Cold] {
            let (opened, report) = opts.clone().tier(tier).open(path).unwrap();
            assert!(report.is_complete(), "{label} ({tier:?}): {report}");
            assert_eq!(
                opened.segment_count(),
                store.segment_count(),
                "{label} ({tier:?})"
            );
            assert_eq!(
                opened.hash_count(),
                store.hash_count(),
                "{label} ({tier:?})"
            );
            assert_equivalent(&store, &opened);
        }
    }

    // Sealed payloads without a key are a typed refusal, not garbage.
    for path in [&sealed_file, &sealed_dir] {
        assert!(matches!(
            StoreOpenOptions::new().open(path),
            Err(PersistError::Unsupported(_))
        ));
    }
    std::fs::remove_dir_all(&base).unwrap();
}

proptest! {
    /// encode_v2 ∘ decode_v2 == id over arbitrary stores and shard counts.
    #[test]
    fn v2_roundtrip_is_identity(
        specs in proptest::collection::vec((1u64..200, 0usize..16), 0..24),
        shards_log2 in 0u32..7,
        workers in 1usize..5,
    ) {
        let store = build_store(&specs);
        let shards = 1usize << shards_log2;
        let blob = codec::encode_v2_with_shards(&store, shards).unwrap();
        let decoded = codec::decode_with_workers(&blob, workers).unwrap();
        assert_equivalent(&store, &decoded);
        let (lossy, report) = codec::decode_lossy(&blob).unwrap();
        assert_equivalent(&store, &lossy);
        prop_assert!(report.is_complete());
        prop_assert_eq!(report.loaded_shards, shards);
    }
}
