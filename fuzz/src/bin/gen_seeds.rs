//! Regenerates the checked-in seed corpora under `fuzz/corpus/` from real
//! persisted payloads and request frames, so the fuzzers start from
//! well-formed inputs (the interesting failures live a few mutations away
//! from valid bytes, not in random noise).
//!
//! Run from anywhere: `cargo run -p browserflow-fuzz --bin gen_seeds`.

use std::fs;
use std::path::{Path, PathBuf};

use browserflow_daemon::protocol::{write_frame, write_request};
use browserflow_daemon::{ParagraphSlot, Request};
use browserflow_fuzz::{first_shard, sample_store, SnapshotFixture};
use browserflow_store::codec;
use browserflow_store::persist::MANIFEST_FILE;
use browserflow_store::StoreFormat;

fn corpus_dir(target: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("corpus")
        .join(target);
    fs::create_dir_all(&dir).expect("corpus dir");
    dir
}

fn write_seed(dir: &Path, name: &str, bytes: &[u8]) {
    fs::write(dir.join(name), bytes).expect("seed written");
    println!("  {name}: {} bytes", bytes.len());
}

/// A codec seed is the target's input format: one mode byte + payload.
fn mode_seed(mode: u8, payload: &[u8]) -> Vec<u8> {
    let mut seed = Vec::with_capacity(payload.len() + 1);
    seed.push(mode);
    seed.extend_from_slice(payload);
    seed
}

fn main() {
    let store = sample_store();

    println!("fuzz_store_codec seeds (real persisted payloads):");
    let dir = corpus_dir("fuzz_store_codec");
    let blob = codec::encode(&store).expect("encode");
    write_seed(&dir, "v2-blob", &mode_seed(0, &blob));
    // Mode 1 parses the sealed container framing; the plain blob is the
    // right *shape* of near-miss (magic + sections) without needing a key.
    write_seed(
        &dir,
        "sealed-near-miss",
        &mode_seed(1, &blob[..blob.len().min(512)]),
    );

    let v2 = SnapshotFixture::create("seeds-v2", StoreFormat::V2);
    let v2_shard = fs::read(first_shard(&v2.dir)).expect("v2 shard");
    let v2_manifest = fs::read(v2.dir.join(MANIFEST_FILE)).expect("v2 manifest");
    write_seed(&dir, "v2-shard", &mode_seed(2, &v2_shard));
    write_seed(&dir, "v2-manifest", &mode_seed(4, &v2_manifest));

    let v3 = SnapshotFixture::create("seeds-v3", StoreFormat::V3);
    let v3_shard = fs::read(first_shard(&v3.dir)).expect("v3 shard");
    write_seed(&dir, "v3-shard", &mode_seed(3, &v3_shard));

    let _ = fs::remove_dir_all(&v2.dir);
    let _ = fs::remove_dir_all(&v3.dir);

    println!("fuzz_incremental_edits seeds (hand-laid edit scripts):");
    let dir = corpus_dir("fuzz_incremental_edits");
    // Header: n=6 (byte 4), w=30 (byte 29), two initial sentences.
    let mut script = vec![4u8, 29, 2];
    // A burst of inserts, deletes and replacements at varied positions.
    for (kind, a, b, c, d) in [
        (0u8, 3u8, 17u8, 5u8, 2u8), // insert "zürich"-area words mid-text
        (2, 9, 200, 30, 7),         // replace a range with "İstanbul"
        (1, 1, 40, 12, 0),          // delete a span
        (0, 0, 0, 15, 1),           // insert "日本語" at the front
        (1, 250, 250, 63, 0),       // delete near the end
        (2, 5, 5, 3, 10),           // replace with " spaced out "
    ] {
        script.extend_from_slice(&[kind, a, b, c, d]);
    }
    write_seed(&dir, "mixed-script", &script);
    // Degenerate config corner: n=2, w=1 over an initially empty text.
    let mut tiny = vec![0u8, 0, 0];
    for (kind, a, b, c, d) in [(0u8, 0u8, 0u8, 0u8, 2u8), (0, 0, 3, 8, 0), (1, 0, 1, 0, 0)] {
        tiny.extend_from_slice(&[kind, a, b, c, d]);
    }
    write_seed(&dir, "tiny-config", &tiny);

    println!("fuzz_wire_request seeds (real request frames):");
    let dir = corpus_dir("fuzz_wire_request");
    let text = "the quarterly interview notes are strictly confidential";
    let slots = |n: usize| -> Vec<ParagraphSlot> {
        (0..n)
            .map(|index| ParagraphSlot {
                index,
                text: format!("{text} (paragraph {index})"),
            })
            .collect()
    };
    let requests = [
        (
            "keystroke",
            Request::Keystroke {
                tenant: "acme".into(),
                service: "gdocs".into(),
                document: "draft".into(),
                index: 0,
                text: text.into(),
            },
        ),
        (
            "check",
            Request::Check {
                tenant: "acme".into(),
                service: "gdocs".into(),
                document: "draft".into(),
                paragraphs: slots(2),
            },
        ),
        (
            "observe",
            Request::Observe {
                tenant: "acme".into(),
                service: "itool".into(),
                document: "notes".into(),
                index: 0,
                text: text.into(),
            },
        ),
        (
            "observe-batch",
            Request::ObserveBatch {
                tenant: "acme".into(),
                service: "itool".into(),
                document: "memo".into(),
                paragraphs: slots(3),
            },
        ),
    ];
    for (name, request) in &requests {
        let mut frame = Vec::new();
        write_request(&mut frame, request).expect("request frame");
        write_seed(&dir, name, &frame);
    }
    // Past the JSON decoder's nesting cap: must be an error, not a crash.
    let nested = format!("{}{}", "[".repeat(200), "]".repeat(200));
    let mut frame = Vec::new();
    write_frame(&mut frame, nested.as_bytes()).expect("nested frame");
    write_seed(&dir, "nested-200", &frame);
}
