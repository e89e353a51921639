//! Fuzz target: the persisted-store decode surface on arbitrary bytes.
//!
//! The store codec is the one parser in the system that reads bytes an
//! attacker (or a torn write) controls, so every entry point must fail
//! *closed* — a `CodecError`/`PersistError`, or a per-shard loss in the
//! [`RestoreReport`] — and must never panic, whatever the bytes.
//!
//! The first input byte selects the surface, the rest is the payload:
//!
//! - `0`: [`codec::decode_lossy`] on the raw payload (v2 single-blob
//!   parser).
//! - `1`: [`SealedStore::from_bytes`] on the raw payload (sealed
//!   container framing).
//! - `2`: the payload overwrites one shard of a pristine **v2** snapshot
//!   directory; a hot open must still succeed and lose at most that
//!   shard.
//! - `3`: the payload overwrites one shard of a pristine **v3** snapshot
//!   directory; a **cold** open maps the shard and validates it in
//!   place, so the loaded store is also queried to force the mapped
//!   accessors over the hostile bytes.
//! - `4`: the payload overwrites the manifest of a pristine v2 snapshot;
//!   the open may fail, but only with an error.

use std::fs;
use std::sync::OnceLock;

use browserflow_fuzz::SnapshotFixture;
use browserflow_store::codec::{self, SealedStore};
use browserflow_store::{StoreFormat, StoreOpenOptions, TierMode};
use libfuzzer_sys::fuzz_target;

fn v2_shard_fixture() -> &'static SnapshotFixture {
    static FIXTURE: OnceLock<SnapshotFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| SnapshotFixture::create("codec-v2-shard", StoreFormat::V2))
}

fn v3_shard_fixture() -> &'static SnapshotFixture {
    static FIXTURE: OnceLock<SnapshotFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| SnapshotFixture::create("codec-v3-shard", StoreFormat::V3))
}

fn v2_manifest_fixture() -> &'static SnapshotFixture {
    static FIXTURE: OnceLock<SnapshotFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| SnapshotFixture::create("codec-v2-manifest", StoreFormat::V2))
}

fuzz_target!(|data: &[u8]| {
    let Some((&mode, payload)) = data.split_first() else {
        return;
    };
    match mode % 5 {
        0 => {
            // Any outcome but a panic is acceptable; on success the
            // report must be internally consistent.
            if let Ok((store, _report)) = codec::decode_lossy(payload) {
                // A payload that parses must yield a queryable store.
                let _ = store.segment_count();
                let _ = store.hash_count();
            }
        }
        1 => {
            let _ = SealedStore::from_bytes(payload);
        }
        2 => {
            let fx = v2_shard_fixture();
            fs::write(&fx.shard, payload).expect("shard overwrite");
            // Shard damage is survivable by design: the open must
            // succeed and report at most the one damaged shard lost.
            let (_, report) = StoreOpenOptions::new()
                .open(&fx.dir)
                .expect("v2 open fails closed per shard, not per store");
            assert!(report.lost_shards.len() <= 1);
        }
        3 => {
            let fx = v3_shard_fixture();
            fs::write(&fx.shard, payload).expect("shard overwrite");
            // The cold tier serves records straight from the mapped
            // file, so opening is not enough: query the store to drive
            // the in-place accessors over the hostile shard too.
            if let Ok((store, report)) = StoreOpenOptions::new().tier(TierMode::Cold).open(&fx.dir)
            {
                assert!(report.lost_shards.len() <= 1);
                let _ = store.segment_count();
                let _ = store.hash_count();
            }
        }
        _ => {
            let fx = v2_manifest_fixture();
            fs::write(&fx.manifest, payload).expect("manifest overwrite");
            // A corrupt manifest fails the whole open closed; a payload
            // that happens to parse yields a (possibly empty) store.
            let _ = StoreOpenOptions::new().open(&fx.dir);
        }
    }
});
