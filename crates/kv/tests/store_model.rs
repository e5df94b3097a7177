//! The store against a `BTreeMap` model: random puts, deletes and
//! multi-key batches over ~5k keys on a store with few, long buckets, so
//! every bucket search, insert and delete runs over hundreds of
//! hash-ordered entries. After the history, every read API must agree
//! with the model, and so must both ways of reopening the store: from the
//! WAL alone (transactional replay into the buckets) and from a
//! checkpoint plus a WAL suffix (the bulk-load of the snapshot image).

use std::collections::BTreeMap;

use ad_kv::{CkptPolicy, KvConfig, KvStore, MemDisk, SnapshotSource, SyncPolicy, WriteBatch};
use ad_support::prng::Rng;

const KEYS: usize = 5000;

type Model = BTreeMap<String, Vec<u8>>;

fn cfg() -> KvConfig {
    let mut c = KvConfig::volatile().with_shards(2);
    c.buckets_per_shard = 8;
    c.ckpt = CkptPolicy::Manual;
    c
}

fn open(disk: &MemDisk) -> (KvStore, ad_kv::RecoveryReport) {
    KvStore::open_on_disk(&cfg(), SyncPolicy::GroupCommit, disk.clone())
}

fn key(i: usize) -> String {
    format!("key{i:05}")
}

/// Apply `ops` random operations to both the store and the model.
fn run_ops(store: &KvStore, model: &mut Model, rng: &mut Rng, ops: usize) {
    for step in 0..ops {
        let value = format!("v{step}-{}", rng.next_u32()).into_bytes();
        let k = key(rng.random_range(0..KEYS));
        match rng.random_range(0..10) {
            0..=5 => {
                store.put(&k, &value);
                model.insert(k, value);
            }
            6..=7 => {
                store.delete(&k);
                model.remove(&k);
            }
            _ => {
                let mut batch = WriteBatch::new();
                for j in 0..rng.random_range(2..6) {
                    let k = key(rng.random_range(0..KEYS));
                    if rng.random_bool(0.25) {
                        batch = batch.delete(k.clone());
                        model.remove(&k);
                    } else {
                        let v = [value.as_slice(), &[j as u8]].concat();
                        batch = batch.put(k.clone(), v.clone());
                        model.insert(k, v);
                    }
                }
                store.write_batch(&batch);
            }
        }
    }
}

/// Every read API agrees with the model.
fn check(store: &KvStore, model: &Model, what: &str) {
    assert_eq!(store.len(), model.len(), "{what}: len");
    let dump = store.dump();
    assert!(dump == *model, "{what}: dump differs from the model");
    for i in 0..KEYS {
        let k = key(i);
        assert_eq!(
            store.get(&k).as_deref(),
            model.get(&k).map(Vec::as_slice),
            "{what}: get({k})"
        );
    }
    for chunk in (0..KEYS).collect::<Vec<_>>().chunks(7) {
        let keys: Vec<String> = chunk.iter().map(|&i| key(i)).collect();
        let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        let got = store.get_many(&refs);
        for (k, v) in refs.iter().zip(&got) {
            assert_eq!(
                v.as_deref(),
                model.get(*k).map(Vec::as_slice),
                "{what}: get_many({k})"
            );
        }
    }
    for start in ["", "key01234", "key04999", "key05000", "key0250"] {
        let scanned = store.scan_from(start, 100);
        let expected: Vec<(&String, &Vec<u8>)> =
            model.range(start.to_string()..).take(100).collect();
        assert_eq!(scanned.len(), expected.len(), "{what}: scan_from({start})");
        for ((sk, sv), (mk, mv)) in scanned.iter().zip(expected) {
            assert_eq!(
                (&**sk, &**sv),
                (mk.as_str(), mv.as_slice()),
                "{what}: scan_from({start})"
            );
        }
    }
}

#[test]
fn store_matches_a_model_live_and_after_both_reopen_paths() {
    let mut rng = Rng::seed_from_u64(0xb0c4e7);
    let mut model = Model::new();
    let disk = MemDisk::new();

    let (store, _) = open(&disk);
    run_ops(&store, &mut model, &mut rng, 6000);
    check(&store, &model, "live");
    drop(store);

    // WAL-only reopen: no snapshot exists, every record replays through
    // transactional bucket updates.
    let (store, report) = open(&disk);
    assert_eq!(report.snapshot_source, SnapshotSource::None);
    assert!(report.replayed > 0);
    check(&store, &model, "WAL-only reopen");

    // Checkpoint, then a suffix on top: the reopen bulk-loads the
    // snapshot image into the buckets and replays only the suffix.
    assert!(store.checkpoint().expect("checkpoint").performed);
    run_ops(&store, &mut model, &mut rng, 1000);
    check(&store, &model, "after checkpoint");
    drop(store);
    let (store, report) = open(&disk);
    assert_eq!(report.snapshot_source, SnapshotSource::Current);
    assert!(report.snapshot_keys > 0);
    assert!(report.replayed > 0);
    check(&store, &model, "checkpoint + suffix reopen");
}
