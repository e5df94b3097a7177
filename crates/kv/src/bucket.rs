//! Hash-ordered buckets: the unit a point read searches.
//!
//! A bucket is one immutable allocation of [`Entry`]s — the key's FNV-1a
//! hash inline, then the key and the value — sorted by `(hash, key)` and
//! held in a `TVar`. A lookup binary-searches the inline hashes, which sit
//! in contiguous memory, and compares keys only inside a run of entries
//! whose hash equals the probe's. Distinct keys share a 64-bit hash only
//! by collision, so that run almost always holds zero or one entry and a
//! lookup dereferences at most one key. Updates build a new bucket and
//! replace the old one (clone-and-replace), so a transactional read of a
//! bucket clones one `Arc`.

use std::cmp::Ordering;
use std::iter;
use std::sync::Arc;

/// One key-value pair with its key's hash.
#[derive(Clone)]
pub(crate) struct Entry {
    /// [`fnv1a64`] of `key`: the primary sort key.
    pub(crate) hash: u64,
    pub(crate) key: Arc<str>,
    pub(crate) value: Arc<[u8]>,
}

/// An immutable bucket, sorted by `(hash, key)`.
pub(crate) type Bucket = Arc<[Entry]>;

/// FNV-1a over `data`: picks a key's shard and bucket, and orders the
/// bucket's entries.
pub(crate) fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Position of `key` (whose hash is `hash`) in `bucket`, or the position
/// where it would be inserted. Keys are compared only when hashes tie.
pub(crate) fn find(bucket: &[Entry], hash: u64, key: &str) -> Result<usize, usize> {
    bucket.binary_search_by(|e| match e.hash.cmp(&hash) {
        Ordering::Equal => (*e.key).cmp(key),
        unequal => unequal,
    })
}

/// `bucket` with `key` set to `value` (`None` deletes it), as a new
/// bucket. A delete of an absent key returns `bucket` itself.
pub(crate) fn with_applied(bucket: &Bucket, hash: u64, key: &str, value: Option<&[u8]>) -> Bucket {
    match (find(bucket, hash, key), value) {
        (Ok(pos), Some(v)) => bucket
            .iter()
            .enumerate()
            .map(|(i, e)| {
                if i == pos {
                    Entry {
                        hash,
                        key: Arc::clone(&e.key),
                        value: Arc::from(v),
                    }
                } else {
                    e.clone()
                }
            })
            .collect(),
        (Ok(pos), None) => bucket[..pos]
            .iter()
            .chain(&bucket[pos + 1..])
            .cloned()
            .collect(),
        (Err(pos), Some(v)) => bucket[..pos]
            .iter()
            .cloned()
            .chain(iter::once(Entry {
                hash,
                key: Arc::from(key),
                value: Arc::from(v),
            }))
            .chain(bucket[pos..].iter().cloned())
            .collect(),
        (Err(_), None) => Arc::clone(bucket),
    }
}

/// Bulk-load: a bucket from distinct keys in any order.
pub(crate) fn from_unsorted(mut entries: Vec<Entry>) -> Bucket {
    entries.sort_unstable_by(|a, b| a.hash.cmp(&b.hash).then_with(|| a.key.cmp(&b.key)));
    entries.into()
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn keys(b: &Bucket) -> Vec<(u64, &str)> {
        b.iter().map(|e| (e.hash, &*e.key)).collect()
    }

    fn get<'a>(b: &'a Bucket, hash: u64, key: &str) -> Option<&'a [u8]> {
        find(b, hash, key).ok().map(|i| &*b[i].value)
    }

    /// Distinct keys forced onto one hash (7) form a run that `find`
    /// must search by key, between neighbours with smaller and larger
    /// hashes.
    #[test]
    fn equal_hash_run_is_searched_by_key() {
        let mut b: Bucket = Arc::from(Vec::new());
        b = with_applied(&b, 9, "after", Some(b"9"));
        b = with_applied(&b, 3, "before", Some(b"3"));
        for k in ["m", "c", "x", "a"] {
            b = with_applied(&b, 7, k, Some(k.as_bytes()));
        }
        assert_eq!(
            keys(&b),
            vec![
                (3, "before"),
                (7, "a"),
                (7, "c"),
                (7, "m"),
                (7, "x"),
                (9, "after")
            ]
        );
        for k in ["a", "c", "m", "x"] {
            assert_eq!(get(&b, 7, k), Some(k.as_bytes()));
        }
        // Absent keys inside, before and after the run; a present key
        // probed with the wrong hash is absent too.
        assert_eq!(find(&b, 7, "b"), Err(2));
        assert_eq!(find(&b, 7, "0"), Err(1));
        assert_eq!(find(&b, 7, "z"), Err(5));
        assert_eq!(find(&b, 8, "m"), Err(5));

        // Overwrite inside the run keeps the order and the key.
        b = with_applied(&b, 7, "m", Some(b"M"));
        assert_eq!(get(&b, 7, "m"), Some(&b"M"[..]));
        assert_eq!(b.len(), 6);

        // Delete from the middle of the run, then its ends.
        b = with_applied(&b, 7, "c", None);
        assert_eq!(get(&b, 7, "c"), None);
        assert_eq!(get(&b, 7, "x"), Some(&b"x"[..]));
        b = with_applied(&b, 7, "a", None);
        b = with_applied(&b, 7, "x", None);
        assert_eq!(keys(&b), vec![(3, "before"), (7, "m"), (9, "after")]);

        // Deleting an absent key shares the bucket rather than copying it.
        let same = with_applied(&b, 7, "c", None);
        assert!(Arc::ptr_eq(&same, &b));
    }

    /// Random operations over a handful of hashes (so runs are long)
    /// against a `BTreeMap` model; the bulk-load of the model's contents
    /// must produce the same bucket.
    #[test]
    fn random_ops_match_a_model_with_colliding_hashes() {
        let mut rng = ad_support::prng::Rng::seed_from_u64(0x5eed);
        let hash_of = |k: &str| fnv1a64(k.as_bytes()) % 4;
        let mut b: Bucket = Arc::from(Vec::new());
        let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        for step in 0..3000u32 {
            let key = format!("k{}", rng.random_range(0..200));
            let h = hash_of(&key);
            if rng.random_bool(0.3) {
                b = with_applied(&b, h, &key, None);
                model.remove(&key);
            } else {
                let v = step.to_le_bytes().to_vec();
                b = with_applied(&b, h, &key, Some(&v));
                model.insert(key, v);
            }
        }
        assert_eq!(b.len(), model.len());
        assert!(b
            .windows(2)
            .all(|w| (w[0].hash, &w[0].key) < (w[1].hash, &w[1].key)));
        for i in 0..200 {
            let key = format!("k{i}");
            assert_eq!(
                get(&b, hash_of(&key), &key),
                model.get(&key).map(|v| &v[..])
            );
        }
        let loaded = from_unsorted(
            model
                .iter()
                .map(|(k, v)| Entry {
                    hash: hash_of(k),
                    key: Arc::from(k.as_str()),
                    value: Arc::from(v.as_slice()),
                })
                .collect(),
        );
        assert_eq!(keys(&loaded), keys(&b));
    }
}
