//! Self-checking values and the acked-write log behind the correctness
//! checks, and the key generators that feed them.
//!
//! Every value the benchmark writes names its writer, the writer's
//! sequence number and the key it belongs to, and ends in a CRC-32 of
//! the rest, so any value read back can be traced to one write. Each load
//! thread logs, per key, its last write with the instants the write was
//! sent and acked; after a run, the store reopened from its durable bytes
//! must hold, for every key, a value that some write left there and that
//! no later-sent write superseded.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ad_support::crc32::crc32;
use ad_support::prng::Rng;

/// Writer id of the values the set-up preloads (sequence number 0).
pub const PRELOAD: u8 = 0;

/// Bytes before the fill: writer (1), sequence (8), key index (4).
const HEADER: usize = 13;
/// Trailing CRC-32.
const TRAILER: usize = 4;

/// The key name of index `i`.
pub fn key_name(i: usize) -> String {
    format!("key{i:06}")
}

/// A value of `len` bytes for `key` written by `writer` as its `seq`-th
/// write.
pub fn encode(len: usize, writer: u8, seq: u64, key: usize) -> Vec<u8> {
    assert!(len >= HEADER + TRAILER, "values need room for their tag");
    let mut v = Vec::with_capacity(len);
    v.push(writer);
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(&(key as u32).to_le_bytes());
    let fill = (seq as u8) ^ (key as u8);
    v.extend((0..len - HEADER - TRAILER).map(|i| fill.wrapping_add(i as u8)));
    let crc = crc32(&v);
    v.extend_from_slice(&crc.to_le_bytes());
    v
}

/// The `(writer, seq)` tag of a value read under `key`, if it is well
/// formed: right length, intact checksum, and written for this key.
pub fn decode(v: &[u8], len: usize, key: usize) -> Result<(u8, u64), String> {
    if v.len() != len {
        return Err(format!("key {key}: value of {} bytes, want {len}", v.len()));
    }
    let (body, crc) = v.split_at(len - TRAILER);
    if crc32(body) != u32::from_le_bytes(crc.try_into().expect("4-byte trailer")) {
        return Err(format!("key {key}: value checksum mismatch"));
    }
    let for_key = u32::from_le_bytes(body[9..13].try_into().expect("4-byte key index"));
    if for_key as usize != key {
        return Err(format!("key {key}: value written for key {for_key}"));
    }
    let seq = u64::from_le_bytes(body[1..9].try_into().expect("8-byte sequence"));
    Ok((body[0], seq))
}

/// Sequence numbers each writer has issued so far (writer `w` is slot
/// `w - 1`). A value read back must carry a sequence its writer had
/// already issued when the read returned.
pub struct Issued(Vec<AtomicU64>);

impl Issued {
    /// Counters for `writers` writers.
    pub fn new(writers: usize) -> Issued {
        Issued((0..writers).map(|_| AtomicU64::new(0)).collect())
    }

    /// Writer `writer` is about to send its write number `seq`.
    pub fn issue(&self, writer: u8, seq: u64) {
        self.0[writer as usize - 1].store(seq, Ordering::Release);
    }

    /// Check a tag read back: the preload's, or one some writer issued.
    pub fn check(&self, (writer, seq): (u8, u64)) -> Result<(), String> {
        if writer == PRELOAD {
            return if seq == 0 {
                Ok(())
            } else {
                Err(format!("preload tag with sequence {seq}"))
            };
        }
        match self.0.get(writer as usize - 1) {
            Some(max) if seq >= 1 && seq <= max.load(Ordering::Acquire) => Ok(()),
            Some(_) => Err(format!("writer {writer} never issued sequence {seq}")),
            None => Err(format!("unknown writer {writer}")),
        }
    }
}

#[derive(Clone, Copy)]
struct Last {
    seq: u64,
    deleted: bool,
    sent: Instant,
    acked: Instant,
}

/// One writer's last acked write per key.
pub struct WriteLog {
    writer: u8,
    last: Vec<Option<Last>>,
}

impl WriteLog {
    /// An empty log for `writer` over `keys` keys.
    pub fn new(writer: u8, keys: usize) -> WriteLog {
        WriteLog {
            writer,
            last: vec![None; keys],
        }
    }

    /// Record an acked write of `key`.
    pub fn acked(&mut self, key: usize, seq: u64, deleted: bool, sent: Instant, acked: Instant) {
        self.last[key] = Some(Last {
            seq,
            deleted,
            sent,
            acked,
        });
    }
}

/// Check the value a reopened store holds for `key` (`None`: absent)
/// against every writer's log. Each writer's last write is a valid final
/// state unless another writer sent a write to the key after it was
/// acked; with no writes at all, the preload must be there.
pub fn check_final(logs: &[WriteLog], key: usize, found: Option<(u8, u64)>) -> Result<(), String> {
    let lasts: Vec<(u8, Last)> = logs
        .iter()
        .filter_map(|l| l.last[key].map(|w| (l.writer, w)))
        .collect();
    if lasts.is_empty() {
        return match found {
            Some((PRELOAD, 0)) => Ok(()),
            other => Err(format!("key {key}: never written, found {other:?}")),
        };
    }
    let ok = lasts.iter().any(|&(writer, w)| {
        let superseded = lasts
            .iter()
            .any(|&(other, o)| other != writer && o.sent > w.acked);
        !superseded
            && match found {
                None => w.deleted,
                Some(tag) => !w.deleted && tag == (writer, w.seq),
            }
    });
    if ok {
        Ok(())
    } else {
        Err(format!(
            "key {key}: reopened store holds {found:?}, not an acked last write"
        ))
    }
}

/// YCSB-style zipf sampler over `0..n`: item 0 is the hottest.
pub struct Zipf {
    n: usize,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// A sampler over `n` items with skew `theta` (0 < theta < 1).
    pub fn new(n: usize, theta: f64) -> Zipf {
        let zetan: f64 = (1..=n).map(|i| (i as f64).powf(-theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let uz = u * self.zetan;
        if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            let i = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as usize;
            i.min(self.n - 1)
        }
    }
}

/// The per-thread generator seed for thread `thread` of a run seeded
/// `seed`.
pub fn thread_seed(seed: u64, thread: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(thread as u64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn values_round_trip_and_reject_damage() {
        let v = encode(100, 2, 77, 1234);
        assert_eq!(decode(&v, 100, 1234), Ok((2, 77)));
        assert!(decode(&v, 100, 1235).is_err(), "wrong key");
        let mut bad = v.clone();
        bad[50] ^= 1;
        assert!(decode(&bad, 100, 1234).is_err(), "flipped byte");
        assert!(decode(&v[..99], 100, 1234).is_err(), "short value");
    }

    #[test]
    fn final_state_must_be_an_unsuperseded_last_write() {
        let t = Instant::now();
        let at = |ms| t + Duration::from_millis(ms);
        let mut a = WriteLog::new(1, 1);
        let mut b = WriteLog::new(2, 1);
        // Concurrent: either write may be last.
        a.acked(0, 5, false, at(0), at(10));
        b.acked(0, 9, false, at(5), at(15));
        let logs = [a, b];
        assert!(check_final(&logs, 0, Some((1, 5))).is_ok());
        assert!(check_final(&logs, 0, Some((2, 9))).is_ok());
        assert!(check_final(&logs, 0, Some((1, 4))).is_err(), "older write");
        assert!(check_final(&logs, 0, None).is_err(), "lost write");
        // Writer 2 sent after writer 1's ack: only writer 2's write may
        // survive.
        let [mut a, b] = logs;
        a.acked(0, 5, false, at(0), at(4));
        let logs = [a, b];
        assert!(check_final(&logs, 0, Some((1, 5))).is_err());
        assert!(check_final(&logs, 0, Some((2, 9))).is_ok());
    }

    #[test]
    fn zipf_prefers_the_head() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::seed_from_u64(7);
        let head = (0..10_000).filter(|_| z.sample(&mut rng) < 10).count();
        assert!(head > 2_000, "only {head} of 10000 draws in the top 10");
    }
}
