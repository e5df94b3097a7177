//! The store: sharded `TVar` buckets behind `Defer` handles, with WAL
//! durability via `atomic_defer`.
//!
//! ## Data layout
//!
//! Keys hash (FNV-1a) to one of `shards` shards; within a shard, to one of
//! `buckets_per_shard` buckets. A bucket is one immutable allocation of
//! `(hash, key, value)` entries sorted by `(hash, key)`, held in a `TVar`
//! (see `bucket.rs`). A point read computes the key's hash once —
//! it picks the shard and the bucket — and then binary-searches the
//! bucket's inline hashes, comparing keys only where hashes tie, so it
//! dereferences at most one key instead of one per probe. Updates
//! clone-and-replace the bucket, which keeps `TVar`'s `Clone` cheap (an
//! `Arc` bump) for readers. Scans and `dump` re-sort by key; they walk
//! every bucket anyway.
//!
//! Each shard (not each bucket) is a [`Defer`]-wrapped object: transactions
//! reach the bucket `TVar`s through [`Defer::with`], which subscribes to
//! the shard's implicit `TxLock`. That is the granularity at which deferred
//! WAL appends exclude observers — fine enough that writers to different
//! shards coalesce their fsyncs concurrently, coarse enough that the lock
//! table stays small. `trace::contention_report` on a traced run shows
//! whether the default shard count spreads load (see `kv_bench`).
//!
//! ## Write protocol
//!
//! [`KvStore::write_batch`] encodes the redo record *before* entering the
//! transaction (re-execution on conflict must not re-serialize), then in
//! one transaction: `atomic_defer` over the touched shards (first, per the
//! ordering discipline for potentially-irrevocable transactions), then the
//! bucket updates. The deferred operation appends to the WAL and blocks
//! until its covering fsync returns — so `write_batch` acks only durable
//! writes, and the shard locks make commit + durability one atomic step as
//! far as any other transaction can tell.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{self, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ad_defer::{atomic_defer, atomic_defer_tracked, Defer, DeferHandle, Deferrable};
use ad_stm::{EventKind, Runtime, StmResult, TVar, TmConfig, Tx};
use ad_support::sync::atomic::{AtomicU64, Ordering};

use ad_support::sync::{Condvar, Mutex};

use crate::bucket::{self, Bucket, Entry};
use crate::checkpoint::{
    snapshot_paths, Checkpointer, CkptPolicy, CkptReport, CkptStats, FileSnapshots, SnapshotStore,
};
use crate::memtable::MemTable;
use crate::recover::{
    encode_decided, encode_prepare, encode_redo, recover_two_tier, scan, RecoveryReport, RedoKind,
    RedoRecord,
};
use crate::wal::{
    fsync_dir_of, segment_path, FileMedium, MemDisk, SyncPolicy, Wal, WalMedium, WalStats,
    MEMDISK_SNAP_CUR, MEMDISK_SNAP_PREV, MEMDISK_SNAP_TMP, MEMDISK_WAL,
};

/// Whether (and how) the store persists writes.
#[derive(Debug, Clone)]
pub enum Durability {
    /// No WAL: pure in-memory transactional store. The baseline that
    /// isolates STM cost from I/O cost in `kv_bench`.
    Volatile,
    /// Write-ahead log at `path`, recovered on open, synced per `sync`.
    Durable {
        /// WAL file path (created if absent, recovered if present).
        path: PathBuf,
        /// Group-commit or fsync-per-commit.
        sync: SyncPolicy,
    },
}

/// Store configuration.
#[derive(Debug, Clone)]
pub struct KvConfig {
    /// Number of shards — the lock granularity for deferred WAL appends.
    pub shards: usize,
    /// Hash buckets per shard.
    pub buckets_per_shard: usize,
    /// Persistence mode.
    pub durability: Durability,
    /// Checkpoint policy (only meaningful for durable stores whose
    /// medium supports segment rotation — file-backed and [`MemDisk`]).
    pub ckpt: CkptPolicy,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            shards: 16,
            buckets_per_shard: 64,
            durability: Durability::Volatile,
            ckpt: CkptPolicy::Manual,
        }
    }
}

impl KvConfig {
    /// In-memory store with default sharding.
    pub fn volatile() -> Self {
        Self::default()
    }

    /// Durable store with default sharding.
    pub fn durable(path: impl Into<PathBuf>, sync: SyncPolicy) -> Self {
        KvConfig {
            durability: Durability::Durable {
                path: path.into(),
                sync,
            },
            ..Self::default()
        }
    }

    /// Override the shard count (and proportionally the bucket count).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Set the checkpoint policy ([`CkptPolicy::Auto`] starts a
    /// background trigger thread on open).
    pub fn with_ckpt(mut self, ckpt: CkptPolicy) -> Self {
        self.ckpt = ckpt;
        self
    }
}

/// An atomic multi-key write: puts and deletes that commit — and become
/// durable — together or not at all.
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    pub(crate) ops: Vec<(String, Option<Vec<u8>>)>,
}

impl WriteBatch {
    /// Empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a put. Later ops on the same key win.
    pub fn put(mut self, key: impl Into<String>, value: impl Into<Vec<u8>>) -> Self {
        self.ops.push((key.into(), Some(value.into())));
        self
    }

    /// Add a delete.
    pub fn delete(mut self, key: impl Into<String>) -> Self {
        self.ops.push((key.into(), None));
        self
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// The operations in application order: `(key, Some(value))` for a put,
    /// `(key, None)` for a delete. This is the accessor the `ad-net` wire
    /// codec uses to frame a BATCH request without re-modelling the batch.
    pub fn ops(&self) -> impl Iterator<Item = (&str, Option<&[u8]>)> {
        self.ops.iter().map(|(k, v)| (k.as_str(), v.as_deref()))
    }

    /// True when the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Build a batch from decoded redo ops — the shape cross-shard
    /// slices travel in (`ad-shard` transport frames, recovered
    /// [`RedoRecord`]s).
    pub fn from_ops(ops: crate::recover::RedoOps) -> Self {
        WriteBatch { ops }
    }
}

/// One shard: the deferrable unit. Its implicit `TxLock` (via `Defer`)
/// is what deferred WAL appends hold.
struct Shard {
    buckets: Vec<TVar<Bucket>>,
}

/// Wakeup channel between deferred ops (which notice the WAL crossed a
/// threshold) and the background checkpoint thread (which does the I/O;
/// running a checkpoint *inside* a deferred op would self-deadlock — it
/// waits for a memtable watermark that includes the caller's own
/// not-yet-applied record).
struct CkptSignal {
    state: Mutex<CkptWake>,
    cv: Condvar,
}

#[derive(Default)]
struct CkptWake {
    shutdown: bool,
    kicked: bool,
}

struct CkptWorker {
    handle: Option<std::thread::JoinHandle<()>>,
    signal: Arc<CkptSignal>,
}

/// Everything an open path hands to [`KvStore::build`]: the recovered
/// durable state (snapshot base + WAL suffix records), the resumed WAL,
/// and the optional snapshot store that enables checkpointing.
struct BuildParts {
    wal: Option<Arc<Wal>>,
    base: crate::memtable::KeyMap,
    records: Vec<RedoRecord>,
    recovery: Option<RecoveryReport>,
    snaps: Option<Box<dyn SnapshotStore>>,
    ckpt_policy: CkptPolicy,
}

impl BuildParts {
    fn volatile() -> Self {
        BuildParts {
            wal: None,
            base: BTreeMap::new(),
            records: Vec::new(),
            recovery: None,
            snaps: None,
            ckpt_policy: CkptPolicy::Manual,
        }
    }
}

/// The durable transactional KV store. Clone-free: share it via `Arc`.
pub struct KvStore {
    rt: Arc<Runtime>,
    shards: Vec<Defer<Shard>>,
    buckets_per_shard: usize,
    wal: Option<Arc<Wal>>,
    /// Durable-tier index of recent committed writes (every durable
    /// store; populated post-fsync from the same deferred ops that
    /// append redo records).
    memtable: Option<Arc<MemTable>>,
    /// Present when the medium supports rotation and a snapshot store
    /// exists (file-backed and [`MemDisk`] opens).
    ckpt: Option<Arc<Checkpointer>>,
    ckpt_worker: Option<CkptWorker>,
    next_txid: AtomicU64,
    recovery: Option<RecoveryReport>,
    /// Cross-shard slices staged in the recovered log whose outcome this
    /// log alone cannot prove: awaiting reconciliation against the other
    /// shards' logs (`ad-shard`), else presumed aborted. Never applied.
    pending_prepares: Mutex<Vec<RedoRecord>>,
    /// gids this shard's recovered log proves committed (it contains a
    /// [`RedoKind::Decided`] record for them) — the evidence the
    /// reconciliation pass consults to resolve *other* shards' prepares.
    recovered_decided: Vec<u64>,
}

/// One remote participant of a cross-shard batch, as the coordinating
/// store sees it: opaque callbacks the sharding layer (`ad-shard`) wires
/// to its transport. Both are `Arc<dyn Fn>` because the coordinating
/// transaction's body may re-run on conflict — the deferred operations
/// that call them are rebuilt per attempt and run once, post-commit.
pub struct RemoteSlice {
    /// Send the participant its slice of the batch and block until the
    /// participant acknowledges the slice is *staged durably* on its
    /// shard. Runs as its own deferred operation, in submission
    /// (ascending-shard) order.
    pub prepare: Arc<dyn Fn() + Send + Sync>,
    /// Tell the participant the decision record is durable — it may now
    /// expose the slice. Must not block on the participant's apply.
    pub release: Arc<dyn Fn() + Send + Sync>,
}

impl Drop for KvStore {
    fn drop(&mut self) {
        if let Some(w) = self.ckpt_worker.take() {
            w.signal.state.lock().shutdown = true;
            w.signal.cv.notify_all();
            if let Some(h) = w.handle {
                let _ = h.join();
            }
        }
    }
}

/// `(shard, bucket, hash)` of `key` in a store of `shards` shards with
/// `buckets_per_shard` buckets each: the low hash half picks the shard,
/// the high half the bucket, and the whole hash orders the bucket.
fn locate_in(key: &str, shards: usize, buckets_per_shard: usize) -> (usize, usize, u64) {
    let h = bucket::fnv1a64(key.as_bytes());
    (
        (h as u32 as usize) % shards,
        ((h >> 32) as usize) % buckets_per_shard,
        h,
    )
}

impl KvStore {
    /// Open a store: fresh for [`Durability::Volatile`]; for
    /// [`Durability::Durable`], two-tier recovery at `path` — load the
    /// newest valid snapshot (`{path}.ckpt.cur`, falling back to
    /// `.prev`), replay the WAL suffix with `seq > cut` across the
    /// segment files (`path`, `{path}.segN`), truncate any torn tail —
    /// and continue appending after it.
    pub fn open(config: KvConfig) -> io::Result<KvStore> {
        match &config.durability {
            Durability::Volatile => Ok(Self::build(
                config.shards,
                config.buckets_per_shard,
                BuildParts::volatile(),
            )),
            Durability::Durable { path, sync } => {
                let path = path.clone();
                Self::open_durable(&path, *sync, &config)
            }
        }
    }

    fn open_durable(path: &Path, sync: SyncPolicy, config: &KvConfig) -> io::Result<KvStore> {
        // Discover segments: the base file carries the chain from seq 1,
        // rotated segments are `{base}.seg{first_seq:020}`.
        let mut segs: Vec<(u64, PathBuf)> = Vec::new();
        if path.exists() {
            segs.push((1, path.to_path_buf()));
        }
        let fname = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let dir = path
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .unwrap_or(Path::new("."));
        if let Ok(rd) = std::fs::read_dir(dir) {
            for entry in rd.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if let Some(suffix) = name
                    .strip_prefix(&fname)
                    .and_then(|s| s.strip_prefix(".seg"))
                {
                    if let Ok(id) = suffix.parse::<u64>() {
                        segs.push((id, entry.path()));
                    }
                }
            }
        }
        segs.sort();
        let mut seg_bytes: Vec<(u64, Vec<u8>)> = Vec::with_capacity(segs.len());
        for (id, p) in &segs {
            seg_bytes.push((*id, std::fs::read(p)?));
        }
        let (tmp, cur, prev) = snapshot_paths(path);
        let read_opt = |p: &Path| match std::fs::read(p) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        };
        let cur_bytes = read_opt(&cur)?;
        let prev_bytes = read_opt(&prev)?;
        let t = recover_two_tier(cur_bytes.as_deref(), prev_bytes.as_deref(), &seg_bytes);

        // Sanitize before accepting writes: drop a stale tmp, cut torn
        // tails, delete unusable segments — durably.
        let _ = std::fs::remove_file(&tmp);
        let mut old_segments = Vec::new();
        let mut active_file = None;
        for (i, (_, p)) in segs.iter().enumerate() {
            match t.keep[i] {
                Some(valid) => {
                    let mut file = OpenOptions::new().read(true).write(true).open(p)?;
                    let len = file.metadata()?.len();
                    if len != valid {
                        file.set_len(valid)?;
                        file.sync_data()?;
                    }
                    if t.active == Some(i) {
                        file.seek(SeekFrom::End(0))?;
                        active_file = Some((file, p.clone()));
                    } else {
                        old_segments.push(p.clone());
                    }
                }
                None => match std::fs::remove_file(p) {
                    Ok(()) | Err(_) => {}
                },
            }
        }
        let (file, current) = match active_file {
            Some(fp) => fp,
            None => {
                // Fresh store, or recovery discarded every segment:
                // start a new contiguous segment.
                let p = if t.next_seq == 1 {
                    path.to_path_buf()
                } else {
                    segment_path(path, t.next_seq)
                };
                let f = OpenOptions::new()
                    .create(true)
                    .truncate(true)
                    .read(true)
                    .write(true)
                    .open(&p)?;
                (f, p)
            }
        };
        fsync_dir_of(path)?;
        let medium = FileMedium::with_segments(file, path.to_path_buf(), current, old_segments);
        let wal = Arc::new(Wal::new(Box::new(medium), sync, t.next_seq));
        let snaps: Box<dyn SnapshotStore> = Box::new(FileSnapshots::new(path.to_path_buf()));
        Ok(Self::build(
            config.shards,
            config.buckets_per_shard,
            BuildParts {
                wal: Some(wal),
                base: t.base,
                records: t.records,
                recovery: Some(t.report),
                snaps: Some(snaps),
                ckpt_policy: config.ckpt,
            },
        ))
    }

    /// Open over an explicit [`WalMedium`], recovering from `existing`
    /// (a crash image) first. The single-stream testing/bench entry
    /// point: `MemMedium` here gives byte-exact crash injection without
    /// touching disk. No snapshot store is attached, so checkpointing is
    /// unavailable — use [`KvStore::open_on_disk`] for that.
    pub fn open_on_medium(
        config: &KvConfig,
        sync: SyncPolicy,
        medium: Box<dyn WalMedium>,
        existing: &[u8],
    ) -> (KvStore, RecoveryReport) {
        let (records, report) = scan(existing, 1);
        let wal = Arc::new(Wal::new(medium, sync, report.last_seq + 1));
        let store = Self::build(
            config.shards,
            config.buckets_per_shard,
            BuildParts {
                wal: Some(wal),
                base: BTreeMap::new(),
                records,
                recovery: Some(report.clone()),
                snaps: None,
                ckpt_policy: CkptPolicy::Manual,
            },
        );
        (store, report)
    }

    /// Open on a [`MemDisk`] — the multi-file in-memory medium — with
    /// full two-tier recovery and checkpoint support. The testing entry
    /// point for byte-exact crash images across checkpoint boundaries
    /// ([`MemDisk::crash_image`]).
    pub fn open_on_disk(
        config: &KvConfig,
        sync: SyncPolicy,
        disk: MemDisk,
    ) -> (KvStore, RecoveryReport) {
        let mut segs: Vec<(u64, String)> = disk
            .file_names()
            .into_iter()
            .filter_map(|n| {
                if n == MEMDISK_WAL {
                    Some((1, n))
                } else if let Some(suffix) = n.strip_prefix("wal.seg") {
                    suffix.parse::<u64>().ok().map(|id| (id, n))
                } else {
                    None
                }
            })
            .collect();
        segs.sort();
        let seg_bytes: Vec<(u64, Vec<u8>)> = segs
            .iter()
            .map(|(id, n)| (*id, disk.read_file(n).unwrap_or_default()))
            .collect();
        let cur = disk.read_file(MEMDISK_SNAP_CUR);
        let prev = disk.read_file(MEMDISK_SNAP_PREV);
        let t = recover_two_tier(cur.as_deref(), prev.as_deref(), &seg_bytes);

        if disk.read_file(MEMDISK_SNAP_TMP).is_some() {
            disk.delete_file(MEMDISK_SNAP_TMP);
        }
        let mut old_segments = Vec::new();
        let mut active = None;
        for (i, (_, name)) in segs.iter().enumerate() {
            match t.keep[i] {
                Some(valid) => {
                    disk.truncate_file(name, valid as usize);
                    if t.active == Some(i) {
                        active = Some(name.clone());
                    } else {
                        old_segments.push(name.clone());
                    }
                }
                None => {
                    disk.delete_file(name);
                }
            }
        }
        let active = active.unwrap_or_else(|| {
            if t.next_seq == 1 {
                MEMDISK_WAL.to_string()
            } else {
                format!("wal.seg{:020}", t.next_seq)
            }
        });
        disk.set_active_wal(&active, old_segments);
        let wal = Arc::new(Wal::new(Box::new(disk.clone()), sync, t.next_seq));
        let report = t.report.clone();
        let store = Self::build(
            config.shards,
            config.buckets_per_shard,
            BuildParts {
                wal: Some(wal),
                base: t.base,
                records: t.records,
                recovery: Some(t.report),
                snaps: Some(Box::new(disk)),
                ckpt_policy: config.ckpt,
            },
        );
        (store, report)
    }

    fn build(shards: usize, buckets_per_shard: usize, parts: BuildParts) -> KvStore {
        assert!(shards >= 1 && buckets_per_shard >= 1);
        let BuildParts {
            wal,
            base,
            records,
            recovery,
            snaps,
            ckpt_policy,
        } = parts;
        // Under SyncPolicy::Async the store's runtime gets a pooled
        // deferred executor: commits return after write-back + quiescence
        // and the WAL append (including the group-commit leader's fsync)
        // runs on a pool worker while the shard locks are held by the
        // transaction's batch owner. Every other policy keeps the default
        // inline executor — the deferred fsync blocks the committer, which
        // is exactly the ack-after-durability contract of `write_batch`.
        let tm_cfg = match &wal {
            Some(w) if w.sync_policy() == SyncPolicy::Async => {
                TmConfig::stm().with_defer_pool(4, 256)
            }
            _ => TmConfig::stm(),
        };
        // Bulk-load the snapshot's base image straight into the buckets
        // (the store is not yet shared; each bucket is sorted into
        // `(hash, key)` order once); the WAL suffix then replays
        // transactionally, one record per transaction, exactly like the
        // pre-checkpoint recovery path — deterministic replay, monotonic
        // versions.
        let mut bucket_data: Vec<Vec<Vec<Entry>>> =
            vec![vec![Vec::new(); buckets_per_shard]; shards];
        for (k, v) in &base {
            let (si, bi, hash) = locate_in(k, shards, buckets_per_shard);
            bucket_data[si][bi].push(Entry {
                hash,
                key: Arc::clone(k),
                value: Arc::clone(v),
            });
        }
        let snapshot_cut = recovery.as_ref().map_or(0, |r| r.snapshot_cut);
        let store = KvStore {
            rt: Arc::new(Runtime::new(tm_cfg)),
            shards: bucket_data
                .into_iter()
                .map(|buckets| {
                    Defer::new(Shard {
                        buckets: buckets
                            .into_iter()
                            .map(|entries| TVar::new(bucket::from_unsorted(entries)))
                            .collect(),
                    })
                })
                .collect(),
            buckets_per_shard,
            wal,
            memtable: None,
            ckpt: None,
            ckpt_worker: None,
            next_txid: AtomicU64::new(1),
            recovery,
            pending_prepares: Mutex::new(Vec::new()),
            recovered_decided: Vec::new(),
        };
        // Cross-shard records (DESIGN.md §14): a Decided record anywhere
        // in this log proves its gid committed; a Prepare record is
        // *never* replayed directly — its data becomes real only through
        // a matching Decided record (same log, or appended by
        // reconciliation after `resolve_prepared`). Prepares still
        // lacking a local decision after replay are parked for the
        // sharding layer; standalone opens presume them aborted.
        let decided: std::collections::HashSet<u64> = records
            .iter()
            .filter_map(|r| match r.kind {
                RedoKind::Decided { gid } => Some(gid),
                _ => None,
            })
            .collect();
        let mut max_txid = 0;
        for rec in &records {
            max_txid = max_txid.max(rec.txid);
            if matches!(rec.kind, RedoKind::Prepare { .. }) {
                continue;
            }
            store.rt.atomically(|tx| {
                for (key, value) in &rec.ops {
                    store.apply_in_tx(tx, key, value.as_deref())?;
                }
                Ok(())
            });
        }
        *store.pending_prepares.lock() = records
            .iter()
            .filter(|r| matches!(r.kind, RedoKind::Prepare { gid } if !decided.contains(&gid)))
            .cloned()
            .collect();
        let mut store = store;
        store.recovered_decided = decided.into_iter().collect();
        store.recovered_decided.sort_unstable();
        let store = store;
        // txids are diagnostic, but keep them monotonic across
        // checkpointed restarts (snapshotted records' txids are gone;
        // the cut bounds them because txids are handed out per batch).
        store
            .next_txid
            .store(max_txid.max(snapshot_cut) + 1, Ordering::Relaxed);
        let mut store = store;
        if let Some(wal) = &store.wal {
            // The memtable base is the recovered durable state: snapshot
            // image plus replayed suffix; the watermark starts at the
            // resumed WAL position. Undecided prepares stay out — the
            // durable tier must never show a staged slice.
            let mut mt_base = base;
            for rec in &records {
                if matches!(rec.kind, RedoKind::Prepare { .. }) {
                    continue;
                }
                for (key, value) in &rec.ops {
                    match value {
                        Some(v) => {
                            mt_base.insert(Arc::from(key.as_str()), Arc::from(v.as_slice()));
                        }
                        None => {
                            mt_base.remove(key.as_str());
                        }
                    }
                }
            }
            let memtable = Arc::new(MemTable::with_base(mt_base, wal.durable_seq()));
            if let Some(snaps) = snaps {
                let ckpt = Arc::new(Checkpointer::new(
                    Arc::clone(wal),
                    Arc::clone(&memtable),
                    snaps,
                    snapshot_cut,
                    ckpt_policy,
                ));
                if matches!(ckpt_policy, CkptPolicy::Auto { .. }) {
                    let signal = Arc::new(CkptSignal {
                        state: Mutex::new(CkptWake::default()),
                        cv: Condvar::new(),
                    });
                    let worker_sig = Arc::clone(&signal);
                    let worker_ckpt = Arc::clone(&ckpt);
                    let worker_rt = Arc::clone(&store.rt);
                    let handle = std::thread::spawn(move || loop {
                        {
                            let mut g = worker_sig.state.lock();
                            while !g.shutdown && !g.kicked {
                                worker_sig.cv.wait(&mut g);
                            }
                            if g.shutdown {
                                return;
                            }
                            g.kicked = false;
                        }
                        if let Err(e) = worker_ckpt.run(&worker_rt) {
                            eprintln!("ad-kv: background checkpoint failed: {e}");
                        }
                    });
                    store.ckpt_worker = Some(CkptWorker {
                        handle: Some(handle),
                        signal,
                    });
                }
                store.ckpt = Some(ckpt);
            }
            store.memtable = Some(memtable);
        }
        store
    }

    /// `(shard, bucket, hash)` of `key`.
    fn locate(&self, key: &str) -> (usize, usize, u64) {
        locate_in(key, self.shards.len(), self.buckets_per_shard)
    }

    fn read_in_tx(&self, tx: &mut Tx, key: &str) -> StmResult<Option<Arc<[u8]>>> {
        let (si, bi, hash) = self.locate(key);
        self.shards[si].with(tx, |shard, tx| {
            let b = tx.read(&shard.buckets[bi])?;
            Ok(bucket::find(&b, hash, key)
                .ok()
                .map(|pos| Arc::clone(&b[pos].value)))
        })
    }

    fn apply_in_tx(&self, tx: &mut Tx, key: &str, value: Option<&[u8]>) -> StmResult<()> {
        let (si, bi, hash) = self.locate(key);
        self.shards[si].with(tx, |shard, tx| {
            let var = &shard.buckets[bi];
            let b = tx.read(var)?;
            tx.write(var, bucket::with_applied(&b, hash, key, value))
        })
    }

    /// Point lookup (one transaction, subscribes to the key's shard — so a
    /// concurrent writer's not-yet-durable update is never returned).
    pub fn get(&self, key: &str) -> Option<Arc<[u8]>> {
        self.rt.atomically(|tx| self.read_in_tx(tx, key))
    }

    /// Consistent multi-key lookup: all keys read in one transaction, so
    /// the result is a serializable snapshot even across shards.
    pub fn get_many(&self, keys: &[&str]) -> Vec<Option<Arc<[u8]>>> {
        self.rt.atomically(|tx| {
            let mut out = Vec::with_capacity(keys.len());
            for key in keys {
                out.push(self.read_in_tx(tx, key)?);
            }
            Ok(out)
        })
    }

    /// Insert or overwrite one key. Returns after the write is durable
    /// (for durable stores).
    pub fn put(&self, key: &str, value: &[u8]) {
        self.write_batch(&WriteBatch::new().put(key, value));
    }

    /// Delete one key (no-op if absent — the delete is still logged).
    pub fn delete(&self, key: &str) {
        self.write_batch(&WriteBatch::new().delete(key));
    }

    /// Apply an atomic multi-key batch. With an inline executor (every
    /// policy but [`SyncPolicy::Async`]), returns only after the batch's
    /// single redo record is fsync-covered. Under `Async` it returns at
    /// commit, with durability pending on the executor — the touched
    /// shards stay locked from commit to durability either way, so no
    /// transaction ever observes an acked-but-volatile (or partially
    /// applied) batch. Use [`write_batch_async`](Self::write_batch_async)
    /// when the caller needs to know when durability lands.
    pub fn write_batch(&self, batch: &WriteBatch) {
        self.write_batch_inner(batch, false);
    }

    /// Like [`write_batch`](Self::write_batch), but returns a handle
    /// tracking the batch's deferred durability work: `Some(handle)` for a
    /// durable store ([`DeferHandle::wait`] blocks until the redo record's
    /// covering fsync returned; `poll`/`is_done` check without blocking),
    /// `None` when there is nothing to wait for (volatile store or empty
    /// batch). Most useful under [`SyncPolicy::Async`], where commit and
    /// durability are decoupled; with an inline executor the returned
    /// handle is already complete.
    pub fn write_batch_async(&self, batch: &WriteBatch) -> Option<DeferHandle<()>> {
        self.write_batch_inner(batch, true)
    }

    fn write_batch_inner(&self, batch: &WriteBatch, tracked: bool) -> Option<DeferHandle<()>> {
        if batch.ops.is_empty() {
            return None;
        }
        let txid = self.next_txid.fetch_add(1, Ordering::Relaxed);
        // Encode once, outside the transaction: conflict re-execution must
        // not redo the serialization work (zero-allocation retry
        // discipline), and the deferred closure clones only an Arc.
        let payload: Option<Arc<[u8]>> = self
            .wal
            .as_ref()
            .map(|_| Arc::from(encode_redo(txid, &batch.ops).into_boxed_slice()));
        // Pre-convert the ops once for the memtable apply inside the
        // deferred closure (same zero-allocation-on-retry discipline as
        // the payload).
        let applied = self.mem_ops_of(batch);
        let handles = self.touched_shards(batch);

        self.rt.atomically(|tx| {
            // Deferral first (lock acquisitions are transactional writes on
            // the TxLocks, but must precede data writes: if the contention
            // manager escalates this transaction to irrevocable, blocking
            // lock acquisition after an eager write would be fatal).
            let mut handle = None;
            if let (Some(wal), Some(payload)) = (&self.wal, &payload) {
                let refs: Vec<&dyn Deferrable> =
                    handles.iter().map(|s| s as &dyn Deferrable).collect();
                let wal2 = Arc::clone(wal);
                let bytes = Arc::clone(payload);
                let runtime = Arc::clone(&self.rt);
                let mt = self.memtable.clone();
                let ops = applied.clone();
                let trigger = match (&self.ckpt, &self.ckpt_worker) {
                    (Some(ck), Some(w)) => Some((Arc::clone(ck), Arc::clone(&w.signal))),
                    _ => None,
                };
                let op = move || {
                    let seq = wal2.append_durable(&bytes, &runtime);
                    // Post-fsync, shard locks still held: the memtable
                    // only ever sees durable bytes (see `memtable` docs).
                    if let (Some(mt), Some(ops)) = (&mt, &ops) {
                        mt.apply(seq, ops);
                    }
                    // Checkpoint I/O must not run here (it waits on the
                    // memtable watermark, which includes *this* record up
                    // until the `apply` above) — just wake the worker.
                    if let Some((ck, sig)) = &trigger {
                        if ck.should_trigger() {
                            // This closure is the *deferred op* (bound to a
                            // variable before `atomic_defer`, so the lint's
                            // lexical scoping can't see its legal home);
                            // the lock is post-commit, never retried.
                            // ad-lint: allow(blocking-in-atomic)
                            sig.state.lock().kicked = true;
                            sig.cv.notify_all();
                        }
                    }
                };
                if tracked {
                    handle = Some(atomic_defer_tracked(tx, &refs, op)?);
                } else {
                    atomic_defer(tx, &refs, op)?;
                }
            }
            for (key, value) in &batch.ops {
                self.apply_in_tx(tx, key, value.as_deref())?;
            }
            Ok(handle)
        })
    }

    /// Commit this store's slice of a cross-shard batch as the
    /// **coordinator** (DESIGN.md §14). In one transaction: apply `batch`
    /// to the buckets and queue, over the touched shards, one deferred
    /// prepare per entry of `remotes` (in submission order — the caller
    /// passes participants in ascending shard order, which is what makes
    /// the protocol deadlock-free) followed by the decision operation:
    /// append this shard's gid-tagged [`RedoKind::Decided`] record and
    /// block for its covering fsync — **the commit point of the entire
    /// cross-shard batch** — then apply it to the memtable and broadcast
    /// release. The shard locks are held from commit until the decision
    /// op returns, so no reader on this shard observes the slice before
    /// every participant staged durably and the decision itself is
    /// durable.
    ///
    /// Requires the inline deferred executor (any policy but
    /// [`SyncPolicy::Async`]): the protocol depends on the prepare ops
    /// and the decision op running in submission order.
    pub fn write_batch_coordinated(&self, gid: u64, batch: &WriteBatch, remotes: &[RemoteSlice]) {
        assert!(!batch.ops.is_empty(), "coordinator slice cannot be empty");
        assert!(
            self.sync_policy() != Some(SyncPolicy::Async),
            "cross-shard coordination requires the inline deferred executor"
        );
        let txid = self.next_txid.fetch_add(1, Ordering::Relaxed);
        let payload: Option<Arc<[u8]>> = self
            .wal
            .as_ref()
            .map(|_| Arc::from(encode_decided(gid, txid, &batch.ops).into_boxed_slice()));
        let applied = self.mem_ops_of(batch);
        let handles = self.touched_shards(batch);

        self.rt.atomically(|tx| {
            let refs: Vec<&dyn Deferrable> = handles.iter().map(|s| s as &dyn Deferrable).collect();
            for r in remotes {
                let p = Arc::clone(&r.prepare);
                let rt2 = Arc::clone(&self.rt);
                atomic_defer(tx, &refs, move || {
                    rt2.trace_app(EventKind::ShardPrepare, gid);
                    p();
                    rt2.trace_app(EventKind::ShardAck, gid);
                })?;
            }
            let wal = self.wal.clone();
            let bytes = payload.clone();
            let runtime = Arc::clone(&self.rt);
            let mt = self.memtable.clone();
            let ops = applied.clone();
            let releases: Vec<Arc<dyn Fn() + Send + Sync>> =
                remotes.iter().map(|r| Arc::clone(&r.release)).collect();
            atomic_defer(tx, &refs, move || {
                if let (Some(wal), Some(bytes)) = (&wal, &bytes) {
                    let seq = wal.append_durable(bytes, &runtime);
                    if let (Some(mt), Some(ops)) = (&mt, &ops) {
                        mt.apply(seq, ops);
                    }
                }
                runtime.trace_app(EventKind::ShardRelease, gid);
                for release in &releases {
                    release();
                }
            })?;
            for (key, value) in &batch.ops {
                self.apply_in_tx(tx, key, value.as_deref())?;
            }
            Ok(())
        });
    }

    /// Stage and apply one shard's slice of a cross-shard batch as a
    /// **participant** (DESIGN.md §14). In one transaction: apply `batch`
    /// to the buckets and `atomic_defer`, over the touched shards, an
    /// operation that (1) appends the gid-tagged [`RedoKind::Prepare`]
    /// record and blocks for its covering fsync, (2) calls `ack` — the
    /// stage is durable, the coordinator may count this shard, (3) blocks
    /// in `wait_release` until the coordinator says the decision is
    /// durable, and (4) appends this shard's own [`RedoKind::Decided`]
    /// record and applies it to the memtable. The shard locks are held
    /// from commit through (4): neither a transactional read nor a
    /// durable-tier read ([`read_uncommitted`](Self::read_uncommitted),
    /// which skips locks but only ever sees the memtable) can observe
    /// the slice before the whole batch is decided.
    ///
    /// Returns after (4). Volatile stores skip the WAL steps but keep
    /// the same lock window.
    pub fn apply_prepared<A, R>(&self, gid: u64, batch: &WriteBatch, ack: A, wait_release: R)
    where
        A: Fn() + Send + Sync + 'static,
        R: Fn() + Send + Sync + 'static,
    {
        assert!(!batch.ops.is_empty(), "participant slice cannot be empty");
        let txid = self.next_txid.fetch_add(1, Ordering::Relaxed);
        let prepare_bytes: Option<Arc<[u8]>> = self
            .wal
            .as_ref()
            .map(|_| Arc::from(encode_prepare(gid, txid, &batch.ops).into_boxed_slice()));
        let decided_bytes: Option<Arc<[u8]>> = self
            .wal
            .as_ref()
            .map(|_| Arc::from(encode_decided(gid, txid, &batch.ops).into_boxed_slice()));
        let applied = self.mem_ops_of(batch);
        let handles = self.touched_shards(batch);
        let ack = Arc::new(ack);
        let wait_release = Arc::new(wait_release);

        self.rt.atomically(|tx| {
            let refs: Vec<&dyn Deferrable> = handles.iter().map(|s| s as &dyn Deferrable).collect();
            let wal = self.wal.clone();
            let prepare_bytes = prepare_bytes.clone();
            let decided_bytes = decided_bytes.clone();
            let runtime = Arc::clone(&self.rt);
            let mt = self.memtable.clone();
            let ops = applied.clone();
            let ack = Arc::clone(&ack);
            let wait_release = Arc::clone(&wait_release);
            atomic_defer(tx, &refs, move || {
                runtime.trace_app(EventKind::ShardPrepare, gid);
                if let (Some(wal), Some(bytes)) = (&wal, &prepare_bytes) {
                    let seq = wal.append_durable(bytes, &runtime);
                    // Account the sequence so the watermark (and hence
                    // checkpointing) keeps advancing, but with no ops:
                    // staged data must stay out of the durable tier.
                    if let Some(mt) = &mt {
                        mt.apply(seq, &[]);
                    }
                }
                runtime.trace_app(EventKind::ShardAck, gid);
                ack();
                wait_release();
                runtime.trace_app(EventKind::ShardRelease, gid);
                if let (Some(wal), Some(bytes)) = (&wal, &decided_bytes) {
                    let seq = wal.append_durable(bytes, &runtime);
                    if let (Some(mt), Some(ops)) = (&mt, &ops) {
                        mt.apply(seq, ops);
                    }
                }
            })?;
            for (key, value) in &batch.ops {
                self.apply_in_tx(tx, key, value.as_deref())?;
            }
            Ok(())
        });
    }

    /// gids of cross-shard slices staged in this store's recovered log
    /// that its own log cannot prove committed. The sharding layer
    /// resolves each against the other shards' logs
    /// ([`resolve_prepared`](Self::resolve_prepared) /
    /// [`abort_prepared`](Self::abort_prepared)); a store opened
    /// standalone leaves them parked — presumed aborted, never applied.
    pub fn pending_prepared_gids(&self) -> Vec<u64> {
        self.pending_prepares
            .lock()
            .iter()
            .filter_map(|r| r.kind.gid())
            .collect()
    }

    /// gids this store's recovered log proves committed (a
    /// [`RedoKind::Decided`] record survives for them). Reconciliation
    /// evidence for *other* shards' pending prepares.
    pub fn recovered_decided_gids(&self) -> &[u64] {
        &self.recovered_decided
    }

    /// Resolve a recovered pending prepare as committed: apply its ops
    /// and append this shard's own Decided record durably, so the next
    /// recovery needs no cross-shard evidence. Returns `false` if no
    /// pending prepare with `gid` exists.
    pub fn resolve_prepared(&self, gid: u64) -> bool {
        let rec = {
            let mut pending = self.pending_prepares.lock();
            let Some(i) = pending.iter().position(|r| r.kind.gid() == Some(gid)) else {
                return false;
            };
            pending.remove(i)
        };
        let batch = WriteBatch {
            ops: rec.ops.clone(),
        };
        let payload: Option<Arc<[u8]>> = self
            .wal
            .as_ref()
            .map(|_| Arc::from(encode_decided(gid, rec.txid, &rec.ops).into_boxed_slice()));
        let applied = self.mem_ops_of(&batch);
        let handles = self.touched_shards(&batch);
        self.rt.atomically(|tx| {
            let refs: Vec<&dyn Deferrable> = handles.iter().map(|s| s as &dyn Deferrable).collect();
            if let (Some(wal), Some(payload)) = (&self.wal, &payload) {
                let wal = Arc::clone(wal);
                let bytes = Arc::clone(payload);
                let runtime = Arc::clone(&self.rt);
                let mt = self.memtable.clone();
                let ops = applied.clone();
                atomic_defer(tx, &refs, move || {
                    let seq = wal.append_durable(&bytes, &runtime);
                    if let (Some(mt), Some(ops)) = (&mt, &ops) {
                        mt.apply(seq, ops);
                    }
                })?;
            }
            for (key, value) in &batch.ops {
                self.apply_in_tx(tx, key, value.as_deref())?;
            }
            Ok(())
        });
        true
    }

    /// Drop a recovered pending prepare (presumed abort: no shard's log
    /// proves the gid committed). The staged record stays in the WAL but
    /// is never applied — and is gone after the next checkpoint. Returns
    /// `false` if no pending prepare with `gid` exists.
    pub fn abort_prepared(&self, gid: u64) -> bool {
        let mut pending = self.pending_prepares.lock();
        match pending.iter().position(|r| r.kind.gid() == Some(gid)) {
            Some(i) => {
                pending.remove(i);
                true
            }
            None => false,
        }
    }

    /// Pre-convert a batch for memtable apply inside a deferred closure
    /// (allocation happens once, outside the transaction — conflict
    /// re-execution clones only `Arc`s).
    fn mem_ops_of(&self, batch: &WriteBatch) -> Option<Arc<Vec<crate::memtable::MemOp>>> {
        self.memtable.as_ref().map(|_| {
            Arc::new(
                batch
                    .ops
                    .iter()
                    .map(|(k, v)| (Arc::from(k.as_str()), v.as_deref().map(Arc::from)))
                    .collect(),
            )
        })
    }

    /// The deduplicated, index-ordered `Defer` handles of the shards a
    /// batch touches — the lock set for its deferred durability ops.
    fn touched_shards(&self, batch: &WriteBatch) -> Vec<Defer<Shard>> {
        let mut touched: Vec<usize> = batch.ops.iter().map(|(k, _)| self.locate(k).0).collect();
        touched.sort_unstable();
        touched.dedup();
        touched.iter().map(|&i| self.shards[i].clone()).collect()
    }

    /// Insert or overwrite one key, returning a durability handle — see
    /// [`write_batch_async`](Self::write_batch_async).
    pub fn put_async(&self, key: &str, value: &[u8]) -> Option<DeferHandle<()>> {
        self.write_batch_async(&WriteBatch::new().put(key, value))
    }

    /// Delete one key, returning a durability handle — see
    /// [`write_batch_async`](Self::write_batch_async).
    pub fn delete_async(&self, key: &str) -> Option<DeferHandle<()>> {
        self.write_batch_async(&WriteBatch::new().delete(key))
    }

    /// Block until `handle` (from one of the `*_async` methods) resolves,
    /// i.e. until that batch's redo record is fsync-covered. Connection
    /// handlers use this as the ack gate: respond to the client only after
    /// `wait_durable` returns (see `ad-net` and PROTOCOL.md §6).
    pub fn wait_durable(&self, handle: &DeferHandle<()>) {
        handle.wait(&self.rt);
    }

    /// Block until every deferred durability operation issued so far has
    /// completed. A no-op for inline-executor stores (their writes are
    /// durable at ack); under [`SyncPolicy::Async`] this is the barrier a
    /// caller uses before e.g. reporting a checkpoint.
    pub fn sync(&self) {
        self.rt.drain_deferred();
    }

    /// Range scan: all `(key, value)` pairs with `key >= start`, in key
    /// order, at most `limit` of them — one consistent snapshot across
    /// every shard.
    pub fn scan_from(&self, start: &str, limit: usize) -> Vec<(Arc<str>, Arc<[u8]>)> {
        self.rt.atomically(|tx| {
            let mut all = Vec::new();
            for shard in &self.shards {
                shard.with(tx, |s, tx| {
                    for var in &s.buckets {
                        let bucket = tx.read(var)?;
                        for e in bucket.iter() {
                            if &*e.key >= start {
                                all.push((Arc::clone(&e.key), Arc::clone(&e.value)));
                            }
                        }
                    }
                    Ok(())
                })?;
            }
            all.sort_by(|a, b| a.0.cmp(&b.0));
            all.truncate(limit);
            Ok(std::mem::take(&mut all))
        })
    }

    /// Full contents as an ordered map — one consistent snapshot. Test and
    /// recovery-verification helper; O(store size).
    pub fn dump(&self) -> BTreeMap<String, Vec<u8>> {
        self.rt.atomically(|tx| {
            let mut out = BTreeMap::new();
            for shard in &self.shards {
                shard.with(tx, |s, tx| {
                    for var in &s.buckets {
                        let bucket = tx.read(var)?;
                        for e in bucket.iter() {
                            out.insert(e.key.to_string(), e.value.to_vec());
                        }
                    }
                    Ok(())
                })?;
            }
            Ok(std::mem::take(&mut out))
        })
    }

    /// Number of live keys (consistent snapshot).
    pub fn len(&self) -> usize {
        self.rt.atomically(|tx| {
            let mut n = 0;
            for shard in &self.shards {
                shard.with(tx, |s, tx| {
                    for var in &s.buckets {
                        n += tx.read(var)?.len();
                    }
                    Ok(())
                })?;
            }
            Ok(std::mem::replace(&mut n, 0))
        })
    }

    /// True when the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The store's STM runtime — for `set_tracing`, `snapshot_stats`,
    /// `take_trace`.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }

    /// Shard count (the deferred-lock granularity).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// WAL counters, if durable.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(|w| w.stats())
    }

    /// Take a checkpoint now: atomically publish a snapshot of the
    /// committed-durable state at a quiescent WAL cut and drop the WAL
    /// segments it covers. Returns `CkptReport { performed: false, .. }`
    /// when nothing new is durable since the last checkpoint, and
    /// `ErrorKind::Unsupported` when the store has no snapshot tier
    /// (volatile, or opened via [`KvStore::open_on_medium`]).
    ///
    /// Serving continues throughout: writers keep appending to the
    /// post-rotation segment and readers are never blocked (the snapshot
    /// is serialized from an `Arc`-shared frozen copy of the memtable).
    pub fn checkpoint(&self) -> io::Result<CkptReport> {
        match &self.ckpt {
            Some(ck) => ck.run(&self.rt),
            None => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "store has no checkpoint tier (volatile or single-stream medium)",
            )),
        }
    }

    /// Checkpoint counters and the checkpoint-duration histogram, if
    /// this store has a checkpoint tier.
    pub fn ckpt_stats(&self) -> Option<CkptStats> {
        self.ckpt.as_ref().map(|c| c.stats())
    }

    /// Point lookup against the durable tier only — the memtable of
    /// fsynced writes — skipping the transactional read path and its
    /// shard subscription entirely.
    ///
    /// **Weaker than opacity**: this read does not serialize with
    /// in-flight transactions, so it can miss a write that committed
    /// (acked) a moment ago on another thread, and a sequence of calls
    /// is not a consistent snapshot. What it can **never** do is return
    /// volatile bytes: the memtable is populated strictly after the redo
    /// record's covering fsync. Volatile stores fall back to
    /// [`KvStore::get`].
    pub fn read_uncommitted(&self, key: &str) -> Option<Arc<[u8]>> {
        match &self.memtable {
            Some(mt) => mt.get(key),
            None => self.get(key),
        }
    }

    /// Range scan against the durable tier only — same contract (and
    /// same caveats) as [`KvStore::read_uncommitted`]. Volatile stores
    /// fall back to [`KvStore::scan_from`].
    pub fn scan_uncommitted(&self, start: &str, limit: usize) -> Vec<(Arc<str>, Arc<[u8]>)> {
        match &self.memtable {
            Some(mt) => mt.scan_from(start, limit),
            None => self.scan_from(start, limit),
        }
    }

    /// The WAL's sync policy, or `None` for a volatile store.
    pub fn sync_policy(&self) -> Option<SyncPolicy> {
        self.wal.as_ref().map(|w| w.sync_policy())
    }

    /// One JSON object with everything a monitoring endpoint wants:
    /// `{"shards":..,"keys":..,"wal":{..}|null,"ckpt":{..}|null,"stm":{..}}`
    /// — the WAL counters ([`WalStats::to_json`]), the checkpoint
    /// counters ([`CkptStats::to_json`], `null` when the store has no
    /// checkpoint tier), and the runtime's full stats report
    /// ([`ad_stm::StatsReport::to_json`]). This is the payload of the
    /// `ad-net` STATS response (PROTOCOL.md §5.6), kept here so library
    /// embedders and the wire protocol serve identical schemas.
    pub fn stats_json(&self) -> String {
        format!(
            "{{\"shards\":{},\"keys\":{},\"wal\":{},\"ckpt\":{},\"stm\":{}}}",
            self.shards.len(),
            self.len(),
            self.wal_stats()
                .map_or_else(|| "null".to_string(), |w| w.to_json()),
            self.ckpt_stats()
                .map_or_else(|| "null".to_string(), |c| c.to_json()),
            self.rt.snapshot_stats().to_json(),
        )
    }

    /// What recovery found on open, if this store was opened from a log.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::wal::MemMedium;

    #[test]
    fn put_get_delete_roundtrip() {
        let store = KvStore::open(KvConfig::volatile()).unwrap();
        assert_eq!(store.get("k"), None);
        store.put("k", b"v1");
        assert_eq!(store.get("k").as_deref(), Some(&b"v1"[..]));
        store.put("k", b"v2");
        assert_eq!(store.get("k").as_deref(), Some(&b"v2"[..]));
        store.delete("k");
        assert_eq!(store.get("k"), None);
        assert!(store.is_empty());
    }

    #[test]
    fn batch_is_atomic_and_scan_is_ordered() {
        let store = KvStore::open(KvConfig::volatile()).unwrap();
        store.write_batch(
            &WriteBatch::new()
                .put("c", b"3")
                .put("a", b"1")
                .put("b", b"2")
                .delete("a"),
        );
        assert_eq!(store.len(), 2);
        let scanned = store.scan_from("", 10);
        let keys: Vec<&str> = scanned.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(keys, vec!["b", "c"]);
        assert_eq!(store.scan_from("c", 10).len(), 1);
        assert_eq!(store.scan_from("b", 1).len(), 1);
    }

    #[test]
    fn later_ops_in_a_batch_win() {
        let store = KvStore::open(KvConfig::volatile()).unwrap();
        store.write_batch(&WriteBatch::new().put("k", b"first").put("k", b"second"));
        assert_eq!(store.get("k").as_deref(), Some(&b"second"[..]));
    }

    #[test]
    fn durable_put_is_synced_before_ack() {
        let mem = MemMedium::new();
        let (store, report) = KvStore::open_on_medium(
            &KvConfig::default(),
            SyncPolicy::GroupCommit,
            Box::new(mem.clone()),
            &[],
        );
        assert_eq!(report.records, 0);
        store.put("k", b"v");
        // The ack contract: by the time put() returned, the record is in
        // the *synced* prefix, not merely written.
        assert!(!mem.synced().is_empty());
        assert_eq!(mem.synced().len(), mem.written().len());
        let stats = store.wal_stats().unwrap();
        assert_eq!(stats.records, 1);
    }

    #[test]
    fn reopen_recovers_committed_state() {
        let mem = MemMedium::new();
        let cfg = KvConfig::default();
        let (store, _) =
            KvStore::open_on_medium(&cfg, SyncPolicy::GroupCommit, Box::new(mem.clone()), &[]);
        store.put("a", b"1");
        store.write_batch(&WriteBatch::new().put("b", b"2").put("c", b"3"));
        store.delete("a");
        let before = store.dump();
        drop(store);

        let image = mem.synced();
        let (reopened, report) = KvStore::open_on_medium(
            &cfg,
            SyncPolicy::GroupCommit,
            Box::new(MemMedium::new()),
            &image,
        );
        assert_eq!(report.records, 3);
        assert!(!report.torn());
        assert_eq!(reopened.dump(), before);
        // And the store is writable with continuing sequence numbers.
        reopened.put("d", b"4");
        assert_eq!(reopened.len(), 3);
    }

    #[test]
    fn file_backed_open_recovers_across_process_style_reopen() {
        let dir = std::env::temp_dir().join(format!("ad-kv-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.wal");
        let _ = std::fs::remove_file(&path);

        let cfg = KvConfig::durable(&path, SyncPolicy::GroupCommit);
        let store = KvStore::open(cfg.clone()).unwrap();
        store.put("x", b"1");
        store.put("y", b"2");
        let before = store.dump();
        drop(store);

        let reopened = KvStore::open(cfg).unwrap();
        assert_eq!(reopened.dump(), before);
        assert_eq!(reopened.recovery_report().unwrap().records, 2);
        drop(reopened);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_backed_checkpoint_after_crash_between_rotate_and_publish() {
        let dir =
            std::env::temp_dir().join(format!("ad-kv-rotate-reuse-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.wal");

        let cfg = KvConfig::durable(&path, SyncPolicy::PerCommit);
        let store = KvStore::open(cfg.clone()).unwrap();
        store.put("a", b"1");
        store.put("b", b"2");
        drop(store);
        // Simulate a crash after Wal::rotate but before the snapshot
        // publish: the empty post-cut segment exists, no snapshot does.
        std::fs::File::create(segment_path(&path, 3)).unwrap();

        // Recovery resumes appends on that segment; the next checkpoint
        // rotates at the same cut and must reuse it — not rotate into it
        // and delete the file the store is appending to.
        let store = KvStore::open(cfg.clone()).unwrap();
        let report = store.checkpoint().unwrap();
        assert!(report.performed);
        assert_eq!(report.cut, 2);
        store.put("post", b"3");
        drop(store);

        let reopened = KvStore::open(cfg).unwrap();
        assert_eq!(reopened.get("a").as_deref(), Some(&b"1"[..]));
        assert_eq!(reopened.get("b").as_deref(), Some(&b"2"[..]));
        assert_eq!(
            reopened.get("post").as_deref(),
            Some(&b"3"[..]),
            "fsync-acked write on the reused segment survived the reopen"
        );
        let r = reopened.recovery_report().unwrap();
        assert_eq!(r.snapshot_cut, 2);
        assert_eq!(r.replayed, 1, "only the post-checkpoint suffix replays");
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_many_is_a_consistent_snapshot_shape() {
        let store = KvStore::open(KvConfig::volatile()).unwrap();
        store.write_batch(&WriteBatch::new().put("a", b"1").put("z", b"26"));
        let got = store.get_many(&["a", "missing", "z"]);
        assert_eq!(got[0].as_deref(), Some(&b"1"[..]));
        assert_eq!(got[1], None);
        assert_eq!(got[2].as_deref(), Some(&b"26"[..]));
    }

    #[test]
    fn async_handles_resolve_and_stats_json_is_balanced() {
        let mem = MemMedium::new();
        let (store, _) = KvStore::open_on_medium(
            &KvConfig::default(),
            SyncPolicy::GroupCommit,
            Box::new(mem.clone()),
            &[],
        );
        let h = store
            .put_async("k", b"v")
            .expect("durable put yields a handle");
        store.wait_durable(&h);
        assert!(!mem.synced().is_empty());
        let h = store
            .delete_async("k")
            .expect("durable delete yields a handle");
        store.wait_durable(&h);
        assert!(store.is_empty());
        assert_eq!(store.sync_policy(), Some(SyncPolicy::GroupCommit));

        let j = store.stats_json();
        for key in [
            "\"shards\":",
            "\"keys\":0",
            "\"wal\":{",
            "\"stm\":{",
            "\"records\":2",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());

        let volatile = KvStore::open(KvConfig::volatile()).unwrap();
        assert_eq!(volatile.sync_policy(), None);
        assert!(volatile.put_async("k", b"v").is_none());
        assert!(volatile.stats_json().contains("\"wal\":null"));
    }

    /// A medium whose fsync blocks while a gate flag is held: the test
    /// can freeze a write inside its committed-but-not-yet-durable
    /// window and probe what each read path observes.
    struct GatedMedium {
        inner: MemMedium,
        gate: Arc<(Mutex<bool>, Condvar)>,
    }

    impl WalMedium for GatedMedium {
        fn append(&mut self, data: &[u8]) {
            self.inner.append(data);
        }
        fn sync(&mut self) {
            let (flag, cv) = &*self.gate;
            let mut held = flag.lock();
            while *held {
                cv.wait(&mut held);
            }
            drop(held);
            self.inner.sync();
        }
    }

    #[test]
    fn read_uncommitted_never_observes_volatile_bytes() {
        let gate = Arc::new((Mutex::new(true), Condvar::new()));
        let mem = MemMedium::new();
        let medium = GatedMedium {
            inner: mem.clone(),
            gate: Arc::clone(&gate),
        };
        // Async: put_async returns at commit; the append + gated fsync
        // run on a pool worker while the shard lock stays held.
        let (store, _) = KvStore::open_on_medium(
            &KvConfig::default(),
            SyncPolicy::Async,
            Box::new(medium),
            &[],
        );
        let h = store.put_async("k", b"v").expect("durable handle");
        for _ in 0..2000 {
            if !mem.written().is_empty() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(!mem.written().is_empty(), "append reached the medium");
        assert!(mem.synced().is_empty(), "fsync is gated");
        assert!(!h.is_done());
        // The committed write exists in the TVars (shard-locked) and in
        // the kernel-buffered WAL — but the durable tier must not show
        // it: the memtable applies strictly after the covering fsync.
        assert_eq!(
            store.read_uncommitted("k"),
            None,
            "durable-tier read observed volatile bytes"
        );
        assert!(store.scan_uncommitted("", 10).is_empty());

        *gate.0.lock() = false;
        gate.1.notify_all();
        store.wait_durable(&h);
        assert_eq!(mem.synced().len(), mem.written().len());
        assert_eq!(store.read_uncommitted("k").as_deref(), Some(&b"v"[..]));
        let scanned = store.scan_uncommitted("", 10);
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0].0.as_ref(), "k");

        // Volatile stores have no durable tier: both fall back to the
        // transactional paths.
        let volatile = KvStore::open(KvConfig::volatile()).unwrap();
        volatile.put("a", b"1");
        assert_eq!(volatile.read_uncommitted("a").as_deref(), Some(&b"1"[..]));
        assert_eq!(volatile.scan_uncommitted("", 10).len(), 1);
    }

    #[test]
    fn empty_batch_is_a_noop_and_logs_nothing() {
        let mem = MemMedium::new();
        let (store, _) = KvStore::open_on_medium(
            &KvConfig::default(),
            SyncPolicy::PerCommit,
            Box::new(mem.clone()),
            &[],
        );
        store.write_batch(&WriteBatch::new());
        assert!(mem.written().is_empty());
        assert_eq!(store.wal_stats().unwrap().records, 0);
    }
}
