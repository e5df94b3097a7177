//! The three workloads. Each sets up its system several times (timing
//! each set-up), drives it closed-loop from two load threads through the
//! public entry points, then reopens its stores from their durable bytes
//! and checks what it finds.
//!
//! The WAL goes to one of ad-kv's in-memory media, which track the
//! synced prefix of what was written: a [`MemDisk`] (WAL segments plus
//! snapshot files) where the workload checkpoints, a [`MemMedium`] (one
//! log, no journal of past operations, so memory grows only by the log's
//! bytes) where it does not. The real WAL, group-commit, 2PC and
//! checkpoint code runs unchanged; the fsync is the medium marking its
//! synced prefix. The reopen after the run starts from the synced bytes
//! only, so "acked ⇒ durable" is checked against exactly what a crash
//! would have left.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ad_kv::{CkptPolicy, KvConfig, KvStore, MemDisk, MemMedium, SyncPolicy, WriteBatch};
use ad_net::{Client, Server, ServerConfig};
use ad_shard::ShardRouter;
use ad_support::prng::Rng;

use crate::check::{
    check_final, decode, encode, key_name, thread_seed, Issued, WriteLog, Zipf, PRELOAD,
};
use crate::measure::{median, peak_rss_mb, run_plan, Class, Counters, Merged, Plan, Recorder};

/// Load threads (client connections for `wire_write`).
pub const THREADS: usize = 2;
/// An untraced run sets up at least `SETUP_MIN` times, and more (up to
/// `SETUP_MAX`) until set-up has taken `SETUP_BUDGET`; `setup_s` is the
/// median. Fast set-ups get more repetitions, which steadies their median.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Untimed load before the first measured phase.
const WARM: Duration = Duration::from_millis(1500);
/// Keys per preload batch.
const PRELOAD_CHUNK: usize = 1000;
/// Every this-many-th write is a multi-key batch (the rest are
/// single-key), as in `ad-kv-loadgen`.
const BATCH_EVERY: u64 = 7;
/// Of the single-key writes on `wire_write`, every this-many-th is a
/// delete.
const DELETE_EVERY: u64 = 13;

/// What one run asks for.
pub struct RunCfg {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds: one untraced phase, or for a traced run an
    /// untraced and a traced phase of half as long each.
    pub seconds: u64,
    /// Split the measured time into an untraced and a traced phase.
    pub trace: bool,
    /// Where the traced run's span log goes.
    pub span_path: std::path::PathBuf,
}

/// Which layers a workload drives.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Wire,
    Local,
    Shard,
}

/// Everything a run measured.
pub struct Outcome {
    pub kind: Kind,
    /// Median set-up time, s.
    pub setup_s: f64,
    pub merged: Merged,
    /// Counter deltas, one per measured phase.
    pub deltas: Vec<Counters>,
    /// Peak RSS once the first set-up is done (the loaded store), MB.
    pub peak_rss_mb: f64,
    /// Time to reopen the stores from their durable bytes, ms.
    pub reopen_ms: f64,
    /// Checks made after the run, and those that failed.
    pub checks: u64,
    pub check_failed: u64,
    pub check_errors: Vec<String>,
}

/// Set up repeatedly (once for a traced run), keeping the last; returns
/// it with the median set-up time in seconds and the peak RSS after the
/// first set-up (later ones reuse freed memory in ways that vary from run
/// to run).
fn set_up<E>(cfg: &RunCfg, make: impl Fn() -> E) -> (E, f64, f64) {
    let mut times = Vec::new();
    let mut env = None;
    let mut spent = Duration::ZERO;
    let mut rss = 0.0;
    while times.is_empty()
        || (!cfg.trace
            && times.len() < SETUP_MAX
            && (times.len() < SETUP_MIN || spent < SETUP_BUDGET))
    {
        drop(env.take());
        let t = Instant::now();
        env = Some(make());
        let took = t.elapsed();
        if times.is_empty() {
            rss = peak_rss_mb();
        }
        spent += took;
        times.push(took.as_secs_f64());
    }
    (env.expect("at least one set-up"), median(times), rss)
}

/// Preload every key with its preload value, in batches.
fn preload(keys: &[String], len: usize, write: impl Fn(&WriteBatch)) {
    for (c, chunk) in keys.chunks(PRELOAD_CHUNK).enumerate() {
        let batch = chunk
            .iter()
            .enumerate()
            .fold(WriteBatch::new(), |b, (i, k)| {
                b.put(k.as_str(), encode(len, PRELOAD, 0, c * PRELOAD_CHUNK + i))
            });
        write(&batch);
    }
}

/// Run the measured phases: `load(plan, thread)` is each load thread's
/// loop; `counters` snapshots the layers at each boundary; tracing is
/// switched on for the last phase of a traced run.
fn measure<T: Send>(
    cfg: &RunCfg,
    counters: impl Fn() -> Counters,
    set_tracing: impl Fn(bool),
    load: impl for<'p> Fn(&'p Plan, usize) -> (Recorder<'p>, T) + Sync,
) -> (Merged, Vec<Counters>, Vec<T>) {
    let phases = if cfg.trace { 2 } else { 1 };
    let plan = Plan::new(
        WARM,
        Duration::from_secs(cfg.seconds) / phases as u32,
        phases,
        cfg.trace.then_some(1),
    );
    let mut snaps = Vec::with_capacity(phases + 1);
    let results = run_plan(
        &plan,
        THREADS,
        |t| load(&plan, t),
        |b| {
            snaps.push(counters());
            if cfg.trace && b == 1 {
                set_tracing(true);
            }
        },
    );
    set_tracing(false);
    let deltas = snaps.windows(2).map(|w| w[1].since(&w[0])).collect();
    let (recs, extra): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    let merged = Merged::new(&plan, recs);
    if cfg.trace {
        if let Err(e) = merged.write_spans(&cfg.span_path) {
            eprintln!("writing span log {}: {e}", cfg.span_path.display());
        }
    }
    (merged, deltas, extra)
}

/// Draw a key distinct from every key in `taken`.
fn distinct(rng: &mut Rng, taken: &[usize], mut draw: impl FnMut(&mut Rng) -> usize) -> usize {
    loop {
        let k = draw(rng);
        if !taken.contains(&k) {
            return k;
        }
    }
}

/// Record a failed check on the outcome side.
struct Checks {
    made: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Checks {
    fn new() -> Checks {
        Checks {
            made: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn check(&mut self, r: Result<(), String>) {
        self.made += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// Check every key of a reopened store against the writers' logs.
fn check_reopened(
    checks: &mut Checks,
    keys: &[String],
    len: usize,
    logs: &[WriteLog],
    get: impl Fn(&str) -> Option<Arc<[u8]>>,
) {
    for (k, name) in keys.iter().enumerate() {
        let r = match get(name) {
            None => check_final(logs, k, None),
            Some(v) => decode(&v, len, k).and_then(|tag| check_final(logs, k, Some(tag))),
        };
        checks.check(r);
    }
}

/// Open a group-commit store logging to `medium`, after recovering from
/// the log bytes `existing`.
fn open_on(medium: &MemMedium, existing: &[u8]) -> Arc<KvStore> {
    let log = Box::new(medium.clone());
    let cfg = KvConfig::default();
    Arc::new(KvStore::open_on_medium(&cfg, SyncPolicy::GroupCommit, log, existing).0)
}

/// Reopen what a crash now would leave of `medium`: its synced bytes.
/// The caller's handle is the last one, so the log is freed before the
/// reopened store replays it.
fn reopen(medium: MemMedium) -> Arc<KvStore> {
    let synced = medium.synced();
    drop(medium);
    open_on(&MemMedium::new(), &synced)
}

/// Run `f`, returning its result and how long it took in ms.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

// ---------------------------------------------------------------- wire

const WIRE_KEYS: usize = 10_000;
const WIRE_VALUE: usize = 100;
/// Auto checkpoint after this many WAL bytes: several per measured
/// phase at the rate this workload writes.
const WIRE_CKPT_BYTES: u64 = 8 << 20;

struct WireEnv {
    disk: MemDisk,
    store: Arc<KvStore>,
    server: Server,
}

/// `wire_write`: two TCP connections against an in-process server with
/// two handler workers; zipf keys, half reads, half durable writes.
pub fn wire_write(cfg: &RunCfg) -> Outcome {
    let keys: Vec<String> = (0..WIRE_KEYS).map(key_name).collect();
    let zipf = Zipf::new(WIRE_KEYS, 0.99);
    let kv_cfg = KvConfig::default().with_ckpt(CkptPolicy::Auto {
        wal_bytes: WIRE_CKPT_BYTES,
        wal_records: u64::MAX,
    });
    let (env, setup_s, rss) = set_up(cfg, || {
        let disk = MemDisk::new();
        let store =
            Arc::new(KvStore::open_on_disk(&kv_cfg, SyncPolicy::GroupCommit, disk.clone()).0);
        preload(&keys, WIRE_VALUE, |b| store.write_batch(b));
        let server = Server::start(
            Arc::clone(&store),
            "127.0.0.1:0",
            ServerConfig {
                workers: THREADS,
                ..ServerConfig::default()
            },
        )
        .expect("starting the server on loopback");
        WireEnv {
            disk,
            store,
            server,
        }
    });
    let addr = env.server.local_addr();
    let issued = Issued::new(THREADS);

    let (merged, deltas, logs) = measure(
        cfg,
        || {
            let mut c = Counters::default();
            c.add_store(&env.store);
            c.net = env.server.stats();
            c
        },
        |on| env.store.runtime().set_tracing(on),
        |plan, t| {
            let writer = (t + 1) as u8;
            let mut rec = Recorder::new(plan, t);
            let mut log = WriteLog::new(writer, WIRE_KEYS);
            let mut client = match Client::connect(addr) {
                Ok(c) => c,
                Err(e) => {
                    rec.attempted += 1;
                    rec.fail(|| format!("connect: {e}"));
                    return (rec, log);
                }
            };
            let mut rng = Rng::seed_from_u64(thread_seed(cfg.seed, t));
            let (mut seq, mut writes) = (0u64, 0u64);
            while !plan.stopped() {
                rec.attempted += 1;
                let begin = Instant::now();
                let k = zipf.sample(&mut rng);
                if !rng.random_bool(0.5) {
                    let t0 = Instant::now();
                    let got = client.get(&keys[k]);
                    let t1 = Instant::now();
                    match got {
                        Ok(None) => {}
                        Ok(Some(v)) => {
                            if let Err(e) =
                                decode(&v, WIRE_VALUE, k).and_then(|tag| issued.check(tag))
                            {
                                rec.fail(|| e);
                            }
                        }
                        Err(e) => {
                            rec.fail(|| format!("GET: {e}"));
                            break;
                        }
                    }
                    rec.finish(Class::Read, "Client::get", begin, (t0, t1), 0);
                    continue;
                }
                writes += 1;
                seq += 1;
                issued.issue(writer, seq);
                if writes % BATCH_EVERY == 0 {
                    let k2 = distinct(&mut rng, &[k], |r| zipf.sample(r));
                    let k3 = distinct(&mut rng, &[k, k2], |r| zipf.sample(r));
                    let batch = WriteBatch::new()
                        .put(keys[k].as_str(), encode(WIRE_VALUE, writer, seq, k))
                        .put(keys[k2].as_str(), encode(WIRE_VALUE, writer, seq, k2))
                        .delete(keys[k3].as_str());
                    let bytes =
                        (keys[k].len() + keys[k2].len() + keys[k3].len() + 2 * WIRE_VALUE) as u64;
                    let t0 = Instant::now();
                    let r = client.batch(&batch);
                    let t1 = Instant::now();
                    match r {
                        Ok(3) => {
                            log.acked(k, seq, false, t0, t1);
                            log.acked(k2, seq, false, t0, t1);
                            log.acked(k3, seq, true, t0, t1);
                        }
                        Ok(n) => rec.fail(|| format!("BATCH applied {n} of 3 ops")),
                        Err(e) => {
                            rec.fail(|| format!("BATCH: {e}"));
                            break;
                        }
                    }
                    rec.finish(Class::Batch, "Client::batch", begin, (t0, t1), bytes);
                } else {
                    let delete = writes % DELETE_EVERY == 0;
                    let value = (!delete).then(|| encode(WIRE_VALUE, writer, seq, k));
                    let t0 = Instant::now();
                    let r = match &value {
                        Some(v) => client.put(&keys[k], v),
                        None => client.del(&keys[k]),
                    };
                    let t1 = Instant::now();
                    if let Err(e) = r {
                        rec.fail(|| format!("PUT/DEL: {e}"));
                        break;
                    }
                    log.acked(k, seq, delete, t0, t1);
                    let bytes = (keys[k].len() + value.map_or(0, |v| v.len())) as u64;
                    let api = if delete { "Client::del" } else { "Client::put" };
                    rec.finish(Class::Write, api, begin, (t0, t1), bytes);
                }
            }
            (rec, log)
        },
    );

    let WireEnv {
        disk,
        store,
        server,
    } = env;
    drop(server);
    drop(store);
    let image = disk.crash_image(disk.journal_len(), 0, true);
    drop(disk);
    let (reopened, reopen_ms) =
        timed(|| KvStore::open_on_disk(&KvConfig::default(), SyncPolicy::GroupCommit, image).0);
    let mut checks = Checks::new();
    check_reopened(&mut checks, &keys, WIRE_VALUE, &logs, |k| reopened.get(k));
    Outcome {
        kind: Kind::Wire,
        setup_s,
        merged,
        deltas,
        peak_rss_mb: rss,
        reopen_ms,
        checks: checks.made,
        check_failed: checks.failed,
        check_errors: checks.errors,
    }
}

// ---------------------------------------------------------------- local

const LOCAL_KEYS: usize = 200_000;
const LOCAL_VALUE: usize = 100;
const LOCAL_READ_KEYS: usize = 8;
const LOCAL_WRITE_SHARE: f64 = 0.05;

struct LocalEnv {
    wal: MemMedium,
    store: Arc<KvStore>,
}

/// `local_read`: two threads calling a durable `KvStore` directly;
/// uniform keys over a working set ten times the L2, 95% `get_many` of
/// eight keys, 5% durable writes, no checkpoints.
pub fn local_read(cfg: &RunCfg) -> Outcome {
    let keys: Vec<String> = (0..LOCAL_KEYS).map(key_name).collect();
    let (env, setup_s, rss) = set_up(cfg, || {
        let wal = MemMedium::new();
        let store = open_on(&wal, &[]);
        preload(&keys, LOCAL_VALUE, |b| store.write_batch(b));
        LocalEnv { wal, store }
    });
    let store = &env.store;
    let issued = Issued::new(THREADS);

    let (merged, deltas, logs) = measure(
        cfg,
        || {
            let mut c = Counters::default();
            c.add_store(store);
            c
        },
        |on| store.runtime().set_tracing(on),
        |plan, t| {
            let writer = (t + 1) as u8;
            let mut rec = Recorder::new(plan, t);
            let mut log = WriteLog::new(writer, LOCAL_KEYS);
            let mut rng = Rng::seed_from_u64(thread_seed(cfg.seed, t));
            let (mut seq, mut writes) = (0u64, 0u64);
            let mut picks = [0usize; LOCAL_READ_KEYS];
            while !plan.stopped() {
                rec.attempted += 1;
                let begin = Instant::now();
                if !rng.random_bool(LOCAL_WRITE_SHARE) {
                    for p in picks.iter_mut() {
                        *p = rng.random_range(0..LOCAL_KEYS);
                    }
                    let names: Vec<&str> = picks.iter().map(|&k| keys[k].as_str()).collect();
                    let t0 = Instant::now();
                    let got = store.get_many(&names);
                    let t1 = Instant::now();
                    for (&k, v) in picks.iter().zip(&got) {
                        let r = match v {
                            None => Err(format!("key {k}: missing from get_many")),
                            Some(v) => decode(v, LOCAL_VALUE, k).and_then(|tag| issued.check(tag)),
                        };
                        if let Err(e) = r {
                            rec.fail(|| e);
                        }
                    }
                    rec.finish(Class::Read, "KvStore::get_many", begin, (t0, t1), 0);
                    continue;
                }
                writes += 1;
                seq += 1;
                issued.issue(writer, seq);
                let k = rng.random_range(0..LOCAL_KEYS);
                if writes % BATCH_EVERY == 0 {
                    let k2 = distinct(&mut rng, &[k], |r| r.random_range(0..LOCAL_KEYS));
                    let k3 = distinct(&mut rng, &[k, k2], |r| r.random_range(0..LOCAL_KEYS));
                    let batch = [k, k2, k3].iter().fold(WriteBatch::new(), |b, &x| {
                        b.put(keys[x].as_str(), encode(LOCAL_VALUE, writer, seq, x))
                    });
                    let bytes = [k, k2, k3]
                        .iter()
                        .map(|&x| (keys[x].len() + LOCAL_VALUE) as u64)
                        .sum();
                    let t0 = Instant::now();
                    store.write_batch(&batch);
                    let t1 = Instant::now();
                    for x in [k, k2, k3] {
                        log.acked(x, seq, false, t0, t1);
                    }
                    rec.finish(Class::Batch, "KvStore::write_batch", begin, (t0, t1), bytes);
                } else {
                    let value = encode(LOCAL_VALUE, writer, seq, k);
                    let t0 = Instant::now();
                    store.put(&keys[k], &value);
                    let t1 = Instant::now();
                    log.acked(k, seq, false, t0, t1);
                    let bytes = (keys[k].len() + value.len()) as u64;
                    rec.finish(Class::Write, "KvStore::put", begin, (t0, t1), bytes);
                }
            }
            (rec, log)
        },
    );

    let LocalEnv { wal, store } = env;
    drop(store);
    let (reopened, reopen_ms) = timed(|| reopen(wal));
    let mut checks = Checks::new();
    check_reopened(&mut checks, &keys, LOCAL_VALUE, &logs, |k| reopened.get(k));
    Outcome {
        kind: Kind::Local,
        setup_s,
        merged,
        deltas,
        peak_rss_mb: rss,
        reopen_ms,
        checks: checks.made,
        check_failed: checks.failed,
        check_errors: checks.errors,
    }
}

// ---------------------------------------------------------------- shard

const SHARD_KEYS: usize = 10_000;
const SHARD_VALUE: usize = 64;
const SHARDS: usize = 2;
/// Key groups of four (two keys on each shard), written only by
/// cross-shard batches.
const GROUPS: usize = 1_000;

struct ShardEnv {
    wals: Vec<MemMedium>,
    router: ShardRouter,
}

/// Split the key space into groups of four keys that span both shards
/// (the first two on shard 0, the last two on shard 1) and the single
/// keys left over.
fn shard_groups(router: &ShardRouter, keys: &[String]) -> (Vec<[usize; 4]>, Vec<usize>) {
    let mut on: [Vec<usize>; SHARDS] = Default::default();
    for (i, k) in keys.iter().enumerate() {
        on[router.shard_of(k)].push(i);
    }
    assert!(
        on.iter().all(|s| s.len() >= 2 * GROUPS),
        "too few keys on a shard for {GROUPS} groups"
    );
    let groups: Vec<[usize; 4]> = (0..GROUPS)
        .map(|g| {
            [
                on[0][2 * g],
                on[0][2 * g + 1],
                on[1][2 * g],
                on[1][2 * g + 1],
            ]
        })
        .collect();
    let singles = on
        .iter()
        .flat_map(|s| s[2 * GROUPS..].iter().copied())
        .collect();
    (groups, singles)
}

/// `shard_txn`: two threads on a router over two durable shards; half
/// `get_many` of four keys, 40% single-key puts, 10% four-key batches
/// that span both shards.
pub fn shard_txn(cfg: &RunCfg) -> Outcome {
    let keys: Vec<String> = (0..SHARD_KEYS).map(key_name).collect();
    let (env, setup_s, rss) = set_up(cfg, || {
        let wals: Vec<MemMedium> = (0..SHARDS).map(|_| MemMedium::new()).collect();
        let router = ShardRouter::from_stores(wals.iter().map(|w| open_on(w, &[])).collect());
        preload(&keys, SHARD_VALUE, |b| router.write_batch(b));
        ShardEnv { wals, router }
    });
    let router = &env.router;
    let (groups, singles) = shard_groups(router, &keys);
    let issued = Issued::new(THREADS);

    let (merged, deltas, results) = measure(
        cfg,
        || {
            let mut c = Counters::default();
            for s in 0..router.shard_count() {
                c.add_store(router.store(s));
            }
            c
        },
        |on| router.set_tracing(on),
        |plan, t| {
            let writer = (t + 1) as u8;
            let mut rec = Recorder::new(plan, t);
            let mut log = WriteLog::new(writer, SHARD_KEYS);
            let mut rng = Rng::seed_from_u64(thread_seed(cfg.seed, t));
            let mut seq = 0u64;
            while !plan.stopped() {
                rec.attempted += 1;
                let begin = Instant::now();
                let roll = rng.random_range(0..100);
                if roll < 50 {
                    let group_read = roll < 25;
                    let picks: Vec<usize> = if group_read {
                        groups[rng.random_range(0..GROUPS)].to_vec()
                    } else {
                        (0..4)
                            .map(|_| singles[rng.random_range(0..singles.len())])
                            .collect()
                    };
                    let names: Vec<&str> = picks.iter().map(|&k| keys[k].as_str()).collect();
                    let t0 = Instant::now();
                    let got = router.get_many(&names);
                    let t1 = Instant::now();
                    let tags: Result<Vec<(u8, u64)>, String> = picks
                        .iter()
                        .zip(&got)
                        .map(|(&k, v)| match v {
                            None => Err(format!("key {k}: missing from get_many")),
                            Some(v) => decode(v, SHARD_VALUE, k)
                                .and_then(|tag| issued.check(tag).map(|()| tag)),
                        })
                        .collect();
                    // A group's keys on one shard must show one batch. The
                    // two shards are read one after the other, so each
                    // may show a different (whole) batch.
                    match tags {
                        Err(e) => rec.fail(|| e),
                        Ok(tags) if group_read && (tags[0] != tags[1] || tags[2] != tags[3]) => rec
                            .fail(|| format!("group {picks:?} read as a partial batch: {tags:?}")),
                        Ok(_) => {}
                    }
                    rec.finish(Class::Read, "ShardRouter::get_many", begin, (t0, t1), 0);
                    continue;
                }
                seq += 1;
                issued.issue(writer, seq);
                if roll < 90 {
                    let k = singles[rng.random_range(0..singles.len())];
                    let value = encode(SHARD_VALUE, writer, seq, k);
                    let t0 = Instant::now();
                    router.put(&keys[k], &value);
                    let t1 = Instant::now();
                    log.acked(k, seq, false, t0, t1);
                    let bytes = (keys[k].len() + value.len()) as u64;
                    rec.finish(Class::Write, "ShardRouter::put", begin, (t0, t1), bytes);
                } else {
                    let group = groups[rng.random_range(0..GROUPS)];
                    let batch = group.iter().fold(WriteBatch::new(), |b, &x| {
                        b.put(keys[x].as_str(), encode(SHARD_VALUE, writer, seq, x))
                    });
                    let bytes = group
                        .iter()
                        .map(|&x| (keys[x].len() + SHARD_VALUE) as u64)
                        .sum();
                    let t0 = Instant::now();
                    router.write_batch(&batch);
                    let t1 = Instant::now();
                    for x in group {
                        log.acked(x, seq, false, t0, t1);
                    }
                    rec.finish(
                        Class::Batch,
                        "ShardRouter::write_batch",
                        begin,
                        (t0, t1),
                        bytes,
                    );
                }
            }
            (rec, log)
        },
    );

    let ShardEnv { wals, router } = env;
    router.quiesce();
    drop(router);
    let (router, reopen_ms) =
        timed(|| ShardRouter::from_stores(wals.into_iter().map(reopen).collect()));
    let mut checks = Checks::new();
    for s in 0..router.shard_count() {
        let pending = router.store(s).pending_prepared_gids();
        checks.check(if pending.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "shard {s}: prepares still pending after reopen: {pending:?}"
            ))
        });
    }
    check_reopened(&mut checks, &keys, SHARD_VALUE, &results, |k| router.get(k));
    for group in &groups {
        let tags: Vec<Option<(u8, u64)>> = group
            .iter()
            .map(|&k| {
                router
                    .get(&keys[k])
                    .and_then(|v| decode(&v, SHARD_VALUE, k).ok())
            })
            .collect();
        checks.check(if tags.iter().all(|t| t.is_some() && *t == tags[0]) {
            Ok(())
        } else {
            Err(format!(
                "group {group:?} reopened as a partial batch: {tags:?}"
            ))
        });
    }
    Outcome {
        kind: Kind::Shard,
        setup_s,
        merged,
        deltas,
        peak_rss_mb: rss,
        reopen_ms,
        checks: checks.made,
        check_failed: checks.failed,
        check_errors: checks.errors,
    }
}
