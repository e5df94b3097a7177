//! Run phases, per-thread latency records, windowed quantiles, counter
//! deltas and spans.
//!
//! A run is one closed-loop load that crosses fixed time boundaries:
//! warm-up, then one measured phase (or, for a traced run, an untraced
//! phase followed by a traced one). Load threads never stop between
//! phases; each completed operation is filed under the phase in which it
//! finished. The main thread sleeps until each boundary and snapshots the
//! layers' own counters there, so counter deltas and operation samples
//! cover the same interval.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ad_kv::{CkptStats, WalStats};
use ad_net::NetStatsSnapshot;
use ad_stm::StatsReport;
use ad_support::hist::HistogramSnapshot;

/// A measured phase is cut into equal windows, and a reported throughput
/// or latency quantile is the median of its per-window values: a window
/// in which the host stalled the load (a noisy neighbour, a descheduled
/// vCPU) then moves it less than it would move a whole-phase figure.
/// Throughput uses windows of `WINDOW`; a latency quantile uses windows
/// at least that long that also hold `MIN_WINDOW_SAMPLES` samples of its
/// class each (so a window's p99 has at least 20 samples above it).
const WINDOW: Duration = Duration::from_millis(500);
const MIN_WINDOW_SAMPLES: usize = 2000;

/// One traced operation in this many gets spans (the rest are counted
/// and timed, but not logged), which keeps a traced run's span log small.
const SPAN_EVERY: u64 = 16;

/// What an operation was, for latency bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A lookup (`get` or `get_many`).
    Read = 0,
    /// A single-key write (put or delete), acked after fsync.
    Write = 1,
    /// A multi-key write batch, acked after fsync.
    Batch = 2,
}

/// Every class, in report order.
pub const CLASSES: [Class; 3] = [Class::Read, Class::Write, Class::Batch];

impl Class {
    /// Prefix of the class's latency metrics.
    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Write => "write",
            Class::Batch => "batch",
        }
    }
}

/// The time boundaries of one run, shared by every load thread.
pub struct Plan {
    /// `bounds[0]` ends warm-up; `bounds[i + 1]` ends measured phase `i`.
    bounds: Vec<Instant>,
    stop: AtomicBool,
    traced_phase: Option<usize>,
}

impl Plan {
    /// Warm-up of `warm`, then `phases` measured phases of `len` each;
    /// `traced_phase` names the phase whose operations get spans.
    pub fn new(warm: Duration, len: Duration, phases: usize, traced_phase: Option<usize>) -> Plan {
        let start = Instant::now() + warm;
        Plan {
            bounds: (0..=phases).map(|i| start + len * i as u32).collect(),
            stop: AtomicBool::new(false),
            traced_phase,
        }
    }

    /// True once the last phase has ended.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// The measured phase an operation finishing at `t` belongs to.
    fn phase_of(&self, t: Instant) -> Option<usize> {
        if t < self.bounds[0] {
            return None;
        }
        (0..self.bounds.len() - 1).find(|&i| t < self.bounds[i + 1])
    }

    fn phase_len(&self) -> Duration {
        self.bounds[1] - self.bounds[0]
    }

    fn phase_count(&self) -> usize {
        self.bounds.len() - 1
    }
}

/// Run `threads` load threads over `plan`, calling `at_boundary(i)` on
/// the calling thread as each boundary `i` passes (0 = end of warm-up).
/// Returns each thread's result once all have stopped.
pub fn run_plan<T: Send>(
    plan: &Plan,
    threads: usize,
    load: impl Fn(usize) -> T + Sync,
    mut at_boundary: impl FnMut(usize),
) -> Vec<T> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let load = &load;
                s.spawn(move || load(i))
            })
            .collect();
        for (i, &b) in plan.bounds.iter().enumerate() {
            let now = Instant::now();
            if b > now {
                std::thread::sleep(b - now);
            }
            at_boundary(i);
        }
        plan.stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

/// One span: an interval the benchmark timed around its own code or
/// around a call into the system. Spans of one operation share `req`.
pub struct Span {
    req: u64,
    id: u32,
    parent: u32,
    name: &'static str,
    start: Instant,
    end: Instant,
}

/// Samples of one measured phase on one thread.
#[derive(Default)]
struct PhaseRec {
    /// Per class: (ms since the phase began, call latency in ns).
    lat: [Vec<(u32, u32)>; 3],
    writes: u64,
    user_bytes: u64,
}

/// A load thread's record of its operations.
pub struct Recorder<'p> {
    plan: &'p Plan,
    thread: u64,
    phases: Vec<PhaseRec>,
    spans: Vec<Span>,
    ops: u64,
    /// Operations issued (every phase, warm-up included).
    pub attempted: u64,
    /// Operations that failed or returned output that failed a check.
    pub failed: u64,
    errors: Vec<String>,
}

impl<'p> Recorder<'p> {
    /// A fresh record for load thread `thread`.
    pub fn new(plan: &'p Plan, thread: usize) -> Recorder<'p> {
        Recorder {
            plan,
            thread: thread as u64,
            phases: (0..plan.phase_count())
                .map(|_| PhaseRec::default())
                .collect(),
            spans: Vec::new(),
            ops: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// File one completed operation. `begin` is when the operation was
    /// generated, `call` the interval of the system call it made;
    /// `user_bytes` is the key and value bytes it asked to persist.
    pub fn finish(
        &mut self,
        class: Class,
        api: &'static str,
        begin: Instant,
        call: (Instant, Instant),
        user_bytes: u64,
    ) {
        let end = Instant::now();
        self.ops += 1;
        let Some(p) = self.plan.phase_of(call.1) else {
            return;
        };
        let ms = (call.1 - self.plan.bounds[p]).as_millis() as u32;
        let ns = u32::try_from((call.1 - call.0).as_nanos()).unwrap_or(u32::MAX);
        let rec = &mut self.phases[p];
        rec.lat[class as usize].push((ms, ns));
        if class != Class::Read {
            rec.writes += 1;
            rec.user_bytes += user_bytes;
        }
        if self.plan.traced_phase == Some(p) && self.ops.is_multiple_of(SPAN_EVERY) {
            let req = (self.thread << 40) | self.ops;
            self.spans.push(Span {
                req,
                id: 1,
                parent: 0,
                name: class.name(),
                start: begin,
                end,
            });
            self.spans.push(Span {
                req,
                id: 2,
                parent: 1,
                name: api,
                start: call.0,
                end: call.1,
            });
        }
    }

    /// Count a failed operation or check, keeping the first few reasons.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why());
        }
    }
}

/// Every thread's samples for one measured phase.
pub struct PhaseSummary {
    len: Duration,
    lat: [Vec<(u32, u32)>; 3],
    /// Write calls (single-key and batches) completed in the phase.
    pub writes: u64,
    /// Key and value bytes those writes asked to persist.
    pub user_bytes: u64,
}

impl PhaseSummary {
    /// Operations completed per second: the median over the windows.
    pub fn ops_per_s(&self) -> f64 {
        let n = self.max_windows();
        let win = self.len.as_secs_f64() / n as f64;
        let mut counts = vec![0u64; n];
        for lat in &self.lat {
            for &(ms, _) in lat {
                counts[self.window_of(ms, n)] += 1;
            }
        }
        median(counts.iter().map(|&c| c as f64 / win).collect())
    }

    /// Latency quantile `q` of `class` in µs: the median over the windows
    /// of each window's exact (nearest-rank) quantile. 0 with no samples.
    pub fn quantile_us(&self, class: Class, q: f64) -> f64 {
        let lat = &self.lat[class as usize];
        let n = (lat.len() / MIN_WINDOW_SAMPLES).clamp(1, self.max_windows());
        let mut windows: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(ms, ns) in lat {
            windows[self.window_of(ms, n)].push(ns);
        }
        let per_window: Vec<f64> = windows
            .into_iter()
            .filter(|w| !w.is_empty())
            .map(|mut w| nearest_rank(&mut w, q) as f64 / 1e3)
            .collect();
        if per_window.is_empty() {
            0.0
        } else {
            median(per_window)
        }
    }

    /// Latency quantile over every class at once, in µs (whole phase).
    pub fn all_quantile_us(&self, q: f64) -> f64 {
        let mut all: Vec<u32> = self.lat.iter().flatten().map(|&(_, ns)| ns).collect();
        if all.is_empty() {
            0.0
        } else {
            nearest_rank(&mut all, q) as f64 / 1e3
        }
    }

    /// Samples of `class` in the phase.
    pub fn samples(&self, class: Class) -> usize {
        self.lat[class as usize].len()
    }

    /// Operations completed in the phase.
    pub fn ops(&self) -> u64 {
        self.lat.iter().map(|l| l.len() as u64).sum()
    }

    /// Phase length in seconds.
    pub fn secs(&self) -> f64 {
        self.len.as_secs_f64()
    }

    fn max_windows(&self) -> usize {
        ((self.len.as_millis() / WINDOW.as_millis()) as usize).max(1)
    }

    fn window_of(&self, ms: u32, windows: usize) -> usize {
        let len_ms = self.len.as_millis().max(1) as u64;
        ((ms as u64 * windows as u64) / len_ms).min(windows as u64 - 1) as usize
    }
}

/// The merged outcome of every load thread.
pub struct Merged {
    /// One summary per measured phase.
    pub phases: Vec<PhaseSummary>,
    /// Operations issued.
    pub attempted: u64,
    /// Operations (and in-flight checks) that failed.
    pub failed: u64,
    /// The first few failure reasons.
    pub errors: Vec<String>,
    spans: Vec<Span>,
    /// End of warm-up: time zero of the span log.
    origin: Instant,
}

impl Merged {
    /// Merge the threads' records.
    pub fn new(plan: &Plan, recs: Vec<Recorder<'_>>) -> Merged {
        let mut phases: Vec<PhaseSummary> = (0..plan.phase_count())
            .map(|_| PhaseSummary {
                len: plan.phase_len(),
                lat: Default::default(),
                writes: 0,
                user_bytes: 0,
            })
            .collect();
        let (mut attempted, mut failed) = (0, 0);
        let mut errors = Vec::new();
        let mut spans = Vec::new();
        for rec in recs {
            for (sum, p) in phases.iter_mut().zip(rec.phases) {
                for (dst, src) in sum.lat.iter_mut().zip(p.lat) {
                    dst.extend(src);
                }
                sum.writes += p.writes;
                sum.user_bytes += p.user_bytes;
            }
            attempted += rec.attempted;
            failed += rec.failed;
            errors.extend(rec.errors);
            spans.extend(rec.spans);
        }
        Merged {
            phases,
            attempted,
            failed,
            errors,
            spans,
            origin: plan.bounds[0],
        }
    }

    /// Share of the traced operations' time spent in the benchmark's own
    /// code (generating and checking), outside the system call: each
    /// root span's self time over its duration, summed.
    pub fn bench_self_share(&self) -> f64 {
        let (mut total, mut child) = (0u128, 0u128);
        for s in &self.spans {
            let d = (s.end - s.start).as_nanos();
            if s.parent == 0 {
                total += d;
            } else {
                child += d;
            }
        }
        if total == 0 {
            0.0
        } else {
            total.saturating_sub(child) as f64 / total as f64
        }
    }

    /// Write the span log as JSON lines: one span a line, times in ns
    /// from the end of warm-up.
    pub fn write_spans(&self, path: &Path) -> io::Result<()> {
        let origin = self.origin;
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"req\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.req,
                s.id,
                s.parent,
                s.name,
                s.start.saturating_duration_since(origin).as_nanos(),
                s.end.saturating_duration_since(origin).as_nanos(),
            );
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

/// The layers' own counters at one instant: STM, WAL, checkpoint and
/// network, each summed over every store the workload drives.
#[derive(Clone, Default)]
pub struct Counters {
    pub stm: StatsReport,
    pub wal: WalStats,
    pub ckpt: CkptStats,
    pub net: NetStatsSnapshot,
}

impl Counters {
    /// Add one store's STM, WAL and checkpoint counters.
    pub fn add_store(&mut self, store: &ad_kv::KvStore) {
        self.stm.merge(&store.runtime().snapshot_stats());
        if let Some(w) = store.wal_stats() {
            self.wal.records += w.records;
            self.wal.batches += w.batches;
            self.wal.bytes += w.bytes;
            self.wal.append_ns.merge(&w.append_ns);
            self.wal.fsync_ns.merge(&w.fsync_ns);
        }
        if let Some(c) = store.ckpt_stats() {
            self.ckpt.count += c.count;
            self.ckpt.bytes += c.bytes;
            self.ckpt.duration_ns.merge(&c.duration_ns);
        }
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let net = NetStatsSnapshot {
            net_accepts: self.net.net_accepts - earlier.net.net_accepts,
            net_requests: self.net.net_requests - earlier.net.net_requests,
            net_frame_errors: self.net.net_frame_errors - earlier.net.net_frame_errors,
            net_status_errors: self.net.net_status_errors - earlier.net.net_status_errors,
            req_latency_ns: self
                .net
                .req_latency_ns
                .delta_since(&earlier.net.req_latency_ns),
        };
        Counters {
            stm: self.stm.delta(&earlier.stm),
            wal: WalStats {
                records: self.wal.records - earlier.wal.records,
                batches: self.wal.batches - earlier.wal.batches,
                bytes: self.wal.bytes - earlier.wal.bytes,
                append_ns: self.wal.append_ns.delta_since(&earlier.wal.append_ns),
                fsync_ns: self.wal.fsync_ns.delta_since(&earlier.wal.fsync_ns),
            },
            ckpt: CkptStats {
                count: self.ckpt.count - earlier.ckpt.count,
                bytes: self.ckpt.bytes - earlier.ckpt.bytes,
                duration_ns: self.ckpt.duration_ns.delta_since(&earlier.ckpt.duration_ns),
                ..CkptStats::default()
            },
            net,
        }
    }
}

/// Quantile `q` of a histogram in µs (0 when empty).
pub fn hist_us(h: &HistogramSnapshot, q: f64) -> f64 {
    h.quantile(q) as f64 / 1e3
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of a non-empty sample (reorders it).
fn nearest_rank(v: &mut [u32], q: f64) -> u32 {
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    *v.select_nth_unstable(rank - 1).1
}

/// Peak resident set size of this process so far, in MB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
