//! `perfbench` — one workload of the serving-stack benchmark.
//!
//! ```text
//! perfbench --workload wire_write|local_read|shard_txn --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives the system only through its public entry points
//! (`ad_net::Client` against an in-process `ad_net::Server`,
//! `ad_kv::KvStore`, `ad_shard::ShardRouter`), times those calls, and
//! reads the counters each layer already exports as before/after deltas.
//! Prints a run header, one line per metric, and as its last line a JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `perfbench/README.md` describes the workloads and metrics.

mod check;
mod measure;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;

use measure::{hist_us, ratio, Class, CLASSES};
use workloads::{Kind, Outcome, RunCfg, THREADS};

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Option<usize>,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples: None,
    }
}

/// The end-to-end metrics, from the untraced phase. The gated tail is the
/// p90: on two shared vCPUs the p99 of a path that hands work between
/// threads is set by how long the scheduler lets a busy thread finish its
/// slice, and `wire_write`'s read p95 sits where its reads that wait
/// behind a held TxLock begin; both moved by more than any bound from run
/// to run (README.md, "End-to-end metrics").
fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let p = &o.merged.phases[0];
    let mut m = vec![metric("ops_per_s", "1/s", p.ops_per_s())];
    let names: [[&str; 2]; 3] = [
        ["read_p50_us", "read_p90_us"],
        ["write_p50_us", "write_p90_us"],
        ["batch_p50_us", "batch_p90_us"],
    ];
    for (class, [p50, p90]) in CLASSES.iter().zip(names) {
        for (name, q) in [(p50, 0.50), (p90, 0.90)] {
            m.push(Metric {
                samples: Some(p.samples(*class)),
                ..metric(name, "us", p.quantile_us(*class, q))
            });
        }
    }
    m.push(metric("setup_s", "s", o.setup_s));
    m.push(metric("peak_rss_mb", "MB", o.peak_rss_mb));
    m
}

/// The p99 of each class, printed for reading but not gated.
fn print_p99(o: &Outcome) {
    let p = &o.merged.phases[0];
    for class in CLASSES {
        println!(
            "{:<30} {:>14.3} us    ({} samples; not gated)",
            format!("{}_p99_us", class.name()),
            p.quantile_us(class, 0.99),
            p.samples(class)
        );
    }
}

/// The per-layer metrics, from the traced phase and its counter deltas.
fn per_layer(o: &Outcome) -> Vec<Metric> {
    let untraced = &o.merged.phases[0];
    let p = o.merged.phases.last().expect("a traced phase");
    let d = o.deltas.last().expect("traced-phase counters");
    let c = &d.stm.counters;
    let ops = p.ops() as f64;
    let writes = p.writes as f64;
    let user = p.user_bytes as f64;
    let wire = o.kind == Kind::Wire;
    let shard = o.kind == Kind::Shard;
    let server_p50 = hist_us(&d.net.req_latency_ns, 0.5);
    let append_p50 = hist_us(&d.wal.append_ns, 0.5);
    let fsync_p50 = hist_us(&d.wal.fsync_ns, 0.5);
    let thread_ns = THREADS as f64 * p.secs() * 1e9;
    let if_shard = |v: f64| if shard { v } else { 0.0 };
    vec![
        metric("net.server_p50_us", "us", server_p50),
        metric(
            "net.wire_p50_us",
            "us",
            if wire {
                p.all_quantile_us(0.5) - server_p50
            } else {
                0.0
            },
        ),
        metric(
            "net.errors",
            "count",
            (d.net.net_frame_errors + d.net.net_status_errors) as f64,
        ),
        metric("kv.wal.append_p50_us", "us", append_p50),
        metric("kv.wal.fsync_p50_us", "us", fsync_p50),
        metric("kv.wal.group_wait_p50_us", "us", append_p50 - fsync_p50),
        metric(
            "kv.wal.records_per_fsync",
            "ratio",
            ratio(d.wal.records as f64, d.wal.batches as f64),
        ),
        metric(
            "kv.wal.bytes_per_user_byte",
            "ratio",
            ratio(d.wal.bytes as f64, user),
        ),
        metric("kv.ckpt.count", "count", d.ckpt.count as f64),
        metric(
            "kv.ckpt.p50_ms",
            "ms",
            d.ckpt.duration_ns.quantile(0.5) as f64 / 1e6,
        ),
        metric(
            "kv.ckpt.bytes_per_user_byte",
            "ratio",
            ratio(d.ckpt.bytes as f64, user),
        ),
        metric("kv.recover.reopen_ms", "ms", o.reopen_ms),
        metric("stm.commits_per_op", "ratio", ratio(c.commits as f64, ops)),
        metric(
            "stm.abort_ratio",
            "ratio",
            ratio(
                (c.aborts_conflict + c.aborts_capacity) as f64,
                c.starts as f64,
            ),
        ),
        metric("stm.serializations", "count", c.serializations as f64),
        metric(
            "stm.quiesce_share",
            "ratio",
            ratio(c.quiesce_ns as f64, thread_ns),
        ),
        metric(
            "stm.quiesce_p50_us",
            "us",
            hist_us(&d.stm.quiesce_wait_ns, 0.5),
        ),
        metric(
            "stm.commit_p50_us",
            "us",
            hist_us(&d.stm.commit_latency_ns, 0.5),
        ),
        metric(
            "stm.validation_extends_per_op",
            "ratio",
            ratio(c.validation_extends as f64, ops),
        ),
        metric(
            "defer.ops_per_write",
            "ratio",
            ratio(c.deferred_ops as f64, writes),
        ),
        metric(
            "defer.hold_p50_us",
            "us",
            hist_us(&d.stm.defer_queue_to_done_ns, 0.5),
        ),
        metric(
            "defer.hold_p99_us",
            "us",
            hist_us(&d.stm.defer_queue_to_done_ns, 0.99),
        ),
        metric(
            "shard.cross_ratio",
            "ratio",
            if_shard(ratio(p.samples(Class::Batch) as f64, writes)),
        ),
        metric(
            "shard.fsyncs_per_batch",
            "ratio",
            if_shard(ratio(d.wal.batches as f64, writes)),
        ),
        metric(
            "shard.cross_over_single",
            "ratio",
            if_shard(ratio(
                p.quantile_us(Class::Batch, 0.5),
                p.quantile_us(Class::Write, 0.5),
            )),
        ),
        metric("bench.self_share", "ratio", o.merged.bench_self_share()),
        metric(
            "trace.overhead",
            "ratio",
            ratio(untraced.ops_per_s(), p.ops_per_s()),
        ),
    ]
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload wire_write|local_read|shard_txn \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            usage(&format!("flag {} has no value", pair[0]));
        };
        let num = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag} needs a whole number, got {value}")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = num(),
            "--seconds" => seconds = num().max(1),
            "--trace" => trace = num() != 0,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let (run, wal_medium): (fn(&RunCfg) -> Outcome, &str) = match workload.as_str() {
        "wire_write" => (workloads::wire_write, "MemDisk"),
        "local_read" => (workloads::local_read, "MemMedium"),
        "shard_txn" => (workloads::shard_txn, "MemMedium"),
        other => usage(&format!("unknown workload {other}")),
    };
    let work_dir = PathBuf::from(".bench_work");
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        usage(&format!("creating {}: {e}", work_dir.display()));
    }
    let cfg = RunCfg {
        seed,
        seconds,
        trace,
        span_path: work_dir.join(format!("spans-{workload}.jsonl")),
    };

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rev = std::env::var("PERFBENCH_REV").unwrap_or_else(|_| "unknown".into());
    println!(
        "header {{\"workload\":\"{workload}\",\"host_cores\":{cores},\"load_threads\":{THREADS},\
         \"wal_medium\":\"{wal_medium}\",\"stm_clock\":\"{}\",\"rev\":\"{rev}\",\"seed\":{seed},\
         \"tracing\":{trace},\"run_seconds\":{seconds}}}",
        ad_support::tsc::source()
    );

    let outcome = run(&cfg);
    let metrics = if trace {
        per_layer(&outcome)
    } else {
        end_to_end(&outcome)
    };
    let attempted = outcome.merged.attempted.max(1);
    let failed = outcome.merged.failed + outcome.check_failed;
    for e in outcome.merged.errors.iter().chain(&outcome.check_errors) {
        eprintln!("check failed: {e}");
    }
    println!(
        "checks: {} after the run, {} failed; ops attempted {attempted}, failed {failed}, \
         failed_ratio {}; peak RSS {:.1} MB after the first set-up, {:.1} MB at exit",
        outcome.checks,
        outcome.check_failed,
        failed as f64 / attempted as f64,
        outcome.peak_rss_mb,
        measure::peak_rss_mb(),
    );
    if trace {
        println!("spans: {}", cfg.span_path.display());
    } else {
        print_p99(&outcome);
    }
    let mut json = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        match m.samples {
            Some(n) => println!("{:<30} {value:>14.3} {:<5} ({n} samples)", m.name, m.unit),
            None => println!("{:<30} {value:>14.3} {}", m.name, m.unit),
        }
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            json,
            "{sep}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            m.name, m.unit
        );
    }
    json.push('}');
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{json}}}",
        failed == 0
    );
}
