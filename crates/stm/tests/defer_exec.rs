//! Executor-subsystem plumbing tests: batch hand-off to the pool, the
//! drain API, offload counters/events, and the per-transaction batch
//! token. (Lock-holding semantics across the hand-off live in `ad-defer`,
//! which owns the locks.)

#![cfg(not(loom))]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use ad_stm::{EventKind, Runtime, TVar, TmConfig};

fn pool_rt() -> Runtime {
    Runtime::new(TmConfig::stm().with_defer_pool(2, 16))
}

#[test]
fn pool_runs_every_deferred_action() {
    let rt = pool_rt();
    let ran = Arc::new(AtomicUsize::new(0));
    for _ in 0..50 {
        let ran = Arc::clone(&ran);
        rt.atomically(move |tx| {
            let ran = Arc::clone(&ran);
            tx.defer_post_commit(Box::new(move |_rt| {
                ran.fetch_add(1, Ordering::Relaxed);
            }));
            Ok(())
        });
    }
    rt.drain_deferred();
    assert_eq!(ran.load(Ordering::Relaxed), 50);
    // A fast committer can momentarily fill the queue, diverting some
    // batches to the inline fallback; each batch is accounted exactly once.
    let stats = rt.stats();
    assert_eq!(stats.defer_offloads + stats.defer_inline_fallbacks, 50);
    assert!(stats.defer_offloads > 0, "an idle pool accepts submissions");
    assert_eq!(stats.deferred_ops, 50);
}

#[test]
fn inline_executor_never_offloads() {
    let rt = Runtime::new(TmConfig::stm());
    let ran = Arc::new(AtomicUsize::new(0));
    let r2 = Arc::clone(&ran);
    rt.atomically(move |tx| {
        let r2 = Arc::clone(&r2);
        tx.defer_post_commit(Box::new(move |_rt| {
            r2.fetch_add(1, Ordering::Relaxed);
        }));
        Ok(())
    });
    // Inline: the op already ran when atomically returned.
    assert_eq!(ran.load(Ordering::Relaxed), 1);
    assert_eq!(rt.stats().defer_offloads, 0);
    assert_eq!(rt.deferred_pending(), 0);
    rt.drain_deferred(); // no-op, must not block
}

#[test]
fn pool_ops_of_one_txn_run_in_call_order() {
    let rt = pool_rt();
    let order = Arc::new(std::sync::Mutex::new(Vec::new()));
    let o2 = Arc::clone(&order);
    rt.atomically(move |tx| {
        for i in 0..5 {
            let o = Arc::clone(&o2);
            tx.defer_post_commit(Box::new(move |_rt| {
                o.lock().unwrap().push(i);
            }));
        }
        Ok(())
    });
    rt.drain_deferred();
    assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
}

#[test]
fn pool_worker_ops_may_start_transactions() {
    let rt = pool_rt();
    let v = TVar::new(0u32);
    let v2 = v.clone();
    rt.atomically(move |tx| {
        let v2 = v2.clone();
        tx.defer_post_commit(Box::new(move |rt| {
            // The worker thread has no transaction in flight, so a deferred
            // op can run follow-up transactions — the same guarantee the
            // inline executor gives.
            rt.atomically(|tx| tx.write(&v2, 7));
        }));
        Ok(())
    });
    rt.drain_deferred();
    assert_eq!(v.load(), 7);
}

#[test]
fn pool_emits_offload_events_and_queue_wait_histogram() {
    let rt = pool_rt();
    rt.set_tracing(true);
    for _ in 0..10 {
        rt.atomically(|tx| {
            tx.defer_post_commit(Box::new(|_rt| {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }));
            Ok(())
        });
    }
    rt.drain_deferred();
    let trace = rt.take_trace();
    let offloads = trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::DeferOffload)
        .count();
    assert_eq!(offloads, 10, "one defer_offload event per batch");
    let report = rt.snapshot_stats();
    assert_eq!(report.defer_queue_wait_ns.count(), 10);
    assert!(report.to_json().contains("\"defer_queue_wait_ns\""));
}

#[test]
fn inline_keeps_queue_wait_histogram_empty() {
    let rt = Runtime::new(TmConfig::stm());
    rt.set_tracing(true);
    rt.atomically(|tx| {
        tx.defer_post_commit(Box::new(|_rt| {}));
        Ok(())
    });
    assert_eq!(rt.snapshot_stats().defer_queue_wait_ns.count(), 0);
}

#[test]
fn batch_token_inline_is_none() {
    let rt = Runtime::new(TmConfig::stm());
    rt.atomically(|tx| {
        assert_eq!(tx.defer_batch_token(), None);
        Ok(())
    });
}

#[test]
fn batch_token_pool_is_stable_within_a_txn_and_unique_across() {
    let rt = pool_rt();
    let first = Arc::new(AtomicU64::new(0));
    let f2 = Arc::clone(&first);
    rt.atomically(move |tx| {
        let a = tx.defer_batch_token().expect("pool mode has a token");
        let b = tx.defer_batch_token().unwrap();
        assert_eq!(a, b, "both defers of one txn share the batch token");
        f2.store(a, Ordering::Relaxed);
        Ok(())
    });
    rt.atomically(move |tx| {
        let c = tx.defer_batch_token().unwrap();
        assert_ne!(
            c,
            first.load(Ordering::Relaxed),
            "distinct transactions get distinct batch tokens"
        );
        Ok(())
    });
}

#[test]
fn pool_backpressure_falls_back_to_inline() {
    // 1 worker, queue of 1: the worker sleeps 2ms per batch while commits
    // arrive back-to-back, so the queue fills after two offloads and later
    // batches must take the inline-fallback path instead of blocking the
    // committer. Every batch still runs exactly once, wherever it ran.
    let rt = Runtime::new(TmConfig::stm().with_defer_pool(1, 1));
    let ran = Arc::new(AtomicUsize::new(0));
    for _ in 0..8 {
        let ran = Arc::clone(&ran);
        rt.atomically(move |tx| {
            let ran = Arc::clone(&ran);
            tx.defer_post_commit(Box::new(move |_rt| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                ran.fetch_add(1, Ordering::Relaxed);
            }));
            Ok(())
        });
    }
    rt.drain_deferred();
    assert_eq!(ran.load(Ordering::Relaxed), 8);
    let stats = rt.stats();
    assert_eq!(
        stats.defer_offloads + stats.defer_inline_fallbacks,
        8,
        "every batch either offloaded or fell back"
    );
    assert!(
        stats.defer_inline_fallbacks >= 1,
        "a full queue must divert batches inline (offloads={} fallbacks={})",
        stats.defer_offloads,
        stats.defer_inline_fallbacks
    );
}

#[test]
fn dropping_runtime_loses_no_batches() {
    // Dropping the caller's handle does not synchronously drain — each
    // queued batch holds a `Runtime` clone, so the runtime (and its pool)
    // stays alive until the last batch completes on a worker. The
    // guarantee is that nothing queued is ever lost.
    let ran = Arc::new(AtomicUsize::new(0));
    {
        let rt = pool_rt();
        for _ in 0..16 {
            let ran = Arc::clone(&ran);
            rt.atomically(move |tx| {
                let ran = Arc::clone(&ran);
                tx.defer_post_commit(Box::new(move |_rt| {
                    ran.fetch_add(1, Ordering::Relaxed);
                }));
                Ok(())
            });
        }
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while ran.load(Ordering::Relaxed) < 16 {
        assert!(
            std::time::Instant::now() < deadline,
            "queued batches lost after runtime drop: {}/16",
            ran.load(Ordering::Relaxed)
        );
        std::thread::yield_now();
    }
}
