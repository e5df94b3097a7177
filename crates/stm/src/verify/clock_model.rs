//! Models: the GV2 commit clock covers every stamp a reader can witness.
//!
//! A snapshot extension (`Tx::extend_snapshot`) re-reads the clock and
//! accepts the read set at the new `rv` without checking the witnessed
//! version against it. That is sound only if every version a reader can
//! see in a variable is already covered by the clock word, and if an `rv`
//! that covers a writer's stamp also observes the writer's write-set lock
//! (`clock.rs` module docs, "Why the clock preserves opacity"). Two kinds
//! of writer stamp variables:
//!
//! * **transactional** (`Tx::commit`): lock, then [`clock::tick`] (a
//!   `fetch_add` on the word), then stamp;
//! * **non-transactional** (`TVar::store`): lock, then
//!   [`clock::nontx_tick`] (a `fetch_max` of the stamp into the word),
//!   then stamp.
//!
//! Each scenario models a variable as a (lock word, stamped version word)
//! pair. The reader witnesses each stamp and asserts that `clock::now()`
//! covers it and that the writer's lock is visible.
//!
//! The regression variant seeds the bug the unconditional `now()`
//! extension is exposed to: a non-transactional stamp that skips the
//! shared-word `fetch_max` ([`clock::model_hooks::nontx_tick_unpublished`])
//! lives above the word, so a reader that witnesses it extends to an `rv`
//! below it. The model must catch it, or the green model proves nothing.

use std::sync::Arc;

use ad_support::model::{check, check_expect_violation, CheckOpts, Exec};
use ad_support::sync::atomic::{AtomicU64, Ordering};

use super::serialize;
use crate::clock;

fn opts() -> CheckOpts {
    CheckOpts {
        seeds: 3000,
        max_steps: 100_000,
    }
}

/// One modeled transactional variable: a write-set lock word the writer
/// takes before ticking, and the version word it stamps after.
struct Var {
    lock: AtomicU64,
    stamp: AtomicU64,
}

impl Var {
    fn new() -> Arc<Var> {
        Arc::new(Var {
            lock: AtomicU64::new(0),
            stamp: AtomicU64::new(0),
        })
    }
}

/// Spawn a writer that locks `var`, draws a stamp from `stamp_fn`, and
/// stamps — the order both `Tx::commit` and `VarCore::direct_write` use.
fn spawn_writer(e: &mut Exec, var: &Arc<Var>, stamp_fn: fn() -> u64) {
    let var = Arc::clone(var);
    e.spawn(move || {
        var.lock.store(1, Ordering::SeqCst);
        let wv = stamp_fn();
        var.stamp.store(wv, Ordering::SeqCst);
    });
}

/// A `TVar::store`-style stamp over a cell whose pre-lock version sits at
/// the current clock value.
fn nontx_stamp() -> u64 {
    clock::nontx_tick(clock::now())
}

/// The seeded bug: the same stamp, never published to the clock word.
fn nontx_stamp_unpublished() -> u64 {
    clock::model_hooks::nontx_tick_unpublished(clock::now())
}

/// Reader-side validation of one witnessed stamp: extending by re-reading
/// the clock must produce `rv >= witness`, and an `rv` that covers the
/// stamp must also observe the writer's pre-tick lock (the property that
/// lets TL2 readers accept `version <= rv` without revalidating).
fn validate_witness(var: &Var) {
    let witness = var.stamp.load(Ordering::SeqCst);
    if witness == 0 {
        // The writer has not stamped yet in this interleaving; a real
        // reader would accept the pre-commit version. Nothing to check.
        return;
    }
    let rv = clock::now();
    assert!(
        rv >= witness,
        "extension rv {rv} below witnessed stamp {witness}: \
         the clock does not cover a witnessed stamp"
    );
    assert_eq!(
        var.lock.load(Ordering::SeqCst),
        1,
        "rv covers a writer's wv but its pre-tick write-set lock is not visible"
    );
}

/// A transactional and a non-transactional writer race a reader that
/// witnesses both stamps.
fn witnessed_stamps_are_covered(e: &mut Exec, nontx: fn() -> u64) {
    let a = Var::new();
    let b = Var::new();

    spawn_writer(e, &a, clock::tick);
    spawn_writer(e, &b, nontx);

    e.spawn(move || {
        validate_witness(&a);
        validate_witness(&b);
    });
}

#[test]
fn gv2_witnessed_stamps_are_covered_by_the_clock() {
    let _g = serialize();
    check("gv2-witness-covered", opts(), |e| {
        witnessed_stamps_are_covered(e, nontx_stamp)
    });
}

/// Regression model: with the non-transactional stamp unpublished (the
/// seeded bug), the model must observe a reader whose extension leaves
/// `rv` below a witnessed stamp. Guards the model's sensitivity — if this
/// stops failing, the green model above proves nothing.
#[test]
fn model_catches_unpublished_nontx_stamp() {
    let _g = serialize();
    let violation = check_expect_violation(opts(), |e| {
        witnessed_stamps_are_covered(e, nontx_stamp_unpublished)
    });
    let (seed, msg) = violation
        .expect("the clock model no longer catches an unpublished nontx stamp; re-tune it");
    assert!(
        msg.contains("does not cover a witnessed stamp"),
        "expected the clock-coverage assertion, got (seed {seed}): {msg}"
    );
}
