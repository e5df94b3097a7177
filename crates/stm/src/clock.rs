//! The global version clock (TL2's GV2).
//!
//! Every committed value carries an *even* version timestamp; an odd value
//! in a variable's version word means "write-locked by a committing
//! transaction". Timestamps come from one process-wide word: a committing
//! writer advances it with a `fetch_add(2, SeqCst)` ([`tick`]) after
//! locking its write set, and stamps every written variable with the
//! result. The RMW makes write versions unique, which is what the
//! `wv == rv + 2` validation fast path in `Tx::commit` rests on.
//!
//! ## Why the clock preserves opacity
//!
//! TL2's safety needs exactly one clock property: if a transaction's read
//! version satisfies `rv >= wv` for some writer, then that writer had
//! already locked its entire write set before the reader began — so the
//! reader observes each written variable either locked (and retries) or
//! fully stamped, never a torn mix. The writer locks, *then* ticks, so the
//! RMW that produced `wv` follows every lock CAS in the `SeqCst` total
//! order, and a reader whose `now()` returned `rv >= wv` read the word at
//! or after that RMW.
//!
//! Non-transactional stores ([`nontx_tick`]) keep the same property
//! without an ordinary tick: the stamp clears both the word and the cell's
//! pre-lock version (per-variable monotonicity, no ABA on version words),
//! and is published to the word with a `fetch_max` *before* the caller
//! writes back. Any version a reader can witness is therefore already
//! covered by the word, so a snapshot extension just re-reads [`now`].

use ad_support::sync::atomic::{AtomicU64, Ordering};

static GLOBAL_CLOCK: AtomicU64 = AtomicU64::new(0);

/// Current clock value (always even): the read version of a starting
/// transaction and of a snapshot extension.
///
/// `Acquire` (not `SeqCst`) suffices, per TL2's own argument: correctness
/// only needs the result to be a *lower bound* on the clock at the moment
/// the transaction starts. `Acquire` synchronizes with the `SeqCst`
/// publishes in `tick`/`nontx_tick`, so a transaction that reads
/// `rv = t` sees every write-back of the commit that produced `t`. A stale
/// (smaller) value is always safe: the transaction merely extends its
/// snapshot (or aborts) more often.
#[inline]
pub fn now() -> u64 {
    GLOBAL_CLOCK.load(Ordering::Acquire)
}

/// Acquire a unique write version for a committing transaction. Must be
/// called *after* the write set is locked.
#[inline]
pub(crate) fn tick() -> u64 {
    GLOBAL_CLOCK.fetch_add(2, Ordering::SeqCst) + 2
}

/// Stamp for a non-transactional store (`TVar::store`/serial writes).
/// Called with the cell's write lock held; `pre` is its pre-lock version.
/// Publishes the stamp to the shared word *before* returning (hence before
/// the caller's write-back), so a reader that witnesses it and re-reads
/// [`now`] gets an `rv` that covers it.
#[inline]
pub(crate) fn nontx_tick(pre: u64) -> u64 {
    let wv = GLOBAL_CLOCK.load(Ordering::Acquire).max(pre) + 2;
    GLOBAL_CLOCK.fetch_max(wv, Ordering::SeqCst);
    wv
}

/// True if a version word is write-locked (odd).
#[inline]
pub fn is_locked(version: u64) -> bool {
    version & 1 == 1
}

/// Model hooks for the `verify::` clock model.
#[cfg(loom)]
pub(crate) mod model_hooks {
    use super::*;

    /// **Deliberately broken** non-transactional stamp that skips the
    /// shared-word `fetch_max` — the seeded bug for the regression model:
    /// the stamp lives above the word, so a reader that witnesses it and
    /// extends by re-reading [`now`] keeps an `rv` below it and would
    /// accept a version above its snapshot without revalidation.
    pub(crate) fn nontx_tick_unpublished(pre: u64) -> u64 {
        GLOBAL_CLOCK.load(Ordering::Acquire).max(pre) + 2
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_even() {
        let a = now();
        assert_eq!(a % 2, 0);
        let b = tick();
        assert_eq!(b % 2, 0);
        assert!(b > a);
        assert!(now() >= b);
    }

    #[test]
    fn locked_bit_detection() {
        assert!(!is_locked(0));
        assert!(!is_locked(42));
        assert!(is_locked(1));
        assert!(is_locked(43));
    }

    #[test]
    fn concurrent_gv2_ticks_are_unique() {
        // Uniqueness is what the validation fast path rests on.
        let mut handles = Vec::new();
        for _ in 0..8 {
            handles.push(std::thread::spawn(|| {
                (0..1000).map(|_| tick()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        let len = all.len();
        all.dedup();
        assert_eq!(all.len(), len, "two ticks returned the same version");
    }

    #[test]
    fn nontx_tick_clears_shared_word_and_pre_version() {
        let base = now();
        let wv = nontx_tick(base + 10);
        assert!(wv >= base + 12);
        assert_eq!(wv % 2, 0);
        assert!(now() >= wv, "nontx stamp must publish to the shared word");
    }
}
