//! Deliberate fault injection for harness validation.
//!
//! A correctness harness that has never caught a bug proves nothing. This
//! module lets the testkit arm a single, precisely characterized defect —
//! an off-by-one in union-by-update that silently drops the *last* delta
//! row — and then demonstrate that the differential matrix (a) detects the
//! divergence and (b) shrinks it to a minimal counterexample. The flag is
//! thread-local so a test arming it cannot perturb concurrently running
//! tests, and it costs one branch on an already-cold path when disarmed.

use std::cell::Cell;

thread_local! {
    static UBU_OFF_BY_ONE: Cell<bool> = const { Cell::new(false) };
    static WCOJ_SEEK_OFF_BY_ONE: Cell<bool> = const { Cell::new(false) };
    static IVM_SEED_OFF_BY_ONE: Cell<bool> = const { Cell::new(false) };
    static AGGJOIN_DROP_LAST_MATCH: Cell<bool> = const { Cell::new(false) };
    static HITS: Cell<u64> = const { Cell::new(0) };
}

/// Arm (or disarm) the union-by-update off-by-one on this thread. Arming
/// resets the hit counter; disarming preserves it so a harness can check
/// *after* a faulty run that the hook actually fired.
pub fn inject_ubu_off_by_one(enabled: bool) {
    UBU_OFF_BY_ONE.with(|f| f.set(enabled));
    if enabled {
        HITS.with(|h| h.set(0));
    }
}

/// Whether the fault is currently armed on this thread.
pub fn ubu_fault_armed() -> bool {
    UBU_OFF_BY_ONE.with(|f| f.get())
}

/// Arm (or disarm) the leapfrog-seek off-by-one on this thread: a `seek`
/// that lands exactly on its target advances one key too far — the classic
/// `lower_bound` miscomputed as `upper_bound`, which silently drops every
/// exact intersection the multiway join should have produced. Arming resets
/// the hit counter, like [`inject_ubu_off_by_one`].
pub fn inject_wcoj_seek_off_by_one(enabled: bool) {
    WCOJ_SEEK_OFF_BY_ONE.with(|f| f.set(enabled));
    if enabled {
        HITS.with(|h| h.set(0));
    }
}

/// Whether the leapfrog-seek fault is currently armed on this thread.
pub fn wcoj_fault_armed() -> bool {
    WCOJ_SEEK_OFF_BY_ONE.with(|f| f.get())
}

/// Recorded by the multiway join's seek wrapper when the armed fault fires.
pub(crate) fn note_wcoj_hit() {
    HITS.with(|h| h.set(h.get() + 1));
}

/// How many times the armed fault actually fired since arming.
pub fn fault_hits() -> u64 {
    HITS.with(|h| h.get())
}

/// Arm (or disarm) the IVM delta-seeding off-by-one on this thread: the
/// seed relation an incremental view refresh resumes from loses its final
/// row — the same `< n - 1` loop-bound bug as [`inject_ubu_off_by_one`],
/// planted in the seeding path so the testkit can prove the
/// incremental-vs-recompute matrix has teeth. Arming resets the hit
/// counter.
pub fn inject_ivm_seed_off_by_one(enabled: bool) {
    IVM_SEED_OFF_BY_ONE.with(|f| f.set(enabled));
    if enabled {
        HITS.with(|h| h.set(0));
    }
}

/// Whether the IVM seed fault is currently armed on this thread.
pub fn ivm_fault_armed() -> bool {
    IVM_SEED_OFF_BY_ONE.with(|f| f.get())
}

/// Applied by the IVM runner to the freshly computed seed before resuming
/// semi-naive iteration: when armed, truncate off the final row. Public
/// because the seeding path lives in `aio-withplus`.
pub fn clip_ivm_seed(seed: &mut aio_storage::Relation) {
    if ivm_fault_armed() && !seed.is_empty() {
        let n = seed.len() - 1;
        seed.rows_mut().truncate(n);
        HITS.with(|h| h.set(h.get() + 1));
    }
}

/// Arm (or disarm) the fused aggregate-join off-by-one on this thread:
/// every probe row folds all of its build-side matches but the last — the
/// `< n - 1` bucket-loop bound, planted in the kernel that replaces
/// join-then-group-by so the aggregate-join parity test can prove it has
/// teeth. Arming resets the hit counter.
pub fn inject_aggjoin_drop_last_match(enabled: bool) {
    AGGJOIN_DROP_LAST_MATCH.with(|f| f.set(enabled));
    if enabled {
        HITS.with(|h| h.set(0));
    }
}

/// Whether the aggregate-join fault is currently armed on this thread.
pub fn aggjoin_fault_armed() -> bool {
    AGGJOIN_DROP_LAST_MATCH.with(|f| f.get())
}

/// Recorded by the fused aggregate-join: `n` matches the armed fault
/// dropped.
pub(crate) fn note_aggjoin_hits(n: u64) {
    HITS.with(|h| h.set(h.get() + n));
}

/// Applied by `union_by_update` to its delta before merging: when armed,
/// truncate off the final row — the classic `< n - 1` loop bound.
pub(crate) fn clip_delta(delta: &mut aio_storage::Relation) {
    if ubu_fault_armed() && !delta.is_empty() {
        let n = delta.len() - 1;
        delta.rows_mut().truncate(n);
        HITS.with(|h| h.set(h.get() + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_by_default_and_scoped_to_thread() {
        assert!(!ubu_fault_armed());
        inject_ubu_off_by_one(true);
        assert!(ubu_fault_armed());
        let other = std::thread::spawn(ubu_fault_armed).join().unwrap();
        assert!(!other, "fault must not leak across threads");
        inject_ubu_off_by_one(false);
        assert!(!ubu_fault_armed());
    }
}
