//! MVCC snapshot publication: the generation hub.
//!
//! The catalog becomes multi-version by treating every committed WAL
//! boundary — auto-commit, explicit commit, fixpoint-iteration commit,
//! run end, checkpoint — as a *generation*. When MVCC is enabled
//! ([`crate::Catalog::enable_mvcc`]), each boundary publishes an immutable
//! [`Snapshot`] into the [`GenerationHub`]: a read-only fork of the catalog
//! whose table entries are `Arc`-shared with the writer. The writer's next
//! mutation of a shared table copies only that entry (copy-on-write), so a
//! publish costs one table-map clone and a mutation costs at most one
//! relation clone — never a whole-catalog copy.
//!
//! Readers call [`GenerationHub::pin`] to hold the newest committed
//! generation for as long as they like. Pinning is a mutex-guarded `Arc`
//! clone; the writer never waits on readers (it only ever *replaces* the
//! current snapshot under the same short-lived lock), and a pinned snapshot
//! stays fully readable — rows, statistics, cached tries — no matter how
//! far the writer advances. That is the whole snapshot-isolation story:
//! no dirty reads (only committed boundaries publish), no non-repeatable
//! reads (a pin never changes content), no writer stalls (readers share,
//! never lock, the data).

use crate::catalog::Catalog;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One committed catalog generation: an immutable, read-only catalog fork.
///
/// `catalog` has no durable log, no hub and an empty cost-model WAL — it
/// exists purely to serve reads. Its table entries are `Arc`-shared with
/// the writer catalog until the writer mutates them (copy-on-write).
#[derive(Debug)]
pub struct Snapshot {
    /// The generation number ([`Catalog::generation`] at publish time).
    pub gen: u64,
    /// Read-only catalog as of this generation.
    pub catalog: Catalog,
}

/// Publication point between one writer and any number of snapshot readers.
///
/// Holds the newest committed [`Snapshot`] plus a pin gauge. Created by
/// [`Catalog::enable_mvcc`]; the catalog publishes into it at every commit
/// point from then on.
#[derive(Debug)]
pub struct GenerationHub {
    current: Mutex<Arc<Snapshot>>,
    pins: AtomicU64,
}

impl GenerationHub {
    /// A hub primed with the catalog's current state as its first
    /// generation (readers can pin immediately).
    pub fn new(initial: Snapshot) -> GenerationHub {
        GenerationHub {
            current: Mutex::new(Arc::new(initial)),
            pins: AtomicU64::new(0),
        }
    }

    /// Replace the newest committed generation. Called by the catalog at
    /// every commit point; existing pins keep their old snapshot alive
    /// through their own `Arc`.
    pub(crate) fn publish(&self, snap: Snapshot) {
        let gen = snap.gen;
        *self.current.lock().unwrap_or_else(|e| e.into_inner()) = Arc::new(snap);
        aio_metrics::hooks::mvcc_publish(gen);
    }

    /// The newest committed generation number.
    pub fn current_gen(&self) -> u64 {
        self.current.lock().unwrap_or_else(|e| e.into_inner()).gen
    }

    /// How many [`PinnedSnapshot`]s are alive right now.
    pub fn pinned(&self) -> u64 {
        self.pins.load(Ordering::Relaxed)
    }

    /// Pin the newest committed generation. The returned handle keeps that
    /// generation's catalog readable until dropped; the writer is never
    /// blocked by it.
    pub fn pin(self: &Arc<Self>) -> PinnedSnapshot {
        let snap = self
            .current
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let now = self.pins.fetch_add(1, Ordering::Relaxed) + 1;
        aio_metrics::hooks::mvcc_pin(now);
        PinnedSnapshot { hub: Arc::clone(self), snap }
    }
}

/// A reader's hold on one committed generation (RAII: dropping unpins).
#[derive(Debug)]
pub struct PinnedSnapshot {
    hub: Arc<GenerationHub>,
    snap: Arc<Snapshot>,
}

impl PinnedSnapshot {
    /// The pinned generation number.
    pub fn generation(&self) -> u64 {
        self.snap.gen
    }

    /// The pinned generation's read-only catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.snap.catalog
    }
}

impl Drop for PinnedSnapshot {
    fn drop(&mut self) {
        let before = self.hub.pins.fetch_sub(1, Ordering::Relaxed);
        aio_metrics::hooks::mvcc_unpin(before.saturating_sub(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyidx::KeyIndex;
    use crate::relation::{edge_schema, node_schema, Relation};
    use crate::row;
    use crate::value::Value;
    use crate::wal::WalPolicy;

    fn assert_send_sync<T: Send + Sync>() {}

    /// `name`'s join index on `cols`, from (or built into) its cache.
    fn join_index(c: &Catalog, name: &str, cols: &[usize]) -> Arc<KeyIndex> {
        let e = c.entry(name).unwrap();
        e.cache.join_index(&e.rel, cols, 1)
    }

    #[test]
    fn snapshots_cross_threads() {
        // The whole point of the hub: snapshots are read on other threads.
        assert_send_sync::<Catalog>();
        assert_send_sync::<Snapshot>();
        assert_send_sync::<GenerationHub>();
        assert_send_sync::<PinnedSnapshot>();
    }

    #[test]
    fn pin_tracks_newest_committed_generation() {
        let mut c = Catalog::new();
        c.create_table("T", Relation::new(node_schema())).unwrap();
        let hub = c.enable_mvcc();
        let g0 = hub.current_gen();
        let p0 = hub.pin();
        assert_eq!(p0.generation(), g0);
        assert_eq!(hub.pinned(), 1);

        // an auto-committed insert is a commit point: a new generation
        c.insert_rows("T", vec![row![1, 1.0]], WalPolicy::None).unwrap();
        assert!(hub.current_gen() > g0);
        let p1 = hub.pin();
        assert_eq!(p1.generation(), c.generation());
        assert_eq!(p1.catalog().relation("T").unwrap().len(), 1);
        // the earlier pin still sees its own (empty) generation
        assert_eq!(p0.catalog().relation("T").unwrap().len(), 0);
        drop(p0);
        drop(p1);
        assert_eq!(hub.pinned(), 0);
    }

    #[test]
    fn explicit_txn_publishes_only_at_commit() {
        let mut c = Catalog::new();
        c.create_table("T", Relation::new(node_schema())).unwrap();
        let hub = c.enable_mvcc();
        c.wal_begin_txn();
        assert!(c.in_txn());
        let before = hub.current_gen();
        c.insert_rows("T", vec![row![1, 1.0]], WalPolicy::None).unwrap();
        c.insert_rows("T", vec![row![2, 2.0]], WalPolicy::None).unwrap();
        // uncommitted: readers still pin the pre-txn generation
        assert_eq!(hub.current_gen(), before);
        assert_eq!(hub.pin().catalog().relation("T").unwrap().len(), 0);
        c.wal_commit_txn().unwrap();
        assert!(!c.in_txn());
        assert!(hub.current_gen() > before);
        assert_eq!(hub.pin().catalog().relation("T").unwrap().len(), 2);
    }

    #[test]
    fn pinned_reader_keeps_its_generations_tries_and_stats() {
        // Satellite regression: caches are per generation, not globally
        // clobbered. A pinned reader keeps hitting its own generation's
        // trie and statistics across writer mutations.
        let mut c = Catalog::new();
        c.create_table("T", Relation::new(edge_schema()))
            .unwrap();
        c.insert_rows("T", vec![row![1, 2, 1.0], row![2, 3, 1.0]], WalPolicy::None)
            .unwrap();
        c.build_trie("T", &[0, 1]).unwrap();
        let index = join_index(&c, "T", &[1]);
        c.analyze("T").unwrap();
        let hub = c.enable_mvcc();
        let pin = hub.pin();
        assert!(pin.catalog().trie_on("T", &[0, 1]).is_some(), "snapshot carries the cache");
        let pinned_index = join_index(pin.catalog(), "T", &[1]);
        assert!(Arc::ptr_eq(&pinned_index, &index), "and the join index, shared");
        let snap_rows = pin.catalog().stats("T").unwrap().rows;

        // writer mutates: its own cache invalidates, the pin's must not
        c.insert_rows("T", vec![row![3, 4, 1.0]], WalPolicy::None).unwrap();
        assert!(c.trie_on("T", &[0, 1]).is_none(), "writer cache invalidated");
        assert!(c.entry("T").unwrap().cache.is_empty(), "writer join index invalidated");
        let kept = join_index(pin.catalog(), "T", &[1]);
        assert!(Arc::ptr_eq(&kept, &index), "pinned join index survives");
        let pinned_rel = pin.catalog().relation("T").unwrap();
        assert_eq!(
            kept.probe(pinned_rel, &[Value::Int(0), Value::Int(4)], &[1]).count(),
            0,
            "the pinned index knows nothing of the writer's new row"
        );
        assert!(c.stats("T").is_none(), "writer stats invalidated");
        let t = pin.catalog().trie_on("T", &[0, 1]).expect("pinned trie survives");
        assert_eq!(t.len(), 2, "pinned trie indexes the pinned rows");
        assert_eq!(pin.catalog().stats("T").unwrap().rows, snap_rows);
        assert_eq!(pin.catalog().relation("T").unwrap().len(), 2);
        assert_eq!(c.relation("T").unwrap().len(), 3);

        // a lazy build through the *snapshot* must not leak into the writer
        let rebuilt = pin.catalog().trie_for("T", &[1, 0]).unwrap();
        assert_eq!(rebuilt.len(), 2);
        assert!(c.trie_on("T", &[1, 0]).is_none(), "writer unaffected by snapshot build");
        let writer_index = join_index(&c, "T", &[1]);
        assert!(!Arc::ptr_eq(&writer_index, &kept), "writer rebuilds over its own rows");
        let writer_rel = c.relation("T").unwrap();
        let probe = [Value::Int(0), Value::Int(4)];
        assert_eq!(writer_index.probe(writer_rel, &probe, &[1]).count(), 1);
    }

    #[test]
    fn reader_builds_while_the_writer_mutates() {
        // A reader paying a join-index build on its snapshot and the writer
        // copying the same table entry run side by side (the build holds
        // no cache lock); each ends with an index over its own rows.
        let mut c = Catalog::new();
        c.create_table("T", Relation::new(edge_schema())).unwrap();
        let rows = (0..20_000).map(|i| row![i % 500, i, 1.0]).collect();
        c.insert_rows("T", rows, WalPolicy::None).unwrap();
        let hub = c.enable_mvcc();
        let pin = hub.pin();
        let probe = [Value::Int(7)];
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let snap = pin.catalog();
                let index = join_index(snap, "T", &[0]);
                index.probe(snap.relation("T").unwrap(), &probe, &[0]).count()
            });
            for i in 0..20 {
                c.insert_rows("T", vec![row![7, 100_000 + i, 1.0]], WalPolicy::None)
                    .unwrap();
            }
            assert_eq!(reader.join().unwrap(), 40, "the reader indexes its pinned rows");
        });
        let index = join_index(&c, "T", &[0]);
        assert_eq!(index.probe(c.relation("T").unwrap(), &probe, &[0]).count(), 60);
    }

    #[test]
    fn cow_clones_only_the_touched_table() {
        let mut c = Catalog::new();
        c.create_table("A", Relation::new(node_schema())).unwrap();
        c.create_table("B", Relation::new(node_schema())).unwrap();
        c.insert_rows("A", vec![row![1, 1.0]], WalPolicy::None).unwrap();
        c.insert_rows("B", vec![row![9, 9.0]], WalPolicy::None).unwrap();
        let hub = c.enable_mvcc();
        let pin = hub.pin();
        let a_before = c.relation("A").unwrap().rows().as_ptr();
        let b_before = c.relation("B").unwrap().rows().as_ptr();
        c.insert_rows("A", vec![row![2, 2.0]], WalPolicy::None).unwrap();
        // A was copied-on-write away from the pinned snapshot…
        assert_ne!(c.relation("A").unwrap().rows().as_ptr(), a_before);
        assert_eq!(pin.catalog().relation("A").unwrap().rows().as_ptr(), a_before);
        // …while untouched B is still the very same allocation everywhere
        assert_eq!(c.relation("B").unwrap().rows().as_ptr(), b_before);
        assert_eq!(pin.catalog().relation("B").unwrap().rows().as_ptr(), b_before);
    }

    #[test]
    fn concurrent_pinned_reads_while_writer_advances() {
        let mut c = Catalog::new();
        c.create_table("T", Relation::new(node_schema())).unwrap();
        let hub = c.enable_mvcc();
        let pin = hub.pin();
        let reader = std::thread::spawn(move || {
            // read the pinned (empty) generation from another thread
            pin.catalog().relation("T").unwrap().len()
        });
        for i in 0..10 {
            c.insert_rows("T", vec![row![i, i as f64]], WalPolicy::None).unwrap();
        }
        assert_eq!(reader.join().unwrap(), 0);
        assert_eq!(hub.pin().catalog().relation("T").unwrap().len(), 10);
    }
}
