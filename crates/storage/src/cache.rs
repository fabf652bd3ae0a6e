//! Per-table cache of derived indexes: leapfrog tries, and the hash join
//! indexes and group-key dictionaries of the fused aggregate-join.
//!
//! Every index kind is a pure function of a table's rows and a key-column
//! list, so one cache holds them and one [`IndexCache::clear`] — called by
//! every catalog mutation path (insert, truncate, delta, in-place access,
//! replace) — invalidates them together. Lookups go through `&Catalog`
//! (interior mutability), so plan execution can build lazily; a build is
//! paid once per table generation and then shared.
//!
//! MVCC: a table entry is `Arc`-shared between the writer and every
//! snapshot forked from it, cache included. The writer's copy-on-write
//! clone of an entry clones the *list* of `Arc`'d indexes into an
//! independent cache before clearing it, so a pinned reader keeps the
//! indexes of its own generation while the writer rebuilds over new rows.
//! Derived data is never WAL-logged; after recovery it is rebuilt on
//! demand.

use crate::keyidx::{KeyDict, KeyIndex};
use crate::relation::Relation;
use crate::trie::TrieIndex;
use std::sync::{Arc, Mutex, MutexGuard};

#[derive(Clone, Default)]
struct Entries {
    tries: Vec<Arc<TrieIndex>>,
    joins: Vec<Arc<KeyIndex>>,
    dicts: Vec<Arc<KeyDict>>,
}

/// The derived-index cache of one table entry.
#[derive(Default)]
pub struct IndexCache(Mutex<Entries>);

impl Clone for IndexCache {
    fn clone(&self) -> Self {
        IndexCache(Mutex::new(self.lock().clone()))
    }
}

impl std::fmt::Debug for IndexCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.lock();
        write!(
            f,
            "IndexCache({} tries, {} join indexes, {} dictionaries)",
            g.tries.len(),
            g.joins.len(),
            g.dicts.len()
        )
    }
}

impl IndexCache {
    fn lock(&self) -> MutexGuard<'_, Entries> {
        // a poisoned cache holds only complete, immutable indexes
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The index in `list` that `hit` accepts, or a new one from `build`.
    /// The build runs with the lock released: a snapshot reader paying a
    /// large build never holds up the writer's copy-on-write clone of this
    /// cache. If another thread cached a matching index meanwhile, that one
    /// is kept and returned, so each key-column list maps to one index.
    fn get_or_build<T>(
        &self,
        list: fn(&mut Entries) -> &mut Vec<Arc<T>>,
        hit: impl Fn(&T) -> bool,
        build: impl FnOnce() -> T,
        note: fn(bool),
    ) -> Arc<T> {
        let cached = list(&mut self.lock()).iter().find(|x| hit(x)).cloned();
        if let Some(found) = cached {
            note(true);
            return found;
        }
        note(false);
        let built = Arc::new(build());
        let mut g = self.lock();
        let l = list(&mut g);
        if let Some(first) = l.iter().find(|x| hit(x)) {
            return Arc::clone(first);
        }
        l.push(Arc::clone(&built));
        built
    }

    /// The cached trie for exactly `cols`, if built.
    pub fn cached_trie(&self, cols: &[usize]) -> Option<Arc<TrieIndex>> {
        self.lock().tries.iter().find(|t| t.covers(cols)).cloned()
    }

    /// The trie over `rel[cols]`, building and caching it on a miss.
    pub fn trie(&self, rel: &Relation, cols: &[usize]) -> Arc<TrieIndex> {
        self.get_or_build(
            |e| &mut e.tries,
            |t| t.covers(cols),
            || {
                let started = std::time::Instant::now();
                let t = TrieIndex::build(rel, cols);
                aio_metrics::global()
                    .engine
                    .trie_build_ms
                    .observe(started.elapsed().as_millis() as u64);
                t
            },
            aio_metrics::hooks::trie_cache,
        )
    }

    /// The hash join index over `rel[cols]`, building it with `partitions`
    /// hash-disjoint sub-tables on a miss. Probes are independent of the
    /// partition count, so a hit serves any parallelism.
    pub fn join_index(&self, rel: &Relation, cols: &[usize], partitions: usize) -> Arc<KeyIndex> {
        self.get_or_build(
            |e| &mut e.joins,
            |k| k.cols() == cols,
            || KeyIndex::build_partitioned(rel, cols, partitions),
            aio_metrics::hooks::join_index_cache,
        )
    }

    /// The group-key dictionary of `rel[cols]`, building and caching it on
    /// a miss. Counted with the join indexes: both serve the fused
    /// aggregate-join.
    pub fn key_dict(&self, rel: &Relation, cols: &[usize]) -> Arc<KeyDict> {
        self.get_or_build(
            |e| &mut e.dicts,
            |d| d.cols() == cols,
            || KeyDict::build(rel, cols),
            aio_metrics::hooks::join_index_cache,
        )
    }

    /// Drop every cached index (any mutation of the base rows).
    pub fn clear(&self) {
        let mut g = self.lock();
        g.tries.clear();
        g.joins.clear();
        g.dicts.clear();
    }

    /// Number of cached indexes of every kind.
    pub fn len(&self) -> usize {
        let g = self.lock();
        g.tries.len() + g.joins.len() + g.dicts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::edge_schema;
    use crate::row;

    fn rel() -> Relation {
        let mut r = Relation::new(edge_schema());
        r.extend([row![3, 1, 1.0], row![1, 2, 1.0], row![2, 3, 1.0]])
            .unwrap();
        r
    }

    #[test]
    fn cache_builds_once_and_clears() {
        let r = rel();
        let cache = IndexCache::default();
        assert!(cache.cached_trie(&[0, 1]).is_none());
        let a = cache.trie(&r, &[0, 1]);
        let b = cache.trie(&r, &[0, 1]);
        assert!(Arc::ptr_eq(&a, &b), "second lookup hits the cache");
        assert_eq!(cache.len(), 1);
        let _ = cache.trie(&r, &[1, 0]);
        assert_eq!(cache.len(), 2, "distinct column orders cache separately");
        let j = cache.join_index(&r, &[0], 2);
        assert!(
            Arc::ptr_eq(&j, &cache.join_index(&r, &[0], 1)),
            "hit at any partition count"
        );
        assert!(
            !Arc::ptr_eq(&j, &cache.join_index(&r, &[1], 1)),
            "keyed by exact columns"
        );
        let d = cache.key_dict(&r, &[1]);
        assert!(Arc::ptr_eq(&d, &cache.key_dict(&r, &[1])));
        assert_eq!(cache.len(), 5);
        cache.clear();
        assert!(cache.is_empty(), "one clear drops every kind");
        assert!(!Arc::ptr_eq(&j, &cache.join_index(&r, &[0], 1)));
    }

    #[test]
    fn builds_run_with_the_lock_released() {
        let (r, cache) = (rel(), IndexCache::default());
        let first = Arc::new(KeyIndex::build_partitioned(&r, &[0], 1));
        let got = cache.get_or_build(
            |e| &mut e.joins,
            |k| k.cols() == [0],
            || {
                // what a writer's copy-on-write clone does mid-build
                assert!(cache.0.try_lock().is_ok(), "lock held during build");
                // and another thread caching the same index first
                cache.lock().joins.push(Arc::clone(&first));
                KeyIndex::build_partitioned(&r, &[0], 1)
            },
            |_| {},
        );
        assert!(Arc::ptr_eq(&got, &first), "the first-cached index wins");
        assert_eq!(cache.len(), 1);
    }
}
