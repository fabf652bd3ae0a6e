//! Borrowed-key hash index for allocation-free join probes.
//!
//! [`Relation::key_multimap`](crate::Relation::key_multimap) forces every
//! probe to materialize a [`Key`](crate::Key) — one `Box<[Value]>` clone per
//! probe row, which dominates the probe loop on large inputs. [`KeyIndex`]
//! removes that: it is a two-level map from a precomputed `FxHasher` hash of
//! the projected key columns to the row indices bearing that hash, and
//! probes compare column values *in place* (`&[Value]` against `&[Value]`).
//! No per-probe allocation, same match order as the keyed multimap (row
//! order within a bucket, hash collisions resolved by the equality filter).
//!
//! The index is built in `P` hash-disjoint partitions so builds can run on
//! `P` threads (partition `p` owns the rows with `hash % P == p`); partition
//! contents are independent of `P`, so probe results are too.
//!
//! Rows with a NULL in any key column are *not* indexed: SQL join semantics
//! never match NULL keys, and every probe path checks its own NULL rule
//! before probing ([`had_null_keys`](KeyIndex::had_null_keys) reports their
//! presence for `NOT IN`'s null-awareness).

use crate::hash::{FxHashMap, FxHasher};
use crate::relation::Relation;
use crate::value::Value;
use std::hash::{Hash, Hasher};

/// Hash of `row` projected to `cols`, matching [`Key`](crate::Key)'s `Hash`.
#[inline]
pub fn key_hash(row: &[Value], cols: &[usize]) -> u64 {
    let mut h = FxHasher::default();
    for &c in cols {
        row[c].hash(&mut h);
    }
    h.finish()
}

/// Is any of `row`'s `cols` NULL?
#[inline]
pub fn key_has_null(row: &[Value], cols: &[usize]) -> bool {
    cols.iter().any(|&c| row[c].is_null())
}

/// Do two rows agree on their respective key columns? Uses storage equality
/// (the same notion [`Key`](crate::Key) uses), so a `KeyIndex` probe and a
/// `Key`-map lookup see identical matches.
#[inline]
pub fn keys_eq(a: &[Value], a_cols: &[usize], b: &[Value], b_cols: &[usize]) -> bool {
    a_cols
        .iter()
        .zip(b_cols)
        .all(|(&ac, &bc)| a[ac] == b[bc])
}

/// Hash-partitioned, borrowed-key multimap over one relation's key columns.
pub struct KeyIndex {
    cols: Vec<usize>,
    parts: Vec<Part>,
    skipped_nulls: usize,
}

/// One hash partition in compressed-sparse-row form: each distinct key
/// hash maps to a `(start, end)` range of `rows`, which holds the row ids
/// of every hash group back to back, in row order within a group. Two
/// flat arrays instead of one vector per key: compact enough to cache per
/// table, and each probe's candidates are contiguous.
#[derive(Default)]
struct Part {
    ranges: FxHashMap<u64, (u32, u32)>,
    rows: Vec<u32>,
}

impl Part {
    /// Index the non-NULL-key rows of `rel` whose hash `keep` accepts;
    /// returns the partition and how many rows had a NULL key.
    fn build(rel: &Relation, cols: &[usize], keep: impl Fn(u64) -> bool) -> (Part, usize) {
        let mut keyed: Vec<(u64, u32)> = Vec::new();
        let mut ranges: FxHashMap<u64, (u32, u32)> = FxHashMap::default();
        let mut nulls = 0usize;
        for (i, row) in rel.rows().iter().enumerate() {
            if key_has_null(row, cols) {
                nulls += 1;
                continue;
            }
            let h = key_hash(row, cols);
            if keep(h) {
                ranges.entry(h).or_default().1 += 1;
                keyed.push((h, i as u32));
            }
        }
        // group sizes → (start, fill cursor); the cursor ends at the end
        let mut next = 0u32;
        for r in ranges.values_mut() {
            let len = r.1;
            *r = (next, next);
            next += len;
        }
        let mut rows = vec![0u32; keyed.len()];
        for (h, i) in keyed {
            let r = ranges.get_mut(&h).expect("counted above");
            rows[r.1 as usize] = i;
            r.1 += 1;
        }
        (Part { ranges, rows }, nulls)
    }
}

impl KeyIndex {
    /// Single-partition (serial) build.
    pub fn build(rel: &Relation, cols: &[usize]) -> KeyIndex {
        KeyIndex::build_partitioned(rel, cols, 1)
    }

    /// Build with `partitions` hash-disjoint sub-tables, one thread each.
    /// The resulting index is independent of `partitions` (only the physical
    /// layout changes), so any partition count yields identical probes.
    pub fn build_partitioned(rel: &Relation, cols: &[usize], partitions: usize) -> KeyIndex {
        let p = partitions.max(1);
        if p == 1 || rel.len() < p {
            let (part, nulls) = Part::build(rel, cols, |_| true);
            return KeyIndex {
                cols: cols.to_vec(),
                parts: vec![part],
                skipped_nulls: nulls,
            };
        }
        let mut parts: Vec<Part> = Vec::with_capacity(p);
        let mut skipped = 0usize;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..p)
                .map(|part| {
                    scope.spawn(move || Part::build(rel, cols, |h| (h as usize) % p == part))
                })
                .collect();
            for handle in handles {
                let (part, nulls) = handle.join().expect("key index build worker panicked");
                parts.push(part);
                // every worker scans all rows; each counts every NULL row
                skipped = nulls;
            }
        });
        KeyIndex {
            cols: cols.to_vec(),
            parts,
            skipped_nulls: skipped,
        }
    }

    /// Key columns this index was built over.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Were any build rows skipped for NULL key columns? (`NOT IN` cares.)
    pub fn had_null_keys(&self) -> bool {
        self.skipped_nulls > 0
    }

    /// Row indices whose key hashed to `hash` (superset of the true
    /// matches; callers filter with [`keys_eq`]).
    #[inline]
    pub fn candidates(&self, hash: u64) -> &[u32] {
        let part = &self.parts[(hash as usize) % self.parts.len()];
        match part.ranges.get(&hash) {
            Some(&(start, end)) => &part.rows[start as usize..end as usize],
            None => &[],
        }
    }

    /// Indices of `rel`'s rows whose key equals `probe_row[probe_cols]`, in
    /// row order. The caller must ensure the probe key is NULL-free (NULL
    /// semantics are the probe site's business). Allocation-free.
    #[inline]
    pub fn probe<'a>(
        &'a self,
        rel: &'a Relation,
        probe_row: &'a [Value],
        probe_cols: &'a [usize],
    ) -> impl Iterator<Item = u32> + 'a {
        let hash = key_hash(probe_row, probe_cols);
        self.candidates(hash).iter().copied().filter(move |&ri| {
            keys_eq(&rel.rows()[ri as usize], &self.cols, probe_row, probe_cols)
        })
    }

    /// Does any indexed row match the probe key?
    #[inline]
    pub fn contains(&self, rel: &Relation, probe_row: &[Value], probe_cols: &[usize]) -> bool {
        self.probe(rel, probe_row, probe_cols).next().is_some()
    }
}

/// Dense dictionary codes for one relation's key columns: `code(row)` is
/// the rank of the row's key among the relation's distinct keys, in
/// storage order (`Key` order; keys that compare equal there but differ,
/// like `1` and `1.0`, rank by first appearance). Unlike [`KeyIndex`],
/// NULL is an ordinary key value — this is the group-by view of the
/// columns, where NULLs form a group of their own.
pub struct KeyDict {
    cols: Vec<usize>,
    codes: Vec<u32>,
    /// Distinct keys in code order, `cols.len()` values each.
    keys: Vec<Value>,
}

impl KeyDict {
    /// Encode `rel[cols]`: one hash pass assigning first-appearance codes,
    /// then one sort of the distinct keys.
    pub fn build(rel: &Relation, cols: &[usize]) -> KeyDict {
        let nk = cols.len();
        let mut heads: FxHashMap<u64, u32> = FxHashMap::default();
        let mut next: Vec<u32> = Vec::new();
        let mut firsts: Vec<u32> = Vec::new();
        let mut codes: Vec<u32> = Vec::with_capacity(rel.len());
        let rows = rel.rows();
        for (i, row) in rows.iter().enumerate() {
            let h = key_hash(row, cols);
            let head = heads.get(&h).copied().unwrap_or(u32::MAX);
            let mut c = head;
            while c != u32::MAX && !keys_eq(&rows[firsts[c as usize] as usize], cols, row, cols) {
                c = next[c as usize];
            }
            if c == u32::MAX {
                c = firsts.len() as u32;
                firsts.push(i as u32);
                next.push(head);
                heads.insert(h, c);
            }
            codes.push(c);
        }
        let firsts = &firsts;
        let key_of = |c: u32| {
            let row = &rows[firsts[c as usize] as usize];
            cols.iter().map(move |&k| &row[k])
        };
        let mut order: Vec<u32> = (0..firsts.len() as u32).collect();
        // codes are first-appearance ranks, so the code breaks key ties
        order.sort_unstable_by(|&a, &b| key_of(a).cmp(key_of(b)).then(a.cmp(&b)));
        let mut rank = vec![0u32; order.len()];
        for (r, &c) in order.iter().enumerate() {
            rank[c as usize] = r as u32;
        }
        for c in &mut codes {
            *c = rank[*c as usize];
        }
        let mut keys = Vec::with_capacity(order.len() * nk);
        for &c in &order {
            keys.extend(key_of(c).cloned());
        }
        KeyDict {
            cols: cols.to_vec(),
            codes,
            keys,
        }
    }

    /// Key columns this dictionary encodes.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        if self.cols.is_empty() {
            return usize::from(!self.codes.is_empty());
        }
        self.keys.len() / self.cols.len()
    }

    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Code of row `row`'s key.
    #[inline]
    pub fn code(&self, row: usize) -> u32 {
        self.codes[row]
    }

    /// The key with code `code`.
    #[inline]
    pub fn key(&self, code: u32) -> &[Value] {
        let nk = self.cols.len();
        &self.keys[code as usize * nk..(code as usize + 1) * nk]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{edge_schema, Key};
    use crate::row;

    fn rel() -> Relation {
        let mut e = Relation::new(edge_schema());
        e.extend([
            row![1, 2, 1.0],
            row![2, 3, 1.0],
            row![1, 3, 2.0],
            row![4, 1, 1.0],
            row![1, 2, 9.0],
        ])
        .unwrap();
        e.push(vec![Value::Null, Value::Int(7), Value::Float(0.0)].into_boxed_slice())
            .unwrap();
        e
    }

    #[test]
    fn probe_matches_key_multimap_in_order() {
        let r = rel();
        for parts in [1, 2, 4, 7] {
            let idx = KeyIndex::build_partitioned(&r, &[0], parts);
            let map = r.key_multimap(&[0]);
            for probe in r.rows() {
                if key_has_null(probe, &[0]) {
                    continue;
                }
                let got: Vec<u32> = idx.probe(&r, probe, &[0]).collect();
                let want = map.get(&Key::of(probe, &[0])).cloned().unwrap_or_default();
                assert_eq!(got, want, "parts={parts}");
            }
        }
    }

    #[test]
    fn null_rows_not_indexed_but_reported() {
        let r = rel();
        let idx = KeyIndex::build(&r, &[0]);
        assert!(idx.had_null_keys());
        let total: usize = (0..r.len() as u32)
            .filter(|&i| !key_has_null(&r.rows()[i as usize], &[0]))
            .count();
        let indexed: usize = r
            .rows()
            .iter()
            .filter(|row| !key_has_null(row, &[0]))
            .map(|row| idx.probe(&r, row, &[0]).count())
            .sum::<usize>()
            / 2; // each duplicate F=1 row sees all three F=1 rows ... just check nonzero
        assert!(indexed > 0 && total == 5);
    }

    #[test]
    fn cross_column_probe() {
        // probe a different relation on different column positions
        let r = rel();
        let idx = KeyIndex::build(&r, &[1]); // key on T
        let probe_row = [Value::Float(0.0), Value::Int(3)];
        let hits: Vec<u32> = idx.probe(&r, &probe_row, &[1]).collect();
        assert_eq!(hits, vec![1, 2], "rows with T=3, in row order");
        assert!(idx.contains(&r, &probe_row, &[1]));
        let miss = [Value::Float(0.0), Value::Int(99)];
        assert!(!idx.contains(&r, &miss, &[1]));
    }

    #[test]
    fn partitioned_build_is_layout_only() {
        let r = rel();
        let a = KeyIndex::build_partitioned(&r, &[0, 1], 1);
        let b = KeyIndex::build_partitioned(&r, &[0, 1], 3);
        assert_eq!(b.partitions(), 3);
        for probe in r.rows() {
            if key_has_null(probe, &[0, 1]) {
                continue;
            }
            let va: Vec<u32> = a.probe(&r, probe, &[0, 1]).collect();
            let vb: Vec<u32> = b.probe(&r, probe, &[0, 1]).collect();
            assert_eq!(va, vb);
        }
    }

    #[test]
    fn dict_codes_rank_keys_in_storage_order() {
        let r = rel();
        let d = KeyDict::build(&r, &[0]);
        // F column: 1, 2, 1, 4, 1, NULL → NULL < 1 < 2 < 4
        let codes: Vec<u32> = (0..r.len()).map(|i| d.code(i)).collect();
        assert_eq!(codes, vec![1, 2, 1, 3, 1, 0]);
        assert_eq!(d.len(), 4);
        assert_eq!(d.key(0), &[Value::Null]);
        assert_eq!(d.key(3), &[Value::Int(4)]);
        let two = KeyDict::build(&r, &[0, 1]);
        assert_eq!(two.code(0), two.code(4), "duplicate (1, 2) rows share a code");
        assert_eq!(two.len(), 5);
        for c in 1..two.len() as u32 {
            assert!(two.key(c - 1) < two.key(c), "codes follow key order");
        }
    }

    #[test]
    fn dict_keeps_storage_unequal_keys_apart() {
        use crate::schema::{DataType, Schema};
        let mut r = Relation::new(Schema::of(&[("k", DataType::Any)]));
        for v in [Value::Float(1.0), Value::Int(1), Value::Float(1.0), Value::Int(0)] {
            r.push(vec![v].into_boxed_slice()).unwrap();
        }
        let d = KeyDict::build(&r, &[0]);
        assert_eq!(d.len(), 3, "1 and 1.0 are different keys");
        assert_eq!(d.code(0), d.code(2));
        assert_eq!((d.code(3), d.code(0), d.code(1)), (0, 1, 2), "ties rank by first appearance");
    }

    #[test]
    fn keys_eq_uses_storage_equality() {
        let a = [Value::Null, Value::Int(1)];
        let b = [Value::Int(1), Value::Null];
        assert!(keys_eq(&a, &[0], &b, &[1]), "storage equality: NULL == NULL");
        assert!(keys_eq(&a, &[1], &b, &[0]));
        assert!(!keys_eq(&a, &[0], &b, &[0]));
    }
}
