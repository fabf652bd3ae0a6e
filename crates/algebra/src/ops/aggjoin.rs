//! The fused aggregate-join kernel, and the paper's two aggregate-joins
//! (Section 4.1) built on it.
//!
//! MM-join and MV-join are defined as a θ-join followed by group-by &
//! aggregation, exactly as Eq. (3) and Eq. (4) spell them:
//!
//! ```text
//! A ⋈⊕(⊙)_{A.T=B.F} B  =  _{A.F,B.T} G _{⊕(⊙)} ( A ⋈_{A.T=B.F} B )   (MM-join)
//! A ⋈⊕(⊙)_{A.T=C.ID} C =  _{A.F}     G _{⊕(⊙)} ( A ⋈_{A.T=C.ID} C )  (MV-join)
//! ```
//!
//! [`agg_join`] evaluates that composition — any grouped aggregate over a
//! residual-free inner equi-join — as one pass under the hash strategies:
//!
//! - inputs are read where they sit; only their qualified schemas are
//!   derived, with no renaming copy;
//! - the build (right) side's [`KeyIndex`], and each side's group-key
//!   [`KeyDict`], come from the stored table's [`IndexCache`] when there is
//!   one, so a loop-invariant relation is hashed once per generation rather
//!   than once per fixpoint iteration;
//! - each (probe, build) match folds straight into a flat accumulator
//!   array, its group found from the dictionary codes of its two rows: no
//!   join row and no per-row `Key` is ever built;
//! - at parallelism `p`, worker `w` owns the groups whose code is
//!   `w (mod p)`. Every worker walks the matches in serial order and folds
//!   only its own groups, so each group folds its inputs in exactly the
//!   serial order: the result is bit-identical at every parallelism, and at
//!   `p = 1` bit-identical to `join` followed by `group_by`.
//!
//! The match order is the hash join's: probe rows in order, each probe
//! row's build matches in build-row order. Groups come out sorted by key,
//! as the hash group-by emits them. `ExecStats` and the join phase record
//! are filled exactly as the two operators it replaces would fill them.
//!
//! `mm_join_basic_ops` additionally spells MM-join out of *only* the six
//! basic operations + group-by (σ over ×), witnessing the paper's
//! definability claim; the tests assert it agrees with the kernel.

use crate::agg::{Accumulator, AggFunc};
use crate::error::{AlgebraError, Result};
use crate::expr::{Func, ScalarExpr};
use crate::ops::basic;
use crate::ops::groupby::{self, group_by};
use crate::ops::join::{join, record_phases, JoinKeys, JoinOrders, JoinPhases, JoinType};
use crate::par::{ParInfo, MIN_PARALLEL_ROWS};
use crate::profile::{AggStrategy, JoinStrategy};
use crate::semiring::Semiring;
use crate::stats::ExecStats;
use aio_storage::{
    key_has_null, FxHashMap, IndexCache, KeyDict, KeyIndex, Relation, Schema, Value,
};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// One input of [`agg_join`]: its rows (a stored table's, read in place,
/// or an evaluated subplan's) plus the qualified schema the plan's column
/// names resolve against.
pub struct AggJoinInput<'a> {
    pub rel: Cow<'a, Relation>,
    pub schema: Schema,
    /// The stored table's derived-index cache when this input is a base
    /// table scan. On the build (right) side the join index comes from it.
    pub cache: Option<&'a IndexCache>,
}

impl<'a> AggJoinInput<'a> {
    /// `rel` under qualifier `alias`, with no index cache.
    pub fn qualified(rel: &'a Relation, alias: &str) -> Self {
        AggJoinInput {
            rel: Cow::Borrowed(rel),
            schema: rel.schema().with_qualifier(alias),
            cache: None,
        }
    }
}

/// The kernel's result plus the cardinality of the join it did not
/// materialize (the traced evaluator reports it on the join span).
pub struct AggJoinOutput {
    pub rel: Relation,
    pub join_rows: u64,
    /// Threads the fold ran on (`ExecStats` accounts the parallelism the
    /// two replaced operators would have used, whatever this is).
    pub workers: usize,
}

/// Where an aggregate argument reads from.
enum Arg {
    Left(usize),
    Right(usize),
    /// A computed argument, bound against the concatenated row.
    Pair(ScalarExpr),
}

/// A match's group, as the dictionary codes of the group columns each side
/// contributes: one side's code alone indexes groups densely; codes from
/// both sides pack into one `u64` and go through a hash map.
struct Codes {
    left: Option<Arc<KeyDict>>,
    right: Option<Arc<KeyDict>>,
    /// Group column `j` is value `.1` of side `.0`'s (right = `true`) key.
    layout: Vec<(bool, usize)>,
}

impl Codes {
    fn dense(&self) -> Option<usize> {
        match (&self.left, &self.right) {
            (Some(d), None) | (None, Some(d)) => Some(d.len()),
            _ => None,
        }
    }

    /// The group key of packed `code`, in group-by column order.
    fn key_into(&self, code: u64, out: &mut Vec<Value>) {
        out.clear();
        for &(right, j) in &self.layout {
            let (dict, c) = match (right, &self.left, &self.right) {
                (false, Some(d), None) | (true, None, Some(d)) => (d, code as u32),
                (false, Some(d), Some(_)) => (d, (code >> 32) as u32),
                (true, Some(_), Some(d)) => (d, code as u32),
                _ => unreachable!("group column on a side without a dictionary"),
            };
            out.push(dict.key(c)[j].clone());
        }
    }
}

/// Everything a fold walk reads; shared by every worker.
struct Walk<'a> {
    left: &'a Relation,
    right: &'a Relation,
    lkeys: &'a [usize],
    index: &'a KeyIndex,
    codes: Codes,
    args: Vec<Arg>,
    funcs: Vec<AggFunc>,
    drop_last: bool,
}

/// One worker's groups, in first-match order: their packed codes and a
/// flat accumulator array, found through a dense code → group slot table
/// (one-sided keys) or a hash map (two-sided keys).
struct Groups {
    slots: Vec<u32>,
    map: FxHashMap<u64, u32>,
    codes: Vec<u64>,
    accs: Vec<Accumulator>,
}

const NO_GROUP: u32 = u32::MAX;

/// One worker's walk: its groups, the number of matches walked (after any
/// injected drop) and how many matches the armed fault dropped.
struct Folded {
    groups: Groups,
    matches: u64,
    dropped: u64,
}

impl Walk<'_> {
    /// Fold every match whose packed group code `owns` accepts, in serial
    /// match order. An error carries the ordinal of the match that raised
    /// it, so a parallel caller can report the one a serial walk hits
    /// first.
    fn fold(&self, owns: impl Fn(u64) -> bool) -> std::result::Result<Folded, (u64, AlgebraError)> {
        let na = self.funcs.len();
        let mut g = Groups {
            slots: vec![NO_GROUP; self.codes.dense().unwrap_or(0)],
            map: FxHashMap::default(),
            codes: Vec::new(),
            accs: Vec::new(),
        };
        let (mut ordinal, mut dropped) = (0u64, 0u64);
        let rrows = self.right.rows();
        for (li, lrow) in self.left.rows().iter().enumerate() {
            if key_has_null(lrow, self.lkeys) {
                continue;
            }
            let lcode = self.codes.left.as_ref().map(|d| d.code(li));
            let mut matches = self.index.probe(self.right, lrow, self.lkeys).peekable();
            while let Some(ri) = matches.next() {
                if self.drop_last && matches.peek().is_none() {
                    dropped += 1;
                    break;
                }
                let at = ordinal;
                ordinal += 1;
                let code = match (lcode, &self.codes.right) {
                    (Some(l), None) => u64::from(l),
                    (None, Some(d)) => u64::from(d.code(ri as usize)),
                    (Some(l), Some(d)) => u64::from(l) << 32 | u64::from(d.code(ri as usize)),
                    (None, None) => unreachable!("grouped aggregate without group columns"),
                };
                if !owns(code) {
                    continue;
                }
                let gid = g.find_or_insert(code, &self.funcs);
                let rrow = &rrows[ri as usize];
                for (acc, arg) in g.accs[gid * na..(gid + 1) * na].iter_mut().zip(&self.args) {
                    match arg {
                        Arg::Left(c) => acc.update(&lrow[*c]),
                        Arg::Right(c) => acc.update(&rrow[*c]),
                        Arg::Pair(e) => acc.update(&e.eval_pair(lrow, rrow).map_err(|e| (at, e))?),
                    }
                }
            }
        }
        Ok(Folded {
            groups: g,
            matches: ordinal,
            dropped,
        })
    }
}

impl Groups {
    /// The group of packed `code`, created with fresh accumulators on
    /// first sight.
    #[inline]
    fn find_or_insert(&mut self, code: u64, funcs: &[AggFunc]) -> usize {
        let next = self.codes.len() as u32;
        let slot = if self.slots.is_empty() {
            self.map.entry(code).or_insert(next)
        } else {
            &mut self.slots[code as usize]
        };
        if *slot == NO_GROUP {
            *slot = next;
        }
        let gid = *slot;
        if gid == next {
            self.codes.push(code);
            self.accs.extend(funcs.iter().map(|f| f.accumulator()));
        }
        gid as usize
    }
}

/// The worker owning packed group `code` at parallelism `p`: one-sided
/// codes interleave, two-sided ones go through a multiplicative mix.
#[inline]
fn owner(code: u64, dense: bool, p: usize) -> usize {
    let spread = if dense {
        code
    } else {
        code.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
    };
    let p = p as u64;
    // a mask when it can be: this runs once per match in every worker
    (if p.is_power_of_two() { spread & (p - 1) } else { spread % p }) as usize
}

/// The group-key dictionary of one side's group columns: cached on the
/// stored table when there is one, built for this call otherwise.
fn side_dict(side: &AggJoinInput<'_>, cols: &[usize]) -> Option<Arc<KeyDict>> {
    if cols.is_empty() {
        return None;
    }
    Some(match side.cache {
        Some(cache) => cache.key_dict(&side.rel, cols),
        None => Arc::new(KeyDict::build(&side.rel, cols)),
    })
}

/// `Aggregate { group_by, items }` over `Join { left, right, on, Inner }`
/// in one pass (see the module docs). `group_refs` must be non-empty;
/// names resolve against the concatenated `left ++ right` schema, exactly
/// as they would against the join's output.
pub fn agg_join(
    left: &AggJoinInput<'_>,
    right: &AggJoinInput<'_>,
    on: &[(String, String)],
    group_refs: &[String],
    items: &[(ScalarExpr, String)],
    par: usize,
    stats: &mut ExecStats,
) -> Result<AggJoinOutput> {
    let keys = JoinKeys::resolve_schemas(&left.schema, &right.schema, on)?;
    let (l, r): (&Relation, &Relation) = (&left.rel, &right.rel);
    stats.joins += 1;
    stats.rows_scanned += (l.len() + r.len()) as u64;
    record_phases(JoinPhases::default());
    let joined = left.schema.join(&right.schema);
    let group_cols: Vec<usize> = group_refs
        .iter()
        .map(|g| joined.index_of(g).map_err(Into::into))
        .collect::<Result<_>>()?;
    let c = groupby::compile(&joined, &group_cols, items)?;
    let schema = groupby::output_schema(&joined, &group_cols, &c);

    // Build: the join index on the right, each side's group dictionary.
    let larity = left.schema.arity();
    let build_start = Instant::now();
    let parts = if par > 1 && r.len() >= MIN_PARALLEL_ROWS { par } else { 1 };
    let index = match right.cache {
        Some(cache) => cache.join_index(r, &keys.right, parts),
        None => Arc::new(KeyIndex::build_partitioned(r, &keys.right, parts)),
    };
    let (mut lcols, mut rcols) = (Vec::new(), Vec::new());
    let layout = group_cols
        .iter()
        .map(|&g| match g.checked_sub(larity) {
            None => {
                lcols.push(g);
                (false, lcols.len() - 1)
            }
            Some(rc) => {
                rcols.push(rc);
                (true, rcols.len() - 1)
            }
        })
        .collect();
    let codes = Codes {
        left: side_dict(left, &lcols),
        right: side_dict(right, &rcols),
        layout,
    };
    let build_ns = build_start.elapsed().as_nanos() as u64;
    aio_metrics::global().engine.join_build_rows.observe(r.len() as u64);

    let args = c
        .aggs
        .iter()
        .map(|(_, arg)| match arg {
            ScalarExpr::BoundCol(i) if *i < larity => Arg::Left(*i),
            ScalarExpr::BoundCol(i) => Arg::Right(i - larity),
            e => Arg::Pair(e.clone()),
        })
        .collect();
    let walk = Walk {
        left: l,
        right: r,
        lkeys: &keys.left,
        index: &index,
        codes,
        args,
        funcs: c.aggs.iter().map(|(f, _)| *f).collect(),
        drop_last: crate::fault::aggjoin_fault_armed(),
    };

    // Probe and fold. `random()` draws from a per-thread stream, so an
    // argument using it keeps the walk on this thread.
    let deterministic = c.aggs.iter().all(|(_, a)| a.is_deterministic());
    let workers = if par > 1 && l.len() >= MIN_PARALLEL_ROWS && deterministic {
        par
    } else {
        1
    };
    let dense = walk.codes.dense().is_some();
    let probe_start = Instant::now();
    let folded: Vec<Folded> = if workers == 1 {
        vec![walk.fold(|_| true).map_err(|(_, e)| e)?]
    } else {
        let results: Vec<_> = std::thread::scope(|scope| {
            let walk = &walk;
            let handles: Vec<_> = (0..workers)
                .map(|w| scope.spawn(move || walk.fold(|code| owner(code, dense, workers) == w)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("aggregate-join worker panicked"))
                .collect()
        });
        let mut ok = Vec::with_capacity(workers);
        let mut first_err: Option<(u64, AlgebraError)> = None;
        for res in results {
            match res {
                Ok(f) => ok.push(f),
                Err((at, e)) => {
                    if first_err.as_ref().is_none_or(|(a, _)| at < *a) {
                        first_err = Some((at, e));
                    }
                }
            }
        }
        if let Some((_, e)) = first_err {
            return Err(e);
        }
        ok
    };
    let probe_ns = probe_start.elapsed().as_nanos() as u64;
    let matches = folded[0].matches;
    crate::fault::note_aggjoin_hits(folded[0].dropped);

    // Finish in key order. A one-sided code is its key's rank; two-sided
    // groups sort by key, then by code among storage-equal keys.
    let mut order: Vec<(u64, usize, usize)> = folded
        .iter()
        .enumerate()
        .flat_map(|(w, f)| f.groups.codes.iter().enumerate().map(move |(g, &code)| (code, w, g)))
        .collect();
    if dense {
        order.sort_unstable_by_key(|&(code, _, _)| code);
    } else {
        let (mut ka, mut kb) = (Vec::new(), Vec::new());
        order.sort_unstable_by(|a, b| {
            walk.codes.key_into(a.0, &mut ka);
            walk.codes.key_into(b.0, &mut kb);
            ka.cmp(&kb).then(a.0.cmp(&b.0))
        });
    }
    let na = walk.funcs.len();
    let mut key = Vec::with_capacity(group_cols.len());
    let mut out = Relation::new(schema);
    out.rows_mut().reserve(order.len());
    for (code, w, g) in order {
        walk.codes.key_into(code, &mut key);
        let accs = folded[w].groups.accs[g * na..(g + 1) * na].iter().cloned();
        groupby::finish_group(&key, accs, &c, &mut out)?;
    }

    // Account as the hash join and hash group-by this pass replaces.
    let probe = ParInfo::of(l.len(), par);
    record_phases(JoinPhases {
        build_ns,
        probe_ns,
        morsels: probe.morsels,
    });
    stats.note_parallel(&probe);
    stats.rows_produced += matches;
    stats.aggregations += 1;
    stats.rows_scanned += matches;
    stats.note_parallel(&ParInfo::of(matches as usize, par));
    stats.rows_produced += out.len() as u64;
    Ok(AggJoinOutput {
        rel: out,
        join_rows: matches,
        workers,
    })
}

/// Which product an MV-join computes (Section 4.3: `E ⋈ V` on `T = ID`
/// computes `Eᵀ·V`; on `F = ID` it computes `E·V`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MvOrientation {
    /// Join `A.F = C.ID`, group by `A.T`: the product `Aᵀ·C`. This is the
    /// orientation PageRank uses (mass flows *along* edges to targets).
    Transposed,
    /// Join `A.T = C.ID`, group by `A.F`: the plain product `A·C`
    /// (Eq. (2)/(4)). BFS from a source uses this on the reversed view.
    Plain,
}

/// The `⊙`-then-`⊕` select item: `⊕( left_col ⊙ right_col )`.
fn times_agg(sr: &Semiring, left_col: &str, right_col: &str) -> ScalarExpr {
    let l = ScalarExpr::col(left_col);
    let r = ScalarExpr::col(right_col);
    let times = if sr.name == "bottleneck(max,min)" {
        ScalarExpr::Func(Func::Least, vec![l, r])
    } else {
        ScalarExpr::binary(sr.times, l, r)
    };
    ScalarExpr::Agg(sr.plus, Box::new(times))
}

/// `group` G `items` over `A ⋈_{on} B`, with `a` qualified as `A` and `b`
/// as `qb`: the fused kernel under the hash strategies, today's sort-merge
/// join and sort aggregation otherwise (the PostgreSQL-like profile).
#[allow(clippy::too_many_arguments)]
fn aggregate_join(
    a: &Relation,
    b: &Relation,
    qb: &str,
    on: (&str, &str),
    group: &[String],
    items: &[(ScalarExpr, String)],
    join_strategy: JoinStrategy,
    agg_strategy: AggStrategy,
    stats: &mut ExecStats,
) -> Result<Relation> {
    let on = [(on.0.to_string(), on.1.to_string())];
    if join_strategy == JoinStrategy::Hash && agg_strategy == AggStrategy::Hash {
        let (a, b) = (AggJoinInput::qualified(a, "A"), AggJoinInput::qualified(b, qb));
        return Ok(agg_join(&a, &b, &on, group, items, 1, stats)?.rel);
    }
    let a = basic::rename(a, "A");
    let b = basic::rename(b, qb);
    let keys = JoinKeys::resolve(&a, &b, &on)?;
    let joined = join(
        &a,
        &b,
        &keys,
        None,
        JoinType::Inner,
        join_strategy,
        JoinOrders::default(),
        stats,
    )?;
    group_by(&joined, group, items, agg_strategy, stats)
}

/// MV-join `A ⋈⊕(⊙) C` over relations `A(F,T,ew)` and `C(ID,vw)`,
/// producing a vector relation `(ID, vw)`.
pub fn mv_join(
    a: &Relation,
    c: &Relation,
    sr: &Semiring,
    orientation: MvOrientation,
    join_strategy: JoinStrategy,
    agg_strategy: AggStrategy,
    stats: &mut ExecStats,
) -> Result<Relation> {
    let (join_col, group_col) = match orientation {
        MvOrientation::Plain => ("A.T", "A.F"),
        MvOrientation::Transposed => ("A.F", "A.T"),
    };
    aggregate_join(
        a,
        c,
        "C",
        (join_col, "C.ID"),
        &[group_col.into()],
        &[
            (ScalarExpr::col(group_col), "ID".into()),
            (times_agg(sr, "A.ew", "C.vw"), "vw".into()),
        ],
        join_strategy,
        agg_strategy,
        stats,
    )
}

/// MM-join `A ⋈⊕(⊙) B` over two matrix relations `A(F,T,ew)`, `B(F,T,ew)`,
/// joining `A.T = B.F` and producing a matrix relation `(F, T, ew)`
/// (Eq. (3)).
pub fn mm_join(
    a: &Relation,
    b: &Relation,
    sr: &Semiring,
    join_strategy: JoinStrategy,
    agg_strategy: AggStrategy,
    stats: &mut ExecStats,
) -> Result<Relation> {
    aggregate_join(
        a,
        b,
        "B",
        ("A.T", "B.F"),
        &["A.F".into(), "B.T".into()],
        &[
            (ScalarExpr::col("A.F"), "F".into()),
            (ScalarExpr::col("B.T"), "T".into()),
            (times_agg(sr, "A.ew", "B.ew"), "ew".into()),
        ],
        join_strategy,
        agg_strategy,
        stats,
    )
}

/// MM-join expressed with only σ, ×, ρ and group-by & aggregation — the
/// definability witness for Section 4.1's claim that the four operations
/// "can be defined by the 6 basic relational algebra operations with
/// group-by & aggregation".
pub fn mm_join_basic_ops(a: &Relation, b: &Relation, sr: &Semiring) -> Result<Relation> {
    let a = basic::rename(a, "A");
    let b = basic::rename(b, "B");
    let prod = basic::product(&a, &b)?;
    let sel = basic::select(
        &prod,
        &ScalarExpr::eq(ScalarExpr::col("A.T"), ScalarExpr::col("B.F")),
    )?;
    let mut stats = ExecStats::new();
    group_by(
        &sel,
        &["A.F".into(), "B.T".into()],
        &[
            (ScalarExpr::col("A.F"), "F".into()),
            (ScalarExpr::col("B.T"), "T".into()),
            (times_agg(sr, "A.ew", "B.ew"), "ew".into()),
        ],
        AggStrategy::Hash,
        &mut stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{BOOLEAN, COUNTING, TROPICAL};
    use aio_storage::{edge_schema, node_schema, row, Relation, Value};

    /// The 2×2 worked example of Table 8 in the appendix.
    fn matrix(vals: [[f64; 2]; 2]) -> Relation {
        let mut m = Relation::new(edge_schema());
        for (i, row_) in vals.iter().enumerate() {
            for (j, &v) in row_.iter().enumerate() {
                m.push(row![(i + 1) as i64, (j + 1) as i64, v]).unwrap();
            }
        }
        m
    }

    fn vector(vals: [f64; 2]) -> Relation {
        let mut v = Relation::new(node_schema());
        for (i, &x) in vals.iter().enumerate() {
            v.push(row![(i + 1) as i64, x]).unwrap();
        }
        v
    }

    fn get(m: &Relation, f: i64, t: i64) -> f64 {
        m.iter()
            .find(|r| r[0].as_int() == Some(f) && r[1].as_int() == Some(t))
            .unwrap()[2]
            .as_f64()
            .unwrap()
    }

    #[test]
    fn mm_join_matches_real_matrix_product() {
        let a = matrix([[1.0, 2.0], [3.0, 4.0]]);
        let b = matrix([[5.0, 6.0], [7.0, 8.0]]);
        let mut s = ExecStats::new();
        let ab = mm_join(&a, &b, &COUNTING, JoinStrategy::Hash, AggStrategy::Hash, &mut s).unwrap();
        assert_eq!(get(&ab, 1, 1), 19.0);
        assert_eq!(get(&ab, 1, 2), 22.0);
        assert_eq!(get(&ab, 2, 1), 43.0);
        assert_eq!(get(&ab, 2, 2), 50.0);
        assert_eq!(s.joins, 1);
        assert_eq!(s.aggregations, 1);
    }

    #[test]
    fn mv_join_matches_matrix_vector_product() {
        let a = matrix([[1.0, 2.0], [3.0, 4.0]]);
        let c = vector([10.0, 100.0]);
        let mut s = ExecStats::new();
        let ac = mv_join(
            &a,
            &c,
            &COUNTING,
            MvOrientation::Plain,
            JoinStrategy::Hash,
            AggStrategy::Hash,
            &mut s,
        )
        .unwrap();
        // A·C = (210, 430)
        let v1 = ac.iter().find(|r| r[0].as_int() == Some(1)).unwrap()[1].clone();
        let v2 = ac.iter().find(|r| r[0].as_int() == Some(2)).unwrap()[1].clone();
        assert_eq!(v1, Value::Float(210.0));
        assert_eq!(v2, Value::Float(430.0));
    }

    #[test]
    fn transposed_mv_join_is_a_transpose() {
        let a = matrix([[1.0, 2.0], [3.0, 4.0]]);
        let c = vector([10.0, 100.0]);
        let mut s = ExecStats::new();
        let atc = mv_join(
            &a,
            &c,
            &COUNTING,
            MvOrientation::Transposed,
            JoinStrategy::SortMerge,
            AggStrategy::Sort,
            &mut s,
        )
        .unwrap();
        // Aᵀ·C = (1*10+3*100, 2*10+4*100) = (310, 420)
        let v1 = atc.iter().find(|r| r[0].as_int() == Some(1)).unwrap()[1].clone();
        let v2 = atc.iter().find(|r| r[0].as_int() == Some(2)).unwrap()[1].clone();
        assert_eq!(v1, Value::Float(310.0));
        assert_eq!(v2, Value::Float(420.0));
    }

    #[test]
    fn tropical_mm_join_relaxes_distances() {
        // distances: A=direct hops, A² = best 2-hop distances
        let a = matrix([[f64::INFINITY, 1.0], [2.0, f64::INFINITY]]);
        let mut s = ExecStats::new();
        let aa = mm_join(&a, &a, &TROPICAL, JoinStrategy::Hash, AggStrategy::Hash, &mut s).unwrap();
        assert_eq!(get(&aa, 1, 1), 3.0, "1→2→1");
        assert_eq!(get(&aa, 2, 2), 3.0, "2→1→2");
    }

    #[test]
    fn boolean_mv_join_propagates_reachability() {
        let a = matrix([[0.0, 1.0], [0.0, 0.0]]);
        let c = vector([0.0, 1.0]); // node 2 visited
        let mut s = ExecStats::new();
        let out = mv_join(
            &a,
            &c,
            &BOOLEAN,
            MvOrientation::Plain,
            JoinStrategy::Hash,
            AggStrategy::Hash,
            &mut s,
        )
        .unwrap();
        // node 1 has edge weight 1 to visited node 2 → becomes 1
        let v1 = out.iter().find(|r| r[0].as_int() == Some(1)).unwrap()[1].clone();
        assert_eq!(v1, Value::Float(1.0));
    }

    #[test]
    fn fused_equals_basic_ops_composition() {
        let a = matrix([[1.0, 2.0], [3.0, 4.0]]);
        let b = matrix([[0.5, 0.0], [1.0, 2.0]]);
        for sr in [&COUNTING, &TROPICAL, &BOOLEAN] {
            let mut s = ExecStats::new();
            let fused =
                mm_join(&a, &b, sr, JoinStrategy::Hash, AggStrategy::Hash, &mut s).unwrap();
            let composed = mm_join_basic_ops(&a, &b, sr).unwrap();
            assert!(
                fused.same_rows_unordered(&composed),
                "{} disagrees",
                sr.name
            );
        }
    }

    #[test]
    fn folds_on_p_workers_past_the_morsel_threshold() {
        let n = MIN_PARALLEL_ROWS as i64;
        let mut e = Relation::new(edge_schema());
        for i in 0..n {
            e.push(row![i % 97, i % 89, 0.5]).unwrap();
        }
        let mut v = Relation::new(node_schema());
        for i in 0..97 {
            v.push(row![i, 1.0 / (i + 1) as f64]).unwrap();
        }
        let run = |arg: ScalarExpr, edges: &Relation, par: usize| {
            let (a, c) = (AggJoinInput::qualified(edges, "A"), AggJoinInput::qualified(&v, "C"));
            let on = [("A.F".to_string(), "C.ID".to_string())];
            let items = [(ScalarExpr::Agg(AggFunc::Sum, Box::new(arg)), "s".into())];
            agg_join(&a, &c, &on, &["A.T".into()], &items, par, &mut ExecStats::new()).unwrap()
        };
        let sum = ScalarExpr::col("C.vw");
        let serial = run(sum.clone(), &e, 1);
        assert_eq!(serial.workers, 1);
        for par in [2, 3] {
            let out = run(sum.clone(), &e, par);
            assert_eq!(out.workers, par, "one fold thread per unit of parallelism");
            assert_eq!(out.rel.rows(), serial.rel.rows(), "bit-identical at par {par}");
            assert_eq!(out.join_rows, serial.join_rows);
        }
        let small = Relation::from_rows(edge_schema(), e.rows()[..100].to_vec()).unwrap();
        assert_eq!(run(sum, &small, 2).workers, 1, "below the morsel threshold");
        let random = ScalarExpr::Func(Func::Random, vec![]);
        assert_eq!(run(random, &e, 2).workers, 1, "random() stays on this thread");
    }

    #[test]
    fn sparse_zero_rows_absent_from_output() {
        // relation representation omits structural zeros; a target with no
        // in-edges simply does not appear (the reason PageRank's ubu keeps
        // the old value for dangling targets)
        let mut a = Relation::new(edge_schema());
        a.push(row![1, 2, 1.0]).unwrap();
        let c = vector([1.0, 1.0]);
        let mut s = ExecStats::new();
        let out = mv_join(
            &a,
            &c,
            &COUNTING,
            MvOrientation::Plain,
            JoinStrategy::Hash,
            AggStrategy::Hash,
            &mut s,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(1));
    }
}
