//! Group-by & aggregation (`_X G_Y` in the paper's notation) and window
//! aggregation (`partition by`, Table 1 row D).
//!
//! `group_by` emits one row per group; `window` emits one row per *input*
//! row — the distinction the paper stresses when explaining why
//! `partition by` alone cannot replace `group by` for graph processing
//! ("every tuple in a group has a tuple in the resulting relation",
//! Section 3).

use crate::agg::{Accumulator, AggFunc};
use crate::error::{AlgebraError, Result};
use crate::expr::ScalarExpr;
use crate::profile::AggStrategy;
use crate::stats::ExecStats;
use aio_storage::{Column, DataType, FxHashMap, Key, Relation, Schema, Value};

/// A projection item compiled for grouped evaluation: aggregates extracted,
/// plain column references remapped to group-key positions.
pub(crate) struct CompiledItem {
    /// Expression over the synthetic row `[key values..]` with `AggRef`s.
    pub(crate) expr: ScalarExpr,
    pub(crate) name: String,
}

pub(crate) struct Compiled {
    pub(crate) items: Vec<CompiledItem>,
    /// (function, bound argument over the input schema)
    pub(crate) aggs: Vec<(AggFunc, ScalarExpr)>,
}

/// Rewrite a bound expression: extract `Agg` nodes into `aggs`, remap
/// group-column references to their key position, and reject references to
/// non-grouped columns (the SQL rule).
fn rewrite(
    e: &ScalarExpr,
    group_cols: &[usize],
    aggs: &mut Vec<(AggFunc, ScalarExpr)>,
) -> Result<ScalarExpr> {
    Ok(match e {
        ScalarExpr::Agg(f, inner) => {
            // inner stays bound against the *input* schema
            aggs.push((*f, (**inner).clone()));
            ScalarExpr::AggRef(aggs.len() - 1)
        }
        ScalarExpr::BoundCol(c) => {
            match group_cols.iter().position(|gc| gc == c) {
                Some(k) => ScalarExpr::BoundCol(k),
                None => {
                    return Err(AlgebraError::Aggregate(format!(
                        "column #{c} is neither grouped nor aggregated"
                    )))
                }
            }
        }
        ScalarExpr::Lit(v) => ScalarExpr::Lit(v.clone()),
        ScalarExpr::Unary(op, x) => {
            ScalarExpr::Unary(*op, Box::new(rewrite(x, group_cols, aggs)?))
        }
        ScalarExpr::Binary(op, l, r) => ScalarExpr::Binary(
            *op,
            Box::new(rewrite(l, group_cols, aggs)?),
            Box::new(rewrite(r, group_cols, aggs)?),
        ),
        ScalarExpr::Func(f, args) => ScalarExpr::Func(
            *f,
            args.iter()
                .map(|a| rewrite(a, group_cols, aggs))
                .collect::<Result<_>>()?,
        ),
        ScalarExpr::AggRef(_) => {
            return Err(AlgebraError::Aggregate("nested AggRef".into()))
        }
        ScalarExpr::Col(n) => {
            return Err(AlgebraError::Expr(format!("unbound column {n} in group-by")))
        }
    })
}

pub(crate) fn compile(
    input: &Schema,
    group_cols: &[usize],
    items: &[(ScalarExpr, String)],
) -> Result<Compiled> {
    let mut aggs = Vec::new();
    let mut out = Vec::with_capacity(items.len());
    for (e, name) in items {
        let bound = e.bind(input)?;
        let expr = rewrite(&bound, group_cols, &mut aggs)?;
        out.push(CompiledItem {
            expr,
            name: name.clone(),
        });
    }
    Ok(Compiled { items: out, aggs })
}

pub(crate) fn output_schema(input: &Schema, group_cols: &[usize], c: &Compiled) -> Schema {
    Schema::new(
        c.items
            .iter()
            .map(|it| {
                let ty = match &it.expr {
                    // plain key passthrough keeps its type
                    ScalarExpr::BoundCol(k) => input.columns()[group_cols[*k]].ty,
                    _ => DataType::Any,
                };
                Column::new(&it.name, ty)
            })
            .collect(),
    )
}

pub(crate) fn finish_group(
    key: &[Value],
    accs: impl IntoIterator<Item = Accumulator>,
    c: &Compiled,
    out: &mut Relation,
) -> Result<()> {
    let agg_vals: Vec<Value> = accs.into_iter().map(Accumulator::finish).collect();
    let row: Vec<Value> = c
        .items
        .iter()
        .map(|it| it.expr.eval_env(key, &agg_vals))
        .collect::<Result<_>>()?;
    out.rows_mut().push(row.into_boxed_slice());
    Ok(())
}

/// Group-by & aggregation. `group_refs` name the grouping columns (empty →
/// one global group); `items` are the select-list expressions, which may mix
/// grouped columns and aggregate calls. Serial (`par = 1`).
pub fn group_by(
    input: &Relation,
    group_refs: &[String],
    items: &[(ScalarExpr, String)],
    strategy: AggStrategy,
    stats: &mut ExecStats,
) -> Result<Relation> {
    group_by_par(input, group_refs, items, strategy, 1, stats)
}

/// [`group_by`] with an explicit worker-thread count. The hash strategy
/// aggregates each morsel into thread-local partial accumulators and merges
/// them in morsel order ([`Accumulator::merge`]); the global and sort paths
/// stay serial. Since hash output is sorted by group key either way, the
/// result rows are identical at every `par` (float sums are exactly the
/// serial ones at `par = 1` and deterministic for any fixed `par`).
pub fn group_by_par(
    input: &Relation,
    group_refs: &[String],
    items: &[(ScalarExpr, String)],
    strategy: AggStrategy,
    par: usize,
    stats: &mut ExecStats,
) -> Result<Relation> {
    stats.aggregations += 1;
    stats.rows_scanned += input.len() as u64;
    let group_cols: Vec<usize> = group_refs
        .iter()
        .map(|r| input.schema().index_of(r).map_err(Into::into))
        .collect::<Result<_>>()?;
    let c = compile(input.schema(), &group_cols, items)?;
    let schema = output_schema(input.schema(), &group_cols, &c);
    let mut out = Relation::new(schema);

    if group_cols.is_empty() {
        // Global aggregate: exactly one output row, even on empty input.
        let mut accs: Vec<Accumulator> =
            c.aggs.iter().map(|(f, _)| f.accumulator()).collect();
        for row in input.iter() {
            for (acc, (_, arg)) in accs.iter_mut().zip(&c.aggs) {
                acc.update(&arg.eval(row)?);
            }
        }
        finish_group(&[], accs, &c, &mut out)?;
        stats.rows_produced += 1;
        return Ok(out);
    }

    match strategy {
        AggStrategy::Hash => {
            // Each morsel builds thread-local partial aggregates; partials
            // merge into the first morsel's table in morsel order. With one
            // morsel this is exactly the serial loop.
            let (mut partials, info) =
                crate::par::run_morsels(input.len(), par, |range| {
                    let mut groups: FxHashMap<Key, Vec<Accumulator>> = FxHashMap::default();
                    for row in &input.rows()[range] {
                        let key = Key::of(row, &group_cols);
                        let accs = groups.entry(key).or_insert_with(|| {
                            c.aggs.iter().map(|(f, _)| f.accumulator()).collect()
                        });
                        for (acc, (_, arg)) in accs.iter_mut().zip(&c.aggs) {
                            acc.update(&arg.eval(row)?);
                        }
                    }
                    Ok(groups)
                })?;
            stats.note_parallel(&info);
            let mut groups = partials.remove(0);
            for partial in partials {
                for (key, accs) in partial {
                    match groups.entry(key) {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            for (into, from) in e.get_mut().iter_mut().zip(accs) {
                                into.merge(from);
                            }
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(accs);
                        }
                    }
                }
            }
            // Deterministic output order helps tests and reproducibility.
            let mut entries: Vec<(Key, Vec<Accumulator>)> = groups.into_iter().collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            for (key, accs) in entries {
                finish_group(&key.0, accs, &c, &mut out)?;
            }
        }
        AggStrategy::Sort => {
            stats.sorts += 1;
            let rows = input.rows();
            let mut perm: Vec<u32> = (0..rows.len() as u32).collect();
            perm.sort_unstable_by(|&a, &b| {
                Key::of(&rows[a as usize], &group_cols)
                    .cmp(&Key::of(&rows[b as usize], &group_cols))
            });
            let mut i = 0;
            while i < perm.len() {
                let key = Key::of(&rows[perm[i] as usize], &group_cols);
                let mut accs: Vec<Accumulator> =
                    c.aggs.iter().map(|(f, _)| f.accumulator()).collect();
                while i < perm.len() && Key::of(&rows[perm[i] as usize], &group_cols) == key {
                    let row = &rows[perm[i] as usize];
                    for (acc, (_, arg)) in accs.iter_mut().zip(&c.aggs) {
                        acc.update(&arg.eval(row)?);
                    }
                    i += 1;
                }
                finish_group(&key.0, accs, &c, &mut out)?;
            }
        }
    }
    stats.rows_produced += out.len() as u64;
    Ok(out)
}

/// Window aggregation: `expr OVER (PARTITION BY cols)` — one output row per
/// input row, with aggregates computed over the row's partition. Non-agg
/// parts of `items` may reference *any* input column (unlike `group by`).
pub fn window(
    input: &Relation,
    partition_refs: &[String],
    items: &[(ScalarExpr, String)],
    stats: &mut ExecStats,
) -> Result<Relation> {
    stats.aggregations += 1;
    stats.rows_scanned += input.len() as u64;
    let part_cols: Vec<usize> = partition_refs
        .iter()
        .map(|r| input.schema().index_of(r).map_err(Into::into))
        .collect::<Result<_>>()?;

    // Extract aggregates but keep plain columns as-is (bound to the input).
    let mut aggs: Vec<(AggFunc, ScalarExpr)> = Vec::new();
    fn extract(e: &ScalarExpr, aggs: &mut Vec<(AggFunc, ScalarExpr)>) -> ScalarExpr {
        match e {
            ScalarExpr::Agg(f, inner) => {
                aggs.push((*f, (**inner).clone()));
                ScalarExpr::AggRef(aggs.len() - 1)
            }
            ScalarExpr::Unary(op, x) => ScalarExpr::Unary(*op, Box::new(extract(x, aggs))),
            ScalarExpr::Binary(op, l, r) => ScalarExpr::Binary(
                *op,
                Box::new(extract(l, aggs)),
                Box::new(extract(r, aggs)),
            ),
            ScalarExpr::Func(f, args) => {
                ScalarExpr::Func(*f, args.iter().map(|a| extract(a, aggs)).collect())
            }
            other => other.clone(),
        }
    }
    let compiled: Vec<(ScalarExpr, String)> = items
        .iter()
        .map(|(e, n)| Ok((extract(&e.bind(input.schema())?, &mut aggs), n.clone())))
        .collect::<Result<_>>()?;

    // Pass 1: aggregate per partition.
    let mut partitions: FxHashMap<Key, Vec<Accumulator>> = FxHashMap::default();
    for row in input.iter() {
        let key = Key::of(row, &part_cols);
        let accs = partitions
            .entry(key)
            .or_insert_with(|| aggs.iter().map(|(f, _)| f.accumulator()).collect());
        for (acc, (_, arg)) in accs.iter_mut().zip(&aggs) {
            acc.update(&arg.eval(row)?);
        }
    }
    let finished: FxHashMap<Key, Vec<Value>> = partitions
        .into_iter()
        .map(|(k, accs)| (k, accs.into_iter().map(Accumulator::finish).collect()))
        .collect();

    // Pass 2: one output row per input row.
    let schema = Schema::new(
        compiled
            .iter()
            .map(|(_, n)| Column::new(n, DataType::Any))
            .collect(),
    );
    let mut out = Relation::new(schema);
    for row in input.iter() {
        let key = Key::of(row, &part_cols);
        let agg_vals = &finished[&key];
        let vals: Vec<Value> = compiled
            .iter()
            .map(|(e, _)| e.eval_env(row, agg_vals))
            .collect::<Result<_>>()?;
        out.rows_mut().push(vals.into_boxed_slice());
    }
    stats.rows_produced += out.len() as u64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_storage::{edge_schema, row};

    fn edges() -> Relation {
        let mut e = Relation::new(edge_schema());
        e.extend([
            row![1, 2, 1.0],
            row![1, 3, 2.0],
            row![2, 3, 4.0],
            row![2, 3, 8.0],
        ])
        .unwrap();
        e
    }

    fn sum_ew_by_f(strategy: AggStrategy) -> Relation {
        let mut s = ExecStats::new();
        group_by(
            &edges(),
            &["F".into()],
            &[
                (ScalarExpr::col("F"), "F".into()),
                (
                    ScalarExpr::Agg(AggFunc::Sum, Box::new(ScalarExpr::col("ew"))),
                    "total".into(),
                ),
            ],
            strategy,
            &mut s,
        )
        .unwrap()
    }

    #[test]
    fn hash_and_sort_agg_agree() {
        let h = sum_ew_by_f(AggStrategy::Hash);
        let s = sum_ew_by_f(AggStrategy::Sort);
        assert!(h.same_rows_unordered(&s));
        assert_eq!(h.len(), 2);
        let totals: Vec<f64> = h.iter().map(|r| r[1].as_f64().unwrap()).collect();
        assert_eq!(totals, vec![3.0, 12.0]);
    }

    #[test]
    fn expression_around_aggregate() {
        // c * sum(ew) + (1-c)/n : the PageRank f1(·) shape (Eq. 9)
        let mut s = ExecStats::new();
        let out = group_by(
            &edges(),
            &["T".into()],
            &[
                (ScalarExpr::col("T"), "ID".into()),
                (
                    ScalarExpr::binary(
                        crate::expr::BinOp::Add,
                        ScalarExpr::binary(
                            crate::expr::BinOp::Mul,
                            ScalarExpr::lit(0.5),
                            ScalarExpr::Agg(AggFunc::Sum, Box::new(ScalarExpr::col("ew"))),
                        ),
                        ScalarExpr::lit(100.0),
                    ),
                    "w".into(),
                ),
            ],
            AggStrategy::Hash,
            &mut s,
        )
        .unwrap();
        // T=2: 0.5*1+100 ; T=3: 0.5*14+100
        let ws: Vec<f64> = out.iter().map(|r| r[1].as_f64().unwrap()).collect();
        assert_eq!(ws, vec![100.5, 107.0]);
    }

    #[test]
    fn non_grouped_column_rejected() {
        let mut s = ExecStats::new();
        let err = group_by(
            &edges(),
            &["F".into()],
            &[(ScalarExpr::col("T"), "T".into())],
            AggStrategy::Hash,
            &mut s,
        )
        .unwrap_err();
        assert!(matches!(err, AlgebraError::Aggregate(_)));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let mut s = ExecStats::new();
        let empty = Relation::new(edge_schema());
        let out = group_by(
            &empty,
            &[],
            &[
                (
                    ScalarExpr::Agg(AggFunc::Count, Box::new(ScalarExpr::lit(1i64))),
                    "n".into(),
                ),
                (
                    ScalarExpr::Agg(AggFunc::Max, Box::new(ScalarExpr::col("ew"))),
                    "m".into(),
                ),
            ],
            AggStrategy::Hash,
            &mut s,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(0));
        assert!(out.rows()[0][1].is_null());
    }

    #[test]
    fn grouped_empty_input_yields_no_rows() {
        let mut s = ExecStats::new();
        let empty = Relation::new(edge_schema());
        let out = group_by(
            &empty,
            &["F".into()],
            &[(ScalarExpr::col("F"), "F".into())],
            AggStrategy::Sort,
            &mut s,
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn window_emits_one_row_per_input_row() {
        // sum(ew) over (partition by F) — the Fig. 9 building block
        let mut s = ExecStats::new();
        let out = window(
            &edges(),
            &["F".into()],
            &[
                (ScalarExpr::col("F"), "F".into()),
                (ScalarExpr::col("T"), "T".into()),
                (
                    ScalarExpr::Agg(AggFunc::Sum, Box::new(ScalarExpr::col("ew"))),
                    "p_sum".into(),
                ),
            ],
            &mut s,
        )
        .unwrap();
        assert_eq!(out.len(), 4, "partition by keeps every tuple");
        let by_f1: Vec<f64> = out
            .iter()
            .filter(|r| r[0].as_int() == Some(1))
            .map(|r| r[2].as_f64().unwrap())
            .collect();
        assert_eq!(by_f1, vec![3.0, 3.0]);
    }

    #[test]
    fn parallel_hash_agg_matches_serial() {
        // 20k rows, 97 groups, with NULL arguments sprinkled in
        let mut e = Relation::new(edge_schema());
        for i in 0..20_000i64 {
            if i % 11 == 0 {
                e.push(
                    vec![Value::Int(i % 97), Value::Int(i), Value::Null].into_boxed_slice(),
                )
                .unwrap();
            } else {
                e.push(row![i % 97, i, (i % 5) as f64]).unwrap();
            }
        }
        let items = [
            (ScalarExpr::col("F"), "F".to_string()),
            (
                ScalarExpr::Agg(AggFunc::Sum, Box::new(ScalarExpr::col("ew"))),
                "s".to_string(),
            ),
            (
                ScalarExpr::Agg(AggFunc::Count, Box::new(ScalarExpr::col("ew"))),
                "c".to_string(),
            ),
            (
                ScalarExpr::Agg(AggFunc::Min, Box::new(ScalarExpr::col("T"))),
                "lo".to_string(),
            ),
            (
                ScalarExpr::Agg(AggFunc::Max, Box::new(ScalarExpr::col("T"))),
                "hi".to_string(),
            ),
        ];
        let mut s0 = ExecStats::new();
        let serial =
            group_by(&e, &["F".into()], &items, AggStrategy::Hash, &mut s0).unwrap();
        assert_eq!(s0.parallel_ops, 0);
        for par in [2, 8] {
            let mut s = ExecStats::new();
            let p = group_by_par(&e, &["F".into()], &items, AggStrategy::Hash, par, &mut s)
                .unwrap();
            assert_eq!(p.len(), serial.len());
            assert_eq!(s.parallel_ops, 1);
            for (a, b) in serial.iter().zip(p.iter()) {
                assert_eq!(a[0], b[0]);
                assert_eq!(a[2], b[2], "count");
                assert_eq!(a[3], b[3], "min");
                assert_eq!(a[4], b[4], "max");
                // float sums regroup across morsels; equal to high precision
                let (x, y) = (a[1].as_f64().unwrap(), b[1].as_f64().unwrap());
                assert!((x - y).abs() < 1e-9 * x.abs().max(1.0), "par={par}");
            }
        }
    }

    #[test]
    fn sort_agg_counts_a_sort() {
        let mut s = ExecStats::new();
        group_by(
            &edges(),
            &["F".into()],
            &[(ScalarExpr::col("F"), "F".into())],
            AggStrategy::Sort,
            &mut s,
        )
        .unwrap();
        assert_eq!(s.sorts, 1);
        assert_eq!(s.aggregations, 1);
    }
}
