//! Property tests for morsel-parallel operator equivalence: for every join
//! type × physical strategy × parallelism setting, the parallel operators
//! must return *row-for-row identical* results to the serial pipeline (not
//! just set-equal — morsel buffers concatenate in morsel order), and the
//! parallel group-by's partial-aggregate merge must agree with the serial
//! fold for sum/min/max/count/avg including NULL keys and NULL arguments.
//!
//! Two scales: a small matrix that sweeps every combination cheaply, and
//! big inputs (tiled past the morsel threshold) where the fan-out actually
//! happens — confirmed through `ExecStats::parallel_ops`.
//!
//! The fused aggregate-join (`Aggregate` over an inner equi-join, hash
//! profile) is held to a stricter contract: every group folds its inputs in
//! serial order at any parallelism, so its results are *bit*-identical
//! across parallelism × execution mode, and at parallelism 1 bit-identical
//! to the unfused `join` followed by `group_by`.

use all_in_one::algebra::ops::{
    anti_join_par, group_by_par, join_par, rename, AntiJoinImpl, JoinKeys, JoinOrders, JoinType,
};
use all_in_one::algebra::{
    execute, fault, AggFunc, AggStrategy, BinOp, ExecMode, ExecStats, JoinStrategy, Plan,
    ScalarExpr,
};
use all_in_one::prelude::*;
use all_in_one::storage::{node_schema, Catalog, DataType};
use proptest::prelude::*;

/// Rows of `(id-or-NULL, payload)` with the given qualifier; ~1 in 8 keys
/// is NULL so every NULL rule gets exercised.
fn side(qual: &'static str, max_key: i64, n: std::ops::Range<usize>) -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0i64..8, 0i64..max_key, -4.0f64..4.0), n).prop_map(move |rows| {
        let mut r = Relation::new(node_schema().with_qualifier(qual));
        for (nul, k, w) in rows {
            let key = if nul == 0 { Value::Null } else { Value::Int(k) };
            r.push(vec![key, Value::Float(w)].into_boxed_slice()).unwrap();
        }
        r
    })
}

/// Like [`side`] but tiled past the morsel-split threshold (4096 rows) so
/// parallelism genuinely engages; tile `t` shifts keys by `t` to keep the
/// key distribution overlapping but not degenerate.
fn big_side(qual: &'static str, max_key: i64) -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0i64..8, 0i64..max_key, -4.0f64..4.0), 280..340).prop_map(
        move |rows| {
            let mut r = Relation::new(node_schema().with_qualifier(qual));
            for t in 0..16i64 {
                for (nul, k, w) in &rows {
                    let key = if *nul == 0 {
                        Value::Null
                    } else {
                        Value::Int(k + t)
                    };
                    r.push(vec![key, Value::Float(*w)].into_boxed_slice()).unwrap();
                }
            }
            r
        },
    )
}

fn on_id() -> JoinKeys {
    JoinKeys {
        left: vec![0],
        right: vec![0],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The full matrix: every join type × every physical variant ×
    /// parallelism ∈ {1, 2, 8} returns identical rows in identical order.
    #[test]
    fn join_matrix_is_row_identical_across_parallelism(
        l in side("L", 12, 0..40),
        r in side("R", 12, 0..40),
    ) {
        let keys = on_id();
        for jt in [JoinType::Inner, JoinType::Left, JoinType::Full] {
            for strat in [
                JoinStrategy::Hash,
                JoinStrategy::SortMerge,
                JoinStrategy::NestedLoop,
            ] {
                let mut s = ExecStats::new();
                let serial = join_par(
                    &l, &r, &keys, None, jt, strat,
                    JoinOrders::default(), 1, &mut s,
                ).unwrap();
                for par in [2usize, 8] {
                    let mut s2 = ExecStats::new();
                    let p = join_par(
                        &l, &r, &keys, None, jt, strat,
                        JoinOrders::default(), par, &mut s2,
                    ).unwrap();
                    prop_assert_eq!(serial.rows(), p.rows(), "{:?}/{:?} par={}", jt, strat, par);
                }
            }
        }
    }

    /// Anti-join spellings under the same sweep (output order included).
    #[test]
    fn anti_join_is_row_identical_across_parallelism(
        l in side("L", 12, 0..40),
        r in side("R", 12, 0..40),
    ) {
        let keys = on_id();
        for imp in AntiJoinImpl::ALL {
            let mut s = ExecStats::new();
            let serial =
                anti_join_par(&l, &r, &keys, imp, JoinStrategy::Hash, 1, &mut s).unwrap();
            for par in [2usize, 8] {
                let mut s2 = ExecStats::new();
                let p = anti_join_par(&l, &r, &keys, imp, JoinStrategy::Hash, par, &mut s2)
                    .unwrap();
                prop_assert_eq!(serial.rows(), p.rows(), "{} par={}", imp.name(), par);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// At sizes past the morsel threshold the hash join actually fans out
    /// (checked via stats) and is still row-for-row identical.
    #[test]
    fn big_hash_join_fans_out_and_stays_identical(
        l in big_side("L", 300),
        r in big_side("R", 300),
    ) {
        let keys = on_id();
        for jt in [JoinType::Inner, JoinType::Left, JoinType::Full] {
            let mut s = ExecStats::new();
            let serial = join_par(
                &l, &r, &keys, None, jt, JoinStrategy::Hash,
                JoinOrders::default(), 1, &mut s,
            ).unwrap();
            prop_assert_eq!(s.parallel_ops, 0);
            for par in [2usize, 8] {
                let mut s2 = ExecStats::new();
                let p = join_par(
                    &l, &r, &keys, None, jt, JoinStrategy::Hash,
                    JoinOrders::default(), par, &mut s2,
                ).unwrap();
                prop_assert_eq!(s2.parallel_ops, 1, "{:?} par={} did not fan out", jt, par);
                prop_assert!(s2.morsels > 1);
                prop_assert_eq!(serial.rows(), p.rows(), "{:?} par={}", jt, par);
            }
        }
    }

    /// Parallel partial-aggregate merge agrees with the serial fold for
    /// sum/min/max/count/avg, with NULL group keys and NULL arguments in
    /// the mix. Int-valued aggregates must match exactly; float sums may
    /// regroup, so they match to high relative precision.
    #[test]
    fn group_by_partial_merge_agrees_with_serial(
        rows in proptest::collection::vec(
            (0i64..8, 0i64..40, -3.0f64..3.0, 0i64..6), 280..340),
    ) {
        let schema = Schema::of(&[
            ("k", DataType::Int),
            ("x", DataType::Int),
            ("w", DataType::Float),
        ]);
        let mut rel = Relation::new(schema);
        for t in 0..16i64 {
            for (nul, k, w, xnul) in &rows {
                let key = if *nul == 0 { Value::Null } else { Value::Int(k + t) };
                let x = if *xnul == 0 { Value::Null } else { Value::Int(k * t) };
                rel.push(vec![key, x, Value::Float(*w)].into_boxed_slice()).unwrap();
            }
        }
        let agg = |f: AggFunc, col: &str, name: &str| {
            (
                ScalarExpr::Agg(f, Box::new(ScalarExpr::col(col))),
                name.to_string(),
            )
        };
        let items = [
            (ScalarExpr::col("k"), "k".to_string()),
            agg(AggFunc::Sum, "w", "sum_w"),
            agg(AggFunc::Count, "x", "cnt_x"),
            agg(AggFunc::Min, "x", "min_x"),
            agg(AggFunc::Max, "x", "max_x"),
            agg(AggFunc::Avg, "w", "avg_w"),
        ];
        let group = ["k".to_string()];
        let mut s = ExecStats::new();
        let serial =
            group_by_par(&rel, &group, &items, AggStrategy::Hash, 1, &mut s).unwrap();
        for par in [2usize, 8] {
            let mut s2 = ExecStats::new();
            let p = group_by_par(&rel, &group, &items, AggStrategy::Hash, par, &mut s2)
                .unwrap();
            prop_assert_eq!(s2.parallel_ops, 1, "par={} did not fan out", par);
            prop_assert_eq!(serial.len(), p.len());
            for (a, b) in serial.iter().zip(p.iter()) {
                prop_assert_eq!(&a[0], &b[0], "group key");
                prop_assert_eq!(&a[2], &b[2], "count");
                prop_assert_eq!(&a[3], &b[3], "min");
                prop_assert_eq!(&a[4], &b[4], "max");
                for fcol in [1usize, 5] {
                    match (&a[fcol], &b[fcol]) {
                        (Value::Null, Value::Null) => {}
                        (x, y) => {
                            let (x, y) = (x.as_f64().unwrap(), y.as_f64().unwrap());
                            prop_assert!(
                                (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                                "col {} {} vs {} par={}", fcol, x, y, par
                            );
                        }
                    }
                }
            }
        }
    }
}

/// `(k, g, w, x)` rows for one side of an aggregate-join: join key `k`
/// (NULL ~1 in 8), group column `g`, float payload `w`, int payload `x`
/// (NULL ~1 in 6). Tiled `tiles` times with keys shifted by the tile, so
/// `tiles = 16` carries the probe side past the 4096-row morsel threshold
/// while every build key stays duplicated.
fn agg_side(
    max_key: i64,
    n: std::ops::Range<usize>,
    tiles: i64,
) -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0i64..8, 0i64..max_key, 0i64..5, -4.0f64..4.0, 0i64..6), n)
        .prop_map(move |rows| {
            let schema = Schema::of(&[
                ("k", DataType::Int),
                ("g", DataType::Int),
                ("w", DataType::Float),
                ("x", DataType::Int),
            ]);
            let mut r = Relation::new(schema);
            for t in 0..tiles {
                for (nul, k, g, w, xnul) in &rows {
                    let key = if *nul == 0 { Value::Null } else { Value::Int(k + t) };
                    let x = if *xnul == 0 { Value::Null } else { Value::Int(k * g - t) };
                    r.push(vec![key, Value::Int(*g), Value::Float(*w), x].into_boxed_slice())
                        .unwrap();
                }
            }
            r
        })
}

/// Group keys drawn from either side, one or two columns.
const GROUPINGS: [&[&str]; 6] = [
    &["L.g"],
    &["R.g"],
    &["R.k"],
    &["L.g", "R.g"],
    &["R.g", "L.k"],
    &["L.x", "R.g"],
];

/// `Aggregate(Join(L, R))` grouped by `GROUPINGS[grouping]`, selecting the
/// group columns and all five aggregates over arguments from both sides
/// (plain columns and a computed product; NULLs in `x` and, through the
/// product, in `w`).
fn agg_join_plan(grouping: usize) -> Plan {
    let group: Vec<String> = GROUPINGS[grouping].iter().map(|g| g.to_string()).collect();
    let agg = |f: AggFunc, arg: ScalarExpr, name: &str| {
        (ScalarExpr::Agg(f, Box::new(arg)), name.to_string())
    };
    let mut items: Vec<(ScalarExpr, String)> =
        group.iter().map(|g| (ScalarExpr::col(g), g.replace('.', "_"))).collect();
    items.extend([
        agg(AggFunc::Sum, ScalarExpr::col("L.w"), "sum_lw"),
        agg(
            AggFunc::Sum,
            ScalarExpr::binary(BinOp::Mul, ScalarExpr::col("L.w"), ScalarExpr::col("R.w")),
            "sum_prod",
        ),
        agg(AggFunc::Count, ScalarExpr::col("R.x"), "cnt_rx"),
        agg(AggFunc::Min, ScalarExpr::col("R.w"), "min_rw"),
        agg(AggFunc::Max, ScalarExpr::col("L.x"), "max_lx"),
        agg(
            AggFunc::Avg,
            ScalarExpr::binary(BinOp::Add, ScalarExpr::col("R.w"), ScalarExpr::col("L.x")),
            "avg_mix",
        ),
    ]);
    Plan::Aggregate {
        input: Box::new(Plan::Join {
            left: Box::new(Plan::scan("L")),
            right: Box::new(Plan::scan("R")),
            on: vec![("L.k".into(), "R.k".into())],
            residual: None,
            kind: JoinType::Inner,
        }),
        group_by: group,
        items,
    }
}

fn agg_catalog(l: Relation, r: Relation) -> Catalog {
    let mut c = Catalog::new();
    c.create_table("L", l).unwrap();
    c.create_table("R", r).unwrap();
    c
}

/// The unfused reference: scan, hash join, hash group-by at parallelism
/// `par`, with the stats those operators report.
fn unfused(c: &Catalog, grouping: usize, par: usize) -> (Relation, ExecStats) {
    let Plan::Aggregate { group_by, items, .. } = agg_join_plan(grouping) else {
        unreachable!()
    };
    let l = rename(c.relation("L").unwrap(), "L");
    let r = rename(c.relation("R").unwrap(), "R");
    let mut s = ExecStats::new();
    s.rows_scanned += (l.len() + r.len()) as u64;
    let keys = JoinKeys::resolve(&l, &r, &[("L.k".into(), "R.k".into())]).unwrap();
    let joined = join_par(
        &l, &r, &keys, None, JoinType::Inner, JoinStrategy::Hash,
        JoinOrders::default(), par, &mut s,
    )
    .unwrap();
    let out = group_by_par(&joined, &group_by, &items, AggStrategy::Hash, par, &mut s).unwrap();
    (out, s)
}

/// Same rows in the same order, floats compared by bit pattern.
fn bit_identical(a: &Relation, b: &Relation) -> std::result::Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} rows vs {}", a.len(), b.len()));
    }
    for (i, (ra, rb)) in a.iter().zip(b.iter()).enumerate() {
        let same = ra.len() == rb.len()
            && ra.iter().zip(rb.iter()).all(|(x, y)| match (x, y) {
                (Value::Float(p), Value::Float(q)) => p.to_bits() == q.to_bits(),
                _ => x == y,
            });
        if !same {
            return Err(format!("row {i}: {ra:?} vs {rb:?}"));
        }
    }
    Ok(())
}

/// Run the fused kernel over every parallelism × exec cell and hold each
/// to the parallelism-1 row result bit for bit; that result must equal the
/// unfused operators bit for bit, and each cell's stats must equal the
/// unfused operators' at its parallelism.
fn check_agg_join_parity(c: &Catalog, grouping: usize) -> std::result::Result<(), TestCaseError> {
    let plan = agg_join_plan(grouping);
    let (serial, _) = execute(&plan, c, &oracle_like()).unwrap();
    let (reference, _) = unfused(c, grouping, 1);
    if let Err(e) = bit_identical(&serial, &reference) {
        return Err(TestCaseError::fail(format!("grouping {grouping}: fused vs unfused: {e}")));
    }
    for par in [1usize, 2, 8] {
        let (_, want_stats) = unfused(c, grouping, par);
        for exec in [ExecMode::Row, ExecMode::Batch] {
            let prof = oracle_like().with_parallelism(par).with_exec(exec);
            let (got, stats) = execute(&plan, c, &prof).unwrap();
            if let Err(e) = bit_identical(&got, &serial) {
                return Err(TestCaseError::fail(format!(
                    "grouping {grouping} par={par} {exec:?}: {e}"
                )));
            }
            prop_assert_eq!(&stats, &want_stats, "grouping {} par={} {:?}", grouping, par, exec);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Small inputs: every grouping shape, NULL keys and arguments,
    /// duplicate build keys.
    #[test]
    fn agg_join_is_bit_identical_small(
        l in agg_side(10, 0..40, 1),
        r in agg_side(10, 0..40, 1),
        grouping in 0usize..GROUPINGS.len(),
    ) {
        check_agg_join_parity(&agg_catalog(l, r), grouping)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Past the morsel threshold the kernel fans out (key-partitioned
    /// folding) and must still match the serial fold bit for bit.
    #[test]
    fn agg_join_is_bit_identical_past_the_morsel_threshold(
        l in agg_side(300, 280..340, 16),
        r in agg_side(300, 280..340, 16),
        grouping in 0usize..GROUPINGS.len(),
    ) {
        let c = agg_catalog(l, r);
        let prof = oracle_like().with_parallelism(2);
        let (_, s) = execute(&agg_join_plan(grouping), &c, &prof).unwrap();
        prop_assert_eq!(s.parallel_ops, 2, "join and aggregate both account as fanned out");
        check_agg_join_parity(&c, grouping)?;
    }
}

/// Teeth: a kernel that drops each probe row's last build match must be
/// caught by the parity check, at every parallelism.
#[test]
fn agg_join_parity_catches_a_dropped_match() {
    let mut l = Relation::new(Schema::of(&[
        ("k", DataType::Int),
        ("g", DataType::Int),
        ("w", DataType::Float),
        ("x", DataType::Int),
    ]));
    let mut r = Relation::new(l.schema().clone());
    for i in 0..4500i64 {
        let w = Value::Float(i as f64 * 0.5);
        let row = vec![Value::Int(i % 97), Value::Int(i % 5), w, Value::Int(i)];
        l.push(row.into_boxed_slice()).unwrap();
    }
    for i in 0..500i64 {
        let w = Value::Float(1.0 / (i + 1) as f64);
        let row = vec![Value::Int(i % 89), Value::Int(i % 7), w, Value::Int(-i)];
        r.push(row.into_boxed_slice()).unwrap();
    }
    let c = agg_catalog(l, r);
    for grouping in 0..GROUPINGS.len() {
        check_agg_join_parity(&c, grouping).unwrap();
        fault::inject_aggjoin_drop_last_match(true);
        let caught = check_agg_join_parity(&c, grouping).is_err();
        fault::inject_aggjoin_drop_last_match(false);
        assert!(fault::fault_hits() > 0, "grouping {grouping}: the planted fault never fired");
        assert!(caught, "grouping {grouping}: a dropped match went unnoticed");
    }
}
