//! Cross-crate integration tests: whole algorithms over dataset stand-ins
//! across all three engine profiles, plus with+ ↔ SQL'99 interplay.

use all_in_one::algos;
use all_in_one::graph::reference;
use all_in_one::prelude::*;

const SCALE: f64 = 0.0003;

#[test]
fn every_evaluated_algorithm_runs_on_every_dataset_kind() {
    // one undirected, one directed, one DAG stand-in
    for key in ["YT", "WV", "PC"] {
        let spec = DatasetSpec::by_key(key).unwrap();
        let g = spec.synthesize(SCALE);
        let profile = oracle_like();
        assert!(algos::sssp::run(&g, &profile, 0).is_ok(), "{key} sssp");
        assert!(algos::wcc::run(&g, &profile).is_ok(), "{key} wcc");
        assert!(algos::pagerank::run(&g, &profile, 0.85, 5).is_ok(), "{key} pr");
        assert!(algos::hits::run(&g, &profile, 5).is_ok(), "{key} hits");
        assert!(algos::kcore::run(&g, &profile, 3).is_ok(), "{key} kc");
        assert!(algos::lp::run(&g, &profile, 5).is_ok(), "{key} lp");
        assert!(algos::mis::run(&g, &profile, 7).is_ok(), "{key} mis");
        assert!(algos::mnm::run(&g, &profile).is_ok(), "{key} mnm");
        assert!(algos::ks::run(&g, &profile, [0, 1, 2], 4).is_ok(), "{key} ks");
        if key == "PC" {
            assert!(algos::toposort::run(&g, &profile).is_ok(), "{key} ts");
        }
    }
}

#[test]
fn profiles_compute_identical_results_for_deterministic_algorithms() {
    let g = DatasetSpec::by_key("TT").unwrap().synthesize(SCALE);
    let base = algos::pagerank::run(&g, &oracle_like(), 0.85, 8).unwrap().0;
    for profile in all_profiles() {
        let got = algos::pagerank::run(&g, &profile, 0.85, 8).unwrap().0;
        for (id, r) in &base {
            assert!((got[id] - r).abs() < 1e-12, "{} node {id}", profile.name);
        }
    }
}

#[test]
fn sql_results_match_native_references_end_to_end() {
    let g = DatasetSpec::by_key("WT").unwrap().synthesize(SCALE);
    // SSSP
    let (dist, _) = algos::sssp::run(&g, &db2_like(), 0).unwrap();
    let expected = reference::bellman_ford(&g, 0);
    for (v, &d) in expected.iter().enumerate() {
        let got = dist[&(v as i64)];
        assert!(
            (d.is_infinite() && got.is_infinite()) || (got - d).abs() < 1e-9,
            "node {v}"
        );
    }
    // WCC
    let (labels, _) = algos::wcc::run(&g, &db2_like()).unwrap();
    let expected = reference::wcc_min_label(&g);
    for (v, &l) in expected.iter().enumerate() {
        assert_eq!(labels[&(v as i64)], l as i64, "node {v}");
    }
}

#[test]
fn toposort_on_patent_citations_matches_kahn() {
    let g = DatasetSpec::by_key("PC").unwrap().synthesize(SCALE);
    assert!(g.is_dag());
    let (levels, _) = algos::toposort::run(&g, &postgres_like(true)).unwrap();
    let expected = reference::topo_levels(&g).unwrap();
    assert_eq!(levels.len(), g.node_count());
    for (v, &l) in expected.iter().enumerate() {
        assert_eq!(levels[&(v as i64)], l as i64);
    }
}

#[test]
fn sql99_engine_rejects_what_with_plus_accepts() {
    use all_in_one::withplus::sql99::{Sql99Engine, Sql99System};
    use all_in_one::withplus::{Parser, Statement};

    let pr = algos::pagerank::sql(5);
    let Statement::WithPlus(w) = Parser::parse_statement(&pr).unwrap() else {
        panic!()
    };
    // every emulated system rejects the Fig. 3 program (union by update +
    // aggregation inside recursion)…
    for sys in Sql99System::ALL {
        assert!(Sql99Engine::new(sys).validate(&w).is_err(), "{}", sys.name());
    }
    // …while with+ happily certifies it via Theorem 5.1
    let g = DatasetSpec::by_key("WV").unwrap().synthesize(SCALE);
    let mut db = algos::common::db_for(&g, &oracle_like(), algos::common::EdgeStyle::PageRank)
        .unwrap();
    db.set_param("c", 0.85);
    db.set_param("n", g.node_count() as f64);
    let compiled = db.prepare(&pr).unwrap();
    assert!(compiled.datalog.to_string().contains("P(s(T))"));
}

#[test]
fn union_by_update_impl_choice_does_not_change_results() {
    let g = DatasetSpec::by_key("WV").unwrap().synthesize(SCALE);
    let mut base: Option<std::collections::BTreeMap<i64, i64>> = None;
    for imp in [UbuImpl::Merge, UbuImpl::FullOuterJoin, UbuImpl::DropAlter, UbuImpl::UpdateFrom] {
        let mut db =
            algos::common::db_for(&g, &oracle_like(), algos::common::EdgeStyle::WithLoops(1.0))
                .unwrap();
        db.ubu_impl = imp;
        // min-label flood = WCC over the directed graph's stored edges
        let out = db
            .execute(
                "with C(ID, vw) as (
                   (select V.ID, 1.0 * V.ID from V)
                   union by update ID
                   (select E.T, min(C.vw * E.ew) from C, E where C.ID = E.F group by E.T))
                 select * from C",
            )
            .unwrap();
        let m: std::collections::BTreeMap<i64, i64> = out
            .relation
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_f64().unwrap() as i64))
            .collect();
        match &base {
            None => base = Some(m),
            Some(b) => assert_eq!(&m, b, "{:?}", imp),
        }
    }
}

#[test]
fn anti_join_impl_choice_does_not_change_toposort() {
    let g = DatasetSpec::by_key("PC").unwrap().synthesize(SCALE);
    let mut base: Option<Vec<(i64, i64)>> = None;
    for imp in [AntiJoinImpl::NotExists, AntiJoinImpl::LeftOuterNull, AntiJoinImpl::NotIn] {
        let mut db =
            algos::common::db_for(&g, &oracle_like(), algos::common::EdgeStyle::Raw).unwrap();
        db.anti_impl = imp;
        let out = db.execute(algos::toposort::SQL).unwrap();
        let mut m: Vec<(i64, i64)> = out
            .relation
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_f64().unwrap() as i64))
            .collect();
        m.sort_unstable();
        match &base {
            None => base = Some(m),
            Some(b) => assert_eq!(&m, b, "{:?}", imp),
        }
    }
}

#[test]
fn run_stats_expose_operator_counts() {
    // "in an iteration PR executes 1 MV-join and 1 union-by-update,
    // whereas HITS executes 2 MV-joins, 1 union-by-update, 1 θ-join, and
    // an extra aggregation" (Section 7.2)
    let g = DatasetSpec::by_key("WV").unwrap().synthesize(SCALE);
    let iters = 5;
    let (_, pr) = algos::pagerank::run(&g, &oracle_like(), 0.85, iters).unwrap();
    let (_, hits) = algos::hits::run(&g, &oracle_like(), iters).unwrap();
    assert_eq!(pr.stats.exec.union_by_updates as usize, iters);
    assert_eq!(pr.stats.exec.joins as usize, iters, "1 MV-join per iteration");
    assert_eq!(pr.stats.exec.aggregations as usize, iters);
    assert!(hits.stats.exec.joins as usize >= 3 * iters, "2 MV-joins + 1 θ-join");
    assert!(hits.stats.exec.aggregations as usize >= 3 * iters);
}

#[test]
fn early_selection_rewrite_preserves_algorithm_results() {
    // run the Fig. 9 SQL'99-style query (which has pushable predicates:
    // P.L < d) with and without the [41]-style push-down
    let g = DatasetSpec::by_key("WG").unwrap().synthesize(SCALE);
    let run = |level: all_in_one::algebra::Optimizer| {
        let mut db = algos::common::db_for(&g, &oracle_like(), algos::common::EdgeStyle::PageRank)
            .unwrap();
        db.set_optimizer(level);
        db.set_param("c", 0.85);
        db.set_param("n", g.node_count() as f64);
        db.execute(&algos::pagerank::sql99_fig9(6)).unwrap()
    };
    let plain = run(all_in_one::algebra::Optimizer::Off);
    let optimized = run(all_in_one::algebra::Optimizer::Rules);
    assert!(plain.relation.same_rows_unordered(&optimized.relation));
    // fewer tuples flow through the join once P.L < 6 is applied early
    assert!(optimized.stats.exec.rows_produced <= plain.stats.exec.rows_produced);
}

/// The fused aggregate-join caches the build side's join index on the
/// stored table. Mutating that table between two runs of the same with+
/// program must drop the index, so the second run answers over the new
/// rows — exactly as a fresh database loaded with them does.
#[test]
fn second_run_sees_build_side_mutation() {
    use all_in_one::algos::common::{db_for, EdgeStyle};
    use all_in_one::storage::WalPolicy;
    let g = generate(GraphKind::PowerLaw, 300, 2_000, true, 7);
    let setup = |db: &mut Database| {
        db.set_param("c", 0.85);
        db.set_param("n", 300.0);
    };
    let sql = algos::pagerank::sql(8);
    let mut db = db_for(&g, &oracle_like(), EdgeStyle::PageRank).unwrap();
    setup(&mut db);
    let before = db.execute(&sql).unwrap().relation;
    assert!(
        !db.catalog.entry("E").unwrap().cache.is_empty(),
        "the run cached E's join index on F"
    );
    db.catalog
        .insert_rows("E", vec![row![0, 5, 0.5], row![1, 5, 0.5]], WalPolicy::None)
        .unwrap();
    let after = db.execute(&sql).unwrap().relation;

    let mut fresh = Database::new(oracle_like());
    for t in ["E", "V", "L"] {
        fresh
            .create_table(t, db.catalog.relation(t).unwrap().clone())
            .unwrap();
    }
    setup(&mut fresh);
    let want = fresh.execute(&sql).unwrap().relation;
    assert_eq!(after.rows(), want.rows(), "second run answers over the new edges");
    assert_ne!(after.rows(), before.rows(), "the new edges change the ranks");
}
