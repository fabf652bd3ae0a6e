//! `fig8-suite`: one pass runs the ten Fig. 8 algorithms
//! (`aio_bench::runner::FIG8_ALGOS`) with the paper's parameters on the
//! Wiki-Vote stand-in, under the unchanged paper profile (`oracle_like`:
//! serial, row mode, optimizer off). The relations fit in cache and the
//! iterations are short and many, so per-iteration PSM bookkeeping weighs
//! more than on `pagerank`; it also runs anti-join, distinct, window, sort
//! and multi-key group-by.
//!
//! Each algorithm's tables are loaded once at set-up exactly as its
//! `aio_algos::<algo>::run` loads them; a pass executes the ten SQL texts.

use crate::batch::{Batch, Check, Floors, Stmt};
use crate::checks::{self, time_reference};
use crate::{Args, Report};
use aio_algebra::oracle_like;
use aio_algos::common::{db_for, set_node_weights, EdgeStyle};
use aio_algos::{hits, kcore, ks, lp, mis, mnm, pagerank, sssp, toposort, wcc};
use aio_graph::{reference, DatasetSpec, Graph};
use aio_storage::row;
use aio_withplus::Database;
use std::collections::BTreeSet;

/// Wiki-Vote scaled to about 20k edges (1.4k nodes).
pub const FULL_SCALE: f64 = 0.193;
pub const TINY_SCALE: f64 = 0.004;

/// The paper's parameters (`aio_bench::runner`): 15 iterations for PR,
/// HITS and LP; k = 5 for k-core; KS with labels 0, 1, 2 to depth 4; SSSP
/// from node 0; MIS with `random()` seeded by 1000.
const ITERS: usize = 15;
const KCORE_K: i64 = 5;
const KS_LABELS: [i64; 3] = [0, 1, 2];
const KS_DEPTH: usize = 4;
const MIS_SEED: u64 = 1000;

fn load(g: &Graph, style: EdgeStyle, reverse_edges: bool) -> Database {
    let mut db = db_for(g, &oracle_like(), style).expect("load fig8 tables");
    if reverse_edges {
        let rev: Vec<_> = g
            .edges()
            .map(|(u, v, w)| row![v as i64, u as i64, w])
            .collect();
        db.catalog
            .relation_mut("E")
            .expect("E loaded")
            .rows_mut()
            .extend(rev);
    }
    db
}

/// The ten databases, in `aio_bench::runner::FIG8_ALGOS` order.
fn setup(g: &Graph) -> Vec<Database> {
    let mut sssp_db = load(g, EdgeStyle::WithLoops(0.0), false);
    let seeds: Vec<(i64, f64)> = (0..g.node_count() as i64)
        .map(|v| (v, if v == 0 { 0.0 } else { f64::INFINITY }))
        .collect();
    set_node_weights(&mut sssp_db, &seeds).expect("seed SSSP distances");
    let mut pr_db = load(g, EdgeStyle::PageRank, false);
    pr_db.set_param("c", 0.85);
    pr_db.set_param("n", g.node_count() as f64);
    let mut kc_db = load(g, EdgeStyle::Raw, false);
    kc_db.set_param("k", KCORE_K);
    vec![
        sssp_db,
        load(g, EdgeStyle::WithLoops(1.0), g.directed),
        pr_db,
        load(g, EdgeStyle::Raw, false),
        load(g, EdgeStyle::Raw, false),
        kc_db,
        load(g, EdgeStyle::Raw, g.directed),
        load(g, EdgeStyle::Raw, false),
        load(g, EdgeStyle::Raw, g.directed),
        load(g, EdgeStyle::WithLoops(1.0), false),
    ]
}

/// Input graphs per run.
const GRAPHS: usize = 6;

pub fn run(args: &Args, scale: f64) -> Report {
    let mut rep = Report::default();
    let spec = DatasetSpec::by_key("WV").expect("Wiki-Vote spec");
    let inputs = crate::timed_setups(&mut rep, GRAPHS, |i| {
        let g = spec.synthesize_seeded(scale, crate::graph_seed(args.seed, GRAPHS, i));
        let dbs = setup(&g);
        (g, dbs)
    });
    let (n, m) = spec.scaled(scale);
    rep.line(format!(
        "{} Wiki-Vote stand-ins of {n} nodes and {m} edges from seed {}; profile oracle_like, \
         serial, row mode, optimizer off",
        inputs.len(),
        args.seed
    ));
    let mut batch = Batch {
        dbs: Vec::new(),
        passes: Vec::new(),
    };
    let mut floors = Floors::new();
    for (g, dbs) in inputs {
        batch
            .passes
            .push(statements(&g, batch.dbs.len(), &mut floors));
        batch.dbs.extend(dbs);
    }
    batch.run(args, &mut rep, &floors);
    rep
}

/// The ten statements over the databases `first_db..first_db + 10` built
/// by [`setup`] for `g`; adds each algorithm's native floor to `floors`.
fn statements(g: &Graph, first_db: usize, floors: &mut Floors) -> Vec<Stmt> {
    let mut stmts = Vec::new();
    let mut add = |label: &'static str, sql: String, check: Check| {
        let db = first_db + stmts.len();
        let random_seed = (label == "MIS").then_some(MIS_SEED);
        stmts.push(Stmt {
            label,
            db,
            sql,
            random_seed,
            check,
        });
    };

    let (bf, f) = time_reference(|| reference::bellman_ford(g, 0));
    floors.entry("SSSP").or_default().push(f);
    add(
        "SSSP",
        sssp::SQL.into(),
        Box::new(move |rel| checks::node_f64(rel, &bf, 1e-9)),
    );

    let (labels, f) = time_reference(|| reference::wcc_min_label(g));
    floors.entry("WCC").or_default().push(f);
    let labels: Vec<i64> = labels.into_iter().map(i64::from).collect();
    add(
        "WCC",
        wcc::SQL.into(),
        Box::new(move |rel| checks::node_label(rel, &labels)),
    );

    let gw = reference::with_pagerank_weights(g);
    let (pr, f) = time_reference(|| reference::pagerank(&gw, 0.85, ITERS));
    floors.entry("PR").or_default().push(f);
    add(
        "PR",
        pagerank::sql(ITERS),
        Box::new(move |rel| checks::node_f64(rel, &pr, 1e-9)),
    );

    let (_, f) = time_reference(|| reference::hits(g, ITERS));
    floors.entry("HITS").or_default().push(f);
    let (h, a) = checks::hits_sql_semantics(g, ITERS);
    add(
        "HITS",
        hits::sql(ITERS),
        Box::new(move |rel| checks::hits(rel, &h, &a, 1e-9)),
    );

    let (_, f) = time_reference(|| reference::topo_levels(g));
    floors.entry("TS").or_default().push(f);
    let gt = g.clone();
    add(
        "TS",
        toposort::SQL.into(),
        Box::new(move |rel| checks::toposort(rel, &gt)),
    );

    let (alive, f) = time_reference(|| reference::kcore(g, KCORE_K as usize));
    floors.entry("KC").or_default().push(f);
    let core: BTreeSet<i64> = (0..alive.len() as i64)
        .filter(|&v| alive[v as usize])
        .collect();
    add(
        "KC",
        kcore::SQL.into(),
        Box::new(move |rel| {
            let ends = rel
                .iter()
                .flat_map(|r| [r[0].as_int(), r[1].as_int()])
                .flatten();
            checks::node_set(ends, &core)
        }),
    );

    let gm = g.clone();
    add(
        "MIS",
        mis::SQL.into(),
        Box::new(move |rel| {
            let mut flags = vec![false; gm.node_count()];
            for r in rel.iter() {
                let member = r[1].as_f64() == Some(1.0) || r[1].as_int() == Some(1);
                match r[0].as_int().and_then(|v| usize::try_from(v).ok()) {
                    Some(v) if v < flags.len() => flags[v] |= member,
                    _ => return Err(format!("bad node id {:?}", r[0])),
                }
            }
            if reference::is_maximal_independent_set(&gm, &flags) {
                Ok(())
            } else {
                Err("not a maximal independent set".into())
            }
        }),
    );

    let (lab, f) = time_reference(|| lp::reference_lp(g, ITERS));
    floors.entry("LP").or_default().push(f);
    add(
        "LP",
        lp::sql(ITERS),
        Box::new(move |rel| checks::node_label(rel, &lab)),
    );

    // Matching is over the underlying undirected graph (MNM symmetrizes E).
    let edges: Vec<(u32, u32, f64)> = g.edges().collect();
    let und = Graph::from_edges(g.node_count(), &edges, false);
    add(
        "MNM",
        mnm::SQL.into(),
        Box::new(move |rel| {
            let mut pairs = Vec::new();
            for r in rel.iter() {
                let (v, mate) = (
                    r[0].as_int().unwrap_or(-1),
                    r[1].as_f64().unwrap_or(-1.0) as i64,
                );
                if mate >= 0 && v < mate {
                    pairs.push((v as u32, mate as u32));
                }
            }
            if reference::is_maximal_matching(&und, &pairs) {
                Ok(())
            } else {
                Err("not a maximal matching".into())
            }
        }),
    );

    let (roots, f) = time_reference(|| ks::reference_ks(g, KS_LABELS, KS_DEPTH));
    floors.entry("KS").or_default().push(f);
    let roots: BTreeSet<i64> = roots.into_iter().collect();
    add(
        "KS",
        ks::sql(KS_LABELS, KS_DEPTH),
        Box::new(move |rel| checks::node_set(rel.iter().filter_map(|r| r[0].as_int()), &roots)),
    );
    stmts
}
