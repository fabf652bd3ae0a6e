//! `pagerank`: Fig. 3 PageRank (c = 0.85, `maxrecursion 10`) on a
//! power-law digraph, in memory, `oracle_like` profile in row mode with the
//! optimizer off, at parallelism 2. Hash join, aggregate and scan over
//! relations far larger than any cache; the only workload where the second
//! core can matter.

use crate::batch::{Batch, Floors, Stmt};
use crate::{checks, Args, Report};
use aio_algebra::{oracle_like, EngineProfile};
use aio_algos::common::{db_for, EdgeStyle};
use aio_graph::{generate, reference, GraphKind};

pub struct Size {
    pub nodes: usize,
    pub edges: usize,
}

pub const FULL: Size = Size {
    nodes: 30_000,
    edges: 300_000,
};
pub const TINY: Size = Size {
    nodes: 200,
    edges: 2_000,
};

const C: f64 = 0.85;
const ITERS: usize = 10;

pub fn profile() -> EngineProfile {
    oracle_like().with_parallelism(2)
}

/// Input graphs per run.
const GRAPHS: usize = 3;

pub fn run(args: &Args, size: &Size) -> Report {
    let mut rep = Report::default();
    let inputs = crate::timed_setups(&mut rep, GRAPHS, |i| {
        let seed = crate::graph_seed(args.seed, GRAPHS, i);
        let g = generate(GraphKind::PowerLaw, size.nodes, size.edges, true, seed);
        let mut db = db_for(&g, &profile(), EdgeStyle::PageRank).expect("load pagerank tables");
        db.set_param("c", C);
        db.set_param("n", g.node_count() as f64);
        (g, db)
    });
    rep.line(format!(
        "{} power-law digraphs of {} nodes and {} edges from seed {}; profile oracle_like, \
         parallelism 2, row mode, optimizer off",
        inputs.len(),
        size.nodes,
        size.edges,
        args.seed
    ));
    let mut batch = Batch {
        dbs: Vec::new(),
        passes: Vec::new(),
    };
    let mut floors = Floors::new();
    for (g, db) in inputs {
        let gw = reference::with_pagerank_weights(&g);
        let (expected, floor) = checks::time_reference(|| reference::pagerank(&gw, C, ITERS));
        floors.entry("PR").or_default().push(floor);
        batch.passes.push(vec![Stmt {
            label: "PR",
            db: batch.dbs.len(),
            sql: aio_algos::pagerank::sql(ITERS),
            random_seed: None,
            check: Box::new(move |rel| checks::node_f64(rel, &expected, 1e-9)),
        }]);
        batch.dbs.push(db);
    }
    batch.run(args, &mut rep, &floors);
    rep
}
