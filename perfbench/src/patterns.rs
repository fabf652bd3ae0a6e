//! `patterns`: one pass lists the triangles and then the directed 4-cycles
//! of a power-law digraph as plain SELECTs (`aio_testkit::Pattern`), under
//! `Optimizer::Cost`, serial. The only workload that runs the cost pass's
//! GYO/AGM choice, the trie build, the leapfrog probe and the trie and
//! stats caches.
//!
//! Each answer must equal the rows a native enumeration of the same cycles
//! over the same edge list returns. At the full size the `Optimizer::Off`
//! plan is not usable as the oracle: its binary joins materialize every
//! 3-path, about 9 GB for the 4-cycle. The self-test checks at a tiny size
//! that the native enumeration equals the `Optimizer::Off` answer.

use crate::batch::{Batch, Floors, Stmt};
use crate::{checks, Args, Report};
use aio_algebra::{oracle_like, EngineProfile, Optimizer};
use aio_algos::common::{db_for, EdgeStyle};
use aio_graph::{generate, Graph, GraphKind};
use aio_storage::{Row, Value};
use aio_testkit::Pattern;

pub struct Size {
    pub nodes: usize,
    pub edges: usize,
}

pub const FULL: Size = Size {
    nodes: 30_000,
    edges: 300_000,
};
pub const TINY: Size = Size {
    nodes: 100,
    edges: 1_000,
};

pub fn profile() -> EngineProfile {
    oracle_like().with_optimizer(Optimizer::Cost)
}

/// Input graphs per run.
const GRAPHS: usize = 3;

pub fn run(args: &Args, size: &Size) -> Report {
    let mut rep = Report::default();
    let inputs = crate::timed_setups(&mut rep, GRAPHS, |i| {
        let seed = crate::graph_seed(args.seed, GRAPHS, i);
        let g = generate(GraphKind::PowerLaw, size.nodes, size.edges, true, seed);
        let db = db_for(&g, &profile(), EdgeStyle::Raw).expect("load pattern tables");
        (g, db)
    });
    rep.line(format!(
        "{} power-law digraphs of {} nodes and {} edges from seed {}; profile oracle_like, \
         serial, row mode, optimizer cost",
        inputs.len(),
        size.nodes,
        size.edges,
        args.seed
    ));
    let mut batch = Batch {
        dbs: Vec::new(),
        passes: Vec::new(),
    };
    for (g, db) in inputs {
        let mut stmts = Vec::new();
        for (label, p) in PATTERNS {
            let p = p();
            let expected = cycle_rows(&g, p.n_vars);
            rep.line(format!(
                "graph {}: {label}: {} rows",
                batch.dbs.len(),
                expected.len()
            ));
            stmts.push(Stmt {
                label,
                db: batch.dbs.len(),
                sql: p.sql(),
                random_seed: None,
                check: Box::new(move |rel| checks::same_rows(rel, &expected)),
            });
        }
        batch.passes.push(stmts);
        batch.dbs.push(db);
    }
    batch.run(args, &mut rep, &Floors::new());
    rep
}

type NamedPattern = (&'static str, fn() -> Pattern);

const PATTERNS: [NamedPattern; 2] = [
    ("triangle", Pattern::triangle),
    ("4-cycle", Pattern::four_cycle),
];

/// Every directed `k`-cycle `v0 -> v1 -> ... -> v(k-1) -> v0` of `g` as a
/// row `(v0, ..., v(k-1))`, once per combination of parallel edges (the
/// bag semantics of the pattern's SELECT), sorted.
pub fn cycle_rows(g: &Graph, k: usize) -> Vec<Row> {
    let mut adj = vec![Vec::new(); g.node_count()];
    for (u, v, _) in g.edges() {
        adj[u as usize].push(v);
    }
    for a in &mut adj {
        a.sort_unstable();
    }
    let mult = |u: u32, v: u32| {
        let a = &adj[u as usize];
        a.partition_point(|&x| x <= v) - a.partition_point(|&x| x < v)
    };
    fn extend(adj: &[Vec<u32>], path: &mut Vec<u32>, k: usize, out: &mut dyn FnMut(&[u32])) {
        if path.len() == k {
            return out(path);
        }
        let last = *path.last().expect("path starts with a node") as usize;
        for &v in &adj[last] {
            path.push(v);
            extend(adj, path, k, out);
            path.pop();
        }
    }
    let mut rows = Vec::new();
    for s in 0..g.node_count() as u32 {
        let mut path = vec![s];
        extend(&adj, &mut path, k, &mut |p: &[u32]| {
            for _ in 0..mult(p[k - 1], p[0]) {
                let row: Row = p.iter().map(|&v| Value::from(v as i64)).collect();
                rows.push(row);
            }
        });
    }
    rows.sort();
    rows
}

/// At `size`, the native enumeration equals the `Optimizer::Off` answer
/// for every pattern.
pub fn native_matches_off(size: &Size, seed: u64) -> Result<(), String> {
    let g = generate(GraphKind::PowerLaw, size.nodes, size.edges, true, seed);
    let mut db = db_for(
        &g,
        &profile().with_optimizer(Optimizer::Off),
        EdgeStyle::Raw,
    )
    .map_err(|e| e.to_string())?;
    for (label, p) in PATTERNS {
        let p = p();
        let off = db.execute(&p.sql()).map_err(|e| e.to_string())?;
        checks::same_rows(&off.relation, &cycle_rows(&g, p.n_vars))
            .map_err(|e| format!("{label}: {e}"))?;
    }
    Ok(())
}
