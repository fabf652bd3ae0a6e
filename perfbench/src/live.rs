//! `live-graph`: a durable database on the real file system, opened with
//! the shipped flush policy (fsync at every WAL commit), keeping a WCC view
//! (frontier refresh) and a PageRank view (re-converge, epsilon 1e-6) over
//! a power-law digraph. One client alternates one `apply_edges` batch of
//! new edges with point reads of both views through one `Session`. Every
//! 20 batches the database is closed and reopened (recovery), checked and
//! checkpointed, so each reopen replays 20 batches of WAL. Writes beside
//! reads on one catalog: IVM refresh, WAL append and fsync and MVCC
//! publish on the writes, parse, lower, pin/fork and scan on the reads.
//! The only durable workload and the only one with recovery.

use crate::spans::Spans;
use crate::{checks, median, ms, tail, Args, Report};
use aio_algebra::{optimize_plan, oracle_like, Evaluator};
use aio_graph::{generate, load, reference, Graph, GraphKind};
use aio_storage::{edge_schema, row, FxHashMap, Relation, Row};
use aio_withplus::lower::{lower_select, LowerCtx};
use aio_withplus::{Database, EdgeDelta, Parser, RefreshMode, Session, SharedDatabase, Statement};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub struct Size {
    pub nodes: usize,
    pub edges: usize,
    /// New user edges per `apply_edges` batch.
    pub batch_edges: usize,
    /// Point reads after each batch.
    pub reads: usize,
    /// Batches between a close and reopen of the database (each reopen is
    /// followed by a checkpoint, so it replays this many batches of WAL).
    pub epoch_batches: usize,
}

pub const FULL: Size = Size {
    nodes: 5_000,
    edges: 50_000,
    batch_edges: 20,
    reads: 25,
    epoch_batches: 20,
};
pub const TINY: Size = Size {
    nodes: 200,
    edges: 100,
    batch_edges: 4,
    reads: 4,
    epoch_batches: 5,
};

const C: f64 = 0.85;
const EPSILON: f64 = 1e-6;
/// Warm and cold PageRank each stop within `EPSILON * c / (1 - c)` (about
/// 5.7e-6) of the fixpoint, so they may differ by twice that.
const PR_TOLERANCE: f64 = 1.2e-5;
/// One user edge row `(F int, T int, ew float)`.
const USER_ROW_BYTES: f64 = 24.0;

const WCC_SQL: &str = "with C(ID, vw) as (\
    (select V.ID, 1.0 * V.ID from V) \
    union by update ID \
    (select EW.T, min(C.vw * EW.ew) from C, EW where C.ID = EW.F group by EW.T)) \
  select * from C";
const PR_SQL: &str = "with P(ID, W) as (\
    (select V.ID, 0.0 from V) \
    union by update ID \
    (select EP.T, :c * sum(P.W * EP.ew) + (1 - :c) / :n from P, EP \
     where P.ID = EP.F group by EP.T)) \
  select ID, W from P";

/// The edge rows the benchmark expects, kept beside the database.
struct Model {
    n: usize,
    /// WCC's undirected encoding: both directions plus a self-loop, ew = 1.
    ew: Vec<Row>,
    /// PageRank's out-adjacency; EP holds `(u, v, 1/outdeg(u))`.
    adj: Vec<Vec<u32>>,
    rng: u64,
}

impl Model {
    fn new(g: &Graph, seed: u64) -> Model {
        let n = g.node_count();
        let mut ew = Vec::with_capacity(2 * g.edge_count() + n);
        for (u, v, _) in g.edges() {
            ew.push(row![u as i64, v as i64, 1.0]);
            ew.push(row![v as i64, u as i64, 1.0]);
        }
        ew.extend((0..n as i64).map(|v| row![v, v, 1.0]));
        let adj = (0..n as u32).map(|u| g.neighbors(u).to_vec()).collect();
        Model {
            n,
            ew,
            adj,
            rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    fn next(&mut self) -> u64 {
        // xorshift64*
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn node(&mut self) -> i64 {
        (self.next() % self.n as u64) as i64
    }

    fn ep_rows(&self, u: usize) -> Vec<Row> {
        let w = 1.0 / self.adj[u].len().max(1) as f64;
        self.adj[u]
            .iter()
            .map(|&v| row![u as i64, v as i64, w])
            .collect()
    }

    /// The next batch of `k` new edges as one delta per table, recorded in
    /// the model. Every out-edge of a touched PageRank source is
    /// re-weighted.
    fn batch(&mut self, k: usize) -> Vec<EdgeDelta> {
        let mut new = Vec::with_capacity(k);
        while new.len() < k {
            let (u, v) = (self.node() as u32, self.node() as u32);
            if u != v {
                new.push((u, v));
            }
        }
        let ew: Vec<Row> = new
            .iter()
            .flat_map(|&(u, v)| [row![u as i64, v as i64, 1.0], row![v as i64, u as i64, 1.0]])
            .collect();
        self.ew.extend(ew.iter().cloned());
        let mut sources: Vec<u32> = new.iter().map(|&(u, _)| u).collect();
        sources.sort_unstable();
        sources.dedup();
        let dels: Vec<Row> = sources
            .iter()
            .flat_map(|&u| self.ep_rows(u as usize))
            .collect();
        for &(u, v) in &new {
            self.adj[u as usize].push(v);
        }
        let adds: Vec<Row> = sources
            .iter()
            .flat_map(|&u| self.ep_rows(u as usize))
            .collect();
        vec![
            EdgeDelta::insert("EW", ew),
            EdgeDelta::new("EP", adds, dels),
        ]
    }

    fn ep_sorted(&self) -> Vec<Row> {
        let mut rows: Vec<Row> = (0..self.n).flat_map(|u| self.ep_rows(u)).collect();
        rows.sort();
        rows
    }
}

fn edge_table(rows: Vec<Row>) -> Relation {
    let mut r = Relation::new(edge_schema());
    r.rows_mut().extend(rows);
    r
}

fn load_tables(db: &mut Database, g: &Graph, m: &Model) -> aio_withplus::Result<()> {
    db.create_table("V", load::node_relation(g))?;
    db.create_table("EW", edge_table(m.ew.clone()))?;
    db.create_table(
        "EP",
        load::edge_relation(&reference::with_pagerank_weights(g)),
    )?;
    db.set_param("c", C);
    db.set_param("n", g.node_count() as f64);
    db.create_view("WCC", WCC_SQL)?;
    db.create_view_with("PR", PR_SQL, EPSILON)
}

fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create database directory");
}

fn value_map(rel: &Relation) -> FxHashMap<i64, f64> {
    rel.iter()
        .filter_map(|r| Some((r[0].as_int()?, r[1].as_f64()?)))
        .collect()
}

/// A point read returns exactly the row the writer published.
fn check_read(rel: &Relation, x: i64, expected: &FxHashMap<i64, f64>) -> Result<(), String> {
    match (rel.len(), rel.iter().next()) {
        (1, Some(r)) if r[0].as_int() == Some(x) && r[1].as_f64() == expected.get(&x).copied() => {
            Ok(())
        }
        _ => Err(format!(
            "read of node {x}: {} rows, expected value {:?}",
            rel.len(),
            expected.get(&x)
        )),
    }
}

fn read_sql(i: usize, x: i64) -> String {
    if i.is_multiple_of(2) {
        format!("select WCC.ID, WCC.vw from WCC where WCC.ID = {x}")
    } else {
        format!("select PR.ID, PR.W from PR where PR.ID = {x}")
    }
}

/// Engine counters of the traced steps.
#[derive(Default)]
struct StepCounters {
    refresh_wcc_ms: f64,
    refresh_pr_ms: f64,
    ivm_iterations: u64,
    rows_changed: u64,
    fallbacks: u64,
    generations: u64,
    wal: (u64, u64, u64),
}

/// Everything the loop measures, across epochs.
#[derive(Default)]
struct Samples {
    write_ms: Vec<f64>,
    read_ms: Vec<f64>,
    /// Write wall times of the traced steps.
    traced_write_ms: Vec<f64>,
    traced_steps: u64,
    recovery_s: Vec<f64>,
    replayed_records: Vec<f64>,
    replayed_bytes: Vec<f64>,
    /// WAL bytes appended by `apply_edges` and the user edges it acknowledged.
    wal_bytes: u64,
    user_edges: u64,
}

fn wal_counters(db: &Database) -> (u64, u64, u64) {
    db.catalog.durability().map_or((0, 0, 0), |d| {
        (d.records_appended(), d.bytes_appended(), d.syncs())
    })
}

/// One open of the database: a run of steps through one `SharedDatabase`.
struct Epoch<'a> {
    shared: Arc<SharedDatabase>,
    session: Session,
    model: &'a mut Model,
    size: &'a Size,
}

impl Epoch<'_> {
    /// The writer's current view contents, which every read must return.
    fn views(&self) -> (FxHashMap<i64, f64>, FxHashMap<i64, f64>) {
        self.shared.with_writer(|db| {
            let m = |name| db.view_relation(name).map(value_map).unwrap_or_default();
            (m("WCC"), m("PR"))
        })
    }

    /// Apply the next batch; returns the write's wall time in ms.
    fn write(&mut self, rep: &mut Report, sm: &mut Samples, sp: Option<&Spans>) -> f64 {
        let deltas = self.model.batch(self.size.batch_edges);
        let t0 = Instant::now();
        let (res, before, after) = {
            let _s = sp.map(|sp| sp.span("apply_edges"));
            self.shared.with_writer(|db| {
                let before = wal_counters(db);
                let res = db.apply_edges(deltas);
                (res, before, wal_counters(db))
            })
        };
        let w = ms(t0.elapsed());
        if res.is_ok() {
            sm.wal_bytes += after.1 - before.1;
            sm.user_edges += self.size.batch_edges as u64;
        }
        rep.check(res.map(|_| ()).map_err(|e| e.to_string()), "apply_edges");
        w
    }

    /// One untraced step: a write batch, then the point reads through the
    /// session. Returns its wall time (write plus reads) in ms.
    fn step(&mut self, rep: &mut Report, sm: &mut Samples) -> f64 {
        let w = self.write(rep, sm, None);
        sm.write_ms.push(w);
        let (wcc, pr) = self.views();
        let mut total = w;
        for i in 0..self.size.reads {
            let x = self.model.node();
            let sql = read_sql(i, x);
            let t0 = Instant::now();
            let out = self.session.query(&sql);
            let r = ms(t0.elapsed());
            let want = if i.is_multiple_of(2) { &wcc } else { &pr };
            rep.check(
                out.map_err(|e| e.to_string())
                    .and_then(|o| check_read(&o.relation, x, want)),
                "read",
            );
            sm.read_ms.push(r);
            total += r;
        }
        total
    }

    /// One traced step: the write and each entry point of every read
    /// (pin and fork, parse, lower, optimize, evaluate) in a benchmark
    /// span, with the engine tracer on the writer.
    fn traced_step(
        &mut self,
        rep: &mut Report,
        sm: &mut Samples,
        sp: &Spans,
        c: &mut StepCounters,
    ) {
        let _pass = sp.span("pass");
        let gen0 = self.shared.current_generation();
        let wal0 = self.shared.with_writer(|db| wal_counters(db));
        let w = self.write(rep, sm, Some(sp));
        sm.traced_write_ms.push(w);
        sm.traced_steps += 1;
        let wal1 = self.shared.with_writer(|db| wal_counters(db));
        c.wal.0 += wal1.0 - wal0.0;
        c.wal.1 += wal1.1 - wal0.1;
        c.wal.2 += wal1.2 - wal0.2;
        c.generations += self.shared.current_generation() - gen0;
        self.shared.with_writer(|db| {
            for (view, slot) in [("WCC", &mut c.refresh_wcc_ms), ("PR", &mut c.refresh_pr_ms)] {
                if let Some(r) = db.view_report(view) {
                    *slot += ms(r.duration);
                    c.ivm_iterations += r.iterations as u64;
                    c.rows_changed += (r.added + r.removed + r.changed) as u64;
                    c.fallbacks += u64::from(r.mode == RefreshMode::Full);
                }
            }
        });
        let (wcc, pr) = self.views();
        let hub = self.shared.hub();
        let profile = self.session.profile.clone();
        let params = HashMap::new();
        for i in 0..self.size.reads {
            let x = self.model.node();
            let sql = read_sql(i, x);
            let _read = sp.span("read");
            let cat = {
                let _s = sp.span("pin_fork");
                hub.pin().catalog().fork_readonly()
            };
            let out = (|| -> Result<Relation, String> {
                let parsed = {
                    let _s = sp.span("parse");
                    Parser::parse_statement(&sql).map_err(|e| e.to_string())?
                };
                let Statement::Select(s) = parsed else {
                    return Err("not a SELECT".into());
                };
                let plan = {
                    let _s = sp.span("lower");
                    lower_select(
                        &s,
                        &LowerCtx::new(&params, aio_algebra::AntiJoinImpl::LeftOuterNull),
                    )
                    .map_err(|e| e.to_string())?
                };
                let plan = {
                    let _s = sp.span("optimize");
                    optimize_plan(&plan, &cat, profile.optimizer)
                };
                let _s = sp.span("eval");
                Evaluator::new(&cat, &profile)
                    .eval_root(&plan)
                    .map_err(|e| e.to_string())
            })();
            let want = if i.is_multiple_of(2) { &wcc } else { &pr };
            rep.check(out.and_then(|rel| check_read(&rel, x, want)), "read");
        }
    }
}

pub fn run(args: &Args, size: &Size) -> Report {
    let mut rep = Report::default();
    let base = crate::out_dir().join(format!("live-{}", std::process::id()));
    let dir_of = |i: usize| base.join(format!("db{i}"));
    let mut reps = 0;
    // Each set-up gets its own directory: the first database stays open
    // while the later set-ups are timed.
    let mut setups = crate::timed_setups(&mut rep, 1, |i| {
        reps = i + 1;
        let dir = dir_of(i);
        fresh_dir(&dir);
        let g = generate(GraphKind::PowerLaw, size.nodes, size.edges, true, args.seed);
        let (mut db, _) = Database::open(dir.to_str().expect("utf-8 path"), oracle_like())
            .expect("open durable database");
        load_tables(&mut db, &g, &Model::new(&g, args.seed)).expect("load tables and build views");
        db.checkpoint().expect("checkpoint after the initial load");
        (g, db)
    });
    let (g, db) = setups.pop().expect("one set-up kept");
    for i in 1..reps {
        let _ = std::fs::remove_dir_all(dir_of(i));
    }
    rep.line(format!(
        "power-law digraph, {} nodes, {} edges, seed {}; durable, fsync at every WAL commit; \
         batches of {} new edges, {} point reads after each; reopen and checkpoint every {} batches",
        g.node_count(),
        g.edge_count(),
        args.seed,
        size.batch_edges,
        size.reads,
        size.epoch_batches
    ));
    run_loop(args, size, &mut rep, &g, db, &dir_of(0));
    let _ = std::fs::remove_dir_all(&base);
    rep
}

fn reopen(rep: &mut Report, sm: &mut Samples, dir: &Path) -> Option<Database> {
    let t0 = Instant::now();
    let opened = Database::open(dir.to_str().expect("utf-8 path"), oracle_like());
    let secs = t0.elapsed().as_secs_f64();
    match opened {
        Ok((db, report)) => {
            sm.recovery_s.push(secs);
            sm.replayed_records.push(report.wal_records_replayed as f64);
            sm.replayed_bytes.push(report.wal_bytes_replayed as f64);
            Some(db)
        }
        Err(e) => {
            rep.check(Err(e.to_string()), "reopen");
            None
        }
    }
}

/// After a reopen, every acknowledged batch's edges are present and the
/// views are exactly as they were before the close; then re-attach the
/// views and checkpoint, so the next reopen replays one epoch of WAL.
fn after_reopen(
    rep: &mut Report,
    db: &mut Database,
    model: &Model,
    views: &(Relation, Relation),
) -> bool {
    let mut ew_rows = model.ew.clone();
    ew_rows.sort();
    let table = |name: &str| db.catalog.relation(name).map_err(|e| e.to_string());
    let checked = [
        (
            "EW after reopen",
            table("EW").and_then(|r| checks::same_rows(r, &ew_rows)),
        ),
        (
            "EP after reopen",
            table("EP").and_then(|r| checks::same_rows(r, &model.ep_sorted())),
        ),
        (
            "WCC after reopen",
            table("WCC").and_then(|r| checks::same_rows(r, &checks::sorted_rows(&views.0))),
        ),
        (
            "PR after reopen",
            table("PR").and_then(|r| checks::same_rows(r, &checks::sorted_rows(&views.1))),
        ),
    ];
    for (what, outcome) in checked {
        rep.check(outcome, what);
    }
    db.set_param("c", C);
    db.set_param("n", model.n as f64);
    let attached = db
        .register_view("WCC", WCC_SQL, 1e-9)
        .and_then(|_| db.register_view("PR", PR_SQL, EPSILON))
        .map_err(|e| e.to_string())
        .and_then(|_| db.checkpoint().map(|_| ()).map_err(|e| e.to_string()));
    let ok = attached.is_ok();
    rep.check(attached, "re-attach views and checkpoint");
    ok
}

fn run_loop(args: &Args, size: &Size, rep: &mut Report, g: &Graph, db: Database, dir: &Path) {
    let mut model = Model::new(g, args.seed);
    let mut sm = Samples::default();
    let mut sp = args.trace.then(Spans::new);
    let mut c = StepCounters::default();
    let plain = if args.trace {
        args.budget / 2
    } else {
        args.budget
    };
    let t0 = Instant::now();
    let mut db = Some(db);
    let mut warm = true;
    while let Some(mut current) = db.take() {
        if t0.elapsed() >= args.budget && !rep.pass_ms.is_empty() {
            db = Some(current);
            break;
        }
        let traced = sp.is_some() && t0.elapsed() >= plain && !rep.pass_ms.is_empty();
        let offset = match (&sp, traced) {
            (Some(sp), true) => Some(sp.attach(&mut current)),
            _ => None,
        };
        let shared = SharedDatabase::new(current);
        let mut ep = Epoch {
            session: shared.session(),
            shared,
            model: &mut model,
            size,
        };
        for _ in 0..size.epoch_batches {
            match (&sp, traced) {
                (Some(sp), true) => ep.traced_step(rep, &mut sm, sp, &mut c),
                _ if warm => {
                    ep.step(rep, &mut sm);
                    sm.write_ms.clear();
                    sm.read_ms.clear();
                    warm = false;
                }
                _ => {
                    let t = ep.step(rep, &mut sm);
                    rep.pass_ms.push(t);
                }
            }
        }
        let views = ep.shared.with_writer(|db| {
            if let (Some(sp), Some(off)) = (sp.as_mut(), offset) {
                sp.detach(db, off);
            }
            let rel = |name: &str| {
                db.catalog
                    .relation(name)
                    .cloned()
                    .unwrap_or_else(|_| Relation::new(edge_schema()))
            };
            (rel("WCC"), rel("PR"))
        });
        let Epoch {
            session, shared, ..
        } = ep;
        drop(session);
        drop(shared);
        let Some(mut reopened) = reopen(rep, &mut sm, dir) else {
            break;
        };
        if after_reopen(rep, &mut reopened, &model, &views) {
            db = Some(reopened);
        }
    }
    report(args, size, rep, &sm, &c, sp);
    match db {
        Some(db) => check_cold(rep, &db, &model),
        None => rep.check(Err("database lost".into()), "final state"),
    }
}

fn report(
    args: &Args,
    size: &Size,
    rep: &mut Report,
    sm: &Samples,
    c: &StepCounters,
    sp: Option<Spans>,
) {
    let write_p50 = median(&sm.write_ms);
    let loop_s = rep.pass_ms.iter().sum::<f64>() / 1e3;
    let edges_per_s = (rep.pass_ms.len() * size.batch_edges) as f64 / loop_s;
    rep.layer("withplus.db.write_p50_ms", write_p50);
    rep.layer("withplus.session.read_p50_ms", median(&sm.read_ms));
    rep.layer("withplus.db.edges_per_s", edges_per_s);
    rep.line(format!(
        "write_p50_ms = {write_p50:.4} ms (median of {} batches)",
        sm.write_ms.len()
    ));
    rep.line(format!(
        "read_p50_ms = {:.4} ms (median of {} reads)",
        median(&sm.read_ms),
        sm.read_ms.len()
    ));
    match tail(&sm.read_ms) {
        Some((p, v)) => {
            rep.layer("withplus.session.read_tail_ms", v);
            rep.line(format!(
                "read_tail_ms = {v:.4} ms (p{p}, the highest percentile with >= 10 reads \
                 beyond it)"
            ));
        }
        None => rep.line("read_tail_ms: fewer than 20 reads".into()),
    }
    rep.line(format!(
        "edges_per_s = {edges_per_s:.2} 1/s (user edges acknowledged per second of loop time, \
         reads included)"
    ));
    let amp = sm.wal_bytes as f64 / (sm.user_edges as f64 * USER_ROW_BYTES);
    rep.layer("storage.wal.bytes_per_user_byte", amp);
    rep.line(format!(
        "wal_bytes_per_user_byte = {amp:.2} ({} WAL bytes appended by apply_edges for {} user edges)",
        sm.wal_bytes, sm.user_edges
    ));
    let (rec_s, rec_n, rec_b) = (
        median(&sm.recovery_s),
        median(&sm.replayed_records),
        median(&sm.replayed_bytes),
    );
    rep.layer("storage.recover.open_s", rec_s);
    rep.layer("storage.recover.replayed_records", rec_n);
    rep.layer("storage.recover.replayed_bytes", rec_b);
    rep.layer("storage.recover.records_per_s", rec_n / rec_s.max(1e-9));
    rep.line(format!(
        "recovery_s = {rec_s:.4} s (median of {} reopens; {rec_n} WAL records, {rec_b} bytes replayed)",
        sm.recovery_s.len()
    ));
    let Some(sp) = sp else { return };
    let n = sm.traced_steps.max(1) as f64;
    let path = crate::out_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let totals = sp.finish(&path);
    rep.line(format!("spans written to {}", path.display()));
    crate::batch::layers_from_totals(rep, &totals, n);
    rep.layer("withplus.ivm.refresh_ms.wcc", c.refresh_wcc_ms / n);
    rep.layer("withplus.ivm.refresh_ms.pr", c.refresh_pr_ms / n);
    rep.layer("withplus.ivm.iterations", c.ivm_iterations as f64 / n);
    rep.layer("withplus.ivm.rows_changed", c.rows_changed as f64 / n);
    rep.layer("withplus.ivm.fallbacks", c.fallbacks as f64 / n);
    rep.layer("storage.wal.records", c.wal.0 as f64 / n);
    rep.layer("storage.wal.bytes", c.wal.1 as f64 / n);
    rep.layer("storage.wal.syncs", c.wal.2 as f64 / n);
    rep.layer("storage.mvcc.generations", c.generations as f64 / n);
    rep.layer(
        "trace.overhead_pct",
        (median(&sm.traced_write_ms) / write_p50 - 1.0) * 100.0,
    );
}

/// The maintained views equal a cold `create_view` recompute over the
/// final tables.
fn check_cold(rep: &mut Report, db: &Database, model: &Model) {
    let rel = |name: &str| db.catalog.relation(name).cloned();
    let cold = (|| -> aio_withplus::Result<(Relation, Relation)> {
        let mut cold = Database::new(oracle_like());
        cold.create_table("V", rel("V")?)?;
        cold.create_table("EW", rel("EW")?)?;
        cold.create_table("EP", rel("EP")?)?;
        cold.set_param("c", C);
        cold.set_param("n", model.n as f64);
        cold.create_view("WCC", WCC_SQL)?;
        cold.create_view_with("PR", PR_SQL, EPSILON)?;
        Ok((
            cold.view_relation("WCC")?.clone(),
            cold.view_relation("PR")?.clone(),
        ))
    })();
    match (cold, rel("WCC"), rel("PR")) {
        (Ok((cold_wcc, cold_pr)), Ok(wcc), Ok(pr)) => {
            rep.check(
                checks::same_rows(&wcc, &checks::sorted_rows(&cold_wcc)),
                "WCC view vs cold recompute",
            );
            rep.check(
                keyed_close(&pr, &cold_pr, PR_TOLERANCE),
                "PR view vs cold recompute",
            );
        }
        (Err(e), _, _) => rep.check(Err(e.to_string()), "cold recompute"),
        _ => rep.check(Err("view table missing".into()), "cold recompute"),
    }
}

/// `(ID, value)` relations with the same keys and values within `tol`.
fn keyed_close(got: &Relation, want: &Relation, tol: f64) -> Result<(), String> {
    let (a, b) = (value_map(got), value_map(want));
    if a.len() != b.len() || a.len() != got.len() {
        return Err(format!(
            "{} keys vs {} in the cold recompute",
            a.len(),
            b.len()
        ));
    }
    for (k, x) in &a {
        match b.get(k) {
            Some(y) if (x - y).abs() <= tol => {}
            other => return Err(format!("key {k}: {x} vs cold {other:?}")),
        }
    }
    Ok(())
}
