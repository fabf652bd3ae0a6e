//! The statement-list runner shared by `pagerank`, `fig8-suite` and
//! `patterns`: a closed loop with one client that runs every statement of
//! the workload once per pass, checks each answer, and in the traced run
//! splits the pass by layer.

use crate::spans::{Spans, Totals};
use crate::{median, ms, Args, Report};
use aio_algebra::optimize_plan;
use aio_storage::Relation;
use aio_withplus::lower::{lower_select, LowerCtx};
use aio_withplus::{Database, Parser, QueryResult, Statement};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

pub type Check = Box<dyn Fn(&Relation) -> Result<(), String>>;

/// One statement of a pass: SQL text run on `dbs[db]`, with the check its
/// answer must pass.
pub struct Stmt {
    pub label: &'static str,
    pub db: usize,
    pub sql: String,
    /// Seed for `random()` (MIS), set before every execution so each pass
    /// computes the same answer.
    pub random_seed: Option<u64>,
    pub check: Check,
}

pub struct Batch {
    pub dbs: Vec<Database>,
    /// One statement list per input graph; pass `p` runs list
    /// `p % passes.len()`.
    pub passes: Vec<Vec<Stmt>>,
}

/// Native `aio_graph::reference` times (ms) per statement label, one per
/// input graph.
pub type Floors = BTreeMap<&'static str, Vec<f64>>;

/// Engine counters summed over the traced passes.
#[derive(Default)]
struct Counters {
    rows_scanned: u64,
    rows_produced: u64,
    rows_out: u64,
    par_ops: u64,
    morsels: u64,
    iterations: u64,
    delta_rows: u64,
    ubu_changed: u64,
    ubu_recomputed: u64,
    trie_hits: u64,
    trie_misses: u64,
    stats_hits: u64,
    stats_misses: u64,
    generations: u64,
    multiway_chosen: u64,
    peak_mem: u64,
}

impl Counters {
    fn absorb(&mut self, out: &QueryResult, generations: u64, ubu: bool) {
        let s = &out.stats;
        self.rows_scanned += s.exec.rows_scanned;
        self.rows_produced += s.exec.rows_produced;
        self.rows_out += out.relation.len() as u64;
        self.par_ops += s.exec.parallel_ops;
        self.morsels += s.exec.morsels;
        self.iterations += s.iterations.len() as u64;
        for it in &s.iterations {
            self.delta_rows += it.delta_rows as u64;
            if ubu {
                for sq in &it.subqueries {
                    self.ubu_changed += sq.ubu_changed_rows as u64;
                    self.ubu_recomputed += sq.delta_rows as u64;
                }
            }
        }
        self.trie_hits += s.cache.trie_hits;
        self.trie_misses += s.cache.trie_misses;
        self.stats_hits += s.cache.stats_hits;
        self.stats_misses += s.cache.stats_misses;
        self.generations += generations;
        self.peak_mem = self.peak_mem.max(s.peak_mem_bytes);
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Batch {
    /// Run statement `i` of list `g` untraced; returns its wall time in ms.
    fn exec(&mut self, g: usize, i: usize, rep: &mut Report) -> f64 {
        let st = &self.passes[g][i];
        let db = &mut self.dbs[st.db];
        if let Some(s) = st.random_seed {
            aio_algebra::seed_random(s);
        }
        let t0 = Instant::now();
        let out = db.execute(&st.sql);
        let elapsed = ms(t0.elapsed());
        rep.check(
            out.map_err(|e| e.to_string())
                .and_then(|o| (st.check)(&o.relation)),
            st.label,
        );
        elapsed
    }

    /// Run statement `i` with every entry point wrapped in a benchmark span
    /// and the engine tracer attached; returns the `execute` wall time.
    fn exec_traced(
        &mut self,
        g: usize,
        i: usize,
        rep: &mut Report,
        sp: &Spans,
        c: &mut Counters,
    ) -> f64 {
        let st = &self.passes[g][i];
        let db = &mut self.dbs[st.db];
        let _stmt = sp.span("statement");
        _stmt.field("label", st.label);
        let parsed = {
            let _s = sp.span("parse");
            Parser::parse_statement(&st.sql)
        };
        match parsed {
            Ok(Statement::WithPlus(_)) => {
                let _s = sp.span("prepare");
                let _ = db.prepare(&st.sql);
            }
            Ok(Statement::Select(s)) => {
                let params = HashMap::new();
                let plan = {
                    let _s = sp.span("lower");
                    lower_select(&s, &LowerCtx::new(&params, db.anti_impl))
                };
                if let Ok(plan) = plan {
                    let _s = sp.span("optimize");
                    let opt = optimize_plan(&plan, &db.catalog, db.profile.optimizer);
                    c.multiway_chosen += format!("{opt:?}").matches("MultiwayJoin").count() as u64;
                }
            }
            Err(_) => {}
        }
        if let Some(s) = st.random_seed {
            aio_algebra::seed_random(s);
        }
        let gen0 = db.catalog.generation();
        let t0 = Instant::now();
        let out = {
            let _s = sp.span("execute");
            db.execute(&st.sql)
        };
        let elapsed = ms(t0.elapsed());
        if let Ok(o) = &out {
            c.absorb(
                o,
                db.catalog.generation() - gen0,
                st.sql.contains("union by update"),
            );
        }
        rep.check(
            out.map_err(|e| e.to_string())
                .and_then(|o| (st.check)(&o.relation)),
            st.label,
        );
        elapsed
    }

    /// Warm up with one checked pass over the first graph, then loop
    /// untraced for the budget (half of it with `--trace 1`, whose other
    /// half is the traced run).
    pub fn run(mut self, args: &Args, rep: &mut Report, floors: &Floors) {
        for i in 0..self.passes[0].len() {
            self.exec(0, i, rep);
        }
        let plain = if args.trace {
            args.budget / 2
        } else {
            args.budget
        };
        let mut per_label: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let t0 = Instant::now();
        while t0.elapsed() < plain || rep.pass_ms.is_empty() {
            let g = rep.pass_ms.len() % self.passes.len();
            let mut pass = 0.0;
            for i in 0..self.passes[g].len() {
                let t = self.exec(g, i, rep);
                per_label
                    .entry(self.passes[g][i].label)
                    .or_default()
                    .push(t);
                pass += t;
            }
            rep.pass_ms.push(pass);
        }
        let mut with_floor = 0.0;
        let mut floor_sum = 0.0;
        for st in &self.passes[0] {
            let p50 = median(&per_label[st.label]);
            match floors.get(st.label) {
                Some(f) => {
                    let f = median(f);
                    with_floor += p50;
                    floor_sum += f;
                    rep.line(format!(
                        "{:<8} with+ p50 {p50:>10.3} ms  graph.reference.floor_ms {f:>9.3}  \
                         graph.reference.gap_x {:>8.1}",
                        st.label,
                        p50 / f.max(1e-9)
                    ));
                }
                None => rep.line(format!(
                    "{:<8} with+ p50 {p50:>10.3} ms  (no native floor)",
                    st.label
                )),
            }
        }
        if floor_sum > 0.0 {
            rep.layer("graph.reference.floor_ms", floor_sum);
            rep.layer("graph.reference.gap_x", with_floor / floor_sum);
        }
        if args.trace {
            let untraced_p50 = median(&rep.pass_ms);
            self.traced(args, rep, untraced_p50);
        }
    }

    fn traced(&mut self, args: &Args, rep: &mut Report, untraced_p50: f64) {
        let mut sp = Spans::new();
        let offsets: Vec<u64> = self.dbs.iter_mut().map(|db| sp.attach(db)).collect();
        let mut c = Counters::default();
        let mut exec_ms = Vec::new();
        let budget = args.budget - args.budget / 2;
        let t0 = Instant::now();
        while t0.elapsed() < budget || exec_ms.is_empty() {
            let _pass = sp.span("pass");
            let g = exec_ms.len() % self.passes.len();
            let mut pass = 0.0;
            for i in 0..self.passes[g].len() {
                pass += self.exec_traced(g, i, rep, &sp, &mut c);
            }
            exec_ms.push(pass);
        }
        for (db, off) in self.dbs.iter_mut().zip(offsets) {
            sp.detach(db, off);
        }
        let path =
            crate::out_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        let totals = sp.finish(&path);
        rep.line(format!("spans written to {}", path.display()));
        let passes = exec_ms.len() as f64;
        layers_from_totals(rep, &totals, passes);
        let per = |v: u64| v as f64 / passes;
        rep.layer("algebra.optimize.multiway_chosen", per(c.multiway_chosen));
        rep.layer(
            "storage.cache.trie_hit_ratio",
            ratio(c.trie_hits, c.trie_hits + c.trie_misses),
        );
        rep.layer(
            "storage.cache.stats_hit_ratio",
            ratio(c.stats_hits, c.stats_hits + c.stats_misses),
        );
        rep.layer("algebra.rows_scanned", per(c.rows_scanned));
        rep.layer("algebra.rows_produced", per(c.rows_produced));
        rep.layer("algebra.out_per_scanned", ratio(c.rows_out, c.rows_scanned));
        rep.layer("algebra.par_ops", per(c.par_ops));
        rep.layer("algebra.morsels", per(c.morsels));
        rep.layer("withplus.psm.iterations", per(c.iterations));
        rep.layer("withplus.psm.delta_rows", per(c.delta_rows));
        rep.layer(
            "withplus.psm.ubu_changed_ratio",
            ratio(c.ubu_changed, c.ubu_recomputed),
        );
        rep.layer("storage.mvcc.generations", per(c.generations));
        rep.layer("withplus.psm.peak_mem_bytes", c.peak_mem as f64);
        rep.layer(
            "trace.overhead_pct",
            (median(&exec_ms) / untraced_p50 - 1.0) * 100.0,
        );
    }
}

/// The span-derived per-layer metrics, as per-pass means.
pub fn layers_from_totals(rep: &mut Report, t: &Totals, passes: f64) {
    let per_ms = |ns: u64| ns as f64 / 1e6 / passes;
    let bench_us = |name: &str| {
        t.bench_ns
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<u64>() as f64 / 1e3 / passes)
    };
    let named = [
        ("join", "algebra.join.self_ms"),
        ("aggregate", "algebra.aggregate.self_ms"),
        ("scan", "algebra.scan.self_ms"),
        ("project", "algebra.project.self_ms"),
        ("distinct", "algebra.distinct.self_ms"),
        ("anti_join", "algebra.anti_join.self_ms"),
        ("window", "algebra.window.self_ms"),
        ("multiway_join", "algebra.multiway_join.self_ms"),
    ];
    let mut other = 0u64;
    for (op, ns) in &t.op_self_ns {
        match named.iter().find(|(o, _)| o == op) {
            Some((_, metric)) => rep.layer(metric, per_ms(*ns)),
            None => other += ns,
        }
    }
    rep.layer("algebra.other.self_ms", per_ms(other));
    rep.layer("algebra.join.build_ms", per_ms(t.join_build_ns));
    rep.layer("algebra.join.probe_ms", per_ms(t.join_probe_ns));
    rep.layer("algebra.wcoj.build_ms", per_ms(t.wcoj_build_ns));
    rep.layer("algebra.wcoj.probe_ms", per_ms(t.wcoj_probe_ns));
    rep.layer("withplus.psm.bookkeeping_ms", per_ms(t.bookkeeping_ns));
    rep.layer("withplus.parser.parse_us", bench_us("parse"));
    rep.layer("withplus.compile.prepare_us", bench_us("prepare"));
    rep.layer("withplus.lower.lower_us", bench_us("lower"));
    rep.layer("algebra.optimize.optimize_us", bench_us("optimize"));
    rep.layer("storage.mvcc.pin_fork_us", bench_us("pin_fork"));
    rep.layer("algebra.eval.read_eval_us", bench_us("eval"));
}
