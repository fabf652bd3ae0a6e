//! Logical plans and their evaluator.
//!
//! The with+ compiler (crate `aio-withplus`) lowers each SQL subquery to a
//! [`Plan`]; the [`Evaluator`] executes it against a [`Catalog`] under an
//! [`EngineProfile`], materializing every operator's output — the moral
//! equivalent of the paper's PSM translation where each step is an
//! `INSERT INTO tmp SELECT ...`.

use crate::error::Result;
use crate::expr::ScalarExpr;
use crate::ops;
use crate::ops::anti_join::AntiJoinImpl;
use crate::ops::join::{JoinKeys, JoinOrders, JoinType};
use crate::profile::{AggStrategy, EngineProfile, ExecMode, JoinStrategy};
use crate::stats::ExecStats;
use aio_storage::{Batch, Catalog, Relation};
use std::borrow::Cow;

/// A logical plan node.
#[derive(Clone, Debug)]
pub enum Plan {
    /// Read a stored table, optionally renaming it (`FROM t AS a`).
    Scan {
        table: String,
        alias: Option<String>,
    },
    /// An inline literal relation.
    Values(Relation),
    /// σ
    Select { input: Box<Plan>, pred: ScalarExpr },
    /// Π (expressions + output names)
    Project {
        input: Box<Plan>,
        items: Vec<(ScalarExpr, String)>,
    },
    /// group-by & aggregation
    Aggregate {
        input: Box<Plan>,
        group_by: Vec<String>,
        items: Vec<(ScalarExpr, String)>,
    },
    /// `partition by` window aggregation (SQL'99 baseline, Fig. 9)
    Window {
        input: Box<Plan>,
        partition_by: Vec<String>,
        items: Vec<(ScalarExpr, String)>,
    },
    Distinct(Box<Plan>),
    /// θ-join on equality keys plus optional residual predicate
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        on: Vec<(String, String)>,
        residual: Option<ScalarExpr>,
        kind: JoinType,
    },
    /// ×
    Product { left: Box<Plan>, right: Box<Plan> },
    UnionAll { left: Box<Plan>, right: Box<Plan> },
    /// ∪ with duplicate elimination
    Union { left: Box<Plan>, right: Box<Plan> },
    /// − (EXCEPT)
    Difference { left: Box<Plan>, right: Box<Plan> },
    /// `R ⊼ S` via the chosen SQL spelling
    AntiJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        on: Vec<(String, String)>,
        imp: AntiJoinImpl,
    },
    /// `R ⋉ S` (IN subqueries)
    SemiJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        on: Vec<(String, String)>,
    },
    /// Worst-case-optimal multiway join (leapfrog triejoin) over a cyclic
    /// join region. `vars[i][j]` is the elimination-order position of the
    /// join variable bound by column `j` of `children[i]` (`None` = payload
    /// column); `var_names` names each variable in elimination order;
    /// `agm_est` is the AGM output bound computed at plan time.
    MultiwayJoin {
        children: Vec<Plan>,
        vars: Vec<Vec<Option<usize>>>,
        var_names: Vec<String>,
        agm_est: u64,
    },
}

impl Plan {
    pub fn scan(table: impl Into<String>) -> Plan {
        Plan::Scan {
            table: table.into(),
            alias: None,
        }
    }

    pub fn scan_as(table: impl Into<String>, alias: impl Into<String>) -> Plan {
        Plan::Scan {
            table: table.into(),
            alias: Some(alias.into()),
        }
    }

    /// All table names this plan reads (for dependency graphs).
    pub fn collect_tables(&self, out: &mut Vec<String>) {
        match self {
            Plan::Scan { table, .. } => out.push(table.clone()),
            Plan::Values(_) => {}
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Window { input, .. }
            | Plan::Distinct(input) => input.collect_tables(out),
            Plan::Join { left, right, .. }
            | Plan::Product { left, right }
            | Plan::UnionAll { left, right }
            | Plan::Union { left, right }
            | Plan::Difference { left, right }
            | Plan::AntiJoin { left, right, .. }
            | Plan::SemiJoin { left, right, .. } => {
                left.collect_tables(out);
                right.collect_tables(out);
            }
            Plan::MultiwayJoin { children, .. } => {
                for c in children {
                    c.collect_tables(out);
                }
            }
        }
    }

    /// Does this plan reference `table` through a negated / non-monotone
    /// position (right side of difference or anti-join)? Used by the
    /// stratification analysis.
    pub fn references_negated(&self, table: &str) -> bool {
        fn refs(p: &Plan, t: &str) -> bool {
            let mut v = Vec::new();
            p.collect_tables(&mut v);
            v.iter().any(|x| x.eq_ignore_ascii_case(t))
        }
        match self {
            Plan::Difference { left, right } | Plan::AntiJoin { left, right, .. } => {
                refs(right, table)
                    || left.references_negated(table)
                    || right.references_negated(table)
            }
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Window { input, .. }
            | Plan::Distinct(input) => input.references_negated(table),
            Plan::Join { left, right, .. }
            | Plan::Product { left, right }
            | Plan::UnionAll { left, right }
            | Plan::Union { left, right }
            | Plan::SemiJoin { left, right, .. } => {
                left.references_negated(table) || right.references_negated(table)
            }
            Plan::MultiwayJoin { children, .. } => {
                children.iter().any(|c| c.references_negated(table))
            }
            _ => false,
        }
    }

    /// Does any aggregate appear over an input that references `table`?
    pub fn aggregates_over(&self, table: &str) -> bool {
        fn refs(p: &Plan, t: &str) -> bool {
            let mut v = Vec::new();
            p.collect_tables(&mut v);
            v.iter().any(|x| x.eq_ignore_ascii_case(t))
        }
        match self {
            Plan::Aggregate { input, .. } | Plan::Window { input, .. } => {
                refs(input, table) || input.aggregates_over(table)
            }
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Distinct(input) => input.aggregates_over(table),
            Plan::Join { left, right, .. }
            | Plan::Product { left, right }
            | Plan::UnionAll { left, right }
            | Plan::Union { left, right }
            | Plan::Difference { left, right }
            | Plan::AntiJoin { left, right, .. }
            | Plan::SemiJoin { left, right, .. } => {
                left.aggregates_over(table) || right.aggregates_over(table)
            }
            Plan::MultiwayJoin { children, .. } => {
                children.iter().any(|c| c.aggregates_over(table))
            }
            _ => false,
        }
    }
}

/// The span name and short label for each operator, used by the traced
/// evaluator and the EXPLAIN renderer. The name doubles as the span name,
/// so it must be `'static`.
pub fn op_name(plan: &Plan) -> &'static str {
    match plan {
        Plan::Scan { .. } => "scan",
        Plan::Values(_) => "values",
        Plan::Select { .. } => "select",
        Plan::Project { .. } => "project",
        Plan::Aggregate { .. } => "aggregate",
        Plan::Window { .. } => "window",
        Plan::Distinct(_) => "distinct",
        Plan::Join { .. } => "join",
        Plan::Product { .. } => "product",
        Plan::UnionAll { .. } => "union_all",
        Plan::Union { .. } => "union",
        Plan::Difference { .. } => "difference",
        Plan::AntiJoin { .. } => "anti_join",
        Plan::SemiJoin { .. } => "semi_join",
        Plan::MultiwayJoin { .. } => "multiway_join",
    }
}

/// Executes [`Plan`]s against a catalog under a profile.
///
/// With a tracer attached ([`Evaluator::with_tracer`]) every operator
/// invocation opens one span named by [`op_name`], carrying the node's
/// pre-order id (`node`), output cardinality (`rows_out`), and — for joins —
/// build/probe phase timings and the morsel count. Node ids are assigned in
/// the same pre-order that [`crate::explain`] walks, which is how EXPLAIN
/// ANALYZE correlates spans back to plan nodes. Without a tracer the only
/// extra cost per node is one `Option` branch.
pub struct Evaluator<'a> {
    pub catalog: &'a Catalog,
    pub profile: &'a EngineProfile,
    pub stats: ExecStats,
    tracer: Option<&'a aio_trace::Tracer>,
    node_seq: u64,
    /// Estimated output rows per pre-order node id, recomputed from live
    /// catalog statistics at each `eval_root` when tracing — so EXPLAIN
    /// ANALYZE shows per-iteration estimates tracking the shrinking delta.
    est: Vec<u64>,
    /// Largest estimated operator-output footprint seen by this evaluator
    /// (bytes); tracked only while metrics are enabled. The query layer
    /// maxes this across evaluators into the per-query peak-memory figure.
    mem_peak: u64,
}

impl<'a> Evaluator<'a> {
    pub fn new(catalog: &'a Catalog, profile: &'a EngineProfile) -> Self {
        Evaluator {
            catalog,
            profile,
            stats: ExecStats::new(),
            tracer: None,
            node_seq: 0,
            est: Vec::new(),
            mem_peak: 0,
        }
    }

    /// Peak estimated operator-output bytes observed so far (0 when
    /// metrics are disabled).
    pub fn mem_peak(&self) -> u64 {
        self.mem_peak
    }

    /// An evaluator that records one span per operator invocation.
    pub fn with_tracer(
        catalog: &'a Catalog,
        profile: &'a EngineProfile,
        tracer: Option<&'a aio_trace::Tracer>,
    ) -> Self {
        let mut ev = Evaluator::new(catalog, profile);
        ev.tracer = tracer;
        ev
    }

    /// Worker threads per the profile's parallelism knob (resolved).
    fn par(&self) -> usize {
        self.profile.effective_parallelism()
    }

    /// Evaluate a plan from its root, restarting pre-order node numbering
    /// at 0 so repeated executions of the same plan produce spans with
    /// identical `node` ids (EXPLAIN aggregates across invocations by id).
    pub fn eval_root(&mut self, plan: &Plan) -> Result<Relation> {
        self.node_seq = 0;
        if self.tracer.is_some() {
            self.est = crate::stats::estimate_nodes(plan, self.catalog);
        }
        if self.profile.exec == ExecMode::Batch {
            return Ok(self.eval_batch(plan)?.into_relation());
        }
        self.eval(plan)
    }

    pub fn eval(&mut self, plan: &Plan) -> Result<Relation> {
        let span = self.open_span(plan);
        let out = self.eval_node(plan)?;
        self.note_row_output(plan, &out);
        if let Some(span) = span {
            span.field("rows_out", out.len() as u64);
            stamp_phases(&span, plan);
        }
        Ok(out)
    }

    /// Open the span of `plan`'s next invocation — pre-order node id, the
    /// estimate, and a scan's table and alias — or `None` without a tracer.
    fn open_span(&mut self, plan: &Plan) -> Option<aio_trace::SpanGuard<'a>> {
        let t = self.tracer?;
        let node = self.node_seq;
        self.node_seq += 1;
        let span = t.span(op_name(plan));
        span.field("node", node);
        if let Some(&e) = self.est.get(node as usize) {
            span.field("est_rows", e);
        }
        if let Plan::Scan { table, alias } = plan {
            span.field("table", table.as_str());
            if let Some(a) = alias {
                span.field("alias", a.as_str());
            }
        }
        Some(span)
    }

    /// Metrics tap on the row path: one branch when disabled, otherwise
    /// per-operator-invocation counter updates (never per row).
    #[inline]
    fn note_row_output(&mut self, plan: &Plan, out: &Relation) {
        if !aio_metrics::enabled() {
            return;
        }
        self.mem_peak = self.mem_peak.max(out.approx_bytes());
        aio_metrics::hooks::op_rows(op_name(plan), out.len() as u64);
    }

    /// Batch-path twin of [`Evaluator::note_row_output`]; additionally
    /// counts logical batches and their estimated bytes.
    #[inline]
    fn note_batch_output(&mut self, plan: &Plan, out: &BVal) {
        if !aio_metrics::enabled() {
            return;
        }
        let bytes = match out {
            BVal::Rows(r) => r.approx_bytes(),
            BVal::Cols(b) => {
                let batches = b.len().div_ceil(self.profile.batch_size.max(1)).max(1);
                let bytes = b.approx_bytes();
                aio_metrics::hooks::batches(batches as u64, bytes);
                bytes
            }
        };
        self.mem_peak = self.mem_peak.max(bytes);
        aio_metrics::hooks::op_rows(op_name(plan), out.len() as u64);
    }

    fn eval_node(&mut self, plan: &Plan) -> Result<Relation> {
        match plan {
            Plan::Scan { table, alias } => {
                let rel = self.catalog.relation(table)?;
                self.stats.rows_scanned += rel.len() as u64;
                Ok(match alias {
                    Some(a) => ops::rename(rel, a),
                    None => ops::rename(rel, table_basename(table)),
                })
            }
            Plan::Values(rel) => Ok(rel.clone()),
            Plan::Select { input, pred } => {
                let rel = self.eval(input)?;
                let out = ops::select_par(&rel, pred, self.par(), &mut self.stats)?;
                self.stats.rows_produced += out.len() as u64;
                Ok(out)
            }
            Plan::Project { input, items } => {
                let rel = self.eval(input)?;
                let out = ops::project_par(&rel, items, self.par(), &mut self.stats)?;
                self.stats.rows_produced += out.len() as u64;
                Ok(out)
            }
            Plan::Aggregate {
                input,
                group_by,
                items,
            } => {
                if let Some(join) = self.fused_join(input, group_by) {
                    return self.eval_agg_join(input, join, group_by, items, false);
                }
                let rel = self.eval(input)?;
                ops::group_by_par(
                    &rel,
                    group_by,
                    items,
                    self.profile.agg,
                    self.par(),
                    &mut self.stats,
                )
            }
            Plan::Window {
                input,
                partition_by,
                items,
            } => {
                let rel = self.eval(input)?;
                ops::window(&rel, partition_by, items, &mut self.stats)
            }
            Plan::Distinct(input) => {
                let rel = self.eval(input)?;
                Ok(ops::distinct(&rel))
            }
            Plan::Join {
                left,
                right,
                on,
                residual,
                kind,
            } => {
                // Index orders are only usable when the child is a direct
                // table scan and the profile's plans react to indexes.
                let lidx_src = self.index_source(left, on.iter().map(|(l, _)| l.as_str()));
                let ridx_src = self.index_source(right, on.iter().map(|(_, r)| r.as_str()));
                let lrel = self.eval(left)?;
                let rrel = self.eval(right)?;
                let keys = JoinKeys::resolve(&lrel, &rrel, on)?;
                let lorder = lidx_src
                    .as_ref()
                    .and_then(|t| self.catalog.index_on(t, &keys.left))
                    .map(|i| i.order());
                let rorder = ridx_src
                    .as_ref()
                    .and_then(|t| self.catalog.index_on(t, &keys.right))
                    .map(|i| i.order());
                ops::join_par(
                    &lrel,
                    &rrel,
                    &keys,
                    residual.as_ref(),
                    *kind,
                    self.profile.join,
                    JoinOrders {
                        left: lorder,
                        right: rorder,
                    },
                    self.par(),
                    &mut self.stats,
                )
            }
            Plan::Product { left, right } => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                self.stats.joins += 1;
                let out = ops::product(&l, &r)?;
                self.stats.rows_produced += out.len() as u64;
                Ok(out)
            }
            Plan::UnionAll { left, right } => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                ops::union_all(&l, &r)
            }
            Plan::Union { left, right } => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                ops::union_distinct(&l, &r)
            }
            Plan::Difference { left, right } => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                ops::difference(&l, &r)
            }
            Plan::AntiJoin {
                left,
                right,
                on,
                imp,
            } => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                let keys = JoinKeys::resolve(&l, &r, on)?;
                ops::anti_join_par(
                    &l,
                    &r,
                    &keys,
                    *imp,
                    self.profile.join,
                    self.par(),
                    &mut self.stats,
                )
            }
            Plan::SemiJoin { left, right, on } => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                let keys = JoinKeys::resolve(&l, &r, on)?;
                ops::semi_join_par(&l, &r, &keys, self.par(), &mut self.stats)
            }
            Plan::MultiwayJoin { children, vars, var_names, .. } => {
                let mut rels = Vec::with_capacity(children.len());
                for c in children {
                    rels.push(self.eval(c)?);
                }
                crate::wcoj::multiway_join(
                    self.catalog,
                    children,
                    &rels,
                    vars,
                    var_names.len(),
                    &mut self.stats,
                )
            }
        }
    }

    /// Columnar evaluation ([`ExecMode::Batch`]): operators with batch
    /// kernels keep data in typed SoA columns; the rest bridge through the
    /// row operators via an exact `Batch` ⇄ `Relation` transpose, so the
    /// result is row-for-row identical to [`Evaluator::eval`]. Spans carry
    /// the same pre-order node ids and fields as the row path, plus a
    /// `batches` count on columnar outputs.
    fn eval_batch(&mut self, plan: &Plan) -> Result<BVal> {
        let span = self.open_span(plan);
        let out = self.eval_node_batch(plan)?;
        self.note_batch_output(plan, &out);
        if let Some(span) = span {
            span.field("rows_out", out.len() as u64);
            if let BVal::Cols(b) = &out {
                let batches = b.len().div_ceil(self.profile.batch_size.max(1)).max(1);
                span.field("batches", batches as u64);
            }
            stamp_phases(&span, plan);
        }
        Ok(out)
    }

    fn eval_node_batch(&mut self, plan: &Plan) -> Result<BVal> {
        match plan {
            Plan::Scan { table, alias } => {
                let rel = self.catalog.relation(table)?;
                self.stats.rows_scanned += rel.len() as u64;
                let qual = alias.as_deref().unwrap_or(table_basename(table));
                Ok(BVal::Cols(crate::batch::scan(rel, qual)))
            }
            Plan::Values(rel) => Ok(BVal::Cols(Batch::from_relation(rel))),
            Plan::Select { input, pred } => {
                let b = self.eval_batch(input)?.into_batch();
                let out = crate::batch::select(
                    &b,
                    pred,
                    self.par(),
                    self.profile.batch_size,
                    &mut self.stats,
                )?;
                self.stats.rows_produced += out.len() as u64;
                Ok(BVal::Cols(out))
            }
            Plan::Project { input, items } => {
                let b = self.eval_batch(input)?.into_batch();
                let out = crate::batch::project(&b, items, self.par(), &mut self.stats)?;
                self.stats.rows_produced += out.len() as u64;
                Ok(BVal::Cols(out))
            }
            Plan::Aggregate {
                input,
                group_by,
                items,
            } => {
                if let Some(join) = self.fused_join(input, group_by) {
                    return Ok(BVal::Rows(self.eval_agg_join(input, join, group_by, items, true)?));
                }
                let b = self.eval_batch(input)?.into_batch();
                match crate::batch::group_by(
                    &b,
                    group_by,
                    items,
                    self.profile.agg,
                    self.par(),
                    &mut self.stats,
                )? {
                    Some(out) => Ok(BVal::Cols(out)),
                    None => {
                        let rel = b.to_relation();
                        Ok(BVal::Rows(ops::group_by_par(
                            &rel,
                            group_by,
                            items,
                            self.profile.agg,
                            self.par(),
                            &mut self.stats,
                        )?))
                    }
                }
            }
            Plan::Window {
                input,
                partition_by,
                items,
            } => {
                let rel = self.eval_batch(input)?.into_relation();
                Ok(BVal::Rows(ops::window(&rel, partition_by, items, &mut self.stats)?))
            }
            Plan::Distinct(input) => {
                let rel = self.eval_batch(input)?.into_relation();
                Ok(BVal::Rows(ops::distinct(&rel)))
            }
            Plan::Join {
                left,
                right,
                on,
                residual,
                kind,
            } => {
                let lidx_src = self.index_source(left, on.iter().map(|(l, _)| l.as_str()));
                let ridx_src = self.index_source(right, on.iter().map(|(_, r)| r.as_str()));
                let lb = self.eval_batch(left)?;
                let rb = self.eval_batch(right)?;
                if self.profile.join == JoinStrategy::Hash && residual.is_none() {
                    let lbat = lb.into_batch();
                    let rbat = rb.into_batch();
                    let keys = JoinKeys::resolve_schemas(lbat.schema(), rbat.schema(), on)?;
                    if !keys.left.is_empty() {
                        if let Some(out) = crate::batch::hash_join(
                            &lbat,
                            &rbat,
                            &keys,
                            *kind,
                            self.par(),
                            &mut self.stats,
                        )? {
                            return Ok(BVal::Cols(out));
                        }
                    }
                    // non-Int keys: bridge through the row join
                    return self.row_join(
                        &lbat.to_relation(),
                        &rbat.to_relation(),
                        on,
                        residual,
                        *kind,
                        lidx_src,
                        ridx_src,
                    );
                }
                self.row_join(
                    &lb.into_relation(),
                    &rb.into_relation(),
                    on,
                    residual,
                    *kind,
                    lidx_src,
                    ridx_src,
                )
            }
            Plan::Product { left, right } => {
                let l = self.eval_batch(left)?.into_relation();
                let r = self.eval_batch(right)?.into_relation();
                self.stats.joins += 1;
                let out = ops::product(&l, &r)?;
                self.stats.rows_produced += out.len() as u64;
                Ok(BVal::Rows(out))
            }
            Plan::UnionAll { left, right } => {
                let l = self.eval_batch(left)?.into_batch();
                let r = self.eval_batch(right)?.into_batch();
                Ok(BVal::Cols(crate::batch::union_all(&l, &r)?))
            }
            Plan::Union { left, right } => {
                let l = self.eval_batch(left)?.into_relation();
                let r = self.eval_batch(right)?.into_relation();
                Ok(BVal::Rows(ops::union_distinct(&l, &r)?))
            }
            Plan::Difference { left, right } => {
                let l = self.eval_batch(left)?.into_relation();
                let r = self.eval_batch(right)?.into_relation();
                Ok(BVal::Rows(ops::difference(&l, &r)?))
            }
            Plan::AntiJoin {
                left,
                right,
                on,
                imp,
            } => {
                let l = self.eval_batch(left)?.into_relation();
                let r = self.eval_batch(right)?.into_relation();
                let keys = JoinKeys::resolve(&l, &r, on)?;
                Ok(BVal::Rows(ops::anti_join_par(
                    &l,
                    &r,
                    &keys,
                    *imp,
                    self.profile.join,
                    self.par(),
                    &mut self.stats,
                )?))
            }
            Plan::SemiJoin { left, right, on } => {
                let l = self.eval_batch(left)?.into_relation();
                let r = self.eval_batch(right)?.into_relation();
                let keys = JoinKeys::resolve(&l, &r, on)?;
                Ok(BVal::Rows(ops::semi_join_par(&l, &r, &keys, self.par(), &mut self.stats)?))
            }
            Plan::MultiwayJoin { children, vars, var_names, .. } => {
                // the trie probe is inherently row-at-a-time: bridge the
                // children out of columnar form and return rows
                let mut rels = Vec::with_capacity(children.len());
                for c in children {
                    rels.push(self.eval_batch(c)?.into_relation());
                }
                Ok(BVal::Rows(crate::wcoj::multiway_join(
                    self.catalog,
                    children,
                    &rels,
                    vars,
                    var_names.len(),
                    &mut self.stats,
                )?))
            }
        }
    }

    /// The join under `Aggregate { group_by }` when the fused kernel
    /// evaluates the pair: a non-empty grouping over a residual-free inner
    /// equi-join, under the hash join and hash aggregation strategies.
    /// Every other shape and profile runs the two operators.
    fn fused_join<'p>(&self, input: &'p Plan, group_by: &[String]) -> Option<FusedJoin<'p>> {
        if group_by.is_empty()
            || self.profile.join != JoinStrategy::Hash
            || self.profile.agg != AggStrategy::Hash
        {
            return None;
        }
        match input {
            Plan::Join {
                left,
                right,
                on,
                residual: None,
                kind: JoinType::Inner,
            } if !on.is_empty() => Some(FusedJoin { left, right, on }),
            _ => None,
        }
    }

    /// `Aggregate(Join)` through [`ops::agg_join`], shared by the row and
    /// batch paths. The join node and its children keep their spans, node
    /// ids, stats and metrics exactly as if the join output had been
    /// materialized, so traces and EXPLAIN ANALYZE read the same.
    fn eval_agg_join(
        &mut self,
        join_plan: &Plan,
        join: FusedJoin<'_>,
        group_by: &[String],
        items: &[(ScalarExpr, String)],
        batch: bool,
    ) -> Result<Relation> {
        let span = self.open_span(join_plan);
        let left = self.kernel_input(join.left, batch)?;
        let right = self.kernel_input(join.right, batch)?;
        let par = self.par();
        let out = ops::agg_join(&left, &right, join.on, group_by, items, par, &mut self.stats)?;
        // counted as the join's output, but never built: no peak memory
        aio_metrics::hooks::op_rows(op_name(join_plan), out.join_rows);
        if let Some(span) = span {
            span.field("rows_out", out.join_rows);
            stamp_phases(&span, join_plan);
        }
        Ok(out.rel)
    }

    /// A fused-kernel input: a table scan reads the stored rows in place
    /// (still traced and counted as a scan), and a base table's
    /// derived-index cache serves its join index and group-key
    /// dictionaries; anything else evaluates.
    fn kernel_input(&mut self, child: &Plan, batch: bool) -> Result<ops::AggJoinInput<'a>> {
        let Plan::Scan { table, alias } = child else {
            let rel = if batch {
                self.eval_batch(child)?.into_relation()
            } else {
                self.eval(child)?
            };
            return Ok(ops::AggJoinInput {
                schema: rel.schema().clone(),
                rel: Cow::Owned(rel),
                cache: None,
            });
        };
        let span = self.open_span(child);
        let entry = self.catalog.entry(table)?;
        let rows = entry.rel.len() as u64;
        self.stats.rows_scanned += rows;
        aio_metrics::hooks::op_rows(op_name(child), rows);
        if let Some(span) = span {
            span.field("rows_out", rows);
        }
        let qual = alias.as_deref().unwrap_or(table_basename(table));
        Ok(ops::AggJoinInput {
            rel: Cow::Borrowed(&entry.rel),
            schema: entry.rel.schema().with_qualifier(qual),
            // temp tables are rewritten every fixpoint iteration: an index
            // cached on one would only be held, never reused
            cache: (!entry.temp).then_some(&entry.cache),
        })
    }

    /// The row-engine join, shared by batch-mode bridges (merge/nested
    /// strategies, residual predicates, non-Int keys).
    #[allow(clippy::too_many_arguments)]
    fn row_join(
        &mut self,
        lrel: &Relation,
        rrel: &Relation,
        on: &[(String, String)],
        residual: &Option<ScalarExpr>,
        kind: JoinType,
        lidx_src: Option<String>,
        ridx_src: Option<String>,
    ) -> Result<BVal> {
        let keys = JoinKeys::resolve(lrel, rrel, on)?;
        let lorder = lidx_src
            .as_ref()
            .and_then(|t| self.catalog.index_on(t, &keys.left))
            .map(|i| i.order());
        let rorder = ridx_src
            .as_ref()
            .and_then(|t| self.catalog.index_on(t, &keys.right))
            .map(|i| i.order());
        Ok(BVal::Rows(ops::join_par(
            lrel,
            rrel,
            &keys,
            residual.as_ref(),
            kind,
            self.profile.join,
            JoinOrders {
                left: lorder,
                right: rorder,
            },
            self.par(),
            &mut self.stats,
        )?))
    }

    /// The table whose stored index could serve this child, if any.
    fn index_source<'s>(
        &self,
        child: &Plan,
        _key_refs: impl Iterator<Item = &'s str>,
    ) -> Option<String> {
        if !self.profile.plan_uses_indexes {
            return None;
        }
        match child {
            Plan::Scan { table, .. } => Some(table.clone()),
            _ => None,
        }
    }
}

/// Join-phase fields of a span: build/probe timings and morsels for
/// binary joins, plus the trie-cache flag for multiway joins. Joins record
/// their phases last on this thread, right before their span closes.
fn stamp_phases(span: &aio_trace::SpanGuard<'_>, plan: &Plan) {
    if matches!(plan, Plan::Join { .. }) {
        let ph = ops::last_join_phases();
        span.field("morsels", ph.morsels);
        span.field("build_ns", ph.build_ns);
        span.field("probe_ns", ph.probe_ns);
    }
    if matches!(plan, Plan::MultiwayJoin { .. }) {
        let ph = crate::wcoj::last_wcoj_phases();
        span.field("build_ns", ph.build_ns);
        span.field("probe_ns", ph.probe_ns);
        span.field("tries_cached", ph.tries_cached);
    }
}

/// The parts of a `Plan::Join` the fused aggregate-join reads.
#[derive(Clone, Copy)]
struct FusedJoin<'p> {
    left: &'p Plan,
    right: &'p Plan,
    on: &'p [(String, String)],
}

/// A value flowing between operators in batch mode: columnar when the
/// producing operator has a batch kernel, row-materialized when it
/// bridged. The transpose is exact in both directions, so mixing the two
/// shapes inside one plan cannot change results.
enum BVal {
    Rows(Relation),
    Cols(Batch),
}

impl BVal {
    fn len(&self) -> usize {
        match self {
            BVal::Rows(r) => r.len(),
            BVal::Cols(b) => b.len(),
        }
    }

    fn into_batch(self) -> Batch {
        match self {
            BVal::Rows(r) => Batch::from_relation(&r),
            BVal::Cols(b) => b,
        }
    }

    fn into_relation(self) -> Relation {
        match self {
            BVal::Rows(r) => r,
            BVal::Cols(b) => b.to_relation(),
        }
    }
}

fn table_basename(t: &str) -> &str {
    t
}

/// Convenience: evaluate a plan with fresh stats.
pub fn execute(
    plan: &Plan,
    catalog: &Catalog,
    profile: &EngineProfile,
) -> Result<(Relation, ExecStats)> {
    let mut ev = Evaluator::new(catalog, profile);
    let rel = ev.eval_root(plan)?;
    Ok((rel, ev.stats))
}

/// [`execute`] with an optional tracer recording one span per operator.
pub fn execute_traced(
    plan: &Plan,
    catalog: &Catalog,
    profile: &EngineProfile,
    tracer: Option<&aio_trace::Tracer>,
) -> Result<(Relation, ExecStats)> {
    let mut ev = Evaluator::with_tracer(catalog, profile, tracer);
    let rel = ev.eval_root(plan)?;
    Ok((rel, ev.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::AlgebraError;
    use crate::profile::{oracle_like, postgres_like};
    use aio_storage::{edge_schema, node_schema, row};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut e = Relation::new(edge_schema());
        e.extend([row![1, 2, 1.0], row![2, 3, 1.0], row![3, 1, 1.0], row![1, 3, 1.0]])
            .unwrap();
        c.create_table("E", e).unwrap();
        let mut v = Relation::new(node_schema());
        v.extend([row![1, 1.0], row![2, 0.0], row![3, 0.0]]).unwrap();
        c.create_table("V", v).unwrap();
        c
    }

    #[test]
    fn scan_qualifies_with_alias() {
        let c = catalog();
        let (rel, _) = execute(&Plan::scan_as("E", "E1"), &c, &oracle_like()).unwrap();
        assert!(rel.schema().index_of("E1.F").is_ok());
    }

    #[test]
    fn transitive_one_hop_plan() {
        // select E1.F, E2.T from E E1, E E2 where E1.T = E2.F  (Fig. 1 body)
        let c = catalog();
        let plan = Plan::Project {
            input: Box::new(Plan::Join {
                left: Box::new(Plan::scan_as("E", "E1")),
                right: Box::new(Plan::scan_as("E", "E2")),
                on: vec![("E1.T".into(), "E2.F".into())],
                residual: None,
                kind: JoinType::Inner,
            }),
            items: vec![
                (ScalarExpr::col("E1.F"), "F".into()),
                (ScalarExpr::col("E2.T"), "T".into()),
            ],
        };
        let (rel, stats) = execute(&plan, &c, &oracle_like()).unwrap();
        // 1→2→3, 2→3→1, 3→1→2, 3→1→3, 1→3→1
        assert_eq!(rel.len(), 5);
        assert_eq!(stats.joins, 1);
    }

    #[test]
    fn profile_changes_physical_behaviour_not_results() {
        let c = catalog();
        let plan = Plan::Join {
            left: Box::new(Plan::scan("E")),
            right: Box::new(Plan::scan("V")),
            on: vec![("E.T".into(), "V.ID".into())],
            residual: None,
            kind: JoinType::Inner,
        };
        let (a, sa) = execute(&plan, &c, &oracle_like()).unwrap();
        let (b, sb) = execute(&plan, &c, &postgres_like(false)).unwrap();
        assert!(a.same_rows_unordered(&b));
        assert_eq!(sa.sorts, 0, "hash join does not sort");
        assert_eq!(sb.sorts, 2, "merge join sorts both sides");
    }

    #[test]
    fn postgres_profile_uses_catalog_index() {
        let mut c = catalog();
        c.build_index("E", &[1]).unwrap(); // index on E.T
        let plan = Plan::Join {
            left: Box::new(Plan::scan("E")),
            right: Box::new(Plan::scan("V")),
            on: vec![("E.T".into(), "V.ID".into())],
            residual: None,
            kind: JoinType::Inner,
        };
        let (_, s) = execute(&plan, &c, &postgres_like(true)).unwrap();
        assert_eq!(s.index_scans, 1);
        assert_eq!(s.sorts, 1, "only the un-indexed side sorts");
        // oracle ignores the index entirely
        let (_, s) = execute(&plan, &c, &oracle_like()).unwrap();
        assert_eq!(s.index_scans, 0);
    }

    #[test]
    fn aggregate_plan_groups() {
        let c = catalog();
        let plan = Plan::Aggregate {
            input: Box::new(Plan::scan("E")),
            group_by: vec!["E.F".into()],
            items: vec![
                (ScalarExpr::col("E.F"), "F".into()),
                (
                    ScalarExpr::Agg(
                        crate::agg::AggFunc::Count,
                        Box::new(ScalarExpr::lit(1i64)),
                    ),
                    "deg".into(),
                ),
            ],
        };
        let (rel, _) = execute(&plan, &c, &oracle_like()).unwrap();
        assert_eq!(rel.len(), 3);
        let deg1 = rel.iter().find(|r| r[0].as_int() == Some(1)).unwrap()[1].as_int();
        assert_eq!(deg1, Some(2));
    }

    #[test]
    fn anti_and_semi_join_plans() {
        let c = catalog();
        // nodes with no incoming edge: V.ID not in (select T from E) → none here
        let anti = Plan::AntiJoin {
            left: Box::new(Plan::scan("V")),
            right: Box::new(Plan::scan("E")),
            on: vec![("V.ID".into(), "E.T".into())],
            imp: AntiJoinImpl::LeftOuterNull,
        };
        let (rel, s) = execute(&anti, &c, &oracle_like()).unwrap();
        assert_eq!(rel.len(), 0);
        assert_eq!(s.anti_joins, 1);
        let semi = Plan::SemiJoin {
            left: Box::new(Plan::scan("V")),
            right: Box::new(Plan::scan("E")),
            on: vec![("V.ID".into(), "E.T".into())],
        };
        let (rel, _) = execute(&semi, &c, &oracle_like()).unwrap();
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn negation_and_aggregation_analysis() {
        let anti = Plan::AntiJoin {
            left: Box::new(Plan::scan("V")),
            right: Box::new(Plan::scan("R")),
            on: vec![("V.ID".into(), "R.ID".into())],
            imp: AntiJoinImpl::NotIn,
        };
        assert!(anti.references_negated("R"));
        assert!(!anti.references_negated("V"));

        let agg = Plan::Aggregate {
            input: Box::new(Plan::scan("R")),
            group_by: vec![],
            items: vec![],
        };
        assert!(agg.aggregates_over("R"));
        assert!(!agg.aggregates_over("V"));
    }

    #[test]
    fn set_ops_and_values() {
        let c = catalog();
        let mut lit = Relation::new(node_schema());
        lit.push(row![9, 9.0]).unwrap();
        let plan = Plan::UnionAll {
            left: Box::new(Plan::scan("V")),
            right: Box::new(Plan::Values(lit)),
        };
        let (rel, _) = execute(&plan, &c, &oracle_like()).unwrap();
        assert_eq!(rel.len(), 4);

        let diff = Plan::Difference {
            left: Box::new(Plan::scan("V")),
            right: Box::new(Plan::scan("V")),
        };
        let (rel, _) = execute(&diff, &c, &oracle_like()).unwrap();
        assert!(rel.is_empty());
    }

    #[test]
    fn batch_mode_matches_row_mode() {
        let c = catalog();
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Select {
                input: Box::new(Plan::Join {
                    left: Box::new(Plan::scan_as("E", "E1")),
                    right: Box::new(Plan::scan_as("E", "E2")),
                    on: vec![("E1.T".into(), "E2.F".into())],
                    residual: None,
                    kind: JoinType::Inner,
                }),
                pred: ScalarExpr::binary(
                    crate::expr::BinOp::Gt,
                    ScalarExpr::col("E1.ew"),
                    ScalarExpr::lit(0.0),
                ),
            }),
            group_by: vec!["E1.F".into()],
            items: vec![
                (ScalarExpr::col("E1.F"), "F".into()),
                (
                    ScalarExpr::Agg(
                        crate::agg::AggFunc::Sum,
                        Box::new(ScalarExpr::col("E2.ew")),
                    ),
                    "s".into(),
                ),
            ],
        };
        let (row, _) = execute(&plan, &c, &oracle_like()).unwrap();
        let batch_profile = oracle_like().with_exec(crate::profile::ExecMode::Batch);
        let (batch, _) = execute(&plan, &c, &batch_profile).unwrap();
        assert_eq!(row.rows(), batch.rows(), "batch engine is row-identical");
        assert_eq!(row.schema().arity(), batch.schema().arity());
    }

    #[test]
    fn missing_table_errors() {
        let c = catalog();
        let err = execute(&Plan::scan("nope"), &c, &oracle_like()).unwrap_err();
        assert!(matches!(err, AlgebraError::Storage(_)));
    }
}
