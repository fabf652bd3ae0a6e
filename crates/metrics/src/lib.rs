//! Engine-wide metrics: a typed registry of counters, gauges and
//! log-bucketed histograms with cheap relaxed-atomic updates, per-query
//! resource reports in a bounded ring buffer, and Prometheus/JSON export.
//!
//! The cost discipline mirrors `aio-trace`'s disabled-check-is-one-branch
//! rule: every update first loads one global `AtomicBool` (relaxed) and
//! returns if metrics are off, and no hot path updates a metric per *row* —
//! only per operator invocation, per batch, per WAL record, or per
//! fixpoint iteration. `repro metrics_overhead` holds the enabled path to
//! ≤2% on a ~1M-edge hash join.
//!
//! Besides the cumulative globals, a small set of thread-local
//! [`CacheCounters`] is maintained alongside (trie/stats cache traffic and
//! WAL appends), so a caller can snapshot before and after a query and
//! attribute deltas to it without cross-thread noise — that is how
//! `Database::execute` fills each [`QueryReport`].

pub mod export;

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Global enable switch
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Is metric collection on? One relaxed load; metrics default to enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on or off process-wide (used by the overhead benchmark
/// and by tests that need frozen counters).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// Monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Gated add: a no-op (one branch) while metrics are disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.add_raw(n);
        }
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Ungated add for call sites that already checked [`enabled`].
    #[inline]
    pub fn add_raw(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value.
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    #[inline]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.set_raw(v);
        }
    }

    #[inline]
    pub fn set_raw(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i < NBUCKETS-1` counts observations
/// `v <= 2^i`; the last bucket is the +Inf overflow.
pub const NBUCKETS: usize = 32;

/// Bucket index for an observation (power-of-two boundaries).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        (64 - (v - 1).leading_zeros() as usize).min(NBUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (the last bucket is +Inf).
pub fn bucket_bound(i: usize) -> u64 {
    1u64 << i.min(63)
}

/// Log-bucketed histogram: 32 power-of-two buckets plus sum and count, all
/// relaxed atomics — an observation is three `fetch_add`s and no locks.
pub struct Histogram {
    buckets: [AtomicU64; NBUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    pub const fn new() -> Histogram {
        #[allow(clippy::declare_interior_mutable_const)]
        const Z: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [Z; NBUCKETS],
            sum: Z,
            count: Z,
        }
    }

    /// Gated observe: a no-op (one branch) while metrics are disabled.
    #[inline]
    pub fn observe(&self, v: u64) {
        if enabled() {
            self.observe_raw(v);
        }
    }

    /// Ungated observe for call sites that already checked [`enabled`].
    #[inline]
    pub fn observe_raw(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn bucket_counts(&self) -> [u64; NBUCKETS] {
        let mut out = [0u64; NBUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// Borrowed view of one registered metric, used by `EngineMetrics::visit`.
pub enum MetricView<'a> {
    Counter(&'a Counter),
    Gauge(&'a Gauge),
    Histogram(&'a Histogram),
}

impl MetricView<'_> {
    pub fn kind(&self) -> &'static str {
        match self {
            MetricView::Counter(_) => "counter",
            MetricView::Gauge(_) => "gauge",
            MetricView::Histogram(_) => "histogram",
        }
    }
}

// ---------------------------------------------------------------------------
// The engine metric set — declared once; names derive from the field names
// (prefixed `aio_`), which is what lets the hygiene test check every metric
// that can ever be exported.
// ---------------------------------------------------------------------------

macro_rules! engine_metrics {
    ( $( $field:ident : $kind:ident => $help:literal ; )* ) => {
        /// Every cumulative engine metric. Field name + `aio_` prefix is the
        /// exported metric name.
        #[derive(Default)]
        pub struct EngineMetrics {
            $( pub $field: $kind, )*
        }

        impl EngineMetrics {
            /// Visit `(name, view, help)` for every registered metric, in
            /// declaration order.
            pub fn visit(&self, f: &mut dyn FnMut(&'static str, MetricView<'_>, &'static str)) {
                $( f(concat!("aio_", stringify!($field)), MetricView::$kind(&self.$field), $help); )*
            }
        }
    };
}

engine_metrics! {
    // storage: WAL / checkpoint / recovery
    wal_records_total: Counter => "WAL records appended";
    wal_bytes_total: Counter => "WAL payload bytes appended";
    wal_syncs_total: Counter => "WAL sync (fsync-equivalent) calls";
    checkpoints_total: Counter => "catalog checkpoints taken";
    checkpoint_bytes_total: Counter => "bytes written by checkpoints";
    checkpoint_ms: Histogram => "checkpoint duration in milliseconds";
    recoveries_total: Counter => "startup/crash recoveries run";
    recovery_ms: Histogram => "recovery duration in milliseconds";
    // storage: caches and resident data
    trie_cache_hits_total: Counter => "trie-index cache hits";
    trie_cache_misses_total: Counter => "trie-index cache misses (index built)";
    trie_build_ms: Histogram => "trie-index build duration in milliseconds";
    join_index_cache_hits_total: Counter => "hash join-index cache hits";
    join_index_cache_misses_total: Counter => "hash join-index cache misses (index built)";
    stats_cache_hits_total: Counter => "relation-statistics cache hits";
    stats_cache_misses_total: Counter => "relation-statistics cache misses";
    relation_bytes_total: Counter => "estimated bytes of rows loaded into catalog relations";
    catalog_rows: Gauge => "rows currently resident across catalog tables";
    catalog_mem_bytes: Gauge => "estimated resident bytes across catalog tables";
    // algebra: rows per operator class, batches, parallelism
    op_scan_rows_total: Counter => "rows produced by scan operators";
    op_filter_rows_total: Counter => "rows produced by selection operators";
    op_project_rows_total: Counter => "rows produced by projection operators";
    op_aggregate_rows_total: Counter => "rows produced by aggregate and window operators";
    op_join_rows_total: Counter => "rows produced by binary join operators";
    op_setop_rows_total: Counter => "rows produced by set operators";
    op_wcoj_rows_total: Counter => "rows produced by worst-case-optimal multiway joins";
    op_other_rows_total: Counter => "rows produced by all other operators";
    batches_total: Counter => "columnar batches produced";
    batch_bytes_total: Counter => "estimated bytes of columnar batches produced";
    morsels_total: Counter => "morsels dispatched by parallel operators";
    parallel_ops_total: Counter => "operator invocations that ran morsel-parallel";
    join_build_rows: Histogram => "hash-join build-side size in rows";
    wcoj_seeks_total: Counter => "LFTJ seek-least-upper-bound calls";
    wcoj_gallop_steps_total: Counter => "LFTJ galloping probe steps";
    // queries and fixpoints
    queries_total: Counter => "queries executed";
    query_wall_ms: Histogram => "query wall time in milliseconds";
    query_peak_mem_bytes: Histogram => "per-query peak estimated operator-output bytes";
    fixpoint_iterations_total: Counter => "with+ fixpoint iterations";
    fixpoint_delta_rows_total: Counter => "rows in with+ fixpoint deltas";
    fixpoint_converge_ms: Histogram => "with+ fixpoint convergence wall time in milliseconds";
    datalog_rounds_total: Counter => "Datalog semi-naive rounds";
    datalog_delta_rows_total: Counter => "rows in Datalog semi-naive deltas";
    // native engines
    native_supersteps_total: Counter => "native-engine supersteps";
    native_active_vertices_total: Counter => "native-engine active vertices summed over supersteps";
    // MVCC generations and snapshot pins
    mvcc_generations_total: Counter => "committed catalog generations published to snapshot readers";
    mvcc_generation_current: Gauge => "newest committed catalog generation number";
    mvcc_pins_total: Counter => "snapshot pins taken by readers";
    mvcc_pinned_current: Gauge => "snapshot pins currently held by readers";
    mvcc_cow_clones_total: Counter => "table entries cloned by copy-on-write before a writer mutation";
    mvcc_cow_rows_total: Counter => "rows copied by copy-on-write entry clones";
    // incremental view maintenance
    ivm_refreshes_total: Counter => "materialized-view refreshes triggered by edge deltas";
    ivm_full_fallbacks_total: Counter => "view refreshes that fell back to a full recompute";
    ivm_base_delta_rows_total: Counter => "edge-delta rows (adds + deletes) applied to base tables";
    ivm_result_delta_rows_total: Counter => "result-delta rows (added + removed + changed) emitted by view refreshes";
    ivm_refresh_ms: Histogram => "per-view incremental refresh duration in milliseconds";
}

// ---------------------------------------------------------------------------
// Thread-local per-query attribution
// ---------------------------------------------------------------------------

/// Cache and WAL traffic attributable to the current thread. `Database`
/// snapshots these around each query; the delta is what lands in the
/// [`QueryReport`] (the global counters stay cumulative across threads).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    pub trie_hits: u64,
    pub trie_misses: u64,
    pub join_index_hits: u64,
    pub join_index_misses: u64,
    pub stats_hits: u64,
    pub stats_misses: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
}

impl CacheCounters {
    /// Component-wise difference vs. an earlier snapshot.
    pub fn delta_since(&self, earlier: &CacheCounters) -> CacheCounters {
        CacheCounters {
            trie_hits: self.trie_hits.wrapping_sub(earlier.trie_hits),
            trie_misses: self.trie_misses.wrapping_sub(earlier.trie_misses),
            join_index_hits: self.join_index_hits.wrapping_sub(earlier.join_index_hits),
            join_index_misses: self.join_index_misses.wrapping_sub(earlier.join_index_misses),
            stats_hits: self.stats_hits.wrapping_sub(earlier.stats_hits),
            stats_misses: self.stats_misses.wrapping_sub(earlier.stats_misses),
            wal_records: self.wal_records.wrapping_sub(earlier.wal_records),
            wal_bytes: self.wal_bytes.wrapping_sub(earlier.wal_bytes),
        }
    }

    pub fn trie_total(&self) -> u64 {
        self.trie_hits + self.trie_misses
    }

    pub fn stats_total(&self) -> u64 {
        self.stats_hits + self.stats_misses
    }
}

struct LocalCells {
    trie_hits: Cell<u64>,
    trie_misses: Cell<u64>,
    join_index_hits: Cell<u64>,
    join_index_misses: Cell<u64>,
    stats_hits: Cell<u64>,
    stats_misses: Cell<u64>,
    wal_records: Cell<u64>,
    wal_bytes: Cell<u64>,
}

thread_local! {
    static LOCAL: LocalCells = const {
        LocalCells {
            trie_hits: Cell::new(0),
            trie_misses: Cell::new(0),
            join_index_hits: Cell::new(0),
            join_index_misses: Cell::new(0),
            stats_hits: Cell::new(0),
            stats_misses: Cell::new(0),
            wal_records: Cell::new(0),
            wal_bytes: Cell::new(0),
        }
    };
}

/// Snapshot this thread's attribution counters (cumulative; diff two
/// snapshots with [`CacheCounters::delta_since`]).
pub fn local_counters() -> CacheCounters {
    LOCAL.with(|l| CacheCounters {
        trie_hits: l.trie_hits.get(),
        trie_misses: l.trie_misses.get(),
        join_index_hits: l.join_index_hits.get(),
        join_index_misses: l.join_index_misses.get(),
        stats_hits: l.stats_hits.get(),
        stats_misses: l.stats_misses.get(),
        wal_records: l.wal_records.get(),
        wal_bytes: l.wal_bytes.get(),
    })
}

// ---------------------------------------------------------------------------
// Per-query reports
// ---------------------------------------------------------------------------

/// Everything the engine remembers about one executed query; rows of the
/// `aio_query_log` system relation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryReport {
    /// Monotonic sequence number, assigned by [`MetricsRegistry::record_query`].
    pub seq: u64,
    /// FNV-1a 64 of the full SQL text.
    pub sql_hash: u64,
    /// Whitespace-collapsed SQL, truncated to [`SQL_SNIPPET_MAX`] chars.
    pub sql: String,
    pub wall_ms: f64,
    pub rows_out: u64,
    pub rows_scanned: u64,
    /// Fixpoint iterations (0 for plain SELECTs).
    pub iterations: u64,
    /// Peak estimated bytes of any operator output during execution.
    pub peak_mem_bytes: u64,
    /// Session the statement ran under (0 = the database handle itself,
    /// outside any session).
    pub session: u64,
    /// Committed catalog generation the statement observed: the pinned
    /// snapshot generation for session reads, the post-commit generation
    /// for writes.
    pub generation: u64,
    /// Cache/WAL deltas attributed to this query.
    pub cache: CacheCounters,
    pub par: u64,
    /// `"row"` or `"batch"`.
    pub exec: &'static str,
    /// Optimizer level label (`"off"` / `"rules"` / `"cost"`).
    pub optimizer: &'static str,
}

/// Max chars of SQL kept in a [`QueryReport`].
pub const SQL_SNIPPET_MAX: usize = 120;

/// Collapse whitespace runs and truncate to [`SQL_SNIPPET_MAX`] chars.
pub fn sql_snippet(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len().min(SQL_SNIPPET_MAX + 1));
    let mut in_ws = false;
    for c in sql.trim().chars() {
        if c.is_whitespace() {
            in_ws = true;
            continue;
        }
        if in_ws && !out.is_empty() {
            out.push(' ');
        }
        in_ws = false;
        if out.chars().count() >= SQL_SNIPPET_MAX {
            out.push('…');
            break;
        }
        out.push(c);
    }
    out
}

/// FNV-1a 64-bit hash (for SQL-text fingerprints in the query log).
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Capacity of the query-log ring buffer.
pub const QUERY_LOG_CAP: usize = 512;

struct QueryLog {
    entries: VecDeque<QueryReport>,
    seq: u64,
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The metric registry: the full [`EngineMetrics`] set plus the bounded
/// query log. Usually accessed through [`global`]; tests can build isolated
/// instances with `MetricsRegistry::default()`.
#[derive(Default)]
pub struct MetricsRegistry {
    pub engine: EngineMetrics,
    queries: Mutex<Option<QueryLog>>,
}

/// The process-wide registry every instrumented engine layer reports into.
pub fn global() -> &'static MetricsRegistry {
    static G: OnceLock<MetricsRegistry> = OnceLock::new();
    G.get_or_init(MetricsRegistry::default)
}

/// One row of a registry snapshot (and of the `aio_metrics` system
/// relation). Histograms contribute derived `<name>_count` and
/// `<name>_sum` rows.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    pub name: String,
    pub kind: &'static str,
    pub value: f64,
    pub help: &'static str,
}

impl MetricsRegistry {
    /// Flat view of every metric: counters and gauges one row each,
    /// histograms as `_count` + `_sum` rows. This is the single source for
    /// both the `aio_metrics` system relation and the JSON export, which is
    /// what makes the self-query differential test row-for-row exact.
    pub fn snapshot(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        self.engine.visit(&mut |name, view, help| match view {
            MetricView::Counter(c) => out.push(Sample {
                name: name.to_string(),
                kind: "counter",
                value: c.get() as f64,
                help,
            }),
            MetricView::Gauge(g) => out.push(Sample {
                name: name.to_string(),
                kind: "gauge",
                value: g.get() as f64,
                help,
            }),
            MetricView::Histogram(h) => {
                out.push(Sample {
                    name: format!("{name}_count"),
                    kind: "histogram",
                    value: h.count() as f64,
                    help,
                });
                out.push(Sample {
                    name: format!("{name}_sum"),
                    kind: "histogram",
                    value: h.sum() as f64,
                    help,
                });
            }
        });
        out
    }

    /// Append a finished query to the ring buffer (assigns `seq`) and feed
    /// the cumulative query metrics. No-op while metrics are disabled.
    pub fn record_query(&self, mut r: QueryReport) {
        if !enabled() {
            return;
        }
        self.engine.queries_total.add_raw(1);
        self.engine.query_wall_ms.observe_raw(r.wall_ms as u64);
        self.engine.query_peak_mem_bytes.observe_raw(r.peak_mem_bytes);
        let mut guard = self.queries.lock().unwrap();
        let log = guard.get_or_insert_with(|| QueryLog {
            entries: VecDeque::with_capacity(QUERY_LOG_CAP),
            seq: 0,
        });
        log.seq += 1;
        r.seq = log.seq;
        if log.entries.len() == QUERY_LOG_CAP {
            log.entries.pop_front();
        }
        log.entries.push_back(r);
    }

    /// The retained query reports, oldest first.
    pub fn query_log(&self) -> Vec<QueryReport> {
        match self.queries.lock().unwrap().as_ref() {
            Some(log) => log.entries.iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Drop all retained query reports (sequence numbers keep increasing).
    pub fn clear_query_log(&self) {
        if let Some(log) = self.queries.lock().unwrap().as_mut() {
            log.entries.clear();
        }
    }
}

// ---------------------------------------------------------------------------
// Instrumentation hooks: one-line call sites for the engine layers. Each
// checks `enabled()` exactly once, then does ungated updates.
// ---------------------------------------------------------------------------

pub mod hooks {
    use super::*;

    #[inline]
    pub fn wal_append(bytes: u64) {
        if !enabled() {
            return;
        }
        let m = &global().engine;
        m.wal_records_total.add_raw(1);
        m.wal_bytes_total.add_raw(bytes);
        LOCAL.with(|l| {
            l.wal_records.set(l.wal_records.get() + 1);
            l.wal_bytes.set(l.wal_bytes.get() + bytes);
        });
    }

    #[inline]
    pub fn wal_sync() {
        global().engine.wal_syncs_total.inc();
    }

    #[inline]
    pub fn trie_cache(hit: bool) {
        if !enabled() {
            return;
        }
        let m = &global().engine;
        if hit {
            m.trie_cache_hits_total.add_raw(1);
            LOCAL.with(|l| l.trie_hits.set(l.trie_hits.get() + 1));
        } else {
            m.trie_cache_misses_total.add_raw(1);
            LOCAL.with(|l| l.trie_misses.set(l.trie_misses.get() + 1));
        }
    }

    #[inline]
    pub fn join_index_cache(hit: bool) {
        if !enabled() {
            return;
        }
        let m = &global().engine;
        if hit {
            m.join_index_cache_hits_total.add_raw(1);
            LOCAL.with(|l| l.join_index_hits.set(l.join_index_hits.get() + 1));
        } else {
            m.join_index_cache_misses_total.add_raw(1);
            LOCAL.with(|l| l.join_index_misses.set(l.join_index_misses.get() + 1));
        }
    }

    #[inline]
    pub fn stats_cache(hit: bool) {
        if !enabled() {
            return;
        }
        let m = &global().engine;
        if hit {
            m.stats_cache_hits_total.add_raw(1);
            LOCAL.with(|l| l.stats_hits.set(l.stats_hits.get() + 1));
        } else {
            m.stats_cache_misses_total.add_raw(1);
            LOCAL.with(|l| l.stats_misses.set(l.stats_misses.get() + 1));
        }
    }

    /// Attribute rows produced by one operator invocation to its class.
    #[inline]
    pub fn op_rows(op: &str, rows: u64) {
        if !enabled() {
            return;
        }
        let m = &global().engine;
        let c = match op {
            "scan" | "values" => &m.op_scan_rows_total,
            "select" => &m.op_filter_rows_total,
            "project" => &m.op_project_rows_total,
            "aggregate" | "window" => &m.op_aggregate_rows_total,
            "join" | "product" | "semi_join" | "anti_join" => &m.op_join_rows_total,
            "union" | "union_all" | "difference" | "distinct" => &m.op_setop_rows_total,
            "multiway_join" => &m.op_wcoj_rows_total,
            _ => &m.op_other_rows_total,
        };
        c.add_raw(rows);
    }

    /// One columnar operator output: `n` logical batches totalling `bytes`.
    #[inline]
    pub fn batches(n: u64, bytes: u64) {
        if !enabled() {
            return;
        }
        let m = &global().engine;
        m.batches_total.add_raw(n);
        m.batch_bytes_total.add_raw(bytes);
    }

    #[inline]
    pub fn parallel_op(morsels: u64) {
        if !enabled() {
            return;
        }
        let m = &global().engine;
        m.parallel_ops_total.add_raw(1);
        m.morsels_total.add_raw(morsels);
    }

    /// Flush WCOJ counters accumulated locally over one multiway join.
    #[inline]
    pub fn wcoj_flush(seeks: u64, gallop_steps: u64) {
        if !enabled() {
            return;
        }
        let m = &global().engine;
        m.wcoj_seeks_total.add_raw(seeks);
        m.wcoj_gallop_steps_total.add_raw(gallop_steps);
    }

    #[inline]
    pub fn fixpoint_iteration(delta_rows: u64) {
        if !enabled() {
            return;
        }
        let m = &global().engine;
        m.fixpoint_iterations_total.add_raw(1);
        m.fixpoint_delta_rows_total.add_raw(delta_rows);
    }

    #[inline]
    pub fn datalog_round(delta_rows: u64) {
        if !enabled() {
            return;
        }
        let m = &global().engine;
        m.datalog_rounds_total.add_raw(1);
        m.datalog_delta_rows_total.add_raw(delta_rows);
    }

    #[inline]
    pub fn superstep(active_vertices: u64) {
        if !enabled() {
            return;
        }
        let m = &global().engine;
        m.native_supersteps_total.add_raw(1);
        m.native_active_vertices_total.add_raw(active_vertices);
    }

    #[inline]
    pub fn checkpoint(bytes: u64, ms: u64) {
        if !enabled() {
            return;
        }
        let m = &global().engine;
        m.checkpoints_total.add_raw(1);
        m.checkpoint_bytes_total.add_raw(bytes);
        m.checkpoint_ms.observe_raw(ms);
    }

    #[inline]
    pub fn recovery(ms: u64) {
        if !enabled() {
            return;
        }
        let m = &global().engine;
        m.recoveries_total.add_raw(1);
        m.recovery_ms.observe_raw(ms);
    }

    /// A commit point published a new committed generation.
    #[inline]
    pub fn mvcc_publish(gen: u64) {
        if !enabled() {
            return;
        }
        let m = &global().engine;
        m.mvcc_generations_total.add_raw(1);
        m.mvcc_generation_current.set_raw(gen);
    }

    /// A reader pinned a snapshot; `held` is the new number of live pins.
    #[inline]
    pub fn mvcc_pin(held: u64) {
        if !enabled() {
            return;
        }
        let m = &global().engine;
        m.mvcc_pins_total.add_raw(1);
        m.mvcc_pinned_current.set_raw(held);
    }

    /// A pinned snapshot was dropped; `held` is the remaining live pins.
    #[inline]
    pub fn mvcc_unpin(held: u64) {
        global().engine.mvcc_pinned_current.set(held);
    }

    /// Copy-on-write cloned a shared table entry of `rows` rows so the
    /// writer could mutate it without disturbing pinned snapshots.
    #[inline]
    pub fn mvcc_cow_clone(rows: u64) {
        if !enabled() {
            return;
        }
        let m = &global().engine;
        m.mvcc_cow_clones_total.add_raw(1);
        m.mvcc_cow_rows_total.add_raw(rows);
    }

    /// An edge-delta batch landed on a base table.
    #[inline]
    pub fn ivm_base_delta(adds: u64, dels: u64) {
        if !enabled() {
            return;
        }
        global().engine.ivm_base_delta_rows_total.add_raw(adds + dels);
    }

    /// One materialized view refreshed. `fallback` marks a full recompute;
    /// `result_delta_rows` counts added + removed + changed output rows.
    #[inline]
    pub fn ivm_refresh(fallback: bool, result_delta_rows: u64, ms: u64) {
        if !enabled() {
            return;
        }
        let m = &global().engine;
        m.ivm_refreshes_total.add_raw(1);
        if fallback {
            m.ivm_full_fallbacks_total.add_raw(1);
        }
        m.ivm_result_delta_rows_total.add_raw(result_delta_rows);
        m.ivm_refresh_ms.observe_raw(ms);
    }

    #[inline]
    pub fn catalog_size(rows: u64, bytes: u64) {
        if !enabled() {
            return;
        }
        let m = &global().engine;
        m.catalog_rows.set_raw(rows);
        m.catalog_mem_bytes.set_raw(bytes);
    }
}

/// Tests that read or toggle the process-wide enable flag must not
/// interleave with each other under the parallel test runner.
#[cfg(test)]
pub(crate) static TEST_GATE: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    use super::TEST_GATE as GATE;

    #[test]
    fn counter_and_gauge_respect_enable_gate() {
        let _g = GATE.lock().unwrap();
        let c = Counter::new();
        let g = Gauge::new();
        set_enabled(true);
        c.add(2);
        g.set(7);
        set_enabled(false);
        c.add(100);
        g.set(100);
        set_enabled(true);
        assert_eq!(c.get(), 2);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 20), 20);
        assert_eq!(bucket_index(u64::MAX), NBUCKETS - 1);
        for i in 0..NBUCKETS - 1 {
            // every bucket's inclusive upper bound maps back into it
            assert_eq!(bucket_index(bucket_bound(i)), i, "bound of bucket {i}");
        }
        let h = Histogram::new();
        h.observe(3);
        h.observe(4);
        h.observe(1000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1007);
        let b = h.bucket_counts();
        assert_eq!(b[2], 2);
        assert_eq!(b[10], 1);
    }

    #[test]
    fn metric_names_are_unique_snake_case_and_unit_suffixed() {
        // The hygiene gate: Prometheus scrapes must never collide, so every
        // registered name is unique, lowercase-snake, `aio_`-prefixed, and
        // carries a unit suffix.
        let reg = MetricsRegistry::default();
        let mut names: Vec<&'static str> = Vec::new();
        reg.engine.visit(&mut |name, view, help| {
            assert!(!help.is_empty(), "{name}: empty help");
            assert!(!view.kind().is_empty());
            names.push(name);
        });
        assert!(names.len() >= 30, "suspiciously few metrics: {}", names.len());
        let mut seen = std::collections::HashSet::new();
        for name in &names {
            assert!(seen.insert(*name), "duplicate metric name {name}");
            assert!(name.starts_with("aio_"), "{name}: missing aio_ prefix");
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
                "{name}: not lowercase-snake"
            );
            assert!(
                ["_total", "_bytes", "_ms", "_rows", "_current"]
                    .iter()
                    .any(|s| name.ends_with(s)),
                "{name}: missing unit suffix (_total/_bytes/_ms/_rows/_current)"
            );
        }
        // Derived histogram sample names must not collide either.
        let mut sample_names = std::collections::HashSet::new();
        for s in reg.snapshot() {
            assert!(sample_names.insert(s.name.clone()), "duplicate sample {}", s.name);
        }
    }

    #[test]
    fn query_log_ring_buffer_is_bounded_and_sequenced() {
        let _g = GATE.lock().unwrap();
        let reg = MetricsRegistry::default();
        set_enabled(true);
        for i in 0..QUERY_LOG_CAP + 10 {
            reg.record_query(QueryReport {
                sql: format!("select {i}"),
                ..Default::default()
            });
        }
        let log = reg.query_log();
        assert_eq!(log.len(), QUERY_LOG_CAP);
        assert_eq!(log.first().unwrap().seq, 11);
        assert_eq!(log.last().unwrap().seq, (QUERY_LOG_CAP + 10) as u64);
        assert_eq!(log.last().unwrap().sql, format!("select {}", QUERY_LOG_CAP + 9));
        assert_eq!(reg.engine.queries_total.get(), (QUERY_LOG_CAP + 10) as u64);
    }

    #[test]
    fn local_counters_attribute_per_thread() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        let before = local_counters();
        hooks::trie_cache(true);
        hooks::trie_cache(false);
        hooks::join_index_cache(true);
        hooks::join_index_cache(true);
        hooks::join_index_cache(false);
        hooks::stats_cache(true);
        hooks::wal_append(100);
        hooks::wal_append(20);
        // another thread's traffic must not leak into this thread's delta
        std::thread::spawn(|| {
            hooks::trie_cache(true);
            hooks::wal_append(9999);
        })
        .join()
        .unwrap();
        let d = local_counters().delta_since(&before);
        assert_eq!(
            d,
            CacheCounters {
                trie_hits: 1,
                trie_misses: 1,
                join_index_hits: 2,
                join_index_misses: 1,
                stats_hits: 1,
                stats_misses: 0,
                wal_records: 2,
                wal_bytes: 120,
            }
        );
        assert_eq!(d.trie_total(), 2);
        assert_eq!(d.stats_total(), 1);
    }

    #[test]
    fn sql_snippets_collapse_and_truncate() {
        assert_eq!(sql_snippet("  select \n\t 1  "), "select 1");
        let long = format!("select {}", "x".repeat(500));
        let snip = sql_snippet(&long);
        assert_eq!(snip.chars().count(), SQL_SNIPPET_MAX + 1);
        assert!(snip.ends_with('…'));
    }

    #[test]
    fn fnv1a_distinguishes_texts() {
        assert_ne!(fnv1a("select 1"), fnv1a("select 2"));
        assert_eq!(fnv1a("select 1"), fnv1a("select 1"));
    }
}
