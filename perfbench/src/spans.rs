//! The traced run's span store. The benchmark opens its own span around
//! every public entry point it calls and attaches the engine's `aio-trace`
//! tracer to each database it drives. Both are kept in memory, put on one
//! timeline and written out as JSONL when the run ends; the per-layer self
//! times are derived from them.

use aio_trace::{SpanGuard, SpanRecord, Trace, Tracer};
use aio_withplus::Database;
use std::collections::BTreeMap;
use std::io::Write;

/// Engine span ids are shifted by this much so they never collide with
/// the benchmark's own ids in the written file.
const ENGINE_ID_BASE: u64 = 1 << 40;

pub struct Spans {
    bench: Tracer,
    /// Engine traces with the benchmark-timeline offset of their epoch.
    engine: Vec<(u64, Trace)>,
}

/// Totals derived from the spans of one traced phase.
#[derive(Default, Debug)]
pub struct Totals {
    /// Self time (ns) per engine operator span name.
    pub op_self_ns: BTreeMap<&'static str, u64>,
    pub join_build_ns: u64,
    pub join_probe_ns: u64,
    pub wcoj_build_ns: u64,
    pub wcoj_probe_ns: u64,
    /// `iteration` span time not covered by its `query` children.
    pub bookkeeping_ns: u64,
    /// Duration (ns) of each benchmark span, by name, in order.
    pub bench_ns: BTreeMap<&'static str, Vec<u64>>,
}

/// Engine span names that are relational operators (see
/// `aio_algebra::plan::op_name`).
const OPERATORS: [&str; 15] = [
    "scan",
    "values",
    "select",
    "project",
    "aggregate",
    "window",
    "distinct",
    "join",
    "product",
    "union_all",
    "union",
    "difference",
    "anti_join",
    "semi_join",
    "multiway_join",
];

impl Spans {
    pub fn new() -> Spans {
        Spans {
            bench: Tracer::new(),
            engine: Vec::new(),
        }
    }

    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.bench.span(name)
    }

    /// Attach a fresh engine tracer to `db`; returns its timeline offset.
    pub fn attach(&self, db: &mut Database) -> u64 {
        let offset = self.bench.now_ns();
        db.enable_tracing();
        offset
    }

    /// Take back what the engine recorded on `db` since [`Spans::attach`].
    pub fn detach(&mut self, db: &mut Database, offset: u64) {
        if let Some(t) = db.take_trace() {
            self.engine.push((offset, t));
        }
    }

    /// Write every span to `path` as JSONL on one timeline and derive the
    /// per-layer totals.
    pub fn finish(self, path: &std::path::Path) -> Totals {
        let bench = self.bench.finish();
        let mut totals = Totals::default();
        for s in &bench.spans {
            totals.bench_ns.entry(s.name).or_default().push(s.dur_ns());
        }
        for (_, t) in &self.engine {
            derive(t, &mut totals);
        }
        if let Err(e) = write_jsonl(path, &bench, &self.engine) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        totals
    }
}

fn derive(t: &Trace, totals: &mut Totals) {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    let mut query_child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in &t.spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
            if s.name == "query" {
                *query_child_ns.entry(s.parent).or_default() += s.dur_ns();
            }
        }
    }
    for s in &t.spans {
        let own = s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let field = |k: &str| s.field_u64(k).unwrap_or(0);
        match s.name {
            "join" => {
                totals.join_build_ns += field("build_ns");
                totals.join_probe_ns += field("probe_ns");
            }
            "multiway_join" => {
                totals.wcoj_build_ns += field("build_ns");
                totals.wcoj_probe_ns += field("probe_ns");
            }
            "iteration" => {
                totals.bookkeeping_ns += s
                    .dur_ns()
                    .saturating_sub(query_child_ns.get(&s.id).copied().unwrap_or(0));
            }
            _ => {}
        }
        if OPERATORS.contains(&s.name) {
            *totals.op_self_ns.entry(s.name).or_default() += own;
        }
    }
}

/// One JSON object per span: `src` is `bench` or `engine`, times are ns on
/// the benchmark tracer's timeline, and an engine root span's `parent` is
/// the innermost benchmark span that encloses it (the call that caused it).
fn write_jsonl(
    path: &std::path::Path,
    bench: &Trace,
    engine: &[(u64, Trace)],
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let line = |src: &str, s: &SpanRecord, id: u64, parent: u64, start: u64, end: u64| {
        let fields: Vec<String> = s
            .fields
            .iter()
            .map(|(k, v)| format!("\"{}\": {}", k.as_ref(), v.to_json()))
            .collect();
        format!(
            "{{\"src\": \"{src}\", \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
             \"start_ns\": {start}, \"end_ns\": {end}, \"fields\": {{{}}}}}\n",
            s.name,
            fields.join(", ")
        )
    };
    for s in &bench.spans {
        out.write_all(line("bench", s, s.id, s.parent, s.start_ns, s.end_ns).as_bytes())?;
    }
    let mut by_start: Vec<&SpanRecord> = bench.spans.iter().collect();
    by_start.sort_by_key(|s| s.start_ns);
    let mut base = ENGINE_ID_BASE;
    for (offset, t) in engine {
        let max_id = t.spans.iter().map(|s| s.id).max().unwrap_or(0);
        for s in &t.spans {
            let (start, end) = (s.start_ns + offset, s.end_ns + offset);
            let parent = if s.parent != 0 {
                s.parent + base
            } else {
                by_start
                    .iter()
                    .take_while(|b| b.start_ns <= start)
                    .filter(|b| b.end_ns >= end)
                    .max_by_key(|b| b.depth)
                    .map_or(0, |b| b.id)
            };
            out.write_all(line("engine", s, s.id + base, parent, start, end).as_bytes())?;
        }
        base += max_id + 1;
    }
    out.flush()
}
