//! The with+ engine's benchmark: four closed-loop workloads with one client
//! each, output checks on every operation, end-to-end metrics from untraced
//! runs and a per-layer split from a separate traced run, with the native
//! `aio_graph::reference` floor beside each algorithm.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pagerank --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --selftest
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones ([`END_TO_END`]); with `--trace 1` they are the per-layer
//! ones ([`PER_LAYER`]). Workloads, sizes and the layer-to-metric map are
//! described in `perfbench/README.md`.

mod batch;
mod checks;
mod fig8;
mod live;
mod pagerank;
mod patterns;
mod selftest;
mod spans;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("pass_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports with `--trace 1` (0 where the
/// layer does not run on the workload). Counts and times are per pass;
/// on `live-graph` a pass is one write batch and its reads.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("algebra.join.self_ms", "ms"),
    ("algebra.aggregate.self_ms", "ms"),
    ("algebra.scan.self_ms", "ms"),
    ("algebra.project.self_ms", "ms"),
    ("algebra.join.build_ms", "ms"),
    ("algebra.join.probe_ms", "ms"),
    ("algebra.distinct.self_ms", "ms"),
    ("algebra.anti_join.self_ms", "ms"),
    ("algebra.window.self_ms", "ms"),
    ("algebra.other.self_ms", "ms"),
    ("algebra.multiway_join.self_ms", "ms"),
    ("algebra.wcoj.build_ms", "ms"),
    ("algebra.wcoj.probe_ms", "ms"),
    ("algebra.optimize.multiway_chosen", "count"),
    ("algebra.optimize.optimize_us", "us"),
    ("storage.cache.trie_hit_ratio", "ratio"),
    ("algebra.rows_scanned", "count"),
    ("algebra.rows_produced", "count"),
    ("algebra.out_per_scanned", "ratio"),
    ("algebra.par_ops", "count"),
    ("algebra.morsels", "count"),
    ("withplus.psm.iterations", "count"),
    ("withplus.psm.bookkeeping_ms", "ms"),
    ("withplus.psm.delta_rows", "count"),
    ("withplus.psm.ubu_changed_ratio", "ratio"),
    ("storage.mvcc.generations", "count"),
    ("storage.cache.stats_hit_ratio", "ratio"),
    ("withplus.parser.parse_us", "us"),
    ("withplus.compile.prepare_us", "us"),
    ("withplus.lower.lower_us", "us"),
    ("storage.mvcc.pin_fork_us", "us"),
    ("algebra.eval.read_eval_us", "us"),
    ("withplus.ivm.refresh_ms.wcc", "ms"),
    ("withplus.ivm.refresh_ms.pr", "ms"),
    ("withplus.ivm.iterations", "count"),
    ("withplus.ivm.rows_changed", "count"),
    ("withplus.ivm.fallbacks", "count"),
    ("storage.wal.records", "count"),
    ("storage.wal.bytes", "bytes"),
    ("storage.wal.syncs", "count"),
    ("storage.wal.bytes_per_user_byte", "ratio"),
    ("storage.recover.replayed_records", "count"),
    ("storage.recover.replayed_bytes", "bytes"),
    ("storage.recover.records_per_s", "1/s"),
    ("storage.recover.open_s", "s"),
    ("withplus.db.write_p50_ms", "ms"),
    ("withplus.db.edges_per_s", "1/s"),
    ("withplus.session.read_p50_ms", "ms"),
    ("withplus.session.read_tail_ms", "ms"),
    ("withplus.psm.peak_mem_bytes", "bytes"),
    ("graph.reference.floor_ms", "ms"),
    ("graph.reference.gap_x", "x"),
    ("trace.overhead_pct", "%"),
];

/// Each workload sets up at least [`SETUP_MIN_REPS`] times and until
/// [`SETUP_MIN_TOTAL`] has passed (at most [`SETUP_MAX_REPS`] times);
/// `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 15;
const SETUP_MIN_TOTAL: Duration = Duration::from_secs(1);

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Vec<f64>,
    pub pass_ms: Vec<f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
}

impl Report {
    /// Count one operation; a failed check or error counts it as failed.
    pub fn check(&mut self, outcome: Result<(), String>, what: &str) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("check failed: {what}: {e}");
            }
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    pub fn line(&mut self, s: String) {
        self.lines.push(s);
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// The `p`-th percentile of `v` by linear interpolation between ranks.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// The highest of the usual tail percentiles that has at least ten samples
/// beyond it, with its value; `None` when there are too few samples.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| v.len() as f64 * (1.0 - p / 100.0) >= 10.0)
        .map(|p| (p, percentile(v, p)))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Set up `k` inputs, repeating set-ups (see [`SETUP_MIN_REPS`]) and
/// recording each wall time in seconds. `setup` gets the repetition index
/// `i` and builds input `i % k`; the first `k` results are kept.
pub fn timed_setups<T>(rep: &mut Report, k: usize, mut setup: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut kept = Vec::with_capacity(k);
    for i in 0..SETUP_MAX_REPS.max(k) {
        if i >= SETUP_MIN_REPS.max(k) && start.elapsed() >= SETUP_MIN_TOTAL {
            break;
        }
        let t0 = Instant::now();
        let v = setup(i);
        rep.setup_s.push(t0.elapsed().as_secs_f64());
        if kept.len() < k {
            kept.push(v);
        }
    }
    kept
}

/// The seed of input graph `i % k` for a run with `--seed seed` and `k`
/// input graphs. The batch workloads cycle their passes through `k` graphs
/// of the same shape, so a run's median depends less on the structure of
/// any one of them.
pub fn graph_seed(seed: u64, k: usize, i: usize) -> u64 {
    seed.wrapping_mul(k as u64).wrapping_add((i % k) as u64)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The directory the benchmark writes span files and durable databases
/// into, relative to the checkout root it runs from.
pub fn out_dir() -> std::path::PathBuf {
    let d = std::path::PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&d).expect("create perfbench/out");
    d
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--selftest") {
        return Ok(None);
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?,
            "--trace" => trace = num()? != 0,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Some(Args {
        workload,
        seed,
        budget: Duration::from_secs(seconds.max(1)),
        trace,
    }))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => std::process::exit(selftest::run()),
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: --workload <pagerank|fig8-suite|patterns|live-graph> \
                 --seed <n> --seconds <s> --trace <0|1> | --selftest"
            );
            std::process::exit(2);
        }
    };
    let mut rep = match args.workload.as_str() {
        "pagerank" => pagerank::run(&args, &pagerank::FULL),
        "fig8-suite" => fig8::run(&args, fig8::FULL_SCALE),
        "patterns" => patterns::run(&args, &patterns::FULL),
        "live-graph" => live::run(&args, &live::FULL),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if rep.attempted == 0 {
        rep.check(Err("no operation ran".into()), "run");
    }
    print_result(&args, &rep);
}

fn print_result(args: &Args, rep: &Report) {
    let w = &args.workload;
    for l in &rep.lines {
        println!("{w}: {l}");
    }
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            metrics.push((name, rep.layers.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = match name {
                "setup_s" => median(&rep.setup_s),
                "pass_p50_ms" => median(&rep.pass_ms),
                _ => peak_rss_mb(),
            };
            metrics.push((name, value, unit));
        }
    }
    let spread = |v: &[f64], what: &str| {
        format!(
            " (median of {} {what}; quartiles {:.4} .. {:.4})",
            v.len(),
            percentile(v, 25.0),
            percentile(v, 75.0)
        )
    };
    let samples = |name: &str| match name {
        "setup_s" => spread(&rep.setup_s, "set-ups"),
        "pass_p50_ms" => spread(&rep.pass_ms, "passes"),
        _ => String::new(),
    };
    for (name, value, unit) in &metrics {
        println!("{w}: {name} = {value:.4} {unit}{}", samples(name));
    }
    println!(
        "{w}: error_rate = {:.6} ({} failed of {} operations)",
        rep.error_rate(),
        rep.failed,
        rep.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.failed == 0,
        rep.attempted,
        rep.failed,
        body.join(", ")
    );
}
