//! Planted-fault self-test: at a tiny size, arm each of the engine's
//! injectable defects in turn and show that the output checks catch it
//! (`error_rate` above 0) and that the same run is clean once disarmed.

use crate::{fig8, live, pagerank, patterns, Args, Report};
use aio_algebra::{
    fault::inject_ivm_seed_off_by_one, fault_hits, inject_ubu_off_by_one,
    inject_wcoj_seek_off_by_one,
};
use std::time::Duration;

type Arm = fn(bool);

fn run_tiny(workload: &str) -> Report {
    let args = Args {
        workload: workload.to_string(),
        seed: 1,
        budget: Duration::from_millis(300),
        trace: false,
    };
    match workload {
        "pagerank" => pagerank::run(&args, &pagerank::TINY),
        "patterns" => patterns::run(&args, &patterns::TINY),
        "live-graph" => live::run(&args, &live::TINY),
        _ => fig8::run(&args, fig8::TINY_SCALE),
    }
}

/// Returns the process exit code: 0 when every fault was caught and every
/// disarmed run was clean.
pub fn run() -> i32 {
    let cases: [(&str, &str, Arm); 3] = [
        ("pagerank", "inject_ubu_off_by_one", inject_ubu_off_by_one),
        (
            "patterns",
            "inject_wcoj_seek_off_by_one",
            inject_wcoj_seek_off_by_one,
        ),
        (
            "live-graph",
            "inject_ivm_seed_off_by_one",
            inject_ivm_seed_off_by_one,
        ),
    ];
    let mut ok = true;
    for (workload, fault, arm) in cases {
        arm(true);
        let armed = run_tiny(workload);
        let hits = fault_hits();
        arm(false);
        let clean = run_tiny(workload);
        let caught = armed.error_rate() > 0.0;
        let passed = caught && clean.failed == 0 && clean.attempted > 0;
        ok &= passed;
        println!(
            "{workload:<10} {fault:<28} armed: error_rate {:.4} ({} of {}, fault fired {hits} times)  \
             disarmed: error_rate {:.4} ({} of {})  {}",
            armed.error_rate(),
            armed.failed,
            armed.attempted,
            clean.error_rate(),
            clean.failed,
            clean.attempted,
            if passed { "ok" } else { "FAILED" }
        );
    }
    let oracle = patterns::native_matches_off(&patterns::TINY, 1);
    ok &= oracle.is_ok();
    println!("patterns oracle: native enumeration vs Optimizer::Off answer: {oracle:?}");
    let clean = run_tiny("fig8-suite");
    ok &= clean.failed == 0 && clean.attempted > 0;
    println!(
        "fig8-suite (no fault)                   error_rate {:.4} ({} of {})",
        clean.error_rate(),
        clean.failed,
        clean.attempted
    );
    println!("selftest {}", if ok { "passed" } else { "FAILED" });
    i32::from(!ok)
}
