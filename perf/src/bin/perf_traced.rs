//! `perf_traced`: the traced binary. Produces the per-layer metrics, the
//! trace file `perf/out/<workload>.trace.json`, and its own overhead.
//!
//! One invocation spends its `--seconds` in three parts: the isolated
//! kernels, untraced repetitions (the base of `trace.overhead_share`,
//! `sim.ns_per_msg` and `sim.msgs_per_s`), and traced repetitions. Untraced
//! and traced repetitions alternate so both see the same host.

use dbac_perf::alloc::Counting;
use dbac_perf::layers;
use dbac_perf::measure::{self, Metric};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match measure::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_traced: {e}");
            return ExitCode::from(2);
        }
    };
    let report = layers::run(args);
    let trace_path = format!("perf/out/{}.trace.json", args.workload.name());
    if let Err(e) = std::fs::create_dir_all("perf/out")
        .and_then(|()| std::fs::write(&trace_path, report.trace_json.as_bytes()))
    {
        eprintln!("perf_traced: cannot write {trace_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("trace written to {trace_path}");
    for note in &report.notes {
        println!("{note}");
    }
    println!("ops_attempted {} ops_failed {}", report.attempted, report.failed);
    let metrics: &[Metric] = &report.metrics;
    measure::print_metrics(metrics);
    println!(
        "{}",
        measure::result_line(report.failed == 0, report.attempted, report.failed, metrics)
    );
    if report.failed > 0 && args.workload.deterministic() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
