//! `perf`: the untraced binary. Produces the gated end-to-end metrics, and
//! hosts the two tools that read results: `--compare` and `--schema`.

use dbac_perf::compare;
use dbac_perf::measure::{self, Metric};
use dbac_perf::stats;
use std::process::ExitCode;

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// `--schema FILE`: checks `BENCHMARK.json` against the contract's limits
/// and against the metric lists compiled into the binaries.
fn schema(path: &str) -> Result<(), String> {
    let gates = compare::check_schema(&read(path)?)?;
    println!("{path}: schema ok ({} end-to-end gates)", gates.len());
    Ok(())
}

/// `--compare A B`: one row per workload × end-to-end metric, under the
/// bounds of `BENCHMARK.json` in the working directory. Fails if any row
/// regressed.
fn compare_sets(a: &str, b: &str) -> Result<bool, String> {
    let gates = compare::check_schema(&read("BENCHMARK.json")?)?;
    let (table, regressed) = compare::render(
        &gates,
        &compare::read_results(&read(a)?)?,
        &compare::read_results(&read(b)?)?,
    );
    println!("A = {a}\nB = {b}\n{table}");
    Ok(regressed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let tool = match argv.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--schema", path] => Some(schema(path).map(|()| false)),
        ["--compare", a, b] => Some(compare_sets(a, b)),
        _ => None,
    };
    if let Some(result) = tool {
        return match result {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perf: {e}");
                ExitCode::from(2)
            }
        };
    }

    let args = match measure::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let (seconds, min_reps) = if args.check { (0.0, 1) } else { (args.seconds, measure::MIN_REPS) };
    let u = measure::run_untraced(w, args.seed, seconds, min_reps);
    if u.run_s.is_empty() {
        eprintln!("perf: no repetition of {} passed its checks", w.name());
        return ExitCode::FAILURE;
    }
    measure::describe("run_s", "s", &u.run_s);
    measure::describe("setup_s", "s", &u.setup_s);
    println!("ops_attempted {} ops_failed {}", u.attempted, u.failed);
    let metrics = [
        Metric::new("run_s", measure::headline(w, &u.run_s), "s"),
        // A set-up is single-threaded, deterministic work on every workload.
        Metric::new("setup_s", stats::min(&u.setup_s), "s"),
        Metric::new("peak_rss_mb", u.peak_rss_mb, "MiB"),
    ];
    measure::print_metrics(&metrics);
    println!("{}", measure::result_line(u.failed == 0, u.attempted, u.failed, &metrics));
    // A failed check on the simulator is a determinism or correctness bug,
    // not noise: make it impossible to miss.
    if u.failed > 0 && w.deterministic() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
