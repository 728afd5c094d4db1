//! The measurement loop both binaries share, the result line the driver
//! reads, and the process-level readings (`VmHWM`, CPU time).

use crate::json::{obj, Value};
use crate::stats;
use crate::workloads::{setup_once, Prepared, RepDigest, Workload, DEFAULT_SEED};
use std::time::{Duration, Instant};

/// Never report a statistic from fewer repetitions than this.
pub const MIN_REPS: usize = 5;

/// Command-line arguments of a measuring run.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// One repetition only, kernels run once: verifies every outcome check
    /// quickly; the timings it prints mean nothing.
    pub check: bool,
}

/// Parses `--workload W [--seed N] [--seconds S] [--trace 0|1] [--check]`.
/// `--trace` is accepted and ignored: `run.sh` picks the binary from it.
///
/// # Errors
///
/// A usage message naming the offending argument.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut check) = (None, DEFAULT_SEED, 10.0_f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--check" {
            check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {}
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload <name>")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args { workload, seed, seconds, check })
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric reading.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The driver's result line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`.
#[must_use]
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (m.name.to_string(), obj([("value", Value::Num(m.value)), ("unit", m.unit.into())]))
        })
        .collect();
    obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
    .render()
}

/// Prints every metric by name with its unit, one per line.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<44} {:>18.9} {}", m.name, m.value, m.unit);
    }
}

fn proc_field(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process so far (`VmHWM`), in MiB; 0 where
/// `/proc` does not say.
#[must_use]
pub fn vm_hwm_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

/// CPU seconds (user + system, all threads, including joined ones) this
/// process has used; 0 where `/proc` does not say. Resolution is one clock
/// tick (10 ms), so read it across many repetitions.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 11 and 12 after the name.
    let Some(rest) = stat.rsplit(')').next() else { return 0.0 };
    let ticks: f64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<f64>().ok()).sum();
    ticks / 100.0
}

/// What the untraced loop measured.
#[derive(Clone, Debug, Default)]
pub struct Untraced {
    /// Timed interval of each repetition that passed its checks, seconds.
    pub run_s: Vec<f64>,
    /// One set-up time per sample (a batch timed as one interval, divided).
    pub setup_s: Vec<f64>,
    /// `VmHWM` right after the first set-up + repetition, MiB: what a
    /// process that does the work once pays. Later repetitions only add
    /// allocator retention, which varies from process to process.
    pub peak_rss_mb: f64,
    /// Repetitions started.
    pub attempted: usize,
    /// Repetitions that failed an outcome check (they have no timing).
    pub failed: usize,
}

/// The statistic reported for a sample of times. Host contention only ever
/// adds time, so the low end of a sample repeats best. Where repetitions do
/// bit-identical work that is the minimum. Where the thread schedule changes
/// the work itself (`Net`), a lucky schedule can undercut the rest by half,
/// so the first decile stands in for the minimum.
#[must_use]
pub fn headline(w: Workload, samples: &[f64]) -> f64 {
    if w.deterministic() {
        stats::min(samples)
    } else {
        stats::low_decile(samples)
    }
}

/// Checks a repetition against the first one and the pinned count. Returns
/// the names of the checks it failed.
fn check_rep(
    w: Workload,
    seed: u64,
    first: Option<&RepDigest>,
    d: &RepDigest,
) -> Vec<&'static str> {
    let mut failures = d.failures.clone();
    if w.deterministic() {
        if first.is_some_and(|f| f.delivered != d.delivered || f.bits != d.bits) {
            failures.push("differs_from_rep0");
        }
        if seed == DEFAULT_SEED && w.pinned_delivered().is_some_and(|p| p != d.delivered) {
            failures.push("pinned_delivered");
        }
    }
    failures
}

/// Runs repetitions back to back from this one thread (a closed loop with
/// one client) until `seconds` have passed and at least `min_reps` are in.
/// One `setup_s` sample is taken before every repetition, so set-up and run
/// samples see the same host.
#[must_use]
pub fn run_untraced(w: Workload, seed: u64, seconds: f64, min_reps: usize) -> Untraced {
    let prepared = Prepared::new(w, seed);
    let budget = Duration::from_secs_f64(seconds);
    let mut u = Untraced::default();
    let mut first: Option<RepDigest> = None;
    let start = Instant::now();
    while u.attempted < min_reps || start.elapsed() < budget {
        let batch = w.setup_batch();
        let t = Instant::now();
        for _ in 0..batch {
            setup_once(w, seed);
        }
        u.setup_s.push(t.elapsed().as_secs_f64() / f64::from(batch));
        let (dt, digest) = prepared.rep();
        if u.attempted == 0 {
            u.peak_rss_mb = vm_hwm_mib();
        }
        u.attempted += 1;
        let failures = check_rep(w, seed, first.as_ref(), &digest);
        if failures.is_empty() {
            u.run_s.push(dt.as_secs_f64());
        } else {
            u.failed += 1;
            if u.failed <= 3 {
                eprintln!("rep {} failed checks: {failures:?} ({digest:?})", u.attempted - 1);
            }
        }
        first.get_or_insert(digest);
    }
    u
}

/// Prints `reps`, min, first decile, median and tail of a sample next to
/// its headline.
pub fn describe(name: &str, unit: &str, xs: &[f64]) {
    let tail = stats::tail(xs)
        .map_or_else(|| "tail n/a (<=10 samples)".to_string(), |(p, v)| format!("p{p:.0} {v:.6}"));
    println!(
        "{name}: reps {} min {:.6} p10 {:.6} median {:.6} {tail} {unit}",
        xs.len(),
        stats::min(xs),
        stats::low_decile(xs),
        stats::median(xs)
    );
}
