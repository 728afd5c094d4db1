//! `perf --compare A B` and `perf --schema`: the rules of `BENCHMARK.json`
//! applied to result sets, and to `BENCHMARK.json` itself.
//!
//! A result set is a file of lines as `run.sh` appends them:
//! `{"workload": W, "trace": 0|1, "seed": N, "result": <result line>}`.
//! Several lines for one workload are several runs of it.

use crate::json::{self, Value};
use crate::layers::PER_LAYER;
use crate::stats;
use crate::workloads::Workload;
use std::collections::BTreeMap;

/// The end-to-end metrics `perf` reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// One end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// Share of the baseline's median by which the metric may get worse.
    pub bound: f64,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn entries<'a>(doc: &'a Value, key: &str) -> Result<&'a [Value], String> {
    doc.get(key).and_then(Value::as_arr).ok_or_else(|| format!("{key}: missing or not an array"))
}

fn field<'a>(entry: &'a Value, key: &str) -> Result<&'a str, String> {
    entry.get(key).and_then(Value::as_str).ok_or_else(|| format!("entry without a string {key:?}"))
}

/// Checks `BENCHMARK.json` against the contract's limits and against what
/// the binaries actually report, and returns its gates.
///
/// # Errors
///
/// The first violation found.
pub fn check_schema(text: &str) -> Result<Vec<Gate>, String> {
    let doc = json::parse(text)?;
    let keys: Vec<&str> =
        doc.as_obj().ok_or("not an object")?.iter().map(|(k, _)| k.as_str()).collect();
    let want = ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"];
    if keys != want {
        return Err(format!("top-level keys are {keys:?}, expected exactly {want:?}"));
    }
    let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap_or(0.0);
    if !(1.0..=60.0).contains(&seconds) || seconds.fract() != 0.0 {
        return Err(format!("run_seconds {seconds} is not a whole number in 1..=60"));
    }
    let mut names: Vec<&str> = Vec::new();

    let workloads = entries(&doc, "workloads")?;
    if !(2..=8).contains(&workloads.len()) {
        return Err(format!("{} workloads, expected 2..=8", workloads.len()));
    }
    for w in workloads {
        let name = field(w, "name")?;
        if Workload::from_name(name).is_none() {
            return Err(format!("workload {name:?} is not one the binaries know"));
        }
        let why = field(w, "why")?;
        if why.is_empty() || why.chars().count() > 200 || why.contains('\n') {
            return Err(format!(
                "workload {name}: `why` must be one line of at most 200 characters"
            ));
        }
        names.push(name);
    }
    if workloads.len() != Workload::ALL.len() {
        return Err(format!(
            "{} workloads listed, the binaries have {}",
            workloads.len(),
            Workload::ALL.len()
        ));
    }

    let mut gates = Vec::new();
    let end_to_end = entries(&doc, "end_to_end")?;
    if !(1..=16).contains(&end_to_end.len()) {
        return Err(format!("{} end_to_end metrics, expected 1..=16", end_to_end.len()));
    }
    for m in end_to_end {
        let (name, unit, better) = (field(m, "name")?, field(m, "unit")?, field(m, "better")?);
        let bound =
            m.get("bound").and_then(Value::as_f64).ok_or("end_to_end entry without bound")?;
        if !(bound > 0.0 && bound <= 0.25) {
            return Err(format!("{name}: bound {bound} is outside (0, 0.25]"));
        }
        if !matches!(better, "lower" | "higher") {
            return Err(format!("{name}: better is {better:?}"));
        }
        names.push(name);
        gates.push(Gate {
            name: name.into(),
            unit: unit.into(),
            lower_is_better: better == "lower",
            bound,
        });
    }
    let listed: Vec<(&str, &str)> =
        gates.iter().map(|g| (g.name.as_str(), g.unit.as_str())).collect();
    if listed != END_TO_END {
        return Err(format!("end_to_end lists {listed:?}, `perf` reports {END_TO_END:?}"));
    }

    let per_layer = entries(&doc, "per_layer")?;
    if !(1..=128).contains(&per_layer.len()) {
        return Err(format!("{} per_layer metrics, expected 1..=128", per_layer.len()));
    }
    let mut listed = Vec::new();
    for m in per_layer {
        let (name, unit) = (field(m, "name")?, field(m, "unit")?);
        field(m, "better")?;
        names.push(name);
        listed.push((name, unit));
    }
    if listed != PER_LAYER {
        let missing: Vec<_> = PER_LAYER.iter().filter(|x| !listed.contains(x)).collect();
        let extra: Vec<_> = listed.iter().filter(|x| !PER_LAYER.contains(x)).collect();
        return Err(format!(
            "per_layer differs from what `perf_traced` reports (missing {missing:?}, extra {extra:?}, or order)"
        ));
    }

    for (i, name) in names.iter().enumerate() {
        if !valid_name(name) {
            return Err(format!("name {name:?} breaks the naming rule"));
        }
        if names[..i].contains(name) {
            return Err(format!("name {name:?} is used twice"));
        }
    }
    let units = gates.iter().map(|g| g.unit.as_str()).chain(PER_LAYER.iter().map(|&(_, u)| u));
    if let Some(bad) = units.into_iter().find(|u| !valid_unit(u)) {
        return Err(format!("unit {bad:?} breaks the unit rule"));
    }
    Ok(gates)
}

/// `workload → metric → one value per run`, from a result-set file's text.
/// Only untraced (`"trace": 0`) lines carry end-to-end metrics.
///
/// # Errors
///
/// A malformed line, with its number.
pub fn read_results(text: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut sets: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if doc.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = doc.get("workload").and_then(Value::as_str);
        let metrics = doc.get("result").and_then(|r| r.get("metrics")).and_then(Value::as_obj);
        let (Some(workload), Some(metrics)) = (workload, metrics) else {
            return Err(format!("line {}: no workload or result.metrics", i + 1));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                sets.entry(workload.into()).or_default().entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(sets)
}

/// What comparing one metric on one workload concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// B is better: every run beats every run of A, or the medians differ
    /// by more than either side's own quartile spread.
    Improved,
    /// Within the bound, and the runs repeat well enough to say so.
    Unchanged,
    /// The run-to-run quartile spread exceeds the bound and the two sides
    /// overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Median of A's runs and of B's.
    pub medians: (f64, f64),
    /// Quartile spread (IQR ÷ median) of A's runs and of B's; 0 with a
    /// single run.
    pub spreads: (f64, f64),
    /// How much worse B's median is, as a share of A's (negative: better).
    pub worse_by: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

/// Compares runs `a` (baseline) and `b` (change) of one metric.
///
/// # Panics
///
/// Panics if either side is empty.
#[must_use]
pub fn compare(gate: &Gate, a: &[f64], b: &[f64]) -> Row {
    let spread = |xs: &[f64]| if xs.len() >= 2 { stats::spread(xs) } else { 0.0 };
    let (ma, mb) = (stats::median(a), stats::median(b));
    let sign = if gate.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (mb - ma) / ma;
    let worse = |x: f64, y: f64| sign * (x - y) > 0.0; // x is worse than y
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| worse(x, y)));
    let all_b_worse = b.iter().all(|&y| a.iter().all(|&x| worse(y, x)));
    let spreads = (spread(a), spread(b));
    let noisy = spreads.0.max(spreads.1) > gate.bound;
    let verdict = if all_b_better {
        Verdict::Improved
    } else if noisy && !all_b_worse {
        Verdict::Unresolved
    } else if worse_by > gate.bound {
        Verdict::Regressed
    } else if -worse_by > spreads.0.max(spreads.1) && a.len() > 1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Row { medians: (ma, mb), spreads, worse_by, verdict }
}

/// Renders the full table, one row per workload × metric, and reports
/// whether any row regressed.
#[must_use]
pub fn render(
    gates: &[Gate],
    a: &BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    b: &BTreeMap<String, BTreeMap<String, Vec<f64>>>,
) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut regressed = false;
    writeln!(
        out,
        "{:<18} {:<12} {:>14} {:>8} {:>14} {:>8} {:>9} {:>6}  verdict",
        "workload", "metric", "median A", "IQR A", "median B", "IQR B", "worse by", "bound"
    )
    .expect("string write");
    for w in Workload::ALL {
        for gate in gates {
            let runs = |set: &BTreeMap<String, BTreeMap<String, Vec<f64>>>| {
                set.get(w.name()).and_then(|m| m.get(&gate.name)).filter(|v| !v.is_empty()).cloned()
            };
            let (Some(ra), Some(rb)) = (runs(a), runs(b)) else {
                writeln!(out, "{:<18} {:<12} missing from one side", w.name(), gate.name)
                    .expect("string write");
                continue;
            };
            let row = compare(gate, &ra, &rb);
            regressed |= row.verdict == Verdict::Regressed;
            writeln!(
                out,
                "{:<18} {:<12} {:>14.6} {:>7.2}% {:>14.6} {:>7.2}% {:>+8.2}% {:>5.0}%  {} ({} vs {} runs, {})",
                w.name(),
                gate.name,
                row.medians.0,
                100.0 * row.spreads.0,
                row.medians.1,
                100.0 * row.spreads.1,
                100.0 * row.worse_by,
                100.0 * gate.bound,
                row.verdict.label(),
                ra.len(),
                rb.len(),
                gate.unit,
            )
            .expect("string write");
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(bound: f64) -> Gate {
        Gate { name: "run_s".into(), unit: "s".into(), lower_is_better: true, bound }
    }

    #[test]
    fn steady_runs_within_the_bound_are_unchanged() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let b = [1.03, 1.02, 1.04, 1.01, 1.03];
        assert_eq!(compare(&gate(0.10), &a, &b).verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_median_past_the_bound_regresses() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let b = [1.20, 1.21, 1.19, 1.22, 1.20];
        let row = compare(&gate(0.10), &a, &b);
        assert_eq!(row.verdict, Verdict::Regressed);
        assert!((row.worse_by - 0.20).abs() < 1e-9);
    }

    #[test]
    fn noisy_overlapping_runs_are_unresolved_not_unchanged() {
        let a = [1.0, 1.3, 0.8, 1.2, 0.9];
        let b = [1.1, 0.85, 1.25, 0.95, 1.15];
        assert_eq!(compare(&gate(0.10), &a, &b).verdict, Verdict::Unresolved);
    }

    #[test]
    fn noise_does_not_hide_a_clean_sweep() {
        // Spread far above the bound, but every run of B beats every run of A.
        let a = [2.0, 2.6, 1.8, 2.4];
        let b = [1.0, 1.3, 0.9, 1.2];
        assert_eq!(compare(&gate(0.10), &a, &b).verdict, Verdict::Improved);
        // ... and the mirror image is a regression, not "unresolved".
        assert_eq!(compare(&gate(0.10), &b, &a).verdict, Verdict::Regressed);
    }

    #[test]
    fn higher_is_better_flips_the_sign() {
        let g = Gate { name: "x".into(), unit: "1/s".into(), lower_is_better: false, bound: 0.10 };
        let row = compare(&g, &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]);
        assert_eq!(row.verdict, Verdict::Regressed);
        assert!(row.worse_by > 0.19);
    }

    #[test]
    fn reads_result_sets_and_skips_traced_lines() {
        let text = concat!(
            r#"{"workload": "bw_k5_net", "trace": 0, "seed": 6, "result": {"correct": true, "attempted": 9, "failed": 0, "metrics": {"run_s": {"value": 0.3, "unit": "s"}}}}"#,
            "\n",
            r#"{"workload": "bw_k5_net", "trace": 1, "seed": 6, "result": {"correct": true, "attempted": 9, "failed": 0, "metrics": {"node.busy_s": {"value": 0.1, "unit": "s"}}}}"#,
            "\n\n",
            r#"{"workload": "bw_k5_net", "trace": 0, "seed": 7, "result": {"correct": true, "attempted": 9, "failed": 0, "metrics": {"run_s": {"value": 0.4, "unit": "s"}}}}"#,
        );
        let sets = read_results(text).unwrap();
        assert_eq!(sets["bw_k5_net"]["run_s"], vec![0.3, 0.4]);
        assert!(!sets["bw_k5_net"].contains_key("node.busy_s"));
        assert!(read_results("{\"trace\": 0}").is_err());
    }

    #[test]
    fn naming_rules() {
        assert!(valid_name("core.fifo.accept_in_order_ns") && valid_name("9lives"));
        assert!(!valid_name(".hidden") && !valid_name("a b") && !valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("MiB") && !valid_unit("per second"));
    }
}
