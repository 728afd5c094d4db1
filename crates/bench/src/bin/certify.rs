//! Experiment **E15 — topology certification**: sweep the generator
//! families against an `(r, s)` grid and report, for each combination,
//! which polynomial sufficient rule certifies robustness (if any), the
//! issuing time, and the O(V+E) re-verification time. The headline row is
//! the 10⁴-node `circulant_pow2` topology of the E12 scaling run: the
//! exact checker is hopeless there, yet the certificate verifies in well
//! under a second.
//!
//! ```text
//! cargo run --release -p dbac-bench --features huge-graphs --bin certify [-- --json <path>]
//! ```
//!
//! With `--json <path>` the file receives `{"experiment": "certify",
//! "certificates": [...]}` where each entry embeds the full serialized
//! [`RobustnessCertificate`](dbac_conditions::robustness::RobustnessCertificate)
//! — the artifact CI uploads next to
//! `net.json`/`stats.json`.

use dbac_bench::plan::json_path;
use dbac_bench::table::Table;
use dbac_conditions::robustness::{certification, verify_certificate, CertificationStatus};
use dbac_graph::{generators, Digraph};
use std::time::Instant;

struct Row {
    family: String,
    n: usize,
    r: usize,
    s: usize,
    /// Rule name or "UNCERTIFIED".
    rule: String,
    /// Certificate JSON, when one was issued.
    cert_json: Option<String>,
    issue_ms: f64,
    verify_ms: f64,
}

fn sweep(family: &str, g: &Digraph, grid: &[(usize, usize)], rows: &mut Vec<Row>) {
    for &(r, s) in grid {
        let t = Instant::now();
        let status = certification(g, r, s);
        let issue_ms = t.elapsed().as_secs_f64() * 1e3;
        let (rule, cert_json, verify_ms) = match &status {
            CertificationStatus::Certified(cert) => {
                let t = Instant::now();
                verify_certificate(g, cert).expect("issued certificate must verify");
                (
                    cert.rule.name().to_string(),
                    Some(cert.to_json()),
                    t.elapsed().as_secs_f64() * 1e3,
                )
            }
            CertificationStatus::Uncertified { .. } => (status.rule_label().to_string(), None, 0.0),
        };
        rows.push(Row {
            family: family.into(),
            n: g.node_count(),
            r,
            s,
            rule,
            cert_json,
            issue_ms,
            verify_ms,
        });
    }
}

fn main() {
    let json = json_path();
    let grid = [(1usize, 1usize), (2, 2), (3, 3)];
    let mut rows = Vec::new();

    for n in [8usize, 16, 32] {
        sweep(&format!("clique({n})"), &generators::clique(n), &grid, &mut rows);
    }
    for (n, k) in [(16usize, 1usize), (16, 3), (16, 5), (32, 5)] {
        let offsets: Vec<usize> = (1..=k).collect();
        sweep(
            &format!("circulant({n},1..={k})"),
            &generators::circulant(n, &offsets),
            &grid,
            &mut rows,
        );
    }
    sweep("bidirectional_cycle(12)", &generators::bidirectional_cycle(12), &grid, &mut rows);
    for (layers, width) in [(3usize, 4usize), (4, 8)] {
        sweep(
            &format!("layered_expander({layers},{width})"),
            &generators::layered_expander(layers, width),
            &grid,
            &mut rows,
        );
    }
    sweep("figure_1a", &generators::figure_1a(), &grid, &mut rows);

    // The scaling-run family. 10⁴ nodes needs the huge-graphs NodeSet.
    for n in [256usize, 10_000] {
        if n > dbac_graph::MAX_NODES {
            eprintln!(
                "skipped circulant_pow2({n}): exceeds MAX_NODES = {} \
                 (rebuild with --features huge-graphs)",
                dbac_graph::MAX_NODES
            );
            continue;
        }
        let g = generators::circulant_pow2(n);
        sweep(&format!("circulant_pow2({n})"), &g, &grid, &mut rows);
        // The E12 acceptance bar: the exact topology the 10⁴-node scaling
        // run uses must certify at its (f+1, f+1) = (1, 1) and re-verify
        // well under a second.
        let headline = rows
            .iter()
            .find(|row| {
                row.n == n && row.r == 1 && row.s == 1 && row.family.starts_with("circulant_pow2")
            })
            .expect("grid contains (1, 1)");
        assert!(headline.cert_json.is_some(), "scaling topology must certify at (1, 1)");
        assert!(headline.verify_ms < 1000.0, "verification must stay well under a second");
    }

    println!("E15 — robustness certification sweep (rule or UNCERTIFIED per family × (r, s))\n");
    let mut t = Table::new(vec!["family", "n", "(r, s)", "rule", "issue (ms)", "verify (ms)"]);
    for row in &rows {
        t.row(vec![
            row.family.clone(),
            row.n.to_string(),
            format!("({}, {})", row.r, row.s),
            row.rule.clone(),
            format!("{:.3}", row.issue_ms),
            format!("{:.3}", row.verify_ms),
        ]);
    }
    println!("{}", t.render());
    let certified = rows.iter().filter(|row| row.cert_json.is_some()).count();
    println!("{certified}/{} combinations certified", rows.len());

    if let Some(path) = json {
        let entries: Vec<String> = rows
            .iter()
            .map(|row| {
                let cert = row.cert_json.as_deref().unwrap_or("null");
                format!(
                    "    {{\"family\": \"{}\", \"n\": {}, \"r\": {}, \"s\": {}, \
                     \"rule\": \"{}\", \"issue_ms\": {:.3}, \"verify_ms\": {:.3}, \
                     \"certificate\": {}}}",
                    row.family, row.n, row.r, row.s, row.rule, row.issue_ms, row.verify_ms, cert
                )
            })
            .collect();
        let text = format!(
            "{{\n  \"experiment\": \"certify\",\n  \"max_nodes\": {},\n  \
             \"certificates\": [\n{}\n  ]\n}}\n",
            dbac_graph::MAX_NODES,
            entries.join(",\n")
        );
        std::fs::write(&path, text).expect("certificate JSON written");
        println!("certificates written to {path}");
    }
}
