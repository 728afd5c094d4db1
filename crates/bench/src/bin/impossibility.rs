//! Experiment **E8 — Theorem 18 (necessity of 3-reach)**: the Appendix-B
//! three-execution indistinguishability construction, executed.
//!
//! Run: `cargo run --release -p dbac-bench --bin impossibility`

use dbac_bench::impossibility::run_construction;
use dbac_bench::table::{num, Table};
use dbac_conditions::kreach::{three_reach, two_reach};
use dbac_graph::{generators, Digraph};

fn main() {
    println!("E8 / Theorem 18 — executing the Appendix-B construction\n");
    let cases: Vec<(String, Digraph, usize)> = vec![
        ("K3 (f=1)".into(), generators::clique(3), 1),
        ("K6 (f=2)".into(), generators::clique(6), 2),
        // Named to fit the K3/K6 rows' column width; the legend below
        // spells it out.
        (
            "K3+sink".into(),
            Digraph::from_edges(
                4,
                &[(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (0, 3), (1, 3)],
            )
            .expect("valid edge list"),
            1,
        ),
    ];
    let mut t = Table::new(vec![
        "graph",
        "2-reach",
        "3-reach",
        "v output (e3)",
        "u output (e3)",
        "disagreement",
        "live-verified",
        "synthesized",
    ]);
    let k = 10.0;
    let epsilon = 1.0;
    for (name, g, f) in cases {
        assert!(two_reach(&g, f).holds(), "{name}: the stand-in crash algorithm needs 2-reach");
        assert!(!three_reach(&g, f).holds(), "{name}: construction needs a 3-reach violation");
        let report = run_construction(&g, f, k, epsilon).expect("construction runs");
        assert!(report.convergence_violated(), "{name}: convergence not violated?");
        t.row(vec![
            name,
            "yes".into(),
            "no".into(),
            num(report.v_output),
            num(report.u_output),
            num(report.disagreement()),
            report.live_matches.to_string(),
            report.synthesized.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("K3+sink: K3 on {{0,1,2}} plus node 3, fed by 0 and 1 and sending nothing (f=1).\n");
    println!(
        "Interpretation: in the spliced execution e3, every delivery to v's side was verified\n\
         identical to execution e1 (inputs all 0, F_v crashed) and every delivery to u's side\n\
         to e2 (inputs all {k}, F_u crashed). Validity forces v to output 0 and u to output {k}:\n\
         no algorithm can satisfy convergence on these graphs — 3-reach is necessary."
    );
}
