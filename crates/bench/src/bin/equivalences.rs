//! Experiment **E7 — Theorem 17 and the structural theorems**, verified
//! exhaustively on all small digraphs and on random batches.
//!
//! Run: `cargo run --release -p dbac-bench --bin equivalences`

use dbac_bench::catalog;
use dbac_bench::table::{yes_no, Table};
use dbac_conditions::kreach::{k_reach, one_reach, three_reach, two_reach};
use dbac_conditions::partition::{bcs, cca, ccs};
use dbac_conditions::theorems::{theorem12_sweep, theorem5_sweep};
use dbac_graph::{generators, Digraph, NodeId};

fn main() {
    exhaustive_small();
    random_batch();
    clique_bounds();
    structural_theorems();
}

/// Every digraph on 4 nodes (2^12 of them), f ∈ {0, 1}: the three
/// equivalences of Theorem 17 hold with zero exceptions.
fn exhaustive_small() {
    println!("E7 — Theorem 17, exhaustively on all 4-node digraphs\n");
    let n = 4usize;
    let pairs: Vec<(usize, usize)> =
        (0..n).flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, v))).collect();
    let total = 1u32 << pairs.len();
    let mut checked = 0u64;
    for mask in 0..total {
        let mut g = Digraph::new(n).unwrap();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            if mask & (1 << i) != 0 {
                g.add_edge(NodeId::new(u), NodeId::new(v)).unwrap();
            }
        }
        for f in 0..=1usize {
            assert_eq!(one_reach(&g, f).holds(), ccs(&g, f).holds(), "CCS mask={mask} f={f}");
            assert_eq!(two_reach(&g, f).holds(), cca(&g, f).holds(), "CCA mask={mask} f={f}");
            assert_eq!(three_reach(&g, f).holds(), bcs(&g, f).holds(), "BCS mask={mask} f={f}");
            checked += 3;
        }
    }
    println!("checked {checked} equivalence instances over {total} digraphs: all agree.\n");
}

fn random_batch() {
    println!("E7 — Theorem 17 on random 6-node digraphs (f up to 2)\n");
    let mut t = Table::new(vec!["density", "graphs", "f", "agreements", "disagreements"]);
    for p in [0.3, 0.5, 0.7] {
        let graphs = catalog::random_digraphs(6, p, 8, (p * 1000.0) as u64);
        for f in 0..=2usize {
            let mut agree = 0;
            let mut disagree = 0;
            for g in &graphs {
                let pairs = [
                    one_reach(g, f).holds() == ccs(g, f).holds(),
                    two_reach(g, f).holds() == cca(g, f).holds(),
                    three_reach(g, f).holds() == bcs(g, f).holds(),
                ];
                for ok in pairs {
                    if ok {
                        agree += 1;
                    } else {
                        disagree += 1;
                    }
                }
            }
            t.row(vec![
                format!("{p}"),
                graphs.len().to_string(),
                f.to_string(),
                agree.to_string(),
                disagree.to_string(),
            ]);
            assert_eq!(disagree, 0);
        }
    }
    println!("{}", t.render());
}

/// Appendix A: in a clique, k-reach ⇔ n > k·f (for k ≥ 2; 1-reach is
/// unconditional in cliques: under the literal Definition 3 every
/// survivor's reach set is all of `F̄`).
fn clique_bounds() {
    println!("E7 — clique specialization: k-reach ⇔ n > k·f\n");
    let mut t = Table::new(vec!["n", "f", "k", "k-reach", "n > k·f", "match"]);
    let mut all = true;
    for n in 3..=7usize {
        for f in 1..=2usize {
            for k in 2..=3usize {
                let holds = k_reach(&generators::clique(n), k, f).holds();
                let bound = n > k * f;
                all &= holds == bound;
                t.row(vec![
                    n.to_string(),
                    f.to_string(),
                    k.to_string(),
                    yes_no(holds),
                    yes_no(bound),
                    yes_no(holds == bound),
                ]);
            }
        }
    }
    println!("{}", t.render());
    assert!(all);
}

/// Theorems 5 and 12 hold on every 3-reach instance we can sweep.
fn structural_theorems() {
    println!("E7 — Theorems 5 and 12 on 3-reach instances\n");
    let mut t = Table::new(vec!["graph", "f", "Theorem 5", "Theorem 12"]);
    for inst in catalog::feasible_instances() {
        let t5 = theorem5_sweep(&inst.graph, inst.f).is_none();
        let t12 = theorem12_sweep(&inst.graph, inst.f).is_none();
        t.row(vec![inst.name.clone(), inst.f.to_string(), yes_no(t5), yes_no(t12)]);
        assert!(t5 && t12, "{} broke a structural theorem", inst.name);
    }
    println!("{}", t.render());
    println!("RESULT: all equivalences and structural theorems verified.");
}
