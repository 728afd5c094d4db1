//! Named graph families, including the paper's Figure 1 constructions.

use crate::digraph::Digraph;
use crate::node::NodeId;
use rand::Rng;

/// The complete digraph `K_n` (every ordered pair is an edge).
///
/// In a clique the paper's conditions collapse to the classical bounds:
/// 1-reach ⇔ `n > f`, 2-reach ⇔ `n > 2f`, 3-reach ⇔ `n > 3f` (Appendix A).
///
/// # Panics
///
/// Panics if `n == 0` or `n > MAX_NODES`.
#[must_use]
pub fn clique(n: usize) -> Digraph {
    let mut g = Digraph::new(n).expect("valid clique size");
    for u in 0..n {
        for v in 0..n {
            if u != v {
                g.add_edge(NodeId::new(u), NodeId::new(v)).expect("valid edge");
            }
        }
    }
    g
}

/// The directed cycle `0 → 1 → … → n-1 → 0`.
///
/// # Panics
///
/// Panics if `n < 2` or `n > MAX_NODES`.
#[must_use]
pub fn directed_cycle(n: usize) -> Digraph {
    assert!(n >= 2, "a cycle needs at least two nodes");
    let mut g = Digraph::new(n).expect("valid cycle size");
    for u in 0..n {
        g.add_edge(NodeId::new(u), NodeId::new((u + 1) % n)).expect("valid edge");
    }
    g
}

/// The bidirectional (undirected) cycle on `n` nodes.
///
/// # Panics
///
/// Panics if `n < 3` or `n > MAX_NODES`.
#[must_use]
pub fn bidirectional_cycle(n: usize) -> Digraph {
    assert!(n >= 3, "an undirected cycle needs at least three nodes");
    let edges: Vec<(usize, usize)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
    Digraph::from_undirected_edges(n, &edges).expect("valid cycle")
}

/// The directed path `0 → 1 → … → n-1`.
///
/// # Panics
///
/// Panics if `n == 0` or `n > MAX_NODES`.
#[must_use]
pub fn directed_path(n: usize) -> Digraph {
    let mut g = Digraph::new(n).expect("valid path size");
    for u in 0..n.saturating_sub(1) {
        g.add_edge(NodeId::new(u), NodeId::new(u + 1)).expect("valid edge");
    }
    g
}

/// The (undirected) wheel: node 0 is the hub adjacent to every rim node,
/// and nodes `1..n` form a cycle. `wheel(5)` is minimally 3-connected.
///
/// # Panics
///
/// Panics if `n < 4` or `n > MAX_NODES`.
#[must_use]
pub fn wheel(n: usize) -> Digraph {
    assert!(n >= 4, "a wheel needs at least four nodes");
    let mut edges: Vec<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
    for v in 1..n {
        let next = if v == n - 1 { 1 } else { v + 1 };
        edges.push((v, next));
    }
    Digraph::from_undirected_edges(n, &edges).expect("valid wheel")
}

/// The paper's **Figure 1(a)**: a 5-node undirected network where
/// synchronous exact Byzantine consensus is feasible for `f = 1`
/// (`n > 3f`, `κ(G) = 3 > 2f`) and removing any edge destroys the property.
///
/// The figure is reconstructed as the minimally 3-connected wheel `W_5`
/// (hub `v3`, rim `v1–v2–v5–v4–v1`); the properties claimed in the paper
/// (κ = 3, minimality) are verified in this crate's tests.
#[must_use]
pub fn figure_1a() -> Digraph {
    // Indices: v1..v5 = 0..4; hub = v3 (index 2).
    Digraph::from_undirected_edges(
        5,
        &[
            (2, 0), // v3 - v1
            (2, 1), // v3 - v2
            (2, 3), // v3 - v4
            (2, 4), // v3 - v5
            (0, 1), // v1 - v2
            (1, 4), // v2 - v5
            (4, 3), // v5 - v4
            (3, 0), // v4 - v1
        ],
    )
    .expect("figure 1(a) is well-formed")
}

/// The paper's **Figure 1(b)**: two 7-node cliques `K1 = {v1..v7}`
/// (indices 0–6) and `K2 = {w1..w7}` (indices 7–13) joined by eight
/// directed edges, satisfying 3-reach for `f = 2` while `v1` and `w1` are
/// connected by only `2f = 4` vertex-disjoint paths (so all-pair reliable
/// message transmission is infeasible).
///
/// The cross-edge pattern (`v_i → w_i` for `i ∈ {1,2,3,4}` and
/// `w_j → v_j` for `j ∈ {4,5,6,7}`, overlapping at index 4) is a
/// reconstruction of the figure; the claimed properties are verified
/// empirically by the `figure1` experiment binary.
#[must_use]
pub fn figure_1b() -> Digraph {
    two_cliques_bridged(7, &[(0, 0), (1, 1), (2, 2), (3, 3)], &[(3, 3), (4, 4), (5, 5), (6, 6)])
}

/// Two `k`-cliques `K1` (indices `0..k`) and `K2` (indices `k..2k`)
/// with directed bridges: `forward` entries `(i, j)` add `v_i → w_j`,
/// `backward` entries `(i, j)` add `w_i → v_j`.
///
/// This is the family behind Figure 1(b); scaled-down instances
/// (e.g. `k = 4`, `f = 1`) keep the same structure while remaining small
/// enough to run the full BW protocol on.
///
/// # Panics
///
/// Panics if `2k > MAX_NODES` or an index is out of `0..k`.
#[must_use]
pub fn two_cliques_bridged(
    k: usize,
    forward: &[(usize, usize)],
    backward: &[(usize, usize)],
) -> Digraph {
    let mut g = Digraph::new(2 * k).expect("valid two-clique size");
    for a in 0..k {
        for b in 0..k {
            if a != b {
                g.add_edge(NodeId::new(a), NodeId::new(b)).expect("valid edge");
                g.add_edge(NodeId::new(k + a), NodeId::new(k + b)).expect("valid edge");
            }
        }
    }
    for &(i, j) in forward {
        assert!(i < k && j < k, "bridge index out of range");
        g.add_edge(NodeId::new(i), NodeId::new(k + j)).expect("valid edge");
    }
    for &(i, j) in backward {
        assert!(i < k && j < k, "bridge index out of range");
        g.add_edge(NodeId::new(k + i), NodeId::new(j)).expect("valid edge");
    }
    g
}

/// A scaled-down Figure 1(b): two 4-cliques with the analogous overlapping
/// bridge pattern, designed for `f = 1` (`v_i → w_i` for `i ∈ {1,2}`,
/// `w_j → v_j` for `j ∈ {2,3,4}` — overlap at index 2). Eight nodes: small
/// enough to execute the full BW protocol.
#[must_use]
pub fn figure_1b_small() -> Digraph {
    two_cliques_bridged(4, &[(0, 0), (1, 1)], &[(1, 1), (2, 2), (3, 3)])
}

/// The `f = 2` fixture: `K_7` without the edges `0 ↔ 1`, `2 ↔ 3` and
/// `4 ↔ 5`. Its 36 edges give every node in-degree `5 = 2f + 1`, except
/// node 6 with 6. 3-reach holds at `f = 2`, and removing any one edge
/// breaks it: greedy edge deletion from `clique(7)` in
/// [`Digraph::edges`] order, while 3-reach holds, ends at exactly this
/// graph. Its redundant-path population is 4,450,903 paths, at most
/// 646,138 per terminal.
#[must_use]
pub fn k7_minus_matching() -> Digraph {
    let mut g = clique(7);
    for (u, v) in [(0, 1), (2, 3), (4, 5)] {
        g.remove_edge(NodeId::new(u), NodeId::new(v));
        g.remove_edge(NodeId::new(v), NodeId::new(u));
    }
    g
}

/// The **`k`-circulant** digraph: node `u` has an edge to
/// `u + o (mod n)` for every offset `o` in `offsets`. Every node has
/// in-degree and out-degree `|offsets|`, so the family scales to tens of
/// thousands of nodes with constant-size neighborhoods — the workhorse of
/// the iterative scaling runs.
///
/// With power-of-two offsets (see [`circulant_pow2`]) the graph mixes
/// like a hypercube: an averaging iteration contracts the value spread
/// geometrically with a rate that degrades only logarithmically in `n`.
/// Offsets `{1, …, k}` with `k ≥ 2f + 1` give the classical
/// `(f+1, f+1)`-robust family of the W-MSR literature.
///
/// A machine-checkable robustness certificate for the built graph comes
/// from `dbac_conditions::robustness::certify` (that crate sits above
/// this one, so the certificate types cannot live here).
///
/// # Panics
///
/// Panics if `n > MAX_NODES`, `offsets` is empty, or an offset is `0` or
/// `≥ n` (a zero offset would be a self-loop; offsets are distinct mod
/// `n` by the same check).
#[must_use]
pub fn circulant(n: usize, offsets: &[usize]) -> Digraph {
    assert!(!offsets.is_empty(), "a circulant needs at least one offset");
    let mut g = Digraph::new(n).expect("valid circulant size");
    for &o in offsets {
        assert!(o > 0 && o < n, "offset {o} out of range 1..{n}");
        for u in 0..n {
            g.add_edge(NodeId::new(u), NodeId::new((u + o) % n)).expect("valid edge");
        }
    }
    g
}

/// The circulant on the power-of-two offsets `{1, 2, 4, …}` below `n` —
/// `⌈log₂ n⌉` offsets, so the degree (and the per-round message bill)
/// grows logarithmically while the averaging iteration keeps an
/// expander-grade spectral gap. The default topology of the 10⁴-node
/// scaling story — and it ships with proof:
/// `dbac_conditions::robustness::certify` issues a certificate for it
/// (the `{1, 2}` window satisfies the circulant-prefix rule at `(1, 1)`)
/// that an O(V+E) verifier re-checks in milliseconds even at `n = 10⁴`.
///
/// # Panics
///
/// Panics if `n < 2` or `n > MAX_NODES`.
#[must_use]
pub fn circulant_pow2(n: usize) -> Digraph {
    assert!(n >= 2, "need at least two nodes");
    let mut offsets = Vec::new();
    let mut o = 1usize;
    while o < n {
        offsets.push(o);
        o *= 2;
    }
    circulant(n, &offsets)
}

/// A **layered expander**: `layers` layers of `width` nodes each. Within a
/// layer, nodes form a bidirectional cycle; between consecutive layers
/// (cyclically, so the last layer feeds the first), node `i` of layer `l`
/// sends to nodes `i`, `i+1` and `i+stride` of layer `l+1`. Strongly
/// connected, constant degree, and — unlike the circulant — strongly
/// *asymmetric*: information flows forward through layers an order of
/// magnitude faster than backward, which stresses schedule-dependent
/// protocol paths that symmetric families never exercise.
///
/// The family has its own robustness composition rule (`(1, s ≤ 4)` for
/// any graph containing it as a spanning subgraph), which
/// `dbac_conditions::robustness::certify` applies.
///
/// # Panics
///
/// Panics if `layers < 2`, `width < 3`, or `layers * width > MAX_NODES`.
#[must_use]
pub fn layered_expander(layers: usize, width: usize) -> Digraph {
    assert!(layers >= 2, "need at least two layers");
    assert!(width >= 3, "need at least three nodes per layer");
    let n = layers * width;
    let stride = (width / 2).max(2);
    let mut g = Digraph::new(n).expect("valid layered size");
    let id = |layer: usize, i: usize| NodeId::new((layer % layers) * width + i % width);
    for l in 0..layers {
        for i in 0..width {
            // Intra-layer bidirectional ring.
            g.add_edge(id(l, i), id(l, i + 1)).expect("valid edge");
            g.add_edge(id(l, i + 1), id(l, i)).expect("valid edge");
            // Forward inter-layer fan: aligned, shifted, and strided.
            for &j in &[i, i + 1, i + stride] {
                let _ = g.add_edge(id(l, i), id(l + 1, j));
            }
        }
    }
    g
}

/// Erdős–Rényi style random digraph: each ordered pair `(u, v)`, `u ≠ v`,
/// is an edge independently with probability `p`.
///
/// # Panics
///
/// Panics if `n == 0`, `n > MAX_NODES` or `p ∉ [0, 1]`.
pub fn random_digraph<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Digraph {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    let mut g = Digraph::new(n).expect("valid size");
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.gen_bool(p) {
                g.add_edge(NodeId::new(u), NodeId::new(v)).expect("valid edge");
            }
        }
    }
    g
}

/// A random strongly connected digraph: a random Hamiltonian cycle plus
/// each remaining ordered pair independently with probability `p`.
pub fn random_strongly_connected<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Digraph {
    assert!(n >= 2, "need at least two nodes");
    let mut order: Vec<usize> = (0..n).collect();
    // Fisher–Yates shuffle.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut g = random_digraph(n, p, rng);
    for i in 0..n {
        let u = order[i];
        let v = order[(i + 1) % n];
        let _ = g.add_edge(NodeId::new(u), NodeId::new(v));
    }
    g
}

/// A random *undirected* network embedded as a bidirectional digraph:
/// each unordered pair is an edge with probability `p`.
pub fn random_undirected<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Digraph {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    let mut g = Digraph::new(n).expect("valid size");
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                g.add_edge(NodeId::new(u), NodeId::new(v)).expect("valid edge");
                g.add_edge(NodeId::new(v), NodeId::new(u)).expect("valid edge");
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn clique_shape() {
        let g = clique(4);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 12);
        assert!(g.is_complete());
    }

    #[test]
    fn cycle_shapes() {
        assert_eq!(directed_cycle(5).edge_count(), 5);
        assert_eq!(bidirectional_cycle(5).edge_count(), 10);
        assert!(bidirectional_cycle(5).is_bidirectional());
    }

    #[test]
    fn path_shape() {
        let g = directed_path(4);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(!g.has_edge(NodeId::new(1), NodeId::new(0)));
    }

    #[test]
    fn wheel_shape() {
        let g = wheel(5);
        assert!(g.is_bidirectional());
        // hub degree 4, rim degree 3 → 8 undirected edges → 16 arcs.
        assert_eq!(g.edge_count(), 16);
        assert_eq!(g.out_neighbors(NodeId::new(0)).len(), 4);
    }

    #[test]
    fn figure_1a_shape() {
        let g = figure_1a();
        assert_eq!(g.node_count(), 5);
        assert!(g.is_bidirectional());
        assert_eq!(g.edge_count(), 16); // 8 undirected edges
    }

    #[test]
    fn figure_1b_shape() {
        let g = figure_1b();
        assert_eq!(g.node_count(), 14);
        // Two K7 cliques (2 * 42 arcs) + 8 directed bridges.
        assert_eq!(g.edge_count(), 92);
        assert!(g.has_edge(NodeId::new(0), NodeId::new(7))); // v1 -> w1
        assert!(g.has_edge(NodeId::new(10), NodeId::new(3))); // w4 -> v4
        assert!(!g.has_edge(NodeId::new(7), NodeId::new(0))); // no w1 -> v1
    }

    #[test]
    fn figure_1b_small_shape() {
        let g = figure_1b_small();
        assert_eq!(g.node_count(), 8);
        // Two K4 cliques (2 * 12) + 5 bridges.
        assert_eq!(g.edge_count(), 29);
    }

    #[test]
    fn circulant_shape_and_degrees() {
        let g = circulant(10, &[1, 3]);
        assert_eq!(g.edge_count(), 20);
        for u in 0..10 {
            assert_eq!(g.out_neighbors(NodeId::new(u)).len(), 2);
            assert_eq!(g.in_neighbors(NodeId::new(u)).len(), 2);
        }
        assert!(g.has_edge(NodeId::new(9), NodeId::new(2)), "wraps mod n");
        assert!(crate::connectivity::is_strongly_connected(&g));
    }

    #[test]
    fn circulant_pow2_degree_is_logarithmic() {
        let g = circulant_pow2(200);
        // Offsets 1, 2, 4, …, 128 → 8 offsets.
        assert_eq!(g.out_neighbors(NodeId::new(0)).len(), 8);
        assert!(crate::connectivity::is_strongly_connected(&g));
    }

    #[test]
    fn circulant_past_128_nodes() {
        // The u128-era NodeSet capped graphs at 128 nodes; the multi-word
        // set carries the same generator family past it.
        let g = circulant(200, &[1, 2, 3]);
        assert_eq!(g.node_count(), 200);
        assert_eq!(g.edge_count(), 600);
        assert!(g.has_edge(NodeId::new(199), NodeId::new(1)));
    }

    #[test]
    fn layered_expander_is_strongly_connected() {
        let g = layered_expander(4, 5);
        assert_eq!(g.node_count(), 20);
        assert!(crate::connectivity::is_strongly_connected(&g));
        // Constant out-degree: ring (2) + up to 3 forward fan edges.
        for u in 0..20 {
            let d = g.out_neighbors(NodeId::new(u)).len();
            assert!((4..=5).contains(&d), "node {u} degree {d}");
        }
    }

    #[test]
    fn random_digraph_determinism() {
        let mut r1 = SmallRng::seed_from_u64(7);
        let mut r2 = SmallRng::seed_from_u64(7);
        assert_eq!(random_digraph(8, 0.4, &mut r1), random_digraph(8, 0.4, &mut r2));
    }

    #[test]
    fn random_digraph_extremes() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(random_digraph(5, 0.0, &mut rng).edge_count(), 0);
        assert!(random_digraph(5, 1.0, &mut rng).is_complete());
    }

    #[test]
    fn random_strongly_connected_is_strongly_connected() {
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..10 {
            let g = random_strongly_connected(7, 0.2, &mut rng);
            assert!(crate::connectivity::is_strongly_connected(&g));
        }
    }

    #[test]
    fn random_undirected_is_bidirectional() {
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(random_undirected(8, 0.5, &mut rng).is_bidirectional());
    }
}
