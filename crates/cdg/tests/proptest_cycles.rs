//! Randomized tests of the cycle-detection substrate and the CDG
//! construction.
//!
//! Driven by a seeded [`Rng64`] instead of a property-testing framework
//! so the suite is fully deterministic and dependency-free; every assert
//! message carries the case index for replay.

use ebda_cdg::csr::{find_cycle, tarjan, Csr};
use ebda_cdg::{Cdg, Topology};
use ebda_obs::Rng64;

/// A random directed graph as an adjacency list with up to `max_nodes`
/// nodes and `max_edges` edge draws (duplicates discarded, rows sorted
/// as the CSR construction invariant requires).
fn rand_graph(rng: &mut Rng64, max_nodes: usize, max_edges: usize) -> Vec<Vec<u32>> {
    let n = 1 + rng.gen_index(max_nodes - 1);
    let mut g = vec![Vec::new(); n];
    for _ in 0..rng.gen_index(max_edges) {
        let a = rng.gen_index(n);
        let b = rng.gen_index(n) as u32;
        if !g[a].contains(&b) {
            g[a].push(b);
        }
    }
    for row in &mut g {
        row.sort_unstable();
    }
    g
}

fn csr_of(g: &[Vec<u32>]) -> Csr {
    let mut row_start = vec![0u32];
    let mut col = Vec::new();
    for row in g {
        col.extend_from_slice(row);
        row_start.push(col.len() as u32);
    }
    Csr::new(g.len(), row_start, col)
}

/// Naive reference: `reach[u][v]` iff a path of one or more edges leads
/// from `u` to `v` (one BFS per node).
fn reachability(g: &[Vec<u32>]) -> Vec<Vec<bool>> {
    let n = g.len();
    (0..n)
        .map(|u| {
            let mut seen = vec![false; n];
            let mut queue: Vec<usize> = g[u].iter().map(|&v| v as usize).collect();
            while let Some(v) = queue.pop() {
                if !seen[v] {
                    seen[v] = true;
                    queue.extend(g[v].iter().map(|&w| w as usize));
                }
            }
            seen
        })
        .collect()
}

/// A cycle exists iff some node reaches itself; find_cycle and Tarjan
/// both agree with that.
#[test]
fn dfs_and_tarjan_agree() {
    let mut rng = Rng64::new(0xCD61);
    for case in 0..128 {
        let g = rand_graph(&mut rng, 40, 120);
        let reach = reachability(&g);
        let expected = (0..g.len()).any(|u| reach[u][u]);
        let csr = csr_of(&g);
        assert_eq!(find_cycle(&csr).is_some(), expected, "case {case}");
        assert_eq!(
            tarjan(&csr).cyclic.iter().any(|&c| c),
            expected,
            "case {case}"
        );
    }
}

/// Any witness returned by find_cycle is a genuine closed walk.
#[test]
fn witness_is_a_real_cycle() {
    let mut rng = Rng64::new(0xCD62);
    for case in 0..128 {
        let g = rand_graph(&mut rng, 40, 120);
        if let Some(cycle) = find_cycle(&csr_of(&g)) {
            assert!(!cycle.is_empty(), "case {case}");
            for w in cycle.windows(2) {
                assert!(g[w[0] as usize].contains(&w[1]), "case {case}");
            }
            let last = *cycle.last().unwrap();
            assert!(g[last as usize].contains(&cycle[0]), "case {case}");
        }
    }
}

/// Tarjan's components are exactly the mutual-reachability classes, and
/// a component is marked cyclic iff its nodes reach themselves.
#[test]
fn sccs_partition_nodes() {
    let mut rng = Rng64::new(0xCD63);
    for case in 0..128 {
        let g = rand_graph(&mut rng, 40, 120);
        let reach = reachability(&g);
        let scc = tarjan(&csr_of(&g));
        for (u, from_u) in reach.iter().enumerate() {
            for (v, from_v) in reach.iter().enumerate() {
                let mutual = u == v || (from_u[v] && from_v[u]);
                assert_eq!(
                    scc.comp_of[u] == scc.comp_of[v],
                    mutual,
                    "case {case}: nodes {u} and {v}"
                );
            }
        }
        for (c, nodes) in scc.comp_nodes.iter().enumerate() {
            for &v in nodes {
                assert_eq!(scc.comp_of[v as usize], c as u32, "case {case}");
            }
            let v = nodes[0] as usize;
            assert_eq!(scc.cyclic[c], reach[v][v], "case {case}: component {c}");
        }
    }
}

/// Edges respecting a random topological order never form a cycle.
#[test]
fn dag_by_construction_is_acyclic() {
    let mut rng = Rng64::new(0xCD64);
    for case in 0..128 {
        let n = 2 + rng.gen_index(38);
        let mut g = vec![Vec::new(); n];
        for _ in 0..rng.gen_index(100) {
            let a = rng.gen_index(n);
            let b = rng.gen_index(n);
            if a < b {
                // Forward edges only: a DAG by construction.
                let e = b as u32;
                if !g[a].contains(&e) {
                    g[a].push(e);
                }
            }
        }
        for row in &mut g {
            row.sort_unstable();
        }
        let csr = csr_of(&g);
        assert!(find_cycle(&csr).is_none(), "case {case}");
        assert!(tarjan(&csr).cyclic.iter().all(|&c| !c), "case {case}");
    }
}

/// CDG channel enumeration: node count equals links x VCs, and every
/// channel's endpoints are adjacent in the topology.
#[test]
fn cdg_channel_enumeration_is_consistent() {
    let mut rng = Rng64::new(0xCD65);
    for case in 0..48 {
        let rx = 2 + rng.gen_index(3);
        let ry = 2 + rng.gen_index(3);
        let vx = 1 + rng.gen_index(2) as u8;
        let vy = 1 + rng.gen_index(2) as u8;
        let topo = Topology::mesh(&[rx, ry]);
        let chans = Cdg::channels_of(&topo, &[vx, vy]);
        let expected: usize = topo
            .links()
            .iter()
            .map(|(_, _, dim, _)| match dim.index() {
                0 => vx as usize,
                _ => vy as usize,
            })
            .sum();
        assert_eq!(chans.len(), expected, "case {case} ({rx}x{ry})");
        for c in chans {
            assert_eq!(
                topo.neighbor(c.from, c.dim, c.dir),
                Some(c.to),
                "case {case}"
            );
        }
    }
}
