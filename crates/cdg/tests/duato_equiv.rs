//! Differential test of Duato's connectivity check: the per-destination
//! backward BFS must give exactly the verdict *and* the witness pair of
//! the naive all-pairs search it replaced, which runs one forward BFS per
//! ordered (src, dst) pair and reports the first failing pair in
//! source-major order.
//!
//! The witness is written into provenance JSON and ledger lines, so the
//! comparison is on `(escape_connected, unreachable)`, not on the verdict
//! alone. Inputs: every seed-corpus entry, a seeded stream of oracle
//! artifacts (mesh and torus), the same artifacts with failed links,
//! partially connected 3D meshes, radix-1 and radix-2 tori, and random
//! turn subsets that disconnect the escape network from a source other
//! than node 0.

use ebda_cdg::dally::{design_universe, infer_vcs};
use ebda_cdg::duato::verify_escape;
use ebda_cdg::topology::{NodeId, Topology};
use ebda_core::{catalog, extract_turns, parse_channels, Channel, Direction, Turn, TurnSet};
use ebda_obs::Rng64;
use ebda_oracle::artifact::Generator;
use std::collections::VecDeque;
use std::path::Path;

/// The all-pairs reference: one forward BFS over `(node, last class)`
/// states per ordered pair, minimal moves only.
fn naive(
    topo: &Topology,
    universe: &[Channel],
    turns: &TurnSet,
) -> (bool, Option<(NodeId, NodeId)>) {
    let n = topo.node_count();
    let k = universe.len();
    for src in 0..n {
        for dst in (0..n).filter(|&d| d != src) {
            let mut seen = vec![false; n * (k + 1)];
            let mut queue = VecDeque::from([(src, k)]);
            seen[src * (k + 1) + k] = true;
            let want = topo.coords(dst);
            let mut reached = false;
            while let Some((node, last)) = queue.pop_front() {
                if node == dst {
                    reached = true;
                    break;
                }
                let here = topo.coords(node);
                for (ci, &c) in universe.iter().enumerate() {
                    let (h, w) = (here[c.dim.index()], want[c.dim.index()]);
                    let towards = if topo.wraps(c.dim) {
                        let r = topo.radix()[c.dim.index()] as i64;
                        let fwd = (w - h).rem_euclid(r);
                        match c.dir {
                            Direction::Plus => fwd != 0 && fwd <= r / 2,
                            Direction::Minus => fwd != 0 && fwd > r / 2,
                        }
                    } else {
                        match c.dir {
                            Direction::Plus => w > h,
                            Direction::Minus => w < h,
                        }
                    };
                    if !towards
                        || !c.class.contains(&here)
                        || (last < k && !turns.allows(universe[last], c))
                    {
                        continue;
                    }
                    if let Some(next) = topo.neighbor(node, c.dim, c.dir) {
                        if !seen[next * (k + 1) + ci] {
                            seen[next * (k + 1) + ci] = true;
                            queue.push_back((next, ci));
                        }
                    }
                }
            }
            if !reached {
                return (false, Some((src, dst)));
            }
        }
    }
    (true, None)
}

/// Tally of what the compared cases covered.
#[derive(Default)]
struct Seen {
    cases: usize,
    disconnected: usize,
    later_src: usize,
}

/// Asserts the fast check matches the reference; returns the witness.
fn same(
    seen: &mut Seen,
    what: &str,
    topo: &Topology,
    universe: &[Channel],
    turns: &TurnSet,
) -> Option<(NodeId, NodeId)> {
    let vcs = infer_vcs(universe, topo.dims());
    let report = verify_escape(topo, &vcs, universe, turns);
    let want = naive(topo, universe, turns);
    assert_eq!(
        (report.escape_connected, report.unreachable),
        want,
        "{what}: radix {:?}, universe {universe:?}",
        topo.radix()
    );
    seen.cases += 1;
    if let Some((src, _)) = want.1 {
        seen.disconnected += 1;
        if src > 0 {
            seen.later_src += 1;
        }
    }
    want.1
}

fn all_turns(universe: &[Channel]) -> TurnSet {
    let mut turns = TurnSet::new();
    for &a in universe {
        for &b in universe {
            if a != b {
                turns.insert(Turn::new(a, b));
            }
        }
    }
    turns
}

#[test]
fn every_seed_corpus_entry_matches() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/seed");
    let entries = ebda_corpus::store::load_dir(&dir).unwrap();
    assert!(entries.len() >= 10, "seed corpus present");
    let mut seen = Seen::default();
    for e in &entries {
        let a = e.to_artifact(0);
        same(&mut seen, &e.name, &a.topology(), &a.universe, &a.turns);
    }
    assert_eq!(seen.cases, entries.len());
    // The catalog designs, parity classes included, on meshes and tori.
    for (name, seq) in catalog::all_designs() {
        let universe = design_universe(&seq);
        let turns = extract_turns(&seq).unwrap().into_turn_set();
        let dims = universe.iter().map(|c| c.dim.index() + 1).max().unwrap();
        for topo in [
            Topology::mesh(&vec![4; dims]),
            Topology::torus(&vec![4; dims]),
        ] {
            same(&mut seen, name, &topo, &universe, &turns);
        }
    }
}

#[test]
fn seeded_oracle_artifacts_match_with_and_without_failed_links() {
    let mut gen = Generator::new(0xD0A7_0012);
    let mut rng = Rng64::new(12);
    let (mut meshes, mut tori) = (0, 0);
    let mut seen = Seen::default();
    for _ in 0..600 {
        let a = gen.next_artifact();
        let topo = a.topology();
        if a.wraps() {
            tori += 1;
        } else {
            meshes += 1;
        }
        same(&mut seen, &a.summary(), &topo, &a.universe, &a.turns);
        // One to three failed links: connectivity must follow the
        // surviving links exactly, in both directions of each cut.
        let links = topo.links();
        let mut faulty = topo.clone();
        for _ in 0..=rng.gen_index(3) {
            let (from, _, dim, dir) = links[rng.gen_index(links.len())];
            faulty = faulty.with_failed_link(from, dim, dir);
        }
        assert!(faulty.failed_link_count() > 0);
        same(&mut seen, &a.summary(), &faulty, &a.universe, &a.turns);
    }
    assert!(meshes >= 100 && tori >= 100, "{meshes} meshes, {tori} tori");
    assert!(seen.disconnected > 0, "some escapes must be disconnected");
    assert!(seen.later_src > 0, "some first failures must be past src 0");
}

#[test]
fn partially_connected_meshes_match() {
    let mut seen = Seen::default();
    let universe = parse_channels("X+ X- Y+ Y- Z+ Z-").unwrap();
    let seq = ebda_core::PartitionSeq::parse("X1+ Y1+ Z1+ X1- | Y1- Z1-").unwrap();
    let design = extract_turns(&seq).unwrap().into_turn_set();
    let mut rng = Rng64::new(7);
    for columns in [
        vec![vec![0, 0]],
        vec![vec![0, 0], vec![2, 2]],
        vec![vec![1, 1]],
        vec![vec![0, 2], vec![2, 0], vec![1, 1]],
    ] {
        let topo = Topology::mesh(&[3, 3, 2]).with_partial_dim(ebda_core::Dimension::Z, columns);
        same(&mut seen, "partial/design", &topo, &universe, &design);
        same(
            &mut seen,
            "partial/all",
            &topo,
            &universe,
            &all_turns(&universe),
        );
        let mut turns = TurnSet::new();
        for t in all_turns(&universe).iter() {
            if rng.gen_bool(0.5) {
                turns.insert(t);
            }
        }
        same(&mut seen, "partial/random", &topo, &universe, &turns);
    }
    // Table 5's catalog design on its own partially connected network.
    let seq = catalog::table5_partial3d();
    let universe = design_universe(&seq);
    let turns = extract_turns(&seq).unwrap().into_turn_set();
    for columns in [vec![vec![0, 0]], vec![vec![0, 0], vec![2, 2]]] {
        let topo = Topology::mesh(&[3, 3, 2]).with_partial_dim(ebda_core::Dimension::Z, columns);
        same(&mut seen, "table5", &topo, &universe, &turns);
    }
    assert!(seen.disconnected > 0);
}

#[test]
fn radix_one_and_two_tori_match() {
    let mut seen = Seen::default();
    let u2 = parse_channels("X+ X- Y+ Y-").unwrap();
    let u3 = parse_channels("X+ X- Y+ Y- Z+ Z-").unwrap();
    let xy = extract_turns(&ebda_core::PartitionSeq::parse("X+ | X- | Y+ | Y-").unwrap())
        .unwrap()
        .into_turn_set();
    for radix in [
        vec![1],
        vec![2],
        vec![1, 1],
        vec![1, 3],
        vec![2, 2],
        vec![2, 3],
        vec![3, 2],
    ] {
        let universe = if radix.len() == 1 { &u2[..2] } else { &u2[..] };
        let topo = Topology::torus(&radix);
        same(
            &mut seen,
            "torus/all",
            &topo,
            universe,
            &all_turns(universe),
        );
        same(&mut seen, "torus/none", &topo, universe, &TurnSet::new());
        if radix.len() == 2 {
            same(&mut seen, "torus/xy", &topo, universe, &xy);
        }
    }
    for radix in [[2, 2, 2], [1, 2, 3], [2, 1, 2]] {
        let topo = Topology::torus(&radix);
        same(&mut seen, "torus3/all", &topo, &u3, &all_turns(&u3));
        same(&mut seen, "torus3/none", &topo, &u3, &TurnSet::new());
    }
    // Only Plus channels: a radix-2 ring reaches its neighbour in one hop
    // either way, a radix-3 ring needs the Minus direction.
    let plus = parse_channels("X+ Y+").unwrap();
    for radix in [[2, 2], [3, 3], [2, 3]] {
        same(
            &mut seen,
            "torus/plus",
            &Topology::torus(&radix),
            &plus,
            &all_turns(&plus),
        );
    }
    assert!(seen.disconnected > 0);
}

#[test]
fn first_failing_source_past_zero_is_reported_source_major() {
    let mut seen = Seen::default();
    // Only the X+/Y+ turns: node 0, the all-minimum corner, reaches every
    // node, but a node that needs a Minus hop and a turn does not.
    let universe = parse_channels("X+ X- Y+ Y-").unwrap();
    let mut turns = TurnSet::new();
    turns.insert(Turn::new(universe[0], universe[2]));
    turns.insert(Turn::new(universe[2], universe[0]));
    let topo = Topology::mesh(&[3, 3]);
    let witness = same(&mut seen, "plus-turns", &topo, &universe, &turns);
    let (src, dst) = witness.expect("disconnected");
    assert!(src > 0, "src 0 is connected here");
    assert_eq!((src, dst), (1, 3), "(0,1) cannot reach (1,0) without Y-");

    // Random turn subsets over meshes and tori: many escapes fail first
    // at a later source, each pinning the source-major tie-break.
    let mut rng = Rng64::new(0x5EED);
    for case in 0..300 {
        let dims = 2 + rng.gen_index(2);
        let radix: Vec<usize> = (0..dims).map(|_| 2 + rng.gen_index(3)).collect();
        let wrap: Vec<bool> = (0..dims).map(|_| rng.gen_bool(0.4)).collect();
        let universe: Vec<Channel> = parse_channels("X+ X- Y+ Y- Z+ Z-").unwrap()[..2 * dims]
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(0.85))
            .collect();
        let mut turns = TurnSet::new();
        for t in all_turns(&universe).iter() {
            if rng.gen_bool(0.6) {
                turns.insert(t);
            }
        }
        let topo = Topology::mesh(&radix).with_wrap(&wrap);
        same(
            &mut seen,
            &format!("random #{case}"),
            &topo,
            &universe,
            &turns,
        );
    }
    assert!(
        seen.later_src >= 20,
        "only {} later-source failures",
        seen.later_src
    );
}
