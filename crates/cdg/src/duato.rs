//! Duato's verification criterion — the baseline theory EbDa is compared
//! against.
//!
//! Duato (1993): a fully adaptive routing is deadlock-free if there exists a
//! *connected*, *cycle-free* subset of channels (the escape channels);
//! packets may use the remaining (adaptive) channels with no restriction
//! because a blocked packet can always fall back to the escape subnetwork.
//!
//! This module checks the two structural conditions on a concrete topology:
//! the escape turn relation must have an acyclic CDG, and the escape
//! subnetwork alone must connect every source to every destination. The
//! connectivity half runs one backward BFS per destination over
//! `(node, last escape class)` states, O(N^2 k^2) for N nodes and k
//! escape classes.

use crate::dally::verify_turn_set;
use crate::graph::ConcreteChannel;
use crate::topology::{NodeId, Topology};
use ebda_core::{Channel, Direction, TurnSet};
use std::fmt;

/// The outcome of checking Duato's conditions.
#[derive(Debug, Clone)]
pub struct DuatoReport {
    /// Whether the escape CDG is acyclic.
    pub escape_acyclic: bool,
    /// A witness cycle in the escape CDG, if any.
    pub escape_cycle: Option<Vec<ConcreteChannel>>,
    /// Whether the escape subnetwork connects every ordered node pair.
    pub escape_connected: bool,
    /// A witness unreachable pair, if any.
    pub unreachable: Option<(NodeId, NodeId)>,
}

impl DuatoReport {
    /// Returns `true` when both of Duato's conditions hold.
    pub fn is_deadlock_free(&self) -> bool {
        self.escape_acyclic && self.escape_connected
    }

    /// The escape channel classes this report proves drainable, as
    /// sorted display labels: when the escape CDG is acyclic, Duato's
    /// drain argument applies to *every* escape class; when it is
    /// cyclic nothing is proven drained and the list is empty. Fed to
    /// the `escape_drain` coverage family.
    pub fn drained_classes(&self, escape_universe: &[Channel]) -> Vec<String> {
        if !self.escape_acyclic {
            return Vec::new();
        }
        let mut out: Vec<String> = escape_universe.iter().map(ToString::to_string).collect();
        out.sort();
        out.dedup();
        out
    }
}

impl fmt::Display for DuatoReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_deadlock_free() {
            write!(
                f,
                "duato conditions hold: escape subnetwork acyclic and connected"
            )
        } else if !self.escape_acyclic {
            write!(f, "duato violation: escape subnetwork has a cyclic CDG")
        } else {
            let (a, b) = self.unreachable.unwrap_or((0, 0));
            write!(
                f,
                "duato violation: escape subnetwork cannot route {a} -> {b}"
            )
        }
    }
}

/// Checks Duato's conditions for an escape subnetwork described by a
/// class-level turn set over `escape_universe`.
///
/// Connectivity is checked with minimal-path reachability over (node,
/// last escape class) states: every node must reach every other node
/// while strictly decreasing distance (escape channels in Duato-style
/// designs are dimension-ordered and minimal). One backward BFS per
/// destination answers every source at once.
pub fn verify_escape(
    topo: &Topology,
    vcs: &[u8],
    escape_universe: &[Channel],
    escape_turns: &TurnSet,
) -> DuatoReport {
    let dally = verify_turn_set(topo, vcs, escape_universe, escape_turns);
    let escape_acyclic = dally.is_deadlock_free();
    let (escape_connected, unreachable) = check_connectivity(topo, escape_universe, escape_turns);
    DuatoReport {
        escape_acyclic,
        escape_cycle: dally.cycle,
        escape_connected,
        unreachable,
    }
}

/// Checks Duato's conditions reusing an already-computed Dally report
/// for the *same* `(topology, vcs, universe, turns)` inputs.
///
/// The acyclicity half of [`verify_escape`] is literally
/// [`verify_turn_set`] on the same CDG, so a caller that has already run
/// Dally (the differential oracle's `evaluate`) can share that report
/// and pay only for the connectivity BFS — halving the CDG build and
/// cycle-search work per artifact. The returned report is byte-identical
/// to what [`verify_escape`] would produce.
pub fn verify_escape_given(
    dally: &crate::dally::VerificationReport,
    topo: &Topology,
    escape_universe: &[Channel],
    escape_turns: &TurnSet,
) -> DuatoReport {
    let (escape_connected, unreachable) = check_connectivity(topo, escape_universe, escape_turns);
    DuatoReport {
        escape_acyclic: dally.is_deadlock_free(),
        escape_cycle: dally.cycle.clone(),
        escape_connected,
        unreachable,
    }
}

/// Escape connectivity over `(node, last escape class)` states, minimal
/// moves only. The minimal-move filter depends on the destination alone,
/// so one backward BFS per destination, seeded with every `(dst, class)`
/// state, marks each state that can still reach `dst`; a source is
/// connected when one of its first hops lands on such a state. The
/// predecessor and allowed-turn tables are built once and one arena
/// serves every destination: O(N^2 k^2) for N nodes and k classes.
///
/// The witness is the smallest unreachable `(src, dst)` in source-major
/// order, exactly what an all-pairs search reports first. States dequeued
/// are recorded as `cdg/duato:bfs_states`.
fn check_connectivity(
    topo: &Topology,
    universe: &[Channel],
    turns: &TurnSet,
) -> (bool, Option<(NodeId, NodeId)>) {
    const NONE: usize = usize::MAX;
    let (n, k, dims) = (topo.node_count(), universe.len(), topo.dims());
    let coords: Vec<i64> = (0..n).flat_map(|v| topo.coords(v)).collect();
    let at = |v: NodeId| &coords[v * dims..(v + 1) * dims];
    // prev[w * k + c]: the node whose class-`c` hop lands on `w`, if any.
    let mut prev = vec![NONE; n * k];
    for v in 0..n {
        for (ci, c) in universe.iter().enumerate() {
            if c.class.contains(at(v)) {
                if let Some(w) = topo.neighbor(v, c.dim, c.dir) {
                    prev[w * k + ci] = v;
                }
            }
        }
    }
    // into[cj]: the classes a packet may arrive on and still take `cj`.
    let into: Vec<Vec<usize>> = universe
        .iter()
        .map(|&to| {
            (0..k)
                .filter(|&ci| turns.allows(universe[ci], to))
                .collect()
        })
        .collect();
    // Whether a hop on `c` from `here` to its neighbour approaches `want`.
    let towards = |c: Channel, here: i64, want: i64| {
        if topo.wraps(c.dim) {
            // On tori either rotation that reduces ring distance counts.
            let r = topo.radix()[c.dim.index()] as i64;
            let fwd = (want - here).rem_euclid(r);
            match c.dir {
                Direction::Plus => fwd != 0 && fwd <= r / 2,
                Direction::Minus => fwd != 0 && fwd > r / 2,
            }
        } else {
            match c.dir {
                Direction::Plus => want > here,
                Direction::Minus => want < here,
            }
        }
    };

    let mut good = vec![false; n * k];
    let mut inj = vec![false; n];
    let mut queue: Vec<usize> = Vec::with_capacity(n * k);
    let mut states = 0u64;
    let mut witness: Option<(NodeId, NodeId)> = None;
    for dst in 0..n {
        good.fill(false);
        inj.fill(false);
        queue.clear();
        queue.extend(dst * k..(dst + 1) * k);
        good[dst * k..(dst + 1) * k].fill(true);
        let mut head = 0;
        while let Some(&s) = queue.get(head) {
            head += 1;
            let (v, cj) = (prev[s], s % k);
            let c = universe[cj];
            let d = c.dim.index();
            if v == NONE || !towards(c, at(v)[d], at(dst)[d]) {
                continue;
            }
            inj[v] = true;
            for &ci in &into[cj] {
                let t = v * k + ci;
                if !good[t] {
                    good[t] = true;
                    queue.push(t);
                }
            }
        }
        states += head as u64;
        if let Some(src) = (0..n).find(|&src| src != dst && !inj[src]) {
            if witness.is_none_or(|(s, _)| src < s) {
                witness = Some((src, dst));
            }
            if src == 0 {
                break;
            }
        }
    }
    ebda_obs::prof::work("cdg/duato", "bfs_states", states);
    (witness.is_none(), witness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebda_core::{extract_turns, PartitionSeq};

    fn xy_escape() -> (Vec<Channel>, TurnSet) {
        // XY routing as the classic escape subnetwork.
        let seq = PartitionSeq::parse("X+ | X- | Y+ | Y-").unwrap();
        let ex = extract_turns(&seq).unwrap();
        let universe = crate::dally::design_universe(&seq);
        (universe, ex.into_turn_set())
    }

    #[test]
    fn xy_escape_satisfies_duato() {
        let (universe, turns) = xy_escape();
        let report = verify_escape(&Topology::mesh(&[4, 4]), &[1, 1], &universe, &turns);
        assert!(report.is_deadlock_free(), "{report}");
    }

    #[test]
    fn cyclic_escape_rejected() {
        // All-turns-allowed escape: connected but cyclic.
        let universe = ebda_core::parse_channels("X+ X- Y+ Y-").unwrap();
        let mut turns = TurnSet::new();
        for &a in &universe {
            for &b in &universe {
                if a != b {
                    turns.insert(ebda_core::Turn::new(a, b));
                }
            }
        }
        let report = verify_escape(&Topology::mesh(&[4, 4]), &[1, 1], &universe, &turns);
        assert!(!report.is_deadlock_free());
        assert!(!report.escape_acyclic);
        assert!(report.escape_connected);
    }

    #[test]
    fn disconnected_escape_rejected() {
        // Escape with only X channels: acyclic but cannot route in Y.
        let universe = ebda_core::parse_channels("X+ X-").unwrap();
        let turns = TurnSet::new();
        let report = verify_escape(&Topology::mesh(&[3, 3]), &[1, 1], &universe, &turns);
        assert!(report.escape_acyclic);
        assert!(!report.escape_connected);
        assert!(report.unreachable.is_some());
    }

    #[test]
    fn drained_classes_cover_the_universe_only_when_acyclic() {
        let (universe, turns) = xy_escape();
        let report = verify_escape(&Topology::mesh(&[4, 4]), &[1, 1], &universe, &turns);
        let drained = report.drained_classes(&universe);
        assert_eq!(drained.len(), universe.len());
        assert!(drained.windows(2).all(|w| w[0] < w[1]), "{drained:?}");

        let cyclic_universe = ebda_core::parse_channels("X+ X- Y+ Y-").unwrap();
        let mut all = TurnSet::new();
        for &a in &cyclic_universe {
            for &b in &cyclic_universe {
                if a != b {
                    all.insert(ebda_core::Turn::new(a, b));
                }
            }
        }
        let cyclic = verify_escape(&Topology::mesh(&[4, 4]), &[1, 1], &cyclic_universe, &all);
        assert!(cyclic.drained_classes(&cyclic_universe).is_empty());
    }

    #[test]
    fn given_report_matches_standalone_check() {
        // Sharing the Dally report must not change any field of the
        // Duato verdict — cyclic and acyclic cases both.
        let cases = [xy_escape(), {
            let universe = ebda_core::parse_channels("X+ X- Y+ Y-").unwrap();
            let mut turns = TurnSet::new();
            for &a in &universe {
                for &b in &universe {
                    if a != b {
                        turns.insert(ebda_core::Turn::new(a, b));
                    }
                }
            }
            (universe, turns)
        }];
        for (universe, turns) in cases {
            for topo in [Topology::mesh(&[4, 4]), Topology::torus(&[4, 4])] {
                let standalone = verify_escape(&topo, &[1, 1], &universe, &turns);
                let dally = verify_turn_set(&topo, &[1, 1], &universe, &turns);
                let shared = verify_escape_given(&dally, &topo, &universe, &turns);
                assert_eq!(standalone.escape_acyclic, shared.escape_acyclic);
                assert_eq!(standalone.escape_connected, shared.escape_connected);
                assert_eq!(standalone.unreachable, shared.unreachable);
                let a = standalone.escape_cycle.map(|c| format!("{c:?}"));
                let b = shared.escape_cycle.map(|c| format!("{c:?}"));
                assert_eq!(a, b, "witness cycles must be byte-identical");
            }
        }
    }

    #[test]
    fn west_first_escape_is_connected_and_acyclic() {
        let seq = PartitionSeq::parse("X- | X+ Y+ Y-").unwrap();
        let ex = extract_turns(&seq).unwrap();
        let universe = crate::dally::design_universe(&seq);
        let report = verify_escape(&Topology::mesh(&[5, 5]), &[1, 1], &universe, ex.turn_set());
        assert!(report.is_deadlock_free(), "{report}");
    }
}
