//! `verify-audit`: the designer's flow, `ebda verify --ledger` followed by
//! `ebda check-cert`, through the same public calls, over a fixed ladder
//! of large single topologies. One op is one audited verdict.

use std::time::Instant;

use ebda_cdg::dally::infer_vcs;
use ebda_cdg::{verify_design, Topology};
use ebda_core::{catalog, extract_turns, Dimension, PartitionSeq};
use ebda_obs::{ledger, LedgerRecord};
use ebda_oracle::artifact::{naive_turns, Artifact, ArtifactKind};
use ebda_oracle::verdict::{cross_check, evaluate};
use ebda_oracle::{artifact_coverage, Provenance};

use crate::{check_cert, expect, stats, verdict_name, Ctx, Workload};

/// Which design a ladder point verifies.
#[derive(Clone, Copy)]
enum Design {
    /// `X1+ Y1+ Z1+ X1- | Y1- Z1-` on a 3D mesh.
    Mesh3,
    /// `catalog::torus_dateline` on a torus.
    Dateline,
    /// The known-deadlocking `X1+ X1- | Y1+ Y1-` on a torus: the witness path.
    XyTorus,
    /// `X1+ X1- Y1+ Y1-` on a mesh: one partition with both directions of
    /// a dimension breaks Theorem 1, so `verify_design` and the EbDa path
    /// refuse it, and the router built naively from it deadlocks.
    Merged,
}

/// One point of the scaling ladder.
pub struct Point {
    pub name: &'static str,
    design: Design,
    radix: &'static [usize],
    /// The known answer.
    free: bool,
    /// Whether untraced runs time it. An op of more than about 300 ms
    /// averages the host's contention over its whole length, so its
    /// fastest time over a run's rounds moves with the host's load from
    /// one run to the next; the longest points are measured by the traced
    /// run's scaling curve only.
    timed: bool,
}

impl Point {
    /// Whether the design satisfies Theorem 1, so that `verify_design`
    /// and the EbDa path accept it (on a torus that acceptance is exactly
    /// the mesh-only guarantee).
    fn valid(&self) -> bool {
        !matches!(self.design, Design::Merged)
    }
}

/// The ladder. 10³ and 16³ meshes are left out: at the parent commit one
/// audited verdict takes about 25 s and more than 10 min there. Untraced
/// runs time the points marked `timed`; the traced run walks all of them.
/// The small
/// `merged-mesh2-4` keeps the EbDa known answer live: a Theorem 1 check
/// that stops working accepts it and fails the op.
pub const POINTS: [Point; 9] = [
    Point {
        name: "mesh3-4",
        design: Design::Mesh3,
        radix: &[4, 4, 4],
        free: true,
        timed: true,
    },
    Point {
        name: "mesh3-6",
        design: Design::Mesh3,
        radix: &[6, 6, 6],
        free: true,
        timed: true,
    },
    Point {
        name: "mesh3-8",
        design: Design::Mesh3,
        radix: &[8, 8, 8],
        free: true,
        timed: false,
    },
    Point {
        name: "torus2-8",
        design: Design::Dateline,
        radix: &[8, 8],
        free: true,
        timed: true,
    },
    Point {
        name: "torus2-12",
        design: Design::Dateline,
        radix: &[12, 12],
        free: true,
        timed: true,
    },
    Point {
        name: "torus2-16",
        design: Design::Dateline,
        radix: &[16, 16],
        free: true,
        timed: false,
    },
    Point {
        name: "torus3-6",
        design: Design::Dateline,
        radix: &[6, 6, 6],
        free: true,
        timed: false,
    },
    Point {
        name: "xy-torus2-16",
        design: Design::XyTorus,
        radix: &[16, 16],
        free: false,
        timed: true,
    },
    Point {
        name: "merged-mesh2-4",
        design: Design::Merged,
        radix: &[4, 4],
        free: false,
        timed: true,
    },
];

struct Fixture {
    point: &'static Point,
    topo: Topology,
    seq: PartitionSeq,
    /// Fingerprint of the first round's provenance JSON; later rounds
    /// must reproduce it byte for byte.
    reference: Option<u64>,
}

pub struct Audit {
    fixtures: Vec<Fixture>,
    git_rev: String,
}

fn fixture(point: &'static Point) -> Result<Fixture, String> {
    let (topo, seq) = match point.design {
        Design::Mesh3 => (
            Topology::mesh(point.radix),
            PartitionSeq::parse("X1+ Y1+ Z1+ X1- | Y1- Z1-").map_err(|e| e.to_string())?,
        ),
        Design::Dateline => (
            Topology::torus(point.radix),
            catalog::torus_dateline(point.radix),
        ),
        Design::XyTorus => (
            Topology::torus(point.radix),
            PartitionSeq::parse("X1+ X1- | Y1+ Y1-").map_err(|e| e.to_string())?,
        ),
        Design::Merged => (
            Topology::mesh(point.radix),
            PartitionSeq::parse("X1+ X1- Y1+ Y1-").map_err(|e| e.to_string())?,
        ),
    };
    Ok(Fixture {
        point,
        topo,
        seq,
        reference: None,
    })
}

impl Workload for Audit {
    const NAME: &'static str = "verify-audit";
    const THREADS: usize = 1;

    fn setup(ctx: &mut Ctx) -> Result<Audit, String> {
        // The ladder is walked in one fixed order, so the seed changes
        // nothing here: walking it in a seed-shuffled order moved peak RSS
        // by 13% between seeds through the heap's layout.
        let audit = Audit {
            fixtures: POINTS
                .iter()
                .filter(|p| p.timed || ctx.traced_run)
                .map(fixture)
                .collect::<Result<_, _>>()?,
            git_rev: ledger::git_rev(),
        };
        // Warm-up, untimed and unchecked: the smallest point of each
        // design, so both the certificate and the witness paths have run.
        for name in ["mesh3-4", "torus2-8", "xy-torus2-16", "merged-mesh2-4"] {
            let point = POINTS
                .iter()
                .find(|p| p.name == name)
                .expect("ladder point");
            let _ = std::fs::remove_file(ctx.path(&format!("{name}.jsonl")));
            let _ = audit_op(ctx, &fixture(point)?, &audit.git_rev);
        }
        Ok(audit)
    }

    fn round(&mut self, ctx: &mut Ctx) {
        let mut bytes = (0.0, 0.0);
        for f in &mut self.fixtures {
            let path = ctx.path(&format!("{}.jsonl", f.point.name));
            let _ = std::fs::remove_file(&path);
            let git_rev = &self.git_rev;
            ctx.op(f.point.name, 1, 1, |ctx| {
                let t0 = Instant::now();
                let out = audit_op(ctx, f, git_rev)?;
                let name = f.point.name;
                ctx.note(format!("audit_ms.{name}"), t0.elapsed().as_secs_f64() * 1e3);
                ctx.note(format!("cdg.duato_ms.{name}"), out.duato_ms);
                ctx.note(
                    format!("oracle.provenance_bytes.{name}"),
                    out.provenance_bytes as f64,
                );
                bytes.0 += out.provenance_bytes as f64;
                bytes.1 += out.ledger_bytes as f64;
                match f.reference {
                    None => f.reference = Some(out.fingerprint),
                    Some(r) if r != out.fingerprint => {
                        return Err("provenance differs from the first round".into())
                    }
                    Some(_) => {}
                }
                Ok(())
            });
        }
        ctx.note("oracle.provenance_bytes", bytes.0);
        ctx.note("obs.ledger_bytes", bytes.1);
    }
}

/// What one audited verdict produced, for the per-layer numbers.
struct Audited {
    fingerprint: u64,
    provenance_bytes: usize,
    ledger_bytes: usize,
    duato_ms: f64,
}

/// verify → extract → evaluate → provenance → coverage → ledger append →
/// read-back → `Provenance::check`, each output checked against the
/// point's known answer. A design that breaks Theorem 1 must be refused
/// by `verify_design`, as `ebda verify` refuses it; the rest of the audit
/// then runs on the router built naively from it, as the oracle models it.
fn audit_op(ctx: &mut Ctx, f: &Fixture, git_rev: &str) -> Result<Audited, String> {
    let (want, valid) = (f.point.free, f.point.valid());
    let name = f.point.name;
    match ctx.call("verify_design", "cdg", || verify_design(&f.topo, &f.seq)) {
        Ok(report) => expect(valid && report.is_deadlock_free() == want, || {
            format!("{name}: verify says {report}")
        })?,
        Err(e) => expect(!valid, || format!("{name}: verify refuses it: {e}"))?,
    }
    let extracted = ctx.call("extract_turns", "core", || extract_turns(&f.seq));
    expect(extracted.is_ok() == valid, || {
        format!("{name}: extract_turns gives {:?}", extracted.as_ref().err())
    })?;
    let turns = extracted.map_or_else(|_| naive_turns(&f.seq), |ex| ex.into_turn_set());
    let universe = f.seq.channels();
    let dims = f.topo.dims();
    let artifact = Artifact {
        id: 0,
        kind: ArtifactKind::Partitioning,
        radix: f.topo.radix().to_vec(),
        wrap: (0..dims)
            .map(|d| f.topo.wraps(Dimension::new(d as u8)))
            .collect(),
        vcs: infer_vcs(&universe, dims),
        universe,
        turns,
        design: Some(f.seq.clone()),
    };
    let mutation = ctx.mutation;
    let verdicts = ctx.call("evaluate", "oracle", || evaluate(&artifact, mutation));
    let duato_ms = ctx.tracer.last_piece_ms("duato");
    if let Some(d) = cross_check(&artifact, &verdicts) {
        return Err(format!("{name}: verdict paths disagree: {d}"));
    }
    expect(verdicts.brute.is_deadlock_free() == want, || {
        format!("{name}: brute says {}", verdicts.brute)
    })?;
    expect(verdicts.dally.is_deadlock_free() == want, || {
        format!("{name}: dally says {}", verdicts.dally)
    })?;
    let ebda = verdicts.ebda.as_ref().map(|v| v.is_deadlock_free());
    expect(ebda == Some(valid), || {
        format!("{name}: EbDa says {ebda:?}, expected Some({valid})")
    })?;
    let prov = ctx.call("provenance", "oracle", || {
        Provenance::from_artifact(&artifact, &verdicts)
    });
    let coverage = ctx.call("coverage", "oracle", || {
        artifact_coverage(&artifact, &verdicts)
    });
    let json = ctx.call("provenance", "oracle", || prov.to_json());
    let provenance_bytes = json.len();
    let record = LedgerRecord {
        index: 0,
        source: "cli".into(),
        name: artifact.summary(),
        git_rev: git_rev.to_string(),
        seed: 0,
        verdict: prov.verdict_str().into(),
        evidence: if prov.deadlock_free {
            "certificate"
        } else {
            "witness"
        }
        .into(),
        hash: prov.hash_hex(),
        gfp_sweeps: verdicts.brute.sweeps as u64,
        wait_pairs: verdicts.brute.pairs as u64,
        coverage: coverage.digest(),
        provenance: json,
    };
    let path = ctx.path(&format!("{name}.jsonl"));
    ctx.call("ledger_append", "obs", || ledger::append(&path, &[record]))?;
    // `ebda check-cert` on the ledger just written.
    let (verdicts, text, _) = check_cert(ctx, &path)?;
    expect(verdicts == [verdict_name(want)], || {
        format!("{name}: check-cert reads back {verdicts:?}")
    })?;
    Ok(Audited {
        fingerprint: stats::fnv(text.as_bytes()),
        provenance_bytes,
        ledger_bytes: text.len(),
        duato_ms,
    })
}
