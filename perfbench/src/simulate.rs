//! `simulate`: the `ebda simulate` flow at one thread. A round is a fixed
//! set of seeded `noc_sim::simulate` runs that vary load and size; every
//! routing relation in it is deadlock-free, and every run must repeat its
//! first round's statistics exactly. One op is one simulation.

use std::time::Duration;

use ebda_core::PartitionSeq;
use ebda_routing::classic::{DimensionOrder, TorusDateline};
use ebda_routing::{RoutingRelation, Topology, TurnRouting};
use noc_sim::{simulate, Outcome, SimConfig};

use crate::{stats, Ctx, Workload};

/// The EbDa two-VC fully adaptive design of the paper's Figure 7.
const EBDA_2VC: &str = "X1+ Y1+ Y1- | X1- Y2+ Y2-";
/// Warm-up and measured cycles of every run, half the simulator's
/// defaults: the longest run then takes about 200 ms, short enough that
/// its fastest time over a run's rounds does not follow the host's load.
const WARMUP: u64 = 500;
const MEASUREMENT: u64 = 2_000;

struct Run {
    name: &'static str,
    topo: Topology,
    relation: Box<dyn RoutingRelation>,
    cfg: SimConfig,
    /// Fingerprint of the first round's result.
    reference: Option<u64>,
}

pub struct Simulate {
    runs: Vec<Run>,
    /// Simulated cycles over all rounds so far.
    cycles: u64,
}

fn relation(kind: &str) -> Result<Box<dyn RoutingRelation>, String> {
    Ok(match kind {
        "xy" => Box::new(DimensionOrder::xy()),
        "ebda-2vc" => {
            let seq = PartitionSeq::parse(EBDA_2VC).map_err(|e| e.to_string())?;
            Box::new(TurnRouting::from_design("ebda-2vc", &seq).map_err(|e| e.to_string())?)
        }
        "dateline" => Box::new(TorusDateline::new(2)),
        other => return Err(format!("unknown relation {other}")),
    })
}

fn runs(seed: u64) -> Result<Vec<Run>, String> {
    // (name, relation, torus?, radix, injection rate in packets/node/cycle)
    let table: [(&'static str, &str, bool, usize, f64); 7] = [
        ("xy-8x8-low", "xy", false, 8, 0.02),
        ("xy-8x8-mid", "xy", false, 8, 0.05),
        ("xy-8x8-sat", "xy", false, 8, 0.2),
        ("ebda-2vc-8x8-mid", "ebda-2vc", false, 8, 0.05),
        ("ebda-2vc-8x8-sat", "ebda-2vc", false, 8, 0.2),
        ("xy-16x16-low", "xy", false, 16, 0.01),
        ("dateline-torus-8x8", "dateline", true, 8, 0.05),
    ];
    table
        .iter()
        .enumerate()
        .map(|(i, &(name, kind, torus, k, rate))| {
            Ok(Run {
                name,
                topo: if torus {
                    Topology::torus(&[k, k])
                } else {
                    Topology::mesh(&[k, k])
                },
                relation: relation(kind)?,
                cfg: SimConfig {
                    injection_rate: rate,
                    seed: stats::mix(seed, i as u64),
                    warmup: WARMUP,
                    measurement: MEASUREMENT,
                    ..SimConfig::default()
                },
                reference: None,
            })
        })
        .collect()
}

impl Workload for Simulate {
    const NAME: &'static str = "simulate";
    const THREADS: usize = 1;

    fn setup(ctx: &mut Ctx) -> Result<Simulate, String> {
        let runs = runs(ctx.seed)?;
        // Warm-up, unchecked: a short run of every run's configuration.
        for run in &runs {
            let short = SimConfig {
                warmup: 100,
                measurement: 400,
                drain: 500,
                ..run.cfg.clone()
            };
            let _ = simulate(&run.topo, run.relation.as_ref(), &short);
        }
        Ok(Simulate { runs, cycles: 0 })
    }

    fn round(&mut self, ctx: &mut Ctx) {
        for run in &mut self.runs {
            let mut cycles = 0;
            ctx.op(run.name, 1, 1, |ctx| {
                let result = ctx.call("simulate", "sim", || {
                    simulate(&run.topo, run.relation.as_ref(), &run.cfg)
                });
                cycles = result.cycles;
                if let Outcome::Deadlocked { at_cycle, .. } = result.outcome {
                    return Err(format!(
                        "{}: deadlock at cycle {at_cycle} on a deadlock-free relation",
                        run.name
                    ));
                }
                if result.delivered_packets == 0 || result.routing_faults > 0 {
                    return Err(format!(
                        "{}: {} packets delivered, {} routing faults",
                        run.name, result.delivered_packets, result.routing_faults
                    ));
                }
                let fp = stats::fnv(format!("{result:?}").as_bytes());
                match run.reference {
                    None => run.reference = Some(fp),
                    Some(r) if r != fp => {
                        return Err(format!(
                            "{}: statistics differ from the first round",
                            run.name
                        ))
                    }
                    Some(_) => {}
                }
                Ok(())
            });
            self.cycles += cycles;
        }
    }

    fn report(&self, _ctx: &Ctx, wall: Duration) -> Vec<String> {
        vec![format!(
            "sim_cycles_per_s {} ({} simulated cycles)",
            self.cycles as f64 / wall.as_secs_f64(),
            self.cycles
        )]
    }
}
