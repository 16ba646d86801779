//! `enumerate`: the paper's Section 2 sweep at one thread. Exhaustive 3D
//! and 2D no-VC turn-model spaces, a seeded sample of the 65,536-model
//! 2D+1VC space, and EbDa certification of every deadlock-free model.
//! Verdicts count turn models decided; latency samples are public calls.

use ebda_cdg::turn_model::{
    abstract_cycles, deadlock_free_combinations, deadlock_free_combinations_2d,
    sample_deadlock_free_2d_vc, unique_up_to_symmetry,
};
use ebda_core::certify::certify;
use ebda_core::{parse_channels, Channel, Turn, TurnSet};

use crate::{expect, stats, Ctx, Workload};

/// Sample calls into the 2D+1VC space per round (odd, so the median op
/// latency falls inside this group).
const VC_CALLS: usize = 11;
/// Models each sample call decides.
const VC_MODELS: u64 = 200;
/// Mesh radix the CDGs are built on.
const RADIX: usize = 4;

pub struct Enumerate {
    universe2: Vec<Channel>,
    universe3: Vec<Channel>,
    /// The allowed turns of every 3D combination, by combination number.
    sets3: Vec<TurnSet>,
    vc_seeds: Vec<u64>,
    /// Deadlock-free counts of the first round's sample calls.
    reference: Vec<Option<u64>>,
}

/// The combination number of one prohibition index vector (cycle 0 is
/// the least significant base-4 digit, as `deadlock_free_combinations`
/// enumerates them).
fn combo_number(idx: &[usize]) -> usize {
    idx.iter().rev().fold(0, |n, &k| n * 4 + k)
}

impl Workload for Enumerate {
    const NAME: &'static str = "enumerate";
    const THREADS: usize = 1;

    fn setup(ctx: &mut Ctx) -> Result<Enumerate, String> {
        let cycles = abstract_cycles(3);
        let mut all: Vec<Turn> = cycles.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        let sets3 = (0..4usize.pow(cycles.len() as u32))
            .map(|combo| {
                let prohibited: Vec<Turn> = cycles
                    .iter()
                    .enumerate()
                    .map(|(i, c)| c[combo / 4usize.pow(i as u32) % 4])
                    .collect();
                all.iter()
                    .copied()
                    .filter(|t| !prohibited.contains(t))
                    .collect()
            })
            .collect();
        let e = Enumerate {
            universe2: parse_channels("X+ X- Y+ Y-").map_err(|e| e.to_string())?,
            universe3: parse_channels("X+ X- Y+ Y- Z+ Z-").map_err(|e| e.to_string())?,
            sets3,
            vc_seeds: (0..VC_CALLS as u64)
                .map(|i| stats::mix(ctx.seed, i))
                .collect(),
            reference: vec![None; VC_CALLS],
        };
        // Warm-up, unchecked: one call of each kind.
        let _ = deadlock_free_combinations(3, RADIX);
        let _ = deadlock_free_combinations_2d(RADIX);
        let _ = sample_deadlock_free_2d_vc(2, RADIX, 16, ctx.seed);
        Ok(e)
    }

    fn round(&mut self, ctx: &mut Ctx) {
        let mut free3: Vec<Vec<usize>> = Vec::new();
        let mut certified = 0;
        ctx.op("turn-model-3d", 4096, 4096, |ctx| {
            free3 = ctx.call("turn_model", "cdg", || deadlock_free_combinations(3, RADIX));
            expect(free3.len() == 176, || {
                format!(
                    "{} of 4096 3D models deadlock-free, expected 176",
                    free3.len()
                )
            })
        });
        let n3 = free3.len() as u64;
        ctx.op("certify-3d", n3, n3, |ctx| {
            let n = ctx.call("certify", "core", || {
                free3
                    .iter()
                    .filter(|idx| certify(&self.universe3, &self.sets3[combo_number(idx)]).is_ok())
                    .count()
            });
            certified += n;
            expect(n == 32, || {
                format!("{n} of 176 3D models certified, expected 32")
            })
        });

        let mut free2 = Vec::new();
        ctx.op("turn-model-2d", 16, 16, |ctx| {
            free2 = ctx.call("turn_model", "cdg", || deadlock_free_combinations_2d(RADIX));
            let unique = ctx.call("turn_model", "cdg", || unique_up_to_symmetry(&free2));
            expect(free2.len() == 12 && unique == 3, || {
                format!(
                    "{} of 16 2D models free, {unique} unique; expected 12 and 3",
                    free2.len()
                )
            })
        });
        let n2 = free2.len() as u64;
        ctx.op("certify-2d", n2, n2, |ctx| {
            let n = ctx.call("certify", "core", || {
                free2
                    .iter()
                    .filter(|c| certify(&self.universe2, &c.allowed).is_ok())
                    .count()
            });
            certified += n;
            expect(n == 12, || {
                format!("{n} of 12 2D models certified, expected 12")
            })
        });

        for (call, &seed) in self.vc_seeds.iter().enumerate() {
            let reference = &mut self.reference[call];
            ctx.op("turn-model-2d-vc", VC_MODELS, VC_MODELS, |ctx| {
                let (checked, free) = ctx.call("turn_model", "cdg", || {
                    sample_deadlock_free_2d_vc(2, RADIX, VC_MODELS, seed)
                });
                expect(checked == VC_MODELS && free <= checked, || {
                    format!("sample decided {checked} models, {free} free")
                })?;
                match *reference {
                    None => *reference = Some(free),
                    Some(r) if r != free => {
                        return Err(format!("sample found {free} free models, first round {r}"))
                    }
                    Some(_) => {}
                }
                Ok(())
            });
        }
        let models = 4096 + 16 + VC_CALLS as u64 * VC_MODELS;
        ctx.note("cdg.models", models as f64);
        ctx.note("core.certified", certified as f64);
    }
}
