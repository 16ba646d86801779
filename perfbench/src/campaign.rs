//! `campaign`: CI's flow at two threads. A round is a few oracle
//! `run_campaign` calls on seeded small artifacts, the clean seed-corpus
//! campaign and the same corpus under `Mutation::DallyIgnoresWrap`. Every
//! ledger written goes through the `check-cert` checks. One op is one
//! campaign call.

use std::path::Path;
use std::time::{Duration, Instant};

use ebda_corpus::{run_corpus_campaign, store, CorpusCampaignConfig, CorpusEntry};
use ebda_obs::CoverageMap;
use ebda_oracle::differential::{run_campaign, CampaignConfig};
use ebda_oracle::verdict::Mutation;

use crate::{check_cert, expect, stats, verdict_name, Ctx, Workload};

/// The checked-in seed corpus, relative to the checkout root.
const SEED_CORPUS: &str = "corpus/seed";
/// Oracle campaign calls per round.
const ORACLE_CALLS: usize = 10;
/// Artifacts per oracle campaign call.
const ARTIFACTS: usize = 150;
/// Node ceiling of generated topologies, as in CI.
const MAX_NODES: usize = 25;

pub struct Campaign {
    threads: usize,
    entries: Vec<CorpusEntry>,
    seeds: Vec<u64>,
    /// Ledger and coverage fingerprints of the first round, one per call;
    /// later rounds (and other thread counts) must reproduce them.
    reference: Vec<Option<u64>>,
}

/// Reads a written coverage map back; its bytes join the fingerprint.
fn read_coverage(ctx: &mut Ctx, path: &Path, digest: &str) -> Result<String, String> {
    let text = ctx
        .call("ledger_read", "obs", || std::fs::read_to_string(path))
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    let map = ctx.call("json_parse", "obs", || CoverageMap::from_json(&text))?;
    expect(map.digest() == digest, || {
        "coverage file differs from the report".into()
    })?;
    Ok(text)
}

impl Campaign {
    /// Compares a call's output fingerprint with the first round's.
    fn repeat(&mut self, call: usize, bytes: &[&str]) -> Result<(), String> {
        let fp = bytes
            .iter()
            .fold(0u64, |h, b| stats::mix(h, stats::fnv(b.as_bytes())));
        match self.reference[call] {
            None => self.reference[call] = Some(fp),
            Some(r) if r != fp => {
                return Err(format!(
                    "call {call}: ledger or coverage bytes differ from the first round \
                     (threads {})",
                    self.threads
                ))
            }
            Some(_) => {}
        }
        Ok(())
    }
}

impl Workload for Campaign {
    const NAME: &'static str = "campaign";
    const THREADS: usize = 2;
    const SPECULATIVE_OPS: &'static [&'static str] = &["corpus-mutated"];

    fn setup(ctx: &mut Ctx) -> Result<Campaign, String> {
        let t0 = Instant::now();
        let entries = store::load_dir(Path::new(SEED_CORPUS))?;
        ctx.note_always("corpus.load_ms", t0.elapsed().as_secs_f64() * 1e3);
        expect(entries.len() == 50, || {
            format!("the seed corpus holds {} entries, not 50", entries.len())
        })?;
        let seeds = (0..ORACLE_CALLS as u64)
            .map(|i| stats::mix(ctx.seed, i))
            .collect();
        // Warm-up, unchecked: one oracle call and the clean corpus.
        let _ = run_campaign(&CampaignConfig {
            seed: ctx.seed,
            budget: Duration::ZERO,
            min_configs: ARTIFACTS,
            max_configs: ARTIFACTS,
            max_nodes: MAX_NODES,
            threads: Self::THREADS,
            ..CampaignConfig::default()
        });
        let _ = run_corpus_campaign(
            &entries,
            &CorpusCampaignConfig {
                threads: Self::THREADS,
                ..CorpusCampaignConfig::default()
            },
        );
        Ok(Campaign {
            threads: Self::THREADS,
            entries,
            seeds,
            reference: vec![None; ORACLE_CALLS + 1],
        })
    }

    fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    fn round(&mut self, ctx: &mut Ctx) {
        let threads = self.threads;
        let mutation = ctx.mutation;
        let mut bytes = (0.0, 0.0);
        for call in 0..ORACLE_CALLS {
            let ledger = ctx.path(&format!("oracle-{call}.jsonl"));
            let coverage = ctx.path(&format!("oracle-{call}.coverage.json"));
            let _ = std::fs::remove_file(&ledger);
            let _ = std::fs::remove_file(&coverage);
            let cfg = CampaignConfig {
                seed: self.seeds[call],
                budget: Duration::ZERO,
                min_configs: ARTIFACTS,
                max_configs: ARTIFACTS,
                max_nodes: MAX_NODES,
                mutation,
                threads,
                ledger: Some(ledger.clone()),
                coverage: Some(coverage.clone()),
                ..CampaignConfig::default()
            };
            ctx.op("oracle-campaign", 1, ARTIFACTS as u64, |ctx| {
                let report = ctx.call("run_campaign", "oracle", || run_campaign(&cfg));
                if let Some(c) = &report.caught {
                    return Err(format!("verdict paths disagree: {}", c.disagreement));
                }
                expect(report.configs == ARTIFACTS, || {
                    format!("checked {} artifacts, not {ARTIFACTS}", report.configs)
                })?;
                let (verdicts, text, prov) = check_cert(ctx, &ledger)?;
                expect(verdicts.len() == ARTIFACTS, || {
                    format!("ledger holds {} records", verdicts.len())
                })?;
                let free = verdicts.iter().filter(|v| *v == "deadlock-free").count();
                expect(free == report.deadlock_free, || {
                    "ledger verdicts differ from the report's tally".into()
                })?;
                let digest = report
                    .coverage
                    .as_ref()
                    .map(|m| m.digest())
                    .unwrap_or_default();
                let cov = read_coverage(ctx, &coverage, &digest)?;
                bytes.0 += text.len() as f64;
                bytes.1 += prov as f64;
                self.repeat(call, &[&text, &cov])
            });
        }

        let ledger = ctx.path("corpus.jsonl");
        let coverage = ctx.path("corpus.coverage.json");
        let _ = std::fs::remove_file(&ledger);
        let _ = std::fs::remove_file(&coverage);
        let cfg = CorpusCampaignConfig {
            threads,
            mutation,
            ledger: Some(ledger.clone()),
            coverage: Some(coverage.clone()),
            ..CorpusCampaignConfig::default()
        };
        let n = self.entries.len();
        ctx.op("corpus-campaign", 1, n as u64, |ctx| {
            let report = ctx.call("run_corpus_campaign", "corpus", || {
                run_corpus_campaign(&self.entries, &cfg)
            });
            if let Some(m) = report.mismatches.first() {
                return Err(format!(
                    "{} mismatches, first {}: {}",
                    report.mismatches.len(),
                    m.name,
                    m.reason
                ));
            }
            let (verdicts, text, prov) = check_cert(ctx, &ledger)?;
            expect(verdicts.len() == n, || {
                format!("ledger holds {} records", verdicts.len())
            })?;
            // Records follow entry order: each must carry its entry's label.
            for (entry, verdict) in self.entries.iter().zip(&verdicts) {
                let want = verdict_name(entry.expected.is_free());
                expect(verdict == want, || {
                    format!("{}: ledger says {verdict}", entry.name)
                })?;
            }
            let digest = report
                .coverage
                .as_ref()
                .map(|m| m.digest())
                .unwrap_or_default();
            let cov = read_coverage(ctx, &coverage, &digest)?;
            bytes.0 += text.len() as f64;
            bytes.1 += prov as f64;
            self.repeat(ORACLE_CALLS, &[&text, &cov])
        });

        // The CI mutation probe: a wrap-blind Dally path must be caught on
        // exactly the entries labeled deadlocking on a torus, each shrunk.
        let cfg = CorpusCampaignConfig {
            threads,
            mutation: Mutation::DallyIgnoresWrap,
            ..CorpusCampaignConfig::default()
        };
        ctx.op("corpus-mutated", 1, n as u64, |ctx| {
            let report = ctx.call("run_corpus_campaign", "corpus", || {
                run_corpus_campaign(&self.entries, &cfg)
            });
            let mut caught: Vec<&str> = report.mismatches.iter().map(|m| m.name.as_str()).collect();
            caught.sort_unstable();
            let mut want: Vec<&str> = self
                .entries
                .iter()
                .filter(|e| e.wrap.iter().any(|&w| w) && !e.expected.is_free())
                .map(|e| e.name.as_str())
                .collect();
            want.sort_unstable();
            expect(caught == want, || {
                format!("dally-ignores-wrap caught {caught:?}, expected the wrapped deadlocking entries {want:?}")
            })?;
            for m in &report.mismatches {
                expect(!m.shrunk.is_empty(), || format!("{} was not shrunk", m.name))?;
            }
            Ok(())
        });
        ctx.note("obs.ledger_bytes", bytes.0);
        ctx.note("oracle.provenance_bytes", bytes.1);
    }
}
