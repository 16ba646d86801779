//! `perfbench`: the workspace benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--mutate none|dally-ignores-wrap|ebda-skips-theorem1]
//!           [--work-dir DIR] [--setup-only 1]
//! ```
//!
//! One run sets the workload up, then repeats identical rounds of ops
//! until they have taken `--seconds` and checks every op against a known
//! answer. Between rounds, spread over the run, it times several cold
//! set-ups of the workload, each in a fresh process of this binary
//! started with `--setup-only 1` (the median is `setup_s`). `--trace 0`
//! reports the end-to-end metrics; `--trace 1` reports the per-layer
//! metrics from spans around each public call plus the program's own
//! `prof` counters. The last line of standard output is
//! one JSON object. See `WORKLOADS.md` for the workloads, metrics and what
//! each layer predicts.

mod audit;
mod campaign;
mod enumerate;
mod simulate;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufRead as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use ebda_obs::LedgerRecord;
use ebda_oracle::verdict::Mutation;
use ebda_oracle::Provenance;

use trace::{RoundProf, Tracer, LAYERS};

/// Cold set-ups timed per run, each in a fresh process; `setup_s` is
/// their median.
const SETUPS: usize = 5;
/// The line a `--setup-only` process prints once its workload is set up.
const READY: &str = "ready";
/// Failure messages echoed to standard error before the rest are counted.
const SHOWN_FAILURES: usize = 8;

/// State shared by a workload's ops during one run.
pub struct Ctx {
    pub tracer: Tracer,
    /// Fault injected into every call that expects a clean answer (the
    /// must-fail probe); `Mutation::None` in a normal run.
    pub mutation: Mutation,
    pub seed: u64,
    pub work_dir: PathBuf,
    /// Whether this run reports the per-layer metrics (`--trace 1`).
    pub traced_run: bool,
    latencies_ms: Vec<f64>,
    /// The same latencies grouped by op name.
    by_op: BTreeMap<&'static str, Vec<f64>>,
    verdicts: u64,
    attempted: u64,
    failed: u64,
    failures: usize,
    /// Per-layer samples a workload records while tracing.
    notes: BTreeMap<String, Vec<f64>>,
}

impl Ctx {
    fn new(args: &Args) -> Ctx {
        Ctx {
            tracer: Tracer::new(),
            mutation: args.mutation,
            seed: args.seed,
            work_dir: args.work_dir.clone(),
            traced_run: args.trace,
            latencies_ms: Vec::new(),
            by_op: BTreeMap::new(),
            verdicts: 0,
            attempted: 0,
            failed: 0,
            failures: 0,
            notes: BTreeMap::new(),
        }
    }

    /// Runs one user-visible op: `ops` attempted units producing
    /// `verdicts` verdicts. `f` returns `Err` when an output differs from
    /// its known answer; a panic counts as a failure too.
    pub fn op(
        &mut self,
        name: &'static str,
        ops: u64,
        verdicts: u64,
        f: impl FnOnce(&mut Ctx) -> Result<(), String>,
    ) {
        let id = self.tracer.open_op(name);
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| f(self)));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.tracer.close(id);
        self.latencies_ms.push(ms);
        self.by_op.entry(name).or_default().push(ms);
        self.attempted += ops;
        self.verdicts += verdicts;
        let err = match result {
            Ok(Ok(())) => return,
            Ok(Err(e)) => e,
            Err(p) => format!(
                "panic: {}",
                p.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            ),
        };
        self.fail(name, err, ops);
    }

    /// Counts one check that is not an op: attempted, and failed unless `ok`.
    pub fn check(&mut self, name: &str, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.fail(name, what.to_string(), 1);
        }
    }

    fn fail(&mut self, name: &str, err: String, ops: u64) {
        self.failed += ops;
        self.failures += 1;
        if self.failures <= SHOWN_FAILURES {
            eprintln!("FAIL {name}: {err}");
        }
    }

    /// Times one call into `layer` (see [`Tracer::call`]).
    pub fn call<R>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        self.tracer.call(name, layer, f)
    }

    /// Records a per-layer sample; ignored unless tracing.
    pub fn note(&mut self, name: impl Into<String>, value: f64) {
        if self.tracer.is_on() {
            self.notes.entry(name.into()).or_default().push(value);
        }
    }

    /// Records a per-layer sample whether or not tracing is on (set-up
    /// timings, taken before the traced rounds start).
    pub fn note_always(&mut self, name: impl Into<String>, value: f64) {
        self.notes.entry(name.into()).or_default().push(value);
    }

    fn notes_median(&self, name: &str) -> f64 {
        self.notes.get(name).map_or(0.0, |v| stats::median(v))
    }

    /// A path inside the run's scratch directory.
    pub fn path(&self, file: &str) -> PathBuf {
        self.work_dir.join(file)
    }
}

/// `Ok` when `ok`, else the error `what` describes.
pub fn expect(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// The ledger name of a verdict.
pub fn verdict_name(free: bool) -> &'static str {
    if free {
        "deadlock-free"
    } else {
        "deadlocking"
    }
}

/// `ebda check-cert` over a ledger: every record parses, its provenance
/// matches its hash and verdict, and the independent checker reaches the
/// same verdict. Returns the records' verdicts, the ledger's bytes and the
/// embedded provenance bytes.
pub fn check_cert(ctx: &mut Ctx, path: &Path) -> Result<(Vec<String>, String, usize), String> {
    let text = ctx
        .call("ledger_read", "obs", || std::fs::read_to_string(path))
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut verdicts = Vec::new();
    let mut provenance_bytes = 0;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let rec = ctx.call("json_parse", "obs", || LedgerRecord::from_line(line))?;
        let prov = ctx.call("json_parse", "oracle", || {
            Provenance::from_json(&rec.provenance)
        })?;
        expect(
            rec.hash == prov.hash_hex() && rec.verdict == prov.verdict_str(),
            || format!("record #{} disagrees with its provenance", rec.index),
        )?;
        let report = ctx.call("check", "oracle", || prov.check())?;
        expect(report.deadlock_free == prov.deadlock_free, || {
            format!("record #{}: check-cert reverses the verdict", rec.index)
        })?;
        provenance_bytes += rec.provenance.len();
        verdicts.push(rec.verdict);
    }
    Ok((verdicts, text, provenance_bytes))
}

/// One benchmark workload.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Worker threads its end-to-end rounds use.
    const THREADS: usize;
    /// Ops whose work, not output, may depend on the thread count
    /// (speculative parallel shrinking); their counters are not compared
    /// across thread counts.
    const SPECULATIVE_OPS: &'static [&'static str] = &[];
    /// Builds fixtures and warms caches: everything before the first
    /// timed op.
    fn setup(ctx: &mut Ctx) -> Result<Self, String>;
    /// One round of ops; every round of a run has identical inputs.
    fn round(&mut self, ctx: &mut Ctx);
    /// Changes the worker count of later rounds. Traced rounds run at one
    /// thread, so the `prof` pieces of a call never overlap in time.
    fn set_threads(&mut self, _threads: usize) {}
    /// Workload-specific lines for the human-readable part of the output.
    fn report(&self, _ctx: &Ctx, _wall: Duration) -> Vec<String> {
        Vec::new()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    mutation: Mutation,
    work_dir: PathBuf,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        mutation: Mutation::None,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--mutate" => {
                args.mutation = Mutation::parse(&value).ok_or_else(|| bad(&"unknown mutation"))?
            }
            "--work-dir" => args.work_dir = PathBuf::from(value),
            "--setup-only" => args.setup_only = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with tracing on (0 where
/// the workload leaves a layer idle).
fn per_layer_names() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        ("layer.core_ms", "ms"),
        ("layer.cdg_ms", "ms"),
        ("layer.routing_ms", "ms"),
        ("layer.sim_ms", "ms"),
        ("layer.oracle_ms", "ms"),
        ("layer.corpus_ms", "ms"),
        ("layer.obs_ms", "ms"),
        ("cdg.duato_ms", "ms"),
        ("cdg.duato_share", "ratio"),
        ("cdg.dally_ms", "ms"),
        ("cdg.verify_design_ms", "ms"),
        ("cdg.csr_build.edges", "count"),
        ("cdg.cycle.edges_visited", "count"),
        ("cdg.turn_model_ms", "ms"),
        ("cdg.model_us", "us"),
        ("core.certify_ms", "ms"),
        ("core.certified", "count"),
        ("core.extract_ms", "ms"),
        ("core.ebda_ms", "ms"),
        ("cdg.incr.queries", "count"),
        ("cdg.incr.edges_visited", "count"),
        ("cdg.incr.fallbacks", "count"),
        ("oracle.shrink_ms", "ms"),
        ("oracle.shrink.evals", "count"),
        ("oracle.generate_ms", "ms"),
        ("oracle.evaluate_ms", "ms"),
        ("oracle.brute_ms", "ms"),
        ("oracle.brute.gfp_sweeps", "count"),
        ("oracle.brute.wait_pairs", "count"),
        ("oracle.provenance_ms", "ms"),
        ("oracle.provenance_bytes", "bytes"),
        ("oracle.coverage_ms", "ms"),
        ("oracle.check_ms", "ms"),
        ("obs.ledger_ms", "ms"),
        ("obs.ledger_bytes", "bytes"),
        ("obs.json_parse_ms", "ms"),
        ("corpus.load_ms", "ms"),
        ("corpus.check_ms", "ms"),
        ("par.busy_ratio", "ratio"),
        ("sim.run_ms", "ms"),
        ("sim.ns_per_cycle", "ns"),
        ("sim.cycles", "count"),
        ("sim.flits_ejected", "count"),
        ("sim.link_flits", "count"),
        ("sim.route_ms", "ms"),
        ("sim.vc_alloc_ms", "ms"),
        ("sim.switch_ms", "ms"),
        ("sim.credit_ms", "ms"),
        ("sim.eject_ms", "ms"),
        ("trace.round_ms", "ms"),
        ("trace.accounted_share", "ratio"),
        ("trace.overhead_ms", "ms"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.spans", "count"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for p in audit::POINTS {
        out.push((format!("audit_ms.{}", p.name), "ms"));
        out.push((format!("cdg.duato_ms.{}", p.name), "ms"));
        out.push((format!("oracle.provenance_bytes.{}", p.name), "bytes"));
    }
    out
}

/// Span names whose self time feeds a named per-layer metric.
const SPAN_METRICS: [(&str, &str); 21] = [
    ("duato", "cdg.duato_ms"),
    ("dally", "cdg.dally_ms"),
    ("verify_design", "cdg.verify_design_ms"),
    ("turn_model", "cdg.turn_model_ms"),
    ("certify", "core.certify_ms"),
    ("extract_turns", "core.extract_ms"),
    ("ebda", "core.ebda_ms"),
    ("generate", "oracle.generate_ms"),
    ("evaluate", "oracle.evaluate_ms"),
    ("brute", "oracle.brute_ms"),
    ("provenance", "oracle.provenance_ms"),
    ("coverage", "oracle.coverage_ms"),
    ("check", "oracle.check_ms"),
    ("ledger_append", "obs.ledger_ms"),
    ("ledger_read", "obs.ledger_ms"),
    ("json_parse", "obs.json_parse_ms"),
    ("route", "sim.route_ms"),
    ("vc_alloc", "sim.vc_alloc_ms"),
    ("switch", "sim.switch_ms"),
    ("credit", "sim.credit_ms"),
    ("eject", "sim.eject_ms"),
];

/// Prof work counters exported under layer names (values of one round).
const COUNTER_METRICS: [(&str, &str); 11] = [
    ("cdg/csr_build:edges", "cdg.csr_build.edges"),
    ("cdg/cycle:edges_visited", "cdg.cycle.edges_visited"),
    ("incr:queries", "cdg.incr.queries"),
    ("incr:edges_visited", "cdg.incr.edges_visited"),
    ("incr:fallbacks", "cdg.incr.fallbacks"),
    ("oracle/shrink:shrink_evals", "oracle.shrink.evals"),
    (
        "oracle/evaluate/brute:gfp_sweeps",
        "oracle.brute.gfp_sweeps",
    ),
    (
        "oracle/evaluate/brute:wait_pairs",
        "oracle.brute.wait_pairs",
    ),
    ("sim/run:cycles", "sim.cycles"),
    ("sim/run/eject:flits_ejected", "sim.flits_ejected"),
    ("sim/run/switch:link_flits", "sim.link_flits"),
];

/// One traced round: its wall time, prof data and spans.
struct TracedRound {
    wall_ns: u64,
    prof: RoundProf,
    by_op: BTreeMap<&'static str, RoundProf>,
    spans: std::ops::Range<usize>,
}

fn traced_round<W: Workload>(w: &mut W, ctx: &mut Ctx) -> TracedRound {
    let first = ctx.tracer.spans().len();
    let t0 = Instant::now();
    w.round(ctx);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let (prof, by_op) = ctx.tracer.take_round();
    TracedRound {
        wall_ns,
        prof,
        by_op,
        spans: first..ctx.tracer.spans().len(),
    }
}

fn per_layer(ctx: &Ctx, rounds: &[TracedRound], untraced_ns: u64) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = per_layer_names()
        .into_iter()
        .map(|(n, _)| (n, 0.0))
        .collect();
    let n = rounds.len().max(1) as f64;
    let selfs = ctx.tracer.self_times();
    let spans = ctx.tracer.spans();
    let mut accounted = 0u64;
    let mut op_ns = 0u64;
    for r in rounds {
        for i in r.spans.clone() {
            let s = &spans[i];
            let ms = selfs[i] as f64 / 1e6;
            if s.parent.is_none() {
                op_ns += s.dur_ns;
            }
            if LAYERS.contains(&s.layer) {
                accounted += selfs[i];
                *m.entry(format!("layer.{}_ms", s.layer)).or_default() += ms / n;
            }
            for &(span, metric) in &SPAN_METRICS {
                if s.name == span {
                    *m.entry(metric.into()).or_default() += ms / n;
                }
            }
        }
    }
    let first = rounds.first().map(|r| &r.prof);
    if let Some(p) = first {
        for &(key, metric) in &COUNTER_METRICS {
            m.insert(metric.into(), p.count(key) as f64);
        }
    }
    let sum = |f: &dyn Fn(&RoundProf) -> f64| rounds.iter().map(|r| f(&r.prof)).sum::<f64>() / n;
    m.insert(
        "oracle.shrink_ms".into(),
        sum(&|p| p.ms("oracle/shrink") + p.ms("corpus/shrink")),
    );
    m.insert("corpus.check_ms".into(), sum(&|p| p.ms("corpus/check")));
    m.insert("sim.run_ms".into(), sum(&|p| p.ms("sim/run")));
    let cycles: u64 = rounds.iter().map(|r| r.prof.count("sim/run:cycles")).sum();
    let sim_ns: u64 = rounds
        .iter()
        .map(|r| r.prof.wall_ns.get("sim/run").copied().unwrap_or(0))
        .sum();
    if cycles > 0 {
        m.insert("sim.ns_per_cycle".into(), sim_ns as f64 / cycles as f64);
    }
    let busy: u64 = rounds.iter().map(|r| r.prof.busy_ns).sum();
    let workers = rounds.iter().map(|r| r.prof.workers).max().unwrap_or(0);
    if workers > 0 && op_ns > 0 {
        m.insert(
            "par.busy_ratio".into(),
            busy as f64 / (workers as f64 * op_ns as f64),
        );
    }
    if op_ns > 0 {
        m.insert(
            "cdg.duato_share".into(),
            m["cdg.duato_ms"] * n * 1e6 / op_ns as f64,
        );
    }
    let wall: u64 = rounds.iter().map(|r| r.wall_ns).sum();
    let round_ms: Vec<f64> = rounds.iter().map(|r| r.wall_ns as f64 / 1e6).collect();
    let round_median = stats::median(&round_ms);
    m.insert("trace.round_ms".into(), round_median);
    m.insert(
        "trace.accounted_share".into(),
        accounted as f64 / wall.max(1) as f64,
    );
    let untraced_ms = untraced_ns as f64 / 1e6;
    m.insert("trace.overhead_ms".into(), round_median - untraced_ms);
    m.insert(
        "trace.overhead_ratio".into(),
        (round_median - untraced_ms) / untraced_ms.max(1e-9),
    );
    m.insert("trace.spans".into(), spans.len() as f64);
    // Workload notes override or add to the generic numbers.
    for name in ctx.notes.keys() {
        m.insert(name.clone(), ctx.notes_median(name));
    }
    let models = ctx.notes_median("cdg.models");
    if models > 0.0 {
        m.insert("cdg.model_us".into(), m["cdg.turn_model_ms"] * 1e3 / models);
    }
    m
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let v = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
}

/// Times one cold set-up: a fresh process of this binary, from spawning it
/// until it reports its workload set up, where its first timed op would
/// start. The process is waited for before this returns.
fn cold_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .arg("--workload")
        .arg(&args.workload)
        .arg("--seed")
        .arg(args.seed.to_string())
        .arg("--mutate")
        .arg(args.mutation.to_string())
        .arg("--work-dir")
        .arg(&args.work_dir)
        .args(["--setup-only", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn a set-up process: {e}"))?;
    let mut line = String::new();
    let read = child
        .stdout
        .take()
        .map(|out| std::io::BufReader::new(out).read_line(&mut line));
    let secs = t0.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| format!("wait for set-up: {e}"))?;
    match read {
        Some(Ok(_)) if status.success() && line.trim_end() == READY => Ok(secs),
        _ => Err(format!("set-up process failed ({status})")),
    }
}

fn run<W: Workload>(args: &Args) -> Result<String, String> {
    ebda_par::set_threads(W::THREADS);
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("create {}: {e}", args.work_dir.display()))?;
    let mut ctx = Ctx::new(args);
    if args.setup_only {
        // A process of `cold_setup`: set up, say so, and exit.
        W::setup(&mut ctx)?;
        return Ok(READY.to_string());
    }
    let mut w = W::setup(&mut ctx)?;
    let budget = Duration::from_secs_f64(args.seconds);
    let mut lines = vec![format!(
        "workload {} seed {} threads {} mutation {}",
        W::NAME,
        args.seed,
        W::THREADS,
        args.mutation
    )];
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    if !args.trace {
        // Every round decides the same inputs, so every round has the same
        // ops in the same order. Host contention only ever adds time, so
        // each op's latency is its fastest over the rounds, and throughput
        // is a round's verdicts over the sum of those: a burst of load on
        // the host moves neither. The latency samples are one per op of a
        // round, so their number, and the op the tail falls on, do not
        // depend on how many rounds fit in the budget. Peak RSS is taken
        // per round (VmHWM reset before each) and the median reported.
        // The cold set-ups are spread evenly over the rounds' time, so
        // their median follows the host's load over the whole run rather
        // than at one moment; the budget counts rounds only.
        let mut wall = Duration::ZERO;
        let mut rounds = 0;
        let mut setups: Vec<f64> = Vec::new();
        let mut rss_mb: Vec<f64> = Vec::new();
        let mut best_ms: Vec<f64> = Vec::new();
        let mut round_verdicts = 0;
        while rounds == 0 || wall < budget || setups.len() < SETUPS {
            if setups.len() < SETUPS && wall >= budget.mul_f64(setups.len() as f64 / SETUPS as f64)
            {
                setups.push(cold_setup(args)?);
                continue;
            }
            let (v0, l0) = (ctx.verdicts, ctx.latencies_ms.len());
            stats::reset_peak_rss()?;
            let t0 = Instant::now();
            w.round(&mut ctx);
            wall += t0.elapsed();
            rounds += 1;
            rss_mb.push(stats::peak_rss_mb());
            let (verdicts, latencies) = (ctx.verdicts - v0, &ctx.latencies_ms[l0..]);
            if best_ms.is_empty() {
                best_ms = latencies.to_vec();
                round_verdicts = verdicts;
                continue;
            }
            for (best, &ms) in best_ms.iter_mut().zip(latencies) {
                *best = best.min(ms);
            }
            let same = latencies.len() == best_ms.len() && verdicts == round_verdicts;
            ctx.check(
                "round-shape",
                same,
                "a round's ops or verdicts differ from the first round's",
            );
        }
        let setup_s = stats::median(&setups);
        let best_round_s = best_ms.iter().sum::<f64>() / 1e3;
        let (tail, pct, n) = stats::tail(&best_ms);
        let values = [
            setup_s,
            round_verdicts as f64 / best_round_s,
            stats::median(&best_ms),
            tail,
            stats::median(&rss_mb),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), v, unit));
        }
        lines.push(format!(
            "{rounds} rounds in {:.3} s (fastest ops sum to {best_round_s:.3} s); {} ops, \
             {} verdicts; tail = p{pct:.1} of the {n} ops of a round; set-ups {setups:.3?} s",
            wall.as_secs_f64(),
            ctx.attempted,
            ctx.verdicts
        ));
        for (name, xs) in &ctx.by_op {
            lines.push(format!(
                "op {name:<20} n={:<5} median {:.3} ms, fastest {:.3} ms",
                xs.len(),
                stats::median(xs),
                xs.iter().copied().fold(f64::INFINITY, f64::min)
            ));
        }
        lines.extend(w.report(&ctx, wall));
    } else {
        w.set_threads(1);
        // Reference round, untraced, for the tracing overhead.
        let t0 = Instant::now();
        w.round(&mut ctx);
        let untraced_ns = t0.elapsed().as_nanos() as u64;
        ctx.tracer.set_on(true);
        let mut rounds: Vec<TracedRound> = Vec::new();
        let t0 = Instant::now();
        while rounds.is_empty() || t0.elapsed() < budget {
            let round = traced_round(&mut w, &mut ctx);
            if let Some(first) = rounds.first() {
                let same = first.prof.counters == round.prof.counters;
                ctx.check(
                    "counters-repeat",
                    same,
                    "prof counters differ between identical rounds",
                );
            }
            rounds.push(round);
        }
        // One more round at the workload's own thread count: the same
        // counters and output bytes, and the pool's busy share.
        let parallel = (W::THREADS > 1).then(|| {
            w.set_threads(W::THREADS);
            let round = traced_round(&mut w, &mut ctx);
            for (op, one) in &rounds[0].by_op {
                let many = round.by_op.get(op).map(|p| &p.counters);
                let same = many == Some(&one.counters);
                if W::SPECULATIVE_OPS.contains(op) {
                    if !same {
                        lines.push(format!(
                            "op {op}: prof counters vary with the thread count (speculative work)"
                        ));
                    }
                    continue;
                }
                ctx.check(
                    "counters-threads",
                    same,
                    &format!(
                        "op {op}: prof counters differ between 1 and {} threads",
                        W::THREADS
                    ),
                );
            }
            round
        });
        ctx.tracer.set_on(false);
        let mut m = per_layer(&ctx, &rounds, untraced_ns);
        if let Some(r) = parallel {
            let busy = r.prof.busy_ns as f64 / (W::THREADS as f64 * r.wall_ns as f64);
            m.insert("par.busy_ratio".into(), busy);
        }
        for (name, unit) in per_layer_names() {
            metrics.push((name.clone(), m[&name], unit));
        }
        if let Some(r) = rounds.first() {
            lines.push(format!(
                "prof counters of one round (digest {:016x}):",
                stats::fnv(r.prof.counters_text().as_bytes())
            ));
            lines.extend(r.prof.counters_text().lines().map(|l| format!("  {l}")));
        }
        let trace_path = args
            .work_dir
            .parent()
            .unwrap_or(&args.work_dir)
            .join(format!(
                "perfbench-trace-{}-seed{}.json",
                W::NAME,
                args.seed
            ));
        std::fs::write(&trace_path, ctx.tracer.chrome_json())
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
        lines.push(format!(
            "{} traced rounds, {} spans written to {}",
            rounds.len(),
            ctx.tracer.spans().len(),
            trace_path.display()
        ));
    }
    let fail_ratio = ctx.failed as f64 / ctx.attempted.max(1) as f64;
    lines.push(format!(
        "fail_ratio {fail_ratio} ({} of {} ops failed)",
        ctx.failed, ctx.attempted
    ));
    let _ = std::fs::remove_dir_all(&args.work_dir);
    let mut out = String::new();
    for l in lines {
        let _ = writeln!(out, "{l}");
    }
    for (name, v, unit) in &metrics {
        let _ = writeln!(out, "{name:<40} {v:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| metric_json(n, *v, u))
        .collect();
    let _ = write!(
        out,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ctx.failed == 0,
        ctx.attempted.max(1),
        ctx.failed,
        body.join(",")
    );
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Ledger records stamp the git revision by running `git`; point it at
    // a directory that does not exist so it answers "unknown" at once and
    // never looks outside the working tree.
    std::env::set_var("GIT_DIR", args.work_dir.join("no-git"));
    let result = match args.workload.as_str() {
        audit::Audit::NAME => run::<audit::Audit>(&args),
        campaign::Campaign::NAME => run::<campaign::Campaign>(&args),
        enumerate::Enumerate::NAME => run::<enumerate::Enumerate>(&args),
        simulate::Simulate::NAME => run::<simulate::Simulate>(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    match result {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
