//! Spans recorded from the benchmark's own code around calls into each
//! layer's public functions, plus the program's `prof` phase tree for the
//! calls that cannot be split from outside (`evaluate`, `run_campaign`,
//! `simulate`, ...).
//!
//! Spans live in memory and are written out once, as a Chrome trace, when
//! the run ends. A span's self time is its duration minus its children's.
//! Children taken from the `prof` tree carry wall time the program measured
//! itself; they are exclusive pieces of the enclosing call (see
//! [`prof_pieces`]) and are valid only for single-threaded calls, which is
//! why traced rounds run at one thread.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use ebda_obs::prof::{self, ProfSnapshot};

/// The crates of the workspace; `bench` marks the benchmark's own code.
pub const LAYERS: [&str; 8] = [
    "core", "cdg", "routing", "sim", "oracle", "corpus", "obs", "par",
];

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// The op (user-visible operation) this span belongs to.
    pub op: u64,
    /// Which call: `evaluate`, `duato`, `ledger_append`, ...
    pub name: &'static str,
    /// The crate the time is charged to, or `bench`.
    pub layer: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// True when the duration comes from the program's `prof` tree.
    pub from_prof: bool,
}

/// The prof phases and work counters recorded during one round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundProf {
    /// Phase path -> total wall nanoseconds.
    pub wall_ns: BTreeMap<String, u64>,
    /// `phase:unit` -> deterministic work units (calls included as `phase:calls`).
    pub counters: BTreeMap<String, u64>,
    /// Summed worker busy nanoseconds from `ebda-par` segments.
    pub busy_ns: u64,
    /// Distinct worker indexes seen.
    pub workers: usize,
}

impl RoundProf {
    fn merge(&mut self, snap: &ProfSnapshot) {
        for (path, stat) in &snap.phases {
            *self.wall_ns.entry(path.clone()).or_insert(0) += stat.wall_ns;
            *self.counters.entry(format!("{path}:calls")).or_insert(0) += stat.calls;
            for (unit, v) in &stat.work {
                *self.counters.entry(format!("{path}:{unit}")).or_insert(0) += v;
            }
        }
        self.busy_ns += snap.workers.iter().map(|w| w.dur_ns).sum::<u64>();
        let workers = snap.workers.iter().map(|w| w.worker + 1).max().unwrap_or(0);
        self.workers = self.workers.max(workers);
    }

    /// Wall milliseconds of one phase path.
    pub fn ms(&self, path: &str) -> f64 {
        self.wall_ns.get(path).copied().unwrap_or(0) as f64 / 1e6
    }

    /// One counter, 0 when absent.
    pub fn count(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// The deterministic counters as text, one `key=value` per line.
    pub fn counters_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{k}={v}");
        }
        out
    }
}

/// Splits a prof snapshot of one call into exclusive `(name, layer, ns)`
/// pieces. Nested phases are subtracted from their parents, so the pieces
/// never overlap on one thread. Phases the split does not name (shrink,
/// corpus check, ...) stay in the enclosing call's own self time.
pub fn prof_pieces(snap: &ProfSnapshot) -> Vec<(&'static str, &'static str, u64)> {
    let w = |p: &str| snap.phases.get(p).map_or(0, |s| s.wall_ns);
    let mut out = Vec::new();
    let mut group = |parent: &str,
                     parent_name: &'static str,
                     parent_layer: &'static str,
                     kids: &[(&str, &'static str, &'static str)]| {
        let mut inner = 0;
        for &(path, name, layer) in kids {
            inner += w(path);
            out.push((name, layer, w(path)));
        }
        out.push((parent_name, parent_layer, w(parent).saturating_sub(inner)));
    };
    group(
        "oracle/evaluate",
        "evaluate",
        "oracle",
        &[
            ("oracle/evaluate/ebda", "ebda", "core"),
            ("oracle/evaluate/dally", "dally", "cdg"),
            ("oracle/evaluate/duato", "duato", "cdg"),
            ("oracle/evaluate/brute", "brute", "oracle"),
        ],
    );
    group(
        "sim/run",
        "sim_run",
        "sim",
        &[
            ("sim/run/route", "route", "routing"),
            ("sim/run/vc_alloc", "vc_alloc", "sim"),
            ("sim/run/switch", "switch", "sim"),
            ("sim/run/credit", "credit", "sim"),
            ("sim/run/eject", "eject", "sim"),
        ],
    );
    out.push(("generate", "oracle", w("oracle/generate")));
    // A replay simulates; its `sim/run` time is already a piece above.
    if w("oracle/replay") > 0 {
        out.push((
            "replay",
            "oracle",
            w("oracle/replay").saturating_sub(w("sim/run")),
        ));
    }
    out.retain(|&(_, _, ns)| ns > 0);
    out
}

/// Span recorder. When off, every method is a plain call-through.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    op_name: &'static str,
    round: RoundProf,
    by_op: BTreeMap<&'static str, RoundProf>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            op_name: "",
            round: RoundProf::default(),
            by_op: BTreeMap::new(),
        }
    }

    /// Turns span recording and the program's profiler on or off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
        prof::set_enabled(on);
        prof::reset();
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Takes the prof data recorded since the last call, in total and
    /// by op name.
    pub fn take_round(&mut self) -> (RoundProf, BTreeMap<&'static str, RoundProf>) {
        (
            std::mem::take(&mut self.round),
            std::mem::take(&mut self.by_op),
        )
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of a new op.
    pub fn open_op(&mut self, name: &'static str) -> Option<usize> {
        self.op += 1;
        self.op_name = name;
        self.open(name, "bench")
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, layer: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            op: self.op,
            name,
            layer,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            dur_ns: 0,
            from_prof: false,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes `id` and anything a panic left open inside it.
    pub fn close(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].dur_ns = end - self.spans[top].start_ns;
            if top == id {
                break;
            }
        }
    }

    /// Times one call into a layer. In a traced run the program's prof
    /// registry is cleared before the call and read after it: its phases
    /// become child spans and its counters join the round's.
    pub fn call<R>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        prof::reset();
        let id = self.open(name, layer);
        let r = f();
        self.close(id);
        let snap = prof::snapshot();
        let parent = id.expect("tracing is on");
        let mut start = self.spans[parent].start_ns;
        for (name, layer, ns) in prof_pieces(&snap) {
            self.spans.push(Span {
                op: self.op,
                name,
                layer,
                parent: Some(parent),
                start_ns: start,
                dur_ns: ns,
                from_prof: true,
            });
            start += ns;
        }
        self.round.merge(&snap);
        self.by_op.entry(self.op_name).or_default().merge(&snap);
        r
    }

    /// Duration of the latest prof-derived piece `name` of the current op,
    /// in ms; 0 when untraced.
    pub fn last_piece_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .take_while(|s| s.op == self.op)
            .find(|s| s.from_prof && s.name == name)
            .map_or(0.0, |s| s.dur_ns as f64 / 1e6)
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns.saturating_sub(c))
            .collect()
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete event per span, one track per op.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"span\":{},\"parent\":{},\"from_prof\":{}}}}}",
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.op,
                i,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.from_prof
            );
        }
        out.push_str("]}\n");
        out
    }
}
