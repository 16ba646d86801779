//! The self-profiler's headline contract, end to end through the `sweep`
//! binary: the deterministic work-unit counter tree is **byte-identical**
//! at every `--threads` value, and the written `--profile-out` file is a
//! valid Chrome trace with one track per worker.

use ebda_obs::json::Value;
use ebda_obs::ProfSnapshot;
use std::path::PathBuf;
use std::process::Command;

/// Runs bench binary `bin` with `args` plus `--threads N --profile-out
/// <tmp>` and returns the parsed snapshot plus the raw file text.
fn profiled(bin: &str, args: &[&str], threads: usize) -> (ProfSnapshot, String) {
    let name = std::path::Path::new(bin)
        .file_name()
        .unwrap()
        .to_str()
        .unwrap();
    let path = std::env::temp_dir().join(format!("ebda-prof-det-{name}-{threads}.json"));
    let status = Command::new(bin)
        .args(args)
        .args([
            "--threads",
            &threads.to_string(),
            "--profile-out",
            path.to_str().unwrap(),
        ])
        .env_remove("EBDA_THREADS")
        .env_remove("EBDA_PROFILE_OUT")
        .env_remove("EBDA_TRACE")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn bench binary");
    assert!(status.success(), "{name} --threads {threads} failed");
    let text = std::fs::read_to_string(&path).expect("profile written");
    std::fs::remove_file(&path).ok();
    let doc = Value::parse(&text).expect("profile is JSON");
    let snap = ProfSnapshot::from_value(doc.get("ebdaProfile").expect("ebdaProfile key"))
        .expect("snapshot parses");
    (snap, text)
}

/// Runs `sweep --quick --threads N --profile-out <tmp>`.
fn profiled_sweep(threads: usize) -> (ProfSnapshot, String) {
    profiled(env!("CARGO_BIN_EXE_sweep"), &["--quick"], threads)
}

#[test]
fn work_unit_counters_are_byte_identical_across_thread_counts() {
    let (serial, _) = profiled_sweep(1);
    let (parallel, text) = profiled_sweep(8);

    // The deterministic artifact: same phases, same calls, same work
    // units, byte for byte. Wall-clock times are excluded by design.
    assert!(!serial.counters_text().is_empty(), "counters recorded");
    assert_eq!(
        serial.counters_text(),
        parallel.counters_text(),
        "work-unit counter tree must not depend on --threads"
    );

    // The sweep phases and the engine phases both show up.
    for phase in ["sweep/run", "sim/run", "sim/run/route", "sim/run/eject"] {
        assert!(serial.phases.contains_key(phase), "missing phase {phase}");
    }
    assert_eq!(serial.phases["sweep/run"].work["points"], 8);

    // The 8-thread profile is a loadable Chrome trace whose worker pid
    // carries one named thread track per worker.
    let summary = ebda_obs::chrome::validate(&text).expect("valid Trace Event Format");
    assert!(summary.tracks >= 1, "at least one worker track");
    assert!(text.contains("\"worker 0\""), "worker 0 track named");
    assert!(
        !parallel.workers.is_empty(),
        "parallel run records worker segments"
    );
    // Every sweep point is one busy segment, whichever worker won it
    // (on a loaded 1-CPU host one worker may legitimately take them all).
    assert_eq!(
        parallel.workers.len(),
        8,
        "one busy segment per quick-sweep point"
    );
}

/// The paper's construction path (Algorithm 1 partitioning, CDG
/// construction, cycle search) records through the profiler too, and
/// its counter tree does not depend on the thread count either.
#[test]
fn construction_path_is_profiled_and_thread_count_invariant() {
    let (serial, _) = profiled(env!("CARGO_BIN_EXE_scalability"), &[], 1);
    let (parallel, _) = profiled(env!("CARGO_BIN_EXE_scalability"), &[], 4);
    for (phase, unit) in [
        ("core/algorithm1", "rounds"),
        ("core/algorithm1", "partitions_created"),
        ("cdg/csr_build", "nodes"),
        ("cdg/csr_build", "edges"),
    ] {
        let stat = serial
            .phases
            .get(phase)
            .unwrap_or_else(|| panic!("missing phase {phase}"));
        assert!(stat.calls > 0, "{phase} never ran");
        assert!(
            stat.work.get(unit).is_some_and(|&v| v > 0),
            "{phase}:{unit} not counted"
        );
    }
    assert_eq!(
        serial.counters_text(),
        parallel.counters_text(),
        "construction counter tree must not depend on --threads"
    );
}

#[test]
fn env_fallback_writes_the_profile_too() {
    let path: PathBuf = std::env::temp_dir().join("ebda-prof-env.json");
    let status = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["--quick", "--threads", "2"])
        .env_remove("EBDA_THREADS")
        .env("EBDA_PROFILE_OUT", path.to_str().unwrap())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn sweep");
    assert!(status.success());
    let text = std::fs::read_to_string(&path).expect("EBDA_PROFILE_OUT written");
    std::fs::remove_file(&path).ok();
    let doc = Value::parse(&text).expect("profile is JSON");
    assert!(doc.get("ebdaProfile").is_some());
}
