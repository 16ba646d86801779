//! Process-level tests of the `ebda` CLI binary.

use std::process::Command;

fn ebda(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ebda"))
        .args(args)
        .output()
        .expect("spawn ebda binary")
}

#[test]
fn help_prints_usage() {
    let out = ebda(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("usage:"));
    assert!(text.contains("ebda verify"));
}

#[test]
fn design_and_verify_roundtrip() {
    let out = ebda(&["design", "--vcs", "1,2"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let design_line = text.lines().next().unwrap().replace(['[', ']'], " ");
    let spec = design_line.replace(" -> ", "|");
    let out = ebda(&["verify", spec.trim(), "--mesh", "5x5"]);
    assert!(
        out.status.success(),
        "verify failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("deadlock-free"));
}

#[test]
fn verify_fails_on_invalid_design_with_nonzero_exit() {
    let out = ebda(&["verify", "X+ X- Y+ Y-"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("Theorem 1") || err.contains("complete D-pairs"),
        "stderr: {err}"
    );
}

#[test]
fn turns_lists_the_extraction() {
    let out = ebda(&["turns", "X+ X- Y-"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("90-degree"));
    assert!(text.contains("X1+->Y1-"));
}

#[test]
fn simulate_reports_completion() {
    let out = ebda(&[
        "simulate",
        "X- | X+ Y+ Y-",
        "--mesh",
        "4x4",
        "--rate",
        "0.02",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("completed"), "got: {text}");
}

#[test]
fn simulate_trace_out_roundtrips_through_obs_parser() {
    let dir = std::env::temp_dir();
    let json_path = dir.join(format!("ebda-cli-trace-{}.json", std::process::id()));
    let out = ebda(&[
        "simulate",
        "X- | X+ Y+ Y-",
        "--mesh",
        "4x4",
        "--rate",
        "0.02",
        "--trace-out",
        json_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&json_path).expect("trace file written");
    std::fs::remove_file(&json_path).ok();
    let doc = ebda::obs::json::Value::parse(&text).expect("trace JSON parses");
    let events = doc.get("events").unwrap().as_arr().unwrap();
    assert!(!events.is_empty());
    assert!(doc.get("totals").unwrap().get("inject").unwrap().as_u64() > Some(0));
    assert!(!doc.get("samples").unwrap().as_arr().unwrap().is_empty());

    // The CSV flavour: an events table our own parser accepts.
    let csv_path = dir.join(format!("ebda-cli-trace-{}.csv", std::process::id()));
    let out = ebda(&[
        "simulate",
        "X- | X+ Y+ Y-",
        "--mesh",
        "4x4",
        "--rate",
        "0.02",
        "--trace-out",
        csv_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let csv = std::fs::read_to_string(&csv_path).expect("CSV trace written");
    std::fs::remove_file(&csv_path).ok();
    let mut lines = csv.lines();
    let header = lines.next().unwrap();
    let cols = header.split(',').count();
    for line in lines {
        let fields = ebda::obs::csv::parse_line(line).expect("CSV row parses");
        assert_eq!(fields.len(), cols);
    }
}

#[test]
fn certify_both_ways() {
    let ok = ebda(&[
        "certify",
        "--turns",
        "X1+>Y1+,Y1+>X1+,X1+>Y1-,Y1->X1+,X1->Y1+,X1->Y1-",
    ]);
    assert!(ok.status.success());
    assert!(String::from_utf8(ok.stdout).unwrap().contains("CERTIFIED"));

    let bad = ebda(&["certify", "--turns", "X1+>Y1+,Y1+>X1-,X1->Y1-,Y1->X1+"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8(bad.stderr)
        .unwrap()
        .contains("not certifiable"));
}

#[test]
fn unknown_flags_do_not_crash() {
    let out = ebda(&["design"]);
    assert!(!out.status.success());
    let out = ebda(&["bogus"]);
    assert!(!out.status.success());
}

#[test]
fn verify_profile_out_records_duato_without_changing_verdict_bytes() {
    let dir = std::env::temp_dir().join(format!("ebda-verify-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ledger = dir.join("v.jsonl");
    let profile = dir.join("p.json");
    let (ledger_s, profile_s) = (ledger.to_str().unwrap(), profile.to_str().unwrap());
    let verify = |extra: &[&str]| {
        std::fs::remove_file(&ledger).ok();
        let mut args = vec![
            "verify",
            "X- | X+ Y+ Y-",
            "--mesh",
            "4x4",
            "--ledger",
            ledger_s,
        ];
        args.extend_from_slice(extra);
        let out = ebda(&args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (out.stdout, std::fs::read(&ledger).unwrap())
    };
    let plain = verify(&[]);
    let profiled = verify(&["--profile-out", profile_s]);
    assert_eq!(plain, profiled, "stdout and ledger bytes must not change");

    let out = ebda(&["profile", profile_s, "--counters"]);
    assert!(out.status.success());
    let counters = String::from_utf8(out.stdout).unwrap();
    assert!(
        counters
            .lines()
            .any(|l| l.starts_with("oracle/evaluate/duato calls=1")),
        "{counters}"
    );
    assert!(
        counters
            .lines()
            .any(|l| l.starts_with("cdg/duato ") && l.contains(" bfs_states=")),
        "{counters}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Rewrites the first turn of a JSON `turns` array (`key` is the array's
/// opening, escaped or not) into the self-turn `X1+>X1+`.
fn with_self_turn(text: &str, key: &str, quote: &str) -> String {
    let start = text.find(key).expect("turns array present") + key.len() + quote.len();
    let end = start + text[start..].find(quote).expect("turn string closes");
    format!("{}X1+>X1+{}", &text[..start], &text[end..])
}

#[test]
fn corpus_run_rejects_a_self_turn_entry_cleanly() {
    let seed = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/seed");
    let dir = std::env::temp_dir().join(format!("ebda-self-turn-corpus-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut names: Vec<_> = std::fs::read_dir(&seed)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    names.sort();
    for (i, path) in names.iter().enumerate() {
        let mut text = std::fs::read_to_string(path).unwrap();
        if i == 0 {
            text = with_self_turn(&text, "\"turns\": [", "\"");
            assert!(text.contains("\"X1+>X1+\""), "tampering took effect");
        }
        std::fs::write(dir.join(path.file_name().unwrap()), text).unwrap();
    }
    let out = ebda(&["corpus", "run", dir.to_str().unwrap(), "--threads", "1"]);
    std::fs::remove_dir_all(&dir).ok();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "panicked: {err}");
    assert!(
        !out.status.success(),
        "a self-turn entry must fail the load"
    );
    assert!(
        err.contains("X1+>X1+") && err.contains("self-turn"),
        "{err}"
    );
}

#[test]
fn check_cert_reports_a_self_turn_record_cleanly() {
    let dir = std::env::temp_dir().join(format!("ebda-self-turn-ledger-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ledger = dir.join("v.jsonl");
    let tampered = dir.join("tampered.jsonl");
    let out = ebda(&[
        "verify",
        "X- | X+ Y+ Y-",
        "--mesh",
        "4x4",
        "--ledger",
        ledger.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&ledger).unwrap();
    let bad = with_self_turn(&text, "\\\"turns\\\":[", "\\\"");
    assert!(bad.contains("\\\"X1+>X1+\\\""), "tampering took effect");
    std::fs::write(&tampered, bad).unwrap();
    let out = ebda(&["check-cert", tampered.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).ok();
    assert_ne!(
        out.status.code(),
        Some(101),
        "panicked: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !out.status.success(),
        "a self-turn record must fail the check"
    );
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(
        report.contains("FAIL line 1") && report.contains("self-turn"),
        "{report}"
    );
}
