//! End-to-end tests of the lint engine over checked-in fixture trees.
//!
//! Each bad fixture is a miniature workspace that violates exactly one
//! rule; the clean/allow fixtures must come back spotless. The final test
//! lints the *real* repository, which pins the shipped tree to zero
//! findings — the same gate `scripts/check.sh` applies in CI.

use std::path::{Path, PathBuf};

use acdc_xtask::run_lint;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Lint a fixture and return (rule id, path) pairs.
fn lint(name: &str) -> Vec<(String, String)> {
    let report = run_lint(&fixture(name)).expect("fixture lints");
    report
        .findings
        .iter()
        .map(|f| (f.rule.id.to_string(), f.path.clone()))
        .collect()
}

/// Assert a fixture trips exactly one rule, in the expected file.
fn assert_single(name: &str, rule: &str, path: &str) {
    let got = lint(name);
    assert_eq!(
        got,
        vec![(rule.to_string(), path.to_string())],
        "fixture {name}: expected exactly one {rule} finding in {path}, got {got:?}"
    );
}

#[test]
fn clean_fixture_is_clean() {
    assert_eq!(
        lint("clean"),
        vec![],
        "clean fixture must produce no findings"
    );
}

#[test]
fn inline_allow_suppresses_findings() {
    assert_eq!(lint("allow_inline"), vec![]);
}

#[test]
fn allowlist_file_suppresses_findings() {
    assert_eq!(lint("allow_list"), vec![]);
}

#[test]
fn d001_wall_clock_fixture() {
    assert_single("d001_wall_clock", "D001", "crates/core/src/bad.rs");
}

#[test]
fn d002_hash_map_fixture() {
    assert_single("d002_hash_map", "D002", "crates/netsim/src/bad.rs");
}

#[test]
fn d004_binary_heap_fixture() {
    assert_single("d004_binary_heap", "D004", "crates/netsim/src/bad.rs");
}

#[test]
fn d003_unseeded_rng_fixture() {
    assert_single("d003_unseeded_rng", "D003", "crates/faults/src/bad.rs");
}

#[test]
fn p001_seq_arith_fixture() {
    assert_single("p001_seq_arith", "P001", "crates/tcp/src/bad.rs");
}

#[test]
fn p002_wscale_shift_fixture() {
    assert_single("p002_wscale_shift", "P002", "crates/vswitch/src/bad.rs");
}

#[test]
fn p003_alpha_eq_fixture() {
    assert_single("p003_alpha_eq", "P003", "crates/cc/src/bad.rs");
}

#[test]
fn p004_reparse_fixture() {
    assert_single("p004_reparse", "P004", "crates/vswitch/src/bad.rs");
}

#[test]
fn p005_flow_admission_fixture() {
    assert_single("p005_flow_admission", "P005", "crates/core/src/bad.rs");
}

#[test]
fn o001_adhoc_counter_fixture() {
    // The fixture holds one `Copy` snapshot struct (structurally exempt)
    // and one fresh raw counter: exactly the fresh one must fire.
    assert_single("o001_adhoc_counter", "O001", "crates/vswitch/src/bad.rs");
}

#[test]
fn s001_checkpoint_float_fixture() {
    assert_single("s001_checkpoint_float", "S001", "crates/soak/src/driver.rs");
}

#[test]
fn h001_missing_forbid_fixture() {
    assert_single("h001_no_forbid", "H001", "crates/foo/src/lib.rs");
}

#[test]
fn h002_clippy_drift_fixture() {
    assert_single("h002_clippy_drift", "H002", "clippy.toml");
}

#[test]
fn w002_lock_order_fixture() {
    assert_single("w002_lock_order", "W002", "crates/vswitch/src/bad.rs");
}

#[test]
fn lint_binary_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_acdc-xtask");
    let ok = std::process::Command::new(bin)
        .args(["lint", "--root"])
        .arg(fixture("clean"))
        .output()
        .expect("run binary");
    assert!(ok.status.success(), "clean fixture must exit 0");

    let bad = std::process::Command::new(bin)
        .args(["lint", "--root"])
        .arg(fixture("d002_hash_map"))
        .output()
        .expect("run binary");
    assert_eq!(bad.status.code(), Some(1), "findings must exit 1");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(
        stdout.contains("crates/netsim/src/bad.rs:1: D002"),
        "diagnostic must carry file:line and rule id, got: {stdout}"
    );

    let missing = std::process::Command::new(bin)
        .args(["lint", "--root", "/nonexistent-acdc-path"])
        .output()
        .expect("run binary");
    assert_eq!(missing.status.code(), Some(2), "bad root must exit 2");
}

#[test]
fn bench_diff_exit_codes_and_table() {
    let bin = env!("CARGO_BIN_EXE_acdc-xtask");
    let fx = fixture("bench_diff");
    let run = |new: &str, extra: &[&str]| {
        std::process::Command::new(bin)
            .arg("bench-diff")
            .arg(fx.join("old.json"))
            .arg(fx.join(new))
            .args(extra)
            .output()
            .expect("run binary")
    };

    // Within threshold (and the new file's extra `telemetry` key is
    // tolerated): exit 0.
    let ok = run("new_ok.json", &[]);
    assert!(ok.status.success(), "ok diff must exit 0: {ok:?}");
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(stdout.contains("| egress.acdc_ns_pkt |"), "{stdout}");
    assert!(!stdout.contains("REGRESSED"), "{stdout}");

    // Synthetic ~15% egress regression: exit 1 and the table says so.
    let bad = run("new_regressed.json", &[]);
    assert_eq!(bad.status.code(), Some(1), "regression must exit 1");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(stdout.contains("REGRESSED"), "{stdout}");

    // A generous threshold lets the same pair pass...
    let loose = run("new_regressed.json", &["--threshold", "20"]);
    assert!(loose.status.success(), "20% threshold must pass: {loose:?}");

    // ...and --summary appends the markdown table to the given file.
    let dir = std::env::temp_dir().join(format!("acdc-bench-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let summary = dir.join("summary.md");
    let with_summary = run("new_ok.json", &["--summary", summary.to_str().unwrap()]);
    assert!(with_summary.status.success());
    let text = std::fs::read_to_string(&summary).expect("summary written");
    assert!(text.contains("Datapath bench diff"), "{text}");
    std::fs::remove_dir_all(&dir).ok();

    // Unparseable / missing input: exit 2.
    let missing = run("no_such.json", &[]);
    assert_eq!(missing.status.code(), Some(2), "missing file must exit 2");

    // Throughput gates in the *opposite* direction: a ~20% drop in
    // simulated-packets/sec against a throughput-carrying baseline is a
    // regression even though every ns/pkt median is unchanged.
    let tput = std::process::Command::new(bin)
        .arg("bench-diff")
        .arg(fx.join("old_throughput.json"))
        .arg(fx.join("new_throughput_regressed.json"))
        .output()
        .expect("run binary");
    assert_eq!(tput.status.code(), Some(1), "throughput drop must exit 1");
    let stdout = String::from_utf8_lossy(&tput.stdout);
    assert!(
        stdout.contains("| throughput.sim_pkts_per_sec |"),
        "{stdout}"
    );
    assert!(stdout.contains("REGRESSED"), "{stdout}");

    // The same throughput-carrying file against itself is clean, and a
    // throughput baseline against a throughput-less new file errors
    // (exit 2): the bench writer silently dropping a gated section must
    // not pass as "nothing to compare".
    let same = std::process::Command::new(bin)
        .arg("bench-diff")
        .arg(fx.join("old_throughput.json"))
        .arg(fx.join("old_throughput.json"))
        .output()
        .expect("run binary");
    assert!(same.status.success(), "identical files must pass: {same:?}");
    let dropped = std::process::Command::new(bin)
        .arg("bench-diff")
        .arg(fx.join("old_throughput.json"))
        .arg(fx.join("new_ok.json"))
        .output()
        .expect("run binary");
    assert_eq!(
        dropped.status.code(),
        Some(2),
        "gated section vanishing from the new file must exit 2: {dropped:?}"
    );
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn real_repository_is_lint_clean() {
    let report = run_lint(&repo_root()).expect("repo lints");
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(
        report.findings.is_empty(),
        "the shipped tree must be lint-clean:\n{}",
        rendered.join("\n")
    );
    assert!(
        report.files_scanned > 50,
        "sanity: the walker should see the whole workspace, saw {}",
        report.files_scanned
    );
}
