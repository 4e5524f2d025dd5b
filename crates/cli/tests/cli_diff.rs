//! Tests for the `facile diff` subcommand: golden JSON on a fixed seed
//! (byte-identical across runs and thread counts), and the documented
//! exit codes for unknown predictor keys and bad thresholds.

use std::process::Command;

fn run_diff(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_facile"))
        .arg("diff")
        .args(args)
        .output()
        .expect("facile runs");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
        out.status.code(),
    )
}

const GOLDEN_ARGS: &[&str] = &[
    "--predictors",
    "facile,llvm-mca",
    "--seed",
    "7",
    "--count",
    "40",
    "--threshold",
    "0.6",
    "--format",
    "json",
];

#[test]
fn golden_json_on_fixed_seed() {
    let golden = include_str!("golden/diff.json");
    let (stdout, stderr, code) = run_diff(GOLDEN_ARGS);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert_eq!(
        stdout,
        golden,
        "diff output drifted from crates/cli/tests/golden/diff.json;\n\
         if the change is intentional, regenerate with:\n\
         facile diff {} > crates/cli/tests/golden/diff.json",
        GOLDEN_ARGS.join(" ")
    );
}

#[test]
fn output_is_identical_across_runs_and_thread_counts() {
    let (first, _, c1) = run_diff(GOLDEN_ARGS);
    let (second, _, c2) = run_diff(GOLDEN_ARGS);
    let one = [GOLDEN_ARGS, &["--threads", "1"]].concat();
    let eight = [GOLDEN_ARGS, &["--threads", "8"]].concat();
    let (t1, _, c3) = run_diff(&one);
    let (t8, _, c4) = run_diff(&eight);
    assert_eq!(c1, Some(0));
    assert_eq!(c2, Some(0));
    assert_eq!(c3, Some(0));
    assert_eq!(c4, Some(0));
    assert_eq!(first, second, "two consecutive runs must be bit-identical");
    assert_eq!(first, t1, "--threads 1 must not change the output");
    assert_eq!(first, t8, "--threads 8 must not change the output");
}

#[test]
fn unknown_predictor_key_is_a_usage_error() {
    let (stdout, stderr, code) = run_diff(&["--predictors", "uica,sim", "--count", "5"]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty());
    assert!(stderr.contains("no predictor matches"), "{stderr}");
    assert!(stderr.contains("uica"), "{stderr}");
    // A selector resolving to a single predictor is equally unusable.
    let (_, stderr, code) = run_diff(&["--predictors", "facile", "--count", "5"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("at least two predictors"), "{stderr}");
}

#[test]
fn bad_thresholds_are_usage_errors() {
    for bad in ["0", "-0.5", "abc", "inf", "NaN"] {
        let (stdout, stderr, code) = run_diff(&["--threshold", bad, "--count", "5"]);
        assert_eq!(code, Some(2), "threshold {bad:?}: stderr {stderr}");
        assert!(stdout.is_empty(), "threshold {bad:?}");
        assert!(stderr.contains("threshold"), "threshold {bad:?}: {stderr}");
    }
}

#[test]
fn unknown_flags_and_presets_are_usage_errors() {
    let (_, stderr, code) = run_diff(&["--bogus"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown flag"), "{stderr}");
    let (_, stderr, code) = run_diff(&["--preset", "nope"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown preset"), "{stderr}");
    assert!(stderr.contains("balanced"), "{stderr}");
}

#[test]
fn missing_input_file_is_a_runtime_error() {
    let (_, stderr, code) = run_diff(&["--input", "/nonexistent/blocks.csv", "--count", "5"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn input_csv_blocks_are_hunted() {
    // Two blocks llvm-mca and iaca disagree on would be hard to pin by
    // hand; instead verify the plumbing: records are scanned and labeled.
    let dir = std::env::temp_dir().join("facile-diff-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("blocks.csv");
    std::fs::write(&path, "# corpus\n4801c8480fafd0,3.0\n4801c8\n").expect("write csv");
    let (stdout, stderr, code) = run_diff(&[
        "--input",
        path.to_str().expect("utf8 path"),
        "--count",
        "0",
        "--threshold",
        "5.0",
        "--format",
        "json",
    ]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(
        stdout.contains("\"scanned_blocks\":2"),
        "both CSV records scanned: {stdout}"
    );
    // A malformed CSV is rejected with its line number.
    std::fs::write(&path, "4801c8\nzznothex\n").expect("write csv");
    let (_, stderr, code) = run_diff(&["--input", path.to_str().expect("utf8 path")]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains(":2:"), "line number in: {stderr}");
}

#[test]
fn text_format_reports_matrix_and_counterexamples() {
    let (stdout, stderr, code) = run_diff(&[
        "--predictors",
        "facile,llvm-mca",
        "--seed",
        "7",
        "--count",
        "40",
        "--threshold",
        "0.6",
    ]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("scanned 40 blocks"), "{stdout}");
    assert!(stdout.contains("facile vs llvm-mca"), "{stdout}");
    assert!(stdout.contains("counterexample #0:"), "{stdout}");
    assert!(stdout.contains("dsb-delivery divergence"), "{stdout}");
}

const GENERALIZE_ARGS: &[&str] = &[
    "--predictors",
    "facile,llvm-mca",
    "--seed",
    "7",
    "--count",
    "40",
    "--threshold",
    "0.6",
    "--generalize",
    "--format",
    "json",
];

#[test]
fn generalize_golden_json_on_fixed_seed() {
    let golden = include_str!("golden/diff_generalize.json");
    let (stdout, stderr, code) = run_diff(GENERALIZE_ARGS);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert_eq!(
        stdout,
        golden,
        "diff --generalize output drifted from \
         crates/cli/tests/golden/diff_generalize.json;\n\
         if the change is intentional, regenerate with:\n\
         facile diff {} > crates/cli/tests/golden/diff_generalize.json",
        GENERALIZE_ARGS.join(" ")
    );
    assert!(
        stdout.contains("{\"patterns\":[{\"pattern\":"),
        "at least one clustered pattern: {stdout}"
    );
}

/// Build the external mock tool (it lives in `facile-bench`, so its
/// `CARGO_BIN_EXE_*` var is not visible here) for the same profile and
/// target directory as the facile binary under test, and return its path.
fn mock_predictor() -> std::path::PathBuf {
    let bin_dir = std::path::Path::new(env!("CARGO_BIN_EXE_facile"))
        .parent()
        .expect("the binary sits in a profile directory");
    static BUILD: std::sync::Once = std::sync::Once::new();
    BUILD.call_once(|| {
        let profile = match bin_dir.file_name().and_then(|n| n.to_str()) {
            Some("debug") | None => "dev",
            Some(name) => name,
        };
        let target_dir = bin_dir
            .parent()
            .expect("profile directories sit in a target directory");
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
        let status = Command::new(cargo)
            .args(["build", "-p", "facile-bench", "--bin", "mock_predictor"])
            .args(["--profile", profile])
            .arg("--target-dir")
            .arg(target_dir)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "mock_predictor builds");
    });
    bin_dir.join("mock_predictor")
}

#[test]
fn external_predictor_generalize_is_deterministic_end_to_end() {
    let mock = mock_predictor();
    let selector = format!(
        "facile,ext:mock={} --mode constant-offset --offset 2.0",
        mock.display()
    );
    let base = [
        "--predictors",
        &selector,
        "--seed",
        "7",
        "--count",
        "40",
        "--threshold",
        "0.5",
        "--max-counterexamples",
        "4",
        "--generalize",
        "--format",
        "json",
    ];
    let (first, stderr, code) = run_diff(&base);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(first.contains("\"predictor\":\"ext:mock\""), "{first}");
    assert!(
        first.contains("{\"patterns\":[{\"pattern\":"),
        "external disagreements must cluster: {first}"
    );
    // Acceptance: bit-identical across runs and thread counts, even
    // with a live subprocess in the loop.
    let (second, _, c2) = run_diff(&base);
    let (t1, _, c3) = run_diff(&[&base[..], &["--threads", "1"]].concat());
    let (t8, _, c4) = run_diff(&[&base[..], &["--threads", "8"]].concat());
    assert_eq!(c2, Some(0));
    assert_eq!(c3, Some(0));
    assert_eq!(c4, Some(0));
    assert_eq!(first, second, "two consecutive runs must be bit-identical");
    assert_eq!(first, t1, "--threads 1 must not change the output");
    assert_eq!(first, t8, "--threads 8 must not change the output");
}

#[test]
fn bad_external_definitions_are_usage_errors() {
    // An invalid tool name in an `ext:` selector token.
    let (_, stderr, code) = run_diff(&["--predictors", "facile,ext:bad name=/bin/true"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("external predictor"), "{stderr}");
    // An empty command.
    let (_, stderr, code) = run_diff(&["--predictors", "facile,ext:mock="]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("command"), "{stderr}");
    // A missing --ext-config file is a runtime error.
    let (_, stderr, code) = run_diff(&["--ext-config", "/nonexistent/ext.toml", "--count", "5"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn fail_on_unclassified_gates() {
    // facile explains itself, so facile pairs always classify: exit 0.
    let (_, _, code) = run_diff(&[
        "--predictors",
        "facile,llvm-mca",
        "--seed",
        "7",
        "--count",
        "40",
        "--threshold",
        "0.6",
        "--fail-on-unclassified",
    ]);
    assert_eq!(code, Some(0));
    // Two baselines with no explanation layer cannot classify: exit 3
    // (llvm-mca vs iaca disagree within 40 blocks at this threshold).
    let (_, stderr, code) = run_diff(&[
        "--predictors",
        "llvm-mca,iaca",
        "--seed",
        "7",
        "--count",
        "40",
        "--threshold",
        "0.6",
        "--fail-on-unclassified",
    ]);
    assert_eq!(code, Some(3), "stderr: {stderr}");
    assert!(stderr.contains("could not be classified"), "{stderr}");
}
