//! The `perf` binary driven the way people and the driver drive it.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Instant;

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .output()
        .expect("run perf")
}

const WORKLOADS: [&str; 5] = [
    "fill",
    "read_cold",
    "serve_mixed",
    "cluster_write",
    "tune_sim",
];

/// `perf run --smoke`: 1% sizes, every check on, quick enough for a CI
/// step, and it prints every metric of `BENCHMARK.json` by name with its
/// unit for every workload.
#[test]
fn smoke_suite_passes_quickly_and_prints_every_metric() {
    let start = Instant::now();
    let out = perf(&["run", "--smoke"]);
    let elapsed = start.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke suite failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(elapsed.as_secs() < 15, "smoke suite took {elapsed:?}");

    let spec =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    // Metric names are the only strings that follow `"name": ` besides
    // workload names, which the loop below needs too.
    let names: Vec<&str> = spec
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().unwrap())
        .filter(|n| !WORKLOADS.contains(n))
        .collect();
    assert!(
        names.len() > 70,
        "expected the whole catalogue, got {}",
        names.len()
    );
    for workload in WORKLOADS {
        for name in &names {
            let printed = stdout.lines().any(|l| {
                let mut words = l.split_whitespace();
                words.next() == Some(workload)
                    && words.next() == Some(name)
                    && words.nth(1).is_some()
            });
            assert!(printed, "{workload} {name} not printed with value and unit");
        }
        assert!(
            stdout.contains(&format!("{workload:<14} untraced:")),
            "{workload} totals missing"
        );
        assert!(stdout
            .lines()
            .any(|l| l.starts_with(workload) && l.contains("trace.overhead_share")));
    }
    assert!(!stdout.contains("INCORRECT"));
}

/// A wrong expected value must fail the run: non-zero exit, and the
/// result line says `"correct": false` with failed operations counted.
#[test]
fn a_corrupted_expectation_fails_the_run() {
    let out = perf(&[
        "one",
        "--workload",
        "read_cold",
        "--seed",
        "3",
        "--smoke",
        "--corrupt-expected",
    ]);
    assert!(
        !out.status.success(),
        "a run with wrong values must not exit 0"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .expect("a result line even when incorrect");
    assert!(line.contains("\"correct\": false"), "{line}");
    assert!(
        !line.contains("\"failed\": 0,"),
        "wrong values count as failed operations: {line}"
    );

    let clean = perf(&["one", "--workload", "read_cold", "--seed", "3", "--smoke"]);
    assert!(clean.status.success());
    let stdout = String::from_utf8_lossy(&clean.stdout);
    let line = stdout.lines().last().unwrap();
    assert!(
        line.contains("\"correct\": true") && line.contains("\"failed\": 0,"),
        "{line}"
    );
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result() {
    for args in [
        &["one", "--workload", "nope", "--smoke"][..],
        &["one"],
        &["frobnicate"],
        &[],
    ] {
        let out = perf(args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

fn result_file(name: &str, nproc: u32, ops_per_s: &[f64]) -> PathBuf {
    let runs: Vec<String> = ops_per_s
        .iter()
        .map(|v| {
            format!(
                r#"{{"workload": "fill", "seed": 1, "trace": false, "correct": true, "attempted": 10, "failed": 0,
                    "metrics": {{"ops_per_s": {{"value": {v}, "unit": "1/s"}}, "write_p50_us": {{"value": 100, "unit": "us"}}}}}}"#
            )
        })
        .collect();
    let text = format!(
        r#"{{"schema": 1, "host": {{"nproc": {nproc}, "kernel": "k", "git_rev": "r"}}, "seconds": 8,
            "bounds": {{"ops_per_s": 0.1, "write_p50_us": 0.15}}, "runs": [{}]}}"#,
        runs.join(", ")
    );
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).unwrap();
    path
}

/// `perf diff`: a row per workload × metric with both medians, the ratio
/// and a verdict; a regression fails it; results from hosts with
/// different processor counts are refused.
#[test]
fn diff_gives_verdicts_and_refuses_mismatched_hosts() {
    let base = result_file("base.json", 2, &[100.0, 101.0, 99.0, 100.5, 99.5]);
    let slower = result_file("slower.json", 2, &[80.0, 81.0, 79.0, 80.5, 79.5]);
    let faster = result_file("faster.json", 2, &[130.0, 131.0, 129.0]);
    let other_host = result_file("other.json", 4, &[100.0, 100.0]);
    let p = |path: &PathBuf| path.to_str().unwrap().to_string();

    let out = perf(&["diff", &p(&base), &p(&slower)]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "a regression fails the diff");
    let row = stdout
        .lines()
        .find(|l| l.contains("ops_per_s"))
        .expect("ops_per_s row");
    assert!(row.contains("regressed") && row.contains("0.8000"), "{row}");
    assert!(
        stdout
            .lines()
            .any(|l| l.contains("write_p50_us") && l.contains("flat")),
        "{stdout}"
    );

    let out = perf(&["diff", &p(&base), &p(&faster)]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("improved"));

    let out = perf(&["diff", &p(&base), &p(&other_host)]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("nproc"));
}
