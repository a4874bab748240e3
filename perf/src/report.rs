//! The suite driver (`run`), the repeat-and-summarise command (`repeat`)
//! and the comparison table (`diff`), over one result-file schema.
//!
//! A result file is `{schema, host, seconds, bounds, runs: [...]}`; a run
//! is one child process's result line plus which workload, seed and mode
//! produced it.

use std::process::{Command, Stdio};

use crate::json::Json;
use crate::metrics::{self, GATED, WORKLOADS};
use crate::stats::{iqr_share, median, quartiles};
use crate::workloads::Error;
use crate::{out_dir, Args};

const SCHEMA: f64 = 1.0;

/// Runs one workload in a child process, so peak memory, CPU time and
/// allocator or page-cache state never leak from one workload into the
/// next, and returns its result line with the run's identity added.
fn run_child(args: &Args, workload: &str, seed: u64, traced: bool) -> Result<Json, Error> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["one", "--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if args.has("smoke") {
        cmd.arg("--smoke");
    } else {
        cmd.args(["--seconds", &args.seconds()?.to_string()]);
    }
    if args.has("corrupt-expected") {
        cmd.arg("--corrupt-expected");
    }
    let output = cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no result line"))?;
    let Json::Obj(mut fields) = Json::parse(line)? else {
        return Err(format!("{workload}: result line is not an object").into());
    };
    fields.insert(0, ("workload".into(), Json::from(workload)));
    fields.insert(1, ("seed".into(), Json::from(seed)));
    fields.insert(2, ("trace".into(), Json::from(traced)));
    Ok(Json::Obj(fields))
}

/// The bounds `BENCHMARK.json` fixes, by end-to-end metric name.
fn bounds() -> Result<Json, Error> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(path)?)?;
    let entries = spec
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?
        .as_arr();
    Ok(Json::Obj(
        entries
            .iter()
            .filter_map(|e| {
                Some((
                    e.get("name")?.as_str()?.to_string(),
                    e.get("bound")?.clone(),
                ))
            })
            .collect(),
    ))
}

fn write_result(args: &Args, runs: Vec<Json>) -> Result<Json, Error> {
    let result = Json::obj([
        ("schema", Json::Num(SCHEMA)),
        ("host", crate::host::describe()),
        ("seconds", Json::from(args.seconds()?)),
        ("bounds", bounds()?),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::create_dir_all(out_dir())?;
    let path = out_dir().join("result.json");
    std::fs::write(&path, result.to_string())?;
    eprintln!("perf: wrote {}", path.display());
    Ok(result)
}

fn run_is_correct(run: &Json) -> bool {
    run.get("correct").and_then(Json::as_bool) == Some(true)
}

fn print_metrics(run: &Json) {
    let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
    for (name, m) in run.get("metrics").map(Json::as_obj).unwrap_or(&[]) {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("{workload:<14} {name:<30} {value:>16.4} {unit}");
    }
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `perf run`: every workload, untraced (end-to-end) then traced
/// (per-layer), prints every metric by name with its unit and writes
/// `perf/out/result.json`. `Ok(false)` when any check failed.
pub fn run_suite(args: &Args) -> Result<bool, Error> {
    let seed = args.seed()?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        let untraced = run_child(args, workload, seed, false)?;
        let traced = run_child(args, workload, seed, true)?;
        print_metrics(&untraced);
        print_metrics(&traced);
        // The cost of tracing is the throughput the traced run lost.
        if let (Some(plain), Some(with)) = (
            metric(&untraced, "ops_per_s"),
            metric(&traced, "trace.ops_per_s"),
        ) {
            println!(
                "{workload:<14} {:<30} {:>16.4} share",
                "trace.overhead_share",
                1.0 - with / plain
            );
        }
        for run in [&untraced, &traced] {
            let attempted = run.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            let failed = run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            let mode = if run.get("trace").and_then(Json::as_bool) == Some(true) {
                "traced"
            } else {
                "untraced"
            };
            let verdict = if run_is_correct(run) {
                "correct"
            } else {
                "INCORRECT"
            };
            println!("{workload:<14} {mode}: {attempted} attempted, {failed} failed, {verdict}");
            all_correct &= run_is_correct(run);
        }
        runs.push(untraced);
        runs.push(traced);
    }
    write_result(args, runs)?;
    Ok(all_correct)
}

/// The untraced values of one end-to-end metric on one workload.
fn values(result: &Json, workload: &str, name: &str) -> Vec<f64> {
    result
        .get("runs")
        .map(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Json::as_bool) == Some(false))
        .filter_map(|r| metric(r, name))
        .collect()
}

/// `perf repeat <n>`: the untraced suite `n` times at one seed and `n`
/// times at the next (or, with `--each-seed`, `n` times each at another
/// seed — the way the builder's contract measures spread), then per
/// workload × end-to-end metric the median, quartiles, spread and
/// whether the spread stays inside the metric's bound.
pub fn repeat(args: &Args) -> Result<bool, Error> {
    let n: u64 = args
        .positional
        .first()
        .and_then(|s| s.parse().ok())
        .ok_or("usage: perf repeat <n>")?;
    let seed = args.seed()?;
    let sets: Vec<(String, Vec<u64>)> = if args.has("each-seed") {
        vec![(
            format!("seeds {seed}..{}", seed + n - 1),
            (seed..seed + n).collect(),
        )]
    } else {
        (seed..seed + 2)
            .map(|s| (format!("seed {s}"), vec![s; n as usize]))
            .collect()
    };
    let bounds = bounds()?;
    let mut all_ok = true;
    let mut all_runs = Vec::new();
    for (label, seeds) in sets {
        let mut runs = Vec::new();
        for (i, seed) in seeds.iter().enumerate() {
            for workload in WORKLOADS {
                eprintln!("perf: {label}, round {}/{}: {workload}", i + 1, seeds.len());
                let run = run_child(args, workload, *seed, false)?;
                all_ok &= run_is_correct(&run);
                runs.push(run);
            }
        }
        let set = Json::obj([("runs", Json::Arr(runs.clone()))]);
        println!("== {label}: {} runs per workload", seeds.len());
        println!(
            "{:<14} {:<14} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
            "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"
        );
        for workload in WORKLOADS {
            for def in metrics::END_TO_END {
                let v = values(&set, workload, def.name);
                let (Some((q1, q3)), Some(iqr)) = (quartiles(&v), iqr_share(&v)) else {
                    continue;
                };
                let med = median(&v);
                let range = v.iter().fold(f64::MIN, |a, b| a.max(*b))
                    - v.iter().fold(f64::MAX, |a, b| a.min(*b));
                let bound = bounds.get(def.name).and_then(Json::as_f64).unwrap_or(0.0);
                // setup_s is exempt from the spread rule (only its median is held).
                let within = iqr <= bound || def.name == "setup_s";
                let gated = GATED.contains(&workload);
                let verdict = match (within, iqr <= bound / 3.0, gated) {
                    (true, true, _) => "steady",
                    (true, false, _) => "ok",
                    (false, _, true) => "TOO WIDE",
                    (false, _, false) => "too wide (not gated)",
                };
                all_ok &= within || !gated;
                println!(
                    "{workload:<14} {:<14} {med:>12.4} {q1:>12.4} {q3:>12.4} {iqr:>8.4} {:>8.4} {bound:>6.2}  {verdict}",
                    def.name,
                    range / med
                );
            }
        }
        all_runs.extend(runs);
    }
    write_result(args, all_runs)?;
    Ok(all_ok)
}

/// How a change's median compares with the base's, given the bound and
/// the base's own run-to-run spread.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Improved,
    Flat,
    Regressed,
    /// The base's spread is wider than the bound: the metric cannot tell.
    Unresolved,
}

pub fn verdict(
    base_median: f64,
    change_median: f64,
    higher_is_better: bool,
    bound: f64,
    base_spread: Option<f64>,
) -> Verdict {
    if base_spread.is_some_and(|s| s > bound) {
        return Verdict::Unresolved;
    }
    // Worsening as a share of the base: positive is worse.
    let worse = if higher_is_better {
        base_median - change_median
    } else {
        change_median - base_median
    } / base_median;
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound.max(base_spread.unwrap_or(0.0)) {
        Verdict::Improved
    } else {
        Verdict::Flat
    }
}

/// `perf diff <a.json> <b.json>`: one row per workload × end-to-end
/// metric, `a` as the base. `Ok(false)` when anything regressed.
pub fn diff(args: &Args) -> Result<bool, Error> {
    let [a_path, b_path] = args.positional.as_slice() else {
        return Err("usage: perf diff <a.json> <b.json>".into());
    };
    let load =
        |p: &String| -> Result<Json, Error> { Ok(Json::parse(&std::fs::read_to_string(p)?)?) };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let nproc = |r: &Json| {
        r.get("host")
            .and_then(|h| h.get("nproc"))
            .and_then(Json::as_f64)
    };
    if nproc(&a) != nproc(&b) {
        return Err(format!(
            "results were taken at different nproc ({:?} vs {:?})",
            nproc(&a),
            nproc(&b)
        )
        .into());
    }
    if a.get("seconds") != b.get("seconds") {
        return Err("results were taken at different run lengths".into());
    }
    println!(
        "{:<14} {:<14} {:>12} {:>12} {:>16} {:>8} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "b/a (base a)", "a iqr/med", "bound"
    );
    let mut regressed = false;
    for workload in WORKLOADS {
        for def in metrics::END_TO_END {
            let (va, vb) = (
                values(&a, workload, def.name),
                values(&b, workload, def.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let bound = a
                .get("bounds")
                .and_then(|b| b.get(def.name))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            let spread = iqr_share(&va);
            let v = verdict(ma, mb, def.higher_is_better, bound, spread);
            regressed |= v == Verdict::Regressed;
            println!(
                "{workload:<14} {:<14} {ma:>12.4} {mb:>12.4} {:>16.4} {:>8} {bound:>6.2}  {}",
                def.name,
                mb / ma,
                spread
                    .map(|s| format!("{s:.4}"))
                    .unwrap_or_else(|| "-".into()),
                format!("{v:?}").to_lowercase(),
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Verdict::*;
        // lower is better, bound 10%
        assert_eq!(verdict(100.0, 105.0, false, 0.10, Some(0.02)), Flat);
        assert_eq!(verdict(100.0, 111.0, false, 0.10, Some(0.02)), Regressed);
        assert_eq!(verdict(100.0, 85.0, false, 0.10, Some(0.02)), Improved);
        // higher is better flips the sign
        assert_eq!(verdict(100.0, 85.0, true, 0.10, Some(0.02)), Regressed);
        assert_eq!(verdict(100.0, 115.0, true, 0.10, Some(0.02)), Improved);
        // a base noisier than the bound cannot resolve anything
        assert_eq!(verdict(100.0, 150.0, false, 0.10, Some(0.12)), Unresolved);
        // a single run per side has no spread: judged on the bound alone
        assert_eq!(verdict(100.0, 111.0, false, 0.10, None), Regressed);
    }

    #[test]
    fn values_pick_untraced_runs_of_one_workload() {
        let run = |w: &str, traced: bool, v: f64| {
            Json::obj([
                ("workload", Json::from(w)),
                ("trace", Json::from(traced)),
                (
                    "metrics",
                    Json::obj([(
                        "ops_per_s",
                        Json::obj([("value", Json::from(v)), ("unit", Json::from("1/s"))]),
                    )]),
                ),
            ])
        };
        let result = Json::obj([(
            "runs",
            Json::Arr(vec![
                run("fill", false, 1.0),
                run("fill", true, 9.0),
                run("read_cold", false, 5.0),
                run("fill", false, 3.0),
            ]),
        )]);
        // Through text and back, as `diff` reads it.
        let result = Json::parse(&result.to_string()).unwrap();
        assert_eq!(values(&result, "fill", "ops_per_s"), vec![1.0, 3.0]);
        assert!(values(&result, "fill", "setup_s").is_empty());
    }
}
