//! `perf`: the repo's one benchmark.
//!
//! ```text
//! perf one --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!          one workload in this process; the last line of standard output is
//!          the result as one JSON object (the form the driver calls)
//! perf run    [--seed n] [--seconds s] [--smoke]
//!          every workload, untraced then traced, each in a child process
//! perf repeat <n> [--seed n] [--seconds s] [--each-seed]
//!          the untraced suite n times; medians, quartiles, spread vs bounds
//! perf diff <a.json> <b.json>
//!          two result files side by side with a verdict per metric
//! ```

mod gen;
mod host;
mod hostspeed;
mod json;
mod ladder;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use workloads::{Ctx, Error, REFERENCE_SECONDS};

/// Sizes of a smoke run relative to the reference run.
const SMOKE_SCALE: f64 = 0.01;

/// Where results, traces and scratch data go: `perf/out`, next to the
/// manifest this binary was built from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Command-line flags after the subcommand: `--name value` pairs, bare
/// `--name` switches, and positionals.
pub struct Args {
    flags: Vec<(String, Option<String>)>,
    pub positional: Vec<String>,
}

impl Args {
    const SWITCHES: [&'static str; 3] = ["smoke", "each-seed", "corrupt-expected"];

    fn parse(raw: &[String]) -> Result<Args, Error> {
        let mut args = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) if Self::SWITCHES.contains(&name) => {
                    args.flags.push((name.into(), None))
                }
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    args.flags.push((name.into(), Some(value.clone())));
                }
                None => args.positional.push(arg.clone()),
            }
        }
        Ok(args)
    }

    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, Error> {
        match self.flags.iter().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, v)) => v
                .as_deref()
                .and_then(|v| v.parse().ok())
                .map(Some)
                .ok_or_else(|| format!("bad value for --{name}").into()),
        }
    }

    pub fn seed(&self) -> Result<u64, Error> {
        Ok(self.value("seed")?.unwrap_or(42))
    }

    /// Run length in seconds; fractional only through `--smoke`.
    pub fn seconds(&self) -> Result<f64, Error> {
        if self.has("smoke") {
            return Ok(REFERENCE_SECONDS * SMOKE_SCALE);
        }
        let seconds: u32 = self.value("seconds")?.unwrap_or(REFERENCE_SECONDS as u32);
        if !(1..=60).contains(&seconds) {
            return Err("--seconds must be between 1 and 60".into());
        }
        Ok(f64::from(seconds))
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.split_first() {
        Some((cmd, rest)) => Args::parse(rest).and_then(|args| match cmd.as_str() {
            "one" => one(&args),
            "run" => report::run_suite(&args),
            "repeat" => report::repeat(&args),
            "diff" => report::diff(&args),
            other => Err(format!("unknown command {other:?}; see perf/README.md").into()),
        }),
        None => Err("usage: perf <one|run|repeat|diff> ...; see perf/README.md".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process and prints its result line.
/// `Ok(false)` when a correctness check failed.
fn one(args: &Args) -> Result<bool, Error> {
    let workload: String = args.value("workload")?.ok_or("--workload is required")?;
    let traced = match args.value::<u8>("trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let dir = out_dir()
        .join("tmp")
        .join(format!("{workload}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    let ctx = Ctx {
        seed: args.seed()?,
        scale: args.seconds()? / REFERENCE_SECONDS,
        tracer: traced.then(trace::Tracer::new),
        dir: dir.clone(),
        corrupt_expected: args.has("corrupt-expected"),
    };
    let outcome = workloads::run(&workload, &ctx);
    std::fs::remove_dir_all(&dir)?;
    let outcome = outcome?;

    for (name, ok) in &outcome.checks {
        if !ok {
            eprintln!("perf: CHECK FAILED: {name}");
        }
    }
    if !outcome.slowdowns.is_empty() {
        let phases: Vec<String> = outcome
            .slowdowns
            .iter()
            .map(|(phase, s)| format!("{phase} {s:.3}"))
            .collect();
        eprintln!("perf: {workload}: host slowdown: {}", phases.join(", "));
    }
    if outcome.failed > 0 {
        eprintln!(
            "perf: {} of {} operations failed",
            outcome.failed, outcome.attempted
        );
    }
    if let Some(report) = &outcome.trace {
        let path = out_dir().join(format!("trace-{workload}.json"));
        std::fs::write(path, report.spans_json().to_string())?;
    }

    let defs = if traced {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let mut fields = Vec::new();
    for def in defs {
        let value = match outcome.metrics.iter().find(|(name, _)| *name == def.name) {
            Some((_, v)) => *v,
            // A layer the workload does not touch reports 0; an end-to-end
            // metric must always be measured.
            None if traced => 0.0,
            None => return Err(format!("{workload} did not report {}", def.name).into()),
        };
        fields.push((
            def.name,
            Json::obj([("value", Json::from(value)), ("unit", Json::from(def.unit))]),
        ));
    }
    if let Some((stray, _)) = outcome
        .metrics
        .iter()
        .find(|(n, _)| !defs.iter().any(|d| d.name == *n))
    {
        return Err(format!("{workload} reported {stray}, which is not in the catalogue").into());
    }
    let line = Json::obj([
        ("correct", Json::from(outcome.correct())),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", Json::obj(fields)),
    ]);
    println!("{line}");
    Ok(outcome.correct())
}
