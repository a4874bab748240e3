//! `elmo_tune` — run a full tuning session from the command line.
//!
//! The paper's usage model: "the user is only responsible for starting it
//! with an expected system workload".
//!
//! ```text
//! elmo_tune --workload fillrandom --device hdd --cores 2 --mem-gib 4 \
//!           [--iters 7] [--scale 0.01] [--model expert|expert-clean|http:HOST:PORT] \
//!           [--out tuned_options.ini]
//! ```

#![forbid(unsafe_code)]

use db_bench::BenchmarkSpec;
use elmo_tune::{EnvSpec, TuningConfig, TuningSession};
use hw_sim::DeviceModel;
use llm_client::{ExpertModel, HttpChatModel, LanguageModel, QuirkConfig};
use lsm_kvs::options::{ini, Options};

fn main() {
    if let Err(e) = run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        eprintln!("elmo_tune: {e}");
        std::process::exit(1);
    }
}

fn run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut workload = "fillrandom".to_string();
    let mut device = DeviceModel::nvme_ssd();
    let mut cores = 4usize;
    let mut mem_gib = 4u64;
    let mut iters = 7usize;
    let mut scale = 0.01f64;
    let mut model_spec = "expert".to_string();
    let mut seed = 42u64;
    let mut out: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<String, Box<dyn std::error::Error>> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("missing value for {}", args[*i - 1]).into())
        };
        match args[i].as_str() {
            "--workload" => workload = take(&mut i)?,
            "--device" => device = take(&mut i)?.parse()?,
            "--cores" => cores = take(&mut i)?.parse()?,
            "--mem-gib" => mem_gib = take(&mut i)?.parse()?,
            "--iters" => iters = take(&mut i)?.parse()?,
            "--scale" => scale = take(&mut i)?.parse()?,
            "--seed" => seed = take(&mut i)?.parse()?,
            "--model" => model_spec = take(&mut i)?,
            "--out" => out = Some(take(&mut i)?),
            "--help" | "-h" => {
                println!(
                    "usage: elmo_tune [--workload fillrandom|readrandom|readrandomwriterandom|mixgraph|ycsb_a..ycsb_f] \
                     [--device nvme|ssd|hdd] [--cores N] [--mem-gib N] [--iters N] [--scale F] \
                     [--seed N] [--model expert|expert-clean|http:HOST:PORT] [--out FILE]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown flag: {other}").into()),
        }
        i += 1;
    }

    let spec = match workload.as_str() {
        "fillrandom" | "fr" => BenchmarkSpec::fillrandom(scale),
        "readrandom" | "rr" => BenchmarkSpec::readrandom(scale),
        "readrandomwriterandom" | "rrwr" => BenchmarkSpec::readrandomwriterandom(scale),
        "mixgraph" | "mix" => BenchmarkSpec::mixgraph(scale),
        other => match other.strip_prefix("ycsb_").or_else(|| other.strip_prefix("ycsb-")) {
            Some(letter) => BenchmarkSpec::ycsb(
                db_bench::YcsbMix::from_letter(letter)?,
                scale,
            ),
            None => return Err(format!("unknown workload: {other}").into()),
        },
    };

    let mut model: Box<dyn LanguageModel> = if model_spec == "expert" {
        Box::new(ExpertModel::new(seed, QuirkConfig::default()))
    } else if model_spec == "expert-clean" {
        Box::new(ExpertModel::well_behaved(seed))
    } else if let Some(rest) = model_spec.strip_prefix("http:") {
        let (host, port) = rest
            .rsplit_once(':')
            .ok_or("http model wants http:HOST:PORT")?;
        Box::new(HttpChatModel::new(host, port.parse()?))
    } else {
        return Err(format!("unknown model: {model_spec}").into());
    };

    let env = EnvSpec {
        cores,
        mem_gib,
        device,
    };
    eprintln!(
        "ELMo-Tune: {} on {} with model '{}' ({} iterations, scale {scale})",
        spec.describe(),
        env.describe(),
        model.name(),
        iters
    );
    let report = TuningSession::new(env, spec, model.as_mut())
        .with_config(TuningConfig {
            iterations: iters,
            ..TuningConfig::default()
        })
        .run_offline(Options::default())?;

    println!("{}", report.iteration_series_text());
    println!("Option trajectory:\n{}", report.table5_text());
    println!(
        "Summary: {:.0} -> {:.0} ops/sec ({:.2}x); best iteration {}",
        report.baseline.ops_per_sec,
        report.best.ops_per_sec,
        report.throughput_improvement(),
        report.best_iteration
    );
    if let Some(path) = out {
        std::fs::write(&path, ini::to_ini(&report.final_options))?;
        println!("Tuned configuration written to {path}");
    }
    Ok(())
}
