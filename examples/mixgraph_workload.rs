//! Running the Facebook-style `mixgraph` workload directly.
//!
//! Demonstrates the `db-bench` crate as a standalone benchmarking tool:
//! preload, run the skewed production model, and print the db_bench-style
//! report — the exact text the tuning framework's Benchmark Parser reads.
//!
//! ```text
//! cargo run --release --example mixgraph_workload
//! ```

use elmo::db_bench::{run_benchmark, BenchmarkSpec, MonitorControl};
use elmo::hw_sim::{DeviceModel, HardwareEnv};
use elmo::lsm_kvs::{options::Options, Db};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = HardwareEnv::builder()
        .cores(4)
        .memory_gib(4)
        .device(DeviceModel::nvme_ssd())
        .build_sim();
    let db = Db::builder(Options::default()).env(&env).open()?;

    // 1% of the paper's 25M mixgraph ops (50% reads / 50% writes,
    // power-law key popularity, Pareto value sizes, sine QPS).
    let spec = BenchmarkSpec::mixgraph(0.01);
    println!("workload: {}\n", spec.describe());

    // Stream monitor samples like the framework's benchmark monitor does.
    let mut cb = |s: &elmo::db_bench::MonitorSample| {
        println!(
            "  t={:6.1}s  {:>9.0} ops/s",
            s.at_secs, s.interval_ops_per_sec
        );
        MonitorControl::Continue
    };
    let report = run_benchmark(&db, &env, &spec, Some(&mut cb))?;

    println!("\n{}", report.to_db_bench_text());
    println!(
        "cache hit ratio {:.1}%, stalls {:.3}s",
        report.cache_hit_ratio() * 100.0,
        report.stall_seconds()
    );
    Ok(())
}
