//! `db_bench` — a CLI mirroring RocksDB's benchmarking tool, running
//! against the simulated `lsm-kvs` engine.
//!
//! ```text
//! db_bench --benchmarks fillrandom --num 1000000 --device nvme \
//!          --cores 4 --mem-gib 4 [--option name=value]...
//! db_bench --ycsb a,b,f --scale 0.01      # YCSB core mixes (or: all)
//! ```
//!
//! With `--real-time`, the run leaves the simulator: the database opens
//! on real files (a temporary directory) with a wall clock, `--threads N`
//! OS threads share it, and latencies are measured with `Instant`.
//!
//! With `--remote host:port`, the benchmark drives a running `kv_server`
//! instead of an in-process engine: each worker thread gets its own TCP
//! connection and measured latencies include the network round trip.
//!
//! With `--cluster host:port,host:port,...`, the benchmark drives a
//! fleet of `kv_server` processes through a range-routing
//! [`ClusterClient`]: split points are derived from the benchmark's key
//! space exactly like `--shards`, so node `i` of `n` serves the `i`-th
//! slice of the key range. A node spec may name a failover replica as
//! `leader~follower`.

#![forbid(unsafe_code)]

use std::sync::Arc;

use db_bench::{
    render_key, run_benchmark, run_benchmark_real, run_crash_loop, BenchmarkSpec, YcsbMix,
};
use hw_sim::{DeviceModel, HardwareEnv};
use lsm_kvs::options::Options;
use lsm_kvs::vfs::{MemVfs, StdVfs, Vfs};
use lsm_kvs::{Db, KvEngine, ShardedDb};
use lsm_server::{ClusterClient, RemoteDb};

/// Opens either a plain [`Db`] (`--shards 1`, the default) or a
/// [`ShardedDb`]. The unsharded path stays exactly the plain
/// `Db::builder` path so single-shard runs are byte-identical.
///
/// Benchmark keys are zero-padded decimal, so the engine's default
/// (uniform binary) split points would route every key to shard 0; the
/// boundaries are derived from the benchmark's own key space instead.
fn open_engine(
    opts: &Options,
    shards: i64,
    env: &HardwareEnv,
    vfs: Arc<dyn Vfs>,
    spec: &BenchmarkSpec,
) -> lsm_kvs::Result<Box<dyn KvEngine>> {
    if shards > 1 {
        let mut sopts = opts.clone();
        sopts.num_shards = shards;
        let mut builder = ShardedDb::builder(sopts).env(env);
        // Only a fresh database gets derived boundaries; an existing one
        // already persisted its partitioning in the SHARDS marker, and
        // the engine adopts that on reopen (this benchmark's key space
        // may differ from the one the database was created with).
        if !vfs.exists("SHARDS") {
            let n = shards as u64;
            let points: Vec<Vec<u8>> = (1..n)
                .map(|i| render_key(i * spec.key_space.max(1) / n, spec.key_size))
                .collect();
            builder = builder.split_points(points);
        }
        Ok(Box::new(builder.vfs(vfs).open()?))
    } else {
        Ok(Box::new(Db::builder(opts.clone()).env(env).vfs(vfs).open()?))
    }
}

fn main() {
    if let Err(e) = run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        eprintln!("db_bench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut benchmarks = vec!["fillrandom".to_string()];
    let mut num: Option<u64> = None;
    let mut device = DeviceModel::nvme_ssd();
    let mut cores = 4usize;
    let mut mem_gib = 8u64;
    let mut scale = 0.01f64;
    let mut opts = Options::default();
    let mut options_file: Option<String> = None;
    let mut real_time = false;
    let mut threads: Option<usize> = None;
    let mut sync: Option<bool> = None;
    let mut db_dir: Option<String> = None;
    let mut crash_loop: Option<u64> = None;
    let mut stats_dump = false;
    let mut shards: i64 = 1;
    let mut remote: Option<String> = None;
    let mut cluster: Option<String> = None;
    let mut multiget_batch: usize = 8;

    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<String, Box<dyn std::error::Error>> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("missing value for {}", args[*i - 1]).into())
        };
        match args[i].as_str() {
            "--benchmarks" => benchmarks = take(&mut i)?.split(',').map(String::from).collect(),
            "--ycsb" => {
                // `--ycsb a,b,f` or `--ycsb all`; sugar for
                // `--benchmarks ycsb_a,ycsb_b,ycsb_f`.
                let list = take(&mut i)?;
                benchmarks = if list.trim().eq_ignore_ascii_case("all") {
                    YcsbMix::ALL.iter().map(|m| format!("ycsb_{}", m.letter())).collect()
                } else {
                    list.split(',')
                        .map(|s| Ok(format!("ycsb_{}", YcsbMix::from_letter(s)?.letter())))
                        .collect::<Result<_, String>>()?
                };
            }
            "--num" => num = Some(take(&mut i)?.parse()?),
            "--scale" => scale = take(&mut i)?.parse()?,
            "--cores" => cores = take(&mut i)?.parse()?,
            "--mem-gib" => mem_gib = take(&mut i)?.parse()?,
            "--device" => {
                device = match take(&mut i)?.as_str() {
                    "nvme" | "nvme_ssd" => DeviceModel::nvme_ssd(),
                    "sata_ssd" | "ssd" => DeviceModel::sata_ssd(),
                    "hdd" | "sata_hdd" => DeviceModel::sata_hdd(),
                    other => return Err(format!("unknown device: {other}").into()),
                }
            }
            "--option" => {
                let kv = take(&mut i)?;
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("--option wants name=value, got {kv}"))?;
                opts.set_by_name(k, v)?;
            }
            "--options-file" => options_file = Some(take(&mut i)?),
            "--real-time" => real_time = true,
            "--threads" => threads = Some(take(&mut i)?.parse()?),
            "--sync" => sync = Some(take(&mut i)?.parse()?),
            "--db" => db_dir = Some(take(&mut i)?),
            "--crash-loop" => crash_loop = Some(take(&mut i)?.parse()?),
            "--stats_dump" | "--stats-dump" => stats_dump = true,
            "--shards" => shards = take(&mut i)?.parse()?,
            "--remote" => remote = Some(take(&mut i)?),
            "--cluster" => cluster = Some(take(&mut i)?),
            "--multiget_batch" | "--multiget-batch" => {
                multiget_batch = take(&mut i)?.parse()?;
                if multiget_batch == 0 {
                    return Err("--multiget_batch wants a value >= 1".into());
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: db_bench [--benchmarks list] [--ycsb a,b,..|all] \
                     [--num N | --scale F] [--cores N] \
                     [--mem-gib N] [--device nvme|ssd|hdd] [--option k=v]... [--options-file f] \
                     [--stats_dump] [--shards N] [--multiget_batch N] \
                     [--real-time [--threads N] [--sync true|false] [--db dir]] \
                     [--remote host:port [--threads N] [--sync true|false]] \
                     [--cluster addr[~replica],addr,... [--threads N] [--sync true|false]] \
                     [--crash-loop N [--db dir]]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown flag: {other}").into()),
        }
        i += 1;
    }
    if let Some(path) = options_file {
        let text = std::fs::read_to_string(path)?;
        let outcome = lsm_kvs::options::ini::apply_ini(&mut opts, &text);
        for (k, v, why) in &outcome.rejected {
            eprintln!("options-file: ignored {k}={v}: {why}");
        }
    }

    if let Some(cycles) = crash_loop {
        let n_threads = threads.unwrap_or(2);
        eprintln!(
            "running crash loop: {cycles} cycle(s), {n_threads} thread(s), dir={} ...",
            db_dir.as_deref().unwrap_or("<memory>")
        );
        let outcome =
            run_crash_loop(&opts, cycles, db_dir.as_deref(), n_threads, 0x5EED_CA5E)?;
        println!("{}", outcome.to_text());
        return Ok(());
    }

    for name in &benchmarks {
        let mut spec = match name.as_str() {
            "fillrandom" => BenchmarkSpec::fillrandom(scale),
            "readrandom" => BenchmarkSpec::readrandom(scale),
            "multireadrandom" => BenchmarkSpec::multireadrandom(scale, multiget_batch),
            "readrandomwriterandom" => BenchmarkSpec::readrandomwriterandom(scale),
            "mixgraph" => BenchmarkSpec::mixgraph(scale),
            other => match other.strip_prefix("ycsb_").or_else(|| other.strip_prefix("ycsb-")) {
                Some(letter) => BenchmarkSpec::ycsb(YcsbMix::from_letter(letter)?, scale),
                None => return Err(format!("unknown benchmark: {other}").into()),
            },
        };
        if let Some(n) = num {
            let ratio = n as f64 / spec.num_ops as f64;
            spec.num_ops = n;
            spec.key_space = ((spec.key_space as f64 * ratio) as u64).max(1_000);
            if spec.preload_keys > 0 {
                spec.preload_keys = ((spec.preload_keys as f64 * ratio) as u64).max(1_000);
            }
        }
        if let Some(spec_str) = &cluster {
            // Cluster runs are wall-clock like --remote. Split points
            // come from the benchmark's own key space, the same formula
            // the sharded engine path uses, so routing matches how the
            // fleet was loaded.
            let n_threads = threads.unwrap_or(1);
            if let Some(n) = threads {
                spec.num_threads = n;
            }
            let sync = sync.unwrap_or(true);
            let n_nodes = spec_str.split(',').filter(|p| !p.is_empty()).count() as u64;
            let points: Vec<Vec<u8>> = (1..n_nodes)
                .map(|i| render_key(i * spec.key_space.max(1) / n_nodes, spec.key_size))
                .collect();
            let db = ClusterClient::connect(spec_str, points)?;
            eprintln!(
                "running {name} against cluster [{spec_str}]: {n_threads} thread(s), \
                 sync={sync} ..."
            );
            let report = run_benchmark_real(&db, &spec, n_threads, sync)?;
            println!("{}", report.to_db_bench_text());
            if stats_dump {
                println!("{}", db.stats_text());
            }
        } else if let Some(addr) = &remote {
            // Remote runs are always wall-clock: the server is a separate
            // process, so there is no simulator to consult. Each worker
            // thread checks a dedicated connection out of the client pool.
            let n_threads = threads.unwrap_or(1);
            if let Some(n) = threads {
                spec.num_threads = n;
            }
            let sync = sync.unwrap_or(true);
            let db = RemoteDb::connect(addr)?;
            eprintln!(
                "running {name} against {addr}: {n_threads} thread(s), sync={sync} ..."
            );
            let report = run_benchmark_real(&db, &spec, n_threads, sync)?;
            println!("{}", report.to_db_bench_text());
            if stats_dump {
                // The Stats RPC returns the server's dump (engine stats
                // plus the serving-layer section).
                println!("{}", db.stats_text());
            }
        } else if real_time {
            let n_threads = threads.unwrap_or(1);
            if let Some(n) = threads {
                spec.num_threads = n;
            }
            // Durable writes are the default in real-time mode: unsynced
            // single-op writes mostly measure memcpy speed, while synced
            // writes exercise the group-commit path this mode exists for.
            let sync = sync.unwrap_or(true);
            let env = HardwareEnv::builder()
                .cores(cores)
                .memory_gib(mem_gib)
                .device(device.clone())
                .build_wall();
            let (dir, ephemeral) = match &db_dir {
                Some(d) => (d.clone(), false),
                None => {
                    let d = std::env::temp_dir()
                        .join(format!("db_bench-{name}-{}", std::process::id()));
                    (d.to_string_lossy().into_owned(), true)
                }
            };
            let db = open_engine(&opts, shards, &env, Arc::new(StdVfs::new(&dir)?), &spec)?;
            eprintln!(
                "running {name} for real: {n_threads} thread(s), sync={sync}, \
                 shards={shards}, dir={dir} ..."
            );
            let report = run_benchmark_real(&*db, &spec, n_threads, sync)?;
            // Captured before close: the dump reads engine state.
            let dump = stats_dump.then(|| db.stats_text());
            drop(db);
            if ephemeral {
                let _ = std::fs::remove_dir_all(&dir);
            }
            println!("{}", report.to_db_bench_text());
            if let Some(d) = dump {
                println!("{d}");
            }
        } else {
            let env = HardwareEnv::builder()
                .cores(cores)
                .memory_gib(mem_gib)
                .device(device.clone())
                .build_sim();
            let db = open_engine(&opts, shards, &env, Arc::new(MemVfs::new()), &spec)?;
            eprintln!("running {name} on {} ...", env.description());
            let report = run_benchmark(&*db, &env, &spec, None)?;
            println!("{}", report.to_db_bench_text());
            if stats_dump {
                println!("{}", db.stats_text());
            }
        }
    }
    Ok(())
}
