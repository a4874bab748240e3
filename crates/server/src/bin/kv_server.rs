//! `kv_server` — serve an `lsm-kvs` database over TCP.
//!
//! ```text
//! kv_server --db /path/to/db [--listen 127.0.0.1:7379] [--shards N]
//!           [--cores N] [--mem-gib N] [--option name=value]...
//!           [--options-file FILE] [--load-options-file]
//!           [--split-point KEY]...
//!           [--replica-listen ADDR]   # accept WAL-shipping followers
//!           [--follower-of ADDR]      # start as a read-only follower
//! kv_server --shutdown host:port    # ask a running server to drain and exit
//! kv_server --set-remote host:port --option name=value...
//!                                   # retune a running server, no reopen
//! kv_server --get-remote host:port  # dump a running server's config
//! kv_server --checkpoint-remote host:port --checkpoint-dir DIR
//!                                   # online checkpoint into DIR on the
//!                                   # server's storage (restore by
//!                                   # pointing --db at it)
//! ```
//!
//! Replication pairs a leader (`--replica-listen`, the port followers
//! dial) with followers (`--follower-of LEADER_REPLICA_ADDR`). A
//! follower serves reads on its client port at its applied sequence and
//! rejects writes until a Promote RPC (sent by a failing-over
//! `ClusterClient`, or manually) flips it to leader. Both flags require
//! `--shards 1`: replication streams one WAL.
//!
//! The database opens in real-concurrency mode (wall clock, OS threads)
//! on real files. The process runs until a Shutdown RPC arrives
//! (`kv_server --shutdown`), then drains in-flight requests, closes the
//! engine, and exits.
//!
//! `--set-remote` applies the given `--option` pairs through the
//! SetOptions RPC (all-or-nothing, `mutable_online` options only) and
//! prints the server's effective configuration afterwards. With
//! `--load-options-file`, a restarted server resumes the tuned
//! configuration persisted in the database's `OPTIONS` file instead of
//! the command-line defaults.

#![forbid(unsafe_code)]

use std::sync::Arc;

use hw_sim::HardwareEnv;
use lsm_kvs::options::Options;
use lsm_kvs::vfs::StdVfs;
use lsm_kvs::{Db, KvEngine, ShardedDb};
use lsm_server::{
    prepare_follower_storage, serve_replicas, serve_with_role, start_follower, RemoteDb,
    ReplicationHub, ServerRole,
};

fn main() {
    if let Err(e) = run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        eprintln!("kv_server: {e}");
        std::process::exit(1);
    }
}

fn run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut listen = "127.0.0.1:7379".to_string();
    let mut db_dir: Option<String> = None;
    let mut shards: i64 = 1;
    let mut cores = 4usize;
    let mut mem_gib = 8u64;
    let mut option_args: Vec<(String, String)> = Vec::new();
    let mut options_file: Option<String> = None;
    let mut load_opts_file = false;
    let mut split_points: Vec<Vec<u8>> = Vec::new();
    let mut shutdown_addr: Option<String> = None;
    let mut set_remote: Option<String> = None;
    let mut get_remote: Option<String> = None;
    let mut checkpoint_remote: Option<String> = None;
    let mut checkpoint_dir: Option<String> = None;
    let mut replica_listen: Option<String> = None;
    let mut follower_of: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<String, Box<dyn std::error::Error>> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("missing value for {}", args[*i - 1]).into())
        };
        match args[i].as_str() {
            "--listen" => listen = take(&mut i)?,
            "--db" => db_dir = Some(take(&mut i)?),
            "--shards" => shards = take(&mut i)?.parse()?,
            "--cores" => cores = take(&mut i)?.parse()?,
            "--mem-gib" => mem_gib = take(&mut i)?.parse()?,
            "--option" => {
                let kv = take(&mut i)?;
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("--option wants name=value, got {kv}"))?;
                option_args.push((k.to_string(), v.to_string()));
            }
            "--options-file" => options_file = Some(take(&mut i)?),
            "--load-options-file" => load_opts_file = true,
            "--split-point" => split_points.push(take(&mut i)?.into_bytes()),
            "--shutdown" => shutdown_addr = Some(take(&mut i)?),
            "--set-remote" => set_remote = Some(take(&mut i)?),
            "--get-remote" => get_remote = Some(take(&mut i)?),
            "--checkpoint-remote" => checkpoint_remote = Some(take(&mut i)?),
            "--checkpoint-dir" => checkpoint_dir = Some(take(&mut i)?),
            "--replica-listen" => replica_listen = Some(take(&mut i)?),
            "--follower-of" => follower_of = Some(take(&mut i)?),
            "--help" | "-h" => {
                println!(
                    "usage: kv_server --db DIR [--listen ADDR] [--shards N] [--cores N] \
                     [--mem-gib N] [--option k=v]... [--options-file f] \
                     [--load-options-file] [--split-point KEY]... \
                     [--replica-listen ADDR] [--follower-of ADDR]\n       \
                     kv_server --shutdown ADDR\n       \
                     kv_server --set-remote ADDR --option k=v...\n       \
                     kv_server --get-remote ADDR\n       \
                     kv_server --checkpoint-remote ADDR --checkpoint-dir DIR"
                );
                return Ok(());
            }
            other => return Err(format!("unknown flag: {other}").into()),
        }
        i += 1;
    }

    if let Some(addr) = shutdown_addr {
        let client = RemoteDb::connect(&addr)?;
        client.shutdown_server()?;
        eprintln!("kv_server at {addr} acknowledged shutdown");
        return Ok(());
    }

    if let Some(addr) = set_remote {
        if option_args.is_empty() {
            return Err("--set-remote needs at least one --option name=value".into());
        }
        let client = RemoteDb::connect(&addr)?;
        client.set_options(&option_args)?;
        eprintln!("kv_server at {addr} applied {} option change(s)", option_args.len());
        print!("{}", client.options_ini()?);
        return Ok(());
    }

    if let Some(addr) = get_remote {
        let client = RemoteDb::connect(&addr)?;
        print!("{}", client.options_ini()?);
        return Ok(());
    }

    if let Some(addr) = checkpoint_remote {
        let dir = checkpoint_dir
            .ok_or("--checkpoint-remote needs --checkpoint-dir DIR (relative to the server's store)")?;
        let client = RemoteDb::connect(&addr)?;
        client.checkpoint(&dir)?;
        eprintln!("kv_server at {addr} checkpointed into {dir}/ on its storage");
        return Ok(());
    }

    let mut opts = Options::default();
    for (k, v) in &option_args {
        opts.set_by_name(k, v)?;
    }
    if let Some(path) = options_file {
        let text = std::fs::read_to_string(path)?;
        let outcome = lsm_kvs::options::ini::apply_ini(&mut opts, &text);
        for (k, v, why) in &outcome.rejected {
            eprintln!("options-file: ignored {k}={v}: {why}");
        }
    }

    if (replica_listen.is_some() || follower_of.is_some()) && shards > 1 {
        return Err("--replica-listen/--follower-of require --shards 1 \
                    (replication streams one WAL)"
            .into());
    }

    let dir = db_dir.ok_or("--db DIR is required (use --help)")?;
    let env = HardwareEnv::builder()
        .cores(cores)
        .memory_gib(mem_gib)
        .device(hw_sim::DeviceModel::nvme_ssd())
        .build_wall();
    let vfs = Arc::new(StdVfs::new(&dir)?);
    if follower_of.is_some() && prepare_follower_storage(vfs.as_ref())? {
        eprintln!(
            "kv_server: wiped partially-bootstrapped follower state in {dir}; \
             re-bootstrapping from empty"
        );
    }

    // Held for the life of the process; dropped (= torn down) at exit.
    let mut replica_listener = None;
    let mut follower = None;

    let (engine, role): (Arc<dyn KvEngine>, Arc<ServerRole>) = if shards > 1 {
        let mut sopts = opts;
        sopts.num_shards = shards;
        let mut builder = ShardedDb::builder(sopts).env(&env).load_options_file(load_opts_file);
        if !split_points.is_empty() {
            builder = builder.split_points(split_points);
        }
        (Arc::new(builder.vfs(vfs).open()?), ServerRole::leader())
    } else {
        let mut builder =
            Db::builder(opts).env(&env).vfs(vfs).load_options_file(load_opts_file);
        let hub = replica_listen.as_ref().map(|_| Arc::new(ReplicationHub::new()));
        if let Some(hub) = &hub {
            builder = builder.wal_sink(Arc::clone(hub) as Arc<dyn lsm_kvs::WalSink>);
        }
        let db = Arc::new(builder.open()?);
        if let (Some(hub), Some(addr)) = (hub, &replica_listen) {
            let h = serve_replicas(hub, Arc::clone(&db), addr)?;
            eprintln!("kv_server replica port on {}", h.local_addr());
            replica_listener = Some(h);
        }
        let role = if let Some(leader) = &follower_of {
            let fh = Arc::new(start_follower(Arc::clone(&db), leader.clone()));
            let hook = Arc::clone(&fh);
            follower = Some(fh);
            eprintln!("kv_server following {leader} (read-only until promoted)");
            // Joining inside the hook means Promote's Ok is not written
            // until no stale replicated group can apply anymore.
            ServerRole::follower(move || hook.stop_and_join())
        } else {
            ServerRole::leader()
        };
        (db as Arc<dyn KvEngine>, role)
    };

    let mut handle = serve_with_role(engine, &listen, role)?;
    eprintln!(
        "kv_server listening on {} (db={dir}, shards={shards}); \
         stop with: kv_server --shutdown {}",
        handle.local_addr(),
        handle.local_addr()
    );
    let mut follower_failed = false;
    while !handle.is_shutting_down() {
        if let Some(fh) = &follower {
            if fh.status().failed.load(std::sync::atomic::Ordering::SeqCst) {
                // Bootstrap interrupted or hello rejected: the local
                // state is marked for a wipe and cannot follow the
                // leader. Exit non-zero so a supervisor restart runs
                // the wipe and re-bootstraps from empty.
                follower_failed = true;
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("kv_server: shutdown requested, draining...");
    handle.shutdown();
    drop(follower);
    drop(replica_listener);
    eprintln!("kv_server: drained; {}", handle.stats().render().trim_start());
    if follower_failed {
        return Err("follower state diverged from leader; wiped for \
                    re-bootstrap — restart this server"
            .into());
    }
    Ok(())
}
