//! `cluster_write`: synced `Put`s through a `ClusterClient` to an
//! in-process leader that ships its WAL to an in-process follower; an
//! acknowledgement means leader fsync *and* follower apply.
//!
//! `server::repl` and the synced group-commit path do most of the work:
//! this is the only workload where fsync count, group size and the
//! follower round trip set the result. Each client reads back the key it
//! wrote one step earlier, from the leader, beside the writes. Its teardown — stop the leader,
//! let the client promote the follower, read every acknowledged key back
//! — is the zero-acked-loss check.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lsm_kvs::options::Options;
use lsm_kvs::{Db, KvEngine, Ticker, WalSink, WriteBatch, WriteOptions};
use lsm_server::{
    serve, serve_replicas, serve_with_role, start_follower, ClusterClient, FollowerHandle,
    ReplicaListenerHandle, ReplicationHub, ServerHandle, ServerRole,
};

use super::{
    client_tails, closed_loop, engine_layer_metrics, median_setup, open_store, pct_us, read_back,
    space_amp, write_amp, Ctx, Error, Outcome, Phase, Store, CLIENTS,
};
use crate::{gen, host, ladder};

/// Synced Puts at the reference run length.
const BASE_PUTS: u64 = 20_000;
/// Puts of the traced run's control phase, before any follower attaches.
const CONTROL_PUTS: u64 = 2_500;
const SETUP_ROUNDS: usize = 5;
const WAIT: Duration = Duration::from_secs(20);

struct Leader {
    server: ServerHandle,
    replicas: ReplicaListenerHandle,
    hub: Arc<ReplicationHub>,
    store: Store,
}

struct Follower {
    server: ServerHandle,
    tail: Arc<FollowerHandle>,
    db: Arc<Db>,
}

struct Cluster {
    client: ClusterClient,
    leader: Leader,
    follower: Follower,
}

fn start_leader(ctx: &Ctx) -> Result<Leader, Error> {
    let dir = ctx.dir.join("leader");
    std::fs::create_dir_all(&dir)?;
    let hub = Arc::new(ReplicationHub::new());
    let sink = Arc::clone(&hub) as Arc<dyn WalSink>;
    let store = open_store(ctx.tracer.as_ref(), &dir, Options::default(), Some(sink))?;
    let replicas = serve_replicas(Arc::clone(&hub), Arc::clone(&store.db), "127.0.0.1:0")?;
    let server = serve(Arc::clone(&store.engine), "127.0.0.1:0")?;
    Ok(Leader {
        server,
        replicas,
        hub,
        store,
    })
}

/// Starts a follower of `leader` and waits until it has caught up; the
/// returned duration is the catch-up time.
fn start_follower_of(ctx: &Ctx, leader: &Leader) -> Result<(Follower, Duration), Error> {
    let dir = ctx.dir.join("follower");
    std::fs::create_dir_all(&dir)?;
    // The follower's engine is never traced: its writes would be counted
    // as the leader's.
    let store = open_store(None, &dir, Options::default(), None)?;
    let start = Instant::now();
    let tail = Arc::new(start_follower(
        Arc::clone(&store.db),
        leader.replicas.local_addr().to_string(),
    ));
    let hook = Arc::clone(&tail);
    let role = ServerRole::follower(move || hook.stop_and_join());
    let server = serve_with_role(Arc::clone(&store.engine), "127.0.0.1:0", role)?;
    let target = leader.store.db.snapshot_seq();
    wait_until(|| leader.hub.live_followers() == 1 && store.db.snapshot_seq() >= target)?;
    Ok((
        Follower {
            server,
            tail,
            db: store.db,
        },
        start.elapsed(),
    ))
}

fn wait_until(mut cond: impl FnMut() -> bool) -> Result<(), Error> {
    let deadline = Instant::now() + WAIT;
    while !cond() {
        if Instant::now() > deadline {
            return Err("cluster_write: timed out waiting for the follower".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

fn synced_put(engine: &dyn KvEngine, id: u64, seed: u64) -> bool {
    let mut batch = WriteBatch::new();
    batch.put(&gen::key(id), &gen::value(id, seed));
    engine.write_opt(&WriteOptions::synced(), batch).is_ok()
}

/// Synced Puts of ids `from..from + n` through `engine`, split over the
/// client threads. Each client follows a Put with a Get of the key it put
/// one step earlier: an acknowledged write must be readable, and a read
/// issued while the node is busy replicating is the read a user of the
/// cluster gets (on an otherwise idle virtual machine a lone RPC mostly
/// measures how the hypervisor wakes a halted processor).
fn put_range(ctx: &Ctx, engine: &dyn KvEngine, from: u64, n: u64) -> Phase {
    // Before the tracer is enabled (the control phase) its spans are inert.
    closed_loop(ctx.tracer.as_ref(), |t, log| {
        let mut previous = None;
        for id in (from..from + n).skip(t).step_by(CLIENTS) {
            log.write(&gen::key(id), || synced_put(engine, id, ctx.seed));
            if let Some(id) = previous.replace(id) {
                let (key, want) = (gen::key(id), ctx.expected(id));
                log.read(
                    &key,
                    || matches!(engine.get(&key), Ok(Some(v)) if v == want),
                );
            }
        }
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, Error> {
    let mut out = Outcome::default();
    let puts = ctx.ops(BASE_PUTS, 2_400);
    let control_puts = ctx.ops(CONTROL_PUTS, 2_400);

    // Set-up: leader (engine with a replication hub, replica port, client
    // port), follower (engine, tail, read-only client port), and a
    // cluster client that knows both.
    let (cluster, setup_s) = median_setup(
        SETUP_ROUNDS,
        |round| {
            let leader = start_leader(ctx)?;
            let mut control = None;
            if ctx.tracer.is_some() && round + 1 == SETUP_ROUNDS {
                // Control phase of the traced run: the same synced Puts
                // with no follower attached, in the same process, so the
                // replication tax is a difference within one run.
                let solo =
                    ClusterClient::connect(&leader.server.local_addr().to_string(), Vec::new())?;
                control = Some(put_range(ctx, &solo, puts, control_puts));
            }
            let (follower, catchup) = start_follower_of(ctx, &leader)?;
            let spec = format!(
                "{}~{}",
                leader.server.local_addr(),
                follower.server.local_addr()
            );
            let client = ClusterClient::connect(&spec, Vec::new())?;
            Ok((
                Cluster {
                    client,
                    leader,
                    follower,
                },
                control,
                catchup,
            ))
        },
        |(cluster, _, _)| {
            drop(cluster);
            std::fs::remove_dir_all(&ctx.dir).expect("remove set-up directories");
        },
    )?;
    let (
        Cluster {
            client,
            leader,
            follower,
        },
        control,
        catchup,
    ) = cluster;
    let before = leader.store.db.stats();

    if let Some(t) = &ctx.tracer {
        t.enable();
    }
    // The traced run samples how far the follower trails the leader.
    let sampling = AtomicBool::new(ctx.tracer.is_some());
    let lag_max = AtomicU64::new(0);
    let phase = std::thread::scope(|scope| {
        scope.spawn(|| {
            while sampling.load(Ordering::Relaxed) {
                // The follower applies through its own write path in
                // sequence lockstep, so its sequence is what it has applied.
                let lead = leader.store.db.snapshot_seq();
                lag_max.fetch_max(
                    lead.saturating_sub(follower.db.snapshot_seq()),
                    Ordering::Relaxed,
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let phase = put_range(ctx, &client, 0, puts);
        sampling.store(false, Ordering::Relaxed);
        phase
    });
    let peak_rss_mb = host::peak_rss_mib();
    let after = leader.store.db.stats();
    let measured = after.tickers.delta_since(&before.tickers);

    out.attempted = phase.ops();
    out.failed = phase.failed();
    out.note("puts", phase.slowdown);
    let (reads, writes) = (phase.reads_sorted(), phase.writes_sorted());
    out.check(
        "cluster_write: enough samples for a p99",
        pct_us(&reads, 99.0) > 0.0 && pct_us(&writes, 99.0) > 0.0,
    );
    let acked: Vec<u32> = (0..puts as u32).collect();

    leader.store.db.flush()?;
    leader.store.db.wait_background_idle()?;
    let settled = leader.store.db.stats();
    let report = ctx.tracer.as_ref().map(|t| t.report());
    if let Some(report) = &report {
        engine_layer_metrics(
            &mut out,
            &leader.store,
            &settled.tickers,
            &measured,
            &phase,
            report,
        );
    }

    // Teardown is the check: stop the leader, and the first read's
    // transport error makes the client promote the follower; every
    // acknowledged key must then be readable from it.
    let Leader {
        server,
        replicas,
        hub,
        store,
    } = leader;
    let stopped = Instant::now();
    drop(server);
    drop(replicas);
    drop(store);
    drop(hub);
    let first = gen::key(0);
    let first_ok = matches!(client.get(&first), Ok(Some(v)) if v == ctx.expected(0));
    let failover = stopped.elapsed();
    out.check(
        "cluster_write: the first read after the leader stopped is served by the promoted follower",
        first_ok,
    );
    let readback = read_back(ctx, &client, &acked);
    out.attempted += readback.ops();
    out.failed += readback.failed();
    let follower_errors = follower.tail.status().errors.load(Ordering::Relaxed);
    out.check(
        format!("cluster_write: the follower's stream saw no error (saw {follower_errors})"),
        follower_errors == 0,
    );
    drop(client);
    drop(follower);

    match report {
        None => {
            out.metric("setup_s", setup_s);
            out.metric("ops_per_s", phase.ops_per_s());
            out.metric("read_p50_us", phase.read_p50_us());
            out.metric("write_p50_us", phase.write_p50_us());
            out.metric("cpu_us_per_op", phase.cpu_us_per_op());
            out.metric("write_amp", write_amp(&settled.tickers));
            out.metric("space_amp", space_amp(&settled, puts));
            out.metric("peak_rss_mb", peak_rss_mb);
        }
        Some(report) => {
            client_tails(&mut out, &reads, &writes);
            let control = control.expect("the traced run has a control phase");
            out.attempted += control.ops();
            out.failed += control.failed();
            let tax = pct_us(&writes, 50.0) - pct_us(&control.writes_sorted(), 50.0);
            out.metric("repl.tax_us", tax);
            out.metric("repl.lag_seq_max", lag_max.load(Ordering::Relaxed) as f64);
            out.metric("repl.catchup_s", catchup.as_secs_f64());
            out.metric("repl.failover_s", failover.as_secs_f64());
            // The traffic is what the workload claims.
            let syncs = measured.get(Ticker::WalSyncs);
            out.check(
                format!("cluster_write: the WAL is synced (saw {syncs} syncs)"),
                syncs > 0,
            );
            out.check(
                format!("cluster_write: replication costs something (tax {tax:.1} us)"),
                tax > 0.0,
            );
            out.trace = Some(report);
            ladder::vfs_fsync(&mut out, ctx)?;
        }
    }
    Ok(out)
}
