//! `serve_mixed`: an in-process `serve()` over a `Db` whose hot set fits
//! memtable plus block cache, driven over loopback TCP by one `RemoteDb`
//! shared by two client threads (two pooled connections): half `Get`s,
//! half unsynced `Put`s, zipfian 0.99.
//!
//! `server::protocol`, `server::server` and `server::client` do most of
//! the work and the engine little. It is also the "same layer, used
//! differently" workload: reads beside writes on a hot set, so an engine
//! read-path gain paid for by writes, or the reverse, shows here.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use lsm_kvs::options::Options;
use lsm_kvs::{KvEngine, Ticker};
use lsm_server::{serve, RemoteDb, ServerHandle};

use super::{
    client_tails, closed_loop, engine_layer_metrics, median_setup, open_store, pct_us, space_amp,
    write_amp, Ctx, Error, Outcome, Store, CLIENTS,
};
use crate::gen::{self, Rng, Zipf};
use crate::trace::Kind;
use crate::{host, ladder};

/// Preloaded records at the reference run length: 11.6 MB of user data
/// under a 64 MiB block cache.
const BASE_RECORDS: u64 = 100_000;
/// Operations at the reference run length.
const BASE_OPS: u64 = 250_000;
const SETUP_ROUNDS: usize = 3;
const ZIPF_THETA: f64 = 0.99;

fn options() -> Options {
    Options {
        block_cache_size: 64 << 20,
        ..Options::default()
    }
}

struct Served {
    client: RemoteDb,
    server: ServerHandle,
    store: Store,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, Error> {
    let mut out = Outcome::default();
    let ops = ctx.ops(BASE_OPS, 6_000);
    let records = ctx.ops(BASE_RECORDS, 10_000);
    let dir = ctx.dir.join("db");

    // Set-up: preload in process, flush so the records sit in SSTs, read
    // each once so the block cache is warm, then serve and connect.
    let (served, setup_s) = median_setup(
        SETUP_ROUNDS,
        |_| {
            std::fs::create_dir_all(&dir)?;
            let store = open_store(ctx.tracer.as_ref(), &dir, options(), None)?;
            for id in gen::permutation(records, ctx.seed) {
                let id = u64::from(id);
                store.db.put(&gen::key(id), &gen::value(id, ctx.seed))?;
            }
            store.db.flush()?;
            store.db.wait_background_idle()?;
            for id in 0..records {
                store.db.get(&gen::key(id))?;
            }
            let server = serve(Arc::clone(&store.engine), "127.0.0.1:0")?;
            let client = RemoteDb::connect(&server.local_addr().to_string())?;
            Ok(Served {
                client,
                server,
                store,
            })
        },
        |served| {
            drop(served);
            std::fs::remove_dir_all(&dir).expect("remove set-up directory");
        },
    )?;
    let Served {
        client,
        mut server,
        store,
    } = served;
    let before = store.db.stats();

    if let Some(t) = &ctx.tracer {
        t.enable();
    }
    let zipf = Zipf::new(records, ZIPF_THETA);
    let phase = closed_loop(ctx.tracer.as_ref(), |t, log| {
        let mut rng = Rng::new(gen::mix(ctx.seed ^ t as u64));
        for _ in 0..ops / CLIENTS as u64 {
            let id = zipf.sample(&mut rng);
            let key = gen::key(id);
            // Every Put rewrites the value the key already has, so a Get
            // racing it is still verifiable.
            if rng.next_u64().is_multiple_of(2) {
                let want = ctx.expected(id);
                log.read(
                    &key,
                    || matches!(client.get(&key), Ok(Some(v)) if v == want),
                );
            } else {
                let value = gen::value(id, ctx.seed);
                log.write(&key, || client.put(&key, &value).is_ok());
            }
        }
    });
    let peak_rss_mb = host::peak_rss_mib();
    let after = store.db.stats();
    let measured = after.tickers.delta_since(&before.tickers);

    out.attempted = phase.ops();
    out.failed = phase.failed();
    out.note("mixed", phase.slowdown);
    let (reads, writes) = (phase.reads_sorted(), phase.writes_sorted());
    out.check(
        "serve_mixed: enough samples for a p99",
        pct_us(&reads, 99.0) > 0.0 && pct_us(&writes, 99.0) > 0.0,
    );

    drop(client);
    server.shutdown();
    let errors = server.stats().requests_err.load(Ordering::Relaxed);
    out.check(
        format!("serve_mixed: the server answered no request with an error (saw {errors})"),
        errors == 0,
    );

    // Bytes on disk are read after a flush, so they cover the Puts too.
    store.db.flush()?;
    store.db.wait_background_idle()?;
    let settled = store.db.stats();

    match &ctx.tracer {
        None => {
            out.metric("setup_s", setup_s);
            out.metric("ops_per_s", phase.ops_per_s());
            out.metric("read_p50_us", phase.read_p50_us());
            out.metric("write_p50_us", phase.write_p50_us());
            out.metric("cpu_us_per_op", phase.cpu_us_per_op());
            out.metric("write_amp", write_amp(&settled.tickers));
            out.metric("space_amp", space_amp(&settled, records));
            out.metric("peak_rss_mb", peak_rss_mb);
        }
        Some(tracer) => {
            let report = tracer.report();
            engine_layer_metrics(
                &mut out,
                &store,
                &settled.tickers,
                &measured,
                &phase,
                &report,
            );
            client_tails(&mut out, &reads, &writes);
            // The RPC tax is measured directly: what the client waited
            // minus what the engine took inside the server, same run.
            let get_tax = report.kind(Kind::ClientRead).total.percentile_us(50.0)
                - report.kind(Kind::DbGet).total.percentile_us(50.0);
            let put_tax = report.kind(Kind::ClientWrite).total.percentile_us(50.0)
                - report.kind(Kind::DbWrite).total.percentile_us(50.0);
            out.metric("rpc.get_tax_us", get_tax);
            out.metric("rpc.put_tax_us", put_tax);
            let s = server.stats();
            out.metric(
                "server.requests_ok",
                s.requests_ok.load(Ordering::Relaxed) as f64,
            );
            out.metric("server.requests_err", errors as f64);
            out.metric(
                "server.bytes_in",
                s.bytes_received.load(Ordering::Relaxed) as f64,
            );
            out.metric(
                "server.bytes_out",
                s.bytes_sent.load(Ordering::Relaxed) as f64,
            );
            out.metric(
                "server.backpressure_stalls",
                s.backpressure_stalls.load(Ordering::Relaxed) as f64,
            );

            // The traffic is what the workload claims.
            let (mem_hit, mem_miss) = (
                measured.get(Ticker::MemtableHit),
                measured.get(Ticker::MemtableMiss),
            );
            let (hits, misses) = (
                measured.get(Ticker::BlockCacheHit),
                measured.get(Ticker::BlockCacheMiss),
            );
            let mem_ratio = mem_hit as f64 / (mem_hit + mem_miss).max(1) as f64;
            let block_ratio = if hits + misses == 0 {
                1.0
            } else {
                hits as f64 / (hits + misses) as f64
            };
            let coverage = mem_ratio + (1.0 - mem_ratio) * block_ratio;
            out.check(format!("serve_mixed: memtable + block cache serve over 0.95 of reads (was {coverage:.3})"), coverage > 0.95);
            let engine_get = report.kind(Kind::DbGet).self_time.percentile_us(50.0);
            out.check(
                format!("serve_mixed: the RPC costs more than the engine (get tax {get_tax:.1} us vs engine {engine_get:.1} us)"),
                get_tax > engine_get,
            );
            out.trace = Some(report);
            ladder::protocol(&mut out, ctx)?;
            ladder::ping_rtt(&mut out, ctx)?;
            ladder::shard_tax(&mut out, ctx)?;
        }
    }
    Ok(out)
}
