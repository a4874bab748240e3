//! `read_cold`: uniform `Get`s over a tree about eight times the block
//! cache, a fifth of them for keys that were never written.
//!
//! `sstable` (index, bloom, block decode), `cache` and `vfs` preads do
//! most of the work; memtable, WAL, flush and compaction are idle while
//! the clock runs (the load that builds the tree is set-up). Reads come
//! from the OS page cache, so latencies are the sandbox's, not a device's.

use lsm_kvs::options::Options;
use lsm_kvs::Ticker;

use super::{
    client_tails, closed_loop, engine_layer_metrics, median_setup, open_store, pct_us,
    small_tree_options, space_amp, write_amp, Ctx, Error, Outcome, Phase, Store, CLIENTS,
};
use crate::gen::{self, Rng};
use crate::stats::median;
use crate::{host, ladder};

/// Records loaded by set-up (≈28 MB of SSTs against the 8 MiB block cache).
const BASE_RECORDS: u64 = 400_000;
/// Gets at the reference run length.
const BASE_GETS: u64 = 800_000;
const SETUP_ROUNDS: usize = 3;
/// One Get in this many asks for a key that was never written.
const ABSENT_EVERY: u64 = 5;

fn options() -> Options {
    Options {
        bloom_filter_bits_per_key: 10.0,
        ..small_tree_options()
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, Error> {
    let mut out = Outcome::default();
    let records = ctx.ops(BASE_RECORDS, 40_000);
    let gets = ctx.ops(BASE_GETS, 60_000);
    let dir = ctx.dir.join("db");

    // Set-up: load every record in random order (unsynced), flush, and
    // wait until compaction has nothing left to do.
    let mut load_p50_us = Vec::new();
    let ((store, load), setup_s) = median_setup(
        SETUP_ROUNDS,
        |_| {
            std::fs::create_dir_all(&dir)?;
            let store = open_store(ctx.tracer.as_ref(), &dir, options(), None)?;
            let load = load_records(ctx, &store, records);
            load_p50_us.push(load.write_p50_us());
            store.engine.flush()?;
            store.engine.wait_background_idle()?;
            Ok((store, load))
        },
        |(store, _)| {
            drop(store);
            std::fs::remove_dir_all(&dir).expect("remove set-up directory");
        },
    )?;
    out.attempted += load.ops();
    out.failed += load.failed();
    let loaded = store.db.stats();

    if let Some(t) = &ctx.tracer {
        t.enable();
    }
    let engine = &*store.engine;
    let phase = closed_loop(ctx.tracer.as_ref(), |t, log| {
        let mut rng = Rng::new(gen::mix(ctx.seed ^ t as u64));
        for i in 0..gets / CLIENTS as u64 {
            let id = rng.below(records);
            if i % ABSENT_EVERY == 0 {
                let key = gen::absent_key(id);
                log.read(&key, || matches!(engine.get(&key), Ok(None)));
            } else {
                let key = gen::key(id);
                let want = ctx.expected(id);
                log.read(
                    &key,
                    || matches!(engine.get(&key), Ok(Some(v)) if v == want),
                );
            }
        }
    });
    let peak_rss_mb = host::peak_rss_mib();
    let after = store.db.stats();
    let measured = after.tickers.delta_since(&loaded.tickers);

    out.attempted += phase.ops();
    out.failed += phase.failed();
    out.note("load", load.slowdown);
    out.note("gets", phase.slowdown);
    let (reads, writes) = (phase.reads_sorted(), load.writes_sorted());
    out.check(
        "read_cold: enough samples for a p99",
        pct_us(&reads, 99.0) > 0.0 && pct_us(&writes, 99.0) > 0.0,
    );

    match &ctx.tracer {
        None => {
            out.metric("setup_s", setup_s);
            out.metric("ops_per_s", phase.ops_per_s());
            out.metric("read_p50_us", phase.read_p50_us());
            // Every set-up round loaded the same records; like set-up time,
            // the write latency is the median over the rounds.
            out.metric("write_p50_us", median(&load_p50_us));
            out.metric("cpu_us_per_op", phase.cpu_us_per_op());
            out.metric("write_amp", write_amp(&loaded.tickers));
            out.metric("space_amp", space_amp(&after, records));
            out.metric("peak_rss_mb", peak_rss_mb);
        }
        Some(tracer) => {
            let report = tracer.report();
            engine_layer_metrics(&mut out, &store, &after.tickers, &measured, &phase, &report);
            client_tails(&mut out, &reads, &writes);
            // The traffic is what the workload claims.
            let (hits, misses) = (
                measured.get(Ticker::BlockCacheHit),
                measured.get(Ticker::BlockCacheMiss),
            );
            let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
            out.check(
                format!(
                    "read_cold: block cache hit ratio below 0.3 at full size (was {hit_ratio:.3})"
                ),
                hit_ratio < 0.3 || ctx.scale < 1.0,
            );
            let flushes = measured.get(Ticker::FlushJobs) + measured.get(Ticker::CompactionJobs);
            out.check(
                format!("read_cold: no flush or compaction while measuring (saw {flushes})"),
                flushes == 0,
            );
            out.trace = Some(report);
            ladder::block_and_bloom(&mut out, ctx)?;
            ladder::vfs_pread(&mut out, ctx)?;
        }
    }
    Ok(out)
}

/// Loads `records` records in a seeded random order on the client
/// threads, timing each `Put`; untraced (the tracer is not enabled yet).
fn load_records(ctx: &Ctx, store: &Store, records: u64) -> Phase {
    let order = gen::permutation(records, ctx.seed);
    let engine = &*store.engine;
    closed_loop(None, |t, log| {
        for id in order.iter().skip(t).step_by(CLIENTS) {
            let id = u64::from(*id);
            let key = gen::key(id);
            let value = gen::value(id, ctx.seed);
            log.write(&key, || engine.put(&key, &value).is_ok());
        }
    })
}
