//! `fill`: random-order `Put`s into an empty in-process `Db` on real
//! files, WAL unsynced, through dozens of flush and compaction cycles.
//!
//! The write path does all the work — commit pipeline, WAL, memtable,
//! flush, compaction, write controller; the read path, RPC and
//! replication do nothing while the clock runs. Flush policy: the WAL is
//! never synced during the measured phase.

use std::sync::Arc;

use lsm_kvs::fault::TearStyle;
use lsm_kvs::options::Options;
use lsm_kvs::{Db, FaultInjectionVfs, MemVfs, Ticker, Vfs, WriteBatch, WriteOptions};

use super::{
    client_tails, closed_loop, count_records, engine_layer_metrics, median_setup, open_store,
    pct_us, read_back, small_tree_options, space_amp, wall_env, write_amp, Ctx, Error, Outcome,
    CLIENTS,
};
use crate::trace::Kind;
use crate::{gen, host, ladder};

/// Puts at the reference run length.
const BASE_PUTS: u64 = 1_000_000;
const SETUP_ROUNDS: usize = 9;
/// One in this many records is read back, timed, after the reopen: enough
/// reads to last a few seconds, so a short hiccup of the host cannot set
/// the median and the gauge takes a few hundred samples meanwhile.
const REREAD_EVERY: usize = 4;
/// Compactions a full-size run must go through to count as a fill that
/// reached the steady part of the write path.
const MIN_COMPACTIONS: u64 = 10;

pub fn run(ctx: &Ctx) -> Result<Outcome, Error> {
    let mut out = Outcome::default();
    let n = ctx.ops(BASE_PUTS, 60_000);
    let dir = ctx.dir.join("db");

    // Set-up: generate the insertion order, create the directory, open an
    // empty engine.
    let ((order, store), setup_s) = median_setup(
        SETUP_ROUNDS,
        |_| {
            let order = gen::permutation(n, ctx.seed);
            std::fs::create_dir_all(&dir)?;
            Ok((
                order,
                open_store(ctx.tracer.as_ref(), &dir, small_tree_options(), None)?,
            ))
        },
        |(_, store)| {
            drop(store);
            std::fs::remove_dir_all(&dir).expect("remove set-up directory");
        },
    )?;

    if let Some(t) = &ctx.tracer {
        t.enable();
    }
    let engine = &*store.engine;
    let phase = closed_loop(ctx.tracer.as_ref(), |t, log| {
        for id in order.iter().skip(t).step_by(CLIENTS) {
            let id = u64::from(*id);
            let key = gen::key(id);
            let value = gen::value(id, ctx.seed);
            log.write(&key, || engine.put(&key, &value).is_ok());
        }
    });
    let peak_rss_mb = host::peak_rss_mib();
    let measured = store.db.stats().tickers;

    // Let the compactions the fill caused finish, so bytes written per
    // user byte and bytes on disk are read at a defined point.
    engine.flush()?;
    engine.wait_background_idle()?;
    let settled = store.db.stats();

    out.attempted = phase.ops();
    out.failed = phase.failed();
    let writes = phase.writes_sorted();
    out.check(
        "fill: enough write samples for a p99",
        pct_us(&writes, 99.0) > 0.0,
    );

    if let Some(tracer) = &ctx.tracer {
        let report = tracer.report();
        engine_layer_metrics(
            &mut out,
            &store,
            &settled.tickers,
            &measured,
            &phase,
            &report,
        );
        // The traffic is what the workload claims.
        let fg_preads = report.kind(Kind::VfsPread).nested;
        out.check(
            format!("fill: no foreground preads (saw {fg_preads})"),
            fg_preads == 0,
        );
        let compactions = settled.tickers.get(Ticker::CompactionJobs);
        out.check(
            format!(
                "fill: at least {MIN_COMPACTIONS} compactions at full size (saw {compactions})"
            ),
            compactions >= MIN_COMPACTIONS || ctx.scale < 1.0,
        );
        out.trace = Some(report);
        ladder::memtable(&mut out, ctx);
        ladder::vfs_append(&mut out, ctx)?;
        ladder::harness(&mut out, ctx);
    }

    // Durability of what was acknowledged: drop the engine, reopen the
    // same directory, count every record and re-read a sample.
    drop(store);
    let reopened = open_store(None, &dir, small_tree_options(), None)?;
    let found = count_records(&*reopened.engine)?;
    out.check(
        format!("fill: reopen finds {n} records (found {found})"),
        found == n,
    );
    let sample: Vec<u32> = order.iter().copied().step_by(REREAD_EVERY).collect();
    let reread = read_back(ctx, &*reopened.engine, &sample);
    out.attempted += reread.ops();
    out.failed += reread.failed();
    let reads = reread.reads_sorted();
    out.note("puts", phase.slowdown);
    out.note("re-read", reread.slowdown);
    out.check(
        "fill: enough re-read samples for a p99",
        pct_us(&reads, 99.0) > 0.0,
    );
    drop(reopened);

    out.check(
        "fill: every synced write survives a power cut",
        power_cut_probe(ctx.seed)?,
    );

    if ctx.tracer.is_some() {
        client_tails(&mut out, &reads, &writes);
    } else {
        out.metric("setup_s", setup_s);
        out.metric("ops_per_s", phase.ops_per_s());
        out.metric("read_p50_us", reread.read_p50_us());
        out.metric("write_p50_us", phase.write_p50_us());
        out.metric("cpu_us_per_op", phase.cpu_us_per_op());
        out.metric("write_amp", write_amp(&settled.tickers));
        out.metric("space_amp", space_amp(&settled, n));
        out.metric("peak_rss_mb", peak_rss_mb);
    }
    Ok(out)
}

/// Killing a process leaves the operating system's cache intact, so the
/// probe discards unsynced bytes itself: synced and unsynced writes on a
/// fault-injection file system, power off, reboot dropping every unsynced
/// tail, reopen — every acknowledged synced write must be there.
fn power_cut_probe(seed: u64) -> Result<bool, Error> {
    const SYNCED: u64 = 2_000;
    let fault = FaultInjectionVfs::wrap(Arc::new(MemVfs::new()));
    let open = || {
        let vfs = Arc::new(fault.clone()) as Arc<dyn Vfs>;
        Db::builder(Options::default())
            .env(&wall_env())
            .vfs(vfs)
            .open()
    };
    let db = open()?;
    let mut acked = Vec::new();
    for id in 0..SYNCED {
        let mut batch = WriteBatch::new();
        batch.put(&gen::key(id), &gen::value(id, seed));
        if db.write_opt(&WriteOptions::synced(), batch).is_ok() {
            acked.push(id);
        }
        // An unsynced neighbour gives the cut something to destroy.
        db.put(&gen::absent_key(id), b"volatile")?;
    }
    let had_unsynced_bytes = fault.unsynced_bytes() > 0;
    fault.power_off();
    drop(db);
    fault.reboot(TearStyle::DropUnsynced);
    let db = open()?;
    let all_there = acked
        .iter()
        .all(|id| matches!(db.get(&gen::key(*id)), Ok(Some(v)) if v == gen::value(*id, seed)));
    Ok(acked.len() as u64 == SYNCED && had_unsynced_bytes && all_there)
}
