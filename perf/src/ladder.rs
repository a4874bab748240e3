//! The layer ladder: small direct measurements of single layers through
//! their public functions, taken in the traced run of the workload whose
//! prediction each rung serves. A rung times a fixed number of calls
//! (scaled with the run length like every other count) and reports the
//! median over a few batches.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use lsm_kvs::options::{MemtableRep, Options};
use lsm_kvs::sstable::block::BlockBuilder;
use lsm_kvs::sstable::bloom::BloomFilter;
use lsm_kvs::{
    Block, Db, InternalKey, KvEngine, MemTable, MemVfs, ShardedDb, StdVfs, ValueType, Vfs,
    MAX_SEQUENCE,
};
use lsm_server::{serve, Conn, Request, Response};

use crate::gen::{self, Rng};
use crate::stats::median;
use crate::workloads::{wall_env, Ctx, Error, Outcome};

const BATCHES: usize = 5;

/// Median over [`BATCHES`] batches of the mean nanoseconds one call took.
fn ns_per_call(calls: u64, mut batch: impl FnMut(usize)) -> f64 {
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let start = Instant::now();
            batch(b);
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_batch)
}

/// `memtable.<rep>.insert_ns` / `get_ns`: `MemTable::add` and `get` on
/// the benchmark's records, random order, for both representations.
pub fn memtable(out: &mut Outcome, ctx: &Ctx) {
    let (n, seed) = (ctx.ops(100_000, 5_000), ctx.seed);
    let order = gen::permutation(n, seed);
    for (rep, insert_name, get_name) in [
        (
            MemtableRep::BTreeMap,
            "memtable.btree.insert_ns",
            "memtable.btree.get_ns",
        ),
        (
            MemtableRep::SkipList,
            "memtable.skiplist.insert_ns",
            "memtable.skiplist.get_ns",
        ),
    ] {
        let mut tables: Vec<MemTable> = Vec::new();
        let insert = ns_per_call(n, |_| {
            let table = MemTable::with_config(rep, 0, 0, 0);
            for (seq, id) in order.iter().enumerate() {
                let id = u64::from(*id);
                table.add(
                    seq as u64 + 1,
                    ValueType::Value,
                    &gen::key(id),
                    &gen::value(id, seed),
                );
            }
            tables.push(table);
        });
        let table = &tables[0];
        let get = ns_per_call(n, |b| {
            for id in order.iter().skip(b) {
                black_box(table.get(&gen::key(u64::from(*id)), MAX_SEQUENCE));
            }
        });
        out.metric(insert_name, insert);
        out.metric(get_name, get);
    }
}

/// `block.seek_ns` (seek in one parsed 4 KiB data block) and
/// `bloom.probe_ns` (one probe of a 10-bits-per-key filter over 100 k keys,
/// half of the probes for absent keys).
pub fn block_and_bloom(out: &mut Outcome, ctx: &Ctx) -> Result<(), Error> {
    let seed = ctx.seed;
    let mut builder = BlockBuilder::new(16);
    let mut in_block = 0u64;
    while builder.size_estimate() < 4096 {
        let ikey = InternalKey::new(&gen::key(in_block), 1, ValueType::Value);
        builder.add(ikey.encoded(), &gen::value(in_block, seed));
        in_block += 1;
    }
    let block = Block::parse(builder.finish())?;
    let seeks = ctx.ops(200_000, 5_000);
    let mut rng = Rng::new(seed);
    let seek = ns_per_call(seeks, |_| {
        for _ in 0..seeks {
            // The largest type at the largest sequence sorts before every
            // entry of the key: the target a point lookup seeks to.
            let target = InternalKey::new(
                &gen::key(rng.below(in_block)),
                MAX_SEQUENCE,
                ValueType::TtlValue,
            );
            black_box(block.seek(target.encoded()).expect("well-formed block"));
        }
    });
    out.metric("block.seek_ns", seek);

    let keys_n = ctx.ops(100_000, 5_000);
    let keys: Vec<[u8; gen::KEY_LEN]> = (0..keys_n).map(gen::key).collect();
    let filter = BloomFilter::build(keys.iter().map(|k| &k[..]), 10.0);
    let probes = ctx.ops(1_000_000, 20_000);
    let probe = ns_per_call(probes, |_| {
        for i in 0..probes {
            let id = rng.below(keys_n);
            let key = if i % 2 == 0 {
                gen::key(id)
            } else {
                gen::absent_key(id)
            };
            black_box(filter.may_contain(&key));
        }
    });
    out.metric("bloom.probe_ns", probe);
    Ok(())
}

/// `vfs.append_4k_us`: one 4 KiB `append` to a `StdVfs` file.
pub fn vfs_append(out: &mut Outcome, ctx: &Ctx) -> Result<(), Error> {
    let vfs = StdVfs::new(&ctx.dir)?;
    let appends = ctx.ops(4_000, 200);
    let page = [0x5Au8; 4096];
    let mut failed = false;
    let ns = ns_per_call(appends, |b| {
        let mut file = vfs
            .create(&format!("ladder-append-{b}"))
            .expect("create ladder file");
        for _ in 0..appends {
            failed |= file.append(&page).is_err();
        }
        failed |= file.finish().is_err();
    });
    out.check("ladder: appends succeed", !failed);
    out.metric("vfs.append_4k_us", ns / 1e3);
    Ok(())
}

/// `vfs.fsync_us`: one `sync` after a 4 KiB `append` on a `StdVfs` file —
/// the sandbox's fsync, not a device's.
pub fn vfs_fsync(out: &mut Outcome, ctx: &Ctx) -> Result<(), Error> {
    let vfs = StdVfs::new(&ctx.dir)?;
    let mut file = vfs.create("ladder-fsync")?;
    let syncs = ctx.ops(500, 50);
    let page = [0xA5u8; 4096];
    let mut failed = false;
    let mut sync_ns = Vec::new();
    for _ in 0..syncs {
        failed |= file.append(&page).is_err();
        let start = Instant::now();
        failed |= file.sync().is_err();
        sync_ns.push(start.elapsed().as_nanos() as f64);
    }
    out.check("ladder: syncs succeed", !failed);
    out.metric("vfs.fsync_us", median(&sync_ns) / 1e3);
    Ok(())
}

/// `vfs.pread_4k_us`: one 4 KiB `read_at` at a random aligned offset of a
/// 32 MiB `StdVfs` file — served by the OS page cache here.
pub fn vfs_pread(out: &mut Outcome, ctx: &Ctx) -> Result<(), Error> {
    let vfs = StdVfs::new(&ctx.dir)?;
    const PAGES: u64 = 8_192;
    let mut file = vfs.create("ladder-pread")?;
    for i in 0..PAGES {
        file.append(&[i as u8; 4096])?;
    }
    file.finish()?;
    drop(file);
    let reader = vfs.open("ladder-pread")?;
    let reads = ctx.ops(20_000, 1_000);
    let mut rng = Rng::new(ctx.seed);
    let mut failed = false;
    let ns = ns_per_call(reads, |_| {
        for _ in 0..reads {
            let page = rng.below(PAGES);
            match reader.read_at(page * 4096, 4096) {
                Ok(data) => failed |= data.len() != 4096 || data[0] != page as u8,
                Err(_) => failed = true,
            }
        }
    });
    out.check("ladder: preads return what was written", !failed);
    out.metric("vfs.pread_4k_us", ns / 1e3);
    Ok(())
}

/// `shard.put_tax_us` / `shard.get_tax_us`: what routing through a
/// two-shard `ShardedDb` adds to a `Db` operation, both on `MemVfs`, same
/// operations in the same order. Recorded so the audit of sharding has a
/// number; none of the five workloads runs sharded.
pub fn shard_tax(out: &mut Outcome, ctx: &Ctx) -> Result<(), Error> {
    let (n, seed) = (ctx.ops(50_000, 2_000), ctx.seed);
    let order = gen::permutation(n, seed);
    let run = |engine: &dyn KvEngine| -> (f64, f64) {
        let put = ns_per_call(n, |_| {
            for id in &order {
                let id = u64::from(*id);
                engine
                    .put(&gen::key(id), &gen::value(id, seed))
                    .expect("ladder put");
            }
        });
        let get = ns_per_call(n, |_| {
            for id in &order {
                black_box(engine.get(&gen::key(u64::from(*id))).expect("ladder get"));
            }
        });
        (put, get)
    };
    let env = wall_env();
    let plain = Db::builder(Options::default())
        .env(&env)
        .vfs(Arc::new(MemVfs::new()))
        .open()?;
    let sharded = ShardedDb::builder(Options {
        num_shards: 2,
        ..Options::default()
    })
    .env(&env)
    .vfs(Arc::new(MemVfs::new()))
    .split_points(vec![gen::key(n / 2).to_vec()])
    .open()?;
    let (plain_put, plain_get) = run(&plain);
    let (sharded_put, sharded_get) = run(&sharded);
    out.metric("shard.put_tax_us", (sharded_put - plain_put) / 1e3);
    out.metric("shard.get_tax_us", (sharded_get - plain_get) / 1e3);
    Ok(())
}

/// `protocol.encode_ns` / `protocol.decode_ns`: one message through
/// `encode` or `decode`, averaged over a Get and a 100 B Put request and
/// their responses.
pub fn protocol(out: &mut Outcome, ctx: &Ctx) -> Result<(), Error> {
    let (key, value) = (gen::key(7).to_vec(), gen::value(7, ctx.seed).to_vec());
    let get = Request::Get { key: key.clone() };
    let put = Request::Put {
        sync: false,
        key,
        value: value.clone(),
    };
    let pairs = [(get, Response::Value(value)), (put, Response::Ok)];
    let rounds = ctx.ops(100_000, 2_000);
    let messages = rounds * 4;
    let encode = ns_per_call(messages, |_| {
        for _ in 0..rounds {
            for (req, resp) in &pairs {
                black_box(black_box(req).encode());
                black_box(black_box(resp).encode());
            }
        }
    });
    let wire: Vec<(&Request, Vec<u8>, Vec<u8>)> = pairs
        .iter()
        .map(|(req, resp)| (req, req.encode(), resp.encode()))
        .collect();
    let mut failed = false;
    let decode = ns_per_call(messages, |_| {
        for _ in 0..rounds {
            for (req, req_bytes, resp_bytes) in &wire {
                failed |= Request::decode(black_box(req_bytes)).is_err();
                failed |= Response::decode(req, black_box(resp_bytes)).is_err();
            }
        }
    });
    out.check("ladder: protocol messages decode", !failed);
    out.metric("protocol.encode_ns", encode);
    out.metric("protocol.decode_ns", decode);
    Ok(())
}

/// `rpc.ping_rtt_us`: median round trip of `Conn::call(Ping)` on one
/// loopback connection to an otherwise idle in-process server.
pub fn ping_rtt(out: &mut Outcome, ctx: &Ctx) -> Result<(), Error> {
    let db = Db::builder(Options::default())
        .env(&wall_env())
        .vfs(Arc::new(MemVfs::new()))
        .open()?;
    let mut server = serve(Arc::new(db), "127.0.0.1:0")?;
    let mut conn = Conn::connect(&server.local_addr().to_string())?;
    let pings = ctx.ops(20_000, 1_000);
    let mut rtt_ns = Vec::new();
    let mut failed = false;
    for _ in 0..pings {
        let start = Instant::now();
        failed |= !matches!(conn.call(&Request::Ping), Ok(Response::Ok));
        rtt_ns.push(start.elapsed().as_nanos() as f64);
    }
    drop(conn);
    server.shutdown();
    out.check("ladder: pings answered", !failed);
    out.metric("rpc.ping_rtt_us", median(&rtt_ns) / 1e3);
    Ok(())
}

/// `harness.gen_ns_per_op`: what the benchmark itself spends per
/// operation — key and value generation plus the client timer — measured
/// by running `fill`'s loop body against an engine that does nothing.
pub fn harness(out: &mut Outcome, ctx: &Ctx) {
    let (n, seed) = (ctx.ops(500_000, 10_000), ctx.seed);
    let order = gen::permutation(n, seed);
    let mut sink = 0u64;
    let ns = ns_per_call(n, |_| {
        for id in &order {
            let id = u64::from(*id);
            let key = gen::key(id);
            let value = gen::value(id, seed);
            let start = Instant::now();
            sink ^= u64::from(black_box(key)[15]) ^ u64::from(black_box(value)[0]);
            sink ^= start.elapsed().as_nanos() as u64;
        }
    });
    black_box(sink);
    out.metric("harness.gen_ns_per_op", ns);
}
