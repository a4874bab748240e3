//! Cluster-layer tests: WAL-shipping replication (bootstrap checkpoint,
//! live stream, sequence lockstep), follower read-only serving and
//! promotion, whole-cluster crash drills (kill the replica, kill the
//! leader) with the zero-acked-loss contract, and the client-resilience
//! sweep (scan error repooling, idempotent retry across a restart,
//! stats caching, pool bounds).

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hw_sim::HardwareEnv;
use lsm_kvs::options::Options;
use lsm_kvs::vfs::MemVfs;
use lsm_kvs::{
    Db, ErrorKind, FaultInjectionVfs, KvEngine, Vfs, WalSink, WriteBatch, WriteOptions,
};
use lsm_server::{
    serve, serve_with_role, start_follower, ClusterClient, Conn, FollowerHandle, RemoteDb,
    ReplicaListenerHandle, ReplicationHub, Request, Response, ServerRole,
};

fn wall_env() -> HardwareEnv {
    HardwareEnv::builder().cores(2).build_wall()
}

/// Opens a leader database with a replication hub attached and a
/// replica listener accepting followers.
fn start_leader(vfs: Arc<dyn Vfs>) -> (Arc<Db>, Arc<ReplicationHub>, ReplicaListenerHandle) {
    let env = wall_env();
    let hub = Arc::new(ReplicationHub::new());
    let db = Arc::new(
        Db::builder(Options::default())
            .env(&env)
            .vfs(vfs)
            .wal_sink(Arc::clone(&hub) as Arc<dyn WalSink>)
            .open()
            .unwrap(),
    );
    let listener = serve_replicas_here(&hub, &db);
    (db, hub, listener)
}

fn serve_replicas_here(hub: &Arc<ReplicationHub>, db: &Arc<Db>) -> ReplicaListenerHandle {
    lsm_server::serve_replicas(Arc::clone(hub), Arc::clone(db), "127.0.0.1:0").unwrap()
}

/// Opens a follower database tailing `leader_replica_addr`.
fn start_follower_db(
    vfs: Arc<dyn Vfs>,
    leader_replica_addr: &str,
) -> (Arc<Db>, FollowerHandle) {
    let env = wall_env();
    let db = Arc::new(Db::builder(Options::default()).env(&env).vfs(vfs).open().unwrap());
    let handle = start_follower(Arc::clone(&db), leader_replica_addr.to_string());
    (db, handle)
}

/// Polls `cond` every 10ms until it holds or `timeout` elapses.
fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

fn synced_put(db: &impl KvEngine, key: &[u8], value: &[u8]) -> lsm_kvs::Result<()> {
    let mut batch = WriteBatch::new();
    batch.put(key, value);
    db.write_opt(&WriteOptions::synced(), batch)
}

/// An empty follower connecting to a leader that already has data gets
/// the checkpoint, lands in sequence lockstep, and then follows the
/// live stream.
#[test]
fn follower_bootstraps_from_checkpoint_then_streams() {
    let (leader, _hub, listener) = start_leader(Arc::new(MemVfs::new()));

    // Pre-existing state: flushed SSTs plus a memtable tail.
    for i in 0..2_000u32 {
        leader.put(format!("boot{i:05}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
    }
    leader.flush().unwrap();
    for i in 2_000..2_300u32 {
        leader.put(format!("boot{i:05}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
    }

    let (follower, fh) = start_follower_db(
        Arc::new(MemVfs::new()),
        &listener.local_addr().to_string(),
    );
    let target = leader.snapshot_seq();
    assert!(
        wait_until(Duration::from_secs(10), || follower.snapshot_seq() >= target),
        "follower never caught up: {} < {target}",
        follower.snapshot_seq()
    );
    // Lockstep: the checkpoint jump plus per-record applies land on
    // exactly the leader's sequence, never past it.
    assert_eq!(follower.snapshot_seq(), target);
    for i in (0..2_300u32).step_by(97) {
        assert_eq!(
            follower.get(format!("boot{i:05}").as_bytes()).unwrap(),
            Some(format!("v{i}").into_bytes()),
            "bootstrapped key boot{i:05}"
        );
    }

    // Live stream after the checkpoint: new writes keep arriving.
    synced_put(&*leader, b"after-boot", b"streamed").unwrap();
    assert!(wait_until(Duration::from_secs(5), || {
        follower.get(b"after-boot").unwrap() == Some(b"streamed".to_vec())
    }));
    assert_eq!(follower.snapshot_seq(), leader.snapshot_seq());
    drop(fh);
    drop(listener);
}

/// A follower's client port serves reads at the applied sequence but
/// rejects writes until a Promote request flips it — which also tears
/// down its replication stream via the promote hook.
#[test]
fn follower_rejects_writes_until_promoted() {
    let (leader, _hub, listener) = start_leader(Arc::new(MemVfs::new()));
    synced_put(&*leader, b"replicated", b"yes").unwrap();

    let (fdb, fh) = start_follower_db(
        Arc::new(MemVfs::new()),
        &listener.local_addr().to_string(),
    );
    let fh = Arc::new(fh);
    let hook = Arc::clone(&fh);
    let role = ServerRole::follower(move || hook.stop_and_join());
    let fserver = serve_with_role(
        Arc::clone(&fdb) as Arc<dyn KvEngine>,
        "127.0.0.1:0",
        Arc::clone(&role),
    )
    .unwrap();
    let client = RemoteDb::connect(&fserver.local_addr().to_string()).unwrap();

    assert!(wait_until(Duration::from_secs(5), || {
        client.get(b"replicated").unwrap() == Some(b"yes".to_vec())
    }));
    let err = client.put(b"direct", b"write").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::NotSupported, "follower must refuse writes: {err}");
    assert!(!err.is_retryable(), "a follower write is wrong, not transient");
    assert!(role.is_follower());

    client.promote().unwrap();
    assert!(!role.is_follower());
    // The hook joins the apply thread before Promote answers Ok: the
    // instant the RPC returns, no stale replicated group can still
    // apply underneath the new leader's writes.
    assert!(
        !fh.status().connected.load(Ordering::SeqCst),
        "promote returned while the replication tail was still attached"
    );
    client.put(b"direct", b"write").unwrap();
    assert_eq!(client.get(b"direct").unwrap(), Some(b"write".to_vec()));
    drop(fserver);
    drop(listener);
}

/// Replication opcodes on the client port are a protocol violation: the
/// connection gets an error answer, other clients sail on.
#[test]
fn client_port_refuses_replication_opcodes() {
    let env = wall_env();
    let db = Arc::new(
        Db::builder(Options::default())
            .env(&env)
            .vfs(Arc::new(MemVfs::new()))
            .open()
            .unwrap(),
    );
    let handle = serve(Arc::clone(&db) as Arc<dyn KvEngine>, "127.0.0.1:0").unwrap();
    let addr = handle.local_addr().to_string();
    let healthy = RemoteDb::connect(&addr).unwrap();
    healthy.put(b"canary", b"alive").unwrap();

    let mut conn = Conn::connect(&addr).unwrap();
    let req = Request::ReplicaHello { have_seq: 0 };
    match conn.call(&req).unwrap() {
        Response::Err(e) => {
            assert!(format!("{e}").contains("replication"), "names the violation: {e}")
        }
        other => panic!("expected an error answer, got {other:?}"),
    }
    assert_eq!(healthy.get(b"canary").unwrap(), Some(b"alive".to_vec()));
    drop(handle);
}

/// Kill the replica mid-load: synced writes stall for at most one ack
/// timeout, the dead follower is demoted, the leader keeps accepting —
/// and every write acked before or after the kill is on the leader.
#[test]
fn kill_replica_mid_load_leader_keeps_accepting() {
    let fault = FaultInjectionVfs::wrap(Arc::new(MemVfs::new()));
    let (leader, hub, listener) = start_leader(Arc::new(MemVfs::new()));
    let handle = serve(Arc::clone(&leader) as Arc<dyn KvEngine>, "127.0.0.1:0").unwrap();
    let client = RemoteDb::connect(&handle.local_addr().to_string()).unwrap();

    let (fdb, fh) = start_follower_db(
        Arc::new(fault.clone()),
        &listener.local_addr().to_string(),
    );
    let mut acked: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for i in 0..100u32 {
        let (k, v) = (format!("pre{i:04}").into_bytes(), format!("v{i}").into_bytes());
        synced_put(&client, &k, &v).unwrap();
        acked.push((k, v));
    }
    assert!(wait_until(Duration::from_secs(5), || {
        fdb.snapshot_seq() >= leader.snapshot_seq()
    }));
    assert_eq!(hub.live_followers(), 1);

    // The replica machine dies: apply loop gone, storage dark.
    fh.stop();
    drop(fh);
    fault.power_off();

    // Writes keep succeeding. The first may pay one ack timeout before
    // the dead session is demoted; after that the path is clear.
    for i in 0..50u32 {
        let (k, v) = (format!("post{i:04}").into_bytes(), format!("v{i}").into_bytes());
        synced_put(&client, &k, &v).unwrap();
        acked.push((k, v));
    }
    let t0 = Instant::now();
    synced_put(&client, b"post-final", b"fast").unwrap();
    assert!(
        t0.elapsed() < Duration::from_millis(400),
        "writes still stalling on a demoted follower: {:?}",
        t0.elapsed()
    );
    assert_eq!(hub.live_followers(), 0, "dead follower still counted live");

    for (k, v) in &acked {
        assert_eq!(
            client.get(k).unwrap(),
            Some(v.clone()),
            "acked write {:?} lost after replica death",
            String::from_utf8_lossy(k)
        );
    }
    drop(handle);
    drop(listener);
}

/// Kill the leader mid-load (power cut + process gone): the cluster
/// client fails over to the follower, promotes it, keeps serving — and
/// not one acked synced write is lost.
#[test]
fn kill_leader_failover_loses_no_acked_synced_writes() {
    // Leader on fault-injected storage, serving clients + replicas.
    let fault = FaultInjectionVfs::wrap(Arc::new(MemVfs::new()));
    let (leader, _hub, listener) = start_leader(Arc::new(fault.clone()));
    let mut leader_server =
        serve(Arc::clone(&leader) as Arc<dyn KvEngine>, "127.0.0.1:0").unwrap();
    let leader_addr = leader_server.local_addr().to_string();

    // Follower tailing the leader, serving its own client port.
    let (fdb, fh) = start_follower_db(
        Arc::new(MemVfs::new()),
        &listener.local_addr().to_string(),
    );
    let fh = Arc::new(fh);
    let hook = Arc::clone(&fh);
    let fserver = serve_with_role(
        Arc::clone(&fdb) as Arc<dyn KvEngine>,
        "127.0.0.1:0",
        ServerRole::follower(move || hook.stop_and_join()),
    )
    .unwrap();
    let spec = format!("{leader_addr}~{}", fserver.local_addr());
    let cluster = Arc::new(ClusterClient::connect(&spec, Vec::new()).unwrap());

    // Synced write load through the cluster client.
    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for t in 0..2u32 {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        writers.push(std::thread::spawn(move || {
            let mut acked: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let key = format!("t{t}-{i:06}").into_bytes();
                let value = format!("val-{t}-{i}").into_bytes();
                // Write errors during the failover window surface
                // honestly; the writer just moves on to the next key.
                if synced_put(&*cluster, &key, &value).is_ok() {
                    acked.push((key, value));
                }
                i += 1;
            }
            acked
        }));
    }

    std::thread::sleep(Duration::from_millis(300));
    // The leader machine dies: storage dark, process gone.
    fault.power_off();
    leader_server.shutdown();

    // The failover completes and writes land on the promoted follower.
    assert!(
        wait_until(Duration::from_secs(10), || {
            synced_put(&*cluster, b"failover-probe", b"ok").is_ok()
        }),
        "cluster never recovered after the leader kill"
    );
    std::thread::sleep(Duration::from_millis(200)); // acked post-failover traffic
    stop.store(true, Ordering::Relaxed);
    let mut acked: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    for w in writers {
        for (k, v) in w.join().unwrap() {
            acked.insert(k, v);
        }
    }
    assert!(!acked.is_empty(), "no write acked before the kill");

    // Every acked synced write — before the kill (replicated
    // semi-synchronously) and after (written to the new leader) — reads
    // back through the cluster.
    for (k, v) in &acked {
        assert_eq!(
            cluster.get(k).unwrap().as_deref(),
            Some(v.as_slice()),
            "acked synced write {:?} lost across leader failover",
            String::from_utf8_lossy(k)
        );
    }
    drop(leader_server);
    drop(fserver);
    drop(listener);
}

/// A follower that loses its leader mid-bootstrap parks itself (failed
/// flag up, marker on disk) instead of reconnecting with a `have_seq`
/// that counts partially-applied checkpoint entries; the restart path
/// wipes the partial prefix and re-bootstraps completely.
#[test]
fn interrupted_bootstrap_parks_wipes_and_rebootstraps() {
    use lsm_server::repl::BOOTSTRAP_MARKER;

    // A fake leader: answers the hello with one checkpoint chunk, then
    // dies before SnapshotDone.
    let fake = TcpListener::bind("127.0.0.1:0").unwrap();
    let fake_addr = fake.local_addr().unwrap().to_string();
    let fake_thread = std::thread::spawn(move || {
        let (mut s, _) = fake.accept().unwrap();
        let mut hello = [0u8; 64];
        use std::io::Read;
        let _ = s.read(&mut hello);
        let chunk = Request::SnapshotChunk {
            entries: vec![(b"partial".to_vec(), b"prefix".to_vec())],
        };
        s.write_all(&lsm_server::protocol::frame(&chunk.encode())).unwrap();
    });

    let vfs = Arc::new(MemVfs::new());
    let (fdb, fh) = start_follower_db(Arc::clone(&vfs) as Arc<dyn Vfs>, &fake_addr);
    assert!(
        wait_until(Duration::from_secs(5), || fh.status().failed.load(Ordering::SeqCst)),
        "follower kept running after an interrupted bootstrap"
    );
    fake_thread.join().unwrap();
    assert!(vfs.exists(BOOTSTRAP_MARKER), "partial checkpoint left no durable marker");
    assert_eq!(fdb.get(b"partial").unwrap(), Some(b"prefix".to_vec()));
    assert!(fh.status().errors.load(Ordering::SeqCst) >= 1);
    drop(fh);
    drop(fdb);

    // The restart path: wipe the prefix, then bootstrap for real.
    assert!(lsm_server::prepare_follower_storage(vfs.as_ref()).unwrap());
    assert!(vfs.list("").unwrap().is_empty(), "wipe left files behind");
    assert!(!lsm_server::prepare_follower_storage(vfs.as_ref()).unwrap());

    let (leader, _hub, listener) = start_leader(Arc::new(MemVfs::new()));
    for i in 0..500u32 {
        leader.put(format!("real{i:04}").as_bytes(), b"v").unwrap();
    }
    let (fdb, fh) = start_follower_db(
        Arc::clone(&vfs) as Arc<dyn Vfs>,
        &listener.local_addr().to_string(),
    );
    let target = leader.snapshot_seq();
    assert!(wait_until(Duration::from_secs(10), || fdb.snapshot_seq() >= target));
    assert_eq!(fdb.get(b"partial").unwrap(), None, "wiped key came back");
    assert_eq!(fdb.get(b"real0499").unwrap(), Some(b"v".to_vec()));
    // The sequence jump lands before the marker comes off; the removal
    // follows as soon as the flush completes.
    assert!(
        wait_until(Duration::from_secs(5), || !vfs.exists(BOOTSTRAP_MARKER)),
        "marker outlived a completed bootstrap"
    );
    drop(fh);
    drop(listener);
}

/// The replication stream is the WAL's records, and neither moved when
/// `WriteBatch` became its own record: a `Replicate` frame written out
/// byte by byte in the format the previous release shipped (a put and a
/// delete in one record, a TTL-stamped put in the next) is applied by the
/// follower as it is, and lands in the follower's WAL byte for byte.
#[test]
fn follower_applies_a_hand_written_replicate_frame_unchanged() {
    use lsm_kvs::wal::replay_wal;

    let mut first = 1u64.to_le_bytes().to_vec(); // first_seq 1
    first.extend_from_slice(&2u32.to_le_bytes()); // two entries
    first.extend_from_slice(&[1, 3, b'k', b'e', b'y', 5, b'v', b'a', b'l', b'u', b'e']);
    first.extend_from_slice(&[0, 4, b'g', b'o', b'n', b'e', 0]);
    let mut second = 3u64.to_le_bytes().to_vec(); // first_seq 3
    second.extend_from_slice(&1u32.to_le_bytes());
    second.extend_from_slice(&[2, 1, b't', 9, b'v']); // TtlValue: value ++ stamp
    second.extend_from_slice(&1234u64.to_le_bytes());
    let mut payload = vec![15u8]; // op::REPLICATE
    payload.extend_from_slice(&1u64.to_le_bytes()); // first_seq of the group
    payload.push(1); // synced
    payload.extend_from_slice(&2u32.to_le_bytes()); // two records
    for record in [&first, &second] {
        payload.extend_from_slice(&(record.len() as u32).to_le_bytes());
        payload.extend_from_slice(record);
    }

    let fake = TcpListener::bind("127.0.0.1:0").unwrap();
    let fake_addr = fake.local_addr().unwrap().to_string();
    let frame = lsm_server::protocol::frame(&payload);
    let fake_thread = std::thread::spawn(move || {
        use std::io::Read;
        let (mut s, _) = fake.accept().unwrap();
        let mut hello = [0u8; 4 + 9];
        s.read_exact(&mut hello).unwrap();
        s.write_all(&frame).unwrap();
        let mut ack = [0u8; 4 + 9];
        s.read_exact(&mut ack).unwrap();
        Request::decode(&ack[4..]).unwrap()
    });

    let vfs = Arc::new(MemVfs::new());
    let (fdb, fh) = start_follower_db(Arc::clone(&vfs) as Arc<dyn Vfs>, &fake_addr);
    assert_eq!(fake_thread.join().unwrap(), Request::ReplicaAck { seq: 3 });
    assert_eq!(fdb.snapshot_seq(), 3);
    assert_eq!(fdb.get(b"key").unwrap(), Some(b"value".to_vec()));
    assert_eq!(fdb.get(b"gone").unwrap(), None);
    assert_eq!(fdb.get(b"t").unwrap(), Some(b"v".to_vec()), "the stamp is not the user's bytes");

    let mut logged = Vec::new();
    for name in vfs.list("").unwrap() {
        if name.ends_with(".log") {
            logged.extend(replay_wal(&vfs.read_all(&name).unwrap(), true).unwrap().records);
        }
    }
    assert_eq!(logged, vec![first, second], "the follower logs what the leader shipped");
    drop(fh);
}

/// A restarted leader (committed state on disk, empty replay ring)
/// refuses a `have_seq` it cannot serve with an explicit ReplicaReject
/// instead of registering a session that can only gap-break and redial
/// forever — so no phantom follower ever stalls synced writes, and the
/// rejected follower parks itself for a wipe.
#[test]
fn leader_restart_rejects_unservable_have_seq() {
    let leader_vfs = Arc::new(MemVfs::new());
    {
        let env = wall_env();
        let db = Db::builder(Options::default())
            .env(&env)
            .vfs(Arc::clone(&leader_vfs) as Arc<dyn Vfs>)
            .open()
            .unwrap();
        for i in 0..10u32 {
            db.put(format!("old{i}").as_bytes(), b"v").unwrap();
        }
    }
    let (leader, hub, listener) = start_leader(Arc::clone(&leader_vfs) as Arc<dyn Vfs>);
    assert!(leader.snapshot_seq() >= 10);

    // A diverged follower: local writes the leader never shipped, so
    // its have_seq lies in the leader's past but not in the ring.
    let fvfs = Arc::new(MemVfs::new());
    let env = wall_env();
    let fdb = Arc::new(
        Db::builder(Options::default())
            .env(&env)
            .vfs(Arc::clone(&fvfs) as Arc<dyn Vfs>)
            .open()
            .unwrap(),
    );
    for i in 0..5u32 {
        fdb.put(format!("stray{i}").as_bytes(), b"v").unwrap();
    }
    let fh = start_follower(Arc::clone(&fdb), listener.local_addr().to_string());
    assert!(
        wait_until(Duration::from_secs(5), || fh.status().failed.load(Ordering::SeqCst)),
        "unservable follower was not rejected"
    );
    assert!(
        fvfs.exists(lsm_server::repl::BOOTSTRAP_MARKER),
        "a reject must mark the local state for a wipe"
    );
    assert_eq!(hub.live_followers(), 0, "rejected hello registered a live session");

    // A have_seq past the leader's history is rejected on the wire too.
    let mut probe = std::net::TcpStream::connect(listener.local_addr()).unwrap();
    let hello = Request::ReplicaHello { have_seq: 1_000_000 };
    probe.write_all(&lsm_server::protocol::frame(&hello.encode())).unwrap();
    let mut len = [0u8; 4];
    use std::io::Read;
    probe.read_exact(&mut len).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    probe.read_exact(&mut payload).unwrap();
    assert!(matches!(Request::decode(&payload).unwrap(), Request::ReplicaReject));

    // No phantom session: synced writes ack without an ack-timeout stall.
    let t0 = Instant::now();
    synced_put(&*leader, b"new", b"fast").unwrap();
    assert!(
        t0.elapsed() < Duration::from_millis(400),
        "synced write stalled on a rejected follower: {:?}",
        t0.elapsed()
    );
    drop(fh);
    drop(listener);
}

/// While a synced write waits out a laggard follower's ack (up to the
/// full ack timeout), the engine state lock must be free — readers are
/// not collateral damage. Runs the strict durability-before-visibility
/// commit path, which is the one that held the lock across the wait.
#[test]
fn synced_ack_wait_does_not_hold_the_engine_lock() {
    let env = wall_env();
    let hub = Arc::new(ReplicationHub::new());
    let opts = Options {
        enable_pipelined_write: false,
        allow_concurrent_memtable_write: false,
        ..Options::default()
    };
    let leader = Arc::new(
        Db::builder(opts)
            .env(&env)
            .vfs(Arc::new(MemVfs::new()))
            .wal_sink(Arc::clone(&hub) as Arc<dyn WalSink>)
            .open()
            .unwrap(),
    );
    let listener = serve_replicas_here(&hub, &leader);
    leader.put(b"warm", b"up").unwrap();

    // A mute follower: bootstraps, receives groups, never acks. The
    // sender enters its live-stream loop only after marking the session
    // streaming (durability-counting), so receiving a Replicate frame
    // proves the session gates synced writes from here on.
    let mut mute = std::net::TcpStream::connect(listener.local_addr()).unwrap();
    mute.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let hello = Request::ReplicaHello { have_seq: 0 };
    mute.write_all(&lsm_server::protocol::frame(&hello.encode())).unwrap();
    let mut read_req = || {
        use std::io::Read;
        let mut len = [0u8; 4];
        mute.read_exact(&mut len).unwrap();
        let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
        mute.read_exact(&mut payload).unwrap();
        Request::decode(&payload).unwrap()
    };
    while !matches!(read_req(), Request::SnapshotDone { .. }) {}
    leader.put(b"poke", b"stream").unwrap();
    while !matches!(read_req(), Request::Replicate { .. }) {}
    assert_eq!(hub.live_followers(), 1);

    let writer = {
        let leader = Arc::clone(&leader);
        std::thread::spawn(move || {
            let t0 = Instant::now();
            synced_put(&*leader, b"stalled", b"write").unwrap();
            t0.elapsed()
        })
    };
    // Let the writer reach its ack wait, then read underneath it.
    std::thread::sleep(Duration::from_millis(150));
    let t0 = Instant::now();
    assert_eq!(leader.get(b"warm").unwrap(), Some(b"up".to_vec()));
    let read_time = t0.elapsed();
    let write_time = writer.join().unwrap();
    assert!(
        write_time >= Duration::from_millis(300),
        "writer never actually waited on the mute follower: {write_time:?}"
    );
    assert!(
        read_time < Duration::from_millis(200),
        "a synced write's ack wait blocked a reader for {read_time:?}"
    );
    drop(mute);
    drop(listener);
}

/// Dropping a leader's two handles lets go of the engine there and
/// then: the replica listener joins its per-follower threads instead of
/// leaving one to own the database (and decide when `Db::drop` runs)
/// for a while longer.
#[test]
fn dropping_the_handles_releases_the_engine_at_once() {
    let (leader, hub, listener) = start_leader(Arc::new(MemVfs::new()));
    let server = serve(Arc::clone(&leader) as Arc<dyn KvEngine>, "127.0.0.1:0").unwrap();
    let (follower, fh) =
        start_follower_db(Arc::new(MemVfs::new()), &listener.local_addr().to_string());
    synced_put(&*leader, b"k", b"v").unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || {
            hub.live_followers() == 1 && follower.snapshot_seq() == leader.snapshot_seq()
        }),
        "follower never connected and caught up"
    );

    drop(listener);
    drop(server);
    assert_eq!(Arc::strong_count(&leader), 1, "a server thread still owns the engine");
    drop(fh);
}

/// `db_bench --cluster` routing contract: point ops, multi_get, batch
/// writes, and scans through a two-node fleet behave like one engine.
#[test]
fn cluster_client_routes_reads_writes_and_scans() {
    let env = wall_env();
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..2 {
        let db = Arc::new(
            Db::builder(Options::default())
                .env(&env)
                .vfs(Arc::new(MemVfs::new()))
                .open()
                .unwrap(),
        );
        let h = serve(Arc::clone(&db) as Arc<dyn KvEngine>, "127.0.0.1:0").unwrap();
        addrs.push(h.local_addr().to_string());
        handles.push((h, db));
    }
    let spec = addrs.join(",");
    let cluster = ClusterClient::connect(&spec, vec![b"m".to_vec()]).unwrap();

    let keys: Vec<Vec<u8>> =
        (b'a'..=b'z').map(|c| vec![c, c]).collect();
    let mut batch = WriteBatch::new();
    for k in &keys {
        batch.put(k, k);
    }
    cluster.write_opt(&WriteOptions { sync: false }, batch).unwrap();

    // Each node holds only its range.
    let (left, right) = (&handles[0].1, &handles[1].1);
    assert_eq!(left.get(b"aa").unwrap(), Some(b"aa".to_vec()));
    assert_eq!(left.get(b"zz").unwrap(), None);
    assert_eq!(right.get(b"zz").unwrap(), Some(b"zz".to_vec()));
    assert_eq!(right.get(b"aa").unwrap(), None);

    for k in &keys {
        assert_eq!(cluster.get(k).unwrap(), Some(k.clone()));
    }
    // multi_get across the boundary, input order preserved.
    let mut asked: Vec<Vec<u8>> = keys.iter().rev().cloned().collect();
    asked.insert(2, b"missing".to_vec());
    let got = cluster.multi_get(&asked).unwrap();
    for (k, v) in asked.iter().zip(&got) {
        let expect = (k.len() == 2).then(|| k.clone());
        assert_eq!(*v, expect);
    }
    // A scan walks both nodes in key order.
    let all = cluster.scan(b"", 100).unwrap();
    assert_eq!(all.len(), keys.len());
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "cross-node scan sorted");
    // Merged stats see both nodes' writes.
    let stats = cluster.stats_checked().unwrap();
    assert_eq!(stats.tickers.get(lsm_kvs::Ticker::KeysWritten), keys.len() as u64);
    let text = cluster.stats_text();
    assert!(text.contains("** Cluster: 2 nodes **"), "{text}");
    assert!(text.contains("** Node 1"), "{text}");
}

/// Satellite (a): a mid-scan `Err` answer is a complete frame on an
/// in-sync connection — it must go back to the pool, not burn it. The
/// fake server accepts exactly one connection, so the follow-up ping
/// only works if the client reused the scan's connection.
#[test]
fn scan_error_answer_repools_the_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        // One connection, ever. Answer pings Ok, scans with an Err.
        loop {
            let mut len = [0u8; 4];
            use std::io::Read;
            if s.read_exact(&mut len).is_err() {
                return;
            }
            let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
            s.read_exact(&mut payload).unwrap();
            let resp = match Request::decode(&payload).unwrap() {
                Request::Scan { .. } => Response::Err(
                    lsm_kvs::Error::invalid_argument("scan refused for the test"),
                ),
                _ => Response::Ok,
            };
            s.write_all(&lsm_server::protocol::frame(&resp.encode())).unwrap();
        }
    });

    let client = RemoteDb::connect(&addr).unwrap();
    assert_eq!(client.pooled_connections(), 1);
    let err = client.scan(b"", 10).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidArgument, "{err}");
    assert_eq!(
        client.pooled_connections(),
        1,
        "an Err answer burned the connection instead of repooling it"
    );
    // Reuses the same (only) connection — and it is still in sync.
    client.ping().unwrap();
    drop(client); // closes the socket; the fake server thread exits
    server.join().unwrap();
}

/// Satellite (b): idempotent requests survive a server restart through
/// one bounded reconnect-and-retry; the stale pooled connections are
/// discarded, not retried forever.
#[test]
fn idempotent_get_retries_across_server_restart() {
    let env = wall_env();
    let vfs = Arc::new(MemVfs::new());
    let db = Db::builder(Options::default())
        .env(&env)
        .vfs(Arc::clone(&vfs) as Arc<dyn Vfs>)
        .open()
        .unwrap();
    let mut handle = serve(Arc::new(db), "127.0.0.1:0").unwrap();
    let addr = handle.local_addr().to_string();

    let client = RemoteDb::connect(&addr).unwrap();
    client.put(b"canary", b"v1").unwrap();
    assert_eq!(client.get(b"canary").unwrap(), Some(b"v1".to_vec()));

    // Restart the server on the same address over the same storage.
    handle.shutdown();
    drop(handle);
    let deadline = Instant::now() + Duration::from_secs(10);
    let _handle2 = loop {
        let db = Db::builder(Options::default())
            .env(&env)
            .vfs(Arc::clone(&vfs) as Arc<dyn Vfs>)
            .open()
            .unwrap();
        match serve(Arc::new(db), &addr) {
            Ok(h) => break h,
            Err(e) if Instant::now() < deadline => {
                // The old listener's port may linger briefly.
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("could not rebind {addr}: {e}"),
        }
    };

    // The pooled connection is dead; the get must transparently redial.
    assert_eq!(
        client.get(b"canary").unwrap(),
        Some(b"v1".to_vec()),
        "idempotent read did not survive the restart"
    );
}

/// Satellite (c): when the Stats RPC fails, `stats()` serves the last
/// good snapshot (flagged stale) instead of fabricating zeros that turn
/// every downstream ticker delta negative.
#[test]
fn stats_failure_serves_last_good_snapshot() {
    let env = wall_env();
    let db = Db::builder(Options::default())
        .env(&env)
        .vfs(Arc::new(MemVfs::new()))
        .open()
        .unwrap();
    let mut handle = serve(Arc::new(db), "127.0.0.1:0").unwrap();
    let client = RemoteDb::connect(&handle.local_addr().to_string()).unwrap();

    for i in 0..25u32 {
        client.put(format!("s{i}").as_bytes(), b"v").unwrap();
    }
    let live = client.stats();
    assert!(!client.stats_stale());
    assert_eq!(live.tickers.get(lsm_kvs::Ticker::KeysWritten), 25);
    assert!(live.last_sequence > 0);

    handle.shutdown();
    drop(handle);

    let cached = client.stats();
    assert!(client.stats_stale(), "failed fetch must flag the snapshot stale");
    assert_eq!(
        cached.tickers.get(lsm_kvs::Ticker::KeysWritten),
        25,
        "cached snapshot replaced by zeros"
    );
    assert_eq!(cached.last_sequence, live.last_sequence);
    assert!(client.stats_checked().is_err(), "the checked path stays honest");
}

/// Satellite (d): the pool never grows past peak concurrency, and a
/// connection that saw a transport error is really gone from it.
#[test]
fn pool_bounded_by_peak_concurrency() {
    let env = wall_env();
    let db = Db::builder(Options::default())
        .env(&env)
        .vfs(Arc::new(MemVfs::new()))
        .open()
        .unwrap();
    let mut handle = serve(Arc::new(db), "127.0.0.1:0").unwrap();
    let client = Arc::new(RemoteDb::connect(&handle.local_addr().to_string()).unwrap());

    let threads = 8usize;
    let calls = 50u32;
    let mut joins = Vec::new();
    for t in 0..threads {
        let client = Arc::clone(&client);
        joins.push(std::thread::spawn(move || {
            for i in 0..calls {
                let key = format!("k{}", (t as u32 * 7 + i) % 32);
                client.put(key.as_bytes(), b"v").unwrap();
                client.get(key.as_bytes()).unwrap();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let pooled = client.pooled_connections();
    assert!(
        pooled <= threads,
        "{threads} threads × {calls} calls grew the pool to {pooled} connections"
    );
    assert!(pooled >= 1);

    // Kill the server: the next call fails, and the dead connections do
    // not linger in the pool.
    handle.shutdown();
    drop(handle);
    assert!(client.ping().is_err());
    assert_eq!(
        client.pooled_connections(),
        0,
        "connections that saw a transport error were repooled"
    );
}

/// Satellite sweep: the merge-scan must return *exactly* `limit` live
/// entries across node boundaries — no short reads when a node's range
/// is thick with tombstones, no duplicated or skipped keys at the split
/// points themselves.
#[test]
fn cluster_merge_scan_exact_limit_across_node_boundaries() {
    let env = wall_env();
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..3 {
        let db = Arc::new(
            Db::builder(Options::default())
                .env(&env)
                .vfs(Arc::new(MemVfs::new()))
                .open()
                .unwrap(),
        );
        let h = serve(Arc::clone(&db) as Arc<dyn KvEngine>, "127.0.0.1:0").unwrap();
        addrs.push(h.local_addr().to_string());
        handles.push((h, db));
    }
    let splits = vec![b"k0300".to_vec(), b"k0600".to_vec()];
    let cluster = ClusterClient::connect(&addrs.join(","), splits).unwrap();

    // 900 keys spanning three ranges; the split-point keys themselves
    // exist, and the runs just below each boundary are deleted so the
    // merge must reach into the next node to honor the limit.
    let mut live = Vec::new();
    for i in 0..900u32 {
        let key = format!("k{i:04}").into_bytes();
        cluster.put(&key, format!("v{i}").as_bytes()).unwrap();
        let deleted = (280..300).contains(&i) || (580..600).contains(&i) || i % 11 == 5;
        if deleted {
            cluster.delete(&key).unwrap();
        } else {
            live.push(key);
        }
    }
    let left_live = live.iter().filter(|k| k.as_slice() < b"k0300".as_slice()).count();
    let mid_live = live.iter().filter(|k| k.as_slice() < b"k0600".as_slice()).count();
    for limit in [
        1usize,
        left_live - 1,
        left_live, // exactly exhausts node 0
        left_live + 1, // first entry of node 1: the split-point key itself
        mid_live,
        mid_live + 1,
        live.len(),
        live.len() + 100,
    ] {
        let got = cluster.scan(b"", limit).unwrap();
        assert_eq!(got.len(), limit.min(live.len()), "scan limit {limit} short/long read");
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "limit {limit}: sorted, no dups");
        for (i, (k, _)) in got.iter().enumerate() {
            assert_eq!(k, &live[i], "limit {limit}: entry {i} wrong at a boundary");
        }
    }
    // Starting exactly on a split point begins with that key and never
    // re-serves anything from the node to its left.
    let from_split = cluster.scan(b"k0300", 5).unwrap();
    assert_eq!(from_split[0].0, b"k0300".to_vec());
    assert_eq!(from_split.len(), 5);
    let want: Vec<&Vec<u8>> =
        live.iter().skip_while(|k| k.as_slice() < b"k0300".as_slice()).take(5).collect();
    for (got, want) in from_split.iter().zip(want) {
        assert_eq!(&got.0, want);
    }
}
