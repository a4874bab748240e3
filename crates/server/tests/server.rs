//! End-to-end tests for the serving layer: request routing, pipelining,
//! protocol robustness under malformed frames, backpressure, graceful
//! shutdown under load, and the durability contract across a simulated
//! power cut (fault-injection VFS).

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hw_sim::HardwareEnv;
use lsm_kvs::options::Options;
use lsm_kvs::vfs::MemVfs;
use lsm_kvs::{
    Db, FaultInjectionVfs, KvEngine, ShardedDb, TearStyle, Vfs, WriteBatch, WriteOptions,
};
use lsm_server::protocol::{op, frame};
use lsm_server::{serve, Conn, RemoteDb, Request, Response, ServerHandle};

fn wall_env() -> HardwareEnv {
    HardwareEnv::builder().cores(2).build_wall()
}

/// Starts a server over a fresh real-mode `Db` on `vfs`.
fn start_db_server(opts: Options, vfs: Arc<dyn Vfs>) -> (ServerHandle, String) {
    let env = wall_env();
    let db = Db::builder(opts).env(&env).vfs(vfs).open().unwrap();
    let handle = serve(Arc::new(db), "127.0.0.1:0").unwrap();
    let addr = handle.local_addr().to_string();
    (handle, addr)
}

/// Minimal deterministic RNG (xorshift64*), mirroring the crash harness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

#[test]
fn end_to_end_ops_roundtrip() {
    let (handle, addr) = start_db_server(Options::default(), Arc::new(MemVfs::new()));
    let client = RemoteDb::connect(&addr).unwrap();

    client.ping().unwrap();
    client.put(b"alpha", b"1").unwrap();
    client.put(b"beta", b"2").unwrap();
    assert_eq!(client.get(b"alpha").unwrap(), Some(b"1".to_vec()));
    assert_eq!(client.get(b"missing").unwrap(), None);

    client.delete(b"alpha").unwrap();
    assert_eq!(client.get(b"alpha").unwrap(), None);

    let mut batch = WriteBatch::new();
    batch.put(b"gamma", b"3");
    batch.put(b"delta", b"4");
    batch.delete(b"beta");
    client.write_opt(&WriteOptions::synced(), batch).unwrap();

    let entries = client.scan(b"", 10).unwrap();
    assert_eq!(
        entries,
        vec![(b"delta".to_vec(), b"4".to_vec()), (b"gamma".to_vec(), b"3".to_vec())]
    );

    client.flush().unwrap();
    client.wait_background_idle().unwrap();

    let text = client.stats_text();
    assert!(text.contains("** DB Stats **"), "engine dump present:\n{text}");
    assert!(text.contains("** Server Stats **"), "server section present:\n{text}");
    let stats = client.stats();
    assert!(stats.last_sequence > 0, "stats blob decoded: {stats:?}");
    drop(handle);
}

/// A stamped (`TtlValue`) entry is engine state: the write path makes one
/// while TTL is on and the replica port ships it. A client that holds one
/// (a batch made from a shipped record) is told no — the entry used to
/// cross the client port as a plain put of its stamp-suffixed bytes.
#[test]
fn a_stamped_entry_from_a_client_is_refused_not_rewritten() {
    let (handle, addr) = start_db_server(Options::default(), Arc::new(MemVfs::new()));
    let client = RemoteDb::connect(&addr).unwrap();

    let mut record = vec![0u8; 8];
    record.extend_from_slice(&1u32.to_le_bytes());
    record.extend_from_slice(&[2, 1, b'k', 9, b'v']);
    record.extend_from_slice(&1234u64.to_le_bytes());
    let batch = WriteBatch::decode(&record).unwrap();
    assert_eq!(batch.iter().next().unwrap().0, lsm_kvs::ValueType::TtlValue);

    let err = client.write_opt(&WriteOptions::default(), batch).unwrap_err();
    assert_eq!(err.kind(), lsm_kvs::ErrorKind::Corruption, "{err}");
    assert_eq!(client.get(b"k").unwrap(), None, "nothing was written");
    assert!(handle.stats().protocol_errors.load(Ordering::Relaxed) > 0);
    drop(handle);
}

#[test]
fn sharded_engine_serves_identically() {
    let env = wall_env();
    let db = ShardedDb::builder(Options { num_shards: 4, ..Options::default() })
        .env(&env)
        .vfs(Arc::new(MemVfs::new()))
        .open()
        .unwrap();
    let handle = serve(Arc::new(db), "127.0.0.1:0").unwrap();
    let client = RemoteDb::connect(&handle.local_addr().to_string()).unwrap();

    // Keys spread over the default two-byte boundaries.
    let keys: Vec<Vec<u8>> = (0..=255u8).step_by(16).map(|b| vec![b, b]).collect();
    for k in &keys {
        client.put(k, k).unwrap();
    }
    for k in &keys {
        assert_eq!(client.get(k).unwrap(), Some(k.clone()));
    }
    let all = client.scan(b"", 1000).unwrap();
    assert_eq!(all.len(), keys.len());
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "cross-shard scan sorted");
    drop(handle);
}

#[test]
fn pipelined_requests_answered_in_order() {
    let (handle, addr) = start_db_server(Options::default(), Arc::new(MemVfs::new()));
    let mut conn = Conn::connect(&addr).unwrap();

    // Stream all requests before reading a single response.
    let n = 64u32;
    let mut reqs = Vec::new();
    for i in 0..n {
        reqs.push(Request::Put {
            sync: false,
            key: format!("p{i:03}").into_bytes(),
            value: format!("v{i}").into_bytes(),
        });
    }
    for i in 0..n {
        reqs.push(Request::Get { key: format!("p{i:03}").into_bytes() });
    }
    for r in &reqs {
        conn.send(r).unwrap();
    }
    for (i, r) in reqs.iter().enumerate() {
        let resp = conn.receive(r).unwrap();
        if i < n as usize {
            assert_eq!(resp, Response::Ok, "put #{i}");
        } else {
            let expect = format!("v{}", i - n as usize).into_bytes();
            assert_eq!(resp, Response::Value(expect), "get #{i} answered in order");
        }
    }
    drop(handle);
}

#[test]
fn malformed_frames_error_the_connection_only() {
    let (handle, addr) = start_db_server(Options::default(), Arc::new(MemVfs::new()));

    // A long-lived healthy connection that must survive every abuse
    // below unscathed.
    let healthy = RemoteDb::connect(&addr).unwrap();
    healthy.put(b"canary", b"alive").unwrap();

    // Deterministic garbage: random bytes, random lengths.
    let mut rng = Rng(0xBAD_F00D);
    for round in 0..40 {
        let mut garbage = Vec::new();
        for _ in 0..(1 + rng.next() % 64) {
            garbage.push(rng.next() as u8);
        }
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(&garbage).unwrap();
        // Close the write half so a partial frame surfaces quickly.
        let _ = s.shutdown(std::net::Shutdown::Write);
        // Whatever happens — error frame or plain close — must not take
        // the server down. Drain until EOF.
        let mut sink = Vec::new();
        use std::io::Read;
        let _ = s.read_to_end(&mut sink);
        assert!(
            healthy.get(b"canary").unwrap() == Some(b"alive".to_vec()),
            "healthy connection corrupted after round {round}"
        );
    }

    // Targeted abuses.
    let cases: Vec<Vec<u8>> = vec![
        // Length prefix far beyond MAX_FRAME_LEN.
        u32::MAX.to_le_bytes().to_vec(),
        // Valid length, unknown opcode.
        frame(&[250u8]),
        // Valid length, truncated PUT payload.
        frame(&[op::PUT, 1, 9, 0, 0, 0]),
        // Ping with trailing junk.
        frame(&[op::PING, 7, 7]),
        // Batch claiming more ops than the frame holds.
        frame(&[op::BATCH, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 0, 0]),
        // The retired Batch opcode, in the layout it used to have.
        frame(&[op::RETIRED_BATCH, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, b'k']),
        // Empty payload.
        frame(&[]),
    ];
    for (i, bytes) in cases.iter().enumerate() {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(bytes).unwrap();
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut sink = Vec::new();
        use std::io::Read;
        let _ = s.read_to_end(&mut sink);
        assert_eq!(
            healthy.get(b"canary").unwrap(),
            Some(b"alive".to_vec()),
            "healthy connection corrupted after case {i}"
        );
    }

    // The server kept count of the abuse and kept serving.
    assert!(handle.stats().protocol_errors.load(Ordering::Relaxed) > 0);
    healthy.put(b"canary", b"still alive").unwrap();
    assert_eq!(healthy.get(b"canary").unwrap(), Some(b"still alive".to_vec()));
    drop(handle);
}

#[test]
fn graceful_shutdown_under_load_loses_no_acked_writes() {
    let vfs = Arc::new(MemVfs::new());
    let (mut handle, addr) = start_db_server(Options::default(), vfs.clone());

    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for t in 0..3u32 {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        writers.push(std::thread::spawn(move || {
            let client = match RemoteDb::connect(&addr) {
                Ok(c) => c,
                Err(_) => return Vec::new(),
            };
            let mut acked: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let key = format!("t{t}-{i:06}").into_bytes();
                let value = format!("val-{t}-{i}").into_bytes();
                let mut batch = WriteBatch::new();
                batch.put(&key, &value);
                match client.write_opt(&WriteOptions::synced(), batch) {
                    Ok(()) => acked.push((key, value)),
                    // Shutdown reached this connection; whatever was
                    // acked before stands, the rest never happened.
                    Err(_) => break,
                }
                i += 1;
            }
            acked
        }));
    }

    // Let the writers build up steam, then pull the plug mid-flight.
    std::thread::sleep(Duration::from_millis(300));
    handle.shutdown();
    stop.store(true, Ordering::Relaxed);
    let mut acked: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for w in writers {
        acked.extend(w.join().unwrap());
    }
    assert!(!acked.is_empty(), "load generator never got a write through");
    drop(handle); // releases the engine; Db::Drop syncs and closes

    // Reopen the same store: every acked (synced) write must be there.
    let env = wall_env();
    let db = Db::builder(Options::default()).env(&env).vfs(vfs).open().unwrap();
    for (key, value) in &acked {
        assert_eq!(
            db.get(key).unwrap().as_deref(),
            Some(value.as_slice()),
            "acked write {:?} lost by shutdown",
            String::from_utf8_lossy(key)
        );
    }
}

#[test]
fn power_cut_mid_write_loses_no_acked_writes() {
    let fault = FaultInjectionVfs::wrap(Arc::new(MemVfs::new()));
    let (handle, addr) = start_db_server(Options::default(), Arc::new(fault.clone()));

    let mut writers = Vec::new();
    for t in 0..2u32 {
        let addr = addr.clone();
        writers.push(std::thread::spawn(move || {
            let client = match RemoteDb::connect(&addr) {
                Ok(c) => c,
                Err(_) => return Vec::new(),
            };
            let mut acked: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            for i in 0..50_000u64 {
                let key = format!("t{t}-{i:06}").into_bytes();
                let value = format!("val-{t}-{i}").into_bytes();
                let mut batch = WriteBatch::new();
                batch.put(&key, &value);
                match client.write_opt(&WriteOptions::synced(), batch) {
                    Ok(()) => acked.push((key, value)),
                    Err(_) => break, // power is out; nothing further acks
                }
            }
            acked
        }));
    }

    // Cut power while requests are in flight. In-flight writes either
    // acked before the cut (and were synced) or error out.
    std::thread::sleep(Duration::from_millis(250));
    fault.power_off();
    let mut acked: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    for w in writers {
        acked.extend(w.join().unwrap());
    }
    assert!(!acked.is_empty(), "no write acked before the power cut");
    drop(handle); // drains and releases the (now failing) engine

    // Reboot dropping everything unsynced, reopen, verify the contract.
    fault.reboot(TearStyle::DropUnsynced);
    let env = wall_env();
    let db = Db::builder(Options::default())
        .env(&env)
        .vfs(Arc::new(fault.clone()))
        .open()
        .unwrap();
    for (key, value) in &acked {
        assert_eq!(
            db.get(key).unwrap().as_deref(),
            Some(value.as_slice()),
            "acked synced write {:?} lost across power cut",
            String::from_utf8_lossy(key)
        );
    }
}

#[test]
fn backpressure_pauses_intake_while_stopped() {
    // Two L0 files with stop trigger 2 and auto compaction disabled:
    // the engine reports Stopped until a manual compaction clears L0.
    let opts = Options {
        level0_slowdown_writes_trigger: 2,
        level0_stop_writes_trigger: 2,
        disable_auto_compactions: true,
        ..Options::default()
    };
    let env = wall_env();
    let db = Arc::new(
        Db::builder(opts).env(&env).vfs(Arc::new(MemVfs::new())).open().unwrap(),
    );
    for (k, v) in [(b"a", b"1"), (b"b", b"2")] {
        db.put(k, v).unwrap();
        db.flush().unwrap();
    }
    db.wait_background_idle().unwrap();
    assert_eq!(db.write_regime(), lsm_kvs::WriteRegime::Stopped);

    let engine: Arc<dyn KvEngine> = Arc::clone(&db) as Arc<dyn KvEngine>;
    let handle = serve(engine, "127.0.0.1:0").unwrap();
    let addr = handle.local_addr().to_string();

    let done = Arc::new(AtomicBool::new(false));
    let done2 = Arc::clone(&done);
    let pinger = std::thread::spawn(move || {
        let client = RemoteDb::connect(&addr).unwrap();
        client.ping().unwrap();
        done2.store(true, Ordering::SeqCst);
    });

    // While stopped, the server must not even read the ping.
    std::thread::sleep(Duration::from_millis(400));
    assert!(!done.load(Ordering::SeqCst), "request served during a write stall");
    assert!(handle.stats().backpressure_stalls.load(Ordering::Relaxed) >= 1);

    // Clearing the stall releases the connection and the ping completes.
    db.compact_range(b"", b"\xff\xff").unwrap();
    assert_eq!(db.write_regime(), lsm_kvs::WriteRegime::Normal);
    pinger.join().unwrap();
    assert!(done.load(Ordering::SeqCst));
    drop(handle);
}

/// A MultiGet pipelined between writes on one connection sees exactly
/// the writes that preceded it — FIFO ordering holds across the mixed
/// request stream, and every response comes back in request order.
#[test]
fn multiget_interleaves_with_pipelined_writes_in_order() {
    let (handle, addr) = start_db_server(Options::default(), Arc::new(MemVfs::new()));
    let mut conn = Conn::connect(&addr).unwrap();

    let keys: Vec<Vec<u8>> = (0..8u32).map(|i| format!("mk{i}").into_bytes()).collect();
    // Stream: put k0..k3, MultiGet(all 8), put k4..k7, Get(k6), MultiGet(all 8).
    let mut reqs: Vec<Request> = Vec::new();
    for k in &keys[..4] {
        reqs.push(Request::Put { sync: false, key: k.clone(), value: b"early".to_vec() });
    }
    reqs.push(Request::MultiGet { keys: keys.clone() });
    for k in &keys[4..] {
        reqs.push(Request::Put { sync: false, key: k.clone(), value: b"late".to_vec() });
    }
    reqs.push(Request::Get { key: keys[6].clone() });
    reqs.push(Request::MultiGet { keys: keys.clone() });
    for r in &reqs {
        conn.send(r).unwrap();
    }

    let responses: Vec<Response> = reqs.iter().map(|r| conn.receive(r).unwrap()).collect();
    for (i, r) in responses[..4].iter().enumerate() {
        assert_eq!(*r, Response::Ok, "early put #{i}");
    }
    // The first MultiGet ran after 4 puts and before the rest.
    let mut expect: Vec<Option<Vec<u8>>> = vec![Some(b"early".to_vec()); 4];
    expect.extend(vec![None; 4]);
    assert_eq!(responses[4], Response::Values(expect), "mid-stream MultiGet snapshot");
    for (i, r) in responses[5..9].iter().enumerate() {
        assert_eq!(*r, Response::Ok, "late put #{i}");
    }
    assert_eq!(responses[9], Response::Value(b"late".to_vec()));
    let all: Vec<Option<Vec<u8>>> = keys
        .iter()
        .enumerate()
        .map(|(i, _)| Some(if i < 4 { b"early".to_vec() } else { b"late".to_vec() }))
        .collect();
    assert_eq!(responses[10], Response::Values(all), "final MultiGet sees everything");
    drop(handle);
}

/// `RemoteDb::multi_get` against a sharded engine: answers correct and
/// input-ordered across shard boundaries, and the engine-side tickers
/// prove the batched path (not a get loop) served the request.
#[test]
fn multiget_spans_shards_through_server() {
    let env = wall_env();
    let db = Arc::new(
        ShardedDb::builder(Options { num_shards: 4, ..Options::default() })
            .env(&env)
            .vfs(Arc::new(MemVfs::new()))
            .open()
            .unwrap(),
    );
    let handle = serve(Arc::clone(&db) as Arc<dyn KvEngine>, "127.0.0.1:0").unwrap();
    let client = RemoteDb::connect(&handle.local_addr().to_string()).unwrap();

    let keys: Vec<Vec<u8>> = (0..=255u8).step_by(8).map(|b| vec![b, b]).collect();
    for k in &keys {
        client.put(k, k).unwrap();
    }
    // Reverse order plus misses sprinkled in.
    let mut asked: Vec<Vec<u8>> = keys.iter().rev().cloned().collect();
    asked.insert(3, b"missing-low".to_vec());
    asked.push(b"\xff\xff\xffmissing-high".to_vec());

    let got = client.multi_get(&asked).unwrap();
    assert_eq!(got.len(), asked.len());
    for (k, v) in asked.iter().zip(&got) {
        let expect = if k.len() == 2 { Some(k.clone()) } else { None };
        assert_eq!(*v, expect, "wrong answer for {k:?}");
    }
    let tickers = db.stats().tickers;
    assert!(tickers.get(lsm_kvs::Ticker::MultiGetBatches) >= 1, "batched path not taken");
    assert_eq!(tickers.get(lsm_kvs::Ticker::MultiGetKeysRead), asked.len() as u64);
    drop(handle);
}

/// A MultiGet frame whose count field lies about the payload errors and
/// closes only the offending connection; a healthy client sails on.
#[test]
fn malformed_multiget_frame_errors_connection_only() {
    let (handle, addr) = start_db_server(Options::default(), Arc::new(MemVfs::new()));
    let healthy = RemoteDb::connect(&addr).unwrap();
    healthy.put(b"canary", b"alive").unwrap();

    let cases: Vec<Vec<u8>> = vec![
        // Count claims more keys than the frame could hold.
        frame(&[op::MULTI_GET, 255, 255, 255, 0]),
        // Count of 3 but only one (empty) key encoded.
        frame(&[op::MULTI_GET, 3, 0, 0, 0, 0, 0, 0, 0]),
        // Truncated mid key-length.
        frame(&[op::MULTI_GET, 1, 0, 0, 0, 5, 0]),
    ];
    for (i, bytes) in cases.iter().enumerate() {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(bytes).unwrap();
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut sink = Vec::new();
        use std::io::Read;
        let _ = s.read_to_end(&mut sink);
        assert!(!sink.is_empty(), "case {i}: expected an error frame before close");
        assert_eq!(
            healthy.get(b"canary").unwrap(),
            Some(b"alive".to_vec()),
            "healthy connection corrupted after case {i}"
        );
    }
    assert!(handle.stats().protocol_errors.load(Ordering::Relaxed) >= cases.len() as u64);
    drop(handle);
}

/// A scan larger than one chunk streams back as multiple ScanChunk
/// frames (visible at the protocol level) and reassembles losslessly
/// through `RemoteDb::scan`.
#[test]
fn large_scan_streams_in_chunks() {
    use lsm_server::protocol::SCAN_CHUNK_MAX_ENTRIES;

    let (handle, addr) = start_db_server(Options::default(), Arc::new(MemVfs::new()));
    let client = RemoteDb::connect(&addr).unwrap();

    let total = SCAN_CHUNK_MAX_ENTRIES + 700; // forces exactly two chunks
    let mut batch = WriteBatch::new();
    for i in 0..total {
        batch.put(format!("s{i:06}").as_bytes(), format!("v{i}").as_bytes());
    }
    client.write_opt(&WriteOptions { sync: false }, batch).unwrap();

    // High-level: the pooled client reassembles the full result.
    let entries = client.scan(b"s", total + 10).unwrap();
    assert_eq!(entries.len(), total);
    assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "scan order broken");
    assert_eq!(entries[0].0, b"s000000".to_vec());

    // Protocol level: two frames, has_more true then false, bounded size.
    let req = Request::Scan { start: b"s".to_vec(), count: total as u32 };
    let mut conn = Conn::connect(&addr).unwrap();
    conn.send(&req).unwrap();
    let mut chunks = Vec::new();
    loop {
        match conn.receive(&req).unwrap() {
            Response::ScanChunk { entries, has_more } => {
                chunks.push((entries.len(), has_more));
                if !has_more {
                    break;
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(
        chunks,
        vec![(SCAN_CHUNK_MAX_ENTRIES, true), (700, false)],
        "chunk framing"
    );
    drop(handle);
}

/// Regression: the client caps the server's length prefix. A server
/// that announces an absurd frame gets a structured corruption error,
/// not a giant allocation.
#[test]
fn client_rejects_oversized_server_frame() {
    use lsm_server::MAX_FRAME_LEN;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake_server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        // Ignore whatever the client asked; answer with a lying prefix.
        let evil = (MAX_FRAME_LEN + 1).to_le_bytes();
        s.write_all(&evil).unwrap();
        // Hold the socket open so the client fails on the prefix, not EOF.
        std::thread::sleep(Duration::from_millis(200));
    });

    let mut conn = Conn::connect(&addr).unwrap();
    let req = Request::Ping;
    conn.send(&req).unwrap();
    let err = conn.receive(&req).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("frame"), "error names the oversized frame: {msg}");
    fake_server.join().unwrap();
}

/// Reads one length-prefixed frame payload off a raw socket.
fn read_frame(s: &mut TcpStream) -> Vec<u8> {
    use std::io::Read;
    let mut len = [0u8; 4];
    s.read_exact(&mut len).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    s.read_exact(&mut payload).unwrap();
    payload
}

/// Regression: a client that sends complete request frames and then
/// half-closes is a clean frame-boundary EOF, not a truncation — even
/// when the frames and the FIN reach the server in one read. The engine
/// is stalled first so that coalescing is guaranteed, not
/// timing-dependent: while the write regime is Stopped the server reads
/// nothing, so the requests and the FIN pile up and arrive together
/// once the stall clears.
#[test]
fn half_close_after_complete_frames_is_served() {
    let opts = Options {
        level0_slowdown_writes_trigger: 2,
        level0_stop_writes_trigger: 2,
        disable_auto_compactions: true,
        ..Options::default()
    };
    let env = wall_env();
    let db = Arc::new(
        Db::builder(opts).env(&env).vfs(Arc::new(MemVfs::new())).open().unwrap(),
    );
    for (k, v) in [(&b"canary"[..], &b"alive"[..]), (b"other", b"x")] {
        db.put(k, v).unwrap();
        db.flush().unwrap();
    }
    db.wait_background_idle().unwrap();
    assert_eq!(db.write_regime(), lsm_kvs::WriteRegime::Stopped);

    let handle = serve(Arc::clone(&db) as Arc<dyn KvEngine>, "127.0.0.1:0").unwrap();
    let addr = handle.local_addr().to_string();

    // Send two pipelined requests plus FIN while the server is stalled.
    let get = Request::Get { key: b"canary".to_vec() };
    let ping = Request::Ping;
    let mut burst = Vec::new();
    burst.extend_from_slice(&frame(&get.encode()));
    burst.extend_from_slice(&frame(&ping.encode()));
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(&burst).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    std::thread::sleep(Duration::from_millis(200)); // FIN reaches the kernel buffer

    // Clear the stall; the server now reads data + EOF in one pass.
    db.compact_range(b"", b"\xff\xff").unwrap();

    let first = Response::decode(&get, &read_frame(&mut s)).unwrap();
    assert_eq!(first, Response::Value(b"alive".to_vec()), "get answered, not errored");
    let second = Response::decode(&ping, &read_frame(&mut s)).unwrap();
    assert_eq!(second, Response::Ok, "pipelined ping answered after the get");
    let mut rest = Vec::new();
    use std::io::Read;
    s.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "clean close after the responses");

    // Same shape against the now-normal server, a few rounds for luck.
    for round in 0..10 {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(&burst).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        assert_eq!(
            Response::decode(&get, &read_frame(&mut s)).unwrap(),
            Response::Value(b"alive".to_vec()),
            "round {round}"
        );
        assert_eq!(Response::decode(&ping, &read_frame(&mut s)).unwrap(), Response::Ok);
    }
    assert_eq!(
        handle.stats().protocol_errors.load(Ordering::Relaxed),
        0,
        "half-close at a frame boundary must not count as a protocol error"
    );
    drop(handle);
}

/// Regression: a lone-Get client that never reads its (large) response
/// must not stall anyone else. Whatever of the response the socket will
/// not take yet waits on that connection alone, so other connections
/// keep being served immediately — and the slow reader still receives
/// its full value once it gets around to reading.
#[test]
fn slow_reader_does_not_stall_other_connections() {
    let (handle, addr) = start_db_server(Options::default(), Arc::new(MemVfs::new()));
    let client = RemoteDb::connect(&addr).unwrap();
    let big = vec![0xABu8; 8 << 20]; // far beyond any socket buffering
    client.put(b"big", &big).unwrap();

    let get = Request::Get { key: b"big".to_vec() };
    let mut slow = TcpStream::connect(&addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    slow.write_all(&frame(&get.encode())).unwrap();
    // Let the response run into the full send buffer.
    std::thread::sleep(Duration::from_millis(300));

    // Every other connection must stay live while the slow reader idles.
    let t0 = std::time::Instant::now();
    for _ in 0..20 {
        client.ping().unwrap();
    }
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "other connections stalled behind a slow reader for {:?}",
        t0.elapsed()
    );

    // The slow reader eventually drains its complete, correct value.
    match Response::decode(&get, &read_frame(&mut slow)).unwrap() {
        Response::Value(v) => assert_eq!(v, big, "big value flushed intact"),
        other => panic!("unexpected response {other:?}"),
    }
    drop(handle);
}

/// Puts a connection in the state shutdown has to be careful with: the
/// server holds the first half of a synced Put and nothing else. The
/// half rides behind a Ping in the same segment, so the Ping's answer
/// proves the server has read it. Returns the socket, the request and
/// the half still to send.
fn connection_holding_half_a_put(addr: &str) -> (TcpStream, Request, Vec<u8>) {
    let put = Request::Put { sync: true, key: b"straddler".to_vec(), value: b"whole".to_vec() };
    let bytes = frame(&put.encode());
    let (head, tail) = bytes.split_at(bytes.len() / 2);
    let mut first = frame(&Request::Ping.encode());
    first.extend_from_slice(head);
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(&first).unwrap();
    assert_eq!(Response::decode(&Request::Ping, &read_frame(&mut s)).unwrap(), Response::Ok);
    (s, put, tail.to_vec())
}

/// Shutdown's grace for a frame caught half-received: the rest arrives
/// while the server is already draining, and the write is still
/// committed, acked and there after a reopen. (Shutdown is requested
/// over the wire so the test knows it has begun before it sends the
/// second half.)
#[test]
fn shutdown_serves_a_frame_whose_second_half_arrives_during_the_drain() {
    let vfs = Arc::new(MemVfs::new());
    let (mut handle, addr) = start_db_server(Options::default(), vfs.clone());
    let (mut s, put, tail) = connection_holding_half_a_put(&addr);

    RemoteDb::connect(&addr).unwrap().shutdown_server().unwrap();
    handle.wait_for_shutdown_request();
    std::thread::sleep(Duration::from_millis(100));
    s.write_all(&tail).unwrap();
    assert_eq!(
        Response::decode(&put, &read_frame(&mut s)).unwrap(),
        Response::Ok,
        "the straddling Put was not acked"
    );
    handle.shutdown();
    drop(handle);

    let env = wall_env();
    let db = Db::builder(Options::default()).env(&env).vfs(vfs).open().unwrap();
    assert_eq!(db.get(b"straddler").unwrap().as_deref(), Some(&b"whole"[..]));
}

/// The other side of the grace: a client that sent half a frame and went
/// silent is told so and closed, and holds shutdown up for the grace
/// period (1 s) — not less, and not much more.
#[test]
fn shutdown_gives_a_silent_half_frame_its_grace_and_no_more() {
    let (mut handle, addr) = start_db_server(Options::default(), Arc::new(MemVfs::new()));
    let (mut s, put, _tail) = connection_holding_half_a_put(&addr);

    let t0 = std::time::Instant::now();
    handle.shutdown();
    let took = t0.elapsed();
    assert!(took >= Duration::from_secs(1), "shutdown cut the grace short: {took:?}");
    assert!(took < Duration::from_secs(2), "shutdown outlasted the grace: {took:?}");
    match Response::decode(&put, &read_frame(&mut s)).unwrap() {
        Response::Err(e) => assert!(
            e.to_string().contains("idle mid-frame during shutdown"),
            "unexpected error: {e}"
        ),
        other => panic!("unexpected response {other:?}"),
    }
}

/// A retired option name in a SetOptions batch refuses the whole batch:
/// the valid change riding with it must not be applied.
/// Also the `RemoteDb` leg of lsm-kvs's
/// `set_options_answers_deprecated_names_like_set_by_name`: the RPC gives
/// the registry's own answer for a retired name, remap included.
#[test]
fn set_options_rpc_refuses_a_retired_name_all_or_nothing() {
    let (handle, addr) = start_db_server(Options::default(), Arc::new(MemVfs::new()));
    let client = RemoteDb::connect(&addr).unwrap();
    let before = client.options_ini().unwrap();
    for (name, value) in [
        ("index_type", "kTwoLevelIndexSearch"),
        ("metadata_block_size", "1024"),
        ("db_log_dir", "/var/log"),
        ("shard_bytes_soft_limit", "64MB"),
    ] {
        let want = Options::default().set_by_name(name, value).unwrap_err().to_string();
        let err = client
            .set_options(&[
                ("write_buffer_size".to_string(), "33554432".to_string()),
                (name.to_string(), value.to_string()),
            ])
            .expect_err("a retired name without a remap is refused");
        assert_eq!(err.kind(), lsm_kvs::ErrorKind::InvalidArgument, "{name}");
        assert_eq!(err.to_string(), want, "{name}");
        assert_eq!(client.options_ini().unwrap(), before, "{name}: all-or-nothing was violated");
    }
    client
        .set_options(&[("base_background_compactions".to_string(), "3".to_string())])
        .unwrap();
    let after = client.options_ini().unwrap();
    assert!(after.contains("max_background_compactions=3"), "{after}");
    client.ping().unwrap();
    drop(handle);
}

#[test]
fn checkpoint_rpc_roundtrips_through_restore() {
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let (handle, addr) = start_db_server(Options::default(), Arc::clone(&vfs));
    let client = RemoteDb::connect(&addr).unwrap();
    for i in 0..300u32 {
        let mut batch = WriteBatch::new();
        batch.put(format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes());
        client.write_opt(&WriteOptions { sync: true }, batch).unwrap();
    }
    client.checkpoint("backups/ckpt-1").unwrap();
    // Post-checkpoint writes must not leak into the published copy.
    for i in 0..300u32 {
        client.put(format!("k{i:04}").as_bytes(), b"changed-later").unwrap();
    }

    // Path traversal is refused, and the connection survives the error.
    for bad in ["", "/abs", "../escape", "a/../b", "a//b"] {
        let err = client.checkpoint(bad).unwrap_err();
        assert_eq!(err.kind(), lsm_kvs::ErrorKind::InvalidArgument, "dir {bad:?}");
    }
    client.ping().unwrap();

    drop(handle); // drain: the engine is released before the restore opens
    let env = wall_env();
    let restored = Db::builder(Options::default())
        .env(&env)
        .vfs(Arc::new(lsm_kvs::NamespaceVfs::new(vfs, "backups/ckpt-1/".to_string())))
        .open()
        .unwrap();
    for i in 0..300u32 {
        assert_eq!(
            restored.get(format!("k{i:04}").as_bytes()).unwrap(),
            Some(format!("v{i}").into_bytes()),
            "restored checkpoint missing k{i:04}"
        );
    }
}

/// Satellite sweep: chunked-scan reassembly must hand back *exactly*
/// `limit` live entries across chunk boundaries — no short reads when
/// tombstones sit in the range, no duplicates at chunk split points.
#[test]
fn remote_scan_limit_exact_across_chunk_boundaries() {
    let (handle, addr) = start_db_server(Options::default(), Arc::new(MemVfs::new()));
    let client = RemoteDb::connect(&addr).unwrap();
    // 2600 keys straddle two chunk boundaries (chunks hold 1024); every
    // 7th key is deleted so tombstones pepper the whole range.
    let mut live = Vec::new();
    for i in 0..2600u32 {
        let key = format!("k{i:05}").into_bytes();
        client.put(&key, format!("v{i}").as_bytes()).unwrap();
        if i % 7 == 3 {
            client.delete(&key).unwrap();
        } else {
            live.push(key);
        }
    }
    for limit in [1usize, 5, 1023, 1024, 1025, 2047, 2048, 2049, live.len(), live.len() + 500] {
        let got = client.scan(b"", limit).unwrap();
        assert_eq!(got.len(), limit.min(live.len()), "scan limit {limit}");
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "limit {limit}: sorted, no dups");
        for (i, (k, _)) in got.iter().enumerate() {
            assert_eq!(k, &live[i], "limit {limit}: entry {i} wrong (short read or dup)");
        }
    }
    // A limit below one chunk must not over-fetch: the server answers
    // with a single final chunk holding exactly `limit` entries.
    let req = Request::Scan { start: b"".to_vec(), count: 10 };
    let mut conn = Conn::connect(&addr).unwrap();
    conn.send(&req).unwrap();
    match conn.receive(&req).unwrap() {
        Response::ScanChunk { entries, has_more } => {
            assert_eq!(entries.len(), 10);
            assert!(!has_more, "small-limit scan promised more chunks");
        }
        other => panic!("unexpected response {other:?}"),
    }
    drop(handle);
}

/// Satellite sweep catch: a scan limit that does not fit in the wire
/// format's u32 must clamp, not wrap. `1 << 32` used to truncate to a
/// count of zero and come back as an empty (short) read.
#[test]
fn remote_scan_huge_limit_clamps_instead_of_wrapping() {
    let (handle, addr) = start_db_server(Options::default(), Arc::new(MemVfs::new()));
    let client = RemoteDb::connect(&addr).unwrap();
    for i in 0..5u32 {
        client.put(format!("k{i}").as_bytes(), b"v").unwrap();
    }
    for huge in [1usize << 32, usize::MAX] {
        let got = client.scan(b"", huge).unwrap();
        assert_eq!(got.len(), 5, "limit {huge} wrapped at the wire format");
    }
    drop(handle);
}
