//! Connection churn: many connections at once, then many in a row, and
//! afterwards the server holds no connection and no thread it did not
//! hold before. In a test binary of its own so that the process has no
//! other test's threads in its count.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hw_sim::HardwareEnv;
use lsm_kvs::options::Options;
use lsm_kvs::vfs::MemVfs;
use lsm_kvs::Db;
use lsm_server::{serve, Conn, Request, Response};

/// The process's thread count, where the platform tells (Linux).
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:"))?.trim().parse().ok()
}

/// Polls `cond` every 10ms until it holds or a second has passed.
fn within_a_second(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(1);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

#[test]
fn churn_leaves_no_connection_and_no_thread_behind() {
    let env = HardwareEnv::builder().cores(2).build_wall();
    let db = Db::builder(Options::default()).env(&env).vfs(Arc::new(MemVfs::new())).open().unwrap();
    db.put(b"warm", b"up").unwrap(); // whatever the engine starts lazily has started
    let handle = serve(Arc::new(db), "127.0.0.1:0").unwrap();
    let addr = handle.local_addr().to_string();
    let stats = handle.stats();
    let before = thread_count();

    // 64 connections open at once, each pipelining a few requests.
    let mut conns: Vec<Conn> = (0..64).map(|_| Conn::connect(&addr).unwrap()).collect();
    let reqs = |i: usize| {
        let key = format!("c{i:02}").into_bytes();
        [
            Request::Put { sync: false, key: key.clone(), value: key.clone() },
            Request::Get { key },
            Request::Ping,
        ]
    };
    for (i, conn) in conns.iter_mut().enumerate() {
        for req in &reqs(i) {
            conn.send(req).unwrap();
        }
    }
    for (i, conn) in conns.iter_mut().enumerate() {
        let [put, get, ping] = reqs(i);
        assert_eq!(conn.receive(&put).unwrap(), Response::Ok, "conn {i}");
        let key = format!("c{i:02}").into_bytes();
        assert_eq!(conn.receive(&get).unwrap(), Response::Value(key), "conn {i}");
        assert_eq!(conn.receive(&ping).unwrap(), Response::Ok, "conn {i}");
    }
    assert_eq!(stats.connections_active.load(Ordering::Relaxed), 64);
    drop(conns);

    // 200 in a row: connect, ping, close.
    for round in 0..200 {
        let mut conn = Conn::connect(&addr).unwrap();
        assert_eq!(conn.call(&Request::Ping).unwrap(), Response::Ok, "round {round}");
    }

    assert_eq!(stats.connections_accepted.load(Ordering::Relaxed), 264);
    assert!(
        within_a_second(|| stats.connections_active.load(Ordering::Relaxed) == 0),
        "{} connections still counted active",
        stats.connections_active.load(Ordering::Relaxed)
    );
    let mut fresh = Conn::connect(&addr).unwrap();
    assert_eq!(fresh.call(&Request::Ping).unwrap(), Response::Ok, "server stopped answering");
    drop(fresh);
    if let Some(before) = before {
        assert!(
            within_a_second(|| thread_count().is_some_and(|now| now <= before + 2)),
            "{before} threads before the churn, {:?} after",
            thread_count()
        );
    }
}
