//! # lsm-server — network serving layer for `lsm-kvs`
//!
//! Turns the engine into a service: `kv_server` listens on a TCP port
//! and speaks a length-prefixed binary protocol
//! (Get/MultiGet/Put/Delete/Batch/Scan/Flush/Stats and control ops).
//! Every connection gets a blocking thread of its own that reads a
//! frame, executes it over the [`lsm_kvs::KvEngine`] trait and writes
//! the response — a plain [`lsm_kvs::Db`] or a sharded
//! [`lsm_kvs::ShardedDb`] serve identically. A connection costs a
//! thread; the server does not try to hold thousands of idle sockets.
//!
//! Three properties the protocol and server guarantee:
//!
//! - **Pipelining**: each connection is processed strictly FIFO (one
//!   thread, one socket), so a client may stream many request frames
//!   before reading responses.
//! - **Backpressure**: while the engine's write controller reports a
//!   stopped regime, connections stop reading their sockets and let TCP
//!   flow control push the stall to clients.
//! - **Durable acks**: a write is acknowledged only after the engine
//!   commits it under the request's sync flag; graceful shutdown drains
//!   in-flight requests before releasing the engine.
//!
//! Every byte moves through one reader and one writer —
//! [`protocol::FrameReader`] over an `impl Read`,
//! [`protocol::write_frame`] over an `impl Write` — shared by the
//! server, the client and both ends of replication. The crate is plain
//! `std::net` with no platform bindings (`forbid(unsafe_code)` holds it
//! to that), so nothing ties it to Linux — though CI runs it nowhere
//! else.
//!
//! The [`client::RemoteDb`] implements [`lsm_kvs::KvEngine`], so
//! benchmarks and the tuning loop run unchanged against a live server
//! (`db_bench --remote host:port`).
//!
//! On top of single servers sit the cluster pieces: [`repl`] ships WAL
//! records from a leader to followers (semi-synchronous acks, snapshot
//! bootstrap, promotion), and [`cluster::ClusterClient`] range-routes a
//! key space over many servers with follower failover — also a
//! [`lsm_kvs::KvEngine`], so `db_bench --cluster` and the tuning loop
//! drive a whole fleet unchanged.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod cluster;
pub mod protocol;
pub mod repl;
pub mod server;

pub use client::{Conn, RemoteDb};
pub use cluster::ClusterClient;
pub use protocol::{Request, Response, MAX_FRAME_LEN};
pub use repl::{
    prepare_follower_storage, serve_replicas, start_follower, FollowerHandle, FollowerStatus,
    ReplicaListenerHandle, ReplicationHub,
};
pub use server::{serve, serve_with_role, ServerHandle, ServerRole, ServerStats};
