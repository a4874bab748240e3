//! Wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! +----------------+---------------------+
//! | len: u32 LE    | payload (len bytes) |
//! +----------------+---------------------+
//! ```
//!
//! A request payload starts with an opcode byte; a response payload
//! starts with a status byte. Frames are independent, so a client may
//! pipeline: write any number of request frames without waiting, then
//! read the responses, which arrive in request order (the server
//! processes each connection strictly FIFO).
//!
//! All integers are little-endian. Frames larger than [`MAX_FRAME_LEN`]
//! are a protocol error; the server answers with an error frame and
//! closes that connection (only that one — framing corruption never
//! leaks across connections).

use std::io::{self, Read, Write};

use lsm_kvs::{
    CacheStats, DbStats, Error, ErrorKind, Result, TickerSnapshot, ValueType, WriteBatch,
    TICKER_NAMES,
};

/// Upper bound on one frame's payload. Large enough for a sizable
/// write batch, small enough that a corrupt length prefix cannot make
/// the server allocate gigabytes.
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// Request opcodes.
pub mod op {
    /// Point read.
    pub const GET: u8 = 1;
    /// Single-key write.
    pub const PUT: u8 = 2;
    /// Single-key delete.
    pub const DELETE: u8 = 3;
    /// Retired: the write batch with a wire layout of its own (a count,
    /// then `is_delete | key | value` per operation). Refused by name,
    /// never reinterpreted.
    pub const RETIRED_BATCH: u8 = 4;
    /// Forward range scan.
    pub const SCAN: u8 = 5;
    /// Memtable flush.
    pub const FLUSH: u8 = 6;
    /// Statistics snapshot + human-readable dump.
    pub const STATS: u8 = 7;
    /// Wait until background work drains.
    pub const WAIT_IDLE: u8 = 8;
    /// Liveness check.
    pub const PING: u8 = 9;
    /// Ask the server to shut down gracefully.
    pub const SHUTDOWN: u8 = 10;
    /// Batched point read: many keys in one frame, their values (or
    /// misses) back in one frame, in key order of the request.
    pub const MULTI_GET: u8 = 11;
    /// Apply dynamic option changes without a reopen (all-or-nothing).
    pub const SET_OPTIONS: u8 = 12;
    /// Dump the effective configuration as RocksDB-style ini text.
    pub const GET_OPTIONS: u8 = 13;
    /// Replication handshake: a follower announces its applied sequence.
    pub const REPLICA_HELLO: u8 = 14;
    /// Leader → follower: a group of WAL records to apply in order.
    pub const REPLICATE: u8 = 15;
    /// Follower → leader: everything up to `seq` has been applied.
    pub const REPLICA_ACK: u8 = 16;
    /// Leader → follower: one chunk of a bootstrap snapshot.
    pub const SNAPSHOT_CHUNK: u8 = 17;
    /// Leader → follower: the snapshot is complete as of `seq`.
    pub const SNAPSHOT_DONE: u8 = 18;
    /// Promote a read-only follower to leader (client port).
    pub const PROMOTE: u8 = 19;
    /// Leader → follower: the hello's `have_seq` cannot be served (the
    /// catch-up ring no longer reaches back to it, or the follower
    /// claims state the leader never committed); the follower must
    /// restart empty and re-bootstrap.
    pub const REPLICA_REJECT: u8 = 20;
    /// Take an online checkpoint into a directory on the server's storage.
    pub const CHECKPOINT: u8 = 21;
    /// Atomic (per shard) write batch; the body is the batch's WAL record.
    pub const BATCH: u8 = 22;
}

/// Upper bound on entries in one streamed `Scan` response chunk. A scan
/// response is a *sequence* of chunk frames, each carrying at most this
/// many entries plus a has-more flag; the unbounded single-frame shape
/// would hit [`MAX_FRAME_LEN`] on large ranges and make one slow scan
/// monopolize a connection's write path.
pub const SCAN_CHUNK_MAX_ENTRIES: usize = 1024;

/// Response status bytes.
pub mod status {
    /// Success; body is op-specific.
    pub const OK: u8 = 0;
    /// Successful get that found no value.
    pub const NOT_FOUND: u8 = 1;
    /// Failure; body is an encoded [`lsm_kvs::Error`].
    pub const ERR: u8 = 2;
}

/// Write-request flag bits.
pub const FLAG_SYNC: u8 = 1;

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Point read of one key.
    Get {
        /// Key to look up.
        key: Vec<u8>,
    },
    /// Single-key write; `sync` asks for a durable ack.
    Put {
        /// Durable-ack flag.
        sync: bool,
        /// Key.
        key: Vec<u8>,
        /// Value.
        value: Vec<u8>,
    },
    /// Single-key delete; `sync` asks for a durable ack.
    Delete {
        /// Durable-ack flag.
        sync: bool,
        /// Key.
        key: Vec<u8>,
    },
    /// Multi-op batch, atomic per shard. On the wire it is the batch's
    /// record ([`WriteBatch::record`]) — the bytes the server logs.
    Batch {
        /// Durable-ack flag.
        sync: bool,
        /// Puts and deletes only: a client does not send stamped entries.
        batch: WriteBatch,
    },
    /// Forward scan from `start` for up to `count` live entries.
    Scan {
        /// First key (inclusive).
        start: Vec<u8>,
        /// Maximum entries returned.
        count: u32,
    },
    /// Flush memtables.
    Flush,
    /// Statistics snapshot.
    Stats,
    /// Drain background work.
    WaitIdle,
    /// Liveness check.
    Ping,
    /// Graceful shutdown.
    Shutdown,
    /// Batched point read of many keys.
    MultiGet {
        /// Keys to look up; values come back in this order.
        keys: Vec<Vec<u8>>,
    },
    /// Dynamic option changes, applied all-or-nothing without a reopen.
    SetOptions {
        /// `(name, value)` pairs, registry-validated by the engine.
        changes: Vec<(String, String)>,
    },
    /// Read back the effective configuration as ini text.
    GetOptions,
    /// Replication handshake: the follower's highest applied sequence.
    /// Sent follower → leader as the first frame on a replication
    /// connection; the leader answers with a catch-up stream
    /// ([`Replicate`](Self::Replicate)) when its ring still covers
    /// `have_seq + 1`, or a snapshot bootstrap
    /// ([`SnapshotChunk`](Self::SnapshotChunk)) otherwise.
    ReplicaHello {
        /// Highest leader sequence the follower has durably applied.
        have_seq: u64,
    },
    /// Leader → follower: one shipped commit group. `records` are raw
    /// WAL record payloads ([`WriteBatch`] encoding, sequence header
    /// already stamped), in commit order.
    Replicate {
        /// Sequence of the first operation in the first record.
        first_seq: u64,
        /// Whether the group was a durable (synced) commit on the
        /// leader; the follower applies it with the same sync flag.
        sync: bool,
        /// Raw WAL record payloads, in commit order.
        records: Vec<Vec<u8>>,
    },
    /// Follower → leader: all operations up to `seq` are applied.
    ReplicaAck {
        /// Highest applied leader sequence.
        seq: u64,
    },
    /// Leader → follower: a chunk of live entries from the bootstrap
    /// snapshot scan, in key order.
    SnapshotChunk {
        /// `(key, value)` pairs.
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    },
    /// Leader → follower: the bootstrap snapshot is complete and
    /// consistent as of leader sequence `seq`; replication resumes
    /// from `seq + 1`.
    SnapshotDone {
        /// The snapshot's pinned leader sequence.
        seq: u64,
    },
    /// Promote a read-only follower to leader. Idempotent: promoting a
    /// leader is an Ok no-op.
    Promote,
    /// Take an online checkpoint into `dir/` on the server's storage.
    /// Admin RPC; the server must be started with checkpoints enabled.
    Checkpoint {
        /// Destination directory, relative to the server's store root.
        dir: String,
    },
    /// Leader → follower: the handshake's `have_seq` cannot be served —
    /// the catch-up ring no longer reaches back to it, or it is past
    /// everything the leader ever committed (a diverged follower). The
    /// follower must wipe its local state and re-bootstrap from empty.
    ReplicaReject,
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Get hit.
    Value(Vec<u8>),
    /// Get miss.
    NotFound,
    /// Ack with no body (writes, flush, ping, ...).
    Ok,
    /// One chunk of a streamed scan response. A scan's full answer is a
    /// sequence of these frames; `has_more` is false on the last chunk.
    ScanChunk {
        /// Entries in key order (at most [`SCAN_CHUNK_MAX_ENTRIES`]).
        entries: Vec<(Vec<u8>, Vec<u8>)>,
        /// Whether another chunk frame follows.
        has_more: bool,
    },
    /// MultiGet results, `None` for misses, in request key order.
    Values(Vec<Option<Vec<u8>>>),
    /// Stats dump: human-readable text plus the binary snapshot.
    Stats {
        /// `stats_text()` output plus the server's own section.
        text: String,
        /// Decoded [`DbStats`].
        stats: Box<DbStats>,
    },
    /// The engine's effective configuration as RocksDB-style ini text.
    OptionsIni(String),
    /// Error carried back from the engine (or the server's framing).
    Err(Error),
}

// ---------------------------------------------------------------------------
// Primitive readers/writers
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Cursor over a payload; every read is bounds-checked so truncated or
/// malicious frames surface as decode errors, never panics.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Error::corruption("truncated frame"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.u32()? as usize;
        // A length field cannot promise more than the frame holds;
        // checking first avoids attacker-controlled huge allocations.
        if n > self.buf.len() - self.pos {
            return Err(Error::corruption("length field exceeds frame"));
        }
        Ok(self.take(n)?.to_vec())
    }

    /// Everything not yet read.
    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn done(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Error::corruption("trailing bytes in frame"))
        }
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

impl Request {
    /// Encodes the request as a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Get { key } => {
                out.push(op::GET);
                put_bytes(&mut out, key);
            }
            Request::Put { sync, key, value } => {
                out.push(op::PUT);
                out.push(if *sync { FLAG_SYNC } else { 0 });
                put_bytes(&mut out, key);
                put_bytes(&mut out, value);
            }
            Request::Delete { sync, key } => {
                out.push(op::DELETE);
                out.push(if *sync { FLAG_SYNC } else { 0 });
                put_bytes(&mut out, key);
            }
            Request::Batch { sync, batch } => {
                out.push(op::BATCH);
                out.push(if *sync { FLAG_SYNC } else { 0 });
                out.extend_from_slice(batch.record());
            }
            Request::Scan { start, count } => {
                out.push(op::SCAN);
                put_bytes(&mut out, start);
                put_u32(&mut out, *count);
            }
            Request::Flush => out.push(op::FLUSH),
            Request::Stats => out.push(op::STATS),
            Request::WaitIdle => out.push(op::WAIT_IDLE),
            Request::Ping => out.push(op::PING),
            Request::Shutdown => out.push(op::SHUTDOWN),
            Request::MultiGet { keys } => {
                out.push(op::MULTI_GET);
                put_u32(&mut out, keys.len() as u32);
                for key in keys {
                    put_bytes(&mut out, key);
                }
            }
            Request::SetOptions { changes } => {
                out.push(op::SET_OPTIONS);
                put_u32(&mut out, changes.len() as u32);
                for (name, value) in changes {
                    put_bytes(&mut out, name.as_bytes());
                    put_bytes(&mut out, value.as_bytes());
                }
            }
            Request::GetOptions => out.push(op::GET_OPTIONS),
            Request::ReplicaHello { have_seq } => {
                out.push(op::REPLICA_HELLO);
                put_u64(&mut out, *have_seq);
            }
            Request::Replicate { first_seq, sync, records } => {
                out.push(op::REPLICATE);
                put_u64(&mut out, *first_seq);
                out.push(u8::from(*sync));
                put_u32(&mut out, records.len() as u32);
                for r in records {
                    put_bytes(&mut out, r);
                }
            }
            Request::ReplicaAck { seq } => {
                out.push(op::REPLICA_ACK);
                put_u64(&mut out, *seq);
            }
            Request::SnapshotChunk { entries } => {
                out.push(op::SNAPSHOT_CHUNK);
                put_u32(&mut out, entries.len() as u32);
                for (k, v) in entries {
                    put_bytes(&mut out, k);
                    put_bytes(&mut out, v);
                }
            }
            Request::SnapshotDone { seq } => {
                out.push(op::SNAPSHOT_DONE);
                put_u64(&mut out, *seq);
            }
            Request::Promote => out.push(op::PROMOTE),
            Request::ReplicaReject => out.push(op::REPLICA_REJECT),
            Request::Checkpoint { dir } => {
                out.push(op::CHECKPOINT);
                put_bytes(&mut out, dir.as_bytes());
            }
        }
        out
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Corruption`] on truncation, trailing bytes, or an
    /// unknown opcode.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        let mut c = Cur::new(payload);
        let op = c.u8()?;
        let req = match op {
            op::GET => Request::Get { key: c.bytes()? },
            op::PUT => {
                let sync = c.u8()? & FLAG_SYNC != 0;
                Request::Put { sync, key: c.bytes()?, value: c.bytes()? }
            }
            op::DELETE => {
                let sync = c.u8()? & FLAG_SYNC != 0;
                Request::Delete { sync, key: c.bytes()? }
            }
            op::BATCH => {
                let sync = c.u8()? & FLAG_SYNC != 0;
                let batch = WriteBatch::decode(c.rest())?;
                // A client writes values and tombstones. A stamped entry
                // is engine state; only the replica port carries it.
                if batch.iter().any(|(ty, ..)| ty == ValueType::TtlValue) {
                    return Err(Error::corruption("batch: stamped entry in a client batch"));
                }
                Request::Batch { sync, batch }
            }
            op::RETIRED_BATCH => {
                return Err(Error::corruption(format!(
                    "opcode {} (Batch with a wire layout of its own) is retired; \
                     this peer speaks opcode {} (Batch as a WAL record)",
                    op::RETIRED_BATCH,
                    op::BATCH
                )))
            }
            op::SCAN => Request::Scan { start: c.bytes()?, count: c.u32()? },
            op::FLUSH => Request::Flush,
            op::STATS => Request::Stats,
            op::WAIT_IDLE => Request::WaitIdle,
            op::PING => Request::Ping,
            op::SHUTDOWN => Request::Shutdown,
            op::MULTI_GET => {
                let n = c.u32()? as usize;
                // Each key costs at least a length prefix; a count the
                // frame cannot hold is a lie, not an allocation request.
                if n > payload.len() / 4 {
                    return Err(Error::corruption("multiget count exceeds frame"));
                }
                let mut keys = Vec::with_capacity(n);
                for _ in 0..n {
                    keys.push(c.bytes()?);
                }
                Request::MultiGet { keys }
            }
            op::SET_OPTIONS => {
                let n = c.u32()? as usize;
                // Each pair costs at least two length prefixes; a count
                // the frame cannot hold is a lie, not an allocation hint.
                if n > payload.len() / 8 {
                    return Err(Error::corruption("set_options count exceeds frame"));
                }
                let mut changes = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = String::from_utf8(c.bytes()?)
                        .map_err(|_| Error::corruption("option name is not utf-8"))?;
                    let value = String::from_utf8(c.bytes()?)
                        .map_err(|_| Error::corruption("option value is not utf-8"))?;
                    changes.push((name, value));
                }
                Request::SetOptions { changes }
            }
            op::GET_OPTIONS => Request::GetOptions,
            op::REPLICA_HELLO => Request::ReplicaHello { have_seq: c.u64()? },
            op::REPLICATE => {
                let first_seq = c.u64()?;
                let sync = match c.u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(Error::corruption(format!("bad sync flag {other}"))),
                };
                let n = c.u32()? as usize;
                // Each record costs at least a length prefix; a count the
                // frame cannot hold is a lie, not an allocation request.
                if n > payload.len() / 4 {
                    return Err(Error::corruption("replicate count exceeds frame"));
                }
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    records.push(c.bytes()?);
                }
                Request::Replicate { first_seq, sync, records }
            }
            op::REPLICA_ACK => Request::ReplicaAck { seq: c.u64()? },
            op::SNAPSHOT_CHUNK => {
                let n = c.u32()? as usize;
                // Each entry costs at least two length prefixes.
                if n > payload.len() / 8 {
                    return Err(Error::corruption("snapshot chunk count exceeds frame"));
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = c.bytes()?;
                    let v = c.bytes()?;
                    entries.push((k, v));
                }
                Request::SnapshotChunk { entries }
            }
            op::SNAPSHOT_DONE => Request::SnapshotDone { seq: c.u64()? },
            op::PROMOTE => Request::Promote,
            op::REPLICA_REJECT => Request::ReplicaReject,
            op::CHECKPOINT => Request::Checkpoint {
                dir: String::from_utf8(c.bytes()?)
                    .map_err(|_| Error::corruption("checkpoint dir is not utf-8"))?,
            },
            other => return Err(Error::corruption(format!("unknown opcode {other}"))),
        };
        c.done()?;
        Ok(req)
    }

    /// Whether this request belongs to the leader↔follower replication
    /// channel. Replication frames decode fine on the client port, but
    /// the server must refuse them there: they carry raw engine state
    /// and bypass the write path's validation.
    pub fn is_replication(&self) -> bool {
        matches!(
            self,
            Request::ReplicaHello { .. }
                | Request::Replicate { .. }
                | Request::ReplicaAck { .. }
                | Request::SnapshotChunk { .. }
                | Request::SnapshotDone { .. }
                | Request::ReplicaReject
        )
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

fn encode_error(out: &mut Vec<u8>, e: &Error) {
    out.push(status::ERR);
    out.push(error_kind_code(e.kind()));
    out.push(u8::from(e.is_retryable()));
    put_bytes(out, e.message().as_bytes());
}

fn error_kind_code(kind: ErrorKind) -> u8 {
    match kind {
        ErrorKind::Io => 0,
        ErrorKind::Corruption => 1,
        ErrorKind::InvalidArgument => 2,
        ErrorKind::ShuttingDown => 3,
        ErrorKind::NotSupported => 4,
        ErrorKind::Busy => 5,
        // The enum is non_exhaustive; map future kinds to Io so old
        // clients still see *an* error rather than a decode failure.
        _ => 0,
    }
}

fn decode_error(c: &mut Cur<'_>) -> Result<Error> {
    let kind = c.u8()?;
    let retryable = c.u8()? != 0;
    let msg = String::from_utf8_lossy(&c.bytes()?).into_owned();
    let e = match kind {
        0 => Error::io(msg),
        1 => Error::corruption(msg),
        2 => Error::invalid_argument(msg),
        3 => Error::shutting_down(),
        4 => Error::not_supported(msg),
        5 => Error::busy(msg),
        other => return Err(Error::corruption(format!("unknown error kind {other}"))),
    };
    Ok(e.retryable(retryable))
}

impl Response {
    /// Encodes the response as a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Value(v) => {
                out.push(status::OK);
                put_bytes(&mut out, v);
            }
            Response::NotFound => out.push(status::NOT_FOUND),
            Response::Ok => out.push(status::OK),
            Response::ScanChunk { entries, has_more } => {
                out.push(status::OK);
                out.push(u8::from(*has_more));
                put_u32(&mut out, entries.len() as u32);
                for (k, v) in entries {
                    put_bytes(&mut out, k);
                    put_bytes(&mut out, v);
                }
            }
            Response::Values(values) => {
                out.push(status::OK);
                put_u32(&mut out, values.len() as u32);
                for v in values {
                    match v {
                        Some(v) => {
                            out.push(1);
                            put_bytes(&mut out, v);
                        }
                        None => out.push(0),
                    }
                }
            }
            Response::Stats { text, stats } => {
                out.push(status::OK);
                put_bytes(&mut out, text.as_bytes());
                encode_db_stats(&mut out, stats);
            }
            Response::OptionsIni(text) => {
                out.push(status::OK);
                put_bytes(&mut out, text.as_bytes());
            }
            Response::Err(e) => encode_error(&mut out, e),
        }
        out
    }

    /// Decodes a frame payload; `req` disambiguates the body shape of
    /// `OK` responses (the wire carries no opcode echo).
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Corruption`] on truncation or malformed bodies.
    pub fn decode(req: &Request, payload: &[u8]) -> Result<Response> {
        let mut c = Cur::new(payload);
        let resp = match c.u8()? {
            status::NOT_FOUND => Response::NotFound,
            status::ERR => Response::Err(decode_error(&mut c)?),
            status::OK => match req {
                Request::Get { .. } => Response::Value(c.bytes()?),
                Request::Scan { .. } => {
                    let has_more = match c.u8()? {
                        0 => false,
                        1 => true,
                        other => {
                            return Err(Error::corruption(format!("bad has_more flag {other}")))
                        }
                    };
                    let n = c.u32()? as usize;
                    if n > SCAN_CHUNK_MAX_ENTRIES {
                        return Err(Error::corruption("scan chunk exceeds entry bound"));
                    }
                    let mut entries = Vec::new();
                    for _ in 0..n {
                        let k = c.bytes()?;
                        let v = c.bytes()?;
                        entries.push((k, v));
                    }
                    Response::ScanChunk { entries, has_more }
                }
                Request::MultiGet { keys } => {
                    let n = c.u32()? as usize;
                    if n != keys.len() {
                        return Err(Error::corruption(format!(
                            "multiget answered {n} values for {} keys",
                            keys.len()
                        )));
                    }
                    let mut values = Vec::with_capacity(n);
                    for _ in 0..n {
                        values.push(match c.u8()? {
                            0 => None,
                            1 => Some(c.bytes()?),
                            other => {
                                return Err(Error::corruption(format!(
                                    "bad value presence flag {other}"
                                )))
                            }
                        });
                    }
                    Response::Values(values)
                }
                Request::Stats => {
                    let text = String::from_utf8_lossy(&c.bytes()?).into_owned();
                    let stats = Box::new(decode_db_stats(&mut c)?);
                    Response::Stats { text, stats }
                }
                Request::GetOptions => {
                    Response::OptionsIni(String::from_utf8_lossy(&c.bytes()?).into_owned())
                }
                _ => Response::Ok,
            },
            other => return Err(Error::corruption(format!("unknown status {other}"))),
        };
        c.done()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// DbStats over the wire
// ---------------------------------------------------------------------------

fn encode_db_stats(out: &mut Vec<u8>, s: &DbStats) {
    put_u32(out, TICKER_NAMES.len() as u32);
    for v in &s.tickers.values {
        put_u64(out, *v);
    }
    put_u32(out, s.levels.len() as u32);
    for (files, bytes) in &s.levels {
        put_u64(out, *files as u64);
        put_u64(out, *bytes);
    }
    put_u64(out, s.memtable_bytes);
    put_u64(out, s.immutable_memtables as u64);
    put_u64(out, s.block_cache.hits);
    put_u64(out, s.block_cache.misses);
    put_u64(out, s.block_cache.inserts);
    put_u64(out, s.block_cache.evictions);
    put_u64(out, s.block_cache_capacity);
    put_u64(out, s.pending_compaction_bytes);
    put_u64(out, s.running_background_jobs as u64);
    put_u64(out, s.last_sequence);
    put_u64(out, s.background_retries);
    put_u64(out, s.wal_rotations);
    put_u64(out, s.manifest_resyncs);
    put_u64(out, s.wal_sync_retries);
}

fn decode_db_stats(c: &mut Cur<'_>) -> Result<DbStats> {
    let n = c.u32()? as usize;
    if n != TICKER_NAMES.len() {
        return Err(Error::corruption(format!(
            "peer has {n} tickers, this build has {}",
            TICKER_NAMES.len()
        )));
    }
    let mut tickers = TickerSnapshot { values: [0; TICKER_NAMES.len()] };
    for v in tickers.values.iter_mut() {
        *v = c.u64()?;
    }
    let levels_n = c.u32()? as usize;
    if levels_n > 64 {
        return Err(Error::corruption("implausible level count"));
    }
    let mut levels = Vec::with_capacity(levels_n);
    for _ in 0..levels_n {
        let files = c.u64()? as usize;
        let bytes = c.u64()?;
        levels.push((files, bytes));
    }
    Ok(DbStats {
        tickers,
        levels,
        memtable_bytes: c.u64()?,
        immutable_memtables: c.u64()? as usize,
        block_cache: CacheStats {
            hits: c.u64()?,
            misses: c.u64()?,
            inserts: c.u64()?,
            evictions: c.u64()?,
        },
        block_cache_capacity: c.u64()?,
        pending_compaction_bytes: c.u64()?,
        running_background_jobs: c.u64()? as usize,
        last_sequence: c.u64()?,
        background_retries: c.u64()?,
        wal_rotations: c.u64()?,
        manifest_resyncs: c.u64()?,
        wal_sync_retries: c.u64()?,
    })
}

// ---------------------------------------------------------------------------
// Frame I/O over std streams
// ---------------------------------------------------------------------------

/// Prepends the length prefix to a payload.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(payload);
    out
}

/// Sends one payload as one frame — the only way `lsm-server` writes to
/// a peer. Whatever bounds the write (a socket timeout, a deadline) is
/// the writer's business.
///
/// # Errors
///
/// The writer's error; the frame may have been partly written, so the
/// stream is no longer usable.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame(payload))
}

/// What [`unframe`] finds at the front of a receive buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Unframed<'a> {
    /// A whole frame: its payload. The frame occupies the first
    /// `4 + payload.len()` bytes of the buffer.
    Frame(&'a [u8]),
    /// No whole frame yet; at least this many more bytes are needed.
    NeedMore(usize),
    /// The length prefix announces more than [`MAX_FRAME_LEN`] bytes. The
    /// stream cannot be resynchronised; what to tell the peer is the
    /// caller's business.
    Oversized(u32),
}

/// The reader-side twin of [`frame`]: splits the first frame off `buf`.
pub fn unframe(buf: &[u8]) -> Unframed<'_> {
    let Some((prefix, rest)) = buf.split_first_chunk::<4>() else {
        return Unframed::NeedMore(4 - buf.len());
    };
    let len = u32::from_le_bytes(*prefix);
    if len > MAX_FRAME_LEN {
        return Unframed::Oversized(len);
    }
    match rest.get(..len as usize) {
        Some(payload) => Unframed::Frame(payload),
        None => Unframed::NeedMore(len as usize - rest.len()),
    }
}

/// Why [`FrameReader::next_frame`] has no frame to give. Only
/// [`TimedOut`](Self::TimedOut) leaves the reader usable.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream part-way through a frame.
    Truncated,
    /// The length prefix announces this many bytes, more than
    /// [`MAX_FRAME_LEN`]; the stream cannot be resynchronised.
    Oversized(u32),
    /// The source's read timeout expired. Everything received so far is
    /// still buffered: look at a stop flag or a deadline, then call
    /// again.
    TimedOut,
    /// Any other read error.
    Io(io::Error),
}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        match e {
            FrameError::Truncated => {
                io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed mid-frame")
            }
            FrameError::Oversized(len) => io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds {MAX_FRAME_LEN}"),
            ),
            FrameError::TimedOut => io::Error::new(io::ErrorKind::TimedOut, "read timed out"),
            FrameError::Io(e) => e,
        }
    }
}

/// How much one `read` asks the source for: a frame's prefix and payload
/// — and any pipelined frames behind it — usually arrive in one call.
const READ_CHUNK: usize = 16 * 1024;

/// The only way `lsm-server` reads from a peer: a buffered reader that
/// hands out one whole payload at a time. Each user keeps only its own
/// reaction to the ways a stream can end.
pub struct FrameReader<R> {
    src: R,
    /// Bytes read off the source; `buf[start..]` is not yet handed out.
    buf: Vec<u8>,
    start: usize,
}

impl<R: Read> FrameReader<R> {
    /// A reader with nothing buffered.
    pub fn new(src: R) -> FrameReader<R> {
        FrameReader { src, buf: Vec::new(), start: 0 }
    }

    /// The underlying source (a `&TcpStream` is also the way to write).
    pub fn get_ref(&self) -> &R {
        &self.src
    }

    /// Whether every byte received so far has been handed out as part of
    /// a whole frame — the only point at which the stream may end, or be
    /// abandoned, without losing a request.
    pub fn at_boundary(&self) -> bool {
        self.start == self.buf.len()
    }

    /// The next whole payload, reading the source only when the buffer
    /// does not already hold one. `Ok(None)` is a clean end: the peer
    /// closed the stream at a frame boundary.
    ///
    /// # Errors
    ///
    /// See [`FrameError`].
    pub fn next_frame(&mut self) -> std::result::Result<Option<&[u8]>, FrameError> {
        let len = loop {
            match unframe(&self.buf[self.start..]) {
                Unframed::Frame(payload) => break payload.len(),
                Unframed::Oversized(len) => return Err(FrameError::Oversized(len)),
                Unframed::NeedMore(need) => {
                    self.buf.drain(..self.start);
                    self.start = 0;
                    self.buf.reserve(need);
                }
            }
            let mut chunk = [0u8; READ_CHUNK];
            match self.src.read(&mut chunk) {
                Ok(0) if self.at_boundary() => return Ok(None),
                Ok(0) => return Err(FrameError::Truncated),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    return Err(FrameError::TimedOut)
                }
                Err(e) => return Err(FrameError::Io(e)),
            }
        };
        let payload = self.start + 4..self.start + 4 + len;
        self.start = payload.end;
        Ok(Some(&self.buf[payload]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unframe_splits_what_frame_joined() {
        let mut buf = frame(b"abc");
        buf.extend_from_slice(&frame(b""));
        assert_eq!(unframe(&buf), Unframed::Frame(b"abc"));
        assert_eq!(unframe(&buf[7..]), Unframed::Frame(b""));
        assert_eq!(unframe(&buf[..6]), Unframed::NeedMore(1));
        assert_eq!(unframe(&buf[..2]), Unframed::NeedMore(2));
        assert_eq!(unframe(&[]), Unframed::NeedMore(4));
        let too_long = (MAX_FRAME_LEN + 1).to_le_bytes();
        assert_eq!(unframe(&too_long), Unframed::Oversized(MAX_FRAME_LEN + 1));
        assert_eq!(unframe(&MAX_FRAME_LEN.to_le_bytes()), Unframed::NeedMore(MAX_FRAME_LEN as usize));
    }

    /// A source that plays back a script of `read` results; an empty
    /// script reads as EOF.
    struct Script(std::collections::VecDeque<io::Result<Vec<u8>>>);

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                Some(Ok(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(Err(e)) => Err(e),
                None => Ok(0),
            }
        }
    }

    fn reader(script: Vec<io::Result<Vec<u8>>>) -> FrameReader<Script> {
        FrameReader::new(Script(script.into()))
    }

    #[test]
    fn frame_reader_tells_apart_every_way_a_stream_ends() {
        // Two frames and the first bytes of a third in one read, the
        // rest after a timeout that must lose nothing, then a clean EOF.
        let mut bytes = frame(b"one");
        bytes.extend_from_slice(&frame(b""));
        let third = frame(b"three");
        bytes.extend_from_slice(&third[..5]);
        let timeout = || Err(io::Error::from(io::ErrorKind::WouldBlock));
        let mut r = reader(vec![Ok(bytes), timeout(), Ok(third[5..].to_vec())]);
        assert!(r.at_boundary());
        assert_eq!(r.next_frame().unwrap(), Some(&b"one"[..]));
        assert!(!r.at_boundary(), "a whole frame is still buffered");
        assert_eq!(r.next_frame().unwrap(), Some(&b""[..]));
        assert!(matches!(r.next_frame(), Err(FrameError::TimedOut)));
        assert!(!r.at_boundary(), "half a frame is buffered");
        assert_eq!(r.next_frame().unwrap(), Some(&b"three"[..]));
        assert!(r.at_boundary());
        assert_eq!(r.next_frame().unwrap(), None, "EOF at a boundary is clean");

        let mut r = reader(vec![Ok(frame(b"cut short")[..7].to_vec())]);
        assert!(matches!(r.next_frame(), Err(FrameError::Truncated)));

        let mut whole_then_lie = frame(b"ok");
        whole_then_lie.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut r = reader(vec![Ok(whole_then_lie)]);
        assert_eq!(r.next_frame().unwrap(), Some(&b"ok"[..]), "the frame ahead of the lie is owed");
        assert!(matches!(r.next_frame(), Err(FrameError::Oversized(len)) if len == MAX_FRAME_LEN + 1));

        let mut r = reader(vec![Err(io::Error::from(io::ErrorKind::ConnectionReset))]);
        assert!(matches!(r.next_frame(), Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::ConnectionReset));

        let mut sent = Vec::new();
        write_frame(&mut sent, b"abc").unwrap();
        assert_eq!(sent, frame(b"abc"));
    }

    fn roundtrip_req(req: Request) {
        let enc = req.encode();
        assert_eq!(Request::decode(&enc).unwrap(), req);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Get { key: b"k".to_vec() });
        roundtrip_req(Request::Put { sync: true, key: b"k".to_vec(), value: b"v".to_vec() });
        roundtrip_req(Request::Delete { sync: false, key: b"k".to_vec() });
        let mut batch = WriteBatch::new();
        batch.put(b"a", b"1").delete(b"b");
        roundtrip_req(Request::Batch { sync: true, batch });
        roundtrip_req(Request::Batch { sync: false, batch: WriteBatch::new() });
        roundtrip_req(Request::Scan { start: b"s".to_vec(), count: 10 });
        roundtrip_req(Request::Flush);
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::WaitIdle);
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Shutdown);
        roundtrip_req(Request::MultiGet {
            keys: vec![b"a".to_vec(), Vec::new(), b"ccc".to_vec()],
        });
        roundtrip_req(Request::SetOptions {
            changes: vec![
                ("write_buffer_size".to_string(), "64MB".to_string()),
                ("compression".to_string(), "zstd".to_string()),
            ],
        });
        roundtrip_req(Request::SetOptions { changes: Vec::new() });
        roundtrip_req(Request::GetOptions);
        roundtrip_req(Request::ReplicaHello { have_seq: 42 });
        roundtrip_req(Request::Replicate {
            first_seq: 7,
            sync: true,
            records: vec![b"record-one".to_vec(), Vec::new(), b"r3".to_vec()],
        });
        roundtrip_req(Request::Replicate { first_seq: 0, sync: false, records: Vec::new() });
        roundtrip_req(Request::ReplicaAck { seq: u64::MAX });
        roundtrip_req(Request::SnapshotChunk {
            entries: vec![(b"a".to_vec(), b"1".to_vec()), (b"b".to_vec(), Vec::new())],
        });
        roundtrip_req(Request::SnapshotChunk { entries: Vec::new() });
        roundtrip_req(Request::SnapshotDone { seq: 99 });
        roundtrip_req(Request::Promote);
        roundtrip_req(Request::ReplicaReject);
        roundtrip_req(Request::Checkpoint { dir: "backups/ckpt-1".to_string() });
    }

    #[test]
    fn replication_requests_are_flagged() {
        assert!(Request::ReplicaHello { have_seq: 0 }.is_replication());
        assert!(Request::Replicate { first_seq: 1, sync: false, records: Vec::new() }
            .is_replication());
        assert!(Request::ReplicaAck { seq: 1 }.is_replication());
        assert!(Request::SnapshotChunk { entries: Vec::new() }.is_replication());
        assert!(Request::SnapshotDone { seq: 1 }.is_replication());
        assert!(Request::ReplicaReject.is_replication());
        // Promote travels on the client port; it is an admin RPC, not stream state.
        assert!(!Request::Promote.is_replication());
        assert!(!Request::Checkpoint { dir: "d".to_string() }.is_replication());
        assert!(!Request::Ping.is_replication());
    }

    #[test]
    fn truncated_replication_frames_error_not_panic() {
        let full = Request::Replicate {
            first_seq: 12,
            sync: true,
            records: vec![b"first-record".to_vec(), b"second".to_vec()],
        }
        .encode();
        for cut in 0..full.len() {
            assert!(Request::decode(&full[..cut]).is_err(), "cut at {cut}");
        }
        let full = Request::SnapshotChunk {
            entries: vec![(b"key-one".to_vec(), b"value-one".to_vec())],
        }
        .encode();
        for cut in 0..full.len() {
            assert!(Request::decode(&full[..cut]).is_err(), "cut at {cut}");
        }
        // Count fields promising more than the frame can hold.
        let mut lying = vec![op::REPLICATE];
        lying.extend_from_slice(&7u64.to_le_bytes());
        lying.push(1);
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&lying).is_err());
        let mut lying = vec![op::SNAPSHOT_CHUNK];
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&lying).is_err());
        // A bad sync flag is corruption, not a silent default.
        let mut bad_sync = vec![op::REPLICATE];
        bad_sync.extend_from_slice(&7u64.to_le_bytes());
        bad_sync.push(2);
        bad_sync.extend_from_slice(&0u32.to_le_bytes());
        assert!(Request::decode(&bad_sync).is_err());
    }

    #[test]
    fn response_roundtrips() {
        let get = Request::Get { key: b"k".to_vec() };
        for resp in [
            Response::Value(b"v".to_vec()),
            Response::NotFound,
            Response::Err(Error::invalid_argument("nope")),
        ] {
            let enc = resp.encode();
            assert_eq!(Response::decode(&get, &enc).unwrap(), resp);
        }
        let scan = Request::Scan { start: Vec::new(), count: 5 };
        for chunk in [
            Response::ScanChunk {
                entries: vec![(b"a".to_vec(), b"1".to_vec())],
                has_more: true,
            },
            Response::ScanChunk { entries: Vec::new(), has_more: false },
        ] {
            assert_eq!(Response::decode(&scan, &chunk.encode()).unwrap(), chunk);
        }
        let mget = Request::MultiGet { keys: vec![b"a".to_vec(), b"b".to_vec()] };
        let values = Response::Values(vec![Some(b"1".to_vec()), None]);
        assert_eq!(Response::decode(&mget, &values.encode()).unwrap(), values);
    }

    #[test]
    fn truncated_multiget_frames_error_not_panic() {
        let full = Request::MultiGet {
            keys: vec![b"key-one".to_vec(), b"key-two".to_vec()],
        }
        .encode();
        for cut in 0..full.len() {
            assert!(Request::decode(&full[..cut]).is_err(), "cut at {cut}");
        }
        // A count field promising more keys than the frame can hold.
        let mut lying = vec![op::MULTI_GET];
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&lying).is_err());

        let req = Request::MultiGet { keys: vec![b"a".to_vec(), b"b".to_vec()] };
        let resp = Response::Values(vec![Some(b"v".to_vec()), None]).encode();
        for cut in 0..resp.len() {
            assert!(Response::decode(&req, &resp[..cut]).is_err(), "cut at {cut}");
        }
        // Answer count must match the question.
        let short = Response::Values(vec![Some(b"v".to_vec())]).encode();
        assert!(Response::decode(&req, &short).is_err());
    }

    #[test]
    fn set_options_and_get_options_roundtrip_responses() {
        let set = Request::SetOptions {
            changes: vec![("compression".to_string(), "zstd".to_string())],
        };
        for resp in [Response::Ok, Response::Err(Error::invalid_argument("immutable"))] {
            assert_eq!(Response::decode(&set, &resp.encode()).unwrap(), resp);
        }
        let get = Request::GetOptions;
        let dump = Response::OptionsIni("[DBOptions]\n  max_background_jobs=4\n".to_string());
        assert_eq!(Response::decode(&get, &dump.encode()).unwrap(), dump);
    }

    #[test]
    fn truncated_set_options_frames_error_not_panic() {
        let full = Request::SetOptions {
            changes: vec![
                ("write_buffer_size".to_string(), "32MB".to_string()),
                ("level0_stop_writes_trigger".to_string(), "40".to_string()),
            ],
        }
        .encode();
        for cut in 0..full.len() {
            assert!(Request::decode(&full[..cut]).is_err(), "cut at {cut}");
        }
        // A count field promising more pairs than the frame can hold.
        let mut lying = vec![op::SET_OPTIONS];
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&lying).is_err());
        // Non-utf8 names and values are corruption, not panics.
        let mut bad = vec![op::SET_OPTIONS];
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0xff, 0xfe]);
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.push(b'1');
        assert!(Request::decode(&bad).is_err());

        let get = Request::GetOptions;
        let dump = Response::OptionsIni("[DBOptions]\n  x=1\n".to_string()).encode();
        for cut in 0..dump.len() {
            assert!(Response::decode(&get, &dump[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn truncated_scan_chunks_error_not_panic() {
        let scan = Request::Scan { start: Vec::new(), count: 5 };
        let chunk = Response::ScanChunk {
            entries: vec![(b"k".to_vec(), b"v".to_vec())],
            has_more: true,
        }
        .encode();
        for cut in 0..chunk.len() {
            assert!(Response::decode(&scan, &chunk[..cut]).is_err(), "cut at {cut}");
        }
        // An entry count above the chunk bound is rejected before any
        // allocation, even if the frame length could cover it.
        let mut over = vec![status::OK, 0];
        over.extend_from_slice(&((SCAN_CHUNK_MAX_ENTRIES as u32 + 1).to_le_bytes()));
        assert!(Response::decode(&scan, &over).is_err());
    }

    /// A `Batch` body comes from outside. Everything its decoder is told
    /// — the count, each length, each entry type — is checked against the
    /// frame before anything is built from it, and refused as
    /// `Corruption`.
    #[test]
    fn batch_frames_refuse_what_the_frame_does_not_hold() {
        let refused = |payload: &[u8], why: &str| {
            let err = Request::decode(payload).expect_err(why);
            assert_eq!(err.kind(), ErrorKind::Corruption, "{why}: {err}");
        };
        let mut batch = WriteBatch::new();
        batch.put(b"key", b"value").delete(b"gone");
        let full = Request::Batch { sync: true, batch }.encode();
        // opcode | flags | fixed64 seq | fixed32 count | entries.
        const COUNT: usize = 2 + 8;
        const FIRST_TYPE: usize = COUNT + 4;
        assert_eq!(full[COUNT..FIRST_TYPE], 2u32.to_le_bytes());
        assert!(Request::decode(&full).is_ok());

        for cut in 0..full.len() {
            refused(&full[..cut], &format!("cut at {cut}"));
        }
        for count in [0u32, 1, 3, 1 << 20, u32::MAX] {
            let mut lying = full.clone();
            lying[COUNT..FIRST_TYPE].copy_from_slice(&count.to_le_bytes());
            refused(&lying, &format!("count {count} over two entries"));
        }
        let mut past_end = full.clone();
        past_end[FIRST_TYPE + 1] = 200; // the first key's length
        refused(&past_end, "a key running past the end");
        let mut trailing = full.clone();
        trailing.push(0);
        refused(&trailing, "trailing bytes");
        let mut unknown = full.clone();
        unknown[FIRST_TYPE] = 7;
        refused(&unknown, "an entry type nobody writes");
    }

    /// A stamped entry is engine state. The same record is a fine
    /// `Replicate` payload (the replica port's follower accepts it with
    /// `WriteBatch::from_record`) and a refused client batch: the type
    /// travels verbatim and the server says no, where the client used to
    /// turn it into a plain put of the stamp-suffixed bytes.
    #[test]
    fn stamped_entries_cross_the_replica_port_only() {
        let mut record = vec![0u8; 8];
        record.extend_from_slice(&1u32.to_le_bytes());
        record.extend_from_slice(&[ValueType::TtlValue as u8, 1, b'k', 9, b'v']);
        record.extend_from_slice(&1234u64.to_le_bytes());
        let stamped = WriteBatch::decode(&record).unwrap();

        let shipped = Request::Replicate { first_seq: 1, sync: false, records: vec![record.clone()] };
        let Request::Replicate { records, .. } = Request::decode(&shipped.encode()).unwrap() else {
            panic!("a Replicate frame decodes as one");
        };
        assert_eq!(WriteBatch::from_record(records[0].clone()).unwrap(), stamped);

        let from_client = Request::Batch { sync: false, batch: stamped }.encode();
        assert_eq!(from_client[2..], record[..], "the type travels verbatim");
        let err = Request::decode(&from_client).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Corruption);
        assert!(err.message().contains("stamped"), "{err}");
    }

    /// Mixed-version peers refuse each other's batch frames by name: the
    /// old opcode is never read as anything else, and an old peer answers
    /// the new one with its own "unknown opcode".
    #[test]
    fn the_retired_batch_opcode_is_refused_by_name() {
        // What the previous release sent for `put(k, v)` in a batch.
        let mut old = vec![op::RETIRED_BATCH, FLAG_SYNC];
        old.extend_from_slice(&1u32.to_le_bytes());
        old.push(0);
        put_bytes(&mut old, b"k");
        put_bytes(&mut old, b"v");
        let err = Request::decode(&old).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Corruption);
        assert!(err.message().contains("retired"), "{err}");
        assert_ne!(op::BATCH, op::RETIRED_BATCH);
    }

    #[test]
    fn truncated_frames_error_not_panic() {
        let full = Request::Put { sync: true, key: b"key".to_vec(), value: b"value".to_vec() }
            .encode();
        for cut in 0..full.len() {
            let _ = Request::decode(&full[..cut]); // must not panic
        }
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[200]).is_err(), "unknown opcode");
        // Length field promising more than the frame holds.
        let mut lying = vec![op::GET];
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&lying).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut enc = Request::Ping.encode();
        enc.push(0);
        assert!(Request::decode(&enc).is_err());
    }

    #[test]
    fn error_roundtrip_preserves_kind_and_retryability() {
        let e = Error::io("disk on fire").retryable(true);
        let resp = Response::Err(e);
        let dec = Response::decode(&Request::Flush, &resp.encode()).unwrap();
        let Response::Err(d) = dec else { panic!("expected error") };
        assert_eq!(d.kind(), ErrorKind::Io);
        assert!(d.is_retryable());
        assert!(d.message().contains("disk on fire"));
    }
}
