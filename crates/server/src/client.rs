//! Client library: a single-connection [`Conn`] plus [`RemoteDb`], a
//! pooled client that implements [`KvEngine`] so every in-process tool
//! (`db_bench`, the tuning loop) runs unchanged against a live server.

use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};

use lsm_kvs::{DbStats, Error, ErrorKind, KvEngine, Result, ScanResult, WriteBatch, WriteOptions};
use parking_lot::Mutex;

use crate::protocol::{write_frame, FrameError, FrameReader, Request, Response};

fn io_err(e: io::Error) -> Error {
    Error::io(format!("connection error: {e}")).retryable(true)
}

/// A failure of the connection itself (dial, send, receive), as opposed
/// to an error the server answered with — including a retryable `Busy`,
/// which means the node is alive. Only these make a retry on a fresh
/// connection, or a failover, worthwhile.
pub(crate) fn is_transport(e: &Error) -> bool {
    e.kind() == ErrorKind::Io && e.is_retryable()
}

/// One blocking protocol connection.
pub struct Conn {
    /// Reads responses; its source is also the way to write requests.
    reader: FrameReader<TcpStream>,
}

impl Conn {
    /// Dials `addr` (e.g. `"127.0.0.1:7379"`).
    ///
    /// # Errors
    ///
    /// I/O errors from the dial.
    pub fn connect(addr: &str) -> Result<Conn> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        stream.set_nodelay(true).ok();
        Ok(Conn { reader: FrameReader::new(stream) })
    }

    /// Sends one request frame without waiting for the response —
    /// the pipelining primitive. Responses arrive in request order via
    /// [`receive`](Self::receive).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn send(&mut self, req: &Request) -> Result<()> {
        write_frame(&mut self.reader.get_ref(), &req.encode()).map_err(io_err)
    }

    /// Reads the next response frame; `req` gives the body shape.
    ///
    /// # Errors
    ///
    /// Transport failures, oversized frames, or undecodable responses.
    pub fn receive(&mut self, req: &Request) -> Result<Response> {
        match self.reader.next_frame() {
            Ok(Some(payload)) => Response::decode(req, payload),
            Ok(None) => Err(io_err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed mid-response",
            ))),
            Err(FrameError::Oversized(len)) => {
                Err(Error::corruption(format!("server sent {len}-byte frame")))
            }
            Err(e) => Err(io_err(e.into())),
        }
    }

    /// One request/response round trip.
    ///
    /// # Errors
    ///
    /// See [`send`](Self::send) and [`receive`](Self::receive).
    pub fn call(&mut self, req: &Request) -> Result<Response> {
        self.send(req)?;
        self.receive(req)
    }
}

/// A remote engine: implements [`KvEngine`] over a connection pool, so
/// N benchmark threads multiplex onto N lazily dialed connections.
///
/// A connection that sees any error is dropped rather than returned to
/// the pool — after a transport error its framing state is unknown.
pub struct RemoteDb {
    addr: String,
    pool: Mutex<Vec<Conn>>,
    /// Last successfully fetched stats snapshot, served when the Stats
    /// RPC fails so ticker-delta consumers never diff against zeros.
    last_stats: Mutex<Option<DbStats>>,
    /// Set while `stats()` is serving the cached snapshot; cleared by
    /// the next successful fetch.
    stats_stale: AtomicBool,
}

impl RemoteDb {
    /// Creates a client for `addr`; connections are dialed on demand.
    ///
    /// # Errors
    ///
    /// Fails fast if the server is unreachable (one probe connection,
    /// which is kept for reuse).
    pub fn connect(addr: &str) -> Result<RemoteDb> {
        let probe = Conn::connect(addr)?;
        Ok(RemoteDb {
            addr: addr.to_string(),
            pool: Mutex::new(vec![probe]),
            last_stats: Mutex::new(None),
            stats_stale: AtomicBool::new(false),
        })
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn checkout(&self) -> Result<Conn> {
        if let Some(c) = self.pool.lock().pop() {
            return Ok(c);
        }
        Conn::connect(&self.addr)
    }

    fn call(&self, req: &Request) -> Result<Response> {
        let mut conn = self.checkout()?;
        let resp = conn.call(req)?;
        // Only a connection that completed the round trip cleanly goes
        // back to the pool.
        self.pool.lock().push(conn);
        if let Response::Err(e) = resp {
            return Err(e);
        }
        Ok(resp)
    }

    /// [`call`](Self::call) with one bounded reconnect-and-retry on a
    /// transport failure. Only for idempotent requests (reads, stats,
    /// ping): a write whose connection died after the send may have
    /// committed, so retrying it could apply it twice.
    fn call_idempotent(&self, req: &Request) -> Result<Response> {
        match self.call(req) {
            Err(e) if is_transport(&e) => {
                // Every pooled connection predates the failure (same
                // dead server or same stale sockets); drop them all so
                // the retry dials fresh.
                self.pool.lock().clear();
                self.call(req)
            }
            other => other,
        }
    }

    /// Number of idle pooled connections (diagnostics and tests).
    pub fn pooled_connections(&self) -> usize {
        self.pool.lock().len()
    }

    /// Whether the last [`stats`](KvEngine::stats) call had to serve the
    /// cached snapshot because the Stats RPC failed.
    pub fn stats_stale(&self) -> bool {
        self.stats_stale.load(Ordering::Relaxed)
    }

    /// Asks a follower to become leader (idempotent; a leader answers Ok).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn promote(&self) -> Result<()> {
        match self.call(&Request::Promote)? {
            Response::Ok => Ok(()),
            other => Err(Error::corruption(format!("unexpected response {other:?}"))),
        }
    }

    fn expect_ok(&self, req: &Request) -> Result<()> {
        match self.call(req)? {
            Response::Ok => Ok(()),
            other => Err(Error::corruption(format!("unexpected response {other:?}"))),
        }
    }

    /// Asks the server to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown_server(&self) -> Result<()> {
        self.expect_ok(&Request::Shutdown)
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn ping(&self) -> Result<()> {
        match self.call_idempotent(&Request::Ping)? {
            Response::Ok => Ok(()),
            other => Err(Error::corruption(format!("unexpected response {other:?}"))),
        }
    }

    fn fetch_stats(&self) -> Result<(String, DbStats)> {
        match self.call_idempotent(&Request::Stats)? {
            Response::Stats { text, stats } => Ok((text, *stats)),
            other => Err(Error::corruption(format!("unexpected response {other:?}"))),
        }
    }

    /// One scan attempt: stream chunk frames on one connection until the
    /// final (`has_more: false`) chunk lands.
    fn scan_once(&self, start: &[u8], count: usize) -> Result<ScanResult> {
        // The wire format carries the count as a u32; a larger limit
        // clamps (a scan can't return 4 billion entries anyway) — a
        // plain `as` cast would wrap `1 << 32` to a count of zero.
        let count = u32::try_from(count).unwrap_or(u32::MAX);
        let req = Request::Scan { start: start.to_vec(), count };
        let mut conn = self.checkout()?;
        conn.send(&req)?;
        let mut entries = Vec::new();
        loop {
            match conn.receive(&req)? {
                Response::ScanChunk { entries: chunk, has_more } => {
                    entries.extend(chunk);
                    if !has_more {
                        break;
                    }
                }
                Response::Err(e) => {
                    // An `Err` response is a complete frame: the
                    // connection is still in sync, so it goes back to
                    // the pool — only transport failures (the `?`
                    // paths above) burn the connection.
                    self.pool.lock().push(conn);
                    return Err(e);
                }
                other => {
                    return Err(Error::corruption(format!("unexpected response {other:?}")))
                }
            }
        }
        self.pool.lock().push(conn);
        Ok(entries)
    }
}

impl KvEngine for RemoteDb {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.expect_ok(&Request::Put {
            sync: false,
            key: key.to_vec(),
            value: value.to_vec(),
        })
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        self.expect_ok(&Request::Delete { sync: false, key: key.to_vec() })
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match self.call_idempotent(&Request::Get { key: key.to_vec() })? {
            Response::Value(v) => Ok(Some(v)),
            Response::NotFound => Ok(None),
            other => Err(Error::corruption(format!("unexpected response {other:?}"))),
        }
    }

    fn multi_get(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        let n = keys.len();
        match self.call_idempotent(&Request::MultiGet { keys: keys.to_vec() })? {
            Response::Values(values) if values.len() == n => Ok(values),
            Response::Values(values) => Err(Error::corruption(format!(
                "server answered {} values for {} keys",
                values.len(),
                n
            ))),
            other => Err(Error::corruption(format!("unexpected response {other:?}"))),
        }
    }

    fn write_opt(&self, wopts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        self.expect_ok(&Request::Batch { sync: wopts.sync, batch })
    }

    fn scan(&self, start: &[u8], count: usize) -> Result<ScanResult> {
        // A scan is idempotent: one bounded reconnect-and-retry on a
        // transport failure, same as the other read paths.
        match self.scan_once(start, count) {
            Err(e) if is_transport(&e) => {
                self.pool.lock().clear();
                self.scan_once(start, count)
            }
            other => other,
        }
    }

    fn flush(&self) -> Result<()> {
        self.expect_ok(&Request::Flush)
    }

    fn wait_background_idle(&self) -> Result<()> {
        self.expect_ok(&Request::WaitIdle)
    }

    fn stats(&self) -> DbStats {
        match self.stats_checked() {
            Ok(s) => s,
            // Serve the last good snapshot (flagged stale) rather than
            // zeros: a zeroed snapshot makes every downstream ticker
            // delta wildly negative. With no snapshot yet, zeros are
            // the honest answer — nothing was ever observed.
            Err(_) => self.last_stats.lock().clone().unwrap_or_else(empty_stats),
        }
    }

    fn stats_checked(&self) -> Result<DbStats> {
        match self.fetch_stats() {
            Ok((_, s)) => {
                *self.last_stats.lock() = Some(s.clone());
                self.stats_stale.store(false, Ordering::Relaxed);
                Ok(s)
            }
            Err(e) => {
                self.stats_stale.store(true, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn stats_text(&self) -> String {
        self.fetch_stats()
            .map(|(t, _)| t)
            .unwrap_or_else(|e| format!("stats unavailable: {e}"))
    }

    fn set_options(&self, changes: &[(String, String)]) -> Result<()> {
        self.expect_ok(&Request::SetOptions { changes: changes.to_vec() })
    }

    fn checkpoint(&self, dir: &str) -> Result<()> {
        // The directory lands on the *server's* storage, inside its
        // store root — this is a remote-backup trigger, not a download.
        self.expect_ok(&Request::Checkpoint { dir: dir.to_string() })
    }

    fn options_ini(&self) -> Result<String> {
        match self.call(&Request::GetOptions)? {
            Response::OptionsIni(text) => Ok(text),
            other => Err(Error::corruption(format!("unexpected response {other:?}"))),
        }
    }
}

/// A zeroed snapshot for when the Stats RPC itself fails; `stats()` has
/// no error channel in the trait.
fn empty_stats() -> DbStats {
    DbStats {
        tickers: lsm_kvs::TickerSnapshot { values: [0; lsm_kvs::TICKER_NAMES.len()] },
        levels: Vec::new(),
        memtable_bytes: 0,
        immutable_memtables: 0,
        block_cache: lsm_kvs::CacheStats::default(),
        block_cache_capacity: 0,
        pending_compaction_bytes: 0,
        running_background_jobs: 0,
        last_sequence: 0,
        background_retries: 0,
        wal_rotations: 0,
        manifest_resyncs: 0,
        wal_sync_retries: 0,
    }
}
