//! The TCP server: one blocking thread per connection over a
//! [`KvEngine`].
//!
//! An accept thread gives every accepted socket its own thread, which
//! loops *read a frame → decode → execute → write the response(s)*
//! until the peer closes or the server shuts down. One thread and one
//! socket make pipelining trivially FIFO — responses go out in request
//! order — while different connections execute in parallel. A framing
//! violation or an undecodable payload is answered with an error frame,
//! after the responses already owed, and closes that connection only.
//! What this costs is a thread per connection; nothing here tries to
//! hold thousands of idle sockets.
//!
//! Backpressure: before reading its next request a connection consults
//! the engine's live write regime (trusted for `REGIME_RECHECK`, 1 ms).
//! While the write controller reports `Stopped`, the connection stops
//! reading its socket. The kernel receive buffer fills, TCP advertises
//! a zero window, and the stall propagates to the client instead of
//! ballooning server memory.
//!
//! Shutdown is graceful: a connection between frames closes, whole
//! frames already received are still served (and acked), a connection
//! caught mid-frame gets `DRAIN_GRACE` (1 s) for the rest of the frame to
//! arrive and be served, and only then are the threads joined and the
//! engine released. Because a write is acked only after `write_opt`
//! returns, nothing is ever acked that the engine has not committed
//! under the request's durability flag. A response is held to one
//! `WRITE_TIMEOUT` (5 s) as a whole, so a client that stops reading pins
//! its own thread for that long and nobody else's.

use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lsm_kvs::{KvEngine, WriteOptions, WriteRegime};
use parking_lot::Mutex;

use crate::protocol::{
    write_frame, FrameError, FrameReader, Request, Response, SCAN_CHUNK_MAX_ENTRIES,
};

/// Socket read timeout: bounds how long a quiet connection goes between
/// looks at the shutdown flag and the write regime.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Sleep slice while the engine reports a stopped write regime.
const STALL_BACKOFF: Duration = Duration::from_millis(2);

/// How long a connection trusts its last write-regime reading before
/// consulting the engine again (the check takes the engine state lock).
const REGIME_RECHECK: Duration = Duration::from_millis(1);

/// How long a connection caught mid-frame at shutdown gets for the rest
/// of the frame to arrive. Bounds drain time against a client that sent
/// half a frame and went silent.
const DRAIN_GRACE: Duration = Duration::from_secs(1);

/// Upper bound on writing one response, and on one write to a follower.
/// A peer that stops reading cannot pin its thread (and with it,
/// shutdown) forever.
pub(crate) const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Pause after a failed `accept` (fd exhaustion, typically) so the
/// accept thread does not spin on an error that will not clear by itself.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Per-server counters, rendered as a `** Server Stats **` section that
/// the Stats RPC appends to the engine's `stats_text()` dump.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections_accepted: AtomicU64,
    /// Connections currently being served.
    pub connections_active: AtomicU64,
    /// Requests executed, by outcome.
    pub requests_ok: AtomicU64,
    /// Requests that returned an error response.
    pub requests_err: AtomicU64,
    /// Protocol violations that closed a connection.
    pub protocol_errors: AtomicU64,
    /// Times a connection paused reading its socket because the engine
    /// reported a stopped write regime.
    pub backpressure_stalls: AtomicU64,
    /// Payload bytes received (excluding length prefixes).
    pub bytes_received: AtomicU64,
    /// Payload bytes sent (excluding length prefixes).
    pub bytes_sent: AtomicU64,
}

impl ServerStats {
    /// Renders the section appended to the engine dump.
    pub fn render(&self) -> String {
        format!(
            "\n** Server Stats **\n\
             connections_accepted: {}  connections_active: {}\n\
             requests_ok: {}  requests_err: {}  protocol_errors: {}\n\
             backpressure_stalls: {}  bytes_received: {}  bytes_sent: {}\n",
            self.connections_accepted.load(Ordering::Relaxed),
            self.connections_active.load(Ordering::Relaxed),
            self.requests_ok.load(Ordering::Relaxed),
            self.requests_err.load(Ordering::Relaxed),
            self.protocol_errors.load(Ordering::Relaxed),
            self.backpressure_stalls.load(Ordering::Relaxed),
            self.bytes_received.load(Ordering::Relaxed),
            self.bytes_sent.load(Ordering::Relaxed),
        )
    }
}

/// Which side of a replicated pair this server is. A follower rejects
/// client writes (they must go to the leader) until a [`Request::Promote`]
/// flips it; promotion also fires a one-shot hook so the follower's
/// replication stream can be torn down.
pub struct ServerRole {
    follower: AtomicBool,
    promote_hook: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl std::fmt::Debug for ServerRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerRole")
            .field("follower", &self.is_follower())
            .finish_non_exhaustive()
    }
}

impl ServerRole {
    /// A leader: accepts writes, `Promote` is a no-op.
    pub fn leader() -> Arc<ServerRole> {
        Arc::new(ServerRole {
            follower: AtomicBool::new(false),
            promote_hook: Mutex::new(None),
        })
    }

    /// A read-only follower; `on_promote` runs (once) when a `Promote`
    /// request flips it to leader.
    ///
    /// The hook runs synchronously inside the Promote request, before
    /// its Ok is written — so it must stop *and join* the replication
    /// tail (see `FollowerHandle::stop_and_join`): once the client sees
    /// the Ok, no stale replicated group from the old leader may still
    /// be applying underneath new client writes.
    pub fn follower(on_promote: impl FnOnce() + Send + 'static) -> Arc<ServerRole> {
        Arc::new(ServerRole {
            follower: AtomicBool::new(true),
            promote_hook: Mutex::new(Some(Box::new(on_promote))),
        })
    }

    /// Whether client writes are currently rejected.
    pub fn is_follower(&self) -> bool {
        self.follower.load(Ordering::SeqCst)
    }

    /// Flips follower → leader. Idempotent; only the first call runs the
    /// promote hook.
    pub fn promote(&self) {
        if self.follower.swap(false, Ordering::SeqCst) {
            if let Some(hook) = self.promote_hook.lock().take() {
                hook();
            }
        }
    }
}

/// The shape both ports share: bind, accept on one thread, give every
/// peer a thread of its own, and on the way out join them all — so
/// whatever the per-peer closure holds (the engine) is let go of by the
/// time [`stop_and_join`](Self::stop_and_join) returns.
pub(crate) struct Acceptor {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Binds `addr` and starts accepting; each accepted stream runs
    /// `per_peer` on a thread named `name`.
    pub(crate) fn bind(
        addr: &str,
        name: &'static str,
        per_peer: impl Fn(TcpStream) + Send + Sync + 'static,
    ) -> io::Result<Acceptor> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || {
                let per_peer = Arc::new(per_peer);
                let mut peers: Vec<JoinHandle<()>> = Vec::new();
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    // Reap as we go: a long-lived server must not
                    // collect a handle per connection it ever served.
                    let mut i = 0;
                    while i < peers.len() {
                        if peers[i].is_finished() {
                            let _ = peers.swap_remove(i).join();
                        } else {
                            i += 1;
                        }
                    }
                    let Ok(stream) = stream else {
                        std::thread::sleep(ACCEPT_RETRY);
                        continue;
                    };
                    let per_peer = Arc::clone(&per_peer);
                    // Out of threads: the stream drops and the peer
                    // sees a close; the server keeps serving the rest.
                    if let Ok(peer) = std::thread::Builder::new()
                        .name(name.into())
                        .spawn(move || per_peer(stream))
                    {
                        peers.push(peer);
                    }
                }
                // Stop listening before waiting for the peers: a connect
                // during the drain is refused, not queued behind it.
                drop(listener);
                for peer in peers {
                    let _ = peer.join();
                }
            })?;
        Ok(Acceptor { local_addr, stop, thread: Some(thread) })
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting and joins the accept thread, which joins every
    /// peer thread first. The caller has already told the peers to
    /// finish (a flag their loops look at). Idempotent.
    pub(crate) fn stop_and_join(&mut self) {
        let Some(thread) = self.thread.take() else { return };
        self.stop.store(true, Ordering::SeqCst);
        // `accept` has no timeout; a throwaway connection wakes it.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
        let _ = thread.join();
    }
}

struct Shared {
    engine: Arc<dyn KvEngine>,
    role: Arc<ServerRole>,
    stats: ServerStats,
    shutdown: AtomicBool,
}

/// A running server; dropping it (or calling [`shutdown`](Self::shutdown))
/// drains and stops it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Acceptor,
}

impl ServerHandle {
    /// The address the server is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.acceptor.local_addr()
    }

    /// Whether shutdown has been requested (e.g. via the Shutdown RPC).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until a shutdown request arrives (Shutdown RPC or another
    /// thread calling [`shutdown`](Self::shutdown)).
    pub fn wait_for_shutdown_request(&self) {
        while !self.is_shutting_down() {
            std::thread::sleep(POLL_INTERVAL);
        }
    }

    /// Server counters (live).
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Stops accepting, lets every connection drain, and joins the
    /// accept thread and every connection thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.acceptor.stop_and_join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` and starts serving `engine`.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn serve(engine: Arc<dyn KvEngine>, addr: &str) -> io::Result<ServerHandle> {
    serve_with_role(engine, addr, ServerRole::leader())
}

/// Like [`serve`], with an explicit [`ServerRole`] — the entry point for
/// a replication follower's client port.
///
/// # Errors
///
/// See [`serve`].
pub fn serve_with_role(
    engine: Arc<dyn KvEngine>,
    addr: &str,
    role: Arc<ServerRole>,
) -> io::Result<ServerHandle> {
    let shared = Arc::new(Shared {
        engine,
        role,
        stats: ServerStats::default(),
        shutdown: AtomicBool::new(false),
    });
    let conn_shared = Arc::clone(&shared);
    let acceptor = Acceptor::bind(addr, "kv-conn", move |stream| {
        let stats = &conn_shared.stats;
        stats.connections_accepted.fetch_add(1, Ordering::Relaxed);
        stats.connections_active.fetch_add(1, Ordering::Relaxed);
        // A transport error ends the connection; there is no one to tell.
        let _ = serve_connection(&conn_shared, &stream);
        stats.connections_active.fetch_sub(1, Ordering::Relaxed);
    })?;
    Ok(ServerHandle { shared, acceptor })
}

/// One connection, start to finish. Returns when the peer closes at a
/// frame boundary, after a protocol error has been answered, after the
/// Shutdown ack, when shutdown finds the connection drained, or with
/// the transport error that broke it.
fn serve_connection(shared: &Shared, stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut reader = FrameReader::new(stream);
    let mut regime_checked: Option<Instant> = None;
    let mut drain_deadline: Option<Instant> = None;
    loop {
        let draining = shared.shutdown.load(Ordering::SeqCst);
        if draining && reader.at_boundary() {
            return Ok(());
        }
        // Backpressure: while the engine is stopped, leave the socket
        // alone. Shutdown lets go — what is already here is served.
        if !draining && regime_checked.is_none_or(|at| at.elapsed() >= REGIME_RECHECK) {
            if shared.engine.write_regime() == WriteRegime::Stopped {
                shared.stats.backpressure_stalls.fetch_add(1, Ordering::Relaxed);
                while shared.engine.write_regime() == WriteRegime::Stopped
                    && !shared.shutdown.load(Ordering::SeqCst)
                {
                    std::thread::sleep(STALL_BACKOFF);
                }
            }
            regime_checked = Some(Instant::now());
        }
        let payload = match reader.next_frame() {
            Ok(Some(payload)) => payload,
            // Clean EOF: the peer closed between frames.
            Ok(None) => return Ok(()),
            // A quiet socket is fine while serving.
            Err(FrameError::TimedOut) if !draining => continue,
            // During shutdown a half-received frame gets DRAIN_GRACE to
            // arrive — a silent client must not pin the drain forever.
            Err(FrameError::TimedOut) => {
                let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
                if Instant::now() < deadline {
                    continue;
                }
                let idle = lsm_kvs::Error::corruption("connection idle mid-frame during shutdown");
                return refuse(shared, stream, idle);
            }
            Err(FrameError::Io(e)) => return Err(e),
            // Whole frames ahead of the violation were served on earlier
            // turns of this loop, so the error arrives in order.
            Err(violation @ (FrameError::Truncated | FrameError::Oversized(_))) => {
                let msg = io::Error::from(violation).to_string();
                return refuse(shared, stream, lsm_kvs::Error::corruption(msg));
            }
        };
        shared.stats.bytes_received.fetch_add(payload.len() as u64, Ordering::Relaxed);
        let req = match Request::decode(payload) {
            Ok(req) => req,
            // Malformed payload: after garbage we cannot trust the framing.
            Err(e) => return refuse(shared, stream, e),
        };
        let is_shutdown_req = matches!(req, Request::Shutdown);
        send_response(shared, stream, &execute_frames(shared, req))?;
        if is_shutdown_req {
            // Flag set only after the ack was written, so the
            // requesting client always sees its Ok.
            shared.shutdown.store(true, Ordering::SeqCst);
            return Ok(());
        }
    }
}

/// Answers a protocol violation with an error frame; the caller closes
/// the connection by returning.
fn refuse(shared: &Shared, stream: &TcpStream, e: lsm_kvs::Error) -> io::Result<()> {
    shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
    let _ = send_response(shared, stream, &[Response::Err(e).encode()]);
    Ok(())
}

/// Writes one response — one frame for most requests, a chunk sequence
/// for Scan — under one [`WRITE_TIMEOUT`] deadline.
fn send_response(shared: &Shared, stream: &TcpStream, payloads: &[Vec<u8>]) -> io::Result<()> {
    let mut out = ByDeadline { stream, deadline: Instant::now() + WRITE_TIMEOUT, writes: 0 };
    let sent = payloads.iter().try_for_each(|payload| {
        shared.stats.bytes_sent.fetch_add(payload.len() as u64, Ordering::Relaxed);
        write_frame(&mut out, payload)
    });
    if out.writes > 1 {
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    }
    sent
}

/// A socket whose writes share one deadline. The socket's own timeout
/// bounds a single `write(2)`, so by itself it would let a client that
/// trickles its reads stretch one response forever.
struct ByDeadline<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
    writes: u32,
}

impl Write for ByDeadline<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // The first write runs under the socket's standing timeout, which
        // is the whole allowance; every later one gets what is left of
        // it. Small responses, one write each, never pay the setsockopt.
        if self.writes > 0 {
            let left = self.deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "client not reading responses"));
            }
            self.stream.set_write_timeout(Some(left))?;
        }
        self.writes += 1;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Executes one request and returns the response frame payload(s) —
/// one for most requests, a chunk sequence for Scan.
fn execute_frames(shared: &Shared, req: Request) -> Vec<Vec<u8>> {
    let engine = shared.engine.as_ref();
    // Replication frames carry raw engine state and belong on the
    // replica port's dedicated stream, never the client port.
    if req.is_replication() {
        let resp = Response::Err(lsm_kvs::Error::invalid_argument(
            "replication opcode on the client port",
        ));
        shared.stats.requests_err.fetch_add(1, Ordering::Relaxed);
        return vec![resp.encode()];
    }
    // A follower serves reads at its applied sequence; writes must go to
    // the leader (not retryable — retrying here can never succeed).
    if shared.role.is_follower()
        && matches!(
            req,
            Request::Put { .. } | Request::Delete { .. } | Request::Batch { .. }
        )
    {
        let resp = Response::Err(
            lsm_kvs::Error::not_supported("read-only follower; write to the leader")
                .retryable(false),
        );
        shared.stats.requests_err.fetch_add(1, Ordering::Relaxed);
        return vec![resp.encode()];
    }
    let resp = match req {
        Request::Get { key } => match engine.get(&key) {
            Ok(Some(v)) => Response::Value(v),
            Ok(None) => Response::NotFound,
            Err(e) => Response::Err(e),
        },
        Request::MultiGet { keys } => match engine.multi_get(&keys) {
            Ok(values) => Response::Values(values),
            Err(e) => Response::Err(e),
        },
        Request::Put { sync, key, value } => {
            let mut batch = lsm_kvs::WriteBatch::new();
            batch.put(&key, &value);
            ack(engine.write_opt(&WriteOptions { sync }, batch))
        }
        Request::Delete { sync, key } => {
            let mut batch = lsm_kvs::WriteBatch::new();
            batch.delete(&key);
            ack(engine.write_opt(&WriteOptions { sync }, batch))
        }
        Request::Batch { sync, batch } => ack(engine.write_opt(&WriteOptions { sync }, batch)),
        Request::Scan { start, count } => match engine.scan(&start, count as usize) {
            Ok(entries) => {
                shared.stats.requests_ok.fetch_add(1, Ordering::Relaxed);
                return scan_chunks(entries);
            }
            Err(e) => Response::Err(e),
        },
        Request::Flush => ack(engine.flush()),
        Request::Stats => {
            let mut text = engine.stats_text();
            text.push_str(&shared.stats.render());
            Response::Stats { text, stats: Box::new(engine.stats()) }
        }
        Request::WaitIdle => ack(engine.wait_background_idle()),
        Request::Ping => Response::Ok,
        Request::Shutdown => Response::Ok,
        Request::SetOptions { changes } => ack(engine.set_options(&changes)),
        Request::GetOptions => match engine.options_ini() {
            Ok(text) => Response::OptionsIni(text),
            Err(e) => Response::Err(e),
        },
        Request::Promote => {
            shared.role.promote();
            Response::Ok
        }
        Request::Checkpoint { dir } => {
            // The directory is interpreted inside the server's own store
            // namespace; refuse anything that could climb out of it.
            let dir = dir.trim_end_matches('/');
            if dir.is_empty()
                || dir.starts_with('/')
                || dir.split('/').any(|c| c.is_empty() || c == "." || c == "..")
            {
                Response::Err(lsm_kvs::Error::invalid_argument(format!(
                    "checkpoint dir must be a relative path inside the store, got {dir:?}"
                )))
            } else {
                ack(engine.checkpoint(dir))
            }
        }
        Request::ReplicaHello { .. }
        | Request::Replicate { .. }
        | Request::ReplicaAck { .. }
        | Request::SnapshotChunk { .. }
        | Request::SnapshotDone { .. }
        | Request::ReplicaReject => unreachable!("rejected above"),
    };
    match &resp {
        Response::Err(_) => shared.stats.requests_err.fetch_add(1, Ordering::Relaxed),
        _ => shared.stats.requests_ok.fetch_add(1, Ordering::Relaxed),
    };
    vec![resp.encode()]
}

/// Slices scan entries into bounded chunk frames; the last chunk (and
/// an empty result's only chunk) carries `has_more: false`.
fn scan_chunks(entries: Vec<(Vec<u8>, Vec<u8>)>) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    let mut it = entries.into_iter();
    loop {
        let chunk: Vec<_> = it.by_ref().take(SCAN_CHUNK_MAX_ENTRIES).collect();
        let last = chunk.len() < SCAN_CHUNK_MAX_ENTRIES;
        frames.push(Response::ScanChunk { entries: chunk, has_more: !last }.encode());
        if last {
            return frames;
        }
    }
}

fn ack(r: lsm_kvs::Result<()>) -> Response {
    match r {
        Ok(()) => Response::Ok,
        Err(e) => Response::Err(e),
    }
}

