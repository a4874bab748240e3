//! The TCP server: an epoll readiness loop plus a small worker pool
//! over a [`KvEngine`] — thousands of connections do not need
//! thousands of threads.
//!
//! One event-loop thread owns the listener, the epoll instance, and
//! every connection's read buffer: it accepts, reads, splits the byte
//! stream into frames, and queues complete request payloads on the
//! connection. A fixed pool of workers executes requests and writes
//! responses. At most one request per connection is in flight at a
//! time and its queue is FIFO, so pipelined clients get responses in
//! request order while *different* connections execute in parallel.
//! As a latency fast path, a lone `Get`/`Ping` on an otherwise idle
//! connection is served inline by the loop itself — skipping the
//! worker hand-off, which costs two scheduler wake-ups per request.
//! The inline write never blocks: response bytes the socket will not
//! take immediately are handed to the pool as a flush job, so a slow
//! reader cannot stall the loop.
//!
//! Backpressure: before reading sockets the loop consults the engine's
//! live write regime (cached for [`REGIME_RECHECK`]). While the write
//! controller reports `Stopped`, the loop simply stops draining
//! sockets. The kernel receive buffers fill, TCP advertises a zero
//! window, and the stall propagates to clients instead of ballooning
//! server memory.
//!
//! Shutdown is graceful: the listener closes, queued and in-flight
//! requests finish (and ack), connections caught mid-frame get
//! [`DRAIN_GRACE`] for the rest of the frame to arrive and be served,
//! and only then are the threads joined and the engine released.
//! Because a write is acked only after `write_opt` returns, nothing is
//! ever acked that the engine has not committed under the request's
//! durability flag.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lsm_kvs::{KvEngine, WriteOptions, WriteRegime};
use parking_lot::{Condvar, Mutex};

use crate::protocol::{
    frame, op, ops_to_batch, unframe, Request, Response, Unframed, MAX_FRAME_LEN,
    SCAN_CHUNK_MAX_ENTRIES,
};
use crate::sys;

/// Idle epoll timeout: bounds how long a quiet loop goes between
/// shutdown-flag checks (the wake pipe usually preempts it).
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Sleep slice while the engine reports a stopped write regime.
const STALL_BACKOFF: Duration = Duration::from_millis(2);

/// How long the loop trusts its cached write-regime reading before
/// consulting the engine again (the check takes the engine state lock).
const REGIME_RECHECK: Duration = Duration::from_millis(1);

/// How long a connection caught mid-frame at shutdown gets for the rest
/// of the frame to arrive. Bounds drain time against a client that sent
/// half a frame and went silent.
const DRAIN_GRACE: Duration = Duration::from_secs(1);

/// Epoll timeout while draining: sweeps run at this cadence so the loop
/// notices workers finishing the last queued requests.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// Upper bound on one response write. A client that stops reading
/// cannot pin a worker (and with it, shutdown) forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Epoll token of the listener.
const TOKEN_LISTENER: u64 = 0;
/// Epoll token of the wake pipe's read end.
const TOKEN_WAKE: u64 = 1;
/// First token handed to a connection.
const TOKEN_FIRST_CONN: u64 = 2;

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
    /// Times the event loop paused socket intake because the engine
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

/// One unit of per-connection work, queued in request order.
enum Work {
    /// A complete request frame payload.
    Frame(Vec<u8>),
    /// A framing violation detected by the event loop; the worker sends
    /// the error response (in order, after earlier responses) and
    /// closes the connection.
    ProtoError(String),
    /// Response bytes the event loop's inline fast path could not
    /// finish writing without blocking; a worker flushes the rest with
    /// the usual write timeout.
    Flush {
        /// Framed bytes still to write (already counted in `bytes_sent`).
        bytes: Vec<u8>,
        /// Close the connection once flushed (the inline request was a
        /// decode error).
        close_after: bool,
    },
}

struct ConnInner {
    /// Parsed-but-unserved work, FIFO.
    queue: VecDeque<Work>,
    /// A worker currently owns this connection's front-of-queue. At
    /// most one at a time — this is what keeps pipelining in order.
    in_flight: bool,
    /// The event loop must not read this socket again (EOF, protocol
    /// error queued, or a shutdown boundary was reached). Queued work
    /// still completes before the sweep closes the connection.
    no_more_reads: bool,
    /// A worker finished closing the connection (after an error
    /// response or the Shutdown ack); the sweep removes it.
    closed: bool,
    /// Unparsed bytes read off the socket (at most one partial frame
    /// plus whatever arrived behind it).
    buf: Vec<u8>,
    /// During shutdown, how long a mid-frame connection keeps being
    /// read before it is declared dead.
    drain_deadline: Option<Instant>,
}

struct ConnState {
    stream: TcpStream,
    inner: Mutex<ConnInner>,
}

impl ConnState {
    fn new(stream: TcpStream) -> ConnState {
        ConnState {
            stream,
            inner: Mutex::new(ConnInner {
                queue: VecDeque::new(),
                in_flight: false,
                no_more_reads: false,
                closed: false,
                buf: Vec::new(),
                drain_deadline: None,
            }),
        }
    }
}

/// The worker pool's job queue: each entry is a connection whose
/// front-of-queue work item should be served next.
struct Jobs {
    queue: Mutex<VecDeque<Arc<ConnState>>>,
    cv: Condvar,
}

struct Shared {
    engine: Arc<dyn KvEngine>,
    role: Arc<ServerRole>,
    stats: ServerStats,
    shutdown: AtomicBool,
    stop_workers: AtomicBool,
    jobs: Jobs,
    /// Write end of the wake pipe; one byte nudges the event loop out
    /// of `epoll_wait` (shutdown requests, sweeps during drain).
    wake: UnixStream,
}

fn wake(shared: &Shared) {
    let _ = (&shared.wake).write(&[1u8]);
}

/// A running server; dropping it (or calling [`shutdown`](Self::shutdown))
/// drains and stops it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    event_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
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

    /// Stops accepting, drains queued and in-flight requests, and joins
    /// the event loop and every worker. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        wake(&self.shared);
        // The event loop exits only after every connection has drained
        // and closed, so by the time it joins there is no queued work.
        if let Some(t) = self.event_thread.take() {
            let _ = t.join();
        }
        self.shared.stop_workers.store(true, Ordering::SeqCst);
        self.shared.jobs.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
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
/// Returns the bind error if the address is unavailable, or the error
/// from setting up the epoll instance / wake pipe.
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
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    let ep = sys::Epoll::new()?;
    ep.add(listener.as_raw_fd(), sys::EPOLLIN, TOKEN_LISTENER)?;
    ep.add(wake_rx.as_raw_fd(), sys::EPOLLIN, TOKEN_WAKE)?;

    let shared = Arc::new(Shared {
        engine,
        role,
        stats: ServerStats::default(),
        shutdown: AtomicBool::new(false),
        stop_workers: AtomicBool::new(false),
        jobs: Jobs { queue: Mutex::new(VecDeque::new()), cv: Condvar::new() },
        wake: wake_tx,
    });

    // Small fixed pool: enough to overlap slow requests (WaitIdle, a
    // stalled write) across connections without a thread per socket.
    let n_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .clamp(2, 8);
    let mut workers = Vec::with_capacity(n_workers);
    for i in 0..n_workers {
        let s = Arc::clone(&shared);
        workers.push(
            std::thread::Builder::new()
                .name(format!("kv-worker-{i}"))
                .spawn(move || worker_loop(&s))?,
        );
    }

    let loop_shared = Arc::clone(&shared);
    let event_thread = std::thread::Builder::new()
        .name("kv-event".into())
        .spawn(move || event_loop(&loop_shared, &ep, &listener, &wake_rx))?;

    Ok(ServerHandle {
        shared,
        local_addr,
        event_thread: Some(event_thread),
        workers,
    })
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

fn event_loop(
    shared: &Arc<Shared>,
    ep: &sys::Epoll,
    listener: &TcpListener,
    wake_rx: &UnixStream,
) {
    let mut conns: HashMap<u64, Arc<ConnState>> = HashMap::new();
    let mut next_token = TOKEN_FIRST_CONN;
    let mut events = [sys::EpollEvent::zeroed(); 64];
    let mut regime = shared.engine.write_regime();
    let mut regime_at = Instant::now();
    let mut stalled = false;
    let mut draining = false;

    loop {
        // Entering drain mode: stop accepting, freeze each connection's
        // read side — a connection at a frame boundary is done reading,
        // one caught mid-frame gets DRAIN_GRACE for the rest to arrive.
        if !draining && shared.shutdown.load(Ordering::SeqCst) {
            draining = true;
            stalled = false;
            let _ = ep.del(listener.as_raw_fd());
            let deadline = Instant::now() + DRAIN_GRACE;
            for conn in conns.values() {
                let mut inner = conn.inner.lock();
                if inner.buf.is_empty() {
                    inner.no_more_reads = true;
                    let _ = ep.del(conn.stream.as_raw_fd());
                } else {
                    inner.drain_deadline = Some(deadline);
                }
            }
        }
        if draining {
            // Expire mid-frame grace periods.
            let now = Instant::now();
            for conn in conns.values() {
                let mut inner = conn.inner.lock();
                if !inner.no_more_reads
                    && inner.drain_deadline.is_some_and(|d| now >= d)
                {
                    inner.no_more_reads = true;
                    let _ = ep.del(conn.stream.as_raw_fd());
                    inner
                        .queue
                        .push_back(Work::ProtoError(
                            "connection idle mid-frame during shutdown".into(),
                        ));
                    maybe_submit(shared, conn, &mut inner);
                }
            }
        }

        // Sweep: drop connections that are fully done — closed by a
        // worker, or read-side finished with nothing left to serve.
        conns.retain(|_, conn| {
            let inner = conn.inner.lock();
            let done = inner.closed
                || (inner.no_more_reads && inner.queue.is_empty() && !inner.in_flight);
            if done {
                let _ = ep.del(conn.stream.as_raw_fd());
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                shared.stats.connections_active.fetch_sub(1, Ordering::Relaxed);
            }
            !done
        });
        if draining && conns.is_empty() {
            return;
        }

        // Backpressure: while the engine is stopped, skip the sockets
        // entirely (no epoll call — the readable fds would make it
        // return instantly and spin). Level-triggered epoll re-reports
        // everything pending once the stall clears.
        if !draining {
            if stalled || regime_at.elapsed() >= REGIME_RECHECK {
                regime = shared.engine.write_regime();
                regime_at = Instant::now();
            }
            if regime == WriteRegime::Stopped {
                if !stalled {
                    stalled = true;
                    shared.stats.backpressure_stalls.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(STALL_BACKOFF);
                continue;
            }
            stalled = false;
        }

        let timeout = if draining { DRAIN_POLL } else { POLL_INTERVAL };
        let n = match ep.wait(&mut events, timeout.as_millis() as i32) {
            Ok(n) => n,
            Err(_) => continue,
        };
        for ev in &events[..n] {
            let token = ev.data; // copy out of the packed struct
            match token {
                TOKEN_LISTENER => {
                    if !draining {
                        accept_all(shared, ep, listener, &mut conns, &mut next_token);
                    }
                }
                TOKEN_WAKE => {
                    let mut sink = [0u8; 256];
                    while matches!((&*wake_rx).read(&mut sink), Ok(n) if n > 0) {}
                }
                token => {
                    if let Some(conn) = conns.get(&token) {
                        read_conn(shared, conn, ep, draining);
                    }
                }
            }
        }
    }
}

fn accept_all(
    shared: &Arc<Shared>,
    ep: &sys::Epoll,
    listener: &TcpListener,
    conns: &mut HashMap<u64, Arc<ConnState>>,
    next_token: &mut u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nodelay(true).ok();
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let token = *next_token;
                *next_token += 1;
                if ep.add(stream.as_raw_fd(), sys::EPOLLIN, token).is_err() {
                    continue;
                }
                shared.stats.connections_accepted.fetch_add(1, Ordering::Relaxed);
                shared.stats.connections_active.fetch_add(1, Ordering::Relaxed);
                conns.insert(token, Arc::new(ConnState::new(stream)));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Drains the socket's readable bytes, splits them into frames, and
/// queues complete payloads. Framing violations (oversized frame, EOF
/// mid-frame) queue a `ProtoError` *behind* already-parsed requests so
/// the error response arrives in order.
fn read_conn(shared: &Arc<Shared>, conn: &Arc<ConnState>, ep: &sys::Epoll, draining: bool) {
    let mut inner = conn.inner.lock();
    if inner.no_more_reads || inner.closed {
        return;
    }
    let mut eof = false;
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                // EOF is classified below, *after* the split loop: the
                // buffered bytes may hold complete frames whose FIN
                // simply arrived in the same drain.
                eof = true;
                break;
            }
            Ok(n) => inner.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                // Transport failure: stop reading; queued work still
                // completes (its response writes will fail harmlessly).
                inner.no_more_reads = true;
                break;
            }
        }
    }
    // Split off every complete frame.
    loop {
        let payload = match unframe(&inner.buf) {
            Unframed::Frame(payload) => payload.to_vec(),
            Unframed::NeedMore(_) => break,
            Unframed::Oversized(len) => {
                inner.queue.push_back(Work::ProtoError(format!(
                    "frame of {len} bytes exceeds {MAX_FRAME_LEN}"
                )));
                inner.no_more_reads = true;
                inner.buf.clear();
                break;
            }
        };
        inner.buf.drain(..4 + payload.len());
        shared
            .stats
            .bytes_received
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        inner.queue.push_back(Work::Frame(payload));
    }
    if eof {
        // Clean EOF is only clean at a frame boundary. Residual bytes
        // after every complete frame was split off are a frame the peer
        // abandoned; the error queues *behind* the parsed requests so
        // their responses still go out first, in order.
        inner.no_more_reads = true;
        if !inner.buf.is_empty() {
            inner.queue.push_back(Work::ProtoError("peer closed mid-frame".into()));
            inner.buf.clear();
        }
    }
    // During drain, reaching a frame boundary ends the read side: the
    // half-frame this connection was granted grace for has been served.
    if draining && inner.buf.is_empty() {
        inner.no_more_reads = true;
    }
    // A finished read side stops generating readiness events now:
    // level-triggered EPOLLIN on an EOF'd fd would otherwise spin the
    // loop at full CPU until queued work drains and the sweep runs.
    // (The sweep's own del then fails harmlessly.)
    if inner.no_more_reads {
        let _ = ep.del(conn.stream.as_raw_fd());
    }
    // Fast path: a lone Get or Ping on an otherwise idle connection is
    // served right here instead of hopping through the worker pool —
    // that hand-off costs two scheduler wake-ups per request, which
    // dominates small-op RTT on few-core hosts. Anything pipelined
    // (more than one frame queued), already owned by a worker, or
    // potentially blocking (writes, scans, flushes) takes the pool.
    if !inner.in_flight
        && !inner.closed
        && inner.queue.len() == 1
        && matches!(
            inner.queue.front(),
            Some(Work::Frame(p)) if matches!(p.first(), Some(&op::GET) | Some(&op::PING))
        )
    {
        let Some(Work::Frame(payload)) = inner.queue.pop_front() else {
            unreachable!("front checked above")
        };
        drop(inner);
        serve_inline(shared, conn, &payload);
        return;
    }
    maybe_submit(shared, conn, &mut inner);
}

/// Hands the connection to the worker pool if it has work and no worker
/// already owns it.
fn maybe_submit(shared: &Shared, conn: &Arc<ConnState>, inner: &mut ConnInner) {
    if !inner.in_flight && !inner.queue.is_empty() && !inner.closed {
        inner.in_flight = true;
        shared.jobs.queue.lock().push_back(Arc::clone(conn));
        shared.jobs.cv.notify_one();
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let conn = {
            let mut q = shared.jobs.queue.lock();
            loop {
                if let Some(c) = q.pop_front() {
                    break c;
                }
                if shared.stop_workers.load(Ordering::SeqCst) {
                    return;
                }
                shared.jobs.cv.wait(&mut q);
            }
        };
        serve_one(shared, &conn);
    }
}

/// Serves the front work item of one connection: execute, write the
/// response frame(s), then either resubmit the connection (more queued
/// work) or release it.
fn serve_one(shared: &Arc<Shared>, conn: &Arc<ConnState>) {
    let work = {
        let mut inner = conn.inner.lock();
        match inner.queue.pop_front() {
            Some(w) => w,
            None => {
                inner.in_flight = false;
                return;
            }
        }
    };
    let close_after = run_work(shared, conn, work);

    let resubmit = {
        let mut inner = conn.inner.lock();
        if close_after {
            inner.closed = true;
            inner.queue.clear();
            inner.in_flight = false;
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            false
        } else if inner.queue.is_empty() {
            inner.in_flight = false;
            false
        } else {
            true // keep in_flight: this worker's claim passes on
        }
    };
    if resubmit {
        shared.jobs.queue.lock().push_back(Arc::clone(conn));
        shared.jobs.cv.notify_one();
    } else if close_after || shared.shutdown.load(Ordering::SeqCst) {
        // Nudge the event loop only when it has collection to do: a
        // closed socket to sweep, or a drain waiting on this response.
        // The steady-state path must not pay a wake syscall per request.
        wake(shared);
    }
}

/// Event-loop fast path: executes a lone non-blocking request without a
/// worker hand-off. The caller guarantees the queue is empty and no
/// worker owns the connection — and since this *is* the event loop, a
/// close needs no wake either (the next sweep collects it).
///
/// The response is written only as far as the socket accepts without
/// blocking: if the client's receive window is full, the residue is
/// queued as a [`Work::Flush`] for the worker pool. The loop thread
/// never waits for writability, so one client that stops reading
/// cannot stall accepts and reads for every other connection.
fn serve_inline(shared: &Arc<Shared>, conn: &Arc<ConnState>, payload: &[u8]) {
    let (frames, close_after) = match Request::decode(payload) {
        Ok(req) => (execute_frames(shared, req), false),
        Err(e) => {
            // Malformed payload: answer with the decode error and
            // close — after garbage we cannot trust the framing.
            shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            (vec![Response::Err(e).encode()], true)
        }
    };
    let mut bytes = Vec::new();
    for payload in &frames {
        shared.stats.bytes_sent.fetch_add(payload.len() as u64, Ordering::Relaxed);
        bytes.extend_from_slice(&frame(payload));
    }
    match write_some(conn, &bytes) {
        Ok(n) if n == bytes.len() => {
            if close_after {
                close_conn(conn);
            }
        }
        Ok(n) => {
            // Send buffer full: hand the residue to the pool, which may
            // block (with the usual timeout). The queue was empty and
            // no worker owned the connection, so the flush stays ahead
            // of any frame parsed later.
            bytes.drain(..n);
            let mut inner = conn.inner.lock();
            inner.queue.push_back(Work::Flush { bytes, close_after });
            maybe_submit(shared, conn, &mut inner);
        }
        Err(_) => close_conn(conn),
    }
}

/// Marks the connection closed and shuts the socket down; the event
/// loop's next sweep removes it.
fn close_conn(conn: &ConnState) {
    let mut inner = conn.inner.lock();
    inner.closed = true;
    inner.queue.clear();
    let _ = conn.stream.shutdown(std::net::Shutdown::Both);
}

/// Executes one work item and writes its response frame(s). Returns
/// whether the connection must close afterwards.
fn run_work(shared: &Arc<Shared>, conn: &Arc<ConnState>, work: Work) -> bool {
    let mut close_after = false;
    match work {
        Work::ProtoError(msg) => {
            shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            let resp = Response::Err(lsm_kvs::Error::corruption(msg));
            let _ = send_frames(shared, conn, &[resp.encode()]);
            close_after = true;
        }
        Work::Flush { bytes, close_after: close } => {
            // Residue of an inline response (already counted in
            // bytes_sent); here on a worker, blocking is allowed.
            let deadline = Instant::now() + WRITE_TIMEOUT;
            close_after = write_deadline(conn, &bytes, deadline).is_err() || close;
        }
        Work::Frame(payload) => match Request::decode(&payload) {
            Err(e) => {
                // Malformed payload: answer with the decode error and
                // close — after garbage we cannot trust the framing.
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ = send_frames(shared, conn, &[Response::Err(e).encode()]);
                close_after = true;
            }
            Ok(req) => {
                let is_shutdown_req = matches!(req, Request::Shutdown);
                let frames = execute_frames(shared, req);
                if send_frames(shared, conn, &frames).is_err() {
                    close_after = true;
                }
                if is_shutdown_req {
                    // Flag set only after the ack was written, so the
                    // requesting client always sees its Ok.
                    shared.shutdown.store(true, Ordering::SeqCst);
                    close_after = true;
                }
            }
        },
    }
    close_after
}

/// Executes one request and returns the response frame payload(s) —
/// one for most requests, a chunk sequence for Scan.
fn execute_frames(shared: &Arc<Shared>, req: Request) -> Vec<Vec<u8>> {
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
        Request::Batch { sync, ops } => {
            ack(engine.write_opt(&WriteOptions { sync }, ops_to_batch(&ops)))
        }
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

/// Writes response payloads to the (nonblocking) socket, polling for
/// writability on short stalls and giving up after [`WRITE_TIMEOUT`].
fn send_frames(shared: &Shared, conn: &ConnState, payloads: &[Vec<u8>]) -> io::Result<()> {
    let deadline = Instant::now() + WRITE_TIMEOUT;
    for payload in payloads {
        shared
            .stats
            .bytes_sent
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        write_deadline(conn, &frame(payload), deadline)?;
    }
    Ok(())
}

/// Writes all of `bytes`, polling for writability on short stalls and
/// failing once `deadline` passes. Worker-thread only: the event loop
/// must use [`write_some`] instead.
fn write_deadline(conn: &ConnState, bytes: &[u8], deadline: Instant) -> io::Result<()> {
    let mut off = 0;
    while off < bytes.len() {
        match (&conn.stream).write(&bytes[off..]) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "socket closed")),
            Ok(n) => off += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "client not reading responses",
                    ));
                };
                let ms = left.as_millis().clamp(1, 250) as i32;
                sys::wait_writable(conn.stream.as_raw_fd(), ms)?;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Writes as much of `bytes` as the socket accepts without ever
/// blocking; `WouldBlock` ends the write early rather than erroring.
/// Returns how many bytes were written.
fn write_some(conn: &ConnState, bytes: &[u8]) -> io::Result<usize> {
    let mut off = 0;
    while off < bytes.len() {
        match (&conn.stream).write(&bytes[off..]) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "socket closed")),
            Ok(n) => off += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(off)
}
