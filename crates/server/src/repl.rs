//! WAL-shipping replication: a leader streams committed WAL records to
//! followers; followers apply them through the normal write path and
//! serve reads at their applied sequence.
//!
//! Leader side: a [`ReplicationHub`] attached to the engine as its
//! [`WalSink`]. `ship` runs inside the engine's commit critical section
//! and only enqueues (ship order = commit order); `wait_durable` holds a
//! synced write's ack until every *live, caught-up* follower has
//! confirmed the group — bounded by [`ACK_TIMEOUT`], after which a
//! laggard is demoted from the live set so a dead follower stalls
//! writers for at most one timeout, once. [`serve_replicas`] accepts
//! follower connections on a dedicated port (one sender + one
//! ack-reader thread per follower; the client port refuses replication
//! opcodes).
//!
//! Bootstrap: a follower connects with [`Request::ReplicaHello`]
//! carrying the sequence it already has. An empty follower gets a
//! checkpoint — a chunked scan pinned at the leader's snapshot sequence
//! `S0` — then [`Request::SnapshotDone`] carrying `S0`, then the live
//! stream filtered to groups past `S0`. A follower that merely fell
//! behind catches up from the leader's in-memory ring of recent groups.
//! A `have_seq` the leader cannot serve — past its last committed
//! sequence (a diverged follower), or behind a ring that no longer
//! reaches back to it — is answered with [`Request::ReplicaReject`] and
//! a hang-up *before* any session is registered, so an unservable
//! follower can never stall synced writes. On the reject the follower
//! marks its local state for a wipe (see below) and stops, letting a
//! process restart re-bootstrap from empty.
//!
//! Bootstrap crash safety: before applying the first checkpoint chunk
//! the follower durably creates a [`BOOTSTRAP_MARKER`] file in its
//! database directory, and removes it only after the whole checkpoint
//! is applied, the sequence jump to `S0` is persisted, and the data is
//! flushed. A partially applied checkpoint is an arbitrary prefix of
//! the leader's state and must never be resumed or built upon: while
//! the marker exists, [`prepare_follower_storage`] (run by `kv_server`
//! before opening a follower database) wipes the directory so the
//! follower restarts empty, and a bootstrap interrupted in-process
//! parks the apply loop with [`FollowerStatus::failed`] set instead of
//! reconnecting with a bogus `have_seq`.
//!
//! Sequence lockstep: the follower applies each shipped batch through
//! its own `write_opt`, so it assigns exactly the sequence numbers the
//! leader did. After a checkpoint it jumps its counter to `S0` with
//! [`Db::advance_sequence_to`]; the checkpoint scan was pinned at `S0`,
//! so its own applied sequence can never exceed the jump target. Each
//! shipped record's embedded sequence is checked: already-applied
//! records (re-delivery after reconnect) are skipped, a gap breaks the
//! connection rather than applying out of order.

use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lsm_kvs::{Db, ReadOptions, Vfs, WalSink, WriteBatch, WriteOptions};
use parking_lot::{Condvar, Mutex};

use crate::protocol::{write_frame, FrameError, FrameReader, Request};
use crate::server::{Acceptor, WRITE_TIMEOUT};

/// Marker file a follower keeps in its database directory from the
/// first applied checkpoint chunk until the bootstrap is durably
/// complete. While it exists the local state is an arbitrary prefix of
/// a leader checkpoint and must be wiped, never served or resumed.
pub const BOOTSTRAP_MARKER: &str = "REPLICA_BOOTSTRAP";

/// How long a synced write waits for follower acks before the laggards
/// are demoted from the live set.
const ACK_TIMEOUT: Duration = Duration::from_millis(500);

/// Retained bytes of recent groups for reconnect catch-up.
const RING_MAX_BYTES: usize = 16 << 20;

/// A follower whose unsent backlog exceeds this is demoted rather than
/// ballooning leader memory.
const SESSION_MAX_BYTES: usize = 64 << 20;

/// Checkpoint chunk bounds: entries per frame and payload bytes per
/// frame (staying far under [`crate::MAX_FRAME_LEN`]).
const SNAPSHOT_CHUNK_ENTRIES: usize = 256;
const SNAPSHOT_CHUNK_BYTES: usize = 1 << 20;

/// Follower reconnect backoff.
const RECONNECT_DELAY: Duration = Duration::from_millis(100);

/// Bound on one follower dial. Keeps `stop_and_join` (the promote
/// path) from blocking on a connect to a blackholed leader.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Socket read slice for loops that must keep checking a stop flag.
const READ_TICK: Duration = Duration::from_millis(100);

/// One committed group as shipped by the engine. Records are shared
/// between the ring and every session queue.
#[derive(Clone)]
struct Group {
    first_seq: u64,
    last_seq: u64,
    sync: bool,
    records: Arc<Vec<Vec<u8>>>,
}

impl Group {
    fn bytes(&self) -> usize {
        self.records.iter().map(Vec::len).sum()
    }
}

/// Per-follower state shared between the hub, the sender thread, and
/// the ack-reader thread.
struct Session {
    /// Groups queued for this follower plus bookkeeping; `closed` tells
    /// the sender to stop.
    queue: Mutex<SessionQueue>,
    cv: Condvar,
    /// Highest sequence the follower has confirmed applied.
    acked: AtomicU64,
    /// Counts toward `wait_durable` only once caught up (checkpoint
    /// sent); a mid-bootstrap follower must not stall writers.
    streaming: AtomicBool,
    /// Cleared on demotion; a dead session is skipped and swept.
    live: AtomicBool,
}

struct SessionQueue {
    groups: VecDeque<Group>,
    bytes: usize,
    closed: bool,
}

impl Session {
    fn new(acked: u64) -> Arc<Session> {
        Arc::new(Session {
            queue: Mutex::new(SessionQueue {
                groups: VecDeque::new(),
                bytes: 0,
                closed: false,
            }),
            cv: Condvar::new(),
            acked: AtomicU64::new(acked),
            streaming: AtomicBool::new(false),
            live: AtomicBool::new(true),
        })
    }

    fn demote(&self) {
        self.live.store(false, Ordering::SeqCst);
        let mut q = self.queue.lock();
        q.closed = true;
        q.groups.clear();
        q.bytes = 0;
        self.cv.notify_all();
    }
}

struct HubInner {
    sessions: Vec<Arc<Session>>,
    /// Recent groups, oldest first, for reconnect catch-up.
    ring: VecDeque<Group>,
    ring_bytes: usize,
    /// The leader's last committed sequence: seeded from the engine when
    /// the replica listener starts (a restarted leader has committed
    /// state the ring knows nothing about) and advanced by every shipped
    /// group. `register` checks hellos against it so a `have_seq` the
    /// ring cannot serve is rejected instead of becoming a live session
    /// that gap-breaks on the first shipped group.
    last_seq: u64,
}

/// Leader-side replication state; the engine's [`WalSink`].
pub struct ReplicationHub {
    inner: Mutex<HubInner>,
    /// Notified on every follower ack and every demotion.
    ack_cv: Condvar,
    ack_timeout: Duration,
    shutdown: AtomicBool,
}

impl Default for ReplicationHub {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplicationHub {
    /// An empty hub; attach with [`lsm_kvs::DbBuilder::wal_sink`] before
    /// opening the database, then hand it to [`serve_replicas`].
    pub fn new() -> ReplicationHub {
        ReplicationHub {
            inner: Mutex::new(HubInner {
                sessions: Vec::new(),
                ring: VecDeque::new(),
                ring_bytes: 0,
                last_seq: 0,
            }),
            ack_cv: Condvar::new(),
            ack_timeout: ACK_TIMEOUT,
            shutdown: AtomicBool::new(false),
        }
    }

    /// Number of live follower sessions (streaming or bootstrapping).
    pub fn live_followers(&self) -> usize {
        self.inner.lock().sessions.iter().filter(|s| s.live.load(Ordering::SeqCst)).count()
    }

    /// Seeds the hub's notion of the leader's last committed sequence
    /// (monotonic). [`serve_replicas`] calls this with the engine's
    /// current sequence; groups shipped afterwards advance it.
    pub fn note_committed(&self, seq: u64) {
        let mut inner = self.inner.lock();
        inner.last_seq = inner.last_seq.max(seq);
    }

    /// Registers a follower session. The entire ring is copied into the
    /// session queue under the hub lock, so together with groups shipped
    /// after registration the session sees every group the ring still
    /// covers; the sender filters by the bootstrap cutoff and the
    /// follower skips already-applied records.
    ///
    /// Returns `None` when `have_seq` cannot be served: it is past the
    /// leader's last committed sequence (a diverged follower), or the
    /// ring no longer reaches back to the first missing group. The
    /// caller answers with [`Request::ReplicaReject`] — no session is
    /// created, so an unservable follower never counts toward synced
    /// write durability and never stalls writers.
    fn register(&self, have_seq: u64) -> Option<Arc<Session>> {
        let mut inner = self.inner.lock();
        if have_seq > 0 {
            if have_seq > inner.last_seq {
                return None;
            }
            if have_seq < inner.last_seq {
                // Catch-up is only possible if the ring still reaches
                // back to the first group the follower is missing; an
                // exactly in-sync follower needs nothing from the ring.
                match inner.ring.front() {
                    Some(front) if front.first_seq <= have_seq + 1 => {}
                    _ => return None,
                }
            }
        }
        let session = Session::new(have_seq);
        {
            let mut q = session.queue.lock();
            for g in &inner.ring {
                q.bytes += g.bytes();
                q.groups.push_back(g.clone());
            }
        }
        inner.sessions.push(Arc::clone(&session));
        Some(session)
    }

    fn sweep_dead(inner: &mut HubInner) {
        inner.sessions.retain(|s| s.live.load(Ordering::SeqCst));
    }

    /// Stops the hub: demotes every session so sender threads exit.
    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let mut inner = self.inner.lock();
        for s in &inner.sessions {
            s.demote();
        }
        Self::sweep_dead(&mut inner);
        self.ack_cv.notify_all();
    }
}

impl WalSink for ReplicationHub {
    fn ship(&self, first_seq: u64, last_seq: u64, sync: bool, records: &[&[u8]]) {
        let group = Group {
            first_seq,
            last_seq,
            sync,
            records: Arc::new(records.iter().map(|r| r.to_vec()).collect()),
        };
        let gbytes = group.bytes();
        let mut inner = self.inner.lock();
        inner.last_seq = inner.last_seq.max(last_seq);
        inner.ring.push_back(group.clone());
        inner.ring_bytes += gbytes;
        while inner.ring_bytes > RING_MAX_BYTES && inner.ring.len() > 1 {
            if let Some(old) = inner.ring.pop_front() {
                inner.ring_bytes -= old.bytes();
            }
        }
        let mut any_demoted = false;
        for s in &inner.sessions {
            if !s.live.load(Ordering::SeqCst) {
                continue;
            }
            let mut q = s.queue.lock();
            if q.closed {
                continue;
            }
            q.bytes += gbytes;
            q.groups.push_back(group.clone());
            if q.bytes > SESSION_MAX_BYTES {
                // Hopelessly behind: cut it loose instead of buffering
                // without bound inside the commit path.
                drop(q);
                s.demote();
                any_demoted = true;
            } else {
                s.cv.notify_all();
            }
        }
        if any_demoted {
            Self::sweep_dead(&mut inner);
            self.ack_cv.notify_all();
        }
    }

    fn wait_durable(&self, last_seq: u64) {
        let deadline = Instant::now() + self.ack_timeout;
        let mut inner = self.inner.lock();
        loop {
            let lagging = inner.sessions.iter().any(|s| {
                s.live.load(Ordering::SeqCst)
                    && s.streaming.load(Ordering::SeqCst)
                    && s.acked.load(Ordering::SeqCst) < last_seq
            });
            if !lagging || self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || self.ack_cv.wait_for(&mut inner, left).timed_out() {
                // Demote whoever is still behind; the write proceeds on
                // local durability alone.
                for s in &inner.sessions {
                    if s.live.load(Ordering::SeqCst)
                        && s.streaming.load(Ordering::SeqCst)
                        && s.acked.load(Ordering::SeqCst) < last_seq
                    {
                        s.demote();
                    }
                }
                Self::sweep_dead(&mut inner);
                return;
            }
        }
    }
}

/// A running replica listener; dropping it stops accepting, tears down
/// every follower session and joins their threads, so nothing it started
/// still holds the database afterwards.
pub struct ReplicaListenerHandle {
    hub: Arc<ReplicationHub>,
    stop: Arc<AtomicBool>,
    acceptor: Acceptor,
}

impl ReplicaListenerHandle {
    /// The address followers dial (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.acceptor.local_addr()
    }
}

impl Drop for ReplicaListenerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.hub.stop();
        self.acceptor.stop_and_join();
    }
}

/// Binds `addr` and serves follower connections for `db`, streaming
/// groups the engine ships into `hub`.
///
/// # Errors
///
/// The bind error if the address is unavailable.
pub fn serve_replicas(
    hub: Arc<ReplicationHub>,
    db: Arc<Db>,
    addr: &str,
) -> io::Result<ReplicaListenerHandle> {
    // A restarted leader has committed state the (empty) ring knows
    // nothing about; without this seed, register would accept any
    // have_seq and the session would gap-break on the first shipped
    // group, forever.
    hub.note_committed(db.snapshot_seq());
    let stop = Arc::new(AtomicBool::new(false));
    let (peer_hub, peer_stop) = (Arc::clone(&hub), Arc::clone(&stop));
    let acceptor = Acceptor::bind(addr, "kv-replica", move |stream| {
        serve_one_follower(&peer_hub, &db, stream, &peer_stop)
    })?;
    Ok(ReplicaListenerHandle { hub, stop, acceptor })
}

/// One follower connection on the leader: handshake, optional
/// checkpoint, then the live stream. An ack-reader thread feeds the
/// hub's durability waits.
fn serve_one_follower(
    hub: &Arc<ReplicationHub>,
    db: &Db,
    stream: TcpStream,
    stop: &AtomicBool,
) {
    stream.set_nodelay(true).ok();
    // Reads tick so both halves keep looking at their flags; writes are
    // bounded so a follower that stops reading cannot pin the sender
    // (and with it, the listener's drop) forever.
    if stream.set_read_timeout(Some(READ_TICK)).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = FrameReader::new(read_half);
    let have_seq = loop {
        match reader.next_frame() {
            Ok(Some(payload)) => match Request::decode(payload) {
                Ok(Request::ReplicaHello { have_seq }) => break have_seq,
                _ => return, // anything else is a protocol violation: hang up
            },
            Err(FrameError::TimedOut) if !stop.load(Ordering::SeqCst) => {}
            _ => return,
        }
    };
    let Some(session) = hub.register(have_seq) else {
        // Unservable have_seq (diverged, or behind a ring that no longer
        // reaches it). Say so explicitly: the follower marks its state
        // for a wipe and re-bootstraps empty on its next start, instead
        // of redialing the same doomed hello forever.
        let _ = write_frame(&mut &stream, &Request::ReplicaReject.encode());
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return;
    };

    // Ack reader: the only frames a follower sends after the hello. It
    // carries on with the hello's reader, so nothing buffered is lost.
    let ack_session = Arc::clone(&session);
    let ack_hub = Arc::clone(hub);
    let ack_thread = std::thread::Builder::new()
        .name("kv-replica-ack".into())
        .spawn(move || {
            loop {
                match reader.next_frame() {
                    Ok(Some(payload)) => match Request::decode(payload) {
                        Ok(Request::ReplicaAck { seq }) => {
                            ack_session.acked.fetch_max(seq, Ordering::SeqCst);
                            // Wake writers waiting in wait_durable.
                            let _ = ack_hub.inner.lock();
                            ack_hub.ack_cv.notify_all();
                        }
                        _ => break,
                    },
                    // Quiet between acks; a demoted session is done.
                    Err(FrameError::TimedOut) if ack_session.live.load(Ordering::SeqCst) => {}
                    _ => break,
                }
            }
            ack_session.demote();
            let _ = ack_hub.inner.lock();
            ack_hub.ack_cv.notify_all();
        });
    let Ok(ack_thread) = ack_thread else {
        session.demote();
        return;
    };

    // Checkpoint bootstrap for an empty follower: a chunked scan pinned
    // at S0, so the follower lands on exactly the state covered by
    // sequences 1..=S0, then the stream delivers everything after S0.
    let cutoff = if have_seq == 0 { db.snapshot_seq() } else { have_seq };
    let bootstrapped = have_seq != 0 || cutoff == 0 || send_checkpoint(db, &stream, cutoff);
    if bootstrapped {
        // From here on this follower counts toward synced-write durability.
        session.acked.fetch_max(cutoff, Ordering::SeqCst);
        session.streaming.store(true, Ordering::SeqCst);
    }

    // Live stream: pop groups, skip anything at or before the cutoff.
    while bootstrapped && !stop.load(Ordering::SeqCst) && session.live.load(Ordering::SeqCst) {
        let group = {
            let mut q = session.queue.lock();
            loop {
                if q.closed {
                    break None;
                }
                if let Some(g) = q.groups.pop_front() {
                    q.bytes -= g.bytes();
                    break Some(g);
                }
                session.cv.wait_for(&mut q, READ_TICK);
                if stop.load(Ordering::SeqCst) {
                    break None;
                }
            }
        };
        let Some(group) = group else { break };
        if group.last_seq <= cutoff {
            continue;
        }
        let req = Request::Replicate {
            first_seq: group.first_seq,
            sync: group.sync,
            records: group.records.as_ref().clone(),
        };
        if write_frame(&mut &stream, &req.encode()).is_err() {
            break;
        }
    }
    session.demote();
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let _ = ack_thread.join();
    let mut inner = hub.inner.lock();
    ReplicationHub::sweep_dead(&mut inner);
    drop(inner);
    hub.ack_cv.notify_all();
}

/// Streams the pinned checkpoint: `SnapshotChunk` frames then
/// `SnapshotDone { seq: s0 }`. Returns false on any transport or scan
/// error.
fn send_checkpoint(db: &Db, mut stream: &TcpStream, s0: u64) -> bool {
    let ropts = ReadOptions { snapshot_seq: Some(s0), ..ReadOptions::default() };
    let mut start: Vec<u8> = Vec::new();
    loop {
        let batch = match db.scan_opt(&ropts, &start, SNAPSHOT_CHUNK_ENTRIES) {
            Ok(b) => b,
            Err(_) => return false,
        };
        let scanned = batch.len();
        if let Some((last_key, _)) = batch.last() {
            // Smallest key strictly greater than last_key.
            start = last_key.clone();
            start.push(0);
        }
        // Re-chunk by bytes so huge values cannot overflow a frame.
        let mut entries = Vec::new();
        let mut bytes = 0usize;
        for (k, v) in batch {
            bytes += k.len() + v.len();
            entries.push((k, v));
            if bytes >= SNAPSHOT_CHUNK_BYTES {
                let req = Request::SnapshotChunk { entries: std::mem::take(&mut entries) };
                if write_frame(&mut stream, &req.encode()).is_err() {
                    return false;
                }
                bytes = 0;
            }
        }
        if !entries.is_empty() {
            let req = Request::SnapshotChunk { entries };
            if write_frame(&mut stream, &req.encode()).is_err() {
                return false;
            }
        }
        if scanned < SNAPSHOT_CHUNK_ENTRIES {
            break;
        }
    }
    let done = Request::SnapshotDone { seq: s0 };
    write_frame(&mut stream, &done.encode()).is_ok()
}

// ---------------------------------------------------------------------------
// Follower side
// ---------------------------------------------------------------------------

/// Live progress of a follower's apply loop, for tests and logs.
#[derive(Debug, Default)]
pub struct FollowerStatus {
    /// Highest sequence applied locally.
    pub applied_seq: AtomicU64,
    /// Whether the stream to the leader is currently up.
    pub connected: AtomicBool,
    /// Apply, protocol, and unexpected transport errors observed (the
    /// loop reconnects). A leader's clean hang-up (EOF outside
    /// bootstrap) is not an error.
    pub errors: AtomicU64,
    /// The loop parked itself: the local state can no longer safely
    /// follow this leader (bootstrap interrupted, or the leader
    /// rejected the hello). [`BOOTSTRAP_MARKER`] is on disk; a process
    /// restart wipes the directory and re-bootstraps from empty.
    pub failed: AtomicBool,
}

/// A running follower apply loop; [`stop_and_join`](Self::stop_and_join)
/// ends it (the promote path), dropping also joins it.
pub struct FollowerHandle {
    stop: Arc<AtomicBool>,
    status: Arc<FollowerStatus>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl FollowerHandle {
    /// Signals the loop to exit; any buffered-but-unapplied frames are
    /// discarded. Does not wait — see
    /// [`stop_and_join`](Self::stop_and_join).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Stops the loop and waits for the apply thread to exit. The
    /// promotion hook must use this: once it returns, no replicated
    /// group from the old leader can still apply underneath the new
    /// leader's own writes. The wait is bounded even against a
    /// blackholed leader — reads tick at [`READ_TICK`] and dials are
    /// capped by [`CONNECT_TIMEOUT`].
    pub fn stop_and_join(&self) {
        self.stop();
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }

    /// Live progress counters.
    pub fn status(&self) -> &Arc<FollowerStatus> {
        &self.status
    }
}

impl Drop for FollowerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Wipes a follower database directory that was left mid-bootstrap.
///
/// While [`BOOTSTRAP_MARKER`] exists, the directory holds an arbitrary
/// prefix of a leader checkpoint; serving it — or reconnecting with a
/// `have_seq` derived from it — would silently diverge from the leader
/// (a failover could promote this node and lose acked writes). A
/// partial checkpoint can also never be *resumed*: keys the leader
/// deleted between the old and new checkpoint sequences would linger.
/// `kv_server` calls this before opening any `--follower-of` database.
///
/// Returns whether a wipe happened. The marker is deleted last, so a
/// crash mid-wipe leaves it in place and the next start finishes the
/// job.
pub fn prepare_follower_storage(vfs: &dyn Vfs) -> lsm_kvs::Result<bool> {
    if !vfs.exists(BOOTSTRAP_MARKER) {
        return Ok(false);
    }
    for name in vfs.list("")? {
        if name != BOOTSTRAP_MARKER {
            vfs.delete(&name)?;
        }
    }
    vfs.delete(BOOTSTRAP_MARKER)?;
    Ok(true)
}

/// Starts the follower apply loop: connect to the leader's replica
/// port, hello with the local sequence, apply the checkpoint and every
/// streamed group through the normal write path, ack after each apply,
/// reconnect (with the local sequence) on any failure until stopped.
pub fn start_follower(db: Arc<Db>, leader_addr: String) -> FollowerHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let status = Arc::new(FollowerStatus::default());
    let loop_stop = Arc::clone(&stop);
    let loop_status = Arc::clone(&status);
    let thread = std::thread::Builder::new()
        .name("kv-follower".into())
        .spawn(move || follower_loop(&db, &leader_addr, &loop_stop, &loop_status))
        .expect("spawn follower thread");
    FollowerHandle { stop, status, thread: Mutex::new(Some(thread)) }
}

/// How one leader connection ended.
enum StreamEnd {
    /// Stop requested, or the leader hung up cleanly outside bootstrap.
    Clean,
    /// Apply, protocol, or transport failure; counted, then reconnect.
    Errored,
    /// The local state can no longer follow this leader: the bootstrap
    /// was interrupted, or the hello was rejected. The marker is on
    /// disk; the loop parks with [`FollowerStatus::failed`] set.
    Fatal,
}

fn follower_loop(db: &Db, leader: &str, stop: &AtomicBool, status: &FollowerStatus) {
    let vfs = db.vfs();
    if vfs.exists(BOOTSTRAP_MARKER) {
        // A prior bootstrap died mid-apply and the directory was opened
        // without [`prepare_follower_storage`]: the local state is a
        // checkpoint prefix that must not be served or extended.
        status.failed.store(true, Ordering::SeqCst);
        return;
    }
    while !stop.load(Ordering::SeqCst) {
        let stream = match connect(leader) {
            Ok(s) => s,
            Err(_) => {
                status.connected.store(false, Ordering::SeqCst);
                std::thread::sleep(RECONNECT_DELAY);
                continue;
            }
        };
        stream.set_nodelay(true).ok();
        // Bounded reads so the stop flag is honored while idle.
        stream.set_read_timeout(Some(READ_TICK)).ok();
        let have_seq = db.snapshot_seq();
        let hello = Request::ReplicaHello { have_seq };
        if write_frame(&mut &stream, &hello.encode()).is_err() {
            std::thread::sleep(RECONNECT_DELAY);
            continue;
        }
        status.connected.store(true, Ordering::SeqCst);
        let end = follow_stream(db, vfs.as_ref(), &stream, stop, status);
        status.connected.store(false, Ordering::SeqCst);
        match end {
            StreamEnd::Clean => {}
            StreamEnd::Errored => {
                status.errors.fetch_add(1, Ordering::SeqCst);
            }
            StreamEnd::Fatal => {
                status.errors.fetch_add(1, Ordering::SeqCst);
                status.failed.store(true, Ordering::SeqCst);
                return;
            }
        }
        if !stop.load(Ordering::SeqCst) {
            std::thread::sleep(RECONNECT_DELAY);
        }
    }
}

/// Dials the leader with [`CONNECT_TIMEOUT`] per resolved address, so a
/// blackholed leader cannot hang the loop (or `stop_and_join`) for the
/// OS connect timeout.
fn connect(leader: &str) -> io::Result<TcpStream> {
    use std::net::ToSocketAddrs;
    let mut last = io::Error::new(io::ErrorKind::NotFound, "address resolved to nothing");
    for addr in leader.to_socket_addrs()? {
        match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
            Ok(s) => return Ok(s),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Parses and applies frames off one leader connection.
fn follow_stream(
    db: &Db,
    vfs: &dyn Vfs,
    stream: &TcpStream,
    stop: &AtomicBool,
    status: &FollowerStatus,
) -> StreamEnd {
    let mut applied = db.snapshot_seq();
    let mut in_bootstrap = false;
    let mut reader = FrameReader::new(stream);
    loop {
        // Never apply past a stop request: a node promoted to leader must
        // not apply stale buffered groups underneath its own new writes,
        // so buffered frames are discarded once stop is set.
        if stop.load(Ordering::SeqCst) {
            return StreamEnd::Clean;
        }
        let req = match reader.next_frame() {
            Ok(Some(payload)) => Request::decode(payload),
            // The read slice ran out; look at the stop flag again.
            Err(FrameError::TimedOut) => continue,
            // The leader hung up. Mid-bootstrap the checkpoint is a
            // partial prefix — reconnecting with the local (bogus)
            // sequence would diverge, so park instead.
            Ok(None) | Err(FrameError::Truncated) => {
                return if in_bootstrap { StreamEnd::Fatal } else { StreamEnd::Clean }
            }
            Err(FrameError::Oversized(_) | FrameError::Io(_)) => return fail(in_bootstrap),
        };
        let outcome = match req {
            Ok(req) => apply_frame(db, vfs, stream, req, &mut applied, &mut in_bootstrap, status),
            Err(_) => FrameOutcome::Failed,
        };
        match outcome {
            FrameOutcome::Applied => {}
            FrameOutcome::Failed => return fail(in_bootstrap),
            FrameOutcome::Fatal => return StreamEnd::Fatal,
        }
    }
}

/// A mid-connection failure is fatal while a bootstrap is in flight
/// (the local state is a checkpoint prefix), otherwise worth counting
/// and reconnecting.
fn fail(in_bootstrap: bool) -> StreamEnd {
    if in_bootstrap {
        StreamEnd::Fatal
    } else {
        StreamEnd::Errored
    }
}

/// What [`apply_frame`] did with one frame.
enum FrameOutcome {
    /// Applied; keep draining.
    Applied,
    /// Apply or protocol failure; escalated by [`fail`].
    Failed,
    /// Park the loop — the leader rejected us, or durability for the
    /// bootstrap protocol could not be established.
    Fatal,
}

/// Durably creates the bootstrap marker. Returns false on any I/O
/// error.
fn write_marker(vfs: &dyn Vfs) -> bool {
    let Ok(mut f) = vfs.create(BOOTSTRAP_MARKER) else {
        return false;
    };
    f.append(b"bootstrap in progress\n").is_ok() && f.sync().is_ok() && f.finish().is_ok()
}

/// Applies one leader frame; sends the ack for apply progress.
fn apply_frame(
    db: &Db,
    vfs: &dyn Vfs,
    stream: &TcpStream,
    req: Request,
    applied: &mut u64,
    in_bootstrap: &mut bool,
    status: &FollowerStatus,
) -> FrameOutcome {
    match req {
        Request::SnapshotChunk { entries } => {
            if !*in_bootstrap {
                // Durably mark the directory before the first chunk
                // touches it: from here until `SnapshotDone` is fully
                // processed the local state is a checkpoint prefix that
                // a restart must wipe. Nothing is applied yet, so a
                // marker-write failure is only a retriable error.
                if !write_marker(vfs) {
                    return FrameOutcome::Failed;
                }
                *in_bootstrap = true;
            }
            let mut batch = WriteBatch::new();
            for (k, v) in &entries {
                batch.put(k, v);
            }
            if db.write_opt(&WriteOptions { sync: false }, batch).is_err() {
                return FrameOutcome::Failed;
            }
            FrameOutcome::Applied
        }
        Request::SnapshotDone { seq } => {
            // The checkpoint scan was pinned at `seq`, so the local
            // counter is at most `seq`; jump into lockstep. The jump is
            // persisted (manifest) and the applied chunks flushed
            // *before* the marker comes off: only then is the directory
            // a state a restart may serve and extend.
            if db.advance_sequence_to(seq).is_err() || db.flush().is_err() {
                return FrameOutcome::Failed;
            }
            if *in_bootstrap {
                if vfs.delete(BOOTSTRAP_MARKER).is_err() {
                    return FrameOutcome::Failed;
                }
                *in_bootstrap = false;
            }
            *applied = (*applied).max(seq);
            status.applied_seq.store(*applied, Ordering::SeqCst);
            if send_ack(stream, *applied) {
                FrameOutcome::Applied
            } else {
                FrameOutcome::Failed
            }
        }
        Request::Replicate { first_seq: _, sync, records } => {
            let n = records.len();
            for (i, record) in records.into_iter().enumerate() {
                // The shipped record is the batch: committed as it came,
                // no decode into operations and re-encoding of them.
                let Ok(batch) = WriteBatch::from_record(record) else {
                    return FrameOutcome::Failed;
                };
                let (rec_seq, count) = (batch.sequence(), batch.len() as u64);
                if count == 0 {
                    continue;
                }
                let rec_last = rec_seq + count - 1;
                if rec_last <= *applied {
                    continue; // re-delivery after a reconnect
                }
                if rec_seq != *applied + 1 {
                    // A gap: applying would assign wrong sequences.
                    // Break the connection and reconnect with have_seq.
                    return FrameOutcome::Failed;
                }
                // One fsync per synced group, like the leader: only the
                // final record of the group pays it.
                let rec_sync = sync && i + 1 == n;
                if db.write_opt(&WriteOptions { sync: rec_sync }, batch).is_err() {
                    return FrameOutcome::Failed;
                }
                *applied = rec_last;
            }
            status.applied_seq.store(*applied, Ordering::SeqCst);
            if send_ack(stream, *applied) {
                FrameOutcome::Applied
            } else {
                FrameOutcome::Failed
            }
        }
        Request::ReplicaReject => {
            // The leader cannot serve our have_seq: local state has
            // diverged from anything it can extend. Mark it for a wipe
            // so the next process start re-bootstraps from empty, and
            // park this loop.
            let _ = write_marker(vfs);
            FrameOutcome::Fatal
        }
        _ => FrameOutcome::Failed, // the leader never sends anything else
    }
}

fn send_ack(mut stream: &TcpStream, seq: u64) -> bool {
    let ack = Request::ReplicaAck { seq };
    write_frame(&mut stream, &ack.encode()).is_ok()
}
