//! Tracing from outside the program: thin wrappers at the seams the
//! crates already expose (`Vfs`, `KvEngine`, `EventListener`,
//! `LanguageModel`, `TuneTarget`) that record a span per call.
//!
//! Every span feeds per-kind histograms on its own thread (merged at the
//! end, so recording never contends); a 1-in-64 sample of operations also
//! keeps its full span records, which are written out when the run ends.
//! Parent links come from a thread-local stack: a `Vfs` call made on the
//! thread of an engine call nests inside it, and a span that starts with
//! an empty stack is a root — a client operation, a server-side engine
//! call, or background flush/compaction I/O.
//!
//! The untraced run never constructs any of this.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use elmo_tune::{Measurement, SessionError, TuneTarget};
use llm_client::{ChatRequest, ChatResponse, LanguageModel, LlmError};
use lsm_kvs::options::Options;
use lsm_kvs::{
    CompactionJobInfo, DbStats, EventListener, FlushJobInfo, KvEngine, RandomAccessFile, Result,
    ScanResult, Vfs, WritableFile, WriteBatch, WriteOptions, WriteRegime,
};

use crate::gen::mix;
use crate::json::Json;
use crate::stats::LogHist;

/// One in this many operations keeps its full span records.
const SAMPLE_EVERY: u64 = 64;
/// Cap on kept span records, so a long run cannot grow without bound.
const MAX_SPANS_PER_THREAD: usize = 200_000;

/// What a span measures; the layer boundary it was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A read as the client thread saw it.
    ClientRead,
    /// A write as the client thread saw it.
    ClientWrite,
    /// `KvEngine::get` on the engine.
    DbGet,
    /// `KvEngine::put`/`delete`/`write_opt` on the engine.
    DbWrite,
    /// `WritableFile::append`.
    VfsAppend,
    /// `WritableFile::sync`.
    VfsSync,
    /// `RandomAccessFile::read_at` and `Vfs::read_all`.
    VfsPread,
    /// `Vfs::create`/`open`/`delete`/`rename`/`link` and `finish`.
    VfsMeta,
    /// `LanguageModel::complete`.
    LlmComplete,
    /// `TuneTarget::prepare`.
    TunePrepare,
    /// `TuneTarget::measure`.
    TuneMeasure,
}

const KINDS: [Kind; 11] = [
    Kind::ClientRead,
    Kind::ClientWrite,
    Kind::DbGet,
    Kind::DbWrite,
    Kind::VfsAppend,
    Kind::VfsSync,
    Kind::VfsPread,
    Kind::VfsMeta,
    Kind::LlmComplete,
    Kind::TunePrepare,
    Kind::TuneMeasure,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::ClientRead => "client.read",
            Kind::ClientWrite => "client.write",
            Kind::DbGet => "db.get",
            Kind::DbWrite => "db.write",
            Kind::VfsAppend => "vfs.append",
            Kind::VfsSync => "vfs.sync",
            Kind::VfsPread => "vfs.pread",
            Kind::VfsMeta => "vfs.meta",
            Kind::LlmComplete => "llm.complete",
            Kind::TunePrepare => "tune.prepare",
            Kind::TuneMeasure => "tune.measure",
        }
    }

    fn is_client(self) -> bool {
        matches!(self, Kind::ClientRead | Kind::ClientWrite)
    }
}

/// One recorded span. `parent` is 0 for a root; `trace_id` is the span id
/// of the root it descends from, so the spans of one operation share it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub trace_id: u64,
    pub span_id: u64,
    pub parent: u64,
    pub kind: Kind,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The key id the operation was for (0 when it has none); joins a
    /// client span to the engine span it caused on the other side of a
    /// socket.
    pub tag: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Every span's self time, index-aligned with `spans`: its duration minus
/// the part of its interval that its direct children cover (overlapping
/// children are not counted twice, and a child is clipped to its parent's
/// interval).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|span| {
            let mut inside: Vec<(u64, u64)> = children
                .get(&span.span_id)
                .map(|c| {
                    c.iter()
                        .map(|(s, e)| (*s.max(&span.start_ns), *e.min(&span.end_ns)))
                        .collect()
                })
                .unwrap_or_default();
            inside.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (s, e) in inside {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Gives server-side engine roots the client span that caused them: same
/// tag, and the client's interval contains the engine's. In a closed loop
/// a client has one request in flight, so containment is unambiguous
/// unless two clients ask for the same key at once; then the tightest
/// enclosing client span wins.
pub fn join_across_socket(spans: &mut [Span]) {
    let clients: Vec<Span> = spans
        .iter()
        .filter(|s| s.kind.is_client())
        .cloned()
        .collect();
    let mut adopted: Vec<(u64, u64, u64)> = Vec::new(); // (old trace id, new parent, new trace id)
    for s in spans.iter_mut() {
        if s.parent != 0 || !matches!(s.kind, Kind::DbGet | Kind::DbWrite) {
            continue;
        }
        let best = clients
            .iter()
            .filter(|c| c.tag == s.tag && c.start_ns <= s.start_ns && s.end_ns <= c.end_ns)
            .min_by_key(|c| c.duration_ns());
        if let Some(c) = best {
            adopted.push((s.trace_id, c.span_id, c.trace_id));
            s.parent = c.span_id;
        }
    }
    for (old, _, new) in &adopted {
        for s in spans.iter_mut().filter(|s| s.trace_id == *old) {
            s.trace_id = *new;
        }
    }
}

/// Everything recorded for one kind of span.
#[derive(Debug, Clone, Default)]
pub struct KindStats {
    /// Span durations.
    pub total: LogHist,
    /// Span self times (duration minus same-thread children).
    pub self_time: LogHist,
    /// Spans that started inside another span (foreground work).
    pub nested: u64,
    /// Payload bytes the spans moved, where the call has a payload.
    pub bytes: u64,
    /// Payload bytes moved by nested spans.
    pub nested_bytes: u64,
    /// Self time of spans that descend from a client span.
    pub under_client_self_ns: u64,
}

impl KindStats {
    fn merge(&mut self, other: &KindStats) {
        self.total.merge(&other.total);
        self.self_time.merge(&other.self_time);
        self.nested += other.nested;
        self.bytes += other.bytes;
        self.nested_bytes += other.nested_bytes;
        self.under_client_self_ns += other.under_client_self_ns;
    }

    pub fn count(&self) -> u64 {
        self.total.count()
    }

    pub fn busy_s(&self) -> f64 {
        self.total.sum_ns() as f64 / 1e9
    }
}

#[derive(Default)]
struct ThreadLog {
    name: String,
    kinds: Vec<KindStats>,
    spans: Vec<Span>,
    roots_seen: u64,
}

struct Open {
    span_id: u64,
    trace_id: u64,
    kind: Kind,
    start_ns: u64,
    child_ns: u64,
    sampled: bool,
    tag: u64,
}

#[derive(Default)]
struct Local {
    /// The tracer this thread last recorded for, by address, and its log there.
    log: Option<(usize, u32, Arc<Mutex<ThreadLog>>)>,
    stack: Vec<Open>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// The recorder every wrapper shares.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    threads: Mutex<Vec<Arc<Mutex<ThreadLog>>>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

/// What a finished run reads back.
#[derive(Debug)]
pub struct Report {
    kinds: Vec<KindStats>,
    pub spans: Vec<Span>,
    pub threads: Vec<String>,
}

impl Report {
    pub fn kind(&self, kind: Kind) -> &KindStats {
        &self.kinds[kind as usize]
    }

    /// Σ self time of the layers below the client / Σ client-observed
    /// time: how much of what the client waited for the trace explains.
    pub fn accounted_share(&self) -> f64 {
        let client_ns: u64 = KINDS
            .iter()
            .filter(|k| k.is_client())
            .map(|k| self.kind(*k).total.sum_ns())
            .sum();
        let layers_ns: u64 = KINDS
            .iter()
            .filter(|k| !k.is_client())
            .map(|k| self.kind(*k).under_client_self_ns)
            .sum();
        if client_ns == 0 {
            0.0
        } else {
            layers_ns as f64 / client_ns as f64
        }
    }

    /// The sampled span records as a JSON document.
    pub fn spans_json(&self) -> Json {
        let self_ns = self_times_ns(&self.spans);
        let spans = self.spans.iter().zip(self_ns).map(|(s, self_ns)| {
            Json::obj([
                ("trace_id", Json::from(s.trace_id)),
                ("span_id", Json::from(s.span_id)),
                ("parent", Json::from(s.parent)),
                ("name", Json::from(s.kind.name())),
                (
                    "thread",
                    Json::from(self.threads[s.thread as usize].as_str()),
                ),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                ("self_ns", Json::from(self_ns)),
                ("tag", Json::from(s.tag)),
            ])
        });
        Json::obj([
            ("sample_every", Json::from(SAMPLE_EVERY)),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

impl Tracer {
    /// A tracer that records nothing until [`enable`](Self::enable).
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            threads: Mutex::new(Vec::new()),
        })
    }

    /// Starts recording; set-up work before this leaves no trace.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::SeqCst);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span on this thread; it closes when the guard drops.
    pub fn enter(self: &Arc<Self>, kind: Kind, tag: u64) -> Guard {
        if !self.enabled.load(Ordering::Relaxed) {
            return Guard {
                tracer: None,
                bytes: 0,
            };
        }
        let span_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            let (trace_id, sampled) = match local.stack.last() {
                Some(parent) => (parent.trace_id, parent.sampled),
                // A root with a key samples by key, so both ends of a
                // socket keep the same operations; one without samples
                // every 64th root of its thread.
                None if tag != 0 => (span_id, mix(tag).is_multiple_of(SAMPLE_EVERY)),
                None => {
                    let log = self.thread_log(&mut local);
                    let mut log = log.lock().expect("thread log lock");
                    log.roots_seen += 1;
                    (span_id, log.roots_seen % SAMPLE_EVERY == 1)
                }
            };
            let start_ns = self.now_ns();
            local.stack.push(Open {
                span_id,
                trace_id,
                kind,
                start_ns,
                child_ns: 0,
                sampled,
                tag,
            });
        });
        Guard {
            tracer: Some(Arc::clone(self)),
            bytes: 0,
        }
    }

    fn thread_log(self: &Arc<Self>, local: &mut Local) -> Arc<Mutex<ThreadLog>> {
        let me = Arc::as_ptr(self) as usize;
        if let Some((owner, _, log)) = &local.log {
            if *owner == me {
                return Arc::clone(log);
            }
        }
        let log = Arc::new(Mutex::new(ThreadLog {
            name: std::thread::current()
                .name()
                .unwrap_or("unnamed")
                .to_string(),
            kinds: vec![KindStats::default(); KINDS.len()],
            ..ThreadLog::default()
        }));
        let mut threads = self.threads.lock().expect("tracer thread list lock");
        threads.push(Arc::clone(&log));
        local.log = Some((me, threads.len() as u32 - 1, Arc::clone(&log)));
        log
    }

    fn exit(self: &Arc<Self>, bytes: u64) {
        let end_ns = self.now_ns();
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            let Some(open) = local.stack.pop() else {
                return;
            };
            let dur = end_ns.saturating_sub(open.start_ns);
            let parent = local.stack.last_mut().map(|p| {
                p.child_ns += dur;
                p.span_id
            });
            let under_client = local
                .stack
                .first()
                .is_some_and(|root| root.kind.is_client());
            let log = self.thread_log(&mut local);
            let thread = local.log.as_ref().map(|(_, idx, _)| *idx).unwrap_or(0);
            let mut log = log.lock().expect("thread log lock");
            let self_ns = dur.saturating_sub(open.child_ns);
            let k = &mut log.kinds[open.kind as usize];
            k.total.record(dur);
            k.self_time.record(self_ns);
            k.bytes += bytes;
            if parent.is_some() {
                k.nested += 1;
                k.nested_bytes += bytes;
            }
            if under_client {
                k.under_client_self_ns += self_ns;
            }
            if open.sampled && log.spans.len() < MAX_SPANS_PER_THREAD {
                log.spans.push(Span {
                    trace_id: open.trace_id,
                    span_id: open.span_id,
                    parent: parent.unwrap_or(0),
                    kind: open.kind,
                    thread,
                    start_ns: open.start_ns,
                    end_ns,
                    tag: open.tag,
                });
            }
        });
    }

    /// Merges what every thread recorded. Call after the traced work has
    /// stopped; spans still open are not included.
    pub fn report(&self) -> Report {
        let threads = self.threads.lock().expect("tracer thread list lock");
        let mut kinds = vec![KindStats::default(); KINDS.len()];
        let mut spans = Vec::new();
        let mut names = Vec::new();
        for log in threads.iter() {
            let log = log.lock().expect("thread log lock");
            for (merged, own) in kinds.iter_mut().zip(&log.kinds) {
                merged.merge(own);
            }
            spans.extend(log.spans.iter().cloned());
            names.push(log.name.clone());
        }
        spans.sort_by_key(|s| s.start_ns);
        join_across_socket(&mut spans);
        Report {
            kinds,
            spans,
            threads: names,
        }
    }
}

/// Closes its span on drop.
pub struct Guard {
    tracer: Option<Arc<Tracer>>,
    bytes: u64,
}

impl Guard {
    /// Sets the payload size the span moved.
    pub fn bytes(&mut self, n: usize) {
        self.bytes = n as u64;
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(tracer) = &self.tracer {
            tracer.exit(self.bytes);
        }
    }
}

/// The number behind one of the benchmark's decimal keys, plus one (tag 0
/// means "no key"); any other key hashes. Small, so it survives a trip
/// through a JSON number.
pub fn key_tag(key: &[u8]) -> u64 {
    let decimal = key.iter().try_fold(0u64, |acc, b| {
        b.is_ascii_digit()
            .then(|| acc.wrapping_mul(10).wrapping_add(u64::from(b - b'0')))
    });
    match decimal {
        Some(n) => n.wrapping_add(1).max(1),
        None => (key.iter().fold(0, |h, b| mix(h ^ u64::from(*b))) >> 12).max(1),
    }
}

// ---------------------------------------------------------------------------
// Vfs
// ---------------------------------------------------------------------------

/// A [`Vfs`] that records a span around every call into the one it wraps.
#[derive(Debug)]
pub struct TraceVfs {
    inner: Arc<dyn Vfs>,
    tracer: Arc<Tracer>,
}

impl TraceVfs {
    pub fn new(inner: Arc<dyn Vfs>, tracer: Arc<Tracer>) -> TraceVfs {
        TraceVfs { inner, tracer }
    }

    fn meta<T>(&self, f: impl FnOnce() -> T) -> T {
        let _span = self.tracer.enter(Kind::VfsMeta, 0);
        f()
    }
}

impl Vfs for TraceVfs {
    fn create(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        let inner = self.meta(|| self.inner.create(path))?;
        Ok(Box::new(TraceWritable {
            inner,
            tracer: Arc::clone(&self.tracer),
        }))
    }

    fn open(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>> {
        let inner = self.meta(|| self.inner.open(path))?;
        Ok(Arc::new(TraceReadable {
            inner,
            tracer: Arc::clone(&self.tracer),
        }))
    }

    fn read_all(&self, path: &str) -> Result<Vec<u8>> {
        let mut span = self.tracer.enter(Kind::VfsPread, 0);
        let data = self.inner.read_all(path)?;
        span.bytes(data.len());
        Ok(data)
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.meta(|| self.inner.delete(path))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.meta(|| self.inner.rename(from, to))
    }

    fn link(&self, from: &str, to: &str) -> Result<()> {
        self.meta(|| self.inner.link(from, to))
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list(prefix)
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        self.inner.file_size(path)
    }
}

struct TraceWritable {
    inner: Box<dyn WritableFile>,
    tracer: Arc<Tracer>,
}

impl WritableFile for TraceWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let mut span = self.tracer.enter(Kind::VfsAppend, 0);
        span.bytes(data.len());
        self.inner.append(data)
    }

    fn sync(&mut self) -> Result<()> {
        let _span = self.tracer.enter(Kind::VfsSync, 0);
        self.inner.sync()
    }

    fn finish(&mut self) -> Result<()> {
        let _span = self.tracer.enter(Kind::VfsMeta, 0);
        self.inner.finish()
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

struct TraceReadable {
    inner: Arc<dyn RandomAccessFile>,
    tracer: Arc<Tracer>,
}

impl RandomAccessFile for TraceReadable {
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut span = self.tracer.enter(Kind::VfsPread, 0);
        let data = self.inner.read_at(offset, len)?;
        span.bytes(data.len());
        Ok(data)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

// ---------------------------------------------------------------------------
// KvEngine
// ---------------------------------------------------------------------------

/// A [`KvEngine`] that records a span around reads and writes of the one
/// it wraps and forwards everything else untouched.
pub struct TraceEngine {
    inner: Arc<dyn KvEngine>,
    tracer: Arc<Tracer>,
}

impl TraceEngine {
    pub fn new(inner: Arc<dyn KvEngine>, tracer: Arc<Tracer>) -> TraceEngine {
        TraceEngine { inner, tracer }
    }
}

impl KvEngine for TraceEngine {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let _span = self.tracer.enter(Kind::DbWrite, key_tag(key));
        self.inner.put(key, value)
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        let _span = self.tracer.enter(Kind::DbWrite, key_tag(key));
        self.inner.delete(key)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let _span = self.tracer.enter(Kind::DbGet, key_tag(key));
        self.inner.get(key)
    }

    fn multi_get(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        let tag = keys.first().map(|k| key_tag(k)).unwrap_or(0);
        let _span = self.tracer.enter(Kind::DbGet, tag);
        self.inner.multi_get(keys)
    }

    fn write_opt(&self, wopts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        let tag = batch.iter().next().map(|(_, k, _)| key_tag(k)).unwrap_or(0);
        let _span = self.tracer.enter(Kind::DbWrite, tag);
        self.inner.write_opt(wopts, batch)
    }

    fn scan(&self, start: &[u8], count: usize) -> Result<ScanResult> {
        self.inner.scan(start, count)
    }

    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }

    fn wait_background_idle(&self) -> Result<()> {
        self.inner.wait_background_idle()
    }

    fn stats(&self) -> DbStats {
        self.inner.stats()
    }

    fn stats_checked(&self) -> Result<DbStats> {
        self.inner.stats_checked()
    }

    fn stats_text(&self) -> String {
        self.inner.stats_text()
    }

    fn write_regime(&self) -> WriteRegime {
        self.inner.write_regime()
    }

    fn set_options(&self, changes: &[(String, String)]) -> Result<()> {
        self.inner.set_options(changes)
    }

    fn options_ini(&self) -> Result<String> {
        self.inner.options_ini()
    }

    fn checkpoint(&self, dir: &str) -> Result<()> {
        self.inner.checkpoint(dir)
    }
}

// ---------------------------------------------------------------------------
// EventListener
// ---------------------------------------------------------------------------

/// Counts flush and compaction completions as the engine announces them.
#[derive(Debug, Default)]
pub struct TraceListener {
    pub flush_jobs: AtomicU64,
    pub flush_bytes: AtomicU64,
    pub compaction_jobs: AtomicU64,
    pub compaction_bytes_read: AtomicU64,
    pub compaction_bytes_written: AtomicU64,
    pub compaction_keys_dropped: AtomicU64,
}

impl EventListener for TraceListener {
    fn on_flush_completed(&self, info: &FlushJobInfo) {
        self.flush_jobs.fetch_add(1, Ordering::Relaxed);
        self.flush_bytes
            .fetch_add(info.file_size, Ordering::Relaxed);
    }

    fn on_compaction_completed(&self, info: &CompactionJobInfo) {
        self.compaction_jobs.fetch_add(1, Ordering::Relaxed);
        self.compaction_bytes_read
            .fetch_add(info.bytes_read, Ordering::Relaxed);
        self.compaction_bytes_written
            .fetch_add(info.bytes_written, Ordering::Relaxed);
        self.compaction_keys_dropped
            .fetch_add(info.keys_dropped, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// LanguageModel and TuneTarget
// ---------------------------------------------------------------------------

/// A [`LanguageModel`] that records a span around `complete`.
pub struct TraceModel<M> {
    inner: M,
    tracer: Arc<Tracer>,
}

impl<M: LanguageModel> TraceModel<M> {
    pub fn new(inner: M, tracer: Arc<Tracer>) -> Self {
        TraceModel { inner, tracer }
    }
}

impl<M: LanguageModel> LanguageModel for TraceModel<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&mut self, request: &ChatRequest) -> std::result::Result<ChatResponse, LlmError> {
        let _span = self.tracer.enter(Kind::LlmComplete, 0);
        self.inner.complete(request)
    }
}

/// A [`TuneTarget`] that records a span around `prepare` and `measure`
/// and counts the simulated engine operations each measurement ran.
pub struct TraceTarget<T> {
    inner: T,
    tracer: Arc<Tracer>,
    /// Simulated engine operations completed inside `measure`.
    pub sim_ops: Arc<AtomicU64>,
}

impl<T: TuneTarget> TraceTarget<T> {
    pub fn new(inner: T, tracer: Arc<Tracer>) -> Self {
        TraceTarget {
            inner,
            tracer,
            sim_ops: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl<T: TuneTarget> TuneTarget for TraceTarget<T> {
    fn workload_text(&self) -> String {
        self.inner.workload_text()
    }

    fn workload_short_name(&self) -> String {
        self.inner.workload_short_name()
    }

    fn prepare(&mut self, start: &Options) -> std::result::Result<(), SessionError> {
        let _span = self.tracer.enter(Kind::TunePrepare, 0);
        self.inner.prepare(start)
    }

    fn measure(
        &mut self,
        opts: &Options,
        reference: Option<f64>,
        want_stats: bool,
    ) -> std::result::Result<Measurement, SessionError> {
        let _span = self.tracer.enter(Kind::TuneMeasure, 0);
        let m = self.inner.measure(opts, reference, want_stats)?;
        self.sim_ops.fetch_add(m.parsed.ops, Ordering::Relaxed);
        Ok(m)
    }

    fn restore(&mut self, opts: &Options) -> std::result::Result<(), SessionError> {
        self.inner.restore(opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_kvs::MemVfs;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            trace_id: 1,
            span_id: id,
            parent,
            kind: Kind::DbWrite,
            thread: 0,
            start_ns: start,
            end_ns: end,
            tag: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover_once() {
        // root [0,100) with children [10,30), [20,50) (overlapping the
        // first), [70,120) (running past the parent) and a grandchild.
        let tree = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),
            span(4, 1, 70, 120),
            span(5, 2, 12, 18),
            span(6, 0, 200, 260), // unrelated root
        ];
        // The root's children cover [10,50) and [70,100): 40 + 30.
        assert_eq!(self_times_ns(&tree), vec![30, 14, 30, 50, 6, 60]);
        // Self times of a tree sum to the root's duration when children
        // are disjoint and stay inside their parents.
        let neat = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 2, 15, 25),
            span(4, 1, 50, 90),
        ];
        assert_eq!(self_times_ns(&neat).iter().sum::<u64>(), 100);
    }

    #[test]
    fn join_across_socket_adopts_by_tag_and_containment() {
        let client = |id, start, end, tag| Span {
            trace_id: id,
            span_id: id,
            parent: 0,
            kind: Kind::ClientRead,
            thread: 0,
            start_ns: start,
            end_ns: end,
            tag,
        };
        let engine = |id, parent, trace, start, end, tag, kind| Span {
            trace_id: trace,
            span_id: id,
            parent,
            kind,
            thread: 1,
            start_ns: start,
            end_ns: end,
            tag,
        };
        let mut spans = vec![
            client(1, 0, 100, 7),
            client(2, 0, 100, 8),
            engine(10, 0, 10, 40, 60, 7, Kind::DbGet),
            engine(11, 10, 10, 45, 50, 0, Kind::VfsPread),
            engine(12, 0, 12, 40, 160, 8, Kind::DbGet), // not contained: stays a root
        ];
        join_across_socket(&mut spans);
        assert_eq!((spans[2].parent, spans[2].trace_id), (1, 1));
        assert_eq!(
            (spans[3].parent, spans[3].trace_id),
            (10, 1),
            "children follow their root"
        );
        assert_eq!((spans[4].parent, spans[4].trace_id), (0, 12));
    }

    #[test]
    fn wrappers_nest_vfs_calls_inside_the_engine_call_on_the_same_thread() {
        // An "engine" that appends to a traced file on every put.
        struct Appender(Mutex<Box<dyn WritableFile>>);
        impl KvEngine for Appender {
            fn put(&self, _k: &[u8], v: &[u8]) -> Result<()> {
                self.0.lock().unwrap().append(v)
            }
            fn delete(&self, _k: &[u8]) -> Result<()> {
                Ok(())
            }
            fn get(&self, _k: &[u8]) -> Result<Option<Vec<u8>>> {
                Ok(None)
            }
            fn write_opt(&self, _w: &WriteOptions, _b: WriteBatch) -> Result<()> {
                Ok(())
            }
            fn scan(&self, _s: &[u8], _c: usize) -> Result<ScanResult> {
                Ok(Vec::new())
            }
            fn flush(&self) -> Result<()> {
                Ok(())
            }
            fn wait_background_idle(&self) -> Result<()> {
                Ok(())
            }
            fn stats(&self) -> DbStats {
                unimplemented!("not used")
            }
            fn stats_text(&self) -> String {
                String::new()
            }
        }

        let tracer = Tracer::new();
        let vfs = TraceVfs::new(Arc::new(MemVfs::new()), Arc::clone(&tracer));
        let file = vfs.create("f").unwrap();
        let engine = TraceEngine::new(Arc::new(Appender(Mutex::new(file))), Arc::clone(&tracer));

        engine.put(b"0000000000000002", b"before enable").unwrap();
        assert_eq!(
            tracer.report().kind(Kind::DbWrite).count(),
            0,
            "disabled tracer records nothing"
        );

        tracer.enable();
        for id in 0..640u64 {
            let key = crate::gen::key(id);
            let _client = tracer.enter(Kind::ClientWrite, key_tag(&key));
            engine.put(&key, &[0u8; 100]).unwrap();
        }
        let report = tracer.report();
        let (client, db, append) = (
            report.kind(Kind::ClientWrite),
            report.kind(Kind::DbWrite),
            report.kind(Kind::VfsAppend),
        );
        assert_eq!(
            (client.count(), db.count(), append.count()),
            (640, 640, 640)
        );
        assert_eq!((db.nested, append.nested, client.nested), (640, 640, 0));
        assert_eq!(append.bytes, 64_000);
        // Online self time is duration minus same-thread children.
        assert_eq!(
            db.self_time.sum_ns(),
            db.total.sum_ns() - append.total.sum_ns()
        );
        let share = report.accounted_share();
        assert!(share > 0.0 && share <= 1.0, "accounted share {share}");
        // Sampled records: whole operations, linked client -> db -> append.
        assert!(!report.spans.is_empty() && report.spans.len().is_multiple_of(3));
        let self_ns = self_times_ns(&report.spans);
        for (s, self_ns) in report.spans.iter().zip(self_ns) {
            match s.kind {
                Kind::VfsAppend => {
                    let parent = report.spans.iter().find(|p| p.span_id == s.parent).unwrap();
                    assert_eq!(parent.kind, Kind::DbWrite);
                    assert_eq!(
                        self_ns,
                        s.duration_ns(),
                        "a leaf's self time is its duration"
                    );
                }
                _ => assert!(
                    self_ns < s.duration_ns(),
                    "a parent's self time excludes its child"
                ),
            }
        }
    }
}
