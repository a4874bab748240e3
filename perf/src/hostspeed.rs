//! The host's speed, measured beside the program.
//!
//! The reference host is a two-processor virtual machine on a shared
//! server. For minutes at a time everything in it that leaves the core —
//! system calls most of all, then any code that misses its caches — runs
//! 1.5 to 2 times slower, while pure arithmetic does not change. With one
//! binary and one seed `fill` moved between 210 k and 125 k operations a
//! second and back within the hour and `serve_mixed` between 36 k and
//! 20 k; over 20 runs of each workload the interquartile range of the
//! measured timings was 0.13 to 0.46 of their median, against bounds of
//! 0.25. A change of state outlasts any run the time budget allows, so no
//! run length and no median within a run steadies that.
//!
//! So the benchmark measures the state it runs in. Every client thread
//! owns a [`Gauge`] and, every 10 ms between two operations, has it run
//! three short fixed kernels that do what the slow state slows: 4 KiB
//! reads from a cached file, 128 B appends to a file, 128 B datagrams to
//! itself. A thread's *slowdown* is how long the kernels took (the median
//! of each, their geometric mean) relative to [`NOMINAL_NS`]; a phase's
//! is the geometric mean over its client threads, because the two
//! processors are not always slowed alike. Every timing the benchmark
//! gates is divided by the slowdown of the phase it was taken in, and
//! every rate multiplied. The kernels take under 1% of a phase.
//!
//! What that buys: in two sets of ten runs half an hour apart, between which
//! the host changed state (`serve_mixed`'s slowdown read 0.93 in one and
//! 1.46 in the other, and its measured medians were 1.6 times apart), the
//! corrected medians of every gated timing agreed within 8% and the
//! corrected interquartile ranges were 0.03–0.12 of the median. What it
//! costs: the gauge's own noise, about 0.05, which in a quiet hour is
//! more than the measured timings spread by themselves.
//!
//! What this is not: a model of the program. The kernels do not know how
//! much of an operation is system call and how much arithmetic, so a
//! timing the slow state hardly moves (`read_cold`'s median `Get`, a
//! third as sensitive as the kernels) is over-corrected, by about a
//! tenth between the two states. Per-layer numbers are reported as
//! measured, with `host.slowdown` beside them, and `perf one` prints each
//! phase's slowdown on standard error, so the measured value of any
//! gated timing is the printed one times that.

use std::fs::File;
use std::io::Write;
use std::net::UdpSocket;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::stats::median;

/// What one sample holds: nanoseconds for the read, append and datagram
/// kernels.
pub type Sample = [u32; 3];

/// About what the kernels cost on the reference host in its quiet state,
/// beside a two-client workload. They share caches and the kernel's locks
/// with the workload, so the quiet slowdown differs a little from one
/// workload to the next; the constants only set the scale, and every
/// comparison of two runs of one workload divides them out.
pub const NOMINAL_NS: [f64; 3] = [24_000.0, 11_000.0, 24_000.0];

/// How often a busy client thread samples.
const EVERY: Duration = Duration::from_millis(10);

const PAGE: usize = 4096;
const READ_FILE_PAGES: u64 = 256;
const READS: u64 = 32;
const APPENDS: usize = 16;
const DATAGRAMS: usize = 8;
const SMALL: usize = 128;
/// The append file is cut back to empty when it reaches this size.
const APPEND_FILE_MAX: usize = 8 << 20;

pub struct Gauge {
    read_file: File,
    append_file: File,
    appended: usize,
    socket: UdpSocket,
    paths: [PathBuf; 2],
    cursor: u64,
    next: Instant,
    samples: Vec<Sample>,
}

impl Gauge {
    /// Creates the gauge's two scratch files under `perf/out/tmp` (removed
    /// when it is dropped) and its loopback socket.
    pub fn new() -> std::io::Result<Gauge> {
        static SERIAL: AtomicU64 = AtomicU64::new(0);
        let dir = crate::out_dir().join("tmp");
        std::fs::create_dir_all(&dir)?;
        let stem = format!(
            "gauge-{}-{}",
            std::process::id(),
            SERIAL.fetch_add(1, Ordering::Relaxed)
        );
        let paths = [
            dir.join(format!("{stem}.read")),
            dir.join(format!("{stem}.append")),
        ];
        std::fs::write(&paths[0], vec![7u8; PAGE * READ_FILE_PAGES as usize])?;
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.connect(socket.local_addr()?)?;
        Ok(Gauge {
            read_file: File::open(&paths[0])?,
            append_file: File::create(&paths[1])?,
            appended: 0,
            socket,
            paths,
            cursor: 0,
            next: Instant::now(),
            samples: Vec::new(),
        })
    }

    /// Takes a sample if one is due; `now` is a time the caller has just
    /// read anyway, so an operation that is not followed by a sample pays
    /// one comparison.
    #[inline]
    pub fn tick(&mut self, now: Instant) {
        if now >= self.next {
            self.sample();
            self.next = Instant::now() + EVERY;
        }
    }

    /// Runs the three kernels once. An I/O error here is a broken
    /// sandbox, not a measurement: it panics.
    pub fn sample(&mut self) {
        let mut page = [0u8; PAGE];
        let mut small = [0u8; SMALL];
        let start = Instant::now();
        for _ in 0..READS {
            // An odd stride over a power-of-two file visits every page.
            self.cursor = (self.cursor + 37) % READ_FILE_PAGES;
            self.read_file
                .read_exact_at(&mut page, self.cursor * PAGE as u64)
                .expect("gauge: read");
        }
        let read_done = Instant::now();
        for _ in 0..APPENDS {
            self.append_file
                .write_all(&page[..SMALL])
                .expect("gauge: append");
        }
        self.appended += APPENDS * SMALL;
        if self.appended >= APPEND_FILE_MAX {
            self.append_file.set_len(0).expect("gauge: truncate");
            self.appended = 0;
        }
        let append_done = Instant::now();
        for _ in 0..DATAGRAMS {
            self.socket.send(&page[..SMALL]).expect("gauge: send");
            self.socket.recv(&mut small).expect("gauge: receive");
        }
        let datagrams_done = Instant::now();
        std::hint::black_box((&page, &small));
        let ns = |d: Duration| u32::try_from(d.as_nanos()).unwrap_or(u32::MAX);
        self.samples.push([
            ns(read_done - start),
            ns(append_done - read_done),
            ns(datagrams_done - append_done),
        ]);
    }

    #[cfg(test)]
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The slowdown over this gauge's own samples.
    pub fn slowdown(&self) -> f64 {
        slowdown(&self.samples)
    }
}

impl Drop for Gauge {
    fn drop(&mut self) {
        for path in &self.paths {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({} samples)", self.samples.len())
    }
}

/// The geometric mean of the slowdowns of several threads' gauges.
pub fn combined<'a>(gauges: impl IntoIterator<Item = &'a Gauge>) -> f64 {
    let logs: Vec<f64> = gauges.into_iter().map(|g| g.slowdown().ln()).collect();
    if logs.is_empty() {
        return 1.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// How much slower than [`NOMINAL_NS`] the kernels ran: per kernel the
/// median over `samples` relative to its nominal cost, then the geometric
/// mean of the three. Without a sample there is nothing to correct by,
/// and the answer is 1.
pub fn slowdown(samples: &[Sample]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = (0..NOMINAL_NS.len())
        .map(|k| {
            let column: Vec<f64> = samples.iter().map(|s| f64::from(s[k])).collect();
            (median(&column).max(1.0) / NOMINAL_NS[k]).ln()
        })
        .sum();
    (log_sum / NOMINAL_NS.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_geometric_mean_of_the_kernel_medians() {
        let nominal = NOMINAL_NS.map(|ns| ns as u32);
        assert!((slowdown(&[nominal; 5]) - 1.0).abs() < 1e-9);
        // One kernel twice as slow, one half as slow, one unchanged: 1.
        let mixed = [nominal[0] * 2, nominal[1] / 2, nominal[2]];
        assert!((slowdown(&[mixed; 3]) - 1.0).abs() < 1e-9);
        // All three 1.5 times slower in most samples; an outlier does not
        // move the medians.
        let slow = nominal.map(|ns| ns + ns / 2);
        let samples = [slow, slow, slow, slow, [u32::MAX; 3]];
        assert!((slowdown(&samples) - 1.5).abs() < 1e-9);
        assert_eq!(slowdown(&[]), 1.0);
    }

    #[test]
    fn threads_combine_by_geometric_mean() {
        let nominal = NOMINAL_NS.map(|ns| ns as u32);
        let mut fast = Gauge::new().unwrap();
        let mut slow = Gauge::new().unwrap();
        fast.samples = vec![nominal; 3];
        slow.samples = vec![nominal.map(|ns| ns * 4); 3];
        assert!((combined([&fast, &slow]) - 2.0).abs() < 1e-9);
        assert_eq!(combined(std::iter::empty::<&Gauge>()), 1.0);
    }

    #[test]
    fn a_gauge_samples_when_due_and_cleans_up_after_itself() {
        let mut gauge = Gauge::new().unwrap();
        let paths = gauge.paths.clone();
        assert!(paths.iter().all(|p| p.exists()));
        let now = Instant::now();
        gauge.tick(now); // the first is always due
        gauge.tick(now); // the second is not: 10 ms have not passed
        assert_eq!(gauge.samples().len(), 1);
        gauge.sample();
        assert_eq!(gauge.samples().len(), 2);
        assert!(gauge.samples().iter().flatten().all(|ns| *ns > 0));
        // A kernel takes microseconds, not milliseconds or nothing: the
        // slowdown of any working host is within a factor of 30 of 1.
        let s = gauge.slowdown();
        assert!((1.0 / 30.0..30.0).contains(&s), "slowdown {s}");
        drop(gauge);
        assert!(paths.iter().all(|p| !p.exists()));
    }
}
