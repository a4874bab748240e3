//! What the workspace's test suites share, written once: a global
//! allocator that counts per thread ([`tally_allocations!`], [`watched`]),
//! the seeded generator ([`Rng`]), the decoder mutation loop
//! ([`for_each_mutant`]), a scratch directory removed on drop
//! ([`TempDir`]) and committed byte fixtures ([`read_byte_fixture`],
//! [`assert_byte_fixture`]). Dev-only, and the workspace's one `unsafe impl`.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

/// An error message is a few dozen bytes whatever the input; below this
/// an allocation says nothing about the input's length fields.
pub const MESSAGE_SLACK: usize = 128;

/// What [`watched`] saw its closure allocate: allocations (reallocations
/// count), and the largest size asked for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Spent {
    pub allocations: u64,
    pub largest: usize,
}

thread_local!(static WATCH: Cell<Option<Spent>> = const { Cell::new(None) });

/// Counts a request of `size` bytes against the calling thread, if it is
/// watched; `try_with` skips a thread whose locals are being torn down.
fn note(size: usize) {
    let count = |s: Spent| Spent { allocations: s.allocations + 1, largest: s.largest.max(size) };
    let _ = WATCH.try_with(|watch| watch.set(watch.get().map(count)));
}

/// The system allocator, counting a thread's requests while it runs [`watched`].
pub struct Tally;

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what it returns, so the contract holds as it does for `System`;
// the counting touches a `const` thread-local `Cell`, which cannot allocate.
unsafe impl GlobalAlloc for Tally {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller keeps `alloc`'s contract, which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`, and the caller keeps `realloc`'s contract on `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Installs [`Tally`] as the global allocator of the test binary naming it.
#[macro_export]
macro_rules! tally_allocations {
    () => { #[global_allocator] static TALLY: $crate::Tally = $crate::Tally; };
}

/// Runs `f` and returns its result with what it allocated on this thread;
/// other threads, another test's among them, do not count. Panics if the
/// binary did not install [`Tally`], since every count would read zero.
pub fn watched<T>(f: impl FnOnce() -> T) -> (T, Spent) {
    WATCH.set(Some(Spent::default()));
    drop(std::hint::black_box(Box::new(0u8)));
    let probe = WATCH.replace(Some(Spent::default()));
    assert_eq!(probe.map(|p| p.allocations), Some(1), "the binary needs testkit::tally_allocations!()");
    (f(), WATCH.take().expect("set before `f` ran"))
}

/// A xorshift64* generator, built from its raw state: a zero state draws
/// zeros forever, so a suite that takes arbitrary seeds sets a bit first.
#[derive(Clone, Debug)]
pub struct Rng(pub u64);

impl Rng {
    /// The next draw.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A draw below `n`, by remainder.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `p`, from the draw's top 53 bits.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Up to `max` bytes: the length is drawn first, then each byte.
    pub fn bytes(&mut self, max: usize) -> Vec<u8> {
        (0..self.below(max + 1)).map(|_| self.next() as u8).collect()
    }

    /// Masks for one byte of [`for_each_mutant`]: its low bit, its high
    /// bit, and a drawn byte with bit 1 set, so never zero.
    pub fn masks(&mut self) -> [u8; 3] {
        [0x01, 0x80, self.next() as u8 | 0x02]
    }
}

/// One way [`for_each_mutant`] changed its input: kept its first `n`
/// bytes, or XORed the byte at `at` with `mask`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    Cut(usize),
    Flip { at: usize, mask: u8 },
}

impl std::fmt::Display for Mutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mutation::Cut(n) => write!(f, "cut at {n}"),
            Mutation::Flip { at, mask } => write!(f, "byte {at} ^ {mask:#04x}"),
        }
    }
}

/// Hands `each` every mutant of `input` with its label: each truncation,
/// shortest first, then each byte XORed with each of the three masks that
/// `masks` returns for it, called once per byte before that byte's mutants.
/// Lies in a format's count and length fields are the caller's to add.
pub fn for_each_mutant(input: &[u8], mut masks: impl FnMut() -> [u8; 3], mut each: impl FnMut(Mutation, &[u8])) {
    for n in 0..input.len() {
        each(Mutation::Cut(n), &input[..n]);
    }
    let mut mutant = input.to_vec();
    for at in 0..input.len() {
        for mask in masks() {
            mutant[at] ^= mask;
            each(Mutation::Flip { at, mask }, &mutant);
            mutant[at] ^= mask;
        }
    }
}

/// A scratch directory under the system temp dir, unique to the process
/// and the calling thread, emptied when made and removed on drop.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// The directory for `tag`; the database opened in it creates it.
    pub fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "lsm-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        TempDir { path }
    }

    /// The path, as `StdVfs::new` takes it.
    pub fn as_str(&self) -> String {
        self.path.to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A committed byte fixture: one `name hex` line per encoded value (a bare
/// `name` for no bytes), in order. Read by a format's *backward* test,
/// which decodes each line to the value it names.
pub fn read_byte_fixture(path: &str) -> Vec<(String, Vec<u8>)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    text.lines()
        .map(|line| {
            let (name, hex) = line.split_once(' ').unwrap_or((line, ""));
            assert!(hex.len() % 2 == 0, "{path}: {name}: odd hex length");
            let bytes = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap_or_else(|e| panic!("{path}: {name}: {e}")))
                .collect();
            (name.to_string(), bytes)
        })
        .collect()
}

/// A format's *forward* test: the encoder's bytes for each named value,
/// as fixture lines, equal the committed file line for line. With
/// `WRITE_FORMAT_FIXTURES=1` set the file is written first; a format that
/// means to move says so and rewrites it on purpose.
pub fn assert_byte_fixture(path: &str, encoded: &[(String, Vec<u8>)]) {
    let mut text = String::new();
    for (name, bytes) in encoded {
        text.push_str(name);
        if !bytes.is_empty() {
            text.push(' ');
            text.extend(bytes.iter().map(|b| format!("{b:02x}")));
        }
        text.push('\n');
    }
    if std::env::var_os("WRITE_FORMAT_FIXTURES").is_some() {
        std::fs::write(path, &text).unwrap();
    }
    let fixture = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    for (at, (got, want)) in text.lines().zip(fixture.lines()).enumerate() {
        assert_eq!(got, want, "line {} of {path}", at + 1);
    }
    assert_eq!(text, fixture, "same lines, different line count or trailing bytes");
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::tally_allocations!();

    /// An allocation and its growth to twice the capacity count; another
    /// thread's megabyte does not.
    #[test]
    fn watched_counts_this_threads_allocations_only() {
        let (v, spent) = watched(|| {
            let mut v = vec![7u8; 100];
            v.push(8);
            v
        });
        assert_eq!((v.len(), spent), (101, Spent { allocations: 2, largest: 200 }));
        let (thread, spent) = watched(|| std::thread::spawn(|| std::hint::black_box(vec![0u8; 1 << 20]).len()));
        assert_eq!((thread.join().unwrap(), spent.largest < 1 << 20), (1 << 20, true), "{spent:?}");
    }

    /// The first draws from the states the suites start at, as each suite's
    /// own copy of the generator drew them.
    #[test]
    fn the_suites_states_draw_what_they_always_drew() {
        let pinned = [
            (0x5eedba7c, 0x9116e7b885fd3d11), // batch_fuzz
            (0x5eedb10c, 0x0e7d3ea354e991a5), // block_fuzz
            (0x5eedf4a3, 0x10c8b803c3218e48), // decode_fuzz
            (0x5eed7ab1e, 0x7323977b4ff3e240), // sstable/table.rs
            (0x5eed1de8, 0x90341b25b83e1b8c), // sstable/table.rs
            (0xc0ffee00deadbeef, 0x3af4fda71efba8c6), // crash_recovery
            (0x5aaded00c0decaff, 0x263e6a0135ad1c61), // crash_recovery
            (0xfeedfacecafef00d, 0xf986b8f3bfe5061e), // crash_recovery
            (0x9e3779b97f4a7c15, 0x0d83b3e29a21487a), // fanout_model, seed 1
            (0xbadf00d, 0xfe2f32fb3875aeab),          // server.rs
        ];
        for (state, first) in pinned {
            assert_eq!(Rng(state).next(), first, "state {state:#x}");
        }
    }

    #[test]
    fn mutants_come_cuts_first_then_three_masks_a_byte() {
        let (mut labels, mut drawn) = (Vec::new(), 0);
        for_each_mutant(&[0x10, 0x20], || [0x01, 0x80, { drawn += 1; drawn }], |m, bytes| labels.push(format!("{m}: {bytes:02x?}")));
        let want = "cut at 0: [], cut at 1: [10], byte 0 ^ 0x01: [11, 20], byte 0 ^ 0x80: [90, 20], \
                    byte 0 ^ 0x01: [11, 20], byte 1 ^ 0x01: [10, 21], byte 1 ^ 0x80: [10, a0], byte 1 ^ 0x02: [10, 22]";
        assert_eq!(labels.join(", "), want);
    }
}
