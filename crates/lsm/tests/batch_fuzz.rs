//! The one decoder of the batch record, under a seeded mutate-and-decode
//! loop: every truncation point, every byte under three masks, and lying
//! counts, through `WriteBatch::decode` and `WriteBatch::from_record`.
//! Each mutant is either refused or a batch whose walk stays inside the
//! record; none panics, and none makes the decoder allocate more than the
//! input it was handed (nothing is sized from a count or a length field).
//!
//! This file holds exactly one test: the global allocator below records
//! the largest request made while the decoder runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use lsm_kvs::WriteBatch;

struct LargestAlloc;

static WATCHING: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if WATCHING.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

/// Runs `f` and returns its result with the largest allocation it made.
fn watched<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    WATCHING.store(true, Ordering::Relaxed);
    let out = f();
    WATCHING.store(false, Ordering::Relaxed);
    (out, LARGEST.load(Ordering::Relaxed))
}

/// Minimal deterministic RNG (xorshift64*).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn bytes(&mut self, max_len: u64) -> Vec<u8> {
        (0..self.next() % (max_len + 1)).map(|_| self.next() as u8).collect()
    }
}

/// An error message is a few dozen bytes whatever the input; below this
/// an allocation says nothing about the input's length fields.
const MESSAGE_SLACK: usize = 128;

fn check(mutant: &[u8], what: &str) -> bool {
    let bound = mutant.len().max(MESSAGE_SLACK);
    let (decoded, largest) = watched(|| WriteBatch::decode(mutant));
    assert!(largest <= bound, "{what}: decode allocated {largest} bytes for {} of input", mutant.len());
    let owned = mutant.to_vec();
    let (taken, largest) = watched(|| WriteBatch::from_record(owned));
    assert!(largest <= MESSAGE_SLACK, "{what}: from_record allocated {largest} bytes; it owns its input");
    assert_eq!(decoded.is_ok(), taken.is_ok(), "{what}: the two constructors share one validation");
    let Ok(batch) = decoded else { return false };
    assert_eq!(taken.unwrap(), batch, "{what}");

    // The walk stays in bounds: it yields `len()` entries whose bytes,
    // with the least framing an entry can have, fit the record.
    let mut held = 12;
    let mut payload = 0;
    let mut entries = 0;
    for (_, key, value) in batch.iter() {
        held += 3 + key.len() + value.len();
        payload += key.len() + value.len();
        entries += 1;
    }
    assert_eq!(entries, batch.len(), "{what}");
    assert!(held <= mutant.len(), "{what}: walked {held} bytes of a {}-byte record", mutant.len());
    assert_eq!(batch.approximate_bytes(), 12 + 13 * entries + payload, "{what}");
    assert_eq!(batch.record(), mutant, "{what}: an accepted record is kept byte for byte");
    true
}

#[test]
fn mutated_records_are_refused_or_walk_in_bounds() {
    let mut rng = Rng(0x5eed_ba7c);
    let (mut refused, mut accepted) = (0u32, 0u32);
    for round in 0..24 {
        // Keys and values on both sides of the one-byte varint limit.
        let mut batch = WriteBatch::new();
        for _ in 0..rng.next() % 6 {
            let key = rng.bytes(if round % 3 == 0 { 200 } else { 12 });
            match rng.next() % 3 {
                0 => batch.delete(&key),
                _ => batch.put(&key, &rng.bytes(if round % 4 == 0 { 300 } else { 20 })),
            };
        }
        let record = batch.record().to_vec();
        assert!(check(&record, "the unmutated record"), "round {round}");

        let mut tally = |ok: bool| if ok { accepted += 1 } else { refused += 1 };
        for cut in 0..record.len() {
            let ok = check(&record[..cut], &format!("round {round}, cut at {cut}"));
            assert!(!ok, "round {round}: a record cut at {cut} of {} was accepted", record.len());
            tally(ok);
        }
        for at in 0..record.len() {
            for mask in [0x01, 0x80, (rng.next() as u8) | 0x02] {
                let mut mutant = record.clone();
                mutant[at] ^= mask;
                tally(check(&mutant, &format!("round {round}, byte {at} ^ {mask:#04x}")));
            }
        }
        for count in [0, batch.len() as u32 + 1, 1 << 16, u32::MAX, rng.next() as u32] {
            if count as usize == batch.len() {
                continue;
            }
            let mut mutant = record.clone();
            mutant[8..12].copy_from_slice(&count.to_le_bytes());
            let ok = check(&mutant, &format!("round {round}, count {count}"));
            assert!(!ok, "round {round}: count {count} over {} entries was accepted", batch.len());
            tally(ok);
        }
    }
    // Flipping a sequence byte or a payload byte leaves a valid record;
    // flipping framing mostly does not. Both sides of the loop ran.
    assert!(refused > 1_000 && accepted > 1_000, "refused {refused}, accepted {accepted}");
}
