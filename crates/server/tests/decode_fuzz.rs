//! `Request::decode` over `Batch` and `Replicate` frames, under the seeded
//! mutate-and-decode loop of `crates/lsm/tests/batch_fuzz.rs`: every
//! truncation point, every byte under three masks, and lying counts.
//! Each mutant is either refused or decodes to a request that re-encodes
//! to the same bytes; none panics, and the decoder's largest allocation is
//! bounded by the frame, never by what a count or length field claims: a
//! `Batch` body is copied once (at most the frame), a `Replicate` frame
//! gets one 24-byte `Vec` handle per record it could really hold (a record
//! costs the frame at least its 4-byte length, so six times the frame).
//!
//! This file holds exactly one test: the global allocator below records
//! the largest request made while the decoder runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use lsm_kvs::WriteBatch;
use lsm_server::Request;

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

    fn batch(&mut self, long: bool) -> WriteBatch {
        let mut bytes = |max: u64| -> Vec<u8> {
            (0..self.next() % (max + 1)).map(|_| self.next() as u8).collect()
        };
        let mut batch = WriteBatch::new();
        for i in 0..4 {
            let key = bytes(if long { 200 } else { 12 });
            match i % 3 {
                0 => batch.delete(&key),
                _ => batch.put(&key, &bytes(if long { 300 } else { 20 })),
            };
        }
        batch
    }
}

/// An error message is a few dozen bytes whatever the input.
const MESSAGE_SLACK: usize = 128;

/// Decodes `mutant`; true when it was accepted.
fn check(mutant: &[u8], what: &str) -> bool {
    LARGEST.store(0, Ordering::Relaxed);
    WATCHING.store(true, Ordering::Relaxed);
    let decoded = Request::decode(mutant);
    WATCHING.store(false, Ordering::Relaxed);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest <= (6 * mutant.len()).max(MESSAGE_SLACK),
        "{what}: the decoder allocated {largest} bytes for a {}-byte frame",
        mutant.len()
    );
    let Ok(req) = decoded else { return false };
    match &req {
        // An accepted body is a batch whose walk stays in the frame.
        Request::Batch { batch, .. } => {
            let held: usize = batch.iter().map(|(_, k, v)| 3 + k.len() + v.len()).sum();
            assert!(2 + 12 + held <= mutant.len(), "{what}");
            assert_eq!(batch.iter().count(), batch.len(), "{what}");
            assert_eq!(batch.record(), &mutant[2..], "{what}");
        }
        Request::Replicate { records, .. } => {
            let held: usize = records.iter().map(|r| 4 + r.len()).sum();
            assert_eq!(1 + 8 + 1 + 4 + held, mutant.len(), "{what}");
        }
        // A flipped opcode byte can land on another request; it went
        // through that request's own bounds checks.
        _ => {}
    }
    true
}

#[test]
fn mutated_batch_and_replicate_frames_are_refused_or_decode_in_bounds() {
    let mut rng = Rng(0x5eed_f4a3);
    let (mut refused, mut accepted) = (0u32, 0u32);
    for round in 0..8 {
        let long = round % 2 == 1;
        let mut records = Vec::new();
        for seq in [1u64, 5, 9] {
            // What a leader ships: records with their sequence stamped.
            let mut record = rng.batch(long).record().to_vec();
            record[..8].copy_from_slice(&seq.to_le_bytes());
            records.push(record);
        }
        let frames = [
            // (frame, offset of its count field, the count it holds)
            (Request::Batch { sync: round % 3 == 0, batch: rng.batch(long) }.encode(), 2 + 8, 4),
            (Request::Replicate { first_seq: 1, sync: true, records }.encode(), 1 + 8 + 1, 3),
        ];
        for (frame, count_at, count) in &frames {
            assert!(check(frame, "the unmutated frame"), "round {round}");
            let mut tally = |ok: bool| if ok { accepted += 1 } else { refused += 1 };
            for cut in 0..frame.len() {
                let ok = check(&frame[..cut], &format!("round {round}, cut at {cut}"));
                assert!(!ok, "round {round}: a frame cut at {cut} of {} was accepted", frame.len());
                tally(ok);
            }
            for at in 0..frame.len() {
                for mask in [0x01, 0x80, (rng.next() as u8) | 0x02] {
                    let mut mutant = frame.clone();
                    mutant[at] ^= mask;
                    tally(check(&mutant, &format!("round {round}, byte {at} ^ {mask:#04x}")));
                }
            }
            for lie in [0u32, count + 1, 1 << 16, u32::MAX, rng.next() as u32 | 8] {
                let mut mutant = frame.clone();
                mutant[*count_at..count_at + 4].copy_from_slice(&lie.to_le_bytes());
                let ok = check(&mutant, &format!("round {round}, count {lie}"));
                assert!(!ok, "round {round}: count {lie} over {count} entries was accepted");
                tally(ok);
            }
        }
    }
    assert!(refused > 1_000 && accepted > 1_000, "refused {refused}, accepted {accepted}");
}
