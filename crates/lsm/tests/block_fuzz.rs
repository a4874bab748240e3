//! The block decoder — what reads every data block and every table index
//! — under a seeded mutate-and-walk loop in the shape of `batch_fuzz.rs`:
//! every truncation point, every byte under three masks, lying restart
//! counts and offsets, and a restart entry made to share a prefix, through
//! `Block::parse`, `BlockIter::advance` and `BlockIter::seek`. Each mutant
//! is either refused as `Corruption` or walked inside its own bytes; none
//! panics, and none makes the decoder allocate from a count or a length
//! field. (`sstable/table.rs` runs the table cursor over mutated indexes;
//! the allocator lives here because the crate forbids `unsafe`.)
//!
//! This file holds exactly one test: the global allocator below records
//! the largest request made while the decoder runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use lsm_kvs::sstable::block::{Block, BlockBuilder};
use lsm_kvs::{InternalKey, ValueType};

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
}

/// An error message is a few dozen bytes whatever the input; below this
/// an allocation says nothing about the input's length fields.
const MESSAGE_SLACK: usize = 128;

/// What one mutant came to.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Outcome {
    /// `Block::parse` refused it.
    Refused,
    /// It parsed; the walk or a seek met an entry it refused.
    Stopped,
    /// It parsed and every walk and seek ran to its end.
    Walked,
}

/// Decodes `mutant` every way a reader would. The only buffer the decoder
/// grows is the iterator's key, which is never longer than the bytes the
/// walk has covered; a `Vec` doubles as it grows, so twice the block is
/// the ceiling for any request.
fn check(mutant: &[u8], targets: &[Vec<u8>], what: &str) -> Outcome {
    let len = mutant.len();
    let bound = (2 * len).max(MESSAGE_SLACK);
    let owned = mutant.to_vec();
    let (parsed, largest) = watched(|| Block::parse(owned));
    assert!(largest <= MESSAGE_SLACK, "{what}: parse allocated {largest} bytes; it owns its input");
    let block = match parsed {
        Ok(block) => block,
        Err(e) => {
            assert!(e.is_corruption(), "{what}: {e}");
            return Outcome::Refused;
        }
    };
    assert_eq!(block.data_len(), len, "{what}");

    let mut outcome = Outcome::Walked;
    // A forward walk from the first entry, then from wherever each seek
    // lands. Every entry has at least three header bytes and its value to
    // itself, so a walk that stays inside the block is bounded by it.
    let ((), largest) = watched(|| {
        let mut it = block.iter();
        for target in std::iter::once(None).chain(targets.iter().map(Some)) {
            let mut positioned = match target {
                None => it.advance(),
                Some(target) => it.seek(target),
            };
            let mut held = 0;
            loop {
                match positioned {
                    Ok(true) => {}
                    Ok(false) => {
                        assert!(!it.valid(), "{what}");
                        break;
                    }
                    Err(e) => {
                        assert!(e.is_corruption(), "{what}: {e}");
                        outcome = Outcome::Stopped;
                        break;
                    }
                }
                assert!(it.valid(), "{what}");
                assert!((8..=len).contains(&it.key().len()), "{what}: a {}-byte key", it.key().len());
                held += 3 + it.value().len();
                assert!(held <= len, "{what}: walked {held} bytes of a {len}-byte block");
                positioned = it.advance();
            }
        }
    });
    assert!(largest <= bound, "{what}: the walk allocated {largest} bytes over {len} of input");
    outcome
}

/// Reads the fixed32 at `at`.
fn fixed32(block: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(block[at..at + 4].try_into().unwrap())
}

#[test]
fn mutated_blocks_are_refused_or_walk_in_bounds() {
    let mut rng = Rng(0x5eed_b10c);
    let mut tally = [0u32; 3];
    let mut shared_restarts = 0;
    let mut count = |outcome: Outcome| -> Outcome {
        tally[outcome as usize] += 1;
        outcome
    };
    for round in 0..18 {
        // Data blocks at three restart intervals, and (interval 1, a
        // 16-byte handle for a value) the shape of a table's index.
        let as_index = round % 3 == 0;
        let restart_interval = if as_index { 1 } else { [1, 4, 16][round / 3 % 3] };
        let entries = 1 + rng.next() as usize % 24;
        let mut builder = BlockBuilder::new(restart_interval);
        let mut keys = Vec::new();
        let mut user = 0u64;
        for i in 0..entries {
            // A shared prefix for the delta encoding to work on.
            user += 1 + rng.next() % 1000;
            let key = InternalKey::new(format!("user-key-{user:012}").as_bytes(), 1 + i as u64, ValueType::Value);
            let value: Vec<u8> = if as_index {
                [rng.next().to_le_bytes(), rng.next().to_le_bytes()].concat()
            } else {
                (0..rng.next() % 40).map(|_| rng.next() as u8).collect()
            };
            builder.add(key.encoded(), &value);
            keys.push(key.into_encoded());
        }
        let block = builder.finish();
        // Seek targets: the first, a middle and the last key, one before
        // all of them and one past them.
        let mut targets = vec![keys[0].clone(), keys[entries / 2].clone(), keys[entries - 1].clone()];
        targets.push(InternalKey::new(b"a", 1, ValueType::Value).into_encoded());
        targets.push(InternalKey::new(b"z", 1, ValueType::Value).into_encoded());
        let what = |case: String| format!("round {round} ({entries} entries, restarts every {restart_interval}): {case}");
        assert_eq!(check(&block, &targets, &what("unmutated".into())), Outcome::Walked);

        for cut in 0..block.len() {
            count(check(&block[..cut], &targets, &what(format!("cut at {cut}"))));
        }
        for at in 0..block.len() {
            for mask in [0x01, 0x80, (rng.next() as u8) | 0x02] {
                let mut mutant = block.clone();
                mutant[at] ^= mask;
                count(check(&mutant, &targets, &what(format!("byte {at} ^ {mask:#04x}"))));
            }
        }

        // The trailer: a count that claims more restarts than there are
        // bytes for, and offsets that point past the entries.
        let restarts = fixed32(&block, block.len() - 4) as usize;
        let restarts_offset = block.len() - 4 - 4 * restarts;
        for lie in [0, restarts as u32 + 1, block.len() as u32 / 4, 1 << 16, u32::MAX, rng.next() as u32] {
            let mut mutant = block.clone();
            let at = mutant.len() - 4;
            mutant[at..].copy_from_slice(&lie.to_le_bytes());
            let outcome = count(check(&mutant, &targets, &what(format!("restart count {lie}"))));
            if 4 * lie as u64 + 4 > block.len() as u64 {
                assert_eq!(outcome, Outcome::Refused, "{}", what(format!("restart count {lie}")));
            }
        }
        for slot in 0..restarts {
            let past = restarts_offset as u32 + 1;
            for lie in [restarts_offset as u32, past, block.len() as u32, u32::MAX, rng.next() as u32 % past] {
                let mut mutant = block.clone();
                let at = restarts_offset + 4 * slot;
                mutant[at..at + 4].copy_from_slice(&lie.to_le_bytes());
                let case = what(format!("restart {slot} -> {lie}"));
                let outcome = count(check(&mutant, &targets, &case));
                assert_eq!(outcome == Outcome::Refused, lie >= past, "{case}: {outcome:?}");
            }
        }
        // A restart entry's key must lie whole in the block. Give one a
        // shared prefix and a seek that compares against it is refused;
        // with two restarts every seek's binary search looks at the second.
        if restarts == 2 {
            let mut mutant = block.clone();
            let second = fixed32(&block, restarts_offset + 4) as usize;
            assert_eq!(mutant[second], 0, "a restart entry shares nothing");
            mutant[second] = 1;
            let case = what("second restart shares a byte".into());
            assert_eq!(count(check(&mutant, &targets, &case)), Outcome::Stopped, "{case}");
            shared_restarts += 1;
        }
    }
    assert!(shared_restarts >= 2, "only {shared_restarts} rounds built a two-restart block");
    let [refused, stopped, walked] = tally;
    assert!(refused > 500 && stopped > 500 && walked > 500, "refused {refused}, stopped {stopped}, walked {walked}");
}
