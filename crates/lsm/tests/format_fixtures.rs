//! The manifest's `VersionEdit` bytes, pinned against
//! `fixtures/EDITS.pr49`: every tag, a file added at level 0 and at
//! level 6, internal keys either side of the one-byte varint limit (user
//! keys of 119 and 120 bytes, so 127 and 128 bytes with the tag), and a
//! delete. A round trip cannot see an encoder and its decoder changed
//! together; the two tests here can:
//!
//! - *backward*: the decoder reads each committed line to its edit;
//! - *forward*: the encoder writes each edit to its committed line.
//!
//! The fixture was written by the forward test (`WRITE_FORMAT_FIXTURES=1`)
//! before the decoder moved to the shared byte reader. It is not
//! regenerated: a change that means to move the format says so and
//! rewrites it on purpose. Batch records are pinned by the WAL's own test
//! (`wal_bytes_of_a_fixed_script_are_pinned`).

use std::sync::Arc;

use lsm_kvs::{FileMetadata, FileNumber, InternalKey, ValueType, VersionEdit, MAX_SEQUENCE};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/EDITS.pr49");

fn file(number: u64, size: u64, entries: u64, smallest: InternalKey, largest: InternalKey) -> Arc<FileMetadata> {
    Arc::new(FileMetadata::new(FileNumber(number), size, smallest, largest, entries))
}

/// A user key of `len` bytes: `fill` repeated, ended by `last`.
fn user_key(fill: u8, last: u8, len: usize) -> Vec<u8> {
    let mut key = vec![fill; len - 1];
    key.push(last);
    key
}

/// The pinned edits, named, in fixture order.
fn edits() -> Vec<(&'static str, VersionEdit)> {
    let short = |k: &[u8], seq, ty| InternalKey::new(k, seq, ty);
    let (k119, k120) = (user_key(b'k', b'a', 119), user_key(b'k', b'b', 120));
    vec![
        ("empty", VersionEdit::default()),
        ("log_number", VersionEdit { log_number: Some(0x0102_0304_0506_0708), ..VersionEdit::default() }),
        ("next_file_number", VersionEdit { next_file_number: Some(42), ..VersionEdit::default() }),
        ("last_sequence", VersionEdit { last_sequence: Some(MAX_SEQUENCE), ..VersionEdit::default() }),
        (
            "add_level_0",
            VersionEdit {
                added_files: vec![(
                    0,
                    file(5, 4_096, 100, short(b"apple", 1, ValueType::Value), short(b"zebra", 99, ValueType::Deletion)),
                )],
                ..VersionEdit::default()
            },
        ),
        (
            "add_level_6_keys_of_119_and_120_bytes",
            VersionEdit {
                added_files: vec![(
                    6,
                    file(
                        u64::MAX,
                        1 << 40,
                        u64::MAX - 1,
                        InternalKey::new(&k119, 7, ValueType::Value),
                        InternalKey::new(&k120, 1 << 50, ValueType::Deletion),
                    ),
                )],
                ..VersionEdit::default()
            },
        ),
        ("delete", VersionEdit { deleted_files: vec![(3, FileNumber(77))], ..VersionEdit::default() }),
        (
            "flush",
            VersionEdit {
                log_number: Some(12),
                next_file_number: Some(14),
                last_sequence: Some(20_000),
                added_files: vec![(
                    0,
                    file(
                        13,
                        2_162_688,
                        20_000,
                        short(b"0000000000000000", 3, ValueType::Value),
                        short(b"0000000000019999", 20_000, ValueType::Value),
                    ),
                )],
                ..VersionEdit::default()
            },
        ),
        (
            "compaction",
            VersionEdit {
                next_file_number: Some(31),
                added_files: vec![
                    (2, file(29, 700, 7, short(b"a", 5, ValueType::Value), short(b"m", 6, ValueType::Value))),
                    (2, file(30, 0, 0, short(b"", 1, ValueType::Deletion), short(b"", 1, ValueType::Deletion))),
                ],
                deleted_files: vec![(1, FileNumber(10)), (2, FileNumber(11)), (0, FileNumber(0))],
                ..VersionEdit::default()
            },
        ),
    ]
}

/// Every committed line decodes to the edit it names.
#[test]
fn committed_edit_bytes_decode_to_their_edits() {
    let fixture = testkit::read_byte_fixture(FIXTURE);
    let edits = edits();
    assert_eq!(fixture.len(), edits.len(), "lines of fixtures/EDITS.pr49");
    for ((name, bytes), (want_name, want)) in fixture.iter().zip(&edits) {
        assert_eq!(name, want_name);
        let got = VersionEdit::decode(bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{name}");
    }
    println!("format fixtures: {} edits", fixture.len());
}

/// Every edit encodes to its committed line.
#[test]
fn edits_encode_to_their_committed_bytes() {
    let encoded: Vec<(String, Vec<u8>)> = edits().iter().map(|(name, edit)| (name.to_string(), edit.encode())).collect();
    testkit::assert_byte_fixture(FIXTURE, &encoded);
}
