//! The wire's frame payloads, pinned against `fixtures/FRAMES.pr49`: one
//! line per request opcode and one per response kind against the request
//! it answers, with fixed values in the shapes of `decode_fuzz.rs`'s
//! rounds (12-byte keys, 20-byte values, a four-operation batch, three
//! shipped records stamped 1, 5 and 9). A round trip cannot see an
//! encoder and its decoder changed together; the two tests here can:
//!
//! - *backward*: the decoders read each committed line to its value, and
//!   refuse the retired batch opcode, which no encoder writes;
//! - *forward*: the encoders write each value to its committed line.
//!
//! The fixture was written by the forward test (`WRITE_FORMAT_FIXTURES=1`)
//! before the decoders moved to the engine's shared byte reader. It is not
//! regenerated: a change that means to move the protocol says so and
//! rewrites it on purpose.

use lsm_kvs::{DbStats, Error, ErrorKind, TickerSnapshot, WriteBatch, TICKER_NAMES};
use lsm_server::protocol::op;
use lsm_server::{Request, Response};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/FRAMES.pr49");

/// What the previous release sent for `put(k, v)` in a batch: opcode 4,
/// a sync flag, a count, then `is_delete | key | value` per operation.
const RETIRED_BATCH: &[u8] = &[op::RETIRED_BATCH, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, b'k', 1, 0, 0, 0, b'v'];

fn key(i: u32) -> Vec<u8> {
    format!("key-{i:08}").into_bytes()
}

fn value(i: u32) -> Vec<u8> {
    format!("value-{i:014}").into_bytes()
}

/// Four operations, a delete and then two puts, as `decode_fuzz.rs` draws.
fn batch(first: u32) -> WriteBatch {
    let mut batch = WriteBatch::new();
    for i in first..first + 4 {
        match i % 3 {
            0 => batch.delete(&key(i)),
            _ => batch.put(&key(i), &value(i)),
        };
    }
    batch
}

fn stats() -> DbStats {
    let mut tickers = TickerSnapshot { values: [0; TICKER_NAMES.len()] };
    for (i, v) in tickers.values.iter_mut().enumerate() {
        *v = 1_000 * i as u64 + 1;
    }
    DbStats {
        tickers,
        levels: vec![(3, 12_582_912), (0, 0), (17, 1 << 33)],
        memtable_bytes: 67_108_864,
        immutable_memtables: 1,
        block_cache_capacity: 8 << 20,
        pending_compaction_bytes: 123_456_789,
        running_background_jobs: 2,
        last_sequence: 1 << 55,
    }
}

/// One request per opcode that has an encoder, named, in fixture order.
fn requests() -> Vec<(&'static str, Request)> {
    let records = [1u64, 5, 9]
        .iter()
        .map(|&seq| {
            let mut record = batch(seq as u32).record().to_vec();
            record[..8].copy_from_slice(&seq.to_le_bytes());
            record
        })
        .collect();
    vec![
        ("get", Request::Get { key: key(1) }),
        ("put", Request::Put { sync: true, key: key(2), value: value(2) }),
        ("delete", Request::Delete { sync: false, key: key(3) }),
        ("scan", Request::Scan { start: key(4), count: 100 }),
        ("flush", Request::Flush),
        ("stats", Request::Stats),
        ("wait_idle", Request::WaitIdle),
        ("ping", Request::Ping),
        ("shutdown", Request::Shutdown),
        ("multi_get", Request::MultiGet { keys: vec![key(5), Vec::new(), key(6)] }),
        (
            "set_options",
            Request::SetOptions {
                changes: vec![("max_background_jobs".into(), "6".into()), ("write_buffer_size".into(), "64MB".into())],
            },
        ),
        ("get_options", Request::GetOptions),
        ("replica_hello", Request::ReplicaHello { have_seq: 0x0102_0304_0506_0708 }),
        ("replicate", Request::Replicate { first_seq: 1, sync: true, records }),
        ("replica_ack", Request::ReplicaAck { seq: u64::MAX }),
        ("snapshot_chunk", Request::SnapshotChunk { entries: vec![(key(7), value(7)), (key(8), Vec::new())] }),
        ("snapshot_done", Request::SnapshotDone { seq: 99 }),
        ("promote", Request::Promote),
        ("replica_reject", Request::ReplicaReject),
        ("checkpoint", Request::Checkpoint { dir: "backups/nightly".into() }),
        ("batch", Request::Batch { sync: true, batch: batch(10) }),
    ]
}

/// One response per kind with the request it answers, named, in fixture
/// order after the requests.
fn responses() -> Vec<(&'static str, Request, Response)> {
    let (get, scan) = (Request::Get { key: key(1) }, Request::Scan { start: key(4), count: 100 });
    vec![
        ("value", get.clone(), Response::Value(value(1))),
        ("not_found", get.clone(), Response::NotFound),
        ("ok", Request::Put { sync: true, key: key(2), value: value(2) }, Response::Ok),
        (
            "scan_chunk",
            scan,
            Response::ScanChunk { entries: vec![(key(4), value(4)), (key(5), Vec::new())], has_more: true },
        ),
        (
            "values",
            Request::MultiGet { keys: vec![key(5), Vec::new(), key(6)] },
            Response::Values(vec![Some(value(5)), None, Some(Vec::new())]),
        ),
        (
            "stats",
            Request::Stats,
            Response::Stats { text: "** DB Stats **\nUptime(secs): 1.0 total\n".into(), stats: Box::new(stats()) },
        ),
        ("options_ini", Request::GetOptions, Response::OptionsIni("[DBOptions]\n  max_background_jobs=6\n".into())),
        ("err", get, Response::Err(Error::busy("write stall").retryable(true))),
    ]
}

/// Every committed line decodes to the value it names, and the retired
/// batch opcode is refused by name.
#[test]
fn committed_frame_bytes_decode_to_their_values() {
    let fixture = testkit::read_byte_fixture(FIXTURE);
    let (requests, responses) = (requests(), responses());
    assert_eq!(fixture.len(), requests.len() + responses.len() + 1, "lines of fixtures/FRAMES.pr49");
    let (retired, fixture) = fixture.split_last().unwrap();
    let (request_lines, response_lines) = fixture.split_at(requests.len());
    for ((name, bytes), (want_name, want)) in request_lines.iter().zip(&requests) {
        assert_eq!(name, &format!("request.{want_name}"));
        assert_eq!(Request::decode(bytes).as_ref(), Ok(want), "{name}");
    }
    for ((name, bytes), (want_name, req, want)) in response_lines.iter().zip(&responses) {
        assert_eq!(name, &format!("response.{want_name}"));
        assert_eq!(Response::decode(req, bytes).as_ref(), Ok(want), "{name}");
    }
    assert_eq!(retired, &("refused.retired_batch".to_string(), RETIRED_BATCH.to_vec()));
    let err = Request::decode(RETIRED_BATCH).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Corruption);
    assert!(err.message().contains("retired"), "{err}");
    // One line per request opcode, the retired one included.
    let mut opcodes: Vec<u8> = request_lines.iter().chain([retired]).map(|(_, bytes)| bytes[0]).collect();
    opcodes.sort_unstable();
    assert_eq!(opcodes, (op::GET..=op::BATCH).collect::<Vec<_>>());
    println!("format fixtures: {} frames", fixture.len() + 1);
}

/// Every request and response encodes to its committed line, named
/// `request.<name>` or `response.<name>`.
#[test]
fn frames_encode_to_their_committed_bytes() {
    let requests = requests().into_iter().map(|(name, req)| (format!("request.{name}"), req.encode()));
    let responses = responses().into_iter().map(|(name, _, resp)| (format!("response.{name}"), resp.encode()));
    let retired = ("refused.retired_batch".to_string(), RETIRED_BATCH.to_vec());
    testkit::assert_byte_fixture(FIXTURE, &requests.chain(responses).chain([retired]).collect::<Vec<_>>());
}
