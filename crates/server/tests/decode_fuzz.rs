//! `Request::decode` over a frame of every opcode with a body, and
//! `Response::decode` over every response body against the request it
//! answers, under the seeded mutate-and-decode loop of
//! `crates/lsm/tests/batch_fuzz.rs`: every truncation point, every byte
//! under three masks, and lying counts and lengths. Each mutant is either
//! refused or decodes to a value that its own re-encoding decodes to
//! again; none panics, and the decoder's largest allocation is bounded by
//! the frame, never by what a count or length field claims: a `Batch`
//! body is copied once (at most the frame), a `Replicate` frame gets one
//! 24-byte `Vec` handle per record it could really hold (a record costs
//! the frame at least its 4-byte length, so six times the frame).

use hw_sim::HardwareEnv;
use lsm_kvs::options::Options;
use lsm_kvs::{Db, Error, WriteBatch};
use lsm_server::protocol::{op, SCAN_CHUNK_MAX_ENTRIES};
use lsm_server::{Request, Response};
use testkit::{for_each_mutant, watched, Mutation, Rng, Spent, MESSAGE_SLACK};

testkit::tally_allocations!();

/// Four operations, a delete and then two puts, with keys and values on
/// one side of the one-byte varint limit or the other.
fn random_batch(rng: &mut Rng, long: bool) -> WriteBatch {
    let mut batch = WriteBatch::new();
    for i in 0..4 {
        let key = rng.bytes(if long { 200 } else { 12 });
        match i % 3 {
            0 => batch.delete(&key),
            _ => batch.put(&key, &rng.bytes(if long { 300 } else { 20 })),
        };
    }
    batch
}

/// Decodes `mutant` as a request; true when it was accepted. The refusal
/// of the retired batch opcode names both wire layouts, the one message
/// longer than `MESSAGE_SLACK` (and as long whatever follows the opcode).
fn check_request(mutant: &[u8], what: &str) -> bool {
    let (decoded, Spent { largest, .. }) = watched(|| Request::decode(mutant));
    let slack = if mutant.first() == Some(&op::RETIRED_BATCH) { 2 * MESSAGE_SLACK } else { MESSAGE_SLACK };
    assert!(
        largest <= (6 * mutant.len()).max(slack),
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
    assert_eq!(Request::decode(&req.encode()).as_ref(), Ok(&req), "{what}");
    true
}

/// Decodes `mutant` as the answer to `req`; true when it was accepted. A
/// scan chunk's entry list starts empty and doubles, two 48-byte slots at
/// most for an entry that costs the frame at least 8 bytes: twelve times
/// the frame. A `Values` list is sized by the request's keys, after its
/// count has been checked against them.
fn check_response(req: &Request, mutant: &[u8], what: &str) -> bool {
    let (decoded, Spent { largest, .. }) = watched(|| Response::decode(req, mutant));
    assert!(
        largest <= (12 * mutant.len()).max(MESSAGE_SLACK),
        "{what}: the decoder allocated {largest} bytes for a {}-byte frame",
        mutant.len()
    );
    let Ok(resp) = decoded else { return false };
    assert_eq!(Response::decode(req, &resp.encode()).as_ref(), Ok(&resp), "{what}");
    true
}

/// Feeds `frame` and its mutants to `check` (true when accepted) and
/// counts them into `tally`, refused then accepted. Every cut is refused,
/// and so is every other value of the u32 at `lie_at`: a count, or the
/// length of the frame's last field.
fn fuzz(
    frame: &[u8],
    lie_at: Option<usize>,
    rng: &mut Rng,
    what: &str,
    tally: &mut [u32; 2],
    check: impl Fn(&[u8], &str) -> bool,
) {
    assert!(check(frame, &format!("{what}, unmutated")), "{what}");
    let mut count = |ok: bool| tally[usize::from(ok)] += 1;
    for_each_mutant(frame, || rng.masks(), |m, mutant| {
        let ok = check(mutant, &format!("{what}, {m}"));
        assert!(!(ok && matches!(m, Mutation::Cut(_))), "{what}: {m} of {} was accepted", frame.len());
        count(ok);
    });
    let Some(at) = lie_at else { return };
    let real = u32::from_le_bytes(frame[at..at + 4].try_into().unwrap());
    for lie in [0, real + 1, 1 << 16, u32::MAX, rng.next() as u32 | 8] {
        if lie == real {
            continue;
        }
        let mut mutant = frame.to_vec();
        mutant[at..at + 4].copy_from_slice(&lie.to_le_bytes());
        let ok = check(&mutant, &format!("{what}, {lie} at {at} for {real}"));
        assert!(!ok, "{what}: {lie} at {at} in place of {real} was accepted");
        count(ok);
    }
}

#[test]
fn mutated_batch_and_replicate_frames_are_refused_or_decode_in_bounds() {
    let mut rng = Rng(0x5eed_f4a3);
    let mut tally = [0u32; 2];
    for round in 0..8 {
        let long = round % 2 == 1;
        let mut records = Vec::new();
        for seq in [1u64, 5, 9] {
            // What a leader ships: records with their sequence stamped.
            let mut record = random_batch(&mut rng, long).record().to_vec();
            record[..8].copy_from_slice(&seq.to_le_bytes());
            records.push(record);
        }
        // Each with the offset of its count field.
        let frames = [
            (Request::Batch { sync: round % 3 == 0, batch: random_batch(&mut rng, long) }, 2 + 8),
            (Request::Replicate { first_seq: 1, sync: true, records }, 1 + 8 + 1),
        ];
        for (req, count_at) in &frames {
            fuzz(&req.encode(), Some(*count_at), &mut rng, &format!("round {round}"), &mut tally, check_request);
        }
    }
    let [refused, accepted] = tally;
    println!("batch and replicate frames: refused {refused}, accepted {accepted}");
    assert!(refused > 1_000 && accepted > 1_000, "refused {refused}, accepted {accepted}");

    // Every other request with a body, and every response body against
    // the request it answers, from a generator of their own so that the
    // frames above keep their mutants. Each comes with the offset of its
    // count, or of its last field's length, where it has one.
    let mut rng = Rng(0x5eed_0bc0);
    let mut tally = [0u32; 2];
    let db = Db::builder(Options::default()).env(&HardwareEnv::builder().build_sim()).open().unwrap();
    db.put(b"key", b"value").unwrap();
    let (text, stats) = (db.stats_text(), Box::new(db.stats()));
    for round in 0..4 {
        let long = round % 2 == 1;
        let mut bytes = || rng.bytes(if long { 200 } else { 12 });
        let (key, value) = (bytes(), bytes());
        let keys: Vec<Vec<u8>> = (0..3).map(|_| bytes()).collect();
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..3).map(|_| (bytes(), bytes())).collect();
        let scan = Request::Scan { start: key.clone(), count: rng.next() as u32 };
        let multi_get = Request::MultiGet { keys: keys.clone() };
        let changes = vec![("max_background_jobs".into(), "6".into()), ("write_buffer_size".into(), "64MB".into())];
        let requests = [
            (Request::Get { key: key.clone() }, Some(1)),
            (Request::Put { sync: long, key: key.clone(), value: value.clone() }, Some(2 + 4 + key.len())),
            (Request::Delete { sync: !long, key: key.clone() }, Some(2)),
            (scan.clone(), None),
            (multi_get.clone(), Some(1)),
            (Request::SetOptions { changes }, Some(1)),
            (Request::ReplicaHello { have_seq: rng.next() }, None),
            (Request::ReplicaAck { seq: rng.next() }, None),
            (Request::SnapshotChunk { entries: entries.clone() }, Some(1)),
            (Request::SnapshotDone { seq: rng.next() }, None),
            (Request::Checkpoint { dir: "backups/nightly".into() }, Some(1)),
        ];
        for (req, lie_at) in &requests {
            let frame = req.encode();
            let what = format!("round {round}, opcode {}", frame[0]);
            fuzz(&frame, *lie_at, &mut rng, &what, &mut tally, check_request);
        }
        let responses = [
            (scan, Response::ScanChunk { entries, has_more: long }, Some(2)),
            (multi_get, Response::Values(vec![Some(value), None, Some(key.clone())]), Some(1)),
            (Request::Stats, Response::Stats { text: text.clone(), stats: stats.clone() }, None),
            (Request::GetOptions, Response::OptionsIni("[DBOptions]\n  max_background_jobs=6\n".into()), Some(1)),
            (Request::Get { key }, Response::Err(Error::busy("write stall").retryable(long)), Some(3)),
        ];
        for (req, resp, lie_at) in &responses {
            let what = format!("round {round}, answering opcode {}", req.encode()[0]);
            let check = |mutant: &[u8], what: &str| check_response(req, mutant, what);
            fuzz(&resp.encode(), *lie_at, &mut rng, &what, &mut tally, check);
        }
    }
    let [refused, accepted] = tally;
    println!("other requests and responses: refused {refused}, accepted {accepted}");
    assert!(refused > 1_000 && accepted > 1_000, "refused {refused}, accepted {accepted}");

    // Answers the rounds above do not draw, fixed and fuzzed last so that
    // the frames above keep their mutants and their tallies: a value and
    // a miss answering a `Get`, and the empty chunk that ends a scan.
    let mut rng = Rng(0x5eed_f1c5);
    let mut tally = [0u32; 2];
    let get = Request::Get { key: b"key".to_vec() };
    let scan = Request::Scan { start: Vec::new(), count: 5 };
    let answers = [
        (&get, "a value", Response::Value(b"value".to_vec()), Some(1)),
        (&get, "a miss", Response::NotFound, None),
        (&scan, "the last scan chunk", Response::ScanChunk { entries: Vec::new(), has_more: false }, Some(2)),
    ];
    for (req, what, resp, lie_at) in &answers {
        let check = |mutant: &[u8], what: &str| check_response(req, mutant, what);
        fuzz(&resp.encode(), *lie_at, &mut rng, what, &mut tally, check);
    }
    let [refused, accepted] = tally;
    println!("fixed answers: refused {refused}, accepted {accepted}");
    // A chunk whose frame really holds one entry more than the bound is
    // refused on its count; one at the bound is accepted.
    let chunk = |n: usize| Response::ScanChunk { entries: vec![(Vec::new(), Vec::new()); n], has_more: true };
    assert!(check_response(&scan, &chunk(SCAN_CHUNK_MAX_ENTRIES).encode(), "a full chunk"));
    assert!(!check_response(&scan, &chunk(SCAN_CHUNK_MAX_ENTRIES + 1).encode(), "an overfull chunk"));

    // Refusals the loop cannot see, since a decoder that accepted these
    // would still round-trip what it read: a flag byte other than 0 or 1
    // where the layout has no spare bits, option text that is not UTF-8,
    // and fewer values than the `MultiGet` asked for.
    let mut bad_sync = Request::Replicate { first_seq: 7, sync: true, records: Vec::new() }.encode();
    bad_sync[1 + 8] = 2;
    assert!(!check_request(&bad_sync, "sync flag 2"));
    let mut bad_more = chunk(1).encode();
    bad_more[1] = 2;
    assert!(!check_response(&scan, &bad_more, "has_more flag 2"));
    let set = Request::SetOptions { changes: vec![("ab".into(), "cd".into())] }.encode();
    for (at, what) in [(1 + 4 + 4, "a non-UTF-8 name"), (1 + 4 + 4 + 2 + 4, "a non-UTF-8 value")] {
        let mut bad = set.clone();
        bad[at..at + 2].copy_from_slice(&[0xff, 0xfe]);
        assert!(!check_request(&bad, what));
    }
    let two_keys = Request::MultiGet { keys: vec![b"a".to_vec(), b"b".to_vec()] };
    let one_value = Response::Values(vec![Some(b"v".to_vec())]).encode();
    assert!(!check_response(&two_keys, &one_value, "one value for two keys"));
    let mut bad_presence = Response::Values(vec![Some(b"v".to_vec()), None]).encode();
    bad_presence[1 + 4] = 2;
    assert!(!check_response(&two_keys, &bad_presence, "value presence flag 2"));
}
