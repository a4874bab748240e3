//! Dynamic-option surface: the mutability matrix and crash safety.
//!
//! The registry's `mutable_online` flag is a *promise* — `Db::set_options`
//! applies flagged options without a reopen and rejects the rest. These
//! tests hold the registry to it:
//!
//! - every `mutable_online` option round-trips through `set_options` and
//!   shows up in both the rewritten `OPTIONS` file and the options dump;
//! - every immutable option is rejected with an error naming it, and a
//!   batch mixing mutable and immutable entries applies *nothing*;
//! - a crash at any point during the `OPTIONS` rewrite never leaves a torn
//!   file: reopen sees the old configuration or the new one, whole.

use std::sync::Arc;

use hw_sim::HardwareEnv;
use lsm_kvs::options::ini;
use lsm_kvs::options::registry::{all_options, OptionKind, OptionMeta};
use lsm_kvs::options::Options;
use lsm_kvs::{Db, ErrorKind, FaultInjectionVfs, KvEngine, MemVfs, ShardedDb, TearStyle, Vfs};

const OPTIONS_FILE: &str = "OPTIONS";

/// `KvEngine::set_options` takes owned pairs.
fn owned(changes: &[(&str, &str)]) -> Vec<(String, String)> {
    changes.iter().map(|(name, value)| (name.to_string(), value.to_string())).collect()
}

fn sim_env() -> HardwareEnv {
    HardwareEnv::builder().build_sim()
}

/// Proposes a valid value for `meta` that differs from its current value
/// in `current`, or `None` if every candidate fails cross-field
/// validation (the caller treats that as a test failure — a mutable
/// option we cannot even exercise is suspect).
fn changed_value(meta: &OptionMeta, current: &Options) -> Option<String> {
    let now = (meta.get)(current);
    let candidates: Vec<String> = match meta.kind {
        OptionKind::Bool => vec![(now != "true").to_string()],
        OptionKind::Enum(values) => values
            .iter()
            .filter(|v| **v != now)
            .map(|v| (*v).to_string())
            .collect(),
        OptionKind::Int | OptionKind::Size => {
            let cur: i128 = now.parse().unwrap_or(0);
            let (lo, hi) = meta.range.unwrap_or((0.0, f64::MAX));
            let (lo, hi) = (lo as i128, hi.min(1e18) as i128);
            [cur + 1, cur - 1, cur * 2, (lo + hi) / 2, lo, hi]
                .into_iter()
                .filter(|v| *v >= lo && *v <= hi && *v != cur)
                .map(|v| v.to_string())
                .collect()
        }
        OptionKind::Double => {
            let cur: f64 = now.parse().unwrap_or(0.0);
            let (lo, hi) = meta.range.unwrap_or((0.0, f64::MAX));
            [cur + 0.125, cur - 0.125, (lo + hi) / 2.0, lo, hi]
                .into_iter()
                .filter(|v| *v >= lo && *v <= hi && (*v - cur).abs() > 1e-9)
                .map(|v| v.to_string())
                .collect()
        }
    };
    // Keep the first candidate that survives cross-field validation
    // (e.g. level0 slowdown <= stop) when applied to the current state.
    for cand in candidates {
        let mut trial = current.clone();
        if (meta.set)(&mut trial, &cand).is_err() || trial.validate().is_err() {
            continue;
        }
        if (meta.get)(&trial) != now {
            return Some(cand);
        }
    }
    None
}

#[test]
fn mutability_matrix_roundtrips_every_registered_option() {
    let vfs = MemVfs::new();
    let db = Db::builder(Options::default())
        .env(&sim_env())
        .vfs(Arc::new(vfs.clone()))
        .open()
        .unwrap();
    let mut applied = 0usize;
    let mut rejected = 0usize;
    for meta in all_options() {
        if meta.mutable_online {
            let value = changed_value(meta, &db.options()).unwrap_or_else(|| {
                panic!("no valid changed value found for mutable option {}", meta.name)
            });
            db.set_options(&[(meta.name, value.as_str())])
                .unwrap_or_else(|e| panic!("set_options({}={value}) failed: {e}", meta.name));
            let now = db.options();
            let canonical = (meta.get)(&now);
            assert_eq!(
                now.get_by_name(meta.name).as_deref(),
                Some(canonical.as_str())
            );
            // Observable in the options dump...
            let dump = db.options_ini();
            assert!(
                dump.contains(&format!("{}={canonical}", meta.name)),
                "{} missing from options dump after set_options",
                meta.name
            );
            // ...and persisted in the rewritten OPTIONS file.
            let on_disk = String::from_utf8(vfs.read_all(OPTIONS_FILE).unwrap()).unwrap();
            assert!(
                on_disk.contains(&format!("{}={canonical}", meta.name)),
                "{} missing from the rewritten OPTIONS file",
                meta.name
            );
            applied += 1;
        } else {
            let before = db.options();
            let err = db
                .set_options(&[(meta.name, "1")])
                .expect_err("immutable option must be rejected");
            assert_eq!(err.kind(), ErrorKind::InvalidArgument, "{}: {err}", meta.name);
            assert!(
                err.to_string().contains(meta.name),
                "rejection must name the offender: {err}"
            );
            assert_eq!(before, db.options(), "{} leaked a change", meta.name);
            rejected += 1;
        }
    }
    assert!(applied > 20, "suspiciously few mutable options: {applied}");
    assert!(rejected > 5, "suspiciously few immutable options: {rejected}");
}

#[test]
fn mixed_batch_with_immutable_entry_applies_nothing() {
    let db = Db::builder(Options::default()).env(&sim_env()).open().unwrap();
    let before = db.options();
    let err = db
        .set_options(&[("write_buffer_size", "32MB"), ("num_levels", "5")])
        .expect_err("num_levels is immutable");
    assert!(err.to_string().contains("num_levels"));
    assert_eq!(before, db.options(), "all-or-nothing was violated");
    // Same for unknown names and out-of-range values.
    assert!(db
        .set_options(&[("write_buffer_size", "32MB"), ("warp_speed", "9")])
        .unwrap_err()
        .to_string()
        .contains("warp_speed"));
    assert!(db
        .set_options(&[("write_buffer_size", "1")]) // below the 64 KiB floor
        .is_err());
    assert_eq!(before, db.options());
}

/// A name means the same thing to `set_options` as to
/// `Options::set_by_name`: retired names are refused with the registry's
/// own sentence, and the one retired name with a remap lands on its
/// target. The `RemoteDb` leg of this table is
/// `set_options_rpc_refuses_a_retired_name_all_or_nothing` in
/// `crates/server/tests/server.rs` (this crate cannot see the server).
#[test]
fn set_options_answers_deprecated_names_like_set_by_name() {
    let db = Db::builder(Options::default()).env(&sim_env()).open().unwrap();
    let sharded = ShardedDb::builder(Options { num_shards: 4, ..Options::default() })
        .env(&sim_env())
        .open()
        .unwrap();
    type Set<'a> = &'a dyn Fn(&[(&str, &str)]) -> lsm_kvs::Result<()>;
    let engines: [(&str, Set, &dyn Fn() -> String); 2] = [
        ("Db", &|c| db.set_options(c), &|| db.options_ini()),
        ("ShardedDb", &|c| sharded.set_options(&owned(c)), &|| sharded.options_ini().unwrap()),
    ];
    for (engine, set, ini) in engines {
        let before = ini();
        for (name, value) in [
            ("index_type", "kTwoLevelIndexSearch"),
            ("metadata_block_size", "1024"),
            ("db_log_dir", "/var/log"),
            ("shard_bytes_soft_limit", "64MB"),
        ] {
            let want = Options::default().set_by_name(name, value).unwrap_err().to_string();
            assert!(want.contains("deprecated"), "{want}");
            let err = set(&[("write_buffer_size", "32MB"), (name, value)])
                .expect_err("a retired name without a remap is refused");
            assert_eq!(err.kind(), ErrorKind::InvalidArgument, "{engine} {name}");
            assert_eq!(err.to_string(), want, "{engine} {name}");
            assert_eq!(ini(), before, "{engine} {name}: all-or-nothing was violated");
        }
        set(&[("base_background_compactions", "3")]).unwrap();
        assert!(ini().contains("max_background_compactions=3"), "{engine}: {}", ini());
    }
}

#[test]
fn cross_field_validation_rejects_inconsistent_batches() {
    let db = Db::builder(Options::default()).env(&sim_env()).open().unwrap();
    // Each value is individually in range, but slowdown > stop is an
    // inconsistent pair; the whole batch must be refused.
    let err = db
        .set_options(&[
            ("level0_slowdown_writes_trigger", "50"),
            ("level0_stop_writes_trigger", "10"),
        ])
        .expect_err("slowdown above stop must fail validation");
    assert_eq!(err.kind(), ErrorKind::InvalidArgument);
    assert_eq!(
        db.options().level0_slowdown_writes_trigger,
        Options::default().level0_slowdown_writes_trigger
    );
}

#[test]
fn set_options_survives_reopen_via_options_file() {
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    {
        let db = Db::builder(Options::default())
            .env(&sim_env())
            .vfs(Arc::clone(&vfs))
            .open()
            .unwrap();
        db.put(b"k", b"v").unwrap();
        db.set_options(&[("write_buffer_size", "33554432")]).unwrap();
    }
    // Opt-in overlay: the tuned value wins over the caller's default.
    let db = Db::builder(Options::default())
        .env(&sim_env())
        .vfs(Arc::clone(&vfs))
        .load_options_file(true)
        .open()
        .unwrap();
    assert_eq!(db.options().write_buffer_size, 32 << 20);
    assert_eq!(db.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
    drop(db);
    // Without the flag the caller's options win (tuning harnesses reopen
    // with explicit candidate options and must not be overridden).
    let db = Db::builder(Options::default())
        .env(&sim_env())
        .vfs(Arc::clone(&vfs))
        .open()
        .unwrap();
    assert_eq!(
        db.options().write_buffer_size,
        Options::default().write_buffer_size
    );
}

/// An `OPTIONS` file written before the partitioned index and the prefix
/// bloom were retired (fixture: written by PR 14's `db_bench --db` with
/// several `--option`s) names four options this build no longer has.
/// Reopen reports exactly those four and applies every other mutable line.
#[test]
fn options_file_naming_retired_options_still_reopens() {
    let text = include_str!("fixtures/OPTIONS.pr14");
    let mut overlaid = Options::default();
    let outcome = ini::apply_mutable_ini(&mut overlaid, text);
    let mut rejected: Vec<&str> = outcome.rejected.iter().map(|(name, _, _)| name.as_str()).collect();
    rejected.sort_unstable();
    assert_eq!(
        rejected,
        ["index_type", "metadata_block_size", "prefix_extractor_len", "shard_bytes_soft_limit"]
    );
    let mutable = all_options().iter().filter(|m| m.mutable_online).count();
    assert_eq!(outcome.applied.len(), mutable, "every mutable option of this build applied");

    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let mut file = vfs.create(OPTIONS_FILE).unwrap();
    file.append(text.as_bytes()).unwrap();
    file.finish().unwrap();
    let db = Db::builder(Options::default())
        .env(&sim_env())
        .vfs(vfs)
        .load_options_file(true)
        .open()
        .unwrap();
    assert_eq!(db.options(), overlaid);
    assert_eq!(db.options().write_buffer_size, 32 << 20);
    assert_eq!(db.options().block_size, 8192);
    assert_eq!(db.options().level0_file_num_compaction_trigger, 6);
    assert_eq!(db.options().bloom_filter_bits_per_key, 10.0);
}

/// Crash-during-set_options sweep: arm a one-shot fault at every operation
/// offset of the OPTIONS rewrite (create/append/sync/rename). On failure
/// the in-memory configuration must be unchanged; after a power cut the
/// reopened database must see either the old or the new configuration —
/// never a torn file, and never a change that was reported as failed.
#[test]
fn crash_during_set_options_never_tears_the_options_file() {
    for fail_at in 0..8u64 {
        let fvfs = FaultInjectionVfs::wrap(Arc::new(MemVfs::new()));
        let vfs: Arc<dyn Vfs> = Arc::new(fvfs.clone());
        let old_wbs = Options::default().write_buffer_size;
        let db = Db::builder(Options::default())
            .env(&sim_env())
            .vfs(Arc::clone(&vfs))
            .open()
            .unwrap();
        let mut batch = lsm_kvs::WriteBatch::new();
        batch.put(b"k", b"v");
        db.write_opt(&lsm_kvs::WriteOptions { sync: true }, batch)
            .unwrap();
        fvfs.fail_after_ops(fail_at);
        let outcome = db.set_options(&[("write_buffer_size", "33554432")]);
        fvfs.clear_faults();
        match &outcome {
            Ok(()) => assert_eq!(db.options().write_buffer_size, 32 << 20),
            Err(_) => assert_eq!(
                db.options().write_buffer_size,
                old_wbs,
                "failed set_options (fail_at={fail_at}) must not change options"
            ),
        }
        drop(db);
        fvfs.power_off();
        fvfs.reboot(TearStyle::DropUnsynced);
        let db = Db::builder(Options::default())
            .env(&sim_env())
            .vfs(vfs)
            .load_options_file(true)
            .open()
            .unwrap();
        let got = db.options().write_buffer_size;
        assert!(
            got == old_wbs || got == 32 << 20,
            "fail_at={fail_at}: reopened with torn config {got}"
        );
        if outcome.is_ok() {
            // An acknowledged set_options synced the file first; the
            // tuned value must survive the power cut.
            assert_eq!(got, 32 << 20, "fail_at={fail_at}: acked change lost");
        }
        assert_eq!(db.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
    }
}

#[test]
fn sharded_set_options_fans_out_to_every_shard() {
    let vfs = MemVfs::new();
    let opts = Options {
        num_shards: 4,
        ..Options::default()
    };
    let db = ShardedDb::builder(opts)
        .env(&sim_env())
        .vfs(Arc::new(vfs.clone()))
        .open()
        .unwrap();
    db.set_options(&owned(&[
        ("write_buffer_size", "33554432"),
        ("level0_slowdown_writes_trigger", "24"),
    ]))
    .unwrap();
    for i in 0..4 {
        let shard_opts = db.shard(i).options();
        assert_eq!(shard_opts.write_buffer_size, 32 << 20, "shard {i}");
        assert_eq!(shard_opts.level0_slowdown_writes_trigger, 24, "shard {i}");
        let on_disk =
            String::from_utf8(vfs.read_all(&format!("s{i}_OPTIONS")).unwrap()).unwrap();
        assert!(on_disk.contains("write_buffer_size=33554432"), "shard {i}");
    }
    assert!(db.options_ini().unwrap().contains("write_buffer_size=33554432"));
    assert!(db.options_ini().unwrap().contains("num_shards=4"));
    // Rejection happens before any shard is touched.
    let err = db
        .set_options(&owned(&[("write_buffer_size", "16MB"), ("num_shards", "8")]))
        .expect_err("num_shards is immutable");
    assert!(err.to_string().contains("num_shards"));
    for i in 0..4 {
        assert_eq!(db.shard(i).options().write_buffer_size, 32 << 20, "shard {i}");
    }
}

#[test]
fn sharded_tuned_options_survive_reopen() {
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let opts = Options {
        num_shards: 2,
        ..Options::default()
    };
    {
        let db = ShardedDb::builder(opts.clone())
            .env(&sim_env())
            .vfs(Arc::clone(&vfs))
            .open()
            .unwrap();
        db.put(b"a", b"1").unwrap();
        db.put(b"\xff\xffz", b"2").unwrap();
        db.set_options(&owned(&[("max_background_jobs", "4")])).unwrap();
    }
    let db = ShardedDb::builder(opts)
        .env(&sim_env())
        .vfs(vfs)
        .load_options_file(true)
        .open()
        .unwrap();
    assert_eq!(db.shard(0).options().max_background_jobs, 4);
    assert_eq!(db.shard(1).options().max_background_jobs, 4);
    assert_eq!(db.get(b"a").unwrap().as_deref(), Some(&b"1"[..]));
    assert_eq!(db.get(b"\xff\xffz").unwrap().as_deref(), Some(&b"2"[..]));
}

#[test]
fn options_ini_dump_tracks_live_changes() {
    let db = Db::builder(Options::default()).env(&sim_env()).open().unwrap();
    let before = db.options_ini();
    assert!(before.contains("compression=snappy"));
    db.set_options(&[("compression", "zstd")]).unwrap();
    let after = db.options_ini();
    assert!(after.contains("compression=zstd"));
    // The dump is real ini: it parses back to the live configuration.
    let (parsed, _) = ini::from_ini(&after).unwrap();
    assert_eq!(parsed, db.options());

    // An option the engine accepts but reads nowhere is still set, echoed
    // and refused like any other, by every route: `set_by_name`, a live
    // `set_options`, and an options file.
    for (value, echoed) in [
        ("btree", Some("  memtable_factory=btree\n")),
        ("skiplist", Some("  memtable_factory=skiplist\n")),
        ("SkipListFactory", Some("  memtable_factory=skiplist\n")),
        ("vector", None),
    ] {
        let live_before = db.options_ini();
        let mut named = Options::default();
        let by_name = named.set_by_name("memtable_factory", value);
        let live = db.set_options(&[("memtable_factory", value)]);
        let mut filed = Options::default();
        let text = format!("[CFOptions \"default\"]\n  memtable_factory={value}\n");
        let outcome = ini::apply_ini(&mut filed, &text);
        match echoed {
            Some(line) => {
                by_name.unwrap();
                live.unwrap();
                assert_eq!(outcome.rejected, [], "{value}");
                for dump in [ini::to_ini(&named), db.options_ini(), ini::to_ini(&filed)] {
                    assert!(dump.contains(line), "{value}: {dump}");
                }
            }
            None => {
                by_name.unwrap_err();
                assert_eq!(live.unwrap_err().kind(), ErrorKind::InvalidArgument);
                assert_eq!(outcome.applied, [], "{value}");
                assert_eq!(named, Options::default());
                assert_eq!(db.options_ini(), live_before);
                assert_eq!(filed, Options::default());
            }
        }
    }
}
