//! Retired features stay retired: tables written with the partitioned
//! index or the prefix filter, and WAL records and tables holding values
//! stamped for TTL, are refused through the whole read path, no document
//! or CI gate still passes a knob the registry dropped, the documented
//! list of options the engine ignores is the true one, and the hardware
//! model is named by the simulator's module alone.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hw_sim::HardwareEnv;
use lsm_kvs::options::registry::{all_options, find_option};
use lsm_kvs::options::Options;
use lsm_kvs::sstable::table::TableConfig;
use lsm_kvs::wal::{replay_wal, WalWriter};
use lsm_kvs::{
    build_l0_table, Db, ErrorKind, FileNumber, FilterContext, MemTable, MemVfs, ValueType, Vfs,
};

/// A table whose footer word says "partitioned index" or "prefix-only
/// filter" must surface as an error from `get` and `scan`. Read as a flat
/// whole-key table it would answer `None` for keys it holds.
#[test]
fn db_reads_refuse_a_table_with_a_retired_footer_word() {
    for word in [0b001u64, 0b111, 0b001 | 8 << 8] {
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let env = HardwareEnv::builder().build_sim();
        let opts = Options { bloom_filter_bits_per_key: 10.0, ..Options::default() };
        {
            let db = Db::builder(opts.clone()).env(&env).vfs(Arc::clone(&vfs)).open().unwrap();
            db.put(b"key", b"value").unwrap();
            db.flush().unwrap();
            db.wait_background_idle().unwrap();
        }
        let tables: Vec<String> =
            vfs.list("").unwrap().into_iter().filter(|f| f.ends_with(".sst")).collect();
        assert_eq!(tables.len(), 1, "one L0 file: {tables:?}");
        let mut bytes = vfs.read_all(&tables[0]).unwrap();
        let at = bytes.len() - 8;
        bytes[at..].copy_from_slice(&word.to_le_bytes());
        let mut file = vfs.create(&tables[0]).unwrap();
        file.append(&bytes).unwrap();
        file.finish().unwrap();

        let db = Db::builder(opts).env(&env).vfs(vfs).open().unwrap();
        let err = db.get(b"key").expect_err("get must not answer from a misread table");
        assert_eq!(err.kind(), ErrorKind::NotSupported, "word {word:#x}: {err}");
        let err = db.scan(b"", 10).expect_err("scan must not skip the table");
        assert_eq!(err.kind(), ErrorKind::NotSupported, "word {word:#x}: {err}");
    }
}

/// Opens a database on `vfs`, puts `key` = `value` as its first write
/// (sequence 1), and closes it again.
fn one_put(vfs: &Arc<dyn Vfs>, env: &HardwareEnv) {
    let db = Db::builder(Options::default()).env(env).vfs(Arc::clone(vfs)).open().unwrap();
    db.put(b"key", b"value").unwrap();
}

/// The files on `vfs` whose names end in `suffix`.
fn files(vfs: &dyn Vfs, suffix: &str) -> Vec<String> {
    vfs.list("").unwrap().into_iter().filter(|f| f.ends_with(suffix)).collect()
}

/// A WAL record whose entry has type 2, a put an older build stamped with
/// its write time, is intact (its CRC holds), so dropping it as a torn
/// tail would lose an acknowledged write: the open fails instead, named,
/// and leaves the log as it found it.
#[test]
fn open_refuses_a_wal_record_holding_a_stamped_entry() {
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let env = HardwareEnv::builder().build_sim();
    one_put(&vfs, &env);
    let logs: Vec<String> =
        files(&*vfs, ".log").into_iter().filter(|f| !vfs.read_all(f).unwrap().is_empty()).collect();
    assert_eq!(logs.len(), 1, "one log holds the put: {logs:?}");
    let mut records = replay_wal(&vfs.read_all(&logs[0]).unwrap(), true).unwrap().records;
    assert_eq!(records.len(), 1);
    // Header (sequence, count), then the entry's type byte.
    assert_eq!(records[0][12], ValueType::Value as u8);
    records[0][12] = ValueType::TtlValue as u8;
    records[0].extend_from_slice(&0u64.to_le_bytes());
    records[0][12 + 1 + 1 + 3] += 8; // the value's length: "value" and the stamp
    let mut log = WalWriter::new(vfs.create(&logs[0]).unwrap());
    log.add_record(&records[0]).unwrap();
    log.sync().unwrap();

    for attempt in 0..2 {
        let open = Db::builder(Options::default()).env(&env).vfs(Arc::clone(&vfs)).open();
        let err = open.expect_err("an intact record the build cannot read fails the open");
        assert_eq!(err.kind(), ErrorKind::NotSupported, "attempt {attempt}: {err}");
        assert!(err.message().contains("stamped TTL values"), "{err}");
        let kept = replay_wal(&vfs.read_all(&logs[0]).unwrap(), true).unwrap();
        assert_eq!((kept.records, kept.torn_tail), (records.clone(), false), "attempt {attempt}");
    }
}

/// A table holding a stamped entry must surface as an error from `get`,
/// `scan` and a compaction: read as a plain value the stamp would reach
/// the user as part of the value, and a merge would carry it on.
#[test]
fn db_refuses_a_table_holding_a_stamped_entry() {
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let env = HardwareEnv::builder().build_sim();
    {
        one_put(&vfs, &env);
        let db = Db::builder(Options::default()).env(&env).vfs(Arc::clone(&vfs)).open().unwrap();
        db.flush().unwrap();
        db.wait_background_idle().unwrap();
    }
    let tables = files(&*vfs, ".sst");
    assert_eq!(tables.len(), 1, "one L0 file: {tables:?}");
    let number = FileNumber(tables[0].trim_end_matches(".sst").parse().unwrap());
    // The same entry as an older build with TTL on wrote it.
    let mem = MemTable::new();
    mem.add(1, ValueType::TtlValue, b"key", &[&b"value"[..], &0u64.to_le_bytes()].concat());
    let (config, pins) = (TableConfig::default(), FilterContext::default());
    build_l0_table(&*vfs, number, &[Arc::new(mem)], &config, &pins).unwrap();

    let db = Db::builder(Options::default()).env(&env).vfs(vfs).open().unwrap();
    let err = db.get(b"key").expect_err("get must not answer with the stamp");
    assert_eq!(err.kind(), ErrorKind::NotSupported, "{err}");
    let err = db.scan(b"", 10).expect_err("scan must not answer with the stamp");
    assert_eq!(err.kind(), ErrorKind::NotSupported, "{err}");
    let err = db.compact_range(b"", b"\xff").expect_err("compaction must not carry the stamp on");
    assert_eq!(err.kind(), ErrorKind::NotSupported, "{err}");
}

/// Every `--option NAME=` in the README and in ci.sh names a registered
/// option, so a retired knob cannot linger in the docs or a gate.
#[test]
fn documented_and_gated_options_are_registered() {
    for (file, text) in [
        ("README.md", include_str!("../../../README.md")),
        ("ci.sh", include_str!("../../../ci.sh")),
    ] {
        let names: Vec<&str> = text
            .split("--option ")
            .skip(1)
            .filter_map(|rest| rest.split_once('=').map(|(name, _)| name))
            .collect();
        assert!(!names.is_empty(), "{file} no longer shows any --option");
        for name in names {
            assert!(find_option(name).is_some(), "{file} passes --option {name}=, not registered");
        }
    }
}

/// Path and non-test source of every file under `dir` (each cut at its
/// `#[cfg(test)]`), skipping the directory named `skip`.
fn engine_sources(dir: &Path, skip: &str, out: &mut Vec<(PathBuf, String)>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name().unwrap() != skip {
                engine_sources(&path, skip, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            let non_test = text.split("#[cfg(test)]").next().unwrap().to_string();
            out.push((path, non_test));
        }
    }
}

/// Every charge against the hardware model is made by `db/sim.rs`, which
/// only a sim-mode database owns: no other engine source names the
/// device, CPU or memory model or the types their calls take, so real
/// mode has no line that could run them.
#[test]
fn only_the_simulator_names_the_hardware_model() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    engine_sources(&src, "", &mut files);
    let mut offending = Vec::new();
    for (path, text) in &files {
        if path.ends_with("db/sim.rs") {
            continue;
        }
        for (at, line) in text.lines().enumerate() {
            let names_the_model = [".device()", ".cpu()", ".memory()", "AccessPattern", "MemoryUser"]
                .iter()
                .any(|word| line.contains(word));
            if names_the_model {
                let file = path.strip_prefix(&src).unwrap().display();
                offending.push(format!("{file}:{}: {}", at + 1, line.trim()));
            }
        }
    }
    assert!(offending.is_empty(), "{} lines:\n{}", offending.len(), offending.join("\n"));
}

/// DESIGN.md's "Options the engine does not read" names exactly the
/// registered options whose `Options` field no engine source mentions as
/// `.name`, directly or through an `Options::effective_*` accessor it
/// calls: an option that loses its last reader joins the list in the same
/// change, and one that gains a reader leaves it.
#[test]
fn documented_unread_options_are_exactly_the_unread_ones() {
    let design = include_str!("../../../DESIGN.md");
    let (_, section) = design
        .split_once("\n## Options the engine does not read\n")
        .expect("DESIGN.md lost its 'Options the engine does not read' section");
    let section = section.split("\n## ").next().unwrap();
    // Back-ticked bare identifiers; `all_options()` and the like drop out.
    let documented: BTreeSet<&str> = section
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|word| word.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'))
        .collect();

    let mut files = Vec::new();
    engine_sources(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src"), "options", &mut files);
    let mut sources: Vec<String> = files.into_iter().map(|(_, text)| text).collect();
    // Four options are read only as `self.name` inside an accessor of
    // `options/mod.rs`; the body of each accessor the engine calls counts.
    let options_mod = include_str!("../src/options/mod.rs").split("#[cfg(test)]").next().unwrap();
    for accessor in options_mod.split("pub fn ").skip(1).filter(|f| f.starts_with("effective_")) {
        let (name, rest) = accessor.split_once('(').unwrap();
        let call = format!(".{name}(");
        if sources.iter().any(|text| text.contains(&call)) {
            sources.push(rest.split("\n    }\n").next().unwrap().to_string());
        }
    }
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let is_read = |name: &str| {
        let field = format!(".{name}");
        sources.iter().any(|text| {
            text.match_indices(&field)
                .any(|(at, _)| !text.as_bytes().get(at + field.len()).is_some_and(|&b| is_ident(b)))
        })
    };
    let unread: BTreeSet<&str> =
        all_options().iter().map(|meta| meta.name).filter(|name| !is_read(name)).collect();

    assert_eq!(documented, unread, "DESIGN.md (left) vs options no engine source reads (right)");
    let registered = all_options().len();
    let read = registered - unread.len();
    println!("options: {registered} registered, {read} read, {} unread", unread.len());
    let counts = format!("registers {registered} options; the engine reads {read}.");
    assert!(section.contains(&counts), "DESIGN.md does not say: {counts}");
    // The substitutions table restates both counts in the RocksDB row.
    let row = design
        .lines()
        .find(|line| line.starts_with("| RocksDB "))
        .expect("DESIGN.md lost the RocksDB substitution row");
    for counts in [
        format!("({registered} registered options"),
        format!("{read} of the {registered} options genuinely change engine behaviour (the {} that", unread.len()),
    ] {
        assert!(row.contains(&counts), "DESIGN.md's substitution row does not say: {counts}");
    }
}
