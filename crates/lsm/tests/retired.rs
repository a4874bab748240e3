//! Retired features stay retired: tables written with the partitioned
//! index or the prefix filter are refused through the whole read path, no
//! document or CI gate still passes a knob the registry dropped, the
//! documented list of options the engine ignores is the true one, and the
//! hardware model is named by the simulator's module alone.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hw_sim::HardwareEnv;
use lsm_kvs::options::registry::{all_options, find_option};
use lsm_kvs::options::Options;
use lsm_kvs::{Db, ErrorKind, MemVfs, Vfs};

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
    let counts =
        format!("registers {registered} options; the engine reads {}.", registered - unread.len());
    assert!(section.contains(&counts), "DESIGN.md does not say: {counts}");
}
