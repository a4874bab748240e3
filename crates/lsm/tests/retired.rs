//! Retired features stay retired: tables written with the partitioned
//! index or the prefix filter are refused through the whole read path, and
//! no document or CI gate still passes a knob the registry dropped.

use std::sync::Arc;

use hw_sim::HardwareEnv;
use lsm_kvs::options::registry::find_option;
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
