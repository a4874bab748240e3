//! The option surface, pinned byte for byte: every registered option's
//! metadata, default and two error messages, then the default OPTIONS text
//! and `Debug` of `Options::default()`, against `fixtures/REGISTRY.pr23`.
//!
//! The fixture was written by this test (`WRITE_REGISTRY_FIXTURE=1`) at
//! PR 23's tree, where each option was still declared three times (a
//! field, a default, a registry row), and committed before those three
//! lists became one table. It is not regenerated: a change to the option
//! surface that means to move it says so and rewrites it on purpose.

use std::fmt::Write as _;

use lsm_kvs::options::registry::all_options;
use lsm_kvs::options::{ini, Options};

/// One line per registered option, then the default ini and `Debug`.
fn dump() -> String {
    let defaults = Options::default();
    // What `set_by_name` says to `value` on a fresh default set.
    let answer = |name: &str, value: &str| match Options::default().set_by_name(name, value) {
        Ok(()) => format!("accepted {value}"),
        Err(e) => e.to_string(),
    };
    let mut out = String::new();
    for meta in all_options() {
        let over_range = meta.range.map_or_else(
            || "-".to_string(),
            |(_, hi)| answer(meta.name, &(2.0 * hi).to_string()),
        );
        writeln!(
            out,
            "{} | {:?} | {:?} | {:?} | {:?} | online={} | protected={} | {} | {} | {} | {}",
            meta.name,
            meta.aliases,
            meta.section,
            meta.kind,
            meta.range,
            meta.mutable_online,
            meta.protected_by_default,
            defaults.get_by_name(meta.name).unwrap(),
            meta.description,
            answer(meta.name, "bogus"),
            over_range,
        )
        .unwrap();
    }
    out.push_str(&ini::to_ini(&defaults));
    writeln!(out, "{defaults:?}").unwrap();
    out
}

#[test]
fn the_option_surface_matches_its_fixture() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/REGISTRY.pr23");
    let dump = dump();
    if std::env::var_os("WRITE_REGISTRY_FIXTURE").is_some() {
        std::fs::write(path, &dump).unwrap();
    }
    let fixture = std::fs::read_to_string(path).unwrap();
    for (at, (got, want)) in dump.lines().zip(fixture.lines()).enumerate() {
        assert_eq!(got, want, "line {} of fixtures/REGISTRY.pr23", at + 1);
    }
    assert_eq!(
        dump, fixture,
        "same lines, different line count or trailing bytes"
    );
}
