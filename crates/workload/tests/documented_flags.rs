//! A flag named in the docs is a flag the binary takes: every `--flag`
//! that follows `db_bench` in README.md and ci.sh appears in
//! `db_bench --help`.

use std::collections::BTreeSet;
use std::process::Command;

/// Every `--name` in `text`.
fn flags(text: &str) -> BTreeSet<&str> {
    text.match_indices("--")
        .map(|(at, _)| {
            let name = &text[at + 2..];
            let end = name
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
                .unwrap_or(name.len());
            &text[at..at + 2 + end]
        })
        .filter(|flag| flag.len() > 2)
        .collect()
}

#[test]
fn documented_db_bench_flags_are_in_its_help() {
    let help = Command::new(env!("CARGO_BIN_EXE_db_bench")).arg("--help").output().unwrap();
    assert!(help.status.success());
    let help = String::from_utf8(help.stdout).unwrap();
    let taken = flags(&help);

    for (file, text) in [
        ("README.md", include_str!("../../../README.md")),
        ("ci.sh", include_str!("../../../ci.sh")),
    ] {
        // A command runs from `db_bench` to the end of its line
        // (continuations joined) or to the first pipe, redirect, `;`,
        // `&` or closing back-tick.
        let joined = text.replace("\\\n", " ");
        let named: BTreeSet<&str> = joined
            .lines()
            .flat_map(|line| line.split("db_bench").skip(1))
            .flat_map(|tail| flags(tail.split(['|', '>', ';', '&', '`']).next().unwrap()))
            .collect();
        assert!(named.len() > 5, "{file} no longer shows db_bench commands: {named:?}");
        let unknown: Vec<&&str> = named.difference(&taken).collect();
        assert!(unknown.is_empty(), "{file} passes db_bench {unknown:?}, not in --help:\n{help}");
    }
}
