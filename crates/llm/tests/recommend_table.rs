//! The expert's advice, pinned byte for byte: `recommend`'s whole output
//! (name, value, priority and rationale, in order) for every case of a
//! grid of prompt facts, against `fixtures/RECOMMEND.pr40`.
//!
//! The fixture was written by this test (`WRITE_RECOMMEND_FIXTURE=1`) at
//! the tree where each rule was still a hand-written push behind its own
//! `if`, and committed before those pushes became rows of one table. It
//! is not regenerated: a change to the advice that means to move it says
//! so and rewrites it on purpose.
//!
//! The table itself is checked here too: each row of `RULES` names a
//! registered option and fires in some case of the grid, and the rows
//! that name an option the engine does not read are named.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use llm_client::expert::knowledge::{recommend, Situation, RULES};
use llm_client::{PromptFacts, WorkloadClass};
use lsm_kvs::options::registry::find_option;

const CLASSES: [WorkloadClass; 3] = [
    WorkloadClass::WriteHeavy,
    WorkloadClass::ReadHeavy,
    WorkloadClass::Mixed,
];

fn facts(
    workload: WorkloadClass,
    cores: Option<u64>,
    mem_gib: Option<f64>,
    rotational: Option<bool>,
    iteration: u64,
) -> PromptFacts {
    PromptFacts {
        cores,
        mem_gib,
        rotational,
        workload,
        iteration,
        max_changes: 10,
        ..PromptFacts::default()
    }
}

/// The grid (3 classes x HDD/NVMe x 4/16 GiB x 2/8 cores x iterations
/// 1-8), then, per class, one fact at a time moved off a base of an HDD,
/// 4 GiB, 2 cores and iteration 1: across each threshold a rule tests,
/// and to its unstated value.
fn cases() -> Vec<PromptFacts> {
    let mut out = Vec::new();
    for workload in CLASSES {
        for rotational in [true, false] {
            for mem_gib in [4.0, 16.0] {
                for cores in [2, 8] {
                    for iteration in 1..=8 {
                        out.push(facts(
                            workload,
                            Some(cores),
                            Some(mem_gib),
                            Some(rotational),
                            iteration,
                        ));
                    }
                }
            }
        }
    }
    for workload in CLASSES {
        let base = |cores, mem_gib, rotational, iteration| {
            facts(workload, cores, mem_gib, rotational, iteration)
        };
        for cores in [None, Some(1), Some(3), Some(4)] {
            out.push(base(cores, Some(4.0), Some(true), 1));
        }
        for mem_gib in [None, Some(2.5)] {
            out.push(base(Some(2), mem_gib, Some(true), 1));
        }
        out.push(base(Some(2), Some(4.0), None, 1));
        for iteration in [0, 9, 10, 11, 12] {
            out.push(base(Some(2), Some(4.0), Some(true), iteration));
        }
    }
    out
}

/// One header line per case, then one line per recommendation.
fn dump() -> String {
    let mut out = String::new();
    for f in cases() {
        writeln!(
            out,
            "{:?} cores={:?} mem_gib={:?} rotational={:?} iteration={}",
            f.workload, f.cores, f.mem_gib, f.rotational, f.iteration
        )
        .unwrap();
        for r in recommend(&f) {
            writeln!(
                out,
                "  {}={} | {} | {}",
                r.name, r.value, r.priority, r.rationale
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn the_advice_matches_its_fixture() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/RECOMMEND.pr40");
    let dump = dump();
    if std::env::var_os("WRITE_RECOMMEND_FIXTURE").is_some() {
        std::fs::write(path, &dump).unwrap();
    }
    let fixture = std::fs::read_to_string(path).unwrap();
    for (at, (got, want)) in dump.lines().zip(fixture.lines()).enumerate() {
        assert_eq!(got, want, "line {} of fixtures/RECOMMEND.pr40", at + 1);
    }
    assert_eq!(
        dump, fixture,
        "same lines, different line count or trailing bytes"
    );
}

#[test]
fn every_rule_names_a_registered_option() {
    for rule in RULES {
        assert!(
            find_option(rule.option).is_some(),
            "{} is not registered",
            rule.option
        );
    }
}

#[test]
fn every_rule_fires_in_some_case() {
    let situations: Vec<Situation> = cases().iter().map(Situation::of).collect();
    for rule in RULES {
        assert!(
            situations.iter().any(|s| rule.when.holds(s)),
            "{} fires in no case of the grid",
            rule.option
        );
    }
}

/// The options DESIGN.md lists as ones no engine source reads
/// (`retired.rs` holds that list to the source).
fn unread_options() -> BTreeSet<&'static str> {
    let design = include_str!("../../../DESIGN.md");
    let (_, section) = design
        .split_once("\n## Options the engine does not read\n")
        .expect("DESIGN.md lost its 'Options the engine does not read' section");
    let section = section.split("\n## ").next().unwrap();
    section
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|word| {
            word.bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        })
        .collect()
}

/// Three rows advise options the engine accepts but never reads; the
/// advice stays, as a blog would give it, and is named here.
#[test]
fn exactly_three_rules_name_options_the_engine_does_not_read() {
    let unread = unread_options();
    let advised: Vec<&str> = RULES
        .iter()
        .map(|rule| rule.option)
        .filter(|o| unread.contains(o))
        .collect();
    assert_eq!(
        advised,
        [
            "dump_malloc_stats",
            "pin_l0_filter_and_index_blocks_in_cache",
            "memtable_prefix_bloom_size_ratio"
        ]
    );
}

/// Prints the table's shape: its rows, those whose value moves with the
/// iteration alone (facts held, iterations 1 to 12), those that fire
/// only from a later iteration on, and those naming unread options.
#[test]
fn the_table_in_numbers() {
    let by_iteration = RULES
        .iter()
        .filter(|rule| {
            cases().into_iter().any(|mut f| {
                let values: BTreeSet<String> = (1..=12)
                    .map(|iteration| {
                        f.iteration = iteration;
                        rule.value.at(&Situation::of(&f))
                    })
                    .collect();
                values.len() > 1
            })
        })
        .count();
    let later = RULES
        .iter()
        .filter(|rule| rule.when.from_iteration > 1)
        .count();
    let unread = unread_options();
    let unread = RULES
        .iter()
        .filter(|rule| unread.contains(rule.option))
        .count();
    println!(
        "expert rules: {} rows, {by_iteration} take their value from the iteration, \
         {later} fire from an iteration on, {unread} name unread options",
        RULES.len()
    );
}
