//! EXPERIMENTS.md quotes numbers; `results/golden/` is where they come
//! from, and `ci.sh` diffs the goldens against `repro all` / `repro
//! ablate`. Together: no number in an "ours" cell can go stale silently.

use std::collections::HashSet;

const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");
const REPRO_ALL: &str = include_str!("../results/golden/repro_all.txt");
const REPRO_ABLATE: &str = include_str!("../results/golden/repro_ablate.txt");

/// The number tokens of `text`, thousands separators stripped:
/// `"(W) 1.15 / (R) 1,234.50x"` yields `1.15` and `1234.50`.
fn numbers(text: &str) -> Vec<String> {
    text.replace(',', "")
        .split(|c: char| !c.is_ascii_digit() && c != '.')
        .map(|token| token.trim_matches('.').to_string())
        .filter(|token| !token.is_empty())
        .collect()
}

/// The cells EXPERIMENTS.md presents as measured here, per markdown
/// table: every column headed `ours …`, or — in a table with no `paper`
/// column — every column but the first (the row labels).
fn ours_cells(section: &str) -> Vec<&str> {
    fn cells(line: &str) -> Vec<&str> {
        line.trim().trim_matches('|').split('|').map(str::trim).collect()
    }
    let mut out = Vec::new();
    let mut lines = section.lines().peekable();
    while let Some(line) = lines.next() {
        if !line.starts_with('|') {
            continue;
        }
        let header = cells(line);
        let has_paper = header.iter().any(|h| h.starts_with("paper"));
        while let Some(row) = lines.next_if(|l| l.starts_with('|')) {
            for (column, cell) in cells(row).into_iter().enumerate().skip(1) {
                let head = header.get(column).copied().unwrap_or("");
                if head.starts_with("ours") || !has_paper {
                    out.push(cell);
                }
            }
        }
    }
    out
}

#[test]
fn every_ours_number_in_experiments_md_is_printed_by_repro() {
    let (paper, ablations) = EXPERIMENTS
        .split_once("\n## Ablations")
        .expect("EXPERIMENTS.md has an Ablations section, its last with tables");
    let mut checked = 0;
    for (section, golden, golden_name) in [
        (paper, REPRO_ALL, "repro_all.txt"),
        (ablations, REPRO_ABLATE, "repro_ablate.txt"),
    ] {
        let printed: HashSet<String> = numbers(golden).into_iter().collect();
        for cell in ours_cells(section) {
            for n in numbers(cell) {
                assert!(
                    printed.contains(&n),
                    "EXPERIMENTS.md cell `{cell}` quotes {n}, which results/golden/{golden_name} does not print"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 150, "only {checked} numbers found: did the tables lose their `ours` headers?");
}

/// One benchmark system (`perf/`) and one reproduction driver (`repro`):
/// the criterion benches are gone and nothing tells a reader to run them.
#[test]
fn the_second_benchmark_system_stays_retired() {
    for (file, text) in [
        ("Cargo.toml", include_str!("../Cargo.toml")),
        ("Cargo.lock", include_str!("../Cargo.lock")),
        ("README.md", include_str!("../README.md")),
        ("DESIGN.md", include_str!("../DESIGN.md")),
        ("EXPERIMENTS.md", EXPERIMENTS),
        ("ci.sh", include_str!("../ci.sh")),
    ] {
        for retired in ["criterion", "cargo bench"] {
            assert!(!text.to_lowercase().contains(retired), "{file} mentions `{retired}`");
        }
    }
}
