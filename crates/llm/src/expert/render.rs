//! Response rendering: prose + ini code blocks in varying layouts.
//!
//! The paper's Option Evaluator must cope with "text, a singular code
//! block, and an interleaving combination of both" — so the expert
//! deliberately varies its output format across iterations.

use lsm_kvs::options::registry::{find_option, Section};

use crate::expert::attention::{PromptFacts, WorkloadClass};
use crate::expert::knowledge::{Recommendation, Situation};
use crate::expert::policy::{RenderStyle, ResponsePlan};

fn section_of(name: &str) -> Section {
    find_option(name).map(|m| m.section).unwrap_or(Section::Db)
}

fn ini_block(changes: &[&Recommendation]) -> String {
    let mut out = String::new();
    for section in [Section::Db, Section::Cf, Section::Table] {
        let in_section: Vec<&&Recommendation> =
            changes.iter().filter(|c| section_of(&c.name) == section).collect();
        if in_section.is_empty() {
            continue;
        }
        out.push_str(section.ini_header());
        out.push('\n');
        for c in in_section {
            out.push_str(&format!("  {}={}\n", c.name, c.value));
        }
    }
    out
}

fn workload_phrase(facts: &PromptFacts) -> &'static str {
    match facts.workload {
        WorkloadClass::WriteHeavy => "write-intensive",
        WorkloadClass::ReadHeavy => "read-intensive",
        WorkloadClass::Mixed => "mixed read/write",
    }
}

fn intro(facts: &PromptFacts) -> String {
    let device = match facts.rotational {
        Some(true) => "a rotational SATA HDD",
        Some(false) => "flash storage",
        None => "your storage device",
    };
    let assumed = Situation::of(facts);
    format!(
        "Looking at your system — {} CPU cores, {:.0} GiB of RAM, and {} — with a {} workload, \
         here is what I would adjust this iteration:\n",
        assumed.cores,
        assumed.mem_gib,
        device,
        workload_phrase(facts),
    )
}

fn rationale_bullets(changes: &[Recommendation]) -> String {
    let mut out = String::new();
    for c in changes {
        out.push_str(&format!("- `{}` -> {}: {}\n", c.name, c.value, c.rationale));
    }
    out
}

/// Renders the planned response as the assistant's message text.
pub fn render(facts: &PromptFacts, plan: &ResponsePlan) -> String {
    let mut out = intro(facts);
    for note in &plan.notes {
        out.push_str(note);
        out.push('\n');
    }
    out.push('\n');
    out.push_str(&rationale_bullets(&plan.changes));
    out.push('\n');

    let refs: Vec<&Recommendation> = plan.changes.iter().collect();
    match plan.style {
        RenderStyle::SingleFence => {
            out.push_str("Apply the following configuration:\n\n```ini\n");
            out.push_str(&ini_block(&refs));
            out.push_str("```\n");
        }
        RenderStyle::BareFence => {
            out.push_str("Updated options file snippet:\n\n```\n");
            out.push_str(&ini_block(&refs));
            out.push_str("```\n");
        }
        RenderStyle::SplitSections => {
            for section in [Section::Db, Section::Cf, Section::Table] {
                let subset: Vec<&Recommendation> = plan
                    .changes
                    .iter()
                    .filter(|c| section_of(&c.name) == section)
                    .collect();
                if subset.is_empty() {
                    continue;
                }
                let label = match section {
                    Section::Db => "database-wide options",
                    Section::Cf => "column-family options",
                    Section::Table => "table/block options",
                };
                out.push_str(&format!("For the {label}:\n\n```ini\n"));
                out.push_str(&ini_block(&subset));
                out.push_str("```\n\n");
            }
        }
        RenderStyle::ProseMix => {
            let (tail, head) = match refs.split_last() {
                Some((t, h)) => (Some(*t), h),
                None => (None, &refs[..]),
            };
            out.push_str("Main changes:\n\n```ini\n");
            out.push_str(&ini_block(head));
            out.push_str("```\n\n");
            if let Some(t) = tail {
                out.push_str(&format!(
                    "Additionally, set {} to {} — {}.\n",
                    t.name, t.value, t.rationale
                ));
            }
        }
    }
    out.push_str("\nRe-run the benchmark and share the results; we can refine further from there.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert::policy::plan;
    use crate::expert::quirks::QuirkConfig;

    fn facts(iteration: u64) -> PromptFacts {
        PromptFacts {
            cores: Some(2),
            mem_gib: Some(4.0),
            rotational: Some(true),
            workload: WorkloadClass::WriteHeavy,
            iteration,
            max_changes: 10,
            ..PromptFacts::default()
        }
    }

    #[test]
    fn single_fence_has_ini_sections() {
        let f = facts(4); // iteration % 4 == 0 -> SingleFence
        let p = plan(&f, &QuirkConfig::none(), 1);
        let text = render(&f, &p);
        assert!(text.contains("```ini"));
        assert!(text.contains("[DBOptions]"));
        assert!(text.matches("```").count() == 2, "one fence pair");
    }

    #[test]
    fn split_sections_emit_multiple_fences() {
        let f = facts(1);
        let p = plan(&f, &QuirkConfig::none(), 1);
        let text = render(&f, &p);
        assert!(text.matches("```ini").count() >= 2, "{text}");
    }

    #[test]
    fn prose_mix_moves_one_option_out_of_the_fence() {
        let f = facts(3);
        let p = plan(&f, &QuirkConfig::none(), 1);
        let text = render(&f, &p);
        assert!(text.contains("Additionally, set "));
        let last = p.changes.last().unwrap();
        // The prose-only option must not also be inside a fence.
        let fence_content: String = text
            .split("```")
            .enumerate()
            .filter(|(i, _)| i % 2 == 1)
            .map(|(_, s)| s)
            .collect();
        assert!(!fence_content.contains(&format!("{}=", last.name)));
    }

    #[test]
    fn intro_mentions_observed_hardware() {
        let f = facts(1);
        let p = plan(&f, &QuirkConfig::none(), 1);
        let text = render(&f, &p);
        assert!(text.contains("2 CPU cores"));
        assert!(text.contains("4 GiB"));
        assert!(text.contains("SATA HDD"));
        assert!(text.contains("write-intensive"));
    }

    #[test]
    fn every_change_has_a_rationale_bullet() {
        let f = facts(1);
        let p = plan(&f, &QuirkConfig::none(), 1);
        let text = render(&f, &p);
        for c in &p.changes {
            assert!(text.contains(&format!("`{}`", c.name)), "missing bullet for {}", c.name);
        }
    }
}
