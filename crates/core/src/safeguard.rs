//! Safeguard Enforcer: vetting LLM-proposed changes before they reach
//! the store.
//!
//! Paper §4.2: "a configurable blacklist that ensures no necessary
//! options are modified, and a format checker that ensures only
//! specifically formatted LLM output is accepted." We add the two
//! validation layers that naturally fall out of the option registry —
//! unknown-option (hallucination) detection and type/range checking —
//! plus an optional memory-budget rule.

use std::collections::HashSet;

use lsm_kvs::options::registry::{all_options, find_deprecated, find_option};
use lsm_kvs::options::Options;

use crate::evaluate::ProposedChange;

/// Why a proposed change was rejected (or adjusted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// The option does not exist (hallucination).
    UnknownOption,
    /// The option is deprecated/retired upstream.
    Deprecated,
    /// The option is on the blacklist (journaling/crash-safety etc.).
    Protected,
    /// The value failed to parse or is out of range.
    InvalidValue,
    /// Applying the change would blow the memory budget; it was adjusted.
    BudgetAdjusted,
}

/// One safeguard decision about a proposed change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Option name as proposed.
    pub name: String,
    /// Value as proposed.
    pub value: String,
    /// Classification.
    pub kind: ViolationKind,
    /// Human-readable detail (fed back into the next prompt).
    pub detail: String,
}

impl Violation {
    /// Renders for the "rejected suggestions" prompt section.
    pub fn to_feedback_line(&self) -> String {
        format!("- {}={} rejected: {}", self.name, self.value, self.detail)
    }
}

/// An accepted change, with old and new canonical values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedChange {
    /// Canonical option name (post alias/deprecation remapping).
    pub name: String,
    /// Previous canonical value.
    pub from: String,
    /// New canonical value.
    pub to: String,
}

/// Safeguard configuration.
#[derive(Debug, Clone)]
pub struct SafeguardPolicy {
    blacklist: HashSet<String>,
    /// Remap deprecated options with a known replacement instead of
    /// rejecting them.
    pub remap_deprecated: bool,
    /// Total RAM in bytes; when set, write buffers + block cache are kept
    /// under ~80% of it by shrinking the cache.
    pub memory_budget: Option<u64>,
}

impl Default for SafeguardPolicy {
    fn default() -> Self {
        let blacklist = all_options()
            .iter()
            .filter(|m| m.protected_by_default)
            .map(|m| m.name.to_string())
            .collect();
        SafeguardPolicy {
            blacklist,
            remap_deprecated: true,
            memory_budget: None,
        }
    }
}

impl SafeguardPolicy {
    /// A policy with the default blacklist and a memory budget.
    pub fn with_memory_budget(total_ram_bytes: u64) -> Self {
        SafeguardPolicy {
            memory_budget: Some(total_ram_bytes),
            ..SafeguardPolicy::default()
        }
    }

    /// Adds an option to the blacklist.
    pub fn protect(&mut self, name: impl Into<String>) -> &mut Self {
        self.blacklist.insert(name.into());
        self
    }

    /// Removes an option from the blacklist (e.g. a user who accepts
    /// running without a WAL).
    pub fn unprotect(&mut self, name: &str) -> &mut Self {
        self.blacklist.remove(name);
        self
    }

    /// Whether an option is protected.
    pub fn is_protected(&self, name: &str) -> bool {
        self.blacklist.iter().any(|b| b.eq_ignore_ascii_case(name))
    }
}

/// Outcome of vetting one response's proposals.
#[derive(Debug, Clone)]
pub struct VetOutcome {
    /// The configuration with all accepted changes applied.
    pub options: Options,
    /// Accepted changes (name, from, to).
    pub applied: Vec<AppliedChange>,
    /// Rejected/adjusted proposals.
    pub violations: Vec<Violation>,
}

/// Vets `changes` against `policy`, starting from `base`.
pub fn vet(base: &Options, changes: &[ProposedChange], policy: &SafeguardPolicy) -> VetOutcome {
    let mut options = base.clone();
    let mut applied = Vec::new();
    let mut violations = Vec::new();

    for change in changes {
        // 1. Blacklist (checked against the proposed name *and* its
        //    canonical form so aliases cannot sneak past).
        let canonical_name = find_option(&change.name).map(|m| m.name).unwrap_or(&change.name);
        if policy.is_protected(&change.name) || policy.is_protected(canonical_name) {
            violations.push(Violation {
                name: change.name.clone(),
                value: change.value.clone(),
                kind: ViolationKind::Protected,
                detail: "protected option (crash-safety/journaling must not be modified)".into(),
            });
            continue;
        }

        // 2. Known / deprecated / hallucinated.
        let target_name = match find_option(&change.name) {
            Some(meta) => meta.name.to_string(),
            None => match find_deprecated(&change.name) {
                Some(dep) => {
                    if let (true, Some(target)) = (policy.remap_deprecated, dep.remap_to) {
                        violations.push(Violation {
                            name: change.name.clone(),
                            value: change.value.clone(),
                            kind: ViolationKind::Deprecated,
                            detail: format!("deprecated ({}); remapped to {target}", dep.note),
                        });
                        target.to_string()
                    } else {
                        violations.push(Violation {
                            name: change.name.clone(),
                            value: change.value.clone(),
                            kind: ViolationKind::Deprecated,
                            detail: format!("deprecated: {}", dep.note),
                        });
                        continue;
                    }
                }
                None => {
                    violations.push(Violation {
                        name: change.name.clone(),
                        value: change.value.clone(),
                        kind: ViolationKind::UnknownOption,
                        detail: "unknown option — possibly hallucinated".into(),
                    });
                    continue;
                }
            },
        };

        // 3. Type/range validation via the registry.
        let before = options.get_by_name(&target_name).unwrap_or_default();
        match options.set_by_name(&target_name, &change.value) {
            Ok(()) => {
                let after = options.get_by_name(&target_name).unwrap_or_default();
                if before != after {
                    applied.push(AppliedChange {
                        name: target_name,
                        from: before,
                        to: after,
                    });
                }
            }
            Err(e) => {
                violations.push(Violation {
                    name: change.name.clone(),
                    value: change.value.clone(),
                    kind: ViolationKind::InvalidValue,
                    detail: e.to_string(),
                });
            }
        }
    }

    // 4. Cross-option validation: reject the whole candidate back to the
    //    base configuration if invariants broke (e.g. inverted triggers).
    if let Err(e) = options.validate() {
        violations.push(Violation {
            name: "(combined configuration)".into(),
            value: String::new(),
            kind: ViolationKind::InvalidValue,
            detail: format!("combination rejected: {e}"),
        });
        // Re-apply changes one by one, keeping only those that validate.
        options = base.clone();
        let mut kept = Vec::new();
        for change in &applied {
            let mut candidate = options.clone();
            if candidate.set_by_name(&change.name, &change.to).is_ok()
                && candidate.validate().is_ok()
            {
                options = candidate;
                kept.push(change.clone());
            }
        }
        applied = kept;
    }

    // 5. Memory budget: shrink the block cache if buffers + cache exceed
    //    ~80% of RAM.
    if let Some(ram) = policy.memory_budget {
        let budget = (ram as f64 * 0.8) as u64;
        let buffers = options
            .write_buffer_size
            .saturating_mul(options.max_write_buffer_number.max(1) as u64);
        let total = buffers + options.block_cache_size;
        if total > budget {
            let new_cache = budget.saturating_sub(buffers).max(8 << 20);
            if new_cache < options.block_cache_size {
                violations.push(Violation {
                    name: "block_cache_size".into(),
                    value: options.block_cache_size.to_string(),
                    kind: ViolationKind::BudgetAdjusted,
                    detail: format!(
                        "write buffers + cache exceeded 80% of {} MiB RAM; cache shrunk to {}",
                        ram >> 20,
                        new_cache
                    ),
                });
                options.block_cache_size = new_cache;
                applied.retain(|a| a.name != "block_cache_size");
                applied.push(AppliedChange {
                    name: "block_cache_size".into(),
                    from: base.block_cache_size.to_string(),
                    to: new_cache.to_string(),
                });
            }
        }
    }

    VetOutcome {
        options,
        applied,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::ChangeOrigin;

    fn change(name: &str, value: &str) -> ProposedChange {
        ProposedChange {
            name: name.into(),
            value: value.into(),
            origin: ChangeOrigin::CodeBlock,
        }
    }

    #[test]
    fn valid_changes_apply() {
        let base = Options::default();
        let out = vet(
            &base,
            &[change("write_buffer_size", "32MB"), change("max_background_jobs", "4")],
            &SafeguardPolicy::default(),
        );
        assert_eq!(out.options.write_buffer_size, 32 << 20);
        assert_eq!(out.options.max_background_jobs, 4);
        assert_eq!(out.applied.len(), 2);
        assert!(out.violations.is_empty());
        assert_eq!(out.applied[0].from, (64u64 << 20).to_string());
    }

    #[test]
    fn protected_options_blocked() {
        let base = Options::default();
        let out = vet(&base, &[change("disable_wal", "true")], &SafeguardPolicy::default());
        assert!(!out.options.disable_wal, "WAL stays on");
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].kind, ViolationKind::Protected);
        assert!(out.applied.is_empty());
    }

    #[test]
    fn unprotect_allows_expert_users() {
        let base = Options::default();
        let mut policy = SafeguardPolicy::default();
        policy.unprotect("disable_wal");
        let out = vet(&base, &[change("disable_wal", "true")], &policy);
        assert!(out.options.disable_wal);
    }

    #[test]
    fn hallucinated_options_detected() {
        let base = Options::default();
        let out = vet(
            &base,
            &[change("memtable_accelerator_mode", "true")],
            &SafeguardPolicy::default(),
        );
        assert_eq!(out.violations[0].kind, ViolationKind::UnknownOption);
        assert!(out.violations[0].to_feedback_line().contains("hallucinated"));
        // Our own spelling of a retired knob is as unknown as an invented one.
        let out = vet(&base, &[change("prefix_extractor_len", "8")], &SafeguardPolicy::default());
        assert_eq!(out.violations[0].kind, ViolationKind::UnknownOption);
    }

    #[test]
    fn deprecated_options_remapped_or_rejected() {
        let base = Options::default();
        let policy = SafeguardPolicy::default();
        let out = vet(&base, &[change("base_background_compactions", "3")], &policy);
        assert_eq!(out.options.max_background_compactions, 3, "remapped");
        assert_eq!(out.violations[0].kind, ViolationKind::Deprecated);

        // Retired names with no remap target: rejected, and called
        // retired rather than hallucinated.
        for (name, value) in [
            ("soft_rate_limit", "0.5"),
            ("index_type", "kTwoLevelIndexSearch"),
            ("metadata_block_size", "4096"),
            ("shard_bytes_soft_limit", "67108864"),
        ] {
            let out = vet(&base, &[change(name, value)], &policy);
            assert_eq!(out.applied.len(), 0, "{name}: no remap target, rejected");
            assert_eq!(out.violations[0].kind, ViolationKind::Deprecated, "{name}");
            assert_eq!(out.options, base, "{name}");
        }
    }

    #[test]
    fn invalid_values_rejected() {
        let base = Options::default();
        let out = vet(
            &base,
            &[
                change("max_background_jobs", "4096"),
                change("write_buffer_size", "enormous"),
                change("bloom_filter_bits_per_key", "-5"),
            ],
            &SafeguardPolicy::default(),
        );
        assert_eq!(out.violations.len(), 3);
        assert!(out.violations.iter().all(|v| v.kind == ViolationKind::InvalidValue));
        assert_eq!(out.options, base);
    }

    #[test]
    fn inconsistent_combination_partially_recovered() {
        let base = Options::default();
        // Slowdown above stop is invalid together; each alone is fine.
        let out = vet(
            &base,
            &[
                change("level0_slowdown_writes_trigger", "100"),
                change("max_background_jobs", "4"),
            ],
            &SafeguardPolicy::default(),
        );
        assert!(out
            .violations
            .iter()
            .any(|v| v.detail.contains("combination rejected")));
        // The independent change survives the re-application pass.
        assert_eq!(out.options.max_background_jobs, 4);
        assert_eq!(out.options.level0_slowdown_writes_trigger, 20, "invalid combo dropped");
    }

    #[test]
    fn memory_budget_shrinks_cache() {
        let base = Options::default();
        let policy = SafeguardPolicy::with_memory_budget(4 << 30);
        let out = vet(
            &base,
            &[
                change("write_buffer_size", "512MB"),
                change("max_write_buffer_number", "4"),
                change("block_cache_size", "3GB"),
            ],
            &policy,
        );
        let adjusted = out
            .violations
            .iter()
            .find(|v| v.kind == ViolationKind::BudgetAdjusted)
            .expect("the cache was shrunk");
        // The line goes into the next prompt: its bytes are pinned.
        assert_eq!(
            adjusted.detail,
            "write buffers + cache exceeded 80% of 4096 MiB RAM; cache shrunk to 1288490188"
        );
        let total = out.options.write_buffer_size * out.options.max_write_buffer_number as u64
            + out.options.block_cache_size;
        assert!(total <= (4u64 << 30) * 8 / 10 + (8 << 20));
    }

    #[test]
    fn alias_cannot_bypass_blacklist() {
        let base = Options::default();
        let out = vet(&base, &[change("disableWAL", "true")], &SafeguardPolicy::default());
        assert!(!out.options.disable_wal);
        assert_eq!(out.violations[0].kind, ViolationKind::Protected);
    }

    #[test]
    fn noop_changes_not_recorded_as_applied() {
        let base = Options::default();
        let out = vet(&base, &[change("write_buffer_size", "64MB")], &SafeguardPolicy::default());
        assert!(out.applied.is_empty(), "same value as default");
        assert!(out.violations.is_empty());
    }
}
