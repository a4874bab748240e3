//! Leveled compaction picking, the engine's one compaction style.

use std::sync::Arc;

use crate::options::Options;
use crate::version::{FileMetadata, Version};

/// Inputs to a merging compaction.
#[derive(Debug)]
pub struct CompactionInputs {
    /// Input files with the level each lives on.
    pub inputs: Vec<(usize, Arc<FileMetadata>)>,
    /// Destination level.
    pub output_level: usize,
    /// A manual `compact_range` rewrite of the bottommost files in a
    /// range, in place, so tombstones already at the bottom are dropped;
    /// `can_drop_tombstones` lets it drop those no deeper file overlaps.
    pub bottommost: bool,
}

impl CompactionInputs {
    /// Total input bytes.
    pub fn total_bytes(&self) -> u64 {
        self.inputs.iter().map(|(_, f)| f.size).sum()
    }
}

/// Per-level byte targets for leveled compaction.
pub fn level_targets(opts: &Options, version: &Version) -> Vec<u64> {
    let n = version.num_levels();
    let mut targets = vec![u64::MAX; n];
    if n < 2 {
        return targets;
    }
    if opts.level_compaction_dynamic_level_bytes {
        // Size levels down from the deepest non-empty level so the last
        // level holds ~the full data set (lower space amplification).
        let last = (1..n).rev().find(|l| version.level_bytes(*l) > 0).unwrap_or(n - 1);
        let mut target = version.level_bytes(last).max(opts.max_bytes_for_level_base);
        for l in (1..=last).rev() {
            targets[l] = target.max(opts.max_bytes_for_level_base);
            target = (target as f64 / opts.max_bytes_for_level_multiplier.max(1.0)) as u64;
        }
        for t in targets.iter_mut().skip(last + 1) {
            *t = u64::MAX;
        }
    } else {
        let mut target = opts.max_bytes_for_level_base;
        for t in targets.iter_mut().take(n).skip(1) {
            *t = target;
            target = (target as f64 * opts.max_bytes_for_level_multiplier.max(1.0)) as u64;
        }
    }
    targets
}

/// Estimated compaction debt: bytes above target across levels plus
/// over-trigger L0 bytes. Drives the pending-compaction write throttles.
pub fn pending_compaction_bytes(opts: &Options, version: &Version) -> u64 {
    let targets = level_targets(opts, version);
    let mut debt = 0u64;
    let l0_files = version.files(0).len() as u64;
    let trigger = opts.level0_file_num_compaction_trigger.max(1) as u64;
    if l0_files > trigger {
        let avg = version.level_bytes(0) / l0_files.max(1);
        debt += avg * (l0_files - trigger);
    }
    for (l, &target) in targets.iter().enumerate().take(version.num_levels()).skip(1) {
        let bytes = version.level_bytes(l);
        if target != u64::MAX && bytes > target {
            debt += bytes - target;
        }
    }
    debt
}

fn unclaimed(files: &[Arc<FileMetadata>]) -> Vec<Arc<FileMetadata>> {
    files.iter().filter(|f| !f.is_being_compacted()).cloned().collect()
}

/// Picks the next leveled compaction, or `None` when nothing is needed
/// or all candidates are already claimed.
pub fn pick_compaction(opts: &Options, version: &Version) -> Option<CompactionInputs> {
    let n = version.num_levels();
    let targets = level_targets(opts, version);

    // Score L0 by file count, deeper levels by bytes vs target.
    let l0_unclaimed = unclaimed(version.files(0));
    let l0_claimed = version.files(0).len() != l0_unclaimed.len();
    let mut best: Option<(f64, usize)> = None;
    if !l0_claimed && !l0_unclaimed.is_empty() {
        let score = l0_unclaimed.len() as f64 / opts.level0_file_num_compaction_trigger.max(1) as f64;
        best = Some((score, 0));
    }
    for (level, &target) in targets.iter().enumerate().take(n - 1).skip(1) {
        if target == u64::MAX {
            continue;
        }
        let bytes: u64 = unclaimed(version.files(level)).iter().map(|f| f.size).sum();
        let score = bytes as f64 / target as f64;
        if best.map(|(s, _)| score > s).unwrap_or(true) {
            best = Some((score, level));
        }
    }
    let (score, level) = best?;
    if score < 1.0 {
        return None;
    }

    if level == 0 {
        // L0 -> base level: all unclaimed L0 files plus overlapping base
        // files.
        let base = pick_base_level(opts, version);
        let mut lo = l0_unclaimed[0].smallest.user_key().to_vec();
        let mut hi = l0_unclaimed[0].largest.user_key().to_vec();
        for f in &l0_unclaimed {
            if f.smallest.user_key() < lo.as_slice() {
                lo = f.smallest.user_key().to_vec();
            }
            if f.largest.user_key() > hi.as_slice() {
                hi = f.largest.user_key().to_vec();
            }
        }
        let bottom = version.overlapping_files(base, &lo, &hi);
        if bottom.iter().any(|f| f.is_being_compacted()) {
            return None;
        }
        let mut inputs: Vec<(usize, Arc<FileMetadata>)> =
            l0_unclaimed.into_iter().map(|f| (0, f)).collect();
        inputs.extend(bottom.into_iter().map(|f| (base, f)));
        return Some(CompactionInputs {
            inputs,
            output_level: base,
            bottommost: false,
        });
    }

    // Level N -> N+1: pick the first unclaimed file whose bottom overlap
    // is also unclaimed, bounded by max_compaction_bytes.
    let output_level = level + 1;
    for file in unclaimed(version.files(level)) {
        let bottom = version.overlapping_files(
            output_level,
            file.smallest.user_key(),
            file.largest.user_key(),
        );
        if bottom.iter().any(|f| f.is_being_compacted()) {
            continue;
        }
        let total: u64 = file.size + bottom.iter().map(|f| f.size).sum::<u64>();
        if total > opts.max_compaction_bytes.max(file.size) && !bottom.is_empty() {
            continue;
        }
        let mut inputs = vec![(level, file)];
        inputs.extend(bottom.into_iter().map(|f| (output_level, f)));
        return Some(CompactionInputs {
            inputs,
            output_level,
            bottommost: false,
        });
    }
    None
}

/// The level L0 compacts into: the first non-empty level, or L1.
fn pick_base_level(opts: &Options, version: &Version) -> usize {
    if !opts.level_compaction_dynamic_level_bytes {
        return 1;
    }
    (1..version.num_levels())
        .find(|l| version.level_bytes(*l) > 0)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{FileNumber, InternalKey, ValueType};
    use crate::version::VersionEdit;

    fn meta(number: u64, lo: &str, hi: &str, size: u64) -> Arc<FileMetadata> {
        Arc::new(FileMetadata::new(
            FileNumber(number),
            size,
            InternalKey::new(lo.as_bytes(), 1, ValueType::Value),
            InternalKey::new(hi.as_bytes(), 1, ValueType::Value),
            size / 100,
        ))
    }

    fn version_with(files: &[(usize, Arc<FileMetadata>)]) -> Version {
        let mut edit = VersionEdit::default();
        for (l, f) in files {
            edit.added_files.push((*l, Arc::clone(f)));
        }
        Version::empty(7).apply(&edit).unwrap()
    }

    #[test]
    fn no_compaction_when_quiet() {
        let opts = Options::default();
        let v = version_with(&[(0, meta(1, "a", "b", 1000))]);
        assert!(pick_compaction(&opts, &v).is_none());
    }

    #[test]
    fn l0_trigger_picks_all_l0_plus_overlap() {
        let opts = Options::default(); // trigger = 4
        let v = version_with(&[
            (0, meta(1, "a", "m", 1000)),
            (0, meta(2, "b", "n", 1000)),
            (0, meta(3, "c", "o", 1000)),
            (0, meta(4, "d", "p", 1000)),
            (1, meta(5, "a", "h", 1000)),
            (1, meta(6, "x", "z", 1000)),
        ]);
        let c = pick_compaction(&opts, &v).expect("expected merge");
        assert_eq!(c.output_level, 1);
        // 4 L0 files + the overlapping L1 file (x..z does not overlap a..p).
        assert_eq!(c.inputs.len(), 5);
        assert!(c.inputs.iter().all(|(l, f)| *l != 1 || f.number == FileNumber(5)));
    }

    #[test]
    fn level_size_trigger() {
        let opts = Options {
            max_bytes_for_level_base: 10_000,
            ..Options::default()
        };
        let v = version_with(&[
            (1, meta(1, "a", "f", 8_000)),
            (1, meta(2, "g", "p", 8_000)),
            (2, meta(3, "a", "c", 5_000)),
        ]);
        let c = pick_compaction(&opts, &v).expect("expected merge");
        assert_eq!(c.output_level, 2);
        // First L1 file overlaps the L2 file.
        assert_eq!(c.inputs.len(), 2);
    }

    #[test]
    fn claimed_files_block_picks() {
        let opts = Options::default();
        let f1 = meta(1, "a", "m", 1000);
        f1.set_being_compacted(true);
        let v = version_with(&[
            (0, Arc::clone(&f1)),
            (0, meta(2, "b", "n", 1000)),
            (0, meta(3, "c", "o", 1000)),
            (0, meta(4, "d", "p", 1000)),
        ]);
        assert!(pick_compaction(&opts, &v).is_none(), "L0 pick waits for in-flight job");
    }

    #[test]
    fn dynamic_level_bytes_changes_targets() {
        let opts = Options {
            level_compaction_dynamic_level_bytes: true,
            ..Options::default()
        };
        let v = version_with(&[(6, meta(1, "a", "z", 100 << 30))]);
        let targets = level_targets(&opts, &v);
        assert_eq!(targets[6], 100 << 30);
        assert!(targets[5] < targets[6]);
        assert!(targets[1] >= opts.max_bytes_for_level_base);
    }

    #[test]
    fn pending_bytes_grow_with_debt() {
        let opts = Options {
            max_bytes_for_level_base: 1_000,
            ..Options::default()
        };
        let quiet = version_with(&[(1, meta(1, "a", "b", 500))]);
        assert_eq!(pending_compaction_bytes(&opts, &quiet), 0);
        let busy = version_with(&[(1, meta(1, "a", "b", 50_000))]);
        assert_eq!(pending_compaction_bytes(&opts, &busy), 49_000);
    }
}
