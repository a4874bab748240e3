//! Compaction: leveled picking plus merge execution.

pub mod job;
pub mod picker;

pub use job::{can_drop_tombstones, run_compaction, CompactionJobOutput};
pub use picker::{level_targets, pending_compaction_bytes, pick_compaction, CompactionInputs};

// Re-exported pieces are part of the crate's public surface even when the
// engine itself only uses a subset.

