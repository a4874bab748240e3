//! Compaction filters: a RocksDB-style per-entry keep/drop hook invoked
//! from flush and from both compaction styles, plus the built-in TTL
//! filter driven by the `ttl_seconds` option.
//!
//! # Snapshot safety
//!
//! A [`FilterContext`] bundles the filter with the sequence numbers of
//! every pinned snapshot (see `Db::pin_snapshot`). The one merge that
//! writes tables (`merge.rs`, for flush and compaction alike) consults the
//! pins before acting:
//!
//! - A filter may only drop the newest version of a key when **no** pin
//!   can see it (every pinned sequence is below the entry's sequence).
//! - A filtered entry is replaced by a tombstone rather than removed
//!   outright unless the merge is bottommost and no pin exists — so an
//!   older version of the key in a deeper level is never resurrected.
//! - Shadowed (older) versions of a key are kept when some pin falls
//!   between the shadowed version and its successor, instead of being
//!   deduplicated away.
//!
//! With no filter and no pins every decision collapses to the historic
//! behavior, byte for byte — the default-configuration determinism gate
//! relies on this.

use std::sync::Arc;

use crate::types::{SequenceNumber, ValueType};

/// What a [`CompactionFilter`] wants done with one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterDecision {
    /// Keep the entry as-is.
    Keep,
    /// Drop the entry (subject to the snapshot-safety rules above).
    Remove,
}

/// A per-entry keep/drop hook consulted during flush and compaction.
///
/// Invoked only for the newest surviving version of each user key, and
/// only for value entries (never tombstones). Implementations must be
/// pure with respect to a single job: the engine snapshots any state
/// (e.g. the clock) once per job, so one merge applies one consistent
/// policy.
pub trait CompactionFilter: Send + Sync {
    /// Diagnostic name.
    fn name(&self) -> &str;
    /// Decides the fate of one entry.
    fn filter(&self, user_key: &[u8], ty: ValueType, value: &[u8]) -> FilterDecision;
}

/// The built-in TTL filter: drops [`ValueType::TtlValue`] entries whose
/// write timestamp is at least `ttl_seconds` old. Plain values and
/// entries with a malformed stamp are kept.
#[derive(Debug, Clone)]
pub struct TtlFilter {
    now_secs: u64,
    ttl_seconds: u64,
}

impl TtlFilter {
    /// Creates a filter frozen at `now_secs` (snapshotted once per job).
    pub fn new(now_secs: u64, ttl_seconds: u64) -> TtlFilter {
        TtlFilter { now_secs, ttl_seconds }
    }
}

impl CompactionFilter for TtlFilter {
    fn name(&self) -> &str {
        "ttl"
    }

    fn filter(&self, _user_key: &[u8], ty: ValueType, value: &[u8]) -> FilterDecision {
        if ty != ValueType::TtlValue || self.ttl_seconds == 0 {
            return FilterDecision::Keep;
        }
        match split_ttl_value(value).1 {
            Some(written) if ttl_expired(written, self.now_secs, self.ttl_seconds) => {
                FilterDecision::Remove
            }
            _ => FilterDecision::Keep,
        }
    }
}

/// Splits a [`ValueType::TtlValue`] payload into the user value and its
/// write timestamp. A payload too short to carry a stamp (possible only
/// on corrupted input) yields `None` and the full bytes as the value.
pub fn split_ttl_value(stamped: &[u8]) -> (&[u8], Option<u64>) {
    if stamped.len() < 8 {
        return (stamped, None);
    }
    let at = stamped.len() - 8;
    let ts = u64::from_le_bytes(stamped[at..].try_into().expect("8-byte stamp"));
    (&stamped[..at], Some(ts))
}

/// Whether an entry written at `written_secs` is expired at `now_secs`
/// under `ttl_seconds` (0 disables expiry).
pub fn ttl_expired(written_secs: u64, now_secs: u64, ttl_seconds: u64) -> bool {
    ttl_seconds > 0 && now_secs >= written_secs.saturating_add(ttl_seconds)
}

/// What a stored entry means to a reader: the user's bytes when it is
/// live, `None` when it is a tombstone or a stamped value expired at
/// `now_secs` under `ttl_seconds`. `ty` is the low byte of the entry's
/// tag. Lookups and scans both read entries through this; a pass takes
/// one clock reading and one `ttl_seconds` and applies them throughout.
pub(crate) fn live_value(ty: u8, stored: &[u8], now_secs: u64, ttl_seconds: u64) -> Option<&[u8]> {
    if ty == ValueType::Deletion as u8 {
        return None;
    }
    if ty != ValueType::TtlValue as u8 {
        return Some(stored);
    }
    match split_ttl_value(stored) {
        (_, Some(written)) if ttl_expired(written, now_secs, ttl_seconds) => None,
        (value, _) => Some(value),
    }
}

/// Filter + snapshot pins handed to one flush or compaction job.
///
/// The pins are the sequences of every snapshot pinned at job-claim
/// time, sorted ascending. The default (no filter, no pins) reproduces
/// the engine's historic merge behavior exactly.
#[derive(Clone, Default)]
pub struct FilterContext {
    /// The active filter, if any.
    pub filter: Option<Arc<dyn CompactionFilter>>,
    /// Pinned snapshot sequences, sorted ascending.
    pub pins: Vec<SequenceNumber>,
}

impl std::fmt::Debug for FilterContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FilterContext")
            .field("filter", &self.filter.as_ref().map(|fl| fl.name().to_string()))
            .field("pins", &self.pins)
            .finish()
    }
}

impl FilterContext {
    /// Whether some pinned snapshot `S` satisfies `lo <= S < hi` — the
    /// condition under which a shadowed version at sequence `lo` is
    /// still the visible version for snapshot `S` (its successor is at
    /// sequence `hi`) and must survive deduplication.
    pub fn pin_in(&self, lo: SequenceNumber, hi: SequenceNumber) -> bool {
        let i = self.pins.partition_point(|&s| s < lo);
        self.pins.get(i).is_some_and(|&s| s < hi)
    }

    /// Whether no pinned snapshot can see an entry at `seq` (every pin
    /// is strictly below it). Gates the filter: an entry a pin can see
    /// must never be filtered away.
    pub fn unpinned(&self, seq: SequenceNumber) -> bool {
        self.pins.last().is_none_or(|&s| s < seq)
    }

    /// Whether every pinned snapshot sees an entry at `seq`. A
    /// bottommost tombstone may be physically dropped only then: all
    /// older versions of its key fall in the same (earliest) snapshot
    /// slot and are deduplicated away with it, so no observer can tell.
    pub fn visible_to_all_pins(&self, seq: SequenceNumber) -> bool {
        self.pins.first().is_none_or(|&s| s >= seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ttl_filter_drops_only_expired_ttl_values() {
        let f = TtlFilter::new(100, 10);
        let mut fresh = b"v".to_vec();
        fresh.extend_from_slice(&95u64.to_le_bytes());
        let mut stale = b"v".to_vec();
        stale.extend_from_slice(&90u64.to_le_bytes());
        assert_eq!(f.filter(b"k", ValueType::TtlValue, &fresh), FilterDecision::Keep);
        assert_eq!(f.filter(b"k", ValueType::TtlValue, &stale), FilterDecision::Remove);
        // Plain values carry no stamp and never expire.
        assert_eq!(f.filter(b"k", ValueType::Value, b"v"), FilterDecision::Keep);
        // Malformed (short) stamped payloads are kept, not dropped.
        assert_eq!(f.filter(b"k", ValueType::TtlValue, b"xy"), FilterDecision::Keep);
    }

    #[test]
    fn ttl_zero_disables_expiry() {
        let f = TtlFilter::new(1_000_000, 0);
        let mut old = b"v".to_vec();
        old.extend_from_slice(&1u64.to_le_bytes());
        assert_eq!(f.filter(b"k", ValueType::TtlValue, &old), FilterDecision::Keep);
        assert!(!ttl_expired(1, 1_000_000, 0));
    }

    #[test]
    fn split_ttl_value_roundtrip() {
        let mut v = b"payload".to_vec();
        v.extend_from_slice(&42u64.to_le_bytes());
        let (val, ts) = split_ttl_value(&v);
        assert_eq!(val, b"payload");
        assert_eq!(ts, Some(42));
        assert_eq!(split_ttl_value(b"abc"), (&b"abc"[..], None));
    }

    #[test]
    fn pin_predicates() {
        let ctx = FilterContext { filter: None, pins: vec![5, 12] };
        // pin_in: some pin in [lo, hi)
        assert!(ctx.pin_in(3, 6), "pin 5 in [3,6)");
        assert!(ctx.pin_in(5, 6), "inclusive low end");
        assert!(!ctx.pin_in(6, 12), "12 excluded at high end");
        assert!(ctx.pin_in(6, 13));
        assert!(!ctx.pin_in(13, 100));
        // unpinned: every pin strictly below seq
        assert!(ctx.unpinned(13));
        assert!(!ctx.unpinned(12));
        // visible_to_all_pins: every pin at or above seq
        assert!(ctx.visible_to_all_pins(5));
        assert!(!ctx.visible_to_all_pins(6));

        let empty = FilterContext::default();
        assert!(empty.unpinned(0));
        assert!(empty.visible_to_all_pins(u64::MAX));
        assert!(!empty.pin_in(0, u64::MAX));
    }
}
