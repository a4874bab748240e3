//! [`ClusterClient`]: one [`KvEngine`] over many `kv_server` processes.
//!
//! The key space is partitioned by the same split-point machinery the
//! sharded engine uses: `n` nodes need `n - 1` strictly increasing,
//! non-empty boundaries, node `i` owning keys in
//! `[boundary[i-1], boundary[i])` (open-ended at both ends). Every
//! operation routes by range: point ops to one node, `multi_get` and
//! batch writes fanned out per node with answers re-assembled in input
//! order, scans walked node by node in key order, stats merged across
//! the fleet. Because it implements [`KvEngine`], `db_bench --cluster`
//! and the live-tuning loop drive a whole fleet unchanged.
//!
//! Failover: a node spec may name a replica (`leader~follower`). When
//! an operation fails with a transport error — after [`RemoteDb`]'s own
//! bounded redial-and-retry — the client dials the replica, sends
//! [`Request::Promote`], and swaps it in as the range's primary.
//! Idempotent reads are then retried against the new primary; a failed
//! write is surfaced to the caller honestly (it may or may not have
//! committed on the dead leader), but the swap still happens so later
//! writes land on the promoted node.

use std::sync::Arc;

use lsm_kvs::{
    DbStats, Error, ErrorKind, KeyRanges, KvEngine, Result, ScanResult, WriteBatch, WriteOptions,
};
use parking_lot::Mutex;

use crate::client::RemoteDb;

/// A connection-level failure (dial, send, receive) — the only errors
/// worth a failover. Server-answered errors (including retryable `Busy`)
/// mean the node is alive.
fn is_transport(e: &Error) -> bool {
    e.kind() == ErrorKind::Io && e.is_retryable()
}

/// One range's serving state.
struct Node {
    /// Address the node was configured with (diagnostics only; the live
    /// primary may have moved to the replica).
    addr: String,
    /// Replica client-port address, if the range has one.
    replica: Option<String>,
    /// The client currently serving this range; swapped on failover.
    primary: Mutex<Arc<RemoteDb>>,
    /// Serializes failover so concurrent failures promote once.
    failover: Mutex<()>,
}

/// A range-routing, failover-capable client over many servers.
pub struct ClusterClient {
    nodes: Vec<Node>,
    ranges: KeyRanges,
}

impl ClusterClient {
    /// Connects to every node of `spec`: comma-separated client-port
    /// addresses, each optionally `leader~follower`, ordered by key
    /// range. `split_points` are the `len - 1` range boundaries (same
    /// contract as the sharded engine: non-empty, strictly increasing).
    ///
    /// # Errors
    ///
    /// Invalid spec or boundaries, or any node unreachable.
    pub fn connect(spec: &str, split_points: Vec<Vec<u8>>) -> Result<ClusterClient> {
        let mut nodes = Vec::new();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (addr, replica) = match part.split_once('~') {
                Some((leader, follower)) => (leader.to_string(), Some(follower.to_string())),
                None => (part.to_string(), None),
            };
            let primary = Arc::new(RemoteDb::connect(&addr)?);
            nodes.push(Node {
                addr,
                replica,
                primary: Mutex::new(primary),
                failover: Mutex::new(()),
            });
        }
        if nodes.is_empty() {
            return Err(Error::invalid_argument("cluster spec names no nodes"));
        }
        let ranges = KeyRanges::new(split_points, nodes.len())?;
        Ok(ClusterClient { nodes, ranges })
    }

    /// Number of nodes (ranges).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The configured leader address of node `idx`.
    pub fn node_addr(&self, idx: usize) -> &str {
        &self.nodes[idx].addr
    }

    fn primary(&self, idx: usize) -> Arc<RemoteDb> {
        Arc::clone(&self.nodes[idx].primary.lock())
    }

    /// Recovers node `idx` after `failed` saw a transport error: if
    /// another thread already swapped primaries (or the node answered a
    /// probe after all), use the current primary; otherwise dial the
    /// replica, promote it, and swap it in.
    ///
    /// # Errors
    ///
    /// No replica configured, or the replica is unreachable too.
    fn failover(&self, idx: usize, failed: &Arc<RemoteDb>) -> Result<Arc<RemoteDb>> {
        let node = &self.nodes[idx];
        let _guard = node.failover.lock();
        let current = self.primary(idx);
        if !Arc::ptr_eq(&current, failed) {
            // A concurrent caller already failed this node over.
            return Ok(current);
        }
        // One more probe: the transport error may have been a blip, and
        // promoting a follower while the leader lives would fork writes.
        if current.ping().is_ok() {
            return Ok(current);
        }
        let Some(replica) = &node.replica else {
            return Err(Error::io(format!("node {} down and has no replica", node.addr))
                .retryable(false));
        };
        let promoted = Arc::new(RemoteDb::connect(replica)?);
        promoted.promote()?;
        *node.primary.lock() = Arc::clone(&promoted);
        Ok(promoted)
    }

    /// Runs `op` against a node's primary; on a transport error, fails
    /// the node over and — only for idempotent ops — retries once
    /// against the promoted replica. Write errors surface to the caller,
    /// but the swap still happens so later writes recover.
    fn with_node<T>(
        &self,
        idx: usize,
        idempotent: bool,
        op: impl Fn(&RemoteDb) -> Result<T>,
    ) -> Result<T> {
        let db = self.primary(idx);
        match op(&db) {
            Err(e) if is_transport(&e) => match self.failover(idx, &db) {
                Ok(promoted) if idempotent => op(&promoted),
                Ok(_) | Err(_) => Err(e),
            },
            other => other,
        }
    }
}

impl KvEngine for ClusterClient {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.with_node(self.ranges.route(key), false, |db| db.put(key, value))
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        self.with_node(self.ranges.route(key), false, |db| db.delete(key))
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.with_node(self.ranges.route(key), true, |db| db.get(key))
    }

    fn multi_get(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        // Group by owning node, keeping each key's original slot.
        let mut per_node: Vec<(Vec<usize>, Vec<Vec<u8>>)> =
            (0..self.nodes.len()).map(|_| (Vec::new(), Vec::new())).collect();
        for (slot, key) in keys.iter().enumerate() {
            let idx = self.ranges.route(key);
            per_node[idx].0.push(slot);
            per_node[idx].1.push(key.clone());
        }
        let mut out = vec![None; keys.len()];
        for (idx, (slots, node_keys)) in per_node.into_iter().enumerate() {
            if node_keys.is_empty() {
                continue;
            }
            let values =
                self.with_node(idx, true, |db| db.multi_get(&node_keys))?;
            for (slot, value) in slots.into_iter().zip(values) {
                out[slot] = value;
            }
        }
        Ok(out)
    }

    fn write_opt(&self, wopts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        for (idx, node_batch) in self.ranges.split_batch(&batch).into_iter().enumerate() {
            if node_batch.is_empty() {
                continue;
            }
            // Atomic per node, like the sharded engine's contract.
            self.with_node(idx, false, |db| db.write_opt(wopts, node_batch.clone()))?;
        }
        Ok(())
    }

    fn scan(&self, start: &[u8], count: usize) -> Result<ScanResult> {
        // Nodes are ordered by range, so walking them in order yields
        // globally sorted results; every node's keys past the first are
        // all > start, so the same start key works everywhere.
        let mut entries = Vec::new();
        for idx in self.ranges.route(start)..self.nodes.len() {
            let remaining = count - entries.len();
            if remaining == 0 {
                break;
            }
            let chunk = self.with_node(idx, true, |db| db.scan(start, remaining))?;
            // Never trust a node to honor the limit: an over-answer
            // would make `remaining` underflow on the next node.
            entries.extend(chunk.into_iter().take(remaining));
        }
        Ok(entries)
    }

    fn flush(&self) -> Result<()> {
        for idx in 0..self.nodes.len() {
            self.with_node(idx, false, |db| db.flush())?;
        }
        Ok(())
    }

    fn wait_background_idle(&self) -> Result<()> {
        for idx in 0..self.nodes.len() {
            self.with_node(idx, true, |db| db.wait_background_idle())?;
        }
        Ok(())
    }

    fn stats(&self) -> DbStats {
        match self.stats_checked() {
            Ok(s) => s,
            // Per-node clients already substitute their last good
            // snapshot, so this only happens before any fetch worked.
            Err(_) => self.primary(0).stats(),
        }
    }

    fn stats_checked(&self) -> Result<DbStats> {
        // Unlike shards, nodes do not share a block cache: its counters
        // sum on top of what `DbStats::merge` folds in.
        let mut agg: Option<DbStats> = None;
        for idx in 0..self.nodes.len() {
            let s = self.with_node(idx, true, |db| db.stats_checked())?;
            agg = Some(match agg {
                None => s,
                Some(mut a) => {
                    a.merge(&s);
                    a.block_cache.hits += s.block_cache.hits;
                    a.block_cache.misses += s.block_cache.misses;
                    a.block_cache.inserts += s.block_cache.inserts;
                    a.block_cache.evictions += s.block_cache.evictions;
                    a.block_cache_capacity += s.block_cache_capacity;
                    a
                }
            });
        }
        agg.ok_or_else(|| Error::invalid_argument("cluster has no nodes"))
    }

    fn stats_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "** Cluster: {} nodes **", self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            let db = self.primary(i);
            let _ = writeln!(out, "\n** Node {i} ({}) **", node.addr);
            out.push_str(&db.stats_text());
        }
        out
    }

    fn set_options(&self, changes: &[(String, String)]) -> Result<()> {
        for idx in 0..self.nodes.len() {
            self.with_node(idx, false, |db| db.set_options(changes))?;
        }
        Ok(())
    }

    fn options_ini(&self) -> Result<String> {
        // Nodes run one logical configuration (set_options fans out);
        // report node 0's view, like the sharded facade does.
        self.with_node(0, true, |db| db.options_ini())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_and_split_validation() {
        assert!(ClusterClient::connect("", Vec::new()).is_err());
        // Unreachable address fails fast.
        assert!(ClusterClient::connect("127.0.0.1:1", Vec::new()).is_err());
    }

    #[test]
    fn routing_boundaries() {
        let ranges = KeyRanges::new(vec![b"m".to_vec(), b"t".to_vec()], 3).unwrap();
        let route = |key: &[u8]| ranges.route(key);
        assert_eq!(route(b"a"), 0);
        assert_eq!(route(b"lzz"), 0);
        assert_eq!(route(b"m"), 1); // boundary key goes right
        assert_eq!(route(b"s"), 1);
        assert_eq!(route(b"t"), 2);
        assert_eq!(route(b"zz"), 2);
    }
}
