//! [`ClusterClient`]: one engine over many `kv_server` processes.
//!
//! The key space is partitioned by the same [`KeyRanges`] the sharded
//! engine uses: `n` nodes need `n - 1` strictly increasing, non-empty
//! boundaries, node `i` owning keys in `[boundary[i-1], boundary[i])`
//! (open-ended at both ends). The routing is not here: the client is a
//! [`RangeFanout`] over [`RemoteDb`]s, and `lsm_kvs`'s blanket impl
//! makes that a [`KvEngine`](lsm_kvs::KvEngine), so `db_bench --cluster`
//! and the live-tuning loop drive a whole fleet unchanged. What this
//! module adds is connecting, and what to do when a node dies.
//!
//! Failover: a node spec may name a replica (`leader~follower`). When
//! an operation fails with a transport error — after [`RemoteDb`]'s own
//! bounded redial-and-retry — the client dials the replica, sends
//! [`Request::Promote`], and swaps it in as the range's primary.
//! Idempotent reads are then retried against the new primary; a failed
//! write is surfaced to the caller honestly (it may or may not have
//! committed on the dead leader), but the swap still happens so later
//! writes land on the promoted node.

use std::ops::Deref;
use std::sync::Arc;

use lsm_kvs::{Error, KeyRanges, RangeFanout, Result};
use parking_lot::Mutex;

use crate::client::{is_transport, RemoteDb};

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

impl RangeFanout for ClusterClient {
    type Part = RemoteDb;

    fn ranges(&self) -> &KeyRanges {
        &self.ranges
    }

    fn part(&self, idx: usize) -> impl Deref<Target = RemoteDb> {
        self.primary(idx)
    }

    fn with_part<T>(
        &self,
        idx: usize,
        idempotent: bool,
        op: impl Fn(&RemoteDb) -> Result<T>,
    ) -> Result<T> {
        self.with_node(idx, idempotent, op)
    }

    fn title(&self) -> String {
        format!("Cluster: {} nodes", self.nodes.len())
    }

    fn part_title(&self, idx: usize) -> String {
        format!("Node {idx} ({})", self.nodes[idx].addr)
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
