//! Location-addressed node storage.

use std::collections::{HashMap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::node::Node;

/// Location of a node within a [`NodeStore`].
pub type Ptr = u64;

/// Storage statistics used by the paper's storage-cost experiment (§V-D).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Nodes currently resident.
    pub node_count: usize,
    /// Bytes currently resident (sum of [`Node::storage_size`]).
    pub byte_count: usize,
    /// Running count of nodes reclaimed by sealing.
    pub sealed_reclaimed: usize,
    /// High-water mark of `byte_count`.
    pub peak_bytes: usize,
}

/// A location-addressed store of trie nodes.
///
/// Nodes are addressed by [`Ptr`], not by content hash, mirroring the
/// paper's Solana implementation (an account holding an array of nodes).
/// A pointer whose node is missing is, by definition, *sealed*.
/// Implementations must report how much storage live nodes occupy so
/// experiments can account for host-chain rent.
pub trait NodeStore {
    /// Fetches a node, or `None` if absent (sealed or never stored).
    fn get(&self, ptr: Ptr) -> Option<&Node>;
    /// Stores `node` at a fresh location and returns it.
    fn put(&mut self, node: Node) -> Ptr;
    /// Removes the node at `ptr` (used for both rewrites and sealing;
    /// sealing passes `reclaim = true` so stats can distinguish).
    fn remove(&mut self, ptr: Ptr, reclaim: bool);
    /// Replaces the node at `ptr` in place, keeping the same location.
    ///
    /// Used when sealing turns a live leaf into a skeleton (same commitment
    /// hash, smaller footprint) without disturbing the parent's reference.
    fn replace(&mut self, ptr: Ptr, node: Node);
    /// Current statistics.
    fn stats(&self) -> StoreStats;
}

/// The default in-memory node store.
///
/// The store is *versioned*, which is what backs
/// [`Trie::commit`](crate::Trie::commit) and
/// [`Trie::prove_at`](crate::Trie::prove_at): `snapshot` freezes the
/// current contents as a version that `get_at` keeps reading, without
/// copying anything. Because a [`Ptr`] is never reused and a rewrite is a
/// `put` of the new node followed by a `remove` of the old one, a snapshot
/// only needs the nodes removed after it: while any snapshot is held,
/// `remove` moves the node into a *retired* set tagged with the current
/// version instead of dropping it, and `release` frees retired nodes in
/// FIFO order once no held snapshot can reach them. Live reads
/// ([`NodeStore::get`]), [`StoreStats`], [`MemStore::iter`] and the serde
/// form see only the live version.
///
/// # Examples
///
/// ```
/// use sealable_trie::{MemStore, NodeStore};
/// use sealable_trie::node::{Node, Value};
/// use sealable_trie::Nibbles;
///
/// let mut store = MemStore::new();
/// let node = Node::Leaf { path: Nibbles::from_key(b"k"), value: Value::new(b"v".into()) };
/// let ptr = store.put(node.clone());
/// assert_eq!(store.get(ptr), Some(&node));
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MemStore {
    nodes: HashMap<Ptr, Node>,
    next: Ptr,
    stats: StoreStats,
    /// Snapshot bookkeeping: runtime-only, a restored store holds none.
    #[serde(skip)]
    versions: Versions,
}

/// The versioning half of a [`MemStore`].
#[derive(Clone, Debug, Default)]
struct Versions {
    /// Version of the live contents; [`MemStore::snapshot`] freezes it.
    current: u64,
    /// First pointer allocated in the current version. Nodes at or past it
    /// are reachable from no snapshot, so removing them drops them.
    current_start: Ptr,
    /// Oldest version a held snapshot still reads, if any snapshot is held.
    oldest_held: Option<u64>,
    /// Nodes removed while a snapshot was held: `ptr -> (removal version,
    /// node)`.
    retired: HashMap<Ptr, (u64, Node)>,
    /// The retired pointers in removal order, for FIFO release.
    queue: VecDeque<(u64, Ptr)>,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Iterates over resident nodes (ptr, node) of the live version.
    pub fn iter(&self) -> impl Iterator<Item = (Ptr, &Node)> {
        self.nodes.iter().map(|(p, n)| (*p, n))
    }

    /// Freezes the live contents as a snapshot and returns its version.
    ///
    /// O(1): nothing is copied. The snapshot stays readable through
    /// [`Self::get_at`] until a [`Self::release`] names a newer oldest
    /// version.
    pub(crate) fn snapshot(&mut self) -> u64 {
        let versions = &mut self.versions;
        let version = versions.current;
        versions.current += 1;
        versions.current_start = self.next;
        versions.oldest_held.get_or_insert(version);
        version
    }

    /// Declares `oldest` the oldest snapshot version still held (`None`:
    /// none is) and frees every retired node no held snapshot can read,
    /// i.e. every node removed at or before `oldest`.
    pub(crate) fn release(&mut self, oldest: Option<u64>) {
        let versions = &mut self.versions;
        versions.oldest_held = oldest;
        while let Some(&(removed_at, ptr)) = versions.queue.front() {
            if oldest.is_some_and(|oldest| removed_at > oldest) {
                break;
            }
            versions.queue.pop_front();
            versions.retired.remove(&ptr);
        }
    }

    /// Fetches the node at `ptr` as the snapshot of `version` saw it.
    ///
    /// Only meaningful for a held snapshot and for pointers reachable from
    /// its root. A node sealed in place (same hash, no data) is returned in
    /// its sealed form, which proofs cannot tell apart: they commit to the
    /// value hash only.
    pub(crate) fn get_at(&self, ptr: Ptr, version: u64) -> Option<&Node> {
        self.nodes.get(&ptr).or_else(|| {
            self.versions
                .retired
                .get(&ptr)
                .filter(|(removed_at, _)| *removed_at > version)
                .map(|(_, node)| node)
        })
    }

    /// Number of retired nodes kept alive for held snapshots.
    #[cfg(test)]
    pub(crate) fn retired_len(&self) -> usize {
        self.versions.retired.len()
    }
}

impl NodeStore for MemStore {
    fn get(&self, ptr: Ptr) -> Option<&Node> {
        self.nodes.get(&ptr)
    }

    fn put(&mut self, node: Node) -> Ptr {
        let ptr = self.next;
        self.next += 1;
        self.stats.node_count += 1;
        self.stats.byte_count += node.storage_size();
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.byte_count);
        self.nodes.insert(ptr, node);
        ptr
    }

    fn remove(&mut self, ptr: Ptr, reclaim: bool) {
        if let Some(node) = self.nodes.remove(&ptr) {
            self.stats.node_count -= 1;
            self.stats.byte_count -= node.storage_size();
            if reclaim {
                self.stats.sealed_reclaimed += 1;
            }
            let versions = &mut self.versions;
            if versions.oldest_held.is_some() && ptr < versions.current_start {
                versions.retired.insert(ptr, (versions.current, node));
                versions.queue.push_back((versions.current, ptr));
            }
        }
    }

    fn replace(&mut self, ptr: Ptr, node: Node) {
        let new_size = node.storage_size();
        if let Some(slot) = self.nodes.get_mut(&ptr) {
            self.stats.byte_count -= slot.storage_size();
            self.stats.byte_count += new_size;
            self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.byte_count);
            *slot = node;
        }
    }

    fn stats(&self) -> StoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Value;
    use crate::Nibbles;

    fn leaf(key: &[u8], value: &[u8]) -> Node {
        Node::Leaf { path: Nibbles::from_key(key), value: Value::new(value.to_vec()) }
    }

    #[test]
    fn put_get_remove() {
        let mut store = MemStore::new();
        let node = leaf(b"a", b"1");
        let ptr = store.put(node.clone());
        assert_eq!(store.get(ptr), Some(&node));
        assert_eq!(store.stats().node_count, 1);
        store.remove(ptr, false);
        assert_eq!(store.get(ptr), None);
        assert_eq!(store.stats().node_count, 0);
        assert_eq!(store.stats().byte_count, 0);
    }

    #[test]
    fn identical_nodes_get_distinct_ptrs() {
        let mut store = MemStore::new();
        let p1 = store.put(leaf(b"a", b"1"));
        let p2 = store.put(leaf(b"a", b"1"));
        assert_ne!(p1, p2);
        assert_eq!(store.stats().node_count, 2);
        store.remove(p1, true);
        assert!(store.get(p1).is_none());
        assert!(store.get(p2).is_some(), "no aliasing between identical nodes");
    }

    #[test]
    fn reclaim_counts_sealed() {
        let mut store = MemStore::new();
        let ptr = store.put(leaf(b"a", b"1"));
        store.remove(ptr, true);
        assert_eq!(store.stats().sealed_reclaimed, 1);
    }

    #[test]
    fn remove_of_missing_ptr_is_noop() {
        let mut store = MemStore::new();
        store.remove(42, true);
        assert_eq!(store.stats(), StoreStats::default());
    }

    #[test]
    fn snapshot_reads_see_nodes_removed_after_it() {
        let mut store = MemStore::new();
        let old = store.put(leaf(b"a", b"1"));
        let v0 = store.snapshot();
        let new = store.put(leaf(b"a", b"2"));
        store.remove(old, false);
        assert_eq!(store.get(old), None, "live reads ignore retired nodes");
        assert_eq!(store.get_at(old, v0), Some(&leaf(b"a", b"1")));
        assert_eq!(store.get_at(new, v0), Some(&leaf(b"a", b"2")), "unreachable from v0's root");
        // A snapshot taken after the removal no longer sees the node: it is
        // sealed as far as that version is concerned.
        let v1 = store.snapshot();
        assert_eq!(store.get_at(old, v1), None);
        assert_eq!(store.stats().node_count, 1, "stats count the live version only");
        assert_eq!(store.retired_len(), 1);
    }

    #[test]
    fn release_frees_retired_nodes_in_fifo_order() {
        let mut store = MemStore::new();
        let a = store.put(leaf(b"a", b"1"));
        let b = store.put(leaf(b"b", b"1"));
        let v0 = store.snapshot();
        store.remove(a, false);
        let v1 = store.snapshot();
        store.remove(b, true);
        assert_eq!(store.retired_len(), 2);
        // v0 leaves the window: `a` (removed before v1) is unreachable now,
        // `b` (removed after v1) is still read by v1.
        store.release(Some(v1));
        assert_eq!(store.get_at(a, v0), None);
        assert_eq!(store.get_at(b, v1), Some(&leaf(b"b", b"1")));
        assert_eq!(store.retired_len(), 1);
        store.release(None);
        assert_eq!(store.retired_len(), 0);
        assert_eq!(store.stats().sealed_reclaimed, 1);
    }

    #[test]
    fn nodes_born_after_the_last_snapshot_are_dropped() {
        let mut store = MemStore::new();
        store.snapshot();
        let scratch = store.put(leaf(b"a", b"1"));
        store.remove(scratch, false);
        assert_eq!(store.retired_len(), 0, "no snapshot can reach it");
        // Without any held snapshot nothing is retained either.
        let mut bare = MemStore::new();
        let ptr = bare.put(leaf(b"a", b"1"));
        bare.remove(ptr, false);
        assert_eq!(bare.retired_len(), 0);
    }

    #[test]
    fn peak_bytes_tracks_high_water() {
        let mut store = MemStore::new();
        let p1 = store.put(leaf(b"a", &[0; 100]));
        let peak = store.stats().peak_bytes;
        store.remove(p1, false);
        assert_eq!(store.stats().byte_count, 0);
        assert_eq!(store.stats().peak_bytes, peak);
    }
}
