//! Trie error type.

use core::fmt;

use sim_crypto::Hash;

/// Errors returned by trie operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrieError {
    /// The operation needed to read or modify a sealed node.
    ///
    /// Sealed nodes have been reclaimed from storage; their hash is still
    /// part of the commitment but their contents are permanently
    /// inaccessible. This is the error the guest contract relies on to
    /// reject double delivery.
    Sealed,
    /// A node referenced by `hash` is missing from the store in a context
    /// where it cannot be a sealed node (e.g. the root of a non-empty trie
    /// being read right after construction from a foreign store).
    MissingNode(Hash),
    /// The key addressed by a seal operation is not a live entry.
    NotFound,
    /// The key is empty; empty keys are not representable in the trie.
    EmptyKey,
    /// The value is empty; an empty value is indistinguishable from absence
    /// in a non-membership proof, so it is rejected at insertion.
    EmptyValue,
    /// No snapshot of this height is retained (never committed, or slid
    /// out of the proof-history window).
    HeightNotRetained(u64),
}

impl fmt::Display for TrieError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Sealed => f.write_str("entry is sealed and can no longer be accessed"),
            Self::MissingNode(hash) => write!(f, "node {} missing from store", hash.short()),
            Self::NotFound => f.write_str("key is not a live entry"),
            Self::EmptyKey => f.write_str("empty keys are not supported"),
            Self::EmptyValue => f.write_str("empty values are not supported"),
            Self::HeightNotRetained(height) => write!(f, "no snapshot retained at height {height}"),
        }
    }
}

impl std::error::Error for TrieError {}
