//! Property-based tests: the sealable trie against a `BTreeMap` model, and
//! proof-at-height snapshots against full clones.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use proptest::prelude::*;
use sealable_trie::{Trie, TrieError, VerifyOutcome};

/// Operations the model understands.
#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<u8>, Vec<u8>),
    Remove(Vec<u8>),
    Seal(Vec<u8>),
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Small alphabet and length force collisions, shared prefixes and
    // leaf/extension splits.
    proptest::collection::vec(0u8..4, 1..6)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (key_strategy(), proptest::collection::vec(any::<u8>(), 1..20))
            .prop_map(|(k, v)| Op::Insert(k, v)),
        1 => key_strategy().prop_map(Op::Remove),
        1 => key_strategy().prop_map(Op::Seal),
    ]
}

/// Operations for the snapshot property: the model ops plus whole dense
/// 16-blocks, so the seal reclaim cascade (a branch whose 16 max-depth
/// leaves are all sealed) happens often.
#[derive(Clone, Debug)]
enum SnapOp {
    Single(Op),
    FillBlock(u8),
    SealBlock(u8),
}

/// The 16 fixed-width keys of dense block `block`: they differ only in the
/// last nibble, so their leaves sit at maximal depth under one branch.
fn block_keys(block: u8) -> impl Iterator<Item = Vec<u8>> {
    (0..16u8).map(move |i| vec![0, block * 16 + i])
}

fn snap_op_strategy() -> impl Strategy<Value = SnapOp> {
    prop_oneof![
        6 => op_strategy().prop_map(SnapOp::Single),
        1 => (0u8..2).prop_map(SnapOp::FillBlock),
        1 => (0u8..2).prop_map(SnapOp::SealBlock),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `prove_at` over the versioned store returns exactly what `prove`
    /// on a full clone taken at that commit returns — `Err(Sealed)`
    /// included — for every retained height and every key ever touched,
    /// and its proofs verify against that height's root. Seals after a
    /// commit (skeleton replace and reclaim cascade alike) never change an
    /// older height's proof.
    #[test]
    fn snapshot_proofs_equal_clone_proofs(
        ops in proptest::collection::vec(snap_op_strategy(), 1..60),
        every in 1usize..5,
        depth in 1usize..5,
    ) {
        let mut trie = Trie::with_proof_history(depth);
        let mut clones: VecDeque<(u64, Trie)> = VecDeque::new();
        let mut touched: BTreeSet<Vec<u8>> = BTreeSet::new();
        let mut height = 0u64;
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                SnapOp::Single(Op::Insert(key, value)) => {
                    let _ = trie.insert(&key, &value);
                    touched.insert(key);
                }
                SnapOp::Single(Op::Remove(key)) => {
                    let _ = trie.remove(&key);
                    touched.insert(key);
                }
                SnapOp::Single(Op::Seal(key)) => {
                    let _ = trie.seal(&key);
                    touched.insert(key);
                }
                SnapOp::FillBlock(block) => {
                    for key in block_keys(block) {
                        let _ = trie.insert(&key, b"commitment");
                        touched.insert(key);
                    }
                }
                SnapOp::SealBlock(block) => {
                    for key in block_keys(block) {
                        let _ = trie.seal(&key);
                    }
                }
            }
            if !(i + 1).is_multiple_of(every) {
                continue;
            }
            height += 1;
            trie.commit(height);
            clones.push_back((height, trie.clone()));
            if clones.len() > depth {
                let (evicted, _) = clones.pop_front().expect("non-empty");
                prop_assert_eq!(
                    trie.prove_at(evicted, b"k").err(),
                    Some(TrieError::HeightNotRetained(evicted))
                );
            }
            for (at, clone) in &clones {
                let root = clone.root_hash();
                for key in &touched {
                    let proof = trie.prove_at(*at, key);
                    prop_assert_eq!(&proof, &clone.prove(key));
                    if let Ok(proof) = proof {
                        prop_assert_ne!(proof.verify(&root, key), VerifyOutcome::Invalid);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The trie agrees with a BTreeMap model under arbitrary interleavings
    /// of insert/remove/seal, with sealed keys tracked separately.
    #[test]
    fn matches_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut trie = Trie::new();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut sealed: Vec<Vec<u8>> = Vec::new();

        for op in ops {
            match op {
                Op::Insert(key, value) => {
                    match trie.insert(&key, &value) {
                        Ok(()) => {
                            prop_assert!(!sealed.contains(&key));
                            model.insert(key, value);
                        }
                        Err(TrieError::Sealed) => {
                            // Either the key itself or a reclaimed region —
                            // the key must not be live in the model.
                            prop_assert!(!model.contains_key(&key));
                        }
                        Err(other) => prop_assert!(false, "unexpected {other:?}"),
                    }
                }
                Op::Remove(key) => {
                    match trie.remove(&key) {
                        Ok(removed) => {
                            prop_assert_eq!(removed, model.remove(&key));
                        }
                        Err(TrieError::Sealed) => {
                            prop_assert!(!model.contains_key(&key));
                        }
                        Err(other) => prop_assert!(false, "unexpected {other:?}"),
                    }
                }
                Op::Seal(key) => {
                    match trie.seal(&key) {
                        Ok(()) => {
                            prop_assert!(model.remove(&key).is_some());
                            sealed.push(key);
                        }
                        Err(TrieError::NotFound) => {
                            prop_assert!(!model.contains_key(&key));
                        }
                        Err(TrieError::Sealed) => {
                            prop_assert!(!model.contains_key(&key));
                        }
                        Err(other) => prop_assert!(false, "unexpected {other:?}"),
                    }
                }
            }
        }

        // Every live model entry must be readable with the right value.
        for (key, value) in &model {
            let got = trie.get(key).unwrap();
            prop_assert_eq!(got.as_deref(), Some(value.as_slice()));
        }
        prop_assert_eq!(trie.len(), model.len());
        // Every sealed key must stay firmly sealed.
        for key in &sealed {
            prop_assert_eq!(trie.get(key), Err(TrieError::Sealed));
        }
    }

    /// Root hash is independent of insertion order (no seals/removes).
    #[test]
    fn root_is_order_independent(
        mut entries in proptest::collection::btree_map(key_strategy(),
            proptest::collection::vec(any::<u8>(), 1..8), 1..30),
        seed in any::<u64>(),
    ) {
        let items: Vec<_> = entries.clone().into_iter().collect();
        let mut forward = Trie::new();
        for (k, v) in &items {
            forward.insert(k, v).unwrap();
        }
        // Deterministic shuffle driven by the seed.
        let mut shuffled = items.clone();
        let mut state = seed;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let mut other = Trie::new();
        for (k, v) in &shuffled {
            other.insert(k, v).unwrap();
        }
        prop_assert_eq!(forward.root_hash(), other.root_hash());
        // And removing an entry returns to the root of the set without it.
        if let Some((k, _)) = items.first() {
            entries.remove(k);
            let mut without = Trie::new();
            for (k2, v2) in &entries {
                without.insert(k2, v2).unwrap();
            }
            forward.remove(k).unwrap();
            prop_assert_eq!(forward.root_hash(), without.root_hash());
        }
    }

    /// Proofs verify for both present and absent keys, and value forgery is
    /// rejected.
    #[test]
    fn proofs_verify(
        entries in proptest::collection::btree_map(key_strategy(),
            proptest::collection::vec(any::<u8>(), 1..8), 1..25),
        probe in key_strategy(),
    ) {
        let mut trie = Trie::new();
        for (k, v) in &entries {
            trie.insert(k, v).unwrap();
        }
        let root = trie.root_hash();
        for (k, v) in &entries {
            let proof = trie.prove(k).unwrap();
            prop_assert!(proof.verify_member(&root, k, v));
            prop_assert!(!proof.verify_member(&root, k, b"forged-value"));
        }
        let proof = trie.prove(&probe).unwrap();
        match trie.get(&probe).unwrap() {
            Some(v) => prop_assert!(proof.verify_member(&root, &probe, &v)),
            None => prop_assert!(proof.verify_non_member(&root, &probe)),
        }
    }

    /// Sealing any subset never changes the root and never affects live
    /// siblings.
    #[test]
    fn sealing_preserves_root_and_siblings(
        entries in proptest::collection::btree_map(key_strategy(),
            proptest::collection::vec(any::<u8>(), 1..8), 2..25),
        picks in proptest::collection::vec(any::<prop::sample::Index>(), 1..10),
    ) {
        let mut trie = Trie::new();
        for (k, v) in &entries {
            trie.insert(k, v).unwrap();
        }
        let root = trie.root_hash();
        let keys: Vec<_> = entries.keys().cloned().collect();
        let mut sealed = Vec::new();
        for pick in picks {
            let key = pick.get(&keys).clone();
            if !sealed.contains(&key) {
                trie.seal(&key).unwrap();
                sealed.push(key);
            }
        }
        prop_assert_eq!(trie.root_hash(), root);
        for (k, v) in &entries {
            if sealed.contains(k) {
                prop_assert_eq!(trie.get(k), Err(TrieError::Sealed));
            } else {
                let got = trie.get(k).unwrap();
                prop_assert_eq!(got.as_deref(), Some(v.as_slice()));
                // Live keys can still be proven against the unchanged root.
                let proof = trie.prove(k).unwrap();
                prop_assert!(proof.verify_member(&root, k, v));
            }
        }
    }

    /// A proof produced for one trie never verifies as Member against the
    /// root of a trie with different contents.
    #[test]
    fn proofs_do_not_transfer(
        entries in proptest::collection::btree_map(key_strategy(),
            proptest::collection::vec(any::<u8>(), 1..8), 1..15),
    ) {
        let mut a = Trie::new();
        for (k, v) in &entries {
            a.insert(k, v).unwrap();
        }
        let mut b = a.clone();
        let (first_key, _) = entries.iter().next().unwrap();
        b.insert(b"extra-key-not-in-a", b"x").unwrap();
        let proof_a = a.prove(first_key).unwrap();
        // Against b's root, a's proof must be Invalid (roots differ).
        prop_assert_eq!(proof_a.verify(&b.root_hash(), first_key), VerifyOutcome::Invalid);
    }
}
