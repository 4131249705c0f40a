//! Hierarchical share trees (§5's hierarchy, flattened).
//!
//! ALPS schedules a flat set of integer shares. A *static* hierarchy
//! ("users get equal shares; within a user, apps get weighted shares;
//! within an app, processes…") flattens exactly: each leaf's entitlement
//! is the product of its ancestors' share fractions. [`ShareTree`] holds
//! such a tree, and [`ShareTree::flatten`] turns it into the integer
//! shares an [`AlpsScheduler`](alps_core::AlpsScheduler) consumes.
//!
//! The tree is flattened once and handed over. When a leaf departs or a
//! weight changes, the caller edits the tree, flattens it again and
//! passes the new shares to the scheduler's `set_share`.
//!
//! What flattening does *not* capture is hierarchical redistribution: when
//! a leaf blocks, a true hierarchical scheduler gives its time to siblings
//! *within the subtree* first, while flat ALPS redistributes across the
//! whole tree (§2.4). Removing departed leaves keeps the static part of
//! that behavior current; the in-cycle part is approximated. This is a
//! documented extension, not part of the paper.

use serde::{Deserialize, Serialize};

/// Node identifier within a [`ShareTree`].
///
/// Ids are never reused: a removed leaf's id keeps referring to its
/// tombstone, and [`ShareTree::remove_leaf`] reports `false` for it
/// instead of addressing another node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

/// The largest share total [`ShareTree::flatten`] returns: 2⁵³, the
/// largest integer an `f64` allowance (and cycle length in quanta) holds
/// exactly.
const MAX_TOTAL_SHARES: u128 = 1 << 53;

/// Greatest common divisor (iterative — recursion depth must not scale
/// with anything).
fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Node {
    parent: Option<NodeId>,
    share: u64,
    children: Vec<NodeId>,
    /// Leaf payload: an opaque tag the caller maps to a pid or principal.
    leaf_tag: Option<u64>,
    /// Tombstone: set when a leaf is removed. The slot is never reused.
    removed: bool,
}

/// A tree of weighted groups with tagged leaves.
///
/// ```
/// use workloads::ShareTree;
///
/// // Departments 2:1; engineering has two equal users, research one.
/// let mut tree = ShareTree::new();
/// let eng = tree.add_group(None, 2);
/// let res = tree.add_group(None, 1);
/// tree.add_leaf(Some(eng), 1, 10);
/// tree.add_leaf(Some(eng), 1, 11);
/// tree.add_leaf(Some(res), 1, 20);
/// // Fractions 1/3, 1/3, 1/3 — flattened to equal integer shares.
/// let mut flat = tree.flatten().expect("shares fit");
/// flat.sort();
/// assert_eq!(flat, vec![(10, 1), (11, 1), (20, 1)]);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ShareTree {
    nodes: Vec<Node>,
    /// Root-level nodes (the children of the virtual root).
    roots: Vec<NodeId>,
}

impl ShareTree {
    /// An empty tree.
    pub fn new() -> Self {
        ShareTree::default()
    }

    /// Add a group (interior node). `parent = None` creates a root-level
    /// group; several roots are allowed (they share like siblings).
    pub fn add_group(&mut self, parent: Option<NodeId>, share: u64) -> NodeId {
        self.add_node(parent, share, None)
    }

    /// Add a leaf (a schedulable entity tagged with caller data, e.g. a
    /// pid).
    pub fn add_leaf(&mut self, parent: Option<NodeId>, share: u64, tag: u64) -> NodeId {
        self.add_node(parent, share, Some(tag))
    }

    fn add_node(&mut self, parent: Option<NodeId>, share: u64, leaf_tag: Option<u64>) -> NodeId {
        assert!(share > 0, "share must be positive");
        if let Some(p) = parent {
            let pn = &self.nodes[p.0 as usize];
            assert!(
                pn.leaf_tag.is_none() && !pn.removed,
                "cannot attach children to a leaf"
            );
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            parent,
            share,
            children: Vec::new(),
            leaf_tag,
            removed: false,
        });
        self.siblings_mut(parent).push(id);
        id
    }

    /// Remove a leaf (e.g. its process exited); the next
    /// [`ShareTree::flatten`] redistributes its weight among its siblings.
    /// Returns `false` (and changes nothing) if the id is a group, an
    /// already-removed leaf, or not from this tree.
    pub fn remove_leaf(&mut self, id: NodeId) -> bool {
        let Some(n) = self.nodes.get_mut(id.0 as usize) else {
            return false;
        };
        if n.leaf_tag.is_none() {
            return false; // a group, or already removed
        }
        n.leaf_tag = None;
        n.removed = true;
        let parent = n.parent;
        self.siblings_mut(parent).retain(|&c| c != id);
        true
    }

    /// Flatten the hierarchy into integer per-leaf shares whose ratios
    /// equal the product of share fractions along each leaf's path.
    ///
    /// Empty groups (no live leaves beneath) are excluded before fractions
    /// are computed, so their weight redistributes among their siblings.
    ///
    /// Returns `(tag, share)` pairs, scaled to the smallest integers that
    /// preserve the exact ratios, or `None` when those integers would sum
    /// past 2⁵³ (the most an `f64` allowance holds exactly). Nothing is
    /// quantized: a tree whose exact shares do not fit is refused, not
    /// approximated.
    pub fn flatten(&self) -> Option<Vec<(u64, u64)>> {
        // Each live leaf's entitlement as a fraction num/den in lowest
        // terms, built root-down so every intermediate is an ancestor's
        // own entitlement.
        let mut weights: Vec<(u64, u128, u128)> = Vec::new(); // (tag, num, den)
        let mut path = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let Some(tag) = node.leaf_tag else { continue };
            path.clear();
            let mut cur = Some(NodeId(i as u32));
            while let Some(id) = cur {
                path.push(id);
                cur = self.nodes[id.0 as usize].parent;
            }
            let (mut num, mut den) = (1u128, 1u128);
            for &id in path.iter().rev() {
                let n = &self.nodes[id.0 as usize];
                let (share, total) = (u128::from(n.share), self.active_share(n.parent));
                let g = gcd(share, total);
                let (share, total) = (share / g, total / g);
                // Cross-reduce, so the product stays in lowest terms and
                // no factor grows past what the result needs.
                let (g1, g2) = (gcd(num, total), gcd(share, den));
                num = (num / g1).checked_mul(share / g2)?;
                den = (den / g2).checked_mul(total / g1)?;
            }
            weights.push((tag, num, den));
        }
        // The live entitlements sum to 1, so over the common denominator
        // L the shares num·L/den sum to L. They are already coprime: every
        // prime power of L is some leaf's whole denominator, and that
        // leaf's numerator does not contain the prime.
        let mut lcm = 1u128;
        for &(_, _, d) in &weights {
            lcm = (lcm / gcd(lcm, d))
                .checked_mul(d)
                .filter(|&l| l <= MAX_TOTAL_SHARES)?;
        }
        Some(
            weights
                .iter()
                .map(|&(tag, n, d)| (tag, (n * (lcm / d)) as u64))
                .collect(),
        )
    }

    /// `parent`'s children, or the root-level nodes for `None`.
    fn siblings_mut(&mut self, parent: Option<NodeId>) -> &mut Vec<NodeId> {
        match parent {
            Some(p) => &mut self.nodes[p.0 as usize].children,
            None => &mut self.roots,
        }
    }

    /// Share sum of `parent`'s children (the root level for `None`) that
    /// have live leaves beneath.
    fn active_share(&self, parent: Option<NodeId>) -> u128 {
        let siblings = match parent {
            Some(p) => &self.nodes[p.0 as usize].children,
            None => &self.roots,
        };
        siblings
            .iter()
            .filter(|&&c| self.subtree_has_leaves(c))
            .map(|&c| u128::from(self.nodes[c.0 as usize].share))
            .sum()
    }

    fn subtree_has_leaves(&self, id: NodeId) -> bool {
        let n = &self.nodes[id.0 as usize];
        if n.leaf_tag.is_some() {
            return true;
        }
        n.children.iter().any(|&c| self.subtree_has_leaves(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn as_map(t: &ShareTree) -> BTreeMap<u64, u64> {
        t.flatten().expect("shares fit").into_iter().collect()
    }

    #[test]
    fn flat_tree_passes_shares_through() {
        let mut t = ShareTree::new();
        t.add_leaf(None, 1, 10);
        t.add_leaf(None, 2, 20);
        t.add_leaf(None, 3, 30);
        let m = as_map(&t);
        assert_eq!(m[&10], 1);
        assert_eq!(m[&20], 2);
        assert_eq!(m[&30], 3);
    }

    #[test]
    fn two_departments_with_unequal_users() {
        // Departments split 1:1; A has 2 equal users, B has 4.
        // Each A-user gets 1/4 of the machine, each B-user 1/8.
        let mut t = ShareTree::new();
        let a = t.add_group(None, 1);
        let b = t.add_group(None, 1);
        for u in 0..2 {
            t.add_leaf(Some(a), 1, u);
        }
        for u in 0..4 {
            t.add_leaf(Some(b), 1, 10 + u);
        }
        let m = as_map(&t);
        assert_eq!(m[&0], 2, "{m:?}");
        assert_eq!(m[&1], 2);
        for u in 10..14 {
            assert_eq!(m[&u], 1);
        }
    }

    #[test]
    fn weighted_three_level_tree() {
        // root groups 2:1; inside the 2-group, leaves 3:1; inside the
        // 1-group, a single leaf.
        // Fractions: 2/3*3/4 = 1/2; 2/3*1/4 = 1/6; 1/3 = 2/6.
        let mut t = ShareTree::new();
        let g = t.add_group(None, 2);
        let h = t.add_group(None, 1);
        t.add_leaf(Some(g), 3, 1);
        t.add_leaf(Some(g), 1, 2);
        t.add_leaf(Some(h), 5, 3); // share value inside a singleton group is moot
        let m = as_map(&t);
        // Ratios 1/2 : 1/6 : 1/3 = 3 : 1 : 2.
        assert_eq!(m[&1], 3, "{m:?}");
        assert_eq!(m[&2], 1);
        assert_eq!(m[&3], 2);
    }

    #[test]
    fn empty_group_weight_redistributes() {
        let mut t = ShareTree::new();
        let a = t.add_group(None, 1);
        let b = t.add_group(None, 1);
        let leaf_a = t.add_leaf(Some(a), 1, 1);
        t.add_leaf(Some(b), 1, 2);
        t.add_leaf(Some(b), 1, 3);
        // Both groups populated: A-leaf gets 1/2; B leaves 1/4 each.
        let m = as_map(&t);
        assert_eq!((m[&1], m[&2], m[&3]), (2, 1, 1));
        // A's only leaf leaves: B's subtree now owns everything.
        assert!(t.remove_leaf(leaf_a));
        let m = as_map(&t);
        assert_eq!(m.len(), 2);
        assert_eq!((m[&2], m[&3]), (1, 1));
    }

    #[test]
    fn empty_tree_flattens_to_nothing() {
        assert_eq!(ShareTree::new().flatten(), Some(Vec::new()));
    }

    #[test]
    #[should_panic(expected = "cannot attach children to a leaf")]
    fn leaves_cannot_have_children() {
        let mut t = ShareTree::new();
        let l = t.add_leaf(None, 1, 1);
        t.add_group(Some(l), 1);
    }

    #[test]
    fn stale_ids_are_rejected_not_followed() {
        let mut t = ShareTree::new();
        let g = t.add_group(None, 1);
        let a = t.add_leaf(Some(g), 1, 1);
        t.add_leaf(Some(g), 1, 2);
        assert!(t.remove_leaf(a));
        // A second removal of the tombstone is rejected.
        assert!(!t.remove_leaf(a));
        // Groups are not removable; out-of-tree ids are rejected.
        assert!(!t.remove_leaf(g));
        assert!(!t.remove_leaf(NodeId(999)));
        // The survivor owns the machine.
        assert_eq!(t.flatten(), Some(vec![(2, 1)]));
    }

    #[test]
    fn deep_chain_counts_only_while_its_leaf_lives() {
        // A 6-deep chain of singleton groups over one leaf, next to a flat
        // leaf: the chain weighs in only while its leaf is present.
        let mut t = ShareTree::new();
        t.add_leaf(None, 1, 1);
        let mut g = t.add_group(None, 3);
        for _ in 0..5 {
            g = t.add_group(Some(g), 7);
        }
        assert_eq!(t.flatten(), Some(vec![(1, 1)]), "empty chain is inactive");
        let deep = t.add_leaf(Some(g), 2, 9);
        assert_eq!(t.flatten(), Some(vec![(1, 1), (9, 3)]));
        assert!(t.remove_leaf(deep));
        assert_eq!(t.flatten(), Some(vec![(1, 1)]));
    }

    #[test]
    fn flatten_caps_the_share_total_at_2_pow_53() {
        let flat = |shares: &[u64]| {
            let mut t = ShareTree::new();
            for (tag, &s) in shares.iter().enumerate() {
                t.add_leaf(None, s, tag as u64);
            }
            t.flatten()
        };
        let half = 1u64 << 52;
        assert_eq!(
            flat(&[half, half - 1]),
            Some(vec![(0, half), (1, half - 1)])
        );
        assert_eq!(flat(&[half, half]), Some(vec![(0, 1), (1, 1)]));
        assert_eq!(flat(&[half, half + 1]), None);
        assert_eq!(flat(&[u64::MAX, u64::MAX - 1]), None);
    }

    #[test]
    fn flatten_refuses_denominators_past_64_bits() {
        // Coprime five- and six-digit weights: the exact shares' common
        // denominator is ~10²¹. They used to be truncated to 64 bits and
        // returned as wrong ratios (leaf 0 at 12.4 % instead of 16.66 %).
        let mut t = ShareTree::new();
        let groups = [
            (100_003, vec![100_019, 100_043, 1]),
            (100_049, vec![100_057, 7]),
            (100_069, vec![100_103, 13]),
        ];
        let mut tag = 0;
        for (share, leaves) in groups {
            let g = t.add_group(None, share);
            for s in leaves {
                t.add_leaf(Some(g), s, tag);
                tag += 1;
            }
        }
        assert_eq!(t.flatten(), None);
    }

    #[test]
    fn flatten_survives_shares_near_2_pow_32() {
        // Two groups of ~3·10⁹ over two leaves of ~3·10⁹ each: the common
        // denominator overflowed `u128` (a debug-build panic).
        let mut t = ShareTree::new();
        for (g, base) in [
            (3_000_000_000, 3_000_000_000),
            (3_000_000_001, 3_000_000_002),
        ] {
            let g = t.add_group(None, g);
            t.add_leaf(Some(g), base, base);
            t.add_leaf(Some(g), base + 1, base + 1);
        }
        assert_eq!(t.flatten(), None);
        // The same shape at small weights flattens exactly.
        let mut t = ShareTree::new();
        for (g, base) in [(3, 3), (4, 5)] {
            let g = t.add_group(None, g);
            t.add_leaf(Some(g), base, base);
            t.add_leaf(Some(g), base + 1, base + 1);
        }
        // 3/7·3/7, 3/7·4/7, 4/7·5/11, 4/7·6/11 over 539.
        assert_eq!(
            t.flatten(),
            Some(vec![(3, 99), (4, 132), (5, 140), (6, 168)])
        );
    }
}
