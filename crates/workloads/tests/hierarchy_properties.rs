//! Property tests of hierarchy flattening: integer shares must preserve
//! the exact product-of-fractions ratios for arbitrary trees.

use proptest::prelude::*;
use workloads::{NodeId, ShareTree};

/// Build a random two-level tree: `groups` root groups with the given
/// shares, each holding the listed leaf shares.
fn build(groups: &[(u64, Vec<u64>)]) -> (ShareTree, Vec<(u64, f64)>) {
    let mut t = ShareTree::new();
    let mut expected = Vec::new();
    let group_total: u64 = groups
        .iter()
        .filter(|(_, leaves)| !leaves.is_empty())
        .map(|&(s, _)| s)
        .sum();
    let mut tag = 0u64;
    for (gshare, leaves) in groups {
        let g = t.add_group(None, *gshare);
        let leaf_total: u64 = leaves.iter().sum();
        for &ls in leaves {
            t.add_leaf(Some(g), ls, tag);
            if group_total > 0 && leaf_total > 0 {
                expected.push((
                    tag,
                    *gshare as f64 / group_total as f64 * ls as f64 / leaf_total as f64,
                ));
            }
            tag += 1;
        }
    }
    (t, expected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn flatten_preserves_fraction_ratios(
        groups in proptest::collection::vec(
            (1u64..20, proptest::collection::vec(1u64..20, 0..5)),
            1..5,
        ),
    ) {
        let (t, expected) = build(&groups);
        let flat = t.flatten().expect("small trees fit");
        prop_assert_eq!(flat.len(), expected.len());
        let share_total: u64 = flat.iter().map(|&(_, s)| s).sum();
        for (tag, frac) in expected {
            let (_, s) = flat.iter().find(|&&(tg, _)| tg == tag).expect("leaf present");
            let got = *s as f64 / share_total as f64;
            prop_assert!(
                (got - frac).abs() < 1e-9,
                "tag {}: flattened {:.6} vs expected {:.6}",
                tag, got, frac
            );
        }
    }

    #[test]
    fn flatten_is_reduced(
        groups in proptest::collection::vec(
            (1u64..10, proptest::collection::vec(1u64..10, 1..4)),
            1..4,
        ),
    ) {
        let (t, _) = build(&groups);
        let flat = t.flatten().expect("small trees fit");
        let g = flat.iter().fold(0u64, |acc, &(_, s)| {
            fn gcd(a: u64, b: u64) -> u64 { if b == 0 { a } else { gcd(b, a % b) } }
            gcd(acc, s)
        });
        prop_assert!(g <= 1 || flat.len() == 1 || g == flat[0].1 && flat.len() == 1 || g == 1,
            "shares not reduced: gcd {} over {:?}", g, flat);
    }

    #[test]
    fn leaf_removal_never_panics_and_redistributes(
        groups in proptest::collection::vec(
            (1u64..10, proptest::collection::vec(1u64..10, 1..4)),
            2..4,
        ),
        removals in proptest::collection::vec(any::<u32>(), 0..6),
    ) {
        let (mut t, _) = build(&groups);
        // Collect leaf node ids by rebuilding: leaves were added in order.
        let mut leaf_ids: Vec<NodeId> = Vec::new();
        {
            // Rebuild an identical tree to learn ids (ShareTree has no
            // public iteration; ids are allocation-ordered).
            let mut t2 = ShareTree::new();
            for (gshare, leaves) in &groups {
                let g = t2.add_group(None, *gshare);
                for &ls in leaves {
                    leaf_ids.push(t2.add_leaf(Some(g), ls, 0));
                }
            }
        }
        let mut live = leaf_ids.clone();
        for r in removals {
            if live.len() <= 1 {
                break;
            }
            let idx = (r as usize) % live.len();
            let id = live.remove(idx);
            t.remove_leaf(id);
            let flat = t.flatten().expect("small trees fit");
            prop_assert_eq!(flat.len(), live.len());
            if !flat.is_empty() {
                let total: u64 = flat.iter().map(|&(_, s)| s).sum();
                prop_assert!(total > 0);
            }
        }
    }

    /// Nested groups under churn: after an arbitrary interleaving of
    /// group and leaf adds and leaf removals, every live leaf's flattened
    /// share ratio equals its entitlement walked from scratch over a
    /// model of the tree (product of `share / active sibling total`).
    #[test]
    fn flatten_matches_a_path_walk_after_nested_churn(
        ops in proptest::collection::vec((any::<u8>(), 1u64..16, any::<u16>()), 1..50),
    ) {
        let mut t = ShareTree::new();
        // Model: (parent index, share, live leaf tag).
        let mut model: Vec<(Option<usize>, u64, Option<u64>)> = Vec::new();
        let mut groups: Vec<(NodeId, usize)> = Vec::new();
        let mut live: Vec<(NodeId, usize)> = Vec::new();
        fn has_leaves(m: &[(Option<usize>, u64, Option<u64>)], i: usize) -> bool {
            m[i].2.is_some() || (0..m.len()).any(|c| m[c].0 == Some(i) && has_leaves(m, c))
        }
        for (kind, share, pick) in ops {
            let pick = pick as usize;
            let parent = (!groups.is_empty() && !pick.is_multiple_of(3))
                .then(|| groups[pick % groups.len()]);
            match kind % 3 {
                0 => {
                    groups.push((t.add_group(parent.map(|p| p.0), share), model.len()));
                    model.push((parent.map(|p| p.1), share, None));
                }
                1 => {
                    let tag = model.len() as u64;
                    live.push((t.add_leaf(parent.map(|p| p.0), share, tag), model.len()));
                    model.push((parent.map(|p| p.1), share, Some(tag)));
                }
                _ => {
                    if !live.is_empty() {
                        let (id, i) = live.remove(pick % live.len());
                        prop_assert!(t.remove_leaf(id));
                        prop_assert!(!t.remove_leaf(id), "double removal succeeded");
                        model[i].2 = None;
                    }
                }
            }
            let walk = |mut i: usize| {
                let mut frac = 1.0;
                loop {
                    let total: u64 = (0..model.len())
                        .filter(|&c| model[c].0 == model[i].0 && has_leaves(&model, c))
                        .map(|c| model[c].1)
                        .sum();
                    frac *= model[i].1 as f64 / total as f64;
                    match model[i].0 {
                        Some(p) => i = p,
                        None => return frac,
                    }
                }
            };
            let flat = t.flatten().expect("small trees fit");
            prop_assert_eq!(flat.len(), live.len());
            let share_total: u64 = flat.iter().map(|&(_, s)| s).sum();
            for &(_, i) in &live {
                let tag = i as u64;
                let (_, s) = flat
                    .iter()
                    .find(|&&(tg, _)| tg == tag)
                    .expect("live leaf survives flatten");
                let got = *s as f64 / share_total as f64;
                let want = walk(i);
                prop_assert!(
                    (got - want).abs() < 1e-9,
                    "tag {}: flattened {:.9} vs walked {:.9}",
                    tag, got, want
                );
            }
        }
    }
}
