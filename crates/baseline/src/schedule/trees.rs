//! Tree shapes shared by the baseline collective bodies and the remaining
//! hand-priced schedule generators.
//!
//! Every shape maps `(rank, ranks)` to the [`Tree`] position of `rank` in a
//! spanning tree rooted at rank 0.

/// Parent and children of a rank in a spanning tree rooted at rank 0.
pub type Tree = (Option<usize>, Vec<usize>);

/// Parent and children of `rank` in a binomial tree rooted at 0.
pub fn binomial(rank: usize, ranks: usize) -> Tree {
    if ranks <= 1 {
        return (None, Vec::new());
    }
    let parent = if rank == 0 {
        None
    } else {
        let highest = usize::BITS - 1 - rank.leading_zeros();
        Some(rank & !(1 << highest))
    };
    let mut children = Vec::new();
    let mut bit = 1usize;
    while bit < ranks {
        if bit > rank && rank + bit < ranks {
            children.push(rank + bit);
        }
        bit <<= 1;
    }
    (parent, children)
}

/// Number of ranks in the binomial subtree rooted at `rank`.
pub(crate) fn subtree_size(rank: usize, ranks: usize) -> usize {
    let (_, children) = binomial(rank, ranks);
    1 + children.into_iter().map(|c| subtree_size(c, ranks)).sum::<usize>()
}

/// Parent and children of `rank` in a k-nomial tree of the given `radix`
/// rooted at 0 (radix 2 degenerates to the binomial tree).
pub fn knomial(rank: usize, ranks: usize, radix: usize) -> Tree {
    assert!(radix >= 2);
    if ranks <= 1 {
        return (None, Vec::new());
    }
    // Digits of `rank` in base `radix`: the parent clears the most
    // significant non-zero digit; children set a more significant digit.
    let mut parent = None;
    if rank != 0 {
        let mut place = 1usize;
        let mut msd_place = 1usize;
        let mut r = rank;
        while r > 0 {
            if !r.is_multiple_of(radix) {
                msd_place = place;
            }
            r /= radix;
            place *= radix;
        }
        let digit = (rank / msd_place) % radix;
        parent = Some(rank - digit * msd_place);
    }
    let mut children = Vec::new();
    // The most significant non-zero digit place of `rank` (1 for rank 0).
    let mut limit = 1usize;
    if rank != 0 {
        let mut place = 1usize;
        let mut r = rank;
        while r > 0 {
            if !r.is_multiple_of(radix) {
                limit = place * radix;
            }
            r /= radix;
            place *= radix;
        }
    }
    let mut place = limit;
    while place < ranks {
        for d in 1..radix {
            let child = rank + d * place;
            if child < ranks {
                children.push(child);
            }
        }
        place *= radix;
    }
    children.sort_unstable();
    (parent, children)
}

/// Parent and children of `rank` in a complete k-ary tree (every internal
/// node has up to `arity` children) rooted at 0, laid out level by level.
pub fn knary(rank: usize, ranks: usize, arity: usize) -> Tree {
    assert!(arity >= 1);
    let parent = if rank == 0 { None } else { Some((rank - 1) / arity) };
    let first_child = rank * arity + 1;
    let children: Vec<usize> = (first_child..(first_child + arity).min(ranks)).collect();
    (parent, children)
}

/// Parent and children of `rank` in a flat tree: rank 0 is the root, every
/// other rank is a direct child.
pub fn flat(rank: usize, ranks: usize) -> Tree {
    if rank == 0 {
        (None, (1..ranks).collect())
    } else {
        (Some(0), Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn check_tree(ranks: usize, f: impl Fn(usize, usize) -> Tree) {
        // Every non-root rank has exactly one parent, parent/children agree,
        // and every rank is reachable from the root.
        for r in 0..ranks {
            let (_, children) = f(r, ranks);
            for c in children {
                assert_eq!(f(c, ranks).0, Some(r), "ranks={ranks} child {c} of {r}");
            }
        }
        let mut seen = HashSet::new();
        let mut stack = vec![0usize];
        while let Some(r) = stack.pop() {
            assert!(seen.insert(r));
            stack.extend(f(r, ranks).1);
        }
        assert_eq!(seen.len(), ranks, "not all ranks reachable (ranks={ranks})");
    }

    #[test]
    fn binomial_tree_is_consistent() {
        for p in [1usize, 2, 3, 7, 8, 13, 16, 32] {
            check_tree(p, binomial);
        }
    }

    #[test]
    fn knomial_trees_are_consistent() {
        for p in [1usize, 2, 5, 8, 9, 16, 27, 30, 64] {
            for radix in [2usize, 3, 4, 8] {
                check_tree(p, |r, n| knomial(r, n, radix));
            }
        }
    }

    #[test]
    fn knomial_radix_two_matches_binomial() {
        for p in [2usize, 8, 16, 21] {
            for r in 0..p {
                assert_eq!(knomial(r, p, 2), binomial(r, p), "p={p} rank={r}");
            }
        }
    }

    #[test]
    fn knary_trees_are_consistent() {
        for p in [1usize, 2, 4, 10, 27, 40] {
            for arity in [1usize, 2, 3, 4] {
                check_tree(p, |r, n| knary(r, n, arity));
            }
        }
    }

    #[test]
    fn flat_tree_is_consistent() {
        for p in [1usize, 2, 8, 33] {
            check_tree(p, flat);
        }
        assert_eq!(flat(0, 4).1, vec![1, 2, 3]);
        assert_eq!(flat(3, 4).0, Some(0));
    }

    #[test]
    fn higher_radix_gives_shallower_trees() {
        let depth = |radix: usize| {
            let p = 64;
            (0..p)
                .map(|start| {
                    let mut d = 0;
                    let mut r = start;
                    while let (Some(parent), _) = knomial(r, p, radix) {
                        r = parent;
                        d += 1;
                    }
                    d
                })
                .max()
                .unwrap()
        };
        assert!(depth(8) < depth(2));
    }
}
