//! Plain tree decompositions / treewidth, via the same block recursion with
//! size-bounded candidate bags.
//!
//! For bounded-arity classes, bounded (generalized) hypertree width and
//! bounded treewidth coincide (Section 5.6), so the Section 5 machinery is
//! phrased in terms of treewidth; this module provides it directly.

use crate::tp::{decompose, Candidate};
use crate::Hypertree;
use cqcount_hypergraph::{Hypergraph, NodeSet};

fn sized_candidates(k: usize) -> impl Fn(&NodeSet, &NodeSet) -> Vec<Candidate> + Sync {
    move |conn, comp| {
        let max_bag = k + 1;
        if conn.len() > max_bag {
            return Vec::new();
        }
        let room = max_bag - conn.len();
        let free: Vec<u32> = comp.to_vec();
        // All non-empty subsets of `comp` of size ≤ room, unioned with conn.
        let mut out = Vec::new();
        let mut stack: Vec<(usize, NodeSet, usize)> = vec![(0, conn.clone(), 0)];
        while let Some((start, bag, used)) = stack.pop() {
            if used > 0 {
                out.push((bag.clone(), Vec::new()));
            }
            if used == room {
                continue;
            }
            for (i, &node) in free.iter().enumerate().skip(start) {
                let mut next = bag.clone();
                next.insert(node);
                stack.push((i + 1, next, used + 1));
            }
        }
        // Larger bags first: they absorb more and succeed sooner.
        out.sort_by_key(|(bag, _)| std::cmp::Reverse(bag.len()));
        out
    }
}

/// Searches for a tree decomposition of `h` (equivalently, of its primal
/// graph) of width at most `k` (bags of at most `k+1` nodes). Every
/// hyperedge of `h` ends up inside some bag (clique containment).
pub fn treewidth_at_most(h: &Hypergraph, k: usize) -> Option<Hypertree> {
    decompose(h, sized_candidates(k))
}

/// The exact treewidth of `h`, with a witness decomposition. Returns `None`
/// only for the empty hypergraph semantics edge case... in fact an empty
/// hypergraph has treewidth 0 with an empty decomposition, so this always
/// returns a value for `max_k ≥ |nodes| - 1`; `None` means the bound was
/// too small.
pub fn treewidth_exact(h: &Hypergraph, max_k: usize) -> Option<(usize, Hypertree)> {
    (0..=max_k).find_map(|k| treewidth_at_most(h, k).map(|ht| (k, ht)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(edges: &[&[u32]]) -> Hypergraph {
        Hypergraph::from_edges(edges.iter().map(|e| e.iter().copied()))
    }

    #[test]
    fn tree_has_treewidth_1() {
        let g = h(&[&[0, 1], &[1, 2], &[1, 3], &[3, 4]]);
        let (w, ht) = treewidth_exact(&g, 4).unwrap();
        assert_eq!(w, 1);
        assert!(ht.covers_all_edges(&g));
        assert!(ht.is_connected());
    }

    #[test]
    fn cycle_has_treewidth_2() {
        let g = h(&[&[0, 1], &[1, 2], &[2, 3], &[3, 4], &[4, 0]]);
        let (w, _) = treewidth_exact(&g, 4).unwrap();
        assert_eq!(w, 2);
    }

    #[test]
    fn clique_has_treewidth_n_minus_1() {
        for n in 2..=5u32 {
            let mut edges = Vec::new();
            for i in 0..n {
                for j in i + 1..n {
                    edges.push(vec![i, j]);
                }
            }
            let g = Hypergraph::from_edges(edges);
            let (w, _) = treewidth_exact(&g, n as usize).unwrap();
            assert_eq!(w, n as usize - 1, "K{n}");
        }
    }

    #[test]
    fn grid_3x3_has_treewidth_3() {
        let mut edges = Vec::new();
        let id = |r: u32, c: u32| r * 3 + c;
        for r in 0..3u32 {
            for c in 0..3u32 {
                if c + 1 < 3 {
                    edges.push(vec![id(r, c), id(r, c + 1)]);
                }
                if r + 1 < 3 {
                    edges.push(vec![id(r, c), id(r + 1, c)]);
                }
            }
        }
        let g = Hypergraph::from_edges(edges);
        let (w, ht) = treewidth_exact(&g, 5).unwrap();
        assert_eq!(w, 3);
        assert!(ht.covers_all_edges(&g));
    }

    #[test]
    fn hyperedges_force_width() {
        // A single 4-ary hyperedge forces a bag of 4 nodes: width 3.
        let g = h(&[&[0, 1, 2, 3]]);
        let (w, _) = treewidth_exact(&g, 5).unwrap();
        assert_eq!(w, 3);
    }

    #[test]
    fn k4_minus_edge() {
        let g = h(&[&[0, 1], &[0, 2], &[1, 2], &[1, 3], &[2, 3]]);
        let (w, _) = treewidth_exact(&g, 4).unwrap();
        assert_eq!(w, 2);
    }

    #[test]
    fn bound_too_small_returns_none() {
        let g = h(&[&[0, 1], &[1, 2], &[2, 0]]);
        assert!(treewidth_at_most(&g, 1).is_none());
        assert!(treewidth_exact(&g, 1).is_none());
    }
}
