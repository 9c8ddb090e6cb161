//! Fractional edge covers and fractional hypertree width (Remark 4.4, \[49\]).
//!
//! The fractional edge cover number `ρ*(S)` of a node set `S` w.r.t. a set
//! of hyperedges is the optimum of the LP
//! `min Σ_e x_e  s.t.  Σ_{e ∋ v} x_e ≥ 1 (v ∈ S), x ≥ 0`.
//! We solve its dual `max Σ_v y_v  s.t.  Σ_{v ∈ e} y_v ≤ 1 (e), y ≥ 0`,
//! which is in standard form with a feasible origin, by an exact
//! rational-arithmetic simplex with Bland's rule (no cycling, no floating
//! point tolerances). Strong duality gives `ρ*` directly.

use crate::tp::{decompose, Candidate};
use crate::Hypertree;
use cqcount_arith::Rational;
use cqcount_hypergraph::{Hypergraph, NodeSet};
use std::collections::HashMap;
use std::sync::Mutex;

/// Maximizes `c·x` subject to `A x ≤ b`, `x ≥ 0` with `b ≥ 0`, by the
/// primal simplex method with Bland's anti-cycling rule over exact
/// rationals. Returns `None` if the LP is unbounded.
pub fn simplex_max(a: &[Vec<Rational>], b: &[Rational], c: &[Rational]) -> Option<Rational> {
    let m = a.len();
    let n = c.len();
    assert!(a.iter().all(|row| row.len() == n));
    assert_eq!(b.len(), m);
    assert!(b.iter().all(|v| !v.is_negative()), "b must be nonnegative");

    // Tableau: rows 0..m are constraints (with slack basis), row m is -z.
    // Columns: 0..n structural, n..n+m slack, last = rhs.
    let cols = n + m + 1;
    let mut t = vec![vec![Rational::ZERO; cols]; m + 1];
    for i in 0..m {
        for j in 0..n {
            t[i][j] = a[i][j].clone();
        }
        t[i][n + i] = Rational::ONE;
        t[i][cols - 1] = b[i].clone();
    }
    for j in 0..n {
        t[m][j] = -&c[j];
    }
    let mut basis: Vec<usize> = (n..n + m).collect();

    loop {
        // Bland: entering = smallest column with negative reduced cost.
        let Some(enter) = (0..n + m).find(|&j| t[m][j].is_negative()) else {
            let z = t[m][cols - 1].clone();
            return Some(z);
        };
        // Ratio test; Bland: smallest basis index on ties.
        let mut leave: Option<(usize, Rational)> = None;
        for i in 0..m {
            if t[i][enter] > Rational::ZERO {
                let ratio = &t[i][cols - 1] / &t[i][enter];
                let better = match &leave {
                    None => true,
                    Some((li, lr)) => ratio < *lr || (ratio == *lr && basis[i] < basis[*li]),
                };
                if better {
                    leave = Some((i, ratio));
                }
            }
        }
        let Some((pivot_row, _)) = leave else {
            return None; // unbounded
        };
        // Pivot.
        let inv = t[pivot_row][enter].recip();
        for cell in &mut t[pivot_row][..cols] {
            *cell = &*cell * &inv;
        }
        for i in 0..=m {
            if i != pivot_row && !t[i][enter].is_zero() {
                let factor = t[i][enter].clone();
                let pivot = t[pivot_row][..cols].to_vec();
                for (cell, p) in t[i][..cols].iter_mut().zip(&pivot) {
                    *cell = &*cell - &(&factor * p);
                }
            }
        }
        basis[pivot_row] = enter;
    }
}

/// The fractional edge cover number `ρ*(target)` w.r.t. `edges`. Returns
/// `None` if some node of `target` lies in no edge (no cover exists).
pub fn fractional_edge_cover_number(target: &NodeSet, edges: &[NodeSet]) -> Option<Rational> {
    if target.is_empty() {
        return Some(Rational::ZERO);
    }
    let nodes: Vec<u32> = target.to_vec();
    if nodes.iter().any(|&v| !edges.iter().any(|e| e.contains(v))) {
        return None;
    }
    // Dual: max Σ y_v s.t. for each edge e: Σ_{v ∈ e ∩ target} y_v ≤ 1.
    let a: Vec<Vec<Rational>> = edges
        .iter()
        .map(|e| {
            nodes
                .iter()
                .map(|&v| {
                    if e.contains(v) {
                        Rational::ONE
                    } else {
                        Rational::ZERO
                    }
                })
                .collect()
        })
        .collect();
    let b = vec![Rational::ONE; edges.len()];
    let c = vec![Rational::ONE; nodes.len()];
    // Bounded: y_v ≤ 1 via the (v ∈ some edge) constraints; simplex returns
    // the optimum, which by strong duality equals ρ*.
    simplex_max(&a, &b, &c)
}

/// Candidate provider for fractional hypertree width: every subset of
/// `conn ∪ comp` whose fractional edge cover number is at most `k`.
/// Exponential in the block size; intended for the small queries of the
/// paper's examples (Remark 4.4).
fn fractional_candidates(
    edges: Vec<NodeSet>,
    k: Rational,
) -> impl Fn(&NodeSet, &NodeSet) -> Vec<Candidate> + Sync {
    // Shared by concurrent calls; the lock covers one lookup or one
    // insert, never the LP solve.
    let rho_cache: Mutex<HashMap<NodeSet, Option<Rational>>> = Mutex::new(HashMap::new());
    move |conn, comp| {
        let free: Vec<u32> = comp.to_vec();
        assert!(
            free.len() < 26,
            "fractional candidate enumeration too large"
        );
        let mut out = Vec::new();
        for mask in 1u64..(1u64 << free.len()) {
            let mut bag = conn.clone();
            for (j, &x) in free.iter().enumerate() {
                if mask & (1 << j) != 0 {
                    bag.insert(x);
                }
            }
            let cache = || rho_cache.lock().expect("a ρ* computation panicked");
            let cached = cache().get(&bag).cloned();
            let rho = cached.unwrap_or_else(|| {
                let rho = fractional_edge_cover_number(&bag, &edges);
                cache().insert(bag.clone(), rho.clone());
                rho
            });
            if rho.is_some_and(|r| r <= k) {
                out.push((bag, Vec::new()));
            }
        }
        out.sort_by_key(|(bag, _)| std::cmp::Reverse(bag.len()));
        out
    }
}

/// Searches for a fractional hypertree decomposition of `h` of width ≤ `k`
/// (every bag has `ρ*` at most `k` w.r.t. the hyperedges of `h`).
pub fn fractional_hypertree_width_at_most(h: &Hypergraph, k: Rational) -> Option<Hypertree> {
    decompose(h, fractional_candidates(h.edges().to_vec(), k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcount_arith::Int;

    fn q(n: i64, d: i64) -> Rational {
        Rational::new(Int::from(n), Int::from(d))
    }

    #[test]
    fn simplex_small_lp() {
        // max x + y s.t. x ≤ 2, y ≤ 3, x + y ≤ 4 → 4.
        let a = vec![
            vec![Rational::ONE, Rational::ZERO],
            vec![Rational::ZERO, Rational::ONE],
            vec![Rational::ONE, Rational::ONE],
        ];
        let b = vec![q(2, 1), q(3, 1), q(4, 1)];
        let c = vec![Rational::ONE, Rational::ONE];
        assert_eq!(simplex_max(&a, &b, &c), Some(q(4, 1)));
    }

    #[test]
    fn simplex_unbounded() {
        // max x s.t. -x ≤ 1 — wait, need b ≥ 0 and coefficient negative:
        let a = vec![vec![-&Rational::ONE]];
        let b = vec![Rational::ONE];
        let c = vec![Rational::ONE];
        assert_eq!(simplex_max(&a, &b, &c), None);
    }

    #[test]
    fn simplex_fractional_optimum() {
        // max x + y s.t. 2x + y ≤ 1, x + 2y ≤ 1 → x = y = 1/3, opt 2/3.
        let a = vec![vec![q(2, 1), q(1, 1)], vec![q(1, 1), q(2, 1)]];
        let b = vec![Rational::ONE, Rational::ONE];
        let c = vec![Rational::ONE, Rational::ONE];
        assert_eq!(simplex_max(&a, &b, &c), Some(q(2, 3)));
    }

    #[test]
    fn triangle_fractional_cover_is_three_halves() {
        // The classic: covering the triangle's 3 vertices with its 3 edges
        // costs 3/2 fractionally (1/2 each), 2 integrally.
        let edges: Vec<NodeSet> = vec![[0, 1].into(), [1, 2].into(), [0, 2].into()];
        let target: NodeSet = [0, 1, 2].into();
        assert_eq!(fractional_edge_cover_number(&target, &edges), Some(q(3, 2)));
    }

    #[test]
    fn cover_with_big_edge_is_one() {
        let edges: Vec<NodeSet> = vec![[0, 1, 2].into()];
        assert_eq!(
            fractional_edge_cover_number(&[0, 1, 2].into(), &edges),
            Some(Rational::ONE)
        );
        assert_eq!(
            fractional_edge_cover_number(&NodeSet::new(), &edges),
            Some(Rational::ZERO)
        );
    }

    #[test]
    fn uncoverable_node() {
        let edges: Vec<NodeSet> = vec![[0, 1].into()];
        assert_eq!(fractional_edge_cover_number(&[0, 5].into(), &edges), None);
    }

    #[test]
    fn fhw_of_triangle_query() {
        // Triangle as 3 binary atoms: fhw = 3/2 — a single bag {0,1,2} has
        // ρ* = 3/2, and no decomposition does better than ghw ≥ ... check
        // both bounds.
        let h = Hypergraph::from_edges([vec![0u32, 1], vec![1, 2], vec![0, 2]]);
        assert!(fractional_hypertree_width_at_most(&h, q(3, 2)).is_some());
        assert!(fractional_hypertree_width_at_most(&h, q(4, 3)).is_none());
    }

    #[test]
    fn fhw_of_acyclic_is_one() {
        let h = Hypergraph::from_edges([vec![0u32, 1], vec![1, 2]]);
        let ht = fractional_hypertree_width_at_most(&h, Rational::ONE).unwrap();
        assert!(ht.covers_all_edges(&h));
    }
}
