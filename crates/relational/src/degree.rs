//! Degree statistics (Definition 6.1 and the introduction of Section 6).
//!
//! For a set of columns `F` and a bindings set `S`, the *degree* of a tuple
//! `t ∈ π_F(S)` is `|σ_t(S)|` — the number of extensions of `t` to a full
//! row of `S`. `deg(F, S)` is the maximum degree over the tuples of the
//! projection. Functional dependencies (keys) give degree 1; quasi-keys give
//! small constants; the hybrid method of Section 6 exploits exactly this.

use crate::{Bindings, Col};

impl Bindings {
    /// `deg(F, self)`: the maximum number of rows sharing one projection
    /// onto `group_cols` (columns not present in `self` are ignored).
    /// Returns 0 for an empty bindings set.
    pub fn degree_wrt(&self, group_cols: &[Col]) -> usize {
        self.largest_group(group_cols)
    }

    /// Returns `true` iff `group_cols` functionally determine the remaining
    /// columns (i.e. the degree is at most 1).
    pub fn is_key(&self, group_cols: &[Col]) -> bool {
        self.degree_wrt(group_cols) <= 1
    }
}

#[cfg(test)]
mod tests {
    use crate::{Bindings, Value};

    fn v(id: u32) -> Value {
        Value(id)
    }

    fn b(cols: &[u32], rows: &[&[u32]]) -> Bindings {
        Bindings::from_rows(
            cols.to_vec(),
            rows.iter()
                .map(|r| r.iter().map(|&x| v(x)).collect())
                .collect(),
        )
    }

    #[test]
    fn degree_counts_extensions() {
        let s = b(&[1, 2], &[&[1, 10], &[1, 11], &[1, 12], &[2, 20]]);
        assert_eq!(s.degree_wrt(&[1]), 3);
        assert_eq!(s.degree_wrt(&[2]), 1);
        assert_eq!(s.degree_wrt(&[1, 2]), 1);
    }

    #[test]
    fn degree_with_no_group_cols_is_total_size() {
        let s = b(&[1], &[&[1], &[2], &[3]]);
        assert_eq!(s.degree_wrt(&[]), 3);
        // also when grouping by columns the bindings doesn't have
        assert_eq!(s.degree_wrt(&[99]), 3);
    }

    #[test]
    fn degree_of_empty_is_zero() {
        assert_eq!(Bindings::empty(vec![1]).degree_wrt(&[1]), 0);
    }

    #[test]
    fn keys() {
        // worker_id -> worker_info is a key (Example 1.5 flavour).
        let wi = b(&[1, 2], &[&[1, 100], &[2, 200], &[3, 300]]);
        assert!(wi.is_key(&[1]));
        assert!(!b(&[1, 2], &[&[1, 100], &[1, 200]]).is_key(&[1]));
    }
}
