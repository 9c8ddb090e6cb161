//! Property tests for the relational algebra, checked against naive
//! nested-loop reference implementations. Cases come from the workspace
//! PRNG under fixed seeds; `exhaustive-tests` raises the case count.

use cqcount_arith::prng::Rng;
use cqcount_relational::{Bindings, Value};
use std::collections::{BTreeMap, BTreeSet};

const CASES: usize = if cfg!(feature = "exhaustive-tests") {
    2048
} else {
    256
};

type Row = BTreeMap<u32, u32>; // col -> value, the reference model

/// A random bindings set over the given columns (values in 0..4, up to 12
/// rows) plus its reference model.
fn arb_bindings(cols: &[u32], rng: &mut Rng) -> (Bindings, BTreeSet<Vec<u32>>) {
    let n = cols.len();
    let count = rng.range_usize(0, 13);
    let mut set: BTreeSet<Vec<u32>> = BTreeSet::new();
    for _ in 0..count {
        set.insert((0..n).map(|_| rng.range_u32(0, 4)).collect());
    }
    let b = Bindings::from_rows(
        cols.to_vec(),
        set.iter()
            .map(|r| r.iter().map(|&x| Value(x)).collect())
            .collect(),
    );
    (b, set)
}

fn to_model(cols: &[u32], rows: &BTreeSet<Vec<u32>>) -> BTreeSet<Row> {
    rows.iter()
        .map(|r| cols.iter().copied().zip(r.iter().copied()).collect())
        .collect()
}

fn model_of(b: &Bindings) -> BTreeSet<Row> {
    b.rows()
        .map(|r| {
            b.cols()
                .iter()
                .copied()
                .zip(r.iter().map(|v| v.0))
                .collect()
        })
        .collect()
}

fn compatible(a: &Row, b: &Row) -> bool {
    a.iter().all(|(k, v)| b.get(k).is_none_or(|w| w == v))
}

fn merge(a: &Row, b: &Row) -> Row {
    let mut out = a.clone();
    for (k, v) in b {
        out.insert(*k, *v);
    }
    out
}

/// The reference join: every compatible pair of model rows, merged.
fn nested_loop_model(
    lcols: &[u32],
    lm: &BTreeSet<Vec<u32>>,
    rcols: &[u32],
    rm: &BTreeSet<Vec<u32>>,
) -> BTreeSet<Row> {
    let rmod = to_model(rcols, rm);
    let mut expect = BTreeSet::new();
    for a in &to_model(lcols, lm) {
        for b in &rmod {
            if compatible(a, b) {
                expect.insert(merge(a, b));
            }
        }
    }
    expect
}

#[test]
fn join_matches_nested_loop() {
    let mut rng = Rng::seed_from_u64(0x11);
    for _ in 0..CASES {
        let (l, lm) = arb_bindings(&[0, 1], &mut rng);
        let (r, rm) = arb_bindings(&[1, 2], &mut rng);
        let got = model_of(&l.join(&r));
        assert_eq!(got, nested_loop_model(&[0, 1], &lm, &[1, 2], &rm));
    }
}

#[test]
fn join_disjoint_is_product() {
    let mut rng = Rng::seed_from_u64(0x12);
    for _ in 0..CASES {
        let (l, lm) = arb_bindings(&[0], &mut rng);
        let (r, rm) = arb_bindings(&[5], &mut rng);
        assert_eq!(l.join(&r).len(), lm.len() * rm.len());
    }
}

#[test]
fn semijoin_is_projected_join() {
    let mut rng = Rng::seed_from_u64(0x13);
    for _ in 0..CASES {
        let (l, _) = arb_bindings(&[0, 1], &mut rng);
        let (r, _) = arb_bindings(&[1, 2], &mut rng);
        assert_eq!(l.semijoin(&r), l.join(&r).project(l.cols()));
    }
}

#[test]
fn join_commutative_associative() {
    let mut rng = Rng::seed_from_u64(0x14);
    for _ in 0..CASES {
        let (a, _) = arb_bindings(&[0, 1], &mut rng);
        let (b, _) = arb_bindings(&[1, 2], &mut rng);
        let (c, _) = arb_bindings(&[0, 2], &mut rng);
        assert_eq!(a.join(&b), b.join(&a));
        assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
    }
}

#[test]
fn join_matches_nested_loop_on_non_prefix_keys() {
    // The sort-merge kernel must agree with the nested-loop reference on
    // key layouts that are not a row prefix on either side.
    let mut rng = Rng::seed_from_u64(0x15);
    for _ in 0..CASES {
        let (a, am) = arb_bindings(&[0, 1, 3], &mut rng);
        let (b, bm) = arb_bindings(&[1, 2, 3], &mut rng);
        assert_eq!(
            model_of(&a.join(&b)),
            nested_loop_model(&[0, 1, 3], &am, &[1, 2, 3], &bm)
        );
        let (c, cm) = arb_bindings(&[3], &mut rng);
        assert_eq!(
            model_of(&a.join(&c)),
            nested_loop_model(&[0, 1, 3], &am, &[3], &cm)
        );
    }
}

#[test]
fn project_is_idempotent_and_monotone() {
    let mut rng = Rng::seed_from_u64(0x16);
    for _ in 0..CASES {
        let (a, _) = arb_bindings(&[0, 1, 2], &mut rng);
        let p = a.project(&[0, 2]);
        assert_eq!(p.project(&[0, 2]), p.clone());
        assert!(p.len() <= a.len());
        let pp = p.project(&[0]);
        assert_eq!(a.project(&[0]), pp);
    }
}

#[test]
fn partition_reassembles() {
    let mut rng = Rng::seed_from_u64(0x17);
    for _ in 0..CASES {
        let (a, _) = arb_bindings(&[0, 1], &mut rng);
        let parts = a.partition_by(&[0]);
        let total: usize = parts.iter().map(|(_, p)| p.len()).sum();
        assert_eq!(total, a.len());
        // every part selects to itself
        for (key, part) in &parts {
            let key_vals: Vec<Value> = key.to_vec();
            assert_eq!(&part.select_theta(&[0], &key_vals), part);
        }
    }
}

#[test]
fn degree_bounds() {
    let mut rng = Rng::seed_from_u64(0x18);
    for _ in 0..CASES {
        let (a, _) = arb_bindings(&[0, 1], &mut rng);
        let d = a.degree_wrt(&[0]);
        assert!(d <= a.len());
        let groups = a.partition_by(&[0]);
        let max = groups.iter().map(|(_, g)| g.len()).max().unwrap_or(0);
        assert_eq!(d, max);
    }
}

#[test]
fn pairwise_consistency_sound() {
    let mut rng = Rng::seed_from_u64(0x19);
    for _ in 0..CASES {
        let (a, _) = arb_bindings(&[0, 1], &mut rng);
        let (b, _) = arb_bindings(&[1, 2], &mut rng);
        // After the fixpoint, every surviving tuple of each view joins with
        // some tuple of the other view (pairwise consistency definition).
        let mut views = vec![a.clone(), b.clone()];
        let ok = cqcount_relational::consistency::pairwise_consistency(&mut views);
        if ok {
            for t in views[0].rows() {
                let single = Bindings::from_rows(views[0].cols().to_vec(), vec![t.to_vec()]);
                assert!(!single.join(&views[1]).is_empty());
            }
        }
        // And it never changes the join result.
        assert_eq!(a.join(&b), views[0].join(&views[1]));
    }
}

#[test]
fn kernels_agree_across_thread_counts() {
    // The ISSUE's agreement property: join/semijoin/project/consistency
    // must be byte-identical between the forced-sequential path and a
    // multi-lane pool, across many seeded instances. Row counts are pushed
    // past the parallel threshold so the chunked paths actually run.
    let seeds: u64 = if cfg!(feature = "exhaustive-tests") {
        8
    } else {
        3
    };
    for seed in 0..seeds {
        let mut rng = Rng::seed_from_u64(0xC0DE + seed);
        let mk = |cols: &[u32], rng: &mut Rng| {
            let rows: Vec<Vec<Value>> = (0..6000)
                .map(|_| {
                    (0..cols.len())
                        .map(|_| Value(rng.range_u32(0, 64)))
                        .collect()
                })
                .collect();
            Bindings::from_rows(cols.to_vec(), rows)
        };
        let a = mk(&[0, 1], &mut rng);
        let b = mk(&[1, 2], &mut rng);
        let run = || {
            let mut views = vec![a.clone(), b.clone()];
            let ok = cqcount_relational::consistency::pairwise_consistency(&mut views);
            (a.join(&b), a.semijoin(&b), a.project(&[1]), views, ok)
        };
        let seq = cqcount_exec::with_threads(1, run);
        let par = cqcount_exec::with_threads(8, run);
        assert_eq!(seq, par, "seed {seed}");
    }
}
