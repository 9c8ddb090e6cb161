//! The flat row-major relational kernels against nested-loop oracles.
//!
//! Seeded random relations of arity 0–5 — heap-backed and reopened from a
//! store image as frozen pages — are evaluated as atoms with constants and
//! repeated variables, then joined, semijoined, projected, partitioned and
//! leapfrog-joined. Every result must equal a nested-loop evaluation of
//! the same operation and be byte-identical on one lane and on four. A
//! second test counts the paper's Q0 over a store-backed introduction
//! instance with each join kernel and checks it against brute force.

use cqcount::arith::prng::Rng;
use cqcount::core::planner::WIDTH_CAP;
use cqcount::core::{count_brute_force, count_prepared, prepare_plan, Budget};
use cqcount::relational::store::{encode_store, load_store_bytes};
use cqcount::relational::{
    wcoj_join, Bindings, Col, ColTerm, Database, JoinKernel, Relation, Value, WcojInput,
};
use cqcount::workloads::intro::{intro_instance, IntroScale};
use std::collections::{BTreeMap, BTreeSet};

/// The reference model of a bindings set: sorted columns and a row set.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Model {
    cols: Vec<Col>,
    rows: BTreeSet<Vec<Value>>,
}

/// Reads a [`Bindings`] back into the model, checking on the way that its
/// rows come out strictly ascending and that `len` counts them.
fn model_of(b: &Bindings) -> Model {
    let rows: Vec<Vec<Value>> = b.rows().map(<[Value]>::to_vec).collect();
    assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows not canonical");
    assert_eq!(rows.len(), b.len());
    assert!(b.cols().windows(2).all(|w| w[0] < w[1]), "cols not sorted");
    Model {
        cols: b.cols().to_vec(),
        rows: rows.into_iter().collect(),
    }
}

/// Nested-loop atom evaluation: every tuple matching the constants and
/// agreeing on repeated variables, as a row over the sorted variables.
fn atom_oracle(rel: &Relation, terms: &[ColTerm]) -> Model {
    let mut rows = BTreeSet::new();
    'tuples: for tup in rel.iter() {
        let mut bound: BTreeMap<Col, Value> = BTreeMap::new();
        for (t, &v) in terms.iter().zip(tup) {
            match t {
                ColTerm::Const(c) if *c != v => continue 'tuples,
                ColTerm::Const(_) => {}
                ColTerm::Var(c) => {
                    if *bound.entry(*c).or_insert(v) != v {
                        continue 'tuples;
                    }
                }
            }
        }
        rows.insert(bound.values().copied().collect());
    }
    let mut cols: Vec<Col> = terms
        .iter()
        .filter_map(|t| match t {
            ColTerm::Var(c) => Some(*c),
            ColTerm::Const(_) => None,
        })
        .collect();
    cols.sort_unstable();
    cols.dedup();
    Model { cols, rows }
}

/// Positions `(i, j)` with `a[i] == b[j]`.
fn shared(a: &[Col], b: &[Col]) -> Vec<(usize, usize)> {
    (0..a.len())
        .filter_map(|i| b.iter().position(|c| *c == a[i]).map(|j| (i, j)))
        .collect()
}

/// Nested-loop natural join.
fn join_oracle(a: &Model, b: &Model) -> Model {
    let on = shared(&a.cols, &b.cols);
    let extra: Vec<usize> = (0..b.cols.len())
        .filter(|j| on.iter().all(|&(_, sj)| sj != *j))
        .collect();
    let mut cols = a.cols.clone();
    cols.extend(extra.iter().map(|&j| b.cols[j]));
    let mut order: Vec<usize> = (0..cols.len()).collect();
    order.sort_unstable_by_key(|&k| cols[k]);
    let mut rows = BTreeSet::new();
    for ra in &a.rows {
        for rb in &b.rows {
            if on.iter().all(|&(i, j)| ra[i] == rb[j]) {
                let mut row = ra.clone();
                row.extend(extra.iter().map(|&j| rb[j]));
                rows.insert(order.iter().map(|&k| row[k]).collect());
            }
        }
    }
    Model {
        cols: order.iter().map(|&k| cols[k]).collect(),
        rows,
    }
}

/// Nested-loop semijoin: the rows of `a` agreeing with some row of `b`.
fn semijoin_oracle(a: &Model, b: &Model) -> Model {
    let on = shared(&a.cols, &b.cols);
    Model {
        cols: a.cols.clone(),
        rows: a
            .rows
            .iter()
            .filter(|ra| {
                b.rows
                    .iter()
                    .any(|rb| on.iter().all(|&(i, j)| ra[i] == rb[j]))
            })
            .cloned()
            .collect(),
    }
}

/// Projection onto `keep ∩ cols`.
fn project_oracle(a: &Model, keep: &[Col]) -> Model {
    let pos: Vec<usize> = (0..a.cols.len())
        .filter(|&i| keep.contains(&a.cols[i]))
        .collect();
    Model {
        cols: pos.iter().map(|&i| a.cols[i]).collect(),
        rows: a
            .rows
            .iter()
            .map(|r| pos.iter().map(|&i| r[i]).collect())
            .collect(),
    }
}

/// Rows grouped by their projection onto `group ∩ cols`, keys ascending.
fn partition_oracle(a: &Model, group: &[Col]) -> Vec<(Vec<Value>, Model)> {
    let pos: Vec<usize> = (0..a.cols.len())
        .filter(|&i| group.contains(&a.cols[i]))
        .collect();
    let mut groups: BTreeMap<Vec<Value>, BTreeSet<Vec<Value>>> = BTreeMap::new();
    for r in &a.rows {
        let key = pos.iter().map(|&i| r[i]).collect();
        groups.entry(key).or_default().insert(r.clone());
    }
    groups
        .into_iter()
        .map(|(k, rows)| {
            let cols = a.cols.clone();
            (k, Model { cols, rows })
        })
        .collect()
}

/// Runs `f` on one lane and on four, requires byte-identical results, and
/// returns the one-lane result.
fn on_1_and_4<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) -> R {
    let one = cqcount_exec::with_threads(1, &f);
    let four = cqcount_exec::with_threads(4, &f);
    assert_eq!(one, four, "4-lane result differs from 1-lane");
    one
}

/// A random database: one relation per arity 0–5 over a 4-value domain
/// (the nullary one holds the empty tuple or nothing), plus two relations
/// large enough to take the kernels' parallel paths.
fn random_database(rng: &mut Rng) -> Database {
    let mut db = Database::new();
    let names: Vec<String> = (0..80).map(|i| i.to_string()).collect();
    if rng.range_u32(0, 2) == 0 {
        db.add_fact("r0", &[]);
    } else {
        db.ensure_relation("r0", 0);
    }
    for arity in 1..=5usize {
        let rel = format!("r{arity}");
        db.ensure_relation(&rel, arity);
        for _ in 0..rng.range_usize(0, 40) {
            let tuple: Vec<&str> = (0..arity)
                .map(|_| names[rng.range_usize(0, 4)].as_str())
                .collect();
            db.add_fact(&rel, &tuple);
        }
    }
    for _ in 0..6000 {
        let (x, y) = (rng.range_usize(0, 80), rng.range_usize(0, 80));
        db.add_fact("big2", &[&names[x], &names[y]]);
    }
    for _ in 0..5000 {
        let t = [0; 3].map(|_| names[rng.range_usize(0, 20)].as_str());
        db.add_fact("big3", &t);
    }
    db
}

/// Random terms for a relation: each position is a constant (one in three
/// times, sometimes a value the relation lacks) or a variable over
/// columns 0–5, so repeats and shared columns are common.
fn random_terms(db: &Database, arity: usize, rng: &mut Rng) -> Vec<ColTerm> {
    (0..arity)
        .map(|_| {
            if rng.range_u32(0, 3) == 0 {
                let name = rng.range_usize(0, 6).to_string();
                let v = db.interner().get(&name).unwrap_or(Value(u32::MAX));
                ColTerm::Const(v)
            } else {
                ColTerm::Var(rng.range_u32(0, 6))
            }
        })
        .collect()
}

/// Distinct ascending variables: the pattern a frozen page serves to the
/// leapfrog kernel directly.
fn ascending_vars(arity: usize, rng: &mut Rng) -> Vec<ColTerm> {
    let mut cols: Vec<Col> = Vec::new();
    let mut next = rng.range_u32(0, 2);
    for _ in 0..arity {
        cols.push(next);
        next += rng.range_u32(1, 3);
    }
    cols.into_iter().map(ColTerm::Var).collect()
}

fn cols_of(terms: &[ColTerm]) -> Vec<Col> {
    terms
        .iter()
        .filter_map(|t| match t {
            ColTerm::Var(c) => Some(*c),
            ColTerm::Const(_) => None,
        })
        .collect()
}

fn random_cols(rng: &mut Rng) -> Vec<Col> {
    (0..6).filter(|_| rng.range_u32(0, 2) == 0).collect()
}

/// One randomized round over a database: atoms, then every kernel on
/// pairs (and triples, for leapfrog) of atoms, against the oracles.
fn check_kernels(db: &Database, rng: &mut Rng) {
    let small = ["r0", "r1", "r2", "r3", "r4", "r5"];
    let any = ["r0", "r1", "r2", "r3", "r4", "r5", "big2", "big3"];
    for _ in 0..12 {
        // At most one large operand per operation keeps the oracles cheap.
        let (na, nb) = (
            any[rng.range_usize(0, any.len())],
            small[rng.range_usize(0, small.len())],
        );
        let (ra, rb) = (db.relation(na).unwrap(), db.relation(nb).unwrap());
        let (ta, tb) = (
            random_terms(db, ra.arity(), rng),
            random_terms(db, rb.arity(), rng),
        );
        let a = on_1_and_4(|| Bindings::from_atom(ra, &ta));
        let b = on_1_and_4(|| Bindings::from_atom(rb, &tb));
        let (ma, mb) = (model_of(&a), model_of(&b));
        assert_eq!(ma, atom_oracle(ra, &ta), "from_atom {na}{ta:?}");
        assert_eq!(mb, atom_oracle(rb, &tb), "from_atom {nb}{tb:?}");

        let joined = on_1_and_4(|| a.join(&b));
        assert_eq!(model_of(&joined), join_oracle(&ma, &mb), "{na} ⋈ {nb}");
        assert_eq!(joined, b.join(&a), "join commutes");

        for (l, r, ml, mr) in [(&a, &b, &ma, &mb), (&b, &a, &mb, &ma)] {
            let semi = on_1_and_4(|| l.semijoin(r));
            assert_eq!(model_of(&semi), semijoin_oracle(ml, mr), "semijoin");
            let mut in_place = l.clone();
            let dropped = in_place.semijoin_in_place(r);
            assert_eq!(in_place, semi, "in-place semijoin");
            assert_eq!(dropped, semi.len() != l.len());
        }

        let keep = random_cols(rng);
        let projected = on_1_and_4(|| a.project(&keep));
        assert_eq!(
            model_of(&projected),
            project_oracle(&ma, &keep),
            "π{keep:?}"
        );
        assert_eq!(a.clone().into_projection(&keep), projected);

        let group = random_cols(rng);
        let parts = on_1_and_4(|| a.partition_by(&group));
        let got: Vec<(Vec<Value>, Model)> = parts
            .iter()
            .map(|(k, g)| (k.to_vec(), model_of(g)))
            .collect();
        assert_eq!(got, partition_oracle(&ma, &group), "partition {group:?}");

        // Leapfrog over evaluated small atoms, plus one relation served
        // straight from its page when it is frozen.
        let (nc, nd) = (
            small[rng.range_usize(0, small.len())],
            small[rng.range_usize(0, small.len())],
        );
        let (rc, rd) = (db.relation(nc).unwrap(), db.relation(nd).unwrap());
        let tc = random_terms(db, rc.arity(), rng);
        let td = ascending_vars(rd.arity(), rng);
        let cd = cols_of(&td);
        let (c, d) = (Bindings::from_atom(rc, &tc), Bindings::from_atom(rd, &td));
        let expect = join_oracle(&join_oracle(&mb, &model_of(&c)), &model_of(&d));
        let leapfrog = on_1_and_4(|| {
            let inputs = [
                WcojInput::from_bindings(&b),
                WcojInput::from_bindings(&c),
                WcojInput::from_frozen(rd, &cd).unwrap_or_else(|| WcojInput::from_bindings(&d)),
            ];
            wcoj_join(&inputs)
        });
        assert_eq!(model_of(&leapfrog), expect, "wcoj {nb} {nc} {nd}");
    }
}

#[test]
fn flat_kernels_match_nested_loop_oracles() {
    let seeds = if cfg!(feature = "exhaustive-tests") {
        24
    } else {
        4
    };
    for seed in 0..seeds {
        let mut rng = Rng::seed_from_u64(0xF1A7 + seed);
        let heap = random_database(&mut rng);
        let frozen = load_store_bytes(&encode_store(&heap, 0, 0)).unwrap().db;
        assert!(frozen.relation("r0").unwrap().is_frozen());
        for db in [&heap, &frozen] {
            check_kernels(db, &mut rng);
        }
    }
}

#[test]
fn nullary_frozen_relations_are_filters() {
    let mut heap = Database::new();
    heap.add_fact("yes", &[]);
    heap.ensure_relation("no", 0);
    heap.add_fact("e", &["a", "b"]);
    heap.add_fact("e", &["b", "c"]);
    let db = load_store_bytes(&encode_store(&heap, 0, 0)).unwrap().db;
    let (yes, no, e) = (
        db.relation("yes").unwrap(),
        db.relation("no").unwrap(),
        db.relation("e").unwrap(),
    );
    assert_eq!((yes.len(), no.len()), (1, 0));
    let unit = Bindings::from_atom(yes, &[]);
    let none = Bindings::from_atom(no, &[]);
    assert_eq!(unit, Bindings::unit());
    assert_ne!(unit, none);
    let cols = [0, 1];
    let edges = Bindings::from_atom(e, &[ColTerm::Var(0), ColTerm::Var(1)]);
    let direct = |nullary: &Relation| {
        let inputs = [
            WcojInput::from_frozen(nullary, &[]).unwrap(),
            WcojInput::from_frozen(e, &cols).unwrap(),
        ];
        wcoj_join(&inputs)
    };
    assert_eq!(direct(yes), edges);
    assert!(direct(no).is_empty());
    assert_eq!(edges.join(&unit), edges);
    assert!(edges.join(&none).is_empty());
    assert_eq!(edges.semijoin(&unit), edges);
    assert!(edges.semijoin(&none).is_empty());
}

#[test]
fn store_backed_intro_counts_match_brute_force_per_kernel() {
    let scale = IntroScale {
        workers: 25,
        machines: 10,
        projects: 6,
        tasks: 15,
        subtasks_per_task: 4,
        resources: 8,
    };
    let (q, heap) = intro_instance(&scale, 1);
    let db = load_store_bytes(&encode_store(&heap, 0, 0)).unwrap().db;
    let expected = count_brute_force(&q, &heap);
    assert_eq!(count_brute_force(&q, &db), expected);
    for kernel in [JoinKernel::SortMerge, JoinKernel::Wcoj, JoinKernel::Auto] {
        let mut plan = prepare_plan(&q, WIDTH_CAP);
        assert!(plan.sharp.is_some(), "Q0 has a width-2 #-decomposition");
        plan.kernel = kernel;
        let (n, _) = count_prepared(&q, &db, &plan, &Budget::unlimited()).unwrap();
        assert_eq!(n, expected, "{kernel:?}");
    }
}
