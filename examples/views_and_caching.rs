//! The tree-projection framework with explicit views (Section 3,
//! Definition 1.4, Corollary 3.8): when materialized views / solved
//! subproblems are already available, counting can run *from the views
//! alone* — the paper's "broader framework" where structural decomposition
//! methods are just one way of generating resources.
//!
//! Run with: `cargo run --release --example views_and_caching`

use cqcount::core::views::{count_with_view_set, ViewSet};
use cqcount::prelude::*;
use std::time::Instant;

fn main() {
    // The star query: ans(X1, X2) :- r(Y, X1), s(Y, X2).
    // Acyclic, but its frontier {X1, X2} makes plain counting #P-hard as a
    // class (Pichler–Skritek); with a cached view over {Y, X1, X2} it
    // becomes #-covered and counting is easy.
    let (q, db) = parse_program(
        "
        r(y1, a). r(y1, b). r(y2, b). r(y2, c). r(y3, a).
        s(y1, u). s(y1, v). s(y2, v). s(y3, w).
        ans(X1, X2) :- r(Y, X1), s(Y, X2).
        ",
    )
    .unwrap();
    let q = q.unwrap();

    println!("query: {q}\n");

    // Only the query views: not #-covered (no view spans the frontier).
    let bare = ViewSet::for_query(&q);
    let bare_rels = bare.standard_extension(&q, &db);
    println!(
        "with query views only, #-covered: {}",
        count_with_view_set(&q, &bare, &bare_rels).is_some()
    );

    // Add a cached subproblem over {Y, X1, X2} (e.g. a materialized join).
    let mut vs = ViewSet::for_query(&q);
    let (y, x1, x2) = (
        q.find_var("Y").unwrap(),
        q.find_var("X1").unwrap(),
        q.find_var("X2").unwrap(),
    );
    vs.add_view("cache_yx1x2", vec![y, x1, x2]);
    let rels = vs.standard_extension(&q, &db);
    assert!(vs.is_legal(&q, &db, &rels), "standard extension is legal");

    let t0 = Instant::now();
    let (n, sd) = count_with_view_set(&q, &vs, &rels).expect("#-covered with the cache");
    println!(
        "with the cached view, #-covered: true (tree projection width {}), count = {n} in {:?}",
        sd.width,
        t0.elapsed()
    );

    let brute = count_brute_force(&q, &db);
    assert_eq!(n, brute);
    println!("brute force agrees: {brute} ✓");

    // The paper's point about legality: views may be *larger* than the
    // exact subproblem solutions (e.g. a stale cache with extra tuples) —
    // counting stays correct as long as they are not more restrictive.
    let mut padded = rels.clone();
    let extra = {
        let mut row = Vec::new();
        for (name, _) in [("y9", y), ("a", x1), ("w", x2)] {
            // values must exist in the db interner for display; intern fresh
            let _ = name;
            row.push(cqcount::relational::Value(999_000 + row.len() as u32));
        }
        row
    };
    let last = padded.len() - 1;
    let mut rows: Vec<Vec<cqcount::relational::Value>> =
        padded[last].rows().map(|t| t.to_vec()).collect();
    rows.push(extra);
    padded[last] = Bindings::from_rows(padded[last].cols().to_vec(), rows);
    let (n2, _) = count_with_view_set(&q, &vs, &padded).unwrap();
    println!("with a padded (still legal) cache the count is unchanged: {n2} ✓");
    assert_eq!(n2, brute);
}
