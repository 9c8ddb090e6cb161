//! Width analysis and automatic algorithm selection — the front door a
//! downstream user calls.

use crate::brute::{count_brute_force, count_brute_force_budgeted};
use crate::budget::Budget;
use crate::error::PlanError;
use crate::hybrid::count_hybrid;
use crate::pipeline::{count_via_sharp_decomposition, count_with_decomposition_kernel};
use crate::sharp::SharpDecomposition;
use crate::width_search::WidthSearch;

use cqcount_arith::Natural;
use cqcount_query::{quantified_star_size, ConjunctiveQuery};
use cqcount_relational::{Database, JoinKernel};

/// Structural measurements of a query, for explainability and planning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WidthReport {
    /// Is the query hypergraph α-acyclic?
    pub acyclic: bool,
    /// Generalized hypertree width of `H_Q` (searched up to the cap).
    pub ghw: Option<usize>,
    /// `#`-hypertree width (Definition 1.2), searched up to the cap.
    pub sharp_width: Option<usize>,
    /// Quantified star size (Appendix A).
    pub star_size: usize,
    /// Number of atoms / variables / free variables.
    pub atoms: usize,
    /// Number of variables.
    pub vars: usize,
    /// Number of free variables.
    pub free: usize,
    /// The cap used for the width searches.
    pub cap: usize,
}

impl WidthReport {
    /// Analyzes `q`, searching widths up to `cap`.
    pub fn analyze(q: &ConjunctiveQuery, cap: usize) -> WidthReport {
        let h = q.hypergraph();
        let resources = crate::sharp::atom_nodesets(q);
        // Both width sweeps run incrementally: ghw_exact reuses one
        // GhwSearch across k and WidthSearch shares the core/cover setup.
        let ghw = cqcount_decomp::ghw_exact(&h, &resources, cap).map(|(w, _)| w);
        let sharp_width = WidthSearch::new(q).find_up_to(cap).map(|(k, _)| k);
        WidthReport {
            acyclic: cqcount_hypergraph::is_acyclic(&h),
            ghw,
            sharp_width,
            star_size: quantified_star_size(q),
            atoms: q.atoms().len(),
            vars: q.vars_in_atoms().len(),
            free: q.free().len(),
            cap,
        }
    }
}

/// The algorithm the planner chose, with the evidence that justified it —
/// returned by [`count_explain`] so callers (and the CLI) can show *why*.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Plan {
    /// Bounded `#`-hypertree width: Theorem 1.3's polynomial pipeline.
    SharpPipeline {
        /// The witnessing `#`-hypertree width.
        width: usize,
    },
    /// A hybrid `#ᵦ`-hypertree decomposition (Theorem 6.6).
    Hybrid {
        /// Structural width of the `Q[S̄]` decomposition.
        width: usize,
        /// The achieved degree bound.
        bound: usize,
        /// Names of the promoted (pseudo-free) variables.
        promoted: Vec<String>,
    },
    /// No structural handle within the caps: enumeration.
    BruteForce {
        /// Human-readable reason.
        reason: String,
    },
}

/// Counts `|π_free(Q)(Q^D)|` with the cheapest applicable algorithm:
///
/// 1. bounded `#`-hypertree width (cap 3) → the Theorem 1.3 pipeline;
/// 2. otherwise, a hybrid `#ᵦ`-decomposition with a small degree bound
///    (Theorem 6.6) when one exists;
/// 3. otherwise, brute-force enumeration.
pub fn count_auto(q: &ConjunctiveQuery, db: &Database) -> Natural {
    count_explain(q, db).0
}

/// Default structural width cap for the planner's decomposition searches.
pub const WIDTH_CAP: usize = 3;
/// Default degree cap for the hybrid (`#ᵦ`) search.
pub const DEGREE_CAP: usize = 8;
/// Above this many existential variables the hybrid subset search is
/// skipped (it enumerates subsets of the existential variables).
pub const HYBRID_EXISTENTIAL_LIMIT: usize = 16;

/// Like [`count_auto`], also returning the [`Plan`] that produced the
/// count.
pub fn count_explain(q: &ConjunctiveQuery, db: &Database) -> (Natural, Plan) {
    if let Some((n, sd)) = count_via_sharp_decomposition(q, db, WIDTH_CAP) {
        return (n, Plan::SharpPipeline { width: sd.width });
    }
    if q.existential().len() < HYBRID_EXISTENTIAL_LIMIT {
        if let Some((n, hd)) = count_hybrid(q, db, WIDTH_CAP, DEGREE_CAP) {
            let promoted = hd
                .sbar
                .iter()
                .filter(|v| !q.free().contains(v))
                .map(|v| q.var_name(*v).to_owned())
                .collect();
            return (
                n,
                Plan::Hybrid {
                    width: hd.sharp.width,
                    bound: hd.bound,
                    promoted,
                },
            );
        }
        (
            count_brute_force(q, db),
            Plan::BruteForce {
                reason: format!(
                    "#-hypertree width > {WIDTH_CAP} and no hybrid decomposition \
                     with degree ≤ {DEGREE_CAP}"
                ),
            },
        )
    } else {
        (
            count_brute_force(q, db),
            Plan::BruteForce {
                reason: format!(
                    "#-hypertree width > {WIDTH_CAP}; too many existential \
                     variables for the hybrid search"
                ),
            },
        )
    }
}

/// The data-independent half of a plan: everything the planner can decide
/// from the query alone. Produced by [`prepare_plan`], consumed by
/// [`count_prepared`], and cached by the serving layer keyed on the
/// query's canonical fingerprint — a prepared plan stays valid across
/// data reloads because it never looks at the database.
#[derive(Clone, Debug)]
pub struct PreparedPlan {
    /// A `#`-hypertree decomposition within `width_cap`, if one exists.
    /// `None` means the (expensive) search already failed up to the cap,
    /// so [`count_prepared`] goes straight to the hybrid/brute fallbacks.
    pub sharp: Option<SharpDecomposition>,
    /// The width cap the decomposition search ran up to.
    pub width_cap: usize,
    /// The degree cap for the data-dependent hybrid fallback.
    pub degree_cap: usize,
    /// True when the decomposition search was cut short by its budget
    /// ([`prepare_plan_budgeted`]): `sharp == None` then means "not found
    /// *so far*", not "proven absent up to the cap". Degraded plans should
    /// not be cached.
    pub degraded: bool,
    /// The per-bag join kernel for the sharp pipeline. `Auto` (the
    /// default) runs leapfrog on cyclic bags and binary hash joins on
    /// acyclic ones; `CQCOUNT_JOIN_KERNEL` pins it at plan time.
    pub kernel: JoinKernel,
}

impl PreparedPlan {
    /// A short human-readable label for logs and server stats.
    pub fn describe(&self) -> String {
        match &self.sharp {
            Some(sd) => format!("sharp-pipeline(width={})", sd.width),
            None if self.degraded => format!("degraded(search-cut@{})", self.width_cap),
            None => format!("fallback(width>{})", self.width_cap),
        }
    }
}

/// Runs the query-only planning work (core computation + `#`-hypertree
/// decomposition search up to `width_cap`) once, so repeated counts of the
/// same query — the serving layer's hot path — skip it.
pub fn prepare_plan(q: &ConjunctiveQuery, width_cap: usize) -> PreparedPlan {
    prepare_plan_budgeted(q, width_cap, &Budget::unlimited())
}

/// [`prepare_plan`] under a cooperative [`Budget`]: the width search is
/// checked between candidate widths, and a tripped budget stops it early
/// with `degraded: true` instead of stalling — the serving layer then
/// degrades to the brute/acyclic fallback rather than holding a worker
/// hostage on an adversarial query.
pub fn prepare_plan_budgeted(
    q: &ConjunctiveQuery,
    width_cap: usize,
    budget: &Budget,
) -> PreparedPlan {
    let kernel = JoinKernel::from_env();
    // The WidthSearch is built lazily so a budget tripped before planning
    // even starts degrades without paying for the core computation.
    // Declared before the span, it is dropped after the span closes: the
    // span times the search, not the teardown of its memo.
    let mut search: Option<WidthSearch> = None;
    let sp = cqcount_obs::trace::span("plan.decompose");
    let mut degraded = false;
    let mut sharp = None;
    for k in 1..=width_cap {
        if budget.is_exceeded() {
            degraded = true;
            break;
        }
        if sp.is_armed() {
            sp.add("widths_tried", 1);
        }
        let search = search.get_or_insert_with(|| WidthSearch::new(q));
        if let Some(sd) = search.decomposition_at(k) {
            sharp = Some(sd);
            break;
        }
    }
    if sp.is_armed() {
        match &sharp {
            Some(sd) => {
                sp.add("width", sd.width as u64);
                sp.tag("outcome", "found");
            }
            None => sp.tag("outcome", if degraded { "cut-short" } else { "absent" }),
        }
    }
    PreparedPlan {
        sharp,
        width_cap,
        degree_cap: DEGREE_CAP,
        degraded,
        kernel,
    }
}

/// Counts `q` over `db` like [`count_prepared`], but **degrades instead of
/// stalling** when planning already blew its budget: on a degraded
/// [`PreparedPlan`] the (even costlier) hybrid search is skipped and the
/// count falls through the degradation ladder — the quantifier-free
/// acyclic fast path when the query is full and acyclic, else budgeted
/// brute force. Returns `(count, plan, degraded)`; `degraded` is true
/// exactly when a ladder rung (not the structurally chosen algorithm)
/// produced the count. The count itself is always exact.
pub fn count_prepared_resilient(
    q: &ConjunctiveQuery,
    db: &Database,
    plan: &PreparedPlan,
    budget: &Budget,
) -> Result<(Natural, Plan, bool), PlanError> {
    budget.check()?;
    if let Some(sd) = &plan.sharp {
        let sp = cqcount_obs::trace::span("count.sharp");
        if sp.is_armed() {
            sp.add("width", sd.width as u64);
        }
        let n = count_with_decomposition_kernel(&sd.qprime, db, &sd.hypertree, plan.kernel);
        budget.check()?;
        return Ok((n, Plan::SharpPipeline { width: sd.width }, false));
    }
    // On a degraded plan the width search was cut short; the hybrid
    // search is strictly more work, so go straight down the ladder.
    if !plan.degraded && q.existential().len() < HYBRID_EXISTENTIAL_LIMIT {
        let sp = cqcount_obs::trace::span("count.hybrid");
        if let Some((n, hd)) = count_hybrid(q, db, plan.width_cap, plan.degree_cap) {
            budget.check()?;
            if sp.is_armed() {
                sp.add("width", hd.sharp.width as u64);
                sp.add("bound", hd.bound as u64);
            }
            let promoted = hd
                .sbar
                .iter()
                .filter(|v| !q.free().contains(v))
                .map(|v| q.var_name(*v).to_owned())
                .collect();
            return Ok((
                n,
                Plan::Hybrid {
                    width: hd.sharp.width,
                    bound: hd.bound,
                    promoted,
                },
                false,
            ));
        }
    }
    // Ladder rung 1: a full (quantifier-free) acyclic query counts in
    // polynomial time with the Yannakakis-style DP, no decomposition
    // search needed. (Only a degradation rung — on a non-degraded plan a
    // missing sharp decomposition means the planner *decided* on brute.)
    if plan.degraded && q.existential().is_empty() {
        let sp = cqcount_obs::trace::span("count.acyclic");
        if sp.is_armed() {
            sp.add("atoms", q.atoms().len() as u64);
        }
        let views: Vec<cqcount_relational::Bindings> = q
            .atoms()
            .iter()
            .map(|a| cqcount_query::canonical::atom_bindings(a, db))
            .collect();
        if let Some(n) = crate::acyclic::count_acyclic_full(&views) {
            budget.check()?;
            return Ok((
                n,
                Plan::BruteForce {
                    reason: "degraded: planning cut short; acyclic full-query fast path".into(),
                },
                true,
            ));
        }
    }
    // Ladder rung 2: budgeted enumeration.
    let n = {
        let _sp = cqcount_obs::trace::span("count.brute");
        count_brute_force_budgeted(q, db, budget)?
    };
    let reason = if plan.degraded {
        format!(
            "degraded: decomposition search cut short by its budget (cap {})",
            plan.width_cap
        )
    } else {
        format!(
            "#-hypertree width > {} and no hybrid decomposition with degree ≤ {}",
            plan.width_cap, plan.degree_cap
        )
    };
    Ok((n, Plan::BruteForce { reason }, plan.degraded))
}

/// Counts `q` over `db` reusing the decomposition from a [`PreparedPlan`],
/// under a cooperative [`Budget`]. Mirrors [`count_explain`]'s algorithm
/// order (sharp pipeline → hybrid → brute force) but never panics: budget
/// trips surface as [`PlanError::BudgetExceeded`].
pub fn count_prepared(
    q: &ConjunctiveQuery,
    db: &Database,
    plan: &PreparedPlan,
    budget: &Budget,
) -> Result<(Natural, Plan), PlanError> {
    budget.check()?;
    if let Some(sd) = &plan.sharp {
        let n = count_with_decomposition_kernel(&sd.qprime, db, &sd.hypertree, plan.kernel);
        budget.check()?;
        return Ok((n, Plan::SharpPipeline { width: sd.width }));
    }
    if q.existential().len() < HYBRID_EXISTENTIAL_LIMIT {
        if let Some((n, hd)) = count_hybrid(q, db, plan.width_cap, plan.degree_cap) {
            budget.check()?;
            let promoted = hd
                .sbar
                .iter()
                .filter(|v| !q.free().contains(v))
                .map(|v| q.var_name(*v).to_owned())
                .collect();
            return Ok((
                n,
                Plan::Hybrid {
                    width: hd.sharp.width,
                    bound: hd.bound,
                    promoted,
                },
            ));
        }
        let n = count_brute_force_budgeted(q, db, budget)?;
        Ok((
            n,
            Plan::BruteForce {
                reason: format!(
                    "#-hypertree width > {} and no hybrid decomposition \
                     with degree ≤ {}",
                    plan.width_cap, plan.degree_cap
                ),
            },
        ))
    } else {
        let n = count_brute_force_budgeted(q, db, budget)?;
        Ok((
            n,
            Plan::BruteForce {
                reason: format!(
                    "#-hypertree width > {}; too many existential \
                     variables for the hybrid search",
                    plan.width_cap
                ),
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcount_query::parse_program;

    #[test]
    fn report_on_q0() {
        let (q, _) = parse_program(
            "ans(A, B, C) :- mw(A, B, I), wt(B, D), wi(B, E), pt(C, D), \
             st(D, F), st(D, G), rr(G, H), rr(F, H), rr(D, H).",
        )
        .unwrap();
        let r = WidthReport::analyze(&q.unwrap(), 3);
        assert!(!r.acyclic);
        assert_eq!(r.ghw, Some(2));
        assert_eq!(r.sharp_width, Some(2));
        assert_eq!(r.atoms, 9);
        assert_eq!(r.vars, 9);
        assert_eq!(r.free, 3);
    }

    #[test]
    fn auto_agrees_with_brute_force() {
        let cases = [
            "r(a, b). r(b, c). ans(X) :- r(X, Y).",
            "e(a, b). e(b, c). e(c, a). ans(X, Y) :- e(X, Y), e(Y, Z), e(Z, X).",
            "r(y1, a). r(y1, b). r(y2, b). ans(X1, X2) :- r(Y, X1), r(Y, X2).",
        ];
        for src in cases {
            let (q, db) = parse_program(src).unwrap();
            let q = q.unwrap();
            assert_eq!(count_auto(&q, &db), count_brute_force(&q, &db), "{src}");
        }
    }

    #[test]
    fn explain_picks_the_pipeline_for_bounded_width() {
        let (q, db) = parse_program("r(a, b). r(b, c). ans(X) :- r(X, Y).").unwrap();
        let (n, plan) = count_explain(&q.unwrap(), &db);
        assert_eq!(n, 2u64.into());
        assert_eq!(plan, Plan::SharpPipeline { width: 1 });
    }

    #[test]
    fn explain_reports_hybrid_promotion() {
        use cqcount_workloads::paper::{hybrid_database, hybrid_query};
        // h = 3: #-htw = 4 > cap 3, hybrid width 2 with promoted Y's.
        let q = hybrid_query(3);
        let db = hybrid_database(3);
        let (n, plan) = count_explain(&q, &db);
        assert_eq!(n, 8u64.into());
        assert!(
            matches!(plan, Plan::Hybrid { .. }),
            "expected hybrid plan, got {plan:?}"
        );
        if let Plan::Hybrid {
            width,
            bound,
            promoted,
        } = plan
        {
            // the search minimizes the degree bound, not the width:
            // any width ≤ cap with bound 1 is a valid outcome
            assert!(width <= 3, "width {width}");
            assert_eq!(bound, 1);
            assert!(!promoted.is_empty());
        }
    }

    #[test]
    fn prepared_plan_agrees_with_count_explain() {
        let cases = [
            "r(a, b). r(b, c). ans(X) :- r(X, Y).",
            "e(a, b). e(b, c). e(c, a). ans(X, Y) :- e(X, Y), e(Y, Z), e(Z, X).",
            "r(y1, a). r(y1, b). r(y2, b). ans(X1, X2) :- r(Y, X1), r(Y, X2).",
        ];
        for src in cases {
            let (q, db) = parse_program(src).unwrap();
            let q = q.unwrap();
            let plan = prepare_plan(&q, WIDTH_CAP);
            let (n, chosen) =
                count_prepared(&q, &db, &plan, &Budget::unlimited()).expect("unlimited");
            let (expected_n, expected_plan) = count_explain(&q, &db);
            assert_eq!(n, expected_n, "{src}");
            assert_eq!(chosen, expected_plan, "{src}");
        }
    }

    #[test]
    fn prepared_plan_hybrid_fallback_agrees() {
        use cqcount_workloads::paper::{hybrid_database, hybrid_query};
        let q = hybrid_query(3);
        let db = hybrid_database(3);
        let plan = prepare_plan(&q, WIDTH_CAP);
        assert!(plan.sharp.is_none(), "width 4 query must not fit cap 3");
        assert!(plan.describe().starts_with("fallback"));
        let (n, chosen) = count_prepared(&q, &db, &plan, &Budget::unlimited()).unwrap();
        assert_eq!(n, 8u64.into());
        assert!(matches!(chosen, Plan::Hybrid { .. }), "got {chosen:?}");
    }

    #[test]
    fn count_prepared_respects_a_tripped_budget() {
        let (q, db) = parse_program("r(a, b). r(b, c). ans(X) :- r(X, Y).").unwrap();
        let q = q.unwrap();
        let plan = prepare_plan(&q, WIDTH_CAP);
        let budget = crate::budget::Budget::with_deadline(std::time::Duration::from_millis(0));
        assert!(matches!(
            count_prepared(&q, &db, &plan, &budget),
            Err(crate::error::PlanError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn budgeted_prepare_degrades_instead_of_searching() {
        let (q, _) = parse_program(
            "ans(A, B, C) :- mw(A, B, I), wt(B, D), wi(B, E), pt(C, D), \
             st(D, F), st(D, G), rr(G, H), rr(F, H), rr(D, H).",
        )
        .unwrap();
        let q = q.unwrap();
        let tripped = crate::budget::Budget::with_deadline(std::time::Duration::from_millis(0));
        let plan = prepare_plan_budgeted(&q, WIDTH_CAP, &tripped);
        assert!(plan.degraded, "a tripped budget must cut the search short");
        assert!(plan.sharp.is_none());
        assert!(plan.describe().starts_with("degraded"));
        // The unlimited path is unchanged.
        assert!(!prepare_plan(&q, WIDTH_CAP).degraded);
    }

    #[test]
    fn resilient_count_on_degraded_plan_is_exact_and_flagged() {
        use crate::brute::count_brute_force;
        let cases = [
            // full acyclic: the ladder's Yannakakis rung
            "r(a, b). r(b, c). ans(X, Y) :- r(X, Y).",
            // projection: budgeted brute-force rung
            "r(a, b). r(b, c). ans(X) :- r(X, Y).",
            // cyclic full query: brute rung again
            "e(a, b). e(b, c). e(c, a). ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).",
        ];
        for src in cases {
            let (q, db) = parse_program(src).unwrap();
            let q = q.unwrap();
            let tripped = crate::budget::Budget::with_deadline(std::time::Duration::from_millis(0));
            let plan = prepare_plan_budgeted(&q, WIDTH_CAP, &tripped);
            assert!(plan.degraded, "{src}");
            // Fresh budget for the count itself: planning degraded, the
            // count still completes.
            let (n, chosen, degraded) =
                count_prepared_resilient(&q, &db, &plan, &Budget::unlimited()).expect(src);
            assert_eq!(n, count_brute_force(&q, &db), "{src}");
            assert!(degraded, "{src}");
            assert!(matches!(chosen, Plan::BruteForce { .. }), "{src}");
        }
    }

    #[test]
    fn resilient_count_matches_count_prepared_when_not_degraded() {
        use cqcount_workloads::paper::{hybrid_database, hybrid_query};
        let cases = [
            "r(a, b). r(b, c). ans(X) :- r(X, Y).",
            "e(a, b). e(b, c). e(c, a). ans(X, Y) :- e(X, Y), e(Y, Z), e(Z, X).",
        ];
        for src in cases {
            let (q, db) = parse_program(src).unwrap();
            let q = q.unwrap();
            let plan = prepare_plan(&q, WIDTH_CAP);
            let (n, chosen, degraded) =
                count_prepared_resilient(&q, &db, &plan, &Budget::unlimited()).unwrap();
            let (en, ep) = count_prepared(&q, &db, &plan, &Budget::unlimited()).unwrap();
            assert_eq!((n, chosen), (en, ep), "{src}");
            assert!(!degraded, "{src}");
        }
        // Hybrid fallback path agrees too.
        let q = hybrid_query(3);
        let db = hybrid_database(3);
        let plan = prepare_plan(&q, WIDTH_CAP);
        let (n, chosen, degraded) =
            count_prepared_resilient(&q, &db, &plan, &Budget::unlimited()).unwrap();
        assert_eq!(n, 8u64.into());
        assert!(matches!(chosen, Plan::Hybrid { .. }));
        assert!(!degraded);
    }

    #[test]
    fn resilient_count_still_errors_when_everything_is_out_of_budget() {
        let (q, db) = parse_program("r(a, b). r(b, c). ans(X) :- r(X, Y).").unwrap();
        let q = q.unwrap();
        let tripped = crate::budget::Budget::with_deadline(std::time::Duration::from_millis(0));
        let plan = prepare_plan_budgeted(&q, WIDTH_CAP, &tripped);
        assert!(matches!(
            count_prepared_resilient(&q, &db, &plan, &tripped),
            Err(crate::error::PlanError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn report_star_size() {
        let (q, _) = parse_program("ans(X1, X2) :- r(Y, X1), r(Y, X2).").unwrap();
        let r = WidthReport::analyze(&q.unwrap(), 3);
        assert!(r.acyclic);
        assert_eq!(r.star_size, 2);
        assert_eq!(r.sharp_width, Some(2)); // frontier {X1,X2} needs 2 atoms
    }
}
