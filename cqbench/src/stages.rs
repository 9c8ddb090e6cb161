//! The traced pass: one count recomposed from each layer's public
//! function, with a timer around every call, next to the one call the
//! CLI and a cold daemon count make. The two must agree exactly.

use crate::stats::{median, ms, us};
use crate::Report;
use cqcount_arith::Natural;
use cqcount_core::acyclic::count_over_tree;
use cqcount_core::brute::count_brute_force;
use cqcount_core::hybrid::{count_hybrid_with, hybrid_decomposition};
use cqcount_core::planner::{DEGREE_CAP, HYBRID_EXISTENTIAL_LIMIT, WIDTH_CAP};
use cqcount_core::sharp::{bag_views_with_kernel, SharpDecomposition};
use cqcount_core::{count_prepared, prepare_plan, Budget, WidthSearch};
use cqcount_hypergraph::NodeSet;
use cqcount_query::fingerprint;
use cqcount_query::{parse_query, ConjunctiveQuery};
use cqcount_relational::consistency::full_reduce;
use cqcount_relational::{Bindings, Database, JoinKernel};
use std::time::{Duration, Instant};

/// Self-times and work counts of one traced request. Stages run one after
/// another on the calling thread, so each stage's span holds no child
/// span of another stage: its duration is its self-time.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub parse: Duration,
    pub core: Duration,
    pub search: Duration,
    pub complete: Duration,
    pub materialize: Duration,
    pub reduce: Duration,
    pub project: Duration,
    pub dp: Duration,
    pub hybrid_search: Duration,
    pub hybrid_count: Duration,
    pub brute: Duration,
    /// Wall time of the whole traced request, timers included.
    pub total: Duration,
    pub atoms: usize,
    pub core_atoms: usize,
    pub widths_tried: usize,
    /// Vertices of the decomposition the search returned.
    pub bags: usize,
    /// Rows materialized across the completed decomposition's bags.
    pub rows: usize,
    pub max_rows: usize,
    /// Rows left after the full reducer.
    pub kept_rows: usize,
    pub answer_bits: u32,
    /// Which algorithm counted.
    pub path: Path,
}

/// The algorithm a traced request ended in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Path {
    #[default]
    Sharp,
    Hybrid,
    Brute,
}

impl Trace {
    /// The sum of every stage's self-time.
    pub fn stage_sum(&self) -> Duration {
        self.parse
            + self.core
            + self.search
            + self.complete
            + self.materialize
            + self.reduce
            + self.project
            + self.dp
            + self.hybrid_search
            + self.hybrid_count
            + self.brute
    }
}

fn timed<R>(slot: &mut Duration, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *slot += t.elapsed();
    r
}

/// The request as the CLI and a cold daemon count run it:
/// `parse_query → prepare_plan → count_prepared`.
pub fn one_call(text: &str, db: &Database) -> Natural {
    one_call_with_kernel(text, db, None)
}

/// [`one_call`] with the plan's join kernel pinned (`None` keeps the
/// planner's choice).
pub fn one_call_with_kernel(text: &str, db: &Database, kernel: Option<JoinKernel>) -> Natural {
    let q = parse_query(text).expect("benchmark queries parse");
    let mut plan = prepare_plan(&q, WIDTH_CAP);
    if let Some(k) = kernel {
        plan.kernel = k;
    }
    count_prepared(&q, db, &plan, &Budget::unlimited())
        .expect("an unlimited budget never trips")
        .0
}

/// One request of a traced pass, run both ways.
pub struct Paired {
    /// The untraced one-call latency, in ms.
    pub ms: f64,
    /// The one-call count.
    pub count: Natural,
    /// The stage-by-stage count.
    pub traced: Natural,
    pub trace: Trace,
}

/// Runs a request untraced and then traced, back to back, so both see
/// the same host speed.
pub fn paired(text: &str, db: &Database) -> Paired {
    let t = Instant::now();
    let count = one_call(text, db);
    let ms = crate::stats::ms(t.elapsed());
    let (traced, trace) = traced_count(text, db);
    Paired {
        ms,
        count,
        traced,
        trace,
    }
}

/// The same request, layer by layer, in `count_prepared`'s order.
pub fn traced_count(text: &str, db: &Database) -> (Natural, Trace) {
    let t0 = Instant::now();
    let mut tr = Trace::default();
    let q = timed(&mut tr.parse, || parse_query(text)).expect("benchmark queries parse");
    tr.atoms = q.atoms().len();
    let mut search = timed(&mut tr.core, || WidthSearch::new(&q));
    tr.core_atoms = search.qprime().atoms().len();
    let mut sharp = None;
    for k in 1..=WIDTH_CAP {
        tr.widths_tried += 1;
        if let Some(sd) = timed(&mut tr.search, || search.decomposition_at(k)) {
            sharp = Some(sd);
            break;
        }
    }
    let n = match &sharp {
        Some(sd) => sharp_stages(sd, db, JoinKernel::from_env(), &mut tr),
        None => fallback_stages(&q, db, &mut tr),
    };
    tr.answer_bits = n.bit_len();
    tr.total = t0.elapsed();
    (n, tr)
}

fn atom_nodes(q: &ConjunctiveQuery) -> Vec<NodeSet> {
    q.atoms()
        .iter()
        .map(|a| a.vars().iter().map(|v| v.node()).collect())
        .collect()
}

/// Theorem 3.7's pipeline: complete, materialize, reduce, project, count.
fn sharp_stages(
    sd: &SharpDecomposition,
    db: &Database,
    kernel: JoinKernel,
    tr: &mut Trace,
) -> Natural {
    let qp = &sd.qprime;
    tr.bags = sd.hypertree.len();
    let nodes = atom_nodes(qp);
    let all: Vec<usize> = (0..qp.atoms().len()).collect();
    let complete = timed(&mut tr.complete, || sd.hypertree.complete(&all, &nodes));
    let mut views = timed(&mut tr.materialize, || {
        bag_views_with_kernel(qp, db, &complete, kernel)
    });
    tr.rows = views.iter().map(Bindings::len).sum();
    tr.max_rows = views.iter().map(Bindings::len).max().unwrap_or(0);
    timed(&mut tr.reduce, || {
        full_reduce(&mut views, &complete.parent, &complete.order)
    });
    tr.kept_rows = views.iter().map(Bindings::len).sum();
    if views.iter().any(Bindings::is_empty) {
        return Natural::ZERO;
    }
    let free_cols: Vec<u32> = qp.free().iter().map(|v| v.node()).collect();
    let projected = timed(&mut tr.project, || {
        cqcount_exec::par_map(&views, |v| v.project(&free_cols))
    });
    timed(&mut tr.dp, || {
        count_over_tree(
            &projected,
            &complete.parent,
            &complete.children,
            &complete.order,
        )
    })
}

/// No `#`-hypertree decomposition within the cap: the hybrid `#ᵦ`
/// search and count (§6), else enumeration.
fn fallback_stages(q: &ConjunctiveQuery, db: &Database, tr: &mut Trace) -> Natural {
    if q.existential().len() < HYBRID_EXISTENTIAL_LIMIT {
        let hd = timed(&mut tr.hybrid_search, || {
            hybrid_decomposition(q, db, WIDTH_CAP, DEGREE_CAP)
        });
        if let Some(hd) = hd {
            tr.path = Path::Hybrid;
            tr.bags = hd.sharp.hypertree.len();
            return timed(&mut tr.hybrid_count, || count_hybrid_with(q, db, &hd));
        }
    }
    tr.path = Path::Brute;
    timed(&mut tr.brute, || count_brute_force(q, db))
}

/// Times the two stages the exec pool parallelizes — the decomposition
/// sweep and bag materialization — on whatever lanes the calling thread
/// currently has (see `cqcount_exec::with_threads`).
pub fn plan_and_bag_times(q: &ConjunctiveQuery, db: &Database) -> (Duration, Duration) {
    let t = Instant::now();
    let mut search = WidthSearch::new(q);
    let sd = (1..=WIDTH_CAP).find_map(|k| search.decomposition_at(k));
    let plan = t.elapsed();
    let Some(sd) = sd else {
        return (plan, Duration::ZERO);
    };
    let nodes = atom_nodes(&sd.qprime);
    let all: Vec<usize> = (0..sd.qprime.atoms().len()).collect();
    let t = Instant::now();
    let complete = sd.hypertree.complete(&all, &nodes);
    let views = bag_views_with_kernel(&sd.qprime, db, &complete, JoinKernel::from_env());
    std::hint::black_box(views);
    (plan, t.elapsed())
}

/// Per-stage medians, work counts and the trace self-check. Data-stage
/// medians are taken over the requests that ran the sharp pipeline and
/// `hybrid.*` over those that ran the hybrid count; a stage no request
/// ran reports 0. `untraced_ms` is the untraced one-call p50 of the same
/// requests: coverage is the stage sum over it, and overhead the traced
/// request's wall time against it.
pub fn record_stages(r: &mut Report, traces: &[Trace], untraced_ms: f64) {
    let med_of = |path: Option<Path>, f: &dyn Fn(&Trace) -> f64| {
        let xs: Vec<f64> = traces
            .iter()
            .filter(|t| path.is_none_or(|p| t.path == p))
            .map(f)
            .collect();
        median(&xs)
    };
    let all = |f: &dyn Fn(&Trace) -> f64| med_of(None, f);
    let sharp = |f: &dyn Fn(&Trace) -> f64| med_of(Some(Path::Sharp), f);
    let hybrid = |f: &dyn Fn(&Trace) -> f64| med_of(Some(Path::Hybrid), f);
    r.set("query.parse_us", all(&|t| us(t.parse)));
    r.set("plan.core_ms", all(&|t| ms(t.core)));
    r.set(
        "plan.core_atoms_frac",
        all(&|t| t.core_atoms as f64 / t.atoms as f64),
    );
    r.set("plan.search_ms", all(&|t| ms(t.search)));
    r.set("plan.widths_tried", all(&|t| t.widths_tried as f64));
    r.set("plan.bags", all(&|t| t.bags as f64));
    r.set("hybrid.search_ms", hybrid(&|t| ms(t.hybrid_search)));
    r.set("hybrid.count_ms", hybrid(&|t| ms(t.hybrid_count)));
    r.set("bags.complete_us", sharp(&|t| us(t.complete)));
    r.set("bags.materialize_ms", sharp(&|t| ms(t.materialize)));
    r.set("bags.rows", sharp(&|t| t.rows as f64));
    r.set("bags.max_rows", sharp(&|t| t.max_rows as f64));
    r.set("reduce.ms", sharp(&|t| ms(t.reduce)));
    r.set(
        "reduce.rows_kept_frac",
        sharp(&|t| t.kept_rows as f64 / t.rows.max(1) as f64),
    );
    r.set("project.ms", sharp(&|t| ms(t.project)));
    r.set("dp.ms", sharp(&|t| ms(t.dp)));
    r.set("dp.answer_bits", all(&|t| f64::from(t.answer_bits)));
    let stage_sum = all(&|t| ms(t.stage_sum()));
    let traced = all(&|t| ms(t.total));
    r.set("trace.coverage_pct", 100.0 * stage_sum / untraced_ms);
    r.set(
        "trace.overhead_pct",
        100.0 * (traced - untraced_ms) / untraced_ms,
    );
}

/// Median time to fingerprint each of `queries`, as the daemon does on
/// every request (median over queries of the per-query median).
pub fn record_fingerprint(r: &mut Report, queries: &[ConjunctiveQuery]) {
    let per_query: Vec<f64> = queries
        .iter()
        .map(|q| {
            let xs: Vec<f64> = (0..50)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(fingerprint(q));
                    us(t.elapsed())
                })
                .collect();
            median(&xs)
        })
        .collect();
    r.set("query.fingerprint_us", median(&per_query));
}

/// Plan-search and bag-materialization time on one lane over their time
/// on the process's default lanes, summed over `cases`, medians of
/// `reps` alternating repetitions. Returns zeros, publishing nothing,
/// when the default is one lane or more lanes than hardware threads.
pub fn lane_ratios(cases: &[(ConjunctiveQuery, &Database)], reps: usize) -> (f64, f64) {
    let lanes = cqcount_exec::current_threads();
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    if lanes < 2 || lanes > hw {
        return (0.0, 0.0);
    }
    let sum = |f: &dyn Fn(&ConjunctiveQuery, &Database) -> (Duration, Duration)| {
        cases.iter().fold((0.0, 0.0), |(p, b), (q, db)| {
            let (dp, db_) = f(q, db);
            (p + ms(dp), b + ms(db_))
        })
    };
    let (mut p1, mut pn, mut b1, mut bn) = (vec![], vec![], vec![], vec![]);
    for _ in 0..reps {
        let (p, b) = sum(&|q, db| cqcount_exec::with_threads(1, || plan_and_bag_times(q, db)));
        p1.push(p);
        b1.push(b);
        let (p, b) = sum(&plan_and_bag_times);
        pn.push(p);
        bn.push(b);
    }
    let ratio = |a: &[f64], b: &[f64]| {
        let d = median(b);
        if d > 0.0 {
            median(a) / d
        } else {
            0.0
        }
    };
    (ratio(&p1, &pn), ratio(&b1, &bn))
}
