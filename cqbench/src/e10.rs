//! `e10_pipeline`: Theorem 1.3 / E10. The paper's Q0 over the
//! introduction's scenario at factor 1024, opened from an mmap'd store
//! image, counted by one closed-loop caller one request at a time.

use crate::stages::{
    lane_ratios, one_call, one_call_with_kernel, paired, record_fingerprint, record_stages,
    traced_count, Paired, Trace,
};
use crate::stats::{median, ms, percentile, samples_for};
use crate::{closed_loop, timed_s, Opts, Report, SETUP_REPS};
use cqcount_arith::Natural;
use cqcount_core::brute::count_brute_force;
use cqcount_query::parse_query;
use cqcount_relational::store::{encode_store, open_store};
use cqcount_relational::{Database, JoinKernel};
use cqcount_workloads::intro::{intro_instance, IntroScale};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const FACTOR: usize = 1024;
const SMOKE_FACTOR: usize = 8;
/// Kernel parity runs at this factor: leapfrog pinned on every
/// multi-atom bag is about 140x slower than the planner's choice at
/// factor 1024 (README, findings), too slow to repeat every run.
const KERNEL_FACTOR: usize = 64;
/// The highest percentile a run has ten samples beyond.
const TAIL_PCT: u32 = 90;

/// The E10 scale family (as in the `headline_scaling` bench).
pub fn scale(factor: usize) -> IntroScale {
    IntroScale {
        workers: 25 * factor,
        machines: 10 * factor,
        projects: 6 * factor,
        tasks: 15 * factor,
        subtasks_per_task: 4,
        resources: 8 * factor,
    }
}

struct Loaded {
    text: String,
    db: Database,
    tuples: usize,
    image_bytes: usize,
    encode: Duration,
    open: Duration,
}

/// Generates the instance, writes it as a store image, and reopens it.
/// Every image gets a file of its own: rewriting a file that a live
/// database still maps would pull its pages out from under it.
fn setup(opts: &Opts, factor: usize) -> Loaded {
    static IMAGES: AtomicUsize = AtomicUsize::new(0);
    let (q, heap) = intro_instance(&scale(factor), opts.seed);
    let tuples = heap.total_tuples();
    let image_no = IMAGES.fetch_add(1, Ordering::Relaxed);
    let path = opts.scratch.join(format!("e10-{image_no}.store"));
    let t = Instant::now();
    let image = encode_store(&heap, 0, 0);
    std::fs::write(&path, &image).expect("scratch directory is writable");
    let encode = t.elapsed();
    drop(heap);
    let t = Instant::now();
    let db = open_store(&path).expect("a fresh image opens").db;
    let open = t.elapsed();
    Loaded {
        text: q.to_string(),
        db,
        tuples,
        image_bytes: image.len(),
        encode,
        open,
    }
}

pub fn run(opts: &Opts) -> Report {
    let mut r = Report::default();
    let factor = if opts.smoke { SMOKE_FACTOR } else { FACTOR };
    let mut setups = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUP_REPS {
        let (s, l) = timed_s(|| setup(opts, factor));
        setups.push(s);
        loaded = Some(l);
    }
    let l = loaded.expect("at least one set-up");
    r.meta("factor", factor);
    r.meta("tuples", l.tuples);
    r.meta("image_bytes", l.image_bytes);
    r.meta("callers", 1);
    r.meta("tail_pct", TAIL_PCT);
    r.set(
        "disk_bytes_per_tuple",
        l.image_bytes as f64 / l.tuples as f64,
    );
    r.set("store.encode_ms", ms(l.encode));
    r.set("store.open_ms", ms(l.open));
    let (mapped, resident) = (l.db.mapped_bytes(), l.db.resident_bytes());
    r.set(
        "store.mapped_frac",
        mapped as f64 / (mapped + resident).max(1) as f64,
    );

    // Warm-up: the pool's threads and the allocator's arenas exist
    // before the first timed request.
    let expected = opts.expect(one_call(&l.text, &l.db));
    if opts.trace {
        traced_pass(&mut r, opts, &l, &expected);
    } else {
        let (samples, elapsed) = closed_loop(opts.duration(), samples_for(TAIL_PCT), |_| {
            one_call(&l.text, &l.db)
        });
        for (i, (_, n)) in samples.iter().enumerate() {
            r.check(*n == expected, || {
                format!("request {i} counted {n}, expected {expected}")
            });
        }
        r.attempted = samples.len() as u64;
        r.meta("samples", samples.len());
        let lat: Vec<f64> = samples.iter().map(|(d, _)| ms(*d)).collect();
        r.set("count_p50_ms", median(&lat));
        r.set("count_tail_ms", percentile(&lat, f64::from(TAIL_PCT)));
        r.set("ops_per_s", samples.len() as f64 / elapsed.as_secs_f64());
        for _ in 0..SETUP_REPS {
            setups.push(timed_s(|| setup(opts, factor)).0);
        }
        r.set("setup_s", median(&setups));
        let (n, _) = traced_count(&l.text, &l.db);
        r.check(n == expected, || {
            format!("stage recomposition counted {n}, expected {expected}")
        });
    }
    r.meta("count", &expected);

    // Oracles beyond "the same count every time".
    let k = setup(opts, KERNEL_FACTOR.min(factor));
    let planned = opts.expect(one_call(&k.text, &k.db));
    for kernel in [JoinKernel::SortMerge, JoinKernel::Wcoj] {
        let n = one_call_with_kernel(&k.text, &k.db, Some(kernel));
        r.check(n == planned, || {
            format!("{kernel:?} kernel counted {n}, the planner's kernel {planned}")
        });
    }
    drop(k);
    let (q1, db1) = intro_instance(&scale(1), opts.seed);
    let small = one_call(&q1.to_string(), &db1);
    let brute = opts.expect(count_brute_force(&q1, &db1));
    r.check(small == brute, || {
        format!("factor 1: pipeline counted {small}, brute force {brute}")
    });
    r.set("peak_rss_mb", crate::peak_rss_mb());
    r
}

/// The traced pass: every request runs untraced and then traced, back to
/// back, so both sides see the same host speed.
fn traced_pass(r: &mut Report, opts: &Opts, l: &Loaded, expected: &Natural) {
    let (pairs, _) = closed_loop(opts.duration(), 20, |_| paired(&l.text, &l.db));
    let pairs: Vec<Paired> = pairs.into_iter().map(|(_, p)| p).collect();
    for (i, p) in pairs.iter().enumerate() {
        r.check(p.count == *expected && p.traced == *expected, || {
            format!(
                "request {i} counted {} in one call and {} by stages, expected {expected}",
                p.count, p.traced
            )
        });
    }
    r.attempted = pairs.len() as u64;
    r.meta("samples", pairs.len());
    let untraced: Vec<f64> = pairs.iter().map(|p| p.ms).collect();
    let traces: Vec<Trace> = pairs.into_iter().map(|p| p.trace).collect();
    record_stages(r, &traces, median(&untraced));
    let q = parse_query(&l.text).expect("Q0 parses");
    record_fingerprint(r, std::slice::from_ref(&q));
    let (plan, bags) = lane_ratios(&[(q, &l.db)], 5);
    r.set("exec.plan_search_1t_over_nt", plan);
    r.set("exec.bags_1t_over_nt", bags);
}
