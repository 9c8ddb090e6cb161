//! `planner_mix`: planning is the work and data is negligible. A fresh
//! seeded cyclic star-schema query per request over a tiny database;
//! every 8th request is Example 6.3's hybrid family instead, which has no
//! `#`-hypertree decomposition within the cap and goes to the `#ᵦ`
//! search (§6).

use crate::stages::{lane_ratios, one_call, paired, record_fingerprint, record_stages, Paired};
use crate::stats::{median, ms, percentile, samples_for};
use crate::{closed_loop, timed_s, Opts, Report, SETUP_REPS};
use cqcount_arith::prng::Rng;
use cqcount_arith::Natural;
use cqcount_core::brute::count_brute_force;
use cqcount_query::{parse_query, ConjunctiveQuery};
use cqcount_relational::Database;
use cqcount_workloads::paper::{hybrid_database_scaled, hybrid_expected_count, hybrid_query};
use cqcount_workloads::random::{random_cyclic_query, random_database, RandomDbConfig};
use std::collections::BTreeMap;
use std::time::Duration;

/// Requests generated per set-up; a run cycles through them.
const POOL: usize = 512;
/// Every `HYBRID_EVERY`-th request is the hybrid one.
const HYBRID_EVERY: usize = 8;
const TAIL_PCT: u32 = 90;

struct Sizes {
    atoms: (usize, usize),
    db: RandomDbConfig,
    hybrid_h: usize,
    hybrid_z: usize,
}

fn sizes(smoke: bool) -> Sizes {
    // Domain 3 keeps most random counts non-zero, so the brute-force
    // oracle compares real numbers.
    let db = RandomDbConfig {
        domain: 3,
        tuples_per_rel: 12,
    };
    if smoke {
        Sizes {
            atoms: (5, 7),
            db,
            hybrid_h: 2,
            hybrid_z: 4,
        }
    } else {
        Sizes {
            atoms: (8, 16),
            db,
            hybrid_h: 3,
            hybrid_z: 32,
        }
    }
}

/// One request: the query text and the database it counts over (the
/// hybrid requests share theirs).
struct Request {
    text: String,
    db: usize,
    hybrid: bool,
}

struct Pool {
    requests: Vec<Request>,
    dbs: Vec<Database>,
}

fn generate(opts: &Opts, s: &Sizes) -> Pool {
    let mut rng = Rng::seed_from_u64(opts.seed);
    let mut dbs = vec![hybrid_database_scaled(s.hybrid_h, s.hybrid_z)];
    let hybrid_text = hybrid_query(s.hybrid_h).to_string();
    let mut requests = Vec::with_capacity(POOL);
    for i in 0..POOL {
        if i % HYBRID_EVERY == HYBRID_EVERY - 1 {
            requests.push(Request {
                text: hybrid_text.clone(),
                db: 0,
                hybrid: true,
            });
            continue;
        }
        // Sizes cycle through the range, so every seed runs the same
        // size mix and only the query shapes differ.
        let atoms = s.atoms.0 + i % (s.atoms.1 - s.atoms.0 + 1);
        let q = random_cyclic_query(atoms, rng.next_u64());
        dbs.push(random_database(&q, &s.db, rng.next_u64()));
        requests.push(Request {
            text: q.to_string(),
            db: dbs.len() - 1,
            hybrid: false,
        });
    }
    Pool { requests, dbs }
}

pub fn run(opts: &Opts) -> Report {
    let mut r = Report::default();
    let s = sizes(opts.smoke);
    let mut setups = Vec::new();
    let mut pool = None;
    for _ in 0..SETUP_REPS {
        let (t, p) = timed_s(|| generate(opts, &s));
        setups.push(t);
        pool = Some(p);
    }
    let pool = pool.expect("at least one set-up");
    r.meta("atoms", format!("{}..={}", s.atoms.0, s.atoms.1));
    r.meta(
        "db",
        format!(
            "domain {} x {} tuples/rel",
            s.db.domain, s.db.tuples_per_rel
        ),
    );
    r.meta(
        "hybrid",
        format!("h={} z={} every {HYBRID_EVERY}th", s.hybrid_h, s.hybrid_z),
    );
    r.meta("callers", 1);
    r.meta("tail_pct", TAIL_PCT);

    let request = |i: usize| &pool.requests[i % POOL];
    // Oracles: brute force for every random request, the paper's closed
    // form for the hybrid one.
    let mut expected: BTreeMap<usize, Natural> = BTreeMap::new();
    let mut expect = |i: usize| -> Natural {
        let k = i % POOL;
        expected
            .entry(k)
            .or_insert_with(|| {
                let req = &pool.requests[k];
                opts.expect(if req.hybrid {
                    Natural::from(hybrid_expected_count(s.hybrid_h))
                } else {
                    let q = parse_query(&req.text).expect("generated queries parse");
                    count_brute_force(&q, &pool.dbs[req.db])
                })
            })
            .clone()
    };
    let warm = request(POOL - 1);
    one_call(&warm.text, &pool.dbs[warm.db]);

    if !opts.trace {
        // A set-up lasts ~50 ms, so it samples only the moment it runs
        // in, and the host's speed drifts over seconds. The later set-ups
        // are therefore timed between segments of the timed pass, not
        // after it, so `setup_s` samples the whole run.
        let segments = SETUP_REPS as u32 + 1;
        let (mut samples, mut elapsed, mut next) = (Vec::new(), Duration::ZERO, 0);
        for k in 0..segments {
            if k > 0 {
                setups.push(timed_s(|| generate(opts, &s)).0);
            }
            let min = if k + 1 == segments {
                samples_for(TAIL_PCT).saturating_sub(samples.len())
            } else {
                0
            };
            let (segment, took) = closed_loop(opts.duration() / segments, min, |_| {
                let req = request(next);
                next += 1;
                one_call(&req.text, &pool.dbs[req.db])
            });
            samples.extend(segment);
            elapsed += took;
        }
        r.attempted = samples.len() as u64;
        r.meta("samples", samples.len());
        let lat: Vec<f64> = samples.iter().map(|(d, _)| ms(*d)).collect();
        r.set("count_p50_ms", median(&lat));
        r.set("count_tail_ms", percentile(&lat, f64::from(TAIL_PCT)));
        r.set("ops_per_s", samples.len() as f64 / elapsed.as_secs_f64());
        r.set("setup_s", median(&setups));
        let mut zero = 0;
        for (i, (_, n)) in samples.iter().enumerate() {
            let e = expect(i);
            zero += usize::from(n.is_zero());
            r.check(*n == e, || format!("request {i} counted {n}, expected {e}"));
        }
        r.meta("zero_counts", zero);
        r.set("peak_rss_mb", crate::peak_rss_mb());
        return r;
    }

    // Traced pass: every request runs untraced and then traced, back to
    // back, so both sides see the same host speed.
    let (pairs, _) = closed_loop(opts.duration(), 20, |i| {
        let req = request(i);
        paired(&req.text, &pool.dbs[req.db])
    });
    let pairs: Vec<Paired> = pairs.into_iter().map(|(_, p)| p).collect();
    for (i, p) in pairs.iter().enumerate() {
        let e = expect(i);
        r.check(p.count == e && p.traced == e, || {
            format!(
                "request {i} counted {} in one call and {} by stages, expected {e}",
                p.count, p.traced
            )
        });
    }
    r.attempted = pairs.len() as u64;
    r.meta("samples", pairs.len());
    let untraced: Vec<f64> = pairs.iter().map(|p| p.ms).collect();
    let traces: Vec<_> = pairs.into_iter().map(|p| p.trace).collect();
    record_stages(&mut r, &traces, median(&untraced));
    let random: Vec<(ConjunctiveQuery, &Database)> = pool
        .requests
        .iter()
        .filter(|q| !q.hybrid)
        .take(3)
        .map(|q| {
            (
                parse_query(&q.text).expect("generated queries parse"),
                &pool.dbs[q.db],
            )
        })
        .collect();
    let queries: Vec<ConjunctiveQuery> = random.iter().map(|(q, _)| q.clone()).collect();
    record_fingerprint(&mut r, &queries);
    let (plan, bags) = lane_ratios(&random, 3);
    r.set("exec.plan_search_1t_over_nt", plan);
    r.set("exec.bags_1t_over_nt", bags);
    r.set("peak_rss_mb", crate::peak_rss_mb());
    r
}
