//! `daemon_mixed`: an in-process `cqcountd` with a data directory, two
//! closed-loop clients on two connections, 95% `COUNT` over 68 queries
//! and 5% `MUTATE` batches. It exercises serving, both cache levels,
//! delta maintenance and the WAL, with writes beside reads.

use crate::stages::{paired, record_fingerprint, record_stages};
use crate::stats::{median, ms, percentile, samples_for, us};
use crate::{timed_s, Opts, Report, SETUP_REPS};
use cqcount_arith::prng::Rng;
use cqcount_arith::Natural;
use cqcount_delta::MaterializedCount;
use cqcount_hypergraph::is_acyclic;
use cqcount_query::{fingerprint, parse_query, ConjunctiveQuery, Term};
use cqcount_relational::Database;
use cqcount_server::protocol::{parse_frame_prefix, VERSION};
use cqcount_server::{
    serve, CacheTier, Client, DurabilityPolicy, MutationOp, Request, Response, ServerConfig,
    ServerHandle,
};
use cqcount_workloads::intro::intro_instance;
use cqcount_workloads::q0_query;
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const FACTOR: usize = 16;
const SMOKE_FACTOR: usize = 2;
const CLIENTS: usize = 2;
/// Share of requests that are `MUTATE` batches.
const MUTATE_SHARE: f64 = 0.05;
/// Full α-acyclic sub-queries of Q0: more than the server's default
/// `materialize_cap` of 32, so its FIFO of maintained counts overflows.
const MAINTAINABLE: usize = 48;
/// Inserted `st`+`rr` pairs a client keeps live before deleting them.
const LIVE_PAIRS: usize = 8;
const TAIL_PCT: u32 = 99;
/// The tail of `MUTATE` latency a run has ten samples beyond.
const MUTATE_TAIL_PCT: u32 = 90;
const DB: &str = "main";

/// The 68 queries: 20 projections of Q0 (every free set of size 2–3 over
/// `{A..E}`) and 48 distinct full α-acyclic connected sub-queries of Q0.
pub fn queries() -> (Vec<String>, Vec<String>) {
    let q0 = q0_query();
    let names = ["A", "B", "C", "D", "E"];
    let mut projections = Vec::new();
    for mask in 0u32..32 {
        if !(2..=3).contains(&mask.count_ones()) {
            continue;
        }
        let mut q = q0.clone();
        let free: Vec<_> = (0..5)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| q.var(names[i]))
            .collect();
        q.set_free(free);
        projections.push(q.to_string());
    }
    // Smallest sub-queries first; isomorphic ones share a cache key, so
    // keep one per canonical form.
    let natoms = q0.atoms().len();
    let mut masks: Vec<u32> = (1u32..1 << natoms).collect();
    masks.sort_by_key(|m| (m.count_ones(), *m));
    let mut seen = BTreeSet::new();
    let mut full = Vec::new();
    for mask in masks {
        let mut q = ConjunctiveQuery::new();
        for (i, a) in q0.atoms().iter().enumerate() {
            if mask & (1 << i) != 0 {
                let terms = a
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => Term::Var(q.var(q0.var_name(*v))),
                        Term::Const(c) => Term::Const(c.clone()),
                    })
                    .collect();
                q.add_atom(&a.rel, terms);
            }
        }
        q.set_free(q.vars_in_atoms());
        let h = q.hypergraph();
        if !is_acyclic(&h) || !connected(&q) || !seen.insert(fingerprint(&q).text) {
            continue;
        }
        full.push(q.to_string());
        if full.len() == MAINTAINABLE {
            break;
        }
    }
    assert_eq!(full.len(), MAINTAINABLE, "Q0 has enough sub-queries");
    (projections, full)
}

fn connected(q: &ConjunctiveQuery) -> bool {
    let atoms = q.atoms();
    let mut reached = vec![false; atoms.len()];
    let mut stack = vec![0];
    reached[0] = true;
    while let Some(i) = stack.pop() {
        for j in 0..atoms.len() {
            if !reached[j] && atoms[i].vars().iter().any(|v| atoms[j].vars().contains(v)) {
                reached[j] = true;
                stack.push(j);
            }
        }
    }
    reached.iter().all(|&r| r)
}

fn config(dir: std::path::PathBuf) -> ServerConfig {
    ServerConfig {
        data_dir: Some(dir),
        durability: DurabilityPolicy::Batch,
        ..ServerConfig::default()
    }
}

/// What one client did.
#[derive(Default)]
struct ClientLog {
    counts: Vec<(f64, CacheTier)>,
    mutates: Vec<f64>,
    /// Acknowledged batches, in this client's order.
    batches: Vec<Vec<MutationOp>>,
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
}

fn op(insert: bool, rel: &str, values: [&str; 2]) -> MutationOp {
    MutationOp {
        insert,
        rel: rel.into(),
        values: values.iter().map(|v| v.to_string()).collect(),
    }
}

/// Generator state for one client's mutation stream. Every new constant
/// is owned by the client, so the two clients' writes commute.
struct Writer {
    id: usize,
    next: u64,
    live: VecDeque<[String; 3]>,
    tasks: usize,
    resources: usize,
}

impl Writer {
    fn batch(&mut self, rng: &mut Rng) -> Vec<MutationOp> {
        let grow =
            self.live.len() < LIVE_PAIRS / 2 || (self.live.len() < LIVE_PAIRS && rng.chance(0.5));
        let (insert, [task, sub, res]) = if grow {
            self.next += 1;
            let pair = [
                format!("task{}", rng.range_usize(0, self.tasks)),
                format!("bench{}_{}", self.id, self.next),
                format!("res{}", rng.range_usize(0, self.resources)),
            ];
            self.live.push_back(pair.clone());
            (true, pair)
        } else {
            (false, self.live.pop_front().expect("a live pair"))
        };
        vec![
            op(insert, "st", [&task, &sub]),
            op(insert, "rr", [&sub, &res]),
        ]
    }
}

/// What the client threads share.
struct Load<'a> {
    addr: std::net::SocketAddr,
    opts: &'a Opts,
    texts: &'a [String],
    stop: AtomicBool,
    counts_done: AtomicU64,
    mutates_done: AtomicU64,
}

fn client_loop(load: &Load, id: usize, writer: &mut Writer) -> ClientLog {
    let Load {
        addr,
        opts,
        texts,
        stop,
        counts_done,
        mutates_done,
    } = load;
    let mut log = ClientLog::default();
    let mut client = Client::connect(*addr).expect("the daemon accepts");
    let mut rng =
        Rng::seed_from_u64(opts.seed ^ 0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(id as u64 + 1));
    while !stop.load(Ordering::Relaxed) {
        log.attempted += 1;
        if rng.chance(MUTATE_SHARE) {
            let ops = writer.batch(&mut rng);
            let t = Instant::now();
            let res = client.mutate(DB, ops.clone());
            let d = t.elapsed();
            match res {
                Ok(receipt) => {
                    log.mutates.push(ms(d));
                    mutates_done.fetch_add(1, Ordering::Relaxed);
                    if receipt.changed != ops.len() as u64 {
                        log.mismatches.push(format!(
                            "client {id}: a batch changed {} of {} tuples",
                            receipt.changed,
                            ops.len()
                        ));
                    }
                    log.batches.push(ops);
                }
                Err(e) => {
                    log.failed += 1;
                    log.mismatches
                        .push(format!("client {id}: MUTATE failed: {e}"));
                    // The batch's fate is unknown: stop this client so
                    // the final oracle stays decidable.
                    break;
                }
            }
        } else {
            let text = &texts[rng.range_usize(0, texts.len())];
            let t = Instant::now();
            let res = client.count(DB, text, 0);
            let d = t.elapsed();
            match res {
                Ok(reply) => {
                    log.counts.push((ms(d), reply.cached));
                    counts_done.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => log.failed += 1,
            }
        }
    }
    log
}

/// Series `name` (labels included) from a Prometheus text scrape.
fn scrape(text: &str, name: &str) -> f64 {
    text.lines()
        .filter_map(|l| l.strip_prefix(name))
        .filter_map(|rest| rest.strip_prefix(' '))
        .find_map(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

fn apply(db: &mut Database, batch: &[MutationOp]) {
    for o in batch {
        let values: Vec<&str> = o.values.iter().map(String::as_str).collect();
        let _ = if o.insert {
            db.insert_tuple(&o.rel, &values)
        } else {
            db.delete_tuple(&o.rel, &values)
        };
    }
}

pub fn run(opts: &Opts) -> Report {
    let mut r = Report::default();
    let factor = if opts.smoke { SMOKE_FACTOR } else { FACTOR };
    let scale = crate::e10::scale(factor);
    let (projections, full) = queries();
    let texts: Vec<String> = projections.iter().chain(&full).cloned().collect();

    // Set-up: generate and boot, several times; serve from the last boot.
    let boot = |rep: usize| {
        let dir = opts.scratch.join(format!("daemon-{rep}"));
        let (_, db) = intro_instance(&scale, opts.seed);
        let handle =
            serve(config(dir.clone()), vec![(DB.into(), db.clone())]).expect("the daemon boots");
        (handle, db, dir)
    };
    let retire = |(old, _, dir): (ServerHandle, Database, std::path::PathBuf)| {
        old.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    };
    let mut setups = Vec::new();
    let mut booted = None;
    for rep in 0..SETUP_REPS {
        if let Some(b) = booted.take() {
            retire(b);
        }
        let (s, b) = timed_s(|| boot(rep));
        setups.push(s);
        booted = Some(b);
    }
    let (server, initial, dir) = booted.expect("at least one boot");
    let defaults = ServerConfig::default();
    r.meta("factor", factor);
    r.meta("tuples", initial.total_tuples());
    let clients = CLIENTS.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    r.meta("clients", clients);
    r.meta("workers", defaults.workers);
    r.meta("durability", "batch");
    r.meta("materialize_cap", defaults.materialize_cap);
    r.meta("count_cache_cap", defaults.count_cache_cap);
    r.meta(
        "queries",
        format!("{} projections + {} full", projections.len(), full.len()),
    );
    r.meta("mutate_share", MUTATE_SHARE);
    r.meta("tail_pct", TAIL_PCT);

    // Timed pass: two closed-loop clients until the deadline, and on
    // until both percentiles have their samples (or 3x the deadline).
    let addr = server.local_addr();
    let load = Load {
        addr,
        opts,
        texts: &texts,
        stop: AtomicBool::new(false),
        counts_done: AtomicU64::new(0),
        mutates_done: AtomicU64::new(0),
    };
    let mut writers: Vec<Writer> = (0..clients)
        .map(|id| Writer {
            id,
            next: 0,
            live: VecDeque::new(),
            tasks: scale.tasks,
            resources: scale.resources,
        })
        .collect();
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = writers
            .iter_mut()
            .enumerate()
            .map(|(id, w)| {
                let load = &load;
                s.spawn(move || client_loop(load, id, w))
            })
            .collect();
        let dur = opts.duration();
        loop {
            std::thread::sleep(Duration::from_millis(20));
            let el = start.elapsed();
            let enough = load.counts_done.load(Ordering::Relaxed) as usize >= samples_for(TAIL_PCT)
                && load.mutates_done.load(Ordering::Relaxed) as usize
                    >= samples_for(MUTATE_TAIL_PCT);
            if el >= dur && (enough || el >= dur * 3) {
                break;
            }
        }
        load.stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let elapsed = start.elapsed();
    for rep in 0..SETUP_REPS {
        let (s, b) = timed_s(|| boot(SETUP_REPS + rep));
        setups.push(s);
        retire(b);
    }
    r.set("setup_s", median(&setups));

    let mut counts = Vec::new();
    let mut mutates = Vec::new();
    for log in &logs {
        counts.extend(log.counts.iter().copied());
        mutates.extend(log.mutates.iter().copied());
        r.attempted += log.attempted;
        r.failed += log.failed;
        r.mismatches.extend(log.mismatches.iter().cloned());
    }
    let lat: Vec<f64> = counts.iter().map(|c| c.0).collect();
    r.meta("count_samples", lat.len());
    r.meta("mutate_samples", mutates.len());
    r.set("count_p50_ms", median(&lat));
    r.set("count_tail_ms", percentile(&lat, f64::from(TAIL_PCT)));
    r.set(
        "ops_per_s",
        (lat.len() + mutates.len()) as f64 / elapsed.as_secs_f64(),
    );
    r.set("mutate_p50_ms", median(&mutates));
    r.set(
        "mutate_p90_ms",
        percentile(&mutates, f64::from(MUTATE_TAIL_PCT)),
    );
    let tier =
        |t: CacheTier| -> Vec<f64> { counts.iter().filter(|c| c.1 == t).map(|c| c.0).collect() };
    let (warm, plan_warm, cold) = (
        tier(CacheTier::CountWarm),
        tier(CacheTier::PlanWarm),
        tier(CacheTier::Cold),
    );
    r.meta(
        "tiers",
        format!(
            "count-warm {} / plan-warm {} / cold {}",
            warm.len(),
            plan_warm.len(),
            cold.len()
        ),
    );
    r.set("server.count_warm_us_p50", 1e3 * median(&warm));
    r.set("server.plan_warm_ms_p50", median(&plan_warm));
    r.set("server.plan_warm_ms_p99", percentile(&plan_warm, 99.0));
    r.set("server.cold_ms_p50", median(&cold));

    let mut admin = Client::connect(addr).expect("the daemon accepts");
    let metrics = admin.metrics().expect("METRICS answers");
    let cache_frac = |which: &str| {
        let hits = scrape(
            &metrics,
            &format!("cqcount_cache_hits_total{{cache=\"{which}\"}}"),
        );
        let misses = scrape(
            &metrics,
            &format!("cqcount_cache_misses_total{{cache=\"{which}\"}}"),
        );
        hits / (hits + misses).max(1.0)
    };
    r.set("cache.count_hit_frac", cache_frac("count"));
    r.set("cache.plan_hit_frac", cache_frac("plan"));
    r.set(
        "cache.evictions",
        scrape(&metrics, "cqcount_cache_evictions_total{cache=\"count\"}")
            + scrape(&metrics, "cqcount_cache_evictions_total{cache=\"plan\"}"),
    );
    r.set(
        "delta.fallbacks",
        scrape(&metrics, "cqcount_delta_fallbacks_total"),
    );
    let batches = mutates.len().max(1) as f64;
    r.set(
        "wal.bytes_per_mutation",
        scrape(&metrics, "cqcount_wal_bytes_total") / batches,
    );
    r.set(
        "wal.fsyncs_per_mutation",
        scrape(&metrics, "cqcount_wal_fsyncs_total") / batches,
    );
    r.set(
        "snapshot.count",
        scrape(&metrics, "cqcount_snapshots_written_total"),
    );

    // Oracle: replay every acknowledged batch on a shadow copy, then
    // every query's daemon count must equal a fresh in-process count.
    let mut shadow = initial.clone();
    for log in &logs {
        for b in &log.batches {
            apply(&mut shadow, b);
        }
    }
    let live = shadow.total_tuples();
    r.set(
        "disk_bytes_per_tuple",
        crate::dir_bytes(&dir) as f64 / live as f64,
    );
    r.meta("live_tuples", live);
    // Each query also runs stage by stage right after its one call, on
    // the same data; that is the traced pass's input too.
    let mut expected = Vec::new();
    let mut one_call_ms = Vec::new();
    let mut traces = Vec::new();
    for text in &texts {
        let p = paired(text, &shadow);
        let e = opts.expect(p.count);
        match admin.count(DB, text, 0) {
            Ok(reply) => r.check(reply.value == e.to_string(), || {
                format!("daemon counted {} for {text}, expected {e}", reply.value)
            }),
            Err(err) => r.check(false, || format!("final COUNT of {text} failed: {err}")),
        }
        r.check(p.traced == e, || {
            format!(
                "stage recomposition counted {} for {text}, expected {e}",
                p.traced
            )
        });
        one_call_ms.push(p.ms);
        traces.push(p.trace);
        expected.push(e);
    }
    drop(admin);
    server.shutdown();
    r.set("peak_rss_mb", crate::peak_rss_mb());

    if !opts.trace {
        return r;
    }
    record_stages(&mut r, &traces, median(&one_call_ms));
    let parsed: Vec<ConjunctiveQuery> = texts
        .iter()
        .map(|t| parse_query(t).expect("benchmark queries parse"))
        .collect();
    record_fingerprint(&mut r, &parsed);
    record_protocol(&mut r, &texts, &logs);
    replay_deltas(
        &mut r,
        &initial,
        &full,
        &logs,
        &expected[projections.len()..],
    );
    r
}

/// Encode and decode time of the workload's messages: a `COUNT` per
/// query, a `MUTATE` batch, and their replies (median per message, then
/// the median over messages).
fn record_protocol(r: &mut Report, texts: &[String], logs: &[ClientLog]) {
    let mut requests: Vec<Request> = texts
        .iter()
        .map(|t| Request::Count {
            db: DB.into(),
            query: t.clone(),
            budget_ms: 0,
        })
        .collect();
    if let Some(b) = logs.iter().find_map(|l| l.batches.first()) {
        requests.push(Request::Mutate {
            db: DB.into(),
            ops: b.clone(),
        });
    }
    let responses = [
        Response::Count {
            value: "123456789".into(),
            plan: "sharp-pipeline(width=2)".into(),
            cached: CacheTier::CountWarm,
            degraded: false,
            fingerprint: 0x1234_5678_9abc_def0,
        },
        Response::Mutated {
            changed: 2,
            mutation_seq: 1000,
        },
    ];
    let time_ns = |f: &dyn Fn()| -> f64 {
        let xs: Vec<f64> = (0..50)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos() as f64
            })
            .collect();
        median(&xs)
    };
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for req in &requests {
        let bytes = req.encode(VERSION, 7);
        enc.push(time_ns(&|| {
            std::hint::black_box(req.encode(VERSION, 7));
        }));
        dec.push(time_ns(&|| {
            let (frame, _) = parse_frame_prefix(&bytes)
                .expect("well-formed frame")
                .expect("a whole frame");
            std::hint::black_box(Request::decode(&frame).expect("decodes"));
        }));
    }
    for resp in &responses {
        let bytes = resp.encode(VERSION, 7);
        enc.push(time_ns(&|| {
            std::hint::black_box(resp.encode(VERSION, 7));
        }));
        dec.push(time_ns(&|| {
            let (frame, _) = parse_frame_prefix(&bytes)
                .expect("well-formed frame")
                .expect("a whole frame");
            std::hint::black_box(Response::decode(&frame).expect("decodes"));
        }));
    }
    r.set("protocol.encode_ns", median(&enc));
    r.set("protocol.decode_ns", median(&dec));
}

/// Replays the run's acknowledged mutation stream through one
/// [`MaterializedCount`] per maintainable query, in process; the
/// maintained counts must end equal to the fresh counts `expected`.
fn replay_deltas(
    r: &mut Report,
    initial: &Database,
    full: &[String],
    logs: &[ClientLog],
    expected: &[Natural],
) {
    let mut db = initial.clone();
    let mut builds = Vec::new();
    let mut mats = Vec::new();
    for text in full {
        let q = parse_query(text).expect("benchmark queries parse");
        let t = Instant::now();
        let mc = MaterializedCount::build(&q, &db).expect("full acyclic queries materialize");
        builds.push(ms(t.elapsed()));
        mats.push(mc);
    }
    r.set("delta.build_ms", median(&builds));
    let (mut apply_us, mut touched, mut ops) = (Vec::new(), 0u64, 0u64);
    for batch in logs.iter().flat_map(|l| &l.batches) {
        for o in batch {
            let values: Vec<&str> = o.values.iter().map(String::as_str).collect();
            let changed = if o.insert {
                db.insert_tuple(&o.rel, &values)
            } else {
                db.delete_tuple(&o.rel, &values)
            };
            if !matches!(changed, Ok(true)) {
                r.check(false, || format!("replayed op {o:?} was not effective"));
                continue;
            }
            let tuple: Vec<_> = values
                .iter()
                .map(|v| db.interner().get(v).expect("interned by the op"))
                .collect();
            let t = Instant::now();
            for mc in mats.iter_mut().filter(|m| m.mentions(&o.rel)) {
                match mc.apply_delta(&db, &o.rel, &tuple, o.insert) {
                    Ok(out) => touched += out.bags_touched,
                    Err(f) => r.check(false, || format!("delta fault: {f:?}")),
                }
            }
            apply_us.push(us(t.elapsed()));
            ops += 1;
        }
    }
    r.set("delta.apply_us", median(&apply_us));
    r.set(
        "delta.bags_touched_per_op",
        touched as f64 / ops.max(1) as f64,
    );
    for ((mc, e), text) in mats.iter().zip(expected).zip(full) {
        let n = mc.count();
        r.check(n == *e, || {
            format!("maintained count {n} for {text}, expected {e}")
        });
    }
}
