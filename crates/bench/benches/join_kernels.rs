//! Microbenchmarks for the relational join/semijoin kernels: the
//! allocation-free sort-merge kernels (sequential and on the worker pool)
//! against the straw-man hash join they replaced, plus the leapfrog
//! worst-case-optimal kernel against a binary join plan on the cyclic
//! workload it exists for (triangles: the binary plan materializes an
//! O(m²/n) intermediate, leapfrog never leaves the AGM bound). Emits a
//! machine-readable `BENCH_join_kernels.json` at the workspace root
//! alongside the table.

use cqcount_arith::prng::Rng;
use cqcount_bench::{bench_ns, fmt_duration, print_table};
use cqcount_relational::{wcoj_join, Bindings, FxHashMap, Value, WcojInput};
use std::time::Duration;

/// The straw-man join the kernels are measured against: hashes a
/// materialized `Vec<Value>` key per row into a per-call table and builds
/// every output row as its own `Vec`, then canonicalizes through
/// [`Bindings::from_rows`] — the allocation profile the sort-merge kernel
/// in [`Bindings::join`] was written to eliminate.
fn join_hash_baseline(left: &Bindings, right: &Bindings) -> Bindings {
    let shared: Vec<(usize, usize)> = left
        .cols()
        .iter()
        .enumerate()
        .filter_map(|(i, c)| right.cols().iter().position(|d| d == c).map(|j| (i, j)))
        .collect();
    let extra: Vec<usize> = (0..right.cols().len())
        .filter(|j| shared.iter().all(|&(_, sj)| sj != *j))
        .collect();
    let mut index: FxHashMap<Vec<Value>, Vec<&[Value]>> = FxHashMap::default();
    for row in right.rows() {
        let key: Vec<Value> = shared.iter().map(|&(_, j)| row[j]).collect();
        index.entry(key).or_default().push(row);
    }
    let mut out_cols = left.cols().to_vec();
    out_cols.extend(extra.iter().map(|&j| right.cols()[j]));
    let mut rows = Vec::new();
    for lrow in left.rows() {
        let key: Vec<Value> = shared.iter().map(|&(i, _)| lrow[i]).collect();
        for rrow in index.get(&key).into_iter().flatten() {
            let mut row = lrow.to_vec();
            row.extend(extra.iter().map(|&j| rrow[j]));
            rows.push(row);
        }
    }
    Bindings::from_rows(out_cols, rows)
}

struct Case {
    kernel: &'static str,
    rows: usize,
    threads: usize,
    ns_per_op: f64,
}

/// Two relations joining on their (shared, canonical-prefix) first column,
/// domain ≈ rows so each key matches O(1) partners.
fn instance(rows: usize, seed: u64) -> (Bindings, Bindings) {
    let mut rng = Rng::seed_from_u64(seed);
    let domain = rows as u32;
    let mk = |rng: &mut Rng, cols: Vec<u32>| {
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|_| {
                (0..cols.len())
                    .map(|_| Value(rng.range_u32(0, domain)))
                    .collect()
            })
            .collect();
        Bindings::from_rows(cols, data)
    };
    (mk(&mut rng, vec![0, 1]), mk(&mut rng, vec![0, 2]))
}

/// A triangle instance: three edge lists over columns {0,1}, {1,2}, {0,2}
/// with `rows` random edges each. The domain is `rows / 4`, which keeps
/// the pairwise joins dense (≈ 4·rows intermediate tuples) while the
/// triangle output stays tiny — the regime where a binary plan does
/// asymptotically more work than the multiway intersection.
fn triangle_instance(rows: usize, seed: u64) -> (Bindings, Bindings, Bindings) {
    let mut rng = Rng::seed_from_u64(seed);
    let domain = (rows / 4).max(4) as u32;
    let mut mk = |cols: Vec<u32>| {
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|_| {
                (0..cols.len())
                    .map(|_| Value(rng.range_u32(0, domain)))
                    .collect()
            })
            .collect();
        Bindings::from_rows(cols, data)
    };
    (mk(vec![0, 1]), mk(vec![1, 2]), mk(vec![0, 2]))
}

fn main() {
    let hw_threads = cqcount_exec::default_thread_count();
    // Always record a genuine multi-lane configuration, even on single-core
    // hosts (there the N-thread rows measure pool overhead, not speedup).
    let par_threads = if hw_threads > 1 { hw_threads } else { 8 };

    let mut cases: Vec<Case> = Vec::new();
    for rows in [1_000usize, 10_000, 100_000] {
        let (left, right) = instance(rows, 0xBEEF + rows as u64);

        cases.push(Case {
            kernel: "join_hash_baseline",
            rows,
            threads: 1,
            ns_per_op: bench_ns(|| {
                std::hint::black_box(join_hash_baseline(&left, &right));
            }),
        });
        for threads in [1, par_threads] {
            cases.push(Case {
                kernel: "join",
                rows,
                threads,
                ns_per_op: cqcount_exec::with_threads(threads, || {
                    bench_ns(|| {
                        std::hint::black_box(left.join(&right));
                    })
                }),
            });
            cases.push(Case {
                kernel: "semijoin",
                rows,
                threads,
                ns_per_op: cqcount_exec::with_threads(threads, || {
                    bench_ns(|| {
                        std::hint::black_box(left.semijoin(&right));
                    })
                }),
            });
        }
    }

    for rows in [1_000usize, 10_000, 100_000] {
        let (r, s, t) = triangle_instance(rows, 0xCAFE + rows as u64);
        cases.push(Case {
            kernel: "triangle_sortmerge",
            rows,
            threads: 1,
            ns_per_op: cqcount_exec::with_threads(1, || {
                bench_ns(|| {
                    std::hint::black_box(r.join(&s).join(&t));
                })
            }),
        });
        cases.push(Case {
            kernel: "triangle_wcoj",
            rows,
            threads: 1,
            ns_per_op: cqcount_exec::with_threads(1, || {
                bench_ns(|| {
                    let inputs = [
                        WcojInput::from_bindings(&r),
                        WcojInput::from_bindings(&s),
                        WcojInput::from_bindings(&t),
                    ];
                    std::hint::black_box(wcoj_join(&inputs));
                })
            }),
        });
    }

    println!("\n### bench: join_kernels (hardware threads: {hw_threads})\n");
    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|c| {
            vec![
                c.kernel.to_string(),
                c.rows.to_string(),
                c.threads.to_string(),
                fmt_duration(Duration::from_nanos(c.ns_per_op as u64)),
            ]
        })
        .collect();
    print_table(&["kernel", "rows", "threads", "time/op"], &rows);

    for rows in [1_000usize, 10_000, 100_000] {
        let ns_of = |kernel: &str, threads: usize| {
            cases
                .iter()
                .find(|c| c.kernel == kernel && c.rows == rows && c.threads == threads)
                .map(|c| c.ns_per_op)
                .unwrap_or(f64::NAN)
        };
        println!(
            "rows {rows}: sort-merge vs hash baseline {:.2}x (1 thread), {par_threads}-thread join {:.2}x vs 1-thread, wcoj triangle {:.2}x vs binary plan",
            ns_of("join_hash_baseline", 1) / ns_of("join", 1),
            ns_of("join", 1) / ns_of("join", par_threads),
            ns_of("triangle_sortmerge", 1) / ns_of("triangle_wcoj", 1),
        );
    }

    // Hand-rolled JSON (no serde in the dependency graph).
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"join_kernels\",\n");
    json.push_str(&format!("  \"hardware_threads\": {hw_threads},\n"));
    json.push_str("  \"unit\": \"ns_per_op\",\n");
    json.push_str("  \"results\": [\n");
    for (i, c) in cases.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"rows\": {}, \"threads\": {}, \"ns_per_op\": {:.0}}}{}\n",
            c.kernel,
            c.rows,
            c.threads,
            c.ns_per_op,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_join_kernels.json");
    std::fs::write(out, &json).expect("write BENCH_join_kernels.json");
    println!("\nwrote {out}");
}
