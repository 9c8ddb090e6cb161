//! One benchmark for the cqcount workspace.
//!
//! ```text
//! cargo run --release --manifest-path cqbench/Cargo.toml -- \
//!     --workload <e10_pipeline|planner_mix|daemon_mixed> --seed N --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` the timed pass prints every end-to-end metric; with
//! `--trace 1` a separate traced pass over the same inputs prints every
//! per-layer metric. Every run checks its counts against oracles and
//! exits non-zero on a mismatch. The last line of standard output is one
//! JSON object; the line before it carries the run's metadata. See
//! `README.md` in this directory for the workloads and metrics.

mod daemon;
mod e10;
mod planner_mix;
mod stages;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every untraced run (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("count_p50_ms", "ms"),
    ("count_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (name, unit). A layer a
/// workload does not exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("query.parse_us", "us"),
    ("query.fingerprint_us", "us"),
    ("plan.core_ms", "ms"),
    ("plan.core_atoms_frac", "frac"),
    ("plan.search_ms", "ms"),
    ("plan.widths_tried", "count"),
    ("plan.bags", "count"),
    ("exec.plan_search_1t_over_nt", "ratio"),
    ("exec.bags_1t_over_nt", "ratio"),
    ("hybrid.search_ms", "ms"),
    ("hybrid.count_ms", "ms"),
    ("bags.complete_us", "us"),
    ("bags.materialize_ms", "ms"),
    ("bags.rows", "count"),
    ("bags.max_rows", "count"),
    ("reduce.ms", "ms"),
    ("reduce.rows_kept_frac", "frac"),
    ("project.ms", "ms"),
    ("dp.ms", "ms"),
    ("dp.answer_bits", "bits"),
    ("store.encode_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.mapped_frac", "frac"),
    ("disk_bytes_per_tuple", "B"),
    ("mutate_p50_ms", "ms"),
    ("mutate_p90_ms", "ms"),
    ("server.count_warm_us_p50", "us"),
    ("server.plan_warm_ms_p50", "ms"),
    ("server.plan_warm_ms_p99", "ms"),
    ("server.cold_ms_p50", "ms"),
    ("protocol.encode_ns", "ns"),
    ("protocol.decode_ns", "ns"),
    ("cache.count_hit_frac", "frac"),
    ("cache.plan_hit_frac", "frac"),
    ("cache.evictions", "count"),
    ("delta.build_ms", "ms"),
    ("delta.apply_us", "us"),
    ("delta.bags_touched_per_op", "count"),
    ("delta.fallbacks", "count"),
    ("wal.bytes_per_mutation", "B"),
    ("wal.fsyncs_per_mutation", "count"),
    ("snapshot.count", "count"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
];

const WORKLOADS: &[&str] = &["e10_pipeline", "planner_mix", "daemon_mixed"];

/// A whole run may take this long before the watchdog fails it.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

/// Command-line options.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small sizes for the benchmark's own tests.
    pub smoke: bool,
    /// Adds one to every expected count, to prove that the oracles bite.
    pub wrong_expected: bool,
    /// Scratch space for store images and the daemon's data directory.
    pub scratch: PathBuf,
}

impl Opts {
    /// The timed phase's length.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// `expected`, off by one when `--wrong-expected` is set.
    pub fn expect(&self, expected: cqcount_arith::Natural) -> cqcount_arith::Natural {
        if self.wrong_expected {
            expected + cqcount_arith::Natural::ONE
        } else {
            expected
        }
    }
}

/// What a workload hands back: counters, metric values and oracle
/// verdicts.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub meta: Vec<(String, String)>,
    pub mismatches: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_owned(), value.to_string()));
    }

    /// Records an oracle verdict; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }
}

/// Set-ups timed on each side of the timed pass; `setup_s` is the median
/// of all of them. The host's speed drifts over tens of seconds, so
/// set-ups from both ends of a run keep `setup_s` from depending on the
/// window a run started in.
pub const SETUP_REPS: usize = 3;

/// Runs `f` once; returns its wall time in seconds and its result.
pub fn timed_s<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let v = f();
    (t.elapsed().as_secs_f64(), v)
}

/// Peak resident set (VmHWM) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes under `path`, recursively.
pub fn dir_bytes(path: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// Runs `op` back to back, a closed loop in which the next call starts
/// when the previous one returns, for `dur`, and on past it until `min`
/// calls have completed or three times `dur` has passed. Returns each
/// call's latency and result, and the loop's wall time.
pub fn closed_loop<T>(
    dur: Duration,
    min: usize,
    mut op: impl FnMut(usize) -> T,
) -> (Vec<(Duration, T)>, Duration) {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let elapsed = start.elapsed();
        if elapsed >= dur && (out.len() >= min || elapsed >= dur * 3) {
            break;
        }
        let t = Instant::now();
        let v = op(out.len());
        out.push((t.elapsed(), v));
    }
    (out, start.elapsed())
}

fn usage() -> ! {
    eprintln!(
        "usage: cqbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--wrong-expected]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        wrong_expected: false,
        scratch: PathBuf::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => opts.workload = value(),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => opts.trace = value() == "1",
            "--smoke" => opts.smoke = true,
            "--wrong-expected" => opts.wrong_expected = true,
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str())
        || !(0.0..=3600.0).contains(&opts.seconds)
        || opts.seconds == 0.0
    {
        usage();
    }
    opts
}

/// The commit under test, when the checkout is a git repository.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        // Only this checkout's own repository, never a parent's.
        .env("GIT_DIR", ".git")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the library sources, so results from checkouts that are
/// not git repositories still name the code they measured.
fn source_digest(root: &std::path::Path) -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(root, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn run(opts: &Opts) -> Report {
    let mut report = match opts.workload.as_str() {
        "e10_pipeline" => e10::run(opts),
        "planner_mix" => planner_mix::run(opts),
        _ => daemon::run(opts),
    };
    report.meta("workload", &opts.workload);
    report.meta("seed", opts.seed);
    report.meta("seconds", opts.seconds);
    report.meta("trace", u8::from(opts.trace));
    report.meta("smoke", opts.smoke);
    report.meta("commit", commit());
    report.meta(
        "source_digest",
        source_digest(std::path::Path::new("crates")),
    );
    report.meta("rustc", env!("CQBENCH_RUSTC"));
    report.meta(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    report.meta("lanes", cqcount_exec::current_threads());
    report
}

fn main() {
    let mut opts = parse_args();
    opts.scratch = PathBuf::from(".bench_tmp").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&opts.scratch) {
        eprintln!("cqbench: cannot create {}: {e}", opts.scratch.display());
        std::process::exit(2);
    }
    // The workload runs on its own thread so that a hang fails the run
    // at the deadline instead of stalling it.
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = {
        let opts = opts.clone();
        std::thread::spawn(move || {
            let _ = tx.send(run(&opts));
        })
    };
    let started = Instant::now();
    let outcome = rx.recv_timeout(RUN_DEADLINE);
    let _ = std::fs::remove_dir_all(&opts.scratch);
    let _ = std::fs::remove_dir(".bench_tmp");
    let report = match outcome {
        Ok(r) => {
            let _ = worker.join();
            r
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            eprintln!(
                "cqbench: {} did not finish within {:?}; failing the run",
                opts.workload,
                started.elapsed()
            );
            std::process::exit(3);
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            eprintln!("cqbench: {} panicked; failing the run", opts.workload);
            std::process::exit(4);
        }
    };

    let catalog = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in catalog {
        let value = match report.metrics.get(name) {
            Some(&v) => v,
            None if opts.trace => 0.0,
            None => {
                eprintln!("cqbench: {} did not measure {name}", opts.workload);
                std::process::exit(5);
            }
        };
        eprintln!("{name:>30} {value:>14.4} {unit}");
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
    }
    for m in &report.mismatches {
        eprintln!("cqbench: ORACLE MISMATCH: {m}");
    }
    let meta: Vec<String> = report
        .meta
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"meta\": {{{}}}}}", meta.join(", "));
    let correct = report.mismatches.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
