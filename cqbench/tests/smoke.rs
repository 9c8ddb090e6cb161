//! The benchmark's own tests, at smoke scale: every name `BENCHMARK.json`
//! declares is emitted, the oracles pass on two seeds, and a wrong
//! expected count fails the run.

use std::path::PathBuf;
use std::process::Output;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

fn bench(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_cqbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.5", "--trace", if trace { "1" } else { "0" }])
        .arg("--smoke")
        .args(extra)
        .output()
        .expect("the benchmark binary runs")
}

/// The `"name"` values inside the JSON array under `key`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has {key}"));
    let open = start + json[start..].find('[').expect("an array");
    let mut depth = 0;
    let mut end = open;
    for (i, c) in json[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    end = open + i;
                    break;
                }
            }
            _ => {}
        }
    }
    json[open..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("a closed string")].to_owned())
        .collect()
}

/// The result line's metric names, and whether it reported `correct`.
fn result(out: &Output) -> (Vec<String>, bool) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": "), "result line: {last}");
    let correct = last.starts_with("{\"correct\": true");
    let metrics = &last[last.find("\"metrics\": {").expect("a metrics object")..];
    // Every piece before a `": {"value"` ends with a metric's name.
    let pieces: Vec<&str> = metrics.split("\": {\"value\"").collect();
    let names = pieces[..pieces.len() - 1]
        .iter()
        .map(|s| s[s.rfind('"').expect("a quoted name") + 1..].to_owned())
        .collect();
    (names, correct)
}

fn spec() -> String {
    std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json exists")
}

#[test]
fn every_declared_name_is_emitted_and_oracles_pass_on_two_seeds() {
    let spec = spec();
    let workloads = names_in(&spec, "workloads");
    assert_eq!(workloads, ["e10_pipeline", "planner_mix", "daemon_mixed"]);
    let end_to_end = names_in(&spec, "end_to_end");
    let per_layer = names_in(&spec, "per_layer");
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    for w in &workloads {
        for seed in [1, 2] {
            for (trace, declared) in [(false, &end_to_end), (true, &per_layer)] {
                let out = bench(w, seed, trace, &[]);
                assert!(
                    out.status.success(),
                    "{w} seed {seed} trace {trace}: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
                let (names, correct) = result(&out);
                assert!(correct, "{w} seed {seed} trace {trace}");
                assert_eq!(&names, declared, "{w} trace {trace}");
            }
        }
    }
}

#[test]
fn a_wrong_expected_count_fails_the_run() {
    for w in names_in(&spec(), "workloads") {
        let out = bench(&w, 3, false, &["--wrong-expected"]);
        assert!(
            !out.status.success(),
            "{w} passed with a wrong expected count"
        );
        let (_, correct) = result(&out);
        assert!(!correct, "{w} reported correct with a wrong expected count");
    }
}
