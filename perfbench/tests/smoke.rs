//! The benchmark's own checks, on its smoke profile (tiny inputs, every
//! workload and the traced run in a few seconds): every metric named in
//! `BENCHMARK.json` prints with its unit, counts that should repeat at a
//! fixed seed do, and a corrupted reply fails the run.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: &[&str] = &["interactive", "analyst", "coordinate"];

/// Runs the benchmark in a scratch directory under the build directory.
fn bench(dir: &str, args: &[&str]) -> (Option<i32>, String) {
    let cwd = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    std::fs::create_dir_all(&cwd).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_zigzag-perfbench"))
        .args(args)
        .current_dir(&cwd)
        .output()
        .expect("the benchmark runs");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("UTF-8 output"),
    )
}

fn smoke(dir: &str, seed: &str, trace: &str, extra: &[&str]) -> (Option<i32>, String) {
    let mut args = vec![
        "--workload",
        "all",
        "--seed",
        seed,
        "--seconds",
        "1",
        "--trace",
        trace,
        "--smoke",
    ];
    args.extend_from_slice(extra);
    bench(dir, &args)
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text.find(&format!("\"{list}\"")).expect("list is declared");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |obj: &str, key: &str| -> String {
        let k = obj.find(&format!("\"{key}\"")).expect("field present");
        let rest = &obj[k + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("string closes") + open;
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// The value of metric `key` in the last line's JSON.
fn value(stdout: &str, key: &str) -> f64 {
    let json = stdout.lines().last().expect("a result line");
    let pattern = format!("\"{key}\": {{\"value\": ");
    let at = json
        .find(&pattern)
        .unwrap_or_else(|| panic!("{key} missing from {json}"));
    let rest = &json[at + pattern.len()..];
    rest[..rest.find(',').expect("value ends")]
        .parse()
        .expect("a number")
}

#[test]
fn every_declared_metric_prints_with_its_unit() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (code, out) = smoke(&format!("units{trace}"), "5", trace, &[]);
        assert_eq!(code, Some(0), "{out}");
        let last = out.lines().last().expect("a result line");
        assert!(last.starts_with("{\"correct\": true, "), "{last}");
        for w in WORKLOADS {
            for (name, unit) in declared(list) {
                let line = format!("{w} {name} = ");
                let printed = out
                    .lines()
                    .find(|l| l.starts_with(&line))
                    .unwrap_or_else(|| panic!("no line {line:?}"));
                assert!(
                    printed.split_whitespace().nth(4) == Some(unit.as_str()),
                    "{printed:?} lacks unit {unit}"
                );
                assert!(last.contains(&format!("\"{w}.{name}\": {{\"value\": ")));
                assert!(value(&out, &format!("{w}.{name}")).is_finite());
            }
        }
    }
}

#[test]
fn deterministic_counts_repeat_at_a_fixed_seed() {
    let (c1, a) = smoke("repeat1", "11", "1", &[]);
    let (c2, b) = smoke("repeat2", "11", "1", &[]);
    assert_eq!((c1, c2), (Some(0), Some(0)), "{a}\n{b}");
    let mut keys = vec![
        "analyst.service.observer_misses_per_op".to_string(),
        "analyst.service.observer_evictions_per_op".to_string(),
        "interactive.client.frames_per_op".to_string(),
        "coordinate.client.frames_per_op".to_string(),
        "coordinate.coord.b_decisions".to_string(),
        "coordinate.store.bytes_per_event".to_string(),
        "coordinate.store.log_bytes_per_event".to_string(),
    ];
    for w in WORKLOADS {
        keys.push(format!("{w}.wire.request_bytes_per_op"));
        keys.push(format!("{w}.wire.response_bytes_per_op"));
    }
    for key in &keys {
        let (x, y) = (value(&a, key), value(&b, key));
        assert_eq!(x, y, "{key} differs between two runs at one seed");
        assert!(x > 0.0, "{key} is {x}: the count was not taken");
    }
}

#[test]
fn a_corrupted_reply_fails_the_run() {
    for w in WORKLOADS {
        let (code, out) = bench(
            &format!("corrupt-{w}"),
            &[
                "--workload",
                w,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                "0",
                "--smoke",
                "--corrupt-reply",
            ],
        );
        assert_eq!(code, Some(1), "{out}");
        let last = out.lines().last().expect("a result line");
        assert!(last.starts_with("{\"correct\": false, "), "{last}");
        assert!(
            out.contains(&format!("{w} failures.mismatch = 1 count")),
            "{out}"
        );
    }
}
