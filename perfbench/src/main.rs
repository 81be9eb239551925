//! The repository's benchmark: three closed-loop workloads served over a
//! Unix socket from one process, each reply checked byte for byte
//! against an in-process reference, plus a traced ladder run that
//! attributes time to layers. See `README.md` next to `Cargo.toml`.
//!
//! ```text
//! zigzag-perfbench --workload <interactive|analyst|coordinate|all>
//!                  --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
//! only when every reply matched its reference.

mod affinity;
mod alloc;
mod analyst;
mod check;
mod common;
mod coordinate;
mod core_rung;
mod inputs;
mod interactive;
mod ladder;
mod layers;
mod speed;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use crate::check::Checker;
use crate::stats::Metrics;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not cross reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.observer_build_us", "us"),
    ("core.tight_bound_us", "us"),
    ("core.query_us", "us"),
    ("core.append_us", "us"),
    ("coord.step_us_p50", "us"),
    ("coord.step_us_p99", "us"),
    ("coord.b_decisions", "count"),
    ("service.dispatch_us", "us"),
    ("service.observer_hit_ratio", "ratio"),
    ("service.observer_misses_per_op", "count"),
    ("service.observer_evictions_per_op", "count"),
    ("wire.codec_us", "us"),
    ("wire.request_bytes_per_op", "B"),
    ("wire.response_bytes_per_op", "B"),
    ("serve.loop_us", "us"),
    ("net.self_us", "us"),
    ("net.wait_us", "us"),
    ("net.read_syscalls_per_frame", "count"),
    ("net.write_syscalls_per_frame", "count"),
    ("net.frames_per_flush", "count"),
    ("client.self_us", "us"),
    ("client.frames_per_op", "count"),
    ("client.retries", "count"),
    ("store.append_us", "us"),
    ("store.snapshot_us", "us"),
    ("store.log_bytes_per_event", "B"),
    ("store.bytes_per_event", "B"),
    ("store.recover_s", "s"),
    ("alloc.per_op.core", "count"),
    ("alloc.per_op.service", "count"),
    ("alloc.per_op.store", "count"),
    ("alloc.per_op.wire", "count"),
    ("alloc.per_op.serve", "count"),
    ("alloc.per_op.net", "count"),
    ("alloc.per_op.client", "count"),
    ("trace.overhead_us", "us"),
];

const WORKLOADS: &[&str] = &["interactive", "analyst", "coordinate"];

/// Settings shared by every workload of one invocation.
#[derive(Debug, Clone)]
pub struct Profile {
    pub seed: u64,
    /// Tiny inputs and sub-second windows: the whole command in seconds.
    pub smoke: bool,
    /// The measured window.
    pub measure: Duration,
    /// Unmeasured load before the window.
    pub warmup: Duration,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Measured repetitions of each ladder rung.
    pub ladder_reps: usize,
    /// Test hook: corrupt one reply before it is checked.
    pub corrupt: bool,
    /// Scratch directory (sockets, session stores) inside the checkout.
    pub dir: PathBuf,
    /// Where traced runs write their spans.
    pub trace_dir: PathBuf,
    /// The CPUs the process may run on, as found at start.
    pub cpus: Vec<usize>,
}

/// What one workload run produced.
pub struct Outcome {
    pub metrics: Metrics,
    /// Figures reported on the human-readable lines only: they hold for
    /// one workload, and the JSON carries what every workload reports.
    pub extra: Metrics,
    pub check: Checker,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: zigzag-perfbench --workload <interactive|analyst|coordinate|all> \
         --seed <n> --seconds <s> --trace <0|1> [--smoke] [--corrupt-reply]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut corrupt = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => workload = args.next(),
            "--seed" => seed = args.next().and_then(|s| s.parse::<u64>().ok()),
            "--seconds" => seconds = args.next().and_then(|s| s.parse::<f64>().ok()),
            "--trace" => trace = args.next().map(|s| s == "1"),
            "--smoke" => smoke = true,
            "--corrupt-reply" => corrupt = true,
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let names: Vec<&str> = match workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w if WORKLOADS.contains(&w) => vec![w],
        _ => return usage(),
    };
    let measure = if smoke { 0.2 } else { seconds.max(0.1) };
    let dir = PathBuf::from(".perfbench-run").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let profile = Profile {
        seed,
        smoke,
        measure: Duration::from_secs_f64(measure),
        warmup: Duration::from_secs_f64((measure / 5.0).clamp(0.05, 2.0)),
        setup_repeats: if smoke { 1 } else { 3 },
        ladder_reps: if smoke { 2 } else { 5 },
        corrupt,
        dir: dir.clone(),
        trace_dir: PathBuf::from(".perfbench-trace"),
        cpus: affinity::allowed(),
    };

    let mut all = Metrics::default();
    let mut check = Checker::default();
    for name in &names {
        // Undo any placement an earlier workload left on this thread.
        affinity::pin(&profile.cpus);
        let out = match *name {
            "interactive" => interactive::run(&profile, trace),
            "analyst" => analyst::run(&profile, trace),
            _ => coordinate::run(&profile, trace),
        };
        let mut m = out.metrics;
        if !trace {
            m.put("peak_rss_mb", alloc::peak_rss_mb().unwrap_or(0.0), "MB");
        }
        let wanted = if trace { PER_LAYER } else { END_TO_END };
        for (metric, unit) in wanted {
            if !m.0.iter().any(|x| x.name == *metric) {
                m.put(*metric, 0.0, unit);
            }
        }
        m.0.retain(|x| wanted.iter().any(|(w, _)| *w == x.name));
        report(name, &m, &out.extra, &out.check);
        let prefix = if names.len() > 1 {
            format!("{name}.")
        } else {
            String::new()
        };
        for x in m.0 {
            all.0.push(stats::Metric {
                name: format!("{prefix}{}", x.name),
                ..x
            });
        }
        check.absorb(out.check);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench-run");

    let correct = check.failed == 0 && check.attempted > 0;
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        check.attempted, check.failed
    );
    for (i, x) in all.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if x.value.is_finite() { x.value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            x.name, x.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The human-readable lines: every metric by name with its unit (and
/// sample count where it is a percentile), the error rate, and failures
/// by kind.
fn report(workload: &str, m: &Metrics, extra: &Metrics, check: &Checker) {
    for x in m.0.iter().chain(&extra.0) {
        match x.samples {
            Some(n) => println!("{workload} {} = {} {} (n={n})", x.name, x.value, x.unit),
            None => println!("{workload} {} = {} {}", x.name, x.value, x.unit),
        }
    }
    println!(
        "{workload} error_rate = {} ratio ({} failed of {} attempted)",
        check.error_rate(),
        check.failed,
        check.attempted
    );
    for (kind, n) in &check.kinds {
        println!("{workload} failures.{kind} = {n} count");
    }
    if let Some(first) = &check.first {
        println!("{workload} first failure: {first}");
    }
}

/// Builds a workload's set-up `p.setup_repeats` times, tearing each
/// previous one down first (untimed), and returns the last with the
/// median set-up time in seconds. The peak-resident-set window opens when
/// it returns, so `peak_rss_mb` covers what the workload holds and adds
/// while it serves, not set-up's transient peak.
pub fn timed_setups<S>(
    p: &Profile,
    mut make: impl FnMut(usize) -> S,
    mut teardown: impl FnMut(S),
) -> (S, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for k in 0..p.setup_repeats.max(1) {
        if let Some(old) = last.take() {
            teardown(old);
        }
        let t0 = std::time::Instant::now();
        last = Some(make(k));
        times.push(t0.elapsed().as_secs_f64());
    }
    if !alloc::reset_peak_rss() {
        eprintln!("cannot reset the peak resident set: peak_rss_mb includes set-up");
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// Writes a traced run's spans to `<trace_dir>/<workload>-seed<n>.jsonl`.
pub fn write_trace(p: &Profile, workload: &str, tr: &trace::Tracer) {
    let path = p.trace_dir.join(format!("{workload}-seed{}.jsonl", p.seed));
    match tr.write(&path) {
        Ok(()) => println!("{workload} trace: {} spans in {}", tr.len(), path.display()),
        Err(e) => eprintln!("{workload} trace: cannot write {}: {e}", path.display()),
    }
}
