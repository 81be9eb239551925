//! Per-layer measurements shared by the workloads: each times calls into
//! one layer's public functions from outside.

use std::sync::Arc;
use std::time::{Duration, Instant};

use zigzag_bcm::{NodeId, Run};
use zigzag_coord::StreamDriver;
use zigzag_core::bounds_graph::BoundsGraph;
use zigzag_core::extended_graph::MessageIndex;
use zigzag_core::{IncrementalEngine, ObserverState};

use crate::inputs::Feed;
use crate::stats::{median, Metrics, Samples};

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median cold observer build (`ObserverState::build` over a shared
/// message index) for each of `sigmas` on `run`.
pub fn observer_build_us(run: &Run, sigmas: &[NodeId]) -> f64 {
    let index = MessageIndex::of_run(run);
    let times: Vec<f64> = sigmas
        .iter()
        .map(|&s| {
            let t0 = Instant::now();
            let state = ObserverState::build(run, s, &index).expect("observer in run");
            let d = t0.elapsed();
            std::hint::black_box(state);
            us(d)
        })
        .collect();
    median(&times)
}

/// Median cold tight bound: the first `longest_from_cached` from a
/// source on a fresh `GB(r)` (one SPFA) plus the target lookup.
pub fn tight_bound_cold_us(run: &Run, pairs: &[(NodeId, NodeId)]) -> f64 {
    let times: Vec<f64> = pairs
        .iter()
        .map(|&(from, to)| {
            let gb = BoundsGraph::of_run(run);
            let t0 = Instant::now();
            let lp = gb.longest_from_cached(from).expect("source in run");
            let w = gb.graph().index_of(&to).and_then(|i| lp.weight(i));
            let d = t0.elapsed();
            std::hint::black_box(w);
            us(d)
        })
        .collect();
    median(&times)
}

/// Median `IncrementalEngine::append_event` over a feed.
pub fn append_us(feed: &Feed) -> f64 {
    let mut engine = IncrementalEngine::new(Arc::clone(&feed.ctx), feed.horizon);
    let times: Vec<f64> = feed
        .events
        .iter()
        .map(|ev| {
            let t0 = Instant::now();
            engine.append_event(ev).expect("recorded feed");
            us(t0.elapsed())
        })
        .collect();
    median(&times)
}

/// `StreamDriver::step` over a feed: its p50 and p99, and how many
/// appends were `B`-node decisions.
pub fn coord_steps(m: &mut Metrics, feed: &Feed) {
    let mut driver = StreamDriver::new(feed.spec.clone(), Arc::clone(&feed.ctx), feed.horizon);
    let mut steps = Samples::with_capacity(feed.events.len());
    let mut decisions = 0u64;
    for ev in &feed.events {
        let t0 = Instant::now();
        let step = driver.step(ev).expect("recorded feed");
        steps.push(t0.elapsed());
        decisions += u64::from(step.b_knows.is_some());
    }
    m.put_n(
        "coord.step_us_p50",
        steps.quantile_us(0.5),
        "us",
        steps.len(),
    );
    m.put_n(
        "coord.step_us_p99",
        steps.quantile_us(0.99),
        "us",
        steps.len(),
    );
    m.put("coord.b_decisions", decisions as f64, "count");
}
