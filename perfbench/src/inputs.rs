//! Inputs generated from the workload seed: a random strongly connected
//! topology (`bcm::topology::random`), a coordination spec over three of
//! its processes, and FFIP runs recorded under seeded random schedules.
//!
//! Every feed is cut to a fixed number of events. Observer-build cost
//! grows with the prefix length, so the feed length is part of the
//! workload: holding it fixed keeps one seed's work comparable with
//! another's.

use std::sync::Arc;

use rand::{Rng, SeedableRng, StdRng};
use zigzag_api::{CoordKind, TimedCoordination};
use zigzag_bcm::protocols::Ffip;
use zigzag_bcm::scheduler::RandomScheduler;
use zigzag_bcm::{Context, NodeId, ProcessId, Run, RunCursor, RunEvent, SimConfig, Simulator};
use zigzag_bcm::{StreamingRun, Time};

/// Processes in every generated topology.
pub const PROCESSES: usize = 6;
/// Probability of each chord beyond the bidirectional ring.
const CHORD_P: f64 = 0.3;
/// Channels every topology has: the ring's twelve plus six chords, near
/// the most likely count. Topologies with another count are redrawn, so
/// the amount of FFIP traffic per event does not vary with the seed.
const CHANNELS: usize = 18;
/// Separation of the `Late` spec every coordination session carries.
const LATE_X: i64 = 3;
/// Time at which `C` receives the trigger.
const GO_AT: u64 = 2;

/// One session's input: a topology, a coordination spec over three of
/// its processes, and the first events of an FFIP run on it.
#[derive(Debug, Clone)]
pub struct Feed {
    pub ctx: Arc<Context>,
    pub spec: TimedCoordination,
    /// The horizon the run was recorded with.
    pub horizon: Time,
    pub events: Vec<RunEvent>,
}

/// A deterministic generator for one workload seed; `stream` separates
/// independent draws made from the same seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Feed number `k` of `seed`: its own random topology with [`CHANNELS`]
/// channels, `C` the first
/// process, `A` the first process `C` has a channel to, `B` the process
/// halfway round the ring (or the next that is neither), and the first
/// `events` events of an FFIP run triggered at `C` under a seeded random
/// schedule. Each session of a workload gets its own feed, so one run
/// averages over several topologies.
pub fn feed(seed: u64, k: u64, events: usize) -> Feed {
    let mut draws = rng(seed, 0x100 + k);
    let (draw, ctx) = loop {
        let draw = draws.gen::<u64>();
        let ctx: Arc<Context> = zigzag_bcm::topology::random(PROCESSES, CHORD_P, 1, 6, draw)
            .expect("at least three processes")
            .into();
        if ctx.network().channels().len() == CHANNELS {
            break (draw, ctx);
        }
    };
    let procs: Vec<ProcessId> = ctx.network().processes().collect();
    let c = procs[0];
    let a = *procs[1..]
        .iter()
        .find(|p| ctx.network().has_channel(c, **p))
        .expect("the ring gives C an outgoing channel");
    let b = (0..procs.len())
        .map(|i| procs[(PROCESSES / 2 + i) % procs.len()])
        .find(|p| *p != a && *p != c)
        .expect("six processes leave a third role");
    let spec = TimedCoordination::new(CoordKind::Late { x: LATE_X }, a, b, c);
    let mut horizon = (events as u64 / 4).max(8);
    loop {
        let mut sim = Simulator::new(
            Arc::clone(&ctx),
            SimConfig::with_horizon(Time::new(horizon)),
        );
        sim.external(Time::new(GO_AT), c, spec.go_name.clone());
        let run = sim
            .run(&mut Ffip::new(), &mut RandomScheduler::seeded(draw))
            .expect("FFIP on a valid context simulates");
        let mut all = RunCursor::new(&run).collect_events();
        if all.len() >= events {
            all.truncate(events);
            return Feed {
                ctx,
                spec,
                horizon: run.horizon(),
                events: all,
            };
        }
        horizon *= 2;
    }
}

/// The run a feed grows into, and the node each event created (in feed
/// order, so the first nodes are the earliest).
pub fn prefix_run(ctx: &Arc<Context>, horizon: Time, events: &[RunEvent]) -> (Run, Vec<NodeId>) {
    let mut stream = StreamingRun::new(Arc::clone(ctx), horizon);
    let created = events
        .iter()
        .map(|ev| stream.append(ev).expect("a recorded feed replays"))
        .collect();
    (stream.finish(), created)
}

/// The non-initial nodes of `run`, in `(process, index)` order.
pub fn nodes(run: &Run) -> Vec<NodeId> {
    run.nodes()
        .map(|r| r.id())
        .filter(|n| !n.is_initial())
        .collect()
}

/// `k` distinct nodes drawn uniformly from `nodes`.
pub fn spread(nodes: &[NodeId], k: usize, rng: &mut StdRng) -> Vec<NodeId> {
    let mut pool: Vec<NodeId> = nodes.to_vec();
    let mut out = Vec::with_capacity(k);
    while out.len() < k && !pool.is_empty() {
        let i = rng.gen_range(0..pool.len());
        out.push(pool.swap_remove(i));
    }
    out
}

/// `k` nodes of `created` (in feed order), one drawn from each of `k`
/// equal strata, so every seed queries observers of the same spread of
/// past sizes. Returned in a fixed interleaving of the strata (stride 7
/// modulo `k` when that visits every stratum), so that under a skewed
/// draw the frequent ranks mix early and late observers alike.
pub fn stratified(created: &[NodeId], k: usize, rng: &mut StdRng) -> Vec<NodeId> {
    let k = k.min(created.len());
    let picks: Vec<NodeId> = (0..k)
        .map(|i| created[rng.gen_range(i * created.len() / k..(i + 1) * created.len() / k)])
        .collect();
    let stride = if k.is_multiple_of(7) { 1 } else { 7 };
    (0..k).map(|r| picks[(r * stride) % k]).collect()
}

/// A node of `past(r, σ)` on another process than `σ` (σ's own
/// predecessor when no other process is in its past).
pub fn theta_in_past(run: &Run, sigma: NodeId, rng: &mut StdRng) -> NodeId {
    let past = run.past(sigma);
    let candidates: Vec<NodeId> = nodes(run)
        .into_iter()
        .filter(|n| n.proc() != sigma.proc() && past.contains(*n))
        .collect();
    if candidates.is_empty() {
        sigma
    } else {
        candidates[rng.gen_range(0..candidates.len())]
    }
}
