//! The ladder runner. A traced run replays one workload's request
//! sequence through successive public entry points ("rungs"), bottom
//! first: once to warm up, then `ladder_reps` measured repetitions with
//! the rungs interleaved inside each. The runner owns what every
//! workload's ladder shares: timing and allocation counts per rung, the
//! check of every reply against its reference, the warm-up repetition,
//! the service and server counters around the last repetition, and
//! the metrics derived from them. A workload supplies each rung as a
//! closure per request (or per timed section) and adds its own metrics.
//!
//! A rung's cost is the median, over repetitions, of its mean time per
//! operation; a layer's self time is its rung's cost minus the cost of
//! the rung below it.

use std::path::Path;
use std::time::{Duration, Instant};

use zigzag_api::net::NetServer;
use zigzag_api::{
    ClientConfig, Error, ResilientClient, Response, SessionId, StatsReport, TransportCounters,
    ZigzagService,
};

use crate::alloc;
use crate::check::Checker;
use crate::common::check_response;
use crate::stats::{median, ratio, Metrics, Samples};
use crate::trace::{SpanId, Tracer};
use crate::Profile;

/// The rungs, bottom first, and the top rung's untraced replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Core,
    Service,
    Store,
    Wire,
    Serve,
    Net,
    Client,
    /// The top rung again with tracing off: the tracing overhead.
    Untraced,
}

/// The traced rungs in ladder order.
const RUNGS: [Layer; 7] = [
    Layer::Core,
    Layer::Service,
    Layer::Store,
    Layer::Wire,
    Layer::Serve,
    Layer::Net,
    Layer::Client,
];

impl Layer {
    /// The layer's name in spans and in `alloc.per_op.<name>`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Core => "core",
            Layer::Service => "service",
            Layer::Store => "store",
            Layer::Wire => "wire",
            Layer::Serve => "serve",
            Layer::Net => "net",
            Layer::Client => "client",
            Layer::Untraced => "untraced",
        }
    }

    /// The metric holding the layer's self time.
    fn self_metric(self) -> &'static str {
        match self {
            Layer::Service => "service.dispatch_us",
            Layer::Store => "store.append_us",
            Layer::Wire => "wire.codec_us",
            Layer::Serve => "serve.loop_us",
            Layer::Net => "net.self_us",
            Layer::Client => "client.self_us",
            Layer::Core | Layer::Untraced => unreachable!("no rung below"),
        }
    }

    /// Whether the ladder reads counters around the rung.
    fn counted(self) -> bool {
        matches!(self, Layer::Service | Layer::Net | Layer::Client)
    }
}

/// Time and allocations accumulated by one rung.
#[derive(Debug, Default)]
struct Rung {
    busy: Duration,
    ops: u64,
    allocs: u64,
    total_ops: u64,
    per_rep_us: Vec<f64>,
}

impl Rung {
    /// Runs `f` as one timed section covering `ops` operations.
    fn time<T>(&mut self, ops: u64, f: impl FnOnce() -> T) -> T {
        let a0 = alloc::count();
        let t0 = Instant::now();
        let out = f();
        self.busy += t0.elapsed();
        self.allocs += alloc::count() - a0;
        self.ops += ops;
        out
    }

    /// Closes one repetition of the sequence.
    fn end_rep(&mut self) {
        if self.ops > 0 {
            self.per_rep_us
                .push(self.busy.as_secs_f64() * 1e6 / self.ops as f64);
        }
        self.total_ops += self.ops;
        self.busy = Duration::ZERO;
        self.ops = 0;
    }

    fn used(&self) -> bool {
        !self.per_rep_us.is_empty()
    }

    /// Median over repetitions of the mean time per operation.
    fn per_op_us(&self) -> f64 {
        median(&self.per_rep_us)
    }

    /// Allocations per operation over all measured repetitions.
    fn allocs_per_op(&self) -> f64 {
        ratio(self.allocs as f64, self.total_ops as f64)
    }
}

/// The service's and the server's counters at one instant.
type Snapshot = (StatsReport, TransportCounters);

/// One workload's ladder in progress.
pub struct Ladder<'a> {
    tr: Tracer,
    check: &'a mut Checker,
    /// The service whose observer counters the service rung reads.
    service: &'a ZigzagService,
    /// The server the net and client rungs talk to.
    server: &'a NetServer,
    reps: usize,
    /// The current repetition; 0 is the warm-up.
    rep: usize,
    /// Operations in one pass of the sequence.
    ops: usize,
    rungs: [Rung; 8],
    /// Counters before and after each counted rung's pass in the last
    /// repetition.
    snaps: [Option<(Snapshot, Snapshot)>; 8],
    /// Frame and response-document bytes of one wire-rung pass.
    wire_bytes: Option<[u64; 2]>,
    /// Per-request latency in the net rung, write to decoded reply.
    net_lat: Samples,
    buf: String,
}

impl<'a> Ladder<'a> {
    /// A ladder over a sequence of `ops` operations, each recording up to
    /// `spans_per_op` spans per pass.
    pub fn new(
        p: &Profile,
        ops: usize,
        spans_per_op: usize,
        service: &'a ZigzagService,
        server: &'a NetServer,
        check: &'a mut Checker,
    ) -> Self {
        let passes = p.ladder_reps + 1;
        Ladder {
            tr: Tracer::new(true, passes * ops * spans_per_op),
            check,
            service,
            server,
            reps: p.ladder_reps,
            rep: 0,
            ops,
            rungs: Default::default(),
            snaps: Default::default(),
            wire_bytes: None,
            net_lat: Samples::with_capacity(passes * ops),
            buf: String::new(),
        }
    }

    /// Whether the current repetition is measured (not the warm-up).
    pub fn measured(&self) -> bool {
        self.rep > 0
    }

    /// Closes the current repetition, discarding the rungs' figures after
    /// the warm-up; returns whether another repetition follows.
    pub fn next_rep(&mut self) -> bool {
        if self.rep == 0 {
            self.rungs = Default::default();
            self.net_lat.clear();
        } else {
            self.rungs.iter_mut().for_each(Rung::end_rep);
        }
        self.rep += 1;
        self.rep <= self.reps
    }

    /// Runs `f` around a rung's pass, keeping the counters before and
    /// after it when the rung is counted and this is the last repetition.
    fn counted<T>(&mut self, layer: Layer, f: impl FnOnce(&mut Self) -> T) -> T {
        if !(layer.counted() && self.rep == self.reps) {
            return f(self);
        }
        let a = (self.service.stats(), self.server.transport());
        let out = f(self);
        let b = (self.service.stats(), self.server.transport());
        self.snaps[layer as usize] = Some((a, b));
        out
    }

    /// One pass of the sequence through `layer`, one timed operation per
    /// request: `f` answers request `r`, inside a span named `span` when
    /// given, and the reply is checked against `want(r)`.
    pub fn each<'w>(
        &mut self,
        layer: Layer,
        span: Option<&'static str>,
        want: impl Fn(usize) -> &'w str,
        mut f: impl FnMut(&mut Tracer, usize) -> Result<Response, Error>,
    ) {
        self.tr.set_enabled(layer != Layer::Untraced);
        self.counted(layer, |l| {
            for r in 0..l.ops {
                let t0 = Instant::now();
                let out = l.rungs[layer as usize].time(1, || {
                    let sp = match span {
                        Some(name) => l.tr.begin(layer.name(), name, r as u64, SpanId::NONE),
                        None => SpanId::NONE,
                    };
                    let out = f(&mut l.tr, r);
                    l.tr.end(sp);
                    out
                });
                if layer == Layer::Net {
                    l.net_lat.push(t0.elapsed());
                }
                check_response(l.check, out, want(r), &mut l.buf);
            }
        });
        self.tr.set_enabled(true);
    }

    /// One timed section of `layer` covering `ops` operations; `f` checks
    /// what it receives itself, or hands it back for [`Ladder::check`]. A
    /// counted layer (service, net, client) must run its whole pass in one
    /// section: its counters are read around the last one.
    pub fn time<T>(
        &mut self,
        layer: Layer,
        ops: usize,
        f: impl FnOnce(&mut Tracer, &mut Checker) -> T,
    ) -> T {
        self.tr.set_enabled(layer != Layer::Untraced);
        let out = self.counted(layer, |l| {
            l.rungs[layer as usize].time(ops as u64, || f(&mut l.tr, l.check))
        });
        self.tr.set_enabled(true);
        out
    }

    /// Checks one reply against its reference document.
    pub fn check(&mut self, out: Result<Response, Error>, want: &str) {
        check_response(self.check, out, want, &mut self.buf);
    }

    /// Adds latencies a [`Ladder::time`]d net pass measured itself.
    pub fn net_latency(&mut self, lat: &Samples) {
        self.net_lat.extend(lat);
    }

    /// Records the bytes of one wire-rung pass (the first one reported).
    pub fn wire_bytes(&mut self, bytes: [u64; 2]) {
        self.wire_bytes.get_or_insert(bytes);
    }

    /// A resilient client with its connection already open: one untimed
    /// event-count probe of `id` connects it, so a later rung times no
    /// connect and any connection the server accepts during the rung is
    /// a reconnect.
    pub fn client(&mut self, sock: &Path, id: SessionId) -> ResilientClient {
        let mut client = ResilientClient::connect_unix(sock, ClientConfig::new());
        if let Err(e) = client.event_count(id) {
            self.check.error(&e);
        }
        client
    }

    /// Puts the metrics every ladder derives: self times and allocations
    /// per operation of the rungs used, observer, transport and client
    /// counter ratios, wire bytes, the net wait and the tracing overhead;
    /// then writes the trace.
    pub fn finish(self, m: &mut Metrics, p: &Profile, workload: &str) {
        let rung = |l: Layer| &self.rungs[l as usize];
        let used: Vec<Layer> = RUNGS.into_iter().filter(|&l| rung(l).used()).collect();
        for pair in used.windows(2) {
            let (below, layer) = (pair[0], pair[1]);
            m.put(
                layer.self_metric(),
                rung(layer).per_op_us() - rung(below).per_op_us(),
                "us",
            );
        }
        for &l in &used {
            m.put(
                format!("alloc.per_op.{}", l.name()),
                rung(l).allocs_per_op(),
                "count",
            );
        }
        if let Some(&top) = used.last() {
            m.put(
                "trace.overhead_us",
                rung(top).per_op_us() - rung(Layer::Untraced).per_op_us(),
                "us",
            );
        }
        let ops = self.ops as f64;
        if let Some([req, resp]) = self.wire_bytes {
            m.put("wire.request_bytes_per_op", req as f64 / ops, "B");
            m.put("wire.response_bytes_per_op", resp as f64 / ops, "B");
        }
        if let Some((a, b)) = &self.snaps[Layer::Service as usize] {
            let d = |f: fn(&StatsReport) -> u64| (f(&b.0) - f(&a.0)) as f64;
            let (hits, misses) = (d(|s| s.observer_hits), d(|s| s.observer_misses));
            m.put(
                "service.observer_hit_ratio",
                ratio(hits, hits + misses),
                "ratio",
            );
            m.put("service.observer_misses_per_op", misses / ops, "count");
            m.put(
                "service.observer_evictions_per_op",
                d(|s| s.observer_evictions) / ops,
                "count",
            );
        }
        if let Some((a, b)) = &self.snaps[Layer::Net as usize] {
            let d = |f: fn(&TransportCounters) -> u64| (f(&b.1) - f(&a.1)) as f64;
            m.put(
                "net.wait_us",
                self.net_lat.mean_us() - rung(Layer::Serve).per_op_us(),
                "us",
            );
            m.put(
                "net.read_syscalls_per_frame",
                ratio(d(|t| t.read_syscalls), d(|t| t.frames_in)),
                "count",
            );
            m.put(
                "net.write_syscalls_per_frame",
                ratio(d(|t| t.write_syscalls), d(|t| t.frames_out)),
                "count",
            );
            m.put(
                "net.frames_per_flush",
                ratio(d(|t| t.frames_out), d(|t| t.writer_flushes)),
                "count",
            );
        }
        if let Some((a, b)) = &self.snaps[Layer::Client as usize] {
            let d = |f: fn(&TransportCounters) -> u64| (f(&b.1) - f(&a.1)) as f64;
            m.put("client.frames_per_op", d(|t| t.frames_in) / ops, "count");
            m.put("client.retries", d(|t| t.connections), "count");
        }
        crate::write_trace(p, workload, &self.tr);
    }
}
