//! `analyst`: one raw-envelope connection pipelining a fixed window of
//! frames at batch sessions whose observer caches are bounded
//! (`CachePolicy::max_observers`). Observers are drawn from a Zipf-skewed
//! distribution over a working set four times the cache, and the mix
//! adds witnesses, tight bounds from many sources, fast runs and, at
//! early observers only, whole threshold matrices. Cold observer builds
//! and large documents dominate while the transport is amortized: core,
//! cache and codec gains show here, and a transport rewrite must not cost
//! pipelined throughput.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{Rng, StdRng};
use zigzag_api::net::{encode_envelope_into, EnvelopeScanner, NetServer};
use zigzag_api::{serve, wire, CachePolicy, Query, SessionConfig, SessionId, ZigzagService};
use zigzag_bcm::{NodeId, Run};
use zigzag_core::GeneralNode;

use crate::check::Checker;
use crate::common::{net_config, wire_roundtrip};
use crate::core_rung::{self, CoreBatch};
use crate::inputs;
use crate::ladder::{Ladder, Layer};
use crate::speed::HostSpeed;
use crate::stats::{median, Metrics, Samples};
use crate::trace::{SpanId, Tracer};
use crate::{layers, Outcome, Profile};

struct Sizes {
    sessions: usize,
    events: usize,
    /// `CachePolicy::max_observers` of every session.
    cache: usize,
    /// Distinct observers queried per session.
    working_set: usize,
    frames: usize,
    window: usize,
}

fn sizes(p: &Profile) -> Sizes {
    if p.smoke {
        Sizes {
            sessions: 2,
            events: 80,
            cache: 2,
            working_set: 8,
            frames: 60,
            window: 4,
        }
    } else {
        Sizes {
            sessions: 32,
            events: 900,
            cache: 8,
            working_set: 32,
            frames: 4000,
            window: 8,
        }
    }
}

/// Query kinds and their weights in the mix. Like the sizes above, the
/// weights are the benchmark's assumptions, not measured traffic; the
/// README lists which end-to-end metric each one drives.
const MIX: &[(Kind, u32)] = &[
    (Kind::MaxX, 35),
    (Kind::Knows, 20),
    (Kind::Witness, 15),
    (Kind::TightBound, 15),
    (Kind::FastRun, 13),
    (Kind::Matrix, 2),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    MaxX,
    Knows,
    Witness,
    TightBound,
    FastRun,
    Matrix,
}

/// Observers whose matrices are requested: drawn from the first twentieth
/// of the feed, where `past(r, σ)` and so the matrix stay small.
const MATRIX_OBSERVERS: usize = 2;

/// One session's draw space.
struct Space {
    run: Run,
    working_set: Vec<NodeId>,
    thetas: Vec<NodeId>,
    sources: Vec<NodeId>,
    early: Vec<NodeId>,
}

fn zipf(rng: &mut StdRng, n: usize) -> usize {
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let mut u = rng.gen::<f64>() * total;
    for r in 1..=n {
        u -= 1.0 / r as f64;
        if u < 0.0 {
            return r - 1;
        }
    }
    n - 1
}

fn query(space: &Space, kind: Kind, slot: usize) -> Query {
    let sigma = space.working_set[slot % space.working_set.len()];
    let theta1 = GeneralNode::basic(space.thetas[slot % space.thetas.len()]);
    match kind {
        Kind::MaxX => Query::MaxX {
            sigma,
            theta1,
            theta2: GeneralNode::basic(sigma),
        },
        Kind::Knows => Query::Knows {
            sigma,
            theta1,
            theta2: GeneralNode::basic(sigma),
            x: 1,
        },
        Kind::Witness => Query::Witness {
            sigma,
            theta1,
            theta2: GeneralNode::basic(sigma),
        },
        Kind::FastRun => Query::FastRun {
            sigma,
            theta: theta1,
            gamma: 1,
            extra_horizon: 5,
        },
        Kind::TightBound => Query::TightBound {
            from: space.sources[slot % space.sources.len()],
            to: space.working_set[slot % space.working_set.len()],
        },
        Kind::Matrix => Query::MaxXMatrix {
            sigma: space.early[slot % space.early.len()],
        },
    }
}

struct Setup {
    runs: Vec<Run>,
    cache: usize,
    service: Arc<ZigzagService>,
    sessions: Vec<SessionId>,
    pool: Vec<(usize, Query)>,
    refs: Vec<String>,
    /// Pre-encoded request envelope per pool entry.
    envelopes: Vec<Vec<u8>>,
    seq: Vec<usize>,
    window: usize,
    server: NetServer,
    sock: PathBuf,
}

fn setup(p: &Profile, sock: PathBuf) -> Setup {
    let sz = sizes(p);
    let mut rng = inputs::rng(p.seed, 2);
    let spaces: Vec<Space> = (0..sz.sessions)
        .map(|k| {
            let feed = inputs::feed(p.seed, 100 + k as u64, sz.events);
            let (run, created) = inputs::prefix_run(&feed.ctx, feed.horizon, &feed.events);
            let working_set = inputs::stratified(&created, sz.working_set, &mut rng);
            let thetas = working_set
                .iter()
                .map(|&s| inputs::theta_in_past(&run, s, &mut rng))
                .collect();
            let sources = inputs::stratified(&created, sz.working_set * 2, &mut rng);
            let head = &created[..(created.len() / 20).max(MATRIX_OBSERVERS)];
            let early = inputs::stratified(head, MATRIX_OBSERVERS, &mut rng);
            Space {
                run,
                working_set,
                thetas,
                sources,
                early,
            }
        })
        .collect();

    // Draw the sequence, interning distinct queries into the pool. Kinds
    // come from shuffled decks holding each kind as often as its weight,
    // and sessions take turns, so every seed sends the same mix; only the
    // observers and sources drawn differ.
    let deck: Vec<Kind> = MIX
        .iter()
        .flat_map(|&(kind, w)| std::iter::repeat_n(kind, w as usize))
        .collect();
    let mut cards: Vec<Kind> = Vec::new();
    let mut index: HashMap<(usize, Kind, usize), usize> = HashMap::new();
    let mut pool = Vec::new();
    let mut seq = Vec::with_capacity(sz.frames);
    for f in 0..sz.frames {
        if cards.is_empty() {
            cards = deck.clone();
            for i in (1..cards.len()).rev() {
                cards.swap(i, rng.gen_range(0..=i));
            }
        }
        let kind = cards.pop().expect("a refilled deck");
        let k = f % sz.sessions;
        let slot = match kind {
            Kind::TightBound => rng.gen_range(0..spaces[k].sources.len()),
            Kind::Matrix => rng.gen_range(0..MATRIX_OBSERVERS),
            _ => zipf(&mut rng, sz.working_set),
        };
        let next = pool.len();
        let i = *index.entry((k, kind, slot)).or_insert(next);
        if i == next {
            pool.push((k, query(&spaces[k], kind, slot)));
        }
        seq.push(i);
    }

    // References from a separate service whose caches are unbounded:
    // answers are byte-identical under any cache policy. It is dropped
    // before the served service is built.
    let refs: Vec<String> = {
        let reference = ZigzagService::new();
        let ref_ids: Vec<SessionId> = spaces
            .iter()
            .map(|s| reference.open_batch(s.run.clone(), SessionConfig::new()))
            .collect();
        pool.iter()
            .map(|(k, q)| {
                wire::encode_response(
                    &reference
                        .dispatch(ref_ids[*k], q)
                        .expect("analyst queries succeed"),
                )
            })
            .collect()
    };

    let config = SessionConfig::new().cache(CachePolicy::unbounded().max_observers(sz.cache));
    let service = Arc::new(ZigzagService::new());
    let sessions: Vec<SessionId> = spaces
        .iter()
        .map(|s| service.open_batch(s.run.clone(), config.clone()))
        .collect();
    let envelopes = pool
        .iter()
        .map(|(k, q)| {
            let mut env = Vec::new();
            encode_envelope_into(&mut env, &serve::encode_frame(sessions[*k], q))
                .expect("frames fit an envelope");
            env
        })
        .collect();
    let server =
        NetServer::bind_unix(&sock, Arc::clone(&service), net_config()).expect("bind socket");
    Setup {
        runs: spaces.into_iter().map(|s| s.run).collect(),
        cache: sz.cache,
        service,
        sessions,
        pool,
        refs,
        envelopes,
        seq,
        window: sz.window,
        server,
        sock,
    }
}

/// A pipelining connection: requests go out as soon as the window has
/// room, replies are scanned back in order.
struct Pipe {
    conn: UnixStream,
    scanner: EnvelopeScanner,
    inflight: VecDeque<(usize, Instant)>,
    pos: usize,
}

impl Pipe {
    fn new(s: &Setup) -> Self {
        Pipe {
            conn: UnixStream::connect(&s.sock).expect("server listening"),
            scanner: EnvelopeScanner::new(64 << 20),
            inflight: VecDeque::with_capacity(s.window),
            pos: 0,
        }
    }

    /// Runs the sequence cyclically for `dur` (then drains the window),
    /// returning the seconds it took. When a host-speed sample is due the
    /// window drains first, so no frame waits on the probe.
    fn drive(
        &mut self,
        s: &Setup,
        dur: Duration,
        lat: &mut Samples,
        check: &mut Checker,
        speed: &mut HostSpeed,
    ) -> f64 {
        let start = Instant::now();
        let mut paused = Duration::ZERO;
        loop {
            if self.inflight.is_empty() && speed.due() {
                paused += speed.sample();
            }
            let open = start.elapsed() - paused < dur && !speed.due();
            while open && self.inflight.len() < s.window {
                let i = s.seq[self.pos % s.seq.len()];
                self.pos += 1;
                self.conn
                    .write_all(&s.envelopes[i])
                    .expect("server accepts frames");
                self.inflight.push_back((i, Instant::now()));
            }
            let Some((i, sent)) = self.inflight.pop_front() else {
                break;
            };
            let doc = self
                .scanner
                .recv(&mut self.conn)
                .expect("server answers")
                .expect("one reply per frame");
            lat.push(sent.elapsed());
            check.doc(doc, &s.refs[i]);
        }
        (start.elapsed() - paused).as_secs_f64()
    }
}

fn teardown(s: Setup) {
    s.server.shutdown();
    let _ = std::fs::remove_file(&s.sock);
}

pub fn run(p: &Profile, trace: bool) -> Outcome {
    let mut speed = HostSpeed::new();
    let (s, setup_s) =
        crate::timed_setups(p, |k| setup(p, p.dir.join(format!("a{k}.sock"))), teardown);
    let mut check = Checker::new(p.corrupt);
    let mut m = Metrics::default();
    let mut extra = Metrics::default();
    if trace {
        ladder(p, &s, &mut m, &mut check);
    } else {
        speed.sample();
        let mut pipe = Pipe::new(&s);
        pipe.drive(
            &s,
            p.warmup,
            &mut Samples::default(),
            &mut check,
            &mut speed,
        );
        let mut lat = Samples::with_capacity(1 << 16);
        let elapsed = pipe.drive(&s, p.measure, &mut lat, &mut check, &mut speed);
        m.put("setup_s", setup_s, "s");
        lat.put_end_to_end(&mut m, elapsed);
        speed.scale(&mut m, &mut extra);
    }
    teardown(s);
    Outcome {
        metrics: m,
        extra,
        check,
    }
}

/// Frames of the sequence the ladder replays: every rung runs them six
/// times, and the whole sequence would take a slow host close to three
/// minutes.
const LADDER_FRAMES: usize = 2000;

/// The ladder, over the first [`LADDER_FRAMES`] frames of the sequence:
/// direct engine calls over the same bounded caches, the service, the
/// wire codec, the serve loop over windows of frames, and the pipelined
/// raw connection. Every rung below the connection runs on one thread;
/// the connection is the first to use the server's two workers, so
/// `net.self_us` nets the transport against that parallelism.
fn ladder(p: &Profile, s: &Setup, m: &mut Metrics, check: &mut Checker) {
    let seq = &s.seq[..s.seq.len().min(LADDER_FRAMES)];
    let mut cores: Vec<CoreBatch> = s
        .runs
        .iter()
        .map(|r| CoreBatch::new(r.clone(), Some(s.cache)))
        .collect();
    let n = seq.len();
    let req = |r: usize| &s.pool[seq[r]];
    let want = |r: usize| s.refs[seq[r]].as_str();
    let mut warm_query_us = Vec::with_capacity(p.ladder_reps * n);
    let mut pipe = Pipe::new(s);
    let mut l = Ladder::new(p, n, 10, &s.service, &s.server, check);
    loop {
        let measured = l.measured();
        l.each(Layer::Core, Some("core.query"), want, |_, r| {
            let (k, q) = req(r);
            let misses = cores[*k].misses();
            let t0 = Instant::now();
            let out = core_rung::answer(&mut cores[*k], q);
            let warm = cores[*k].misses() == misses;
            if measured && warm && matches!(q, Query::MaxX { .. } | Query::Knows { .. }) {
                warm_query_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            out
        });
        if !measured {
            cores.iter_mut().for_each(|c| c.builds.clear());
        }
        l.each(Layer::Service, Some("service.dispatch"), want, |_, r| {
            let (k, q) = req(r);
            s.service.dispatch(s.sessions[*k], q)
        });
        let mut bytes = [0; 2];
        l.each(Layer::Wire, Some("wire.roundtrip"), want, |_, r| {
            let (k, q) = req(r);
            wire_roundtrip(&s.service, s.sessions[*k], q, &mut bytes)
        });
        l.wire_bytes(bytes);
        for (w, window) in seq.chunks(s.window).enumerate() {
            let outs = l.time(Layer::Serve, window.len(), |tr, _| {
                let sp = tr.begin("serve", "serve.serve", (w * s.window) as u64, SpanId::NONE);
                let frames: Vec<String> = window
                    .iter()
                    .map(|&i| serve::encode_frame(s.sessions[s.pool[i].0], &s.pool[i].1))
                    .collect();
                let docs = serve::serve(&s.service, &frames, 1);
                let outs: Vec<_> = docs.iter().map(|d| wire::decode_response(d)).collect();
                tr.end(sp);
                outs
            });
            for (out, &i) in outs.into_iter().zip(window) {
                l.check(out, &s.refs[i]);
            }
        }
        let mut lat = Samples::with_capacity(n);
        l.time(Layer::Net, n, |tr, check| {
            pipelined_pass(tr, &mut pipe, s, seq, &mut lat, check)
        });
        l.net_latency(&lat);
        lat.clear();
        l.time(Layer::Untraced, n, |tr, check| {
            pipelined_pass(tr, &mut pipe, s, seq, &mut lat, check)
        });
        if !l.next_rep() {
            break;
        }
    }
    l.finish(m, p, "analyst");
    let builds: Vec<f64> = cores
        .iter()
        .flat_map(|c| c.builds.iter().map(|d| d.as_secs_f64() * 1e6))
        .collect();
    m.put("core.observer_build_us", median(&builds), "us");
    let pairs: Vec<_> = s
        .pool
        .iter()
        .filter(|(k, _)| *k == 0)
        .filter_map(|(_, q)| match q {
            Query::TightBound { from, to } => Some((*from, *to)),
            _ => None,
        })
        .take(32)
        .collect();
    m.put(
        "core.tight_bound_us",
        layers::tight_bound_cold_us(&s.runs[0], &pairs),
        "us",
    );
    m.put("core.query_us", median(&warm_query_us), "us");
}

/// One pass of `seq` over the pipelining connection, with a
/// request span per frame from its encoding to its decoded reply.
fn pipelined_pass(
    tr: &mut Tracer,
    pipe: &mut Pipe,
    s: &Setup,
    seq: &[usize],
    lat: &mut Samples,
    check: &mut Checker,
) {
    let mut inflight: VecDeque<(usize, usize, Instant, SpanId, SpanId)> =
        VecDeque::with_capacity(s.window);
    let mut next = 0;
    let mut env = Vec::new();
    while next < seq.len() || !inflight.is_empty() {
        while next < seq.len() && inflight.len() < s.window {
            let i = seq[next];
            let top = tr.begin("net", "net.request", next as u64, SpanId::NONE);
            let sp = tr.begin("net", "wire.encode", next as u64, top);
            env.clear();
            let frame = serve::encode_frame(s.sessions[s.pool[i].0], &s.pool[i].1);
            encode_envelope_into(&mut env, &frame).expect("frames fit an envelope");
            tr.end(sp);
            let ex = tr.begin("net", "net.exchange", next as u64, top);
            pipe.conn.write_all(&env).expect("server accepts frames");
            inflight.push_back((next, i, Instant::now(), top, ex));
            next += 1;
        }
        let (r, i, sent, top, ex) = inflight.pop_front().expect("window is not empty");
        let doc = pipe
            .scanner
            .recv(&mut pipe.conn)
            .expect("server answers")
            .expect("one reply per frame");
        lat.push(sent.elapsed());
        tr.end(ex);
        let sp = tr.begin("net", "wire.decode", r as u64, top);
        let out = wire::decode_response(doc);
        tr.end(sp);
        tr.end(top);
        check.doc(doc, &s.refs[i]);
        if let Err(e) = out {
            check.error(&e);
        }
    }
}
