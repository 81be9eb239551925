//! `coordinate`: the Protocol 2 loop on the write side. One
//! `ResilientClient` feeds a recorded FFIP run into a durable stream
//! session managed by a `SessionSupervisor`: every event goes in with the
//! exactly-once `append` and is followed by a `CoordDecision` poll. The
//! session carries a `Late{x}` spec and the store snapshots on a fixed
//! cadence. After the feed the server, store and service are dropped,
//! `SessionSupervisor::bind` recovers the directory, and a fresh server
//! must answer a probe battery byte for byte as the never-crashed session
//! does. It is the only workload that crosses `store`, the
//! `IncrementalEngine` append path, `coord` and recovery.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::Rng;
use zigzag_api::net::NetServer;
use zigzag_api::{
    wire, ClientConfig, Query, ResilientClient, SessionConfig, SessionId, SessionStore,
    SessionSupervisor, StoreConfig, ZigzagService,
};
use zigzag_coord::StreamDriver;
use zigzag_core::{GeneralNode, IncrementalEngine};

use crate::check::Checker;
use crate::common::{check_response, net_config, raw_request, serve_one, wire_roundtrip};
use crate::core_rung;
use crate::inputs::{self, Feed};
use crate::ladder::{Ladder, Layer};
use crate::speed::HostSpeed;
use crate::stats::{median, ratio, Metrics, Samples};
use crate::trace::SpanId;
use crate::{layers, Outcome, Profile};

struct Sizes {
    /// Feeds the passes rotate through, each on its own topology.
    feeds: usize,
    events: usize,
    snapshot_every: u64,
    /// Observers the probe battery asks about.
    probes: usize,
}

fn sizes(p: &Profile) -> Sizes {
    if p.smoke {
        Sizes {
            feeds: 2,
            events: 60,
            snapshot_every: 16,
            probes: 2,
        }
    } else {
        Sizes {
            feeds: 8,
            events: 1000,
            snapshot_every: 64,
            probes: 4,
        }
    }
}

/// The durable session's name in every store directory.
const NAME: &str = "feed";

/// One feed and its reference answers.
struct Case {
    feed: Feed,
    config: SessionConfig,
    /// Reference `CoordDecision` document after each append.
    step_refs: Vec<String>,
    /// The probe battery and its answers on the never-crashed session.
    battery: Vec<(Query, String)>,
}

struct Setup {
    cases: Vec<Case>,
    store_config: StoreConfig,
    sock: PathBuf,
    dir: PathBuf,
    passes: usize,
    /// The stack serving the next pass, with its session opened.
    live: Option<(Stack, SessionId)>,
}

/// A serving stack: service, supervisor (with its store) and server.
struct Stack {
    service: Arc<ZigzagService>,
    sup: Arc<SessionSupervisor>,
    server: NetServer,
}

impl Stack {
    /// Binds a supervisor over `store` (recovering whatever it holds)
    /// and starts a server; returns the recovered session ids by name.
    fn open(store: &Path, config: StoreConfig, sock: &Path) -> (Stack, Vec<(String, SessionId)>) {
        let service = Arc::new(ZigzagService::new());
        let store = Arc::new(SessionStore::open(store, config).expect("open store"));
        let (sup, sweep) =
            SessionSupervisor::bind(Arc::clone(&service), store).expect("recover the store");
        let server =
            NetServer::bind_unix(sock, Arc::clone(&service), net_config()).expect("bind socket");
        let ids = sweep.into_iter().map(|(n, r)| (n, r.id)).collect();
        (
            Stack {
                service,
                sup,
                server,
            },
            ids,
        )
    }

    fn open_session(&self, c: &Case, name: &str) -> SessionId {
        self.sup
            .store()
            .open_stream(
                &self.service,
                name,
                Arc::clone(&c.feed.ctx),
                c.feed.horizon,
                c.config.clone(),
            )
            .expect("open a durable session")
    }

    fn close(self) {
        self.server.shutdown();
    }
}

fn setup(p: &Profile, k: usize) -> Setup {
    let sz = sizes(p);
    let mut rng = inputs::rng(p.seed, 3);
    let cases = (0..sz.feeds)
        .map(|f| {
            case(
                inputs::feed(p.seed, 200 + f as u64, sz.events),
                sz.probes,
                &mut rng,
            )
        })
        .collect();
    let mut s = Setup {
        cases,
        store_config: StoreConfig::new().snapshot_every(sz.snapshot_every),
        sock: p.dir.join(format!("c{k}.sock")),
        dir: p.dir.join(format!("c{k}")),
        passes: 0,
        live: None,
    };
    s.live = Some(fresh_stack(&s));
    s
}

/// A feed with its references from a never-crashed in-process session.
fn case(feed: Feed, probes: usize, rng: &mut rand::StdRng) -> Case {
    let config = SessionConfig::new().spec(feed.spec.clone());
    let reference = ZigzagService::new();
    let rid = reference.open_stream(Arc::clone(&feed.ctx), feed.horizon, config.clone());
    let step_refs = feed
        .events
        .iter()
        .map(|ev| {
            reference.append(rid, ev).expect("a recorded feed appends");
            wire::encode_response(
                &reference
                    .dispatch(rid, &Query::CoordDecision)
                    .expect("the session has a spec"),
            )
        })
        .collect();
    let run = reference.with_run(rid, Clone::clone).expect("open session");
    let nodes = inputs::nodes(&run);
    let mut queries = vec![Query::CoordDecision, Query::EventCount];
    for sigma in inputs::spread(&nodes, probes, rng) {
        let theta1 = GeneralNode::basic(inputs::theta_in_past(&run, sigma, rng));
        let theta2 = GeneralNode::basic(sigma);
        queries.push(Query::MaxX {
            sigma,
            theta1: theta1.clone(),
            theta2: theta2.clone(),
        });
        queries.push(Query::Knows {
            sigma,
            theta1,
            theta2,
            x: 1,
        });
        queries.push(Query::TightBound {
            from: nodes[rng.gen_range(0..nodes.len())],
            to: sigma,
        });
    }
    let battery = queries
        .into_iter()
        .map(|q| {
            let doc = wire::encode_response(&reference.dispatch(rid, &q).expect("probe succeeds"));
            (q, doc)
        })
        .collect();

    Case {
        feed,
        config,
        step_refs,
        battery,
    }
}

fn store_dir(s: &Setup) -> PathBuf {
    s.dir.join(format!("pass{}", s.passes))
}

/// The case the current pass feeds.
fn current(s: &Setup) -> &Case {
    &s.cases[s.passes % s.cases.len()]
}

/// A stack over an empty store, with the current case's durable session
/// opened.
fn fresh_stack(s: &Setup) -> (Stack, SessionId) {
    let (stack, _) = Stack::open(&store_dir(s), s.store_config, &s.sock);
    let id = stack.open_session(current(s), NAME);
    (stack, id)
}

/// Per-pass figures.
#[derive(Default)]
struct Passes {
    steps: u64,
    recover_s: Vec<f64>,
    bytes_per_event: Vec<f64>,
}

/// One pass: feed every event (append, then poll), crash, recover, and
/// check the probe battery on the recovered session.
fn pass(s: &mut Setup, lat: &mut Samples, check: &mut Checker, out: &mut Passes) {
    let (stack, id) = s.live.take().expect("a stack is ready");
    let c = current(s);
    let mut client = ResilientClient::connect_unix(&s.sock, ClientConfig::new());
    let mut buf = String::new();
    for (k, ev) in c.feed.events.iter().enumerate() {
        let t0 = Instant::now();
        let appended = client.append(id, ev);
        let polled = client.query(id, &Query::CoordDecision);
        lat.push(t0.elapsed());
        match appended {
            Ok(n) => check.value(n, k as u64 + 1),
            Err(e) => check.error(&e),
        }
        check_response(check, polled, &c.step_refs[k], &mut buf);
        out.steps += 1;
    }
    let counters = stack.service.store_stats().snapshot();
    out.bytes_per_event.push(ratio(
        counters.bytes_written as f64,
        counters.events_logged as f64,
    ));
    drop(client);
    stack.close();

    let t0 = Instant::now();
    let (stack, ids) = Stack::open(&store_dir(s), s.store_config, &s.sock);
    let mut client = ResilientClient::connect_unix(&s.sock, ClientConfig::new());
    match ids.iter().find(|(n, _)| n == NAME) {
        Some(&(_, rid)) => {
            let first = client.query(rid, &Query::CoordDecision);
            let recovered = t0.elapsed();
            let want = c.step_refs.last().expect("a non-empty feed");
            let ok_before = check.failed;
            check_response(check, first, want, &mut buf);
            if check.failed == ok_before {
                out.recover_s.push(recovered.as_secs_f64());
            }
            for (q, want) in &c.battery {
                check_response(check, client.query(rid, q), want, &mut buf);
            }
        }
        None => check.error(&zigzag_api::Error::Store {
            detail: "the sweep did not recover the session".into(),
        }),
    }
    drop(client);
    stack.close();
    let _ = std::fs::remove_dir_all(store_dir(s));
    s.passes += 1;
    s.live = Some(fresh_stack(s));
}

/// Whole passes until `dur` has passed, sampling the host's speed between
/// passes; returns the seconds the passes took.
fn drive(
    s: &mut Setup,
    dur: Duration,
    lat: &mut Samples,
    check: &mut Checker,
    out: &mut Passes,
    speed: &mut HostSpeed,
) -> f64 {
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    loop {
        pass(s, lat, check, out);
        paused += speed.tick();
        let ran = start.elapsed() - paused;
        if ran >= dur {
            return ran.as_secs_f64();
        }
    }
}

/// `SessionSupervisor::bind` over a store holding one fully fed session.
fn recover_s(s: &Setup, c: &Case) -> f64 {
    let dir = s.dir.join("recover");
    let service = ZigzagService::new();
    let store = SessionStore::open(&dir, s.store_config).expect("open store");
    let id = store
        .open_stream(
            &service,
            NAME,
            Arc::clone(&c.feed.ctx),
            c.feed.horizon,
            c.config.clone(),
        )
        .expect("open a durable session");
    for ev in &c.feed.events {
        store
            .append(&service, id, ev)
            .expect("a recorded feed appends");
    }
    drop((store, service));
    let service = Arc::new(ZigzagService::new());
    let store = Arc::new(SessionStore::open(&dir, s.store_config).expect("open store"));
    let t0 = Instant::now();
    let bound = SessionSupervisor::bind(service, store).expect("recover the store");
    let d = t0.elapsed().as_secs_f64();
    drop(bound);
    let _ = std::fs::remove_dir_all(&dir);
    d
}

fn teardown(mut s: Setup) {
    if let Some((stack, _)) = s.live.take() {
        stack.close();
    }
    let _ = std::fs::remove_dir_all(&s.dir);
    let _ = std::fs::remove_file(&s.sock);
}

pub fn run(p: &Profile, trace: bool) -> Outcome {
    // Every thread of the run (the server's inherit this one's placement)
    // shares one CPU; see `affinity`.
    crate::affinity::pin(&p.cpus[p.cpus.len().saturating_sub(1)..]);
    let mut speed = HostSpeed::new();
    let (mut s, setup_s) = crate::timed_setups(p, |k| setup(p, k), teardown);
    let mut check = Checker::new(p.corrupt);
    let mut m = Metrics::default();
    let mut extra = Metrics::default();
    if trace {
        if let Some((stack, _)) = s.live.take() {
            stack.close();
        }
        ladder(p, &s, &mut m, &mut check);
    } else {
        speed.sample();
        let mut warm = Samples::default();
        drive(
            &mut s,
            p.warmup,
            &mut warm,
            &mut check,
            &mut Passes::default(),
            &mut speed,
        );
        let mut lat = Samples::with_capacity(1 << 16);
        let mut passes = Passes::default();
        let elapsed = drive(
            &mut s,
            p.measure,
            &mut lat,
            &mut check,
            &mut passes,
            &mut speed,
        );
        m.put("setup_s", setup_s, "s");
        lat.put_end_to_end(&mut m, elapsed);
        speed.scale(&mut m, &mut extra);
        extra.put_n(
            "recover_s",
            median(&passes.recover_s),
            "s",
            passes.recover_s.len(),
        );
        extra.put("bytes_per_event", median(&passes.bytes_per_event), "B");
    }
    teardown(s);
    Outcome {
        metrics: m,
        extra,
        check,
    }
}

/// The ladder over the feed, one step = append + `CoordDecision` poll:
/// `StreamDriver`, the service, the durable store, the wire codec, the
/// serve loop, a raw envelope client and the resilient client. Every
/// rung of every repetition feeds a fresh session.
fn ladder(p: &Profile, s: &Setup, m: &mut Metrics, check: &mut Checker) {
    let c = &s.cases[0];
    let events = &c.feed.events;
    let n = events.len();
    let want = |r: usize| c.step_refs[r].as_str();
    let coord = Query::CoordDecision;
    let appends: Vec<Query> = events
        .iter()
        .map(|ev| Query::Append(Box::new(ev.clone())))
        .collect();
    let mut snapshot_us = Vec::new();
    let (mut log_bytes, mut store_bytes) = (Vec::new(), Vec::new());
    let (stack, _) = Stack::open(&store_dir(s), s.store_config, &s.sock);
    let plain = ZigzagService::new();
    let mut raw = UnixStream::connect(&s.sock).expect("server listening");
    let mut driver = None;
    let mut l = Ladder::new(p, n, 12, &plain, &stack.server, check);
    for rep in 0.. {
        // core: the coordination driver over a fresh incremental engine.
        let d = driver.insert(StreamDriver::over(
            c.feed.spec.clone(),
            IncrementalEngine::new(Arc::clone(&c.feed.ctx), c.feed.horizon),
        ));
        l.each(Layer::Core, Some("coord.step"), want, |_, r| {
            d.step(&events[r])
                .map_err(zigzag_api::Error::from)
                .and_then(|_| core_rung::answer(d, &coord))
        });
        // service: a plain in-memory stream session.
        let id = plain.open_stream(Arc::clone(&c.feed.ctx), c.feed.horizon, c.config.clone());
        l.each(Layer::Service, Some("service.append"), want, |_, r| {
            plain
                .append(id, &events[r])
                .and_then(|_| plain.dispatch(id, &coord))
        });
        // store: the same appends through SessionStore::append, timed one
        // by one to find the appends that wrote a snapshot.
        let name = format!("store{rep}");
        let id = stack.open_session(c, &name);
        let durable = stack.sup.store();
        let snaps = || stack.service.store_stats().snapshot();
        let c0 = snaps();
        for (r, ev) in events.iter().enumerate() {
            let before = snaps().snapshots;
            let t0 = Instant::now();
            let out = l.time(Layer::Store, 1, |tr, _| {
                let sp = tr.begin("store", "store.append", r as u64, SpanId::NONE);
                let out = durable
                    .append(&stack.service, id, ev)
                    .and_then(|_| stack.service.dispatch(id, &coord));
                tr.end(sp);
                out
            });
            if l.measured() && snaps().snapshots > before {
                snapshot_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            l.check(out, want(r));
        }
        let c1 = snaps();
        store_bytes.push(ratio(
            (c1.bytes_written - c0.bytes_written) as f64,
            (c1.events_logged - c0.events_logged) as f64,
        ));
        let log_len = std::fs::metadata(durable.log_path(&name)).map_or(0, |md| md.len());
        log_bytes.push(log_len as f64 / n as f64);
        // wire: append and poll frames through the codec, dispatched on
        // the supervised service (so appends are durable).
        let id = stack.open_session(c, &format!("wire{rep}"));
        let mut bytes = [0; 2];
        l.each(Layer::Wire, Some("wire.roundtrip"), want, |_, r| {
            wire_roundtrip(&stack.service, id, &appends[r], &mut bytes)
                .and_then(|_| wire_roundtrip(&stack.service, id, &coord, &mut bytes))
        });
        l.wire_bytes(bytes);
        // serve: each frame through the serve loop.
        let id = stack.open_session(c, &format!("serve{rep}"));
        l.each(Layer::Serve, Some("serve.serve"), want, |_, r| {
            serve_one(&stack.service, id, &appends[r])
                .and_then(|_| serve_one(&stack.service, id, &coord))
        });
        // net: a raw envelope client, append then poll.
        let id = stack.open_session(c, &format!("net{rep}"));
        l.each(Layer::Net, None, want, |tr, r| {
            raw_request(tr, &mut raw, id, &appends[r], r as u64)
                .and_then(|_| raw_request(tr, &mut raw, id, &coord, r as u64))
        });
        // client: the resilient client's exactly-once append, then poll;
        // a fresh client per repetition, so the net rung above ran with no
        // other connection open.
        let id = stack.open_session(c, &format!("client{rep}"));
        let mut client = l.client(&s.sock, id);
        l.each(Layer::Client, Some("client.append"), want, |_, r| {
            client
                .append(id, &events[r])
                .and_then(|_| client.query(id, &coord))
        });
        let id = stack.open_session(c, &format!("untraced{rep}"));
        l.each(Layer::Untraced, None, want, |_, r| {
            client
                .append(id, &events[r])
                .and_then(|_| client.query(id, &coord))
        });
        drop(client);
        if !l.next_rep() {
            break;
        }
    }
    l.finish(m, p, "coordinate");
    drop(raw);
    stack.close();
    let _ = std::fs::remove_dir_all(&s.dir);
    let reps = p.ladder_reps;
    let recover: Vec<f64> = (0..reps.min(3)).map(|_| recover_s(s, c)).collect();

    let mut d = driver.expect("at least one repetition");
    let run = d.engine().run().clone();
    let mut sigmas = Vec::new();
    let mut pairs = Vec::new();
    let mut warm_query_us = Vec::new();
    for (q, _) in &c.battery {
        match q {
            Query::MaxX { sigma, .. } | Query::Knows { sigma, .. } => {
                sigmas.push(*sigma);
                core_rung::answer(&mut d, q).expect("probe succeeds");
                let t0 = Instant::now();
                let out = core_rung::answer(&mut d, q);
                warm_query_us.push(t0.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(out).expect("probe succeeds");
            }
            Query::TightBound { from, to } => pairs.push((*from, *to)),
            _ => {}
        }
    }
    m.put(
        "core.observer_build_us",
        layers::observer_build_us(&run, &sigmas),
        "us",
    );
    m.put(
        "core.tight_bound_us",
        layers::tight_bound_cold_us(&run, &pairs),
        "us",
    );
    m.put("core.query_us", median(&warm_query_us), "us");
    m.put("core.append_us", layers::append_us(&c.feed), "us");
    layers::coord_steps(m, &c.feed);
    m.put("store.snapshot_us", median(&snapshot_us), "us");
    m.put("store.log_bytes_per_event", median(&log_bytes), "B");
    m.put("store.bytes_per_event", median(&store_bytes), "B");
    m.put("store.recover_s", median(&recover), "s");
}
