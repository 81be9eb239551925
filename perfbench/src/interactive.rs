//! `interactive`: one `ResilientClient`, one request in flight, cheap
//! pointwise queries (`MaxX`, `Knows`, `TightBound`, `CoordDecision`)
//! against warm stream sessions whose observers were built during
//! set-up. The engine's share of a round trip is well under a
//! microsecond, so `net`, `client` and `wire` decide the result; a `core`
//! change should predict no change here.

use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::Rng;
use zigzag_api::net::NetServer;
use zigzag_api::{
    wire, ClientConfig, Query, ResilientClient, SessionConfig, SessionId, ZigzagService,
};
use zigzag_coord::StreamDriver;
use zigzag_core::{GeneralNode, IncrementalEngine};

use crate::check::Checker;
use crate::common::{check_response, net_config, raw_request, serve_one, wire_roundtrip};
use crate::core_rung;
use crate::inputs::{self, Feed};
use crate::ladder::{Ladder, Layer};
use crate::speed::HostSpeed;
use crate::stats::{median, Metrics, Samples};
use crate::{affinity, layers, Outcome, Profile};

/// Stream sessions, events fed into each, observers queried per session,
/// and length of the request sequence.
struct Sizes {
    sessions: usize,
    events: usize,
    observers: usize,
    requests: usize,
}

fn sizes(p: &Profile) -> Sizes {
    if p.smoke {
        Sizes {
            sessions: 2,
            events: 60,
            observers: 3,
            requests: 40,
        }
    } else {
        Sizes {
            sessions: 4,
            events: 600,
            observers: 8,
            requests: 1000,
        }
    }
}

struct Setup {
    feeds: Vec<Feed>,
    service: Arc<ZigzagService>,
    sessions: Vec<SessionId>,
    /// Distinct queries, each addressed to a session index.
    pool: Vec<(usize, Query)>,
    /// Reference reply document per pool entry.
    refs: Vec<String>,
    /// The request sequence, as pool indices.
    seq: Vec<usize>,
    server: NetServer,
    sock: PathBuf,
}

fn setup(p: &Profile, sock: PathBuf) -> Setup {
    let sz = sizes(p);
    let feeds: Vec<Feed> = (0..sz.sessions)
        .map(|k| inputs::feed(p.seed, k as u64, sz.events))
        .collect();
    let service = Arc::new(ZigzagService::new());
    let mut rng = inputs::rng(p.seed, 1);
    let mut sessions = Vec::new();
    let mut pool = Vec::new();
    for (k, feed) in feeds.iter().enumerate() {
        let config = SessionConfig::new().spec(feed.spec.clone());
        let id = service.open_stream(Arc::clone(&feed.ctx), feed.horizon, config);
        for ev in &feed.events {
            service.append(id, ev).expect("a recorded feed appends");
        }
        sessions.push(id);
        let run = service.with_run(id, Clone::clone).expect("open session");
        let nodes = inputs::nodes(&run);
        let anchor = run
            .external_receipt_node(feed.spec.c, &feed.spec.go_name)
            .unwrap_or(nodes[0]);
        for sigma in inputs::spread(&nodes, sz.observers, &mut rng) {
            let theta1 = GeneralNode::basic(inputs::theta_in_past(&run, sigma, &mut rng));
            let theta2 = GeneralNode::basic(sigma);
            pool.push((
                k,
                Query::MaxX {
                    sigma,
                    theta1: theta1.clone(),
                    theta2: theta2.clone(),
                },
            ));
            pool.push((
                k,
                Query::Knows {
                    sigma,
                    theta1,
                    theta2,
                    x: 1,
                },
            ));
            pool.push((
                k,
                Query::TightBound {
                    from: anchor,
                    to: sigma,
                },
            ));
        }
        pool.push((k, Query::CoordDecision));
    }
    // The reference pass doubles as the warm-up that builds every
    // observer and memoizes every tight-bound source.
    let refs = pool
        .iter()
        .map(|(k, q)| {
            wire::encode_response(
                &service
                    .dispatch(sessions[*k], q)
                    .expect("interactive queries succeed"),
            )
        })
        .collect();
    let seq = (0..sz.requests)
        .map(|_| rng.gen_range(0..pool.len()))
        .collect();
    let server =
        NetServer::bind_unix(&sock, Arc::clone(&service), net_config()).expect("bind socket");
    Setup {
        feeds,
        service,
        sessions,
        pool,
        refs,
        seq,
        server,
        sock,
    }
}

/// Runs the request sequence cyclically for `dur`, sampling the host's
/// speed between requests; returns the seconds the requests took.
fn drive(
    s: &Setup,
    client: &mut ResilientClient,
    dur: Duration,
    lat: &mut Samples,
    check: &mut Checker,
    buf: &mut String,
    speed: &mut HostSpeed,
) -> f64 {
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    for &i in s.seq.iter().cycle() {
        paused += speed.tick();
        if start.elapsed() - paused >= dur {
            break;
        }
        let (k, q) = &s.pool[i];
        let t0 = Instant::now();
        let out = client.query(s.sessions[*k], q);
        lat.push(t0.elapsed());
        check_response(check, out, &s.refs[i], buf);
    }
    (start.elapsed() - paused).as_secs_f64()
}

pub fn run(p: &Profile, trace: bool) -> Outcome {
    // Every thread of the run (the server's inherit this one's placement)
    // shares one CPU; see `affinity`.
    affinity::pin(&p.cpus[p.cpus.len().saturating_sub(1)..]);
    let mut speed = HostSpeed::new();
    let (s, setup_s) =
        crate::timed_setups(p, |k| setup(p, p.dir.join(format!("i{k}.sock"))), teardown);
    let mut check = Checker::new(p.corrupt);
    let mut m = Metrics::default();
    let mut extra = Metrics::default();
    if trace {
        ladder(p, &s, &mut m, &mut check);
    } else {
        speed.sample();
        let mut client = ResilientClient::connect_unix(&s.sock, ClientConfig::new());
        let mut buf = String::new();
        let mut warm = Samples::default();
        let (c, b) = (&mut client, &mut buf);
        drive(&s, c, p.warmup, &mut warm, &mut check, b, &mut speed);
        let mut lat = Samples::with_capacity(1 << 16);
        let elapsed = drive(&s, c, p.measure, &mut lat, &mut check, b, &mut speed);
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

fn teardown(s: Setup) {
    s.server.shutdown();
    let _ = std::fs::remove_file(&s.sock);
}

/// The ladder: the request sequence through direct engine calls, the
/// service, the wire codec, the serve loop, a raw envelope client and the
/// resilient client.
fn ladder(p: &Profile, s: &Setup, m: &mut Metrics, check: &mut Checker) {
    let mut drivers: Vec<StreamDriver> = s
        .feeds
        .iter()
        .map(|feed| {
            let mut d = StreamDriver::over(
                feed.spec.clone(),
                IncrementalEngine::new(Arc::clone(&feed.ctx), feed.horizon),
            );
            for ev in &feed.events {
                d.step(ev).expect("a recorded feed steps");
            }
            d
        })
        .collect();
    let req = |r: usize| &s.pool[s.seq[r]];
    let want = |r: usize| s.refs[s.seq[r]].as_str();
    let mut warm_query_us = Vec::with_capacity(p.ladder_reps * s.seq.len());
    let mut raw = UnixStream::connect(&s.sock).expect("server listening");
    let mut l = Ladder::new(p, s.seq.len(), 10, &s.service, &s.server, check);
    loop {
        let measured = l.measured();
        l.each(Layer::Core, Some("core.query"), want, |_, r| {
            let (k, q) = req(r);
            let t0 = Instant::now();
            let out = core_rung::answer(&mut drivers[*k], q);
            if measured && matches!(q, Query::MaxX { .. } | Query::Knows { .. }) {
                warm_query_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            out
        });
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
        l.each(Layer::Serve, Some("serve.serve"), want, |_, r| {
            let (k, q) = req(r);
            serve_one(&s.service, s.sessions[*k], q)
        });
        l.each(Layer::Net, None, want, |tr, r| {
            let (k, q) = req(r);
            raw_request(tr, &mut raw, s.sessions[*k], q, r as u64)
        });
        // A fresh client per repetition, so the net rung above ran with
        // no other connection open.
        let mut client = l.client(&s.sock, s.sessions[0]);
        let mut query = |r: usize| {
            let (k, q) = req(r);
            client.query(s.sessions[*k], q)
        };
        l.each(Layer::Client, Some("client.query"), want, |_, r| query(r));
        l.each(Layer::Untraced, None, want, |_, r| query(r));
        if !l.next_rep() {
            break;
        }
    }
    l.finish(m, p, "interactive");
    let run0 = &s
        .service
        .with_run(s.sessions[0], Clone::clone)
        .expect("open session");
    let sigmas: Vec<_> = s
        .pool
        .iter()
        .filter(|(k, _)| *k == 0)
        .filter_map(|(_, q)| match q {
            Query::MaxX { sigma, .. } => Some(*sigma),
            _ => None,
        })
        .collect();
    let pairs: Vec<_> = s
        .pool
        .iter()
        .filter(|(k, _)| *k == 0)
        .filter_map(|(_, q)| match q {
            Query::TightBound { from, to } => Some((*from, *to)),
            _ => None,
        })
        .collect();
    m.put(
        "core.observer_build_us",
        layers::observer_build_us(run0, &sigmas),
        "us",
    );
    m.put(
        "core.tight_bound_us",
        layers::tight_bound_cold_us(run0, &pairs),
        "us",
    );
    m.put("core.query_us", median(&warm_query_us), "us");
    m.put("core.append_us", layers::append_us(&s.feeds[0]), "us");
    layers::coord_steps(m, &s.feeds[0]);
}
