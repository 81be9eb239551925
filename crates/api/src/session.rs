//! Typed session handles unifying batch runs and live streams.
//!
//! A [`Session`] is the facade's unit of state: either a **batch**
//! session wrapping a complete recorded [`Run`] (the owned form of
//! `zigzag_core::analyzer::RunAnalyzer`'s shared-analysis scheme — one
//! message index, one `GB(r)`, one cached `ObserverState` per queried
//! observer), or a **stream** session wrapping an
//! [`IncrementalEngine`] (optionally driven by a
//! [`zigzag_coord::StreamDriver`] when the config carries a coordination
//! spec) that grows one [`RunEvent`] at a time.
//!
//! Both shapes answer the same [`Query`] family through the same
//! [`SessionBackend`] trait, so a caller — or the bench harness — cannot
//! tell them apart except by whether [`StreamSession::append`] applies.
//! Byte-identity of every answer with the corresponding direct engine
//! call is pinned by the differential oracle (`tests/oracle.rs`).
//!
//! # Locking
//!
//! Sessions synchronize **individually**, never through a shared lock:
//! batch sessions answer queries from `&self` (their interior caches
//! carry their own fine-grained locks), and a stream session guards its
//! growing engine with one `RwLock` — queries share read access,
//! appends take the write side. One slow query on one session never
//! blocks traffic on another. The only re-entrancy hazard left is a
//! [`crate::ZigzagService::with_run`] closure calling back into the
//! *same stream* session (read-read recursion on its `RwLock`), which
//! the method docs forbid.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, RwLockReadGuard};

use zigzag_bcm::stream::RunEvent;
use zigzag_bcm::{Context, NodeId, Run, Time};
use zigzag_coord::StreamDriver;
use zigzag_core::bounds_graph::BoundsGraph;
use zigzag_core::extended_graph::MessageIndex;
use zigzag_core::incremental::IncrementalEngine;
use zigzag_core::knowledge::{ObserverCache, ObserverState};
use zigzag_core::KnowledgeEngine;

use crate::config::SessionConfig;
use crate::error::Error;
use crate::query::{CoordReport, FastRunReport, Query, Response, WitnessReport};
use crate::store::Checkpoint;

/// What one appended event meant for a stream session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendReport {
    /// The node the event created.
    pub node: NodeId,
    /// Its time.
    pub time: Time,
    /// For sessions with a coordination spec: `Some(decision)` when the
    /// node belongs to `B` (whether `B` knows enough to act right there),
    /// `None` otherwise. Always `None` without a spec.
    pub b_knows: Option<bool>,
}

/// The engine surface a [`Query`] dispatch needs — the one trait both
/// session shapes implement, so single calls, batches and the bench
/// harness share a single dispatch code path.
pub trait SessionBackend {
    /// The run (for batch sessions) or the grown prefix (for streams).
    fn run(&self) -> &Run;

    /// The knowledge engine observing at `sigma`, served from the
    /// session's observer-state cache under its [`CachePolicy`]
    /// (built on miss, LRU-evicted on overflow).
    ///
    /// [`CachePolicy`]: crate::CachePolicy
    ///
    /// # Errors
    ///
    /// Fails if `sigma` does not appear in the run/prefix.
    fn engine(&self, sigma: NodeId) -> Result<KnowledgeEngine<'_>, Error>;

    /// The tight bound on `time(to) − time(from)` supported by `GB(r)`.
    ///
    /// # Errors
    ///
    /// Fails if `from` is not a recorded node.
    fn tight_bound(&self, from: NodeId, to: NodeId) -> Result<Option<i64>, Error>;

    /// Protocol 2's verdict for the session's configured spec.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::NoSpec`] when the session has no spec.
    fn coord_decision(&self) -> Result<CoordReport, Error>;

    /// Number of observer states currently held warm (the quantity the
    /// cache policy bounds).
    fn observer_count(&self) -> usize;
}

/// Answers one query against any backend — *the* dispatch code path.
pub(crate) fn dispatch_on<B: SessionBackend + ?Sized>(
    backend: &B,
    query: &Query,
) -> Result<Response, Error> {
    match query {
        Query::MaxX {
            sigma,
            theta1,
            theta2,
        } => Ok(Response::MaxX(
            backend.engine(*sigma)?.max_x(theta1, theta2)?,
        )),
        Query::Knows {
            sigma,
            theta1,
            theta2,
            x,
        } => Ok(Response::Knows(
            backend.engine(*sigma)?.knows(theta1, theta2, *x)?,
        )),
        Query::Witness {
            sigma,
            theta1,
            theta2,
        } => Ok(Response::Witness(
            backend
                .engine(*sigma)?
                .witness(theta1, theta2)?
                .map(|(weight, vz)| WitnessReport {
                    weight,
                    pattern: vz.to_string(),
                }),
        )),
        Query::MaxXMatrix { sigma } => Ok(Response::MaxXMatrix(
            backend.engine(*sigma)?.max_x_basic_matrix()?,
        )),
        Query::TightBound { from, to } => {
            Ok(Response::TightBound(backend.tight_bound(*from, *to)?))
        }
        Query::FastRun {
            sigma,
            theta,
            gamma,
            extra_horizon,
        } => {
            let fr = backend
                .engine(*sigma)?
                .fast_run_of(theta, *gamma, *extra_horizon)?;
            Ok(Response::FastRun(FastRunReport {
                sigma: fr.sigma,
                gamma: fr.gamma,
                theta_time: fr.theta_time,
                run: fr.run,
            }))
        }
        Query::CoordDecision => Ok(Response::CoordDecision(backend.coord_decision()?)),
        // Service-level: a bare session has no service-wide counters to
        // answer with. ZigzagService::dispatch (and the serve/net loops)
        // intercept Stats before any session is resolved. Export/Import
        // are likewise intercepted there: exporting needs the session's
        // *handle* (not just backend access), and importing installs a
        // new session into the service table. Append/EventCount/Recover
        // are intercepted too: appends must route through the durable
        // store (and never nest in a batch, where the exactly-once probe
        // could not tell which batch member landed), and recovery sweeps
        // the whole store directory.
        Query::Stats
        | Query::Export
        | Query::Import(_)
        | Query::Append(_)
        | Query::EventCount
        | Query::Recover => Err(Error::ServiceLevelQuery),
        Query::QueryBatch(queries) => queries
            .iter()
            .map(|q| dispatch_on(backend, q))
            .collect::<Result<Vec<_>, _>>()
            .map(Response::ResponseBatch),
    }
}

/// A batch session: the owned, facade-side form of the
/// `RunAnalyzer` shared-analysis scheme over one complete recorded run,
/// with the observer cache bounded by the session's [`CachePolicy`].
///
/// [`CachePolicy`]: crate::CachePolicy
#[derive(Debug)]
pub struct BatchSession {
    run: Run,
    config: SessionConfig,
    /// Per-run message table, resolved once and shared by every derived
    /// `GE(r, σ)` and every coordination decision.
    messages: OnceLock<MessageIndex>,
    /// The global basic bounds graph `GB(r)`, built once per session.
    gb: OnceLock<BoundsGraph>,
    /// The coordination verdict, computed once: the run and config are
    /// immutable, so `CoordDecision` is a constant of the session.
    coord: OnceLock<Result<CoordReport, Error>>,
    observers: Mutex<ObserverCache>,
}

impl BatchSession {
    /// Opens a session over a complete recorded run.
    pub fn new(run: Run, config: SessionConfig) -> Self {
        let cap = config.cache.max_observers;
        BatchSession {
            run,
            config,
            messages: OnceLock::new(),
            gb: OnceLock::new(),
            coord: OnceLock::new(),
            observers: Mutex::new(ObserverCache::new(cap)),
        }
    }

    /// The session's configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    fn messages(&self) -> &MessageIndex {
        self.messages
            .get_or_init(|| MessageIndex::of_run(&self.run))
    }

    fn gb(&self) -> &BoundsGraph {
        self.gb.get_or_init(|| BoundsGraph::of_run(&self.run))
    }

    /// The session's observer-cache `(hits, misses, evictions)` totals.
    pub(crate) fn cache_counters(&self) -> (u64, u64, u64) {
        let cache = self
            .observers
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        (cache.hits(), cache.misses(), cache.evictions())
    }
}

impl SessionBackend for BatchSession {
    fn run(&self) -> &Run {
        &self.run
    }

    fn engine(&self, sigma: NodeId) -> Result<KnowledgeEngine<'_>, Error> {
        // A panic inside a caller's dispatch can poison this lock; the
        // cache itself is never left mid-mutation (entries are inserted
        // whole, after the build), so recovery is sound and keeps the
        // session serveable.
        let state = self
            .observers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_or_build(sigma, || {
                ObserverState::build(&self.run, sigma, self.messages())
            })?;
        Ok(KnowledgeEngine::with_state(&self.run, state))
    }

    fn tight_bound(&self, from: NodeId, to: NodeId) -> Result<Option<i64>, Error> {
        // Mirrors IncrementalEngine::tight_bound (memoized per-source
        // SPFA + O(1) target lookup) so the two session shapes share the
        // same answer path.
        let gb = self.gb();
        let lp = gb.longest_from_cached(from)?;
        Ok(gb.graph().index_of(&to).and_then(|i| lp.weight(i)))
    }

    fn coord_decision(&self) -> Result<CoordReport, Error> {
        // The run and spec never change, so the verdict is computed once
        // per session; the per-run message table is decision-invariant
        // and shared. Under the include probe the per-node decision
        // states are exactly the full-mode states knowledge queries use,
        // so they are retained in the session's observer cache for
        // reuse; under the exclude probe the verdict (computed exactly
        // once) is the only consumer of those states, and retaining them
        // would evict warm full-mode states for nothing — so they are
        // built fresh and dropped.
        self.coord
            .get_or_init(|| {
                let spec = self.config.spec.as_ref().ok_or(Error::NoSpec)?;
                let cache = match self.config.probe {
                    zigzag_coord::ProbeSemantics::IncludeOwnSends => Some(&self.observers),
                    zigzag_coord::ProbeSemantics::ExcludeOwnSends => None,
                };
                let (first_known, sigma_c) = zigzag_coord::first_knowledge_cached(
                    spec,
                    &self.run,
                    self.config.probe,
                    self.messages(),
                    cache,
                )?;
                Ok(CoordReport {
                    first_known,
                    sigma_c,
                })
            })
            .clone()
    }

    fn observer_count(&self) -> usize {
        self.observers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

/// The stream session's engine, with or without a coordination driver.
#[derive(Debug)]
enum StreamInner {
    /// No spec configured: the bare incremental engine.
    Plain(IncrementalEngine),
    /// Spec configured: a [`StreamDriver`] evaluating Protocol 2 online
    /// after every append, wrapping (and owning) the engine.
    Coord(StreamDriver),
}

impl StreamInner {
    fn engine(&self) -> &IncrementalEngine {
        match self {
            StreamInner::Plain(engine) => engine,
            StreamInner::Coord(driver) => driver.engine(),
        }
    }
}

impl SessionBackend for StreamInner {
    fn run(&self) -> &Run {
        self.engine().run()
    }

    fn engine(&self, sigma: NodeId) -> Result<KnowledgeEngine<'_>, Error> {
        Ok(StreamInner::engine(self).engine(sigma)?)
    }

    fn tight_bound(&self, from: NodeId, to: NodeId) -> Result<Option<i64>, Error> {
        Ok(StreamInner::engine(self).tight_bound(from, to)?)
    }

    fn coord_decision(&self) -> Result<CoordReport, Error> {
        match self {
            StreamInner::Plain(_) => Err(Error::NoSpec),
            StreamInner::Coord(driver) => Ok(CoordReport {
                first_known: driver.first_known(),
                sigma_c: driver.sigma_c(),
            }),
        }
    }

    fn observer_count(&self) -> usize {
        self.engine().observer_count()
    }
}

/// A stream session: a live, append-only run wrapped around an
/// [`IncrementalEngine`] (plus a [`StreamDriver`] when a coordination
/// spec is configured), under the session's [`CachePolicy`]. The engine
/// sits behind a session-local `RwLock`: queries share read access,
/// appends take the write side — no cross-session lock exists.
///
/// [`CachePolicy`]: crate::CachePolicy
#[derive(Debug)]
pub struct StreamSession {
    inner: RwLock<StreamInner>,
    config: SessionConfig,
    appends: AtomicU64,
}

impl StreamSession {
    /// Opens a session over an empty stream on `context`, recording up to
    /// `horizon`.
    pub fn new(context: Arc<Context>, horizon: Time, config: SessionConfig) -> Self {
        let mut engine = IncrementalEngine::new(context, horizon);
        engine.set_observer_cap(config.cache.max_observers);
        let inner = match &config.spec {
            Some(spec) => StreamInner::Coord(
                StreamDriver::over(spec.clone(), engine).with_probe(config.probe),
            ),
            None => StreamInner::Plain(engine),
        };
        StreamSession {
            inner: RwLock::new(inner),
            config,
            appends: AtomicU64::new(0),
        }
    }

    /// Resumes a session over an engine already holding a recovered (or
    /// imported) run prefix, seeding the coordination progress and the
    /// append counter a checkpoint recorded — the restore path of
    /// [`crate::store`]. The engine's observer cap is (re)applied from
    /// `config`; `events` seeds the compaction cadence so periodic
    /// maintenance continues on the same schedule as an uninterrupted
    /// session.
    pub(crate) fn resume(
        config: SessionConfig,
        mut engine: IncrementalEngine,
        events: u64,
        first_known: Option<NodeId>,
        sigma_c: Option<NodeId>,
    ) -> Self {
        engine.set_observer_cap(config.cache.max_observers);
        let inner = match &config.spec {
            Some(spec) => StreamInner::Coord(StreamDriver::resume(
                spec.clone(),
                engine,
                config.probe,
                sigma_c,
                first_known,
            )),
            None => StreamInner::Plain(engine),
        };
        StreamSession {
            inner: RwLock::new(inner),
            config,
            appends: AtomicU64::new(events),
        }
    }

    /// The session's configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Runs `f` over the grown run and a [`Checkpoint`] of the session's
    /// derived state — event count, coordination progress, warm-observer
    /// manifest — all read under **one** read-lock acquisition, so they
    /// are mutually consistent even under concurrent appends.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Internal`] if the session is poisoned.
    pub(crate) fn with_checkpoint<T>(
        &self,
        f: impl FnOnce(&Run, Checkpoint) -> T,
    ) -> Result<T, Error> {
        let inner = self.read()?;
        let engine = inner.engine();
        let (first_known, sigma_c) = match &*inner {
            StreamInner::Plain(_) => (None, None),
            StreamInner::Coord(driver) => (driver.first_known(), driver.sigma_c()),
        };
        Ok(f(
            engine.run(),
            Checkpoint {
                events: engine.event_count() as u64,
                first_known,
                sigma_c,
                observers: engine.observer_keys(),
            },
        ))
    }

    /// Unlike the session's interior `Mutex`es, a poisoned stream lock is
    /// *not* recovered: only the write side (an append) can poison it in
    /// practice, and an append that panicked mid-step may have left the
    /// engine's incremental state half-updated. Refusing with a typed
    /// error (instead of cascading the panic into every later caller)
    /// keeps the server alive while quarantining the session.
    fn read(&self) -> Result<RwLockReadGuard<'_, StreamInner>, Error> {
        self.inner.read().map_err(|_| Error::Internal {
            detail: "stream session poisoned by a panicked append".into(),
        })
    }

    /// Runs `f` over the underlying incremental engine (shared read
    /// access: concurrent queries proceed, appends wait).
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Internal`] if an earlier append panicked
    /// mid-step and poisoned the session.
    pub fn with_engine<T>(&self, f: impl FnOnce(&IncrementalEngine) -> T) -> Result<T, Error> {
        Ok(f(self.read()?.engine()))
    }

    /// Number of events appended so far.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Internal`] if the session is poisoned.
    pub fn event_count(&self) -> Result<usize, Error> {
        self.with_engine(IncrementalEngine::event_count)
    }

    /// Appends one event, evaluating the coordination decision when a
    /// spec is configured, and running the cache policy's periodic
    /// append-log compaction.
    ///
    /// # Errors
    ///
    /// Fails if the event is inconsistent with the grown prefix; the
    /// failure poisons the underlying engine (every later operation is
    /// refused) exactly as [`IncrementalEngine::append_event`] documents.
    pub fn append(&self, ev: &RunEvent) -> Result<AppendReport, Error> {
        let mut inner = self.inner.write().map_err(|_| Error::Internal {
            detail: "stream session poisoned by a panicked append".into(),
        })?;
        let report = match &mut *inner {
            StreamInner::Plain(engine) => {
                let node = engine.append_event(ev)?;
                AppendReport {
                    node,
                    time: ev.time,
                    b_knows: None,
                }
            }
            StreamInner::Coord(driver) => {
                let step = driver.step(ev)?;
                AppendReport {
                    node: step.node,
                    time: step.time,
                    b_knows: step.b_knows,
                }
            }
        };
        let appends = self.appends.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(every) = self.config.cache.compact_every {
            if appends.is_multiple_of(every) {
                inner.engine().compact()?;
            }
        }
        Ok(report)
    }

    /// Answers one query on the current prefix (shared read access).
    ///
    /// # Errors
    ///
    /// Propagates the underlying engine error for the failing query.
    pub fn dispatch(&self, query: &Query) -> Result<Response, Error> {
        dispatch_on(&*self.read()?, query)
    }
}

/// One open session of a [`crate::ZigzagService`]: batch or stream,
/// behind the shared [`SessionBackend`] query surface.
#[derive(Debug)]
pub enum Session {
    /// A batch session over a complete recorded run.
    Batch(BatchSession),
    /// A live stream session.
    Stream(StreamSession),
}

impl Session {
    /// Runs `f` over the run (batch) or grown prefix (stream) without
    /// cloning it. The closure must not call back into the same stream
    /// session (it holds the session's read lock).
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Internal`] on a poisoned stream session.
    pub fn with_run<T>(&self, f: impl FnOnce(&Run) -> T) -> Result<T, Error> {
        match self {
            Session::Batch(s) => Ok(f(&s.run)),
            Session::Stream(s) => Ok(f(s.read()?.run())),
        }
    }

    /// Number of observer states currently held warm. A poisoned stream
    /// session reports 0 — its cache is unreachable and will never be
    /// served from again.
    pub fn observer_count(&self) -> usize {
        match self {
            Session::Batch(s) => s.observer_count(),
            Session::Stream(s) => s
                .with_engine(IncrementalEngine::observer_count)
                .unwrap_or(0),
        }
    }

    /// The session's observer-cache `(hits, misses, evictions)` totals;
    /// a poisoned stream session reports zeros.
    pub(crate) fn cache_counters(&self) -> (u64, u64, u64) {
        match self {
            Session::Batch(s) => s.cache_counters(),
            Session::Stream(s) => s
                .with_engine(IncrementalEngine::observer_cache_counters)
                .unwrap_or((0, 0, 0)),
        }
    }

    /// Answers one query; see [`crate::ZigzagService::dispatch`].
    ///
    /// # Errors
    ///
    /// Propagates the underlying engine error for the failing query.
    pub fn dispatch(&self, query: &Query) -> Result<Response, Error> {
        match self {
            Session::Batch(s) => dispatch_on(s, query),
            Session::Stream(s) => s.dispatch(query),
        }
    }
}
