//! The facade's one session kind: a [`StreamSession`] wrapping an
//! [`IncrementalEngine`] (driven by a [`zigzag_coord::StreamDriver`]
//! when the config carries a coordination spec).
//!
//! A live session grows one [`RunEvent`] at a time. A session over a
//! complete recorded [`Run`] is the same thing **sealed**: what σ knows
//! depends only on `past(r, σ)` (observer stability), so a finished run
//! is just a stream prefix that will not grow. It is built in bulk with
//! [`IncrementalEngine::from_prefix`] — one message index, one `GB(r)`,
//! an LRU-bounded cache of observer states — its Protocol 2 progress is
//! computed once at open ([`zigzag_coord::StreamDriver::adopt`]), and
//! the service refuses to append to, count or export it
//! ([`crate::Error::NotStreaming`]). Byte-identity of every answer with
//! the corresponding direct engine call is pinned by the differential
//! oracle (`tests/oracle.rs`).
//!
//! # Locking
//!
//! Sessions synchronize **individually**, never through a shared lock:
//! each guards its engine — and, for a durable session, its log writer
//! ([`crate::store`]) — with one `RwLock`. Queries share read access;
//! an append takes the write side, applies the event and writes its log
//! record before releasing it. One slow query on one session never
//! blocks traffic on another. A sealed session is refused before
//! its write lock is taken, so that lock never sees a writer and can
//! never be poisoned. The only re-entrancy hazard left is a
//! [`crate::ZigzagService::with_run`] closure calling back into the
//! *same* session (read-read recursion on its `RwLock`), which the
//! method docs forbid.

use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

use zigzag_bcm::stream::RunEvent;
use zigzag_bcm::{Context, NodeId, Run, Time};
use zigzag_coord::{ProbeSemantics, StreamDriver, TimedCoordination};
use zigzag_core::incremental::IncrementalEngine;

use crate::config::SessionConfig;
use crate::error::Error;
use crate::query::{CoordReport, FastRunReport, Query, Response, WitnessReport};
use crate::store::{Checkpoint, LogWriter, SessionLog};

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
    /// The session's event count right after this append, read under
    /// the same write lock (what [`Query::Append`] answers).
    pub events: u64,
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

    /// Protocol 2's `(first_known, sigma_c)` progress; `None` without a
    /// spec.
    fn progress(&self) -> Option<(Option<NodeId>, Option<NodeId>)> {
        match self {
            StreamInner::Plain(_) => None,
            StreamInner::Coord(driver) => Some((driver.first_known(), driver.sigma_c())),
        }
    }

    /// The derived state a checkpoint record carries.
    fn checkpoint(&self) -> Checkpoint {
        let engine = self.engine();
        let (first_known, sigma_c) = self.progress().unwrap_or((None, None));
        Checkpoint {
            events: engine.event_count() as u64,
            first_known,
            sigma_c,
            observers: engine.observer_keys(),
        }
    }
}

/// What a session's `RwLock` guards.
#[derive(Debug)]
struct State {
    inner: StreamInner,
    /// A durable session's log writer; `None` for an in-memory session.
    log: Option<LogWriter>,
}

/// Answers one query on a session's engine — *the* dispatch code path
/// shared by single calls, batches and the serving loops.
fn dispatch_on(inner: &StreamInner, query: &Query) -> Result<Response, Error> {
    let engine = inner.engine();
    match query {
        Query::MaxX {
            sigma,
            theta1,
            theta2,
        } => Ok(Response::MaxX(
            engine.engine(*sigma)?.max_x(theta1, theta2)?,
        )),
        Query::Knows {
            sigma,
            theta1,
            theta2,
            x,
        } => Ok(Response::Knows(
            engine.engine(*sigma)?.knows(theta1, theta2, *x)?,
        )),
        Query::Witness {
            sigma,
            theta1,
            theta2,
        } => Ok(Response::Witness(
            engine
                .engine(*sigma)?
                .witness(theta1, theta2)?
                .map(|(weight, vz)| WitnessReport {
                    weight,
                    pattern: vz.to_string(),
                }),
        )),
        Query::MaxXMatrix { sigma } => Ok(Response::MaxXMatrix(
            engine.engine(*sigma)?.max_x_basic_matrix()?,
        )),
        Query::TightBound { from, to } => Ok(Response::TightBound(engine.tight_bound(*from, *to)?)),
        Query::FastRun {
            sigma,
            theta,
            gamma,
            extra_horizon,
        } => {
            let fr = engine
                .engine(*sigma)?
                .fast_run_of(theta, *gamma, *extra_horizon)?;
            Ok(Response::FastRun(FastRunReport {
                sigma: fr.sigma,
                gamma: fr.gamma,
                theta_time: fr.theta_time,
                run: fr.run,
            }))
        }
        Query::CoordDecision => {
            let (first_known, sigma_c) = inner.progress().ok_or(Error::NoSpec)?;
            Ok(Response::CoordDecision(CoordReport {
                first_known,
                sigma_c,
            }))
        }
        // Service-level: ZigzagService::dispatch_with, the one routing
        // point of every caller, answers these before any session is
        // resolved. A bare session has no service-wide counters (Stats),
        // exporting needs the session's handle, importing installs into
        // the service table, appends take the write lock (and never nest
        // in a batch, where the exactly-once probe could not tell which
        // batch member landed), and recovery sweeps the whole store
        // directory.
        Query::Stats
        | Query::Export
        | Query::Import(_)
        | Query::Append(_)
        | Query::EventCount
        | Query::Recover => Err(Error::ServiceLevelQuery),
        Query::QueryBatch(queries) => queries
            .iter()
            .map(|q| dispatch_on(inner, q))
            .collect::<Result<Vec<_>, _>>()
            .map(Response::ResponseBatch),
    }
}

/// One open session of a [`crate::ZigzagService`]: an append-only run
/// wrapped around an [`IncrementalEngine`] (plus a [`StreamDriver`] when
/// a coordination spec is configured), under the session's
/// [`CachePolicy`]. The engine — with a durable session's log writer —
/// sits behind a session-local `RwLock`: queries share read access,
/// appends take the write side — no cross-session lock exists. A
/// **sealed** session (see the [module docs](self)) holds a complete
/// recorded run and is never appended to.
///
/// [`CachePolicy`]: crate::CachePolicy
#[derive(Debug)]
pub struct StreamSession {
    state: RwLock<State>,
    config: SessionConfig,
    /// Set only by [`StreamSession::sealed`]: the service refuses
    /// appends, event counts and exports on this session.
    sealed: bool,
}

impl StreamSession {
    /// Opens a session over an empty stream on `context`, recording up to
    /// `horizon`.
    pub fn new(context: Arc<Context>, horizon: Time, config: SessionConfig) -> Self {
        let engine = IncrementalEngine::new(context, horizon);
        Self::resume(config, engine, None, None)
    }

    /// Resumes a session over an engine already holding a recovered (or
    /// imported) run prefix, seeding the coordination progress a
    /// checkpoint recorded — the restore path of [`crate::store`]. The
    /// compaction and checkpoint cadences count the engine's events, so
    /// they continue on the same schedule as an uninterrupted session.
    pub(crate) fn resume(
        config: SessionConfig,
        engine: IncrementalEngine,
        first_known: Option<NodeId>,
        sigma_c: Option<NodeId>,
    ) -> Self {
        Self::assemble(config, engine, false, |spec, engine, probe| {
            StreamDriver::resume(spec, engine, probe, sigma_c, first_known)
        })
    }

    /// Opens a sealed session over a complete recorded run: the engine is
    /// built in bulk over the whole run, and with a spec the Protocol 2
    /// progress is computed once, here.
    pub(crate) fn sealed(run: Run, config: SessionConfig) -> Self {
        let engine = IncrementalEngine::from_prefix(run);
        Self::assemble(config, engine, true, StreamDriver::adopt)
    }

    /// The one construction site: applies the config's observer cap
    /// (before `drive` runs, so any decision states it builds respect the
    /// bound) and wraps the engine in a driver when a spec is configured.
    fn assemble(
        config: SessionConfig,
        mut engine: IncrementalEngine,
        sealed: bool,
        drive: impl FnOnce(TimedCoordination, IncrementalEngine, ProbeSemantics) -> StreamDriver,
    ) -> Self {
        engine.set_observer_cap(config.cache.max_observers);
        let inner = match &config.spec {
            Some(spec) => StreamInner::Coord(drive(spec.clone(), engine, config.probe)),
            None => StreamInner::Plain(engine),
        };
        StreamSession {
            state: RwLock::new(State { inner, log: None }),
            config,
            sealed,
        }
    }

    /// The session's configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Whether the session holds a complete recorded run that refuses
    /// appends (see the [module docs](self)).
    pub(crate) fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Makes the session durable: `log` records every later append.
    pub(crate) fn logging_to(mut self, log: LogWriter) -> Self {
        let state = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        state.log = Some(log);
        self
    }

    /// The name of the log a durable session writes (a poisoned one
    /// too); `None` for an in-memory session.
    pub(crate) fn log_name(&self) -> Option<String> {
        let state = self.state.read().unwrap_or_else(PoisonError::into_inner);
        state.log.as_ref().map(|log| log.name.clone())
    }

    /// Writes a checkpoint record to the session's log now; fails with
    /// [`Error::Store`] on an in-memory session or a broken log.
    pub(crate) fn checkpoint(&self) -> Result<(), Error> {
        let mut state = self.state.write().map_err(|_| poisoned())?;
        let State { inner, log } = &mut *state;
        let log = log.as_mut().ok_or_else(|| Error::Store {
            detail: "session is not durable: it has no log".into(),
        })?;
        log.checkpoint(&inner.checkpoint())
    }

    /// The session as a portable [`SessionLog`]: the grown run and a
    /// [`Checkpoint`] of its derived state — event count, coordination
    /// progress, warm-observer manifest — read under **one** read lock,
    /// so they agree even under concurrent appends.
    ///
    /// # Errors
    ///
    /// Fails as [`StreamSession::with_engine`] does.
    pub(crate) fn export(&self) -> Result<SessionLog, Error> {
        let state = self.read()?;
        let ck = state.inner.checkpoint();
        Ok(SessionLog::write(
            &self.config,
            state.inner.engine().run(),
            &ck,
        ))
    }

    /// Retires a durable session's log writer once the session has left
    /// its service's table: the write lock waits for an append in flight,
    /// and a stale handle's later appends and checkpoints are refused.
    pub(crate) fn close_log(&self) {
        let mut state = self.state.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(log) = state.log.as_mut() {
            log.closed = true;
        }
    }

    /// A poisoned session lock is *not* recovered: only the write side
    /// (an append) can poison it in practice, and an append that
    /// panicked mid-step may have left the engine's incremental state
    /// half-updated. Refusing with a typed error (instead of cascading
    /// the panic into every later caller) keeps the server alive while
    /// quarantining the session. A broken log is refused the same way:
    /// the session may hold an event that recovery will not restore.
    fn read(&self) -> Result<RwLockReadGuard<'_, State>, Error> {
        let state = self.state.read().map_err(|_| poisoned())?;
        state.log.as_ref().map_or(Ok(()), |log| log.check(false))?;
        Ok(state)
    }

    /// Runs `f` over the underlying incremental engine (shared read
    /// access: concurrent queries proceed, appends wait).
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Internal`] if an earlier append panicked
    /// mid-step and poisoned the session, and with [`Error::Store`] if a
    /// durable session's log is broken.
    pub fn with_engine<T>(&self, f: impl FnOnce(&IncrementalEngine) -> T) -> Result<T, Error> {
        Ok(f(self.read()?.inner.engine()))
    }

    /// Runs `f` over the run (sealed) or grown prefix (live) without
    /// cloning it. The closure must not call back into the same session
    /// (it holds the session's read lock).
    ///
    /// # Errors
    ///
    /// Fails as [`StreamSession::with_engine`] does.
    pub fn with_run<T>(&self, f: impl FnOnce(&Run) -> T) -> Result<T, Error> {
        self.with_engine(|engine| f(engine.run()))
    }

    /// Number of events appended so far (for a sealed session, the
    /// events of its run).
    ///
    /// # Errors
    ///
    /// Fails as [`StreamSession::with_engine`] does.
    pub fn event_count(&self) -> Result<usize, Error> {
        self.with_engine(IncrementalEngine::event_count)
    }

    /// Number of observer states currently held warm. A poisoned or
    /// broken session reports 0 — its cache is unreachable and will
    /// never be served from again.
    pub fn observer_count(&self) -> usize {
        self.with_engine(IncrementalEngine::observer_count)
            .unwrap_or(0)
    }

    /// The session's observer-cache `(hits, misses, evictions)` totals;
    /// a poisoned or broken session reports zeros.
    pub(crate) fn cache_counters(&self) -> (u64, u64, u64) {
        self.with_engine(IncrementalEngine::observer_cache_counters)
            .unwrap_or((0, 0, 0))
    }

    /// Appends one event, evaluating the coordination decision when a
    /// spec is configured, and running the cache policy's periodic
    /// append-log compaction. A durable session writes the event's log
    /// record (and the cadence's checkpoint record) before the write
    /// lock is released. The service never calls this on a sealed
    /// session; it refuses with [`Error::NotStreaming`] first.
    ///
    /// # Errors
    ///
    /// Fails if the event is inconsistent with the grown prefix; the
    /// failure poisons the underlying engine (every later operation is
    /// refused) exactly as [`IncrementalEngine::append_event`] documents.
    /// A durable session fails with [`Error::Store`] before applying
    /// anything if its log is broken, and after applying the event if
    /// writing its record fails (which breaks the log).
    pub fn append(&self, ev: &RunEvent) -> Result<AppendReport, Error> {
        let mut state = self.state.write().map_err(|_| poisoned())?;
        let State { inner, log } = &mut *state;
        log.as_ref().map_or(Ok(()), |log| log.check(true))?;
        let (node, time, b_knows) = match inner {
            StreamInner::Plain(engine) => (engine.append_event(ev)?, ev.time, None),
            StreamInner::Coord(driver) => {
                let step = driver.step(ev)?;
                (step.node, step.time, step.b_knows)
            }
        };
        let events = inner.engine().event_count() as u64;
        if let Some(log) = log.as_mut() {
            log.event(ev, events, || inner.checkpoint())?;
        }
        if let Some(every) = self.config.cache.compact_every {
            if events.is_multiple_of(every) {
                inner.engine().compact()?;
            }
        }
        Ok(AppendReport {
            node,
            time,
            b_knows,
            events,
        })
    }

    /// Answers one query on the current prefix (shared read access); see
    /// [`crate::ZigzagService::dispatch`].
    ///
    /// # Errors
    ///
    /// Propagates the underlying engine error for the failing query;
    /// fails as [`StreamSession::with_engine`] does on a poisoned or
    /// broken session.
    pub fn dispatch(&self, query: &Query) -> Result<Response, Error> {
        dispatch_on(&self.read()?.inner, query)
    }
}

/// The error every lock acquisition on a poisoned session answers.
fn poisoned() -> Error {
    Error::Internal {
        detail: "stream session poisoned by a panicked append".into(),
    }
}
