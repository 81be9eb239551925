//! The front door: a [`ZigzagService`] owning sessions and routing
//! queries.
//!
//! The service is the single public entry point the ROADMAP's serving
//! system builds on: callers open sessions — live streams, or sealed
//! sessions over complete recorded runs (one session kind, see
//! [`crate::session`]) — append events, and dispatch [`Query`]s — no
//! hand-wiring of `Simulator` / `KnowledgeEngine` / `IncrementalEngine`
//! / `StreamDriver` lifetimes. Every later scaling layer (sharded
//! services, async front ends, networked serving over the wire encoding)
//! is a deployment of this surface.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::time::Instant;

use zigzag_bcm::stream::RunEvent;
use zigzag_bcm::{Context, Run, RunCursor, Time};

use crate::config::SessionConfig;
use crate::error::Error;
use crate::net::NetView;
use crate::query::{Query, Response};
use crate::session::{AppendReport, StreamSession};
use crate::stats::{LatencyRecorder, StatsReport, StoreStats};
use crate::store::SessionLog;
use crate::supervisor::SessionSupervisor;

/// An opaque handle naming one open session of a [`ZigzagService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// Reconstructs a handle from its raw value (wire decoding, logs).
    pub fn from_raw(raw: u64) -> Self {
        SessionId(raw)
    }

    /// The raw value (wire encoding, logs).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Default number of session-table shards; see [`ZigzagService::sharded`].
const DEFAULT_SHARDS: usize = 16;

/// One shard of the session table: a slice of the handle space with its
/// own lock, so handle resolution on one shard never contends with
/// another — and so the [`crate::serve`] workers can each *own* a set of
/// shards outright.
#[derive(Debug, Default)]
struct Shard {
    sessions: Mutex<HashMap<u64, Arc<StreamSession>>>,
}

impl Shard {
    /// The shard's table. Table locks guard pure HashMap operations that
    /// cannot be interrupted by a panic mid-mutation, so a poisoned lock
    /// (left by a panic elsewhere while the lock was held on that stack)
    /// is recovered rather than cascaded into every later caller.
    fn table(&self) -> MutexGuard<'_, HashMap<u64, Arc<StreamSession>>> {
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The shard's sessions, with its lock held only to copy the list.
    fn snapshot(&self) -> Vec<Arc<StreamSession>> {
        self.table().values().cloned().collect()
    }
}

/// The service's monotone serving counters; see [`crate::stats`].
#[derive(Debug, Default)]
struct Metrics {
    /// Dispatches against a resolved session (success or error).
    dispatches: AtomicU64,
    /// Wall-time histogram over those dispatches.
    latency: LatencyRecorder,
    /// Durability counters, billed into by every durable session's log
    /// writer, by the [`crate::store::SessionStore`] and by
    /// export/import.
    store: Arc<StoreStats>,
}

/// The unified service facade; see the [module docs](self) and the
/// crate-level example.
///
/// The session table is **sharded**: handles map to shards by
/// `id % shard_count` ([`ZigzagService::shard_of`]), and each shard's own
/// lock is held only for handle resolution (lookup/insert/remove) —
/// never across query evaluation or appends. Each session synchronizes
/// individually (see [`crate::session`]'s locking notes), so slow work on
/// one session does not block another, and traffic on different shards
/// does not even share a resolution lock. The sharding is invisible to
/// answers: every dispatch is byte-identical at any shard count (the
/// shards only partition the handle map).
#[derive(Debug)]
pub struct ZigzagService {
    shards: Box<[Shard]>,
    next: AtomicU64,
    metrics: Metrics,
    /// The supervisor whose store [`Query::Recover`] sweeps. `Weak`: the
    /// supervisor owns the service, never the other way around, so
    /// dropping the supervisor detaches it without a reference cycle.
    supervisor: Mutex<Option<Weak<SessionSupervisor>>>,
    /// Held while a log is attached to a new session, so two attaches of
    /// one log to this service cannot both pass the check that no live
    /// session writes it.
    attach: Mutex<()>,
}

impl Default for ZigzagService {
    fn default() -> Self {
        ZigzagService::sharded(DEFAULT_SHARDS)
    }
}

impl ZigzagService {
    /// Creates an empty service with the default shard count.
    pub fn new() -> Self {
        ZigzagService::default()
    }

    /// Creates an empty service whose session table is split into
    /// `shards` independently locked shards (clamped to at least 1).
    /// Handles are dealt round-robin across shards, so a shard owns every
    /// `shards`-th session — the partition [`crate::serve`]'s worker
    /// threads dispatch over without cross-worker locking.
    pub fn sharded(shards: usize) -> Self {
        let mut table = Vec::new();
        table.resize_with(shards.max(1), Shard::default);
        ZigzagService {
            shards: table.into_boxed_slice(),
            next: AtomicU64::new(0),
            metrics: Metrics::default(),
            supervisor: Mutex::new(None),
            attach: Mutex::new(()),
        }
    }

    /// Registers (or replaces) the supervisor. `Weak`: the service must
    /// never keep its supervisor alive.
    pub(crate) fn set_supervisor(&self, sup: Weak<SessionSupervisor>) {
        *self
            .supervisor
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(sup);
    }

    /// Number of session-table shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `id` — stable for the life of the service:
    /// `id.raw() % shard_count`.
    pub fn shard_of(&self, id: SessionId) -> usize {
        (id.0 % self.shards.len() as u64) as usize
    }

    /// The service's durability counters — billed into by
    /// [`crate::store::SessionStore`] operations and by the
    /// export/import path, surfaced by [`Query::Stats`].
    pub fn store_stats(&self) -> &StoreStats {
        &self.metrics.store
    }

    /// The durability counters, for a durable session's log writer.
    pub(crate) fn shared_store_stats(&self) -> Arc<StoreStats> {
        Arc::clone(&self.metrics.store)
    }

    /// Serializes attaching logs to sessions of this service; see
    /// [`crate::store::SessionStore::recover`].
    pub(crate) fn attaching(&self) -> MutexGuard<'_, ()> {
        self.attach.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The names of the logs this service's live durable sessions write.
    pub(crate) fn attached_logs(&self) -> HashSet<String> {
        self.shards
            .iter()
            .flat_map(|shard| shard.snapshot())
            .filter_map(|session| session.log_name())
            .collect()
    }

    /// Writes a live session out as a portable [`SessionLog`] ending in
    /// a checkpoint — the sending half of live migration (and the
    /// in-process form of [`Query::Export`]). The session keeps serving;
    /// the document is a consistent point-in-time copy.
    ///
    /// # Errors
    ///
    /// Fails on unknown or sealed sessions, or if the session is poisoned.
    pub fn export(&self, id: SessionId) -> Result<SessionLog, Error> {
        let log = self.live(id)?.export()?;
        self.metrics
            .store
            .migrations
            .fetch_add(1, Ordering::Relaxed);
        Ok(log)
    }

    /// Installs a shipped [`SessionLog`] as a new live session of this
    /// service, answering the handle it was assigned — the receiving
    /// half of live migration (and the in-process form of
    /// [`Query::Import`]). It takes the parse-and-restore path crash
    /// recovery takes. The restored session answers every query
    /// byte-identically to the exported one and accepts further appends.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Store`] if an event of the document does not
    /// replay.
    pub fn import(&self, log: SessionLog) -> Result<SessionId, Error> {
        self.import_log(&log)
    }

    /// [`ZigzagService::import`] by reference, so a decoded
    /// [`Query::Import`] installs without copying its document.
    fn import_log(&self, log: &SessionLog) -> Result<SessionId, Error> {
        let session = log.restore()?;
        self.metrics
            .store
            .migrations
            .fetch_add(1, Ordering::Relaxed);
        Ok(self.install(session))
    }

    /// Installs an already-built session (the store's open and recovery
    /// paths install durable ones).
    pub(crate) fn install(&self, session: StreamSession) -> SessionId {
        let id = SessionId(self.next.fetch_add(1, Ordering::Relaxed));
        self.shards[self.shard_of(id)]
            .table()
            .insert(id.0, Arc::new(session));
        id
    }

    /// Resolves a handle to its session, holding only the owning shard's
    /// lock, and only for the lookup.
    pub(crate) fn session(&self, id: SessionId) -> Result<Arc<StreamSession>, Error> {
        self.shards[self.shard_of(id)]
            .table()
            .get(&id.0)
            .cloned()
            .ok_or(Error::UnknownSession { id })
    }

    /// Resolves a handle to a session that may still grow: a sealed
    /// session is refused with [`Error::NotStreaming`] here, before any
    /// caller can reach its write lock.
    pub(crate) fn live(&self, id: SessionId) -> Result<Arc<StreamSession>, Error> {
        let session = self.session(id)?;
        if session.is_sealed() {
            return Err(Error::NotStreaming { id });
        }
        Ok(session)
    }

    /// Opens a sealed session over a complete recorded run: the message
    /// index, `GB(r)` and (with a spec) the Protocol 2 verdict are built
    /// here, once. It answers every query a stream session does, and
    /// refuses appends, event counts and exports.
    pub fn open_batch(&self, run: Run, config: SessionConfig) -> SessionId {
        self.install(StreamSession::sealed(run, config))
    }

    /// Opens a stream session over an empty stream on `context`,
    /// recording up to `horizon`. Feed it with
    /// [`ZigzagService::append`].
    pub fn open_stream(
        &self,
        context: Arc<Context>,
        horizon: Time,
        config: SessionConfig,
    ) -> SessionId {
        self.install(StreamSession::new(context, horizon, config))
    }

    /// Opens a stream session and replays a recorded run into it event by
    /// event — the facade form of `IncrementalEngine::ingest` /
    /// `StreamDriver::replay`, returning the session and the per-event
    /// reports.
    ///
    /// # Errors
    ///
    /// Fails if the recorded run is internally inconsistent.
    pub fn open_replay(
        &self,
        run: &Run,
        config: SessionConfig,
    ) -> Result<(SessionId, Vec<AppendReport>), Error> {
        let session = StreamSession::new(run.context_arc(), run.horizon(), config);
        let mut cursor = RunCursor::new(run);
        let mut reports = Vec::with_capacity(cursor.remaining());
        while let Some(ev) = cursor.next_event() {
            reports.push(session.append(&ev)?);
        }
        Ok((self.install(session), reports))
    }

    /// Appends one event to a stream session — the one append path,
    /// behind [`Query::Append`] and [`crate::store::SessionStore::append`]
    /// too. Only that session's own write lock is taken; queries on
    /// other sessions proceed. A durable session writes the event's log
    /// record under that lock.
    ///
    /// # Errors
    ///
    /// Fails on unknown or sealed sessions, or if the event is
    /// inconsistent with the grown prefix (which poisons the session's
    /// engine, as `IncrementalEngine::append_event` documents). A durable
    /// session fails with [`Error::Store`] when its log is broken or its
    /// write fails; see [`crate::store`].
    pub fn append(&self, id: SessionId, ev: &RunEvent) -> Result<AppendReport, Error> {
        self.live(id)?.append(ev)
    }

    /// A stream session's current event count — the idempotent probe
    /// behind [`Query::EventCount`] and the client's exactly-once append.
    ///
    /// # Errors
    ///
    /// Fails on unknown or sealed sessions, or if the session is poisoned.
    pub fn event_count(&self, id: SessionId) -> Result<u64, Error> {
        Ok(self.live(id)?.event_count()? as u64)
    }

    /// The recovery sweep behind [`Query::Recover`]: sweeps the store of
    /// the attached supervisor, if it is still alive.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Store`] when no supervisor is attached, or
    /// propagates the first recovery failure.
    fn recover_routed(&self) -> Result<Vec<(String, SessionId)>, Error> {
        let sup = self
            .supervisor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .and_then(Weak::upgrade)
            .ok_or_else(|| Error::Store {
                detail: "no supervisor is attached to this service".into(),
            })?;
        let swept = sup.store().recover_all(self)?;
        Ok(swept
            .into_iter()
            .map(|(name, rec)| (name, rec.id))
            .collect())
    }

    /// Answers one query (or a whole [`Query::QueryBatch`]) against a
    /// session — *the* code path every caller shares, byte-identical to
    /// the corresponding direct engine calls (pinned by the differential
    /// oracle). Evaluation happens outside the session table's lock.
    ///
    /// # Errors
    ///
    /// Fails on unknown sessions or on the underlying engine error of the
    /// failing query.
    pub fn dispatch(&self, id: SessionId, query: &Query) -> Result<Response, Error> {
        self.dispatch_with(id, query, None)
    }

    /// [`ZigzagService::dispatch`] with the gauges of the
    /// [`crate::net`] server answering the frame, if any — the one place
    /// a query is routed, shared by in-process callers, the
    /// [`crate::serve`] loop and the socket workers.
    ///
    /// Six queries are service-level: answered here, not by a session,
    /// and not counted as dispatches (they are not knowledge queries).
    /// [`Query::Stats`] reads the service's counters (plus `net`'s queue
    /// depths and transport counters); its id is routing-only, as is
    /// [`Query::Import`]'s and [`Query::Recover`]'s. [`Query::Export`],
    /// [`Query::Append`] and [`Query::EventCount`] act on the addressed
    /// live session, appends through [`ZigzagService::append`].
    pub(crate) fn dispatch_with(
        &self,
        id: SessionId,
        query: &Query,
        net: Option<&NetView<'_>>,
    ) -> Result<Response, Error> {
        match query {
            Query::Stats => return Ok(Response::Stats(Box::new(self.stats_with_net(net)))),
            Query::Export => return Ok(Response::Exported(Box::new(self.export(id)?))),
            Query::Import(log) => return Ok(Response::Imported(self.import_log(log)?)),
            Query::Append(ev) => return Ok(Response::Appended(self.append(id, ev)?.events)),
            Query::EventCount => return Ok(Response::EventCount(self.event_count(id)?)),
            Query::Recover => return Ok(Response::Recovered(self.recover_routed()?)),
            _ => {}
        }
        let session = self.session(id)?;
        let start = Instant::now();
        let out = session.dispatch(query);
        self.metrics.dispatches.fetch_add(1, Ordering::Relaxed);
        self.metrics.latency.record(start.elapsed());
        out
    }

    /// A point-in-time [`StatsReport`]: the answer
    /// [`ZigzagService::dispatch`] gives [`Query::Stats`], with no queue
    /// gauges or transport counters (a [`crate::net`] server's answer
    /// carries its own).
    pub fn stats(&self) -> StatsReport {
        self.stats_with_net(None)
    }

    /// [`ZigzagService::stats`] with `net`'s per-worker queue depths and
    /// transport counters attached. Cache counters are summed over every
    /// open session; each shard's lock is held only long enough to copy
    /// its handle list, never across counter collection.
    fn stats_with_net(&self, net: Option<&NetView<'_>>) -> StatsReport {
        let mut sessions_per_shard = Vec::with_capacity(self.shards.len());
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        for shard in self.shards.iter() {
            let sessions = shard.snapshot();
            sessions_per_shard.push(sessions.len() as u64);
            for session in &sessions {
                let (h, m, e) = session.cache_counters();
                hits += h;
                misses += m;
                evictions += e;
            }
        }
        StatsReport {
            queries: self.metrics.dispatches.load(Ordering::Relaxed),
            latency: self.metrics.latency.snapshot(),
            observer_hits: hits,
            observer_misses: misses,
            observer_evictions: evictions,
            sessions_per_shard,
            queue_depths: net
                .map(|v| {
                    v.queues
                        .iter()
                        .map(|q| q.load(Ordering::Relaxed) as u64)
                        .collect()
                })
                .unwrap_or_default(),
            transport: net.map(|v| v.transport.snapshot()).unwrap_or_default(),
            store: self.metrics.store.snapshot(),
        }
    }

    /// Runs `f` over a session's run (sealed) or grown prefix (live)
    /// without cloning it. The closure must not call back into the
    /// *same* session (it holds that session's read lock); calls on
    /// other sessions are fine.
    ///
    /// # Errors
    ///
    /// Fails on unknown sessions, or with [`Error::Internal`] on a
    /// session poisoned by a panicked append.
    pub fn with_run<T>(&self, id: SessionId, f: impl FnOnce(&Run) -> T) -> Result<T, Error> {
        self.session(id)?.with_run(f)
    }

    /// Number of observer states a session currently holds warm — the
    /// quantity bounded by [`crate::CachePolicy::max_observers`].
    ///
    /// # Errors
    ///
    /// Fails on unknown sessions.
    pub fn observer_count(&self, id: SessionId) -> Result<usize, Error> {
        Ok(self.session(id)?.observer_count())
    }

    /// Number of open sessions (summed across shards).
    pub fn session_count(&self) -> usize {
        self.shards.iter().map(|s| s.table().len()).sum()
    }

    /// Closes a session, releasing its state. A durable session's log
    /// writer is retired: an append in flight finishes before `close`
    /// returns and later ones are refused, so the next recovery can
    /// reattach the log as its only writer.
    ///
    /// # Errors
    ///
    /// Fails on unknown sessions.
    pub fn close(&self, id: SessionId) -> Result<(), Error> {
        // Under the attach lock, a recovery sees a durable session either
        // in the table or with its log writer retired, never a second
        // writer on its log.
        let _attaching = self.attaching();
        let session = self.shards[self.shard_of(id)]
            .table()
            .remove(&id.0)
            .ok_or(Error::UnknownSession { id })?;
        session.close_log();
        Ok(())
    }
}
