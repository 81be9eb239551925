//! Durable sessions: one append-only event log per session, checkpoint
//! records, crash recovery and live migration.
//!
//! A stream session of a [`ZigzagService`] is **durable** when it owns an
//! append-only event log ([`SessionStore::open_stream`],
//! [`SessionStore::recover`]). Every append to it, by any route, writes
//! one self-delimiting record under the session's write lock right after
//! the event is applied — so log order is apply order, and a query on
//! that session waits for the write — and every
//! [`StoreConfig::snapshot_every`] appends a *checkpoint* record follows
//! it. A failed write or sync breaks the log: the session may then hold
//! an event its log lacks, so it refuses later appends (before applying
//! them) and reads with [`Error::Store`] until the log is recovered.
//! [`ZigzagService::close`] retires a durable session's writer, so a
//! caller still holding the closed session writes nothing more and the
//! next recovery can reattach the log.
//!
//! Under the full-information protocol a process's state is its local
//! history, so the log already is the session; a checkpoint carries only
//! the derived state worth keeping — the event count, Protocol 2's
//! progress (`first_known`, `σ_C`) and the warm-observer manifest — and
//! never copies the prefix. After a crash, [`SessionStore::recover`]
//! rebuilds the session in one pass over the log, **byte-identical** to
//! the uninterrupted session at the last durable append — pinned at every
//! append boundary by the recovery oracle tier (`tests/oracle.rs`).
//!
//! The same document is the **migration envelope**:
//! [`crate::Query::Export`] writes a live session out as a [`SessionLog`]
//! that ends in a checkpoint, and [`crate::Query::Import`] installs one
//! as a new session of the receiving service through the same
//! parse-and-restore path recovery takes — in-process or between two
//! live [`crate::net::NetServer`] processes over the ordinary wire
//! encoding. That is the router tier's rebalancing primitive.
//!
//! # On-disk format
//!
//! One line-oriented text file per session, `<name>.log`, with a
//! versioned header, decoded with the same hostile-input discipline as
//! [`crate::wire`] (counts validated against the data actually present,
//! no panics on arbitrary bytes):
//!
//! ```text
//! zigzag-log v1
//! probe include
//! cache . 32
//! spec late 4 1 2 0 go a b
//! run 5
//! zigzag-run v1
//! horizon 40
//! proc 0 C
//! proc 1 A
//! chan 0 1 2 5
//! ev 0 3 1 ego 1 1 8 0
//! ev 1 8 1 m0 0 1 act
//! ck 2 . . 0 1 1 1 1 full
//! ```
//!
//! The header embeds the session's configuration and its *skeleton* run
//! (context + horizon, no events) through `bcm::codec`. Every later line
//! is one record:
//!
//! * `ev …` — one appended event ([`zigzag_bcm::codec::encode_event`]);
//! * `ck <events> <first_known> <σ_C> <k> <observer>…` — a checkpoint:
//!   how many `ev` records precede it, the coordination progress (a node
//!   is `<proc> <index>`, absent is `. .`), then `k` observer entries of
//!   `<proc> <index> <full|exclude>`.
//!
//! A torn final record, a truncated tail, non-UTF-8 bytes or an
//! overclaimed count never panic: recovery keeps the longest prefix of
//! records that parse *and* replay, and truncates the log back to exactly
//! that prefix before appending resumes. A checkpoint is derived state,
//! so one that does not hold — it does not decode, its count disagrees
//! with the `ev` records before it, or it names a node outside that
//! prefix (or coordination progress off its spec's processes) — drops no
//! events: it is skipped, and recovery restores from the last earlier
//! checkpoint that holds, or replays the whole log.
//!
//! # Fsync policy
//!
//! By default ([`FsyncPolicy::Never`]) records are written (one `write`
//! per record) but never explicitly synced: a crash of the *process*
//! loses nothing the kernel accepted, a crash of the *host* may lose the
//! tail — which recovery then trims to the last good record.
//! [`FsyncPolicy::OnCheckpoint`] syncs the log at every checkpoint
//! record; [`FsyncPolicy::Always`] syncs it after every record, and syncs
//! the store directory once a new log's header is synced, so the log's
//! directory entry is durable too.
//!
//! A synced checkpoint record protects exactly the events a separate
//! snapshot file would. Such a file could outlive a log that lost a
//! suffix only if the log were synced less often than the snapshot; but a
//! snapshot must never claim events its log may still lose, so its writer
//! has to sync the log first — and that sync is all a checkpoint record
//! needs.
//!
//! # Recovery speed
//!
//! Replaying a long log through the append path pays the full per-append
//! incremental maintenance (and, with a coordination spec, a knowledge
//! evaluation at every `B`-node). From a checkpoint, recovery instead
//! replays the covered events onto a bare [`StreamingRun`], batch-builds
//! the engine over that prefix in one pass
//! ([`IncrementalEngine::from_prefix`]), re-warms the manifest, and sends
//! only the tail through the append path. Both paths share the same floor
//! — decoding one `ev` line and validating one append per event — so a
//! checkpoint bounds *work after the checkpoint*, not the decode;
//! `benches/store.rs` prices both paths and gates that checkpoint
//! recovery never loses to full replay.

use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use zigzag_bcm::codec::{self, decode_event, encode_event, escape_token, unescape_token};
use zigzag_bcm::stream::{RunEvent, StreamingRun};
use zigzag_bcm::{Context, NodeId, ProcessId, Run, RunCursor, Time};
use zigzag_coord::{CoordKind, ProbeSemantics, TimedCoordination};
use zigzag_core::incremental::IncrementalEngine;
use zigzag_core::knowledge::ObserverMode;

use crate::config::{CachePolicy, SessionConfig};
use crate::error::Error;
use crate::fault::{FaultPlan, LogFault};
use crate::service::{SessionId, ZigzagService};
use crate::session::{AppendReport, StreamSession};
use crate::stats::StoreStats;

/// Version header of the per-session event log.
pub const LOG_HEADER: &str = "zigzag-log v1";

fn bad(line: usize, detail: impl Into<String>) -> Error {
    Error::Store {
        detail: format!("line {line}: {}", detail.into()),
    }
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Store {
        detail: format!("{what} {}: {e}", path.display()),
    }
}

/// When the store issues `fsync`; see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Never sync explicitly (the default): one buffered `write` per
    /// record, durability bounded by the kernel's writeback.
    #[default]
    Never,
    /// Sync the log at every checkpoint record.
    OnCheckpoint,
    /// Sync the log after every record (and the header).
    Always,
}

/// Durability policy for a [`SessionStore`], mirroring
/// [`CachePolicy`]'s builder style. Like the cache knobs, everything
/// here is policy, not semantics: recovery is byte-identical at any
/// setting (the knobs trade write amplification and recovery time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreConfig {
    /// Append a checkpoint record every this many appends (`None` =
    /// never, the default: recovery replays the whole log).
    pub snapshot_every: Option<u64>,
    /// When to `fsync`; see [`FsyncPolicy`].
    pub fsync: FsyncPolicy,
}

impl StoreConfig {
    /// The default policy: log-only durability, no explicit syncs.
    pub fn new() -> Self {
        StoreConfig::default()
    }

    /// Enables periodic checkpoint records (builder style; clamped to
    /// ≥ 1).
    pub fn snapshot_every(mut self, appends: u64) -> Self {
        self.snapshot_every = Some(appends.max(1));
        self
    }

    /// Sets the fsync policy (builder style).
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }
}

/// The derived state one checkpoint record carries; see the
/// [module docs](self).
#[derive(Debug)]
pub(crate) struct Checkpoint {
    /// Events appended before the checkpoint.
    pub(crate) events: u64,
    /// The coordination driver's earliest known `B`-node, if any.
    pub(crate) first_known: Option<NodeId>,
    /// The coordination driver's trigger node `σ_C`, if seen.
    pub(crate) sigma_c: Option<NodeId>,
    /// The `(observer, mode)` key of every warm analysis state.
    pub(crate) observers: Vec<(NodeId, ObserverMode)>,
}

/// A complete `zigzag-log v1` document — what [`crate::Query::Export`]
/// ships and [`crate::Query::Import`] installs. An exported document ends
/// in a checkpoint; a shipped one is checked to decode when its wire
/// frame is decoded, and to replay when it is imported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionLog {
    text: String,
    events: u64,
}

impl SessionLog {
    /// Validates a shipped document: the header and every record must
    /// decode, and the document must end in a complete line. Whether the
    /// events replay is checked when the document is imported.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Store`] on a bad header, a record that does
    /// not decode, or a torn final line.
    pub(crate) fn parse(text: String) -> Result<Self, Error> {
        let log = parse_log(text.as_bytes())?;
        if log.good_len < text.len() as u64 {
            return Err(Error::Store {
                detail: format!("log document breaks off after byte {}", log.good_len),
            });
        }
        Ok(SessionLog {
            events: log.events.len() as u64,
            text,
        })
    }

    /// Writes session state out as a document: header, one `ev` record
    /// per event of `run` in cursor order, then the checkpoint.
    pub(crate) fn write(config: &SessionConfig, run: &Run, ck: &Checkpoint) -> Self {
        let mut text = header_text(config, run.context_arc(), run.horizon());
        for ev in RunCursor::new(run) {
            text.push_str(&encode_event(&ev));
            text.push('\n');
        }
        text.push_str(&checkpoint_line(ck));
        SessionLog {
            text,
            events: ck.events,
        }
    }

    /// The document text (always newline-terminated).
    pub(crate) fn as_str(&self) -> &str {
        &self.text
    }

    /// Number of `ev` records in the document.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Builds the live session this document describes — the receiving
    /// half of migration.
    pub(crate) fn restore(&self) -> Result<StreamSession, Error> {
        let log = parse_log(self.text.as_bytes())?;
        let (session, restored, replayed) = rebuild(&log);
        let applied = restored.unwrap_or(0) + replayed;
        if applied < log.events.len() {
            return Err(Error::Store {
                detail: format!("log document event {} does not replay", applied + 1),
            });
        }
        Ok(session)
    }
}

// ---------------------------------------------------------------------
// Text encoding of the header and the checkpoint record.
// ---------------------------------------------------------------------

/// The log header: version line, config lines, embedded skeleton run.
fn header_text(config: &SessionConfig, context: Arc<Context>, horizon: Time) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{LOG_HEADER}");
    push_config_lines(&mut out, config);
    let skeleton = codec::encode(&Run::skeleton(context, horizon));
    let _ = writeln!(out, "run {}", skeleton.lines().count());
    out.push_str(&skeleton);
    if !skeleton.ends_with('\n') {
        out.push('\n');
    }
    out
}

fn push_config_lines(out: &mut String, config: &SessionConfig) {
    let probe = match config.probe {
        ProbeSemantics::IncludeOwnSends => "include",
        ProbeSemantics::ExcludeOwnSends => "exclude",
    };
    let _ = writeln!(out, "probe {probe}");
    let opt = |v: Option<u64>| v.map_or(".".to_string(), |n| n.to_string());
    let _ = writeln!(
        out,
        "cache {} {}",
        opt(config.cache.max_observers.map(|n| n as u64)),
        opt(config.cache.compact_every)
    );
    match &config.spec {
        None => {
            let _ = writeln!(out, "spec .");
        }
        Some(spec) => {
            let kind = match spec.kind {
                CoordKind::Early { x } => format!("early {x}"),
                CoordKind::Late { x } => format!("late {x}"),
                CoordKind::Window { after, within } => format!("window {after} {within}"),
            };
            let _ = writeln!(
                out,
                "spec {kind} {} {} {} {} {} {}",
                spec.a.index(),
                spec.b.index(),
                spec.c.index(),
                escape_token(&spec.go_name),
                escape_token(&spec.a_action),
                escape_token(&spec.b_action),
            );
        }
    }
}

/// One `ck` record, newline included.
fn checkpoint_line(ck: &Checkpoint) -> String {
    let mut out = format!("ck {}", ck.events);
    for n in [ck.first_known, ck.sigma_c] {
        match n {
            Some(n) => {
                let _ = write!(out, " {} {}", n.proc().index(), n.index());
            }
            None => out.push_str(" . ."),
        }
    }
    let _ = write!(out, " {}", ck.observers.len());
    for (sigma, mode) in &ck.observers {
        let mode = match mode {
            ObserverMode::Full => "full",
            ObserverMode::ExcludeOwnSends => "exclude",
        };
        let _ = write!(out, " {} {} {mode}", sigma.proc().index(), sigma.index());
    }
    out.push('\n');
    out
}

/// Decodes the fields of a `ck` record and checks it against the records
/// before it: `nodes[p]` is how many events process `p` has appended, so
/// node `(p, i)` is in the prefix iff `i <= nodes[p]`. `None` if the
/// record does not hold.
fn decode_checkpoint(
    fields: &str,
    events: usize,
    nodes: &[u32],
    spec: Option<&TimedCoordination>,
) -> Option<Checkpoint> {
    let toks: Vec<&str> = fields.split_whitespace().collect();
    let [count, fk_p, fk_i, sc_p, sc_i, k, obs @ ..] = toks.as_slice() else {
        return None;
    };
    if count.parse::<usize>().ok()? != events
        || obs.len() != k.parse::<usize>().ok()?.checked_mul(3)?
    {
        return None;
    }
    let node = |p: &str, i: &str| -> Option<NodeId> {
        let (p, i) = (p.parse::<u32>().ok()?, i.parse::<u32>().ok()?);
        (i <= *nodes.get(p as usize)?).then(|| NodeId::new(ProcessId::new(p), i))
    };
    // Coordination progress must sit on the spec's processes: the first
    // knowing node on `B`, the trigger on `C`; a spec-less session has
    // none.
    let progress = |p: &str, i: &str, on: Option<ProcessId>| -> Option<Option<NodeId>> {
        if (p, i) == (".", ".") {
            return Some(None);
        }
        let n = node(p, i)?;
        (Some(n.proc()) == on).then_some(Some(n))
    };
    let first_known = progress(fk_p, fk_i, spec.map(|s| s.b))?;
    let sigma_c = progress(sc_p, sc_i, spec.map(|s| s.c))?;
    let observers = obs
        .chunks_exact(3)
        .map(|t| {
            let mode = match t[2] {
                "full" => ObserverMode::Full,
                "exclude" => ObserverMode::ExcludeOwnSends,
                _ => return None,
            };
            Some((node(t[0], t[1])?, mode))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Checkpoint {
        events: events as u64,
        first_known,
        sigma_c,
        observers,
    })
}

/// A line-stepping parser over a decoded document, tracking 1-based line
/// numbers for error reporting (the same shape as `wire`'s).
struct Doc<'a> {
    lines: std::str::Lines<'a>,
    no: usize,
}

impl<'a> Doc<'a> {
    fn new(text: &'a str) -> Self {
        Doc {
            lines: text.lines(),
            no: 0,
        }
    }

    fn next(&mut self, what: &str) -> Result<&'a str, Error> {
        self.no += 1;
        self.lines
            .next()
            .ok_or_else(|| bad(self.no, format!("missing {what}")))
    }

    /// Counts the remaining lines (a walk over them, not O(1)) — for
    /// validating a claimed count *before* allocating or consuming.
    fn remaining(&self) -> usize {
        self.lines.clone().count()
    }
}

fn parse_num<T: std::str::FromStr>(doc_line: usize, t: &str, what: &str) -> Result<T, Error> {
    t.parse()
        .map_err(|_| bad(doc_line, format!("bad {what} {t:?}")))
}

fn parse_opt_u64(doc_line: usize, t: &str, what: &str) -> Result<Option<u64>, Error> {
    if t == "." {
        Ok(None)
    } else {
        parse_num(doc_line, t, what).map(Some)
    }
}

/// Parses the `probe` / `cache` / `spec` line triple.
fn parse_config_lines(doc: &mut Doc<'_>) -> Result<SessionConfig, Error> {
    let line = doc.next("probe line")?;
    let probe = match line.strip_prefix("probe ").map(str::trim) {
        Some("include") => ProbeSemantics::IncludeOwnSends,
        Some("exclude") => ProbeSemantics::ExcludeOwnSends,
        _ => return Err(bad(doc.no, format!("bad probe line {line:?}"))),
    };

    let line = doc.next("cache line")?;
    let toks: Vec<&str> = line.split_whitespace().collect();
    if toks.len() != 3 || toks[0] != "cache" {
        return Err(bad(doc.no, format!("bad cache line {line:?}")));
    }
    let cache = CachePolicy {
        max_observers: parse_opt_u64(doc.no, toks[1], "observer cap")?.map(|n| n as usize),
        compact_every: parse_opt_u64(doc.no, toks[2], "compaction cadence")?,
    };

    let line = doc.next("spec line")?;
    let toks: Vec<&str> = line.split_whitespace().collect();
    let spec = match toks.as_slice() {
        ["spec", "."] => None,
        ["spec", kind @ ("early" | "late"), x, rest @ ..] => {
            let x = parse_num(doc.no, x, "separation")?;
            let kind = if *kind == "early" {
                CoordKind::Early { x }
            } else {
                CoordKind::Late { x }
            };
            Some(parse_spec_tail(doc.no, kind, rest)?)
        }
        ["spec", "window", after, within, rest @ ..] => {
            let kind = CoordKind::Window {
                after: parse_num(doc.no, after, "separation")?,
                within: parse_num(doc.no, within, "separation")?,
            };
            Some(parse_spec_tail(doc.no, kind, rest)?)
        }
        _ => return Err(bad(doc.no, format!("bad spec line {line:?}"))),
    };

    Ok(SessionConfig { cache, probe, spec })
}

fn parse_spec_tail(
    doc_line: usize,
    kind: CoordKind,
    rest: &[&str],
) -> Result<TimedCoordination, Error> {
    let [a, b, c, go, a_action, b_action] = rest else {
        return Err(bad(doc_line, "spec line needs a b c and three names"));
    };
    let proc = |t: &str| -> Result<ProcessId, Error> {
        Ok(ProcessId::new(parse_num(doc_line, t, "process")?))
    };
    let name = |t: &str| -> Result<String, Error> {
        unescape_token(t).map_err(|e| bad(doc_line, e.to_string()))
    };
    let mut spec = TimedCoordination::new(kind, proc(a)?, proc(b)?, proc(c)?);
    spec.go_name = name(go)?;
    spec.a_action = name(a_action)?;
    spec.b_action = name(b_action)?;
    Ok(spec)
}

/// Parses the embedded-run section, count-validated before consumption.
fn parse_run_lines(doc: &mut Doc<'_>) -> Result<Run, Error> {
    let line = doc.next("run count line")?;
    let n = line
        .strip_prefix("run ")
        .ok_or_else(|| bad(doc.no, format!("expected run count line, got {line:?}")))
        .and_then(|t| parse_num::<usize>(doc.no, t.trim(), "run line count"))?;
    if n > doc.remaining() {
        return Err(bad(
            doc.no,
            format!("run section claims {n} lines, {} remain", doc.remaining()),
        ));
    }
    let mut text = String::new();
    for _ in 0..n {
        text.push_str(doc.next("run line")?);
        text.push('\n');
    }
    codec::decode(&text).map_err(|e| bad(doc.no, format!("embedded run: {e}")))
}

/// A parsed event log: the header plus the longest prefix of records
/// that decode, with byte offsets for truncate-to-last-good.
#[derive(Debug)]
struct ParsedLog {
    config: SessionConfig,
    skeleton: Run,
    /// Each event with the byte offset of its record's end.
    events: Vec<(RunEvent, u64)>,
    /// The last checkpoint that holds against the records before it.
    checkpoint: Option<Checkpoint>,
    /// End of the header section in bytes.
    header_len: u64,
    /// End of the last record kept (header included); anything after it
    /// is torn or does not decode.
    good_len: u64,
}

/// Parses raw log bytes in one pass; see the record rules in the
/// [module docs](self).
fn parse_log(bytes: &[u8]) -> Result<ParsedLog, Error> {
    // Non-UTF-8 tails never panic: keep the valid prefix only.
    let text = match std::str::from_utf8(bytes) {
        Ok(t) => t,
        Err(e) => std::str::from_utf8(&bytes[..e.valid_up_to()]).expect("valid prefix"),
    };
    // Records are whole lines; a final line without its newline is torn.
    let complete = match text.rfind('\n') {
        Some(last) => &text[..last + 1],
        None => "",
    };

    // The header (through the embedded skeleton run) must be intact.
    let mut doc = Doc::new(complete);
    let header = doc.next("header")?;
    if header.trim() != LOG_HEADER {
        return Err(bad(doc.no, format!("bad header {header:?}")));
    }
    let config = parse_config_lines(&mut doc)?;
    let skeleton = parse_run_lines(&mut doc)?;
    let header_lines = doc.no;

    // Everything after the header is records; compute byte offsets by
    // re-walking the same `\n`-complete prefix.
    let mut nodes = vec![0u32; skeleton.context().network().len()];
    let mut log = ParsedLog {
        config,
        skeleton,
        events: Vec::new(),
        checkpoint: None,
        header_len: 0,
        good_len: 0,
    };
    let mut offset = 0u64;
    for (no, line) in complete.split_inclusive('\n').enumerate() {
        offset += line.len() as u64;
        if no < header_lines {
            log.header_len = offset;
            log.good_len = offset;
            continue;
        }
        let body = line.trim_end_matches(['\n', '\r']);
        if let Some(fields) = body.strip_prefix("ck ") {
            // A checkpoint that does not hold drops no events: skip it.
            let spec = log.config.spec.as_ref();
            if let Some(ck) = decode_checkpoint(fields, log.events.len(), &nodes, spec) {
                log.checkpoint = Some(ck);
            }
        } else {
            let Ok(ev) = decode_event(body) else {
                // First malformed record: everything from here on is
                // untrusted (later records' stream-scoped message ids
                // assume the dropped ones were applied).
                break;
            };
            if let Some(n) = nodes.get_mut(ev.proc.index()) {
                *n = n.saturating_add(1);
            }
            log.events.push((ev, offset));
        }
        log.good_len = offset;
    }
    Ok(log)
}

/// Rebuilds the session a parsed log describes, returning it with the
/// events restored from the last checkpoint (`None` if none was used) and
/// the events replayed through the append path after them. Stops at the
/// first event that does not replay; if the checkpoint's prefix or tail
/// does not replay, falls back to full replay.
fn rebuild(log: &ParsedLog) -> (StreamSession, Option<usize>, usize) {
    if let Some(ck) = &log.checkpoint {
        if let Some(session) = restore_at(log, ck) {
            let base = ck.events as usize;
            return (session, Some(base), log.events.len() - base);
        }
    }
    let (session, applied) = replay_log(log);
    (session, None, applied)
}

/// Restores from checkpoint `ck`: the covered events replay onto a bare
/// [`StreamingRun`], the engine is batch-built over that prefix and its
/// manifest re-warmed, and the tail goes through the append path.
fn restore_at(log: &ParsedLog, ck: &Checkpoint) -> Option<StreamSession> {
    let base = ck.events as usize;
    let mut prefix = StreamingRun::adopt(log.skeleton.clone());
    for (ev, _) in &log.events[..base] {
        prefix.append(ev).ok()?;
    }
    let engine = IncrementalEngine::from_prefix(prefix.finish());
    for &(sigma, mode) in &ck.observers {
        // Warmth is answer-invariant; the build result is not needed.
        let _ = engine.engine_mode(sigma, mode);
    }
    let session = StreamSession::resume(log.config.clone(), engine, ck.first_known, ck.sigma_c);
    for (ev, _) in &log.events[base..] {
        session.append(ev).ok()?;
    }
    Some(session)
}

/// Full log replay from the skeleton: applies events until the first
/// semantic failure (an event that parses but does not replay), returning
/// the session and how many events were applied.
fn replay_log(log: &ParsedLog) -> (StreamSession, usize) {
    // A failed append poisons its session, so on failure the session is
    // rebuilt over the good prefix only (the retry pass cannot fail).
    let mut upto = log.events.len();
    loop {
        let session = StreamSession::new(
            log.skeleton.context_arc(),
            log.skeleton.horizon(),
            log.config.clone(),
        );
        match log.events[..upto]
            .iter()
            .position(|(ev, _)| session.append(ev).is_err())
        {
            None => return (session, upto),
            Some(k) => upto = k,
        }
    }
}

// ---------------------------------------------------------------------
// The log writer a durable session owns.
// ---------------------------------------------------------------------

/// `sync_all` with the fault plan's fsync site consulted first — the
/// seam every durability-relevant sync goes through. `path` names the
/// synced file in errors.
fn sync(file: &File, path: &Path, faults: Option<&FaultPlan>) -> Result<(), Error> {
    if faults.is_some_and(FaultPlan::on_fsync) {
        return Err(Error::Store {
            detail: format!("injected fsync failure on {}", path.display()),
        });
    }
    file.sync_all().map_err(|e| io_err("syncing", path, e))
}

/// A durable session's log writer. It is owned by the [`StreamSession`]
/// it logs for and sits behind that session's write lock, next to the
/// engine: the session applies an event and writes its `ev` record (and
/// the cadence's `ck` record) before it releases the lock, so log order
/// is apply order.
#[derive(Debug)]
pub(crate) struct LogWriter {
    /// The durable session's name (its log is `<name>.log`).
    pub(crate) name: String,
    path: PathBuf,
    file: File,
    config: StoreConfig,
    faults: Option<Arc<FaultPlan>>,
    /// The owning service's durability counters.
    stats: Arc<StoreStats>,
    /// Set by the first failed write or sync: the file may end in a torn
    /// record and the session may hold an event its log lacks.
    broken: bool,
    /// Set when the session is closed: another session may write the log.
    pub(crate) closed: bool,
}

impl LogWriter {
    /// Refuses once the log is broken, and, when `writing`, once its
    /// session is closed too. The session checks this before it reads
    /// or applies an event, and every record before it is written.
    pub(crate) fn check(&self, writing: bool) -> Result<(), Error> {
        let why = match (self.broken, self.closed && writing) {
            (true, _) => "is broken by an earlier failed write",
            (false, true) => "belongs to a closed session",
            (false, false) => return Ok(()),
        };
        let path = self.path.display();
        Err(Error::Store {
            detail: format!("log {path} {why}; recover it to go on"),
        })
    }

    /// Writes the `ev` record of the session's `events`-th event, synced
    /// under [`FsyncPolicy::Always`], then the checkpoint record `ck`
    /// builds if the cadence puts one there.
    pub(crate) fn event(
        &mut self,
        ev: &RunEvent,
        events: u64,
        ck: impl FnOnce() -> Checkpoint,
    ) -> Result<(), Error> {
        let mut line = encode_event(ev);
        line.push('\n');
        self.record(&line, self.config.fsync == FsyncPolicy::Always)?;
        self.stats.events_logged.fetch_add(1, Ordering::Relaxed);
        match self.config.snapshot_every {
            Some(every) if events.is_multiple_of(every) => self.checkpoint(&ck()),
            _ => Ok(()),
        }
    }

    /// Writes a `ck` record, synced under any syncing policy.
    pub(crate) fn checkpoint(&mut self, ck: &Checkpoint) -> Result<(), Error> {
        self.record(
            &checkpoint_line(ck),
            self.config.fsync != FsyncPolicy::Never,
        )?;
        self.stats.snapshots.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Appends one record (newline included) through the fault plan's
    /// log-write site, bills its bytes and syncs if asked. Any failure
    /// marks the log broken.
    fn record(&mut self, record: &str, then_sync: bool) -> Result<(), Error> {
        self.check(true)?;
        let out = self.write(record, then_sync);
        self.broken |= out.is_err();
        out
    }

    fn write(&mut self, record: &str, then_sync: bool) -> Result<(), Error> {
        let faults = self.faults.as_deref();
        if let Some(LogFault::Torn(cut)) = faults.map(|plan| plan.on_log_write(record.len())) {
            // A torn write: a strict prefix of the record reaches the file.
            let _ = self.file.write_all(&record.as_bytes()[..cut]);
            return Err(Error::Store {
                detail: format!(
                    "injected torn write ({cut}/{} bytes) on {}",
                    record.len(),
                    self.path.display()
                ),
            });
        }
        self.file
            .write_all(record.as_bytes())
            .map_err(|e| io_err("appending to log", &self.path, e))?;
        self.stats
            .bytes_written
            .fetch_add(record.len() as u64, Ordering::Relaxed);
        if then_sync {
            sync(&self.file, &self.path, faults)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------

/// What [`SessionStore::recover`] rebuilt; see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovered {
    /// The handle the service assigned to the recovered session.
    pub id: SessionId,
    /// Whether a checkpoint record was used (`false` = full log replay).
    pub from_checkpoint: bool,
    /// Events covered by the checkpoint, restored in bulk.
    pub restored_events: u64,
    /// Log-tail events replayed through the normal append path.
    pub replayed_events: u64,
    /// Whether a torn/corrupt log tail was dropped (and the log file
    /// truncated back to the last good record).
    pub truncated: bool,
}

/// The durable store; see the [module docs](self).
///
/// A store is a directory of `<name>.log` files plus the policy and fault
/// plan every log writer it creates inherits. It keeps no per-session
/// state: each durable session owns its writer, and every operation
/// takes the [`ZigzagService`] whose sessions it acts on (and whose
/// [`ZigzagService::store_stats`] it bills).
#[derive(Debug)]
pub struct SessionStore {
    root: PathBuf,
    config: StoreConfig,
    /// Deterministic chaos hook ([`crate::FaultPlan`]); `None` (the
    /// default) is a single never-taken branch on every write seam.
    faults: Option<Arc<FaultPlan>>,
}

impl SessionStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Store`] if the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>, config: StoreConfig) -> Result<Self, Error> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| io_err("creating store root", &root, e))?;
        Ok(SessionStore {
            root,
            config,
            faults: None,
        })
    }

    /// Arms this store with a deterministic fault plan: log records
    /// (events and checkpoints) may tear and fsyncs may fail, exactly as
    /// scheduled by the plan. Chaos-testing hook; production stores
    /// never call this.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The store's policy.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The log file backing durable session `name`.
    pub fn log_path(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.log"))
    }

    /// A writer for log `name`, billing `service`.
    fn writer(&self, service: &ZigzagService, name: &str, path: PathBuf, file: File) -> LogWriter {
        LogWriter {
            name: name.to_string(),
            path,
            file,
            config: self.config,
            faults: self.faults.clone(),
            stats: service.shared_store_stats(),
            broken: false,
            closed: false,
        }
    }

    /// Opens a **durable** stream session: a fresh session on `service`
    /// that owns a fresh event log seeded with the session's header
    /// (config + embedded skeleton run). Fails if a log for `name`
    /// already exists — recover or delete it explicitly instead of
    /// silently clobbering history.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Store`] on an invalid name, an existing log,
    /// or file-system errors.
    pub fn open_stream(
        &self,
        service: &ZigzagService,
        name: &str,
        context: Arc<Context>,
        horizon: Time,
        config: SessionConfig,
    ) -> Result<SessionId, Error> {
        validate_name(name)?;
        let _attaching = service.attaching();
        let path = self.log_path(name);
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| io_err("creating log", &path, e))?;

        let header = header_text(&config, context.clone(), horizon);
        file.write_all(header.as_bytes())
            .map_err(|e| io_err("writing log header", &path, e))?;
        if self.config.fsync == FsyncPolicy::Always {
            sync(&file, &path, self.faults.as_deref())?;
            // The store directory too, so the new log's entry is durable.
            let root = File::open(&self.root).map_err(|e| io_err("opening", &self.root, e))?;
            sync(&root, &self.root, self.faults.as_deref())?;
        }
        service
            .store_stats()
            .bytes_written
            .fetch_add(header.len() as u64, Ordering::Relaxed);

        let writer = self.writer(service, name, path, file);
        Ok(service.install(StreamSession::new(context, horizon, config).logging_to(writer)))
    }

    /// Appends one event to a durable session through
    /// [`ZigzagService::append`], which logs it.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Store`] before applying anything if `id` has no
    /// log; otherwise as [`ZigzagService::append`] does.
    pub fn append(
        &self,
        service: &ZigzagService,
        id: SessionId,
        ev: &RunEvent,
    ) -> Result<AppendReport, Error> {
        if service.live(id)?.log_name().is_none() {
            return Err(Error::Store {
                detail: format!("session {id} is not durable: it has no log"),
            });
        }
        service.append(id, ev)
    }

    /// Appends a checkpoint record for durable session `id` right now,
    /// regardless of cadence.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Store`] if `id` has no log, its log is broken,
    /// or the write fails.
    pub fn checkpoint(&self, service: &ZigzagService, id: SessionId) -> Result<(), Error> {
        service.live(id)?.checkpoint()
    }

    /// Recovers durable session `name` into a fresh session of
    /// `service`, byte-identical to the uninterrupted session at the
    /// last durable append, in one pass over its log: restore from the
    /// last checkpoint that holds and replay the tail, or replay the
    /// whole log. A torn or corrupt log tail is dropped — the file is
    /// truncated back to the longest prefix of records that parse *and*
    /// replay — and the recovered session writes the log from there on.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Store`] if a live session of `service` still
    /// writes the log, if the log is missing, or if its header (through
    /// the embedded skeleton run) is unreadable — without a context there
    /// is no last-good state to recover to.
    pub fn recover(&self, service: &ZigzagService, name: &str) -> Result<Recovered, Error> {
        validate_name(name)?;
        let _attaching = service.attaching();
        if service.attached_logs().contains(name) {
            return Err(Error::Store {
                detail: format!("log {name} is still written by a live session of this service"),
            });
        }
        self.attach(service, name)
    }

    /// [`SessionStore::recover`] once the attach lock is held and `name`
    /// is known to have no writer in `service`.
    fn attach(&self, service: &ZigzagService, name: &str) -> Result<Recovered, Error> {
        let log_path = self.log_path(name);
        let bytes = fs::read(&log_path).map_err(|e| io_err("reading log", &log_path, e))?;
        let parsed = parse_log(&bytes)?;
        let (session, restored, replayed) = rebuild(&parsed);

        // Truncate the file back to the good prefix, dropping torn,
        // malformed and unreplayable records.
        let applied = restored.unwrap_or(0) + replayed;
        let good_len = match applied {
            n if n == parsed.events.len() => parsed.good_len,
            0 => parsed.header_len,
            n => parsed.events[n - 1].1,
        };
        let truncated = good_len < bytes.len() as u64;
        let mut file = OpenOptions::new()
            .write(true)
            .open(&log_path)
            .map_err(|e| io_err("reopening log", &log_path, e))?;
        if truncated {
            file.set_len(good_len)
                .map_err(|e| io_err("truncating log", &log_path, e))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err("seeking log", &log_path, e))?;

        let writer = self.writer(service, name, log_path, file);
        let id = service.install(session.logging_to(writer));
        service
            .store_stats()
            .recoveries
            .fetch_add(1, Ordering::Relaxed);
        Ok(Recovered {
            id,
            from_checkpoint: restored.is_some(),
            restored_events: restored.unwrap_or(0) as u64,
            replayed_events: replayed as u64,
            truncated,
        })
    }

    /// Recovers every `<name>.log` in the store directory that no live
    /// session of `service` is writing — the supervisor's startup sweep
    /// and the implementation of [`crate::Query::Recover`]. A closed
    /// durable session's log is reattached here. Returns the recovered
    /// sessions sorted by name.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Store`] if the directory cannot be listed or
    /// any individual recovery fails (already-recovered sessions stay
    /// attached).
    pub fn recover_all(&self, service: &ZigzagService) -> Result<Vec<(String, Recovered)>, Error> {
        let _attaching = service.attaching();
        let attached = service.attached_logs();
        let entries = fs::read_dir(&self.root)
            .and_then(|dir| dir.collect::<Result<Vec<_>, _>>())
            .map_err(|e| io_err("listing store root", &self.root, e))?;
        let mut names: Vec<String> = entries
            .iter()
            .filter_map(|entry| entry.file_name().into_string().ok())
            .filter_map(|file| Some(file.strip_suffix(".log")?.to_string()))
            .filter(|stem| validate_name(stem).is_ok() && !attached.contains(stem))
            .collect();
        names.sort();
        names
            .into_iter()
            .map(|name| Ok((name.clone(), self.attach(service, &name)?)))
            .collect()
    }
}

/// Durable session names become file names: restrict them to a safe
/// portable alphabet.
fn validate_name(name: &str) -> Result<(), Error> {
    let ok = !name.is_empty()
        && name.len() <= 100
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if ok {
        Ok(())
    } else {
        Err(Error::Store {
            detail: format!(
                "invalid session name {name:?} (want 1-100 chars of [A-Za-z0-9._-], \
                 not starting with '.')"
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultRates;
    use crate::query::{Query, Response};
    use zigzag_bcm::protocols::Ffip;
    use zigzag_bcm::scheduler::EagerScheduler;
    use zigzag_bcm::{Network, SimConfig, Simulator};

    /// The Fig. 1 network with a feedback `B → C` channel (so knowledge
    /// actually flows and coordination decides), driven by FFIP.
    fn fig_run() -> Run {
        let mut b = Network::builder();
        let c = b.add_process("C");
        let a = b.add_process("A");
        let bb = b.add_process("B");
        b.add_channel(c, a, 1, 3).unwrap();
        b.add_channel(c, bb, 7, 9).unwrap();
        b.add_channel(bb, c, 2, 4).unwrap();
        let ctx = b.build().unwrap();
        let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(40)));
        sim.external(Time::new(2), c, "go");
        sim.run(&mut Ffip::new(), &mut EagerScheduler).unwrap()
    }

    fn coord_config() -> SessionConfig {
        SessionConfig::new().spec(TimedCoordination::new(
            CoordKind::Late { x: 4 },
            ProcessId::new(1),
            ProcessId::new(2),
            ProcessId::new(0),
        ))
    }

    fn events_of(run: &Run) -> Vec<RunEvent> {
        RunCursor::new(run).collect()
    }

    /// A fresh per-test scratch directory under the system temp dir.
    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("zigzag-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Feeds `events` into a fresh durable session `feed` under `config`
    /// with the coordination spec, then drops everything (the crash).
    fn persist(dir: &Path, config: StoreConfig, run: &Run, events: &[RunEvent]) {
        let service = ZigzagService::new();
        let store = SessionStore::open(dir, config).unwrap();
        let id = store
            .open_stream(
                &service,
                "feed",
                run.context_arc(),
                run.horizon(),
                coord_config(),
            )
            .unwrap();
        for ev in events {
            store.append(&service, id, ev).unwrap();
        }
    }

    /// The probe queries recovery and migration are held byte-identical
    /// on.
    fn probes(run: &Run) -> Vec<Query> {
        let sigma = run
            .nodes()
            .map(|r| r.id())
            .filter(|n| !n.is_initial())
            .last()
            .unwrap();
        let first = run
            .nodes()
            .map(|r| r.id())
            .find(|n| !n.is_initial())
            .unwrap();
        vec![
            Query::MaxXMatrix { sigma },
            Query::TightBound {
                from: first,
                to: sigma,
            },
            Query::CoordDecision,
        ]
    }

    fn answers(service: &ZigzagService, id: SessionId, probes: &[Query]) -> Vec<Response> {
        probes
            .iter()
            .map(|q| service.dispatch(id, q).unwrap())
            .collect()
    }

    /// The uninterrupted reference answers over the whole of `run`.
    fn expected(run: &Run) -> Vec<Response> {
        let reference = ZigzagService::new();
        let (id, _) = reference.open_replay(run, coord_config()).unwrap();
        answers(&reference, id, &probes(run))
    }

    /// The file names in `dir`, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn exported_documents_round_trip_and_end_in_a_checkpoint() {
        let run = fig_run();
        let service = ZigzagService::new();
        let mut config = coord_config()
            .cache(CachePolicy::default().max_observers(8).compact_every(3))
            .probe(ProbeSemantics::ExcludeOwnSends);
        if let Some(spec) = config.spec.as_mut() {
            // Names with spaces, '%' and non-ASCII must survive the
            // token escaping.
            spec.go_name = "go now".into();
            spec.a_action = "100% ü".into();
            spec.b_action = String::new();
        }
        let (id, _) = service.open_replay(&run, config).unwrap();
        let doc = service.export(id).unwrap();
        assert_eq!(doc.events(), events_of(&run).len() as u64);
        assert!(doc.as_str().starts_with(LOG_HEADER));
        assert!(doc.as_str().lines().last().unwrap().starts_with("ck "));
        assert_eq!(SessionLog::parse(doc.as_str().to_string()).unwrap(), doc);
        // The empty session (no events yet) round-trips too.
        let empty = service.open_stream(run.context_arc(), run.horizon(), coord_config());
        let doc = service.export(empty).unwrap();
        assert_eq!(doc.events(), 0);
        assert_eq!(SessionLog::parse(doc.as_str().to_string()).unwrap(), doc);
        assert!(service.import(doc).is_ok());
    }

    #[test]
    fn hostile_log_documents_are_rejected_without_panic() {
        let run = fig_run();
        let service = ZigzagService::new();
        let (id, _) = service.open_replay(&run, coord_config()).unwrap();
        let good = service.export(id).unwrap().as_str().to_string();

        // Every single-line deletion must parse or fail cleanly, and an
        // accepted document must import or fail cleanly — never panic.
        for cut in 0..good.lines().count() {
            let doc: String = good
                .lines()
                .enumerate()
                .filter(|(k, _)| *k != cut)
                .map(|(_, l)| format!("{l}\n"))
                .collect();
            if let Ok(doc) = SessionLog::parse(doc) {
                let _ = service.import(doc);
            }
        }
        // A document that breaks off mid-line is torn, never accepted.
        for cut in 0..good.len() {
            if let Some(prefix) = good.get(..cut) {
                let verdict = SessionLog::parse(prefix.to_string());
                if !prefix.is_empty() && !prefix.ends_with('\n') {
                    assert!(verdict.is_err(), "torn document accepted at {cut}");
                }
            }
        }

        // Targeted malformations.
        let tamper = |from: &str, to: &str| good.replacen(from, to, 1);
        for doc in [
            tamper("zigzag-log v1", "zigzag-log v2"),
            tamper("probe ", "probe sideways "),
            // Overclaimed counts must be refused before allocation.
            tamper("run ", &format!("run {} ", u64::MAX)),
            // A record that is neither `ev` nor `ck`.
            format!("{good}garbage\n"),
            String::new(),
            "zigzag-log v1".to_string(),
        ] {
            assert!(
                matches!(SessionLog::parse(doc.clone()), Err(Error::Store { .. })),
                "{doc}"
            );
        }
        // An event that decodes but does not replay is refused by import.
        let doc = SessionLog::parse(format!("{good}ev 0 39 1 m4000 0 0\n")).unwrap();
        assert!(matches!(service.import(doc), Err(Error::Store { .. })));
    }

    #[test]
    fn invalid_names_and_clobbering_opens_are_refused() {
        let run = fig_run();
        let service = ZigzagService::new();
        let store = SessionStore::open(tmpdir("names"), StoreConfig::new()).unwrap();
        for name in ["", ".hidden", "a/b", "a b", "ü", &"x".repeat(101)] {
            assert!(
                store
                    .open_stream(
                        &service,
                        name,
                        run.context_arc(),
                        run.horizon(),
                        SessionConfig::new(),
                    )
                    .is_err(),
                "{name:?}"
            );
        }
        let ok = store.open_stream(
            &service,
            "feed-1",
            run.context_arc(),
            run.horizon(),
            SessionConfig::new(),
        );
        assert!(ok.is_ok());
        // A second open of the same name must not clobber the log.
        assert!(store
            .open_stream(
                &service,
                "feed-1",
                run.context_arc(),
                run.horizon(),
                SessionConfig::new(),
            )
            .is_err());
    }

    #[test]
    fn recovery_replays_the_log_byte_identically() {
        let run = fig_run();
        let events = events_of(&run);
        let dir = tmpdir("recover-log");
        persist(&dir, StoreConfig::new(), &run, &events);

        let service = ZigzagService::new();
        let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
        let rec = store.recover(&service, "feed").unwrap();
        assert!(!rec.from_checkpoint);
        assert!(!rec.truncated);
        assert_eq!(rec.replayed_events, events.len() as u64);
        assert_eq!(answers(&service, rec.id, &probes(&run)), expected(&run));
        assert_eq!(service.stats().store.recoveries, 1);
    }

    #[test]
    fn recovery_from_checkpoint_plus_tail_is_byte_identical() {
        let run = fig_run();
        let events = events_of(&run);
        let dir = tmpdir("recover-ck");
        persist(&dir, StoreConfig::new().snapshot_every(3), &run, &events);

        let service = ZigzagService::new();
        let store = SessionStore::open(&dir, StoreConfig::new().snapshot_every(3)).unwrap();
        let rec = store.recover(&service, "feed").unwrap();
        assert!(rec.from_checkpoint);
        assert_eq!(
            rec.restored_events + rec.replayed_events,
            events.len() as u64
        );
        // The checkpoint covered a multiple of 3; only the tail replays.
        assert_eq!(rec.restored_events % 3, 0);
        assert!(rec.replayed_events < 3);
        assert_eq!(answers(&service, rec.id, &probes(&run)), expected(&run));
    }

    #[test]
    fn durable_sessions_write_only_their_log() {
        let run = fig_run();
        let events = events_of(&run);
        let dir = tmpdir("only-log");
        {
            let service = ZigzagService::new();
            let store = SessionStore::open(&dir, StoreConfig::new().snapshot_every(1)).unwrap();
            let id = store
                .open_stream(
                    &service,
                    "feed",
                    run.context_arc(),
                    run.horizon(),
                    coord_config(),
                )
                .unwrap();
            for ev in &events {
                store.append(&service, id, ev).unwrap();
                assert_eq!(listing(&dir), ["feed.log"]);
            }
            store.checkpoint(&service, id).unwrap();
            service.export(id).unwrap();
            assert_eq!(listing(&dir), ["feed.log"]);
            assert_eq!(
                service.stats().store.snapshots,
                events.len() as u64 + 1,
                "one checkpoint per append plus the explicit one"
            );
        }
        let service = ZigzagService::new();
        let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
        let rec = store.recover(&service, "feed").unwrap();
        assert!(rec.from_checkpoint && rec.replayed_events == 0, "{rec:?}");
        assert_eq!(listing(&dir), ["feed.log"]);
    }

    #[test]
    fn hostile_checkpoints_fall_back_byte_identically() {
        let run = fig_run();
        let events = events_of(&run);
        let probes = probes(&run);
        let expected = expected(&run);
        let dir = tmpdir("hostile-ck");
        persist(&dir, StoreConfig::new().snapshot_every(3), &run, &events);
        let pristine = fs::read_to_string(dir.join("feed.log")).unwrap();

        let lines: Vec<&str> = pristine.lines().collect();
        let cks: Vec<usize> = (0..lines.len())
            .filter(|&k| lines[k].starts_with("ck "))
            .collect();
        assert!(cks.len() >= 2, "the feed should checkpoint at least twice");
        let (prev, last) = (cks[cks.len() - 2], cks[cks.len() - 1]);
        let covered = |k: usize| lines[..k].iter().filter(|l| l.starts_with("ev ")).count() as u64;
        let toks: Vec<&str> = lines[last].split_whitespace().collect();
        assert!(
            toks[6] != "0",
            "the last checkpoint should name warm observers"
        );
        let rewrite = |edits: &[(usize, String)]| -> String {
            let mut out = String::new();
            for (k, l) in lines.iter().enumerate() {
                match edits.iter().find(|(at, _)| *at == k) {
                    Some((_, new)) => out.push_str(new),
                    None => out.push_str(l),
                }
                out.push('\n');
            }
            out
        };
        let last_as = |new: String| rewrite(&[(last, new)]);
        let count: u64 = toks[1].parse().unwrap();

        // (what, log text, events the checkpoint used must cover — `None`
        // for full replay, whether the tail is torn)
        let cases: Vec<(&str, String, Option<u64>, bool)> = vec![
            (
                "count disagrees with the ev records before it",
                last_as(format!("ck {} {}", count - 1, toks[2..].join(" "))),
                Some(covered(prev)),
                false,
            ),
            (
                "manifest names a node outside the prefix",
                last_as(format!("{} 1 0 999 full", toks[..6].join(" "))),
                Some(covered(prev)),
                false,
            ),
            (
                "manifest names a process outside the network",
                last_as(format!("{} 1 7 1 full", toks[..6].join(" "))),
                Some(covered(prev)),
                false,
            ),
            (
                "overclaimed observer count",
                last_as(format!(
                    "{} 4000000000 {}",
                    toks[..6].join(" "),
                    toks[7..].join(" ")
                )),
                Some(covered(prev)),
                false,
            ),
            (
                "coordination progress off the spec's B process",
                last_as(format!("ck {count} 0 1 {}", toks[4..].join(" "))),
                Some(covered(prev)),
                false,
            ),
            (
                "corrupt last checkpoint after a good earlier one",
                last_as("ck zz".into()),
                Some(covered(prev)),
                false,
            ),
            (
                "every checkpoint corrupt",
                rewrite(
                    &cks.iter()
                        .map(|&k| (k, "ck ?".to_string()))
                        .collect::<Vec<_>>(),
                ),
                None,
                false,
            ),
            (
                "torn checkpoint line",
                format!("{pristine}{}", &lines[last][..lines[last].len() / 2]),
                Some(covered(last)),
                true,
            ),
        ];
        for (what, text, covers, torn) in cases {
            fs::write(dir.join("feed.log"), &text).unwrap();
            let service = ZigzagService::new();
            let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
            let rec = store.recover(&service, "feed").unwrap();
            assert_eq!(rec.from_checkpoint, covers.is_some(), "{what}");
            assert_eq!(rec.restored_events, covers.unwrap_or(0), "{what}");
            assert_eq!(
                rec.restored_events + rec.replayed_events,
                events.len() as u64,
                "{what}: a bad checkpoint must not drop events"
            );
            assert_eq!(rec.truncated, torn, "{what}");
            if torn {
                assert_eq!(fs::read_to_string(dir.join("feed.log")).unwrap(), pristine);
            }
            assert_eq!(answers(&service, rec.id, &probes), expected, "{what}");
        }
    }

    #[test]
    fn every_cut_of_a_checkpointed_log_recovers_its_complete_records() {
        let run = fig_run();
        let events = events_of(&run);
        let dir = tmpdir("cuts");
        persist(&dir, StoreConfig::new().snapshot_every(2), &run, &events);
        let pristine = fs::read(dir.join("feed.log")).unwrap();
        let header_len = {
            let text = std::str::from_utf8(&pristine).unwrap();
            text.find("\nev ").unwrap() + 1
        };

        // Cuts inside the header leave no context to recover to.
        for cut in [0, 1, header_len / 2, header_len - 1] {
            fs::write(dir.join("feed.log"), &pristine[..cut]).unwrap();
            let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
            assert!(store.recover(&ZigzagService::new(), "feed").is_err());
        }
        // Past it, every record boundary, one byte in, mid-record and one
        // byte short of it.
        let mut start = header_len;
        while start < pristine.len() {
            let end = start + pristine[start..].iter().position(|&b| b == b'\n').unwrap() + 1;
            for cut in [start, start + 1, (start + end) / 2, end - 1] {
                fs::write(dir.join("feed.log"), &pristine[..cut]).unwrap();
                let service = ZigzagService::new();
                let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
                let rec = store.recover(&service, "feed").unwrap();
                let complete = pristine[..cut]
                    .split_inclusive(|&b| b == b'\n')
                    .filter(|l| l.starts_with(b"ev ") && l.ends_with(b"\n"))
                    .count();
                assert_eq!(
                    rec.restored_events + rec.replayed_events,
                    complete as u64,
                    "cut at {cut}"
                );
                assert_eq!(rec.truncated, cut != start, "cut at {cut}");
            }
            start = end;
        }
    }

    #[test]
    fn torn_and_corrupt_log_tails_recover_to_the_last_good_record() {
        let run = fig_run();
        let events = events_of(&run);
        let dir = tmpdir("torn");
        persist(&dir, StoreConfig::new(), &run, &events);
        let pristine = fs::read(dir.join("feed.log")).unwrap();

        // (what, tail bytes appended to the pristine log)
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("torn final record", b"ev 2 9 1".to_vec()),
            ("garbage line", b"not an event\nev 0 1 0 0 0\n".to_vec()),
            ("non-utf8 tail", vec![0xff, 0xfe, 0xfd]),
            (
                "overclaimed receipt count",
                b"ev 0 39 4000000000 0 0\n".to_vec(),
            ),
            // Parses fine, but delivers a message that does not exist:
            // dropped by the replay pass, not the parser.
            (
                "semantically impossible record",
                b"ev 0 39 1 m4000 0 0\n".to_vec(),
            ),
        ];
        for (what, tail) in cases {
            let mut bytes = pristine.clone();
            bytes.extend_from_slice(&tail);
            fs::write(dir.join("feed.log"), &bytes).unwrap();

            let service = ZigzagService::new();
            let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
            let rec = store.recover(&service, "feed").unwrap();
            assert!(rec.truncated, "{what}: tail not flagged");
            assert_eq!(
                rec.restored_events + rec.replayed_events,
                events.len() as u64,
                "{what}: wrong surviving prefix"
            );
            // The file itself was trimmed back to the good prefix…
            assert_eq!(
                fs::read(dir.join("feed.log")).unwrap(),
                pristine,
                "{what}: log not truncated to last good record"
            );
            // …and the recovered session accepts further durable appends.
            let more = RunEvent {
                proc: ProcessId::new(0),
                time: Time::new(39),
                receipts: vec![],
                sends: vec![],
                actions: vec!["ping".into()],
            };
            store.append(&service, rec.id, &more).unwrap();
            fs::write(dir.join("feed.log"), &pristine).unwrap();
        }

        // A log whose *header* is gone has no last-good state.
        fs::write(dir.join("feed.log"), b"zigzag-log v9\n").unwrap();
        let service = ZigzagService::new();
        let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
        assert!(store.recover(&service, "feed").is_err());
        assert!(store.recover(&service, "no-such-session").is_err());
    }

    #[test]
    fn header_fsync_goes_through_the_fault_plan() {
        let run = fig_run();
        let rates = FaultRates {
            fsync_fail: 1000,
            ..FaultRates::default()
        };
        let store = SessionStore::open(
            tmpdir("header-fsync"),
            StoreConfig::new().fsync(FsyncPolicy::Always),
        )
        .unwrap()
        .with_faults(Arc::new(FaultPlan::new(3, rates)));
        let err = store
            .open_stream(
                &ZigzagService::new(),
                "feed",
                run.context_arc(),
                run.horizon(),
                SessionConfig::new(),
            )
            .unwrap_err();
        assert!(
            matches!(&err, Error::Store { detail } if detail.contains("injected fsync")),
            "got {err}"
        );
    }

    #[test]
    fn always_policy_syncs_the_store_directory_through_the_fault_plan() {
        // A plan whose fsync site passes its first roll and fails its
        // second: the header sync succeeds, so the failure must come from
        // a second sync through the seam — the store directory's.
        let rates = FaultRates {
            fsync_fail: 500,
            ..FaultRates::default()
        };
        let seed = (0..)
            .find(|&seed| {
                let plan = FaultPlan::new(seed, rates);
                !plan.on_fsync() && plan.on_fsync()
            })
            .unwrap();
        let run = fig_run();
        let dir = tmpdir("dir-fsync");
        let store = SessionStore::open(&dir, StoreConfig::new().fsync(FsyncPolicy::Always))
            .unwrap()
            .with_faults(Arc::new(FaultPlan::new(seed, rates)));
        let err = store
            .open_stream(
                &ZigzagService::new(),
                "feed",
                run.context_arc(),
                run.horizon(),
                SessionConfig::new(),
            )
            .unwrap_err();
        let want = format!("injected fsync failure on {}", dir.display());
        assert!(
            matches!(&err, Error::Store { detail } if *detail == want),
            "got {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn on_checkpoint_policy_syncs_at_the_checkpoint_record() {
        let run = fig_run();
        let events = events_of(&run);
        let dir = tmpdir("ck-fsync");
        let rates = FaultRates {
            fsync_fail: 1000,
            ..FaultRates::default()
        };
        let config = StoreConfig::new()
            .snapshot_every(2)
            .fsync(FsyncPolicy::OnCheckpoint);
        {
            let service = ZigzagService::new();
            let store = SessionStore::open(&dir, config)
                .unwrap()
                .with_faults(Arc::new(FaultPlan::with_budget(5, rates, 1)));
            let id = store
                .open_stream(
                    &service,
                    "feed",
                    run.context_arc(),
                    run.horizon(),
                    coord_config(),
                )
                .unwrap();
            // The first append syncs nothing; the second writes the
            // checkpoint record and its sync fails.
            store.append(&service, id, &events[0]).unwrap();
            let err = store.append(&service, id, &events[1]).unwrap_err();
            assert!(
                matches!(&err, Error::Store { detail } if detail.contains("injected fsync")),
                "got {err}"
            );
        }
        // A failed fsync may still have landed: here the record did.
        let service = ZigzagService::new();
        let store = SessionStore::open(&dir, config).unwrap();
        let rec = store.recover(&service, "feed").unwrap();
        assert!(rec.from_checkpoint && rec.restored_events == 2, "{rec:?}");
    }

    #[test]
    fn a_closed_sessions_handle_cannot_write_the_reattached_log() {
        let run = fig_run();
        let events = events_of(&run);
        let dir = tmpdir("close-retires");
        let service = ZigzagService::new();
        let store = SessionStore::open(&dir, StoreConfig::new().snapshot_every(4)).unwrap();
        let id = store
            .open_stream(
                &service,
                "feed",
                run.context_arc(),
                run.horizon(),
                coord_config(),
            )
            .unwrap();

        // A second handle appends until `close` retires the writer: every
        // append it saw acknowledged is in the log the sweep reattaches.
        let stale = service.live(id).unwrap();
        let acked = std::thread::scope(|scope| {
            let feeder = scope.spawn(|| {
                events
                    .iter()
                    .take_while(|ev| stale.append(ev).is_ok())
                    .count()
            });
            service.close(id).unwrap();
            feeder.join().unwrap()
        });
        let swept = store.recover_all(&service).unwrap();
        let [(name, rec)] = swept.as_slice() else {
            panic!("the sweep reattaches one log: {swept:?}");
        };
        assert_eq!(name, "feed");
        assert_eq!(rec.restored_events + rec.replayed_events, acked as u64);

        // The old handle is refused, writes nothing, and the reattached
        // session is the log's only writer.
        let path = store.log_path("feed");
        let before = fs::read(&path).unwrap();
        for out in [
            stale
                .append(&events[acked.min(events.len() - 1)])
                .map(|_| ()),
            stale.checkpoint(),
        ] {
            assert!(
                matches!(&out, Err(Error::Store { detail }) if detail.contains("closed")),
                "got {out:?}"
            );
        }
        assert_eq!(fs::read(&path).unwrap(), before);
        for ev in &events[acked..] {
            store.append(&service, rec.id, ev).unwrap();
        }
        drop((service, stale));
        let service = ZigzagService::new();
        let rec = store.recover(&service, "feed").unwrap();
        assert!(!rec.truncated, "{rec:?}");
        assert_eq!(
            rec.restored_events + rec.replayed_events,
            events.len() as u64
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn migration_between_services_preserves_every_answer() {
        let run = fig_run();
        let probes = probes(&run);

        let source = ZigzagService::new();
        let (id, _) = source.open_replay(&run, coord_config()).unwrap();
        let expected = answers(&source, id, &probes);

        // In-process export/import…
        let doc = source.export(id).unwrap();
        let target = ZigzagService::new();
        let moved = target.import(doc.clone()).unwrap();
        assert_eq!(answers(&target, moved, &probes), expected);

        // …and through the dispatch layer (what the socket path uses).
        let Response::Exported(shipped) = source.dispatch(id, &Query::Export).unwrap() else {
            panic!("export answers Exported");
        };
        assert_eq!(*shipped, doc);
        let target2 = ZigzagService::new();
        let Response::Imported(moved2) = target2
            .dispatch(SessionId::from_raw(0), &Query::Import(shipped))
            .unwrap()
        else {
            panic!("import answers Imported");
        };
        assert_eq!(answers(&target2, moved2, &probes), expected);
        assert!(source.stats().store.migrations >= 2);

        // The migrated session is live: it accepts appends.
        let ev = RunEvent {
            proc: ProcessId::new(0),
            time: Time::new(39),
            receipts: vec![],
            sends: vec![],
            actions: vec!["post-move".into()],
        };
        target.append(moved, &ev).unwrap();
    }
}
