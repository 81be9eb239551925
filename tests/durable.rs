//! One append path for durable sessions: a durable session owns its log,
//! so every route an event can take into it — [`ZigzagService::append`],
//! [`SessionStore::append`] or a wire [`Query::Append`] — writes the
//! same record, and the log names the one session that writes it.
//!
//! Each test drives the Figure 1 shape (C fans out to A and B, with a
//! `B → C` feedback channel) under FFIP and checks what the log holds by
//! recovering it into a fresh service.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use zigzag::api::{
    Error, FaultPlan, FaultRates, FsyncPolicy, Query, Response, SessionConfig, SessionId,
    SessionStore, SessionSupervisor, StoreConfig, ZigzagService,
};
use zigzag::bcm::protocols::Ffip;
use zigzag::bcm::scheduler::EagerScheduler;
use zigzag::bcm::{Network, Run, RunCursor, RunEvent, SimConfig, Simulator, Time};

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

fn events_of(run: &Run) -> Vec<RunEvent> {
    let events: Vec<RunEvent> = RunCursor::new(run).collect();
    assert!(
        events.len() > 4,
        "the feed is too short to tell routes apart"
    );
    events
}

/// A fresh per-test store directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zigzag-durable-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(store: &SessionStore, service: &ZigzagService, name: &str, run: &Run) -> SessionId {
    store
        .open_stream(
            service,
            name,
            run.context_arc(),
            run.horizon(),
            SessionConfig::new(),
        )
        .unwrap()
}

/// How many events recovering log `name` into a fresh service restores.
fn logged_events(dir: &Path, name: &str) -> u64 {
    let store = SessionStore::open(dir, StoreConfig::new()).unwrap();
    let rec = store.recover(&ZigzagService::new(), name).unwrap();
    rec.restored_events + rec.replayed_events
}

fn is_store_error<T: std::fmt::Debug>(out: &Result<T, Error>) -> bool {
    matches!(out, Err(Error::Store { .. }))
}

#[test]
fn services_sharing_a_store_log_to_their_own_files() {
    let run = fig_run();
    let events = events_of(&run);
    let dir = scratch("shared");
    let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
    let (a, b) = (ZigzagService::new(), ZigzagService::new());
    let id_a = open(&store, &a, "a", &run);
    let id_b = open(&store, &b, "b", &run);
    assert_eq!(id_a, id_b, "both services hand out their first handle");

    for ev in &events {
        store.append(&a, id_a, ev).unwrap();
    }
    for ev in &events[..2] {
        store.append(&b, id_b, ev).unwrap();
    }
    drop((a, b));
    assert_eq!(logged_events(&dir, "a"), events.len() as u64);
    assert_eq!(logged_events(&dir, "b"), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_process_appends_on_a_durable_session_survive_recovery() {
    let run = fig_run();
    let events = events_of(&run);
    let dir = scratch("in-process");
    let store = SessionStore::open(&dir, StoreConfig::new().snapshot_every(4)).unwrap();
    let service = ZigzagService::new();
    let id = open(&store, &service, "feed", &run);
    for ev in &events {
        service.append(id, ev).unwrap();
    }
    let probe = Query::TightBound {
        from: run
            .nodes()
            .map(|r| r.id())
            .find(|n| !n.is_initial())
            .unwrap(),
        to: run.nodes().map(|r| r.id()).last().unwrap(),
    };
    let want = service.dispatch(id, &probe).unwrap();
    drop(service);

    let fresh = ZigzagService::new();
    let rec = store.recover(&fresh, "feed").unwrap();
    assert!(!rec.truncated, "{rec:?}");
    assert!(rec.from_checkpoint, "{rec:?}");
    assert_eq!(
        rec.restored_events + rec.replayed_events,
        events.len() as u64
    );
    assert_eq!(fresh.dispatch(rec.id, &probe).unwrap(), want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_appends_to_a_plain_session_are_refused_before_applying() {
    let run = fig_run();
    let events = events_of(&run);
    let store = SessionStore::open(scratch("plain"), StoreConfig::new()).unwrap();
    let service = ZigzagService::new();
    let id = service.open_stream(run.context_arc(), run.horizon(), SessionConfig::new());
    let out = store.append(&service, id, &events[0]);
    assert!(is_store_error(&out), "got {out:?}");
    assert_eq!(service.event_count(id).unwrap(), 0, "the event was applied");
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn closed_durable_sessions_are_reattached_by_the_next_sweep() {
    let run = fig_run();
    let events = events_of(&run);
    let dir = scratch("closed");
    let service = Arc::new(ZigzagService::new());
    let store = Arc::new(SessionStore::open(&dir, StoreConfig::new()).unwrap());
    let (_sup, swept) = SessionSupervisor::bind(Arc::clone(&service), Arc::clone(&store)).unwrap();
    assert!(swept.is_empty());
    let id = open(&store, &service, "feed", &run);
    for ev in &events {
        service
            .dispatch(id, &Query::Append(Box::new(ev.clone())))
            .unwrap();
    }
    assert!(store.recover_all(&service).unwrap().is_empty());

    // Closed, the session no longer writes its log: the sweep reattaches it.
    service.close(id).unwrap();
    let swept = store.recover_all(&service).unwrap();
    assert_eq!(swept.len(), 1);
    assert_eq!(swept[0].0, "feed");
    let id = swept[0].1.id;
    assert_eq!(service.event_count(id).unwrap(), events.len() as u64);

    // The same through the wire form of the sweep.
    service.close(id).unwrap();
    let Response::Recovered(list) = service.dispatch(id, &Query::Recover).unwrap() else {
        panic!("Recover answers Recovered");
    };
    assert_eq!(list.len(), 1);
    assert_eq!(list[0].0, "feed");
    assert_eq!(service.event_count(list[0].1).unwrap(), events.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovering_a_log_a_live_session_writes_is_refused() {
    let run = fig_run();
    let events = events_of(&run);
    let dir = scratch("live");
    let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
    let service = ZigzagService::new();
    let id = open(&store, &service, "feed", &run);
    let (head, tail) = events.split_at(3);
    for ev in head {
        store.append(&service, id, ev).unwrap();
    }
    let before = std::fs::read(store.log_path("feed")).unwrap();

    let out = store.recover(&service, "feed");
    assert!(is_store_error(&out), "got {out:?}");
    assert_eq!(service.session_count(), 1, "a second writer was installed");
    assert_eq!(std::fs::read(store.log_path("feed")).unwrap(), before);

    // The one writer carries on, and its log holds every event.
    for ev in tail {
        store.append(&service, id, ev).unwrap();
    }
    drop(service);
    assert_eq!(logged_events(&dir, "feed"), events.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_log_write_refuses_later_appends_until_recovery() {
    let run = fig_run();
    let events = events_of(&run);
    let torn = FaultRates {
        torn_log_write: 1000,
        ..FaultRates::default()
    };
    let fsync = FaultRates {
        fsync_fail: 1000,
        ..FaultRates::default()
    };
    // (fault, store policy, events the failed write left in the log).
    // Under `OnCheckpoint` the header is not synced, so the first sync is
    // the one after the first event's checkpoint record.
    let cases = [
        ("torn record", torn, StoreConfig::new(), 0),
        (
            "failed fsync",
            fsync,
            StoreConfig::new()
                .snapshot_every(1)
                .fsync(FsyncPolicy::OnCheckpoint),
            1,
        ),
    ];
    for (what, rates, config, landed) in cases {
        let dir = scratch(&what.replace(' ', "-"));
        let plan = Arc::new(FaultPlan::with_budget(3, rates, 1));
        let store = SessionStore::open(&dir, config)
            .unwrap()
            .with_faults(Arc::clone(&plan));
        let service = ZigzagService::new();
        let id = open(&store, &service, "feed", &run);

        let out = store.append(&service, id, &events[0]);
        assert!(is_store_error(&out), "{what}: got {out:?}");
        assert_eq!(plan.injected(), 1, "{what}");
        let log = std::fs::read(store.log_path("feed")).unwrap();
        for ev in &events[1..] {
            let out = store.append(&service, id, ev);
            assert!(
                is_store_error(&out),
                "{what}: a later append was acknowledged"
            );
        }
        assert_eq!(
            std::fs::read(store.log_path("feed")).unwrap(),
            log,
            "{what}: a refused append was logged"
        );
        // The session holds the failed event, which its log may lack, so
        // it refuses reads as well until recovery.
        let count = service.event_count(id);
        assert!(is_store_error(&count), "{what}: got {count:?}");
        let out = service.dispatch(id, &Query::EventCount);
        assert!(is_store_error(&out), "{what}: got {out:?}");

        // Recovery keeps what reached the file, and appending resumes.
        service.close(id).unwrap();
        let rec = store.recover(&service, "feed").unwrap();
        assert_eq!(rec.restored_events + rec.replayed_events, landed, "{what}");
        assert_eq!(rec.truncated, landed == 0, "{what}");
        for ev in &events[landed as usize..] {
            store.append(&service, rec.id, ev).unwrap();
        }
        drop(service);
        assert_eq!(logged_events(&dir, "feed"), events.len() as u64, "{what}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
