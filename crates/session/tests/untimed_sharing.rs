//! Delay-only twins — models that differ only in node delays, as datapath
//! sizing or supply voltage produce — share their untimed artifacts: one
//! Petri translation, one LTS exploration per budget and one screen engine
//! run per budget serve every twin, while each twin keeps (and persists
//! under its own store key) its own screen, and every answer stays
//! bit-identical to the direct free functions.

use dfs_core::pipelines::{build_pipeline, PipelineSpec};
use dfs_core::{to_petri, Dfs, Lts};
use rap_obs::{Collector, Obs};
use rap_petri::analysis::quick_check;
use rap_petri::engine::EngineConfig;
use rap_session::store::{ArtifactKey, QueryKind, Store};
use rap_session::Session;
use std::sync::{Arc, Barrier};

const BUDGET: usize = 20_000;
const LTS_BUDGET: usize = 500_000;

/// Four sizing twins of the reconfigurable 3-stage pipeline at depth 2:
/// per-stage `f` delays scaled by the sizing factor.
fn twins() -> Vec<Dfs> {
    [0.75, 1.0, 1.5, 2.0]
        .iter()
        .map(|&s| {
            let spec = PipelineSpec::reconfigurable_depth(3, 2).unwrap();
            let f = spec.f_delays.iter().map(|d| d * s).collect();
            build_pipeline(&spec.with_f_delays(f)).unwrap().dfs
        })
        .collect()
}

fn budget(max_states: usize) -> EngineConfig {
    EngineConfig {
        max_states,
        ..EngineConfig::default()
    }
}

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        TempDir(
            std::env::temp_dir().join(format!("rap-untimed-sharing-{}-{tag}", std::process::id())),
        )
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn sizing_twins_share_one_translation_one_lts_and_one_check_run() {
    let session = Session::new();
    let models: Vec<_> = twins().iter().map(|d| session.compile(d)).collect();
    assert_eq!(session.stats().models, 4, "twins are distinct models");
    for m in &models {
        assert_eq!(m.untimed_digest(), models[0].untimed_digest());
        let _ = m.petri();
        let _ = m.quick_check(BUDGET);
        let _ = m.quick_check(BUDGET / 2);
        let _ = m.lts(LTS_BUDGET).unwrap();
        let _ = m.perf().unwrap();
    }
    let q = session.stats().queries;
    assert_eq!(q.petri_translations, 1, "{q:?}");
    assert_eq!(q.check_runs, 2, "one engine run per budget: {q:?}");
    assert_eq!(q.lts_explorations, 1, "{q:?}");
    assert_eq!(q.perf_analyses, 4, "timed analyses stay per model: {q:?}");
    // every twin's untimed artifacts are the very same objects
    for m in &models[1..] {
        assert!(std::ptr::eq(m.petri(), models[0].petri()));
        assert!(Arc::ptr_eq(
            &m.lts(LTS_BUDGET).unwrap(),
            &models[0].lts(LTS_BUDGET).unwrap()
        ));
        assert!(Arc::ptr_eq(
            &m.quick_check(BUDGET),
            &models[0].quick_check(BUDGET)
        ));
    }
}

#[test]
fn each_twin_answers_exactly_like_the_direct_calls() {
    let session = Session::new();
    for dfs in twins() {
        let m = session.compile(&dfs);
        let img = to_petri(&dfs);
        let want = quick_check(&img.net, &img.complementary_pairs(), &budget(BUDGET));
        assert_eq!(*m.quick_check(BUDGET), want);
        let got = m.petri();
        assert_eq!(got.labels, img.labels);
        assert_eq!(got.net.place_count(), img.net.place_count());
        for p in got.net.places() {
            assert_eq!(got.net.place(p).name, img.net.place(p).name);
        }
        let lts = m.lts(LTS_BUDGET).unwrap();
        let want_lts = Lts::explore(&dfs, &budget(LTS_BUDGET), None);
        assert_eq!(lts.len(), want_lts.len());
        assert_eq!(lts.deadlocks(), want_lts.deadlocks());
        for s in lts.states() {
            assert_eq!(lts.successors(s), want_lts.successors(s));
        }
        let want_perf = dfs_core::perf::analyse(&dfs).unwrap();
        assert_eq!(
            m.perf().unwrap().period.to_bits(),
            want_perf.period.to_bits()
        );
    }
}

/// Four threads each querying a different twin at once: the shared slot
/// admits one engine run, and the three other twins are served by it.
/// With a recorder attached, the blocked callers' time shows up as
/// `session.wait` under `session.query.check`.
#[test]
fn concurrent_twins_run_the_engine_once_and_name_the_wait() {
    let collector = Arc::new(Collector::new());
    let session = Session::with_recorder(Obs::collecting(&collector));
    let models: Vec<_> = twins().iter().map(|d| session.compile(d)).collect();
    // a budget big enough that the run is still in flight when the other
    // threads arrive
    let big = 60_000;
    let barrier = Barrier::new(models.len());
    let checks: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = models
            .iter()
            .map(|m| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    m.quick_check(big)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(checks.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
    let q = session.stats().queries;
    assert_eq!(q.check_runs, 1, "{q:?}");
    assert_eq!(q.check_queries, 4);
    assert_eq!(q.petri_translations, 1);

    let snap = collector.snapshot();
    let waits: Vec<_> = snap
        .spans
        .iter()
        .filter(|n| n.name == "session.wait")
        .collect();
    assert!(!waits.is_empty(), "no session.wait span recorded");
    for w in waits {
        let parent = &snap.spans[w.parent.unwrap() as usize];
        assert_eq!(parent.name, "session.query.check");
    }
    let computes: u64 = snap
        .spans
        .iter()
        .filter(|n| n.name == "session.compute")
        .map(|n| n.count)
        .sum();
    // one engine run plus the one translation it demanded
    assert_eq!(computes, 2);
}

#[test]
fn every_twin_persists_its_own_check_frame_and_a_restart_runs_nothing() {
    let dir = TempDir::new("restart");
    let dfss = twins();
    let keys: Vec<ArtifactKey> = {
        let session = Session::open(&dir.0).unwrap();
        let models: Vec<_> = dfss.iter().map(|d| session.compile(d)).collect();
        for m in &models {
            let _ = m.quick_check(BUDGET);
        }
        let cold = session.stats();
        assert_eq!(cold.queries.check_runs, 1);
        assert_eq!(cold.store.disk_misses, 4, "each twin probes its own key");
        assert_eq!(cold.store.write_errors, 0);
        models
            .iter()
            .map(|m| ArtifactKey {
                structural: m.structural_hash(),
                identity: m.identity_digest(),
                kind: QueryKind::Check,
                subkey: BUDGET as u64,
            })
            .collect()
    };
    {
        let store = Store::open(&dir.0).unwrap();
        for key in &keys {
            assert!(store.load(key).is_some(), "missing frame {key:?}");
        }
    }
    let session = Session::open(&dir.0).unwrap();
    let reference = Session::new();
    for dfs in &dfss {
        let got = session.compile(dfs).quick_check(BUDGET);
        assert_eq!(*got, *reference.compile(dfs).quick_check(BUDGET));
    }
    let restart = session.stats();
    assert_eq!(restart.queries.check_runs, 0);
    assert_eq!(restart.queries.petri_translations, 0);
    assert_eq!(restart.store.disk_hits, 4);
    assert_eq!(restart.store.disk_misses, 0);
}
