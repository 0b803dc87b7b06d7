//! Store-backed sessions: cold / warm / restart coherence.
//!
//! The contract under test: a persistent session returns bit-identical
//! artifacts to a memory-only session in every generation, and the
//! [`SessionStats`] counters (query, computation and store counters) add
//! up exactly across a cold run, a warm re-query, and a process-restart
//! re-run over the same store directory.

use dfs_core::{Dfs, DfsBuilder, NodeId};
use rap_session::Session;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("rap-session-test-{}-{}", std::process::id(), tag))
}

struct TempDir(std::path::PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A marked ring with a logic stage — all four persisted queries succeed.
fn model() -> (Dfs, NodeId) {
    let mut b = DfsBuilder::new();
    let a = b.register("a").marked().build();
    let f = b.logic("f").build();
    let c = b.register("b").build();
    let d = b.register("c").build();
    b.connect(a, f);
    b.connect(f, c);
    b.connect(c, d);
    b.connect(d, a);
    (b.finish().unwrap(), a)
}

const BUDGET: usize = 10_000;
const MARKS: u64 = 64;

struct Answers {
    period_bits: u64,
    activity_bits: Vec<u64>,
    check: rap_petri::analysis::QuickCheck,
    area_bits: u64,
    switched_bits: u64,
    steady_bits: u64,
}

fn query_all(session: &Session, dfs: &Dfs, out: NodeId) -> Answers {
    let m = session.compile(dfs);
    let detail = m.perf_detail().unwrap();
    let cost = m.cost(&rap_session::CostModel::default()).unwrap();
    let steady = m.steady_period(out, MARKS).unwrap();
    Answers {
        period_bits: detail.report.period.to_bits(),
        activity_bits: detail
            .activity_per_item
            .iter()
            .map(|a| a.to_bits())
            .collect(),
        check: (*m.quick_check(BUDGET)).clone(),
        area_bits: cost.area.to_bits(),
        switched_bits: cost.switched_ge_per_item.to_bits(),
        steady_bits: steady.period.to_bits(),
    }
}

fn assert_same(a: &Answers, b: &Answers) {
    assert_eq!(a.period_bits, b.period_bits);
    assert_eq!(a.activity_bits, b.activity_bits);
    assert_eq!(a.check, b.check);
    assert_eq!(a.area_bits, b.area_bits);
    assert_eq!(a.switched_bits, b.switched_bits);
    assert_eq!(a.steady_bits, b.steady_bits);
}

#[test]
fn cold_warm_restart_counters_add_up_and_answers_are_bit_identical() {
    let dir = TempDir(temp_dir("coldwarmrestart"));
    let (dfs, out) = model();

    // the reference: a fresh memory-only session
    let reference = query_all(&Session::new(), &dfs, out);

    // ---- cold: empty store — every query misses disk, computes, persists
    let cold_answers;
    let warm_answers;
    {
        let session = Session::open(&dir.0).unwrap();
        cold_answers = query_all(&session, &dfs, out);
        let cold = session.stats();
        // perf, check, cost, steady: one disk miss each, then a commit each
        assert_eq!(cold.store.disk_misses, 4);
        assert_eq!(cold.store.disk_hits, 0);
        assert_eq!(cold.store.corrupt_recovered, 0);
        assert_eq!(cold.store.write_errors, 0);
        assert!(cold.store.bytes_written > 0);
        assert_eq!(cold.store.bytes_read, 0);
        assert_eq!(cold.queries.perf_analyses, 1);
        assert_eq!(cold.queries.check_runs, 1);
        assert_eq!(cold.queries.cost_evaluations, 1);
        assert_eq!(cold.queries.steady_measurements, 1);

        // ---- warm: same session — memory cache serves, store untouched
        warm_answers = query_all(&session, &dfs, out);
        let warm = session.stats();
        assert_eq!(warm.store, cold.store, "warm queries never touch disk");
        assert_eq!(warm.queries.computations(), cold.queries.computations());
        assert_eq!(
            warm.queries.queries(),
            cold.queries.queries() + 4,
            "warm re-queries the four top-level artifacts; the cached slots \
             demand nothing further (no petri, no nested perf)"
        );
    }

    // ---- restart: new session over the same directory — zero computations
    let session = Session::open(&dir.0).unwrap();
    let restart_answers = query_all(&session, &dfs, out);
    let restart = session.stats();
    assert_eq!(restart.store.disk_hits, 4, "every artifact loads from disk");
    assert_eq!(restart.store.disk_misses, 0);
    assert_eq!(
        restart.store.bytes_written, 0,
        "nothing recomputed, nothing rewritten"
    );
    assert!(restart.store.bytes_read > 0);
    assert_eq!(
        restart.queries.computations(),
        0,
        "restart performs zero computations"
    );
    assert_eq!(restart.queries.perf_analyses, 0);
    assert_eq!(restart.queries.check_runs, 0);
    assert_eq!(
        restart.queries.petri_queries, 0,
        "a disk-served check never demands the translation"
    );

    assert_same(&reference, &cold_answers);
    assert_same(&reference, &warm_answers);
    assert_same(&reference, &restart_answers);
}

#[test]
fn locked_store_is_refused_and_a_memory_fallback_answers_the_same() {
    let dir = TempDir(temp_dir("degrade"));
    let holder = Session::open(&dir.0).unwrap();
    // second opener: the directory is locked by a live process (us)
    let second = Session::open(&dir.0);
    assert!(matches!(
        second,
        Err(rap_session::StoreError::Locked { .. })
    ));
    let degraded = second.unwrap_or_else(|_| Session::new());
    assert!(degraded.store().is_none(), "fell back to memory-only");
    // degradation changes cost, never answers
    let (dfs, out) = model();
    assert_same(
        &query_all(&holder, &dfs, out),
        &query_all(&degraded, &dfs, out),
    );
    assert_eq!(degraded.stats().store, rap_session::StoreStats::default());
}

#[test]
fn distinct_budgets_and_models_get_distinct_frames() {
    let dir = TempDir(temp_dir("distinct"));
    let (dfs, _) = model();
    {
        let session = Session::open(&dir.0).unwrap();
        let m = session.compile(&dfs);
        let c1 = m.quick_check(1_000);
        let c2 = m.quick_check(2_000);
        // budgets are part of the artifact key, so both persist
        assert_eq!(session.stats().store.disk_misses, 2);
        drop((c1, c2));
    }
    let session = Session::open(&dir.0).unwrap();
    let m = session.compile(&dfs);
    let _ = m.quick_check(1_000);
    let _ = m.quick_check(2_000);
    let stats = session.stats();
    assert_eq!(stats.store.disk_hits, 2);
    assert_eq!(stats.queries.check_runs, 0);
}
