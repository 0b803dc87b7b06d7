//! Wall-clock deadline budget: determinism and typed-outcome contract.
//!
//! `EngineConfig::deadline` turns runaway explorations into the existing
//! typed `Truncated` / `Inconclusive` outcomes. The clock is consulted only
//! at level-commit barriers, so the cut prefix is always a complete-level
//! prefix of the canonical BFS order — this suite pins the two halves of
//! that contract:
//!
//! * **zero deadline** cuts after the *first* level commit, at every
//!   thread count and on both frontends (Petri reachability and the
//!   direct-semantics LTS), producing the identical (bit-for-bit)
//!   one-level graph each time — the only deterministically reachable cut
//!   point, and the proof that a deadline cut is a BFS-order prefix, not
//!   an arbitrary scheduler artifact;
//! * **unreachable deadline** changes nothing: the graph equals the
//!   undeadlined exploration exactly.

use rap::dfs::pipelines::{build_pipeline, PipelineSpec};
use rap::dfs::{to_petri, DfsState, Event, Lts, LtsStateId};
use rap::petri::analysis::{quick_check, QuickVerdict};
use rap::petri::engine::{EngineConfig, ExploreOutcome};
use rap::petri::reachability::{explore, StateId, StateSpace};
use rap::petri::TransitionId;
use std::fmt::Debug;
use std::time::Duration;

/// One explored state: its content and its outgoing edges, in id order.
type Row<S, E> = (S, Vec<E>);

fn fingerprint(space: &StateSpace) -> Vec<Row<Vec<u64>, (TransitionId, StateId)>> {
    let words = space.word_count();
    let mut raw = vec![0u64; words];
    space
        .states()
        .map(|s| {
            space.fill_marking_words(s, &mut raw);
            (raw.clone(), space.successors(s).collect())
        })
        .collect()
}

fn lts_fingerprint(lts: &Lts) -> Vec<Row<DfsState, (Event, LtsStateId)>> {
    lts.states()
        .map(|s| (lts.state(s), lts.successors(s).collect()))
        .collect()
}

fn budget_cfg(threads: usize, deadline: Option<Duration>) -> EngineConfig {
    EngineConfig {
        max_states: 100_000,
        threads,
        deadline,
        ..EngineConfig::default()
    }
}

/// The zero-deadline contract for one frontend: `explore` maps a config to
/// the exploration's outcome and fingerprint.
fn assert_zero_deadline_cut<S, E>(
    explore: impl Fn(&EngineConfig) -> (ExploreOutcome, Vec<Row<S, E>>),
) where
    S: PartialEq + Debug,
    E: PartialEq + Debug,
{
    let mut graphs = Vec::new();
    for threads in [1usize, 2, 8] {
        let (outcome, fp) = explore(&budget_cfg(threads, Some(Duration::ZERO)));
        // the cut reports the state budget in force, not the states explored
        assert_eq!(
            outcome,
            ExploreOutcome::Truncated { limit: 100_000 },
            "zero deadline must truncate"
        );
        assert!(!fp.is_empty(), "the initial state is always committed");
        graphs.push((threads, fp));
    }
    let (_, first) = &graphs[0];
    for (threads, g) in &graphs[1..] {
        assert_eq!(
            g, first,
            "deadline cut differs between 1 and {threads} threads"
        );
    }
    // the cut prefix is exactly the full exploration's first BFS levels:
    // same states, same ids, same edges among them
    let (outcome, full_fp) = explore(&budget_cfg(0, None));
    assert_eq!(outcome, ExploreOutcome::Complete);
    assert!(first.len() < full_fp.len(), "zero deadline cut early");
    for (i, (state, succs)) in first.iter().enumerate() {
        assert_eq!(state, &full_fp[i].0, "state {i} diverges from BFS order");
        // edges to states beyond the cut exist only in the full graph;
        // within the prefix, every recorded edge matches
        for edge in succs {
            assert!(full_fp[i].1.contains(edge), "alien edge {edge:?} at {i}");
        }
    }
}

#[test]
fn zero_deadline_cuts_after_first_level_commit_at_every_thread_count() {
    let p = build_pipeline(&PipelineSpec::reconfigurable_depth(3, 1).unwrap()).unwrap();
    let img = to_petri(&p.dfs);
    assert_zero_deadline_cut(|cfg| {
        let space = explore(&img.net, cfg, None);
        (space.outcome(), fingerprint(&space))
    });
    assert_zero_deadline_cut(|cfg| {
        let lts = Lts::explore(&p.dfs, cfg, None);
        (lts.outcome(), lts_fingerprint(&lts))
    });
}

#[test]
fn unreachable_deadline_is_a_no_op() {
    let p = build_pipeline(&PipelineSpec::reconfigurable_depth(3, 1).unwrap()).unwrap();
    let img = to_petri(&p.dfs);
    let with = explore(
        &img.net,
        &budget_cfg(2, Some(Duration::from_secs(3600))),
        None,
    );
    let without = explore(&img.net, &budget_cfg(2, None), None);
    assert!(!with.is_truncated());
    assert_eq!(fingerprint(&with), fingerprint(&without));
}

#[test]
fn deadline_cut_quick_check_degrades_to_inconclusive_not_wrong() {
    let p = build_pipeline(&PipelineSpec::reconfigurable_depth(3, 1).unwrap()).unwrap();
    let img = to_petri(&p.dfs);
    let pairs = img.complementary_pairs();
    // the reference: an exhaustive check — the model is clean
    let exhaustive = quick_check(
        &img.net,
        &pairs,
        &EngineConfig {
            max_states: 1_000_000,
            ..EngineConfig::default()
        },
    );
    assert!(exhaustive.is_clean());
    // a time-boxed check over a tiny prefix must say Inconclusive (the
    // prefix holds), never Violated, never Holds
    let cut = quick_check(
        &img.net,
        &pairs,
        &EngineConfig {
            max_states: 1_000_000,
            threads: 2,
            deadline: Some(Duration::ZERO),
            ..EngineConfig::default()
        },
    );
    assert!(cut.truncated);
    assert_eq!(
        cut.deadlock_free,
        QuickVerdict::Inconclusive { budget: 1_000_000 }
    );
    assert_eq!(cut.safe, QuickVerdict::Inconclusive { budget: 1_000_000 });
    assert!(cut.deadlock.is_none());
    assert!(cut.unsafe_witness.is_none());
}
