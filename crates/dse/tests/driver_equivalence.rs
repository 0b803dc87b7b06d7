//! The driver's front is invariant under its own optimisations: thread
//! count (threads ∈ {1, 2, 4} plus whatever `RAP_TEST_THREADS` asks for),
//! memoization and pruning must never change which points are reported
//! Pareto-optimal. Also pins the admissibility of the wagged
//! direct-graph period bound the pruner relies on.

use dfs_core::perf::mcr::maximum_cycle_ratio;
use dfs_core::perf::{analyse, EventGraph};
use dfs_core::pipelines::StageDelays;
use rap_dse::models::wagged_ope;
use rap_dse::{explore_with_session, DesignSpace, DseConfig, DseOutcome, Hardware};
use rap_session::Session;
use rap_silicon::cost::CostModel;
use std::collections::HashSet;
use std::sync::Arc;

fn ope_delays() -> StageDelays {
    StageDelays {
        f: 1.0,
        g: 2.0,
        register: 1.0,
        control: 0.5,
    }
}

fn small_space() -> DesignSpace {
    DesignSpace {
        hardware: vec![
            Hardware::Static { stages: 3 },
            Hardware::Reconfigurable {
                stages: 3,
                share_ctrl: true,
            },
            Hardware::Wagged { ways: 1, stages: 3 },
            Hardware::Wagged { ways: 2, stages: 3 },
        ],
        workloads: vec![1, 2, 3],
        sizings: vec![1.0, 1.5],
        voltages: vec![0.9, 1.2],
        delays: ope_delays(),
    }
}

/// Thread counts under test: {1, 2, 4} plus the `RAP_TEST_THREADS`
/// environment override (the CI matrix sets 2).
fn thread_counts() -> Vec<usize> {
    let mut ts = vec![1usize, 2, 4];
    if let Some(t) = std::env::var("RAP_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&t| t >= 1)
    {
        if !ts.contains(&t) {
            ts.push(t);
        }
    }
    ts
}

/// Distinct structures of `space`: the models its configurations intern
/// to in one session.
fn distinct_structures(space: &DesignSpace) -> usize {
    let session = Session::new();
    let models: HashSet<_> = space
        .enumerate()
        .iter()
        .map(|c| Arc::as_ptr(&session.compile(&c.build().unwrap())))
        .collect();
    models.len()
}

fn front_signature(outcome: &DseOutcome) -> Vec<(usize, Vec<String>)> {
    outcome
        .fronts
        .iter()
        .map(|(w, f)| (*w, f.iter().map(|e| e.label.clone()).collect()))
        .collect()
}

#[test]
fn parallel_memoized_pruned_sweep_matches_plain_serial() {
    let space = small_space();
    let cost = CostModel::default();
    let reference = explore_with_session(
        &space,
        &cost,
        &DseConfig {
            threads: 1,
            check_budget: 4_000,
            memoize: false,
            prune: false,
        },
        &Session::new(),
    );
    // the reference evaluates every enumerated configuration in full
    assert_eq!(reference.stats.full_evaluations, reference.stats.enumerated);
    assert_eq!(reference.stats.errors, 0);
    assert!(!reference.fronts.is_empty());

    let structures = distinct_structures(&space);
    for (threads, prune) in thread_counts()
        .into_iter()
        .flat_map(|t| [(t, false), (t, true)])
    {
        let outcome = explore_with_session(
            &space,
            &cost,
            &DseConfig {
                threads,
                check_budget: 4_000,
                memoize: true,
                prune,
            },
            &Session::new(),
        );
        assert_eq!(
            front_signature(&outcome),
            front_signature(&reference),
            "threads={threads} prune={prune}"
        );
        assert!(
            outcome.stats.memo_hits > 0,
            "voltage replicas must hit the memo"
        );
        assert!(outcome.stats.full_evaluations < outcome.stats.enumerated);
        if !prune {
            // scheduled by structure, every structure is evaluated in full
            // exactly once, at every thread count
            assert_eq!(
                outcome.stats.full_evaluations, structures,
                "threads={threads}"
            );
        }
        // accounting: every enumerated point is full, memoized or pruned
        assert_eq!(
            outcome.stats.full_evaluations + outcome.stats.memo_hits + outcome.stats.pruned,
            outcome.stats.enumerated,
            "threads={threads} prune={prune}"
        );
    }
}

/// Delay-only twins (sizings of one structure) share one screen engine
/// run in the sweep's session: at every thread count the session runs the
/// engine once per distinct untimed structure among the analysed models —
/// fewer runs than full evaluations — and the fronts still equal the
/// serial oracle's with memoization and pruning off.
#[test]
fn twins_share_one_engine_run_per_untimed_structure() {
    let space = small_space();
    let cost = CostModel::default();
    let oracle = explore_with_session(
        &space,
        &cost,
        &DseConfig {
            threads: 1,
            check_budget: 4_000,
            memoize: false,
            prune: false,
        },
        &Session::new(),
    );
    for threads in thread_counts() {
        let session = Session::new();
        let outcome = explore_with_session(
            &space,
            &cost,
            &DseConfig {
                threads,
                check_budget: 4_000,
                ..DseConfig::default()
            },
            &session,
        );
        assert_eq!(front_signature(&outcome), front_signature(&oracle));
        let analysed: HashSet<u64> = space
            .enumerate()
            .iter()
            .map(|c| session.compile(&c.build().unwrap()))
            .filter(|m| m.analysed())
            .map(|m| m.untimed_digest())
            .collect();
        let runs = session.stats().queries.check_runs;
        assert_eq!(runs, analysed.len() as u64, "threads={threads}");
        assert!(
            runs < outcome.stats.full_evaluations as u64,
            "threads={threads}: {runs} runs for {} full evaluations",
            outcome.stats.full_evaluations
        );
    }
}

/// Objective vectors (not just labels) agree between a parallel pruned
/// sweep and the serial reference, for every front member.
#[test]
fn front_objectives_are_bitwise_stable_across_schedules() {
    let space = small_space();
    let cost = CostModel::default();
    let a = explore_with_session(&space, &cost, &DseConfig::default(), &Session::new());
    let b = explore_with_session(
        &space,
        &cost,
        &DseConfig {
            threads: 1,
            ..DseConfig::default()
        },
        &Session::new(),
    );
    for (w, front) in &a.fronts {
        let other = b.front(*w);
        assert_eq!(front.len(), other.len(), "workload {w}");
        for (x, y) in front.iter().zip(other) {
            assert_eq!(x.label, y.label);
            assert_eq!(
                x.objectives.throughput.to_bits(),
                y.objectives.throughput.to_bits()
            );
            assert_eq!(
                x.objectives.energy_per_item.to_bits(),
                y.objectives.energy_per_item.to_bits()
            );
            assert_eq!(x.objectives.area.to_bits(), y.objectives.area.to_bits());
        }
    }
}

/// Why the pruner does NOT use the direct (single-phase) event-graph MCR
/// as its period lower bound: the all-true abstraction is optimistic when
/// a replicated column is the bottleneck, but **pessimistic** when the
/// shared steering environment is — so it is not an admissible bound in
/// either direction. This pins the concrete counterexample (fast 2×2
/// columns: direct 11.0 > exact 10.5); if it ever stops over-shooting,
/// the comment in `driver::Shared::period_lower_bound` should be
/// revisited rather than this test weakened.
#[test]
fn wagged_direct_graph_period_is_not_an_admissible_bound() {
    let w = wagged_ope(2, 2, ope_delays(), &[1.0, 1.0]).unwrap();
    let exact = analyse(&w.dfs).unwrap().period;
    let direct = maximum_cycle_ratio(&EventGraph::build(&w.dfs))
        .expect("direct graph solves")
        .ratio;
    assert!(
        direct > exact + 1e-9,
        "direct {direct} vs exact {exact}: the counterexample disappeared"
    );
}
