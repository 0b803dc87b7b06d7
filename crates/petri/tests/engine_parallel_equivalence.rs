//! Differential suite: the engine is observationally identical to the
//! naive reference explorer at every thread count — **including when a live
//! collector is attached**. Recording is observation-only by contract
//! ([`rap_petri::engine::EngineConfig::obs`]): span timings and counters
//! must never leak into state numbering, parent attribution, edge order or
//! truncation. These tests pin that contract by comparing the naive
//! oracle, untraced and traced engine runs state-for-state at
//! threads ∈ {1, 2, 8}.

use proptest::prelude::*;
use rap_obs::{Collector, Obs};
use rap_petri::engine::{explore, EngineConfig, EngineStats, ExploredGraph, NetSystem};
use rap_petri::reachability::{explore_naive, StateSpace};
use rap_petri::{PetriNet, PlaceId};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn cfg(max_states: usize, threads: usize, obs: Obs) -> EngineConfig {
    EngineConfig {
        max_states,
        threads,
        obs,
        ..EngineConfig::default()
    }
}

fn explore_net(net: &PetriNet, cfg: &EngineConfig) -> ExploredGraph {
    explore(|| NetSystem::new(net), cfg, None)
}

/// Full observational equality of two engine runs: counts, outcome, parent
/// links, CSR edges and every reconstructed state vector.
fn assert_identical(a: &ExploredGraph, b: &ExploredGraph, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: state count");
    assert_eq!(a.outcome(), b.outcome(), "{ctx}: outcome");
    assert_eq!(a.parents, b.parents, "{ctx}: parent attribution");
    assert_eq!(a.succ_off, b.succ_off, "{ctx}: CSR offsets");
    assert_eq!(a.succ, b.succ, "{ctx}: edge order");
    assert!(a.dead_states().eq(b.dead_states()), "{ctx}: dead states");
    for i in 0..a.len() {
        assert_eq!(a.state_vec(i), b.state_vec(i), "{ctx}: state {i}");
    }
}

/// Full observational equality of an engine run and the naive oracle,
/// graph for graph: counts, outcome, every state's words, its CSR edge row
/// and its parent chain (as the trace the parent links spell).
fn assert_matches_naive(g: &ExploredGraph, naive: &StateSpace, ctx: &str) {
    assert_eq!(g.len(), naive.len(), "{ctx}: state count");
    assert_eq!(g.outcome(), naive.outcome(), "{ctx}: outcome");
    assert_eq!(g.succ_off.len(), g.len() + 1, "{ctx}: CSR offsets");
    let mut words = vec![0u64; naive.word_count()];
    for s in naive.states() {
        let i = s.index();
        naive.fill_marking_words(s, &mut words);
        assert_eq!(g.state_vec(i), words, "{ctx}: state {i}");
        let edges: Vec<(u32, u32)> = naive
            .successors(s)
            .map(|(t, n)| (t.index() as u32, n.index() as u32))
            .collect();
        assert_eq!(g.successors(i), edges.as_slice(), "{ctx}: edges of {i}");
        let trace: Vec<u32> = naive.trace_to(s).iter().map(|t| t.index() as u32).collect();
        assert_eq!(g.trace_to(i), trace, "{ctx}: parents of {i}");
    }
}

fn ring(n: usize) -> PetriNet {
    let mut net = PetriNet::new();
    let places: Vec<_> = (0..n)
        .map(|i| net.add_place(format!("p{i}"), i == 0))
        .collect();
    for i in 0..n {
        let t = net.add_transition(format!("t{i}"));
        net.consume(t, places[i]);
        net.produce(t, places[(i + 1) % n]);
    }
    net
}

/// Random net generator shared with `tests/properties.rs`.
fn arb_net(np: usize, nt: usize) -> impl Strategy<Value = PetriNet> {
    let place_marks = proptest::collection::vec(any::<bool>(), np);
    let arcs = proptest::collection::vec(
        (
            proptest::collection::vec(0..np, 0..3), // consumes
            proptest::collection::vec(0..np, 0..3), // produces
            proptest::collection::vec(0..np, 0..2), // reads
        ),
        nt,
    );
    (place_marks, arcs).prop_map(move |(marks, arcs)| {
        let mut net = PetriNet::new();
        let places: Vec<PlaceId> = marks
            .iter()
            .enumerate()
            .map(|(i, &m)| net.add_place(format!("p{i}"), m))
            .collect();
        for (i, (cons, prod, reads)) in arcs.into_iter().enumerate() {
            let t = net.add_transition(format!("t{i}"));
            for c in cons {
                net.consume(t, places[c]);
            }
            for p in prod {
                net.produce(t, places[p]);
            }
            for r in reads {
                net.read(t, places[r]);
            }
        }
        net
    })
}

/// A live collector never perturbs the result: the traced engine ≡ the
/// naive oracle on a ring, across thread counts and budgets, and the
/// collector actually observed the run (per-level spans plus the
/// end-of-run counter flush).
#[test]
fn traced_engine_matches_naive_at_every_thread_count() {
    let net = ring(64);
    for budget in [usize::MAX, 64, 17, 3, 1] {
        let naive = explore_naive(&net, budget);
        for threads in THREAD_COUNTS {
            let collector = Arc::new(Collector::new());
            let traced = explore_net(&net, &cfg(budget, threads, Obs::collecting(&collector)));
            assert_matches_naive(&traced, &naive, &format!("t={threads} budget={budget}"));

            let snap = collector.snapshot();
            let stats = EngineStats::from_counters(&snap.counters);
            assert_eq!(stats.states, traced.len() as u64, "t={threads}");
            assert!(stats.levels > 0, "t={threads}: no levels recorded");
            assert!(
                snap.spans.iter().any(|s| s.name == "engine.level.expand"),
                "t={threads}: expand spans missing"
            );
            assert!(
                snap.spans.iter().any(|s| s.name == "engine.level.commit"),
                "t={threads}: commit spans missing"
            );
        }
    }
}

/// Tracing is invisible to the output: traced and untraced engine runs
/// are bit-identical at every thread count.
#[test]
fn tracing_is_observation_only() {
    let net = ring(150); // 3 words per state: exercises the delta path too
    for threads in THREAD_COUNTS {
        let untraced = explore_net(&net, &cfg(1_000, threads, Obs::none()));
        let collector = Arc::new(Collector::new());
        let traced = explore_net(&net, &cfg(1_000, threads, Obs::collecting(&collector)));
        assert_identical(&untraced, &traced, &format!("t={threads}"));
        assert!(collector.snapshot().wall_ns > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The property-level version: on random nets, the naive oracle, the
    /// untraced engine and the traced engine (live collector) agree
    /// exactly at threads ∈ {1, 2, 8}.
    #[test]
    fn engine_equivalence_holds_under_tracing(net in arb_net(10, 8)) {
        let naive = explore_naive(&net, 2_000);
        for threads in THREAD_COUNTS {
            let plain = explore_net(&net, &cfg(2_000, threads, Obs::none()));
            let collector = Arc::new(Collector::new());
            let traced = explore_net(&net, &cfg(2_000, threads, Obs::collecting(&collector)));
            assert_matches_naive(&plain, &naive, &format!("plain t={threads}"));
            assert_identical(&plain, &traced, &format!("traced t={threads}"));
            let stats = EngineStats::from_counters(&collector.snapshot().counters);
            prop_assert_eq!(stats.states, traced.len() as u64);
        }
    }
}
