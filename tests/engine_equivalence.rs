//! Engine ↔ naive-explorer equivalence, property-tested.
//!
//! The shared incremental engine (`rap::petri::engine`) claims to be
//! observationally identical to the retained naive explorers — same state
//! numbering, same edges, same truncation behaviour, replayable
//! counterexample traces. This suite pins that claim on random inputs from
//! both ends of the tool: raw random Petri nets (arbitrary arc structure,
//! including non-1-safe-looking shapes the firing rule must reject) and the
//! pipeline generators the paper's flow actually explores (the
//! `perf_cross_check.rs` shapes: reconfigurable-depth pipelines and wagged
//! pipelines).

use proptest::prelude::*;
use rap::dfs::pipelines::{build_pipeline, PipelineSpec};
use rap::dfs::wagging::wagged_pipeline;
use rap::dfs::{to_petri, Dfs, DfsBuilder, DfsState, Lts, TokenValue};
use rap::petri::engine::EngineConfig;
use rap::petri::reachability::{explore, explore_naive, StateSpace};
use rap::petri::{PetriNet, PlaceId};

fn budget(max_states: usize) -> EngineConfig {
    EngineConfig {
        max_states,
        ..EngineConfig::default()
    }
}

/// Random net over `np` places and `nt` transitions with small arc lists.
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

/// A random small DFS model (at most 8 nodes, so at most 3^8 states): kinds,
/// initial tokens and edges drawn freely, which makes for choices and for
/// deadlocks at every depth. Invalid graphs (combinational cycles) are
/// filtered out.
fn arb_dfs() -> impl Strategy<Value = Dfs> {
    let nodes = proptest::collection::vec((0u8..5, any::<(bool, bool)>()), 3..8);
    let edges = proptest::collection::vec((0usize..8, 0usize..8), 2..14);
    (nodes, edges).prop_filter_map("invalid model", |(nodes, edges)| {
        let mut b = DfsBuilder::new();
        let ids: Vec<_> = nodes
            .iter()
            .enumerate()
            .map(|(i, &(kind, (marked, value)))| {
                let name = format!("n{i}");
                let nb = match kind {
                    0 => return b.logic(name).build(),
                    1 => b.register(name),
                    2 => b.control(name),
                    3 => b.push(name),
                    _ => b.pop(name),
                };
                match (marked, kind) {
                    (false, _) => nb.build(),
                    (true, 1) => nb.marked().build(),
                    (true, _) => nb.marked_with(TokenValue::from(value)).build(),
                }
            })
            .collect();
        for (from, to) in edges {
            if from < ids.len() && to < ids.len() && from != to {
                b.connect(ids[from], ids[to]);
            }
        }
        b.finish().ok()
    })
}

/// Random paper-flow pipeline: 2–3 stages, random reconfigurability pattern
/// and inclusion depth.
fn arb_pipeline() -> impl Strategy<Value = Dfs> {
    (
        2usize..=3,
        proptest::collection::vec(any::<bool>(), 3),
        0usize..=3,
    )
        .prop_map(|(stages, reconf, depth)| {
            let mut spec =
                PipelineSpec::reconfigurable_depth(stages, depth.clamp(1, stages)).unwrap();
            for (i, flag) in reconf.iter().take(stages).enumerate().skip(1) {
                spec.reconfigurable[i] = *flag;
            }
            build_pipeline(&spec).expect("spec builds").dfs
        })
}

/// Full equivalence of the two Petri explorers, including the replay of
/// every counterexample (per-state shortest trace).
fn assert_pn_equivalent(net: &PetriNet, max_states: usize) -> Result<(), TestCaseError> {
    let engine = explore(net, &budget(max_states), None);
    let naive = explore_naive(net, max_states);
    prop_assert_eq!(engine.len(), naive.len());
    prop_assert_eq!(engine.is_truncated(), naive.is_truncated());
    for (a, b) in engine.states().zip(naive.states()) {
        prop_assert_eq!(&engine.marking(a), &naive.marking(b));
        prop_assert_eq!(engine.successors(a), naive.successors(b));
    }
    prop_assert_eq!(pn_dead(&engine), pn_dead(&naive));
    replay_traces(net, &engine)?;
    Ok(())
}

/// Replays the engine's traces through the *net's* firing rule — the trace
/// must be step-wise enabled and land exactly on the recorded marking.
fn replay_traces(net: &PetriNet, space: &StateSpace) -> Result<(), TestCaseError> {
    for s in space.states() {
        let mut m = net.initial_marking();
        for t in space.trace_to(s) {
            prop_assert!(net.is_enabled(t, &m), "trace step not enabled");
            m = net.fire(t, &m).unwrap();
        }
        prop_assert_eq!(&m, &space.marking(s));
    }
    Ok(())
}

fn assert_lts_equivalent(dfs: &Dfs, max_states: usize) -> Result<(), TestCaseError> {
    let engine = Lts::explore(dfs, &budget(max_states), None);
    let naive = Lts::explore_naive(dfs, max_states);
    prop_assert_eq!(engine.len(), naive.len());
    prop_assert_eq!(engine.is_truncated(), naive.is_truncated());
    for (a, b) in engine.states().zip(naive.states()) {
        prop_assert_eq!(&engine.state(a), &naive.state(b));
        prop_assert_eq!(engine.successors(a), naive.successors(b));
    }
    prop_assert_eq!(lts_dead(&engine), lts_dead(&naive));
    // counterexample-trace replay through the semantics
    for s in engine.states() {
        let mut st = DfsState::initial(dfs);
        for ev in engine.trace_to(s) {
            prop_assert!(dfs.is_event_enabled(&st, ev), "trace event not enabled");
            st = dfs.apply(&st, ev);
        }
        prop_assert_eq!(&st, &engine.state(s));
    }
    Ok(())
}

/// The dead states of a Petri exploration, as indices in id order.
fn pn_dead(space: &StateSpace) -> Vec<usize> {
    space.dead_states().map(|s| s.index()).collect()
}

/// The deadlocks of an LTS, as indices in id order.
fn lts_dead(lts: &Lts) -> Vec<usize> {
    lts.deadlocks().iter().map(|s| s.index()).collect()
}

/// Budgets of the truncated dead-state sweeps: from the initial state
/// alone to past the mid-size models' complete spaces.
const DEAD_SWEEP: [usize; 10] = [1, 2, 3, 5, 8, 13, 50, 200, 1_000, 5_000];

/// Dead states under truncation for one backend. `dead_at(cap)` runs the
/// engine and the naive explorer at budget `cap` and returns whether the
/// run was cut and both dead sets. At every budget the two explorers
/// agree, and every state dead in a cut run is dead, under the same id, in
/// the complete run (`usize::MAX` must complete).
fn assert_dead_states_stable(
    ctx: &str,
    budgets: &[usize],
    dead_at: impl Fn(usize) -> (bool, Vec<usize>, Vec<usize>),
) -> Result<(), TestCaseError> {
    let (cut, complete, naive) = dead_at(usize::MAX);
    prop_assert!(!cut, "{}: the reference run must be complete", ctx);
    prop_assert_eq!(&complete, &naive, "{}: complete run", ctx);
    for &cap in budgets {
        let (_, engine, naive) = dead_at(cap);
        prop_assert_eq!(&engine, &naive, "{}: budget {}", ctx, cap);
        for s in &engine {
            prop_assert!(
                complete.contains(s),
                "{}: budget {}: state {} is dead only in the cut run",
                ctx,
                cap,
                s
            );
        }
    }
    Ok(())
}

fn assert_pn_dead_states_stable(
    ctx: &str,
    net: &PetriNet,
    budgets: &[usize],
) -> Result<(), TestCaseError> {
    assert_dead_states_stable(ctx, budgets, |cap| {
        let engine = explore(net, &budget(cap), None);
        let naive = explore_naive(net, cap);
        (engine.is_truncated(), pn_dead(&engine), pn_dead(&naive))
    })
}

fn assert_lts_dead_states_stable(
    ctx: &str,
    dfs: &Dfs,
    budgets: &[usize],
) -> Result<(), TestCaseError> {
    assert_dead_states_stable(ctx, budgets, |cap| {
        let engine = Lts::explore(dfs, &budget(cap), None);
        let naive = Lts::explore_naive(dfs, cap);
        (engine.is_truncated(), lts_dead(&engine), lts_dead(&naive))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random raw nets: the engine's event-driven enabledness updates and
    /// arena dedup agree with the naive full-scan explorer state-for-state.
    #[test]
    fn random_nets_agree(net in arb_net(10, 8)) {
        assert_pn_equivalent(&net, 3_000)?;
    }

    /// Random nets under a tiny budget: truncation must bite at exactly the
    /// same point in both explorers.
    #[test]
    fn random_nets_agree_under_truncation(net in arb_net(9, 8)) {
        for cap in [1usize, 2, 7] {
            assert_pn_equivalent(&net, cap)?;
        }
    }

    /// Random paper pipelines, both backends: the PN image explored by the
    /// engine and the direct-semantics LTS agree with their references (and
    /// with each other on the state count, by bisimilarity).
    #[test]
    fn random_pipelines_agree(dfs in arb_pipeline()) {
        let img = to_petri(&dfs);
        assert_pn_equivalent(&img.net, 3_000)?;
        assert_lts_equivalent(&dfs, 3_000)?;
        let pn = explore(&img.net, &budget(3_000), None);
        let lts = Lts::explore(&dfs, &budget(3_000), None);
        if !pn.is_truncated() && !lts.is_truncated() {
            prop_assert_eq!(pn.len(), lts.len());
        }
    }

    /// Random raw nets (at most 2^9 markings, so every reference run
    /// completes): the dead states of each cut run are the naive
    /// explorer's, and dead in the complete run.
    #[test]
    fn random_nets_truncated_dead_states_are_stable(net in arb_net(9, 8)) {
        assert_pn_dead_states_stable("random net", &net, &DEAD_SWEEP[..7])?;
    }

    /// The same on random DFS models, on both backends.
    #[test]
    fn random_models_truncated_dead_states_are_stable(dfs in arb_dfs()) {
        assert_pn_dead_states_stable("petri", &to_petri(&dfs).net, &DEAD_SWEEP)?;
        assert_lts_dead_states_stable("lts", &dfs, &DEAD_SWEEP)?;
    }
}

/// Both backends of the deadlock-free `reconfigurable_depth(2,2)` pipeline
/// (1,536 states) over the budget sweep: no cut run reports a dead state —
/// its frontier is unexpanded, not stuck.
#[test]
fn truncated_live_pipeline_has_no_dead_states() {
    let spec = PipelineSpec::reconfigurable_depth(2, 2).unwrap();
    let dfs = build_pipeline(&spec).unwrap().dfs;
    let net = to_petri(&dfs).net;
    assert_pn_dead_states_stable("petri", &net, &DEAD_SWEEP).unwrap();
    assert_lts_dead_states_stable("lts", &dfs, &DEAD_SWEEP).unwrap();
    assert_eq!(pn_dead(&explore(&net, &budget(usize::MAX), None)), []);
}

/// The deterministic `perf_cross_check.rs` shapes: wagged pipelines stress
/// guard/choice structure beyond what the random pipelines reach.
#[test]
fn wagged_shapes_agree() {
    for ways in [1usize, 2] {
        let w = wagged_pipeline(ways, 1, 1.0).unwrap();
        let img = to_petri(&w.dfs);
        let cap = 30_000;
        let engine = explore(&img.net, &budget(cap), None);
        let naive = explore_naive(&img.net, cap);
        assert_eq!(engine.len(), naive.len(), "ways={ways}");
        assert_eq!(engine.is_truncated(), naive.is_truncated());
        for (a, b) in engine.states().zip(naive.states()) {
            assert_eq!(engine.successors(a), naive.successors(b));
        }
        let l_engine = Lts::explore(&w.dfs, &budget(cap), None);
        let l_naive = Lts::explore_naive(&w.dfs, cap);
        assert_eq!(l_engine.len(), l_naive.len(), "ways={ways}");
        assert_eq!(l_engine.is_truncated(), l_naive.is_truncated());
    }
}
