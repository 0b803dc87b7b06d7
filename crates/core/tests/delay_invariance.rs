//! The soundness premise of sharing untimed artifacts between delay-only
//! twins: neither the Petri translation nor the direct-semantics LTS reads
//! a node delay. Two models that differ only in their per-node delays
//! translate to the same net (place names and initial marking, transition
//! names, arcs, labels, and the same set of complementary pairs) and
//! explore to the same LTS (states, edges, deadlocks).

use dfs_core::pipelines::{build_pipeline, PipelineSpec};
use dfs_core::wagging::wagged_pipeline;
use dfs_core::{dsl, to_petri, Dfs, Lts};
use proptest::prelude::*;
use rap_petri::engine::EngineConfig;

const DELAYS: [f64; 5] = [0.25, 0.5, 1.0, 2.5, 7.0];

/// `dfs` with node `i`'s delay replaced by `delays[i % len]` — rebuilt
/// through the DSL, so twins built from one model differ in nothing else.
fn with_delays(dfs: &Dfs, delays: &[usize]) -> Dfs {
    let text = dsl::to_text(dfs);
    let mut node = 0;
    let lines: Vec<String> = text
        .lines()
        .map(|line| {
            if line.starts_with("edge ") {
                return line.to_string();
            }
            let kept: Vec<&str> = line
                .split_whitespace()
                .filter(|word| !word.starts_with("delay="))
                .collect();
            let d = DELAYS[delays[node % delays.len()] % DELAYS.len()];
            node += 1;
            format!("{} delay={d}", kept.join(" "))
        })
        .collect();
    dsl::parse(&lines.join("\n")).expect("a re-timed model parses")
}

/// A random shape from the three families the sweep builds: static
/// pipelines, reconfigurable pipelines at every depth, wagged pipelines.
fn arb_shape() -> impl Strategy<Value = Dfs> {
    (0usize..3, 2usize..5, 1usize..5, 1usize..3).prop_map(|(family, n, depth, ways)| match family {
        0 => build_pipeline(&PipelineSpec::fully_static(n)).unwrap().dfs,
        1 => {
            let spec = PipelineSpec::reconfigurable_depth(n, depth.min(n)).unwrap();
            build_pipeline(&spec).unwrap().dfs
        }
        _ => wagged_pipeline(ways, depth.min(2), 1.0).unwrap().dfs,
    })
}

fn arb_delays() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..DELAYS.len(), 1..12)
}

fn budget(max_states: usize) -> EngineConfig {
    EngineConfig {
        max_states,
        ..EngineConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn petri_translation_is_delay_invariant(
        shape in arb_shape(),
        da in arb_delays(),
        db in arb_delays(),
    ) {
        let (a, b) = (with_delays(&shape, &da), with_delays(&shape, &db));
        let (ia, ib) = (to_petri(&a), to_petri(&b));
        let (na, nb) = (&ia.net, &ib.net);
        prop_assert_eq!(na.place_count(), nb.place_count());
        for p in na.places() {
            prop_assert_eq!(&na.place(p).name, &nb.place(p).name);
        }
        prop_assert_eq!(na.initial_marking(), nb.initial_marking());
        prop_assert_eq!(na.transition_count(), nb.transition_count());
        for t in na.transitions() {
            let (ta, tb) = (na.transition(t), nb.transition(t));
            prop_assert_eq!(&ta.name, &tb.name);
            prop_assert_eq!(ta.consumes(), tb.consumes());
            prop_assert_eq!(ta.produces(), tb.produces());
            prop_assert_eq!(ta.reads(), tb.reads());
        }
        prop_assert_eq!(&ia.labels, &ib.labels);
        // pair order follows HashMap iteration; the set is what is defined
        let sorted = |mut v: Vec<_>| {
            v.sort();
            v
        };
        prop_assert_eq!(
            sorted(ia.complementary_pairs()),
            sorted(ib.complementary_pairs())
        );
    }

    #[test]
    fn lts_exploration_is_delay_invariant(
        shape in arb_shape(),
        da in arb_delays(),
        db in arb_delays(),
    ) {
        let (a, b) = (with_delays(&shape, &da), with_delays(&shape, &db));
        let (la, lb) = (
            Lts::explore(&a, &budget(20_000), None),
            Lts::explore(&b, &budget(20_000), None),
        );
        prop_assert_eq!(la.len(), lb.len());
        prop_assert_eq!(la.outcome(), lb.outcome());
        for s in la.states() {
            prop_assert_eq!(la.state(s), lb.state(s));
            prop_assert_eq!(la.successors(s), lb.successors(s));
        }
        prop_assert_eq!(la.deadlocks(), lb.deadlocks());
    }
}

/// The rebuild really changes the delays (and nothing the translation
/// reads), so the properties above are not vacuous.
#[test]
fn retimed_twins_differ_in_delays() {
    let dfs = build_pipeline(&PipelineSpec::reconfigurable_depth(3, 2).unwrap())
        .unwrap()
        .dfs;
    let (a, b) = (with_delays(&dfs, &[0]), with_delays(&dfs, &[4]));
    assert_eq!(a.node_count(), dfs.node_count());
    assert!(a.nodes().all(|n| a.node(n).delay == 0.25));
    assert!(b.nodes().all(|n| b.node(n).delay == 7.0));
    assert!(a
        .nodes()
        .all(|n| a.node(n).name == b.node(n).name && a.preds(n) == b.preds(n)));
    assert_ne!(a.structural_hash(), b.structural_hash());
}
