//! Engine ↔ naive-oracle equivalence at every thread count, property-tested.
//!
//! The state-space engine (`rap_petri::engine::explore`) claims to be
//! *observationally identical* at every thread count to a sequential BFS:
//! same state numbering, same edges, same truncation point, same witness
//! traces — not just equal counts. This suite pins that claim against the
//! naive reference explorers (`reachability::explore_naive`,
//! `Lts::explore_naive`) on random inputs from both ends of the tool (raw
//! random Petri nets and the paper's pipeline generators), at
//! threads ∈ {1, 2, 8} plus whatever `RAP_TEST_THREADS` asks for, including
//! under tiny truncation budgets, budgets that cut a level in its first or
//! a later wave, and with forced delta-compression (`anchor_interval` = 3). `engine_equivalence.rs` covers the default
//! configuration; this suite sweeps the engine's own knobs.
//!
//! Every engine run here executes **with a live [`rap::obs::Collector`]
//! attached** — the suite therefore simultaneously pins the tracing
//! determinism contract: recording is observation-only and can never
//! perturb state numbering, edge order, witness traces or truncation, at
//! any thread count.

use proptest::prelude::*;
use rap::dfs::pipelines::{build_pipeline, PipelineSpec};
use rap::dfs::wagging::wagged_pipeline;
use rap::dfs::{to_petri, Dfs, Lts};
use rap::obs::{Collector, Obs};
use rap::petri::engine::EngineConfig;
use rap::petri::reachability::{explore, explore_naive, StateSpace};
use rap::petri::{PetriNet, PlaceId};
use std::sync::Arc;

/// Thread counts under test: the fixed {1, 2, 8} ladder plus the
/// `RAP_TEST_THREADS` environment override (the CI matrix sets 2).
fn thread_counts() -> Vec<usize> {
    let mut ts = vec![1usize, 2, 8];
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

/// Exact observational identity of two state spaces: numbering, markings,
/// edges, traces, truncation.
fn assert_spaces_identical(a: &StateSpace, b: &StateSpace, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "{}: state count", ctx);
    prop_assert_eq!(a.outcome(), b.outcome(), "{}: outcome", ctx);
    for (sa, sb) in a.states().zip(b.states()) {
        prop_assert_eq!(&a.marking(sa), &b.marking(sb), "{}: marking", ctx);
        prop_assert_eq!(a.successors(sa), b.successors(sb), "{}: edges", ctx);
        prop_assert_eq!(a.trace_to(sa), b.trace_to(sb), "{}: trace", ctx);
    }
    Ok(())
}

/// The engine configurations under test for one budget: every thread
/// count × anchor interval {auto, 3}, each recording into a fresh live
/// collector (returned alongside for the liveness check).
fn traced_configs(max_states: usize) -> Vec<(String, EngineConfig, Arc<Collector>)> {
    let mut out = Vec::new();
    for threads in thread_counts() {
        // anchor_interval 3 forces delta-compressed storage into the
        // comparison as well
        for anchor_interval in [0usize, 3] {
            let collector = Arc::new(Collector::new());
            let cfg = EngineConfig {
                max_states,
                threads,
                anchor_interval,
                obs: Obs::collecting(&collector),
                ..EngineConfig::default()
            };
            out.push((
                format!("threads={threads} anchors={anchor_interval}"),
                cfg,
                collector,
            ));
        }
    }
    out
}

/// The traced engine in every configuration ≡ the naive oracle, for one
/// net and budget: equivalence holding here is also the proof that
/// recording is observation-only.
fn assert_parallel_equivalent(net: &PetriNet, max_states: usize) -> Result<(), TestCaseError> {
    let naive = explore_naive(net, max_states);
    for (ctx, cfg, collector) in traced_configs(max_states) {
        let par = explore(net, &cfg, None);
        assert_spaces_identical(&par, &naive, &ctx)?;
        // the collector really was live: the engine flushed its counters
        prop_assert_eq!(
            collector.snapshot().counters.get("engine.states"),
            par.len() as u64,
            "{}: collector missed the run",
            &ctx
        );
    }
    Ok(())
}

fn assert_lts_parallel_equivalent(dfs: &Dfs, max_states: usize) -> Result<(), TestCaseError> {
    let naive = Lts::explore_naive(dfs, max_states);
    for (ctx, cfg, collector) in traced_configs(max_states) {
        let par = Lts::explore(dfs, &cfg, None);
        prop_assert_eq!(par.len(), naive.len(), "{}: state count", &ctx);
        prop_assert_eq!(par.outcome(), naive.outcome(), "{}: outcome", &ctx);
        for (sa, sb) in par.states().zip(naive.states()) {
            prop_assert_eq!(par.state(sa), naive.state(sb), "{}: state", &ctx);
            prop_assert_eq!(par.successors(sa), naive.successors(sb), "{}: edges", &ctx);
            prop_assert_eq!(par.trace_to(sa), naive.trace_to(sb), "{}: trace", &ctx);
        }
        prop_assert_eq!(
            collector.snapshot().counters.get("engine.states"),
            par.len() as u64,
            "{}: collector missed the run",
            &ctx
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random raw nets: the level-synchronous commit makes the engine's
    /// ids, edges and traces identical to the naive explorer's.
    #[test]
    fn random_nets_parallel_equals_naive(net in arb_net(10, 8)) {
        assert_parallel_equivalent(&net, 3_000)?;
    }

    /// Random nets under tiny budgets: truncation must bite at exactly the
    /// same state in every parallel configuration (the commit pass stops at
    /// the same canonical point regardless of worker schedule).
    #[test]
    fn random_nets_truncate_identically(net in arb_net(9, 8)) {
        for cap in [1usize, 2, 7, 40] {
            assert_parallel_equivalent(&net, cap)?;
        }
    }

    /// Random paper pipelines, both backends, with forced delta anchors.
    #[test]
    fn random_pipelines_parallel_equals_naive(dfs in arb_pipeline()) {
        let img = to_petri(&dfs);
        assert_parallel_equivalent(&img.net, 3_000)?;
        assert_lts_parallel_equivalent(&dfs, 3_000)?;
    }
}

/// `(engine.levels, engine.waves)` of one Petri and one LTS exploration of
/// `dfs` under `max_states`.
fn levels_and_waves(dfs: &Dfs, max_states: usize) -> [(u64, u64); 2] {
    let collectors = [Arc::new(Collector::new()), Arc::new(Collector::new())];
    let cfg = |c| EngineConfig {
        max_states,
        obs: Obs::collecting(c),
        ..EngineConfig::default()
    };
    let _ = explore(&to_petri(dfs).net, &cfg(&collectors[0]), None);
    let _ = Lts::explore(dfs, &cfg(&collectors[1]), None);
    collectors.map(|c| {
        let c = c.snapshot().counters;
        (c.get("engine.levels"), c.get("engine.waves"))
    })
}

/// The deterministic wagged shapes (guard/choice structure beyond what the
/// random pipelines reach), including truncation budgets.
///
/// The budget-cut level is expanded and committed in waves; two more
/// budgets per shape cut a level mid-way, one in the level's first wave and
/// one in a later wave, on both frontends.
#[test]
fn wagged_shapes_parallel_equals_naive() {
    let reconfigurable = build_pipeline(&PipelineSpec::reconfigurable_depth(3, 2).unwrap())
        .unwrap()
        .dfs;
    let wagged = wagged_pipeline(2, 1, 1.0).unwrap().dfs;
    for (dfs, first_wave_cut, later_wave_cut) in
        [(&reconfigurable, 1_000, 1_250), (&wagged, 1_000, 882)]
    {
        for (cap, later) in [(first_wave_cut, false), (later_wave_cut, true)] {
            // a change of the wave sizing can move a cut to another wave:
            // pick new budgets then, so that both cases stay covered
            for (levels, waves) in levels_and_waves(dfs, cap) {
                assert_eq!(
                    waves > levels,
                    later,
                    "cap {cap}: {levels} levels, {waves} waves"
                );
            }
            assert_parallel_equivalent(&to_petri(dfs).net, cap).unwrap();
            assert_lts_parallel_equivalent(dfs, cap).unwrap();
        }
    }

    for ways in [1usize, 2] {
        let w = wagged_pipeline(ways, 1, 1.0).unwrap();
        let img = to_petri(&w.dfs);
        for cap in [30_000usize, 500] {
            let naive = explore_naive(&img.net, cap);
            for threads in thread_counts() {
                let cfg = EngineConfig {
                    max_states: cap,
                    threads,
                    ..EngineConfig::default()
                };
                let par = explore(&img.net, &cfg, None);
                assert_eq!(par.len(), naive.len(), "ways={ways} threads={threads}");
                assert_eq!(par.outcome(), naive.outcome());
                for (sa, sb) in par.states().zip(naive.states()) {
                    assert_eq!(par.successors(sa), naive.successors(sb));
                }
            }
        }
    }
}

/// Witness traces from the parallel engine replay through the net's own
/// firing rule — step-enabled, landing exactly on the recorded marking.
#[test]
fn parallel_witness_traces_replay() {
    let w = wagged_pipeline(2, 1, 1.0).unwrap();
    let img = to_petri(&w.dfs);
    let cfg = EngineConfig {
        max_states: 2_000,
        threads: 8,
        ..EngineConfig::default()
    };
    let space = explore(&img.net, &cfg, None);
    assert!(space.is_truncated());
    for s in space.states() {
        let mut m = img.net.initial_marking();
        for t in space.trace_to(s) {
            assert!(img.net.is_enabled(t, &m), "trace step not enabled");
            m = img.net.fire(t, &m).unwrap();
        }
        assert_eq!(m, space.marking(s));
    }
}
