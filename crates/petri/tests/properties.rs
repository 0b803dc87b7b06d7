//! Property-based tests for the firing rule and reachability explorer.

use proptest::prelude::*;
use rap_petri::analysis::{check_complementary_pairs, quick_check, QuickVerdict};
use rap_petri::engine::{EngineConfig, ExploreOutcome};
use rap_petri::invariants::certify_complementary_pairs;
use rap_petri::reachability::{explore, StateSpace};
use rap_petri::{Marking, PetriNet, PlaceId};

/// Strategy: a random net over `np` places and `nt` transitions with small
/// arc lists. Initial marking is random.
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

/// Strategy: [`arb_net`] extended with `k` complementary place pairs
/// `x{i}_0`/`x{i}_1`, exactly one of each initially marked, and toggle
/// transitions that move a pair's token while reading random places of the
/// base net. A toggle of kind 0 only produces and one of kind 1 only
/// consumes: either leaves its pair uncertified, and usually violable.
fn arb_paired_net(
    np: usize,
    nt: usize,
    k: usize,
) -> impl Strategy<Value = (PetriNet, Vec<(PlaceId, PlaceId)>)> {
    let ones = proptest::collection::vec(any::<bool>(), k);
    let toggles = proptest::collection::vec(
        (
            0..k,
            any::<bool>(),
            proptest::collection::vec(0..np, 0..2),
            0u8..8,
        ),
        1..2 * k + 1,
    );
    (arb_net(np, nt), ones, toggles).prop_map(move |(mut net, ones, toggles)| {
        let pairs: Vec<(PlaceId, PlaceId)> = ones
            .iter()
            .enumerate()
            .map(|(i, &one)| {
                (
                    net.add_place(format!("x{i}_0"), !one),
                    net.add_place(format!("x{i}_1"), one),
                )
            })
            .collect();
        for (j, (i, up, reads, kind)) in toggles.into_iter().enumerate() {
            let (from, to) = if up {
                pairs[i]
            } else {
                (pairs[i].1, pairs[i].0)
            };
            let t = net.add_transition(format!("x{i}_toggle{j}"));
            if kind != 0 {
                net.consume(t, from);
            }
            if kind != 1 {
                net.produce(t, to);
            }
            for r in reads {
                net.read(t, PlaceId::from_index(r));
            }
        }
        (net, pairs)
    })
}

fn token_count(m: &Marking) -> usize {
    m.count()
}

fn explore_budget(net: &PetriNet, max_states: usize) -> StateSpace {
    let cfg = EngineConfig {
        max_states,
        ..EngineConfig::default()
    };
    explore(net, &cfg, None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Firing an enabled transition always yields a 1-safe marking, and read
    /// arcs never change the marking of the read place.
    #[test]
    fn firing_preserves_safety(net in arb_net(12, 10)) {
        let m0 = net.initial_marking();
        for t in net.transitions() {
            if net.is_enabled(t, &m0) {
                let m1 = net.fire(t, &m0).unwrap();
                prop_assert!(m1.len() == m0.len());
                for &p in net.transition(t).reads() {
                    // read arcs are non-destructive unless also consumed
                    if net.transition(t).consumes().binary_search(&p).is_err() {
                        prop_assert!(m1.is_marked(p));
                    }
                }
            } else {
                prop_assert!(net.fire(t, &m0).is_err());
            }
        }
    }

    /// Every state in the explored space is reachable by replaying its trace.
    #[test]
    fn traces_replay(net in arb_net(10, 8)) {
        let space = explore_budget(&net, 5_000);
        for s in space.states() {
            let mut m = net.initial_marking();
            for t in space.trace_to(s) {
                m = net.fire(t, &m).unwrap();
            }
            prop_assert_eq!(&m, &space.marking(s));
        }
    }

    /// In a conservative net (every transition consumes exactly as many
    /// tokens as it produces and never reads), the token count is invariant
    /// over the whole reachable space.
    #[test]
    fn token_conservation_in_conservative_nets(
        marks in proptest::collection::vec(any::<bool>(), 8),
        pairs in proptest::collection::vec((0usize..8, 0usize..8), 1..8,)
    ) {
        let mut net = PetriNet::new();
        let places: Vec<PlaceId> = marks
            .iter()
            .enumerate()
            .map(|(i, &m)| net.add_place(format!("p{i}"), m))
            .collect();
        for (i, (from, to)) in pairs.into_iter().enumerate() {
            if from == to {
                continue;
            }
            let t = net.add_transition(format!("t{i}"));
            net.consume(t, places[from]);
            net.produce(t, places[to]);
        }
        let space = explore_budget(&net, 5_000);
        prop_assume!(!space.is_truncated());
        let n0 = token_count(&space.marking(space.initial()));
        for s in space.states() {
            prop_assert_eq!(token_count(&space.marking(s)), n0);
        }
    }

    /// The structural pair certificate is a sound shortcut for the safety
    /// scan: a certified pair set has no violation anywhere in the
    /// exhaustively explored space, and `quick_check` — which skips the
    /// scan on a certificate — reports what the scan reports, exhaustive
    /// or truncated.
    #[test]
    fn pair_certificate_is_a_sound_shortcut((net, pairs) in arb_paired_net(6, 5, 3)) {
        // 12 places: at most 4096 markings, so this budget is exhaustive
        let full = explore_budget(&net, 5_000);
        prop_assert!(!full.is_truncated());
        if certify_complementary_pairs(&net, &pairs).is_none() {
            prop_assert!(check_complementary_pairs(&full, &pairs).is_none());
        }
        for max_states in [5_000, 7] {
            let cfg = EngineConfig {
                max_states,
                ..EngineConfig::default()
            };
            let qc = quick_check(&net, &pairs, &cfg);
            let space = explore(&net, &cfg, None);
            let witness = check_complementary_pairs(&space, &pairs);
            let safe = match (witness, space.outcome()) {
                (Some(_), _) => QuickVerdict::Violated,
                (None, ExploreOutcome::Complete) => QuickVerdict::Holds,
                (None, ExploreOutcome::Truncated { limit }) => {
                    QuickVerdict::Inconclusive { budget: limit }
                }
            };
            prop_assert_eq!(qc.unsafe_witness, witness);
            prop_assert_eq!(qc.safe, safe);
        }
    }

    /// Exploration is deterministic: two runs discover identical spaces.
    #[test]
    fn exploration_is_deterministic(net in arb_net(9, 9)) {
        let a = explore_budget(&net, 2_000);
        let b = explore_budget(&net, 2_000);
        prop_assert_eq!(a.len(), b.len());
        for (sa, sb) in a.states().zip(b.states()) {
            prop_assert_eq!(a.marking(sa), b.marking(sb));
            prop_assert_eq!(a.successors(sa), b.successors(sb));
        }
    }

    /// The explorer preserves 1-safety on every reachable marking: a marking
    /// never carries more tokens than places, and no enabled transition may
    /// produce a second token into a place it does not also consume from
    /// (the complementary-place firing discipline).
    #[test]
    fn explorer_preserves_one_safety(net in arb_net(10, 9)) {
        let space = explore_budget(&net, 4_000);
        for s in space.states() {
            let m = space.marking(s);
            prop_assert_eq!(m.len(), net.place_count());
            prop_assert!(m.count() <= net.place_count());
            for t in net.transitions() {
                if net.is_enabled(t, &m) {
                    let tr = net.transition(t);
                    for &p in tr.produces() {
                        prop_assert!(
                            !m.is_marked(p) || tr.consumes().contains(&p),
                            "enabled transition would double-mark a place"
                        );
                    }
                    // firing an enabled transition keeps the image 1-safe
                    prop_assert!(net.fire(t, &m).unwrap().count() <= net.place_count());
                } else {
                    prop_assert!(net.fire(t, &m).is_err());
                }
            }
        }
    }

    /// Counterexample traces reconstructed by the explorer replay from the
    /// initial marking to exactly the offending state: every deadlock's
    /// trace reaches its dead marking, in which nothing is enabled.
    #[test]
    fn counterexample_traces_replay_to_offending_state(net in arb_net(9, 8)) {
        let space = explore_budget(&net, 4_000);
        for dead in rap_petri::analysis::find_deadlocks(&net, &space) {
            let mut m = net.initial_marking();
            for t in &dead.trace {
                prop_assert!(net.is_enabled(*t, &m), "trace step must be enabled");
                m = net.fire(*t, &m).unwrap();
            }
            prop_assert_eq!(&m, &dead.marking);
            prop_assert_eq!(&m, &space.marking(dead.state));
            prop_assert!(
                net.enabled_transitions(&m).is_empty(),
                "replayed trace must land in the dead state"
            );
        }
    }
}
