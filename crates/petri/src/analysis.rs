//! Standard verification analyses: deadlock and persistence.
//!
//! These are the "standard properties" the paper verifies through MPSAT
//! (§II-D): deadlock freedom, and persistence (absence of hazards — an
//! enabled event must not be disabled by another event firing). Custom
//! functional properties are expressed in the Reach-style language of the
//! `rap-reach` crate and evaluated over the same state space.

use crate::engine::{EngineConfig, ExploreOutcome, Incidence};
use crate::invariants::certify_complementary_pairs;
use crate::reachability::{explore, StateId, StateSpace};
use crate::symmetry::Symmetry;
use crate::{Marking, PetriNet, PlaceId, TransitionId};

/// A reachable deadlock: a state with no enabled transitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deadlock {
    /// The dead state.
    pub state: StateId,
    /// The dead marking itself.
    pub marking: Marking,
    /// Firing sequence from the initial marking to the dead state.
    pub trace: Vec<TransitionId>,
}

/// Searches the state space of `net` for deadlocks.
///
/// Returns all dead states (often one suffices for debugging, but incorrect
/// control initialisation in DFS models typically produces families of dead
/// states; reporting them all mirrors the tool's behaviour). On a truncated
/// space only the dead states of the explored prefix are found; its
/// unexpanded frontier states are not reported.
#[must_use]
pub fn find_deadlocks(net: &PetriNet, space: &StateSpace) -> Vec<Deadlock> {
    dead_states(net, space)
        .map(|s| Deadlock {
            state: s,
            marking: space.marking(s),
            trace: space.trace_to(s),
        })
        .collect()
}

/// A persistence violation: in `state`, both `enabled` and `disabler` were
/// enabled, but firing `disabler` disabled `enabled` without it having fired.
#[derive(Debug, Clone)]
pub struct PersistenceViolation {
    /// State in which the conflict occurs.
    pub state: StateId,
    /// The transition that loses its enabledness.
    pub enabled: TransitionId,
    /// The transition whose firing disables `enabled`.
    pub disabler: TransitionId,
    /// Trace from the initial marking to `state`.
    pub trace: Vec<TransitionId>,
}

/// Checks persistence over the reachable state space.
///
/// A net is *persistent* when no enabled transition can be disabled by the
/// firing of a different transition. Non-persistence in the PN image of a
/// DFS model indicates a hazard (§III-A: "several cases of deadlock and
/// non-persistent behaviour ... were identified").
///
/// `allowed_conflicts` lets the caller exempt transition pairs that are
/// *intended* choices (e.g. the non-deterministic `Mt+`/`Mf+` evaluation of a
/// control register fed by a data predicate); the predicate receives both
/// transition ids and should return `true` when the pair is an intended
/// choice rather than a hazard.
#[must_use]
pub fn find_persistence_violations(
    net: &PetriNet,
    space: &StateSpace,
    mut allowed_conflicts: impl FnMut(TransitionId, TransitionId) -> bool,
) -> Vec<PersistenceViolation> {
    // word-level enabledness via the incidence index: the check runs over
    // every ordered pair of concurrently enabled transitions, so avoiding a
    // Marking materialisation per probe matters on large spaces
    let inc = crate::engine::Incidence::from_net(net);
    let mut after_words = vec![0u64; space.word_count()];
    let mut out = Vec::new();
    for s in space.states() {
        let succs = space.successors(s);
        if succs.len() < 2 {
            continue;
        }
        for &(disabler, after) in succs {
            space.fill_marking_words(after, &mut after_words);
            for &(enabled, _) in succs {
                if enabled == disabler {
                    continue;
                }
                if inc.is_enabled(enabled, &after_words) {
                    continue;
                }
                if allowed_conflicts(enabled, disabler) {
                    continue;
                }
                out.push(PersistenceViolation {
                    state: s,
                    enabled,
                    disabler,
                    trace: space.trace_to(s),
                });
            }
        }
    }
    out
}

/// The dead states of `space`, in id order: states with no recorded
/// successor in which no transition of `net` is enabled. The second half
/// matters on a truncated space, whose unexpanded frontier states have no
/// recorded successors but are not dead. For a quotient space the
/// representative's marking is checked — deadness is orbit-invariant, so
/// this equals checking any concrete member.
fn dead_states<'a>(net: &PetriNet, space: &'a StateSpace) -> impl Iterator<Item = StateId> + 'a {
    let inc = Incidence::from_net(net);
    let mut words = vec![0u64; space.word_count()];
    space.states().filter(move |&s| {
        if !space.successors(s).is_empty() {
            return false;
        }
        space.fill_marking_words(s, &mut words);
        !(0..inc.transition_count()).any(|t| inc.is_enabled(TransitionId::from_index(t), &words))
    })
}

/// Outcome of one property of a budget-bounded [`quick_check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuickVerdict {
    /// The property holds over the *entire* reachable space (the budget was
    /// not hit, so the exploration was exhaustive).
    Holds,
    /// A genuine violation was found (violations found within a truncated
    /// prefix are still real).
    Violated,
    /// No violation found, but the state budget truncated the exploration —
    /// the property holds on the explored prefix only. Carries the budget
    /// that was hit so callers can report (or retry past) the exact bound.
    Inconclusive {
        /// The `max_states` budget that stopped exploration.
        budget: usize,
    },
}

impl QuickVerdict {
    /// Did the check find a violation?
    #[must_use]
    pub fn is_violated(self) -> bool {
        self == QuickVerdict::Violated
    }
}

/// Result of a budget-bounded deadlock + 1-safety check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuickCheck {
    /// States explored.
    pub states: usize,
    /// Whether the budget truncated the exploration.
    pub truncated: bool,
    /// Deadlock-freedom verdict; [`QuickCheck::deadlock`] carries the
    /// counterexample on violation.
    pub deadlock_free: QuickVerdict,
    /// The first deadlock found, if any.
    pub deadlock: Option<Deadlock>,
    /// Complementary-pair (1-safety) verdict over the supplied pairs;
    /// [`QuickVerdict::Holds`] trivially when `pairs` is empty and the
    /// space was exhausted.
    pub safe: QuickVerdict,
    /// On a safety violation: the offending state and pair index.
    pub unsafe_witness: Option<(StateId, usize)>,
}

impl QuickCheck {
    /// Both properties verified over the whole space.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.deadlock_free == QuickVerdict::Holds && self.safe == QuickVerdict::Holds
    }

    /// Neither property violated (possibly only on a truncated prefix).
    #[must_use]
    pub fn no_violation(&self) -> bool {
        !self.deadlock_free.is_violated() && !self.safe.is_violated()
    }
}

/// Budget-bounded deadlock and 1-safety check — the cheap screen a design
/// sweep runs on every candidate before trusting its performance numbers.
///
/// Explores at most `cfg.max_states` markings (see [`EngineConfig`] for the
/// thread count, wall-clock deadline and recorder) and checks the explored
/// prefix for deadlocks and for violations of the complementary-pair
/// 1-safety invariant (see [`check_complementary_pairs`]; DFS translations
/// obtain the pairs from `PetriImage::complementary_pairs`).
///
/// The safety scan is skipped when the structural certificate
/// ([`certify_complementary_pairs`]) proves every pair a P-invariant with
/// token sum 1: no reachable marking can then violate a pair, so the scan
/// could find nothing. The verdict is unchanged by the shortcut — it is
/// still [`QuickVerdict::Inconclusive`] on a truncated run, because the
/// verdict reports what the exploration established.
///
/// Truncation is handled soundly in both directions: a violation found in
/// the prefix is a real violation of the net, and a prefix state without
/// recorded successors is re-checked against the net for enabled
/// transitions before being called a deadlock — an unexpanded frontier
/// state of a truncated exploration is *not* a counterexample. When the
/// budget or the deadline cut the run and nothing was found, the verdicts
/// say [`QuickVerdict::Inconclusive`], carrying the state budget in force,
/// instead of over-claiming. A deadline cut stops at a level-commit
/// barrier, so the checked prefix is deterministic and a runaway check
/// never runs past its time box to the state cap.
#[must_use]
pub fn quick_check(net: &PetriNet, pairs: &[(PlaceId, PlaceId)], cfg: &EngineConfig) -> QuickCheck {
    verdicts_over(net, &explore(net, cfg, None), pairs)
}

/// Symmetry-reduced [`quick_check`]: explores the rotation *quotient* under
/// `sym` (up to `sym.order()`× fewer states for the same verdicts) and
/// checks the same two properties on the representatives.
///
/// Soundness: deadlock-freedom is orbit-invariant (a representative is dead
/// iff every member of its orbit is), and the engine's quotient discovers
/// exactly the canonical image of the reachable set, so the deadlock
/// verdict transfers unchanged. The 1-safety verdict over `pairs` transfers
/// **iff the pair set is closed under the symmetry** — this function
/// panics otherwise rather than return an unsound verdict (DFS wagging
/// replicates every variable's complementary pair into each way, so the
/// pair sets it produces are closed by construction).
///
/// Counterexamples are made concrete before being reported: the attached
/// deadlock trace replays on the original net from its real initial
/// marking ([`StateSpace::concrete_trace_to`]).
///
/// # Panics
///
/// When `pairs` is not closed under `sym` (see above).
#[must_use]
pub fn quick_check_quotient(
    net: &PetriNet,
    pairs: &[(PlaceId, PlaceId)],
    max_states: usize,
    sym: &Symmetry,
) -> QuickCheck {
    assert!(
        sym.pairs_closed(pairs),
        "complementary-pair set is not closed under the symmetry; the quotient verdict would be unsound"
    );
    let space = explore(
        net,
        &EngineConfig {
            max_states,
            ..EngineConfig::default()
        },
        Some(sym.state_symmetry()),
    );
    verdicts_over(net, &space, pairs)
}

/// Shared verdict pass of [`quick_check`] / [`quick_check_quotient`].
fn verdicts_over(net: &PetriNet, space: &StateSpace, pairs: &[(PlaceId, PlaceId)]) -> QuickCheck {
    // no violation found: holds, or only on the prefix when truncated
    let unviolated = match space.outcome() {
        ExploreOutcome::Complete => QuickVerdict::Holds,
        ExploreOutcome::Truncated { limit } => QuickVerdict::Inconclusive { budget: limit },
    };

    let deadlock = dead_states(net, space).next().map(|s| Deadlock {
        state: s,
        marking: space.concrete_marking(s),
        trace: space.concrete_trace_to(s),
    });
    let deadlock_free = if deadlock.is_some() {
        QuickVerdict::Violated
    } else {
        unviolated
    };

    // when every pair is a P-invariant with token sum 1, no reachable
    // marking violates one, so the per-state scan cannot find a witness
    let unsafe_witness = match certify_complementary_pairs(net, pairs) {
        None => None,
        Some(_) => check_complementary_pairs(space, pairs),
    };
    let safe = if unsafe_witness.is_some() {
        QuickVerdict::Violated
    } else {
        unviolated
    };

    QuickCheck {
        states: space.len(),
        truncated: space.is_truncated(),
        deadlock_free,
        deadlock,
        safe,
        unsafe_witness,
    }
}

/// Verifies that every reachable marking keeps the net 1-safe with respect to
/// a set of *complementary place pairs*: for each pair exactly one of the two
/// places is marked.
///
/// The DFS translation introduces `x_0`/`x_1` place pairs per state variable;
/// this check is the structural invariant that validates the translation.
#[must_use]
pub fn check_complementary_pairs(
    space: &StateSpace,
    pairs: &[(crate::PlaceId, crate::PlaceId)],
) -> Option<(StateId, usize)> {
    let mut words = vec![0u64; space.word_count()];
    for s in space.states() {
        space.fill_marking_words(s, &mut words);
        for (i, &(p0, p1)) in pairs.iter().enumerate() {
            if crate::engine::get_bit(&words, p0.index())
                == crate::engine::get_bit(&words, p1.index())
            {
                return Some((s, i));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PetriNet;

    fn explore_default(net: &PetriNet) -> StateSpace {
        let space = explore(net, &EngineConfig::default(), None);
        assert!(!space.is_truncated());
        space
    }

    fn budget(max_states: usize) -> EngineConfig {
        EngineConfig {
            max_states,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn detects_deadlock_with_trace() {
        let (net, _, c) = dead_end_net();
        let space = explore_default(&net);
        let dls = find_deadlocks(&net, &space);
        assert_eq!(dls.len(), 1);
        let t = |i| TransitionId::from_index(i);
        assert_eq!(dls[0].trace, vec![t(0), t(1)]);
        assert!(dls[0].marking.is_marked(c));

        // truncated to 2 of its 3 states: state b has no recorded
        // successors, but t2 is enabled there — a frontier, not a deadlock
        let space = explore(&net, &budget(2), None);
        assert!(space.is_truncated());
        assert!(space.successors(StateId::from_index(1)).is_empty());
        assert!(find_deadlocks(&net, &space).is_empty());
    }

    #[test]
    fn live_ring_has_no_deadlock() {
        let mut net = PetriNet::new();
        let a = net.add_place("a", true);
        let b = net.add_place("b", false);
        let t1 = net.add_transition("t1");
        net.consume(t1, a);
        net.produce(t1, b);
        let t2 = net.add_transition("t2");
        net.consume(t2, b);
        net.produce(t2, a);
        let space = explore_default(&net);
        assert!(find_deadlocks(&net, &space).is_empty());
    }

    #[test]
    fn detects_choice_as_persistence_violation() {
        // one token, two competing consumers => classic conflict
        let mut net = PetriNet::new();
        let a = net.add_place("a", true);
        let b = net.add_place("b", false);
        let c = net.add_place("c", false);
        let t1 = net.add_transition("t1");
        net.consume(t1, a);
        net.produce(t1, b);
        let t2 = net.add_transition("t2");
        net.consume(t2, a);
        net.produce(t2, c);
        let space = explore_default(&net);
        let v = find_persistence_violations(&net, &space, |_, _| false);
        // both orderings are reported
        assert_eq!(v.len(), 2);
        let allowed = find_persistence_violations(&net, &space, |_, _| true);
        assert!(allowed.is_empty());
    }

    #[test]
    fn concurrent_transitions_are_persistent() {
        let mut net = PetriNet::new();
        let a = net.add_place("a", true);
        let b = net.add_place("b", true);
        let a1 = net.add_place("a1", false);
        let b1 = net.add_place("b1", false);
        let t1 = net.add_transition("t1");
        net.consume(t1, a);
        net.produce(t1, a1);
        let t2 = net.add_transition("t2");
        net.consume(t2, b);
        net.produce(t2, b1);
        let space = explore_default(&net);
        assert!(find_persistence_violations(&net, &space, |_, _| false).is_empty());
    }

    #[test]
    fn complementary_pair_check() {
        let mut net = PetriNet::new();
        let x0 = net.add_place("x_0", true);
        let x1 = net.add_place("x_1", false);
        let t = net.add_transition("x+");
        net.consume(t, x0);
        net.produce(t, x1);
        let space = explore_default(&net);
        assert!(check_complementary_pairs(&space, &[(x0, x1)]).is_none());

        // a broken net where the pair can both become marked
        let mut bad = PetriNet::new();
        let y0 = bad.add_place("y_0", true);
        let y1 = bad.add_place("y_1", false);
        let t = bad.add_transition("oops");
        bad.read(t, y0);
        bad.produce(t, y1);
        let space = explore_default(&bad);
        let hit = check_complementary_pairs(&space, &[(y0, y1)]);
        assert!(hit.is_some());
        // the certificate rejects the pair, so quick_check scans and finds
        // the same witness
        assert_eq!(certify_complementary_pairs(&bad, &[(y0, y1)]), Some(0));
        let qc = quick_check(&bad, &[(y0, y1)], &budget(1_000));
        assert_eq!(qc.safe, QuickVerdict::Violated);
        assert_eq!(qc.unsafe_witness, hit);
    }

    /// a → b → c: a genuine dead end the quick check must find and trace.
    fn dead_end_net() -> (PetriNet, PlaceId, PlaceId) {
        let mut net = PetriNet::new();
        let a = net.add_place("a", true);
        let b = net.add_place("b", false);
        let c = net.add_place("c", false);
        let t1 = net.add_transition("t1");
        net.consume(t1, a);
        net.produce(t1, b);
        let t2 = net.add_transition("t2");
        net.consume(t2, b);
        net.produce(t2, c);
        (net, a, c)
    }

    fn live_ring_net(n: usize) -> PetriNet {
        let mut net = PetriNet::new();
        let places: Vec<PlaceId> = (0..n)
            .map(|i| net.add_place(format!("p{i}"), i == 0))
            .collect();
        for i in 0..n {
            let t = net.add_transition(format!("t{i}"));
            net.consume(t, places[i]);
            net.produce(t, places[(i + 1) % n]);
        }
        net
    }

    #[test]
    fn quick_check_finds_real_deadlocks_and_certifies_live_nets() {
        let (net, _, c) = dead_end_net();
        let qc = quick_check(&net, &[], &budget(1_000));
        assert_eq!(qc.deadlock_free, QuickVerdict::Violated);
        assert!(!qc.no_violation());
        let dl = qc.deadlock.expect("counterexample attached");
        assert_eq!(dl.trace.len(), 2);
        assert!(dl.marking.is_marked(c));

        let qc = quick_check(&live_ring_net(5), &[], &budget(1_000));
        assert!(qc.is_clean(), "{qc:?}");
        assert_eq!(qc.states, 5);
        assert!(!qc.truncated);
    }

    /// Truncation must downgrade "no violation" to Inconclusive, and an
    /// unexpanded frontier state must not masquerade as a deadlock.
    #[test]
    fn quick_check_is_sound_under_truncation() {
        // the dead-end net truncated to 2 of its 3 states: state b has no
        // recorded successors but t2 is enabled there — not a deadlock
        let (net, _, _) = dead_end_net();
        let qc = quick_check(&net, &[], &budget(2));
        assert!(qc.truncated);
        assert_eq!(qc.deadlock_free, QuickVerdict::Inconclusive { budget: 2 });
        assert!(qc.deadlock.is_none());
        assert!(qc.no_violation() && !qc.is_clean());

        // a live ring truncated mid-way: inconclusive, carrying the budget
        // that was hit, not violated
        let qc = quick_check(&live_ring_net(8), &[], &budget(3));
        assert!(qc.truncated);
        assert_eq!(qc.deadlock_free, QuickVerdict::Inconclusive { budget: 3 });
        assert_eq!(qc.safe, QuickVerdict::Inconclusive { budget: 3 });
    }

    #[test]
    fn quotient_quick_check_agrees_with_full_on_a_symmetric_ring() {
        let net = live_ring_net(6);
        let perm: Vec<u32> = (0..6u32).map(|i| (i + 1) % 6).collect();
        let sym = Symmetry::new(&net, perm).unwrap();
        let full = quick_check(&net, &[], &budget(1_000));
        let quo = quick_check_quotient(&net, &[], 1_000, &sym);
        assert_eq!(full.deadlock_free, quo.deadlock_free);
        assert_eq!(full.safe, quo.safe);
        assert_eq!(full.states, 6);
        assert_eq!(quo.states, 1, "all 6 token positions are one orbit");
    }

    #[test]
    fn quotient_deadlock_traces_are_concrete() {
        // two independent dead-end chains a->b (way 0 / way 1), swap-symmetric
        let mut net = PetriNet::new();
        let a0 = net.add_place("a0", true);
        let b0 = net.add_place("b0", false);
        let a1 = net.add_place("a1", true);
        let b1 = net.add_place("b1", false);
        let t0 = net.add_transition("t0");
        net.consume(t0, a0);
        net.produce(t0, b0);
        let t1 = net.add_transition("t1");
        net.consume(t1, a1);
        net.produce(t1, b1);
        // generator: swap ways (a0<->a1, b0<->b1)
        let sym = Symmetry::new(&net, vec![2, 3, 0, 1]).unwrap();
        assert_eq!(sym.order(), 2);
        let qc = quick_check_quotient(&net, &[], 1_000, &sym);
        assert_eq!(qc.deadlock_free, QuickVerdict::Violated);
        let dl = qc.deadlock.expect("deadlock witness");
        // the concrete trace replays on the original net into the concrete
        // dead marking
        let mut m = net.initial_marking();
        for t in &dl.trace {
            m = net.fire(*t, &m).unwrap();
        }
        assert_eq!(m, dl.marking);
        assert!(net.enabled_transitions(&m).is_empty());
        let _ = (a0, b0, a1, b1);
    }

    #[test]
    #[should_panic(expected = "not closed under the symmetry")]
    fn quotient_rejects_unclosed_pair_sets() {
        let net = live_ring_net(4);
        let perm: Vec<u32> = (0..4u32).map(|i| (i + 1) % 4).collect();
        let sym = Symmetry::new(&net, perm).unwrap();
        let p = |i: usize| PlaceId::from_index(i);
        let _ = quick_check_quotient(&net, &[(p(0), p(1))], 1_000, &sym);
    }

    #[test]
    fn quick_check_reports_unsafe_pairs_even_when_truncated() {
        let mut bad = PetriNet::new();
        let y0 = bad.add_place("y_0", true);
        let y1 = bad.add_place("y_1", false);
        let t = bad.add_transition("oops");
        bad.read(t, y0);
        bad.produce(t, y1);
        let qc = quick_check(&bad, &[(y0, y1)], &budget(2));
        assert_eq!(qc.safe, QuickVerdict::Violated);
        assert!(qc.unsafe_witness.is_some());
    }
}
