//! Explicit-state reachability exploration.
//!
//! The explorer performs a breadth-first traversal of the reachable markings
//! of a [`PetriNet`], recording for every state its predecessor so that a
//! firing trace (counterexample) can be reconstructed for any reached state.
//!
//! This is the workhorse behind deadlock detection, persistence checking and
//! Reach-predicate queries, standing in for the paper's MPSAT backend.
//!
//! Two entry points:
//!
//! * [`explore`] runs the shared state-space engine ([`crate::engine`]) —
//!   parallel, delta-compressed, bit-identical at every thread count — under
//!   one [`EngineConfig`] (state budget, threads, deadline, recorder).
//!   With a cyclic symmetry of the net (wagged replicas — see
//!   [`crate::symmetry`]) it explores the rotation *quotient* instead:
//!   states are canonicalized to the lexicographically-least rotation
//!   before dedup, cutting the space by up to the group order while
//!   preserving orbit-invariant verdicts. Concrete (replayable) traces are
//!   recovered via [`StateSpace::concrete_trace_to`].
//! * [`explore_naive`] is the original pre-engine explorer, kept as the
//!   test oracle the engine is pinned against state-for-state and as the
//!   `state_space_scaling` baseline.
//!
//! Neither returns an error on overrun: a budget or deadline cut is
//! reported by [`StateSpace::outcome`], and callers that need an error map
//! [`ExploreOutcome::Truncated`](engine::ExploreOutcome) themselves.

use crate::engine::{self, EngineConfig, ExploredGraph, NetSystem, StateSymmetry, Successors};
use crate::{Marking, PetriNet, TransitionId};

/// Dense id of a state discovered during exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(u32);

impl StateId {
    /// Dense index of the state (0 = initial marking).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `StateId` from a raw index (see [`PlaceId::from_index`]
    /// for the caveats: only meaningful against the space that issued the
    /// index — used by persistence layers that round-trip witnesses).
    ///
    /// [`PlaceId::from_index`]: crate::PlaceId::from_index
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        StateId(u32::try_from(index).expect("state index exceeds u32"))
    }
}

/// The reachable state space of a net.
///
/// Markings live delta-compressed in the underlying [`ExploredGraph`]:
/// [`StateSpace::marking`] materialises a [`Marking`] on demand, and
/// [`StateSpace::fill_marking`] / [`StateSpace::fill_marking_words`]
/// reconstruct into caller-owned buffers for allocation-free scans
/// (reconstruction walks the XOR-delta chain to the nearest anchor — cheap,
/// but no longer a borrow, which is why there is no `marking_words`
/// accessor returning a slice). Traces, quotient concretisation and the
/// dead-state rule are the graph's; this view only names its `u32` action
/// and state ids as [`TransitionId`]s and [`StateId`]s.
#[derive(Debug, Clone)]
pub struct StateSpace {
    places: usize,
    graph: ExploredGraph,
    /// The label of each engine action id.
    transitions: Vec<TransitionId>,
}

impl StateSpace {
    fn from_graph(graph: ExploredGraph, net: &PetriNet) -> Self {
        StateSpace {
            places: net.place_count(),
            graph,
            transitions: net.transitions().collect(),
        }
    }

    fn label(&self, actions: Vec<u32>) -> Vec<TransitionId> {
        actions
            .into_iter()
            .map(|a| self.transitions[a as usize])
            .collect()
    }

    /// Number of reachable states discovered (orbit representatives for a
    /// quotient space).
    #[must_use]
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// `true` when the net has no reachable states (impossible: the initial
    /// marking always exists), kept for `len`/`is_empty` pairing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Did exploration stop early (state budget or deadline)?
    #[must_use]
    pub fn is_truncated(&self) -> bool {
        self.graph.is_truncated()
    }

    /// How exploration ended (carries the budget on truncation).
    #[must_use]
    pub fn outcome(&self) -> engine::ExploreOutcome {
        self.graph.outcome()
    }

    /// The symmetry this space is a quotient under, if any.
    #[must_use]
    pub fn symmetry(&self) -> Option<&StateSymmetry> {
        self.graph.symmetry()
    }

    /// Words per packed marking — the scratch width for
    /// [`StateSpace::fill_marking_words`].
    #[must_use]
    pub fn word_count(&self) -> usize {
        self.graph.stride()
    }

    /// The marking of `state`, materialised from the compressed store.
    #[must_use]
    pub fn marking(&self, state: StateId) -> Marking {
        self.to_marking(self.graph.state_vec(state.index()))
    }

    /// A marking from a state's padded graph words.
    fn to_marking(&self, mut words: Vec<u64>) -> Marking {
        words.truncate(self.places.div_ceil(64));
        Marking::from_words(words, self.places)
    }

    /// Reconstructs the marking of `state` into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics when `out` does not cover exactly this net's places.
    pub fn fill_marking(&self, state: StateId, out: &mut Marking) {
        assert_eq!(out.len(), self.places, "marking buffer has the wrong width");
        let w = out.words_mut();
        if w.len() == self.graph.stride() {
            self.graph.fill_state(state.index(), w);
        } else {
            // zero-place nets: the graph pads to one word, the marking to none
            let mut tmp = vec![0u64; self.graph.stride()];
            self.graph.fill_state(state.index(), &mut tmp);
            out.copy_from_words(&tmp);
        }
    }

    /// Reconstructs the word-packed marking bits of `state` into `out`
    /// (exactly [`StateSpace::word_count`] words).
    pub fn fill_marking_words(&self, state: StateId, out: &mut [u64]) {
        self.graph.fill_state(state.index(), out);
    }

    /// Is `place` marked in `state`?
    ///
    /// Reconstructs the state; in hot loops prefer one
    /// [`StateSpace::fill_marking_words`] per state and [`engine::get_bit`]
    /// per place.
    #[must_use]
    pub fn is_marked(&self, state: StateId, place: crate::PlaceId) -> bool {
        engine::get_bit(&self.graph.state_vec(state.index()), place.index())
    }

    /// The initial state.
    #[must_use]
    pub fn initial(&self) -> StateId {
        StateId(0)
    }

    /// Iterates over all states.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.graph.len() as u32).map(StateId)
    }

    /// Outgoing edges `(transition, successor)` of `state`, in firing order.
    #[must_use]
    pub fn successors(&self, state: StateId) -> Successors<'_, TransitionId, StateId> {
        let row = self.graph.successors(state.index());
        Successors::new(row, &self.transitions, StateId)
    }

    /// The deadlocks — states with no enabled transition — in id order,
    /// on the unexpanded frontier of a truncated space too (see
    /// [`ExploredGraph::dead_states`]).
    pub fn dead_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.graph.dead_states().map(StateId)
    }

    /// Reconstructs the firing sequence from the initial state to `state`.
    ///
    /// For a quotient space this trace is over orbit *representatives* — it
    /// replays in the quotient, not necessarily from the net's concrete
    /// initial marking. Use [`StateSpace::concrete_trace_to`] for a firing
    /// sequence of the original net.
    #[must_use]
    pub fn trace_to(&self, state: StateId) -> Vec<TransitionId> {
        self.label(self.graph.trace_to(state.index()))
    }

    /// The symmetry rotation applied when `state` was canonicalized at
    /// discovery (always 0 outside quotient spaces).
    #[must_use]
    pub fn rotation(&self, state: StateId) -> u32 {
        self.graph.rotation(state.index())
    }

    /// A firing sequence of the *original* net from its concrete initial
    /// marking to a concrete member of `state`'s orbit (that member is
    /// [`StateSpace::concrete_marking`]). Equals [`StateSpace::trace_to`]
    /// when this is not a quotient space (see [`ExploredGraph::concretize`]).
    #[must_use]
    pub fn concrete_trace_to(&self, state: StateId) -> Vec<TransitionId> {
        self.label(self.graph.concretize(state.index()).0)
    }

    /// The concrete marking reached by [`StateSpace::concrete_trace_to`]:
    /// the representative of `state` un-rotated by its cumulative rotation.
    /// Equals [`StateSpace::marking`] outside quotient spaces.
    #[must_use]
    pub fn concrete_marking(&self, state: StateId) -> Marking {
        let rep = self.graph.state_vec(state.index());
        let Some(sym) = self.graph.symmetry() else {
            return self.to_marking(rep);
        };
        let mut words = vec![0u64; rep.len()];
        sym.unapply_state(self.graph.concretize(state.index()).1, &rep, &mut words);
        self.to_marking(words)
    }

    /// Finds a state whose marking satisfies `pred`, if any, scanning in BFS
    /// (shortest-trace) order with a single reused marking buffer.
    pub fn find_state(&self, mut pred: impl FnMut(&Marking) -> bool) -> Option<StateId> {
        let mut scratch = Marking::empty(self.places);
        self.states().find(|&s| {
            self.fill_marking(s, &mut scratch);
            pred(&scratch)
        })
    }
}

/// Explores the reachable markings of `net` from its initial marking on the
/// state-space engine, under `config`'s budget, parallelism, deadline and
/// recorder (see [`EngineConfig`]).
///
/// With `symmetry`, explores the rotation *quotient* under it: every
/// successor is canonicalized to the lexicographically-least state of its
/// orbit before dedup, so the result has one state per reachable orbit (up
/// to `symmetry.order()`× fewer states). Orbit-invariant verdicts
/// (deadlock freedom, 1-safety over symmetric pair sets) transfer — see
/// [`crate::engine`] for the soundness argument and
/// [`crate::symmetry::Symmetry`] for building/validating the permutations.
///
/// A budget or deadline cut yields the partial space, with
/// [`StateSpace::outcome`] reporting the truncation.
#[must_use]
pub fn explore(
    net: &PetriNet,
    config: &EngineConfig,
    symmetry: Option<&StateSymmetry>,
) -> StateSpace {
    let graph = engine::explore(|| NetSystem::new(net), config, symmetry);
    StateSpace::from_graph(graph, net)
}

/// The original (pre-engine) explorer, up to `max_states` markings: full
/// transition scan per state, cloned [`Marking`] keys in a `HashMap` dedup
/// index ([`engine::explore_naive`]).
///
/// Retained as the reference implementation: the equivalence property
/// tests check the engine against it state-for-state, and the
/// `state_space_scaling` benchmark reports speedups relative to it. Use
/// [`explore`] everywhere else.
#[must_use]
pub fn explore_naive(net: &PetriNet, max_states: usize) -> StateSpace {
    let stride = net.place_count().div_ceil(64).max(1);
    let fire_all = |m: &Marking| {
        net.transitions()
            .filter(|&t| net.is_enabled(t, m))
            .map(|t| {
                (
                    t.index() as u32,
                    net.fire(t, m).expect("enabled transition must fire"),
                )
            })
            .collect()
    };
    let encode = |m: &Marking, out: &mut [u64]| out[..m.words().len()].copy_from_slice(m.words());
    let graph = engine::explore_naive(net.initial_marking(), max_states, stride, fire_all, encode);
    StateSpace::from_graph(graph, net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlaceId;

    fn explore_default(net: &PetriNet) -> StateSpace {
        let space = explore(net, &EngineConfig::default(), None);
        assert!(!space.is_truncated());
        space
    }

    /// A ring of `n` places with one token circulating.
    fn ring(n: usize) -> PetriNet {
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
    fn ring_has_n_states() {
        let net = ring(5);
        let space = explore_default(&net);
        assert_eq!(space.len(), 5);
        assert!(!space.is_truncated());
    }

    #[test]
    fn traces_replay_to_the_right_marking() {
        let net = ring(4);
        let space = explore_default(&net);
        for s in space.states() {
            let mut m = net.initial_marking();
            for t in space.trace_to(s) {
                m = net.fire(t, &m).unwrap();
            }
            assert_eq!(m, space.marking(s));
        }
    }

    #[test]
    fn budget_is_enforced() {
        let net = ring(10);
        let partial = explore(
            &net,
            &EngineConfig {
                max_states: 3,
                ..EngineConfig::default()
            },
            None,
        );
        assert!(partial.is_truncated());
        assert_eq!(
            partial.outcome(),
            engine::ExploreOutcome::Truncated { limit: 3 }
        );
        assert_eq!(partial.len(), 3);
    }

    #[test]
    fn independent_tokens_interleave() {
        // two independent 2-rings => 4 states
        let mut net = PetriNet::new();
        let a0 = net.add_place("a0", true);
        let a1 = net.add_place("a1", false);
        let b0 = net.add_place("b0", true);
        let b1 = net.add_place("b1", false);
        for (name, from, to) in [
            ("ta+", a0, a1),
            ("ta-", a1, a0),
            ("tb+", b0, b1),
            ("tb-", b1, b0),
        ] {
            let t = net.add_transition(name);
            net.consume(t, from);
            net.produce(t, to);
        }
        let space = explore_default(&net);
        assert_eq!(space.len(), 4);
    }

    #[test]
    fn find_state_locates_marking() {
        let net = ring(6);
        let space = explore_default(&net);
        let p3 = net.place_by_name("p3").unwrap();
        let s = space.find_state(|m| m.is_marked(p3)).unwrap();
        assert!(space.marking(s).is_marked(p3));
        assert!(space.is_marked(s, p3));
        assert_eq!(space.trace_to(s).len(), 3);
    }

    /// The engine path must be indistinguishable from the reference
    /// explorer: same state numbering, same edges, same truncation, at
    /// every thread count.
    #[test]
    fn engine_matches_naive_reference() {
        for budget in [usize::MAX, 7, 3] {
            let net = ring(9);
            let b = explore_naive(&net, budget);
            for threads in [1usize, 2] {
                let cfg = EngineConfig {
                    max_states: budget,
                    threads,
                    ..EngineConfig::default()
                };
                let a = explore(&net, &cfg, None);
                assert_eq!(a.len(), b.len());
                assert_eq!(a.outcome(), b.outcome());
                for (sa, sb) in a.states().zip(b.states()) {
                    assert_eq!(a.marking(sa), b.marking(sb));
                    assert_eq!(a.successors(sa), b.successors(sb));
                    assert_eq!(a.trace_to(sa), b.trace_to(sb));
                }
            }
        }
    }
}
