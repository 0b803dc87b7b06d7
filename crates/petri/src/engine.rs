//! The state-space engine: parallel explorer, delta-compressed storage and
//! symmetry reduction.
//!
//! Both explicit-state explorers of the workspace — Petri-net reachability
//! ([`crate::reachability`]) and the direct DFS semantics (`dfs-core::Lts`)
//! — are breadth-first fixpoints over a successor relation on *word-packed*
//! states ([`TransitionSystem`]). [`explore`] is the one driver over that
//! abstraction: a level-synchronous BFS with a work-stealing frontier
//! (`rap-pool`), a sharded concurrent dedup index ([`shard::ShardIndex`]),
//! event-driven enabledness, delta-compressed state storage and optional
//! symmetry reduction ([`StateSymmetry`]). It is configured by one
//! [`EngineConfig`] — state budget, worker count, wall-clock deadline and
//! recorder.
//!
//! # Determinism contract
//!
//! The engine is **observationally identical at every thread count**, and
//! to a plain one-state-at-a-time BFS that fires actions in index order:
//! same state numbering (BFS discovery order), same parent attribution
//! (hence identical witness traces), same CSR edge order, and the same
//! truncation point under a state budget. This is not best-effort: workers
//! only *propose* successors; a single commit pass per BFS level walks the
//! proposals in canonical `(parent id, action)` order and assigns dense ids
//! at the first canonical encounter, reproducing the sequential
//! interleaving exactly. Duplicate discoveries by racing workers meet in
//! the sharded index (every hash hit is confirmed by a full word compare)
//! and resolve to one pending entry; which worker inserted it is invisible
//! after the commit pass. Counts, truncation verdicts and traces are
//! therefore thread-count-invariant by construction, and the differential
//! suite pins the engine against the naive reference explorers
//! (`reachability::explore_naive`, `Lts::explore_naive`) state-for-state at
//! threads ∈ {1, 2, 8}.
//!
//! A level is expanded and committed in **waves**: contiguous ranges of its
//! parents, each sized to fill the room left under the state budget at the
//! rate of new states per parent seen so far, expanded by the workers and
//! then committed in canonical order before the next wave starts. The level
//! ends at the first wave whose commit hits the budget, so the level the
//! budget cuts is not expanded past the cut. Waves partition the level's
//! canonical order, and a pending entry keeps its handle — hence the id its
//! wave gave it — until the level's `clear_pending`, so a duplicate met in a
//! later wave resolves to the same id: ids, edges and the truncation point
//! are those of one pass over the level. When the budget cannot bind, the
//! first wave is the whole level.
//!
//! # Delta-compressed storage
//!
//! A BFS successor differs from its parent in the few places its action
//! toggled, so [`ExploredGraph`] stores most states as sparse XOR deltas
//! `(word, mask)` against their parent, with full-snapshot *anchors* every
//! 8 BFS levels. Reconstruction
//! ([`ExploredGraph::fill_state`]) XORs the delta chain up the parent links
//! to the nearest anchor — O(depth-to-anchor), bounded by the interval.
//! The trade-off: random state access costs a short chain walk instead of
//! one slice read, in exchange for ~`stride / nnz(delta)`× smaller state
//! storage on wide states. Narrow states (≤ 2 words) gain nothing, so every
//! one of them is an anchor.
//!
//! # Symmetry reduction
//!
//! Wagged pipelines replicate one structure `k` ways; the rotation mapping
//! way `w` to `w+1 (mod k)` generates a cyclic automorphism group of the
//! model. [`StateSymmetry`] holds that generator as a state-bit and an
//! action permutation; the engine then canonicalizes every successor to the
//! lexicographically-least state in its rotation orbit before dedup and
//! explores the quotient. Soundness does *not* require the initial state to
//! be symmetric: starting from `canon(s0)`, equivariance of the firing rule
//! (`fire(σa, σs) = σ fire(a, s)`) makes the discovered set exactly
//! `canon(Reach(s0))`, so orbit-invariant properties — deadlock-freedom,
//! 1-safety over a pair set closed under the permutation — hold in the
//! quotient iff they hold in the full space. Each state records the
//! rotation applied at its discovery, so concrete (replayable) witness
//! traces are reconstructed by un-rotating each step's action
//! ([`StateSymmetry::unrotate_action`]).

use crate::{PetriNet, TransitionId};
use rap_obs::Obs;

pub mod shard;

use shard::{Handle, Probe, ShardIndex};

/// Sentinel parent id of the initial state in [`ExploredGraph::parents`].
pub const NO_PARENT: u32 = u32::MAX;

/// Full-snapshot anchor every this many BFS levels on states wider than
/// two words; the states in between are delta-compressed (see the module
/// docs). States of at most two words are all anchors.
const ANCHOR_INTERVAL: usize = 8;

/// `anchor_slot` sentinel of a delta-stored state.
const DELTA: u32 = u32::MAX;

/// Reads bit `i` of a word-packed bitset.
#[must_use]
#[inline]
pub fn get_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// Writes bit `i` of a word-packed bitset.
#[inline]
pub fn set_bit(words: &mut [u64], i: usize, v: bool) {
    let mask = 1u64 << (i % 64);
    if v {
        words[i / 64] |= mask;
    } else {
        words[i / 64] &= !mask;
    }
}

/// A transition system whose states are fixed-width `u64` bitset slices.
///
/// All slices handed to the methods have length `state_words().max(1)`
/// (states) or `action_count().div_ceil(64).max(1)` (enabled sets); unused
/// high bits are zero and must stay zero.
///
/// Methods take `&mut self` so implementations can keep decode/scratch
/// buffers without interior mutability. The parallel engine builds one
/// instance per worker through a factory closure, so implementations need
/// no internal synchronisation.
pub trait TransitionSystem {
    /// Number of `u64` words a state occupies.
    fn state_words(&self) -> usize;

    /// Total number of actions (enabled-set width in bits).
    fn action_count(&self) -> usize;

    /// Writes the initial state into `out` (pre-zeroed).
    fn write_initial(&mut self, out: &mut [u64]);

    /// Computes the enabled set of `state` from scratch (pre-zeroed `out`).
    /// Called once, for the initial state.
    fn write_enabled_full(&mut self, state: &[u64], out: &mut [u64]);

    /// Applies the (enabled) action `a` to `state`, writing the successor
    /// into `out`. `out` holds arbitrary garbage on entry.
    fn apply(&mut self, a: usize, state: &[u64], out: &mut [u64]);

    /// Incrementally fixes up `enabled` — pre-seeded with the predecessor's
    /// enabled set — after action `a` produced `state`. Only actions whose
    /// conditions intersect the variables changed by `a` need re-checking.
    fn update_enabled(&mut self, a: usize, state: &[u64], enabled: &mut [u64]);
}

/// How an exploration ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreOutcome {
    /// The full reachable set was enumerated.
    Complete,
    /// The state budget or the deadline stopped the exploration early;
    /// `limit` is the state budget in force, so callers can propagate
    /// *which* bound made a verdict inconclusive instead of a bare flag
    /// (the number of states explored is the graph's `len()`).
    Truncated {
        /// The `max_states` budget in force.
        limit: usize,
    },
}

impl ExploreOutcome {
    /// Did exploration stop early (state budget or deadline)?
    #[must_use]
    pub fn is_truncated(self) -> bool {
        matches!(self, ExploreOutcome::Truncated { .. })
    }
}

/// Engine knobs shared by both frontends.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Maximum number of distinct states to store before truncating.
    pub max_states: usize,
    /// Worker threads; `0` = auto: one per available core (capped at 8),
    /// except on a thread spawned by a `rap-pool` worker pool (a DSE sweep
    /// worker, say), where it is one — the pool already runs one worker
    /// per core, and engine threads on top would only oversubscribe them.
    /// Results are identical at every thread count.
    pub threads: usize,
    /// Wall-clock budget; `None` = unbounded (the state cap is then the
    /// only stop). A runaway exploration becomes the ordinary typed
    /// [`ExploreOutcome::Truncated`] outcome instead of running to the cap.
    ///
    /// **Deterministic cut semantics:** the clock is consulted *only at
    /// level-commit barriers* — after a BFS level has been fully expanded,
    /// committed and deduplicated — never mid-level. The explored prefix
    /// is therefore always a complete-level prefix of the canonical BFS
    /// order, and for a given cut level the resulting graph is bit-
    /// identical at every thread count; wall-clock variance can only move
    /// the cut to a different level boundary, never produce a state set no
    /// sequential exploration could. Deadline-truncated artifacts are
    /// outcome-typed (`Truncated` / `Inconclusive`), so downstream layers
    /// treat them exactly like budget-truncated ones — and the session's
    /// persistent store never caches them under a deadline-free key.
    pub deadline: Option<std::time::Duration>,
    /// Recorder for the engine's spans and counters; detached by default.
    ///
    /// Per wave of a BFS level (see the module docs) the engine opens
    /// `engine.level.expand` (worker expansion, including concurrent dedup
    /// probes), `engine.level.dedup` (barrier-side chunk ordering; per
    /// level also the pending-slot reset) and `engine.level.commit`
    /// (canonical-order commit) spans; at the end it records the
    /// [`EngineStats`] counters, the `engine.waves` counter and the
    /// `engine.frontier.peak` gauge. All recording happens at wave
    /// barriers or after the run — the per-state hot path never touches
    /// the recorder — and recording is observation-only: the returned
    /// graph is bit-identical to an untraced run at every thread count
    /// (pinned by the differential suites running with a live collector).
    pub obs: Obs,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_states: 2_000_000,
            threads: 0,
            deadline: None,
            obs: Obs::none(),
        }
    }
}

impl EngineConfig {
    /// The actual worker count (`threads`, or the auto policy for 0 — see
    /// [`EngineConfig::threads`]).
    #[must_use]
    pub fn resolved_threads(&self) -> usize {
        match self.threads {
            0 if rap_pool::is_pool_worker() => 1,
            0 => std::thread::available_parallelism().map_or(1, |n| n.get().min(8)),
            n => n,
        }
    }
}

/// View over the engine's `rap-obs` counters after a traced exploration
/// ([`explore`] with a live collector in [`EngineConfig::obs`]) — the engine-side
/// member of the workspace's unified stats family (`SessionStats`,
/// `StoreStats`, `SweepStats` are views the same way).
///
/// Recording is observation-only: a traced run produces a bit-identical
/// graph to an untraced one; these counters merely describe it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// BFS levels processed (`engine.levels`).
    pub levels: u64,
    /// Distinct states committed (`engine.states`).
    pub states: u64,
    /// Edges committed (`engine.edges`).
    pub edges: u64,
    /// Edges whose target was already committed in an earlier level
    /// (`engine.dedup.known`).
    pub dedup_known: u64,
    /// Edges deduplicated against a same-level pending entry
    /// (`engine.dedup.pending`).
    pub dedup_pending: u64,
    /// Dedup probes that found their shard lock held by another worker
    /// (`engine.shard.contended`).
    pub shard_contended: u64,
}

impl EngineStats {
    /// Builds the view from a coherent counter snapshot (taxonomy names in
    /// the field docs above). Counters accumulate across explorations
    /// recorded into the same collector.
    #[must_use]
    pub fn from_counters(c: &rap_obs::CounterSnapshot) -> EngineStats {
        EngineStats {
            levels: c.get("engine.levels"),
            states: c.get("engine.states"),
            edges: c.get("engine.edges"),
            dedup_known: c.get("engine.dedup.known"),
            dedup_pending: c.get("engine.dedup.pending"),
            shard_contended: c.get("engine.shard.contended"),
        }
    }
}

/// The reachable graph produced by [`explore`]:
/// delta-compressed states plus parent links and a CSR successor list, all
/// keyed by dense state ids in BFS discovery order (0 = initial state).
///
/// State `i` is stored either as a full snapshot (*anchor*) in the anchor
/// arena, or as a sparse XOR delta against its parent;
/// [`ExploredGraph::fill_state`] reconstructs by XOR-ing the delta chain up
/// the parent links to the nearest anchor (XOR is commutative, so the
/// walk-down order is free). The initial state is always an anchor.
#[derive(Debug, Clone)]
pub struct ExploredGraph {
    /// Words per state (≥ 1 even for zero-width states).
    stride: usize,
    /// Anchor snapshots, `stride` words each.
    anchors: Vec<u64>,
    /// Per state: anchor index, or [`DELTA`] for delta-stored states.
    anchor_slot: Vec<u32>,
    /// CSR offsets into the delta arrays, one per state plus a sentinel.
    delta_off: Vec<u32>,
    /// Delta word indices (parallel to `delta_xor`).
    delta_word: Vec<u32>,
    /// Delta XOR masks against the parent's words.
    delta_xor: Vec<u64>,
    /// Per state: `(parent, action)`; the initial state has parent
    /// [`NO_PARENT`].
    pub parents: Vec<(u32, u32)>,
    /// Per state: the symmetry rotation applied at discovery (empty when
    /// exploring without symmetry — all rotations are then 0).
    rotations: Vec<u16>,
    /// CSR offsets into `succ`, one entry per state plus a final sentinel.
    pub succ_off: Vec<u32>,
    /// Outgoing edges `(action, successor)` in firing order.
    pub succ: Vec<(u32, u32)>,
    /// How exploration ended.
    outcome: ExploreOutcome,
}

impl ExploredGraph {
    fn with_initial(stride: usize, initial: &[u64], rotation: u32, symmetric: bool) -> Self {
        let mut g = ExploredGraph {
            stride,
            anchors: initial.to_vec(),
            anchor_slot: vec![0],
            delta_off: vec![0, 0],
            delta_word: Vec::new(),
            delta_xor: Vec::new(),
            parents: vec![(NO_PARENT, 0)],
            rotations: if symmetric { vec![0] } else { Vec::new() },
            succ_off: vec![0],
            succ: Vec::new(),
            outcome: ExploreOutcome::Complete,
        };
        if symmetric {
            g.rotations[0] = u16::try_from(rotation).expect("rotation fits u16");
        }
        g
    }

    /// Appends a state, stored as an anchor or as a delta against
    /// `parent_words` (its parent's full snapshot).
    fn push_state(
        &mut self,
        words: &[u64],
        parent_words: &[u64],
        anchor: bool,
        parent: u32,
        action: u32,
        rotation: u32,
    ) {
        if anchor {
            self.anchor_slot
                .push(u32::try_from(self.anchors.len() / self.stride).expect("anchor count"));
            self.anchors.extend_from_slice(words);
        } else {
            self.anchor_slot.push(DELTA);
            for (w, (&a, &b)) in words.iter().zip(parent_words).enumerate() {
                if a != b {
                    self.delta_word.push(w as u32);
                    self.delta_xor.push(a ^ b);
                }
            }
        }
        self.delta_off.push(self.delta_word.len() as u32);
        self.parents.push((parent, action));
        if !self.rotations.is_empty() {
            self.rotations
                .push(u16::try_from(rotation).expect("rotation fits u16"));
        }
    }

    /// Builds an all-anchor (uncompressed) graph from dense parts — used by
    /// the naive reference explorers, which keep a dense arena anyway.
    ///
    /// # Panics
    ///
    /// Panics when `arena` is not exactly `parents.len() * stride` words.
    #[must_use]
    pub fn from_dense(
        stride: usize,
        arena: Vec<u64>,
        parents: Vec<(u32, u32)>,
        succ_off: Vec<u32>,
        succ: Vec<(u32, u32)>,
        outcome: ExploreOutcome,
    ) -> Self {
        let n = parents.len();
        assert_eq!(arena.len(), n * stride, "arena/parents length mismatch");
        ExploredGraph {
            stride,
            anchors: arena,
            anchor_slot: (0..u32::try_from(n).expect("state count")).collect(),
            delta_off: vec![0; n + 1],
            delta_word: Vec::new(),
            delta_xor: Vec::new(),
            parents,
            rotations: Vec::new(),
            succ_off,
            succ,
            outcome,
        }
    }

    /// Number of states discovered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// `true` when no state was stored (never happens: the initial state
    /// always exists); kept for `len`/`is_empty` pairing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Words per state.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// How exploration ended.
    #[must_use]
    pub fn outcome(&self) -> ExploreOutcome {
        self.outcome
    }

    /// Did exploration stop early (state budget or deadline)?
    #[must_use]
    pub fn is_truncated(&self) -> bool {
        self.outcome.is_truncated()
    }

    /// Reconstructs the bitset words of state `i` into `out` (exactly
    /// `stride` words; previous contents are overwritten).
    pub fn fill_state(&self, i: usize, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.stride);
        out.fill(0);
        let mut cur = i;
        while self.anchor_slot[cur] == DELTA {
            for k in self.delta_off[cur] as usize..self.delta_off[cur + 1] as usize {
                out[self.delta_word[k] as usize] ^= self.delta_xor[k];
            }
            cur = self.parents[cur].0 as usize;
        }
        let base = self.anchor_slot[cur] as usize * self.stride;
        for (w, o) in out.iter_mut().enumerate() {
            *o ^= self.anchors[base + w];
        }
    }

    /// The bitset words of state `i` as a fresh vector.
    #[must_use]
    pub fn state_vec(&self, i: usize) -> Vec<u64> {
        let mut out = vec![0u64; self.stride];
        self.fill_state(i, &mut out);
        out
    }

    /// Outgoing edges `(action, successor)` of state `i`.
    #[must_use]
    pub fn successors(&self, i: usize) -> &[(u32, u32)] {
        &self.succ[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// Action sequence from the initial state to state `i` (over quotient
    /// representatives when exploring with symmetry — see
    /// [`ExploredGraph::rotation`] for making such a trace concrete).
    #[must_use]
    pub fn trace_to(&self, i: usize) -> Vec<u32> {
        let mut rev = Vec::new();
        let mut cur = i;
        while self.parents[cur].0 != NO_PARENT {
            let (p, a) = self.parents[cur];
            rev.push(a);
            cur = p as usize;
        }
        rev.reverse();
        rev
    }

    /// The symmetry rotation applied when state `i` was canonicalized at
    /// discovery (0 without symmetry).
    #[must_use]
    pub fn rotation(&self, i: usize) -> u32 {
        self.rotations.get(i).copied().map_or(0, u32::from)
    }

    /// Number of states stored as full anchors (diagnostics/tests).
    #[must_use]
    pub fn anchor_count(&self) -> usize {
        self.anchor_slot.iter().filter(|&&s| s != DELTA).count()
    }
}

/// Multiplicative word mixer (splitmix-style) over a state slice.
#[inline]
#[must_use]
pub fn hash_words(words: &[u64]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for &w in words {
        h ^= w.wrapping_mul(0xA24B_AED4_963E_E407);
        h = h.rotate_left(29).wrapping_mul(0x9FB2_1C65_1E98_DF25);
    }
    h ^ (h >> 32)
}

/// A cyclic symmetry of a [`TransitionSystem`], given by one generator: a
/// permutation of the state bits and the matching permutation of the
/// actions. Powers up to the generator's order are precomputed, so
/// canonicalization is `order - 1` sparse bit-permutes plus lexicographic
/// compares.
#[derive(Debug, Clone)]
pub struct StateSymmetry {
    order: usize,
    /// `bit_pow[j-1]` maps each state bit to its position under the j-th
    /// power of the generator.
    bit_pow: Vec<Vec<u32>>,
    /// Same for action bits.
    act_pow: Vec<Vec<u32>>,
}

fn check_permutation(perm: &[u32]) -> Result<(), String> {
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        let i = p as usize;
        if i >= perm.len() || seen[i] {
            return Err(format!(
                "not a permutation: image {p} repeated or out of range"
            ));
        }
        seen[i] = true;
    }
    Ok(())
}

fn perm_order(perm: &[u32]) -> usize {
    let mut seen = vec![false; perm.len()];
    let mut order = 1usize;
    for start in 0..perm.len() {
        if seen[start] {
            continue;
        }
        let mut len = 0usize;
        let mut cur = start;
        while !seen[cur] {
            seen[cur] = true;
            cur = perm[cur] as usize;
            len += 1;
        }
        order = lcm(order, len.max(1));
    }
    order
}

fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Permutes the low `perm.len()` bits of `src` into the pre-zeroed `dst`.
fn permute_bits(perm: &[u32], src: &[u64], dst: &mut [u64]) {
    for (wi, &w) in src.iter().enumerate() {
        let mut bits = w;
        while bits != 0 {
            let b = wi * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let t = perm[b] as usize;
            dst[t / 64] |= 1u64 << (t % 64);
        }
    }
}

impl StateSymmetry {
    /// Builds the symmetry from one generator. `bit_perm[i]` is the state
    /// bit that bit `i` maps to, `action_perm[a]` the action `a` maps to;
    /// both must be permutations covering *all* bits the system uses (the
    /// engine checks the widths at exploration time).
    ///
    /// # Errors
    ///
    /// When either map is not a permutation, or the generator's order
    /// exceeds 4096 (no hardware replicates that many ways; a bound keeps
    /// the precomputed powers small).
    pub fn new(bit_perm: Vec<u32>, action_perm: Vec<u32>) -> Result<Self, String> {
        check_permutation(&bit_perm)?;
        check_permutation(&action_perm)?;
        let order = lcm(perm_order(&bit_perm), perm_order(&action_perm));
        if order > 4096 {
            return Err(format!("symmetry order {order} out of range"));
        }
        let mut bit_pow = vec![bit_perm.clone()];
        let mut act_pow = vec![action_perm.clone()];
        for j in 1..order.saturating_sub(1) {
            let prev = &bit_pow[j - 1];
            bit_pow.push(prev.iter().map(|&i| bit_perm[i as usize]).collect());
            let prev = &act_pow[j - 1];
            act_pow.push(prev.iter().map(|&a| action_perm[a as usize]).collect());
        }
        Ok(StateSymmetry {
            order,
            bit_pow,
            act_pow,
        })
    }

    /// Group order of the generator (1 = trivial symmetry).
    #[must_use]
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of state bits the permutation covers.
    #[must_use]
    pub fn state_bits(&self) -> usize {
        self.bit_pow.first().map_or(0, Vec::len)
    }

    /// Number of action bits the permutation covers.
    #[must_use]
    pub fn action_bits(&self) -> usize {
        self.act_pow.first().map_or(0, Vec::len)
    }

    /// Writes the lexicographically-least rotation of `raw` into `canon`
    /// and returns the rotation amount `j` with `canon = g^j(raw)`. `tmp`
    /// is scratch of the same width.
    pub fn canonicalize(&self, raw: &[u64], canon: &mut [u64], tmp: &mut [u64]) -> u32 {
        canon.copy_from_slice(raw);
        let mut best = 0u32;
        for j in 1..self.order {
            tmp.fill(0);
            permute_bits(&self.bit_pow[j - 1], raw, tmp);
            if *tmp < *canon {
                canon.copy_from_slice(tmp);
                best = j as u32;
            }
        }
        best
    }

    /// Applies the j-th power of the generator to a state (pre-existing
    /// contents of `dst` are overwritten).
    pub fn apply_state(&self, j: u32, src: &[u64], dst: &mut [u64]) {
        dst.fill(0);
        if j == 0 {
            dst.copy_from_slice(src);
        } else {
            permute_bits(&self.bit_pow[j as usize - 1], src, dst);
        }
    }

    /// Applies the j-th power of the generator to an enabled set.
    pub fn apply_enabled(&self, j: u32, src: &[u64], dst: &mut [u64]) {
        dst.fill(0);
        if j == 0 {
            dst.copy_from_slice(src);
        } else {
            permute_bits(&self.act_pow[j as usize - 1], src, dst);
        }
    }

    /// The image of action `a` under the j-th power of the generator.
    #[must_use]
    pub fn rotate_action(&self, j: u32, a: u32) -> u32 {
        if j == 0 {
            a
        } else {
            self.act_pow[j as usize - 1][a as usize]
        }
    }

    /// The image of action `a` under the *inverse* j-th power — the step
    /// that turns a quotient trace concrete (see the module docs).
    #[must_use]
    pub fn unrotate_action(&self, j: u32, a: u32) -> u32 {
        let inv = (self.order as u32 - j % self.order as u32) % self.order as u32;
        self.rotate_action(inv, a)
    }

    /// The inverse j-th power applied to a state.
    pub fn unapply_state(&self, j: u32, src: &[u64], dst: &mut [u64]) {
        let inv = (self.order as u32 - j % self.order as u32) % self.order as u32;
        self.apply_state(inv, src, dst);
    }
}

/// One proposed edge out of an expanded frontier state.
struct EdgeRec {
    action: u32,
    rotation: u32,
    target: Target,
}

enum Target {
    Known(u32),
    Pending(Handle),
}

/// Edges proposed by one worker for one contiguous chunk of the frontier.
struct ChunkOut {
    /// Level-local index of the first parent in the chunk.
    start: usize,
    /// Per parent (in chunk order): cumulative edge count.
    offs: Vec<u32>,
    edges: Vec<EdgeRec>,
}

/// Parents to expand in the next wave of a level, given the `todo` parents
/// left in it, the `room` left under the state budget and a `(new states,
/// parents)` rate observed so far: enough parents to fill the room at that
/// rate (at least [`MIN_WAVE`]), or all of them when the rate is unknown or
/// the room can take them all.
fn wave_len(todo: usize, room: usize, rate: Option<(usize, usize)>) -> usize {
    match rate {
        Some((new, parents)) if new > 0 => {
            let fill = (room as u128 * parents as u128).div_ceil(new as u128);
            usize::try_from(fill)
                .unwrap_or(usize::MAX)
                .max(MIN_WAVE)
                .min(todo)
        }
        _ => todo,
    }
}

/// Smallest wave worth a round of worker dispatch and a commit pass.
const MIN_WAVE: usize = 64;

/// Level-synchronous parallel BFS over `factory`-built systems, under the
/// budget, parallelism, storage, deadline and recorder settings of `cfg`.
///
/// Observationally identical at every thread count — see the module docs
/// for the commit-pass argument. Truncation is sequential-BFS exact: when
/// storing state number `max_states` would be required, exploration stops
/// immediately — successors of the state being expanded that were found
/// *before* the overflow stay recorded, the overflowing edge does not.
///
/// With `symmetry`, explores the rotation quotient instead (canonicalizing
/// every successor before dedup); the result is then the quotient graph
/// over orbit representatives, with per-state discovery rotations for
/// concrete trace reconstruction. The symmetry is an argument rather than
/// a config field because it changes what the result means.
///
/// # Panics
///
/// Panics when `symmetry` does not cover the system's state/action bits.
pub fn explore<S, F>(
    factory: F,
    cfg: &EngineConfig,
    symmetry: Option<&StateSymmetry>,
) -> ExploredGraph
where
    S: TransitionSystem + Send,
    F: Fn() -> S + Sync,
{
    let obs = &cfg.obs;
    let started = std::time::Instant::now();
    let threads = cfg.resolved_threads().max(1);
    // one system per worker for the whole run (`factory` can be expensive);
    // workers re-acquire their own instance each level, uncontended
    let systems: Vec<std::sync::Mutex<S>> = (0..threads)
        .map(|_| std::sync::Mutex::new(factory()))
        .collect();
    let (stride, astride, action_count) = {
        let sys = systems[0].lock().expect("engine worker system");
        (
            sys.state_words().max(1),
            sys.action_count().div_ceil(64).max(1),
            sys.action_count(),
        )
    };
    let anchor_every = if stride <= 2 { 1 } else { ANCHOR_INTERVAL };
    let sym = symmetry.filter(|s| s.order() > 1);
    if let Some(sy) = sym {
        assert!(
            sy.state_bits() <= stride * 64,
            "symmetry permutes more bits than the state holds"
        );
        assert!(
            sy.action_bits() >= action_count && sy.action_bits() <= astride * 64,
            "symmetry must cover every action"
        );
    }

    // initial state: canonicalize, then recompute its enabled set from
    // scratch directly on the representative
    let (init, rot0, en0) = {
        let mut sys0 = systems[0].lock().expect("engine worker system");
        let mut raw0 = vec![0u64; stride];
        sys0.write_initial(&mut raw0);
        let (init, rot0) = match sym {
            Some(sy) => {
                let mut canon = vec![0u64; stride];
                let mut tmp = vec![0u64; stride];
                let r = sy.canonicalize(&raw0, &mut canon, &mut tmp);
                (canon, r)
            }
            None => (raw0, 0),
        };
        let mut en0 = vec![0u64; astride];
        sys0.write_enabled_full(&init, &mut en0);
        (init, rot0, en0)
    };

    let mut g = ExploredGraph::with_initial(stride, &init, rot0, sym.is_some());
    let mut index = ShardIndex::new(threads.max(8) * 8, stride, astride);
    match index.probe_or_insert(
        hash_words(&init),
        &init,
        |_| false,
        |en| {
            en.copy_from_slice(&en0);
        },
    ) {
        Probe::Inserted(h) => index.assign(h, 0),
        p => unreachable!("initial state already present: {p:?}"),
    }
    index.clear_pending();

    let mut frontier_words = init;
    let mut frontier_en = en0;
    let mut level_start = 0usize;
    let mut level_num = 0usize;
    // (new states, parents) of the previous level: the rate the first wave
    // of a level is sized from (none before level 1, which is one state)
    let mut prev_rate: Option<(usize, usize)> = None;
    // observability tallies — plain locals, flushed to the recorder once
    // after the run so the level loop never locks the collector for them
    let mut levels_done = 0u64;
    let mut waves_done = 0u64;
    let mut peak_frontier = 0usize;
    let mut dedup_known = 0u64;
    let mut dedup_pending = 0u64;

    loop {
        let level_len = g.len() - level_start;
        if level_len == 0 {
            break;
        }
        levels_done += 1;
        peak_frontier = peak_frontier.max(level_len);
        let anchor_next = anchor_every == 1 || (level_num + 1).is_multiple_of(anchor_every);
        let mut next_words: Vec<u64> = Vec::new();
        let mut next_en: Vec<u64> = Vec::new();

        // the level is expanded and committed in waves — contiguous parent
        // ranges in canonical order — so that a level the budget cuts is
        // not expanded past the cut; when the budget cannot bind, the
        // first wave is the whole level
        let mut lo = 0usize;
        while lo < level_len && !g.is_truncated() {
            let rate = if lo == 0 {
                prev_rate
            } else {
                Some((next_words.len() / stride, lo))
            };
            let hi = lo + wave_len(level_len - lo, cfg.max_states.saturating_sub(g.len()), rate);
            waves_done += 1;

            // expansion: workers propose edges for chunks of the wave
            let wave = hi - lo;
            let t_level = if wave < 512 { 1 } else { threads };
            let chunk = wave.div_ceil(t_level * 4).max(32).min(wave);
            let queues = rap_pool::StealQueues::new(t_level);
            queues.deal((lo..hi).step_by(chunk).map(|a| (a, (a + chunk).min(hi))));
            let fw: &[u64] = &frontier_words;
            let fe: &[u64] = &frontier_en;
            let g_ref = &g;
            let index_ref = &index;
            let expand_span = obs.span("engine.level.expand");
            let mut chunk_outs: Vec<ChunkOut> = rap_pool::run_workers(t_level, |me| {
                let mut sys = systems[me].lock().expect("engine worker system");
                let mut raw = vec![0u64; stride];
                let mut canon = vec![0u64; stride];
                let mut tmp = vec![0u64; stride];
                let mut cmp = vec![0u64; stride];
                let mut en_scratch = vec![0u64; astride];
                let mut outs = Vec::new();
                while let Some((a, b)) = queues.next(me) {
                    let mut out = ChunkOut {
                        start: a,
                        offs: Vec::with_capacity(b - a),
                        edges: Vec::new(),
                    };
                    for li in a..b {
                        let p_state = &fw[li * stride..(li + 1) * stride];
                        let p_en = &fe[li * astride..(li + 1) * astride];
                        for wi in 0..astride {
                            let mut bits = p_en[wi];
                            while bits != 0 {
                                let act = wi * 64 + bits.trailing_zeros() as usize;
                                bits &= bits - 1;
                                sys.apply(act, p_state, &mut raw);
                                let (cand, rotation): (&[u64], u32) = match sym {
                                    Some(sy) => {
                                        let r = sy.canonicalize(&raw, &mut canon, &mut tmp);
                                        (&canon, r)
                                    }
                                    None => (&raw, 0),
                                };
                                let hash = hash_words(cand);
                                let probe = index_ref.probe_or_insert(
                                    hash,
                                    cand,
                                    |id| {
                                        g_ref.fill_state(id as usize, &mut cmp);
                                        cmp == cand
                                    },
                                    |en_out| {
                                        // the incremental update is valid for
                                        // the *raw* successor; rotate the
                                        // result into the representative's
                                        // frame
                                        match sym {
                                            Some(sy) if rotation > 0 => {
                                                en_scratch.copy_from_slice(p_en);
                                                sys.update_enabled(act, &raw, &mut en_scratch);
                                                sy.apply_enabled(rotation, &en_scratch, en_out);
                                            }
                                            _ => {
                                                en_out.copy_from_slice(p_en);
                                                sys.update_enabled(act, &raw, en_out);
                                            }
                                        }
                                    },
                                );
                                out.edges.push(EdgeRec {
                                    action: act as u32,
                                    rotation,
                                    target: match probe {
                                        Probe::Committed(id) => Target::Known(id),
                                        Probe::Pending(h) | Probe::Inserted(h) => {
                                            Target::Pending(h)
                                        }
                                    },
                                });
                            }
                        }
                        out.offs.push(out.edges.len() as u32);
                    }
                    outs.push(out);
                }
                outs
            })
            .into_iter()
            .flat_map(|r| {
                // a dead worker is unrecoverable here: the level barrier
                // needs every chunk, so escalate instead of committing a
                // partial wave
                r.unwrap_or_else(|e| panic!("state-space engine worker died: {e}"))
            })
            .collect();

            drop(expand_span);

            // commit: one pass in canonical (parent id, action) order
            // assigns dense ids exactly as a sequential BFS would; pending
            // entries of earlier waves keep their handles (and ids) until
            // the level's `clear_pending`
            {
                let _dedup = obs.span("engine.level.dedup");
                chunk_outs.sort_by_key(|c| c.start);
            }
            let _commit = obs.span("engine.level.commit");
            'commit: for co in &chunk_outs {
                let mut e0 = 0usize;
                for (k, &e1) in co.offs.iter().enumerate() {
                    let parent_local = co.start + k;
                    let parent_id = (level_start + parent_local) as u32;
                    for e in &co.edges[e0..e1 as usize] {
                        let id = match e.target {
                            Target::Known(id) => {
                                dedup_known += 1;
                                id
                            }
                            Target::Pending(h) => match index.assigned(h) {
                                Some(id) => {
                                    dedup_pending += 1;
                                    id
                                }
                                None => {
                                    if g.len() >= cfg.max_states {
                                        g.outcome = ExploreOutcome::Truncated {
                                            limit: cfg.max_states,
                                        };
                                        break 'commit;
                                    }
                                    let id = g.len() as u32;
                                    let (w, en) = index.pending_data(h);
                                    let pw = &frontier_words
                                        [parent_local * stride..(parent_local + 1) * stride];
                                    g.push_state(
                                        w,
                                        pw,
                                        anchor_next,
                                        parent_id,
                                        e.action,
                                        e.rotation,
                                    );
                                    next_words.extend_from_slice(w);
                                    next_en.extend_from_slice(en);
                                    index.assign(h, id);
                                    id
                                }
                            },
                        };
                        g.succ.push((e.action, id));
                    }
                    e0 = e1 as usize;
                    g.succ_off.push(g.succ.len() as u32);
                }
            }
            lo = hi;
        }

        if g.is_truncated() {
            break;
        }
        // wall-clock deadline, consulted only here — at the level-commit
        // barrier — so the explored prefix is always a complete-level
        // prefix of the canonical BFS order (see `EngineConfig::deadline`)
        if cfg.deadline.is_some_and(|d| started.elapsed() >= d) {
            g.outcome = ExploreOutcome::Truncated {
                limit: cfg.max_states,
            };
            break;
        }
        {
            let _dedup = obs.span("engine.level.dedup");
            index.clear_pending();
        }
        let new_states = next_words.len() / stride;
        prev_rate = Some((new_states, level_len));
        level_start = g.len() - new_states;
        frontier_words = next_words;
        frontier_en = next_en;
        level_num += 1;
    }

    // close offsets of states that were never (or only partially) expanded
    while g.succ_off.len() < g.len() + 1 {
        g.succ_off.push(g.succ.len() as u32);
    }

    if obs.is_enabled() {
        obs.add("engine.levels", levels_done);
        obs.add("engine.waves", waves_done);
        obs.add("engine.states", g.len() as u64);
        obs.add("engine.edges", g.succ.len() as u64);
        obs.add("engine.dedup.known", dedup_known);
        obs.add("engine.dedup.pending", dedup_pending);
        obs.add("engine.shard.contended", index.contention());
        #[allow(clippy::cast_precision_loss)]
        obs.gauge("engine.frontier.peak", peak_frontier as f64);
    }
    g
}

/// Sparse masks per transition, CSR-packed: `data[off[t]..off[t+1]]` holds
/// `(word index, bit mask)` pairs.
#[derive(Debug, Clone)]
struct MaskCsr {
    off: Vec<u32>,
    data: Vec<(u32, u64)>,
}

impl MaskCsr {
    fn builder(rows: usize) -> MaskCsrBuilder {
        MaskCsrBuilder {
            rows: vec![Vec::new(); rows],
        }
    }

    #[inline]
    fn row(&self, t: usize) -> &[(u32, u64)] {
        &self.data[self.off[t] as usize..self.off[t + 1] as usize]
    }
}

struct MaskCsrBuilder {
    rows: Vec<Vec<(u32, u64)>>,
}

impl MaskCsrBuilder {
    /// Adds place index `p` to row `t`, merging into an existing word mask.
    fn add(&mut self, t: usize, p: usize) {
        let (w, m) = ((p / 64) as u32, 1u64 << (p % 64));
        let row = &mut self.rows[t];
        match row.iter_mut().find(|(rw, _)| *rw == w) {
            Some((_, rm)) => *rm |= m,
            None => row.push((w, m)),
        }
    }

    fn finish(self) -> MaskCsr {
        let mut off = Vec::with_capacity(self.rows.len() + 1);
        let mut data = Vec::new();
        off.push(0);
        for mut row in self.rows {
            row.sort_unstable_by_key(|&(w, _)| w);
            data.extend_from_slice(&row);
            off.push(data.len() as u32);
        }
        MaskCsr { off, data }
    }
}

/// Precomputed place→transition incidence of a [`PetriNet`], specialised for
/// word-packed markings.
///
/// Per transition it stores the enabledness condition as word masks —
/// `need` (consumed ∪ read places, must all be marked) and `forbid`
/// (produced-but-not-consumed places, must all be empty, the 1-safety rule)
/// — the firing effect (`clear`/`set` masks), and the *affected set*: the
/// transitions whose enabledness can change when this transition fires,
/// i.e. those whose `need`/`forbid` places intersect this transition's
/// changed places. The affected sets are what makes exploration
/// event-driven.
#[derive(Debug, Clone)]
pub struct Incidence {
    words: usize,
    transitions: usize,
    need: MaskCsr,
    forbid: MaskCsr,
    clear: MaskCsr,
    set: MaskCsr,
    affected_off: Vec<u32>,
    affected: Vec<u32>,
}

impl Incidence {
    /// Builds the incidence index of `net`.
    #[must_use]
    pub fn from_net(net: &PetriNet) -> Self {
        let np = net.place_count();
        let nt = net.transition_count();
        let mut need = MaskCsr::builder(nt);
        let mut forbid = MaskCsr::builder(nt);
        let mut clear = MaskCsr::builder(nt);
        let mut set = MaskCsr::builder(nt);
        // place -> transitions whose enabledness depends on it
        let mut watchers: Vec<Vec<u32>> = vec![Vec::new(); np];
        // per transition: places toggled by firing (consumes Δ produces)
        let mut changed: Vec<Vec<usize>> = vec![Vec::new(); nt];

        for t in net.transitions() {
            let ti = t.index();
            let tr = net.transition(t);
            for &p in tr.consumes() {
                need.add(ti, p.index());
                clear.add(ti, p.index());
                watchers[p.index()].push(ti as u32);
                if tr.produces().binary_search(&p).is_err() {
                    changed[ti].push(p.index());
                }
            }
            for &p in tr.reads() {
                if tr.consumes().binary_search(&p).is_err() {
                    watchers[p.index()].push(ti as u32);
                }
                need.add(ti, p.index());
            }
            for &p in tr.produces() {
                set.add(ti, p.index());
                if tr.consumes().binary_search(&p).is_err() {
                    forbid.add(ti, p.index());
                    watchers[p.index()].push(ti as u32);
                    changed[ti].push(p.index());
                }
            }
        }

        let mut affected_off = Vec::with_capacity(nt + 1);
        let mut affected = Vec::new();
        affected_off.push(0);
        let mut row: Vec<u32> = Vec::new();
        for changed_places in &changed {
            row.clear();
            for &p in changed_places {
                row.extend_from_slice(&watchers[p]);
            }
            row.sort_unstable();
            row.dedup();
            affected.extend_from_slice(&row);
            affected_off.push(affected.len() as u32);
        }

        Incidence {
            words: np.div_ceil(64),
            transitions: nt,
            need: need.finish(),
            forbid: forbid.finish(),
            clear: clear.finish(),
            set: set.finish(),
            affected_off,
            affected,
        }
    }

    /// Words per packed marking.
    #[must_use]
    pub fn marking_words(&self) -> usize {
        self.words
    }

    /// Number of transitions indexed.
    #[must_use]
    pub fn transition_count(&self) -> usize {
        self.transitions
    }

    /// Is `t` enabled in the word-packed marking `state`? Equivalent to
    /// [`PetriNet::is_enabled`] on the corresponding [`crate::Marking`].
    #[must_use]
    #[inline]
    pub fn is_enabled(&self, t: TransitionId, state: &[u64]) -> bool {
        let ti = t.index();
        self.need
            .row(ti)
            .iter()
            .all(|&(w, m)| state[w as usize] & m == m)
            && self
                .forbid
                .row(ti)
                .iter()
                .all(|&(w, m)| state[w as usize] & m == 0)
    }

    /// Fires `t` (assumed enabled) on `src`, writing the successor marking
    /// into `dst`.
    #[inline]
    pub fn fire_into(&self, t: TransitionId, src: &[u64], dst: &mut [u64]) {
        dst.copy_from_slice(src);
        for &(w, m) in self.clear.row(t.index()) {
            dst[w as usize] &= !m;
        }
        for &(w, m) in self.set.row(t.index()) {
            dst[w as usize] |= m;
        }
    }

    /// The transitions whose enabledness must be re-checked after `t` fires.
    #[must_use]
    #[inline]
    pub fn affected(&self, t: TransitionId) -> &[u32] {
        let ti = t.index();
        &self.affected[self.affected_off[ti] as usize..self.affected_off[ti + 1] as usize]
    }
}

/// [`TransitionSystem`] view of a [`PetriNet`]: actions are transitions,
/// states are word-packed markings.
pub struct NetSystem {
    inc: Incidence,
    initial: Vec<u64>,
}

impl NetSystem {
    /// Builds the system (and its [`Incidence`] index) for `net`.
    #[must_use]
    pub fn new(net: &PetriNet) -> Self {
        let inc = Incidence::from_net(net);
        let mut initial = vec![0u64; inc.marking_words().max(1)];
        for p in net.places() {
            if net.place(p).initially_marked {
                set_bit(&mut initial, p.index(), true);
            }
        }
        NetSystem { inc, initial }
    }

    /// The underlying incidence index.
    #[must_use]
    pub fn incidence(&self) -> &Incidence {
        &self.inc
    }
}

impl TransitionSystem for NetSystem {
    fn state_words(&self) -> usize {
        self.inc.marking_words()
    }

    fn action_count(&self) -> usize {
        self.inc.transition_count()
    }

    fn write_initial(&mut self, out: &mut [u64]) {
        out.copy_from_slice(&self.initial);
    }

    fn write_enabled_full(&mut self, state: &[u64], out: &mut [u64]) {
        for ti in 0..self.inc.transition_count() {
            set_bit(
                out,
                ti,
                self.inc.is_enabled(TransitionId::from_index(ti), state),
            );
        }
    }

    fn apply(&mut self, a: usize, state: &[u64], out: &mut [u64]) {
        self.inc.fire_into(TransitionId::from_index(a), state, out);
    }

    fn update_enabled(&mut self, a: usize, state: &[u64], enabled: &mut [u64]) {
        for &t2 in self.inc.affected(TransitionId::from_index(a)) {
            set_bit(
                enabled,
                t2 as usize,
                self.inc
                    .is_enabled(TransitionId::from_index(t2 as usize), state),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Marking;

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

    fn cfg(max_states: usize, threads: usize) -> EngineConfig {
        EngineConfig {
            max_states,
            threads,
            ..EngineConfig::default()
        }
    }

    fn explore_net(net: &PetriNet, cfg: &EngineConfig) -> ExploredGraph {
        explore(|| NetSystem::new(net), cfg, None)
    }

    fn marking_of(net: &PetriNet, words: &[u64]) -> Marking {
        let mut m = Marking::empty(net.place_count());
        for p in net.places() {
            m.set(p, get_bit(words, p.index()));
        }
        m
    }

    #[test]
    fn incidence_agrees_with_net_enabledness() {
        let net = ring(5);
        let inc = Incidence::from_net(&net);
        let g = explore_net(&net, &cfg(1_000, 1));
        for i in 0..g.len() {
            let words = g.state_vec(i);
            let m = marking_of(&net, &words);
            for t in net.transitions() {
                assert_eq!(inc.is_enabled(t, &words), net.is_enabled(t, &m));
            }
        }
    }

    #[test]
    fn fire_into_matches_net_fire() {
        let net = ring(4);
        let inc = Incidence::from_net(&net);
        let g = explore_net(&net, &cfg(1_000, 1));
        let mut dst = vec![0u64; g.stride()];
        for i in 0..g.len() {
            let words = g.state_vec(i);
            let m = marking_of(&net, &words);
            for t in net.transitions() {
                if inc.is_enabled(t, &words) {
                    inc.fire_into(t, &words, &mut dst);
                    assert_eq!(marking_of(&net, &dst), net.fire(t, &m).unwrap());
                }
            }
        }
    }

    #[test]
    fn affected_sets_cover_every_status_flip() {
        // brute-force cross-check: firing t in any reachable marking only
        // changes the enabledness of transitions in affected(t)
        let net = ring(6);
        let inc = Incidence::from_net(&net);
        let g = explore_net(&net, &cfg(1_000, 1));
        let mut dst = vec![0u64; g.stride()];
        for i in 0..g.len() {
            let words = g.state_vec(i);
            for t in net.transitions() {
                if !inc.is_enabled(t, &words) {
                    continue;
                }
                inc.fire_into(t, &words, &mut dst);
                for t2 in net.transitions() {
                    let flipped = inc.is_enabled(t2, &words) != inc.is_enabled(t2, &dst);
                    if flipped {
                        assert!(
                            inc.affected(t).contains(&(t2.index() as u32)),
                            "{t2:?} flipped but is not in affected({t:?})"
                        );
                    }
                }
            }
        }
    }

    /// Auto threads inside a spawned pool worker is one thread; on the
    /// caller and on the inline single worker it stays one per core.
    #[test]
    fn auto_threads_is_one_inside_a_pool_worker() {
        let auto = || EngineConfig::default().resolved_threads();
        let outside = auto();
        assert_eq!(rap_pool::run_workers(2, |_| auto()), vec![Ok(1), Ok(1)]);
        assert_eq!(rap_pool::run_workers(1, |_| auto()), vec![Ok(outside)]);
        assert_eq!(auto(), outside);
        // an explicit count is never overridden
        let two = EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        };
        assert_eq!(
            rap_pool::run_workers(2, |_| two.resolved_threads()),
            vec![Ok(2), Ok(2)]
        );
    }

    #[test]
    fn dedup_table_grows_correctly() {
        // a ring large enough to force several shard-table growths
        let net = ring(3000);
        let g = explore_net(&net, &cfg(10_000, 2));
        assert_eq!(g.len(), 3000);
        assert!(!g.is_truncated());
    }

    #[test]
    fn zero_place_net_has_single_state() {
        let mut net = PetriNet::new();
        net.add_transition("noop");
        let g = explore_net(&net, &cfg(10, 1));
        // `noop` has no arcs: it is enabled and loops on the only state
        assert_eq!(g.len(), 1);
        assert_eq!(g.successors(0), &[(0, 0)]);
        assert!(!g.is_truncated());
    }

    #[test]
    fn truncation_reports_the_limit() {
        let net = ring(10);
        for threads in [1usize, 2] {
            let g = explore_net(&net, &cfg(4, threads));
            assert_eq!(g.outcome(), ExploreOutcome::Truncated { limit: 4 });
            assert_eq!(g.len(), 4);
        }
    }

    /// Engine ≡ naive reference explorer on `net`, across thread counts
    /// and budgets — the unit-level version of the differential suite:
    /// same words, CSR edges and parent traces.
    fn assert_matches_naive(net: &PetriNet, budgets: &[usize]) {
        for &budget in budgets {
            let naive = crate::reachability::explore_naive(net, budget);
            let mut words = vec![0u64; naive.word_count()];
            for threads in [1usize, 2, 4] {
                let g = explore_net(net, &cfg(budget, threads));
                let ctx = format!("t={threads} b={budget}");
                assert_eq!(g.len(), naive.len(), "{ctx}");
                assert_eq!(g.outcome(), naive.outcome(), "{ctx}");
                assert_eq!(g.succ_off.len(), g.len() + 1, "{ctx}");
                for s in naive.states() {
                    let i = s.index();
                    naive.fill_marking_words(s, &mut words);
                    assert_eq!(g.state_vec(i), words, "{ctx}: state {i}");
                    let edges: Vec<(u32, u32)> = naive
                        .successors(s)
                        .iter()
                        .map(|&(t, n)| (t.index() as u32, n.index() as u32))
                        .collect();
                    assert_eq!(g.successors(i), edges.as_slice(), "{ctx}: edges {i}");
                    let trace: Vec<u32> =
                        naive.trace_to(s).iter().map(|t| t.index() as u32).collect();
                    assert_eq!(g.trace_to(i), trace, "{ctx}: parents {i}");
                }
            }
        }
    }

    #[test]
    fn engine_matches_naive_exactly() {
        assert_matches_naive(&ring(64), &[usize::MAX, 64, 17, 3, 1]);
    }

    /// Delta storage reconstructs every state bit-exactly on a wide-state
    /// system (3 words per marking: an anchor every 8 levels, deltas in
    /// between).
    #[test]
    fn delta_reconstruction_is_exact_on_wide_states() {
        let net = ring(150);
        let g = explore_net(&net, &cfg(1_000, 1));
        assert!(g.anchor_count() < g.len(), "deltas were actually used");
        assert_matches_naive(&net, &[1_000, 75]);
    }

    /// A ring is rotation-symmetric: the quotient under the full cyclic
    /// group collapses all n token positions into one orbit.
    #[test]
    fn ring_quotient_collapses_rotations() {
        let n = 8usize;
        let net = ring(n);
        // generator: place i -> i+1, transition i -> i+1 (mod n)
        let bit_perm: Vec<u32> = (0..n as u32).map(|i| (i + 1) % n as u32).collect();
        let act_perm = bit_perm.clone();
        let sym = StateSymmetry::new(bit_perm, act_perm).unwrap();
        assert_eq!(sym.order(), n);
        let full = explore_net(&net, &cfg(1_000, 1));
        let quo = explore(|| NetSystem::new(&net), &cfg(1_000, 1), Some(&sym));
        assert_eq!(full.len(), n);
        assert_eq!(quo.len(), 1);
        // concrete trace reconstruction: the quotient self-loop unrotates to
        // a concretely firable transition from the concrete initial state
        let rep_rot = quo.rotation(0);
        let mut concrete = vec![0u64; quo.stride()];
        sym.unapply_state(rep_rot, &quo.state_vec(0), &mut concrete);
        assert_eq!(concrete, full.state_vec(0));
    }

    #[test]
    fn symmetry_rejects_non_permutations() {
        assert!(StateSymmetry::new(vec![0, 0], vec![0, 1]).is_err());
        assert!(StateSymmetry::new(vec![0, 2], vec![0, 1]).is_err());
        let id = StateSymmetry::new(vec![0, 1], vec![0]).unwrap();
        assert_eq!(id.order(), 1);
    }

    #[test]
    fn canonicalize_picks_least_rotation_and_reports_it() {
        // 4-bit cyclic shift: states 0b0010 -> canon 0b0001 at some power
        let perm: Vec<u32> = (0..4).map(|i| (i + 1) % 4).collect();
        let sym = StateSymmetry::new(perm, vec![0]).unwrap();
        let raw = [0b0100u64];
        let mut canon = [0u64];
        let mut tmp = [0u64];
        let j = sym.canonicalize(&raw, &mut canon, &mut tmp);
        assert_eq!(canon[0], 0b0001);
        // applying g^j to raw reproduces the canon, and the inverse returns
        let mut back = [0u64];
        sym.apply_state(j, &raw, &mut back);
        assert_eq!(back, canon);
        sym.unapply_state(j, &canon, &mut back);
        assert_eq!(back, raw);
    }
}
