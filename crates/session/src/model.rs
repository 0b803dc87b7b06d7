//! [`CompiledModel`]: one interned DFS model with demand-computed, memoized
//! derived artifacts.

use crate::persist::{
    decode_check, decode_cost, decode_perf, decode_steady, encode_check, encode_cost, encode_perf,
    encode_steady, steady_subkey, Persist,
};
use crate::Error;
use dfs_core::perf::{analyse_with_activity, PerfDetail, PerfReport};
use dfs_core::timed::{measure_steady_period, ChoicePolicy, SteadyStatePeriod};
use dfs_core::{to_petri, Dfs, DfsError, Lts, NodeId, PetriImage};
use rap_obs::{CounterSnapshot, Meter, Obs};
use rap_petri::analysis::QuickCheck;
use rap_petri::engine::{EngineConfig, ExploreOutcome};
use rap_silicon::cost::CostModel;
use rap_store::QueryKind;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A keyed cache slot. The `Arc` lets a query hold the slot outside the
/// map lock while it computes; the `OnceLock` is the in-flight
/// reservation — the first caller to reach `get_or_init` computes, every
/// concurrent caller blocks on that one computation instead of
/// duplicating it.
type Slot<T> = Arc<OnceLock<T>>;
type SlotMap<K, T> = Mutex<HashMap<K, Slot<T>>>;

fn keyed_slot<K, T>(map: &SlotMap<K, T>, key: K) -> Slot<T>
where
    K: std::hash::Hash + Eq,
{
    Arc::clone(map.lock().expect("slot map").entry(key).or_default())
}

/// The engine settings of a budgeted query, recording into `obs`.
fn engine_config(max_states: usize, obs: &Obs) -> EngineConfig {
    EngineConfig {
        max_states,
        obs: obs.clone(),
        ..EngineConfig::default()
    }
}

/// The trace names of one query kind: its `session.query.<kind>` span and
/// its `session.<kind>.query` / `.compute` / `.disk_hit` counters.
struct Kind {
    span: &'static str,
    query: &'static str,
    compute: &'static str,
    disk_hit: &'static str,
}

macro_rules! kind {
    ($name:literal) => {
        Kind {
            span: concat!("session.query.", $name),
            query: concat!("session.", $name, ".query"),
            compute: concat!("session.", $name, ".compute"),
            disk_hit: concat!("session.", $name, ".disk_hit"),
        }
    };
}

/// Where a persisted query's artifact lives in the store, and its payload
/// codec over the cached value: `encode` answers `None` for a value that
/// is never committed (a cached error).
struct Stored<'a, T> {
    kind: QueryKind,
    subkey: u64,
    decode: &'a dyn Fn(&[u8]) -> Option<T>,
    encode: &'a dyn Fn(&T) -> Option<Vec<u8>>,
}

/// Per-query-kind counters of one [`CompiledModel`] (also the aggregate
/// shape of [`SessionStats::queries`](crate::SessionStats)).
///
/// For every query kind, `*_queries` counts calls and the second field
/// counts actual computations; the difference is the number of calls
/// served from cache. Because every computation runs under an in-flight
/// reservation, each computation counter is bounded by the number of
/// distinct cache keys of its query — `petri_translations` and
/// `perf_analyses` can never exceed 1 per model.
///
/// `ModelStats` is a *view* over the model's `rap-obs` counter set (see
/// [`ModelStats::from_counters`]); each model's counters are copied under
/// a single lock, so a query/computation pair can never tear apart. Note
/// the aliasing: a query served by a verified on-disk frame counts as a
/// cache hit here (it did not compute) *and* as a `store.read.hit` in
/// [`rap_store::StoreStats`] — the session-level and store-level views
/// deliberately overlap, so never sum them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field names are the documentation (pattern above)
pub struct ModelStats {
    pub petri_queries: u64,
    pub petri_translations: u64,
    pub perf_queries: u64,
    pub perf_analyses: u64,
    pub lts_queries: u64,
    pub lts_explorations: u64,
    pub check_queries: u64,
    pub check_runs: u64,
    pub cost_queries: u64,
    pub cost_evaluations: u64,
    pub steady_queries: u64,
    pub steady_measurements: u64,
}

impl ModelStats {
    /// Total queries of every kind.
    #[must_use]
    pub fn queries(&self) -> u64 {
        self.petri_queries
            + self.perf_queries
            + self.lts_queries
            + self.check_queries
            + self.cost_queries
            + self.steady_queries
    }

    /// Total computations actually performed.
    #[must_use]
    pub fn computations(&self) -> u64 {
        self.petri_translations
            + self.perf_analyses
            + self.lts_explorations
            + self.check_runs
            + self.cost_evaluations
            + self.steady_measurements
    }

    /// Queries served from cache: [`queries`](Self::queries) −
    /// [`computations`](Self::computations).
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.queries() - self.computations()
    }

    /// Builds the view from a coherent counter snapshot, using the
    /// `session.<kind>.query` / `session.<kind>.compute` taxonomy names
    /// (see the `rap-obs` crate docs).
    #[must_use]
    pub fn from_counters(c: &CounterSnapshot) -> ModelStats {
        ModelStats {
            petri_queries: c.get("session.petri.query"),
            petri_translations: c.get("session.petri.compute"),
            perf_queries: c.get("session.perf.query"),
            perf_analyses: c.get("session.perf.compute"),
            lts_queries: c.get("session.lts.query"),
            lts_explorations: c.get("session.lts.compute"),
            check_queries: c.get("session.check.query"),
            check_runs: c.get("session.check.compute"),
            cost_queries: c.get("session.cost.query"),
            cost_evaluations: c.get("session.cost.compute"),
            steady_queries: c.get("session.steady.query"),
            steady_measurements: c.get("session.steady.compute"),
        }
    }
}

/// The silicon-cost summary of a model under one [`CostModel`]: the two
/// voltage-independent quantities every energy/area objective builds on.
/// Bit-identical to calling [`CostModel::area`] and
/// [`CostModel::switched_ge_per_item`] (with the exact activity from
/// [`analyse_with_activity`]) directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSummary {
    /// Total gate-equivalent area (excluded stages included: silicon is
    /// committed at tape-out).
    pub area: f64,
    /// Gate equivalents switched per item, weighted by the exact per-node
    /// steady-state activity.
    pub switched_ge_per_item: f64,
}

impl CostSummary {
    /// Energy per item at supply `v` under `cost` — delegates to the
    /// single [`CostModel::energy_from_parts`] formula.
    #[must_use]
    pub fn energy_per_item(&self, cost: &CostModel, period_units: f64, v: f64) -> f64 {
        self.switching_and_leakage(cost, cost.period_seconds(period_units, v), v)
    }

    fn switching_and_leakage(&self, cost: &CostModel, period_s: f64, v: f64) -> f64 {
        cost.energy_from_parts(self.switched_ge_per_item, self.area, period_s, v)
    }
}

/// A compiled (interned) DFS model: an immutable [`Dfs`] plus a cache of
/// every derived artifact, each computed on first demand and shared by all
/// later queries — from any thread.
///
/// Obtained from [`Session::compile`](crate::Session::compile); see the
/// [crate docs](crate) for the caching and coherence contract. All queries
/// take `&self`: a compiled model is never mutated, and the underlying
/// [`Dfs`] is immutable by construction — to analyse a modified model,
/// build the new [`Dfs`] and compile it (**mutation = recompile**).
pub struct CompiledModel {
    dfs: Dfs,
    structural_hash: u64,
    identity_digest: u64,
    /// Store context of a persistent session; `None` = memory-only. The
    /// persisted queries (perf, check, cost, steady) consult the store
    /// inside their in-flight reservation: a verified disk frame fills the
    /// slot *without* counting as a computation, so restart-warm sweeps do
    /// zero full evaluations. The Petri image and LTS are recomputed, not
    /// persisted — see [`crate::persist`].
    persist: Option<Persist>,
    petri: OnceLock<PetriImage>,
    perf: OnceLock<Result<PerfDetail, Error>>,
    lts: SlotMap<usize, Result<Arc<Lts>, Error>>,
    checks: SlotMap<usize, Arc<QuickCheck>>,
    costs: SlotMap<u64, Result<CostSummary, Error>>,
    steady: SlotMap<(NodeId, u64), Result<SteadyStatePeriod, Error>>,
    /// Query/computation counters, mirrored into the session's recorder
    /// (if any) under the `session.*` taxonomy names.
    meter: Meter,
    /// The session's recorder handle; every query wraps itself in a
    /// `session.query.<kind>` span with `session.load` / `session.compute`
    /// / `session.commit` children. Recording is observation-only — it
    /// never changes what is computed or cached.
    obs: Obs,
}

impl std::fmt::Debug for CompiledModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledModel")
            .field("nodes", &self.dfs.node_count())
            .field("edges", &self.dfs.edge_count())
            .field(
                "structural_hash",
                &format_args!("{:#018x}", self.structural_hash),
            )
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl CompiledModel {
    pub(crate) fn new(
        dfs: Dfs,
        structural_hash: u64,
        identity_digest: u64,
        persist: Option<Persist>,
        obs: Obs,
    ) -> Self {
        CompiledModel {
            dfs,
            structural_hash,
            identity_digest,
            persist,
            petri: OnceLock::new(),
            perf: OnceLock::new(),
            lts: Mutex::new(HashMap::new()),
            checks: Mutex::new(HashMap::new()),
            costs: Mutex::new(HashMap::new()),
            steady: Mutex::new(HashMap::new()),
            meter: Meter::with_obs(obs.clone()),
            obs,
        }
    }

    /// The compiled model itself.
    #[must_use]
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// The canonical structural hash the model was interned under
    /// (see [`Dfs::structural_hash`]).
    #[must_use]
    pub fn structural_hash(&self) -> u64 {
        self.structural_hash
    }

    /// The byte-exact identity digest the model was interned under — the
    /// second half of the intern key, and of every persistent artifact's
    /// [`rap_store::ArtifactKey`].
    #[must_use]
    pub fn identity_digest(&self) -> u64 {
        self.identity_digest
    }

    /// Per-model query/computation counters — one coherent snapshot (a
    /// single lock acquisition; the query/compute pair of a kind can never
    /// tear apart).
    #[must_use]
    pub fn stats(&self) -> ModelStats {
        ModelStats::from_counters(&self.counter_snapshot())
    }

    /// The raw coherent counter snapshot [`stats`](Self::stats) is a view
    /// over (taxonomy-named; includes the `session.<kind>.disk_hit`
    /// counters the legacy struct does not surface).
    #[must_use]
    pub fn counter_snapshot(&self) -> CounterSnapshot {
        self.meter.snapshot()
    }

    /// The recorder handle this model records into (detached unless the
    /// owning session was built with `Session::with_recorder` or
    /// `Session::open_traced`).
    #[must_use]
    pub fn recorder(&self) -> &Obs {
        &self.obs
    }

    /// The one query lifecycle every query runs through: inside a
    /// `session.query.<kind>` span, reserve `slot`; the caller that wins the
    /// reservation first tries the store (`session.load`, persisted kinds
    /// of a persistent session only), else runs `compute` (under
    /// `session.compute`) and commits a storable result (`session.commit`).
    /// The kind's counters are bumped under one meter lock. The flag is
    /// `true` iff *this* call ran `compute`.
    fn query<'s, T>(
        &self,
        kind: Kind,
        slot: &'s OnceLock<T>,
        stored: Option<Stored<'_, T>>,
        compute: impl FnOnce(&Obs) -> T,
    ) -> (&'s T, bool) {
        let span = self.obs.span(kind.span);
        let qobs = span.obs();
        let (mut computed, mut disk_hit) = (false, false);
        let value = slot.get_or_init(|| {
            let store = self.persist.as_ref().zip(stored);
            if let Some((p, s)) = &store {
                let loaded = qobs.time("session.load", |_| p.load(s.kind, s.subkey, s.decode));
                if let Some(v) = loaded {
                    disk_hit = true;
                    return v;
                }
            }
            computed = true;
            let v = qobs.time("session.compute", compute);
            if let Some((p, s)) = &store {
                if let Some(payload) = (s.encode)(&v) {
                    qobs.time("session.commit", |_| p.save(s.kind, s.subkey, &payload));
                }
            }
            v
        });
        let outcome = if disk_hit {
            kind.disk_hit
        } else {
            kind.compute
        };
        self.meter.bump2(kind.query, outcome, computed || disk_hit);
        (value, computed)
    }

    /// The Petri-net image (Fig. 3 translation) — computed once, equal to
    /// [`to_petri()`]`(self.dfs())`.
    pub fn petri(&self) -> &PetriImage {
        self.query(kind!("petri"), &self.petri, None, |_| to_petri(&self.dfs))
            .0
    }

    /// The exact throughput analysis with per-node activity — computed
    /// once, equal to [`analyse_with_activity`]`(self.dfs())`. For models
    /// with dynamic registers this is the single phase unfolding every
    /// perf/cost query shares.
    ///
    /// # Errors
    ///
    /// The cached [`DfsError`](dfs_core::DfsError) of the analysis (e.g. a
    /// token-free cycle); errors are cached like results, so a failing
    /// model is analysed once, not once per query.
    pub fn perf_detail(&self) -> Result<&PerfDetail, Error> {
        self.perf_detail_traced().0
    }

    /// [`perf_detail`](Self::perf_detail), also reporting whether *this*
    /// call performed the analysis (`true`) or was served from a cache —
    /// in-memory, in-flight (blocked on a concurrent twin's computation),
    /// or a verified on-disk frame of a persistent session — (`false`).
    /// Sweep drivers use this for exact work accounting; a restart-warm
    /// sweep over an intact store reports `false` throughout.
    pub fn perf_detail_traced(&self) -> (Result<&PerfDetail, Error>, bool) {
        let stored = Stored {
            kind: QueryKind::Perf,
            subkey: 0,
            decode: &|b| decode_perf(b).map(Ok),
            encode: &|r: &Result<_, _>| r.as_ref().ok().map(encode_perf),
        };
        let (res, analysed) = self.query(kind!("perf"), &self.perf, Some(stored), |_| {
            analyse_with_activity(&self.dfs).map_err(Error::from)
        });
        (res.as_ref().map_err(Clone::clone), analysed)
    }

    /// The throughput report — the `report` half of
    /// [`perf_detail`](Self::perf_detail), equal to
    /// [`dfs_core::perf::analyse`]`(self.dfs())`.
    ///
    /// # Errors
    ///
    /// Same as [`perf_detail`](Self::perf_detail).
    pub fn perf(&self) -> Result<&PerfReport, Error> {
        self.perf_detail().map(|d| &d.report)
    }

    /// Whether the throughput analysis has already completed (either way);
    /// `false` while a concurrent computation is still in flight.
    #[must_use]
    pub fn analysed(&self) -> bool {
        self.perf.get().is_some()
    }

    /// The reachable LTS of the direct semantics under `budget` —
    /// computed once per distinct budget, equal to
    /// [`Lts::explore`]`(self.dfs(), &cfg, None)` with `cfg.max_states =
    /// budget`.
    ///
    /// # Errors
    ///
    /// The cached [`DfsError::StateBudgetExceeded`](dfs_core::DfsError)
    /// when the state space exceeds `budget`.
    pub fn lts(&self, budget: usize) -> Result<Arc<Lts>, Error> {
        let slot = keyed_slot(&self.lts, budget);
        let (res, _) = self.query(kind!("lts"), &slot, None, |o| {
            let lts = Lts::explore(&self.dfs, &engine_config(budget, o), None);
            match lts.outcome() {
                ExploreOutcome::Complete => Ok(Arc::new(lts)),
                ExploreOutcome::Truncated { limit } => {
                    Err(DfsError::StateBudgetExceeded { budget: limit }.into())
                }
            }
        });
        res.clone()
    }

    /// The budgeted deadlock/1-safety screen over the Petri image —
    /// computed once per distinct budget, equal to
    /// [`quick_check`](rap_petri::analysis::quick_check)`(&img.net,
    /// &img.complementary_pairs(), &cfg)` with `cfg.max_states = budget`.
    /// Demands [`petri`](Self::petri), so the translation is still
    /// performed at most once per model; a disk hit skips the whole
    /// pipeline, the translation included.
    #[must_use]
    pub fn quick_check(&self, budget: usize) -> Arc<QuickCheck> {
        let slot = keyed_slot(&self.checks, budget);
        let stored = Stored {
            kind: QueryKind::Check,
            subkey: budget as u64,
            decode: &|b| decode_check(b).map(Arc::new),
            encode: &|c: &Arc<QuickCheck>| Some(encode_check(c)),
        };
        let (check, _) = self.query(kind!("check"), &slot, Some(stored), |o| {
            let img = self.petri();
            Arc::new(rap_petri::analysis::quick_check(
                &img.net,
                &img.complementary_pairs(),
                &engine_config(budget, o),
            ))
        });
        Arc::clone(check)
    }

    /// Area and switched-GE of the model under `cost` — computed once per
    /// distinct cost model (keyed by [`CostModel::cache_key`]). Demands
    /// [`perf_detail`](Self::perf_detail) for the exact activity, so the
    /// phase unfolding is still performed at most once per model.
    ///
    /// # Errors
    ///
    /// Propagates the cached error of the throughput analysis.
    pub fn cost(&self, cost: &CostModel) -> Result<CostSummary, Error> {
        let cache_key = cost.cache_key();
        let slot = keyed_slot(&self.costs, cache_key);
        let stored = Stored {
            kind: QueryKind::Cost,
            subkey: cache_key,
            decode: &|b| decode_cost(b).map(Ok),
            encode: &|r: &Result<_, _>| r.as_ref().ok().map(encode_cost),
        };
        let (res, _) = self.query(kind!("cost"), &slot, Some(stored), |_| {
            let detail = self.perf_detail()?;
            Ok(CostSummary {
                area: cost.area(&self.dfs),
                switched_ge_per_item: cost
                    .switched_ge_per_item(&self.dfs, &detail.activity_per_item),
            })
        });
        res.clone()
    }

    /// The timed simulator's exact steady-state recurrence at `output`
    /// under the `AlwaysTrue` choice policy (the policy the analysis is
    /// certified against) — computed once per distinct `(output,
    /// max_marks)`, equal to
    /// [`measure_steady_period`]`(self.dfs(), output, max_marks,
    /// ChoicePolicy::AlwaysTrue)`.
    ///
    /// # Errors
    ///
    /// The cached simulation error
    /// ([`SimulationStalled`](dfs_core::DfsError::SimulationStalled) /
    /// [`NoSteadyState`](dfs_core::DfsError::NoSteadyState)).
    pub fn steady_period(
        &self,
        output: NodeId,
        max_marks: u64,
    ) -> Result<SteadyStatePeriod, Error> {
        let slot = keyed_slot(&self.steady, (output, max_marks));
        let stored = Stored {
            kind: QueryKind::Steady,
            subkey: steady_subkey(output, max_marks),
            decode: &|b| decode_steady(b, output, max_marks).map(Ok),
            encode: &|r: &Result<_, _>| {
                r.as_ref()
                    .ok()
                    .map(|sp| encode_steady(output, max_marks, sp))
            },
        };
        let (res, _) = self.query(kind!("steady"), &slot, Some(stored), |_| {
            measure_steady_period(&self.dfs, output, max_marks, ChoicePolicy::AlwaysTrue)
                .map_err(Error::from)
        });
        res.clone()
    }
}
