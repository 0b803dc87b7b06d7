//! The `state_space_scaling` sweep: explorer timings over the paper's
//! pipeline shapes, persisted as `BENCH_state_space.json` (schema v2).
//!
//! The sweep drives both state-space backends — Petri-net reachability and
//! the direct-semantics LTS — over `PipelineSpec::reconfigurable_depth`
//! instances and wagged pipelines. Per case it times:
//!
//! * the retained naive explorer (`reachability::explore_naive`,
//!   `Lts::explore_naive` — the seed implementations);
//! * the state-space engine across a **threads axis**, asserting on every
//!   sample that state count and truncation agree with the naive explorer
//!   (hence are thread-count-invariant); the threads=1 sample is the
//!   case's `engine_ms`;
//! * for wagged shapes, the symmetry **quotient** (one state per way-rotation
//!   orbit), recording the reduced state count — the `quotient_states` axis.
//!
//! The emitted JSON is this repo's recorded perf trajectory; its schema is
//! validated by [`validate`], which both the binary and the smoke tests run.

use crate::json::{Field, Json, Layout, Node};
use dfs_core::pipelines::{build_pipeline, PipelineSpec};
use dfs_core::wagging::wagged_pipeline;
use dfs_core::{node_rotation_symmetry, to_petri, Dfs, Lts};
use rap_obs::{Obs, Snapshot};
use rap_petri::engine::{EngineConfig, StateSymmetry};
use rap_petri::reachability::{explore, explore_naive};
use std::time::Instant;

/// Schema tag embedded in (and required from) the emitted JSON.
pub const SCHEMA: &str = "rap/state-space-scaling/v2";

/// State budget for every sweep case (none of the swept shapes truncate).
pub const MAX_STATES: usize = 16_000_000;

/// The threads axis swept by every case.
pub const THREADS: &[usize] = &[1, 2, 4];

/// One point of a case's threads axis.
#[derive(Debug, Clone, Copy)]
pub struct ThreadSample {
    /// Worker threads of the parallel engine.
    pub threads: usize,
    /// Best-of-N wall-clock, milliseconds.
    pub ms: f64,
}

/// One measured sweep case.
#[derive(Debug, Clone)]
pub struct Case {
    /// Model shape, e.g. `reconfigurable_depth(3,3)`.
    pub name: String,
    /// `"petri"` (PN reachability) or `"lts"` (direct semantics).
    pub backend: &'static str,
    /// States discovered (identical for every explorer by construction).
    pub states: usize,
    /// Whether the budget truncated exploration.
    pub truncated: bool,
    /// Best-of-N wall-clock of the naive (seed) explorer, milliseconds.
    pub naive_ms: f64,
    /// Best-of-N wall-clock of the engine at one thread, milliseconds.
    pub engine_ms: f64,
    /// The engine across the threads axis (count/truncation asserted
    /// identical to the naive explorer at every point).
    pub threads: Vec<ThreadSample>,
    /// Orbit representatives of the symmetry quotient (wagged shapes only).
    pub quotient_states: Option<usize>,
    /// Best-of-N wall-clock of the quotient exploration, milliseconds.
    pub quotient_ms: Option<f64>,
}

impl Case {
    /// Naive-over-engine (one thread) wall-clock ratio.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.naive_ms / self.engine_ms
    }

    /// Wall-clock ratio of the threads=1 sample over the max-threads sample
    /// (> 1 means parallel exploration pays off; on a single-core host it
    /// hovers near 1).
    #[must_use]
    pub fn thread_speedup(&self) -> f64 {
        match (self.threads.first(), self.threads.last()) {
            (Some(t1), Some(tn)) if tn.ms > 0.0 => t1.ms / tn.ms,
            _ => 1.0,
        }
    }

    /// Full-over-quotient state-count ratio (≈ the symmetry group order).
    #[must_use]
    pub fn quotient_reduction(&self) -> Option<f64> {
        self.quotient_states
            .map(|q| self.states as f64 / q.max(1) as f64)
    }
}

/// Best-of-`reps` wall-clock of `f`, in milliseconds, with `f`'s last result.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        last = Some(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (last.expect("reps >= 1"), best)
}

/// `(states, truncated)` of one exploration — all the sweep compares.
type Outcome = (usize, bool);

fn petri_case(name: &str, dfs: &Dfs, reps: usize, way_rotation: Option<&[u32]>, obs: &Obs) -> Case {
    // one span per case; the engine explorations below feed their
    // per-level expand/dedup/commit spans into it, so a traced
    // BENCH_state_space.json can attribute each case's time to the
    // engine's phases
    let case_span = obs.span("bench.case.petri");
    let img = to_petri(dfs);
    let sym = way_rotation.map(|perm| {
        img.induced_symmetry(perm)
            .expect("way rotation induces a net automorphism")
            .state_symmetry()
            .clone()
    });
    measure_case(
        name,
        "petri",
        reps,
        sym.as_ref(),
        &case_span.obs(),
        || {
            let space = explore_naive(&img.net, MAX_STATES);
            (space.len(), space.is_truncated())
        },
        |cfg, sym| {
            let space = explore(&img.net, cfg, sym);
            (space.len(), space.is_truncated())
        },
    )
}

fn lts_case(name: &str, dfs: &Dfs, reps: usize, way_rotation: Option<&[u32]>, obs: &Obs) -> Case {
    let case_span = obs.span("bench.case.lts");
    let sym = way_rotation.map(|perm| {
        node_rotation_symmetry(dfs, perm).expect("way rotation is a structural automorphism")
    });
    measure_case(
        name,
        "lts",
        reps,
        sym.as_ref(),
        &case_span.obs(),
        || {
            let lts = Lts::explore_naive(dfs, MAX_STATES);
            (lts.len(), lts.is_truncated())
        },
        |cfg, sym| {
            let lts = Lts::explore(dfs, cfg, sym);
            (lts.len(), lts.is_truncated())
        },
    )
}

/// Times the naive explorer, the engine across [`THREADS`] (recording
/// into `obs`) and, given a symmetry, the engine's quotient at one thread.
fn measure_case(
    name: &str,
    backend: &'static str,
    reps: usize,
    sym: Option<&StateSymmetry>,
    obs: &Obs,
    naive: impl Fn() -> Outcome,
    engine: impl Fn(&EngineConfig, Option<&StateSymmetry>) -> Outcome,
) -> Case {
    let cfg = |threads: usize| EngineConfig {
        max_states: MAX_STATES,
        threads,
        obs: obs.clone(),
        ..EngineConfig::default()
    };
    let (reference, naive_ms) = best_of(reps, &naive);
    let mut threads = Vec::new();
    for &t in THREADS {
        let (got, ms) = best_of(reps, || engine(&cfg(t), None));
        assert_eq!(
            got, reference,
            "{name}: engine at {t} threads disagrees with the naive explorer"
        );
        threads.push(ThreadSample { threads: t, ms });
    }
    let (quotient_states, quotient_ms) = match sym {
        Some(sym) => {
            let ((states, truncated), ms) = best_of(reps, || engine(&cfg(1), Some(sym)));
            assert!(!truncated, "{name}: quotient truncated");
            (Some(states), Some(ms))
        }
        None => (None, None),
    };
    Case {
        name: name.to_string(),
        backend,
        states: reference.0,
        truncated: reference.1,
        naive_ms,
        engine_ms: threads[0].ms,
        threads,
        quotient_states,
        quotient_ms,
    }
}

/// Runs the sweep. `quick` restricts it to sub-second shapes (CI smoke);
/// the full sweep covers the acceptance shape `reconfigurable_depth(3,3)`
/// and the 2-way wagged pipeline (~1.5M states).
///
/// Each case opens a `bench.case.petri` / `bench.case.lts` span under
/// `obs`, and the parallel and quotient explorations inside it emit the
/// engine's per-level `engine.level.expand` / `engine.level.dedup` /
/// `engine.level.commit` spans plus the `engine.*` counters — so a traced
/// `BENCH_state_space.json` can attribute each case's wall-clock to the
/// engine's phases. Pass [`Obs::none`] to record nothing. Recording is
/// observation-only: states, truncation and every
/// thread-count-invariance assertion are unchanged.
#[must_use]
pub fn run_sweep(quick: bool, obs: &Obs) -> Vec<Case> {
    let reconfig = |n: usize, k: usize| {
        build_pipeline(&PipelineSpec::reconfigurable_depth(n, k).expect("valid sweep shape"))
            .expect("pipeline builds")
            .dfs
    };
    let wagged = |ways: usize| wagged_pipeline(ways, 1, 1.0).expect("wagging builds");

    let mut cases = Vec::new();
    cases.push(petri_case(
        "reconfigurable_depth(2,2)",
        &reconfig(2, 2),
        5,
        None,
        obs,
    ));
    cases.push(lts_case(
        "reconfigurable_depth(2,2)",
        &reconfig(2, 2),
        5,
        None,
        obs,
    ));
    let w1 = wagged(1);
    cases.push(petri_case("wagging(ways=1,depth=1)", &w1.dfs, 3, None, obs));
    if !quick {
        cases.push(petri_case(
            "reconfigurable_depth(3,2)",
            &reconfig(3, 2),
            2,
            None,
            obs,
        ));
        cases.push(petri_case(
            "reconfigurable_depth(3,3)",
            &reconfig(3, 3),
            3,
            None,
            obs,
        ));
        cases.push(lts_case(
            "reconfigurable_depth(3,3)",
            &reconfig(3, 3),
            2,
            None,
            obs,
        ));
        cases.push(lts_case("wagging(ways=1,depth=1)", &w1.dfs, 3, None, obs));
        let w2 = wagged(2);
        cases.push(petri_case(
            "wagging(ways=2,depth=1)",
            &w2.dfs,
            1,
            Some(&w2.way_rotation),
            obs,
        ));
    }
    cases
}

/// Renders the sweep as the `BENCH_state_space.json` document, with a
/// `trace_summary` member (wall-clock, span coverage, top-5 spans by
/// self-time) when `trace` holds a traced run's [`Snapshot`] — the
/// per-level engine spans let the document say how the sweep's
/// wall-clock splits across expand/dedup/commit. The member is additive:
/// every measured number is the same with or without it.
#[must_use]
pub fn render_json(cases: &[Case], quick: bool, trace: Option<&Snapshot>) -> String {
    use Layout::{Block, Inline};
    let ms = |x: f64| Node::Fixed(x, 3);
    let rows = cases.iter().map(|c| {
        let threads = c.threads.iter().map(|t| {
            Node::Obj(
                Inline,
                vec![("threads", t.threads.into()), ("ms", ms(t.ms))],
            )
        });
        Node::Obj(
            Block,
            vec![
                ("name", c.name.as_str().into()),
                ("backend", c.backend.into()),
                ("states", c.states.into()),
                ("truncated", c.truncated.into()),
                ("naive_ms", ms(c.naive_ms)),
                ("engine_ms", ms(c.engine_ms)),
                ("threads", Node::Arr(Inline, threads.collect())),
                ("quotient_states", c.quotient_states.into()),
                ("quotient_ms", c.quotient_ms.map(ms).into()),
                ("speedup", ms(c.speedup())),
            ],
        )
    });
    let min = cases
        .iter()
        .map(Case::speedup)
        .fold(f64::INFINITY, f64::min);
    let geomean =
        (cases.iter().map(|c| c.speedup().ln()).sum::<f64>() / cases.len().max(1) as f64).exp();
    let max_thread = cases
        .iter()
        .map(Case::thread_speedup)
        .fold(1.0f64, f64::max);
    let max_quot = cases
        .iter()
        .filter_map(Case::quotient_reduction)
        .fold(1.0f64, f64::max);
    let mut doc = vec![
        ("schema", SCHEMA.into()),
        ("quick", quick.into()),
        ("max_states", MAX_STATES.into()),
    ];
    doc.extend(trace.map(|snap| ("trace_summary", crate::trace::summary(snap))));
    doc.push(("cases", Node::Arr(Block, rows.collect())));
    doc.push((
        "summary",
        Node::Obj(
            Block,
            vec![
                ("cases", cases.len().into()),
                ("min_speedup", Node::Fixed(min, 3)),
                ("geomean_speedup", Node::Fixed(geomean, 3)),
                ("max_thread_speedup", Node::Fixed(max_thread, 3)),
                ("max_quotient_reduction", Node::Fixed(max_quot, 3)),
            ],
        ),
    ));
    Node::Obj(Block, doc).write()
}

/// Summary extracted from a valid `BENCH_state_space.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of sweep cases.
    pub cases: usize,
    /// Minimum naive/engine speedup across cases.
    pub min_speedup: f64,
    /// Geometric-mean speedup across cases.
    pub geomean_speedup: f64,
    /// Largest threads=1 / threads=max wall-clock ratio across cases.
    pub max_thread_speedup: f64,
    /// Largest full/quotient state-count ratio across cases (1.0 when no
    /// case has a quotient axis).
    pub max_quotient_reduction: f64,
}

/// Validates a `BENCH_state_space.json` document against the v2 schema and
/// returns its summary.
///
/// Beyond shape checks, this re-derives each case's speedup from its
/// timings, requires every threads axis to be strictly increasing and
/// every quotient to lie in `[1, states]`, and checks the summary's case
/// count and minimum speedup against the cases.
///
/// # Errors
///
/// A description of the first schema violation found.
pub fn validate(src: &str) -> Result<Summary, String> {
    let parsed = Json::parse(src)?;
    let doc = Field::root(&parsed);
    let schema = doc.get("schema")?.str()?;
    if schema != SCHEMA {
        return Err(format!("schema is {schema:?}, expected {SCHEMA:?}"));
    }
    doc.get("quick")?.bool()?;
    // optional (only present when the run was traced), but well-formed
    // when it is there
    if let Some(ts) = doc.opt("trace_summary") {
        crate::trace::check_summary(&ts)?;
    }
    let cases = doc.get("cases")?.items()?;
    if cases.is_empty() {
        return Err("\"cases\" is empty".to_string());
    }
    let mut min = f64::INFINITY;
    for c in &cases {
        let backend = c.get("backend")?.str()?;
        if backend != "petri" && backend != "lts" {
            return Err(c.err(&format!("has unknown backend {backend:?}")));
        }
        c.get("name")?.str()?;
        c.get("truncated")?.bool()?;
        let states = c.get("states")?.count()? as f64;
        let naive_ms = c.get("naive_ms")?.num_in(0.0..)?;
        let engine_ms = c.get("engine_ms")?.num_in(0.0..)?;
        let speedup = c.get("speedup")?.num_in(0.0..)?;
        if states < 1.0 {
            return Err(c.err("has zero states"));
        }
        if engine_ms > 0.0 && (speedup - naive_ms / engine_ms).abs() > 0.05 * speedup.max(1.0) {
            return Err(c.err("has a speedup inconsistent with its timings"));
        }
        let threads = c.get("threads")?.items()?;
        if threads.is_empty() {
            return Err(c.err("has an empty threads axis"));
        }
        let mut prev = 0;
        for t in &threads {
            let tn = t.get("threads")?.count()?;
            if tn <= prev {
                return Err(c.err("has a threads axis that is not strictly increasing"));
            }
            prev = tn;
            t.get("ms")?.num_in(0.0..)?;
        }
        let qs = c.get("quotient_states")?;
        if *qs.value() != Json::Null {
            if !(1.0..=states).contains(&(qs.count()? as f64)) {
                return Err(qs.err("is outside [1, states]"));
            }
            c.get("quotient_ms")?.num_in(0.0..)?;
        }
        min = min.min(speedup);
    }
    let summary = doc.get("summary")?;
    if summary.get("cases")?.count()? != cases.len() as u64 {
        return Err("summary case count disagrees with \"cases\"".to_string());
    }
    let min_speedup = summary.get("min_speedup")?.num()?;
    if (min_speedup - min).abs() > 0.05 * min.max(1.0) {
        return Err("summary min_speedup disagrees with cases".to_string());
    }
    Ok(Summary {
        cases: cases.len(),
        min_speedup,
        geomean_speedup: summary.get("geomean_speedup")?.num()?,
        max_thread_speedup: summary.get("max_thread_speedup")?.num()?,
        max_quotient_reduction: summary.get("max_quotient_reduction")?.num()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_cases() -> Vec<Case> {
        vec![
            Case {
                name: "reconfigurable_depth(2,2)".into(),
                backend: "petri",
                states: 1536,
                truncated: false,
                naive_ms: 1.2,
                engine_ms: 0.4,
                threads: vec![
                    ThreadSample {
                        threads: 1,
                        ms: 0.4,
                    },
                    ThreadSample {
                        threads: 2,
                        ms: 0.25,
                    },
                ],
                quotient_states: None,
                quotient_ms: None,
            },
            Case {
                name: "wagging(ways=2,depth=1)".into(),
                backend: "lts",
                states: 1536,
                truncated: false,
                naive_ms: 2.0,
                engine_ms: 0.5,
                threads: vec![
                    ThreadSample {
                        threads: 1,
                        ms: 0.5,
                    },
                    ThreadSample {
                        threads: 2,
                        ms: 0.3,
                    },
                ],
                quotient_states: Some(800),
                quotient_ms: Some(0.3),
            },
        ]
    }

    #[test]
    fn golden_bytes() {
        let plain = render_json(&fake_cases(), true, None);
        validate(&plain).unwrap();
        assert_eq!(plain, include_str!("../tests/golden/state_space.json"));
        let snap = crate::trace::tests::fixed_snapshot();
        let traced = render_json(&fake_cases(), true, Some(&snap));
        validate(&traced).unwrap();
        assert_eq!(
            traced,
            include_str!("../tests/golden/state_space_traced.json")
        );
    }

    #[test]
    fn render_validate_roundtrip() {
        let json = render_json(&fake_cases(), true, None);
        let summary = validate(&json).unwrap();
        assert_eq!(summary.cases, 2);
        assert!((summary.min_speedup - 3.0).abs() < 0.05);
        assert!((summary.max_thread_speedup - 0.5 / 0.3).abs() < 0.05);
        assert!((summary.max_quotient_reduction - 1536.0 / 800.0).abs() < 0.05);
    }

    #[test]
    fn validation_rejects_broken_documents() {
        let good = render_json(&fake_cases(), true, None);
        assert!(validate(&good.replace(SCHEMA, "rap/state-space-scaling/v1")).is_err());
        assert!(validate(&good.replace("\"cases\"", "\"cazes\"")).is_err());
        assert!(validate(&good.replace("\"speedup\": 3.000", "\"speedup\": 9.000")).is_err());
        assert!(
            validate(&good.replace("\"threads\": [{", "\"threads\": [ ] , \"x\": [{")).is_err()
        );
        assert!(
            validate(&good.replace("\"quotient_states\": 800", "\"quotient_states\": 0")).is_err()
        );
        assert!(validate(&good.replace("\"cases\": 2,", "\"cases\": 2.7,")).is_err());
        assert!(validate("{}").is_err());
        assert!(validate("not json").is_err());
        // the trace_summary member is checked as strictly as in BENCH_dse.json
        let traced = render_json(
            &fake_cases(),
            true,
            Some(&crate::trace::tests::fixed_snapshot()),
        );
        for bad in crate::trace::tests::broken_summaries(&traced) {
            assert!(validate(&bad).is_err(), "accepted:\n{bad}");
        }
    }
}
