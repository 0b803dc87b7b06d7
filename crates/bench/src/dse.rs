//! The `dse_pareto` sweep: the paper's design space explored end to end,
//! persisted as `BENCH_dse.json`.
//!
//! The full space is the OPE product requirement of §III/§IV — hardware
//! that can serve window demands up to 6 — crossed with the operating
//! conditions the paper measures: static, reconfigurable (with and
//! without the shared-loop optimisation) and 1–3-way wagged-replicated
//! pipelines, a 4-point datapath sizing grid and a 4-point supply grid,
//! evaluated at every demanded depth 1–6. That is 576 distinct
//! configurations, of which only the distinct *structures* (64) ever pay
//! for a full evaluation — the memo and pruning counters in the emitted
//! JSON record exactly how much work the driver avoided.
//!
//! The acceptance anchor is the paper's design point: the reconfigurable
//! OPE pipeline, 6 stages, operating at depth 4, nominal sizing and
//! supply — `fig5_performance`'s exact period-19 row — must appear on the
//! demand-4 Pareto front.

use crate::json::{Field, Json, Layout, Node};
use rap_dse::pareto::Objectives;
use rap_dse::{explore_traced, DesignSpace, DseConfig, DseOutcome, Hardware};
use rap_obs::{Obs, Snapshot};
use rap_ope::dfs_model::ope_stage_delays;
use rap_silicon::cost::CostModel;
use std::ops::Bound;
use std::time::Instant;

/// Schema tag embedded in (and required from) the emitted JSON. `v2`
/// added the `warm` object: the same sweep re-run against the warm
/// session, recording what the cross-sweep artifact cache saves. `v3`
/// added the `restart` object and store counters: the sweep now runs over
/// a persistent artifact store, and a *fresh* session over the same
/// directory — a simulated process restart — must perform zero full
/// evaluations, every structure served from disk.
pub const SCHEMA: &str = "rap/dse-pareto/v3";

/// The label of the paper's design point in the full sweep.
pub const PAPER_DESIGN_POINT: &str = "reconfigurable(6)@d4 s1 1.2V";

/// The exact period of the paper's design point (model time units; the
/// `fig5_performance` row pinned in `tests/experiments_hold.rs`).
pub const PAPER_DESIGN_PERIOD: f64 = 19.0;

/// The demand class whose front anchors the acceptance check.
pub const PAPER_WORKLOAD: usize = 4;

/// The full paper space (576 configurations) or the CI smoke space
/// (`quick`, 48 configurations over 3-stage hardware).
#[must_use]
pub fn paper_space(quick: bool) -> DesignSpace {
    if quick {
        DesignSpace {
            hardware: vec![
                Hardware::Static { stages: 3 },
                Hardware::Reconfigurable {
                    stages: 3,
                    share_ctrl: true,
                },
                Hardware::Wagged { ways: 1, stages: 3 },
                Hardware::Wagged { ways: 2, stages: 3 },
            ],
            workloads: vec![1, 2, 3],
            sizings: vec![1.0, 1.5],
            voltages: vec![0.9, 1.2],
            delays: ope_stage_delays(),
        }
    } else {
        DesignSpace {
            hardware: vec![
                Hardware::Static { stages: 6 },
                Hardware::Reconfigurable {
                    stages: 6,
                    share_ctrl: true,
                },
                Hardware::Reconfigurable {
                    stages: 6,
                    share_ctrl: false,
                },
                Hardware::Wagged { ways: 1, stages: 6 },
                Hardware::Wagged { ways: 2, stages: 6 },
                Hardware::Wagged { ways: 3, stages: 6 },
            ],
            workloads: (1..=6).collect(),
            sizings: vec![0.75, 1.0, 1.5, 2.0],
            voltages: vec![0.7, 0.9, 1.2, 1.6],
            delays: ope_stage_delays(),
        }
    }
}

/// A completed sweep with its timing: the cold pass (store-backed
/// session), a warm pass of the identical space against the now-populated
/// session, and a *restart* pass — a fresh session over the same store
/// directory, simulating a process restart served entirely from disk.
#[derive(Debug)]
pub struct SweepRun {
    /// The cold-pass outcome.
    pub outcome: DseOutcome,
    /// Wall-clock of the cold pass (ms).
    pub elapsed_ms: f64,
    /// Verification engine runs of the cold pass (the session's
    /// `check_runs`): delay-only twins share one run per screen budget,
    /// and a disk-served screen needs none.
    pub check_runs: u64,
    /// Wall-clock of the warm pass (ms).
    pub warm_elapsed_ms: f64,
    /// Counters of the warm pass (full evaluations ≈ 0: every structure
    /// is served from the session cache).
    pub warm_stats: rap_dse::SweepStats,
    /// Wall-clock of the restart pass (ms).
    pub restart_elapsed_ms: f64,
    /// Counters of the restart pass (full evaluations = 0: every
    /// structure is served from the persistent store).
    pub restart_stats: rap_dse::SweepStats,
    /// Store counters of the restart session (disk hits, bytes read…).
    pub restart_store: rap_session::StoreStats,
    /// Threads used.
    pub threads: usize,
    /// Quick space?
    pub quick: bool,
}

/// Runs the sweep with the default driver configuration.
///
/// `cache` names the persistent artifact-store directory. `None` uses a
/// scratch directory removed before returning; passing a real path makes
/// the sweep's artifacts survive the process, so a *re-invocation* over
/// the same path starts disk-warm (the CI warm-restart job drives this
/// through `dse_pareto --cache`). Either way the run includes an
/// in-process restart pass: a fresh session over the store directory that
/// must reproduce the fronts bit-identically with **zero** full
/// evaluations.
///
/// The three passes open `dse.pass.cold` / `dse.pass.warm` /
/// `dse.pass.restart` spans under `obs`, each sweep's `dse.sweep`/`dse.eval`
/// spans and provenance events nest inside its pass, and the sessions and
/// stores are opened traced so the full query lifecycle (`session.*`) and
/// disk latencies (`store.*_ns`) land in the same collector. Pass
/// [`Obs::none`] to record nothing. Recording is observation-only: the
/// returned fronts are bit-identical either way (`tests/trace_schema.rs`
/// asserts it across a traced and an untraced run).
///
/// # Panics
///
/// Panics if the store directory cannot be opened (locked or unwritable),
/// if the sweep hits evaluation errors, if any pass drifts from the cold
/// fronts, if the restart pass recomputes anything, or, in the full
/// space, if the documented depth-monotonicity assumption behind the
/// sibling pruning bound is violated by the recorded evaluations (a
/// tripwire; the front-equivalence property is additionally tested with
/// pruning disabled in `rap-dse`'s test-suite).
#[must_use]
pub fn run_sweep(quick: bool, cache: Option<&std::path::Path>, obs: &Obs) -> SweepRun {
    let space = paper_space(quick);
    let cost = CostModel::default();
    let cfg = DseConfig::default();
    let (store_dir, scratch) = match cache {
        Some(dir) => (dir.to_path_buf(), false),
        None => {
            use std::sync::atomic::{AtomicU64, Ordering};
            static N: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "rap-dse-store-{}-{}",
                std::process::id(),
                N.fetch_add(1, Ordering::Relaxed)
            ));
            (dir, true)
        }
    };
    // store opens do real I/O (dir creation, lock fsync, orphan sweep):
    // keep them inside spans so cold-cache runs stay fully accounted
    let session = {
        let _span = obs.span("session.open");
        rap_session::Session::open_traced(&store_dir, obs.clone())
            .unwrap_or_else(|e| panic!("cannot open artifact store {}: {e:?}", store_dir.display()))
    };
    let t0 = Instant::now();
    let outcome = {
        let pass = obs.span("dse.pass.cold");
        explore_traced(&space, &cost, &cfg, &session, &pass.obs())
    };
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    let check_runs = session.stats().queries.check_runs;
    // warm pass: the identical space against the populated session — the
    // cross-sweep artifact cache serves every structure, so the fronts
    // must be identical and (almost) no full evaluation happens
    let t1 = Instant::now();
    let warm = {
        let pass = obs.span("dse.pass.warm");
        explore_traced(&space, &cost, &cfg, &session, &pass.obs())
    };
    let warm_elapsed_ms = t1.elapsed().as_secs_f64() * 1e3;
    assert_fronts_identical(&outcome, &warm);
    assert!(
        warm.stats.full_evaluations <= outcome.stats.full_evaluations,
        "warm pass re-evaluated more than the cold pass"
    );
    // restart pass: drop the session (releasing the store lock), open a
    // fresh one over the same directory and re-sweep — every structure is
    // served from disk, so the fronts are bit-identical at zero full
    // evaluations: the crash-safety contract, measured
    drop(session);
    let session = {
        let _span = obs.span("session.open");
        rap_session::Session::open_traced(&store_dir, obs.clone())
            .unwrap_or_else(|e| panic!("cannot reopen artifact store: {e:?}"))
    };
    let t2 = Instant::now();
    let restart = {
        let pass = obs.span("dse.pass.restart");
        explore_traced(&space, &cost, &cfg, &session, &pass.obs())
    };
    let restart_elapsed_ms = t2.elapsed().as_secs_f64() * 1e3;
    assert_fronts_identical(&outcome, &restart);
    assert_eq!(
        restart.stats.full_evaluations, 0,
        "a restarted sweep over an intact store must recompute nothing"
    );
    let restart_store = session.stats().store;
    assert!(
        restart_store.disk_hits > 0,
        "the restart pass never touched the store"
    );
    drop(session);
    if scratch {
        let _span = obs.span("bench.cleanup");
        let _ = std::fs::remove_dir_all(&store_dir);
    }
    assert_eq!(outcome.stats.errors, 0, "sweep produced evaluation errors");
    assert_eq!(outcome.stats.panics, 0, "a sweep worker panicked");
    assert_eq!(
        outcome.stats.check_violations, 0,
        "a swept configuration failed its verification screen"
    );
    // tripwire for the sibling bound's monotonicity assumption: among the
    // recorded evaluations, a reconfigurable point must never get faster
    // when operating deeper (same hardware and sizing)
    for a in &outcome.evaluations {
        for b in &outcome.evaluations {
            if a.config.hardware == b.config.hardware
                && matches!(a.config.hardware, Hardware::Reconfigurable { .. })
                && a.config.sizing == b.config.sizing
                && a.config.workload < b.config.workload
            {
                assert!(
                    a.period_units <= b.period_units + 1e-9,
                    "depth monotonicity violated: {} ({}) vs {} ({})",
                    a.label,
                    a.period_units,
                    b.label,
                    b.period_units
                );
            }
        }
    }
    SweepRun {
        outcome,
        elapsed_ms,
        check_runs,
        warm_elapsed_ms,
        warm_stats: warm.stats,
        restart_elapsed_ms,
        restart_stats: restart.stats,
        restart_store,
        threads: cfg.threads,
        quick,
    }
}

/// Bitwise front equality between two sweeps of the same space (labels,
/// objectives, periods): what "the cache changes the cost, never the
/// answer" means operationally — and, since tracing is observation-only,
/// also what "a recorder changes nothing" means (`tests/trace_schema.rs`
/// pins a traced sweep against an untraced one with this).
///
/// # Panics
///
/// On the first differing front entry.
pub fn assert_fronts_identical(a: &DseOutcome, b: &DseOutcome) {
    assert_eq!(a.fronts.len(), b.fronts.len(), "front count differs");
    for (workload, fa) in &a.fronts {
        let fb = b.front(*workload);
        assert_eq!(
            fa.len(),
            fb.len(),
            "front size differs at demand {workload}"
        );
        for (x, y) in fa.iter().zip(fb) {
            assert_eq!(x.label, y.label);
            assert_eq!(
                x.objectives.throughput.to_bits(),
                y.objectives.throughput.to_bits()
            );
            assert_eq!(
                x.objectives.energy_per_item.to_bits(),
                y.objectives.energy_per_item.to_bits()
            );
            assert_eq!(x.objectives.area.to_bits(), y.objectives.area.to_bits());
            assert_eq!(x.period_units.to_bits(), y.period_units.to_bits());
        }
    }
}

/// Renders a sweep as the `BENCH_dse.json` document, with a
/// `trace_summary` member (wall-clock, span coverage, top-5 spans by
/// self-time) when `trace` holds a traced run's [`Snapshot`]. The member
/// is additive: every measured number is the same with or without it.
#[must_use]
pub fn render_json(run: &SweepRun, trace: Option<&Snapshot>) -> String {
    use Layout::Block;
    let ms = |x: f64| Node::Fixed(x, 3);
    let pass = |elapsed_ms: f64, stats: &rap_dse::SweepStats| {
        vec![
            ("elapsed_ms", ms(elapsed_ms)),
            ("full_evaluations", stats.full_evaluations.into()),
            ("memo_hits", stats.memo_hits.into()),
            ("pruned", stats.pruned.into()),
        ]
    };
    let stats = &run.outcome.stats;
    let store = &run.restart_store;
    let mut restart = pass(run.restart_elapsed_ms, &run.restart_stats);
    restart.push((
        "store",
        Node::Obj(
            Block,
            vec![
                ("disk_hits", store.disk_hits.into()),
                ("disk_misses", store.disk_misses.into()),
                ("bytes_read", store.bytes_read.into()),
                ("bytes_written", store.bytes_written.into()),
                ("corrupt_recovered", store.corrupt_recovered.into()),
                ("write_errors", store.write_errors.into()),
            ],
        ),
    ));
    let (dp_label, dp_workload) = design_point(run.quick);
    let dp = run
        .outcome
        .front(dp_workload)
        .iter()
        .find(|e| e.label == dp_label);
    let fronts = run.outcome.fronts.iter().map(|(workload, front)| {
        let points = front.iter().map(|e| {
            Node::Obj(
                Block,
                vec![
                    ("label", e.label.as_str().into()),
                    // lossless emission: near-ties (e.g. the shared- vs
                    // separate-loop variants at the same period) must not
                    // collapse into exact ties, or the validator's dominance
                    // re-check would disagree with the full-precision kernel
                    ("throughput", Node::Exp(e.objectives.throughput)),
                    ("energy_per_item", Node::Exp(e.objectives.energy_per_item)),
                    ("area", Node::Exp(e.objectives.area)),
                    ("period_units", Node::Fixed(e.period_units, 6)),
                    ("phases", u64::from(e.phases).into()),
                    ("memoized", e.memoized.into()),
                    (
                        "check",
                        if e.check_truncated {
                            "inconclusive"
                        } else {
                            "clean"
                        }
                        .into(),
                    ),
                ],
            )
        });
        Node::Obj(
            Block,
            vec![
                ("workload", (*workload).into()),
                ("points", Node::Arr(Block, points.collect())),
            ],
        )
    });

    let mut doc = vec![
        ("schema", SCHEMA.into()),
        ("quick", run.quick.into()),
        ("threads", run.threads.into()),
        ("elapsed_ms", ms(run.elapsed_ms)),
    ];
    doc.extend(trace.map(|snap| ("trace_summary", crate::trace::summary(snap))));
    doc.extend([
        (
            "stats",
            Node::Obj(
                Block,
                vec![
                    ("configurations", stats.enumerated.into()),
                    ("full_evaluations", stats.full_evaluations.into()),
                    ("memo_hits", stats.memo_hits.into()),
                    ("pruned", stats.pruned.into()),
                    ("check_inconclusive", stats.check_inconclusive.into()),
                ],
            ),
        ),
        (
            "warm",
            Node::Obj(Block, pass(run.warm_elapsed_ms, &run.warm_stats)),
        ),
        ("restart", Node::Obj(Block, restart)),
        (
            "design_point",
            Node::Obj(
                Block,
                vec![
                    ("label", dp_label.into()),
                    ("workload", dp_workload.into()),
                    ("on_front", dp.is_some().into()),
                    (
                        "period_units",
                        dp.map(|e| Node::Fixed(e.period_units, 6)).into(),
                    ),
                ],
            ),
        ),
        ("fronts", Node::Arr(Block, fronts.collect())),
    ]);
    Node::Obj(Block, doc).write()
}

/// The acceptance design point per mode: the paper's OPE(6,4) row in the
/// full space, its 3-stage analogue in the quick space.
#[must_use]
pub fn design_point(quick: bool) -> (&'static str, usize) {
    if quick {
        ("reconfigurable(3)@d2 s1 1.2V", 2)
    } else {
        (PAPER_DESIGN_POINT, PAPER_WORKLOAD)
    }
}

/// Summary extracted from a valid `BENCH_dse.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Enumerated configurations.
    pub configurations: usize,
    /// Full structural evaluations performed.
    pub full_evaluations: usize,
    /// Memo-table hits.
    pub memo_hits: usize,
    /// Pruned configurations.
    pub pruned: usize,
    /// Per workload: front size.
    pub front_sizes: Vec<(usize, usize)>,
    /// Was the mode's design point on its front?
    pub design_point_on_front: bool,
}

/// The range of objectives and periods: strictly positive.
const POSITIVE: (Bound<f64>, Bound<f64>) = (Bound::Excluded(0.0), Bound::Unbounded);

/// The member `key` of `f` as a `usize` count.
fn count(f: &Field, key: &str) -> Result<usize, String> {
    #[allow(clippy::cast_possible_truncation)]
    Ok(f.get(key)?.count()? as usize)
}

/// A pass's `(full_evaluations, memo_hits, pruned)`, which must add up to
/// the enumerated `configurations`.
fn work(pass: &Field, configurations: usize) -> Result<(usize, usize, usize), String> {
    let full = count(pass, "full_evaluations")?;
    let memo = count(pass, "memo_hits")?;
    let pruned = count(pass, "pruned")?;
    if full + memo + pruned != configurations {
        return Err(pass.err(&format!(
            "work accounting broken: {full} + {memo} + {pruned} != {configurations}"
        )));
    }
    Ok((full, memo, pruned))
}

/// Validates a `BENCH_dse.json` document against the [`SCHEMA`] (v3)
/// shape and the semantic invariants of the sweep, returning its summary.
///
/// Beyond shape checks, this re-verifies that every emitted front is
/// mutually non-dominated and sorted by descending throughput, that the
/// work accounting of every pass adds up (`full + memo + pruned =
/// configurations`), that the warm pass evaluated no more than the cold
/// one, that the restart pass performed zero full evaluations and read
/// the store, and — for full (non-quick) documents — that the sweep
/// covered ≥ 500 configurations, that memoization plus pruning measurably
/// reduced full evaluations, and that the paper's OPE(6,4) design point
/// sits on the demand-4 front with its pinned period.
///
/// # Errors
///
/// A description of the first violation found.
pub fn validate(src: &str) -> Result<Summary, String> {
    let parsed = Json::parse(src)?;
    let doc = Field::root(&parsed);
    let schema = doc.get("schema")?.str()?;
    if schema != SCHEMA {
        return Err(format!("schema is {schema:?}, expected {SCHEMA:?}"));
    }
    let quick = doc.get("quick")?.bool()?;
    doc.get("elapsed_ms")?.num_in(0.0..)?;
    // optional (only present when the run was traced), but well-formed
    // when it is there
    if let Some(ts) = doc.opt("trace_summary") {
        crate::trace::check_summary(&ts)?;
    }

    let stats = doc.get("stats")?;
    let configurations = count(&stats, "configurations")?;
    let (full_evaluations, memo_hits, pruned) = work(&stats, configurations)?;

    // the warm pass: same accounting, and the session cache must not
    // *increase* the number of full evaluations
    let warm = doc.get("warm")?;
    warm.get("elapsed_ms")?.num_in(0.0..)?;
    let (warm_full, _, _) = work(&warm, configurations)?;
    if warm_full > full_evaluations {
        return Err(format!(
            "warm pass performed more full evaluations ({warm_full}) than the cold pass ({full_evaluations})"
        ));
    }

    // the restart pass (v3): the crash-safety acceptance — a fresh session
    // over the same store directory performs zero full evaluations, and it
    // actually read the store (a restart that silently recomputed in
    // memory would also report zero disk hits)
    let restart = doc.get("restart")?;
    restart.get("elapsed_ms")?.num_in(0.0..)?;
    let (restart_full, _, _) = work(&restart, configurations)?;
    if restart_full != 0 {
        return Err(format!(
            "restarted sweep performed {restart_full} full evaluations (must be 0: \
             every structure is served from the persistent store)"
        ));
    }
    let store = restart.get("store")?;
    if count(&store, "disk_hits")? == 0 {
        return Err("restarted sweep never read the store".to_string());
    }
    if count(&store, "bytes_read")? == 0 {
        return Err("restarted sweep read zero bytes".to_string());
    }
    // deliberately NOT required: bytes_written > 0 — a re-invocation over
    // an already-populated --cache directory writes nothing anywhere
    for key in [
        "bytes_written",
        "disk_misses",
        "corrupt_recovered",
        "write_errors",
    ] {
        count(&store, key)?;
    }

    let fronts = doc.get("fronts")?.items()?;
    if fronts.is_empty() {
        return Err("\"fronts\" is empty".to_string());
    }
    let mut front_sizes = Vec::new();
    for f in &fronts {
        let workload = count(f, "workload")?;
        let points = f.get("points")?.items()?;
        if points.is_empty() {
            return Err(format!("front for workload {workload} is empty"));
        }
        let mut objs: Vec<Objectives> = Vec::new();
        for p in &points {
            p.get("label")?.str()?;
            objs.push(Objectives {
                throughput: p.get("throughput")?.num_in(POSITIVE)?,
                energy_per_item: p.get("energy_per_item")?.num_in(POSITIVE)?,
                area: p.get("area")?.num_in(POSITIVE)?,
            });
            p.get("period_units")?.num_in(POSITIVE)?;
        }
        for (i, a) in objs.iter().enumerate() {
            if i + 1 < objs.len() && a.throughput < objs[i + 1].throughput {
                return Err(format!(
                    "workload {workload}: front not sorted by descending throughput at {i}"
                ));
            }
            for (j, b) in objs.iter().enumerate() {
                if i != j && a.dominates(b) {
                    return Err(format!(
                        "workload {workload}: front point {i} dominates point {j}"
                    ));
                }
            }
        }
        front_sizes.push((workload, points.len()));
    }

    let dp = doc.get("design_point")?;
    let on_front = dp.get("on_front")?.bool()?;
    if !on_front {
        return Err("the design point is not on its Pareto front".to_string());
    }
    let dp_label = dp.get("label")?.str()?;

    if !quick {
        if configurations < 500 {
            return Err(format!(
                "full sweep covered only {configurations} configurations (need >= 500)"
            ));
        }
        if memo_hits == 0 || full_evaluations >= configurations {
            return Err("memoization/pruning did not reduce full evaluations".to_string());
        }
        if dp_label != PAPER_DESIGN_POINT {
            return Err(format!(
                "full-sweep design point is {dp_label:?}, expected {PAPER_DESIGN_POINT:?}"
            ));
        }
        let period = dp.get("period_units")?.num()?;
        if (period - PAPER_DESIGN_PERIOD).abs() > 1e-6 {
            return Err(format!(
                "design-point period {period} drifted from the pinned {PAPER_DESIGN_PERIOD}"
            ));
        }
    }

    Ok(Summary {
        configurations,
        full_evaluations,
        memo_hits,
        pruned,
        front_sizes,
        design_point_on_front: on_front,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_dse::Evaluation;

    fn point(
        hardware: Hardware,
        workload: usize,
        objectives: (f64, f64, f64),
        period_units: f64,
        memoized: bool,
        check_truncated: bool,
    ) -> Evaluation {
        let config = rap_dse::Config {
            hardware,
            workload,
            sizing: 1.0,
            voltage: 1.2,
            delays: ope_stage_delays(),
        };
        Evaluation {
            label: config.label(),
            config,
            objectives: Objectives {
                throughput: objectives.0,
                energy_per_item: objectives.1,
                area: objectives.2,
            },
            period_units,
            phases: 2,
            check_truncated,
            check_violated: false,
            memoized,
        }
    }

    /// A quick-mode sweep with fixed timings and counters, so the
    /// documents rendered from it are byte-stable.
    fn fixed_run() -> SweepRun {
        let reconfigurable = Hardware::Reconfigurable {
            stages: 3,
            share_ctrl: true,
        };
        let fronts: std::collections::BTreeMap<usize, Vec<Evaluation>> = [
            (
                1,
                vec![
                    point(
                        Hardware::Wagged { ways: 2, stages: 3 },
                        1,
                        (2.345_678_901_234_5e8, 1.5e-11, 2400.0),
                        10.5,
                        false,
                        true,
                    ),
                    point(
                        Hardware::Static { stages: 3 },
                        1,
                        (1.25e8, 9.0e-12, 1150.25),
                        19.0,
                        true,
                        false,
                    ),
                ],
            ),
            (
                2,
                vec![point(
                    reconfigurable,
                    2,
                    (1.3157894736842106e8, 1.0e-11, 1300.0),
                    19.0,
                    false,
                    false,
                )],
            ),
        ]
        .into_iter()
        .collect();
        SweepRun {
            outcome: DseOutcome {
                evaluations: fronts.values().flatten().cloned().collect(),
                fronts,
                stats: rap_dse::SweepStats {
                    enumerated: 48,
                    full_evaluations: 12,
                    memo_hits: 30,
                    pruned: 6,
                    check_inconclusive: 1,
                    ..rap_dse::SweepStats::default()
                },
            },
            elapsed_ms: 812.345_6,
            check_runs: 4,
            warm_elapsed_ms: 3.0,
            warm_stats: rap_dse::SweepStats {
                enumerated: 48,
                memo_hits: 42,
                pruned: 6,
                ..rap_dse::SweepStats::default()
            },
            restart_elapsed_ms: 41.999_9,
            restart_stats: rap_dse::SweepStats {
                enumerated: 48,
                memo_hits: 42,
                pruned: 6,
                ..rap_dse::SweepStats::default()
            },
            restart_store: rap_session::StoreStats {
                disk_hits: 12,
                bytes_read: 34_567,
                ..rap_session::StoreStats::default()
            },
            threads: 2,
            quick: true,
        }
    }

    #[test]
    fn golden_bytes() {
        let run = fixed_run();
        let plain = render_json(&run, None);
        validate(&plain).unwrap();
        assert_eq!(plain, include_str!("../tests/golden/dse.json"));
        let snap = crate::trace::tests::fixed_snapshot();
        let traced = render_json(&run, Some(&snap));
        validate(&traced).unwrap();
        assert_eq!(traced, include_str!("../tests/golden/dse_traced.json"));
    }

    #[test]
    fn validation_rejects_broken_documents() {
        let run = fixed_run();
        let good = render_json(&run, None);
        let front = "\"workload\": 1,\n      \"points\"";
        assert!(good.contains(front));
        for workload in ["-1", "2.5"] {
            let bad = good.replace(front, &front.replace('1', workload));
            assert!(validate(&bad).is_err(), "accepted workload {workload}");
        }
        let traced = render_json(&run, Some(&crate::trace::tests::fixed_snapshot()));
        for bad in crate::trace::tests::broken_summaries(&traced) {
            assert!(validate(&bad).is_err(), "accepted:\n{bad}");
        }
    }
}
