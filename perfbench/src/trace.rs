//! The traced run (`--trace 1`): per-layer figures measured from outside
//! the program.
//!
//! Every traced run replays the whole layer stack on the seed's inputs,
//! one public call at a time, with the benchmark's own timers around
//! each call:
//!
//! * the DSE replay — a cold sweep, a re-sweep on the warm session, then
//!   the swept space's configurations and distinct evaluated models
//!   serially through `Config::build`, `Session::compile`,
//!   `CompiledModel::{petri, perf_detail, quick_check, cost}`, and their
//!   artifacts through `Store::load` / `Store::save`;
//! * the verification replay — the `verify_full` cases one at a time.
//!
//! Counts come from the stats views the crates export (`SweepStats`,
//! `SessionStats`, `StoreStats`, `EngineStats`, `QuickCheck`), the engine
//! counters from a `rap_obs::Collector` attached through the session's
//! public recorder hook. The workload's own repetition then runs
//! alternately untraced and traced (recorder attached) for the rest of
//! `--seconds`, which gives `trace.overhead_ratio`, `process.cpu_util`
//! and the share of the untraced repetition the layer timers account
//! for. None of these numbers feed the end-to-end metrics.

use crate::inputs::Backend;
use crate::ops::{self, guarded, Work};
use crate::report::{median, quantile, ratio, Metrics};
use crate::{procstat, rep, Env, Outcome, Prepared, Workload};
use dfs_core::Dfs;
use rap_dse::{DseConfig, SweepStats};
use rap_obs::{Collector, Obs};
use rap_petri::engine::EngineStats;
use rap_session::store::{ArtifactKey, QueryKind};
use rap_session::{CostModel, Session, Store};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times `f`, adding its wall seconds to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_secs_f64();
    out
}

/// Repetitions of `Session::open` over the populated store.
const OPEN_REPETITIONS: usize = 5;

#[derive(Default)]
struct DseReplay {
    cold_wall: f64,
    cold_stats: SweepStats,
    /// Structures the cold sweep compiled but never analysed.
    unpersisted: usize,
    driver_s: f64,
    build_s: f64,
    compile_s: f64,
    compile_hit_ratio: f64,
    translate_s: f64,
    analyse_s: f64,
    check_s: Vec<f64>,
    checks_inconclusive: usize,
    engine: EngineStats,
    cost_s: f64,
    open_s: f64,
    read_s: f64,
    read_hits: u64,
    bytes_read: u64,
    write_s: f64,
    writes: u64,
    bytes_written: u64,
}

fn replay_dse(p: &Prepared, work: &Work, o: &mut Outcome) -> Result<DseReplay, String> {
    let inputs = &p.inputs;
    let mut r = DseReplay::default();
    let dir = work.fresh("replay-store");
    let session = Session::open(&dir).map_err(|e| format!("opening the store: {e}"))?;
    let t0 = Instant::now();
    let cold = ops::sweep(inputs, &session);
    r.cold_wall = t0.elapsed().as_secs_f64();
    r.cold_stats = cold.stats;
    o.record(ops::check_sweep(&p.reference, &cold, false));

    // the structures the cold sweep evaluated, with their artifact keys,
    // and those it pruned entirely (before a re-sweep can analyse them)
    let cost = CostModel::default();
    let budget = DseConfig::default().check_budget;
    let configs = inputs.space.enumerate();
    let mut seen = HashSet::new();
    let mut evaluated: Vec<Dfs> = Vec::new();
    let mut keys = Vec::new();
    for config in &configs {
        let Ok(dfs) = config.build() else { continue };
        let m = session.compile(&dfs);
        if !seen.insert(Arc::as_ptr(&m)) {
            continue;
        }
        if !m.analysed() {
            // every configuration of this structure was pruned
            r.unpersisted += 1;
        } else {
            evaluated.push(m.dfs().clone());
            for (kind, subkey) in [
                (QueryKind::Perf, 0),
                (QueryKind::Check, budget as u64),
                (QueryKind::Cost, cost.cache_key()),
            ] {
                keys.push(ArtifactKey {
                    structural: m.structural_hash(),
                    identity: m.identity_digest(),
                    kind,
                    subkey,
                });
            }
        }
    }
    // the driver on a warm session: a re-sweep after the cold one
    let warm = timed(&mut r.driver_s, || ops::sweep(inputs, &session));
    o.record(ops::check_sweep(&p.reference, &warm, false));
    drop(session);

    // rap-dse and rap-session: model construction and interning
    let dfss: Vec<Dfs> = timed(&mut r.build_s, || {
        configs.iter().filter_map(|c| c.build().ok()).collect()
    });
    let plain = Session::new();
    timed(&mut r.compile_s, || {
        for dfs in &dfss {
            black_box(plain.compile(dfs));
        }
    });
    let stats = plain.stats();
    r.compile_hit_ratio = ratio(stats.compile_hits as f64, stats.compiles as f64);

    // dfs-core, rap-petri and rap-silicon, one distinct model at a time
    let collector = Arc::new(Collector::new());
    let traced = Session::with_recorder(Obs::collecting(&collector));
    for dfs in &evaluated {
        let m = traced.compile(dfs);
        timed(&mut r.translate_s, || black_box(m.petri()));
        timed(&mut r.analyse_s, || m.perf_detail().map(|_| ()))
            .map_err(|e| format!("perf_detail of an evaluated model: {e}"))?;
        let mut check_s = 0.0;
        let q = timed(&mut check_s, || m.quick_check(budget));
        r.check_s.push(check_s);
        r.checks_inconclusive += usize::from(q.truncated && q.no_violation());
        timed(&mut r.cost_s, || m.cost(&cost))
            .map_err(|e| format!("cost of an evaluated model: {e}"))?;
    }
    r.engine = EngineStats::from_counters(&collector.snapshot().counters);

    // rap-store: every artifact read back, then written to a fresh store
    let store = Store::open(&dir).map_err(|e| format!("reopening the store: {e}"))?;
    let payloads: Vec<(ArtifactKey, Vec<u8>)> = timed(&mut r.read_s, || {
        keys.iter()
            .filter_map(|k| store.load(k).map(|bytes| (*k, bytes)))
            .collect()
    });
    let rs = store.stats();
    (r.read_hits, r.bytes_read) = (rs.disk_hits, rs.bytes_read);
    drop(store);
    o.record(if payloads.len() == keys.len() {
        Vec::new()
    } else {
        vec![format!(
            "the swept store served {} of {} artifacts",
            payloads.len(),
            keys.len()
        )]
    });
    let fresh = Store::open(work.fresh("replay-write"))
        .map_err(|e| format!("opening a fresh store: {e}"))?;
    r.writes = timed(&mut r.write_s, || {
        payloads
            .iter()
            .filter(|(k, bytes)| fresh.save(k, bytes))
            .count()
    }) as u64;
    r.bytes_written = fresh.stats().bytes_written;
    drop(fresh);

    // rap-session: opening the populated store, as a restart does
    let mut opens = Vec::new();
    for _ in 0..OPEN_REPETITIONS {
        let t0 = Instant::now();
        let s = Session::open(&dir).map_err(|e| format!("reopening the session: {e}"))?;
        opens.push(t0.elapsed().as_secs_f64());
        drop(s);
    }
    r.open_s = median(&opens);
    Ok(r)
}

#[derive(Default)]
struct VerifyReplay {
    compile_s: f64,
    compile_hit_ratio: f64,
    translate_s: f64,
    cases: Vec<ops::CaseOutcome>,
    engine: EngineStats,
    /// Seconds of the cases whose engine counters the collector saw
    /// (every case but the quotient, which has no recorder hook).
    engine_s: f64,
}

fn replay_verify(p: &Prepared, o: &mut Outcome) -> Result<VerifyReplay, String> {
    let inputs = &p.inputs;
    let mut r = VerifyReplay::default();
    let collector = Arc::new(Collector::new());
    let session = Session::with_recorder(Obs::collecting(&collector));
    let models = timed(&mut r.compile_s, || {
        inputs
            .verify
            .iter()
            .map(|c| session.compile(&c.dfs))
            .collect::<Vec<_>>()
    });
    let stats = session.stats();
    r.compile_hit_ratio = ratio(stats.compile_hits as f64, stats.compiles as f64);
    let mut seen = HashSet::new();
    for m in &models {
        if seen.insert(Arc::as_ptr(m)) {
            timed(&mut r.translate_s, || black_box(m.petri()));
        }
    }
    for case in &inputs.verify {
        let c = ops::check_case(case, &session)?;
        if case.backend != Backend::PetriQuotient {
            r.engine_s += c.check_s;
        }
        r.cases.push(c);
    }
    o.record(ops::check_pass(&p.reference, inputs, &r.cases));
    r.engine = EngineStats::from_counters(&collector.snapshot().counters);
    Ok(r)
}

/// Untraced and traced repetitions of the workload's own operation.
struct Overhead {
    untraced: Vec<f64>,
    traced: Vec<f64>,
    untraced_cpu: f64,
    last_sweep: Option<SweepStats>,
}

/// Alternates untraced and traced repetitions of the workload's own
/// operation until `deadline`, at least one of each.
fn overhead(
    w: Workload,
    p: &Prepared,
    work: &Work,
    deadline: Instant,
    env: &Env,
    o: &mut Outcome,
) -> Overhead {
    let mut oh = Overhead {
        untraced: Vec::new(),
        traced: Vec::new(),
        untraced_cpu: 0.0,
        last_sweep: None,
    };
    loop {
        let pair0 = Instant::now();
        let cpu0 = procstat::cpu_seconds(env.ticks_per_s);
        match guarded(|| rep(w, p, work, None)) {
            Ok(r) => {
                oh.untraced_cpu += procstat::cpu_seconds(env.ticks_per_s) - cpu0;
                oh.untraced.push(r.wall);
                o.record(r.bad);
            }
            Err(e) => o.record(vec![e]),
        }
        let collector = Arc::new(Collector::new());
        let obs = Obs::collecting(&collector);
        match guarded(|| rep(w, p, work, Some(&obs))) {
            Ok(r) => {
                oh.traced.push(r.wall);
                oh.last_sweep = r.sweep.or(oh.last_sweep);
                o.record(r.bad);
            }
            Err(e) => o.record(vec![e]),
        }
        // stop before a pair that would likely overrun the deadline
        if Instant::now() + pair0.elapsed() > deadline {
            return oh;
        }
    }
}

/// The traced run of workload `w`.
pub fn run(w: Workload, p: &Prepared, work: &Work, seconds: f64, env: &Env) -> Outcome {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut o = Outcome::default();
    let dse = guarded(|| replay_dse(p, work, &mut o));
    let ver = guarded(|| replay_verify(p, &mut o));
    let (dse, ver) = match (dse, ver) {
        (Ok(d), Ok(v)) => (d, v),
        (d, v) => {
            o.record(d.err().into_iter().chain(v.err()).collect());
            return o;
        }
    };
    let oh = overhead(w, p, work, deadline, env, &mut o);
    let untraced = median(&oh.untraced);
    let traced = median(&oh.traced);
    let verify = w == Workload::VerifyFull;

    let m = &mut o.metrics;
    // sweep counters: the workload's own traced sweep, or the replay's
    // cold sweep on verify_full
    let sweep = oh.last_sweep.unwrap_or(dse.cold_stats);
    let workers = env.dse_workers as f64;
    let dse_serial = dse.build_s
        + dse.compile_s
        + dse.translate_s
        + dse.analyse_s
        + dse.check_s.iter().sum::<f64>()
        + dse.cost_s
        + dse.write_s;
    m.put("dse.build_s", dse.build_s, "s");
    m.put("dse.driver_s", dse.driver_s, "s");
    m.put(
        "dse.full_evaluations",
        sweep.full_evaluations as f64,
        "count",
    );
    m.put("dse.memo_hits", sweep.memo_hits as f64, "count");
    m.put("dse.pruned", sweep.pruned as f64, "count");
    m.put(
        "dse.pruned_ratio",
        ratio(sweep.pruned as f64, sweep.enumerated as f64),
        "ratio",
    );
    m.put(
        "dse.unpersisted_structures",
        dse.unpersisted as f64,
        "count",
    );
    m.put(
        "dse.parallel_efficiency",
        ratio(dse_serial, dse.cold_wall * workers),
        "ratio",
    );

    // the workload's own replay supplies the layers both replays share
    let (compile_s, hit_ratio, translate_s) = if verify {
        (ver.compile_s, ver.compile_hit_ratio, ver.translate_s)
    } else {
        (dse.compile_s, dse.compile_hit_ratio, dse.translate_s)
    };
    let (check_s, inconclusive, engine, engine_s): (Vec<f64>, usize, EngineStats, f64) = if verify {
        let times: Vec<f64> = ver.cases.iter().map(|c| c.check_s).collect();
        let inconclusive = ver.cases.iter().filter(|c| c.inconclusive()).count();
        (times, inconclusive, ver.engine, ver.engine_s)
    } else {
        let total = dse.check_s.iter().sum();
        (
            dse.check_s.clone(),
            dse.checks_inconclusive,
            dse.engine,
            total,
        )
    };
    m.put("session.open_s", dse.open_s, "s");
    m.put("session.compile_s", compile_s, "s");
    m.put("session.compile_hit_ratio", hit_ratio, "ratio");
    m.put("petri.translate_s", translate_s, "s");
    m.put("perf.analyse_s", dse.analyse_s, "s");
    m.put("check.s", check_s.iter().sum(), "s");
    m.put("check.p50_ms", median(&check_s) * 1e3, "ms");
    m.put("check.max_ms", quantile(&check_s, 1.0) * 1e3, "ms");
    m.put(
        "check.inconclusive_ratio",
        ratio(inconclusive as f64, check_s.len() as f64),
        "ratio",
    );
    m.put("engine.states", engine.states as f64, "count");
    m.put("engine.edges", engine.edges as f64, "count");
    m.put("engine.levels", engine.levels as f64, "count");
    m.put(
        "engine.new_state_ratio",
        ratio(engine.states as f64, engine.edges as f64),
        "ratio",
    );
    m.put(
        "engine.states_per_s",
        ratio(engine.states as f64, engine_s),
        "1/s",
    );
    m.put("engine.threads", env.engine_threads as f64, "count");
    let case = |slot: &str| ver.cases.iter().find(|c| c.slot == slot);
    let states = |slot| case(slot).map_or(0.0, |c| c.states as f64);
    m.put(
        "engine.quotient_reduction",
        ratio(states("wagging2"), states("wagging2_quotient")),
        "ratio",
    );
    for (name, slot) in [
        ("verify.wagging2_s", "wagging2"),
        ("verify.wagging2_quotient_s", "wagging2_quotient"),
        ("verify.reconfig33_petri_s", "reconfig33_petri"),
        ("verify.reconfig33_lts_s", "reconfig33_lts"),
    ] {
        m.put(name, case(slot).map_or(f64::NAN, |c| c.check_s), "s");
    }
    m.put("cost.s", dse.cost_s, "s");
    m.put("store.write_s", dse.write_s, "s");
    m.put("store.writes", dse.writes as f64, "count");
    m.put("store.bytes_written", dse.bytes_written as f64, "B");
    m.put("store.read_s", dse.read_s, "s");
    m.put("store.read_hits", dse.read_hits as f64, "count");
    m.put("store.bytes_read", dse.bytes_read as f64, "B");

    // the layers each workload's repetition passes through, and the
    // share of its untraced wall time their timers account for
    let layers: Vec<(&str, f64)> = match w {
        Workload::DseCold => vec![
            ("dse.build_s", dse.build_s),
            ("session.compile_s", dse.compile_s),
            ("petri.translate_s", dse.translate_s),
            ("perf.analyse_s", dse.analyse_s),
            ("check.s", dse.check_s.iter().sum()),
            ("cost.s", dse.cost_s),
            ("store.write_s", dse.write_s),
        ],
        Workload::DseRestart => vec![
            ("session.open_s", dse.open_s),
            ("dse.build_s", dse.build_s),
            ("session.compile_s", dse.compile_s),
            ("store.read_s", dse.read_s),
        ],
        Workload::VerifyFull => {
            let mut v = vec![
                ("session.compile_s", ver.compile_s),
                ("petri.translate_s", ver.translate_s),
            ];
            v.extend(ver.cases.iter().map(|c| (c.slot, c.check_s)));
            v
        }
    };
    let span_total: f64 = layers.iter().map(|l| l.1).sum();
    let cpu_util = ratio(oh.untraced_cpu, oh.untraced.iter().sum());
    m.put("process.cpu_util", cpu_util, "ratio");
    m.put("trace.overhead_ratio", ratio(traced, untraced), "ratio");
    m.put("trace.span_share", ratio(span_total, untraced), "ratio");

    report_lines(m, w, &layers, untraced, traced, &oh);
    o
}

fn report_lines(
    m: &mut Metrics,
    w: Workload,
    layers: &[(&str, f64)],
    untraced: f64,
    traced: f64,
    oh: &Overhead,
) {
    let rep = if w == Workload::VerifyFull {
        "pass"
    } else {
        "sweep"
    };
    m.line(format!(
        "untraced {rep} {untraced:.6} s (median of n={}), traced {traced:.6} s (n={})",
        oh.untraced.len(),
        oh.traced.len()
    ));
    m.line(format!("layer time as a share of the untraced {rep}:"));
    for (name, s) in layers {
        m.line(format!(
            "  {name:<28} {s:>10.6} s  {:>7.3}",
            ratio(*s, untraced)
        ));
    }
    m.line("per-layer metrics:".to_string());
    let entries: Vec<String> = m
        .entries()
        .map(|(name, v, unit)| format!("  {name:<28} {v} {unit}"))
        .collect();
    m.lines.extend(entries);
}
