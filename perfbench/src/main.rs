//! `perfbench` — the rap benchmark.
//!
//! ```text
//! perfbench --workload dse_cold|dse_restart|verify_full|all --seed N
//!           --seconds S --trace 0|1 [--smoke] [--reference-dir DIR]
//!           [--work-dir DIR] [--print-reference]
//! ```
//!
//! One calling thread drives each workload in a closed loop for
//! `--seconds`, the library running its own defaults. Every output is
//! checked against the reference; a mismatch, error or panic fails the
//! run (exit 1). The last line of standard output is the result object.
//! With `--trace 1` a separate traced run reports the per-layer metrics.
//! `--workload all` runs each workload in its own child process, so one
//! workload's peak memory cannot leak into the next.

mod inputs;
mod ops;
mod procstat;
mod reference;
mod report;
mod result_line;
mod trace;

use inputs::{Inputs, Size};
use ops::{guarded, Work};
use reference::Reference;
use report::{median, quantile, ratio, Metrics};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload dse_cold|dse_restart|verify_full|all --seed N \
--seconds S --trace 0|1 [--smoke] [--reference-dir DIR] [--work-dir DIR] [--print-reference]";

/// At most this many mismatch descriptions are kept per run.
const MAX_PROBLEMS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DseCold,
    DseRestart,
    VerifyFull,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::DseCold,
        Workload::DseRestart,
        Workload::VerifyFull,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DseCold => "dse_cold",
            Workload::DseRestart => "dse_restart",
            Workload::VerifyFull => "verify_full",
        }
    }
}

struct Args {
    /// `None` = all workloads.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    reference_dir: Option<PathBuf>,
    work_dir: PathBuf,
    /// Child mode: perform one set-up in this fresh process and exit.
    setup_only: bool,
    /// The store a `dse_restart` set-up populates.
    store: Option<PathBuf>,
    print_reference: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        reference_dir: None,
        work_dir: PathBuf::from(".bench_work"),
        setup_only: false,
        store: None,
        print_reference: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("bad --seconds".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => args.size = Size::Smoke,
            "--reference-dir" => args.reference_dir = Some(PathBuf::from(value()?)),
            "--work-dir" => args.work_dir = PathBuf::from(value()?),
            "--setup-only" => args.setup_only = true,
            "--store" => args.store = Some(PathBuf::from(value()?)),
            "--print-reference" => args.print_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.workload = match workload.as_deref() {
        Some("all") => None,
        Some(w) => Some(
            Workload::ALL
                .into_iter()
                .find(|k| k.name() == w)
                .ok_or(format!("unknown workload {w}"))?,
        ),
        None => return Err("--workload is required".into()),
    };
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = if args.setup_only {
        match args.workload {
            Some(w) => setup_main(w, &args),
            None => 2,
        }
    } else if args.print_reference {
        print_reference(&args)
    } else {
        match args.workload {
            Some(w) => run_one(w, &args),
            None => run_all(&argv),
        }
    };
    std::process::exit(code);
}

/// The child side of a set-up: generate the seeded inputs, load the
/// reference and, given `--store`, populate it (`dse_restart`).
fn setup_main(w: Workload, args: &Args) -> i32 {
    let result = guarded(|| {
        let p = prepare(w, args)?;
        match &args.store {
            Some(dir) => ops::populate(dir, &p.inputs, &p.reference),
            None => Ok(()),
        }
    });
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench set-up: {e}");
            1
        }
    }
}

/// Prints the reference files' contents for the program as it is now.
fn print_reference(args: &Args) -> i32 {
    let inputs = Inputs::generate(args.size, args.seed, true);
    match args.workload {
        Some(Workload::VerifyFull) => {
            let outcomes = match ops::verify_pass(&inputs, None) {
                Ok((o, _)) => o,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return 1;
                }
            };
            println!("# model\tbackend\tbudget\tstates\tdeadlock_free\tsafe");
            for (case, o) in inputs.verify.iter().zip(outcomes) {
                println!(
                    "case\t{}\t{}\t{}\t{}\t{}\t{}",
                    case.model,
                    case.backend.tag(),
                    case.budget,
                    o.states,
                    o.deadlock_free,
                    o.safe
                );
            }
        }
        _ => {
            let out = ops::sweep(&inputs, &rap_session::Session::new());
            let (label, demand) = rap_bench::dse::design_point(args.size == Size::Smoke);
            print!("{}", reference::render_fronts(&out, (demand, label)));
        }
    }
    0
}

/// Host facts recorded next to every result.
pub struct Env {
    pub cores: usize,
    pub dse_workers: usize,
    pub engine_threads: usize,
    pub ticks_per_s: f64,
}

impl Env {
    fn detect() -> Env {
        Env {
            cores: procstat::cores(),
            dse_workers: rap_dse::DseConfig::default().threads,
            engine_threads: rap_petri::engine::EngineConfig::default().resolved_threads(),
            ticks_per_s: procstat::clock_ticks_per_s(),
        }
    }
}

/// One run's verdict and figures.
#[derive(Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// Counts one checked operation: `bad` lists its mismatches.
    pub fn record(&mut self, bad: Vec<String>) {
        self.attempted += 1;
        if !bad.is_empty() {
            self.failed += 1;
            for p in bad {
                if self.problems.len() < MAX_PROBLEMS {
                    self.problems.push(p);
                }
            }
        }
    }
}

fn run_one(w: Workload, args: &Args) -> i32 {
    let env = Env::detect();
    let outcome = guarded(|| run_workload(w, args, &env)).unwrap_or_else(|e| {
        let mut o = Outcome::default();
        o.record(vec![e]);
        o
    });
    for line in &outcome.metrics.lines {
        println!("{line}");
    }
    let mut problems = outcome.problems.clone();
    let non_finite = outcome.metrics.non_finite();
    if !non_finite.is_empty() {
        problems.push(format!("non-finite metrics: {non_finite:?}"));
    }
    for p in &problems {
        println!("MISMATCH {}: {p}", w.name());
    }
    let correct = problems.is_empty() && outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{}",
        outcome.metrics.result_line(
            correct,
            outcome.attempted.max(1),
            outcome.failed.max(usize::from(!correct))
        )
    );
    if correct {
        0
    } else {
        1
    }
}

/// Runs every workload in its own child process and merges the results,
/// prefixing each metric with its workload's name.
fn run_all(argv: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: locating the benchmark: {e}");
            return 2;
        }
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut metrics = Vec::new();
    // the arguments minus `--workload all`
    let mut shared: Vec<&String> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            shared.push(a);
        }
    }
    for w in Workload::ALL {
        let out = std::process::Command::new(&exe)
            .args(&shared)
            .args(["--workload", w.name()])
            .stderr(std::process::Stdio::inherit())
            .output();
        let stdout = match out {
            Ok(o) => String::from_utf8_lossy(&o.stdout).into_owned(),
            Err(e) => {
                eprintln!("perfbench: running {}: {e}", w.name());
                String::new()
            }
        };
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().and_then(result_line::parse);
        for line in lines {
            println!("{line}");
        }
        let Some(result) = last else {
            correct = false;
            failed += 1;
            attempted += 1;
            continue;
        };
        correct &= result.get("correct") == Some(&result_line::Json::Bool(true));
        let count = |k| match result.get(k) {
            Some(result_line::Json::Num(n)) => *n as usize,
            _ => 0,
        };
        attempted += count("attempted");
        failed += count("failed");
        if let Some(result_line::Json::Obj(fields)) = result.get("metrics") {
            for (name, m) in fields {
                if let (Some(result_line::Json::Num(v)), Some(result_line::Json::Str(u))) =
                    (m.get("value"), m.get("unit"))
                {
                    metrics.push(format!(
                        "\"{}.{name}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}",
                        w.name()
                    ));
                }
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

/// What the set-up leaves for the measurement.
pub struct Prepared {
    pub inputs: Inputs,
    pub reference: Reference,
    /// The populated store (`dse_restart` only).
    pub store: Option<PathBuf>,
}

/// Set-up repetitions: cheap set-ups are repeated more often so that
/// their median is steady; `dse_restart` populates a store each time.
fn setup_repetitions(w: Workload) -> usize {
    match w {
        Workload::DseRestart => 3,
        _ => 21,
    }
}

/// The seeded inputs and the reference.
fn prepare(w: Workload, args: &Args) -> Result<Prepared, String> {
    Ok(Prepared {
        inputs: Inputs::generate(
            args.size,
            args.seed,
            args.trace || w == Workload::VerifyFull,
        ),
        reference: Reference::load(args.size, args.reference_dir.as_deref())?,
        store: None,
    })
}

/// One timed set-up, as a user pays it from process start to the first
/// repetition: a fresh process of this benchmark generates the seeded
/// inputs, loads the reference and, for `dse_restart`, populates a store
/// (so none of that sweep's memory or CPU lands in this process). Returns
/// the seconds it took and the populated store.
fn setup_in_child(w: Workload, args: &Args, work: &Work) -> Result<(f64, Option<PathBuf>), String> {
    let store = (w == Workload::DseRestart).then(|| work.fresh("store"));
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--setup-only", "--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.size == Size::Smoke {
        cmd.arg("--smoke");
    }
    if let Some(r) = &args.reference_dir {
        cmd.arg("--reference-dir").arg(r);
    }
    if let Some(dir) = &store {
        cmd.arg("--store").arg(dir);
    }
    let t0 = Instant::now();
    let status = cmd
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("starting the set-up process: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    if status.success() {
        Ok((secs, store))
    } else {
        Err(format!("set-up process failed: {status}"))
    }
}

fn run_workload(w: Workload, args: &Args, env: &Env) -> Result<Outcome, String> {
    let work = Work::create(&args.work_dir, w.name())?;
    let mut setups = Vec::new();
    let mut store: Option<PathBuf> = None;
    for _ in 0..setup_repetitions(w) {
        let (secs, populated) = setup_in_child(w, args, &work)?;
        setups.push(secs);
        if let Some(old) = std::mem::replace(&mut store, populated) {
            std::fs::remove_dir_all(&old).map_err(|e| format!("removing {old:?}: {e}"))?;
        }
    }
    let prepared = Prepared {
        store,
        ..prepare(w, args)?
    };
    let setup_s = median(&setups);

    let mut outcome = if args.trace {
        trace::run(w, &prepared, &work, args.seconds, env)
    } else {
        measure(w, &prepared, &work, args.seconds, env, setup_s)
    };
    let kind = if args.trace { "traced" } else { "end-to-end" };
    outcome.metrics.lines.insert(
        0,
        format!(
            "# {} ({kind}) seed={} size={:?} cores={} dse_workers={} engine_threads={} \
             setup_s={setup_s:.6} (median of {} set-ups)",
            w.name(),
            args.seed,
            args.size,
            env.cores,
            env.dse_workers,
            env.engine_threads,
            setups.len()
        ),
    );
    Ok(outcome)
}

/// One checked repetition of a workload's operation.
pub struct Rep {
    pub wall: f64,
    /// Mismatches against the reference (empty when correct).
    pub bad: Vec<String>,
    /// Checks returning `Inconclusive`, and checks run.
    pub inconclusive: usize,
    pub checks: usize,
    /// States explored (verification passes).
    pub states: usize,
    /// The sweep's counters (DSE workloads).
    pub sweep: Option<rap_dse::SweepStats>,
}

/// Runs one repetition of `w` — a sweep through a fresh session over a
/// fresh (`dse_cold`) or the populated (`dse_restart`) store, or one pass
/// over the verification set — with the recorder `obs` attached, if
/// given.
pub fn rep(
    w: Workload,
    p: &Prepared,
    work: &Work,
    obs: Option<&rap_obs::Obs>,
) -> Result<Rep, String> {
    match w {
        Workload::DseCold | Workload::DseRestart => {
            let restart = w == Workload::DseRestart;
            let dir = match &p.store {
                Some(store) if restart => store.clone(),
                _ => work.fresh("cold"),
            };
            let (out, wall) = ops::timed_sweep(&p.inputs, &dir, obs)?;
            if !restart {
                std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {dir:?}: {e}"))?;
            }
            Ok(Rep {
                wall,
                bad: ops::check_sweep(&p.reference, &out, restart),
                inconclusive: out.stats.check_inconclusive,
                checks: out.stats.full_evaluations,
                states: 0,
                sweep: Some(out.stats),
            })
        }
        Workload::VerifyFull => {
            let (cases, wall) = ops::verify_pass(&p.inputs, obs)?;
            Ok(Rep {
                wall,
                bad: ops::check_pass(&p.reference, &p.inputs, &cases),
                inconclusive: cases.iter().filter(|c| c.inconclusive()).count(),
                checks: cases.len(),
                states: cases.iter().map(|c| c.states).sum(),
                sweep: None,
            })
        }
    }
}

/// The untraced closed loop: repeat the workload's operation for
/// `seconds` (at least once) and derive the end-to-end metrics.
fn measure(
    w: Workload,
    p: &Prepared,
    work: &Work,
    seconds: f64,
    env: &Env,
    setup_s: f64,
) -> Outcome {
    let mut o = Outcome::default();
    let mut walls = Vec::new();
    let (mut inconclusive, mut checks) = (0usize, 0usize);
    let mut states_per_s = Vec::new();
    let window = Duration::from_secs_f64(seconds);
    let cpu0 = procstat::cpu_seconds(env.ticks_per_s);
    let t0 = Instant::now();
    // stop before a repetition that would likely overrun the window, so
    // a run lasts about `seconds` whatever the repetition length
    let mut last = Duration::ZERO;
    while o.attempted == 0 || t0.elapsed() + last <= window {
        let r0 = Instant::now();
        let result = guarded(|| rep(w, p, work, None));
        last = r0.elapsed();
        match result {
            Ok(r) => {
                walls.push(r.wall);
                inconclusive += r.inconclusive;
                checks += r.checks;
                if w == Workload::VerifyFull {
                    states_per_s.push(r.states as f64 / r.wall);
                }
                o.record(r.bad);
            }
            Err(e) => o.record(vec![e]),
        }
    }
    let cpu_s = (procstat::cpu_seconds(env.ticks_per_s) - cpu0) / o.attempted as f64;
    let peak = procstat::peak_rss_mb();
    let n = walls.len();
    let p50 = median(&walls);
    let m = &mut o.metrics;
    m.put("setup_s", setup_s, "s");
    m.put("rep_s_p50", p50, "s");
    m.put("cpu_s", cpu_s, "s");
    m.put("peak_rss_mb", peak, "MB");

    let rep_name = match w {
        Workload::VerifyFull => "verify_s_p50",
        _ => "sweep_s_p50",
    };
    m.line(format!(
        "{rep_name:<20} {p50:.6} s  (median of n={n}; min {:.6}, quartiles {:.6} {:.6}, max {:.6})",
        quantile(&walls, 0.0),
        quantile(&walls, 0.25),
        quantile(&walls, 0.75),
        quantile(&walls, 1.0)
    ));
    if w == Workload::DseRestart {
        let p90 = quantile(&walls, 0.9);
        let beyond = walls.iter().filter(|&&x| x > p90).count();
        m.line(format!(
            "{:<20} {p90:.6} s  (n={n}, {beyond} samples beyond it)",
            "sweep_s_p90"
        ));
    }
    if w == Workload::VerifyFull {
        m.line(format!(
            "{:<20} {:.1} 1/s  (median of n={})",
            "states_per_s",
            median(&states_per_s),
            states_per_s.len()
        ));
    }
    m.line(format!("{:<20} {cpu_s:.6} s  (per repetition)", "cpu_s"));
    m.line(format!(
        "{:<20} {:.3}  (cpu_s over the median repetition)",
        "process.cpu_util",
        ratio(cpu_s, p50)
    ));
    m.line(format!("{:<20} {peak:.1} MB", "peak_rss_mb"));
    if w != Workload::DseRestart {
        m.line(format!(
            "{:<20} {inconclusive}/{checks} = {:.3}",
            "inconclusive_ratio",
            ratio(inconclusive as f64, checks as f64)
        ));
    }
    let failed = o.failed;
    let attempted = o.attempted;
    o.metrics.line(format!(
        "{:<20} {failed}/{attempted} = {:.3}",
        "failed_ratio",
        ratio(failed as f64, attempted as f64)
    ));
    o
}
