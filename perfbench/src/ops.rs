//! The operations the workloads repeat, each calling the library the way
//! a user does — `DseConfig::default()`, engine `threads: 0` — and each
//! checked against the reference.

use crate::inputs::{Backend, Inputs, VerifyCase};
use crate::reference::Reference;
use rap_dse::{explore_with_session, DseConfig, DseOutcome};
use rap_obs::Obs;
use rap_petri::analysis::{quick_check_quotient, QuickVerdict};
use rap_session::{CostModel, Session};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One 576-configuration sweep (48 at smoke size) through `session`.
pub fn sweep(inputs: &Inputs, session: &Session) -> DseOutcome {
    explore_with_session(
        &inputs.space,
        &CostModel::default(),
        &DseConfig::default(),
        session,
    )
}

/// A timed sweep through a fresh `Session::open` over `dir` (with the
/// recorder `obs` attached, if given); the session is dropped, releasing
/// the store lock, inside the timed region.
pub fn timed_sweep(
    inputs: &Inputs,
    dir: &Path,
    obs: Option<&Obs>,
) -> Result<(DseOutcome, f64), String> {
    let t0 = Instant::now();
    let session = match obs {
        None => Session::open(dir),
        Some(obs) => Session::open_traced(dir, obs.clone()),
    }
    .map_err(|e| format!("opening the store: {e}"))?;
    let out = sweep(inputs, &session);
    drop(session);
    Ok((out, t0.elapsed().as_secs_f64()))
}

/// The gate of a sweep: the reference check plus, for a restart, zero
/// full evaluations.
pub fn check_sweep(reference: &Reference, out: &DseOutcome, restart: bool) -> Vec<String> {
    let mut bad = reference.check_sweep(out);
    if restart && out.stats.full_evaluations != 0 {
        bad.push(format!(
            "restart sweep performed {} full evaluations (expected 0)",
            out.stats.full_evaluations
        ));
    }
    bad
}

/// Runs `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|_| Err("panicked".to_string()))
}

/// Populates the store at `dir` for `dse_restart`: a checked cold sweep
/// with pruning off, so that the store holds every structure the space
/// builds.
///
/// A default sweep prunes, and which configurations it prunes depends on
/// the parallel schedule. When it prunes every configuration of a
/// structure, that structure's artifacts never reach the store, and a
/// restarted sweep whose pruning goes the other way evaluates it afresh —
/// entering the engine, which `dse_restart` exists never to do. The
/// traced run counts such structures (`dse.unpersisted_structures`).
pub fn populate(dir: &Path, inputs: &Inputs, reference: &Reference) -> Result<(), String> {
    let session = Session::open(dir).map_err(|e| format!("opening the store: {e}"))?;
    let cfg = DseConfig {
        prune: false,
        ..DseConfig::default()
    };
    let out = explore_with_session(&inputs.space, &CostModel::default(), &cfg, &session);
    let bad = check_sweep(reference, &out, false);
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}

/// Verdict names as the reference spells them.
fn verdict(v: QuickVerdict) -> &'static str {
    match v {
        QuickVerdict::Holds => "holds",
        QuickVerdict::Violated => "violated",
        QuickVerdict::Inconclusive { .. } => "inconclusive",
    }
}

/// One case's outcome in a verification pass.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    pub slot: &'static str,
    pub states: usize,
    pub deadlock_free: &'static str,
    pub safe: &'static str,
    /// Wall seconds of the check call alone (after compilation).
    pub check_s: f64,
}

impl CaseOutcome {
    pub fn inconclusive(&self) -> bool {
        self.deadlock_free == "inconclusive" || self.safe == "inconclusive"
    }
}

/// Checks one case through `session`.
///
/// On the LTS backend the state encoding holds one bit per node, so
/// 1-safety holds by construction once the exploration completes; its
/// pinned state count equals the Petri backend's, which makes the case a
/// differential check of the two backends.
pub fn check_case(case: &VerifyCase, session: &Session) -> Result<CaseOutcome, String> {
    let model = session.compile(&case.dfs);
    let t0 = Instant::now();
    let (states, deadlock_free, safe) = match case.backend {
        Backend::Petri => {
            let q = model.quick_check(case.budget);
            (q.states, verdict(q.deadlock_free), verdict(q.safe))
        }
        Backend::PetriQuotient => {
            let img = model.petri();
            let rotation = case
                .way_rotation
                .as_deref()
                .ok_or("quotient case without a way rotation")?;
            let sym = img.induced_symmetry(rotation)?;
            let q = quick_check_quotient(&img.net, &img.complementary_pairs(), case.budget, &sym);
            (q.states, verdict(q.deadlock_free), verdict(q.safe))
        }
        Backend::Lts => {
            let lts = model
                .lts(case.budget)
                .map_err(|e| format!("{} on the LTS backend: {e}", case.model))?;
            let dead = if lts.deadlocks().is_empty() {
                "holds"
            } else {
                "violated"
            };
            (lts.len(), dead, "holds")
        }
    };
    Ok(CaseOutcome {
        slot: case.slot,
        states,
        deadlock_free,
        safe,
        check_s: t0.elapsed().as_secs_f64(),
    })
}

/// One pass over the verification set in a fresh memory-only session
/// (recording into `obs`, if given). Returns the per-case outcomes and
/// the pass's wall seconds, session construction and drop included.
pub fn verify_pass(inputs: &Inputs, obs: Option<&Obs>) -> Result<(Vec<CaseOutcome>, f64), String> {
    let t0 = Instant::now();
    let session = match obs {
        None => Session::new(),
        Some(obs) => Session::with_recorder(obs.clone()),
    };
    let outcomes = inputs
        .verify
        .iter()
        .map(|case| check_case(case, &session))
        .collect::<Result<Vec<_>, _>>()?;
    drop(session);
    Ok((outcomes, t0.elapsed().as_secs_f64()))
}

/// Differences between a pass and the reference.
pub fn check_pass(reference: &Reference, inputs: &Inputs, outcomes: &[CaseOutcome]) -> Vec<String> {
    let mut bad = Vec::new();
    for (case, got) in inputs.verify.iter().zip(outcomes) {
        let name = format!("{} [{}]", case.model, case.backend.tag());
        match reference.verify_case(case.model, case.backend.tag()) {
            None => bad.push(format!("{name}: no reference entry")),
            Some(r) => {
                if r.budget != case.budget
                    || r.states != got.states
                    || r.deadlock_free != got.deadlock_free
                    || r.safe != got.safe
                {
                    bad.push(format!(
                        "{name}: {} states, deadlock-freedom {}, safety {} at budget {} \
                         (reference {} states, {}, {} at budget {})",
                        got.states,
                        got.deadlock_free,
                        got.safe,
                        case.budget,
                        r.states,
                        r.deadlock_free,
                        r.safe,
                        r.budget
                    ));
                }
            }
        }
    }
    bad
}

/// A per-run scratch directory under the work root, removed on drop.
pub struct Work {
    root: PathBuf,
    base: PathBuf,
    next: std::cell::Cell<usize>,
}

impl Work {
    pub fn create(base: &Path, tag: &str) -> Result<Work, String> {
        let root = base.join(format!("{tag}-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root).map_err(|e| format!("clearing {root:?}: {e}"))?;
        }
        std::fs::create_dir_all(&root).map_err(|e| format!("creating {root:?}: {e}"))?;
        Ok(Work {
            root,
            base: base.to_path_buf(),
            next: std::cell::Cell::new(0),
        })
    }

    /// A new, not yet existing directory path inside the run's root.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("{tag}-{n}"))
    }
}

impl Drop for Work {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // only succeeds once no other run uses the work root
        let _ = std::fs::remove_dir(&self.base);
    }
}
