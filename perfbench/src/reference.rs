//! The reference every output is checked against: per-demand Pareto
//! fronts (labels and objective bit patterns), the paper's design point,
//! and the verification cases' pinned state counts and verdicts.
//!
//! The files are tab-separated text under `reference/`, embedded in the
//! binary; `--reference-dir` substitutes another directory holding the
//! same file names (the self-tests use it to prove the gate fails on an
//! altered reference).

use crate::inputs::Size;
use rap_dse::DseOutcome;
use std::collections::BTreeMap;
use std::path::Path;

const PAPER_FRONTS: &str = include_str!("../reference/paper_fronts.tsv");
const QUICK_FRONTS: &str = include_str!("../reference/quick_fronts.tsv");
const VERIFY_FULL: &str = include_str!("../reference/verify_full.tsv");
const VERIFY_SMOKE: &str = include_str!("../reference/verify_smoke.tsv");

/// The design point's period is pinned to six decimals, as recorded: the
/// exact analysis yields a whole period up to the float rounding of the
/// cycle-ratio computation (19 for the paper's OPE(6,4) point).
const PERIOD_TOLERANCE: f64 = 1e-6;

/// One point of a reference front: its label and the bit patterns of
/// (throughput, energy per item, area).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontPoint {
    pub label: String,
    pub bits: [u64; 3],
}

/// One verification case's expected outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyRef {
    pub model: String,
    pub backend: String,
    pub budget: usize,
    pub states: usize,
    pub deadlock_free: String,
    pub safe: String,
}

#[derive(Debug, Clone)]
pub struct Reference {
    pub fronts: BTreeMap<usize, Vec<FrontPoint>>,
    /// (demand, label, period in model time units).
    pub design_point: (usize, String, f64),
    pub verify: Vec<VerifyRef>,
}

fn file_names(size: Size) -> (&'static str, &'static str) {
    match size {
        Size::Full => ("paper_fronts.tsv", "verify_full.tsv"),
        Size::Smoke => ("quick_fronts.tsv", "verify_smoke.tsv"),
    }
}

impl Reference {
    /// The embedded reference, or the files of `dir` when given.
    pub fn load(size: Size, dir: Option<&Path>) -> Result<Reference, String> {
        let (fronts, verify) = match dir {
            None => match size {
                Size::Full => (PAPER_FRONTS.to_string(), VERIFY_FULL.to_string()),
                Size::Smoke => (QUICK_FRONTS.to_string(), VERIFY_SMOKE.to_string()),
            },
            Some(dir) => {
                let (f, v) = file_names(size);
                let read = |name: &str| {
                    std::fs::read_to_string(dir.join(name))
                        .map_err(|e| format!("reading reference {name}: {e}"))
                };
                (read(f)?, read(v)?)
            }
        };
        let mut reference = parse_fronts(&fronts)?;
        reference.verify = parse_verify(&verify)?;
        Ok(reference)
    }

    /// Differences between a sweep's outcome and the reference: errors or
    /// panics, a front differing in labels or objective bits (the
    /// schedule-dependent `memoized` flags are ignored), or a missing
    /// design point.
    pub fn check_sweep(&self, out: &DseOutcome) -> Vec<String> {
        let mut bad = Vec::new();
        if out.stats.errors != 0 || out.stats.panics != 0 {
            bad.push(format!(
                "sweep reported {} errors and {} panics",
                out.stats.errors, out.stats.panics
            ));
        }
        let demands: Vec<usize> = out
            .fronts
            .iter()
            .filter(|(_, f)| !f.is_empty())
            .map(|(&d, _)| d)
            .collect();
        let expected: Vec<usize> = self.fronts.keys().copied().collect();
        if demands != expected {
            bad.push(format!("front demands {demands:?}, expected {expected:?}"));
        }
        for (&demand, want) in &self.fronts {
            let got: Vec<FrontPoint> = out
                .front(demand)
                .iter()
                .map(|e| FrontPoint {
                    label: e.label.clone(),
                    bits: [
                        e.objectives.throughput.to_bits(),
                        e.objectives.energy_per_item.to_bits(),
                        e.objectives.area.to_bits(),
                    ],
                })
                .collect();
            if &got != want {
                let first = got.iter().zip(want).position(|(g, w)| g != w);
                bad.push(format!(
                    "demand {demand}: front of {} points differs from the reference's {} (first difference at {:?})",
                    got.len(),
                    want.len(),
                    first
                ));
            }
        }
        let (demand, label, period) = &self.design_point;
        match out.front(*demand).iter().find(|e| &e.label == label) {
            None => bad.push(format!(
                "design point {label} missing from the demand-{demand} front"
            )),
            Some(e) if (e.period_units - period).abs() > PERIOD_TOLERANCE => bad.push(format!(
                "design point {label}: period {} (reference {period})",
                e.period_units
            )),
            Some(_) => {}
        }
        bad
    }

    /// The expected outcome of a verification case.
    pub fn verify_case(&self, model: &str, backend: &str) -> Option<&VerifyRef> {
        self.verify
            .iter()
            .find(|r| r.model == model && r.backend == backend)
    }
}

fn parse_fronts(src: &str) -> Result<Reference, String> {
    let mut fronts: BTreeMap<usize, Vec<FrontPoint>> = BTreeMap::new();
    let mut design_point = None;
    for (no, line) in src.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let bad = || format!("fronts reference line {}: malformed", no + 1);
        let f: Vec<&str> = line.split('\t').collect();
        match f.as_slice() {
            ["front", demand, label, t, e, a] => {
                let hex = |s: &str| {
                    u64::from_str_radix(s.trim_start_matches("0x"), 16).map_err(|_| bad())
                };
                fronts
                    .entry(demand.parse().map_err(|_| bad())?)
                    .or_default()
                    .push(FrontPoint {
                        label: (*label).to_string(),
                        bits: [hex(t)?, hex(e)?, hex(a)?],
                    });
            }
            ["design_point", demand, label, period] => {
                design_point = Some((
                    demand.parse().map_err(|_| bad())?,
                    (*label).to_string(),
                    period.parse().map_err(|_| bad())?,
                ));
            }
            _ => return Err(bad()),
        }
    }
    Ok(Reference {
        fronts,
        design_point: design_point.ok_or("fronts reference has no design_point line")?,
        verify: Vec::new(),
    })
}

fn parse_verify(src: &str) -> Result<Vec<VerifyRef>, String> {
    let mut out = Vec::new();
    for (no, line) in src.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let bad = || format!("verify reference line {}: malformed", no + 1);
        match line.split('\t').collect::<Vec<_>>().as_slice() {
            ["case", model, backend, budget, states, deadlock, safe] => out.push(VerifyRef {
                model: (*model).to_string(),
                backend: (*backend).to_string(),
                budget: budget.parse().map_err(|_| bad())?,
                states: states.parse().map_err(|_| bad())?,
                deadlock_free: (*deadlock).to_string(),
                safe: (*safe).to_string(),
            }),
            _ => return Err(bad()),
        }
    }
    Ok(out)
}

/// The reference lines describing `out`, in the fronts file format.
pub fn render_fronts(out: &DseOutcome, design_point: (usize, &str)) -> String {
    let mut s = String::from(
        "# demand\tlabel\tthroughput\tenergy_per_item\tarea (IEEE-754 bit patterns)\n",
    );
    let (demand, label) = design_point;
    let period = out
        .front(demand)
        .iter()
        .find(|e| e.label == label)
        .map_or(f64::NAN, |e| e.period_units);
    s.push_str(&format!("design_point\t{demand}\t{label}\t{period:.6}\n"));
    for (d, front) in &out.fronts {
        for e in front {
            let o = &e.objectives;
            s.push_str(&format!(
                "front\t{d}\t{}\t{:#018x}\t{:#018x}\t{:#018x}\n",
                e.label,
                o.throughput.to_bits(),
                o.energy_per_item.to_bits(),
                o.area.to_bits()
            ));
        }
    }
    s
}
