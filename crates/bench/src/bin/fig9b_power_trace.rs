//! FIG9B — Power consumption at a changing supply voltage (Fig. 9b).
//!
//! A single LFSR-style run of the fully-activated (18-stage)
//! reconfigurable pipeline while the supply steps down from 0.5 V to the
//! 0.34 V freeze point and recovers: the computation halts losslessly and
//! completes after the supply is raised — the NCL gates' hysteresis holds
//! the state (demonstrated at gate level in `rap-silicon`'s freeze tests).

use rap_bench::banner;
use rap_bench::cli::BenchCli;
use rap_ope::{ChipTimingModel, PipelineKind, SyncStyle};
use rap_silicon::VoltageProfile;

fn main() {
    let cli = BenchCli::parse("fig9b_power_trace", None, false);
    rap_bench::trace::with_trace(&cli, |_obs| run(&cli));
}

fn run(cli: &BenchCli) {
    banner("Fig. 9b — power at a changing supply voltage (freeze and recovery)");
    let m = ChipTimingModel::paper_calibrated();
    let kind = PipelineKind::Reconfigurable {
        depth: 18,
        sync: SyncStyle::DaisyChain,
    };

    // the voltage staircase annotated in the figure: 0.5 → 0.44 in steps,
    // then the 0.34 V freeze, then recovery to 0.5 V
    let profile = VoltageProfile::Steps(vec![
        (0.0, 0.50),
        (14.0, 0.49),
        (20.0, 0.48),
        (26.0, 0.47),
        (32.0, 0.46),
        (38.0, 0.45),
        (44.0, 0.44),
        (50.0, 0.34),
        (62.0, 0.50),
    ]);
    // sized so the run would take ~40 s at 0.5 V: it must straddle the
    // freeze window
    let items = (40.0 / m.cycle_time(kind, 0.5)) as u64;
    let start = 8.0;
    // --quick: a coarser sampling grid (CI smoke; the figure uses 0.25 s)
    let sample_step = if cli.quick { 1.0 } else { 0.25 };
    let (trace, finished) = m.power_trace(kind, &profile, items, start, 80.0, sample_step);

    println!("items: {items}  computation starts at t = {start} s\n");
    println!("   t[s]    V[V]    P[uW]   phase");
    let mut last_phase = "";
    for i in (0..trace.len()).step_by(8) {
        let t = trace.time[i];
        let v = trace.voltage[i];
        let p = trace.power[i] * 1e6;
        let phase = if t < start {
            "idle (leakage only)"
        } else if finished.is_some_and(|f| t > f) {
            "done (leakage only)"
        } else if v <= 0.34 {
            "FROZEN - no progress, state held"
        } else {
            "computing"
        };
        let marker = if phase != last_phase { "  <--" } else { "" };
        last_phase = phase;
        println!("{t:7.2}  {v:6.2}  {p:7.3}   {phase}{marker}");
    }
    match finished {
        Some(f) => println!(
            "\ncomputation completed at t = {f:.2} s — after the supply recovered \
             (the chip 'can be left at this voltage for hours with no progress', §IV)"
        ),
        None => println!("\ncomputation did NOT complete within the horizon"),
    }
    let floor = m.leakage_power(0.34) * 1e6;
    println!("leakage floor at 0.34 V: {floor:.3} uW");

    // energy accounting straight from the trace (trapezoidal integrals —
    // no ad-hoc sums): the freeze window costs leakage only
    let total_mj = trace.total_energy() * 1e3;
    let frozen_mj = trace.energy_between(50.0, 62.0) * 1e3;
    println!(
        "energy: {total_mj:.4} mJ total, of which {frozen_mj:.4} mJ leaked \
         while frozen (t = 50..62 s)"
    );
}
