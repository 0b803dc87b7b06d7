//! FIG9A′ — Time and energy vs pipeline length (§IV, paragraph after
//! Fig. 9a): "both the computation time and the energy consumption increase
//! linearly with the pipeline length; the slope of increment is
//! reverse-proportional to the supply voltage."

use rap_bench::cli::BenchCli;
use rap_bench::{banner, num, row, ITEMS};
use rap_ope::{ChipTimingModel, PipelineKind, SyncStyle};

fn main() {
    let cli = BenchCli::parse("depth_scaling", None, false);
    rap_bench::trace::with_trace(&cli, |_obs| run(&cli));
}

fn run(cli: &BenchCli) {
    banner("Depth scaling — time/energy vs pipeline length at several voltages");
    let m = ChipTimingModel::paper_calibrated();
    let voltages = [0.5, 0.8, 1.2, 1.6];
    let kind = |depth| PipelineKind::Reconfigurable {
        depth,
        sync: SyncStyle::DaisyChain,
    };

    let widths = [6usize, 11, 11, 11, 11, 11, 11, 11, 11];
    let mut header = vec!["depth".to_string()];
    for v in voltages {
        header.push(format!("t@{v}V[s]"));
    }
    for v in voltages {
        header.push(format!("E@{v}V[mJ]"));
    }
    println!("{}", row(&header, &widths));
    let depths: std::collections::BTreeSet<usize> = if cli.quick {
        [3, 9, 18].into()
    } else {
        (3..=18).step_by(3).chain([18]).collect()
    };
    for depth in depths {
        let mut cells = vec![format!("{depth}")];
        for v in voltages {
            cells.push(num(m.computation_time(kind(depth), v, ITEMS), 3));
        }
        for v in voltages {
            cells.push(num(m.energy(kind(depth), v, ITEMS) * 1e3, 3));
        }
        println!("{}", row(&cells, &widths));
    }

    println!("\nslopes (per added stage):");
    println!("  V      dt/dstage [ms]   dE/dstage [uJ]");
    for v in voltages {
        let dt = m.computation_time(kind(18), v, ITEMS) - m.computation_time(kind(17), v, ITEMS);
        let de = m.energy(kind(18), v, ITEMS) - m.energy(kind(17), v, ITEMS);
        println!("  {v:<5} {:>14} {:>16}", num(dt * 1e3, 3), num(de * 1e6, 3));
    }
    println!(
        "\nthe time slope falls as the voltage rises (reverse-proportional, as\n\
         reported); the energy slope combines V^2 switching and leakage x time."
    );
}
