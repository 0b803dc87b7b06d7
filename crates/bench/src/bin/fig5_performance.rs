//! FIG5 — Performance analysis of a reconfigurable pipeline (the analysis
//! the Workcraft screenshot in Fig. 5 shows): slowest-cycle throughput and
//! bottleneck nodes, with the measured throughput from the timed simulator
//! alongside, plus the wagging optimisation (§II-D) as the tool's
//! suggested remedy for a bottleneck stage.
//!
//! Every analytic number printed here is **exact** (`perf::analyse` phase-
//! unfolds models with choice; see the `construction` tag per row) and is
//! cross-checked against the simulator's steady-state recurrence period.
//! The wagging rows are pinned in `tests/experiments_hold.rs` so they
//! cannot silently drift back to the old optimistic bound.

use dfs_core::perf::{analyse, Construction};
use dfs_core::timed::{measure_steady_period, measure_throughput, ChoicePolicy};
use dfs_core::wagging::wagged_pipeline;
use rap_bench::cli::BenchCli;
use rap_bench::{banner, num};
use rap_ope::dfs_model::{reconfigurable_ope_dfs, static_ope_dfs};

fn construction_tag(c: Construction) -> String {
    match c {
        Construction::Direct => "direct event graph".into(),
        Construction::PhaseUnfolded { phases } => {
            format!("{phases}-phase unfolding")
        }
    }
}

fn main() {
    let cli = BenchCli::parse("fig5_performance", None, false);
    rap_bench::trace::with_trace(&cli, |_obs| run(&cli));
}

fn run(cli: &BenchCli) {
    banner("Fig. 5 — dataflow performance analysis (cycles, bottlenecks)");

    for (name, pipe) in [
        ("static OPE, 6 stages", static_ope_dfs(6).unwrap()),
        (
            "reconfigurable OPE, 6 stages, depth 4",
            reconfigurable_ope_dfs(6, 4).unwrap(),
        ),
    ] {
        println!("\n## {name}");
        match analyse(&pipe.dfs) {
            Ok(report) => {
                println!(
                    "  analytic throughput: {} tokens/unit (period {}, {})",
                    num(report.throughput, 5),
                    num(report.period, 3),
                    construction_tag(report.construction)
                );
                println!(
                    "  critical cycle ({} tokens / {} delay): {}",
                    report.critical.tokens,
                    num(report.critical.delay, 2),
                    report.critical.nodes.join(" -> ")
                );
                println!("  bottleneck node: {}", report.critical.bottleneck);
            }
            Err(e) => println!("  analysis error: {e}"),
        }
        match measure_throughput(&pipe.dfs, pipe.output, 10, 60, ChoicePolicy::AlwaysTrue) {
            Ok(thr) => println!("  measured steady-state throughput: {}", num(thr, 5)),
            Err(e) => println!("  simulation: {e}"),
        }
    }

    println!("\n## automatic buffer insertion (the Fig. 5 'add registers' remedy)");
    {
        use dfs_core::optimize::insert_buffers;
        use dfs_core::DfsBuilder;
        // a bubble-starved ring: 3 registers, 1 token -> period 6d
        let mut b = DfsBuilder::new();
        let r0 = b.register("r0").marked().build();
        let r1 = b.register("r1").build();
        let r2 = b.register("r2").build();
        b.connect(r0, r1);
        b.connect(r1, r2);
        b.connect(r2, r0);
        let ring = b.finish().unwrap();
        let out = insert_buffers(&ring, 2).unwrap();
        println!(
            "  3-register ring: throughput {} -> {} by inserting {:?}",
            num(out.before, 4),
            num(out.after, 4),
            out.inserted
        );
    }

    println!("\n## wagging a bottleneck stage (Brej [15], §II-D)");
    let way_counts: &[usize] = if cli.quick { &[1, 2] } else { &[1, 2, 3] };
    for &ways in way_counts {
        let w = wagged_pipeline(ways, 1, 8.0).unwrap();
        let report = analyse(&w.dfs).expect("live wagged pipeline analyses");
        let steady = measure_steady_period(&w.dfs, w.output, 200, ChoicePolicy::AlwaysTrue)
            .expect("live wagged pipeline recurs");
        println!(
            "  {ways}-way: analytic throughput {} ({}), simulator steady period {} (= analytic {}), bottleneck {}",
            num(report.throughput, 5),
            construction_tag(report.construction),
            num(steady.period, 5),
            num(report.period, 5),
            report.critical.bottleneck
        );
        assert!(
            (report.period - steady.period).abs() <= 1e-9 * steady.period,
            "exactness regression: analysis {} vs simulator {}",
            report.period,
            steady.period
        );
    }
    println!("  (the rotating push/pop rings distribute tokens round-robin;");
    println!("   analysis and simulator agree exactly on every row)");
}
