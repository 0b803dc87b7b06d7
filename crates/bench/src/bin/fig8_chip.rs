//! FIG8 — The evaluation chip (Fig. 8a): structure and the random-mode
//! checksum validation flow.
//!
//! "The produced checksum is validated against the output of the OPE
//! behavioural model initialised with the same seed and count parameters"
//! (§IV). Every one of the chip's 16 reconfigurable depth settings plus the
//! static pipeline is exercised.

use rap_bench::banner;
use rap_bench::cli::BenchCli;
use rap_ope::chip::{behavioural_checksum, Chip, ChipConfig};

const SEED: u32 = 0x5EED_0001;

fn main() {
    let cli = BenchCli::parse("fig8_chip", None, false);
    rap_bench::trace::with_trace(&cli, |_obs| run(&cli));
}

fn run(cli: &BenchCli) {
    // --quick: fewer LFSR items per checksum run (CI smoke)
    let count: u64 = if cli.quick { 20_000 } else { 200_000 };
    banner("Fig. 8 — OPE chip: structure and checksum validation");
    println!(
        "components: LFSR (32-bit Galois, taps 0x{:08X}), accumulator,\n\
         static OPE (18 stages), reconfigurable OPE (depths 3..=18),\n\
         mode mux (normal/random), config mux (static/reconfigurable)\n",
        rap_ope::lfsr::TAPS
    );

    println!("random mode, seed 0x{SEED:08X}, count {count}:\n");
    println!("config          depth  chip checksum       behavioural model   match");
    let mut st = Chip::new(ChipConfig::Static);
    let got = st.run_random(SEED, count);
    let expect = behavioural_checksum(18, SEED, count);
    println!(
        "static             18  0x{got:016X}  0x{expect:016X}  {}",
        got == expect
    );
    for depth in 3..=18 {
        let mut chip = Chip::new(ChipConfig::Reconfigurable { depth });
        let got = chip.run_random(SEED, count);
        let expect = behavioural_checksum(depth, SEED, count);
        println!(
            "reconfigurable  {depth:>5}  0x{got:016X}  0x{expect:016X}  {}",
            got == expect
        );
        assert_eq!(got, expect, "validation failed at depth {depth}");
    }
    println!("\nall configurations validated against the behavioural model.");
}
