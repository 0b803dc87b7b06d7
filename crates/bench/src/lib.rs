//! Shared helpers for the experiment binaries in `src/bin/` that
//! regenerate every table and figure of the paper's evaluation (the
//! repository README lists them and records their results). The two
//! JSON documents the binaries persist, `BENCH_dse.json` ([`dse`]) and
//! `BENCH_state_space.json` ([`state_space`]), and the `rap/trace/v1`
//! trace every binary can write ([`trace`]) are all built and read
//! through [`json`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod dse;
pub mod json;
pub mod state_space;
pub mod trace;

/// The paper's reference measurements (static pipeline at nominal voltage,
/// §IV): 1.22 s and 2.74 mJ for 16M items.
pub const REF_TIME_S: f64 = 1.22;
/// Reference energy (J).
pub const REF_ENERGY_J: f64 = 2.74e-3;
/// Items per measured run.
pub const ITEMS: u64 = 16_000_000;
/// Nominal supply voltage (V).
pub const V_NOMINAL: f64 = 1.2;

/// Prints a row of fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Formats a float with the given precision, or `frozen` for non-finite
/// values (the infinite delay of a circuit supplied at or below its
/// threshold voltage).
#[must_use]
pub fn num(x: f64, digits: usize) -> String {
    if x.is_finite() {
        format!("{x:.digits$}")
    } else {
        "frozen".to_string()
    }
}

/// A simple banner for experiment output.
pub fn banner(title: &str) {
    println!("{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(num(1.23456, 2), "1.23");
        assert_eq!(num(f64::INFINITY, 2), "frozen");
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
