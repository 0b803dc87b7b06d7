//! Shared command-line handling for the experiment binaries.
//!
//! Every binary in `src/bin/` accepts the same standard options:
//!
//! * `--quick` — shrink the run to a sub-second CI smoke configuration
//!   (binaries whose full run is already instant accept the flag for
//!   uniformity and say so in their module docs);
//! * `--out PATH` — for binaries that persist a `BENCH_*.json` document,
//!   override the output path (default: the file at the repository root);
//! * `--cache DIR` — for binaries that sweep through a persistent
//!   [`rap_session::Session`](../../rap_session/struct.Session.html)
//!   (currently `dse_pareto`), keep the artifact store at `DIR` so
//!   re-invocations start disk-warm (default: a scratch store discarded
//!   after the run);
//! * `--trace-out PATH` — attach a live [`rap_obs::Collector`] to the run
//!   and write the resulting `rap/trace/v1` document (see
//!   [`crate::trace`]) to `PATH`. Every binary accepts this; recording is
//!   observation-only, so the benchmark's reported numbers and emitted
//!   `BENCH_*.json` are unchanged by it.
//!
//! Anything else exits with status 2 and a usage line naming the binary —
//! previously every JSON-emitting binary hand-rolled this loop, and the
//! others accepted no arguments at all (silently ignoring typos was never
//! possible, but adding an option meant another copy of the loop).

use std::path::PathBuf;

/// Parsed standard options of one experiment binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchCli {
    /// `--quick`: run the sub-second smoke configuration.
    pub quick: bool,
    /// `--cache DIR`: persistent artifact-store directory (only on
    /// binaries that opt in; `None` = scratch store).
    pub cache: Option<PathBuf>,
    /// `--trace-out PATH`: write a `rap/trace/v1` trace of the run to
    /// `PATH` (`None` = no recorder attached, tracing compiles to
    /// nothing on the hot paths).
    pub trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    default_out: Option<&'static str>,
    accepts_cache: bool,
}

impl BenchCli {
    /// The output path: `--out` if given, else the declared default file
    /// at the repository root.
    ///
    /// # Panics
    ///
    /// Panics if the binary declared no default output file (such
    /// binaries reject `--out` at parse time, so this is a programming
    /// error, not a user error).
    #[must_use]
    pub fn out_path(&self) -> PathBuf {
        match (&self.out, self.default_out) {
            (Some(path), _) => path.clone(),
            (None, Some(default)) => {
                // crates/bench/../../ = the repository root
                PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../{default}"))
            }
            (None, None) => unreachable!("out_path() on a binary without a default output file"),
        }
    }

    fn usage(bin: &str, default_out: Option<&'static str>, accepts_cache: bool) -> String {
        let cache = if accepts_cache { " [--cache DIR]" } else { "" };
        match default_out {
            Some(file) => {
                format!(
                    "usage: {bin} [--quick] [--out PATH]{cache} [--trace-out PATH]   (default out: {file})"
                )
            }
            None => format!("usage: {bin} [--quick]{cache} [--trace-out PATH]"),
        }
    }

    /// Parses `args` (without the program name). `default_out` declares
    /// the binary's output file at the repository root; `None` means the
    /// binary writes no file and `--out` is rejected. `accepts_cache`
    /// opts the binary into `--cache DIR` (a persistent artifact-store
    /// directory); otherwise `--cache` is rejected.
    ///
    /// # Errors
    ///
    /// A usage message on an unknown argument, a missing `--out`,
    /// `--cache` or `--trace-out` operand, or `--out` passed to a binary
    /// without an output file.
    pub fn parse_from(
        bin: &str,
        default_out: Option<&'static str>,
        accepts_cache: bool,
        args: impl IntoIterator<Item = String>,
    ) -> Result<BenchCli, String> {
        let mut cli = BenchCli {
            quick: false,
            cache: None,
            trace_out: None,
            out: None,
            default_out,
            accepts_cache,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--out" if default_out.is_some() => {
                    let path = args.next().ok_or_else(|| {
                        format!(
                            "--out needs a path argument\n{}",
                            Self::usage(bin, default_out, accepts_cache)
                        )
                    })?;
                    cli.out = Some(PathBuf::from(path));
                }
                "--cache" if accepts_cache => {
                    let dir = args.next().ok_or_else(|| {
                        format!(
                            "--cache needs a directory argument\n{}",
                            Self::usage(bin, default_out, accepts_cache)
                        )
                    })?;
                    cli.cache = Some(PathBuf::from(dir));
                }
                "--trace-out" => {
                    let path = args.next().ok_or_else(|| {
                        format!(
                            "--trace-out needs a path argument\n{}",
                            Self::usage(bin, default_out, accepts_cache)
                        )
                    })?;
                    cli.trace_out = Some(PathBuf::from(path));
                }
                other => {
                    return Err(format!(
                        "unknown argument `{other}`\n{}",
                        Self::usage(bin, default_out, accepts_cache)
                    ));
                }
            }
        }
        Ok(cli)
    }

    /// Parses the process arguments (see [`parse_from`](Self::parse_from));
    /// on error prints the usage line and exits with status 2 (the
    /// conventional bad-usage status every binary previously hand-rolled).
    #[must_use]
    pub fn parse(bin: &str, default_out: Option<&'static str>, accepts_cache: bool) -> BenchCli {
        Self::parse_from(bin, default_out, accepts_cache, std::env::args().skip(1)).unwrap_or_else(
            |msg| {
                eprintln!("{msg}");
                std::process::exit(2);
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn defaults_and_flags() {
        let cli = BenchCli::parse_from("b", Some("BENCH_x.json"), false, args(&[])).unwrap();
        assert!(!cli.quick);
        assert!(cli.out_path().ends_with("../../BENCH_x.json"));
        let cli =
            BenchCli::parse_from("b", Some("BENCH_x.json"), false, args(&["--quick"])).unwrap();
        assert!(cli.quick);
        let cli = BenchCli::parse_from(
            "b",
            Some("BENCH_x.json"),
            false,
            args(&["--out", "/tmp/y.json"]),
        )
        .unwrap();
        assert_eq!(cli.out_path(), PathBuf::from("/tmp/y.json"));
    }

    #[test]
    fn cache_flag_is_opt_in() {
        let cli = BenchCli::parse_from(
            "dse_pareto",
            Some("BENCH_dse.json"),
            true,
            args(&["--cache", "/tmp/c"]),
        )
        .unwrap();
        assert_eq!(cli.cache, Some(PathBuf::from("/tmp/c")));
        // binaries that did not opt in reject it and don't advertise it
        let err = BenchCli::parse_from(
            "b",
            Some("BENCH_x.json"),
            false,
            args(&["--cache", "/tmp/c"]),
        )
        .unwrap_err();
        assert!(err.contains("unknown argument `--cache`"));
        assert!(!err.contains("[--cache DIR]"));
        // missing operand
        let err = BenchCli::parse_from(
            "dse_pareto",
            Some("BENCH_dse.json"),
            true,
            args(&["--cache"]),
        )
        .unwrap_err();
        assert!(err.contains("--cache needs a directory argument"));
        assert!(err.contains("[--cache DIR]"));
    }

    #[test]
    fn trace_out_is_universal() {
        // accepted by output-file binaries …
        let cli = BenchCli::parse_from(
            "dse_pareto",
            Some("BENCH_dse.json"),
            false,
            args(&["--trace-out", "/tmp/t.json"]),
        )
        .unwrap();
        assert_eq!(cli.trace_out, Some(PathBuf::from("/tmp/t.json")));
        // … and by no-output binaries alike
        let cli = BenchCli::parse_from(
            "fig5_performance",
            None,
            false,
            args(&["--trace-out", "/tmp/t.json"]),
        )
        .unwrap();
        assert_eq!(cli.trace_out, Some(PathBuf::from("/tmp/t.json")));
        // missing operand names the flag and the usage line advertises it
        let err = BenchCli::parse_from("fig5_performance", None, false, args(&["--trace-out"]))
            .unwrap_err();
        assert!(err.contains("--trace-out needs a path argument"));
        assert!(err.contains("[--trace-out PATH]"));
    }

    #[test]
    fn errors_name_the_binary_and_its_options() {
        let err = BenchCli::parse_from("fig5_performance", None, false, args(&["--frobnicate"]))
            .unwrap_err();
        assert!(err.contains("--frobnicate"));
        assert!(err.contains("usage: fig5_performance [--quick]"));
        assert!(
            !err.contains("--out"),
            "no-output binaries must not advertise --out"
        );
        // --out is rejected where there is nothing to write
        let err = BenchCli::parse_from("fig5_performance", None, false, args(&["--out", "x"]))
            .unwrap_err();
        assert!(err.contains("unknown argument `--out`"));
        // missing operand
        let err = BenchCli::parse_from(
            "dse_pareto",
            Some("BENCH_dse.json"),
            false,
            args(&["--out"]),
        )
        .unwrap_err();
        assert!(err.contains("--out needs a path argument"));
        assert!(err.contains("BENCH_dse.json"));
    }
}
