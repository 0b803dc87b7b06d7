//! Benchmark self-tests: a smoke-sized run of every workload, untraced
//! and traced, emits exactly the metrics `BENCHMARK.json` names, each
//! with its unit and a finite value; and an altered reference makes the
//! correctness gate fail.

#[path = "../src/result_line.rs"]
#[allow(dead_code)]
mod result_line;

use result_line::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let src = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    result_line::parse(&src).expect("BENCHMARK.json parses")
}

fn array<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    match j.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key}: expected an array, got {other:?}"),
    }
}

fn string<'a>(j: &'a Json, key: &str) -> &'a str {
    match j.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

fn number(j: &Json, key: &str) -> f64 {
    match j.get(key) {
        Some(Json::Num(n)) => *n,
        other => panic!("{key}: expected a number, got {other:?}"),
    }
}

/// (name, unit) of every metric of one BENCHMARK.json section.
fn declared(section: &str) -> Vec<(String, String)> {
    array(&benchmark_json(), section)
        .iter()
        .map(|m| (string(m, "name").to_string(), string(m, "unit").to_string()))
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"))
}

/// Runs a smoke-sized workload; returns the exit code and the parsed
/// last line of standard output (if it parses).
fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> (i32, Option<Json>) {
    let work = scratch(&format!("work-{workload}-{trace}-{seed}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--trace", if trace { "1" } else { "0" }])
        .arg("--smoke")
        .arg("--work-dir")
        .arg(&work)
        .args(extra)
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().and_then(result_line::parse);
    assert!(
        !work.exists(),
        "{workload}: the work directory was left behind"
    );
    (out.status.code().unwrap_or(-1), last)
}

#[test]
fn smoke_runs_emit_every_declared_metric_with_unit_and_finite_value() {
    let bench = benchmark_json();
    let workloads: Vec<String> = array(&bench, "workloads")
        .iter()
        .map(|w| string(w, "name").to_string())
        .collect();
    assert_eq!(workloads, ["dse_cold", "dse_restart", "verify_full"]);
    for (seed, workload) in workloads.iter().enumerate() {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let (code, result) = run(workload, seed as u64 + 1, trace, &[]);
            let result = result.unwrap_or_else(|| panic!("{workload}: no result line"));
            assert_eq!(code, 0, "{workload} trace={trace}: {result:?}");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert!(number(&result, "attempted") >= 1.0);
            assert_eq!(number(&result, "failed"), 0.0);
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = number(m, "value");
                    assert!(value.is_finite(), "{workload} {name}: {value}");
                    (name.clone(), string(m, "unit").to_string())
                })
                .collect();
            assert_eq!(emitted, declared(section), "{workload} trace={trace}");
        }
    }
}

/// A copy of the reference with one front objective bit and one pinned
/// state count changed.
fn altered_reference() -> PathBuf {
    let dir = scratch("altered-reference");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference");
    for entry in std::fs::read_dir(&src).expect("reference directory") {
        let path = entry.expect("reference entry").path();
        let name = path.file_name().expect("file name").to_owned();
        std::fs::copy(&path, dir.join(name)).expect("copy reference file");
    }
    let fronts = dir.join("quick_fronts.tsv");
    let text = std::fs::read_to_string(&fronts).expect("fronts");
    let line = text
        .lines()
        .find(|l| l.starts_with("front"))
        .expect("a front line");
    let mut fields: Vec<String> = line.split('\t').map(str::to_string).collect();
    let bits = u64::from_str_radix(fields[3].trim_start_matches("0x"), 16).expect("hex bits");
    fields[3] = format!("{:#018x}", bits ^ 1);
    std::fs::write(&fronts, text.replacen(line, &fields.join("\t"), 1)).expect("write fronts");
    let verify = dir.join("verify_smoke.tsv");
    let text = std::fs::read_to_string(&verify).expect("verify");
    std::fs::write(&verify, text.replacen("\t1536\t", "\t1537\t", 1)).expect("write verify");
    dir
}

#[test]
fn an_altered_reference_fails_the_gate() {
    let reference = altered_reference();
    let reference = reference.to_str().expect("utf-8 path");
    for workload in ["dse_cold", "dse_restart", "verify_full"] {
        let (code, result) = run(workload, 7, false, &["--reference-dir", reference]);
        assert_ne!(code, 0, "{workload} passed against an altered reference");
        let result = result.unwrap_or_else(|| panic!("{workload}: no result line"));
        assert_eq!(
            result.get("correct"),
            Some(&Json::Bool(false)),
            "{workload}"
        );
        assert!(number(&result, "failed") >= 1.0, "{workload}");
    }
}

#[test]
fn the_unaltered_reference_passes_the_gate() {
    let reference = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference");
    let reference = reference.to_str().expect("utf-8 path");
    let (code, result) = run("verify_full", 7, false, &["--reference-dir", reference]);
    assert_eq!(code, 0, "{result:?}");
}
