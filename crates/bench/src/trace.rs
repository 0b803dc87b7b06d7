//! The `rap/trace/v1` exporter and validator for `--trace-out`.
//!
//! Every experiment binary accepts `--trace-out PATH`: it attaches a live
//! [`rap_obs::Collector`] to the run and, on exit, renders the collector's
//! [`Snapshot`] as a small schema-stable JSON document. The document is an
//! offline artifact in the same spirit as `BENCH_*.json` — reusing this
//! crate's [`json`](crate::json) emitter/parser — so traces can be
//! archived, diffed and validated without any external tooling.
//!
//! # Document shape (`rap/trace/v1`)
//!
//! ```json
//! {
//!   "schema": "rap/trace/v1",
//!   "wall_ns": 1234567,
//!   "coverage": 0.97,
//!   "spans": [
//!     {"id": 0, "name": "root", "parent": null, "count": 0,
//!      "total_ns": 1234567, "self_ns": 0},
//!     {"id": 1, "name": "dse.sweep", "parent": 0, "count": 3,
//!      "total_ns": 1200000, "self_ns": 400000}
//!   ],
//!   "counters": {"dse.eval.full": 12},
//!   "gauges": {"engine.frontier.peak": 96.0},
//!   "histograms": [
//!     {"name": "store.read_ns", "count": 4, "total_ns": 80000,
//!      "buckets": [{"pow2": 15, "count": 4}]}
//!   ],
//!   "events": [{"kind": "dse.full", "label": "static/d4", "value": "0x00baf00d"}],
//!   "dropped_events": 0,
//!   "summary": {"top_self": [{"name": "session.compute", "self_ns": 700000}]}
//! }
//! ```
//!
//! Spans are the *aggregated* tree of [`rap_obs`]: one node per
//! (parent, name) pair with entry counts and total/self nanoseconds —
//! bounded in size and directly chartable, rather than an unbounded event
//! log. `parent` is an index into the same array (`null` only for the
//! root at index 0), and parents always precede children, so a single
//! forward pass can rebuild the tree. Event `value`s are rendered as hex
//! strings because they carry full 64-bit payloads (structural hashes)
//! that a float-typed JSON number would corrupt.
//!
//! [`validate`] checks all of this plus the headline acceptance property:
//! when the root has children at all (i.e. the binary actually recorded
//! spans), they must account for **at least 90%** of the collector's
//! wall-clock — a trace that cannot say where the time went is rejected
//! rather than silently archived. A small absolute slack
//! ([`COVERAGE_SLACK_NS`]) keeps the floor about untraced *work*: a
//! near-instant run whose only uncovered time is the fixed
//! collector-setup/teardown overhead still passes.

use crate::cli::BenchCli;
use crate::json::{Field, Json, Layout, Node};
use rap_obs::{Collector, Obs, Snapshot};
use std::path::PathBuf;
use std::sync::Arc;

/// The schema tag of the emitted document.
pub const SCHEMA: &str = "rap/trace/v1";

/// Minimum fraction of wall-clock the root's children must account for
/// (only enforced when the root has children; see [`validate`]).
pub const MIN_COVERAGE: f64 = 0.9;

/// Absolute uncovered-time slack for the coverage floor: a trace whose
/// uncovered wall-clock — `wall_ns × (1 − coverage)` — is below this is
/// accepted even under [`MIN_COVERAGE`]. The floor exists to reject
/// traces that cannot account for real *work*; on a run measured in
/// microseconds the collector's own fixed setup/snapshot overhead would
/// otherwise dominate the ratio.
pub const COVERAGE_SLACK_NS: u64 = 5_000_000;

/// The most spans a `top_self` list names.
const TOP_SELF: usize = 5;

/// Renders a [`Snapshot`] as a `rap/trace/v1` JSON document.
#[must_use]
pub fn render(snap: &Snapshot) -> String {
    use Layout::{Block, Inline};
    let spans = snap.spans.iter().enumerate().map(|(i, node)| {
        Node::Obj(
            Inline,
            vec![
                ("id", i.into()),
                ("name", node.name.into()),
                ("parent", node.parent.map(u64::from).into()),
                ("count", node.count.into()),
                ("total_ns", node.total_ns.into()),
                ("self_ns", snap.self_ns(i).into()),
            ],
        )
    });
    let histograms = snap.hists.iter().map(|h| {
        let buckets = h.buckets.iter().map(|&(pow2, count)| {
            Node::Obj(
                Inline,
                vec![("pow2", u64::from(pow2).into()), ("count", count.into())],
            )
        });
        Node::Obj(
            Inline,
            vec![
                ("name", h.name.into()),
                ("count", h.count.into()),
                ("total_ns", h.total_ns.into()),
                ("buckets", Node::Arr(Inline, buckets.collect())),
            ],
        )
    });
    // 64-bit payloads (structural hashes) as hex strings: a float-typed
    // JSON number would corrupt them
    let events = snap.events.iter().map(|e| {
        Node::Obj(
            Inline,
            vec![
                ("kind", e.kind.into()),
                ("label", e.label.as_str().into()),
                ("value", Node::Str(format!("{:#018x}", e.value))),
            ],
        )
    });
    Node::Obj(
        Block,
        vec![
            ("schema", SCHEMA.into()),
            ("wall_ns", snap.wall_ns.into()),
            ("coverage", Node::Fixed(snap.coverage(), 6)),
            ("spans", Node::Arr(Block, spans.collect())),
            (
                "counters",
                Node::Obj(
                    Block,
                    snap.counters.iter().map(|(k, v)| (k, v.into())).collect(),
                ),
            ),
            (
                "gauges",
                Node::Obj(
                    Block,
                    snap.gauges
                        .iter()
                        .map(|&(k, v)| (k, Node::Fixed(v, 6)))
                        .collect(),
                ),
            ),
            ("histograms", Node::Arr(Block, histograms.collect())),
            ("events", Node::Arr(Block, events.collect())),
            ("dropped_events", snap.dropped_events.into()),
            (
                "summary",
                Node::Obj(Inline, vec![("top_self", top_self(snap))]),
            ),
        ],
    )
    .write()
}

fn top_self(snap: &Snapshot) -> Node {
    let rows = snap.top_self(TOP_SELF).into_iter().map(|(name, self_ns)| {
        Node::Obj(
            Layout::Inline,
            vec![("name", name.into()), ("self_ns", self_ns.into())],
        )
    });
    Node::Arr(Layout::Inline, rows.collect())
}

fn check_top_self(top: &Field) -> Result<(), String> {
    let rows = top.items()?;
    if rows.len() > TOP_SELF {
        return Err(top.err(&format!("has {} entries (max {TOP_SELF})", rows.len())));
    }
    for row in &rows {
        row.get("name")?.str()?;
        row.get("self_ns")?.count()?;
    }
    Ok(())
}

/// The `trace_summary` member embedded into `BENCH_*.json` documents when
/// a run was traced: wall-clock, coverage and the top-5 spans by
/// self-time.
#[must_use]
pub fn summary(snap: &Snapshot) -> Node {
    Node::Obj(
        Layout::Block,
        vec![
            ("wall_ns", snap.wall_ns.into()),
            ("coverage", Node::Fixed(snap.coverage(), 6)),
            ("top_self", top_self(snap)),
        ],
    )
}

/// Checks a [`summary`] member read back from a `BENCH_*.json` document.
///
/// # Errors
///
/// A message naming the first malformed field.
pub fn check_summary(summary: &Field) -> Result<(), String> {
    if summary.get("wall_ns")?.count()? == 0 {
        return Err(summary.err("has a zero `wall_ns`"));
    }
    summary.get("coverage")?.num_in(0.0..=1.0)?;
    check_top_self(&summary.get("top_self")?)
}

/// Validates `src` as a `rap/trace/v1` document.
///
/// Structural checks: the schema tag, a well-formed span array (ids equal
/// indices, the root at index 0 with `parent: null`, every other parent a
/// smaller index), integer-valued counters, number-valued gauges,
/// histograms whose bucket counts sum to the histogram count, hex-string
/// event values, and a `summary.top_self` of at most five entries.
/// Semantic check: when the root has children, `coverage` must be at
/// least [`MIN_COVERAGE`] — unless the uncovered wall-clock is under
/// [`COVERAGE_SLACK_NS`], which exempts near-instant runs whose only
/// unaccounted time is the collector's own fixed overhead.
///
/// # Errors
///
/// A human-readable message naming the first violated rule.
pub fn validate(src: &str) -> Result<(), String> {
    let parsed = Json::parse(src)?;
    let doc = Field::root(&parsed);
    let schema = doc.get("schema")?;
    if schema.str()? != SCHEMA {
        return Err(schema.err(&format!("is not {SCHEMA:?}")));
    }
    let wall_ns = doc.get("wall_ns")?.count()?;
    if wall_ns == 0 {
        return Err("`wall_ns` is zero".to_string());
    }
    let coverage = doc.get("coverage")?.num_in(0.0..=1.0)?;

    let spans = doc.get("spans")?.items()?;
    if spans.is_empty() {
        return Err("`spans` is empty (no root)".to_string());
    }
    let mut root_has_children = false;
    for (i, span) in spans.iter().enumerate() {
        if span.get("id")?.count()? != i as u64 {
            return Err(span.err("has an id other than its index"));
        }
        if span.get("name")?.str()?.is_empty() {
            return Err(span.err("has an empty name"));
        }
        span.get("count")?.count()?;
        span.get("total_ns")?.count()?;
        span.get("self_ns")?.count()?;
        let parent = span.get("parent")?;
        match (i, parent.value()) {
            (0, Json::Null) => {}
            (0, _) => return Err("root span parent is not null".to_string()),
            (_, Json::Null) => return Err(parent.err("is null off the root")),
            (_, _) => {
                let p = parent.count()?;
                if p >= i as u64 {
                    return Err(parent.err("is not an earlier span index"));
                }
                root_has_children |= p == 0;
            }
        }
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let uncovered_ns = (wall_ns as f64 * (1.0 - coverage)) as u64;
    if root_has_children && coverage < MIN_COVERAGE && uncovered_ns > COVERAGE_SLACK_NS {
        return Err(format!(
            "coverage {coverage:.3} below the {MIN_COVERAGE} floor with {uncovered_ns} ns \
             unaccounted: the span tree cannot account for the run's wall-clock"
        ));
    }

    for (_, counter) in doc.get("counters")?.members()? {
        counter.count()?;
    }
    for (_, gauge) in doc.get("gauges")?.members()? {
        gauge.num()?;
    }
    for h in doc.get("histograms")?.items()? {
        h.get("name")?.str()?;
        let count = h.get("count")?.count()?;
        h.get("total_ns")?.count()?;
        let mut bucket_sum = 0u64;
        for b in h.get("buckets")?.items()? {
            let pow2 = b.get("pow2")?;
            if pow2.count()? > 64 {
                return Err(pow2.err("exceeds 64"));
            }
            bucket_sum += b.get("count")?.count()?;
        }
        if bucket_sum != count {
            return Err(h.err(&format!("buckets sum to {bucket_sum}, count says {count}")));
        }
    }
    for e in doc.get("events")?.items()? {
        e.get("kind")?.str()?;
        e.get("label")?.str()?;
        let value = e.get("value")?;
        let hex = value.str()?.strip_prefix("0x");
        if !hex.is_some_and(|h| !h.is_empty() && h.bytes().all(|b| b.is_ascii_hexdigit())) {
            return Err(value.err("is not a 0x-prefixed hex literal"));
        }
    }
    doc.get("dropped_events")?.count()?;
    check_top_self(&doc.get("summary")?.get("top_self")?)
}

/// A binary's `--trace-out` plumbing: a live [`Collector`] when the flag
/// was given, nothing (and zero recording overhead) otherwise.
#[derive(Debug, Default)]
pub struct TraceSink {
    collector: Option<Arc<Collector>>,
    path: Option<PathBuf>,
}

impl TraceSink {
    /// Builds the sink from the parsed CLI: live iff `--trace-out` was
    /// passed. Construct this *before* the timed work so the collector's
    /// wall-clock covers the whole run.
    #[must_use]
    pub fn from_cli(cli: &BenchCli) -> TraceSink {
        match &cli.trace_out {
            Some(path) => TraceSink {
                collector: Some(Arc::new(Collector::new())),
                path: Some(path.clone()),
            },
            None => TraceSink::default(),
        }
    }

    /// The recorder handle to thread into the run ([`Obs::none`] when not
    /// tracing — every downstream `span`/`add` is then a no-op).
    #[must_use]
    pub fn obs(&self) -> Obs {
        self.collector
            .as_ref()
            .map_or_else(Obs::none, Obs::collecting)
    }

    /// A point-in-time snapshot, when live. Take it only after the spans
    /// of interest have closed — open spans are not in the aggregate.
    #[must_use]
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.collector.as_ref().map(|c| c.snapshot())
    }

    /// Snapshots, renders, **self-validates** and writes the trace, then
    /// prints where it went. Returns the snapshot so callers can also
    /// embed its [`summary`] into their `BENCH_*.json`. No-op
    /// (returning `None`) when not tracing.
    ///
    /// # Panics
    ///
    /// When the rendered document fails its own schema validation (an
    /// emitter bug, never a user error) or the file cannot be written.
    pub fn finish(&self) -> Option<Snapshot> {
        let snap = self.snapshot()?;
        let path = self.path.as_ref().expect("trace path");
        let doc = render(&snap);
        if let Err(err) = validate(&doc) {
            panic!("emitted trace failed self-validation: {err}");
        }
        std::fs::write(path, &doc)
            .unwrap_or_else(|err| panic!("writing trace to {}: {err}", path.display()));
        println!(
            "\ntrace: wrote {} ({} spans, coverage {:.1}%)",
            path.display(),
            snap.spans.len(),
            snap.coverage() * 100.0
        );
        Some(snap)
    }
}

/// Runs `body` under a single `bench.main` span, honouring the CLI's
/// `--trace-out`. Most experiment binaries are one phase end to end, so
/// this is their entire tracing story: the span accounts for the whole
/// run (keeping [`validate`]'s coverage floor trivially satisfied), any
/// spans the body emits through the passed [`Obs`] nest inside it, and
/// the trace is rendered, self-validated and written after `body`
/// returns. Without `--trace-out` the `Obs` handle is detached and every
/// recording call in the body compiles to a no-op.
pub fn with_trace(cli: &BenchCli, body: impl FnOnce(&Obs)) {
    let sink = TraceSink::from_cli(cli);
    {
        let main_span = sink.obs().span("bench.main");
        body(&main_span.obs());
    }
    sink.finish();
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn collected() -> Snapshot {
        let collector = Arc::new(Collector::new());
        let obs = Obs::collecting(&collector);
        {
            let outer = obs.span("bench.main");
            let inner = outer.obs();
            inner.time("session.compute", |o| {
                o.add("session.petri.compute", 1);
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
            inner.observe_ns("store.read_ns", 4096);
            inner.note("dse.full", "static/d4", 0xbaf0_0d11);
            inner.gauge("engine.frontier.peak", 96.0);
        }
        collector.snapshot()
    }

    /// [`collected`] with every clock reading replaced by a constant, so
    /// the documents rendered from it are byte-stable.
    pub(crate) fn fixed_snapshot() -> Snapshot {
        let mut snap = collected();
        snap.wall_ns = 10_000_000;
        let totals = [10_000_000, 9_600_000, 2_500_000];
        assert_eq!(snap.spans.len(), totals.len(), "fixture span tree changed");
        for (span, total) in snap.spans.iter_mut().zip(totals) {
            span.total_ns = total;
        }
        snap
    }

    /// Copies of `doc` (which embeds [`fixed_snapshot`]'s summary) with a
    /// malformed `trace_summary`: six `top_self` entries, an entry whose
    /// name is not a string, a negative self-time.
    pub(crate) fn broken_summaries(doc: &str) -> Vec<String> {
        let first = r#"{"name": "bench.main", "self_ns": 7100000}"#;
        assert!(doc.contains(first), "fixture summary changed");
        vec![
            doc.replace(
                "\"top_self\": [",
                &format!("\"top_self\": [{}", format!("{first}, ").repeat(4)),
            ),
            doc.replace(first, r#"{"name": 7, "self_ns": 7100000}"#),
            doc.replace(first, r#"{"name": "bench.main", "self_ns": -1}"#),
        ]
    }

    #[test]
    fn golden_bytes() {
        let doc = render(&fixed_snapshot());
        validate(&doc).unwrap();
        assert_eq!(doc, include_str!("../tests/golden/trace.json"));
    }

    #[test]
    fn rendered_trace_validates() {
        let snap = collected();
        let doc = render(&snap);
        validate(&doc).unwrap();
        // and the parse agrees with the snapshot on the headline numbers
        let parsed = Json::parse(&doc).unwrap();
        let root = Field::root(&parsed);
        assert_eq!(root.get("schema").unwrap().str(), Ok(SCHEMA));
        assert_eq!(
            root.get("spans").unwrap().items().unwrap().len(),
            snap.spans.len()
        );
        let cov = root.get("coverage").unwrap().num().unwrap();
        assert!((cov - snap.coverage()).abs() < 1e-5);
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let snap = collected();
        let good = render(&snap);
        // wrong schema tag
        let bad = good.replace("rap/trace/v1", "rap/trace/v0");
        assert!(validate(&bad).unwrap_err().contains("schema"));
        // root span must exist
        assert!(validate(
            r#"{"schema": "rap/trace/v1", "wall_ns": 1, "coverage": 0.0, "spans": []}"#
        )
        .unwrap_err()
        .contains("root"));
        // low coverage with a populated tree is rejected — once the
        // unaccounted time exceeds the absolute slack (inflate wall_ns so
        // the 90% miss is real work, not fixed collector overhead)
        let lazy = good
            .replace(
                &format!("\"coverage\": {:.6}", snap.coverage()),
                "\"coverage\": 0.100000",
            )
            .replace(
                &format!("\"wall_ns\": {}", snap.wall_ns),
                "\"wall_ns\": 1000000000",
            );
        assert!(validate(&lazy).unwrap_err().contains("coverage"));
        // ...while the same miss on a near-instant run is within slack
        let tiny = good.replace(
            &format!("\"coverage\": {:.6}", snap.coverage()),
            "\"coverage\": 0.100000",
        );
        assert!(snap.wall_ns < COVERAGE_SLACK_NS, "fixture ran too long");
        validate(&tiny).expect("slack exempts near-instant runs");
        // event values must stay 64-bit-exact hex strings
        let bad = good.replace("\"0x00000000baf00d11\"", "12345");
        assert!(validate(&bad).unwrap_err().contains("value"));
    }

    #[test]
    fn summary_is_embeddable() {
        let snap = collected();
        let wrapped = Node::Obj(Layout::Block, vec![("trace_summary", summary(&snap))]).write();
        let parsed = Json::parse(&wrapped).unwrap();
        let block = Field::root(&parsed).get("trace_summary").unwrap();
        check_summary(&block).unwrap();
        assert!(block.get("wall_ns").unwrap().count().unwrap() >= 1);
        let top = block.get("top_self").unwrap().items().unwrap();
        assert!(!top.is_empty() && top.len() <= 5);
    }
}
