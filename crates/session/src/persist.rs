//! Persistence glue between [`CompiledModel`](crate::CompiledModel) and
//! [`rap_store::Store`]: one hand-rolled, bit-exact byte codec per
//! artifact kind.
//!
//! Every encoder/decoder pair round-trips the artifact **bit for bit**
//! (floats travel as [`f64::to_bits`] patterns), which is what lets a
//! store-backed session honour the session coherence contract across
//! process restarts. Decoders are total: any defect — truncation,
//! trailing bytes, an impossible tag — yields `None`, the caller
//! quarantines the frame and recomputes. A decode failure therefore never
//! changes an answer, only its cost.
//!
//! Artifacts whose store subkey is a *digest* rather than the raw query
//! parameter (the steady-state query digests `(output, max_marks)`) echo
//! the raw parameters in their payload and verify them on decode, so even
//! a 64-bit subkey collision degrades to a recompute, never to a wrong
//! answer. The LTS query is deliberately **not** persisted: a state space
//! is the one artifact routinely larger than the model that produced it,
//! and re-exploring is exactly the cheap-and-safe degradation this layer
//! promises (the quick-check screen, which callers actually persist,
//! captures the verdicts).

use crate::model::CostSummary;
use dfs_core::perf::{Construction, CriticalCycle, PerfDetail, PerfReport};
use dfs_core::timed::SteadyStatePeriod;
use dfs_core::NodeId;
use rap_petri::analysis::{Deadlock, QuickCheck, QuickVerdict};
use rap_petri::reachability::StateId;
use rap_petri::{Marking, PlaceId, TransitionId};
use rap_store::codec::{Reader, Writer};
use rap_store::{ArtifactKey, QueryKind, Store};
use std::sync::Arc;

/// The store context a [`CompiledModel`](crate::CompiledModel) persists
/// through: the shared store plus the model's two identity digests, fixed
/// at compile (intern) time.
pub(crate) struct Persist {
    pub store: Arc<Store>,
    pub structural: u64,
    pub identity: u64,
}

impl Persist {
    fn key(&self, kind: QueryKind, subkey: u64) -> ArtifactKey {
        ArtifactKey {
            structural: self.structural,
            identity: self.identity,
            kind,
            subkey,
        }
    }

    /// Loads and decodes the artifact at `(kind, subkey)`, quarantining a
    /// frame whose checksum verified but whose payload fails `decode`
    /// (equally corrupt to a caller).
    pub fn load<T>(
        &self,
        kind: QueryKind,
        subkey: u64,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<T> {
        let key = self.key(kind, subkey);
        let payload = self.store.load(&key)?;
        let value = decode(&payload);
        if value.is_none() {
            self.store.quarantine(&key);
        }
        value
    }

    /// Commits `payload` as the artifact at `(kind, subkey)`.
    pub fn save(&self, kind: QueryKind, subkey: u64, payload: &[u8]) {
        self.store.save(&self.key(kind, subkey), payload);
    }
}

/// The steady query's two raw parameters folded into one subkey — the
/// payload echoes both, so a fold collision is caught on decode.
pub(crate) fn steady_subkey(output: NodeId, max_marks: u64) -> u64 {
    use dfs_core::hash::mix64;
    mix64(mix64(0x0057_ead7 ^ output.index() as u64) ^ max_marks)
}

// ---- PerfDetail ----------------------------------------------------------

pub(crate) fn encode_perf(detail: &PerfDetail) -> Vec<u8> {
    let mut w = Writer::new();
    let r = &detail.report;
    w.f64(r.period);
    w.f64(r.throughput);
    w.u64(r.critical.nodes.len() as u64);
    for n in &r.critical.nodes {
        w.str(n);
    }
    w.f64(r.critical.delay);
    w.u32(r.critical.tokens);
    w.str(&r.critical.bottleneck);
    match r.construction {
        Construction::Direct => w.u8(0),
        Construction::PhaseUnfolded { phases } => {
            w.u8(1);
            w.u32(phases);
        }
    }
    w.u64(detail.activity_per_item.len() as u64);
    for &a in &detail.activity_per_item {
        w.f64(a);
    }
    w.into_bytes()
}

pub(crate) fn decode_perf(bytes: &[u8]) -> Option<PerfDetail> {
    let mut r = Reader::new(bytes);
    let period = r.f64()?;
    let throughput = r.f64()?;
    let n_nodes = usize::try_from(r.u64()?).ok()?;
    let mut nodes = Vec::with_capacity(n_nodes.min(bytes.len()));
    for _ in 0..n_nodes {
        nodes.push(r.str()?);
    }
    let delay = r.f64()?;
    let tokens = r.u32()?;
    let bottleneck = r.str()?;
    let construction = match r.u8()? {
        0 => Construction::Direct,
        1 => Construction::PhaseUnfolded { phases: r.u32()? },
        _ => return None,
    };
    let n_act = usize::try_from(r.u64()?).ok()?;
    let mut activity_per_item = Vec::with_capacity(n_act.min(bytes.len()));
    for _ in 0..n_act {
        activity_per_item.push(r.f64()?);
    }
    r.finish()?;
    Some(PerfDetail {
        report: PerfReport {
            period,
            throughput,
            critical: CriticalCycle {
                nodes,
                delay,
                tokens,
                bottleneck,
            },
            construction,
        },
        activity_per_item,
    })
}

// ---- QuickCheck ----------------------------------------------------------

fn encode_verdict(w: &mut Writer, v: QuickVerdict) {
    match v {
        QuickVerdict::Holds => w.u8(0),
        QuickVerdict::Violated => w.u8(1),
        QuickVerdict::Inconclusive { budget } => {
            w.u8(2);
            w.u64(budget as u64);
        }
    }
}

fn decode_verdict(r: &mut Reader<'_>) -> Option<QuickVerdict> {
    Some(match r.u8()? {
        0 => QuickVerdict::Holds,
        1 => QuickVerdict::Violated,
        2 => QuickVerdict::Inconclusive {
            budget: usize::try_from(r.u64()?).ok()?,
        },
        _ => return None,
    })
}

fn encode_marking(w: &mut Writer, m: &Marking) {
    w.u64(m.len() as u64);
    let mut byte = 0u8;
    for i in 0..m.len() {
        if m.is_marked(PlaceId::from_index(i)) {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            w.u8(byte);
            byte = 0;
        }
    }
    if !m.len().is_multiple_of(8) {
        w.u8(byte);
    }
}

/// Decodes a marking from a payload of `payload_len` bytes in all.
fn decode_marking(r: &mut Reader<'_>, payload_len: usize) -> Option<Marking> {
    let len = usize::try_from(r.u64()?).ok()?;
    // a length whose bit bytes cannot fit in the payload is corrupt: refuse
    // it before allocating (a forged length would otherwise ask for
    // hundreds of megabytes)
    if len.div_ceil(8) > payload_len || len > u32::MAX as usize {
        return None;
    }
    let mut m = Marking::empty(len);
    let mut byte = 0u8;
    for i in 0..len {
        if i % 8 == 0 {
            byte = r.u8()?;
        }
        if byte & (1 << (i % 8)) != 0 {
            m.set(PlaceId::from_index(i), true);
        }
    }
    Some(m)
}

pub(crate) fn encode_check(c: &QuickCheck) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(c.states as u64);
    w.u8(u8::from(c.truncated));
    encode_verdict(&mut w, c.deadlock_free);
    match &c.deadlock {
        None => w.u8(0),
        Some(d) => {
            w.u8(1);
            w.u64(d.state.index() as u64);
            encode_marking(&mut w, &d.marking);
            w.u64(d.trace.len() as u64);
            for t in &d.trace {
                w.u32(u32::try_from(t.index()).expect("transition index fits u32"));
            }
        }
    }
    encode_verdict(&mut w, c.safe);
    match c.unsafe_witness {
        None => w.u8(0),
        Some((state, pair)) => {
            w.u8(1);
            w.u64(state.index() as u64);
            w.u64(pair as u64);
        }
    }
    w.into_bytes()
}

pub(crate) fn decode_check(bytes: &[u8]) -> Option<QuickCheck> {
    let mut r = Reader::new(bytes);
    let states = usize::try_from(r.u64()?).ok()?;
    let truncated = match r.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let deadlock_free = decode_verdict(&mut r)?;
    let deadlock = match r.u8()? {
        0 => None,
        1 => {
            let state = StateId::from_index(usize::try_from(r.u64()?).ok()?);
            let marking = decode_marking(&mut r, bytes.len())?;
            let n = usize::try_from(r.u64()?).ok()?;
            let mut trace = Vec::with_capacity(n.min(bytes.len()));
            for _ in 0..n {
                trace.push(TransitionId::from_index(r.u32()? as usize));
            }
            Some(Deadlock {
                state,
                marking,
                trace,
            })
        }
        _ => return None,
    };
    let safe = decode_verdict(&mut r)?;
    let unsafe_witness = match r.u8()? {
        0 => None,
        1 => {
            let state = StateId::from_index(usize::try_from(r.u64()?).ok()?);
            let pair = usize::try_from(r.u64()?).ok()?;
            Some((state, pair))
        }
        _ => return None,
    };
    r.finish()?;
    Some(QuickCheck {
        states,
        truncated,
        deadlock_free,
        deadlock,
        safe,
        unsafe_witness,
    })
}

// ---- CostSummary ---------------------------------------------------------

pub(crate) fn encode_cost(s: &CostSummary) -> Vec<u8> {
    let mut w = Writer::new();
    w.f64(s.area);
    w.f64(s.switched_ge_per_item);
    w.into_bytes()
}

pub(crate) fn decode_cost(bytes: &[u8]) -> Option<CostSummary> {
    let mut r = Reader::new(bytes);
    let area = r.f64()?;
    let switched_ge_per_item = r.f64()?;
    r.finish()?;
    Some(CostSummary {
        area,
        switched_ge_per_item,
    })
}

// ---- SteadyStatePeriod ---------------------------------------------------

pub(crate) fn encode_steady(output: NodeId, max_marks: u64, sp: &SteadyStatePeriod) -> Vec<u8> {
    let mut w = Writer::new();
    // echo the raw query parameters: the subkey is a digest of them
    w.u64(output.index() as u64);
    w.u64(max_marks);
    w.f64(sp.period);
    w.u64(sp.cycle_marks);
    w.u64(sp.transient_marks);
    w.into_bytes()
}

pub(crate) fn decode_steady(
    bytes: &[u8],
    output: NodeId,
    max_marks: u64,
) -> Option<SteadyStatePeriod> {
    let mut r = Reader::new(bytes);
    if r.u64()? != output.index() as u64 || r.u64()? != max_marks {
        return None; // subkey digest collision: alien parameters
    }
    let period = r.f64()?;
    let cycle_marks = r.u64()?;
    let transient_marks = r.u64()?;
    r.finish()?;
    Some(SteadyStatePeriod {
        period,
        cycle_marks,
        transient_marks,
    })
}

// Bit-exact round-trip proptests over *arbitrary* artifacts of every
// persisted kind — including NaNs, infinities and signed zeros, which is
// why every float comparison below is on `to_bits`. Truncation totality
// is pinned too: decoders must answer `None`, never panic, on any prefix.
#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_f64() -> impl Strategy<Value = f64> {
        any::<u64>().prop_map(f64::from_bits)
    }

    fn arb_name() -> impl Strategy<Value = String> {
        proptest::collection::vec(any::<u8>(), 0..12).prop_map(|v| {
            // arbitrary bytes folded into valid UTF-8 (multi-byte included)
            v.into_iter()
                .map(|b| char::from_u32(u32::from(b) + 1).unwrap_or('·'))
                .collect()
        })
    }

    fn arb_perf() -> impl Strategy<Value = PerfDetail> {
        (
            (arb_f64(), arb_f64(), arb_f64(), any::<u32>()),
            proptest::collection::vec(arb_name(), 0..6),
            arb_name(),
            (any::<bool>(), any::<u32>()),
            proptest::collection::vec(arb_f64(), 0..20),
        )
            .prop_map(
                |(
                    (period, throughput, delay, tokens),
                    nodes,
                    bottleneck,
                    (direct, phases),
                    act,
                )| {
                    PerfDetail {
                        report: PerfReport {
                            period,
                            throughput,
                            critical: CriticalCycle {
                                nodes,
                                delay,
                                tokens,
                                bottleneck,
                            },
                            construction: if direct {
                                Construction::Direct
                            } else {
                                Construction::PhaseUnfolded { phases }
                            },
                        },
                        activity_per_item: act,
                    }
                },
            )
    }

    fn verdict_from(tag: u8, budget: u64) -> QuickVerdict {
        match tag % 3 {
            0 => QuickVerdict::Holds,
            1 => QuickVerdict::Violated,
            _ => QuickVerdict::Inconclusive {
                budget: budget as usize,
            },
        }
    }

    fn arb_check() -> impl Strategy<Value = QuickCheck> {
        (
            (any::<u32>(), any::<bool>()),
            (any::<u8>(), any::<u32>(), any::<u8>(), any::<u32>()),
            (
                any::<bool>(),
                any::<u32>(),
                proptest::collection::vec(any::<bool>(), 0..40),
                proptest::collection::vec(any::<u32>(), 0..10),
            ),
            (any::<bool>(), any::<u32>(), any::<u32>()),
        )
            .prop_map(
                |(
                    (states, truncated),
                    (v1, b1, v2, b2),
                    (has_deadlock, dstate, places, trace),
                    (has_witness, wstate, pair),
                )| {
                    let deadlock = has_deadlock.then(|| {
                        let mut marking = Marking::empty(places.len());
                        for (i, &m) in places.iter().enumerate() {
                            marking.set(PlaceId::from_index(i), m);
                        }
                        Deadlock {
                            state: StateId::from_index(dstate as usize),
                            marking,
                            trace: trace
                                .iter()
                                .map(|&t| TransitionId::from_index(t as usize))
                                .collect(),
                        }
                    });
                    QuickCheck {
                        states: states as usize,
                        truncated,
                        deadlock_free: verdict_from(v1, u64::from(b1)),
                        deadlock,
                        safe: verdict_from(v2, u64::from(b2)),
                        unsafe_witness: has_witness
                            .then(|| (StateId::from_index(wstate as usize), pair as usize)),
                    }
                },
            )
    }

    fn perf_bits_equal(a: &PerfDetail, b: &PerfDetail) -> bool {
        let (ra, rb) = (&a.report, &b.report);
        ra.period.to_bits() == rb.period.to_bits()
            && ra.throughput.to_bits() == rb.throughput.to_bits()
            && ra.critical.nodes == rb.critical.nodes
            && ra.critical.delay.to_bits() == rb.critical.delay.to_bits()
            && ra.critical.tokens == rb.critical.tokens
            && ra.critical.bottleneck == rb.critical.bottleneck
            && ra.construction == rb.construction
            && a.activity_per_item.len() == b.activity_per_item.len()
            && a.activity_per_item
                .iter()
                .zip(&b.activity_per_item)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn perf_round_trips_bit_exact(detail in arb_perf()) {
            let bytes = encode_perf(&detail);
            let back = decode_perf(&bytes).expect("round trip");
            prop_assert!(perf_bits_equal(&detail, &back));
        }

        #[test]
        fn perf_decode_is_total_on_truncation(detail in arb_perf(), cut in any::<u32>()) {
            let bytes = encode_perf(&detail);
            let cut = cut as usize % (bytes.len() + 1);
            if cut < bytes.len() {
                prop_assert!(decode_perf(&bytes[..cut]).is_none());
            }
        }

        #[test]
        fn check_round_trips_bit_exact(check in arb_check()) {
            let bytes = encode_check(&check);
            let back = decode_check(&bytes).expect("round trip");
            prop_assert_eq!(check, back);
        }

        #[test]
        fn check_decode_is_total_on_truncation(check in arb_check(), cut in any::<u32>()) {
            let bytes = encode_check(&check);
            let cut = cut as usize % (bytes.len() + 1);
            if cut < bytes.len() {
                prop_assert!(decode_check(&bytes[..cut]).is_none());
            }
        }

        #[test]
        fn cost_round_trips_bit_exact(area in arb_f64(), switched in arb_f64()) {
            let summary = CostSummary { area, switched_ge_per_item: switched };
            let back = decode_cost(&encode_cost(&summary)).expect("round trip");
            prop_assert_eq!(summary.area.to_bits(), back.area.to_bits());
            prop_assert_eq!(
                summary.switched_ge_per_item.to_bits(),
                back.switched_ge_per_item.to_bits()
            );
        }

        #[test]
        fn steady_round_trips_and_verifies_parameters(
            node in 0u32..1000,
            marks in any::<u64>(),
            period in arb_f64(),
            cycle in any::<u64>(),
            transient in any::<u64>(),
        ) {
            let sp = SteadyStatePeriod {
                period,
                cycle_marks: cycle,
                transient_marks: transient,
            };
            let output = node_id(node as usize);
            let bytes = encode_steady(output, marks, &sp);
            let back = decode_steady(&bytes, output, marks).expect("round trip");
            prop_assert_eq!(sp.period.to_bits(), back.period.to_bits());
            prop_assert_eq!(sp.cycle_marks, back.cycle_marks);
            prop_assert_eq!(sp.transient_marks, back.transient_marks);
            // an echoed-parameter mismatch (digest collision stand-in) is
            // rejected even though the bytes are pristine
            prop_assert!(decode_steady(&bytes, output, marks ^ 1).is_none());
            prop_assert!(decode_steady(&bytes, node_id(node as usize + 1), marks).is_none());
        }
    }

    /// A checksum-valid frame claiming a deadlock marking of `u32::MAX`
    /// places is refused before the marking is allocated.
    #[test]
    fn forged_marking_length_decodes_to_none() {
        let mut w = Writer::new();
        w.u64(1); // states
        w.u8(0); // not truncated
        w.u8(1); // deadlock-freedom violated
        w.u8(1); // with a counterexample
        w.u64(0); // at state 0
        w.u64(u64::from(u32::MAX)); // whose marking claims 2^32 - 1 places
        w.u8(0xff);
        assert!(decode_check(&w.into_bytes()).is_none());
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The store format, pinned: fixed artifacts of the four persisted
    /// kinds encode to these payloads (and the steady query folds its
    /// parameters to this subkey), so a store written by an earlier build
    /// keeps serving a later one. Each fixture also decodes back to its
    /// artifact.
    #[test]
    fn codecs_match_golden_bytes() {
        let perf = PerfDetail {
            report: PerfReport {
                period: 12.5,
                throughput: 0.08,
                critical: CriticalCycle {
                    nodes: vec!["a".into(), "f".into(), "ρ".into()],
                    delay: 12.5,
                    tokens: 1,
                    bottleneck: "f".into(),
                },
                construction: Construction::PhaseUnfolded { phases: 3 },
            },
            activity_per_item: vec![1.0, 0.5, -0.0],
        };
        let perf_hex = "00000000000029407b14ae47e17ab43f03000000000000000100000000000000\
                        610100000000000000660200000000000000cf81000000000000294001000000\
                        01000000000000006601030000000300000000000000000000000000f03f0000\
                        00000000e03f0000000000000080";
        assert_eq!(hex(&encode_perf(&perf)), perf_hex);
        assert!(perf_bits_equal(
            &decode_perf(&encode_perf(&perf)).unwrap(),
            &perf
        ));

        let mut marking = Marking::empty(11);
        for p in [0, 3, 10] {
            marking.set(PlaceId::from_index(p), true);
        }
        let violated = QuickCheck {
            states: 1234,
            truncated: true,
            deadlock_free: QuickVerdict::Violated,
            deadlock: Some(Deadlock {
                state: StateId::from_index(7),
                marking,
                trace: [2, 0, 5].map(TransitionId::from_index).to_vec(),
            }),
            safe: QuickVerdict::Inconclusive { budget: 20_000 },
            unsafe_witness: Some((StateId::from_index(9), 4)),
        };
        let clean = QuickCheck {
            states: 40,
            truncated: false,
            deadlock_free: QuickVerdict::Holds,
            deadlock: None,
            safe: QuickVerdict::Holds,
            unsafe_witness: None,
        };
        let violated_hex = "d20400000000000001010107000000000000000b000000000000000904030000\
                            000000000002000000000000000500000002204e000000000000010900000000\
                            0000000400000000000000";
        for (check, fixture) in [
            (violated, violated_hex),
            (clean, "28000000000000000000000000"),
        ] {
            assert_eq!(hex(&encode_check(&check)), fixture);
            assert_eq!(decode_check(&encode_check(&check)), Some(check));
        }

        let cost = CostSummary {
            area: 1520.25,
            switched_ge_per_item: 310.5,
        };
        assert_eq!(hex(&encode_cost(&cost)), "0000000000c197400000000000687340");
        assert_eq!(decode_cost(&encode_cost(&cost)), Some(cost));

        let steady = SteadyStatePeriod {
            period: 10.0,
            cycle_marks: 4,
            transient_marks: 2,
        };
        let out = node_id(3);
        assert_eq!(
            hex(&encode_steady(out, 64, &steady)),
            "03000000000000004000000000000000000000000000244004000000000000000200000000000000"
        );
        let back = decode_steady(&encode_steady(out, 64, &steady), out, 64).unwrap();
        assert_eq!(
            (back.period, back.cycle_marks, back.transient_marks),
            (10.0, 4, 2)
        );
        assert_eq!(steady_subkey(out, 64), 0x56a4_c873_20da_3ad2);
    }

    /// Builds a NodeId from a raw index for the tests.
    fn node_id(index: usize) -> NodeId {
        NodeId::from_index(index)
    }
}
