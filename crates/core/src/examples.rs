//! The paper's motivating example (Fig. 1): conditional application of an
//! expensive pipelined function `comp`.
//!
//! * [`conditional_sdfs`] — Fig. 1a: the static (SDFS) version must run
//!   `comp` on *every* token and filter afterwards, paying worst-case
//!   latency and energy.
//! * [`conditional_dfs`] — Fig. 1b: the DFS version evaluates the cheap
//!   predicate `cond` into a control register that guards a push (`filt`)
//!   and a pop (`out`): `False` tokens bypass `comp` entirely.
//!
//! The `fig1_motivating` experiment binary quantifies the difference as a
//! function of the predicate hit-rate.

use crate::builder::DfsBuilder;
use crate::graph::Dfs;
use crate::node::NodeId;
use crate::DfsError;

/// Handles into the conditional-computation models.
#[derive(Debug, Clone)]
pub struct Conditional {
    /// The model.
    pub dfs: Dfs,
    /// Input register.
    pub input: NodeId,
    /// Output register (the pop `out` in the DFS version).
    pub output: NodeId,
    /// The control register (DFS version only).
    pub ctrl: Option<NodeId>,
    /// Registers of the `comp` pipeline, in order.
    pub comp_regs: Vec<NodeId>,
}

/// Builds the Fig. 1a SDFS model: `cond` and `comp` both always execute;
/// `filt` merges them and the result is filtered at the output.
///
/// `comp_depth` is the number of pipeline stages inside `comp`
/// (the paper draws `comp` as a shaded register for simplicity).
///
/// # Errors
///
/// Propagates builder validation errors.
pub fn conditional_sdfs(comp_depth: usize, comp_delay: f64) -> Result<Conditional, DfsError> {
    let mut b = DfsBuilder::new();
    let input = b.register("in").marked().build();
    let cond = b.logic("cond").delay(1.0).build();
    let cond_reg = b.register("cond_reg").build();
    b.connect(input, cond);
    b.connect(cond, cond_reg);

    let mut prev = input;
    let mut comp_regs = Vec::new();
    for i in 1..=comp_depth.max(1) {
        let f = b.logic(format!("comp_f{i}")).delay(comp_delay).build();
        let r = b.register(format!("comp_r{i}")).build();
        b.connect(prev, f);
        b.connect(f, r);
        comp_regs.push(r);
        prev = r;
    }

    // filt merges the predicate and the computed value; out follows
    let filt = b.logic("filt").delay(1.0).build();
    let out = b.register("out").build();
    b.connect(prev, filt);
    b.connect(cond_reg, filt);
    b.connect(filt, out);
    // environment recycles
    b.connect(out, input);

    let dfs = b.finish()?;
    Ok(Conditional {
        input,
        output: out,
        ctrl: None,
        comp_regs,
        dfs,
    })
}

/// Builds the Fig. 1b DFS model: `cond` fills the control register `ctrl`,
/// which guards the push `filt` (entry of `comp`) and the pop `out`
/// (its exit).
///
/// # Errors
///
/// Propagates builder validation errors.
pub fn conditional_dfs(comp_depth: usize, comp_delay: f64) -> Result<Conditional, DfsError> {
    let mut b = DfsBuilder::new();
    let input = b.register("in").marked().build();
    let cond = b.logic("cond").delay(1.0).build();
    let ctrl = b.control("ctrl").build();
    b.connect(input, cond);
    b.connect(cond, ctrl);

    let filt = b.push("filt").build();
    b.connect(input, filt);
    b.connect(ctrl, filt);

    let mut prev: NodeId = filt;
    let mut comp_regs = Vec::new();
    for i in 1..=comp_depth.max(1) {
        let f = b.logic(format!("comp_f{i}")).delay(comp_delay).build();
        let r = b.register(format!("comp_r{i}")).build();
        b.connect(prev, f);
        b.connect(f, r);
        comp_regs.push(r);
        prev = r;
    }

    let out = b.pop("out").build();
    b.connect(prev, out);
    b.connect(ctrl, out);
    // environment recycles
    b.connect(out, input);

    let dfs = b.finish()?;
    Ok(Conditional {
        input,
        output: out,
        ctrl: Some(ctrl),
        comp_regs,
        dfs,
    })
}

/// Builds the Fig. 1b model with a **control FIFO**: instead of a single
/// `ctrl` register spanning the whole `comp` latency, a chain of
/// `comp_depth + 1` control registers carries each token's predicate value
/// alongside its data. The entry push is guarded by the head of the FIFO
/// and the exit pop by its tail, so several tokens (with independent
/// predicate values) are in flight simultaneously — removing the
/// serialisation that the single-register version exhibits at high
/// hit-rates (see the `fig1_motivating` experiment).
///
/// # Errors
///
/// Propagates builder validation errors.
pub fn conditional_dfs_buffered(
    comp_depth: usize,
    comp_delay: f64,
) -> Result<Conditional, DfsError> {
    let mut b = DfsBuilder::new();
    let input = b.register("in").marked().build();
    let cond = b.logic("cond").delay(1.0).build();
    b.connect(input, cond);

    // control FIFO: cond -> ctrl1 -> ... -> ctrlK (values copy forward)
    let k = comp_depth.max(1) + 1;
    let ctrls: Vec<NodeId> = (1..=k)
        .map(|i| b.control(format!("ctrl{i}")).delay(0.5).build())
        .collect();
    b.connect(cond, ctrls[0]);
    for w in ctrls.windows(2) {
        b.connect(w[0], w[1]);
    }

    let filt = b.push("filt").build();
    b.connect(input, filt);
    b.connect(ctrls[0], filt);

    let mut prev: NodeId = filt;
    let mut comp_regs = Vec::new();
    for i in 1..=comp_depth.max(1) {
        let f = b.logic(format!("comp_f{i}")).delay(comp_delay).build();
        let r = b.register(format!("comp_r{i}")).build();
        b.connect(prev, f);
        b.connect(f, r);
        comp_regs.push(r);
        prev = r;
    }

    let out = b.pop("out").build();
    b.connect(prev, out);
    b.connect(ctrls[k - 1], out);
    b.connect(out, input);

    let dfs = b.finish()?;
    Ok(Conditional {
        input,
        output: out,
        ctrl: Some(ctrls[0]),
        comp_regs,
        dfs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lts::Lts;
    use crate::verify::{verify, VerifyConfig};
    use rap_petri::engine::EngineConfig;

    fn budget(max_states: usize) -> EngineConfig {
        EngineConfig {
            max_states,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn both_models_are_deadlock_free() {
        for build in [conditional_sdfs, conditional_dfs] {
            let model = build(2, 3.0).unwrap();
            let report = verify(&model.dfs, &VerifyConfig::default()).unwrap();
            assert!(
                report.deadlocks.is_empty(),
                "{:?}",
                report.deadlocks.first().map(|d| &d.trace)
            );
            assert!(report.control_mismatch.is_none());
        }
    }

    #[test]
    fn dfs_version_can_bypass_comp() {
        let model = conditional_dfs(2, 3.0).unwrap();
        let lts = Lts::explore(&model.dfs, &budget(500_000), None);
        assert!(!lts.is_truncated());
        let out = model.output;
        let comp_first = model.comp_regs[0];
        // a state where the output token exists while comp never computed:
        // out false-marked, comp registers all empty
        let bypass = lts.find_state(|s| {
            s.is_false_marked(out) && model.comp_regs.iter().all(|&r| !s.is_marked(r))
        });
        assert!(bypass.is_some(), "bypass behaviour must be reachable");
        // and the through path also exists
        let through = lts.find_state(|s| s.is_marked(comp_first));
        assert!(through.is_some());
    }

    #[test]
    fn buffered_variant_verifies_and_pipelines() {
        use crate::timed::{measure_throughput, ChoicePolicy};
        let buffered = conditional_dfs_buffered(2, 4.0).unwrap();
        let report = verify(&buffered.dfs, &VerifyConfig::default()).unwrap();
        assert!(
            report.deadlocks.is_empty(),
            "{:?}",
            report.deadlocks.first().map(|d| &d.trace)
        );
        assert!(report.control_mismatch.is_none());
        // at hit-rate 1 the FIFO keeps comp pipelined: faster than the
        // single-control version
        let single = conditional_dfs(2, 4.0).unwrap();
        let t_single =
            measure_throughput(&single.dfs, single.output, 10, 60, ChoicePolicy::AlwaysTrue)
                .unwrap();
        let t_buffered = measure_throughput(
            &buffered.dfs,
            buffered.output,
            10,
            60,
            ChoicePolicy::AlwaysTrue,
        )
        .unwrap();
        assert!(
            t_buffered > t_single * 1.2,
            "control FIFO must restore pipelining: {t_single} -> {t_buffered}"
        );
        // and bypass still works
        let t_bypass = measure_throughput(
            &buffered.dfs,
            buffered.output,
            10,
            60,
            ChoicePolicy::AlwaysFalse,
        )
        .unwrap();
        assert!(t_bypass > 0.0);
    }

    #[test]
    fn sdfs_version_always_computes() {
        let model = conditional_sdfs(2, 3.0).unwrap();
        let lts = Lts::explore(&model.dfs, &budget(500_000), None);
        assert!(!lts.is_truncated());
        // the SDFS output can never mark without comp's last register having
        // been involved: out's mark requires filt evaluated, which requires
        // the comp result — structurally guaranteed; spot-check that comp
        // registers do mark somewhere
        let computed = lts.find_state(|s| model.comp_regs.iter().all(|&r| s.is_marked(r)));
        assert!(computed.is_some() || model.comp_regs.len() == 1);
    }
}
