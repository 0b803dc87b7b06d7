//! Seeded input generation. The seed permutes the order of the design
//! space's axes and the order of the verification cases; the program
//! under test only ever sees the generated inputs. Every permutation must
//! leave every output unchanged — the correctness gate checks that.

use dfs_core::pipelines::{build_pipeline, PipelineSpec};
use dfs_core::wagging::wagged_pipeline;
use dfs_core::Dfs;
use rap_dse::DesignSpace;

/// The exhaustive verification budget: 16M states, the engine's default.
pub const FULL_BUDGET: usize = 16_000_000;

/// The budget of the smoke-sized wagged case, which truncates on purpose
/// so the quotient path still runs in milliseconds.
const SMOKE_WAGGED_BUDGET: usize = 20_000;

/// Input size: the paper-sized workloads, or smoke sizes for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The 576-configuration paper space and the 16M-budget verify set.
    Full,
    /// The 48-configuration quick space and `reconfigurable_depth(2,2)`.
    Smoke,
}

/// splitmix64: a tiny, well-mixed, seedable generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// How a verification case is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `CompiledModel::quick_check` on the Petri image.
    Petri,
    /// `quick_check_quotient` under the way-rotation symmetry.
    PetriQuotient,
    /// `CompiledModel::lts`, the direct-semantics backend.
    Lts,
}

impl Backend {
    pub fn tag(self) -> &'static str {
        match self {
            Backend::Petri => "petri",
            Backend::PetriQuotient => "petri-quotient",
            Backend::Lts => "lts",
        }
    }
}

/// One conclusive-verification case of `verify_full`.
pub struct VerifyCase {
    /// The per-case metric slot (`verify.<slot>_s`).
    pub slot: &'static str,
    /// Model shape, as the reference names it.
    pub model: &'static str,
    pub backend: Backend,
    pub budget: usize,
    pub dfs: Dfs,
    /// Node permutation rotating the wagged ways (quotient cases only).
    pub way_rotation: Option<Vec<u32>>,
}

/// Everything one run feeds the program.
pub struct Inputs {
    pub size: Size,
    pub seed: u64,
    pub space: DesignSpace,
    pub verify: Vec<VerifyCase>,
}

fn reconfigurable(n: usize, k: usize) -> Dfs {
    let spec = PipelineSpec::reconfigurable_depth(n, k).expect("valid reconfigurable shape");
    build_pipeline(&spec).expect("pipeline builds").dfs
}

impl Inputs {
    /// The space (axes permuted by `seed`) and, when `with_verify`, the
    /// verification cases (order permuted by `seed`).
    pub fn generate(size: Size, seed: u64, with_verify: bool) -> Inputs {
        let mut rng = Rng::new(seed);
        let mut space = rap_bench::dse::paper_space(size == Size::Smoke);
        rng.shuffle(&mut space.hardware);
        rng.shuffle(&mut space.workloads);
        rng.shuffle(&mut space.sizings);
        rng.shuffle(&mut space.voltages);
        let mut verify = if with_verify {
            verify_cases(size)
        } else {
            Vec::new()
        };
        rng.shuffle(&mut verify);
        Inputs {
            size,
            seed,
            space,
            verify,
        }
    }
}

fn verify_cases(size: Size) -> Vec<VerifyCase> {
    let wagged = wagged_pipeline(2, 1, 1.0).expect("2-way wagging builds");
    let (wagged_budget, reconfig_name, reconfig) = match size {
        Size::Full => (
            FULL_BUDGET,
            "reconfigurable_depth(3,3)",
            reconfigurable(3, 3),
        ),
        Size::Smoke => (
            SMOKE_WAGGED_BUDGET,
            "reconfigurable_depth(2,2)",
            reconfigurable(2, 2),
        ),
    };
    let case = |slot, model, backend, budget, dfs: &Dfs, rot: Option<&Vec<u32>>| VerifyCase {
        slot,
        model,
        backend,
        budget,
        dfs: dfs.clone(),
        way_rotation: rot.cloned(),
    };
    let w2 = "wagging(ways=2,depth=1)";
    vec![
        case(
            "wagging2",
            w2,
            Backend::Petri,
            wagged_budget,
            &wagged.dfs,
            None,
        ),
        case(
            "wagging2_quotient",
            w2,
            Backend::PetriQuotient,
            wagged_budget,
            &wagged.dfs,
            Some(&wagged.way_rotation),
        ),
        case(
            "reconfig33_petri",
            reconfig_name,
            Backend::Petri,
            FULL_BUDGET,
            &reconfig,
            None,
        ),
        case(
            "reconfig33_lts",
            reconfig_name,
            Backend::Lts,
            FULL_BUDGET,
            &reconfig,
            None,
        ),
    ]
}
