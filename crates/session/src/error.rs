//! The unified error of the facade: one enum over every per-crate error.
//!
//! Callers composing the full paper flow — model construction
//! (`DfsError`), Petri-net firing (`PetriError`), Reach predicates
//! (`ReachError`), gate-level mapping (`MapError`), raw MCR solving
//! (`McrError`) — previously had to stitch five error enums by hand
//! (`Box<dyn Error>` in the examples, bespoke `From` chains elsewhere).
//! [`Error`] is the single `?`-target: every per-crate error converts
//! [`From`] it, [`Display`](std::fmt::Display) renders a layer-tagged
//! message, and [`source()`](std::error::Error::source) exposes the
//! original error for callers that walk chains.

use dfs_core::perf::McrError;
use dfs_core::DfsError;
use rap_petri::PetriError;
use rap_reach::ReachError;
use rap_silicon::map::MapError;
use std::fmt;

/// The unified facade error: any layer of the model → Petri → verification
/// → performance → silicon flow.
///
/// `Display` prefixes the failing layer; `source()` returns the wrapped
/// per-crate error, so `anyhow`-style chain walkers see both.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The dataflow layer: model construction, semantics, simulation,
    /// throughput analysis ([`dfs_core`]).
    Dfs(DfsError),
    /// The Petri-net backend ([`rap_petri`]).
    Petri(PetriError),
    /// The Reach property language ([`rap_reach`]).
    Reach(ReachError),
    /// Gate-level mapping ([`rap_silicon::map`]).
    Map(MapError),
    /// A raw max-cycle-ratio solver ([`dfs_core::perf`]); reported only
    /// when solvers are driven directly — `perf::analyse` renders these
    /// into [`DfsError::TokenFreeCycle`] with real event names first.
    Mcr(McrError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Dfs(e) => write!(f, "dataflow: {e}"),
            Error::Petri(e) => write!(f, "petri net: {e}"),
            Error::Reach(e) => write!(f, "reach predicate: {e}"),
            Error::Map(e) => write!(f, "gate mapping: {e}"),
            Error::Mcr(e) => write!(f, "cycle-ratio solver: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Dfs(e) => Some(e),
            Error::Petri(e) => Some(e),
            Error::Reach(e) => Some(e),
            Error::Map(e) => Some(e),
            Error::Mcr(e) => Some(e),
        }
    }
}

impl From<DfsError> for Error {
    fn from(e: DfsError) -> Self {
        Error::Dfs(e)
    }
}

impl From<PetriError> for Error {
    fn from(e: PetriError) -> Self {
        Error::Petri(e)
    }
}

impl From<ReachError> for Error {
    fn from(e: ReachError) -> Self {
        Error::Reach(e)
    }
}

impl From<MapError> for Error {
    fn from(e: MapError) -> Self {
        Error::Map(e)
    }
}

impl From<McrError> for Error {
    fn from(e: McrError) -> Self {
        Error::Mcr(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as StdError;

    #[test]
    fn every_layer_converts_and_chains() {
        let cases: Vec<(Error, &str)> = vec![
            (
                DfsError::UnknownNode("x".into()).into(),
                "dataflow: unknown node `x`",
            ),
            (
                PetriError::DuplicateName("p".into()).into(),
                "petri net: duplicate node name `p`",
            ),
            (
                ReachError::UnboundVariable { var: "p".into() }.into(),
                "reach predicate: unbound variable `p`",
            ),
            (
                MapError::NoSource("r".into()).into(),
                "gate mapping: register `r` has no data source",
            ),
            (
                McrError::TokenFreeCycle {
                    vertices: vec![3, 7],
                }
                .into(),
                "cycle-ratio solver: cycle without tokens through event vertices v3 -> v7",
            ),
        ];
        for (err, display) in cases {
            assert_eq!(err.to_string(), display);
            let source = err.source().expect("source chain present");
            // the wrapper's message embeds the source's own rendering
            assert!(
                err.to_string().contains(&source.to_string()),
                "{err} should contain {source}"
            );
        }
    }
}
