//! Shared harness for the figure-regeneration benches.
//!
//! [`scenario`] wires the paper's §5 evaluation together: the word-count
//! program over the synthetic tweet corpus, the Xeon-like cost model, the
//! simulator, and the autonomic controller. Each `fig*` bench target and
//! the end-to-end tests drive it with the paper's parameters. [`skewed`]
//! is the other scenario more than one target runs: the skewed-cluster
//! offload acceptance run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fig1;
pub mod scenario;
pub mod series;
pub mod skewed;

pub use fig1::Fig1Fixture;
pub use scenario::{PaperScenarios, ScenarioOutcome, ScenarioParams};
pub use skewed::{run_skewed_cluster, run_skewed_cluster_guarded, SkewedRun};
