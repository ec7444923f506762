//! # quartz-opt
//!
//! The circuit optimizer of the Quartz superoptimizer reproduction
//! (paper §6 and §7.1): transformation extraction from ECC sets, convex
//! subcircuit matching, and the cost-based backtracking search of
//! Algorithm 2 — implemented as a three-layer engine (DESIGN.md §2):
//! canonical-form fingerprints for deduplication, a [`TransformationIndex`]
//! that dispatches only the transformations whose pattern gate-multiset the
//! circuit can cover, and batched parallel frontier expansion. Matching is
//! *incremental*: a [`MatchContext`] is backed by the DAG IR
//! ([`quartz_ir::CircuitDag`]) and a child circuit's context is derived
//! from its parent's through the splice delta that created it
//! ([`MatchContext::derive_with_footprint`], O(rewrite footprint)) instead
//! of being rebuilt from the sequence form per dequeued circuit
//! (DESIGN.md §5). [`reference::optimize`] is the same search written out
//! literally — no index, cache, derivation, or deferral — and serves as
//! the oracle the production engine is tested against.
//! Also the preprocessing passes (Toffoli decomposition, rotation merging,
//! gate-set transpilation) and a greedy rule-based baseline.
//!
//! Batches of circuits are served concurrently by the
//! [`OptimizationService`] (DESIGN.md §6): one search frontier per circuit
//! over a single shared [`TransformationIndex`], with work stealing across
//! frontiers and per-circuit results bit-identical to standalone
//! [`Optimizer::optimize`] runs.
//!
//! Startup is *zero-generation* when a persisted library artifact is
//! available (DESIGN.md §7): [`LibraryCache`] loads a `QTZL` artifact once —
//! prebuilt dispatch index included — and [`Optimizer::from_library`] /
//! [`OptimizationService::from_library`] share it via [`std::sync::Arc`],
//! turning seconds of ECC generation into a cold file read.
//!
//! # Example
//!
//! ```
//! use quartz_gen::{Generator, GenConfig};
//! use quartz_ir::{Circuit, Gate, GateSet, Instruction};
//! use quartz_opt::{preprocess_nam, Optimizer, SearchConfig};
//! use std::time::Duration;
//!
//! // A Toffoli followed by its own inverse should optimize away almost
//! // entirely: preprocessing decomposes and merges rotations, and the
//! // search cancels what remains.
//! let mut circuit = Circuit::new(3, 0);
//! circuit.push(Instruction::new(Gate::Ccx, vec![0, 1, 2], vec![]));
//! circuit.push(Instruction::new(Gate::Ccx, vec![0, 1, 2], vec![]));
//! let preprocessed = preprocess_nam(&circuit);
//!
//! let (ecc_set, _) = Generator::new(GateSet::nam(), GenConfig::standard(2, 2, 0)).run();
//! let optimizer = Optimizer::from_ecc_set(&ecc_set, SearchConfig::with_timeout(Duration::from_secs(2)));
//! let result = optimizer.optimize(&preprocessed);
//! assert!(result.best_cost < 30);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod baseline;
mod cache;
mod cost;
mod match_cache;
mod matcher;
mod preprocess;
pub mod reference;
mod search;
mod service;
mod xform;

pub use baseline::{greedy_optimize, BaselineStats};
pub use cache::{LibraryCache, LoadedLibrary};
pub use cost::{CostModel, DeltaCoster};
pub use match_cache::{CacheStats, MatchCache};
pub use matcher::{apply_all, apply_at, find_matches, Match, MatchContext};
pub use preprocess::{
    cancel_adjacent_inverses, clifford_t_to_nam, decompose_toffolis, merge_rotations, nam_to_ibm,
    nam_to_rigetti, preprocess_ibm, preprocess_nam, preprocess_rigetti, toffoli_decomposition,
};
pub use quartz_gen::TransformationIndex;
pub use search::{Optimizer, SearchConfig, SearchProfile, SearchResult};
pub use service::{
    AdmissionError, OptimizationService, Priority, RequestId, RequestState, RequestStatus,
    ServiceEvent, ServiceRequest, ServiceScheduler,
};
pub use xform::{canonicalize, transformations_from_ecc_set, Transformation};
