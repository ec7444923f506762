//! The reference oracle: Algorithm 2 of the paper (§6) written out
//! literally, with none of the production engine's machinery.
//!
//! Every dequeued circuit gets a fresh [`MatchContext`]; every
//! transformation is matched against it by a linear scan (no
//! [`crate::TransformationIndex`]); every match is applied, canonicalized,
//! costed by [`CostModel::cost`], and hashed by [`StructuralHash::of`] from
//! scratch; and every admitted successor is stored as a concrete circuit.
//! There is no match cache, no context derivation, no delta costing, no
//! hash preview, and no deferred materialization.
//!
//! What the oracle *does* share with [`crate::Optimizer`] is the search
//! policy, because that policy is what the production engine's outcomes are
//! a function of (DESIGN.md §2.3):
//!
//! * each step pops the best `batch_size` entries by (cost, FIFO order) and
//!   expands them all against the best cost and seen-set frozen before the
//!   step;
//! * each expansion's candidates are ordered by (cost, structural hash);
//! * merging re-probes the live seen-set and applies γ against the live
//!   (merge-time) best cost;
//! * the queue is pruned to `queue_keep` entries once it outgrows
//!   `queue_prune_threshold`.
//!
//! Under an iteration budget the oracle's outcome fields (`best_circuit`,
//! `best_cost`, `initial_cost`, `iterations`, `circuits_seen`,
//! `dedup_hits`, and the improvement-trace costs) must equal the production
//! engine's for every configuration — the differential tests assert exactly
//! that. Effort counters report what the oracle did: `match_attempts`
//! counts every transformation matched (the linear scan), `ctx_rebuilds`
//! every dequeue; the cache, derivation, and deferral counters stay 0.

use crate::cost::CostModel;
use crate::matcher::MatchContext;
use crate::search::{SearchConfig, SearchProfile, SearchResult};
use crate::xform::{canonicalize, Transformation};
use quartz_ir::{Circuit, CircuitDag, IdentityHashSet, StructuralHash};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// A queued circuit, ordered so the max-heap pops the lowest cost first and
/// breaks ties by insertion order.
struct Entry {
    key: (Reverse<usize>, Reverse<usize>),
    circuit: Circuit,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

fn hash_of(circuit: &Circuit) -> u64 {
    StructuralHash::of(&CircuitDag::from_circuit(circuit)).value()
}

/// Runs Algorithm 2 naively over `transformations` under `config`, bounded
/// by `config.max_iterations` and `config.timeout`. Ignores
/// `config.num_threads` (the oracle is sequential) and `config.profile`.
pub fn optimize(
    transformations: &[Transformation],
    config: &SearchConfig,
    input: &Circuit,
) -> SearchResult {
    let start = Instant::now();
    let cost_model: CostModel = config.cost_model;
    let initial_cost = cost_model.cost(input);
    let root = canonicalize(input);
    let mut seen = IdentityHashSet::default();
    seen.insert(hash_of(&root));
    let mut queue = BinaryHeap::new();
    queue.push(Entry {
        key: (Reverse(initial_cost), Reverse(0)),
        circuit: root.clone(),
    });
    let mut best_circuit = root;
    let mut best_cost = initial_cost;
    let mut trace = vec![(Duration::ZERO, initial_cost)];
    let (mut order, mut iterations, mut dedup_hits, mut match_attempts) = (0, 0, 0, 0);

    while start.elapsed() <= config.timeout && iterations < config.max_iterations {
        let take = config
            .batch_size
            .max(1)
            .min(config.max_iterations - iterations);
        let batch: Vec<Entry> = std::iter::from_fn(|| queue.pop()).take(take).collect();
        if batch.is_empty() {
            break;
        }
        iterations += batch.len();

        // Expand every popped circuit against the state frozen before the
        // step: the best cost and the seen-set.
        let frozen_best = best_cost;
        let mut expansions: Vec<Vec<(usize, u64, Circuit)>> = Vec::new();
        for entry in &batch {
            let ctx = MatchContext::new(&entry.circuit);
            let mut candidates = Vec::new();
            for xform in transformations {
                match_attempts += 1;
                for m in ctx.find_matches(&xform.target) {
                    let Some(delta) = ctx.delta_for(xform, &m) else {
                        continue;
                    };
                    let successor = canonicalize(&ctx.apply_delta(&delta));
                    let cost = cost_model.cost(&successor);
                    if (cost as f64) >= config.gamma * frozen_best as f64 {
                        continue;
                    }
                    let hash = hash_of(&successor);
                    if seen.contains(&hash) {
                        dedup_hits += 1;
                        continue;
                    }
                    candidates.push((cost, hash, successor));
                }
            }
            candidates.sort_by_key(|&(cost, hash, _)| (cost, hash));
            expansions.push(candidates);
        }

        // Merge in batch order against the live best cost and seen-set.
        for (cost, hash, circuit) in expansions.into_iter().flatten() {
            if seen.contains(&hash) {
                dedup_hits += 1;
                continue;
            }
            if (cost as f64) < config.gamma * best_cost as f64 {
                if cost < best_cost {
                    best_cost = cost;
                    best_circuit = circuit.clone();
                    trace.push((start.elapsed(), best_cost));
                }
                order += 1;
                seen.insert(hash);
                queue.push(Entry {
                    key: (Reverse(cost), Reverse(order)),
                    circuit,
                });
            }
        }
        if queue.len() > config.queue_prune_threshold {
            let mut entries = std::mem::take(&mut queue).into_sorted_vec();
            entries.reverse();
            entries.truncate(config.queue_keep);
            queue = entries.into_iter().collect();
        }
    }

    SearchResult {
        best_circuit,
        best_cost,
        initial_cost,
        iterations,
        circuits_seen: seen.len(),
        elapsed: start.elapsed(),
        improvement_trace: trace,
        match_attempts,
        match_skips: 0,
        dedup_hits,
        ctx_rebuilds: iterations,
        ctx_derives: 0,
        matches_cached: 0,
        matches_recomputed: 0,
        cache_invalidate_nodes: 0,
        scoped_rematches: 0,
        fp_fast_rejects: 0,
        fp_confirm_mismatches: 0,
        materializations_deferred: 0,
        dequeue_materializations: 0,
        profile: SearchProfile::default(),
    }
}
