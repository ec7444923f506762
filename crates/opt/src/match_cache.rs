//! The match-site cache: structural matches carried across `derive`,
//! invalidated only around the splice footprint (DESIGN.md §8).
//!
//! PR 2 made *context construction* incremental: a dequeued circuit's
//! [`MatchContext`] is derived from its parent's in O(rewrite footprint).
//! But every dequeue still re-ran full pattern matching over the whole
//! circuit. This module makes the *matching* itself incremental, following
//! the invalidate-around-the-rewrite strategy of graph-rewriting engines
//! like quizx/Badger:
//!
//! * A [`MatchCache`] stores, per transformation id, every **structural**
//!   match of that transformation's target in the current circuit —
//!   all matcher constraints except convexity, which is global and is
//!   re-checked per use ([`MatchContext::is_match_convex`]).
//! * [`MatchCache::derive`] produces the child circuit's cache from the
//!   parent's: matches binding a removed or
//!   inserted node are dropped; matches merely touching a *boundary* node
//!   (a node the splice rewired but did not replace) are revalidated in
//!   place by the O(pattern) wire-order recheck
//!   ([`MatchContext::match_wire_order_intact`]); and matches the splice
//!   could have *created* are enumerated by pinning
//!   ([`MatchContext::find_matches_structural_pinned`]) a pattern position
//!   onto each inserted node and a pattern wire edge onto each bridged
//!   boundary adjacency, for just the transformations the index's dirty
//!   dispatch selects
//!   ([`quartz_gen::TransformationIndex::dirty_candidates_into`]).
//!   Only the *matcher* work is footprint-bounded; the invalidation pass
//!   itself probes every cached match against the footprint with O(1) set
//!   lookups (a per-node reverse index could localize that too if it ever
//!   shows up in profiles).
//!
//! # Why this is sound
//!
//! Structural validity of a match is a purely local property of its nodes:
//! their instructions, their wire predecessors/successors, and whether
//! those neighbors are inside the match. A splice changes local state for
//! exactly the [`SpliceFootprint`] nodes. Hence a structural match disjoint
//! from the footprint is valid in the child iff it was valid in the parent
//! (carry it); a match touching only boundary nodes kept every instruction,
//! so only its wire-order conditions need rechecking; and a match that is
//! *new* in the child must either bind an inserted node or owe its validity
//! to a wire-order condition that changed — and every wire adjacency that
//! is new without involving an inserted node is a bridged boundary pair
//! ([`SpliceFootprint::bridged`]). Pinning those positions enumerates all
//! new matches with work bounded by the pattern and its local bucket sizes.
//! Convexity is *not* local — a splice can reconnect or sever dependency
//! paths between far-apart nodes — which is exactly why the cache stores
//! structural matches and the convexity check moves to use time, where the
//! engine without caching performs it anyway (at the matcher's full depth).
//!
//! The cache therefore serves, per dequeued circuit and per transformation,
//! exactly the match set a full re-match would discover — which is what
//! keeps the search bit-identical to the re-match-everything reference
//! oracle ([`crate::reference`]; asserted field-by-field in tests and
//! proptests).

use crate::matcher::{Match, MatchContext};
use quartz_gen::{IndexScratch, TransformationIndex};
use quartz_ir::{NodeId, SpliceFootprint};
use std::collections::HashSet;
use std::sync::Arc;

/// Statistics of one cache construction or derivation pass, folded into
/// [`crate::SearchResult`]'s cache counters by the search layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Full-circuit pattern-match passes (one per candidate transformation
    /// at a frontier root; zero on derivations).
    pub full_passes: usize,
    /// Footprint-pinned matcher micro-runs on derivations: one per
    /// (inserted node, compatible pattern position) and per (bridged
    /// adjacency, compatible pattern wire edge). Each is bounded by the
    /// pattern and its local bucket sizes, not the circuit.
    pub scoped_runs: usize,
    /// Structural matches discovered by those matcher runs.
    pub matches_recomputed: usize,
    /// Cached matches dropped because they bound a removed or reused node,
    /// or failed the boundary wire-order revalidation.
    pub matches_invalidated: usize,
    /// Distinct nodes in the splice footprint that drove the invalidation.
    pub dirty_nodes: usize,
}

/// Per-circuit cache of structural matches, keyed by transformation id.
///
/// Travels with the search's derivation chain: the frontier root builds one
/// with [`MatchCache::build_for`], and every derived circuit gets its cache
/// from [`MatchCache::derive`]. Entries are `Arc`-shared between parent and
/// child caches, so a derivation clones O(#transformations) pointers plus
/// only the entries it actually changes.
#[derive(Debug, Clone)]
pub struct MatchCache {
    /// `entries[id]` holds every structural match of transformation `id`'s
    /// target in the current circuit. Complete for every id (ids whose
    /// pattern histogram the circuit cannot cover have no matches and an
    /// empty — shared — entry).
    entries: Vec<Arc<Vec<Match>>>,
    /// How many of `entries[id]`'s matches were discovered by the pass that
    /// produced *this* cache (as opposed to carried from the parent).
    /// Freshly recomputed matches are appended, so these are the trailing
    /// `fresh[id]` entries.
    fresh: Vec<u32>,
}

impl MatchCache {
    /// Builds the cache for a frontier root: one full structural match pass
    /// per candidate transformation (`candidate_ids` must be the index's
    /// candidate list for this circuit, or a superset).
    pub fn build_for(
        ctx: &MatchContext,
        index: &TransformationIndex,
        candidate_ids: &[usize],
    ) -> (MatchCache, CacheStats) {
        let empty = Arc::new(Vec::new());
        let mut entries = vec![Arc::clone(&empty); index.len()];
        let mut fresh = vec![0u32; index.len()];
        let mut stats = CacheStats::default();
        for &id in candidate_ids {
            let found = ctx.find_matches_structural(&index.transformations()[id].target);
            stats.full_passes += 1;
            stats.matches_recomputed += found.len();
            fresh[id] = found.len() as u32;
            if !found.is_empty() {
                entries[id] = Arc::new(found);
            }
        }
        (MatchCache { entries, fresh }, stats)
    }

    /// Derives the child circuit's cache from this one through the splice
    /// footprint that produced `child` (see the module docs for the
    /// invalidation rule and its soundness argument).
    pub fn derive(
        &self,
        child: &MatchContext,
        index: &TransformationIndex,
        footprint: &SpliceFootprint,
        scratch: &mut IndexScratch,
    ) -> (MatchCache, CacheStats) {
        let mut entries = self.entries.clone();
        let mut fresh = vec![0u32; entries.len()];
        let mut stats = CacheStats {
            dirty_nodes: footprint.len(),
            ..CacheStats::default()
        };

        // 1. Invalidate — exactly. Matches binding a removed or inserted
        //    node are gone (the node died, or its slot was reused by a new
        //    instruction). Matches that merely touch a *boundary* node kept
        //    all their instructions; only wire adjacency at the boundary
        //    changed, so an O(pattern) wire-order recheck decides precisely
        //    whether each survives — no re-search needed for survivors.
        //    This pass probes every cached match against the footprint sets
        //    (a few hash lookups each; the matcher runs only for
        //    boundary-touching matches), and an entry is re-allocated only
        //    when something in it actually went stale.
        let dead_set: HashSet<NodeId> = footprint
            .removed
            .iter()
            .chain(&footprint.inserted)
            .copied()
            .collect();
        let boundary_set: HashSet<NodeId> = footprint.boundary.iter().copied().collect();
        for (id, entry) in entries.iter_mut().enumerate() {
            let stale = |m: &Match| {
                touches(m, &dead_set)
                    || (touches(m, &boundary_set)
                        && !child.match_wire_order_intact(&index.transformations()[id].target, m))
            };
            // Single pass: the kept-vector is materialized lazily at the
            // first stale match, so clean entries stay shared and each
            // match is evaluated exactly once.
            let mut kept: Option<Vec<Match>> = None;
            for (i, m) in entry.iter().enumerate() {
                match (stale(m), &mut kept) {
                    (true, None) => kept = Some(entry[..i].to_vec()),
                    (false, Some(kept)) => kept.push(m.clone()),
                    _ => {}
                }
            }
            if let Some(kept) = kept {
                stats.matches_invalidated += entry.len() - kept.len();
                *entry = Arc::new(kept);
            }
        }

        // 2. Re-match around the footprint. A structural match that is new
        //    in the child either binds an inserted node or straddles a
        //    bridged boundary pair, so the dispatch evidence is: the
        //    inserted nodes' gate types, plus every wire adjacency the
        //    splice created — the (pred, succ) type pairs realized at each
        //    inserted node and at each bridged boundary pair.
        let live_dirty = footprint.live_dirty();
        if live_dirty.is_empty() {
            return (MatchCache { entries, fresh }, stats);
        }
        let dag = child.dag();
        let mut inserted_mask = 0u32;
        let mut dirty_pairs: Vec<(quartz_ir::Gate, quartz_ir::Gate)> = Vec::new();
        let push_pair =
            |pair: (quartz_ir::Gate, quartz_ir::Gate),
             dirty_pairs: &mut Vec<(quartz_ir::Gate, quartz_ir::Gate)>| {
                if !dirty_pairs.contains(&pair) {
                    dirty_pairs.push(pair);
                }
            };
        for &i in &footprint.inserted {
            let gate = dag.instruction(i).gate;
            inserted_mask |= 1 << gate.index();
            for pred in dag.preds(i).iter().flatten() {
                push_pair((dag.instruction(*pred).gate, gate), &mut dirty_pairs);
            }
            for succ in dag.succs(i).iter().flatten() {
                push_pair((gate, dag.instruction(*succ).gate), &mut dirty_pairs);
            }
        }
        for &(pred, succ) in &footprint.bridged {
            push_pair(
                (dag.instruction(pred).gate, dag.instruction(succ).gate),
                &mut dirty_pairs,
            );
        }
        if inserted_mask == 0 && dirty_pairs.is_empty() {
            return (MatchCache { entries, fresh }, stats);
        }
        let mut ids = Vec::new();
        index.dirty_candidates_into(
            dag.gate_histogram(),
            dag.num_qubits(),
            inserted_mask,
            &dirty_pairs,
            scratch,
            &mut ids,
        );
        for id in ids {
            let target = &index.transformations()[id].target;
            let target_preds = target.wire_predecessors();
            // Enumerate exactly the matches the splice could have created,
            // by pinning: a new match binds an inserted node at some
            // compatible pattern position, or maps some pattern wire edge
            // onto a bridged boundary adjacency. Dedupe across pins and
            // against carried survivors (a revalidated match can also
            // touch the footprint) on the node map, which identifies a
            // match uniquely.
            let existing: HashSet<&[NodeId]> = entries[id]
                .iter()
                .map(|m| m.instruction_map.as_slice())
                .collect();
            let mut found: Vec<Match> = Vec::new();
            let mut seen_new: HashSet<Vec<NodeId>> = HashSet::new();
            let collect = |pins: &[(usize, NodeId)],
                           found: &mut Vec<Match>,
                           seen_new: &mut HashSet<Vec<NodeId>>,
                           scoped_runs: &mut usize| {
                *scoped_runs += 1;
                for m in child.find_matches_structural_pinned(target, pins) {
                    if existing.contains(m.instruction_map.as_slice()) {
                        continue;
                    }
                    if seen_new.insert(m.instruction_map.clone()) {
                        found.push(m);
                    }
                }
            };
            for &i in &footprint.inserted {
                let gate = dag.instruction(i).gate;
                for (p, instr) in target.instructions().iter().enumerate() {
                    if instr.gate == gate {
                        collect(&[(p, i)], &mut found, &mut seen_new, &mut stats.scoped_runs);
                    }
                }
            }
            for &(pred, succ) in &footprint.bridged {
                let (pred_gate, succ_gate) =
                    (dag.instruction(pred).gate, dag.instruction(succ).gate);
                for (j, ops) in target_preds.iter().enumerate() {
                    for i in ops.iter().flatten() {
                        if target.instructions()[*i].gate == pred_gate
                            && target.instructions()[j].gate == succ_gate
                        {
                            collect(
                                &[(*i, pred), (j, succ)],
                                &mut found,
                                &mut seen_new,
                                &mut stats.scoped_runs,
                            );
                        }
                    }
                }
            }
            drop(existing);
            stats.matches_recomputed += found.len();
            fresh[id] = found.len() as u32;
            if !found.is_empty() {
                let mut merged = (*entries[id]).clone();
                merged.extend(found);
                entries[id] = Arc::new(merged);
            }
        }
        (MatchCache { entries, fresh }, stats)
    }

    /// The cached structural matches of transformation `id`.
    pub fn matches(&self, id: usize) -> &[Match] {
        &self.entries[id]
    }

    /// How many of transformation `id`'s cached matches were *carried* from
    /// the parent cache (served without any matcher work in the pass that
    /// produced this cache) — the cache-hit numerator.
    pub fn carried(&self, id: usize) -> usize {
        self.entries[id].len() - self.fresh[id] as usize
    }
}

/// Whether a match binds any node of `set`.
fn touches(m: &Match, set: &HashSet<NodeId>) -> bool {
    m.instruction_map.iter().any(|id| set.contains(id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_ir::{Circuit, Gate, Instruction};

    fn gate(g: Gate, qs: &[usize]) -> Instruction {
        Instruction::new(g, qs.to_vec(), vec![])
    }

    fn pair_cancellation(g: Gate) -> quartz_gen::Transformation {
        let mut target = Circuit::new(1, 0);
        target.push(gate(g, &[0]));
        target.push(gate(g, &[0]));
        quartz_gen::Transformation {
            target,
            rewrite: Circuit::new(1, 0),
        }
    }

    /// Index with HH→∅ (id 0) and XX→∅ (id 1).
    fn hx_index() -> TransformationIndex {
        TransformationIndex::new(vec![pair_cancellation(Gate::H), pair_cancellation(Gate::X)])
    }

    fn full_candidates(index: &TransformationIndex, ctx: &MatchContext) -> Vec<usize> {
        index.candidates_for(ctx.dag().gate_histogram())
    }

    /// The ground truth the cache must reproduce after any derivation:
    /// a from-scratch structural match pass per transformation.
    fn assert_cache_matches_rebuild(
        cache: &MatchCache,
        ctx: &MatchContext,
        index: &TransformationIndex,
    ) {
        for (id, xform) in index.transformations().iter().enumerate() {
            let mut cached: Vec<Vec<NodeId>> = cache
                .matches(id)
                .iter()
                .map(|m| m.instruction_map.clone())
                .collect();
            let mut rebuilt: Vec<Vec<NodeId>> = ctx
                .find_matches_structural(&xform.target)
                .iter()
                .map(|m| m.instruction_map.clone())
                .collect();
            cached.sort();
            rebuilt.sort();
            assert_eq!(cached, rebuilt, "transformation {id} diverged");
        }
    }

    #[test]
    fn disjoint_splice_invalidates_nothing_and_rematches_nothing() {
        // H H on wire 0, X X on wire 1: cancelling the H's must not disturb
        // the cached X X match (disjoint wires, disjoint footprint).
        let mut c = Circuit::new(2, 0);
        c.push(gate(Gate::H, &[0]));
        c.push(gate(Gate::H, &[0]));
        c.push(gate(Gate::X, &[1]));
        c.push(gate(Gate::X, &[1]));
        let index = hx_index();
        let ctx = MatchContext::new(&c);
        let (cache, build) = MatchCache::build_for(&ctx, &index, &full_candidates(&index, &ctx));
        assert_eq!(build.full_passes, 2);
        assert_eq!(build.matches_recomputed, 2);
        assert_eq!(cache.matches(0).len(), 1);
        assert_eq!(cache.matches(1).len(), 1);

        let m = cache.matches(0)[0].clone();
        let delta = ctx.delta_for(&index.transformations()[0], &m).unwrap();
        let (child, footprint) = ctx.derive_with_footprint(&delta);
        // The H pair is an entire wire: no boundary, no insertions.
        assert!(footprint.live_dirty().is_empty());
        let (derived, stats) = cache.derive(&child, &index, &footprint, &mut IndexScratch::new());

        // Exactly the overlapping match was dropped; nothing was re-matched.
        assert_eq!(stats.matches_invalidated, 1);
        assert_eq!(stats.full_passes, 0);
        assert_eq!(stats.scoped_runs, 0);
        assert_eq!(stats.matches_recomputed, 0);
        assert_eq!(stats.dirty_nodes, 2);
        assert!(derived.matches(0).is_empty());
        // The X X match was carried verbatim — a pure cache hit.
        assert_eq!(derived.matches(1).len(), 1);
        assert_eq!(derived.carried(1), 1);
        assert_cache_matches_rebuild(&derived, &child, &index);
    }

    #[test]
    fn overlapping_splice_drops_exactly_the_broken_matches() {
        // Four H's on one wire: structural HH matches at (0,1), (1,2), (2,3).
        // Cancelling (0,1) kills (0,1) and (1,2) — both bind removed nodes —
        // while (2,3) merely touches the rewired boundary node 2: the exact
        // invalidation revalidates its wire order in place and keeps it as
        // a carried match, with no matcher run at all (nothing was inserted
        // and no boundary pair was bridged: node 2's wire now starts at the
        // circuit input).
        let mut c = Circuit::new(1, 0);
        for _ in 0..4 {
            c.push(gate(Gate::H, &[0]));
        }
        let index = hx_index();
        let ctx = MatchContext::new(&c);
        let (cache, _) = MatchCache::build_for(&ctx, &index, &full_candidates(&index, &ctx));
        assert_eq!(cache.matches(0).len(), 3);

        let first = cache
            .matches(0)
            .iter()
            .find(|m| m.instruction_map.iter().all(|n| n.index() < 2))
            .expect("the (0,1) match")
            .clone();
        let delta = ctx.delta_for(&index.transformations()[0], &first).unwrap();
        let (child, footprint) = ctx.derive_with_footprint(&delta);
        let (derived, stats) = cache.derive(&child, &index, &footprint, &mut IndexScratch::new());

        assert_eq!(stats.matches_invalidated, 2);
        assert_eq!(stats.matches_recomputed, 0);
        assert_eq!(stats.full_passes, 0);
        assert_eq!(stats.scoped_runs, 0);
        assert_eq!(derived.matches(0).len(), 1);
        assert_eq!(derived.carried(0), 1, "the surviving match is a cache hit");
        assert_cache_matches_rebuild(&derived, &child, &index);
    }

    #[test]
    fn new_matches_created_by_a_rewrite_are_discovered() {
        // H X X H: no HH match initially; cancelling the X pair brings the
        // two H's together, creating a match that binds only boundary nodes.
        let mut c = Circuit::new(1, 0);
        c.push(gate(Gate::H, &[0]));
        c.push(gate(Gate::X, &[0]));
        c.push(gate(Gate::X, &[0]));
        c.push(gate(Gate::H, &[0]));
        let index = hx_index();
        let ctx = MatchContext::new(&c);
        let (cache, _) = MatchCache::build_for(&ctx, &index, &full_candidates(&index, &ctx));
        assert!(cache.matches(0).is_empty());
        assert_eq!(cache.matches(1).len(), 1);

        let m = cache.matches(1)[0].clone();
        let delta = ctx.delta_for(&index.transformations()[1], &m).unwrap();
        let (child, footprint) = ctx.derive_with_footprint(&delta);
        let (derived, stats) = cache.derive(&child, &index, &footprint, &mut IndexScratch::new());
        assert_eq!(derived.matches(0).len(), 1, "the new HH match must appear");
        assert_eq!(derived.carried(0), 0);
        assert!(derived.matches(1).is_empty());
        assert!(stats.matches_recomputed >= 1);
        assert_cache_matches_rebuild(&derived, &child, &index);
    }

    #[test]
    fn disconnected_patterns_discover_far_matches_through_pins() {
        // Pattern H(0); H(1) (wire-disconnected). A rewrite X X → H inserts
        // an H, so the pattern is dirty-dispatched via the inserted-type
        // lookup — and its new matches pair the inserted H with an H
        // arbitrarily far away (on the other wire). Pinning a pattern
        // position onto the inserted node finds them without re-scanning
        // the circuit, while the pre-existing far pairs are carried.
        let mut target = Circuit::new(2, 0);
        target.push(gate(Gate::H, &[0]));
        target.push(gate(Gate::H, &[1]));
        let split = quartz_gen::Transformation {
            target,
            rewrite: Circuit::new(2, 0),
        };
        let mut xx = Circuit::new(1, 0);
        xx.push(gate(Gate::X, &[0]));
        xx.push(gate(Gate::X, &[0]));
        let mut h = Circuit::new(1, 0);
        h.push(gate(Gate::H, &[0]));
        let xx_to_h = quartz_gen::Transformation {
            target: xx,
            rewrite: h,
        };
        let index = TransformationIndex::new(vec![xx_to_h, split]);
        assert!(!index.pattern_connected(1));

        let mut c = Circuit::new(2, 0);
        c.push(gate(Gate::X, &[0]));
        c.push(gate(Gate::X, &[0]));
        c.push(gate(Gate::H, &[0]));
        c.push(gate(Gate::H, &[1]));
        let ctx = MatchContext::new(&c);
        let (cache, _) = MatchCache::build_for(&ctx, &index, &full_candidates(&index, &ctx));
        // Both pattern-qubit assignments of the H pair match structurally.
        assert_eq!(cache.matches(1).len(), 2);

        let m = cache.matches(0)[0].clone();
        let delta = ctx.delta_for(&index.transformations()[0], &m).unwrap();
        let (child, footprint) = ctx.derive_with_footprint(&delta);
        assert_eq!(footprint.inserted.len(), 1);
        let (derived, stats) = cache.derive(&child, &index, &footprint, &mut IndexScratch::new());
        // Three H's now, but the two on wire 0 cannot pair with each other
        // (qubit injectivity): 2 qubit-distinct pairings × 2 assignments.
        // The old far pair survives boundary revalidation (2 carried); the
        // inserted H's pairings are found by the pinned micro-runs (2 new).
        assert_eq!(derived.matches(1).len(), 4);
        assert_eq!(derived.carried(1), 2);
        assert_eq!(
            stats.full_passes, 0,
            "derivations never re-match the whole circuit"
        );
        assert!(stats.scoped_runs >= 1);
        assert_cache_matches_rebuild(&derived, &child, &index);
    }

    /// Convexity is deliberately *not* part of structural validity: a splice
    /// can sever a dependency path between two cached match nodes that are
    /// nowhere near the footprint, so the check must happen at use time
    /// against the current DAG.
    #[test]
    fn convexity_is_reevaluated_at_use_time_for_carried_matches() {
        // H(q0); CNOT(q0,q1); CNOT(q1,q2); CNOT(q2,q3); H(q3).
        // The disconnected pattern H(a); H(b) matches {H(q0), H(q3)}
        // structurally (two qubit assignments), but a path runs between
        // them through the three CNOTs, so neither match is convex.
        // Rewriting the *middle* CNOT to X(q1) severs the path without
        // touching either H or its wire neighbors: the matches are carried
        // from the cache untouched, and only the use-time convexity check
        // can (and now does) accept them.
        let mut cnot_target = Circuit::new(2, 0);
        cnot_target.push(gate(Gate::Cnot, &[0, 1]));
        let mut cnot_rewrite = Circuit::new(2, 0);
        cnot_rewrite.push(gate(Gate::X, &[0]));
        let cnot_to_x = quartz_gen::Transformation {
            target: cnot_target,
            rewrite: cnot_rewrite,
        };
        let mut split_target = Circuit::new(2, 0);
        split_target.push(gate(Gate::H, &[0]));
        split_target.push(gate(Gate::H, &[1]));
        let split = quartz_gen::Transformation {
            target: split_target,
            rewrite: Circuit::new(2, 0),
        };
        let index = TransformationIndex::new(vec![cnot_to_x, split]);

        let mut c = Circuit::new(4, 0);
        c.push(gate(Gate::H, &[0]));
        c.push(gate(Gate::Cnot, &[0, 1]));
        c.push(gate(Gate::Cnot, &[1, 2]));
        c.push(gate(Gate::Cnot, &[2, 3]));
        c.push(gate(Gate::H, &[3]));
        let ctx = MatchContext::new(&c);
        let (cache, _) = MatchCache::build_for(&ctx, &index, &full_candidates(&index, &ctx));
        assert_eq!(cache.matches(1).len(), 2);
        assert!(cache.matches(1).iter().all(|m| !ctx.is_match_convex(m)));
        assert!(ctx
            .find_matches(&index.transformations()[1].target)
            .is_empty());

        let middle = cache
            .matches(0)
            .iter()
            .find(|m| ctx.dag().instruction(m.instruction_map[0]).qubits == vec![1, 2])
            .expect("the middle CNOT match")
            .clone();
        let delta = ctx.delta_for(&index.transformations()[0], &middle).unwrap();
        let (child, footprint) = ctx.derive_with_footprint(&delta);
        let (derived, stats) = cache.derive(&child, &index, &footprint, &mut IndexScratch::new());

        // The H-pair matches were carried, not recomputed (no H in the
        // footprint's gate types), and both are convex now.
        assert_eq!(derived.matches(1).len(), 2);
        assert_eq!(derived.carried(1), 2);
        assert!(derived.matches(1).iter().all(|m| child.is_match_convex(m)));
        assert_eq!(
            child.find_matches(&index.transformations()[1].target).len(),
            2
        );
        assert!(stats.matches_invalidated > 0); // the spliced CNOT's own match
        assert_cache_matches_rebuild(&derived, &child, &index);
    }

    /// Walking a whole rewrite chain, the cache must agree with a rebuilt
    /// structural match pass after every step.
    #[test]
    fn cache_stays_complete_along_a_rewrite_chain() {
        let index = hx_index();
        let mut c = Circuit::new(2, 0);
        for _ in 0..3 {
            c.push(gate(Gate::H, &[0]));
            c.push(gate(Gate::X, &[1]));
        }
        c.push(gate(Gate::H, &[0]));
        c.push(gate(Gate::X, &[1]));
        let mut ctx = MatchContext::new(&c);
        let (mut cache, _) = MatchCache::build_for(&ctx, &index, &full_candidates(&index, &ctx));
        let mut scratch = IndexScratch::new();
        let mut steps = 0;
        while let Some((xform_id, m)) = (0..index.len()).find_map(|id| {
            cache
                .matches(id)
                .iter()
                .find(|m| ctx.is_match_convex(m))
                .map(|m| (id, m.clone()))
        }) {
            let delta = ctx
                .delta_for(&index.transformations()[xform_id], &m)
                .unwrap();
            let (child, footprint) = ctx.derive_with_footprint(&delta);
            let (derived, _) = cache.derive(&child, &index, &footprint, &mut scratch);
            assert_cache_matches_rebuild(&derived, &child, &index);
            ctx = child;
            cache = derived;
            steps += 1;
        }
        assert_eq!(steps, 4, "two HH and two XX cancellations");
        assert!(ctx.dag().is_empty());
    }
}
