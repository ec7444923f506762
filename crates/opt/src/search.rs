//! The cost-based backtracking search of the optimizer (paper §6,
//! Algorithm 2), restructured as a batched, indexed, parallel frontier
//! expansion with incremental match contexts (DESIGN.md §2.3, §5).
//!
//! Each step pops the best `batch_size` queue entries, expands them on worker
//! threads (matching only the transformations the [`TransformationIndex`]
//! says can possibly apply), and merges the resulting candidates
//! sequentially in (cost, insertion order) priority order. Deduplication is
//! keyed on the exact canonical-form-invariant [`StructuralHash`] (a
//! complete invariant of the circuit DAG, DESIGN.md §13) — computed for a
//! candidate in O(rewrite footprint) by previewing the parent's hash through
//! the splice delta, with no materialization, canonicalization, or
//! whole-circuit clone on the admission path.
//!
//! A first-sight candidate is enqueued as (cost, hash, delta) alone — its
//! circuit is never built unless it is actually dequeued, at which point the
//! context derivation materializes it and an O(num qubits) re-read of the
//! derived DAG's maintained wire hashes confirms the admission-time preview
//! ([`SearchResult::fp_confirm_mismatches`] counts disagreements; the suites
//! assert it 0). Candidate *costs* are exact before materialization too, for
//! every cost model: the additive models by delta bookkeeping and depth by
//! boundary-seeded longest-path propagation ([`quartz_ir::DeltaCoster`]),
//! so the γ filter runs ahead of materialization even for
//! [`CostModel::Depth`].
//!
//! Matching state is *derived*, not rebuilt: a dequeued entry carries the
//! [`SpliceDelta`] that created it plus a handle to its parent's
//! [`MatchContext`], so its own context is produced by
//! [`MatchContext::derive_with_footprint`] in O(rewrite footprint) of
//! recomputation; only frontier roots pay the O(circuit)
//! [`MatchContext::new`] rebuild ([`SearchResult::ctx_rebuilds`] vs
//! [`SearchResult::ctx_derives`]). Match *sites* travel the same derivation
//! chain (DESIGN.md §8): each expansion's [`MatchCache`] of structural
//! matches is derived from its parent's — invalidated only around the
//! splice footprint, topped up by footprint-pinned micro-matches — so a
//! full-circuit pattern-match pass happens only at frontier roots
//! ([`SearchResult::match_attempts`] vs [`SearchResult::scoped_rematches`],
//! with the hit rate in [`SearchResult::cache_hit_rate`]).
//!
//! Candidates are ordered within each expansion by (cost, structural hash),
//! which makes the exploration a function of the candidate *sets* alone —
//! so this engine is bit-identical to the literal Algorithm 2 of
//! [`crate::reference`], which rebuilds, re-matches, materializes, and
//! hashes every circuit from scratch; with `batch_size = 1` both visit
//! exactly the states the sequential algorithm visits. Larger batches trade
//! strict best-first order for parallelism while remaining deterministic:
//! worker results are merged in a fixed order, independent of thread
//! scheduling.
//!
//! # Determinism guarantee
//!
//! The wall-clock budget is checked only *between* dequeued entries, never
//! inside an expansion, so the expansion of a dequeued entry is always
//! scanned to completion and every search step is a pure function of the
//! frontier state. The timeout can therefore change only *how many* steps a
//! run executes — never the outcome of a step — and any two runs that end by
//! iteration budget or queue exhaustion (rather than by the timeout) are
//! bit-identical.
//!
//! The per-frontier state (priority queue, fingerprint seen-set, incumbent
//! best, counters) lives in the [`Frontier`] struct, which is also driven —
//! one instance per circuit, over one shared [`TransformationIndex`] — by the
//! multi-circuit [`crate::service::OptimizationService`].

use crate::cache::LoadedLibrary;
use crate::cost::CostModel;
use crate::match_cache::MatchCache;
use crate::matcher::{Match, MatchContext};
use crate::xform::{canonicalize, Transformation};
use quartz_gen::{IndexScratch, TransformationIndex};
use quartz_ir::{Circuit, CircuitDag, IdentityHashSet, SpliceDelta, StructuralHash};
use rayon::prelude::*;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of the backtracking search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// The hyper-parameter γ: candidates whose cost exceeds γ times the best
    /// cost found so far are not enqueued. γ = 1.0001 (the paper's value)
    /// admits cost-preserving rewrites but not cost-increasing ones.
    pub gamma: f64,
    /// Wall-clock budget for the search.
    pub timeout: Duration,
    /// Upper bound on the number of search iterations (circuit dequeues);
    /// `usize::MAX` means unlimited. The paper bounds the search only by
    /// time; the explicit bound makes scaled-down runs reproducible.
    pub max_iterations: usize,
    /// When the priority queue grows beyond this size it is pruned...
    pub queue_prune_threshold: usize,
    /// ... down to this many best candidates (paper §7.2 uses 2000 → 1000).
    pub queue_keep: usize,
    /// The cost model to minimize.
    pub cost_model: CostModel,
    /// Number of queue entries expanded per search step. `1` (the default)
    /// reproduces the exact sequential semantics of Algorithm 2; larger
    /// values expand the frontier in parallel.
    pub batch_size: usize,
    /// Worker threads for batch expansion; `0` (the default) uses one per
    /// available core. Irrelevant when `batch_size` is 1.
    pub num_threads: usize,
    /// When `true`, per-phase wall-clock timings (matching, delta
    /// construction, γ-precheck, hash previews, canonicalization,
    /// fingerprinting, deduplication) are accumulated into
    /// [`SearchResult::profile`].
    /// Default `false`: the hot path then executes no timing calls at all.
    pub profile: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            gamma: 1.0001,
            timeout: Duration::from_secs(10),
            max_iterations: usize::MAX,
            queue_prune_threshold: 2000,
            queue_keep: 1000,
            cost_model: CostModel::GateCount,
            batch_size: 1,
            num_threads: 0,
            profile: false,
        }
    }
}

impl SearchConfig {
    /// A configuration with the given time budget and the paper's defaults
    /// otherwise.
    pub fn with_timeout(timeout: Duration) -> Self {
        SearchConfig {
            timeout,
            ..SearchConfig::default()
        }
    }

    /// Effective worker-thread count for batch expansion.
    pub(crate) fn effective_threads(&self) -> usize {
        if self.num_threads == 0 {
            rayon::current_num_threads()
        } else {
            self.num_threads
        }
    }
}

/// Per-phase wall-clock breakdown of one search run, accumulated only when
/// [`SearchConfig::profile`] is on (all-zero otherwise). The phases cover
/// the per-candidate pipeline of `expand_entry`: finding matches, building
/// splice deltas, the exact γ-precheck, the O(footprint) structural-hash
/// previews, materializing improved incumbents, the dequeue-time
/// confirmation hashes, and the seen-set probes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchProfile {
    /// Enumerating structural matches: cache consultation, convexity
    /// re-validation, and matcher runs (everything in the dispatch loop
    /// that is not attributed to a finer phase below).
    pub matching: Duration,
    /// Building the instantiated [`SpliceDelta`] of each match.
    pub delta: Duration,
    /// The exact delta-cost γ-precheck that rejects cost-increasing
    /// rewrites before materialization (all cost models, depth included).
    pub gamma_precheck: Duration,
    /// O(footprint) structural-hash previews: computing candidates' exact
    /// seen-set keys from the parent hash and the delta, without
    /// materializing them.
    pub preview: Duration,
    /// Applying the delta and canonicalizing a candidate that improves the
    /// incumbent — the one place a deferred candidate is materialized at
    /// merge time rather than at dequeue.
    pub canonicalize: Duration,
    /// From-scratch structural hashes of dequeued derived DAGs: the
    /// dequeue-time confirmation canary.
    pub fingerprint: Duration,
    /// Seen-set probes.
    pub dedup: Duration,
}

impl SearchProfile {
    /// Adds another profile's phase times into this one.
    pub fn accumulate(&mut self, other: &SearchProfile) {
        self.matching += other.matching;
        self.delta += other.delta;
        self.gamma_precheck += other.gamma_precheck;
        self.preview += other.preview;
        self.canonicalize += other.canonicalize;
        self.fingerprint += other.fingerprint;
        self.dedup += other.dedup;
    }

    /// Sum of all phase times.
    pub fn total(&self) -> Duration {
        self.matching
            + self.delta
            + self.gamma_precheck
            + self.preview
            + self.canonicalize
            + self.fingerprint
            + self.dedup
    }

    /// (name, seconds) pairs for every phase, in pipeline order — the shape
    /// benchmark reports emit.
    pub fn phases(&self) -> [(&'static str, f64); 7] {
        [
            ("matching", self.matching.as_secs_f64()),
            ("delta", self.delta.as_secs_f64()),
            ("gamma_precheck", self.gamma_precheck.as_secs_f64()),
            ("preview", self.preview.as_secs_f64()),
            ("canonicalize", self.canonicalize.as_secs_f64()),
            ("fingerprint", self.fingerprint.as_secs_f64()),
            ("dedup", self.dedup.as_secs_f64()),
        ]
    }
}

/// Outcome of an optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The best circuit found.
    pub best_circuit: Circuit,
    /// Its cost under the configured cost model.
    pub best_cost: usize,
    /// The input circuit's cost.
    pub initial_cost: usize,
    /// Number of circuits dequeued (search iterations).
    pub iterations: usize,
    /// Number of distinct circuits ever enqueued.
    pub circuits_seen: usize,
    /// Wall-clock time spent searching.
    pub elapsed: Duration,
    /// Trace of (elapsed, best cost) pairs recorded whenever the best cost
    /// improved — used to reproduce the time-series plots (paper Figure 8).
    pub improvement_trace: Vec<(Duration, usize)>,
    /// Transformations actually matched against dequeued circuits.
    pub match_attempts: usize,
    /// Transformations skipped by the index's histogram filter — each one a
    /// pattern match the linear scan would have attempted and lost.
    pub match_skips: usize,
    /// γ-admissible candidate circuits discarded because their exact
    /// canonical-invariant structural hash was already in the seen-set.
    /// (Candidates rejected by the γ threshold are dropped before the
    /// seen-probe and not counted.)
    pub dedup_hits: usize,
    /// Match contexts rebuilt from the sequence form (O(circuit) each):
    /// exactly the frontier roots — one per `optimize` call.
    pub ctx_rebuilds: usize,
    /// Match contexts derived from a parent context through a splice delta
    /// (O(rewrite footprint) of recomputation each; DESIGN.md §5).
    pub ctx_derives: usize,
    /// Structural matches served from the carried [`MatchCache`] without
    /// re-running the pattern matcher (DESIGN.md §8).
    pub matches_cached: usize,
    /// Structural matches discovered by actually running the matcher while
    /// maintaining the cache: full passes at frontier roots plus
    /// footprint-restricted re-matches on derived entries. Together with
    /// [`SearchResult::matches_cached`] this yields the cache hit rate.
    pub matches_recomputed: usize,
    /// Total size of the splice footprints (removed + inserted + boundary
    /// nodes) that drove cache invalidation, summed over derived entries.
    pub cache_invalidate_nodes: usize,
    /// Footprint-pinned matcher micro-runs performed to maintain the cache
    /// on derived entries — each bounded by the pattern and its local
    /// bucket sizes, not the circuit, which is why they are accounted
    /// separately from the full-circuit `match_attempts`.
    pub scoped_rematches: usize,
    /// Duplicate candidates rejected on a worker by the O(footprint)
    /// structural-hash preview, *before* materialization (DESIGN.md §9,
    /// §13). The rest of [`SearchResult::dedup_hits`] are merge-time hits:
    /// duplicates enqueued earlier in the same batch.
    pub fp_fast_rejects: usize,
    /// Structural-hash previews contradicted by a from-scratch hash of the
    /// dequeued entry's derived DAG. By the exactness argument of
    /// DESIGN.md §13 (the preview algebra and the maintained caches compute
    /// the same complete invariant) this cannot happen; the counter is a
    /// runtime canary and is asserted 0 by the benchmark suites. On a
    /// mismatch the search proceeds with the materialized (authoritative)
    /// hash.
    pub fp_confirm_mismatches: usize,
    /// Candidates enqueued *without* a circuit, as (cost, hash, delta)
    /// alone — each one an `apply_delta` + `canonicalize` + clone that never
    /// ran.
    pub materializations_deferred: usize,
    /// Deferred entries that were actually dequeued and materialized through
    /// context derivation — the small minority of
    /// [`SearchResult::materializations_deferred`] whose cost was ever paid
    /// (each also runs the dequeue-time hash confirmation). Every non-root
    /// dequeue is one, so this always equals [`SearchResult::ctx_derives`].
    pub dequeue_materializations: usize,
    /// Per-phase timing breakdown; all-zero unless [`SearchConfig::profile`]
    /// was on.
    pub profile: SearchProfile,
}

impl SearchResult {
    /// Relative gate-count (cost) reduction achieved, in [0, 1].
    pub fn reduction(&self) -> f64 {
        if self.initial_cost == 0 {
            0.0
        } else {
            1.0 - self.best_cost as f64 / self.initial_cost as f64
        }
    }

    /// Fraction of pattern-match attempts the index dispatch avoided, in
    /// [0, 1] (0 when nothing was skipped).
    pub fn dispatch_skip_rate(&self) -> f64 {
        let total = self.match_attempts + self.match_skips;
        if total == 0 {
            0.0
        } else {
            self.match_skips as f64 / total as f64
        }
    }

    /// Fraction of dequeued entries whose match context was derived rather
    /// than rebuilt, in [0, 1].
    pub fn ctx_derive_rate(&self) -> f64 {
        let total = self.ctx_rebuilds + self.ctx_derives;
        if total == 0 {
            0.0
        } else {
            self.ctx_derives as f64 / total as f64
        }
    }

    /// Fraction of consulted structural matches that were served from the
    /// carried match cache instead of being recomputed, in [0, 1] (0 when
    /// nothing was consulted, e.g. on an empty run).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.matches_cached + self.matches_recomputed;
        if total == 0 {
            0.0
        } else {
            self.matches_cached as f64 / total as f64
        }
    }

    /// Fraction of duplicate candidates rejected by the O(footprint)
    /// structural-hash preview instead of after materialization, in [0, 1]
    /// (0 when no duplicates were seen at all, e.g. on an empty run).
    pub fn fp_fast_reject_rate(&self) -> f64 {
        if self.dedup_hits == 0 {
            0.0
        } else {
            self.fp_fast_rejects as f64 / self.dedup_hits as f64
        }
    }
}

/// The matching state one expansion materialized and shares with any of its
/// children that make it into the queue: the circuit's [`MatchContext`]
/// plus its [`MatchCache`] of structural match sites (DESIGN.md §8).
pub(crate) struct ExpandedState {
    ctx: MatchContext,
    cache: MatchCache,
}

/// Where a dequeued entry's match context comes from.
enum CtxSource {
    /// The frontier root: rebuild the context from its canonicalized
    /// sequence form.
    Root(Circuit),
    /// Derive from the parent entry's materialized state through the
    /// splice delta that created this entry.
    Derived {
        parent: Arc<ExpandedState>,
        delta: SpliceDelta,
    },
}

/// A queued frontier entry: its cost, FIFO insertion order, the recipe for
/// materializing its match context, and its exact structural hash. Only the
/// root carries a circuit; every other entry is materialized on dequeue by
/// the context derivation every dequeue performs anyway.
pub(crate) struct QueueEntry {
    cost: usize,
    order: usize,
    ctx: CtxSource,
    /// The circuit's exact [`StructuralHash`] — its seen-set identity.
    /// Threaded from the preview that admitted it, so its own expansion
    /// previews *its* successors without an O(circuit) rehash.
    shash: StructuralHash,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost && self.order == other.order
    }
}

impl Eq for QueueEntry {}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the lowest cost pops first,
        // breaking ties by insertion order (FIFO) for determinism.
        Reverse(self.cost)
            .cmp(&Reverse(other.cost))
            .then_with(|| Reverse(self.order).cmp(&Reverse(other.order)))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A first-sight successor produced by one expansion, with its exact cost
/// and structural hash precomputed on the worker, and the splice delta kept
/// so the successor's context and circuit can be derived if it is dequeued.
struct Candidate {
    cost: usize,
    delta: SpliceDelta,
    /// Exact structural hash of the successor: its seen-set identity and
    /// its deterministic tie-break in the candidate order.
    shash: StructuralHash,
}

/// Everything a worker produced for one dequeued circuit.
pub(crate) struct Expansion {
    /// The entry's materialized matching state, shared with any children
    /// that make it into the queue.
    state: Arc<ExpandedState>,
    /// Whether materializing it was a rebuild (true) or a derivation.
    rebuilt: bool,
    candidates: Vec<Candidate>,
    attempts: usize,
    skips: usize,
    dedup_hits: usize,
    matches_cached: usize,
    matches_recomputed: usize,
    cache_invalidate_nodes: usize,
    scoped_rematches: usize,
    fp_fast_rejects: usize,
    fp_confirm_mismatches: usize,
    profile: SearchProfile,
}

/// The per-circuit state of one search: the priority queue, the
/// structural-hash seen-set, the incumbent best circuit, the FIFO insertion
/// counter, and the run statistics.
///
/// Extracted from [`Optimizer::optimize`] so that the single-circuit driver
/// and the multi-circuit [`crate::service::OptimizationService`] (one
/// `Frontier` per request, all sharing one [`TransformationIndex`]) execute
/// exactly the same pop → expand → merge → prune code, which is what keeps
/// per-circuit service results bit-identical to standalone runs.
pub(crate) struct Frontier {
    /// Iteration budget of *this* frontier (dequeues allowed over its whole
    /// lifetime). Standalone runs seed it from
    /// [`SearchConfig::max_iterations`]; service requests carry their own
    /// budget, which is what makes a co-tenant mix deterministic per
    /// request: the budget travels with the frontier, not with the shared
    /// configuration.
    budget: usize,
    queue: BinaryHeap<QueueEntry>,
    /// Structural-hash values of every circuit ever enqueued — the
    /// deduplication identity. The hash is an exact invariant of the
    /// canonical form (DESIGN.md §13), so probing it is equivalent to
    /// probing canonical fingerprints; the keys are already finalized, so
    /// the set uses the no-op [`IdentityHashSet`] hasher. Workers probe a
    /// frozen snapshot to reject duplicates in O(footprint) before
    /// materializing them (DESIGN.md §9).
    seen: IdentityHashSet,
    best_circuit: Circuit,
    best_cost: usize,
    initial_cost: usize,
    order: usize,
    iterations: usize,
    match_attempts: usize,
    match_skips: usize,
    dedup_hits: usize,
    ctx_rebuilds: usize,
    ctx_derives: usize,
    matches_cached: usize,
    matches_recomputed: usize,
    cache_invalidate_nodes: usize,
    scoped_rematches: usize,
    fp_fast_rejects: usize,
    fp_confirm_mismatches: usize,
    materializations_deferred: usize,
    profile: SearchProfile,
    improvement_trace: Vec<(Duration, usize)>,
}

impl Frontier {
    /// Seeds a frontier with the canonicalized input circuit as its root
    /// and its own iteration budget.
    pub(crate) fn new(input: &Circuit, cost_model: CostModel, budget: usize) -> Self {
        let initial_cost = cost_model.cost(input);
        let canonical_input = canonicalize(input);
        // Hash the root from scratch: O(circuit), once per search, like the
        // root's context rebuild.
        let root_shash = StructuralHash::of(&CircuitDag::from_circuit(&canonical_input));
        let mut seen = IdentityHashSet::default();
        seen.insert(root_shash.value());
        let mut queue = BinaryHeap::new();
        queue.push(QueueEntry {
            cost: initial_cost,
            order: 0,
            ctx: CtxSource::Root(canonical_input.clone()),
            shash: root_shash,
        });
        Frontier {
            budget,
            queue,
            seen,
            best_circuit: canonical_input,
            best_cost: initial_cost,
            initial_cost,
            order: 0,
            iterations: 0,
            match_attempts: 0,
            match_skips: 0,
            dedup_hits: 0,
            ctx_rebuilds: 0,
            ctx_derives: 0,
            matches_cached: 0,
            matches_recomputed: 0,
            cache_invalidate_nodes: 0,
            scoped_rematches: 0,
            fp_fast_rejects: 0,
            fp_confirm_mismatches: 0,
            materializations_deferred: 0,
            profile: SearchProfile::default(),
            improvement_trace: vec![(Duration::ZERO, initial_cost)],
        }
    }

    /// The best cost found so far.
    pub(crate) fn best_cost(&self) -> usize {
        self.best_cost
    }

    /// The (canonicalized) input circuit's cost.
    pub(crate) fn initial_cost(&self) -> usize {
        self.initial_cost
    }

    /// Number of entries dequeued so far.
    pub(crate) fn iterations(&self) -> usize {
        self.iterations
    }

    /// This frontier's total iteration budget.
    pub(crate) fn budget(&self) -> usize {
        self.budget
    }

    /// Dequeues still allowed under this frontier's budget.
    pub(crate) fn remaining_budget(&self) -> usize {
        self.budget.saturating_sub(self.iterations)
    }

    /// The structural-hash values of every circuit ever enqueued.
    pub(crate) fn seen(&self) -> &IdentityHashSet {
        &self.seen
    }

    /// Improvement trace recorded so far (grows during [`Frontier::merge`]).
    pub(crate) fn improvement_trace(&self) -> &[(Duration, usize)] {
        &self.improvement_trace
    }

    /// (cost, order) of the best queued entry; `None` when the queue is
    /// exhausted. This is the per-frontier half of the service's global
    /// (cost, circuit id, order) work-stealing key.
    pub(crate) fn peek_key(&self) -> Option<(usize, usize)> {
        self.queue.peek().map(|e| (e.cost, e.order))
    }

    /// Pops up to `take` best entries, counting them as iterations. No
    /// dequeued entry can improve the incumbent: [`Frontier::merge`]
    /// already recorded every improvement when the entry was enqueued.
    pub(crate) fn pop_batch(&mut self, take: usize) -> Vec<QueueEntry> {
        let mut batch = Vec::with_capacity(take);
        while batch.len() < take {
            match self.queue.pop() {
                Some(entry) => batch.push(entry),
                None => break,
            }
        }
        self.iterations += batch.len();
        batch
    }

    /// Merges one expansion into the frontier: accumulates its statistics
    /// and enqueues every candidate that survives deduplication and the γ
    /// threshold against the *live* (merge-time) best cost.
    pub(crate) fn merge(&mut self, expansion: Expansion, config: &SearchConfig, start: Instant) {
        self.match_attempts += expansion.attempts;
        self.match_skips += expansion.skips;
        self.dedup_hits += expansion.dedup_hits;
        self.matches_cached += expansion.matches_cached;
        self.matches_recomputed += expansion.matches_recomputed;
        self.cache_invalidate_nodes += expansion.cache_invalidate_nodes;
        self.scoped_rematches += expansion.scoped_rematches;
        self.fp_fast_rejects += expansion.fp_fast_rejects;
        self.fp_confirm_mismatches += expansion.fp_confirm_mismatches;
        self.profile.accumulate(&expansion.profile);
        if expansion.rebuilt {
            self.ctx_rebuilds += 1;
        } else {
            self.ctx_derives += 1;
        }
        for candidate in expansion.candidates {
            if self.seen.contains(&candidate.shash.value()) {
                // A merge-time duplicate: enqueued by an earlier expansion
                // of this batch.
                self.dedup_hits += 1;
                continue;
            }
            if (candidate.cost as f64) < config.gamma * self.best_cost as f64 {
                if candidate.cost < self.best_cost {
                    self.best_cost = candidate.cost;
                    // A candidate that improves the incumbent is
                    // materialized now — the incumbent is the one place a
                    // concrete circuit is non-negotiable.
                    let t_canon = config.profile.then(Instant::now);
                    self.best_circuit =
                        canonicalize(&expansion.state.ctx.apply_delta(&candidate.delta));
                    if let Some(t) = t_canon {
                        self.profile.canonicalize += t.elapsed();
                    }
                    self.improvement_trace
                        .push((start.elapsed(), self.best_cost));
                }
                self.order += 1;
                self.seen.insert(candidate.shash.value());
                self.materializations_deferred += 1;
                self.queue.push(QueueEntry {
                    cost: candidate.cost,
                    order: self.order,
                    ctx: CtxSource::Derived {
                        parent: Arc::clone(&expansion.state),
                        delta: candidate.delta,
                    },
                    shash: candidate.shash,
                });
            }
        }
    }

    /// Queue capping (paper §7.2): when the queue outgrows the prune
    /// threshold, keep only the best `queue_keep` entries.
    pub(crate) fn prune_queue(&mut self, config: &SearchConfig) {
        if self.queue.len() > config.queue_prune_threshold {
            let mut entries: Vec<QueueEntry> = std::mem::take(&mut self.queue).into_sorted_vec();
            // into_sorted_vec is ascending by Ord, i.e. highest priority
            // (lowest cost) last; keep the best `queue_keep`.
            entries.reverse();
            entries.truncate(config.queue_keep);
            self.queue = entries.into_iter().collect();
        }
    }

    /// Finalizes the frontier into a [`SearchResult`].
    pub(crate) fn into_result(self, elapsed: Duration) -> SearchResult {
        SearchResult {
            best_circuit: self.best_circuit,
            best_cost: self.best_cost,
            initial_cost: self.initial_cost,
            iterations: self.iterations,
            circuits_seen: self.seen.len(),
            elapsed,
            improvement_trace: self.improvement_trace,
            match_attempts: self.match_attempts,
            match_skips: self.match_skips,
            dedup_hits: self.dedup_hits,
            ctx_rebuilds: self.ctx_rebuilds,
            ctx_derives: self.ctx_derives,
            matches_cached: self.matches_cached,
            matches_recomputed: self.matches_recomputed,
            cache_invalidate_nodes: self.cache_invalidate_nodes,
            scoped_rematches: self.scoped_rematches,
            fp_fast_rejects: self.fp_fast_rejects,
            fp_confirm_mismatches: self.fp_confirm_mismatches,
            materializations_deferred: self.materializations_deferred,
            // Every non-root dequeue materializes a deferred entry.
            dequeue_materializations: self.ctx_derives,
            profile: self.profile,
        }
    }
}

/// Runs `expand` over every work item — inline for a single item, on up to
/// `threads` workers otherwise — returning results in input order regardless
/// of thread scheduling. The single determinism-critical expansion dispatch,
/// shared by [`Optimizer::optimize`] and the multi-circuit
/// [`crate::service::OptimizationService`] so the two drivers cannot drift.
pub(crate) fn expand_in_order<T, F>(items: &[T], threads: usize, expand: F) -> Vec<Expansion>
where
    T: Sync,
    F: Fn(&T) -> Expansion + Sync,
{
    if items.len() <= 1 {
        items.iter().map(expand).collect()
    } else {
        items
            .par_iter()
            .with_max_threads(threads)
            .map(expand)
            .collect()
    }
}

/// The cost-based backtracking optimizer.
///
/// # Examples
///
/// ```
/// use quartz_gen::{Generator, GenConfig};
/// use quartz_ir::{Circuit, Gate, GateSet, Instruction};
/// use quartz_opt::{Optimizer, SearchConfig};
/// use std::time::Duration;
///
/// // Learn transformations for a tiny gate set and use them to cancel a
/// // pair of Hadamard gates.
/// let (ecc_set, _) = Generator::new(GateSet::nam(), GenConfig::standard(2, 2, 0)).run();
/// let optimizer = Optimizer::from_ecc_set(&ecc_set, SearchConfig::with_timeout(Duration::from_secs(2)));
///
/// let mut circuit = Circuit::new(2, 0);
/// circuit.push(Instruction::new(Gate::H, vec![0], vec![]));
/// circuit.push(Instruction::new(Gate::H, vec![0], vec![]));
/// circuit.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
/// let result = optimizer.optimize(&circuit);
/// assert_eq!(result.best_cost, 1);
/// // Only the frontier root rebuilt its match context from scratch.
/// assert_eq!(result.ctx_rebuilds, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Optimizer {
    index: Arc<TransformationIndex>,
    config: SearchConfig,
}

impl Optimizer {
    /// Creates an optimizer from an explicit transformation list, building
    /// the dispatch index over it.
    pub fn new(transformations: Vec<Transformation>, config: SearchConfig) -> Self {
        Optimizer::with_index(Arc::new(TransformationIndex::new(transformations)), config)
    }

    /// Creates an optimizer around an existing (possibly shared) dispatch
    /// index — no extraction or construction work happens.
    pub fn with_index(index: Arc<TransformationIndex>, config: SearchConfig) -> Self {
        Optimizer { index, config }
    }

    /// Creates an optimizer from an ECC set, extracting transformations with
    /// common-subcircuit pruning enabled (paper §5.2).
    pub fn from_ecc_set(set: &quartz_gen::EccSet, config: SearchConfig) -> Self {
        let transformations = crate::xform::transformations_from_ecc_set(set, true);
        Optimizer::new(transformations, config)
    }

    /// Creates an optimizer from a loaded library artifact
    /// ([`crate::LibraryCache`]), sharing its in-memory index — zero
    /// generation and zero index construction at startup (DESIGN.md §7).
    pub fn from_library(library: &LoadedLibrary, config: SearchConfig) -> Self {
        Optimizer::with_index(library.shared_index(), config)
    }

    /// The transformations available to the search.
    pub fn transformations(&self) -> &[Transformation] {
        self.index.transformations()
    }

    /// The dispatch index over the transformations.
    pub fn index(&self) -> &TransformationIndex {
        &self.index
    }

    /// The dispatch index as a shareable handle (what
    /// [`crate::OptimizationService`] clones instead of the index itself).
    pub fn shared_index(&self) -> Arc<TransformationIndex> {
        Arc::clone(&self.index)
    }

    /// The search configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Runs Algorithm 2 on the input circuit under the configuration's
    /// iteration budget ([`SearchConfig::max_iterations`]).
    pub fn optimize(&self, input: &Circuit) -> SearchResult {
        self.optimize_with_budget(input, self.config.max_iterations)
    }

    /// Runs Algorithm 2 with an explicit per-run iteration budget, overriding
    /// [`SearchConfig::max_iterations`]. This is the standalone twin of a
    /// service request with the same budget: under an iteration budget the
    /// two produce bit-identical [`SearchResult`]s (wall-clock fields aside)
    /// no matter what else the service is running — the acceptance check of
    /// the `quartz-serve` daemon.
    pub fn optimize_with_budget(&self, input: &Circuit, budget: usize) -> SearchResult {
        let start = Instant::now();
        let mut frontier = Frontier::new(input, self.config.cost_model, budget);
        let batch_size = self.config.batch_size.max(1);
        let num_threads = self.config.effective_threads();

        loop {
            if start.elapsed() > self.config.timeout || frontier.remaining_budget() == 0 {
                break;
            }
            let take = batch_size.min(frontier.remaining_budget());
            let batch = frontier.pop_batch(take);
            if batch.is_empty() {
                break;
            }

            // Expand the batch. Workers only read state frozen before the
            // batch (the seen-set and best cost), so their pre-filters are
            // conservative and the sequential merge below remains exact: a
            // candidate failing γ against the frozen best also fails against
            // any (only ever lower) merge-time best, and a hash in the
            // frozen seen-set is still in it at merge time.
            let frozen_best = frontier.best_cost();
            let expansions = expand_in_order(&batch, num_threads, |entry| {
                self.expand_entry(entry, frozen_best, frontier.seen())
            });

            // Deterministic merge in batch (priority) order; with
            // batch_size = 1 this interleaves with expansion exactly as the
            // sequential algorithm did.
            for expansion in expansions {
                frontier.merge(expansion, &self.config, start);
            }
            frontier.prune_queue(&self.config);
        }

        frontier.into_result(start.elapsed())
    }

    /// Expands one dequeued circuit: materializes its [`MatchContext`] and
    /// [`MatchCache`] (derived from the parent's, rebuilt at the frontier
    /// root), dispatches through the index, takes each surviving
    /// transformation's match set from the cache with a use-time convexity
    /// check, and delta-costs/hashes every successor. Candidates are sorted
    /// by (cost, structural hash) so the expansion's output is a function
    /// of the candidate set alone — independent of the circuit's sequence
    /// representation, of match enumeration order, and of wall-clock time
    /// (the timeout is checked between dequeued entries, never mid-scan).
    /// Pure with respect to the search state — safe to run on worker
    /// threads; the only thread-local state is reusable scratch buffers
    /// that never influence results.
    pub(crate) fn expand_entry(
        &self,
        entry: &QueueEntry,
        frozen_best: usize,
        seen: &IdentityHashSet,
    ) -> Expansion {
        // Per-thread scratch: the index dispatch's visited set and the
        // candidate-id buffer, reused across dequeues so the hot loop
        // allocates nothing in steady state.
        thread_local! {
            static SCRATCH: RefCell<(IndexScratch, Vec<usize>)> =
                RefCell::new((IndexScratch::new(), Vec::new()));
        }
        SCRATCH.with(|scratch| {
            let (index_scratch, ids) = &mut *scratch.borrow_mut();
            self.expand_entry_with_scratch(entry, frozen_best, seen, index_scratch, ids)
        })
    }

    fn expand_entry_with_scratch(
        &self,
        entry: &QueueEntry,
        frozen_best: usize,
        seen: &IdentityHashSet,
        index_scratch: &mut IndexScratch,
        ids: &mut Vec<usize>,
    ) -> Expansion {
        let (state, rebuilt, cache_stats) = match &entry.ctx {
            CtxSource::Root(circuit) => {
                // Frontier root: one full structural match pass seeds the
                // cache the whole derivation chain below this entry reuses.
                let ctx = MatchContext::new(circuit);
                self.index.candidates_into(
                    ctx.dag().gate_histogram(),
                    ctx.dag().num_qubits(),
                    index_scratch,
                    ids,
                );
                let (cache, stats) = MatchCache::build_for(&ctx, &self.index, ids);
                (ExpandedState { ctx, cache }, true, stats)
            }
            CtxSource::Derived { parent, delta } => {
                let (ctx, footprint) = parent.ctx.derive_with_footprint(delta);
                let (cache, stats) =
                    parent
                        .cache
                        .derive(&ctx, &self.index, &footprint, index_scratch);
                self.index.candidates_into(
                    ctx.dag().gate_histogram(),
                    ctx.dag().num_qubits(),
                    index_scratch,
                    ids,
                );
                (ExpandedState { ctx, cache }, false, stats)
            }
        };

        let mut candidates: Vec<Candidate> = Vec::new();
        let skips = self.index.len() - ids.len();
        let mut dedup_hits = 0usize;
        let mut matches_cached = 0usize;
        let mut fp_fast_rejects = 0usize;
        let mut fp_confirm_mismatches = 0usize;
        let profiling = self.config.profile;
        let mut profile = SearchProfile::default();
        let gamma = self.config.gamma;
        // A derived entry arrived as (cost, hash, delta) alone, and the
        // derivation above just made it concrete. Hash the derived DAG from
        // scratch and confirm it against the preview that admitted the
        // entry — two independent computations (splice-maintained caches vs
        // preview algebra) whose agreement is the runtime canary. The
        // materialized hash is authoritative on mismatch.
        let mut confirm_time = Duration::ZERO;
        let confirmed: Option<StructuralHash> = (!rebuilt).then(|| {
            let t_fp = profiling.then(Instant::now);
            let confirmed = StructuralHash::of(state.ctx.dag());
            if let Some(t) = t_fp {
                confirm_time = t.elapsed();
            }
            if confirmed.value() != entry.shash.value() {
                fp_confirm_mismatches += 1;
            }
            confirmed
        });
        let entry_shash: &StructuralHash = confirmed.as_ref().unwrap_or(&entry.shash);
        // Exact O(footprint) successor costing for every model — additive
        // per-gate sums and critical-path depth alike — so the γ filter
        // rejects cost-increasing rewrites without materializing them.
        let coster = self.config.cost_model.delta_coster(state.ctx.dag());
        let ctx = &state.ctx;
        let mut consider = |xform: &Transformation, m: &Match| {
            let t_delta = profiling.then(Instant::now);
            let delta = ctx.delta_for(xform, m);
            if let Some(t) = t_delta {
                profile.delta += t.elapsed();
            }
            let Some(delta) = delta else {
                return;
            };
            let t_gamma = profiling.then(Instant::now);
            let cost = coster.cost_after(&delta);
            let gamma_rejected = (cost as f64) >= gamma * frozen_best as f64;
            if let Some(t) = t_gamma {
                profile.gamma_precheck += t.elapsed();
            }
            if gamma_rejected {
                return;
            }
            // O(footprint) duplicate rejection: preview the successor's
            // exact structural hash straight off the parent DAG and the
            // delta — without applying the rewrite — and probe the frozen
            // seen-set. The hash is a complete invariant of the canonical
            // form (DESIGN.md §13), so a hit *is* a duplicate and the
            // candidate dies without ever being materialized.
            let t_preview = profiling.then(Instant::now);
            let value = entry_shash.preview(ctx.dag(), &delta);
            if let Some(t) = t_preview {
                profile.preview += t.elapsed();
            }
            let t_dedup = profiling.then(Instant::now);
            let seen_hit = seen.contains(&value);
            if let Some(t) = t_dedup {
                profile.dedup += t.elapsed();
            }
            if seen_hit {
                dedup_hits += 1;
                fp_fast_rejects += 1;
                return;
            }
            // First sight: promote the previewed value to a full carryable
            // hash (still O(footprint)) and admit the candidate on
            // (cost, hash, delta) alone — no circuit is built until (and
            // unless) the entry is dequeued.
            let t_preview = profiling.then(Instant::now);
            let full = entry_shash.previewed(ctx.dag(), &delta);
            if let Some(t) = t_preview {
                profile.preview += t.elapsed();
            }
            debug_assert_eq!(full.value(), value);
            // Debug builds re-derive the admission from the materialized
            // successor: same cost, same hash.
            #[cfg(debug_assertions)]
            {
                let canonical = canonicalize(&ctx.apply_delta(&delta));
                debug_assert_eq!(cost, self.config.cost_model.cost(&canonical));
                debug_assert_eq!(
                    full.value(),
                    StructuralHash::of(&CircuitDag::from_circuit(&canonical)).value(),
                    "structural-hash preview diverged from the materialized circuit"
                );
            }
            candidates.push(Candidate {
                cost,
                delta,
                shash: full,
            });
        };
        let t_loop = profiling.then(Instant::now);
        for &id in ids.iter() {
            let xform = &self.index.transformations()[id];
            // Matches come from the cache; convexity — the one non-local
            // match property — is re-validated against the current DAG.
            matches_cached += state.cache.carried(id);
            for m in state.cache.matches(id) {
                if ctx.is_match_convex(m) {
                    consider(xform, m);
                }
            }
        }
        if let Some(t) = t_loop {
            // Everything in the dispatch loop not claimed by a finer phase
            // is match-enumeration work.
            profile.matching += t.elapsed().saturating_sub(profile.total());
        }
        // The dequeue-time confirmation hash ran before the dispatch loop;
        // account for it only now so the matching residual above stays a
        // pure measurement of the loop.
        profile.fingerprint += confirm_time;
        candidates.sort_by_key(|c| (c.cost, c.shash.value()));
        Expansion {
            state: Arc::new(state),
            rebuilt,
            candidates,
            attempts: cache_stats.full_passes,
            skips,
            dedup_hits,
            matches_cached,
            matches_recomputed: cache_stats.matches_recomputed,
            cache_invalidate_nodes: cache_stats.dirty_nodes,
            scoped_rematches: cache_stats.scoped_runs,
            fp_fast_rejects,
            fp_confirm_mismatches,
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xform::instruction;
    use quartz_gen::{GenConfig, Generator};
    use quartz_ir::{equivalent_up_to_phase, Gate, GateSet, Instruction, ParamExpr};

    fn nam_optimizer(n: usize, q: usize, m: usize) -> Optimizer {
        let (set, _) = Generator::new(GateSet::nam(), GenConfig::standard(n, q, m)).run();
        Optimizer::from_ecc_set(&set, SearchConfig::with_timeout(Duration::from_secs(5)))
    }

    #[test]
    fn cancels_adjacent_hadamards_and_cnots() {
        let opt = nam_optimizer(2, 2, 0);
        let mut c = Circuit::new(2, 0);
        c.push(instruction(Gate::H, &[0]));
        c.push(instruction(Gate::H, &[0]));
        c.push(instruction(Gate::Cnot, &[0, 1]));
        c.push(instruction(Gate::Cnot, &[0, 1]));
        c.push(instruction(Gate::X, &[1]));
        let result = opt.optimize(&c);
        assert_eq!(result.best_cost, 1);
        assert!(equivalent_up_to_phase(&result.best_circuit, &c, &[], 1e-10));
        assert!(result.reduction() > 0.7);
    }

    #[test]
    fn merges_rotations_via_learned_transformations() {
        let opt = nam_optimizer(2, 1, 2);
        let mut c = Circuit::new(1, 0);
        c.push(Instruction::new(
            Gate::Rz,
            vec![0],
            vec![ParamExpr::constant_pi4(1)],
        ));
        c.push(Instruction::new(
            Gate::Rz,
            vec![0],
            vec![ParamExpr::constant_pi4(2)],
        ));
        let result = opt.optimize(&c);
        assert_eq!(result.best_cost, 1);
        assert!(equivalent_up_to_phase(&result.best_circuit, &c, &[], 1e-10));
    }

    #[test]
    fn hadamard_cnot_flip_requires_nonlocal_sequence() {
        // Figure 3b: rewriting H H CNOT H H to the flipped CNOT needs three
        // transformation steps through cost-neutral intermediates when only
        // (2,q)-complete transformations are available — exercised here with
        // a (3,2) ECC set and γ slightly above 1.
        let (set, _) = Generator::new(GateSet::nam(), GenConfig::standard(3, 2, 0)).run();
        let opt = Optimizer::from_ecc_set(
            &set,
            SearchConfig {
                timeout: Duration::from_secs(20),
                ..SearchConfig::default()
            },
        );
        let mut c = Circuit::new(2, 0);
        c.push(instruction(Gate::H, &[0]));
        c.push(instruction(Gate::H, &[1]));
        c.push(instruction(Gate::Cnot, &[0, 1]));
        c.push(instruction(Gate::H, &[0]));
        c.push(instruction(Gate::H, &[1]));
        let result = opt.optimize(&c);
        assert!(
            result.best_cost <= 3,
            "expected substantial reduction, got {}",
            result.best_cost
        );
        assert!(equivalent_up_to_phase(&result.best_circuit, &c, &[], 1e-10));
    }

    #[test]
    fn already_optimal_circuit_is_unchanged() {
        let opt = nam_optimizer(2, 2, 0);
        let mut c = Circuit::new(2, 0);
        c.push(instruction(Gate::Cnot, &[0, 1]));
        let result = opt.optimize(&c);
        assert_eq!(result.best_cost, 1);
        assert_eq!(result.initial_cost, 1);
        assert!((result.reduction() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn respects_iteration_budget() {
        let opt = Optimizer::new(
            nam_optimizer(2, 2, 0).transformations().to_vec(),
            SearchConfig {
                max_iterations: 1,
                ..SearchConfig::default()
            },
        );
        let mut c = Circuit::new(2, 0);
        for _ in 0..4 {
            c.push(instruction(Gate::H, &[0]));
        }
        let result = opt.optimize(&c);
        assert!(result.iterations <= 1);
    }

    #[test]
    fn batched_iteration_budget_is_respected_too() {
        let opt = Optimizer::new(
            nam_optimizer(2, 2, 0).transformations().to_vec(),
            SearchConfig {
                max_iterations: 5,
                batch_size: 4,
                ..SearchConfig::default()
            },
        );
        let mut c = Circuit::new(2, 0);
        for _ in 0..6 {
            c.push(instruction(Gate::H, &[0]));
        }
        let result = opt.optimize(&c);
        assert!(
            result.iterations <= 5,
            "batched dequeues exceeded the budget: {}",
            result.iterations
        );
    }

    #[test]
    fn improvement_trace_is_monotone() {
        let opt = nam_optimizer(2, 2, 0);
        let mut c = Circuit::new(2, 0);
        for _ in 0..3 {
            c.push(instruction(Gate::H, &[1]));
            c.push(instruction(Gate::H, &[1]));
        }
        let result = opt.optimize(&c);
        let costs: Vec<usize> = result.improvement_trace.iter().map(|(_, c)| *c).collect();
        assert!(costs.windows(2).all(|w| w[1] <= w[0]));
        assert_eq!(*costs.last().unwrap(), result.best_cost);
        assert_eq!(result.best_cost, 0);
    }

    #[test]
    fn dedup_hits_are_counted() {
        // Four H's on one qubit: many transformation paths reach the same
        // two-gate and zero-gate circuits, so the fingerprint seen-set must
        // report hits.
        let opt = nam_optimizer(2, 2, 0);
        let mut c = Circuit::new(2, 0);
        for _ in 0..4 {
            c.push(instruction(Gate::H, &[0]));
        }
        let result = opt.optimize(&c);
        assert_eq!(result.best_cost, 0);
        assert!(
            result.dedup_hits > 0,
            "expected duplicate candidates to be dropped"
        );
    }

    /// Asserts the *search-outcome* fields of two results coincide — every
    /// field except the effort counters, which legitimately differ between
    /// the production engine and the reference oracle.
    fn assert_same_outcome(a: &SearchResult, b: &SearchResult) {
        assert_eq!(a.best_circuit, b.best_circuit);
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.initial_cost, b.initial_cost);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.circuits_seen, b.circuits_seen);
        assert_eq!(a.dedup_hits, b.dedup_hits);
        let trace_a: Vec<usize> = a.improvement_trace.iter().map(|(_, c)| *c).collect();
        let trace_b: Vec<usize> = b.improvement_trace.iter().map(|(_, c)| *c).collect();
        assert_eq!(trace_a, trace_b);
    }

    fn redundant_three_qubit_circuit() -> Circuit {
        let mut c = Circuit::new(3, 0);
        c.push(instruction(Gate::H, &[0]));
        c.push(instruction(Gate::H, &[0]));
        c.push(instruction(Gate::Cnot, &[0, 1]));
        c.push(instruction(Gate::Cnot, &[1, 2]));
        c.push(instruction(Gate::Cnot, &[1, 2]));
        c.push(instruction(Gate::X, &[2]));
        c.push(instruction(Gate::X, &[2]));
        c
    }

    /// Runs the production engine and the reference oracle on the redundant
    /// three-qubit circuit under the NAM (2, 2, 2) library with `config`,
    /// asserts their outcomes coincide, and returns both results.
    fn versus_oracle(config: SearchConfig) -> (SearchResult, SearchResult) {
        let opt = Optimizer::new(nam_optimizer(2, 2, 2).transformations().to_vec(), config);
        // A rotation pair that merges (-1 gate) next to the pairs that
        // cancel (-2), so one expansion yields candidates of two costs and
        // the merge-time γ rule decides between them.
        let mut c = redundant_three_qubit_circuit();
        for _ in 0..2 {
            c.push(Instruction::new(
                Gate::Rz,
                vec![1],
                vec![ParamExpr::constant_pi4(1)],
            ));
        }
        let production = opt.optimize(&c);
        let oracle = crate::reference::optimize(opt.transformations(), opt.config(), &c);
        assert_same_outcome(&production, &oracle);
        assert_eq!(
            production.fp_confirm_mismatches, 0,
            "invariance canary fired"
        );
        (production, oracle)
    }

    fn default_config() -> SearchConfig {
        SearchConfig::with_timeout(Duration::from_secs(5))
    }

    /// Indexed dispatch agrees with the oracle's linear scan while skipping
    /// every pattern whose gate multiset the circuit cannot cover.
    #[test]
    fn indexed_and_linear_dispatch_agree_and_index_skips_work() {
        let (indexed, linear) = versus_oracle(default_config());
        assert_eq!(linear.match_skips, 0);
        assert!(
            indexed.match_skips > 0,
            "index should skip uncoverable patterns"
        );
        assert!(indexed.match_attempts < linear.match_attempts);
        assert!(indexed.dispatch_skip_rate() > 0.0);
        assert_eq!(linear.dispatch_skip_rate(), 0.0);
    }

    /// Derived contexts agree with the oracle's per-dequeue rebuilds, and
    /// only the frontier root is rebuilt.
    #[test]
    fn incremental_contexts_are_bit_identical_to_rebuilds() {
        let (incremental, rebuilt) = versus_oracle(default_config());
        assert_eq!(incremental.ctx_rebuilds, 1);
        assert!(incremental.ctx_derives > 0);
        assert_eq!(
            incremental.ctx_derives,
            incremental.iterations - 1,
            "every non-root dequeue must derive its context"
        );
        assert!(incremental.ctx_derive_rate() > 0.0);
        assert_eq!(rebuilt.ctx_rebuilds, rebuilt.iterations);
        assert_eq!(rebuilt.ctx_derive_rate(), 0.0);
    }

    /// The match cache agrees with the oracle's full re-matching of every
    /// dequeued circuit while running far fewer full match passes.
    #[test]
    fn cached_matches_are_bit_identical_to_full_rematching() {
        let (cached, rematched) = versus_oracle(default_config());
        assert!(
            cached.match_attempts < rematched.match_attempts,
            "cache did not reduce matcher runs: {} vs {}",
            cached.match_attempts,
            rematched.match_attempts
        );
        assert!(cached.matches_cached > 0);
        assert!(cached.matches_recomputed > 0); // at least the root pass
        assert!(cached.cache_invalidate_nodes > 0);
        assert!(cached.cache_hit_rate() > 0.0);
        assert_eq!(rematched.cache_hit_rate(), 0.0);
    }

    /// The O(footprint) hash preview agrees with the oracle's from-scratch
    /// hashes of materialized candidates, and rejects duplicates before
    /// materializing them.
    #[test]
    fn incremental_fingerprints_are_bit_identical_to_materializing_engine() {
        let (fp, materializing) = versus_oracle(default_config());
        assert!(
            fp.fp_fast_rejects > 0,
            "expected duplicate candidates to be rejected before materialization"
        );
        assert!(fp.fp_fast_rejects <= fp.dedup_hits);
        assert!(fp.fp_fast_reject_rate() > 0.0);
        assert_eq!(materializing.fp_fast_reject_rate(), 0.0);
    }

    /// Delta-costing makes the γ precheck exact for the non-additive Depth
    /// model, so the fast path stays *active* there: duplicates are
    /// fast-rejected before materialization and the outcomes match the
    /// oracle's.
    #[test]
    fn depth_cost_keeps_the_prefilter_active() {
        let (on, _) = versus_oracle(SearchConfig {
            cost_model: CostModel::Depth,
            ..default_config()
        });
        assert!(
            on.fp_fast_rejects > 0,
            "depth-shaped search must fast-reject duplicates before materialization"
        );
    }

    /// Deferred materialization agrees with the oracle's eager enqueueing
    /// for every cost model, and only dequeued entries materialize.
    #[test]
    fn deferred_materialization_is_bit_identical_to_eager() {
        for cost_model in [
            CostModel::GateCount,
            CostModel::MultiQubitGateCount,
            CostModel::Depth,
        ] {
            let (deferred, _) = versus_oracle(SearchConfig {
                cost_model,
                ..default_config()
            });
            assert!(
                deferred.materializations_deferred > 0,
                "candidates must be enqueued circuit-less ({cost_model:?})"
            );
            assert!(
                deferred.dequeue_materializations > 0,
                "some deferred entries must materialize at dequeue ({cost_model:?})"
            );
            assert!(deferred.dequeue_materializations <= deferred.materializations_deferred);
        }
    }

    /// The rate accessors must return 0 (not NaN) when their denominators
    /// are zero: `reduction` on a zero-cost input, `dispatch_skip_rate` /
    /// `cache_hit_rate` / `ctx_derive_rate` / `fp_fast_reject_rate` on a run
    /// that did no matching work at all (an empty transformation library on
    /// an empty circuit).
    #[test]
    fn rates_are_zero_not_nan_on_empty_runs() {
        let opt = Optimizer::new(Vec::new(), SearchConfig::default());
        let result = opt.optimize(&Circuit::new(2, 0));
        assert_eq!(result.initial_cost, 0);
        assert_eq!(result.best_cost, 0);
        assert_eq!(result.match_attempts + result.match_skips, 0);
        assert_eq!(result.dedup_hits, 0);
        assert_eq!(result.reduction(), 0.0);
        assert_eq!(result.dispatch_skip_rate(), 0.0);
        assert_eq!(result.cache_hit_rate(), 0.0);
        assert_eq!(result.fp_fast_reject_rate(), 0.0);

        // A populated optimizer on the empty circuit exercises the
        // zero-initial-cost path of `reduction` too; every rate stays
        // finite and in [0, 1].
        let populated = nam_optimizer(2, 2, 0);
        let empty = populated.optimize(&Circuit::new(2, 0));
        assert_eq!(empty.initial_cost, 0);
        assert_eq!(empty.reduction(), 0.0);
        for rate in [
            empty.reduction(),
            empty.dispatch_skip_rate(),
            empty.ctx_derive_rate(),
            empty.cache_hit_rate(),
            empty.fp_fast_reject_rate(),
        ] {
            assert!(rate.is_finite());
            assert!((0.0..=1.0).contains(&rate));
        }
    }

    /// Profiling off (the default) leaves the breakdown all-zero; profiling
    /// on fills it without changing any outcome or counter field.
    #[test]
    fn profiling_fills_the_breakdown_without_changing_outcomes() {
        let base = nam_optimizer(2, 2, 0);
        let c = redundant_three_qubit_circuit();
        let unprofiled = base.optimize(&c);
        assert_eq!(unprofiled.profile, SearchProfile::default());
        assert_eq!(unprofiled.profile.total(), Duration::ZERO);

        let profiled = Optimizer::new(
            base.transformations().to_vec(),
            SearchConfig {
                profile: true,
                ..base.config().clone()
            },
        )
        .optimize(&c);
        assert_same_outcome(&profiled, &unprofiled);
        assert_eq!(profiled.fp_fast_rejects, unprofiled.fp_fast_rejects);
        assert!(
            profiled.profile.total() > Duration::ZERO,
            "profiling must record phase time"
        );
        let phases = profiled.profile.phases();
        assert_eq!(phases.len(), 7);
        assert!(phases.iter().all(|(_, secs)| *secs >= 0.0));
        // Every candidate is previewed; the incumbent improvements are
        // materialized under `canonicalize`; every derived dequeue is
        // confirmed under `fingerprint`.
        assert!(profiled.profile.preview > Duration::ZERO);
        assert!(profiled.profile.canonicalize > Duration::ZERO);
        assert!(profiled.profile.fingerprint > Duration::ZERO);
    }
}
