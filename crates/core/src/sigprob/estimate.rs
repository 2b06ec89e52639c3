//! The PROTEST signal-probability estimator (paper Sec. 2).
//!
//! Over the AIG view, the paper's four cases are:
//!
//! 1. primary input — probability given;
//! 2. inverter — complement edges make this `1 − p` for free;
//! 3. AND without reconvergent fanout at its inputs (`V(a,b) = ∅`) —
//!    `p = p_a · p_b`;
//! 4. AND with joining points — condition on the logic values of a bounded
//!    subset `W ⊆ V(a,b)`, `|W| ≤ MAXVERS` (formula (2)):
//!
//!    ```text
//!    p_k = Σ_{v ⊆ W} P(A_v) · P(R_a = 1 | A_v) · P(R_b = 1 | A_v)
//!    ```
//!
//!    where `A_v` assigns 1 to the joining points in `v` and 0 to the rest.
//!    `W` is chosen to maximize `|Cov(R_a, R_x) · Cov(R_b, R_x)| / S(R_x)²`
//!    (the error term the paper derives via Bayes' formula), and the
//!    conditional probabilities are obtained by re-propagating the bounded
//!    fanin cone with the joining points pinned.
//!
//! # Construction
//!
//! [`SignalProbEstimator::new`] computes every graph search once, into one
//! `AndCache` per AND node: the joining points, the kept cone `inner` (the
//! joining points plus their descendants inside the union of the two
//! bounded fanin cones, in topological order), each kept node's fanin
//! positions within `inner`, and one descendant bitset over `inner` per
//! joining point. A per-thread `ConeBuilder` answers every cone-membership
//! and position query from epoch-stamped per-node arrays.
//!
//! The descendant bitsets come from one *transposed* pass instead of a walk
//! over `inner` per joining point: in topological order, each position gets
//! a `|joining|`-bit row, the OR of its kept fanins' rows plus its own bit
//! if it is a joining point. Row `i` then lists the joining points whose
//! descendant closure contains `inner[i]`, so the per-joining-point
//! bitsets are that bit matrix transposed (64 × 64 bits at a time).
//!
//! A node's cache depends only on the AIG — its two bounded fanin cones and
//! the fanouts inside them — and never on another node's cache: whether a
//! cone node runs nested conditioning is read from that node's own cache
//! where it is used, not copied at build time. So contiguous node chunks
//! can be built on the executor's threads in any order, each into its own
//! slice of the cache array, and the structures equal the serial build's
//! field for field. Every pass over them is therefore bit-identical at
//! any thread count.
//!
//! # Sweep
//!
//! A conditioned AND first *scores* each joining point with one walk over
//! that point's descendant set, the point pinned to 1. The walk works on
//! cone positions: every position holds its base estimate, a walk
//! overwrites only the set (each non-root member has a fanin in it) and
//! restores it afterwards, so no fanin read tests membership. Only
//! candidate sets of at most [`MAX_NESTED_SCORING`] run nested
//! conditioning while scoring; they keep their values in an AIG-indexed
//! scratch, where the nested kernel reads them.
//!
//! The selected `W` then gets a *plan*, rebuilt for every evaluation into
//! buffers the scratch reuses. (Keeping one plan per node in a session's
//! scratch would save only the rebuild, about a tenth of the kernel's
//! time, but costs megabytes per scratch: 5.4 MB on `div8x8`.) The plan
//! has one row per position of the pins' descendant union, in topological
//! order. Each row records its pin bit, where each operand comes from (an
//! earlier row or a base literal), and how its pre-pin value is computed:
//! the base estimate, the product rule, or nested conditioning. For a
//! nested row it also holds the nested kernel's outer reads, each mapped
//! to a row or a base node, and the mask of the pins those rows depend on.
//!
//! The sweep fills the rows assignment-major: row `r` holds the node's
//! value under each of the `2^|W|` assignments `v`, so the cone is visited
//! once for all of them. A product row is a branch-free loop
//! `row[v] = A[v] · B[v]`. A pinned row multiplies `weight[v]` by `p̂` or
//! `1 − p̂` in pin order and then holds the pin's bit. An assignment whose
//! weight drops to `≤ 0` is dead from that row on. A nested row is
//! evaluated only for live assignments, and only once per projection
//! `v & mask`, its value copied to the other assignments with that
//! projection. The mask holds only pins that the mapped reads depend on,
//! so the sweep never runs more nested evaluations than a walk per
//! assignment with a memo keyed by the same projection.
//!
//! The result is `to_bits`-identical to a walk per assignment. Every value
//! is computed by the same floating-point operations on the same
//! operands. Weights multiply in the same pin order. A projection's value
//! depends only on the pins in its mask, so any representative yields the
//! same bits. The final sum runs over ascending `v`, skipping dead
//! assignments, as the walks did.

use std::cell::Cell;
use std::sync::{Mutex, OnceLock};

use crate::aig::{Aig, AigFanouts, AigLit, AigNodeId};
use crate::cancel::CancelToken;
use crate::error::CoreError;
use crate::exec::Exec;
use crate::params::{AnalyzerParams, MAXVERS_LIMIT};

/// How often the serial full pass polls its cancellation token: one poll
/// per this many AIG nodes keeps the overhead unmeasurable while still
/// bounding the response latency to a fraction of a pass.
pub(crate) const CANCEL_CHECK_NODES: usize = 4096;

/// Per-AND structural cache: joining points and the bounded cone used for
/// conditional re-propagation. Probability-independent, so the optimizer can
/// re-estimate thousands of times without re-running graph searches.
#[derive(Debug, Clone, Default)]
struct AndCache {
    /// Bounded `V(a, b)`, empty for case-3 ANDs.
    joining: Vec<AigNodeId>,
    /// The joining points plus their descendants within the bounded union
    /// cone of `a` and `b`, ascending (= topo) order. Re-propagation only
    /// walks this set: pinning joining points cannot change any other cone
    /// node, so the rest of the cone keeps its base estimate untouched.
    inner: Vec<AigNodeId>,
    /// For each cone node, the positions of its two fanins within `inner`
    /// (`-1` when a fanin is outside the cone or the node is not an AND).
    fanin_ci: Vec<[i32; 2]>,
    /// Per joining candidate: bitset over `inner` positions of the
    /// candidate's descendant closure (via direct fanin edges, self
    /// included) — exactly the nodes a walk pinning that candidate can
    /// touch, so re-propagation skips the rest of the cone outright.
    /// Flat, one row of `inner.len().div_ceil(64)` words per candidate;
    /// read through [`AndCache::desc`].
    desc: Vec<u64>,
}

impl AndCache {
    /// Descendant bitset of joining candidate `j` (see the `desc` field).
    fn desc(&self, j: usize) -> &[u64] {
        let stride = self.inner.len().div_ceil(64);
        &self.desc[j * stride..(j + 1) * stride]
    }

    /// Whether this node, inside another node's conditioning cone, runs
    /// nested conditioning ([`Nested`]): its own joining set is non-empty
    /// and its own cone is small enough.
    fn nests(&self) -> bool {
        !self.joining.is_empty() && self.inner.len() <= MAX_NESTED_CONE
    }
}

/// The PROTEST estimator. Construction performs all graph searches; each
/// [`full_estimate`](SignalProbEstimator::full_estimate) call is then a
/// pure numeric pass, and [`crate::AnalysisSession`] re-evaluates single
/// nodes incrementally via the same per-node kernel.
#[derive(Debug)]
pub struct SignalProbEstimator {
    aig: Aig,
    maxvers: usize,
    cache: Vec<AndCache>,
    /// Fanin-depth ranks of the AIG, built on first use (only the parallel
    /// passes and the incremental session need them).
    ranks: OnceLock<Ranks>,
    /// Read-dependency fanout map, built on first use (only incremental
    /// sessions need it; one-shot passes never pay).
    readers: OnceLock<ReaderMap>,
}

/// CSR form of the read-dependency fan-out map (see
/// [`SignalProbEstimator::readers`]): one contiguous edge array instead of
/// a `Vec` per node.
#[derive(Debug)]
pub(crate) struct ReaderMap {
    /// `n + 1` offsets into `dat`.
    off: Vec<u32>,
    /// Concatenated reader lists, ascending within each node.
    dat: Vec<u32>,
}

impl ReaderMap {
    /// The AND nodes whose evaluation reads node `i`.
    pub(crate) fn of(&self, i: usize) -> &[u32] {
        &self.dat[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// Fanin-depth ranks over the AIG. Every value an AND node *reads* (its
/// fanins, its conditioning cone, the nested cones) lies in its transitive
/// fanin and therefore on a strictly smaller rank, so nodes sharing a rank
/// are mutually independent: a parallel pass may evaluate a whole rank
/// concurrently against the settled lower ranks and stay bit-identical to
/// the serial schedule.
#[derive(Debug)]
pub(crate) struct Ranks {
    /// Rank per AIG node (0 for the constant and the primary inputs).
    pub(crate) of: Vec<u32>,
    /// AND node indices grouped by rank, ascending within each rank.
    pub(crate) by_rank: Vec<Vec<u32>>,
    /// Conditioned (joining-point) nodes per rank: the µs-scale kernel
    /// invocations that make a rank worth fanning out. Product-rule nodes
    /// are two multiplications — queueing them costs more than they do.
    pub(crate) cond_per_rank: Vec<u32>,
}

impl SignalProbEstimator {
    /// Builds the estimator, computing joining points (`MAXLIST`-bounded)
    /// for every AND node, spread over `params.num_threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `params.maxvers` exceeds [`MAXVERS_LIMIT`];
    /// [`try_new`](Self::try_new) returns that as an error instead.
    pub fn new(aig: Aig, params: &AnalyzerParams) -> Self {
        Self::try_new(aig, params, &CancelToken::never()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`new`](Self::new), but polls `cancel` once per chunk of a few
    /// thousand nodes; a fired token abandons the build with
    /// [`CoreError::Cancelled`]. Polls never change the built structures.
    ///
    /// # Errors
    ///
    /// [`CoreError::MaxversTooLarge`] if `params.maxvers` exceeds
    /// [`MAXVERS_LIMIT`], [`CoreError::Cancelled`] if `cancel` fires.
    pub fn try_new(
        aig: Aig,
        params: &AnalyzerParams,
        cancel: &CancelToken,
    ) -> Result<Self, CoreError> {
        if params.maxvers > MAXVERS_LIMIT {
            return Err(CoreError::MaxversTooLarge {
                maxvers: params.maxvers,
                limit: MAXVERS_LIMIT,
            });
        }
        let _t = protest_telemetry::span(protest_telemetry::Site::EstimatorBuild);
        let exec = Exec::new(params.num_threads);
        let cache = build_caches(&aig, params.maxlist, &exec, cancel)?;
        Ok(SignalProbEstimator {
            aig,
            maxvers: params.maxvers,
            cache,
            ranks: OnceLock::new(),
            readers: OnceLock::new(),
        })
    }

    /// The AIG this estimator analyzes.
    pub fn aig(&self) -> &Aig {
        &self.aig
    }

    /// Estimates `P(node = 1)` for every AIG node in one full pass.
    ///
    /// For repeated evaluations that change few inputs between calls, build
    /// an [`crate::AnalysisSession`] instead: it re-propagates only the
    /// dirty fan-out cone of the changed inputs and produces bit-identical
    /// results.
    ///
    /// # Panics
    ///
    /// Panics if `input_probs.len() != aig.num_inputs()`.
    pub fn full_estimate(&self, input_probs: &[f64]) -> Vec<f64> {
        self.full_estimate_exec_cancellable(input_probs, &Exec::new(1), &CancelToken::never())
            .expect("a disarmed token never cancels the pass")
    }

    /// Like [`full_estimate`](Self::full_estimate) but spread over the
    /// executor's threads, one fanin-depth rank at a time: within a rank
    /// every node's read set (fanins + conditioning cones) lies on lower
    /// ranks, so workers evaluate disjoint chunks against the settled
    /// prefix and the results are written back in node-index order. Each
    /// per-node value is produced by the same kernel reading the same
    /// settled values as the serial pass, so the output is bit-identical.
    ///
    /// `cancel` is polled once per rank (serial executors: every
    /// [`CANCEL_CHECK_NODES`] nodes); a fired token abandons the pass with
    /// [`CoreError::Cancelled`]. Polls never change the computed values.
    pub(crate) fn full_estimate_exec_cancellable(
        &self,
        input_probs: &[f64],
        exec: &Exec,
        cancel: &CancelToken,
    ) -> Result<Vec<f64>, CoreError> {
        let _t = protest_telemetry::span(protest_telemetry::Site::EstimatorSweep);
        assert_eq!(
            input_probs.len(),
            self.aig.num_inputs(),
            "one probability per primary input"
        );
        cancel.check()?;
        let n = self.aig.len();
        let mut probs = vec![0.0f64; n];
        // Node 0 is constant TRUE.
        probs[0] = 1.0;
        if !exec.parallel() {
            let mut scratch = self.new_scratch();
            for k in 1..n {
                if k % CANCEL_CHECK_NODES == 0 {
                    cancel.check()?;
                }
                let id = AigNodeId::from_index(k);
                probs[k] = match self.aig.input_position(id) {
                    Some(pos) => input_probs[pos],
                    None => self.and_node_value(&probs, id, &mut scratch),
                };
            }
            return Ok(probs);
        }
        for (pos, &p) in input_probs.iter().enumerate() {
            probs[self.aig.input_node(pos).index()] = p;
        }
        let ranks = self.ranks();
        let threads = exec.threads();
        let mut scratches: Vec<Scratch2> = (0..threads).map(|_| self.new_scratch()).collect();
        let mut vals: Vec<f64> = Vec::new();
        exec.run(|| -> Result<(), CoreError> {
            for (ri, rank) in ranks.by_rank.iter().enumerate() {
                if rank.is_empty() {
                    continue;
                }
                cancel.check()?;
                if ranks.cond_per_rank[ri] < MIN_PAR_COND && rank.len() < MIN_PAR_WIDE {
                    for &k in rank {
                        let id = AigNodeId::from_index(k as usize);
                        probs[k as usize] = self.and_node_value(&probs, id, &mut scratches[0]);
                    }
                    continue;
                }
                vals.clear();
                vals.resize(rank.len(), 0.0);
                let chunk = rank.len().div_ceil(threads);
                let probs_ref = &probs;
                rayon::scope(|s| {
                    for ((ids, out), scratch) in rank
                        .chunks(chunk)
                        .zip(vals.chunks_mut(chunk))
                        .zip(scratches.iter_mut())
                    {
                        s.spawn(move |_| {
                            for (slot, &k) in out.iter_mut().zip(ids) {
                                let id = AigNodeId::from_index(k as usize);
                                *slot = self.and_node_value(probs_ref, id, scratch);
                            }
                        });
                    }
                });
                for (&k, &v) in rank.iter().zip(vals.iter()) {
                    probs[k as usize] = v;
                }
            }
            Ok(())
        })?;
        Ok(probs)
    }

    /// The fanin-depth [`Ranks`] of the AIG, built on first use.
    pub(crate) fn ranks(&self) -> &Ranks {
        self.ranks.get_or_init(|| {
            let n = self.aig.len();
            let mut of = vec![0u32; n];
            let mut by_rank: Vec<Vec<u32>> = Vec::new();
            let mut cond_per_rank: Vec<u32> = Vec::new();
            for k in 1..n {
                let id = AigNodeId::from_index(k);
                let Some((la, lb)) = self.aig.and_fanins(id) else {
                    continue;
                };
                let rank = 1 + of[la.node().index()].max(of[lb.node().index()]);
                of[k] = rank;
                if by_rank.len() <= rank as usize {
                    by_rank.resize(rank as usize + 1, Vec::new());
                    cond_per_rank.resize(rank as usize + 1, 0);
                }
                by_rank[rank as usize].push(k as u32);
                cond_per_rank[rank as usize] += u32::from(!self.cache[k].joining.is_empty());
            }
            Ranks {
                of,
                by_rank,
                cond_per_rank,
            }
        })
    }

    /// Whether a node runs the conditioned (joining-point) kernel — the
    /// expensive case the parallel batching thresholds count.
    pub(crate) fn is_conditioned(&self, k: u32) -> bool {
        !self.cache[k as usize].joining.is_empty()
    }

    /// Fresh scratch space sized for this estimator's AIG.
    pub(crate) fn new_scratch(&self) -> Scratch2 {
        Scratch2::new(self.aig.len())
    }

    /// Evaluates one AND node given the current per-node probabilities of
    /// everything the node *reads* (its fanins plus its conditioning cone;
    /// see [`reader_map`](Self::reader_map)). This is the per-node kernel
    /// shared by [`full_estimate`](Self::full_estimate) and the incremental
    /// session.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an AND node.
    pub(crate) fn and_node_value(
        &self,
        probs: &[f64],
        id: AigNodeId,
        scratch: &mut Scratch2,
    ) -> f64 {
        let (la, lb) = self
            .aig
            .and_fanins(id)
            .expect("non-input, non-constant AIG node is an AND");
        let cache = &self.cache[id.index()];
        if cache.joining.is_empty() {
            return lit_prob(probs, la) * lit_prob(probs, lb);
        }
        self.conditioned(probs, la, lb, cache, scratch)
    }

    /// The read-dependency fan-out map: `readers[x]` lists every AND node
    /// whose [`and_node_value`](Self::and_node_value) *reads* the base
    /// probability of `x` — its direct fanins, its conditioning cone
    /// (`inner`), the fanins of the cone nodes, and the nested cones that
    /// [`Nested::eval`] may consult. Incremental
    /// re-propagation is sound exactly when a node is re-evaluated whenever
    /// any member of its read set changes value, so this map (not the plain
    /// structural fanout map) drives the session's dirty propagation.
    ///
    /// Every read of an AND node lies in its transitive fanin, so
    /// `readers[x]` only contains indices greater than `x` — a worklist
    /// popped in ascending order visits nodes in dependency order. Built
    /// on first use and cached: every session over this estimator shares
    /// one map.
    pub(crate) fn readers(&self) -> &ReaderMap {
        self.readers.get_or_init(|| self.build_reader_map())
    }

    fn build_reader_map(&self) -> ReaderMap {
        let n = self.aig.len();
        // Collect (read node, reader) edges once, then counting-sort them
        // into a CSR array — the read-set computation (nested cones) is too
        // expensive to run twice, and per-node vectors cost n allocations.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut readset: Vec<u32> = Vec::new();
        for k in 0..n {
            let id = AigNodeId::from_index(k);
            let Some((la, lb)) = self.aig.and_fanins(id) else {
                continue;
            };
            readset.clear();
            readset.push(la.node().index() as u32);
            readset.push(lb.node().index() as u32);
            for &x in &self.cache[k].inner {
                readset.push(x.index() as u32);
                if let Some((fa, fb)) = self.aig.and_fanins(x) {
                    readset.push(fa.node().index() as u32);
                    readset.push(fb.node().index() as u32);
                }
                // Nested conditioning reads x's own cone (and its fanins)
                // whenever it nests.
                let xcache = &self.cache[x.index()];
                if xcache.nests() {
                    for &y in &xcache.inner {
                        readset.push(y.index() as u32);
                        if let Some((ga, gb)) = self.aig.and_fanins(y) {
                            readset.push(ga.node().index() as u32);
                            readset.push(gb.node().index() as u32);
                        }
                    }
                }
            }
            readset.sort_unstable();
            readset.dedup();
            for &r in &readset {
                // Node 0 is the constant; its value never changes.
                if r != 0 {
                    edges.push((r, k as u32));
                }
            }
        }
        let mut off = vec![0u32; n + 1];
        for &(r, _) in &edges {
            off[r as usize + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        let mut dat = vec![0u32; edges.len()];
        let mut cursor = off.clone();
        // Edges were pushed in ascending reader order, so each node's list
        // stays ascending — the worklist invariant the session relies on.
        for &(r, k) in &edges {
            dat[cursor[r as usize] as usize] = k;
            cursor[r as usize] += 1;
        }
        ReaderMap { off, dat }
    }

    /// Case-4 computation: score the joining points, select `W`, and
    /// combine its `2^|W|` assignments in one sweep over the plan for `W`.
    fn conditioned(
        &self,
        base: &[f64],
        la: AigLit,
        lb: AigLit,
        cache: &AndCache,
        scratch: &mut Scratch2,
    ) -> f64 {
        let pa = lit_prob(base, la);
        let pb = lit_prob(base, lb);
        // Score each joining point by |Cov(a,x)·Cov(b,x)| / S(x)². Nested
        // conditioning during scoring sharpens the ranking, but its cost
        // multiplies with the candidate count — restrict it to small sets.
        let nest_scores = cache.joining.len() <= MAX_NESTED_SCORING;
        if !nest_scores {
            scratch.load_cone(&self.aig, cache, base, [la, lb]);
        }
        let mut scored: Vec<(f64, u32)> = Vec::with_capacity(cache.joining.len());
        for (j, &x) in cache.joining.iter().enumerate() {
            let px = base[x.index()];
            if px <= f64::EPSILON || px >= 1.0 - f64::EPSILON {
                continue; // deterministic node carries no correlation
            }
            let (pa1, pb1) = if nest_scores {
                self.score_nested(base, cache, j, la, lb, &mut scratch.outer)
            } else {
                score_plain(cache, j, scratch)
            };
            let cov_a = (pa1 - pa) * px;
            let cov_b = (pb1 - pb) * px;
            let score = (cov_a * cov_b).abs() / (px * (1.0 - px));
            if score > 1e-15 {
                scored.push((score, j as u32));
            }
        }
        if scored.is_empty() {
            return (pa * pb).clamp(0.0, 1.0);
        }
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(self.maxvers);
        if scored.is_empty() {
            return (pa * pb).clamp(0.0, 1.0); // maxvers = 0: product rule
        }
        // Drop joining points whose score is negligible next to the top
        // one: every kept point doubles the enumeration below.
        let cutoff = scored[0].0 * 3e-3;
        scored.retain(|&(s, _)| s >= cutoff);
        let mut w_idx: Vec<u32> = scored.iter().map(|&(_, j)| j).collect();
        // Topological order: chain-rule weights condition each joining point
        // on the pins of its ancestors (`joining` is ascending, so sorting
        // the candidate indices sorts the nodes).
        w_idx.sort_unstable();

        let mut plan = std::mem::take(&mut scratch.plan);
        self.build_plan(cache, &w_idx, [la, lb], &mut plan, scratch);
        let p = self.sweep(base, &plan, &mut scratch.sweep);
        scratch.plan = plan;
        p.unwrap_or_else(|| (pa * pb).clamp(0.0, 1.0))
    }

    /// Scoring walk with nested conditioning: re-propagates the cone with
    /// joining candidate `j` pinned to 1 and returns the conditional
    /// probabilities of `la` and `lb`. Only the candidate's descendant
    /// sublist is visited — the rest of the cone provably keeps its base
    /// estimate — and values live in the AIG-indexed `outer`, where the
    /// nested kernel reads them.
    fn score_nested(
        &self,
        base: &[f64],
        cache: &AndCache,
        j: usize,
        la: AigLit,
        lb: AigLit,
        outer: &mut Scratch,
    ) -> (f64, f64) {
        outer.begin();
        let mut root = true;
        for_each_set_bit(cache.desc(j), |ci| {
            let n = cache.inner[ci];
            // The candidate itself is pinned. Every other position of its
            // descendant set has a fanin in the set, so it is re-derived
            // under the pin; nodes outside the set keep their base
            // estimate (which already includes bounded conditioning).
            if std::mem::take(&mut root) {
                outer.set(n, 1.0);
                return;
            }
            let phat = if self.cache[n.index()].nests() {
                let outer = &*outer;
                Nested::new(self, n).eval(|slot| outer.get(base, self.read_node(n, slot)))
            } else {
                let (fa, fb) = self.aig.and_fanins(n).expect("affected implies AND");
                outer.lit_value(base, fa) * outer.lit_value(base, fb)
            };
            outer.set(n, phat);
        });
        (outer.lit_value(base, la), outer.lit_value(base, lb))
    }

    /// Builds the sweep plan for conditioning on `w_idx` into `plan`: one
    /// row per position of the pins' descendant union (ascending), each
    /// with its pin bit, its operation and where its operands come from,
    /// plus the pin-dependency mask that keys nested rows. All of it
    /// depends on `W` only, never on probabilities.
    fn build_plan(
        &self,
        cache: &AndCache,
        w_idx: &[u32],
        ends: [AigLit; 2],
        plan: &mut Plan,
        scratch: &mut Scratch2,
    ) {
        plan.pins = w_idx.len();
        plan.rows.clear();
        plan.reads.clear();
        let at = &mut scratch.row_of;
        let dep = &mut scratch.dep;
        at.begin();
        dep.clear();
        // A pin's position is the lowest bit of its descendant set, and
        // ascending candidates have ascending positions.
        let pins: Vec<usize> = w_idx
            .iter()
            .map(|&j| first_set_bit(cache.desc(j as usize)))
            .collect();
        let mut next_pin = 0;
        for_each_set_bit(&affected_mask(cache, w_idx), |ci| {
            let n = cache.inner[ci];
            let pin = (pins.get(next_pin) == Some(&ci)).then(|| {
                next_pin += 1;
                next_pin as u32 - 1
            });
            let own = pin.map_or(0, |i| 1u32 << i);
            let mut d = own;
            let op = match self.aig.and_fanins(n) {
                Some((fa, fb)) if at.has(fa.node()) || at.has(fb.node()) => {
                    if self.cache[n.index()].nests() {
                        let first = plan.reads.len();
                        let len = 3 * self.cache[n.index()].inner.len() + 2;
                        plan.reads.resize(first + len, Src::Base(0));
                        self.for_each_nested_read(n, |slot, x| {
                            let src = at.src(x);
                            if let Src::Row(r) = src {
                                d |= dep[r as usize];
                            }
                            plan.reads[first + slot] = src;
                        });
                        Op::Nested {
                            reads: first as u32,
                            mask: d & !own,
                        }
                    } else {
                        let ops = [fa, fb].map(|f| at.operand(f));
                        for o in ops {
                            if let Src::Row(r) = o.src {
                                d |= dep[r as usize];
                            }
                        }
                        Op::Plain(ops)
                    }
                }
                _ => Op::Base,
            };
            at.set(n, plan.rows.len() as u32);
            dep.push(d);
            plan.rows.push(Row {
                node: n.index() as u32,
                pin,
                op,
            });
        });
        plan.ends = ends.map(|l| at.operand(l));
    }

    /// Formula (2) over a plan, assignment-major: each row holds one value
    /// per assignment `v`, filled in plan order, so every cone node is
    /// visited once for all `2^|W|` assignments. Returns `None` when no
    /// assignment carries weight.
    ///
    /// `weight[v]` is `P(A_v)` accumulated by the chain rule in pin order;
    /// once it is `≤ 0` the assignment is dead, its weight stays put and
    /// its lanes are never read again. Plain rows are computed for every
    /// lane (a dead lane's value is unused); nested rows only for live
    /// lanes, once per projection `v & mask`.
    fn sweep(&self, base: &[f64], plan: &Plan, t: &mut SweepTable) -> Option<f64> {
        let nv = 1usize << plan.pins;
        if t.vals.len() < plan.rows.len() * nv {
            t.vals.resize(plan.rows.len() * nv, 0.0);
        }
        if t.seen.len() < nv {
            t.seen.resize(nv, 0);
            t.proj.resize(nv, 0.0);
        }
        let SweepTable {
            vals,
            weight,
            proj,
            seen,
            epoch,
        } = t;
        weight.clear();
        weight.resize(nv, 1.0);
        for (r, row) in plan.rows.iter().enumerate() {
            let (done, rest) = vals.split_at_mut(r * nv);
            let out = &mut rest[..nv];
            match row.op {
                Op::Base => out.fill(base[row.node as usize]),
                Op::Plain([a, b]) => {
                    product_row(out, a.lane(done, nv, base), b.lane(done, nv, base));
                }
                Op::Nested { reads, mask } => {
                    let reads = &plan.reads[reads as usize..];
                    let n = AigNodeId::from_index(row.node as usize);
                    // A fresh projection memo for this row.
                    next_epoch(epoch, seen);
                    let mut nested = None;
                    for (v, o) in out.iter_mut().enumerate() {
                        if weight[v] <= 0.0 {
                            continue;
                        }
                        let key = v & mask as usize;
                        if seen[key] != *epoch {
                            seen[key] = *epoch;
                            let nested = nested.get_or_insert_with(|| Nested::new(self, n));
                            proj[key] = nested.eval(|slot| match reads[slot] {
                                Src::Row(q) => done[q as usize * nv + v],
                                Src::Base(x) => base[x as usize],
                            });
                        }
                        *o = proj[key];
                    }
                }
            }
            if let Some(i) = row.pin {
                for (v, (o, w)) in out.iter_mut().zip(weight.iter_mut()).enumerate() {
                    let bit = (v >> i) & 1 == 1;
                    // A dead assignment keeps its weight (a NaN weight, like
                    // the walks', stays live).
                    let dead = *w <= 0.0;
                    if !dead {
                        *w *= if bit { *o } else { 1.0 - *o };
                    }
                    *o = f64::from(bit);
                }
            }
        }
        let [a, b] = plan.ends;
        let mut total = 0.0f64;
        let mut norm = 0.0f64;
        for (v, &w) in weight.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            let pa_v = a.value(vals, nv, v, base);
            let pb_v = b.value(vals, nv, v, base);
            total += w * pa_v * pb_v;
            norm += w;
        }
        (norm > 0.0).then(|| (total / norm).clamp(0.0, 1.0))
    }

    /// The node [`Nested::eval`] of `n` reads through slot
    /// `slot` of nested node `n`: `3·ci` is `n`'s cone position `ci`,
    /// `3·ci + 1` and `3·ci + 2` are that position's two fanins, and
    /// `3·len`, `3·len + 1` are `n`'s own fanins.
    fn read_node(&self, n: AigNodeId, slot: usize) -> AigNodeId {
        let inner = &self.cache[n.index()].inner;
        let (node, side) = match inner.get(slot / 3) {
            Some(&m) if slot.is_multiple_of(3) => return m,
            Some(&m) => (m, slot % 3 - 1),
            None => (n, slot - 3 * inner.len()),
        };
        let (a, b) = self.aig.and_fanins(node).expect("read through an AND");
        [a, b][side].node()
    }

    /// Calls `f(slot, node)` for every outer read [`Nested::eval`] of `n`
    /// can make (see [`read_node`](Self::read_node)): an unaffected member
    /// of the pins' union, the fanins of an affected member that lie
    /// outside the union, and `n`'s own fanins.
    fn for_each_nested_read(&self, n: AigNodeId, mut f: impl FnMut(usize, AigNodeId)) {
        let nested = Nested::new(self, n);
        let nc = nested.nc;
        for_each_set_bit(&[nested.sublist], |ci| {
            let [f0, f1] = nc.fanin_ci[ci];
            if !(nested.set(f0) || nested.set(f1)) {
                f(3 * ci, nc.inner[ci]);
                return;
            }
            for (side, fc) in [f0, f1].into_iter().enumerate() {
                if !nested.set(fc) {
                    let slot = 3 * ci + 1 + side;
                    f(slot, self.read_node(n, slot));
                }
            }
        });
        let len = nc.inner.len();
        for slot in [3 * len, 3 * len + 1] {
            f(slot, self.read_node(n, slot));
        }
    }
}

/// Nested conditioning of one cone node `n` ([`AndCache::nests`]),
/// prepared once and evaluated per outer context.
///
/// A node with its own joining points carries reconvergence *inside* the
/// cone that the plain product rule would destroy (its base value handled
/// it by conditioning, but the base value is no longer valid once upstream
/// pins move its fanins). One level of nested conditioning re-derives the
/// value: enumerate `n`'s own (capped) joining set in the outer context
/// and combine with chain-rule weights. Values live by position in `n`'s
/// cone (at most [`MAX_NESTED_CONE`] of them).
struct Nested<'e> {
    nc: &'e AndCache,
    /// `n`'s fanins.
    fanins: [AigLit; 2],
    /// Pins enumerated: `n`'s first `wn` joining points.
    wn: usize,
    /// The pins' descendant union, and each pin's position.
    sublist: u64,
    roots: [usize; MAX_NESTED_VERS],
    /// Positions of `n`'s fanins when they are in the union.
    own: [Option<usize>; 2],
    /// Bit `ci`: position `ci`'s first / second fanin is complemented.
    complemented: [u64; 2],
}

impl<'e> Nested<'e> {
    fn new(est: &'e SignalProbEstimator, n: AigNodeId) -> Self {
        let (fa, fb) = est.aig.and_fanins(n).expect("cone interior node is an AND");
        let nc = &est.cache[n.index()];
        // Bound the nested enumeration tighter than MAXVERS: this runs per
        // affected node per outer assignment.
        let wn = nc.joining.len().min(est.maxvers.min(MAX_NESTED_VERS));
        let mut sublist = 0u64;
        let mut roots = [usize::MAX; MAX_NESTED_VERS];
        for (j, root) in roots.iter_mut().enumerate().take(wn) {
            // Single words: the cone has at most MAX_NESTED_CONE positions.
            let d = nc.desc(j)[0];
            sublist |= d;
            *root = d.trailing_zeros() as usize;
        }
        let mut complemented = [0u64; 2];
        for_each_set_bit(&[sublist], |ci| {
            if let Some((ga, gb)) = est.aig.and_fanins(nc.inner[ci]) {
                complemented[0] |= u64::from(ga.is_complement()) << ci;
                complemented[1] |= u64::from(gb.is_complement()) << ci;
            }
        });
        let mut nested = Nested {
            nc,
            fanins: [fa, fb],
            wn,
            sublist,
            roots,
            own: [None; 2],
            complemented,
        };
        nested.own = [fa, fb].map(|f| {
            nc.inner
                .binary_search(&f.node())
                .ok()
                .filter(|&p| nested.set(p as i32))
        });
        nested
    }

    /// Whether cone position `f` (`-1`: outside the cone) is written by a
    /// walk. Every position of the pins' union is written before it is
    /// read: a pin is set to its bit, and any other member has a fanin in
    /// the union. So "set in this walk" is membership.
    fn set(&self, f: i32) -> bool {
        f >= 0 && (self.sublist >> f) & 1 == 1
    }

    /// The value of `n` under the outer context `outer(slot)`, which
    /// returns the probability of the node
    /// [`read_node`](SignalProbEstimator::read_node) names for that slot.
    fn eval(&self, outer: impl Fn(usize) -> f64) -> f64 {
        WORK.with(|w| w.set(w.get() + 1));
        let nc = self.nc;
        let len = nc.inner.len();
        let mut vals = [0.0f64; MAX_NESTED_CONE];
        let mut total = 0.0f64;
        let mut norm = 0.0f64;
        for v in 0..(1usize << self.wn) {
            let mut weight = 1.0f64;
            let mut bitsleft = self.sublist;
            while bitsleft != 0 {
                let ci = bitsleft.trailing_zeros() as usize;
                bitsleft &= bitsleft - 1;
                let [f0, f1] = nc.fanin_ci[ci];
                let (s0, s1) = (self.set(f0), self.set(f1));
                let phat = if s0 || s1 {
                    let va = if s0 {
                        vals[f0 as usize]
                    } else {
                        outer(3 * ci + 1)
                    };
                    let vb = if s1 {
                        vals[f1 as usize]
                    } else {
                        outer(3 * ci + 2)
                    };
                    complement(va, (self.complemented[0] >> ci) & 1 == 1)
                        * complement(vb, (self.complemented[1] >> ci) & 1 == 1)
                } else {
                    outer(3 * ci)
                };
                if let Some(i) = self.roots[..self.wn].iter().position(|&r| r == ci) {
                    let bit = (v >> i) & 1 == 1;
                    weight *= if bit { phat } else { 1.0 - phat };
                    if weight <= 0.0 {
                        break;
                    }
                    vals[ci] = f64::from(bit);
                } else {
                    vals[ci] = phat;
                }
            }
            if weight <= 0.0 {
                continue;
            }
            let [va, vb] = [0, 1].map(|side| {
                let p = self.own[side].map_or_else(|| outer(3 * len + side), |p| vals[p]);
                lit_value(p, self.fanins[side])
            });
            total += weight * va * vb;
            norm += weight;
        }
        let [fa, fb] = self.fanins;
        if norm <= 0.0 {
            return lit_value(outer(3 * len), fa) * lit_value(outer(3 * len + 1), fb);
        }
        (total / norm).clamp(0.0, 1.0)
    }
}

/// Cone-local scoring walk without nested conditioning, over the cone
/// [`Scratch2::load_cone`] loaded: the candidate's position (the lowest
/// bit of its descendant set) is pinned to 1, and every other position of
/// the set has a fanin in it and is re-derived by the product rule. A
/// fanin outside the set reads its base estimate, which is what its slot
/// holds, so no read tests membership; the written positions are restored
/// afterwards.
fn score_plain(cache: &AndCache, j: usize, scratch: &mut Scratch2) -> (f64, f64) {
    let Scratch2 {
        vals,
        base_vals,
        ops,
        ends,
        ..
    } = scratch;
    let read =
        |vals: &[f64], op: u32| complement(vals[(op & !COMPLEMENT) as usize], op >= COMPLEMENT);
    let d = cache.desc(j);
    let root = first_set_bit(d);
    vals[root] = 1.0;
    for_each_set_bit(d, |ci| {
        if ci != root {
            let [a, b] = ops[ci];
            vals[ci] = read(vals, a) * read(vals, b);
        }
    });
    let out = (read(vals, ends[0]), read(vals, ends[1]));
    for_each_set_bit(d, |ci| vals[ci] = base_vals[ci]);
    out
}

/// `out[v] = a[v] · b[v]` over one row.
fn product_row(out: &mut [f64], a: Lane<'_>, b: Lane<'_>) {
    match (a, b) {
        (Lane::Row(x, cx), Lane::Row(y, cy)) => {
            for ((o, &p), &q) in out.iter_mut().zip(x).zip(y) {
                *o = complement(p, cx) * complement(q, cy);
            }
        }
        // IEEE multiplication commutes, so the operand order is free.
        (Lane::Row(x, cx), Lane::Const(q)) | (Lane::Const(q), Lane::Row(x, cx)) => {
            for (o, &p) in out.iter_mut().zip(x) {
                *o = complement(p, cx) * q;
            }
        }
        (Lane::Const(p), Lane::Const(q)) => out.fill(p * q),
    }
}

/// Cap on joining points enumerated per nested (inner) conditioning pass —
/// the cost multiplies into every outer assignment.
const MAX_NESTED_VERS: usize = 2;

/// Nested conditioning only runs when the node's affected subgraph is this
/// small; larger cones fall back to the product rule to keep the estimator
/// usable inside the optimizer's hill-climbing loop.
const MAX_NESTED_CONE: usize = 32;

/// Candidate-count bound for nested conditioning inside the scoring pass.
const MAX_NESTED_SCORING: usize = 12;

/// Minimum conditioned-node count for fanning a rank out to worker
/// threads: conditioned kernels cost microseconds each, so a handful
/// already covers the spawn/synchronization overhead.
pub(crate) const MIN_PAR_COND: u32 = 4;

/// Ranks with at least this many nodes are fanned out even without
/// conditioned members — at this width the two-multiplication product
/// nodes amortize the queueing cost.
pub(crate) const MIN_PAR_WIDE: usize = 1024;

/// Probability of a literal given per-node probabilities.
pub(crate) fn lit_prob(probs: &[f64], lit: AigLit) -> f64 {
    lit_value(probs[lit.node().index()], lit)
}

/// `p` or `1 − p`.
#[inline(always)]
fn complement(p: f64, c: bool) -> f64 {
    if c {
        1.0 - p
    } else {
        p
    }
}

/// The value of `lit` when its node has probability `p`.
#[inline(always)]
fn lit_value(p: f64, lit: AigLit) -> f64 {
    complement(p, lit.is_complement())
}

thread_local! {
    /// Nested conditioning evaluations run on this thread: a
    /// deterministic work count for the tests.
    static WORK: Cell<u64> = const { Cell::new(0) };
}

/// Epoch-stamped AIG-indexed values for the nested scoring walk (O(1)
/// reset).
#[derive(Debug, Clone)]
struct Scratch {
    value: Vec<f64>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            value: vec![0.0; n],
            stamp: vec![0; n],
            epoch: 0,
        }
    }
    fn begin(&mut self) {
        next_epoch(&mut self.epoch, &mut self.stamp);
    }
    fn set(&mut self, n: AigNodeId, v: f64) {
        self.value[n.index()] = v;
        self.stamp[n.index()] = self.epoch;
    }
    fn is_set(&self, n: AigNodeId) -> bool {
        self.stamp[n.index()] == self.epoch
    }
    fn get(&self, base: &[f64], n: AigNodeId) -> f64 {
        if self.is_set(n) {
            self.value[n.index()]
        } else {
            base[n.index()]
        }
    }
    fn lit_value(&self, base: &[f64], lit: AigLit) -> f64 {
        lit_value(self.get(base, lit.node()), lit)
    }
}

/// Per-thread scratch of the per-node kernel. Opaque outside this module;
/// obtained via [`SignalProbEstimator::new_scratch`].
#[derive(Debug, Clone)]
pub(crate) struct Scratch2 {
    /// AIG-indexed values of the nested scoring walk.
    outer: Scratch,
    /// Value slots of the plain scoring walks (see
    /// [`load_cone`](Scratch2::load_cone)), and the base estimates of the
    /// cone positions they are restored to.
    vals: Vec<f64>,
    base_vals: Vec<f64>,
    /// Per cone position, the value slots of its two fanins; and the slots
    /// of the scored AND's fanins. [`COMPLEMENT`] marks a complemented
    /// literal.
    ops: Vec<[u32; 2]>,
    ends: [u32; 2],
    /// AIG node → plan row, while a plan is built.
    row_of: RowMap,
    /// Pin-dependency mask per plan row, while a plan is built.
    dep: Vec<u32>,
    /// The plan of the node being evaluated, rebuilt per evaluation into
    /// reused buffers (see the module docs).
    plan: Plan,
    /// The sweep's per-assignment rows and buffers.
    sweep: SweepTable,
}

impl Scratch2 {
    fn new(n: usize) -> Self {
        Scratch2 {
            outer: Scratch::new(n),
            vals: Vec::new(),
            base_vals: Vec::new(),
            ops: Vec::new(),
            ends: [0; 2],
            row_of: RowMap::new(n),
            dep: Vec::new(),
            plan: Plan::default(),
            sweep: SweepTable::default(),
        }
    }

    /// Loads the cone of `cache` for the plain scoring walks: one value
    /// slot per cone position holding its base estimate, then one slot per
    /// literal read from outside the cone, and each read's slot.
    fn load_cone(&mut self, aig: &Aig, cache: &AndCache, base: &[f64], ends: [AigLit; 2]) {
        self.vals.clear();
        self.vals
            .extend(cache.inner.iter().map(|x| base[x.index()]));
        self.base_vals.clear();
        self.base_vals.extend_from_slice(&self.vals);
        let vals = &mut self.vals;
        let mut slot = |pos: Option<usize>, lit: AigLit| {
            let s = pos.unwrap_or_else(|| {
                vals.push(base[lit.node().index()]);
                vals.len() - 1
            });
            s as u32 | if lit.is_complement() { COMPLEMENT } else { 0 }
        };
        self.ops.clear();
        for (&x, fc) in cache.inner.iter().zip(&cache.fanin_ci) {
            // A position without fanins is only ever a walk's root.
            let Some((fa, fb)) = aig.and_fanins(x) else {
                self.ops.push([0; 2]);
                continue;
            };
            let pos = fc.map(|f| usize::try_from(f).ok());
            self.ops.push([slot(pos[0], fa), slot(pos[1], fb)]);
        }
        self.ends = ends.map(|l| slot(cache.inner.binary_search(&l.node()).ok(), l));
    }
}

/// Marks a complemented literal in a [`Scratch2::ops`] slot.
const COMPLEMENT: u32 = 1 << 31;

/// The sweep plan of one node for one selected `W` (see the module docs).
#[derive(Debug, Clone)]
struct Plan {
    /// `|W|`.
    pins: usize,
    /// One row per position of the pins' descendant union, ascending.
    rows: Vec<Row>,
    /// Outer reads of the nested rows, `3·|cone| + 2` slots per row (see
    /// [`SignalProbEstimator::read_node`]), each mapped to a row or a base
    /// node.
    reads: Vec<Src>,
    /// Where the AND's two fanins are read from.
    ends: [Operand; 2],
}

impl Default for Plan {
    fn default() -> Self {
        let none = Operand {
            src: Src::Base(0),
            complement: false,
        };
        Plan {
            pins: 0,
            rows: Vec::new(),
            reads: Vec::new(),
            ends: [none; 2],
        }
    }
}

/// One plan row: the cone node it holds, its pin bit in the assignment
/// (`None` if unpinned) and how its pre-pin value is computed.
#[derive(Debug, Clone, Copy)]
struct Row {
    node: u32,
    pin: Option<u32>,
    op: Op,
}

/// How a row's pre-pin value is computed.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// No fanin is in the plan: the base estimate (only pins).
    Base,
    /// The product rule over the two operands.
    Plain([Operand; 2]),
    /// Nested conditioning, once per live projection `v & mask`; the
    /// node's outer reads start at `reads` in [`Plan::reads`].
    Nested { reads: u32, mask: u32 },
}

/// Where a value comes from in a sweep: an earlier row, or a base node.
#[derive(Debug, Clone, Copy)]
enum Src {
    Row(u32),
    Base(u32),
}

/// A literal operand: its source and whether it is complemented.
#[derive(Debug, Clone, Copy)]
struct Operand {
    src: Src,
    complement: bool,
}

/// An operand resolved for one row: a row of values, or one value.
#[derive(Clone, Copy)]
enum Lane<'a> {
    Row(&'a [f64], bool),
    Const(f64),
}

impl Operand {
    fn lane<'a>(self, rows: &'a [f64], nv: usize, base: &[f64]) -> Lane<'a> {
        match self.src {
            Src::Row(r) => Lane::Row(&rows[r as usize * nv..][..nv], self.complement),
            Src::Base(x) => Lane::Const(complement(base[x as usize], self.complement)),
        }
    }

    fn value(self, rows: &[f64], nv: usize, v: usize, base: &[f64]) -> f64 {
        let p = match self.src {
            Src::Row(r) => rows[r as usize * nv + v],
            Src::Base(x) => base[x as usize],
        };
        complement(p, self.complement)
    }
}

/// AIG node → plan row, epoch-stamped (O(1) reset per plan).
#[derive(Debug, Clone)]
struct RowMap {
    stamp: Vec<u32>,
    row: Vec<u32>,
    epoch: u32,
}

impl RowMap {
    fn new(n: usize) -> Self {
        RowMap {
            stamp: vec![0; n],
            row: vec![0; n],
            epoch: 0,
        }
    }
    fn begin(&mut self) {
        next_epoch(&mut self.epoch, &mut self.stamp);
    }
    fn set(&mut self, n: AigNodeId, r: u32) {
        self.stamp[n.index()] = self.epoch;
        self.row[n.index()] = r;
    }
    fn has(&self, n: AigNodeId) -> bool {
        self.stamp[n.index()] == self.epoch
    }
    fn src(&self, n: AigNodeId) -> Src {
        if self.has(n) {
            Src::Row(self.row[n.index()])
        } else {
            Src::Base(n.index() as u32)
        }
    }
    fn operand(&self, lit: AigLit) -> Operand {
        Operand {
            src: self.src(lit.node()),
            complement: lit.is_complement(),
        }
    }
}

/// The sweep's buffers, reused across nodes: the row table (`2^|W|`
/// values per plan row), the assignment weights, and the per-row
/// projection memo of nested rows (epoch-stamped).
#[derive(Debug, Clone, Default)]
struct SweepTable {
    vals: Vec<f64>,
    weight: Vec<f64>,
    proj: Vec<f64>,
    seen: Vec<u32>,
    epoch: u32,
}

/// Advances an epoch that `stamp` entries are compared against (so equal
/// means "set in this epoch"), clearing the stamps when it wraps.
fn next_epoch(epoch: &mut u32, stamp: &mut [u32]) {
    *epoch = epoch.wrapping_add(1);
    if *epoch == 0 {
        stamp.fill(0);
        *epoch = 1;
    }
}

/// Calls `f` with each set-bit position of `words`, ascending.
fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &word0) in words.iter().enumerate() {
        let mut word = word0;
        while word != 0 {
            f((wi << 6) | word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

/// The lowest set-bit position of a non-empty bitset.
fn first_set_bit(words: &[u64]) -> usize {
    let wi = words.iter().position(|&w| w != 0).expect("non-empty set");
    (wi << 6) | words[wi].trailing_zeros() as usize
}

/// The cone positions a walk pinning `w_idx` can touch, as a bitset: the
/// union of the candidates' descendant bitsets.
fn affected_mask(cache: &AndCache, w_idx: &[u32]) -> Vec<u64> {
    let mut mask = vec![0u64; cache.inner.len().div_ceil(64)];
    for &j in w_idx {
        for (m, &d) in mask.iter_mut().zip(cache.desc(j as usize)) {
            *m |= d;
        }
    }
    mask
}

/// Builds every node's [`AndCache`]. A node's cache depends only on the
/// AIG, never on another node's cache, so contiguous node chunks are built
/// independently — serially, or pulled from a shared queue by one
/// [`ConeBuilder`] per executor thread — and the result is the same.
///
/// `cancel` is polled once per chunk: [`CANCEL_CHECK_NODES`] nodes when
/// serial, [`MIN_PAR_WIDE`] nodes (fine enough to balance uneven cone
/// costs across threads) when parallel. AIGs narrower than one parallel
/// chunk stay serial.
fn build_caches(
    aig: &Aig,
    maxlist: usize,
    exec: &Exec,
    cancel: &CancelToken,
) -> Result<Vec<AndCache>, CoreError> {
    let fanouts = aig.fanout_map();
    let mut cache = vec![AndCache::default(); aig.len()];
    if !exec.parallel() || aig.len() < MIN_PAR_WIDE {
        let mut builder = ConeBuilder::new(aig, &fanouts, maxlist);
        for (c, chunk) in cache.chunks_mut(CANCEL_CHECK_NODES).enumerate() {
            cancel.check()?;
            builder.fill(c * CANCEL_CHECK_NODES, chunk);
        }
        return Ok(cache);
    }
    let chunks = Mutex::new(cache.chunks_mut(MIN_PAR_WIDE).enumerate());
    exec.run(|| {
        rayon::scope(|s| {
            for _ in 0..exec.threads() {
                s.spawn(|_| {
                    let mut builder = ConeBuilder::new(aig, &fanouts, maxlist);
                    loop {
                        let next = chunks
                            .lock()
                            .expect("taking the next chunk cannot panic")
                            .next();
                        let Some((c, chunk)) = next else { break };
                        if cancel.is_cancelled() {
                            break;
                        }
                        builder.fill(c * MIN_PAR_WIDE, chunk);
                    }
                });
            }
        });
    });
    cancel.check()?;
    Ok(cache)
}

/// One thread's scratch for building [`AndCache`]s node by node. Every
/// membership and position query is an O(1) lookup in an epoch-stamped
/// per-AIG-node array (one epoch per built node, so nothing is ever
/// cleared), and the buffers are reused across nodes.
struct ConeBuilder<'a> {
    aig: &'a Aig,
    fanouts: &'a AigFanouts,
    maxlist: usize,
    epoch: u32,
    /// Membership in the bounded cone of the AND's first / second fanin.
    in_a: Vec<u32>,
    in_b: Vec<u32>,
    /// `(stamp, position)`: membership in, and position within, the kept
    /// cone `inner`.
    pos: Vec<(u32, u32)>,
    cone_a: Vec<AigNodeId>,
    cone_b: Vec<AigNodeId>,
    /// The kept cone and its fanin positions, copied out exactly sized.
    inner: Vec<AigNodeId>,
    fanin_ci: Vec<[i32; 2]>,
    /// Transposed descendant rows: one `|joining|`-bit row per `inner`
    /// position.
    rows: Vec<u64>,
}

impl<'a> ConeBuilder<'a> {
    fn new(aig: &'a Aig, fanouts: &'a AigFanouts, maxlist: usize) -> Self {
        let n = aig.len();
        ConeBuilder {
            aig,
            fanouts,
            maxlist,
            epoch: 0,
            in_a: vec![0; n],
            in_b: vec![0; n],
            pos: vec![(0, 0); n],
            cone_a: Vec::new(),
            cone_b: Vec::new(),
            inner: Vec::new(),
            fanin_ci: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Builds the caches of nodes `first..first + out.len()` into `out`.
    fn fill(&mut self, first: usize, out: &mut [AndCache]) {
        for (k, slot) in (first..).zip(out) {
            *slot = self.build(AigNodeId::from_index(k));
        }
    }

    /// The cache of one node (empty unless it is an AND with joining
    /// points).
    fn build(&mut self, id: AigNodeId) -> AndCache {
        let Some((la, lb)) = self.aig.and_fanins(id) else {
            return AndCache::default();
        };
        let (a, b) = (la.node(), lb.node());
        self.epoch += 1;
        let epoch = self.epoch;
        bounded_cone(
            self.aig,
            a,
            self.maxlist,
            &mut self.in_a,
            epoch,
            &mut self.cone_a,
        );
        bounded_cone(
            self.aig,
            b,
            self.maxlist,
            &mut self.in_b,
            epoch,
            &mut self.cone_b,
        );
        // Joining points: in both cones, fanout ≥ 2, with distinct
        // immediate successors toward a and b. A fanout of 1 can still
        // join if x *is* a or b itself (x feeds the other side through its
        // single successor while feeding the AND directly).
        let mut joining = Vec::new();
        for &x in &self.cone_a {
            if self.in_b[x.index()] != epoch {
                continue;
            }
            let succs = self.fanouts.of(x.index());
            if succs.len() < 2 && x != a && x != b {
                continue;
            }
            let mut to_a = x == a;
            let mut to_b = x == b;
            let mut branches_a = usize::from(x == a);
            let mut branches_b = usize::from(x == b);
            for &s in succs {
                if s == a || self.in_a[s.index()] == epoch {
                    to_a = true;
                    branches_a += 1;
                }
                if s == b || self.in_b[s.index()] == epoch {
                    to_b = true;
                    branches_b += 1;
                }
            }
            // Need two *different* routes: total distinct branch uses ≥ 2.
            if to_a && to_b && branches_a + branches_b >= 2 {
                joining.push(x);
            }
        }
        if joining.is_empty() {
            return AndCache::default();
        }
        joining.sort_unstable();
        // Keep only the joining points and their descendants inside the
        // union cone — the subgraph a pinned assignment can actually
        // change: a search along fanout edges that stay in either cone,
        // then ascending (= topological) order.
        let inner = &mut self.inner;
        inner.clear();
        inner.extend_from_slice(&joining);
        for &x in &joining {
            self.pos[x.index()] = (epoch, 0);
        }
        let mut next = 0;
        while let Some(&x) = inner.get(next) {
            next += 1;
            for &s in self.fanouts.of(x.index()) {
                let in_cone = self.in_a[s.index()] == epoch || self.in_b[s.index()] == epoch;
                if in_cone && self.pos[s.index()].0 != epoch {
                    self.pos[s.index()] = (epoch, 0);
                    inner.push(s);
                }
            }
        }
        inner.sort_unstable();
        for (ci, &x) in inner.iter().enumerate() {
            self.pos[x.index()] = (epoch, ci as u32);
        }
        // Each kept node's fanin positions within `inner` (-1 outside it).
        let fanin_ci = &mut self.fanin_ci;
        fanin_ci.clear();
        fanin_ci.extend(inner.iter().map(|&x| {
            let mut fc = [-1i32; 2];
            if let Some((fa, fb)) = self.aig.and_fanins(x) {
                for (side, f) in [fa, fb].into_iter().enumerate() {
                    let (stamp, p) = self.pos[f.node().index()];
                    if stamp == epoch {
                        fc[side] = p as i32;
                    }
                }
            }
            fc
        }));
        // Transposed descendant pass: row `ci` holds the candidates whose
        // descendant closure contains `inner[ci]` — the OR of its kept
        // fanins' rows, plus its own bit. `joining` and `inner` are both
        // ascending, so the candidates appear in `inner` in index order.
        let jw = joining.len().div_ceil(64);
        self.rows.clear();
        self.rows.resize(inner.len() * jw, 0);
        let mut next_j = 0;
        for (ci, fc) in fanin_ci.iter().enumerate() {
            let (done, rest) = self.rows.split_at_mut(ci * jw);
            let row = &mut rest[..jw];
            for &f in fc.iter().filter(|&&f| f >= 0) {
                let f = f as usize;
                for (w, &d) in row.iter_mut().zip(&done[f * jw..(f + 1) * jw]) {
                    *w |= d;
                }
            }
            if joining.get(next_j) == Some(&inner[ci]) {
                row[next_j >> 6] |= 1 << (next_j & 63);
                next_j += 1;
            }
        }
        // The per-candidate bitsets are the transpose of the row matrix,
        // done 64 × 64 bits at a time.
        let stride = inner.len().div_ceil(64);
        let mut desc = vec![0u64; joining.len() * stride];
        let mut block = [0u64; 64];
        for bi in 0..stride {
            let rows = &self.rows[bi * 64 * jw..(inner.len() * jw).min((bi + 1) * 64 * jw)];
            for bj in 0..jw {
                block.fill(0);
                for (b, row) in block.iter_mut().zip(rows.chunks_exact(jw)) {
                    *b = row[bj];
                }
                transpose64(&mut block);
                let cands = (joining.len() - bj * 64).min(64);
                for (c, &word) in block[..cands].iter().enumerate() {
                    desc[(bj * 64 + c) * stride + bi] = word;
                }
            }
        }
        AndCache {
            joining,
            inner: inner.clone(),
            fanin_ci: fanin_ci.clone(),
            desc,
        }
    }
}

/// Transposes a 64 × 64 bit matrix in place (bit `c` of word `r` is
/// entry `(r, c)`) by swapping ever smaller off-diagonal blocks.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Collects the bounded backward cone of `root` (inclusive) into `cone`,
/// breadth first; membership is marked in `mark` with `epoch`.
fn bounded_cone(
    aig: &Aig,
    root: AigNodeId,
    max_depth: usize,
    mark: &mut [u32],
    epoch: u32,
    cone: &mut Vec<AigNodeId>,
) {
    cone.clear();
    cone.push(root);
    mark[root.index()] = epoch;
    // `cone[lo..hi]` is the current frontier.
    let mut lo = 0;
    for _ in 0..max_depth {
        let hi = cone.len();
        for i in lo..hi {
            if let Some((a, b)) = aig.and_fanins(cone[i]) {
                for f in [a.node(), b.node()] {
                    if mark[f.index()] != epoch {
                        mark[f.index()] = epoch;
                        cone.push(f);
                    }
                }
            }
        }
        if cone.len() == hi {
            break;
        }
        lo = hi;
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod sweep_reference;

#[cfg(test)]
mod tests {
    use protest_netlist::CircuitBuilder;

    use crate::aig::Aig;
    use crate::params::AnalyzerParams;

    use super::*;

    fn estimate_outputs(
        circuit: &protest_netlist::Circuit,
        probs: &[f64],
        params: &AnalyzerParams,
    ) -> Vec<f64> {
        let aig = Aig::from_circuit(circuit);
        let est = SignalProbEstimator::new(aig, params);
        let node_probs = est.full_estimate(probs);
        circuit
            .outputs()
            .iter()
            .map(|&o| lit_prob(&node_probs, est.aig().lit_of(o)))
            .collect()
    }

    #[test]
    fn tree_circuits_are_exact() {
        // No reconvergence: product rule is exact.
        let mut b = CircuitBuilder::new("tree");
        let xs = b.input_bus("x", 4);
        let l = b.and2(xs[0], xs[1]);
        let r = b.or2(xs[2], xs[3]);
        let z = b.nand2(l, r);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let ps = [0.5, 0.25, 0.8, 0.1];
        let got = estimate_outputs(&ckt, &ps, &AnalyzerParams::default());
        let want = 1.0 - (0.5 * 0.25) * (1.0 - 0.2 * 0.9);
        assert!((got[0] - want).abs() < 1e-12, "got {} want {want}", got[0]);
    }

    #[test]
    fn reconvergence_through_shared_input_is_exact() {
        // z = a ∧ (a ∨ b): exact P = pa. Pure product rule would give
        // pa(pa + pb − pa·pb) ≠ pa.
        let mut b = CircuitBuilder::new("rc");
        let a = b.input("a");
        let c = b.input("b");
        let o = b.or2(a, c);
        let z = b.and2(a, o);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        for (pa, pb) in [(0.5, 0.5), (0.3, 0.9), (0.7, 0.2)] {
            let got = estimate_outputs(&ckt, &[pa, pb], &AnalyzerParams::default());
            assert!((got[0] - pa).abs() < 1e-9, "pa={pa} pb={pb} got {}", got[0]);
        }
    }

    #[test]
    fn xor_of_same_input_is_zero() {
        // z = a ⊕ a = 0; the AIG folds this, but build it via two gates so
        // reconvergence analysis must do the work.
        let mut b = CircuitBuilder::new("xx");
        let a = b.input("a");
        let buf1 = b.and2(a, a); // = a after strashing? and(a,a) folds to a.
        let n = b.not(a);
        let t1 = b.and2(a, n); // folds to 0
        b.output(t1, "z");
        b.output(buf1, "w");
        let ckt = b.finish().unwrap();
        let got = estimate_outputs(&ckt, &[0.37], &AnalyzerParams::default());
        assert!(got[0].abs() < 1e-12);
        assert!((got[1] - 0.37).abs() < 1e-12);
    }

    #[test]
    fn nested_reconvergence_survives_conditional_repropagation() {
        // Regression: z = NAND(NAND(x3, x1), OR(AND(x0, x3, x6), x6, x6)).
        // The top NAND's only joining point is x3, but the OR side contains
        // its *own* reconvergence on x6 (repeated fanin). Re-propagating
        // that side with the plain product rule while conditioning on x3
        // destroyed the x6 correlation and produced 0.578 instead of the
        // exact 0.625 (observed on `random_circuit` seed 13, node 12).
        let mut b = CircuitBuilder::new("nested_rc");
        let x0 = b.input("x0");
        let x1 = b.input("x1");
        let x3 = b.input("x3");
        let x6 = b.input("x6");
        let g7 = b.and(&[x0, x3, x6]);
        let g8 = b.nand2(x3, x1);
        let g9 = b.or(&[g7, x6, x6]);
        let z = b.nand2(g8, g9);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let got = estimate_outputs(&ckt, &[0.5; 4], &AnalyzerParams::default());
        // Exact: P(¬(x3·x1) ∧ (x7 ∨ x6)) = P(¬(x3·x1) ∧ x6) = 0.75·0.5,
        // so the NAND output is 1 − 0.375 = 0.625.
        assert!(
            (got[0] - 0.625).abs() < 0.05,
            "nested reconvergence mis-estimated: got {} want 0.625",
            got[0]
        );
    }

    #[test]
    fn correlated_joining_points_get_joint_weights() {
        // Regression: z = AND(AND(a, b), a). Both `AND(a, b)` and `a` are
        // joining points of the outer AND, and they are strongly correlated
        // (the inner AND implies a). Weighting assignments by a product of
        // marginals puts mass on the impossible case (inner = 1, a = 0) and
        // overestimates; chain-rule weights must recover P(a·b) exactly.
        let mut b = CircuitBuilder::new("joint_w");
        let a = b.input("a");
        let c = b.input("b");
        let t = b.and2(a, c);
        let z = b.and2(t, a);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        for (pa, pb) in [(0.5, 0.5), (0.75, 0.25), (0.3, 0.9)] {
            let got = estimate_outputs(&ckt, &[pa, pb], &AnalyzerParams::default());
            let want = pa * pb;
            assert!(
                (got[0] - want).abs() < 1e-9,
                "pa={pa} pb={pb}: got {} want {want}",
                got[0]
            );
        }
    }

    #[test]
    fn classic_reconvergent_majority_is_exact_with_enough_maxvers() {
        // maj(a,b,c) = ab ∨ bc ∨ ac: inputs are shared across branches.
        let mut b = CircuitBuilder::new("maj");
        let a = b.input("a");
        let c = b.input("c");
        let d = b.input("d");
        let t1 = b.and2(a, c);
        let t2 = b.and2(c, d);
        let t3 = b.and2(a, d);
        let o1 = b.or2(t1, t2);
        let z = b.or2(o1, t3);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let ps = [0.5, 0.5, 0.5];
        let got = estimate_outputs(&ckt, &ps, &AnalyzerParams::default());
        // Exact: P(maj) = 0.5 for uniform inputs.
        assert!(
            (got[0] - 0.5).abs() < 0.02,
            "majority estimate {} too far from 0.5",
            got[0]
        );
    }

    #[test]
    fn maxvers_zero_degenerates_to_product_rule() {
        let mut b = CircuitBuilder::new("rc");
        let a = b.input("a");
        let c = b.input("b");
        let o = b.or2(a, c);
        let z = b.and2(a, o);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let params = AnalyzerParams {
            maxvers: 0,
            ..AnalyzerParams::default()
        };
        let got = estimate_outputs(&ckt, &[0.5, 0.5], &params);
        // Product rule: P(a)·P(a∨b) = 0.5 · 0.75.
        assert!((got[0] - 0.375).abs() < 1e-12, "got {}", got[0]);
    }

    #[test]
    fn estimates_stay_in_unit_interval() {
        use protest_netlist::GateKind;
        // A dense reconvergent mess.
        let mut b = CircuitBuilder::new("mess");
        let xs = b.input_bus("x", 4);
        let mut layer = xs.clone();
        for round in 0..4 {
            let mut next = Vec::new();
            for i in 0..layer.len() {
                let j = (i + 1) % layer.len();
                let kind = match (round + i) % 3 {
                    0 => GateKind::Nand,
                    1 => GateKind::Nor,
                    _ => GateKind::Xor,
                };
                next.push(b.gate(kind, &[layer[i], layer[j]]));
            }
            layer = next;
        }
        for (i, &n) in layer.iter().enumerate() {
            b.output(n, format!("z{i}"));
        }
        let ckt = b.finish().unwrap();
        for p in [0.0, 0.1, 0.5, 0.9, 1.0] {
            let got = estimate_outputs(&ckt, &[p; 4], &AnalyzerParams::default());
            for (i, &g) in got.iter().enumerate() {
                assert!((0.0..=1.0).contains(&g), "output {i} = {g} at p={p}");
            }
        }
    }

    #[test]
    fn transpose64_swaps_rows_and_columns() {
        let mut a = [0u64; 64];
        for (r, w) in a.iter_mut().enumerate() {
            *w = (r as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        let orig = a;
        transpose64(&mut a);
        for (r, &row) in orig.iter().enumerate() {
            for (c, &col) in a.iter().enumerate() {
                assert_eq!((col >> r) & 1, (row >> c) & 1, "({r}, {c})");
            }
        }
    }

    #[test]
    fn deterministic_inputs_give_deterministic_outputs() {
        let mut b = CircuitBuilder::new("det");
        let a = b.input("a");
        let c = b.input("b");
        let z = b.xor2(a, c);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        for (pa, pb, want) in [(1.0, 1.0, 0.0), (1.0, 0.0, 1.0), (0.0, 0.0, 0.0)] {
            let got = estimate_outputs(&ckt, &[pa, pb], &AnalyzerParams::default());
            assert!((got[0] - want).abs() < 1e-12);
        }
    }
}
