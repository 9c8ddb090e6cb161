//! The tree-projection search engine (Theorem 3.6's FPT computation).
//!
//! A tree projection of `(H₁, H₂)` exists iff the primal graph of `H₁` has a
//! tree decomposition whose bags each fit inside a hyperedge of `H₂`: every
//! hyperedge of `H₁` is a clique of the primal graph, and any tree
//! decomposition puts every clique inside some bag (the clique-containment
//! lemma), so covering `H₁` comes for free.
//!
//! The search is the classical block recursion over connected components:
//! `solve(C)` asks whether the block `(C, N(C))` can be decomposed; it tries
//! every candidate bag `B` with `N(C) ⊆ B ⊆ C ∪ N(C)` and `B ∩ C ≠ ∅`, and
//! recurses into the connected components of `C \ B`. Results are memoized
//! per component, so the search is fixed-parameter tractable in
//! `|nodes(H₁)|` — exactly the guarantee of Theorem 3.6.
//!
//! # Parallel search, deterministic witnesses
//!
//! The engine parallelizes two independent axes over [`cqcount_exec`]'s
//! pool: sibling components of `C \ B` are solved concurrently, and small
//! *speculative batches* of candidates are attempted concurrently. The memo
//! is a sharded map shared by all workers, with three slot states:
//! `InFlight` (someone is computing this block — share their verdict
//! instead of re-refuting it), `Solved`, and `Refuted`. A worker that finds
//! a block in flight spins briefly for the owner's verdict, then falls back
//! to computing the block independently (first write wins); the fallback is
//! what keeps the engine deadlock-free — the pool's help-while-waiting
//! stealing can park an in-flight block's owner underneath a task that
//! waits on that very block, so no wait may be unbounded.
//!
//! Determinism: at a fixed width, `solve(C)` is a *pure function* of `C`
//! (candidates derive from the block alone), so concurrency only changes
//! *which* memo entries get computed — never their values — and the witness
//! is always the first success in candidate order at every level, exactly
//! what the sequential reference (`CQCOUNT_THREADS=1`) produces.
//!
//! # Cross-width negative reuse
//!
//! The engine survives across widths (see [`crate::ghw::GhwSearch`]).
//! Between widths every *positive* entry is invalidated (an epoch bump —
//! wider searches must rediscover witnesses in their own candidate order),
//! but *negative* verdicts persist together with a fingerprint of the
//! block's candidate universe. If the universe is unchanged at `k+1` the
//! whole subtree search would replay verbatim, so the block is refuted
//! without expanding a single bag. The soundness argument lives in
//! DESIGN.md §Planner.
//!
//! Candidate bags are supplied by a [`CandidateSource`] (or a plain closure
//! through [`decompose`]), which is how the same engine serves tree
//! projections w.r.t. arbitrary view sets ([`crate::ghw`]), plain treewidth
//! ([`crate::treedec`]) and fractional hypertree width
//! ([`crate::fractional`]).

use crate::Hypertree;
use cqcount_hypergraph::primal::PrimalGraph;
use cqcount_hypergraph::{Hypergraph, NodeSet};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A candidate bag: the bag node set plus an opaque payload (resource
/// indices) recorded into `λ` of the produced [`Hypertree`].
pub type Candidate = (NodeSet, Vec<usize>);

/// The candidates for one block, opened by a [`CandidateSource`].
pub struct BlockCandidates<'a> {
    /// Fingerprint of the block's candidate universe, if the source can
    /// compute one cheaply (without expanding the stream). Blocks refuted
    /// at a previous width with the same fingerprint are refuted without
    /// touching `stream`. `None` disables cross-width reuse.
    pub universe_hash: Option<u128>,
    /// Candidate bags in decreasing priority order; pulled lazily.
    pub stream: Box<dyn Iterator<Item = Candidate> + Send + 'a>,
}

/// Supplies candidate bags for blocks `(comp, conn = N(comp))`.
///
/// `open` must be a pure function of the block: the engine calls it from
/// multiple workers and in an order that depends on scheduling, and the
/// determinism guarantee relies on every call for the same block yielding
/// the same candidates in the same order.
pub trait CandidateSource: Sync {
    fn open<'a>(&'a self, conn: &NodeSet, comp: &NodeSet) -> BlockCandidates<'a>;
}

/// A subtree of bags (pre-flattening). Shared, not cloned: sibling blocks
/// frequently reuse identical memoized subtrees.
#[derive(Debug)]
struct BagNode {
    bag: NodeSet,
    lambda: Vec<usize>,
    children: Vec<Arc<BagNode>>,
}

/// Memo slot for one block, tagged with the epoch (width level) that wrote
/// it. Stale `Solved` entries are dead; stale `Refuted` entries seed
/// cross-width reuse via their universe fingerprint.
#[derive(Clone)]
enum Slot {
    InFlight {
        epoch: u64,
    },
    Solved {
        epoch: u64,
        tree: Arc<BagNode>,
    },
    Refuted {
        epoch: u64,
        universe_hash: Option<u128>,
    },
}

enum Claim {
    /// Current-epoch verdict already present.
    Hit(Option<Arc<BagNode>>),
    /// Another worker is computing this block right now.
    Busy,
    /// We own the block. Carries the stale refutation fingerprint, if any.
    Mine(Option<u128>),
}

/// Counters for one engine instance. Snapshot-diffed around each width so
/// callers can attribute work to spans and global metrics.
#[derive(Default)]
struct EngineStats {
    blocks_solved: AtomicU64,
    memo_hits: AtomicU64,
    negative_reuse: AtomicU64,
    candidates_tried: AtomicU64,
}

/// A point-in-time copy of the engine's search counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Blocks actually computed (memo fills, positive or negative).
    pub blocks_solved: u64,
    /// Memo hits, including verdicts shared between concurrent workers.
    pub memo_hits: u64,
    /// Blocks refuted by an unchanged-universe transfer from a previous
    /// width, skipping candidate expansion entirely.
    pub negative_reuse: u64,
    /// Candidate bags pulled from streams and attempted.
    pub candidates_tried: u64,
}

/// FxHash — the multiply-xor hash FxHashMap uses; `NodeSet` keys are short
/// `u64` block vectors, where this beats SipHash by a wide margin. Local
/// because this workspace takes no external crates.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = (self.hash.rotate_left(5) ^ n).wrapping_mul(FX_SEED);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;

/// Number of memo shards. Shard choice hashes the block, so concurrent
/// solves of distinct blocks almost never contend on a lock.
const MEMO_SHARDS: usize = 16;

/// Candidates attempted speculatively per batch when running parallel.
/// Batch attempts run to completion (no cancellation), so this bounds the
/// wasted work when an early candidate succeeds; the first-in-order success
/// is always the one kept.
const SPEC_BATCH: usize = 4;

/// The block-search engine. One instance persists across width levels so
/// that negative verdicts (and their universe fingerprints) carry over;
/// see [`Engine::decompose`].
pub struct Engine {
    h1: Hypergraph,
    primal: PrimalGraph,
    shards: Vec<Mutex<HashMap<NodeSet, Slot, FxBuild>>>,
    epoch: u64,
    stats: EngineStats,
}

impl Engine {
    pub fn new(h1: &Hypergraph) -> Engine {
        Engine {
            h1: h1.clone(),
            primal: PrimalGraph::of(h1),
            shards: (0..MEMO_SHARDS)
                .map(|_| Mutex::new(HashMap::default()))
                .collect(),
            epoch: 0,
            stats: EngineStats::default(),
        }
    }

    /// Runs one full decomposition search over the current candidate
    /// source. Call again (same engine, typically a widened source) to
    /// reuse negative block verdicts; positive entries are invalidated
    /// between calls so witnesses stay deterministic.
    pub fn decompose<S: CandidateSource>(&mut self, source: &S) -> Option<Hypertree> {
        self.epoch += 1;
        let this = &*self;
        let roots = this.components_within(&this.h1.nodes().clone());
        let forest = this.solve_all(&roots, source)?;
        let ht = flatten(&forest);
        debug_assert!(ht.covers_all_edges(&this.h1), "clique lemma violated: bug");
        debug_assert!(ht.is_connected(), "connectedness violated: bug");
        Some(ht)
    }

    /// Snapshot the engine's cumulative search counters.
    pub fn stats(&self) -> SearchStats {
        SearchStats {
            blocks_solved: self.stats.blocks_solved.load(Ordering::Relaxed),
            memo_hits: self.stats.memo_hits.load(Ordering::Relaxed),
            negative_reuse: self.stats.negative_reuse.load(Ordering::Relaxed),
            candidates_tried: self.stats.candidates_tried.load(Ordering::Relaxed),
        }
    }

    /// Open neighborhood of `set` in the primal graph.
    fn neighborhood(&self, set: &NodeSet) -> NodeSet {
        let mut out = NodeSet::new();
        for x in set.iter() {
            out.union_with(self.primal.neighbours(x));
        }
        out.difference_with(set);
        out
    }

    /// Connected components of the primal graph induced on `nodes`,
    /// ascending by smallest node. This sits on the innermost loop of the
    /// search (once per candidate attempt), so the BFS works a whole
    /// frontier *set* per round through two reused buffers instead of
    /// allocating per visited vertex.
    fn components_within(&self, nodes: &NodeSet) -> Vec<NodeSet> {
        let mut remaining = nodes.clone();
        let mut out = Vec::new();
        let mut frontier = NodeSet::new();
        let mut next = NodeSet::new();
        while let Some(start) = remaining.first() {
            let mut comp = NodeSet::singleton(start);
            remaining.remove(start);
            frontier.copy_from(&comp);
            while !frontier.is_empty() {
                next.clear();
                for v in frontier.iter() {
                    next.union_with(self.primal.neighbours(v));
                }
                next.intersect_with(&remaining);
                remaining.difference_with(&next);
                comp.union_with(&next);
                std::mem::swap(&mut frontier, &mut next);
            }
            out.push(comp);
        }
        out
    }

    fn shard_of(&self, comp: &NodeSet) -> &Mutex<HashMap<NodeSet, Slot, FxBuild>> {
        let mut h = FxHasher::default();
        comp.hash(&mut h);
        &self.shards[(h.finish() as usize) % MEMO_SHARDS]
    }

    /// Memo-claim the block: hit, wait for its in-flight owner, or own it.
    fn claim(&self, comp: &NodeSet) -> Claim {
        let mut map = self.shard_of(comp).lock().unwrap();
        let prior = match map.get(comp) {
            Some(Slot::Solved { epoch, tree }) if *epoch == self.epoch => {
                return Claim::Hit(Some(tree.clone()));
            }
            Some(Slot::Refuted { epoch, .. }) if *epoch == self.epoch => {
                return Claim::Hit(None);
            }
            Some(Slot::InFlight { epoch }) if *epoch == self.epoch => return Claim::Busy,
            Some(Slot::Refuted { universe_hash, .. }) => *universe_hash,
            _ => None,
        };
        map.insert(comp.clone(), Slot::InFlight { epoch: self.epoch });
        Claim::Mine(prior)
    }

    fn finish(&self, comp: &NodeSet, result: Option<Arc<BagNode>>, universe_hash: Option<u128>) {
        self.stats.blocks_solved.fetch_add(1, Ordering::Relaxed);
        let slot = match result {
            Some(tree) => Slot::Solved {
                epoch: self.epoch,
                tree,
            },
            None => Slot::Refuted {
                epoch: self.epoch,
                universe_hash,
            },
        };
        let mut map = self.shard_of(comp).lock().unwrap();
        // First write wins: if a racing duplicate computation already
        // published a verdict (it is the same value — `solve` is pure),
        // keep it.
        match map.get(comp) {
            Some(Slot::Solved { epoch, .. }) | Some(Slot::Refuted { epoch, .. })
                if *epoch == self.epoch => {}
            _ => {
                map.insert(comp.clone(), slot);
            }
        }
    }

    /// Decides decomposability of the block `(comp, N(comp))`.
    fn solve<S: CandidateSource>(&self, comp: &NodeSet, source: &S) -> Option<Arc<BagNode>> {
        let mut spins = 0u32;
        let prior = loop {
            match self.claim(comp) {
                Claim::Hit(r) => {
                    self.stats.memo_hits.fetch_add(1, Ordering::Relaxed);
                    return r;
                }
                // Another worker is solving this exact block. Spin briefly
                // — it usually publishes its verdict within microseconds,
                // and sharing it avoids re-refuting the block. The spin
                // must be bounded: the pool's help-while-waiting stealing
                // can park the *owner* underneath a task that waits on its
                // block, so an unbounded wait would livelock. Past the
                // bound, compute the block independently — `solve` is a
                // pure function of the block, so the duplicate arrives at
                // the identical verdict and the first write wins.
                Claim::Busy => {
                    if spins < 256 {
                        spins += 1;
                        std::thread::yield_now();
                    } else {
                        break None;
                    }
                }
                Claim::Mine(prior) => break prior,
            }
        };
        let conn = self.neighborhood(comp);
        let opened = source.open(&conn, comp);
        let universe_hash = opened.universe_hash;
        if let (Some(h), Some(p)) = (universe_hash, prior) {
            if h == p {
                // Refuted at a previous width over the identical candidate
                // universe: the whole subtree search would replay verbatim.
                self.stats.negative_reuse.fetch_add(1, Ordering::Relaxed);
                self.finish(comp, None, universe_hash);
                return None;
            }
        }
        let result = self.search_block(comp, &conn, opened.stream, source);
        self.finish(comp, result.clone(), universe_hash);
        result
    }

    /// Pulls candidates (speculatively batched when parallel) until one
    /// decomposes the block or the stream runs dry.
    fn search_block<S: CandidateSource>(
        &self,
        comp: &NodeSet,
        conn: &NodeSet,
        stream: Box<dyn Iterator<Item = Candidate> + Send + '_>,
        source: &S,
    ) -> Option<Arc<BagNode>> {
        let allowed = conn.union(comp);
        let mut stream = stream.filter(|(bag, _)| {
            conn.is_subset(bag) && bag.is_subset(&allowed) && bag.intersects(comp)
        });
        let batch_n = if cqcount_exec::current_threads() == 1 {
            1
        } else {
            SPEC_BATCH
        };
        loop {
            let batch: Vec<Candidate> = stream.by_ref().take(batch_n).collect();
            if batch.is_empty() {
                return None;
            }
            self.stats
                .candidates_tried
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            let attempts = cqcount_exec::par_map(&batch, |(bag, lambda)| {
                self.attempt(comp, bag, lambda, source)
            });
            // First-in-candidate-order success wins, same as sequential.
            if let Some(tree) = attempts.into_iter().flatten().next() {
                return Some(tree);
            }
        }
    }

    /// Tries one candidate bag: all components of `comp \ bag` must solve.
    fn attempt<S: CandidateSource>(
        &self,
        comp: &NodeSet,
        bag: &NodeSet,
        lambda: &[usize],
        source: &S,
    ) -> Option<Arc<BagNode>> {
        let rest = comp.difference(bag);
        let subs = self.components_within(&rest);
        let children = self.solve_all(&subs, source)?;
        Some(Arc::new(BagNode {
            bag: bag.clone(),
            lambda: lambda.to_vec(),
            children,
        }))
    }

    /// Solves sibling blocks, fanning them over the pool when parallel;
    /// `None` as soon as any block is undecomposable.
    fn solve_all<S: CandidateSource>(
        &self,
        comps: &[NodeSet],
        source: &S,
    ) -> Option<Vec<Arc<BagNode>>> {
        if comps.len() <= 1 || cqcount_exec::current_threads() == 1 {
            // Sequential reference path: short-circuit on the first failure.
            let mut out = Vec::with_capacity(comps.len());
            for sub in comps {
                out.push(self.solve(sub, source)?);
            }
            return Some(out);
        }
        cqcount_exec::par_map(comps, |sub| self.solve(sub, source))
            .into_iter()
            .collect()
    }
}

fn flatten(forest: &[Arc<BagNode>]) -> Hypertree {
    let mut chi = Vec::new();
    let mut lambda = Vec::new();
    let mut parent = Vec::new();
    let mut stack: Vec<(&BagNode, Option<usize>)> =
        forest.iter().map(|t| (t.as_ref(), None)).collect();
    while let Some((node, par)) = stack.pop() {
        let idx = chi.len();
        chi.push(node.bag.clone());
        lambda.push(node.lambda.clone());
        parent.push(par);
        for c in &node.children {
            stack.push((c.as_ref(), Some(idx)));
        }
    }
    Hypertree::from_parts(chi, lambda, parent)
}

/// Adapts a candidate closure to [`CandidateSource`]. The closure is
/// shared across workers and called concurrently; no lock is held around
/// it, so a provider may itself fan out over the pool.
struct ClosureSource<F>(F);

impl<F> CandidateSource for ClosureSource<F>
where
    F: Fn(&NodeSet, &NodeSet) -> Vec<Candidate> + Sync,
{
    fn open<'a>(&'a self, conn: &NodeSet, comp: &NodeSet) -> BlockCandidates<'a> {
        let cands = (self.0)(conn, comp);
        BlockCandidates {
            universe_hash: None,
            stream: Box::new(cands.into_iter()),
        }
    }
}

/// Searches for a tree projection / constrained tree decomposition of `h1`
/// with bags drawn from `candidates(conn, comp)`.
///
/// The candidate closure receives the connector `conn` (which the bag must
/// contain) and the current component `comp` (the bag must stay within
/// `conn ∪ comp` and intersect `comp`); it may return candidates violating
/// these side conditions — they are filtered — but returning fewer saves
/// work. The closure is called concurrently from the pool's workers; a
/// provider with a cache keeps it behind its own lock, held only for one
/// lookup or insert. Returns a [`Hypertree`] whose `λ` holds the candidate
/// payloads, or `None` if no decomposition exists.
pub fn decompose<F>(h1: &Hypergraph, candidates: F) -> Option<Hypertree>
where
    F: Fn(&NodeSet, &NodeSet) -> Vec<Candidate> + Sync,
{
    Engine::new(h1).decompose(&ClosureSource(candidates))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(edges: &[&[u32]]) -> Hypergraph {
        Hypergraph::from_edges(edges.iter().map(|e| e.iter().copied()))
    }

    /// Candidate provider: all subsets of the given resource edges that
    /// contain `conn` (the generic "tree projection w.r.t. H2" provider).
    fn subsets_of(resources: Vec<NodeSet>) -> impl Fn(&NodeSet, &NodeSet) -> Vec<Candidate> + Sync {
        move |conn, comp| {
            let allowed = conn.union(comp);
            let mut out = Vec::new();
            for (i, r) in resources.iter().enumerate() {
                let avail = r.intersection(&allowed);
                if !conn.is_subset(&avail) {
                    continue;
                }
                // enumerate conn ∪ X for X ⊆ (avail ∩ comp), X ≠ ∅
                let free: Vec<u32> = avail.intersection(comp).to_vec();
                for mask in 1u32..(1 << free.len()) {
                    let mut bag = conn.clone();
                    for (j, &x) in free.iter().enumerate() {
                        if mask & (1 << j) != 0 {
                            bag.insert(x);
                        }
                    }
                    out.push((bag, vec![i]));
                }
            }
            out
        }
    }

    #[test]
    fn acyclic_hypergraph_projects_onto_itself() {
        let g = h(&[&[0, 1], &[1, 2], &[2, 3]]);
        let ht = decompose(&g, subsets_of(g.edges().to_vec())).unwrap();
        assert!(ht.verify_ghd(&g, g.edges()));
    }

    #[test]
    fn cycle_needs_bigger_resources() {
        // 4-cycle: no tree projection onto its own edges…
        let g = h(&[&[0, 1], &[1, 2], &[2, 3], &[3, 0]]);
        assert!(decompose(&g, subsets_of(g.edges().to_vec())).is_none());
        // …but adding pairwise unions (width 2) suffices.
        let mut resources = g.edges().to_vec();
        for i in 0..4 {
            for j in i + 1..4 {
                resources.push(g.edges()[i].union(&g.edges()[j]));
            }
        }
        let ht = decompose(&g, subsets_of(resources.clone())).unwrap();
        assert!(ht.covers_all_edges(&g));
        assert!(ht.is_connected());
        assert!(ht.bags_acyclic());
    }

    #[test]
    fn triangle_with_big_edge() {
        let g = h(&[&[0, 1], &[1, 2], &[0, 2]]);
        // resource {0,1,2} covers the whole triangle
        let resources: Vec<NodeSet> = vec![[0, 1, 2].into()];
        let ht = decompose(&g, subsets_of(resources)).unwrap();
        assert!(ht.covers_all_edges(&g));
    }

    #[test]
    fn disconnected_components() {
        let g = h(&[&[0, 1], &[5, 6]]);
        let ht = decompose(&g, subsets_of(g.edges().to_vec())).unwrap();
        assert_eq!(ht.roots.len(), 2);
        assert!(ht.verify_ghd(&g, g.edges()));
    }

    #[test]
    fn infeasible_when_an_edge_is_uncoverable() {
        let g = h(&[&[0, 1, 2]]);
        let resources: Vec<NodeSet> = vec![[0, 1].into(), [1, 2].into()];
        assert!(decompose(&g, subsets_of(resources)).is_none());
    }

    #[test]
    fn q0_example_3_5_views() {
        // Figure 7(d): views over {A,B,I}, {B,E}, {B,C,D}, {D,F,H},
        // {D,G,H} … we use the view set V0 of Example 3.5 — check the core
        // hypergraph H_{Q0'} has a tree projection w.r.t. it (Figure 7(c)).
        // Q0' (core): mw{A,B,I}, wt{B,D}, wi{B,E}, pt{C,D}, st{D,F},
        // rr{F,H}, rr{D,H}; A=0,B=1,C=2,D=3,E=4,F=5,H=7,I=8.
        let q0_core = h(&[
            &[0, 1, 8],
            &[1, 3],
            &[1, 4],
            &[2, 3],
            &[3, 5],
            &[5, 7],
            &[3, 7],
        ]);
        let views: Vec<NodeSet> = vec![
            [0, 1, 8].into(),
            [1, 4].into(),
            [1, 2, 3].into(),
            [3, 5, 7].into(),
        ];
        let ht = decompose(&q0_core, subsets_of(views.clone())).unwrap();
        assert!(ht.verify_ghd(&q0_core, &views));
    }

    #[test]
    fn memoization_handles_repeated_blocks() {
        // A long path reuses many identical sub-blocks when resources allow
        // multiple decompositions; this is a smoke test that it stays fast.
        let edges: Vec<Vec<u32>> = (0..16u32).map(|i| vec![i, i + 1]).collect();
        let g = Hypergraph::from_edges(edges);
        let ht = decompose(&g, subsets_of(g.edges().to_vec())).unwrap();
        assert!(ht.verify_ghd(&g, g.edges()));
    }

    #[test]
    fn parallel_engine_matches_sequential_witness() {
        // The same search at 1 and many threads must produce the *same*
        // hypertree, bag for bag — determinism is part of the engine's
        // contract, not a best-effort property.
        let g = h(&[
            &[0, 1],
            &[1, 2],
            &[2, 3],
            &[3, 0],
            &[1, 3],
            &[2, 4],
            &[4, 5],
        ]);
        let mut resources = g.edges().to_vec();
        for i in 0..g.edges().len() {
            for j in i + 1..g.edges().len() {
                resources.push(g.edges()[i].union(&g.edges()[j]));
            }
        }
        let seq =
            cqcount_exec::with_threads(1, || decompose(&g, subsets_of(resources.clone())).unwrap());
        let par =
            cqcount_exec::with_threads(8, || decompose(&g, subsets_of(resources.clone())).unwrap());
        assert_eq!(seq.chi, par.chi);
        assert_eq!(seq.lambda, par.lambda);
    }

    #[test]
    fn engine_reuses_negative_verdicts_across_calls() {
        // A source whose fingerprint says "unchanged": the second search
        // must refute every block via transfer, never touching the stream.
        struct Fixed {
            cands: Vec<Candidate>,
        }
        impl CandidateSource for Fixed {
            fn open<'a>(&'a self, _conn: &NodeSet, _comp: &NodeSet) -> BlockCandidates<'a> {
                BlockCandidates {
                    universe_hash: Some(7),
                    stream: Box::new(self.cands.iter().cloned()),
                }
            }
        }
        let g = h(&[&[0, 1], &[1, 2], &[2, 3], &[3, 0]]);
        let src = Fixed { cands: Vec::new() };
        let mut engine = Engine::new(&g);
        assert!(engine.decompose(&src).is_none());
        let first = engine.stats();
        assert!(first.blocks_solved >= 1);
        assert_eq!(first.negative_reuse, 0);
        assert!(engine.decompose(&src).is_none());
        let second = engine.stats();
        assert!(
            second.negative_reuse >= 1,
            "second sweep must transfer the refutation: {second:?}"
        );
    }
}
