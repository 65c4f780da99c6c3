//! The profile graph (Algorithm 1, line 1).
//!
//! Nodes are PM usage profiles; an edge `A → B` means "profile `A` becomes
//! profile `B` by accommodating one VM from the VM-type set" (in any
//! permutation of the VM's anti-collocated demands). The graph is built by
//! breadth-first search from the empty profile, so it contains exactly the
//! profiles reachable by some placement sequence — every state a PM managed
//! by PageRankVM can be in.
//!
//! The graph is a DAG: every edge strictly increases total usage (VM demands
//! are positive), which `bpru` exploits for a linear-time reverse-topological
//! sweep.
//!
//! # Representation (DESIGN.md §15)
//!
//! Profiles are hash-consed into a [`ProfileInterner`] whose dense
//! [`ProfileId`]s *are* the node ids, and adjacency is CSR-first: a flat
//! `u32` successor array plus offsets, with no intermediate map. Besides
//! the deduplicated successor CSR the graph keeps the **expansion cache**
//! — per `(node, VM type)`, the outcome ids of `place` in enumeration
//! order. That cache is what [`ProfileGraph::extend`] replays to rebuild
//! the graph for a grown catalog without re-running the `place`
//! combinatorics for unchanged (profile, VM-type) pairs.
//!
//! # One engine per node set
//!
//! The paper rebuilds the graph "only when the VM-type set changes", so a
//! cold build is a catalog delta applied to an empty catalog. Each node
//! set therefore has exactly one construction body, and the cold build is
//! its no-base case:
//!
//! * **Reachable graphs** — [`ProfileGraph::build`] is the replay BFS of
//!   [`ProfileGraph::extend`] with no base graph: no cached groups, every
//!   frontier node expanded by `place`, and the identity fast path never
//!   latched. An extended graph is bit-for-bit identical to a fresh build
//!   over the merged catalog because both *are* the same replay.
//! * **Full-space graphs** — [`ProfileGraph::build_full`] enumerates the
//!   space and runs the delta expansion over zero old VM types.

use crate::intern::{ProfileId, ProfileInterner};
use crate::profile::{Profile, ProfileSpace, ProfileVm};
use prvm_model::units::convert;
use prvm_obs::Span;
use prvm_par::Pool;
use std::error::Error;
use std::fmt;

/// Node handle inside a [`ProfileGraph`].
pub type NodeId = u32;

/// Widen a node id to a vector index — the single audited `NodeId → usize`
/// conversion site. Lossless: `NodeId` is `u32` and every supported target
/// has at least 32-bit pointers, so the fallback is unreachable.
#[inline]
pub(crate) fn ix(id: NodeId) -> usize {
    usize::try_from(id).unwrap_or(usize::MAX)
}

/// Narrow a node index to a `NodeId` — the single audited `usize → NodeId`
/// conversion site. Builders bound the node count by both
/// [`GraphLimits::max_nodes`] and `u32::MAX` before minting ids, so the
/// saturating fallback is unreachable.
#[inline]
pub(crate) fn nid(i: usize) -> NodeId {
    NodeId::try_from(i).unwrap_or(NodeId::MAX)
}

/// Sentinel in the old↔new id maps maintained by [`ProfileGraph::extend`].
const UNMAPPED: NodeId = NodeId::MAX;

/// Construction limits guarding against a quantization that explodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphLimits {
    /// Refuse to grow past this many nodes.
    pub max_nodes: usize,
}

impl Default for GraphLimits {
    fn default() -> Self {
        Self {
            max_nodes: 2_000_000,
        }
    }
}

/// Failure to build a profile graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The reachable profile space exceeds [`GraphLimits::max_nodes`];
    /// choose a coarser [`prvm_model::Quantizer`].
    TooLarge {
        /// The configured bound that was hit.
        max_nodes: usize,
    },
    /// No VM type fits the empty profile — the graph would be a single
    /// node and every rank degenerate.
    NoUsableVmTypes,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooLarge { max_nodes } => write!(
                f,
                "profile graph exceeds {max_nodes} nodes; use a coarser quantizer"
            ),
            Self::NoUsableVmTypes => write!(f, "no VM type fits the empty profile"),
        }
    }
}

impl Error for GraphError {}

/// The single node-budget check: a graph of `nodes` nodes (`None` when
/// counting it overflowed) must fit [`GraphLimits::max_nodes`] and leave
/// `NodeId::MAX` free as the [`UNMAPPED`] sentinel.
fn check_budget(nodes: Option<usize>, limits: GraphLimits) -> Result<(), GraphError> {
    match nodes {
        Some(n) if n <= limits.max_nodes && NodeId::try_from(n).is_ok() => Ok(()),
        _ => Err(GraphError::TooLarge {
            max_nodes: limits.max_nodes,
        }),
    }
}

/// Which node set a graph was built over. `extend` replays the same
/// construction mode so the result matches a from-scratch build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BuildMode {
    /// BFS from the empty profile ([`ProfileGraph::build`]).
    Reachable,
    /// Every canonical profile of the space ([`ProfileGraph::build_full`]).
    Full,
}

/// Owned CSR arrays of a graph, as decoded by the PVSB cache loader
/// and handed to [`ProfileGraph::from_parts`].
pub(crate) struct CsrParts {
    pub succ: Vec<NodeId>,
    pub succ_off: Vec<usize>,
    pub gsucc: Vec<NodeId>,
    pub goff: Vec<usize>,
    pub util: Vec<f64>,
    pub full: bool,
}

/// Borrowed CSR arrays for the PVSB cache writer:
/// `(succ, succ_off, gsucc, goff, util, full)`.
pub(crate) type RawParts<'a> = (
    &'a [NodeId],
    &'a [usize],
    &'a [NodeId],
    &'a [usize],
    &'a [f64],
    bool,
);

/// The expansion of one frontier node, produced on a worker: for each VM
/// type the worker had to evaluate, the flat outcome values (each
/// `dims` wide) and the per-VM outcome count.
struct Expansion {
    flat: Vec<u16>,
    counts: Vec<usize>,
}

/// CSR arrays under construction, plus the counters both engines report.
struct Csr {
    succ: Vec<NodeId>,
    succ_off: Vec<usize>,
    gsucc: Vec<NodeId>,
    goff: Vec<usize>,
    /// Successor lookups answered by an already-minted node.
    dedup_hits: usize,
    /// `(node, VM type)` groups replayed from the base graph's cache.
    cached_groups: usize,
    /// `(node, VM type)` groups computed by `place`.
    place_calls: usize,
}

impl Csr {
    /// Empty arrays; an extend reserves the base graph's group-table
    /// length up front, since the merged table is at least that long.
    fn new(base: Option<&ProfileGraph>) -> Self {
        Self {
            succ: Vec::new(),
            succ_off: vec![0],
            gsucc: Vec::with_capacity(base.map_or(0, |b| b.gsucc.len())),
            goff: vec![0],
            dedup_hits: 0,
            cached_groups: 0,
            place_calls: 0,
        }
    }

    /// Close the next node's successor row: `row` sorted and deduplicated.
    fn push_row(&mut self, row: &[NodeId]) {
        self.succ.extend_from_slice(row);
        self.succ_off.push(self.succ.len());
    }
}

/// Id-minting state of one BFS replay: the new interner plus the
/// old↔new id maps linking it to the base graph (empty without one).
struct Replay<'a> {
    base: Option<&'a ProfileGraph>,
    limits: GraphLimits,
    interner: ProfileInterner,
    old2new: Vec<NodeId>,
    new2old: Vec<NodeId>,
    /// While the old→new mapping has stayed the identity (the common
    /// case: the delta's outcomes land on profiles the base graph
    /// already numbered, in the same order), cached groups can be copied
    /// verbatim and the base's already-sorted successor rows reused — no
    /// per-entry translation. Latches off the first time a mint diverges
    /// from the base numbering; never on without a base.
    identity: bool,
}

impl Replay<'_> {
    /// The base-graph id of new node `j`, if the base graph has it.
    fn base_id(&self, j: usize) -> Option<NodeId> {
        self.new2old.get(j).copied().filter(|&old| old != UNMAPPED)
    }

    /// Mint a profile first reached through a `place` outcome. A delta
    /// edge can be the first road into a profile the base graph already
    /// knows: link the id spaces so its cached expansions replay later.
    fn mint(&mut self, vals: &[u16]) -> Result<NodeId, GraphError> {
        check_budget(self.interner.len().checked_add(1), self.limits)?;
        let new = self.interner.intern_values(vals).0.node();
        let old = self.base.and_then(|b| b.interner.get(vals));
        self.link(new, old.map(ProfileId::node));
        Ok(new)
    }

    /// Mint base node `old`, first reached through a replayed group.
    fn adopt(&mut self, base: &ProfileGraph, old: NodeId) -> Result<NodeId, GraphError> {
        check_budget(self.interner.len().checked_add(1), self.limits)?;
        let new = self
            .interner
            .intern_values(base.profile(old).values())
            .0
            .node();
        self.link(new, Some(old));
        Ok(new)
    }

    /// Record that new node `new` is base node `old`, or no base node.
    fn link(&mut self, new: NodeId, old: Option<NodeId>) {
        if self.base.is_none() {
            // A cold build keeps no id maps: `base_id` is always `None`.
            return;
        }
        match old {
            Some(old) => {
                self.identity &= old == new;
                if let Some(slot) = self.old2new.get_mut(ix(old)) {
                    *slot = new;
                }
                self.new2old.push(old);
            }
            None => {
                self.identity = false;
                self.new2old.push(UNMAPPED);
            }
        }
    }
}

/// The profile graph for one PM type and one VM-type set.
#[derive(Debug, Clone)]
pub struct ProfileGraph {
    space: ProfileSpace,
    vm_types: Vec<ProfileVm>,
    interner: ProfileInterner,
    /// CSR adjacency: successors of node `i` are
    /// `succ[succ_off[i]..succ_off[i+1]]`, sorted and deduplicated.
    succ: Vec<NodeId>,
    succ_off: Vec<usize>,
    /// Expansion cache: outcomes of `place(profile(i), vm_types[v])` in
    /// enumeration order, at `gsucc[goff[i*V + v]..goff[i*V + v + 1]]`.
    gsucc: Vec<NodeId>,
    goff: Vec<usize>,
    util: Vec<f64>,
    mode: BuildMode,
}

impl ProfileGraph {
    /// Build the graph over **every** canonical profile of the space (not
    /// just those reachable from empty). This is the space of the paper's
    /// motivation section, which reasons about arbitrary profiles such as
    /// `[4,3,3,3]` that no sequence of in-catalog VMs produces. Placement
    /// only ever needs the reachable graph ([`Self::build`]), which is
    /// smaller.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::build`]; the space's size is checked
    /// against the limit before any profile is enumerated.
    pub fn build_full(
        space: ProfileSpace,
        vm_types: Vec<ProfileVm>,
        limits: GraphLimits,
    ) -> Result<Self, GraphError> {
        Self::build_full_with_pool(space, vm_types, limits, Pool::global())
    }

    /// [`Self::build_full`] on an explicit worker [`Pool`]: the full-space
    /// delta expansion over zero old VM types. The result is bit-for-bit
    /// identical at any pool width (DESIGN.md §10): successor sets are
    /// computed in parallel per node and merged in node-index order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::build_full`].
    pub fn build_full_with_pool(
        space: ProfileSpace,
        vm_types: Vec<ProfileVm>,
        limits: GraphLimits,
        pool: Pool,
    ) -> Result<Self, GraphError> {
        let _span = Span::enter("graph_build");
        let vm_types = usable_catalog(&space, vm_types)?;
        let interner = enumerate_full_space(&space, limits)?;
        Ok(Self::expand_full(space, vm_types, interner, None, &pool))
    }

    /// Build the graph by BFS from the empty profile.
    ///
    /// VM types that cannot fit even an empty PM are ignored (they would
    /// contribute no edges). Expansion runs on the global worker
    /// [`Pool`]; see [`Self::build_with_pool`] for the determinism
    /// contract.
    ///
    /// ```
    /// use pagerankvm::{GraphLimits, ProfileGraph, ProfileSpace, ProfileVm};
    ///
    /// // The paper's running example: a [4,4,4,4] PM hosting VM shapes
    /// // [1,1] and [1,1,1,1].
    /// let graph = ProfileGraph::build(
    ///     ProfileSpace::uniform(4, 4),
    ///     vec![
    ///         ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]),
    ///         ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]),
    ///     ],
    ///     GraphLimits::default(),
    /// )?;
    /// // Node 0 is the empty profile; the fully-packed best profile is
    /// // reachable and hosts nothing more.
    /// let best = graph.node(&graph.space().best_profile()).unwrap();
    /// assert!(graph.is_endpoint(best));
    /// # Ok::<(), pagerankvm::GraphError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`GraphError::TooLarge`] if the reachable space exceeds the limit;
    /// [`GraphError::NoUsableVmTypes`] if no VM type fits an empty PM.
    pub fn build(
        space: ProfileSpace,
        vm_types: Vec<ProfileVm>,
        limits: GraphLimits,
    ) -> Result<Self, GraphError> {
        Self::build_with_pool(space, vm_types, limits, Pool::global())
    }

    /// [`Self::build`] on an explicit worker [`Pool`]: the replay BFS of
    /// [`Self::extend_with_pool`] with no base graph, so every frontier
    /// node is expanded by `place`.
    ///
    /// The BFS is level-synchronous: each frontier's successor profiles
    /// are enumerated in parallel (the `place` combinatorics dominate
    /// the cost), then merged **sequentially in frontier order**, which
    /// mints node ids in exactly the order the single-threaded FIFO-queue
    /// BFS would — so the resulting graph (node numbering, CSR layout,
    /// everything) is bit-for-bit identical at any pool width
    /// (DESIGN.md §10).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::build`].
    pub fn build_with_pool(
        space: ProfileSpace,
        vm_types: Vec<ProfileVm>,
        limits: GraphLimits,
        pool: Pool,
    ) -> Result<Self, GraphError> {
        let _span = Span::enter("graph_build");
        let vm_types = usable_catalog(&space, vm_types)?;
        Self::replay(space, vm_types, None, limits, &pool)
    }

    /// Rebuild this graph for a catalog grown by `delta` VM types, on
    /// the global worker [`Pool`] — see [`Self::extend_with_pool`].
    ///
    /// ```
    /// use pagerankvm::{GraphLimits, ProfileGraph, ProfileSpace, ProfileVm};
    ///
    /// let space = ProfileSpace::uniform(4, 4);
    /// let base = ProfileGraph::build(
    ///     space.clone(),
    ///     vec![ProfileVm::from_demands("[1,1]", vec![vec![1, 1]])],
    ///     GraphLimits::default(),
    /// )?;
    /// let delta = vec![ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]])];
    ///
    /// // The extended graph is bit-identical to a from-scratch build
    /// // over the merged catalog — same nodes, same numbering, same CSR.
    /// let extended = base.extend(delta.clone(), GraphLimits::default())?;
    /// let scratch = ProfileGraph::build(
    ///     space,
    ///     base.vm_types().iter().cloned().chain(delta).collect(),
    ///     GraphLimits::default(),
    /// )?;
    /// assert_eq!(extended.node_count(), scratch.node_count());
    /// assert!(extended
    ///     .node_ids()
    ///     .all(|id| extended.successors(id) == scratch.successors(id)
    ///         && extended.profile(id) == scratch.profile(id)));
    /// # Ok::<(), pagerankvm::GraphError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::build`] over the merged catalog.
    pub fn extend(&self, delta: Vec<ProfileVm>, limits: GraphLimits) -> Result<Self, GraphError> {
        self.extend_with_pool(delta, limits, Pool::global())
    }

    /// [`Self::extend`] on an explicit worker [`Pool`].
    ///
    /// Runs the same construction as a cold build of `self.vm_types() ++
    /// delta`, with this graph as the base: for `(node, VM type)` pairs
    /// already present here the expansion cache answers instead of
    /// `place` — only profiles first reached through a delta edge, plus
    /// every node's delta-VM expansions, pay the enumeration
    /// combinatorics. Ids are minted in from-scratch discovery order, so
    /// the result is bit-for-bit identical to [`Self::build`] over the
    /// merged catalog, at any pool width. A full-space graph keeps its
    /// node set and only expands the delta VMs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::build`] over the merged catalog.
    pub fn extend_with_pool(
        &self,
        delta: Vec<ProfileVm>,
        limits: GraphLimits,
        pool: Pool,
    ) -> Result<Self, GraphError> {
        let _span = Span::enter("graph_extend");
        let delta = usable(&self.space, delta);
        if delta.is_empty() {
            // Nothing usable changed: the merged catalog equals ours, and
            // a replay would reproduce this graph field for field.
            return Ok(self.clone());
        }
        let vm_types = self.vm_types.iter().cloned().chain(delta).collect();
        let space = self.space.clone();
        match self.mode {
            BuildMode::Full => Ok(Self::expand_full(
                space,
                vm_types,
                self.interner.clone(),
                Some(self),
                &pool,
            )),
            BuildMode::Reachable => Self::replay(space, vm_types, Some(self), limits, &pool),
        }
    }

    /// The reachable-graph engine: a level-synchronous BFS over
    /// `vm_types` (the base's types first) that answers old `(node, VM)`
    /// expansions from `base`'s cache and everything else with `place`.
    fn replay(
        space: ProfileSpace,
        vm_types: Vec<ProfileVm>,
        base: Option<&Self>,
        limits: GraphLimits,
        pool: &Pool,
    ) -> Result<Self, GraphError> {
        let dims = space.dims();
        let old_v = base.map_or(0, |b| b.vm_types.len());
        let delta_vms = vm_types.get(old_v..).unwrap_or_default();
        let old_n = base.map_or(0, Self::node_count);
        let mut st = Replay {
            base,
            limits,
            interner: ProfileInterner::with_capacity(old_n),
            old2new: vec![UNMAPPED; old_n],
            new2old: Vec::with_capacity(old_n),
            identity: base.is_some(),
        };
        st.mint(space.empty_profile().values())?;
        let mut csr = Csr::new(base);
        let mut row: Vec<NodeId> = Vec::new();

        // Every edge strictly increases total usage, so nodes discovered
        // while merging frontier node `j` sort after everything
        // discovered from frontier nodes `< j`: processing frontiers in
        // insertion order visits the same nodes in the same order as a
        // plain FIFO queue, and each node is fully expanded exactly once.
        let mut level_start = 0usize;
        while level_start < st.interner.len() {
            // Expand the whole frontier in parallel. Workers evaluate
            // `place` only where the cache cannot answer: delta VMs on
            // base nodes, every VM elsewhere. Sub-span per level: the
            // parallel part of the build; its chunks land on worker lanes
            // when tracing.
            let frontier = level_start..st.interner.len();
            let expansions: Vec<Expansion> = {
                let _expand = Span::enter("expand");
                pool.map_index(frontier.len(), |k| {
                    let j = level_start + k;
                    let vms = if st.base_id(j).is_some() {
                        delta_vms
                    } else {
                        vm_types.as_slice()
                    };
                    expand_node(&space, st.interner.resolve(ProfileId(nid(j))), vms, dims)
                })
            };
            level_start = frontier.end;
            // Sub-span per level: the sequential id-minting merge. The
            // expand/stitch split is what makes the speedup story
            // diagnosable in a trace (parallel compute vs serial merge).
            let _stitch = Span::enter("stitch");
            for (j, exp) in frontier.zip(expansions) {
                let cached = st.base_id(j).zip(base);
                let fast = st.identity && cached.is_some();
                row.clear();
                if let (true, Some((old, b))) = (fast, cached) {
                    // Under the identity mapping the base's successor row
                    // is already the sorted, deduped union of every
                    // cached group — seed `row` with it; delta outcomes
                    // are appended below and the final sort restores
                    // order.
                    row.extend_from_slice(b.successors(old));
                }
                let mut outcomes = exp.flat.chunks_exact(dims);
                let mut counts = exp.counts.into_iter();
                for v in 0..vm_types.len() {
                    match cached {
                        Some((old, b)) if v < old_v => {
                            // Replay the cached expansion: same outcomes
                            // in the same enumeration order `place` gives.
                            csr.cached_groups += 1;
                            let group = b.vm_successors(old, v);
                            if fast {
                                // Ids a replayed group mints appear in
                                // first-appearance order, which under the
                                // identity mapping IS numeric order — mint
                                // `len..=max` straight from the base and
                                // copy the group verbatim.
                                if let Some(&max) = group.iter().max() {
                                    while st.interner.len() <= ix(max) {
                                        st.adopt(b, nid(st.interner.len()))?;
                                    }
                                }
                                csr.dedup_hits += group.len();
                                csr.gsucc.extend_from_slice(group);
                            } else {
                                for &old_s in group {
                                    let id = match st.old2new.get(ix(old_s)) {
                                        Some(&id) if id != UNMAPPED => {
                                            csr.dedup_hits += 1;
                                            id
                                        }
                                        _ => st.adopt(b, old_s)?,
                                    };
                                    csr.gsucc.push(id);
                                    row.push(id);
                                }
                            }
                        }
                        _ => {
                            csr.place_calls += 1;
                            for vals in outcomes.by_ref().take(counts.next().unwrap_or(0)) {
                                let id = match st.interner.get(vals) {
                                    Some(pid) => {
                                        csr.dedup_hits += 1;
                                        pid.node()
                                    }
                                    None => st.mint(vals)?,
                                };
                                csr.gsucc.push(id);
                                row.push(id);
                            }
                        }
                    }
                    csr.goff.push(csr.gsucc.len());
                }
                row.sort_unstable();
                row.dedup();
                csr.push_row(&row);
            }
        }
        Ok(Self::finish(
            space,
            vm_types,
            st.interner,
            csr,
            BuildMode::Reachable,
            base,
        ))
    }

    /// The full-space engine: the node set (every canonical profile) does
    /// not depend on the catalog, so the numbering is final up front and
    /// only the VM types past `base`'s are expanded — all of them for a
    /// cold build. Every node is known in advance, so the `place`
    /// combinatorics and each row's sort are embarrassingly parallel; the
    /// merge appends per-node rows in node-index order, so the CSR is
    /// identical at any width.
    fn expand_full(
        space: ProfileSpace,
        vm_types: Vec<ProfileVm>,
        interner: ProfileInterner,
        base: Option<&Self>,
        pool: &Pool,
    ) -> Self {
        let dims = space.dims();
        let old_v = base.map_or(0, |b| b.vm_types.len());
        let delta_vms = vm_types.get(old_v..).unwrap_or_default();
        let rows: Vec<(Vec<NodeId>, Vec<usize>, Vec<NodeId>)> =
            pool.map_index(interner.len(), |i| {
                let id = nid(i);
                let mut ids: Vec<NodeId> = Vec::new();
                let mut counts: Vec<usize> = Vec::with_capacity(vm_types.len());
                if let Some(b) = base {
                    for v in 0..old_v {
                        let group = b.vm_successors(id, v);
                        ids.extend_from_slice(group);
                        counts.push(group.len());
                    }
                }
                let exp = expand_node(&space, interner.resolve(ProfileId(id)), delta_vms, dims);
                for vals in exp.flat.chunks_exact(dims) {
                    // Every canonical profile was enumerated up front and
                    // `place` yields canonical outputs, so the lookup hits.
                    let hit = interner.get(vals);
                    debug_assert!(hit.is_some(), "successor profile missing from full index");
                    ids.extend(hit.map(ProfileId::node));
                }
                counts.extend(exp.counts);
                let mut row = ids.clone();
                row.sort_unstable();
                row.dedup();
                (ids, counts, row)
            });

        let mut csr = Csr::new(base);
        for (ids, counts, row) in rows {
            let mut end = csr.gsucc.len();
            csr.gsucc.extend_from_slice(&ids);
            for count in counts {
                end += count;
                csr.goff.push(end);
            }
            csr.push_row(&row);
        }
        // Every computed outcome was a lookup of an enumerated node.
        csr.dedup_hits = csr
            .gsucc
            .len()
            .saturating_sub(base.map_or(0, |b| b.gsucc.len()));
        csr.cached_groups = interner.len() * old_v;
        csr.place_calls = interner.len() * delta_vms.len();
        Self::finish(space, vm_types, interner, csr, BuildMode::Full, base)
    }

    /// The one exit of every construction path: utilization, the
    /// `graph.*` counters and the built/extended event, then assembly.
    fn finish(
        space: ProfileSpace,
        vm_types: Vec<ProfileVm>,
        interner: ProfileInterner,
        csr: Csr,
        mode: BuildMode,
        base: Option<&Self>,
    ) -> Self {
        let util = interner
            .profiles()
            .iter()
            .map(|p| space.utilization(p))
            .collect();
        let nodes = interner.len();
        prvm_obs::counter!("graph.nodes", convert::usize_to_u64(nodes));
        prvm_obs::counter!("graph.edges", convert::usize_to_u64(csr.succ.len()));
        prvm_obs::counter!("graph.dedup_hits", convert::usize_to_u64(csr.dedup_hits));
        if base.is_some() {
            prvm_obs::counter!(
                "graph.extend.cached_groups",
                convert::usize_to_u64(csr.cached_groups)
            );
            prvm_obs::counter!(
                "graph.extend.place_calls",
                convert::usize_to_u64(csr.place_calls)
            );
        }
        let old_n = base.map_or(0, Self::node_count);
        prvm_obs::event(if base.is_some() {
            "graph.extended"
        } else {
            "graph.built"
        })
        .field(
            "mode",
            match mode {
                BuildMode::Reachable => "bfs",
                BuildMode::Full => "full",
            },
        )
        .field("nodes", nodes)
        .field("new_nodes", nodes.saturating_sub(old_n))
        .field("edges", csr.succ.len())
        .field("dedup_hits", csr.dedup_hits)
        .field("cached_groups", csr.cached_groups)
        .field("place_calls", csr.place_calls)
        .field("vm_types", vm_types.len())
        .emit();
        Self {
            space,
            vm_types,
            interner,
            succ: csr.succ,
            succ_off: csr.succ_off,
            gsucc: csr.gsucc,
            goff: csr.goff,
            util,
            mode,
        }
    }

    /// Reassemble a graph from serialized parts (the PVSB cache loader).
    /// The caller has validated structure (offsets monotone, ids in
    /// range); profiles are re-interned in id order.
    pub(crate) fn from_parts(
        space: ProfileSpace,
        vm_types: Vec<ProfileVm>,
        interner: ProfileInterner,
        parts: CsrParts,
    ) -> Self {
        Self {
            space,
            vm_types,
            interner,
            succ: parts.succ,
            succ_off: parts.succ_off,
            gsucc: parts.gsucc,
            goff: parts.goff,
            util: parts.util,
            mode: if parts.full {
                BuildMode::Full
            } else {
                BuildMode::Reachable
            },
        }
    }

    /// Raw parts for serialization (the PVSB cache writer):
    /// `(succ, succ_off, gsucc, goff, util, full)`.
    pub(crate) fn parts(&self) -> RawParts<'_> {
        (
            &self.succ,
            &self.succ_off,
            &self.gsucc,
            &self.goff,
            &self.util,
            self.mode == BuildMode::Full,
        )
    }

    /// The space this graph lives in.
    #[must_use]
    pub fn space(&self) -> &ProfileSpace {
        &self.space
    }

    /// The VM types that contribute edges.
    #[must_use]
    pub fn vm_types(&self) -> &[ProfileVm] {
        &self.vm_types
    }

    /// The interned profile arena backing this graph. Node ids and
    /// [`ProfileId`]s coincide: `interner().resolve(ProfileId(id))` is
    /// [`Self::profile`]`(id)`.
    #[must_use]
    pub fn interner(&self) -> &ProfileInterner {
        &self.interner
    }

    /// Number of nodes (`N` in Equ. (12)).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.interner.len()
    }

    /// Number of (deduplicated) edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.succ.len()
    }

    /// The profile of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn profile(&self, id: NodeId) -> &Profile {
        self.interner.resolve(ProfileId(id))
    }

    /// Node id of a profile, if reachable.
    #[must_use]
    pub fn node(&self, profile: &Profile) -> Option<NodeId> {
        self.interner.get(profile.values()).map(ProfileId::node)
    }

    /// Successors of a node: `S(P_i)`, the profiles derived by
    /// accommodating one more VM (Algorithm 1, line 8).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn successors(&self, id: NodeId) -> &[NodeId] {
        &self.succ[self.succ_off[ix(id)]..self.succ_off[ix(id) + 1]]
    }

    /// The cached expansion of one `(node, VM type)` pair: outcome ids
    /// of `place(profile(id), vm_types()[vm])` in enumeration order
    /// (duplicates across VM types are *not* removed here — that is
    /// [`Self::successors`]). This is the cache [`Self::extend`]
    /// replays.
    ///
    /// # Panics
    ///
    /// Panics if `id` or `vm` is out of range.
    #[must_use]
    pub fn vm_successors(&self, id: NodeId, vm: usize) -> &[NodeId] {
        let v = self.vm_types.len();
        &self.gsucc[self.goff[ix(id) * v + vm]..self.goff[ix(id) * v + vm + 1]]
    }

    /// Resource utilization of a node's profile.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn utilization(&self, id: NodeId) -> f64 {
        self.util[ix(id)]
    }

    /// `true` if the node has no successors — no VM type fits any more.
    /// These are the "endpoints" of the BPRU definition.
    #[must_use]
    pub fn is_endpoint(&self, id: NodeId) -> bool {
        self.successors(id).is_empty()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..nid(self.interner.len())
    }
}

/// Evaluate `place` for `node` against each VM in `vms`, flattening the
/// outcome values (each `dims` wide) with per-VM counts. Pure: runs on
/// workers; outcome order is `place`'s enumeration order.
fn expand_node(space: &ProfileSpace, node: &Profile, vms: &[ProfileVm], dims: usize) -> Expansion {
    let mut flat: Vec<u16> = Vec::new();
    let mut counts: Vec<usize> = Vec::with_capacity(vms.len());
    for vm in vms {
        let before = flat.len();
        space.place_into(node, vm, |vals| flat.extend_from_slice(vals));
        counts.push((flat.len() - before) / dims.max(1));
    }
    Expansion { flat, counts }
}

/// The VM types that fit an empty PM; the others would contribute no
/// edges.
fn usable(space: &ProfileSpace, vm_types: Vec<ProfileVm>) -> Vec<ProfileVm> {
    let empty = space.empty_profile();
    vm_types
        .into_iter()
        .filter(|vm| !space.place(&empty, vm).is_empty())
        .collect()
}

/// [`usable`] for a cold build, which needs at least one VM type.
fn usable_catalog(
    space: &ProfileSpace,
    vm_types: Vec<ProfileVm>,
) -> Result<Vec<ProfileVm>, GraphError> {
    let usable = usable(space, vm_types);
    if usable.is_empty() {
        return Err(GraphError::NoUsableVmTypes);
    }
    Ok(usable)
}

/// Enumerate every canonical profile of the space in lexicographic
/// (kind-by-kind, non-decreasing) order — the full-graph node set. The
/// node count, the product over kinds of C(cap + count, count), is
/// checked against the limits before anything is enumerated.
fn enumerate_full_space(
    space: &ProfileSpace,
    limits: GraphLimits,
) -> Result<ProfileInterner, GraphError> {
    let total = space.kinds().iter().try_fold(1usize, |acc, k| {
        multisets(k.cap, k.count).and_then(|m| acc.checked_mul(m))
    });
    check_budget(total, limits)?;

    // One slot per dimension: its capacity, and whether it opens a kind
    // (values restart at 0) or continues one (values never decrease).
    let slots: Vec<(u16, bool)> = space
        .kinds()
        .iter()
        .flat_map(|k| (0..k.count).map(move |i| (k.cap, i == 0)))
        .collect();
    fn rec(slots: &[(u16, bool)], floor: u16, cur: &mut Vec<u16>, out: &mut ProfileInterner) {
        let Some((&(cap, opens), rest)) = slots.split_first() else {
            out.intern_values(cur);
            return;
        };
        for v in if opens { 0 } else { floor }..=cap {
            cur.push(v);
            rec(rest, v, cur, out);
            cur.pop();
        }
    }
    let mut interner = ProfileInterner::with_capacity(total.unwrap_or(0));
    rec(
        &slots,
        0,
        &mut Vec::with_capacity(space.dims()),
        &mut interner,
    );
    Ok(interner)
}

/// Multisets of `count` values in `0..=cap`, C(cap + count, count), or
/// `None` if it (or an intermediate product) overflows `usize`.
fn multisets(cap: u16, count: usize) -> Option<usize> {
    let n = usize::from(cap).checked_add(count)?;
    // C(n, i + 1) = C(n, i) * (n - i) / (i + 1) is exact at every step.
    (0..count.min(usize::from(cap)))
        .try_fold(1usize, |acc, i| acc.checked_mul(n - i)?.checked_div(i + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running example: capacity [4,4,4,4] and VM set
    /// {[1,1], [1,1,1,1]}.
    fn paper_graph() -> ProfileGraph {
        let space = ProfileSpace::uniform(4, 4);
        let vms = vec![
            ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]),
            ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]),
        ];
        ProfileGraph::build(space, vms, GraphLimits::default()).unwrap()
    }

    fn assert_graphs_identical(a: &ProfileGraph, b: &ProfileGraph) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(
            a.vm_types().iter().map(|v| &v.name).collect::<Vec<_>>(),
            b.vm_types().iter().map(|v| &v.name).collect::<Vec<_>>()
        );
        for id in a.node_ids() {
            assert_eq!(a.profile(id), b.profile(id), "node {id}");
            assert_eq!(a.successors(id), b.successors(id), "succ {id}");
            assert_eq!(
                a.utilization(id).to_bits(),
                b.utilization(id).to_bits(),
                "util {id}"
            );
            for v in 0..a.vm_types().len() {
                assert_eq!(
                    a.vm_successors(id, v),
                    b.vm_successors(id, v),
                    "group {id}/{v}"
                );
            }
        }
    }

    #[test]
    fn paper_example_graph_structure() {
        let g = paper_graph();
        // Nodes are the multisets of {0..4}^4 reachable by sums of the two
        // VM shapes; the best profile is reachable.
        let best = g.space().best_profile();
        assert!(g.node(&best).is_some());
        // Empty profile is node 0 with successors {[1,1,0,0],[1,1,1,1]}.
        let empty = g.space().empty_profile();
        let n0 = g.node(&empty).unwrap();
        assert_eq!(n0, 0);
        let succs: Vec<&Profile> = g.successors(n0).iter().map(|&s| g.profile(s)).collect();
        assert_eq!(succs.len(), 2);
        // The best profile is an endpoint.
        assert!(g.is_endpoint(g.node(&best).unwrap()));
    }

    #[test]
    fn all_nodes_reachable_have_monotone_edges() {
        let g = paper_graph();
        for id in g.node_ids() {
            let from: u64 = g.profile(id).values().iter().map(|&v| u64::from(v)).sum();
            for &s in g.successors(id) {
                let to: u64 = g.profile(s).values().iter().map(|&v| u64::from(v)).sum();
                assert!(to > from, "edge must strictly increase usage");
            }
        }
    }

    #[test]
    fn successor_sets_are_sorted_and_deduped() {
        let g = paper_graph();
        for id in g.node_ids() {
            let s = g.successors(id);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "{s:?}");
        }
    }

    #[test]
    fn expansion_cache_concatenates_to_the_csr() {
        // The deduplicated successor set of every node must equal the
        // union of its per-VM expansion groups, and each group must be
        // exactly `place`'s output in order.
        let g = paper_graph();
        for id in g.node_ids() {
            let mut union: Vec<NodeId> = Vec::new();
            for (v, vm) in g.vm_types().iter().enumerate() {
                let group = g.vm_successors(id, v);
                let placed = g.space().place(g.profile(id), vm);
                let placed_ids: Vec<NodeId> = placed.iter().map(|p| g.node(p).unwrap()).collect();
                assert_eq!(group, placed_ids.as_slice(), "node {id} vm {v}");
                union.extend_from_slice(group);
            }
            union.sort_unstable();
            union.dedup();
            assert_eq!(g.successors(id), union.as_slice(), "node {id}");
        }
    }

    #[test]
    fn quality_example_profiles_exist() {
        // §V-A compares [4,4,2,2] and [3,3,3,3]; both must be reachable.
        let g = paper_graph();
        let s = g.space();
        assert!(g.node(&s.canonicalize(&[&[4, 4, 2, 2]])).is_some());
        assert!(g.node(&s.canonicalize(&[&[3, 3, 3, 3]])).is_some());
    }

    #[test]
    fn unusable_vm_types_are_dropped() {
        let space = ProfileSpace::uniform(2, 2);
        let vms = vec![
            ProfileVm::from_demands("fits", vec![vec![1]]),
            ProfileVm::from_demands("too-big", vec![vec![3]]),
        ];
        let g = ProfileGraph::build(space, vms, GraphLimits::default()).unwrap();
        assert_eq!(g.vm_types().len(), 1);
        assert_eq!(g.vm_types()[0].name, "fits");
    }

    #[test]
    fn empty_vm_set_is_an_error() {
        let space = ProfileSpace::uniform(2, 2);
        let vms = vec![ProfileVm::from_demands("too-big", vec![vec![3]])];
        let err = ProfileGraph::build(space, vms, GraphLimits::default()).unwrap_err();
        assert_eq!(err, GraphError::NoUsableVmTypes);
    }

    #[test]
    fn node_limit_is_enforced() {
        let space = ProfileSpace::uniform(4, 4);
        let vms = vec![ProfileVm::from_demands("[1]", vec![vec![1]])];
        let err = ProfileGraph::build(space, vms, GraphLimits { max_nodes: 5 }).unwrap_err();
        assert_eq!(err, GraphError::TooLarge { max_nodes: 5 });

        // C(28, 14) = 40,116,600 full-space nodes: rejected by counting,
        // before a single profile is enumerated.
        let space = ProfileSpace::uniform(14, 14);
        let vms = vec![ProfileVm::from_demands("[1]", vec![vec![1]])];
        let limits = GraphLimits::default();
        let err = ProfileGraph::build_full(space, vms, limits).unwrap_err();
        assert_eq!(
            err,
            GraphError::TooLarge {
                max_nodes: limits.max_nodes
            }
        );
    }

    #[test]
    fn multiset_counts_are_exact_and_overflow_checked() {
        assert_eq!(multisets(4, 4), Some(70));
        assert_eq!(multisets(2, 2), Some(6));
        assert_eq!(multisets(14, 14), Some(40_116_600));
        assert_eq!(multisets(1, 0), Some(1));
        assert_eq!(multisets(u16::MAX, usize::MAX), None);
    }

    #[test]
    fn single_unit_vm_reaches_every_multiset() {
        // With VM type [1], every multiset of {0..2}^2 is reachable:
        // C(2+2,2) = 6 nodes.
        let space = ProfileSpace::uniform(2, 2);
        let vms = vec![ProfileVm::from_demands("[1]", vec![vec![1]])];
        let g = ProfileGraph::build(space, vms, GraphLimits::default()).unwrap();
        assert_eq!(g.node_count(), 6);
        // Endpoint: only [2,2].
        let endpoints: Vec<NodeId> = g.node_ids().filter(|&n| g.is_endpoint(n)).collect();
        assert_eq!(endpoints.len(), 1);
        assert_eq!(g.profile(endpoints[0]), &g.space().best_profile());
    }

    #[test]
    fn extend_matches_scratch_build_on_paper_example() {
        let space = ProfileSpace::uniform(4, 4);
        let small = ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]);
        let big = ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]);
        let base = ProfileGraph::build(space.clone(), vec![small.clone()], GraphLimits::default())
            .unwrap();
        let extended = base
            .extend(vec![big.clone()], GraphLimits::default())
            .unwrap();
        let scratch = ProfileGraph::build(space, vec![small, big], GraphLimits::default()).unwrap();
        assert_graphs_identical(&extended, &scratch);
    }

    #[test]
    fn extend_discovers_new_nodes_via_delta_edges() {
        // Base catalog [2]: even totals only. Delta [1]: every multiset
        // becomes reachable, including odd-total profiles first reached
        // through a delta edge from an old node.
        let space = ProfileSpace::uniform(2, 2);
        let even = ProfileVm::from_demands("[2]", vec![vec![2]]);
        let unit = ProfileVm::from_demands("[1]", vec![vec![1]]);
        let base =
            ProfileGraph::build(space.clone(), vec![even.clone()], GraphLimits::default()).unwrap();
        assert!(base.node_count() < 6);
        let extended = base
            .extend(vec![unit.clone()], GraphLimits::default())
            .unwrap();
        let scratch = ProfileGraph::build(space, vec![even, unit], GraphLimits::default()).unwrap();
        assert_eq!(extended.node_count(), 6);
        assert_graphs_identical(&extended, &scratch);
    }

    #[test]
    fn extend_with_unusable_delta_is_identity() {
        let g = paper_graph();
        let e = g
            .extend(
                vec![ProfileVm::from_demands("huge", vec![vec![9]])],
                GraphLimits::default(),
            )
            .unwrap();
        assert_graphs_identical(&g, &e);
    }

    #[test]
    fn extend_full_matches_scratch_full_build() {
        let space = ProfileSpace::uniform(4, 4);
        let small = ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]);
        let big = ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]);
        let base =
            ProfileGraph::build_full(space.clone(), vec![small.clone()], GraphLimits::default())
                .unwrap();
        let extended = base
            .extend(vec![big.clone()], GraphLimits::default())
            .unwrap();
        let scratch =
            ProfileGraph::build_full(space, vec![small, big], GraphLimits::default()).unwrap();
        assert_graphs_identical(&extended, &scratch);
    }

    #[test]
    fn extend_respects_node_limit() {
        let space = ProfileSpace::uniform(4, 4);
        let pair = ProfileVm::from_demands("[2,2]", vec![vec![2, 2]]);
        let unit = ProfileVm::from_demands("[1]", vec![vec![1]]);
        let base = ProfileGraph::build(space, vec![pair], GraphLimits::default()).unwrap();
        let limit = base.node_count(); // merged graph needs far more
        let err = base
            .extend(vec![unit], GraphLimits { max_nodes: limit })
            .unwrap_err();
        assert_eq!(err, GraphError::TooLarge { max_nodes: limit });
    }
}
