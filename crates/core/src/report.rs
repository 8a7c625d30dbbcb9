//! Analysis results: reachability, value states, call-graph queries,
//! liveness, and dead-code reports.
//!
//! Two views share one query surface:
//!
//! * [`AnalysisSnapshot`] — a cheap borrowed view of a (paused)
//!   [`AnalysisSession`](crate::AnalysisSession). Every query method lives
//!   here; taking a snapshot copies five references.
//! * [`AnalysisResult`] — the owned form, produced by
//!   [`AnalysisSession::into_result`](crate::AnalysisSession::into_result)
//!   (or the [`crate::analyze`] convenience wrapper). It stores the final
//!   PVPG and delegates every query to an internal snapshot.
//!
//! [`OwnedSnapshot`] is the answer-sized form a server publishes: the
//! reachable set, instantiated types, and precomputed counts, without the
//! PVPG.
//!
//! Reachability is stored as a [`ReachableSet`] — a bitset for O(1)
//! membership plus a sorted id vector for deterministic iteration.

use crate::config::AnalysisConfig;
use crate::flow::{CallKind, FlowKind, SiteId};
use crate::graph::Pvpg;
use crate::interrupt::Completeness;
use crate::lattice::ValueState;
use crate::metrics::{compute_metrics, InterruptStats, InvalidationStats, Metrics, SchedulerStats};
use skipflow_ir::{BitSet, BlockId, MethodId, Program, TypeId};
use std::time::Duration;

/// Solver statistics.
#[derive(Clone, Debug, Default)]
pub struct SolveStats {
    /// Worklist steps executed (cumulative across session resumes).
    pub steps: u64,
    /// Of [`SolveStats::steps`], how many took the width-adaptive full-join
    /// fast path (the flow's narrow input state made a plain monotone
    /// re-join cheaper than delta bookkeeping). Always 0 when
    /// [`crate::AnalysisConfig::narrow_join_width`] is 0 and for the
    /// reference solver (whose every step is a full join by definition).
    pub full_join_steps: u64,
    /// Input-state joins that actually changed a state (propagation volume).
    pub state_joins: u64,
    /// Of [`SolveStats::state_joins`], how many skipped the delta tracking
    /// via the narrow-join fast path.
    pub narrow_joins: u64,
    /// Flows in the final PVPG (the arena only grows, so this is the peak).
    pub flows: usize,
    /// Use edges.
    pub use_edges: usize,
    /// Predicate edges.
    pub pred_edges: usize,
    /// Observe edges.
    pub obs_edges: usize,
    /// `solve()` calls that contributed to these numbers (1 for a one-shot
    /// [`crate::analyze`] run; grows as a session is resumed).
    pub solves: u64,
    /// SCC-scheduler statistics (zero under FIFO / reference).
    pub scheduler: SchedulerStats,
    /// Interrupt / resume / worker-panic counters (all zero for a session
    /// that never hit a budget, cancel token, or panicking worker).
    pub interrupt: InterruptStats,
    /// Retraction / edit invalidation counters (all zero for a session that
    /// never retracted roots or applied a method edit).
    pub invalidation: InvalidationStats,
    /// Wall-clock analysis time (cumulative across session resumes).
    pub duration: Duration,
}

/// The set of reachable methods: a bitset for O(1) membership plus the ids
/// in ascending order for deterministic iteration (the replacement for the
/// former `BTreeSet<MethodId>` representation).
///
/// Equality is set equality — two solvers that discover the same methods in
/// different orders compare equal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReachableSet {
    bits: BitSet,
    /// Ascending method ids (sorted once at construction).
    order: Vec<MethodId>,
}

impl ReachableSet {
    /// Builds the set from the engine's membership bitset and discovery
    /// order. The order is re-sorted into ascending id order so iteration is
    /// deterministic across solvers and schedulers.
    pub(crate) fn from_discovery(bits: BitSet, mut order: Vec<MethodId>) -> Self {
        order.sort_unstable();
        debug_assert_eq!(bits.len(), order.len(), "bitset and order must agree");
        ReachableSet { bits, order }
    }

    /// Number of reachable methods.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no method is reachable.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// O(1) membership test.
    pub fn contains(&self, m: MethodId) -> bool {
        self.bits.contains(m.index())
    }

    /// Iterates the methods in ascending id order.
    pub fn iter(&self) -> std::slice::Iter<'_, MethodId> {
        self.order.iter()
    }

    /// The methods as a sorted slice.
    pub fn as_slice(&self) -> &[MethodId] {
        &self.order
    }

    /// Whether every method of `self` is also in `other`.
    pub fn is_subset(&self, other: &ReachableSet) -> bool {
        self.order.iter().all(|&m| other.contains(m))
    }
}

impl<'a> IntoIterator for &'a ReachableSet {
    type Item = &'a MethodId;
    type IntoIter = std::slice::Iter<'a, MethodId>;
    fn into_iter(self) -> Self::IntoIter {
        self.order.iter()
    }
}

/// A cheap borrowed view of an analysis fixpoint: all query methods, no
/// ownership. Obtained from [`AnalysisSession::solve`](crate::AnalysisSession::solve),
/// [`AnalysisSession::snapshot`](crate::AnalysisSession::snapshot), or
/// [`AnalysisResult::snapshot`].
#[derive(Clone, Copy, Debug)]
pub struct AnalysisSnapshot<'a> {
    graph: &'a Pvpg,
    reachable: &'a ReachableSet,
    instantiated: &'a BitSet,
    config: &'a AnalysisConfig,
    stats: &'a SolveStats,
    completeness: Completeness,
}

impl<'a> AnalysisSnapshot<'a> {
    pub(crate) fn new(
        graph: &'a Pvpg,
        reachable: &'a ReachableSet,
        instantiated: &'a BitSet,
        config: &'a AnalysisConfig,
        stats: &'a SolveStats,
        completeness: Completeness,
    ) -> Self {
        AnalysisSnapshot {
            graph,
            reachable,
            instantiated,
            config,
            stats,
            completeness,
        }
    }

    /// Whether this view is a reached fixpoint
    /// ([`Completeness::Complete`]) or the checkpoint of an interrupted
    /// solve ([`Completeness::Partial`]). Partial answers are sound
    /// under-approximations: everything reported reachable/live *is*, but
    /// further propagation may add more.
    pub fn completeness(&self) -> Completeness {
        self.completeness
    }

    /// The PVPG (for advanced inspection and the bench harness).
    pub fn graph(&self) -> &'a Pvpg {
        self.graph
    }

    /// The configuration the analysis ran under.
    pub fn config(&self) -> &'a AnalysisConfig {
        self.config
    }

    /// Solver statistics (cumulative across session resumes).
    pub fn stats(&self) -> &'a SolveStats {
        self.stats
    }

    /// The set of reachable methods (the paper's `R`).
    pub fn reachable_methods(&self) -> &'a ReachableSet {
        self.reachable
    }

    /// Whether `m` was marked reachable (O(1)).
    pub fn is_reachable(&self, m: MethodId) -> bool {
        self.reachable.contains(m)
    }

    /// Whether any enabled `new T` for this exact type was reached.
    pub fn is_instantiated(&self, t: TypeId) -> bool {
        self.instantiated.contains(t.index())
    }

    /// The value state returned by `m` (the out-state of its method-return
    /// flow). `None` if `m` is unreachable or never returns.
    pub fn return_state(&self, m: MethodId) -> Option<&'a ValueState> {
        let mg = self.graph.method_graph(m)?;
        let ret = mg.ret?;
        Some(&self.graph.flow(ret).out_state)
    }

    /// The value state of parameter `i` of `m` (receiver = 0 for instance
    /// methods).
    pub fn param_state(&self, m: MethodId, i: usize) -> Option<&'a ValueState> {
        let mg = self.graph.method_graph(m)?;
        let p = *mg.params.get(i)?;
        Some(&self.graph.flow(p).out_state)
    }

    /// The resolved targets of each call site in `m`, in source order:
    /// `(site, kind, linked targets, enabled)`.
    pub fn call_sites(&self, m: MethodId) -> Vec<CallSiteInfo> {
        let Some(mg) = self.graph.method_graph(m) else {
            return Vec::new();
        };
        mg.sites
            .iter()
            .map(|&s| {
                let site = self.graph.site(s);
                CallSiteInfo {
                    site: s,
                    kind: site.kind,
                    targets: site.linked.clone(),
                    enabled: self.graph.flow(site.flow).enabled,
                }
            })
            .collect()
    }

    /// Per-block liveness of `m`'s body (`true` = the block's entry
    /// predicate is active). Empty if `m` is unreachable.
    pub fn live_blocks(&self, m: MethodId) -> Vec<bool> {
        let Some(mg) = self.graph.method_graph(m) else {
            return Vec::new();
        };
        mg.block_preds
            .iter()
            .map(|&p| self.graph.flow(p).is_active())
            .collect()
    }

    /// The blocks of `m` proven unreachable by the analysis — the dead-code
    /// elimination opportunities of §6 "Impact on Compiler Optimizations".
    pub fn dead_blocks(&self, m: MethodId) -> Vec<BlockId> {
        self.live_blocks(m)
            .iter()
            .enumerate()
            .filter(|(_, live)| !**live)
            .map(|(i, _)| BlockId::from_index(i))
            .collect()
    }

    /// Virtual call sites in `m` devirtualized to exactly one target.
    pub fn devirtualized_sites(&self, m: MethodId) -> Vec<(SiteId, MethodId)> {
        self.call_sites(m)
            .into_iter()
            .filter(|s| s.enabled && s.kind == CallKind::Virtual && s.targets.len() == 1)
            .map(|s| (s.site, s.targets[0]))
            .collect()
    }

    /// The out-state of the flow created for statement `stmt` of block
    /// `block` in `m` (for fine-grained assertions in tests).
    pub fn stmt_state(&self, m: MethodId, block: BlockId, stmt: usize) -> Option<&'a ValueState> {
        let mg = self.graph.method_graph(m)?;
        let f = *mg.stmt_flows.get(block.index())?.get(stmt)?;
        Some(&self.graph.flow(f).out_state)
    }

    /// Whether the flow of statement `stmt` in `block` of `m` is enabled.
    pub fn stmt_enabled(&self, m: MethodId, block: BlockId, stmt: usize) -> Option<bool> {
        let mg = self.graph.method_graph(m)?;
        let f = *mg.stmt_flows.get(block.index())?.get(stmt)?;
        Some(self.graph.flow(f).enabled)
    }

    /// Computes the paper's counter metrics.
    pub fn metrics(&self, program: &Program) -> Metrics {
        compute_metrics(self, program)
    }

    /// Renders a human-readable dead-code report for one method.
    pub fn dead_code_report(&self, program: &Program, m: MethodId) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let label = program.method_label(m);
        if !self.is_reachable(m) {
            let _ = writeln!(out, "{label}: unreachable (entire method removed)");
            return out;
        }
        let dead = self.dead_blocks(m);
        if dead.is_empty() {
            let _ = writeln!(out, "{label}: fully live");
        } else {
            let _ = writeln!(out, "{label}: dead blocks {dead:?}");
        }
        for info in self.call_sites(m) {
            if !info.enabled {
                let _ = writeln!(out, "  call site {:?}: unreachable", info.site);
            } else if info.kind == CallKind::Virtual {
                let names: Vec<String> = info
                    .targets
                    .iter()
                    .map(|t| program.method_label(*t))
                    .collect();
                let tag = match names.len() {
                    0 => "no targets (dead receiver)".to_string(),
                    1 => format!("devirtualized -> {}", names[0]),
                    _ => format!("polymorphic -> {{{}}}", names.join(", ")),
                };
                let _ = writeln!(out, "  call site {:?}: {tag}", info.site);
            }
        }
        out
    }

    /// Flow-level view used by debugging tests: the out-state of the `new T`
    /// flows of a type, if any were created.
    pub fn allocation_enabled(&self, t: TypeId) -> bool {
        self.graph
            .flows
            .iter()
            .any(|f| matches!(f.kind, FlowKind::New(ty) if ty == t) && f.enabled)
    }

    /// The call graph induced by the analysis: one `(caller, site, callee)`
    /// edge per linked target of every enabled call site, in deterministic
    /// order. This is the artifact consumed by the call-graph-construction
    /// applications the paper's introduction cites.
    pub fn call_graph_edges(&self) -> Vec<CallEdge> {
        let mut edges = Vec::new();
        for (&caller, mg) in &self.graph.methods {
            for &site in &mg.sites {
                let s = self.graph.site(site);
                if !self.graph.flow(s.flow).enabled {
                    continue;
                }
                for &callee in &s.linked {
                    edges.push(CallEdge {
                        caller,
                        site,
                        callee,
                        kind: s.kind,
                    });
                }
            }
        }
        edges
    }

    /// Enabled virtual call sites with two or more resolved targets (the
    /// PolyCalls counter, shared with [`crate::CallGraphQuery`]).
    pub fn poly_call_sites(&self) -> usize {
        let mut n = 0;
        for mg in self.graph.methods.values() {
            for &site in &mg.sites {
                let s = self.graph.site(site);
                if s.kind == CallKind::Virtual
                    && self.graph.flow(s.flow).enabled
                    && s.linked.len() >= 2
                {
                    n += 1;
                }
            }
        }
        n
    }

    /// The number of call-graph edges — `call_graph_edges().len()`, counted
    /// in one pass over the call sites without building the edge list.
    pub fn call_edge_count(&self) -> usize {
        let mut n = 0;
        for mg in self.graph.methods.values() {
            for &site in &mg.sites {
                let s = self.graph.site(site);
                if self.graph.flow(s.flow).enabled {
                    n += s.linked.len();
                }
            }
        }
        n
    }

    /// Extracts the answers of this view into an [`OwnedSnapshot`] suitable
    /// for publication across threads (the serving seam used by
    /// `skipflow-server`). Costs O(reachable methods + types + call sites);
    /// nothing of the PVPG is copied.
    pub fn to_owned_snapshot(&self) -> OwnedSnapshot {
        // The arena size now, as `AnalysisResult::new` records it (roots
        // added since the last solve may have created flows).
        let mut stats = self.stats.clone();
        stats.flows = self.graph.flow_count();
        OwnedSnapshot {
            reachable: self.reachable.clone(),
            instantiated: self.instantiated.clone(),
            call_edge_count: self.call_edge_count(),
            poly_call_count: self.poly_call_sites(),
            stats,
            completeness: self.completeness,
        }
    }

    /// Renders the call graph as Graphviz `dot` (method-level nodes;
    /// polymorphic sites produce multiple out-edges).
    pub fn call_graph_dot(&self, program: &Program) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph callgraph {\n  rankdir=LR;\n  node [shape=box];\n");
        for &m in self.reachable.iter() {
            let _ = writeln!(out, "  m{} [label=\"{}\"];", m.index(), program.method_label(m));
        }
        let mut seen = std::collections::BTreeSet::new();
        for e in self.call_graph_edges() {
            if seen.insert((e.caller, e.callee)) {
                let style = match e.kind {
                    CallKind::Virtual => "",
                    CallKind::Static => " [style=dashed]",
                };
                let _ = writeln!(out, "  m{} -> m{}{style};", e.caller.index(), e.callee.index());
            }
        }
        out.push_str("}\n");
        out
    }
}

/// The owned outcome of one analysis (see [`crate::analyze`] and
/// [`AnalysisSession::into_result`](crate::AnalysisSession::into_result)).
/// Every query delegates to [`AnalysisSnapshot`].
#[derive(Clone, Debug)]
pub struct AnalysisResult {
    graph: Pvpg,
    reachable: ReachableSet,
    instantiated: BitSet,
    config: AnalysisConfig,
    stats: SolveStats,
    completeness: Completeness,
}

impl AnalysisResult {
    pub(crate) fn new(
        graph: Pvpg,
        reachable: ReachableSet,
        instantiated: BitSet,
        config: AnalysisConfig,
        mut stats: SolveStats,
        completeness: Completeness,
    ) -> Self {
        stats.flows = graph.flow_count();
        AnalysisResult {
            graph,
            reachable,
            instantiated,
            config,
            stats,
            completeness,
        }
    }

    /// A borrowed view of this result carrying the full query surface.
    pub fn snapshot(&self) -> AnalysisSnapshot<'_> {
        AnalysisSnapshot::new(
            &self.graph,
            &self.reachable,
            &self.instantiated,
            &self.config,
            &self.stats,
            self.completeness,
        )
    }

    /// Whether this result is a reached fixpoint or an interrupted
    /// checkpoint; see [`AnalysisSnapshot::completeness`].
    pub fn completeness(&self) -> Completeness {
        self.completeness
    }

    /// The final PVPG (for advanced inspection and the bench harness).
    pub fn graph(&self) -> &Pvpg {
        &self.graph
    }

    /// The configuration the analysis ran under.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Solver statistics.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// The set of reachable methods (the paper's `R`).
    pub fn reachable_methods(&self) -> &ReachableSet {
        &self.reachable
    }

    /// Whether `m` was marked reachable (O(1)).
    pub fn is_reachable(&self, m: MethodId) -> bool {
        self.reachable.contains(m)
    }

    /// Whether any enabled `new T` for this exact type was reached.
    pub fn is_instantiated(&self, t: TypeId) -> bool {
        self.instantiated.contains(t.index())
    }

    /// The value state returned by `m`; see [`AnalysisSnapshot::return_state`].
    pub fn return_state(&self, m: MethodId) -> Option<&ValueState> {
        self.snapshot().return_state(m)
    }

    /// The value state of parameter `i` of `m`; see
    /// [`AnalysisSnapshot::param_state`].
    pub fn param_state(&self, m: MethodId, i: usize) -> Option<&ValueState> {
        self.snapshot().param_state(m, i)
    }

    /// The resolved targets of each call site in `m`, in source order.
    pub fn call_sites(&self, m: MethodId) -> Vec<CallSiteInfo> {
        self.snapshot().call_sites(m)
    }

    /// Per-block liveness of `m`'s body; see [`AnalysisSnapshot::live_blocks`].
    pub fn live_blocks(&self, m: MethodId) -> Vec<bool> {
        self.snapshot().live_blocks(m)
    }

    /// The blocks of `m` proven unreachable by the analysis.
    pub fn dead_blocks(&self, m: MethodId) -> Vec<BlockId> {
        self.snapshot().dead_blocks(m)
    }

    /// Virtual call sites in `m` devirtualized to exactly one target.
    pub fn devirtualized_sites(&self, m: MethodId) -> Vec<(SiteId, MethodId)> {
        self.snapshot().devirtualized_sites(m)
    }

    /// The out-state of the flow created for statement `stmt` of `block`.
    pub fn stmt_state(&self, m: MethodId, block: BlockId, stmt: usize) -> Option<&ValueState> {
        self.snapshot().stmt_state(m, block, stmt)
    }

    /// Whether the flow of statement `stmt` in `block` of `m` is enabled.
    pub fn stmt_enabled(&self, m: MethodId, block: BlockId, stmt: usize) -> Option<bool> {
        self.snapshot().stmt_enabled(m, block, stmt)
    }

    /// Computes the paper's counter metrics.
    pub fn metrics(&self, program: &Program) -> Metrics {
        self.snapshot().metrics(program)
    }

    /// Renders a human-readable dead-code report for one method.
    pub fn dead_code_report(&self, program: &Program, m: MethodId) -> String {
        self.snapshot().dead_code_report(program, m)
    }

    /// Flow-level view used by debugging tests.
    pub fn allocation_enabled(&self, t: TypeId) -> bool {
        self.snapshot().allocation_enabled(t)
    }

    /// The call graph induced by the analysis.
    pub fn call_graph_edges(&self) -> Vec<CallEdge> {
        self.snapshot().call_graph_edges()
    }

    /// Renders the call graph as Graphviz `dot`.
    pub fn call_graph_dot(&self, program: &Program) -> String {
        self.snapshot().call_graph_dot(program)
    }
}

/// The answers of one fixpoint, owned, for cross-thread publication.
///
/// [`AnalysisSnapshot`] borrows a paused session, so it cannot outlive the
/// solve loop that produced it; a server that answers queries *while* the
/// next solve runs needs a form it can hand to reader threads. An
/// `OwnedSnapshot` holds exactly what the serving protocol answers and
/// nothing of the PVPG:
///
/// * the reachable set and the instantiated-type bitset (membership is a
///   bitset probe), the call-edge and PolyCalls counts (precomputed), the
///   solver statistics, and the completeness tag;
/// * building one ([`AnalysisSnapshot::to_owned_snapshot`] or
///   [`AnalysisSession::owned_snapshot`](crate::AnalysisSession::owned_snapshot))
///   costs O(reachable methods + types + call sites) on the writer's
///   thread, and its size follows the answers, not the graph;
/// * it is `Send + Sync` and implements [`crate::CallGraphQuery`] with
///   every query O(1) or a bitset probe.
///
/// Per-flow state (value states, liveness, call-site targets) is not
/// published; query a session's [`AnalysisSnapshot`] or an
/// [`AnalysisResult`] for it.
#[derive(Clone, Debug)]
pub struct OwnedSnapshot {
    reachable: ReachableSet,
    instantiated: BitSet,
    call_edge_count: usize,
    poly_call_count: usize,
    stats: SolveStats,
    completeness: Completeness,
}

impl OwnedSnapshot {
    /// Whether the snapshot is a reached fixpoint or an interrupted
    /// checkpoint; see [`AnalysisSnapshot::completeness`].
    pub fn completeness(&self) -> Completeness {
        self.completeness
    }

    /// Solver statistics at the time the snapshot was taken.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// The set of reachable methods.
    pub fn reachable_methods(&self) -> &ReachableSet {
        &self.reachable
    }

    /// Whether `m` was marked reachable (O(1)).
    pub fn is_reachable(&self, m: MethodId) -> bool {
        self.reachable.contains(m)
    }

    /// Whether any enabled `new T` for this exact type was reached.
    pub fn is_instantiated(&self, t: TypeId) -> bool {
        self.instantiated.contains(t.index())
    }

    /// The number of call-graph edges (precomputed; see
    /// [`AnalysisSnapshot::call_edge_count`]).
    pub fn call_edge_count(&self) -> usize {
        self.call_edge_count
    }

    /// Enabled virtual call sites with two or more resolved targets
    /// (precomputed; see [`AnalysisSnapshot::poly_call_sites`]).
    pub fn poly_call_count(&self) -> usize {
        self.poly_call_count
    }
}

/// One edge of the computed call graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallEdge {
    /// The calling method.
    pub caller: MethodId,
    /// The call site within the caller.
    pub site: SiteId,
    /// The resolved target.
    pub callee: MethodId,
    /// Virtual or static dispatch.
    pub kind: CallKind,
}

/// Summary of one call site for reports.
#[derive(Clone, Debug)]
pub struct CallSiteInfo {
    /// Site id.
    pub site: SiteId,
    /// Virtual or static.
    pub kind: CallKind,
    /// Targets linked by the analysis.
    pub targets: Vec<MethodId>,
    /// Whether the invoke flow was ever enabled.
    pub enabled: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reachable_set_sorts_membership_and_iteration() {
        let mut bits = BitSet::new();
        for i in [5usize, 1, 9] {
            bits.insert(i);
        }
        let order = vec![
            MethodId::from_index(9),
            MethodId::from_index(1),
            MethodId::from_index(5),
        ];
        let set = ReachableSet::from_discovery(bits, order);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        assert!(set.contains(MethodId::from_index(5)));
        assert!(!set.contains(MethodId::from_index(2)));
        let ids: Vec<usize> = set.iter().map(|m| m.index()).collect();
        assert_eq!(ids, vec![1, 5, 9], "ascending regardless of discovery order");
        // `for &m in &set` works like the former BTreeSet.
        let mut n = 0;
        for &m in &set {
            assert!(set.contains(m));
            n += 1;
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn reachable_set_equality_ignores_discovery_order() {
        let build = |order: &[usize]| {
            let mut bits = BitSet::new();
            for &i in order {
                bits.insert(i);
            }
            ReachableSet::from_discovery(
                bits,
                order.iter().map(|&i| MethodId::from_index(i)).collect(),
            )
        };
        assert_eq!(build(&[3, 1, 2]), build(&[1, 2, 3]));
        assert_ne!(build(&[1, 2]), build(&[1, 2, 3]));
        assert!(build(&[1, 2]).is_subset(&build(&[1, 2, 3])));
        assert!(!build(&[1, 4]).is_subset(&build(&[1, 2, 3])));
    }
}
