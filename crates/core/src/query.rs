//! The unified call-graph query interface.
//!
//! Every analysis in the precision ladder — CHA, RTA, the PTA baseline, and
//! SkipFlow itself — produces *some* call graph. [`CallGraphQuery`] is the
//! one interface they all answer: reachable-set membership and size, edge
//! and PolyCalls counts, and refinement comparison. The SkipFlow engine's
//! [`AnalysisResult`]/[`AnalysisSnapshot`] implement it here; the
//! `skipflow-baselines` crate implements it for its `CallGraph`, so ladder
//! comparisons (`SkipFlow ⊆ PTA ⊆ RTA ⊆ CHA`) and reporting tools can be
//! written once against `&dyn CallGraphQuery` / `impl CallGraphQuery`.

use crate::interrupt::Completeness;
use crate::report::{AnalysisResult, AnalysisSnapshot, OwnedSnapshot};
use skipflow_ir::MethodId;

/// Queries over a computed call graph, implemented by every analysis in the
/// precision ladder.
pub trait CallGraphQuery {
    /// Whether the answers describe a reached fixpoint
    /// ([`Completeness::Complete`], the default — CHA/RTA/PTA always run to
    /// completion) or the checkpoint of an interrupted solve
    /// ([`Completeness::Partial`]): a sound under-approximation where every
    /// reported method/edge is real but more may be discovered by resuming.
    /// Refinement comparisons against a partial graph are only meaningful
    /// in the `partial ⊆ complete` direction.
    fn completeness(&self) -> Completeness {
        Completeness::Complete
    }

    /// Whether `m` is reachable from the roots.
    fn is_reachable(&self, m: MethodId) -> bool;

    /// Number of reachable methods.
    fn reachable_count(&self) -> usize;

    /// The reachable methods in ascending id order.
    fn reachable_ids(&self) -> Vec<MethodId>;

    /// Total call edges discovered (one per `(site, target)` pair).
    fn call_edge_count(&self) -> usize;

    /// Virtual call sites with two or more targets (the PolyCalls metric).
    fn poly_call_count(&self) -> usize;

    /// Whether this analysis is at least as precise as `coarser` on
    /// reachability: every method `self` reaches, `coarser` reaches too
    /// (`R_self ⊆ R_coarser`). This is the precision-ladder relation —
    /// `skipflow.refines(&pta)`, `pta.refines(&rta)`, `rta.refines(&cha)`.
    fn refines(&self, coarser: &dyn CallGraphQuery) -> bool {
        self.reachable_ids().iter().all(|&m| coarser.is_reachable(m))
    }

    /// The reachability difference between two analyses: methods only this
    /// one reaches, methods only the other reaches, and the common count.
    fn reachable_delta(&self, other: &dyn CallGraphQuery) -> CallGraphDelta {
        let mut delta = CallGraphDelta::default();
        for m in self.reachable_ids() {
            if other.is_reachable(m) {
                delta.common += 1;
            } else {
                delta.only_in_self.push(m);
            }
        }
        for m in other.reachable_ids() {
            if !self.is_reachable(m) {
                delta.only_in_other.push(m);
            }
        }
        delta
    }
}

/// The reachability difference computed by
/// [`CallGraphQuery::reachable_delta`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CallGraphDelta {
    /// Methods reachable for `self` but not for `other` (ascending ids).
    pub only_in_self: Vec<MethodId>,
    /// Methods reachable for `other` but not for `self` (ascending ids).
    pub only_in_other: Vec<MethodId>,
    /// Methods both analyses reach.
    pub common: usize,
}

impl CallGraphDelta {
    /// Whether both analyses reach exactly the same methods.
    pub fn is_identical(&self) -> bool {
        self.only_in_self.is_empty() && self.only_in_other.is_empty()
    }
}

impl CallGraphQuery for AnalysisSnapshot<'_> {
    fn completeness(&self) -> Completeness {
        AnalysisSnapshot::completeness(self)
    }

    fn is_reachable(&self, m: MethodId) -> bool {
        AnalysisSnapshot::is_reachable(self, m)
    }

    fn reachable_count(&self) -> usize {
        self.reachable_methods().len()
    }

    fn reachable_ids(&self) -> Vec<MethodId> {
        self.reachable_methods().as_slice().to_vec()
    }

    fn call_edge_count(&self) -> usize {
        AnalysisSnapshot::call_edge_count(self)
    }

    fn poly_call_count(&self) -> usize {
        self.poly_call_sites()
    }
}

impl CallGraphQuery for AnalysisResult {
    fn completeness(&self) -> Completeness {
        AnalysisResult::completeness(self)
    }

    fn is_reachable(&self, m: MethodId) -> bool {
        AnalysisResult::is_reachable(self, m)
    }

    fn reachable_count(&self) -> usize {
        self.reachable_methods().len()
    }

    fn reachable_ids(&self) -> Vec<MethodId> {
        self.reachable_methods().as_slice().to_vec()
    }

    fn call_edge_count(&self) -> usize {
        self.snapshot().call_edge_count()
    }

    fn poly_call_count(&self) -> usize {
        self.snapshot().poly_call_sites()
    }
}

impl CallGraphQuery for OwnedSnapshot {
    fn completeness(&self) -> Completeness {
        OwnedSnapshot::completeness(self)
    }

    fn is_reachable(&self, m: MethodId) -> bool {
        OwnedSnapshot::is_reachable(self, m)
    }

    fn reachable_count(&self) -> usize {
        self.reachable_methods().len()
    }

    fn reachable_ids(&self) -> Vec<MethodId> {
        self.reachable_methods().as_slice().to_vec()
    }

    fn call_edge_count(&self) -> usize {
        OwnedSnapshot::call_edge_count(self)
    }

    fn poly_call_count(&self) -> usize {
        OwnedSnapshot::poly_call_count(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal stand-in so the default methods are testable without an
    /// engine run.
    struct Fixed(Vec<usize>);

    impl CallGraphQuery for Fixed {
        fn is_reachable(&self, m: MethodId) -> bool {
            self.0.contains(&m.index())
        }
        fn reachable_count(&self) -> usize {
            self.0.len()
        }
        fn reachable_ids(&self) -> Vec<MethodId> {
            self.0.iter().map(|&i| MethodId::from_index(i)).collect()
        }
        fn call_edge_count(&self) -> usize {
            0
        }
        fn poly_call_count(&self) -> usize {
            0
        }
    }

    #[test]
    fn refines_is_subset_on_reachable_sets() {
        let fine = Fixed(vec![1, 2]);
        let coarse = Fixed(vec![1, 2, 3]);
        assert!(fine.refines(&coarse));
        assert!(!coarse.refines(&fine));
        assert!(fine.refines(&fine), "refinement is reflexive");
    }

    #[test]
    fn reachable_delta_partitions_the_sets() {
        let a = Fixed(vec![1, 2, 4]);
        let b = Fixed(vec![2, 3]);
        let d = a.reachable_delta(&b);
        assert_eq!(
            d.only_in_self,
            vec![MethodId::from_index(1), MethodId::from_index(4)]
        );
        assert_eq!(d.only_in_other, vec![MethodId::from_index(3)]);
        assert_eq!(d.common, 1);
        assert!(!d.is_identical());
        assert!(a.reachable_delta(&a).is_identical());
    }
}
