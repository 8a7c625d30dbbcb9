//! Churn must not grow a session: repeating the same add/retract and
//! disable/restore set re-derives the same fixpoint over the same graph, so
//! the engine's memory estimate and edge counts stay at their values after
//! the first set (re-derivation revives purged dynamic edges and killed
//! injection sources instead of storing them again).

use skipflow_core::{AnalysisConfig, AnalysisSession, MethodEdit};
use skipflow_synth::{build_benchmark, pick_spread_roots, suites};

#[test]
fn repeated_churn_sets_keep_memory_and_edges_flat() {
    let spec = suites::by_name("lusearch").expect("suite benchmark");
    let bench = build_benchmark(&spec);
    let program = &bench.program;
    let config = AnalysisConfig::skipflow().with_reflective_roots(bench.reflective_roots.clone());
    let mut session = AnalysisSession::builder(program)
        .config(config)
        .roots(bench.roots.iter().copied())
        .build()
        .expect("session");
    let baseline = session.solve().reachable_methods().clone();

    let spread = pick_spread_roots(program, &bench.roots, 64);
    let extra = spread[0];
    let victim = *spread[1..]
        .iter()
        .find(|&&m| baseline.contains(m))
        .expect("a reachable non-root method to edit");

    let churn_set = |session: &mut AnalysisSession<'_>| {
        assert_eq!(session.add_roots([extra]).unwrap(), 1);
        session.solve();
        assert_eq!(session.retract_roots([extra]).unwrap(), 1);
        session.solve();
        assert!(session.apply_edit(victim, MethodEdit::DisableBody).unwrap());
        session.solve();
        assert!(session.apply_edit(victim, MethodEdit::RestoreBody).unwrap());
        let snap = session.solve();
        assert_eq!(
            snap.reachable_methods(),
            &baseline,
            "each set ends on the baseline fixpoint"
        );
        let edges = snap.graph().edge_counts();
        (session.memory_estimate(), edges)
    };

    let first = churn_set(&mut session);
    for set in 2..=40 {
        assert_eq!(
            churn_set(&mut session),
            first,
            "churn set {set} grew the session"
        );
    }
    let inv = session.snapshot().stats().invalidation;
    assert_eq!((inv.retractions, inv.edits), (40, 80));
    assert!(
        inv.invalidated_flows > 0,
        "the sets really invalidated state"
    );
}
