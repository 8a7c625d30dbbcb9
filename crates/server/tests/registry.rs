//! Registry behavior: admission control, memory-budget eviction, cancel /
//! flush semantics, and the protocol layer driven in-process.

use skipflow_core::{analyze, AnalysisConfig, CallGraphQuery, Completeness};
use skipflow_ir::frontend::compile;
use skipflow_server::{handle_request, parse_request, Registry, ServerConfig, ServerError};
use skipflow_modelcheck::sync::Arc;
use std::time::Duration;

const SRC: &str = "
    class Config { static method flag(): int { return 0; } }
    class App {
      static method used(): void { return; }
      static method dead(): void { return; }
      static method main(): void {
        if (Config.flag()) { App.dead(); } else { App.used(); }
      }
      static method other(): void { App.used(); }
    }
";

fn program() -> Arc<skipflow_ir::Program> {
    Arc::new(compile(SRC).expect("test source"))
}

fn main_root(p: &skipflow_ir::Program) -> skipflow_ir::MethodId {
    let app = p.type_by_name("App").unwrap();
    p.method_by_name(app, "main").unwrap()
}

#[test]
fn open_roots_flush_query_round_trip() {
    let registry = Registry::new(ServerConfig::default());
    let p = program();
    let handle = registry.open("s", p.clone(), AnalysisConfig::skipflow()).unwrap();

    // Epoch 0 is the empty pre-solve publication, tagged partial.
    let ep0 = handle.published();
    assert_eq!(ep0.epoch, 0);
    assert!(ep0.roots.is_empty());
    assert_eq!(ep0.snapshot.completeness(), Completeness::Partial);

    registry.add_roots("s", vec![main_root(&p)]).unwrap();
    let settled = registry.flush("s", Duration::from_secs(10)).unwrap();
    assert!(settled.is_complete());
    assert_eq!(settled.roots, vec![main_root(&p)]);

    // SkipFlow proves the dead branch dead through the published snapshot.
    let app = p.type_by_name("App").unwrap();
    let dead = p.method_by_name(app, "dead").unwrap();
    let used = p.method_by_name(app, "used").unwrap();
    assert!(!settled.snapshot.is_reachable(dead));
    assert!(settled.snapshot.is_reachable(used));
    assert!(handle.epochs_published() >= 1);
}

#[test]
fn duplicate_unknown_and_invalid_root_errors() {
    let registry = Registry::new(ServerConfig::default());
    let p = program();
    registry.open("s", p.clone(), AnalysisConfig::skipflow()).unwrap();
    assert!(matches!(
        registry.open("s", p.clone(), AnalysisConfig::skipflow()),
        Err(ServerError::DuplicateSession(_))
    ));
    assert!(matches!(registry.get("nope"), Err(ServerError::UnknownSession(_))));
    let bogus = skipflow_ir::MethodId::from_index(10_000);
    assert!(matches!(
        registry.add_roots("s", vec![bogus]),
        Err(ServerError::InvalidRoot { .. })
    ));
    assert!(matches!(
        registry.flush("missing", Duration::from_secs(1)),
        Err(ServerError::UnknownSession(_))
    ));
}

#[test]
fn session_cap_and_queue_cap_shed() {
    let registry = Registry::new(ServerConfig {
        max_sessions: 1,
        max_queued_roots: 0,
        ..ServerConfig::default()
    });
    let p = program();
    registry.open("a", p.clone(), AnalysisConfig::skipflow()).unwrap();
    assert!(matches!(
        registry.open("b", p.clone(), AnalysisConfig::skipflow()),
        Err(ServerError::Overloaded(_))
    ));
    // With a zero queue cap every root registration sheds.
    assert!(matches!(
        registry.add_roots("a", vec![main_root(&p)]),
        Err(ServerError::Overloaded(_))
    ));
    assert!(registry.stats().sheds >= 2);
}

#[test]
fn memory_budget_evicts_idle_lru_sessions() {
    // A 1-byte budget guarantees pressure as soon as any session has a
    // non-zero engine estimate.
    let registry = Registry::new(ServerConfig {
        memory_budget_bytes: 1,
        ..ServerConfig::default()
    });
    let p = program();
    registry.open("old", p.clone(), AnalysisConfig::skipflow()).unwrap();
    registry.add_roots("old", vec![main_root(&p)]).unwrap();
    registry.flush("old", Duration::from_secs(10)).unwrap();
    assert!(registry.get("old").unwrap().memory_estimate() > 1);

    // Opening a new session relieves pressure by evicting the idle one.
    registry.open("new", p.clone(), AnalysisConfig::skipflow()).unwrap();
    assert!(
        matches!(registry.get("old"), Err(ServerError::UnknownSession(_))),
        "idle LRU session evicted under memory pressure"
    );
    assert!(registry.stats().sessions_evicted >= 1);

    // Once the surviving session itself exceeds the budget and nothing else
    // is evictable, requests naming it shed instead.
    registry.add_roots("new", vec![main_root(&p)]).unwrap();
    registry.flush("new", Duration::from_secs(10)).unwrap();
    assert!(matches!(
        registry.add_roots("new", vec![main_root(&p)]),
        Err(ServerError::Overloaded(_))
    ));
}

#[test]
fn cancel_pauses_and_flush_resumes_to_complete() {
    let registry = Registry::new(ServerConfig::default());
    let p = program();
    registry.open("s", p.clone(), AnalysisConfig::skipflow()).unwrap();
    registry.add_roots("s", vec![main_root(&p)]).unwrap();
    registry.cancel("s").unwrap();
    // Whatever state the cancel left behind, an explicit flush drains it.
    let settled = registry.flush("s", Duration::from_secs(10)).unwrap();
    assert!(settled.is_complete());
    assert_eq!(settled.snapshot.completeness(), Completeness::Complete);
}

/// The counts an epoch precomputes at publication equal the ones walked off
/// a fresh result's call graph.
#[test]
fn published_counts_match_a_fresh_snapshot() {
    let spec = skipflow_synth::suites::by_name("lusearch").expect("suite benchmark");
    let bench = skipflow_synth::build_benchmark(&spec);
    let config = AnalysisConfig::skipflow().with_reflective_roots(bench.reflective_roots.clone());
    let program = Arc::new(bench.program);
    let registry = Registry::new(ServerConfig::default());
    registry.open("s", program.clone(), config.clone()).unwrap();
    registry.add_roots("s", bench.roots.clone()).unwrap();
    let settled = registry.flush("s", Duration::from_secs(30)).unwrap();
    assert!(settled.is_complete());

    let fresh = analyze(&program, &bench.roots, &config);
    let view = fresh.snapshot();
    assert!(view.poly_call_sites() > 0, "the program has polymorphic sites");
    assert_eq!(settled.snapshot.call_edge_count(), view.call_graph_edges().len());
    assert_eq!(settled.snapshot.poly_call_count(), view.poly_call_sites());
    assert_eq!(settled.snapshot.reachable_count(), view.reachable_methods().len());
    assert_eq!(settled.snapshot.reachable_ids(), view.reachable_methods().as_slice());
}

#[test]
fn eviction_keeps_published_epochs_valid_for_holders() {
    let registry = Registry::new(ServerConfig::default());
    let p = program();
    let handle = registry.open("s", p.clone(), AnalysisConfig::skipflow()).unwrap();
    registry.add_roots("s", vec![main_root(&p)]).unwrap();
    let settled = registry.flush("s", Duration::from_secs(10)).unwrap();
    let held = handle.published();
    registry.evict("s").unwrap();
    // The registry no longer knows the session, but snapshots already
    // handed out stay fully queryable.
    assert!(registry.get("s").is_err());
    assert_eq!(held.epoch, settled.epoch);
    assert!(held.snapshot.reachable_count() > 0);
}

#[test]
fn protocol_layer_in_process() {
    let registry = Registry::new(ServerConfig::default());
    let dir = std::env::temp_dir().join(format!("skipflow-registry-proto-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let src_path = dir.join("app.sf");
    std::fs::write(&src_path, SRC).unwrap();

    let run = |line: &str| handle_request(&registry, parse_request(line).unwrap());

    assert_eq!(run("ping"), "ok pong");
    let opened = run(&format!("open s {} scheduler=adaptive", src_path.display()));
    assert!(opened.starts_with("ok opened s methods="), "{opened}");
    assert_eq!(run("sessions"), "ok sessions=1 s");

    // Before any roots: epoch 0, partial.
    let q = run("query s completeness");
    assert_eq!(q, "ok partial epoch=0 [partial]");

    // The epoch tag races the writer (the enqueued root may already have
    // been solved and published by the time the response is rendered), so
    // only the queued count is exact.
    let queued = run("roots s App.main");
    assert!(queued.starts_with("ok queued 1 epoch="), "{queued}");
    let flushed = run("flush s");
    assert!(flushed.starts_with("ok flushed epoch=") && !flushed.contains("[partial]"), "{flushed}");

    assert!(run("query s reachable App.used").starts_with("ok true epoch="));
    assert!(run("query s reachable App.dead").starts_with("ok false epoch="));
    assert!(run("query s reachable-count").starts_with("ok "));
    assert!(run("query s poly-calls").starts_with("ok "));
    assert!(run("query s call-edges").starts_with("ok "));

    let stats = run("stats s");
    assert!(stats.contains("epochs_published=") && stats.contains("steps="), "{stats}");
    let rstats = run("stats");
    assert!(rstats.contains("sessions_live=1"), "{rstats}");

    assert!(run("query s reachable Nope.m").starts_with("err analysis:"));
    assert!(run("roots missing App.main").starts_with("err unknown-session:"));
    assert_eq!(run("evict s"), "ok evicted");
    assert!(run("query s epoch").starts_with("err unknown-session:"));

    let _ = std::fs::remove_dir_all(&dir);
}
