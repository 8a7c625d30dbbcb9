//! The `batch-corpus` workload: the 35 Table 1 programs plus the
//! trajectory's `fanout-400` rung, file to report.
//!
//! The Table 1 programs are small and cache-resident, about a third of
//! their analysis is decode, and the adaptive scheduler never flips on
//! them; `fanout-400` (one shared field sink, 400 readers, 256 writers) is
//! almost all solve, with the FIFO→SCC flip and online-order upkeep. One
//! workload carries both so the scheduler layer is exercised beside the
//! decode-heavy programs.
//!
//! Set-up generates every program and encodes it to SFBC. A *pass* then
//! runs, for every program, SFBC bytes → `decode` → session `build` →
//! `try_solve` → `metrics` (the `analyze_ms` span), followed by a bundle
//! of queries on the finished snapshot and four grow/shrink mutation pairs
//! of the script on the live session. Before the passes each program is
//! solved once, untimed, to plan its mutations; the one-off output checks
//! run after the passes, once `peak_rss_mb` has been read.
//!
//! Every timing is CPU-bound and reported at the reference speed of
//! [`crate::calib`]: a calibration slice runs before each program of a pass
//! (and before each set-up repetition), and the pass's times are scaled by
//! the median of its slices. The wall times go to standard error.

use crate::calib::{Calibration, REFERENCE_SLICE_MS};
use crate::churn::{self, Plan, Rng};
use crate::report::{peak_rss_mib, reset_peak_rss, Outcome};
use crate::stats::{beyond, median, tail_percentile};
use crate::trace::{Span, Tracer};
use crate::Args;
use skipflow_baselines::{class_hierarchy_analysis, rapid_type_analysis};
use skipflow_core::{
    analyze, AnalysisConfig, AnalysisSession, CallGraphQuery, ReachableSet, SchedulerKind,
    SolveStats,
};
use skipflow_ir::encode::{decode, encode};
use skipflow_ir::MethodId;
use skipflow_synth::{build_benchmark, suites, BenchmarkSpec, Suite};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Query bundles per program per pass.
const QUERY_BUNDLES: usize = 32;
/// Mutation pairs per program per pass: pass `n` applies pairs
/// `n * PAIRS_PER_PASS ..`, one edit pair and the rest root pairs, so every
/// pass has the script's mix and [`PASSES_PER_CYCLE`] passes apply every
/// target once.
const PAIRS_PER_PASS: u64 = churn::EDIT_EVERY;
const PASSES_PER_CYCLE: u64 = churn::CYCLE / PAIRS_PER_PASS;
/// Request ids carry the pass in their high bits, the program in the low.
const PASS_SHIFT: u32 = 16;

/// One program of the workload, as set-up leaves it.
struct Entry {
    name: String,
    bytes: Vec<u8>,
    roots: Vec<MethodId>,
    config: AnalysisConfig,
    /// Filled by [`plan`].
    plan: Option<Plan>,
    baseline: ReachableSet,
}

/// The trajectory's `fanout-400` rung, the one program whose adaptive
/// result is also checked against a forced-FIFO solve.
const FANOUT: &str = "fanout-400";

/// The workload's programs.
fn specs() -> Vec<BenchmarkSpec> {
    let mut specs = suites::all();
    specs.push(BenchmarkSpec::new(FANOUT, Suite::DaCapo, 60, 0.0).with_shared_sink(400, 256));
    specs
}

fn set_up(specs: &[BenchmarkSpec]) -> Vec<Entry> {
    specs
        .iter()
        .map(|spec| {
            let bench = build_benchmark(spec);
            Entry {
                name: spec.name.clone(),
                bytes: encode(&bench.program),
                config: AnalysisConfig::skipflow()
                    .with_reflective_roots(bench.reflective_roots.iter().copied()),
                roots: bench.roots,
                plan: None,
                baseline: ReachableSet::default(),
            }
        })
        .collect()
}

/// Solves every program once, untimed, and derives its mutation targets
/// from that baseline fixpoint.
fn plan(entries: &mut [Entry], rng: &mut Rng, out: &mut Outcome) {
    for e in entries {
        let program = match decode(&e.bytes) {
            Ok(p) => p,
            Err(err) => {
                out.problem(format!("{}: SFBC does not decode: {err}", e.name));
                continue;
            }
        };
        let skf = analyze(&program, &e.roots, &e.config);
        let protected: Vec<MethodId> = e
            .roots
            .iter()
            .chain(e.config.reflective_roots())
            .copied()
            .collect();
        e.baseline = skf.reachable_methods().clone();
        e.plan = Some(Plan::new(
            &program,
            &protected,
            &e.baseline,
            &skf.call_graph_edges(),
            rng,
        ));
    }
}

/// The one-off, untimed output checks. They run after the measured passes,
/// so the memory they hold does not enter `peak_rss_mb`.
fn check(entries: &[Entry], out: &mut Outcome) {
    for e in entries {
        let program = decode(&e.bytes).expect("decoded by the planning step");
        if encode(&program) != e.bytes {
            out.problem(format!("{}: encode(decode(b)) != b", e.name));
        }
        let reflective = e.config.reflective_roots().to_vec();
        let all_roots: Vec<MethodId> = e.roots.iter().chain(&reflective).copied().collect();
        let cha = class_hierarchy_analysis(&program, &all_roots);
        let rta = rapid_type_analysis(&program, &all_roots);
        let pta = analyze(
            &program,
            &e.roots,
            &AnalysisConfig::baseline_pta().with_reflective_roots(reflective.iter().copied()),
        );
        let skf = analyze(&program, &e.roots, &e.config);
        if !(skf.refines(&pta) && pta.refines(&rta) && rta.refines(&cha)) {
            out.problem(format!(
                "{}: CHA ⊇ RTA ⊇ PTA ⊇ SkipFlow violated ({} / {} / {} / {})",
                e.name,
                cha.reachable_count(),
                rta.reachable_count(),
                pta.reachable_count(),
                skf.reachable_count()
            ));
        }
        if e.name == FANOUT {
            let fifo = analyze(
                &program,
                &e.roots,
                &e.config.clone().with_scheduler(SchedulerKind::Fifo),
            );
            if fifo.reachable_methods() != skf.reachable_methods()
                || fifo.metrics(&program) != skf.metrics(&program)
                || fifo.call_graph_edges() != skf.call_graph_edges()
            {
                out.problem(format!(
                    "{}: adaptive result differs from forced FIFO",
                    e.name
                ));
            }
        }
    }
}

/// What one pass produced (per-program values summed).
#[derive(Default)]
struct Pass {
    traced: bool,
    analyze: Duration,
    /// Takes this pass's wall times to the reference speed.
    scale: f64,
    reachable: usize,
    binary_size: usize,
    bytes: usize,
    memory: usize,
    engine: Vec<SolveStats>,
    resume_steps: u64,
    invalidated_methods: u64,
    invalidated_flows: u64,
    rederive_steps: u64,
}

/// Per-run sample pools.
#[derive(Default)]
struct Pools {
    queries: Vec<f64>,
    grow: Vec<f64>,
    shrink: Vec<f64>,
    steps_ratio: Vec<f64>,
    ms_ratio: Vec<f64>,
}

impl Pools {
    /// The lengths of the timing pools, to pass to [`Pools::scale_since`].
    fn marks(&self) -> [usize; 3] {
        [self.queries.len(), self.grow.len(), self.shrink.len()]
    }

    /// Scales the timings added since `marks` by `scale`.
    fn scale_since(&mut self, marks: [usize; 3], scale: f64) {
        let pools = [&mut self.queries, &mut self.grow, &mut self.shrink];
        for (pool, mark) in pools.into_iter().zip(marks) {
            pool[mark..].iter_mut().for_each(|x| *x *= scale);
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let specs = specs();
    let mut cal = Calibration::new();

    // One cold set-up, then `SETUP_REPS` timed ones. The previous
    // repetition's entries are dropped after the timed region, so each
    // repetition builds into memory the process already holds rather than
    // into pages the allocator may have handed back to the system. A slice
    // runs before each repetition and after the last, each after set-up
    // work, as a pass's slices each run after a program's analysis.
    let mut entries = black_box(set_up(&specs));
    let mut setup_wall = Vec::new();
    let mark = cal.mark();
    for _ in 0..SETUP_REPS {
        cal.slice();
        let t = Instant::now();
        let next = black_box(set_up(&specs));
        setup_wall.push(t.elapsed().as_secs_f64());
        entries = next;
    }
    cal.slice();
    let setup_scale = cal.scale_since(mark);
    let setup: Vec<f64> = setup_wall.iter().map(|w| w * setup_scale).collect();
    out.set_n("setup_s", median(&setup), Some(setup.len()));
    plan(&mut entries, &mut Rng::new(args.seed, 4), &mut out);
    if !out.problems.is_empty() {
        return out;
    }
    // `peak_rss_mb` covers the measured passes only.
    if let Err(e) = reset_peak_rss() {
        out.problem(format!("cannot reset this process's VmHWM: {e}"));
        return out;
    }
    // Each pass runs the programs in a new seeded order: what one program
    // leaves in the caches and the allocator for the next, and so the peak
    // resident set, then varies within a run rather than from seed to seed.
    let mut order: Vec<usize> = (0..entries.len()).collect();
    let mut order_rng = Rng::new(args.seed, 0);
    let mut rng = Rng::new(args.seed, 1);
    let origin = Instant::now();
    let mut tr = Tracer::new(origin, false);
    let mut pools = Pools::default();
    let mut passes: Vec<Pass> = Vec::new();
    // The pools' lengths at the start of the first whole cycle of the
    // mutation script and at the end of each.
    let mut cycle_ends = vec![[0; 3]];
    // Pass 0 warms caches and is not reported; in a traced run, passes
    // alternate untraced/traced so the overhead is a paired difference.
    let deadline = origin + Duration::from_secs(args.seconds);
    let mut n = 0u64;
    while n < 3 || Instant::now() < deadline {
        let traced = args.trace && n % 2 == 1;
        tr.set_enabled(traced);
        order_rng.shuffle(&mut order);
        let marks = pools.marks();
        let pass = run_pass(
            &entries, &order, n, traced, &mut rng, &mut tr, &mut pools, &mut cal, &mut out,
        );
        pools.scale_since(marks, pass.scale);
        if n > 0 {
            passes.push(pass);
            if n.is_multiple_of(PASSES_PER_CYCLE) {
                cycle_ends.push(pools.marks());
            }
        } else {
            pools = Pools::default();
        }
        n += 1;
    }
    if cycle_ends.len() == 1 {
        // Too short a run for a whole cycle: one partial one.
        cycle_ends.push(pools.marks());
    }

    let first = &passes[0];
    for p in &passes {
        if (p.reachable, p.binary_size, steps(p))
            != (first.reachable, first.binary_size, steps(first))
        {
            out.problem(
                "reachable_methods, binary_size_kb or core.engine.steps differ across passes",
            );
            break;
        }
    }

    let untraced: Vec<f64> = passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| ms(p.analyze) * p.scale)
        .collect();
    out.set_n("analyze_ms", median(&untraced), Some(untraced.len()));
    out.set("reachable_methods", first.reachable as f64);
    out.set("binary_size_kb", first.binary_size as f64 / 1024.0);
    match peak_rss_mib("self") {
        Some(mib) => out.set("peak_rss_mb", mib),
        None => out.problem("cannot read this process's VmHWM"),
    }
    check(&entries, &mut out);
    let wall: Vec<f64> = passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| ms(p.analyze))
        .collect();
    eprintln!(
        "wall time: analyze_ms {:.4}, setup_s {:.4}; calibration slice median {:.4} ms \
         (reference {REFERENCE_SLICE_MS} ms) over {} slices",
        median(&wall),
        median(&setup_wall),
        cal.median_ms(),
        cal.mark()
    );
    let cuts = |k: usize| cycle_ends.iter().map(|m| m[k]).collect::<Vec<_>>();
    set_tail(
        &mut out,
        ("query_p50_ms", "query_p99_ms", 99.0),
        &pools.queries,
        &cuts(0),
    );
    set_tail(
        &mut out,
        ("grow_flush_p50_ms", "grow_flush_p90_ms", 90.0),
        &pools.grow,
        &cuts(1),
    );
    set_tail(
        &mut out,
        ("shrink_flush_p50_ms", "shrink_flush_p90_ms", 90.0),
        &pools.shrink,
        &cuts(2),
    );
    out.finish_counts();

    if args.trace {
        out.set("host.calibration_slice_ms", cal.median_ms());
        layer_metrics(&mut out, &passes, &tr, &pools);
        tr.write_jsonl(&args.trace_path())
            .unwrap_or_else(|e| out.problem(format!("writing trace: {e}")));
    }
    out
}

/// Timed set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 15;

fn steps(p: &Pass) -> u64 {
    p.engine.iter().map(|s| s.steps).sum()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sets a median/tail pair (ms) from a pool cut at `cuts` into cycles:
/// each is the median over cycles of that cycle's median or
/// [`tail_percentile`]. On `batch-corpus` a cycle is a whole cycle of the
/// mutation script, which applies each target once and runs every program
/// equally often, so cycles are alike and one that hit a slow stretch of
/// the host is outvoted rather than averaged in; `serve-churn` passes the
/// whole pool as one cycle.
pub fn set_tail(
    out: &mut Outcome,
    (p50, tail, p): (&'static str, &'static str, f64),
    xs: &[f64],
    cuts: &[usize],
) {
    let cycles: Vec<&[f64]> = cuts.windows(2).map(|w| &xs[w[0]..w[1]]).collect();
    if cycles.iter().any(|c| c.is_empty()) {
        out.problem(format!("no samples for {p50}"));
        return;
    }
    let per_cycle =
        |f: &dyn Fn(&[f64]) -> f64| median(&cycles.iter().map(|c| f(c)).collect::<Vec<_>>());
    let n = cuts[cuts.len() - 1] - cuts[0];
    out.set_n(p50, per_cycle(&|c| median(c)), Some(n));
    out.set_n(tail, per_cycle(&|c| tail_percentile(c, p)), Some(n));
    let fewest = cycles.iter().map(|c| c.len()).min().unwrap_or(0);
    if beyond(fewest, p) < 10 {
        eprintln!("note: {tail} has fewer than 10 samples beyond it in a cycle (n={fewest})");
    }
}

#[allow(clippy::too_many_arguments)]
fn run_pass(
    entries: &[Entry],
    order: &[usize],
    n: u64,
    traced: bool,
    rng: &mut Rng,
    tr: &mut Tracer,
    pools: &mut Pools,
    cal: &mut Calibration,
    out: &mut Outcome,
) -> Pass {
    let mut pass = Pass {
        traced,
        ..Pass::default()
    };
    let mark = cal.mark();
    for &i in order {
        let e = &entries[i];
        cal.slice();
        let req = (n << PASS_SHIFT) | i as u64;
        out.attempted += 1;
        let a = tr.begin("analyze", req);
        let d = tr.begin("ir.encode.decode", req);
        let program = decode(&e.bytes).expect("decoded at set-up");
        tr.end(d);
        let b = tr.begin("core.session.build", req);
        let built = AnalysisSession::builder(&program)
            .config(e.config.clone())
            .roots(e.roots.iter().copied())
            .build();
        tr.end(b);
        let mut session = match built {
            Ok(s) => s,
            Err(err) => {
                tr.end(a);
                out.failed += 1;
                out.problem(format!("{}: build failed: {err}", e.name));
                continue;
            }
        };
        let s = tr.begin("core.session.solve", req);
        let solved = session.try_solve();
        tr.end(s);
        let snap = match solved {
            Ok(snap) => snap,
            Err(err) => {
                tr.end(a);
                out.failed += 1;
                out.problem(format!("{}: solve failed: {err}", e.name));
                continue;
            }
        };
        let m = tr.begin("core.report.metrics", req);
        let metrics = snap.metrics(&program);
        tr.end(m);
        pass.analyze += tr.end(a);

        pass.reachable += metrics.reachable_methods;
        pass.binary_size += metrics.binary_size_bytes;
        pass.bytes += e.bytes.len();
        pass.engine.push(snap.stats().clone());
        let count = program.method_count();
        for _ in 0..QUERY_BUNDLES {
            let target = MethodId::from_index(rng.below(count));
            out.attempted += 1;
            let q = tr.begin("query", req);
            black_box(snap.is_reachable(black_box(target)));
            black_box(snap.reachable_methods().len());
            black_box(snap.call_graph_edges().len());
            black_box(snap.poly_call_sites());
            pools.queries.push(ms(tr.end(q)));
        }
        pass.memory += session.memory_estimate();

        let plan = e.plan.as_ref().expect("planned before the passes");
        let pairs = n * PAIRS_PER_PASS..(n + 1) * PAIRS_PER_PASS;
        for op in pairs.flat_map(|index| plan.pair(index)) {
            out.attempted += 1;
            match churn::apply(&mut session, op, tr, req) {
                Ok(applied) => {
                    record_applied(&applied, &mut pass, pools);
                    if traced && !op.is_grow() {
                        compare_fresh(&session, &applied, e, tr, req, pools, out);
                    }
                }
                Err(err) => {
                    out.failed += 1;
                    out.problem(format!("{}: {op:?} failed: {err}", e.name));
                    break;
                }
            }
        }
        if session.snapshot().reachable_methods() != &e.baseline {
            out.problem(format!(
                "{}: grow/shrink pairs did not return to the fixpoint",
                e.name
            ));
        }
    }
    pass.scale = cal.scale_since(mark);
    pass
}

fn record_applied(applied: &churn::Applied, pass: &mut Pass, pools: &mut Pools) {
    if applied.op.is_grow() {
        pools.grow.push(ms(applied.total));
        pass.resume_steps += applied.steps;
    } else {
        pools.shrink.push(ms(applied.total));
        pass.invalidated_methods += applied.invalidation.invalidated_methods;
        pass.invalidated_flows += applied.invalidation.invalidated_flows;
        pass.rederive_steps += applied.invalidation.rederive_steps;
    }
}

/// Checks a shrunk session against a fresh solve of the same roots and
/// mask, and records the per-solve-point re-derive/fresh ratios.
fn compare_fresh(
    session: &AnalysisSession<'_>,
    applied: &churn::Applied,
    e: &Entry,
    tr: &mut Tracer,
    req: u64,
    pools: &mut Pools,
    out: &mut Outcome,
) {
    match churn::fresh_like(session, tr, req) {
        Ok(fresh) => {
            if &fresh.reachable != session.snapshot().reachable_methods() {
                out.problem(format!(
                    "{}: {:?} differs from a fresh solve",
                    e.name, applied.op
                ));
            }
            pools
                .steps_ratio
                .push(applied.steps as f64 / fresh.steps.max(1) as f64);
            pools
                .ms_ratio
                .push(applied.total.as_secs_f64() / fresh.time.as_secs_f64());
        }
        Err(err) => out.problem(format!("{}: fresh solve failed: {err}", e.name)),
    }
}

/// Per-pass self time of each layer, over the traced passes.
struct Layers {
    /// `(pass, layer)` → self time in that pass (ms).
    by_pass: BTreeMap<(u64, &'static str), f64>,
    passes: Vec<u64>,
}

impl Layers {
    fn new(tr: &Tracer) -> Layers {
        let by_pass = tr.self_ms_by(|s: &Span| s.req >> PASS_SHIFT);
        let mut passes: Vec<u64> = by_pass.keys().map(|&(p, _)| p).collect();
        passes.dedup();
        Layers { by_pass, passes }
    }

    fn per_pass(&self, layer: &'static str) -> Vec<f64> {
        self.passes
            .iter()
            .map(|&p| self.by_pass.get(&(p, layer)).copied().unwrap_or(0.0))
            .collect()
    }

    /// Median over traced passes of the layer's per-pass self time.
    fn median(&self, layer: &'static str) -> f64 {
        let xs = self.per_pass(layer);
        if xs.is_empty() {
            0.0
        } else {
            median(&xs)
        }
    }

    /// Self time summed over every traced pass.
    fn total(&self, layer: &'static str) -> f64 {
        self.per_pass(layer).iter().sum()
    }
}

fn layer_metrics(out: &mut Outcome, passes: &[Pass], tr: &Tracer, pools: &Pools) {
    let layers = Layers::new(tr);
    let layer = |name| layers.median(name);
    let first = &passes[0];

    let decode_ms = layer("ir.encode.decode");
    out.set("ir.encode.decode_ms", decode_ms);
    out.set(
        "ir.encode.decode_mb_per_s",
        first.bytes as f64 / 1e6 / (decode_ms / 1e3),
    );
    out.set("ir.encode.bytes", first.bytes as f64);
    out.set("core.session.build_ms", layer("core.session.build"));
    out.set("core.session.solve_ms", layer("core.session.solve"));
    out.set("core.report.metrics_ms", layer("core.report.metrics"));
    set_engine(out, &first.engine);
    out.set("core.session.memory_bytes", first.memory as f64);
    out.set("core.session.resume_ms", layer("core.session.resume"));
    out.set(
        "core.session.invalidate_ms",
        layer("core.session.invalidate"),
    );
    out.set("core.session.rederive_ms", layer("core.session.rederive"));
    let per_pass = |f: fn(&Pass) -> u64| -> f64 {
        median(&passes.iter().map(|p| f(p) as f64).collect::<Vec<_>>())
    };
    out.set("core.session.resume_steps", per_pass(|p| p.resume_steps));
    out.set(
        "core.invalidation.invalidated_methods",
        per_pass(|p| p.invalidated_methods),
    );
    out.set(
        "core.invalidation.invalidated_flows",
        per_pass(|p| p.invalidated_flows),
    );
    out.set(
        "core.invalidation.rederive_steps",
        per_pass(|p| p.rederive_steps),
    );
    if !pools.steps_ratio.is_empty() {
        out.set_n(
            "core.invalidation.rederive_vs_fresh_steps",
            median(&pools.steps_ratio),
            Some(pools.steps_ratio.len()),
        );
        out.set_n(
            "core.invalidation.rederive_vs_fresh_ms",
            median(&pools.ms_ratio),
            Some(pools.ms_ratio.len()),
        );
    }
    out.set("loadgen.query_samples", pools.queries.len() as f64);
    out.set("loadgen.grow_samples", pools.grow.len() as f64);
    out.set("loadgen.shrink_samples", pools.shrink.len() as f64);

    // Self-time accounting: decode + build + solve + metrics must cover the
    // traced analyze spans to within 5 %. The analyze span's own self time
    // is the rest (the glue between the calls).
    let parts = [
        "ir.encode.decode",
        "core.session.build",
        "core.session.solve",
        "core.report.metrics",
    ];
    let covered: f64 = parts.iter().map(|&n| layers.total(n)).sum();
    let coverage = covered / (covered + layers.total("analyze"));
    out.set("trace.self_time_coverage", coverage);
    if coverage < 0.95 {
        out.problem(format!(
            "layer self times cover {:.1} % of analyze_ms (need ≥ 95 %)",
            coverage * 100.0
        ));
    }
    let traced: Vec<f64> = passes
        .iter()
        .filter(|p| p.traced)
        .map(|p| ms(p.analyze))
        .collect();
    let untraced: Vec<f64> = passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| ms(p.analyze))
        .collect();
    out.set(
        "trace.overhead_pct",
        (median(&traced) / median(&untraced) - 1.0) * 100.0,
    );
    out.set("trace.spans", tr.spans().len() as f64);
}

/// The engine and scheduler counters, summed over the pass's programs.
pub fn set_engine(out: &mut Outcome, stats: &[SolveStats]) {
    let sum = |f: &dyn Fn(&SolveStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let steps = sum(&|s| s.steps);
    let joins = sum(&|s| s.state_joins);
    out.set("core.engine.steps", steps);
    out.set("core.engine.state_joins", joins);
    out.set("core.engine.full_join_steps", sum(&|s| s.full_join_steps));
    out.set("core.engine.flows", sum(&|s| s.flows as u64));
    out.set("core.engine.use_edges", sum(&|s| s.use_edges as u64));
    out.set("core.engine.pred_edges", sum(&|s| s.pred_edges as u64));
    out.set("core.engine.obs_edges", sum(&|s| s.obs_edges as u64));
    out.set("core.engine.joins_per_step", joins / steps.max(1.0));
    out.set("core.scheduler.flips", sum(&|s| s.scheduler.flips));
    out.set(
        "core.scheduler.flip_at_step",
        sum(&|s| s.scheduler.flip_at_step),
    );
    out.set(
        "core.scheduler.order_repairs",
        sum(&|s| s.scheduler.order_repairs),
    );
    out.set(
        "core.scheduler.order_comps_moved",
        sum(&|s| s.scheduler.order_comps_moved),
    );
    out.set(
        "core.scheduler.scc_merges",
        sum(&|s| s.scheduler.scc_merges),
    );
    out.set(
        "core.scheduler.order_relabels",
        sum(&|s| s.scheduler.order_relabels),
    );
    out.set(
        "core.scheduler.rebucketed_flows",
        sum(&|s| s.scheduler.rebucketed_flows),
    );
    out.set(
        "core.scheduler.steps_in_cycles",
        sum(&|s| s.scheduler.steps_in_cycles),
    );
}
