//! The seeded mutation script every workload shares, and its in-process
//! application to an [`AnalysisSession`].
//!
//! The script is a sequence of *pairs*, each a grow and a shrink mutation
//! that together leave the analysed state where they found it:
//!
//! * a root pair adds a method as an entry point (grow: monotone resume)
//!   and retracts it again (shrink: DRed invalidate + re-derive);
//! * an edit pair disables a reachable method's body (shrink) and restores
//!   it (grow).
//!
//! The program's own roots and reflective roots are never retracted or
//! disabled, so reach never collapses to a handful of methods, and every
//! run ends on the fixpoint it started from — whatever the seed.

use crate::trace::Tracer;
use skipflow_core::{
    AnalysisConfig, AnalysisError, AnalysisSession, CallEdge, InvalidationStats, MethodEdit,
    ReachableSet,
};
use skipflow_ir::{MethodId, Program};
use std::time::Duration;

/// SplitMix64: a tiny, fully specified generator, so a seed means the same
/// inputs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and stream `stream` (independent sequences
    /// for independent uses of one seed).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `v` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One mutation of the analysed state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Add an entry point (grow).
    AddRoot(MethodId),
    /// Retract an entry point (shrink).
    Retract(MethodId),
    /// Disable a method body (shrink).
    Disable(MethodId),
    /// Restore a disabled body (grow).
    Restore(MethodId),
}

impl Op {
    /// Whether the mutation is monotone (only adds facts).
    pub fn is_grow(self) -> bool {
        matches!(self, Op::AddRoot(_) | Op::Restore(_))
    }

    /// The server protocol line for this mutation on `session`.
    pub fn line(self, session: &str) -> String {
        match self {
            Op::AddRoot(m) => format!("roots {session} #{}", m.index()),
            Op::Retract(m) => format!("retract {session} #{}", m.index()),
            Op::Disable(m) => format!("edit {session} #{} disable", m.index()),
            Op::Restore(m) => format!("edit {session} #{} restore", m.index()),
        }
    }
}

/// One pair in this many is an edit pair.
pub const EDIT_EVERY: u64 = 4;
/// Edit targets per program: evenly spaced ranks of the by-reach list.
const EDIT_SET: usize = 4;
/// Root-pair targets per program: as many as one cycle has root pairs.
const ROOT_SET: usize = (EDIT_EVERY as usize - 1) * EDIT_SET;
/// Pairs in one cycle of the script, which applies every edit target and
/// every root target once.
pub const CYCLE: u64 = EDIT_EVERY * EDIT_SET as u64;

/// Where the script may point its mutations for one program.
pub struct Plan {
    /// [`ROOT_SET`] evenly spaced ranks of the methods with a body that are
    /// not protected, listed by how much of the baseline call graph each
    /// reaches.
    root_targets: Vec<MethodId>,
    /// [`EDIT_SET`] evenly spaced ranks of the same list restricted to the
    /// methods reachable at the baseline fixpoint (disabling an unreachable
    /// body would change nothing).
    edit_targets: Vec<MethodId>,
    /// Seeded start in the root-target cycle.
    root_phase: usize,
    /// Seeded start in the edit-target cycle.
    edit_phase: usize,
}

impl Plan {
    /// The targets for `program`, never touching `protected` (own and
    /// reflective roots). `baseline` and `edges` are the reachable methods
    /// and call edges of the fixpoint over the own roots; `rng` seeds where
    /// the root-target and edit-target cycles start.
    pub fn new(
        program: &Program,
        protected: &[MethodId],
        baseline: &ReachableSet,
        edges: &[CallEdge],
        rng: &mut Rng,
    ) -> Plan {
        let candidates = by_reach(
            program
                .iter_methods()
                .filter(|&m| program.method(m).body.is_some() && !protected.contains(&m)),
            edges,
            program.method_count(),
        );
        let reachable: Vec<MethodId> = candidates
            .iter()
            .copied()
            .filter(|&m| baseline.contains(m))
            .collect();
        let root_targets = spaced(&candidates, ROOT_SET);
        let edit_targets = spaced(&reachable, EDIT_SET);
        assert!(
            !root_targets.is_empty() && !edit_targets.is_empty(),
            "program offers no mutation targets"
        );
        Plan {
            root_phase: rng.below(root_targets.len()),
            edit_phase: rng.below(edit_targets.len()),
            root_targets,
            edit_targets,
        }
    }

    /// Pair `index` of the script, in the order it is applied. Every
    /// [`EDIT_EVERY`]th pair is an edit pair and the rest are root pairs,
    /// so each flush-latency percentile sits inside one mechanism's
    /// distribution (p50: root add/retract; p90: body restore/disable).
    ///
    /// Both kinds cycle through a fixed set of targets per program, from a
    /// seeded start. Adding and retracting a root, like restoring and
    /// disabling a body, costs from a few microseconds on a leaf to
    /// milliseconds on a hub; a seeded *sample* of targets would let one
    /// seed catch hubs that another misses, and the tail percentiles would
    /// follow them. Each set spans its by-reach list evenly, so cheap
    /// leaves and expensive hubs are all in it, and [`CYCLE`] pairs apply
    /// every target once.
    pub fn pair(&self, index: u64) -> [Op; 2] {
        let edits_before = (index / EDIT_EVERY) as usize;
        if index % EDIT_EVERY == EDIT_EVERY - 1 {
            let m = self.edit_targets[(self.edit_phase + edits_before) % self.edit_targets.len()];
            [Op::Disable(m), Op::Restore(m)]
        } else {
            let j = index as usize - edits_before;
            let m = self.root_targets[(self.root_phase + j) % self.root_targets.len()];
            [Op::AddRoot(m), Op::Retract(m)]
        }
    }
}

/// `n` evenly spaced ranks of `list` (fewer when it is shorter).
fn spaced(list: &[MethodId], n: usize) -> Vec<MethodId> {
    let mut picked: Vec<MethodId> = (0..n)
        .filter_map(|k| list.get((2 * k + 1) * list.len() / (2 * n)))
        .copied()
        .collect();
    picked.dedup();
    picked
}

/// `targets` ordered by how many methods each reaches through `edges`
/// (ties by id) — a proxy for what a mutation of it costs.
fn by_reach(
    targets: impl Iterator<Item = MethodId>,
    edges: &[CallEdge],
    methods: usize,
) -> Vec<MethodId> {
    let mut callees: Vec<Vec<usize>> = vec![Vec::new(); methods];
    for e in edges {
        callees[e.caller.index()].push(e.callee.index());
    }
    // `seen[v] == i` marks `v` visited by the walk from the `i`th target.
    let mut seen = vec![usize::MAX; methods];
    let mut stack = Vec::new();
    let mut keyed: Vec<(usize, MethodId)> = targets
        .enumerate()
        .map(|(i, m)| {
            let mut reached = 0;
            seen[m.index()] = i;
            stack.push(m.index());
            while let Some(v) = stack.pop() {
                reached += 1;
                for &w in &callees[v] {
                    if seen[w] != i {
                        seen[w] = i;
                        stack.push(w);
                    }
                }
            }
            (reached, m)
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, m)| m).collect()
}

/// What one in-process mutation and the solve after it cost.
pub struct Applied {
    /// The mutation.
    pub op: Op,
    /// Mutation call plus solve (the in-process "flush").
    pub total: Duration,
    /// Of `total`, the mutation call alone — for a shrink, the invalidation.
    pub mutate: Duration,
    /// Worklist steps of the solve.
    pub steps: u64,
    /// Invalidation counters this mutation added.
    pub invalidation: InvalidationStats,
}

/// Applies `op` to `session` and solves, recording `core.session.resume`
/// (grow) or `core.session.invalidate` + `core.session.rederive` (shrink).
pub fn apply(
    session: &mut AnalysisSession<'_>,
    op: Op,
    tr: &mut Tracer,
    req: u64,
) -> Result<Applied, AnalysisError> {
    let before = session.snapshot().stats().invalidation;
    let (mutate_span, solve_span) = if op.is_grow() {
        ("core.session.resume", None)
    } else {
        ("core.session.invalidate", Some("core.session.rederive"))
    };
    let outer = tr.begin(mutate_span, req);
    match op {
        Op::AddRoot(m) => session.add_roots([m]).map(drop)?,
        Op::Retract(m) => session.retract_roots([m]).map(drop)?,
        Op::Disable(m) => session.apply_edit(m, MethodEdit::DisableBody).map(drop)?,
        Op::Restore(m) => session.apply_edit(m, MethodEdit::RestoreBody).map(drop)?,
    }
    let (mutate, solve_time) = match solve_span {
        None => {
            session.try_solve()?;
            (Duration::ZERO, tr.end(outer))
        }
        Some(name) => {
            let mutate = tr.end(outer);
            let s = tr.begin(name, req);
            session.try_solve()?;
            (mutate, tr.end(s))
        }
    };
    let after = session.snapshot().stats().invalidation;
    Ok(Applied {
        op,
        total: mutate + solve_time,
        mutate,
        steps: session.last_solve_steps(),
        invalidation: InvalidationStats {
            retractions: after.retractions - before.retractions,
            edits: after.edits - before.edits,
            invalidated_methods: after.invalidated_methods - before.invalidated_methods,
            invalidated_flows: after.invalidated_flows - before.invalidated_flows,
            rederive_steps: after.rederive_steps - before.rederive_steps,
        },
    })
}

/// A fresh solve: the oracle an incremental state must equal, and the cost
/// it is compared against.
pub struct Fresh {
    /// The fresh fixpoint's reachable methods.
    pub reachable: ReachableSet,
    /// Its `Metrics::binary_size_bytes`.
    pub binary_size: usize,
    /// Its worklist steps.
    pub steps: u64,
    /// Build plus solve.
    pub time: Duration,
}

/// Solves `roots` of `program` from scratch under `config` (which carries
/// the masked methods).
pub fn fresh(
    program: &Program,
    config: AnalysisConfig,
    roots: &[MethodId],
    tr: &mut Tracer,
    req: u64,
) -> Result<Fresh, AnalysisError> {
    let s = tr.begin("fresh", req);
    let mut oracle = AnalysisSession::builder(program)
        .config(config)
        .roots(roots.iter().copied())
        .build()?;
    let snap = oracle.try_solve()?;
    let time = tr.end(s);
    Ok(Fresh {
        reachable: snap.reachable_methods().clone(),
        binary_size: snap.metrics(program).binary_size_bytes,
        steps: snap.stats().steps,
        time,
    })
}

/// [`fresh`] of `session`'s current roots and mask under its config.
pub fn fresh_like(
    session: &AnalysisSession<'_>,
    tr: &mut Tracer,
    req: u64,
) -> Result<Fresh, AnalysisError> {
    let config = session
        .config()
        .clone()
        .with_masked_methods(session.masked_methods());
    fresh(session.program(), config, session.roots(), tr, req)
}
