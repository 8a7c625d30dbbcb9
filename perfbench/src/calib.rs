//! Host-speed calibration: a fixed reference computation, timed in short
//! slices beside the measured work.
//!
//! The benchmark's host is a share of a machine whose single-thread speed
//! drifts with its neighbours' load, in phases from seconds to minutes. A
//! phase that covers several whole runs moves every CPU-bound wall time by
//! the same factor, and no median inside one run can take it out. A
//! calibration slice is code of this crate alone, so no change to the
//! program under test can move it: it does the same work on every commit,
//! and its time tracks the host's speed at that moment. A CPU-bound time
//! is reported at the reference speed, `wall × REFERENCE_SLICE_MS / slice`,
//! where `slice` is the median of the slices timed around it.
//!
//! A slice has two halves, each leaning on what the analysis leans on, so
//! that a slower phase slows the slice and the analysis alike:
//!
//! * a points-to-style propagation: a FIFO worklist pushes 256-bit type
//!   sets through a fixed random graph with a type filter on every edge,
//!   over a working set of about 2 MiB (dependent loads and branches past
//!   the core's first caches); it allocates nothing once built;
//! * a collections churn: seeded keys grouped in a `HashMap` of `Vec`s and
//!   indexed in a `BTreeMap`, then sorted and scanned, all freed again (a
//!   wide code footprint and the allocator, as decoding and building a
//!   session have).
//!
//! Over ten 20-second runs on the 2-core host the README describes, the
//! propagation alone cut the run-to-run spread of the analysis' wall time
//! (coefficient of variation) from 0.057 to 0.038, and the whole slice to
//! 0.029.

use crate::churn::Rng;
use crate::stats::median;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The slice time that defines the reference speed (ms). A slice takes
/// about this long on the 2-core host the README describes.
pub const REFERENCE_SLICE_MS: f64 = 1.0;

/// Graph nodes.
const NODES: usize = 16384;
/// Out-edges per node.
const DEGREE: usize = 3;
/// Nodes seeded with one type each.
const SOURCES: usize = 96;
/// Worklist pops per slice: a fixed amount of work, well short of the
/// fixpoint, by which time the propagation has spread over the whole graph.
const POPS: usize = 2_000;
/// Keys of the collections half.
const KEYS: u32 = 2_000;
/// Groups the keys fall into.
const GROUPS: u32 = 512;

/// One 256-bit type set.
type Types = [u64; 4];

/// The reference computation, built once; [`Calibration::slice`] times it.
pub struct Calibration {
    succ: Vec<u32>,
    filter: Vec<Types>,
    seeds: Vec<(u32, Types)>,
    sets: Vec<Types>,
    queued: Vec<bool>,
    queue: Vec<u32>,
    /// Every slice timed so far (ms).
    slices: Vec<f64>,
}

impl Calibration {
    /// Builds the fixed graph. The graph does not depend on the run's seed.
    pub fn new() -> Calibration {
        let mut rng = Rng::new(0x5eed, 7);
        let succ = (0..NODES * DEGREE)
            .map(|_| rng.below(NODES) as u32)
            .collect();
        let filter = (0..NODES * DEGREE)
            .map(|_| {
                let mut t = [0u64; 4];
                for w in &mut t {
                    *w = rng.next_u64() | rng.next_u64();
                }
                t
            })
            .collect();
        let seeds = (0..SOURCES)
            .map(|_| {
                let ty = rng.below(256);
                let mut t = [0u64; 4];
                t[ty / 64] |= 1 << (ty % 64);
                (rng.below(NODES) as u32, t)
            })
            .collect();
        Calibration {
            succ,
            filter,
            seeds,
            sets: vec![[0; 4]; NODES],
            queued: vec![false; NODES],
            queue: Vec::with_capacity(SOURCES + POPS * DEGREE),
            slices: Vec::new(),
        }
    }

    /// Runs and times one slice.
    pub fn slice(&mut self) {
        let t = Instant::now();
        black_box(self.propagate());
        black_box(collections());
        self.slices.push(t.elapsed().as_secs_f64() * 1e3);
    }

    /// Slices timed so far; pass it to [`Calibration::scale_since`] later.
    pub fn mark(&self) -> usize {
        self.slices.len()
    }

    /// The factor that takes a wall time measured while the slices from
    /// `mark` on were timed to the reference speed:
    /// `REFERENCE_SLICE_MS / median slice`.
    pub fn scale_since(&self, mark: usize) -> f64 {
        REFERENCE_SLICE_MS / median(&self.slices[mark..])
    }

    /// Median slice time (ms) of the whole run: the host's speed.
    pub fn median_ms(&self) -> f64 {
        median(&self.slices)
    }

    /// [`POPS`] worklist steps from the seeded sources; returns the facts
    /// derived.
    fn propagate(&mut self) -> u64 {
        self.sets.fill([0; 4]);
        self.queue.clear();
        self.queued.fill(false);
        for &(n, t) in &self.seeds {
            let s = &mut self.sets[n as usize];
            for i in 0..4 {
                s[i] |= t[i];
            }
            if !self.queued[n as usize] {
                self.queued[n as usize] = true;
                self.queue.push(n);
            }
        }
        let mut head = 0;
        let mut derived = 0u64;
        while head < POPS && head < self.queue.len() {
            let n = self.queue[head] as usize;
            head += 1;
            self.queued[n] = false;
            let from = self.sets[n];
            for e in n * DEGREE..(n + 1) * DEGREE {
                let m = self.succ[e] as usize;
                let f = &self.filter[e];
                let to = &mut self.sets[m];
                let mut grew = false;
                for i in 0..4 {
                    let new = to[i] | (from[i] & f[i]);
                    grew |= new != to[i];
                    to[i] = new;
                }
                if grew {
                    derived += 1;
                    if !self.queued[m] {
                        self.queued[m] = true;
                        self.queue.push(m as u32);
                    }
                }
            }
        }
        derived
    }
}

/// The collections half of a slice; returns a digest of what it built.
fn collections() -> u64 {
    let mut rng = Rng::new(0x5eed, 8);
    let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut index: BTreeMap<u32, u32> = BTreeMap::new();
    for i in 0..KEYS {
        let k = rng.next_u64() as u32;
        groups.entry(k % GROUPS).or_default().push(k);
        index.insert(k, i);
    }
    let mut keys: Vec<u32> = groups.into_values().flatten().collect();
    keys.sort_unstable();
    let upper: u64 = index
        .range(u32::MAX / 2..)
        .map(|(&k, &i)| u64::from(k ^ i))
        .sum();
    keys.iter()
        .step_by(7)
        .fold(upper, |a, &k| a.wrapping_mul(31).wrapping_add(u64::from(k)))
}
