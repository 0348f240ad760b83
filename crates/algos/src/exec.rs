//! Stage executors for the [`crate::engine::StagedEngine`].
//!
//! The engine's stage loop is executor-agnostic: it describes one stage as
//! a flat list of `WorkItem`s (one per sample to draw) and asks an
//! executor to fill a result slot per item. Two executors exist:
//!
//! * `SerialExec` — one reusable [`Sampler`] on the calling thread
//!   (engines without a `threads` count), drawing each stage as a
//!   single span with the pool workers' own span loop;
//! * a job of a [`SharedPool`] — a pool of owned threads that any
//!   number of sessions and solves submit jobs to concurrently. Each
//!   stage deals one chunk per worker; a chunk carries its job's context
//!   and a sender on the stage's reply channel, and workers re-draw a
//!   panicking chunk in place.
//!   A threaded solve that is handed no pool creates a `SharedPool` of
//!   its own and drops it when the solve ends.
//!
//! The pooled path serves required-attendee (partial) solves too: a
//! partial solve's samples are independent draws growing from the same
//! seed set, so they deal across workers exactly like fresh samples.
//!
//! Each pool worker owns one `Sampler` (and thus its `GrowthWorkspace`
//! and weight buffer), sized to the largest graph it has served and
//! reused by every job: a draw resets the workspace, and the chunk's
//! blocked set is applied before each chunk. A drawn [`Sample`] owns its
//! node list: the engine merges a stage's samples, feeds them to the
//! cross-entropy update and drops them.
//!
//! Determinism: every `(start node, stage, sample)` triple draws from its
//! own RNG stream (`sample_seed`), and results are keyed by item
//! index, so *which* worker draws a sample is irrelevant: any pool width
//! (and the serial executor) produces bit-identical solves.
//!
//! Stall cutoff: a failed draw means the start's component is smaller than
//! `k` (or the seed set cannot be completed), so every other draw of that
//! start fails too (deterministically). The span loop both executors
//! run publishes stalls in `StageShared::stalled` and skips the start's
//! remaining items — their result slots stay `None`, which is exactly
//! what drawing them would produce, so the cutoff is invisible to the
//! merge. This keeps the historical break-on-first-stall cost profile
//! and keeps serial/pooled wall-clock comparable on stall-heavy graphs.

mod shared;

pub use shared::{PoolStats, SharedPool, WorkerStats};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use rand::rngs::StdRng;
use rand::SeedableRng;
use waso_core::WasoInstance;
use waso_graph::{BitSet, NodeId};

use crate::cross_entropy::ProbabilityVector;
use crate::job::StopState;
use crate::sampler::{Sample, Sampler};

/// One unit of stage work: draw sample `q` of start node `start_index`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorkItem {
    /// Index into the engine's start-node roster.
    pub start_index: u32,
    /// The start node itself.
    pub start: NodeId,
    /// Sample number within this `(start, stage)` pair — the RNG stream id.
    pub q: u64,
}

/// Read-mostly state shared between the engine (coordinator) and pool
/// workers. The coordinator mutates the locked fields only *between*
/// stages — when every chunk of the stage has been answered — under a
/// write lock; workers hold read locks for the duration of one chunk. The
/// serial executor reads the same structure (uncontended, one lock per
/// stage) so the engine has a single code path.
///
/// Lock poisoning is deliberately ignored (`PoisonError::into_inner`):
/// workers only ever *read* these fields, so a worker that panics while
/// holding a read guard leaves the data untouched — treating that as
/// poison would let one injected (or real) worker panic wedge every other
/// job sharing the state, defeating the pool's in-place re-draws.
pub(crate) struct StageShared {
    /// The current stage's flattened work list (reused across stages).
    pub items: RwLock<Vec<WorkItem>>,
    /// Per-start-node selection vectors; empty for the uniform
    /// distribution (CBAS).
    pub vectors: RwLock<Vec<ProbabilityVector>>,
    /// One flag per start node, set (never cleared — a stall is a
    /// permanent property of the start's component) on the first failed
    /// draw. Relaxed ordering suffices: the flags only avoid provably
    /// futile work, results are identical whether a racing worker sees
    /// them or not.
    pub stalled: Vec<AtomicBool>,
}

impl StageShared {
    pub fn new(vectors: Vec<ProbabilityVector>, num_starts: usize) -> Self {
        Self {
            items: RwLock::new(Vec::new()),
            vectors: RwLock::new(vectors),
            stalled: (0..num_starts).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Read access that shrugs off poisoning (see the type docs).
    pub fn read_items(&self) -> RwLockReadGuard<'_, Vec<WorkItem>> {
        self.items.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Read access that shrugs off poisoning (see the type docs).
    pub fn read_vectors(&self) -> RwLockReadGuard<'_, Vec<ProbabilityVector>> {
        self.vectors.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Coordinator-side write access; poisoning recovery as above.
    pub fn write_items(&self) -> RwLockWriteGuard<'_, Vec<WorkItem>> {
        self.items.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Coordinator-side write access; poisoning recovery as above.
    pub fn write_vectors(&self) -> RwLockWriteGuard<'_, Vec<ProbabilityVector>> {
        self.vectors.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Out-of-range start indices read as "stalled": a worker holding a
    /// stale index must not draw from it, and certainly must not panic
    /// on the solve path.
    #[inline]
    fn is_stalled(&self, start_index: u32) -> bool {
        self.stalled
            .get(start_index as usize)
            .is_none_or(|s| s.load(Ordering::Relaxed))
    }

    #[inline]
    fn mark_stalled(&self, start_index: u32) {
        if let Some(s) = self.stalled.get(start_index as usize) {
            s.store(true, Ordering::Relaxed);
        }
    }
}

/// Everything one solve's executor reads: the serial executor borrows
/// it, the workers of a [`SharedPool`] hold an `Arc`. Owned (`Arc`ed
/// instance, owned seed list) because the pool's threads outlive any
/// borrow a single solve could offer.
pub(crate) struct SolveCtx {
    /// The validated instance, cloned into an `Arc` once per solve (or
    /// once per *batch* — the session facade reuses one `Arc` across a
    /// whole `solve_batch`).
    pub instance: Arc<WasoInstance>,
    /// Blocked nodes (declined invitees, §4.4.1).
    pub blocked: Option<BitSet>,
    /// The stage state this solve's coordinator and workers share.
    pub shared: StageShared,
    /// The solve's master seed.
    pub seed: u64,
    /// [`crate::engine::StartMode::Partial`] seed set; `None` for fresh
    /// solves.
    pub partial: Option<Vec<NodeId>>,
    /// The job's cancel/deadline signal, checked between samples so a
    /// trip abandons the in-flight chunk instead of riding the stage out.
    /// `None` for uncontrolled solves (no check, no overhead).
    pub stop: Option<Arc<StopState>>,
}

/// One worker's share of a stage's item list: every item from `offset`
/// on, `stride` apart. Results are keyed by item index, so which worker
/// draws which span cannot affect the answer — only the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub offset: usize,
    pub stride: usize,
}

impl Span {
    /// Worker `w`'s round-robin stripe in a deal over `stride` workers.
    pub fn stripe(w: usize, stride: usize) -> Self {
        Self { offset: w, stride }
    }
}

/// Draws one span of the current stage into `buf` (a shared-pool
/// worker's share of one chunk, or a serial stage's whole item list).
///
/// Each item draws from its own `sample_seed` stream. `vectors` is empty
/// for the uniform distribution; otherwise it holds one vector per start
/// node. In partial mode the sample grows from the whole seed set instead
/// of the item's start node — same RNG stream either way, so partial
/// solves stripe across workers exactly like fresh ones.
///
/// Returns `false` when the job's stop signal tripped before the span
/// finished: the partial draws in `buf` belong to a stage the engine will
/// abandon wholesale (stopping "at the previous stage boundary"), so an
/// early exit here can never change a merged result — it only bounds how
/// long a cancel or deadline overshoots.
fn draw_span(
    sampler: &mut Sampler,
    ctx: &SolveCtx,
    stage: u64,
    span: Span,
    buf: &mut Vec<(usize, Option<Sample>)>,
) -> bool {
    let items = ctx.shared.read_items();
    let vectors = ctx.shared.read_vectors();
    let mut j = span.offset;
    while let Some(&item) = items.get(j) {
        if ctx.stop.as_deref().is_some_and(StopState::stop_requested) {
            return false;
        }
        // Skipped items' result slots stay None — the outcome a draw
        // would have produced.
        if !ctx.shared.is_stalled(item.start_index) {
            let mut rng = StdRng::seed_from_u64(crate::sample_seed(
                ctx.seed,
                item.start_index as u64,
                stage,
                item.q,
            ));
            let probs = vectors.get(item.start_index as usize);
            let s = match ctx.partial.as_deref() {
                Some(seeds) => sampler.sample_from_partial(&ctx.instance, seeds, probs, &mut rng),
                None => sampler.sample(&ctx.instance, item.start, probs, &mut rng),
            };
            if s.is_none() {
                ctx.shared.mark_stalled(item.start_index);
            }
            buf.push((j, s));
        }
        j += span.stride;
    }
    true
}

/// A stage executor: fills `results[j]` with the outcome of item `j`.
///
/// Returns whether the stage ran to completion: `false` means the job's
/// stop signal tripped mid-stage, some result slots were never drawn,
/// and the engine must abandon the stage unmerged.
pub(crate) trait StageExec {
    fn run_stage(&mut self, stage: u64, results: &mut [Option<Sample>]) -> bool;
}

/// The calling-thread executor: one sampler, items drawn in order.
pub(crate) struct SerialExec<'a> {
    pub ctx: &'a SolveCtx,
    pub sampler: Sampler,
    /// Drawn `(item index, sample)` pairs, reused across stages.
    pub buf: Vec<(usize, Option<Sample>)>,
}

impl StageExec for SerialExec<'_> {
    fn run_stage(&mut self, stage: u64, results: &mut [Option<Sample>]) -> bool {
        self.buf.clear();
        let complete = draw_span(
            &mut self.sampler,
            self.ctx,
            stage,
            Span::stripe(0, 1),
            &mut self.buf,
        );
        for (j, s) in self.buf.drain(..) {
            if let Some(r) = results.get_mut(j) {
                *r = s;
            }
        }
        complete
    }
}
