//! Job control for anytime solves: cancellation, deadlines, progress and
//! incumbent streaming.
//!
//! The staged solvers of this crate are *anytime* algorithms — every stage
//! ends with a feasible incumbent (§3's CBAS keeps the best sampled
//! solution after each of its `r` stages) — but a blocking `solve()` call
//! hides that structure: the caller cannot cancel a solve whose client
//! hung up, bound tail latency with a deadline, or read the best-so-far
//! group early. [`JobControl`] is the shared handle that exposes it:
//!
//! * the caller (a `SolveHandle`, a server, a test) **cancels** or arms a
//!   **deadline**; the engine and its executors check before every
//!   *sample*, so the solve stops within one sample of either tripping
//!   and returns the incumbent of its last completed stage;
//! * the engine **publishes** progress after every stage — stages done,
//!   samples spent, the incumbent's willingness — and streams each
//!   *improving* incumbent over an optional channel
//!   ([`JobControl::take_incumbents`]);
//! * a stopped solve still returns its incumbent, tagged with a typed
//!   [`Termination`] reason in [`crate::SolverStats::termination`].
//!
//! Control is strictly *one-directional in determinism terms*: a cancel or
//! deadline only decides **how many stages run**, never what any stage
//! computes — a solve that is never stopped is bit-identical to one run
//! without a control attached, and the stages that did run before a stop
//! are bit-identical prefixes of the full solve.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use waso_graph::NodeId;

/// Why a solve stopped. Carried on every [`crate::SolverStats`]; anything
/// other than [`Termination::Completed`] means the result is the best
/// incumbent *found so far*, not the full-budget answer (and
/// [`crate::SolverStats::truncated`] is set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Termination {
    /// The solve ran its course: full budget, or the `patience=` early
    /// stop after the configured number of non-improving stages (the
    /// latter also sets [`crate::SolverStats::truncated`]).
    #[default]
    Completed,
    /// The `deadline_ms=` (or `deadline_from_submit=`) wall-clock budget
    /// elapsed; pool workers abandon the in-flight stage mid-chunk and
    /// the result is the incumbent of the last *completed* stage.
    Deadline,
    /// [`JobControl::cancel`] was called (directly, or by dropping an
    /// unawaited `SolveHandle`); like a deadline, sampling stops
    /// mid-chunk and the in-flight stage is abandoned.
    Cancelled,
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Termination::Completed => write!(f, "completed"),
            Termination::Deadline => write!(f, "deadline"),
            Termination::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// One streamed best-so-far solution: the engine sends one of these after
/// every stage that *improved* the incumbent (so the stream is strictly
/// increasing in willingness).
#[derive(Debug, Clone)]
pub struct Incumbent {
    /// Stages completed when this incumbent was current (1-based: the
    /// incumbent after the first stage reports `stage == 1`).
    pub stage: u32,
    /// Samples spent so far.
    pub samples_drawn: u64,
    /// The incumbent group's willingness.
    pub willingness: f64,
    /// The incumbent group's members (unsorted engine order).
    pub nodes: Vec<NodeId>,
}

/// A point-in-time progress snapshot of a running (or finished) job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobProgress {
    /// Stages the solve has completed.
    pub stages_done: u32,
    /// Samples spent so far.
    pub samples_spent: u64,
    /// Willingness of the current incumbent, `None` before the first
    /// feasible sample.
    pub incumbent: Option<f64>,
    /// Whether the solve has finished (result available / error surfaced).
    pub finished: bool,
}

/// `f64::NAN` bit pattern used as the "no incumbent yet" sentinel in the
/// atomic incumbent-value cell.
const NO_INCUMBENT: u64 = u64::MAX;

/// "No deadline armed" sentinel in [`StopState::deadline_nanos`].
const UNARMED: u64 = u64::MAX;

/// The lock-free stop signal a [`JobControl`] shares with the workers
/// executing its solve: a cancel flag plus the armed deadline, stored as
/// nanoseconds since the control's creation so checking costs two relaxed
/// atomic loads (plus one `Instant::now()` only while a deadline is
/// armed). Both executors consult this before every *sample*, so a trip
/// bounds overshoot far tighter than a stage boundary would.
#[derive(Debug)]
pub(crate) struct StopState {
    cancelled: AtomicBool,
    /// Armed deadline as nanoseconds after `epoch`, or [`UNARMED`]. The
    /// earliest armed value wins (`fetch_min`).
    deadline_nanos: AtomicU64,
    epoch: Instant,
}

impl StopState {
    fn new() -> Self {
        Self {
            cancelled: AtomicBool::new(false),
            deadline_nanos: AtomicU64::new(UNARMED),
            epoch: Instant::now(), // audit:allow(D2): the StopState deadline plumbing is the sanctioned clock source
        }
    }

    fn arm_at(&self, at: Instant) {
        let nanos = at.saturating_duration_since(self.epoch).as_nanos();
        let nanos = u64::try_from(nanos).unwrap_or(UNARMED - 1).min(UNARMED - 1);
        self.deadline_nanos.fetch_min(nanos, Ordering::AcqRel);
    }

    fn deadline_elapsed(&self) -> bool {
        let armed = self.deadline_nanos.load(Ordering::Relaxed);
        armed != UNARMED && self.epoch.elapsed().as_nanos() as u64 >= armed
    }

    /// Whether the job must stop (cancelled or past its deadline). The
    /// hot-path check workers run between samples.
    pub(crate) fn stop_requested(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed) || self.deadline_elapsed()
    }
}

/// The shared control block between a solve and whoever is watching it.
///
/// Construction is [`JobControl::new`]; hand it to a solve through
/// [`crate::SolveRequest::control`] (the session facade's
/// `submit`/`SolveHandle` machinery does this for you) and use the same
/// control — behind an `Arc` when shared across threads — to cancel, poll
/// progress, or stream incumbents. All methods take
/// `&self` and are safe to call from any thread at any time — including
/// after the solve finished, when they become no-ops.
#[derive(Debug)]
pub struct JobControl {
    /// The cancel/deadline signal, `Arc`'d so pool workers can hold a
    /// clone and check it between samples.
    stop: Arc<StopState>,
    stages_done: AtomicU32,
    samples_spent: AtomicU64,
    /// The incumbent willingness as `f64::to_bits`, or [`NO_INCUMBENT`].
    incumbent_bits: AtomicU64,
    finished: AtomicBool,
    /// Incumbent stream; dropped (closing the receiver's iterator) when
    /// the job finishes.
    incumbent_tx: Mutex<Option<Sender<Incumbent>>>,
    /// Latest-only copy of the newest incumbent, overwritten on every
    /// improvement — the watch view behind `SolveHandle::latest_incumbent`.
    latest: Mutex<Option<Incumbent>>,
}

impl Default for JobControl {
    fn default() -> Self {
        Self::new()
    }
}

impl JobControl {
    /// A fresh control: not cancelled, no deadline, nothing published.
    pub fn new() -> Self {
        Self {
            stop: Arc::new(StopState::new()),
            stages_done: AtomicU32::new(0),
            samples_spent: AtomicU64::new(0),
            incumbent_bits: AtomicU64::new(NO_INCUMBENT),
            finished: AtomicBool::new(false),
            incumbent_tx: Mutex::new(None),
            latest: Mutex::new(None),
        }
    }

    /// The shared stop signal, for stage executors that check it
    /// between samples.
    pub(crate) fn stop_state(&self) -> Arc<StopState> {
        Arc::clone(&self.stop)
    }

    /// Requests cancellation: workers abandon the in-flight stage
    /// mid-chunk and the solve returns its current incumbent with
    /// [`Termination::Cancelled`]. Idempotent; a no-op on finished jobs.
    pub fn cancel(&self) {
        self.stop.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether [`JobControl::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.stop.cancelled.load(Ordering::SeqCst)
    }

    /// Arms an absolute deadline. The engine calls this at solve start
    /// when the spec carries `deadline_ms=`; callers may arm one earlier
    /// (e.g. at submit time, to bound queue wait too — the session does
    /// exactly that for `deadline_from_submit=`). The earliest armed
    /// deadline wins — arming never extends an existing one.
    pub fn arm_deadline_at(&self, at: Instant) {
        self.stop.arm_at(at);
    }

    /// [`JobControl::arm_deadline_at`] relative to now.
    pub fn arm_deadline(&self, after: Duration) {
        self.arm_deadline_at(Instant::now() + after); // audit:allow(D2): the StopState deadline plumbing is the sanctioned clock source
    }

    /// The reason this job must stop, if any. Cancellation dominates an
    /// elapsed deadline (it is the more specific signal). Checked by the
    /// engine at every stage boundary, and by both executors before
    /// every sample via the shared stop state.
    pub fn stop_reason(&self) -> Option<Termination> {
        if self.is_cancelled() {
            return Some(Termination::Cancelled);
        }
        if self.stop.deadline_elapsed() {
            return Some(Termination::Deadline);
        }
        None
    }

    /// The newest streamed incumbent, or `None` before the first feasible
    /// one. A *latest-only* watch view over the incumbent stream: reading
    /// never consumes anything and a slow reader never backs anything up
    /// — improvements simply overwrite the cell.
    pub fn latest_incumbent(&self) -> Option<Incumbent> {
        self.latest
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// A snapshot of the job's progress.
    pub fn progress(&self) -> JobProgress {
        let bits = self.incumbent_bits.load(Ordering::Acquire);
        JobProgress {
            stages_done: self.stages_done.load(Ordering::Acquire),
            samples_spent: self.samples_spent.load(Ordering::Acquire),
            incumbent: (bits != NO_INCUMBENT).then(|| f64::from_bits(bits)),
            finished: self.finished.load(Ordering::Acquire),
        }
    }

    /// Attaches the incumbent stream and returns its receiving end. The
    /// sender is dropped when the job finishes, so iterating the receiver
    /// terminates exactly when the final result is available. One stream
    /// per job; later calls replace the sender (the old receiver sees the
    /// stream end).
    pub fn take_incumbents(&self) -> Receiver<Incumbent> {
        let (tx, rx) = std::sync::mpsc::channel();
        *self
            .incumbent_tx
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(tx);
        rx
    }

    /// Solver-side: record one completed stage (or a whole single-pass
    /// solve). `improved` carries the new incumbent when this stage
    /// raised it; improvements are also streamed to the incumbent
    /// channel, if one is attached. Public so custom solvers registered
    /// from other crates can publish too.
    pub fn publish_stage(
        &self,
        stages_done: u32,
        samples_spent: u64,
        improved: Option<(f64, &[NodeId])>,
    ) {
        self.stages_done.store(stages_done, Ordering::Release);
        self.samples_spent.store(samples_spent, Ordering::Release);
        if let Some((willingness, nodes)) = improved {
            self.incumbent_bits
                .store(willingness.to_bits(), Ordering::Release);
            let incumbent = Incumbent {
                stage: stages_done,
                samples_drawn: samples_spent,
                willingness,
                nodes: nodes.to_vec(),
            };
            *self.latest.lock().unwrap_or_else(PoisonError::into_inner) = Some(incumbent.clone());
            let tx = self
                .incumbent_tx
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(tx) = tx.as_ref() {
                // A gone receiver just means nobody is listening.
                let _ = tx.send(incumbent);
            }
        }
    }

    /// Marks the job finished and closes the incumbent stream. Called by
    /// the session machinery (and by solvers that finish without one);
    /// idempotent.
    pub fn finish(&self) {
        self.finished.store(true, Ordering::SeqCst);
        *self
            .incumbent_tx
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_control_has_no_stop_reason() {
        let c = JobControl::new();
        assert_eq!(c.stop_reason(), None);
        let p = c.progress();
        assert_eq!(p.stages_done, 0);
        assert_eq!(p.samples_spent, 0);
        assert_eq!(p.incumbent, None);
        assert!(!p.finished);
    }

    #[test]
    fn cancel_dominates_deadline() {
        let c = JobControl::new();
        c.arm_deadline(Duration::from_millis(0));
        assert_eq!(c.stop_reason(), Some(Termination::Deadline));
        c.cancel();
        assert_eq!(c.stop_reason(), Some(Termination::Cancelled));
    }

    #[test]
    fn earliest_deadline_wins() {
        let c = JobControl::new();
        let soon = Instant::now();
        c.arm_deadline_at(soon);
        // A later deadline must not extend the armed one.
        c.arm_deadline(Duration::from_secs(3600));
        assert_eq!(c.stop_reason(), Some(Termination::Deadline));
    }

    #[test]
    fn publish_and_stream_incumbents() {
        let c = JobControl::new();
        let rx = c.take_incumbents();
        c.publish_stage(1, 10, Some((2.5, &[NodeId(0), NodeId(1)])));
        c.publish_stage(2, 20, None); // no improvement: nothing streamed
        c.publish_stage(3, 30, Some((3.5, &[NodeId(0), NodeId(2)])));
        c.finish();
        let seen: Vec<Incumbent> = rx.iter().collect();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].stage, 1);
        assert_eq!(seen[0].willingness, 2.5);
        assert_eq!(seen[1].stage, 3);
        assert_eq!(seen[1].samples_drawn, 30);
        let p = c.progress();
        assert_eq!(p.stages_done, 3);
        assert_eq!(p.samples_spent, 30);
        assert_eq!(p.incumbent, Some(3.5));
        assert!(p.finished);
    }

    #[test]
    fn latest_incumbent_is_a_lossy_watch_view() {
        let c = JobControl::new();
        assert!(c.latest_incumbent().is_none());
        c.publish_stage(1, 10, Some((2.5, &[NodeId(0)])));
        c.publish_stage(3, 30, Some((3.5, &[NodeId(0), NodeId(2)])));
        // Reading twice returns the same newest value: nothing consumed.
        for _ in 0..2 {
            let latest = c.latest_incumbent().expect("an incumbent was published");
            assert_eq!(latest.stage, 3);
            assert_eq!(latest.willingness, 3.5);
            assert_eq!(latest.nodes, vec![NodeId(0), NodeId(2)]);
        }
    }

    #[test]
    fn stop_state_trips_on_cancel_and_deadline() {
        let c = JobControl::new();
        let stop = c.stop_state();
        assert!(!stop.stop_requested());
        c.arm_deadline(Duration::from_secs(3600));
        assert!(!stop.stop_requested());
        c.arm_deadline(Duration::from_millis(0));
        assert!(stop.stop_requested(), "elapsed deadline must trip");
        let c2 = JobControl::new();
        let stop2 = c2.stop_state();
        c2.cancel();
        assert!(stop2.stop_requested(), "cancel must trip");
    }

    #[test]
    fn termination_displays() {
        assert_eq!(Termination::Completed.to_string(), "completed");
        assert_eq!(Termination::Deadline.to_string(), "deadline");
        assert_eq!(Termination::Cancelled.to_string(), "cancelled");
    }
}
