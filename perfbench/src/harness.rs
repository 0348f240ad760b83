//! The closed-loop runner and the bookkeeping every workload shares.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::trace::SpanLog;

/// What one operation reported back to the loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// The operation succeeded and its answer passed the inline checks.
    pub ok: bool,
    /// Willingness of the returned group (ignored when `!ok`).
    pub quality: f64,
}

/// One client thread's view of a closed loop.
pub struct Client<T> {
    pub thread: usize,
    pub log: SpanLog,
    pub state: T,
}

/// The outcome of a measurement window.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Latency of every attempted operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Willingness of every successful operation's group.
    pub quality: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time from the start of the window until its last operation
    /// returned.
    pub elapsed_s: f64,
}

impl Window {
    /// Records one operation.
    pub fn record(&mut self, latency_ms: f64, op: Op) {
        self.latencies_ms.push(latency_ms);
        self.attempted += 1;
        if op.ok {
            self.quality.push(op.quality);
        } else {
            self.failed += 1;
        }
    }

    /// Completed (successful) operations per second.
    pub fn throughput(&self) -> f64 {
        crate::stats::ratio((self.attempted - self.failed) as f64, self.elapsed_s)
    }

    /// Folds another window's operations into this one (wall times add:
    /// the windows ran one after the other).
    pub fn absorb(&mut self, other: Window) {
        self.latencies_ms.extend(other.latencies_ms);
        self.quality.extend(other.quality);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed_s += other.elapsed_s;
    }
}

/// Runs a closed loop: one client per element of `states` sends its
/// next operation only after the previous one returned, until `seconds`
/// have passed. Operation ids are handed out from one counter starting
/// at `first_op`, so the inputs of operation `i` do not depend on which
/// client runs it. A client's state (a connection, say) is built before
/// the clock starts and handed back afterwards.
pub fn closed_loop<T: Send>(
    states: Vec<T>,
    seconds: f64,
    first_op: u64,
    log: &SpanLog,
    op: impl Fn(&mut Client<T>, u64) -> Op + Sync,
) -> (Window, Vec<Client<T>>) {
    let next = AtomicU64::new(first_op);
    let mut clients: Vec<Client<T>> = states
        .into_iter()
        .enumerate()
        .map(|(thread, state)| Client {
            thread,
            log: log.empty(),
            state,
        })
        .collect();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let windows: Vec<Window> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (next, op) = (&next, &op);
                s.spawn(move || {
                    let mut window = Window::default();
                    while Instant::now() < deadline {
                        let id = next.fetch_add(1, Ordering::Relaxed);
                        let t0 = Instant::now();
                        let outcome = op(client, id);
                        window.record(t0.elapsed().as_secs_f64() * 1e3, outcome);
                    }
                    window
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let mut total = Window {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..Window::default()
    };
    for w in windows {
        total.absorb(Window {
            elapsed_s: 0.0,
            ..w
        });
    }
    (total, clients)
}

/// Runs `setup` `times` times and keeps the last state. Returns it with
/// the wall time of every run, in seconds. Earlier states are dropped
/// outside the timed region.
pub fn timed_setups<S>(times: usize, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut secs = Vec::with_capacity(times);
    let mut kept = None;
    for _ in 0..times.max(1) {
        drop(kept.take());
        let t0 = Instant::now();
        let state = setup();
        secs.push(t0.elapsed().as_secs_f64());
        kept = Some(state);
    }
    (kept.expect("at least one setup ran"), secs)
}

/// Runs `f` `reps` times and returns the median wall time per call of
/// `f`, in microseconds, where one call of `f` performs `inner` calls of
/// the measured function.
pub fn median_us(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6 / inner.max(1) as f64
        })
        .collect();
    crate::stats::median(&samples)
}

/// The process's peak resident set size, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_hands_out_distinct_op_ids() {
        let origin = Instant::now();
        let (window, clients) = closed_loop(
            vec![Vec::new(), Vec::new()],
            0.05,
            0,
            &SpanLog::new(origin, true),
            |c: &mut Client<Vec<u64>>, id| {
                c.log.time("op", id, None, || c.state.push(id));
                std::thread::sleep(Duration::from_millis(1));
                Op {
                    ok: id % 5 != 0,
                    quality: 1.0,
                }
            },
        );
        let mut ids: Vec<u64> = clients.iter().flat_map(|c| c.state.clone()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..window.attempted).collect::<Vec<_>>());
        assert_eq!(
            window.failed,
            (0..window.attempted).filter(|i| i % 5 == 0).count() as u64
        );
        assert!(window.elapsed_s >= 0.05);
        assert_eq!(window.latencies_ms.len() as u64, window.attempted);
        let spans: usize = clients.iter().map(|c| c.log.spans().len()).sum();
        assert_eq!(spans as u64, window.attempted);
    }

    #[test]
    fn timed_setups_keeps_the_last_state() {
        let mut n = 0;
        let (state, secs) = timed_setups(3, || {
            n += 1;
            n
        });
        assert_eq!(state, 3);
        assert_eq!(secs.len(), 3);
        assert!(peak_rss_mb() > 0.0);
    }
}
