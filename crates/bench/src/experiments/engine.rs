//! Engine throughput — the perf trajectory (`BENCH_engine.json`).
//!
//! Sweeps the staged engine's execution (serial, then `threads=` 1/2/4/8
//! on a per-solve [`SharedPool`]) over two workloads:
//!
//! * the Figure 5(d) thread-sweep workload (Facebook-like, k = 10) — the
//!   paper's own parallel benchmark;
//! * the planted-partition workload
//!   ([`waso_datasets::synthetic::planted_partition_like`]) — near-uniform
//!   community degrees, where OCBA pruning behaves differently from the
//!   heavy-tailed BA-style graphs.
//!
//! A third measurement targets the **serving regime**: a batch of
//! 20-stage pooled solves run (a) the per-solve-spawn way — build the
//! solver, clone the instance, spawn a fresh worker pool for every job —
//! and (b) through one `WasoSession::solve_batch`, where the instance is
//! validated once and every job runs on the session-held [`SharedPool`].
//! The samples/sec gap between the two rows is the amortization the
//! session pool buys. The batch, pool and handle rows give each of their
//! [`BATCH_SOLVES`] jobs a distinct budget ([`distinct_budgets`]) and
//! assert that no job was a memo hit, so every row times real solves.
//!
//! Results are returned both as a markdown/CSV [`TableSet`] (like every
//! figure driver) and as machine-readable [`BenchRecord`]s; the
//! `waso-experiments` binary writes the latter to `BENCH_engine.json`.
//! The committed copy of that file is the yardstick future perf PRs diff
//! against (measured on a **2-core** VM — it captures pool overhead,
//! not scaling) — regenerate it with
//! `waso-experiments --figure engine --figure decomp --scale smoke`.

use std::sync::Arc;

use waso::algos::{PoolStats, SharedPool};
use waso::{SolverSpec, WasoSession};
use waso_core::WasoInstance;
use waso_datasets::synthetic;

use crate::report::{BenchRecord, Cell, Table, TableSet};
use crate::runner::{
    measure_session_batch, measure_session_each, measure_session_submit_wait, measure_spec_avg,
    measure_spec_batch_baseline, ExperimentContext,
};

use super::fig5::cbasnd_spec;

/// Thread counts of the pooled sweep (the paper's Figure 5(d) axis).
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Stage count of the batch workload — the deep-stage setting of the
/// PR-2 pool benchmark, where per-stage dispatch costs dominate.
pub const BATCH_STAGES: u32 = 20;

/// Jobs per measured batch.
pub const BATCH_SOLVES: usize = 16;

/// Worker count of the batch workload's pooled solver.
pub const BATCH_THREADS: usize = 4;

/// `BATCH_SOLVES` copies of `spec` with budgets `budget`, `budget + 1`,
/// …: repeats of one spec would be memo hits after the first solve,
/// timing a cache replay instead of a solve. Records label the batch
/// with the first spec.
pub fn distinct_budgets(spec: &SolverSpec, budget: u64) -> Vec<SolverSpec> {
    (0..BATCH_SOLVES as u64)
        .map(|i| spec.clone().budget(budget + i))
        .collect()
}

/// Measures both workloads across the thread sweep.
pub fn throughput_records(ctx: &ExperimentContext) -> Vec<BenchRecord> {
    let registry = waso::registry();
    let k = 10;
    let workloads = [
        (
            "facebook-like",
            synthetic::facebook_like(ctx.scale, ctx.seed),
        ),
        (
            "planted-partition",
            synthetic::planted_partition_like(ctx.scale, ctx.seed),
        ),
    ];
    // The Figure 5(d) settings: a heavier budget so sampling dominates.
    let budget = ctx.budget() * 4;

    let mut records = Vec::new();
    for (name, graph) in workloads {
        let n = graph.num_nodes();
        let inst = Arc::new(WasoInstance::new(graph, k).expect("workloads have n >= k"));
        let m = Some(ctx.harness_m(n));
        let workload = format!("{name}/n={n}/k={k}");

        // The serial solver, then a per-solve pool at each thread count.
        let serial_spec = cbasnd_spec(budget, m);
        let mut specs = vec![(0usize, serial_spec.clone())];
        specs.extend(
            THREAD_SWEEP
                .iter()
                .map(|&t| (t, serial_spec.clone().threads(t))),
        );
        for (threads, spec) in specs {
            let meas = measure_spec_avg(&registry, &spec, &inst, ctx.seed, ctx.repeats);
            records.push(BenchRecord {
                workload: workload.clone(),
                solver: spec.to_string(),
                threads,
                mean_quality: meas.quality,
                wall_seconds: meas.seconds,
                samples_per_sec: meas.samples_per_sec,
            });
        }
    }

    // One serial large-n planted-partition record: a whole-graph anchor
    // in the regime the `decomp` ladder targets, so the committed JSON
    // tracks baseline per-sample cost at scale, not just the small sweeps.
    let n = large_n(ctx.scale);
    let graph = synthetic::planted_partition_like_n(n, ctx.seed);
    let inst = Arc::new(WasoInstance::new(graph, k).expect("large-n workload has n >= k"));
    let spec = cbasnd_spec(budget, Some(ctx.harness_m(n)));
    let meas = measure_spec_avg(&registry, &spec, &inst, ctx.seed, ctx.repeats);
    records.push(BenchRecord {
        workload: format!("planted-partition/n={n}/k={k}/large"),
        solver: spec.to_string(),
        threads: 0,
        mean_quality: meas.quality,
        wall_seconds: meas.seconds,
        samples_per_sec: meas.samples_per_sec,
    });
    records
}

/// Size of the serial large-n anchor record per scale.
pub fn large_n(scale: waso_datasets::Scale) -> usize {
    match scale {
        waso_datasets::Scale::Smoke => 20_000,
        waso_datasets::Scale::Small => 50_000,
        waso_datasets::Scale::Paper => 200_000,
    }
}

/// Measures the batch workload: `BATCH_SOLVES` 20-stage pooled solves,
/// per-solve-spawn vs. one session-held pool. Two records whose
/// `samples_per_sec` difference is the spawn/clone amortization.
pub fn batch_records(ctx: &ExperimentContext) -> Vec<BenchRecord> {
    let registry = waso::registry();
    let k = 10;
    let graph = synthetic::facebook_like(ctx.scale, ctx.seed);
    let n = graph.num_nodes();
    let inst = Arc::new(WasoInstance::new(graph.clone(), k).expect("workload has n >= k"));
    let spec = SolverSpec::cbas_nd()
        .budget(ctx.budget())
        .stages(BATCH_STAGES)
        .start_nodes(ctx.harness_m(n))
        .threads(BATCH_THREADS);
    let workload = format!("facebook-like/n={n}/k={k}/batch={BATCH_SOLVES}x{BATCH_STAGES}-stage");

    let specs = distinct_budgets(&spec, ctx.budget());
    let baseline = measure_spec_batch_baseline(&registry, &specs, &inst, ctx.seed);
    let session = WasoSession::new(graph).k(k).seed(ctx.seed);
    let batched = measure_session_batch(&session, &specs);

    [("per-solve spawn", baseline), ("session pool", batched)]
        .into_iter()
        .map(|(mode, meas)| BenchRecord {
            workload: workload.clone(),
            solver: format!("{spec} ({mode})"),
            threads: BATCH_THREADS,
            mean_quality: meas.quality,
            wall_seconds: meas.seconds,
            samples_per_sec: meas.samples_per_sec,
        })
        .collect()
}

/// The `--figure engine` handle-overhead comparison: the same
/// `BATCH_SOLVES` sequential solves run (a) through the blocking
/// `WasoSession::solve` and (b) through explicit `submit` + `wait`
/// handles. Since PR 5 the blocking call *is* submit+wait, so the two
/// rows should coincide up to noise — the committed records pin that the
/// handle plumbing (job thread, channels, control publishing) stays
/// free, and would expose any future divergence between the paths.
pub fn handle_records(ctx: &ExperimentContext) -> Vec<BenchRecord> {
    let k = 10;
    let graph = synthetic::facebook_like(ctx.scale, ctx.seed);
    let n = graph.num_nodes();
    // A serial spec isolates the per-job wrapper cost: no worker pool in
    // either row, so the whole gap is the handle machinery.
    let spec = SolverSpec::cbas_nd()
        .budget(ctx.budget())
        .stages(BATCH_STAGES)
        .start_nodes(ctx.harness_m(n));
    let specs = distinct_budgets(&spec, ctx.budget());
    let workload = format!("facebook-like/n={n}/k={k}/batch={BATCH_SOLVES}x{BATCH_STAGES}-stage");

    let rows = [
        (
            "blocking solve",
            measure_session_each(&WasoSession::new(graph.clone()).k(k).seed(ctx.seed), &specs),
        ),
        (
            "submit+wait",
            measure_session_submit_wait(&WasoSession::new(graph).k(k).seed(ctx.seed), &specs),
        ),
    ];
    rows.into_iter()
        .map(|(mode, meas)| BenchRecord {
            workload: workload.clone(),
            solver: format!("{spec} ({mode})"),
            threads: 0,
            mean_quality: meas.quality,
            wall_seconds: meas.seconds,
            samples_per_sec: meas.samples_per_sec,
        })
        .collect()
}

/// Renders the handle-overhead records as a mode-keyed table.
pub fn handle_table(records: &[BenchRecord]) -> Table {
    let title = records
        .first()
        .map(|r| format!("blocking vs submit+wait overhead ({})", r.workload))
        .unwrap_or_else(|| "blocking vs submit+wait overhead".to_string());
    let mut t = Table::new(
        "engine-handles",
        title,
        &["mode", "wall s/solve", "samples/s", "mean quality"],
    );
    for r in records {
        let mode = ["blocking solve", "submit+wait"]
            .into_iter()
            .find(|m| r.solver.ends_with(&format!("({m})")))
            .unwrap_or("?");
        t.push_row(vec![
            Cell::from(mode),
            Cell::from(r.wall_seconds),
            Cell::from(r.samples_per_sec),
            r.mean_quality.map(Cell::from).unwrap_or(Cell::Missing),
        ]);
    }
    t
}

/// The `--figure engine` post-delta re-solve ladder: solve once, apply a
/// [`waso::graph::GraphDelta`] that touches the winning group (so the
/// memo entry is invalidated), then time two re-solve paths on the
/// delta'd instance:
///
/// * **cold start** — the session's next solve, which runs from scratch
///   exactly as a fresh session over the delta'd graph would (every
///   replan pays full price);
/// * **memo hit** — the solve after that, answered from the memo in
///   O(1) without running a solver.
///
/// Both rows carry the same quality (the hit replays the cold solve
/// bit-identically); the committed `BENCH_engine.json` pins the
/// wall-clock ladder.
pub fn memo_records(ctx: &ExperimentContext) -> Vec<BenchRecord> {
    use std::time::Instant;
    use waso::graph::GraphDelta;

    let k = 10;
    let graph = synthetic::facebook_like(ctx.scale, ctx.seed);
    let n = graph.num_nodes();
    let spec = SolverSpec::cbas_nd()
        .budget(ctx.budget())
        .stages(BATCH_STAGES)
        .start_nodes(ctx.harness_m(n));
    let workload = format!("facebook-like/n={n}/k={k}/delta-resolve");

    let mut session = WasoSession::new(graph).k(k).seed(ctx.seed);
    let first = session.solve(&spec).expect("harness workload is feasible");
    session
        .apply(&GraphDelta::SetInterest {
            v: first.group.nodes()[0],
            interest: 0.0,
        })
        .expect("delta endpoint is a solved node");

    let t0 = Instant::now();
    let cold = session.solve(&spec).expect("delta'd workload is feasible");
    let cold_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let hit = session.solve(&spec).expect("memo hit replays the result");
    let hit_s = t0.elapsed().as_secs_f64();

    [("cold start", cold, cold_s), ("memo hit", hit, hit_s)]
        .into_iter()
        .map(|(mode, result, seconds)| BenchRecord {
            workload: workload.clone(),
            solver: format!("{spec} ({mode})"),
            threads: 0,
            mean_quality: Some(result.group.willingness()),
            wall_seconds: seconds,
            samples_per_sec: if seconds > 0.0 && result.stats.samples_drawn > 0 {
                result.stats.samples_drawn as f64 / seconds
            } else {
                0.0
            },
        })
        .collect()
}

/// Renders the re-solve ladder records as a mode-keyed table.
pub fn memo_table(records: &[BenchRecord]) -> Table {
    let title = records
        .first()
        .map(|r| format!("post-delta re-solve: cold vs memo hit ({})", r.workload))
        .unwrap_or_else(|| "post-delta re-solve: cold vs memo hit".to_string());
    let mut t = Table::new(
        "engine-memo",
        title,
        &["mode", "wall s", "samples/s", "mean quality"],
    );
    for r in records {
        let mode = ["cold start", "memo hit"]
            .into_iter()
            .find(|m| r.solver.ends_with(&format!("({m})")))
            .unwrap_or("?");
        t.push_row(vec![
            Cell::from(mode),
            Cell::from(r.wall_seconds),
            Cell::from(r.samples_per_sec),
            r.mean_quality.map(Cell::from).unwrap_or(Cell::Missing),
        ]);
    }
    t
}

/// The `--figure pool` comparison: the same `BATCH_SOLVES`-job workload
/// run (a) sequentially over one session-held pool — amortized spawns,
/// one job at a time; (b) as one concurrent `solve_batch` over that pool
/// — the job-level scheduler keeping every worker busy across jobs. Two
/// records whose `samples_per_sec` column is the sequential → concurrent
/// step; quality is identical across both by the determinism contract.
/// (Per-solve pools are the "per-solve spawn" row of [`batch_records`].)
pub fn pool_records(ctx: &ExperimentContext) -> Vec<BenchRecord> {
    let k = 10;
    let graph = synthetic::facebook_like(ctx.scale, ctx.seed);
    let n = graph.num_nodes();
    let spec = SolverSpec::cbas_nd()
        .budget(ctx.budget())
        .stages(BATCH_STAGES)
        .start_nodes(ctx.harness_m(n))
        .threads(BATCH_THREADS);
    let workload = format!("facebook-like/n={n}/k={k}/batch={BATCH_SOLVES}x{BATCH_STAGES}-stage");

    let specs = distinct_budgets(&spec, ctx.budget());
    // A fresh session per mode: no warm pool or cached instance leaks
    // from one row into the next.
    let rows = [
        (
            "shared pool",
            measure_session_each(&WasoSession::new(graph.clone()).k(k).seed(ctx.seed), &specs),
        ),
        (
            "concurrent batch",
            measure_session_batch(&WasoSession::new(graph).k(k).seed(ctx.seed), &specs),
        ),
    ];
    rows.into_iter()
        .map(|(mode, meas)| BenchRecord {
            workload: workload.clone(),
            solver: format!("{spec} ({mode})"),
            threads: BATCH_THREADS,
            mean_quality: meas.quality,
            wall_seconds: meas.seconds,
            samples_per_sec: meas.samples_per_sec,
        })
        .collect()
}

/// Renders the pool-mode records as a mode-keyed table.
pub fn pool_table(records: &[BenchRecord]) -> Table {
    let title = records
        .first()
        .map(|r| {
            format!(
                "shared pool: sequential vs concurrent batch ({})",
                r.workload
            )
        })
        .unwrap_or_else(|| "shared pool: sequential vs concurrent batch".to_string());
    let mut t = Table::new(
        "engine-pool",
        title,
        &["mode", "wall s/solve", "samples/s", "mean quality"],
    );
    for r in records {
        let mode = ["shared pool", "concurrent batch"]
            .into_iter()
            .find(|m| r.solver.ends_with(&format!("({m})")))
            .unwrap_or("?");
        t.push_row(vec![
            Cell::from(mode),
            Cell::from(r.wall_seconds),
            Cell::from(r.samples_per_sec),
            r.mean_quality.map(Cell::from).unwrap_or(Cell::Missing),
        ]);
    }
    t
}

/// Runs one concurrent batch over an explicitly attached [`SharedPool`]
/// and snapshots its health gauges — the [`PoolStats`] surface a serving
/// deployment scrapes (per-job queue depths, per-worker busy/idle and
/// lifetime chunk counters, respawns). Returns the post-batch snapshot;
/// the batch itself is a warm-up, not a measurement.
pub fn pool_health_snapshot(ctx: &ExperimentContext) -> PoolStats {
    let k = 10;
    let graph = synthetic::facebook_like(ctx.scale, ctx.seed);
    let n = graph.num_nodes();
    let pool = std::sync::Arc::new(SharedPool::new(BATCH_THREADS));
    let spec = SolverSpec::cbas_nd()
        .budget(ctx.budget())
        .stages(BATCH_STAGES)
        .start_nodes(ctx.harness_m(n))
        .threads(BATCH_THREADS);
    let session = WasoSession::new(graph)
        .k(k)
        .seed(ctx.seed)
        .attach_pool(std::sync::Arc::clone(&pool));
    session
        .solve_batch(&vec![spec; 4])
        .expect("harness built an unusable pool-health batch");
    pool.stats()
}

/// Renders a [`PoolStats`] snapshot as a gauge/value table.
pub fn pool_health_table(stats: &PoolStats) -> Table {
    let mut t = Table::new(
        "pool-health",
        format!("SharedPool health snapshot ({stats})"),
        &["gauge", "value"],
    );
    t.push_row(vec![Cell::from("workers"), Cell::from(stats.threads)]);
    t.push_row(vec![
        Cell::from("busy workers"),
        Cell::from(stats.busy_workers()),
    ]);
    t.push_row(vec![
        Cell::from("active jobs"),
        Cell::from(stats.active_jobs),
    ]);
    t.push_row(vec![
        Cell::from("queued chunks"),
        Cell::from(stats.total_queued()),
    ]);
    t.push_row(vec![
        Cell::from("respawned workers"),
        Cell::from(stats.respawned_workers),
    ]);
    for (slot, w) in stats.workers.iter().enumerate() {
        t.push_row(vec![
            Cell::from(format!("worker {slot} chunks processed")),
            Cell::from(w.chunks_processed),
        ]);
    }
    t
}

/// Tables-only entry point for the `pool` figure id: the
/// sequential/concurrent throughput pair plus the pool health snapshot.
pub fn pool_comparison(ctx: &ExperimentContext) -> TableSet {
    let mut set = TableSet::new();
    set.push(pool_table(&pool_records(ctx)));
    set.push(pool_health_table(&pool_health_snapshot(ctx)));
    set
}

/// Renders the batch records as a mode-keyed table.
pub fn batch_table(records: &[BenchRecord]) -> Table {
    let title = records
        .first()
        .map(|r| format!("batched solves over a session-held pool ({})", r.workload))
        .unwrap_or_else(|| "batched solves over a session-held pool".to_string());
    let mut t = Table::new(
        "engine-batch",
        title,
        &["mode", "wall s/solve", "samples/s", "mean quality"],
    );
    for r in records {
        let mode = if r.solver.ends_with("(session pool)") {
            "session pool"
        } else {
            "per-solve spawn"
        };
        t.push_row(vec![
            Cell::from(mode),
            Cell::from(r.wall_seconds),
            Cell::from(r.samples_per_sec),
            r.mean_quality.map(Cell::from).unwrap_or(Cell::Missing),
        ]);
    }
    t
}

/// Renders the records as one table per workload (markdown/CSV surface).
pub fn records_table(records: &[BenchRecord]) -> TableSet {
    let mut set = TableSet::new();
    let mut workloads: Vec<&str> = records.iter().map(|r| r.workload.as_str()).collect();
    workloads.dedup();
    for (idx, w) in workloads.iter().enumerate() {
        let mut t = Table::new(
            format!("engine{}", (b'a' + idx as u8) as char),
            format!("staged-engine throughput ({w})"),
            &["threads", "wall s", "samples/s", "mean quality"],
        );
        for r in records.iter().filter(|r| r.workload == *w) {
            t.push_row(vec![
                if r.threads == 0 {
                    Cell::from("serial")
                } else {
                    Cell::from(r.threads)
                },
                Cell::from(r.wall_seconds),
                Cell::from(r.samples_per_sec),
                r.mean_quality.map(Cell::from).unwrap_or(Cell::Missing),
            ]);
        }
        set.push(t);
    }
    set
}

/// Tables-only entry point (the [`super::run_figure`] route). The JSON
/// side effect needs an output directory, which only the CLI has — use
/// [`throughput_to`] to get both from one measurement pass.
pub fn throughput(ctx: &ExperimentContext) -> TableSet {
    let mut tables = records_table(&throughput_records(ctx));
    tables.push(batch_table(&batch_records(ctx)));
    tables.push(handle_table(&handle_records(ctx)));
    tables.push(memo_table(&memo_records(ctx)));
    tables
}

/// Measures once, returning the tables and the machine-readable records
/// (thread sweep + batch + pool-mode + handle + post-delta re-solve rows) — the
/// `waso-experiments --figure engine` / `--figure pool` path. The binary
/// folds these records, together with any other record-emitting figures
/// run in the same invocation (`--figure decomp`), into one
/// `BENCH_engine.json`.
pub fn throughput_collect(ctx: &ExperimentContext) -> (TableSet, Vec<BenchRecord>) {
    let sweep = throughput_records(ctx);
    let batch = batch_records(ctx);
    let pool = pool_records(ctx);
    let handles = handle_records(ctx);
    let memo = memo_records(ctx);
    let mut records = sweep.clone();
    records.extend(batch.clone());
    records.extend(pool.clone());
    records.extend(handles.clone());
    records.extend(memo.clone());
    let mut tables = records_table(&sweep);
    tables.push(batch_table(&batch));
    tables.push(pool_table(&pool));
    tables.push(handle_table(&handles));
    tables.push(memo_table(&memo));
    tables.push(pool_health_table(&pool_health_snapshot(ctx)));
    (tables, records)
}

/// Measures once, writes `<out_dir>/BENCH_engine.json`, and returns the
/// tables — [`throughput_collect`] plus the JSON side effect, for callers
/// that regenerate the engine artifact alone.
pub fn throughput_to(
    ctx: &ExperimentContext,
    out_dir: &std::path::Path,
) -> std::io::Result<TableSet> {
    let (tables, records) = throughput_collect(ctx);
    crate::report::write_records_json(&records, &out_dir.join("BENCH_engine.json"))?;
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use waso_datasets::Scale;

    #[test]
    fn records_cover_both_workloads_and_all_backends() {
        let mut ctx = ExperimentContext::new(Scale::Smoke);
        // Keep the CI cost tiny; the committed yardstick uses the real
        // smoke budget.
        ctx.repeats = 1;
        let records = throughput_records(&ctx);
        // 2 workloads × (serial + 4 thread counts) + the large-n anchor.
        assert_eq!(records.len(), 2 * (1 + THREAD_SWEEP.len()) + 1);
        assert!(records.iter().any(|r| r.workload.starts_with("facebook")));
        assert!(records
            .iter()
            .any(|r| r.workload.starts_with("planted-partition")));
        assert!(
            records.last().unwrap().workload.ends_with("/large"),
            "large-n anchor record missing"
        );
        for r in &records {
            assert!(r.samples_per_sec > 0.0, "{}: no throughput", r.solver);
            assert!(r.mean_quality.is_some(), "{}: infeasible", r.solver);
        }
        let tables = records_table(&records);
        assert_eq!(tables.tables.len(), 3, "two sweeps + the large-n anchor");
        assert_eq!(tables.tables[0].rows.len(), 1 + THREAD_SWEEP.len());
    }

    #[test]
    fn pool_records_cover_both_modes_with_identical_quality() {
        let mut ctx = ExperimentContext::new(Scale::Smoke);
        ctx.repeats = 1;
        let records = pool_records(&ctx);
        assert_eq!(records.len(), 2);
        for (r, mode) in records.iter().zip(["(shared pool)", "(concurrent batch)"]) {
            assert!(r.solver.ends_with(mode), "{}", r.solver);
            assert!(r.samples_per_sec > 0.0, "{}: no throughput", r.solver);
            assert!(r.workload.contains("batch="));
        }
        // The determinism contract at bench level: every mode solves the
        // identical workload, so mean quality matches exactly.
        assert_eq!(records[0].mean_quality, records[1].mean_quality);
        let table = pool_table(&records);
        assert_eq!(table.rows.len(), 2);
    }

    #[test]
    fn handle_records_cover_both_modes_with_identical_quality() {
        let mut ctx = ExperimentContext::new(Scale::Smoke);
        ctx.repeats = 1;
        let records = handle_records(&ctx);
        assert_eq!(records.len(), 2);
        assert!(records[0].solver.ends_with("(blocking solve)"));
        assert!(records[1].solver.ends_with("(submit+wait)"));
        for r in &records {
            assert!(r.samples_per_sec > 0.0, "{}: no throughput", r.solver);
        }
        // `solve` IS submit+wait: the two rows run the identical path,
        // so quality matches exactly.
        assert_eq!(records[0].mean_quality, records[1].mean_quality);
        let table = handle_table(&records);
        assert_eq!(table.rows.len(), 2);
    }

    #[test]
    fn memo_records_cover_the_resolve_ladder() {
        let mut ctx = ExperimentContext::new(Scale::Smoke);
        ctx.repeats = 1;
        let records = memo_records(&ctx);
        assert_eq!(records.len(), 2);
        assert!(records[0].solver.ends_with("(cold start)"));
        assert!(records[1].solver.ends_with("(memo hit)"));
        for r in &records {
            assert!(r.samples_per_sec > 0.0, "{}: no throughput", r.solver);
            assert!(r.mean_quality.is_some(), "{}: infeasible", r.solver);
            assert!(r.workload.contains("delta-resolve"));
        }
        // The memo hit replays the cold solve bit-identically.
        assert_eq!(records[1].mean_quality, records[0].mean_quality);
        let table = memo_table(&records);
        assert_eq!(table.rows.len(), 2);
    }

    #[test]
    fn pool_health_snapshot_reports_a_drained_pool() {
        let mut ctx = ExperimentContext::new(Scale::Smoke);
        ctx.repeats = 1;
        let stats = pool_health_snapshot(&ctx);
        assert_eq!(stats.threads, BATCH_THREADS);
        assert_eq!(stats.active_jobs, 0, "batch finished: no jobs attached");
        assert_eq!(stats.total_queued(), 0);
        assert_eq!(stats.respawned_workers, 0);
        let worked: u64 = stats.workers.iter().map(|w| w.chunks_processed).sum();
        assert!(worked > 0, "the warm-up batch ran over the pool");
        let table = pool_health_table(&stats);
        assert!(table.rows.len() >= 5 + BATCH_THREADS);
    }

    #[test]
    fn distinct_budgets_make_every_job_a_distinct_memo_key() {
        let specs = distinct_budgets(&SolverSpec::cbas_nd().stages(3), 100);
        assert_eq!(specs.len(), BATCH_SOLVES);
        let mut keys: Vec<String> = specs.iter().map(|s| s.to_string()).collect();
        keys.dedup();
        assert_eq!(keys.len(), BATCH_SOLVES);
    }

    #[test]
    fn batch_records_cover_both_modes() {
        let mut ctx = ExperimentContext::new(Scale::Smoke);
        ctx.repeats = 1;
        let records = batch_records(&ctx);
        assert_eq!(records.len(), 2);
        assert!(records[0].solver.ends_with("(per-solve spawn)"));
        assert!(records[1].solver.ends_with("(session pool)"));
        for r in &records {
            assert!(r.samples_per_sec > 0.0, "{}: no throughput", r.solver);
            assert!(r.mean_quality.is_some(), "{}: infeasible", r.solver);
            assert!(r.workload.contains("batch="));
        }
        // Determinism contract: both modes solve the identical workload,
        // so mean quality matches exactly.
        assert_eq!(records[0].mean_quality, records[1].mean_quality);
        let table = batch_table(&records);
        assert_eq!(table.rows.len(), 2);
    }
}
