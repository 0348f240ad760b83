//! Figure 5 — the Facebook evaluation (§5.3.1): ten panels sweeping group
//! size, network size, thread count, budget, smoothing, elite fraction and
//! start-node count.
//!
//! All solvers are obtained via [`SolverSpec`] → `waso::registry()`; the
//! comparison roster, its table columns, and the cost caps derive from
//! registry metadata ([`crate::runner::roster_specs`]).
//!
//! All solvers run with explicit `stages = 10` (the paper's stage-count
//! formula degenerates to r = 1 at realistic n; see
//! `waso_algos::ocba::derive_stages` and EXPERIMENTS.md).

use std::sync::Arc;

use waso_algos::SolverSpec;
use waso_core::WasoInstance;
use waso_datasets::synthetic;

use crate::report::{BenchRecord, Cell, Table, TableSet};
use crate::runner::{
    bench_record, cores, harness_spec, measure_spec, measure_spec_avg, roster_specs,
    ExperimentContext,
};

pub(crate) const STAGES: u32 = 10;

/// The harness's standard CBAS-ND spec (budget + stages + start nodes) —
/// the baseline the parameter sweeps (5d/5g/5h) perturb.
pub(crate) fn cbasnd_spec(budget: u64, m: Option<usize>) -> SolverSpec {
    let mut spec = SolverSpec::cbas_nd().budget(budget).stages(STAGES);
    if let Some(m) = m {
        spec = spec.start_nodes(m);
    }
    spec
}

/// Measures one cell of a roster sweep: `None` when the cost cap skips
/// the solver at this size.
fn roster_cell(
    solver: &crate::runner::RosterSolver<'_>,
    registry: &waso_algos::SolverRegistry,
    inst: &Arc<WasoInstance>,
    ctx: &ExperimentContext,
    k: usize,
) -> Option<crate::runner::Measurement> {
    if solver.entry.costly && k > ctx.costly_k_limit() {
        // The paper aborts per-candidate-pricing solvers beyond small
        // groups (12-hour timeouts, §5.3.1).
        return None;
    }
    Some(measure_spec_avg(
        registry,
        &solver.spec,
        inst,
        ctx.seed,
        solver.repeats(ctx),
    ))
}

/// Shared "quality + time vs k" sweep used by Figures 5(a,b), 7(a,b),
/// 8(a,b): the registry's comparison roster on one graph.
pub(crate) fn sweep_k(
    graph: &waso_graph::SocialGraph,
    ks: &[usize],
    ctx: &ExperimentContext,
    id_time: &str,
    id_quality: &str,
    dataset: &str,
) -> TableSet {
    let registry = waso::registry();
    let budget = ctx.budget();
    let m = Some(ctx.harness_m(graph.num_nodes()));
    let roster = roster_specs(&registry, budget, STAGES, m);

    let cols: Vec<String> = std::iter::once("k".to_string())
        .chain(roster.iter().map(|s| s.entry.label.to_string()))
        .collect();
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut time = Table::new(
        id_time,
        format!("execution time vs k in seconds ({dataset})"),
        &col_refs,
    );
    let mut quality = Table::new(
        id_quality,
        format!("solution quality vs k ({dataset})"),
        &col_refs,
    );

    for &k in ks {
        let inst = Arc::new(WasoInstance::new(graph.clone(), k).expect("k <= n"));
        let mut time_row = vec![Cell::from(k)];
        let mut quality_row = vec![Cell::from(k)];
        for solver in &roster {
            match roster_cell(solver, &registry, &inst, ctx, k) {
                Some(meas) => {
                    time_row.push(Cell::from(meas.seconds));
                    quality_row.push(meas.quality.map(Cell::from).unwrap_or(Cell::Missing));
                }
                None => {
                    time_row.push(Cell::Missing);
                    quality_row.push(Cell::Missing);
                }
            }
        }
        time.push_row(time_row);
        quality.push_row(quality_row);
    }

    let mut set = TableSet::new();
    set.push(time);
    set.push(quality);
    set
}

/// Figures 5(a)+(b): time and quality vs group size on Facebook-like.
pub fn quality_time_vs_k(ctx: &ExperimentContext) -> TableSet {
    let g = synthetic::facebook_like(ctx.scale, ctx.seed);
    sweep_k(
        &g,
        &ctx.k_sweep_facebook(),
        ctx,
        "fig5a",
        "fig5b",
        "Facebook-like",
    )
}

/// Figure 5(c): execution time vs network size (k = 10).
pub fn time_vs_n(ctx: &ExperimentContext) -> TableSet {
    let registry = waso::registry();
    let k = 10;
    // Column list derived from the roster, like everywhere else.
    let roster_cols: Vec<String> = registry
        .roster()
        .iter()
        .map(|e| e.label.to_string())
        .collect();
    let cols: Vec<String> = std::iter::once("n".to_string())
        .chain(roster_cols)
        .collect();
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut time = Table::new(
        "fig5c",
        "Figure 5(c): execution time vs n, k=10 (Facebook-like)",
        &col_refs,
    );
    for &n in &ctx.n_sweep() {
        let g = synthetic::facebook_like_n(n, ctx.seed ^ n as u64);
        let inst = Arc::new(WasoInstance::new(g, k).expect("n >= 10"));
        let budget = ctx.budget();
        let m = Some(ctx.harness_m(n));
        let mut row = vec![Cell::from(n)];
        for solver in roster_specs(&registry, budget, STAGES, m) {
            // Costly solvers scale poorly in n too; cap them at 10k nodes.
            if solver.entry.costly && n > 10_000 {
                row.push(Cell::Missing);
                continue;
            }
            let meas = measure_spec(&registry, &solver.spec, &inst, ctx.seed);
            row.push(Cell::from(meas.seconds));
        }
        time.push_row(row);
    }
    let mut set = TableSet::new();
    set.push(time);
    set
}

/// Thread counts of the Figure 5(d) sweep.
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Figure 5(d): multi-threaded CBAS-ND speedup. For each k it measures
/// the serial solver, then a per-solve pool at each [`THREAD_SWEEP`]
/// width, each as one [`BenchRecord`] (median of `ctx.repeats` solves);
/// the records are the 5(d) rows of `BENCH_engine.json`.
pub fn parallel_speedup(ctx: &ExperimentContext) -> (TableSet, Vec<BenchRecord>) {
    let registry = waso::registry();
    let g = synthetic::facebook_like(ctx.scale, ctx.seed);
    let n = g.num_nodes();
    let ks: Vec<usize> = match ctx.scale {
        waso_datasets::Scale::Smoke => vec![10],
        _ => vec![10, 20, 30],
    };
    let mut time = Table::new(
        "fig5d",
        format!(
            "Figure 5(d): CBAS-ND median execution time vs threads, seconds \
             (host has {} cores — the attainable ceiling; the paper used 40)",
            cores()
        ),
        &[
            "k",
            "serial",
            "1 thread",
            "2 threads",
            "4 threads",
            "8 threads",
            "speedup@8",
        ],
    );
    // A heavier budget so the parallel section dominates.
    let serial = cbasnd_spec(ctx.budget() * 4, Some(ctx.harness_m(n)));
    let mut records = Vec::new();
    for &k in &ks {
        let inst = Arc::new(WasoInstance::new(g.clone(), k).expect("k <= n"));
        let workload = format!("facebook-like/n={n}/k={k}");
        let widths = std::iter::once((0, serial.clone()))
            .chain(THREAD_SWEEP.map(|t| (t, serial.clone().threads(t))));
        let per_k: Vec<BenchRecord> = widths
            .map(|(threads, spec)| bench_record(&registry, &workload, &spec, threads, &inst, ctx))
            .collect();
        let secs: Vec<f64> = per_k.iter().map(|r| r.wall_seconds).collect();
        let mut row = vec![Cell::from(k)];
        row.extend(secs.iter().map(|&s| Cell::from(s)));
        row.push(Cell::from(secs[1] / secs[4].max(1e-12)));
        time.push_row(row);
        records.extend(per_k);
    }
    let mut set = TableSet::new();
    set.push(time);
    (set, records)
}

/// Figures 5(e)+(f): time and quality vs total budget T.
pub fn vs_budget(ctx: &ExperimentContext) -> TableSet {
    let g = synthetic::facebook_like(ctx.scale, ctx.seed);
    budget_sweep(&g, 10, ctx, "fig5e", "fig5f", "Facebook-like")
}

/// Shared "time + quality vs T" sweep (Figures 5(e,f) and 7(e,f)).
/// Budget-insensitive roster members (DGreedy) are omitted — the paper's
/// T-axis figures only plot the sampling solvers.
pub(crate) fn budget_sweep(
    graph: &waso_graph::SocialGraph,
    k: usize,
    ctx: &ExperimentContext,
    id_time: &str,
    id_quality: &str,
    dataset: &str,
) -> TableSet {
    let registry = waso::registry();
    let inst = Arc::new(WasoInstance::new(graph.clone(), k).expect("k <= n"));
    let m = Some(ctx.harness_m(graph.num_nodes()));

    let budgeted: Vec<&waso_algos::RegistryEntry> = registry
        .roster()
        .into_iter()
        .filter(|e| e.options.contains(&"budget"))
        .collect();
    let cols: Vec<String> = std::iter::once("T".to_string())
        .chain(budgeted.iter().map(|e| e.label.to_string()))
        .collect();
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut time = Table::new(
        id_time,
        format!("execution time vs T, seconds ({dataset})"),
        &col_refs,
    );
    let mut quality = Table::new(
        id_quality,
        format!("solution quality vs T ({dataset})"),
        &col_refs,
    );

    for &t in &ctx.t_sweep() {
        let mut time_row = vec![Cell::from(t)];
        let mut quality_row = vec![Cell::from(t)];
        for entry in &budgeted {
            let spec = harness_spec(entry, t, STAGES, m);
            let meas = measure_spec_avg(&registry, &spec, &inst, ctx.seed, ctx.repeats);
            time_row.push(Cell::from(meas.seconds));
            quality_row.push(meas.quality.map(Cell::from).unwrap_or(Cell::Missing));
        }
        time.push_row(time_row);
        quality.push_row(quality_row);
    }
    let mut set = TableSet::new();
    set.push(time);
    set.push(quality);
    set
}

/// Figure 5(g): CBAS-ND quality vs smoothing weight w, k ∈ {10, 20, 30}.
pub fn smoothing_sweep(ctx: &ExperimentContext) -> TableSet {
    parameter_sweep(
        ctx,
        "fig5g",
        "Figure 5(g): CBAS-ND quality vs smoothing weight w",
        "w",
        &[0.1, 0.3, 0.5, 0.7, 0.9],
        |spec, w| spec.smoothing(w),
    )
}

/// Figure 5(h): CBAS-ND quality vs elite fraction ρ, k ∈ {10, 20, 30}.
pub fn rho_sweep(ctx: &ExperimentContext) -> TableSet {
    parameter_sweep(
        ctx,
        "fig5h",
        "Figure 5(h): CBAS-ND quality vs elite fraction rho",
        "rho",
        &[0.1, 0.3, 0.5, 0.7, 0.9],
        |spec, x| spec.rho(x),
    )
}

/// Shared CBAS-ND parameter sweep behind Figures 5(g) and 5(h): one spec
/// knob varied, quality per k.
fn parameter_sweep(
    ctx: &ExperimentContext,
    id: &str,
    title: &str,
    param: &str,
    values: &[f64],
    apply: impl Fn(SolverSpec, f64) -> SolverSpec,
) -> TableSet {
    let registry = waso::registry();
    let g = synthetic::facebook_like(ctx.scale, ctx.seed);
    let ks: Vec<usize> = match ctx.scale {
        waso_datasets::Scale::Smoke => vec![10],
        _ => vec![10, 20, 30],
    };
    let cols: Vec<String> = std::iter::once(param.to_string())
        .chain(ks.iter().map(|k| format!("k={k}")))
        .collect();
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut quality = Table::new(id, title, &col_refs);
    for &x in values {
        let mut row = vec![Cell::from(x)];
        for &k in &ks {
            let inst = Arc::new(WasoInstance::new(g.clone(), k).expect("k <= n"));
            let spec = apply(
                cbasnd_spec(ctx.budget(), Some(ctx.harness_m(g.num_nodes()))),
                x,
            );
            let m = measure_spec_avg(&registry, &spec, &inst, ctx.seed, ctx.repeats);
            row.push(m.quality.map(Cell::from).unwrap_or(Cell::Missing));
        }
        quality.push_row(row);
    }
    let mut set = TableSet::new();
    set.push(quality);
    set
}

/// Figures 5(i)+(j): time and quality vs the number of start nodes m.
pub fn start_nodes_sweep(ctx: &ExperimentContext) -> TableSet {
    let g = synthetic::facebook_like(ctx.scale, ctx.seed);
    m_sweep(&g, 10, ctx, "fig5i", "fig5j", "Facebook-like")
}

/// Shared "time + quality vs m" sweep (Figures 5(i,j) and 7(c,d)), over
/// the roster members that take a start-node count.
pub(crate) fn m_sweep(
    graph: &waso_graph::SocialGraph,
    k: usize,
    ctx: &ExperimentContext,
    id_time: &str,
    id_quality: &str,
    dataset: &str,
) -> TableSet {
    let registry = waso::registry();
    let inst = Arc::new(WasoInstance::new(graph.clone(), k).expect("k <= n"));

    let swept: Vec<&waso_algos::RegistryEntry> = registry
        .roster()
        .into_iter()
        .filter(|e| e.options.contains(&"start-nodes"))
        .collect();
    let cols: Vec<String> = std::iter::once("m".to_string())
        .chain(swept.iter().map(|e| e.label.to_string()))
        .collect();
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut time = Table::new(
        id_time,
        format!("execution time vs m, seconds ({dataset})"),
        &col_refs,
    );
    let mut quality = Table::new(
        id_quality,
        format!("solution quality vs m ({dataset})"),
        &col_refs,
    );

    for &m in &ctx.m_sweep(graph.num_nodes(), k) {
        // The paper's stage budget T₁ is linear in m (pseudo-code line 4),
        // which is why Figure 5(i)'s time grows with m; mirror that.
        let budget = 100 * m as u64;
        let mut time_row = vec![Cell::from(m)];
        let mut quality_row = vec![Cell::from(m)];
        for entry in &swept {
            let spec = harness_spec(entry, budget, STAGES, Some(m));
            let meas = measure_spec_avg(&registry, &spec, &inst, ctx.seed, ctx.repeats);
            time_row.push(Cell::from(meas.seconds));
            quality_row.push(meas.quality.map(Cell::from).unwrap_or(Cell::Missing));
        }
        time.push_row(time_row);
        quality.push_row(quality_row);
    }
    let mut set = TableSet::new();
    set.push(time);
    set.push(quality);
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use waso_datasets::Scale;

    fn smoke() -> ExperimentContext {
        ExperimentContext::new(Scale::Smoke)
    }

    #[test]
    fn k_sweep_produces_both_tables_with_roster_columns() {
        let set = quality_time_vs_k(&smoke());
        assert_eq!(set.tables.len(), 2);
        assert_eq!(set.tables[0].id, "fig5a");
        assert_eq!(set.tables[1].id, "fig5b");
        assert_eq!(set.tables[1].rows.len(), smoke().k_sweep_facebook().len());
        // Columns derive from the registry roster.
        assert_eq!(
            set.tables[0].columns,
            vec!["k", "DGreedy", "CBAS", "RGreedy", "CBAS-ND"]
        );
    }

    #[test]
    fn neighbor_differentiation_beats_uniform_sampling_on_smoke() {
        // The mechanism check that must hold even at CI budgets: CE-guided
        // sampling (CBAS-ND) clearly outperforms uniform sampling (CBAS)
        // for the same T. The full paper ordering (CBAS-ND vs DGreedy etc.)
        // emerges at Small scale and is recorded in EXPERIMENTS.md.
        let set = quality_time_vs_k(&smoke());
        let q = &set.tables[1];
        let cbas_col = q.columns.iter().position(|c| c == "CBAS").unwrap();
        let nd_col = q.columns.iter().position(|c| c == "CBAS-ND").unwrap();
        let (mut nd_total, mut cbas_total) = (0.0, 0.0);
        for row in &q.rows {
            if let (Cell::Num(cb), Cell::Num(nd)) = (&row[cbas_col], &row[nd_col]) {
                cbas_total += cb;
                nd_total += nd;
            }
        }
        assert!(
            nd_total > cbas_total * 1.1,
            "CBAS-ND {nd_total:.2} should clearly beat CBAS {cbas_total:.2}"
        );
    }

    #[test]
    fn budget_sweep_rows_match_t_sweep() {
        let ctx = smoke();
        let set = vs_budget(&ctx);
        assert_eq!(set.tables[1].rows.len(), ctx.t_sweep().len());
        // DGreedy takes no budget — it must not appear on the T axis.
        assert!(!set.tables[0].columns.iter().any(|c| c == "DGreedy"));
    }

    #[test]
    fn parallel_speedup_records_every_width_with_identical_quality() {
        let mut ctx = smoke();
        ctx.repeats = 3;
        let (set, records) = parallel_speedup(&ctx);
        let t = &set.tables[0];
        assert_eq!(t.columns.len(), 7);
        let widths = 1 + THREAD_SWEEP.len();
        assert_eq!(records.len(), t.rows.len() * widths);
        for per_k in records.chunks(widths) {
            assert_eq!(per_k[0].threads, 0, "serial comes first");
            assert!(per_k[0].mean_quality.is_some());
            for (r, threads) in per_k[1..].iter().zip(THREAD_SWEEP) {
                assert_eq!(r.threads, threads);
                assert_eq!(r.workload, per_k[0].workload);
                // The determinism contract at bench level: every width
                // solves the same seeds to the same groups.
                assert_eq!(r.mean_quality, per_k[0].mean_quality, "{}", r.solver);
            }
        }
        for r in &records {
            assert_eq!(r.repeats, ctx.repeats);
            assert!(
                r.wall_seconds_p25 <= r.wall_seconds && r.wall_seconds <= r.wall_seconds_p75,
                "{}: median outside its IQR",
                r.solver
            );
            assert!(r.samples_per_sec > 0.0, "{}: no throughput", r.solver);
        }
    }

    #[test]
    fn parameter_sweeps_have_expected_shape() {
        let ctx = smoke();
        let g_set = smoothing_sweep(&ctx);
        assert_eq!(g_set.tables[0].rows.len(), 5);
        let h_set = rho_sweep(&ctx);
        assert_eq!(h_set.tables[0].rows.len(), 5);
        let ij = start_nodes_sweep(&ctx);
        assert_eq!(ij.tables.len(), 2);
    }
}
