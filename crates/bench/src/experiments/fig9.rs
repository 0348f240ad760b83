//! Figure 9 — optimality gaps against the IP (a, b) and the WASO-dis
//! separate-groups variant (c, d) (§5.3.4).
//!
//! (a, b): on small DBLP extracts (n ∈ {25, 100, 500}, k = 10) the paper
//! solves the Appendix-B IP with CPLEX and shows CBAS-ND within a whisker
//! of the optimum at ~10⁻²× the time. Our IP stand-in is the `exact`
//! registry entry (branch-and-bound), primed with CBAS-ND's group as the
//! solve request's incumbent; runs that hit the expansion cap
//! report the best group found — the same caveat the paper's 10⁵-second
//! CPLEX runs carry.
//!
//! (c, d): the separate-groups scenario drops the connectivity constraint
//! (§2.2). We solve WASO-dis natively (footnote 3's "simple modification");
//! Theorem 2's virtual-node reduction is validated separately in the
//! integration tests.

use std::sync::Arc;

use waso_algos::{SolveRequest, SolverSpec};
use waso_core::WasoInstance;
use waso_datasets::synthetic;
use waso_graph::{subgraph, NodeId};

use super::fig5::{cbasnd_spec, STAGES};
use crate::report::{Cell, Table, TableSet};
use crate::runner::{measure, measure_spec_avg, roster_specs, ExperimentContext};

/// Figures 9(a)+(b): quality and time vs n, IP (exact) vs everyone.
pub fn ip_comparison(ctx: &ExperimentContext) -> TableSet {
    let registry = waso::registry();
    let sizes: &[usize] = match ctx.scale {
        waso_datasets::Scale::Smoke => &[25, 60],
        _ => &[25, 100, 500],
    };
    let k = 10;

    // Columns: n, the exact entry's label, the roster labels, a note.
    let ip_label = registry.get("exact").expect("registered").label;
    let roster_labels: Vec<String> = registry
        .roster()
        .iter()
        .map(|e| e.label.to_string())
        .collect();
    let cols: Vec<String> = std::iter::once("n".to_string())
        .chain(std::iter::once(ip_label.to_string()))
        .chain(roster_labels)
        .chain(std::iter::once(format!("{ip_label} note")))
        .collect();
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut quality = Table::new(
        "fig9a",
        "Figure 9(a): solution quality vs n, exact IP vs heuristics (k=10)",
        &col_refs,
    );
    let mut time = Table::new(
        "fig9b",
        "Figure 9(b): execution time vs n, seconds (k=10)",
        &col_refs,
    );

    // Host graph to extract "small real datasets" from (§5.3.4).
    let host = synthetic::dblp_like(ctx.scale, ctx.seed ^ 0x99);
    let budget = ctx.budget();

    for &n in sizes {
        // Ego extract of the requested size around a well-connected centre.
        let center = NodeId((ctx.seed as u32 ^ 0x5A5A) % host.num_nodes() as u32);
        let extract = subgraph::ego_network(&host, center, 6, n);
        let g = extract.graph;
        if g.num_nodes() < k {
            continue;
        }
        let inst = Arc::new(WasoInstance::new(g, k).expect("extract supports k"));
        let m = Some(ctx.harness_m(inst.graph().num_nodes()));

        let mut q_cells = Vec::new();
        let mut t_cells = Vec::new();
        for solver in roster_specs(&registry, budget, STAGES, m) {
            let meas = measure_spec_avg(
                &registry,
                &solver.spec,
                &inst,
                ctx.seed,
                solver.repeats(ctx),
            );
            q_cells.push(meas.quality.map(Cell::from).unwrap_or(Cell::Missing));
            t_cells.push(Cell::from(meas.seconds));
        }

        // Exact, primed with CBAS-ND's solution as the request's
        // incumbent (legitimate — an incumbent only prunes).
        let incumbent = registry
            .build(&cbasnd_spec(budget, m))
            .expect("cbas-nd spec is registry-valid")
            .solve(&SolveRequest::new(&inst, ctx.seed))
            .ok();
        let mut exact = registry
            .build(&SolverSpec::exact().cap(ctx.exact_cap()))
            .expect("exact spec is registry-valid");
        let req =
            SolveRequest::new(&inst, ctx.seed).incumbent(incumbent.as_ref().map(|i| &i.group));
        let exact_meas = measure(exact.as_mut(), &req);
        let (ip_q, ip_note) = match exact_meas.quality {
            Some(q) => (
                Cell::from(q),
                if exact_meas.truncated {
                    Cell::from("capped")
                } else {
                    Cell::from("optimal")
                },
            ),
            None => (Cell::Missing, Cell::from("infeasible")),
        };

        let n_cell = Cell::from(inst.graph().num_nodes());
        let mut q_row = vec![n_cell.clone(), ip_q];
        q_row.extend(q_cells);
        q_row.push(ip_note.clone());
        quality.push_row(q_row);

        let mut t_row = vec![n_cell, Cell::from(exact_meas.seconds)];
        t_row.extend(t_cells);
        t_row.push(ip_note);
        time.push_row(t_row);
    }

    let mut set = TableSet::new();
    set.push(quality);
    set.push(time);
    set
}

/// Figures 9(c)+(d): WASO-dis (no connectivity constraint) time and
/// quality vs k on Facebook-like.
pub fn waso_dis(ctx: &ExperimentContext) -> TableSet {
    let registry = waso::registry();
    let g = synthetic::facebook_like(ctx.scale, ctx.seed);
    let budget = ctx.budget();
    let m = Some(ctx.harness_m(g.num_nodes()));
    let roster = roster_specs(&registry, budget, STAGES, m);

    let cols: Vec<String> = std::iter::once("k".to_string())
        .chain(roster.iter().map(|s| s.entry.label.to_string()))
        .collect();
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut time = Table::new(
        "fig9c",
        "Figure 9(c): WASO-dis execution time vs k, seconds",
        &col_refs,
    );
    let mut quality = Table::new(
        "fig9d",
        "Figure 9(d): WASO-dis solution quality vs k",
        &col_refs,
    );

    for &k in &ctx.k_sweep_facebook() {
        let inst = Arc::new(WasoInstance::without_connectivity(g.clone(), k).expect("k <= n"));
        let mut time_row = vec![Cell::from(k)];
        let mut quality_row = vec![Cell::from(k)];
        for solver in &roster {
            // Costly solvers price every node in V at every step here (the
            // paper: "computationally intractable", 24-hour timeouts past
            // k = 20) — run them only at the smallest k, with a tiny budget.
            if solver.entry.costly && k > 20 {
                time_row.push(Cell::Missing);
                quality_row.push(Cell::Missing);
                continue;
            }
            let (spec, repeats) = if solver.entry.costly {
                (solver.spec.clone().budget(budget.min(60)), 1)
            } else {
                (solver.spec.clone(), solver.repeats(ctx))
            };
            let meas = measure_spec_avg(&registry, &spec, &inst, ctx.seed, repeats);
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

    #[test]
    fn exact_dominates_heuristics() {
        let ctx = ExperimentContext::new(Scale::Smoke);
        let set = ip_comparison(&ctx);
        let quality = &set.tables[0];
        assert!(!quality.rows.is_empty());
        let note_col = quality.columns.len() - 1;
        for row in &quality.rows {
            let note = match &row[note_col] {
                Cell::Text(s) => s.clone(),
                _ => String::new(),
            };
            if note != "optimal" {
                continue; // capped runs carry no dominance guarantee
            }
            let ip = match &row[1] {
                Cell::Num(x) => *x,
                _ => continue,
            };
            #[allow(clippy::needless_range_loop)] // col is the semantic axis
            for col in 2..note_col {
                if let Cell::Num(h) = &row[col] {
                    assert!(ip >= h - 1e-6, "IP {ip} must dominate column {col} = {h}");
                }
            }
        }
    }

    #[test]
    fn waso_dis_measures_the_full_sweep() {
        // Every roster solver produces a quality number at the smallest k
        // (where even the cost-capped ones run), and the sweep covers the
        // full k axis. (Quality *comparisons* against connected WASO are
        // not asserted: at a fixed sampling budget the much larger
        // unconstrained search space can legitimately sample worse, even
        // though its optimum dominates — the optimum-level dominance is
        // covered by the scenario integration tests.)
        let ctx = ExperimentContext::new(Scale::Smoke);
        let set = waso_dis(&ctx);
        let quality = &set.tables[1];
        assert_eq!(quality.rows.len(), ctx.k_sweep_facebook().len());
        for cell in &quality.rows[0][1..] {
            assert!(matches!(cell, Cell::Num(_)), "first row fully measured");
        }
    }

    #[test]
    fn tables_share_the_roster_columns() {
        let ctx = ExperimentContext::new(Scale::Smoke);
        let set = waso_dis(&ctx);
        assert_eq!(set.tables[0].columns, set.tables[1].columns);
        assert!(set.tables[0].columns.iter().any(|c| c == "CBAS-ND"));
    }
}
