//! Figure 6 — the Gaussian-distribution study (§5.3.1, Appendix A).
//!
//! (a) The willingness of uniformly grown random samples on the Facebook
//! dataset is approximately Gaussian (the paper fits mean 124.71, variance
//! 13.83 at their scale); this justifies the CBAS-ND-G allocation rule.
//! (b) CBAS-ND and CBAS-ND-G reach nearly identical quality, so the paper
//! recommends the simpler uniform rule — the reproduction checks exactly
//! that.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use waso_algos::sampler::{select_start_nodes, Sampler};
use waso_core::WasoInstance;
use waso_datasets::synthetic;
use waso_stats::{Histogram, NormalFit};

use super::fig5::STAGES;
use crate::report::{Cell, Table, TableSet};
use crate::runner::{measure_spec_avg, roster_specs, ExperimentContext};

/// Figure 6(a): histogram of random-sample willingness + Gaussian fit.
pub fn sample_histogram(ctx: &ExperimentContext) -> TableSet {
    let g = synthetic::facebook_like(ctx.scale, ctx.seed);
    let k = 10;
    let inst = Arc::new(WasoInstance::new(g, k).expect("k <= n"));
    let num_samples = match ctx.scale {
        waso_datasets::Scale::Smoke => 400,
        _ => 2000,
    };

    let starts = select_start_nodes(inst.graph(), 50.min(inst.graph().num_nodes()), None);
    let mut sampler = Sampler::new(inst.graph().num_nodes());
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let mut values = Vec::with_capacity(num_samples);
    let mut i = 0usize;
    while values.len() < num_samples {
        let start = starts[i % starts.len()];
        i += 1;
        if let Some(s) = sampler.sample_uniform(&inst, start, &mut rng) {
            values.push(s.willingness);
        }
        if i > num_samples * 10 {
            break; // pathological instance guard
        }
    }

    let hist = Histogram::of(&values, 10);
    let fit = NormalFit::fit(&values).expect("enough samples");

    let mut t = Table::new(
        "fig6a",
        "Figure 6(a): willingness histogram of uniform random samples",
        &["bin midpoint", "percentage"],
    );
    for (mid, frac) in hist.fractions() {
        t.push_row(vec![Cell::from(mid), Cell::from(100.0 * frac)]);
    }

    let mut fit_table = Table::new(
        "fig6a_fit",
        "Figure 6(a): Gaussian fit of the sample distribution",
        &["statistic", "value"],
    );
    fit_table.push_row(vec![Cell::from("mean"), Cell::from(fit.mean)]);
    fit_table.push_row(vec![
        Cell::from("variance"),
        Cell::from(fit.std_dev * fit.std_dev),
    ]);
    fit_table.push_row(vec![Cell::from("samples"), Cell::from(values.len())]);

    let mut set = TableSet::new();
    set.push(t);
    set.push(fit_table);
    set
}

/// Figure 6(b): quality vs k with the Gaussian allocation variant
/// (CBAS-ND-G) alongside the Figure 5(b) roster — the roster plus the
/// `cbas-nd-g` registry entry, columns derived from their labels.
pub fn gaussian_variant(ctx: &ExperimentContext) -> TableSet {
    let registry = waso::registry();
    let g = synthetic::facebook_like(ctx.scale, ctx.seed);
    let budget = ctx.budget();
    let m = Some(ctx.harness_m(g.num_nodes()));

    let mut roster = roster_specs(&registry, budget, STAGES, m);
    let ndg = registry.get("cbas-nd-g").expect("registered");
    roster.push(crate::runner::RosterSolver {
        spec: crate::runner::harness_spec(ndg, budget, STAGES, m),
        entry: ndg,
    });

    let cols: Vec<String> = std::iter::once("k".to_string())
        .chain(roster.iter().map(|s| s.entry.label.to_string()))
        .collect();
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut quality = Table::new(
        "fig6b",
        "Figure 6(b): solution quality vs k incl. Gaussian allocation",
        &col_refs,
    );
    for &k in &ctx.k_sweep_facebook() {
        let inst = Arc::new(WasoInstance::new(g.clone(), k).expect("k <= n"));
        let mut row = vec![Cell::from(k)];
        for solver in &roster {
            if solver.entry.costly && k > ctx.costly_k_limit() {
                row.push(Cell::Missing);
                continue;
            }
            let meas = measure_spec_avg(
                &registry,
                &solver.spec,
                &inst,
                ctx.seed,
                solver.repeats(ctx),
            );
            row.push(meas.quality.map(Cell::from).unwrap_or(Cell::Missing));
        }
        quality.push_row(row);
    }
    let mut set = TableSet::new();
    set.push(quality);
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use waso_datasets::Scale;

    #[test]
    fn histogram_fractions_cover_all_samples() {
        let ctx = ExperimentContext::new(Scale::Smoke);
        let set = sample_histogram(&ctx);
        let hist = &set.tables[0];
        let total: f64 = hist
            .rows
            .iter()
            .map(|r| match &r[1] {
                Cell::Num(x) => *x,
                _ => 0.0,
            })
            .sum();
        assert!((total - 100.0).abs() < 1e-6, "total {total}");
        // Fit table carries mean/variance/samples.
        assert_eq!(set.tables[1].rows.len(), 3);
    }

    #[test]
    fn gaussian_variant_is_close_to_uniform_variant() {
        // The paper's Figure 6(b) finding: the two allocations coincide.
        let ctx = ExperimentContext::new(Scale::Smoke);
        let set = gaussian_variant(&ctx);
        let t = &set.tables[0];
        let nd_col = t.columns.iter().position(|c| c == "CBAS-ND").unwrap();
        let ndg_col = t.columns.iter().position(|c| c == "CBAS-ND-G").unwrap();
        for row in &t.rows {
            if let (Cell::Num(nd), Cell::Num(ndg)) = (&row[nd_col], &row[ndg_col]) {
                let rel = (nd - ndg).abs() / nd.abs().max(1e-9);
                assert!(rel < 0.25, "CBAS-ND {nd} vs CBAS-ND-G {ndg}");
            }
        }
    }
}
