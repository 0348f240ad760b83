//! Figure 4 — the user study (§5.2), simulated.
//!
//! 137 participants each planned activities over ego networks from their
//! own Facebook accounts; the figures compare manual coordination,
//! CBAS-ND, and the CPLEX optimum ("IP"), with (`-i`) and without (`-ni`)
//! the initiator pinned into the group. Here the participants are
//! [`waso_datasets::ManualPlanner`] simulations and the IP optimum comes
//! from exhaustive enumeration (the instances are ≤ 30 nodes). Manual
//! "execution time" is the planner's *modeled human seconds*; solver times
//! are wall-clock.

use std::sync::Arc;

use waso_algos::{SolveRequest, SolverSpec};
use waso_datasets::userstudy::{self, ManualPlanner, Opinion};
use waso_exact::exhaustive_optimum_where;

use crate::report::{Cell, Table, TableSet};
use crate::runner::ExperimentContext;

/// The study's solver spec: a small budget suits ≤ 30-node instances
/// (§5.2 runs interactively); the `-i` mode pins the initiator as the
/// start node.
fn study_spec(pin_initiator: Option<waso_graph::NodeId>) -> SolverSpec {
    let mut spec = SolverSpec::cbas_nd().budget(100).stages(3);
    if let Some(v) = pin_initiator {
        spec = spec.starts([v]);
    }
    spec
}

/// One participant × one problem, all six measurements of Figures 4(b)–(e).
struct ProblemOutcome {
    manual_i: f64,
    manual_i_secs: f64,
    cbasnd_i: f64,
    cbasnd_i_secs: f64,
    ip_i: f64,
    ip_i_secs: f64,
    manual_ni: f64,
    manual_ni_secs: f64,
    cbasnd_ni: f64,
    cbasnd_ni_secs: f64,
    ip_ni: f64,
    ip_ni_secs: f64,
}

fn run_problem(n: usize, k: usize, seed: u64) -> Option<ProblemOutcome> {
    let problem = userstudy::study_problem(n, k, seed);
    let inst = &Arc::new(problem.instance);
    if inst.graph().num_nodes() < k {
        return None;
    }
    let initiator = problem.initiator;
    let planner = ManualPlanner::new();

    // Manual, initiator pinned.
    let m_i = planner.plan(inst, Some(initiator), seed ^ 0x11);
    // Manual, free choice.
    let m_ni = planner.plan(inst, None, seed ^ 0x22);
    let (m_i_group, m_ni_group) = (m_i.group?, m_ni.group?);

    // CBAS-ND, both modes (wall-clock measured), via the registry.
    let registry = waso::registry();
    let t0 = std::time::Instant::now();
    let c_i = registry
        .build(&study_spec(Some(initiator)))
        .expect("study spec is registry-valid")
        .solve(&SolveRequest::new(inst, seed))
        .ok()?;
    let c_i_secs = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    let c_ni = registry
        .build(&study_spec(None))
        .expect("study spec is registry-valid")
        .solve(&SolveRequest::new(inst, seed))
        .ok()?;
    let c_ni_secs = t0.elapsed().as_secs_f64();

    // Exact optima (the paper's IP / CPLEX role).
    let t0 = std::time::Instant::now();
    let ip_i = exhaustive_optimum_where(inst, |nodes| nodes.contains(&initiator))?;
    let ip_i_secs = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    let ip_ni = exhaustive_optimum_where(inst, |_| true)?;
    let ip_ni_secs = t0.elapsed().as_secs_f64();

    Some(ProblemOutcome {
        manual_i: m_i_group.willingness(),
        manual_i_secs: m_i.modeled_seconds,
        cbasnd_i: c_i.group.willingness(),
        cbasnd_i_secs: c_i_secs,
        ip_i: ip_i.willingness(),
        ip_i_secs,
        manual_ni: m_ni_group.willingness(),
        manual_ni_secs: m_ni.modeled_seconds,
        cbasnd_ni: c_ni.group.willingness(),
        cbasnd_ni_secs: c_ni_secs,
        ip_ni: ip_ni.willingness(),
        ip_ni_secs,
    })
}

/// Averages outcomes over the simulated participants for one `(n, k)`.
fn averaged(n: usize, k: usize, ctx: &ExperimentContext) -> Option<ProblemOutcome> {
    let participants = ctx.study_participants();
    let mut acc: Option<ProblemOutcome> = None;
    let mut count = 0u32;
    for p in 0..participants {
        let seed = ctx.seed ^ ((n as u64) << 24) ^ ((k as u64) << 16) ^ p as u64;
        if let Some(o) = run_problem(n, k, seed) {
            count += 1;
            match &mut acc {
                None => acc = Some(o),
                Some(a) => {
                    a.manual_i += o.manual_i;
                    a.manual_i_secs += o.manual_i_secs;
                    a.cbasnd_i += o.cbasnd_i;
                    a.cbasnd_i_secs += o.cbasnd_i_secs;
                    a.ip_i += o.ip_i;
                    a.ip_i_secs += o.ip_i_secs;
                    a.manual_ni += o.manual_ni;
                    a.manual_ni_secs += o.manual_ni_secs;
                    a.cbasnd_ni += o.cbasnd_ni;
                    a.cbasnd_ni_secs += o.cbasnd_ni_secs;
                    a.ip_ni += o.ip_ni;
                    a.ip_ni_secs += o.ip_ni_secs;
                }
            }
        }
    }
    acc.map(|mut a| {
        let c = count as f64;
        a.manual_i /= c;
        a.manual_i_secs /= c;
        a.cbasnd_i /= c;
        a.cbasnd_i_secs /= c;
        a.ip_i /= c;
        a.ip_i_secs /= c;
        a.manual_ni /= c;
        a.manual_ni_secs /= c;
        a.cbasnd_ni /= c;
        a.cbasnd_ni_secs /= c;
        a.ip_ni /= c;
        a.ip_ni_secs /= c;
        a
    })
}

const QUALITY_COLS: [&str; 7] = [
    "x",
    "Manual-i",
    "CBAS-ND-i",
    "IP-i",
    "Manual-ni",
    "CBAS-ND-ni",
    "IP-ni",
];

fn quality_row(x: usize, o: &ProblemOutcome) -> Vec<Cell> {
    vec![
        Cell::from(x),
        Cell::from(o.manual_i),
        Cell::from(o.cbasnd_i),
        Cell::from(o.ip_i),
        Cell::from(o.manual_ni),
        Cell::from(o.cbasnd_ni),
        Cell::from(o.ip_ni),
    ]
}

fn time_row(x: usize, o: &ProblemOutcome) -> Vec<Cell> {
    vec![
        Cell::from(x),
        Cell::from(o.manual_i_secs),
        Cell::from(o.cbasnd_i_secs),
        Cell::from(o.ip_i_secs),
        Cell::from(o.manual_ni_secs),
        Cell::from(o.cbasnd_ni_secs),
        Cell::from(o.ip_ni_secs),
    ]
}

/// Figure 4(a): the λ preference histogram of the participants.
pub fn lambda_histogram(ctx: &ExperimentContext) -> TableSet {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let participants = ctx.study_participants().max(50) as usize;
    let samples: Vec<f64> = (0..participants)
        .map(|_| userstudy::sample_lambda(&mut rng))
        .collect();

    let mut t = Table::new(
        "fig4a",
        "Figure 4(a): participant lambda-weight histogram",
        &["lambda bin", "percentage"],
    );
    for &(lo, hi, _) in &userstudy::LAMBDA_BINS {
        let frac =
            samples.iter().filter(|&&x| x >= lo && x < hi).count() as f64 / samples.len() as f64;
        t.push_row(vec![
            Cell::from(format!("{lo:.2}-{hi:.2}")),
            Cell::from(100.0 * frac),
        ]);
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    t.push_row(vec![Cell::from("mean"), Cell::from(mean)]);

    let mut set = TableSet::new();
    set.push(t);
    set
}

/// Figures 4(b)+(c): quality and time vs network size n (k = 7).
pub fn quality_time_vs_n(ctx: &ExperimentContext) -> TableSet {
    let sizes: &[usize] = match ctx.scale {
        waso_datasets::Scale::Smoke => &[15, 20],
        _ => &[15, 20, 25, 30],
    };
    let k = 7;
    let mut quality = Table::new(
        "fig4b",
        "Figure 4(b): user-study solution quality vs n (k=7)",
        &QUALITY_COLS,
    );
    let mut time = Table::new(
        "fig4c",
        "Figure 4(c): user-study time vs n, seconds (manual = modeled)",
        &QUALITY_COLS,
    );
    for &n in sizes {
        if let Some(o) = averaged(n, k, ctx) {
            quality.push_row(quality_row(n, &o));
            time.push_row(time_row(n, &o));
        }
    }
    let mut set = TableSet::new();
    set.push(quality);
    set.push(time);
    set
}

/// Figures 4(d)+(e): quality and time vs group size k (n = 25).
pub fn quality_time_vs_k(ctx: &ExperimentContext) -> TableSet {
    let ks: &[usize] = match ctx.scale {
        waso_datasets::Scale::Smoke => &[7],
        _ => &[7, 9, 11, 13],
    };
    let n = 25;
    let mut quality = Table::new(
        "fig4d",
        "Figure 4(d): user-study solution quality vs k (n=25)",
        &QUALITY_COLS,
    );
    let mut time = Table::new(
        "fig4e",
        "Figure 4(e): user-study time vs k, seconds (manual = modeled)",
        &QUALITY_COLS,
    );
    for &k in ks {
        if let Some(o) = averaged(n, k, ctx) {
            quality.push_row(quality_row(k, &o));
            time.push_row(time_row(k, &o));
        }
    }
    let mut set = TableSet::new();
    set.push(quality);
    set.push(time);
    set
}

/// Figure 4(f): opinion percentages — how participants judge CBAS-ND's
/// group against their own.
pub fn opinions(ctx: &ExperimentContext) -> TableSet {
    let mut with_init = [0u32; 3];
    let mut without_init = [0u32; 3];
    let mut total = 0u32;

    let sizes: &[usize] = match ctx.scale {
        waso_datasets::Scale::Smoke => &[15],
        _ => &[15, 20, 25, 30],
    };
    for &n in sizes {
        for p in 0..ctx.study_participants() {
            let seed = ctx.seed ^ 0xF4 ^ ((n as u64) << 20) ^ p as u64;
            if let Some(o) = run_problem(n, 7, seed) {
                total += 1;
                let tally = |arr: &mut [u32; 3], op: Opinion| match op {
                    Opinion::Better => arr[0] += 1,
                    Opinion::Acceptable => arr[1] += 1,
                    Opinion::NotAcceptable => arr[2] += 1,
                };
                tally(&mut with_init, Opinion::judge(o.manual_i, o.cbasnd_i));
                tally(&mut without_init, Opinion::judge(o.manual_ni, o.cbasnd_ni));
            }
        }
    }

    let mut t = Table::new(
        "fig4f",
        "Figure 4(f): opinion of the recommended group vs the manual one (%)",
        &["opinion", "With Initiator", "Without Initiator"],
    );
    let pct = |x: u32| {
        if total == 0 {
            0.0
        } else {
            100.0 * x as f64 / total as f64
        }
    };
    for (i, name) in ["Better", "Acceptable", "Not Acceptable"]
        .iter()
        .enumerate()
    {
        t.push_row(vec![
            Cell::from(*name),
            Cell::from(pct(with_init[i])),
            Cell::from(pct(without_init[i])),
        ]);
    }
    let mut set = TableSet::new();
    set.push(t);
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
    fn lambda_histogram_sums_to_hundred() {
        let set = lambda_histogram(&smoke());
        let t = &set.tables[0];
        let total: f64 = t.rows[..5]
            .iter()
            .map(|r| match &r[1] {
                Cell::Num(x) => *x,
                _ => 0.0,
            })
            .sum();
        assert!((total - 100.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn study_quality_orders_sanely() {
        let set = quality_time_vs_n(&smoke());
        let q = &set.tables[0];
        assert!(!q.rows.is_empty());
        for row in &q.rows {
            let get = |i: usize| match &row[i] {
                Cell::Num(x) => *x,
                _ => panic!("expected number"),
            };
            // IP ≥ CBAS-ND (optimum dominates) in both modes.
            assert!(get(3) >= get(2) - 1e-9, "IP-i must dominate CBAS-ND-i");
            assert!(get(6) >= get(5) - 1e-9, "IP-ni must dominate CBAS-ND-ni");
            // Unrestricted optimum ≥ pinned optimum.
            assert!(get(6) >= get(3) - 1e-9);
        }
    }

    #[test]
    fn opinions_percentages_are_complete() {
        let set = opinions(&smoke());
        let t = &set.tables[0];
        for col in [1, 2] {
            let total: f64 = t
                .rows
                .iter()
                .map(|r| match &r[col] {
                    Cell::Num(x) => *x,
                    _ => 0.0,
                })
                .sum();
            assert!((total - 100.0).abs() < 1e-6, "column {col} sums to {total}");
        }
    }
}
