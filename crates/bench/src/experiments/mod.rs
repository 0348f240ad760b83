//! Per-figure experiment drivers.
//!
//! Each `figN` module regenerates the series of the corresponding figure in
//! the paper's §5 (see DESIGN.md §6 for the index); `decomp` runs the
//! decomposition ladder. Drivers take an [`crate::ExperimentContext`] and
//! return [`crate::TableSet`]s; the Figure 5(d) sweep and the ladder also
//! return the [`BenchRecord`]s of `BENCH_engine.json`. The
//! `waso-experiments` binary routes CLI requests here.

pub mod decomp;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;

use crate::report::{BenchRecord, TableSet};
use crate::runner::ExperimentContext;

/// All known experiment ids, in paper order.
pub const ALL_FIGURES: &[&str] = &[
    "decomp", "4a", "4bc", "4de", "4f", "5ab", "5c", "5d", "5ef", "5g", "5h", "5ij", "6a", "6b",
    "7ab", "7cd", "7ef", "8ab", "9ab", "9cd",
];

/// Runs one experiment by id, returning its tables and its bench records
/// (empty for figures that write none). Returns `None` for unknown ids.
pub fn run_figure(id: &str, ctx: &ExperimentContext) -> Option<(TableSet, Vec<BenchRecord>)> {
    let tables = match id {
        "decomp" => return Some(decomp::ladder(ctx)),
        "5d" => return Some(fig5::parallel_speedup(ctx)),
        "4a" => fig4::lambda_histogram(ctx),
        "4bc" => fig4::quality_time_vs_n(ctx),
        "4de" => fig4::quality_time_vs_k(ctx),
        "4f" => fig4::opinions(ctx),
        "5ab" => fig5::quality_time_vs_k(ctx),
        "5c" => fig5::time_vs_n(ctx),
        "5ef" => fig5::vs_budget(ctx),
        "5g" => fig5::smoothing_sweep(ctx),
        "5h" => fig5::rho_sweep(ctx),
        "5ij" => fig5::start_nodes_sweep(ctx),
        "6a" => fig6::sample_histogram(ctx),
        "6b" => fig6::gaussian_variant(ctx),
        "7ab" => fig7::quality_time_vs_k(ctx),
        "7cd" => fig7::start_nodes_sweep(ctx),
        "7ef" => fig7::vs_budget(ctx),
        "8ab" => fig8::quality_time_vs_k(ctx),
        "9ab" => fig9::ip_comparison(ctx),
        "9cd" => fig9::waso_dis(ctx),
        _ => return None,
    };
    Some((tables, Vec::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use waso_datasets::Scale;

    #[test]
    fn unknown_figure_is_none() {
        let ctx = ExperimentContext::new(Scale::Smoke);
        assert!(run_figure("fig42", &ctx).is_none());
    }

    #[test]
    fn all_ids_route() {
        // Routing only — execution is covered by the per-figure tests.
        for id in ALL_FIGURES {
            assert!(
                *id == "decomp" || matches!(id.chars().next(), Some('4'..='9')),
                "odd id {id}"
            );
        }
    }
}
