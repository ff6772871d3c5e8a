//! # vamor-bench
//!
//! Reproduction harness for the evaluation section of the DAC 2012 paper.
//! Every table and figure has a corresponding experiment function here; the
//! `reproduce` binary runs them, prints the series/rows and timings, and
//! writes the machine-readable snapshot that `cargo xtask bench-trend`
//! gates.
//!
//! | Paper artefact | Function |
//! |---|---|
//! | Fig. 2 (voltage-driven line, with `D₁`)        | [`experiments::fig2_voltage_line`] |
//! | Fig. 3 + Table 1 rows "Sect 3.2" (current line) | [`experiments::fig3_current_line`] |
//! | Fig. 4 + Table 1 rows "Sect 3.3" (MISO receiver)| [`experiments::fig4_rf_receiver`] |
//! | Fig. 5 (ZnO varistor, cubic ODE)               | [`experiments::fig5_varistor`] |
//! | §4 size-scaling remark                          | [`experiments::scaling_subspace_dims`] |
//! | Low-rank engine scaling (10⁴-state reductions)  | [`experiments::lowrank_scaling`] |
//! | §2.3 structured solves vs the Eq. 17 realization | [`experiments::ablation_structured_vs_dense`] |

pub mod experiments;

pub use experiments::{
    ablation_structured_vs_dense, acceptance_metrics, adaptive_deadline_run, adaptive_report,
    adaptive_resume_run, fig2_adaptive_spec, fig2_voltage_line, fig2_voltage_line_with,
    fig3_adaptive_spec, fig3_current_line, fig3_current_line_with, fig4_adaptive_spec,
    fig4_rf_receiver, fig4_rf_receiver_with, fig5_adaptive_spec, fig5_varistor, fig5_varistor_with,
    lowrank_scaling, scaling_subspace_dims, sparse_scaling, trace_overhead_guard, AblationRow,
    AcceptanceMetrics, AdaptiveExperimentReport, AdaptiveFigReport, AdaptiveSummary,
    DeadlineRunReport, ExperimentError, LowRankScalingReport, ResumeReport, ScalingRow,
    SparseScalingReport, Timings, TraceOverheadReport, TransientComparison,
};

#[cfg(feature = "fault-injection")]
pub use experiments::{chaos_sweep, chaos_sweep_concurrent, ChaosCase, ChaosReport};
