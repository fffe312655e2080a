//! Experiment orchestration: the study itself.
//!
//! This crate glues the substrates together into the paper's
//! methodology:
//!
//! 1. every (architecture, model, precision) combination is checked
//!    against the support matrix (`perfport-models`);
//! 2. the kernel is **functionally executed and verified** — CPU kernels
//!    on the real `perfport-pool` runtime, GPU kernels on the
//!    `perfport-gpusim` SIMT simulator — against the `f64` reference;
//! 3. the simulator counters and analytic footprints are scaled to the
//!    target matrix sizes and fed to the `perfport-machines` timing
//!    models together with the model profile (pinning, overheads,
//!    calibrated codegen efficiency);
//! 4. repetitions are timed with deterministic run-to-run noise, the
//!    JIT warm-up repetition is excluded exactly as the paper describes
//!    (§IV), and the mean throughput is reported;
//! 5. per-architecture efficiencies and the Φ_M portability metric are
//!    aggregated into Table III ([`analysis`]), and every figure/table
//!    has a registered spec ([`study`]) that the `perfport-bench`
//!    binaries render ([`tables`]).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod counters;
pub mod experiment;
pub mod noise;
pub mod report;
pub mod runner;
pub mod scaling;
pub mod shard;
pub mod stream;
pub mod study;
pub mod tables;

pub use analysis::{
    efficiency_table, efficiency_table_with, figure_efficiency, EfficiencyReport, FigureEfficiency,
    HostBaseline,
};
pub use experiment::{Experiment, ExperimentResult, RunError, SizePoint};
pub use report::{render_report, reproduction_report, Anchor};
pub use runner::run_experiment;
pub use scaling::{run_scaling, ScalingResult, ScalingStudy};
pub use shard::{
    full_study_grid, render_study_csv, run_grid_point, run_study_sharded, study_grid, GridPoint,
    PointResult, PointRun, Shard, STUDY_CSV_HEADER,
};
pub use stream::{estimate_stream_bandwidth, run_stream_kernel, StreamKernel};
pub use study::{figure_specs, FigureSpec, StudyConfig};
pub use tables::{
    render_csv, render_efficiency, render_efficiency_csv, render_figure, render_table3,
};
