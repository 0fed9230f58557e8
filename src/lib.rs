//! # ipt — in-place transposition of rectangular matrices on accelerators
//!
//! Facade crate for the reproduction of Sung, Gómez-Luna, González-Linares,
//! Guil & Hwu, *"In-Place Transposition of Rectangular Matrices on
//! Accelerators"*, PPoPP 2014. Re-exports the five workspace crates:
//!
//! * [`core`] (`ipt-core`) — permutation/cycle mathematics, elementary
//!   tiled transpositions, 3-stage/4-stage plans, tile selection,
//!   AoS/SoA/ASTA layout marshaling; one host entry point per operation,
//!   run on the caller's rayon pool (a 1-wide pool runs it inline).
//! * [`sim`] (`gpu-sim`) — the SIMT execution simulator substrate
//!   (devices, warps, banks, locks, occupancy, command queues, PCIe).
//! * [`gpu`] (`ipt-gpu`) — the paper's kernels on the simulator: BS,
//!   PTTWAC `010!`/`100!`, staged pipelines, the host async scheme,
//!   autotuning.
//! * [`obs`] (`ipt-obs`) — the [`obs::Recorder`] every device entry point
//!   takes: [`obs::NoopRecorder`] records nothing at zero cost,
//!   [`obs::TraceRecorder`] collects spans and counters for the exporters.
//! * [`baselines`] (`ipt-baselines`) — CPU comparators (GKK parallel
//!   in-place, MKL-like out-of-place, sequential in-place, P-IPT).
//!
//! ## Quick start
//!
//! ```
//! use ipt::core::{Matrix, transpose_in_place};
//!
//! let a = Matrix::iota(60, 48);
//! let expect = a.transposed();
//! // 3-stage in-place transposition, tile chosen for the host:
//! let t = transpose_in_place(a);
//! assert_eq!(t, expect);
//! ```
//!
//! On the simulated accelerator:
//!
//! ```
//! use ipt::gpu::{transpose_on_device, plan_flag_words, GpuOptions};
//! use ipt::obs::NoopRecorder;
//! use ipt::sim::{DeviceSpec, Sim};
//! use ipt::core::{Matrix, StagePlan, TileConfig};
//!
//! let (rows, cols) = (72, 60);
//! let plan = StagePlan::three_stage(rows, cols, TileConfig::new(12, 10)).unwrap();
//! let dev = DeviceSpec::tesla_k20();
//! let opts = GpuOptions::tuned_for(&dev);
//! let mut sim = Sim::new(dev, rows * cols + plan_flag_words(&plan) + 64);
//! let mut data = Matrix::iota(rows, cols).into_vec();
//! let stats =
//!     transpose_on_device(&mut sim, &mut data, rows, cols, &plan, &opts, &NoopRecorder).unwrap();
//! assert!(stats.time_s() > 0.0); // simulated kernel time
//! ```

#![warn(missing_docs)]

pub use gpu_sim as sim;
pub use ipt_baselines as baselines;
pub use ipt_core as core;
pub use ipt_gpu as gpu;
pub use ipt_obs as obs;
