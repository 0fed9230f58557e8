//! Multi-GPU in-place transposition — the paper's stated future work
//! ("we believe that our efficient 3-stage approach can be used as a
//! building block for a multi-GPU version", §8).
//!
//! ## Scheme
//!
//! The host matrix `M × N` is split into `D` row blocks of `M_d = M/D`
//! rows (requiring `D | M`). Each device:
//!
//! 1. receives its block over PCIe (H2D),
//! 2. transposes it in place with the 3-stage algorithm (block `d`
//!    becomes the row-major `N × M_d` column panel of the result),
//! 3. ships the panel back (D2H) into the host buffer's column slice
//!    `[d·M_d, (d+1)·M_d)` of the final `N × M` matrix.
//!
//! Every per-device computation is fully independent, so compute scales
//! with `D`; the PCIe link does **not** when all devices sit behind one
//! host link (`link = Shared`), which is the honest 2013-era configuration
//! — transfers stay the bottleneck and the end-to-end gain saturates.
//! With private links per device (`link = Private`, e.g. dual-socket
//! boards) the whole pipeline scales.
//!
//! The functional path really executes: each device's simulator transposes
//! its block, the host-side reassembly is verified element-exact against
//! the reference, and only then is the DES timeline reported.

use crate::opts::GpuOptions;
use crate::pipeline::{plan_flag_words, run_plan};
use crate::recover::{TransposeError, VerifyError};
use gpu_sim::{simulate, Cmd, DeviceSpec, Sim, Timeline};
use ipt_core::stages::StagePlan;
use ipt_core::{Matrix, TileHeuristic};
use serde::Serialize;

/// PCIe topology for the device set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum LinkTopology {
    /// All devices share one host link (transfers serialise) — the common
    /// single-socket configuration.
    Shared,
    /// Each device has a private link (transfers scale with D).
    Private,
}

impl LinkTopology {
    /// DES engine indices `(h2d, d2h)` that device `d` of `d_count`
    /// transfers on. Engines `[0, d_count)` are per-device compute; shared
    /// links append one H2D and one D2H engine, private links append a pair
    /// per device. Shared by [`run_multi_gpu`] and the serving layer so
    /// both describe the same hardware.
    #[must_use]
    pub fn link_engines(self, d_count: usize, d: usize) -> (usize, usize) {
        match self {
            LinkTopology::Shared => (d_count, d_count + 1),
            LinkTopology::Private => (d_count + 2 * d, d_count + 2 * d + 1),
        }
    }

    /// Total DES engine count for `d_count` devices under this topology.
    #[must_use]
    pub fn num_engines(self, d_count: usize) -> usize {
        match self {
            LinkTopology::Shared => d_count + 2,
            LinkTopology::Private => 3 * d_count,
        }
    }
}

/// Result of a multi-GPU run.
#[derive(Debug, Clone)]
pub struct MultiReport {
    /// Devices used.
    pub devices: usize,
    /// Link topology.
    pub link: LinkTopology,
    /// DES timeline across all devices.
    pub timeline: Timeline,
    /// End-to-end seconds.
    pub total_s: f64,
    /// Effective host-side throughput (paper convention).
    pub effective_gbps: f64,
    /// Per-device kernel time (seconds), for scaling diagnostics.
    pub kernel_s_per_device: Vec<f64>,
}

impl MultiReport {
    /// Emit this report into a [`Recorder`](ipt_obs::Recorder): the DES
    /// timeline (engines named `dev<N> compute` / `H2D link` / `D2H link`)
    /// plus per-device kernel-time and end-to-end gauges. `t0_s` offsets
    /// the timeline on the recorder's global clock.
    pub fn record<R: ipt_obs::Recorder>(&self, rec: &R, t0_s: f64) {
        if !rec.enabled() {
            return;
        }
        let mut names: Vec<String> =
            (0..self.devices).map(|d| format!("dev{d} compute")).collect();
        match self.link {
            LinkTopology::Shared => {
                names.push("H2D link".into());
                names.push("D2H link".into());
            }
            LinkTopology::Private => {
                for d in 0..self.devices {
                    names.push(format!("dev{d} H2D"));
                    names.push(format!("dev{d} D2H"));
                }
            }
        }
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        self.timeline.record(rec, t0_s, &refs);
        for (d, s) in self.kernel_s_per_device.iter().enumerate() {
            rec.gauge(&format!("multi:dev{d}"), "kernel_s", *s);
        }
        rec.gauge("multi", "effective_gbps", self.effective_gbps);
        rec.gauge("multi", "total_s", self.total_s);
    }
}

/// Run the multi-GPU scheme with `d_count` identical devices.
///
/// # Errors
/// [`TransposeError::InvalidConfig`] if `d_count` does not divide `rows`
/// or no tile fits the row blocks; [`TransposeError::Launch`] for
/// infeasible launches; [`TransposeError::Verify`] if the reassembled
/// result is not the exact transposition.
pub fn run_multi_gpu(
    dev: &DeviceSpec,
    d_count: usize,
    rows: usize,
    cols: usize,
    opts: &GpuOptions,
    link: LinkTopology,
) -> Result<MultiReport, TransposeError> {
    if d_count < 1 || !rows.is_multiple_of(d_count) {
        return Err(TransposeError::InvalidConfig {
            what: format!("device count {d_count} must divide M = {rows}"),
        });
    }
    let md = rows / d_count;
    let heuristic = TileHeuristic { preferred_lo: 20, ..TileHeuristic::default() };
    let tile = heuristic.select(md, cols).ok_or_else(|| TransposeError::InvalidConfig {
        what: format!(
            "no tile fits the {md}×{cols} row blocks; pick a device count that keeps divisors"
        ),
    })?;
    let plan = StagePlan::three_stage(md, cols, tile)?;

    let host = Matrix::iota(rows, cols);
    let want = host.transposed();
    let mut result = vec![0u32; rows * cols];

    // Functional execution per device + kernel times.
    let mut kernel_s = Vec::with_capacity(d_count);
    for d in 0..d_count {
        let mut sim = Sim::new(dev.clone(), md * cols + plan_flag_words(&plan) + 64);
        let buf = sim.alloc(md * cols);
        let flags = sim.alloc(plan_flag_words(&plan).max(1));
        let block = &host.as_slice()[d * md * cols..(d + 1) * md * cols];
        sim.upload_u32(buf, block);
        let stats = run_plan(&sim, buf, flags, &plan, opts)?;
        kernel_s.push(stats.time_s());
        // The device now holds the N × M_d panel; scatter it into the
        // host result's column slice [d·M_d, (d+1)·M_d).
        let panel = sim.download_u32(buf);
        for j in 0..cols {
            for i in 0..md {
                result[j * rows + d * md + i] = panel[j * md + i];
            }
        }
    }
    if result != want.as_slice() {
        let off = result
            .iter()
            .zip(want.as_slice())
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return Err(TransposeError::Verify(VerifyError {
            stage: None,
            detail: format!("multi-GPU reassembly incorrect, first mismatch at offset {off}"),
        }));
    }

    // Timeline: engines [0..D) = per-device compute; D = shared H2D link,
    // D+1 = shared D2H link (or 2 per device when private).
    let block_bytes = ipt_core::check::bytes_f64(md, cols, 4);
    let xfer = dev.pcie.transfer_time(block_bytes);
    let setup = dev.queue_create_overhead_s * d_count as f64;
    let queues: Vec<Vec<Cmd>> = (0..d_count)
        .map(|d| {
            let (h2d_e, d2h_e) = link.link_engines(d_count, d);
            vec![
                Cmd::on(h2d_e, xfer, format!("H2D block {d}")),
                Cmd::on(d, kernel_s[d], format!("3-stage block {d}")),
                Cmd::on(d2h_e, xfer, format!("D2H panel {d}")),
            ]
        })
        .collect();
    let timeline = simulate(link.num_engines(d_count), setup, &queues, &[], None, None)?;
    let bytes = ipt_core::check::bytes_f64(rows, cols, 4);
    Ok(MultiReport {
        devices: d_count,
        link,
        total_s: timeline.total_s,
        effective_gbps: 2.0 * bytes / timeline.total_s / 1e9,
        timeline,
        kernel_s_per_device: kernel_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROWS: usize = 1440;
    const COLS: usize = 360;

    fn k20() -> (DeviceSpec, GpuOptions) {
        let d = DeviceSpec::tesla_k20();
        let o = GpuOptions::tuned_for(&d);
        (d, o)
    }

    #[test]
    fn multi_gpu_reassembles_exactly() {
        let (dev, opts) = k20();
        for d in [1usize, 2, 4] {
            let rep = run_multi_gpu(&dev, d, ROWS, COLS, &opts, LinkTopology::Shared).unwrap();
            assert_eq!(rep.devices, d);
            assert!(rep.total_s > 0.0);
        }
    }

    #[test]
    fn private_links_scale_better_than_shared() {
        let (dev, opts) = k20();
        let shared = run_multi_gpu(&dev, 4, ROWS, COLS, &opts, LinkTopology::Shared).unwrap();
        let private = run_multi_gpu(&dev, 4, ROWS, COLS, &opts, LinkTopology::Private).unwrap();
        assert!(
            private.total_s < shared.total_s,
            "private {} < shared {}",
            private.total_s,
            shared.total_s
        );
    }

    #[test]
    fn shared_link_gain_saturates() {
        // With one host link, transfers dominate: going 1 → 4 devices must
        // help (kernels parallelise) but far less than 4×.
        let (dev, opts) = k20();
        let one = run_multi_gpu(&dev, 1, ROWS, COLS, &opts, LinkTopology::Shared).unwrap();
        let four = run_multi_gpu(&dev, 4, ROWS, COLS, &opts, LinkTopology::Shared).unwrap();
        assert!(four.total_s <= one.total_s * 1.05, "more devices must not hurt much");
        assert!(
            four.total_s > one.total_s / 3.0,
            "shared link cannot scale linearly: {} vs {}",
            four.total_s,
            one.total_s
        );
    }

    #[test]
    fn device_count_must_divide_rows() {
        let (dev, opts) = k20();
        let err = run_multi_gpu(&dev, 7, ROWS, COLS, &opts, LinkTopology::Shared).unwrap_err();
        assert!(
            matches!(&err, TransposeError::InvalidConfig { what } if what.contains("divide")),
            "{err}"
        );
    }
}
