//! Device kernels for the full C2R/R2C decomposition (Catanzaro, Keller &
//! Garland, PPoPP 2014) — see [`ipt_core::c2r`] for the mathematics. Three
//! line-permutation passes (column rotate → row shuffle → column shuffle;
//! the rotate is skipped when `gcd = 1`), all [`Coordination::WgLocal`]:
//! no claim flags, no atomics, and per-work-group footprints that never
//! overlap, so the parallel engine covers them with bit-identity for free.
//!
//! ## Batched-line staging
//!
//! Staging one column per work-group pays a stride-N (fully uncoalesced)
//! global access per element on the column pass. Here a work-group stages a **batch of adjacent lines** as one rectangle, so
//! the column passes read and write runs of `batch` consecutive words —
//! `batch`-word segments instead of isolated 4-byte accesses — which cuts
//! the DRAM transaction count by up to `batch ×` on exactly the pass that
//! dominates. The batch width balances coalescing against occupancy: the
//! staging slot is kept small enough for several resident work-groups per
//! SM.
//!
//! ## Lines longer than local memory
//!
//! A 104729-word line cannot be staged in a 48 KB scratchpad. Each C2R
//! pass then degrades
//! to a **global-scratch staging mode**: every work-group owns a disjoint
//! scratch slot (so the kernel stays `WgLocal`), stages its rectangle
//! there, and gathers back through the same index maps. Slower than local
//! staging — scratch traffic is honest global traffic — but total, which
//! is what lets every prime shape stay on the device path.

use gpu_sim::{
    Buffer, Coordination, Grid, Kernel, LaneAddrs, LaneWrites, LaunchError, Step, WarpCtx,
};
use ipt_core::C2rGeometry;

/// Which of the three C2R line passes a kernel instance runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum C2rPassKind {
    /// Phase 1: rotate column `q` down by `⌊q/b⌋` (skipped when `c = 1`).
    Rotate,
    /// Phase 2: modular shuffle within each row.
    RowShuffle,
    /// Phase 3: modular shuffle within each column.
    ColShuffle,
}

impl C2rPassKind {
    fn label(self) -> &'static str {
        match self {
            Self::Rotate => "rotate",
            Self::RowShuffle => "rows",
            Self::ColShuffle => "cols",
        }
    }
}

/// Upper bound on work-groups in global-scratch mode: enough to cover the
/// SMs of every modelled device while bounding the scratch allocation.
const SCRATCH_MAX_WGS: usize = 16;

/// Grid cap in local-staging mode.
const LOCAL_MAX_WGS: usize = 4096;

/// How one pass stages its lines on one device: batch width, slot size,
/// grid, and whether staging lives in local memory or global scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassLayout {
    /// Words per line (M for column passes, N for the row pass).
    pub line_len: usize,
    /// Lines in the pass (N columns or M rows).
    pub num_lines: usize,
    /// Adjacent lines staged together by one work-group.
    pub batch: usize,
    /// Words in one staging slot (`line_len · batch`).
    pub slot_words: usize,
    /// Work-groups launched.
    pub num_wgs: usize,
    /// `true`: staging slot lives in a global scratch buffer.
    pub scratch: bool,
}

/// Compute the staging layout of one pass for one device.
#[must_use]
pub fn pass_layout(
    kind: C2rPassKind,
    geom: &C2rGeometry,
    dev: &gpu_sim::DeviceSpec,
    wg_size: usize,
) -> PassLayout {
    let (line_len, num_lines) = match kind {
        C2rPassKind::RowShuffle => (geom.n, geom.m),
        C2rPassKind::Rotate | C2rPassKind::ColShuffle => (geom.m, geom.n),
    };
    let local_budget = dev.local_words_per_wg();
    if line_len <= local_budget {
        // Local staging. Column passes batch up to a SIMD-width of adjacent
        // columns for coalescing; the row pass batches only to keep short
        // rows from starving a work-group (its accesses are contiguous
        // already). The occupancy target keeps ~6 slots resident per SM so
        // batching never collapses the grid to one work-group per SM.
        let occupancy_target = (dev.local_mem_per_sm / 4 / 6).max(1);
        let want = match kind {
            C2rPassKind::RowShuffle => (wg_size / line_len.max(1)).max(1),
            C2rPassKind::Rotate | C2rPassKind::ColShuffle => dev.simd_width,
        };
        // Parallelism floor: on small matrices batching must shrink before
        // the grid does, or a handful of fat work-groups leaves most SMs
        // idle (127×61 would otherwise launch 4 work-groups on a 13-SM
        // device).
        let min_wgs = 4 * dev.num_sms.max(1);
        let batch = want
            .min((occupancy_target / line_len).max(1))
            .min(local_budget / line_len)
            .min(num_lines.div_ceil(min_wgs).max(1))
            .min(num_lines)
            .max(1);
        let num_wgs = num_lines.div_ceil(batch).clamp(1, LOCAL_MAX_WGS);
        PassLayout {
            line_len,
            num_lines,
            batch,
            slot_words: line_len * batch,
            num_wgs,
            scratch: false,
        }
    } else {
        // Line exceeds local memory: global-scratch staging, one disjoint
        // slot per work-group. Column passes still batch a SIMD-width of
        // columns so the data-side traffic stays segment-coalesced.
        let batch = match kind {
            C2rPassKind::RowShuffle => 1,
            C2rPassKind::Rotate | C2rPassKind::ColShuffle => dev.simd_width.min(num_lines),
        };
        let num_wgs = num_lines.div_ceil(batch).clamp(1, SCRATCH_MAX_WGS);
        PassLayout {
            line_len,
            num_lines,
            batch,
            slot_words: line_len * batch,
            num_wgs,
            scratch: true,
        }
    }
}

/// Scratch words [`transpose_c2r_on_device`] must allocate for this shape
/// on this device — `0` when every pass fits local memory (the common
/// case; only lines longer than the scratchpad need scratch).
#[must_use]
pub fn c2r_scratch_words(
    dev: &gpu_sim::DeviceSpec,
    rows: usize,
    cols: usize,
    wg_size: usize,
) -> usize {
    let geom = C2rGeometry::new(rows, cols);
    [C2rPassKind::Rotate, C2rPassKind::RowShuffle, C2rPassKind::ColShuffle]
        .into_iter()
        .filter(|&k| k != C2rPassKind::Rotate || geom.needs_rotate())
        .map(|k| {
            let l = pass_layout(k, &geom, dev, wg_size);
            if l.scratch { l.num_wgs * l.slot_words } else { 0 }
        })
        .max()
        .unwrap_or(0)
}

/// One C2R line-permutation pass as a simulated kernel.
#[derive(Debug, Clone)]
pub struct C2rLinePass {
    /// The matrix buffer (`rows × cols` row-major words).
    pub data: Buffer,
    /// Shape constants shared by all passes.
    pub geom: C2rGeometry,
    /// Which pass this instance runs.
    pub kind: C2rPassKind,
    /// Work-items per work-group.
    pub wg_size: usize,
    layout: PassLayout,
    scratch: Option<Buffer>,
}

impl C2rLinePass {
    /// Build one pass. `scratch` must be provided (and large enough) when
    /// [`pass_layout`] says this pass stages through global scratch —
    /// [`transpose_c2r_on_device`] sizes it via [`c2r_scratch_words`].
    ///
    /// # Panics
    /// Panics if the layout needs scratch and `scratch` is missing or too
    /// small — a caller bug, not a runtime condition.
    #[must_use]
    pub fn new(
        data: Buffer,
        geom: C2rGeometry,
        kind: C2rPassKind,
        wg_size: usize,
        dev: &gpu_sim::DeviceSpec,
        scratch: Option<Buffer>,
    ) -> Self {
        let layout = pass_layout(kind, &geom, dev, wg_size);
        if layout.scratch {
            let buf = scratch.expect("scratch-mode pass needs a scratch buffer");
            assert!(
                buf.len >= layout.num_wgs * layout.slot_words,
                "scratch buffer holds {} words; pass needs {}",
                buf.len,
                layout.num_wgs * layout.slot_words,
            );
        }
        Self { data, geom, kind, wg_size, layout, scratch }
    }

    /// The resolved staging layout.
    #[must_use]
    pub fn layout(&self) -> PassLayout {
        self.layout
    }

    /// Lines actually present in the batch starting at `line0` (the last
    /// batch may be ragged).
    fn batch_width(&self, line0: usize) -> usize {
        (self.layout.num_lines - line0).min(self.layout.batch)
    }

    /// Global word address of flat rectangle index `idx` for the batch at
    /// `line0` with width `bw`.
    fn rect_addr(&self, line0: usize, bw: usize, idx: usize) -> usize {
        match self.kind {
            // Adjacent rows are contiguous: the rectangle is one flat run.
            C2rPassKind::RowShuffle => line0 * self.geom.n + idx,
            // Row-major traversal of a (line_len × bw) column block:
            // consecutive idx → bw consecutive words, then a stride-N jump.
            C2rPassKind::Rotate | C2rPassKind::ColShuffle => {
                (idx / bw) * self.geom.n + line0 + idx % bw
            }
        }
    }

    /// Slot-relative staging index the output rectangle element `idx`
    /// gathers from — the heart of each pass.
    fn staged_src(&self, line0: usize, bw: usize, idx: usize) -> usize {
        let g = &self.geom;
        match self.kind {
            C2rPassKind::RowShuffle => {
                let (row_local, j) = (idx / g.n, idx % g.n);
                row_local * g.n + g.row_shuffle_src_col(line0 + row_local, j)
            }
            C2rPassKind::Rotate => {
                let (k, t) = (idx / bw, idx % bw);
                g.rotate_src_row(k, line0 + t) * bw + t
            }
            C2rPassKind::ColShuffle => {
                let (k, t) = (idx / bw, idx % bw);
                g.col_shuffle_src_row(k, line0 + t) * bw + t
            }
        }
    }

    /// Index-arithmetic cost of one phase-1 gather instruction.
    fn gather_alu(&self) -> f64 {
        match self.kind {
            C2rPassKind::Rotate => 5.0,
            C2rPassKind::RowShuffle => 12.0, // x, r, z, y: four modular steps
            C2rPassKind::ColShuffle => 8.0,
        }
    }
}

/// Per-warp state: owning work-group, current batch (grid-stride), phase
/// and word cursor.
pub struct PassState {
    wg_id: usize,
    batch_idx: usize,
    phase: u8,
    iter: usize,
}

impl Kernel for C2rLinePass {
    type State = PassState;

    fn name(&self) -> String {
        format!(
            "c2r-{} {}x{}{}",
            self.kind.label(),
            self.geom.m,
            self.geom.n,
            if self.layout.scratch { " (scratch)" } else { "" },
        )
    }

    fn grid(&self) -> Grid {
        Grid { num_wgs: self.layout.num_wgs, wg_size: self.wg_size }
    }

    // Grid-stride over line batches: a work-group touches only batches
    // ≡ wg_id (mod num_wgs) plus its own scratch slot — footprints never
    // overlap, so the parallel engine may run work-groups concurrently.
    fn coordination(&self) -> Coordination {
        Coordination::WgLocal
    }

    fn regs_per_thread(&self) -> usize {
        18
    }

    fn local_mem_words(&self, _dev: &gpu_sim::DeviceSpec) -> usize {
        if self.layout.scratch { 0 } else { self.layout.slot_words }
    }

    fn init(&self, wg_id: usize, _warp: usize) -> PassState {
        PassState { wg_id, batch_idx: wg_id, phase: 0, iter: 0 }
    }

    fn step(&self, st: &mut PassState, ctx: &mut WarpCtx<'_>) -> Step {
        let num_batches = self.layout.num_lines.div_ceil(self.layout.batch);
        if st.batch_idx >= num_batches {
            return Step::Done;
        }
        let line0 = st.batch_idx * self.layout.batch;
        let bw = self.batch_width(line0);
        let rect = self.layout.line_len * bw;
        let slot_base = st.wg_id * self.layout.slot_words;
        let warp_off = ctx.warp_id * ctx.device().simd_width;
        let w0 = st.iter * ctx.wg_size + warp_off;
        match st.phase {
            0 => {
                // Stage the rectangle (coalesced in runs of `bw` words for
                // column passes, fully contiguous for the row pass).
                if w0 < rect {
                    let addrs = LaneAddrs::from_fn(ctx.lanes, |l| {
                        let idx = w0 + l;
                        (idx < rect).then(|| self.rect_addr(line0, bw, idx))
                    });
                    let vals = ctx.global_read(self.data, &addrs);
                    let writes = LaneWrites::from_fn(ctx.lanes, |l| {
                        let idx = w0 + l;
                        (idx < rect).then_some((idx, vals.get(l)))
                    });
                    match self.scratch_target() {
                        None => ctx.local_write(&writes),
                        Some(buf) => {
                            let shifted = LaneWrites::from_fn(ctx.lanes, |l| {
                                let idx = w0 + l;
                                (idx < rect).then_some((slot_base + idx, vals.get(l)))
                            });
                            ctx.global_write(buf, &shifted);
                        }
                    }
                }
                st.iter += 1;
                if st.iter * ctx.wg_size + warp_off >= rect {
                    st.phase = 1;
                    st.iter = 0;
                    Step::Barrier
                } else {
                    Step::Continue
                }
            }
            _ => {
                // Permuted write-back through the pass's gather map.
                if w0 < rect {
                    let src = LaneAddrs::from_fn(ctx.lanes, |l| {
                        let idx = w0 + l;
                        (idx < rect).then(|| self.staged_src(line0, bw, idx))
                    });
                    let vals = match self.scratch_target() {
                        None => ctx.local_read(&src),
                        Some(buf) => {
                            let shifted = LaneAddrs::from_fn(ctx.lanes, |l| {
                                let idx = w0 + l;
                                (idx < rect)
                                    .then(|| slot_base + self.staged_src(line0, bw, idx))
                            });
                            ctx.global_read(buf, &shifted)
                        }
                    };
                    ctx.alu(self.gather_alu());
                    let writes = LaneWrites::from_fn(ctx.lanes, |l| {
                        let idx = w0 + l;
                        (idx < rect).then_some((self.rect_addr(line0, bw, idx), vals.get(l)))
                    });
                    ctx.global_write(self.data, &writes);
                }
                st.iter += 1;
                if st.iter * ctx.wg_size + warp_off >= rect {
                    st.batch_idx += ctx.num_wgs;
                    st.phase = 0;
                    st.iter = 0;
                    if st.batch_idx >= num_batches {
                        Step::Done
                    } else {
                        Step::Barrier
                    }
                } else {
                    Step::Continue
                }
            }
        }
    }
}

impl C2rLinePass {
    fn scratch_target(&self) -> Option<Buffer> {
        if self.layout.scratch { self.scratch } else { None }
    }
}

/// Run the full C2R transposition on the device (two passes when
/// `gcd(rows, cols) = 1`, three otherwise) and return the per-pass stats.
/// `data` is reinterpreted as row-major `cols × rows` afterwards. Any
/// needed global scratch is allocated from `sim` for the duration of the
/// call.
///
/// # Errors
/// [`LaunchError::Infeasible`] when the device cannot hold the global
/// scratch a long-line shape needs; otherwise propagates launch errors.
///
/// # Panics
/// Panics on a zero dimension (the planner maps those to identity).
pub fn transpose_c2r_on_device(
    sim: &mut gpu_sim::Sim,
    data: Buffer,
    rows: usize,
    cols: usize,
    wg_size: usize,
) -> Result<gpu_sim::PipelineStats, LaunchError> {
    let geom = C2rGeometry::new(rows, cols);
    let dev = sim.device().clone();
    let need = c2r_scratch_words(&dev, rows, cols, wg_size);
    let scratch = if need > 0 {
        Some(sim.try_alloc(need).ok_or_else(|| LaunchError::Infeasible {
            why: format!(
                "c2r global scratch needs {need} words; only {} free on {}",
                sim.free_words(),
                dev.name,
            ),
        })?)
    } else {
        None
    };
    let mut stages = Vec::new();
    for kind in [C2rPassKind::Rotate, C2rPassKind::RowShuffle, C2rPassKind::ColShuffle] {
        if kind == C2rPassKind::Rotate && !geom.needs_rotate() {
            continue;
        }
        let pass = C2rLinePass::new(data, geom, kind, wg_size, &dev, scratch);
        stages.push(sim.launch(&pass)?);
    }
    Ok(gpu_sim::PipelineStats { stages, overhead_s: 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceSpec, Sim};
    use ipt_core::Matrix;

    fn run(dev: DeviceSpec, rows: usize, cols: usize) -> (Vec<u32>, gpu_sim::PipelineStats) {
        let scratch = c2r_scratch_words(&dev, rows, cols, 256);
        let mut sim = Sim::new(dev, rows * cols + scratch + 8);
        let buf = sim.alloc(rows * cols);
        let m = Matrix::iota(rows, cols);
        sim.upload_u32(buf, m.as_slice());
        let stats = transpose_c2r_on_device(&mut sim, buf, rows, cols, 256).unwrap();
        (sim.download_u32(buf), stats)
    }

    #[test]
    fn transposes_all_gcd_classes_on_device() {
        for &(r, c) in &[
            (5usize, 3usize), // gcd 1
            (4, 6),           // gcd 2: rotate pass live
            (12, 18),         // gcd 6
            (24, 36),         // gcd 12
            (127, 64),        // gcd 1, power-of-two cols
            (61, 45),         // gcd 1
            (97, 101),        // both prime
            (2, 9),
            (9, 2),
            (30, 42),
        ] {
            let (got, _) = run(DeviceSpec::tesla_k20(), r, c);
            assert_eq!(got, Matrix::iota(r, c).transposed().into_vec(), "{r}x{c}");
        }
    }

    #[test]
    fn rotate_pass_is_skipped_exactly_when_gcd_is_1() {
        let (_, stats) = run(DeviceSpec::tesla_k20(), 97, 101);
        assert_eq!(stats.stages.len(), 2, "gcd 1 → rotate skipped");
        let (_, stats) = run(DeviceSpec::tesla_k20(), 12, 18);
        assert_eq!(stats.stages.len(), 3, "gcd 6 → rotate live");
    }

    #[test]
    fn works_on_all_device_presets() {
        for dev in [
            DeviceSpec::gtx580(),
            DeviceSpec::tesla_k20(),
            DeviceSpec::hd7750(),
            DeviceSpec::xeon_phi(),
        ] {
            let (got, _) = run(dev, 31, 45);
            assert_eq!(got, Matrix::iota(31, 45).transposed().into_vec());
        }
    }

    #[test]
    fn long_line_takes_the_scratch_path() {
        // 13001 is prime and exceeds the K20's 12288-word scratchpad, so
        // the row pass must stage through global scratch.
        let dev = DeviceSpec::tesla_k20();
        let (r, c) = (7usize, 13_001usize);
        assert!(c2r_scratch_words(&dev, r, c, 256) > 0, "shape must exercise scratch");
        let geom = ipt_core::C2rGeometry::new(r, c);
        assert!(pass_layout(C2rPassKind::RowShuffle, &geom, &dev, 256).scratch);
        let (got, _) = run(dev, r, c);
        assert_eq!(got, Matrix::iota(r, c).transposed().into_vec());
    }

    #[test]
    fn column_pass_batches_for_coalescing() {
        let dev = DeviceSpec::tesla_k20();
        let geom = ipt_core::C2rGeometry::new(509, 251);
        let l = pass_layout(C2rPassKind::ColShuffle, &geom, &dev, 256);
        assert!(!l.scratch);
        assert!(l.batch >= 4, "509-word lines should batch ≥ 4 columns, got {}", l.batch);
        assert!(l.slot_words <= dev.local_words_per_wg());
        // One-column staging moves one useful 4-byte word per 32-byte
        // segment (coalescing 1/8); the batched column pass must beat that
        // by 1.5x on DRAM transactions — the whole point of batching.
        let mut sim = Sim::new(dev.clone(), 509 * 251 + 8);
        let buf = sim.alloc(509 * 251);
        sim.upload_u32(buf, Matrix::iota(509, 251).as_slice());
        let pass = C2rLinePass::new(buf, geom, C2rPassKind::ColShuffle, 256, &dev, None);
        let eff = sim.launch(&pass).unwrap().coalescing_efficiency();
        assert!(eff > 1.5 / 8.0, "c2r col pass coalescing {eff:.3}");
    }
}
