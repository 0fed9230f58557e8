//! Out-of-place tiled transposition (Ruetsch & Micikevicius, the classic
//! CUDA kernel) — the GPU baseline of Table 3.
//!
//! 32×32 tiles are staged through local memory with a +1 padding column so
//! both the global read and the global write are fully coalesced and the
//! local accesses are bank-conflict-free. Needs a second buffer — the 100 %
//! memory overhead that motivates the paper.

use gpu_sim::{Buffer, Coordination, Grid, Kernel, LaneAddrs, LaneWrites, Step, WarpCtx};

/// Tile edge (words).
pub const TILE: usize = 32;
/// Rows of a tile one work-group iteration covers (wg = 32×8).
pub const BLOCK_ROWS: usize = 8;

/// Out-of-place transposition of an `rows × cols` matrix from `src` into
/// `dst`.
#[derive(Debug, Clone)]
pub struct OopTranspose {
    /// Source matrix (row-major `rows × cols`).
    pub src: Buffer,
    /// Destination matrix (row-major `cols × rows`).
    pub dst: Buffer,
    /// Source rows.
    pub rows: usize,
    /// Source cols.
    pub cols: usize,
}

impl OopTranspose {
    fn tiles_x(&self) -> usize {
        self.cols.div_ceil(TILE)
    }

    fn tiles_y(&self) -> usize {
        self.rows.div_ceil(TILE)
    }
}

/// Per-warp state: which tile, which phase, which row-chunk.
pub struct OopState {
    tile_idx: usize,
    phase: u8,
    row: usize,
}

impl Kernel for OopTranspose {
    type State = OopState;

    fn name(&self) -> String {
        format!("OOP {}x{}", self.rows, self.cols)
    }

    fn grid(&self) -> Grid {
        // One work-group per tile, grid-strided over tiles; 32×8 threads.
        let tiles = self.tiles_x() * self.tiles_y();
        Grid { num_wgs: tiles.clamp(1, 4096), wg_size: TILE * BLOCK_ROWS }
    }

    // Grid-strided disjoint destination tiles; the source is only read, so
    // nothing a work-group writes is visible to any other.
    fn coordination(&self) -> Coordination {
        Coordination::WgLocal
    }

    fn regs_per_thread(&self) -> usize {
        12
    }

    fn local_mem_words(&self, _dev: &gpu_sim::DeviceSpec) -> usize {
        TILE * (TILE + 1)
    }

    fn init(&self, wg_id: usize, warp_id: usize) -> OopState {
        OopState { tile_idx: wg_id, phase: 0, row: warp_id }
    }

    fn step(&self, st: &mut OopState, ctx: &mut WarpCtx<'_>) -> Step {
        let tiles = self.tiles_x() * self.tiles_y();
        if st.tile_idx >= tiles {
            return Step::Done;
        }
        let ty = st.tile_idx / self.tiles_x();
        let tx = st.tile_idx % self.tiles_x();
        let warps = ctx.wg_size.div_ceil(ctx.device().simd_width);
        // Each warp covers rows `warp_id, warp_id+warps, …` of the tile.
        match st.phase {
            0 => {
                let r = st.row;
                if r >= TILE {
                    st.phase = 1;
                    st.row = ctx.warp_id;
                    return Step::Barrier;
                }
                let gy = ty * TILE + r;
                let addrs = LaneAddrs::from_fn(ctx.lanes.min(TILE), |l| {
                    let gx = tx * TILE + l;
                    (gy < self.rows && gx < self.cols).then(|| gy * self.cols + gx)
                });
                let vals = ctx.global_read(self.src, &addrs);
                let writes = LaneWrites::from_fn(ctx.lanes.min(TILE), |l| {
                    let gx = tx * TILE + l;
                    (gy < self.rows && gx < self.cols).then(|| (r * (TILE + 1) + l, vals.get(l)))
                });
                ctx.local_write(&writes);
                st.row += warps;
                if st.row >= TILE {
                    st.phase = 1;
                    st.row = ctx.warp_id;
                    Step::Barrier
                } else {
                    Step::Continue
                }
            }
            _ => {
                let r = st.row;
                if r >= TILE {
                    // Next tile (grid stride).
                    st.tile_idx += ctx.num_wgs;
                    st.phase = 0;
                    st.row = ctx.warp_id;
                    return if st.tile_idx >= tiles { Step::Done } else { Step::Barrier };
                }
                // Write row r of the *transposed* tile: dst row = tx·32 + r.
                let gy = tx * TILE + r;
                let addrs = LaneAddrs::from_fn(ctx.lanes.min(TILE), |l| {
                    let gx = ty * TILE + l;
                    (gy < self.cols && gx < self.rows).then(|| l * (TILE + 1) + r)
                });
                let vals = ctx.local_read(&addrs);
                let writes = LaneWrites::from_fn(ctx.lanes.min(TILE), |l| {
                    let gx = ty * TILE + l;
                    (gy < self.cols && gx < self.rows).then(|| (gy * self.rows + gx, vals.get(l)))
                });
                ctx.global_write(self.dst, &writes);
                st.row += warps;
                if st.row >= TILE {
                    st.tile_idx += ctx.num_wgs;
                    st.phase = 0;
                    st.row = ctx.warp_id;
                    if st.tile_idx >= tiles {
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

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_obs::NoopRecorder;
    use gpu_sim::{DeviceSpec, Sim};
    use ipt_core::Matrix;

    fn run(dev: DeviceSpec, rows: usize, cols: usize) -> (Vec<u32>, gpu_sim::KernelStats) {
        let mut sim = Sim::new(dev, 2 * rows * cols + 8);
        let src = sim.alloc(rows * cols);
        let dst = sim.alloc(rows * cols);
        let m = Matrix::iota(rows, cols);
        sim.upload_u32(src, m.as_slice());
        let k = OopTranspose { src, dst, rows, cols };
        let stats = sim.launch(&k, &NoopRecorder, 0.0).unwrap();
        (sim.download_u32(dst), stats)
    }

    #[test]
    fn transposes_exact_tiles() {
        let (got, _) = run(DeviceSpec::tesla_k20(), 64, 96);
        assert_eq!(got, Matrix::iota(64, 96).transposed().into_vec());
    }

    #[test]
    fn transposes_ragged_sizes() {
        for &(r, c) in &[(33usize, 65usize), (100, 31), (5, 3), (32, 32), (1, 100)] {
            let (got, _) = run(DeviceSpec::tesla_k20(), r, c);
            assert_eq!(got, Matrix::iota(r, c).transposed().into_vec(), "{r}x{c}");
        }
    }

    #[test]
    fn high_throughput_on_k20() {
        // §7.5: "the out-of-place transposition achieves more than
        // 120 GB/s on a K20". Exercise a decently sized matrix.
        let (rows, cols) = (1024, 768);
        let (_, stats) = run(DeviceSpec::tesla_k20(), rows, cols);
        let gbps = stats.throughput_gbps((rows * cols * 4) as f64);
        assert!(gbps > 100.0, "OOP should be near-bandwidth: {gbps} GB/s");
        assert!(stats.coalescing_efficiency() > 0.9);
    }

    #[test]
    fn works_on_amd() {
        let (got, _) = run(DeviceSpec::hd7750(), 96, 64);
        assert_eq!(got, Matrix::iota(96, 64).transposed().into_vec());
    }
}
