//! The Barrier-Sync (BS) elementary transposition kernel — Figure 1 of the
//! paper.
//!
//! One work-group transposes one instance whose data fits entirely in local
//! memory: every work-item copies its elements into a local temporary at the
//! *transposed* position, the work-group barriers, then the temporary is
//! copied back contiguously. Global traffic is perfectly coalesced in both
//! phases, which is why BS is the kernel of choice for stage 2 (`0010!`)
//! whenever `m·n` fits on chip (§7.4).

use gpu_sim::{Buffer, Coordination, Grid, Kernel, LaneAddrs, LaneWrites, Step, WarpCtx};
use ipt_core::TransposePerm;

/// BS kernel over `instances` contiguous tiles of `rows × cols`
/// super-elements of `super_size` words.
#[derive(Debug, Clone)]
pub struct BsKernel {
    /// The array being transposed (whole operation range).
    pub data: Buffer,
    /// Independent contiguous instances (one work-group each).
    pub instances: usize,
    /// Super-element grid rows.
    pub rows: usize,
    /// Super-element grid cols.
    pub cols: usize,
    /// Words per super-element.
    pub super_size: usize,
    /// Work-items per work-group.
    pub wg_size: usize,
}

impl BsKernel {
    /// Words in one instance (must fit local memory).
    #[must_use]
    pub fn tile_words(&self) -> usize {
        self.rows * self.cols * self.super_size
    }
}

/// Per-warp state: current phase and the stride-iteration counter.
pub struct BsState {
    phase: u8,
    iter: usize,
}

impl Kernel for BsKernel {
    type State = BsState;

    fn name(&self) -> String {
        format!("BS {}x{}x{}x{}", self.instances, self.rows, self.cols, self.super_size)
    }

    fn grid(&self) -> Grid {
        Grid { num_wgs: self.instances, wg_size: self.wg_size }
    }

    // Each work-group owns the disjoint tile `wg_id * tile_len`; no global
    // word is shared across work-groups.
    fn coordination(&self) -> Coordination {
        Coordination::WgLocal
    }

    fn regs_per_thread(&self) -> usize {
        14
    }

    fn local_mem_words(&self, _dev: &gpu_sim::DeviceSpec) -> usize {
        self.tile_words()
    }

    fn init(&self, _wg_id: usize, _warp_id: usize) -> BsState {
        BsState { phase: 0, iter: 0 }
    }

    fn step(&self, st: &mut BsState, ctx: &mut WarpCtx<'_>) -> Step {
        let tile = self.tile_words();
        let base = ctx.wg_id * tile;
        let perm = TransposePerm::new(self.rows, self.cols);
        let simd = ctx.lanes; // tail warps have fewer live lanes
        let warp_off = ctx.warp_id * ctx.device().simd_width;
        match st.phase {
            0 => {
                // Gather phase: data[w] → temp[transposed(w)].
                let w0 = st.iter * ctx.wg_size + warp_off;
                if w0 >= tile {
                    st.phase = 1;
                    st.iter = 0;
                    return Step::Barrier;
                }
                let addrs = LaneAddrs::from_fn(simd, |l| {
                    let w = w0 + l;
                    (w < tile).then_some(base + w)
                });
                let vals = ctx.global_read(self.data, &addrs);
                let writes = LaneWrites::from_fn(simd, |l| {
                    let w = w0 + l;
                    if w >= tile {
                        return None;
                    }
                    let (se, off) = (w / self.super_size, w % self.super_size);
                    let dst = perm.dest(se) * self.super_size + off;
                    Some((dst, vals.get(l)))
                });
                ctx.local_write(&writes);
                ctx.alu(4.0); // index arithmetic incl. the Eq.(1) modulo
                st.iter += 1;
                if st.iter * ctx.wg_size + warp_off >= tile {
                    st.phase = 1;
                    st.iter = 0;
                    Step::Barrier
                } else {
                    Step::Continue
                }
            }
            _ => {
                // Scatter-back phase: temp[w] → data[w] (contiguous).
                let w0 = st.iter * ctx.wg_size + warp_off;
                if w0 >= tile {
                    return Step::Done;
                }
                let addrs = LaneAddrs::from_fn(simd, |l| {
                    let w = w0 + l;
                    (w < tile).then_some(w)
                });
                let vals = ctx.local_read(&addrs);
                let writes = LaneWrites::from_fn(simd, |l| {
                    let w = w0 + l;
                    (w < tile).then_some((base + w, vals.get(l)))
                });
                ctx.global_write(self.data, &writes);
                ctx.alu(2.0);
                st.iter += 1;
                if st.iter * ctx.wg_size + warp_off >= tile {
                    Step::Done
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
    use ipt_core::InstancedTranspose;

    fn run_bs(
        dev: DeviceSpec,
        instances: usize,
        rows: usize,
        cols: usize,
        super_size: usize,
        wg_size: usize,
    ) -> (Vec<u32>, gpu_sim::KernelStats) {
        let op = InstancedTranspose::new(instances, rows, cols, super_size);
        let mut sim = Sim::new(dev, op.total_len() + 64);
        let buf = sim.alloc(op.total_len());
        let data: Vec<u32> = (0..op.total_len() as u32).collect();
        sim.upload_u32(buf, &data);
        let k = BsKernel { data: buf, instances, rows, cols, super_size, wg_size };
        let stats = sim.launch(&k, &NoopRecorder, 0.0).unwrap();
        (sim.download_u32(buf), stats)
    }

    #[test]
    fn bs_transposes_correctly() {
        for &(i, r, c, s, wg) in &[
            (1usize, 5usize, 3usize, 1usize, 32usize),
            (4, 8, 8, 1, 64),
            (7, 6, 10, 2, 96),
            (3, 16, 48, 1, 256),
            (2, 2, 2, 5, 32),
        ] {
            let (got, _) = run_bs(DeviceSpec::tesla_k20(), i, r, c, s, wg);
            let op = InstancedTranspose::new(i, r, c, s);
            let mut want: Vec<u32> = (0..op.total_len() as u32).collect();
            op.apply(&mut want);
            assert_eq!(got, want, "{i}x{r}x{c}x{s} wg={wg}");
        }
    }

    #[test]
    fn bs_works_on_all_devices() {
        for dev in [DeviceSpec::gtx580(), DeviceSpec::hd7750(), DeviceSpec::xeon_phi()] {
            let name = dev.name;
            let (got, _) = run_bs(dev, 4, 12, 16, 1, 128);
            let op = InstancedTranspose::new(4, 12, 16, 1);
            let mut want: Vec<u32> = (0..op.total_len() as u32).collect();
            op.apply(&mut want);
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn bs_is_mostly_coalesced() {
        let (_, stats) = run_bs(DeviceSpec::tesla_k20(), 16, 32, 32, 1, 256);
        assert!(stats.coalescing_efficiency() > 0.9, "{}", stats.coalescing_efficiency());
        assert!(stats.barriers >= 16, "one barrier per work-group at least");
    }

    #[test]
    fn bs_local_mem_drives_occupancy() {
        // A big tile should consume local memory and reduce occupancy.
        let (_, small) = run_bs(DeviceSpec::tesla_k20(), 8, 16, 16, 1, 128);
        let (_, big) = run_bs(DeviceSpec::tesla_k20(), 8, 64, 64, 1, 128);
        assert!(big.occupancy.occupancy < small.occupancy.occupancy);
    }

    #[test]
    fn bs_infeasible_when_tile_exceeds_local_mem() {
        // 48 KB = 12288 words; a 128×128 tile (16384 words) cannot fit.
        let dev = DeviceSpec::tesla_k20();
        let op = InstancedTranspose::new(1, 128, 128, 1);
        let mut sim = Sim::new(dev, op.total_len() + 8);
        let buf = sim.alloc(op.total_len());
        let k = BsKernel { data: buf, instances: 1, rows: 128, cols: 128, super_size: 1, wg_size: 256 };
        assert!(sim.launch(&k, &NoopRecorder, 0.0).is_err());
    }
}
