//! P-IPT: the cycle-per-thread parallelisation the paper compares against
//! (from Sung et al. \[12\], originally the multicore strategy of
//! Gustavson/Karlsson).
//!
//! Each work-item owns one complete cycle and shifts it alone, one element
//! (or one word of a super-element) per iteration. No flags, no atomics —
//! but the parallelism equals the number of cycles, which for rectangular
//! matrices is low and wildly imbalanced: the longest cycle shows up as the
//! `serial` time bound. Cycle leaders are precomputed on the host (as in
//! the CPU implementations) and passed in a buffer.

// Per-lane state lives in parallel fixed-size arrays; indexed loops over
// `0..ctx.lanes` are the clearest expression of warp-vector code.
#![allow(clippy::needless_range_loop)]

use gpu_sim::{Buffer, Grid, Kernel, LaneAddrs, LaneWrites, Step, WarpCtx};
use ipt_core::TransposePerm;

/// P-IPT kernel over `instances × rows × cols` super-elements of
/// `super_size` words.
#[derive(Debug, Clone)]
pub struct PiptKernel {
    /// The array.
    pub data: Buffer,
    /// Cycle leader table: pairs `(instance, leader)` flattened — built by
    /// [`PiptKernel::leader_table`].
    pub leaders: Buffer,
    /// Number of `(instance, leader)` entries.
    pub num_leaders: usize,
    /// Independent instances.
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

impl PiptKernel {
    /// Host-side leader enumeration: one `(instance, leader)` pair per
    /// non-trivial cycle, flattened into `u32` pairs for upload.
    #[must_use]
    pub fn leader_table(instances: usize, rows: usize, cols: usize) -> Vec<u32> {
        let perm = TransposePerm::new(rows, cols);
        let leaders = ipt_core::elementary::parallel::find_cycle_leaders(&perm);
        let mut out = Vec::with_capacity(instances * leaders.len() * 2);
        for inst in 0..instances {
            for &(leader, _) in &leaders {
                out.push(inst as u32);
                out.push(leader as u32);
            }
        }
        out
    }
}

/// Per-lane chase state. Each lane walks its cycle once per word offset,
/// carrying a single word in a register (the classic minimal-storage
/// cycle shift: 1 read + 1 write per element visited).
#[derive(Clone, Copy, Default)]
struct LaneChase {
    /// Leader (start) super index within instance.
    leader: usize,
    /// Instance id.
    inst: usize,
    /// Current walk position within instance.
    pos: usize,
    /// Word offset within super-elements for the current lap.
    word: usize,
    /// The carried register.
    carried: u32,
    /// Carried register holds a value (lap in progress).
    loaded: bool,
    active: bool,
    /// Next leader-table index (stride total threads).
    next_entry: usize,
    exhausted: bool,
}

/// Per-warp state.
pub struct PiptState {
    lanes: [LaneChase; gpu_sim::MAX_LANES],
    initialised: bool,
}

impl Kernel for PiptKernel {
    type State = PiptState;

    fn name(&self) -> String {
        format!("P-IPT {}x{}x{}x{}", self.instances, self.rows, self.cols, self.super_size)
    }

    fn grid(&self) -> Grid {
        let wgs = self.num_leaders.div_ceil(self.wg_size).clamp(1, 1024);
        Grid { num_wgs: wgs, wg_size: self.wg_size }
    }

    fn regs_per_thread(&self) -> usize {
        18
    }

    fn init(&self, _wg_id: usize, _warp_id: usize) -> PiptState {
        PiptState { lanes: [LaneChase::default(); gpu_sim::MAX_LANES], initialised: false }
    }

    fn step(&self, st: &mut PiptState, ctx: &mut WarpCtx<'_>) -> Step {
        let perm = TransposePerm::new(self.rows, self.cols);
        let spi = self.rows * self.cols;
        let s = self.super_size;
        if !st.initialised {
            for l in 0..ctx.lanes {
                st.lanes[l].next_entry = ctx.thread_id(l);
            }
            st.initialised = true;
        }

        // Acquire cycles for idle lanes (read the leader table).
        let mut fetch = [None::<usize>; gpu_sim::MAX_LANES];
        for l in 0..ctx.lanes {
            let c = &mut st.lanes[l];
            if !c.active && !c.exhausted {
                if c.next_entry < self.num_leaders {
                    fetch[l] = Some(c.next_entry);
                    c.next_entry += ctx.total_threads();
                } else {
                    c.exhausted = true;
                }
            }
        }
        let inst_addrs = LaneAddrs::from_fn(ctx.lanes, |l| fetch[l].map(|e| 2 * e));
        if inst_addrs.active() > 0 {
            let insts = ctx.global_read(self.leaders, &inst_addrs);
            let lead_addrs = LaneAddrs::from_fn(ctx.lanes, |l| fetch[l].map(|e| 2 * e + 1));
            let leads = ctx.global_read(self.leaders, &lead_addrs);
            for l in 0..ctx.lanes {
                if fetch[l].is_some() {
                    let c = &mut st.lanes[l];
                    c.inst = insts.get(l) as usize;
                    c.leader = leads.get(l) as usize;
                    c.pos = c.leader;
                    c.word = 0;
                    c.loaded = false;
                    c.active = true;
                }
            }
        }

        // Lap-start loads: lanes beginning a word-lap read the leader's word
        // into the carried register.
        let lap_loads = LaneAddrs::from_fn(ctx.lanes, |l| {
            let c = &st.lanes[l];
            (c.active && !c.loaded).then(|| (c.inst * spi + c.leader) * s + c.word)
        });
        if lap_loads.active() > 0 {
            let vals = ctx.global_read(self.data, &lap_loads);
            for l in 0..ctx.lanes {
                if lap_loads.get(l).is_some() {
                    let c = &mut st.lanes[l];
                    c.carried = vals.get(l);
                    c.loaded = true;
                    c.pos = perm.dest(c.leader);
                }
            }
        }

        // One carried move per active lane: tmp = data[pos]; data[pos] =
        // carried; carried = tmp; pos = dest(pos). When the walk returns to
        // the leader, the carried value is written there and the next word
        // lap starts.
        let move_addrs = LaneAddrs::from_fn(ctx.lanes, |l| {
            let c = &st.lanes[l];
            (c.active && c.loaded).then(|| (c.inst * spi + c.pos) * s + c.word)
        });
        if move_addrs.active() == 0 {
            let done = (0..ctx.lanes).all(|l| st.lanes[l].exhausted);
            return if done { Step::Done } else { Step::Continue };
        }
        let tmps = ctx.global_read(self.data, &move_addrs);
        let writes = LaneWrites::from_fn(ctx.lanes, |l| {
            move_addrs.get(l).map(|a| (a, st.lanes[l].carried))
        });
        ctx.global_write(self.data, &writes);
        ctx.alu(8.0);

        for l in 0..ctx.lanes {
            if move_addrs.get(l).is_none() {
                continue;
            }
            let c = &mut st.lanes[l];
            if c.pos == c.leader {
                // Lap complete: move to the next word offset.
                c.word += 1;
                c.loaded = false;
                c.pos = c.leader;
                if c.word == s {
                    c.active = false; // whole super-element cycle done
                }
            } else {
                c.carried = tmps.get(l);
                c.pos = perm.dest(c.pos);
            }
        }
        Step::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_obs::NoopRecorder;
    use gpu_sim::{DeviceSpec, Sim};
    use ipt_core::InstancedTranspose;

    fn run(
        instances: usize,
        rows: usize,
        cols: usize,
        super_size: usize,
    ) -> (Vec<u32>, gpu_sim::KernelStats) {
        let total = instances * rows * cols * super_size;
        let table = PiptKernel::leader_table(instances, rows, cols);
        let mut sim = Sim::new(DeviceSpec::tesla_k20(), total + table.len() + 8);
        let data = sim.alloc(total);
        let leaders = sim.alloc(table.len().max(1));
        let v: Vec<u32> = (0..total as u32).collect();
        sim.upload_u32(data, &v);
        sim.upload_u32(leaders, &table);
        let k = PiptKernel {
            data,
            leaders,
            num_leaders: table.len() / 2,
            instances,
            rows,
            cols,
            super_size,
            wg_size: 128,
        };
        let stats = sim.launch(&k, &NoopRecorder, 0.0).unwrap();
        (sim.download_u32(data), stats)
    }

    fn expected(instances: usize, rows: usize, cols: usize, super_size: usize) -> Vec<u32> {
        let op = InstancedTranspose::new(instances, rows, cols, super_size);
        let mut want: Vec<u32> = (0..op.total_len() as u32).collect();
        op.apply(&mut want);
        want
    }

    #[test]
    fn pipt_transposes_correctly() {
        for &(i, r, c, s) in &[
            (1usize, 5usize, 3usize, 1usize),
            (1, 16, 9, 4),
            (3, 7, 5, 2),
            (1, 32, 48, 1),
            (2, 9, 9, 3),
        ] {
            let (got, _) = run(i, r, c, s);
            assert_eq!(got, expected(i, r, c, s), "{i}x{r}x{c}x{s}");
        }
    }

    #[test]
    fn pipt_suffers_serial_imbalance() {
        // A matrix with one dominant cycle: the serial bound should be the
        // limiting component (or at least a large fraction of time).
        let (_, stats) = run(1, 64, 25, 1);
        assert!(
            stats.bounds.serial_s > 0.3 * stats.time_s,
            "serial {} vs total {}",
            stats.bounds.serial_s,
            stats.time_s
        );
    }
}
