//! PTTWAC `010!` (AoS→ASTA) — in-tile cycle following with per-element
//! 1-bit flags in local memory (§5.1 of the paper).
//!
//! For tiles too large for the BS kernel, each work-group transposes one
//! tile *directly in global memory*: work-items start at consecutive
//! elements (coalesced first touch), then chase the shifting cycles of
//! Eq. (1), claiming each destination with a simulated bit-addressable
//! atomic (`atom_or` on a 32-bit word). The flag layout
//! ([`FlagLayout`]) decides how bits map to words:
//! packed flags serialise colliding work-items (position conflicts); the
//! paper's spreading (Eq. 3) and padding (§5.1.2) optimisations reduce
//! position, then bank and lock conflicts.
//!
//! Claim protocol (single scheduling slice = atomic w.r.t. other warps):
//! a work-item holding the value of position `p` computes `next = dest(p)`,
//! atomically sets `flag[next]`; on success it swaps its carried value with
//! `data[next]` and continues the chain; on failure the chain is already
//! owned and the work-item grabs its next start position.

// Per-lane state lives in parallel fixed-size arrays; indexed loops over
// `0..ctx.lanes` are the clearest expression of warp-vector code.
#![allow(clippy::needless_range_loop)]

use crate::opts::{ClaimBackoff, FlagLayout};
use gpu_sim::{Buffer, Coordination, Grid, Kernel, LaneAddrs, LaneWrites, Step, WarpCtx};
use ipt_core::TransposePerm;

/// PTTWAC 010! kernel: `instances` tiles of `rows × cols` scalars.
#[derive(Debug, Clone)]
pub struct Pttwac010 {
    /// The array (all instances, contiguous).
    pub data: Buffer,
    /// Number of tiles (one work-group each).
    pub instances: usize,
    /// Tile rows.
    pub rows: usize,
    /// Tile cols.
    pub cols: usize,
    /// Work-items per work-group.
    pub wg_size: usize,
    /// Flag bit layout in local memory.
    pub flags: FlagLayout,
    /// Optional claim-retry backoff: after losing a successor claim, the
    /// lane sits out a capped-exponential, seeded-jitter number of slices
    /// before acquiring new work. `None` = historic retry-every-slice.
    pub backoff: Option<ClaimBackoff>,
}

impl Pttwac010 {
    /// Elements per tile.
    #[must_use]
    pub fn tile_len(&self) -> usize {
        self.rows * self.cols
    }
}

/// Per-lane chase state.
#[derive(Clone, Copy, Default)]
struct LaneState {
    /// Currently carried value.
    carried: u32,
    /// Position whose successor we will claim next.
    pos: usize,
    /// Lane is mid-chain.
    active: bool,
    /// Next start offset to examine (stride `wg_size`).
    next_start: usize,
    /// No starts left and not active.
    exhausted: bool,
    /// Consecutive lost successor claims (backoff exponent).
    losses: u32,
    /// Scheduling slices left to sit out before acquiring again.
    cooldown: u32,
}

/// Per-warp state.
pub struct P010State {
    phase: u8,
    init_cursor: usize,
    lanes: [LaneState; gpu_sim::MAX_LANES],
}

impl Kernel for Pttwac010 {
    type State = P010State;

    fn name(&self) -> String {
        format!(
            "PTTWAC010 {}x{}x{} flags={:?}",
            self.instances, self.rows, self.cols, self.flags
        )
    }

    fn grid(&self) -> Grid {
        Grid { num_wgs: self.instances, wg_size: self.wg_size }
    }

    // One work-group per tile instance (`base = wg_id * tile_len`) with the
    // claim flags in work-group-local memory — nothing global is shared.
    fn coordination(&self) -> Coordination {
        Coordination::WgLocal
    }

    fn regs_per_thread(&self) -> usize {
        20
    }

    fn local_mem_words(&self, _dev: &gpu_sim::DeviceSpec) -> usize {
        self.flags.words_needed(self.tile_len())
    }

    fn init(&self, _wg_id: usize, _warp_id: usize) -> P010State {
        // Per-lane start offsets are filled in on the first step, when the
        // device's SIMD width is known.
        P010State { phase: 0, init_cursor: 0, lanes: [LaneState::default(); gpu_sim::MAX_LANES] }
    }

    fn step(&self, st: &mut P010State, ctx: &mut WarpCtx<'_>) -> Step {
        let tile = self.tile_len();
        let base = ctx.wg_id * tile;
        let perm = TransposePerm::new(self.rows, self.cols);
        let flag_words = self.flags.words_needed(tile);

        let warp_off = ctx.warp_id * ctx.device().simd_width;
        if st.phase == 0 {
            // Flag zeroing pass (the real kernel must clear local memory).
            let w0 = st.init_cursor * ctx.wg_size + warp_off;
            if w0 >= flag_words {
                st.phase = 1;
                // Correct per-lane start offsets now that lane geometry is
                // final.
                for l in 0..ctx.lanes {
                    st.lanes[l].next_start = ctx.local_thread_id(l);
                }
                return Step::Barrier;
            }
            let writes = LaneWrites::from_fn(ctx.lanes, |l| {
                let w = w0 + l;
                (w < flag_words).then_some((w, 0u32))
            });
            ctx.local_write(&writes);
            st.init_cursor += 1;
            if st.init_cursor * ctx.wg_size + warp_off >= flag_words {
                st.phase = 1;
                for l in 0..ctx.lanes {
                    st.lanes[l].next_start = ctx.local_thread_id(l);
                }
                return Step::Barrier;
            }
            return Step::Continue;
        }

        // ---- main chase phase ----
        // 1. Lanes without work acquire a start position: skip fixed points,
        //    read the candidate's data, then check its flag.
        let mut want_start = [None::<usize>; gpu_sim::MAX_LANES];
        for l in 0..ctx.lanes {
            let s = &mut st.lanes[l];
            if s.active || s.exhausted {
                continue;
            }
            if s.cooldown > 0 {
                // Backing off after a lost claim: sit this slice out.
                s.cooldown -= 1;
                continue;
            }
            // Consume fixed points without memory traffic.
            while s.next_start < tile && perm.dest(s.next_start) == s.next_start {
                s.next_start += ctx.wg_size;
            }
            if s.next_start >= tile {
                s.exhausted = true;
            } else {
                want_start[l] = Some(s.next_start);
                s.next_start += ctx.wg_size;
            }
        }
        let start_addrs = LaneAddrs::from_fn(ctx.lanes, |l| want_start[l].map(|p| base + p));
        if start_addrs.active() > 0 {
            // Read candidate data (the algorithm reads data first, §3/§5.1).
            let vals = ctx.global_read(self.data, &start_addrs);
            // Check the candidate's own flag (atom_or with 0 = atomic read).
            let flag_ops = LaneWrites::from_fn(ctx.lanes, |l| {
                want_start[l].map(|p| {
                    let (w, _) = self.flags.word_and_bit(p);
                    (w, 0u32)
                })
            });
            let old = ctx.local_atomic_or(&flag_ops);
            for l in 0..ctx.lanes {
                if let Some(p) = want_start[l] {
                    let (_, bit) = self.flags.word_and_bit(p);
                    if (old.get(l) >> bit) & 1 == 0 {
                        let s = &mut st.lanes[l];
                        s.active = true;
                        s.pos = p;
                        s.carried = vals.get(l);
                    } else {
                        // Another lane already started (or finished) this
                        // cycle — the candidate claim was lost.
                        ctx.note_claim_retry();
                    }
                }
            }
        }

        // 2. Active lanes claim their successor.
        let mut next_pos = [0usize; gpu_sim::MAX_LANES];
        let claim_ops = LaneWrites::from_fn(ctx.lanes, |l| {
            let s = &st.lanes[l];
            if !s.active {
                return None;
            }
            let np = perm.dest(s.pos);
            next_pos[l] = np;
            let (w, bit) = self.flags.word_and_bit(np);
            Some((w, 1u32 << bit))
        });
        ctx.alu(6.0); // Eq.(1) multiply+mod plus flag addressing
        if claim_ops.active() > 0 {
            let old = ctx.local_atomic_or(&claim_ops);
            // Winners swap carried with data[next]; losers retire the chain.
            let mut won = [false; gpu_sim::MAX_LANES];
            for l in 0..ctx.lanes {
                if let Some((_, bitmask)) = claim_ops.get(l) {
                    won[l] = old.get(l) & bitmask == 0;
                    let s = &mut st.lanes[l];
                    if won[l] {
                        s.losses = 0;
                    } else {
                        s.active = false;
                        ctx.note_claim_retry();
                        if let Some(b) = self.backoff {
                            s.losses = s.losses.saturating_add(1);
                            s.cooldown = b.cooldown(next_pos[l], s.losses);
                        }
                    }
                }
            }
            let backup_addrs =
                LaneAddrs::from_fn(ctx.lanes, |l| won[l].then(|| base + next_pos[l]));
            let backups = ctx.global_read(self.data, &backup_addrs);
            let writes = LaneWrites::from_fn(ctx.lanes, |l| {
                won[l].then(|| (base + next_pos[l], st.lanes[l].carried))
            });
            ctx.global_write(self.data, &writes);
            for l in 0..ctx.lanes {
                if won[l] {
                    let s = &mut st.lanes[l];
                    s.carried = backups.get(l);
                    s.pos = next_pos[l];
                }
            }
        }

        let all_done = (0..ctx.lanes).all(|l| st.lanes[l].exhausted && !st.lanes[l].active);
        if all_done {
            Step::Done
        } else {
            Step::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_obs::NoopRecorder;
    use gpu_sim::{DeviceSpec, Sim};
    use ipt_core::InstancedTranspose;

    fn run(
        dev: DeviceSpec,
        instances: usize,
        rows: usize,
        cols: usize,
        wg_size: usize,
        flags: FlagLayout,
    ) -> (Vec<u32>, gpu_sim::KernelStats) {
        let op = InstancedTranspose::new(instances, rows, cols, 1);
        let mut sim = Sim::new(dev, op.total_len() + 8);
        let buf = sim.alloc(op.total_len());
        let data: Vec<u32> = (0..op.total_len() as u32).collect();
        sim.upload_u32(buf, &data);
        let k = Pttwac010 { data: buf, instances, rows, cols, wg_size, flags, backoff: None };
        let stats = sim.launch(&k, &NoopRecorder, 0.0).expect("feasible");
        (sim.download_u32(buf), stats)
    }

    fn expected(instances: usize, rows: usize, cols: usize) -> Vec<u32> {
        let op = InstancedTranspose::new(instances, rows, cols, 1);
        let mut want: Vec<u32> = (0..op.total_len() as u32).collect();
        op.apply(&mut want);
        want
    }

    #[test]
    fn transposes_correctly_all_layouts() {
        for flags in [
            FlagLayout::Packed,
            FlagLayout::Spread { factor: 8 },
            FlagLayout::Spread { factor: 32 },
            FlagLayout::SpreadPadded { factor: 8 },
            FlagLayout::SpreadPadded { factor: 16 },
        ] {
            for &(i, r, c, wg) in &[
                (1usize, 5usize, 3usize, 32usize),
                (3, 16, 215, 64),
                (2, 16, 48, 96),
                (4, 61, 7, 128),
                (1, 64, 100, 256),
            ] {
                let (got, _) = run(DeviceSpec::tesla_k20(), i, r, c, wg, flags);
                assert_eq!(got, expected(i, r, c), "{i}x{r}x{c} wg={wg} {flags:?}");
            }
        }
    }

    #[test]
    fn backoff_keeps_results_correct() {
        use crate::opts::ClaimBackoff;
        let op = InstancedTranspose::new(3, 16, 215, 1);
        let mut sim = Sim::new(DeviceSpec::tesla_k20(), op.total_len() + 8);
        let buf = sim.alloc(op.total_len());
        let data: Vec<u32> = (0..op.total_len() as u32).collect();
        sim.upload_u32(buf, &data);
        let k = Pttwac010 {
            data: buf,
            instances: 3,
            rows: 16,
            cols: 215,
            wg_size: 64,
            flags: FlagLayout::SpreadPadded { factor: 8 },
            backoff: Some(ClaimBackoff::mild(7)),
        };
        let stats = sim.launch(&k, &NoopRecorder, 0.0).expect("feasible");
        assert_eq!(sim.download_u32(buf), expected(3, 16, 215));
        assert!(stats.time_s > 0.0);
    }

    #[test]
    fn works_on_amd_wavefronts() {
        let (got, _) = run(DeviceSpec::hd7750(), 2, 16, 33, 128, FlagLayout::Packed);
        assert_eq!(got, expected(2, 16, 33));
    }

    #[test]
    fn spreading_reduces_position_conflicts() {
        // The §5.1.1 effect: same workload, spread flags → far fewer
        // position conflicts.
        let (_, packed) = run(DeviceSpec::tesla_k20(), 4, 16, 215, 128, FlagLayout::Packed);
        let (_, spread) =
            run(DeviceSpec::tesla_k20(), 4, 16, 215, 128, FlagLayout::Spread { factor: 16 });
        assert!(
            spread.position_conflicts * 2 < packed.position_conflicts,
            "packed {} vs spread {}",
            packed.position_conflicts,
            spread.position_conflicts
        );
    }

    #[test]
    fn padding_reduces_bank_conflicts_for_pow2_strides() {
        // The §5.1.2 effect needs power-of-two cycle strides (Eq. (1)
        // multiplies positions by m). With n = 64 (so m·n−1 = 2^k−1) every
        // chase stride stays a power of two and spread flags hammer the
        // same banks; padding rotates them apart.
        let m = 16;
        for f in [8usize, 16, 32] {
            let (_, spread) =
                run(DeviceSpec::tesla_k20(), 64, m, 64, 256, FlagLayout::Spread { factor: f });
            let (_, padded) =
                run(DeviceSpec::tesla_k20(), 64, m, 64, 256, FlagLayout::SpreadPadded { factor: f });
            assert!(
                padded.bank_conflicts * 2 < spread.bank_conflicts,
                "f={f}: spread banks {} vs padded {}",
                spread.bank_conflicts,
                padded.bank_conflicts
            );
            assert!(padded.time_s <= spread.time_s, "f={f}: padding must not slow down");
        }
    }

    #[test]
    fn padding_reduces_lock_conflicts() {
        // Lock conflicts (1024 locks) appear at high spreading on the
        // paper's Figure-3 example (m = 16, n = 215); padding removes most.
        let (_, spread) =
            run(DeviceSpec::tesla_k20(), 64, 16, 215, 256, FlagLayout::Spread { factor: 32 });
        let (_, padded) =
            run(DeviceSpec::tesla_k20(), 64, 16, 215, 256, FlagLayout::SpreadPadded { factor: 32 });
        assert!(
            padded.lock_conflicts * 4 < spread.lock_conflicts,
            "spread locks {} vs padded {}",
            spread.lock_conflicts,
            padded.lock_conflicts
        );
    }

    #[test]
    fn spreading_speeds_up_simulated_time() {
        let (_, packed) = run(DeviceSpec::tesla_k20(), 8, 32, 215, 256, FlagLayout::Packed);
        let (_, best) =
            run(DeviceSpec::tesla_k20(), 8, 32, 215, 256, FlagLayout::SpreadPadded { factor: 8 });
        assert!(
            best.time_s < packed.time_s,
            "optimised {} vs packed {}",
            best.time_s,
            packed.time_s
        );
    }

    #[test]
    fn extreme_spreading_costs_occupancy() {
        // Fig. 6's drops: spreading 32 inflates local memory and can push
        // occupancy below the packed variant's.
        let (_, packed) = run(DeviceSpec::tesla_k20(), 2, 64, 100, 256, FlagLayout::Packed);
        let (_, s32) =
            run(DeviceSpec::tesla_k20(), 2, 64, 100, 256, FlagLayout::Spread { factor: 32 });
        assert!(s32.occupancy.occupancy < packed.occupancy.occupancy);
    }
}
