//! Schedule-exploration harnesses for the PTTWAC claim protocols.
//!
//! The `010!`/`100!` kernels coordinate through flag bits claimed with
//! atomics; their correctness must hold under *every* warp interleaving,
//! not just the engine's historic round-robin. This module packages the
//! [`gpu_sim::sched`] machinery into ready-to-run race harnesses:
//!
//! * [`tiny_device`] — a 4-lane, single-SM device model that shrinks the
//!   interleaving space enough for bounded exhaustive exploration while
//!   keeping several warps genuinely concurrent.
//! * [`run_race_case`] — one fresh, watchdog-guarded, verified execution of
//!   a claim-protocol kernel under a caller-supplied [`Scheduler`].
//! * [`explore_case`] — bounded exhaustive exploration
//!   ([`gpu_sim::sched::explore`]) of a case's interleavings.
//! * [`pct_sweep`] — a seeded campaign of randomized-priority (PCT)
//!   schedules; every failure reports the sub-seed that reproduces it.
//! * [`BrokenPttwac010`] — a deliberately broken flag-update variant whose
//!   claim is split across two scheduling slices (a TOCTOU window). It
//!   exists so tests can prove the explorer catches real claim races; no
//!   pipeline ever selects it.

use crate::pttwac010::Pttwac010;
use crate::pttwac100::Pttwac100;
use crate::opts::{FlagLayout, Variant100};
use gpu_sim::sched::{
    explore, mix64, ExploreConfig, ExploreOutcome, PctScheduler, Scheduler, TraceScheduler,
    Watchdog,
};
use gpu_sim::{
    Buffer, DeviceSpec, Grid, Kernel, KernelStats, LaneAddrs, LaneWrites, Sim, Step, WarpCtx,
};
use ipt_core::{InstancedTranspose, TransposePerm};

/// Words per super-element used by the `100!` race case (small enough to
/// keep runs short, large enough that moves span several memory ops).
pub const SUPER_100: usize = 2;

/// A shrunken device model for schedule exploration: 4-wide SIMD, one SM,
/// and room for only a few resident work-groups, so a handful of warps are
/// concurrent and the bounded explorer can cover their interleavings.
/// Latency/bandwidth constants are inherited from the K20 preset — they
/// affect the simulated clock, never functional ordering.
#[must_use]
pub fn tiny_device() -> DeviceSpec {
    DeviceSpec {
        name: "explore-tiny",
        simd_width: 4,
        num_sms: 1,
        max_wgs_per_sm: 3,
        max_warps_per_sm: 8,
        max_threads_per_wg: 64,
        num_banks: 4,
        num_locks: 16,
        ..DeviceSpec::tesla_k20()
    }
}

/// Which claim-protocol kernel a race harness drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceTarget {
    /// `010!` with packed local flags (maximum flag contention).
    P010,
    /// `100!` warp/local-tile with global flag bits.
    P100,
    /// [`BrokenPttwac010`]: the claim's read and commit are separated by a
    /// slice boundary, so another warp can claim in between.
    Broken010,
}

impl RaceTarget {
    /// Short label for reports and artifacts.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RaceTarget::P010 => "pttwac010",
            RaceTarget::P100 => "pttwac100",
            RaceTarget::Broken010 => "broken010",
        }
    }
}

/// One verified execution of `target` on a fresh simulator under `sched`:
/// iota input, watchdog armed, result compared element-exact against the
/// reference transposition.
///
/// # Errors
/// Returns a description of the launch error (including watchdog
/// [`Stalled`](gpu_sim::LaunchError::Stalled) trips) or of the first
/// corrupted element — the verdict format the explorer minimizes against.
pub fn run_race_case(
    dev: &DeviceSpec,
    target: RaceTarget,
    rows: usize,
    cols: usize,
    wg_size: usize,
    sched: &mut dyn Scheduler,
) -> Result<KernelStats, String> {
    let super_size = if target == RaceTarget::P100 { SUPER_100 } else { 1 };
    let op = InstancedTranspose::new(1, rows, cols, super_size);
    let total = op.total_len();
    let flag_words = Pttwac100::flag_words(rows * cols);
    let mut sim = Sim::new(dev.clone(), total + flag_words + 8);
    // Slices per warp in these cases is O(tile · cycle length); 50k leaves
    // two orders of magnitude of headroom while still converting a livelock
    // into a typed failure quickly.
    sim.set_watchdog(Some(Watchdog::new(50_000, 2_000_000)));
    let data = sim.alloc(total);
    let v: Vec<u32> = (0..total as u32).collect();
    sim.upload_u32(data, &v);
    let mut want = v;
    op.apply(&mut want);

    let stats = match target {
        RaceTarget::P010 => {
            let k = Pttwac010 {
                data,
                instances: 1,
                rows,
                cols,
                wg_size,
                flags: FlagLayout::Packed,
                backoff: None,
            };
            sim.launch_sched(&k, sched)
        }
        RaceTarget::P100 => {
            let flags = sim.alloc(flag_words);
            sim.zero(flags);
            let k = Pttwac100 {
                data,
                flags,
                instances: 1,
                rows,
                cols,
                super_size,
                variant: Variant100::WarpLocalTile,
                wg_size,
                fuse_tile: None,
                backoff: None,
            };
            sim.launch_sched(&k, sched)
        }
        RaceTarget::Broken010 => {
            let k = BrokenPttwac010 { data, rows, cols, wg_size };
            sim.launch_sched(&k, sched)
        }
    }
    .map_err(|e| format!("launch failed: {e}"))?;

    let got = sim.download_u32(data);
    if let Some(i) = (0..total).find(|&i| got[i] != want[i]) {
        return Err(format!(
            "corrupt element {i}: got {} want {} ({} {rows}x{cols} under {})",
            got[i],
            want[i],
            target.label(),
            sched.name(),
        ));
    }
    Ok(stats)
}

/// Bounded exhaustive exploration of `target`'s warp interleavings on
/// `dev` (see [`gpu_sim::sched::explore`] for the branching and pruning
/// rules). Every schedule is a fresh deterministic execution verified
/// element-exact.
#[must_use]
pub fn explore_case(
    dev: &DeviceSpec,
    target: RaceTarget,
    rows: usize,
    cols: usize,
    wg_size: usize,
    cfg: &ExploreConfig,
) -> ExploreOutcome {
    explore(cfg, |trace| {
        let mut ts = TraceScheduler::new(trace);
        let verdict = run_race_case(dev, target, rows, cols, wg_size, &mut ts).map(|_| ());
        (ts.into_decisions(), verdict)
    })
}

/// One failing schedule of a [`pct_sweep`] campaign.
#[derive(Debug, Clone)]
pub struct SweepFailure {
    /// Index of the schedule within the sweep.
    pub index: usize,
    /// The derived sub-seed that reproduces the failing schedule.
    pub seed: u64,
    /// What went wrong (launch error or first corrupted element).
    pub detail: String,
}

/// Outcome of a [`pct_sweep`] campaign.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// Schedules executed.
    pub runs: usize,
    /// Claim retries summed over all runs — evidence the sweep actually
    /// provoked contention rather than exploring uncontended schedules.
    pub claim_retries: u64,
    /// Every failing schedule with its reproducer seed.
    pub failures: Vec<SweepFailure>,
}

impl SweepOutcome {
    /// Did every schedule in the sweep pass?
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run `schedules` verified executions of `target` under PCT schedulers
/// whose sub-seeds derive from `base_seed` (schedule *i* uses
/// `mix64(base_seed, i)`), each with `depth` priority-change points. The
/// whole campaign is reproducible from `base_seed`, and any failure names
/// the exact sub-seed that replays it.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn pct_sweep(
    dev: &DeviceSpec,
    target: RaceTarget,
    rows: usize,
    cols: usize,
    wg_size: usize,
    base_seed: u64,
    schedules: usize,
    depth: usize,
) -> SweepOutcome {
    let mut out = SweepOutcome { runs: schedules, ..SweepOutcome::default() };
    for i in 0..schedules {
        let seed = mix64(base_seed, i as u64);
        let mut pct = PctScheduler::new(seed, depth);
        match run_race_case(dev, target, rows, cols, wg_size, &mut pct) {
            Ok(stats) => out.claim_retries += stats.claim_retries,
            Err(detail) => out.failures.push(SweepFailure { index: i, seed, detail }),
        }
    }
    out
}

/// A deliberately broken `010!` variant: the successor claim is split into
/// a *read* slice (`atom_or` with 0, observing the flag) and a later
/// *blind commit* slice (set the flag and move the data without
/// re-checking). Between the two slices another warp can read the same
/// flag clear and also commit — the classic TOCTOU double-claim that the
/// real kernel's single-slice atomic `or` makes impossible.
///
/// One lane per warp drives a chase (so the race is between *warps*, i.e.
/// visible to the scheduler), starts striding over the tile exactly like
/// the real kernel. Correct under any serial schedule; corrupt under
/// specific interleavings. **Test harness only** — no pipeline selects it.
#[derive(Debug, Clone)]
pub struct BrokenPttwac010 {
    /// The tile (single instance).
    pub data: Buffer,
    /// Tile rows.
    pub rows: usize,
    /// Tile cols.
    pub cols: usize,
    /// Work-items per work-group (one work-group total).
    pub wg_size: usize,
}

impl BrokenPttwac010 {
    fn tile_len(&self) -> usize {
        self.rows * self.cols
    }
}

/// Per-warp state of [`BrokenPttwac010`].
pub struct Broken010State {
    phase: u8,
    init_cursor: usize,
    active: bool,
    pos: usize,
    carried: u32,
    next_start: usize,
    /// 0 until lane geometry is known (lazy, like the real warp variants).
    stride: usize,
    exhausted: bool,
    /// `Some(next)` while inside the TOCTOU window: the flag of `next` was
    /// read clear and the commit is deferred to the next slice.
    pending_claim: Option<usize>,
}

impl Kernel for BrokenPttwac010 {
    type State = Broken010State;

    fn name(&self) -> String {
        format!("BROKEN-PTTWAC010 {}x{}", self.rows, self.cols)
    }

    fn grid(&self) -> Grid {
        Grid { num_wgs: 1, wg_size: self.wg_size }
    }

    fn regs_per_thread(&self) -> usize {
        16
    }

    fn local_mem_words(&self, _dev: &gpu_sim::DeviceSpec) -> usize {
        self.tile_len().div_ceil(32)
    }

    fn init(&self, _wg_id: usize, _warp_id: usize) -> Broken010State {
        Broken010State {
            phase: 0,
            init_cursor: 0,
            active: false,
            pos: 0,
            carried: 0,
            next_start: 0,
            stride: 0,
            exhausted: false,
            pending_claim: None,
        }
    }

    fn step(&self, st: &mut Broken010State, ctx: &mut WarpCtx<'_>) -> Step {
        let tile = self.tile_len();
        let perm = TransposePerm::new(self.rows, self.cols);
        let flag_words = tile.div_ceil(32);

        if st.phase == 0 {
            // Zero the flag words (lane 0 of warp 0 covers them all; the
            // barrier publishes the cleared flags to every warp).
            if ctx.warp_id == 0 {
                let writes = LaneWrites::from_fn(1, |_| {
                    (st.init_cursor < flag_words).then_some((st.init_cursor, 0u32))
                });
                ctx.local_write(&writes);
                st.init_cursor += 1;
            }
            if ctx.warp_id != 0 || st.init_cursor >= flag_words {
                st.phase = 1;
                let warps = ctx.wg_size.div_ceil(ctx.device().simd_width).max(1);
                st.next_start = ctx.warp_id;
                st.stride = warps;
                return Step::Barrier;
            }
            return Step::Continue;
        }

        // ---- blind commit slice: the second half of the split claim ----
        if let Some(next) = st.pending_claim.take() {
            // BUG under exploration: the flag was read clear one slice ago,
            // but it is set-and-committed here *without re-checking* — any
            // warp that claimed `next` in between is silently double-moved.
            let (w, bit) = (next / 32, (next % 32) as u32);
            let set = LaneWrites::from_fn(1, |_| Some((w, 1u32 << bit)));
            let _ = ctx.local_atomic_or(&set);
            let addr = LaneAddrs::from_fn(1, |_| Some(next));
            let backup = ctx.global_read(self.data, &addr);
            let wr = LaneWrites::from_fn(1, |_| Some((next, st.carried)));
            ctx.global_write(self.data, &wr);
            st.carried = backup.get(0);
            st.pos = next;
            return Step::Continue;
        }

        if !st.active {
            // Acquire a start: skip fixed points, read data then the flag
            // (same benign-duplicate protocol as the real kernel — the
            // successor claim is what is supposed to arbitrate).
            while st.next_start < tile && perm.dest(st.next_start) == st.next_start {
                st.next_start += st.stride;
            }
            if st.next_start >= tile {
                st.exhausted = true;
                return Step::Done;
            }
            let p = st.next_start;
            st.next_start += st.stride;
            let addr = LaneAddrs::from_fn(1, |_| Some(p));
            let val = ctx.global_read(self.data, &addr);
            let (w, bit) = (p / 32, (p % 32) as u32);
            let read = LaneWrites::from_fn(1, |_| Some((w, 0u32)));
            let old = ctx.local_atomic_or(&read);
            if (old.get(0) >> bit) & 1 == 0 {
                st.active = true;
                st.pos = p;
                st.carried = val.get(0);
            } else {
                ctx.note_claim_retry();
            }
            return Step::Continue;
        }

        // ---- read slice: first half of the split claim ----
        let next = perm.dest(st.pos);
        let (w, bit) = (next / 32, (next % 32) as u32);
        let read = LaneWrites::from_fn(1, |_| Some((w, 0u32)));
        let old = ctx.local_atomic_or(&read);
        ctx.alu(6.0);
        if (old.get(0) >> bit) & 1 == 0 {
            // Flag observed clear: commit on the *next* slice — the window.
            st.pending_claim = Some(next);
        } else {
            // Chain owned elsewhere; retire and scan for a new start.
            st.active = false;
            ctx.note_claim_retry();
        }
        Step::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::RoundRobin;

    #[test]
    fn tiny_device_is_sane() {
        let d = tiny_device();
        assert!(d.simd_width.is_power_of_two());
        assert_eq!(d.num_sms, 1);
        assert!(d.local_words_per_wg() > 0);
    }

    #[test]
    fn race_cases_pass_under_round_robin() {
        let dev = tiny_device();
        for (target, wg) in
            [(RaceTarget::P010, 8), (RaceTarget::P100, 4), (RaceTarget::Broken010, 8)]
        {
            let mut rr = RoundRobin;
            let r = run_race_case(&dev, target, 4, 6, wg, &mut rr);
            assert!(r.is_ok(), "{}: {}", target.label(), r.unwrap_err());
        }
    }

    #[test]
    fn broken_kernel_correct_when_serial() {
        // The empty trace = serial default schedule: one warp runs to
        // completion before the next starts. The TOCTOU window never
        // overlaps another warp, so the broken kernel still passes.
        let dev = tiny_device();
        let mut ts = TraceScheduler::new(&[]);
        let r = run_race_case(&dev, RaceTarget::Broken010, 3, 2, 8, &mut ts);
        assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn sweep_reports_contention_evidence() {
        let dev = tiny_device();
        let out = pct_sweep(&dev, RaceTarget::P010, 4, 6, 8, 42, 8, 3);
        assert_eq!(out.runs, 8);
        assert!(out.all_passed(), "{:?}", out.failures);
    }
}
