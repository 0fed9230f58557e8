//! The SIMT execution engine.
//!
//! Kernels are authored as **per-warp state machines** operated in
//! warp-vector style: [`Kernel::step`] advances one warp by one scheduling
//! slice, issuing whole-warp memory operations through [`WarpCtx`]. The
//! engine:
//!
//! 1. computes occupancy and admits as many work-groups as the device can
//!    hold resident (`wgs_per_sm × num_sms`),
//! 2. schedules resident warps one `step` (scheduling slice) at a time —
//!    by default the historic round-robin order (each live warp once per
//!    round, canonical work-group/warp order), or under any
//!    [`Scheduler`](crate::sched::Scheduler) via [`launch_configured`],
//!    which is what makes cross-work-group coordination (the global atomic
//!    claims of `100!`) behave like real concurrent hardware rather than
//!    like a serial loop — and what lets the schedule-exploration engine
//!    drive adversarial interleavings through the same code path,
//! 3. retires finished work-groups and admits pending ones,
//! 4. aggregates functional counters and dependent-chain cycles into a
//!    [`KernelStats`] with the four-bound time model (bandwidth, latency,
//!    serial, local-port).
//!
//! Execution is deterministic: a fixed schedule per scheduler + seed. A
//! launch may additionally request the **parallel work-group engine**
//! ([`EngineMode::Parallel`]): kernels that declare
//! [`Coordination::WgLocal`] — work-groups share no mutable global state —
//! execute their work-groups concurrently on the workspace's rayon pool and
//! merge per-WG results in canonical order, producing memory images, stats,
//! timings, and traces *bit-identical* to the serial round-robin path (see
//! DESIGN.md §12 for the determinism argument). Kernels that declare
//! [`Coordination::CrossWgClaims`] — cross-WG state limited to commutative
//! claim flags with schedule-dependence confined to claim outcomes — run
//! through a two-phase scheme: a cost-free serial **control replay** first
//! resolves every claim in canonical round-robin order, then the pooled
//! engine re-executes the work-groups concurrently against the recorded
//! outcome scripts, again bit-identical to serial (DESIGN.md §17).
//! [`Coordination::CrossWg`] kernels and any launch under a custom
//! scheduler, fault source, or watchdog always stay on the serial engine.
//! An optional
//! [`Watchdog`](crate::sched::Watchdog) bounds per-warp and total slices,
//! converting livelocks and lost-wakeup hangs into
//! [`LaunchError::Stalled`].

use crate::device::DeviceSpec;
use crate::fault::{AtomicTamper, FaultPlan, FaultSource, StepFault};
use crate::lanes::{LaneAddrs, LaneVals, LaneWrites, MAX_LANES};
use crate::mem::{Buffer, GlobalMem, LocalMem};
use crate::occupancy::{occupancy, KernelResources, Occupancy};
use crate::report::{KernelStats, TimeBounds};
use crate::sched::{Pick, Scheduler, Watchdog, WarpId};
use ipt_obs::{Counter, Level, NoopRecorder, Recorder};
use rayon::prelude::*;

/// Per-launch cap on recorded warp spans. Big grids retire millions of
/// warps; a trace keeps the first `WARP_SPAN_CAP` and counts the rest in
/// [`Counter::DroppedWarpSpans`] — truncation is visible, never silent.
/// Sized at 8 spans per display track: warp spans are a sample for the
/// viewer, and they dominate full-tracing's footprint under serving load
/// (every span carries a formatted name), so the cap is also what keeps
/// the telemetry overhead gate comfortably under its ceiling.
pub const WARP_SPAN_CAP: usize = 64;

/// Launch geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    /// Number of work-groups.
    pub num_wgs: usize,
    /// Work-items per work-group.
    pub wg_size: usize,
}

/// What a warp reports after one scheduling slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// More work; schedule me again.
    Continue,
    /// Reached a work-group barrier; resume when all live warps of the
    /// work-group have reached it.
    Barrier,
    /// This warp has finished the kernel.
    Done,
}

/// How a kernel's work-groups coordinate with each other — the declaration
/// that decides whether the parallel work-group engine may run them on
/// concurrent host threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Coordination {
    /// Work-groups are mutually independent: no work-group reads a global
    /// word another work-group of the same launch writes (disjoint tiles,
    /// grid-stride over disjoint rows, local-memory-only flags). Eligible
    /// for concurrent execution with bit-identical results.
    WgLocal,
    /// Work-groups coordinate through global memory in an arbitrary way.
    /// Always simulated serially so the cross-WG interleaving stays the
    /// canonical round-robin schedule.
    #[default]
    CrossWg,
    /// Deterministically mergeable cross-WG state: the only global words
    /// work-groups share are **claim-flag words** touched exclusively
    /// through [`WarpCtx::claim_check`] / [`WarpCtx::claim_acquire`]
    /// (monotone, commutative, idempotent `atom_or` bits), and the kernel
    /// upholds the replay contract:
    ///
    /// * every data position is written at most once per launch, only by
    ///   the unique winner of that position's claim;
    /// * every functional data read observes the pre-launch memory image
    ///   (claim flags guard chain starts, so a loser never reads a word a
    ///   winner rewrote);
    /// * control flow depends on global memory *only* through the boolean
    ///   outcomes of the claim ops;
    /// * [`Kernel::control_step`] is implemented as a cost-free twin of
    ///   [`Kernel::step`] taking the identical control path.
    ///
    /// Under [`EngineMode::Parallel`] such a kernel runs in two phases: a
    /// serial control replay resolves every claim in canonical round-robin
    /// order and records per-warp outcome scripts, then work-groups execute
    /// concurrently with outcomes (and functional data reads) replayed from
    /// the oracle — bit-identical to the serial engine (DESIGN.md §17).
    CrossWgClaims,
}

/// How the host executes one launch's work-groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// The historic engine: one host thread, round-robin interleaving.
    #[default]
    Serial,
    /// Run eligible work-groups concurrently on the rayon pool —
    /// [`Coordination::WgLocal`] kernels directly, and
    /// [`Coordination::CrossWgClaims`] kernels via the two-phase control
    /// replay; results are bit-identical to [`EngineMode::Serial`].
    /// Ineligible launches (plain CrossWg kernels, custom scheduler, fault
    /// source, or watchdog) silently fall back to serial.
    Parallel {
        /// Worker threads; `0` = auto ([`rayon::current_num_threads`]: an
        /// installed pool's width, else `RAYON_NUM_THREADS`, else the
        /// machine's available parallelism).
        threads: usize,
    },
}

impl EngineMode {
    /// The auto-sized parallel engine.
    #[must_use]
    pub fn parallel_auto() -> Self {
        EngineMode::Parallel { threads: 0 }
    }

    /// Host threads this mode will actually use.
    #[must_use]
    pub fn resolved_threads(self) -> usize {
        match self {
            EngineMode::Serial => 1,
            EngineMode::Parallel { threads: 0 } => rayon::current_num_threads(),
            EngineMode::Parallel { threads } => threads,
        }
    }

    /// Short label for provenance records ("serial" / "parallel").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EngineMode::Serial => "serial",
            EngineMode::Parallel { .. } => "parallel",
        }
    }
}

/// A simulated kernel.
pub trait Kernel: Sync {
    /// Per-warp persistent state.
    type State;

    /// Display name (shows up in stats and harness output).
    fn name(&self) -> String;
    /// Launch geometry.
    fn grid(&self) -> Grid;
    /// How this kernel's work-groups coordinate. The conservative default
    /// keeps the serial engine; kernels whose work-groups are provably
    /// independent opt in to [`Coordination::WgLocal`].
    fn coordination(&self) -> Coordination {
        Coordination::CrossWg
    }
    /// Registers per thread (occupancy input); default typical.
    fn regs_per_thread(&self) -> usize {
        16
    }
    /// Local-memory words each work-group allocates (may depend on the
    /// device, e.g. staging buffers sized per resident SIMD unit).
    fn local_mem_words(&self, dev: &DeviceSpec) -> usize {
        let _ = dev;
        0
    }
    /// Build the initial state of warp `warp_id` of work-group `wg_id`.
    fn init(&self, wg_id: usize, warp_id: usize) -> Self::State;
    /// Advance the warp one scheduling slice.
    fn step(&self, state: &mut Self::State, ctx: &mut WarpCtx<'_>) -> Step;
    /// Cost-free control twin of [`Kernel::step`] for
    /// [`Coordination::CrossWgClaims`] kernels: must make the *same*
    /// control-flow decisions and the same claim-op sequence as `step`, but
    /// performs no data movement, no local-memory traffic, and no cost
    /// accounting. Driven by the serial control-replay phase of the parallel
    /// engine; the claim ops on [`ControlCtx`] resolve against live memory
    /// and record each boolean outcome for the concurrent replay phase.
    fn control_step(&self, state: &mut Self::State, ctx: &mut ControlCtx<'_>) -> Step {
        let _ = (state, ctx);
        unimplemented!("control_step is required for Coordination::CrossWgClaims kernels")
    }
}

/// Why a launch failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// Occupancy calculator found the kernel cannot run on this device.
    Infeasible {
        /// Offending resource description.
        why: String,
    },
    /// The kernel died mid-flight (injected watchdog/machine-check fault).
    /// Device memory may hold a partially transposed state; recovery must
    /// restore a snapshot before retrying.
    Aborted {
        /// Kernel display name.
        kernel: String,
        /// Warp steps completed before the abort.
        after_steps: u64,
    },
    /// A liveness watchdog tripped: one warp exceeded its scheduling-slice
    /// budget (or the launch exceeded its total budget) without finishing —
    /// a claim-loop livelock, a lost wakeup, or a starved schedule. Device
    /// memory may hold a partially transposed state, exactly like
    /// [`LaunchError::Aborted`].
    Stalled {
        /// Kernel display name.
        kernel: String,
        /// Global warp index of the offending warp
        /// (`wg_id × warps_per_wg + warp_id`).
        lane: usize,
        /// Scheduling slices that warp had executed when the watchdog fired.
        steps: u64,
    },
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::Infeasible { why } => write!(f, "kernel launch infeasible: {why}"),
            LaunchError::Aborted { kernel, after_steps } => {
                write!(f, "kernel `{kernel}` aborted after {after_steps} warp steps")
            }
            LaunchError::Stalled { kernel, lane, steps } => {
                write!(
                    f,
                    "kernel `{kernel}` stalled: warp lane {lane} exceeded its watchdog \
                     budget after {steps} slices"
                )
            }
        }
    }
}

impl std::error::Error for LaunchError {}

#[derive(Default)]
struct Counters {
    dram_bytes: f64,
    useful_bytes: f64,
    gld_transactions: u64,
    gst_transactions: u64,
    local_accesses: u64,
    local_atomics: u64,
    global_atomics: u64,
    position_conflicts: u64,
    lock_conflicts: u64,
    bank_conflicts: u64,
    claim_retries: u64,
    barriers: u64,
    warp_steps: u64,
    local_port_cycles: f64,
}

impl Counters {
    /// Fold another work-group's subtotal in. The f64 fields only ever
    /// accumulate integer-valued increments (transaction × byte products,
    /// integer latency constants), so every partial sum below 2^53 is exact
    /// and the fold is order-independent — merging per-WG subtotals in
    /// canonical order is bit-identical to the serial engine's interleaved
    /// accumulation.
    fn merge(&mut self, o: &Counters) {
        self.dram_bytes += o.dram_bytes;
        self.useful_bytes += o.useful_bytes;
        self.gld_transactions += o.gld_transactions;
        self.gst_transactions += o.gst_transactions;
        self.local_accesses += o.local_accesses;
        self.local_atomics += o.local_atomics;
        self.global_atomics += o.global_atomics;
        self.position_conflicts += o.position_conflicts;
        self.lock_conflicts += o.lock_conflicts;
        self.bank_conflicts += o.bank_conflicts;
        self.claim_retries += o.claim_retries;
        self.barriers += o.barriers;
        self.warp_steps += o.warp_steps;
        self.local_port_cycles += o.local_port_cycles;
    }
}

/// Per-warp claim-outcome oracle handed into a replayed scheduling slice:
/// the warp's scripted claim outcomes from the serial control-replay phase,
/// its cursor into that script, and the pre-launch memory image functional
/// data reads must observe.
struct ClaimReplay<'a> {
    script: &'a [bool],
    cursor: &'a mut usize,
    snapshot: &'a [u32],
}

/// The serial control-replay phase's record of one launch: the claim
/// outcomes the concurrent replay phase needs to reproduce the serial engine
/// bit-exactly.
struct MergeableOracle {
    /// Claim-op outcomes per warp, indexed `wg_id × warps_per_wg + warp_id`.
    scripts: Vec<Vec<bool>>,
    /// Total scheduling slices the serial engine executes — the replay must
    /// land on exactly this count or the twin diverged (checked, loudly).
    total_steps: u64,
}

/// Oracle plus the pre-launch global-memory image (taken before the control
/// replay mutates the claim-flag words).
struct MergeablePlan {
    oracle: MergeableOracle,
    snapshot: Vec<u32>,
}

/// One work-group's slice of a [`MergeablePlan`] handed to the isolated
/// runner.
struct WgReplay<'a> {
    snapshot: &'a [u32],
    /// This WG's outcome scripts, indexed by warp.
    scripts: &'a [Vec<bool>],
}

/// Context handed to [`Kernel::control_step`] during the serial
/// control-replay phase: launch geometry plus the claim ops, which resolve
/// against live memory (canonical round-robin order, exactly like the serial
/// engine) and append each boolean outcome to the warp's script.
pub struct ControlCtx<'a> {
    /// Work-group id.
    pub wg_id: usize,
    /// Warp index within the work-group.
    pub warp_id: usize,
    /// Active lanes in this warp (= SIMD width except a ragged tail warp).
    pub lanes: usize,
    /// Work-items per work-group (for grid-stride loops).
    pub wg_size: usize,
    /// Number of work-groups in the launch.
    pub num_wgs: usize,
    dev: &'a DeviceSpec,
    global: &'a GlobalMem,
    script: &'a mut Vec<bool>,
}

impl ControlCtx<'_> {
    /// The device being simulated.
    #[must_use]
    pub fn device(&self) -> &DeviceSpec {
        self.dev
    }

    /// Control twin of [`WarpCtx::claim_check`]: is flag `bit` set? Resolves
    /// against live memory and records the outcome.
    pub fn claim_check(&mut self, buf: Buffer, bit: usize) -> bool {
        let set = (self.global.read(buf.addr(bit / 32)) >> (bit % 32)) & 1 == 1;
        self.script.push(set);
        set
    }

    /// Control twin of [`WarpCtx::claim_acquire`]: `atom_or` flag `bit`, did
    /// this warp win it? Resolves against live memory and records the
    /// outcome.
    pub fn claim_acquire(&mut self, buf: Buffer, bit: usize) -> bool {
        let old = self.global.atomic_or(buf.addr(bit / 32), 1u32 << (bit % 32));
        let won = (old >> (bit % 32)) & 1 == 0;
        self.script.push(won);
        won
    }
}

/// Per-warp-instruction context handed to [`Kernel::step`]: functional
/// memory access plus cost accounting for one warp.
pub struct WarpCtx<'a> {
    /// Work-group id.
    pub wg_id: usize,
    /// Warp index within the work-group.
    pub warp_id: usize,
    /// Active lanes in this warp (= SIMD width except a ragged tail warp).
    pub lanes: usize,
    /// Work-items per work-group (for grid-stride loops).
    pub wg_size: usize,
    /// Number of work-groups in the launch.
    pub num_wgs: usize,
    dev: &'a DeviceSpec,
    global: &'a GlobalMem,
    local: &'a mut LocalMem,
    counters: &'a mut Counters,
    chain_cycles: &'a mut f64,
    fault: Option<&'a dyn FaultSource>,
    replay: Option<ClaimReplay<'a>>,
}

/// Scratch for distinct-count computations (≤ 64 entries, stack only).
#[inline]
fn distinct_sorted(buf: &mut [usize; MAX_LANES], n: usize) -> usize {
    let s = &mut buf[..n];
    s.sort_unstable();
    let mut distinct = 0usize;
    let mut prev = usize::MAX;
    for &a in s.iter() {
        if a != prev {
            distinct += 1;
            prev = a;
        }
    }
    distinct
}

impl WarpCtx<'_> {
    /// Global thread (work-item) id of `lane`.
    #[inline]
    #[must_use]
    pub fn thread_id(&self, lane: usize) -> usize {
        self.wg_id * self.wg_size + self.warp_id * self.dev.simd_width + lane
    }

    /// Local (within work-group) thread id of `lane`.
    #[inline]
    #[must_use]
    pub fn local_thread_id(&self, lane: usize) -> usize {
        self.warp_id * self.dev.simd_width + lane
    }

    /// Total threads in the launch.
    #[inline]
    #[must_use]
    pub fn total_threads(&self) -> usize {
        self.num_wgs * self.wg_size
    }

    /// Account pure-ALU work on the warp's dependent chain.
    pub fn alu(&mut self, cycles: f64) {
        *self.chain_cycles += cycles;
    }

    /// Note one failed flag claim: a lane raced for a cycle's start flag and
    /// lost (the PTTWAC claim protocol, §5.1), so it must fetch a new start.
    /// Pure bookkeeping — the atomic's cost was already accounted by the
    /// `atom_or` that lost.
    pub fn note_claim_retry(&mut self) {
        self.counters.claim_retries += 1;
    }

    /// Is claim flag `bit` (a bit index into `buf`'s packed flag words)
    /// already set? Costs exactly a one-lane [`WarpCtx::global_read`] of the
    /// flag word. [`Coordination::CrossWgClaims`] kernels **must** route
    /// every flag probe through this op: under the concurrent replay engine
    /// the outcome comes from the control-replay script (the flag word's
    /// live value is schedule-dependent there), while the cost accounting
    /// stays identical.
    pub fn claim_check(&mut self, buf: Buffer, bit: usize) -> bool {
        let addrs = LaneAddrs::from_fn(1, |_| Some(bit / 32));
        let old = self.global_read(buf, &addrs);
        if self.replay.is_some() {
            return self.next_scripted();
        }
        (old.get(0) >> (bit % 32)) & 1 == 1
    }

    /// `atom_or` claim flag `bit` in `buf`; `true` iff this warp set it
    /// first (won the claim). Costs exactly a one-lane
    /// [`WarpCtx::global_atomic_or`]. Under the concurrent replay engine the
    /// `atom_or` is still applied — it is commutative and idempotent, so the
    /// racing replay threads converge on the serial flag image — but the
    /// *outcome* comes from the control-replay script.
    pub fn claim_acquire(&mut self, buf: Buffer, bit: usize) -> bool {
        let claim = LaneWrites::from_fn(1, |_| Some((bit / 32, 1u32 << (bit % 32))));
        let old = self.global_atomic_or(buf, &claim);
        if self.replay.is_some() {
            return self.next_scripted();
        }
        (old.get(0) >> (bit % 32)) & 1 == 0
    }

    /// Pop the next scripted claim outcome. A script overrun means the
    /// kernel's `control_step` twin diverged from `step` — a contract bug
    /// that must never be absorbed silently.
    fn next_scripted(&mut self) -> bool {
        let wg = self.wg_id;
        let warp = self.warp_id;
        let r = self.replay.as_mut().expect("scripted claim outside replay");
        let i = *r.cursor;
        *r.cursor += 1;
        assert!(
            i < r.script.len(),
            "claim-outcome script overrun in wg {wg} warp {warp}: control_step diverged from step"
        );
        r.script[i]
    }

    /// Account the cost of an *intra-step* work-group barrier without
    /// yielding to the scheduler. Used by kernels that model a cooperative
    /// multi-warp operation inside one scheduling slice (e.g. the Sung
    /// work-group-per-super-element `100!` kernel, whose warps synchronise
    /// around every super-element move, §5.2 item 3).
    pub fn barrier_hint(&mut self) {
        self.counters.barriers += 1;
        *self.chain_cycles += self.dev.lat_barrier;
    }

    /// The device being simulated (kernels adapt to SIMD width, bank count…).
    #[must_use]
    pub fn device(&self) -> &DeviceSpec {
        self.dev
    }

    /// Words of local memory this work-group allocated.
    #[must_use]
    pub fn local_capacity(&self) -> usize {
        self.local.len()
    }

    /// Batched vector loads with independent addresses (streaming a
    /// super-element): the warp keeps `mlp_transactions` in flight, so the
    /// dependent chain pays `lat_global × ceil(t / mlp)` rather than one
    /// full latency per instruction. Traffic accounting is identical to
    /// issuing each [`WarpCtx::global_read`] separately.
    pub fn global_read_batch(&mut self, buf: Buffer, batches: &[LaneAddrs]) -> Vec<LaneVals> {
        let mut total_t = 0usize;
        let mut out = Vec::with_capacity(batches.len());
        for addrs in batches {
            let abs = addrs.map(|a| a.map(|off| buf.addr(off)));
            let t = self.global_segments(&abs);
            if t > 0 {
                self.counters.gld_transactions += t as u64;
                self.counters.dram_bytes += (t * self.dev.transaction_bytes) as f64;
                self.counters.useful_bytes += (abs.active() * 4) as f64;
                total_t += t;
            }
            out.push(match &self.replay {
                // Replayed slice: functional data reads observe the
                // pre-launch image (see the note in `global_read`).
                Some(r) => abs.map(|a| a.map_or(0, |addr| r.snapshot[addr])),
                None => abs.map(|a| a.map_or(0, |addr| self.global.read(addr))),
            });
        }
        if total_t > 0 {
            let rounds = (total_t as f64 / self.dev.mlp_transactions).ceil();
            *self.chain_cycles +=
                self.dev.lat_global * rounds + (total_t as f64 - 1.0) * self.dev.lat_replay;
        }
        out
    }

    /// Batched vector stores (see [`WarpCtx::global_read_batch`]); stores
    /// are fire-and-forget, so the chain pays one store latency plus
    /// replays.
    pub fn global_write_batch(&mut self, buf: Buffer, batches: &[LaneWrites]) {
        let mut total_t = 0usize;
        for writes in batches {
            let abs: LaneAddrs = writes.map(|w| w.map(|(off, _)| buf.addr(off)));
            let t = self.global_segments(&abs);
            if t > 0 {
                self.counters.gst_transactions += t as u64;
                self.counters.dram_bytes += (t * self.dev.transaction_bytes) as f64;
                self.counters.useful_bytes += (abs.active() * 4) as f64;
                total_t += t;
            }
            for (_, w) in writes.iter() {
                if let Some((off, v)) = w {
                    self.global.write(buf.addr(off), v);
                }
            }
        }
        if total_t > 0 {
            *self.chain_cycles +=
                self.dev.lat_global_store + (total_t as f64 - 1.0) * self.dev.lat_replay;
        }
    }

    // ---- global memory ----

    fn global_segments(&mut self, addrs: &LaneAddrs) -> usize {
        let mut segs = [0usize; MAX_LANES];
        let mut n = 0;
        for (_, a) in addrs.iter() {
            if let Some(off) = a {
                segs[n] = off * 4 / self.dev.transaction_bytes;
                n += 1;
            }
        }
        if n == 0 {
            return 0;
        }
        distinct_sorted(&mut segs, n)
    }

    /// Coalescing-aware vector load: one value per active lane, `0` for
    /// inactive lanes. Addresses are word offsets into `buf`.
    pub fn global_read(&mut self, buf: Buffer, addrs: &LaneAddrs) -> LaneVals {
        let abs = addrs.map(|a| a.map(|off| buf.addr(off)));
        let t = self.global_segments(&abs);
        if t > 0 {
            self.counters.gld_transactions += t as u64;
            self.counters.dram_bytes += (t * self.dev.transaction_bytes) as f64;
            self.counters.useful_bytes += (abs.active() * 4) as f64;
            *self.chain_cycles += self.dev.lat_global + (t as f64 - 1.0) * self.dev.lat_replay;
        }
        // Replayed slice: functional data reads observe the pre-launch
        // image — the CrossWgClaims contract guarantees that is exactly
        // what the serial engine's read would have returned (every data
        // position is written at most once, by the claim winner, and
        // chain-start reads are flag-guarded; flag words are only probed
        // through the claim ops, never read functionally here).
        if let Some(r) = &self.replay {
            let snap = r.snapshot;
            return abs.map(|a| a.map_or(0, |addr| snap[addr]));
        }
        // Fully coalesced warps (every lane active, consecutive addresses —
        // the common case for tile row streaming) load as one slice
        // operation: a single bounds check instead of one per lane.
        if let Some(base) = abs.contiguous_base() {
            let mut run = [0u32; MAX_LANES];
            self.global.read_run(base, &mut run[..abs.len()]);
            return LaneVals::from_fn(abs.len(), |i| run[i]);
        }
        abs.map(|a| a.map_or(0, |addr| self.global.read(addr)))
    }

    /// Coalescing-aware vector store.
    pub fn global_write(&mut self, buf: Buffer, writes: &LaneWrites) {
        let abs: LaneAddrs = writes.map(|w| w.map(|(off, _)| buf.addr(off)));
        let t = self.global_segments(&abs);
        if t > 0 {
            self.counters.gst_transactions += t as u64;
            self.counters.dram_bytes += (t * self.dev.transaction_bytes) as f64;
            self.counters.useful_bytes += (abs.active() * 4) as f64;
            *self.chain_cycles += self.dev.lat_global_store + (t as f64 - 1.0) * self.dev.lat_replay;
        }
        // Slice-op fast path for fully coalesced stores (no same-address
        // collisions possible: addresses are distinct by construction).
        if let Some(base) = abs.contiguous_base() {
            let mut run = [0u32; MAX_LANES];
            let n = writes.len();
            for (i, (_, w)) in writes.iter().enumerate() {
                run[i] = w.map_or(0, |(_, v)| v);
            }
            self.global.write_run(base, &run[..n]);
            return;
        }
        for (_, w) in writes.iter() {
            if let Some((off, v)) = w {
                self.global.write(buf.addr(off), v);
            }
        }
    }

    /// Vector global `atom_or`; returns previous values (0 on inactive
    /// lanes). Collisions on the same word serialise (position-conflict
    /// model applied to global atomics).
    pub fn global_atomic_or(&mut self, buf: Buffer, ops: &LaneWrites) -> LaneVals {
        let mut words = [0usize; MAX_LANES];
        let mut n = 0;
        for (_, w) in ops.iter() {
            if let Some((off, _)) = w {
                words[n] = buf.addr(off);
                n += 1;
            }
        }
        if n > 0 {
            // Max same-word collision degree and distinct-word count.
            let s = &mut words[..n];
            s.sort_unstable();
            let mut max_deg = 1usize;
            let mut run = 1usize;
            let mut distinct = 1usize;
            for i in 1..n {
                if s[i] == s[i - 1] {
                    run += 1;
                    max_deg = max_deg.max(run);
                } else {
                    run = 1;
                    distinct += 1;
                }
            }
            self.counters.global_atomics += n as u64;
            self.counters.position_conflicts += (n - distinct) as u64;
            *self.chain_cycles += self.dev.lat_global_atomic * max_deg as f64;
        }
        // Functional execution in lane order (deterministic). An armed
        // fault plan may tamper with the first active lane's update.
        let mut tamper =
            self.fault.and_then(|f| f.on_global_atomic(self.wg_id, self.warp_id));
        ops.map(|w| {
            w.map_or(0, |(off, v)| match tamper.take() {
                None => self.global.atomic_or(buf.addr(off), v),
                Some(AtomicTamper::Drop) => self.global.read(buf.addr(off)),
                Some(AtomicTamper::Duplicate) => self.global.atomic_or(buf.addr(off), v) | v,
            })
        })
    }

    // ---- local memory ----

    fn local_conflict_degree(&self, addrs: &LaneAddrs) -> (usize, u64) {
        // Per bank: count distinct word addresses (same word = broadcast).
        // Returns (max degree over banks, total extra conflicts).
        let mut pairs = [(0usize, 0usize); MAX_LANES]; // (bank, addr)
        let mut n = 0;
        for (_, a) in addrs.iter() {
            if let Some(addr) = a {
                pairs[n] = (addr % self.dev.num_banks, addr);
                n += 1;
            }
        }
        if n == 0 {
            return (0, 0);
        }
        let s = &mut pairs[..n];
        s.sort_unstable();
        let mut max_deg = 1usize;
        let mut extra = 0u64;
        let mut bank_start = 0usize;
        let mut i = 0;
        while i <= n {
            if i == n || s[i].0 != s[bank_start].0 {
                // distinct addrs within bank run [bank_start, i)
                let mut distinct = 0usize;
                let mut prev = usize::MAX;
                for &(_, a) in &s[bank_start..i] {
                    if a != prev {
                        distinct += 1;
                        prev = a;
                    }
                }
                max_deg = max_deg.max(distinct);
                extra += distinct.saturating_sub(1) as u64;
                bank_start = i;
            }
            i += 1;
        }
        (max_deg, extra)
    }

    fn account_local(&mut self, addrs: &LaneAddrs) {
        let active = addrs.active();
        if active == 0 {
            return;
        }
        self.counters.local_accesses += active as u64;
        if self.dev.local_mem_onchip {
            let (deg, extra) = self.local_conflict_degree(addrs);
            self.counters.bank_conflicts += extra;
            self.counters.local_port_cycles += deg as f64;
            *self.chain_cycles += self.dev.lat_local + (deg as f64 - 1.0) * 4.0;
        } else {
            // Xeon Phi: local memory is emulated in DRAM (§7.7) — the
            // access costs a DRAM transaction stream like a global access.
            let t = addrs.active().div_ceil(self.dev.transaction_bytes / 4);
            self.counters.dram_bytes += (t * self.dev.transaction_bytes) as f64;
            self.counters.useful_bytes += (active * 4) as f64;
            *self.chain_cycles += self.dev.lat_local + (t as f64 - 1.0) * self.dev.lat_replay;
        }
    }

    /// Vector local load.
    pub fn local_read(&mut self, addrs: &LaneAddrs) -> LaneVals {
        self.account_local(addrs);
        addrs.map(|a| a.map_or(0, |addr| self.local.read(addr)))
    }

    /// Vector local store. Same-word collisions resolve in lane order
    /// (lowest lane last — deterministic; kernels should not rely on it).
    pub fn local_write(&mut self, writes: &LaneWrites) {
        let addrs: LaneAddrs = writes.map(|w| w.map(|(a, _)| a));
        self.account_local(&addrs);
        for (_, w) in writes.iter() {
            if let Some((addr, v)) = w {
                self.local.write(addr, v);
            }
        }
    }

    /// Vector local `atom_or`; returns previous values. This is the §5.1
    /// hot spot: the cost is `lat_local_atomic × conflict degree`, where the
    /// degree is the worst collision on one **lock** (same word ⇒ same lock,
    /// so position conflicts are included) or one **bank**.
    pub fn local_atomic_or(&mut self, ops: &LaneWrites) -> LaneVals {
        let mut n = 0usize;
        let mut words = [0usize; MAX_LANES];
        for (_, w) in ops.iter() {
            if let Some((addr, _)) = w {
                words[n] = addr;
                n += 1;
            }
        }
        if n > 0 {
            self.counters.local_atomics += n as u64;
            let s = &mut words[..n];
            s.sort_unstable();
            // Position conflicts: lanes sharing the exact word.
            let mut distinct_words = 0usize;
            let mut prev = usize::MAX;
            let mut word_run = 0usize;
            let mut max_word_deg = 0usize;
            for &a in s.iter() {
                if a != prev {
                    distinct_words += 1;
                    prev = a;
                    word_run = 1;
                } else {
                    word_run += 1;
                }
                max_word_deg = max_word_deg.max(word_run);
            }
            let position_extra = (n - distinct_words) as u64;

            // Lock conflicts: distinct words mapping to the same lock.
            let mut locks = [(0usize, 0usize); MAX_LANES]; // (lock, word)
            let mut ln = 0;
            prev = usize::MAX;
            for &a in s.iter() {
                if a != prev {
                    locks[ln] = (a % self.dev.num_locks, a);
                    ln += 1;
                    prev = a;
                }
            }
            let ls = &mut locks[..ln];
            ls.sort_unstable();
            let mut lock_extra = 0u64;
            let mut run = 1usize;
            let mut max_lock_words = 1usize;
            for i in 1..ln {
                if ls[i].0 == ls[i - 1].0 {
                    run += 1;
                    lock_extra += 1;
                    max_lock_words = max_lock_words.max(run);
                } else {
                    run = 1;
                }
            }

            // Bank degree (atomics flow through the banks too).
            let addrs: LaneAddrs = ops.map(|w| w.map(|(a, _)| a));
            let (bank_deg, bank_extra) = if self.dev.local_mem_onchip {
                self.local_conflict_degree(&addrs)
            } else {
                (1, 0)
            };

            self.counters.position_conflicts += position_extra;
            self.counters.lock_conflicts += lock_extra;
            self.counters.bank_conflicts += bank_extra;

            // Total serialisation degree: worst lock queue (which includes
            // every lane on the worst word plus other words on that lock)
            // or worst bank queue.
            let lock_deg = max_word_deg.max(max_lock_words + max_word_deg.saturating_sub(1));
            let degree = lock_deg.max(bank_deg) as f64;
            if self.dev.local_mem_onchip {
                // Atomics hold the bank/lock for a full read-modify-write:
                // conflicts cost pipeline *throughput*, not just latency.
                self.counters.local_port_cycles += degree * self.dev.lat_atomic_rmw;
                *self.chain_cycles += self.dev.lat_local_atomic * degree;
            } else {
                // Emulated local memory: atomic costs a DRAM round trip.
                self.counters.dram_bytes += self.dev.transaction_bytes as f64;
                *self.chain_cycles += self.dev.lat_local_atomic * degree;
            }
        }
        let mut tamper =
            self.fault.and_then(|f| f.on_local_atomic(self.wg_id, self.warp_id));
        ops.map(|w| {
            w.map_or(0, |(addr, v)| match tamper.take() {
                None => self.local.or(addr, v),
                Some(AtomicTamper::Drop) => self.local.read(addr),
                Some(AtomicTamper::Duplicate) => self.local.or(addr, v) | v,
            })
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarpStatus {
    Running,
    AtBarrier,
    Done,
}

struct WarpRt<S> {
    state: S,
    status: WarpStatus,
    chain_cycles: f64,
    steps: u64,
}

struct WgRt<S> {
    wg_id: usize,
    warps: Vec<WarpRt<S>>,
    local: LocalMem,
}

/// Execute `kernel` on `dev` over `global` memory and return its stats.
///
/// # Errors
/// [`LaunchError::Infeasible`] when the kernel's resources cannot fit the
/// device at all.
pub fn launch<K: Kernel>(
    dev: &DeviceSpec,
    global: &GlobalMem,
    kernel: &K,
) -> Result<KernelStats, LaunchError> {
    launch_with_faults(dev, global, kernel, None)
}

/// [`launch`] with an optional armed [`FaultPlan`]: atomic-flag tampering
/// and local-memory corruption are applied in flight; a planned abort
/// surfaces as [`LaunchError::Aborted`] with device memory left in whatever
/// partially transposed state the kernel reached.
///
/// # Errors
/// [`LaunchError::Infeasible`] for infeasible launches,
/// [`LaunchError::Aborted`] when the fault plan kills the kernel.
pub fn launch_with_faults<K: Kernel>(
    dev: &DeviceSpec,
    global: &GlobalMem,
    kernel: &K,
    fault: Option<&FaultPlan>,
) -> Result<KernelStats, LaunchError> {
    launch_traced(dev, global, kernel, fault.map(|f| f as &dyn FaultSource), &NoopRecorder, 0.0)
}

/// [`launch_with_faults`] instrumented with a [`Recorder`].
///
/// `t0_s` is the launch's start on the cumulative DES clock (seconds); the
/// kernel span, sampled per-warp spans, and every typed counter land on the
/// recorder under the kernel's name. With [`NoopRecorder`] this
/// monomorphizes to exactly the uninstrumented engine — [`launch`] and
/// [`launch_with_faults`] are thin wrappers over this function.
///
/// Per-warp spans are a *sample*: the first [`WARP_SPAN_CAP`] retired warps
/// get a span (start `t0_s`, duration = that warp's dependent-chain cycles
/// at the device clock — warps run concurrently, so they share the start);
/// the remainder are counted in [`Counter::DroppedWarpSpans`].
///
/// # Errors
/// [`LaunchError::Infeasible`] for infeasible launches,
/// [`LaunchError::Aborted`] when the fault plan kills the kernel.
pub fn launch_traced<K: Kernel, R: Recorder>(
    dev: &DeviceSpec,
    global: &GlobalMem,
    kernel: &K,
    fault: Option<&dyn FaultSource>,
    rec: &R,
    t0_s: f64,
) -> Result<KernelStats, LaunchError> {
    launch_configured(
        dev,
        global,
        kernel,
        LaunchConfig { fault, sched: None, watchdog: None, engine: EngineMode::Serial },
        rec,
        t0_s,
    )
}

/// Optional engine extensions for one launch.
///
/// The default configuration (all `None`) is exactly the historic engine:
/// round-robin schedule, no faults, no watchdog.
#[derive(Default)]
pub struct LaunchConfig<'a> {
    /// Fault source consulted at every injection site — a single-shot
    /// [`FaultPlan`] or a sustained [`ChaosPlan`](crate::fault::ChaosPlan).
    pub fault: Option<&'a dyn FaultSource>,
    /// Warp scheduler. `None` uses the built-in round-robin fast path,
    /// which is bit-identical to scheduling with
    /// [`RoundRobin`](crate::sched::RoundRobin).
    pub sched: Option<&'a mut dyn Scheduler>,
    /// Liveness watchdog converting hung launches into
    /// [`LaunchError::Stalled`].
    pub watchdog: Option<Watchdog>,
    /// Host execution engine. [`EngineMode::Parallel`] only takes effect for
    /// [`Coordination::WgLocal`] and [`Coordination::CrossWgClaims`] kernels
    /// launched with no custom scheduler, fault source, or watchdog;
    /// everything else falls back to serial.
    pub engine: EngineMode,
}

/// The fully configurable engine entry: [`launch_traced`] plus an optional
/// [`Scheduler`] controlling the warp interleaving and an optional
/// [`Watchdog`] bounding progress.
///
/// # Errors
/// [`LaunchError::Infeasible`] for infeasible launches,
/// [`LaunchError::Aborted`] when the fault source kills the kernel,
/// [`LaunchError::Stalled`] when the watchdog trips.
#[allow(clippy::too_many_lines)]
pub fn launch_configured<K: Kernel, R: Recorder>(
    dev: &DeviceSpec,
    global: &GlobalMem,
    kernel: &K,
    mut cfg: LaunchConfig<'_>,
    rec: &R,
    t0_s: f64,
) -> Result<KernelStats, LaunchError> {
    let fault = cfg.fault;
    let watchdog = cfg.watchdog;
    if let Some(f) = fault {
        f.set_context(&kernel.name());
    }
    let grid = kernel.grid();
    assert!(grid.num_wgs > 0 && grid.wg_size > 0, "empty grid");
    let res = KernelResources {
        wg_size: grid.wg_size,
        regs_per_thread: kernel.regs_per_thread(),
        local_mem_per_wg: kernel.local_mem_words(dev) * 4,
    };
    let occ = occupancy(dev, &res);
    if !occ.feasible() {
        return Err(LaunchError::Infeasible {
            why: format!(
                "wg_size={} regs/thread={} local={}B on {}",
                res.wg_size, res.regs_per_thread, res.local_mem_per_wg, dev.name
            ),
        });
    }

    let warps_per_wg = dev.warps_per_wg(grid.wg_size);
    let resident_cap = (occ.wgs_per_sm * dev.num_sms).max(1);

    // Parallel work-group engine: only for kernels whose coordination class
    // admits deterministic merging, and only for plain launches (any
    // scheduler, fault source, or watchdog pins the launch to the serial
    // engine so the cross-WG interleaving those features observe stays
    // canonical).
    if matches!(cfg.engine, EngineMode::Parallel { .. })
        && cfg.sched.is_none()
        && fault.is_none()
        && watchdog.is_none()
    {
        let threads = cfg.engine.resolved_threads();
        match kernel.coordination() {
            // Independent work-groups: run them concurrently as-is.
            Coordination::WgLocal => {
                return Ok(launch_parallel(
                    dev,
                    global,
                    kernel,
                    grid,
                    occ,
                    warps_per_wg,
                    resident_cap,
                    threads,
                    rec,
                    t0_s,
                    None,
                ));
            }
            // Claim-coordinated work-groups: snapshot the pre-launch image,
            // resolve every claim serially (cost-free control replay), then
            // run the work-groups concurrently against the outcome scripts.
            Coordination::CrossWgClaims => {
                let snapshot = global.snapshot_words();
                let oracle = control_replay(dev, global, kernel, grid, warps_per_wg, resident_cap);
                let plan = MergeablePlan { oracle, snapshot };
                return Ok(launch_parallel(
                    dev,
                    global,
                    kernel,
                    grid,
                    occ,
                    warps_per_wg,
                    resident_cap,
                    threads,
                    rec,
                    t0_s,
                    Some(&plan),
                ));
            }
            // Arbitrary cross-WG coordination: serial engine below.
            Coordination::CrossWg => {}
        }
    }

    let mut counters = Counters::default();
    let mut max_chain: f64 = 0.0;
    let mut total_chain: f64 = 0.0;

    let make_wg = |wg_id: usize| -> WgRt<K::State> {
        WgRt {
            wg_id,
            warps: (0..warps_per_wg)
                .map(|w| WarpRt {
                    state: kernel.init(wg_id, w),
                    status: WarpStatus::Running,
                    chain_cycles: 0.0,
                    steps: 0,
                })
                .collect(),
            local: LocalMem::new(kernel.local_mem_words(dev)),
        }
    };

    let mut next_wg = 0usize;
    let mut active: Vec<WgRt<K::State>> = Vec::with_capacity(resident_cap.min(grid.num_wgs));
    while next_wg < grid.num_wgs && active.len() < resident_cap {
        active.push(make_wg(next_wg));
        next_wg += 1;
    }

    // Sampled per-warp spans: (wg_id, warp_id, chain_cycles) of the first
    // WARP_SPAN_CAP retired warps.
    let mut warp_samples: Vec<(usize, usize, f64)> = Vec::new();
    let mut dropped_warp_spans: u64 = 0;

    // One warp scheduling slice: warp-step accounting, watchdog, fault
    // hooks, the kernel step itself, and status bookkeeping. Returns
    // whether the slice performed a coordination touchpoint (atomic or
    // barrier) — the preemption points schedule exploration keys on.
    let step_one =
        |wg: &mut WgRt<K::State>, w: usize, counters: &mut Counters| -> Result<bool, LaunchError> {
            counters.warp_steps += 1;
            wg.warps[w].steps += 1;
            if let Some(wd) = watchdog {
                if wg.warps[w].steps > wd.max_steps_per_warp
                    || counters.warp_steps > wd.max_total_steps
                {
                    return Err(LaunchError::Stalled {
                        kernel: kernel.name(),
                        lane: wg.wg_id * warps_per_wg + w,
                        steps: wg.warps[w].steps,
                    });
                }
            }
            if let Some(f) = fault {
                match f.on_warp_step(wg.wg_id, w) {
                    StepFault::None => {}
                    StepFault::Abort => {
                        return Err(LaunchError::Aborted {
                            kernel: kernel.name(),
                            after_steps: counters.warp_steps,
                        })
                    }
                    StepFault::CorruptLocal(garbage) => {
                        let len = wg.local.len();
                        if len > 0 {
                            wg.local.write(f.corrupt_index(len), garbage);
                        }
                    }
                }
            }
            let touch_before = counters.local_atomics + counters.global_atomics + counters.barriers;
            let step = exec_slice(dev, global, kernel, grid, fault, wg, w, counters, None);
            let touched = step == Step::Barrier
                || counters.local_atomics + counters.global_atomics + counters.barriers
                    != touch_before;
            Ok(touched)
        };

    let mut rounds: u64 = 0;
    // Scheduled-path round snapshots, hoisted out of the loop so the hot
    // path reuses the allocations across rounds.
    let mut pending: Vec<(usize, usize)> = Vec::new();
    let mut ids: Vec<WarpId> = Vec::new();
    while !active.is_empty() {
        rounds += 1;
        match cfg.sched.as_deref_mut() {
            // Fast path: the historic schedule — each live warp steps once
            // per round, canonical (work-group slot, warp index) order.
            None => {
                for wg in active.iter_mut() {
                    for w in 0..wg.warps.len() {
                        if wg.warps[w].status != WarpStatus::Running {
                            continue;
                        }
                        step_one(wg, w, &mut counters)?;
                    }
                    release_wg(dev, wg, &mut counters);
                }
            }
            // Scheduled path: snapshot the round's runnable warps, then let
            // the scheduler step or defer each. A warp released from a
            // barrier mid-round is not in the snapshot and resumes next
            // round — the same semantics as the fast path. Every pending
            // warp stays Running until its own slice (releases only affect
            // AtBarrier warps), so the snapshot never goes stale.
            Some(sched) => {
                pending.clear();
                ids.clear();
                for (slot, wg) in active.iter().enumerate() {
                    for w in 0..wg.warps.len() {
                        if wg.warps[w].status == WarpStatus::Running {
                            pending.push((slot, w));
                            ids.push(WarpId { wg: wg.wg_id, warp: w });
                        }
                    }
                }
                sched.begin_round(&ids);
                let mut stepped_any = false;
                while !pending.is_empty() {
                    let (idx, do_step) = match sched.pick(&ids) {
                        Pick::Step(i) => (i.min(pending.len() - 1), true),
                        Pick::Skip(i) => (i.min(pending.len() - 1), false),
                    };
                    let (slot, w) = pending.remove(idx);
                    let id = ids.remove(idx);
                    if !do_step {
                        continue;
                    }
                    let touched = step_one(&mut active[slot], w, &mut counters)?;
                    stepped_any = true;
                    sched.note_step(id, touched);
                    release_wg(dev, &mut active[slot], &mut counters);
                }
                if !stepped_any {
                    // Forced progress: a scheduler that defers every warp
                    // cannot hang the launch — the first runnable warp in
                    // canonical order steps anyway.
                    let mut forced = None;
                    'find: for (slot, wg) in active.iter().enumerate() {
                        for w in 0..wg.warps.len() {
                            if wg.warps[w].status == WarpStatus::Running {
                                forced = Some((slot, w, wg.wg_id));
                                break 'find;
                            }
                        }
                    }
                    if let Some((slot, w, wg_id)) = forced {
                        let touched = step_one(&mut active[slot], w, &mut counters)?;
                        sched.note_step(WarpId { wg: wg_id, warp: w }, touched);
                        release_wg(dev, &mut active[slot], &mut counters);
                    }
                }
            }
        }
        // Retire finished WGs, admit pending ones.
        let mut i = 0;
        while i < active.len() {
            if active[i].warps.iter().all(|w| w.status == WarpStatus::Done) {
                let mut wg = active.swap_remove(i);
                for (wi, w) in wg.warps.iter().enumerate() {
                    total_chain += w.chain_cycles;
                    max_chain = max_chain.max(w.chain_cycles);
                    if rec.enabled() {
                        if warp_samples.len() < WARP_SPAN_CAP {
                            warp_samples.push((wg.wg_id, wi, w.chain_cycles));
                        } else {
                            dropped_warp_spans += 1;
                        }
                    }
                }
                if next_wg < grid.num_wgs {
                    // Reuse the retired WG's local memory *and* warp-state
                    // allocations (grids can have millions of small
                    // work-groups — re-admission must not reallocate).
                    reset_wg(kernel, dev, warps_per_wg, &mut wg, next_wg);
                    active.push(wg);
                    next_wg += 1;
                }
            } else {
                i += 1;
            }
        }
    }

    Ok(finish_launch(
        dev,
        kernel.name(),
        grid,
        occ,
        &counters,
        rounds,
        total_chain,
        max_chain,
        &warp_samples,
        dropped_warp_spans,
        rec,
        t0_s,
    ))
}

/// One warp scheduling slice's engine core — build the [`WarpCtx`], run
/// [`Kernel::step`], record the resulting status. Shared verbatim by the
/// serial engine (which wraps it with watchdog/fault handling) and the
/// parallel per-work-group runner, so both execute kernels through exactly
/// the same code.
#[allow(clippy::too_many_arguments)]
fn exec_slice<K: Kernel>(
    dev: &DeviceSpec,
    global: &GlobalMem,
    kernel: &K,
    grid: Grid,
    fault: Option<&dyn FaultSource>,
    wg: &mut WgRt<K::State>,
    w: usize,
    counters: &mut Counters,
    replay: Option<ClaimReplay<'_>>,
) -> Step {
    let lanes = (grid.wg_size - w * dev.simd_width).min(dev.simd_width);
    let warp = &mut wg.warps[w];
    let mut ctx = WarpCtx {
        wg_id: wg.wg_id,
        warp_id: w,
        lanes,
        wg_size: grid.wg_size,
        num_wgs: grid.num_wgs,
        dev,
        global,
        local: &mut wg.local,
        counters,
        chain_cycles: &mut warp.chain_cycles,
        fault,
        replay,
    };
    let step = kernel.step(&mut warp.state, &mut ctx);
    match step {
        Step::Continue => {}
        Step::Barrier => warp.status = WarpStatus::AtBarrier,
        Step::Done => warp.status = WarpStatus::Done,
    }
    step
}

/// Barrier release: no warp of the group still running → all waiters
/// resume. Safe to check after every slice — it only fires once the
/// group's last running warp stops.
fn release_wg<S>(dev: &DeviceSpec, wg: &mut WgRt<S>, counters: &mut Counters) {
    if wg.warps.iter().all(|w| w.status != WarpStatus::Running) {
        let waiting = wg.warps.iter().filter(|w| w.status == WarpStatus::AtBarrier).count();
        if waiting > 0 {
            counters.barriers += 1;
            for w in wg.warps.iter_mut() {
                if w.status == WarpStatus::AtBarrier {
                    w.status = WarpStatus::Running;
                    w.chain_cycles += dev.lat_barrier;
                }
            }
        }
    }
}

/// Re-initialise a work-group runtime in place for `wg_id`, reusing its
/// warp-state and local-memory allocations.
fn reset_wg<K: Kernel>(
    kernel: &K,
    dev: &DeviceSpec,
    warps_per_wg: usize,
    wg: &mut WgRt<K::State>,
    wg_id: usize,
) {
    wg.wg_id = wg_id;
    wg.local.resize(kernel.local_mem_words(dev));
    wg.warps.clear();
    wg.warps.extend((0..warps_per_wg).map(|w| WarpRt {
        state: kernel.init(wg_id, w),
        status: WarpStatus::Running,
        chain_cycles: 0.0,
        steps: 0,
    }));
}

/// The serial **control replay** (phase one of the two-phase
/// [`Coordination::CrossWgClaims`] engine): replicate the serial fast path's
/// loop skeleton exactly — residency-capped admission, each live warp once
/// per round in canonical (work-group slot, warp index) order, per-WG
/// barrier release, swap-remove retirement — but drive
/// [`Kernel::control_step`] instead of [`Kernel::step`]: no data movement,
/// no local memory, no cost accounting. The claim ops resolve against live
/// memory in this canonical order, so the recorded per-warp outcome scripts
/// are exactly the outcomes the serial engine would have produced; the
/// claim-flag ORs it applies are re-applied idempotently by the replay
/// phase, so no memory restore is needed.
fn control_replay<K: Kernel>(
    dev: &DeviceSpec,
    global: &GlobalMem,
    kernel: &K,
    grid: Grid,
    warps_per_wg: usize,
    resident_cap: usize,
) -> MergeableOracle {
    struct CtrlWarp<S> {
        state: S,
        status: WarpStatus,
    }
    struct CtrlWg<S> {
        wg_id: usize,
        warps: Vec<CtrlWarp<S>>,
    }
    let num_wgs = grid.num_wgs;
    let mut scripts: Vec<Vec<bool>> = Vec::new();
    scripts.resize_with(num_wgs * warps_per_wg, Vec::new);
    let make_wg = |wg_id: usize| CtrlWg {
        wg_id,
        warps: (0..warps_per_wg)
            .map(|w| CtrlWarp { state: kernel.init(wg_id, w), status: WarpStatus::Running })
            .collect(),
    };
    let mut next_wg = 0usize;
    let mut active: Vec<CtrlWg<K::State>> = Vec::with_capacity(resident_cap.min(num_wgs));
    while next_wg < num_wgs && active.len() < resident_cap {
        active.push(make_wg(next_wg));
        next_wg += 1;
    }
    let mut total_steps = 0u64;
    while !active.is_empty() {
        for wg in active.iter_mut() {
            for w in 0..wg.warps.len() {
                if wg.warps[w].status != WarpStatus::Running {
                    continue;
                }
                total_steps += 1;
                let lanes = (grid.wg_size - w * dev.simd_width).min(dev.simd_width);
                let mut ctx = ControlCtx {
                    wg_id: wg.wg_id,
                    warp_id: w,
                    lanes,
                    wg_size: grid.wg_size,
                    num_wgs,
                    dev,
                    global,
                    script: &mut scripts[wg.wg_id * warps_per_wg + w],
                };
                match kernel.control_step(&mut wg.warps[w].state, &mut ctx) {
                    Step::Continue => {}
                    Step::Barrier => wg.warps[w].status = WarpStatus::AtBarrier,
                    Step::Done => wg.warps[w].status = WarpStatus::Done,
                }
            }
            // Cost-free barrier release, same condition as `release_wg`.
            if wg.warps.iter().all(|w| w.status != WarpStatus::Running) {
                for w in wg.warps.iter_mut() {
                    if w.status == WarpStatus::AtBarrier {
                        w.status = WarpStatus::Running;
                    }
                }
            }
        }
        // Retire finished WGs, admit pending ones — swap-remove plus
        // push-to-back, so later admissions interleave their claims exactly
        // as in the serial engine.
        let mut i = 0;
        while i < active.len() {
            if active[i].warps.iter().all(|w| w.status == WarpStatus::Done) {
                active.swap_remove(i);
                if next_wg < num_wgs {
                    active.push(make_wg(next_wg));
                    next_wg += 1;
                }
            } else {
                i += 1;
            }
        }
    }
    MergeableOracle { scripts, total_steps }
}

/// What one isolated work-group run reports back to the merge step.
struct WgOut {
    /// Scheduling rounds this WG needed from admission to retirement (≥ 1).
    rounds: u64,
    /// This WG's share of every engine counter.
    counters: Counters,
    /// Final dependent-chain cycles per warp, in warp-index order.
    warp_chains: Vec<f64>,
}

/// Run one work-group to completion in isolation (no fault source, no
/// watchdog — the parallel-eligibility gate guarantees neither is armed).
///
/// For a [`Coordination::WgLocal`] kernel this is step-for-step identical to
/// what the work-group executes inside the serial round-robin engine: the
/// serial fast path steps each WG's live warps in warp order once per round
/// and releases its barriers per round, and nothing a *different* WG does in
/// between can be observed (no shared global words, private local memory,
/// and the global `warp_steps` count is invisible to kernels).
///
/// With `replay` (a [`Coordination::CrossWgClaims`] launch) the same
/// argument holds because the only cross-WG observables — claim outcomes
/// and functional data reads — are replayed from the oracle script and the
/// pre-launch snapshot; per-warp cursors are checked against the script
/// lengths on retirement, so a `control_step`/`step` divergence fails loud.
#[allow(clippy::too_many_arguments)]
fn run_wg_isolated<K: Kernel>(
    dev: &DeviceSpec,
    global: &GlobalMem,
    kernel: &K,
    grid: Grid,
    warps_per_wg: usize,
    wg_id: usize,
    scratch: &mut WgRt<K::State>,
    replay: Option<&WgReplay<'_>>,
) -> WgOut {
    reset_wg(kernel, dev, warps_per_wg, scratch, wg_id);
    let mut counters = Counters::default();
    let mut cursors = vec![0usize; if replay.is_some() { warps_per_wg } else { 0 }];
    let mut rounds = 0u64;
    while scratch.warps.iter().any(|w| w.status != WarpStatus::Done) {
        rounds += 1;
        // Index loop: `cursors[w]` is borrowed mutably per-iteration next
        // to `scratch.warps[w]`, which an iterator chain cannot express.
        #[allow(clippy::needless_range_loop)]
        for w in 0..warps_per_wg {
            if scratch.warps[w].status != WarpStatus::Running {
                continue;
            }
            counters.warp_steps += 1;
            scratch.warps[w].steps += 1;
            let rep = replay.map(|r| ClaimReplay {
                script: &r.scripts[w],
                cursor: &mut cursors[w],
                snapshot: r.snapshot,
            });
            exec_slice(dev, global, kernel, grid, None, scratch, w, &mut counters, rep);
        }
        release_wg(dev, scratch, &mut counters);
    }
    if let Some(r) = replay {
        for (w, &cur) in cursors.iter().enumerate() {
            assert_eq!(
                cur,
                r.scripts[w].len(),
                "claim script underrun in wg {wg_id} warp {w}: control_step diverged from step"
            );
        }
    }
    WgOut {
        rounds,
        counters,
        warp_chains: scratch.warps.iter().map(|w| w.chain_cycles).collect(),
    }
}

/// Slot replay: reconstruct the serial engine's global round count and
/// swap-remove retirement order from the per-WG isolated round counts
/// without re-executing anything.
fn slot_replay(outs: &[WgOut], resident_cap: usize, num_wgs: usize) -> (u64, Vec<usize>) {
    let initial = resident_cap.min(num_wgs);
    let mut slots: Vec<usize> = (0..initial).collect();
    let mut remaining: Vec<u64> = slots.iter().map(|&g| outs[g].rounds).collect();
    let mut next_wg = initial;
    let mut retire_order: Vec<usize> = Vec::with_capacity(num_wgs);
    let mut rounds: u64 = 0;
    while !slots.is_empty() {
        rounds += 1;
        for r in remaining.iter_mut() {
            *r -= 1;
        }
        let mut i = 0;
        while i < slots.len() {
            if remaining[i] == 0 {
                retire_order.push(slots[i]);
                slots.swap_remove(i);
                remaining.swap_remove(i);
                if next_wg < num_wgs {
                    slots.push(next_wg);
                    remaining.push(outs[next_wg].rounds);
                    next_wg += 1;
                }
            } else {
                i += 1;
            }
        }
    }
    (rounds, retire_order)
}

/// The parallel work-group engine: run every work-group in isolation on a
/// `threads`-wide rayon pool, in chunks of about `num_wgs / (threads·8)`
/// work-groups, then deterministically reconstruct exactly what the serial
/// round-robin engine would have produced:
///
/// * **Memory image** — WgLocal work-groups write disjoint global words, so
///   execution order cannot change the final image. CrossWgClaims
///   work-groups write each data position at most once (claim winners are
///   fixed by the oracle) and their flag-word `atom_or`s are commutative
///   and idempotent, so again order cannot change the image.
/// * **Counters** — merged from per-WG subtotals in canonical wg order; all
///   f64 counter increments are integer-valued (see [`Counters::merge`]), so
///   the regrouped sums are bit-exact.
/// * **Round count and retirement order** — replayed over residency
///   *slots*: each WG occupies a slot for its isolated round count `R_g`
///   (its per-round behaviour depends only on itself — for CrossWgClaims
///   because its claim outcomes come from the script, so its isolated run
///   steps exactly as it did inside the control replay), reproducing the
///   serial engine's `rounds`, its swap-remove retire order (which orders
///   `total_chain_cycles` accumulation and warp-span sampling), and its
///   sequential admissions.
#[allow(clippy::too_many_arguments)]
fn launch_parallel<K: Kernel, R: Recorder>(
    dev: &DeviceSpec,
    global: &GlobalMem,
    kernel: &K,
    grid: Grid,
    occ: Occupancy,
    warps_per_wg: usize,
    resident_cap: usize,
    threads: usize,
    rec: &R,
    t0_s: f64,
    mergeable: Option<&MergeablePlan>,
) -> KernelStats {
    let num_wgs = grid.num_wgs;
    let empty_scratch = || WgRt::<K::State> { wg_id: 0, warps: Vec::new(), local: LocalMem::new(0) };
    let wg_replay = |g: usize| {
        mergeable.map(|p| WgReplay {
            snapshot: &p.snapshot,
            scripts: &p.oracle.scripts[g * warps_per_wg..(g + 1) * warps_per_wg],
        })
    };
    let mut outs: Vec<Option<WgOut>> = Vec::new();
    outs.resize_with(num_wgs, || None);
    // Engage atomic RMWs for the duration of multi-threaded stepping
    // (CrossWgClaims replays genuinely race on the flag words — the
    // re-applied `fetch_or`s are what keeps the final flag image identical
    // to serial).
    global.set_parallel(threads > 1 && num_wgs > 1);
    let chunk = num_wgs.div_ceil(threads * 8).max(1);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("a fixed-width pool builds");
    pool.install(|| {
        outs.par_chunks_mut(chunk).enumerate().for_each_init(
            empty_scratch,
            |scratch, (ci, slice)| {
                for (off, slot) in slice.iter_mut().enumerate() {
                    let g = ci * chunk + off;
                    *slot = Some(run_wg_isolated(
                        dev,
                        global,
                        kernel,
                        grid,
                        warps_per_wg,
                        g,
                        scratch,
                        wg_replay(g).as_ref(),
                    ));
                }
            },
        );
    });
    global.set_parallel(false);
    let outs: Vec<WgOut> = outs.into_iter().map(|o| o.expect("every WG ran")).collect();

    // Canonical-order counter merge.
    let mut counters = Counters::default();
    for o in &outs {
        debug_assert!(o.rounds >= 1);
        counters.merge(&o.counters);
    }

    // The total-step cross-check catches any control/step divergence that
    // happened to keep every per-warp script length intact.
    if let Some(p) = mergeable {
        assert_eq!(
            counters.warp_steps, p.oracle.total_steps,
            "replayed warp steps diverged from the control replay"
        );
    }
    let (rounds, retire_order) = slot_replay(&outs, resident_cap, num_wgs);

    // Chain totals and span sampling in exact serial retirement order, so
    // even non-integer chain cycles accumulate bit-identically.
    let mut total_chain: f64 = 0.0;
    let mut max_chain: f64 = 0.0;
    let mut warp_samples: Vec<(usize, usize, f64)> = Vec::new();
    let mut dropped_warp_spans: u64 = 0;
    for &g in &retire_order {
        for (wi, &chain) in outs[g].warp_chains.iter().enumerate() {
            total_chain += chain;
            max_chain = max_chain.max(chain);
            if rec.enabled() {
                if warp_samples.len() < WARP_SPAN_CAP {
                    warp_samples.push((g, wi, chain));
                } else {
                    dropped_warp_spans += 1;
                }
            }
        }
    }

    finish_launch(
        dev,
        kernel.name(),
        grid,
        occ,
        &counters,
        rounds,
        total_chain,
        max_chain,
        &warp_samples,
        dropped_warp_spans,
        rec,
        t0_s,
    )
}

/// The launch epilogue shared bit-for-bit by the serial and parallel
/// engines: the four-bound time model, [`KernelStats`] assembly, and trace
/// recording.
#[allow(clippy::too_many_arguments)]
fn finish_launch<R: Recorder>(
    dev: &DeviceSpec,
    name: String,
    grid: Grid,
    occ: Occupancy,
    counters: &Counters,
    rounds: u64,
    total_chain: f64,
    max_chain: f64,
    warp_samples: &[(usize, usize, f64)],
    dropped_warp_spans: u64,
    rec: &R,
    t0_s: f64,
) -> KernelStats {
    // ---- time model ----
    let clock_hz = dev.clock_ghz * 1e9;
    // Concurrency actually sustained: average live warps per scheduling
    // round, never more than the device can hold resident. This discounts
    // idle helper warps (they stop stepping immediately) and short grids.
    let resident_warps = (occ.warps_per_sm * dev.num_sms) as f64;
    let avg_live = (counters.warp_steps as f64 / rounds.max(1) as f64).max(1.0);
    let overlap = avg_live.min(resident_warps).max(1.0);
    // Bandwidth saturation follows the *achieved* warp concurrency: a
    // launch that keeps only a sliver of the device busy cannot stream at
    // peak (the paper's "minimum recommended 50 % occupancy").
    let achieved_occ =
        (overlap / (dev.num_sms * dev.max_warps_per_sm) as f64).min(occ.occupancy);
    let bw_scale = (achieved_occ / dev.bw_saturation_occupancy).clamp(0.02, 1.0);
    let bandwidth_s =
        counters.dram_bytes / (dev.peak_gbps * 1e9 * dev.dram_efficiency * bw_scale);
    let latency_s = total_chain / overlap / clock_hz;
    let serial_s = max_chain / clock_hz;
    let local_port_s = counters.local_port_cycles / dev.num_sms as f64 / clock_hz;
    let bounds = TimeBounds { bandwidth_s, latency_s, serial_s, local_port_s };

    let stats = KernelStats {
        name,
        num_wgs: grid.num_wgs,
        wg_size: grid.wg_size,
        occupancy: occ,
        time_s: bounds.max(),
        bounds,
        dram_bytes: counters.dram_bytes,
        useful_bytes: counters.useful_bytes,
        gld_transactions: counters.gld_transactions,
        gst_transactions: counters.gst_transactions,
        local_accesses: counters.local_accesses,
        local_atomics: counters.local_atomics,
        global_atomics: counters.global_atomics,
        position_conflicts: counters.position_conflicts,
        lock_conflicts: counters.lock_conflicts,
        bank_conflicts: counters.bank_conflicts,
        claim_retries: counters.claim_retries,
        barriers: counters.barriers,
        warp_steps: counters.warp_steps,
        total_chain_cycles: total_chain,
        max_chain_cycles: max_chain,
    };

    if rec.enabled() {
        stats.record(rec, t0_s);
        let t0_us = t0_s * 1e6;
        for (i, &(wg_id, warp_id, chain)) in warp_samples.iter().enumerate() {
            // Warps run concurrently: all sampled spans share the launch
            // start; duration is the warp's own dependent chain. Spread
            // across 8 display tracks so overlaps stay readable.
            let track = Level::Warp.base_track() + (i % 8) as u32;
            rec.span(
                Level::Warp,
                &format!("wg{wg_id}.w{warp_id}"),
                t0_us,
                chain / clock_hz * 1e6,
                track,
                &[("chain_cycles", chain)],
            );
        }
        if dropped_warp_spans > 0 {
            rec.add(&stats.name, Counter::DroppedWarpSpans, dropped_warp_spans);
        }
    }

    stats
}
