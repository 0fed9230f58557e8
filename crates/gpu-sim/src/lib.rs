//! # gpu-sim — a SIMT execution simulator for memory-system studies
//!
//! The substrate on which this workspace reproduces the PPoPP'14 in-place
//! transposition paper without GPU hardware. Kernels are written in
//! warp-vector style against [`exec::WarpCtx`]; they **functionally
//! execute** over [`mem::GlobalMem`] (results are bit-exact and verified
//! against references) while the engine accounts the memory-system costs the
//! paper's evaluation hinges on:
//!
//! * DRAM coalescing (transaction counting per warp instruction),
//! * local-memory **bank conflicts**, atomic **position conflicts** and
//!   **lock conflicts** (Gómez-Luna et al. model, §5.1 of the paper),
//! * occupancy (warp slots / WG slots / registers / local memory),
//! * a four-bound time model (bandwidth, latency, serial chain, local port),
//! * command queues + PCIe discrete-event timeline for the §6/§7.6
//!   asynchronous execution scheme.
//!
//! Nothing here knows about transposition: this crate is a generic little
//! accelerator simulator; the paper's kernels live in `ipt-gpu`.

// One audited unsafe block exists: `mem::zeroed_atomic_words` reinterprets a
// bulk-zeroed `Vec<u32>` as `Vec<AtomicU32>`. Everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod device;
pub mod exec;
pub mod fault;
pub mod lanes;
pub mod mem;
pub mod occupancy;
pub mod queue;
pub mod report;
pub mod sched;
pub mod sim;

pub use device::{Arch, DeviceSpec, PcieSpec};
pub use exec::{
    launch_configured, Coordination, EngineMode, Grid, Kernel, LaunchConfig, LaunchError, Step,
    WarpCtx, WARP_SPAN_CAP,
};
pub use fault::{
    AtomicTamper, ChaosConfig, ChaosPlan, FaultKind, FaultPlan, FaultRecord, FaultSource,
    StepFault,
};
pub use lanes::{LaneAddrs, LaneVals, LaneWrites, Lanes, MAX_LANES};
pub use mem::{Buffer, GlobalMem, LocalMem, MemTraffic, TrafficSnapshot};
pub use occupancy::{occupancy, KernelResources, Limiter, Occupancy};
pub use queue::{simulate, simulate_device, Cmd, EngineCrash, QueueError, Span, Timeline};
pub use report::{KernelStats, PipelineStats, TimeBounds};
pub use sched::{
    explore, ExploreConfig, ExploreOutcome, PctScheduler, Pick, RoundRobin, ScheduleFailure,
    Scheduler, TraceScheduler, Watchdog, WarpId,
};
pub use sim::{SchedPolicy, Sim};
