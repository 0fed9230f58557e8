//! Property: the pooled parallel simulation engine is *observably
//! indistinguishable* from the serial round-robin engine.
//!
//! For random shapes and every kernel family the engines must produce
//! byte-identical memory images, bit-identical [`KernelStats`] (simulated
//! times, conflict counters, claim retries, chain cycles — no epsilon), and
//! identical Chrome-trace span trees; thread count (1, 2, N) must not be
//! observable either. Work-group-local kernels run concurrently as-is;
//! the cross-work-group `100!` family (all three variants, fused and
//! backoff paths included) runs **natively parallel** through the
//! two-phase control replay and must still agree bit for bit.

use gpu_sim::{
    DeviceSpec, EngineMode, FaultKind, FaultPlan, KernelStats, SchedPolicy, Sim, Watchdog,
};
use ipt_core::InstancedTranspose;
use ipt_gpu::bs::BsKernel;
use ipt_gpu::c2r::{C2rLinePass, C2rPassKind};
use ipt_gpu::oop::OopTranspose;
use ipt_gpu::opts::{ClaimBackoff, FlagLayout, Variant100};
use ipt_gpu::pttwac010::Pttwac010;
use ipt_gpu::pttwac100::Pttwac100;
use ipt_obs::{chrome_trace_json, TraceRecorder};
use proptest::prelude::*;

/// Which kernel family the equivalence run drives.
#[derive(Debug, Clone, Copy)]
enum Fam {
    Bs,
    P010,
    C2rRotate,
    C2rRows,
    C2rCols,
    Oop,
    /// Cross-work-group claims, warp-local-tile variant: runs natively
    /// parallel through the control-replay engine.
    P100,
    /// `100!`, original Sung work-group-per-chain variant.
    P100Sung,
    /// `100!`, register-tiling variant.
    P100Reg,
    /// `100!` with fused per-super-element tile transposition.
    P100Fused,
    /// `100!` with claim-retry backoff (cooldown slices exercise the
    /// control twin's non-claiming path).
    P100Backoff,
}

const FAMS: [Fam; 11] = [
    Fam::Bs,
    Fam::P010,
    Fam::C2rRotate,
    Fam::C2rRows,
    Fam::C2rCols,
    Fam::Oop,
    Fam::P100,
    Fam::P100Sung,
    Fam::P100Reg,
    Fam::P100Fused,
    Fam::P100Backoff,
];

fn is_p100(fam: Fam) -> bool {
    matches!(fam, Fam::P100 | Fam::P100Sung | Fam::P100Reg | Fam::P100Fused | Fam::P100Backoff)
}

/// `100!` kernel configuration for a family: (variant, wg_size, super_size,
/// fuse_tile, backoff). `sup` scales the super-element size per family so
/// the proptest sweeps genuine `super_size` diversity.
fn p100_cfg(
    fam: Fam,
    sup: usize,
) -> (Variant100, usize, usize, Option<(usize, usize)>, Option<ClaimBackoff>) {
    match fam {
        Fam::P100 => (Variant100::WarpLocalTile, 256, sup, None, None),
        Fam::P100Sung => (Variant100::SungWorkGroup, 0, sup, None, None),
        // Resolve against the K20's SIMD width: an unaligned `sup` legally
        // downgrades to local tiling, exactly like production launches.
        Fam::P100Reg => (Variant100::WarpRegTile.resolve(sup, 32), 256, sup, None, None),
        Fam::P100Fused => (Variant100::WarpLocalTile, 256, 2 * sup, Some((2, sup)), None),
        Fam::P100Backoff => {
            (Variant100::WarpLocalTile, 256, sup, None, Some(ClaimBackoff::mild(13)))
        }
        _ => unreachable!("not a 100! family"),
    }
}

/// Everything an engine run can leak: final memory, the full stats report,
/// and the rendered Chrome trace (span tree, counters, metadata).
struct Observed {
    mem: Vec<u32>,
    stats: KernelStats,
    trace: String,
}

/// One traced execution of `fam` on `rows × cols` under `engine`.
fn run_under(
    fam: Fam,
    rows: usize,
    cols: usize,
    instances: usize,
    sup: usize,
    engine: EngineMode,
) -> Observed {
    let super_size = if is_p100(fam) { p100_cfg(fam, sup).2 } else { 1 };
    let op = InstancedTranspose::new(instances, rows, cols, super_size);
    let flag_words = Pttwac100::flag_words(instances * rows * cols);
    let mut sim =
        Sim::new(DeviceSpec::tesla_k20(), 2 * op.total_len() + flag_words + 8);
    sim.set_engine_mode(engine);
    let data = sim.alloc(op.total_len());
    sim.upload_u32(data, &(0..op.total_len() as u32).collect::<Vec<_>>());
    let rec = TraceRecorder::new();
    let stats = match fam {
        Fam::Bs => {
            let k = BsKernel { data, instances, rows, cols, super_size, wg_size: 64 };
            sim.launch_rec(&k, &rec, 0.0).expect("bs launch")
        }
        Fam::P010 => {
            let k = Pttwac010 {
                data,
                instances,
                rows,
                cols,
                wg_size: 64,
                flags: FlagLayout::Packed,
                backoff: None,
            };
            sim.launch_rec(&k, &rec, 0.0).expect("010 launch")
        }
        Fam::C2rRotate | Fam::C2rRows | Fam::C2rCols => {
            // C2R passes are WgLocal whatever the gcd, so the parallel
            // engine must cover them natively.
            let geom = ipt_core::C2rGeometry::new(rows, cols);
            let kind = match fam {
                Fam::C2rRotate => C2rPassKind::Rotate,
                Fam::C2rRows => C2rPassKind::RowShuffle,
                _ => C2rPassKind::ColShuffle,
            };
            let k = C2rLinePass::new(data, geom, kind, 64, &DeviceSpec::tesla_k20(), None);
            sim.launch_rec(&k, &rec, 0.0).expect("c2r launch")
        }
        Fam::Oop => {
            let dst = sim.alloc(op.total_len());
            let k = OopTranspose { src: data, dst, rows, cols };
            let stats = sim.launch_rec(&k, &rec, 0.0).expect("oop launch");
            // Observe the *destination* buffer for OOP.
            return Observed {
                mem: sim.download_u32(dst),
                stats,
                trace: chrome_trace_json(&rec),
            };
        }
        Fam::P100 | Fam::P100Sung | Fam::P100Reg | Fam::P100Fused | Fam::P100Backoff => {
            let (variant, wg_size, super_size, fuse_tile, backoff) = p100_cfg(fam, sup);
            let flags = sim.alloc(flag_words);
            sim.zero(flags);
            let k = Pttwac100 {
                data,
                flags,
                instances,
                rows,
                cols,
                super_size,
                variant,
                wg_size,
                fuse_tile,
                backoff,
            };
            sim.launch_rec(&k, &rec, 0.0).expect("100 launch")
        }
    };
    Observed { mem: sim.download_u32(data), stats, trace: chrome_trace_json(&rec) }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tentpole invariant: parallel engine ≡ serial engine, bit for bit,
    /// on every kernel family — memory, stats (incl. conflict counters,
    /// claim retries, and f64 chain cycles), and the whole trace. The
    /// `100!` families sweep variants × super_size × fusion × backoff
    /// through the control-replay engine.
    #[test]
    fn parallel_engine_is_bit_identical_to_serial(
        rows in 2usize..16,
        cols in 2usize..16,
        instances in 1usize..6,
        sup in 1usize..6,
    ) {
        for fam in FAMS {
            // C2R/OOP families ignore `instances` (single matrix);
            // the 100! families sweep it too (multi-instance claims).
            let inst = if matches!(fam, Fam::Bs | Fam::P010) || is_p100(fam) {
                instances
            } else {
                1
            };
            let serial = run_under(fam, rows, cols, inst, sup, EngineMode::Serial);
            let par =
                run_under(fam, rows, cols, inst, sup, EngineMode::Parallel { threads: 3 });
            prop_assert_eq!(
                &serial.mem, &par.mem,
                "{:?} {}x{}x{} sup={}: memory diverged", fam, inst, rows, cols, sup
            );
            prop_assert_eq!(
                &serial.stats, &par.stats,
                "{:?} {}x{}x{} sup={}: stats diverged", fam, inst, rows, cols, sup
            );
            prop_assert_eq!(
                &serial.trace, &par.trace,
                "{:?} {}x{}x{} sup={}: trace diverged", fam, inst, rows, cols, sup
            );
        }
    }

    /// Satellite invariant: the worker-thread count is unobservable —
    /// 1, 2, and N threads produce byte-identical memory, stats, and
    /// Chrome-trace span trees, for a WgLocal family and a CrossWgClaims
    /// family alike.
    #[test]
    fn thread_count_is_unobservable(
        rows in 2usize..14,
        cols in 2usize..14,
        instances in 2usize..8,
    ) {
        for fam in [Fam::Bs, Fam::P100Backoff] {
            let base =
                run_under(fam, rows, cols, instances, 3, EngineMode::Parallel { threads: 1 });
            for threads in [2usize, 7] {
                let other = run_under(
                    fam, rows, cols, instances, 3, EngineMode::Parallel { threads },
                );
                prop_assert_eq!(&base.mem, &other.mem, "{:?} threads={} memory", fam, threads);
                prop_assert_eq!(&base.stats, &other.stats, "{:?} threads={} stats", fam, threads);
                prop_assert_eq!(&base.trace, &other.trace, "{:?} threads={} trace", fam, threads);
            }
        }
    }
}

/// Which ineligibility feature a fallback run arms.
#[derive(Debug, Clone, Copy)]
enum Ineligible {
    PctScheduler,
    FaultPlan,
    Watchdog,
}

/// One `100!` execution (warp-local-tile, backoff armed — the newly
/// parallel-eligible configuration) with `feature` armed under `engine`.
fn run_p100_ineligible(feature: Ineligible, engine: EngineMode) -> Observed {
    let (instances, rows, cols, super_size) = (2usize, 9usize, 7usize, 4usize);
    let op = InstancedTranspose::new(instances, rows, cols, super_size);
    let flag_words = Pttwac100::flag_words(instances * rows * cols);
    let mut sim = Sim::new(DeviceSpec::tesla_k20(), 2 * op.total_len() + flag_words + 8);
    sim.set_engine_mode(engine);
    match feature {
        Ineligible::PctScheduler => sim.set_sched_policy(SchedPolicy::Pct { seed: 42, depth: 3 }),
        // Tamper with a global atomic mid-claim: outcome-visible, non-fatal.
        Ineligible::FaultPlan => {
            sim.set_fault_plan(FaultPlan::exact(7, FaultKind::DropGlobalAtomic, 3, 0));
        }
        Ineligible::Watchdog => sim.set_watchdog(Some(Watchdog::new(1 << 20, 1 << 30))),
    }
    let data = sim.alloc(op.total_len());
    sim.upload_u32(data, &(0..op.total_len() as u32).collect::<Vec<_>>());
    let flags = sim.alloc(flag_words);
    sim.zero(flags);
    let rec = TraceRecorder::new();
    let k = Pttwac100 {
        data,
        flags,
        instances,
        rows,
        cols,
        super_size,
        variant: Variant100::WarpLocalTile,
        wg_size: 256,
        fuse_tile: None,
        backoff: Some(ClaimBackoff::mild(5)),
    };
    let stats = sim.launch_rec(&k, &rec, 0.0).expect("100 launch");
    Observed { mem: sim.download_u32(data), stats, trace: chrome_trace_json(&rec) }
}

/// Satellite pin: a launch made ineligible by a PCT scheduler, an armed
/// fault plan, or a watchdog silently runs serial under
/// `EngineMode::Parallel` and stays bit-identical to an explicit serial
/// launch with the same feature armed — specifically for the `100!`
/// kernels the parallel engine newly covers. (If the gate ever let such a
/// launch onto the pooled engine, the PCT schedule and the fault injection
/// would not apply and the observations would diverge.)
#[test]
fn ineligible_crosswg_claims_launches_fall_back_to_serial() {
    for feature in [Ineligible::PctScheduler, Ineligible::FaultPlan, Ineligible::Watchdog] {
        let serial = run_p100_ineligible(feature, EngineMode::Serial);
        let par = run_p100_ineligible(feature, EngineMode::Parallel { threads: 4 });
        assert_eq!(serial.mem, par.mem, "{feature:?}: memory diverged");
        assert_eq!(serial.stats, par.stats, "{feature:?}: stats diverged");
        assert_eq!(serial.trace, par.trace, "{feature:?}: trace diverged");
    }
}
