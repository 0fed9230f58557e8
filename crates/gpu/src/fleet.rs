//! Sharded serving fleet over [`crate::serve::Server`].
//!
//! A [`Fleet`] runs several shards — independent [`Server`]s over the same
//! simulated device model — and routes every request by **shape affinity**:
//! rendezvous (highest-random-weight) hashing of the request's plan-cache
//! shape key picks a stable preferred shard, so each shape's autotuned plan
//! is built (and cached) on exactly one shard instead of being re-tuned
//! everywhere. When the preferred shard is unhealthy the request fails over
//! to the highest-weight healthy shard (counted as `shard_failovers`);
//! rendezvous hashing guarantees only the crashed shard's shapes move.
//!
//! Rounds run fleet-wide: every healthy shard drains its backlog
//! ([`Server::prepare_round`]), every shard's launches are simulated on
//! its own engines ([`Server::simulate_round`] — shards contend for
//! nothing) before any shard finishes its round, and the fleet makespan
//! is the latest shard completion.
//!
//! Crash and warm restart are first-class: [`Fleet::crash_shard`] hands
//! back the victim's warm-start snapshot and its undrained requests (the
//! caller resubmits them — they fail over automatically), and
//! [`Fleet::restart_shard`] brings the shard back from a snapshot, cold if
//! the snapshot is rejected. The shards configured by
//! [`FleetConfig::new`] enable the overload degradation ladder
//! (`degrade_at` 0.75, `shed_at` 0.9), so a fleet sheds service quality
//! before it sheds requests.
//!
//! The fleet's SLO telemetry windows outcomes and raises burn-rate alerts
//! under [`TelemetryConfig::fleet_default`] (250 µs windows), against
//! error budgets that tighten with priority: 0.1% interactive, 2% batch,
//! 5% background.

use crate::recover::TransposeError;
use crate::serve::{
    trace_id, DegradeLevel, RoundReport, ServeConfig, ServeRequest, Server, SnapshotError,
    ROOT_SPAN, ROUTE_SPAN,
};
use gpu_sim::sched::mix64;
use gpu_sim::DeviceSpec;
use ipt_obs::{
    Alert, Counter, Level, Recorder, SloClass, SpanCtx, Telemetry, TelemetryConfig,
};

/// Per-priority-class error budgets (tolerated bad-outcome fraction),
/// indexed by [`crate::serve::PriorityClass::index`]:
/// `[interactive, batch, background]`.
const CLASS_BUDGETS: [f64; 3] = [0.001, 0.02, 0.05];

/// Fleet configuration: shard count plus the per-shard serving config.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shards (independent servers).
    pub shards: usize,
    /// Per-shard serving configuration.
    pub serve: ServeConfig,
}

impl FleetConfig {
    /// Fleet defaults for `dev`: three shards with the overload ladder
    /// armed — degrade past 75% of admission capacity, shed past 90%.
    #[must_use]
    pub fn new(dev: &DeviceSpec) -> Self {
        let mut serve = ServeConfig::new(dev);
        serve.degrade_at = 0.75;
        serve.shed_at = 0.9;
        Self { shards: 3, serve }
    }
}

/// One fleet round: every healthy shard's drained round plus the
/// fleet-wide makespan and any SLO alerts that fired.
#[derive(Debug)]
pub struct FleetRound {
    /// `(shard index, round report)` per processed shard.
    pub rounds: Vec<(usize, RoundReport)>,
    /// Latest shard completion this round, simulated seconds.
    pub makespan_s: f64,
    /// Burn-rate alerts that fired on this round's telemetry tick.
    pub alerts: Vec<Alert>,
}

impl FleetRound {
    /// Total results across all shards this round.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rounds.iter().map(|(_, r)| r.results.len()).sum()
    }

    /// True when no shard served anything.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct Shard {
    server: Server,
    healthy: bool,
}

/// A sharded serving fleet with shape-affinity routing, failover,
/// crash/warm-restart support, and fleet-wide SLO telemetry.
pub struct Fleet {
    dev: DeviceSpec,
    cfg: FleetConfig,
    shards: Vec<Shard>,
    /// Fleet clock: simulated seconds across processed rounds (advanced
    /// by the round makespan — shards run concurrently).
    clock_s: f64,
    /// Windowed per-class SLO tracking and burn-rate alerting.
    telemetry: Telemetry,
    /// Pre-built per-shard latency scopes (`"shard:0"`, ...), so the hot
    /// path never formats.
    shard_scopes: Vec<String>,
}

impl Fleet {
    /// New fleet of `cfg.shards` healthy shards over `dev`.
    ///
    /// # Panics
    /// When `cfg.shards` is zero.
    #[must_use]
    pub fn new(dev: DeviceSpec, cfg: FleetConfig) -> Self {
        assert!(cfg.shards > 0, "a fleet needs at least one shard");
        let shards: Vec<Shard> = (0..cfg.shards)
            .map(|_| Shard {
                server: Server::new(dev.clone(), cfg.serve.clone()),
                healthy: true,
            })
            .collect();
        let classes = vec![
            SloClass::new("interactive", CLASS_BUDGETS[0]),
            SloClass::new("batch", CLASS_BUDGETS[1]),
            SloClass::new("background", CLASS_BUDGETS[2]),
        ];
        let telemetry = Telemetry::new(TelemetryConfig::fleet_default(), classes);
        let shard_scopes = (0..cfg.shards).map(|s| format!("shard:{s}")).collect();
        Self { dev, cfg, shards, clock_s: 0.0, telemetry, shard_scopes }
    }

    /// Fleet clock: simulated seconds of fleet-wide service so far.
    #[must_use]
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// The fleet's SLO telemetry: per-class window series and the alerts
    /// fired so far.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Shard count.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Is shard `s` healthy (routable)?
    #[must_use]
    pub fn is_healthy(&self, s: usize) -> bool {
        self.shards[s].healthy
    }

    /// Borrow shard `s`'s server (cache and backlog inspection).
    #[must_use]
    pub fn shard(&self, s: usize) -> &Server {
        &self.shards[s].server
    }

    /// Total pending requests across shards.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.shards.iter().map(|s| s.server.backlog()).sum()
    }

    /// Aggregate plan-cache hit rate across shards, in `[0, 1]`.
    #[must_use]
    pub fn aggregate_hit_rate(&self) -> f64 {
        let (mut h, mut m) = (0u64, 0u64);
        for s in &self.shards {
            h += s.server.cache().hits();
            m += s.server.cache().misses();
        }
        if h + m == 0 { 0.0 } else { h as f64 / (h + m) as f64 }
    }

    /// Rendezvous weight of shape `(rows, cols, elem_bytes)` on shard `s`.
    fn weight(rows: usize, cols: usize, elem_bytes: usize, s: usize) -> u64 {
        let shape = mix64(rows as u64, (cols as u64) ^ ((elem_bytes as u64) << 48));
        mix64(shape, 0x5EED ^ s as u64)
    }

    /// The shard a shape prefers, ignoring health. Stable under shard
    /// crashes: a shape's preference never depends on who is up.
    #[must_use]
    pub fn preferred_shard(&self, rows: usize, cols: usize, elem_bytes: usize) -> usize {
        (0..self.shards.len())
            .max_by_key(|&s| Self::weight(rows, cols, elem_bytes, s))
            .expect("fleet has at least one shard")
    }

    /// Route a shape: the preferred shard when healthy, else the
    /// highest-weight healthy shard (a failover), else `None`. The flag
    /// reports whether the pick was a failover.
    fn route<R: Recorder>(
        &self,
        rows: usize,
        cols: usize,
        elem_bytes: usize,
        rec: &R,
    ) -> Option<(usize, bool)> {
        let preferred = self.preferred_shard(rows, cols, elem_bytes);
        if self.shards[preferred].healthy {
            return Some((preferred, false));
        }
        let fallback = (0..self.shards.len())
            .filter(|&s| self.shards[s].healthy)
            .max_by_key(|&s| Self::weight(rows, cols, elem_bytes, s))?;
        rec.add("fleet", Counter::ShardFailovers, 1);
        Some((fallback, true))
    }

    /// Admit one request on its affinity shard, returning the shard index
    /// it landed on.
    ///
    /// # Errors
    ///
    /// [`TransposeError::Backpressure`] when no shard is healthy
    /// (`capacity: 0`) or the target shard's admission queue is full;
    /// [`TransposeError::InvalidConfig`] for malformed requests.
    pub fn submit<R: Recorder>(
        &mut self,
        req: ServeRequest,
        rec: &R,
    ) -> Result<usize, TransposeError> {
        let Some((s, failed_over)) = self.route(req.rows, req.cols, req.elem_bytes, rec) else {
            rec.add("fleet", Counter::AdmissionRejections, 1);
            return Err(TransposeError::Backpressure {
                capacity: 0,
                retry_after_s: self.dev.queue_create_overhead_s.max(1e-6),
            });
        };
        let id = req.id;
        let track = Level::Request.base_track() + req.priority.index() as u32;
        self.shards[s].server.submit(req, rec)?;
        if rec.enabled() {
            // Routing decision span: an instant child of the request's
            // (future) root span, stamped at the admitting shard's clock.
            let ctx = SpanCtx {
                trace_id: trace_id(id),
                span_id: ROUTE_SPAN,
                parent_span_id: ROOT_SPAN,
            };
            rec.span_ctx(
                ctx,
                Level::Request,
                "route",
                self.shards[s].server.clock_s() * 1e6,
                0.0,
                track,
                &[("shard", s as f64), ("failed_over", f64::from(failed_over))],
            );
        }
        Ok(s)
    }

    /// Run one fleet-wide round: drain every healthy shard, simulate every
    /// shard's launches, then finish each shard's round with its own
    /// timeline.
    ///
    /// # Errors
    /// See [`Server::prepare_round`]; a malformed DES schedule propagates
    /// as [`TransposeError::Transfer`].
    pub fn process_rounds<R: Recorder>(
        &mut self,
        rec: &R,
    ) -> Result<FleetRound, TransposeError> {
        let mut timed = Vec::new();
        for (s, shard) in self.shards.iter_mut().enumerate() {
            if shard.healthy {
                let p = shard.server.prepare_round(rec)?;
                let tl = shard.server.simulate_round(&p)?;
                timed.push((s, p, tl));
            }
        }
        let makespan_s = timed.iter().map(|(_, _, tl)| tl.total_s).fold(0.0, f64::max);
        let mut rounds = Vec::with_capacity(timed.len());
        for (s, p, tl) in timed {
            rounds.push((s, self.shards[s].server.finish_round(p, tl, rec)));
        }

        // Fleet SLO telemetry: every result is one good/bad outcome for
        // its priority class, placed on the fleet clock at completion. A
        // bad outcome is a shed request or an end-to-end latency past the
        // class's deadline budget. The tick lands at the clock of the
        // last recorded outcome (not the window boundary past it), so the
        // short burn window always sees the outcomes it gates on.
        let round_start = self.clock_s;
        let mut t_last = round_start;
        for (s, round) in &rounds {
            let scope = self.shard_scopes[*s].as_str();
            for res in &round.results {
                let e2e_s = res.queue_wait_s + res.service_s;
                let bad = res.degrade == DegradeLevel::HostShed
                    || e2e_s > res.priority.deadline_budget_s();
                let at_s = round_start + e2e_s;
                t_last = t_last.max(at_s);
                self.telemetry.record(res.priority.index(), at_s, !bad);
                if bad {
                    rec.add("fleet", Counter::SloViolations, 1);
                }
                rec.latency(scope, "e2e_us", e2e_s * 1e6, Some(trace_id(res.id)));
            }
        }
        self.clock_s += makespan_s;
        let alerts = self.telemetry.tick(t_last);
        if !alerts.is_empty() {
            rec.add("fleet", Counter::AlertsRaised, alerts.len() as u64);
            for a in &alerts {
                rec.event(
                    a.at_s * 1e6,
                    "slo_alert",
                    &format!(
                        "rule {} class {}: burn {:.2} long / {:.2} short",
                        a.rule, a.class, a.burn_long, a.burn_short
                    ),
                );
            }
        }
        Ok(FleetRound { rounds, makespan_s, alerts })
    }

    /// Crash shard `s`: mark it unhealthy and hand back its warm-start
    /// snapshot plus every request it had admitted but not served. The
    /// caller resubmits the unfinished requests — routing fails them over
    /// to healthy shards.
    pub fn crash_shard<R: Recorder>(
        &mut self,
        s: usize,
        rec: &R,
    ) -> (String, Vec<ServeRequest>) {
        let shard = &mut self.shards[s];
        shard.healthy = false;
        let snapshot = shard.server.snapshot_json();
        let unfinished = shard.server.drain_pending();
        rec.event(
            shard.server.clock_s() * 1e6,
            "shard_crash",
            &format!("shard {s} down, {} requests orphaned", unfinished.len()),
        );
        (snapshot, unfinished)
    }

    /// Restart shard `s` from a warm-start snapshot: a fresh server,
    /// warmed with the snapshot's plans, marked healthy. A rejected
    /// snapshot is discarded — the shard still restarts, cold — and the
    /// rejection is returned.
    ///
    /// # Errors
    /// [`SnapshotError`] when the snapshot was rejected (the shard is
    /// healthy but cold).
    pub fn restart_shard<R: Recorder>(
        &mut self,
        s: usize,
        snapshot: &str,
        rec: &R,
    ) -> Result<usize, SnapshotError> {
        let mut server = Server::new(self.dev.clone(), self.cfg.serve.clone());
        let restored = server.restore_snapshot(snapshot, rec);
        self.shards[s] = Shard { server, healthy: true };
        rec.event(
            0.0,
            "shard_restart",
            &format!(
                "shard {s} restarted ({})",
                match &restored {
                    Ok(n) => format!("{n} plans warm"),
                    Err(e) => format!("cold: {e}"),
                }
            ),
        );
        restored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::PriorityClass;
    use ipt_obs::{NoopRecorder, TraceRecorder};

    fn req(id: u64, rows: usize, cols: usize) -> ServeRequest {
        let data: Vec<u32> = (0..(rows * cols) as u32).map(|x| x.wrapping_mul(2654435761)).collect();
        ServeRequest { id, rows, cols, elem_bytes: 4, priority: PriorityClass::Batch, data }
    }

    fn fleet() -> Fleet {
        let dev = DeviceSpec::tesla_k20();
        let cfg = FleetConfig::new(&dev);
        Fleet::new(dev, cfg)
    }

    #[test]
    fn slo_classes_follow_the_priority_index_with_their_budgets() {
        let f = fleet();
        let classes: Vec<(&str, f64)> =
            f.telemetry().classes().iter().map(|c| (c.name.as_str(), c.error_budget)).collect();
        let by_index = [PriorityClass::Interactive, PriorityClass::Batch, PriorityClass::Background]
            .map(|p| (p.index(), p.name()));
        assert_eq!(by_index, [(0, "interactive"), (1, "batch"), (2, "background")]);
        assert_eq!(classes, [("interactive", 0.001), ("batch", 0.02), ("background", 0.05)]);
    }

    #[test]
    fn routing_is_shape_stable_and_spreads() {
        let mut f = fleet();
        let rec = NoopRecorder;
        let shapes = [(72, 60), (96, 72), (60, 60), (47, 47), (127, 61), (251, 13)];
        let mut used = std::collections::HashSet::new();
        for (i, (r, c)) in shapes.iter().enumerate() {
            let first = f.submit(req(i as u64, *r, *c), &rec).unwrap();
            let second = f.submit(req(100 + i as u64, *r, *c), &rec).unwrap();
            assert_eq!(first, second, "same shape must route to the same shard");
            assert_eq!(first, f.preferred_shard(*r, *c, 4));
            used.insert(first);
        }
        assert!(used.len() >= 2, "six shapes should spread past one shard: {used:?}");
        let round = f.process_rounds(&rec).unwrap();
        assert_eq!(round.len(), 2 * shapes.len());
        assert!(round.makespan_s > 0.0);
        // Makespan is the max of per-shard round times.
        let max_shard = round
            .rounds
            .iter()
            .map(|(_, r)| r.sim_total_s)
            .fold(0.0f64, f64::max);
        assert!((round.makespan_s - max_shard).abs() < 1e-12);
        // A round with nothing to drain takes no simulated time.
        let idle = f.process_rounds(&rec).unwrap();
        assert!(idle.is_empty());
        assert_eq!(idle.makespan_s, 0.0);
    }

    #[test]
    fn unhealthy_shard_fails_over_and_counts() {
        let mut f = fleet();
        let rec = TraceRecorder::new();
        let (r, c) = (72, 60);
        let home = f.preferred_shard(r, c, 4);
        f.crash_shard(home, &rec);
        let rerouted = f.submit(req(0, r, c), &rec).unwrap();
        assert_ne!(rerouted, home, "crashed shard must not receive traffic");
        assert!(f.is_healthy(rerouted));
        assert_eq!(rec.counter("fleet", Counter::ShardFailovers), 1);
        // Shapes whose home shard survives do not move.
        let mut survivor_shape = None;
        for (rr, cc) in [(96usize, 72usize), (60, 60), (127, 61), (251, 13)] {
            if f.preferred_shard(rr, cc, 4) != home {
                survivor_shape = Some((rr, cc));
                break;
            }
        }
        let (sr, sc) = survivor_shape.expect("some shape prefers a surviving shard");
        assert_eq!(f.submit(req(1, sr, sc), &rec).unwrap(), f.preferred_shard(sr, sc, 4));
        assert_eq!(rec.counter("fleet", Counter::ShardFailovers), 1, "no failover for it");
    }

    #[test]
    fn fleet_with_no_healthy_shard_backpressures() {
        let mut f = fleet();
        let rec = TraceRecorder::new();
        for s in 0..f.num_shards() {
            f.crash_shard(s, &rec);
        }
        match f.submit(req(0, 72, 60), &rec).unwrap_err() {
            TransposeError::Backpressure { capacity, retry_after_s } => {
                assert_eq!(capacity, 0, "no healthy shard means zero capacity");
                assert!(retry_after_s > 0.0);
            }
            other => panic!("want Backpressure, got {other}"),
        }
        assert_eq!(rec.counter("fleet", Counter::AdmissionRejections), 1);
    }

    #[test]
    fn crash_hands_back_pending_and_restart_restores_warm_cache() {
        let mut f = fleet();
        let rec = TraceRecorder::new();
        let (r, c) = (72, 60);
        let home = f.preferred_shard(r, c, 4);
        // Warm the home shard's cache, then leave one request pending.
        f.submit(req(0, r, c), &rec).unwrap();
        f.process_rounds(&rec).unwrap();
        f.submit(req(1, r, c), &rec).unwrap();
        let (snapshot, unfinished) = f.crash_shard(home, &rec);
        assert_eq!(unfinished.len(), 1);
        assert_eq!(unfinished[0].id, 1);
        assert_eq!(f.shard(home).backlog(), 0);
        // Orphans resubmit and fail over.
        for orphan in unfinished {
            let s = f.submit(orphan, &rec).unwrap();
            assert_ne!(s, home);
        }
        let round = f.process_rounds(&rec).unwrap();
        assert_eq!(round.len(), 1, "failed-over request still gets served");
        // Warm restart: the restored shard hits on first sight of the shape.
        let restored = f.restart_shard(home, &snapshot, &rec).unwrap();
        assert_eq!(restored, 1);
        assert!(f.is_healthy(home));
        f.submit(req(2, r, c), &rec).unwrap();
        let round = f.process_rounds(&rec).unwrap();
        let served: Vec<_> = round.rounds.iter().flat_map(|(_, r)| &r.results).collect();
        assert_eq!(served.len(), 1);
        assert!(served[0].cache_hit, "restored plan must hit immediately");
        // A garbage snapshot still restarts the shard, cold.
        assert!(f.restart_shard(home, "garbage", &rec).is_err());
        assert!(f.is_healthy(home));
        assert_eq!(f.shard(home).cache().len(), 0);
    }
}
