//! The full failure-and-restoration pipeline (§4.2, Figs. 11–14).
//!
//! A deployed network suffers failures (random or area), surviving
//! neighbors detect them through the heartbeat protocol, and a placement
//! algorithm restores `k`-coverage. [`fail_and_restore`] wires the pieces
//! together: `decor-net` failure injection and detection on one side,
//! `decor-core` placement on the other, with the coverage map as the
//! shared ground truth.

use crate::config::DeploymentConfig;
use crate::coverage::CoverageMap;
use crate::metrics::PlacementOutcome;
use crate::Placer;
use decor_net::{
    FailurePlan, HeartbeatConfig, HeartbeatSim, Network, NodeId, ShiftSchedule, SleepScheduler,
    Time,
};
use decor_trace::TraceEvent;

/// Outcome of one failure-and-restoration episode.
#[derive(Clone, Debug)]
pub struct RestorationReport {
    /// Sensors killed by the failure plan.
    pub victims: usize,
    /// Victims detected by the heartbeat protocol (equals `victims` when
    /// detection is skipped — failures are then assumed known).
    pub detected: usize,
    /// Worst-case detection latency in ticks (None when detection was
    /// skipped or nothing was detected).
    pub detection_latency: Option<Time>,
    /// Fraction of points still `k`-covered right after the failure
    /// (the y-axis of Figs. 11 and 13).
    pub coverage_after_failure: f64,
    /// New sensors the restoration placed (the y-axis of Fig. 14).
    pub extra_nodes: usize,
    /// Fraction of points `k`-covered after restoration.
    pub coverage_after_restore: f64,
    /// Alive nodes the detector suspected dead anyway (false alarms that
    /// would have triggered pointless restorations). With rotation
    /// enabled this must stay zero for scheduled sleepers: the pipeline
    /// consults the sleep schedule before declaring anyone dead.
    pub false_restorations: usize,
    /// Timeouts that crossed while the silent neighbor was scheduled
    /// asleep — each one a restoration the three-state lifecycle
    /// prevented. Always 0 without `DeploymentConfig::rotation`.
    pub sleeping_suppressed: u64,
    /// The raw placement outcome of the restoration run.
    pub outcome: PlacementOutcome,
}

/// Fails sensors per `plan`, optionally runs heartbeat detection, then
/// restores `k`-coverage with `placer`.
///
/// When `heartbeat` is `Some`, a detection simulation runs first: the
/// failure fires at tick `4 × period` and detection gets `40` periods to
/// conclude; its latency lands in the report. Restoration proceeds for all
/// victims regardless (undetected isolated victims are eventually noticed
/// as coverage holes — the paper's uncovered-region estimation).
///
/// Restoration is output-sensitive: the deactivations mark the damaged
/// tiles of the coverage map's summary layer, and every placer works from
/// that deficient-tile set — the centralized baseline restricts its
/// candidate pool to the damaged tiles plus an `rs` ring, grid DECOR
/// builds its engine over the damaged cells only, and the Voronoi scheme's
/// ownership worklist re-examines (after one initial pass) only the points
/// each round's placements disturbed. Cost scales with the damaged area,
/// not the field; placements are identical to the full-field sweeps
/// (differential tests pin this).
pub fn fail_and_restore(
    map: &mut CoverageMap,
    placer: &dyn Placer,
    cfg: &DeploymentConfig,
    plan: &FailurePlan,
    heartbeat: Option<HeartbeatConfig>,
) -> RestorationReport {
    cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    // Mirror the active sensors into a network for failure selection and
    // detection. Network node i corresponds to sensors[i] below. The
    // configured link loss applies here too, so heartbeat detection runs
    // over the same medium the restoration placer will use.
    let sensors = map.active_sensors();
    let mut net = Network::new(*map.field());
    cfg.link.apply(&mut net);
    net.set_trace(cfg.trace.clone());
    for &(_, pos) in &sensors {
        net.add_node(pos, cfg.rs, cfg.rc);
    }
    let victims_net = plan.victims(&net);

    // With rotation configured, detection must run against the sleep
    // schedule: a node whose shift is off duty is Asleep, not Dead, and
    // its silence must never be declared a failure. The schedule is the
    // canonical set-k-cover partition of the pre-failure deployment —
    // exactly what the in-network agreement (`crate::rotation`) lands on.
    let schedule: Option<ShiftSchedule> = cfg.rotation.as_ref().and_then(|rot| {
        let shifts = SleepScheduler::new(rot.target_coverage).shifts(&net, map.points());
        let n = net.len();
        (shifts.len() > 1).then(|| ShiftSchedule::new(shifts, rot.period, n))
    });

    let (detected, latency, false_restorations, sleeping_suppressed) = match heartbeat {
        Some(hb) => {
            let sim = HeartbeatSim::new(hb);
            let fail_at = 4 * hb.period;
            let horizon = fail_at + 40 * hb.period;
            let report = match &schedule {
                Some(sched) => sim.run_scheduled(&mut net, &victims_net, fail_at, horizon, sched),
                None => sim.run(&mut net, &victims_net, fail_at, horizon),
            };
            cfg.trace.set_time(fail_at);
            for &v in &victims_net {
                cfg.trace.emit(TraceEvent::NodeFailed { node: v as u64 });
            }
            // Detections in (time, victim) order so the trace timeline
            // stays monotone.
            let mut detections: Vec<(Time, NodeId, NodeId)> = report
                .first_detection
                .iter()
                .map(|(&victim, &(t, observer))| (t, victim, observer))
                .collect();
            detections.sort_unstable();
            for (t, victim, observer) in detections {
                cfg.trace.set_time(t);
                cfg.trace.emit(TraceEvent::HeartbeatMiss {
                    observer: observer as u64,
                    node: victim as u64,
                });
            }
            (
                report.first_detection.len(),
                report.max_latency(fail_at),
                report.false_positives.len(),
                report.sleeping_suppressed,
            )
        }
        None => {
            for &v in &victims_net {
                net.fail_node(v);
                cfg.trace.emit(TraceEvent::NodeFailed { node: v as u64 });
            }
            (victims_net.len(), None, 0, 0)
        }
    };

    // Kill the same sensors in the coverage map.
    for &v in &victims_net {
        let (sid, _) = sensors[v];
        map.deactivate_sensor(sid);
    }
    let coverage_after_failure = map.fraction_k_covered(cfg.k);

    let outcome = placer.place(map, cfg);
    RestorationReport {
        victims: victims_net.len(),
        detected,
        detection_latency: latency,
        coverage_after_failure,
        extra_nodes: outcome.placed.len(),
        coverage_after_restore: map.fraction_k_covered(cfg.k),
        false_restorations,
        sleeping_suppressed,
        outcome,
    }
}

/// Fails an exact fraction of sensors and reports only the surviving
/// coverage — the Fig. 11/12 measurement (no restoration). Leaves the map
/// failed; callers clone or rebuild.
pub fn coverage_after_failure(
    map: &mut CoverageMap,
    cfg: &DeploymentConfig,
    plan: &FailurePlan,
    k_measure: u32,
) -> f64 {
    let sensors = map.active_sensors();
    let mut net = Network::new(*map.field());
    for &(_, pos) in &sensors {
        net.add_node(pos, cfg.rs, cfg.rc);
    }
    let victims = plan.victims(&net);
    for &v in &victims {
        map.deactivate_sensor(sensors[v].0);
    }
    map.fraction_k_covered(k_measure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::CentralizedGreedy;
    use decor_geom::{Aabb, Disk, Point};
    use decor_lds::halton_points;

    fn covered_map(k: u32, n_pts: usize) -> (CoverageMap, DeploymentConfig) {
        let field = Aabb::square(100.0);
        let cfg = DeploymentConfig::with_k(k);
        let mut map = CoverageMap::new(halton_points(n_pts, &field), &field, &cfg);
        CentralizedGreedy.place(&mut map, &cfg);
        assert_eq!(map.count_below(k), 0);
        (map, cfg)
    }

    #[test]
    fn area_failure_then_restore_recovers_coverage() {
        let (mut map, cfg) = covered_map(1, 600);
        let plan = FailurePlan::Area {
            disk: Disk::new(Point::new(50.0, 50.0), 24.0),
        };
        let report = fail_and_restore(&mut map, &CentralizedGreedy, &cfg, &plan, None);
        assert!(report.victims > 0);
        assert!(report.coverage_after_failure < 1.0);
        assert!(report.extra_nodes > 0);
        assert_eq!(report.coverage_after_restore, 1.0);
        assert_eq!(map.count_below(1), 0);
    }

    #[test]
    fn area_failure_drops_roughly_the_disc_share() {
        let (mut map, cfg) = covered_map(1, 1000);
        let plan = FailurePlan::Area {
            disk: Disk::new(Point::new(50.0, 50.0), 24.0),
        };
        let cov = coverage_after_failure(&mut map, &cfg, &plan, 1);
        // Disc is ~18% of the field; sensors just outside still cover the
        // fringe, so the covered share stays within a band around 82%.
        assert!((0.70..=0.95).contains(&cov), "coverage {cov}");
    }

    #[test]
    fn random_fraction_failure_degrades_gracefully() {
        let (mut map, cfg) = covered_map(3, 800);
        let plan = FailurePlan::Fraction {
            frac: 0.15,
            seed: 2,
        };
        let cov3 = coverage_after_failure(&mut map, &cfg, &plan, 3);
        assert!(cov3 < 1.0, "some 3-coverage must be lost");
        // 1-coverage survives much better than 3-coverage.
        let cov1 = map.fraction_k_covered(1);
        assert!(cov1 > cov3);
        assert!(cov1 > 0.95, "1-coverage should barely notice 15% failures");
    }

    #[test]
    fn detection_reports_latency_and_counts() {
        let (mut map, cfg) = covered_map(1, 400);
        let plan = FailurePlan::Fraction { frac: 0.1, seed: 3 };
        let hb = HeartbeatConfig {
            period: 100,
            timeout_periods: 3,
            seed: 4,
        };
        let report = fail_and_restore(&mut map, &CentralizedGreedy, &cfg, &plan, Some(hb));
        assert!(report.victims > 0);
        assert!(report.detected > 0);
        assert!(report.detected <= report.victims);
        let lat = report.detection_latency.expect("something detected");
        assert!((200..=1000).contains(&lat), "latency {lat}");
        assert_eq!(report.coverage_after_restore, 1.0);
    }

    #[test]
    fn detection_emits_failure_and_miss_events() {
        let (mut map, mut cfg) = covered_map(1, 400);
        cfg.trace = decor_trace::TraceHandle::counting();
        let plan = FailurePlan::Fraction { frac: 0.1, seed: 3 };
        let hb = HeartbeatConfig {
            period: 100,
            timeout_periods: 3,
            seed: 4,
        };
        let placer = crate::grid_scheme::GridDecor { cell_size: 10.0 };
        let report = fail_and_restore(&mut map, &placer, &cfg, &plan, Some(hb));
        let counts = cfg.trace.counts().expect("counting sink attached");
        let get = |k: &str| counts.get(k).copied().unwrap_or(0);
        assert_eq!(get("node_failed"), report.victims as u64);
        assert_eq!(get("heartbeat_miss"), report.detected as u64);
        assert_eq!(get("sensor_placed"), report.extra_nodes as u64);
    }

    #[test]
    fn no_failures_means_no_restoration() {
        let (mut map, cfg) = covered_map(1, 300);
        let plan = FailurePlan::Fraction { frac: 0.0, seed: 5 };
        let report = fail_and_restore(&mut map, &CentralizedGreedy, &cfg, &plan, None);
        assert_eq!(report.victims, 0);
        assert_eq!(report.extra_nodes, 0);
        assert_eq!(report.coverage_after_failure, 1.0);
    }

    #[test]
    fn sleeping_nodes_cause_zero_false_restorations() {
        // Regression for the three-state lifecycle: rotation puts whole
        // shifts to sleep for 4 heartbeat periods — past the 3-period
        // timeout — so a schedule-blind detector would suspect every
        // sleeper and trigger restorations for nodes that are fine. The
        // pipeline must consult the schedule instead: zero false
        // restorations, and a non-zero suppression count proving the
        // timeouts genuinely crossed while the nodes slept.
        let (mut map, mut cfg) = covered_map(3, 500);
        cfg.rotation = Some(decor_net::RotationConfig {
            target_coverage: 1,
            period: 400,
            ..decor_net::RotationConfig::default()
        });
        let plan = FailurePlan::Fraction { frac: 0.0, seed: 0 };
        let hb = HeartbeatConfig {
            period: 100,
            timeout_periods: 3,
            seed: 8,
        };
        let report = fail_and_restore(&mut map, &CentralizedGreedy, &cfg, &plan, Some(hb));
        assert_eq!(report.victims, 0);
        assert_eq!(
            report.false_restorations, 0,
            "a scheduled sleeper was declared dead"
        );
        assert!(
            report.sleeping_suppressed > 0,
            "rotation never crossed a timeout — the regression is untested"
        );
        assert_eq!(report.extra_nodes, 0, "nothing failed, nothing to place");
    }

    #[test]
    fn real_failures_still_restored_under_rotation() {
        let (mut map, mut cfg) = covered_map(3, 500);
        cfg.rotation = Some(decor_net::RotationConfig {
            target_coverage: 1,
            period: 400,
            ..decor_net::RotationConfig::default()
        });
        let plan = FailurePlan::Fraction {
            frac: 0.15,
            seed: 2,
        };
        let hb = HeartbeatConfig {
            period: 100,
            timeout_periods: 3,
            seed: 9,
        };
        let report = fail_and_restore(&mut map, &CentralizedGreedy, &cfg, &plan, Some(hb));
        assert!(report.victims > 0);
        assert_eq!(report.false_restorations, 0);
        assert_eq!(
            report.coverage_after_restore, 1.0,
            "rotation must not block healing"
        );
    }

    #[test]
    fn higher_k_tolerates_more_failures() {
        // The Fig. 12 mechanism in miniature: a k=3 deployment keeps far
        // more 1-coverage under 30% failures than a k=1 deployment.
        let survive = |k: u32| {
            let (mut map, cfg) = covered_map(k, 600);
            let plan = FailurePlan::Fraction { frac: 0.3, seed: 6 };
            coverage_after_failure(&mut map, &cfg, &plan, 1)
        };
        let k1 = survive(1);
        let k3 = survive(3);
        assert!(k3 > k1, "k=3 ({k3}) must beat k=1 ({k1})");
        assert!(k3 > 0.9, "k=3 should keep >90% 1-coverage, got {k3}");
    }
}
