//! Multi-day endurance simulation: rotation, drain, death, restoration.
//!
//! The lifetime claims of the paper's motivation #3 ("k-coverage leads to
//! significant energy savings and increases the lifetime for the
//! network") are only credible if rotation survives contact with the rest
//! of the system: batteries drain per the energy model on every real
//! message and awake period, nodes die mid-shift, the heartbeat detector
//! must tell scheduled sleep from death, and restoration must fold
//! replacements back into the rotation. [`run_endurance`] runs that whole
//! loop on one deterministic clock and reports *lifetime to first
//! unrecoverable coverage loss* — the figure of merit the endurance test
//! tier compares between rotation and always-on.
//!
//! One period of the rotation clock is one heartbeat period `Tc`; within
//! a period events happen in a fixed order (chaos, disasters, coverage
//! check, shift transitions, heartbeats, detection, restoration, idle
//! drain, re-agreement), each sub-step iterating in node-id order — the
//! run is bit-identical across process runs and worker threads.
//!
//! The loop's state is one struct: the network mirroring the map's
//! active sensors, the detector's [`WatchTable`], the shift schedule,
//! the report, and one record per node (idle spend, spend at the last
//! wake, last duty, death handled, falsely suspected). The coverage map
//! stays the ground truth — every death retires its sensor and every
//! replacement adds one — so alive coverage is the map's own minimum,
//! and on-duty coverage is counted through the map's point index.

use crate::config::DeploymentConfig;
use crate::coverage::{CoverageMap, SensorId};
use crate::rotation::agree_shifts;
use crate::Placer;
use decor_geom::Disk;
use decor_net::{
    silent_too_long, ChaosEngine, Network, NodeId, RotationConfig, ShiftSchedule, Time, WatchTable,
};
use decor_trace::TraceEvent;

/// Endurance scenario knobs, orthogonal to [`DeploymentConfig`] (which
/// carries the rotation knobs themselves in
/// [`DeploymentConfig::rotation`]).
#[derive(Clone, Debug, PartialEq)]
pub struct EnduranceConfig {
    /// Duty-cycle the deployment (`true`) or keep every node always on
    /// (`false`, the baseline the lifetime extension is measured
    /// against). Both arms use identical energy accounting.
    pub rotate: bool,
    /// Total replacement sensors the restoration side may deploy across
    /// the whole run. 0 (the default) measures pure lifetime: deaths are
    /// detected but never healed.
    pub spare_budget: usize,
    /// Hard cap on simulated periods, so a healthy configuration cannot
    /// spin forever. A run that reaches it reports
    /// [`EnduranceReport::ended_by_horizon`].
    pub max_periods: u64,
    /// Scripted area failures: at the start of period `.0`, every alive
    /// node inside disk `.1` dies (the paper's natural disasters, §2.1).
    pub disasters: Vec<(u64, Disk)>,
    /// A neighbor is declared dead after this many silent periods (the
    /// detector's `timeout_periods`, on the same period clock).
    pub timeout_periods: u32,
}

impl Default for EnduranceConfig {
    fn default() -> Self {
        EnduranceConfig {
            rotate: true,
            spare_budget: 0,
            max_periods: 100_000,
            disasters: Vec::new(),
            timeout_periods: 3,
        }
    }
}

impl EnduranceConfig {
    /// Checks the scenario knobs, reporting the first violated rule.
    /// [`run_endurance`] panics with this message; front ends report it
    /// as a configuration error instead.
    pub fn validate(&self) -> Result<(), String> {
        if self.timeout_periods < 2 {
            return Err(format!(
                "timeout must span at least 2 periods, got {}",
                self.timeout_periods
            ));
        }
        Ok(())
    }
}

/// Outcome of one endurance run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EnduranceReport {
    /// Periods until the first instant where the target coverage became
    /// unrecoverable (even waking every alive node, with no spares left,
    /// some point stays under-covered). Equals `max_periods` when the
    /// horizon ended the run instead.
    pub lifetime_periods: u64,
    /// Shifts in the initial agreement (0 or 1 means always-on).
    pub shifts: usize,
    /// Heartbeats broadcast across the run.
    pub heartbeats_sent: u64,
    /// Alive nodes suspected dead — must be zero: scheduled sleepers are
    /// protected by the three-state lifecycle and this simulation runs a
    /// loss-free medium for heartbeats within a period.
    pub false_positives: u64,
    /// Timeouts that crossed while the silent neighbor was scheduled
    /// asleep (each one a false restoration that did not happen).
    pub sleeping_suppressed: u64,
    /// Nodes whose battery ran out.
    pub battery_deaths: usize,
    /// Nodes killed by scripted disasters.
    pub disaster_deaths: usize,
    /// Nodes crashed by the chaos plan.
    pub chaos_deaths: usize,
    /// Dead nodes some alive observer actually detected.
    pub detected_deaths: usize,
    /// Replacement sensors deployed.
    pub extra_nodes: usize,
    /// Periods where the schedule alone under-covered some point and the
    /// whole network was woken to compensate.
    pub emergency_periods: u64,
    /// In-network re-agreements after membership changed.
    pub reschedules: u64,
    /// Restoration episodes (placer invocations that placed something).
    pub restorations: u64,
    /// `ShiftAssign` transport messages across all agreements.
    pub assignments_sent: u64,
    /// True when the horizon, not coverage loss, ended the run.
    pub ended_by_horizon: bool,
}

impl EnduranceReport {
    /// Lifetime ratio of this run over a baseline run (typically rotation
    /// over always-on).
    pub fn extension_over(&self, baseline: &EnduranceReport) -> f64 {
        self.lifetime_periods as f64 / baseline.lifetime_periods.max(1) as f64
    }
}

/// Runs the endurance loop. `cfg.rotation` supplies the rotation knobs
/// (defaults apply when `None`); `e` selects the scenario. The map is
/// mutated: deaths deactivate sensors, restorations add them.
///
/// Panics when `cfg` or `e` fails its `validate`.
pub fn run_endurance(
    map: &mut CoverageMap,
    placer: &dyn Placer,
    cfg: &DeploymentConfig,
    e: &EnduranceConfig,
) -> EnduranceReport {
    cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    e.validate().unwrap_or_else(|e| panic!("{e}"));
    Endurance::new(map, placer, cfg, e).run()
}

/// What the loop keeps per network node, indexed by node id.
#[derive(Clone, Copy, Debug)]
struct NodeBook {
    /// Energy spent idling (awake or asleep); radio spend lives in
    /// `net.stats`, and the node dies when their sum reaches the battery.
    idle_spent: f64,
    /// Total spend when the node last woke, for the sleep-entry drain.
    spent_at_wake: f64,
    /// On duty in the previous period.
    was_awake: bool,
    /// Its death was detected (and handed to restoration) already.
    handled_death: bool,
    /// Suspected dead while alive (counted once as a false positive).
    suspected: bool,
}

impl NodeBook {
    const FRESH: NodeBook = NodeBook {
        idle_spent: 0.0,
        spent_at_wake: 0.0,
        was_awake: true,
        handled_death: false,
        suspected: false,
    };
}

/// The endurance loop's whole state. The map is the coverage ground
/// truth: its active sensors are exactly the alive network nodes
/// (node `i` mirrors sensor `sensor_of[i]`), so its coverage counts are
/// the alive coverage the loop checks.
struct Endurance<'a> {
    map: &'a mut CoverageMap,
    placer: &'a dyn Placer,
    cfg: &'a DeploymentConfig,
    e: &'a EnduranceConfig,
    rot: RotationConfig,
    net: Network,
    sensor_of: Vec<SensorId>,
    watch: WatchTable,
    nodes: Vec<NodeBook>,
    schedule: ShiftSchedule,
    /// Who is on duty this period, by node id.
    on_duty: Vec<bool>,
    /// Per-point on-duty coverage, rebuilt by [`Endurance::min_on_duty`].
    duty_cover: Vec<u32>,
    report: EnduranceReport,
}

impl<'a> Endurance<'a> {
    /// Mirrors the active sensors into a network, runs the initial
    /// agreement (or the always-on degenerate) and the t=0 hello
    /// exchange (everyone awake at deploy).
    fn new(
        map: &'a mut CoverageMap,
        placer: &'a dyn Placer,
        cfg: &'a DeploymentConfig,
        e: &'a EnduranceConfig,
    ) -> Self {
        let rot = cfg.rotation.unwrap_or_default();
        let mut net = Network::new(*map.field());
        cfg.link.apply(&mut net);
        net.set_trace(cfg.trace.clone());
        let mut s = Endurance {
            map,
            placer,
            cfg,
            e,
            rot,
            net,
            sensor_of: Vec::new(),
            watch: WatchTable::default(),
            nodes: Vec::new(),
            schedule: ShiftSchedule::always_on(rot.period, 0),
            on_duty: Vec::new(),
            duty_cover: Vec::new(),
            report: EnduranceReport::default(),
        };
        for (sid, _) in s.map.active_sensors() {
            s.mirror(sid);
        }
        s.schedule = if e.rotate {
            let agreement = agree_shifts(&mut s.net, s.map.points(), &rot, &cfg.link, 0);
            s.report.assignments_sent += agreement.assignments_sent;
            agreement.schedule
        } else {
            ShiftSchedule::always_on(rot.period, s.net.len())
        };
        s.report.shifts = s.schedule.n_shifts();
        s.watch = WatchTable::hello(&mut s.net);
        s
    }

    fn run(mut self) -> EnduranceReport {
        let (cfg, e) = (self.cfg, self.e);
        let rot = self.rot;
        let mut chaos = cfg.chaos.clone().map(ChaosEngine::new);
        let mut disasters = e.disasters.clone();
        disasters.sort_by_key(|&(p, _)| p);
        let mut next_disaster = 0usize;
        let mut epoch = 0u64;
        let mut membership_changed = false;
        let mut prev_shift: Option<usize> = None;
        let target = rot.target_coverage;

        for period in 0.. {
            if period >= e.max_periods {
                self.report.ended_by_horizon = true;
                self.report.lifetime_periods = e.max_periods;
                break;
            }
            let now: Time = period * rot.period;
            cfg.trace.set_time(now);

            // (a) Chaos faults due this period.
            if let Some(engine) = chaos.as_mut() {
                engine.advance_to(&mut self.net, now);
                for id in engine.take_crashed() {
                    self.report.chaos_deaths += 1;
                    self.bury(id);
                }
            }
            // (b) Scripted disasters.
            while next_disaster < disasters.len() && disasters[next_disaster].0 <= period {
                let disk = disasters[next_disaster].1;
                for id in 0..self.net.len() {
                    if self.net.is_alive(id) && disk.contains(self.net.node(id).pos) {
                        self.report.disaster_deaths += 1;
                        self.bury(id);
                    }
                }
                next_disaster += 1;
            }

            // (c) Ground-truth coverage check with escalation. A node is
            // on duty when alive and its shift is scheduled (unscheduled
            // nodes are always on).
            self.on_duty.clear();
            self.on_duty
                .extend((0..self.net.len()).map(|id| {
                    self.net.is_alive(id) && !self.schedule.is_scheduled_asleep(id, now)
                }));
            let mut emergency = false;
            if self.min_on_duty() < target {
                // Waking everyone is enough when the deployment itself
                // still holds the target; otherwise heal first or die.
                if self.map.min_coverage() >= target
                    || (self.try_restore(now) && self.map.min_coverage() >= target)
                {
                    // Wake everyone for this period and re-agree after.
                    self.report.emergency_periods += 1;
                    membership_changed = true;
                    emergency = true;
                    self.on_duty.clear();
                    self.on_duty
                        .extend((0..self.net.len()).map(|id| self.net.is_alive(id)));
                } else {
                    self.report.lifetime_periods = period;
                    break;
                }
            }

            // (d) Shift transitions: trace boundaries, flip radio flags,
            // charge the sleep-entry drain summary.
            if self.schedule.n_shifts() > 1 {
                let cur = self.schedule.scheduled_shift(now);
                if prev_shift != Some(cur) {
                    if let Some(prev) = prev_shift {
                        cfg.trace.emit(TraceEvent::ShiftEnd { shift: prev as u64 });
                    }
                    let awake = self.on_duty.iter().filter(|&&a| a).count() as u64;
                    cfg.trace.emit(TraceEvent::ShiftBegin {
                        shift: cur as u64,
                        awake,
                    });
                    prev_shift = Some(cur);
                }
            }
            for id in 0..self.net.len() {
                if !self.net.is_alive(id) {
                    continue;
                }
                let duty = self.on_duty[id];
                let book = &mut self.nodes[id];
                let spent = self.net.stats.energy_of(id) + book.idle_spent;
                if duty && !book.was_awake {
                    cfg.trace.emit(TraceEvent::NodeWake { node: id as u64 });
                    book.spent_at_wake = spent;
                } else if !duty && book.was_awake {
                    cfg.trace.emit(TraceEvent::NodeSleep { node: id as u64 });
                    cfg.trace.emit(TraceEvent::BatteryDrain {
                        node: id as u64,
                        amount: spent - book.spent_at_wake,
                    });
                }
                book.was_awake = duty;
                self.net.set_sleeping(id, !duty);
            }

            // (e) Heartbeats: every on-duty node beats once, in id order.
            for id in 0..self.net.len() {
                if self.net.is_alive(id) && self.on_duty[id] {
                    self.watch.beat(&mut self.net, id, now);
                    self.report.heartbeats_sent += 1;
                }
            }

            // (f) Detection: on-duty observers count strikes against the
            // neighbors they watch.
            let mut newly_detected: Vec<(NodeId, NodeId)> = Vec::new();
            for id in 0..self.net.len() {
                if !self.net.is_alive(id) || !self.on_duty[id] {
                    continue;
                }
                for w in self.watch.watched_by_mut(id) {
                    let nb = w.nb;
                    // Was the neighbor *expected* to beat this period? Dead
                    // nodes stay on their last schedule, so a dead neighbor
                    // whose shift is on duty is expected — and missed.
                    if !emergency && self.schedule.is_scheduled_asleep(nb, now) {
                        // Scheduled asleep: silence is the plan. A naive
                        // detector would suspect here; count the
                        // suppression. Strikes neither accrue nor reset —
                        // only on-duty periods are evidence either way.
                        if silent_too_long(now, w.last_heard, rot.period, e.timeout_periods) {
                            self.report.sleeping_suppressed += 1;
                        }
                        continue;
                    }
                    if w.last_heard == now {
                        w.strikes = 0;
                        continue;
                    }
                    w.strikes += 1;
                    if w.strikes >= e.timeout_periods {
                        let book = &mut self.nodes[nb];
                        if self.net.is_alive(nb) {
                            if !book.suspected {
                                book.suspected = true;
                                self.report.false_positives += 1;
                            }
                        } else if !book.handled_death {
                            book.handled_death = true;
                            newly_detected.push((id, nb));
                        }
                    }
                }
            }
            for (observer, nb) in newly_detected {
                self.report.detected_deaths += 1;
                cfg.trace.emit(TraceEvent::HeartbeatMiss {
                    observer: observer as u64,
                    node: nb as u64,
                });
                // A detected real failure triggers healing when spares
                // allow.
                if self.try_restore(now) {
                    membership_changed = true;
                }
            }
            // Replacements placed by a detection-triggered heal enter
            // awake; they start paying the awake idle cost this very
            // period.
            self.on_duty.resize(self.net.len(), true);

            // (g) Idle drain and battery deaths. Radio spend already lives
            // in net.stats; batteries die when the sum crosses capacity.
            for id in 0..self.net.len() {
                if !self.net.is_alive(id) {
                    continue;
                }
                let cost = if self.on_duty[id] {
                    rot.awake_cost
                } else {
                    rot.sleep_cost
                };
                self.nodes[id].idle_spent += cost;
                let spent = self.net.stats.energy_of(id) + self.nodes[id].idle_spent;
                if spent >= rot.battery {
                    cfg.trace.emit(TraceEvent::BatteryDrain {
                        node: id as u64,
                        amount: spent,
                    });
                    self.report.battery_deaths += 1;
                    // Deliberately NOT a membership change: the network
                    // must *detect* the silence before it reacts.
                    self.bury(id);
                }
            }

            // (h) Re-agreement after membership changed (emergency or
            // restoration): wake everyone, agree afresh, rotate on.
            if membership_changed && e.rotate {
                for id in 0..self.net.len() {
                    self.net.set_sleeping(id, false);
                }
                epoch += 1;
                let agreement =
                    agree_shifts(&mut self.net, self.map.points(), &rot, &cfg.link, epoch);
                self.report.assignments_sent += agreement.assignments_sent;
                self.schedule = agreement.schedule;
                self.report.reschedules += 1;
                membership_changed = false;
                prev_shift = None;
            }
        }
        self.report
    }

    /// Adds map sensor `sid` to the network as the next node. Alive
    /// coverage is read off the map, which honors each sensor's own
    /// radius, and on-duty coverage is counted at `cfg.rs`: the two agree
    /// only while every mirrored sensor senses at `cfg.rs`.
    fn mirror(&mut self, sid: SensorId) -> NodeId {
        assert_eq!(
            self.map.sensor_rs(sid),
            self.cfg.rs,
            "endurance mirrors sensors at cfg.rs; sensor {sid} senses at another radius"
        );
        self.sensor_of.push(sid);
        self.nodes.push(NodeBook::FRESH);
        let pos = self.map.sensor_pos(sid);
        self.net.add_node(pos, self.cfg.rs, self.cfg.rc)
    }

    /// Node `id` died: fail it in the network (if the chaos engine has
    /// not already), retire its sensor from the map, and trace it.
    fn bury(&mut self, id: NodeId) {
        self.net.fail_node(id);
        self.map.deactivate_sensor(self.sensor_of[id]);
        self.cfg
            .trace
            .emit(TraceEvent::NodeFailed { node: id as u64 });
    }

    /// Minimum on-duty coverage over all map points.
    fn min_on_duty(&mut self) -> u32 {
        self.duty_cover.clear();
        self.duty_cover.resize(self.map.n_points(), 0);
        for id in 0..self.net.len() {
            if self.on_duty[id] {
                let cover = &mut self.duty_cover;
                self.map.for_each_point_within_unordered(
                    self.net.node(id).pos,
                    self.cfg.rs,
                    |pid, _| cover[pid] += 1,
                );
            }
        }
        self.duty_cover.iter().copied().min().unwrap_or(u32::MAX)
    }

    /// Attempts one restoration episode: heals the map with the placer
    /// under the remaining spare budget and folds every new sensor into
    /// the network, the node books, the watch table and the rotation.
    /// Returns whether anything was placed.
    fn try_restore(&mut self, now: Time) -> bool {
        let spares_left = self.e.spare_budget.saturating_sub(self.report.extra_nodes);
        if spares_left == 0 {
            return false;
        }
        let mut rcfg = self.cfg.clone();
        rcfg.max_new_nodes = spares_left;
        // Heal to the deployment's own coverage requirement, not just the
        // rotation target: a hole patched to bare target coverage caps the
        // next partition at a single shift and silently collapses the whole
        // network back to always-on.
        rcfg.k = self.cfg.k.max(self.rot.target_coverage);
        // The loop injects the chaos plan itself (step (a)); a placer
        // handed it would replay it from t=0 in its own node numbering and
        // retire sensors whose nodes are alive and beating.
        rcfg.chaos = None;
        let first_new = self.map.n_sensors();
        let outcome = self.placer.place(self.map, &rcfg);
        if outcome.placed.is_empty() {
            return false;
        }
        self.report.extra_nodes += outcome.placed.len();
        self.report.restorations += 1;
        // The placer registered the sensors in the map, after every
        // sensor it held before; mirror each into the network, then fold
        // it into the least loaded shift so the rotation absorbs it.
        for sid in first_new..self.map.n_sensors() {
            if !self.map.sensor_active(sid) {
                continue;
            }
            let id = self.mirror(sid);
            if self.schedule.n_shifts() > 1 {
                if let Some(si) = self.schedule.least_loaded_shift() {
                    self.schedule.assign(id, si);
                }
            }
            self.watch.introduce(&mut self.net, id, now);
            self.cfg
                .trace
                .emit(TraceEvent::NodeWake { node: id as u64 });
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::CentralizedGreedy;
    use decor_geom::{Aabb, Point};
    use decor_lds::halton_points;
    use decor_net::FaultPlan;

    fn covered_map(k: u32, n_pts: usize) -> (CoverageMap, DeploymentConfig) {
        let field = Aabb::square(60.0);
        let mut cfg = DeploymentConfig::with_k(k);
        cfg.rotation = Some(RotationConfig::default());
        let mut map = CoverageMap::new(halton_points(n_pts, &field), &field, &cfg);
        CentralizedGreedy.place(&mut map, &cfg);
        assert_eq!(map.count_below(k), 0);
        (map, cfg)
    }

    fn quick(rotate: bool) -> EnduranceConfig {
        EnduranceConfig {
            rotate,
            max_periods: 2_000,
            ..EnduranceConfig::default()
        }
    }

    #[test]
    fn rotation_outlives_always_on() {
        let run = |rotate: bool| {
            let (mut map, cfg) = covered_map(3, 250);
            run_endurance(&mut map, &CentralizedGreedy, &cfg, &quick(rotate))
        };
        let on = run(false);
        let rotated = run(true);
        assert!(!on.ended_by_horizon, "baseline must actually die");
        assert!(!rotated.ended_by_horizon, "rotation must actually die");
        assert!(rotated.shifts > 1, "k=3 deployment must split into shifts");
        let ext = rotated.extension_over(&on);
        assert!(
            ext >= 2.0,
            "rotation must at least double lifetime: {} vs {} ({ext:.2}x)",
            rotated.lifetime_periods,
            on.lifetime_periods
        );
    }

    #[test]
    fn no_false_positives_and_suppression_proves_sleep() {
        // With S shifts a node sleeps S-1 consecutive periods; a 2-period
        // timeout guarantees that sleep stretch crosses the would-alarm
        // threshold even for the 3-shift schedule this deployment yields.
        let (mut map, cfg) = covered_map(3, 250);
        let mut e = quick(true);
        e.timeout_periods = 2;
        let report = run_endurance(&mut map, &CentralizedGreedy, &cfg, &e);
        assert_eq!(report.false_positives, 0, "sleepers declared dead");
        assert!(
            report.sleeping_suppressed > 0,
            "no timeout ever crossed while asleep — suppression untested"
        );
    }

    #[test]
    fn always_on_never_suppresses() {
        let (mut map, cfg) = covered_map(3, 250);
        let report = run_endurance(&mut map, &CentralizedGreedy, &cfg, &quick(false));
        assert_eq!(report.shifts, 0);
        assert_eq!(report.sleeping_suppressed, 0);
        assert_eq!(report.false_positives, 0);
    }

    #[test]
    fn endurance_is_deterministic() {
        let run = || {
            let (mut map, cfg) = covered_map(3, 200);
            run_endurance(&mut map, &CentralizedGreedy, &cfg, &quick(true))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn disaster_kills_and_detection_notices() {
        // The greedy stacks k co-located sensors per benefit-max point, so
        // a survivable disaster needs a dense point set (every point keeps
        // a neighboring stack within rs) and a disk small enough to take
        // one stack's worth, not a whole neighborhood.
        let (mut map, cfg) = covered_map(3, 500);
        let mut e = quick(true);
        e.disasters = vec![(3, Disk::new(Point::new(30.0, 30.0), 2.0))];
        let report = run_endurance(&mut map, &CentralizedGreedy, &cfg, &e);
        assert!(report.disaster_deaths > 0, "the disk must hit someone");
        assert!(
            report.detected_deaths > 0,
            "neighbors must notice the silence"
        );
        assert_eq!(report.false_positives, 0);
    }

    #[test]
    fn spares_heal_a_disaster_and_extend_lifetime() {
        let run = |spares: usize| {
            let (mut map, cfg) = covered_map(3, 250);
            let mut e = quick(true);
            e.spare_budget = spares;
            e.disasters = vec![(3, Disk::new(Point::new(30.0, 30.0), 14.0))];
            run_endurance(&mut map, &CentralizedGreedy, &cfg, &e)
        };
        let bare = run(0);
        let healed = run(60);
        assert!(healed.extra_nodes > 0, "spares must be spent");
        assert!(healed.restorations > 0);
        assert!(healed.reschedules > 0, "replacements re-enter the rotation");
        assert!(
            healed.lifetime_periods >= bare.lifetime_periods,
            "healing cannot shorten life: {} vs {}",
            healed.lifetime_periods,
            bare.lifetime_periods
        );
    }

    #[test]
    fn chaos_crashes_count_separately() {
        let (mut map, mut cfg) = covered_map(3, 250);
        // Crash two nodes early via the chaos plan.
        cfg.chaos = Some(FaultPlan::parse("0 crash 0\n1000 crash 7\n").unwrap());
        let report = run_endurance(&mut map, &CentralizedGreedy, &cfg, &quick(true));
        assert_eq!(report.chaos_deaths, 2);
        assert_eq!(report.false_positives, 0);
    }

    #[test]
    fn a_one_period_timeout_is_a_config_error() {
        let e = EnduranceConfig {
            timeout_periods: 1,
            ..EnduranceConfig::default()
        };
        let err = e.validate().unwrap_err();
        assert!(err.contains("at least 2 periods"), "{err}");
        assert_eq!(EnduranceConfig::default().validate(), Ok(()));
        let (mut map, cfg) = covered_map(1, 150);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_endurance(&mut map, &CentralizedGreedy, &cfg, &e)
        }));
        assert!(run.is_err(), "run_endurance must refuse the config");
    }

    #[test]
    fn horizon_caps_an_immortal_run() {
        let (mut map, mut cfg) = covered_map(1, 150);
        // Giant batteries: nobody dies before the horizon.
        cfg.rotation = Some(RotationConfig {
            battery: 1e12,
            ..RotationConfig::default()
        });
        let e = EnduranceConfig {
            max_periods: 50,
            ..EnduranceConfig::default()
        };
        let report = run_endurance(&mut map, &CentralizedGreedy, &cfg, &e);
        assert!(report.ended_by_horizon);
        assert_eq!(report.lifetime_periods, 50);
    }
}
