//! The heartbeat failure detector of §3.2.
//!
//! "Neighboring nodes periodically exchange meta-information about their
//! positions, with a period `Tc`. Once a node stops receiving such messages
//! from one of its neighbors, this indicates that the neighbor has failed.
//! The nodes do not need to be synchronized."
//!
//! [`WatchTable`] is the protocol's bookkeeping: a t=0 hello exchange
//! decides who watches whom, and each heartbeat refreshes when its
//! hearers last heard the sender. Both detectors keep it — each with its
//! own suspicion policy:
//!
//! - [`HeartbeatSim`] runs the protocol on the discrete-event engine:
//!   every alive node broadcasts a heartbeat each period (with a per-node
//!   random phase — *unsynchronized*) and declares a neighbor failed once
//!   its silence spans `timeout_periods` periods ([`silent_too_long`]);
//! - `decor_core::run_endurance` beats once per rotation period and
//!   counts strikes against neighbors that were expected on duty but
//!   silent ([`Watch::strikes`]).

use crate::event::{EventQueue, Time};
use crate::messages::Message;
use crate::network::Network;
use crate::node::NodeId;
use crate::rotation::ShiftSchedule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Heartbeat protocol parameters.
#[derive(Clone, Copy, Debug)]
pub struct HeartbeatConfig {
    /// Heartbeat period `Tc` in ticks.
    pub period: Time,
    /// A neighbor is declared failed after this many silent periods.
    /// Must be at least 2 (one period of silence can be pure phase skew).
    pub timeout_periods: u32,
    /// Seed for the per-node phase jitter.
    pub seed: u64,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            period: 1_000,
            timeout_periods: 3,
            seed: 0,
        }
    }
}

/// Outcome of a detection simulation.
#[derive(Clone, Debug, Default)]
pub struct DetectionReport {
    /// For every failed node that was detected: the earliest detection
    /// time and the detecting observer.
    pub first_detection: BTreeMap<NodeId, (Time, NodeId)>,
    /// Failed nodes that no alive neighbor ever detected (isolated nodes).
    pub undetected: Vec<NodeId>,
    /// Nodes suspected failed that were actually alive, with the earliest
    /// suspicion time and observer. Empty on a loss-free medium; on a
    /// lossy one, `timeout_periods` consecutively lost heartbeats trigger
    /// a false alarm (probability `loss^timeout` per window).
    pub false_positives: BTreeMap<NodeId, (Time, NodeId)>,
    /// Heartbeat messages broadcast during the run.
    pub heartbeats_sent: u64,
    /// Suspicions suppressed because the silent neighbor was scheduled
    /// asleep by the rotation (see [`crate::rotation`]): the silence
    /// crossed the timeout, but the three-state lifecycle says `Asleep`,
    /// not `Dead`, so no alarm was raised. Always 0 without a schedule.
    pub sleeping_suppressed: u64,
}

impl DetectionReport {
    /// Worst-case detection latency relative to the failure instant,
    /// `None` when nothing was detected.
    pub fn max_latency(&self, fail_at: Time) -> Option<Time> {
        self.first_detection
            .values()
            .map(|&(t, _)| t.saturating_sub(fail_at))
            .max()
    }
}

/// The suspicion predicate of §3.2, extracted pure so the miss-count
/// boundary is testable exactly: an observer suspects a neighbor when the
/// silence `now - last_heard` spans at least `timeout_periods` full
/// heartbeat periods — *exactly* at `period * timeout_periods` ticks, not
/// one tick sooner. Any heard heartbeat moves `last_heard` forward and
/// thereby resets the silence window from scratch.
///
/// Saturating: an observer clock behind the last-heard stamp (impossible
/// in the simulator, defensive for callers) reads as zero silence.
pub fn silent_too_long(now: Time, last_heard: Time, period: Time, timeout_periods: u32) -> bool {
    now.saturating_sub(last_heard) >= period * timeout_periods as Time
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Node broadcasts its heartbeat and reschedules.
    Beat(NodeId),
    /// Node scans its neighbor table for silent neighbors.
    Check(NodeId),
    /// The failure instant: victims drop out of the network.
    Fail,
    /// A shift boundary: re-apply the schedule's sleep flags to the
    /// network. Pre-scheduled before all Beats/Checks so FIFO tie-breaking
    /// pops it first at an equal tick — a node waking at `t` beats at `t`.
    Rotate,
}

/// What one observer knows about one neighbor it watches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Watch {
    /// The watched neighbor.
    pub nb: NodeId,
    /// When the observer last heard the neighbor (its hello or a beat).
    pub last_heard: Time,
    /// Consecutive expected-but-silent periods, for detectors that count
    /// strikes per period instead of measuring silence ([`HeartbeatSim`]
    /// leaves it at 0).
    pub strikes: u32,
}

/// The neighbor-watch table both detectors keep: for every observer, a
/// dense list of the neighbors it watches, sorted by id.
///
/// Who watches whom is settled by hellos, never by later traffic: a
/// heartbeat only refreshes entries that already exist, so a neighbor an
/// observer missed at hello time stays unwatched.
#[derive(Clone, Debug, Default)]
pub struct WatchTable {
    lists: Vec<Vec<Watch>>,
}

impl WatchTable {
    /// The t=0 hello exchange (charged to the maintenance plane): every
    /// alive node broadcasts a [`Message::Hello`] in id order, and each
    /// hearer starts watching it, last heard at 0.
    pub fn hello(net: &mut Network) -> WatchTable {
        let mut lists = vec![Vec::new(); net.len()];
        for id in 0..net.len() {
            if !net.is_alive(id) {
                continue;
            }
            let pos = net.node(id).pos;
            for observer in net.broadcast(id, Message::Hello { pos }) {
                lists[observer].push(Watch {
                    nb: id,
                    last_heard: 0,
                    strikes: 0,
                });
            }
        }
        WatchTable { lists }
    }

    /// Node `id` broadcasts a [`Message::Heartbeat`] at `now`; every
    /// hearer that watches it records the beat.
    pub fn beat(&mut self, net: &mut Network, id: NodeId, now: Time) {
        let pos = net.node(id).pos;
        for observer in net.broadcast(id, Message::Heartbeat { pos }) {
            let list = &mut self.lists[observer];
            if let Ok(i) = list.binary_search_by_key(&id, |w| w.nb) {
                list[i].last_heard = now;
            }
        }
    }

    /// Introduces node `id`, newer than every node already in the table,
    /// with a symmetric hello at `now`: each hearer starts watching it and
    /// it starts watching each hearer.
    pub fn introduce(&mut self, net: &mut Network, id: NodeId, now: Time) {
        debug_assert!(id >= self.lists.len(), "introduced nodes are new");
        self.lists.resize_with(id + 1, Vec::new);
        let pos = net.node(id).pos;
        let fresh = |nb| Watch {
            nb,
            last_heard: now,
            strikes: 0,
        };
        for observer in net.broadcast(id, Message::Hello { pos }) {
            self.lists[observer].push(fresh(id));
            self.lists[id].push(fresh(observer));
        }
    }

    /// The neighbors `observer` watches, by ascending id.
    pub fn watched_by(&self, observer: NodeId) -> &[Watch] {
        &self.lists[observer]
    }

    /// Mutable [`WatchTable::watched_by`], for strike bookkeeping.
    pub fn watched_by_mut(&mut self, observer: NodeId) -> &mut [Watch] {
        &mut self.lists[observer]
    }
}

/// Discrete-event heartbeat detector simulation.
pub struct HeartbeatSim {
    cfg: HeartbeatConfig,
}

impl HeartbeatSim {
    /// Creates a simulator with the given configuration.
    ///
    /// Panics if `timeout_periods < 2` — with unsynchronized phases a
    /// single silent period cannot distinguish skew from failure.
    pub fn new(cfg: HeartbeatConfig) -> Self {
        assert!(cfg.period > 0, "heartbeat period must be positive");
        assert!(
            cfg.timeout_periods >= 2,
            "timeout must span at least 2 periods to tolerate phase skew"
        );
        HeartbeatSim { cfg }
    }

    /// Runs the protocol on `net`: heartbeats start at time 0, the nodes in
    /// `victims` fail at `fail_at`, and the simulation ends at `horizon`.
    ///
    /// Returns who detected which failure and when. The network is mutated
    /// (victims fail, heartbeat traffic is accounted in `net.stats`).
    pub fn run(
        &self,
        net: &mut Network,
        victims: &[NodeId],
        fail_at: Time,
        horizon: Time,
    ) -> DetectionReport {
        self.run_inner(net, victims, fail_at, horizon, None)
    }

    /// Like [`HeartbeatSim::run`], but rotation-aware: nodes scheduled
    /// asleep by `schedule` pause their heartbeats and checks, observers
    /// measure a neighbor's silence only across windows where *both* ends
    /// were scheduled awake, and a timeout crossed while the neighbor is
    /// asleep is counted in
    /// [`DetectionReport::sleeping_suppressed`] instead of raising an
    /// alarm. With an empty or single-shift schedule this is exactly
    /// [`HeartbeatSim::run`].
    pub fn run_scheduled(
        &self,
        net: &mut Network,
        victims: &[NodeId],
        fail_at: Time,
        horizon: Time,
        schedule: &ShiftSchedule,
    ) -> DetectionReport {
        self.run_inner(net, victims, fail_at, horizon, Some(schedule))
    }

    fn run_inner(
        &self,
        net: &mut Network,
        victims: &[NodeId],
        fail_at: Time,
        horizon: Time,
        schedule: Option<&ShiftSchedule>,
    ) -> DetectionReport {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut q: EventQueue<Ev> = EventQueue::new();
        let period = self.cfg.period;
        let mut table = WatchTable::hello(net);

        // Shift boundaries, pre-scheduled before any Beat/Check so the
        // queue's FIFO tie-break applies the new sleep flags first when a
        // boundary coincides with a beat. Rotating schedules only: an
        // always-on schedule must leave the event stream bit-identical to
        // the schedule-free run.
        let rotating = schedule.filter(|s| s.n_shifts() > 1);
        if let Some(sched) = rotating {
            let mut t = 0;
            while t <= horizon {
                q.schedule(t, Ev::Rotate);
                t += sched.period();
            }
        }

        // Unsynchronized start: each node's first beat at a random phase.
        for id in net.alive_ids() {
            let phase = rng.gen_range(0..period);
            q.schedule(phase, Ev::Beat(id));
            q.schedule(phase + period, Ev::Check(id));
        }
        q.schedule(fail_at, Ev::Fail);

        let mut report = DetectionReport::default();
        let mut detected: BTreeMap<NodeId, (Time, NodeId)> = BTreeMap::new();

        while let Some((now, ev)) = q.pop() {
            if now > horizon {
                break;
            }
            match ev {
                Ev::Fail => {
                    for &v in victims {
                        net.fail_node(v);
                    }
                }
                Ev::Rotate => {
                    if let Some(sched) = rotating {
                        sched.apply_sleep_flags(net, now);
                    }
                }
                Ev::Beat(id) => {
                    if !net.is_alive(id) {
                        continue; // dead nodes stop beating — that is the signal
                    }
                    // A scheduled-asleep node's radio is off: it skips the
                    // beat but keeps its cadence for the next awake shift.
                    let asleep = rotating.is_some_and(|s| s.is_scheduled_asleep(id, now));
                    if !asleep {
                        table.beat(net, id, now);
                        report.heartbeats_sent += 1;
                    }
                    q.schedule(now + period, Ev::Beat(id));
                }
                Ev::Check(id) => {
                    if !net.is_alive(id) {
                        continue;
                    }
                    if rotating.is_some_and(|s| s.is_scheduled_asleep(id, now)) {
                        // A sleeping observer scans nothing (radio off)
                        // but keeps its check cadence.
                        q.schedule(now + period, Ev::Check(id));
                        continue;
                    }
                    for w in table.watched_by(id) {
                        // Suspicion is based purely on silence: the
                        // observer cannot consult ground truth. On a lossy
                        // medium this can misfire on alive neighbors
                        // (classified below).
                        let (nb, last) = (w.nb, w.last_heard);
                        match rotating {
                            Some(sched) if sched.is_scheduled_asleep(nb, now) => {
                                // Three-state lifecycle: the schedule says
                                // Asleep, not Dead. Count the would-be
                                // alarm, never raise it.
                                if silent_too_long(now, last, period, self.cfg.timeout_periods) {
                                    report.sleeping_suppressed += 1;
                                }
                            }
                            Some(sched) => {
                                // Silence only counts across windows where
                                // both ends were on duty: a neighbor (or
                                // the observer itself) fresh off a sleep
                                // shift gets a full timeout before
                                // suspicion.
                                let eff = last
                                    .max(sched.last_wake_at(nb, now))
                                    .max(sched.last_wake_at(id, now));
                                if silent_too_long(now, eff, period, self.cfg.timeout_periods) {
                                    detected.entry(nb).or_insert((now, id));
                                }
                            }
                            None => {
                                if silent_too_long(now, last, period, self.cfg.timeout_periods) {
                                    detected.entry(nb).or_insert((now, id));
                                }
                            }
                        }
                    }
                    q.schedule(now + period, Ev::Check(id));
                }
            }
        }

        report.undetected = victims
            .iter()
            .copied()
            .filter(|v| !detected.contains_key(v))
            .collect();
        // Classify suspicions: real failures vs false alarms. A suspicion
        // of a node that is alive at the end of the run (i.e. never in
        // `victims`) is a false positive.
        let victim_set: std::collections::BTreeSet<NodeId> = victims.iter().copied().collect();
        for (nb, when) in detected {
            if victim_set.contains(&nb) {
                report.first_detection.insert(nb, when);
            } else {
                report.false_positives.insert(nb, when);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decor_geom::{Aabb, Point};

    fn line_network(n: usize, spacing: f64) -> Network {
        let mut net = Network::new(Aabb::square(100.0));
        for i in 0..n {
            net.add_node(Point::new(5.0 + i as f64 * spacing, 50.0), 4.0, 8.0);
        }
        net
    }

    fn cfg(seed: u64) -> HeartbeatConfig {
        HeartbeatConfig {
            period: 100,
            timeout_periods: 3,
            seed,
        }
    }

    fn watched(table: &WatchTable, observer: NodeId) -> Vec<(NodeId, Time)> {
        table
            .watched_by(observer)
            .iter()
            .map(|w| (w.nb, w.last_heard))
            .collect()
    }

    #[test]
    fn hello_builds_id_sorted_watch_lists() {
        let mut net = line_network(4, 5.0);
        let table = WatchTable::hello(&mut net);
        assert_eq!(watched(&table, 0), vec![(1, 0)]);
        assert_eq!(watched(&table, 1), vec![(0, 0), (2, 0)]);
        assert_eq!(watched(&table, 3), vec![(2, 0)]);
        assert_eq!(net.stats.maintenance_sent, 4, "one hello per node");
    }

    #[test]
    fn a_beat_refreshes_only_existing_watches() {
        // Node 2 sleeps through the hellos: nobody watches it, and it
        // watches nobody. Its later beats are heard but change nothing.
        let mut net = line_network(3, 5.0);
        net.set_sleeping(2, true);
        let mut table = WatchTable::hello(&mut net);
        net.set_sleeping(2, false);
        table.beat(&mut net, 2, 50);
        assert_eq!(watched(&table, 1), vec![(0, 0)]);
        table.beat(&mut net, 1, 60);
        assert_eq!(watched(&table, 0), vec![(1, 60)]);
        assert!(watched(&table, 2).is_empty());
    }

    #[test]
    fn introduce_watches_both_ways() {
        let mut net = line_network(3, 5.0);
        let mut table = WatchTable::hello(&mut net);
        let id = net.add_node(Point::new(18.0, 50.0), 4.0, 8.0);
        table.introduce(&mut net, id, 70);
        assert_eq!(watched(&table, 2), vec![(1, 0), (id, 70)]);
        assert_eq!(watched(&table, id), vec![(1, 70), (2, 70)]);
        assert!(table.watched_by(id).iter().all(|w| w.strikes == 0));
    }

    #[test]
    fn failed_node_is_detected_by_neighbors() {
        let mut net = line_network(3, 5.0);
        let sim = HeartbeatSim::new(cfg(1));
        let report = sim.run(&mut net, &[1], 500, 2000);
        assert!(report.first_detection.contains_key(&1));
        assert!(report.undetected.is_empty());
        let (t, observer) = report.first_detection[&1];
        assert!(t > 500, "detection after the failure instant");
        assert!(observer == 0 || observer == 2);
    }

    #[test]
    fn detection_latency_is_bounded_by_timeout_plus_period() {
        let mut net = line_network(5, 5.0);
        let sim = HeartbeatSim::new(cfg(2));
        let report = sim.run(&mut net, &[2], 1000, 10_000);
        let latency = report.max_latency(1000).expect("detected");
        // Worst case: last beat right before failure, timeout 3 periods,
        // check up to one period later => <= 5 periods with slack.
        assert!(latency <= 500, "latency {latency}");
        assert!(latency >= 200, "cannot detect faster than ~2 periods");
    }

    #[test]
    fn no_false_positives_without_failures() {
        let mut net = line_network(4, 5.0);
        let sim = HeartbeatSim::new(cfg(3));
        let report = sim.run(&mut net, &[], 500, 5000);
        assert!(report.first_detection.is_empty());
        assert!(report.undetected.is_empty());
    }

    #[test]
    fn isolated_failure_goes_undetected() {
        // Node 2 is out of everyone's range.
        let mut net = line_network(2, 5.0);
        net.add_node(Point::new(90.0, 90.0), 4.0, 8.0);
        let sim = HeartbeatSim::new(cfg(4));
        let report = sim.run(&mut net, &[2], 500, 5000);
        assert_eq!(report.undetected, vec![2]);
    }

    #[test]
    fn simultaneous_failures_all_detected() {
        let mut net = line_network(6, 5.0);
        let sim = HeartbeatSim::new(cfg(5));
        let report = sim.run(&mut net, &[1, 3], 700, 8000);
        assert!(report.first_detection.contains_key(&1));
        assert!(report.first_detection.contains_key(&3));
    }

    #[test]
    fn heartbeat_traffic_is_maintenance_plane() {
        let mut net = line_network(3, 5.0);
        let sim = HeartbeatSim::new(cfg(6));
        let report = sim.run(&mut net, &[], 100, 1000);
        assert!(report.heartbeats_sent > 0);
        assert_eq!(net.stats.protocol_sent, 0);
        assert!(net.stats.maintenance_sent >= report.heartbeats_sent);
    }

    #[test]
    fn dead_nodes_send_no_heartbeats_after_failure() {
        let mut net = line_network(2, 5.0);
        let sim = HeartbeatSim::new(cfg(7));
        let horizon = 10_000;
        let report = sim.run(&mut net, &[1], 0, horizon);
        // Node 1 fails at t=0 (before its first beat fires it may beat once
        // if its phase event was scheduled before Fail pops — FIFO order
        // puts Beat first only if scheduled at the same tick earlier).
        // Either way, its beats must stop early.
        let periods = horizon / 100;
        assert!(
            report.heartbeats_sent <= periods + 2,
            "sent {} but only one node should keep beating",
            report.heartbeats_sent
        );
    }

    #[test]
    fn loss_free_medium_never_false_positives() {
        let mut net = line_network(6, 5.0);
        let sim = HeartbeatSim::new(cfg(11));
        let report = sim.run(&mut net, &[2], 500, 8000);
        assert!(report.false_positives.is_empty());
        assert!(report.first_detection.contains_key(&2));
    }

    #[test]
    fn heavy_loss_triggers_false_positives() {
        // 70% loss: P(3 consecutive heartbeats lost) = 0.343 per window,
        // so over 30 periods false alarms are near-certain.
        let mut net = line_network(8, 5.0);
        net.set_loss(0.7, 42);
        let sim = HeartbeatSim::new(cfg(12));
        let report = sim.run(&mut net, &[], 500, 30_000);
        assert!(
            !report.false_positives.is_empty(),
            "70% loss must cause false alarms"
        );
        assert!(report.first_detection.is_empty(), "nobody actually failed");
    }

    #[test]
    fn moderate_loss_still_detects_real_failures() {
        let mut net = line_network(6, 5.0);
        net.set_loss(0.2, 7);
        let sim = HeartbeatSim::new(cfg(13));
        let report = sim.run(&mut net, &[3], 500, 10_000);
        assert!(
            report.first_detection.contains_key(&3),
            "real failure must still be caught through 20% loss"
        );
    }

    #[test]
    fn run_is_deterministic_in_seed() {
        let run = |seed| {
            let mut net = line_network(5, 5.0);
            let sim = HeartbeatSim::new(cfg(seed));
            let r = sim.run(&mut net, &[2], 500, 5000);
            (r.first_detection, r.heartbeats_sent)
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn suspicion_fires_at_exactly_the_miss_threshold() {
        // Declared failed after *exactly* `timeout_periods` silent
        // periods — not one tick sooner, not one period later.
        for period in [1u64, 10, 100, 1_000] {
            for tp in 2u32..=5 {
                let window = period * tp as Time;
                let last = 700 * period; // arbitrary positive last-heard
                assert!(
                    !silent_too_long(last + window - 1, last, period, tp),
                    "period {period}, tp {tp}: fired a tick early"
                );
                assert!(
                    silent_too_long(last + window, last, period, tp),
                    "period {period}, tp {tp}: missed the exact boundary"
                );
                assert!(
                    silent_too_long(last + window + 1, last, period, tp),
                    "period {period}, tp {tp}: suspicion must latch"
                );
            }
        }
    }

    #[test]
    fn single_late_heartbeat_resets_the_silence_window() {
        let (period, tp) = (100u64, 3u32);
        let window = period * tp as Time;
        // Silent since t=0: about to be declared at t=300...
        assert!(silent_too_long(window, 0, period, tp));
        // ...but one heartbeat at t=299 resets the count from scratch:
        let heard = window - 1;
        assert!(!silent_too_long(window, heard, period, tp));
        assert!(!silent_too_long(heard + window - 1, heard, period, tp));
        // and the full threshold must elapse again after it.
        assert!(silent_too_long(heard + window, heard, period, tp));
    }

    #[test]
    fn suspicion_clock_saturates() {
        // An observer stamp ahead of `now` reads as zero silence, never
        // as a huge wrapped value.
        assert!(!silent_too_long(50, 100, 10, 2));
    }

    #[test]
    fn sim_detection_time_matches_the_pure_predicate() {
        // With one observer the sim's detection instant must be the first
        // Check tick where `silent_too_long` holds over the victim's true
        // last beat: no off-by-one between the extracted predicate and
        // the event loop. The victim's last beat lands in
        // [fail_at - period, fail_at], and detection fires at the first
        // check in [last + timeout, last + timeout + period), so the
        // detection tick is confined to
        // [fail_at + timeout - period, fail_at + timeout + period).
        for seed in 0..20u64 {
            let mut net = line_network(2, 5.0);
            let sim = HeartbeatSim::new(cfg(seed));
            let fail_at = 500;
            let report = sim.run(&mut net, &[1], fail_at, 5_000);
            let (t, observer) = report.first_detection[&1];
            assert_eq!(observer, 0);
            assert!(
                (fail_at + 200..fail_at + 400).contains(&t),
                "seed {seed}: detection at {t} outside the exact window"
            );
        }
    }

    #[test]
    fn sleeping_node_is_never_suspected() {
        // Two alternating shifts, shift period 4 heartbeat periods: every
        // node is silent for 400-tick stretches — far past the 300-tick
        // timeout — yet the three-state lifecycle must classify that
        // silence as Asleep, not Dead: zero false positives, and the
        // suppression counter proves the timeout actually crossed.
        use crate::rotation::ShiftSchedule;
        let mut net = line_network(6, 5.0);
        let sched = ShiftSchedule::new(vec![vec![0, 2, 4], vec![1, 3, 5]], 400, 6);
        let sim = HeartbeatSim::new(cfg(31));
        let report = sim.run_scheduled(&mut net, &[], 100_000, 8_000, &sched);
        assert!(
            report.false_positives.is_empty(),
            "scheduled sleep misread as failure: {report:?}"
        );
        assert!(report.first_detection.is_empty());
        assert!(
            report.sleeping_suppressed > 0,
            "the timeout never crossed — the suppression path was not exercised"
        );
    }

    #[test]
    fn dead_node_is_detected_by_its_shift_mates() {
        // Victim 1 shares shift 0 with its watcher 0: a real failure is
        // still caught under rotation, during their common awake windows.
        use crate::rotation::ShiftSchedule;
        let mut net = line_network(4, 5.0);
        let sched = ShiftSchedule::new(vec![vec![0, 1], vec![2, 3]], 800, 4);
        let sim = HeartbeatSim::new(cfg(32));
        let report = sim.run_scheduled(&mut net, &[1], 100, 20_000, &sched);
        assert!(
            report.first_detection.contains_key(&1),
            "rotation must not mask a real failure: {report:?}"
        );
        assert!(report.false_positives.is_empty(), "{report:?}");
    }

    #[test]
    fn fresh_waker_gets_a_full_timeout_window() {
        // Detection of a same-shift victim can only fire once the shift
        // has been awake a full timeout: silence accrued while either end
        // slept is not evidence.
        use crate::rotation::ShiftSchedule;
        let mut net = line_network(4, 5.0);
        let sched = ShiftSchedule::new(vec![vec![0, 1], vec![2, 3]], 800, 4);
        let sim = HeartbeatSim::new(cfg(33));
        // Fail during the victim's *off* shift: [800, 1600).
        let report = sim.run_scheduled(&mut net, &[1], 900, 20_000, &sched);
        let (t, _) = report.first_detection[&1];
        assert!(
            t >= 1600 + 300,
            "suspected at {t}, before the shift was awake a full timeout"
        );
    }

    #[test]
    fn always_on_schedule_matches_plain_run() {
        use crate::rotation::ShiftSchedule;
        let plain = {
            let mut net = line_network(5, 5.0);
            let sim = HeartbeatSim::new(cfg(34));
            let r = sim.run(&mut net, &[2], 500, 5_000);
            (r.first_detection, r.heartbeats_sent, net.stats.total_sent)
        };
        let scheduled = {
            let mut net = line_network(5, 5.0);
            let sim = HeartbeatSim::new(cfg(34));
            let sched = ShiftSchedule::always_on(400, 5);
            let r = sim.run_scheduled(&mut net, &[2], 500, 5_000, &sched);
            assert_eq!(r.sleeping_suppressed, 0);
            (r.first_detection, r.heartbeats_sent, net.stats.total_sent)
        };
        assert_eq!(plain, scheduled, "always-on rotation must be a no-op");
    }

    #[test]
    fn rotation_halves_the_heartbeat_traffic() {
        use crate::rotation::ShiftSchedule;
        let beats = |sched: Option<ShiftSchedule>| {
            let mut net = line_network(6, 5.0);
            let sim = HeartbeatSim::new(cfg(35));
            match sched {
                Some(s) => sim.run_scheduled(&mut net, &[], 100_000, 20_000, &s),
                None => sim.run(&mut net, &[], 100_000, 20_000),
            }
            .heartbeats_sent
        };
        let on = beats(None);
        let rotated = beats(Some(ShiftSchedule::new(
            vec![vec![0, 2, 4], vec![1, 3, 5]],
            400,
            6,
        )));
        assert!(
            rotated * 2 <= on + 6,
            "two disjoint shifts must ~halve beats: {rotated} vs {on}"
        );
    }

    #[test]
    #[should_panic(expected = "timeout must span")]
    fn tiny_timeout_panics() {
        let _ = HeartbeatSim::new(HeartbeatConfig {
            period: 10,
            timeout_periods: 1,
            seed: 0,
        });
    }
}
