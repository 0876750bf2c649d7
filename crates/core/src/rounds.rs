//! The synchronous round protocol shared by the restoration placers.
//!
//! Grid and Voronoi DECOR (§3.1–3.3) and the hole healer run the same
//! round: inject the faults due by now, decide from the coverage snapshot
//! at round start, place, notify, close the round, and repeat until the
//! field is `k`-covered. [`Rounds`] owns everything in that loop that is
//! not a decision:
//! - the accounting [`Network`] and [`Transport`], drawn from the
//!   [`SimScratch`] pool and handed back when the run finishes;
//! - the chaos engine and crash retirement;
//! - the `RoundBegin`/`RoundEnd`/`CoverageDelta` events;
//! - the [`PlacementOutcome`] under construction, with one
//!   [`TracePoint`] per closed round;
//! - the run's end: convergence, the invariant verdict and the transport
//!   half of the [`MessageStats`].
//!
//! A scheme keeps its decision rule, its notice targets, its ledger
//! policy and its message accounting.
//!
//! Chaos (DESIGN.md §10): the faults due by the round clock land when a
//! round begins, and under the transport clock further faults land
//! between retransmissions inside [`Rounds::flush`]. A covered field with
//! faults still scheduled would never reach their times, so the protocol
//! forces the next batch: [`Rounds::end_round`] forces it as a round
//! closes, and [`Rounds::force_round`] spends an empty round on it when a
//! scheme has nothing left to decide. Every crash is retired the same
//! way — the invariant checker learns the death and the map deactivates
//! the sensor — and then passed to the scheme's hook, which drops
//! whatever the scheme derived from the dead sensor.

use crate::config::DeploymentConfig;
use crate::coverage::{CoverageMap, SensorId};
use crate::metrics::{MessageStats, PlacementOutcome, TracePoint};
use crate::scratch::SimScratch;
use decor_geom::Point;
use decor_net::{ChaosEngine, DeliveryOutcome, MsgId, Network, NodeId, Time, Transport};
use decor_trace::TraceEvent;

/// Safety cap on synchronous rounds.
const MAX_ROUNDS: usize = 100_000;

/// The clock a run's rounds inject faults by and stamp trace time with.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Clock {
    /// The transport's retry clock. Stamped when every round begins and
    /// when a round that placed or notified closes.
    Transport,
    /// `round × tick`, for a scheme that sends no messages. Stamped only
    /// under chaos, so a fault-free run's trace keeps time 0.
    PerRound(Time),
}

/// Round-protocol buffers, pooled inside [`SimScratch`] so warm runs
/// reuse their capacity. Both are cleared before any read.
#[derive(Default)]
pub(crate) struct RoundScratch {
    /// Sensor id per network node id.
    sid_of: Vec<SensorId>,
    /// Per-round transport conclusions, sorted by message id.
    flushed: Vec<(MsgId, DeliveryOutcome)>,
}

/// One placer run's round protocol; see the module docs.
pub(crate) struct Rounds<'a> {
    cfg: &'a DeploymentConfig,
    scheme: &'static str,
    clock: Clock,
    /// Communication radius of every node the run adds.
    rc: f64,
    /// Accounting network: one node per active sensor.
    pub(crate) net: Network,
    /// Reliable transport the schemes' notices ride.
    pub(crate) transport: Transport,
    chaos: Option<ChaosEngine<'a>>,
    sid_of: Vec<SensorId>,
    flushed: Vec<(MsgId, DeliveryOutcome)>,
    out: PlacementOutcome,
    round: u64,
    /// Placements made before the current round began.
    placed_at_begin: usize,
}

impl<'a> Rounds<'a> {
    /// Starts a run: takes the pooled network and transport, reset to the
    /// state a fresh construction yields, gives every active sensor of
    /// `map` a node of radius `rc` (in sensor-id order), and records the
    /// initial trace point.
    pub(crate) fn begin(
        scheme: &'static str,
        clock: Clock,
        rc: f64,
        map: &CoverageMap,
        cfg: &'a DeploymentConfig,
        pool: &mut SimScratch,
    ) -> Self {
        let field = *map.field();
        let mut net = match pool.net.take() {
            Some(mut n) => {
                n.reset(field);
                n
            }
            None => Network::new(field),
        };
        cfg.link.apply(&mut net);
        net.set_trace(cfg.trace.clone());
        let transport = match pool.transport.take() {
            Some(mut t) => {
                t.reset(cfg.link.transport());
                t
            }
            None => Transport::new(cfg.link.transport()),
        };
        let mut sid_of = std::mem::take(&mut pool.rounds.sid_of);
        sid_of.clear();
        for sid in (0..map.n_sensors()).filter(|&sid| map.sensor_active(sid)) {
            net.add_node(map.sensor_pos(sid), cfg.rs, rc);
            sid_of.push(sid);
        }
        let initial = sid_of.len();
        let mut out = PlacementOutcome {
            initial_sensors: initial,
            ..PlacementOutcome::default()
        };
        out.trace.push(TracePoint {
            total_sensors: initial,
            fraction_k_covered: map.fraction_k_covered(cfg.k),
        });
        Rounds {
            cfg,
            scheme,
            clock,
            rc,
            net,
            transport,
            chaos: cfg.chaos.as_ref().map(ChaosEngine::borrowed),
            sid_of,
            flushed: std::mem::take(&mut pool.rounds.flushed),
            out,
            round: 0,
            placed_at_begin: 0,
        }
    }

    /// Index of the current round.
    pub(crate) fn round(&self) -> u64 {
        self.round
    }

    /// Sensors placed so far.
    pub(crate) fn placed(&self) -> usize {
        self.out.placed.len()
    }

    /// Sensor id of each network node, indexed by node id.
    pub(crate) fn sid_of(&self) -> &[SensorId] {
        &self.sid_of
    }

    /// Opens the next round, or returns `false` when the run must stop
    /// (the placement budget or [`MAX_ROUNDS`] is spent). The faults due
    /// by the clock land first, so a round decides without its dead.
    pub(crate) fn next_round(
        &mut self,
        map: &mut CoverageMap,
        retire: impl FnMut(&CoverageMap, NodeId, SensorId),
    ) -> bool {
        if self.placed() >= self.cfg.max_new_nodes || self.round as usize >= MAX_ROUNDS {
            return false;
        }
        let now = self.now();
        if let Some(ch) = self.chaos.as_mut() {
            ch.advance_to(&mut self.net, now);
            self.retire_crashed(map, retire);
        }
        if self.stamps() {
            self.cfg.trace.set_time(now);
        }
        self.cfg.trace.emit(TraceEvent::RoundBegin {
            scheme: self.scheme,
            round: self.round,
        });
        self.placed_at_begin = self.placed();
        true
    }

    /// Places a sensor at `pos`: adds it to the map and the network and
    /// traces the placement. Returns its sensor and node ids.
    pub(crate) fn place(
        &mut self,
        map: &mut CoverageMap,
        pos: Point,
        benefit: u64,
        agent: u64,
    ) -> (SensorId, NodeId) {
        let sid = map.add_sensor(pos, self.cfg.rs);
        let nid = self.net.add_node(pos, self.cfg.rs, self.rc);
        debug_assert_eq!(nid, self.sid_of.len());
        self.sid_of.push(sid);
        self.out.placed.push(pos);
        self.cfg.trace.emit(TraceEvent::SensorPlaced {
            x: pos.x,
            y: pos.y,
            benefit,
            agent,
        });
        (sid, nid)
    }

    /// Drives every notice sent this round to its outcome (read them back
    /// with [`Rounds::outcome`]). Under chaos the flush interleaves fault
    /// injection with the retry clock, so crashes land between
    /// retransmissions; they are retired before this returns.
    pub(crate) fn flush(
        &mut self,
        map: &mut CoverageMap,
        retire: impl FnMut(&CoverageMap, NodeId, SensorId),
    ) {
        match self.chaos.as_mut() {
            Some(ch) => self
                .transport
                .flush_chaos_into(&mut self.net, ch, &mut self.flushed),
            None => self.transport.flush_into(&mut self.net, &mut self.flushed),
        }
        // Ids are unique, so a sorted slice answers the outcome lookups.
        self.flushed.sort_unstable_by_key(|&(id, _)| id);
        self.retire_crashed(map, retire);
    }

    /// The outcome of notice `id` in the last flush (`None` if unflushed).
    pub(crate) fn outcome(&self, id: MsgId) -> Option<DeliveryOutcome> {
        self.flushed
            .binary_search_by_key(&id, |&(mid, _)| mid)
            .ok()
            .map(|ix| self.flushed[ix].1)
    }

    /// Closes the current round.
    pub(crate) fn close_round(&mut self, map: &CoverageMap) {
        if self.stamps() {
            self.cfg.trace.set_time(self.now());
        }
        self.emit_round_end(map);
    }

    /// Closes the current round and, if that left the field covered,
    /// forces the next pending fault batch. Returns `false` when the run
    /// has converged: covered, with no fault left to wait for.
    pub(crate) fn end_round(
        &mut self,
        map: &mut CoverageMap,
        retire: impl FnMut(&CoverageMap, NodeId, SensorId),
    ) -> bool {
        self.close_round(map);
        map.count_below(self.cfg.k) > 0 || self.force_pending(map, retire)
    }

    /// For a covered field with faults still pending: forces the next
    /// batch and closes the current round empty. Returns `false`, placing
    /// nothing, when no fault is pending.
    pub(crate) fn force_round(
        &mut self,
        map: &mut CoverageMap,
        retire: impl FnMut(&CoverageMap, NodeId, SensorId),
    ) -> bool {
        if !self.force_pending(map, retire) {
            return false;
        }
        // Not restamped: the round ends at the forced batch's time.
        self.emit_round_end(map);
        true
    }

    /// Ends the run: records the rounds and the convergence verdict,
    /// checks it, completes `messages` with the transport's counters and
    /// returns the network and transport to `pool`.
    pub(crate) fn finish(
        self,
        map: &CoverageMap,
        pool: &mut SimScratch,
        messages: MessageStats,
    ) -> PlacementOutcome {
        let mut out = self.out;
        out.rounds = self.round as usize;
        out.fully_covered = map.count_below(self.cfg.k) == 0;
        self.cfg.invariants.check_converged(
            out.fully_covered,
            self.chaos.as_ref().is_some_and(|ch| !ch.is_exhausted()),
            out.placed.len() >= self.cfg.max_new_nodes || out.rounds >= MAX_ROUNDS,
        );
        let t = &self.transport.stats;
        out.messages = MessageStats {
            retries: t.retries,
            acks: t.acks,
            notices_gave_up: t.gave_up,
            duplicates_suppressed: t.duplicates_suppressed,
            ..messages
        };
        pool.net = Some(self.net);
        pool.transport = Some(self.transport);
        pool.rounds.sid_of = self.sid_of;
        pool.rounds.flushed = self.flushed;
        out
    }

    fn now(&self) -> Time {
        match self.clock {
            Clock::Transport => self.transport.now(),
            Clock::PerRound(tick) => self.round * tick,
        }
    }

    fn stamps(&self) -> bool {
        matches!(self.clock, Clock::Transport) || self.chaos.is_some()
    }

    fn force_pending(
        &mut self,
        map: &mut CoverageMap,
        retire: impl FnMut(&CoverageMap, NodeId, SensorId),
    ) -> bool {
        let Some(ch) = self.chaos.as_mut().filter(|ch| !ch.is_exhausted()) else {
            return false;
        };
        ch.advance_next_batch(&mut self.net);
        self.retire_crashed(map, retire);
        true
    }

    fn retire_crashed(
        &mut self,
        map: &mut CoverageMap,
        mut retire: impl FnMut(&CoverageMap, NodeId, SensorId),
    ) {
        let Some(ch) = self.chaos.as_mut() else {
            return;
        };
        for nid in ch.take_crashed() {
            self.cfg.invariants.note_crash(nid as u64);
            let sid = self.sid_of[nid];
            map.deactivate_sensor(sid);
            retire(map, nid, sid);
        }
    }

    fn emit_round_end(&mut self, map: &CoverageMap) {
        let k = self.cfg.k;
        self.cfg.trace.emit(TraceEvent::RoundEnd {
            round: self.round,
            placed: (self.placed() - self.placed_at_begin) as u64,
        });
        self.cfg.trace.emit(TraceEvent::CoverageDelta {
            below_target: map.count_below(k) as u64,
        });
        self.round += 1;
        self.out.trace.push(TracePoint {
            total_sensors: self.out.initial_sensors + self.placed(),
            fraction_k_covered: map.fraction_k_covered(k),
        });
    }
}
