//! Event-driven (asynchronous) grid DECOR.
//!
//! The paper stresses that "the nodes do not need to be synchronized",
//! yet any round-based simulation (our [`crate::GridDecor`]) quietly
//! synchronizes the leaders' decisions. This implementation runs the grid
//! scheme on the discrete-event engine of `decor-net` instead:
//!
//! - every populated cell's leader wakes on its own timer (period
//!   `work_period`, random initial phase — *unsynchronized*);
//! - on waking it places at most one sensor at its cell's best point,
//!   judged against its **local view** of coverage;
//! - placement notices to overlapping neighbor cells arrive only after
//!   `notice_latency` ticks; until then the neighbors' views are stale
//!   and they may redundantly cover the shared border.
//!
//! The knowledge model is therefore sharper than the synchronous one: a
//! leader knows (a) the initial sensors overlapping its cell (hello
//! exchange at time 0), (b) its own placements immediately, and (c)
//! neighbors' placements once the notice lands. The `latency /
//! work_period` ratio directly controls how much duplicated border
//! coverage asynchrony costs — measured by the `ext_async` experiment.

use crate::config::DeploymentConfig;
use crate::coverage::CoverageMap;
use crate::grid_scheme::Cells;
use crate::metrics::{MessageStats, PlacementOutcome, TracePoint};
use crate::scratch::SimScratch;
use crate::Placer;
use decor_geom::Disk;
use decor_net::{EventQueue, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Asynchronous grid DECOR.
#[derive(Clone, Copy, Debug)]
pub struct AsyncGridDecor {
    /// Cell edge length (5 = the paper's small cell, 10 = big).
    pub cell_size: f64,
    /// Ticks between a leader's consecutive wake-ups.
    pub work_period: Time,
    /// Ticks a placement notice needs to reach a neighbor leader.
    pub notice_latency: Time,
    /// Seed for the leaders' initial phases.
    pub seed: u64,
}

impl Default for AsyncGridDecor {
    fn default() -> Self {
        AsyncGridDecor {
            cell_size: 5.0,
            work_period: 1_000,
            notice_latency: 100,
            seed: 0,
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    /// A cell's leader wakes to inspect its cell.
    Wake(usize),
    /// A placement notice arrives at a cell: a sensor was placed at the
    /// position with the given approximation-point id.
    Notice { cell: usize, pid: usize },
}

impl AsyncGridDecor {
    /// Benefit of candidate `pid` for cell `ci`, judged against the
    /// *estimated* coverage `est` (the leader's local view).
    fn est_cell_benefit(
        map: &CoverageMap,
        cells: &Cells,
        est: &[u32],
        ci: usize,
        pid: usize,
        cfg: &DeploymentConfig,
    ) -> u64 {
        let c = map.points()[pid];
        let mut b = 0u64;
        // Frozen-index radius query filtered to the cell's own points;
        // order-independent integer sum, identical to a scan of the cell.
        map.for_each_point_within_unordered(c, cfg.rs, |qid, _| {
            if cells.cell_of_pid[qid] == ci as u32 && est[qid] < cfg.k {
                b += (cfg.k - est[qid]) as u64;
            }
        });
        b
    }

    fn best_est_candidate(
        map: &CoverageMap,
        cells: &Cells,
        est: &[u32],
        ci: usize,
        cfg: &DeploymentConfig,
    ) -> Option<(usize, u64)> {
        let mut best: Option<(usize, u64)> = None;
        for &pid in &cells.points[ci] {
            if est[pid] >= cfg.k {
                continue;
            }
            let b = Self::est_cell_benefit(map, cells, est, ci, pid, cfg);
            if b > 0 && best.is_none_or(|(_, bb)| b > bb) {
                best = Some((pid, b));
            }
        }
        best
    }
}

impl Placer for AsyncGridDecor {
    fn name(&self) -> String {
        format!(
            "AsyncGrid ({}x{}, L/T={:.2})",
            self.cell_size,
            self.cell_size,
            self.notice_latency as f64 / self.work_period as f64
        )
    }

    fn place_in(
        &self,
        map: &mut CoverageMap,
        cfg: &DeploymentConfig,
        _scratch: &mut SimScratch,
    ) -> PlacementOutcome {
        self.validate(cfg).unwrap_or_else(|e| panic!("{e}"));
        assert!(self.work_period > 0, "work period must be positive");
        let field = *map.field();
        let mut cells = Cells::new(&field, self.cell_size, map);
        for (sid, pos) in map.active_sensors() {
            let ci = cells.index_of(pos);
            cells.members[ci].push(sid);
        }
        let initial = map.n_active_sensors();
        let mut out = PlacementOutcome {
            initial_sensors: initial,
            ..PlacementOutcome::default()
        };
        out.trace.push(TracePoint {
            total_sensors: initial,
            fraction_k_covered: map.fraction_k_covered(cfg.k),
        });

        // Local views: est[pid] = coverage the owning cell's leader knows
        // of. Initial sensors are known everywhere (hello flood at t=0).
        let mut est: Vec<u32> = (0..map.n_points()).map(|pid| map.coverage(pid)).collect();

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut q: EventQueue<Ev> = EventQueue::new();
        for ci in 0..cells.len() {
            if !cells.members[ci].is_empty() {
                q.schedule(rng.gen_range(0..self.work_period), Ev::Wake(ci));
            }
        }

        let mut notices_sent: u64 = 0;
        let mut last_placement: Time = 0;
        let mut wakes: u64 = 0;
        let quiet_window = 2 * (self.notice_latency + 2 * self.work_period);
        let max_time: Time = self.work_period.saturating_mul(1_000_000);

        while let Some((now, ev)) = q.pop() {
            if now > max_time {
                break;
            }
            match ev {
                Ev::Notice { cell, pid } => {
                    // The notice carries the new sensor's position; the
                    // receiving leader refreshes its view of its own
                    // points inside that sensor's disk.
                    let pos = map.points()[pid];
                    map.for_each_point_within_unordered(pos, cfg.rs, |qid, _| {
                        if cells.cell_of_pid[qid] == cell as u32 {
                            est[qid] += 1;
                        }
                    });
                }
                Ev::Wake(ci) => {
                    wakes += 1;
                    if cells.members[ci].is_empty() {
                        continue; // leaderless (can only happen via races)
                    }
                    let mut acted = false;
                    if out.placed.len() < cfg.max_new_nodes {
                        let decision = Self::best_est_candidate(map, &cells, &est, ci, cfg)
                            .map(|(pid, _)| (ci, pid))
                            .or_else(|| {
                                // Own cell looks covered: adopt one empty
                                // neighboring cell that is truly deficient
                                // (the empty cell has no local view to
                                // consult — base-station knowledge).
                                cells.neighbors(ci).into_iter().find_map(|nc| {
                                    if !cells.members[nc].is_empty() {
                                        return None;
                                    }
                                    crate::grid_scheme::GridDecor::best_candidate(
                                        map, &cells, nc, cfg, None,
                                    )
                                    .map(|(pid, _)| (nc, pid))
                                })
                            });
                        if let Some((target_cell, pid)) = decision {
                            let pos = map.points()[pid];
                            let sid = map.add_sensor(pos, cfg.rs);
                            let home = cells.index_of(pos);
                            cells.members[home].push(sid);
                            out.placed.push(pos);
                            last_placement = now;
                            acted = true;
                            // The placer's own view updates instantly for
                            // the *acting* cell; everyone else overlapping
                            // the disk waits for the notice.
                            map.for_each_point_within_unordered(pos, cfg.rs, |qid, _| {
                                if cells.cell_of_pid[qid] == target_cell as u32 {
                                    est[qid] += 1;
                                }
                            });
                            let disk = Disk::new(pos, cfg.rs);
                            for nc in cells.neighbors(target_cell) {
                                if disk.intersects_aabb(&cells.rect(nc)) {
                                    notices_sent += 1;
                                    if !cells.members[nc].is_empty() || nc == ci {
                                        q.schedule(
                                            now + self.notice_latency,
                                            Ev::Notice { cell: nc, pid },
                                        );
                                    }
                                }
                            }
                            // Cross-adoption: the acting cell also tells
                            // itself when seeding elsewhere.
                            if target_cell != ci && disk.intersects_aabb(&cells.rect(ci)) {
                                q.schedule(now + self.notice_latency, Ev::Notice { cell: ci, pid });
                                notices_sent += 1;
                            }
                            out.trace.push(TracePoint {
                                total_sensors: initial + out.placed.len(),
                                fraction_k_covered: map.fraction_k_covered(cfg.k),
                            });
                        }
                    }
                    let _ = acted;
                    // Quiescence: nothing placed network-wide for a full
                    // quiet window. Progress can only restart through a
                    // notice (at most `notice_latency` in flight) or a
                    // wake (every `work_period`), so a silent window of
                    // `2·(latency + 2·periods)` proves a fixed point —
                    // whether or not the ground truth is covered (the
                    // synchronous rescue below handles any leftovers,
                    // e.g. deficient cells with no populated neighbor).
                    let quiet = now.saturating_sub(last_placement) > quiet_window;
                    if quiet {
                        break;
                    }
                    q.schedule(now + self.work_period, Ev::Wake(ci));
                }
            }
        }

        // Rescue any deficiency the asynchronous run could not reach
        // (e.g. deficient points in cells with no populated neighbor):
        // fall back to the synchronous seeding logic.
        if map.count_below(cfg.k) > 0 && out.placed.len() < cfg.max_new_nodes {
            let sync = crate::grid_scheme::GridDecor {
                cell_size: self.cell_size,
            };
            let rescue_cfg = DeploymentConfig {
                max_new_nodes: cfg.max_new_nodes - out.placed.len(),
                ..cfg.clone()
            };
            let rescue = sync.place(map, &rescue_cfg);
            out.placed.extend(rescue.placed);
            notices_sent += rescue.messages.protocol_total;
        }

        out.rounds = wakes as usize;
        out.fully_covered = map.count_below(cfg.k) == 0;
        let populated = cells
            .members
            .iter()
            .filter(|m| !m.is_empty())
            .count()
            .max(1);
        let total_members: usize = cells.members.iter().map(Vec::len).sum();
        out.messages = MessageStats {
            protocol_total: notices_sent,
            cells: populated,
            per_cell: notices_sent as f64 / populated as f64,
            per_node_rotated: notices_sent as f64 / total_members.max(1) as f64,
            ..MessageStats::default()
        };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decor_geom::Aabb;
    use decor_lds::{halton_points, random_points};

    fn setup(k: u32, n_pts: usize, initial: usize, seed: u64) -> (CoverageMap, DeploymentConfig) {
        let field = Aabb::square(100.0);
        let cfg = DeploymentConfig::with_k(k);
        let mut map = CoverageMap::new(halton_points(n_pts, &field), &field, &cfg);
        for p in random_points(initial, &field, seed) {
            map.add_sensor(p, cfg.rs);
        }
        (map, cfg)
    }

    fn async_placer(latency: Time) -> AsyncGridDecor {
        AsyncGridDecor {
            cell_size: 5.0,
            work_period: 1_000,
            notice_latency: latency,
            seed: 3,
        }
    }

    #[test]
    fn reaches_full_coverage() {
        let (mut map, cfg) = setup(1, 500, 50, 1);
        let out = async_placer(100).place(&mut map, &cfg);
        assert!(out.fully_covered, "uncovered: {}", map.count_below(1));
        assert!(out.rounds > 0);
        map.verify_consistency();
    }

    #[test]
    fn reaches_full_coverage_k2() {
        let (mut map, cfg) = setup(2, 500, 60, 2);
        let out = async_placer(200).place(&mut map, &cfg);
        assert!(out.fully_covered);
        assert!(map.min_coverage() >= 2);
    }

    #[test]
    fn latency_costs_nodes() {
        // The asynchrony thesis: higher notice latency (relative to the
        // work period) means staler views and more duplicated border
        // coverage. Compare near-zero latency with latency of several
        // work periods.
        let totals = |latency: Time| {
            let (mut map, cfg) = setup(2, 600, 80, 5);
            async_placer(latency).place(&mut map, &cfg).placed.len()
        };
        let fast = totals(10);
        let slow = totals(5_000);
        assert!(
            slow >= fast,
            "stale views cannot help: latency 5000 -> {slow}, latency 10 -> {fast}"
        );
    }

    #[test]
    fn near_zero_latency_close_to_synchronous_cost() {
        use crate::grid_scheme::GridDecor;
        let (mut m1, cfg) = setup(2, 500, 60, 7);
        let sync = GridDecor { cell_size: 5.0 }
            .place(&mut m1, &cfg)
            .placed
            .len();
        let (mut m2, _) = setup(2, 500, 60, 7);
        let async_n = async_placer(10).place(&mut m2, &cfg).placed.len();
        let ratio = async_n as f64 / sync as f64;
        assert!(
            (0.6..=1.6).contains(&ratio),
            "async {async_n} vs sync {sync} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let run = |seed| {
            let (mut map, cfg) = setup(1, 400, 40, 9);
            AsyncGridDecor {
                cell_size: 5.0,
                work_period: 500,
                notice_latency: 100,
                seed,
            }
            .place(&mut map, &cfg)
            .placed
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn counts_notices_as_messages() {
        let (mut map, cfg) = setup(1, 400, 50, 11);
        let out = async_placer(100).place(&mut map, &cfg);
        assert!(out.messages.protocol_total > 0);
        assert!(out.messages.per_cell > 0.0);
    }

    #[test]
    fn respects_max_new_nodes() {
        let cfg = DeploymentConfig {
            max_new_nodes: 6,
            ..DeploymentConfig::with_k(2)
        };
        let field = Aabb::square(100.0);
        let mut map = CoverageMap::new(halton_points(300, &field), &field, &cfg);
        map.add_sensor(decor_geom::Point::new(50.0, 50.0), cfg.rs);
        let out = async_placer(100).place(&mut map, &cfg);
        assert!(out.placed.len() <= 6);
        assert!(!out.fully_covered);
    }
}
