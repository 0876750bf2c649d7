//! Sleep shifts: the combinatorial half of set-k-cover rotation.
//!
//! The paper's third motivation for k-coverage (§1): "When k nodes are
//! covering a point, we have the option of putting some of them to sleep
//! or balance the workload among all k nodes. Thus, k-coverage leads to
//! significant energy savings and increases the lifetime for the
//! network." [`SleepScheduler::shifts`] partitions the alive nodes into
//! disjoint *shifts*, each of which alone keeps every monitored point
//! covered at the target degree (greedy set-multicover per shift).
//!
//! What the shifts buy is measured elsewhere: [`crate::rotation`] runs
//! them on the tick clock, and `decor_core::run_endurance` duty-cycles a
//! deployment through drain, death, detection and restoration and reports
//! its lifetime against an always-on run.

use crate::network::Network;
use crate::node::NodeId;
use decor_geom::Point;

/// Builds sleep shifts.
///
/// ```
/// use decor_geom::{Aabb, Point};
/// use decor_net::{Network, SleepScheduler};
///
/// // Two identical sensors covering one spot can take turns.
/// let mut net = Network::new(Aabb::square(10.0));
/// net.add_node(Point::new(5.0, 5.0), 4.0, 8.0);
/// net.add_node(Point::new(5.0, 5.0), 4.0, 8.0);
/// let points = vec![Point::new(5.0, 5.0)];
/// let shifts = SleepScheduler::new(1).shifts(&net, &points);
/// assert_eq!(shifts.len(), 2);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SleepScheduler {
    /// Coverage degree each shift must maintain on its own (usually 1:
    /// the k-covered deployment is split into ~k 1-covering shifts).
    pub target_coverage: u32,
}

impl SleepScheduler {
    /// Creates a scheduler. Panics when `target_coverage` is zero.
    pub fn new(target_coverage: u32) -> Self {
        assert!(target_coverage >= 1, "target coverage must be at least 1");
        SleepScheduler { target_coverage }
    }

    /// For each point, the alive nodes covering it (sorted by id).
    fn coverers(net: &Network, points: &[Point]) -> Vec<Vec<NodeId>> {
        let r = max_rs(net);
        let mut buf: Vec<NodeId> = Vec::new();
        points
            .iter()
            .map(|&p| {
                net.alive_within_into(p, r, &mut buf);
                buf.iter()
                    .copied()
                    .filter(|&id| net.node(id).covers(p))
                    .collect()
            })
            .collect()
    }

    /// Partitions the alive nodes into disjoint shifts, each achieving
    /// `target_coverage` of every point in `points` on its own. Nodes
    /// left over are appended to the *first* shift as spares. Returns an
    /// empty vec when even the full network cannot reach the target.
    ///
    /// Construction is a balanced simultaneous assignment (a domatic-
    /// partition heuristic): extracting complete shifts one at a time lets
    /// the first shift hog the coverers of tight points and ruins the
    /// rest, so instead all `S` shifts are built together — the most
    /// constrained (point, shift) deficit is always served next — and `S`
    /// is found by trying the upper bound `min_p |coverers(p)| / target`
    /// downwards until a feasible partition appears.
    pub fn shifts(&self, net: &Network, points: &[Point]) -> Vec<Vec<NodeId>> {
        let coverers = Self::coverers(net, points);
        let min_cover = coverers.iter().map(Vec::len).min().unwrap_or(0) as u32;
        if min_cover < self.target_coverage {
            return Vec::new(); // even everyone awake cannot cover
        }
        let s_max = (min_cover / self.target_coverage).max(1) as usize;
        for s in (1..=s_max).rev() {
            if let Some(mut shifts) = self.try_partition(net, &coverers, s) {
                // Spares spread round-robin so every shift gets backup.
                let assigned: std::collections::BTreeSet<NodeId> =
                    shifts.iter().flatten().copied().collect();
                for (i, id) in net
                    .alive_ids()
                    .into_iter()
                    .filter(|id| !assigned.contains(id))
                    .enumerate()
                {
                    shifts[i % s].push(id);
                }
                for shift in &mut shifts {
                    shift.sort_unstable();
                }
                return shifts;
            }
        }
        Vec::new()
    }

    /// Attempts to build exactly `s` disjoint shifts simultaneously.
    fn try_partition(
        &self,
        net: &Network,
        coverers: &[Vec<NodeId>],
        s: usize,
    ) -> Option<Vec<Vec<NodeId>>> {
        let n_points = coverers.len();
        // deficit[si][pi]: coverage still needed by shift si at point pi.
        let mut deficit = vec![vec![self.target_coverage; n_points]; s];
        let mut shift_of = vec![usize::MAX; net.len()];
        let mut shifts = vec![Vec::new(); s];
        loop {
            // Most-constrained point: smallest slack between available
            // coverers and total remaining need.
            let mut pick: Option<(usize, i64)> = None; // (point, slack)
            let mut any_need = false;
            for pi in 0..n_points {
                let need: i64 = (0..s).map(|si| deficit[si][pi] as i64).sum();
                if need == 0 {
                    continue;
                }
                any_need = true;
                let avail = coverers[pi]
                    .iter()
                    .filter(|&&id| shift_of[id] == usize::MAX)
                    .count() as i64;
                let slack = avail - need;
                if slack < 0 {
                    return None; // infeasible for this s
                }
                if pick.is_none_or(|(_, sl)| slack < sl) {
                    pick = Some((pi, slack));
                }
            }
            if !any_need {
                break;
            }
            let (pi, _) = pick.expect("need exists");
            // Serve the shift with the largest deficit at pi (ties: low id).
            let si = (0..s)
                .max_by_key(|&si| (deficit[si][pi], std::cmp::Reverse(si)))
                .unwrap();
            debug_assert!(deficit[si][pi] > 0);
            // Among available coverers of pi, pick the one covering the
            // most still-deficient points *of that shift* (ties: low id).
            let mut best: Option<(NodeId, u64)> = None;
            for &id in &coverers[pi] {
                if shift_of[id] != usize::MAX {
                    continue;
                }
                let gain: u64 = coverers
                    .iter()
                    .enumerate()
                    .filter(|&(qi, c)| deficit[si][qi] > 0 && c.binary_search(&id).is_ok())
                    .count() as u64;
                if best.is_none_or(|(bid, g)| gain > g || (gain == g && id < bid)) {
                    best = Some((id, gain));
                }
            }
            let (id, _) = best?; // no available coverer: infeasible
            shift_of[id] = si;
            shifts[si].push(id);
            for (qi, c) in coverers.iter().enumerate() {
                if deficit[si][qi] > 0 && c.binary_search(&id).is_ok() {
                    deficit[si][qi] -= 1;
                }
            }
        }
        Some(shifts)
    }
}

fn max_rs(net: &Network) -> f64 {
    net.alive_ids()
        .into_iter()
        .map(|id| net.node(id).rs)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decor_geom::Aabb;

    /// A network where every point is covered by exactly `layers`
    /// identical sensor lattices.
    fn layered_net(layers: usize) -> (Network, Vec<Point>) {
        let mut net = Network::new(Aabb::square(40.0));
        for _ in 0..layers {
            for i in 0..6 {
                for j in 0..6 {
                    net.add_node(
                        Point::new(3.0 + 6.5 * i as f64, 3.0 + 6.5 * j as f64),
                        6.0,
                        12.0,
                    );
                }
            }
        }
        let mut pts = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                pts.push(Point::new(2.0 + 3.6 * i as f64, 2.0 + 3.6 * j as f64));
            }
        }
        (net, pts)
    }

    #[test]
    fn shifts_partition_and_each_covers() {
        let (net, pts) = layered_net(3);
        let sched = SleepScheduler::new(1);
        let shifts = sched.shifts(&net, &pts);
        assert!(shifts.len() >= 2, "3 layers must yield >= 2 shifts");
        // Disjoint.
        let mut seen = std::collections::BTreeSet::new();
        for shift in &shifts {
            for &id in shift {
                assert!(seen.insert(id), "node {id} in two shifts");
            }
            // Each shift alone covers every point.
            for &p in &pts {
                assert!(
                    shift.iter().any(|&id| net.node(id).covers(p)),
                    "point {p} uncovered by a shift"
                );
            }
        }
    }

    #[test]
    fn impossible_target_yields_no_shifts() {
        let (net, pts) = layered_net(1);
        let sched = SleepScheduler::new(5); // only 1 layer exists
        assert!(sched.shifts(&net, &pts).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_target_panics() {
        let _ = SleepScheduler::new(0);
    }
}
