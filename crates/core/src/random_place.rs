//! Baseline 2: random placement.
//!
//! "A random placement algorithm that places the nodes at random positions
//! in the field until k coverage is achieved." The paper uses it as the
//! no-intelligence reference: it needs roughly 4x the nodes of any other
//! method and 10–20x the redundant nodes, but tolerates failures well
//! (Figs. 8, 9, 11).

use crate::config::DeploymentConfig;
use crate::coverage::CoverageMap;
use crate::metrics::{PlacementOutcome, TracePoint};
use crate::scratch::SimScratch;
use crate::Placer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The random-placement baseline, deterministic in `seed`.
#[derive(Clone, Copy, Debug)]
pub struct RandomPlacement {
    /// RNG seed for the position stream.
    pub seed: u64,
}

impl Placer for RandomPlacement {
    fn name(&self) -> String {
        "Random".to_owned()
    }

    fn place_in(
        &self,
        map: &mut CoverageMap,
        cfg: &DeploymentConfig,
        _scratch: &mut SimScratch,
    ) -> PlacementOutcome {
        self.validate(cfg).unwrap_or_else(|e| panic!("{e}"));
        let mut rng = StdRng::seed_from_u64(self.seed);
        let field = *map.field();
        let initial = map.n_active_sensors();
        let mut out = PlacementOutcome {
            initial_sensors: initial,
            ..PlacementOutcome::default()
        };
        out.trace.push(TracePoint {
            total_sensors: initial,
            fraction_k_covered: map.fraction_k_covered(cfg.k),
        });
        // Track the number of deficient points instead of rescanning all
        // points per placement: refresh lazily every placement is still
        // O(N); instead recompute the count only when a placement touched
        // a deficient point.
        let mut below = map.count_below(cfg.k);
        while below > 0 && out.placed.len() < cfg.max_new_nodes {
            let pos = field.from_unit(rng.gen::<f64>(), rng.gen::<f64>());
            // Count how many points cross the threshold k due to this
            // sensor: those at exactly k-1 before.
            let mut crossed = 0usize;
            map.for_each_point_within_unordered(pos, cfg.rs, |pid, _| {
                if map.coverage(pid) == cfg.k - 1 {
                    crossed += 1;
                }
            });
            map.add_sensor(pos, cfg.rs);
            below -= crossed;
            out.placed.push(pos);
            out.trace.push(TracePoint {
                total_sensors: initial + out.placed.len(),
                fraction_k_covered: 1.0 - below as f64 / map.n_points() as f64,
            });
        }
        debug_assert_eq!(below, map.count_below(cfg.k), "deficit counter drift");
        out.fully_covered = below == 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::CentralizedGreedy;
    use decor_geom::Aabb;
    use decor_lds::halton_points;

    fn fresh_map(n_pts: usize, cfg: &DeploymentConfig) -> CoverageMap {
        let field = Aabb::square(100.0);
        CoverageMap::new(halton_points(n_pts, &field), &field, cfg)
    }

    #[test]
    fn reaches_full_coverage_eventually() {
        let cfg = DeploymentConfig::with_k(1);
        let mut map = fresh_map(400, &cfg);
        let out = RandomPlacement { seed: 1 }.place(&mut map, &cfg);
        assert!(out.fully_covered);
        assert_eq!(map.count_below(1), 0);
    }

    #[test]
    fn uses_far_more_nodes_than_greedy() {
        // The paper's headline comparison: random needs ~4x the nodes.
        let cfg = DeploymentConfig::with_k(2);
        let mut m1 = fresh_map(800, &cfg);
        let greedy = CentralizedGreedy.place(&mut m1, &cfg).placed.len();
        let mut m2 = fresh_map(800, &cfg);
        let random = RandomPlacement { seed: 3 }
            .place(&mut m2, &cfg)
            .placed
            .len();
        assert!(
            random as f64 > 2.5 * greedy as f64,
            "random {random} vs greedy {greedy}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = DeploymentConfig::with_k(1);
        let run = |seed| {
            let mut map = fresh_map(300, &cfg);
            RandomPlacement { seed }.place(&mut map, &cfg).placed
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn respects_max_new_nodes() {
        let cfg = DeploymentConfig {
            max_new_nodes: 10,
            ..DeploymentConfig::with_k(3)
        };
        let mut map = fresh_map(400, &cfg);
        let out = RandomPlacement { seed: 4 }.place(&mut map, &cfg);
        assert_eq!(out.placed.len(), 10);
        assert!(!out.fully_covered);
    }

    #[test]
    fn trace_fraction_matches_map_state() {
        let cfg = DeploymentConfig {
            max_new_nodes: 50,
            ..DeploymentConfig::with_k(2)
        };
        let mut map = fresh_map(300, &cfg);
        let out = RandomPlacement { seed: 5 }.place(&mut map, &cfg);
        let last = out.trace.last().unwrap();
        assert!((last.fraction_k_covered - map.fraction_k_covered(2)).abs() < 1e-12);
    }

    #[test]
    fn no_placement_needed_when_covered() {
        let cfg = DeploymentConfig::with_k(1);
        let mut map = fresh_map(200, &cfg);
        map.add_sensor(decor_geom::Point::new(50.0, 50.0), 200.0);
        let out = RandomPlacement { seed: 6 }.place(&mut map, &cfg);
        assert!(out.placed.is_empty());
        assert!(out.fully_covered);
    }
}
