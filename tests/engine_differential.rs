//! Differential tests for the placement engine: the incremental benefit
//! machinery ([`ShardedBenefitEngine`]) must stay bit-identical to direct
//! evaluation ([`benefit_at`] per slot, a naive argmax for `best`) on any
//! field the coverage map can reach, and the engine-backed centralized
//! placement must reproduce the naive greedy placement sequence exactly.
//!
//! The engine's contract is add-only (placers only ever add sensors
//! while it is live; a crash makes the hole healer drop it), so sensor
//! deactivation and reactivation churn the *map* before the engine is
//! built, and the engine then tracks additions.

use decor::core::{
    benefit_at, CentralizedGreedy, CoverageMap, DeploymentConfig, Placer, ShardedBenefitEngine,
};
use decor::geom::{Aabb, Point};
use decor::lds::halton_points;
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (0.0..100.0f64, 0.0..100.0f64).prop_map(|(x, y)| Point::new(x, y))
}

/// One churn step: add a sensor, kill an earlier one, or revive one.
#[derive(Clone, Debug)]
enum Churn {
    Add(Point, f64),
    Kill(prop::sample::Index),
    Revive(prop::sample::Index),
}

fn arb_churn() -> impl Strategy<Value = Churn> {
    // 0..=2 => Add (3x weight), 3 => Kill, 4 => Revive.
    (
        0u8..5,
        arb_point(),
        2.0..10.0f64,
        any::<prop::sample::Index>(),
    )
        .prop_map(|(tag, p, r, idx)| match tag {
            0..=2 => Churn::Add(p, r),
            3 => Churn::Kill(idx),
            _ => Churn::Revive(idx),
        })
}

/// Applies `churn` to the map alone.
fn churn_map(map: &mut CoverageMap, churn: &[Churn]) {
    for step in churn {
        match step {
            Churn::Add(p, r) => {
                map.add_sensor(*p, *r);
            }
            Churn::Kill(idx) if map.n_sensors() > 0 => {
                map.deactivate_sensor(idx.index(map.n_sensors()));
            }
            Churn::Revive(idx) if map.n_sensors() > 0 => {
                map.reactivate_sensor(idx.index(map.n_sensors()));
            }
            _ => {}
        }
    }
}

/// The naive oracle for `best`: argmax of [`benefit_at`] over `cands`,
/// ties to the lowest slot, as `(point_id, benefit)`.
fn naive_best(map: &CoverageMap, cands: &[usize], rs: f64, k: u32) -> Option<(usize, u64)> {
    let mut best: Option<(usize, u64)> = None;
    for &pid in cands {
        let b = benefit_at(map, map.points()[pid], rs, k);
        if b > 0 && best.is_none_or(|(_, bb)| b > bb) {
            best = Some((pid, b));
        }
    }
    best
}

/// Checks every engine slot against direct evaluation and `best()`
/// against the naive argmax.
fn assert_engine_matches_direct(
    map: &CoverageMap,
    engine: &mut ShardedBenefitEngine,
    cands: &[usize],
    rs: f64,
    k: u32,
) {
    for (slot, &pid) in cands.iter().enumerate() {
        let direct = benefit_at(map, map.points()[pid], rs, k);
        assert_eq!(
            engine.benefit(slot),
            direct,
            "engine slot {slot} (pid {pid})"
        );
    }
    let eb = engine.best().map(|(_, pid, _, b)| (pid, b));
    assert_eq!(eb, naive_best(map, cands, rs, k), "engine.best vs naive");
}

/// The naive greedy: place at the naive argmax over every point until no
/// point has positive benefit or the cap is hit. Returns the placements
/// and the k-covered fraction after each one.
fn naive_greedy(map: &mut CoverageMap, cfg: &DeploymentConfig) -> (Vec<Point>, Vec<f64>) {
    let cands: Vec<usize> = (0..map.n_points()).collect();
    let (mut placed, mut fractions) = (Vec::new(), Vec::new());
    while placed.len() < cfg.max_new_nodes {
        let Some((pid, _)) = naive_best(map, &cands, cfg.rs, cfg.k) else {
            break;
        };
        let pos = map.points()[pid];
        map.add_sensor(pos, cfg.rs);
        placed.push(pos);
        fractions.push(map.fraction_k_covered(cfg.k));
    }
    (placed, fractions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On a map churned by arbitrary additions, deactivations and
    /// reactivations, the engine builds to direct evaluation and tracks
    /// it exactly through further additions.
    #[test]
    fn benefit_views_agree_under_churn(
        seed_sensors in prop::collection::vec((arb_point(), 2.0..10.0f64), 0..6),
        churn in prop::collection::vec(arb_churn(), 1..24),
        adds in prop::collection::vec((arb_point(), 2.0..10.0f64), 1..16),
        k in 1u32..4,
    ) {
        let field = Aabb::square(100.0);
        let cfg = DeploymentConfig::with_k(k);
        let mut map = CoverageMap::new(halton_points(250, &field), &field, &cfg);
        for &(p, r) in &seed_sensors {
            map.add_sensor(p, r);
        }
        churn_map(&mut map, &churn);
        map.verify_consistency();
        let cands: Vec<usize> = (0..map.n_points()).collect();
        let mut engine = ShardedBenefitEngine::global(&map, cands.clone(), cfg.rs, cfg.k);
        assert_engine_matches_direct(&map, &mut engine, &cands, cfg.rs, cfg.k);
        for &(p, r) in &adds {
            map.add_sensor(p, r);
            engine.on_sensor_added(&map, p, r);
        }
        map.verify_consistency();
        assert_engine_matches_direct(&map, &mut engine, &cands, cfg.rs, cfg.k);
    }

    /// The engine-backed centralized greedy reproduces the naive greedy
    /// placement sequence bit-for-bit on random fields with random
    /// pre-existing sensors.
    #[test]
    fn engine_placement_sequence_matches_naive_greedy(
        n_pts in 100usize..400,
        initial in prop::collection::vec((arb_point(), 2.0..8.0f64), 0..12),
        k in 1u32..4,
        cap_tag in 0usize..3,
    ) {
        let field = Aabb::square(100.0);
        let cfg = DeploymentConfig {
            max_new_nodes: [8usize, 25, 100_000][cap_tag],
            ..DeploymentConfig::with_k(k)
        };
        let mut m_engine = CoverageMap::new(halton_points(n_pts, &field), &field, &cfg);
        for &(p, r) in &initial {
            m_engine.add_sensor(p, r);
        }
        let mut m_naive = m_engine.clone();
        let a = CentralizedGreedy.place(&mut m_engine, &cfg);
        let (placed, fractions) = naive_greedy(&mut m_naive, &cfg);
        prop_assert_eq!(&a.placed, &placed);
        prop_assert_eq!(a.fully_covered, m_naive.count_below(cfg.k) == 0);
        prop_assert_eq!(a.trace.len(), fractions.len() + 1);
        for (t, &f) in a.trace[1..].iter().zip(&fractions) {
            prop_assert_eq!(t.fraction_k_covered, f);
        }
    }
}

/// Deterministic (non-proptest) check with a fixed heterogeneous script,
/// so a regression fails with a stable, reproducible scenario: additions,
/// kills and revivals churn the map, then the engine tracks more
/// additions.
#[test]
fn fixed_churn_script_stays_consistent() {
    let field = Aabb::square(100.0);
    let cfg = DeploymentConfig::with_k(2);
    let mut map = CoverageMap::new(halton_points(400, &field), &field, &cfg);
    let script: Vec<(Point, f64)> = (0..30)
        .map(|i| {
            let t = i as f64;
            (
                Point::new(
                    5.0 + 89.0 * ((t * 0.37) % 1.0),
                    5.0 + 89.0 * ((t * 0.61) % 1.0),
                ),
                2.0 + 8.0 * ((t * 0.23) % 1.0),
            )
        })
        .collect();
    for &(p, r) in &script[..20] {
        map.add_sensor(p, r);
    }
    // Kill every third sensor, then revive every second killed one.
    for sid in (0..map.n_sensors()).step_by(3) {
        map.deactivate_sensor(sid);
    }
    for sid in (0..map.n_sensors()).step_by(6) {
        map.reactivate_sensor(sid);
    }
    map.verify_consistency();
    let cands: Vec<usize> = (0..map.n_points()).collect();
    let mut engine = ShardedBenefitEngine::global(&map, cands.clone(), cfg.rs, cfg.k);
    for &(p, r) in &script[20..] {
        map.add_sensor(p, r);
        engine.on_sensor_added(&map, p, r);
    }
    map.verify_consistency();
    assert_engine_matches_direct(&map, &mut engine, &cands, cfg.rs, cfg.k);
}
