//! Frozen outputs of the retired reference twins.
//!
//! Each placer once carried switchable reference paths — grid DECOR's
//! cell-mode engine and fire-and-forget notices, Voronoi's fire-and-forget
//! notices, and centralized greedy's linear-scan benefit table — pinned to
//! the production path by in-crate differential tests. Those twins are
//! gone; `tests/fixtures/frozen_twins.txt` records what the agreeing pair
//! produced on every differential scenario (placed count, rounds, protocol
//! messages, a digest of the placed coordinates' bits, and the zero-loss
//! notice accounting). The surviving production path must reproduce every
//! entry exactly.

use decor::core::{
    CentralizedGreedy, CoverageMap, DeploymentConfig, GridDecor, PlacementOutcome, Placer,
    VoronoiDecor,
};
use decor::geom::{Aabb, Point};
use decor::lds::{halton_points, random_points};
use std::collections::BTreeMap;

/// The differential tests' field: Halton points on 100×100 plus `initial`
/// uniformly random sensors.
fn seeded(k: u32, n_pts: usize, initial: usize, seed: u64) -> (CoverageMap, DeploymentConfig) {
    let field = Aabb::square(100.0);
    let cfg = DeploymentConfig::with_k(k);
    let mut map = CoverageMap::new(halton_points(n_pts, &field), &field, &cfg);
    for p in random_points(initial, &field, seed) {
        map.add_sensor(p, cfg.rs);
    }
    (map, cfg)
}

/// A 5-unit sensor lattice over the field with every sensor within
/// `radius` of `hole` failed: the restoration shape.
fn damaged(k: u32, n_pts: usize, hole: Point, radius: f64) -> (CoverageMap, DeploymentConfig) {
    let field = Aabb::square(100.0);
    let cfg = DeploymentConfig::with_k(k);
    let mut map = CoverageMap::new(halton_points(n_pts, &field), &field, &cfg);
    for i in 0..20 {
        for j in 0..20 {
            let p = Point::new(2.5 + 5.0 * i as f64, 2.5 + 5.0 * j as f64);
            let sid = map.add_sensor(p, cfg.rs);
            if p.dist(hole) <= radius {
                map.deactivate_sensor(sid);
            }
        }
    }
    assert!(map.count_below(cfg.k) > 0, "the hole must create deficit");
    (map, cfg)
}

/// Centralized differential field: 700 Halton points plus a sparse
/// `initial`-sensor lattice.
fn centralized_field(k: u32, initial: usize) -> (CoverageMap, DeploymentConfig) {
    let (mut map, cfg) = seeded(k, 700, 0, 0);
    for i in 0..initial {
        let p = Point::new(3.0 + 13.0 * (i % 8) as f64, 3.0 + 17.0 * (i / 8) as f64);
        map.add_sensor(p, cfg.rs);
    }
    (map, cfg)
}

/// FNV-1a 64 over the placed coordinates' bits, in placement order.
fn digest(placed: &[Point]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in placed {
        for bits in [p.x.to_bits(), p.y.to_bits()] {
            for b in bits.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Runs the production path of one frozen scenario.
fn run(case: &str) -> PlacementOutcome {
    let (mut map, cfg, placer): (_, _, Box<dyn Placer>) = match case {
        "grid/engine_vs_direct/k1_i0_c5" => {
            let (m, c) = seeded(1, 600, 0, 11);
            (m, c, Box::new(GridDecor { cell_size: 5.0 }))
        }
        "grid/engine_vs_direct/k2_i50_c5" => {
            let (m, c) = seeded(2, 600, 50, 11);
            (m, c, Box::new(GridDecor { cell_size: 5.0 }))
        }
        "grid/engine_vs_direct/k3_i80_c10" => {
            let (m, c) = seeded(3, 600, 80, 11);
            (m, c, Box::new(GridDecor { cell_size: 10.0 }))
        }
        "grid/restoration_engine_vs_direct/k2_hole15" => {
            let (m, c) = damaged(2, 800, Point::new(35.0, 65.0), 15.0);
            (m, c, Box::new(GridDecor { cell_size: 5.0 }))
        }
        "grid/transport_vs_legacy/k1_i30_c5" => {
            let (m, c) = seeded(1, 500, 30, 15);
            (m, c, Box::new(GridDecor { cell_size: 5.0 }))
        }
        "grid/transport_vs_legacy/k2_i60_c10" => {
            let (m, c) = seeded(2, 500, 60, 15);
            (m, c, Box::new(GridDecor { cell_size: 10.0 }))
        }
        "voronoi/transport_vs_legacy/k1_i40_rc8" => {
            let (m, c) = seeded(1, 500, 40, 17);
            (m, c, Box::new(VoronoiDecor { rc: 8.0 }))
        }
        "voronoi/transport_vs_legacy/k2_i60_rc14.142" => {
            let (m, c) = seeded(2, 500, 60, 17);
            (m, c, Box::new(VoronoiDecor { rc: 14.142 }))
        }
        "centralized/engine_vs_table/k1_i0" => {
            let (m, c) = centralized_field(1, 0);
            (m, c, Box::new(CentralizedGreedy))
        }
        "centralized/engine_vs_table/k2_i25" => {
            let (m, c) = centralized_field(2, 25);
            (m, c, Box::new(CentralizedGreedy))
        }
        "centralized/engine_vs_table/k3_i60" => {
            let (m, c) = centralized_field(3, 60);
            (m, c, Box::new(CentralizedGreedy))
        }
        "centralized/restoration_engine_vs_table/k2_hole18" => {
            let (m, c) = damaged(2, 900, Point::new(50.0, 50.0), 18.0);
            (m, c, Box::new(CentralizedGreedy))
        }
        other => panic!("fixture names unknown case {other:?}"),
    };
    let out = placer.place(&mut map, &cfg);
    assert!(out.fully_covered, "{case}: run must converge");
    map.verify_consistency();
    out
}

/// One fixture row.
struct Frozen {
    placed: usize,
    rounds: usize,
    protocol_total: u64,
    digest: u64,
    legacy_protocol_total: Option<u64>,
    acks: Option<u64>,
}

fn load_fixture() -> BTreeMap<String, Frozen> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/frozen_twins.txt"
    );
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let optional = |s: &str| (s != "-").then(|| s.parse().expect("count"));
    let mut rows = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let f: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(f.len(), 7, "malformed fixture row: {line}");
        let row = Frozen {
            placed: f[1].parse().expect("placed"),
            rounds: f[2].parse().expect("rounds"),
            protocol_total: f[3].parse().expect("protocol_total"),
            digest: u64::from_str_radix(f[4], 16).expect("digest"),
            legacy_protocol_total: optional(f[5]),
            acks: optional(f[6]),
        };
        assert!(
            rows.insert(f[0].to_owned(), row).is_none(),
            "duplicate case {}",
            f[0]
        );
    }
    rows
}

#[test]
fn production_paths_reproduce_every_frozen_twin() {
    let rows = load_fixture();
    assert_eq!(rows.len(), 12, "fixture lost or gained a case");
    for (case, want) in &rows {
        let got = run(case);
        assert_eq!(got.placed.len(), want.placed, "{case}: placed");
        assert_eq!(got.rounds, want.rounds, "{case}: rounds");
        assert_eq!(
            got.messages.protocol_total, want.protocol_total,
            "{case}: protocol_total"
        );
        assert_eq!(
            digest(&got.placed),
            want.digest,
            "{case}: placed coordinates"
        );
        if let Some(acks) = want.acks {
            // Zero loss: the transport never retransmits or gives up, and
            // acknowledges exactly the notices it did before.
            assert_eq!(got.messages.retries, 0, "{case}: no loss, no retries");
            assert_eq!(got.messages.notices_gave_up, 0, "{case}");
            assert!(acks > 0, "{case}: the transport must ack notices");
            assert_eq!(got.messages.acks, acks, "{case}: acks");
        }
        if let (Some(legacy), Some(acks)) = (want.legacy_protocol_total, want.acks) {
            // The transport adds exactly one ack per delivered notice to
            // the fire-and-forget traffic. Grid notices to an out-of-range
            // leader are modelled as multi-hop and count once either way;
            // Voronoi notices always reach a 1-hop neighbor.
            assert_eq!(got.messages.protocol_total - acks, legacy, "{case}");
            if case.starts_with("voronoi/") {
                assert_eq!(acks, legacy, "{case}: one ack per legacy notice");
            }
        }
    }
}
