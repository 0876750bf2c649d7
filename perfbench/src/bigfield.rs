//! `big-field`: one 2M-point field at paper density (k = 2) covered by
//! the `pr6_scale` lattice, then a cycle of seeded area failures, each
//! deactivated and restored by `CentralizedGreedy` on one thread.
//!
//! After each run the benchmark undoes it — the placed sensors are
//! deactivated and the failed ones reactivated — so every failure meets
//! the same healthy field and a run's outcome depends only on its disc.

use crate::reference::Checker;
use crate::trace::Tracer;
use crate::{expired, AllocCounter, Layers, Timed};
use decor_core::{
    CentralizedGreedy, CoverageMap, DeploymentConfig, PlacementOutcome, Placer, SensorId,
};
use decor_exp::ExpParams;
use decor_geom::Point;
use decor_lds::halton_points;
use decor_lds::vdc::splitmix64;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const N_POINTS: usize = 2_000_000;
const K: u32 = 2;
/// Lattice pitch that 2-covers the field at `rs = 4` (see `pr6_scale`).
const LATTICE: f64 = 3.5;
/// Area-failure radius.
const HOLE_R: f64 = 24.0;
/// Failure discs per cycle.
const FAILURES: usize = 100;

fn config() -> DeploymentConfig {
    DeploymentConfig::with_k(K)
}

fn halton() -> Vec<Point> {
    halton_points(N_POINTS, &ExpParams::scaled(N_POINTS).field())
}

/// The coverage map over `points` with every lattice sensor active.
fn covered_map(points: Vec<Point>, cfg: &DeploymentConfig) -> CoverageMap {
    let params = ExpParams::scaled(N_POINTS);
    let side = params.field_side;
    let mut map = CoverageMap::new(points, &params.field(), cfg);
    let n_side = (side / LATTICE).floor() as usize + 1;
    for i in 0..=n_side {
        for j in 0..=n_side {
            let pos = Point::new(
                (LATTICE * i as f64).min(side),
                (LATTICE * j as f64).min(side),
            );
            map.add_sensor(pos, cfg.rs);
        }
    }
    map
}

/// Failure-disc centres of one cycle, a disc radius clear of the border.
fn centers(input: u64) -> Vec<Point> {
    let side = ExpParams::scaled(N_POINTS).field_side;
    let span = side - 2.0 * HOLE_R;
    let unit = |z: u64| (z >> 11) as f64 / (1u64 << 53) as f64;
    (0..FAILURES as u64)
        .map(|i| {
            let a = splitmix64(input ^ (i << 20));
            let b = splitmix64(a);
            Point::new(HOLE_R + unit(a) * span, HOLE_R + unit(b) * span)
        })
        .collect()
}

/// The area failure at `c`: deactivates every sensor in the disc and
/// returns them, so the run can be undone.
fn fail(map: &mut CoverageMap, c: Point) -> Vec<SensorId> {
    map.sensors_within(c, HOLE_R)
        .into_iter()
        .filter(|&id| map.deactivate_sensor(id))
        .collect()
}

fn restore(map: &mut CoverageMap, cfg: &DeploymentConfig) -> PlacementOutcome {
    CentralizedGreedy.place(map, cfg)
}

/// Returns the field to its healthy state.
fn undo(map: &mut CoverageMap, failed: &[SensorId], placed_from: usize) {
    for id in placed_from..map.n_sensors() {
        map.deactivate_sensor(id);
    }
    for &id in failed {
        map.reactivate_sensor(id);
    }
}

/// Ends a run: undoes it and returns the failed count and the outcome,
/// or, after a panic, rebuilds the field (its state is unknown) and
/// returns `None`.
fn settle(
    map: &mut CoverageMap,
    cfg: &DeploymentConfig,
    run: std::thread::Result<(Vec<SensorId>, PlacementOutcome)>,
    placed_from: usize,
) -> Option<(usize, PlacementOutcome)> {
    match run {
        Ok((failed, out)) => {
            undo(map, &failed, placed_from);
            Some((failed.len(), out))
        }
        Err(_) => {
            *map = covered_map(halton(), cfg);
            None
        }
    }
}

fn fingerprint(failed: usize, out: &PlacementOutcome) -> String {
    let mut s = format!("{failed} {} {}", out.fully_covered, out.placed.len());
    for p in &out.placed {
        let _ = write!(s, " {:x},{:x}", p.x.to_bits(), p.y.to_bits());
    }
    s
}

pub fn timed(input: u64, checker: &Checker, seconds: u64) -> Timed {
    let cfg = config();
    let mut t = Timed {
        threads: 1,
        min_runs: 5 * FAILURES,
        ..Timed::default()
    };
    // Set-up: Halton generation, map build and lattice deployment.
    let mut map = None;
    for _ in 0..3 {
        drop(map.take());
        let t0 = Instant::now();
        map = Some(covered_map(halton(), &cfg));
        t.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut map = map.expect("at least one set-up");
    let discs = centers(input);

    let start = Instant::now();
    let mut placed = Vec::new();
    let mut i = 0usize;
    while i < t.min_runs || !expired(start, seconds) {
        let c = discs[i % discs.len()];
        let before = map.n_sensors();
        let t0 = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            (fail(&mut map, c), restore(&mut map, &cfg))
        }));
        t.run_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        t.attempted += 1;
        match settle(&mut map, &cfg, run, before) {
            Some((failed, out)) => {
                let fp = fingerprint(failed, &out);
                if !out.fully_covered || !checker.matches(i % discs.len(), &fp) {
                    eprintln!("run {i} off reference: {fp}");
                    t.failed += 1;
                }
                if i < discs.len() {
                    placed.push(out.placed.len() as f64);
                }
            }
            None => t.failed += 1,
        }
        i += 1;
    }
    t.measured_s = t.run_ms.iter().sum::<f64>() / 1e3;
    t.placed_mean = crate::stats::mean(&placed);
    t.notes.push(format!(
        "{} points, {} lattice sensors, {} failure discs of radius {HOLE_R} per cycle",
        map.n_points(),
        map.n_active_sensors(),
        discs.len()
    ));
    t
}

pub fn record(input: u64) -> Result<Vec<u32>, String> {
    let cfg = config();
    let mut map = covered_map(halton(), &cfg);
    let mut digests = Vec::new();
    // Two cycles: the second must repeat the first, or the undo leaks
    // state from one run into the next.
    for cycle in 0..2 {
        for (i, &c) in centers(input).iter().enumerate() {
            let before = map.n_sensors();
            let failed = fail(&mut map, c);
            let out = restore(&mut map, &cfg);
            let fp = fingerprint(failed.len(), &out);
            if !out.fully_covered {
                return Err(format!("disc {i} not restored: {fp}"));
            }
            let d = crate::stats::digest(&fp);
            if cycle == 0 {
                digests.push(d);
            } else if digests[i] != d {
                return Err(format!("disc {i} differs on the second cycle"));
            }
            undo(&mut map, &failed, before);
        }
    }
    Ok(digests)
}

pub fn traced(input: u64, checker: &Checker, allocs: AllocCounter) -> Layers {
    let cfg = config();
    let mut layers = Layers::default();
    let mut tr = Tracer::new(Instant::now(), 0);
    let (points, ns) = tr.span("lds.halton", halton);
    layers.add_ns("lds.halton_ms", ns);
    let (mut map, ns) = tr.span("coverage.build", || covered_map(points, &cfg));
    layers.add_ns("coverage.build_ms", ns);
    let discs = centers(input);

    // One untraced cycle, then the same cycle traced.
    let mut plain = Vec::new();
    let mut untraced_ns = 0u64;
    for &c in &discs {
        let before = map.n_sensors();
        let t0 = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            (fail(&mut map, c), restore(&mut map, &cfg))
        }));
        untraced_ns += t0.elapsed().as_nanos() as u64;
        let settled = settle(&mut map, &cfg, run, before);
        plain.push(settled.map(|(failed, out)| fingerprint(failed, &out)));
    }
    let mut traced_ns = 0u64;
    for (i, &c) in discs.iter().enumerate() {
        let before = map.n_sensors();
        tr.begin_run(i as u64);
        // Allocations are counted inside the spans, so the tracer's own
        // bookkeeping stays out of the count.
        let run = catch_unwind(AssertUnwindSafe(|| {
            let ((failed, fail_allocs), ns) = tr.span("coverage.fail", || {
                let a0 = allocs();
                let failed = fail(&mut map, c);
                (failed, allocs() - a0)
            });
            layers.add_ns("coverage.fail_ms", ns);
            let ((out, place_allocs), ns) = tr.span("placer.centralized.place", || {
                let a0 = allocs();
                let out = restore(&mut map, &cfg);
                (out, allocs() - a0)
            });
            layers.add_ns("placer.centralized.place_ms", ns);
            layers.add("fleet.allocs_per_run", (fail_allocs + place_allocs) as f64);
            (failed, out)
        }));
        traced_ns += tr.end_run();
        layers.attempted += 1;
        let (Some((failed, out)), Some(untraced)) =
            (settle(&mut map, &cfg, run, before), &plain[i])
        else {
            layers.failed += 1;
            continue;
        };
        layers.add("placer.rounds", out.rounds as f64);
        layers.add("placer.placed", out.placed.len() as f64);
        layers.add("placer.protocol_msgs", out.messages.protocol_total as f64);
        let fp = fingerprint(failed, &out);
        if fp != *untraced || !out.fully_covered || !checker.matches(i, &fp) {
            eprintln!("run {i}: traced {fp} untraced {untraced}");
            layers.failed += 1;
        }
    }
    layers.add("coverage.points", map.n_points() as f64);
    layers.add("coverage.sensors", map.n_active_sensors() as f64);
    layers.add_ns("fleet.busy_ms", untraced_ns);
    layers.add("fleet.runs", discs.len() as f64);
    layers.add("fleet.threads", 1.0);
    layers.add(
        "fleet.tracing_overhead",
        traced_ns as f64 / untraced_ns.max(1) as f64,
    );
    layers.spans = tr.spans;
    layers
}
