//! `endurance`: `run_endurance` in the `ext_endurance` shape over 20
//! paper-scale fields, one run at a time on one thread. A run is one
//! field's pair of arms, always-on then rotating, as
//! `ext_endurance::endurance_pair` runs them: a rotating arm lives about
//! three times as long, so single arms would split the run times into two
//! clusters with the median between them.

use crate::reference::Checker;
use crate::trace::Tracer;
use crate::{expired, AllocCounter, Layers, Timed};
use decor_core::parallel::replica_seed;
use decor_core::{
    agree_shifts, run_endurance, CentralizedGreedy, CoverageMap, DeploymentConfig, EnduranceConfig,
    EnduranceReport, Placer, SchemeKind,
};
use decor_exp::common::deploy_with;
use decor_exp::ext_endurance::{
    disaster_center, DISASTER_PERIOD, DISASTER_R, K, MAX_PERIODS, SPARES,
};
use decor_exp::ExpParams;
use decor_geom::Disk;
use decor_lds::{halton_points, random_points};
use decor_net::{FaultPlan, Network, RotationConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Fields (runs) per batch.
const FIELDS: usize = 20;
/// The arms of a run, in order.
const ARMS: [bool; 2] = [false, true];

/// The batch: one field seed per run.
fn batch(input: u64) -> Vec<u64> {
    (0..FIELDS).map(|j| replica_seed(input, j)).collect()
}

fn configure(cfg: &mut DeploymentConfig) {
    cfg.rotation = Some(RotationConfig::default());
    // One early crash, scripted on the transport tick clock.
    cfg.chaos = Some(FaultPlan::parse("2000 crash 1\n").expect("literal plan parses"));
}

fn scenario(params: &ExpParams, seed: u64, rotate: bool) -> EnduranceConfig {
    EnduranceConfig {
        rotate,
        spare_budget: SPARES,
        max_periods: MAX_PERIODS,
        disasters: vec![(
            DISASTER_PERIOD,
            Disk::new(disaster_center(params, seed), DISASTER_R),
        )],
        ..EnduranceConfig::default()
    }
}

/// One run: both arms on field `seed`. Also returns the sensors the run
/// added: each arm's initial deployment plus the spares it used.
fn pair(params: &ExpParams, seed: u64) -> ([EnduranceReport; 2], usize) {
    let mut added = 0;
    let reports = ARMS.map(|rotate| {
        let (mut map, out, cfg) = deploy_with(params, SchemeKind::Centralized, K, seed, configure);
        let e = scenario(params, seed, rotate);
        let report = run_endurance(&mut map, &CentralizedGreedy, &cfg, &e);
        added += out.placed.len() + report.extra_nodes;
        report
    });
    (reports, added)
}

fn fingerprint(reports: &[EnduranceReport; 2]) -> String {
    format!("{reports:?}")
}

fn run_ok(checker: &Checker, index: usize, reports: &[EnduranceReport; 2]) -> bool {
    checker.matches(index, &fingerprint(reports)) && reports.iter().all(|r| r.false_positives == 0)
}

pub fn timed(input: u64, checker: &Checker, seconds: u64) -> Timed {
    let params = ExpParams::paper();
    let mut t = Timed {
        threads: 1,
        min_runs: 3 * FIELDS,
        ..Timed::default()
    };
    // Set-up: the run list and one warm-up run.
    let mut runs = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        runs = batch(input);
        let warm = catch_unwind(AssertUnwindSafe(|| pair(&params, runs[0])));
        std::hint::black_box(warm.is_ok());
        t.setup_s.push(t0.elapsed().as_secs_f64());
    }

    let start = Instant::now();
    let (mut placed, mut lifetimes, mut periods) = (Vec::new(), Vec::new(), 0u64);
    let mut i = 0usize;
    while i < t.min_runs || !expired(start, seconds) {
        let seed = runs[i % runs.len()];
        let t0 = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| pair(&params, seed)));
        t.run_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        t.attempted += 1;
        match run {
            Ok((reports, added)) => {
                if !run_ok(checker, i % runs.len(), &reports) {
                    eprintln!("run {i} off reference: {}", fingerprint(&reports));
                    t.failed += 1;
                }
                periods += reports.iter().map(|r| r.lifetime_periods).sum::<u64>();
                if i < runs.len() {
                    placed.push(added as f64);
                    lifetimes.push(reports[1].lifetime_periods as f64);
                }
            }
            Err(_) => t.failed += 1,
        }
        i += 1;
    }
    t.measured_s = t.run_ms.iter().sum::<f64>() / 1e3;
    t.placed_mean = crate::stats::mean(&placed);
    t.notes.push(format!(
        "periods_per_s {:.1} (simulated periods per host second); lifetime_periods_mean {:.2} (rotating arm)",
        periods as f64 / t.measured_s,
        crate::stats::mean(&lifetimes)
    ));
    t.notes.push(format!(
        "a run is both arms on one field; sensors_placed_mean counts both initial deployments plus the spares used; {} runs per batch",
        runs.len()
    ));
    t
}

pub fn record(input: u64) -> Result<Vec<u32>, String> {
    let params = ExpParams::paper();
    batch(input)
        .into_iter()
        .map(|seed| {
            let (reports, _) = pair(&params, seed);
            if reports.iter().any(|r| r.false_positives != 0) {
                return Err(format!("false positives: {}", fingerprint(&reports)));
            }
            Ok(crate::stats::digest(&fingerprint(&reports)))
        })
        .collect()
}

/// The deployment network `run_endurance` builds for `map`.
fn network(map: &CoverageMap, cfg: &DeploymentConfig) -> Network {
    let mut net = Network::new(*map.field());
    cfg.link.apply(&mut net);
    for (_, pos) in map.active_sensors() {
        net.add_node(pos, cfg.rs, cfg.rc);
    }
    net
}

pub fn traced(input: u64, checker: &Checker, allocs: AllocCounter) -> Layers {
    let params = ExpParams::paper();
    let field = params.field();
    let runs = batch(input);
    let mut layers = Layers::default();
    let mut tr = Tracer::new(Instant::now(), 0);
    let (mut traced_ns, mut untraced_ns, mut periods, mut run_ns_total) = (0u64, 0u64, 0u64, 0u64);
    for (i, &seed) in runs.iter().enumerate() {
        let t0 = Instant::now();
        let plain = catch_unwind(AssertUnwindSafe(|| pair(&params, seed)));
        let plain_ns = t0.elapsed().as_nanos() as u64;

        // The same run rebuilt from public calls.
        tr.begin_run(i as u64);
        let mut probe_ns = 0u64;
        let rebuilt = catch_unwind(AssertUnwindSafe(|| {
            ARMS.map(|rotate| {
                let mut cfg = DeploymentConfig::with_k(K);
                cfg.link = params.link(seed);
                configure(&mut cfg);
                let (points, ns) = tr.span("lds.halton", || halton_points(params.n_points, &field));
                layers.add_ns("lds.halton_ms", ns);
                let (mut map, ns) = tr.span("coverage.build", || {
                    let mut map = CoverageMap::new(points, &field, &cfg);
                    for p in random_points(params.initial_nodes, &field, seed) {
                        map.add_sensor(p, cfg.rs);
                    }
                    map
                });
                layers.add_ns("coverage.build_ms", ns);
                let placer = params.placer(SchemeKind::Centralized, seed ^ 0x9E37);
                let (out, ns) =
                    tr.span("placer.centralized.place", || placer.place(&mut map, &cfg));
                layers.add_ns("placer.centralized.place_ms", ns);
                layers.add("placer.rounds", out.rounds as f64);
                layers.add("placer.placed", out.placed.len() as f64);
                layers.add("placer.protocol_msgs", out.messages.protocol_total as f64);

                // Probes for the derived self time, on copies: one shift
                // agreement, and one restoration of the scripted disaster.
                // The untraced run does neither, so their wall time is left
                // out of the tracing overhead.
                let probe_start = Instant::now();
                let mut agree_ns = 0u64;
                if rotate {
                    let mut net = network(&map, &cfg);
                    let rot = cfg.rotation.unwrap_or_default();
                    let (agreement, ns) = tr.span("rotation.agree", || {
                        agree_shifts(&mut net, map.points(), &rot, &cfg.link, 0)
                    });
                    layers.add_ns("rotation.agree_ms", ns);
                    layers.add(
                        "rotation.assignments_sent",
                        agreement.assignments_sent as f64,
                    );
                    layers.add("rotation.gave_up", agreement.gave_up as f64);
                    agree_ns = ns;
                }
                let mut damaged = map.clone();
                let disk = Disk::new(disaster_center(&params, seed), DISASTER_R);
                for (sid, pos) in damaged.active_sensors() {
                    if disk.contains(pos) {
                        damaged.deactivate_sensor(sid);
                    }
                }
                let (_, restore_ns) = tr.span("probe.restore", || {
                    CentralizedGreedy.place(&mut damaged, &cfg)
                });
                probe_ns += probe_start.elapsed().as_nanos() as u64;

                let e = scenario(&params, seed, rotate);
                let ((report, run_allocs), run_ns) = tr.span("endurance.run", || {
                    let a0 = allocs();
                    let r = run_endurance(&mut map, &CentralizedGreedy, &cfg, &e);
                    (r, allocs() - a0)
                });
                run_ns_total += run_ns;
                let p = report.lifetime_periods.max(1);
                periods += report.lifetime_periods;
                layers.add_ns("endurance.run_ms", run_ns);
                let agreements = if rotate { 1 + report.reschedules } else { 0 };
                let derived = run_ns as f64
                    - agreements as f64 * agree_ns as f64
                    - report.restorations as f64 * restore_ns as f64;
                layers.add("endurance.self_ms_per_period", derived / 1e6 / p as f64);
                layers.add("endurance.periods", report.lifetime_periods as f64);
                layers.add(
                    "endurance.sleeping_suppressed",
                    report.sleeping_suppressed as f64,
                );
                layers.add("endurance.heartbeats_sent", report.heartbeats_sent as f64);
                layers.add("endurance.reschedules", report.reschedules as f64);
                layers.add("endurance.restorations", report.restorations as f64);
                layers.add(
                    "endurance.emergency_periods",
                    report.emergency_periods as f64,
                );
                layers.add("endurance.allocs_per_period", run_allocs as f64 / p as f64);
                if rotate {
                    layers.add(
                        "endurance.lifetime_periods_mean",
                        report.lifetime_periods as f64,
                    );
                }
                layers.add("coverage.points", map.n_points() as f64);
                layers.add("coverage.sensors", map.n_active_sensors() as f64);
                report
            })
        }));
        let run_ns = tr.end_run();
        layers.attempted += 1;
        let (Ok(reports), Ok((plain, _))) = (rebuilt, plain) else {
            layers.failed += 1;
            continue;
        };
        traced_ns += run_ns - probe_ns;
        untraced_ns += plain_ns;
        if fingerprint(&reports) != fingerprint(&plain) || !run_ok(checker, i, &plain) {
            eprintln!(
                "run {i}: traced {} untraced {}",
                fingerprint(&reports),
                fingerprint(&plain)
            );
            layers.failed += 1;
        }
    }
    layers.add(
        "endurance.periods_per_s",
        periods as f64 / (run_ns_total as f64 / 1e9),
    );
    layers.add_ns("fleet.busy_ms", untraced_ns);
    layers.add("fleet.runs", runs.len() as f64);
    layers.add("fleet.threads", 1.0);
    layers.add(
        "fleet.tracing_overhead",
        traced_ns as f64 / untraced_ns.max(1) as f64,
    );
    layers.spans = tr.spans;
    layers.notes.push(
        "endurance.self_ms_per_period is derived: (run - agreements x agree - restorations x \
         disaster restore) / periods, from probes on copies of each field"
            .into(),
    );
    layers
}
