//! Endurance test tier — the ISSUE's acceptance criteria for distributed
//! set-k-cover rotation integrated with restoration:
//!
//! - at k = 3, lifetime to first unrecoverable coverage loss under
//!   rotation is at least 2× the always-on baseline;
//! - zero heartbeat false positives on scheduled-asleep nodes, with the
//!   suppression counter proving the three-state lifecycle was actually
//!   exercised;
//! - the endurance simulation is deterministic: bit-identical
//!   [`EnduranceReport`]s across 1/2/8 worker threads.
//!
//! `ENDURANCE_MAX_PERIODS` caps the simulated horizon (the CI endurance
//! job sets it); the cap must stay well above the natural herd-death
//! time (~100 periods at default batteries) or the capped run reports
//! `ended_by_horizon` instead of a lifetime.

use decor::core::{run_endurance, EnduranceConfig, EnduranceReport, GridDecor, SchemeKind};
use decor::exp::common::{deploy_with, ExpParams};
use decor::exp::MatrixRunner;
use decor::geom::{Disk, Point};
use decor::net::{FaultPlan, RotationConfig};

/// The horizon cap: `ENDURANCE_MAX_PERIODS` when set (the CI endurance
/// job), a test-friendly default otherwise.
fn horizon() -> u64 {
    horizon_from(std::env::var("ENDURANCE_MAX_PERIODS").ok())
}

fn horizon_from(var: Option<String>) -> u64 {
    var.and_then(|v| v.parse().ok()).unwrap_or(5_000)
}

/// Runs one endurance arm on a fresh k-covered deployment.
fn endure(
    k: u32,
    seed: u64,
    rotate: bool,
    mutate: impl FnOnce(&mut EnduranceConfig),
) -> EnduranceReport {
    let params = ExpParams::quick();
    let (mut map, _, cfg) = deploy_with(&params, SchemeKind::Centralized, k, seed, |cfg| {
        cfg.rotation = Some(RotationConfig::default());
    });
    let mut e = EnduranceConfig {
        rotate,
        max_periods: horizon(),
        ..EnduranceConfig::default()
    };
    mutate(&mut e);
    run_endurance(&mut map, &decor::core::CentralizedGreedy, &cfg, &e)
}

#[test]
fn rotation_at_k3_at_least_doubles_lifetime() {
    let seed = 7;
    let on = endure(3, seed, false, |_| {});
    let rotated = endure(3, seed, true, |_| {});
    assert!(!on.ended_by_horizon, "baseline must die inside the horizon");
    assert!(
        !rotated.ended_by_horizon,
        "rotation must die inside the horizon"
    );
    assert!(rotated.shifts > 1, "k=3 must split into shifts");
    assert_eq!(on.false_positives, 0);
    assert_eq!(rotated.false_positives, 0, "a sleeper was declared dead");
    assert!(
        rotated.extension_over(&on) >= 2.0,
        "rotation must at least double lifetime: {} vs {} periods",
        rotated.lifetime_periods,
        on.lifetime_periods
    );
}

#[test]
fn sleeping_nodes_are_never_falsely_restored() {
    // A 2-period timeout guarantees every sleep stretch of the agreed
    // schedule crosses the naive-detector alarm threshold, so the
    // suppression counter proves the three-state lifecycle fired.
    let report = endure(3, 11, true, |e| e.timeout_periods = 2);
    assert_eq!(report.false_positives, 0);
    assert_eq!(report.extra_nodes, 0, "nothing to restore, nothing placed");
    assert!(
        report.sleeping_suppressed > 0,
        "no timeout ever crossed on a sleeper — suppression untested"
    );
}

#[test]
fn detected_disaster_heals_into_the_rotation() {
    let report = endure(3, 13, true, |e| {
        e.spare_budget = 80;
        e.disasters = vec![(5, Disk::new(Point::new(40.0, 40.0), 8.0))];
    });
    assert!(report.disaster_deaths > 0, "the disc must hit someone");
    assert!(report.restorations > 0, "the hole must be healed");
    assert!(report.reschedules > 0, "replacements re-enter the rotation");
    assert_eq!(report.false_positives, 0);
}

#[test]
fn endurance_reports_are_bit_identical_across_worker_counts() {
    let run_with = |threads: usize| -> Vec<EnduranceReport> {
        MatrixRunner::new(threads).replicas(3, 0xE2D, |_, i, seed| {
            endure(3, seed, i % 2 == 0, |e| e.max_periods = 500)
        })
    };
    let one = run_with(1);
    let two = run_with(2);
    let eight = run_with(8);
    assert_eq!(one, two, "2 workers diverged from sequential");
    assert_eq!(one, eight, "8 workers diverged from sequential");
}

#[test]
fn horizon_cap_parses_like_the_ci_job_sets_it() {
    assert_eq!(horizon_from(Some("120".into())), 120);
    assert_eq!(horizon_from(Some("not-a-number".into())), 5_000);
    assert_eq!(horizon_from(None), 5_000);
}

#[test]
fn capped_horizon_ends_an_immortal_run() {
    let report = endure(3, 17, true, |e| {
        e.max_periods = 40;
    });
    // 40 periods is far below herd death at default batteries: the cap,
    // not coverage loss, must end this run — exactly how the CI job's
    // ENDURANCE_MAX_PERIODS bounds wall-clock.
    assert!(report.ended_by_horizon);
    assert_eq!(report.lifetime_periods, 40);
}

#[test]
fn restorations_keep_the_map_in_step_with_the_network() {
    // A round-based placer heals with the loop's own chaos plan in
    // force. The loop applies that plan itself, so a restoration must
    // not replay it: every sensor the map retires has to be a node the
    // network buried, or the map under-counts live, beating nodes.
    let params = ExpParams::quick();
    let (mut map, _, mut cfg) = deploy_with(&params, SchemeKind::Centralized, 3, 5, |cfg| {
        cfg.rotation = Some(RotationConfig::default());
    });
    cfg.chaos = Some(FaultPlan::parse("1000 crash 3\n4000 crash 40\n").expect("literal plan"));
    let initial = map.n_active_sensors();
    let e = EnduranceConfig {
        spare_budget: 60,
        max_periods: 40,
        disasters: vec![(3, Disk::new(Point::new(50.0, 50.0), 8.0))],
        ..EnduranceConfig::default()
    };
    let report = run_endurance(&mut map, &GridDecor { cell_size: 5.0 }, &cfg, &e);
    assert!(report.restorations > 0, "the hole must be healed");
    assert_eq!(report.chaos_deaths, 2, "both scripted crashes land");
    let deaths = report.battery_deaths + report.disaster_deaths + report.chaos_deaths;
    assert_eq!(
        map.n_active_sensors(),
        initial + report.extra_nodes - deaths,
        "map and network disagree on who is alive: {report:?}"
    );
}
