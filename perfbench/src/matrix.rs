//! `fleet-deploy` and `lossy-restore`: scenario matrices on the
//! work-stealing `MatrixRunner`, the way `decor-serve` runs them.

use crate::reference::Checker;
use crate::trace::Tracer;
use crate::{expired, threads, AllocCounter, Layers, Timed, Workload};
use decor_core::parallel::replica_seed;
use decor_core::{DeploymentConfig, InvariantChecker, LinkConfig, SchemeKind};
use decor_exp::scenario::{ProbeStats, RunResult, RunSpec, ScenarioSpec, PROBE_PERIOD};
use decor_exp::{execute_run_in, MatrixRunner, ScenarioMatrix, WorkerArena};
use decor_geom::{detect_holes, Point};
use decor_net::{FailurePlan, FaultPlan, HeartbeatConfig, HeartbeatSim, Network};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Replicas per cell: 15 cells x 40 = 600 runs per `fleet-deploy` batch.
const FLEET_REPLICAS: usize = 40;
/// Replicas per cell: 18 cells x 8 = 144 runs per `lossy-restore` batch.
const LOSSY_REPLICAS: usize = 8;
/// Whole batches every timed pass completes.
const MIN_BATCHES: usize = 2;

/// The workload's matrix for input seed `input`.
pub fn build(w: Workload, input: u64) -> ScenarioMatrix {
    match w {
        Workload::FleetDeploy => {
            // Quick scale: 500 points, 60 initial sensors, field 100,
            // lossless.
            let template = ScenarioSpec {
                field_side: 100.0,
                n_points: 500,
                initial_nodes: 60,
                replicas: FLEET_REPLICAS,
                base_seed: input,
                ..ScenarioSpec::default()
            };
            // No `holes` here: deploying from 60 sensors, its exact hole
            // detector makes a run ~200x the others (0.7 s against 3 ms),
            // which would swamp the batch. It restores in
            // `lossy-restore` instead. `grid-big` takes its place, so the
            // median run falls inside the grid runs rather than in the
            // gap between two schemes' run times.
            let schemes = [
                SchemeKind::Centralized,
                SchemeKind::GridSmall,
                SchemeKind::GridBig,
                SchemeKind::VoronoiSmall,
                SchemeKind::Random,
            ];
            ScenarioMatrix::axes(&template, &schemes, &[1, 2, 3], &[0])
        }
        _ => {
            // Paper scale (2000 points, 200 initial sensors), 10% of the
            // sensors fail and are restored over a lossy medium.
            let template = ScenarioSpec {
                workload: decor_exp::Workload::FailureProbe,
                replicas: LOSSY_REPLICAS,
                base_seed: input,
                ..ScenarioSpec::default()
            };
            let schemes = [
                SchemeKind::GridSmall,
                SchemeKind::VoronoiSmall,
                SchemeKind::Holes,
            ];
            ScenarioMatrix::axes(&template, &schemes, &[2, 3], &[10, 20, 30]).and_then(|m| {
                // A third of the cells — those at 20% loss — also carry
                // a chaos plan and the invariant checker.
                let cells = m
                    .cells()
                    .iter()
                    .cloned()
                    .map(|mut c| {
                        if c.loss_pct == 20 {
                            c.chaos_seed = Some(input ^ 0xC4A0);
                        }
                        c
                    })
                    .collect();
                ScenarioMatrix::new(cells)
            })
        }
    }
    .expect("the benchmark's matrices are valid")
}

/// A rebuilt run: its index, its result (`None` if it panicked), and its
/// traced time outside the hole detector.
type Rebuilt = (usize, Option<RunResult>, u64);

/// The guarantees every run keeps at the benchmark's commit, plus its
/// reference fingerprint.
fn run_ok(checker: &Checker, index: usize, r: &RunResult) -> bool {
    checker.matches(index, &r.fingerprint_json()) && r.fully_covered && r.invariant_violations == 0
}

/// Runs of a batch that panicked (`None`) or fail [`run_ok`].
fn count_failed(checker: &Checker, results: &[Option<RunResult>]) -> usize {
    results
        .iter()
        .enumerate()
        .filter(|(i, r)| match r {
            Some(r) if run_ok(checker, *i, r) => false,
            Some(r) => {
                eprintln!("run {i} off reference: {}", r.fingerprint_json());
                true
            }
            None => true,
        })
        .count()
}

/// Runs the matrix; a panicking run fails alone. `MatrixRunner` lets a
/// worker's panic unwind the whole batch, so after one the batch is
/// re-run a run at a time to isolate the culprit.
fn run_batch(runner: &MatrixRunner, matrix: &ScenarioMatrix) -> (Vec<Option<RunResult>>, u64, u64) {
    if let Ok(outcome) = catch_unwind(AssertUnwindSafe(|| runner.run(matrix))) {
        return (outcome.results, outcome.wall_ns, outcome.busy_ns);
    }
    let t0 = Instant::now();
    let mut arena = WorkerArena::new();
    let results: Vec<Option<RunResult>> = matrix
        .expand()
        .iter()
        .map(|run| {
            catch_unwind(AssertUnwindSafe(|| {
                execute_run_in(&matrix.cells()[run.cell], run, &mut arena)
            }))
            .map_err(|_| arena = WorkerArena::new())
            .ok()
        })
        .collect();
    let wall = t0.elapsed().as_nanos() as u64;
    (results, wall, wall)
}

/// One run of every cell: sizes the runner's arenas and warms caches.
fn warm_matrix(matrix: &ScenarioMatrix) -> ScenarioMatrix {
    let cells = matrix
        .cells()
        .iter()
        .map(|c| ScenarioSpec {
            replicas: 1,
            ..c.clone()
        })
        .collect();
    ScenarioMatrix::new(cells).expect("warm-up cells are valid")
}

pub fn timed(w: Workload, input: u64, checker: &Checker, seconds: u64) -> Timed {
    let runner = MatrixRunner::new(threads());
    let mut t = Timed {
        threads: runner.threads(),
        min_runs: MIN_BATCHES * build(w, input).n_runs(),
        ..Timed::default()
    };
    // Set-up: matrix construction and expansion, then a warm-up batch
    // with one run per cell.
    let reps = if w == Workload::FleetDeploy { 5 } else { 3 };
    let mut matrix = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let m = build(w, input);
        std::hint::black_box(m.expand());
        std::hint::black_box(run_batch(&runner, &warm_matrix(&m)));
        t.setup_s.push(t0.elapsed().as_secs_f64());
        matrix = Some(m);
    }
    let matrix = matrix.expect("at least one set-up");

    let start = Instant::now();
    let mut placed = Vec::new();
    let mut measured_ns = 0u64;
    loop {
        let (results, wall_ns, _) = run_batch(&runner, &matrix);
        measured_ns += wall_ns;
        t.attempted += results.len();
        t.failed += count_failed(checker, &results);
        for r in results.iter().flatten() {
            t.run_ms.push(r.wall_ns as f64 / 1e6);
            if placed.len() < results.len() {
                placed.push(r.placed as f64);
            }
        }
        if t.attempted >= t.min_runs && expired(start, seconds) {
            break;
        }
    }
    t.measured_s = measured_ns as f64 / 1e9;
    t.placed_mean = crate::stats::mean(&placed);
    t.notes.push(format!(
        "{} runs per batch, {} cells, {} batches",
        matrix.n_runs(),
        matrix.cells().len(),
        t.attempted / matrix.n_runs()
    ));
    t
}

pub fn record(w: Workload, input: u64) -> Result<Vec<u32>, String> {
    let matrix = build(w, input);
    let (results, _, _) = run_batch(&MatrixRunner::new(threads()), &matrix);
    results
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let r = r.as_ref().ok_or(format!("run {i} panicked"))?;
            if !r.fully_covered || r.invariant_violations != 0 {
                return Err(format!(
                    "run {i} breaks a guarantee: {}",
                    r.fingerprint_json()
                ));
            }
            Ok(crate::stats::digest(&r.fingerprint_json()))
        })
        .collect()
}

/// The chaos plan and invariant checker `execute_run_in` attaches to a
/// cell with a chaos seed.
fn customize(spec: &ScenarioSpec, run: &RunSpec, cfg: &mut DeploymentConfig) {
    if let Some(chaos) = spec.chaos_seed {
        cfg.invariants = InvariantChecker::enabled();
        cfg.chaos = Some(FaultPlan::generate(
            replica_seed(chaos, run.replica),
            spec.initial_nodes,
            1_000,
        ));
    }
}

fn place_span(scheme: SchemeKind) -> String {
    format!("placer.{}.place", scheme.spec_name())
}

/// A deploy run rebuilt from public calls, each timed as a span.
fn traced_deploy(
    spec: &ScenarioSpec,
    run: &RunSpec,
    arena: &mut WorkerArena,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> RunResult {
    let params = spec.params();
    let mut cfg = DeploymentConfig::with_k(spec.k);
    cfg.link = params.link(run.seed);
    customize(spec, run, &mut cfg);
    let (mut map, ns) = tr.span("coverage.build", || {
        arena.make_map(&params, &cfg, params.initial_nodes, run.seed)
    });
    layers.add_ns("coverage.build_ms", ns);
    let placer = params.placer(spec.scheme, run.seed ^ 0x9E37);
    let (out, ns) = tr.span(&place_span(spec.scheme), || {
        placer.place_in(&mut map, &cfg, &mut arena.scratch)
    });
    layers.add_ns(&format!("{}_ms", place_span(spec.scheme)), ns);
    let (coverage, ns) = tr.span("coverage.audit", || map.fraction_k_covered(cfg.k));
    layers.add_ns("coverage.audit_ms", ns);
    layers.add("coverage.points", map.n_points() as f64);
    layers.add("coverage.sensors", map.n_active_sensors() as f64);
    arena.recycle(map);
    add_outcome(layers, &out);
    RunResult {
        cell: run.cell,
        replica: run.replica,
        seed: run.seed,
        coverage_pct: coverage * 100.0,
        missed_area: (1.0 - coverage) * params.field().area(),
        total_sensors: out.total_sensors(),
        placed: out.placed.len(),
        rounds: out.rounds,
        retries: out.messages.retries,
        gave_up: out.messages.notices_gave_up,
        fully_covered: out.fully_covered,
        invariant_violations: cfg.invariants.violations().len(),
        probe: None,
        wall_ns: 0,
        trace: None,
    }
}

fn add_outcome(layers: &mut Layers, out: &decor_core::PlacementOutcome) {
    let m = &out.messages;
    layers.add("placer.rounds", out.rounds as f64);
    layers.add("placer.placed", out.placed.len() as f64);
    layers.add("placer.protocol_msgs", m.protocol_total as f64);
    layers.add("net.retries", m.retries as f64);
    layers.add("net.acks", m.acks as f64);
    layers.add("net.gave_up", m.notices_gave_up as f64);
    layers.add("net.duplicates_suppressed", m.duplicates_suppressed as f64);
    if m.protocol_total > 0 {
        // Retransmissions are counted inside `protocol_total`, so the
        // useful share is the first transmissions.
        let total = m.protocol_total as f64;
        layers.add("net.delivery_yield", (total - m.retries as f64) / total);
    }
}

/// Exact 1-coverage holes of the map's active sensors.
fn holes(map: &decor_core::CoverageMap, rs: f64) -> decor_geom::HoleReport {
    let sensors: Vec<Point> = map.active_sensors().into_iter().map(|(_, p)| p).collect();
    detect_holes(&sensors, rs, map.field())
}

/// A failure-probe run rebuilt from public calls, each timed as a span,
/// plus the exact hole detector on the damaged and the healed field.
/// Returns the result and the time spent in the hole detector, which
/// the untraced run does not do.
fn traced_probe(
    spec: &ScenarioSpec,
    run: &RunSpec,
    arena: &mut WorkerArena,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> (RunResult, u64) {
    let params = spec.params();
    let (loss, seed) = (spec.loss_pct, run.seed);
    // The initial centralized deployment.
    let mut cfg = DeploymentConfig::with_k(spec.k);
    cfg.link = params.link(seed);
    customize(spec, run, &mut cfg);
    let (mut map, ns) = tr.span("coverage.build", || {
        arena.make_map(&params, &cfg, params.initial_nodes, seed)
    });
    layers.add_ns("coverage.build_ms", ns);
    let placer = params.placer(SchemeKind::Centralized, seed ^ 0x9E37);
    let (_, ns) = tr.span(&place_span(SchemeKind::Centralized), || {
        placer.place_in(&mut map, &cfg, &mut arena.scratch)
    });
    layers.add_ns("placer.centralized.place_ms", ns);

    // Heartbeat detection over the lossy medium.
    let sensors = map.active_sensors();
    let mut net = match arena.scratch.net.take() {
        Some(mut pooled) => {
            pooled.reset(*map.field());
            pooled
        }
        None => Network::new(*map.field()),
    };
    for &(_, pos) in &sensors {
        net.add_node(pos, cfg.rs, cfg.rc);
    }
    net.set_loss(loss as f64 / 100.0, seed ^ 0xF0);
    let victims = FailurePlan::Fraction {
        frac: spec.fail_frac,
        seed: seed ^ 0x0F,
    }
    .victims(&net);
    let sim = HeartbeatSim::new(HeartbeatConfig {
        period: PROBE_PERIOD,
        timeout_periods: 3,
        seed: seed ^ 0xBEA7,
    });
    let fail_at = 4 * PROBE_PERIOD;
    let (report, ns) = tr.span("net.heartbeat", || {
        sim.run(&mut net, &victims, fail_at, fail_at + 30 * PROBE_PERIOD)
    });
    layers.add_ns("net.heartbeat_ms", ns);
    let rate = if victims.is_empty() {
        1.0
    } else {
        report.first_detection.len() as f64 / victims.len() as f64
    };
    let latency = report
        .max_latency(fail_at)
        .map(|l| l as f64 / PROBE_PERIOD as f64)
        .unwrap_or(0.0);
    layers.add("net.heartbeats_sent", report.heartbeats_sent as f64);
    layers.add("net.detection_rate_pct", rate * 100.0);
    layers.add("net.false_alarms", report.false_positives.len() as f64);

    // The failure, the referee on the damaged field, the restoration.
    let (_, ns) = tr.span("coverage.fail", || {
        for &v in &victims {
            map.deactivate_sensor(sensors[v].0);
        }
    });
    layers.add_ns("coverage.fail_ms", ns);
    let (_, holes_before) = tr.span("geom.detect_holes", || holes(&map, cfg.rs));
    layers.add_ns("geom.detect_holes_ms", holes_before);
    if loss > 0 {
        cfg.link = LinkConfig::lossy(loss as f64 / 100.0, seed ^ 0x7A);
    }
    let placer = params.placer(spec.scheme, seed ^ 0x9E37);
    arena.scratch.net = Some(net);
    let (restore, ns) = tr.span(&place_span(spec.scheme), || {
        placer.place_in(&mut map, &cfg, &mut arena.scratch)
    });
    layers.add_ns(&format!("{}_ms", place_span(spec.scheme)), ns);
    add_outcome(layers, &restore);
    let (coverage, ns) = tr.span("coverage.audit", || map.fraction_k_covered(cfg.k));
    layers.add_ns("coverage.audit_ms", ns);
    let (healed, holes_after) = tr.span("geom.detect_holes", || holes(&map, cfg.rs));
    layers.add_ns("geom.detect_holes_ms", holes_after);
    layers.add("geom.exact_hole_area", healed.total_area());
    layers.add("geom.holes", healed.holes().len() as f64);
    layers.add("coverage.points", map.n_points() as f64);
    layers.add("coverage.sensors", map.n_active_sensors() as f64);
    arena.recycle(map);
    let result = RunResult {
        cell: run.cell,
        replica: run.replica,
        seed,
        coverage_pct: coverage * 100.0,
        missed_area: (1.0 - coverage) * params.field().area(),
        total_sensors: restore.total_sensors(),
        placed: restore.placed.len(),
        rounds: restore.rounds,
        retries: restore.messages.retries,
        gave_up: restore.messages.notices_gave_up,
        fully_covered: restore.fully_covered,
        invariant_violations: cfg.invariants.violations().len(),
        probe: Some(ProbeStats {
            detection_rate_pct: rate * 100.0,
            false_alarms: report.false_positives.len() as f64,
            worst_latency_periods: latency,
        }),
        wall_ns: 0,
        trace: None,
    };
    (result, holes_before + holes_after)
}

pub fn traced(w: Workload, input: u64, checker: &Checker, allocs: AllocCounter) -> Layers {
    let matrix = build(w, input);
    let runner = MatrixRunner::new(threads());
    let mut layers = Layers::default();
    let origin = Instant::now();

    // Shape context: the Halton set each distinct cell shape needs.
    let mut tr = Tracer::new(origin, 0);
    let mut shapes: Vec<(usize, u64)> = Vec::new();
    for c in matrix.cells() {
        let shape = (c.n_points, c.field_side.to_bits());
        if !shapes.contains(&shape) {
            shapes.push(shape);
            let field = c.params().field();
            let (_, ns) = tr.span("lds.halton", || {
                decor_lds::halton_points(c.n_points, &field)
            });
            layers.add_ns("lds.halton_ms", ns);
        }
    }
    layers.spans.append(&mut tr.spans);

    // The untraced batch: the reference the rebuild must reproduce.
    run_batch(&runner, &warm_matrix(&matrix));
    let (untraced, wall_ns, busy_ns) = run_batch(&runner, &matrix);
    layers.add(
        "fleet.utilization",
        busy_ns as f64 / (wall_ns as f64 * runner.threads() as f64),
    );
    layers.add_ns("fleet.busy_ms", busy_ns);
    layers.add("fleet.runs", untraced.len() as f64);
    layers.add("fleet.threads", runner.threads() as f64);

    // The traced rebuild, closed-loop on the same number of workers.
    let runs = matrix.expand();
    let next = AtomicUsize::new(0);
    let workers: Vec<(Layers, Vec<Rebuilt>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..runner.threads())
            .map(|wk| {
                let (runs, next, cells) = (&runs, &next, matrix.cells());
                s.spawn(move || {
                    let mut arena = WorkerArena::new();
                    let mut tr = Tracer::new(origin, wk + 1);
                    let mut layers = Layers::default();
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(run) = runs.get(i) else { break };
                        let spec = &cells[run.cell];
                        tr.begin_run(i as u64);
                        let rebuilt = catch_unwind(AssertUnwindSafe(|| match spec.workload {
                            decor_exp::Workload::Deploy => (
                                traced_deploy(spec, run, &mut arena, &mut tr, &mut layers),
                                0,
                            ),
                            decor_exp::Workload::FailureProbe => {
                                traced_probe(spec, run, &mut arena, &mut tr, &mut layers)
                            }
                        }));
                        let run_ns = tr.end_run();
                        match rebuilt {
                            Ok((r, referee_ns)) => done.push((i, Some(r), run_ns - referee_ns)),
                            Err(_) => {
                                arena = WorkerArena::new();
                                done.push((i, None, 0));
                            }
                        }
                    }
                    layers.spans = tr.spans;
                    (layers, done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker panicked"))
            .collect()
    });
    let (mut traced_ns, mut untraced_ns) = (0u64, 0u64);
    for (worker_layers, done) in workers {
        layers.merge(worker_layers);
        for (i, r, ns) in done {
            layers.attempted += 1;
            let (Some(r), Some(plain)) = (r, &untraced[i]) else {
                layers.failed += 1;
                continue;
            };
            let same = r.fingerprint_json() == plain.fingerprint_json();
            if !same || !run_ok(checker, i, plain) {
                eprintln!(
                    "run {i}: traced {} untraced {}",
                    r.fingerprint_json(),
                    plain.fingerprint_json()
                );
                layers.failed += 1;
            }
            traced_ns += ns;
            untraced_ns += plain.wall_ns;
        }
    }
    layers.add(
        "fleet.tracing_overhead",
        traced_ns as f64 / untraced_ns.max(1) as f64,
    );

    // Allocations: one thread, warm arena, one untraced run per cell
    // after a warm-up run per cell, so the count repeats exactly.
    let mut arena = WorkerArena::new();
    let mut total = 0u64;
    for replica in 0..2 {
        for (cell, spec) in matrix.cells().iter().enumerate() {
            let run = RunSpec {
                cell,
                replica,
                seed: replica_seed(spec.base_seed, replica),
            };
            let a0 = allocs();
            std::hint::black_box(execute_run_in(spec, &run, &mut arena));
            if replica == 1 {
                total += allocs() - a0;
            }
        }
    }
    layers.add(
        "fleet.allocs_per_run",
        total as f64 / matrix.cells().len() as f64,
    );
    layers.notes.push(format!(
        "{} runs rebuilt from public calls on {} workers; tracing overhead excludes the hole detector",
        runs.len(),
        runner.threads()
    ));
    layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Reference;
    use crate::stats::digest;

    #[test]
    fn a_tampered_reference_fails_exactly_its_run() {
        let spec = ScenarioSpec {
            n_points: 200,
            initial_nodes: 20,
            replicas: 3,
            k: 1,
            scheme: SchemeKind::GridSmall,
            ..ScenarioSpec::default()
        };
        let matrix = ScenarioMatrix::new(vec![spec]).unwrap();
        let (results, _, _) = run_batch(&MatrixRunner::new(2), &matrix);
        let digests: Vec<u32> = results
            .iter()
            .map(|r| digest(&r.as_ref().unwrap().fingerprint_json()))
            .collect();
        let mut reference = Reference::default();
        reference.insert(0, digests.clone());
        assert_eq!(
            count_failed(&Checker::new(&reference, 0).unwrap(), &results),
            0
        );

        let mut tampered = digests;
        tampered[1] ^= 1;
        reference.insert(0, tampered);
        let checker = Checker::new(&reference, 0).unwrap();
        assert_eq!(count_failed(&checker, &results), 1);
        assert!(run_ok(&checker, 0, results[0].as_ref().unwrap()));
        assert!(!run_ok(&checker, 1, results[1].as_ref().unwrap()));

        // A run that panicked counts as failed too.
        let mut lost = results;
        lost[2] = None;
        assert_eq!(count_failed(&checker, &lost), 2);
    }

    #[test]
    fn a_panicking_run_fails_alone() {
        let fine = ScenarioSpec {
            n_points: 200,
            initial_nodes: 20,
            replicas: 2,
            k: 1,
            ..ScenarioSpec::default()
        };
        // 300 sensors on a 2x2 field cover every point more than the
        // coverage counters can hold: the map's saturation assert fires.
        let saturated = ScenarioSpec {
            field_side: 2.0,
            initial_nodes: 300,
            replicas: 1,
            ..fine.clone()
        };
        let matrix = ScenarioMatrix::new(vec![fine.clone(), saturated, fine]).unwrap();
        let (results, _, _) = run_batch(&MatrixRunner::new(2), &matrix);
        let survived: Vec<bool> = results.iter().map(Option::is_some).collect();
        assert_eq!(survived, [true, true, false, true, true]);
    }
}
