//! Pool-poisoning detector for the worker arena.
//!
//! A warm [`WorkerArena`] must be indistinguishable from a cold
//! allocator: whatever sequence of scenario shapes ran through it before,
//! the next run's result — including its trace — must be byte-identical
//! to executing the same `(spec, run)` from fresh state. This proptest
//! interleaves randomized back-to-back runs (varying field size, scheme,
//! k, loss, chaos seed, workload, tracing) through a single arena and
//! compares each against [`execute_run`], so any state that survives
//! [`WorkerArena::recycle`] and leaks into the next run shows up as a
//! fingerprint mismatch.

use decor_core::SchemeKind;
use decor_exp::scenario::{execute_run, execute_run_in, RunSpec, ScenarioSpec, Workload};
use decor_exp::WorkerArena;
use proptest::prelude::*;

/// One randomized cell shape, derived from a single 64-bit draw (the
/// vendored proptest shim has no `prop_oneof!`, so the fields carve up
/// the seed's bits). Kept deliberately small: the point is cross-run
/// contamination, not scale.
#[derive(Clone, Debug)]
struct Shape {
    scheme: SchemeKind,
    workload: Workload,
    k: u32,
    field_side: f64,
    n_points: usize,
    initial_nodes: usize,
    loss_pct: u32,
    chaos_seed: Option<u64>,
    trace: bool,
    base_seed: u64,
}

impl Shape {
    fn from_seed(s: u64) -> Shape {
        let schemes = [
            SchemeKind::Centralized,
            SchemeKind::Random,
            SchemeKind::GridSmall,
            SchemeKind::VoronoiSmall,
            SchemeKind::Holes,
        ];
        Shape {
            scheme: schemes[(s % 5) as usize],
            // 3:1 deploy-heavy mix, like the production sweeps.
            workload: if (s >> 2).is_multiple_of(4) {
                Workload::FailureProbe
            } else {
                Workload::Deploy
            },
            k: 1 + ((s >> 4) % 2) as u32,
            field_side: [50.0, 80.0, 100.0][((s >> 5) % 3) as usize],
            n_points: 60 + ((s >> 7) % 101) as usize,
            initial_nodes: 8 + ((s >> 14) % 17) as usize,
            loss_pct: [0, 10, 30][((s >> 19) % 3) as usize],
            chaos_seed: if (s >> 21).is_multiple_of(3) {
                Some(1 + ((s >> 23) % 1_000))
            } else {
                None
            },
            trace: (s >> 33) & 1 == 1,
            base_seed: 1 + ((s >> 34) % 10_000),
        }
    }

    fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            scheme: self.scheme,
            workload: self.workload,
            k: self.k,
            field_side: self.field_side,
            n_points: self.n_points,
            initial_nodes: self.initial_nodes,
            loss_pct: self.loss_pct,
            chaos_seed: self.chaos_seed,
            replicas: 1,
            base_seed: self.base_seed,
            trace: self.trace,
            ..ScenarioSpec::default()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Interleaved shapes through one arena ≡ fresh execution, bit for
    /// bit (fingerprints zero the one nondeterministic field, wall time,
    /// and carry everything else including the trace text).
    #[test]
    fn warm_arena_matches_fresh_execution(seeds in prop::collection::vec(any::<u64>(), 2..5)) {
        let mut arena = WorkerArena::new();
        for (i, &s) in seeds.iter().enumerate() {
            let shape = Shape::from_seed(s);
            let spec = shape.spec();
            let run = RunSpec {
                cell: i,
                replica: 0,
                seed: decor_core::parallel::replica_seed(spec.base_seed, 0),
            };
            let warm = execute_run_in(&spec, &run, &mut arena);
            let fresh = execute_run(&spec, &run);
            prop_assert_eq!(
                warm.fingerprint_json(),
                fresh.fingerprint_json(),
                "arena poisoned by runs 0..{} before shape {:?}",
                i,
                shape
            );
        }
    }
}
