//! Per-worker simulation arenas: the memory-reuse layer behind the
//! scenario fleet's zero-allocation steady state.
//!
//! A [`WorkerArena`] is owned by one fleet worker and threaded through
//! back-to-back runs. It pools the three allocation-heavy pieces of a
//! run:
//!
//! - the **coverage map** — the empty map (Halton approximation, grid
//!   indexes, tile CSR, zero sensors) is a pure function of
//!   `(n_points, field, rs, k)`, so the arena caches one *template* per
//!   distinct key and refills the working map from it with the
//!   capacity-preserving [`CoverageMap::reset_from`];
//! - the **initial-deployment points** — refilled in place through
//!   [`decor_lds::random_points_into`], which draws the identical RNG
//!   stream as the cold [`decor_lds::random_points`];
//! - the **placer scratch** ([`SimScratch`]) — benefit engine, candidate
//!   buffers, simulated radio network and transport, rebuilt per run
//!   through the same `reset_*` paths the cold constructors use.
//!
//! Reuse is strictly *allocation* reuse: every pooled structure is fully
//! re-initialized along the cold constructor's own code path, so a warm
//! run is bit-identical to a cold one. The `pool_reuse` proptest at the
//! workspace root interleaves runs of different field sizes, schemes and
//! loss settings through a single arena and asserts exactly that.

use crate::common::ExpParams;
use decor_core::{CoverageMap, DeploymentConfig, PlacementOutcome, SchemeKind, SimScratch};
use decor_geom::Point;
use decor_lds::{halton_points, random_points_into};

/// Everything the empty coverage map depends on. Two runs with equal
/// keys may share a template; float fields are compared bit-wise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TemplateKey {
    n_points: usize,
    min_x: u64,
    min_y: u64,
    width: u64,
    height: u64,
    rs: u64,
    k: u32,
}

impl TemplateKey {
    fn new(params: &ExpParams, cfg: &DeploymentConfig) -> Self {
        let field = params.field();
        TemplateKey {
            n_points: params.n_points,
            min_x: field.min.x.to_bits(),
            min_y: field.min.y.to_bits(),
            width: field.width().to_bits(),
            height: field.height().to_bits(),
            rs: cfg.rs.to_bits(),
            k: cfg.k,
        }
    }
}

/// Pooled per-worker simulation state. Create one per fleet worker and
/// thread it through [`crate::scenario::execute_run_in`]; the first run
/// per scenario shape sizes every buffer and later runs reuse the
/// capacity.
pub struct WorkerArena {
    /// Empty-map templates, one per distinct scenario shape. A fleet
    /// worker sees a handful of shapes at most, so a linear scan beats
    /// hashing.
    templates: Vec<(TemplateKey, CoverageMap)>,
    /// The recycled working map, refilled from a template per run.
    working: Option<CoverageMap>,
    /// Initial-deployment position buffer.
    initial: Vec<Point>,
    /// Placer scratch threaded into [`decor_core::Placer::place_in`].
    pub scratch: SimScratch,
}

impl WorkerArena {
    /// An empty arena; everything is built lazily on first use.
    pub fn new() -> Self {
        WorkerArena {
            templates: Vec::new(),
            working: None,
            initial: Vec::new(),
            scratch: SimScratch::new(),
        }
    }

    /// Number of distinct empty-map templates cached so far.
    pub fn n_templates(&self) -> usize {
        self.templates.len()
    }

    /// The empty map for this scenario shape, built on first request.
    fn template(&mut self, params: &ExpParams, cfg: &DeploymentConfig) -> &CoverageMap {
        let key = TemplateKey::new(params, cfg);
        let i = match self.templates.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                self.templates.push((key, empty_map(params, cfg)));
                self.templates.len() - 1
            }
        };
        &self.templates[i].1
    }

    /// Pooled equivalent of [`ExpParams::make_map`]: a coverage map with
    /// the Halton approximation and `initial` random sensors, bit-equal
    /// to the cold constructor's output but built into recycled storage.
    /// Return the map with [`WorkerArena::recycle`] when the run ends.
    pub fn make_map(
        &mut self,
        params: &ExpParams,
        cfg: &DeploymentConfig,
        initial: usize,
        seed: u64,
    ) -> CoverageMap {
        let mut map = match self.working.take() {
            Some(mut m) => {
                m.reset_from(self.template(params, cfg));
                m
            }
            // Nothing recycled yet: build this run's map directly, so a
            // one-shot arena builds the empty map once and never clones
            // it. The template is built when a recycled map needs one.
            None => empty_map(params, cfg),
        };
        let field = params.field();
        random_points_into(initial, &field, seed, &mut self.initial);
        for &p in &self.initial {
            map.add_sensor(p, cfg.rs);
        }
        map
    }

    /// Returns a finished run's map to the pool so the next
    /// [`WorkerArena::make_map`] reuses its allocations.
    pub fn recycle(&mut self, map: CoverageMap) {
        self.working = Some(map);
    }
}

/// The empty coverage map of a scenario shape: the Halton approximation,
/// no sensors.
fn empty_map(params: &ExpParams, cfg: &DeploymentConfig) -> CoverageMap {
    let field = params.field();
    CoverageMap::new(halton_points(params.n_points, &field), &field, cfg)
}

impl Default for WorkerArena {
    fn default() -> Self {
        Self::new()
    }
}

/// Deploys `scheme` at coverage requirement `k` on the random field of
/// `seed`: builds the config (then `customize`s it), takes the map from
/// the arena, and runs the placer through
/// [`decor_core::Placer::place_in`] with the arena's scratch. This is the
/// one deploy path; [`crate::common::deploy_with`] runs it on a fresh
/// arena. Hand the returned map back with [`WorkerArena::recycle`] once
/// done with it, so the next deploy reuses its storage.
pub fn deploy_with_in(
    params: &ExpParams,
    scheme: SchemeKind,
    k: u32,
    seed: u64,
    customize: impl FnOnce(&mut DeploymentConfig),
    arena: &mut WorkerArena,
) -> (CoverageMap, PlacementOutcome, DeploymentConfig) {
    let mut cfg = DeploymentConfig::with_k(k);
    cfg.link = params.link(seed);
    customize(&mut cfg);
    let mut map = arena.make_map(params, &cfg, params.initial_nodes, seed);
    let placer = params.placer(scheme, seed ^ 0x9E37);
    let outcome = placer.place_in(&mut map, &cfg, &mut arena.scratch);
    (map, outcome, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::deploy_with;

    #[test]
    fn pooled_deploy_matches_cold_deploy() {
        let params = ExpParams {
            n_points: 300,
            initial_nodes: 30,
            ..ExpParams::quick()
        };
        let mut arena = WorkerArena::new();
        for scheme in [SchemeKind::Centralized, SchemeKind::GridSmall] {
            for seed in [1u64, 2, 3] {
                let (cold_map, cold_out, cold_cfg) = deploy_with(&params, scheme, 1, seed, |_| {});
                let (warm_map, warm_out, warm_cfg) =
                    deploy_with_in(&params, scheme, 1, seed, |_| {}, &mut arena);
                assert_eq!(warm_out.placed, cold_out.placed, "{scheme:?}/{seed}");
                assert_eq!(warm_out.rounds, cold_out.rounds);
                assert_eq!(warm_out.messages, cold_out.messages);
                assert_eq!(
                    warm_map.fraction_k_covered(warm_cfg.k),
                    cold_map.fraction_k_covered(cold_cfg.k)
                );
                arena.recycle(warm_map);
            }
        }
        assert_eq!(arena.n_templates(), 1, "one shape, one template");
    }

    #[test]
    fn templates_are_deduplicated_per_shape() {
        let mut arena = WorkerArena::new();
        let small = ExpParams {
            n_points: 200,
            initial_nodes: 10,
            ..ExpParams::quick()
        };
        let big = ExpParams {
            n_points: 400,
            initial_nodes: 10,
            ..ExpParams::quick()
        };
        for params in [&small, &big, &small, &big] {
            let (map, _, _) =
                deploy_with_in(params, SchemeKind::Centralized, 1, 9, |_| {}, &mut arena);
            arena.recycle(map);
        }
        assert_eq!(arena.n_templates(), 2);
    }
}
