//! The sharded, incrementally-maintained placement engine behind the
//! centralized greedy baseline and the hole healer's top-up.
//!
//! Greedy placement asks "which candidate has the largest benefit
//! (Equation 1)?" after every placement, hundreds of times per run. A
//! linear scan re-evaluating every benefit would pay O(candidates · deg)
//! per step; this engine pays only for what a placement changed:
//!
//! - **Exact delta maintenance.** A sensor landing at `q` changes the
//!   coverage of exactly the points within its radius; each such point
//!   whose deficit actually moved contributes **−1** to the benefit of
//!   every candidate within `rs` of it (benefits are integers, so the
//!   deltas are exact — placement sequences stay bit-identical to
//!   re-evaluating [`benefit_at`] everywhere).
//! - **Spatial shards with lazy maxima.** Candidates are bucketed into
//!   square tiles; each tile caches its best `(slot, benefit)` and is
//!   invalidated only when one of its candidates changes. `best()` then
//!   refreshes the dirty tiles (a scan over their few slots — no
//!   geometry) and reduces over the per-tile maxima instead of all
//!   candidates.
//! - **Parallel build.** The initial benefit vector evaluates Equation 1
//!   once per candidate; large builds fan out over scoped threads in
//!   fixed chunks, so the result does not depend on the
//!   thread count.
//!
//! Tie-breaking contract: maximum benefit, ties to the lowest slot — the
//! naive argmax over [`benefit_at`] the tests compare against.

use crate::benefit::benefit_at;
use crate::coverage::CoverageMap;
use decor_geom::{query_bucket_edge, FrozenGridIndex, Point};

/// Below this many candidates the initial benefit build stays sequential:
/// thread spawn would cost more than it saves.
const PAR_BUILD_THRESHOLD: usize = 1024;

struct Shard {
    /// Member slot indices, ascending (so a keep-first max scan breaks
    /// ties to the lowest slot).
    slots: Vec<usize>,
    /// Cached best `(slot, benefit)` with positive benefit; valid only
    /// when `dirty` is false.
    best: Option<(usize, u64)>,
    dirty: bool,
}

/// Sharded benefit engine over a fixed candidate set. See the module docs.
///
/// Every constructor routes through the capacity-preserving
/// [`ShardedBenefitEngine::reset_global`] rebuild path, so a warm engine
/// reused across runs produces state bit-identical to a freshly built one.
pub struct ShardedBenefitEngine {
    rs: f64,
    k: u32,
    /// Candidate point ids, indexed by slot.
    slot_pid: Vec<usize>,
    slot_pos: Vec<Point>,
    benefits: Vec<u64>,
    shard_of_slot: Vec<u32>,
    shards: Vec<Shard>,
    /// Candidate positions indexed by slot, so a changed point finds the
    /// candidates it contributes to. The candidate set is fixed at build
    /// time, so the index is frozen CSR; resets reuse its slabs.
    cand_index: FrozenGridIndex,
}

impl ShardedBenefitEngine {
    /// Builds a global-benefit engine (Equation 1) over candidate point
    /// ids of `map`, sharded into square tiles sized to the influence
    /// diameter `2·rs` (clamped so huge radii degenerate to one shard and
    /// tiny radii to at most a 64×64 tiling).
    pub fn global(map: &CoverageMap, cand_pids: Vec<usize>, rs: f64, k: u32) -> Self {
        let mut engine = Self::empty();
        let mut cands = cand_pids;
        engine.reset_global(map, &mut cands, rs, k);
        engine
    }

    /// An engine with no candidates and no shards. The useful starting
    /// state for a pooled engine: the first `reset_global` sizes the slabs
    /// and later resets reuse them.
    pub fn empty() -> Self {
        ShardedBenefitEngine {
            rs: 0.0,
            k: 0,
            slot_pid: Vec::new(),
            slot_pos: Vec::new(),
            benefits: Vec::new(),
            shard_of_slot: Vec::new(),
            shards: Vec::new(),
            cand_index: FrozenGridIndex::empty(),
        }
    }

    /// Rebuilds `self` as a global-benefit engine over `cand_pids`,
    /// reusing every slab already owned. `cand_pids` is *swapped* into
    /// the engine (the caller gets the previous candidate buffer back,
    /// contents unspecified) so round-tripping through an arena never
    /// reallocates the candidate list. State is bit-identical to
    /// [`ShardedBenefitEngine::global`].
    pub fn reset_global(&mut self, map: &CoverageMap, cand_pids: &mut Vec<usize>, rs: f64, k: u32) {
        self.rs = rs;
        self.k = k;
        std::mem::swap(&mut self.slot_pid, cand_pids);
        let field = map.field();
        let (w, h) = (field.width(), field.height());
        let tile = (2.0 * rs).max(w.max(h) / 64.0);
        let nx = (w / tile).ceil().max(1.0) as usize;
        let ny = (h / tile).ceil().max(1.0) as usize;
        let bucket = query_bucket_edge(rs, w.min(h), self.slot_pid.len().max(1));
        let origin = field.min;
        self.slot_pos.clear();
        self.shard_of_slot.clear();
        for sh in &mut self.shards {
            sh.slots.clear();
            sh.best = None;
            sh.dirty = false;
        }
        self.shards.resize_with(nx * ny, || Shard {
            slots: Vec::new(),
            best: None,
            dirty: false,
        });
        for (slot, &pid) in self.slot_pid.iter().enumerate() {
            let pos = map.points()[pid];
            let tx = (((pos.x - origin.x) / tile).floor().max(0.0) as usize).min(nx - 1);
            let ty = (((pos.y - origin.y) / tile).floor().max(0.0) as usize).min(ny - 1);
            let si = ty * nx + tx;
            self.shards[si].slots.push(slot);
            self.shards[si].dirty = true;
            self.shard_of_slot.push(si as u32);
            self.slot_pos.push(pos);
        }
        self.cand_index.rebuild_from_points(
            field.min,
            (w, h),
            bucket,
            self.slot_pos.iter().copied().enumerate(),
        );
        let slot_pos = &self.slot_pos;
        par_compute_into(
            slot_pos.len(),
            &|slot: usize| benefit_at(map, slot_pos[slot], rs, k),
            &mut self.benefits,
        );
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.slot_pid.len()
    }

    /// True when the candidate set is empty.
    pub fn is_empty(&self) -> bool {
        self.slot_pid.is_empty()
    }

    /// Current benefit of candidate slot `slot`.
    pub fn benefit(&self, slot: usize) -> u64 {
        self.benefits[slot]
    }

    /// The best candidate: `(slot, point_id, position, benefit)` with
    /// maximum benefit, ties to the lowest slot; `None` when every
    /// candidate has zero benefit. Refreshes the dirty shards' cached
    /// maxima first, then reduces over the per-shard maxima.
    pub fn best(&mut self) -> Option<(usize, usize, Point, u64)> {
        let mut best: Option<(usize, u64)> = None;
        for sh in &mut self.shards {
            if sh.dirty {
                sh.best = None;
                for &slot in &sh.slots {
                    let b = self.benefits[slot];
                    if b > 0 && sh.best.is_none_or(|(_, bb)| b > bb) {
                        sh.best = Some((slot, b));
                    }
                }
                sh.dirty = false;
            }
            if let Some((slot, b)) = sh.best {
                if best.is_none_or(|(bs, bb)| b > bb || (b == bb && slot < bs)) {
                    best = Some((slot, b));
                }
            }
        }
        best.map(|(slot, b)| (slot, self.slot_pid[slot], self.slot_pos[slot], b))
    }

    /// Notifies the engine that a sensor of radius `rs_new` landed at `q`,
    /// *after* the map was updated. O(changed points × local candidates).
    pub fn on_sensor_added(&mut self, map: &CoverageMap, q: Point, rs_new: f64) {
        // Coverage rose for exactly the points within `rs_new` of `q`; the
        // deficit of such a point fell by 1 iff it was still below `k`
        // before, i.e. its coverage is now at most `k`.
        map.for_each_point_within_unordered(q, rs_new, |pid, ppos| {
            if map.coverage(pid) <= self.k {
                self.cand_index.for_each_within(ppos, self.rs, |slot, _| {
                    self.benefits[slot] -= 1;
                    self.shards[self.shard_of_slot[slot] as usize].dirty = true;
                });
            }
        });
    }
}

/// Evaluates `f(0..n)` into `out` (cleared first), fanning chunks out
/// over scoped threads when `n` is large enough to amortize
/// thread spawn. Workers write disjoint `chunks_mut` slabs of `out`
/// directly, so a warm buffer makes the whole evaluation allocation-free;
/// `f` is deterministic per index, so the result is identical either way.
fn par_compute_into<F>(n: usize, f: &F, out: &mut Vec<u64>)
where
    F: Fn(usize) -> u64 + Sync,
{
    out.clear();
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n.max(1));
    if threads <= 1 || n < PAR_BUILD_THRESHOLD {
        out.extend((0..n).map(f));
        return;
    }
    out.resize(n, 0);
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (i, slab) in out.chunks_mut(chunk).enumerate() {
            let start = i * chunk;
            scope.spawn(move || {
                for (j, b) in slab.iter_mut().enumerate() {
                    *b = f(start + j);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeploymentConfig;
    use decor_geom::Aabb;
    use decor_lds::halton_points;

    fn setup(n_pts: usize, k: u32) -> (CoverageMap, DeploymentConfig) {
        let field = Aabb::square(100.0);
        let cfg = DeploymentConfig::with_k(k);
        let map = CoverageMap::new(halton_points(n_pts, &field), &field, &cfg);
        (map, cfg)
    }

    /// The naive oracle: argmax of [`benefit_at`] over `cands`, ties to
    /// the lowest slot, `None` when every benefit is zero.
    fn naive_best(
        map: &CoverageMap,
        cands: &[usize],
        rs: f64,
        k: u32,
    ) -> Option<(usize, usize, Point, u64)> {
        let mut best: Option<(usize, u64)> = None;
        for (slot, &pid) in cands.iter().enumerate() {
            let b = benefit_at(map, map.points()[pid], rs, k);
            if b > 0 && best.is_none_or(|(_, bb)| b > bb) {
                best = Some((slot, b));
            }
        }
        best.map(|(slot, b)| (slot, cands[slot], map.points()[cands[slot]], b))
    }

    fn assert_slots_match_direct(
        engine: &ShardedBenefitEngine,
        map: &CoverageMap,
        cands: &[usize],
        cfg: &DeploymentConfig,
    ) {
        assert_eq!(engine.len(), cands.len());
        for (slot, &pid) in cands.iter().enumerate() {
            assert_eq!(
                engine.benefit(slot),
                benefit_at(map, map.points()[pid], cfg.rs, cfg.k),
                "slot {slot} drifted"
            );
        }
    }

    #[test]
    fn global_best_matches_naive_argmax_under_placements() {
        let (mut map, cfg) = setup(600, 3);
        let cands: Vec<usize> = (0..map.n_points()).collect();
        let mut engine = ShardedBenefitEngine::global(&map, cands.clone(), cfg.rs, cfg.k);
        for step in 0..60usize {
            let want = naive_best(&map, &cands, cfg.rs, cfg.k);
            assert_eq!(engine.best(), want, "step {step}");
            let Some((_, _, pos, _)) = want else {
                break;
            };
            map.add_sensor(pos, cfg.rs);
            engine.on_sensor_added(&map, pos, cfg.rs);
        }
        assert_slots_match_direct(&engine, &map, &cands, &cfg);
    }

    #[test]
    fn boundary_points_at_exactly_rs_count_in_every_path() {
        // A point sitting exactly on a sensing-disk boundary (d == rs)
        // must be covered in the naive scan, the incremental map
        // counters, the engine and the direct benefit evaluation alike —
        // the predicate is single-sourced in `Point::in_disk` and this
        // pins the inclusive boundary.
        let field = Aabb::square(100.0);
        let cfg = DeploymentConfig::with_k(1); // rs = 4.0
        let pts = vec![
            decor_geom::Point::new(50.0, 50.0),
            decor_geom::Point::new(54.0, 50.0), // exactly rs east
            decor_geom::Point::new(50.0, 46.0), // exactly rs south
            decor_geom::Point::new(46.0, 50.0), // exactly rs west
            decor_geom::Point::new(53.0, 53.0), // sqrt(18) > rs: outside
        ];
        let mut map = CoverageMap::new(pts, &field, &cfg);
        let cands: Vec<usize> = (0..map.n_points()).collect();

        // The center candidate's benefit counts all three boundary
        // points (plus itself) in every evaluator.
        assert_eq!(benefit_at(&map, map.points()[0], cfg.rs, cfg.k), 4);
        let global = ShardedBenefitEngine::global(&map, cands, cfg.rs, cfg.k);
        assert_eq!(global.benefit(0), 4);

        // Placing at the center covers the boundary points inclusively.
        map.add_sensor(map.points()[0], cfg.rs);
        for pid in 0..4 {
            assert_eq!(map.coverage(pid), 1, "point {pid} sits on/within rs");
            assert_eq!(map.sensors_covering(map.points()[pid]).len(), 1);
        }
        assert_eq!(map.coverage(4), 0, "outside point untouched");
        map.verify_consistency();
    }

    #[test]
    fn global_delta_handles_heterogeneous_radii() {
        let (mut map, cfg) = setup(400, 2);
        let cands: Vec<usize> = (0..map.n_points()).collect();
        let mut engine = ShardedBenefitEngine::global(&map, cands.clone(), cfg.rs, cfg.k);
        for (step, &factor) in [0.5, 1.5, 1.0, 2.5, 0.75].iter().enumerate() {
            let q = map.points()[(step * 83) % map.n_points()];
            let rs_new = cfg.rs * factor;
            map.add_sensor(q, rs_new);
            engine.on_sensor_added(&map, q, rs_new);
        }
        assert_slots_match_direct(&engine, &map, &cands, &cfg);
        assert_eq!(engine.best(), naive_best(&map, &cands, cfg.rs, cfg.k));
    }

    #[test]
    fn parallel_build_matches_sequential() {
        // 2000 candidates crosses PAR_BUILD_THRESHOLD; benefits must be
        // identical to slot-by-slot sequential evaluation.
        let (map, cfg) = setup(2000, 2);
        let cands: Vec<usize> = (0..map.n_points()).collect();
        let engine = ShardedBenefitEngine::global(&map, cands.clone(), cfg.rs, cfg.k);
        assert_slots_match_direct(&engine, &map, &cands, &cfg);
    }

    #[test]
    fn subset_candidates_keep_lowest_slot_tiebreak() {
        let (map, cfg) = setup(300, 1);
        let cands = vec![250, 3, 77, 150];
        let mut engine = ShardedBenefitEngine::global(&map, cands.clone(), cfg.rs, cfg.k);
        assert_eq!(engine.best(), naive_best(&map, &cands, cfg.rs, cfg.k));
    }

    #[test]
    fn best_none_when_fully_covered() {
        let (mut map, cfg) = setup(200, 2);
        for _ in 0..cfg.k {
            map.add_sensor(Point::new(50.0, 50.0), 200.0);
        }
        let cands: Vec<usize> = (0..map.n_points()).collect();
        let mut engine = ShardedBenefitEngine::global(&map, cands, cfg.rs, cfg.k);
        assert!(engine.best().is_none());
    }
}
