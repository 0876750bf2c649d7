//! Reusable simulation scratch state for warm placer runs.
//!
//! A [`SimScratch`] owns the allocation-heavy simulation structures a
//! placer builds per run — the benefit engine, the candidate list, the
//! simulated radio network and its transport layer — so a fleet worker
//! can thread one scratch through back-to-back runs and keep the hot
//! path off the allocator. Every structure is rebuilt through its
//! capacity-preserving `reset_*` path, which is also the cold
//! constructor's code path, so warm runs stay bit-identical to cold
//! ones (the pool-poisoning proptests in the workspace root pin this).

use crate::engine::ShardedBenefitEngine;
use decor_net::{Network, Transport};

/// Pooled scratch state threaded through [`crate::Placer::place_in`].
///
/// Starts empty; the first run sizes every buffer and later runs reuse
/// the capacity. Safe to share across different schemes, field sizes
/// and configs — each placer fully re-initializes what it uses.
pub struct SimScratch {
    /// Benefit engine, rebuilt per run via `reset_global`.
    pub engine: ShardedBenefitEngine,
    /// Candidate point-id buffer (swapped into the engine and back).
    pub cands: Vec<usize>,
    /// Tile-flag scratch for `CoverageMap::deficit_candidates_into`.
    pub tile_flags: Vec<bool>,
    /// Simulated radio network, reused via `Network::reset`. Lazily
    /// built so placers that never simulate radio pay nothing.
    pub net: Option<Network>,
    /// ARQ transport layer, reused via `Transport::reset`.
    pub transport: Option<Transport>,
    /// Grid-scheme round-loop buffers (cell partition, decisions,
    /// notices, adoption lists).
    pub(crate) grid: crate::grid_scheme::GridScratch,
    /// Voronoi-scheme round-loop buffers (ownership cache, decisions,
    /// notices, id maps).
    pub(crate) voro: crate::voronoi_scheme::VoronoiScratch,
    /// Round-protocol buffers (node-to-sensor map, flush outcomes).
    pub(crate) rounds: crate::rounds::RoundScratch,
}

impl SimScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        SimScratch {
            engine: ShardedBenefitEngine::empty(),
            cands: Vec::new(),
            tile_flags: Vec::new(),
            net: None,
            transport: None,
            grid: Default::default(),
            voro: Default::default(),
            rounds: Default::default(),
        }
    }
}

impl Default for SimScratch {
    fn default() -> Self {
        Self::new()
    }
}
