//! Out-of-core sharded checking.
//!
//! A full-chip layout does not fit the engine's working set: the
//! in-core pipeline materializes a whole layer scene (every placement's
//! flattened subtree plus every top polygon) per touched layer, and the
//! failure mode under memory pressure is an OOM abort. This module
//! trades that cliff for graceful degradation:
//!
//! * the existing adaptive row partition (§IV-B) is the **shard key** —
//!   rows inflated by half the rule distance cannot interact, so a
//!   *shard* (a contiguous group of partition rows) can be checked
//!   against a scene holding only its member objects, and the union of
//!   per-shard violation sets canonicalizes to exactly the in-core
//!   result;
//! * shard scenes are built lazily behind a [`ShardPool`] with a hard
//!   byte budget and LRU eviction — evicted shards rebuild on demand,
//!   an oversized shard (or a seeded [`Fault::AllocFail`]) degrades to
//!   build-check-drop processing, and nothing ever aborts;
//! * each completed `(rule, shard)` unit is appended to the v3
//!   [`CheckpointJournal`], so a killed run — including a SIGKILL'd
//!   shard worker process — resumes *mid-rule*, re-running only the
//!   shards the journal is missing;
//! * a worker slice (`shard id % workers == worker`) lets the CLI fan
//!   shards out over separate processes whose only shared state is the
//!   journal directory: a crashed worker loses its in-flight shard and
//!   nothing else.
//!
//! [`Fault::AllocFail`]: odrc_xpu::Fault::AllocFail

use std::collections::HashMap;
use std::sync::Arc;

use odrc_db::Layer;
use odrc_geometry::{Coord, Rect};
use odrc_infra::partition::Row;
use odrc_infra::CancelToken;
use odrc_xpu::Device;

use crate::cache::rule_signature;
use crate::checkpoint::CheckpointJournal;
use crate::checks::SpaceSpec;
use crate::engine::{EngineOptions, EngineStats};
use crate::rules::{Rule, RuleKind};
use crate::scene::{layer_object_mbrs, LayerScene};
use crate::sequential::{
    check_space_rows, gather_distance, gather_enclosure, measure_pairs, pairs_params,
    partition_objects, RunContext,
};
use crate::violation::{canonicalize, Violation};

/// Target shard count when [`EngineOptions::shard_rows`] is unset: the
/// partition's rows are grouped into at most this many shards.
pub const DEFAULT_SHARDS: usize = 16;

/// Whether the engine is running in out-of-core mode at all.
pub(crate) fn out_of_core(options: &EngineOptions) -> bool {
    options.out_of_core
        || options.memory_budget.is_some()
        || options.shard_rows.is_some()
        || options.shard_slice.is_some()
}

/// Whether `rule` takes the sharded host path under these options.
/// Inter-object rules shard by partition row; intra-polygon rules
/// (width, area, rectilinear, ensures) are per-cell already and run
/// whole, journaled at rule granularity.
pub(crate) fn sharded_rule(options: &EngineOptions, rule: &Rule) -> bool {
    out_of_core(options)
        && matches!(
            rule.kind,
            RuleKind::Space { .. } | RuleKind::Enclosure { .. } | RuleKind::OverlapArea { .. }
        )
}

/// Whether whole (non-sharded) rule `ri` belongs to this process under
/// the worker slice. Without a slice every rule is ours.
pub(crate) fn whole_rule_assigned(options: &EngineOptions, ri: usize) -> bool {
    match options.shard_slice {
        Some((worker, of)) if of > 0 => ri % of == worker,
        _ => true,
    }
}

/// How a sharded rule run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShardRun {
    /// Every shard of the rule is accounted for (checked or restored):
    /// the rule is complete and may be finalized.
    Done,
    /// Some shards were skipped (worker slice) or the run was cancelled
    /// mid-rule: the rule must *not* be finalized. Completed shards are
    /// already in the journal; the partial in-memory buffer is
    /// discarded by the engine's interrupted-rule sweep.
    Partial,
}

/// The deterministic shard decomposition of one rule: the global object
/// MBRs (proto order) and the contiguous row groups.
pub(crate) struct ShardPlan {
    /// Object MBRs of the rule's primary layer, in proto order.
    pub mbrs: Vec<Rect>,
    /// The shards, in row order.
    pub shards: Vec<ShardSpec>,
}

/// One shard: a contiguous group of partition rows.
pub(crate) struct ShardSpec {
    /// The shard's rows, their members translated to indices into the
    /// shard's member-subset scene.
    pub rows: Vec<Row>,
    /// Sorted union of the row members (global object indices). Rows
    /// partition the object set, so shard member lists are disjoint
    /// across shards.
    pub members: Vec<usize>,
}

/// Builds the shard plan for `(layer, min)`. The plan is a pure
/// function of the layout, the rule distance, and the partition/shard
/// options — two processes (or two runs) with the same inputs agree on
/// shard identities, which is what makes `(rule, shard)` journal
/// records portable across crashes and workers.
pub(crate) fn plan_shards(ctx: &mut RunContext<'_>, layer: Layer, min: i64) -> ShardPlan {
    let mbrs = layer_object_mbrs(ctx.layout, layer);
    let host = Arc::clone(&ctx.host);
    let partition = partition_objects(&mbrs, min, ctx.options.partition, ctx.profiler, &host);
    ctx.stats.rows += partition.len();
    let rows = partition.rows();
    let per_shard = ctx
        .options
        .shard_rows
        .unwrap_or_else(|| rows.len().div_ceil(DEFAULT_SHARDS))
        .max(1);
    let shards = rows
        .chunks(per_shard)
        .map(|chunk| {
            let mut members: Vec<usize> = chunk.iter().flat_map(|r| r.members.clone()).collect();
            members.sort_unstable();
            // `members` is sorted and the subset scene keeps proto
            // order, so the translation preserves each row's order.
            let subset = |g: &usize| {
                members
                    .binary_search(g)
                    .expect("row member is a shard member")
            };
            let rows = chunk
                .iter()
                .map(|r| Row {
                    y: r.y,
                    members: r.members.iter().map(subset).collect(),
                })
                .collect();
            ShardSpec { rows, members }
        })
        .collect();
    ShardPlan { mbrs, shards }
}

/// Identity of one cached shard scene. The member set behind a key is a
/// pure function of `(layer, min, shard)` via [`plan_shards`], so two
/// rules sharing the key share the resident scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SceneKey {
    /// The member-subset scene of a shard's own objects.
    Subset { layer: Layer, min: i64, shard: u32 },
    /// The outer-layer scene windowed to a shard's member extents (the
    /// enclosure/overlap candidate side).
    Window {
        inner: Layer,
        outer: Layer,
        min: i64,
        shard: u32,
    },
}

#[derive(Debug)]
struct Resident {
    scene: Arc<LayerScene>,
    bytes: u64,
    stamp: u64,
}

/// The shard residency cache: scenes built on demand, held under a hard
/// byte budget, evicted LRU-first when an insert would overflow it.
///
/// Budget exhaustion never aborts: a scene that alone exceeds the
/// budget (and a scene whose load trips a seeded
/// [`odrc_xpu::Fault::AllocFail`]) is still built and checked, just
/// never cached — the degrade-to-sequential path, counted in
/// [`EngineStats::shards_degraded`].
#[derive(Debug, Default)]
pub(crate) struct ShardPool {
    budget: Option<u64>,
    resident: HashMap<SceneKey, Resident>,
    bytes: u64,
    clock: u64,
}

impl ShardPool {
    pub fn new(budget: Option<u64>) -> ShardPool {
        ShardPool {
            budget,
            ..ShardPool::default()
        }
    }

    /// The scene for `key`: resident (LRU-touched), or built via
    /// `build` and cached if it fits the budget.
    pub fn get(
        &mut self,
        key: SceneKey,
        device: &Device,
        stats: &mut EngineStats,
        build: impl FnOnce() -> LayerScene,
    ) -> Arc<LayerScene> {
        self.clock += 1;
        if let Some(r) = self.resident.get_mut(&key) {
            r.stamp = self.clock;
            return Arc::clone(&r.scene);
        }
        // Every shard *load* (cache miss) ticks the device's seeded
        // allocation-failure schedule; a hit degrades this load to
        // build-check-drop instead of failing it.
        let alloc_failed = device.fault_shard_load();
        let scene = Arc::new(build());
        stats.shards_built += 1;
        let cost = scene.approx_bytes();
        let oversized = self.budget.is_some_and(|b| cost > b);
        if alloc_failed || oversized {
            stats.shards_degraded += 1;
            return scene;
        }
        if let Some(budget) = self.budget {
            while self.bytes + cost > budget && !self.resident.is_empty() {
                let lru = self
                    .resident
                    .iter()
                    .min_by_key(|(_, r)| r.stamp)
                    .map(|(k, _)| *k)
                    .expect("non-empty");
                let evicted = self.resident.remove(&lru).expect("present");
                self.bytes -= evicted.bytes;
                stats.shards_evicted += 1;
            }
        }
        self.bytes += cost;
        self.resident.insert(
            key,
            Resident {
                scene: Arc::clone(&scene),
                bytes: cost,
                stamp: self.clock,
            },
        );
        scene
    }
}

/// Runs one sharded rule: plan, restore journaled shards, check the
/// missing ones (recording each as it completes), and extend `out` with
/// the union. Returns [`ShardRun::Partial`] when the worker slice
/// skipped shards or the run was cancelled mid-rule.
pub(crate) fn check_rule_sharded(
    ctx: &mut RunContext<'_>,
    device: &Device,
    rule: &Rule,
    journal: &mut Option<&mut CheckpointJournal>,
    cancel: Option<&CancelToken>,
    out: &mut Vec<Violation>,
) -> ShardRun {
    let (layer, plan_min) = match &rule.kind {
        RuleKind::Space { layer, min, .. } => (*layer, *min),
        RuleKind::Enclosure { inner, min, .. } => (*inner, *min),
        RuleKind::OverlapArea { inner, .. } => (*inner, 0),
        _ => unreachable!("only inter-object rules shard"),
    };
    let plan = plan_shards(ctx, layer, plan_min);
    if plan.shards.is_empty() {
        return ShardRun::Done;
    }
    let mut pool = std::mem::take(&mut ctx.shard_pool);
    let run = run_shards(ctx, &mut pool, device, rule, &plan, journal, cancel, out);
    ctx.shard_pool = pool;
    run
}

#[allow(clippy::too_many_arguments)]
fn run_shards(
    ctx: &mut RunContext<'_>,
    pool: &mut ShardPool,
    device: &Device,
    rule: &Rule,
    plan: &ShardPlan,
    journal: &mut Option<&mut CheckpointJournal>,
    cancel: Option<&CancelToken>,
    out: &mut Vec<Violation>,
) -> ShardRun {
    let shard_count = plan.shards.len() as u32;
    let sig = rule_signature(rule);
    let layout = ctx.layout;
    let host = Arc::clone(&ctx.host);
    let mut partial = false;
    for (sid, shard) in plan.shards.iter().enumerate() {
        let shard_id = sid as u32;
        if let Some((worker, of)) = ctx.options.shard_slice {
            if of > 0 && sid % of != worker {
                partial = true;
                continue;
            }
        }
        // Restore before polling: restores are free and a cancel must
        // not forfeit them.
        if let (Some(sig), Some(j)) = (sig, journal.as_deref_mut()) {
            if let Some(done) = j.completed_shard(sig, shard_count, shard_id) {
                out.extend(done.iter().cloned());
                ctx.stats.shards_resumed += 1;
                continue;
            }
        }
        if let Some(tok) = cancel {
            if tok.cancelled().is_some() {
                return ShardRun::Partial;
            }
        }
        let mut buf: Vec<Violation> = Vec::new();
        if let RuleKind::Space {
            layer,
            min,
            min_projection,
        } = rule.kind
        {
            let key = SceneKey::Subset {
                layer,
                min,
                shard: shard_id,
            };
            let scene = pool.get(key, device, ctx.stats, || {
                LayerScene::build_members_on(layout, layer, &shard.members, &host)
            });
            let spec = SpaceSpec {
                min,
                min_projection,
            };
            // Shards never consult the persistent result cache.
            check_space_rows(ctx, &rule.name, &scene, &shard.rows, spec, None, &mut buf);
        } else {
            let (kind, inner, outer, min) = pairs_params(&rule.kind);
            let gather = gather_distance(kind, min);
            let (inner_scene, outer_scene) = shard_scene_pair(
                pool, device, ctx.stats, &host, layout, plan, shard, shard_id, inner, outer, gather,
            );
            let work = gather_enclosure(ctx, &inner_scene, &outer_scene, gather, None);
            measure_pairs(ctx, &rule.name, kind, min, &work, &mut buf);
        }
        // Canonicalize per shard so the journaled record (and therefore
        // a resumed run) is byte-stable; the rule-level finalize
        // re-canonicalizes the union.
        let vs = canonicalize(buf);
        ctx.stats.shards_checked += 1;
        if let (Some(sig), Some(j)) = (sig, journal.as_deref_mut()) {
            if let Err(e) = j.record_shard(&rule.name, sig, shard_count, shard_id, &vs) {
                eprintln!(
                    "odrc: warning: checkpoint journal write failed ({e}); checkpointing disabled"
                );
                *journal = None;
            }
        }
        // Deterministic chaos: die *after* the record hits the journal,
        // exactly like a SIGKILL between shards — the resume path must
        // pick up every shard completed so far and nothing else.
        if let Some(n) = ctx.options.chaos_kill_at_shard {
            if ctx.stats.shards_checked as u64 >= n {
                std::process::abort();
            }
        }
        out.extend(vs);
    }
    if partial {
        ShardRun::Partial
    } else {
        ShardRun::Done
    }
}

/// The (inner subset, outer windowed) scene pair of an enclosure-style
/// shard, both through the pool.
#[allow(clippy::too_many_arguments)]
fn shard_scene_pair(
    pool: &mut ShardPool,
    device: &Device,
    stats: &mut EngineStats,
    host: &Arc<odrc_infra::HostExecutor>,
    layout: &odrc_db::Layout,
    plan: &ShardPlan,
    shard: &ShardSpec,
    shard_id: u32,
    inner: Layer,
    outer: Layer,
    min: i64,
) -> (Arc<LayerScene>, Arc<LayerScene>) {
    let inner_scene = pool.get(
        SceneKey::Subset {
            layer: inner,
            min,
            shard: shard_id,
        },
        device,
        stats,
        || LayerScene::build_members_on(layout, inner, &shard.members, host),
    );
    // The outer side is windowed to the shard's row band plus the rule
    // margin. Members are a contiguous row group, so one hull rect
    // covers them; every outer object within the margin of any member
    // overlaps the inflated hull and survives the window — each inner
    // shape sees a superset of the candidates the per-poly gather
    // keeps, and the gather itself filters to the exact in-core set.
    let band = shard
        .members
        .iter()
        .map(|&g| plan.mbrs[g])
        .reduce(Rect::hull);
    let outer_scene = pool.get(
        SceneKey::Window {
            inner,
            outer,
            min,
            shard: shard_id,
        },
        device,
        stats,
        || match band {
            Some(b) => {
                let window = b.inflate((min as Coord).saturating_add(1));
                LayerScene::build_window_on(layout, outer, window, host)
            }
            None => LayerScene::build_members_on(layout, outer, &[], host),
        },
    );
    (inner_scene, outer_scene)
}
