//! The sequential (CPU) mode (§IV-D of the paper).
//!
//! "The sequential mode of OpenDRC first detects potential violations
//! between objects by querying overlapping MBRs of polygons or cells,
//! and then performs edge-based checks among those object pairs."
//!
//! The pipeline per inter-polygon rule:
//!
//! 1. **partition** — adaptive row partition of the layer's objects
//!    (§IV-B), with extents inflated by half the rule distance so rows
//!    cannot interact;
//! 2. **sweepline** — per row, the top-down sweepline over inflated
//!    object MBRs reports candidate object pairs (§IV-D, Fig. 3);
//! 3. **edge-check** — intra-object violations come from the per-cell
//!    memo (computed once per cell definition, §IV-C) and candidate
//!    pairs get windowed edge-to-edge checks.

use std::collections::HashMap;
use std::sync::Arc;

use odrc_db::{CellId, Layer, Layout};
use odrc_geometry::{Coord, Polygon, Rect};
use odrc_infra::host::HostExecutor;
use odrc_infra::partition::{partition_rows, partition_rows_on, Row, RowPartition};
use odrc_infra::sweep::sweep_overlaps;
use odrc_infra::{Profiler, Region};

use crate::cache::CacheHandle;
use crate::checks::poly::{
    notch_space_violations, polygon_violations, space_violations_between, LocalViolation,
    PolyRuleSpec,
};
use crate::checks::{enclosure_margin, SpaceSpec};
use crate::engine::{EngineOptions, EngineStats};
use crate::plan::{IntraData, LaunchGraph, PlanCache, RowSet, RowSetKey, SharedDeviceData};
use crate::rules::{Rule, RuleKind};
use crate::scene::{instance_transforms, DirtyWindow, LayerScene, SceneObject, SceneSource};
use crate::violation::{Violation, ViolationKind};

/// Shared state across the rules of one `check()` run.
pub(crate) struct RunContext<'a> {
    pub layout: &'a Layout,
    pub options: &'a EngineOptions,
    pub profiler: &'a mut Profiler,
    pub stats: &'a mut EngineStats,
    /// Lazily computed instance transforms for intra-polygon reuse.
    pub instances: Option<HashMap<CellId, Vec<odrc_geometry::Transform>>>,
    /// Persistent result cache plus the layout's content keys, when the
    /// caller opted into cross-run reuse.
    pub cache: Option<CacheHandle<'a>>,
    /// The execution planner's per-run caches (scenes, row sets, intra
    /// polygon lists, launch graphs).
    pub plan: PlanCache,
    /// The shared work-stealing host executor every hot host phase fans
    /// out on. Sized by `options.host_threads`; a one-thread executor
    /// runs every fan-out inline on the caller, in task order.
    pub host: Arc<HostExecutor>,
    /// Device work units that failed and were deferred so healthy rules
    /// keep draining; retried (with backoff deadlines) after all rules
    /// collect. See `parallel::drain_recovery`.
    pub recovery: Vec<crate::parallel::RecoveryUnit>,
    /// Wall-clock spans of every device wait ([`Self::device_wait`]).
    /// The engine merges them into an interval union at the end of the
    /// run: cumulative `kernel-wait` can exceed wall time when several
    /// pipelined waits cover the same physical seconds, so the union is
    /// reported alongside it as `device-wait-wall`.
    pub wait_spans: Vec<(std::time::Instant, std::time::Instant)>,
    /// The out-of-core shard residency pool, budgeted by
    /// `options.memory_budget`. Idle (and empty) unless the run routes
    /// rules through the sharded path.
    pub shard_pool: crate::shard::ShardPool,
}

impl<'a> RunContext<'a> {
    pub fn new(
        layout: &'a Layout,
        options: &'a EngineOptions,
        profiler: &'a mut Profiler,
        stats: &'a mut EngineStats,
    ) -> Self {
        RunContext {
            layout,
            options,
            profiler,
            stats,
            instances: None,
            cache: None,
            plan: PlanCache::default(),
            host: Arc::new(match &options.shared_gate {
                Some(gate) => HostExecutor::with_shared_gate(
                    options.resolved_host_threads(),
                    Arc::clone(gate),
                ),
                None => HostExecutor::new(options.resolved_host_threads()),
            }),
            recovery: Vec::new(),
            wait_spans: Vec::new(),
            shard_pool: crate::shard::ShardPool::new(options.memory_budget),
        }
    }

    /// Attaches a persistent cache handle.
    pub fn with_cache(mut self, cache: CacheHandle<'a>) -> Self {
        self.cache = Some(cache);
        self
    }

    pub fn instances(&mut self) -> &HashMap<CellId, Vec<odrc_geometry::Transform>> {
        if self.instances.is_none() {
            self.instances = Some(instance_transforms(self.layout));
        }
        self.instances.as_ref().expect("just computed")
    }

    /// The full scene of `layer`, memoized across the rules of the run.
    pub fn layer_scene(&mut self, layer: Layer) -> Arc<LayerScene> {
        if let Some(scene) = self.plan.scenes.get(&layer) {
            self.stats.scenes_reused += 1;
            return Arc::clone(scene);
        }
        let layout = self.layout;
        let host = Arc::clone(&self.host);
        let scene = Arc::new(
            self.profiler
                .time("scene", || LayerScene::build_on(layout, layer, None, &host)),
        );
        self.stats.scenes_built += 1;
        self.plan.scenes.insert(layer, Arc::clone(&scene));
        scene
    }

    /// The scene of `layer` a rule reads: the memoized full scene, or
    /// under a delta `window` only the objects near the dirt. Windowed
    /// scenes are rule-specific, so they are built fresh and never
    /// enter the memo (nor [`EngineStats::scenes_built`]).
    pub fn scene_near(&mut self, layer: Layer, window: Option<DirtyWindow<'_>>) -> Arc<LayerScene> {
        match window {
            None => self.layer_scene(layer),
            Some(w) => {
                let layout = self.layout;
                Arc::new(
                    self.profiler
                        .time("scene", || LayerScene::build_near(layout, layer, Some(w))),
                )
            }
        }
    }

    /// The packed, sorted row set of `layer` for a rule distance of
    /// `min`, memoized by [`RowSetKey`].
    pub fn row_set(&mut self, layer: Layer, min: i64) -> Arc<RowSet> {
        let key = RowSetKey::new(layer, min, self.options.partition);
        if let Some(rows) = self.plan.rows.get(&key) {
            return Arc::clone(rows);
        }
        let scene = self.layer_scene(layer);
        let rows = Arc::new(RowSet::build(self, &scene, min));
        self.plan.rows.insert(key, Arc::clone(&rows));
        rows
    }

    /// The packed unique-polygon list of `layer` for device-side intra
    /// rules (width, area), memoized per layer.
    pub fn intra_data(&mut self, layer: Layer) -> Arc<IntraData> {
        if let Some(data) = self.plan.intra.get(&layer) {
            return Arc::clone(data);
        }
        let layout = self.layout;
        let data = self.profiler.time("pack", || {
            let targets: Vec<(CellId, usize)> = layout.layer_polygons(layer).to_vec();
            let polys: Vec<odrc_geometry::Polygon> = targets
                .iter()
                .map(|&(c, pi)| layout.cell(c).polygons()[pi].polygon.clone())
                .collect();
            Arc::new(IntraData {
                targets: Arc::new(targets),
                polys: SharedDeviceData::new(Arc::new(polys)),
            })
        });
        self.plan.intra.insert(layer, Arc::clone(&data));
        data
    }

    /// The recorded launch graph of `(layer, min)`'s row set: replayed
    /// from the plan cache when a previous rule on the same key already
    /// recorded one ([`EngineStats::graph_replays`]), recorded fresh
    /// otherwise.
    pub fn launch_graph(&mut self, layer: Layer, min: i64, rows: &RowSet) -> Arc<LaunchGraph> {
        let key = RowSetKey::new(layer, min, self.options.partition);
        if let Some(graph) = self.plan.graphs.get(&key) {
            self.stats.graph_replays += 1;
            return Arc::clone(graph);
        }
        let graph = Arc::new(LaunchGraph::record(
            &rows.rows,
            self.options.sweep_threshold,
        ));
        self.plan.graphs.insert(key, Arc::clone(&graph));
        graph
    }

    /// Times a blocking device wait: charges the cumulative
    /// `kernel-wait` profiler phase (as before) *and* records the
    /// wall-clock span for the run-level interval union (see
    /// [`Self::wait_spans`]).
    pub fn device_wait<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = self.profiler.time("kernel-wait", f);
        self.wait_spans.push((start, std::time::Instant::now()));
        out
    }

    /// Tallies one shared-buffer acquisition: an elided upload, or an
    /// actual (shallow) transfer of `bytes`.
    pub fn note_upload(&mut self, elided: bool, bytes: u64) {
        if elided {
            self.stats.uploads_elided += 1;
        } else {
            self.stats.bytes_uploaded += bytes;
        }
    }
}

/// Builds the poly-rule spec for an intra-polygon rule.
fn poly_spec(rule: &Rule) -> PolyRuleSpec {
    match &rule.kind {
        RuleKind::Width { min, .. } => PolyRuleSpec::Width(*min),
        RuleKind::Area { min, .. } => PolyRuleSpec::Area(*min),
        RuleKind::Rectilinear { .. } => PolyRuleSpec::Rectilinear,
        RuleKind::Ensures { predicate, .. } => PolyRuleSpec::Ensures(predicate.clone()),
        _ => unreachable!("not an intra-polygon rule"),
    }
}

/// The `(cell, polygon indices)` groups an intra rule must visit.
fn intra_targets(layout: &Layout, layer: Option<Layer>) -> Vec<(CellId, Vec<usize>)> {
    match layer {
        Some(l) => {
            let mut grouped: HashMap<CellId, Vec<usize>> = HashMap::new();
            for &(cell, pi) in layout.layer_polygons(l) {
                grouped.entry(cell).or_default().push(pi);
            }
            let mut v: Vec<_> = grouped.into_iter().collect();
            v.sort_by_key(|(c, _)| *c);
            v
        }
        None => layout
            .cell_ids()
            .map(|cell| {
                let n = layout.cell(cell).polygons().len();
                (cell, (0..n).collect::<Vec<_>>())
            })
            .filter(|(_, ps)| !ps.is_empty())
            .collect(),
    }
}

/// Runs an intra-polygon rule (width, area, rectilinear, ensures) with
/// per-cell memoization (§IV-C).
pub(crate) fn check_intra_rule(ctx: &mut RunContext<'_>, rule: &Rule, out: &mut Vec<Violation>) {
    let layer = match rule.kind {
        RuleKind::Width { layer, .. } | RuleKind::Area { layer, .. } => Some(layer),
        RuleKind::Rectilinear { layer } | RuleKind::Ensures { layer, .. } => layer,
        _ => unreachable!("not an intra-polygon rule"),
    };
    let spec = poly_spec(rule);
    let targets = intra_targets(ctx.layout, layer);
    let layout = ctx.layout;
    let pruning = ctx.options.pruning;
    // Persistent reuse is keyed by the cell's *local* content hash:
    // intra-polygon verdicts depend only on the cell's own geometry.
    let sig = if pruning {
        crate::cache::rule_signature(rule)
    } else {
        None
    };

    // Compute local violations per cell (once, under pruning), serving
    // them from the persistent cache when the content is known. Cache
    // consults stay on the caller (the handle is exclusive); the misses
    // fan out and come back in target order.
    let host = Arc::clone(&ctx.host);
    let start = std::time::Instant::now();
    let mut slots: Vec<Option<(Arc<Vec<LocalViolation>>, bool)>> = vec![None; targets.len()];
    let mut missing: Vec<usize> = Vec::new();
    for (ti, (cell, _)) in targets.iter().enumerate() {
        if let (Some(sig), Some(handle)) = (sig, ctx.cache.as_mut()) {
            let key = handle.keys.local[cell.index()];
            if let Some(hit) = handle.cache.get(sig, key) {
                slots[ti] = Some((hit, true));
                continue;
            }
        }
        missing.push(ti);
    }
    let targets_ref = &targets;
    let missing_ref = &missing;
    let spec_ref = &spec;
    let computed = host.run("edge-check", missing.len(), |i| {
        let (cell, polys) = &targets_ref[missing_ref[i]];
        let c = layout.cell(*cell);
        let mut local = Vec::new();
        for &pi in polys {
            polygon_violations(&c.polygons()[pi], spec_ref, &mut local);
        }
        Arc::new(local)
    });
    for (&ti, arc) in missing.iter().zip(computed) {
        let (cell, _) = &targets[ti];
        if let (Some(sig), Some(handle)) = (sig, ctx.cache.as_mut()) {
            let key = handle.keys.local[cell.index()];
            handle.cache.insert(sig, key, Arc::clone(&arc));
        }
        slots[ti] = Some((arc, false));
    }
    let per_cell: Vec<(CellId, Arc<Vec<LocalViolation>>, bool)> = targets
        .iter()
        .zip(slots)
        .map(|((cell, _), slot)| {
            let (arc, from_cache) = slot.expect("every target resolved");
            (*cell, arc, from_cache)
        })
        .collect();
    ctx.profiler.add("edge-check", start.elapsed());

    // Instantiate through every placement of the cell.
    let instances = ctx.instances().clone();
    let mut computed = 0usize;
    let mut reused = 0usize;
    for (cell, local, from_cache) in &per_cell {
        let Some(transforms) = instances.get(cell) else {
            continue; // defined but never instantiated
        };
        let polys = targets
            .iter()
            .find(|(c, _)| c == cell)
            .map(|(_, p)| p.len())
            .unwrap_or(0);
        if pruning {
            if *from_cache {
                reused += polys;
            } else {
                computed += polys;
            }
            reused += polys * transforms.len().saturating_sub(1);
        } else {
            // Ablation: pretend each instance is checked independently.
            computed += polys * transforms.len();
            // Actually recompute to make the cost real.
            if transforms.len() > 1 {
                let c = layout.cell(*cell);
                ctx.profiler.time("edge-check", || {
                    for _ in 1..transforms.len() {
                        let mut scratch = Vec::new();
                        for p in c.polygons() {
                            if layer.map(|l| p.layer == l).unwrap_or(true) {
                                polygon_violations(p, &spec, &mut scratch);
                            }
                        }
                    }
                });
            }
        }
        for t in transforms {
            for v in local.iter() {
                let vi = v.instantiate(t);
                out.push(Violation {
                    rule: rule.name.clone(),
                    kind: vi.kind,
                    location: vi.location,
                    measured: vi.measured,
                });
            }
        }
    }
    ctx.stats.checks_computed += computed;
    ctx.stats.checks_reused += reused;
}

/// Builds the row partition (§IV-B) over object MBRs, inflated by half
/// the rule distance `min` so rows cannot interact.
pub(crate) fn partition_objects(
    mbrs: &[Rect],
    min: i64,
    enabled: bool,
    profiler: &mut Profiler,
    host: &HostExecutor,
) -> RowPartition {
    let half = ((min + 1) / 2) as Coord;
    profiler.time("partition", || {
        if enabled {
            partition_rows_on(mbrs, half, host)
        } else {
            // Ablation: a single row holding everything.
            match mbrs.iter().copied().reduce(Rect::hull) {
                None => partition_rows(&[], half),
                Some(all) => RowPartition::from_rows(vec![Row {
                    y: all.y_range(),
                    members: (0..mbrs.len()).collect(),
                }]),
            }
        }
    })
}

/// Builds the row partition over a scene's objects.
pub(crate) fn partition_scene(
    scene: &LayerScene,
    min: i64,
    enabled: bool,
    profiler: &mut Profiler,
    host: &HostExecutor,
) -> RowPartition {
    let mbrs: Vec<Rect> = scene.objects.iter().map(|o| o.mbr).collect();
    partition_objects(&mbrs, min, enabled, profiler, host)
}

/// Runs one rule on the host — the sequential mode's per-rule entry
/// point, shared by the full check and the delta re-check. Under a
/// delta `window`, spacing reads a windowed scene and enclosure /
/// overlap re-measure only the inner shapes near the dirt;
/// intra-polygon rules ignore the window (they re-run whole).
pub(crate) fn check_rule(
    ctx: &mut RunContext<'_>,
    rule: &Rule,
    window: Option<DirtyWindow<'_>>,
    out: &mut Vec<Violation>,
) {
    match &rule.kind {
        RuleKind::Space {
            layer,
            min,
            min_projection,
        } => {
            let spec = SpaceSpec {
                min: *min,
                min_projection: *min_projection,
            };
            let scene = ctx.scene_near(*layer, window);
            let host = Arc::clone(&ctx.host);
            let partition =
                partition_scene(&scene, spec.min, ctx.options.partition, ctx.profiler, &host);
            ctx.stats.rows += partition.len();
            let sig = crate::cache::rule_signature(rule);
            check_space_rows(ctx, &rule.name, &scene, partition.rows(), spec, sig, out);
        }
        RuleKind::Enclosure { .. } | RuleKind::OverlapArea { .. } => {
            let (kind, inner, outer, min) = pairs_params(&rule.kind);
            let work = enclosure_work(ctx, inner, outer, gather_distance(kind, min), window);
            measure_pairs(ctx, &rule.name, kind, min, &work, out);
        }
        _ => check_intra_rule(ctx, rule, out),
    }
}

/// The spacing row kernel: sweepline, memoized per-cell checks and
/// per-pair edge checks over independent partition rows whose members
/// index `scene.objects`. The per-cell memo is resolved on the calling
/// thread first (so §IV-C bookkeeping — cache consults, reuse counters —
/// is deterministic), then the rows fan out on the host executor and
/// merge in row order: the violation list is identical for any thread
/// count. Out-of-core shards call it with their rows translated to
/// shard-scene indices.
pub(crate) fn check_space_rows(
    ctx: &mut RunContext<'_>,
    rule_name: &str,
    scene: &LayerScene,
    rows: &[Row],
    spec: SpaceSpec,
    sig: Option<u64>,
    out: &mut Vec<Violation>,
) {
    let host = Arc::clone(&ctx.host);
    let half = ((spec.min + 1) / 2) as Coord;
    let pruning = ctx.options.pruning;

    // Phase 1: resolve every unique cell once — memo hits for repeat
    // placements, persistent-cache consults in first-occurrence order,
    // and a parallel fan-out over the actual misses.
    let mut memo: HashMap<CellId, Arc<Vec<LocalViolation>>> = HashMap::new();
    if pruning {
        let mut order: Vec<CellId> = Vec::new();
        let mut seen: std::collections::HashSet<CellId> = Default::default();
        let mut occurrences = 0usize;
        for row in rows {
            for &m in &row.members {
                if let SceneSource::Cell { cell, .. } = scene.objects[m].source {
                    occurrences += 1;
                    if seen.insert(cell) {
                        order.push(cell);
                    }
                }
            }
        }
        ctx.stats.checks_reused += occurrences - order.len();
        let mut missing: Vec<CellId> = Vec::new();
        for &cell in &order {
            let mut hit = None;
            if let (Some(sig), Some(handle)) = (sig, ctx.cache.as_mut()) {
                let key = handle.keys.subtree[cell.index()];
                hit = handle.cache.get(sig, key);
            }
            match hit {
                Some(arc) => {
                    ctx.stats.checks_reused += 1;
                    memo.insert(cell, arc);
                }
                None => missing.push(cell),
            }
        }
        let start = std::time::Instant::now();
        let missing_ref = &missing;
        let computed = host.run("edge-check", missing.len(), |i| {
            Arc::new(cell_internal_space(scene, missing_ref[i], spec, half))
        });
        ctx.profiler.add("edge-check", start.elapsed());
        for (&cell, arc) in missing.iter().zip(computed) {
            ctx.stats.checks_computed += 1;
            if let (Some(sig), Some(handle)) = (sig, ctx.cache.as_mut()) {
                let key = handle.keys.subtree[cell.index()];
                handle.cache.insert(sig, key, Arc::clone(&arc));
            }
            memo.insert(cell, arc);
        }
    }

    // Phase 2: independent rows fan out; each task returns its hits in
    // row-local discovery order plus its phase timings and counters.
    struct RowOutput {
        hits: Vec<LocalViolation>,
        pairs: usize,
        computed: usize,
        sweep: std::time::Duration,
        check: std::time::Duration,
    }
    let pair_index = ctx.options.pair_index;
    let memo_ref = &memo;
    let results: Vec<RowOutput> = host.run("edge-check", rows.len(), |ri| {
        let members = &rows[ri].members;
        let inflated: Vec<Rect> = members
            .iter()
            .map(|&m| scene.objects[m].mbr.inflate(half))
            .collect();
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let sweep_start = std::time::Instant::now();
        match pair_index {
            crate::engine::PairIndex::Sweepline => {
                sweep_overlaps(&inflated, |a, b| pairs.push((members[a], members[b])));
            }
            crate::engine::PairIndex::RTree => {
                let tree = odrc_infra::RTree::bulk_load(&inflated);
                for (a, &ra) in inflated.iter().enumerate() {
                    tree.query_into(ra, &mut |b| {
                        if a < b {
                            pairs.push((members[a], members[b]));
                        }
                    });
                }
            }
        }
        let sweep = sweep_start.elapsed();

        let check_start = std::time::Instant::now();
        let mut hits: Vec<LocalViolation> = Vec::new();
        let mut computed = 0usize;
        for &m in members {
            let obj = &scene.objects[m];
            match obj.source {
                SceneSource::Cell { cell, transform } => {
                    if pruning {
                        let arc = memo_ref.get(&cell).expect("memo covers every placed cell");
                        hits.extend(arc.iter().map(|v| v.instantiate(&transform)));
                    } else {
                        computed += 1;
                        let local = cell_internal_space(scene, cell, spec, half);
                        hits.extend(local.iter().map(|v| v.instantiate(&transform)));
                    }
                }
                SceneSource::TopPolygon { index } => {
                    notch_space_violations(scene.top_polygon(index), spec, &mut hits);
                }
            }
        }
        let (mut buf_a, mut buf_b) = (Vec::new(), Vec::new());
        for &(a, b) in &pairs {
            cross_space(
                scene,
                &scene.objects[a],
                &scene.objects[b],
                spec,
                &mut buf_a,
                &mut buf_b,
                &mut hits,
            );
        }
        RowOutput {
            hits,
            pairs: pairs.len(),
            computed,
            sweep,
            check: check_start.elapsed(),
        }
    });

    // Phase 3: deterministic merge in row order.
    for r in results {
        ctx.stats.candidate_pairs += r.pairs;
        ctx.stats.checks_computed += r.computed;
        ctx.profiler.add("sweepline", r.sweep);
        ctx.profiler.add("edge-check", r.check);
        out.extend(r.hits.into_iter().map(|v| Violation {
            rule: rule_name.to_owned(),
            kind: v.kind,
            location: v.location,
            measured: v.measured,
        }));
    }
}

/// Spacing violations inside one cell's flattened subtree, in local
/// coordinates (this is the per-cell result §IV-C reuses).
pub(crate) fn cell_internal_space(
    scene: &LayerScene,
    cell: CellId,
    spec: SpaceSpec,
    half: Coord,
) -> Vec<LocalViolation> {
    let polys = scene.local_polygons(cell);
    let mut out = Vec::new();
    for p in polys {
        notch_space_violations(p, spec, &mut out);
    }
    let inflated: Vec<Rect> = polys.iter().map(|p| p.mbr().inflate(half)).collect();
    sweep_overlaps(&inflated, |a, b| {
        if polys[a].mbr().gap(polys[b].mbr()) < spec.min {
            space_violations_between(&polys[a], &polys[b], spec, &mut out);
        }
    });
    out
}

/// Edge checks between the near-border polygons of two objects.
///
/// `buf_a` / `buf_b` are caller-owned scratch buffers reused across
/// pairs (this runs once per candidate pair in every row — a fresh
/// `Vec<Polygon>` per call used to dominate the allocator here).
pub(crate) fn cross_space(
    scene: &LayerScene,
    a: &SceneObject,
    b: &SceneObject,
    spec: SpaceSpec,
    buf_a: &mut Vec<Polygon>,
    buf_b: &mut Vec<Polygon>,
    out: &mut Vec<LocalViolation>,
) {
    let m = spec.min as Coord;
    let Some(window) = a.mbr.inflate(m).intersection(b.mbr.inflate(m)) else {
        return;
    };
    buf_a.clear();
    scene.object_polygons_in_into(a, window, buf_a);
    if buf_a.is_empty() {
        return;
    }
    buf_b.clear();
    scene.object_polygons_in_into(b, window, buf_b);
    for qa in buf_a.iter() {
        for qb in buf_b.iter() {
            if qa.mbr().gap(qb.mbr()) < spec.min {
                space_violations_between(qa, qb, spec, out);
            }
        }
    }
}

/// The enclosure work list of an in-core rule: the inner scene (built
/// fresh under a delta window) and the run's memoized outer scene,
/// gathered by [`gather_enclosure`].
pub(crate) fn enclosure_work(
    ctx: &mut RunContext<'_>,
    inner: Layer,
    outer: Layer,
    min: i64,
    window: Option<DirtyWindow<'_>>,
) -> Vec<(Polygon, Vec<Polygon>)> {
    // Under a delta window only the inner shapes near the dirt are
    // re-measured; the outer scene stays complete so every retained
    // inner shape sees its full candidate set and measures its exact
    // margin.
    let inner_scene = ctx.scene_near(inner, window);
    let outer_scene = ctx.layer_scene(outer);
    gather_enclosure(ctx, &inner_scene, &outer_scene, min, window)
}

/// Gathers an enclosure work list over two given scenes: every flat
/// inner shape's MBR (only those hitting `window`, when given) paired
/// with its candidate outer polygons.
///
/// Candidate discovery is hierarchical and output-sensitive: a single
/// sweepline runs over the inner MBRs (inflated by the rule margin) and
/// the *object-level* layer MBRs of the outer scene; only objects whose
/// layer MBR overlaps an inner shape get their geometry instantiated,
/// and only the polygons inside the inner shape's window.
pub(crate) fn gather_enclosure(
    ctx: &mut RunContext<'_>,
    inner_scene: &LayerScene,
    outer_scene: &LayerScene,
    min: i64,
    window: Option<DirtyWindow<'_>>,
) -> Vec<(Polygon, Vec<Polygon>)> {
    let m = min as Coord;
    let mut inner_polys: Vec<Polygon> = Vec::new();
    for obj in &inner_scene.objects {
        inner_scene.object_polygons_into(obj, &mut inner_polys);
    }
    if let Some(w) = window {
        inner_polys.retain(|p| w.hits(p.mbr()));
    }
    let n_inner = inner_polys.len();
    // Combined array: inflated inner MBRs, then outer object MBRs.
    let mut rects: Vec<Rect> = inner_polys.iter().map(|p| p.mbr().inflate(m)).collect();
    rects.extend(outer_scene.objects.iter().map(|o| o.mbr));
    let mut object_hits: Vec<Vec<usize>> = vec![Vec::new(); n_inner];
    ctx.profiler.time("sweepline", || {
        sweep_overlaps(&rects, |a, b| {
            let (lo, hi) = (a.min(b), a.max(b));
            if lo < n_inner && hi >= n_inner {
                object_hits[lo].push(hi - n_inner);
            }
        });
    });
    // Candidate gathering is independent per inner shape: fan it out by
    // index and zip back in order.
    let inner_ref = &inner_polys;
    let hits_ref = &object_hits;
    let candidates = ctx.host.run("enclosure-gather", inner_polys.len(), |i| {
        let window = inner_ref[i].mbr().inflate(m);
        let mut candidates = Vec::new();
        for &oi in &hits_ref[i] {
            outer_scene.object_polygons_in_into(&outer_scene.objects[oi], window, &mut candidates);
        }
        candidates
    });
    inner_polys.into_iter().zip(candidates).collect()
}

/// The `(kind, inner, outer, min)` of an enclosure rule (every flat
/// inner shape enclosed by some outer polygon with margin `min`) or a
/// minimum-overlap-area rule (the boolean AND of every inner shape with
/// the outer layer reaches area `min`, the "minimum overlapping area
/// constraints" of §II).
pub(crate) fn pairs_params(kind: &RuleKind) -> (ViolationKind, Layer, Layer, i64) {
    match *kind {
        RuleKind::Enclosure { inner, outer, min } => (ViolationKind::Enclosure, inner, outer, min),
        RuleKind::OverlapArea {
            inner,
            outer,
            min_area,
        } => (ViolationKind::OverlapArea, inner, outer, min_area),
        _ => unreachable!("not an enclosure-style rule"),
    }
}

/// The candidate-gather distance of an enclosure-style rule: the margin
/// for enclosure; zero for overlap, where any touching outer shape
/// counts.
pub(crate) fn gather_distance(kind: ViolationKind, min: i64) -> i64 {
    match kind {
        ViolationKind::Enclosure => min,
        _ => 0,
    }
}

/// The per-shape measure of an enclosure-style rule: the enclosure
/// margin, or the shared (boolean AND) area for overlap rules. One body
/// for the host loop and the device kernel.
pub(crate) fn pairs_measure(
    kind: ViolationKind,
    min: i64,
) -> impl Fn(&Polygon, &[Polygon]) -> i64 + Send + Sync + Clone + 'static {
    move |poly, candidates| match kind {
        ViolationKind::Enclosure => {
            let refs: Vec<&Polygon> = candidates.iter().collect();
            enclosure_margin(poly.mbr(), &refs, min)
        }
        _ => {
            let inner_region = Region::from_polygons([poly]);
            let outer_region = Region::from_polygons(candidates.iter());
            inner_region.intersection(&outer_region).area()
        }
    }
}

/// Measures a gathered work list on the host and reports every inner
/// shape whose measure falls below `min`.
pub(crate) fn measure_pairs(
    ctx: &mut RunContext<'_>,
    rule_name: &str,
    kind: ViolationKind,
    min: i64,
    work: &[(Polygon, Vec<Polygon>)],
    out: &mut Vec<Violation>,
) {
    ctx.stats.checks_computed += work.len();
    let phase = match kind {
        ViolationKind::Enclosure => "enclosure-check",
        _ => "overlap-check",
    };
    let measure = pairs_measure(kind, min);
    let start = std::time::Instant::now();
    let measured = ctx.host.run(phase, work.len(), |i| {
        let (poly, candidates) = &work[i];
        measure(poly, candidates)
    });
    ctx.profiler.add(phase, start.elapsed());
    out.extend(
        work.iter()
            .zip(measured)
            .filter(|&(_, measured)| measured < min)
            .map(|((poly, _), measured)| Violation {
                rule: rule_name.to_owned(),
                kind,
                location: poly.mbr(),
                measured,
            }),
    );
}
