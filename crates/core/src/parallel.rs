//! The parallel (device) mode (§IV-E of the paper).
//!
//! "After layout partitioning, OpenDRC performs parallel design rule
//! checks in a row-by-row manner, as cells belonging to different rows
//! will not produce any violation. Before checking, OpenDRC packs the
//! edges of relevant polygons into a flattened array, which is
//! transferred from the host memory to the device memory. Depending on
//! the complexity of each polygon or polygon pair, OpenDRC selects
//! either a brute-force executor or a sweepline executor."
//!
//! Small rows run the **brute-force executor**: one kernel, one thread
//! per edge, plain `for` loops over the remaining edges. Large rows run
//! the **sweepline executor**: edges are sorted by track; a first
//! kernel determines each edge's check range and counts its violations,
//! an exclusive scan sizes the output, and a second kernel emits the
//! records — the two-kernel-launch structure the paper chose "for
//! efficient kernel code optimization (viz. for loops versus while
//! loops)".
//!
//! Every rule's device work is split into an **issue** half (host
//! gather, shared zero-copy uploads, kernel launches — all enqueued on
//! the rule's own stream, returning in-flight handles immediately) and
//! a **collect** half (result waits, the scan+emit second phase,
//! recovery). A full check issues rules ahead of collection (a window
//! bounded by the host's parallelism), so uploads and kernels of
//! independent rules overlap across streams with one deferred
//! synchronization per stream (§V-C); the [planner](crate::plan)
//! additionally keeps packed row buffers device-resident so N rules on
//! one layer upload once. A delta re-check runs the same halves back to
//! back, one rule at a time.
//!
//! # Graceful degradation
//!
//! Every device interaction goes through the fallible `try_*` APIs.
//! When an operation fails (OOM against the device budget, a kernel
//! panic, a stalled or poisoned stream), the engine salvages the rows
//! that already completed and defers the failed work units onto the
//! run's [`RecoveryUnit`] queue. After every rule has collected, the
//! queue is drained: each unit is retried on a fresh stream under a
//! capped backoff **deadline** (up to [`MAX_DEVICE_RETRIES`] attempts,
//! checked at drain time rather than slept inline, so healthy rules
//! keep draining), and stubborn units are recomputed on the host with
//! the same check logic — so the final violation set is identical to a
//! fault-free device run. Retries and fallbacks are tallied in
//! [`EngineStats::device_retries`] / [`EngineStats::device_fallbacks`].
//!
//! [`EngineStats::device_retries`]: crate::EngineStats::device_retries
//! [`EngineStats::device_fallbacks`]: crate::EngineStats::device_fallbacks

use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use odrc_db::Layer;
use odrc_geometry::{Edge, Polygon, Rect};
use odrc_xpu::{
    scan::exclusive_scan, Device, DeviceBuffer, LaunchBatch, LaunchConfig, Pending, Stream,
    ThreadCtx, XpuResult,
};

use crate::checks::edge::{space_pair_spec, SpaceSpec};
use crate::checks::poly::LocalViolation;
use crate::plan::{
    build_runs, pack, span_lo, GraphNode, IntraData, LaunchGraph, PackedEdge, PlannedRow, RowSet,
    RunInfo,
};
use crate::rules::{Rule, RuleKind};
use crate::scene::DirtyWindow;
use crate::sequential::{gather_distance, pairs_measure, pairs_params, RunContext};
use crate::violation::{Violation, ViolationKind};

pub(crate) use crate::plan::unpack;

/// A violation record produced by device kernels: edge indices into the
/// row's packed array plus the squared distance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PairRecord {
    a: u32,
    b: u32,
    d2: i64,
}

/// Per-edge brute-force hits: `(other edge index, measured)` lists.
type BruteHits = Vec<Vec<(u32, i64)>>;

/// One row's in-flight first device phase.
struct RowJob {
    row: Arc<PlannedRow>,
    /// Recorded launch geometry, reused by the emit phase.
    cfg: LaunchConfig,
    brute: Option<Pending<BruteHits>>,
    counts: Option<Pending<Vec<usize>>>,
}

struct RowEmit {
    row: Arc<PlannedRow>,
    records: Pending<Vec<PairRecord>>,
}

/// Span window of a packed edge along its own axis, as `(lo, hi)`.
#[inline]
fn edge_window(e: PackedEdge) -> (i64, i64) {
    if e[0] == e[2] {
        (i64::from(e[1].min(e[3])), i64::from(e[1].max(e[3])))
    } else {
        (i64::from(e[0].min(e[2])), i64::from(e[0].max(e[2])))
    }
}

/// Index of the run containing edge `i` in a [`build_runs`] table.
#[inline]
fn run_index(runs: &[RunInfo], i: usize) -> usize {
    runs.partition_point(|run| (run.end as usize) <= i)
}

/// The windowed candidate enumeration every spacing executor shares:
/// visits the partners `j > i` of edge `i` (which lives in run `r`)
/// that could possibly violate `spec`, calling `hit(j, d2)` for each
/// actual violation. Count, emit, brute and host fallback all walk
/// this exact sequence, so their outputs agree pair for pair.
///
/// Why the pruning is conservative (never drops a violation):
///
/// * a violating pair is [`ExteriorFacing`](crate::checks::edge) —
///   parallel, same orientation, *different* tracks — so same-run
///   pairs (collinear) and cross-orientation runs contribute nothing;
/// * the violation predicate requires `d2 = gx² + gy² < min²` where
///   `gx` is the track gap: once a run's track is `min` or more away,
///   that run and (tracks sort ascending) everything after it within
///   the orientation is out of reach;
/// * within a reachable run (sorted by span-low) a partner reaches the
///   query window `[lo_i, hi_i]` only if its span-low lies in
///   `[lo_i − min − run.max_len, hi_i + min]`: below the lower bound
///   even the run's longest edge falls short of `lo_i − min`, above
///   the upper bound the span gap is already ≥ `min`. The window is
///   found by binary search and scanned to the break.
fn for_each_hit(
    edges: &[PackedEdge],
    runs: &[RunInfo],
    i: usize,
    r: usize,
    spec: SpaceSpec,
    hit: &mut dyn FnMut(u32, i64),
) {
    let ei = unpack(edges[i]);
    let me = runs[r];
    let (lo_i, hi_i) = edge_window(edges[i]);
    let hi_bound = hi_i.saturating_add(spec.min);
    for run in &runs[r + 1..] {
        if run.orient != me.orient || i64::from(run.track) - i64::from(me.track) >= spec.min {
            break;
        }
        let lo_bound = lo_i.saturating_sub(spec.min).saturating_sub(run.max_len);
        let seg = &edges[run.start as usize..run.end as usize];
        let off = seg.partition_point(|&e| i64::from(span_lo(e)) < lo_bound);
        for (k, &pe) in seg.iter().enumerate().skip(off) {
            if i64::from(span_lo(pe)) > hi_bound {
                break;
            }
            if let Some(d2) = space_pair_spec(ei, unpack(pe), spec) {
                hit((run.start as usize + k) as u32, d2);
            }
        }
    }
}

/// The brute-force executor's kernel body: one tile launch, each chunk
/// walking its edges' candidate windows with plain `for` loops.
#[allow(clippy::type_complexity)]
fn brute_kernel(
    edges: DeviceBuffer<PackedEdge>,
    runs: DeviceBuffer<RunInfo>,
    spec: SpaceSpec,
) -> impl Fn(Range<usize>, &mut [Vec<(u32, i64)>]) + Send + Sync + 'static {
    move |range, tile| {
        let edges = edges.read();
        let runs = runs.read();
        let mut r = run_index(&runs, range.start);
        for (slot, i) in tile.iter_mut().zip(range) {
            while (runs[r].end as usize) <= i {
                r += 1;
            }
            for_each_hit(&edges, &runs, i, r, spec, &mut |j, d2| slot.push((j, d2)));
        }
    }
}

/// The sweepline executor's first kernel: per-edge check range and
/// violation count over the windowed enumeration.
fn count_kernel(
    edges: DeviceBuffer<PackedEdge>,
    runs: DeviceBuffer<RunInfo>,
    spec: SpaceSpec,
) -> impl Fn(Range<usize>, &mut [usize]) + Send + Sync + 'static {
    move |range, tile| {
        let edges = edges.read();
        let runs = runs.read();
        let mut r = run_index(&runs, range.start);
        for (slot, i) in tile.iter_mut().zip(range) {
            while (runs[r].end as usize) <= i {
                r += 1;
            }
            let mut count = 0usize;
            for_each_hit(&edges, &runs, i, r, spec, &mut |_, _| count += 1);
            *slot = count;
        }
    }
}

/// The sweepline executor's second kernel: emit each edge's violations
/// into its scan-determined output range. Walks the same enumeration
/// as [`count_kernel`], so every range is filled exactly.
fn emit_kernel(
    edges: DeviceBuffer<PackedEdge>,
    runs: DeviceBuffer<RunInfo>,
    spec: SpaceSpec,
) -> impl Fn(Range<usize>, &mut [&mut [PairRecord]]) + Send + Sync + 'static {
    move |range, tile| {
        let edges = edges.read();
        let runs = runs.read();
        let mut r = run_index(&runs, range.start);
        for (slot, i) in tile.iter_mut().zip(range) {
            while (runs[r].end as usize) <= i {
                r += 1;
            }
            let mut k = 0usize;
            for_each_hit(&edges, &runs, i, r, spec, &mut |j, d2| {
                slot[k] = PairRecord {
                    a: i as u32,
                    b: j,
                    d2,
                };
                k += 1;
            });
        }
    }
}

/// An issued rule: the device work is enqueued on `stream`; results
/// materialize at [`collect_rule`].
pub(crate) struct InFlightRule {
    stream: Stream,
    kind: InFlightKind,
}

enum InFlightKind {
    Space(SpaceIssue),
    Intra(IntraIssue),
    Pairs(PairsIssue),
    /// Host-only rules (rectilinear, user predicates) run synchronously
    /// at issue time; their result rides along.
    Host(Vec<Violation>),
}

struct SpaceIssue {
    rule_name: String,
    spec: SpaceSpec,
    jobs: Vec<RowJob>,
    failed: Vec<Arc<PlannedRow>>,
}

struct IntraIssue {
    rule_name: String,
    is_width: bool,
    min: i64,
    data: Arc<IntraData>,
    pending: Option<Pending<Vec<Vec<LocalViolation>>>>,
}

struct PairsIssue {
    rule_name: String,
    kind: ViolationKind,
    min: i64,
    work: Arc<Vec<(Polygon, Vec<Polygon>)>>,
    rects: Vec<Rect>,
    pending: Option<Pending<Vec<i64>>>,
}

/// Issues one rule's device pipeline on `stream` (taking ownership of
/// the stream) and returns without waiting for any device result — the
/// parallel mode's per-rule entry point, shared by the full check and
/// the delta re-check. Full-layer row sets and launch graphs come from
/// the run's memo. Under a delta `window`, spacing packs a windowed
/// scene outside the memo (windowed row sets are rule-specific) and
/// enclosure / overlap re-measure only the inner shapes near the dirt;
/// intra-polygon rules ignore the window (they re-run whole).
pub(crate) fn issue_rule(
    ctx: &mut RunContext<'_>,
    stream: Stream,
    rule: &Rule,
    window: Option<DirtyWindow<'_>>,
) -> InFlightRule {
    let kind = match &rule.kind {
        RuleKind::Space {
            layer,
            min,
            min_projection,
        } => {
            let spec = SpaceSpec {
                min: *min,
                min_projection: *min_projection,
            };
            let (rows, graph) = match window {
                None => {
                    let rows = ctx.row_set(*layer, *min);
                    let graph = ctx.launch_graph(*layer, *min, &rows);
                    (rows, graph)
                }
                Some(w) => {
                    let scene = ctx.scene_near(*layer, Some(w));
                    let rows = Arc::new(RowSet::build(ctx, &scene, *min));
                    let graph =
                        Arc::new(LaunchGraph::record(&rows.rows, ctx.options.sweep_threshold));
                    (rows, graph)
                }
            };
            InFlightKind::Space(issue_space(ctx, &stream, &rule.name, &rows, &graph, spec))
        }
        RuleKind::Enclosure { .. } | RuleKind::OverlapArea { .. } => {
            InFlightKind::Pairs(issue_pairs(ctx, &stream, rule, window))
        }
        RuleKind::Width { layer, min } => {
            InFlightKind::Intra(issue_intra(ctx, &stream, &rule.name, *layer, true, *min))
        }
        RuleKind::Area { layer, min } => {
            InFlightKind::Intra(issue_intra(ctx, &stream, &rule.name, *layer, false, *min))
        }
        _ => {
            // Rectilinear / user predicates run on the host in both
            // modes (user closures are host code).
            let mut host = Vec::new();
            crate::sequential::check_intra_rule(ctx, rule, &mut host);
            InFlightKind::Host(host)
        }
    };
    InFlightRule { stream, kind }
}

/// Waits for an issued rule's device results, runs the second
/// (scan+emit) phase where needed, recovers failed work units, and
/// drains the rule's stream.
pub(crate) fn collect_rule(ctx: &mut RunContext<'_>, fl: InFlightRule, out: &mut Vec<Violation>) {
    let InFlightRule { stream, kind } = fl;
    match kind {
        InFlightKind::Space(issue) => collect_space(ctx, &stream, issue, out),
        InFlightKind::Intra(issue) => collect_intra(ctx, issue, out),
        InFlightKind::Pairs(issue) => collect_pairs(ctx, issue, out),
        InFlightKind::Host(host) => out.extend(host),
    }
    // Errors were already handled per work unit; drain the stream
    // without re-raising them.
    let _ = stream.try_synchronize();
}

/// Issue half of the spacing pipeline: walk the (recorded or replayed)
/// launch graph, acquiring each row's device-resident buffers and
/// enqueuing its first kernel phase. The whole phase goes through one
/// [`LaunchBatch`], so every row's uploads and kernels ride a single
/// stream dispatch (one worker wake per rule).
fn issue_space(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    rule_name: &str,
    rows: &RowSet,
    graph: &LaunchGraph,
    spec: SpaceSpec,
) -> SpaceIssue {
    ctx.stats.rows += rows.partition_rows;
    let mut jobs = Vec::with_capacity(graph.nodes.len());
    let mut failed = Vec::new();
    let mut batch = stream.batch();
    for node in &graph.nodes {
        match enqueue_row_phase1(ctx, &mut batch, node, spec) {
            Ok(job) => jobs.push(job),
            Err(_) => failed.push(Arc::clone(&node.row)),
        }
    }
    batch.commit();
    SpaceIssue {
        rule_name: rule_name.to_owned(),
        spec,
        jobs,
        failed,
    }
}

/// Collect half of the spacing pipeline: brute results, the
/// count→scan→emit second phase for sweepline rows, and recovery.
fn collect_space(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    issue: SpaceIssue,
    out: &mut Vec<Violation>,
) {
    let SpaceIssue {
        rule_name,
        spec,
        jobs,
        mut failed,
    } = issue;
    let threshold = ctx.options.sweep_threshold;
    let device = stream.device().clone();
    let mut emits: Vec<RowEmit> = Vec::new();
    let mut hits: Vec<Violation> = Vec::new();

    // Phase 2: for sweepline rows, scan the counts on the device and
    // enqueue the emit kernel; brute rows resolve directly.
    for job in jobs {
        let RowJob {
            row,
            cfg,
            brute,
            counts,
        } = job;
        if let Some(pending) = brute {
            match ctx.device_wait(|| pending.result()) {
                Ok(per_edge) => ctx.profiler.time("convert", || {
                    for (i, pairs) in per_edge.iter().enumerate() {
                        for &(j, d2) in pairs {
                            hits.push(make_violation(&rule_name, &row.edges.host, i as u32, j, d2));
                        }
                    }
                }),
                Err(_) => failed.push(row),
            }
        } else if let Some(pending) = counts {
            let counts = match ctx.device_wait(|| pending.result()) {
                Ok(counts) => counts,
                Err(_) => {
                    failed.push(row);
                    continue;
                }
            };
            let offsets = ctx
                .profiler
                .time("scan", || exclusive_scan(&device, &counts));
            match enqueue_row_emit(ctx, stream, &row, cfg, offsets, spec) {
                Ok(records) => emits.push(RowEmit { row, records }),
                Err(_) => failed.push(row),
            }
        }
    }

    // Phase 3: collect emit results.
    for emit in emits {
        match ctx.device_wait(|| emit.records.result()) {
            Ok(records) => ctx.profiler.time("convert", || {
                for r in records {
                    hits.push(make_violation(
                        &rule_name,
                        &emit.row.edges.host,
                        r.a,
                        r.b,
                        r.d2,
                    ));
                }
            }),
            Err(_) => failed.push(emit.row),
        }
    }

    // Recovery: defer each failed row onto the run's queue; the engine
    // drains it after every rule has collected (see [`drain_recovery`]),
    // so one faulty row never stalls the healthy rules behind an inline
    // backoff sleep. Completed rows above are salvaged as-is.
    for row in failed {
        ctx.recovery.push(RecoveryUnit::new(RecoveryWork::SpaceRow {
            rule_name: rule_name.clone(),
            edges: Arc::clone(&row.edges.host),
            threshold,
            spec,
        }));
    }

    ctx.stats.checks_computed += hits.len();
    out.extend(hits);
}

/// Enqueues one row's first device phase (brute kernel, or sweepline
/// count kernel) into the rule's launch batch, acquiring the shared
/// device-resident buffers through the same batch.
fn enqueue_row_phase1(
    ctx: &mut RunContext<'_>,
    batch: &mut LaunchBatch<'_>,
    node: &GraphNode,
    spec: SpaceSpec,
) -> XpuResult<RowJob> {
    let row = &node.row;
    let n = row.edges.host.len();
    let (dev_edges, elided) = row.edges.acquire_in(batch)?;
    ctx.note_upload(elided, row.edges.bytes());
    let (dev_runs, elided) = row.runs.acquire_in(batch)?;
    ctx.note_upload(elided, row.runs.bytes());
    if node.brute {
        // Brute-force executor: one tile launch, plain for loops.
        let out_buf = batch.try_alloc::<Vec<(u32, i64)>>(n)?;
        batch.try_launch_tiles(node.cfg, &out_buf, brute_kernel(dev_edges, dev_runs, spec))?;
        Ok(RowJob {
            row: Arc::clone(row),
            cfg: node.cfg,
            brute: Some(batch.try_download(&out_buf)?),
            counts: None,
        })
    } else {
        // Sweepline executor, kernel 1: per-edge check range and
        // violation count.
        let counts_buf = batch.try_alloc::<usize>(n)?;
        batch.try_launch_tiles(
            node.cfg,
            &counts_buf,
            count_kernel(dev_edges, dev_runs, spec),
        )?;
        Ok(RowJob {
            row: Arc::clone(row),
            cfg: node.cfg,
            brute: None,
            counts: Some(batch.try_download(&counts_buf)?),
        })
    }
}

/// Enqueues a sweepline row's emit kernel on the rule's stream (one
/// fused batch per row). The edges and run table are already
/// device-resident from phase 1, so this acquires (elides) rather
/// than re-uploading.
fn enqueue_row_emit(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    row: &PlannedRow,
    cfg: LaunchConfig,
    offsets: Vec<usize>,
    spec: SpaceSpec,
) -> XpuResult<Pending<Vec<PairRecord>>> {
    let total = *offsets.last().expect("scan returns n+1 entries");
    let mut batch = stream.batch();
    let (dev_edges, elided) = row.edges.acquire_in(&mut batch)?;
    ctx.note_upload(elided, row.edges.bytes());
    let (dev_runs, elided) = row.runs.acquire_in(&mut batch)?;
    ctx.note_upload(elided, row.runs.bytes());
    let out_buf = batch.try_alloc::<PairRecord>(total)?;
    // Kernel 2: emit each edge's violations into its range.
    batch.try_launch_scatter_tiles(
        cfg,
        &out_buf,
        offsets,
        emit_kernel(dev_edges, dev_runs, spec),
    )?;
    let pending = batch.try_download(&out_buf)?;
    batch.commit();
    Ok(pending)
}

/// One complete synchronous device attempt at a row, on the given
/// (fresh) stream. Runs the same executors as the pipelined path. The
/// run table is rebuilt here (the cached copy may be the failed one).
fn row_device_records(
    stream: &Stream,
    edges: &Arc<Vec<PackedEdge>>,
    threshold: usize,
    spec: SpaceSpec,
) -> XpuResult<Vec<(u32, u32, i64)>> {
    let n = edges.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let dev_edges = stream.try_upload_shared(Arc::clone(edges))?;
    let dev_runs = stream.try_upload_shared(Arc::new(build_runs(edges)))?;
    if n <= threshold {
        let out_buf = stream.try_alloc::<Vec<(u32, i64)>>(n)?;
        stream.try_launch_tiles(
            LaunchConfig::for_threads(n),
            &out_buf,
            brute_kernel(dev_edges, dev_runs, spec),
        )?;
        let per_edge = stream.try_download(&out_buf)?.result()?;
        let mut recs = Vec::new();
        for (i, pairs) in per_edge.iter().enumerate() {
            for &(j, d2) in pairs {
                recs.push((i as u32, j, d2));
            }
        }
        Ok(recs)
    } else {
        let counts_buf = stream.try_alloc::<usize>(n)?;
        stream.try_launch_tiles(
            LaunchConfig::for_threads(n),
            &counts_buf,
            count_kernel(dev_edges.clone(), dev_runs.clone(), spec),
        )?;
        let counts = stream.try_download(&counts_buf)?.result()?;
        let offsets = exclusive_scan(stream.device(), &counts);
        let total = *offsets.last().expect("scan returns n+1 entries");
        let out_buf = stream.try_alloc::<PairRecord>(total)?;
        stream.try_launch_scatter_tiles(
            LaunchConfig::for_threads(n),
            &out_buf,
            offsets,
            emit_kernel(dev_edges, dev_runs, spec),
        )?;
        let records = stream.try_download(&out_buf)?.result()?;
        Ok(records.into_iter().map(|r| (r.a, r.b, r.d2)).collect())
    }
}

/// The host (CPU) fallback for one row: the same windowed enumeration
/// as the device kernels, run inline — guaranteeing an identical
/// record set (the executor choice does not change the records, so no
/// threshold is needed here).
fn row_host_records(edges: &[PackedEdge], spec: SpaceSpec) -> Vec<(u32, u32, i64)> {
    let runs = build_runs(edges);
    let mut recs = Vec::new();
    let mut r = 0usize;
    for i in 0..edges.len() {
        while (runs[r].end as usize) <= i {
            r += 1;
        }
        for_each_hit(edges, &runs, i, r, spec, &mut |j, d2| {
            recs.push((i as u32, j, d2));
        });
    }
    recs
}

/// Device attempts per failed work unit (row or rule) before the
/// engine gives up on the device and recomputes on the host.
pub(crate) const MAX_DEVICE_RETRIES: usize = 2;

/// One failed device work unit, deferred for later recovery.
///
/// Collect halves push these onto [`RunContext::recovery`] instead of
/// retrying inline; [`drain_recovery`] processes the whole queue after
/// every rule has collected. Each unit carries everything needed for
/// both a fresh device attempt and the host fallback, so recovery
/// produces the same record set either way.
pub(crate) struct RecoveryUnit {
    /// Device attempts made so far.
    attempts: usize,
    /// Backoff deadline: the unit is not retried before this instant.
    not_before: std::time::Instant,
    work: RecoveryWork,
}

impl RecoveryUnit {
    fn new(work: RecoveryWork) -> Self {
        RecoveryUnit {
            attempts: 0,
            not_before: std::time::Instant::now(),
            work,
        }
    }
}

/// The rule-specific payload of a [`RecoveryUnit`].
enum RecoveryWork {
    /// One spacing row: packed edges plus the executor-choice inputs.
    SpaceRow {
        rule_name: String,
        edges: Arc<Vec<PackedEdge>>,
        threshold: usize,
        spec: SpaceSpec,
    },
    /// A whole intra-polygon rule (width/area): the shared layer data;
    /// instance replay happens at emit time.
    Intra {
        rule_name: String,
        is_width: bool,
        min: i64,
        data: Arc<IntraData>,
    },
    /// A whole enclosure/overlap rule: the gathered work list and the
    /// per-shape report rectangles.
    Pairs {
        rule_name: String,
        kind: ViolationKind,
        min: i64,
        work: Arc<Vec<(Polygon, Vec<Polygon>)>>,
        rects: Vec<Rect>,
    },
}

/// Whether the deferred recovery queue still holds work for `rule` —
/// the engine defers finalizing (and checkpointing) such rules until
/// the drain settles them.
pub(crate) fn recovery_pending_for(ctx: &RunContext<'_>, rule: &str) -> bool {
    ctx.recovery.iter().any(|u| u.work.rule_name() == rule)
}

impl RecoveryWork {
    /// Name of the rule this unit belongs to, for routing recovered
    /// violations back to their per-rule buffer.
    fn rule_name(&self) -> &str {
        match self {
            RecoveryWork::SpaceRow { rule_name, .. }
            | RecoveryWork::Intra { rule_name, .. }
            | RecoveryWork::Pairs { rule_name, .. } => rule_name,
        }
    }
}

/// A recovered unit's raw result, device attempt or host fallback —
/// identical either way by construction.
enum Recovered {
    Space(Vec<(u32, u32, i64)>),
    Intra(Vec<Vec<LocalViolation>>),
    Pairs(Vec<i64>),
}

/// One complete synchronous device attempt at a deferred unit, on a
/// fresh stream (stream errors are sticky, so every attempt gets its
/// own; the device itself survives kernel panics). Fresh uploads bypass
/// the shared cache — its resident copy may be the failed one.
fn recovery_attempt(work: &RecoveryWork, stream: &Stream) -> XpuResult<Recovered> {
    match work {
        RecoveryWork::SpaceRow {
            edges,
            threshold,
            spec,
            ..
        } => row_device_records(stream, edges, *threshold, *spec).map(Recovered::Space),
        RecoveryWork::Intra {
            is_width,
            min,
            data,
            ..
        } => {
            let n = data.polys.host.len();
            let check = intra_local_check(*is_width, *min);
            let dev_polys = stream.try_upload_shared(Arc::clone(&data.polys.host))?;
            let out_buf = stream.try_alloc::<Vec<LocalViolation>>(n)?;
            stream.try_launch_map(LaunchConfig::for_threads(n), &out_buf, move |tctx, slot| {
                check(&dev_polys.read()[tctx.global_id()], slot);
            })?;
            stream
                .try_download(&out_buf)?
                .result()
                .map(Recovered::Intra)
        }
        RecoveryWork::Pairs {
            kind, min, work, ..
        } => {
            let n = work.len();
            let measure = pairs_measure(*kind, *min);
            let dev_work = stream.try_upload_shared(Arc::clone(work))?;
            let measures = stream.try_alloc::<i64>(n)?;
            stream.try_launch_map(
                LaunchConfig::for_threads(n),
                &measures,
                move |tctx, slot| {
                    let w = dev_work.read();
                    let (poly, candidates) = &w[tctx.global_id()];
                    *slot = measure(poly, candidates);
                },
            )?;
            stream
                .try_download(&measures)?
                .result()
                .map(Recovered::Pairs)
        }
    }
}

/// The host (CPU) fallback for a deferred unit: the same executor
/// choice and check predicates as the device kernels, run inline.
fn recovery_fallback(work: &RecoveryWork) -> Recovered {
    match work {
        RecoveryWork::SpaceRow { edges, spec, .. } => {
            Recovered::Space(row_host_records(edges, *spec))
        }
        RecoveryWork::Intra {
            is_width,
            min,
            data,
            ..
        } => {
            let check = intra_local_check(*is_width, *min);
            Recovered::Intra(
                data.polys
                    .host
                    .iter()
                    .map(|poly| {
                        let mut slot = Vec::new();
                        check(poly, &mut slot);
                        slot
                    })
                    .collect(),
            )
        }
        RecoveryWork::Pairs {
            kind, min, work, ..
        } => {
            let measure = pairs_measure(*kind, *min);
            Recovered::Pairs(
                work.iter()
                    .map(|(poly, cands)| measure(poly, cands))
                    .collect(),
            )
        }
    }
}

/// Converts a recovered unit's records into violations, with the same
/// stats bookkeeping the fault-free collect path performs.
fn emit_recovered(
    ctx: &mut RunContext<'_>,
    work: &RecoveryWork,
    recovered: Recovered,
    out: &mut Vec<Violation>,
) {
    match (work, recovered) {
        (
            RecoveryWork::SpaceRow {
                rule_name, edges, ..
            },
            Recovered::Space(recs),
        ) => {
            ctx.stats.checks_computed += recs.len();
            for (a, b, d2) in recs {
                out.push(make_violation(rule_name, edges, a, b, d2));
            }
        }
        (
            RecoveryWork::Intra {
                rule_name, data, ..
            },
            Recovered::Intra(per_poly),
        ) => {
            emit_intra(ctx, rule_name, data, &per_poly, out);
        }
        (
            RecoveryWork::Pairs {
                rule_name,
                kind,
                min,
                rects,
                ..
            },
            Recovered::Pairs(measures),
        ) => {
            ctx.profiler.time("convert", || {
                for (rect, measured) in rects.iter().zip(measures) {
                    if measured < *min {
                        out.push(Violation {
                            rule: rule_name.clone(),
                            kind: *kind,
                            location: *rect,
                            measured,
                        });
                    }
                }
            });
        }
        _ => unreachable!("recovery payload matches its work variant"),
    }
}

/// Drains the run's deferred recovery queue: retries each unit on a
/// fresh stream under a capped exponential backoff **deadline**
/// (`retry_backoff_ms`, doubling per attempt, capped at 50 ms), tallying
/// [`EngineStats::device_retries`] per attempt; after
/// [`MAX_DEVICE_RETRIES`] failures a unit falls back to
/// the host and tallies [`EngineStats::device_fallbacks`].
///
/// Unlike the old inline retry loop, the backoff never blocks the
/// collect path: deadlines are checked here, after every rule has
/// collected, and the drain only sleeps when *all* remaining units are
/// backing off (there is nothing else left to do).
///
/// [`EngineStats::device_retries`]: crate::EngineStats::device_retries
/// [`EngineStats::device_fallbacks`]: crate::EngineStats::device_fallbacks
pub(crate) fn drain_recovery(ctx: &mut RunContext<'_>, device: &Device, out: &mut Vec<Violation>) {
    let abandoned = drain_recovery_routed(ctx, device, None, &mut |_, mut v| out.append(&mut v));
    debug_assert!(abandoned.is_empty(), "uncancellable drain never abandons");
}

/// [`drain_recovery`] with two lifecycle hooks the engine's resilient
/// paths need:
///
/// * recovered violations are *routed* per rule (the `route` sink gets
///   `(rule name, violations)` batches) so they land in per-rule
///   buffers for checkpointing instead of one flat output, and
/// * an optional [`CancelToken`] is observed between units: once it
///   trips, the remaining queue is **abandoned** — no more device
///   attempts, no host fallbacks — and the affected rules' names are
///   returned (sorted, deduplicated) so the engine can mark them
///   interrupted rather than silently under-reporting.
///
/// [`CancelToken`]: odrc_infra::CancelToken
pub(crate) fn drain_recovery_routed(
    ctx: &mut RunContext<'_>,
    device: &Device,
    cancel: Option<&odrc_infra::CancelToken>,
    route: &mut dyn FnMut(&str, Vec<Violation>),
) -> Vec<String> {
    if ctx.recovery.is_empty() {
        return Vec::new();
    }
    let tripped = |c: Option<&odrc_infra::CancelToken>| c.is_some_and(|t| t.is_cancelled());
    let mut queue = std::mem::take(&mut ctx.recovery);
    let mut deferred = Vec::new();
    while !queue.is_empty() && !tripped(cancel) {
        let now = std::time::Instant::now();
        let mut progressed = false;
        for mut unit in queue.drain(..) {
            if tripped(cancel) {
                deferred.push(unit);
                continue;
            }
            if unit.attempts >= MAX_DEVICE_RETRIES {
                // Exhausted (or retries disabled): host fallback.
                ctx.stats.device_fallbacks += 1;
                let recovered = recovery_fallback(&unit.work);
                let mut scratch = Vec::new();
                emit_recovered(ctx, &unit.work, recovered, &mut scratch);
                route(unit.work.rule_name(), scratch);
                progressed = true;
                continue;
            }
            if unit.not_before > now {
                deferred.push(unit);
                continue;
            }
            unit.attempts += 1;
            ctx.stats.device_retries += 1;
            let fresh = device.stream();
            match recovery_attempt(&unit.work, &fresh) {
                Ok(recovered) => {
                    let mut scratch = Vec::new();
                    emit_recovered(ctx, &unit.work, recovered, &mut scratch);
                    route(unit.work.rule_name(), scratch);
                    progressed = true;
                }
                Err(_) => {
                    // Capped exponential backoff: transient contention
                    // clears, and one-shot injected faults are consumed
                    // by the failing attempt, so the loop converges.
                    let ms = (ctx.options.retry_backoff_ms << (unit.attempts - 1).min(4)).min(50);
                    unit.not_before = now + Duration::from_millis(ms);
                    deferred.push(unit);
                }
            }
        }
        std::mem::swap(&mut queue, &mut deferred);
        if !progressed && !queue.is_empty() && !tripped(cancel) {
            // Everything left is backing off; sleep only until the
            // earliest deadline (healthy work has already drained).
            let earliest = queue
                .iter()
                .map(|u| u.not_before)
                .min()
                .expect("queue is non-empty");
            let now = std::time::Instant::now();
            if earliest > now {
                std::thread::sleep(earliest - now);
            }
        }
    }
    let mut abandoned: Vec<String> = queue
        .drain(..)
        .map(|u| u.work.rule_name().to_string())
        .collect();
    abandoned.sort_unstable();
    abandoned.dedup();
    abandoned
}

fn make_violation(rule: &str, edges: &[PackedEdge], a: u32, b: u32, d2: i64) -> Violation {
    let ea = unpack(edges[a as usize]);
    let eb = unpack(edges[b as usize]);
    Violation {
        rule: rule.to_owned(),
        kind: ViolationKind::Space,
        location: ea.mbr().hull(eb.mbr()),
        measured: d2,
    }
}

/// Issue half of an intra-polygon width/area rule: acquire the layer's
/// shared polygon buffer and launch the per-polygon kernel. The
/// memoization and instantiation host work happens at collect.
fn issue_intra(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    rule_name: &str,
    layer: Layer,
    is_width: bool,
    min: i64,
) -> IntraIssue {
    let data = ctx.intra_data(layer);
    let n = data.polys.host.len();
    let pending = if n == 0 {
        None
    } else {
        // Issue-time failure: collect goes straight to recovery.
        enqueue_intra(ctx, stream, &data, is_width, min).ok()
    };
    IntraIssue {
        rule_name: rule_name.to_owned(),
        is_width,
        min,
        data,
        pending,
    }
}

fn enqueue_intra(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    data: &IntraData,
    is_width: bool,
    min: i64,
) -> XpuResult<Pending<Vec<Vec<LocalViolation>>>> {
    let n = data.polys.host.len();
    let mut batch = stream.batch();
    let (dev_polys, elided) = data.polys.acquire_in(&mut batch)?;
    ctx.note_upload(elided, data.polys.bytes());
    let out_buf = batch.try_alloc::<Vec<LocalViolation>>(n)?;
    let check = intra_local_check(is_width, min);
    batch.try_launch_map(LaunchConfig::for_threads(n), &out_buf, move |tctx, slot| {
        check(&dev_polys.read()[tctx.global_id()], slot);
    })?;
    let pending = batch.try_download(&out_buf)?;
    batch.commit();
    Ok(pending)
}

/// The whole-rule kernel body, shared by the device attempt and the
/// host fallback.
fn intra_local_check(
    is_width: bool,
    min: i64,
) -> impl Fn(&Polygon, &mut Vec<LocalViolation>) + Send + Sync + Clone + 'static {
    move |poly, slot| {
        if is_width {
            crate::checks::poly::width_violations(poly, min, slot);
        } else {
            let area = poly.area();
            if area < min {
                slot.push(LocalViolation {
                    kind: ViolationKind::Area,
                    location: poly.mbr(),
                    measured: area,
                });
            }
        }
    }
}

/// Collect half of an intra rule: wait for the per-polygon kernel,
/// recover on failure, then replay each cell's local violations
/// through all its instances on the host.
fn collect_intra(ctx: &mut RunContext<'_>, issue: IntraIssue, out: &mut Vec<Violation>) {
    let IntraIssue {
        rule_name,
        is_width,
        min,
        data,
        pending,
    } = issue;
    let n = data.polys.host.len();
    if n == 0 {
        return;
    }

    let waited = match pending {
        Some(pending) => ctx.device_wait(|| pending.result()),
        None => Err(odrc_xpu::XpuError::StreamTimeout { op: "issue" }),
    };
    let per_poly = match waited {
        Ok(per_poly) => per_poly,
        Err(_) => {
            // Defer the whole rule; [`drain_recovery`] re-attempts it
            // on a fresh stream and falls back to the host.
            ctx.recovery.push(RecoveryUnit::new(RecoveryWork::Intra {
                rule_name,
                is_width,
                min,
                data,
            }));
            return;
        }
    };
    emit_intra(ctx, &rule_name, &data, &per_poly, out);
}

/// Host side of an intra rule's collect: tallies the per-polygon
/// checks and replays each cell's local violations through all its
/// instances. Shared by the fault-free path and deferred recovery.
fn emit_intra(
    ctx: &mut RunContext<'_>,
    rule_name: &str,
    data: &IntraData,
    per_poly: &[Vec<LocalViolation>],
    out: &mut Vec<Violation>,
) {
    ctx.stats.checks_computed += data.polys.host.len();
    let instances = ctx.instances().clone();
    let targets = Arc::clone(&data.targets);
    ctx.profiler.time("convert", || {
        for (idx, (cell, _)) in targets.iter().enumerate() {
            let Some(transforms) = instances.get(cell) else {
                continue;
            };
            ctx.stats.checks_reused += transforms.len().saturating_sub(1);
            for t in transforms {
                for v in &per_poly[idx] {
                    let vi = v.instantiate(t);
                    out.push(Violation {
                        rule: rule_name.to_owned(),
                        kind: vi.kind,
                        location: vi.location,
                        measured: vi.measured,
                    });
                }
            }
        }
    });
}

/// Issue half of an enclosure / overlap-area rule: gather the work
/// list on the host (through the memoized scenes), upload it without a
/// staging copy, and launch the per-shape kernel.
fn issue_pairs(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    rule: &Rule,
    window: Option<DirtyWindow<'_>>,
) -> PairsIssue {
    let (kind, inner, outer, min) = pairs_params(&rule.kind);
    let gather = gather_distance(kind, min);
    let work: Arc<Vec<(Polygon, Vec<Polygon>)>> = Arc::new(crate::sequential::enclosure_work(
        ctx, inner, outer, gather, window,
    ));
    let rects: Vec<Rect> = work.iter().map(|(p, _)| p.mbr()).collect();
    let pending = if work.is_empty() {
        None
    } else {
        // Issue-time failure: collect goes straight to recovery.
        enqueue_pairs(ctx, stream, kind, &work, min).ok()
    };
    PairsIssue {
        rule_name: rule.name.clone(),
        kind,
        min,
        work,
        rects,
        pending,
    }
}

fn enqueue_pairs(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    kind: ViolationKind,
    work: &Arc<Vec<(Polygon, Vec<Polygon>)>>,
    min: i64,
) -> XpuResult<Pending<Vec<i64>>> {
    let n = work.len();
    let bytes = (n * std::mem::size_of::<(Polygon, Vec<Polygon>)>()) as u64;
    let mut batch = stream.batch();
    let dev_work = batch.try_upload_shared(Arc::clone(work))?;
    ctx.note_upload(false, bytes);
    let measures = batch.try_alloc::<i64>(n)?;
    let measure = pairs_measure(kind, min);
    batch.try_launch_map(
        LaunchConfig::for_threads(n),
        &measures,
        move |tctx, slot| {
            let work = dev_work.read();
            let (poly, candidates) = &work[tctx.global_id()];
            *slot = measure(poly, candidates);
        },
    )?;
    let pending = batch.try_download(&measures)?;
    batch.commit();
    Ok(pending)
}

/// Collect half of an enclosure / overlap rule: wait for the measure
/// kernel, defer recovery on failure, threshold into violations.
fn collect_pairs(ctx: &mut RunContext<'_>, issue: PairsIssue, out: &mut Vec<Violation>) {
    let PairsIssue {
        rule_name,
        kind,
        min,
        work,
        rects,
        pending,
    } = issue;
    if work.is_empty() {
        return;
    }
    ctx.stats.checks_computed += work.len();

    let waited = match pending {
        Some(pending) => ctx.device_wait(|| pending.result()),
        None => Err(odrc_xpu::XpuError::StreamTimeout { op: "issue" }),
    };
    let measures = match waited {
        Ok(measures) => measures,
        Err(_) => {
            // Defer the whole rule; [`drain_recovery`] re-attempts it
            // on a fresh stream and falls back to the host. The checks
            // are already tallied above — recovery recomputes, it does
            // not re-count.
            ctx.recovery.push(RecoveryUnit::new(RecoveryWork::Pairs {
                rule_name,
                kind,
                min,
                work,
                rects,
            }));
            return;
        }
    };
    ctx.profiler.time("convert", || {
        for (rect, measured) in rects.into_iter().zip(measures) {
            if measured < min {
                out.push(Violation {
                    rule: rule_name.clone(),
                    kind,
                    location: rect,
                    measured,
                });
            }
        }
    });
}

/// All-pairs spacing kernel over an *unsorted* flat edge list: one
/// thread per edge, plain `for` loops over the remaining edges. Only
/// [`flat_space_brute`] uses it — the engine executors window through
/// the sorted run table instead.
fn allpairs_kernel(
    edges: DeviceBuffer<PackedEdge>,
    spec: SpaceSpec,
) -> impl Fn(ThreadCtx, &mut Vec<(u32, i64)>) + Send + Sync + 'static {
    move |tctx, slot| {
        let edges = edges.read();
        let i = tctx.global_id();
        let ei = unpack(edges[i]);
        for (j, &pe) in edges.iter().enumerate().skip(i + 1) {
            if let Some(d2) = space_pair_spec(ei, unpack(pe), spec) {
                slot.push((j as u32, d2));
            }
        }
    }
}

/// Device-accelerated helper used by tests and benches: all-pairs
/// spacing over a flat edge list (no hierarchy, no partition), brute
/// force. Returns canonical violations. Panics on device faults (it is
/// a bench/test harness, not an engine path).
pub fn flat_space_brute(
    device: &Device,
    edges: &[Edge],
    rule_name: &str,
    min: i64,
) -> Vec<Violation> {
    let stream = device.stream();
    let packed: Vec<PackedEdge> = edges.iter().map(|&e| pack(e)).collect();
    let n = packed.len();
    if n == 0 {
        return Vec::new();
    }
    let packed = Arc::new(packed);
    let dev = stream.upload_shared(Arc::clone(&packed));
    let out_buf = stream.alloc::<Vec<(u32, i64)>>(n);
    stream.launch_map(
        LaunchConfig::for_threads(n),
        &out_buf,
        allpairs_kernel(dev, SpaceSpec::simple(min)),
    );
    let per_edge = stream.download(&out_buf).wait();
    let mut out = Vec::new();
    for (i, pairs) in per_edge.iter().enumerate() {
        for &(j, d2) in pairs {
            out.push(make_violation(rule_name, &packed, i as u32, j, d2));
        }
    }
    crate::violation::canonicalize(out)
}
