//! `signoff`: a one-shot full-chip check, ingest to verdict, in three
//! engine configurations (one measuring child process each).
//!
//! Set-up generates `jpeg` scaled ×4, writes its GDSII bytes and
//! computes the reference verdict with the flat baseline checker. The
//! measuring child then repeats: GDSII bytes in memory → `read` →
//! `Layout::from_library` → check → canonical violations, on a fresh
//! engine each iteration.

use std::path::Path;
use std::time::Instant;

use odrc::{CheckpointJournal, Engine, EngineOptions, EngineStats, RuleDeck, RunKey};
use odrc_baselines::{Checker, FlatChecker};
use odrc_db::Layout;
use odrc_serve::json::{obj, Value};

use crate::trace::{spans_to_json, Tracer};
use crate::util::{self, median, ms_since, Metrics, Sample, Verdict};

/// Residency budget of the out-of-core configuration: small enough
/// that shard scenes of the ×4 chip are evicted.
pub const OOC_BUDGET_BYTES: u64 = 12 << 20;

/// An engine configuration the `signoff` workload measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    Seq,
    Par,
    Ooc,
}

impl Config {
    pub fn label(self) -> &'static str {
        match self {
            Config::Seq => "seq",
            Config::Par => "par",
            Config::Ooc => "ooc",
        }
    }

    pub fn parse(s: &str) -> Option<Config> {
        match s {
            "seq" => Some(Config::Seq),
            "par" => Some(Config::Par),
            "ooc" => Some(Config::Ooc),
            _ => None,
        }
    }

    fn engine(self) -> Engine {
        match self {
            Config::Seq => Engine::sequential(),
            Config::Par => Engine::parallel(),
            Config::Ooc => Engine::sequential().with_options(EngineOptions {
                memory_budget: Some(OOC_BUDGET_BYTES),
                ..EngineOptions::default()
            }),
        }
    }
}

/// A paper design and scale factor. [`FULL`] is what `signoff` checks;
/// tests pass smaller ones.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub design: &'static str,
    pub scale: usize,
}

pub const FULL: Size = Size {
    design: "jpeg",
    scale: 4,
};

/// What set-up hands the measuring child and keeps for verification.
pub struct Prepared {
    pub gds: Vec<u8>,
    pub reference: Verdict,
}

/// One set-up: generate, write GDSII, compute the reference verdict.
///
/// # Errors
///
/// Fails when GDSII writing fails or the reference misses violations
/// the generator injected.
pub fn setup(size: Size, seed: u64, deck: &RuleDeck, tr: &mut Tracer) -> Result<Prepared, String> {
    let spec = util::design(size.design, size.scale, seed, 0);
    let generated = tr.scope("setup.generate", 0, || odrc_layoutgen::generate(&spec));
    let gds = tr
        .scope("setup.write_gds", 0, || {
            odrc_gdsii::write(&generated.library)
        })
        .map_err(|e| format!("writing GDSII: {e}"))?;
    tr.begin("setup.oracle", 0);
    let layout = Layout::from_library(&generated.library).map_err(|e| e.to_string())?;
    let flat = FlatChecker::new().check(&layout, deck);
    tr.end();
    util::check_injection_floor(&flat.violations, &generated.stats)?;
    Ok(Prepared {
        gds,
        reference: Verdict::of(&flat.violations),
    })
}

/// What one iteration leaves for the report.
struct Iteration {
    wall_ms: f64,
    read_ms: f64,
    build_ms: f64,
    check_ms: f64,
    verdict: Verdict,
    phases: Vec<(String, f64)>,
    host_util: Vec<(String, f64)>,
    stats: EngineStats,
    kernels_launched: u64,
    checkpoint_bytes: u64,
    flat_polygons: usize,
}

fn iterate(
    gds: &[u8],
    deck: &RuleDeck,
    config: Config,
    work: &Path,
    i: u64,
    tr: &mut Tracer,
) -> Result<Iteration, String> {
    let engine = config.engine();
    let launched_before = engine.device().stats().kernels_launched();
    let journal_dir = work.join(format!("journal-{i}"));
    let t0 = Instant::now();
    tr.begin("signoff.iteration", i);
    let library = tr
        .scope("gdsii.read", i, || odrc_gdsii::read(gds))
        .map_err(|e| format!("read: {e}"))?;
    let read_ms = ms_since(t0);
    let t1 = Instant::now();
    let layout = tr
        .scope("db.from_library", i, || Layout::from_library(&library))
        .map_err(|e| format!("from_library: {e}"))?;
    let build_ms = ms_since(t1);
    let t2 = Instant::now();
    let (report, journal) = tr.scope("core.check", i, || {
        if config == Config::Ooc {
            let mut journal =
                CheckpointJournal::open_dir(&journal_dir, RunKey::compute(&layout, deck))
                    .map_err(|e| format!("journal: {e}"))?;
            let report = engine.check_resumable(&layout, deck, None, Some(&mut journal));
            Ok::<_, String>((report, Some(journal)))
        } else {
            Ok((engine.check(&layout, deck), None))
        }
    })?;
    let check_ms = ms_since(t2);
    tr.end();
    let wall_ms = ms_since(t0);

    let checkpoint_bytes = match &journal {
        Some(j) => std::fs::metadata(j.path()).map(|m| m.len()).unwrap_or(0),
        None => 0,
    };
    drop(journal);
    if config == Config::Ooc {
        std::fs::remove_dir_all(&journal_dir).map_err(|e| format!("removing journal: {e}"))?;
    }
    if report.interrupted.is_some() {
        return Err("check was interrupted".to_string());
    }
    let flat_polygons = layout
        .stats()
        .per_layer
        .iter()
        .map(|l| l.instantiated_polygons)
        .sum();
    Ok(Iteration {
        wall_ms,
        read_ms,
        build_ms,
        check_ms,
        verdict: Verdict::of(&report.violations),
        phases: report
            .profile
            .phases()
            .iter()
            .map(|(n, d)| (n.clone(), d.as_secs_f64() * 1e3))
            .collect(),
        host_util: report
            .profile
            .host_util()
            .iter()
            .map(|u| (u.phase.clone(), u.utilization()))
            .collect(),
        stats: report.stats,
        kernels_launched: engine
            .device()
            .stats()
            .kernels_launched()
            .saturating_sub(launched_before),
        checkpoint_bytes,
        flat_polygons,
    })
}

/// Runs iterations for `seconds` (at least `min_iters`).
fn run_for(
    gds: &[u8],
    deck: &RuleDeck,
    config: Config,
    work: &Path,
    seconds: f64,
    min_iters: usize,
    tr: &mut Tracer,
) -> Result<Vec<Iteration>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_iters || start.elapsed().as_secs_f64() < seconds {
        out.push(iterate(gds, deck, config, work, out.len() as u64, tr)?);
    }
    Ok(out)
}

/// Profile phases reported per layer for every configuration, as
/// `core.<phase>_ms.<config>`.
pub const PHASES: [&str; 5] = [
    "scene",
    "partition",
    "sweepline",
    "edge-check",
    "enclosure-check",
];

/// Phases only the parallel configuration records.
pub const PAR_PHASES: [&str; 4] = ["pack", "scan", "kernel-wait", "device-wait-wall"];

/// Host-executor phases whose utilization is reported.
pub const HOST_UTIL: [&str; 6] = [
    "scene",
    "partition",
    "pack",
    "edge-check",
    "enclosure-check",
    "canonicalize",
];

fn phase_metric(phase: &str, config: &str) -> String {
    format!("core.{}_ms.{config}", phase.replace('-', "_"))
}

/// The per-layer metrics the signoff children report, with units.
/// Names without a configuration suffix are pooled over the three
/// configurations (the median of the children's values).
pub fn metric_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for c in ["seq", "par", "ooc"] {
        v.push((format!("signoff.{c}_ms"), "ms"));
        v.push((format!("signoff.{c}_peak_rss_mb"), "MB"));
    }
    v.push(("gdsii.read_ms".into(), "ms"));
    v.push(("db.build_ms".into(), "ms"));
    v.push(("db.flat_polygons".into(), "count"));
    for c in ["seq", "par", "ooc"] {
        v.push((format!("core.check_ms.{c}"), "ms"));
        for phase in PHASES {
            v.push((phase_metric(phase, c), "ms"));
        }
        if c == "par" {
            for phase in PAR_PHASES {
                v.push((phase_metric(phase, c), "ms"));
            }
        }
        v.push((format!("core.unattributed_ms.{c}"), "ms"));
        v.push((format!("core.checks_computed.{c}"), "count"));
        v.push((format!("core.reuse_ratio.{c}"), "ratio"));
    }
    for (name, unit) in [
        ("core.rows", "count"),
        ("core.scenes_built", "count"),
        ("core.scenes_reused", "count"),
        ("xpu.bytes_uploaded", "bytes"),
        ("xpu.uploads_elided", "count"),
        ("xpu.kernels_launched", "count"),
        ("xpu.launches_fused", "count"),
        ("shard.checked", "count"),
        ("shard.built", "count"),
        ("shard.evicted", "count"),
        ("shard.degraded", "count"),
        ("checkpoint.bytes", "bytes"),
    ] {
        v.push((name.into(), unit));
    }
    for phase in HOST_UTIL {
        v.push((
            format!("infra.host_util.{}", phase.replace('-', "_")),
            "ratio",
        ));
    }
    v.push(("infra.host_steals".into(), "count"));
    v.push(("xpu.worker_wakeups".into(), "count"));
    v
}

fn phase_ms(it: &Iteration, phase: &str) -> f64 {
    it.phases
        .iter()
        .filter(|(n, _)| n == phase)
        .map(|(_, ms)| ms)
        .sum()
}

fn per_layer(its: &[Iteration], config: Config, rss_mb: f64, m: &mut Metrics) {
    let c = config.label();
    let med = |f: &dyn Fn(&Iteration) -> f64| median(&its.iter().map(f).collect::<Vec<_>>());
    m.set(format!("signoff.{c}_ms"), med(&|i| i.wall_ms));
    m.set(format!("signoff.{c}_peak_rss_mb"), rss_mb);
    m.set("gdsii.read_ms", med(&|i| i.read_ms));
    m.set("db.build_ms", med(&|i| i.build_ms));
    m.set(format!("core.check_ms.{c}"), med(&|i| i.check_ms));
    let phases: &[&str] = if config == Config::Par {
        &PAR_PHASES
    } else {
        &[]
    };
    for phase in PHASES.iter().chain(phases) {
        m.set(phase_metric(phase, c), med(&|i| phase_ms(i, phase)));
    }
    // Every recorded top-level phase counts as attributed, except
    // device-wait-wall: it re-measures kernel-wait as an interval union.
    m.set(
        format!("core.unattributed_ms.{c}"),
        med(&|i| {
            let attributed: f64 = i
                .phases
                .iter()
                .filter(|(n, _)| n != "device-wait-wall")
                .map(|(_, ms)| ms)
                .sum();
            i.check_ms - attributed
        }),
    );
    for phase in HOST_UTIL {
        m.set(
            format!("infra.host_util.{}", phase.replace('-', "_")),
            med(&|i| {
                i.host_util
                    .iter()
                    .find(|(n, _)| n == phase)
                    .map_or(0.0, |(_, u)| *u)
            }),
        );
    }
    m.set("infra.host_steals", med(&|i| i.stats.host_steals as f64));

    // Deterministic work counts: the first measured iteration's.
    let first = &its[0];
    let s = &first.stats;
    m.set("db.flat_polygons", first.flat_polygons as f64);
    m.set(
        format!("core.checks_computed.{c}"),
        s.checks_computed as f64,
    );
    m.set(
        format!("core.reuse_ratio.{c}"),
        s.checks_reused as f64 / (s.checks_computed + s.checks_reused).max(1) as f64,
    );
    match config {
        Config::Par => {
            m.set("core.rows", s.rows as f64);
            m.set("core.scenes_built", s.scenes_built as f64);
            m.set("core.scenes_reused", s.scenes_reused as f64);
            m.set("xpu.bytes_uploaded", s.bytes_uploaded as f64);
            m.set("xpu.uploads_elided", s.uploads_elided as f64);
            m.set("xpu.kernels_launched", first.kernels_launched as f64);
            m.set("xpu.launches_fused", s.launches_fused as f64);
            m.set(
                "xpu.worker_wakeups",
                med(&|i| i.stats.worker_wakeups as f64),
            );
        }
        Config::Ooc => {
            m.set("shard.checked", s.shards_checked as f64);
            m.set("shard.built", s.shards_built as f64);
            m.set("shard.evicted", s.shards_evicted as f64);
            m.set("shard.degraded", s.shards_degraded as f64);
            m.set("checkpoint.bytes", first.checkpoint_bytes as f64);
        }
        Config::Seq => {}
    }
}

fn walls(its: &[Iteration]) -> Vec<f64> {
    its.iter().map(|i| i.wall_ms).collect()
}

/// The measuring child: reads the GDSII set-up wrote, iterates, and
/// returns its report object (metrics, verdicts, spans).
///
/// With `trace`, the first half of the time runs untraced and the
/// second half traced; per-layer numbers come from the traced half
/// and the difference of the two medians is the tracing overhead.
///
/// # Errors
///
/// Fails on unreadable input or an engine run that did not finish.
pub fn child(
    work: &Path,
    config: Config,
    seconds: f64,
    trace: bool,
    epoch: Instant,
) -> Result<Value, String> {
    let gds = std::fs::read(work.join("layout.gds")).map_err(|e| format!("layout.gds: {e}"))?;
    let deck = util::deck()?;
    let mut off = Tracer::new(false, epoch, 0);
    let mut tr = Tracer::new(true, epoch, 0);
    let budget = if trace { seconds / 2.0 } else { seconds };
    // The first iteration warms the allocator and page cache; it is
    // verified but not timed.
    let mut untraced = run_for(&gds, &deck, config, work, budget, 3, &mut off)?;
    let mut verdicts: Vec<Verdict> = untraced.iter().map(|i| i.verdict).collect();
    let warm = untraced.remove(0);
    drop(warm);
    let w = walls(&untraced);
    let sample = Sample {
        ops: w.len(),
        busy_ms: w.iter().sum(),
        latencies_ms: w.clone(),
        rss_mb: util::peak_rss_mb(),
    };
    let rss_mb = sample.rss_mb;
    let mut m = Metrics::default();
    let mut spans = Vec::new();
    if trace {
        let traced = run_for(&gds, &deck, config, work, budget, 2, &mut tr)?;
        verdicts.extend(traced.iter().map(|i| i.verdict));
        per_layer(&traced, config, rss_mb, &mut m);
        m.set("trace.overhead_ms", median(&walls(&traced)) - median(&w));
        spans = tr.into_spans();
    } else {
        per_layer(&untraced, config, rss_mb, &mut m);
    }
    Ok(obj([
        ("sample", sample.to_json()),
        ("metrics", m.to_json()),
        (
            "verdicts",
            Value::Array(verdicts.iter().map(|v| v.to_json()).collect()),
        ),
        ("spans", spans_to_json(&spans)),
    ]))
}

/// Compares every iteration's verdict with the reference.
pub fn verify(reference: Verdict, child: &Value) -> (usize, usize) {
    let verdicts = child
        .get("verdicts")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    let failed = verdicts
        .iter()
        .filter(|v| Verdict::from_json(v) != Some(reference))
        .count();
    (verdicts.len(), failed)
}
