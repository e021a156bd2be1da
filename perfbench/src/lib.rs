//! The OpenDRC checker's benchmark: three workloads, each measured end
//! to end in child processes and checked against the flat baseline
//! checker. See `perfbench/README.md` for the workloads, the metrics and
//! how to read a traced run.

pub mod editloop;
pub mod serve_mixed;
pub mod signoff;
pub mod trace;
pub mod util;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use odrc_serve::json::{self, obj, Value};

use crate::signoff::Config;
use crate::trace::{Lane, Tracer};
use crate::util::{median, Metrics};

/// The workloads `--workload` accepts.
pub const WORKLOADS: [&str; 3] = ["signoff", "edit-loop", "serve-mixed"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The measuring children of a run, in order, each given an equal share
/// of `--seconds`. A `signoff` child runs one engine configuration, so
/// each configuration's peak resident set is its own; the untraced run
/// visits the configurations twice, interleaved, so a slow period on a
/// shared host does not land on one configuration. The other workloads
/// split an untraced run over two children, which pools operations from
/// two processes. A traced run uses one child per configuration.
pub fn child_plan(workload: &str, trace: bool) -> Vec<&'static str> {
    match (workload, trace) {
        ("signoff", false) => vec!["seq", "par", "ooc", "seq", "par", "ooc"],
        ("signoff", true) => vec!["seq", "par", "ooc"],
        (_, false) => vec!["", ""],
        (_, true) => vec![""],
    }
}

/// End-to-end metrics every workload reports, with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Spans the traced run records, each reported as per-operation self
/// time `trace.self_ms.<span>`.
pub const SPANS: [&str; 13] = [
    "signoff.iteration",
    "gdsii.read",
    "db.from_library",
    "core.check",
    "edit.route",
    "edit.cell",
    "incremental.apply",
    "incremental.check",
    "serve.session",
    "serve.open",
    "serve.job",
    "serve.edit",
    "serve.close",
];

/// Per-layer metrics every traced run reports, with units. A layer a
/// workload does not drive reports 0 there.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut v = signoff::metric_names();
    for class in ["route", "cell"] {
        v.push((format!("incremental.apply_us.{class}"), "us"));
        v.push((format!("incremental.check_ms.{class}"), "ms"));
        v.push((format!("delta.dirty_rects.{class}"), "count"));
        v.push((format!("incremental.checks_computed.{class}"), "count"));
        v.push((format!("cache.reuse_ratio.{class}"), "ratio"));
    }
    for (name, unit) in [
        ("edit.cell_p50_ms", "ms"),
        ("core.full_check_ms", "ms"),
        ("serve.open_ms", "ms"),
        ("serve.queue_wait_ms", "ms"),
        ("serve.overhead_ms", "ms"),
        ("serve.cache_hits_shared", "count"),
        ("serve.jobs_shed", "count"),
        ("serve.jobs_rejected", "count"),
        ("trace.overhead_ms", "ms"),
    ] {
        v.push((name.into(), unit));
    }
    for span in SPANS {
        v.push((format!("trace.self_ms.{span}"), "ms"));
    }
    v
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set in the measuring child: the directory set-up wrote.
    pub child_work: Option<PathBuf>,
    /// Set in a `signoff` measuring child: the engine configuration.
    pub child_config: String,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// Describes the first bad or missing argument.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            child_work: None,
            child_config: String::new(),
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?.clone(),
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--child-work" => args.child_work = Some(PathBuf::from(value()?)),
                "--child-config" => args.child_config = value()?.clone(),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        if !args.seconds.is_finite() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        Ok(args)
    }
}

/// The measuring child: runs the workload's timed loop over the inputs
/// in `work` and returns its report object.
///
/// # Errors
///
/// Forwards the workload's error.
pub fn child(args: &Args, work: &Path, epoch: Instant) -> Result<Value, String> {
    match args.workload.as_str() {
        "edit-loop" => editloop::child(work, args.seed, args.seconds, args.trace, epoch),
        "serve-mixed" => serve_mixed::child(work, args.seconds, args.trace, epoch),
        _ => {
            let config = Config::parse(&args.child_config)
                .ok_or(format!("unknown configuration '{}'", args.child_config))?;
            signoff::child(work, config, args.seconds, args.trace, epoch)
        }
    }
}

/// A finished run: what the last line of output reports.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    pub trace_file: Option<PathBuf>,
}

/// Set-up output, per workload.
enum Prepared {
    Signoff(signoff::Prepared),
    Edit(editloop::Prepared),
    Serve(serve_mixed::Prepared),
}

fn setup_once(
    workload: &str,
    seed: u64,
    deck: &odrc::RuleDeck,
    tr: &mut Tracer,
) -> Result<Prepared, String> {
    Ok(match workload {
        "edit-loop" => Prepared::Edit(editloop::setup(editloop::FULL_DESIGN, seed, deck, tr)?),
        "serve-mixed" => {
            Prepared::Serve(serve_mixed::setup(&serve_mixed::DESIGNS, seed, deck, tr)?)
        }
        _ => Prepared::Signoff(signoff::setup(signoff::FULL, seed, deck, tr)?),
    })
}

fn write_inputs(p: &Prepared, work: &Path) -> Result<(), String> {
    let write = |name: &str, bytes: &[u8]| {
        std::fs::write(work.join(name), bytes).map_err(|e| format!("writing {name}: {e}"))
    };
    match p {
        Prepared::Signoff(s) => write("layout.gds", &s.gds),
        Prepared::Edit(e) => write("layout.gds", &e.gds),
        Prepared::Serve(s) => {
            for (i, gds) in s.gds.iter().enumerate() {
                write(&format!("layout{i}.gds"), gds)?;
            }
            let batches = Value::Array(
                s.batches
                    .iter()
                    .map(|ops| {
                        Value::Array(ops.iter().map(odrc_serve::wire::edit_op_to_json).collect())
                    })
                    .collect(),
            );
            write("batches.json", batches.to_json().as_bytes())
        }
    }
}

/// Digests of set-up's outputs, to prove repeated set-ups agree.
fn fingerprint(p: &Prepared) -> Vec<u64> {
    match p {
        Prepared::Signoff(s) => vec![odrc_infra::fnv1a64(&s.gds), s.reference.digest],
        Prepared::Edit(e) => vec![odrc_infra::fnv1a64(&e.gds), e.reference.digest],
        Prepared::Serve(s) => s
            .gds
            .iter()
            .map(|g| odrc_infra::fnv1a64(g))
            .chain(s.reference.iter().flat_map(|r| r.iter().map(|v| v.digest)))
            .collect(),
    }
}

fn spawn_child(args: &Args, work: &Path, config: &str, seconds: f64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
            "--child-config",
            config,
            "--child-work",
        ])
        .arg(work)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the measuring child: {e}"))?;
    if !out.status.success() {
        return Err(format!("measuring child failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    json::parse(last).map_err(|e| format!("child report: {e}"))
}

/// The parent: set-up (timed, [`SETUP_REPS`] times), the measuring
/// children of [`child_plan`], verification against the reference
/// verdicts.
///
/// # Errors
///
/// Fails when set-up, the child or verification cannot complete; a
/// wrong verdict is not an error but a failed operation.
pub fn parent(args: &Args, root: &Path, facts: &[(String, String)]) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let deck = util::deck()?;
    let work = root
        .join(".bench_work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let result = measure(args, root, facts, &deck, &work, epoch);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn measure(
    args: &Args,
    root: &Path,
    facts: &[(String, String)],
    deck: &odrc::RuleDeck,
    work: &Path,
    epoch: Instant,
) -> Result<Outcome, String> {
    let mut tr = Tracer::new(args.trace, epoch, 0);
    let mut setup_s = Vec::new();
    let mut prepared = None;
    let mut first_fp = None;
    for rep in 0..SETUP_REPS {
        tr.begin("setup", rep as u64);
        let t = Instant::now();
        let p = setup_once(&args.workload, args.seed, deck, &mut tr)?;
        setup_s.push(t.elapsed().as_secs_f64());
        tr.end();
        let fp = fingerprint(&p);
        if first_fp.get_or_insert_with(|| fp.clone()) != &fp {
            return Err("repeated set-ups produced different inputs".to_string());
        }
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up ran");
    write_inputs(&prepared, work)?;
    let serve_ref = match &prepared {
        Prepared::Serve(s) => Some(serve_mixed::reference_check_ms(s, deck)?),
        _ => None,
    };

    let plan = child_plan(&args.workload, args.trace);
    let mut samples = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut per_child: Vec<(String, f64)> = Vec::new();
    let mut lanes = vec![Lane {
        pid: 1,
        label: format!("perfbench {} set-up", args.workload),
        spans: Vec::new(),
    }];
    for (i, config) in plan.iter().enumerate() {
        let spawned_us = epoch.elapsed().as_secs_f64() * 1e6;
        let report = spawn_child(args, work, config, args.seconds / plan.len() as f64)?;
        samples.push((
            *config,
            report
                .get("sample")
                .and_then(util::Sample::from_json)
                .ok_or("child report has no sample")?,
        ));
        per_child.extend(Metrics::from_json(report.get("metrics").unwrap_or(&Value::Null)).0);
        lanes.push(Lane {
            pid: i as u64 + 2,
            label: format!("perfbench {} measurement {config}", args.workload),
            spans: trace::spans_from_json(report.get("spans").unwrap_or(&Value::Null), spawned_us),
        });
        let (a, f) = match &prepared {
            Prepared::Signoff(s) => signoff::verify(s.reference, &report),
            Prepared::Edit(e) => editloop::verify(e, args.seed, deck, &report)?,
            Prepared::Serve(s) => {
                let (a, f, overhead) =
                    serve_mixed::verify(s, serve_ref.as_deref().unwrap_or(&[]), &report);
                per_child.push(("serve.overhead_ms".to_string(), overhead));
                (a, f)
            }
        };
        attempted += a;
        failed += f;
    }
    // A per-layer metric several children report is their median.
    let mut metrics = Metrics::default();
    for (name, _) in &per_child {
        if metrics.get(name).is_none() {
            let values: Vec<f64> = per_child
                .iter()
                .filter(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .collect();
            metrics.set(name.clone(), median(&values));
        }
    }
    for (name, v) in util::end_to_end(&samples).0 {
        metrics.set(name, v);
    }
    metrics.set("setup_s", median(&setup_s));

    let mut trace_file = None;
    if args.trace {
        // Parent indices are per lane, so self time is too.
        let ops = lanes
            .iter()
            .map(|l| trace::top_level(&l.spans))
            .sum::<usize>()
            .max(1) as f64;
        let mut self_us = std::collections::BTreeMap::new();
        for lane in &lanes {
            for (name, us) in trace::self_times_us(&lane.spans) {
                *self_us.entry(name).or_insert(0.0) += us;
            }
        }
        for (name, us) in self_us {
            metrics.set(format!("trace.self_ms.{name}"), us / 1e3 / ops);
        }
        lanes[0].spans = tr.into_spans();
        let dir = root.join(".bench_trace");
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
        std::fs::write(&path, trace::chrome_json(&lanes, facts))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        trace_file = Some(path);
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        trace_file,
    })
}

/// The result line: `correct`, `attempted`, `failed` and the selected
/// metrics with units. Absent or non-finite values report 0.
pub fn result_json(outcome: &Outcome, selected: &[(String, &str)]) -> String {
    let metrics = selected
        .iter()
        .map(|(name, unit)| {
            let v = outcome
                .metrics
                .get(name)
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            (
                name.clone(),
                obj([("value", Value::from(v)), ("unit", Value::from(*unit))]),
            )
        })
        .collect();
    obj([
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::from(outcome.attempted)),
        ("failed", Value::from(outcome.failed)),
        ("metrics", Value::Object(metrics)),
    ])
    .to_json()
}
