//! Small-design runs of every workload: verdicts match the reference,
//! deterministic work counts repeat exactly between runs, and
//! `BENCHMARK.json` lists exactly the metrics the benchmark reports.

use std::path::{Path, PathBuf};
use std::time::Instant;

use odrc_perfbench::trace::Tracer;
use odrc_perfbench::util::{self, Metrics};
use odrc_perfbench::{editloop, per_layer_metrics, serve_mixed, signoff, END_TO_END, WORKLOADS};
use odrc_serve::json::{self, Value};

/// Deterministic counts, per the benchmark's documentation. Scheduler
/// telemetry (`infra.host_steals`, `xpu.worker_wakeups`) is excluded:
/// it varies between identical runs.
const DETERMINISTIC: [&str; 23] = [
    "db.flat_polygons",
    "core.checks_computed.seq",
    "core.checks_computed.par",
    "core.checks_computed.ooc",
    "core.rows",
    "core.scenes_built",
    "core.scenes_reused",
    "xpu.bytes_uploaded",
    "xpu.uploads_elided",
    "shard.checked",
    "shard.built",
    "shard.evicted",
    "shard.degraded",
    "checkpoint.bytes",
    "delta.dirty_rects.route",
    "delta.dirty_rects.cell",
    "incremental.checks_computed.route",
    "incremental.checks_computed.cell",
    "cache.reuse_ratio.route",
    "cache.reuse_ratio.cell",
    "core.reuse_ratio.seq",
    "core.reuse_ratio.par",
    "core.reuse_ratio.ooc",
];

fn work_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

fn metrics(report: &Value) -> Metrics {
    Metrics::from_json(report.get("metrics").expect("report has metrics"))
}

fn deterministic(m: &Metrics) -> Vec<(&'static str, f64)> {
    DETERMINISTIC
        .iter()
        .filter_map(|&n| m.get(n).map(|v| (n, v)))
        .collect()
}

#[test]
fn signoff_counts_repeat_and_verdicts_match() {
    let deck = util::deck().expect("deck");
    let size = signoff::Size {
        design: "uart",
        scale: 1,
    };
    let p =
        signoff::setup(size, 3, &deck, &mut Tracer::new(false, Instant::now(), 0)).expect("setup");
    let work = work_dir("signoff");
    std::fs::write(work.join("layout.gds"), &p.gds).expect("write");
    for config in ["seq", "par", "ooc"] {
        let config = signoff::Config::parse(config).expect("config");
        let run = || {
            let r = signoff::child(&work, config, 0.05, false, Instant::now()).expect("child");
            let (attempted, failed) = signoff::verify(p.reference, &r);
            assert!(attempted >= 3);
            assert_eq!(failed, 0, "{config:?} verdicts differ from the reference");
            deterministic(&metrics(&r))
        };
        let first = run();
        assert!(!first.is_empty());
        assert_eq!(first, run(), "{config:?} counts differ between runs");
    }
}

#[test]
fn edit_loop_counts_repeat_and_verdicts_match() {
    let deck = util::deck().expect("deck");
    let p = editloop::setup("uart", 5, &deck, &mut Tracer::new(false, Instant::now(), 0))
        .expect("setup");
    let work = work_dir("edit-loop");
    std::fs::write(work.join("layout.gds"), &p.gds).expect("write");
    let run = || {
        let r = editloop::child(&work, 5, 0.05, false, Instant::now()).expect("child");
        let (attempted, failed) = editloop::verify(&p, 5, &deck, &r).expect("verify");
        assert!(attempted >= editloop::MIN_CYCLES * editloop::CYCLE);
        assert_eq!(failed, 0, "session verdicts differ from the reference");
        deterministic(&metrics(&r))
    };
    let first = run();
    assert_eq!(first.len(), 6);
    assert_eq!(first, run());
}

#[test]
fn serve_mixed_verdicts_match() {
    let deck = util::deck().expect("deck");
    let p = serve_mixed::setup(
        &["uart"],
        7,
        &deck,
        &mut Tracer::new(false, Instant::now(), 0),
    )
    .expect("setup");
    let work = work_dir("serve-mixed");
    for (i, gds) in p.gds.iter().enumerate() {
        std::fs::write(work.join(format!("layout{i}.gds")), gds).expect("write");
    }
    let batches = Value::Array(
        p.batches
            .iter()
            .map(|ops| Value::Array(ops.iter().map(odrc_serve::wire::edit_op_to_json).collect()))
            .collect(),
    );
    std::fs::write(work.join("batches.json"), batches.to_json()).expect("write");
    let reference = serve_mixed::reference_check_ms(&p, &deck).expect("reference");
    let r = serve_mixed::child(&work, 0.05, true, Instant::now()).expect("child");
    let (attempted, failed, _) = serve_mixed::verify(&p, &reference, &r);
    assert!(attempted > 0);
    assert_eq!(failed, 0, "job verdicts differ from the reference");
    let spans = r.get("spans").and_then(Value::as_array).expect("spans");
    assert!(!spans.is_empty(), "the traced half records spans");
}

/// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
        v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    assert_eq!(
        listed(&doc, "end_to_end"),
        own(END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect())
    );
    assert_eq!(listed(&doc, "per_layer"), own(per_layer_metrics()));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
