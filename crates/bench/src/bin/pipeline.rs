//! Benchmarks the planned check pipeline on a multi-rule deck: both
//! engine modes per design, with the parallel mode's speedup over the
//! sequential one. With `--json`, writes the machine-readable
//! `BENCH_pipeline.json` so the perf trajectory is tracked across PRs.
//!
//! `--scaling` instead sweeps the host executor's thread count
//! (1/2/4/max, deduplicated) over the sequential engine and
//! writes `BENCH_host.json` — the host-parallelism scaling table.
//!
//! `--gate <baseline.json>` re-measures the aes parallel configuration
//! against a committed `BENCH_pipeline.json` and exits nonzero on a
//! kernel-wait regression (>25% + 10ms grace), 2-thread host scaling
//! below 0.95x, or a peak-RSS regression beyond 1.5x the committed
//! per-design high-water mark (+64 MiB grace) — the CI perf/memory
//! gate.
//!
//! ```text
//! cargo run -p odrc-bench --release --bin pipeline -- \
//!     [--designs aes,jpeg] [--repeat N] [--host-threads N] [--json]
//! cargo run -p odrc-bench --release --bin pipeline -- \
//!     --scaling [--designs uart,aes] [--repeat N] [--json]
//! cargo run -p odrc-bench --release --bin pipeline -- \
//!     --gate BENCH_pipeline.json
//! ```

use std::time::Instant;

use odrc::{CheckReport, Engine, EngineOptions, Mode, RuleDeck};
use odrc_bench::{load_designs, pipeline_deck, BenchDesign};

struct RunResult {
    mode: &'static str,
    wall_ms: f64,
    report: Option<CheckReport>,
}

impl RunResult {
    fn report(&self) -> &CheckReport {
        self.report.as_ref().expect("configuration was run")
    }
}

fn engine(mode: Mode, host_threads: Option<usize>) -> Engine {
    let base = match mode {
        Mode::Sequential => Engine::sequential(),
        Mode::Parallel => Engine::parallel(),
    };
    base.with_options(EngineOptions {
        host_threads,
        ..EngineOptions::default()
    })
}

/// Runs every configuration `repeat` times in round-robin order —
/// interleaving cancels drift (thermal, allocator growth) that would
/// otherwise systematically penalize later configurations — and keeps
/// each configuration's minimum wall time, the noise-robust statistic
/// for a CPU-bound simulated device.
///
/// The report (stats, phase profile) is kept from the *same* repeat
/// that produced the minimum wall time. Keeping the last repeat's
/// report instead used to let cumulative phase times (kernel-wait
/// summed across concurrent waiters) drift out of agreement with the
/// recorded wall — the table would show phase totals exceeding wall_ms
/// taken from a different, faster run.
fn run_configs(
    design: &BenchDesign,
    deck: &RuleDeck,
    configs: &[Mode],
    repeat: usize,
    host_threads: Option<usize>,
) -> Vec<RunResult> {
    let mut results: Vec<RunResult> = configs
        .iter()
        .map(|&mode| RunResult {
            mode: match mode {
                Mode::Sequential => "sequential",
                Mode::Parallel => "parallel",
            },
            wall_ms: f64::INFINITY,
            report: None,
        })
        .collect();
    for _ in 0..repeat.max(1) {
        for (slot, &mode) in results.iter_mut().zip(configs) {
            let e = engine(mode, host_threads);
            let start = Instant::now();
            let r = e.check(&design.layout, deck);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            if wall_ms < slot.wall_ms {
                slot.wall_ms = wall_ms;
                slot.report = Some(r);
            }
        }
    }
    results
}

/// One host-thread-count measurement in the `--scaling` sweep.
struct ScaleRun {
    threads: usize,
    wall_ms: f64,
    report: Option<CheckReport>,
}

impl ScaleRun {
    fn report(&self) -> &CheckReport {
        self.report.as_ref().expect("configuration was run")
    }
}

/// The `--scaling` thread ladder: 1, 2, 4, and every core, deduplicated
/// (on small hosts the rungs collapse; the table is recorded anyway so
/// the scaling trajectory is comparable across machines).
fn scaling_ladder() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rungs = vec![1, 2, 4, max];
    rungs.sort_unstable();
    rungs.dedup();
    rungs
}

/// Sweeps the sequential engine over the thread ladder,
/// interleaved min-of-N like [`run_configs`].
fn run_scaling(
    design: &BenchDesign,
    deck: &RuleDeck,
    ladder: &[usize],
    repeat: usize,
) -> Vec<ScaleRun> {
    let mut results: Vec<ScaleRun> = ladder
        .iter()
        .map(|&threads| ScaleRun {
            threads,
            wall_ms: f64::INFINITY,
            report: None,
        })
        .collect();
    for _ in 0..repeat.max(1) {
        for slot in results.iter_mut() {
            let e = engine(Mode::Sequential, Some(slot.threads));
            let start = Instant::now();
            let r = e.check(&design.layout, deck);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            if wall_ms < slot.wall_ms {
                slot.wall_ms = wall_ms;
                slot.report = Some(r);
            }
        }
    }
    results
}

fn write_scaling_json(path: &str, results: &[(String, Vec<ScaleRun>)]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"host-scaling\",")?;
    writeln!(f, "  \"mode\": \"sequential\",")?;
    writeln!(f, "  \"designs\": [")?;
    for (di, (name, runs)) in results.iter().enumerate() {
        writeln!(f, "    {{")?;
        writeln!(f, "      \"name\": \"{name}\",")?;
        writeln!(f, "      \"runs\": [")?;
        let base = runs.first().map(|r| r.wall_ms).unwrap_or(f64::NAN);
        for (ri, r) in runs.iter().enumerate() {
            let s = &r.report().stats;
            writeln!(f, "        {{")?;
            writeln!(f, "          \"host_threads\": {},", r.threads)?;
            writeln!(f, "          \"wall_ms\": {:.3},", r.wall_ms)?;
            writeln!(
                f,
                "          \"violations\": {},",
                r.report().violations.len()
            )?;
            writeln!(f, "          \"host_tasks\": {},", s.host_tasks)?;
            writeln!(f, "          \"host_steals\": {},", s.host_steals)?;
            writeln!(f, "          \"speedup_vs_1\": {:.3}", base / r.wall_ms)?;
            writeln!(
                f,
                "        }}{}",
                if ri + 1 < runs.len() { "," } else { "" }
            )?;
        }
        writeln!(f, "      ]")?;
        writeln!(f, "    }}{}", if di + 1 < results.len() { "," } else { "" })?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}

fn write_json(
    path: &str,
    results: &[(String, Option<u64>, Vec<RunResult>)],
) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"pipeline\",")?;
    writeln!(f, "  \"designs\": [")?;
    for (di, (name, peak_rss, runs)) in results.iter().enumerate() {
        writeln!(f, "    {{")?;
        writeln!(f, "      \"name\": \"{name}\",")?;
        match peak_rss {
            Some(bytes) => writeln!(f, "      \"peak_rss_bytes\": {bytes},")?,
            None => writeln!(f, "      \"peak_rss_bytes\": null,")?,
        }
        writeln!(f, "      \"runs\": [")?;
        for (ri, r) in runs.iter().enumerate() {
            let s = &r.report().stats;
            writeln!(f, "        {{")?;
            writeln!(f, "          \"mode\": \"{}\",", r.mode)?;
            writeln!(f, "          \"wall_ms\": {:.3},", r.wall_ms)?;
            writeln!(
                f,
                "          \"violations\": {},",
                r.report().violations.len()
            )?;
            writeln!(f, "          \"checks_computed\": {},", s.checks_computed)?;
            writeln!(f, "          \"checks_reused\": {},", s.checks_reused)?;
            writeln!(f, "          \"rows\": {},", s.rows)?;
            writeln!(f, "          \"scenes_built\": {},", s.scenes_built)?;
            writeln!(f, "          \"scenes_reused\": {},", s.scenes_reused)?;
            writeln!(f, "          \"uploads_elided\": {},", s.uploads_elided)?;
            writeln!(f, "          \"bytes_uploaded\": {},", s.bytes_uploaded)?;
            writeln!(f, "          \"launches_fused\": {},", s.launches_fused)?;
            writeln!(f, "          \"graph_replays\": {},", s.graph_replays)?;
            writeln!(f, "          \"worker_wakeups\": {},", s.worker_wakeups)?;
            writeln!(f, "          \"degraded\": {},", s.degraded())?;
            writeln!(f, "          \"phases_ms\": {{")?;
            let phases = r.report().profile.phases();
            for (pi, (phase, d)) in phases.iter().enumerate() {
                writeln!(
                    f,
                    "            \"{}\": {:.3}{}",
                    phase,
                    d.as_secs_f64() * 1e3,
                    if pi + 1 < phases.len() { "," } else { "" }
                )?;
            }
            writeln!(f, "          }}")?;
            writeln!(
                f,
                "        }}{}",
                if ri + 1 < runs.len() { "," } else { "" }
            )?;
        }
        writeln!(f, "      ]")?;
        writeln!(f, "    }}{}", if di + 1 < results.len() { "," } else { "" })?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}

/// A baseline measurement scraped from a committed `BENCH_pipeline.json`:
/// one engine configuration of one design, with its kernel-wait phase.
struct BaselineRun {
    design: String,
    mode: String,
    /// `false` only for the `"planner": false` rows of files written
    /// while the engine still had a planner-off loop; those rows are
    /// never compared against.
    planned: bool,
    kernel_wait_ms: Option<f64>,
}

/// Scrapes `(design, mode, planned, kernel-wait)` tuples out of a
/// committed `BENCH_pipeline.json`. The file is written by this binary
/// with one key per line, so a line-oriented scan is exact — no JSON
/// dependency needed (the workspace dependency list is fixed).
fn scan_baseline(path: &str) -> (Vec<BaselineRun>, std::collections::HashMap<String, u64>) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("gate baseline '{path}' unreadable: {e}"));
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = line.trim().strip_prefix(&format!("\"{key}\": "))?;
        Some(rest.trim_end_matches(',').trim_matches('"').to_owned())
    };
    let mut out: Vec<BaselineRun> = Vec::new();
    let mut peaks: std::collections::HashMap<String, u64> = Default::default();
    let mut design = String::new();
    for line in text.lines() {
        if let Some(v) = field(line, "name") {
            design = v;
        } else if let Some(v) = field(line, "peak_rss_bytes") {
            if let Ok(bytes) = v.parse() {
                peaks.insert(design.clone(), bytes);
            }
        } else if let Some(v) = field(line, "mode") {
            out.push(BaselineRun {
                design: design.clone(),
                mode: v,
                planned: true,
                kernel_wait_ms: None,
            });
        } else if let Some(v) = field(line, "planner") {
            if let Some(last) = out.last_mut() {
                last.planned = v == "true";
            }
        } else if let Some(v) = field(line, "kernel-wait") {
            if let Some(last) = out.last_mut() {
                last.kernel_wait_ms = v.parse().ok();
            }
        }
    }
    (out, peaks)
}

/// Pulls a named phase (milliseconds) out of a run's profile.
fn phase_ms(report: &CheckReport, phase: &str) -> Option<f64> {
    report
        .profile
        .phases()
        .iter()
        .find(|(p, _)| p == phase)
        .map(|(_, d)| d.as_secs_f64() * 1e3)
}

/// The CI perf gate (`--gate <baseline.json>`): re-measures the aes
/// parallel configuration and fails (exit 1) if kernel-wait regressed
/// more than 25% past the committed baseline, or if running the
/// sequential engine with two host threads costs more than 5%
/// over one thread (adaptive granularity must keep small hosts at
/// parity). A 10ms absolute grace keeps sub-noise baselines from
/// tripping the ratio.
fn run_gate(baseline_path: &str, deck: &RuleDeck, repeat: usize) -> bool {
    let (baseline, baseline_peaks) = scan_baseline(baseline_path);
    let design = load_designs(Some("aes"))
        .into_iter()
        .next()
        .expect("aes design exists");
    let mut ok = true;

    println!("=== Perf gate vs {baseline_path} ===");
    odrc_infra::reset_peak_rss();
    let runs = run_configs(&design, deck, &[Mode::Parallel], repeat, None);
    let fresh_peak = odrc_infra::peak_rss_bytes();
    for r in &runs {
        let base = baseline
            .iter()
            .find(|b| b.design == "aes" && b.mode == "parallel" && b.planned)
            .and_then(|b| b.kernel_wait_ms);
        let fresh = phase_ms(r.report(), "kernel-wait").unwrap_or(0.0);
        let label = "aes parallel";
        match base {
            Some(base) => {
                let limit = base * 1.25 + 10.0;
                let pass = fresh <= limit;
                ok &= pass;
                println!(
                    "{}: kernel-wait {:.1}ms vs baseline {:.1}ms (limit {:.1}ms) .. {}",
                    label,
                    fresh,
                    base,
                    limit,
                    if pass { "ok" } else { "REGRESSED" }
                );
            }
            None => {
                ok = false;
                println!("{label}: baseline has no kernel-wait entry .. FAIL");
            }
        }
    }

    // Memory gate: the checking phase's high-water mark (HWM reset just
    // before the runs) must stay within 1.5x of the committed aes peak,
    // with a 64 MiB absolute grace so allocator jitter on small designs
    // cannot trip the ratio. Missing data (old baseline, or a platform
    // without procfs) skips the comparison rather than failing.
    match (baseline_peaks.get("aes"), fresh_peak) {
        (Some(&base), Some(fresh)) => {
            let limit = base + base / 2 + (64 << 20);
            let pass = fresh <= limit;
            ok &= pass;
            println!(
                "aes peak-RSS {:.1} MiB vs baseline {:.1} MiB (limit {:.1} MiB) .. {}",
                fresh as f64 / (1 << 20) as f64,
                base as f64 / (1 << 20) as f64,
                limit as f64 / (1 << 20) as f64,
                if pass { "ok" } else { "REGRESSED" }
            );
        }
        (None, _) => println!("aes peak-RSS: baseline has no entry .. skipped (regenerate)"),
        (_, None) => println!("aes peak-RSS: platform exposes no HWM .. skipped"),
    }

    let scale = run_scaling(&design, deck, &[1, 2], repeat);
    let ratio = scale[0].wall_ms / scale[1].wall_ms;
    let pass = ratio >= 0.95;
    ok &= pass;
    println!(
        "aes seq host scaling 1t {:.1}ms / 2t {:.1}ms = {:.2}x .. {}",
        scale[0].wall_ms,
        scale[1].wall_ms,
        ratio,
        if pass { "ok" } else { "BELOW 0.95x" }
    );

    println!("perf gate: {}", if ok { "PASS" } else { "FAIL" });
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut designs: Option<String> = None;
    let mut repeat = 1usize;
    let mut json = false;
    let mut scaling = false;
    let mut gate: Option<String> = None;
    let mut host_threads: Option<usize> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--designs" if i + 1 < args.len() => {
                designs = Some(args[i + 1].clone());
                i += 2;
            }
            "--gate" if i + 1 < args.len() => {
                gate = Some(args[i + 1].clone());
                i += 2;
            }
            "--repeat" if i + 1 < args.len() => {
                repeat = args[i + 1].parse().unwrap_or(1).max(1);
                i += 2;
            }
            "--host-threads" if i + 1 < args.len() => {
                host_threads = Some(args[i + 1].parse().unwrap_or(1).max(1));
                i += 2;
            }
            "--scaling" => {
                scaling = true;
                i += 1;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            other => {
                eprintln!("ignoring unknown argument '{other}'");
                i += 1;
            }
        }
    }
    // The scaling sweep defaults to the small/medium pair so the table
    // stays cheap enough to regenerate every PR.
    let designs =
        designs.unwrap_or_else(|| if scaling { "uart,aes" } else { "aes,jpeg" }.to_owned());

    let deck = pipeline_deck();

    if let Some(baseline) = gate {
        let ok = run_gate(&baseline, &deck, repeat.max(3));
        std::process::exit(if ok { 0 } else { 1 });
    }

    if scaling {
        let ladder = scaling_ladder();
        println!(
            "\n=== Host executor scaling: sequential, {}-rule deck ===",
            deck.rules().len()
        );
        println!(
            "{:<10} {:>7} {:>8} {:>10} {:>10} {:>8} {:>9}",
            "design", "threads", "wall_ms", "#viol", "tasks", "steals", "speedup"
        );
        let mut results: Vec<(String, Vec<ScaleRun>)> = Vec::new();
        for design in load_designs(Some(&designs)) {
            let runs = run_scaling(&design, &deck, &ladder, repeat);
            for r in &runs {
                // Every thread count must agree exactly with threads=1.
                assert_eq!(
                    runs[0].report().violations,
                    r.report().violations,
                    "host_threads={} changed the violation set on {}",
                    r.threads,
                    design.name
                );
                let s = &r.report().stats;
                println!(
                    "{:<10} {:>7} {:>8.1} {:>10} {:>10} {:>8} {:>8.2}x",
                    design.name,
                    r.threads,
                    r.wall_ms,
                    r.report().violations.len(),
                    s.host_tasks,
                    s.host_steals,
                    runs[0].wall_ms / r.wall_ms,
                );
            }
            results.push((design.name.clone(), runs));
        }
        if json {
            let path = "BENCH_host.json";
            write_scaling_json(path, &results).expect("write BENCH_host.json");
            println!("\nwrote {path}");
        }
        return;
    }
    let configs = [Mode::Sequential, Mode::Parallel];

    println!(
        "\n=== Check pipeline: {}-rule deck, sequential vs parallel ===",
        deck.rules().len()
    );
    println!(
        "{:<10} {:<12} {:>8} {:>10} {:>7} {:>7} {:>7} {:>7} {:>12} {:>7}",
        "design",
        "config",
        "wall_ms",
        "#viol",
        "scn+",
        "scn=",
        "rows",
        "elide",
        "bytes_up",
        "speedup"
    );

    let mut results: Vec<(String, Option<u64>, Vec<RunResult>)> = Vec::new();
    for design in load_designs(Some(&designs)) {
        // Per-design checking-phase high-water mark: the HWM is reset
        // (where the platform allows) before the configurations run, so
        // the recorded peak covers this design's checks, not whatever
        // the process touched earlier.
        odrc_infra::reset_peak_rss();
        let runs = run_configs(&design, &deck, &configs, repeat, host_threads);
        let peak_rss = odrc_infra::peak_rss_bytes();
        for r in &runs {
            // Both modes must agree exactly.
            assert_eq!(
                runs[0].report().violations,
                r.report().violations,
                "parallel mode changed the violation set on {}",
                design.name
            );
            // Parallel rows show their speedup over sequential.
            let speedup = (r.mode == "parallel").then(|| runs[0].wall_ms / r.wall_ms);
            let s = &r.report().stats;
            println!(
                "{:<10} {:<12} {:>8.1} {:>10} {:>7} {:>7} {:>7} {:>7} {:>12} {:>7}",
                design.name,
                if r.mode == "sequential" { "seq" } else { "par" },
                r.wall_ms,
                r.report().violations.len(),
                s.scenes_built,
                s.scenes_reused,
                s.rows,
                s.uploads_elided,
                s.bytes_uploaded,
                speedup
                    .map(|s| format!("{s:.2}x"))
                    .unwrap_or_else(|| "-".to_owned()),
            );
        }
        if let Some(bytes) = peak_rss {
            println!(
                "{:<10} peak-RSS {:.1} MiB",
                design.name,
                bytes as f64 / (1 << 20) as f64
            );
        }
        results.push((design.name.clone(), peak_rss, runs));
    }

    if json {
        let path = "BENCH_pipeline.json";
        write_json(path, &results).expect("write BENCH_pipeline.json");
        println!("\nwrote {path}");
    }
}
