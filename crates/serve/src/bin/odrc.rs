//! The `odrc` command-line checker.
//!
//! ```text
//! odrc <layout.gds> --rules <deck.rules> [--parallel] [--max-print N]
//!      [--cache <dir>] [--stats-json <file>] [--report out.csv]
//!      [--markers out.gds] [--device-budget BYTES] [--fault-seed N]
//!      [--host-threads N] [--deadline SECS] [--checkpoint-dir <dir>]
//!      [--resume <dir>] [--watchdog-ms N]
//! odrc diff <old.gds> <new.gds> --rules <deck.rules> [--parallel]
//!      [--cache <dir>] [--max-print N] [--host-threads N]
//! odrc serve [--addr HOST:PORT] [--workers N] [--host-threads N]
//!      [--max-queue N] [--cache <dir>] [--device-budget BYTES]
//!      [--port-file <path>]
//! odrc client <layout.gds> --rules <deck.rules> --addr HOST:PORT
//!      [--parallel] [--priority N] [--deadline-ms N] [--edits ops.jsonl]
//!      [--report out.csv] [--stats-json out.json] [--max-print N]
//!      [--shutdown]
//! ```
//!
//! The default mode reads a GDSII layout and a plain-text rule deck
//! (see [`odrc::parse_deck`] for the format), runs the checks, prints
//! the violations and the phase breakdown, and exits non-zero when
//! violations were found. `--cache <dir>` keeps the per-cell result
//! memo in `<dir>/odrc-cache.bin` across runs, so a warm invocation
//! skips every cell whose content did not change.
//!
//! `odrc diff` checks `old.gds`, delta-checks `new.gds` against it,
//! and prints the violations the edit added and removed. It exits 0
//! when the edit added no violations, non-zero otherwise.
//!
//! `odrc serve` runs the multi-tenant check daemon (see
//! [`odrc_serve::server`]): clients open edit sessions, stream edits,
//! and submit concurrent check jobs that share one host-thread budget
//! and one result-cache tier. `odrc client` is the matching
//! command-line front end; its exit code follows the same 0–4 table
//! below, taken verbatim from the job's `done` event, so scripts
//! cannot tell the two front ends apart. SIGTERM drains the daemon
//! gracefully: running jobs finish and deliver, then the shared cache
//! tier is persisted.
//!
//! # Run lifecycle
//!
//! A check can be stopped cooperatively — SIGINT/SIGTERM (Ctrl-C), or
//! a `--deadline SECS` wall-clock budget. The engine stops issuing new
//! rules at the next rule boundary, drains in-flight device work, and
//! exits cleanly with code 4: `--stats-json` is still written
//! (atomically), the per-rule completion status is reported, and —
//! with `--checkpoint-dir <dir>` — every rule that *did* finish is
//! already journaled in `<dir>/odrc-journal.bin`. A follow-up
//! `odrc --resume <dir>` restores those rules without re-checking them
//! and runs only what is missing; the final violation set is
//! byte-identical to an uninterrupted run. `--watchdog-ms N` (parallel
//! mode) arms a per-operation stream watchdog so a genuinely wedged
//! device op surfaces as a stream timeout and flows through the normal
//! retry/fallback machinery instead of hanging the run.
//!
//! # Exit codes
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | clean: no violations, no degradation |
//! | 1    | violations found (the check itself completed) |
//! | 2    | hard error: bad usage, unreadable layout/deck, I/O failure |
//! | 3    | degraded but complete: no violations, but some device work |
//! |      | was retried or recomputed on the host (see `--fault-seed`) |
//! | 4    | interrupted: signal or deadline stopped the run before all |
//! |      | rules finished (checkpoint saved if `--checkpoint-dir`)    |
//!
//! Violations take precedence over degradation: a degraded run that
//! found violations exits 1 (the summary still reports the retries).
//! Interruption takes precedence over both — a partial result is not a
//! verdict.
//!
//! # Fault injection
//!
//! `--fault-seed N` (parallel mode) installs a deterministic fault
//! schedule derived from seed `N` on the simulated device — injected
//! OOMs, kernel panics, transfer failures, and stream stalls — to
//! exercise the retry/fallback machinery reproducibly. `--device-budget
//! BYTES` bounds the stream-ordered allocator, making genuine OOM
//! degradation observable on real layouts.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use odrc::{
    parse_deck, CheckReport, CheckpointJournal, Engine, ResultCache, RuleDeck, RunKey, CACHE_FILE,
};
use odrc_db::Layout;
use odrc_infra::{install_signal_handlers, CancelToken};
use odrc_xpu::{Device, FaultPlan};

/// Faults drawn from `--fault-seed` (kept fixed so a seed alone
/// reproduces the schedule).
const FAULTS_PER_SEED: usize = 8;

struct Args {
    layout: String,
    old_layout: Option<String>,
    rules: String,
    parallel: bool,
    max_print: usize,
    report: Option<String>,
    markers: Option<String>,
    cache: Option<String>,
    stats_json: Option<String>,
    fault_seed: Option<u64>,
    device_budget: Option<usize>,
    host_threads: Option<usize>,
    deadline_secs: Option<f64>,
    checkpoint_dir: Option<String>,
    resume: bool,
    watchdog_ms: Option<u64>,
    memory_budget: Option<u64>,
    shard_rows: Option<usize>,
    out_of_core: bool,
    shard_workers: Option<usize>,
    /// Hidden: this process is shard worker `w` of `n` (spawned by the
    /// parent's `--shard-workers`).
    worker_slice: Option<(usize, usize)>,
    /// Hidden chaos switch: abort after the Nth shard is journaled.
    chaos_kill_at_shard: Option<u64>,
}

/// What a completed run reports back to `main` for the exit code.
struct Outcome {
    violations: usize,
    degraded: bool,
    interrupted: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: odrc <layout.gds> --rules <deck.rules> [--parallel] [--max-print N] \
         [--cache dir] [--stats-json out.json] [--report out.csv] [--markers out.gds] \
         [--device-budget BYTES] [--fault-seed N] [--host-threads N] [--deadline SECS] \
         [--checkpoint-dir dir] [--resume dir] [--watchdog-ms N] \
         [--out-of-core] [--memory-budget BYTES] [--shard-rows N] [--shard-workers N]\n\
         \u{20}      odrc diff <old.gds> <new.gds> --rules <deck.rules> [--parallel] \
         [--cache dir] [--max-print N] [--host-threads N]\n\
         \u{20}      odrc serve [--addr HOST:PORT] [--workers N] [--host-threads N] \
         [--max-queue N] [--cache dir] [--device-budget BYTES] [--port-file path]\n\
         \u{20}      odrc client <layout.gds> --rules <deck.rules> --addr HOST:PORT \
         [--parallel] [--priority N] [--deadline-ms N] [--edits ops.jsonl] \
         [--report out.csv] [--stats-json out.json] [--max-print N] [--shutdown]\n\
         exit codes: 0 clean, 1 violations found, 2 hard error, 3 degraded but clean, \
         4 interrupted (signal or deadline; checkpoint saved if --checkpoint-dir)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut positional: Vec<String> = Vec::new();
    let mut rules = None;
    let mut parallel = false;
    let mut max_print = 20usize;
    let mut report = None;
    let mut markers = None;
    let mut cache = None;
    let mut stats_json = None;
    let mut fault_seed = None;
    let mut device_budget = None;
    let mut host_threads = None;
    let mut deadline_secs = None;
    let mut checkpoint_dir = None;
    let mut resume = false;
    let mut watchdog_ms = None;
    let mut memory_budget = None;
    let mut shard_rows = None;
    let mut out_of_core = false;
    let mut shard_workers = None;
    let mut worker_slice = None;
    let mut chaos_kill_at_shard = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let diff_mode = argv.first().is_some_and(|a| a == "diff");
    let mut i = usize::from(diff_mode);
    while i < argv.len() {
        match argv[i].as_str() {
            "--rules" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                rules = Some(argv[i + 1].clone());
                i += 2;
            }
            "--parallel" => {
                parallel = true;
                i += 1;
            }
            "--report" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                report = Some(argv[i + 1].clone());
                i += 2;
            }
            "--markers" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                markers = Some(argv[i + 1].clone());
                i += 2;
            }
            "--cache" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                cache = Some(argv[i + 1].clone());
                i += 2;
            }
            "--stats-json" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                stats_json = Some(argv[i + 1].clone());
                i += 2;
            }
            "--max-print" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                max_print = argv[i + 1].parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--fault-seed" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                fault_seed = Some(argv[i + 1].parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--device-budget" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                device_budget = Some(argv[i + 1].parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--host-threads" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                let n: usize = argv[i + 1].parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    usage();
                }
                host_threads = Some(n);
                i += 2;
            }
            "--deadline" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                let secs: f64 = argv[i + 1].parse().unwrap_or_else(|_| usage());
                if !secs.is_finite() || secs < 0.0 {
                    usage();
                }
                deadline_secs = Some(secs);
                i += 2;
            }
            "--checkpoint-dir" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                checkpoint_dir = Some(argv[i + 1].clone());
                i += 2;
            }
            "--resume" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                checkpoint_dir = Some(argv[i + 1].clone());
                resume = true;
                i += 2;
            }
            "--watchdog-ms" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                let ms: u64 = argv[i + 1].parse().unwrap_or_else(|_| usage());
                if ms == 0 {
                    usage();
                }
                watchdog_ms = Some(ms);
                i += 2;
            }
            "--memory-budget" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                memory_budget = Some(argv[i + 1].parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--shard-rows" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                let n: usize = argv[i + 1].parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    usage();
                }
                shard_rows = Some(n);
                i += 2;
            }
            "--out-of-core" => {
                out_of_core = true;
                i += 1;
            }
            "--shard-workers" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                let n: usize = argv[i + 1].parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    usage();
                }
                shard_workers = Some(n);
                i += 2;
            }
            // Hidden: set by the parent on spawned shard workers.
            "--worker-slice" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                let (w, n) = argv[i + 1].split_once('/').unwrap_or_else(|| usage());
                let w: usize = w.parse().unwrap_or_else(|_| usage());
                let n: usize = n.parse().unwrap_or_else(|_| usage());
                if n == 0 || w >= n {
                    usage();
                }
                worker_slice = Some((w, n));
                i += 2;
            }
            // Hidden chaos switch (testing): abort after the Nth shard.
            "--chaos-kill-at-shard" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                chaos_kill_at_shard = Some(argv[i + 1].parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => {
                positional.push(other.to_owned());
                i += 1;
            }
            _ => usage(),
        }
    }
    let Some(rules) = rules else { usage() };
    let (layout, old_layout) = match (diff_mode, positional.len()) {
        (false, 1) => (positional.pop().unwrap(), None),
        (true, 2) => {
            let new = positional.pop().unwrap();
            (new, positional.pop())
        }
        _ => usage(),
    };
    Args {
        layout,
        old_layout,
        rules,
        parallel,
        max_print,
        report,
        markers,
        cache,
        stats_json,
        fault_seed,
        device_budget,
        host_threads,
        deadline_secs,
        checkpoint_dir,
        resume,
        watchdog_ms,
        memory_budget,
        shard_rows,
        out_of_core,
        shard_workers,
        worker_slice,
        chaos_kill_at_shard,
    }
}

/// Writes the violations as CSV: rule, kind, x0, y0, x1, y1, measured.
fn write_report(path: &str, violations: &[odrc::Violation]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "rule,kind,x0,y0,x1,y1,measured")?;
    for v in violations {
        writeln!(
            f,
            "{},{},{},{},{},{},{}",
            v.rule,
            v.kind,
            v.location.lo().x,
            v.location.lo().y,
            v.location.hi().x,
            v.location.hi().y,
            v.measured
        )?;
    }
    Ok(())
}

/// Writes the run summary as JSON (hand-rolled — the image has no
/// serde; phase names come from our own profiler, so they never need
/// escaping beyond what `escape_json` covers). The file is written
/// atomically (temp + rename), so an interrupted run — the case where
/// the stats matter most — never leaves a torn JSON behind.
fn write_stats_json(path: &str, report: &CheckReport) -> std::io::Result<()> {
    use std::fmt::Write;
    let mut f = String::new();
    let w = &mut f;
    let _ = writeln!(w, "{{");
    let _ = writeln!(w, "  \"violations\": {},", report.violations.len());
    let _ = writeln!(
        w,
        "  \"checks_computed\": {},",
        report.stats.checks_computed
    );
    let _ = writeln!(w, "  \"checks_reused\": {},", report.stats.checks_reused);
    let _ = writeln!(
        w,
        "  \"candidate_pairs\": {},",
        report.stats.candidate_pairs
    );
    let _ = writeln!(w, "  \"rows\": {},", report.stats.rows);
    let _ = writeln!(w, "  \"device_retries\": {},", report.stats.device_retries);
    let _ = writeln!(
        w,
        "  \"device_fallbacks\": {},",
        report.stats.device_fallbacks
    );
    let _ = writeln!(w, "  \"degraded\": {},", report.stats.degraded());
    let _ = writeln!(w, "  \"scenes_built\": {},", report.stats.scenes_built);
    let _ = writeln!(w, "  \"scenes_reused\": {},", report.stats.scenes_reused);
    let _ = writeln!(w, "  \"host_tasks\": {},", report.stats.host_tasks);
    let _ = writeln!(w, "  \"host_steals\": {},", report.stats.host_steals);
    let _ = writeln!(w, "  \"uploads_elided\": {},", report.stats.uploads_elided);
    let _ = writeln!(w, "  \"bytes_uploaded\": {},", report.stats.bytes_uploaded);
    let _ = writeln!(w, "  \"launches_fused\": {},", report.stats.launches_fused);
    let _ = writeln!(w, "  \"graph_replays\": {},", report.stats.graph_replays);
    let _ = writeln!(w, "  \"worker_wakeups\": {},", report.stats.worker_wakeups);
    let _ = writeln!(w, "  \"shards_checked\": {},", report.stats.shards_checked);
    let _ = writeln!(w, "  \"shards_built\": {},", report.stats.shards_built);
    let _ = writeln!(w, "  \"shards_evicted\": {},", report.stats.shards_evicted);
    let _ = writeln!(w, "  \"shards_resumed\": {},", report.stats.shards_resumed);
    let _ = writeln!(
        w,
        "  \"shards_degraded\": {},",
        report.stats.shards_degraded
    );
    let _ = match odrc_infra::peak_rss_bytes() {
        Some(bytes) => writeln!(w, "  \"peak_rss_bytes\": {bytes},"),
        None => writeln!(w, "  \"peak_rss_bytes\": null,"),
    };
    let _ = match &report.interrupted {
        Some(reason) => writeln!(
            w,
            "  \"interrupted\": \"{}\",",
            escape_json(&reason.to_string())
        ),
        None => writeln!(w, "  \"interrupted\": null,"),
    };
    let _ = writeln!(
        w,
        "  \"rules_completed\": {},",
        report.stats.rules_completed
    );
    let _ = writeln!(w, "  \"rules_resumed\": {},", report.stats.rules_resumed);
    let _ = writeln!(
        w,
        "  \"rules_interrupted\": {},",
        report.stats.rules_interrupted
    );
    let _ = writeln!(w, "  \"rule_status\": {{");
    for (i, (name, st)) in report.rule_status.iter().enumerate() {
        let _ = writeln!(
            w,
            "    \"{}\": \"{}\"{}",
            escape_json(name),
            st,
            if i + 1 < report.rule_status.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(w, "  }},");
    let _ = writeln!(
        w,
        "  \"total_ms\": {:.3},",
        report.profile.total().as_secs_f64() * 1e3
    );
    let _ = writeln!(w, "  \"phases_ms\": {{");
    let phases = report.profile.phases();
    for (i, (name, d)) in phases.iter().enumerate() {
        let _ = writeln!(
            w,
            "    \"{}\": {:.3}{}",
            escape_json(name),
            d.as_secs_f64() * 1e3,
            if i + 1 < phases.len() { "," } else { "" }
        );
    }
    let _ = writeln!(w, "  }}");
    let _ = writeln!(w, "}}");
    odrc_infra::write_atomic(Path::new(path), f.as_bytes())
}

fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn load_layout(path: &str) -> Result<Layout, Box<dyn std::error::Error>> {
    let lib = odrc_gdsii::read_file(path)?;
    let layout = Layout::from_library(&lib)?;
    eprintln!("loaded '{}' from {path}:\n{}", lib.name, layout.stats());
    Ok(layout)
}

/// Out-of-core load: index the stream, then parse and convert one
/// structure at a time, so the full GDSII element model is never
/// resident — peak load footprint is one structure plus the growing
/// layout.
fn load_layout_streamed(path: &str) -> Result<Layout, Box<dyn std::error::Error>> {
    let index = odrc_gdsii::stream::index_file(path)?;
    let mut file = std::fs::File::open(path)?;
    let mut builder = odrc_db::LayoutBuilder::new();
    for entry in &index.entries {
        builder.add_structure(&odrc_gdsii::stream::read_structure(&mut file, entry)?)?;
    }
    let layout = builder.finish()?;
    eprintln!(
        "streamed '{}' from {path} ({} structures indexed):\n{}",
        index.name,
        index.entries.len(),
        layout.stats()
    );
    Ok(layout)
}

/// Whether this run takes the out-of-core path (and hence the
/// streaming loader).
fn out_of_core_run(args: &Args) -> bool {
    args.out_of_core
        || args.memory_budget.is_some()
        || args.shard_rows.is_some()
        || args.worker_slice.is_some()
        || args.shard_workers.is_some()
}

fn load_cache(dir: &str) -> ResultCache {
    let cache = ResultCache::load_or_cold(&Path::new(dir).join(CACHE_FILE));
    if !cache.is_empty() {
        eprintln!("loaded {} cached results from {dir}", cache.len());
    }
    cache
}

/// Merge-on-save under the sidecar's file lock: a concurrent run (or
/// a draining `odrc serve` sharing the directory) loses nothing.
fn save_cache(dir: &str, cache: &ResultCache) -> Result<(), Box<dyn std::error::Error>> {
    std::fs::create_dir_all(dir)?;
    cache.save_merged(&Path::new(dir).join(CACHE_FILE))?;
    eprintln!("saved {} cached results to {dir}", cache.len());
    Ok(())
}

fn print_summary(report: &CheckReport, deck: &RuleDeck, max_print: usize) {
    for rule in deck.rules() {
        let n = report.violations_of(&rule.name).count();
        println!("{:<20} {:>8}", rule.name, n);
    }
    println!("{:<20} {:>8}", "total", report.violations.len());
    for v in report.violations.iter().take(max_print) {
        println!("  {v}");
    }
    if report.violations.len() > max_print {
        println!("  ... and {} more", report.violations.len() - max_print);
    }
}

fn print_stats(stats: &odrc::EngineStats) {
    eprintln!(
        "checks computed: {}, reused: {}, candidate pairs: {}, rows: {}",
        stats.checks_computed, stats.checks_reused, stats.candidate_pairs, stats.rows
    );
    eprintln!(
        "scenes built: {}, reused: {}; uploads elided: {}, bytes uploaded: {}",
        stats.scenes_built, stats.scenes_reused, stats.uploads_elided, stats.bytes_uploaded
    );
    if stats.host_tasks > 0 {
        eprintln!(
            "host executor: {} task(s) fanned out, {} steal(s)",
            stats.host_tasks, stats.host_steals
        );
    }
    if stats.launches_fused > 0 || stats.graph_replays > 0 || stats.worker_wakeups > 0 {
        eprintln!(
            "dispatch: {} launch(es) fused, {} graph replay(s), {} worker wakeup(s)",
            stats.launches_fused, stats.graph_replays, stats.worker_wakeups
        );
    }
    if stats.degraded() {
        eprintln!(
            "degraded: device work retried {} time(s), {} unit(s) recomputed on the host \
             (results are complete and exact)",
            stats.device_retries, stats.device_fallbacks
        );
    }
    if stats.shards_checked > 0 || stats.shards_resumed > 0 {
        eprintln!(
            "out-of-core: {} shard(s) checked, {} built, {} evicted, {} resumed, {} degraded",
            stats.shards_checked,
            stats.shards_built,
            stats.shards_evicted,
            stats.shards_resumed,
            stats.shards_degraded
        );
    }
}

/// Opens the checkpoint journal for `--checkpoint-dir`/`--resume`. A
/// plain `--checkpoint-dir` starts fresh (any previous journal in the
/// directory is discarded); `--resume` keeps it so completed rules are
/// restored.
fn open_journal(
    args: &Args,
    layout: &Layout,
    deck: &RuleDeck,
) -> Result<Option<CheckpointJournal>, Box<dyn std::error::Error>> {
    let Some(dir) = &args.checkpoint_dir else {
        return Ok(None);
    };
    let dir = Path::new(dir);
    if !args.resume {
        match std::fs::remove_file(dir.join(odrc::JOURNAL_FILE)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
    }
    let journal = CheckpointJournal::open_dir(dir, RunKey::compute(layout, deck))?;
    if args.resume && !journal.is_empty() {
        eprintln!(
            "resuming: {} rule(s) already journaled in {}",
            journal.len(),
            dir.display()
        );
    }
    Ok(Some(journal))
}

/// The default mode: check one layout.
fn run_check(
    args: &Args,
    engine: &Engine,
    deck: &RuleDeck,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let layout = if out_of_core_run(args) {
        load_layout_streamed(&args.layout)?
    } else {
        load_layout(&args.layout)?
    };
    if let Some(workers) = args.shard_workers {
        if workers > 1 && args.worker_slice.is_none() {
            return run_shard_workers(args, engine, deck, &layout, workers);
        }
    }
    let mut journal = open_journal(args, &layout, deck)?;
    let report = match &args.cache {
        Some(dir) => {
            let mut cache = load_cache(dir);
            let report = engine.check_resumable(&layout, deck, Some(&mut cache), journal.as_mut());
            save_cache(dir, &cache)?;
            report
        }
        None => engine.check_resumable(&layout, deck, None, journal.as_mut()),
    };
    finish_check(args, deck, &report, journal.as_ref())
}

/// Shared reporting tail of a check run: summary, artifacts, stats,
/// and the outcome for the exit code.
fn finish_check(
    args: &Args,
    deck: &RuleDeck,
    report: &CheckReport,
    journal: Option<&CheckpointJournal>,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    print_summary(report, deck, args.max_print);
    if let Some(path) = &args.report {
        write_report(path, &report.violations)?;
        eprintln!("wrote {} violations to {path}", report.violations.len());
    }
    if let Some(path) = &args.markers {
        // Markers on a layer beyond the BEOL stack, KLayout-style.
        let lib = odrc::markers::marker_library(&report.violations, 10_000);
        odrc_gdsii::write_file(&lib, path)?;
        eprintln!("wrote marker GDSII to {path}");
    }
    if let Some(path) = &args.stats_json {
        write_stats_json(path, report)?;
        eprintln!("wrote stats to {path}");
    }
    eprintln!("\n{}", report.profile);
    print_stats(&report.stats);
    if report.stats.rules_resumed > 0 || report.stats.shards_resumed > 0 {
        eprintln!(
            "resumed {} rule(s) and {} shard(s) from the checkpoint journal",
            report.stats.rules_resumed, report.stats.shards_resumed
        );
    }
    if let Some(reason) = &report.interrupted {
        eprintln!("\nrun interrupted ({reason}); per-rule status:");
        for (name, st) in &report.rule_status {
            eprintln!("  {name:<20} {st}");
        }
        if let Some(j) = journal {
            eprintln!(
                "checkpoint saved: {} completed rule(s) in {}; \
                 rerun with --resume to finish",
                j.len(),
                j.path().display()
            );
        } else {
            eprintln!("no --checkpoint-dir: completed rules were not journaled");
        }
    }
    Ok(Outcome {
        violations: report.violations.len(),
        degraded: report.stats.degraded(),
        interrupted: report.interrupted.is_some(),
    })
}

/// Multi-process out-of-core checking: spawn `workers` shard workers,
/// each checking the slice `shard % workers == w` (and the whole
/// rules with `index % workers == w`), journaling every completed
/// `(rule, shard)` unit into its own journal directory. A crashed
/// worker (SIGKILL, abort) loses only its un-journaled work: it is
/// re-admitted with `--resume` and picks up where its journal ends.
/// The parent then merges the worker journals under its own run key
/// and runs a restore pass — which also re-checks anything still
/// missing — so the final report is byte-identical to a
/// single-process run.
fn run_shard_workers(
    args: &Args,
    engine: &Engine,
    deck: &RuleDeck,
    layout: &Layout,
    workers: usize,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    /// First admission plus up to three crash re-admissions per
    /// worker; a slice that cannot survive four attempts is a bug,
    /// not bad luck.
    const MAX_ADMITS: usize = 4;
    let root = match &args.checkpoint_dir {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("odrc-shard-workers-{}", std::process::id())),
    };
    if !args.resume {
        match std::fs::remove_dir_all(&root) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
    }
    std::fs::create_dir_all(&root)?;
    let exe = std::env::current_exe()?;

    let spawn = |w: usize, first: bool| -> std::io::Result<std::process::Child> {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg(&args.layout)
            .arg("--rules")
            .arg(&args.rules)
            .arg("--worker-slice")
            .arg(format!("{w}/{workers}"))
            .arg("--resume")
            .arg(root.join(format!("worker-{w}")))
            .arg("--max-print")
            .arg("0");
        if args.parallel {
            cmd.arg("--parallel");
        }
        if let Some(bytes) = args.memory_budget {
            cmd.arg("--memory-budget").arg(bytes.to_string());
        }
        if let Some(n) = args.shard_rows {
            cmd.arg("--shard-rows").arg(n.to_string());
        }
        if args.out_of_core {
            cmd.arg("--out-of-core");
        }
        if let Some(n) = args.host_threads {
            cmd.arg("--host-threads").arg(n.to_string());
        }
        if let Some(bytes) = args.device_budget {
            cmd.arg("--device-budget").arg(bytes.to_string());
        }
        if let Some(seed) = args.fault_seed {
            cmd.arg("--fault-seed").arg(seed.to_string());
        }
        // The chaos kill fires once, on worker 0's first admission —
        // its re-admission must find a healthy process.
        if first && w == 0 {
            if let Some(nth) = args.chaos_kill_at_shard {
                cmd.arg("--chaos-kill-at-shard").arg(nth.to_string());
            }
        }
        cmd.stdout(std::process::Stdio::null());
        cmd.spawn()
    };

    let mut children: Vec<(usize, std::process::Child, usize)> = Vec::new();
    for w in 0..workers {
        children.push((w, spawn(w, true)?, 1));
    }
    eprintln!(
        "spawned {workers} shard worker(s); journals under {}",
        root.display()
    );
    while let Some((w, mut child, admits)) = children.pop() {
        let status = child.wait()?;
        // A coded exit (0/1/3/4) means the worker's slice is fully
        // journaled; no exit code means a crash (signal) — re-admit.
        match status.code() {
            None => {
                if admits >= MAX_ADMITS {
                    return Err(
                        format!("shard worker {w} crashed {admits} time(s); giving up").into(),
                    );
                }
                eprintln!(
                    "shard worker {w} crashed ({status}); re-admitting (attempt {})",
                    admits + 1
                );
                children.push((w, spawn(w, false)?, admits + 1));
            }
            Some(2) => return Err(format!("shard worker {w} failed hard (exit 2)").into()),
            Some(_) => {}
        }
    }

    // Merge the worker journals under the parent's run key, then run
    // a restore pass for the real report.
    let run_key = RunKey::compute(layout, deck);
    let mut journal = CheckpointJournal::open_dir(&root, run_key)?;
    for w in 0..workers {
        journal.absorb_dir(&root.join(format!("worker-{w}")))?;
    }
    let report = engine.check_resumable(layout, deck, None, Some(&mut journal));
    let outcome = finish_check(args, deck, &report, Some(&journal))?;
    if args.checkpoint_dir.is_none() {
        let _ = std::fs::remove_dir_all(&root);
    }
    Ok(outcome)
}

/// The diff mode: check `old`, delta-check `new` against it, print
/// what the edit changed. Counts *added* violations for the exit code.
fn run_diff(
    args: &Args,
    engine: &Engine,
    deck: &RuleDeck,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let old_path = args
        .old_layout
        .as_deref()
        .expect("diff mode has two layouts");
    let old = load_layout(old_path)?;
    let new = load_layout(&args.layout)?;

    let mut cache = match &args.cache {
        Some(dir) => load_cache(dir),
        None => ResultCache::new(),
    };
    let base = engine.check_with_cache(&old, deck, &mut cache);
    let report = engine.check_delta_with_cache(&old, &base.violations, &new, deck, &mut cache);
    if let Some(dir) = &args.cache {
        save_cache(dir, &cache)?;
    }

    println!(
        "baseline {}: {} violations",
        old_path,
        base.violations.len()
    );
    println!(
        "delta    {}: +{} -{} ({} unchanged, {} dirty rects)",
        args.layout,
        report.delta.added.len(),
        report.delta.removed.len(),
        report.delta.unchanged_count,
        report.dirty.len()
    );
    for v in report.delta.added.iter().take(args.max_print) {
        println!("  + {v}");
    }
    if report.delta.added.len() > args.max_print {
        println!(
            "  ... and {} more",
            report.delta.added.len() - args.max_print
        );
    }
    for v in report.delta.removed.iter().take(args.max_print) {
        println!("  - {v}");
    }
    if report.delta.removed.len() > args.max_print {
        println!(
            "  ... and {} more",
            report.delta.removed.len() - args.max_print
        );
    }
    eprintln!("\n{}", report.profile);
    print_stats(&report.stats);
    Ok(Outcome {
        violations: report.delta.added.len(),
        degraded: base.stats.degraded() || report.stats.degraded(),
        interrupted: false,
    })
}

fn run(args: &Args) -> Result<Outcome, Box<dyn std::error::Error>> {
    let deck_text = std::fs::read_to_string(&args.rules)?;
    let deck = parse_deck(&deck_text)?;
    eprintln!("loaded {} rules from {}", deck.rules().len(), args.rules);

    let options = odrc::EngineOptions {
        host_threads: args.host_threads,
        memory_budget: args.memory_budget,
        out_of_core: args.out_of_core,
        shard_rows: args.shard_rows,
        shard_slice: args.worker_slice,
        chaos_kill_at_shard: args.chaos_kill_at_shard,
        ..odrc::EngineOptions::default()
    };
    let mut engine = if args.parallel {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let device = match args.device_budget {
            Some(bytes) => Device::with_budget(workers, bytes),
            None => Device::new(workers),
        };
        if let Some(seed) = args.fault_seed {
            device.set_fault_plan(Some(FaultPlan::from_seed(seed, FAULTS_PER_SEED)));
            eprintln!("fault injection on: seed {seed}, {FAULTS_PER_SEED} scheduled faults");
        }
        if let Some(ms) = args.watchdog_ms {
            device.set_watchdog(Some(Duration::from_millis(ms)));
            eprintln!("stream watchdog armed: {ms} ms per operation");
        }
        Engine::parallel_on(device).with_options(options)
    } else {
        if args.fault_seed.is_some() || args.device_budget.is_some() || args.watchdog_ms.is_some() {
            eprintln!(
                "note: --fault-seed/--device-budget/--watchdog-ms only apply to --parallel runs"
            );
        }
        Engine::sequential().with_options(options)
    };
    if args.old_layout.is_some() {
        if args.deadline_secs.is_some() || args.checkpoint_dir.is_some() {
            eprintln!("note: --deadline/--checkpoint-dir/--resume only apply to check runs");
        }
        run_diff(args, &engine, &deck)
    } else {
        // Cooperative cancellation: SIGINT/SIGTERM and --deadline all
        // trip one token the engine polls at rule boundaries.
        let token = match args.deadline_secs {
            Some(secs) => CancelToken::with_deadline(Duration::from_secs_f64(secs)),
            None => CancelToken::new(),
        };
        let token = token.linked_to_signals();
        install_signal_handlers();
        engine = engine.with_cancel(token);
        run_check(args, &engine, &deck)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => return run_serve(&argv[1..]),
        Some("client") => return run_client(&argv[1..]),
        _ => {}
    }
    let args = parse_args();
    match run(&args) {
        // Interruption first — a partial result is not a verdict; then
        // violations over degradation; a degraded clean run gets its
        // own code so scripts can react.
        Ok(Outcome {
            interrupted: true, ..
        }) => ExitCode::from(4),
        Ok(Outcome {
            violations: 0,
            degraded: false,
            ..
        }) => ExitCode::SUCCESS,
        Ok(Outcome {
            violations: 0,
            degraded: true,
            ..
        }) => ExitCode::from(3),
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// `odrc serve` — the multi-tenant check daemon.
// ---------------------------------------------------------------------------

fn usage_serve() -> ! {
    eprintln!(
        "usage: odrc serve [--addr HOST:PORT] [--workers N] [--host-threads N] \
         [--max-queue N] [--cache dir] [--device-budget BYTES] [--device-workers N] \
         [--port-file path] [--checkpoint-dir dir] [--io-timeout-ms N] \
         [--ping-max-misses N] [--session-idle-ms N] [--max-sessions N] \
         [--chaos-seed N] [--chaos-faults N] [--chaos-kill-at-rule N]\n\
         binds (port 0 = ephemeral), prints `listening on ADDR`, and serves until \
         SIGINT/SIGTERM or a `shutdown` verb, then drains in-flight jobs and \
         persists the shared cache tier\n\
         --checkpoint-dir makes keyed `check` submissions durable: admissions and \
         results are journaled there, and a restarted server replays the journal, \
         resuming interrupted jobs at the rule boundary\n\
         --chaos-* arm seeded fault injection (testing only)"
    );
    std::process::exit(2);
}

fn run_serve(argv: &[String]) -> ExitCode {
    let mut config = odrc_serve::ServerConfig::default();
    let mut port_file: Option<String> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut chaos_faults: usize = 3;
    let mut chaos_kill_at_rule: Option<u64> = None;
    let mut i = 0;
    let value = |argv: &[String], i: usize| -> String {
        if i + 1 >= argv.len() {
            usage_serve();
        }
        argv[i + 1].clone()
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => config.addr = value(argv, i),
            "--workers" => {
                config.workers = value(argv, i).parse().unwrap_or_else(|_| usage_serve());
            }
            "--host-threads" => {
                let n: usize = value(argv, i).parse().unwrap_or_else(|_| usage_serve());
                if n == 0 {
                    usage_serve();
                }
                config.host_threads = n;
            }
            "--max-queue" => {
                config.max_queue = value(argv, i).parse().unwrap_or_else(|_| usage_serve());
            }
            "--cache" => config.cache_dir = Some(value(argv, i).into()),
            "--device-budget" => {
                config.device_budget =
                    Some(value(argv, i).parse().unwrap_or_else(|_| usage_serve()));
            }
            "--device-workers" => {
                config.device_workers = value(argv, i).parse().unwrap_or_else(|_| usage_serve());
            }
            "--port-file" => port_file = Some(value(argv, i)),
            "--checkpoint-dir" => config.checkpoint_dir = Some(value(argv, i).into()),
            "--io-timeout-ms" => {
                config.io_timeout_ms = value(argv, i).parse().unwrap_or_else(|_| usage_serve());
            }
            "--ping-max-misses" => {
                config.ping_max_misses = value(argv, i).parse().unwrap_or_else(|_| usage_serve());
            }
            "--session-idle-ms" => {
                config.session_idle_ms = value(argv, i).parse().unwrap_or_else(|_| usage_serve());
            }
            "--max-sessions" => {
                config.max_sessions = value(argv, i).parse().unwrap_or_else(|_| usage_serve());
            }
            "--chaos-seed" => {
                chaos_seed = Some(value(argv, i).parse().unwrap_or_else(|_| usage_serve()));
            }
            "--chaos-faults" => {
                chaos_faults = value(argv, i).parse().unwrap_or_else(|_| usage_serve());
            }
            "--chaos-kill-at-rule" => {
                chaos_kill_at_rule = Some(value(argv, i).parse().unwrap_or_else(|_| usage_serve()));
            }
            _ => usage_serve(),
        }
        i += 2;
    }
    if chaos_seed.is_some() || chaos_kill_at_rule.is_some() {
        let mut plan = match chaos_seed {
            Some(seed) => odrc_serve::ServerFaultPlan::from_seed(seed, chaos_faults),
            None => odrc_serve::ServerFaultPlan::new(),
        };
        if let Some(nth) = chaos_kill_at_rule {
            plan = plan.with(odrc_serve::ServerFault::KillAtRule { nth });
        }
        eprintln!("chaos armed: {} fault(s) scheduled", plan.len());
        config.chaos = Some(plan);
    }

    let server = match odrc_serve::Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            return ExitCode::from(2);
        }
    };
    // SIGINT/SIGTERM set the signal flag the server's drain token is
    // linked to: the daemon stops accepting, finishes in-flight jobs,
    // and persists the cache tier before exiting.
    install_signal_handlers();
    let addr = server.addr();
    println!("odrc serve listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Some(path) = &port_file {
        if let Err(e) = std::fs::write(path, format!("{addr}\n")) {
            eprintln!("error: cannot write --port-file {path}: {e}");
            return ExitCode::from(2);
        }
    }
    match server.run() {
        Ok(summary) => {
            eprintln!(
                "drained: {} job(s) completed over this lifetime; cache tier holds \
                 {} entr(ies), served {} shared hit(s)",
                summary.jobs_completed, summary.cache_entries, summary.cache_hits_shared
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// `odrc client` — the command-line front end to a running daemon.
// ---------------------------------------------------------------------------

fn usage_client() -> ! {
    eprintln!(
        "usage: odrc client <layout.gds> --rules <deck.rules> --addr HOST:PORT \
         [--parallel] [--priority N] [--deadline-ms N] [--edits ops.jsonl] \
         [--report out.csv] [--stats-json out.json] [--max-print N] [--shutdown] \
         [--key ID] [--retries N] [--backoff-ms N] [--backoff-cap-ms N]\n\
         \u{20}      odrc client --addr HOST:PORT --shutdown\n\
         --key marks the check idempotent: resubmitting the same key (after a \
         dropped connection or a server restart) replays the journaled result or \
         attaches to the running job instead of checking twice; retries reconnect \
         with capped exponential backoff, honouring server retry_after_ms hints\n\
         exit codes match the one-shot checker: 0 clean, 1 violations, 2 hard error, \
         3 degraded but clean, 4 interrupted (cancel, deadline, or server drain)"
    );
    std::process::exit(2);
}

struct ClientArgs {
    addr: Option<String>,
    layout: Option<String>,
    rules: Option<String>,
    parallel: bool,
    priority: i64,
    deadline_ms: Option<u64>,
    edits: Option<String>,
    report: Option<String>,
    stats_json: Option<String>,
    max_print: usize,
    shutdown: bool,
    key: Option<String>,
    retries: u32,
    backoff_ms: u64,
    backoff_cap_ms: u64,
}

fn parse_client_args(argv: &[String]) -> ClientArgs {
    let mut args = ClientArgs {
        addr: None,
        layout: None,
        rules: None,
        parallel: false,
        priority: 0,
        deadline_ms: None,
        edits: None,
        report: None,
        stats_json: None,
        max_print: 20,
        shutdown: false,
        key: None,
        retries: 1,
        backoff_ms: 200,
        backoff_cap_ms: 5000,
    };
    let value = |argv: &[String], i: usize| -> String {
        if i + 1 >= argv.len() {
            usage_client();
        }
        argv[i + 1].clone()
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => {
                args.addr = Some(value(argv, i));
                i += 2;
            }
            "--rules" => {
                args.rules = Some(value(argv, i));
                i += 2;
            }
            "--parallel" => {
                args.parallel = true;
                i += 1;
            }
            "--priority" => {
                args.priority = value(argv, i).parse().unwrap_or_else(|_| usage_client());
                i += 2;
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(value(argv, i).parse().unwrap_or_else(|_| usage_client()));
                i += 2;
            }
            "--edits" => {
                args.edits = Some(value(argv, i));
                i += 2;
            }
            "--report" => {
                args.report = Some(value(argv, i));
                i += 2;
            }
            "--stats-json" => {
                args.stats_json = Some(value(argv, i));
                i += 2;
            }
            "--max-print" => {
                args.max_print = value(argv, i).parse().unwrap_or_else(|_| usage_client());
                i += 2;
            }
            "--shutdown" => {
                args.shutdown = true;
                i += 1;
            }
            "--key" => {
                args.key = Some(value(argv, i));
                i += 2;
            }
            "--retries" => {
                args.retries = value(argv, i).parse().unwrap_or_else(|_| usage_client());
                i += 2;
            }
            "--backoff-ms" => {
                args.backoff_ms = value(argv, i).parse().unwrap_or_else(|_| usage_client());
                i += 2;
            }
            "--backoff-cap-ms" => {
                args.backoff_cap_ms = value(argv, i).parse().unwrap_or_else(|_| usage_client());
                i += 2;
            }
            "--help" | "-h" => usage_client(),
            other if !other.starts_with('-') && args.layout.is_none() => {
                args.layout = Some(other.to_owned());
                i += 1;
            }
            _ => usage_client(),
        }
    }
    if args.addr.is_none() || (args.layout.is_none() && !args.shutdown) {
        usage_client();
    }
    if args.layout.is_some() && args.rules.is_none() {
        usage_client();
    }
    args
}

fn run_client(argv: &[String]) -> ExitCode {
    let args = parse_client_args(argv);
    match client_main(&args) {
        Ok(exit) => ExitCode::from(u8::try_from(exit).unwrap_or(2)),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Everything one attempt needs, loaded once — a local file error is
/// not worth a reconnect loop.
struct ClientInputs {
    gds: Vec<u8>,
    rules: String,
    edit_ops: Vec<odrc_serve::json::Value>,
}

fn client_main(args: &ClientArgs) -> Result<i64, Box<dyn std::error::Error>> {
    let addr = args.addr.as_deref().expect("checked by parse_client_args");
    let inputs = match &args.layout {
        Some(layout) => {
            let rules_path = args.rules.as_deref().expect("checked by parse_client_args");
            let edit_ops = match &args.edits {
                Some(path) => std::fs::read_to_string(path)?
                    .lines()
                    .filter(|l| !l.trim().is_empty())
                    .map(odrc_serve::json::parse)
                    .collect::<Result<Vec<_>, _>>()?,
                None => Vec::new(),
            };
            Some(ClientInputs {
                gds: std::fs::read(layout)?,
                rules: std::fs::read_to_string(rules_path)?,
                edit_ops,
            })
        }
        None => None,
    };
    // Each attempt redoes the whole unit of work: connect, open,
    // resubmit, wait. With --key the redo is free — the server
    // replays the journaled result or attaches to the running job.
    let policy = odrc_serve::RetryPolicy {
        attempts: args.retries.max(1),
        base_ms: args.backoff_ms,
        cap_ms: args.backoff_cap_ms,
    };
    let exit = policy.run(|attempt| {
        if attempt > 0 {
            eprintln!(
                "reconnecting to {addr} (attempt {}/{})",
                attempt + 1,
                args.retries.max(1)
            );
        }
        client_attempt(args, addr, inputs.as_ref())
    })?;
    Ok(exit)
}

fn client_attempt(
    args: &ClientArgs,
    addr: &str,
    inputs: Option<&ClientInputs>,
) -> Result<i64, odrc_serve::ClientError> {
    use odrc_serve::json::{obj, Value};

    let mut client = odrc_serve::Client::connect(addr)?;

    let mut exit = 0i64;
    if let Some(inputs) = inputs {
        let mode = if args.parallel {
            "parallel"
        } else {
            "sequential"
        };
        let session = client.open_bytes(&inputs.gds, &inputs.rules, mode)?;
        eprintln!("opened session {session} on {addr} ({mode})");

        if let Some(path) = &args.edits {
            let applied = client.edit(session, inputs.edit_ops.clone())?;
            eprintln!("applied {applied} edit op(s) from {path}");
        }

        let job = client.check_with_key(
            session,
            args.priority,
            args.deadline_ms,
            args.key.as_deref(),
        )?;
        // A terminal `error` event (internal failure, shed under
        // overload) becomes a ClientError here so the retry policy
        // sees its code and backoff hint.
        let outcome = client.wait(job)?.into_result()?;
        exit = outcome.exit;

        println!("{:<20} {:>8}", "total", outcome.violations.len());
        for v in outcome.violations.iter().take(args.max_print) {
            println!("  {}", v.to_csv_row());
        }
        if outcome.violations.len() > args.max_print {
            println!(
                "  ... and {} more",
                outcome.violations.len() - args.max_print
            );
        }
        eprintln!(
            "job {}: exit {}, {} rule(s) reported, {} shared cache hit(s), \
             queued {} ms",
            outcome.job,
            outcome.exit,
            outcome.rules.len(),
            outcome.stat("cache_hits_shared"),
            outcome.stat("queue_wait_ms"),
        );
        if let Some(reason) = &outcome.interrupted {
            eprintln!("run interrupted ({reason}); results are partial");
        }

        if let Some(path) = &args.report {
            odrc_infra::write_atomic(Path::new(path), outcome.report_csv().as_bytes())?;
            eprintln!("wrote {} violations to {path}", outcome.violations.len());
        }
        if let Some(path) = &args.stats_json {
            // Per-job engine counters (including cache_hits_shared and
            // queue_wait_ms) plus the server-wide admission counters
            // from the `stats` verb and the liveness snapshot from
            // `health`.
            let strip_ok = |v: Value| match v {
                Value::Object(pairs) => {
                    Value::Object(pairs.into_iter().filter(|(k, _)| k != "ok").collect())
                }
                other => other,
            };
            let server = strip_ok(client.stats()?);
            let health = strip_ok(client.health()?);
            let doc = obj([
                ("job", Value::from(outcome.job)),
                ("exit", Value::Int(outcome.exit)),
                ("violations", Value::from(outcome.violations.len())),
                (
                    "interrupted",
                    match &outcome.interrupted {
                        Some(reason) => Value::from(reason.as_str()),
                        None => Value::Null,
                    },
                ),
                ("full_run", Value::Bool(outcome.full_run)),
                ("stats", outcome.stats.clone()),
                ("server", server),
                ("health", health),
            ]);
            odrc_infra::write_atomic(Path::new(path), doc.to_json().as_bytes())?;
            eprintln!("wrote stats to {path}");
        }
        client.close(session)?;
    }

    if args.shutdown {
        client.shutdown()?;
        eprintln!("asked {addr} to drain and exit");
    }
    Ok(exit)
}
