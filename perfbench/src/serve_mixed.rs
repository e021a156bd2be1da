//! `serve-mixed`: `odrc serve` in process, on loopback, driven by one
//! closed-loop `Client` per host core.
//!
//! Set-up generates two seeded variants each of `uart`, `ibex` and
//! `aes`, one seeded edit batch per layout, and the reference verdicts
//! of every layout before and after its batch. The measuring child runs
//! rounds; each round binds a fresh server (so its shared cache tier
//! starts cold) and runs every client's fixed session sequence once:
//! `open_bytes` → `check` → one `edit` batch → `check` → `close`.
//! Each client first opens layouts of its own, then layouts another
//! client opened earlier in the round, so half its sessions find the
//! other tenant's results in the shared tier. A third of the sessions
//! run in parallel mode.

use std::path::Path;
use std::time::Instant;

use odrc::{Engine, RuleDeck};
use odrc_baselines::{Checker, FlatChecker};
use odrc_db::Layout;
use odrc_incremental::EditOp;
use odrc_layoutgen::tech;
use odrc_serve::json::{obj, Value};
use odrc_serve::{Client, Server, ServerConfig};

use crate::editloop::apply_to_layout;
use crate::trace::{spans_to_json, Span, Tracer};
use crate::util::{self, median, mix, ms_since, Metrics, Sample, Verdict};

/// The layouts: two seeded variants of each design.
pub const DESIGNS: [&str; 3] = ["uart", "ibex", "aes"];
pub const VARIANTS: usize = 2;
/// Wire nudges in each layout's edit batch.
pub const BATCH: usize = 3;
const MODES: [&str; 2] = ["sequential", "parallel"];

pub struct Prepared {
    pub gds: Vec<Vec<u8>>,
    pub layouts: Vec<Layout>,
    pub batches: Vec<Vec<EditOp>>,
    /// Reference verdict per layout, before and after its batch.
    pub reference: Vec<[Verdict; 2]>,
}

/// The seeded edit batch of one layout: ±1 nudges of distinct
/// top-level M2 wires.
fn batch(layout: &Layout, seed: u64) -> Vec<EditOp> {
    let top = layout.top();
    let wires: Vec<usize> = layout
        .cell(top)
        .polygons()
        .iter()
        .enumerate()
        .filter(|(_, p)| p.layer == tech::M2)
        .map(|(i, _)| i)
        .collect();
    let mut picked: Vec<usize> = Vec::new();
    let mut k = 0;
    while picked.len() < BATCH.min(wires.len()) {
        k += 1;
        let w = wires[(mix(seed ^ mix(k)) % wires.len() as u64) as usize];
        if !picked.contains(&w) {
            picked.push(w);
        }
    }
    picked
        .into_iter()
        .enumerate()
        .map(|(j, index)| {
            let dx = if j % 2 == 0 { 1 } else { -1 };
            let mut polygon = layout.cell(top).polygons()[index].clone();
            polygon.polygon = polygon.polygon.translate(odrc_geometry::Point::new(dx, 0));
            EditOp::ReplacePolygon {
                cell: top,
                index,
                polygon,
            }
        })
        .collect()
}

/// One set-up: generate and write every layout, build its edit batch,
/// and compute the reference verdicts before and after the batch.
///
/// # Errors
///
/// Fails when GDSII writing fails or a reference misses injected
/// violations.
pub fn setup(
    designs: &[&str],
    seed: u64,
    deck: &RuleDeck,
    tr: &mut Tracer,
) -> Result<Prepared, String> {
    let mut p = Prepared {
        gds: Vec::new(),
        layouts: Vec::new(),
        batches: Vec::new(),
        reference: Vec::new(),
    };
    for (d, name) in designs.iter().enumerate() {
        for v in 0..VARIANTS {
            let id = (d * VARIANTS + v) as u64;
            let spec = util::design(name, 1, seed, v as u64);
            let generated = tr.scope("setup.generate", id, || odrc_layoutgen::generate(&spec));
            let gds = tr
                .scope("setup.write_gds", id, || {
                    odrc_gdsii::write(&generated.library)
                })
                .map_err(|e| format!("writing GDSII: {e}"))?;
            tr.begin("setup.oracle", id);
            let layout = Layout::from_library(&generated.library).map_err(|e| e.to_string())?;
            let before = FlatChecker::new().check(&layout, deck);
            util::check_injection_floor(&before.violations, &generated.stats)?;
            let ops = batch(&layout, mix(seed ^ id));
            let mut edited = layout.clone();
            for op in ops.clone() {
                apply_to_layout(&mut edited, op)?;
            }
            let after = FlatChecker::new().check(&edited, deck);
            tr.end();
            p.reference.push([
                Verdict::of(&before.violations),
                Verdict::of(&after.violations),
            ]);
            p.gds.push(gds);
            p.layouts.push(layout);
            p.batches.push(ops);
        }
    }
    Ok(p)
}

/// Median in-process `Engine::check` time per (layout, edit state,
/// mode) — what a job would cost without the server around it.
pub fn reference_check_ms(p: &Prepared, deck: &RuleDeck) -> Result<Vec<[[f64; 2]; 2]>, String> {
    let mut out = Vec::new();
    for (layout, ops) in p.layouts.iter().zip(&p.batches) {
        let mut edited = layout.clone();
        for op in ops.clone() {
            apply_to_layout(&mut edited, op)?;
        }
        let mut per_state = [[0.0; 2]; 2];
        for (s, l) in [layout, &edited].into_iter().enumerate() {
            for (m, slot) in per_state[s].iter_mut().enumerate() {
                let times: Vec<f64> = (0..3)
                    .map(|_| {
                        let engine = if m == 0 {
                            Engine::sequential()
                        } else {
                            Engine::parallel()
                        };
                        let t = Instant::now();
                        let r = engine.check(l, deck);
                        std::hint::black_box(r.violations.len());
                        ms_since(t)
                    })
                    .collect();
                *slot = median(&times);
            }
        }
        out.push(per_state);
    }
    Ok(out)
}

/// One client's fixed session sequence: `(layout, mode)` pairs.
/// Layouts are numbered design-major (`design * VARIANTS + variant`).
/// Client `c` owns one variant of every design — variant `c` modulo
/// [`VARIANTS`] — and visits its own layouts first, then those of
/// client `c + 1`, which that client checked first in the round. Every
/// third session runs in parallel mode. The shape of the mix is the
/// same for every seed; the seed picks the layouts and their edits.
pub fn plan(designs: usize, clients: usize, c: usize) -> Vec<(usize, usize)> {
    let own = |c: usize| (0..designs).map(move |d| d * VARIANTS + c % VARIANTS);
    own(c)
        .chain(own((c + 1) % clients.max(1)))
        .enumerate()
        .map(|(k, layout)| (layout, usize::from((k + c) % 3 == 2)))
        .collect()
}

/// One finished job as the child saw it.
struct Job {
    layout: usize,
    state: usize,
    mode: usize,
    latency_ms: f64,
    queue_wait_ms: f64,
    shared_hits: f64,
    verdict: Option<Verdict>,
}

/// A client's jobs and `open_bytes` round-trip times in one round.
type ClientRun = (Vec<Job>, Vec<f64>);
type ClientResult = Result<ClientRun, String>;

fn job(
    client: &mut Client,
    session: u64,
    layout: usize,
    state: usize,
    mode: usize,
    op: u64,
    tr: &mut Tracer,
) -> Result<Job, String> {
    let t = Instant::now();
    tr.begin("serve.job", op);
    let out = client
        .check(session, 0, None)
        .and_then(|id| client.wait(id))
        .map_err(|e| format!("job: {e}"))?;
    tr.end();
    let latency_ms = ms_since(t);
    let ok = out.error.is_none() && out.interrupted.is_none();
    Ok(Job {
        layout,
        state,
        mode,
        latency_ms,
        queue_wait_ms: out.stat("queue_wait_ms") as f64,
        shared_hits: out.stat("cache_hits_shared") as f64,
        verdict: ok.then(|| Verdict::of_wire(&out.violations)),
    })
}

fn run_client(
    addr: std::net::SocketAddr,
    sessions: &[(usize, usize)],
    gds: &[Vec<u8>],
    batches: &[Value],
    rules: &str,
    tr: &mut Tracer,
    next_op: &mut u64,
) -> ClientResult {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut jobs = Vec::new();
    let mut opens = Vec::new();
    for &(layout, mode) in sessions {
        let op = *next_op;
        *next_op += 1;
        tr.begin("serve.session", op);
        let t = Instant::now();
        let session = tr
            .scope("serve.open", op, || {
                client.open_bytes(&gds[layout], rules, MODES[mode])
            })
            .map_err(|e| format!("open: {e}"))?;
        opens.push(ms_since(t));
        jobs.push(job(&mut client, session, layout, 0, mode, op, tr)?);
        let ops = batches[layout].as_array().unwrap_or(&[]).to_vec();
        tr.scope("serve.edit", op, || client.edit(session, ops))
            .map_err(|e| format!("edit: {e}"))?;
        jobs.push(job(&mut client, session, layout, 1, mode, op, tr)?);
        tr.scope("serve.close", op, || client.close(session))
            .map_err(|e| format!("close: {e}"))?;
        tr.end();
    }
    Ok((jobs, opens))
}

/// One round: a fresh server, every client's sequence once. Returns
/// the clients' runs, the round's wall time and the server's `stats`.
fn round(
    gds: &[Vec<u8>],
    batches: &[Value],
    rules: &str,
    tracers: &mut [Tracer],
    next_op: &mut [u64],
) -> Result<(Vec<ClientRun>, f64, Value), String> {
    let n = tracers.len();
    let server = Server::bind(ServerConfig {
        workers: n,
        host_threads: n,
        device_workers: n,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.run());
    let t = Instant::now();
    let results: Vec<ClientResult> = std::thread::scope(|s| {
        let workers: Vec<_> = tracers
            .iter_mut()
            .zip(next_op.iter_mut())
            .enumerate()
            .map(|(c, (tr, op))| {
                let sessions = plan(gds.len() / VARIANTS, n, c);
                s.spawn(move || run_client(addr, &sessions, gds, batches, rules, tr, op))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let wall_ms = ms_since(t);
    let stats = Client::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("stats: {e}"));
    handle.shutdown();
    let drained = serving
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    drained.map_err(|e| format!("server: {e}"))?;
    let runs = results.into_iter().collect::<Result<_, _>>()?;
    Ok((runs, wall_ms, stats?))
}

struct Phase {
    jobs: Vec<Job>,
    opens_ms: Vec<f64>,
    wall_ms: f64,
    shed: f64,
    rejected: f64,
    spans: Vec<Span>,
}

fn run_for(
    gds: &[Vec<u8>],
    batches: &[Value],
    rules: &str,
    seconds: f64,
    trace: bool,
    epoch: Instant,
) -> Result<Phase, String> {
    let n = util::nproc();
    let mut tracers: Vec<Tracer> = (0..n)
        .map(|c| Tracer::new(trace, epoch, c as u64))
        .collect();
    let mut next_op: Vec<u64> = (0..n).map(|c| (c as u64) << 32).collect();
    let mut phase = Phase {
        jobs: Vec::new(),
        opens_ms: Vec::new(),
        wall_ms: 0.0,
        shed: 0.0,
        rejected: 0.0,
        spans: Vec::new(),
    };
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || start.elapsed().as_secs_f64() < seconds {
        let (runs, wall_ms, stats) = round(gds, batches, rules, &mut tracers, &mut next_op)?;
        rounds += 1;
        phase.wall_ms += wall_ms;
        let stat = |k: &str| stats.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        phase.shed += stat("jobs_shed");
        phase.rejected += stat("jobs_rejected");
        for (jobs, opens_ms) in runs {
            phase.jobs.extend(jobs);
            phase.opens_ms.extend(opens_ms);
        }
    }
    for tr in tracers {
        crate::trace::append(&mut phase.spans, tr.into_spans());
    }
    Ok(phase)
}

fn latencies(jobs: &[Job]) -> Vec<f64> {
    jobs.iter().map(|j| j.latency_ms).collect()
}

fn job_rows(jobs: &[Job]) -> Vec<Value> {
    jobs.iter()
        .map(|j| {
            Value::Array(vec![
                Value::from(j.layout),
                Value::from(j.state),
                Value::from(j.mode),
                Value::from(j.latency_ms),
                Value::from(j.queue_wait_ms),
                j.verdict.map_or(Value::Null, Verdict::to_json),
            ])
        })
        .collect()
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (n, sum) = xs.fold((0usize, 0.0), |(n, s), x| (n + 1, s + x));
    sum / n.max(1) as f64
}

/// The measuring child.
///
/// With `trace`, the first half of the time runs untraced and the
/// second half traced; per-layer numbers come from the traced half.
///
/// # Errors
///
/// Fails on unreadable input or a server or client error.
pub fn child(work: &Path, seconds: f64, trace: bool, epoch: Instant) -> Result<Value, String> {
    let text = std::fs::read_to_string(work.join("batches.json"))
        .map_err(|e| format!("batches.json: {e}"))?;
    let batches = odrc_serve::json::parse(&text).map_err(|e| format!("batches.json: {e}"))?;
    let batches = batches
        .as_array()
        .ok_or("batches.json is not an array")?
        .to_vec();
    let gds: Vec<Vec<u8>> = (0..batches.len())
        .map(|i| {
            std::fs::read(work.join(format!("layout{i}.gds")))
                .map_err(|e| format!("layout{i}.gds: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let rules = util::deck_text();
    let budget = if trace { seconds / 2.0 } else { seconds };
    let untraced = run_for(&gds, &batches, &rules, budget, false, epoch)?;
    let lat = latencies(&untraced.jobs);
    let sample = Sample {
        ops: lat.len(),
        busy_ms: untraced.wall_ms,
        latencies_ms: lat.clone(),
        rss_mb: util::peak_rss_mb(),
    };
    let mut m = Metrics::default();
    let traced = if trace {
        Some(run_for(&gds, &batches, &rules, budget, true, epoch)?)
    } else {
        None
    };
    let src = traced.as_ref().unwrap_or(&untraced);
    if let Some(t) = &traced {
        m.set(
            "trace.overhead_ms",
            median(&latencies(&t.jobs)) - median(&lat),
        );
    }
    m.set("serve.open_ms", median(&src.opens_ms));
    m.set(
        "serve.queue_wait_ms",
        mean(src.jobs.iter().map(|j| j.queue_wait_ms)),
    );
    m.set(
        "serve.cache_hits_shared",
        mean(src.jobs.iter().map(|j| j.shared_hits)),
    );
    m.set("serve.jobs_shed", src.shed);
    m.set("serve.jobs_rejected", src.rejected);
    let mut rows = job_rows(&untraced.jobs);
    if let Some(t) = &traced {
        rows.extend(job_rows(&t.jobs));
    }
    Ok(obj([
        ("sample", sample.to_json()),
        ("metrics", m.to_json()),
        ("jobs", Value::Array(rows)),
        ("overhead_jobs", Value::Array(job_rows(&src.jobs))),
        ("spans", spans_to_json(&src.spans)),
    ]))
}

/// Compares every job's verdict with the reference of its layout and
/// edit state, and derives `serve.overhead_ms` — job latency minus
/// queue wait minus the in-process check time of the same layout,
/// state and mode. Returns `(attempted, failed, overhead_ms)`.
pub fn verify(p: &Prepared, reference_ms: &[[[f64; 2]; 2]], child: &Value) -> (usize, usize, f64) {
    let rows = child.get("jobs").and_then(Value::as_array).unwrap_or(&[]);
    let mut failed = 0;
    for row in rows {
        let ok = (|| {
            let a = row.as_array()?;
            let layout = usize::try_from(a.first()?.as_i64()?).ok()?;
            let state = usize::try_from(a.get(1)?.as_i64()?).ok()?;
            let got = Verdict::from_json(a.get(5)?)?;
            Some(p.reference.get(layout)?.get(state)? == &got)
        })()
        .unwrap_or(false);
        if !ok {
            failed += 1;
        }
    }
    let overheads: Vec<f64> = child
        .get("overhead_jobs")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|row| {
            let a = row.as_array()?;
            let layout = usize::try_from(a.first()?.as_i64()?).ok()?;
            let state = usize::try_from(a.get(1)?.as_i64()?).ok()?;
            let mode = usize::try_from(a.get(2)?.as_i64()?).ok()?;
            let latency = a.get(3)?.as_f64()?;
            let wait = a.get(4)?.as_f64()?;
            Some(latency - wait - reference_ms.get(layout)?.get(state)?.get(mode)?)
        })
        .collect();
    (rows.len(), failed, median(&overheads))
}
