//! `edit-loop`: an interactive ECO session on `aes`.
//!
//! One `odrc_incremental::Session` (sequential engine, the benchmark
//! deck) runs a seeded edit sequence, each edit followed by
//! `Session::check`. Every cycle of [`CYCLE`] edits is
//! [`ROUTE_PER_CYCLE`] *route* edits — ±1 nudges of top-level M2/M3
//! wires and ±1 moves of top-level placements — then one *cell* edit:
//! a ±1 nudge of an M1 polygon inside the standard cell with the most
//! placements. Nudged objects move back on their next touch, so the
//! layout stays near the generated one however long the loop runs.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use odrc::{Engine, RuleDeck};
use odrc_baselines::{Checker, FlatChecker};
use odrc_db::{CellId, Layout};
use odrc_geometry::{Point, Transform};
use odrc_incremental::{EditOp, Session};
use odrc_layoutgen::tech;
use odrc_serve::json::{obj, Value};

use crate::trace::{spans_to_json, Tracer};
use crate::util::{self, median, mix, ms_since, Metrics, Sample, Verdict};

pub const ROUTE_PER_CYCLE: usize = 19;
pub const CYCLE: usize = ROUTE_PER_CYCLE + 1;
/// Cycles always run, whatever `--seconds` says; the deterministic
/// counts are taken over these so they repeat exactly between runs.
pub const MIN_CYCLES: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Route,
    Cell,
}

impl Class {
    pub fn label(self) -> &'static str {
        match self {
            Class::Route => "route",
            Class::Cell => "cell",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Target {
    Wire(usize),
    Placement(usize),
    CellPolygon,
}

/// The seeded edit sequence. Deterministic in (original layout, seed):
/// the measuring child and the verifying parent replay the same ops.
pub struct EditScript {
    seed: u64,
    next: u64,
    top: CellId,
    /// Indices of top-level M2/M3 polygons.
    wires: Vec<usize>,
    placements: usize,
    cell: CellId,
    cell_polygon: usize,
    shifted: HashMap<Target, bool>,
}

impl EditScript {
    pub fn new(layout: &Layout, seed: u64) -> EditScript {
        let top = layout.top();
        let wires: Vec<usize> = layout
            .cell(top)
            .polygons()
            .iter()
            .enumerate()
            .filter(|(_, p)| p.layer == tech::M2 || p.layer == tech::M3)
            .map(|(i, _)| i)
            .collect();
        let mut uses: HashMap<CellId, usize> = HashMap::new();
        for r in layout.cell(top).refs() {
            *uses.entry(r.cell).or_default() += 1;
        }
        let cell = uses
            .iter()
            .filter(|(c, _)| {
                layout
                    .cell(**c)
                    .polygons()
                    .iter()
                    .any(|p| p.layer == tech::M1)
            })
            .max_by_key(|(c, n)| (**n, std::cmp::Reverse(c.index())))
            .map(|(c, _)| *c)
            .expect("the top cell places standard cells with M1");
        let m1: Vec<usize> = layout
            .cell(cell)
            .polygons()
            .iter()
            .enumerate()
            .filter(|(_, p)| p.layer == tech::M1)
            .map(|(i, _)| i)
            .collect();
        let cell_polygon = m1[(mix(seed ^ 0xCE11) % m1.len() as u64) as usize];
        EditScript {
            seed,
            next: 0,
            top,
            wires,
            placements: layout.cell(top).refs().len(),
            cell,
            cell_polygon,
            shifted: HashMap::new(),
        }
    }

    fn rand(&mut self) -> u64 {
        self.next += 1;
        mix(self.seed ^ mix(self.next))
    }

    /// +1 on the first touch of a target, −1 on the next, and so on.
    fn toggle(&mut self, t: Target) -> i32 {
        let s = self.shifted.entry(t).or_insert(false);
        *s = !*s;
        if *s {
            1
        } else {
            -1
        }
    }

    /// The `i`-th edit (0-based position in the sequence) against the
    /// current layout.
    pub fn op(&mut self, i: usize, layout: &Layout) -> (Class, EditOp) {
        if i % CYCLE == CYCLE - 1 {
            let dx = self.toggle(Target::CellPolygon);
            let mut polygon = layout.cell(self.cell).polygons()[self.cell_polygon].clone();
            polygon.polygon = polygon.polygon.translate(Point::new(dx, 0));
            return (
                Class::Cell,
                EditOp::ReplacePolygon {
                    cell: self.cell,
                    index: self.cell_polygon,
                    polygon,
                },
            );
        }
        let r = self.rand();
        if !r.is_multiple_of(3) || self.placements == 0 {
            let index = self.wires[(r / 3 % self.wires.len() as u64) as usize];
            let dx = self.toggle(Target::Wire(index));
            let mut polygon = layout.cell(self.top).polygons()[index].clone();
            polygon.polygon = polygon.polygon.translate(Point::new(dx, 0));
            (
                Class::Route,
                EditOp::ReplacePolygon {
                    cell: self.top,
                    index,
                    polygon,
                },
            )
        } else {
            let index = (r / 3 % self.placements as u64) as usize;
            let dx = self.toggle(Target::Placement(index));
            let t = layout.cell(self.top).refs()[index].transform;
            let moved = t.translate() + Point::new(dx, 0);
            (
                Class::Route,
                EditOp::MoveRef {
                    parent: self.top,
                    index,
                    transform: Transform::new(t.mirror_x(), t.rotation(), t.mag(), moved),
                },
            )
        }
    }
}

/// Applies an op the script emits straight through the database edit
/// API — the verifier's path, independent of `odrc_incremental`.
pub fn apply_to_layout(layout: &mut Layout, op: EditOp) -> Result<(), String> {
    match op {
        EditOp::ReplacePolygon {
            cell,
            index,
            polygon,
        } => layout
            .replace_polygon(cell, index, polygon)
            .map(|_| ())
            .map_err(|e| e.to_string()),
        EditOp::MoveRef {
            parent,
            index,
            transform,
        } => layout
            .move_ref(parent, index, transform)
            .map(|_| ())
            .map_err(|e| e.to_string()),
        other => Err(format!("the edit script does not emit {other:?}")),
    }
}

/// The design `edit-loop` runs on (tests pass a smaller one).
pub const FULL_DESIGN: &str = "aes";

pub struct Prepared {
    pub gds: Vec<u8>,
    pub layout: Layout,
    pub reference: Verdict,
}

/// One set-up: generate, write GDSII, reference verdict of the
/// unedited layout.
///
/// # Errors
///
/// Fails when GDSII writing fails or the reference misses injected
/// violations.
pub fn setup(
    design: &str,
    seed: u64,
    deck: &RuleDeck,
    tr: &mut Tracer,
) -> Result<Prepared, String> {
    let spec = util::design(design, 1, seed, 0);
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
        layout,
        reference: Verdict::of(&flat.violations),
    })
}

/// `(edit index, verdict)` pairs the verifier replays; no index means
/// the unedited layout.
type Checks = Vec<(Option<usize>, Verdict)>;

struct Edit {
    class: Class,
    apply_us: f64,
    check_ms: f64,
    dirty_rects: usize,
    checks_computed: usize,
    checks_reused: usize,
}

impl Edit {
    fn total_ms(&self) -> f64 {
        self.apply_us / 1e3 + self.check_ms
    }
}

/// Runs whole cycles for `seconds` (at least [`MIN_CYCLES`]). Returns
/// the edits and the `(edit index, verdict)` pairs to verify: one after
/// every cell edit, which also ends the run.
fn run_for(
    session: &mut Session,
    script: &mut EditScript,
    first: usize,
    seconds: f64,
    tr: &mut Tracer,
) -> Result<(Vec<Edit>, Checks), String> {
    let start = Instant::now();
    let mut edits = Vec::new();
    let mut checks = Vec::new();
    let mut i = first;
    while edits.len() < MIN_CYCLES * CYCLE || start.elapsed().as_secs_f64() < seconds {
        for _ in 0..CYCLE {
            let (class, op) = script.op(i, session.layout());
            tr.begin(
                if class == Class::Cell {
                    "edit.cell"
                } else {
                    "edit.route"
                },
                i as u64,
            );
            let t0 = Instant::now();
            tr.scope("incremental.apply", i as u64, || session.apply(op))
                .map_err(|e| format!("edit {i}: {e}"))?;
            let apply_us = ms_since(t0) * 1e3;
            let t1 = Instant::now();
            let report = tr.scope("incremental.check", i as u64, || session.check());
            let check_ms = ms_since(t1);
            tr.end();
            if report.interrupted.is_some() {
                return Err(format!("edit {i}: check was interrupted"));
            }
            if class == Class::Cell {
                checks.push((Some(i), Verdict::of(&report.violations)));
            }
            edits.push(Edit {
                class,
                apply_us,
                check_ms,
                dirty_rects: report.dirty.len(),
                checks_computed: report.stats.checks_computed,
                checks_reused: report.stats.checks_reused,
            });
            i += 1;
        }
    }
    Ok((edits, checks))
}

fn class_of(edits: &[Edit], class: Class) -> impl Iterator<Item = &Edit> {
    edits.iter().filter(move |e| e.class == class)
}

/// Timings come from `edits`; deterministic counts from the first
/// [`MIN_CYCLES`] cycles of `first`, the phase that starts at edit 0.
fn per_layer(edits: &[Edit], first: &[Edit], m: &mut Metrics) {
    for class in [Class::Route, Class::Cell] {
        let l = class.label();
        let all: Vec<&Edit> = class_of(edits, class).collect();
        let med = |f: &dyn Fn(&Edit) -> f64| median(&all.iter().map(|e| f(e)).collect::<Vec<_>>());
        m.set(format!("incremental.apply_us.{l}"), med(&|e| e.apply_us));
        m.set(format!("incremental.check_ms.{l}"), med(&|e| e.check_ms));
        // Deterministic counts over the cycles every run makes.
        let fixed: Vec<&Edit> = class_of(&first[..MIN_CYCLES * CYCLE], class).collect();
        let med_fixed =
            |f: &dyn Fn(&Edit) -> f64| median(&fixed.iter().map(|e| f(e)).collect::<Vec<_>>());
        m.set(
            format!("delta.dirty_rects.{l}"),
            med_fixed(&|e| e.dirty_rects as f64),
        );
        m.set(
            format!("incremental.checks_computed.{l}"),
            med_fixed(&|e| e.checks_computed as f64),
        );
        m.set(
            format!("cache.reuse_ratio.{l}"),
            med_fixed(&|e| {
                e.checks_reused as f64 / (e.checks_computed + e.checks_reused).max(1) as f64
            }),
        );
    }
    let cell: Vec<f64> = class_of(edits, Class::Cell).map(Edit::total_ms).collect();
    m.set("edit.cell_p50_ms", median(&cell));
}

fn route_totals(edits: &[Edit]) -> Vec<f64> {
    class_of(edits, Class::Route).map(Edit::total_ms).collect()
}

/// The measuring child: one session over the GDSII set-up wrote.
///
/// # Errors
///
/// Fails on unreadable input, a rejected edit or an interrupted check.
pub fn child(
    work: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
    epoch: Instant,
) -> Result<Value, String> {
    let gds = std::fs::read(work.join("layout.gds")).map_err(|e| format!("layout.gds: {e}"))?;
    let deck = util::deck()?;
    let library = odrc_gdsii::read(&gds).map_err(|e| e.to_string())?;
    let layout = Layout::from_library(&library).map_err(|e| e.to_string())?;

    // The ceiling a delta re-check should stay under: a from-scratch
    // check of the unedited layout.
    let full: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let r = Engine::sequential().check(&layout, &deck);
            std::hint::black_box(r.violations.len());
            ms_since(t)
        })
        .collect();

    let mut script = EditScript::new(&layout, seed);
    let mut session = Session::new(layout, Engine::sequential(), deck);
    let primed = session.check();
    let mut checks: Checks = vec![(None, Verdict::of(&primed.violations))];

    let mut off = Tracer::new(false, epoch, 0);
    let budget = if trace { seconds / 2.0 } else { seconds };
    let (edits, c) = run_for(&mut session, &mut script, 0, budget, &mut off)?;
    checks.extend(c);
    let sample = Sample {
        latencies_ms: route_totals(&edits),
        ops: edits.len(),
        busy_ms: edits.iter().map(Edit::total_ms).sum(),
        rss_mb: util::peak_rss_mb(),
    };
    let mut m = Metrics::default();
    m.set("core.full_check_ms", median(&full));
    let mut spans = Vec::new();
    let mut total_edits = edits.len();
    if trace {
        let mut tr = Tracer::new(true, epoch, 0);
        let (traced, c) = run_for(&mut session, &mut script, edits.len(), budget, &mut tr)?;
        checks.extend(c);
        total_edits += traced.len();
        per_layer(&traced, &edits, &mut m);
        m.set(
            "trace.overhead_ms",
            median(&route_totals(&traced)) - median(&sample.latencies_ms),
        );
        spans = tr.into_spans();
    } else {
        per_layer(&edits, &edits, &mut m);
    }
    Ok(obj([
        ("sample", sample.to_json()),
        ("metrics", m.to_json()),
        (
            "checks",
            Value::Array(
                checks
                    .iter()
                    .map(|(i, v)| {
                        Value::Array(vec![i.map_or(Value::Null, Value::from), v.to_json()])
                    })
                    .collect(),
            ),
        ),
        ("edits", Value::from(total_edits)),
        ("spans", spans_to_json(&spans)),
    ]))
}

/// Replays the edit sequence on the set-up layout through the database
/// API and compares the flat checker's verdict at every checked state.
/// Returns `(attempted, failed)`: every edit counts as attempted, and
/// a state whose verdict differs fails.
///
/// # Errors
///
/// Fails on a malformed child report or an edit the database rejects.
pub fn verify(
    prepared: &Prepared,
    seed: u64,
    deck: &RuleDeck,
    child: &Value,
) -> Result<(usize, usize), String> {
    let mut layout = prepared.layout.clone();
    let mut script = EditScript::new(&layout, seed);
    let mut failed = 0;
    let mut applied = 0usize;
    let checks = child
        .get("checks")
        .and_then(Value::as_array)
        .ok_or("child report has no checks")?;
    let mut attempted = 0;
    for c in checks {
        let pair = c.as_array().ok_or("malformed check")?;
        let at = pair.first().ok_or("malformed check")?;
        let got = pair
            .get(1)
            .and_then(Verdict::from_json)
            .ok_or("malformed verdict")?;
        let want = if *at == Value::Null {
            prepared.reference
        } else {
            let at = at
                .as_i64()
                .and_then(|i| usize::try_from(i).ok())
                .ok_or("malformed edit index")?;
            while applied <= at {
                let (_, op) = script.op(applied, &layout);
                apply_to_layout(&mut layout, op)?;
                applied += 1;
            }
            Verdict::of(&FlatChecker::new().check(&layout, deck).violations)
        };
        attempted += 1;
        if got != want {
            failed += 1;
        }
    }
    let edits = child.get("edits").and_then(Value::as_i64).unwrap_or(0) as usize;
    Ok((attempted.max(edits), failed))
}
