//! In-memory span recording around the calls the benchmark makes into
//! each layer, written out at the end as Chrome trace-event JSON
//! (`chrome://tracing`, Perfetto). Spans live in the benchmark's own
//! code; the program itself is not instrumented.

use std::collections::BTreeMap;
use std::time::Instant;

use odrc_serve::json::{obj, Value};

/// One closed span. Times are microseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The iteration, edit or job the span belongs to.
    pub op: u64,
    /// Recording thread (a client index in `serve-mixed`).
    pub tid: u64,
}

/// A per-thread span recorder. When off, every call is a no-op.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, tid: u64) -> Tracer {
        Tracer {
            on,
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str, op: u64) {
        if !self.on {
            return;
        }
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            op,
            tid: self.tid,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_us = self.now_us();
        let i = self.open.pop().expect("end() matches a begin()");
        self.spans[i].end_us = end_us;
    }

    /// Records `f` as one span.
    pub fn scope<R>(&mut self, name: &str, op: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, op);
        let r = f();
        self.end();
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends another tracer's spans, re-basing their parent indices.
pub fn append(dst: &mut Vec<Span>, src: Vec<Span>) {
    let base = dst.len();
    dst.extend(src.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Spans to the child → parent wire form.
pub fn spans_to_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                Value::Array(vec![
                    Value::from(s.name.as_str()),
                    Value::from(s.start_us),
                    Value::from(s.end_us),
                    Value::Int(s.parent.map_or(-1, |p| p as i64)),
                    Value::from(s.op),
                    Value::from(s.tid),
                ])
            })
            .collect(),
    )
}

/// Parses [`spans_to_json`], shifting every time by `offset_us`.
pub fn spans_from_json(v: &Value, offset_us: f64) -> Vec<Span> {
    let mut out = Vec::new();
    for s in v.as_array().unwrap_or(&[]) {
        let Some(a) = s.as_array() else { continue };
        let num = |i: usize| a.get(i).and_then(Value::as_f64).unwrap_or(0.0);
        out.push(Span {
            name: a.first().and_then(Value::as_str).unwrap_or("?").to_string(),
            start_us: num(1) + offset_us,
            end_us: num(2) + offset_us,
            parent: usize::try_from(num(3) as i64).ok(),
            op: num(4) as u64,
            tid: num(5) as u64,
        });
    }
    out
}

/// Self time per span name in microseconds: each span's duration minus
/// the part its direct children cover (children of one span never
/// overlap — they come from one thread's call stack).
pub fn self_times_us(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child_us = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.end_us - s.start_us;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_us) {
        *out.entry(s.name.clone()).or_insert(0.0) += (s.end_us - s.start_us - c).max(0.0);
    }
    out
}

/// Number of top-level spans (the timed operations).
pub fn top_level(spans: &[Span]) -> usize {
    spans.iter().filter(|s| s.parent.is_none()).count()
}

/// One process's spans for the written trace.
pub struct Lane {
    pub pid: u64,
    pub label: String,
    pub spans: Vec<Span>,
}

/// Renders a Chrome trace-event document: one complete (`"ph":"X"`)
/// event per span, a process-name record per lane, and the host facts
/// under `otherData`.
pub fn chrome_json(lanes: &[Lane], facts: &[(String, String)]) -> String {
    let mut events = Vec::new();
    for lane in lanes {
        events.push(obj([
            ("name", Value::from("process_name")),
            ("ph", Value::from("M")),
            ("pid", Value::from(lane.pid)),
            ("args", obj([("name", Value::from(lane.label.as_str()))])),
        ]));
        for (i, s) in lane.spans.iter().enumerate() {
            events.push(obj([
                ("name", Value::from(s.name.as_str())),
                (
                    "cat",
                    Value::from(s.name.split('.').next().unwrap_or("bench")),
                ),
                ("ph", Value::from("X")),
                ("ts", Value::from(s.start_us)),
                ("dur", Value::from(s.end_us - s.start_us)),
                ("pid", Value::from(lane.pid)),
                ("tid", Value::from(s.tid)),
                (
                    "args",
                    obj([
                        ("id", Value::from(i)),
                        ("parent", Value::Int(s.parent.map_or(-1, |p| p as i64))),
                        ("op", Value::from(s.op)),
                    ]),
                ),
            ]));
        }
    }
    obj([
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::from("ms")),
        (
            "otherData",
            Value::Object(
                facts
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::from(v.as_str())))
                    .collect(),
            ),
        ),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "top".into(),
                start_us: 0.0,
                end_us: 100.0,
                parent: None,
                op: 0,
                tid: 0,
            },
            Span {
                name: "a".into(),
                start_us: 10.0,
                end_us: 40.0,
                parent: Some(0),
                op: 0,
                tid: 0,
            },
            Span {
                name: "a".into(),
                start_us: 50.0,
                end_us: 70.0,
                parent: Some(0),
                op: 0,
                tid: 0,
            },
        ];
        let st = self_times_us(&spans);
        assert_eq!(st["top"], 50.0);
        assert_eq!(st["a"], 50.0);
        assert_eq!(top_level(&spans), 1);
        let back = spans_from_json(&spans_to_json(&spans), 0.0);
        assert_eq!(back.len(), 3);
        assert_eq!(back[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        t.scope("x", 1, || ());
        assert!(t.into_spans().is_empty());
    }
}
