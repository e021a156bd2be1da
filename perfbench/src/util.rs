//! Shared pieces: the rule deck, seeded design specs, verdict digests,
//! order statistics, host facts and the JSON helpers the parent and
//! child processes talk through.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use odrc::{rule_signature, RuleDeck, Violation};
use odrc_layoutgen::{tech, DesignSpec, InjectionStats};
use odrc_serve::json::Value;
use odrc_serve::WireViolation;

/// The 10-rule deck of `odrc_bench::pipeline_deck()` in the text form
/// `odrc serve` takes. [`deck`] proves the two agree.
pub fn deck_text() -> String {
    [
        format!(
            "width layer={} min={} name=M1.W.1",
            tech::M1,
            tech::M1_WIDTH
        ),
        format!("area layer={} min={} name=M1.A.1", tech::M1, tech::M1_AREA),
        format!(
            "space layer={} min={} name=M1.S.1",
            tech::M1,
            tech::M1_SPACE
        ),
        format!(
            "space layer={} min={} projection={} name=M1.S.2",
            tech::M1,
            tech::M1_SPACE,
            tech::M1_WIDTH
        ),
        format!(
            "width layer={} min={} name=M2.W.1",
            tech::M2,
            tech::M2_WIDTH
        ),
        format!(
            "space layer={} min={} name=M2.S.1",
            tech::M2,
            tech::M2_SPACE
        ),
        format!(
            "width layer={} min={} name=M3.W.1",
            tech::M3,
            tech::M3_WIDTH
        ),
        format!(
            "space layer={} min={} name=M3.S.1",
            tech::M3,
            tech::M3_SPACE
        ),
        format!(
            "enclosure inner={} outer={} min={} name=V1.M1.EN.1",
            tech::V1,
            tech::M1,
            tech::V1_M1_ENCLOSURE
        ),
        format!(
            "enclosure inner={} outer={} min={} name=V2.M2.EN.1",
            tech::V2,
            tech::M2,
            tech::V2_M2_ENCLOSURE
        ),
    ]
    .join("\n")
}

/// The benchmark deck, parsed from [`deck_text`].
///
/// # Errors
///
/// Fails when the text does not parse or differs, rule by rule, from
/// `odrc_bench::pipeline_deck()`.
pub fn deck() -> Result<RuleDeck, String> {
    let parsed = odrc::parse_deck(&deck_text()).map_err(|e| format!("deck text: {e}"))?;
    let sigs = |d: &RuleDeck| d.rules().iter().map(rule_signature).collect::<Vec<_>>();
    if sigs(&parsed) != sigs(&odrc_bench::pipeline_deck()) {
        return Err("deck text differs from pipeline_deck()".to_string());
    }
    Ok(parsed)
}

/// SplitMix64: the seed mixer for everything derived from `--seed`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A paper design scaled by `scale`, with the workload seed (and a
/// per-variant salt) written into `DesignSpec::seed`.
pub fn design(name: &str, scale: usize, seed: u64, variant: u64) -> DesignSpec {
    let mut spec = DesignSpec::paper(name)
        .unwrap_or_else(|| panic!("{name} is a paper design"))
        .scaled(scale);
    spec.seed = mix(spec.seed ^ mix(seed) ^ variant.wrapping_mul(0xA24B_AED4_963E_E407));
    spec
}

/// A verdict: the violation count and a digest of the canonical
/// violation list in the CLI's CSV report form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    pub count: usize,
    pub digest: u64,
}

impl Verdict {
    pub fn of_wire(violations: &[WireViolation]) -> Verdict {
        let mut text = String::new();
        for v in violations {
            text.push_str(&v.to_csv_row());
            text.push('\n');
        }
        Verdict {
            count: violations.len(),
            digest: odrc_infra::fnv1a64(text.as_bytes()),
        }
    }

    pub fn of(violations: &[Violation]) -> Verdict {
        let wire: Vec<WireViolation> = violations
            .iter()
            .map(|v| {
                WireViolation::from_json(&odrc_serve::wire::violation_to_json(v))
                    .expect("the wire form of a violation parses back")
            })
            .collect();
        Verdict::of_wire(&wire)
    }

    pub fn to_json(self) -> Value {
        Value::Array(vec![
            Value::from(self.count),
            Value::from(format!("{:016x}", self.digest)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Verdict> {
        let a = v.as_array()?;
        Some(Verdict {
            count: usize::try_from(a.first()?.as_i64()?).ok()?,
            digest: u64::from_str_radix(a.get(1)?.as_str()?, 16).ok()?,
        })
    }
}

/// The sanity floor under the oracle: per rule family, the violations
/// found must be at least what the generator injected. Only families
/// the deck checks in full are compared: the generator's enclosure
/// faults offset V1 inside M2 and V2 inside M3, which this deck (V1
/// in M1, V2 in M2) does not check.
pub fn check_injection_floor(
    violations: &[Violation],
    injected: &InjectionStats,
) -> Result<(), String> {
    let mut by_kind: BTreeMap<String, usize> = BTreeMap::new();
    for v in violations {
        *by_kind.entry(v.kind.to_string()).or_default() += 1;
    }
    for (kind, floor) in [
        ("width", injected.width),
        ("space", injected.space),
        ("area", injected.area),
    ] {
        let found = by_kind.get(kind).copied().unwrap_or(0);
        if found < floor {
            return Err(format!("{kind}: found {found} < injected {floor}"));
        }
    }
    Ok(())
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The `q`-quantile (0..=1) of `xs`; NaN for an empty sample. See
/// [`weighted_quantile`].
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let weighted: Vec<(f64, f64)> = xs.iter().map(|&x| (x, 1.0)).collect();
    weighted_quantile(&weighted, q)
}

/// The `q`-quantile of `(value, weight)` pairs: each sorted value sits
/// at the middle of its share of the total weight, and quantiles
/// between two values interpolate linearly (beyond the outermost, they
/// take the outermost value). With equal weights the median is the
/// usual one.
pub fn weighted_quantile(xs: &[(f64, f64)], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = v.iter().map(|x| x.1).sum();
    let target = q.clamp(0.0, 1.0) * total;
    let mut before = 0.0;
    let mut prev: Option<(f64, f64)> = None;
    for &(x, w) in &v {
        let at = before + w / 2.0;
        if target <= at {
            return match prev {
                Some((px, pat)) if at > pat => px + (x - px) * (target - pat) / (at - pat),
                _ => x,
            };
        }
        prev = Some((x, at));
        before += w;
    }
    prev.map_or(f64::NAN, |(x, _)| x)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The process's peak resident set in MiB (0 where unsupported).
pub fn peak_rss_mb() -> f64 {
    odrc_infra::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

/// The commit checked out at `root`, read from `.git` without running
/// git (a checkout without `.git` reports "unknown").
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(name) => match std::fs::read_to_string(git.join(name)) {
            Ok(id) => id.trim().to_string(),
            Err(_) => std::fs::read_to_string(git.join("packed-refs"))
                .ok()?
                .lines()
                .find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_string()))?,
        },
    };
    Some(id.chars().take(12).collect())
}

/// Host facts every result is stamped with.
pub fn host_facts(root: &Path, seed: u64) -> Vec<(String, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("nproc".to_string(), nproc().to_string()),
        ("cpu".to_string(), cpu),
        ("rustc".to_string(), env!("PERFBENCH_RUSTC").to_string()),
        ("profile".to_string(), env!("PERFBENCH_PROFILE").to_string()),
        (
            "commit".to_string(),
            git_commit(root).unwrap_or_else(|| "unknown".to_string()),
        ),
        ("seed".to_string(), seed.to_string()),
    ]
}

/// Host parallelism, as the workloads size clients and servers by it.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The end-to-end sample one measuring child reports: the latency of
/// every timed operation, how many operations ran and the time they
/// took (the base of `ops_per_s`), and the child's peak resident set.
#[derive(Debug, Default, Clone)]
pub struct Sample {
    pub latencies_ms: Vec<f64>,
    pub ops: usize,
    pub busy_ms: f64,
    pub rss_mb: f64,
}

impl Sample {
    pub fn to_json(&self) -> Value {
        odrc_serve::json::obj([
            (
                "latencies_ms",
                Value::Array(self.latencies_ms.iter().map(|&x| Value::from(x)).collect()),
            ),
            ("ops", Value::from(self.ops)),
            ("busy_ms", Value::from(self.busy_ms)),
            ("rss_mb", Value::from(self.rss_mb)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Sample> {
        Some(Sample {
            latencies_ms: v
                .get("latencies_ms")?
                .as_array()?
                .iter()
                .filter_map(Value::as_f64)
                .collect(),
            ops: usize::try_from(v.get("ops")?.as_i64()?).ok()?,
            busy_ms: v.get("busy_ms")?.as_f64()?,
            rss_mb: v.get("rss_mb")?.as_f64()?,
        })
    }
}

/// End-to-end metrics over the samples of all measuring children, each
/// labelled with its group (a `signoff` configuration): latency
/// quantiles over the pooled operations with every group weighing the
/// same however many operations it ran, throughput over the pooled
/// time, and the largest of the children's peak resident sets (the
/// memory the workload needs).
pub fn end_to_end(samples: &[(&str, Sample)]) -> Metrics {
    let ops_of = |group: &str| -> usize {
        samples
            .iter()
            .filter(|(g, _)| *g == group)
            .map(|(_, s)| s.latencies_ms.len())
            .sum()
    };
    let lat: Vec<(f64, f64)> = samples
        .iter()
        .flat_map(|(g, s)| {
            let w = 1.0 / ops_of(g).max(1) as f64;
            s.latencies_ms.iter().map(move |&x| (x, w))
        })
        .collect();
    let ops: usize = samples.iter().map(|(_, s)| s.ops).sum();
    let busy_ms: f64 = samples.iter().map(|(_, s)| s.busy_ms).sum();
    let rss = samples.iter().map(|(_, s)| s.rss_mb).fold(0.0, f64::max);
    let mut m = Metrics::default();
    m.set("p50_ms", weighted_quantile(&lat, 0.5));
    m.set("p90_ms", weighted_quantile(&lat, 0.9));
    m.set("ops_per_s", 1e3 * ops as f64 / busy_ms);
    m.set("peak_rss_mb", rss);
    m
}

/// Named numbers a process reports: `(name, value)` in report order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn to_json(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(n, v)| (n.clone(), Value::from(*v)))
                .collect(),
        )
    }

    pub fn from_json(v: &Value) -> Metrics {
        match v {
            Value::Object(pairs) => Metrics(
                pairs
                    .iter()
                    .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
                    .collect(),
            ),
            _ => Metrics::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deck_text_matches_pipeline_deck() {
        assert_eq!(deck().expect("deck").rules().len(), 10);
    }

    #[test]
    fn weighted_quantile_weighs_groups_equally() {
        // Equal weights reproduce the closest-ranks interpolation.
        let xs = [3.0, 1.0, 2.0, 10.0];
        let even: Vec<(f64, f64)> = xs.iter().map(|&x| (x, 1.0)).collect();
        assert_eq!(weighted_quantile(&even, 0.5), 2.5);
        // Three fast operations of one group weigh as much as one slow
        // operation of another: the median sits between the groups.
        let mixed = [
            (1.0, 1.0 / 3.0),
            (1.0, 1.0 / 3.0),
            (1.0, 1.0 / 3.0),
            (9.0, 1.0),
        ];
        let m = weighted_quantile(&mixed, 0.5);
        assert!(m > 1.0 && m < 9.0, "{m}");
        assert!(weighted_quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn verdict_round_trips_through_json() {
        let v = Verdict {
            count: 3,
            digest: u64::MAX - 5,
        };
        assert_eq!(Verdict::from_json(&v.to_json()), Some(v));
    }
}
