//! Per-layer metrics of one traced round: spans and counters the program
//! already emits, plus the benchmark's own `bench.*` spans and the
//! client-side clock. Rung and reorder times come from spans, never from
//! `ResourceStats::duration` (see the README for why).

use crate::reference::{rung_name, LADDER};
use crate::serve::ServiceCounters;
use crate::{median, Sample};
use bbec_trace::{AttrValue, Trace, TraceEvent};
use std::collections::{BTreeMap, HashMap};

/// Every per-layer metric, in report order, with its unit.
pub const METRICS: [(&str, &str); 32] = [
    ("netlist.parse_ms", "ms"),
    ("preprocess.ms", "ms"),
    ("preprocess.gates_removed", "count"),
    ("parallel.shards", "count"),
    ("parallel.overhead_ms", "ms"),
    ("rung.rp_ms", "ms"),
    ("rung.01x_ms", "ms"),
    ("rung.loc_ms", "ms"),
    ("rung.oe_ms", "ms"),
    ("rung.ie_ms", "ms"),
    ("rung.decided.rp", "count"),
    ("rung.decided.01x", "count"),
    ("rung.decided.loc", "count"),
    ("rung.decided.oe", "count"),
    ("rung.decided.ie", "count"),
    ("rung.budget_abort_frac", "ratio"),
    ("sim.patterns_per_s", "1/s"),
    ("symbolic.build_ms", "ms"),
    ("bdd.apply_steps", "count"),
    ("bdd.peak_live_nodes", "count"),
    ("bdd.cache_hit_rate", "ratio"),
    ("bdd.reorder_ms", "ms"),
    ("bdd.reorder_passes", "count"),
    ("bdd.gc_ms", "ms"),
    ("bdd.gc_passes", "count"),
    ("service.full_hit_rate", "ratio"),
    ("service.cone_hit_rate", "ratio"),
    ("service.collisions", "count"),
    ("service.pool_reuse_rate", "ratio"),
    ("service.cones_rechecked", "count"),
    ("service.hit_latency_p50_ms", "ms"),
    ("service.miss_latency_p50_ms", "ms"),
];

/// `trace.overhead_ratio` is computed from two rounds, not from one trace.
pub const OVERHEAD: (&str, &str) = ("trace.overhead_ratio", "ratio");

struct Span<'a> {
    name: &'static str,
    parent: Option<u64>,
    start_us: u64,
    dur_us: u64,
    attrs: &'a [(String, AttrValue)],
}

fn attr<'a>(span: &Span<'a>, key: &str) -> Option<&'a AttrValue> {
    span.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn attr_u64(span: &Span, key: &str) -> u64 {
    match attr(span, key) {
        Some(AttrValue::U64(v)) => *v,
        _ => 0,
    }
}

/// What one traced round measured.
pub struct RoundLayers {
    /// Per-layer values, keyed by metric name (see [`METRICS`]).
    pub values: BTreeMap<&'static str, f64>,
    /// Counts that must repeat exactly when the same round runs again.
    pub counts: BTreeMap<String, u64>,
    /// Per ladder rung: span wall time and `ResourceStats::duration` sum,
    /// both in ms, over the checks the honesty self-test covers.
    pub rung_span_ms: [f64; 5],
    pub rung_stats_ms: [f64; 5],
}

/// Reduces one traced round. Sample `k` of a served round is request
/// `q{k}`; `service` is `None` for the check workloads.
pub fn round_layers(
    trace: &Trace,
    samples: &[Sample],
    service: Option<&ServiceCounters>,
) -> RoundLayers {
    let mut spans: HashMap<u64, Span> = HashMap::new();
    let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
    let mut peak_nodes = 0u64;
    for e in trace.events() {
        match e {
            TraceEvent::Span { name, id, parent, start_us, dur_us, attrs, .. } => {
                spans.insert(
                    *id,
                    Span { name, parent: *parent, start_us: *start_us, dur_us: *dur_us, attrs },
                );
            }
            TraceEvent::Counter { name, value, .. } => {
                *counters.entry(name.as_str()).or_default() += value
            }
            TraceEvent::Histogram { name, max, .. } if name == "bdd.live_peak" => {
                peak_nodes = peak_nodes.max(*max)
            }
            _ => {}
        }
    }
    let ms = |name: &str| {
        spans.values().filter(|s| s.name == name).map(|s| s.dur_us as f64 / 1e3).sum::<f64>() + 0.0
    };
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();

    // Front end. The service has no parse span of its own: its share is the
    // client round trip outside the `service.request` span (JSON decode,
    // BLIF parse, carve, response encode).
    let served = service.is_some();
    let parse_ms = if served {
        let inner: HashMap<&str, f64> = spans
            .values()
            .filter(|s| s.name == "service.request")
            .filter_map(|s| match attr(s, "id") {
                Some(AttrValue::Str(id)) => Some((id.as_str(), s.dur_us as f64 / 1e3)),
                _ => None,
            })
            .collect();
        samples
            .iter()
            .enumerate()
            .map(|(k, s)| {
                (s.latency_ms - inner.get(format!("q{k}").as_str()).copied().unwrap_or(0.0))
                    .max(0.0)
            })
            .sum()
    } else {
        ms("bench.parse")
    };
    v.insert("netlist.parse_ms", parse_ms);
    v.insert("preprocess.ms", ms("core.preprocess"));
    let removed: u64 = spans
        .values()
        .filter(|s| s.name == "core.preprocess")
        .map(|s| {
            (attr_u64(s, "spec_gates_before") + attr_u64(s, "impl_gates_before"))
                .saturating_sub(attr_u64(s, "spec_gates_after") + attr_u64(s, "impl_gates_after"))
        })
        .sum();
    v.insert("preprocess.gates_removed", removed as f64);

    // Sharded phase: self time is the phase span minus the part of its
    // interval that the rung spans of its shards cover.
    let phases: Vec<(u64, &Span)> = spans
        .iter()
        .filter(|(_, s)| s.name == "core.parallel_phase")
        .map(|(&id, s)| (id, s))
        .collect();
    let shards: u64 = phases.iter().map(|(_, s)| attr_u64(s, "shards")).sum();
    v.insert("parallel.shards", shards as f64);
    counts.insert("parallel.shards".to_string(), shards);
    let mut covered: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.values().filter(|s| s.name == "core.ladder_rung") {
        let mut up = s.parent;
        while let Some(id) = up {
            let Some(p) = spans.get(&id) else { break };
            if p.name == "core.parallel_phase" {
                covered.entry(id).or_default().push((s.start_us, s.start_us + s.dur_us));
                break;
            }
            up = p.parent;
        }
    }
    let overhead_us: u64 = phases
        .iter()
        .map(|(id, p)| p.dur_us.saturating_sub(union_len(covered.remove(id).unwrap_or_default())))
        .sum();
    v.insert("parallel.overhead_ms", overhead_us as f64 / 1e3);

    // Rungs, from spans; the honesty self-test sets them against the
    // ResourceStats durations of the same checks.
    let mut rung_span_ms = [0.0; 5];
    for s in spans.values().filter(|s| s.name == "core.ladder_rung") {
        if let Some(AttrValue::Str(label)) = attr(s, "method") {
            if let Some(k) = LADDER.iter().position(|m| m.label() == label) {
                rung_span_ms[k] += s.dur_us as f64 / 1e3;
            }
        }
    }
    for (k, m) in LADDER.iter().enumerate() {
        v.insert(rung_metric(*m), rung_span_ms[k]);
    }
    let mut rung_stats_ms = [0.0; 5];
    let mut decided = [0u64; 5];
    let mut aborted = 0u64;
    for s in samples {
        let Ok(obs) = &s.result else { continue };
        if s.cold {
            for (k, d) in obs.stats_ms.iter().enumerate() {
                rung_stats_ms[k] += d;
            }
        }
        if let Some(k) = obs.decided().and_then(|m| LADDER.iter().position(|&l| l == m)) {
            decided[k] += 1;
        }
        aborted += u64::from(!obs.aborted.is_empty());
    }
    for (k, m) in LADDER.iter().enumerate() {
        let name = decided_metric(*m);
        v.insert(name, decided[k] as f64);
        counts.insert(name.to_string(), decided[k]);
    }
    v.insert("rung.budget_abort_frac", aborted as f64 / samples.len().max(1) as f64);
    counts.insert("rung.budget_aborts".to_string(), aborted);

    let rp_s = rung_span_ms[0] / 1e3;
    v.insert(
        "sim.patterns_per_s",
        if rp_s > 0.0 { counter("sim.patterns") as f64 / rp_s } else { 0.0 },
    );
    v.insert("symbolic.build_ms", ms("core.sim") + ms("core.sim01x"));

    // BDD package.
    let (mut hits, mut misses) = (0u64, 0u64);
    for (name, value) in &counters {
        if name.starts_with("bdd.cache.") && name.ends_with(".hits") {
            hits += value;
        } else if name.starts_with("bdd.cache.") && name.ends_with(".misses") {
            misses += value;
        }
    }
    v.insert("bdd.apply_steps", counter("bdd.apply_steps") as f64);
    v.insert("bdd.peak_live_nodes", peak_nodes as f64);
    v.insert(
        "bdd.cache_hit_rate",
        if hits + misses > 0 { hits as f64 / (hits + misses) as f64 } else { 0.0 },
    );
    v.insert("bdd.reorder_ms", ms("bdd.reorder"));
    v.insert("bdd.reorder_passes", counter("bdd.reorder.passes") as f64);
    v.insert("bdd.gc_ms", ms("bdd.gc"));
    v.insert("bdd.gc_passes", counter("bdd.gc.passes") as f64);
    counts.insert("bdd.apply_steps".to_string(), counter("bdd.apply_steps"));
    counts.insert("bdd.peak_live_nodes".to_string(), peak_nodes);
    counts.insert("bdd.cache.hits".to_string(), hits);
    counts.insert("bdd.cache.misses".to_string(), misses);

    // Service.
    let ratio = |a: u64, b: u64| if a + b > 0 { a as f64 / (a + b) as f64 } else { 0.0 };
    let rechecked: u64 = samples.iter().filter(|s| !s.cached).map(|s| s.cones_rechecked).sum();
    let lat = |cached: bool| {
        median(
            &samples
                .iter()
                .filter(|s| s.cached == cached)
                .map(|s| s.latency_ms)
                .collect::<Vec<_>>(),
        )
    };
    match service {
        Some(c) => {
            v.insert("service.full_hit_rate", ratio(c.cache.full_hits, c.cache.full_misses));
            v.insert("service.cone_hit_rate", ratio(c.cache.cone_hits, c.cache.cone_misses));
            v.insert("service.collisions", c.cache.collisions as f64);
            v.insert("service.pool_reuse_rate", ratio(c.pool.hits, c.pool.misses));
            v.insert("service.cones_rechecked", rechecked as f64);
            v.insert("service.hit_latency_p50_ms", lat(true));
            v.insert("service.miss_latency_p50_ms", lat(false));
            for (name, value) in [
                ("service.full_hits", c.cache.full_hits),
                ("service.full_misses", c.cache.full_misses),
                ("service.cone_hits", c.cache.cone_hits),
                ("service.cone_misses", c.cache.cone_misses),
                ("service.cones_rechecked", rechecked),
            ] {
                counts.insert(name.to_string(), value);
            }
        }
        None => {
            for name in METRICS.iter().map(|m| m.0).filter(|n| n.starts_with("service.")) {
                v.insert(name, 0.0);
            }
        }
    }
    RoundLayers { values: v, counts, rung_span_ms, rung_stats_ms }
}

pub fn rung_metric(m: bbec_core::Method) -> &'static str {
    match rung_name(m) {
        "rp" => "rung.rp_ms",
        "01x" => "rung.01x_ms",
        "loc" => "rung.loc_ms",
        "oe" => "rung.oe_ms",
        _ => "rung.ie_ms",
    }
}

fn decided_metric(m: bbec_core::Method) -> &'static str {
    match rung_name(m) {
        "rp" => "rung.decided.rp",
        "01x" => "rung.decided.01x",
        "loc" => "rung.decided.loc",
        "oe" => "rung.decided.oe",
        _ => "rung.decided.ie",
    }
}

/// Total length of a set of intervals.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut end) = (0u64, 0u64);
    for (a, b) in intervals {
        let a = a.max(end);
        if b > a {
            total += b - a;
            end = b;
        }
    }
    total
}
