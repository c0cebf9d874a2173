//! Metric names, the human-readable report and the final JSON line.

use crate::host::{HostSpeed, REFERENCE_MS};
use crate::stats::percentile;
use crate::tracer::Tracer;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("events_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("advise_p50_ms", "ms"),
    ("advise_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Layer calls timed by the traced run: each reports `.calls` and
/// `.busy_ms`.
const SPANS: [&str; 21] = [
    "serve.proto.parse_request",
    "serve.journal.append",
    "serve.journal.commit",
    "serve.engine.ingest",
    "serve.engine.tick",
    "serve.engine.advise_now",
    "serve.engine.finish",
    "telemetry.folded_snapshot",
    "stream.observe",
    "stream.approx_pattern",
    "core.consult_with_pattern",
    "core.demand_fit",
    "core.allocate_demands",
    "core.pattern.analyze",
    "kvsim.server.build",
    "kvsim.server.run",
    "core.order",
    "core.model.fit",
    "core.estimate.curve",
    "core.advisor.recommend",
    "core.verify",
];

/// Counts the traced run accumulates (exact work done, not time).
const COUNTS: [(&str, &str); 14] = [
    ("serve.journal.append.bytes", "B"),
    ("serve.snapshots", "count"),
    ("serve.replan.runs", "count"),
    ("serve.replan.rows", "count"),
    ("serve.advise.rows", "count"),
    ("serve.tenant.events", "count"),
    ("serve.ingest.dropped", "count"),
    ("serve.ingest.rejected", "count"),
    ("kvsim.server.run.sim_requests", "count"),
    ("hybridmem.llc.hits", "count"),
    ("hybridmem.llc.misses", "count"),
    ("hybridmem.fast.accesses", "count"),
    ("hybridmem.slow.accesses", "count"),
    ("hybridmem.sim_s", "s"),
];

/// Metrics derived from spans by the workloads themselves.
const DERIVED: [(&str, &str); 5] = [
    ("serve.engine.tick.p50_ms", "ms"),
    ("serve.engine.tick.p90_ms", "ms"),
    ("serve.engine.tick.self_ms", "ms"),
    ("kvsim.server.run.ns_per_sim_request", "ns"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric with its unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all = Vec::new();
    for span in SPANS {
        all.push((format!("{span}.calls"), "count"));
        all.push((format!("{span}.busy_ms"), "ms"));
    }
    for (name, unit) in COUNTS.iter().chain(&DERIVED) {
        all.push((name.to_string(), *unit));
    }
    all
}

/// One measured metric.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: String,
    samples: usize,
    what: String,
}

/// Metrics measured by a run, plus free-form notes for the log.
#[derive(Debug, Default)]
pub struct Metrics {
    items: Vec<Metric>,
    notes: Vec<String>,
}

impl Metrics {
    /// Record a metric from `samples` samples.
    pub fn put(&mut self, name: &str, value: f64, unit: &str, samples: usize, what: &str) {
        self.items.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
            what: what.to_string(),
        });
    }

    /// Add a line to the log.
    pub fn note(&mut self, line: &str) {
        self.notes.push(line.to_string());
    }

    /// Scale every time and rate to the reference host speed (see
    /// `host.rs`): times are divided by the host's slowness, rates
    /// multiplied by it. The raw values go to the log.
    pub fn at_reference_speed(&mut self, host: &HostSpeed) {
        let slowness = host.slowness();
        let mut raw = Vec::new();
        for m in &mut self.items {
            let factor = match m.unit.as_str() {
                "1/s" => slowness,
                "ms" | "s" => 1.0 / slowness,
                _ => continue,
            };
            raw.push(format!("{} = {} {}", m.name, m.value, m.unit));
            m.value *= factor;
            m.what.push_str("; at reference host speed");
        }
        self.note(&format!(
            "host slowness {slowness:.4} (median of {} reference-loop timings over {REFERENCE_MS} ms); raw: {}",
            host.samples(),
            raw.join(", ")
        ));
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.items.iter().find(|m| m.name == name)
    }
}

/// Span calls, busy time and counts from a traced run, plus the tick
/// and simulator figures derived from them.
pub fn layer_metrics(tracer: &Tracer, m: &mut Metrics) {
    for span in SPANS {
        let s = tracer.span(span);
        m.put(
            &format!("{span}.calls"),
            s.calls as f64,
            "count",
            1,
            "calls",
        );
        m.put(
            &format!("{span}.busy_ms"),
            s.busy_ns as f64 / 1e6,
            "ms",
            s.calls as usize,
            "host time inside the calls",
        );
    }
    for (name, unit) in COUNTS {
        m.put(name, tracer.counted(name), unit, 1, "count");
    }
    let tick = tracer.span("serve.engine.tick");
    let ms: Vec<f64> = tick.samples.iter().map(|ns| ns / 1e6).collect();
    if !ms.is_empty() {
        // A run has tens of ticks: p90 is reported though fewer than
        // ten samples may lie beyond it.
        m.put(
            "serve.engine.tick.p50_ms",
            percentile(&ms, 0.50),
            "ms",
            ms.len(),
            "tick duration p50",
        );
        m.put(
            "serve.engine.tick.p90_ms",
            percentile(&ms, 0.90),
            "ms",
            ms.len(),
            "tick duration p90",
        );
    }
    let run = tracer.span("kvsim.server.run");
    let sim_requests = tracer.counted("kvsim.server.run.sim_requests");
    if sim_requests > 0.0 {
        m.put(
            "kvsim.server.run.ns_per_sim_request",
            run.busy_ns as f64 / sim_requests,
            "ns",
            run.calls as usize,
            "host ns per simulated request",
        );
    }
}

/// A workload run's result.
#[derive(Debug)]
pub struct Outcome {
    /// All output checks passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// First failure reasons.
    pub reasons: Vec<String>,
    /// The measurements.
    pub metrics: Metrics,
}

impl Outcome {
    /// Print the human-readable report and, last, the JSON result line
    /// carrying this mode's metric set from `BENCHMARK.json`.
    pub fn print(&self, traced: bool) -> Result<(), String> {
        for note in &self.metrics.notes {
            println!("# {note}");
        }
        for reason in &self.reasons {
            println!("# failure: {reason}");
        }
        let names: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        let mut json = Vec::new();
        for (name, unit) in &names {
            let (value, samples, what) = match self.metrics.get(name) {
                Some(m) if m.unit == *unit => (m.value, m.samples, m.what.as_str()),
                Some(m) => return Err(format!("{name} measured in {}, expected {unit}", m.unit)),
                None if traced => (0.0, 0, "not exercised by this workload"),
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("{name} is not finite: {value}"));
            }
            println!("metric {name} = {value} {unit} (n={samples}; {what})");
            json.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "failed_frac = {frac} ({} failed / {} attempted)",
            self.failed, self.attempted
        );
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            json.join(",")
        );
        Ok(())
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric entries of one `BENCHMARK.json` list, as (name, unit).
    fn listed(doc: &str, key: &str) -> Vec<(String, String)> {
        let start = doc.find(&format!("\"{key}\"")).expect("key present");
        let body = &doc[start..];
        let body = &body[body.find('[').unwrap()..body.find(']').unwrap()];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at = entry.find(&format!("\"{f}\"")).unwrap() + f.len() + 2;
                    let rest = &entry[at..];
                    let open = rest.find('"').unwrap() + 1;
                    let close = open + rest[open..].find('"').unwrap();
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let doc = include_str!("../../BENCHMARK.json");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(doc, "per_layer"), layers);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "{n}"
            );
        }
    }

    #[test]
    fn reference_speed_scales_times_and_rates_only() {
        let mut m = Metrics::default();
        m.put("events_per_s", 100.0, "1/s", 1, "");
        m.put("op_p50_ms", 4.0, "ms", 1, "");
        m.put("setup_s", 2.0, "s", 1, "");
        m.put("peak_rss_mib", 50.0, "MiB", 1, "");
        let mut host = HostSpeed::new();
        for _ in 0..4 {
            host.sample();
        }
        let slowness = host.slowness();
        m.at_reference_speed(&host);
        let value = |n: &str| m.get(n).unwrap().value;
        assert_eq!(value("events_per_s"), 100.0 * slowness);
        assert_eq!(value("op_p50_ms"), 4.0 / slowness);
        assert_eq!(value("setup_s"), 2.0 / slowness);
        assert_eq!(value("peak_rss_mib"), 50.0);
        assert!(m.notes[0].contains("raw: events_per_s = 100 1/s"));
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error() {
        let out = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            reasons: Vec::new(),
            metrics: Metrics::default(),
        };
        assert!(out.print(false).is_err());
    }
}
