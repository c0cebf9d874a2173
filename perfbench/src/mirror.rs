//! The serve engine's tick, re-enacted from outside so the traced run can
//! split a tick into its layers. Each tenant gets a mirror
//! `StreamProfiler` fed the same events in the same order; a mirror tick
//! drains them the way `Tenant::on_event` does (advise at `Initial`
//! epochs, reset on significant drift), then re-plans the shared budget
//! from `approx_pattern` + `Advisor::demand_with_pattern` +
//! `mnemo::multi::allocate_demands`. The rows it predicts must equal the
//! rows the engine emitted, which checks that the split timed the same
//! work the engine did.

use crate::tracer::Tracer;
use mnemo::advisor::{Advisor, DegradedReason, Recommendation, ResilientRecommendation};
use mnemo::multi::TenantDemand;
use mnemo::Baselines;
use mnemo_serve::proto::{self, EventV1};
use mnemo_serve::ServeConfig;
use mnemo_stream::{Drift, StreamProfiler};
use std::collections::BTreeMap;
use std::time::Instant;
use ycsb::AccessEvent;

struct MirrorTenant {
    name: String,
    profiler: StreamProfiler,
    pending: Option<Drift>,
    queue: Vec<AccessEvent>,
}

/// Mirror of the engine state that decides advise and re-plan rows.
pub struct Mirror {
    config: ServeConfig,
    advisor: Advisor,
    baselines: Baselines,
    tenants: Vec<MirrorTenant>,
    names: BTreeMap<String, usize>,
    ticks: u64,
}

impl Mirror {
    /// A mirror of an engine built from `config`, whose calibration
    /// produced `baselines`.
    pub fn new(config: &ServeConfig, baselines: Baselines) -> Mirror {
        Mirror {
            advisor: Advisor::new(config.advisor.clone()),
            config: config.clone(),
            baselines,
            tenants: Vec::new(),
            names: BTreeMap::new(),
            ticks: 0,
        }
    }

    fn tenant(&mut self, name: &str) -> usize {
        if let Some(&i) = self.names.get(name) {
            return i;
        }
        self.tenants.push(MirrorTenant {
            name: name.to_string(),
            profiler: StreamProfiler::new(self.config.stream),
            pending: None,
            queue: Vec::new(),
        });
        self.names.insert(name.to_string(), self.tenants.len() - 1);
        self.tenants.len() - 1
    }

    /// Queue one ingested event (the workloads never fill a queue).
    pub fn offer(&mut self, event: &EventV1) {
        let i = self.tenant(&event.tenant);
        self.tenants[i].queue.push(AccessEvent {
            key: event.key,
            op: event.op,
            bytes: event.bytes,
        });
    }

    /// One tick: the rows the engine should have emitted for it.
    pub fn tick(&mut self, tracer: &mut Tracer) -> Vec<String> {
        self.ticks += 1;
        let mut rows = Vec::new();
        for i in 0..self.tenants.len() {
            let events = std::mem::take(&mut self.tenants[i].queue);
            // `observe` is too short to time per call without the timer
            // dominating: time the drain and subtract the advice in it.
            let drain = Instant::now();
            let mut advise_ns = 0;
            for event in &events {
                match self.tenants[i].profiler.observe(event) {
                    Some(Drift::Initial) => {
                        let trigger = self.tenants[i].pending.take().unwrap_or(Drift::Initial);
                        let start = Instant::now();
                        rows.push(self.advise_row(i, &trigger, tracer));
                        advise_ns += start.elapsed().as_nanos() as u64;
                    }
                    Some(drift) if drift.is_significant() => {
                        let t = &mut self.tenants[i];
                        t.pending = Some(drift);
                        t.profiler.reset();
                    }
                    _ => {}
                }
            }
            let drain_ns = drain.elapsed().as_nanos() as u64;
            tracer.record_calls(
                "stream.observe",
                events.len() as u64,
                drain_ns.saturating_sub(advise_ns),
            );
            let t = &mut self.tenants[i];
            if events.is_empty() && t.profiler.events() > 0 {
                t.profiler.note_idle_epoch();
            }
        }
        if self.ticks.is_multiple_of(self.config.replan_every) {
            rows.extend(self.replan(tracer));
        }
        rows
    }

    /// The row `advise_now` should answer for `name`.
    pub fn advise_now(&mut self, name: &str, tracer: &mut Tracer) -> String {
        let i = self.tenant(name);
        self.advise_row(i, &Drift::Stable, tracer)
    }

    fn advise_row(&self, i: usize, trigger: &Drift, tracer: &mut Tracer) -> String {
        let t = &self.tenants[i];
        let resilient = if t.profiler.events() == 0 {
            cold()
        } else {
            let approx = tracer.time("stream.approx_pattern", || t.profiler.approx_pattern());
            let consulted = tracer.time("core.consult_with_pattern", || {
                self.advisor
                    .consult_with_pattern(self.baselines.clone(), approx.pattern)
            });
            match consulted {
                Ok(c) => tracer.time("core.advisor.recommend", || {
                    c.recommend_resilient(self.config.slo)
                }),
                Err(_) => cold(),
            }
        };
        proto::advise_row(&t.name, t.profiler.events(), trigger, &resilient)
    }

    fn replan(&self, tracer: &mut Tracer) -> Vec<String> {
        let mut participants = Vec::new();
        let mut demands: Vec<TenantDemand> = Vec::new();
        for (i, t) in self.tenants.iter().enumerate() {
            if t.profiler.events() == 0 {
                continue;
            }
            let approx = tracer.time("stream.approx_pattern", || t.profiler.approx_pattern());
            demands.push(tracer.time("core.demand_fit", || {
                self.advisor
                    .demand_with_pattern(self.baselines.clone(), approx.pattern)
            }));
            participants.push(i);
        }
        if demands.is_empty() {
            return Vec::new();
        }
        let allocation = tracer.time("core.allocate_demands", || {
            mnemo::multi::allocate_demands(&demands, self.config.share_bytes)
        });
        allocation
            .tenants
            .iter()
            .map(|grant| {
                proto::replan_row(
                    self.ticks,
                    &self.tenants[participants[grant.tenant]].name,
                    grant.fast_bytes,
                    allocation.budget_bytes,
                    grant.est_slowdown,
                )
            })
            .collect()
    }
}

/// The engine's answer for a tenant with nothing profiled.
fn cold() -> ResilientRecommendation {
    ResilientRecommendation {
        recommendation: Recommendation {
            prefix: 0,
            fast_bytes: 0,
            fast_ratio: 0.0,
            cost_reduction: 0.0,
            est_throughput_ops_s: 0.0,
            est_slowdown: 0.0,
        },
        degraded: Some(DegradedReason::EmptyCurve),
    }
}
