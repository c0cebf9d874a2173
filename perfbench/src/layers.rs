//! The consultation pipeline called one layer at a time, so the traced
//! run can time each call: `PatternEngine::analyze`, the two baseline
//! `Server` builds and runs (the body of `SensitivityEngine::measure_one`,
//! split so build and run time separately), `MnemoT::weight_order`,
//! `PerfModel::fit` and `EstimateEngine::curve`. The result must equal
//! `Advisor::consult` bit for bit; [`same_curve`] checks that.

use crate::tracer::Tracer;
use cloudcost::CostModel;
use hybridmem::MemTier;
use kvsim::{Placement, Server, StoreKind};
use mnemo::advisor::{AdvisorConfig, Consultation, OrderingKind, Recommendation};
use mnemo::{
    BaselineRun, Baselines, EstimateCurve, EstimateEngine, MnemoT, PatternEngine, PerfModel,
};
use ycsb::Trace;

/// One extreme-placement baseline, as `SensitivityEngine::measure_one`
/// runs it (same jitter-seed offsets), with the simulator's own counts
/// added to the tracer.
pub fn baseline_run(
    config: &AdvisorConfig,
    store: StoreKind,
    trace: &Trace,
    tier: MemTier,
    tracer: &mut Tracer,
) -> Result<BaselineRun, String> {
    let (placement, offset) = match tier {
        MemTier::Fast => (Placement::AllFast, 0x5eed_fa57),
        MemTier::Slow => (Placement::AllSlow, 0x5eed_510e),
    };
    let mut noise = config.noise;
    noise.seed = noise.seed.wrapping_add(offset);
    let mut server = tracer
        .time("kvsim.server.build", || {
            Server::build_with(store, config.spec.clone(), noise, trace, placement)
        })
        .map_err(|e| format!("baseline server build failed: {e}"))?;
    let report = tracer.time("kvsim.server.run", || server.run(trace));
    let memory = server.engine().memory();
    let cache = memory.cache_stats();
    tracer.count("kvsim.server.run.sim_requests", report.requests as f64);
    tracer.count("hybridmem.llc.hits", cache.hits as f64);
    tracer.count("hybridmem.llc.misses", cache.misses as f64);
    tracer.count(
        "hybridmem.fast.accesses",
        memory.tier_stats(MemTier::Fast).total_accesses() as f64,
    );
    tracer.count(
        "hybridmem.slow.accesses",
        memory.tier_stats(MemTier::Slow).total_accesses() as f64,
    );
    tracer.count("hybridmem.sim_s", report.runtime_ns / 1e9);
    Ok(BaselineRun {
        tier,
        runtime_ns: report.runtime_ns,
        avg_read_ns: report.avg_read_ns(),
        avg_write_ns: report.avg_write_ns(),
        report,
    })
}

/// Both baselines, as `SensitivityEngine::measure` returns them.
pub fn baselines(
    config: &AdvisorConfig,
    store: StoreKind,
    trace: &Trace,
    tracer: &mut Tracer,
) -> Result<Baselines, String> {
    Ok(Baselines {
        store,
        workload: trace.name.clone(),
        fast: baseline_run(config, store, trace, MemTier::Fast, tracer)?,
        slow: baseline_run(config, store, trace, MemTier::Slow, tracer)?,
    })
}

/// `Advisor::consult`, one timed layer call at a time. Covers the
/// configuration the benchmark uses: MnemoT ordering, no fault plan, no
/// cache correction.
pub fn consult(
    config: &AdvisorConfig,
    store: StoreKind,
    trace: &Trace,
    tracer: &mut Tracer,
) -> Result<Consultation, String> {
    if config.ordering != OrderingKind::MnemoT
        || config.fault_plan.is_some()
        || config.cache_correction.is_some()
    {
        return Err("the step-by-step consult covers the default advisor only".into());
    }
    let pattern = tracer.time("core.pattern.analyze", || PatternEngine::analyze(trace));
    let baselines = baselines(config, store, trace, tracer)?;
    let order = tracer.time("core.order", || MnemoT::weight_order(&pattern));
    let model = tracer.time("core.model.fit", || {
        let sizes: Vec<u64> = pattern.stats().iter().map(|s| s.bytes).collect();
        PerfModel::fit(config.model, &baselines, &sizes)
    });
    let estimator = EstimateEngine::new(model.clone(), CostModel::new(config.price_factor));
    let curve = tracer.time("core.estimate.curve", || estimator.curve(&pattern, &order));
    Ok(Consultation {
        baselines,
        pattern,
        model,
        order,
        curve,
    })
}

/// Whether two curves agree bit for bit.
pub fn same_curve(a: &EstimateCurve, b: &EstimateCurve) -> bool {
    a.requests == b.requests
        && a.total_bytes == b.total_bytes
        && a.rows.len() == b.rows.len()
        && a.rows.iter().zip(&b.rows).all(|(x, y)| {
            x.prefix == y.prefix
                && x.key == y.key
                && x.fast_bytes == y.fast_bytes
                && x.cost_reduction.to_bits() == y.cost_reduction.to_bits()
                && x.est_runtime_ns.to_bits() == y.est_runtime_ns.to_bits()
                && x.est_throughput_ops_s.to_bits() == y.est_throughput_ops_s.to_bits()
        })
}

/// FNV-64 over a consultation's curve rows and its recommendation.
pub fn digest(curve: &EstimateCurve, rec: &Recommendation) -> u64 {
    let mut d = crate::stats::Digest::default();
    for r in &curve.rows {
        d.bytes(&(r.prefix as u64).to_le_bytes());
        d.bytes(&r.key.map_or(u64::MAX, |k| k).to_le_bytes());
        d.bytes(&r.fast_bytes.to_le_bytes());
        d.bytes(&r.cost_reduction.to_bits().to_le_bytes());
        d.bytes(&r.est_runtime_ns.to_bits().to_le_bytes());
        d.bytes(&r.est_throughput_ops_s.to_bits().to_le_bytes());
    }
    d.bytes(&(rec.prefix as u64).to_le_bytes());
    d.bytes(&rec.fast_bytes.to_le_bytes());
    d.bytes(&rec.est_throughput_ops_s.to_bits().to_le_bytes());
    d.bytes(&rec.est_slowdown.to_bits().to_le_bytes());
    d.value()
}
