//! `consult-paper`: `Advisor::consult` + `recommend(0.10)` on the five
//! Table III presets at paper scale (10k keys / 100k requests) across
//! the Redis-, Memcached- and DynamoDB-like stores and a four-seed
//! rotation, closed loop. Each consultation is followed, untimed by the
//! consult figure, by advice from its already-measured baselines
//! (`Advisor::consult_with_baselines` + `recommend(0.10)`), which must
//! reproduce it. Each distinct consultation is checked once with
//! `Advisor::verify`, outside the timed calls; repeats must reproduce
//! its digest exactly.

use crate::host::HostSpeed;
use crate::report::{peak_rss_mib, Metrics, Outcome};
use crate::stats::{median, Summary};
use crate::tracer::Tracer;
use crate::{expected, layers};
use kvsim::StoreKind;
use mnemo::advisor::{Advisor, AdvisorConfig};
use std::time::Instant;
use ycsb::{Trace, WorkloadSpec};

/// Workload name.
pub const NAME: &str = "consult-paper";
/// The SLO every consultation is answered for.
const SLO: f64 = 0.10;
/// Seeds in the rotation; each preset is generated once per seed. The
/// consult and advise medians fall between the rotation's 60 distinct
/// costs; with two seeds (30 costs) they jumped between neighbouring
/// ones from seed to seed by up to 15%.
const SEEDS: u64 = 4;
/// The paper's three stores.
const STORES: [StoreKind; 3] = [StoreKind::Redis, StoreKind::Memcached, StoreKind::Dynamo];
/// Consultations measured at least.
const MIN_CONSULTS: usize = 100;
/// Input set-ups timed per run (their median is `setup_s`).
const SETUPS: usize = 7;

/// The rotation's inputs: every preset at paper scale for each seed.
fn traces(seed: u64) -> Vec<Trace> {
    let mut out = Vec::new();
    for s in 0..SEEDS {
        for (p, preset) in WorkloadSpec::table3().into_iter().enumerate() {
            out.push(preset.generate(crate::derive_seed(seed, s * 16 + p as u64)));
        }
    }
    out
}

/// Consultation `i` of the rotation: (trace index, store).
fn combo(i: usize, traces: usize) -> (usize, StoreKind) {
    let c = i % (traces * STORES.len());
    (c % traces, STORES[c / traces])
}

/// Run the workload for `seconds` (untraced) or the traced replay.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut host = HostSpeed::new();
    host.sample();
    let mut setups = Vec::new();
    let (traces, advisor) = loop {
        let start = Instant::now();
        let inputs = (traces(seed), Advisor::new(AdvisorConfig::default()));
        setups.push(start.elapsed().as_secs_f64());
        if traced || setups.len() == SETUPS {
            break inputs;
        }
    };
    println!(
        "# {NAME}: {} traces ({} presets x {SEEDS} seeds, {} requests each) x {} stores",
        traces.len(),
        traces.len() / SEEDS as usize,
        traces[0].len(),
        STORES.len()
    );
    if traced {
        run_traced(seed, &traces, &advisor)
    } else {
        run_untraced(seed, seconds, &traces, &advisor, &setups, host)
    }
}

/// What the first consultation of each combination produced.
struct Checked {
    digest: u64,
    est_err: f64,
}

fn run_untraced(
    seed: u64,
    seconds: f64,
    traces: &[Trace],
    advisor: &Advisor,
    setups: &[f64],
    mut host: HostSpeed,
) -> Result<Outcome, String> {
    let combos = traces.len() * STORES.len();
    let mut checked: Vec<Option<Checked>> = (0..combos).map(|_| None).collect();
    let (mut attempted, mut failed, mut reasons) = (0u64, 0u64, Vec::new());
    let mut correct = true;
    let mut consult_ms = Vec::new();
    let mut advise_ms = Vec::new();
    let mut requests = 0usize;
    let mut busy_s = 0.0;
    let began = Instant::now();
    let mut i = 0usize;
    while i < MIN_CONSULTS.max(combos) || began.elapsed().as_secs_f64() < seconds {
        if i > 0 && i.is_multiple_of(combos) {
            host.sample();
        }
        let (t, store) = combo(i, traces.len());
        let trace = &traces[t];
        attempted += 1;
        let start = Instant::now();
        let result = advisor.consult(store, trace).map(|c| {
            let rec = c.recommend(SLO);
            (c, rec)
        });
        let secs = start.elapsed().as_secs_f64();
        i += 1;
        let (c, rec) = match result {
            Ok((c, Some(rec))) => (c, rec),
            Ok((_, None)) => {
                failed += 1;
                reasons.push(format!("{} on {store:?}: no recommendation", trace.name));
                continue;
            }
            Err(e) => {
                failed += 1;
                reasons.push(format!("{} on {store:?}: {e}", trace.name));
                continue;
            }
        };
        consult_ms.push(secs * 1e3);
        busy_s += secs;
        requests += trace.len();
        // Advice from baselines already measured (the analogue of the
        // daemon's advise, which consults a sketch against calibrated
        // baselines): the same estimate must come back.
        let baselines = c.baselines.clone();
        let start = Instant::now();
        let again = advisor.consult_with_baselines(baselines, trace).map(|a| {
            let rec = a.recommend(SLO);
            (a, rec)
        });
        advise_ms.push(start.elapsed().as_secs_f64() * 1e3);
        match again {
            Ok((a, Some(again_rec)))
                if layers::same_curve(&a.curve, &c.curve) && again_rec == rec => {}
            _ => {
                println!(
                    "# FAIL {NAME}: re-advising {} on {store:?} from its baselines differs",
                    trace.name
                );
                correct = false;
            }
        }
        let digest = layers::digest(&c.curve, &rec);
        let slot = &mut checked[(i - 1) % combos];
        match slot {
            Some(first) if first.digest != digest => {
                println!(
                    "# FAIL {NAME}: {} on {store:?} changed between repeats",
                    trace.name
                );
                correct = false;
            }
            Some(_) => {}
            None => {
                let (verified, _) = advisor
                    .verify(store, trace, &c, &rec)
                    .map_err(|e| format!("verify failed: {e}"))?;
                let est = rec.est_throughput_ops_s;
                *slot = Some(Checked {
                    digest,
                    est_err: (est - verified).abs() / verified * 100.0,
                });
            }
        }
    }
    let checked: Vec<Checked> = checked.into_iter().flatten().collect();
    if checked.len() < combos {
        println!(
            "# FAIL {NAME}: only {} of {combos} combinations consulted",
            checked.len()
        );
        correct = false;
    }
    let mut all = crate::stats::Digest::default();
    for c in &checked {
        all.bytes(&c.digest.to_le_bytes());
    }
    correct &= check_digest(seed, all.value());

    let consult = Summary::of(&consult_ms, 0.90).ok_or("too few consultations")?;
    let advise = Summary::of(&advise_ms, 0.99).ok_or("too few re-advice samples")?;
    let errs: Vec<f64> = checked.iter().map(|c| c.est_err).collect();
    let mut m = Metrics::default();
    m.put(
        "events_per_s",
        requests as f64 / busy_s,
        "1/s",
        consult.n,
        "trace requests consulted per host second",
    );
    m.put(
        "op_p50_ms",
        consult.p50,
        "ms",
        consult.n,
        "consult + recommend(0.10) p50",
    );
    m.put(
        "op_tail_ms",
        consult.tail,
        "ms",
        consult.n,
        &format!("consult + recommend(0.10) {}", consult.tail_label()),
    );
    m.put(
        "advise_p50_ms",
        advise.p50,
        "ms",
        advise.n,
        "consult_with_baselines + recommend(0.10) p50",
    );
    m.put(
        "advise_tail_ms",
        advise.tail,
        "ms",
        advise.n,
        &format!(
            "consult_with_baselines + recommend(0.10) {}",
            advise.tail_label()
        ),
    );
    m.put(
        "setup_s",
        median(setups),
        "s",
        setups.len(),
        "generate the rotation's traces + build the advisor, median",
    );
    m.put(
        "peak_rss_mib",
        peak_rss_mib()?,
        "MiB",
        1,
        "VmHWM of this process",
    );
    m.note(&format!(
        "consult_p50_ms = {:.3} ms, consult_{}_ms = {:.3} ms (n={})",
        consult.p50,
        consult.tail_label(),
        consult.tail,
        consult.n
    ));
    m.note(&format!(
        "est_err_p50_pct = {:.4} % (n={} distinct consultations; |estimated - verified| / verified \
         throughput at the recommended split, verified by the simulator)",
        median(&errs),
        errs.len()
    ));
    m.at_reference_speed(&host);
    Ok(Outcome {
        correct,
        attempted,
        failed,
        reasons,
        metrics: m,
    })
}

fn check_digest(seed: u64, digest: u64) -> bool {
    match expected::digest(NAME, seed) {
        Some(want) if want != digest => {
            println!(
                "# FAIL {NAME}: curve digest {digest:016x}, recorded {want:016x} for seed {seed}"
            );
            false
        }
        Some(_) => {
            println!("# {NAME}: curve digest {digest:016x} matches the record");
            true
        }
        None => {
            println!(
                "# {NAME}: curve digest {digest:016x} (no record for seed {seed}; repeats agree)"
            );
            true
        }
    }
}

fn run_traced(seed: u64, traces: &[Trace], advisor: &Advisor) -> Result<Outcome, String> {
    let combos = traces.len() * STORES.len();
    let mut tracer = Tracer::on();
    let mut correct = true;
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut all = crate::stats::Digest::default();
    for i in 0..combos {
        let (t, store) = combo(i, traces.len());
        let trace = &traces[t];
        let start = Instant::now();
        let plain = advisor
            .consult(store, trace)
            .map_err(|e| format!("consult failed: {e}"))?;
        let plain_rec = plain.recommend(SLO);
        plain_s += start.elapsed().as_secs_f64();

        let start = Instant::now();
        let stepped = layers::consult(advisor.config(), store, trace, &mut tracer)?;
        let rec = tracer.time("core.advisor.recommend", || stepped.recommend(SLO));
        traced_s += start.elapsed().as_secs_f64();
        let rec = rec.ok_or_else(|| format!("{} on {store:?}: no recommendation", trace.name))?;
        if !layers::same_curve(&plain.curve, &stepped.curve) || plain_rec != Some(rec) {
            println!("# FAIL {NAME}: step-by-step consult of {} on {store:?} differs from Advisor::consult", trace.name);
            correct = false;
        }
        tracer
            .time("core.verify", || {
                advisor.verify(store, trace, &stepped, &rec)
            })
            .map_err(|e| format!("verify failed: {e}"))?;
        all.bytes(&layers::digest(&stepped.curve, &rec).to_le_bytes());
    }
    correct &= check_digest(seed, all.value());
    if correct {
        println!("# {NAME}: step-by-step consults equal Advisor::consult bit for bit");
    }
    let mut m = Metrics::default();
    crate::report::layer_metrics(&tracer, &mut m);
    m.put(
        "trace.overhead_pct",
        (traced_s / plain_s - 1.0) * 100.0,
        "%",
        combos,
        "step-by-step traced consults vs Advisor::consult",
    );
    m.note(&format!(
        "untraced consults {plain_s:.3} s, traced {traced_s:.3} s"
    ));
    Ok(Outcome {
        correct,
        attempted: combos as u64,
        failed: 0,
        reasons: Vec::new(),
        metrics: m,
    })
}
