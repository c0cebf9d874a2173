//! The serve workloads: v1 JSONL lines through `proto::parse_request`,
//! the write-ahead journal (when on), and `ServeEngine::ingest` /
//! `advise_now`, driven from one thread on a one-worker pool.
//!
//! A run has a closed-loop phase (ingest lines only, as fast as the
//! engine takes them, repeated on fresh engines) and an open-loop phase
//! (events and advise commands on fixed schedules, timed from when each
//! was due). The traced run replays the closed-loop phase once untraced
//! and once traced, with the tick split measured by [`Mirror`].

use crate::host::HostSpeed;
use crate::mirror::Mirror;
use crate::report::{peak_rss_mib, Metrics, Outcome};
use crate::sched::{self, Job, Plan, WallClock};
use crate::stats::{median, Digest, Summary};
use crate::tracer::Tracer;
use crate::{expected, layers};
use mnemo_serve::journal::JournalWriter;
use mnemo_serve::proto::{self, Request};
use mnemo_serve::{JournalConfig, ServeConfig, ServeEngine};
use mnemo_stream::StreamConfig;
use std::path::Path;
use std::time::Instant;
use ycsb::{Op, WorkloadSpec};

/// One serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Tenants, round-robin interleaved.
    pub tenants: usize,
    /// Distinct keys per tenant (`trending`).
    pub keys: u64,
    /// Events per tenant in the closed-loop stream.
    pub events_per_tenant: usize,
    /// Journal every ingest and advise line before applying it.
    pub journal: bool,
    /// Open-loop offered ingest events per second.
    pub event_rate: f64,
    /// Open-loop offered advise commands per second.
    pub advise_rate: f64,
}

/// 8 tenants, re-plan heavy, journal off.
pub const FANIN8: ServeSpec = ServeSpec {
    name: "serve-fanin8",
    tenants: 8,
    keys: 20_000,
    events_per_tenant: 40_000,
    journal: false,
    event_rate: 40_000.0,
    advise_rate: 50.0,
};

/// 1 tenant, every line journaled.
pub const WAL1: ServeSpec = ServeSpec {
    name: "serve-wal1",
    tenants: 1,
    keys: 20_000,
    events_per_tenant: 200_000,
    journal: true,
    event_rate: 20_000.0,
    advise_rate: 50.0,
};

/// Open-loop seconds after each closed-loop pass. A run alternates a
/// closed-loop pass on a fresh engine with an open-loop window on that
/// engine, so both phases sample the whole run: the host's speed moves
/// in regimes of 10-40 s, and a phase confined to one part of the run
/// measured whichever regime held there.
const OPEN_WINDOW_S: f64 = 2.4;
/// Rounds (pass + window) at least, whatever the time budget.
const MIN_ROUNDS: usize = 3;
/// Set-ups timed per round (the round runs on the last), so that the
/// set-up median, too, samples the whole run.
const SETUPS_PER_ROUND: usize = 5;
/// Consecutive slices of the open-loop samples whose tails are
/// medianed: a burst of host interference confined to one slice then
/// moves the tail no more than any other slice does.
const TAIL_WINDOWS: usize = 3;
/// Highest percentile the bounded open-loop tails report. Ticks and
/// advises each stall the thread for milliseconds, and the 1% of events
/// caught behind both at once puts a p99 on the edge between two stall
/// regimes: on `serve-wal1` it read 7-16 ms from run to run. p95 lies
/// inside one regime. The whole-phase p99 is still printed.
const TAIL_CAP: f64 = 0.95;
/// Advise commands in the traced run's advise pass.
const TRACED_ADVISES: usize = 400;

/// The `serve_throughput` configuration: 4096-event ticks, a 32 KiB
/// profiler, a 20k-event drift epoch and the daemon's `replan_every` 1.
pub fn config() -> ServeConfig {
    let mut stream = StreamConfig::with_budget_bytes(32 * 1024);
    stream.drift.epoch_len = 20_000;
    ServeConfig {
        stream,
        tick_events: 4_096,
        ..ServeConfig::default()
    }
}

/// The journal policy of `serve-wal1`: no group commit inside a phase
/// (records are synced when the input ends, outside the timed pass) and
/// segments that never rotate within a run. The journal sits on the
/// checkout's disk, whose `fsync` latency would otherwise be what the
/// workload measures (see README.md).
const JOURNAL: JournalConfig = JournalConfig {
    segment_bytes: 256 * 1024 * 1024,
    sync_every: u64::MAX,
};

/// Generated request lines.
pub struct Inputs {
    /// Ingest lines, round-robin over tenants.
    pub lines: Vec<String>,
    /// One advise line per tenant.
    pub advise_lines: Vec<String>,
}

/// The workload's lines for `seed`: tenant `t` streams `trending` drawn
/// from its own seed, derived from the workload seed.
pub fn inputs(spec: &ServeSpec, seed: u64) -> Inputs {
    let names: Vec<String> = (0..spec.tenants).map(|t| format!("tenant-{t}")).collect();
    let streams: Vec<Vec<ycsb::AccessEvent>> = (0..spec.tenants)
        .map(|t| {
            WorkloadSpec::trending()
                .scaled(spec.keys, spec.events_per_tenant)
                .generate(crate::derive_seed(seed, t as u64))
                .events()
                .collect()
        })
        .collect();
    let mut lines = Vec::with_capacity(spec.tenants * spec.events_per_tenant);
    for i in 0..spec.events_per_tenant {
        for (t, stream) in streams.iter().enumerate() {
            let e = &stream[i];
            let op = match e.op {
                Op::Read => "read",
                Op::Update => "update",
            };
            lines.push(format!(
                "{{\"v\":1,\"tenant\":\"{}\",\"key\":{},\"op\":\"{op}\",\"bytes\":{}}}",
                names[t], e.key, e.bytes
            ));
        }
    }
    let advise_lines = names
        .iter()
        .map(|n| format!("{{\"v\":1,\"cmd\":\"advise\",\"tenant\":\"{n}\"}}"))
        .collect();
    Inputs {
        lines,
        advise_lines,
    }
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Request lines handled.
    pub attempted: u64,
    /// Errors, error rows, dropped events and degraded advice.
    pub failed: u64,
    /// First failure reasons, for the log.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one failure.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 5 {
            self.reasons.push(reason);
        }
    }

    fn rows(&mut self, rows: &[String]) {
        for row in rows {
            if row.contains("\"row\":\"error\"")
                || (row.contains("\"row\":\"advise\"") && !row.contains("\"degraded\":null"))
            {
                self.fail(row.clone());
            }
        }
    }
}

/// An engine with its journal and (traced runs only) its mirror.
struct Rig {
    engine: ServeEngine,
    journal: Option<JournalWriter>,
    mirror: Option<Mirror>,
    /// Set when the mirror disagreed with the engine.
    mismatch: Option<String>,
    /// Dropped events already charged to a tally.
    dropped: u64,
}

/// Build a fresh engine (calibration included) and open the journal.
/// Returns the rig and the seconds the set-up took.
fn setup(spec: &ServeSpec, dir: &Path) -> Result<(Rig, f64), String> {
    if spec.journal && dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    let start = Instant::now();
    let engine = ServeEngine::new(config()).map_err(|e| format!("cannot build engine: {e}"))?;
    let journal = if spec.journal {
        Some(
            JournalWriter::open(dir, JOURNAL, 1, None)
                .map_err(|e| format!("cannot open journal: {e}"))?,
        )
    } else {
        None
    };
    let secs = start.elapsed().as_secs_f64();
    Ok((
        Rig {
            engine,
            journal,
            mirror: None,
            mismatch: None,
            dropped: 0,
        },
        secs,
    ))
}

impl Rig {
    /// Handle one request line the way `ServeLoop::poll_once` does:
    /// parse, journal, apply. Returns the emitted rows.
    fn apply(
        &mut self,
        line: &str,
        line_no: usize,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<Vec<String>, String> {
        tally.attempted += 1;
        let request = match tracer.time("serve.proto.parse_request", || {
            proto::parse_request(line, line_no)
        }) {
            Ok(r) => r,
            Err(e) => {
                tally.fail(format!("parse: {e}"));
                return Ok(Vec::new());
            }
        };
        match request {
            Request::Ingest(event) => {
                self.journal_append(line, tracer)?;
                if let Some(m) = self.mirror.as_mut() {
                    m.offer(&event);
                }
                let ticks = self.engine.ticks();
                let start = tracer.is_on().then(Instant::now);
                let result = self.engine.ingest(event);
                let ticked = self.engine.ticks() != ticks;
                if let Some(start) = start {
                    let name = if ticked {
                        "serve.engine.tick"
                    } else {
                        "serve.engine.ingest"
                    };
                    tracer.record(name, start.elapsed().as_nanos() as u64);
                }
                let rows = match result {
                    Ok(rows) => rows,
                    Err(e) => {
                        tally.fail(format!("ingest: {e}"));
                        return Ok(Vec::new());
                    }
                };
                if ticked {
                    if let Some(m) = self.mirror.as_mut() {
                        let expected = m.tick(tracer);
                        if expected != rows && self.mismatch.is_none() {
                            self.mismatch = Some(format!(
                                "tick {}: engine emitted {rows:?}, mirror expected {expected:?}",
                                self.engine.ticks()
                            ));
                        }
                    }
                }
                tally.rows(&rows);
                Ok(rows)
            }
            Request::Advise { tenant } => {
                self.journal_append(line, tracer)?;
                let row = tracer.time("serve.engine.advise_now", || {
                    self.engine.advise_now(&tenant)
                });
                if let Some(m) = self.mirror.as_mut() {
                    // A throwaway tracer: the tick split only counts
                    // work done inside ticks.
                    let expected = m.advise_now(&tenant, &mut Tracer::off());
                    if expected != row && self.mismatch.is_none() {
                        self.mismatch =
                            Some(format!("advise: engine {row}, mirror expected {expected}"));
                    }
                }
                let rows = vec![row];
                tally.rows(&rows);
                Ok(rows)
            }
            other => {
                tally.fail(format!("unexpected request {other:?}"));
                Ok(Vec::new())
            }
        }
    }

    fn journal_append(&mut self, line: &str, tracer: &mut Tracer) -> Result<(), String> {
        let Some(writer) = self.journal.as_mut() else {
            return Ok(());
        };
        let now = self.engine.now_ns();
        let seq = tracer
            .time("serve.journal.append", || writer.append(now, line))
            .map_err(|e| format!("journal append failed: {e}"))?;
        tracer.count("serve.journal.append.bytes", line.len() as f64);
        self.engine.set_journal_seq(seq);
        Ok(())
    }

    /// End of input: the engine's final tick.
    fn finish(&mut self, tracer: &mut Tracer) -> Vec<String> {
        let rows = tracer.time("serve.engine.finish", || self.engine.finish());
        if let Some(m) = self.mirror.as_mut() {
            let expected = m.tick(&mut Tracer::off());
            if expected != rows && self.mismatch.is_none() {
                self.mismatch = Some(format!(
                    "finish: engine emitted {rows:?}, mirror expected {expected:?}"
                ));
            }
        }
        rows
    }

    /// Make the journal durable up to the last record.
    fn sync_journal(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let Some(writer) = self.journal.as_mut() else {
            return Ok(());
        };
        let now = self.engine.now_ns();
        tracer
            .time("serve.journal.commit", || writer.sync(now))
            .map_err(|e| format!("journal sync failed: {e}"))?;
        Ok(())
    }

    /// Charge the events the engine dropped since the last call to the
    /// tally (the open loop continues a closed-loop pass's engine).
    fn count_drops(&mut self, tally: &mut Tally) {
        let folded = self.engine.folded_snapshot();
        let dropped =
            folded.counter("serve.ingest.dropped") + folded.counter("serve.ingest.crash_dropped");
        if dropped > self.dropped {
            tally.failed += dropped - self.dropped;
            tally
                .reasons
                .push(format!("{} events dropped", dropped - self.dropped));
            self.dropped = dropped;
        }
    }
}

/// One closed-loop pass over every ingest line plus `finish()`. Returns
/// the host seconds and the transcript digest.
fn closed_loop(
    rig: &mut Rig,
    inputs: &Inputs,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<(f64, u64), String> {
    let mut digest = Digest::default();
    let start = Instant::now();
    for (i, line) in inputs.lines.iter().enumerate() {
        for row in rig.apply(line, i + 1, tracer, tally)? {
            digest.row(&row);
        }
    }
    for row in rig.finish(tracer) {
        digest.row(&row);
    }
    let secs = start.elapsed().as_secs_f64();
    rig.sync_journal(tracer)?;
    rig.count_drops(tally);
    Ok((secs, digest.value()))
}

/// One open-loop window, continuing on the rig of a closed-loop pass:
/// its tenants are warm, so no advise meets a cold profiler and tick
/// costs start at their steady level. Lines wrap around.
fn open_loop(
    spec: &ServeSpec,
    rig: &mut Rig,
    inputs: &Inputs,
    seconds: f64,
    tally: &mut Tally,
) -> Result<sched::Outcome, String> {
    let mut tracer = Tracer::off();
    let plan = Plan {
        event_rate: spec.event_rate,
        advise_rate: spec.advise_rate,
        seconds,
    };
    let n = inputs.lines.len();
    let out = sched::run(&WallClock::start(), &plan, |job| {
        let (line, no) = match job {
            Job::Event(i) => (&inputs.lines[i as usize % n], i as usize + 1),
            Job::Advise(i) => (
                &inputs.advise_lines[i as usize % inputs.advise_lines.len()],
                n + i as usize + 1,
            ),
        };
        rig.apply(line, no, &mut tracer, tally).map(|_| ())
    })?;
    rig.count_drops(tally);
    Ok(out)
}

/// Run `spec` for `seconds` (untraced) or the traced replay.
pub fn run(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
) -> Result<Outcome, String> {
    let dir = work.join(format!("wal-{}", spec.name));
    let inputs = inputs(spec, seed);
    println!(
        "# {}: {} tenants x {} events ({} lines), journal {}",
        spec.name,
        spec.tenants,
        spec.events_per_tenant,
        inputs.lines.len(),
        if spec.journal {
            format!(
                "at {} ({} MiB segments, synced at end of input; on the checkout's filesystem, not memory-backed)",
                dir.display(),
                JOURNAL.segment_bytes >> 20
            )
        } else {
            "off".to_string()
        }
    );
    let out = if traced {
        run_traced(spec, seed, &inputs, &dir)
    } else {
        run_untraced(spec, seed, seconds, &inputs, &dir)
    };
    if dir.exists() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    out
}

fn run_untraced(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    inputs: &Inputs,
    dir: &Path,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut busy_s = 0.0;
    let mut digests = Vec::new();
    let mut open = sched::Outcome::default();
    let mut open_s = 0.0;
    let mut host = HostSpeed::new();
    let began = Instant::now();
    let mut round_s = 0.0;
    // Start another round only if it is expected to end within the run.
    while rates.len() < MIN_ROUNDS || began.elapsed().as_secs_f64() + round_s <= seconds {
        let round = Instant::now();
        host.sample();
        let (mut rig, setup_s) = setup(spec, dir)?;
        setups.push(setup_s);
        for _ in 1..SETUPS_PER_ROUND {
            // Close the previous journal before the set-up clears its
            // directory.
            drop(rig);
            let (fresh, setup_s) = setup(spec, dir)?;
            setups.push(setup_s);
            rig = fresh;
        }
        let (secs, digest) = closed_loop(&mut rig, inputs, &mut Tracer::off(), &mut tally)?;
        rates.push(inputs.lines.len() as f64 / secs);
        busy_s += secs;
        digests.push(digest);
        let window = open_loop(spec, &mut rig, inputs, OPEN_WINDOW_S, &mut tally)?;
        open.event_ns.extend(window.event_ns);
        open.advise_ns.extend(window.advise_ns);
        open.late_ns.extend(window.late_ns);
        open_s += OPEN_WINDOW_S;
        round_s = round.elapsed().as_secs_f64();
    }
    let mut m = Metrics::default();
    let ms = |ns: &[f64]| ns.iter().map(|v| v / 1e6).collect::<Vec<f64>>();
    let ingest = Summary::windowed(&ms(&open.event_ns), TAIL_WINDOWS, TAIL_CAP)
        .ok_or("too few open-loop events")?;
    let advise = Summary::windowed(&ms(&open.advise_ns), TAIL_WINDOWS, TAIL_CAP)
        .ok_or("too few open-loop advises")?;
    let late = Summary::of(&ms(&open.late_ns), 0.99).ok_or("too few open-loop jobs")?;
    let ingest_all = Summary::of(&ms(&open.event_ns), 0.99).ok_or("too few open-loop events")?;
    let advise_all = Summary::of(&ms(&open.advise_ns), 0.99).ok_or("too few open-loop advises")?;
    m.put(
        "events_per_s",
        // Lines over seconds of all passes, not a median of the passes'
        // rates: a fresh engine runs at one of two speeds (~240k or
        // ~300k ev/s on serve-wal1, whatever the seed), and a median of
        // ten such passes jumps between them with the mix.
        (inputs.lines.len() * rates.len()) as f64 / busy_s,
        "1/s",
        rates.len(),
        "closed-loop passes, lines / seconds over all of them",
    );
    m.put(
        "op_p50_ms",
        ingest.p50,
        "ms",
        ingest.n,
        "open-loop ingest latency p50 from due time",
    );
    m.put(
        "op_tail_ms",
        ingest.tail,
        "ms",
        ingest.n,
        &format!(
            "open-loop ingest {}, median of {TAIL_WINDOWS} windows",
            ingest.tail_label()
        ),
    );
    m.put(
        "advise_p50_ms",
        advise.p50,
        "ms",
        advise.n,
        "open-loop advise latency p50",
    );
    m.put(
        "advise_tail_ms",
        advise.tail,
        "ms",
        advise.n,
        &format!(
            "open-loop advise {}, median of {TAIL_WINDOWS} windows",
            advise.tail_label()
        ),
    );
    m.put(
        "setup_s",
        median(&setups),
        "s",
        setups.len(),
        "engine + calibration + journal open, median",
    );
    m.put(
        "peak_rss_mib",
        peak_rss_mib()?,
        "MiB",
        1,
        "VmHWM of this process",
    );
    m.note(&format!(
        "whole phase: ingest_p50_us = {:.3} us, ingest_{}_ms = {:.4} ms (n={}); \
         advise_p50_ms = {:.4} ms, advise_{}_ms = {:.4} ms (n={}); \
         offered {} ev/s + {} advise/s in {} windows, {:.1} s in all",
        ingest_all.p50 * 1e3,
        ingest_all.tail_label(),
        ingest_all.tail,
        ingest_all.n,
        advise_all.p50,
        advise_all.tail_label(),
        advise_all.tail,
        advise_all.n,
        spec.event_rate,
        spec.advise_rate,
        rates.len(),
        open_s
    ));
    m.note(&format!(
        "generator lateness p50 {:.4} ms, {} {:.4} ms, max {:.4} ms (n={}); whole-phase advise {} against the 25 ms limit: {}",
        late.p50,
        late.tail_label(),
        late.tail,
        open.late_ns.iter().cloned().fold(0.0, f64::max) / 1e6,
        late.n,
        advise_all.tail_label(),
        if advise_all.tail <= 25.0 { "met" } else { "MISSED" }
    ));
    m.note(&format!(
        "closed-loop passes (ev/s): {}",
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    m.at_reference_speed(&host);

    let correct = check_digests(spec.name, seed, &digests, None);
    Ok(Outcome {
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        reasons: tally.reasons,
        metrics: m,
    })
}

/// Every closed-loop pass must emit the same transcript, and for the
/// recorded seed the transcript recorded for it.
fn check_digests(name: &str, seed: u64, digests: &[u64], mismatch: Option<&str>) -> bool {
    let mut correct = true;
    if digests.windows(2).any(|w| w[0] != w[1]) {
        println!("# FAIL {name}: closed-loop transcripts differ between passes: {digests:016x?}");
        correct = false;
    }
    match expected::digest(name, seed) {
        Some(want) if digests[0] != want => {
            println!(
                "# FAIL {name}: transcript digest {:016x}, recorded {want:016x} for seed {seed}",
                digests[0]
            );
            correct = false;
        }
        Some(_) => println!(
            "# {name}: transcript digest {:016x} matches the record",
            digests[0]
        ),
        None => println!(
            "# {name}: transcript digest {:016x} (no record for seed {seed}; passes agree)",
            digests[0]
        ),
    }
    if let Some(why) = mismatch {
        println!("# FAIL {name}: mirror disagrees with the engine: {why}");
        correct = false;
    }
    correct
}

fn run_traced(spec: &ServeSpec, seed: u64, inputs: &Inputs, dir: &Path) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    // Untraced reference pass for the overhead figure.
    let (mut rig, _) = setup(spec, dir)?;
    let (plain_s, plain_digest) = closed_loop(&mut rig, inputs, &mut Tracer::off(), &mut tally)?;
    drop(rig);

    let mut tracer = Tracer::on();
    let config = config();
    let calib = WorkloadSpec::trending()
        .scaled(config.calib_keys, config.calib_requests)
        .generate(config.calib_seed);
    let baselines = layers::baselines(&config.advisor, config.store, &calib, &mut tracer)?;
    let (mut rig, _) = setup(spec, dir)?;
    rig.mirror = Some(Mirror::new(&config, baselines));
    let (traced_s, digest) = closed_loop(&mut rig, inputs, &mut tracer, &mut tally)?;
    let mirror_ns: u64 = MIRROR_SPANS.iter().map(|s| tracer.span(s).busy_ns).sum();
    for i in 0..TRACED_ADVISES {
        let line = &inputs.advise_lines[i % inputs.advise_lines.len()];
        rig.apply(line, i + 1, &mut tracer, &mut tally)?;
    }
    let folded = tracer.time("telemetry.folded_snapshot", || rig.engine.folded_snapshot());
    let snapshots = rig.engine.snapshots().len();
    for name in ENGINE_COUNTERS {
        tracer.count(name, folded.counter(name) as f64);
    }
    tracer.count("serve.snapshots", snapshots as f64);

    let mut m = Metrics::default();
    crate::report::layer_metrics(&tracer, &mut m);
    let tick = tracer.span("serve.engine.tick");
    m.put(
        "serve.engine.tick.self_ms",
        (tick.busy_ns as f64 - mirror_ns as f64) / 1e6,
        "ms",
        1,
        "tick busy minus the mirror-timed parts",
    );
    // The mirror's own work is benchmark overhead by construction; the
    // tracing overhead is what remains.
    let overhead = ((traced_s - mirror_ns as f64 / 1e9) / plain_s - 1.0) * 100.0;
    m.put(
        "trace.overhead_pct",
        overhead,
        "%",
        1,
        "traced closed loop (minus mirror work) vs untraced",
    );
    m.note(&format!(
        "untraced pass {plain_s:.3} s, traced pass {traced_s:.3} s of which mirror {:.3} s",
        mirror_ns as f64 / 1e9
    ));
    let correct = check_digests(
        spec.name,
        seed,
        &[plain_digest, digest],
        rig.mismatch.as_deref(),
    );
    if correct {
        println!(
            "# {}: mirror grants and advice equal the engine's rows",
            spec.name
        );
    }
    Ok(Outcome {
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        reasons: tally.reasons,
        metrics: m,
    })
}

/// Spans the mirror records while re-enacting ticks: together, the
/// parts a tick is split into.
const MIRROR_SPANS: [&str; 6] = [
    "stream.observe",
    "stream.approx_pattern",
    "core.consult_with_pattern",
    "core.advisor.recommend",
    "core.demand_fit",
    "core.allocate_demands",
];

/// Engine counters read from `folded_snapshot()`.
const ENGINE_COUNTERS: [&str; 6] = [
    "serve.replan.runs",
    "serve.replan.rows",
    "serve.advise.rows",
    "serve.tenant.events",
    "serve.ingest.dropped",
    "serve.ingest.rejected",
];
