//! The repository's benchmark: four workloads of the clocksync simulator
//! and campaign engine, end-to-end metrics from untraced runs and
//! per-layer metrics from a separate traced run.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fault-injection-1h --seed 1 --seconds 24 --trace 0
//! ```
//!
//! Run it from the repository root: it reads `BENCHMARK.json` there (the
//! metric names and units it must print) and writes its results, spans
//! and campaign scratch directories under `.bench_out/`. The last line
//! of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 0 when every
//! output check passed, 1 when one failed, and 2 on a usage or I/O error.
//!
//! End-to-end times are host times at a nominal host speed, measured
//! beside each repetition by the calibration in `calib`.
//!
//! The load is batch and closed-loop: one process, at most two worker
//! threads, and each repetition starts after the last one finished. See
//! `perfbench/README.md` for why each workload was chosen and which
//! end-to-end metric each layer metric should move.

mod calib;
mod layers;
mod spans;
mod stats;
mod workloads;

use spans::Spans;
use stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use tsn_campaign::json::Json;
use workloads::{Bench, Counts, Rep, Workload};

/// Fewest timed repetitions per run, however long they take.
const MIN_REPS: usize = 3;
/// Span repetition id of the layer passes that follow the timed pairs.
const LAYER_REP: u32 = 1_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (known: {})", known.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u32>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                seconds = Some(f64::from(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One printed metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    /// Spread of the samples behind `value`, when it is a median.
    summary: Option<Summary>,
}

#[derive(Default)]
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    repetitions: usize,
    digest: u64,
    /// Extra lines printed before the result (paper comparison, layer map).
    notes: Vec<String>,
}

impl Outcome {
    fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            summary: None,
        });
    }

    fn push_median(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let s = Summary::of(samples);
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: s.median,
            summary: Some(s),
        });
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    fn absorb(&mut self, rep: &Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.problems.extend(rep.problems.iter().cloned());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let declared = declared_metrics(Path::new("BENCHMARK.json"), args.trace)?;
    let out_dir = PathBuf::from(".bench_out");
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let work = out_dir.join(format!("work-{tag}-{}", std::process::id()));
    let bench = Bench::new(args.workload, args.seed, work.clone()).map_err(|e| e.to_string())?;
    let mut spans = Spans::new(args.trace);
    let outcome = guarded(|| {
        if args.trace {
            traced(&bench, args, &mut spans)
        } else {
            untraced(&bench, args)
        }
    });
    workloads::remove_dir(&work).map_err(|e| e.to_string())?;
    let outcome = outcome?;

    // The printed set must be exactly the declared one.
    let printed: BTreeMap<&str, &str> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    let want: BTreeMap<&str, &str> = declared
        .iter()
        .map(|(n, u)| (n.as_str(), u.as_str()))
        .collect();
    // A run that failed before measuring anything prints no metrics.
    let measured = !outcome.metrics.is_empty();
    if measured && (printed != want || printed.len() != outcome.metrics.len()) {
        return Err(format!(
            "metrics printed ({printed:?}) differ from those BENCHMARK.json declares ({want:?})"
        ));
    }

    let provenance = provenance(args, &bench, &outcome);
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    std::fs::write(
        out_dir.join(format!("{tag}.json")),
        Json::object(vec![
            ("provenance", provenance.clone()),
            ("metrics", metrics_json(&outcome.metrics, true)),
        ])
        .render(),
    )
    .map_err(|e| e.to_string())?;
    if args.trace {
        spans
            .write_jsonl(
                &out_dir.join(format!("spans-{tag}.jsonl")),
                args.workload.name(),
            )
            .map_err(|e| e.to_string())?;
    }

    println!("provenance {}", provenance.render());
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        match m.summary {
            Some(s) => println!(
                "metric {:<28} {:>16.6} {:<8} median of n={} (q1 {:.6}, q3 {:.6})",
                m.name, m.value, m.unit, s.n, s.q1, s.q3
            ),
            None => println!("metric {:<28} {:>16.6} {}", m.name, m.value, m.unit),
        }
    }
    let fail_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "fail_frac {fail_frac} ({} of {} runs failed)",
        outcome.failed, outcome.attempted
    );
    println!("sim_digest {:016x}", outcome.digest);
    for p in &outcome.problems {
        println!("FAILED: {p}");
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{}",
        Json::object(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::UInt(outcome.attempted)),
            ("failed", Json::UInt(outcome.failed)),
            ("metrics", metrics_json(&outcome.metrics, false)),
        ])
        .render()
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `(name, unit)` of the metrics BENCHMARK.json declares for this mode.
fn declared_metrics(path: &Path, trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{} has no {key} list", path.display()))?
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("{key} entry without name/unit: {}", m.render()))
        })
        .collect()
}

fn metrics_json(metrics: &[Metric], with_spread: bool) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|m| {
                let mut pairs = vec![
                    ("value", Json::Float(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ];
                if let (true, Some(s)) = (with_spread, m.summary) {
                    pairs.push(("median", Json::Float(s.median)));
                    pairs.push(("q1", Json::Float(s.q1)));
                    pairs.push(("q3", Json::Float(s.q3)));
                    pairs.push(("n", Json::UInt(s.n as u64)));
                }
                (m.name.clone(), Json::object(pairs))
            })
            .collect(),
    )
}

/// Runs `f`, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> std::io::Result<T>) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .map_or_else(|| "panicked".to_string(), |m| format!("panicked: {m}"))),
    }
}

/// The end-to-end pass: timed repetitions for `--seconds`, then the
/// untimed check pass.
fn untraced(bench: &Bench, args: &Args) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut off = Spans::new(false);
    let start = Instant::now();
    let runs_per_rep = bench.plans.len() as u64;
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        match guarded(|| bench.rep(&mut off, false, true)) {
            Ok((rep, _)) => {
                out.absorb(&rep);
                reps.push(rep);
            }
            Err(e) => {
                out.attempted += runs_per_rep;
                out.fail(format!("repetition {}: {e}", reps.len()));
                break;
            }
        }
    }
    // Peak RSS of the timed repetitions, before the check pass runs.
    let peak_rss_mib = peak_rss_kib()? as f64 / 1024.0;
    let Some(first) = reps.first() else {
        return Ok(out);
    };
    out.digest = first.digest;
    for (i, rep) in reps.iter().enumerate().skip(1) {
        if rep.digest != first.digest || rep.events != first.events {
            out.fail(format!(
                "repetition {i}: output digest {:016x} != {:016x} of repetition 0",
                rep.digest, first.digest
            ));
        }
    }
    match guarded(|| bench.check_pass(first.digest)) {
        Ok((attempted, failed, problems)) => {
            out.attempted += attempted;
            out.failed += failed;
            out.problems.extend(problems);
        }
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("check pass: {e}"));
        }
    }
    // Host times at the nominal host speed: each repetition's times over
    // the slowdown its calibration bursts measured (see `calib`).
    let col = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let setup = |scale: bool| {
        reps.iter()
            .flat_map(|r| {
                r.setup_s
                    .iter()
                    .zip(&r.setup_slowdown)
                    .map(move |(s, k)| if scale { s / k } else { *s })
            })
            .collect::<Vec<f64>>()
    };
    out.push_median("wall_s", "s", &col(|r| r.wall_s / r.wall_slowdown));
    out.push_median("setup_s", "s", &setup(true));
    out.push_median(
        "sim_speed",
        "sim_s/s",
        &col(|r| r.sim_seconds * r.sim_slowdown / r.sim_host_s),
    );
    out.push("peak_rss_mib", "MiB", peak_rss_mib);
    let slowdown = Summary::of(&col(|r| r.wall_slowdown));
    let raw = |name: &str, samples: &[f64]| {
        let s = Summary::of(samples);
        format!(
            "raw    {name:<21} {:>16.6} median of n={} (q1 {:.6}, q3 {:.6}), host time as measured",
            s.median, s.n, s.q1, s.q3
        )
    };
    out.notes.push(format!(
        "host   slowdown {:.4} median of n={} (q1 {:.4}, q3 {:.4}) against the calibration's nominal speed",
        slowdown.median, slowdown.n, slowdown.q1, slowdown.q3
    ));
    out.notes.push(raw("wall_s", &col(|r| r.wall_s)));
    out.notes.push(raw("setup_s", &setup(false)));
    out.notes
        .push(raw("sim_speed", &col(|r| r.sim_seconds / r.sim_host_s)));
    out.repetitions = reps.len();
    if bench.workload == Workload::FaultInjection1h {
        out.notes.extend(paper_comparison(bench, &first.artifact));
    }
    Ok(out)
}

/// The paper's reported values beside the simulated ones of the run's
/// artifact. The paper's values are the only reference the model is
/// checked against.
fn paper_comparison(bench: &Bench, artifact: &str) -> Vec<String> {
    let Some((p, record)) =
        tsn_campaign::RunRecord::decode(artifact).and_then(|r| r.precision.map(|p| (p, r)))
    else {
        return vec!["paper: the run produced no precision samples".to_string()];
    };
    vec![
        "paper  Pi* mean 322 ns +- 421 ns, max 10080 ns, Pi 11420 ns \
         (24 h on the hardware testbed; the only reference)"
            .to_string(),
        format!(
            "sim    Pi* mean {:.0} ns +- {:.0} ns, max {} ns, Pi {} ns, within Pi+gamma {:.6} \
             (1 h simulated, run seed {})",
            p.mean_ns,
            p.std_ns,
            p.max_ns,
            record.bounds.pi_ns,
            record.fraction_within_bound,
            bench.plans[0].seed
        ),
    ]
}

/// The per-layer pass: pairs of repetitions for `--seconds`, then the
/// layer passes and replays. The first repetition of a pair records the
/// benchmark's spans with the in-program tracer off, so layer timings
/// carry no tracer cost; the second arms the tracer for the layer counts
/// and records no spans. Their wall-time ratio is the tracer's overhead.
fn traced(bench: &Bench, args: &Args, spans: &mut Spans) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut off = Spans::new(false);
    let (mut plain_wall, mut traced_wall) = (Vec::new(), Vec::new());
    let mut counts: Option<Counts> = None;
    let mut last: Option<(Rep, Rep)> = None;
    let mut read_s = Vec::new();
    let start = Instant::now();
    let mut k = 0u32;
    while k == 0 || start.elapsed().as_secs_f64() < args.seconds {
        spans.set_rep(k);
        let (plain, _) = bench.rep(spans, false, false)?;
        let (with_trace, c) = bench.rep(&mut off, true, false)?;
        if plain.digest != with_trace.digest {
            out.fail(format!(
                "repetition {k}: traced output {:016x} != untraced {:016x}",
                with_trace.digest, plain.digest
            ));
        }
        out.absorb(&plain);
        out.absorb(&with_trace);
        out.digest = plain.digest;
        plain_wall.push(plain.wall_s);
        traced_wall.push(with_trace.wall_s);
        read_s.push(plain.read_s);
        counts = c.or(counts);
        last = Some((plain, with_trace));
        k += 1;
    }
    let (plain, mut pooled) = last.expect("at least one pair ran");
    out.repetitions = k as usize;

    spans.set_rep(LAYER_REP);
    let counts = match counts {
        Some(c) => {
            // Single-World workload: its one run through the campaign
            // layer, so the campaign metrics describe this workload too.
            let trace_dir = bench.work.join("trace");
            pooled = bench.campaign_rep(spans, Some(&trace_dir), &mut [])?;
            out.absorb(&pooled);
            read_s = vec![pooled.read_s];
            c
        }
        None => {
            out.attempted += 2 * bench.plans.len() as u64;
            bench.count_pass(spans)
        }
    };

    let loop_s = Summary::of(&spans.total_per_rep("core.run_until")).median;
    let loop_ns = loop_s * 1e9;

    // core
    out.push("core.events", "count", counts.events as f64);
    out.push("core.events_per_s", "1/s", counts.events as f64 / loop_s);
    out.push_median("core.new_s", "s", &spans.durations("core.new"));
    out.push_median("core.finish_s", "s", &spans.durations("core.finish"));
    let slices_ms: Vec<f64> = spans
        .durations("core.run_until")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    out.push_median("core.slice_ms_p50", "ms", &slices_ms);
    let (tail_pct, tail_ms) = stats::tail(&slices_ms);
    out.push("core.slice_ms_tail", "ms", tail_ms);
    out.push("core.slice_tail_pct", "%", tail_pct);
    out.push("core.slices", "count", slices_ms.len() as f64);

    // tsn-netsim
    let c = &counts.counters;
    out.push(
        "netsim.transmit",
        "count",
        counts.pops_of("transmit") as f64,
    );
    out.push("netsim.arrive", "count", counts.pops_of("arrive") as f64);
    out.push(
        "netsim.port_free",
        "count",
        counts.pops_of("port_free") as f64,
    );
    out.push("netsim.frames_queued", "count", c.frames_queued as f64);

    // tsn-gptp
    let codec = layers::codec();
    for (ty, enc, _) in &codec {
        out.push(&format!("gptp.encode_ns.{ty}"), "ns", *enc);
    }
    for (ty, _, dec) in &codec {
        out.push(&format!("gptp.decode_ns.{ty}"), "ns", *dec);
    }
    out.push(
        "gptp.sync_ticks",
        "count",
        counts.pops_of("gm_sync_tick") as f64,
    );
    out.push(
        "gptp.pdelay_ticks",
        "count",
        counts.pops_of("pdelay_tick") as f64,
    );
    let mean =
        |f: fn(&(&str, f64, f64)) -> f64| codec.iter().map(f).sum::<f64>() / codec.len() as f64;
    let codec_ns = mean(|x| x.1) * counts.pops_of("transmit") as f64
        + mean(|x| x.2) * counts.pops_of("arrive") as f64;
    out.push("gptp.codec_share_est", "frac", codec_ns / loop_ns);

    // tsn-fta and tsn-time: replay time x traced call count bounds the
    // layer's share of the event loop.
    let fta_ns = layers::fta_aggregate();
    out.push("fta.aggregate_ns", "ns", fta_ns);
    out.push("fta.aggregations", "count", c.aggregations as f64);
    out.push("fta.no_quorum", "count", c.no_quorum as f64);
    out.push(
        "fta.share_est",
        "frac",
        fta_ns * c.aggregations as f64 / loop_ns,
    );
    let servo_ns = layers::servo_sample();
    out.push("time.servo_ns", "ns", servo_ns);
    out.push("time.sync_transitions", "count", c.sync_transitions as f64);
    // One PiServo::sample per aggregation.
    out.push(
        "time.servo_share_est",
        "frac",
        servo_ns * c.aggregations as f64 / loop_ns,
    );

    // tsn-hyp and tsn-faults
    out.push(
        "hyp.monitor_ticks",
        "count",
        counts.pops_of("monitor_tick") as f64,
    );
    out.push(
        "hyp.phc2sys_ticks",
        "count",
        counts.pops_of("phc2sys_tick") as f64,
    );
    out.push("hyp.takeovers", "count", c.takeovers as f64);
    out.push("faults.vm_failures", "count", c.vm_failures as f64);
    out.push("faults.gm_failures", "count", c.gm_failures as f64);

    // tsn-election
    out.push(
        "election.ticks",
        "count",
        counts.pops_of("election_tick") as f64,
    );
    out.push("election.announce_tx", "count", c.announce_tx as f64);
    out.push("election.gm_changes", "count", c.elected_gm_changes as f64);
    out.push(
        "election.reconvergence_ms",
        "sim_ms",
        counts.reconvergence_ns as f64 / 1e6,
    );

    // tsn-fabric
    out.push(
        "fabric.frames_forwarded",
        "count",
        c.fabric_frames_forwarded as f64,
    );
    out.push(
        "fabric.frames_dropped",
        "count",
        c.fabric_frames_dropped as f64,
    );
    let (nodes, fleets) = bench.fleet_inputs(args.seed);
    let fleet = layers::fleet(nodes, &fleets, 3);
    out.push("fleet.generate_ms", "ms", fleet.generate_ms);
    out.push("fleet.diameter_ms", "ms", fleet.diameter_ms);
    out.push("fleet.condense_ms", "ms", fleet.condense_ms);

    // tsn-snapshot, at the first run's warm-prefix checkpoint
    let snap = layers::snapshot(&bench.plans[0].config, 5);
    out.push("snapshot.capture_ms", "ms", snap.capture_ms);
    out.push("snapshot.encode_ms", "ms", snap.encode_ms);
    out.push("snapshot.decode_ms", "ms", snap.decode_ms);
    out.push("snapshot.restore_ms", "ms", snap.restore_ms);
    out.push("snapshot.bytes", "bytes", snap.bytes as f64);
    out.push(
        "campaign.fork_saved_frac",
        "frac",
        plain.prefix_events_skipped as f64 / counts.events as f64,
    );

    // tsn-campaign
    out.push_median(
        "campaign.expand_s",
        "s",
        &spans.durations("campaign.expand"),
    );
    out.push_median(
        "campaign.execute_s",
        "s",
        &spans.durations("campaign.execute"),
    );
    out.push_median(
        "campaign.resume_s",
        "s",
        &spans.durations("campaign.resume"),
    );
    out.push_median(
        "campaign.summarize_s",
        "s",
        &spans.durations("campaign.summarize"),
    );
    out.push_median("campaign.diff_s", "s", &spans.durations("campaign.diff"));
    out.push_median("campaign.read_s", "s", &read_s);
    let records = bench.records()?;
    let (mut enc_us, mut dec_us) = (Vec::new(), Vec::new());
    for record in records.iter().take(64) {
        let line = spans.time("campaign.record", || record.encode());
        let t = Instant::now();
        for _ in 0..5 {
            std::hint::black_box(record.encode());
        }
        enc_us.push(t.elapsed().as_secs_f64() * 1e6 / 5.0);
        let t = Instant::now();
        for _ in 0..5 {
            std::hint::black_box(tsn_campaign::RunRecord::decode(&line));
        }
        dec_us.push(t.elapsed().as_secs_f64() * 1e6 / 5.0);
    }
    out.push_median("campaign.encode_us", "us", &enc_us);
    out.push_median("campaign.decode_us", "us", &dec_us);
    out.push(
        "campaign.artifact_bytes",
        "bytes",
        workloads::artifact_bytes(&bench.work.join("campaign"), &bench.plans)? as f64,
    );
    out.push(
        "campaign.runs_executed",
        "count",
        pooled.runs_executed as f64,
    );
    out.push("campaign.runs_failed", "count", pooled.failed as f64);
    out.push("campaign.pool_util", "frac", pooled.pool_util);

    // tsn-trace
    out.push(
        "trace.overhead_frac",
        "frac",
        Summary::of(&traced_wall).median / Summary::of(&plain_wall).median - 1.0,
    );

    // Self time per span name, summed per repetition.
    for name in SELF_SPANS {
        let per_rep = spans.self_time_per_rep(name);
        out.push_median(&format!("self.{name}_s"), "s", &per_rep);
    }
    out.notes.push(format!(
        "layers: event loop {loop_s:.6} s per repetition; fta {:.4} and servo {:.4} of it (replay ns x traced calls)",
        fta_ns * c.aggregations as f64 / loop_ns,
        servo_ns * c.aggregations as f64 / loop_ns
    ));
    Ok(out)
}

/// Span names whose self time the traced run reports.
const SELF_SPANS: [&str; 12] = [
    "workload",
    "setup",
    "core.new",
    "core.run_until",
    "core.finish",
    "check.digest",
    "campaign.expand",
    "campaign.execute",
    "campaign.resume",
    "campaign.summarize",
    "campaign.diff",
    "campaign.record",
];

/// Peak resident set (`VmHWM`) of this process, in KiB.
fn peak_rss_kib() -> std::io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))
}

/// Where a result came from: the code, the host and the sample.
fn provenance(args: &Args, bench: &Bench, outcome: &Outcome) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::object(vec![
        ("schema", Json::UInt(2)),
        ("workload", Json::Str(bench.workload.name().to_string())),
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::Float(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("commit", Json::Str(git_commit())),
        (
            "source_digest",
            Json::Str(format!("{:016x}", source_digest())),
        ),
        ("cpu_model", Json::Str(cpu)),
        ("cores", Json::UInt(cores)),
        ("threads", Json::UInt(workloads::THREADS as u64)),
        (
            "nominal_ns_per_event",
            Json::Float(calib::NOMINAL_NS_PER_EVENT),
        ),
        ("runs_per_repetition", Json::UInt(bench.plans.len() as u64)),
        ("repetitions", Json::UInt(outcome.repetitions as u64)),
        ("sim_digest", Json::Str(format!("{:016x}", outcome.digest))),
    ])
}

/// The checked-out commit, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| {
                read(".git/packed-refs")
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split_whitespace().next().map(str::to_string))
                    })
                    .unwrap_or_else(|| "unknown".to_string())
            }),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

/// FNV-1a digest of the sources the benchmark builds (paths and bytes,
/// in sorted order), so results from a checkout without git history can
/// still be matched to the code that produced them.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for root in ["crates", "vendor", "perfbench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    tsn_snapshot::fnv1a64(&bytes)
}
