//! The four workloads and the passes that run them.
//!
//! Every workload is a campaign spec built from the seed argument. The
//! two single-`World` workloads expand to exactly one run and are driven
//! through `World` directly, the way a user runs one experiment; the two
//! campaign workloads go through `runner::execute` and its read side.

use clocksync::fabric::FleetShape;
use clocksync::scenario::ScenarioKind;
use clocksync::snapshot::{checkpoint_time, warm_prefix_config};
use clocksync::time::{Nanos, SimTime};
use clocksync::{RunCounters, World, WorldSnapshot};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tsn_campaign::spec::{FLEET_TOPOLOGY_NAMES, TOPOLOGY_NAMES};
use tsn_campaign::summary::{self, DiffTolerance, DiffVerdict, GroupSummary};
use tsn_campaign::{
    expand, runner, BaseSpec, CampaignSpec, Grid, Preset, RunPlan, RunRecord, RunnerOptions,
};

use tsn_snapshot::fnv1a64;

use crate::calib::{self, Meter};
use crate::spans::Spans;

/// Worker threads of the campaign workloads: the load is one process
/// running at most this many simulations at a time.
pub const THREADS: usize = 2;

/// Set-up samples per repetition, where they are cheap.
const SUB_SAMPLES: usize = 32;

/// Host time a campaign repetition may spend on extra set-up samples.
const EXTRA_BUDGET_S: f64 = 0.25;

/// Calibration bursts at each phase boundary of a campaign repetition.
const CAMPAIGN_BURSTS: usize = 480;

/// Simulated length of one `World::run_until` slice.
const SLICE: Nanos = Nanos::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FaultInjection1h,
    ElectionFabric,
    CampaignReproAll,
    SweepWide,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FaultInjection1h,
        Workload::ElectionFabric,
        Workload::CampaignReproAll,
        Workload::SweepWide,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FaultInjection1h => "fault-injection-1h",
            Workload::ElectionFabric => "election-fabric",
            Workload::CampaignReproAll => "campaign-repro-all",
            Workload::SweepWide => "sweep-wide",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_campaign(self) -> bool {
        matches!(self, Workload::CampaignReproAll | Workload::SweepWide)
    }

    /// `campaign run --fork`: only `repro-all` has runs that share a warm
    /// prefix (the five scenarios of one seed).
    fn fork(self) -> bool {
        self == Workload::CampaignReproAll
    }

    /// The workload's inputs, a pure function of the seed argument.
    pub fn spec(self, seed: u64) -> CampaignSpec {
        let seeds = |n: u64| {
            (0..n)
                .map(|i| seed.wrapping_mul(1000).wrapping_add(i))
                .collect()
        };
        match self {
            // The paper's experiment (ii), shortened from 24 h to 1 h.
            Workload::FaultInjection1h => CampaignSpec {
                name: self.name().to_string(),
                base: BaseSpec {
                    preset: Preset::Paper,
                    duration_s: Some(3600),
                    warmup_s: Some(30),
                },
                scenarios: vec![ScenarioKind::FaultInjection],
                grid: Grid {
                    seeds: seeds(1),
                    ..Grid::default()
                },
            },
            // quick-election-failover (BMCA, 250 ms Announce, GM kill
            // mid-run) behind a 6-hop ring with 30 % cross-traffic and
            // transparent clocks; 20 min simulated.
            Workload::ElectionFabric => CampaignSpec {
                name: self.name().to_string(),
                base: BaseSpec {
                    preset: Preset::Quick,
                    duration_s: Some(1180),
                    warmup_s: Some(20),
                },
                scenarios: vec![ScenarioKind::Baseline],
                grid: Grid {
                    seeds: seeds(1),
                    election: vec![true],
                    announce_interval_ms: vec![250],
                    gm_failure_at_s: vec![590],
                    hops: vec![6],
                    topology: vec![TOPOLOGY_NAMES[1].to_string()],
                    cross_traffic_pct: vec![30],
                    tc_mode: vec![true],
                    ..Grid::default()
                },
            },
            // The repro-all grid with its three seeds taken from the
            // seed argument.
            Workload::CampaignReproAll => {
                let mut spec = CampaignSpec::builtin("repro-all").expect("repro-all is a builtin");
                spec.grid.seeds = seeds(3);
                spec
            }
            // 100 seeds x four generated fleet shapes of 4096 ECDs, 1 s
            // warm-up + 2 s measured each.
            Workload::SweepWide => CampaignSpec {
                name: self.name().to_string(),
                base: BaseSpec {
                    preset: Preset::Quick,
                    duration_s: Some(2),
                    warmup_s: Some(1),
                },
                scenarios: vec![ScenarioKind::Baseline],
                grid: Grid {
                    seeds: seeds(100),
                    fleet_nodes: vec![4096],
                    fleet_topology: FLEET_TOPOLOGY_NAMES.iter().map(|t| t.to_string()).collect(),
                    ..Grid::default()
                },
            },
        }
    }
}

/// One timed repetition of a workload.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host time from the start of the run to the checked output.
    pub wall_s: f64,
    /// Host time before the first simulated event, one or more samples.
    pub setup_s: Vec<f64>,
    /// Host time spent simulating.
    pub sim_host_s: f64,
    /// Simulated seconds covered (warm-up included).
    pub sim_seconds: f64,
    /// Host time of the read side (campaign workloads).
    pub read_s: f64,
    /// Must be identical across repetitions of one seed.
    pub digest: u64,
    /// The host's slowdown beside `wall_s`, `sim_host_s` and each
    /// `setup_s` sample ([`calib`]); 1 where the repetition was not
    /// calibrated. A time over its slowdown is host time at the nominal
    /// host speed.
    pub wall_slowdown: f64,
    pub sim_slowdown: f64,
    pub setup_slowdown: Vec<f64>,
    /// Events handled (single-`World` workloads only).
    pub events: u64,
    /// Simulation runs attempted and failed in this repetition.
    pub attempted: u64,
    pub failed: u64,
    /// Why runs failed.
    pub problems: Vec<String>,
    /// The run's artifact line (single-`World` workloads).
    pub artifact: String,
    /// Events the fork skipped (campaign workloads).
    pub prefix_events_skipped: u64,
    /// Runs the runner executed (campaign workloads).
    pub runs_executed: u64,
    /// Summed per-run busy time / (threads x execute wall), from the
    /// traced profile (traced campaign repetitions only).
    pub pool_util: f64,
}

/// Layer counts gathered from traced runs (`TraceReport.pop_kinds` and
/// `RunCounters`), summed over runs.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub events: u64,
    pub pops: Vec<(&'static str, u64)>,
    pub counters: RunCounters,
    /// Largest per-run reconvergence (simulated ns).
    pub reconvergence_ns: u64,
}

impl Counts {
    pub fn pops_of(&self, kind: &str) -> u64 {
        self.pops
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, n)| *n)
    }

    fn add(&mut self, events: u64, pops: &[(&'static str, u64)], c: &RunCounters) {
        self.events += events;
        for &(kind, n) in pops {
            match self.pops.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, m)) => *m += n,
                None => self.pops.push((kind, n)),
            }
        }
        let s = &mut self.counters;
        s.frames_queued += c.frames_queued;
        s.aggregations += c.aggregations;
        s.no_quorum += c.no_quorum;
        s.sync_transitions += c.sync_transitions;
        s.takeovers += c.takeovers;
        s.vm_failures += c.vm_failures;
        s.gm_failures += c.gm_failures;
        s.announce_tx += c.announce_tx;
        s.elected_gm_changes += c.elected_gm_changes;
        s.fabric_frames_forwarded += c.fabric_frames_forwarded;
        s.fabric_frames_dropped += c.fabric_frames_dropped;
        self.reconvergence_ns = self.reconvergence_ns.max(c.reconvergence_ns);
    }
}

/// A workload bound to one seed and a scratch directory.
pub struct Bench {
    pub workload: Workload,
    pub spec: CampaignSpec,
    pub plans: Vec<RunPlan>,
    pub work: PathBuf,
}

impl Bench {
    pub fn new(workload: Workload, seed: u64, work: PathBuf) -> io::Result<Bench> {
        let spec = workload.spec(seed);
        let plans = expand(&spec).map_err(|e| io::Error::other(format!("invalid spec: {e}")))?;
        std::fs::create_dir_all(&work)?;
        Ok(Bench {
            workload,
            spec,
            plans,
            work,
        })
    }

    /// Simulated seconds the workload covers, warm-up included.
    pub fn sim_seconds(&self) -> f64 {
        self.plans
            .iter()
            .map(|p| (p.config.warmup + p.config.duration).as_secs_f64())
            .sum()
    }

    /// One timed repetition. `trace` arms the in-program tracer and
    /// returns the layer counts of a single-`World` run. `calibrate` runs
    /// calibration bursts beside it, on as many threads as the workload
    /// uses, and reports the host's slowdown; the repetition's times
    /// exclude the bursts.
    pub fn rep(
        &self,
        spans: &mut Spans,
        trace: bool,
        calibrate: bool,
    ) -> io::Result<(Rep, Option<Counts>)> {
        let threads = if self.workload.is_campaign() {
            THREADS
        } else {
            1
        };
        let mut meters: Vec<Meter> = if calibrate {
            (0..threads).map(|_| Meter::new()).collect()
        } else {
            Vec::new()
        };
        if self.workload.is_campaign() {
            let trace_dir = trace.then(|| self.work.join("trace"));
            let rep = self.campaign_rep(spans, trace_dir.as_deref(), &mut meters)?;
            Ok((rep, None))
        } else {
            let (rep, counts) =
                spans.within("workload", |sp| self.single_rep(sp, trace, &mut meters));
            Ok((rep, counts))
        }
    }

    fn single_rep(
        &self,
        spans: &mut Spans,
        trace: bool,
        meters: &mut [Meter],
    ) -> (Rep, Option<Counts>) {
        let plan = &self.plans[0];
        let t0 = Instant::now();
        let mut world = spans.time("core.new", || World::new(plan.config.clone()));
        let first_setup_s = t0.elapsed().as_secs_f64();
        if trace {
            // Counts only: with a zero event cap the tracer counts pops
            // per kind and records no events.
            world.enable_trace_capped(0);
        }
        let sim_start = Instant::now();
        run_sliced(&mut world, spans, meters.first_mut());
        let burst_s: f64 = meters.iter().map(Meter::host_s).sum();
        let sim_host_s = sim_start.elapsed().as_secs_f64() - burst_s;
        let events = world.events_processed();
        let state_hash = spans.time("check.digest", || world.state_hash());
        let result = spans.time("core.finish", || world.into_result());
        let line = spans.time("campaign.record", || {
            RunRecord::new(&self.spec.name, plan, &result).encode()
        });
        let wall_s = t0.elapsed().as_secs_f64() - burst_s;

        // Set-up takes tens of microseconds here, so each repetition
        // repeats it to give a steady median.
        let mut setup_s = vec![first_setup_s];
        for _ in 1..SUB_SAMPLES {
            let t = Instant::now();
            drop(std::hint::black_box(World::new(plan.config.clone())));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let slowdown = calib::slowdown(meters);
        let counts = result.trace.as_ref().map(|report| {
            let mut c = Counts::default();
            c.add(events, &report.pop_kinds, &result.counters);
            c
        });
        let rep = Rep {
            wall_s,
            sim_host_s,
            sim_seconds: self.sim_seconds(),
            wall_slowdown: slowdown,
            sim_slowdown: slowdown,
            setup_slowdown: vec![slowdown; setup_s.len()],
            setup_s,
            digest: run_digest(events, state_hash, &line),
            events,
            attempted: 1,
            artifact: line,
            ..Rep::default()
        };
        (rep, counts)
    }

    /// One campaign execution plus its read side, in the work directory's
    /// `campaign/` (removed first, so every run executes). With a
    /// `trace_dir` the runner traces every run and the repetition reports
    /// the pool's utilisation from the traced profile. The `meters` (one
    /// per worker thread, or none) run their bursts together at each
    /// boundary between set-up, execution, the read side and the extra
    /// set-up samples, outside every timed interval; each phase takes the
    /// mean slowdown of the bursts on either side of it.
    pub fn campaign_rep(
        &self,
        spans: &mut Spans,
        trace_dir: Option<&Path>,
        meters: &mut [Meter],
    ) -> io::Result<Rep> {
        let spec = &self.spec;
        let dir = self.work.join("campaign");
        remove_dir(&dir)?;
        if let Some(t) = trace_dir {
            remove_dir(t)?;
        }
        spans.within("workload", |spans| {
            let before_setup = calib::bursts_together(meters, CAMPAIGN_BURSTS);
            let setup_start = Instant::now();
            let plans = spans.within("setup", |sp| setup(spec, sp))?;
            let mut setup_s = vec![setup_start.elapsed().as_secs_f64()];
            let before_execute = calib::bursts_together(meters, CAMPAIGN_BURSTS);

            let t0 = Instant::now();
            let opts = RunnerOptions {
                threads: THREADS,
                quiet: true,
                fork: self.workload.fork(),
                trace: trace_dir.map(Path::to_path_buf),
                trace_max_events: Some(0),
                ..RunnerOptions::new(&dir)
            };
            let report = spans.time("campaign.execute", || runner::execute(spec, &opts))?;
            let execute_s = t0.elapsed().as_secs_f64();
            let before_read = calib::bursts_together(meters, CAMPAIGN_BURSTS);

            let resume_opts = RunnerOptions {
                trace: None,
                ..opts.clone()
            };
            let read_start = Instant::now();
            let (executed, verdict) = read_side(spec, &resume_opts, spans)?;
            let read_s = read_start.elapsed().as_secs_f64();
            let digest = spans.time("check.digest", || artifact_digest(&dir, &plans))?;
            let output_s = read_start.elapsed().as_secs_f64();
            let after_output = calib::bursts_together(meters, CAMPAIGN_BURSTS);
            // More set-up samples, outside `wall_s`, while they stay cheap.
            let extra = Instant::now();
            while setup_s.len() < SUB_SAMPLES && extra.elapsed().as_secs_f64() < EXTRA_BUDGET_S {
                let t = Instant::now();
                setup(spec, &mut Spans::new(false))?;
                setup_s.push(t.elapsed().as_secs_f64());
            }
            let after_extra = calib::bursts_together(meters, CAMPAIGN_BURSTS);

            let mid = |a: f64, b: f64| (a + b) / 2.0;
            let sim_slowdown = mid(before_execute, before_read);
            let wall_s = execute_s + output_s;
            let nominal_wall_s =
                execute_s / sim_slowdown + output_s / mid(before_read, after_output);
            let mut setup_slowdown = vec![mid(after_output, after_extra); setup_s.len()];
            setup_slowdown[0] = mid(before_setup, before_execute);

            let mut problems: Vec<String> = report.failed.iter().map(|f| f.to_string()).collect();
            if report.quarantined > 0 {
                problems.push(format!("{} artifact(s) quarantined", report.quarantined));
            }
            if executed != 0 {
                problems.push(format!("resume pass executed {executed} run(s)"));
            }
            if verdict != DiffVerdict::Parity {
                problems.push(format!("self-diff verdict {verdict:?}, expected Parity"));
            }
            let pool_util = match trace_dir {
                Some(t) => {
                    let busy_s: f64 = tsn_campaign::profile::load(t)?
                        .iter()
                        .map(|e| e.wall_s)
                        .sum();
                    busy_s / (report.threads as f64 * execute_s)
                }
                None => 0.0,
            };
            Ok(Rep {
                wall_s,
                setup_s,
                sim_host_s: execute_s,
                sim_seconds: self.sim_seconds(),
                wall_slowdown: wall_s / nominal_wall_s,
                sim_slowdown,
                setup_slowdown,
                read_s,
                digest,
                events: 0,
                attempted: plans.len() as u64,
                failed: (report.failed.len() + report.quarantined) as u64
                    + u64::from(executed != 0)
                    + u64::from(verdict != DiffVerdict::Parity),
                problems,
                artifact: String::new(),
                prefix_events_skipped: report.prefix_events_skipped,
                runs_executed: report.executed as u64,
                pool_util,
            })
        })
    }

    /// The untimed check pass. Single `World`: an oracle-armed run must
    /// report no violation and give the timed runs' output digest
    /// `reference`, and a run forked from the warm-prefix checkpoint must
    /// end in the same state and artifact. Returns `(runs attempted, runs
    /// failed, problems)`.
    pub fn check_pass(&self, reference: u64) -> io::Result<(u64, u64, Vec<String>)> {
        if self.workload.is_campaign() {
            return self.check_campaign();
        }
        let plan = &self.plans[0];
        let cfg = &plan.config;
        let mut problems = Vec::new();
        let mut failed = 0;

        let mut world = World::new(cfg.clone());
        world.enable_oracle();
        world.run_until(world.end_time());
        let events = world.events_processed();
        let hash = world.state_hash();
        let result = world.into_result();
        let line = RunRecord::new(&self.spec.name, plan, &result).encode();
        if let Some(first) = result.violations.first() {
            failed += 1;
            problems.push(format!(
                "oracle: {} violation(s), first: {first}",
                result.violations.len()
            ));
        } else if run_digest(events, hash, &line) != reference {
            failed += 1;
            problems.push("oracle-armed run diverged from the unarmed run".to_string());
        }

        let at = checkpoint_time(cfg).expect("benchmark workloads have a warm-up");
        let mut prefix = World::new(warm_prefix_config(cfg));
        prefix.run_until(at);
        let wire = prefix.snapshot().encode();
        let snap = WorldSnapshot::decode(&wire)
            .map_err(|e| io::Error::other(format!("snapshot decode: {e}")))?;
        let mut forked = World::restore(cfg.clone(), &snap)
            .map_err(|e| io::Error::other(format!("snapshot restore: {e}")))?;
        forked.run_until(forked.end_time());
        // The forked world skipped the prefix's events; compare state
        // and artifact, not the event counter.
        let forked_hash = forked.state_hash();
        let forked_result = forked.into_result();
        let forked_line = RunRecord::new(&self.spec.name, plan, &forked_result).encode();
        if forked_hash != hash || forked_line != line {
            failed += 1;
            problems.push("forked run differs from the cold run".to_string());
        }
        Ok((2, failed, problems))
    }

    /// The campaign check pass: a cold, oracle-armed execution must
    /// report no violation and write, run by run, the artifacts the timed
    /// (forked, unarmed) execution left in `campaign/`.
    fn check_campaign(&self) -> io::Result<(u64, u64, Vec<String>)> {
        let dir = self.work.join("check");
        remove_dir(&dir)?;
        let report = runner::execute(
            &self.spec,
            &RunnerOptions {
                threads: THREADS,
                quiet: true,
                check: true,
                ..RunnerOptions::new(&dir)
            },
        )?;
        let mut problems: Vec<String> = report.failed.iter().map(|f| f.to_string()).collect();
        let mut bad: Vec<&str> = report.violations.iter().map(|v| v.run.as_str()).collect();
        bad.sort_unstable();
        bad.dedup();
        if let Some(v) = report.violations.first() {
            problems.push(format!(
                "oracle: {} violation(s) in {} run(s), first: {v}",
                report.violations.len(),
                bad.len()
            ));
        }
        let mut failed = (report.failed.len() + bad.len()) as u64;
        for plan in &self.plans {
            let name = format!("run-{}.jsonl", plan.hash);
            let cold = std::fs::read(dir.join("runs").join(&name))?;
            let timed = std::fs::read(self.work.join("campaign").join("runs").join(&name))?;
            if cold != timed {
                failed += 1;
                problems.push(format!(
                    "{}: cold oracle-armed artifact differs from the timed run's",
                    plan.coord.label()
                ));
            }
        }
        remove_dir(&dir)?;
        Ok((self.plans.len() as u64, failed, problems))
    }

    /// Layer timings and counts of a campaign workload, plan by plan on
    /// one thread: a sliced run with spans (the single-`World` timings
    /// for these runs), then a run with the tracer armed for the counts.
    pub fn count_pass(&self, spans: &mut Spans) -> Counts {
        let mut counts = Counts::default();
        spans.within("count_pass", |spans| {
            for plan in &self.plans {
                let mut world = spans.time("core.new", || World::new(plan.config.clone()));
                run_sliced(&mut world, spans, None);
                drop(spans.time("core.finish", || world.into_result()));

                let mut world = World::new(plan.config.clone());
                world.enable_trace_capped(0);
                let result = world.run();
                let report = result.trace.as_ref().expect("tracer armed");
                counts.add(report.sim_events, &report.pop_kinds, &result.counters);
            }
        });
        counts
    }

    /// The fleets the sweep generates: one `(shape, fleet seed)` per
    /// shape, from the first plan of each shape. Workloads without
    /// fleets replay the sweep's shapes at the same size.
    pub fn fleet_inputs(&self, seed: u64) -> (u32, Vec<(FleetShape, u64)>) {
        let mut out = Vec::new();
        for plan in &self.plans {
            if let (Some(name), true) = (plan.coord.fleet_topology, plan.coord.fleet_active()) {
                let shape = FleetShape::parse(name).expect("spec fleet shapes parse");
                if !out.iter().any(|(s, _)| *s == shape) {
                    out.push((shape, plan.coord.fleet_seed()));
                }
            }
        }
        if out.is_empty() {
            out = FleetShape::ALL
                .iter()
                .enumerate()
                .map(|(i, &s)| (s, seed.wrapping_mul(31).wrapping_add(i as u64)))
                .collect();
        }
        let nodes = self.plans[0].coord.fleet_nodes.unwrap_or(4096);
        (nodes, out)
    }

    /// The records of the last [`Bench::campaign_rep`].
    pub fn records(&self) -> io::Result<Vec<RunRecord>> {
        runner::load(&self.spec, &self.work.join("campaign"))
    }
}

/// Digest of one finished run: events handled, state hash and artifact.
fn run_digest(events: u64, state_hash: u64, artifact: &str) -> u64 {
    let mut bytes = [events.to_le_bytes(), state_hash.to_le_bytes()].concat();
    bytes.extend_from_slice(artifact.as_bytes());
    fnv1a64(&bytes)
}

/// Runs `world` to its end in [`SLICE`]-long `run_until` calls, with a
/// calibration burst after each when a `meter` is given.
fn run_sliced(world: &mut World, spans: &mut Spans, mut meter: Option<&mut Meter>) {
    let end = world.end_time();
    let mut t = SimTime::ZERO;
    while t < end {
        t = (t + SLICE).min(end);
        spans.time("core.run_until", || world.run_until(t));
        if let Some(m) = meter.as_deref_mut() {
            m.burst();
        }
    }
}

/// Set-up as the runner pays it: `expand` (every config, generated
/// fleets included) and one `World::new` per plan. The benchmark times it
/// itself because the runner does both internally.
fn setup(spec: &CampaignSpec, spans: &mut Spans) -> io::Result<Vec<RunPlan>> {
    let plans = spans
        .time("campaign.expand", || expand(spec))
        .map_err(|e| io::Error::other(format!("invalid spec: {e}")))?;
    for plan in &plans {
        drop(spans.time("core.new", || World::new(plan.config.clone())));
    }
    Ok(plans)
}

/// The read side of a finished campaign: a resume pass (returns the runs
/// it executed, which must be none), a streaming summarize and a diff of
/// the directory against itself (returns its verdict).
fn read_side(
    spec: &CampaignSpec,
    opts: &RunnerOptions,
    spans: &mut Spans,
) -> io::Result<(usize, DiffVerdict)> {
    let resume = spans.time("campaign.resume", || runner::execute(spec, opts))?;
    spans.time("campaign.summarize", || summarize_dir(spec, &opts.dir))?;
    let verdict = spans.within("campaign.diff", |sp| -> io::Result<DiffVerdict> {
        let base = sp.time("campaign.summarize", || summarize_dir(spec, &opts.dir))?;
        let cand = sp.time("campaign.summarize", || summarize_dir(spec, &opts.dir))?;
        Ok(summary::diff(&base, &cand, DiffTolerance::default()).verdict)
    })?;
    Ok((resume.executed, verdict))
}

/// Streaming summarize, as `campaign summarize` does it.
fn summarize_dir(spec: &CampaignSpec, dir: &Path) -> io::Result<Vec<GroupSummary>> {
    let mut summarizer = summary::StreamSummarizer::new();
    for record in runner::RunRecordReader::open(spec, dir)? {
        summarizer.push(&record?);
    }
    Ok(summarizer.finish())
}

/// Digest of every artifact's bytes, in canonical plan order.
pub fn artifact_digest(dir: &Path, plans: &[RunPlan]) -> io::Result<u64> {
    // One artifact in memory at a time, so the digest does not add to
    // the peak RSS the benchmark reports.
    let mut per_run = Vec::with_capacity(8 * plans.len());
    for plan in plans {
        let path = dir.join("runs").join(format!("run-{}.jsonl", plan.hash));
        per_run.extend(fnv1a64(&std::fs::read(&path)?).to_le_bytes());
    }
    Ok(fnv1a64(&per_run))
}

/// Total bytes of a campaign directory's artifacts.
pub fn artifact_bytes(dir: &Path, plans: &[RunPlan]) -> io::Result<u64> {
    let mut total = 0;
    for plan in plans {
        total +=
            std::fs::metadata(dir.join("runs").join(format!("run-{}.jsonl", plan.hash)))?.len();
    }
    Ok(total)
}

pub fn remove_dir(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}
