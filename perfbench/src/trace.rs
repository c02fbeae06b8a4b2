//! The traced run: per-layer timings, measured from outside the program.
//!
//! Round layers come from a **replay**: sampled cells are re-executed
//! round by round through the public layer functions (`SchedulePolicy::
//! order`, `SensorSuite::sample_all_into`, `AttackStrategy::forge`,
//! `Fuser::fuse`, `Detector::assess`, and the closed-loop `Supervisor::
//! check` / `PiController::update` / `Vehicle::step`) in the engine's
//! order and with the engine's RNG draws, timing each call. Next to it
//! the engine itself (`FusionPipeline::run_round_into`, or
//! `LandShark::step_with` for closed-loop cells) runs the same round on
//! its own copy of the seed, timed as one call, and `ScenarioRunner`
//! has run it beforehand exactly as the sweeps do. Every round must agree bit for
//! bit across the three (transmitted intervals, fusion, estimate, flags,
//! condemnations, supervisor action, and the RNG state afterwards), so
//! the layer numbers provably describe the program the end-to-end run
//! measures. Each timed interval has the calibrated cost of reading the
//! clock subtracted.
//!
//! Sweep, store and drive layers are timed in batches around their
//! public entry points.

use std::hint::black_box;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use arsf_attack::{delta, AttackMode, AttackStrategy, AttackerConfig, SlotContext};
use arsf_bench::drive::{Fnv64, Frame, ShardStream};
use arsf_core::closed_loop::controller::PiController;
use arsf_core::closed_loop::landshark::LandShark;
use arsf_core::closed_loop::supervisor::{Supervisor, SupervisorAction};
use arsf_core::closed_loop::vehicle::{Vehicle, VehicleParams};
use arsf_core::scenario::{AttackerSpec, FuserSpec, Scenario};
use arsf_core::sweep::{ParallelSweeper, StreamingSweeper, SweepGrid, SweepReport};
use arsf_core::{FusionPipeline, RoundOutcome, ScenarioRunner};
use arsf_detect::{Detector, RoundAssessment};
use arsf_fusion::historical::{DynamicsBound, HistoricalFuser};
use arsf_fusion::Fuser;
use arsf_interval::Interval;
use arsf_schedule::SchedulePolicy;
use arsf_sensor::{Measurement, SensorSuite};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{json_number, json_string, median, metric, metrics_json, Metric};
use crate::workloads::{self, Exec, Reference, Workload};
use crate::{nproc, Args, Verdicts};

/// Share of `--seconds` spent replaying rounds; batch layers and the
/// worker-start probe take the rest.
const REPLAY_SHARE: f64 = 0.6;
/// At most this many cells are sampled for the replay (evenly strided
/// through the grid).
const MAX_SAMPLED_CELLS: usize = 2000;

/// The clock's own cost, subtracted from every timed call.
struct Clock {
    overhead_ns: f64,
}

impl Clock {
    fn calibrate() -> Self {
        let samples: Vec<f64> = (0..20_000)
            .map(|_| {
                let start = Instant::now();
                let end = Instant::now();
                (end - start).as_nanos() as f64
            })
            .collect();
        Clock {
            overhead_ns: median(&samples),
        }
    }

    fn since(&self, start: Instant) -> f64 {
        start.elapsed().as_nanos() as f64 - self.overhead_ns
    }
}

/// Busy time and call count of one layer.
#[derive(Default, Clone, Copy)]
struct Span {
    ns: f64,
    calls: u64,
}

impl Span {
    fn add(&mut self, ns: f64) {
        self.ns += ns;
        self.calls += 1;
    }

    fn per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns / self.calls as f64
        }
    }
}

/// Everything the replay accumulates.
#[derive(Default)]
struct Layers {
    order: Span,
    sample: Span,
    forge: Span,
    fuse: Span,
    assess: Span,
    control: Span,
    /// The engine's own round call, timed as one.
    engine: Span,
    /// The whole traced replay round.
    replay: Span,
    fuse_failed: u64,
    flagged: u64,
    preempted: u64,
    mismatched_rounds: u64,
}

/// The closed-loop half of a LandShark round.
struct Control {
    vehicle: Vehicle,
    pi: PiController,
    supervisor: Supervisor,
    params: VehicleParams,
    target: f64,
    dt: f64,
}

/// One cell re-executed layer by layer, mirroring
/// `FusionPipeline::run_round_at_into` (and `LandShark::step_with`).
struct Replay {
    truth: arsf_core::scenario::TruthSpec,
    random_each_round: bool,
    suite: SensorSuite,
    widths: Vec<f64>,
    schedule: SchedulePolicy,
    f: usize,
    attacker: Option<(AttackerConfig, Box<dyn AttackStrategy>)>,
    fuser: Box<dyn Fuser<f64>>,
    detector: Box<dyn Detector>,
    readings: Vec<Measurement>,
    intervals: Vec<Interval<f64>>,
    round: u64,
    control: Option<Control>,
    rng: StdRng,
    out: RoundOutcome,
}

impl Replay {
    fn new(scenario: &Scenario) -> Self {
        let (suite, fuser, f, detection, attacker, schedule, control) = match &scenario.closed_loop
        {
            None => (
                scenario.build_pipeline().suite().clone(),
                scenario.fuser.build(scenario.f),
                scenario.f,
                scenario.detector,
                scenario.attacker.clone(),
                scenario.schedule.clone(),
                None,
            ),
            Some(_) => {
                let cfg = scenario.landshark_config();
                let suite = LandShark::new(cfg.clone()).pipeline().suite().clone();
                let fuser: Box<dyn Fuser<f64>> = match cfg.fuser {
                    FuserSpec::Historical { max_rate, .. } => Box::new(HistoricalFuser::new(
                        cfg.f,
                        DynamicsBound::new(max_rate),
                        cfg.dt,
                    )),
                    ref other => other.build(cfg.f),
                };
                // The vehicle, gains and envelope `LandShark::new` builds;
                // any drift from it fails the bit-for-bit check.
                let control = Control {
                    vehicle: Vehicle::with_speed(cfg.vehicle, cfg.target_speed),
                    pi: PiController::new(3.0, 0.8, cfg.vehicle.max_accel, cfg.vehicle.max_brake),
                    supervisor: Supervisor::new(cfg.target_speed, cfg.delta_up, cfg.delta_down),
                    params: cfg.vehicle,
                    target: cfg.target_speed,
                    dt: cfg.dt,
                };
                (
                    suite,
                    fuser,
                    cfg.f,
                    cfg.detection,
                    cfg.attacker,
                    cfg.schedule,
                    Some(control),
                )
            }
        };
        let n = suite.len();
        Replay {
            truth: scenario.truth,
            random_each_round: attacker == AttackerSpec::RandomEachRound,
            widths: suite.widths(),
            suite,
            schedule,
            f,
            attacker: attacker.build(f),
            fuser,
            detector: detection.detector(n),
            readings: Vec::with_capacity(n),
            intervals: Vec::with_capacity(n),
            round: 0,
            control,
            rng: StdRng::seed_from_u64(scenario.seed),
            out: RoundOutcome::default(),
        }
    }

    /// One round; returns the supervisor's action for closed-loop cells.
    fn step(&mut self, clock: &Clock, layers: &mut Layers) -> Option<SupervisorAction> {
        let n = self.suite.len();
        let truth = match &self.control {
            Some(control) => control.vehicle.speed(),
            None => self.truth.at(self.round),
        };
        if self.random_each_round {
            let sensor = self.rng.gen_range(0..n);
            if let Some((cfg, _)) = self.attacker.as_mut() {
                *cfg = AttackerConfig::new([sensor], self.f);
            }
        }

        let start = Instant::now();
        let order = self.schedule.order(&self.widths, self.round, &mut self.rng);
        layers.order.add(clock.since(start));
        self.round += 1;

        let start = Instant::now();
        self.suite
            .sample_all_into(truth, &mut self.rng, &mut self.readings);
        layers.sample.add(clock.since(start));

        let readings = &self.readings;
        let reading_of = |sensor: usize| {
            readings
                .iter()
                .find(|m| m.sensor.index() == sensor)
                .map(|m| m.interval)
        };
        let (attacker_cfg, attacker_delta) = match &self.attacker {
            Some((cfg, _)) => {
                let own: Vec<Interval<f64>> = cfg
                    .compromised()
                    .iter()
                    .filter_map(|&s| reading_of(s))
                    .collect();
                (Some(cfg.clone()), delta(&own))
            }
            None => (None, None),
        };
        let f = self.f;
        let out = &mut self.out;
        out.truth = truth;
        out.transmitted.clear();
        for slot in 0..order.len() {
            let sensor = order[slot];
            let Some(correct_reading) = reading_of(sensor) else {
                continue;
            };
            let interval = match attacker_cfg.as_ref().filter(|cfg| cfg.controls(sensor)) {
                Some(cfg) => {
                    let unsent_attacked = order
                        .as_slice()
                        .iter()
                        .skip(slot)
                        .filter(|&&s| cfg.controls(s))
                        .count();
                    let future_own_widths: Vec<f64> = order
                        .as_slice()
                        .iter()
                        .skip(slot + 1)
                        .filter(|&&s| cfg.controls(s))
                        .map(|&s| self.widths[s])
                        .collect();
                    let ctx = SlotContext {
                        order: &order,
                        slot,
                        sensor,
                        width: self.widths[sensor],
                        seen: &out.transmitted,
                        delta: attacker_delta.unwrap_or(correct_reading),
                        own_correct: correct_reading,
                        mode: AttackMode::for_slot(out.transmitted.len(), n, f, unsent_attacked),
                        n,
                        f,
                        future_own_widths: &future_own_widths,
                        compromised: cfg.compromised(),
                        all_widths: &self.widths,
                    };
                    let strategy = &mut self
                        .attacker
                        .as_mut()
                        .expect("a compromised slot has an attacker")
                        .1;
                    let start = Instant::now();
                    let forged = strategy.forge(&ctx);
                    layers.forge.add(clock.since(start));
                    forged
                }
                None => correct_reading,
            };
            out.transmitted.push((sensor, interval));
        }
        out.order = order;

        self.intervals.clear();
        self.intervals
            .extend(out.transmitted.iter().map(|(_, iv)| *iv));
        let start = Instant::now();
        out.fusion = self.fuser.fuse(&self.intervals);
        layers.fuse.add(clock.since(start));
        out.estimate = out.fusion.as_ref().ok().map(|s| s.midpoint());

        let mut assessment = RoundAssessment {
            flagged: std::mem::take(&mut out.flagged),
            condemned: std::mem::take(&mut out.condemned),
        };
        assessment.clear();
        match &out.fusion {
            Ok(fused) => {
                let start = Instant::now();
                self.detector
                    .assess(&out.transmitted, fused, &mut assessment);
                layers.assess.add(clock.since(start));
                layers.flagged += u64::from(!assessment.flagged.is_empty());
            }
            Err(_) => layers.fuse_failed += 1,
        }
        out.flagged = assessment.flagged;
        out.condemned = assessment.condemned;

        let control = self.control.as_mut()?;
        let start = Instant::now();
        let (action, estimate) = match &out.fusion {
            Ok(fused) => (control.supervisor.check(fused), fused.midpoint()),
            Err(_) => (SupervisorAction::PreemptBrake, control.target),
        };
        let accel = match action {
            SupervisorAction::Nominal => control.pi.update(control.target, estimate, control.dt),
            SupervisorAction::PreemptBrake | SupervisorAction::PreemptBoth => {
                -control.params.max_brake * 0.25
            }
            SupervisorAction::PreemptAccelerate => control.params.max_accel * 0.25,
        };
        control.vehicle.step(accel, control.dt, &mut self.rng);
        layers.control.add(clock.since(start));
        layers.preempted += u64::from(action != SupervisorAction::Nominal);
        Some(action)
    }
}

/// The engine as the library runs it, on its own copy of the seed.
enum Engine {
    Open(Box<FusionPipeline<Box<dyn Fuser<f64>>>>),
    Shark(Box<LandShark>),
}

struct EngineSide {
    engine: Engine,
    scenario: Scenario,
    rng: StdRng,
    round: u64,
    out: RoundOutcome,
}

impl EngineSide {
    fn new(scenario: &Scenario) -> Self {
        let engine = match scenario.closed_loop {
            None => Engine::Open(Box::new(scenario.build_pipeline())),
            Some(_) => Engine::Shark(Box::new(LandShark::new(scenario.landshark_config()))),
        };
        EngineSide {
            engine,
            scenario: scenario.clone(),
            rng: StdRng::seed_from_u64(scenario.seed),
            round: 0,
            out: RoundOutcome::default(),
        }
    }

    /// One round, timing only the engine's own round call.
    fn step(&mut self, clock: &Clock, layers: &mut Layers) -> Option<SupervisorAction> {
        let action = match &mut self.engine {
            Engine::Open(pipeline) => {
                if self.scenario.attacker == AttackerSpec::RandomEachRound {
                    let sensor = self.rng.gen_range(0..pipeline.suite().len());
                    pipeline.set_attacker_config(AttackerConfig::new([sensor], self.scenario.f));
                }
                let truth = self.scenario.truth.at(self.round);
                let start = Instant::now();
                pipeline.run_round_into(truth, &mut self.rng, &mut self.out);
                layers.engine.add(clock.since(start));
                None
            }
            Engine::Shark(shark) => {
                let start = Instant::now();
                let record = shark.step_with(&mut self.rng, &mut self.out);
                layers.engine.add(clock.since(start));
                Some(record.action)
            }
        };
        self.round += 1;
        action
    }
}

fn same_interval(a: &Interval<f64>, b: &Interval<f64>) -> bool {
    a.lo().to_bits() == b.lo().to_bits() && a.hi().to_bits() == b.hi().to_bits()
}

/// Bit-for-bit equality of two round outcomes.
fn same_outcome(a: &RoundOutcome, b: &RoundOutcome) -> bool {
    a.truth.to_bits() == b.truth.to_bits()
        && a.order == b.order
        && a.transmitted.len() == b.transmitted.len()
        && a.transmitted
            .iter()
            .zip(&b.transmitted)
            .all(|((sa, ia), (sb, ib))| sa == sb && same_interval(ia, ib))
        && match (&a.fusion, &b.fusion) {
            (Ok(x), Ok(y)) => same_interval(x, y),
            (Err(x), Err(y)) => x == y,
            _ => false,
        }
        && a.estimate.map(f64::to_bits) == b.estimate.map(f64::to_bits)
        && a.flagged == b.flagged
        && a.condemned == b.condemned
}

/// Replays one cell; an error names the first diverging round.
///
/// `ScenarioRunner` runs the whole cell first, untimed. Then the engine
/// and the replay step round by round, alternating which goes first, so
/// neither side is always the one running on caches and branch history
/// the other just warmed with the identical round.
fn replay_cell(scenario: &Scenario, clock: &Clock, layers: &mut Layers) -> Result<(), String> {
    let mut expected = Vec::new();
    ScenarioRunner::new(scenario).run_batch(scenario.rounds as usize, &mut expected);
    let mut engine = EngineSide::new(scenario);
    let mut replay = Replay::new(scenario);
    let mut first_error = None;
    for (round, runner_out) in expected.iter().enumerate() {
        let traced = |replay: &mut Replay, layers: &mut Layers| {
            let start = Instant::now();
            let action = replay.step(clock, layers);
            layers.replay.add(clock.since(start));
            action
        };
        let (engine_action, replay_action) = if round % 2 == 0 {
            let e = engine.step(clock, layers);
            (e, traced(&mut replay, layers))
        } else {
            let r = traced(&mut replay, layers);
            (engine.step(clock, layers), r)
        };
        let agree = same_outcome(runner_out, &engine.out)
            && same_outcome(&engine.out, &replay.out)
            && engine_action == replay_action
            && engine.rng == replay.rng;
        if !agree {
            layers.mismatched_rounds += 1;
            first_error.get_or_insert_with(|| {
                format!(
                    "{} round {round}: replay diverged from the engine",
                    scenario.name
                )
            });
        }
    }
    first_error.map_or(Ok(()), Err)
}

/// Evenly strided cell indices, at most `MAX_SAMPLED_CELLS`.
fn sampled_cells(grid: &SweepGrid) -> Vec<usize> {
    let len = grid.len();
    let stride = len.div_ceil(MAX_SAMPLED_CELLS).max(1);
    (0..len).step_by(stride).collect()
}

/// Repeats `f` (which returns nanoseconds per unit) at least `min_reps`
/// times and until `budget_s` is spent; the median.
fn repeat(min_reps: usize, budget_s: f64, mut f: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps
        || (start.elapsed().as_secs_f64() < budget_s && samples.len() < 1000)
    {
        samples.push(f());
    }
    median(&samples)
}

/// One executor's cost per cell, each pass verified.
fn executor_cell_ns(
    workload: &Workload,
    reference: &Reference,
    budget_s: f64,
    verdicts: &mut Verdicts,
    run: impl Fn(&SweepGrid) -> SweepReport,
) -> f64 {
    let grid = &workload.grid;
    repeat(1, budget_s, || {
        let start = Instant::now();
        let report = run(grid);
        let ns = start.elapsed().as_nanos() as f64 / grid.len() as f64;
        verdicts.record("executor pass", reference.check_report(grid, &report));
        ns
    })
}

/// Spawn-to-exit of one `scenario_sweep --stream` worker on a one-cell
/// range of the drive workload's grid (the CLI has no empty range),
/// its framed output validated.
fn worker_start_ms(bin_dir: &Path, seed: u64, verdicts: &mut Verdicts) -> f64 {
    let drive = workloads::build("many-cells-drive", seed).expect("a known workload");
    let Exec::Drive(args) = &drive.exec else {
        unreachable!("many-cells-drive is driven")
    };
    let address = arsf_core::sweep::store::grid_address(&drive.grid);
    let exe = bin_dir.join("scenario_sweep");
    repeat(5, 0.5, || {
        let start = Instant::now();
        let output = Command::new(&exe)
            .args(args)
            .args(["--stream", "--threads", "1", "--cells", "0..1"])
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .and_then(|mut child| {
                let mut text = String::new();
                child
                    .stdout
                    .take()
                    .expect("stdout is piped")
                    .read_to_string(&mut text)?;
                child.wait().map(|status| (status, text))
            });
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let result = match output {
            Ok((status, text)) if status.success() => {
                let mut stream = ShardStream::new(&address, 0..1);
                text.lines()
                    .try_for_each(|line| stream.accept(line).map(drop))
                    .and_then(|()| stream.finish())
                    .map_err(|e| format!("worker stream: {e}"))
            }
            Ok((status, _)) => Err(format!("worker exited with {status}")),
            Err(e) => Err(format!("cannot run {}: {e}", exe.display())),
        };
        verdicts.record("worker start", result);
        ms
    })
}

/// Frame render and frame accept cost per row of one report.
fn frame_ns(address: &str, report: &SweepReport, verdicts: &mut Verdicts) -> (f64, f64) {
    let n = report.len();
    let frames: Vec<Frame> = report
        .rows()
        .iter()
        .map(|row| Frame::Row {
            index: row.cell,
            seed: row.seed,
            csv: row.to_csv_line(),
        })
        .collect();
    let render = repeat(5, 0.3, || {
        let start = Instant::now();
        for frame in &frames {
            black_box(frame.render());
        }
        start.elapsed().as_nanos() as f64 / n as f64
    });
    let mut hash = Fnv64::default();
    for row in report.rows() {
        hash.update(row.to_csv_line().as_bytes());
        hash.update(b"\n");
    }
    let mut lines = vec![Frame::Header {
        grid: address.to_string(),
        cells: 0..n,
    }
    .render()];
    lines.extend(frames.iter().map(Frame::render));
    lines.push(
        Frame::End {
            rows: n,
            checksum: hash.finish(),
        }
        .render(),
    );
    let mut outcome = Ok(());
    let accept = repeat(5, 0.3, || {
        let start = Instant::now();
        let mut stream = ShardStream::new(address, 0..n);
        let result = lines
            .iter()
            .try_for_each(|line| stream.accept(line).map(|row| drop(black_box(row))))
            .and_then(|()| stream.finish());
        let ns = start.elapsed().as_nanos() as f64 / n as f64;
        outcome = result.map_err(|e| format!("frame accept: {e}"));
        ns
    });
    verdicts.record("frame stream", outcome);
    (render, accept)
}

/// Runs the traced measurement and returns the per-layer metrics plus
/// the context fields of the trajectory record.
pub fn run(
    workload: &Workload,
    reference: &Reference,
    bin_dir: &Path,
    seconds: f64,
    seed: u64,
    verdicts: &mut Verdicts,
) -> (Vec<Metric>, String) {
    let clock = Clock::calibrate();
    let grid = &workload.grid;

    // Round layers: replay sampled cells until the replay budget is spent.
    let sample = sampled_cells(grid);
    let scenarios: Vec<Scenario> = sample.iter().map(|&i| grid.scenario(i)).collect();
    let mut layers = Layers::default();
    let start = Instant::now();
    let mut replayed_cells = 0usize;
    while replayed_cells < scenarios.len() || start.elapsed().as_secs_f64() < seconds * REPLAY_SHARE
    {
        let scenario = &scenarios[replayed_cells % scenarios.len()];
        verdicts.record("replay", replay_cell(scenario, &clock, &mut layers));
        replayed_cells += 1;
    }

    // Batch layers, sharing what is left of the budget.
    let budget = (seconds * (1.0 - REPLAY_SHARE) / 10.0).max(0.05);
    let setup_ns = repeat(3, budget, || {
        let start = Instant::now();
        for index in 0..grid.len() {
            black_box(ScenarioRunner::new(&grid.scenario(index)));
        }
        start.elapsed().as_nanos() as f64 / grid.len() as f64
    });
    let stream_1 = executor_cell_ns(workload, reference, budget, verdicts, |g| {
        StreamingSweeper::new(1).run(g)
    });
    let stream_2 = executor_cell_ns(workload, reference, budget, verdicts, |g| {
        StreamingSweeper::new(2).run(g)
    });
    let parallel_1 = executor_cell_ns(workload, reference, budget, verdicts, |g| {
        ParallelSweeper::new(1).run(g)
    });
    let parallel_2 = executor_cell_ns(workload, reference, budget, verdicts, |g| {
        ParallelSweeper::new(2).run(g)
    });
    let report = StreamingSweeper::new(1).run(grid);
    verdicts.record("layer pass", reference.check_report(grid, &report));
    let encode_ns = repeat(5, budget, || {
        let start = Instant::now();
        for row in report.rows() {
            black_box(row.to_csv_line());
        }
        start.elapsed().as_nanos() as f64 / report.len() as f64
    });
    let (render_ns, accept_ns) = frame_ns(&reference.address, &report, verdicts);
    let mut store_check = Ok(());
    let verify_ms = repeat(3, budget, || {
        let start = Instant::now();
        store_check = reference.check_baseline(grid, &report);
        start.elapsed().as_secs_f64() * 1e3
    });
    verdicts.record("store verify", store_check);
    let worker_ms = worker_start_ms(bin_dir, seed, verdicts);

    // Per-round accounting. For closed-loop cells the engine call also
    // covers the control step, which the replay times separately.
    let rounds = layers.replay.calls.max(1) as f64;
    let control_per_round = layers.control.ns / rounds;
    let round_ns = layers.engine.ns / rounds - control_per_round;
    let layer_ns =
        (layers.order.ns + layers.sample.ns + layers.forge.ns + layers.fuse.ns + layers.assess.ns)
            / rounds;
    let traced_rps = 1e9 / layers.replay.per_call();
    let untraced_rps = 1e9 / layers.engine.per_call();
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    println!(
        "trace: replayed {} round(s) over {replayed_cells} cell(s) ({} sampled), {} mismatched; \
         timer {:.1} ns subtracted per interval",
        layers.replay.calls,
        sample.len(),
        layers.mismatched_rounds,
        clock.overhead_ns
    );
    println!(
        "trace: round {round_ns:.1} ns = order {:.1} + sample {:.1} + forge {:.1} + fuse {:.1} + assess {:.1} \
         + self {:.1} (ns per round); control {control_per_round:.1} ns per round",
        layers.order.ns / rounds,
        layers.sample.ns / rounds,
        layers.forge.ns / rounds,
        layers.fuse.ns / rounds,
        layers.assess.ns / rounds,
        round_ns - layer_ns,
    );
    println!(
        "trace: traced {traced_rps:.0} rounds/s vs untraced {untraced_rps:.0} rounds/s (overhead {:.1}%)",
        (1.0 - traced_rps / untraced_rps) * 100.0
    );
    let metrics = vec![
        metric("attack.forge_ns", layers.forge.per_call(), "ns"),
        metric(
            "attack.forge_calls_per_round",
            layers.forge.calls as f64 / rounds,
            "count",
        ),
        metric(
            "attack.forge_share",
            layers.forge.ns / rounds / round_ns,
            "ratio",
        ),
        metric("pipeline.round_ns", round_ns, "ns"),
        metric("pipeline.self_ns", round_ns - layer_ns, "ns"),
        metric("sensor.sample_ns", layers.sample.per_call(), "ns"),
        metric("schedule.order_ns", layers.order.per_call(), "ns"),
        metric("fusion.fuse_ns", layers.fuse.per_call(), "ns"),
        metric(
            "fusion.fail_ratio",
            ratio(layers.fuse_failed, layers.fuse.calls),
            "ratio",
        ),
        metric("detect.assess_ns", layers.assess.per_call(), "ns"),
        metric(
            "detect.flagged_ratio",
            ratio(layers.flagged, layers.assess.calls),
            "ratio",
        ),
        metric("closed_loop.control_ns", layers.control.per_call(), "ns"),
        metric(
            "closed_loop.preempt_ratio",
            ratio(layers.preempted, layers.control.calls),
            "ratio",
        ),
        metric("runner.setup_ns", setup_ns, "ns"),
        metric("sweep.row_encode_ns", encode_ns, "ns"),
        metric("sweep.stream_cell_ns", stream_1, "ns"),
        metric("sweep.stream_cell_ns_2t", stream_2, "ns"),
        metric("sweep.parallel_cell_ns", parallel_1, "ns"),
        metric("sweep.parallel_cell_ns_2t", parallel_2, "ns"),
        metric("drive.frame_render_ns", render_ns, "ns"),
        metric("drive.frame_accept_ns", accept_ns, "ns"),
        metric("drive.worker_start_ms", worker_ms, "ms"),
        metric("store.verify_ms", verify_ms, "ms"),
        metric("trace.rounds_per_s", traced_rps, "1/s"),
        metric("trace.untraced_rounds_per_s", untraced_rps, "1/s"),
        metric(
            "trace.overhead_share",
            1.0 - traced_rps / untraced_rps,
            "ratio",
        ),
        metric("trace.timer_ns", clock.overhead_ns, "ns"),
        metric("trace.replayed_rounds", layers.replay.calls as f64, "count"),
        metric(
            "trace.mismatched_rounds",
            layers.mismatched_rounds as f64,
            "count",
        ),
        metric("verify_fail_ratio", verdicts.ratio(), "ratio"),
    ];
    let context = format!(
        "\"sampled_cells\": {}, \"replayed_cells\": {replayed_cells}",
        sample.len()
    );
    (metrics, context)
}

/// The commit being measured, when the tree is a git checkout.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes the traced run as one JSON line to
/// `perfbench/out/layers-<workload>.json`.
pub fn write_record(
    workload: &Workload,
    reference: &Reference,
    args: &Args,
    context: &str,
    metrics: &[Metric],
) {
    let unix = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let line = format!(
        "{{\"schema\": 1, \"unix_time\": {unix}, \"commit\": {}, \"workload\": {}, \"seed\": {}, \
         \"default_seed\": {}, \"grid\": {}, \"cells\": {}, \"nproc\": {}, \"threads\": {}, \
         \"seconds\": {}, {context}, \"metrics\": {}}}",
        json_string(&commit()),
        json_string(workload.name),
        args.seed,
        workloads::DEFAULT_SEED,
        json_string(&reference.address),
        workload.grid.len(),
        nproc(),
        workload.threads(),
        json_number(args.seconds),
        metrics_json(metrics),
    );
    let out_dir = Path::new("perfbench").join("out");
    let latest = out_dir.join(format!("layers-{}.json", workload.name));
    if let Err(e) = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&latest, format!("{line}\n")))
    {
        eprintln!("perfbench: cannot write {}: {e}", latest.display());
    }
}
