//! The repository benchmark: end-to-end sweep throughput on four
//! workloads, and per-layer timings from a verified replay.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--bin-dir <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics of a separate replay run and writes them, with the
//! run's context, to `perfbench/out/layers-<workload>.json`.
//! `--bin-dir` names the directory holding the release `sweep_drive` and
//! `scenario_sweep` binaries. `--cold-setup` is the set-up probe the
//! benchmark spawns of itself (see [`cold_setup`]). A completed run's
//! last stdout line is the JSON result and everything before it is a
//! human-readable log; a run that cannot start (bad arguments, an unsound
//! grid, a missing baseline) exits non-zero without a result.

mod passes;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};
use std::time::Instant;

use arsf_core::sweep::SweepGrid;
use passes::Output;
use stats::{median, metric, quantile, result_line, trimmed_mean, Metric};
use workloads::{Exec, Reference, Workload};

/// Cold set-ups per run, each in a fresh process, spread evenly through
/// the timed window.
fn setup_count(exec: &Exec) -> usize {
    match exec {
        Exec::InProcess => 60,
        Exec::Drive(_) => 20,
    }
}
/// Groups an in-process run's set-ups fall into for [`setup_s`].
const SETUP_GROUPS: usize = 6;
/// The share of fastest and of slowest driven passes left out of their
/// mean.
const DRIVE_PASS_TRIM: f64 = 0.1;
/// Fewest timed passes per run, however long a pass takes.
const MIN_PASSES: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    cold_setup: bool,
}

fn fail(code: i32, message: &str) -> ! {
    eprintln!("perfbench: {message}");
    exit(code);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |key: &str| {
        argv.iter().position(|a| a == key).map(|i| {
            argv.get(i + 1)
                .cloned()
                .unwrap_or_else(|| fail(2, &format!("{key} needs a value")))
        })
    };
    let number = |key: &str, default: Option<&str>| -> f64 {
        let raw = value(key)
            .or_else(|| default.map(String::from))
            .unwrap_or_else(|| fail(2, &format!("{key} is required")));
        raw.parse()
            .ok()
            .filter(|v: &f64| v.is_finite() && *v >= 0.0)
            .unwrap_or_else(|| {
                fail(
                    2,
                    &format!("{key} wants a non-negative number, got `{raw}`"),
                )
            })
    };
    let workload = value("--workload").unwrap_or_else(|| fail(2, "--workload is required"));
    let seed_raw = value("--seed").unwrap_or_else(|| workloads::DEFAULT_SEED.to_string());
    let seed = seed_raw.parse().unwrap_or_else(|_| {
        fail(
            2,
            &format!("--seed wants an unsigned integer, got `{seed_raw}`"),
        )
    });
    let trace = match value("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => fail(2, &format!("--trace wants 0 or 1, got `{other}`")),
    };
    Args {
        workload,
        seed,
        seconds: number("--seconds", Some("10")),
        trace,
        bin_dir: PathBuf::from(value("--bin-dir").unwrap_or_else(|| ".bench_build/release".into())),
        cold_setup: argv.iter().any(|a| a == "--cold-setup"),
    }
}

/// Total simulated rounds of one pass (closed-loop cells count control
/// periods).
fn rounds_per_pass(grid: &SweepGrid) -> u64 {
    grid.cells().map(|c| c.scenario.rounds).sum()
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Counts verified passes and failed ones.
#[derive(Default)]
pub struct Verdicts {
    pub attempted: u64,
    pub failed: u64,
}

impl Verdicts {
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 3 {
                eprintln!("perfbench: verification failed ({what}): {e}");
            }
        }
    }

    pub fn ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn build(args: &Args) -> Workload {
    workloads::build(&args.workload, args.seed).unwrap_or_else(|| {
        fail(
            2,
            &format!(
                "unknown workload `{}` (one of: {})",
                args.workload,
                workloads::NAMES.join(", ")
            ),
        )
    })
}

fn main() {
    let args = parse_args();
    if args.cold_setup {
        cold_setup(&args);
    }
    let workload = build(&args);

    // Never time an unsound grid.
    let findings = workloads::vet(&workload).unwrap_or_else(|e| fail(3, &e));
    let reference = Reference::new(&workload, Path::new("baselines"), args.trace)
        .unwrap_or_else(|e| fail(4, &e));
    let rounds = rounds_per_pass(&workload.grid);
    let cells = workload.grid.len();
    println!(
        "workload={} seed={} default_seed={} grid={} cells={cells} rounds_per_pass={rounds} \
         exec={} threads={} nproc={} static_errors=0 static_findings={} verify={}",
        workload.name,
        args.seed,
        workloads::DEFAULT_SEED,
        reference.address,
        match workload.exec {
            Exec::InProcess => "in-process",
            Exec::Drive(_) => "sweep_drive",
        },
        workload.threads(),
        nproc(),
        findings.len(),
        if workload.golden {
            "committed-baseline"
        } else {
            "serial-reference"
        },
    );
    for finding in &findings {
        println!("static: {finding}");
    }
    if workload.name == "multi-attacker-n5" {
        for line in workloads::static_verdicts(&workload.grid) {
            println!("{line}");
        }
    }

    let mut verdicts = Verdicts::default();
    if args.trace {
        let (metrics, record) = trace::run(
            &workload,
            &reference,
            &args.bin_dir,
            args.seconds,
            args.seed,
            &mut verdicts,
        );
        trace::write_record(&workload, &reference, &args, &record, &metrics);
        finish(&verdicts, &metrics);
    }

    // Timed passes fill the window. Cold set-ups are spread evenly
    // through it, so they see the same machine phases as the passes do.
    let setup_total = setup_count(&workload.exec);
    let mut setups = Vec::with_capacity(setup_total);
    let mut pass_s = Vec::new();
    let mut drive_rss: f64 = 0.0;
    let window = Instant::now();
    let mut spawned = 0;
    loop {
        let elapsed = window.elapsed().as_secs_f64();
        if spawned < setup_total && elapsed >= args.seconds * spawned as f64 / setup_total as f64 {
            spawned += 1;
            let setup = spawn_setup(&args);
            setups.push(*setup.as_ref().unwrap_or(&f64::NAN));
            verdicts.record("cold set-up", setup.map(drop));
            continue;
        }
        if spawned == setup_total && pass_s.len() >= MIN_PASSES && elapsed >= args.seconds {
            break;
        }
        let (seconds, output) = passes::run_pass(&workload, &args.bin_dir);
        pass_s.push(seconds);
        if let Ok(Output::Csv { peak_rss_mb, .. }) = &output {
            drive_rss = drive_rss.max(*peak_rss_mb);
        }
        verdicts.record("timed pass", passes::check(&workload, &reference, &output));
    }
    let p90 = quantile(&pass_s, 0.9);
    // The process that holds the pass's data: this one in process, the
    // `sweep_drive` tree for a driven pass (whose reference data lives
    // here and is not the program's).
    let rss = match workload.exec {
        Exec::InProcess => stats::self_peak_rss_mb(),
        Exec::Drive(_) => drive_rss,
    };
    let pass = steady(&workload.exec, &pass_s);
    println!(
        "passes={} pass_ms_min={:.3} pass_ms_p10={:.3} pass_ms_p50={:.3} (n={}) pass_ms_p90={:.3} (n={}, {} beyond) \
         pass_ms={:.3} setups={} setup_s_min={:.4} setup_s_p50={:.4} setup_s={:.4} peak_rss_mb={rss:.2} verify_fail_ratio={}/{}",
        pass_s.len(),
        quantile(&pass_s, 0.0) * 1e3,
        quantile(&pass_s, 0.1) * 1e3,
        median(&pass_s) * 1e3,
        pass_s.len(),
        p90 * 1e3,
        pass_s.len(),
        pass_s.iter().filter(|&&s| s > p90).count(),
        pass * 1e3,
        setups.len(),
        quantile(&setups, 0.0),
        median(&setups),
        setup_s(&workload.exec, &setups),
        verdicts.failed,
        verdicts.attempted,
    );
    let metrics = vec![
        metric("rounds_per_s", rounds as f64 / pass, "1/s"),
        metric("cells_per_s", cells as f64 / pass, "1/s"),
        metric("setup_s", setup_s(&workload.exec, &setups), "s"),
        metric("peak_rss_mb", rss, "MiB"),
    ];
    finish(&verdicts, &metrics);
}

/// `--cold-setup`: one set-up in a fresh process. Grid construction and
/// the grid's first pass are timed before anything else has run in the
/// process (no reference, no earlier pass); the pass is verified after
/// the clock stops. Prints the seconds on stdout and exits 0, or exits 1
/// when the pass does not verify.
fn cold_setup(args: &Args) -> ! {
    let start = Instant::now();
    let workload = build(args);
    let (_, output) = passes::run_pass(&workload, &args.bin_dir);
    let seconds = start.elapsed().as_secs_f64();
    let verdict = Reference::new(&workload, Path::new("baselines"), false)
        .and_then(|reference| passes::check(&workload, &reference, &output));
    match verdict {
        Ok(()) => {
            println!("{seconds}");
            exit(0)
        }
        Err(e) => fail(1, &format!("cold set-up: {e}")),
    }
}

/// Runs one `--cold-setup` probe of this binary and returns its set-up
/// seconds.
fn spawn_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perfbench: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--bin-dir")
        .arg(&args.bin_dir)
        .arg("--cold-setup")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the set-up probe: {e}"))?;
    if !output.status.success() {
        return Err(format!("set-up probe exited with {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("set-up probe printed no time: {e}"))
}

/// The statistic a run's cold set-ups are reported at.
///
/// A co-tenant on the shared machine slows one vCPU at a time by up to
/// 2x for seconds, so a single in-process cold set-up (one thread) lands
/// in one of two modes, and the median of single set-ups flips between
/// them from run to run. The fastest of a group spread over a few
/// seconds is the set-up on the uncontended machine; an in-process run
/// reports the median over [`SETUP_GROUPS`] consecutive groups of each
/// group's fastest, which discards a group slowed throughout. A driven
/// set-up is three processes on two cores, has no such floor, and is
/// read at the median. Failed set-ups (`NaN`) are skipped.
fn setup_s(exec: &Exec, setups: &[f64]) -> f64 {
    match exec {
        Exec::InProcess => {
            let fastest: Vec<f64> = setups
                .chunks(setups.len().div_ceil(SETUP_GROUPS).max(1))
                .map(|group| group.iter().copied().fold(f64::NAN, f64::min))
                .filter(|s| s.is_finite())
                .collect();
            median(&fastest)
        }
        Exec::Drive(_) => {
            let done: Vec<f64> = setups.iter().copied().filter(|s| s.is_finite()).collect();
            median(&done)
        }
    }
}

/// The statistic a run's pass times are reported at.
///
/// The machines this runs on are shared: a co-tenant slows whole seconds
/// of a run, up to 2x, so every quantile of the times moves from run to
/// run, and between two sets of runs an hour apart the median moved by
/// a third. An in-process pass is one thread and cannot run faster than
/// the uncontended machine, so its fastest time is the steady reading of
/// what the program costs. A driven pass is three processes on two cores
/// and has no such floor: over sets of five and ten runs its fastest
/// pass spread 5–17%, its tenth percentile 9–11% and its median 5–30%,
/// as the load on the two cores drifts over minutes. It is read at the
/// mean of all but the fastest and slowest tenth ([`DRIVE_PASS_TRIM`]):
/// a run's value then moves with the share of its passes that ran
/// slowed, rather than jumping from one mode to the other as the median
/// does when that share is near a half.
fn steady(exec: &Exec, samples: &[f64]) -> f64 {
    match exec {
        Exec::InProcess => quantile(samples, 0.0),
        Exec::Drive(_) => trimmed_mean(samples, DRIVE_PASS_TRIM),
    }
}

fn finish(verdicts: &Verdicts, metrics: &[Metric]) -> ! {
    println!(
        "{}",
        result_line(
            verdicts.failed == 0,
            verdicts.attempted,
            verdicts.failed,
            metrics
        )
    );
    exit(0);
}
