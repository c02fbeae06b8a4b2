//! The four benchmark workloads: how each grid is built from the
//! workload seed, and how each pass's output is checked.

use std::path::Path;

use arsf_analyze::{analyze_grid, detect_report, guarantee_report, Severity};
use arsf_bench::golden;
use arsf_core::scenario::{self, AttackerSpec, FuserSpec, Scenario, StrategySpec, SuiteSpec};
use arsf_core::sweep::diff::{diff, DiffConfig};
use arsf_core::sweep::store::{grid_address, Baseline};
use arsf_core::sweep::{SweepGrid, SweepReport};
use arsf_core::DetectionMode;
use arsf_schedule::SchedulePolicy;

/// The workload seed whose grids are exactly the committed ones: at this
/// seed the golden workloads verify against `baselines/<address>.json`.
pub const DEFAULT_SEED: u64 = 0;

/// Every workload name, in reporting order.
pub const NAMES: [&str; 4] = [
    "open-loop-48",
    "table2-closed-loop",
    "multi-attacker-n5",
    "many-cells-drive",
];

/// Rounds per cell of `multi-attacker-n5`: a pass is 12 cells of this
/// many two-attacker rounds.
const MULTI_ROUNDS: u64 = 60;
/// Rounds per cell of `many-cells-drive`.
const DRIVE_ROUNDS: u64 = 5;
/// Seed-axis length of `many-cells-drive` (24 cells per seed).
const DRIVE_SEEDS: u64 = 1000;
/// Worker processes of a driven pass.
pub const DRIVE_WORKERS: usize = 2;

/// How a workload's passes execute.
pub enum Exec {
    /// In the benchmark's own process, through `StreamingSweeper` on one
    /// worker thread.
    InProcess,
    /// Through the `sweep_drive` binary with 2 worker processes; the
    /// arguments describe the same grid as [`Workload::grid`].
    Drive(Vec<String>),
}

/// One workload at one seed.
pub struct Workload {
    pub name: &'static str,
    pub grid: SweepGrid,
    pub exec: Exec,
    /// Whether a committed baseline covers this grid (golden grids at
    /// the default seed).
    pub golden: bool,
}

impl Workload {
    /// Worker threads (in-process) or worker processes (driven) a pass
    /// uses.
    pub fn threads(&self) -> usize {
        match self.exec {
            Exec::InProcess => 1,
            Exec::Drive(_) => DRIVE_WORKERS,
        }
    }
}

/// Shifts every value of a seed axis by `seed - DEFAULT_SEED`.
fn shifted(axis: &[u64], seed: u64) -> Vec<u64> {
    let shift = seed.wrapping_sub(DEFAULT_SEED);
    axis.iter().map(|s| s.wrapping_add(shift)).collect()
}

fn with_seed(grid: SweepGrid, seed: u64) -> SweepGrid {
    if seed == DEFAULT_SEED {
        return grid;
    }
    let seeds = shifted(grid.seed_axis(), seed);
    grid.seeds(seeds)
}

/// Builds a workload's grid at a workload seed; `None` for an unknown
/// name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let (name, grid, exec, golden) = match name {
        "open-loop-48" => (
            NAMES[0],
            with_seed(golden::open_loop_48(), seed),
            Exec::InProcess,
            true,
        ),
        "table2-closed-loop" => (
            NAMES[1],
            with_seed(golden::table2_closed_loop(), seed),
            Exec::InProcess,
            true,
        ),
        "multi-attacker-n5" => (NAMES[2], multi_attacker(seed), Exec::InProcess, false),
        "many-cells-drive" => {
            let (grid, args) = many_cells(seed);
            (NAMES[3], grid, Exec::Drive(args), false)
        }
        _ => return None,
    };
    Some(Workload {
        name,
        grid,
        exec,
        golden: golden && seed == DEFAULT_SEED,
    })
}

/// Table I's n = 5 stealthy suite (widths {5,5,5,5,20}, f = 2) with a
/// fixed PhantomOptimal attacker on two sensors (fa = f = 2), swept over
/// marzullo/brooks-iyengar × off/immediate × three schedules.
fn multi_attacker(seed: u64) -> SweepGrid {
    let base: Scenario = scenario::find("table1-n5-stealthy")
        .expect("the table1-n5-stealthy preset is in the registry")
        .with_attacker(AttackerSpec::Fixed {
            sensors: vec![0, 4],
            strategy: StrategySpec::PhantomOptimal,
        })
        .with_rounds(MULTI_ROUNDS);
    SweepGrid::new(base)
        .fusers([FuserSpec::Marzullo, FuserSpec::BrooksIyengar])
        .detectors([DetectionMode::Off, DetectionMode::Immediate])
        .schedules([
            SchedulePolicy::Ascending,
            SchedulePolicy::Descending,
            SchedulePolicy::Random,
        ])
        .seeds(shifted(&[2014], seed))
}

/// The open-loop-48 axes without an attacker, a few rounds per cell and
/// a long seed axis, plus the `sweep_drive` flags describing the same
/// grid (the workers rebuild it from these flags; a disagreement shows
/// as a byte mismatch against the library's serial CSV).
fn many_cells(seed: u64) -> (SweepGrid, Vec<String>) {
    let seeds = shifted(&(1..=DRIVE_SEEDS).collect::<Vec<_>>(), seed);
    let base = Scenario::new("sweep", SuiteSpec::Landshark).with_rounds(DRIVE_ROUNDS);
    let grid = SweepGrid::new(base)
        .fusers([
            FuserSpec::Marzullo,
            FuserSpec::BrooksIyengar,
            FuserSpec::InverseVariance,
            FuserSpec::Historical {
                max_rate: 3.5,
                dt: 0.1,
            },
        ])
        .detectors([
            DetectionMode::Off,
            DetectionMode::Immediate,
            DetectionMode::Windowed {
                window: 10,
                tolerance: 3,
            },
        ])
        .schedules([SchedulePolicy::Ascending, SchedulePolicy::Descending])
        .seeds(seeds.iter().copied());
    let seed_list: Vec<String> = seeds.iter().map(u64::to_string).collect();
    let args = [
        "--honest",
        "--rounds",
        &DRIVE_ROUNDS.to_string(),
        "--fusers",
        "marzullo,brooks-iyengar,inverse-variance,historical:3.5:0.1",
        "--detectors",
        "off,immediate,windowed:10:3",
        "--schedules",
        "ascending,descending",
        "--seeds",
        &seed_list.join(","),
    ]
    .map(String::from)
    .to_vec();
    (grid, args)
}

/// Refuses a grid with error-severity static findings; returns the
/// rendered findings of lower severity.
pub fn vet(workload: &Workload) -> Result<Vec<String>, String> {
    let (errors, others): (Vec<_>, Vec<_>) = analyze_grid(&workload.grid)
        .into_iter()
        .partition(|f| f.severity == Severity::Error);
    if errors.is_empty() {
        Ok(others.iter().map(|f| f.render()).collect())
    } else {
        let rendered: Vec<String> = errors.iter().map(|f| f.render()).collect();
        Err(format!(
            "{}: the grid has {} error finding(s), refusing to time it:\n{}",
            workload.name,
            errors.len(),
            rendered.join("\n")
        ))
    }
}

/// One line per cell: the static detectability verdict and the
/// Theorem-2 truth-containment claim.
pub fn static_verdicts(grid: &SweepGrid) -> Vec<String> {
    grid.cells()
        .map(|cell| {
            let report = detect_report(&cell.scenario);
            format!(
                "static cell={} fuser={} detector={} schedule={} corrupt={} verdict={} \
                 false_alarm_free={} truth_contained={}",
                cell.index,
                cell.scenario.fuser.name(),
                arsf_core::sweep::store::detector_label(&cell.scenario.detector),
                cell.scenario.schedule.name(),
                report.corrupt,
                report.verdict.label(),
                report.false_alarm_free,
                guarantee_report(&cell.scenario).truth_containment,
            )
        })
        .collect()
}

/// What a pass's output is checked against.
pub struct Reference {
    /// The grid's content address.
    pub address: String,
    /// The committed baseline (golden grids at the default seed), or the
    /// baseline of the serial reference when the store layer is to be
    /// timed; `None` otherwise, so a run holds no baseline it never reads.
    pub baseline: Option<Baseline>,
    /// The library's serial CSV of the grid (header included); computed
    /// for every grid without a committed baseline, which includes the
    /// driven workload.
    pub csv: Option<String>,
}

impl Reference {
    /// Loads the committed baseline, or computes the serial reference
    /// (and, with `store`, its baseline).
    pub fn new(workload: &Workload, baseline_dir: &Path, store: bool) -> Result<Self, String> {
        let grid = &workload.grid;
        let address = grid_address(grid);
        if workload.golden {
            let baseline = Baseline::load_for_grid(baseline_dir, grid).map_err(|e| {
                format!(
                    "{}: no committed baseline for {address}: {e}",
                    workload.name
                )
            })?;
            return Ok(Reference {
                address,
                baseline: Some(baseline),
                csv: None,
            });
        }
        let report = grid.run_serial();
        check_invariants(&report)
            .map_err(|e| format!("{}: serial reference: {e}", workload.name))?;
        Ok(Reference {
            address,
            baseline: store.then(|| Baseline::from_report(grid, &report)),
            csv: Some(report.to_csv()),
        })
    }

    /// Checks an in-process pass: the fa ≤ f invariant, then either a
    /// near-exact diff against the committed baseline or byte identity
    /// with the serial CSV.
    pub fn check_report(&self, grid: &SweepGrid, report: &SweepReport) -> Result<(), String> {
        check_invariants(report)?;
        match &self.csv {
            Some(csv) if report.to_csv() == *csv => Ok(()),
            Some(_) => Err("report differs from the library's serial CSV".to_string()),
            None => self.check_baseline(grid, report),
        }
    }

    /// The store layer's verification: rebuild a baseline from the
    /// report and diff it near-exactly against the reference baseline.
    pub fn check_baseline(&self, grid: &SweepGrid, report: &SweepReport) -> Result<(), String> {
        let baseline = self
            .baseline
            .as_ref()
            .ok_or("no reference baseline was built for this run")?;
        let current = Baseline::from_report(grid, report);
        let drift = diff(baseline, &current, &DiffConfig::near_exact());
        if drift.is_empty() && drift.cells_compared() == report.len() {
            Ok(())
        } else {
            Err(format!(
                "{} drift(s) against the reference baseline over {} cell(s)",
                drift.len(),
                drift.cells_compared()
            ))
        }
    }

    /// Checks a driven pass: its CSV must equal the serial CSV byte for
    /// byte (the serial reference already passed the invariants).
    pub fn check_csv(&self, bytes: &[u8]) -> Result<(), String> {
        let csv = self
            .csv
            .as_ref()
            .expect("drive workloads always compute the serial CSV");
        if bytes == csv.as_bytes() {
            Ok(())
        } else {
            Err(format!(
                "driven CSV ({} bytes) differs from the serial CSV ({} bytes)",
                bytes.len(),
                csv.len()
            ))
        }
    }
}

/// The paper's fa ≤ f guarantee: Marzullo and Brooks–Iyengar rows never
/// lose the truth.
pub fn check_invariants(report: &SweepReport) -> Result<(), String> {
    for row in report.rows() {
        let s = &row.summary;
        let interval_fuser = s.fuser == "marzullo" || s.fuser == "brooks-iyengar";
        if interval_fuser && s.truth_lost != 0 {
            return Err(format!(
                "cell {} ({}) lost the truth in {} round(s)",
                row.cell, s.fuser, s.truth_lost
            ));
        }
    }
    Ok(())
}
