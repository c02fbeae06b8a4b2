//! The Table II experiment engine: safety-envelope violation rates in the
//! LandShark case study.
//!
//! Setup (paper Section IV-B): desired speed `v = 10` mph,
//! `δ1 = δ2 = 0.5` mph, four speed sensors (two encoders at 0.2 mph, GPS
//! at 1 mph, camera at 2 mph), fusion with `f = 1`, at most one sensor
//! attacked at any time and "any sensor can be attacked" — modelled as a
//! uniformly random compromised sensor each round. For each schedule the
//! engine reports the fraction of rounds whose fusion interval exceeded
//! 10.5 mph (row 1) or dropped below 9.5 mph (row 2).
//!
//! Since the closed-loop redesign this engine is a thin aggregation over
//! the deterministic sweep grid: [`sweep_grid`] lays the three schedules
//! × `replicates` Monte Carlo seeds out as closed-loop cells,
//! [`report`] executes them (on one thread or several through
//! [`StreamingSweeper`] — byte-identical either way), and
//! [`run_all`] pools each schedule's replicate rows into the
//! paper-facing [`Table2Row`]s. Any cell can be re-run in isolation via
//! `sweep_grid(..).scenario(i)`.

use arsf_core::scenario::{AttackerSpec, ClosedLoopSpec, FuserSpec, Scenario, SuiteSpec};
use arsf_core::sweep::{StreamingSweeper, SweepGrid, SweepReport};
use arsf_schedule::SchedulePolicy;

/// Configuration for a Table II run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Config {
    /// Number of control rounds per schedule cell.
    pub rounds: u64,
    /// Target speed `v` (mph).
    pub target: f64,
    /// Upper envelope half-width `δ1`.
    pub delta_up: f64,
    /// Lower envelope half-width `δ2`.
    pub delta_down: f64,
    /// RNG seed (each grid cell derives its own stream from it).
    pub seed: u64,
    /// Monte Carlo replicates per schedule (seed-axis length).
    pub replicates: usize,
    /// Threads running the grid's cells (the calling thread included).
    pub threads: usize,
    /// Optional dynamics-aware historical-fusion defence: when set, every
    /// cell fuses with the Historical fuser under this `max_rate` bound
    /// (mph/s) instead of plain Marzullo — the follow-up defence's
    /// Table II.
    pub history: Option<f64>,
}

impl Default for Table2Config {
    /// The paper's parameters with 20 000 rounds, one replicate, serial
    /// execution, memoryless (paper) fusion.
    fn default() -> Self {
        Self {
            rounds: 20_000,
            target: 10.0,
            delta_up: 0.5,
            delta_down: 0.5,
            seed: 20140324,
            replicates: 1,
            threads: 1,
            history: None,
        }
    }
}

/// One Table II cell pair: violation rates for a schedule, pooled across
/// the configured replicates.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// The schedule's name.
    pub schedule: String,
    /// Fraction of rounds with fusion upper bound `> v + δ1`.
    pub above: f64,
    /// Fraction of rounds with fusion lower bound `< v − δ2`.
    pub below: f64,
}

/// The schedules Table II compares, in the paper's column order.
pub const SCHEDULES: [SchedulePolicy; 3] = [
    SchedulePolicy::Ascending,
    SchedulePolicy::Descending,
    SchedulePolicy::Random,
];

/// The closed-loop base scenario every Table II cell varies from.
fn base_scenario(config: &Table2Config) -> Scenario {
    let mut scenario = Scenario::new("table2", SuiteSpec::Landshark)
        .with_attacker(AttackerSpec::RandomEachRound)
        .with_rounds(config.rounds)
        .with_seed(config.seed)
        .with_closed_loop(
            ClosedLoopSpec::new(config.target).with_deltas(config.delta_up, config.delta_down),
        );
    if let Some(max_rate) = config.history {
        scenario = scenario.with_fuser(FuserSpec::Historical { max_rate, dt: 0.1 });
    }
    scenario
}

/// The Table II sweep grid: `schedules × replicates` closed-loop cells
/// (schedule axis slow, seed axis fast — matching the generic grid's
/// decode order).
pub fn sweep_grid(config: &Table2Config) -> SweepGrid {
    grid_over(config, SCHEDULES)
}

fn grid_over(
    config: &Table2Config,
    schedules: impl IntoIterator<Item = SchedulePolicy>,
) -> SweepGrid {
    SweepGrid::new(base_scenario(config))
        .schedules(schedules)
        .seeds((0..config.replicates.max(1) as u64).map(|i| config.seed.wrapping_add(i)))
}

/// Executes the Table II grid and returns the raw per-cell sweep report
/// (grid-ordered; byte-identical for any [`Table2Config::threads`]).
pub fn report(config: &Table2Config) -> SweepReport {
    StreamingSweeper::new(config.threads.max(1)).run(&sweep_grid(config))
}

/// Pools one schedule's replicate rows out of a report into a
/// [`Table2Row`] (all replicates run equal round counts, so the mean of
/// rates is the pooled rate).
fn pool(report: &SweepReport, schedule: &SchedulePolicy) -> Table2Row {
    let name = schedule.name();
    let (mut above, mut below, mut cells) = (0.0, 0.0, 0u32);
    for row in report.rows() {
        if row.schedule != name {
            continue;
        }
        let sup = row
            .summary
            .supervisor
            .as_ref()
            .expect("table2 cells are closed-loop");
        above += sup.above_rate;
        below += sup.below_rate;
        cells += 1;
    }
    assert!(cells > 0, "no cells for schedule {name}");
    Table2Row {
        schedule: name.to_string(),
        above: above / f64::from(cells),
        below: below / f64::from(cells),
    }
}

/// Runs one schedule for [`Table2Config::rounds`] control periods per
/// replicate and returns its pooled violation rates.
///
/// Executes a single-schedule grid, so only this schedule's cells run —
/// its replicate seed streams therefore differ from the corresponding
/// [`run_all`] rows (cell indices feed the per-cell seed derivation),
/// though both reproduce the paper's rates.
pub fn run_schedule(policy: SchedulePolicy, config: &Table2Config) -> Table2Row {
    let report =
        StreamingSweeper::new(config.threads.max(1)).run(&grid_over(config, [policy.clone()]));
    pool(&report, &policy)
}

/// Runs the three schedules the paper compares (Ascending, Descending,
/// Random) through the sweep grid and returns their pooled rows in that
/// order.
pub fn run_all(config: &Table2Config) -> Vec<Table2Row> {
    let report = report(config);
    SCHEDULES.iter().map(|s| pool(&report, s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Table2Config {
        Table2Config {
            rounds: 1500,
            ..Table2Config::default()
        }
    }

    #[test]
    fn ascending_has_zero_violations() {
        let row = run_schedule(SchedulePolicy::Ascending, &quick());
        assert_eq!(row.above, 0.0, "paper: 0% above under Ascending");
        assert_eq!(row.below, 0.0, "paper: 0% below under Ascending");
    }

    #[test]
    fn descending_violates_substantially() {
        let row = run_schedule(SchedulePolicy::Descending, &quick());
        assert!(
            row.above > 0.02,
            "descending must show above-violations, got {}",
            row.above
        );
        assert!(
            row.below > 0.02,
            "descending must show below-violations, got {}",
            row.below
        );
    }

    #[test]
    fn historical_defence_cuts_descending_violations() {
        let memoryless = run_schedule(SchedulePolicy::Descending, &quick());
        let defended = run_schedule(
            SchedulePolicy::Descending,
            &Table2Config {
                history: Some(3.5),
                ..quick()
            },
        );
        assert!(
            defended.above + defended.below < memoryless.above + memoryless.below,
            "history must clip forged extensions: {defended:?} vs {memoryless:?}"
        );
    }

    #[test]
    fn random_sits_between_ascending_and_descending() {
        let config = quick();
        let rows = run_all(&config);
        let total = |r: &Table2Row| r.above + r.below;
        assert!(total(&rows[0]) <= total(&rows[2]));
        assert!(total(&rows[2]) <= total(&rows[1]));
        assert!(total(&rows[2]) > 0.0, "random must show some violations");
    }

    #[test]
    fn run_all_returns_three_labelled_rows() {
        let rows = run_all(&quick());
        let names: Vec<&str> = rows.iter().map(|r| r.schedule.as_str()).collect();
        assert_eq!(names, vec!["ascending", "descending", "random"]);
    }

    #[test]
    fn rows_are_byte_identical_across_thread_counts() {
        // Same config ⇒ identical rows whatever the worker count: the
        // grid's per-cell seed derivation owns all randomness.
        let serial = run_all(&Table2Config {
            rounds: 400,
            replicates: 2,
            threads: 1,
            ..Table2Config::default()
        });
        let parallel = run_all(&Table2Config {
            rounds: 400,
            replicates: 2,
            threads: 4,
            ..Table2Config::default()
        });
        assert_eq!(serial, parallel);
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }

    #[test]
    fn replicates_widen_the_seed_axis() {
        let grid = sweep_grid(&Table2Config {
            replicates: 4,
            ..Table2Config::default()
        });
        assert_eq!(grid.len(), 12, "3 schedules x 4 replicates");
        // Every cell is reproducible in isolation.
        let cell = grid.scenario(5);
        assert!(cell.closed_loop.is_some());
        assert_eq!(grid.scenario(5), cell);
    }
}
