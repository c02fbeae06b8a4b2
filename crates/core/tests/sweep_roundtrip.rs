//! Property test: every `SweepRow` renders its axis coordinates — the
//! cell index, suite, fault-set, attacker, schedule, rounds, seed and the
//! closed-loop supervisor and vehicle columns — into the CSV line, the
//! CSV line reads back into the row's own `CellRecord`, and the JSON
//! object carries the same values as the CSV line, for randomly-built
//! grids in both execution modes.

use arsf_core::json::{self, Json};
use arsf_core::metrics::VehicleSummary;
use arsf_core::scenario::{
    faults_label, AttackerSpec, ClosedLoopSpec, FuserSpec, Scenario, StrategySpec, SuiteSpec,
};
use arsf_core::sweep::schema::{split_csv, COLUMNS};
use arsf_core::sweep::store::CellRecord;
use arsf_core::sweep::{SweepGrid, SweepRow};
use arsf_core::DetectionMode;
use arsf_schedule::SchedulePolicy;
use arsf_sensor::{FaultKind, FaultModel};
use proptest::prelude::*;

fn schedule_pool(i: usize) -> SchedulePolicy {
    match i % 3 {
        0 => SchedulePolicy::Ascending,
        1 => SchedulePolicy::Descending,
        _ => SchedulePolicy::Random,
    }
}

fn open_fuser_pool(i: usize) -> FuserSpec {
    match i % 4 {
        0 => FuserSpec::Marzullo,
        1 => FuserSpec::Hull,
        2 => FuserSpec::MidpointMedian,
        _ => FuserSpec::Historical {
            max_rate: 3.5,
            dt: 0.1,
        },
    }
}

fn fault_set_pool(i: usize) -> Vec<(usize, FaultModel)> {
    match i % 3 {
        0 => vec![],
        1 => vec![(2, FaultModel::new(FaultKind::Bias { offset: 3.0 }, 0.25))],
        _ => vec![
            (1, FaultModel::new(FaultKind::Silent, 0.5)),
            (3, FaultModel::new(FaultKind::Scale { factor: 1.5 }, 1.0)),
        ],
    }
}

fn attacker_pool(i: usize) -> AttackerSpec {
    match i % 3 {
        0 => AttackerSpec::None,
        1 => AttackerSpec::Fixed {
            sensors: vec![0],
            strategy: StrategySpec::PhantomOptimal,
        },
        _ => AttackerSpec::RandomEachRound,
    }
}

/// The CSV text of one parsed JSON value: numbers verbatim, `null` as
/// an empty field, arrays `|`-joined.
fn csv_text(value: &Json) -> String {
    match value {
        Json::Null => String::new(),
        Json::Num(raw) | Json::Str(raw) => raw.clone(),
        Json::Arr(items) => items.iter().map(csv_text).collect::<Vec<_>>().join("|"),
        other => panic!("no sweep column renders {other:?}"),
    }
}

/// Asserts one row's CSV line carries exactly its axis coordinates and
/// supervisor and vehicle columns, reads back into the row's own
/// record, and agrees with the row's JSON object column by column.
fn assert_row_round_trips(
    row: &SweepRow,
    csv_line: &str,
    json_object: &Json,
) -> Result<(), TestCaseError> {
    let fields = split_csv(csv_line);
    prop_assert_eq!(
        fields.len(),
        COLUMNS.len(),
        "CSV column count: {}",
        csv_line
    );
    let field = |name: &str| {
        let index = COLUMNS.iter().position(|c| c.name == name).unwrap();
        fields[index].clone()
    };
    let s = &row.summary;
    prop_assert_eq!(field("cell"), format!("{}", row.cell));
    prop_assert_eq!(&field("scenario"), &s.scenario);
    prop_assert_eq!(&field("suite"), &row.suite);
    prop_assert_eq!(&field("faults"), &row.faults);
    prop_assert_eq!(&field("attacker"), &row.attacker);
    prop_assert_eq!(&field("schedule"), &row.schedule);
    prop_assert_eq!(&field("fuser"), &s.fuser);
    prop_assert_eq!(&field("detector"), &s.detector);
    prop_assert_eq!(field("rounds"), format!("{}", row.rounds));
    prop_assert_eq!(field("seed"), format!("{}", row.seed));
    let (above, below, preempts, gap) = match &s.supervisor {
        None => (String::new(), String::new(), String::new(), String::new()),
        Some(sup) => (
            format!("{}", sup.above_rate),
            format!("{}", sup.below_rate),
            format!("{}", sup.preemptions),
            sup.min_gap.map_or(String::new(), |g| format!("{g}")),
        ),
    };
    prop_assert_eq!(field("above_rate"), above);
    prop_assert_eq!(field("below_rate"), below);
    prop_assert_eq!(field("preemptions"), preempts);
    prop_assert_eq!(field("min_gap"), gap);
    // Per-vehicle columns: pipe-joined, leader first; empty for
    // everything but closed-loop platoon rows.
    let joined = |value: &dyn Fn(&VehicleSummary) -> String| {
        s.vehicles.iter().map(value).collect::<Vec<_>>().join("|")
    };
    prop_assert_eq!(
        field("vehicle_mean_widths"),
        joined(&|v| format!("{}", v.widths.mean()))
    );
    prop_assert_eq!(
        field("vehicle_max_widths"),
        joined(&|v| v.widths.max().map_or(String::new(), |w| format!("{w}")))
    );
    prop_assert_eq!(
        field("vehicle_truth_lost"),
        joined(&|v| format!("{}", v.truth_lost))
    );

    // The reader inverts the writer as far as the record is concerned.
    let read = CellRecord::from_csv_line(csv_line).map_err(TestCaseError::fail)?;
    prop_assert_eq!(read, CellRecord::from_row(row));

    // The JSON object carries the same values as the CSV line.
    let members = json_object.as_object("row").map_err(TestCaseError::fail)?;
    prop_assert_eq!(members.len(), COLUMNS.len());
    for ((name, value), (column, csv)) in members.iter().zip(COLUMNS.iter().zip(&fields)) {
        prop_assert_eq!(name, column.name);
        prop_assert_eq!(&csv_text(value), csv, "column {}", name);
    }
    Ok(())
}

fn assert_report_round_trips(grid: &SweepGrid) -> Result<(), TestCaseError> {
    let report = grid.run_serial();
    let csv = report.to_csv();
    let lines: Vec<&str> = csv.lines().skip(1).collect();
    prop_assert_eq!(lines.len(), report.len());
    let json = json::parse(&report.to_json()).map_err(TestCaseError::fail)?;
    let objects = json.as_array("report").map_err(TestCaseError::fail)?;
    prop_assert_eq!(objects.len(), report.len());
    for (row, (line, object)) in report.rows().iter().zip(lines.iter().zip(objects)) {
        assert_row_round_trips(row, line, object)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn open_loop_rows_round_trip_axis_coordinates(
        fusers in prop::collection::vec(0usize..4, 1..=2),
        fault_sets in prop::collection::vec(0usize..3, 1..=2),
        attackers in prop::collection::vec(0usize..3, 1..=2),
        schedule in 0usize..3,
        seeds in prop::collection::vec(0u64..1000, 1..=2),
        rounds in 3u64..8,
    ) {
        let base = Scenario::new("prop", SuiteSpec::Landshark).with_rounds(rounds);
        let grid = SweepGrid::new(base)
            .fusers(fusers.into_iter().map(open_fuser_pool))
            .fault_sets(fault_sets.into_iter().map(fault_set_pool))
            .attackers(attackers.into_iter().map(attacker_pool))
            .schedules([schedule_pool(schedule)])
            .seeds(seeds);
        assert_report_round_trips(&grid)?;
    }

    #[test]
    fn closed_loop_rows_round_trip_supervisor_columns(
        historical in 0usize..2,
        platoon in 0usize..2,
        schedule in 0usize..3,
        seeds in prop::collection::vec(0u64..1000, 1..=2),
        rounds in 3u64..8,
        detector in 0usize..2,
    ) {
        let mut spec = ClosedLoopSpec::new(10.0);
        if platoon == 1 {
            spec = spec.with_platoon(2, 0.01);
        }
        let fuser = if historical == 1 {
            FuserSpec::Historical { max_rate: 3.5, dt: 0.1 }
        } else {
            FuserSpec::Marzullo
        };
        let detector = if detector == 1 {
            DetectionMode::Windowed { window: 5, tolerance: 2 }
        } else {
            DetectionMode::Immediate
        };
        let base = Scenario::new("prop-cl", SuiteSpec::Landshark)
            .with_attacker(AttackerSpec::RandomEachRound)
            .with_fuser(fuser)
            .with_detector(detector)
            .with_rounds(rounds)
            .with_closed_loop(spec);
        let grid = SweepGrid::new(base)
            .schedules([schedule_pool(schedule)])
            .seeds(seeds);
        for cell in grid.cells() {
            prop_assert!(cell.scenario.closed_loop.is_some());
        }
        assert_report_round_trips(&grid)?;
    }

    #[test]
    fn fault_labels_are_stable_and_distinct(
        a in 0usize..3,
        b in 0usize..3,
    ) {
        let la = faults_label(&fault_set_pool(a));
        let lb = faults_label(&fault_set_pool(b));
        prop_assert_eq!(a % 3 == b % 3, la == lb, "labels {} vs {}", la, lb);
        prop_assert!(!la.contains(','), "labels stay CSV-safe: {}", la);
    }
}
