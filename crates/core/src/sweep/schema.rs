//! The sweep-row format, defined once.
//!
//! A [`SweepRow`] leaves the engine as a CSV line
//! ([`SweepRow::to_csv_line`], the unit of reports and worker streams),
//! a JSON object ([`SweepReport::to_json`](super::SweepReport::to_json))
//! and a flattened [`CellRecord`] (the unit of baselines and diffs).
//! All of them, the CSV header and the CSV reader
//! [`CellRecord::from_csv_line`] derive from the one [`COLUMNS`] table,
//! which gives every column its name, its [`Role`] in a record and its
//! typed value accessor.
//!
//! Floats use the shortest round-trip form and integers (seeds) never
//! pass through `f64`, so values read back exactly. Absent values are
//! empty in CSV and `null` in JSON; CSV fields with `,`, `"` or a
//! newline are quoted ([`split_csv`] undoes it). Lists and per-vehicle
//! vectors are `|`-joined in CSV and arrays in JSON; a record expands a
//! vector into indexed metrics ([`indexed_column`]), vehicle by vehicle.
//!
//! # Example
//!
//! ```
//! use arsf_core::scenario::{Scenario, SuiteSpec};
//! use arsf_core::sweep::schema::{split_csv, COLUMNS};
//! use arsf_core::sweep::store::CellRecord;
//! use arsf_core::sweep::SweepGrid;
//!
//! let grid = SweepGrid::new(Scenario::new("demo", SuiteSpec::Landshark).with_rounds(10));
//! let report = grid.run_serial();
//! let row = &report.rows()[0];
//! let line = row.to_csv_line();
//! assert_eq!(split_csv(&line).len(), COLUMNS.len());
//! assert_eq!(CellRecord::from_csv_line(&line).unwrap(), CellRecord::from_row(row));
//! ```

use std::fmt::{Display, Write as _};
use std::sync::OnceLock;

use crate::json::push_json_string;
use crate::metrics::{SupervisorSummary, VehicleSummary};

use super::store::CellRecord;
use super::SweepRow;

/// What a column contributes to a [`CellRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The grid index: the record's alignment key.
    Key,
    /// Reported, never compared (renaming a grid keeps its address).
    Name,
    /// Compared verbatim as text.
    Label,
    /// A number every row carries.
    Metric,
    /// A number some rows lack.
    OptionalMetric,
    /// One number per platoon vehicle, expanded into indexed metrics.
    PerVehicle {
        /// Whether every vehicle carries a value.
        required: bool,
    },
}

/// One column's typed value in one row.
#[derive(Debug, Clone, Copy)]
pub enum Value<'a> {
    /// An integer (index, count, seed).
    Int(u64),
    /// A float.
    Float(f64),
    /// No value.
    Absent,
    /// Text.
    Text(&'a str),
    /// Sensor indices.
    List(&'a [usize]),
    /// One value per platoon vehicle, leader first.
    PerVehicle(&'a [VehicleSummary], fn(&VehicleSummary) -> Value<'static>),
}

impl Value<'_> {
    fn metric(self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(n as f64),
            Value::Float(x) => Some(x),
            _ => None,
        }
    }

    /// The CSV text, unquoted.
    fn label(self) -> String {
        let mut text = String::new();
        match self {
            Value::Text(raw) => text.push_str(raw),
            other => other.write(&mut text, false),
        }
        text
    }

    /// Appends the value as JSON, or else as one CSV field.
    fn write(self, out: &mut String, json: bool) {
        match self {
            Value::Int(n) => push(out, n),
            Value::Float(x) => push(out, x),
            Value::Absent if json => out.push_str("null"),
            Value::Absent => {}
            Value::Text(raw) if json => push_json_string(out, raw),
            Value::Text(raw) => push_csv_field(out, raw),
            Value::List(items) => write_seq(out, items, json, |&i| Value::Int(i as u64)),
            Value::PerVehicle(vehicles, value) => write_seq(out, vehicles, json, value),
        }
    }
}

fn push(out: &mut String, value: impl Display) {
    let _ = write!(out, "{value}");
}

fn write_seq<T>(out: &mut String, items: &[T], json: bool, value: impl Fn(&T) -> Value<'static>) {
    let (open, separator, close) = if json { ("[", ",", "]") } else { ("", "|", "") };
    out.push_str(open);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(separator);
        }
        value(item).write(out, json);
    }
    out.push_str(close);
}

/// One column of the row format.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// The header name, also the record's column name.
    pub name: &'static str,
    /// What the column contributes to a [`CellRecord`].
    pub role: Role,
    /// Reads the column's value from a row.
    pub value: fn(&SweepRow) -> Value<'_>,
}

const fn col(name: &'static str, role: Role, value: fn(&SweepRow) -> Value<'_>) -> Column {
    Column { name, role, value }
}

fn opt(value: Option<f64>) -> Value<'static> {
    value.map_or(Value::Absent, Value::Float)
}

fn sup(row: &SweepRow) -> Option<&SupervisorSummary> {
    row.summary.supervisor.as_ref()
}

fn per_vehicle(row: &SweepRow, value: fn(&VehicleSummary) -> Value<'static>) -> Value<'_> {
    Value::PerVehicle(&row.summary.vehicles, value)
}

/// The row format, in column order.
#[rustfmt::skip] // one column per line
pub static COLUMNS: [Column; 25] = {
    use Role::{Key, Label, Metric, Name, OptionalMetric as Optional};
    use Value::{Absent, Float, Int, List, Text};
    const ALL_VEHICLES: Role = Role::PerVehicle { required: true };
    const SOME_VEHICLES: Role = Role::PerVehicle { required: false };
    [
        col("cell", Key, |r| Int(r.cell as u64)),
        col("scenario", Name, |r| Text(&r.summary.scenario)),
        col("suite", Label, |r| Text(&r.suite)),
        col("faults", Label, |r| Text(&r.faults)),
        col("attacker", Label, |r| Text(&r.attacker)),
        col("schedule", Label, |r| Text(&r.schedule)),
        col("fuser", Label, |r| Text(&r.summary.fuser)),
        col("detector", Label, |r| Text(&r.summary.detector)),
        col("rounds", Label, |r| Int(r.rounds)),
        col("seed", Label, |r| Int(r.seed)),
        col("mean_width", Metric, |r| Float(r.summary.widths.mean())),
        col("min_width", Optional, |r| opt(r.summary.widths.min())),
        col("max_width", Optional, |r| opt(r.summary.widths.max())),
        col("truth_lost", Metric, |r| Int(r.summary.truth_lost)),
        col("truth_loss_rate", Metric, |r| Float(r.summary.truth_loss_rate())),
        col("fusion_failures", Metric, |r| Int(r.summary.fusion_failures)),
        col("flagged_rounds", Metric, |r| Int(r.summary.flagged_rounds)),
        col("condemned", Label, |r| List(&r.summary.condemned)),
        col("above_rate", Optional, |r| opt(sup(r).map(|s| s.above_rate))),
        col("below_rate", Optional, |r| opt(sup(r).map(|s| s.below_rate))),
        col("preemptions", Optional, |r| sup(r).map_or(Absent, |s| Int(s.preemptions))),
        col("min_gap", Optional, |r| opt(sup(r).and_then(|s| s.min_gap))),
        col("vehicle_mean_widths", ALL_VEHICLES, |r| per_vehicle(r, |v| Float(v.widths.mean()))),
        col("vehicle_max_widths", SOME_VEHICLES, |r| per_vehicle(r, |v| opt(v.widths.max()))),
        col("vehicle_truth_lost", ALL_VEHICLES, |r| per_vehicle(r, |v| Int(v.truth_lost))),
    ]
};

/// The CSV header line, trailing newline included.
pub(super) fn csv_header() -> &'static str {
    static HEADER: OnceLock<String> = OnceLock::new();
    HEADER.get_or_init(|| {
        let names: Vec<&str> = COLUMNS.iter().map(|c| c.name).collect();
        format!("{}\n", names.join(","))
    })
}

/// Appends one row as a JSON object, or else as a CSV line (no trailing
/// newline).
pub(super) fn write_row(row: &SweepRow, out: &mut String, json: bool) {
    out.push_str(if json { "{" } else { "" });
    for (i, column) in COLUMNS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if json {
            push_json_string(out, column.name);
            out.push(':');
        }
        (column.value)(row).write(out, json);
    }
    out.push_str(if json { "}" } else { "" });
}

fn push_csv_field(out: &mut String, raw: &str) {
    if raw.contains([',', '"', '\n']) {
        out.push('"');
        out.push_str(&raw.replace('"', "\"\""));
        out.push('"');
    } else {
        out.push_str(raw);
    }
}

/// Splits one CSV line into fields, undoing the writers' quoting.
pub fn split_csv(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                chars.next();
                field.push('"');
            }
            '"' => quoted = !quoted,
            ',' if !quoted => fields.push(std::mem::take(&mut field)),
            c => field.push(c),
        }
    }
    fields.push(field);
    fields
}

/// The record column of entry `index` of a per-vehicle column family.
pub fn indexed_column(family: &str, index: usize) -> String {
    format!("{family}[{index}]")
}

/// The family of an [`indexed_column`] (`None` for a scalar column), so
/// a tolerance named after a family covers every vehicle.
pub fn column_family(column: &str) -> Option<&str> {
    let (family, rest) = column.split_once('[')?;
    rest.ends_with(']').then_some(family)
}

fn parse_metric(field: &str, column: &str, required: bool) -> Result<Option<f64>, String> {
    match field {
        "" if required => Err(format!("missing {column}")),
        "" => Ok(None),
        _ => field
            .parse()
            .map(Some)
            .map_err(|_| format!("bad {column} `{field}`")),
    }
}

/// An empty record sized for the labels and metrics of a row with
/// `vehicles` platoon vehicles.
fn sized_record(vehicles: usize) -> CellRecord {
    fn count(keep: impl Fn(Role) -> bool) -> usize {
        COLUMNS.iter().filter(|c| keep(c.role)).count()
    }
    let scalars = count(|r| matches!(r, Role::Metric | Role::OptionalMetric));
    let vectors = count(|r| matches!(r, Role::PerVehicle { .. }));
    CellRecord {
        cell: 0,
        labels: Vec::with_capacity(count(|r| r == Role::Label)),
        metrics: Vec::with_capacity(scalars + vehicles * vectors),
    }
}

impl CellRecord {
    /// Flattens one report row from its typed values.
    pub fn from_row(row: &SweepRow) -> Self {
        let mut record = sized_record(row.summary.vehicles.len());
        for column in &COLUMNS {
            let name = || column.name.to_string();
            match (column.role, (column.value)(row)) {
                (Role::Key, Value::Int(cell)) => record.cell = cell,
                (Role::Label, value) => record.labels.push((name(), value.label())),
                (Role::Metric | Role::OptionalMetric, value) => {
                    record.metrics.push((name(), value.metric()));
                }
                _ => {}
            }
        }
        for index in 0..row.summary.vehicles.len() {
            for column in &COLUMNS {
                if let Value::PerVehicle(vehicles, value) = (column.value)(row) {
                    let metric = value(&vehicles[index]).metric();
                    record
                        .metrics
                        .push((indexed_column(column.name, index), metric));
                }
            }
        }
        record
    }

    /// Reads the record back from one CSV line: the inverse of
    /// [`SweepRow::to_csv_line`], equal to [`CellRecord::from_row`] of
    /// the row that wrote it.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending column: a wrong column
    /// count, a malformed number, a missing required metric, or
    /// per-vehicle columns of different lengths.
    pub fn from_csv_line(line: &str) -> Result<Self, String> {
        let fields = split_csv(line);
        if fields.len() != COLUMNS.len() {
            let (want, got) = (COLUMNS.len(), fields.len());
            return Err(format!("expected {want} CSV columns, got {got}"));
        }
        let mut record = sized_record(0);
        let mut vehicles = Vec::new();
        for (column, field) in COLUMNS.iter().zip(&fields) {
            let name = column.name;
            match column.role {
                Role::Key => {
                    record.cell = field.parse().map_err(|_| format!("bad {name} `{field}`"))?
                }
                Role::Name => {}
                Role::Label => record.labels.push((name.to_string(), field.clone())),
                Role::Metric | Role::OptionalMetric => {
                    let value = parse_metric(field, name, column.role == Role::Metric)?;
                    record.metrics.push((name.to_string(), value));
                }
                Role::PerVehicle { required } => {
                    let entries: Vec<&str> =
                        field.split('|').filter(|_| !field.is_empty()).collect();
                    vehicles.push((name, required, entries));
                }
            }
        }
        // An empty field is zero vehicles, except that an optional column
        // of a one-vehicle row renders its one absent entry as empty.
        let count = vehicles.iter().map(|(_, _, e)| e.len()).max().unwrap_or(0);
        for (name, _, entries) in &mut vehicles {
            if entries.is_empty() && count == 1 {
                entries.push("");
            }
            if entries.len() != count {
                let n = entries.len();
                return Err(format!(
                    "vehicle column lengths disagree: `{name}` has {n} entries for \
                     {count} vehicle(s)"
                ));
            }
        }
        for index in 0..count {
            for (name, required, entries) in &vehicles {
                let value = parse_metric(entries[index], name, *required)?;
                record.metrics.push((indexed_column(name, index), value));
            }
        }
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{SupervisorSummary, WidthStats};
    use crate::runner::BatchSummary;

    fn widths(samples: &[f64]) -> WidthStats {
        let mut stats = WidthStats::new();
        for &w in samples {
            stats.record(w);
        }
        stats
    }

    /// A hand-built closed-loop row: two condemned sensors, a seed
    /// above 2^53 and the given platoon.
    fn hand_row(scenario: &str, vehicles: Vec<VehicleSummary>) -> SweepRow {
        SweepRow {
            cell: 7,
            suite: "landshark".to_string(),
            faults: "none".to_string(),
            attacker: "random-each-round".to_string(),
            schedule: "descending".to_string(),
            rounds: 40,
            seed: 13_973_414_790_076_738_073,
            summary: BatchSummary {
                scenario: scenario.to_string(),
                fuser: "marzullo".to_string(),
                detector: "windowed(10,3)".to_string(),
                rounds: 40,
                widths: widths(&[0.5, 0.25, 1.0 / 3.0]),
                truth_lost: 1,
                fusion_failures: 2,
                flagged_rounds: 5,
                condemned: vec![0, 2],
                supervisor: Some(SupervisorSummary {
                    above_rate: 0.175,
                    below_rate: 0.0,
                    preemptions: 12,
                    min_gap: None,
                }),
                vehicles,
            },
        }
    }

    fn reads_back(row: &SweepRow) -> CellRecord {
        let line = row.to_csv_line();
        let record = CellRecord::from_csv_line(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(record, CellRecord::from_row(row), "{line}");
        record
    }

    #[test]
    fn header_lists_the_table_in_order() {
        assert_eq!(
            csv_header(),
            "cell,scenario,suite,faults,attacker,schedule,fuser,detector,rounds,seed,\
             mean_width,min_width,max_width,truth_lost,truth_loss_rate,\
             fusion_failures,flagged_rounds,condemned,\
             above_rate,below_rate,preemptions,min_gap,\
             vehicle_mean_widths,vehicle_max_widths,vehicle_truth_lost\n"
        );
    }

    #[test]
    fn split_csv_honours_quoting() {
        assert_eq!(split_csv("a,b,c"), ["a", "b", "c"]);
        assert_eq!(split_csv("a,\"b,c\",d"), ["a", "b,c", "d"]);
        assert_eq!(
            split_csv("a,\"say \"\"hi\"\"\",c"),
            ["a", "say \"hi\"", "c"]
        );
        assert_eq!(split_csv("a,,c"), ["a", "", "c"]);
        assert_eq!(split_csv(""), [""]);
    }

    #[test]
    fn csv_quotes_fields_with_separators() {
        let field = |raw: &str| {
            let mut out = String::new();
            push_csv_field(&mut out, raw);
            out
        };
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("say \"hi\""), "\"say \"\"hi\"\"\"");
        // A widths suite label contains no comma by construction.
        assert_eq!(
            crate::scenario::SuiteSpec::Widths(vec![5.0, 11.0]).label(),
            "widths[5|11]"
        );
    }

    #[test]
    fn one_vehicle_with_no_max_width_reads_as_one_absent_entry() {
        let row = hand_row("solo", vec![VehicleSummary::default()]);
        assert!(row.to_csv_line().ends_with(",0,,0"));
        let record = reads_back(&row);
        assert_eq!(record.metric("vehicle_mean_widths[0]"), Some(Some(0.0)));
        assert_eq!(record.metric("vehicle_max_widths[0]"), Some(None));
        assert_eq!(record.metric("vehicle_truth_lost[0]"), Some(Some(0.0)));
        assert_eq!(record.metric("vehicle_mean_widths[1]"), None);
    }

    #[test]
    fn vehicle_metrics_interleave_per_vehicle() {
        let leader = VehicleSummary {
            widths: widths(&[0.5]),
            truth_lost: 3,
            fusion_failures: 0,
        };
        let row = hand_row("pair", vec![leader, VehicleSummary::default()]);
        let names: Vec<String> = reads_back(&row)
            .metrics
            .iter()
            .map(|(name, _)| name.clone())
            .filter(|name| column_family(name).is_some())
            .collect();
        assert_eq!(
            names,
            [
                "vehicle_mean_widths[0]",
                "vehicle_max_widths[0]",
                "vehicle_truth_lost[0]",
                "vehicle_mean_widths[1]",
                "vehicle_max_widths[1]",
                "vehicle_truth_lost[1]",
            ]
        );
    }

    #[test]
    fn a_scenario_name_with_separators_keeps_the_columns_aligned() {
        let name = "grid, \"quoted\"#7";
        let row = hand_row(name, Vec::new());
        let line = row.to_csv_line();
        assert!(line.starts_with("7,\"grid, \"\"quoted\"\"#7\",landshark,"));
        assert_eq!(split_csv(&line)[1], name);
        assert_eq!(
            reads_back(&row).label("attacker"),
            Some("random-each-round")
        );
    }

    #[test]
    fn condemned_lists_and_large_seeds_stay_exact_labels() {
        let record = reads_back(&hand_row("labels", Vec::new()));
        assert_eq!(record.label("condemned"), Some("0|2"));
        assert_eq!(record.label("seed"), Some("13973414790076738073"));
        assert_eq!(record.label("rounds"), Some("40"));
        assert_eq!(record.metric("min_gap"), Some(None));
        assert_eq!(record.metric("preemptions"), Some(Some(12.0)));
    }

    #[test]
    fn the_reader_names_what_is_wrong() {
        let line = hand_row("bad", Vec::new()).to_csv_line();
        let fields = split_csv(&line);
        let join = |fields: &[String]| {
            let mut out = String::new();
            for (i, field) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_csv_field(&mut out, field);
            }
            out
        };
        let with = |edits: &[(usize, &str)]| {
            let mut fields = fields.clone();
            for &(index, value) in edits {
                fields[index] = value.to_string();
            }
            join(&fields)
        };
        let err = |line: &str| CellRecord::from_csv_line(line).unwrap_err();
        assert_eq!(join(&fields), line, "the fixture re-joins losslessly");
        assert_eq!(err(&join(&fields[..24])), "expected 25 CSV columns, got 24");
        assert_eq!(err(&with(&[(10, "wide")])), "bad mean_width `wide`");
        assert_eq!(err(&with(&[(10, "")])), "missing mean_width");
        assert_eq!(err(&with(&[(0, "x")])), "bad cell `x`");
        assert_eq!(err(&with(&[(20, "1.5.2")])), "bad preemptions `1.5.2`");
        assert_eq!(
            err(&with(&[(22, "1|2")])),
            "vehicle column lengths disagree: `vehicle_max_widths` has 0 entries for 2 vehicle(s)"
        );
        assert_eq!(
            err(&with(&[(22, "1|2"), (23, "|"), (24, "0")])),
            "vehicle column lengths disagree: `vehicle_truth_lost` has 1 entries for 2 vehicle(s)"
        );
        assert_eq!(err(&with(&[(23, "1")])), "missing vehicle_mean_widths");
        assert_eq!(
            err(&with(&[(22, "1|2"), (23, "|"), (24, "0|x")])),
            "bad vehicle_truth_lost `x`"
        );
        assert_eq!(
            err(&with(&[(22, "1"), (23, ""), (24, "")])),
            "missing vehicle_truth_lost"
        );
    }

    #[test]
    fn column_family_inverts_indexed_column() {
        assert_eq!(
            column_family(&indexed_column("vehicle_max_widths", 12)),
            Some("vehicle_max_widths")
        );
        assert_eq!(column_family("mean_width"), None);
        assert_eq!(column_family("odd[name"), None);
    }
}
