//! Content-addressed persistence of sweep reports.
//!
//! The paper's guarantees are quantitative — fused-interval widths,
//! Table II violation rates — so a regression in fusion *quality* is
//! invisible to ordinary unit tests even though every sweep cell is
//! deterministically reproducible. This module turns a [`SweepReport`]
//! into a **baseline** that future runs are diffed against (see
//! [`diff`](super::diff)):
//!
//! * [`canonical_definition`] — a stable, versioned textual form of a
//!   [`SweepGrid`]'s *semantic* content: every axis, the base scenario's
//!   fault assumption, truth trajectory and closed-loop spec. Formatting
//!   details that do not change what the grid computes (the base
//!   scenario's *name*) are deliberately excluded, so renaming a grid
//!   does not orphan its baseline.
//! * [`content_address`] / [`grid_address`] — the FNV-1a hash of that
//!   canonical form, rendered as 16 hex digits. Equal grids hash equal;
//!   touching any axis produces a new address and therefore a *new*
//!   baseline file instead of silently overwriting the old one.
//! * [`Baseline`] — the address, the definition and one flattened
//!   [`CellRecord`] per grid cell, saved as `baselines/<address>.json`
//!   ([`Baseline::save`]) and loaded back through the workspace's own
//!   [`json`] parser ([`Baseline::load`]). A record is
//!   flattened from a row's typed values ([`Baseline::from_report`]) or
//!   read back from its CSV line ([`Baseline::from_csv_lines`]); both
//!   follow the column table in [`schema`](super::schema), so the two
//!   agree exactly.
//!
//! # Example
//!
//! ```
//! use arsf_core::scenario::{AttackerSpec, Scenario, StrategySpec, SuiteSpec};
//! use arsf_core::sweep::store::{grid_address, Baseline};
//! use arsf_core::sweep::SweepGrid;
//!
//! let base = Scenario::new("demo", SuiteSpec::Landshark)
//!     .with_attacker(AttackerSpec::Fixed {
//!         sensors: vec![0],
//!         strategy: StrategySpec::PhantomOptimal,
//!     })
//!     .with_rounds(30);
//! let grid = SweepGrid::new(base).seeds([1, 2]);
//! let baseline = Baseline::from_report(&grid, &grid.run_serial());
//! assert_eq!(baseline.address, grid_address(&grid));
//! let reloaded = Baseline::from_json(&baseline.to_json()).unwrap();
//! assert_eq!(baseline, reloaded);
//! ```

use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};

use crate::scenario::{
    faults_label, AttackerSpec, ClosedLoopSpec, FuserSpec, SuiteSpec, TruthSpec,
};
use crate::DetectionMode;

use crate::json::{self, json_string};

use super::{SweepGrid, SweepReport};

/// The format tag written into every baseline file; bumped whenever the
/// stored shape changes incompatibly.
pub const FORMAT: &str = "arsf-baseline-v1";

/// A compact, canonical label for a fuser axis entry — unlike
/// [`FuserSpec::name`] it carries the parameters, so two historical
/// fusers with different rate bounds hash differently.
pub fn fuser_label(spec: &FuserSpec) -> String {
    match spec {
        FuserSpec::Historical { max_rate, dt } => format!("historical({max_rate},{dt})"),
        other => other.name().to_string(),
    }
}

/// A compact, canonical label for a detector axis entry (parameters
/// included, same reasoning as [`fuser_label`]).
pub fn detector_label(mode: &DetectionMode) -> String {
    match mode {
        DetectionMode::Off => "off".to_string(),
        DetectionMode::Immediate => "immediate".to_string(),
        DetectionMode::Windowed { window, tolerance } => format!("windowed({window},{tolerance})"),
    }
}

fn truth_label(truth: &TruthSpec) -> String {
    match truth {
        TruthSpec::Constant(v) => format!("constant({v})"),
        TruthSpec::Ramp {
            start,
            rate_per_round,
        } => format!("ramp({start},{rate_per_round})"),
    }
}

fn closed_loop_label(spec: &Option<ClosedLoopSpec>) -> String {
    match spec {
        None => "none".to_string(),
        Some(cl) => {
            let platoon = match cl.platoon {
                None => "none".to_string(),
                Some(p) => format!("{}x{}", p.size, p.gap_miles),
            };
            format!(
                "target:{},up:{},down:{},platoon:{}",
                cl.target_speed, cl.delta_up, cl.delta_down, platoon
            )
        }
    }
}

/// Renders the grid's semantic content — every axis plus the base
/// scenario's fault assumption `f`, truth trajectory and closed-loop
/// spec — in a stable, versioned textual form.
///
/// The base scenario's *name* is deliberately excluded: it changes what
/// the report rows are called, not what they compute, so renaming a grid
/// keeps its content address. Everything that feeds a cell's execution
/// is included, so changing any axis value changes the definition (and
/// the [`content_address`]).
pub fn canonical_definition(grid: &SweepGrid) -> String {
    fn join<T>(values: &[T], label: impl Fn(&T) -> String) -> String {
        values.iter().map(label).collect::<Vec<_>>().join(";")
    }
    let base = &grid.base;
    let lines = [
        ("f", base.f.to_string()),
        ("truth", truth_label(&base.truth)),
        ("closed_loop", closed_loop_label(&base.closed_loop)),
        ("suites", join(&grid.suites, SuiteSpec::label)),
        ("fault_sets", join(&grid.fault_sets, |f| faults_label(f))),
        ("attackers", join(&grid.attackers, AttackerSpec::label)),
        ("schedules", join(&grid.schedules, |s| s.name().to_string())),
        ("fusers", join(&grid.fusers, fuser_label)),
        ("detectors", join(&grid.detectors, detector_label)),
        ("rounds", join(&grid.rounds, u64::to_string)),
        ("seeds", join(&grid.seeds, u64::to_string)),
    ];
    let mut out = String::from("arsf-sweep-grid v1\n");
    for (key, value) in lines {
        let _ = writeln!(out, "{key}={value}");
    }
    out
}

/// Hashes a canonical definition into its content address (FNV-1a 64,
/// 16 lowercase hex digits).
pub fn content_address(definition: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in definition.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// The content address of a grid: `content_address(canonical_definition(grid))`.
pub fn grid_address(grid: &SweepGrid) -> String {
    content_address(&canonical_definition(grid))
}

/// The file a grid's baseline lives at inside a baseline directory:
/// `<dir>/<address>.json`.
pub fn baseline_path(dir: impl AsRef<Path>, address: &str) -> PathBuf {
    dir.as_ref().join(format!("{address}.json"))
}

/// One sweep row, flattened for comparison: exact textual *labels*
/// (axis coordinates plus the integer columns, compared verbatim) and
/// numeric *metrics* (compared under [`diff`](super::diff) tolerances).
///
/// Per-vehicle platoon vectors are expanded into indexed columns
/// (`vehicle_mean_widths[0]`, …) so every scalar has its own name in a
/// drift report. [`CellRecord::from_row`] and
/// [`CellRecord::from_csv_line`] build it from the column table in
/// [`schema`](super::schema).
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// The cell's position in grid order — the alignment key for diffs.
    pub cell: u64,
    /// Exact-match columns: suite, faults, attacker, schedule, fuser,
    /// detector, rounds, seed, condemned.
    pub labels: Vec<(String, String)>,
    /// Numeric columns under tolerance: widths, counters, rates, the
    /// supervisor columns (absent open-loop → `None`) and the expanded
    /// per-vehicle vectors.
    pub metrics: Vec<(String, Option<f64>)>,
}

impl CellRecord {
    /// Looks a label up by column name.
    pub fn label(&self, column: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(name, _)| name == column)
            .map(|(_, value)| value.as_str())
    }

    /// Looks a metric up by column name (`None` when the column is
    /// absent; `Some(None)` when present but null).
    pub fn metric(&self, column: &str) -> Option<Option<f64>> {
        self.metrics
            .iter()
            .find(|(name, _)| name == column)
            .map(|(_, value)| *value)
    }
}

/// A persisted sweep result: the grid's canonical definition, its
/// content address, and one [`CellRecord`] per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// The grid's content address (the file stem under the baseline
    /// directory).
    pub address: String,
    /// The grid's canonical definition (see [`canonical_definition`]),
    /// stored verbatim so a baseline file is self-describing.
    pub definition: String,
    /// The flattened rows, in grid order.
    pub rows: Vec<CellRecord>,
}

impl Baseline {
    /// Flattens a report produced by `grid` into a baseline.
    pub fn from_report(grid: &SweepGrid, report: &SweepReport) -> Self {
        let definition = canonical_definition(grid);
        Self {
            address: content_address(&definition),
            definition,
            rows: report.rows().iter().map(CellRecord::from_row).collect(),
        }
    }

    /// Rebuilds the baseline of `grid` from its report's CSV data lines
    /// (no header): equal to [`Baseline::from_report`] of the report
    /// that wrote them, so a driven run holding only CSV lines records
    /// and checks like an in-process one.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Parse`] naming the first malformed line.
    pub fn from_csv_lines<S: AsRef<str>>(
        grid: &SweepGrid,
        lines: &[S],
    ) -> Result<Self, StoreError> {
        let definition = canonical_definition(grid);
        let rows = lines
            .iter()
            .enumerate()
            .map(|(i, line)| {
                CellRecord::from_csv_line(line.as_ref())
                    .map_err(|e| StoreError::Parse(format!("CSV row {i}: {e}")))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            address: content_address(&definition),
            definition,
            rows,
        })
    }

    /// Renders the baseline as JSON (dependency-free, one row per line;
    /// [`Baseline::from_json`] round-trips the exact value).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"format\": {},", json_string(FORMAT));
        let _ = writeln!(out, "  \"address\": {},", json_string(&self.address));
        let _ = writeln!(out, "  \"definition\": {},", json_string(&self.definition));
        out.push_str("  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            let _ = write!(out, "    {{\"cell\":{},\"labels\":{{", row.cell);
            for (j, (name, value)) in row.labels.iter().enumerate() {
                out.push_str(if j > 0 { "," } else { "" });
                let _ = write!(out, "{}:{}", json_string(name), json_string(value));
            }
            out.push_str("},\"metrics\":{");
            for (j, (name, value)) in row.metrics.iter().enumerate() {
                out.push_str(if j > 0 { "," } else { "" });
                let _ = match value {
                    Some(v) => write!(out, "{}:{v}", json_string(name)),
                    None => write!(out, "{}:null", json_string(name)),
                };
            }
            out.push_str("}}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a baseline file's contents.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Parse`] on malformed JSON, a wrong format
    /// tag, or a missing/ill-typed field.
    pub fn from_json(src: &str) -> Result<Self, StoreError> {
        let parse = || -> Result<Self, String> {
            let value = json::parse(src)?;
            let format = value.field("format")?.as_str("format")?;
            if format != FORMAT {
                return Err(format!(
                    "unsupported baseline format `{format}` (expected `{FORMAT}`)"
                ));
            }
            let address = value.field("address")?.as_str("address")?.to_string();
            let definition = value.field("definition")?.as_str("definition")?.to_string();
            let mut rows = Vec::new();
            for (i, row) in value.field("rows")?.as_array("rows")?.iter().enumerate() {
                let cell = row.field("cell")?.as_u64(&format!("rows[{i}].cell"))?;
                let mut labels = Vec::new();
                for (name, value) in row.field("labels")?.as_object("labels")? {
                    labels.push((name.clone(), value.as_str(name)?.to_string()));
                }
                let mut metrics = Vec::new();
                for (name, value) in row.field("metrics")?.as_object("metrics")? {
                    metrics.push((name.clone(), value.as_nullable_f64(name)?));
                }
                rows.push(CellRecord {
                    cell,
                    labels,
                    metrics,
                });
            }
            Ok(Self {
                address,
                definition,
                rows,
            })
        };
        parse().map_err(StoreError::Parse)
    }

    /// Writes the baseline to `<dir>/<address>.json`, creating the
    /// directory if needed, and returns the path.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the directory or file cannot be
    /// written.
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<PathBuf, StoreError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = baseline_path(dir, &self.address);
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Loads a baseline from an explicit file path.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the file cannot be read and
    /// [`StoreError::Parse`] when its contents are malformed.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let src = std::fs::read_to_string(path)?;
        Self::from_json(&src)
    }

    /// Recomputes the content address of the embedded definition.
    ///
    /// A healthy baseline satisfies
    /// `self.address == self.computed_address()`; anything else means
    /// the file was hand-edited, corrupted, or written by a buggy tool.
    pub fn computed_address(&self) -> String {
        content_address(&self.definition)
    }

    /// Checks that the stored address matches the recomputed address of
    /// the embedded definition.
    ///
    /// # Errors
    ///
    /// Returns an [`AddressMismatch`] carrying both addresses when they
    /// disagree — the content-addressing invariant is broken and the
    /// baseline must not be trusted (or silently re-recorded over).
    pub fn verify_address(&self) -> Result<(), AddressMismatch> {
        let computed = self.computed_address();
        if self.address == computed {
            Ok(())
        } else {
            Err(AddressMismatch {
                stored: self.address.clone(),
                computed,
            })
        }
    }

    /// Loads the baseline a grid addresses inside a baseline directory.
    ///
    /// # Errors
    ///
    /// Same as [`Baseline::load`]; a missing file surfaces as
    /// [`StoreError::Io`] with [`std::io::ErrorKind::NotFound`].
    pub fn load_for_grid(dir: impl AsRef<Path>, grid: &SweepGrid) -> Result<Self, StoreError> {
        Self::load(baseline_path(dir, &grid_address(grid)))
    }
}

/// A baseline whose stored address does not match the recomputed
/// address of its embedded definition (see [`Baseline::verify_address`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressMismatch {
    /// The address stored in the file.
    pub stored: String,
    /// The address recomputed from the embedded definition.
    pub computed: String,
}

impl fmt::Display for AddressMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stored content address {} does not match the recomputed address {} \
             of the embedded definition",
            self.stored, self.computed
        )
    }
}

impl std::error::Error for AddressMismatch {}

/// Errors loading or saving a [`Baseline`].
#[derive(Debug)]
pub enum StoreError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file's contents are not a valid baseline.
    Parse(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "baseline I/O error: {e}"),
            StoreError::Parse(e) => write!(f, "baseline parse error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::super::SweepGrid;
    use super::*;
    use crate::scenario::{AttackerSpec, ClosedLoopSpec, Scenario, StrategySpec, SuiteSpec};
    use arsf_schedule::SchedulePolicy;
    use arsf_sensor::{FaultKind, FaultModel};

    fn attacked_base(rounds: u64) -> Scenario {
        Scenario::new("store", SuiteSpec::Landshark)
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::PhantomOptimal,
            })
            .with_rounds(rounds)
    }

    fn small_grid(rounds: u64) -> SweepGrid {
        SweepGrid::new(attacked_base(rounds))
            .fusers([FuserSpec::Marzullo, FuserSpec::BrooksIyengar])
            .schedules([SchedulePolicy::Ascending, SchedulePolicy::Descending])
            .seeds([2014, 99])
    }

    #[test]
    fn canonical_definition_is_versioned_and_lists_every_axis() {
        let def = canonical_definition(&small_grid(20));
        assert!(def.starts_with("arsf-sweep-grid v1\n"));
        for line in [
            "f=1",
            "truth=constant(10)",
            "closed_loop=none",
            "suites=landshark",
            "fault_sets=none",
            "attackers=phantom-optimal@0",
            "schedules=ascending;descending",
            "fusers=marzullo;brooks-iyengar",
            "detectors=immediate",
            "rounds=20",
            "seeds=2014;99",
        ] {
            assert!(
                def.contains(&format!("{line}\n")),
                "missing `{line}` in:\n{def}"
            );
        }
    }

    #[test]
    fn address_ignores_the_name_but_tracks_every_axis() {
        let grid = small_grid(20);
        let address = grid_address(&grid);
        // Renaming the base scenario is formatting, not semantics.
        let renamed = SweepGrid::new(attacked_base(20).named("different"))
            .fusers([FuserSpec::Marzullo, FuserSpec::BrooksIyengar])
            .schedules([SchedulePolicy::Ascending, SchedulePolicy::Descending])
            .seeds([2014, 99]);
        assert_eq!(address, grid_address(&renamed));
        // Any axis change moves the address.
        let wider = small_grid(20).seeds([2014, 99, 7]);
        assert_ne!(address, grid_address(&wider));
        let other_rounds = small_grid(21);
        assert_ne!(address, grid_address(&other_rounds));
        let detectors = small_grid(20).detectors([
            crate::DetectionMode::Immediate,
            crate::DetectionMode::Windowed {
                window: 10,
                tolerance: 3,
            },
        ]);
        assert_ne!(address, grid_address(&detectors));
        // Parameters inside an axis entry count too.
        let a = SweepGrid::new(attacked_base(20)).fusers([FuserSpec::Historical {
            max_rate: 2.5,
            dt: 0.1,
        }]);
        let b = SweepGrid::new(attacked_base(20)).fusers([FuserSpec::Historical {
            max_rate: 3.5,
            dt: 0.1,
        }]);
        assert_ne!(grid_address(&a), grid_address(&b));
        // Addresses are 16 lowercase hex digits.
        assert_eq!(address.len(), 16);
        assert!(address.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let grid = small_grid(25);
        let report = grid.run_serial();
        let baseline = Baseline::from_report(&grid, &report);
        assert_eq!(baseline.rows.len(), 8);
        assert_eq!(baseline.address, grid_address(&grid));
        let reloaded = Baseline::from_json(&baseline.to_json()).expect("round trip");
        assert_eq!(baseline, reloaded);
        // Seeds survive exactly (they exceed f64's integer range).
        let seed = baseline.rows[3].label("seed").unwrap();
        assert_eq!(seed, reloaded.rows[3].label("seed").unwrap());
        assert_eq!(seed.parse::<u64>().unwrap(), report.rows()[3].seed);
    }

    #[test]
    fn closed_loop_rows_flatten_supervisor_and_vehicle_columns() {
        let base = Scenario::new("cl", SuiteSpec::Landshark)
            .with_attacker(AttackerSpec::RandomEachRound)
            .with_rounds(30)
            .with_closed_loop(ClosedLoopSpec::new(10.0).with_platoon(2, 0.01));
        let grid = SweepGrid::new(base);
        let baseline = Baseline::from_report(&grid, &grid.run_serial());
        let row = &baseline.rows[0];
        assert!(row.metric("above_rate").unwrap().is_some());
        assert!(row.metric("min_gap").unwrap().is_some());
        assert!(row.metric("vehicle_mean_widths[1]").is_some());
        assert!(row.metric("vehicle_truth_lost[0]").unwrap().is_some());
        // The definition names the closed-loop spec.
        assert!(baseline
            .definition
            .contains("closed_loop=target:10,up:0.5,down:0.5,platoon:2x0.01"));
        // And open-loop rows carry null supervisor columns instead.
        let open = Baseline::from_report(
            &SweepGrid::new(attacked_base(10)),
            &SweepGrid::new(attacked_base(10)).run_serial(),
        );
        assert_eq!(open.rows[0].metric("above_rate"), Some(None));
        assert!(open.rows[0].metric("vehicle_mean_widths[0]").is_none());
    }

    #[test]
    fn baseline_from_csv_lines_equals_baseline_from_report() {
        let platoon = SweepGrid::new(
            Scenario::new("cl", SuiteSpec::Landshark)
                .with_attacker(AttackerSpec::RandomEachRound)
                .with_rounds(30)
                .with_closed_loop(ClosedLoopSpec::new(10.0).with_platoon(2, 0.01)),
        )
        .schedules([SchedulePolicy::Ascending, SchedulePolicy::Descending]);
        for grid in [small_grid(25), platoon] {
            let report = grid.run_serial();
            let lines: Vec<String> = report.rows().iter().map(|r| r.to_csv_line()).collect();
            assert_eq!(
                Baseline::from_csv_lines(&grid, &lines).expect("writer output reads back"),
                Baseline::from_report(&grid, &report)
            );
        }
        let err = Baseline::from_csv_lines(&small_grid(5), &["1,2,3"]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "baseline parse error: CSV row 0: expected 25 CSV columns, got 3"
        );
    }

    #[test]
    fn save_and_load_use_the_content_address() {
        let dir = std::env::temp_dir().join(format!(
            "arsf-store-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let grid = SweepGrid::new(attacked_base(15));
        let baseline = Baseline::from_report(&grid, &grid.run_serial());
        let path = baseline.save(&dir).expect("save");
        assert_eq!(
            path,
            baseline_path(&dir, &grid_address(&grid)),
            "file is content-addressed"
        );
        let loaded = Baseline::load_for_grid(&dir, &grid).expect("load");
        assert_eq!(baseline, loaded);
        // A different grid misses with NotFound.
        let other = SweepGrid::new(attacked_base(16));
        match Baseline::load_for_grid(&dir, &other) {
            Err(StoreError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            other => panic!("expected NotFound, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_address_catches_corruption() {
        let grid = SweepGrid::new(attacked_base(12));
        let mut baseline = Baseline::from_report(&grid, &grid.run_serial());
        assert_eq!(baseline.verify_address(), Ok(()));
        assert_eq!(baseline.computed_address(), baseline.address);
        // Hand-edit the definition: the stored address no longer matches.
        baseline.definition.push_str("rounds=extra\n");
        let err = baseline.verify_address().unwrap_err();
        assert_eq!(err.stored, baseline.address);
        assert_eq!(err.computed, content_address(&baseline.definition));
        assert_ne!(err.stored, err.computed);
        let rendered = err.to_string();
        assert!(rendered.contains(&err.stored), "{rendered}");
        assert!(rendered.contains(&err.computed), "{rendered}");
        // Tampering with the stored address is caught the same way.
        let mut retagged = Baseline::from_report(&grid, &grid.run_serial());
        retagged.address = "0000000000000000".to_string();
        assert!(retagged.verify_address().is_err());
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(matches!(
            Baseline::from_json("not json"),
            Err(StoreError::Parse(_))
        ));
        assert!(matches!(
            Baseline::from_json("{}"),
            Err(StoreError::Parse(_))
        ));
        let wrong_format =
            r#"{"format":"arsf-baseline-v0","address":"x","definition":"d","rows":[]}"#;
        match Baseline::from_json(wrong_format) {
            Err(StoreError::Parse(msg)) => assert!(msg.contains("arsf-baseline-v0")),
            other => panic!("expected a format error, got {other:?}"),
        }
        // Trailing garbage is an error, not silently ignored.
        let trailing = format!(
            "{} x",
            r#"{"format":"arsf-baseline-v1","address":"x","definition":"d","rows":[]}"#
        );
        assert!(Baseline::from_json(&trailing).is_err());
    }

    #[test]
    fn json_parser_handles_escapes_and_numbers() {
        let baseline = Baseline {
            address: "00ff".to_string(),
            definition: "line1\nline2 \"quoted\" \\slash\t".to_string(),
            rows: vec![CellRecord {
                cell: u64::MAX,
                labels: vec![("seed".to_string(), u64::MAX.to_string())],
                metrics: vec![
                    ("a".to_string(), Some(-1.5e-3)),
                    ("b".to_string(), None),
                    ("c".to_string(), Some(0.1 + 0.2)),
                ],
            }],
        };
        let reloaded = Baseline::from_json(&baseline.to_json()).expect("round trip");
        assert_eq!(baseline, reloaded, "escapes and numbers survive");
        assert_eq!(reloaded.rows[0].cell, u64::MAX);
        assert_eq!(reloaded.rows[0].metric("c"), Some(Some(0.1 + 0.2)));
    }

    #[test]
    fn fault_axis_reaches_the_definition() {
        let faulty = SweepGrid::new(attacked_base(10)).fault_sets([
            vec![],
            vec![(2, FaultModel::new(FaultKind::Bias { offset: 3.0 }, 0.25))],
        ]);
        let def = canonical_definition(&faulty);
        assert!(def.contains("fault_sets=none;2:bias(3)@0.25"));
        assert_ne!(
            grid_address(&faulty),
            grid_address(&SweepGrid::new(attacked_base(10)))
        );
    }
}
