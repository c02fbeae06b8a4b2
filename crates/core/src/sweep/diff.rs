//! Cell-by-cell comparison of two sweep baselines.
//!
//! [`diff`] aligns two [`Baseline`]s **by grid index**, compares every
//! label column verbatim and every numeric column under per-column
//! absolute/relative [`Tolerance`]s, and collects the result into a
//! [`SweepDiff`] whose [`render`](SweepDiff::render) names each drifted
//! cell's grid index, column, baseline value and new value — so fusion
//! *quality* drift reads like a failing test, not a silent number.
//!
//! Because sweeps are deterministic (byte-identical across thread
//! counts), the default configuration is **exact**: any difference is a
//! drift. Tolerances exist for intentional slack — e.g. accepting a
//! ±0.5 pp wobble in a Monte Carlo violation rate after an unrelated
//! change — and are attached per column via
//! [`DiffConfig::with_column`].
//!
//! # Example
//!
//! ```
//! use arsf_core::scenario::{AttackerSpec, Scenario, StrategySpec, SuiteSpec};
//! use arsf_core::sweep::diff::{diff, DiffConfig};
//! use arsf_core::sweep::store::Baseline;
//! use arsf_core::sweep::SweepGrid;
//!
//! let base = Scenario::new("demo", SuiteSpec::Landshark)
//!     .with_attacker(AttackerSpec::Fixed {
//!         sensors: vec![0],
//!         strategy: StrategySpec::PhantomOptimal,
//!     })
//!     .with_rounds(20);
//! let grid = SweepGrid::new(base).seeds([1, 2]);
//! let baseline = Baseline::from_report(&grid, &grid.run_serial());
//! let report = diff(&baseline, &baseline, &DiffConfig::default());
//! assert!(report.is_empty(), "a report never drifts from itself");
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use super::schema::column_family;
use super::store::{Baseline, CellRecord};

/// An absolute + relative tolerance for one numeric column.
///
/// A pair `(baseline, current)` is within tolerance when
/// `|baseline − current| ≤ abs + rel · max(|baseline|, |current|)`
/// (bit-equal values always pass; a `NaN` on either side never does).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Absolute slack.
    pub abs: f64,
    /// Relative slack, scaled by the larger magnitude.
    pub rel: f64,
}

impl Tolerance {
    /// Zero slack: only bit-equal values pass.
    pub const EXACT: Tolerance = Tolerance { abs: 0.0, rel: 0.0 };

    /// Creates a tolerance.
    ///
    /// # Panics
    ///
    /// Panics unless both components are finite and non-negative.
    pub fn new(abs: f64, rel: f64) -> Self {
        assert!(
            abs.is_finite() && abs >= 0.0 && rel.is_finite() && rel >= 0.0,
            "tolerances must be finite and non-negative"
        );
        Self { abs, rel }
    }

    /// Whether `current` is within tolerance of `baseline`.
    pub fn allows(&self, baseline: f64, current: f64) -> bool {
        if baseline == current {
            return true;
        }
        let diff = (baseline - current).abs();
        diff <= self.abs + self.rel * baseline.abs().max(current.abs())
    }
}

impl Default for Tolerance {
    /// [`Tolerance::EXACT`] — deterministic sweeps should not drift at
    /// all unless an algorithm changed.
    fn default() -> Self {
        Tolerance::EXACT
    }
}

/// Per-column tolerance configuration for [`diff`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffConfig {
    default: Tolerance,
    columns: Vec<(String, Tolerance)>,
}

impl DiffConfig {
    /// The configuration the baseline *check* harnesses use: a
    /// `1e-12`/`1e-12` default tolerance instead of exact equality.
    ///
    /// Sweeps are bit-deterministic on one machine, but the sensor
    /// noise path goes through `ln`/`cos`, and libm implementations
    /// differ in the last ulp across platforms — a baseline recorded on
    /// one OS could spuriously "drift" by ~1e-16 elsewhere. The
    /// near-exact floor absorbs that while remaining orders of
    /// magnitude below any real fusion-quality regression.
    pub fn near_exact() -> Self {
        Self::default().with_default(Tolerance::new(1e-12, 1e-12))
    }

    /// Sets the tolerance applied to columns without an explicit entry
    /// (builder style; the initial default is [`Tolerance::EXACT`]).
    #[must_use]
    pub fn with_default(mut self, tolerance: Tolerance) -> Self {
        self.default = tolerance;
        self
    }

    /// Attaches a tolerance to one column (builder style). A vector
    /// column family can be named without its index: `vehicle_mean_widths`
    /// covers `vehicle_mean_widths[0]`, `[1]`, … unless an exact indexed
    /// entry also exists.
    #[must_use]
    pub fn with_column(mut self, column: impl Into<String>, tolerance: Tolerance) -> Self {
        self.columns.push((column.into(), tolerance));
        self
    }

    /// The per-column entries attached via [`DiffConfig::with_column`],
    /// in insertion order — static analyses use this to flag tolerance
    /// entries that match no column of a baseline.
    pub fn column_entries(&self) -> &[(String, Tolerance)] {
        &self.columns
    }

    /// The tolerance in force for a column: the exact entry if present,
    /// else the entry of its family ([`column_family`]), else the
    /// default.
    pub fn tolerance_for(&self, column: &str) -> Tolerance {
        let lookup = |name: &str| {
            self.columns
                .iter()
                .find(|(c, _)| c == name)
                .map(|(_, t)| *t)
        };
        lookup(column)
            .or_else(|| column_family(column).and_then(lookup))
            .unwrap_or(self.default)
    }
}

/// One observed difference between two baselines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Drift {
    /// The grid definitions (and therefore content addresses) differ:
    /// the two reports do not describe the same experiment.
    Definition {
        /// The baseline's content address.
        baseline: String,
        /// The current report's content address.
        current: String,
    },
    /// A cell present in the baseline is absent from the current report.
    MissingCell {
        /// The missing cell's grid index.
        cell: u64,
    },
    /// A cell absent from the baseline appeared in the current report.
    ExtraCell {
        /// The new cell's grid index.
        cell: u64,
    },
    /// One aligned cell's column sets differ (a column was added or
    /// removed — e.g. a platoon axis changed the vehicle count).
    Columns {
        /// The cell's grid index.
        cell: u64,
        /// Columns only the baseline has.
        missing: Vec<String>,
        /// Columns only the current report has.
        extra: Vec<String>,
    },
    /// A label column (axis coordinate, seed, condemned set) changed.
    Label {
        /// The cell's grid index.
        cell: u64,
        /// The column name.
        column: String,
        /// The baseline's value.
        baseline: String,
        /// The current report's value.
        current: String,
    },
    /// A numeric column drifted beyond its tolerance.
    Value {
        /// The cell's grid index.
        cell: u64,
        /// The column name.
        column: String,
        /// The baseline's value (`None` = null).
        baseline: Option<f64>,
        /// The current report's value (`None` = null).
        current: Option<f64>,
    },
}

fn render_value(value: Option<f64>) -> String {
    value.map_or("null".to_string(), |v| format!("{v}"))
}

impl Drift {
    /// One human-readable line describing the drift.
    pub fn render(&self) -> String {
        match self {
            Drift::Definition { baseline, current } => {
                format!("grid definition changed: baseline address {baseline} != current {current}")
            }
            Drift::MissingCell { cell } => {
                format!("cell {cell}: present in baseline, missing from current report")
            }
            Drift::ExtraCell { cell } => {
                format!("cell {cell}: absent from baseline, present in current report")
            }
            Drift::Columns {
                cell,
                missing,
                extra,
            } => format!(
                "cell {cell}: column set changed (removed: [{}], added: [{}])",
                missing.join(", "),
                extra.join(", ")
            ),
            Drift::Label {
                cell,
                column,
                baseline,
                current,
            } => format!("cell {cell} `{column}`: baseline `{baseline}` -> current `{current}`"),
            Drift::Value {
                cell,
                column,
                baseline,
                current,
            } => {
                let detail = match (baseline, current) {
                    (Some(b), Some(c)) => {
                        let abs = (b - c).abs();
                        let scale = b.abs().max(c.abs());
                        if scale > 0.0 {
                            format!(" (|Δ| {abs}, rel {})", abs / scale)
                        } else {
                            format!(" (|Δ| {abs})")
                        }
                    }
                    _ => String::new(),
                };
                format!(
                    "cell {cell} `{column}`: baseline {} -> current {}{detail}",
                    render_value(*baseline),
                    render_value(*current)
                )
            }
        }
    }
}

/// The outcome of diffing two baselines: the drifts found plus the
/// comparison counts the summary line reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepDiff {
    drifts: Vec<Drift>,
    cells_compared: usize,
    comparisons: usize,
}

impl SweepDiff {
    /// Whether nothing drifted.
    pub fn is_empty(&self) -> bool {
        self.drifts.is_empty()
    }

    /// Number of drifts.
    pub fn len(&self) -> usize {
        self.drifts.len()
    }

    /// The drifts, in cell order.
    pub fn drifts(&self) -> &[Drift] {
        &self.drifts
    }

    /// Cells aligned and compared on both sides.
    pub fn cells_compared(&self) -> usize {
        self.cells_compared
    }

    /// Individual column comparisons performed.
    pub fn comparisons(&self) -> usize {
        self.comparisons
    }

    /// A human-readable multi-line report: one summary line, then one
    /// line per drift naming the cell's grid index, the column, and the
    /// before/after values.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            let _ = writeln!(
                out,
                "ok: no drift across {} cell(s) ({} comparisons)",
                self.cells_compared, self.comparisons
            );
        } else {
            let _ = writeln!(
                out,
                "DRIFT: {} difference(s) across {} compared cell(s) ({} comparisons)",
                self.drifts.len(),
                self.cells_compared,
                self.comparisons
            );
            for drift in &self.drifts {
                let _ = writeln!(out, "  {}", drift.render());
            }
        }
        out
    }
}

/// Compares `current` against `baseline` cell by cell.
///
/// Rows are aligned by grid index; every label column is compared
/// verbatim, every numeric column under `config`'s tolerance for it.
/// Definition/address mismatches, missing/extra cells and column-set
/// changes are reported as their own [`Drift`] variants rather than
/// failing the whole comparison, so one report tells the full story.
pub fn diff(baseline: &Baseline, current: &Baseline, config: &DiffConfig) -> SweepDiff {
    let mut result = SweepDiff {
        drifts: Vec::new(),
        cells_compared: 0,
        comparisons: 0,
    };
    if baseline.address != current.address || baseline.definition != current.definition {
        result.drifts.push(Drift::Definition {
            baseline: baseline.address.clone(),
            current: current.address.clone(),
        });
    }
    let current_by_cell: BTreeMap<u64, &CellRecord> =
        current.rows.iter().map(|row| (row.cell, row)).collect();
    let baseline_by_cell: BTreeMap<u64, &CellRecord> =
        baseline.rows.iter().map(|row| (row.cell, row)).collect();
    for (cell, base_row) in &baseline_by_cell {
        match current_by_cell.get(cell) {
            None => result.drifts.push(Drift::MissingCell { cell: *cell }),
            Some(cur_row) => {
                result.cells_compared += 1;
                diff_cell(base_row, cur_row, config, &mut result);
            }
        }
    }
    for cell in current_by_cell.keys() {
        if !baseline_by_cell.contains_key(cell) {
            result.drifts.push(Drift::ExtraCell { cell: *cell });
        }
    }
    result
}

fn diff_cell(
    baseline: &CellRecord,
    current: &CellRecord,
    config: &DiffConfig,
    out: &mut SweepDiff,
) {
    let mut missing: Vec<String> = Vec::new();
    let mut extra: Vec<String> = Vec::new();
    for (column, base_value) in &baseline.labels {
        match current.label(column) {
            None => missing.push(column.clone()),
            Some(cur_value) => {
                out.comparisons += 1;
                if base_value != cur_value {
                    out.drifts.push(Drift::Label {
                        cell: baseline.cell,
                        column: column.clone(),
                        baseline: base_value.clone(),
                        current: cur_value.to_string(),
                    });
                }
            }
        }
    }
    for (column, _) in &current.labels {
        if baseline.label(column).is_none() {
            extra.push(column.clone());
        }
    }
    for (column, base_value) in &baseline.metrics {
        match current.metric(column) {
            None => missing.push(column.clone()),
            Some(cur_value) => {
                out.comparisons += 1;
                let within = match (base_value, cur_value) {
                    (None, None) => true,
                    (Some(b), Some(c)) => config.tolerance_for(column).allows(*b, c),
                    _ => false,
                };
                if !within {
                    out.drifts.push(Drift::Value {
                        cell: baseline.cell,
                        column: column.clone(),
                        baseline: *base_value,
                        current: cur_value,
                    });
                }
            }
        }
    }
    for (column, _) in &current.metrics {
        if baseline.metric(column).is_none() {
            extra.push(column.clone());
        }
    }
    if !missing.is_empty() || !extra.is_empty() {
        out.drifts.push(Drift::Columns {
            cell: baseline.cell,
            missing,
            extra,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::SweepGrid;
    use super::*;
    use crate::scenario::{AttackerSpec, Scenario, StrategySpec, SuiteSpec};
    use arsf_schedule::SchedulePolicy;

    fn grid(rounds: u64) -> SweepGrid {
        let base = Scenario::new("diff", SuiteSpec::Landshark)
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::PhantomOptimal,
            })
            .with_rounds(rounds);
        SweepGrid::new(base)
            .schedules([SchedulePolicy::Ascending, SchedulePolicy::Descending])
            .seeds([2014, 99])
    }

    fn baseline(rounds: u64) -> Baseline {
        let g = grid(rounds);
        Baseline::from_report(&g, &g.run_serial())
    }

    #[test]
    fn tolerance_math_is_symmetric_and_nan_safe() {
        let exact = Tolerance::EXACT;
        assert!(exact.allows(1.5, 1.5));
        assert!(!exact.allows(1.5, 1.5 + 1e-12));
        assert!(exact.allows(0.0, -0.0), "signed zeros compare equal");
        assert!(!exact.allows(f64::NAN, f64::NAN), "NaN never passes");
        let abs = Tolerance::new(0.1, 0.0);
        assert!(abs.allows(1.0, 1.05) && abs.allows(1.05, 1.0));
        assert!(!abs.allows(1.0, 1.2));
        let rel = Tolerance::new(0.0, 0.1);
        assert!(rel.allows(100.0, 109.0) && rel.allows(109.0, 100.0));
        assert!(!rel.allows(100.0, 115.0));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_tolerance_panics() {
        let _ = Tolerance::new(-0.1, 0.0);
    }

    #[test]
    fn near_exact_absorbs_last_ulp_noise_but_not_regressions() {
        let config = DiffConfig::near_exact();
        let tol = config.tolerance_for("mean_width");
        // A last-ulp libm difference on a ~0.25 mean width passes…
        assert!(tol.allows(0.25, 0.25 + f64::EPSILON));
        // …while anything resembling a real quality drift fails.
        assert!(!tol.allows(0.25, 0.2500001));
        assert!(!tol.allows(0.0, 1e-9), "zeros stay effectively exact");
    }

    #[test]
    fn config_resolves_exact_family_then_default() {
        let config = DiffConfig::default()
            .with_default(Tolerance::new(1.0, 0.0))
            .with_column("mean_width", Tolerance::new(0.5, 0.0))
            .with_column("vehicle_mean_widths", Tolerance::new(0.25, 0.0))
            .with_column("vehicle_mean_widths[1]", Tolerance::new(0.125, 0.0));
        assert_eq!(config.tolerance_for("mean_width").abs, 0.5);
        assert_eq!(config.tolerance_for("vehicle_mean_widths[0]").abs, 0.25);
        assert_eq!(config.tolerance_for("vehicle_mean_widths[1]").abs, 0.125);
        assert_eq!(config.tolerance_for("max_width").abs, 1.0);
    }

    #[test]
    fn identical_baselines_never_drift() {
        let a = baseline(30);
        let result = diff(&a, &a.clone(), &DiffConfig::default());
        assert!(result.is_empty(), "{}", result.render());
        assert_eq!(result.cells_compared(), 4);
        assert!(result.comparisons() > 4 * 10);
        assert!(result.render().starts_with("ok: no drift across 4 cell(s)"));
    }

    #[test]
    fn value_drift_names_cell_column_and_both_values() {
        let a = baseline(30);
        let mut b = a.clone();
        let old = b.rows[2].metrics[0].1.unwrap(); // mean_width
        b.rows[2].metrics[0].1 = Some(old + 1.0);
        let result = diff(&a, &b, &DiffConfig::default());
        assert_eq!(result.len(), 1);
        match &result.drifts()[0] {
            Drift::Value {
                cell,
                column,
                baseline,
                current,
            } => {
                assert_eq!(*cell, 2);
                assert_eq!(column, "mean_width");
                assert_eq!(*baseline, Some(old));
                assert_eq!(*current, Some(old + 1.0));
            }
            other => panic!("expected a value drift, got {other:?}"),
        }
        let rendered = result.render();
        assert!(rendered.contains("cell 2 `mean_width`"), "{rendered}");
        assert!(rendered.contains(&format!("baseline {old}")), "{rendered}");
        assert!(
            rendered.contains(&format!("current {}", old + 1.0)),
            "{rendered}"
        );
        // A tolerance covering the nudge silences it.
        let lax = DiffConfig::default().with_column("mean_width", Tolerance::new(2.0, 0.0));
        assert!(diff(&a, &b, &lax).is_empty());
    }

    #[test]
    fn label_and_address_drifts_are_reported() {
        let a = baseline(30);
        // A different grid: rounds axis changed => address + labels move.
        let b = baseline(31);
        let result = diff(&a, &b, &DiffConfig::default());
        assert!(!result.is_empty());
        assert!(matches!(result.drifts()[0], Drift::Definition { .. }));
        assert!(result
            .drifts()
            .iter()
            .any(|d| matches!(d, Drift::Label { column, .. } if column == "rounds")));
        let rendered = result.render();
        assert!(rendered.starts_with("DRIFT:"), "{rendered}");
        assert!(rendered.contains("grid definition changed"), "{rendered}");
    }

    #[test]
    fn missing_and_extra_cells_are_reported() {
        let a = baseline(30);
        let mut b = a.clone();
        let mut moved = b.rows.remove(3);
        moved.cell = 9;
        b.rows.push(moved);
        let result = diff(&a, &b, &DiffConfig::default());
        assert!(result
            .drifts()
            .iter()
            .any(|d| matches!(d, Drift::MissingCell { cell: 3 })));
        assert!(result
            .drifts()
            .iter()
            .any(|d| matches!(d, Drift::ExtraCell { cell: 9 })));
        assert_eq!(result.cells_compared(), 3);
    }

    #[test]
    fn column_set_changes_are_reported_not_crashed_on() {
        let a = baseline(30);
        let mut b = a.clone();
        b.rows[1]
            .metrics
            .push(("vehicle_mean_widths[0]".to_string(), Some(1.0)));
        b.rows[1].metrics.retain(|(name, _)| name != "min_gap");
        let result = diff(&a, &b, &DiffConfig::default());
        assert_eq!(result.len(), 1);
        match &result.drifts()[0] {
            Drift::Columns {
                cell,
                missing,
                extra,
            } => {
                assert_eq!(*cell, 1);
                assert_eq!(missing, &["min_gap".to_string()]);
                assert_eq!(extra, &["vehicle_mean_widths[0]".to_string()]);
            }
            other => panic!("expected a column-set drift, got {other:?}"),
        }
    }

    #[test]
    fn null_versus_value_is_a_drift() {
        let a = baseline(30);
        let mut b = a.clone();
        let slot = b.rows[0]
            .metrics
            .iter_mut()
            .find(|(name, _)| name == "above_rate")
            .unwrap();
        assert_eq!(slot.1, None, "open-loop rows carry null supervisor columns");
        slot.1 = Some(0.25);
        let result = diff(&a, &b, &DiffConfig::default());
        assert_eq!(result.len(), 1);
        assert!(result.render().contains("baseline null -> current 0.25"));
    }
}
