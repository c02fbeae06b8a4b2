//! Shared baseline recording and checking for the sweep binaries.
//!
//! `scenario_sweep --baseline`, `sweep_drive --baseline` and
//! `sweep_diff record|check` must apply the identical recording vetoes
//! and check tolerances, so the logic lives here. The binaries parse
//! their `--allow-*` and `--tol` flags through [`crate::cli`] and pass
//! the result in; nothing here reads the process arguments.

use std::path::PathBuf;

use arsf_analyze::{AnalyzeGrid, Location, Severity};
use arsf_core::sweep::diff::{diff, DiffConfig};
use arsf_core::sweep::store::{baseline_path, grid_address, Baseline};
use arsf_core::sweep::SweepGrid;

/// Which overridable recording vetoes to waive — one field per
/// `--allow-*` flag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Overrides {
    /// Record cells with no static width bound (`--allow-unbounded`).
    pub unbounded: bool,
    /// Record a grid whose every corruptible cell is provably invisible
    /// to its detector (`--allow-invisible`).
    pub invisible: bool,
    /// Record cell pairs inverting a provable dominance ordering
    /// (`--allow-disorder`).
    pub disorder: bool,
}

/// Records `current` under `dir`, applying the four recording vetoes:
///
/// 1. error-severity grid lint findings (never overridable);
/// 2. cells with no static width bound (`allow.unbounded` waives it);
/// 3. a grid whose every corruptible cell is provably invisible to its
///    detector (`allow.invisible` waives it);
/// 4. recorded cell pairs inverting a provable dominance ordering
///    (`allow.disorder` waives it).
///
/// Vetoed findings are printed to stderr before the error is returned.
///
/// # Errors
///
/// Returns the refusal (or I/O failure) message for the caller's
/// `fail`-style diagnostic.
pub fn record(
    grid: &SweepGrid,
    current: &Baseline,
    dir: &str,
    allow: Overrides,
) -> Result<PathBuf, String> {
    // Refuse to freeze a statically unsound grid: an error-severity
    // finding means the rows are meaningless (soundness violated) or
    // the engines got lucky.
    let errors: Vec<_> = grid
        .analyze()
        .into_iter()
        .filter(|f| f.severity == Severity::Error)
        .collect();
    if !errors.is_empty() {
        for finding in &errors {
            eprintln!("{}", finding.render());
        }
        return Err(
            "refusing to record a baseline for a grid with error-severity lint findings"
                .to_string(),
        );
    }
    // Likewise refuse cells with no static width bound: the recorded
    // numbers would be unfalsifiable against the paper's guarantees.
    let unbounded: Vec<_> = arsf_analyze::analyze_grid_guarantees(grid)
        .into_iter()
        .filter(|f| f.lint == "guarantee-unbounded")
        .collect();
    if !unbounded.is_empty() && !allow.unbounded {
        for finding in &unbounded {
            eprintln!("{}", finding.render());
        }
        return Err(format!(
            "refusing to record a baseline: {} cell(s) have no static width bound \
             (pass --allow-unbounded to record anyway)",
            unbounded.len()
        ));
    }
    // And refuse a grid whose every attacked cell is provably invisible
    // to its detector: the detection columns would freeze a tautology.
    // (`table2-closed-loop` is the canonical case: its stealth-clamped
    // attacker provably never trips Marzullo's overlap check — exactly
    // the paper's point — so re-recording it takes --allow-invisible.)
    if arsf_analyze::detection_vacuous(grid) && !allow.invisible {
        return Err(
            "refusing to record a baseline: every corruptible cell is provably \
             invisible to its detector, so the detection columns are vacuous \
             (run `sweep_lint detectability` for the per-cell verdicts; pass \
             --allow-invisible to record anyway)"
                .to_string(),
        );
    }
    // Finally, the freshly-run numbers must respect every cross-cell
    // ordering the dominance pass proves: freezing an inverted pair
    // would make `sweep_lint dominance` fail forever after.
    let inversions = arsf_analyze::vet_baseline_dominance(
        grid,
        current,
        &Location::Grid {
            name: grid.base().name.clone(),
        },
    );
    if !inversions.is_empty() && !allow.disorder {
        for finding in &inversions {
            eprintln!("{}", finding.render());
        }
        return Err(format!(
            "refusing to record a baseline: {} recorded cell pair(s) invert a \
             provable ordering (run `sweep_lint dominance` for the derived edges; \
             pass --allow-disorder to record anyway)",
            inversions.len()
        ));
    }
    current
        .save(dir)
        .map_err(|e| format!("recording baseline: {e}"))
}

/// Diffs `current` against the baseline stored for `grid` under `dir`
/// under `config`. Returns the rendered drift report (empty on a clean
/// check) and whether any cell drifted.
///
/// # Errors
///
/// Returns a message when the stored baseline cannot be loaded or fails
/// address verification.
pub fn check(
    grid: &SweepGrid,
    current: &Baseline,
    dir: &str,
    config: &DiffConfig,
) -> Result<(String, bool), String> {
    let path = baseline_path(dir, &grid_address(grid));
    let stored =
        Baseline::load(&path).map_err(|e| format!("loading baseline {}: {e}", path.display()))?;
    // The content-addressing invariant must hold before the numbers
    // mean anything: a file whose stored address disagrees with its
    // embedded definition was hand-edited or corrupted.
    stored
        .verify_address()
        .map_err(|e| format!("stored baseline failed address verification: {e}"))?;
    let result = diff(&stored, current, config);
    Ok((result.render(), !result.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden;

    /// A fresh temporary directory for one test's recordings.
    fn fresh_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("arsf-baseline-ops-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn table2() -> (SweepGrid, Baseline) {
        let grid = golden::table2_closed_loop();
        let current = Baseline::from_report(&grid, &grid.run_serial());
        (grid, current)
    }

    const INVISIBLE: Overrides = Overrides {
        unbounded: false,
        invisible: true,
        disorder: false,
    };

    #[test]
    fn table2_records_only_with_the_invisibility_override() {
        let (grid, current) = table2();
        let dir = fresh_dir("invisible");
        let dir_str = dir.to_str().unwrap();
        let err = record(&grid, &current, dir_str, Overrides::default()).unwrap_err();
        assert!(
            err.contains("provably invisible") && err.contains("--allow-invisible"),
            "{err}"
        );
        assert!(!dir.exists(), "a refused recording writes nothing");
        let path = record(&grid, &current, dir_str, INVISIBLE).expect("override accepted");
        assert_eq!(Baseline::load(&path).unwrap(), current);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_tampered_metric_is_refused_as_a_dominance_inversion() {
        // Ascending cell 0 recording more preemptions than descending
        // cell 2 inverts Table II's provable schedule ordering.
        let (grid, mut current) = table2();
        let slot = current.rows[0]
            .metrics
            .iter_mut()
            .find(|(name, _)| name == "preemptions")
            .unwrap();
        slot.1 = Some(1e6);
        let dir = fresh_dir("disorder");
        let dir_str = dir.to_str().unwrap();
        let err = record(&grid, &current, dir_str, INVISIBLE).unwrap_err();
        assert!(
            err.contains("invert a provable ordering") && err.contains("--allow-disorder"),
            "{err}"
        );
        assert!(!dir.exists(), "a refused recording writes nothing");
        let allow = Overrides {
            disorder: true,
            ..INVISIBLE
        };
        record(&grid, &current, dir_str, allow).expect("override accepted");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
