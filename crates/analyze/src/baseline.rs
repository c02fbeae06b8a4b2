//! The baseline pass: lint persisted sweep baselines and the baseline
//! directory as a whole.
//!
//! Per-file checks (address integrity, filename/address agreement) run
//! through the [`Lint`] registry against a [`BaselineContext`]. The
//! directory driver adds findings the trait cannot express because they
//! concern unreadable files or cross-file context:
//!
//! * `baseline-parse` (error) — the file is not a readable baseline;
//! * `baseline-io` (error) — the directory itself cannot be listed;
//! * `baseline-orphan` (warning) — a `*.json` file whose 16-hex stem no
//!   known golden grid references;
//! * `baseline-missing` (warning) — a known golden grid with no
//!   recorded baseline file;
//! * `baseline-skipped` (info) — a `*.json` file whose stem is not a
//!   content address, so no baseline check ever looks at it;
//! * `tolerance-dead` (warning, via [`tolerance_findings`]) — a
//!   configured tolerance column that matches nothing anywhere.

use std::path::Path;

use arsf_core::sweep::diff::DiffConfig;
use arsf_core::sweep::schema::column_family;
use arsf_core::sweep::store::{baseline_path, Baseline};

use crate::{registry, sort_findings, Finding, Location, Severity};

/// One parsed baseline file, as seen by [`Lint::check_baseline`](crate::Lint::check_baseline).
#[derive(Debug)]
pub struct BaselineContext<'a> {
    /// The file the baseline was loaded from.
    pub path: &'a Path,
    /// The parsed baseline.
    pub baseline: &'a Baseline,
}

/// Lints one baseline file: parses it, then runs every registered lint.
///
/// An unreadable or unparsable file yields a single `baseline-parse`
/// error finding rather than a panic or an `Err` — malformed input is
/// exactly what the analyzer exists to report.
pub fn analyze_baseline_file(path: &Path) -> Vec<Finding> {
    let baseline = match Baseline::load(path) {
        Ok(baseline) => baseline,
        Err(err) => {
            return vec![Finding {
                lint: "baseline-parse",
                severity: Severity::Error,
                location: Location::File {
                    path: path.to_path_buf(),
                },
                message: err.to_string(),
            }]
        }
    };
    let ctx = BaselineContext {
        path,
        baseline: &baseline,
    };
    let mut findings = Vec::new();
    for lint in registry() {
        lint.check_baseline(&ctx, &mut findings);
    }
    sort_findings(&mut findings);
    findings
}

/// Lints a baseline directory against the set of known golden grids.
///
/// `known` pairs each golden grid's name with its expected content
/// address (`arsf-bench`'s `golden::all()` provides it; this crate
/// cannot depend on the grids themselves). Every `*.json` file whose
/// stem looks like a content address (16 lowercase hex digits) is
/// linted with [`analyze_baseline_file`] and checked for orphanhood;
/// other JSON files (e.g. a throughput report living in the same
/// directory) are not baselines and are skipped with an info-level
/// `baseline-skipped` finding each, so a typo'd baseline name stays
/// visible.
pub fn analyze_baseline_dir(dir: &Path, known: &[(String, String)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(err) => {
            return vec![Finding {
                lint: "baseline-io",
                severity: Severity::Error,
                location: Location::File {
                    path: dir.to_path_buf(),
                },
                message: format!("cannot list baseline directory: {err}"),
            }]
        }
    };
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();

    for path in &paths {
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        if !is_content_address(&stem) {
            // Not a baseline (e.g. a throughput report sharing the
            // directory) — but say so, because a typo'd baseline name
            // would otherwise silently escape every check.
            findings.push(Finding {
                lint: "baseline-skipped",
                severity: Severity::Info,
                location: Location::File { path: path.clone() },
                message: format!(
                    "`{stem}.json` is not a content-addressed baseline (expected a 16-hex \
                     stem): skipped by every baseline check"
                ),
            });
            continue;
        }
        findings.extend(analyze_baseline_file(path));
        if !known.iter().any(|(_, address)| *address == stem) {
            findings.push(Finding {
                lint: "baseline-orphan",
                severity: Severity::Warn,
                location: Location::File { path: path.clone() },
                message: format!(
                    "no golden grid references address {stem}: the file is never checked and \
                     likely predates a grid change (delete it or re-record)"
                ),
            });
        }
    }

    for (name, address) in known {
        let expected = baseline_path(dir, address);
        if !expected.exists() {
            findings.push(Finding {
                lint: "baseline-missing",
                severity: Severity::Warn,
                location: Location::Grid { name: name.clone() },
                message: format!(
                    "no recorded baseline {address}.json in {}: record one with \
                     `scenario_sweep --baseline record`",
                    dir.display()
                ),
            });
        }
    }

    sort_findings(&mut findings);
    findings
}

/// Whether a file stem is a sweep content address (16 lowercase hex
/// digits, the FNV-1a rendering the store emits).
fn is_content_address(stem: &str) -> bool {
    stem.len() == 16
        && stem
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase())
}

/// Flags configured tolerance columns that match no metric column in
/// any of the given baselines (`tolerance-dead`, warning).
///
/// A tolerance entry matches a column either exactly or as a *family*:
/// `vehicle_mean_widths` covers `vehicle_mean_widths[0]`,
/// `vehicle_mean_widths[1]`, … — the same rule
/// [`DiffConfig::tolerance_for`] applies. Matching is evaluated across
/// **all** baselines at once because one check-harness configuration is
/// applied to every grid: a family that only exists in the closed-loop
/// grid is alive, not dead.
pub fn tolerance_findings(config: &DiffConfig, baselines: &[&Baseline]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (column, _) in config.column_entries() {
        let matched = baselines.iter().any(|baseline| {
            baseline.rows.iter().any(|row| {
                row.metrics
                    .iter()
                    .any(|(name, _)| column_matches(column, name))
            })
        });
        if !matched {
            findings.push(Finding {
                lint: "tolerance-dead",
                severity: Severity::Warn,
                location: Location::Column {
                    column: column.clone(),
                },
                message: format!(
                    "tolerance for `{column}` matches no column in any of the {} baseline(s) \
                     checked: it guards nothing (typo, or the column was renamed)",
                    baselines.len()
                ),
            });
        }
    }
    sort_findings(&mut findings);
    findings
}

/// Whether a configured tolerance name covers a concrete metric column,
/// exactly or as its indexed family.
fn column_matches(configured: &str, column: &str) -> bool {
    configured == column || column_family(column) == Some(configured)
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use arsf_core::scenario::{Scenario, SuiteSpec};
    use arsf_core::sweep::diff::{DiffConfig, Tolerance};
    use arsf_core::sweep::store::Baseline;
    use arsf_core::sweep::SweepGrid;

    use super::{analyze_baseline_dir, analyze_baseline_file, tolerance_findings};

    fn tiny_baseline() -> Baseline {
        let grid = SweepGrid::new(Scenario::new("tiny", SuiteSpec::Landshark).with_rounds(5));
        Baseline::from_report(&grid, &grid.run_serial())
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("arsf-analyze-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn a_recorded_baseline_is_clean_and_corruption_is_an_error() {
        let dir = temp_dir("corrupt");
        let baseline = tiny_baseline();
        let path = baseline.save(&dir).unwrap();
        assert!(analyze_baseline_file(&path).is_empty());

        // Hand-corrupt the embedded definition without updating the
        // stored address — exactly what a careless manual edit does.
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted = text.replace("rounds=5", "rounds=6");
        assert_ne!(text, corrupted, "fixture must actually change");
        std::fs::write(&path, corrupted).unwrap();
        let findings = analyze_baseline_file(&path);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, "baseline-address");
        assert!(findings[0].message.contains("does not match"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unparsable_files_and_misnamed_files_are_flagged() {
        let dir = temp_dir("parse");
        let garbage = dir.join("0123456789abcdef.json");
        std::fs::write(&garbage, "{ not json").unwrap();
        let findings = analyze_baseline_file(&garbage);
        assert_eq!(findings[0].lint, "baseline-parse");

        let baseline = tiny_baseline();
        let misnamed = dir.join("fedcba9876543210.json");
        std::fs::write(&misnamed, baseline.to_json()).unwrap();
        let findings = analyze_baseline_file(&misnamed);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, "baseline-filename");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn directory_pass_reports_orphans_missing_and_skipped_non_baselines() {
        let dir = temp_dir("dir");
        let baseline = tiny_baseline();
        baseline.save(&dir).unwrap();
        // A non-address JSON file (like the committed throughput report)
        // is not linted as a baseline, but its skip is made visible.
        std::fs::write(dir.join("throughput.json"), "{}").unwrap();

        // Known set: one grid matching the saved file, one unrecorded.
        let known = vec![
            ("tiny".to_string(), baseline.address.clone()),
            ("unrecorded".to_string(), "00000000deadbeef".to_string()),
        ];
        let findings = analyze_baseline_dir(&dir, &known);
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].lint, "baseline-missing");
        assert!(findings[0].message.contains("00000000deadbeef"));
        assert_eq!(findings[1].lint, "baseline-skipped");
        assert_eq!(findings[1].severity, crate::Severity::Info);
        assert!(findings[1].message.contains("throughput"));

        // Drop the known entry: the saved file becomes an orphan.
        let findings = analyze_baseline_dir(&dir, &[]);
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].lint, "baseline-orphan");
        assert!(findings[0].message.contains(&baseline.address));
        assert_eq!(findings[1].lint, "baseline-skipped");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_an_io_error_finding() {
        let findings = analyze_baseline_dir(Path::new("/nonexistent/arsf-baselines"), &[]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, "baseline-io");
    }

    #[test]
    fn dead_tolerances_are_flagged_and_families_stay_alive() {
        let baseline = tiny_baseline();
        let config = DiffConfig::near_exact()
            .with_column("mean_width", Tolerance::new(1e-9, 0.0))
            .with_column("vehicle_mean_widths", Tolerance::new(1e-9, 0.0))
            .with_column("mean_widht", Tolerance::new(1e-9, 0.0));
        let findings = tolerance_findings(&config, &[&baseline]);
        // The open-loop tiny baseline has no vehicle columns, so both the
        // family and the typo are dead against it alone.
        let dead: Vec<&str> = findings
            .iter()
            .map(|f| f.message.split('`').nth(1).unwrap())
            .collect();
        assert_eq!(dead, vec!["vehicle_mean_widths", "mean_widht"]);
        assert!(findings.iter().all(|f| f.lint == "tolerance-dead"));
    }
}
