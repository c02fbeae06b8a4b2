//! Static lint runner over the experiment-definition layers: registry
//! presets, command-line sweep grids, and the committed golden
//! baselines — the CLI face of `arsf-analyze`.
//!
//! Run with: `cargo run --release -p arsf-bench --bin sweep_lint -- <cmd>`
//!
//! Subcommands:
//! * `presets` — lint every scenario in the registry. Clean on the
//!   committed registry; a preset that violates `n > 2f`, exceeds the
//!   corruption budget, or fails `Scenario::validate` fails the run.
//! * `grid` — lint the sweep grid described by the same flags
//!   `scenario_sweep` takes (`--fusers`, `--detectors`, `--schedules`,
//!   `--seeds`, `--history`, `--suite`, `--fault`, `--strategy`,
//!   `--honest`, `--f`, `--rounds`, and the closed-loop family
//!   `--closed-loop`/`--target`/`--deltas`/`--platoon`). The grid is
//!   built by the exact construction `scenario_sweep` runs, so a clean
//!   lint here means the sweep is statically sound.
//! * `baselines` — lint the baseline directory against the golden
//!   grids: recomputed content addresses, filename/address agreement,
//!   orphaned files, missing recordings; with `--tol col=abs[:rel],…`
//!   also flags tolerance entries that match no column in any stored
//!   baseline.
//! * `guarantees` — statically derive every golden-grid cell's
//!   worst-case fusion guarantees (bound regime, Theorem-2 width bound,
//!   truth-containment provability) without running a single simulation
//!   round, then vet each stored baseline's width and truth-loss
//!   columns against them — a soundness oracle: a recorded cell that
//!   violates a theorem is a `guarantee-violation` error.
//! * `detectability` — statically classify every golden-grid cell's
//!   attacker × fault set × detector into a detection verdict (provably
//!   invisible, provably flagged, or contingent), again without running
//!   a round, then vet each stored baseline's `flagged_rounds` and
//!   condemnation columns against the verdicts: a recorded cell that
//!   contradicts one is a `detect-violation` error.
//! * `dominance` — statically derive the partial order over each golden
//!   grid's cells (Table II's schedule chain, containment/invisibility
//!   certificates, the width-bound lattice — no simulation), then vet
//!   each stored baseline's metrics against every provable edge: two
//!   cells recorded in the wrong order is an `order-violation` error
//!   even when both sit inside their per-cell tolerances.
//! * `all` — run every pass above (except `grid`, which needs flags) in
//!   one invocation: per-pass section headers in text mode, a `pass`
//!   field in `--json`, and the max exit code across passes.
//!
//! Options:
//! * `--json` — emit findings as a JSON array instead of text; every
//!   object carries `"schema": 1` and its `"pass"` name
//! * `--dir path` — the baseline directory (`baselines`, `guarantees`,
//!   `detectability`, `dominance` and `all` subcommands; default
//!   `baselines`)
//! * `--tol col=abs[:rel],…` — check-harness tolerances to vet
//!   (`baselines` subcommand only)
//!
//! Exit codes: `0` clean (info findings allowed), `1` warnings, `2`
//! errors. `scenario_sweep --baseline record` and `sweep_diff record`
//! enforce the error tier automatically before freezing a baseline.

use std::path::Path;
use std::process::exit;

use arsf_analyze::{
    analyze_baseline_dir, analyze_grid_detectability, analyze_grid_dominance,
    analyze_grid_guarantees, analyze_scenario, exit_code, render, render_json_passes,
    render_passes, tolerance_findings, vet_baseline_detectability, vet_baseline_dominance,
    vet_baseline_guarantees, AnalyzeGrid, Finding, Location, Severity,
};
use arsf_bench::cli::{diff_config_from_args, grid_from_args};
use arsf_bench::{arg_value, golden, has_flag};
use arsf_core::scenario::registry;
use arsf_core::sweep::store::{baseline_path, grid_address, Baseline};

const USAGE: &str = "\
usage: sweep_lint <presets|grid|baselines|guarantees|detectability|dominance|all>
                  [--json]

  presets     lint every registry preset
  grid        lint the sweep grid described by scenario_sweep's flags
              (--fusers, --detectors, --schedules, --seeds, --history,
               --suite, --fault, --strategy, --honest, --f, --rounds,
               --closed-loop, --target, --deltas, --platoon)
  baselines   lint the baseline directory against the golden grids
              [--dir path] [--tol col=abs[:rel],...]
  guarantees  derive every golden-grid cell's static fusion guarantees
              (no simulation) and vet the stored baselines against them
              [--dir path]
  detectability
              derive every golden-grid cell's static detection verdict
              (provably invisible / provably flagged / contingent, no
              simulation) and vet the stored baselines' flagged_rounds
              and condemnation columns against them [--dir path]
  dominance   derive the provable cross-cell orderings of each golden
              grid (schedule chain, certificates, width-bound lattice,
              no simulation) and vet the stored baselines against every
              provable edge [--dir path]
  all         presets + baselines + guarantees + detectability +
              dominance in one pass, with per-pass headers (text) or a
              \"pass\" field (--json) and the max exit code [--dir path]

exit codes:
  0  clean    - no findings above info severity
  1  warnings - degenerate but runnable definitions
  2  errors   - unsound or rejected definitions (record refuses these)
";

fn fail(message: &str) -> ! {
    eprintln!("sweep_lint: {message}");
    exit(2);
}

/// Prints one pass's findings (text or `--json`; JSON objects carry
/// `"schema": 1` and the pass name) and exits with the lint convention:
/// 2 on errors, 1 on warnings, 0 otherwise.
fn emit(pass: &str, findings: Vec<Finding>) -> ! {
    let code = exit_code(&findings);
    if has_flag("--json") {
        print!("{}", render_json_passes(&[(pass, findings)]));
    } else {
        print!("{}", render(&findings));
    }
    exit(code);
}

fn presets() -> Vec<Finding> {
    let mut findings = Vec::new();
    for preset in registry() {
        findings.extend(analyze_scenario(&preset));
    }
    findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
    findings
}

fn grid() -> Vec<Finding> {
    let grid = grid_from_args().unwrap_or_else(|e| fail(&e));
    grid.analyze()
}

fn baselines() -> Vec<Finding> {
    let dir = arg_value("--dir").unwrap_or_else(|| "baselines".to_string());
    let known: Vec<(String, String)> = golden::all()
        .iter()
        .map(|(name, grid)| (name.to_string(), grid_address(grid)))
        .collect();
    let mut findings = analyze_baseline_dir(Path::new(&dir), &known);
    let config = diff_config_from_args().unwrap_or_else(|e| fail(&e));
    if !config.column_entries().is_empty() {
        // Vet the tolerances against every stored golden baseline at
        // once: one check-harness configuration applies to all grids, so
        // a family only present closed-loop is alive, not dead.
        let stored: Vec<Baseline> = known
            .iter()
            .filter_map(|(_, address)| Baseline::load(baseline_path(&dir, address)).ok())
            .collect();
        let refs: Vec<&Baseline> = stored.iter().collect();
        findings.extend(tolerance_findings(&config, &refs));
        findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
    }
    findings
}

/// Shared shape of the golden-grid static passes: run a static analysis
/// over each golden grid (prefixing messages with the grid name), then
/// vet its stored baseline, warning when there is nothing to vet.
fn golden_pass(
    what: &str,
    analyze: impl Fn(&arsf_core::sweep::SweepGrid) -> Vec<Finding>,
    vet: impl Fn(&arsf_core::sweep::SweepGrid, &Baseline, &Location) -> Vec<Finding>,
) -> Vec<Finding> {
    let dir = arg_value("--dir").unwrap_or_else(|| "baselines".to_string());
    let mut findings = Vec::new();
    for (name, grid) in golden::all() {
        // Static pass: no simulation rounds. The cell(-pair) location is
        // kept; the message is prefixed with the grid so two grids'
        // indices stay distinguishable.
        for mut finding in analyze(&grid) {
            finding.message = format!("golden grid `{name}`: {}", finding.message);
            findings.push(finding);
        }
        // Vetting pass: every stored record must respect the statics.
        let address = grid_address(&grid);
        let path = baseline_path(&dir, &address);
        match Baseline::load(&path) {
            Ok(baseline) => findings.extend(vet(&grid, &baseline, &Location::File { path })),
            Err(_) => findings.push(Finding {
                lint: "baseline-missing",
                severity: Severity::Warn,
                location: Location::Grid {
                    name: name.to_string(),
                },
                message: format!(
                    "no stored baseline {address}.json in {dir} to vet against the static \
                     {what}"
                ),
            }),
        }
    }
    findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
    findings
}

fn guarantees() -> Vec<Finding> {
    golden_pass(
        "guarantees",
        analyze_grid_guarantees,
        vet_baseline_guarantees,
    )
}

fn detectability() -> Vec<Finding> {
    golden_pass(
        "detectability verdicts",
        analyze_grid_detectability,
        vet_baseline_detectability,
    )
}

fn dominance() -> Vec<Finding> {
    golden_pass(
        "dominance orderings",
        analyze_grid_dominance,
        vet_baseline_dominance,
    )
}

fn all() -> ! {
    let passes = vec![
        ("presets", presets()),
        ("baselines", baselines()),
        ("guarantees", guarantees()),
        ("detectability", detectability()),
        ("dominance", dominance()),
    ];
    // Max-of exit codes == the lint convention over the merged set.
    let code = passes
        .iter()
        .map(|(_, findings)| exit_code(findings))
        .max()
        .unwrap_or(0);
    if has_flag("--json") {
        print!("{}", render_json_passes(&passes));
    } else {
        print!("{}", render_passes(&passes));
    }
    exit(code);
}

fn main() {
    if has_flag("--help") || has_flag("-h") {
        print!("{USAGE}");
        exit(0);
    }
    match std::env::args().nth(1).as_deref() {
        Some("presets") => emit("presets", presets()),
        Some("grid") => emit("grid", grid()),
        Some("baselines") => emit("baselines", baselines()),
        Some("guarantees") => emit("guarantees", guarantees()),
        Some("detectability") => emit("detectability", detectability()),
        Some("dominance") => emit("dominance", dominance()),
        Some("all") => all(),
        _ => {
            eprint!("{USAGE}");
            exit(2);
        }
    }
}
