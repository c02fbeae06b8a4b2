//! Regression-baseline tool for sweep reports: record the golden grids'
//! reports content-addressed under a baseline directory, re-run and
//! check them cell by cell, or diff two stored baseline files.
//!
//! Run with: `cargo run --release -p arsf-bench --bin sweep_diff -- <cmd>`
//!
//! Subcommands:
//! * `record` — run the golden grid(s) and write
//!   `<dir>/<content-address>.json` for each (overwrites the grid's own
//!   file only; other addresses are untouched). Re-record after an
//!   *intentional* algorithm change. Refuses a grid that `arsf-analyze`
//!   flags with error-severity findings, one containing cells whose
//!   declared budget admits no static width bound (`--allow-unbounded`
//!   overrides), or one whose every corruptible cell is provably
//!   invisible to its detector — vacuous detection columns
//!   (`--allow-invisible` overrides; `table2-closed-loop` needs it,
//!   since its stealthy attacker provably never trips Marzullo's
//!   overlap check). Also refuses a freshly-run report whose recorded
//!   cells invert a cross-cell ordering the dominance pass proves
//!   (`--allow-disorder` overrides) — a disordered baseline would fail
//!   `sweep_lint dominance` forever after.
//! * `check` — run the golden grid(s) and diff each against its stored
//!   baseline, printing every drifted cell's grid index, column,
//!   baseline value and new value.
//! * `diff <a.json> <b.json>` — compare two baseline files directly.
//!
//! Exit codes (CI keys off them, so drift and breakage stay
//! distinguishable):
//! * `0` — clean: every compared cell within tolerance
//! * `1` — drift: at least one cell out of tolerance
//! * `2` — broken: usage error, unreadable/missing baseline, or I/O
//!   failure
//!
//! Options:
//! * `--grid name` — restrict record/check to one golden grid
//!   (`open-loop-48`, `table2-closed-loop`; default: all)
//! * `--dir path` — the baseline directory (default `baselines`)
//! * `--threads k` — threads running cells (default: available parallelism;
//!   the report is byte-identical at any thread count)
//! * `--tol col=abs[:rel],…` — per-column tolerances (column families
//!   may be named without an index, e.g. `vehicle_mean_widths=1e-9`).
//!   Columns without an entry use the near-exact default
//!   (abs/rel `1e-12`, absorbing last-ulp libm variation across
//!   platforms while failing any real drift)

use std::process::exit;

use arsf_analyze::{
    analyze_grid_guarantees, detection_vacuous, vet_baseline_dominance, AnalyzeGrid, Severity,
};
use arsf_bench::cli::{parse_tolerances, sweeper_from_args};
use arsf_bench::{arg_value, golden, has_flag};
use arsf_core::sweep::diff::{diff, DiffConfig, SweepDiff};
use arsf_core::sweep::store::{baseline_path, grid_address, Baseline, StoreError};
use arsf_core::sweep::{StreamingSweeper, SweepGrid};

fn fail(message: &str) -> ! {
    eprintln!("sweep_diff: {message}");
    exit(2);
}

fn diff_config() -> DiffConfig {
    // Near-exact default: absorbs last-ulp libm differences between the
    // recording and checking platforms, far below any real drift.
    let mut config = DiffConfig::near_exact();
    if let Some(spec) = arg_value("--tol") {
        for (column, tolerance) in
            parse_tolerances(&spec).unwrap_or_else(|e| fail(&format!("--tol: {e}")))
        {
            config = config.with_column(column, tolerance);
        }
    }
    config
}

fn grids() -> Vec<(&'static str, SweepGrid)> {
    match arg_value("--grid") {
        None => golden::all(),
        Some(name) => {
            let grid = golden::find(&name).unwrap_or_else(|| {
                let known: Vec<&str> = golden::all().iter().map(|(n, _)| *n).collect();
                fail(&format!(
                    "unknown golden grid `{name}` (known: {})",
                    known.join(", ")
                ))
            });
            let leaked: &'static str = Box::leak(name.into_boxed_str());
            vec![(leaked, grid)]
        }
    }
}

fn run_baseline(grid: &SweepGrid, sweeper: &StreamingSweeper) -> Baseline {
    Baseline::from_report(grid, &sweeper.run(grid))
}

fn record(dir: &str) {
    let sweeper = sweeper_from_args().unwrap_or_else(|e| fail(&e));
    for (name, grid) in grids() {
        // The same guard `scenario_sweep --baseline record` applies: a
        // grid with error-severity lint findings must not be frozen.
        let errors: Vec<_> = grid
            .analyze()
            .into_iter()
            .filter(|f| f.severity == Severity::Error)
            .collect();
        if !errors.is_empty() {
            for finding in &errors {
                eprintln!("{}", finding.render());
            }
            fail(&format!(
                "refusing to record {name}: the grid has error-severity lint findings"
            ));
        }
        // A cell whose declared budget admits no static width bound
        // records unfalsifiable numbers; freezing those as a baseline
        // needs an explicit opt-in.
        let unbounded: Vec<_> = analyze_grid_guarantees(&grid)
            .into_iter()
            .filter(|f| f.lint == "guarantee-unbounded")
            .collect();
        if !unbounded.is_empty() && !has_flag("--allow-unbounded") {
            for finding in &unbounded {
                eprintln!("{}", finding.render());
            }
            fail(&format!(
                "refusing to record {name}: {} cell(s) have no static width bound \
                 (pass --allow-unbounded to record anyway)",
                unbounded.len()
            ));
        }
        // A grid whose every corruptible cell is provably invisible to
        // its detector freezes tautological detection columns; that
        // needs an explicit opt-in too. (`table2-closed-loop` is the
        // canonical case: its stealth-clamped attacker provably never
        // trips Marzullo's overlap check — exactly the paper's point —
        // so re-recording it takes --allow-invisible.)
        if detection_vacuous(&grid) && !has_flag("--allow-invisible") {
            fail(&format!(
                "refusing to record {name}: every corruptible cell is provably invisible \
                 to its detector, so the detection columns are vacuous (run `sweep_lint \
                 detectability` for the per-cell verdicts; pass --allow-invisible to \
                 record anyway)"
            ));
        }
        let baseline = run_baseline(&grid, &sweeper);
        // The freshly-run numbers must respect every cross-cell ordering
        // the theory proves (Table II's schedule chain, the containment
        // and invisibility certificates): a baseline that freezes an
        // inverted pair would make the dominance vet fail forever after.
        let inversions = vet_baseline_dominance(
            &grid,
            &baseline,
            &arsf_analyze::Location::Grid {
                name: name.to_string(),
            },
        );
        if !inversions.is_empty() && !has_flag("--allow-disorder") {
            for finding in &inversions {
                eprintln!("{}", finding.render());
            }
            fail(&format!(
                "refusing to record {name}: {} recorded cell pair(s) invert a provable \
                 ordering (run `sweep_lint dominance` for the derived edges; pass \
                 --allow-disorder to record anyway)",
                inversions.len()
            ));
        }
        match baseline.save(dir) {
            Ok(path) => println!(
                "recorded {name}: {} cells -> {}",
                baseline.rows.len(),
                path.display()
            ),
            Err(e) => fail(&format!("recording {name}: {e}")),
        }
    }
}

fn check(dir: &str) {
    let sweeper = sweeper_from_args().unwrap_or_else(|e| fail(&e));
    let config = diff_config();
    // A missing or unreadable baseline is breakage (exit 2), not drift
    // (exit 1): CI must not mistake "nothing to compare against" for
    // "the numbers moved".
    let mut broken = false;
    let mut drifted = false;
    for (name, grid) in grids() {
        let stored = match Baseline::load_for_grid(dir, &grid) {
            Ok(stored) => stored,
            Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                eprintln!(
                    "{name}: no baseline at {} — run `sweep_diff record` first",
                    baseline_path(dir, &grid_address(&grid)).display()
                );
                broken = true;
                continue;
            }
            Err(e) => fail(&format!("loading {name}: {e}")),
        };
        let current = run_baseline(&grid, &sweeper);
        let result = diff(&stored, &current, &config);
        print!("{name}: {}", result.render());
        drifted |= !result.is_empty();
    }
    if broken {
        exit(2);
    }
    exit(i32::from(drifted));
}

fn diff_files(a: &str, b: &str) {
    let load =
        |path: &str| Baseline::load(path).unwrap_or_else(|e| fail(&format!("loading {path}: {e}")));
    let result: SweepDiff = diff(&load(a), &load(b), &diff_config());
    print!("{}", result.render());
    exit(i32::from(!result.is_empty()));
}

const USAGE: &str = "\
usage: sweep_diff <record|check|diff a.json b.json>
                  [--grid name] [--dir path] [--threads k]
                  [--tol col=abs[:rel],...] [--allow-unbounded]
                  [--allow-invisible] [--allow-disorder]

  record   run the golden grid(s), write <dir>/<content-address>.json
           (refuses grids with error-severity arsf-analyze findings,
            grids containing cells with no static width bound unless
            --allow-unbounded is passed, grids whose every corruptible
            cell is provably invisible to its detector unless
            --allow-invisible is passed — table2-closed-loop needs it —
            and runs whose recorded cells invert a provable cross-cell
            ordering unless --allow-disorder is passed)
  check    re-run the golden grid(s), diff against stored baselines
  diff     compare two baseline files directly

exit codes:
  0  clean  - every compared cell within tolerance
  1  drift  - at least one cell out of tolerance
  2  broken - usage error, missing/unreadable baseline, or I/O failure
";

fn main() {
    if has_flag("--help") || has_flag("-h") {
        print!("{USAGE}");
        exit(0);
    }
    let dir = arg_value("--dir").unwrap_or_else(|| "baselines".to_string());
    let positional: Vec<String> = {
        // Everything after the program name that is neither a flag nor a
        // flag's value.
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut positional = Vec::new();
        let mut skip = false;
        for arg in &args {
            if skip {
                skip = false;
            } else if arg == "--allow-unbounded"
                || arg == "--allow-invisible"
                || arg == "--allow-disorder"
            {
                // the boolean flags: take no value
            } else if arg.starts_with("--") {
                skip = true; // every other flag takes a value
            } else {
                positional.push(arg.clone());
            }
        }
        positional
    };
    match positional.first().map(String::as_str) {
        Some("record") => record(&dir),
        Some("check") => check(&dir),
        Some("diff") => match (positional.get(1), positional.get(2)) {
            (Some(a), Some(b)) => diff_files(a, b),
            _ => fail("diff wants two baseline files: sweep_diff diff a.json b.json"),
        },
        _ => {
            eprint!("{USAGE}");
            exit(2);
        }
    }
}
