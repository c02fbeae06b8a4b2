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
//!   `sweep_lint dominance` forever after. These are the vetoes of
//!   `arsf_bench::baseline_ops`, the same ones `scenario_sweep
//!   --baseline record` and `sweep_drive --baseline record` apply.
//! * `check` — run the golden grid(s) and diff each against its stored
//!   baseline (through `arsf_bench::baseline_ops`, so the stored file's
//!   content address is verified first), printing every drifted cell's
//!   grid index, column, baseline value and new value.
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

use arsf_bench::cli::{diff_config_from_args, overrides_from_args, sweeper_from_args};
use arsf_bench::{arg_value, baseline_ops, golden, has_flag};
use arsf_core::sweep::diff::{diff, SweepDiff};
use arsf_core::sweep::store::Baseline;
use arsf_core::sweep::{StreamingSweeper, SweepGrid};

fn fail(message: &str) -> ! {
    eprintln!("sweep_diff: {message}");
    exit(2);
}

fn grids() -> Vec<(&'static str, SweepGrid)> {
    let wanted = arg_value("--grid");
    let mut grids = golden::all();
    grids.retain(|(name, _)| wanted.as_deref().is_none_or(|w| w == *name));
    if grids.is_empty() {
        let known: Vec<&str> = golden::all().iter().map(|(n, _)| *n).collect();
        let name = wanted.unwrap_or_default();
        fail(&format!(
            "unknown golden grid `{name}` (known: {})",
            known.join(", ")
        ));
    }
    grids
}

fn run_baseline(grid: &SweepGrid, sweeper: &StreamingSweeper) -> Baseline {
    Baseline::from_report(grid, &sweeper.run(grid))
}

fn record(dir: &str) {
    let sweeper = sweeper_from_args().unwrap_or_else(|e| fail(&e));
    for (name, grid) in grids() {
        let baseline = run_baseline(&grid, &sweeper);
        match baseline_ops::record(&grid, &baseline, dir, overrides_from_args()) {
            Ok(path) => println!(
                "recorded {name}: {} cells -> {}",
                baseline.rows.len(),
                path.display()
            ),
            Err(e) => fail(&format!("{name}: {e}")),
        }
    }
}

fn check(dir: &str) {
    let sweeper = sweeper_from_args().unwrap_or_else(|e| fail(&e));
    let config = diff_config_from_args().unwrap_or_else(|e| fail(&e));
    // A missing, unreadable or tampered baseline is breakage (exit 2),
    // not drift (exit 1): CI must not mistake "nothing to compare
    // against" for "the numbers moved".
    let mut broken = false;
    let mut drifted = false;
    for (name, grid) in grids() {
        let current = run_baseline(&grid, &sweeper);
        match baseline_ops::check(&grid, &current, dir, &config) {
            Ok((rendered, drift)) => {
                print!("{name}: {rendered}");
                drifted |= drift;
            }
            Err(e) => {
                eprintln!("{name}: {e} (`sweep_diff record` writes it)");
                broken = true;
            }
        }
    }
    if broken {
        exit(2);
    }
    exit(i32::from(drifted));
}

fn diff_files(a: &str, b: &str) {
    let load =
        |path: &str| Baseline::load(path).unwrap_or_else(|e| fail(&format!("loading {path}: {e}")));
    let config = diff_config_from_args().unwrap_or_else(|e| fail(&e));
    let result: SweepDiff = diff(&load(a), &load(b), &config);
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
