//! Scenario sweeps through the grid engine: either every named registry
//! preset, or an ad-hoc cartesian grid described on the command line —
//! run across threads either way, with the row order (and the
//! emitted bytes) identical to a serial run.
//!
//! Run with: `cargo run --release -p arsf-bench --bin scenario_sweep`
//!
//! Preset mode (default): sweeps the whole named-scenario registry.
//!
//! Grid mode (enabled by any axis flag): builds a `SweepGrid` around a
//! LandShark base scenario with a stealthy attacker on sensor 0 and
//! sweeps the cartesian product of the given axes.
//!
//! Options:
//! * `--fusers a,b,…` — fuser axis (`marzullo`, `brooks-iyengar`,
//!   `intersection`, `hull`, `inverse-variance`, `midpoint-median`,
//!   `historical[:max_rate:dt]`)
//! * `--detectors a,b,…` — detector axis (`off`, `immediate`,
//!   `windowed:window:tolerance`)
//! * `--schedules a,b,…` — schedule axis (`ascending`, `descending`,
//!   `random`)
//! * `--history r1,r2,…` — sweep the Historical defence's `max_rate`
//!   bound: appends `historical:r:0.1` entries to the fuser axis
//! * `--seeds 1,2,…` — seed axis (replicates; per-cell seeds derived)
//! * `--suite landshark | widths:5,11,17` — sensor suite (grid mode)
//! * `--fault sensor:kind[:param]:prob` — inject one fault into every
//!   cell's base scenario (e.g. `2:bias:3:0.25`, `3:silent:0.5`); works
//!   open- and closed-loop
//! * `--strategy name` — run a fixed attacker on sensor 0 with this
//!   strategy (`phantom-optimal`, `greedy-high`, `greedy-low`,
//!   `truthful`) instead of the mode's default attacker
//! * `--honest` — drop the grid base scenario's attacker (switches to
//!   grid mode like the axis flags)
//! * `--f n` — the fusion fault assumption for every cell (grid mode;
//!   default 1); `sweep_lint grid` flags combinations whose suite
//!   violates the `n > 2f` soundness bound
//! * `--golden name` — run a committed golden grid (`open-loop-48`,
//!   `table2-closed-loop`) instead of describing axes by hand; rejects
//!   every other grid-shaping flag so the grid's content address is
//!   exactly the committed one (`--cells`, `--stream`, `--baseline` and
//!   the output flags still apply)
//! * `--cells a..b` — run only the grid cells in the half-open range
//!   `a..b` (grid order); rows keep their grid indices and derived
//!   seeds, so shards from different processes concatenate into the
//!   full report
//! * `--stream` — grid mode only: instead of a table/CSV/JSON report,
//!   write the framed worker protocol `sweep_drive` consumes to stdout
//!   (a versioned `shard` header carrying the grid's content address
//!   and cell range, one `row index seed csv` frame per finished cell
//!   in grid order, and a terminal `end rows= checksum=` frame). Rows
//!   stream as cells finish through the bounded-memory
//!   `StreamingSweeper`, so arbitrarily large shards run in constant
//!   space; incompatible with `--csv`, `--json` and `--baseline`
//! * `--stream-fail-after k` — test instrumentation for the
//!   coordinator's retry path: exit with code 7 (simulating a worker
//!   crash) after emitting `k` row frames
//! * `--closed-loop` — drive each cell through the LandShark vehicle
//!   control loop (Table II style: one uniformly-random compromised
//!   sensor per round unless `--honest`); adds the supervisor columns
//!   (`above_rate`, `below_rate`, `preemptions`, `min_gap`)
//! * `--target v` — closed-loop target speed in mph (default 10;
//!   implies `--closed-loop`)
//! * `--deltas d | up:down` — closed-loop envelope half-widths
//!   (default 0.5:0.5; implies `--closed-loop`)
//! * `--platoon size[:gap]` — closed-loop platoon instead of a single
//!   vehicle (gap in miles, default 0.01; implies `--closed-loop`)
//! * `--rounds n` — rounds per cell (or per preset)
//! * `--threads k` — threads running cells (default: available parallelism)
//! * `--csv path|-` / `--json path|-` — emit the report (`-` = stdout)
//! * `--no-header` — omit the CSV header line, so `--cells` shard
//!   outputs concatenate into the full sweep's CSV verbatim
//! * `--baseline record|check` — grid mode only (and incompatible with
//!   `--cells`): persist the report content-addressed under the
//!   baseline directory, or diff it against the stored baseline and
//!   exit 1 on drift; `check` honours `--tol col=abs[:rel],…` on top of
//!   the near-exact default (see the `sweep_diff` binary for the
//!   golden-grid workflow and the full tolerance semantics). `record`
//!   refuses to freeze a grid that `arsf-analyze` flags with
//!   error-severity findings — run `sweep_lint grid` with the same
//!   flags to see them ahead of time — a grid containing cells with
//!   no static width bound, unless `--allow-unbounded` is passed (run
//!   `sweep_lint guarantees` for the per-cell verdicts), and a grid
//!   whose every corruptible cell is provably invisible to its
//!   detector, unless `--allow-invisible` is passed (run `sweep_lint
//!   detectability` for the per-cell verdicts), and a freshly-run
//!   report whose recorded cells invert a cross-cell ordering the
//!   dominance pass proves, unless `--allow-disorder` is passed (run
//!   `sweep_lint dominance` for the derived edges)
//! * `--baseline-dir path` — the baseline directory (default
//!   `baselines`)

use std::io::Write;
use std::process::exit;

use arsf_bench::cli::{self, grid_from_args, grid_mode_requested, parse_cells, sweeper_from_args};
use arsf_bench::drive::{Fnv64, Frame};
use arsf_bench::{arg_value, baseline_ops, has_flag, TextTable};
use arsf_core::scenario::registry;
use arsf_core::sweep::store::{grid_address, Baseline};
use arsf_core::sweep::{StreamingSweeper, SweepGrid, SweepReport};

fn fail(message: &str) -> ! {
    eprintln!("scenario_sweep: {message}");
    exit(2);
}

fn parsed<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| fail(&e))
}

/// `--stream`: emit the framed worker protocol instead of a report.
/// Row frames stream as cells finish (stdout is line-buffered), so a
/// `sweep_drive` coordinator sees live progress and the shard runs in
/// constant memory whatever its size.
fn stream_mode(sweeper: &StreamingSweeper) -> ! {
    if !grid_mode_requested() {
        fail("--stream needs grid mode (pass at least one axis flag or --golden)");
    }
    for flag in ["--csv", "--json", "--baseline"] {
        if arg_value(flag).is_some() {
            fail(&format!("--stream emits protocol frames; drop {flag}"));
        }
    }
    let grid = parsed(grid_from_args());
    if let Err(e) = grid.base().validate() {
        fail(&format!("invalid scenario: {e}"));
    }
    let cells = match arg_value("--cells") {
        Some(spec) => {
            let cells = parsed(parse_cells(&spec));
            if cells.end > grid.len() {
                fail(&format!(
                    "--cells {}..{} exceeds the {}-cell grid",
                    cells.start,
                    cells.end,
                    grid.len()
                ));
            }
            cells
        }
        None => 0..grid.len(),
    };
    let fail_after: Option<usize> = arg_value("--stream-fail-after").map(|spec| {
        parsed(
            spec.parse()
                .map_err(|_| format!("--stream-fail-after wants a row count, got `{spec}`")),
        )
    });

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let header = Frame::Header {
        grid: grid_address(&grid),
        cells: cells.clone(),
    };
    if writeln!(out, "{}", header.render()).is_err() {
        exit(1); // Coordinator hung up; nothing useful left to do.
    }
    let mut hash = Fnv64::default();
    let mut emitted = 0usize;
    let result = sweeper.try_stream_range(&grid, cells, |row| {
        let csv = row.to_csv_line();
        hash.update(csv.as_bytes());
        hash.update(b"\n");
        let frame = Frame::Row {
            index: row.cell,
            seed: row.seed,
            csv,
        };
        writeln!(out, "{}", frame.render())?;
        emitted += 1;
        if fail_after == Some(emitted) {
            let _ = out.flush();
            exit(7);
        }
        Ok::<(), std::io::Error>(())
    });
    if result.is_err() {
        exit(1); // Broken pipe mid-stream: the coordinator already knows.
    }
    let end = Frame::End {
        rows: emitted,
        checksum: hash.finish(),
    };
    if writeln!(out, "{}", end.render()).is_err() {
        exit(1);
    }
    exit(0);
}

fn main() {
    let rounds_override: Option<u64> = arg_value("--rounds").and_then(|s| s.parse().ok());
    let sweeper = parsed(sweeper_from_args());

    if has_flag("--stream") {
        stream_mode(&sweeper);
    }

    // Any grid-shaping flag (including --honest and the closed-loop
    // family, which only make sense for the grid's base scenario)
    // switches from preset to grid mode; the closed-loop parameter flags
    // imply --closed-loop so they are never silently ignored.
    let grid_mode = grid_mode_requested();

    let baseline_mode = arg_value("--baseline");
    if let Some(mode) = &baseline_mode {
        if !grid_mode {
            fail("--baseline needs grid mode (pass at least one axis flag)");
        }
        if arg_value("--cells").is_some() {
            fail("--baseline compares whole grids; drop --cells");
        }
        if !matches!(mode.as_str(), "record" | "check") {
            fail("--baseline wants `record` or `check`");
        }
    }

    let mut baseline_grid: Option<SweepGrid> = None;
    let report = if grid_mode {
        // One shared construction with `sweep_lint grid` (see
        // `arsf_bench::cli::grid_from_args`), so what the linter analyzes
        // is exactly what this binary runs.
        let grid = parsed(grid_from_args());
        // Reject impossible combinations (out-of-range fault sensor,
        // degenerate platoon, …) as a CLI error instead of letting
        // ScenarioRunner panic inside a sweep worker. Only the CLI's
        // base-scenario flags affect validity — the axis flags vary
        // fusers/detectors/schedules/seeds, which are always valid.
        if let Err(e) = grid.base().validate() {
            fail(&format!("invalid scenario: {e}"));
        }
        if baseline_mode.is_some() {
            baseline_grid = Some(grid.clone());
        }
        match arg_value("--cells") {
            Some(spec) => {
                let cells = parsed(parse_cells(&spec));
                if cells.end > grid.len() {
                    fail(&format!(
                        "--cells {}..{} exceeds the {}-cell grid",
                        cells.start,
                        cells.end,
                        grid.len()
                    ));
                }
                println!(
                    "Grid sweep: cells {}..{} of {} on {} worker thread(s)\n",
                    cells.start,
                    cells.end,
                    grid.len(),
                    sweeper.threads()
                );
                sweeper.run_range(&grid, cells)
            }
            None => {
                println!(
                    "Grid sweep: {} cells on {} worker thread(s)\n",
                    grid.len(),
                    sweeper.threads()
                );
                sweeper.run(&grid)
            }
        }
    } else {
        let mut presets = registry();
        if let Some(rounds) = rounds_override {
            for preset in &mut presets {
                preset.rounds = rounds;
            }
        }
        println!(
            "Scenario sweep: {} registry presets on {} worker thread(s)\n",
            presets.len(),
            sweeper.threads()
        );
        sweeper.run_scenarios(&presets)
    };

    print_table(&report);
    if has_flag("--no-header") {
        emit(&report, "--csv", SweepReport::to_csv_body);
    } else {
        emit(&report, "--csv", SweepReport::to_csv);
    }
    emit(&report, "--json", SweepReport::to_json);

    if let (Some(mode), Some(grid)) = (&baseline_mode, &baseline_grid) {
        // The recording vetoes and check tolerances live in
        // `arsf_bench::baseline_ops`, shared verbatim with `sweep_drive`
        // and `sweep_diff`, so every recording path freezes or vets a
        // grid under identical rules.
        let dir = arg_value("--baseline-dir").unwrap_or_else(|| "baselines".to_string());
        let current = Baseline::from_report(grid, &report);
        match mode.as_str() {
            "record" => {
                match baseline_ops::record(grid, &current, &dir, cli::overrides_from_args()) {
                    Ok(path) => println!("recorded baseline {}", path.display()),
                    Err(e) => fail(&e),
                }
            }
            _ => {
                let config = parsed(cli::diff_config_from_args());
                let (rendered, drifted) =
                    parsed(baseline_ops::check(grid, &current, &dir, &config));
                print!("{rendered}");
                if drifted {
                    exit(1);
                }
            }
        }
    }

    if !grid_mode {
        println!("Marzullo/Brooks–Iyengar keep the truth under attack (fa <= f);");
        println!("the inverse-variance baseline does not; historical fusion");
        println!("tightens the descending-schedule attack; the windowed detector");
        println!("condemns the transiently-faulty GPS without false positives.");
    }
}

fn print_table(report: &SweepReport) {
    let closed_loop = report.rows().iter().any(|r| r.summary.supervisor.is_some());
    let mut header = vec![
        "cell".into(),
        "scenario".into(),
        "fuser".into(),
        "detector".into(),
        "schedule".into(),
        "rounds".into(),
        "mean width".into(),
        "truth lost".into(),
        "fusion fail".into(),
        "flag rounds".into(),
        "condemned".into(),
    ];
    let platoon = report.rows().iter().any(|r| !r.summary.vehicles.is_empty());
    if closed_loop {
        header.extend([
            "above".into(),
            "below".into(),
            "preempts".into(),
            "min gap".into(),
        ]);
    }
    if platoon {
        header.push("veh widths".into());
    }
    let mut table = TextTable::new(header);
    for row in report.rows() {
        let s = &row.summary;
        let mut cells = vec![
            format!("{}", row.cell),
            s.scenario.clone(),
            s.fuser.clone(),
            s.detector.clone(),
            row.schedule.clone(),
            format!("{}", s.rounds),
            format!("{:.3}", s.widths.mean()),
            format!("{}", s.truth_lost),
            format!("{}", s.fusion_failures),
            format!("{}", s.flagged_rounds),
            format!("{:?}", s.condemned),
        ];
        if closed_loop {
            match &s.supervisor {
                Some(sup) => cells.extend([
                    format!("{:.2}%", sup.above_rate * 100.0),
                    format!("{:.2}%", sup.below_rate * 100.0),
                    format!("{}", sup.preemptions),
                    sup.min_gap.map_or(String::new(), |g| format!("{g:.4}")),
                ]),
                None => cells.extend([String::new(), String::new(), String::new(), String::new()]),
            }
        }
        if platoon {
            let means: Vec<String> = s
                .vehicles
                .iter()
                .map(|v| format!("{:.3}", v.widths.mean()))
                .collect();
            cells.push(means.join("|"));
        }
        table.row(cells);
    }
    println!("{}", table.render());
}

/// Writes a rendering of the report to the path given by `flag` (`-`
/// streams to stdout).
fn emit(report: &SweepReport, flag: &str, render: fn(&SweepReport) -> String) {
    if let Some(target) = arg_value(flag) {
        let payload = render(report);
        if target == "-" {
            print!("{payload}");
        } else if let Err(err) = std::fs::write(&target, &payload) {
            fail(&format!("cannot write {target}: {err}"));
        } else {
            println!("wrote {target}");
        }
    }
}
