//! End-to-end grid passes: one pass is the whole grid, run to a complete
//! report, timed from the first cell to the last row.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use arsf_core::sweep::{StreamingSweeper, SweepReport};

use crate::stats;
use crate::workloads::{Exec, Reference, Workload, DRIVE_WORKERS};

/// What one pass produced.
pub enum Output {
    /// An in-process pass's report.
    Report(SweepReport),
    /// A driven pass's merged CSV, with the peak resident set (MiB) of
    /// the `sweep_drive` process tree (the coordinator or its busiest
    /// worker).
    Csv { bytes: Vec<u8>, peak_rss_mb: f64 },
}

/// Runs one pass and returns its wall seconds and its output; nothing
/// is verified inside the timed region.
pub fn run_pass(workload: &Workload, bin_dir: &Path) -> (f64, Result<Output, String>) {
    let start = Instant::now();
    let output = match &workload.exec {
        Exec::InProcess => Ok(Output::Report(StreamingSweeper::new(1).run(&workload.grid))),
        Exec::Drive(args) => drive(bin_dir, args),
    };
    (start.elapsed().as_secs_f64(), output)
}

/// Verifies a pass's output against the reference.
pub fn check(
    workload: &Workload,
    reference: &Reference,
    output: &Result<Output, String>,
) -> Result<(), String> {
    match output {
        Ok(Output::Report(report)) => reference.check_report(&workload.grid, report),
        Ok(Output::Csv { bytes, .. }) => reference.check_csv(bytes),
        Err(e) => Err(e.clone()),
    }
}

/// Runs `sweep_drive` over the grid the arguments describe and returns
/// its merged CSV (stdout). Stderr is drained on a second thread so a
/// chatty child cannot block on a full pipe.
fn drive(bin_dir: &Path, grid_args: &[String]) -> Result<Output, String> {
    let exe = bin_dir.join("sweep_drive");
    let mut child = Command::new(&exe)
        .args(grid_args)
        .args(["--workers", &DRIVE_WORKERS.to_string(), "--csv", "-"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let mut stderr = child.stderr.take().expect("stderr is piped");
    let (csv, diagnostics) = std::thread::scope(|scope| {
        let errors = scope.spawn(move || {
            let mut text = String::new();
            let _ = stderr.read_to_string(&mut text);
            text
        });
        let mut csv = Vec::new();
        let read = stdout.read_to_end(&mut csv);
        let text = errors.join().unwrap_or_default();
        (read.map(|_| csv), text)
    });
    let (status, peak_rss_mb) = stats::wait_with_peak_rss(&child)
        .map_err(|e| format!("cannot wait for sweep_drive: {e}"))?;
    let bytes = csv.map_err(|e| format!("cannot read sweep_drive output: {e}"))?;
    if status.success() {
        Ok(Output::Csv { bytes, peak_rss_mb })
    } else {
        Err(format!(
            "sweep_drive failed ({status}): {}",
            diagnostics.trim()
        ))
    }
}
