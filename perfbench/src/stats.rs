//! Order statistics, process memory and the JSON result line.

use std::fmt::Write as _;
use std::io;
use std::os::unix::process::ExitStatusExt;
use std::process::{Child, ExitStatus};

/// The `q`-quantile (0 ≤ q ≤ 1) of a sample by linear interpolation
/// between order statistics; `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of a sample without its `trim` share (0 ≤ trim < 0.5) of
/// lowest and of highest values; `NaN` for an empty sample.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (trim * sorted.len() as f64) as usize;
    let kept = &sorted[cut..sorted.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// `VmHWM` of this process in MiB: its peak resident set.
pub fn self_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage` on 64-bit targets: two timevals, then 14 longs
/// starting with `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

/// Reaps `child` and returns its exit status with the peak resident set
/// (MiB) of the child and of every descendant it waited for. (Linux
/// fills `wait4`'s usage from the child and its reaped children, so for
/// `sweep_drive` this is the coordinator or its busiest worker.) The
/// child must not have been waited for already.
pub fn wait_with_peak_rss(child: &Child) -> io::Result<(ExitStatus, f64)> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    let mut status = 0i32;
    loop {
        // SAFETY: `status` and `usage` are live, writable values; `usage`
        // is laid out as the C `struct rusage` of 64-bit Linux. `wait4`
        // fills both and retains neither.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            return Ok((ExitStatus::from_raw(status), usage.maxrss as f64 / 1024.0));
        }
        let error = io::Error::last_os_error();
        if error.kind() != io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Renders a float as JSON (non-finite values become `null`).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}`
pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_numpy_linear() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let v = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -50.0];
        assert_eq!(trimmed_mean(&v, 0.1), 4.5);
        assert_eq!(trimmed_mean(&v[1..9], 0.0), 4.5);
        assert!(trimmed_mean(&[], 0.1).is_nan());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(true, 3, 0, &[metric("x_ms", 1.5, "ms")]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"x_ms": {"value": 1.5, "unit": "ms"}}}"#
        );
    }

    #[test]
    // `wait_with_peak_rss` reaps the child; the lint cannot see it.
    #[allow(clippy::zombie_processes)]
    fn peak_rss_is_readable() {
        assert!(self_peak_rss_mb() > 0.0);
        let child = std::process::Command::new("true").spawn().unwrap();
        let (status, rss) = wait_with_peak_rss(&child).unwrap();
        assert!(status.success());
        assert!(rss > 0.0);
    }
}
