//! Host-side measurements: memory, scheduler wait, a fixed calibration
//! kernel and the order statistics the benchmark reports.

use std::hint::black_box;
use std::time::Instant;

use modm_simkit::SimRng;

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in bytes.
pub fn status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: u64 = line[field.len()..]
        .trim_start_matches(':')
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024)
}

/// Nanoseconds this thread has waited on a run queue
/// (`/proc/thread-self/schedstat`, second field).
pub fn runqueue_wait_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().nth(1)?.parse().ok()
}

const CALIB_ROWS: usize = 10_000;
const CALIB_DIM: usize = 64;
const CALIB_SCANS: usize = 7;

/// A fixed exact flat scan (10k × 64, seeded) that runs the same
/// instructions on every commit, so a slow run can be told apart from
/// slow code.
pub struct Calibration {
    rows: Vec<f64>,
    query: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Self {
        let mut rng = SimRng::seed_from(0xCA1B);
        let rows = (0..CALIB_ROWS * CALIB_DIM)
            .map(|_| rng.uniform_in(-1.0, 1.0))
            .collect();
        let query = (0..CALIB_DIM).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        Calibration { rows, query }
    }

    /// Median nanoseconds of one full scan.
    pub fn scan_ns(&self) -> f64 {
        let samples: Vec<f64> = (0..CALIB_SCANS)
            .map(|_| {
                let start = Instant::now();
                black_box(self.best_row(black_box(&self.query)));
                start.elapsed().as_nanos() as f64
            })
            .collect();
        median(&samples)
    }

    fn best_row(&self, query: &[f64]) -> usize {
        let mut best = (f64::NEG_INFINITY, 0);
        for (i, row) in self.rows.chunks_exact(CALIB_DIM).enumerate() {
            let dot: f64 = row.iter().zip(query).map(|(a, b)| a * b).sum();
            if dot > best.0 {
                best = (dot, i);
            }
        }
        best.1
    }
}

/// The median of `values` (the mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
    }

    #[test]
    fn proc_fields_parse() {
        assert!(status_bytes("VmHWM").expect("VmHWM is reported") > 0);
        assert!(runqueue_wait_ns().is_some());
    }
}
