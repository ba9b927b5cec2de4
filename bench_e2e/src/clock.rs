//! Machine-speed calibration for CPU-bound timings.
//!
//! The machines this benchmark runs on are shared, and the host's load
//! changes how fast the CPU runs by up to about 1.6× for minutes at a time,
//! for all code alike; no statistic taken inside one run can remove a
//! slowdown that lasts the whole run. So every CPU-bound operation is
//! preceded by a short, fixed integer loop owned by the benchmark, and the
//! operation's wall time is scaled by [`REFERENCE_MS`] over the median loop
//! time of the operations around it. A scaled time is the time the
//! operation would take with the machine at the reference speed. Product
//! code cannot change the loop, so a faster program still shows as faster.

use std::time::Instant;

use crate::catalog::Rng;

/// Iterations of the calibration loop (about 2 ms).
const ITERATIONS: u32 = 1 << 20;

/// The calibration loop's time on the reference machine (the 2-core Xeon
/// the benchmark's bounds were measured on), in milliseconds.
pub const REFERENCE_MS: f64 = 1.8;

/// Operations on each side whose calibrations a scale factor takes the
/// median of.
const HALF_WINDOW: usize = 4;

/// Times the calibration loop once, in milliseconds.
pub fn calibrate() -> f64 {
    let t0 = Instant::now();
    let mut rng = Rng::new(0x0C10_C4ED);
    let mut acc = 0u64;
    for _ in 0..ITERATIONS {
        acc = acc.wrapping_add(rng.next_u64());
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Scales each time in `ms` by [`REFERENCE_MS`] over the median of the
/// calibrations taken around it; `cal[i]` was taken just before `ms[i]`.
pub fn scale(ms: &[f64], cal: &[f64]) -> Vec<f64> {
    assert_eq!(ms.len(), cal.len(), "one calibration per timing");
    (0..ms.len())
        .map(|i| {
            let lo = i.saturating_sub(HALF_WINDOW);
            let hi = (i + HALF_WINDOW + 1).min(cal.len());
            ms[i] * REFERENCE_MS / crate::stats::median(&cal[lo..hi])
        })
        .collect()
}

/// The factor that scales a whole run's times to the reference speed.
pub fn factor(cal: &[f64]) -> f64 {
    if cal.is_empty() {
        1.0
    } else {
        REFERENCE_MS / crate::stats::median(cal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_out_a_slow_stretch() {
        // the machine runs at half speed for the middle operations
        let cal = [
            1.8, 1.8, 1.8, 3.6, 3.6, 3.6, 3.6, 3.6, 3.6, 3.6, 3.6, 1.8, 1.8,
        ];
        let ms: Vec<f64> = cal.iter().map(|c| 10.0 * c / 1.8).collect();
        let scaled = scale(&ms, &cal);
        // inside the stretch the window sees only slow calibrations
        assert!((scaled[7] - 10.0).abs() < 1e-12);
        assert!((scaled[0] - 10.0).abs() < 1e-12);
        assert_eq!(factor(&[1.8, 3.6, 3.6]), 0.5);
        assert!(calibrate() > 0.0);
    }
}
