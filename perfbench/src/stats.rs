//! Small statistics helpers shared by every workload.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail latency: the value at the highest percentile that still has
/// at least ten samples beyond it. Returns `(value, percentile, samples)`;
/// with fewer than 22 samples, where that percentile would not lie above
/// the median, the maximum is returned at 100%.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    if n < 22 {
        return (v[n - 1], 100.0, n);
    }
    let i = n - 11;
    (v[i], 100.0 * (i + 1) as f64 / n as f64, n)
}

/// Resets this process's `VmHWM` to its current resident set, so the next
/// [`peak_rss_mb`] reads the peak since this call.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset VmHWM: {e}"))
}

/// Peak resident set size of this process in MB, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64 step: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over bytes, for cheap fingerprints of outputs that must repeat.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        // Ten samples (11..=20) lie beyond the 10th value.
        assert_eq!(tail(&xs), (20.0, 100.0, 20));
        // Ten samples (13..=22) lie beyond the 12th value, above the median.
        let xs: Vec<f64> = (1..=22).map(f64::from).collect();
        assert_eq!(tail(&xs), (12.0, 100.0 * 12.0 / 22.0, 22));
        assert_eq!(tail(&[1.0, 5.0]), (5.0, 100.0, 2));
    }
}
