//! Small statistics helpers and the host probes.

use sim_prng::Prng;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in (0, 1] of `xs`.
pub fn percentile(mut xs: Vec<f64>, p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    xs.sort_by(f64::total_cmp);
    let rank = (p * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// The median `SpeedProbe` time, in seconds, on the measurement host (see
/// `README.md`, "Spread on this host"). End-to-end times are scaled to the
/// host speed at which the probe takes this long.
pub const PROBE_REF_S: f64 = 0.0064;

/// A fixed piece of host work that does not touch the simulator: sort
/// 200,000 seeded integers and make 100,000 hash-map updates. On a shared
/// host, its time follows the host's speed for the simulator's own kind of
/// branchy code, so end-to-end times divided by it drift less. Its buffers
/// are allocated once and kept, so probing does not change how the
/// allocator serves the simulator, and with it `peak_rss_mb`.
pub struct SpeedProbe {
    data: Vec<u32>,
    work: Vec<u32>,
    map: HashMap<u64, u64>,
}

impl SpeedProbe {
    pub fn new() -> SpeedProbe {
        let mut rng = Prng::seed_from_u64(0x5eed);
        let data: Vec<u32> = (0..200_000).map(|_| rng.next_u32()).collect();
        SpeedProbe { work: data.clone(), data, map: HashMap::with_capacity(100_000) }
    }

    /// Run the probe once and return its time in seconds.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        self.work.copy_from_slice(&self.data);
        self.work.sort_unstable();
        self.map.clear();
        for i in 0..100_000u64 {
            *self.map.entry(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 44).or_insert(0) += i;
        }
        black_box((&self.work, self.map.len()));
        t.elapsed().as_secs_f64()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(xs.clone(), 0.5), 50.0);
        assert_eq!(percentile(xs.clone(), 0.9), 90.0);
        assert_eq!(percentile(xs, 1.0), 100.0);
    }
}
