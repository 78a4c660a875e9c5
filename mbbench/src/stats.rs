//! Percentiles and process counters.

use std::collections::BTreeMap;

/// Linear-interpolated percentile (`q` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (q / 100.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Which of a run's windows (steps, stretches of a schedule, burst
/// rounds) to measure, given the hypervisor steal in each: those in
/// which the host stole no more CPU time than in the window at the
/// `share` quantile of steal. That keeps at least `share` of them, and
/// all of them on a host that reports no steal, so a stall that hits
/// some windows leaves the figures taken over the rest.
pub fn quiet(steal: &[f64], share: f64) -> Vec<bool> {
    let mut sorted = steal.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len().saturating_sub(1) as f64 * share) as usize;
    let Some(&cut) = sorted.get(rank) else {
        return Vec::new();
    };
    steal.iter().map(|&s| s <= cut).collect()
}

/// Median over windows of each window's `q`-th percentile, for
/// `(window, value)` samples. A host stall that hits one window moves
/// one input of the median rather than the whole tail.
pub fn windowed_percentile(samples: &[(u64, f64)], q: f64) -> f64 {
    let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(w, v) in samples {
        windows.entry(w).or_default().push(v);
    }
    let per: Vec<f64> = windows.values().map(|v| percentile(v, q)).collect();
    median(&per)
}

/// Samples strictly above the `q`-th percentile: the guide asks for at
/// least ten beyond every reported tail percentile.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let p = percentile(samples, q);
    samples.iter().filter(|&&s| s > p).count()
}

fn proc_status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Process CPU time (user + system, all threads) in seconds.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the
    // parenthesised command name (which may hold spaces).
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        // The kernel reports in USER_HZ, which Linux fixes at 100.
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

/// Time the hypervisor ran other guests while this machine's CPUs had
/// work (the `steal` column of /proc/stat), in seconds.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |ticks| ticks / 100.0)
}
