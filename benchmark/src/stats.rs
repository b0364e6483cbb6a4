//! Order statistics, the host fingerprint and the process's peak memory.

/// Median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Nearest-rank percentile `p` (0–100] of `samples` (0 for none).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Consecutive segments a run's samples are split into for its typical
/// figures (median latency, throughput): each is the interquartile mean
/// over segments of that segment's figure. A burst of noise from outside
/// the process moves one segment, which the trim drops, and a host that
/// alternates between a faster and a slower state for seconds at a time
/// moves the mean smoothly, where a median would jump between the two.
pub const SEGMENTS: usize = 10;

/// The interquartile mean over `segments` consecutive slices of
/// `samples` (in the order they were taken) of `figure` applied to each.
pub fn segmented(samples: &[f64], segments: usize, figure: impl Fn(&[f64]) -> f64) -> f64 {
    interquartile_mean(&per_segment(samples, segments, figure))
}

/// The tail figure: the median over `segments` consecutive slices of
/// `samples` of each slice's percentile `p`. A stall of the host inflates
/// the tail of the slice it falls in; the median reports a typical slice.
/// Each workload sets `segments` so that every slice keeps at least ten
/// samples beyond `p` at the committed run length.
pub fn tail(samples: &[f64], segments: usize, p: f64) -> f64 {
    let mut figures = per_segment(samples, segments, |s| percentile(s, p));
    figures.sort_by(f64::total_cmp);
    match figures.len() {
        0 => 0.0,
        n if n % 2 == 1 => figures[n / 2],
        n => (figures[n / 2 - 1] + figures[n / 2]) / 2.0,
    }
}

fn per_segment(samples: &[f64], segments: usize, figure: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let size = samples.len().div_ceil(segments).max(1);
    samples.chunks(size).map(figure).collect()
}

/// Mean of the values between the first and third quartile (the
/// lowest and highest quarter dropped).
pub fn interquartile_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let trim = sorted.len() / 4;
    let kept = &sorted[trim..sorted.len() - trim];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The end-to-end latency and throughput metrics of a closed loop on
/// one thread, from its op latencies in the order they ran.
pub fn closed_loop_metrics(
    latencies_us: &[f64],
    segments: usize,
    tail_p: f64,
    tail_segments: usize,
) -> Vec<(&'static str, f64)> {
    vec![
        ("latency_p50_us", segmented(latencies_us, segments, median)),
        ("latency_tail_us", tail(latencies_us, tail_segments, tail_p)),
        (
            "ops_per_s",
            segmented(latencies_us, segments, |s| {
                s.len() as f64 * 1e6 / s.iter().sum::<f64>()
            }),
        ),
    ]
}

/// Samples lying beyond percentile `p` of `n` samples: the tail a
/// percentile rests on. A tail figure is reported only where this is at
/// least 10 at the benchmark's run length.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).min(n)
}

/// Geometric mean of positive values (1 for none).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
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
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU model, core count, compiler and build profile: wall times are
/// only comparable between runs with the same fingerprint.
pub fn host_fingerprint() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    vec![
        ("cpu", cpu),
        ("nproc", nproc.to_string()),
        ("rustc", env!("AWAM_PERF_RUSTC").to_owned()),
        ("profile", env!("AWAM_PERF_PROFILE").to_owned()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&samples), 50.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(0, 99.0), 0);
        assert_eq!(interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0]), 3.0);
        assert_eq!(segmented(&samples, 10, |s| s[0]), 46.0);
        assert_eq!(tail(&samples, 2, 100.0), 75.0);
        assert_eq!(tail(&samples, 1, 99.0), 99.0);
    }
}
