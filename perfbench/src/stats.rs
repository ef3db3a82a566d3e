//! The benchmark's own arithmetic: percentiles, ratios and the gap
//! between an end-to-end time and the layer times that explain it.

/// Percentiles a tail metric may report, highest first, in permille.
const TAIL_CANDIDATES: [usize; 4] = [999, 990, 950, 900];

/// Samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100], to a tenth of a percent, of
/// `sorted` (ascending). Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // Integer permille, so that e.g. p99.9 of 10 000 samples is rank
    // 9 990 exactly rather than a float one past it.
    let permille = (p * 10.0).round() as usize;
    let rank = (permille * sorted.len()).div_ceil(1000);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `sorted` (nearest rank).
pub fn median(sorted: &[u64]) -> u64 {
    percentile(sorted, 50.0)
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// above it in a sample of `n`, or `None` when even p90 is unsupported.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|p| n * (1000 - p) >= MIN_BEYOND * 1000)
        .map(|p| p as f64 / 10.0)
}

/// Median of a list of floats (mean of the middle two for even lengths).
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Non-retryable errors, exhausted retries and failed output checks over
/// operations attempted.
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    failed as f64 / attempted as f64
}

/// The part of an end-to-end time that no timed layer accounts for.
/// Negative when the layer replays, timed in isolation, add up to more
/// than the end-to-end time.
pub fn unattributed(end_to_end: f64, parts: &[f64]) -> f64 {
    end_to_end - parts.iter().sum::<f64>()
}

/// Relative cost of tracing: how much slower the traced operation ran.
pub fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    if untraced <= 0.0 {
        return 0.0;
    }
    (traced - untraced) / untraced * 100.0
}

/// Latency samples of one operation type, in nanoseconds, optionally
/// cut into the cycles of a run.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    /// Sample counts at each cycle end.
    cuts: Vec<usize>,
}

impl Samples {
    /// End the current cycle.
    pub fn cut(&mut self) {
        self.cuts.push(self.ns.len());
    }

    /// Median over cycles of each cycle's median: unlike the median of
    /// all samples, a stretch of host noise that slows fewer than half
    /// of a run's cycles leaves it unchanged. Samples after the last cut
    /// form a cycle of their own; cycles without samples are skipped.
    pub fn cycle_median_ns(&self) -> f64 {
        let mut bounds = self.cuts.clone();
        bounds.push(self.ns.len());
        let mut start = 0;
        let mut medians = Vec::new();
        for end in bounds {
            if end > start {
                let mut c = self.ns[start..end].to_vec();
                c.sort_unstable();
                medians.push(median(&c) as f64);
            }
            start = start.max(end);
        }
        median_f64(&medians)
    }

    /// Record one duration.
    pub fn push(&mut self, d: std::time::Duration) {
        self.ns.push(d.as_nanos() as u64);
    }

    /// Append every sample of `other`.
    pub fn extend(&mut self, other: Samples) {
        self.ns.extend(other.ns);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    fn sorted(&self) -> Vec<u64> {
        let mut v = self.ns.clone();
        v.sort_unstable();
        v
    }

    /// Median in nanoseconds.
    pub fn p50_ns(&self) -> f64 {
        median(&self.sorted()) as f64
    }

    /// Mean of the samples from the 25th to the 75th percentile, in
    /// nanoseconds: as robust to outliers as the median, without rounding
    /// to one sample's whole nanoseconds.
    pub fn iq_mean_ns(&self) -> f64 {
        let v = self.sorted();
        let (lo, hi) = (v.len() / 4, v.len() - v.len() / 4);
        if lo >= hi {
            return 0.0;
        }
        v[lo..hi].iter().map(|&x| x as f64).sum::<f64>() / (hi - lo) as f64
    }

    /// Percentile `p` in nanoseconds.
    pub fn pct_ns(&self, p: f64) -> f64 {
        percentile(&self.sorted(), p) as f64
    }

    /// Percentile `p` of each chunk of `chunk` consecutive samples (the
    /// last chunk takes the remainder), and the median of those: a tail
    /// that one burst of host noise cannot move much. With fewer than
    /// `chunk` samples it is the plain percentile.
    pub fn chunked_pct_ns(&self, p: f64, chunk: usize) -> f64 {
        let chunks = (self.ns.len() / chunk.max(1)).max(1);
        let per_chunk: Vec<f64> = (0..chunks)
            .map(|i| {
                let end = if i + 1 == chunks {
                    self.ns.len()
                } else {
                    (i + 1) * chunk
                };
                let mut c = self.ns[i * chunk..end].to_vec();
                c.sort_unstable();
                percentile(&c, p) as f64
            })
            .collect();
        median_f64(&per_chunk)
    }

    /// The highest percentile the sample supports and its value in
    /// nanoseconds.
    pub fn tail_ns(&self) -> Option<(f64, f64)> {
        highest_supported_percentile(self.len()).map(|p| (p, self.pct_ns(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.1), 1);
        assert_eq!(median(&[7]), 7);
        assert_eq!(median(&[1, 2, 3, 4]), 2);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        // Whatever is chosen, at least ten samples lie beyond it.
        for n in [100usize, 250, 1_000, 4_321, 10_000, 50_000] {
            let p = highest_supported_percentile(n).unwrap_or(0.0);
            let v: Vec<u64> = (1..=n as u64).collect();
            let cut = percentile(&v, p);
            assert!(
                v.iter().filter(|&&x| x > cut).count() >= MIN_BEYOND,
                "n={n} p={p}"
            );
        }
    }

    #[test]
    fn samples_report_median_and_tail() {
        let mut s = Samples::default();
        for us in 1..=1_000u64 {
            s.push(std::time::Duration::from_micros(us));
        }
        assert_eq!(s.p50_ns(), 500_000.0);
        assert_eq!(s.tail_ns(), Some((99.0, 990_000.0)));
    }

    #[test]
    fn chunked_percentile_is_the_median_chunk_tail() {
        let mut s = Samples::default();
        // Three chunks of 100: tails 99, 199 and a burst chunk at 10 000.
        for base in [0u64, 100, 9_901] {
            for i in 1..=100 {
                s.push(std::time::Duration::from_nanos(base + i));
            }
        }
        assert_eq!(s.chunked_pct_ns(99.0, 100), 199.0);
        // A remainder joins the last chunk; fewer samples than one chunk
        // give the plain percentile.
        s.push(std::time::Duration::from_nanos(1));
        assert_eq!(s.chunked_pct_ns(99.0, 100), 199.0);
        assert_eq!(s.chunked_pct_ns(50.0, 1_000), s.pct_ns(50.0));
    }

    #[test]
    fn cycle_median_ignores_a_minority_of_slow_cycles() {
        let mut s = Samples::default();
        for cycle in 0..5u64 {
            // Cycle 3 runs ten times slower.
            let scale = if cycle == 3 { 10 } else { 1 };
            for i in 1..=3u64 {
                s.push(std::time::Duration::from_nanos((100 + cycle + i) * scale));
            }
            s.cut();
        }
        assert_eq!(s.cycle_median_ns(), 104.0);
        let mut plain = Samples::default();
        plain.push(std::time::Duration::from_nanos(7));
        assert_eq!(plain.cycle_median_ns(), 7.0);
        assert_eq!(Samples::default().cycle_median_ns(), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        let mut s = Samples::default();
        for ns in [1u64, 10, 11, 12, 13, 14, 15, 1_000] {
            s.push(std::time::Duration::from_nanos(ns));
        }
        assert_eq!(s.iq_mean_ns(), 12.5);
        assert_eq!(Samples::default().iq_mean_ns(), 0.0);
    }

    #[test]
    fn float_median() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
    }

    #[test]
    fn failed_ratio_counts_over_attempted() {
        assert_eq!(failed_ratio(0, 0), 0.0);
        assert_eq!(failed_ratio(0, 500), 0.0);
        assert_eq!(failed_ratio(5, 500), 0.01);
        assert_eq!(failed_ratio(500, 500), 1.0);
    }

    #[test]
    fn unattributed_is_the_remainder() {
        assert_eq!(unattributed(100.0, &[30.0, 50.0]), 20.0);
        assert_eq!(unattributed(100.0, &[]), 100.0);
        assert_eq!(unattributed(10.0, &[8.0, 4.0]), -2.0);
        assert_eq!(overhead_pct(100.0, 103.0), 3.0);
        assert_eq!(overhead_pct(0.0, 5.0), 0.0);
    }
}
