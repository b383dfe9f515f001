//! Fixed-bin histograms for flow-completion-time distributions (Fig. 14).

/// A histogram with uniform bins over `[0, bin_width · bins)`. Samples
/// beyond the last bin count toward the moments and the PDF's
/// normalization but land in no bin.
#[derive(Debug, Clone)]
pub struct Histogram {
    bin_width: f64,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    sumsq: f64,
}

impl Histogram {
    /// `bins` bins of `bin_width` each. Panics on zero bins or non-positive
    /// width.
    pub fn new(bin_width: f64, bins: usize) -> Histogram {
        assert!(bin_width > 0.0, "bin width must be positive");
        assert!(bins > 0, "need at least one bin");
        Histogram {
            bin_width,
            counts: vec![0; bins],
            total: 0,
            sum: 0.0,
            sumsq: 0.0,
        }
    }

    /// Record one sample. Negative samples land in bin 0 (they indicate a
    /// caller bug but should not corrupt the distribution's shape).
    pub fn record(&mut self, x: f64) {
        debug_assert!(x >= 0.0, "negative sample {x}");
        let idx = (x.max(0.0) / self.bin_width) as usize;
        if let Some(count) = self.counts.get_mut(idx) {
            *count += 1;
        }
        self.total += 1;
        self.sum += x;
        self.sumsq += x * x;
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Population standard deviation (0 when empty).
    pub fn std(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let m = self.mean();
        (self.sumsq / self.total as f64 - m * m).max(0.0).sqrt()
    }

    /// `(bin_center, probability_density)` pairs — the PDF as plotted in
    /// Fig. 14. Densities integrate to the in-range fraction of samples.
    pub fn pdf(&self) -> Vec<(f64, f64)> {
        let n = self.total.max(1) as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                (
                    (i as f64 + 0.5) * self.bin_width,
                    c as f64 / (n * self.bin_width),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn binning_and_moments() {
        let mut h = Histogram::new(10.0, 5);
        for x in [5.0, 15.0, 15.0, 49.0, 120.0] {
            h.record(x);
        }
        assert!((h.mean() - 40.8).abs() < 1e-9);
        let pdf = h.pdf();
        assert_eq!(pdf.len(), 5);
        // 120 lies beyond the last bin: the bins hold 4 of the 5 samples.
        let mass: f64 = pdf.iter().map(|&(_, d)| d * 10.0).sum();
        assert!((mass - 0.8).abs() < 1e-12);
        // bin [10,20) holds 2 of 5 samples over width 10 → density 0.04.
        assert!((pdf[1].1 - 0.04).abs() < 1e-12);
        assert!((pdf[1].0 - 15.0).abs() < 1e-12);
    }

    #[test]
    fn std_of_constant_is_zero() {
        let mut h = Histogram::new(1.0, 10);
        for _ in 0..50 {
            h.record(3.0);
        }
        assert!(h.std() < 1e-9);
        assert_eq!(h.mean(), 3.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        Histogram::new(0.0, 10);
    }

    proptest! {
        /// PDF integrates to the in-range mass.
        #[test]
        fn prop_pdf_normalized(
            xs in proptest::collection::vec(0.0_f64..200.0, 1..200),
        ) {
            let mut h = Histogram::new(5.0, 20); // covers [0, 100)
            for &x in &xs {
                h.record(x);
            }
            let mass: f64 = h.pdf().iter().map(|&(_, d)| d * 5.0).sum();
            let in_range =
                xs.iter().filter(|&&x| x < 100.0).count() as f64 / xs.len() as f64;
            prop_assert!((mass - in_range).abs() < 1e-9);
        }
    }
}
