//! The arithmetic behind every reported number: percentiles, means,
//! ratios and the failure fraction.

/// A set of measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one measurement.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no measurement was taken.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sum of the measurements.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean, 0 when empty.
    pub fn mean(&self) -> f64 {
        ratio(self.sum(), self.values.len() as f64)
    }

    /// The `p`-th percentile (0–100), 0 when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        percentile(&self.values, p).unwrap_or(0.0)
    }
}

/// The `p`-th percentile (0–100) of ascending `sorted`, interpolating
/// linearly between the two nearest ranks; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = p.clamp(0.0, 100.0) / 100.0 * last as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    let weight = rank - low as f64;
    Some(sorted[low] + (sorted[high] - sorted[low]) * weight)
}

/// Median of unsorted values; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// `numerator / denominator`, or 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Share of attempted requests that failed.
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    ratio(failed as f64, attempted as f64)
}
