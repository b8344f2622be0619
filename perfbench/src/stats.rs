//! Order statistics over measured samples.

/// The `q`-quantile (0..=1) of `samples` by nearest rank, or `None` when
/// there are no samples. Reorders `samples`.
pub fn quantile<T: Copy + PartialOrd>(samples: &mut [T], q: f64) -> Option<T> {
    if samples.is_empty() {
        return None;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
    let (_, value, _) =
        samples.select_nth_unstable_by(rank, |a, b| a.partial_cmp(b).expect("no NaN samples"));
    Some(*value)
}

/// The median of `samples` as `f64`, or 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    quantile(&mut v, 0.5).unwrap_or(0.0)
}

/// The arithmetic mean of `samples`, or 0 when there are none.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Quantile `q` of `f64` samples, or 0 when there are none.
pub fn q(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    quantile(&mut v, q).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50));
        assert_eq!(quantile(&mut v, 0.99), Some(99));
        assert_eq!(quantile(&mut v, 1.0), Some(100));
        assert_eq!(quantile(&mut v, 0.0), Some(1));
        assert_eq!(quantile::<u32>(&mut [], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
