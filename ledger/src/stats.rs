//! Order statistics: medians as in Python's `statistics.median` and
//! quartiles as in `statistics.quantiles(values, n=4)` (the default
//! exclusive method), so spreads computed here and from the records in
//! Python agree.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); 0 when
/// `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, `statistics.quantiles(values, n=4)`'s outer
/// cut points. A single value is its own quartiles; empty input gives 0.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The value (nearest rank) at the highest of a fixed percentile ladder
/// that still has at least ten samples beyond it; the median when there
/// are fewer than twenty samples.
pub fn tail(values: &[f64]) -> f64 {
    const LADDER: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];
    let v = sorted(values);
    let n = v.len() as f64;
    let p = LADDER
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0 * n).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[2.0, 9.0, 4.0]), 4.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 720 one-second slices: 2% of them (14.4) lie beyond p98, 1% (7.2)
        // beyond p99.
        let v: Vec<f64> = (1..=720).map(f64::from).collect();
        assert_eq!(tail(&v), 706.0);
        assert_eq!(tail(&[5.0, 1.0, 3.0]), 3.0);
    }
}
