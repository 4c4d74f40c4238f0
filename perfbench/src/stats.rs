//! Order statistics over small samples.

/// The `q`-quantile (`0.0..=1.0`) of `values` by nearest rank; 0 when
/// empty. Sorts in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Median with the usual midpoint rule for even counts; 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` gives, so `--repeat`
/// reports the spread the acceptance rule is written in.
pub fn quartiles(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n < 2 {
        let v = values.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        values[lo - 1] + frac * (values[lo] - values[lo - 1])
    };
    (at(1), at(3))
}
