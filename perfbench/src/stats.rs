//! Order statistics for the benchmark's reports.

/// Samples that must lie strictly beyond a reported percentile: a tail
/// figure resting on fewer points is one outlier away from a different
/// number.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (0 < q < 1) of `samples` by nearest rank, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median (mean of the middle pair for even counts); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The highest completion rate (per second) over any `span` consecutive
/// completions within one round. Interference from other work on the
/// host only ever slows work down, and on a shared 2-vCPU host it cuts a
/// saturated phase's rate by up to half for seconds at a time, so the
/// least disturbed stretch is the steadiest estimate of the system's
/// capacity. A slowdown that spares some stretches does not move it;
/// [`whole_rate`] gives the figure that shows one.
///
/// # Panics
///
/// Panics when no round has more than `span` completions.
pub fn best_window_rate(rounds: &[Vec<std::time::Instant>], span: usize) -> f64 {
    rounds
        .iter()
        .flat_map(|done| {
            (span..done.len())
                .map(move |i| span as f64 / done[i].duration_since(done[i - span]).as_secs_f64())
        })
        .reduce(f64::max)
        .expect("a round long enough for one window: raise --seconds")
}

/// Completions per second over whole rounds: every round's completions
/// after its first, over the time from its first to its last completion.
///
/// # Panics
///
/// Panics when no round has two completions.
pub fn whole_rate(rounds: &[Vec<std::time::Instant>]) -> f64 {
    let (mut n, mut secs) = (0usize, 0.0);
    for done in rounds.iter().filter(|d| d.len() > 1) {
        n += done.len() - 1;
        secs += done[done.len() - 1].duration_since(done[0]).as_secs_f64();
    }
    assert!(n > 0, "a round with two completions");
    n as f64 / secs
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method), so steadiness figures match an external check.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let ld = samples.len();
    if ld < 2 {
        return None;
    }
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 samples sits at rank 990: exactly ten beyond it.
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        // One sample fewer leaves nine beyond: refused.
        assert_eq!(percentile(&xs[..999], 0.99), None);
        let ys: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&ys, 0.90), Some(90.0));
        assert_eq!(percentile(&ys[..99], 0.90), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let xs: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        assert_eq!(percentile(&xs, 0.5), Some(99.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    }

    #[test]
    fn best_window_rate_takes_the_fastest_stretch_within_a_round() {
        let t0 = std::time::Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        // 10 ms apart, then 5 ms apart; the gap between rounds never counts.
        let a: Vec<_> = (0..6).map(|k| at(10 * k)).chain((1..4).map(|k| at(50 + 5 * k))).collect();
        let b = vec![at(1000), at(1040)];
        let best = best_window_rate(&[a, b], 2);
        assert!((best - 200.0).abs() < 1e-6, "{best}");
    }

    #[test]
    fn whole_rate_spans_each_round_first_to_last() {
        let t0 = std::time::Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        // 4 completions over 30 ms, then 2 over 10 ms; the gap between
        // rounds and a one-completion round never count.
        let a: Vec<_> = (0..4).map(|k| at(10 * k)).collect();
        let r = whole_rate(&[a, vec![at(500), at(510)], vec![at(900)]]);
        assert!((r - 100.0).abs() < 1e-6, "{r}");
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
