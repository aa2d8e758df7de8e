//! Streaming statistics used by the analysis pipeline: Welford moments,
//! Pearson correlation, and exact quantiles over collected samples.

/// Streaming count/mean/min/max; the mean is Welford's running update.
#[derive(Clone, Copy, Debug)]
pub struct Moments {
    n: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl Default for Moments {
    fn default() -> Moments {
        Moments::new()
    }
}

impl Moments {
    pub fn new() -> Moments {
        Moments { n: 0, mean: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn merge(&mut self, other: &Moments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.n
    }
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }
}

/// Pearson correlation coefficient of paired samples. Returns `None` when
/// fewer than two pairs or either variable is constant.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    assert_eq!(xs.len(), ys.len(), "pearson requires paired samples");
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mx = xs.iter().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Spearman rank correlation (Pearson over ranks, average ranks for ties).
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let rx = ranks(xs);
    let ry = ranks(ys);
    pearson(&rx, &ry)
}

fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Exact quantile of a sample (linear interpolation between order
/// statistics). `q` in `[0, 1]`. Returns `None` for an empty sample.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q));
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(samples[lo] * (1.0 - frac) + samples[hi] * frac)
}

/// Complementary CDF of a sample: sorted `(value, fraction of samples ≥
/// value)` points, one per distinct value — the standard rendering for
/// the paper's heavy-tailed scatter figures.
pub fn ccdf(samples: &[f64]) -> Vec<(f64, f64)> {
    if samples.is_empty() {
        return Vec::new();
    }
    let mut xs: Vec<f64> = samples.to_vec();
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len() as f64;
    let mut out: Vec<(f64, f64)> = Vec::new();
    let mut i = 0;
    while i < xs.len() {
        let v = xs[i];
        // Fraction of samples ≥ v.
        out.push((v, (xs.len() - i) as f64 / n));
        while i < xs.len() && xs[i] == v {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_basic() {
        let mut m = Moments::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            m.push(x);
        }
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        assert_eq!(m.min(), 2.0);
        assert_eq!(m.max(), 9.0);
        assert!((m.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn moments_merge_matches_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Moments::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut a = Moments::new();
        let mut b = Moments::new();
        xs[..300].iter().for_each(|&x| a.push(x));
        xs[300..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert_eq!((a.min(), a.max()), (whole.min(), whole.max()));
    }

    #[test]
    fn moments_empty_nan() {
        let m = Moments::new();
        assert!(m.mean().is_nan());
        assert!(m.min().is_nan() && m.max().is_nan());
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -2.0 * x).collect();
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_is_none() {
        let xs = [1.0, 1.0, 1.0];
        let ys = [2.0, 3.0, 4.0];
        assert!(pearson(&xs, &ys).is_none());
        assert!(pearson(&[], &[]).is_none());
        assert!(pearson(&[1.0], &[2.0]).is_none());
    }

    #[test]
    fn spearman_monotone_nonlinear() {
        let xs: Vec<f64> = (1..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.exp().min(1e300)).collect();
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn spearman_handles_ties() {
        let xs = [1.0, 2.0, 2.0, 3.0];
        let ys = [10.0, 20.0, 20.0, 30.0];
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_interpolates() {
        let mut xs = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&mut xs, 0.0), Some(1.0));
        assert_eq!(quantile(&mut xs, 1.0), Some(4.0));
        assert_eq!(quantile(&mut xs, 0.5), Some(2.5));
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn ccdf_basic() {
        let pts = ccdf(&[1.0, 2.0, 2.0, 4.0]);
        assert_eq!(pts, vec![(1.0, 1.0), (2.0, 0.75), (4.0, 0.25)]);
        assert!(ccdf(&[]).is_empty());
        // Single value.
        assert_eq!(ccdf(&[7.0]), vec![(7.0, 1.0)]);
        // Monotone non-increasing fractions.
        let pts = ccdf(&[5.0, 3.0, 8.0, 1.0, 9.0, 3.0]);
        assert!(pts.windows(2).all(|w| w[0].1 >= w[1].1 && w[0].0 < w[1].0));
    }
}
