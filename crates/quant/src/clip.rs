//! Clipping-threshold optimization: ACIQ analytic MSE and LAPQ
//! empirical Lp-norm minimization.

use serde::{Deserialize, Serialize};

use crate::TensorStats;

/// The distribution family ACIQ fits to a value population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DistFit {
    /// Normal distribution (σ from the sample).
    Gaussian,
    /// Laplace distribution (b = mean absolute deviation).
    Laplace,
}

impl DistFit {
    /// Chooses the better-fitting family from the moment ratio
    /// `E|x − μ| / σ`: ≈ 0.798 for a Gaussian, ≈ 0.707 for a Laplace.
    #[must_use]
    pub fn fit(stats: &TensorStats) -> DistFit {
        if stats.std <= 1e-12 {
            return DistFit::Gaussian; // degenerate; either works
        }
        let ratio = stats.abs_dev / stats.std;
        const GAUSS: f32 = 0.797_884_6; // √(2/π)
        const LAPLACE: f32 = std::f32::consts::FRAC_1_SQRT_2;
        if (ratio - GAUSS).abs() <= (ratio - LAPLACE).abs() {
            DistFit::Gaussian
        } else {
            DistFit::Laplace
        }
    }

    /// One-sided truncation cost `∫_α^∞ (x − α)² f(x) dx` for the
    /// zero-centred family with the given scale parameter.
    fn tail_cost(self, scale: f64, alpha: f64) -> f64 {
        match self {
            DistFit::Laplace => {
                // b² e^{−α/b}
                let b = scale;
                b * b * (-alpha / b).exp()
            }
            DistFit::Gaussian => {
                // σ² [(1 + z²) Q(z) − z φ(z)], z = α/σ
                let sigma = scale;
                let z = alpha / sigma;
                let phi = (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt();
                let q = q_function(z);
                sigma * sigma * ((1.0 + z * z) * q - z * phi)
            }
        }
    }

    /// The family's scale parameter from sample statistics.
    fn scale_from(self, stats: &TensorStats) -> f64 {
        match self {
            DistFit::Gaussian => f64::from(stats.std).max(1e-9),
            DistFit::Laplace => f64::from(stats.abs_dev).max(1e-9),
        }
    }
}

/// Standard normal tail probability `Q(z) = P(Z > z)` via the
/// Abramowitz–Stegun erfc approximation (max error < 1.5e-7).
fn q_function(z: f64) -> f64 {
    if z < 0.0 {
        return 1.0 - q_function(-z);
    }
    let x = z / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erfc = poly * (-x * x).exp();
    0.5 * erfc
}

/// The ACIQ analytic optimal clipping threshold for quantizing a
/// population to `bits` bits.
///
/// Fits a Gaussian or Laplace (whichever matches the moments better),
/// then minimizes the analytic mean-squared error — truncation cost
/// plus uniform quantization noise — over the clip value α via
/// golden-section search. `one_sided` selects the post-ReLU variant
/// (quantize `[0, α]` of the folded distribution) versus the symmetric
/// `[μ − α, μ + α]` variant.
///
/// Returns `(α, fitted family)`. The caller centres the range.
///
/// # Panics
///
/// Panics if `bits` is zero.
///
/// # Example
///
/// ```
/// use agequant_quant::{aciq_optimal_clip, TensorStats};
///
/// // A unit Gaussian population: the 4-bit optimal clip is well below
/// // the observed maximum but above 2σ.
/// let values: Vec<f32> = (0..10_000)
///     .map(|i| {
///         let u = (i as f32 + 0.5) / 10_000.0;
///         // inverse-CDF-ish spread via logit for a heavy-ish tail
///         (u / (1.0 - u)).ln() * 0.55
///     })
///     .collect();
/// let stats = TensorStats::collect(&values);
/// let (alpha, _) = aciq_optimal_clip(&stats, 4, false);
/// assert!(alpha > 2.0 * stats.std && alpha < stats.max_abs());
/// ```
#[must_use]
pub fn aciq_optimal_clip(stats: &TensorStats, bits: u8, one_sided: bool) -> (f32, DistFit) {
    let (mse, [lo, hi], fit) = aciq_objective(stats, bits, one_sided);
    (golden_section(mse, lo, hi), fit)
}

/// [`aciq_optimal_clip`]'s search problem: the analytic MSE as a
/// function of α, the bracket it is minimized over, and the fitted
/// family.
fn aciq_objective(
    stats: &TensorStats,
    bits: u8,
    one_sided: bool,
) -> (impl Fn(f64) -> f64, [f64; 2], DistFit) {
    assert!(bits > 0, "bits must be positive");
    let fit = DistFit::fit(stats);
    let scale = fit.scale_from(stats);
    let levels = f64::from(1u32 << u32::from(bits.min(16)));
    let hi = if one_sided {
        f64::from(stats.max).max(scale) // folded range
    } else {
        f64::from(stats.max_abs()).max(scale)
    };
    let mse = move |alpha: f64| -> f64 {
        if one_sided {
            // Folded density doubles the tail mass; the in-range step
            // is α / 2^M.
            let quant = alpha * alpha / (12.0 * levels * levels);
            2.0 * fit.tail_cost(scale, alpha) + quant
        } else {
            // Two-sided range 2α, step 2α / 2^M.
            let quant = alpha * alpha / (3.0 * levels * levels);
            2.0 * fit.tail_cost(scale, alpha) + quant
        }
    };
    (mse, [scale * 0.1, hi.max(scale * 0.2)], fit)
}

/// The LAPQ layer-wise clipping threshold: minimizes the empirical
/// `L_p` norm of the quantization error over the stored value sample.
///
/// Following Nahshan et al., the norm order `p` is tuned per bit
/// width and grows as precision falls: `p ≈ 2` at 8 bits rising to
/// `p ≈ 4` at 2 bits.
///
/// # Panics
///
/// Panics if `bits` is zero or the sample is empty.
#[must_use]
pub fn lp_norm_clip(stats: &TensorStats, bits: u8, one_sided: bool) -> f32 {
    let (cost, [lo, hi]) = lp_objective(stats, bits, one_sided);
    golden_section(cost, lo, hi)
}

/// [`lp_norm_clip`]'s search problem: the empirical `L_p` error as a
/// function of α, and the bracket it is minimized over.
fn lp_objective(
    stats: &TensorStats,
    bits: u8,
    one_sided: bool,
) -> (impl Fn(f64) -> f64 + '_, [f64; 2]) {
    assert!(bits > 0, "bits must be positive");
    assert!(!stats.sample.is_empty(), "empty calibration sample");
    let p = f64::from(2.0f32 + (8.0 - f32::from(bits.min(8))) / 3.0);
    let levels = f64::from(1u32 << u32::from(bits.min(16))) - 1.0;
    let mean = if one_sided { 0.0 } else { stats.mean };
    let hi = if one_sided {
        f64::from(stats.max).max(1e-6)
    } else {
        f64::from(stats.max_abs()).max(1e-6)
    };
    let cost = move |alpha: f64| -> f64 {
        let (lo, span) = if one_sided {
            (0.0f64, alpha)
        } else {
            (f64::from(mean) - alpha, 2.0 * alpha)
        };
        let step = span / levels;
        let mut total = 0.0f64;
        for &v in &stats.sample {
            let x = f64::from(v);
            let clamped = x.clamp(lo, lo + span);
            let q = ((clamped - lo) / step).round() * step + lo;
            total += (q - x).abs().powf(p);
        }
        total
    };
    (cost, [hi * 0.05, hi])
}

/// Golden-section minimization of a unimodal-ish function on `[lo, hi]`,
/// returning the final bracket's midpoint as an `f32`.
///
/// The search runs up to 60 iterations but stops as soon as both ends
/// of the bracket round to the same nonzero `f32`. The brackets are
/// nested and the `f64 → f32` cast is monotone, so every later midpoint
/// would round to that same value: the early exit returns exactly the
/// bits the full 60 iterations would. Two cases stay on the full loop:
/// a bracket rounding to zero, which may still end on `+0.0` or
/// `-0.0`, and a bracket with an infinite or NaN end, whose arithmetic
/// turns to NaN so that the nesting argument does not hold.
fn golden_section(f: impl Fn(f64) -> f64, lo: f64, hi: f64) -> f32 {
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let (mut a, mut b) = (lo.min(hi), hi.max(lo));
    let mut c = b - (b - a) * INV_PHI;
    let mut d = a + (b - a) * INV_PHI;
    let (mut fc, mut fd) = (f(c), f(d));
    for _ in 0..60 {
        let (fa, fb) = (a as f32, b as f32);
        if fa == fb && fa != 0.0 && (b - a).is_finite() {
            break;
        }
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * INV_PHI;
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * INV_PHI;
            fd = f(d);
        }
    }
    (0.5 * (a + b)) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaussian_sample(sigma: f32, n: usize) -> Vec<f32> {
        // Deterministic quasi-Gaussian via the central limit of
        // stride-sampled uniforms.
        (0..n)
            .map(|i| {
                let mut acc = 0.0f32;
                let mut state = (i as u32).wrapping_mul(2_654_435_761).wrapping_add(12345);
                for _ in 0..12 {
                    state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    acc += (state >> 8) as f32 / (1u32 << 24) as f32;
                }
                (acc - 6.0) * sigma
            })
            .collect()
    }

    fn laplace_sample(b: f32, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let u = (i as f32 + 0.5) / n as f32 - 0.5; // (-0.5, 0.5)
                -b * u.signum() * (1.0 - 2.0 * u.abs()).ln()
            })
            .collect()
    }

    #[test]
    fn fit_recognizes_families() {
        let g = TensorStats::collect(&gaussian_sample(1.0, 8000));
        assert_eq!(DistFit::fit(&g), DistFit::Gaussian);
        let l = TensorStats::collect(&laplace_sample(1.0, 8000));
        assert_eq!(DistFit::fit(&l), DistFit::Laplace);
    }

    #[test]
    fn q_function_reference_values() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-6);
        assert!((q_function(1.0) - 0.158_655).abs() < 1e-4);
        assert!((q_function(2.0) - 0.022_750).abs() < 1e-4);
        assert!((q_function(-1.0) - 0.841_345).abs() < 1e-4);
    }

    #[test]
    fn laplace_clip_matches_published_ballpark() {
        // Banner et al. report α*/b ≈ 2.83, 3.89, 5.03 for 2/3/4-bit
        // Laplace clipping. Our numeric minimizer should land nearby.
        let stats = TensorStats::collect(&laplace_sample(1.0, 16000));
        for (bits, expect) in [(2u8, 2.83f32), (3, 3.89), (4, 5.03)] {
            let (alpha, fit) = aciq_optimal_clip(&stats, bits, false);
            assert_eq!(fit, DistFit::Laplace);
            let b = stats.abs_dev;
            assert!(
                (alpha / b - expect).abs() < 0.6,
                "{bits}-bit: α/b = {} vs {expect}",
                alpha / b
            );
        }
    }

    #[test]
    fn clip_grows_with_bits() {
        let stats = TensorStats::collect(&gaussian_sample(1.0, 8000));
        let (a2, _) = aciq_optimal_clip(&stats, 2, false);
        let (a4, _) = aciq_optimal_clip(&stats, 4, false);
        let (a8, _) = aciq_optimal_clip(&stats, 8, false);
        assert!(a2 < a4 && a4 < a8, "{a2} {a4} {a8}");
    }

    #[test]
    fn aciq_clips_below_max_at_low_bits() {
        let stats = TensorStats::collect(&laplace_sample(0.5, 8000));
        let (alpha, _) = aciq_optimal_clip(&stats, 4, false);
        assert!(alpha < stats.max_abs(), "{alpha} vs {}", stats.max_abs());
    }

    #[test]
    fn lp_clip_is_sane() {
        let stats = TensorStats::collect(&laplace_sample(1.0, 4000));
        for bits in [2u8, 4, 8] {
            let alpha = lp_norm_clip(&stats, bits, false);
            assert!(
                alpha > 0.0 && alpha <= stats.max_abs() * 1.01,
                "bits {bits}"
            );
        }
        // Lower precision clips tighter.
        let a3 = lp_norm_clip(&stats, 3, false);
        let a8 = lp_norm_clip(&stats, 8, false);
        assert!(a3 < a8, "{a3} vs {a8}");
    }

    #[test]
    fn one_sided_handles_relu_populations() {
        let positive: Vec<f32> = laplace_sample(1.0, 4000)
            .into_iter()
            .map(f32::abs)
            .collect();
        let stats = TensorStats::collect(&positive);
        let (alpha, _) = aciq_optimal_clip(&stats, 4, true);
        assert!(alpha > 0.0 && alpha <= stats.max * 1.01);
        let lp = lp_norm_clip(&stats, 4, true);
        assert!(lp > 0.0 && lp <= stats.max * 1.01);
    }

    #[test]
    fn golden_section_finds_parabola_minimum() {
        let min = golden_section(|x| (x - 3.7).powi(2), 0.0, 10.0);
        assert!((min - 3.7).abs() < 1e-6);
    }

    /// The search without its early exit: always 60 iterations.
    fn golden_section_60(f: impl Fn(f64) -> f64, lo: f64, hi: f64) -> f32 {
        const INV_PHI: f64 = 0.618_033_988_749_894_8;
        let (mut a, mut b) = (lo.min(hi), hi.max(lo));
        let mut c = b - (b - a) * INV_PHI;
        let mut d = a + (b - a) * INV_PHI;
        let (mut fc, mut fd) = (f(c), f(d));
        for _ in 0..60 {
            if fc < fd {
                b = d;
                d = c;
                fd = fc;
                c = b - (b - a) * INV_PHI;
                fc = f(c);
            } else {
                a = c;
                c = d;
                fc = fd;
                d = a + (b - a) * INV_PHI;
                fd = f(d);
            }
        }
        (0.5 * (a + b)) as f32
    }

    /// An objective drawn by the property test, from its kind and
    /// parameters; `width` is the bracket's width.
    fn objective(
        kind: u8,
        centre: f64,
        width: f64,
        p: f64,
        phases: &[f64],
    ) -> impl Fn(f64) -> f64 + '_ {
        move |x: f64| match kind {
            0 => (x - centre).powi(2),
            1 => (x - centre).abs().powf(p),
            // Not unimodal: several local minima inside the bracket.
            2 => phases
                .iter()
                .enumerate()
                .map(|(k, &phase)| {
                    let turns = (k + 1) as f64 * 3.0 * (x - centre) / width.max(f64::MIN_POSITIVE);
                    (turns * std::f64::consts::TAU + phase).cos()
                })
                .sum(),
            3 if x > centre => f64::NAN,
            3 => (x - centre).powi(2),
            _ => f64::NAN,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// The early exit returns exactly the 60-iteration answer.
        #[test]
        fn early_exit_matches_sixty_iterations(
            shape in 0u8..4,
            mantissa in 1.0f64..2.0,
            exponent in -1074i32..1024,
            width in 0.0f64..1.0,
            width_exponent in -60i32..8,
            negative in proptest::any::<bool>(),
            kind in 0u8..5,
            position in -0.5f64..1.5,
            p in 0.5f64..6.0,
            phases in proptest::collection::vec(0.0f64..6.3, 1..6),
        ) {
            // Two factors, so that subnormal powers do not underflow.
            let power = 2f64.powi(exponent / 2) * 2f64.powi(exponent - exponent / 2);
            let base = mantissa * power * if negative { -1.0 } else { 1.0 };
            let span = base.abs().max(f64::MIN_POSITIVE) * width * 2f64.powi(width_exponent);
            // lo < hi, lo > hi, lo == hi, and an interval reaching the
            // largest magnitudes (whose midpoint sum overflows).
            let (lo, hi) = match shape {
                0 => (base, base + span),
                1 => (base + span, base),
                2 => (base, base),
                _ => (f64::MAX * width.copysign(base), f64::MAX.copysign(base)),
            };
            let centre = lo + (hi - lo) * position;
            let f = objective(kind, centre, (hi - lo).abs(), p, &phases);
            let fast = golden_section(&f, lo, hi);
            let full = golden_section_60(&f, lo, hi);
            proptest::prop_assert_eq!(
                fast.to_bits(),
                full.to_bits(),
                "[{lo:e}, {hi:e}]: {fast:e} vs {full:e}"
            );
        }
    }

    #[test]
    fn early_exit_matches_on_non_finite_brackets() {
        let specials = [
            0.0,
            -0.0,
            1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
        ];
        for &lo in &specials {
            for &hi in &specials {
                for kind in 0..5 {
                    let f = objective(kind, 0.5, 1.0, 2.0, &[1.0, 2.0]);
                    let fast = golden_section(&f, lo, hi);
                    let full = golden_section_60(&f, lo, hi);
                    assert_eq!(fast.to_bits(), full.to_bits(), "[{lo}, {hi}] kind {kind}");
                }
            }
        }
    }

    #[test]
    fn early_exit_saves_cost_evaluations() {
        let calls = std::cell::Cell::new(0u32);
        let stats = TensorStats::collect(&laplace_sample(1.0, 4000));
        let (cost, [lo, hi]) = lp_objective(&stats, 4, false);
        let counted = |x: f64| {
            calls.set(calls.get() + 1);
            cost(x)
        };
        let _ = golden_section(counted, lo, hi);
        assert!(calls.get() < 45, "{} evaluations", calls.get());
    }

    /// Every clip population the quantizer meets in `arch`: the input
    /// activations of each weighted layer over two calibration images,
    /// and every weight row.
    fn zoo_populations(arch: agequant_nn::NetArch) -> Vec<TensorStats> {
        use agequant_nn::{ExactExecutor, Op, SyntheticDataset};
        let model = arch.build(7);
        let weighted = model.weighted_layers();
        let feeders: Vec<_> = weighted
            .iter()
            .map(|id| model.nodes()[id.index()].inputs[0])
            .collect();
        let mut acts = vec![Vec::new(); feeders.len()];
        for image in SyntheticDataset::generate(2, 2021).images() {
            let _ = model.run_traced(&ExactExecutor, image, |id, out| {
                for (i, _) in feeders.iter().enumerate().filter(|(_, &f)| f == id) {
                    acts[i].extend_from_slice(out.data());
                }
            });
        }
        let mut populations: Vec<TensorStats> =
            acts.iter().map(|a| TensorStats::collect(a)).collect();
        for id in weighted {
            let weights = match &model.nodes()[id.index()].op {
                Op::Conv(conv) => &conv.weights,
                Op::Linear(linear) => &linear.weights,
                _ => unreachable!("weighted layers are conv or linear"),
            };
            let fan = weights.len() / weights.shape()[0];
            populations.extend(weights.data().chunks(fan).map(TensorStats::collect));
        }
        populations
    }

    #[test]
    fn real_populations_clip_bit_identically() {
        for arch in [
            agequant_nn::NetArch::AlexNet,
            agequant_nn::NetArch::SqueezeNet11,
        ] {
            for stats in zoo_populations(arch) {
                for bits in 1..=8u8 {
                    for one_sided in [false, true] {
                        let (cost, [lo, hi]) = lp_objective(&stats, bits, one_sided);
                        assert_eq!(
                            lp_norm_clip(&stats, bits, one_sided).to_bits(),
                            golden_section_60(cost, lo, hi).to_bits(),
                            "{arch:?} LAPQ {bits} bits, one-sided {one_sided}"
                        );
                        let (mse, [lo, hi], fit) = aciq_objective(&stats, bits, one_sided);
                        assert_eq!(
                            aciq_optimal_clip(&stats, bits, one_sided),
                            (golden_section_60(mse, lo, hi), fit),
                            "{arch:?} ACIQ {bits} bits, one-sided {one_sided}"
                        );
                    }
                }
            }
        }
    }
}
