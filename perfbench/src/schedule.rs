//! The open-loop arrival schedule and the seeded input stream.

/// SplitMix64: the benchmark's input generator. The same seed gives
/// the same inputs on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from the workload seed and a stream label.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One rung of a rate ladder: a fixed arrival rate held for a fixed
/// time. Requests are due at evenly spaced instants, independent of
/// when earlier requests complete (an open loop).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Arrival rate, requests per second.
    pub rate: f64,
    /// Offset of the rung's first due time from the run's start, ns.
    pub start_ns: u64,
    /// How long the rung sends, ns.
    pub len_ns: u64,
}

impl Rung {
    /// Requests the rung sends.
    #[must_use]
    pub fn count(&self) -> u64 {
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        {
            (self.rate * self.len_ns as f64 / 1e9).floor() as u64
        }
    }

    /// Time between two requests' due times, ns.
    #[must_use]
    pub fn gap_ns(&self) -> u64 {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            (1e9 / self.rate).round() as u64
        }
    }

    /// When request `i` of the rung is due, ns from the run's start.
    #[must_use]
    pub fn due_ns(&self, i: u64) -> u64 {
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        {
            self.start_ns + (i as f64 * 1e9 / self.rate).round() as u64
        }
    }

    /// Index one past the last request due at or before `now_ns`
    /// (capped at [`Rung::count`]): requests `sent..due_until(now)`
    /// must be written now.
    #[must_use]
    pub fn due_until(&self, now_ns: u64) -> u64 {
        if now_ns < self.start_ns {
            return 0;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let k = ((now_ns - self.start_ns) as f64 * self.rate / 1e9).floor() as u64 + 1;
        let mut k = k.min(self.count());
        // Float rounding may put the boundary one off either way;
        // settle it against `due_ns` itself.
        while k > 0 && self.due_ns(k - 1) > now_ns {
            k -= 1;
        }
        while k < self.count() && self.due_ns(k) <= now_ns {
            k += 1;
        }
        k
    }
}

/// Lays `rates` end to end, each held for `rung_ns`, separated by
/// `gap_ns` of silence so one rung's backlog drains before the next
/// starts.
#[must_use]
pub fn ladder(rates: &[f64], rung_ns: u64, gap_ns: u64) -> Vec<Rung> {
    let mut start_ns = 0;
    rates
        .iter()
        .map(|&rate| {
            let rung = Rung {
                rate,
                start_ns,
                len_ns: rung_ns,
            };
            start_ns += rung_ns + gap_ns;
            rung
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rung_sends_rate_times_duration_evenly() {
        let rung = Rung {
            rate: 20_000.0,
            start_ns: 5_000,
            len_ns: 500_000_000,
        };
        assert_eq!(rung.count(), 10_000);
        assert_eq!(rung.due_ns(0), 5_000);
        assert_eq!(rung.due_ns(1), 55_000);
        assert_eq!(rung.due_ns(9_999), 5_000 + 9_999 * 50_000);
        assert_eq!(rung.gap_ns(), 50_000);
    }

    #[test]
    fn due_until_counts_exactly_the_requests_already_due() {
        let rung = Rung {
            rate: 3_000.0,
            start_ns: 1_000_000,
            len_ns: 1_000_000_000,
        };
        assert_eq!(rung.due_until(0), 0);
        assert_eq!(rung.due_until(999_999), 0);
        assert_eq!(rung.due_until(1_000_000), 1);
        for now in (1_000_000..2_100_000_000).step_by(77_777) {
            let k = rung.due_until(now);
            if k > 0 {
                assert!(rung.due_ns(k - 1) <= now);
            }
            if k < rung.count() {
                assert!(rung.due_ns(k) > now);
            }
        }
        assert_eq!(rung.due_until(u64::MAX / 2), rung.count());
    }

    #[test]
    fn schedule_is_independent_of_completions() {
        // An open loop: a rung's due times depend only on its rate
        // and start, so a stalled server cannot slow the arrivals.
        let rungs = ladder(&[1_000.0, 4_000.0], 250_000_000, 50_000_000);
        assert_eq!(rungs[0].start_ns, 0);
        assert_eq!(rungs[1].start_ns, 300_000_000);
        assert_eq!(rungs[1].count(), 1_000);
        let due: Vec<u64> = (0..rungs[1].count()).map(|i| rungs[1].due_ns(i)).collect();
        assert!(due.windows(2).all(|w| w[1] - w[0] == 250_000));
    }

    #[test]
    fn rng_is_reproducible_per_seed_and_stream() {
        let draws = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draws(7, 1), draws(7, 1));
        assert_ne!(draws(7, 1), draws(7, 2));
        let mut r = Rng::new(1, 0);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }
}
