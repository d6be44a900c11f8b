//! Seeded, splittable randomness for reproducible simulations.
//!
//! Self-contained implementation (no external crates): a xoshiro256++
//! generator seeded through splitmix64, the standard construction from
//! Blackman & Vigna. Streams are derived by hashing a label into the root
//! seed, so components can be wired up in any order without perturbing each
//! other's draws.

/// A deterministic random-number generator for simulation runs.
///
/// Every run is driven from one root seed; independent model components
/// (arrival process, each service's demand sampler, the load balancer, …)
/// take their own *stream* via [`SimRng::split`] so that adding a sampler to
/// one component does not perturb the random sequence seen by another.
///
/// # Example
///
/// ```
/// use sim_core::SimRng;
///
/// let mut root = SimRng::seed_from(42);
/// let mut arrivals = root.split("arrivals");
/// let mut demands = root.split("demands");
/// let a1 = arrivals.f64();
/// let d1 = demands.f64();
/// // Re-deriving the same stream replays it.
/// let mut root2 = SimRng::seed_from(42);
/// assert_eq!(root2.split("arrivals").f64(), a1);
/// root2.split("ignored-in-between"); // splits are order-independent
/// assert_eq!(root2.split("demands").f64(), d1);
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a root seed.
    pub fn seed_from(seed: u64) -> Self {
        // Expand the seed into xoshiro state via splitmix64, per the
        // generator authors' recommendation.
        let mut x = seed;
        let mut state = [0u64; 4];
        for s in &mut state {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            *s = mix(x);
        }
        SimRng { seed, state }
    }

    /// The root seed this generator (or its parent) was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent named stream.
    ///
    /// The derived stream depends only on the root seed and `label`, not on
    /// how much randomness has been consumed from `self`, so components can
    /// be wired up in any order without changing each other's draws.
    pub fn split(&self, label: &str) -> SimRng {
        let sub = splitmix64(self.seed ^ fnv1a(label.as_bytes()));
        SimRng::seed_from(sub)
    }

    /// Derives an independent stream indexed by an integer (e.g. a replica id).
    pub fn split_index(&self, label: &str, index: u64) -> SimRng {
        let sub = splitmix64(self.seed ^ fnv1a(label.as_bytes()) ^ splitmix64(index));
        SimRng::seed_from(sub)
    }

    /// Next raw 64-bit draw (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform draw in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn range_f64(&mut self, low: f64, high: f64) -> f64 {
        assert!(low < high, "empty range [{low}, {high})");
        low + self.f64() * (high - low)
    }

    /// A uniform integer draw in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw an index from an empty range");
        // Lemire-style multiply-shift keeps the draw unbiased without
        // division in the common case.
        let n = n as u64;
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// A uniform integer draw in `[low, high]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn u64_inclusive(&mut self, low: u64, high: u64) -> u64 {
        assert!(low <= high, "empty range [{low}, {high}]");
        let span = high - low;
        if span == u64::MAX {
            return self.next_u64();
        }
        let n = span + 1;
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        low + (m >> 64) as u64
    }

    /// A Bernoulli draw with probability `p` of `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.f64() < p
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The splitmix64 output mix (finalisation only).
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn splitmix64(x: u64) -> u64 {
    mix(x.wrapping_add(0x9e37_79b9_7f4a_7c15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_replays() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(8);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be essentially disjoint");
    }

    #[test]
    fn splits_are_independent_of_consumption() {
        let mut a = SimRng::seed_from(1);
        let _ = a.next_u64(); // consume some
        let mut s1 = a.split("x");
        let b = SimRng::seed_from(1);
        let mut s2 = b.split("x");
        assert_eq!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    fn split_labels_distinguish_streams() {
        let root = SimRng::seed_from(3);
        let mut x = root.split("x");
        let mut y = root.split("y");
        assert_ne!(x.next_u64(), y.next_u64());
        let mut i0 = root.split_index("svc", 0);
        let mut i1 = root.split_index("svc", 1);
        assert_ne!(i0.next_u64(), i1.next_u64());
    }

    #[test]
    fn draws_respect_ranges() {
        let mut r = SimRng::seed_from(11);
        for _ in 0..1_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
            let u = r.range_f64(2.0, 3.0);
            assert!((2.0..3.0).contains(&u));
            let i = r.index(5);
            assert!(i < 5);
            let k = r.u64_inclusive(10, 20);
            assert!((10..=20).contains(&k));
        }
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn index_is_roughly_uniform() {
        let mut r = SimRng::seed_from(17);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[r.index(5)] += 1;
        }
        for c in counts {
            assert!((9_000..11_000).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SimRng::seed_from(0).range_f64(1.0, 1.0);
    }
}
