//! The benchmark's own seeded input generator.
//!
//! Keys, values and access patterns come from here and not from
//! `crates/workload`, so editing that crate never changes the benchmark's
//! inputs, and every value is a function of `(key id, seed)` so every read
//! can be verified without storing what was written.

/// Key length in bytes (zero-padded decimal).
pub const KEY_LEN: usize = 16;
/// Value length in bytes.
pub const VALUE_LEN: usize = 100;

/// The splitmix64 finaliser: a stateless 64-bit mix.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// splitmix64 as a sequential generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The key of a *present* record: ids are spread over even numbers so the
/// odd numbers in between ([`absent_key`]) fall inside every table's key
/// range and can only be rejected by a bloom filter or a block read.
pub fn key(id: u64) -> [u8; KEY_LEN] {
    decimal(id * 2)
}

/// A key that is never written, adjacent to `key(id)`.
pub fn absent_key(id: u64) -> [u8; KEY_LEN] {
    decimal(id * 2 + 1)
}

fn decimal(mut n: u64) -> [u8; KEY_LEN] {
    let mut out = [b'0'; KEY_LEN];
    for slot in out.iter_mut().rev() {
        *slot = b'0' + (n % 10) as u8;
        n /= 10;
    }
    out
}

/// The value stored under `key(id)` for this seed: the first half is
/// pseudo-random bytes (incompressible), the second half one repeated
/// byte (compressible), so the engine's compression setting matters about
/// as much as it does on db_bench's default 0.5 entropy.
pub fn value(id: u64, seed: u64) -> [u8; VALUE_LEN] {
    let mut out = [0u8; VALUE_LEN];
    let mut state = mix(id ^ mix(seed));
    for chunk in out[..VALUE_LEN / 2].chunks_mut(8) {
        state = mix(state);
        chunk.copy_from_slice(&state.to_le_bytes()[..chunk.len()]);
    }
    let fill = b'a' + (state % 26) as u8;
    out[VALUE_LEN / 2..].fill(fill);
    out
}

/// `0..n` in a seeded random order (Fisher–Yates).
pub fn permutation(n: u64, seed: u64) -> Vec<u32> {
    let n = u32::try_from(n).expect("benchmark key counts fit in u32");
    let mut ids: Vec<u32> = (0..n).collect();
    let mut rng = Rng::new(mix(seed ^ 0x7065_726d));
    for i in (1..ids.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        ids.swap(i, j);
    }
    ids
}

/// YCSB's zipfian generator (Gray et al.): rank 0 is the most popular.
/// Ranks are scrambled through [`mix`] by [`Zipf::sample`] so popular ids
/// are spread over the key space rather than packed at its start.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |k: u64| (1..=k).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Zipf {
            n,
            theta,
            zetan,
            alpha: 1.0 / (1.0 - theta),
            eta,
        }
    }

    /// The popularity rank of the next request, in `[0, n)`.
    pub fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
            r.min(self.n - 1)
        }
    }

    /// The id of the next request: its rank scrambled over `[0, n)`.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        mix(self.rank(rng)) % self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(permutation(1000, 7), permutation(1000, 7));
        assert_ne!(permutation(1000, 7), permutation(1000, 8));
        assert_eq!(value(5, 7), value(5, 7));
        assert_ne!(value(5, 7), value(5, 8));
        assert_ne!(value(5, 7), value(6, 7));
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            let z = Zipf::new(1000, 0.99);
            (0..100).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn permutation_holds_every_id_once() {
        let mut p = permutation(5000, 1);
        p.sort_unstable();
        assert!(p.iter().enumerate().all(|(i, v)| i as u32 == *v));
    }

    #[test]
    fn keys_sort_like_their_ids_and_absent_keys_interleave() {
        assert_eq!(&key(0), b"0000000000000000");
        assert_eq!(&key(21), b"0000000000000042");
        assert!(key(9) < absent_key(9) && absent_key(9) < key(10));
    }

    #[test]
    fn value_is_half_random_half_one_byte() {
        let v = value(123, 9);
        assert!(v[VALUE_LEN / 2..].iter().all(|b| *b == v[VALUE_LEN / 2]));
        let distinct: std::collections::HashSet<u8> = v[..VALUE_LEN / 2].iter().copied().collect();
        assert!(distinct.len() > 20, "first half should look random");
    }

    #[test]
    fn zipfian_is_skewed_towards_low_ranks() {
        let z = Zipf::new(100_000, 0.99);
        let mut rng = Rng::new(11);
        let draws = 200_000;
        let mut top1 = 0u64;
        let mut top100 = 0u64;
        for _ in 0..draws {
            let r = z.rank(&mut rng);
            assert!(r < 100_000);
            top1 += u64::from(r == 0);
            top100 += u64::from(r < 100);
        }
        // theta 0.99 over 100k items: rank 0 draws ~8%, the top 0.1% of
        // ranks ~43% (uniform would give 0.001% and 0.1%).
        let (p1, p100) = (top1 as f64 / draws as f64, top100 as f64 / draws as f64);
        assert!((0.06..0.11).contains(&p1), "rank 0 share {p1}");
        assert!((0.35..0.50).contains(&p100), "top-100 share {p100}");
    }
}
