//! Seeded input generation. The benchmark owns its generator so that the
//! program under test receives only matrices and arrival times, never the
//! seed, and a change to a library helper cannot change the inputs.

use mph_linalg::Matrix;

/// SplitMix64: a small, fast, well-mixed generator whose output depends
/// only on the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream of a workload seed. Distinct
    /// `stream` tags give independent sequences from one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed(&mut self) -> f64 {
        2.0 * self.unit() - 1.0
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Exponential with mean 1.
    pub fn exp1(&mut self) -> f64 {
        -(1.0 - self.unit()).ln()
    }
}

/// A dense symmetric `m × m` matrix with entries uniform in `[-1, 1)`.
pub fn symmetric(m: usize, rng: &mut Rng) -> Matrix {
    let mut a = Matrix::zeros(m, m);
    for j in 0..m {
        for i in 0..=j {
            let v = rng.signed();
            a[(i, j)] = v;
            a[(j, i)] = v;
        }
    }
    a
}

/// A dense `rows × cols` matrix with entries uniform in `[-1, 1)`.
pub fn general(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.signed())
}
