//! Seeded inputs: datasets, append batches and request lines.
//!
//! Everything here is a pure function of the workload seed, produced by
//! the benchmark's own generator (not the program's), so a later change
//! to the program cannot change what the benchmark feeds it.

use std::io::Write;
use std::path::Path;

/// Signature size of every query.
pub const T: usize = 64;
/// Parameters of every `method=lsh` query.
pub const LSH_XI: f64 = 0.2;
pub const LSH_BUCKETS: usize = 20;

/// Generator seed of every workload's base dataset (see
/// `workloads::dataset` for why it is fixed).
pub const DATA_SEED: u64 = 1;

/// splitmix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
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

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.unit().max(1e-300);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Anti-correlated points (`ANT`): coordinates of a point sum to about
/// `sum_mean · d`, split across dimensions in uniform proportions, so a
/// point good in one dimension is bad in another and the skyline is
/// large. Row-major, `n · d` values in `[0, 1]`.
pub fn ant(n: usize, d: usize, sum_mean: f64, rng: &mut Rng) -> Vec<f64> {
    let mut out = Vec::with_capacity(n * d);
    let mut parts = vec![0.0f64; d];
    for _ in 0..n {
        let total = (sum_mean + 0.05 * rng.normal()).clamp(0.0, 1.0) * d as f64;
        let mut s = 0.0;
        for p in parts.iter_mut() {
            *p = rng.unit() + 1e-9;
            s += *p;
        }
        for p in &parts {
            out.push((p / s * total).clamp(0.0, 1.0));
        }
    }
    out
}

/// Writes row-major points as a headerless CSV. `{}` prints the
/// shortest text that parses back to the same `f64`, so the server
/// reads exactly these bits.
pub fn write_csv(path: &Path, dims: usize, flat: &[f64]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for row in flat.chunks(dims) {
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            write!(w, "{v}")?;
        }
        w.write_all(b"\n")?;
    }
    w.flush()
}

/// The identity of one signature-method query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryKey {
    pub seed: u64,
    pub k: usize,
    pub lsh: bool,
}

impl QueryKey {
    pub fn mh(seed: u64, k: usize) -> Self {
        QueryKey {
            seed,
            k,
            lsh: false,
        }
    }

    /// The wire `QUERY` line (no newline).
    pub fn line(&self, dataset: &str) -> String {
        let mut line = format!(
            "QUERY dataset={dataset} k={} method={} t={T} seed={}",
            self.k,
            if self.lsh { "lsh" } else { "mh" },
            self.seed
        );
        if self.lsh {
            line.push_str(&format!(" xi={LSH_XI} buckets={LSH_BUCKETS}"));
        }
        line
    }
}

/// `warm_select`'s two hash seeds.
pub fn warm_seeds(seed: u64) -> [u64; 2] {
    let mut r = Rng::stream(seed, 1);
    let a = r.range(1, 1 << 20);
    [a, a + 1 + r.range(0, 1 << 20)]
}

/// Share of `warm_select` requests drawn from the hot set.
pub const HOT_SHARE: f64 = 0.9;
/// Size of `warm_select`'s hot key set.
pub const HOT_KEYS: usize = 32;
/// `k` range of `warm_select`'s fresh keys.
pub const FRESH_K: (u64, u64) = (5, 200);

/// A key drawn uniformly from `warm_select`'s key space:
/// `k ∈ FRESH_K × {mh, lsh} × warm_seeds`.
fn draw_key(seeds: &[u64; 2], rng: &mut Rng) -> QueryKey {
    QueryKey {
        seed: seeds[rng.range(0, 1) as usize],
        k: rng.range(FRESH_K.0, FRESH_K.1) as usize,
        lsh: rng.range(0, 1) == 1,
    }
}

/// `warm_select`'s hot key set.
pub fn hot_keys(seed: u64) -> Vec<QueryKey> {
    let seeds = warm_seeds(seed);
    let mut rng = Rng::stream(seed, 2);
    let mut keys: Vec<QueryKey> = Vec::with_capacity(HOT_KEYS);
    while keys.len() < HOT_KEYS {
        let k = draw_key(&seeds, &mut rng);
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys
}

/// The endless request stream of one `warm_select` connection.
pub struct WarmStream {
    seeds: [u64; 2],
    hot: Vec<QueryKey>,
    rng: Rng,
}

impl WarmStream {
    pub fn new(seed: u64, conn: u64) -> Self {
        WarmStream {
            seeds: warm_seeds(seed),
            hot: hot_keys(seed),
            rng: Rng::stream(seed, 100 + conn),
        }
    }
}

impl Iterator for WarmStream {
    type Item = QueryKey;

    fn next(&mut self) -> Option<QueryKey> {
        Some(if self.rng.unit() < HOT_SHARE {
            self.hot[self.rng.range(0, HOT_KEYS as u64 - 1) as usize]
        } else {
            draw_key(&self.seeds, &mut self.rng)
        })
    }
}

/// The `i`-th fresh hash seed of a stream: distinct for every `i`, so
/// no memo, cache or store can answer it.
pub fn fresh_seed(seed: u64, stream: u64, i: u64) -> u64 {
    (Rng::stream(seed, stream).next_u64() >> 24) + i
}

/// `append_mix`'s `i`-th append batch: `rows` points from a slightly
/// better-than-base distribution, so some rows join the skyline.
pub fn append_batch(seed: u64, i: u64, rows: usize, dims: usize) -> Vec<f64> {
    ant(rows, dims, 0.49, &mut Rng::stream(seed, 1000 + i))
}

/// `k` of `append_mix`'s two warm queries after the `i`-th refresh.
pub fn append_warm_ks(seed: u64, i: u64) -> [usize; 2] {
    let mut r = Rng::stream(seed, 500_000 + i);
    [r.range(11, 100) as usize, r.range(101, 200) as usize]
}
