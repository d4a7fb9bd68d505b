//! The seeded input generator and the ground truth every answer is checked
//! against.
//!
//! The program under test receives only what this module makes: prefix
//! names and their bindings, the file tree and its bytes, each client's
//! op sequence and the writer's schedule. Everything is a pure function of
//! the `--seed`, so a run can be repeated exactly and a claim can be
//! re-checked on a seed that was not used while writing the change.

/// SplitMix64: small, fast, and a bijection on `u64`, so distinct indices
/// always give distinct names.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded pseudo-random stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5eed))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// File tree shape shared by every workload: `u/d<X>/s/f<Y>.txt`, on the
/// file server's host.
pub const DIRS: u64 = 16;
pub const FILES_PER_DIR: u64 = 64;
pub const FILE_BYTES: usize = 256;

pub fn file_path(dir: u64, file: u64) -> String {
    format!("u/d{dir}/s/f{file}.txt")
}

pub fn dir_path(dir: u64) -> String {
    format!("u/d{dir}")
}

/// The bytes of file `(dir, file)`.
pub fn file_bytes(seed: u64, dir: u64, file: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed, 0xf11e_0000 + dir * FILES_PER_DIR + file);
    (0..FILE_BYTES).map(|_| rng.next_u64() as u8).collect()
}

/// Every file of the tree, as the file server's preload.
pub fn file_tree(seed: u64) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::with_capacity((DIRS * FILES_PER_DIR) as usize);
    for d in 0..DIRS {
        for f in 0..FILES_PER_DIR {
            out.push((file_path(d, f), file_bytes(seed, d, f)));
        }
    }
    out
}

/// The prefix name space of one run: `size` live names, each bound to a
/// context, plus names guaranteed absent (planted misses) and fresh names
/// for the writer. Names are hex images of a bijective mix of the index,
/// so they are distinct, seed-dependent and need no storage.
#[derive(Debug, Clone, Copy)]
pub struct Names {
    pub seed: u64,
    pub size: u64,
}

/// Index offsets of the name families: table names are `0..size`, misses
/// and fresh names come from ranges no table index reaches.
const MISS_BASE: u64 = 1 << 40;
const FRESH_BASE: u64 = 1 << 41;

impl Names {
    pub fn name(&self, i: u64) -> String {
        format!("n{:016x}", mix(self.seed ^ mix(i)))
    }

    pub fn miss(&self, k: u64) -> String {
        self.name(MISS_BASE + k)
    }

    pub fn fresh(&self, j: u64) -> String {
        self.name(FRESH_BASE + j)
    }

    /// Which of the file tree's directories name `i` is bound to.
    pub fn dir_of(&self, i: u64) -> u64 {
        mix(self.seed.wrapping_add(0xd1d1) ^ i) % DIRS
    }
}

/// One scheduled write of the open-loop writer.
#[derive(Debug, Clone)]
pub enum Write {
    /// Define a fresh prefix bound to directory `dir`.
    Add { name: String, dir: u64 },
    /// Delete a prefix that is live in the table.
    Delete { name: String },
}

impl Write {
    pub fn name(&self) -> &str {
        match self {
            Write::Add { name, .. } | Write::Delete { name } => name,
        }
    }
}

/// The writer's schedule: alternately add a fresh prefix and delete an old
/// one, so the live size stays constant. Deletes take table names from the
/// top half of the index range in a seeded order, then the writer's own
/// earlier additions, oldest first. The writer runs after the readers
/// stop, so no read races a delete.
pub fn write_schedule(names: &Names, count: usize) -> Vec<Write> {
    let half = names.size / 2;
    let span = names.size - half;
    let mut rng = Rng::new(names.seed, 0x3717e);
    // A seeded start and a stride coprime to `span` visit every top-half
    // index once before any repeats.
    let start = rng.below(span);
    let stride = coprime_stride(span, &mut rng);
    (0..count)
        .map(|k| {
            let j = k as u64 / 2;
            if k % 2 == 0 {
                Write::Add {
                    name: names.fresh(j),
                    dir: mix(names.seed ^ (FRESH_BASE + j)) % DIRS,
                }
            } else if j < span {
                Write::Delete {
                    name: names.name(half + (start + j * stride) % span),
                }
            } else {
                Write::Delete {
                    name: names.fresh(j - span),
                }
            }
        })
        .collect()
}

fn coprime_stride(span: u64, rng: &mut Rng) -> u64 {
    loop {
        let s = 1 + rng.below(span.max(2) - 1);
        if gcd(s, span) == 1 {
            return s;
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct_and_seeded() {
        let a = Names {
            seed: 1,
            size: 1000,
        };
        let b = Names {
            seed: 2,
            size: 1000,
        };
        let set: std::collections::HashSet<String> = (0..1000).map(|i| a.name(i)).collect();
        assert_eq!(set.len(), 1000);
        assert!(!set.contains(&a.miss(0)));
        assert!(!set.contains(&a.fresh(0)));
        assert_ne!(a.name(0), b.name(0));
    }

    #[test]
    fn schedule_deletes_each_live_name_once() {
        for size in [15, 1000] {
            let names = Names { seed: 9, size };
            let sched = write_schedule(&names, 800);
            let mut live: std::collections::HashSet<String> =
                (size / 2..size).map(|i| names.name(i)).collect();
            for w in &sched {
                match w {
                    Write::Add { name, .. } => assert!(live.insert(name.clone())),
                    Write::Delete { name } => assert!(live.remove(name)),
                }
            }
            assert_eq!(live.len() as u64, size - size / 2);
        }
    }
}
