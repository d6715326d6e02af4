//! Workload inputs and the independent correctness oracle.
//!
//! Seed 0 is the canonical CHStone input stream (`chstone::input_for`), so
//! the committed cycle goldens apply to it. Any other seed draws inputs of
//! the same shape (same lengths and value ranges) from this file's own
//! generator.
//!
//! The oracle runs the reference interpreter on the *unoptimized* frontend
//! IR: it shares no code with the passes, DSWP, HLS or the simulator, so a
//! bug in any of those cannot also corrupt the expected output.

use std::time::Instant;

use chstone::Benchmark;

/// Interpreter step budget for one reference run.
const FUEL: u64 = 4_000_000_000;

/// SplitMix64: the benchmark's own input generator.
struct Gen(u64);

impl Gen {
    fn new(seed: u64, name: &str) -> Gen {
        let salt = name.bytes().fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
        Gen(seed ^ salt.rotate_left(17))
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> i32 {
        (self.next() % n) as i32
    }
    fn word(&mut self) -> i32 {
        self.next() as i32
    }
}

/// The input stream of `b` at `scale` for `seed`.
pub fn input_for(b: &Benchmark, scale: u32, seed: u64) -> Vec<i32> {
    if seed == 0 {
        return chstone::input_for(b.name, scale);
    }
    let scale = scale.max(1) as i32;
    let mut g = Gen::new(seed, b.name);
    let mut v = Vec::new();
    match b.name {
        "sha" => {
            v.push(2 * scale);
            v.extend((0..2 * scale * 16).map(|_| g.word()));
        }
        "aes" => {
            v.extend((0..4).map(|_| g.word()));
            v.push(2 * scale);
            v.extend((0..2 * scale * 4).map(|_| g.word()));
        }
        "adpcm" => {
            let n = 120 * scale;
            v.push(n);
            let mut s: i32 = 0;
            for _ in 0..n {
                s = (s + g.below(2048) - 1024).clamp(-30000, 30000);
                v.push(s);
            }
        }
        "gsm" => {
            v.push(scale);
            v.extend((0..scale * 40).map(|_| g.below(256)));
        }
        "blowfish" => {
            v.extend((0..4).map(|_| g.word()));
            v.push(8 * scale);
            v.extend((0..8 * scale * 2).map(|_| g.word()));
        }
        "mips" => {
            v.push(16);
            v.extend((0..16).map(|_| g.below(1000)));
        }
        "jpeg" => {
            v.push(scale);
            for _ in 0..scale {
                for i in 0..64 {
                    if i == 0 {
                        v.push(g.below(128) - 64);
                    } else if i < 24 && g.below(4) == 0 {
                        v.push(g.below(31) - 15);
                    } else {
                        v.push(0);
                    }
                }
            }
        }
        "motion" => {
            v.push(g.word() | 1);
            v.push((2 * scale).min(9));
        }
        other => panic!("no input generator for benchmark '{other}'"),
    }
    v
}

/// One program's input and its reference output.
#[derive(Clone, Debug)]
pub struct Case {
    pub bench: Benchmark,
    pub input: Vec<i32>,
    pub expected: Vec<i32>,
}

/// Reference outputs for a suite, with the interpreter's cost.
pub struct Oracle {
    pub cases: Vec<Case>,
    pub interp_ns: u64,
    pub interp_steps: u64,
}

impl Oracle {
    /// Interpret every program's unoptimized frontend IR on its input.
    /// `scale` picks each program's workload scale.
    pub fn build(seed: u64, scale: impl Fn(&Benchmark) -> u32) -> Result<Oracle, String> {
        let mut cases = Vec::new();
        let (mut interp_ns, mut interp_steps) = (0, 0);
        for b in chstone::all() {
            let input = input_for(&b, scale(&b), seed);
            let raw = twill_frontend::compile(b.name, b.source)
                .map_err(|e| format!("{}: frontend: {e}", b.name))?;
            let t = Instant::now();
            let (expected, _, steps) = twill_ir::interp::run_main(&raw, input.clone(), FUEL)
                .map_err(|e| format!("{}: reference interpreter: {e:?}", b.name))?;
            interp_ns += t.elapsed().as_nanos() as u64;
            interp_steps += steps;
            cases.push(Case { bench: b, input, expected });
        }
        Ok(Oracle { cases, interp_ns, interp_steps })
    }
}

/// Run the reference interpreter on an already-compiled module (used to
/// check that the passes preserved a program's meaning).
pub fn interpret(m: &twill_ir::Module, input: &[i32]) -> Result<Vec<i32>, String> {
    twill_ir::interp::run_main(m, input.to_vec(), FUEL)
        .map(|(out, _, _)| out)
        .map_err(|e| format!("{e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_canonical_stream_and_other_seeds_keep_its_shape() {
        for b in chstone::all() {
            let canon = chstone::input_for(b.name, 2);
            assert_eq!(input_for(&b, 2, 0), canon, "{}", b.name);
            let a = input_for(&b, 2, 7);
            assert_eq!(a.len(), canon.len(), "{}", b.name);
            assert_eq!(a, input_for(&b, 2, 7), "{}: same seed, same input", b.name);
            assert_ne!(a, input_for(&b, 2, 8), "{}: seeds differ", b.name);
        }
    }
}
