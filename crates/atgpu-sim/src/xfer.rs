//! The host↔device transfer engine.
//!
//! Each transfer transaction costs `α + β·words` milliseconds — Boyer et
//! al.'s affine model, which the paper adopts for its cost function — and
//! moves the words through [`crate::gmem`]'s one copy rule, which skips
//! the chunks its destination provably holds already: every word is
//! priced, only the ones the destination lacks are copied.  The public
//! doors take untagged slices (unknown provenance, always copied); the
//! program driver passes its tagged host buffers to the same body.
//! Optional multiplicative noise (seeded, uniform in `[1−ε, 1+ε]` for a
//! finite `0 ≤ ε < 1`, checked where a run starts) lets experiments
//! produce realistically jittery "observed" curves while remaining
//! reproducible.

use crate::error::SimError;
use crate::gmem::{self, GlobalMemory, Tagged, TaggedMut};
use atgpu_model::LinkParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Relative transfer-time jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XferNoise {
    /// Relative amplitude ε (e.g. 0.02 for ±2%): a finite `0 ≤ ε < 1`.
    pub rel: f64,
}

impl XferNoise {
    /// Refuses an amplitude the jitter cannot honour: anything but a
    /// finite `0 ≤ ε < 1` (at `ε ≥ 1` a transfer could take no or
    /// negative time, an infinite one makes every time `NaN`, and `NaN`
    /// would silently mean no noise).
    pub(crate) fn check(&self) -> Result<(), SimError> {
        if (0.0..1.0).contains(&self.rel) {
            return Ok(());
        }
        Err(SimError::InvalidNoise {
            reason: format!("relative amplitude {} is not a finite 0 ≤ ε < 1", self.rel),
        })
    }
}

/// The transfer engine.
#[derive(Debug)]
pub struct TransferEngine {
    link: LinkParams,
    noise: Option<XferNoise>,
    rng: StdRng,
}

impl TransferEngine {
    /// Creates an engine for one explicit link — a host↔device edge or a
    /// device↔device peer edge of a multi-GPU system.  Each link carries
    /// its own `α`/`β` and its own jitter stream.
    pub fn with_link(link: &LinkParams, noise: Option<XferNoise>, seed: u64) -> Self {
        Self { link: *link, noise, rng: StdRng::seed_from_u64(seed) }
    }

    /// The link parameters this engine prices transfers with.
    pub fn link(&self) -> LinkParams {
        self.link
    }

    /// One transaction of `words` words: [`LinkParams::cost_ms`] times
    /// this link's jitter.
    fn price(&mut self, words: u64) -> f64 {
        let jitter = match self.noise {
            Some(XferNoise { rel }) if rel > 0.0 => self.rng.gen_range(1.0 - rel..=1.0 + rel),
            _ => 1.0,
        };
        self.link.cost_ms(1, words) * jitter
    }

    /// Prices one inward transaction of `words` words without moving any
    /// data.  The recovery path uses this to charge a survivor for
    /// absorbing a dead device's host-side checkpoint — the words
    /// themselves are restored from the checkpoint journal, not copied
    /// from a device buffer.
    pub fn replay_in(&mut self, words: u64) -> f64 {
        self.price(words)
    }

    /// One transaction of `words` words from `src` at `from` to `dst` at
    /// `to`, the body of every door: the copy rule moves what `dst` does
    /// not hold, the link prices all of it.  Returns the elapsed
    /// milliseconds and the words physically copied.
    pub(crate) fn transfer(
        &mut self,
        src: Tagged<'_>,
        from: u64,
        dst: &mut TaggedMut<'_>,
        to: u64,
        words: u64,
    ) -> (f64, u64) {
        let copied = gmem::copy(src, from as usize, dst, to as usize, words as usize);
        (self.price(words), copied)
    }

    /// Host→device copy of an untagged slice; returns elapsed
    /// milliseconds.
    pub fn to_device(&mut self, gmem: &mut GlobalMemory, dst: u64, data: &[i64]) -> f64 {
        let words = data.len() as u64;
        self.transfer(Tagged::untagged(data), 0, &mut gmem.tagged_mut(), dst, words).0
    }

    /// Device→host copy into an untagged slice; returns elapsed
    /// milliseconds.
    pub fn to_host(&mut self, gmem: &GlobalMemory, src: u64, out: &mut [i64]) -> f64 {
        let words = out.len() as u64;
        self.transfer(gmem.tagged(), src, &mut TaggedMut::untagged(out), 0, words).0
    }

    /// Device→device copy over this engine's (peer) link; returns elapsed
    /// milliseconds.  The source's tags are only read.
    pub fn peer(
        &mut self,
        src: &GlobalMemory,
        src_addr: u64,
        dst: &mut GlobalMemory,
        dst_addr: u64,
        words: u64,
    ) -> f64 {
        self.transfer(src.tagged(), src_addr, &mut dst.tagged_mut(), dst_addr, words).0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use atgpu_model::GpuSpec;

    fn spec() -> GpuSpec {
        GpuSpec { xfer_alpha_ms: 0.5, xfer_beta_ms_per_word: 0.01, ..GpuSpec::gtx650_like() }
    }

    #[test]
    fn affine_cost_without_noise() {
        let mut g = GlobalMemory::new(vec![0], 64, 32, 1024).unwrap();
        let mut e = TransferEngine::with_link(&spec().host_link(), None, 0);
        let t = e.to_device(&mut g, 0, &[1, 2, 3, 4]);
        assert!((t - (0.5 + 0.04)).abs() < 1e-12);
        assert_eq!(g.read(2), Some(3));
    }

    #[test]
    fn outward_copy_and_cost() {
        let mut g = GlobalMemory::new(vec![0], 64, 32, 1024).unwrap();
        g.write(0, 7);
        g.write(1, 8);
        let mut e = TransferEngine::with_link(&spec().host_link(), None, 0);
        let mut out = vec![0; 2];
        let t = e.to_host(&g, 0, &mut out);
        assert_eq!(out, vec![7, 8]);
        assert!((t - 0.52).abs() < 1e-12);
    }

    #[test]
    fn noise_is_bounded_and_seeded() {
        let mut g = GlobalMemory::new(vec![0], 64, 32, 1024).unwrap();
        let mut e1 =
            TransferEngine::with_link(&spec().host_link(), Some(XferNoise { rel: 0.1 }), 42);
        let mut e2 =
            TransferEngine::with_link(&spec().host_link(), Some(XferNoise { rel: 0.1 }), 42);
        let base = 0.5 + 0.04;
        for _ in 0..10 {
            let t1 = e1.to_device(&mut g, 0, &[1, 2, 3, 4]);
            let t2 = e2.to_device(&mut g, 0, &[1, 2, 3, 4]);
            assert_eq!(t1, t2, "same seed must give same jitter");
            assert!(t1 >= base * 0.9 - 1e-12 && t1 <= base * 1.1 + 1e-12);
        }
    }

    #[test]
    fn zero_word_transfer_costs_alpha() {
        let mut g = GlobalMemory::new(vec![0], 64, 32, 1024).unwrap();
        let mut e = TransferEngine::with_link(&spec().host_link(), None, 0);
        let t = e.to_device(&mut g, 0, &[]);
        assert!((t - 0.5).abs() < 1e-12);
    }

    #[test]
    fn transaction_mix_costs_exactly_txns_alpha_plus_words_beta() {
        // A crafted mix of Î = 4 inward transactions moving I = 1+7+32+0
        // words and Ô = 2 outward transactions moving O = 5+11 words must
        // cost exactly Î·α + I·β and Ô·α + O·β.
        let mut g = GlobalMemory::new(vec![0], 64, 32, 1024).unwrap();
        let mut e = TransferEngine::with_link(&spec().host_link(), None, 0);
        let mut total_in = 0.0;
        for words in [1usize, 7, 32, 0] {
            total_in += e.to_device(&mut g, 0, &vec![9; words]);
        }
        let mut total_out = 0.0;
        for words in [5usize, 11] {
            let mut out = vec![0; words];
            total_out += e.to_host(&g, 0, &mut out);
        }
        assert!((total_in - (4.0 * 0.5 + 40.0 * 0.01)).abs() < 1e-12, "T_I = Î·α + I·β");
        assert!((total_out - (2.0 * 0.5 + 16.0 * 0.01)).abs() < 1e-12, "T_O = Ô·α + O·β");
    }

    #[test]
    fn per_link_engines_price_their_own_link() {
        let fast = LinkParams { alpha_ms: 0.1, beta_ms_per_word: 0.001 };
        let slow = LinkParams { alpha_ms: 0.4, beta_ms_per_word: 0.02 };
        let mut g = GlobalMemory::new(vec![0], 64, 32, 1024).unwrap();
        let mut ef = TransferEngine::with_link(&fast, None, 0);
        let mut es = TransferEngine::with_link(&slow, None, 0);
        assert_eq!(ef.link(), fast);
        let tf = ef.to_device(&mut g, 0, &[1; 10]);
        let ts = es.to_device(&mut g, 0, &[1; 10]);
        assert!((tf - 0.11).abs() < 1e-12);
        assert!((ts - 0.6).abs() < 1e-12);
    }

    #[test]
    fn peer_copy_moves_words_and_costs_affine() {
        let link = LinkParams { alpha_ms: 0.25, beta_ms_per_word: 0.005 };
        let mut src = GlobalMemory::new(vec![0], 64, 32, 1024).unwrap();
        let mut dst = GlobalMemory::new(vec![0], 64, 32, 1024).unwrap();
        for i in 0..8 {
            src.write(i, 100 + i);
        }
        let mut e = TransferEngine::with_link(&link, None, 0);
        let t = e.peer(&src, 2, &mut dst, 10, 4);
        assert!((t - (0.25 + 4.0 * 0.005)).abs() < 1e-12);
        for i in 0..4 {
            assert_eq!(dst.read(10 + i), Some(102 + i));
        }
    }

    #[test]
    fn peer_links_can_be_asymmetric() {
        // A directed pair: 0→1 is NVLink-fast, 1→0 crosses a slow hop.
        let fwd = LinkParams { alpha_ms: 0.01, beta_ms_per_word: 1e-4 };
        let rev = LinkParams { alpha_ms: 0.2, beta_ms_per_word: 4e-3 };
        let mut a = GlobalMemory::new(vec![0], 64, 32, 1024).unwrap();
        let mut b = GlobalMemory::new(vec![0], 64, 32, 1024).unwrap();
        let mut ef = TransferEngine::with_link(&fwd, None, 1);
        let mut er = TransferEngine::with_link(&rev, None, 1);
        let t_fwd = ef.peer(&a, 0, &mut b, 0, 32);
        let t_rev = er.peer(&b, 0, &mut a, 0, 32);
        assert!((t_fwd - (0.01 + 32.0 * 1e-4)).abs() < 1e-12);
        assert!((t_rev - (0.2 + 32.0 * 4e-3)).abs() < 1e-12);
        assert!(t_rev > 10.0 * t_fwd, "the two directions must price independently");
    }

    #[test]
    fn peer_noise_is_deterministic_per_seed() {
        let link = LinkParams { alpha_ms: 0.25, beta_ms_per_word: 0.005 };
        let noise = Some(XferNoise { rel: 0.1 });
        let run = |seed: u64| -> Vec<f64> {
            let src = GlobalMemory::new(vec![0], 64, 32, 1024).unwrap();
            let mut dst = GlobalMemory::new(vec![0], 64, 32, 1024).unwrap();
            let mut e = TransferEngine::with_link(&link, noise, seed);
            (0..6).map(|i| e.peer(&src, 0, &mut dst, 0, i * 3)).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same jitter stream");
        assert_ne!(run(7), run(8), "different seeds must decorrelate");
        let base = |w: f64| 0.25 + w * 0.005;
        for (i, t) in run(7).iter().enumerate() {
            let b = base((i * 3) as f64);
            assert!(*t >= b * 0.9 - 1e-12 && *t <= b * 1.1 + 1e-12, "jitter bounded");
        }
    }
}
