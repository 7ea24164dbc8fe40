//! Cost parameters `γ, λ, σ, α, β` and concrete GPU specifications.
//!
//! The paper's cost function (§III) is parameterised by five constants:
//!
//! * **operation rate `γ`** — "the cost for a multiprocessor to execute a
//!   single instruction […] corresponds to the clock rate of the GPU";
//! * **global memory latency `λ`** — cycles to access one global-memory
//!   block ("in the region of 400–800 cycles");
//! * **fixed synchronisation cost `σ`** — per-round overhead ("resetting
//!   the device, de-allocating and reallocating of data structures,
//!   clearing queues");
//! * **transfer constants `α`, `β`** — Boyer et al.'s model of a
//!   host↔device copy: a transaction costs `α` up-front plus `β` per word.
//!
//! Each constant is a [`GpuSpec`] field, and
//! [`GpuSpec::derived_cost_params`] is the one mapping from the fields to
//! the symbols.  The spec adds what Expression (2) needs to simulate a
//! *real* GPU: the physical multiprocessor count `k′` and the hardware
//! limit `H` on blocks resident per MP, plus the bandwidth-style
//! quantities the `atgpu-sim` substrate uses to play the role of the
//! paper's GTX 650.

use crate::error::ModelError;

/// The five cost constants of the ATGPU cost function, as
/// [`GpuSpec::derived_cost_params`] reads them off a spec — a view, not a
/// second source: no cost function takes one.
///
/// Units: `gamma` is in cycles per millisecond (a clock rate), `lambda` in
/// cycles per block access, and `sigma`, `alpha`, `beta` in milliseconds, so
/// that every term of the cost function comes out in milliseconds.  Any
/// consistent unit system works; the paper itself plots unitless costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Operation rate `γ` (cycles per millisecond).
    pub gamma: f64,
    /// Global-memory block access latency `λ` (cycles).
    pub lambda: f64,
    /// Fixed synchronisation cost per round `σ` (milliseconds).
    pub sigma: f64,
    /// Per-transaction transfer overhead `α` (milliseconds).
    pub alpha: f64,
    /// Per-word transfer cost `β` (milliseconds per word).
    pub beta: f64,
}

/// A concrete GPU for the GPU-cost function (Expression 2) and for the
/// simulator substrate.
///
/// The model part is `k′` (physical MPs) and `H` (hardware cap on resident
/// blocks per MP).  The remaining fields parameterise `atgpu-sim`'s timing:
/// they are *not* part of the abstract model, but they are what the
/// simulated "hardware" uses, in the same way the paper's GTX 650 has
/// microarchitectural behaviour the model abstracts away.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Physical multiprocessor count `k′`.
    pub k_prime: u64,
    /// Hardware limit `H` on thread blocks resident per MP.
    pub h_limit: u64,
    /// Core clock in cycles per millisecond (simulator time base) — the
    /// operation rate `γ`.
    pub clock_cycles_per_ms: f64,
    /// Global-memory (DRAM) access latency in cycles — what a warp waits
    /// when latency is not hidden.  At most [`GpuSpec::MAX_DRAM_CYCLES`]:
    /// the simulated clock adds it once per access.
    pub dram_latency_cycles: u64,
    /// Minimum cycles between successive DRAM block transactions the memory
    /// controller can issue (models bandwidth; shared across the device) —
    /// the effective block-access cost `λ` (see
    /// [`GpuSpec::derived_cost_params`]).  At most
    /// [`GpuSpec::MAX_DRAM_CYCLES`]: the simulated clock adds it once per
    /// transaction.
    pub dram_issue_cycles: u64,
    /// Host→device / device→host per-transaction setup time (ms) — the
    /// transfer overhead `α`.
    pub xfer_alpha_ms: f64,
    /// Host↔device per-word time (ms/word) — the per-word cost `β`.
    pub xfer_beta_ms_per_word: f64,
    /// Per-round synchronisation overhead (ms) — the fixed cost `σ`.
    pub sync_ms: f64,
}

impl GpuSpec {
    /// The largest [`GpuSpec::dram_latency_cycles`] and
    /// [`GpuSpec::dram_issue_cycles`] a spec may state: 2³² cycles, four
    /// seconds of a 1 GHz clock per access.  The simulator's clocks are
    /// `u64` cycle counts that every access advances by the latency plus
    /// one issue interval per transaction, so this bound leaves them room
    /// for 2²⁵ accesses of 64 transactions each where an unbounded field
    /// would overflow them on the first access.
    pub const MAX_DRAM_CYCLES: u64 = 1 << 32;

    /// Validates the specification.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.k_prime == 0 {
            return Err(ModelError::InvalidParams { reason: "k_prime must be at least 1".into() });
        }
        if self.h_limit == 0 {
            return Err(ModelError::InvalidParams { reason: "h_limit must be at least 1".into() });
        }
        if !(self.clock_cycles_per_ms.is_finite() && self.clock_cycles_per_ms > 0.0) {
            return Err(ModelError::InvalidParams {
                reason: "clock must be finite and positive".into(),
            });
        }
        for (name, v) in [
            ("dram_latency_cycles", self.dram_latency_cycles),
            ("dram_issue_cycles", self.dram_issue_cycles),
        ] {
            if v > Self::MAX_DRAM_CYCLES {
                return Err(ModelError::InvalidParams {
                    reason: format!("{name} must be at most 2^32 cycles, got {v}"),
                });
            }
        }
        for (name, v) in [
            ("xfer_alpha_ms", self.xfer_alpha_ms),
            ("xfer_beta_ms_per_word", self.xfer_beta_ms_per_word),
            ("sync_ms", self.sync_ms),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(ModelError::InvalidParams {
                    reason: format!("{name} must be finite and non-negative"),
                });
            }
        }
        Ok(())
    }

    /// A GTX 650-like device: 2 SMX-style multiprocessors, 16 resident
    /// blocks each, 1058 MHz (`γ` = 1.058e6 cycles/ms), ~500-cycle DRAM
    /// latency, DRAM able to start a 32-word block transaction every 15
    /// cycles (`λ` = 15; ≈ 18 GB/s effective at 4-byte words — a realistic
    /// streaming rate for the card), PCIe sustaining ≈ 1.7 GB/s as the
    /// paper's observed transfer times imply (`β` ≈ 2.35e-6 ms/word, `α` =
    /// 0.015 ms of DMA setup), 0.08 ms of driver sync and relaunch per
    /// round (`σ`).
    pub fn gtx650_like() -> Self {
        Self {
            k_prime: 2,
            h_limit: 16,
            clock_cycles_per_ms: 1.058e6,
            dram_latency_cycles: 500,
            dram_issue_cycles: 15,
            xfer_alpha_ms: 0.015,
            xfer_beta_ms_per_word: 2.35e-6,
            sync_ms: 0.08,
        }
    }

    /// A mid-range device (GTX 1060-like): 10 MPs, faster DRAM and PCIe 3.0.
    pub fn midrange_like() -> Self {
        Self {
            k_prime: 10,
            h_limit: 32,
            clock_cycles_per_ms: 1.708e6,
            dram_latency_cycles: 400,
            dram_issue_cycles: 10,
            xfer_alpha_ms: 0.010,
            xfer_beta_ms_per_word: 4.0e-7,
            sync_ms: 0.05,
        }
    }

    /// A high-end device (V100-like): 80 MPs, HBM-class memory, fast link.
    pub fn highend_like() -> Self {
        Self {
            k_prime: 80,
            h_limit: 32,
            clock_cycles_per_ms: 1.53e6,
            dram_latency_cycles: 350,
            dram_issue_cycles: 2,
            xfer_alpha_ms: 0.008,
            xfer_beta_ms_per_word: 2.5e-7,
            sync_ms: 0.03,
        }
    }

    /// The affine parameters of this device's host↔device link.
    pub fn host_link(&self) -> LinkParams {
        LinkParams { alpha_ms: self.xfer_alpha_ms, beta_ms_per_word: self.xfer_beta_ms_per_word }
    }

    /// Derives abstract cost parameters from this specification — the
    /// one spec→constants mapping every cost function reads: `γ` is the
    /// clock, `σ`, `α` and `β` are the device's own sync and link
    /// constants (Boyer et al.'s `α + β·w`; a cluster prices each device's
    /// transfers on its own [`ClusterSpec::host_links`] entry instead).
    ///
    /// `λ` subtlety: the paper quotes the *raw* access latency ("400–800
    /// cycles"), but the cost function charges `λ` once per block
    /// transaction with no overlap, so a prediction-grade `λ` must be the
    /// **effective** cost per transaction under latency hiding — the
    /// memory pipe's issue interval.  On the simulator a streaming
    /// (bandwidth-bound) kernel's per-transaction slope is this value,
    /// while a single warp's dependent accesses each cost the raw latency
    /// instead (`atgpu-sim`'s `tests/dram_slopes.rs` checks both).
    pub fn derived_cost_params(&self) -> CostParams {
        CostParams {
            gamma: self.clock_cycles_per_ms,
            lambda: self.dram_issue_cycles as f64,
            sigma: self.sync_ms,
            alpha: self.xfer_alpha_ms,
            beta: self.xfer_beta_ms_per_word,
        }
    }
}

/// Affine parameters of one transfer link: a transaction over the link
/// costs `α + β·words` milliseconds (Boyer et al.'s model, applied
/// per-edge in a multi-device system).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Per-transaction setup cost `α` (milliseconds).
    pub alpha_ms: f64,
    /// Per-word cost `β` (milliseconds per word).
    pub beta_ms_per_word: f64,
}

impl LinkParams {
    /// Validates the parameters: finite and non-negative.
    pub fn validate(&self) -> Result<(), ModelError> {
        for (name, v) in [("alpha_ms", self.alpha_ms), ("beta_ms_per_word", self.beta_ms_per_word)]
        {
            if !v.is_finite() || v < 0.0 {
                return Err(ModelError::InvalidParams {
                    reason: format!("{name} must be finite and non-negative, got {v}"),
                });
            }
        }
        Ok(())
    }

    /// Cost of moving `words` words in `txns` transactions over this link,
    /// `Î·α + I·β`.
    #[inline]
    pub fn cost_ms(&self, txns: u64, words: u64) -> f64 {
        txns as f64 * self.alpha_ms + words as f64 * self.beta_ms_per_word
    }

    /// A link scaled by `f` in both parameters (e.g. a peer interconnect
    /// several times faster than the host link).
    pub fn scaled(&self, f: f64) -> Self {
        Self { alpha_ms: self.alpha_ms * f, beta_ms_per_word: self.beta_ms_per_word * f }
    }
}

/// A multi-device system: `N` GPUs, each with its own global memory and
/// host↔device link, plus a device↔device peer-link matrix.
///
/// Links are directed: `peer_links[s][d]` prices a copy from device `s`
/// to device `d`, so asymmetric topologies (e.g. a fast down-link and a
/// slow up-link, or a switch hop for distant pairs) are expressible.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Per-device GPU specifications.
    pub devices: Vec<GpuSpec>,
    /// Host↔device link parameters, one per device.
    pub host_links: Vec<LinkParams>,
    /// Directed peer-link parameters, `peer_links[src][dst]`.  The
    /// diagonal is unused (a device does not transfer to itself).
    pub peer_links: Vec<Vec<LinkParams>>,
    /// Per-round synchronisation overhead `σ` for the whole cluster
    /// (devices synchronise together at round boundaries).
    pub sync_ms: f64,
}

impl ClusterSpec {
    /// A stable **structural** hash of the cluster — every quantity that
    /// can change a cost prediction or a simulated timing: device count,
    /// each [`GpuSpec`] field, each host link, each *off-diagonal* peer
    /// link, and the round-synchronisation overhead.
    ///
    /// Mirrors `Kernel::cache_key`'s name-exclusion rule (atgpu-ir): just
    /// as a
    /// kernel's diagnostic name is excluded because it cannot affect
    /// compilation, the **unused peer-link diagonal** is excluded here —
    /// a device never transfers to itself, so two specs differing only in
    /// `peer_links[d][d]` price every program identically and share a
    /// key, while any observable mutation (one more device, a slower
    /// link, a different `H`) changes it.
    ///
    /// The hash is unkeyed FNV-1a with `f64` fields hashed by bit
    /// pattern (`to_bits`), so the same spec hashes identically in every
    /// process of the same build.  Like `cache_key`, keys are
    /// per-platform: use them for in-process memoization, not as a
    /// persistent cross-machine format.
    pub fn spec_key(&self) -> u64 {
        // FNV-1a, identical constants to `atgpu_ir::Fnv1a` (this crate
        // does not depend on the IR).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        self.words(|v| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        });
        h
    }

    /// Every word [`ClusterSpec::spec_key`] hashes, in order, handed to
    /// `put`: the field walk a caller keys with its own hasher.
    pub fn words(&self, mut put: impl FnMut(u64)) {
        let n = self.devices.len();
        put(n as u64);
        for d in &self.devices {
            put(d.k_prime);
            put(d.h_limit);
            put(d.clock_cycles_per_ms.to_bits());
            put(d.dram_latency_cycles);
            put(d.dram_issue_cycles);
            put(d.xfer_alpha_ms.to_bits());
            put(d.xfer_beta_ms_per_word.to_bits());
            put(d.sync_ms.to_bits());
        }
        for l in &self.host_links {
            put(l.alpha_ms.to_bits());
            put(l.beta_ms_per_word.to_bits());
        }
        for (s, row) in self.peer_links.iter().enumerate() {
            for (d, l) in row.iter().enumerate() {
                if s == d {
                    continue; // unused diagonal: the "name" of a link table
                }
                put(l.alpha_ms.to_bits());
                put(l.beta_ms_per_word.to_bits());
            }
        }
        put(self.sync_ms.to_bits());
    }

    /// A homogeneous cluster of `n` identical devices.  Host links come
    /// from the device spec; peer links default to 4× the host link speed
    /// in both `α` and `β` (an NVLink-style interconnect).
    pub fn homogeneous(n: usize, spec: GpuSpec) -> Self {
        let host = spec.host_link();
        let peer = host.scaled(0.25);
        Self {
            devices: vec![spec; n],
            host_links: vec![host; n],
            peer_links: vec![vec![peer; n]; n],
            sync_ms: spec.sync_ms,
        }
    }

    /// The sub-cluster of the `alive` devices, plus the mapping from
    /// sub-cluster index back to real device index — what the planner
    /// re-apportions over when a device is idled or lost.
    pub fn surviving(&self, alive: &[bool]) -> (ClusterSpec, Vec<usize>) {
        let idx: Vec<usize> = (0..alive.len()).filter(|&i| alive[i]).collect();
        let sub = ClusterSpec {
            devices: idx.iter().map(|&i| self.devices[i]).collect(),
            host_links: idx.iter().map(|&i| self.host_links[i]).collect(),
            peer_links: idx
                .iter()
                .map(|&i| idx.iter().map(|&j| self.peer_links[i][j]).collect())
                .collect(),
            sync_ms: self.sync_ms,
        };
        (sub, idx)
    }

    /// Number of devices `N`.
    #[inline]
    pub fn n_devices(&self) -> usize {
        self.devices.len()
    }

    /// Validates the specification: at least one device, square link
    /// tables, every spec and link valid.
    pub fn validate(&self) -> Result<(), ModelError> {
        let n = self.devices.len();
        if n == 0 {
            return Err(ModelError::InvalidParams {
                reason: "cluster needs at least one device".into(),
            });
        }
        if self.host_links.len() != n || self.peer_links.len() != n {
            return Err(ModelError::InvalidParams {
                reason: format!(
                    "cluster has {n} devices but {} host links and {} peer-link rows",
                    self.host_links.len(),
                    self.peer_links.len()
                ),
            });
        }
        for spec in &self.devices {
            spec.validate()?;
        }
        for link in &self.host_links {
            link.validate()?;
        }
        for row in &self.peer_links {
            if row.len() != n {
                return Err(ModelError::InvalidParams {
                    reason: format!("peer-link row has {} entries, expected {n}", row.len()),
                });
            }
            for link in row {
                link.validate()?;
            }
        }
        if !self.sync_ms.is_finite() || self.sync_ms < 0.0 {
            return Err(ModelError::InvalidParams {
                reason: "sync_ms must be finite and non-negative".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `γ` is the clock: a spec whose clock is zero does not validate, so
    /// no cost function divides by a zero `γ`.
    #[test]
    fn rejects_zero_gamma() {
        let s = GpuSpec { clock_cycles_per_ms: 0.0, ..GpuSpec::gtx650_like() };
        assert!(matches!(s.validate(), Err(ModelError::InvalidParams { .. })));
    }

    /// `β` is the host link's per-word time: negative or NaN, the spec
    /// does not validate.
    #[test]
    fn rejects_negative_beta() {
        for beta in [-1.0, f64::NAN] {
            let s = GpuSpec { xfer_beta_ms_per_word: beta, ..GpuSpec::gtx650_like() };
            assert!(s.validate().is_err(), "{beta}");
        }
    }

    #[test]
    fn spec_presets_validate() {
        GpuSpec::gtx650_like().validate().unwrap();
        GpuSpec::midrange_like().validate().unwrap();
        GpuSpec::highend_like().validate().unwrap();
    }

    #[test]
    fn spec_rejects_zero_mps() {
        let mut s = GpuSpec::gtx650_like();
        s.k_prime = 0;
        assert!(s.validate().is_err());
    }

    /// The DRAM fields are bounded at 2³² cycles: the bound itself
    /// validates, one past it or anything larger does not.
    #[test]
    fn spec_bounds_the_dram_fields() {
        let set: [fn(&mut GpuSpec, u64); 2] =
            [|s, v| s.dram_latency_cycles = v, |s, v| s.dram_issue_cycles = v];
        for set in set {
            let mut s = GpuSpec::gtx650_like();
            set(&mut s, GpuSpec::MAX_DRAM_CYCLES);
            s.validate().unwrap();
            for v in [GpuSpec::MAX_DRAM_CYCLES + 1, 1 << 40, 1 << 62, u64::MAX] {
                set(&mut s, v);
                assert!(matches!(s.validate(), Err(ModelError::InvalidParams { .. })), "{v}");
            }
        }
    }

    /// The clock must be finite and positive: an infinite one would time
    /// every kernel at zero milliseconds.
    #[test]
    fn spec_rejects_a_clock_that_is_not_finite_and_positive() {
        let mut s = GpuSpec::gtx650_like();
        for clock in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -1.0] {
            s.clock_cycles_per_ms = clock;
            assert!(matches!(s.validate(), Err(ModelError::InvalidParams { .. })), "{clock}");
        }
        s.clock_cycles_per_ms = f64::MAX;
        s.validate().unwrap();
    }

    #[test]
    fn spec_rejects_zero_h() {
        let mut s = GpuSpec::gtx650_like();
        s.h_limit = 0;
        assert!(s.validate().is_err());
    }

    /// A spec that validates derives constants the cost functions can
    /// divide by: every one finite and non-negative, `γ` positive.
    #[test]
    fn derived_params_are_valid() {
        for spec in [GpuSpec::gtx650_like(), GpuSpec::midrange_like(), GpuSpec::highend_like()] {
            spec.validate().unwrap();
            let p = spec.derived_cost_params();
            for v in [p.gamma, p.lambda, p.sigma, p.alpha, p.beta] {
                assert!(v.is_finite() && v >= 0.0, "{p:?}");
            }
            assert!(p.gamma > 0.0);
        }
    }

    /// Each constant is one named field: `γ` the clock, `λ` the DRAM issue
    /// interval, `σ` the sync, `α`/`β` the host link.
    #[test]
    fn derived_params_track_spec() {
        let spec = GpuSpec::gtx650_like();
        let p = spec.derived_cost_params();
        assert_eq!(p.gamma, spec.clock_cycles_per_ms);
        assert_eq!(p.lambda, spec.dram_issue_cycles as f64);
        assert_eq!(p.sigma, spec.sync_ms);
        assert_eq!(p.alpha, spec.xfer_alpha_ms);
        assert_eq!(p.beta, spec.xfer_beta_ms_per_word);
        assert_eq!(spec.host_link(), LinkParams { alpha_ms: p.alpha, beta_ms_per_word: p.beta });
    }

    #[test]
    fn link_params_cost_is_affine() {
        let l = LinkParams { alpha_ms: 0.5, beta_ms_per_word: 0.01 };
        assert_eq!(l.cost_ms(0, 0), 0.0);
        assert_eq!(l.cost_ms(1, 0), 0.5);
        assert_eq!(l.cost_ms(3, 100), 1.5 + 1.0);
        l.validate().unwrap();
        assert!(LinkParams { alpha_ms: -1.0, beta_ms_per_word: 0.0 }.validate().is_err());
        assert!(LinkParams { alpha_ms: 0.0, beta_ms_per_word: f64::NAN }.validate().is_err());
    }

    #[test]
    fn homogeneous_cluster_validates() {
        let c = ClusterSpec::homogeneous(4, GpuSpec::gtx650_like());
        c.validate().unwrap();
        assert_eq!(c.n_devices(), 4);
        assert_eq!(c.host_links[3], GpuSpec::gtx650_like().host_link());
        // Default peer links are 4x faster than the host link.
        assert!(c.peer_links[0][1].alpha_ms < c.host_links[0].alpha_ms);
    }

    #[test]
    fn cluster_rejects_shape_mismatches() {
        let mut c = ClusterSpec::homogeneous(2, GpuSpec::gtx650_like());
        c.host_links.pop();
        assert!(c.validate().is_err());
        let mut c = ClusterSpec::homogeneous(2, GpuSpec::gtx650_like());
        c.peer_links[1].pop();
        assert!(c.validate().is_err());
        assert!(ClusterSpec::homogeneous(0, GpuSpec::gtx650_like()).validate().is_err());
    }

    #[test]
    fn spec_key_is_deterministic() {
        let a = ClusterSpec::homogeneous(4, GpuSpec::gtx650_like());
        let b = ClusterSpec::homogeneous(4, GpuSpec::gtx650_like());
        assert_eq!(a.spec_key(), b.spec_key());
        assert_eq!(a.spec_key(), a.clone().spec_key());
    }

    #[test]
    fn spec_key_sees_every_observable_mutation() {
        let base = ClusterSpec::homogeneous(3, GpuSpec::gtx650_like());
        let k0 = base.spec_key();

        // Device count.
        assert_ne!(ClusterSpec::homogeneous(4, GpuSpec::gtx650_like()).spec_key(), k0);

        // Every GpuSpec field, mutated one at a time on one device.
        type SpecMutation = Box<dyn Fn(&mut GpuSpec)>;
        let muts: Vec<SpecMutation> = vec![
            Box::new(|s| s.k_prime += 1),
            Box::new(|s| s.h_limit += 1),
            Box::new(|s| s.clock_cycles_per_ms *= 2.0),
            Box::new(|s| s.dram_latency_cycles += 1),
            Box::new(|s| s.dram_issue_cycles += 1),
            Box::new(|s| s.xfer_alpha_ms *= 2.0),
            Box::new(|s| s.xfer_beta_ms_per_word *= 2.0),
            Box::new(|s| s.sync_ms += 0.01),
        ];
        for (i, m) in muts.iter().enumerate() {
            let mut c = base.clone();
            m(&mut c.devices[1]);
            assert_ne!(c.spec_key(), k0, "GpuSpec mutation {i} must change the key");
        }

        // Host link, off-diagonal peer link, cluster sync.
        let mut c = base.clone();
        c.host_links[2].beta_ms_per_word *= 2.0;
        assert_ne!(c.spec_key(), k0);
        let mut c = base.clone();
        c.peer_links[0][2].alpha_ms *= 2.0;
        assert_ne!(c.spec_key(), k0);
        let mut c = base.clone();
        c.sync_ms += 0.5;
        assert_ne!(c.spec_key(), k0);
    }

    #[test]
    fn spec_key_position_sensitive() {
        // Same multiset of devices in a different order is a different
        // cluster (shard plans address devices by index).
        let mut hetero = ClusterSpec::homogeneous(2, GpuSpec::gtx650_like());
        hetero.devices[1] = GpuSpec::midrange_like();
        let mut swapped = hetero.clone();
        swapped.devices.swap(0, 1);
        assert_ne!(hetero.spec_key(), swapped.spec_key());
    }

    #[test]
    fn spec_key_ignores_unused_peer_diagonal() {
        // The diagonal is semantically dead (a device never transfers to
        // itself) — like a kernel's name, it is excluded from the key.
        let base = ClusterSpec::homogeneous(2, GpuSpec::gtx650_like());
        let mut c = base.clone();
        c.peer_links[1][1].alpha_ms *= 1000.0;
        assert_eq!(c.spec_key(), base.spec_key());
    }

    #[test]
    fn presets_get_faster_up_the_range() {
        let low = GpuSpec::gtx650_like();
        let mid = GpuSpec::midrange_like();
        let high = GpuSpec::highend_like();
        assert!(low.k_prime < mid.k_prime && mid.k_prime < high.k_prime);
        assert!(low.xfer_beta_ms_per_word > mid.xfer_beta_ms_per_word);
        assert!(mid.dram_issue_cycles > high.dram_issue_cycles);
    }
}
