//! Occupancy: how many thread blocks a physical multiprocessor holds, and
//! so how many a whole device holds at once.
//!
//! Paper §III (GPU-Cost Function): "Each streaming multiprocessor on a GPU
//! can accommodate `ℓ = min(⌊M/m⌋, H)` blocks concurrently, where `H`
//! represents a hardware imposed limit."  A higher `ℓ` enlarges the
//! instruction pool and therefore the latency-hiding opportunity.
//!
//! A device of `k′` MPs therefore holds `k′·ℓ` resident blocks, and
//! [`device_capacity`] is the one place that product is computed: the
//! wave factor, the degraded cost's takeover waves, the planner's
//! linearised rates and the serving layer's admission capacity all read
//! it.  A valid [`GpuSpec`] bounds neither `k′` nor `H`, so the product
//! saturates at `u64::MAX` instead of wrapping.

use crate::machine::AtgpuMachine;
use crate::params::GpuSpec;

/// Blocks resident per MP, `ℓ = min(⌊M/m⌋, H)`.
///
/// `m_used` is the shared-memory footprint (words) of one thread block.  A
/// block that declares no shared memory still occupies a residency slot, so
/// `m_used = 0` yields `H`.  Returns at least 1 when the block fits at all
/// (`m_used ≤ M`); returns 0 when the block cannot fit, meaning the kernel
/// cannot run.
pub fn occupancy(machine: &AtgpuMachine, m_used: u64, h_limit: u64) -> u64 {
    if m_used > machine.m {
        return 0;
    }
    let by_shared = machine.m.checked_div(m_used).unwrap_or(h_limit);
    by_shared.min(h_limit)
}

/// Blocks resident on the whole device at once, `k′·ℓ` for blocks of
/// `m_used` shared words — saturating at `u64::MAX`, and 0 when the block
/// does not fit (`ℓ = 0`).
pub fn device_capacity(machine: &AtgpuMachine, spec: &GpuSpec, m_used: u64) -> u64 {
    spec.k_prime.saturating_mul(occupancy(machine, m_used, spec.h_limit))
}

/// The wave factor `⌈k / (k′ℓ)⌉` of Expression (2): how many "waves" of
/// thread blocks a `k′`-MP GPU needs to execute `k` blocks when each MP
/// holds `ℓ` blocks at once.
///
/// Returns `None` when the device holds no block of this size (`ℓ = 0`:
/// the block does not fit in shared memory, so the kernel cannot run on
/// the device at all).  `k = 0` (an empty launch) costs zero waves.
pub fn wave_factor(machine: &AtgpuMachine, spec: &GpuSpec, k: u64, m_used: u64) -> Option<u64> {
    let capacity = device_capacity(machine, spec, m_used);
    (capacity > 0).then(|| k.div_ceil(capacity))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> AtgpuMachine {
        AtgpuMachine::new(2048, 32, 12_288, 1 << 20).unwrap()
    }

    fn spec() -> GpuSpec {
        GpuSpec::gtx650_like() // k' = 2, H = 16
    }

    #[test]
    fn shared_memory_limits_occupancy() {
        // m = 12288; blocks of 1024 words -> floor(12) but H = 16 -> 12.
        assert_eq!(occupancy(&machine(), 1024, 16), 12);
    }

    #[test]
    fn hardware_limit_caps_occupancy() {
        // blocks of 96 words -> floor(128) but H = 16 -> 16.
        assert_eq!(occupancy(&machine(), 96, 16), 16);
    }

    #[test]
    fn zero_shared_usage_gives_h() {
        assert_eq!(occupancy(&machine(), 0, 16), 16);
    }

    #[test]
    fn oversized_block_cannot_run() {
        assert_eq!(occupancy(&machine(), 12_289, 16), 0);
    }

    #[test]
    fn exact_fit_gives_one() {
        assert_eq!(occupancy(&machine(), 12_288, 16), 1);
    }

    #[test]
    fn wave_factor_rounds_up() {
        // k' * l = 2 * 16 = 32 concurrent blocks.
        assert_eq!(wave_factor(&machine(), &spec(), 1, 96), Some(1));
        assert_eq!(wave_factor(&machine(), &spec(), 32, 96), Some(1));
        assert_eq!(wave_factor(&machine(), &spec(), 33, 96), Some(2));
        assert_eq!(wave_factor(&machine(), &spec(), 320, 96), Some(10));
    }

    #[test]
    fn wave_factor_zero_blocks() {
        assert_eq!(wave_factor(&machine(), &spec(), 0, 96), Some(0));
    }

    #[test]
    fn wave_factor_none_when_block_too_big() {
        assert_eq!(wave_factor(&machine(), &spec(), 10, 20_000), None);
    }

    /// Regression: `k′·ℓ` was an unchecked product, so a spec that passes
    /// `GpuSpec::validate` with `k′ = 2⁶²` wrapped it (to 0 at `ℓ = 16`)
    /// and `evaluate` panicked dividing by it.  Saturated, a device that
    /// holds every block prices exactly one wave.
    #[test]
    fn capacity_saturates_and_one_wave_covers_every_block() {
        use crate::cost::{evaluate, CostModel};
        use crate::metrics::{AlgoMetrics, RoundMetrics};

        let huge = GpuSpec { k_prime: u64::MAX, h_limit: u64::MAX, ..spec() };
        assert_eq!(device_capacity(&machine(), &huge, 0), u64::MAX);
        assert_eq!(device_capacity(&machine(), &huge, 12_289), 0);
        assert_eq!(device_capacity(&machine(), &spec(), 96), 32);

        let blocks = 40;
        let round = RoundMetrics {
            time: 13,
            io_blocks: 3 * blocks,
            global_words: 3 * 1024,
            shared_words: 96,
            inward_words: 2048,
            inward_txns: 2,
            outward_words: 1024,
            outward_txns: 1,
            blocks_launched: blocks,
        };
        let metrics = AlgoMetrics::new(vec![round]);
        let cost = |k_prime| {
            let spec = GpuSpec { k_prime, ..spec() };
            evaluate(CostModel::GpuCost, &machine(), &spec, &metrics).unwrap().total()
        };
        assert_eq!(cost(1 << 62).to_bits(), cost(blocks).to_bits());
    }

    #[test]
    fn more_shared_usage_never_increases_occupancy() {
        let m = machine();
        let mut prev = occupancy(&m, 1, 16);
        for used in 2..200 {
            let cur = occupancy(&m, used, 16);
            assert!(cur <= prev, "occupancy increased at m_used={used}");
            prev = cur;
        }
    }
}
