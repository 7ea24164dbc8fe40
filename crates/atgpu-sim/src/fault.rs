//! Deterministic fault injection: seeded, replayable fault plans and the
//! runtime bookkeeping the drivers use to act them out.
//!
//! A [`FaultPlan`] is a *schedule*, not a random process: every event is
//! fixed up front (device deaths, degraded-link windows, dropped transfer
//! attempts, slow-clock stragglers), and the plan's `seed` only matters
//! when [`FaultPlan::random`] synthesises one.  Replaying the same plan
//! against the same program reproduces the same failures, the same retry
//! counts and the same recovery decisions — which is what lets the chaos
//! differential suite (`tests/chaos_differential.rs`) pin recovery down
//! to bit-identity instead of "usually works".
//!
//! The empty plan is the fast path: [`FaultRuntime::new`] returns `None`
//! for it, and every injection site in the drivers is gated on that
//! `Option`, so a faultless run executes exactly the pre-fault code —
//! no RNG draws, no journaling, no arithmetic changes.

use std::collections::{BTreeSet, HashMap};

/// One directed link of the simulated system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinkEdge {
    /// The host↔device link of one device (both directions).
    Host(u32),
    /// The directed peer link `src → dst`.
    Peer(u32, u32),
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// The device is lost at the **start** of `at_round` and never comes
    /// back.  Cluster runs re-apportion its unfinished shards across the
    /// survivors; a single-device run has no survivors and fails with
    /// [`crate::SimError::DeviceLost`].
    DeviceDown {
        /// Device that dies.
        device: u32,
        /// Round index at whose start it dies.
        at_round: usize,
    },
    /// Every transfer on `edge` costs `factor`× during rounds
    /// `[from_round, to_round)`.  The data still arrives — only the
    /// timing degrades.
    LinkDegraded {
        /// The degraded link.
        edge: LinkEdge,
        /// Multiplicative slowdown (`> 1` slows the link).
        factor: f64,
        /// First degraded round (inclusive).
        from_round: usize,
        /// First healthy round again (exclusive bound).
        to_round: usize,
    },
    /// The `nth` transfer **attempt** on `edge` (0-based, counting
    /// retries) is dropped mid-flight: the attempt pays the full affine
    /// transfer cost, then the driver backs off and retries.  Indexing
    /// attempts rather than transfers means retries can themselves be
    /// dropped, and the retry count is exactly recomputable from the
    /// plan.
    TransferDrop {
        /// The lossy link.
        edge: LinkEdge,
        /// Which attempt on that link is lost (0-based).
        nth: u64,
    },
    /// The device's clock runs slow for the whole run: kernel time is
    /// multiplied by `clock_factor` (`> 1` slows the device).  Results
    /// are unchanged — a straggler is late, not wrong.
    Straggler {
        /// The slow device.
        device: u32,
        /// Multiplicative kernel-time factor.
        clock_factor: f64,
    },
}

/// A seeded, deterministic schedule of fault events, injected through
/// [`crate::SimConfig::fault`].  The default (empty) plan is free: the
/// drivers skip every injection hook.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed recorded for reproduction (used by [`FaultPlan::random`];
    /// carried so a chaos failure report identifies the plan).
    pub seed: u64,
    /// The scheduled events, in no particular order.
    pub events: Vec<FaultEvent>,
}

/// The xorshift64* generator behind [`FaultPlan::random`] — no external
/// RNG dependency, and trivially reproducible from the seed alone.
struct PlanRng(u64);

impl PlanRng {
    fn new(seed: u64) -> Self {
        // Splitmix-style scramble so seeds 0 and 1 diverge immediately.
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x1234_5678_9ABC_DEF1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }
}

impl FaultPlan {
    /// An empty plan carrying `seed` (events added with [`Self::push`]).
    pub fn new(seed: u64) -> Self {
        Self { seed, events: Vec::new() }
    }

    /// Whether the plan schedules anything at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds one event.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// Synthesises a random plan for an `n_devices`-device,
    /// `n_rounds`-round program: dropped attempts, degraded-link
    /// windows, stragglers and device deaths, all with probabilities
    /// scaled by `rate ∈ [0, 1]`.  Deterministic in `seed`, and never
    /// kills the last device — at least one survivor is guaranteed, so
    /// every random plan is recoverable on a cluster.
    pub fn random(seed: u64, n_devices: u32, n_rounds: usize, rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        let rounds = n_rounds.max(1) as u64;
        let mut rng = PlanRng::new(seed);
        let mut plan = Self::new(seed);
        // Dropped attempts: host links first, then peer links (sparser).
        for d in 0..n_devices {
            for nth in 0..4 * rounds {
                if rng.unit() < rate {
                    plan.push(FaultEvent::TransferDrop { edge: LinkEdge::Host(d), nth });
                }
            }
        }
        for s in 0..n_devices {
            for d in 0..n_devices {
                if s == d {
                    continue;
                }
                for nth in 0..2 * rounds {
                    if rng.unit() < rate * 0.5 {
                        plan.push(FaultEvent::TransferDrop { edge: LinkEdge::Peer(s, d), nth });
                    }
                }
            }
        }
        // Degraded-link windows on host links.
        for d in 0..n_devices {
            if rng.unit() < rate {
                let from_round = rng.below(rounds) as usize;
                let to_round = from_round + 1 + rng.below(rounds) as usize;
                let factor = 1.0 + 4.0 * rng.unit();
                plan.push(FaultEvent::LinkDegraded {
                    edge: LinkEdge::Host(d),
                    factor,
                    from_round,
                    to_round,
                });
            }
        }
        // Stragglers.
        for device in 0..n_devices {
            if rng.unit() < rate {
                plan.push(FaultEvent::Straggler { device, clock_factor: 1.0 + 3.0 * rng.unit() });
            }
        }
        // Deaths, capped at n_devices − 1 so someone always survives.
        let mut deaths = 0;
        for device in 0..n_devices {
            if deaths + 1 < n_devices && rng.unit() < rate * 0.5 {
                plan.push(FaultEvent::DeviceDown { device, at_round: rng.below(rounds) as usize });
                deaths += 1;
            }
        }
        plan
    }
}

/// Runtime state a driver threads through one simulated run: which
/// attempts drop, which devices die and when, per-edge attempt counters.
///
/// Built once per run with [`FaultRuntime::new`]; `None` for the empty
/// plan, which is how fault injection stays free when idle.
#[derive(Debug, Clone)]
pub struct FaultRuntime {
    /// Earliest scheduled death per device.
    down: HashMap<u32, usize>,
    /// Product of straggler factors per device.
    clock: HashMap<u32, f64>,
    /// Degraded-link windows.
    degraded: Vec<(LinkEdge, f64, usize, usize)>,
    /// Dropped attempt indices per edge.
    drops: HashMap<LinkEdge, BTreeSet<u64>>,
    /// Attempts consumed so far per edge.
    attempts: HashMap<LinkEdge, u64>,
}

impl FaultRuntime {
    /// Compiles a plan into runtime lookups; `None` when the plan is
    /// empty (the no-fault fast path).
    pub fn new(plan: &FaultPlan) -> Option<Self> {
        if plan.is_empty() {
            return None;
        }
        let mut rt = Self {
            down: HashMap::new(),
            clock: HashMap::new(),
            degraded: Vec::new(),
            drops: HashMap::new(),
            attempts: HashMap::new(),
        };
        for event in &plan.events {
            match event {
                FaultEvent::DeviceDown { device, at_round } => {
                    let e = rt.down.entry(*device).or_insert(*at_round);
                    *e = (*e).min(*at_round);
                }
                FaultEvent::LinkDegraded { edge, factor, from_round, to_round } => {
                    rt.degraded.push((*edge, *factor, *from_round, *to_round));
                }
                FaultEvent::TransferDrop { edge, nth } => {
                    rt.drops.entry(*edge).or_default().insert(*nth);
                }
                FaultEvent::Straggler { device, clock_factor } => {
                    *rt.clock.entry(*device).or_insert(1.0) *= clock_factor;
                }
            }
        }
        Some(rt)
    }

    /// The round at whose start `device` dies, if any is scheduled.
    pub fn down_at(&self, device: u32) -> Option<usize> {
        self.down.get(&device).copied()
    }

    /// The device's kernel-time factor (1.0 when not a straggler).
    pub fn clock_factor(&self, device: u32) -> f64 {
        self.clock.get(&device).copied().unwrap_or(1.0)
    }

    /// The multiplicative transfer-cost factor on `edge` during `round`
    /// (product of all matching degradation windows; 1.0 when healthy).
    pub fn link_factor(&self, edge: LinkEdge, round: usize) -> f64 {
        self.degraded
            .iter()
            .filter(|(e, _, from, to)| *e == edge && (*from..*to).contains(&round))
            .map(|(_, f, _, _)| *f)
            .product()
    }

    /// Consumes the next attempt on `edge`; `true` means that attempt is
    /// dropped and the driver must retry.  Attempt counters advance on
    /// every call, so retry counts are an exact function of the plan.
    pub fn consume_attempt(&mut self, edge: LinkEdge) -> bool {
        let n = self.attempts.entry(edge).or_insert(0);
        let idx = *n;
        *n += 1;
        self.drops.get(&edge).is_some_and(|set| set.contains(&idx))
    }

    /// Runs one logical transfer on `edge` during `round` under the
    /// plan's drops and degradations: `attempt` performs (and prices) the
    /// copy, and is re-run after each dropped attempt with an exponential
    /// backoff wait of `backoff_unit_ms · 2ᵏ`.  Every attempt — dropped
    /// or not — pays its full affine cost times the round's
    /// [`Self::link_factor`]; the returned milliseconds include attempts
    /// and waits, while the waits alone also accumulate into
    /// `backoff_ms` and each retry bumps `retries`.  The copy itself is
    /// idempotent, so re-running a dropped attempt is harmless.
    ///
    /// Each **segment** of the transfer is reported to
    /// `on_seg(start_off_ms, end_off_ms, is_backoff)`: attempt segments
    /// (dropped and final) and backoff waits, in time order, exactly
    /// tiling `[0, total)` relative to the transfer's start.  The
    /// timeline tracer turns these into per-attempt and per-wait spans so
    /// retries and backoff are visible in a trace instead of fused into
    /// one opaque block.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_segmented(
        &mut self,
        edge: LinkEdge,
        round: usize,
        backoff_unit_ms: f64,
        retries: &mut u64,
        backoff_ms: &mut f64,
        mut attempt: impl FnMut() -> f64,
        mut on_seg: impl FnMut(f64, f64, bool),
    ) -> f64 {
        let factor = self.link_factor(edge, round);
        let mut total = 0.0;
        let mut k = 0u32;
        loop {
            let dropped = self.consume_attempt(edge);
            let cost = attempt() * factor;
            on_seg(total, total + cost, false);
            total += cost;
            if !dropped {
                return total;
            }
            *retries += 1;
            let wait = backoff_unit_ms * f64::from(2u32.pow(k.min(20)));
            on_seg(total, total + wait, true);
            total += wait;
            *backoff_ms += wait;
            k += 1;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_compiles_to_none() {
        assert!(FaultRuntime::new(&FaultPlan::default()).is_none());
        assert!(FaultRuntime::new(&FaultPlan::new(42)).is_none());
    }

    #[test]
    fn random_is_deterministic_in_seed() {
        let a = FaultPlan::random(7, 4, 6, 0.3);
        let b = FaultPlan::random(7, 4, 6, 0.3);
        assert_eq!(a, b);
        let c = FaultPlan::random(8, 4, 6, 0.3);
        assert_ne!(a, c, "different seeds must differ (with overwhelming likelihood)");
    }

    #[test]
    fn random_never_kills_every_device() {
        for seed in 0..200 {
            for n in 1..=4u32 {
                let plan = FaultPlan::random(seed, n, 5, 1.0);
                let deaths = plan
                    .events
                    .iter()
                    .filter(|e| matches!(e, FaultEvent::DeviceDown { .. }))
                    .count();
                assert!(deaths < n as usize, "seed {seed}: {deaths} deaths on {n} devices");
            }
        }
    }

    #[test]
    fn attempt_indexed_drops_are_exact() {
        let mut plan = FaultPlan::new(0);
        let edge = LinkEdge::Host(0);
        plan.push(FaultEvent::TransferDrop { edge, nth: 0 });
        plan.push(FaultEvent::TransferDrop { edge, nth: 1 });
        plan.push(FaultEvent::TransferDrop { edge, nth: 3 });
        let mut rt = FaultRuntime::new(&plan).unwrap();
        // First transfer: attempts 0 and 1 drop, attempt 2 lands.
        assert!(rt.consume_attempt(edge));
        assert!(rt.consume_attempt(edge));
        assert!(!rt.consume_attempt(edge));
        // Second transfer: attempt 3 drops, attempt 4 lands.
        assert!(rt.consume_attempt(edge));
        assert!(!rt.consume_attempt(edge));
        // Other edges are untouched.
        assert!(!rt.consume_attempt(LinkEdge::Host(1)));
        assert!(!rt.consume_attempt(LinkEdge::Peer(0, 1)));
    }

    #[test]
    fn earliest_death_and_straggler_product() {
        let mut plan = FaultPlan::new(0);
        plan.push(FaultEvent::DeviceDown { device: 1, at_round: 5 });
        plan.push(FaultEvent::DeviceDown { device: 1, at_round: 2 });
        plan.push(FaultEvent::Straggler { device: 0, clock_factor: 2.0 });
        plan.push(FaultEvent::Straggler { device: 0, clock_factor: 1.5 });
        let rt = FaultRuntime::new(&plan).unwrap();
        assert_eq!(rt.down_at(1), Some(2));
        assert_eq!(rt.down_at(0), None);
        assert!((rt.clock_factor(0) - 3.0).abs() < 1e-12);
        assert_eq!(rt.clock_factor(1), 1.0);
    }

    #[test]
    fn retry_loop_prices_every_attempt_and_backs_off() {
        let mut plan = FaultPlan::new(0);
        let edge = LinkEdge::Host(0);
        plan.push(FaultEvent::TransferDrop { edge, nth: 0 });
        plan.push(FaultEvent::TransferDrop { edge, nth: 1 });
        plan.push(FaultEvent::LinkDegraded { edge, factor: 2.0, from_round: 0, to_round: 1 });
        let mut rt = FaultRuntime::new(&plan).unwrap();
        let (mut retries, mut backoff, mut calls) = (0u64, 0.0f64, 0u32);
        let attempt = || {
            calls += 1;
            1.0
        };
        let t =
            rt.transfer_segmented(edge, 0, 0.5, &mut retries, &mut backoff, attempt, |_, _, _| {});
        // Attempts 0 and 1 drop, attempt 2 lands: three attempts at
        // 1.0 × 2.0 (degraded) each, plus backoff waits 0.5 + 1.0.
        assert_eq!(calls, 3);
        assert_eq!(retries, 2);
        assert!((backoff - 1.5).abs() < 1e-12);
        assert!((t - (3.0 * 2.0 + 1.5)).abs() < 1e-12);
        // A healthy round on the same edge: single attempt, no factor.
        let u =
            rt.transfer_segmented(edge, 5, 0.5, &mut retries, &mut backoff, || 1.0, |_, _, _| {});
        assert_eq!(retries, 2);
        assert!((u - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transfer_segments_tile_the_total_exactly() {
        let mut plan = FaultPlan::new(0);
        let edge = LinkEdge::Host(0);
        plan.push(FaultEvent::TransferDrop { edge, nth: 0 });
        plan.push(FaultEvent::TransferDrop { edge, nth: 1 });
        let mut rt = FaultRuntime::new(&plan).unwrap();
        let (mut retries, mut backoff) = (0u64, 0.0f64);
        let mut segs: Vec<(f64, f64, bool)> = Vec::new();
        let t = rt.transfer_segmented(
            edge,
            0,
            0.5,
            &mut retries,
            &mut backoff,
            || 1.0,
            |a, b, w| segs.push((a, b, w)),
        );
        // attempt, wait 0.5, attempt, wait 1.0, attempt — contiguous,
        // starting at 0 and ending at the returned total.
        assert_eq!(
            segs.iter().map(|&(_, _, w)| w).collect::<Vec<_>>(),
            vec![false, true, false, true, false]
        );
        assert_eq!(segs[0].0, 0.0);
        for pair in segs.windows(2) {
            assert_eq!(pair[0].1, pair[1].0, "segments must tile without gaps");
        }
        assert_eq!(segs.last().unwrap().1, t);
        assert!((t - (3.0 + 1.5)).abs() < 1e-12);
    }

    #[test]
    fn degradation_windows_compose_and_expire() {
        let mut plan = FaultPlan::new(0);
        let edge = LinkEdge::Host(0);
        plan.push(FaultEvent::LinkDegraded { edge, factor: 2.0, from_round: 1, to_round: 4 });
        plan.push(FaultEvent::LinkDegraded { edge, factor: 3.0, from_round: 2, to_round: 3 });
        let rt = FaultRuntime::new(&plan).unwrap();
        assert_eq!(rt.link_factor(edge, 0), 1.0);
        assert_eq!(rt.link_factor(edge, 1), 2.0);
        assert_eq!(rt.link_factor(edge, 2), 6.0);
        assert_eq!(rt.link_factor(edge, 3), 2.0);
        assert_eq!(rt.link_factor(edge, 4), 1.0);
        assert_eq!(rt.link_factor(LinkEdge::Host(1), 2), 1.0);
    }
}
