//! The global-memory controller: latency plus issue-rate bandwidth.
//!
//! Each coalesced block transaction occupies the memory pipe for
//! `issue_interval` cycles (the bandwidth limit) and completes
//! `latency` cycles after it starts (the exposed access latency a warp
//! waits for — the quantity the model abstracts as `λ`).  Requests from
//! all MPs share one controller in sequential mode, so heavy traffic
//! queues exactly as a saturated memory bus would.

/// A memory controller.
#[derive(Debug, Clone)]
pub struct DramController {
    /// First cycle at which the pipe can start a new transaction.
    next_free: u64,
    /// Cycles between transaction starts (inverse bandwidth).
    issue_interval: u64,
    /// Cycles from transaction start to data arrival.
    latency: u64,
    /// Total transactions issued (statistics).
    pub txns: u64,
    /// Total cycles requests spent queued behind the pipe (statistics).
    pub queue_cycles: u64,
}

impl DramController {
    /// Creates a controller with the given issue interval and latency.
    pub fn new(issue_interval: u64, latency: u64) -> Self {
        Self {
            next_free: 0,
            issue_interval: issue_interval.max(1),
            latency: latency.max(1),
            txns: 0,
            queue_cycles: 0,
        }
    }

    /// Issues `txns` transactions at time `now`; returns the cycle at
    /// which the last one's data arrives (the requesting warp's wake-up
    /// time).
    pub fn access(&mut self, now: u64, txns: u64) -> u64 {
        if txns == 0 {
            return now;
        }
        let start = now.max(self.next_free);
        self.queue_cycles += start - now;
        self.next_free = start + txns * self.issue_interval;
        self.txns += txns;
        start + (txns - 1) * self.issue_interval + self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_access_pays_latency() {
        let mut d = DramController::new(4, 100);
        assert_eq!(d.access(10, 1), 110);
    }

    #[test]
    fn transactions_pipeline() {
        let mut d = DramController::new(4, 100);
        // 3 txns starting at 0: last starts at 8, completes at 108.
        assert_eq!(d.access(0, 3), 108);
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut d = DramController::new(10, 100);
        assert_eq!(d.access(0, 1), 100);
        // Pipe busy until 10; second request at cycle 0 queues.
        assert_eq!(d.access(0, 1), 110);
        assert_eq!(d.queue_cycles, 10);
    }

    #[test]
    fn idle_pipe_starts_immediately() {
        let mut d = DramController::new(10, 100);
        d.access(0, 1);
        // At cycle 50 the pipe (free at 10) is idle again.
        assert_eq!(d.access(50, 1), 150);
        assert_eq!(d.queue_cycles, 0);
    }

    #[test]
    fn zero_transactions_are_free() {
        let mut d = DramController::new(10, 100);
        assert_eq!(d.access(42, 0), 42);
        assert_eq!(d.txns, 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = DramController::new(2, 10);
        d.access(0, 5);
        d.access(0, 5);
        assert_eq!(d.txns, 10);
    }
}
