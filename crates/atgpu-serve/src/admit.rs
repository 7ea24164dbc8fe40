//! The admission queue: bounded, tenant-fair, occupancy-packed.
//!
//! Concurrent submissions do not all belong on the devices at once — a
//! cluster holds `Σ_d k′_d·ℓ_d` resident thread blocks (the occupancy
//! bound of Expression (2), via [`atgpu_model::occupancy()`]), and packing
//! more concurrent launches than that buys no wall-clock time while
//! inflating every tenant's latency.  The queue therefore:
//!
//! * **packs by occupancy** — each job declares its resident-block
//!   demand (its widest launch, clamped to cluster capacity) and jobs
//!   are admitted while the summed demand of running jobs fits; a job
//!   too wide to ever fit runs alone rather than deadlocking;
//! * **is tenant-fair** — per-tenant FIFO queues are granted in
//!   round-robin rotation, so a tenant submitting a thousand programs
//!   cannot starve one submitting a single program.  Rotation is strict:
//!   a later tenant never jumps an earlier tenant's turn just because
//!   its job is smaller (fairness over packing efficiency);
//! * **is bounded** — at most `queue_capacity` requests may be waiting;
//!   the next submission gets the typed backpressure error
//!   [`ServeError::QueueFull`] instead of unbounded memory growth.  A
//!   tenant's queue is dropped when it empties, so the queue holds no
//!   more tenants than waiting requests, however many names it has seen.

use crate::error::ServeError;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A point-in-time view of the admission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Requests waiting for a grant.
    pub waiting: usize,
    /// Requests currently admitted (running).
    pub running: usize,
    /// Summed resident-block demand of the running requests.
    pub resident_blocks: u64,
    /// The cluster's resident-block capacity `Σ_d k′_d·ℓ_d`.
    pub capacity_blocks: u64,
    /// Requests admitted since the queue was built.
    pub admitted_total: u64,
    /// Submissions bounced with [`ServeError::QueueFull`].
    pub rejected_total: u64,
}

#[derive(Debug)]
struct TenantQueue {
    name: String,
    fifo: VecDeque<u64>,
}

#[derive(Debug, Default)]
struct AdmitState {
    /// Tenants with a waiting request, in rotation order.
    tenants: Vec<TenantQueue>,
    /// Index of the tenant whose turn the rotation reaches next.
    cursor: usize,
    next_ticket: u64,
    waiting: usize,
    running: usize,
    resident_blocks: u64,
    admitted_total: u64,
    rejected_total: u64,
}

impl AdmitState {
    fn tenant_idx(&mut self, name: &str) -> usize {
        if let Some(i) = self.tenants.iter().position(|t| t.name == name) {
            return i;
        }
        self.tenants.push(TenantQueue { name: name.to_string(), fifo: VecDeque::new() });
        self.tenants.len() - 1
    }

    /// The ticket the rotation would grant next: the head of the first
    /// non-empty tenant queue at or after `cursor` (cyclic).
    fn next_in_rotation(&self) -> Option<(usize, u64)> {
        let n = self.tenants.len();
        (0..n)
            .map(|off| (self.cursor + off) % n)
            .find_map(|i| self.tenants[i].fifo.front().map(|&t| (i, t)))
    }
}

/// The bounded, tenant-fair admission queue (see the module docs for
/// the policy).  All methods take `&self`; the queue is shared across
/// client threads.
#[derive(Debug)]
pub struct AdmissionQueue {
    state: Mutex<AdmitState>,
    cv: Condvar,
    queue_capacity: usize,
    capacity_blocks: u64,
}

impl AdmissionQueue {
    /// Builds a queue bounded at `queue_capacity` waiting requests over
    /// a cluster holding `capacity_blocks` resident thread blocks.
    pub fn new(queue_capacity: usize, capacity_blocks: u64) -> Self {
        Self {
            state: Mutex::new(AdmitState::default()),
            cv: Condvar::new(),
            queue_capacity: queue_capacity.max(1),
            capacity_blocks: capacity_blocks.max(1),
        }
    }

    /// The most requests that wait before a submission bounces.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// The cluster's resident-block capacity this queue packs against.
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    /// Admits a request of `demand` resident blocks for `tenant`,
    /// blocking until the scheduler grants it.  Returns a [`Permit`]
    /// whose `Drop` releases the capacity — hold it for the duration of
    /// the run.
    ///
    /// Returns [`ServeError::QueueFull`] immediately (nothing enqueued)
    /// when the waiting bound is already met.
    pub fn admit(&self, tenant: &str, demand: u64) -> Result<Permit<'_>, ServeError> {
        // A job wider than the whole cluster still terminates (waves),
        // so clamp: it packs alone instead of never fitting.
        let demand = demand.clamp(1, self.capacity_blocks);
        let mut st = self.lock();
        if st.waiting >= self.queue_capacity {
            st.rejected_total += 1;
            return Err(ServeError::QueueFull {
                tenant: tenant.to_string(),
                waiting: st.waiting,
                capacity: self.queue_capacity,
            });
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        let idx = st.tenant_idx(tenant);
        st.tenants[idx].fifo.push_back(ticket);
        st.waiting += 1;

        loop {
            if let Some((ti, head)) = st.next_in_rotation() {
                let fits = st.resident_blocks + demand <= self.capacity_blocks;
                if head == ticket && (fits || st.running == 0) {
                    st.tenants[ti].fifo.pop_front();
                    // The turn passes to the next tenant; an emptied
                    // queue leaves the rotation, and its successor
                    // slides into its slot.
                    let next = if st.tenants[ti].fifo.is_empty() {
                        st.tenants.remove(ti);
                        ti
                    } else {
                        ti + 1
                    };
                    st.cursor = next.checked_rem(st.tenants.len()).unwrap_or(0);
                    st.waiting -= 1;
                    st.running += 1;
                    st.resident_blocks += demand;
                    st.admitted_total += 1;
                    // Consecutive rotation grants may also fit now.
                    self.cv.notify_all();
                    return Ok(Permit { queue: self, demand });
                }
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A point-in-time snapshot of queue state.
    pub fn stats(&self) -> AdmissionStats {
        let st = self.lock();
        AdmissionStats {
            waiting: st.waiting,
            running: st.running,
            resident_blocks: st.resident_blocks,
            capacity_blocks: self.capacity_blocks,
            admitted_total: st.admitted_total,
            rejected_total: st.rejected_total,
        }
    }

    /// Locks the queue state, recovering a poisoned lock: every critical
    /// section updates its counters together or not at all, so the state
    /// a panicking holder left behind is still consistent — and `release`
    /// runs from [`Permit`]'s `Drop`, where panicking on poison during a
    /// tenant thread's unwind would abort the whole server.
    fn lock(&self) -> MutexGuard<'_, AdmitState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn release(&self, demand: u64) {
        let mut st = self.lock();
        st.resident_blocks -= demand;
        st.running -= 1;
        self.cv.notify_all();
    }
}

/// An admission grant: `demand` resident blocks are reserved until this
/// is dropped.
#[derive(Debug)]
pub struct Permit<'a> {
    queue: &'a AdmissionQueue,
    demand: u64,
}

impl Permit<'_> {
    /// The resident-block demand this permit reserves.
    pub fn demand(&self) -> u64 {
        self.demand
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.queue.release(self.demand);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn grants_up_to_capacity_then_queues() {
        let q2 = Arc::new(AdmissionQueue::new(8, 10));
        let a = q2.admit("t", 4).unwrap();
        let b = q2.admit("t", 4).unwrap();
        assert_eq!(q2.stats().resident_blocks, 8);
        // A third job of demand 4 would exceed 10; it must wait until a
        // permit drops.
        let (q3, started) = (q2.clone(), Arc::new(AtomicUsize::new(0)));
        let s2 = started.clone();
        let h = std::thread::spawn(move || {
            let p = q3.admit("t", 4).unwrap();
            s2.store(1, Ordering::SeqCst);
            drop(p);
        });
        // Parked (counted as waiting under the queue's lock) rather than
        // granted; a grant over capacity trips the assert instead.
        while q2.stats().waiting == 0 {
            assert_eq!(started.load(Ordering::SeqCst), 0, "third job admitted over capacity");
            std::thread::yield_now();
        }
        assert_eq!(q2.stats().resident_blocks, 8);
        drop(a);
        h.join().unwrap();
        assert_eq!(started.load(Ordering::SeqCst), 1);
        drop(b);
        let st = q2.stats();
        assert_eq!((st.running, st.resident_blocks, st.admitted_total), (0, 0, 3));
    }

    #[test]
    fn oversized_job_runs_alone() {
        let q = AdmissionQueue::new(4, 10);
        // Demand beyond the whole cluster clamps and runs when idle.
        let p = q.admit("t", 1_000_000).unwrap();
        assert_eq!(p.demand(), 10);
        drop(p);
    }

    #[test]
    fn queue_bound_returns_typed_backpressure() {
        let q = Arc::new(AdmissionQueue::new(1, 1));
        let p = q.admit("a", 1).unwrap();
        // One waiter fills the single waiting slot…
        let qw = q.clone();
        let h = std::thread::spawn(move || drop(qw.admit("a", 1).unwrap()));
        while q.stats().waiting == 0 {
            std::thread::yield_now();
        }
        // …so the next submission bounces, typed.
        match q.admit("b", 1) {
            Err(ServeError::QueueFull { tenant, waiting, capacity }) => {
                assert_eq!((tenant.as_str(), waiting, capacity), ("b", 1, 1));
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(q.stats().rejected_total, 1);
        drop(p);
        h.join().unwrap();
    }

    /// A name's queue leaves with its last request: ten thousand
    /// tenants passing through one at a time leave no queue behind.
    #[test]
    fn held_tenants_are_bounded_by_waiting_requests() {
        let q = AdmissionQueue::new(4, 4);
        for i in 0..10_000 {
            drop(q.admit(&format!("tenant{i}"), 1).unwrap());
        }
        let held = q.lock().tenants.len();
        assert_eq!(held, 0);
        let (_a, _b) = (q.admit("a", 1).unwrap(), q.admit("b", 1).unwrap());
        assert_eq!(q.lock().tenants.len(), 0, "granted requests hold no queue");
    }

    #[test]
    fn rotation_is_tenant_fair() {
        // Tenant A floods the queue; tenant B submits one job.  With
        // capacity for one job at a time, B's job must run second, not
        // behind all of A's.
        let q = Arc::new(AdmissionQueue::new(64, 1));
        let first = q.admit("a", 1).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 0..4 {
            let (qa, order) = (q.clone(), order.clone());
            handles.push(std::thread::spawn(move || {
                let p = qa.admit("a", 1).unwrap();
                order.lock().unwrap().push(format!("a{i}"));
                drop(p);
            }));
            // Deterministic enqueue order within tenant A.
            while q.stats().waiting != i + 1 {
                std::thread::yield_now();
            }
        }
        let (qb, ob) = (q.clone(), order.clone());
        let hb = std::thread::spawn(move || {
            let p = qb.admit("b", 1).unwrap();
            ob.lock().unwrap().push("b0".to_string());
            drop(p);
        });
        while q.stats().waiting != 5 {
            std::thread::yield_now();
        }
        drop(first);
        for h in handles {
            h.join().unwrap();
        }
        hb.join().unwrap();
        let order = order.lock().unwrap();
        let b_pos = order.iter().position(|s| s == "b0").unwrap();
        assert!(
            b_pos <= 1,
            "tenant B's single job must be granted on the next rotation, got order {order:?}"
        );
    }
}
