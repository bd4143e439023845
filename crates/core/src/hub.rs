//! Completion demultiplexing: a dedicated polling coroutine per thread
//! drains the CQ and hands each completion to the coroutine that claims
//! it.
//!
//! This mirrors SMART's implementation: "SMART also uses a dedicated
//! coroutine for each thread to poll CQs" (§5.1).
//!
//! Dispatch is targeted. A pending [`CompletionHub::claim`] registers
//! each wr_id it still misses under its own claimer slot, so a drained
//! completion finds its claimer in O(1). After each CQ batch the pump
//! wakes exactly the claimers that batch completed, in the order they
//! registered; an incomplete claim is never polled. Dropping a pending
//! claim deregisters it and leaves its delivered completions in place.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use smart_rnic::{Cq, Cqe};
use smart_rt::detmap::DetMap;
use smart_rt::sync::FifoResource;
use smart_rt::SimHandle;

use crate::throttle::WrThrottle;

/// A wr_id's state in the hub: delivered and waiting to be claimed, or
/// still in flight with a claimer registered for it.
enum Entry {
    Done(Cqe),
    Awaited(u32),
}

/// A pending claim: its registration order, how many of its wr_ids are
/// still in flight, and the waker to fire once none are.
struct Claimer {
    seq: u64,
    missing: usize,
    waker: Option<Waker>,
}

#[derive(Default)]
struct HubState {
    /// wr_id → entry. Point-lookup only (insert/get/remove) — [`DetMap`]
    /// keeps claims and deliveries O(1) and exposes no iteration order.
    entries: DetMap<Entry>,
    /// Delivered completions not yet claimed.
    unclaimed: usize,
    /// Claimer slab, indexed by [`Entry::Awaited`]; `free` lists the
    /// vacant slots.
    claimers: Vec<Claimer>,
    free: Vec<u32>,
    next_seq: u64,
    /// Claimers completed by the batch being delivered (reused buffer).
    completed: Vec<u32>,
}

impl HubState {
    fn delivered(&self, id: &u64) -> bool {
        matches!(self.entries.get(id), Some(Entry::Done(_)))
    }

    fn register(&mut self, waker: &Waker) -> u32 {
        let claimer = Claimer {
            seq: self.next_seq,
            missing: 0,
            waker: Some(waker.clone()),
        };
        self.next_seq += 1;
        match self.free.pop() {
            Some(c) => {
                self.claimers[c as usize] = claimer;
                c
            }
            None => {
                self.claimers.push(claimer);
                self.claimers.len() as u32 - 1
            }
        }
    }

    fn release(&mut self, c: u32) {
        self.claimers[c as usize].waker = None;
        self.free.push(c);
    }

    /// Removes the delivered completions of `ids`, in the order of `ids`.
    fn take(&mut self, ids: &[u64]) -> Vec<Cqe> {
        self.unclaimed -= ids.len();
        ids.iter()
            .map(|id| match self.entries.remove(id) {
                Some(Entry::Done(cqe)) => cqe,
                _ => unreachable!("claimed wr {id} was not delivered"),
            })
            .collect()
    }

    /// Files a drained batch and moves the wakers of the claimers it
    /// completed into `wake`, in registration order.
    fn deliver(&mut self, batch: &mut Vec<Cqe>, wake: &mut Vec<Waker>) {
        for cqe in batch.drain(..) {
            match self.entries.insert(cqe.wr_id, Entry::Done(cqe)) {
                Some(Entry::Awaited(c)) => {
                    self.unclaimed += 1;
                    let claimer = &mut self.claimers[c as usize];
                    claimer.missing -= 1;
                    if claimer.missing == 0 {
                        self.completed.push(c);
                    }
                }
                Some(Entry::Done(_)) => {}
                None => self.unclaimed += 1,
            }
        }
        let claimers = &mut self.claimers;
        self.completed
            .sort_unstable_by_key(|&c| claimers[c as usize].seq);
        wake.extend(
            self.completed
                .drain(..)
                .filter_map(|c| claimers[c as usize].waker.take()),
        );
    }
}

/// Shared completion state between the polling coroutine and syncing
/// coroutines.
pub struct CompletionHub {
    cq: Rc<Cq>,
    state: RefCell<HubState>,
}

impl std::fmt::Debug for CompletionHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionHub")
            .field("unclaimed", &self.unclaimed())
            .finish()
    }
}

impl CompletionHub {
    /// Creates a hub over `cq` and spawns its polling coroutine.
    ///
    /// When `cpu` is given, each poll charges `cpu_poll +
    /// cpu_per_cqe × n` to that thread's CPU (the poller shares the CPU
    /// with the worker coroutines).
    ///
    /// When `throttle` is given, the poller replenishes its credits as
    /// completions drain (Algorithm 1 `SMARTPOLLCQ`) — crucially this
    /// happens in the *dedicated polling coroutine*, so a chunked post
    /// that stalls on credits is unblocked by completions of its own
    /// earlier chunks.
    pub fn start(
        handle: &SimHandle,
        cq: Rc<Cq>,
        cpu: Option<FifoResource>,
        throttle: Option<Rc<WrThrottle>>,
        cpu_poll: Duration,
        cpu_per_cqe: Duration,
    ) -> Rc<Self> {
        let hub = Rc::new(CompletionHub {
            cq: Rc::clone(&cq),
            state: RefCell::new(HubState::default()),
        });
        let pump = Rc::clone(&hub);
        handle.spawn(async move {
            let mut batch = Vec::new();
            let mut wake = Vec::new();
            loop {
                pump.cq.wait_nonempty().await;
                pump.cq.poll_into(usize::MAX, &mut batch);
                let n = batch.len();
                if let Some(cpu) = &cpu {
                    cpu.use_for(cpu_poll + cpu_per_cqe * n as u32).await;
                }
                if let Some(throttle) = &throttle {
                    throttle.replenish(n as u64);
                }
                pump.state.borrow_mut().deliver(&mut batch, &mut wake);
                for waker in wake.drain(..) {
                    waker.wake();
                }
            }
        });
        hub
    }

    /// The underlying completion queue.
    pub fn cq(&self) -> &Rc<Cq> {
        &self.cq
    }

    /// Completions delivered but not yet claimed.
    pub fn unclaimed(&self) -> usize {
        self.state.borrow().unclaimed
    }

    /// Waits until every id in `ids` has completed, removing and
    /// returning the entries in the order of `ids`.
    ///
    /// Each wr_id may be claimed by one pending claim at a time.
    pub fn claim<'a>(&'a self, ids: &'a [u64]) -> Claim<'a> {
        Claim {
            hub: self,
            ids,
            claimer: None,
        }
    }
}

/// Future returned by [`CompletionHub::claim`].
///
/// Its first poll takes the completions if all have been delivered, and
/// otherwise registers the missing wr_ids. From then on only the pump
/// wakes it, once the last of them is delivered. Dropping it while
/// pending deregisters the claim; completions delivered for its ids stay
/// in the hub for a later claim.
pub struct Claim<'a> {
    hub: &'a CompletionHub,
    ids: &'a [u64],
    claimer: Option<u32>,
}

impl std::fmt::Debug for Claim<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Claim")
            .field("ids", &self.ids)
            .field("registered", &self.claimer.is_some())
            .finish()
    }
}

impl Future for Claim<'_> {
    type Output = Vec<Cqe>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Vec<Cqe>> {
        let (hub, ids) = (self.hub, self.ids);
        let mut st = hub.state.borrow_mut();
        match self.claimer {
            Some(c) => {
                let claimer = &mut st.claimers[c as usize];
                if claimer.missing > 0 {
                    // Not woken by the pump (a combinator re-polling its
                    // branches): keep waiting with the current waker.
                    if let Some(w) = &mut claimer.waker {
                        w.clone_from(cx.waker());
                    }
                    return Poll::Pending;
                }
                st.release(c);
                self.claimer = None;
            }
            None if !ids.iter().all(|id| st.delivered(id)) => {
                let c = st.register(cx.waker());
                let mut missing = 0;
                for &id in ids {
                    if !st.delivered(&id) {
                        st.entries.insert(id, Entry::Awaited(c));
                        missing += 1;
                    }
                }
                st.claimers[c as usize].missing = missing;
                self.claimer = Some(c);
                return Poll::Pending;
            }
            None => {}
        }
        Poll::Ready(st.take(ids))
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let Some(c) = self.claimer else { return };
        let mut st = self.hub.state.borrow_mut();
        for id in self.ids {
            if matches!(st.entries.get(id), Some(Entry::Awaited(o)) if *o == c) {
                st.entries.remove(id);
            }
        }
        st.release(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_rnic::{Cqe, OpResult};
    use smart_rt::Simulation;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    /// A hub with no CPU or credit accounting.
    fn bare_hub(h: &SimHandle, cq: &Rc<Cq>) -> Rc<CompletionHub> {
        CompletionHub::start(h, Rc::clone(cq), None, None, Duration::ZERO, Duration::ZERO)
    }

    fn write_cqe(wr_id: u64) -> Cqe {
        Cqe {
            wr_id,
            result: OpResult::Write,
        }
    }

    #[test]
    fn claim_waits_for_all_ids_and_orders_results() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let cq = Cq::new();
        let hub = bare_hub(&h, &cq);
        let cq2 = Rc::clone(&cq);
        let h2 = h.clone();
        sim.spawn(async move {
            h2.sleep(Duration::from_nanos(10)).await;
            cq2.push(Cqe {
                wr_id: 2,
                result: OpResult::Write,
            });
            h2.sleep(Duration::from_nanos(10)).await;
            cq2.push(Cqe {
                wr_id: 1,
                result: OpResult::Atomic(5),
            });
        });
        let hub2 = Rc::clone(&hub);
        let got = sim.block_on(async move { hub2.claim(&[1, 2]).await });
        assert_eq!(got[0].wr_id, 1);
        assert_eq!(got[1].wr_id, 2);
        assert_eq!(hub.unclaimed(), 0);
    }

    #[test]
    fn two_claimers_each_get_their_entries() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let cq = Cq::new();
        let hub = bare_hub(&h, &cq);
        let a = {
            let hub = Rc::clone(&hub);
            sim.spawn(async move { hub.claim(&[10]).await })
        };
        let b = {
            let hub = Rc::clone(&hub);
            sim.spawn(async move { hub.claim(&[11]).await })
        };
        let h2 = h.clone();
        sim.spawn(async move {
            h2.sleep(Duration::from_nanos(5)).await;
            cq.push(Cqe {
                wr_id: 11,
                result: OpResult::Write,
            });
            cq.push(Cqe {
                wr_id: 10,
                result: OpResult::Write,
            });
        });
        sim.run_for(Duration::from_micros(1));
        assert_eq!(a.try_take().expect("a done")[0].wr_id, 10);
        assert_eq!(b.try_take().expect("b done")[0].wr_id, 11);
    }

    #[test]
    fn one_batch_wakes_its_claimers_in_registration_order() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let cq = Cq::new();
        let hub = bare_hub(&h, &cq);
        let order = Rc::new(RefCell::new(Vec::new()));
        // Registration order: 10 (first), 12 (never completed), 11.
        for id in [10u64, 12, 11] {
            let hub = Rc::clone(&hub);
            let order = Rc::clone(&order);
            sim.spawn(async move {
                hub.claim(&[id]).await;
                order.borrow_mut().push(id);
            });
        }
        sim.run_for(Duration::from_nanos(1));
        let before = h.metrics();
        // One batch, delivered in the opposite order of registration.
        cq.push(write_cqe(11));
        cq.push(write_cqe(10));
        sim.run_for(Duration::from_nanos(1));
        assert_eq!(*order.borrow(), vec![10, 11]);
        let after = h.metrics();
        // The pump and the two completed claimers; the claimer of 12 is
        // never polled.
        assert_eq!(after.polls - before.polls, 3);
        assert_eq!(after.wakes - before.wakes, 3);
        assert_eq!(hub.unclaimed(), 0);
    }

    #[test]
    fn dropped_pending_claim_is_not_woken_and_keeps_its_completions() {
        struct CountWakes(AtomicU32);
        impl std::task::Wake for CountWakes {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }

        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let cq = Cq::new();
        let hub = bare_hub(&h, &cq);
        let count = Arc::new(CountWakes(AtomicU32::new(0)));
        let waker = Waker::from(Arc::clone(&count));
        let ids = [1u64, 2];
        cq.push(write_cqe(1));
        sim.run_for(Duration::from_nanos(1));
        {
            let mut claim = std::pin::pin!(hub.claim(&ids));
            let poll = claim.as_mut().poll(&mut Context::from_waker(&waker));
            assert!(poll.is_pending(), "wr 2 has not completed");
        }
        cq.push(write_cqe(2));
        sim.run_for(Duration::from_nanos(1));
        assert_eq!(
            count.0.load(Ordering::Relaxed),
            0,
            "a dropped claim must not be woken"
        );
        assert_eq!(hub.unclaimed(), 2, "its completions stay claimable");
        let got = sim.block_on({
            let hub = Rc::clone(&hub);
            async move { hub.claim(&ids).await }
        });
        assert_eq!(got.iter().map(|c| c.wr_id).collect::<Vec<_>>(), ids);
        assert_eq!(hub.unclaimed(), 0);
    }

    #[test]
    fn shared_hub_dispatches_to_every_threads_coroutines() {
        use crate::config::{QpPolicy, SmartConfig};
        use crate::context::SmartContext;
        use smart_rnic::{Cluster, ClusterConfig, RemoteAddr};

        let mut sim = Simulation::new(3);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 1));
        let cfg = SmartConfig::baseline(QpPolicy::SharedQp, 2);
        let ctx = SmartContext::new(cluster.compute(0), cluster.blades(), cfg);
        let threads = [ctx.create_thread(), ctx.create_thread()];
        assert!(Rc::ptr_eq(&threads[0].hub, &threads[1].hub));
        let blade = Rc::clone(cluster.blade(0));
        let mut reads = Vec::new();
        for (t, thread) in threads.iter().enumerate() {
            for c in 0..4u64 {
                let off = blade.alloc(8, 8);
                let value = 100 * t as u64 + c;
                blade.write_u64(off, value);
                let coro = thread.coroutine();
                let addr = RemoteAddr::new(blade.id(), off);
                let read = sim.spawn(async move {
                    let mut word = [0u8; 8];
                    for _ in 0..3 {
                        word.copy_from_slice(&coro.read_sync(addr, 8).await);
                    }
                    u64::from_le_bytes(word)
                });
                reads.push((read, value));
            }
        }
        sim.run_for(Duration::from_millis(1));
        for (read, value) in reads {
            assert_eq!(read.try_take(), Some(value));
        }
        assert_eq!(threads[0].hub.unclaimed(), 0);
    }

    #[test]
    fn pump_charges_thread_cpu() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let cq = Cq::new();
        let cpu = FifoResource::new(h.clone());
        let _hub = CompletionHub::start(
            &h,
            Rc::clone(&cq),
            Some(cpu.clone()),
            None,
            Duration::from_nanos(80),
            Duration::from_nanos(30),
        );
        cq.push(Cqe {
            wr_id: 1,
            result: OpResult::Write,
        });
        sim.run_for(Duration::from_micros(1));
        assert_eq!(cpu.busy_time(), Duration::from_nanos(110));
    }
}
