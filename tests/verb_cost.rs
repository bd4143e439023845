//! Deterministic cost gates for the verb round trip.
//!
//! Host time is noisy; the work the simulator does per verb is not. These
//! tests pin that work exactly — task polls, waker fires, timers and heap
//! allocations per no-fault round trip, the polls a completion batch
//! causes, and the event count of a small hash-table run — so a change
//! that adds a poll or an allocation to the hot path fails here and must
//! re-pin the numbers with an explanation.
//!
//! Allocations are counted per thread by this binary's global allocator:
//! the test harness runs tests concurrently, and a process-wide count
//! would charge one test's allocations to another.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use smart::{QpPolicy, SmartConfig, SmartContext, SmartThread};
use smart_bench::{run_ht, HtParams};
use smart_rnic::{Cluster, ClusterConfig, RemoteAddr};
use smart_rt::metrics::ExecutorMetrics;
use smart_rt::{Duration, Simulation};
use smart_workloads::Mix;

struct CountingAlloc;

thread_local! {
    // `const` initialisation: reading the counter never allocates, so
    // the allocator can touch it without recursing.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: defers entirely to the system allocator; the counter is a
// thread-local cell with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Wraps a future and counts how often it is polled.
struct CountPolls<F> {
    inner: Pin<Box<F>>,
    polls: Rc<Cell<u32>>,
}

impl<F: Future> Future for CountPolls<F> {
    type Output = F::Output;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        self.polls.set(self.polls.get() + 1);
        self.inner.as_mut().poll(cx)
    }
}

/// One compute node, one blade, one thread of `cfg`, and a region of
/// eight 8-byte words on the blade.
fn one_thread(cfg: SmartConfig) -> (Simulation, Cluster, Rc<SmartThread>, Vec<RemoteAddr>) {
    let sim = Simulation::new(7);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 1));
    let ctx = SmartContext::new(cluster.compute(0), cluster.blades(), cfg);
    let thread = ctx.create_thread();
    let blade = cluster.blade(0);
    let addrs = (0..8)
        .map(|_| RemoteAddr::new(blade.id(), blade.alloc(8, 8)))
        .collect();
    (sim, cluster, thread, addrs)
}

#[test]
fn one_completion_batch_polls_only_the_claimers_it_completed() {
    let (mut sim, _cluster, thread, addrs) = one_thread(SmartConfig::smart_full(1));
    let h = sim.handle();
    // Per coroutine: how often its `sync` was polled, and when it ended.
    let log = Rc::new(RefCell::new(Vec::new()));
    for addr in addrs {
        let coro = thread.coroutine();
        let (h, log) = (h.clone(), Rc::clone(&log));
        sim.spawn(async move {
            coro.read(addr, 8);
            coro.post_send().await;
            let polls = Rc::new(Cell::new(0));
            let sync = CountPolls {
                inner: Box::pin(coro.sync()),
                polls: Rc::clone(&polls),
            };
            assert_eq!(sync.await.len(), 1);
            log.borrow_mut().push((polls.get(), h.now()));
        });
    }
    sim.run_for(Duration::from_millis(1));
    let log = log.borrow();
    assert_eq!(log.len(), 8, "every coroutine completed its READ");
    let mut ends: Vec<_> = log.iter().map(|&(_, t)| t).collect();
    ends.dedup();
    assert!(
        ends.len() > 1,
        "the completions must arrive in several batches for the gate to bite"
    );
    // A claim is polled when it registers and once more when the batch
    // holding its last completion wakes it — never for other batches.
    for &(polls, _) in log.iter() {
        assert_eq!(polls, 2, "sync polled {polls} times");
    }
}

/// Executor work and heap allocations of one call of `op`, measured from
/// inside the calling task after `warm` warm-up calls, so lazily grown
/// buffers are already in place.
fn round_trip_cost<F, Fut>(cfg: SmartConfig, warm: usize, op: F) -> (ExecutorMetrics, u64)
where
    F: Fn(Rc<smart::SmartCoro>, RemoteAddr) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    let (mut sim, _cluster, thread, addrs) = one_thread(cfg);
    let h = sim.handle();
    let coro = Rc::new(thread.coroutine());
    let addr = addrs[0];
    sim.block_on(async move {
        for _ in 0..warm {
            op(Rc::clone(&coro), addr).await;
        }
        let before = h.metrics();
        let allocs = allocations();
        op(coro, addr).await;
        let allocs = allocations() - allocs;
        let after = h.metrics();
        let delta = ExecutorMetrics {
            tasks_spawned: after.tasks_spawned - before.tasks_spawned,
            polls: after.polls - before.polls,
            wakes: after.wakes - before.wakes,
            timers_scheduled: after.timers_scheduled - before.timers_scheduled,
            timers_fired: after.timers_fired - before.timers_fired,
            timers_cancelled: after.timers_cancelled - before.timers_cancelled,
            timers_purged: after.timers_purged - before.timers_purged,
        };
        (delta, allocs)
    })
}

/// The round-trip gates run on the baseline per-thread-doorbell config:
/// no tuner or conflict controller coroutines share the executor, so the
/// measured work is the verb's alone.
fn pinned_config() -> SmartConfig {
    SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, 1)
}

#[test]
fn read_round_trip_cost_is_pinned() {
    let (m, allocs) = round_trip_cost(pinned_config(), 4, |coro, addr| async move {
        assert_eq!(coro.read_sync(addr, 8).await.len(), 8);
    });
    // One RNIC lifecycle task. Every poll follows a wake except that
    // task's first, which follows its spawn.
    assert_eq!(
        (
            m.tasks_spawned,
            m.polls,
            m.wakes,
            m.timers_scheduled,
            m.timers_fired
        ),
        (1, 11, 10, 8, 8),
        "{m:?}"
    );
    // The WR buffer, the posted-id list, the lifecycle task, the READ
    // payload and the claimed completion list.
    assert_eq!(allocs, 5, "read_sync allocated {allocs} times");
}

#[test]
fn cas_round_trip_cost_is_pinned() {
    let (m, allocs) = round_trip_cost(pinned_config(), 4, |coro, addr| async move {
        coro.cas_sync(addr, 0, 0).await;
    });
    assert_eq!(
        (
            m.tasks_spawned,
            m.polls,
            m.wakes,
            m.timers_scheduled,
            m.timers_fired
        ),
        (1, 12, 11, 9, 9),
        "{m:?}"
    );
    // As for a READ, without the payload.
    assert_eq!(allocs, 4, "cas_sync allocated {allocs} times");
}

#[test]
fn small_hash_table_run_event_count_is_pinned() {
    let mut p = HtParams::new(SmartConfig::smart_full(2), 2, 2_000, Mix::WriteHeavy);
    p.warmup = Duration::from_micros(100);
    p.measure = Duration::from_micros(200);
    p.seed = 42;
    let r = run_ht(&p);
    assert_eq!(r.sim_events, 3_313_731);
}
