use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use crate::join::{JoinHandle, JoinState};
use crate::metrics::ExecutorMetrics;
use crate::rng::SimRng;
use crate::time::SimTime;
use crate::wheel::{TimerToken, TimerWheel};

/// A task identity: slab index in the low half, slot generation in the
/// high half. The generation lets the executor drop a wake that was
/// enqueued for a previous occupant of a reused slot.
type TaskId = u64;

fn pack(idx: u32, gen: u32) -> TaskId {
    ((gen as u64) << 32) | idx as u64
}

fn unpack(id: TaskId) -> (u32, u32) {
    (id as u32, (id >> 32) as u32)
}

/// The ready queue shared between the executor and its wakers.
///
/// The `std::task::Waker` contract demands `Send + Sync`, but the
/// executor is single-threaded and wakers never leave its thread, so an
/// OS mutex per fire is pure overhead (a syscall-backed lock on every
/// wake was the hottest line in the old executor). This is a spin-guarded
/// `VecDeque`: uncontended (always, here) it costs one uncontended
/// compare-exchange, while remaining sound if a waker ever did migrate.
#[derive(Default)]
struct ReadyQueue {
    locked: AtomicBool,
    queue: UnsafeCell<VecDeque<TaskId>>,
}

// SAFETY: `queue` is only touched inside `with`, which holds the
// `locked` spin guard; the Acquire/Release pair orders those accesses.
unsafe impl Send for ReadyQueue {}
unsafe impl Sync for ReadyQueue {}

impl ReadyQueue {
    fn with<R>(&self, f: impl FnOnce(&mut VecDeque<TaskId>) -> R) -> R {
        while self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        // SAFETY: the spin guard above gives exclusive access.
        let out = f(unsafe { &mut *self.queue.get() });
        self.locked.store(false, Ordering::Release);
        out
    }

    fn push(&self, id: TaskId) {
        self.with(|q| q.push_back(id));
    }

    fn pop(&self) -> Option<TaskId> {
        self.with(|q| q.pop_front())
    }
}

/// The per-slot waker, created once when a slab slot is first used and
/// reused by every task that later occupies the slot — spawning no longer
/// allocates a fresh `Arc` pair per task. `gen` mirrors the slot's
/// current generation so wakes are stamped with the occupant they were
/// meant for.
struct SlotWaker {
    idx: u32,
    gen: AtomicU32,
    /// Dedup flag: set when the task is already in the ready queue.
    scheduled: AtomicBool,
    ready: Arc<ReadyQueue>,
    wakes: Arc<AtomicU64>,
}

impl Wake for SlotWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if !self.scheduled.swap(true, Ordering::Relaxed) {
            self.wakes.fetch_add(1, Ordering::Relaxed);
            self.ready
                .push(pack(self.idx, self.gen.load(Ordering::Relaxed)));
        }
    }
}

/// One slab slot: the resident future (when occupied) plus the slot's
/// permanent waker machinery.
struct TaskSlot {
    future: Option<Pin<Box<dyn Future<Output = ()>>>>,
    gen: u32,
    waker: Waker,
    slot: Arc<SlotWaker>,
}

/// Executor-side counters behind [`SimHandle::metrics`]. `wakes` is
/// atomic because it is bumped from inside the `Send + Sync` waker; the
/// timer cancellation/purge counters live in the [`TimerWheel`] itself.
#[derive(Default)]
struct ExecStats {
    tasks_spawned: Cell<u64>,
    polls: Cell<u64>,
    wakes: Arc<AtomicU64>,
    timers_scheduled: Cell<u64>,
    timers_fired: Cell<u64>,
}

/// How the executor breaks ties among timers that fire at the same virtual
/// time.
///
/// The default [`SchedulePolicy::Fifo`] fires same-deadline timers in
/// registration order — the schedule every bench and test relies on.
/// [`SchedulePolicy::SeededTieBreak`] permutes *only* those ties with a
/// deterministic per-salt hash, which is the schedule-exploration hook used
/// by `smart-check`: every perturbed schedule is still a legal total order
/// of the same event set (events never fire early or late, only same-time
/// peers swap), so any invariant violation it exposes is a real bug in the
/// simulated protocol, not a simulator artifact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Same-deadline timers fire in registration order.
    #[default]
    Fifo,
    /// Same-deadline timers fire in `splitmix64(seq ^ salt)` order; each
    /// salt selects one reproducible alternative schedule.
    SeededTieBreak(u64),
}

impl SchedulePolicy {
    fn tie_key(self, seq: u64) -> u64 {
        match self {
            SchedulePolicy::Fifo => seq,
            SchedulePolicy::SeededTieBreak(salt) => mix64(seq ^ salt),
        }
    }
}

/// SplitMix64 finalizer (same constants as the `SimRng` seeder); bijective,
/// so two timers never collide on a tie key.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

pub(crate) struct Inner {
    now: Cell<SimTime>,
    seq: Cell<u64>,
    policy: Cell<SchedulePolicy>,
    probe_seq: Cell<u64>,
    timers: RefCell<TimerWheel>,
    ready: Arc<ReadyQueue>,
    tasks: RefCell<Vec<TaskSlot>>,
    free: RefCell<Vec<u32>>,
    rng: RefCell<SimRng>,
    tracer: RefCell<Option<smart_trace::TraceSink>>,
    stats: ExecStats,
}

/// A cheaply clonable handle onto a running [`Simulation`].
///
/// Handles are how code *inside* tasks reaches the executor: reading the
/// virtual clock, sleeping, spawning sub-tasks and drawing random numbers.
/// All handles refer to the same underlying simulation.
///
/// ```rust
/// use smart_rt::{Duration, Simulation};
///
/// let mut sim = Simulation::new(7);
/// let h = sim.handle();
/// sim.block_on(async move {
///     let h2 = h.clone();
///     let child = h.spawn(async move {
///         h2.sleep(Duration::from_nanos(100)).await;
///         5u32
///     });
///     assert_eq!(child.await, 5);
/// });
/// ```
#[derive(Clone)]
pub struct SimHandle {
    inner: Rc<Inner>,
}

impl std::fmt::Debug for SimHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimHandle")
            .field("now", &self.now())
            .finish()
    }
}

impl SimHandle {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.now.get()
    }

    /// Spawns a task onto the simulation and returns a [`JoinHandle`] that
    /// resolves to its output.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let state = Rc::new(RefCell::new(JoinState::default()));
        let state2 = Rc::clone(&state);
        let wrapped = async move {
            let out = future.await;
            JoinState::finish(&state2, out);
        };
        self.spawn_raw(Box::pin(wrapped));
        JoinHandle::new(state)
    }

    /// Spawns a fire-and-forget task: like [`Self::spawn`] without the
    /// join state, which saves an allocation per task on paths that
    /// never await the result (one RNIC lifecycle task per work request).
    pub fn spawn_detached<F>(&self, future: F)
    where
        F: Future<Output = ()> + 'static,
    {
        self.spawn_raw(Box::pin(future));
    }

    fn spawn_raw(&self, future: Pin<Box<dyn Future<Output = ()>>>) {
        let mut tasks = self.inner.tasks.borrow_mut();
        let idx = match self.inner.free.borrow_mut().pop() {
            Some(idx) => idx,
            None => {
                // First occupancy of a fresh slot: build its permanent
                // waker. Every later task in this slot reuses it.
                let idx = u32::try_from(tasks.len()).expect("task slab exhausted");
                let slot = Arc::new(SlotWaker {
                    idx,
                    gen: AtomicU32::new(0),
                    scheduled: AtomicBool::new(false),
                    ready: Arc::clone(&self.inner.ready),
                    wakes: Arc::clone(&self.inner.stats.wakes),
                });
                tasks.push(TaskSlot {
                    future: None,
                    gen: 0,
                    waker: Waker::from(Arc::clone(&slot)),
                    slot,
                });
                idx
            }
        };
        let slot = &mut tasks[idx as usize];
        debug_assert!(slot.future.is_none(), "spawn into an occupied slot");
        slot.future = Some(future);
        slot.slot.scheduled.store(true, Ordering::Relaxed);
        let gen = slot.gen;
        let stats = &self.inner.stats;
        stats.tasks_spawned.set(stats.tasks_spawned.get() + 1);
        self.inner.ready.push(pack(idx, gen));
    }

    /// Snapshot of the executor's internal counters; see
    /// [`ExecutorMetrics`].
    pub fn metrics(&self) -> ExecutorMetrics {
        let s = &self.inner.stats;
        let timers = self.inner.timers.borrow();
        ExecutorMetrics {
            tasks_spawned: s.tasks_spawned.get(),
            polls: s.polls.get(),
            wakes: s.wakes.load(Ordering::Relaxed),
            timers_scheduled: s.timers_scheduled.get(),
            timers_fired: s.timers_fired.get(),
            timers_cancelled: timers.cancelled,
            timers_purged: timers.purged,
        }
    }

    /// Registers `waker` to be woken at virtual time `at`.
    ///
    /// This is the low-level primitive beneath [`sleep`](Self::sleep); the
    /// queueing primitives in [`crate::sync`] use it directly.
    pub fn wake_at(&self, at: SimTime, waker: Waker) {
        self.register_timer(at, waker);
    }

    /// Registers a timer and returns its cancellation token; used by
    /// [`Sleep`] so a dropped sleep tombstones its entry instead of
    /// firing a dead waker at the deadline.
    fn register_timer(&self, at: SimTime, waker: Waker) -> TimerToken {
        let seq = self.inner.seq.get();
        self.inner.seq.set(seq + 1);
        let key = self.inner.policy.get().tie_key(seq);
        let stats = &self.inner.stats;
        stats.timers_scheduled.set(stats.timers_scheduled.get() + 1);
        self.inner
            .timers
            .borrow_mut()
            .insert(at.as_nanos(), key, seq, waker)
    }

    /// Tombstones a pending timer; stale tokens are ignored.
    fn cancel_timer(&self, token: TimerToken) {
        self.inner.timers.borrow_mut().cancel(token);
    }

    /// The active tie-breaking policy (see [`SchedulePolicy`]).
    pub fn schedule_policy(&self) -> SchedulePolicy {
        self.inner.policy.get()
    }

    /// Allocates a fresh probe identity for a sync primitive or shared
    /// cell, for use in [`SimHandle::probe_sync`] events. Ids are handed
    /// out in deterministic creation order starting at 1 (0 is reserved
    /// for "unprobed").
    pub fn fresh_probe_id(&self) -> u64 {
        let id = self.inner.probe_seq.get() + 1;
        self.inner.probe_seq.set(id);
        id
    }

    /// Emits a [`smart_trace::Category::Sync`] probe at the current virtual
    /// time: `actor` performed `op` on the lock/cell `id` named `name`.
    /// Costs a couple of branches unless a tracer is installed with Sync
    /// events unmasked.
    pub fn probe_sync(
        &self,
        actor: smart_trace::Actor,
        name: &'static str,
        op: smart_trace::SyncOp,
        id: u64,
    ) {
        let t_ns = self.now().as_nanos();
        self.with_tracer(|t| t.sync_probe(t_ns, actor, name, op, id));
    }

    /// Returns a future that completes once virtual time reaches
    /// `self.now() + duration`.
    pub fn sleep(&self, duration: Duration) -> Sleep {
        self.sleep_until(self.now() + duration)
    }

    /// Returns a future that completes once virtual time reaches `deadline`.
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            handle: self.clone(),
            deadline,
            token: None,
        }
    }

    /// Draws from the simulation's deterministic PRNG.
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut SimRng) -> R) -> R {
        f(&mut self.inner.rng.borrow_mut())
    }

    /// Uniform random `u64` in `[0, bound)` from the simulation PRNG.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn rand_below(&self, bound: u64) -> u64 {
        assert!(bound > 0, "rand_below bound must be positive");
        self.with_rng(|r| r.next_u64_below(bound))
    }

    /// Installs a [`smart_trace::TraceSink`] on the simulation; subsequent
    /// instrumentation in the runtime and everything built on top records
    /// into it. Replaces any previously installed sink.
    ///
    /// Recording never advances virtual time, so installing (or enabling /
    /// disabling) a tracer cannot change simulated behaviour — only observe
    /// it.
    pub fn install_tracer(&self, sink: smart_trace::TraceSink) {
        *self.inner.tracer.borrow_mut() = Some(sink);
    }

    /// Removes and returns the installed tracer, if any.
    pub fn take_tracer(&self) -> Option<smart_trace::TraceSink> {
        self.inner.tracer.borrow_mut().take()
    }

    /// A clone of the installed tracer, if any.
    pub fn tracer(&self) -> Option<smart_trace::TraceSink> {
        self.inner.tracer.borrow().clone()
    }

    /// Runs `f` with the installed tracer when one is present *and*
    /// enabled. This is the hot-path guard used by all instrumentation:
    /// with no tracer (or a disabled one) it is a borrow, a check and an
    /// early return.
    pub fn with_tracer(&self, f: impl FnOnce(&smart_trace::TraceSink)) {
        if let Some(sink) = self.inner.tracer.borrow().as_ref() {
            if sink.is_enabled() {
                f(sink);
            }
        }
    }
}

/// Future returned by [`SimHandle::sleep`] and [`SimHandle::sleep_until`].
///
/// Dropping a `Sleep` before its deadline (losing a `with_timeout` race,
/// a select taken by another branch) cancels the underlying timer: the
/// entry is tombstoned and purged without firing, instead of waking a
/// dead task at the deadline. The cancellations are visible as
/// `timers_cancelled` / `timers_purged` in [`SimHandle::metrics`].
#[derive(Debug)]
pub struct Sleep {
    handle: SimHandle,
    deadline: SimTime,
    token: Option<TimerToken>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.handle.now() >= self.deadline {
            // Fired (or was never pending): nothing left to cancel.
            self.token = None;
            return Poll::Ready(());
        }
        if self.token.is_none() {
            let deadline = self.deadline;
            let token = self.handle.register_timer(deadline, cx.waker().clone());
            self.token = Some(token);
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(token) = self.token.take() {
            self.handle.cancel_timer(token);
        }
    }
}

/// A deterministic discrete-event simulation: the executor, the virtual
/// clock and the task set.
///
/// `Simulation` owns everything; [`SimHandle`]s (from [`Self::handle`]) are
/// used inside tasks. Dropping the `Simulation` drops all tasks, breaking
/// any `Rc` cycles between tasks and the executor.
///
/// ```rust
/// use smart_rt::{Duration, Simulation};
///
/// let mut sim = Simulation::new(1);
/// let h = sim.handle();
/// let t = sim.block_on(async move {
///     h.sleep(Duration::from_micros(5)).await;
///     h.now()
/// });
/// assert_eq!(t.as_nanos(), 5_000);
/// ```
pub struct Simulation {
    handle: SimHandle,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.handle.now())
            .finish()
    }
}

impl Simulation {
    /// Creates an empty simulation whose PRNG is seeded with `seed`, using
    /// the default [`SchedulePolicy::Fifo`] tie-breaking.
    pub fn new(seed: u64) -> Self {
        Simulation::with_policy(seed, SchedulePolicy::Fifo)
    }

    /// Creates an empty simulation with an explicit tie-breaking policy.
    ///
    /// The policy applies to timers registered after construction, i.e. to
    /// everything — set it up front rather than mid-run so every tie in
    /// the run is broken the same way.
    pub fn with_policy(seed: u64, policy: SchedulePolicy) -> Self {
        Simulation {
            handle: SimHandle {
                inner: Rc::new(Inner {
                    now: Cell::new(SimTime::ZERO),
                    seq: Cell::new(0),
                    policy: Cell::new(policy),
                    probe_seq: Cell::new(0),
                    timers: RefCell::new(TimerWheel::new()),
                    ready: Arc::new(ReadyQueue::default()),
                    // Slab and free list grow once per distinct task
                    // slot, never per event.
                    tasks: RefCell::new(Vec::new()),
                    free: RefCell::new(Vec::new()),
                    rng: RefCell::new(SimRng::new(seed)),
                    tracer: RefCell::new(None),
                    stats: ExecStats::default(),
                }),
            },
        }
    }

    /// Number of live (spawned, not yet completed) tasks. After
    /// [`Self::run`] drains every event, a nonzero count means some task is
    /// parked forever with nothing left to wake it — the lost-wakeup /
    /// stuck-task signal consumed by `smart-check`.
    pub fn live_tasks(&self) -> usize {
        self.handle
            .inner
            .tasks
            .borrow()
            .iter()
            .filter(|t| t.future.is_some())
            .count()
    }

    /// Returns a handle usable inside tasks.
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.handle.now()
    }

    /// Spawns a task; see [`SimHandle::spawn`].
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.handle.spawn(future)
    }

    fn poll_task(&self, id: TaskId) {
        let (idx, gen) = unpack(id);
        let (mut future, waker) = {
            let mut tasks = self.handle.inner.tasks.borrow_mut();
            let Some(slot) = tasks.get_mut(idx as usize) else {
                return;
            };
            if slot.gen != gen {
                return; // wake stamped for a previous occupant of the slot
            }
            slot.slot.scheduled.store(false, Ordering::Relaxed);
            let Some(future) = slot.future.take() else {
                return; // task already completed
            };
            (future, slot.waker.clone())
        };
        let stats = &self.handle.inner.stats;
        stats.polls.set(stats.polls.get() + 1);
        let mut cx = Context::from_waker(&waker);
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                let mut tasks = self.handle.inner.tasks.borrow_mut();
                let slot = &mut tasks[idx as usize];
                // Retire this occupancy: bump the generation (mirrored
                // into the waker) so in-flight wakes for the finished
                // task die at the queue instead of poking its successor.
                slot.gen = slot.gen.wrapping_add(1);
                slot.slot.gen.store(slot.gen, Ordering::Relaxed);
                self.handle.inner.free.borrow_mut().push(idx);
            }
            Poll::Pending => {
                self.handle.inner.tasks.borrow_mut()[idx as usize].future = Some(future);
            }
        }
    }

    /// Runs one scheduling step. Returns `false` if no work remains.
    fn step(&mut self, limit: Option<SimTime>) -> bool {
        let id = self.handle.inner.ready.pop();
        if let Some(id) = id {
            self.poll_task(id);
            return true;
        }
        let fired = {
            let mut timers = self.handle.inner.timers.borrow_mut();
            match timers.peek_at() {
                Some(at) => {
                    if limit.is_some_and(|l| at > l.as_nanos()) {
                        None
                    } else {
                        Some(timers.pop().expect("peeked"))
                    }
                }
                None => None,
            }
        };
        match fired {
            Some((at, waker)) => {
                let at = SimTime::from_nanos(at);
                debug_assert!(at >= self.handle.now());
                let stats = &self.handle.inner.stats;
                stats.timers_fired.set(stats.timers_fired.get() + 1);
                self.handle.inner.now.set(at);
                waker.wake();
                true
            }
            None => false,
        }
    }

    /// Runs until no ready tasks and no timers remain.
    pub fn run(&mut self) {
        while self.step(None) {}
    }

    /// The virtual time of the earliest pending work: `now` when a task
    /// is ready to poll, otherwise the earliest timer deadline, `None`
    /// when the simulation is fully quiescent.
    ///
    /// This is the PDES coordinator's lower-bound probe (see
    /// [`crate::pdes`]): a scheduling domain reports its next event time
    /// and the coordinator derives the conservative horizon from the
    /// minimum across domains.
    pub fn next_event_at(&self) -> Option<SimTime> {
        if self.handle.inner.ready.with(|q| !q.is_empty()) {
            return Some(self.handle.now());
        }
        self.handle
            .inner
            .timers
            .borrow_mut()
            .peek_at()
            .map(SimTime::from_nanos)
    }

    /// Processes every event strictly before `limit` and stops, leaving
    /// the clock at the last fired event (it is **not** forced forward to
    /// `limit`, unlike [`Self::run_until`]).
    ///
    /// This is the PDES epoch-advance primitive: a domain must not
    /// observe time `limit` itself, because a cross-domain event may
    /// still be delivered exactly there by another domain.
    pub fn run_events_before(&mut self, limit: SimTime) {
        loop {
            if let Some(id) = self.handle.inner.ready.pop() {
                self.poll_task(id);
                continue;
            }
            let fired = {
                let mut timers = self.handle.inner.timers.borrow_mut();
                match timers.peek_at() {
                    Some(at) if at < limit.as_nanos() => Some(timers.pop().expect("peeked")),
                    _ => None,
                }
            };
            match fired {
                Some((at, waker)) => {
                    let at = SimTime::from_nanos(at);
                    debug_assert!(at >= self.handle.now());
                    let stats = &self.handle.inner.stats;
                    stats.timers_fired.set(stats.timers_fired.get() + 1);
                    self.handle.inner.now.set(at);
                    waker.wake();
                }
                None => break,
            }
        }
    }

    /// Runs until virtual time `deadline`: every event at or before the
    /// deadline is processed, then the clock is set to the deadline.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.step(Some(deadline)) {}
        if self.handle.now() < deadline {
            self.handle.inner.now.set(deadline);
        }
    }

    /// Runs for `duration` of virtual time; see [`Self::run_until`].
    pub fn run_for(&mut self, duration: Duration) {
        let deadline = self.handle.now() + duration;
        self.run_until(deadline);
    }

    /// Spawns `future` and runs the simulation until it completes,
    /// returning its output.
    ///
    /// # Panics
    ///
    /// Panics if the simulation runs out of events before the future
    /// completes (a deadlock in the simulated system).
    pub fn block_on<F>(&mut self, future: F) -> F::Output
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let join = self.spawn(future);
        while !join.is_finished() {
            if !self.step(None) {
                panic!("simulation deadlock: no events left but block_on future is pending");
            }
        }
        join.try_take().expect("join state finished")
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // Break Rc cycles: tasks hold SimHandles which hold Inner which
        // holds the tasks. Dropping the futures may cancel their pending
        // sleeps (Sleep::drop), which borrows the timer wheel — so the
        // wheel is cleared strictly afterwards.
        self.handle.inner.tasks.borrow_mut().clear();
        self.handle.inner.timers.borrow_mut().clear();
        self.handle.inner.ready.with(|q| q.clear());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Simulation::new(0);
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let t = sim.block_on(async move {
            h.sleep(Duration::from_nanos(123)).await;
            h.now()
        });
        assert_eq!(t.as_nanos(), 123);
    }

    #[test]
    fn sequential_sleeps_accumulate() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let t = sim.block_on(async move {
            for _ in 0..10 {
                h.sleep(Duration::from_nanos(10)).await;
            }
            h.now()
        });
        assert_eq!(t.as_nanos(), 100);
    }

    #[test]
    fn concurrent_tasks_interleave_by_time() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (i, delay) in [(0u32, 30u64), (1, 10), (2, 20)] {
            let h2 = h.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                h2.sleep(Duration::from_nanos(delay)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![1, 2, 0]);
        assert_eq!(sim.now().as_nanos(), 30);
    }

    #[test]
    fn join_handle_returns_value() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let v = sim.block_on(async move {
            let h2 = h.clone();
            let a = h.spawn(async move {
                h2.sleep(Duration::from_nanos(5)).await;
                21u64
            });
            a.await * 2
        });
        assert_eq!(v, 42);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let hits = Rc::new(Cell::new(0u32));
        let hits2 = Rc::clone(&hits);
        sim.spawn(async move {
            loop {
                h.sleep(Duration::from_nanos(100)).await;
                hits2.set(hits2.get() + 1);
            }
        });
        sim.run_until(SimTime::from_nanos(550));
        assert_eq!(hits.get(), 5);
        assert_eq!(sim.now().as_nanos(), 550);
        sim.run_for(Duration::from_nanos(50));
        assert_eq!(hits.get(), 6);
    }

    #[test]
    fn yield_now_lets_peers_run() {
        let mut sim = Simulation::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        let l1 = Rc::clone(&log);
        let l2 = Rc::clone(&log);
        sim.spawn(async move {
            l1.borrow_mut().push("a1");
            crate::yield_now().await;
            l1.borrow_mut().push("a2");
        });
        sim.spawn(async move {
            l2.borrow_mut().push("b1");
            crate::yield_now().await;
            l2.borrow_mut().push("b2");
        });
        sim.run();
        assert_eq!(*log.borrow(), vec!["a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn same_deadline_fires_in_registration_order() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4 {
            let h2 = h.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                h2.sleep(Duration::from_nanos(7)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn seeded_tie_break_permutes_same_deadline_ties_reproducibly() {
        fn run_once(policy: SchedulePolicy) -> Vec<u32> {
            let mut sim = Simulation::with_policy(0, policy);
            let h = sim.handle();
            let order = Rc::new(RefCell::new(Vec::new()));
            for i in 0..8u32 {
                let h2 = h.clone();
                let order = Rc::clone(&order);
                sim.spawn(async move {
                    h2.sleep(Duration::from_nanos(7)).await;
                    order.borrow_mut().push(i);
                });
            }
            sim.run();
            let v = order.borrow().clone();
            v
        }
        assert_eq!(run_once(SchedulePolicy::Fifo), (0..8).collect::<Vec<_>>());
        // Some salt among the first few must permute an 8-way tie.
        let perturbed: Vec<Vec<u32>> = (1..=4)
            .map(|s| run_once(SchedulePolicy::SeededTieBreak(s)))
            .collect();
        assert!(
            perturbed.iter().any(|o| *o != (0..8).collect::<Vec<_>>()),
            "no salt permuted the tie: {perturbed:?}"
        );
        for (i, o) in perturbed.iter().enumerate() {
            let mut sorted = o.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                (0..8).collect::<Vec<_>>(),
                "salt {} lost events",
                i + 1
            );
            assert_eq!(
                *o,
                run_once(SchedulePolicy::SeededTieBreak(i as u64 + 1)),
                "same salt must reproduce the same schedule"
            );
        }
    }

    #[test]
    fn tie_break_never_reorders_distinct_deadlines() {
        let mut sim = Simulation::with_policy(0, SchedulePolicy::SeededTieBreak(3));
        let h = sim.handle();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (i, delay) in [(0u32, 30u64), (1, 10), (2, 20)] {
            let h2 = h.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                h2.sleep(Duration::from_nanos(delay)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![1, 2, 0]);
    }

    #[test]
    fn live_tasks_counts_parked_tasks() {
        let mut sim = Simulation::new(0);
        assert_eq!(sim.live_tasks(), 0);
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(Duration::from_nanos(5)).await;
        });
        sim.spawn(async move {
            std::future::pending::<()>().await;
        });
        sim.run();
        assert_eq!(sim.live_tasks(), 1, "the pending task is stuck");
    }

    #[test]
    fn probe_ids_are_fresh_and_deterministic() {
        let sim = Simulation::new(0);
        let h = sim.handle();
        assert_eq!(h.fresh_probe_id(), 1);
        assert_eq!(h.fresh_probe_id(), 2);
        assert_eq!(sim.handle().fresh_probe_id(), 3);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn block_on_detects_deadlock() {
        let mut sim = Simulation::new(0);
        sim.block_on(async {
            std::future::pending::<()>().await;
        });
    }

    #[test]
    fn determinism_same_seed_same_schedule() {
        fn run_once(seed: u64) -> Vec<u64> {
            let mut sim = Simulation::new(seed);
            let h = sim.handle();
            let out = Rc::new(RefCell::new(Vec::new()));
            for _ in 0..8 {
                let h2 = h.clone();
                let out = Rc::clone(&out);
                sim.spawn(async move {
                    let d = h2.rand_below(1000);
                    h2.sleep(Duration::from_nanos(d)).await;
                    out.borrow_mut().push(h2.now().as_nanos());
                });
            }
            sim.run();
            let v = out.borrow().clone();
            v
        }
        assert_eq!(run_once(99), run_once(99));
        assert_ne!(run_once(99), run_once(100));
    }

    #[test]
    fn dropping_simulation_releases_tasks() {
        let dropped = Rc::new(Cell::new(false));
        struct SetOnDrop(Rc<Cell<bool>>);
        impl Drop for SetOnDrop {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        {
            let sim = Simulation::new(0);
            let h = sim.handle();
            let guard = SetOnDrop(Rc::clone(&dropped));
            sim.spawn(async move {
                let _guard = guard;
                h.sleep(Duration::from_secs(1_000_000)).await;
            });
            // not run to completion
        }
        assert!(dropped.get(), "task future must be dropped with the sim");
    }

    #[test]
    fn many_tasks_reuse_slots() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        for round in 0..100 {
            let h2 = h.clone();
            let j = sim.spawn(async move {
                h2.sleep(Duration::from_nanos(1)).await;
                round
            });
            sim.run();
            assert_eq!(j.try_take(), Some(round));
        }
        // All 100 tasks ran sequentially; the slab should stay tiny.
        assert!(sim.handle.inner.tasks.borrow().len() <= 2);
    }

    #[test]
    fn metrics_count_spawns_polls_and_timers() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        assert_eq!(h.metrics(), ExecutorMetrics::default());
        sim.block_on(async move {
            for _ in 0..3 {
                h.sleep(Duration::from_nanos(10)).await;
            }
        });
        let m = sim.handle().metrics();
        assert_eq!(m.tasks_spawned, 1);
        assert_eq!(m.timers_scheduled, 3);
        assert_eq!(m.timers_fired, 3);
        // First poll registers the first sleep, then one poll per fire.
        assert_eq!(m.polls, 4);
        assert_eq!(m.wakes, 3, "one deduplicated wake per timer fire");
        assert_eq!(m.timers_cancelled, 0);
        assert_eq!(m.events(), m.polls + m.timers_fired);
    }
}
