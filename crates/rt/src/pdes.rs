//! Conservative parallel deterministic simulation (PDES) core.
//!
//! The single-threaded [`Simulation`] is a total order over one event
//! queue. This module partitions a simulation into **scheduling
//! domains** — one per blade / thread group, one for the fabric — each
//! owning its *own* executor (timer wheel, ready queue, slab, PRNG) and
//! optionally its own OS thread. Domains interact **only** through
//! bounded, fixed-latency inter-domain channels, the simulated analogue
//! of NIC verbs crossing the fabric: that isolation is exactly what
//! smart-lint's `cross-domain-shared-state` / `rc-escape` rules prove
//! statically for the workspace (DESIGN.md §5.6), and it is the
//! precondition conservative PDES needs.
//!
//! ## Synchronization: epoch barriers with lookahead
//!
//! Every channel has a latency `L > 0`; the engine's **lookahead** is the
//! minimum latency over all channels. The coordinator repeatedly
//! computes the lower bound on the next event anywhere:
//!
//! ```text
//! LBTS    = min( every domain's next local event time,
//!                every routed-but-undelivered envelope's delivery time )
//! horizon = LBTS + lookahead
//! ```
//!
//! and lets every domain process its events with `t < horizon`
//! concurrently. Any event a domain emits during the epoch happens at
//! some `t >= LBTS`, so its delivery lands at `t + L >= horizon` — in a
//! later epoch, never in this one. No domain can ever receive an event
//! from its past, with **zero** rollbacks and no null-message traffic.
//!
//! ## Determinism: the merge rule
//!
//! Envelopes routed to a domain between epochs are injected in ascending
//! `(delivery time, channel id, channel sequence number)` order — a
//! total order, because the per-channel sequence number is unique. A
//! domain's execution is therefore a pure function of its seed and its
//! injected envelope batches; the epoch schedule itself is derived only
//! from reported event times and envelope stamps. None of that depends
//! on how domains map onto OS threads, so a parallel run is
//! **byte-identical** to the sequential (`workers = 1`) run: same event
//! order, same RNG draws, same trace bytes. `tests/scheduler_equiv.rs`
//! and `crates/rt/tests/pdes_prop.rs` enforce exactly that, at workers
//! 1, 2 and 4, before any of this is allowed to matter.
//!
//! ## Example
//!
//! ```rust
//! use smart_rt::pdes::PdesBuilder;
//! use smart_rt::Duration;
//!
//! let mut b = PdesBuilder::new(7);
//! let client = b.domain_id(0);
//! let server = b.domain_id(1);
//! let (req_tx, req_rx) = b.channel::<u64>(client, server, Duration::from_micros(2));
//! let (rsp_tx, rsp_rx) = b.channel::<u64>(server, client, Duration::from_micros(2));
//!
//! b.add_domain("client", move |ctx| {
//!     let tx = ctx.bind_tx(req_tx);
//!     let rx = ctx.bind_rx(rsp_rx);
//!     let h = ctx.handle();
//!     ctx.handle().spawn(async move {
//!         tx.send(41);
//!         let v = rx.recv().await;
//!         assert_eq!(v, 42);
//!         assert_eq!(h.now().as_nanos(), 4_000); // two fabric crossings
//!     });
//!     Box::new(|ctx: &smart_rt::pdes::DomainCtx| {
//!         format!("done at {}", ctx.now().as_nanos()).into_bytes()
//!     })
//! });
//! b.add_domain("server", move |ctx| {
//!     let rx = ctx.bind_rx(req_rx);
//!     let tx = ctx.bind_tx(rsp_tx);
//!     ctx.handle().spawn(async move {
//!         let v = rx.recv().await;
//!         tx.send(v + 1);
//!     });
//!     Box::new(|_: &smart_rt::pdes::DomainCtx| Vec::new())
//! });
//! let report = b.run(1); // workers=1: the sequential reference
//! assert_eq!(report.domains[0].artifact, b"done at 4000");
//! ```

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::mpsc;
use std::task::{Context, Poll, Waker};
// The one deliberate exception to the `os-concurrency` rule (see
// PDES_ENGINE_FILES in smart-lint): this module IS the engine that hosts
// deterministic domains on OS threads. Determinism is guaranteed by the
// epoch/merge construction above and gated by the differential matrix,
// not by the absence of threads.
use std::thread;
use std::time::Duration;

use crate::executor::{SchedulePolicy, SimHandle, Simulation};
use crate::metrics::ExecutorMetrics;
use crate::time::SimTime;

/// Identity of a scheduling domain, dense from zero in creation order.
///
/// By convention the partition planners put the fabric domain first
/// (id 0) and blade / thread-group domains after it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct DomainId(pub u32);

impl DomainId {
    /// The domain's index into [`PdesReport::domains`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// SplitMix64 finalizer, used to derive per-domain seeds.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Seed of domain `id` under master seed `seed`. Domain 0 keeps the raw
/// seed, so a one-domain partition draws the same stream as a plain
/// `Simulation::new(seed)`; later domains get independent mixed streams.
fn domain_seed(seed: u64, id: u32) -> u64 {
    if id == 0 {
        seed
    } else {
        mix64(seed ^ mix64(id as u64))
    }
}

/// Per-channel static metadata, fixed at build time.
#[derive(Clone, Copy, Debug)]
struct ChannelMeta {
    dst: u32,
    latency_ns: u64,
    capacity: usize,
}

/// A cross-domain event in flight: payload plus the merge key.
struct Envelope {
    chan: u32,
    deliver_ns: u64,
    seq: u64,
    payload: Box<dyn Any + Send>,
}

impl Envelope {
    /// The total merge order: `(delivery time, channel, sequence)`.
    fn key(&self) -> (u64, u32, u64) {
        (self.deliver_ns, self.chan, self.seq)
    }
}

/// Sender capability for one channel, created by [`PdesBuilder::channel`]
/// and bound inside the owning domain with [`DomainCtx::bind_tx`].
///
/// Tokens are plain `Send` values regardless of `T`, so they can travel
/// into the domain-setup closure that runs on the domain's own thread.
pub struct TxToken<T> {
    chan: u32,
    src: u32,
    latency_ns: u64,
    _marker: PhantomData<fn(T)>,
}

/// Receiver capability for one channel; see [`TxToken`].
pub struct RxToken<T> {
    chan: u32,
    dst: u32,
    _marker: PhantomData<fn() -> T>,
}

/// A delivery closure registered by `bind_rx`: downcasts the erased
/// payload and hands it to the channel's receiver queue.
type DeliverFn = Rc<dyn Fn(Box<dyn Any + Send>)>;

/// State shared between a domain's context, its senders/receivers and
/// the engine runtime that advances it. Everything here is `Rc`-local to
/// the domain's executing thread.
struct DomainShared {
    /// Envelopes emitted this epoch, drained by the runtime.
    outbox: RefCell<Vec<Envelope>>,
    /// Per-channel delivery closures registered by `bind_rx`.
    rx: RefCell<BTreeMap<u32, DeliverFn>>,
    /// Per-channel send sequence counters.
    tx_seq: RefCell<BTreeMap<u32, u64>>,
    /// Envelopes delivered into this domain, total.
    delivered: Cell<u64>,
}

/// The execution context handed to a domain's setup closure.
///
/// It owns the domain's [`SimHandle`] (clock, spawn, RNG, tracer) and
/// binds channel endpoints. The same context is handed to the finish
/// hook after the last epoch, for reading end-of-run state.
pub struct DomainCtx {
    id: DomainId,
    name: String,
    handle: SimHandle,
    shared: Rc<DomainShared>,
}

impl DomainCtx {
    /// This domain's id.
    pub fn id(&self) -> DomainId {
        self.id
    }

    /// The domain's name as given to [`PdesBuilder::add_domain`].
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The domain's simulation handle: spawn tasks, sleep, draw from the
    /// domain's own deterministic PRNG, install a tracer.
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// The domain's current virtual time.
    pub fn now(&self) -> SimTime {
        self.handle.now()
    }

    /// Envelopes delivered into this domain so far.
    pub fn envelopes_delivered(&self) -> u64 {
        self.shared.delivered.get()
    }

    /// Materializes the sending end of a channel inside its source
    /// domain.
    ///
    /// # Panics
    ///
    /// Panics if the token's source domain is not this domain.
    pub fn bind_tx<T: Send + 'static>(&self, token: TxToken<T>) -> PdesSender<T> {
        assert_eq!(
            token.src, self.id.0,
            "bind_tx: channel {} is sent from domain {}, not {}",
            token.chan, token.src, self.id.0
        );
        PdesSender {
            handle: self.handle.clone(),
            shared: Rc::clone(&self.shared),
            chan: token.chan,
            latency_ns: token.latency_ns,
            _marker: PhantomData,
        }
    }

    /// Materializes the receiving end of a channel inside its
    /// destination domain.
    ///
    /// # Panics
    ///
    /// Panics if the token's destination domain is not this domain, or
    /// if the channel was already bound.
    pub fn bind_rx<T: Send + 'static>(&self, token: RxToken<T>) -> PdesReceiver<T> {
        assert_eq!(
            token.dst, self.id.0,
            "bind_rx: channel {} delivers to domain {}, not {}",
            token.chan, token.dst, self.id.0
        );
        let state = Rc::new(RxState {
            queue: RefCell::new(VecDeque::new()),
            waker: RefCell::new(None),
        });
        let deliver_into = Rc::clone(&state);
        let deliver: Rc<dyn Fn(Box<dyn Any + Send>)> = Rc::new(move |payload| {
            let value = *payload
                .downcast::<T>()
                .expect("pdes channel payload type confusion");
            deliver_into.queue.borrow_mut().push_back(value);
            if let Some(w) = deliver_into.waker.borrow_mut().take() {
                w.wake();
            }
        });
        let prev = self.shared.rx.borrow_mut().insert(token.chan, deliver);
        assert!(
            prev.is_none(),
            "bind_rx: channel {} bound twice",
            token.chan
        );
        PdesReceiver {
            state,
            _marker: PhantomData,
        }
    }
}

/// The sending half of an inter-domain channel.
///
/// Sends are non-blocking: the value is stamped with `now + latency` and
/// handed to the coordinator at the end of the epoch. Capacity is
/// enforced at routing time against the number of envelopes queued for
/// injection on the channel.
pub struct PdesSender<T> {
    handle: SimHandle,
    shared: Rc<DomainShared>,
    chan: u32,
    latency_ns: u64,
    _marker: PhantomData<fn(T)>,
}

impl<T: Send + 'static> PdesSender<T> {
    /// Sends `value` across the domain boundary; it becomes visible to
    /// the receiver exactly `latency` after the current virtual time.
    pub fn send(&self, value: T) {
        let seq = {
            let mut seqs = self.shared.tx_seq.borrow_mut();
            let s = seqs.entry(self.chan).or_insert(0);
            let out = *s;
            *s += 1;
            out
        };
        self.shared.outbox.borrow_mut().push(Envelope {
            chan: self.chan,
            deliver_ns: self.handle.now().as_nanos() + self.latency_ns,
            seq,
            payload: Box::new(value),
        });
    }

    /// The channel's fixed one-way latency.
    pub fn latency(&self) -> Duration {
        Duration::from_nanos(self.latency_ns)
    }
}

struct RxState<T> {
    queue: RefCell<VecDeque<T>>,
    waker: RefCell<Option<Waker>>,
}

/// The receiving half of an inter-domain channel (single consumer).
pub struct PdesReceiver<T> {
    state: Rc<RxState<T>>,
    _marker: PhantomData<fn() -> T>,
}

impl<T> PdesReceiver<T> {
    /// Takes the next delivered value without waiting.
    pub fn try_recv(&self) -> Option<T> {
        self.state.queue.borrow_mut().pop_front()
    }

    /// Waits until a value is delivered (at its stamped virtual delivery
    /// time) and returns it.
    pub fn recv(&self) -> Recv<'_, T> {
        Recv { rx: self }
    }

    /// Number of values delivered but not yet received.
    pub fn pending(&self) -> usize {
        self.state.queue.borrow().len()
    }
}

/// Future returned by [`PdesReceiver::recv`].
pub struct Recv<'a, T> {
    rx: &'a PdesReceiver<T>,
}

impl<T> std::future::Future for Recv<'_, T> {
    type Output = T;

    fn poll(self: std::pin::Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        if let Some(v) = self.rx.state.queue.borrow_mut().pop_front() {
            return Poll::Ready(v);
        }
        *self.rx.state.waker.borrow_mut() = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// A domain's finish hook: runs after the last epoch, still on the
/// domain's thread, and returns the domain's **artifact** — the bytes
/// (report text, histogram dump, trace JSON, anything) that the
/// differential tests compare across worker counts.
pub type DomainFinish = Box<dyn FnOnce(&DomainCtx) -> Vec<u8>>;

enum DomainSlot {
    /// Setup is `Send`: the domain may be hosted by a worker thread.
    Remote {
        name: String,
        setup: Box<dyn FnOnce(&DomainCtx) -> DomainFinish + Send>,
    },
    /// Setup captures thread-local state (`Rc` graphs built outside):
    /// the domain always runs inline on the coordinator thread.
    Local {
        name: String,
        setup: Box<dyn FnOnce(&DomainCtx) -> DomainFinish>,
    },
}

/// A worker-hosted domain in transit to its thread (only the `Send`
/// variant of [`DomainSlot`] ever takes this form).
struct RemoteDomain {
    id: u32,
    name: String,
    setup: Box<dyn FnOnce(&DomainCtx) -> DomainFinish + Send>,
}

/// Builder for a partitioned simulation. See the [module docs](self).
pub struct PdesBuilder {
    seed: u64,
    policy: SchedulePolicy,
    domains: Vec<DomainSlot>,
    channels: Vec<ChannelMeta>,
}

impl PdesBuilder {
    /// Creates a builder whose domains derive their PRNG seeds from
    /// `seed`, with FIFO tie-breaking.
    pub fn new(seed: u64) -> Self {
        PdesBuilder::with_policy(seed, SchedulePolicy::Fifo)
    }

    /// Creates a builder with an explicit tie-breaking policy, applied
    /// to every domain's executor.
    pub fn with_policy(seed: u64, policy: SchedulePolicy) -> Self {
        PdesBuilder {
            seed,
            policy,
            domains: Vec::new(),
            channels: Vec::new(),
        }
    }

    /// The id the `n`-th added domain will get (they are dense in
    /// creation order). Handy for declaring channels before the domains.
    pub fn domain_id(&self, n: u32) -> DomainId {
        DomainId(n)
    }

    /// Number of domains added so far.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Declares an inter-domain channel from `src` to `dst` with the
    /// given one-way latency and unbounded capacity. The engine's
    /// conservative lookahead is the minimum latency over all channels.
    ///
    /// # Panics
    ///
    /// Panics if the latency is zero (zero-latency edges would collapse
    /// the lookahead and with it the parallelism) or if `src == dst`.
    pub fn channel<T: Send + 'static>(
        &mut self,
        src: DomainId,
        dst: DomainId,
        latency: Duration,
    ) -> (TxToken<T>, RxToken<T>) {
        self.channel_bounded(src, dst, latency, usize::MAX)
    }

    /// [`Self::channel`] with an explicit capacity: routing more than
    /// `capacity` not-yet-injected envelopes onto the channel panics, so
    /// a runaway producer fails loudly instead of ballooning memory.
    pub fn channel_bounded<T: Send + 'static>(
        &mut self,
        src: DomainId,
        dst: DomainId,
        latency: Duration,
        capacity: usize,
    ) -> (TxToken<T>, RxToken<T>) {
        let latency_ns = u64::try_from(latency.as_nanos()).expect("latency fits u64");
        assert!(latency_ns > 0, "pdes channel latency must be positive");
        assert!(capacity > 0, "pdes channel capacity must be positive");
        assert_ne!(src, dst, "pdes channels must cross domains");
        let chan = u32::try_from(self.channels.len()).expect("too many channels");
        self.channels.push(ChannelMeta {
            dst: dst.0,
            latency_ns,
            capacity,
        });
        (
            TxToken {
                chan,
                src: src.0,
                latency_ns,
                _marker: PhantomData,
            },
            RxToken {
                chan,
                dst: dst.0,
                _marker: PhantomData,
            },
        )
    }

    /// Adds a scheduling domain whose setup closure is `Send`, so the
    /// domain can be hosted by a dedicated worker thread. The closure
    /// runs exactly once on the hosting thread: it builds the domain's
    /// task graph (all `Rc` state stays on that thread) and returns the
    /// finish hook producing the domain's artifact.
    pub fn add_domain(
        &mut self,
        name: &str,
        setup: impl FnOnce(&DomainCtx) -> DomainFinish + Send + 'static,
    ) -> DomainId {
        let id = DomainId(u32::try_from(self.domains.len()).expect("too many domains"));
        self.domains.push(DomainSlot::Remote {
            name: name.to_string(),
            setup: Box::new(setup),
        });
        id
    }

    /// Adds a domain whose setup captures thread-local (`Rc`) state and
    /// therefore always runs inline on the coordinator thread, whatever
    /// the worker count. This is how the shared-graph cluster
    /// simulations ride the same engine: a coarse one-domain partition
    /// is simply one local domain and no channels.
    pub fn add_local_domain(
        &mut self,
        name: &str,
        setup: impl FnOnce(&DomainCtx) -> DomainFinish + 'static,
    ) -> DomainId {
        let id = DomainId(u32::try_from(self.domains.len()).expect("too many domains"));
        self.domains.push(DomainSlot::Local {
            name: name.to_string(),
            setup: Box::new(setup),
        });
        id
    }

    /// Runs the partitioned simulation to quiescence and returns the
    /// per-domain artifacts and counters.
    ///
    /// `workers` is the number of OS threads hosting [`Self::add_domain`]
    /// domains: `1` runs everything inline on the calling thread (the
    /// sequential reference), `k > 1` spreads remote domains round-robin
    /// over `min(k, remote domains)` threads. Local domains always run
    /// on the calling thread. **The result is byte-identical for every
    /// value of `workers`.**
    ///
    /// # Panics
    ///
    /// Panics if a channel endpoint references a domain that was never
    /// added, if a bounded channel overflows its capacity, or if a
    /// domain thread panics.
    pub fn run(self, workers: usize) -> PdesReport {
        let PdesBuilder {
            seed,
            policy,
            domains,
            channels,
        } = self;
        let n = domains.len();
        for c in &channels {
            assert!((c.dst as usize) < n, "channel delivers to unknown domain");
        }
        let lookahead_ns = channels.iter().map(|c| c.latency_ns).min();
        Coordinator {
            seed,
            policy,
            channels,
            lookahead_ns,
        }
        .run(domains, workers.max(1))
    }
}

/// Final state of one domain after [`PdesBuilder::run`].
#[derive(Clone, Debug)]
pub struct DomainReport {
    /// The domain's name.
    pub name: String,
    /// The bytes returned by the domain's finish hook.
    pub artifact: Vec<u8>,
    /// The domain executor's counters.
    pub metrics: ExecutorMetrics,
    /// The domain's final virtual time (its last processed event).
    pub final_now_ns: u64,
    /// Tasks still alive after quiescence — nonzero means a task is
    /// parked forever (lost wakeup / stranded coroutine).
    pub live_tasks: usize,
    /// Envelopes delivered into this domain.
    pub delivered: u64,
}

/// Outcome of a partitioned run. Everything in here (and in
/// [`Self::render`]) is independent of the worker count.
#[derive(Clone, Debug)]
pub struct PdesReport {
    /// Per-domain results, in [`DomainId`] order.
    pub domains: Vec<DomainReport>,
    /// Conservative epochs executed.
    pub epochs: u64,
    /// Envelopes routed across domains, total.
    pub envelopes: u64,
    /// The engine lookahead in nanoseconds (`None` without channels).
    pub lookahead_ns: Option<u64>,
}

impl PdesReport {
    /// Deterministic text rendering of the run: the byte-comparison
    /// surface used by the differential tests. Deliberately excludes
    /// anything worker-count-dependent (there is nothing else to
    /// exclude: that is the point).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "pdes: {} domains, {} epochs, {} envelopes, lookahead {:?}",
            self.domains.len(),
            self.epochs,
            self.envelopes,
            self.lookahead_ns
        );
        for (i, d) in self.domains.iter().enumerate() {
            let _ = writeln!(
                s,
                "domain {i} `{}`: now={} events={} spawned={} delivered={} live={}",
                d.name,
                d.final_now_ns,
                d.metrics.events(),
                d.metrics.tasks_spawned,
                d.delivered,
                d.live_tasks
            );
            let _ = writeln!(s, "  artifact: {}", String::from_utf8_lossy(&d.artifact));
        }
        s
    }

    /// Total scheduling events processed across all domains.
    pub fn events(&self) -> u64 {
        self.domains.iter().map(|d| d.metrics.events()).sum()
    }
}

/// One domain's in-flight runtime, living on its hosting thread.
struct DomainRuntime {
    sim: Simulation,
    ctx: DomainCtx,
    finish: Option<DomainFinish>,
}

impl DomainRuntime {
    fn build(
        index: u32,
        name: String,
        seed: u64,
        policy: SchedulePolicy,
        setup: impl FnOnce(&DomainCtx) -> DomainFinish,
    ) -> Self {
        let sim = Simulation::with_policy(domain_seed(seed, index), policy);
        let ctx = DomainCtx {
            id: DomainId(index),
            name,
            handle: sim.handle(),
            shared: Rc::new(DomainShared {
                outbox: RefCell::new(Vec::new()),
                rx: RefCell::new(BTreeMap::new()),
                tx_seq: RefCell::new(BTreeMap::new()),
                delivered: Cell::new(0),
            }),
        };
        let finish = setup(&ctx);
        DomainRuntime {
            sim,
            ctx,
            finish: Some(finish),
        }
    }

    /// Drains envelopes emitted so far and reports the next local event
    /// time. Used once after setup (sends from setup run at `t = 0`).
    fn initial_out(&mut self) -> (Vec<Envelope>, Option<u64>) {
        let emitted = std::mem::take(&mut *self.ctx.shared.outbox.borrow_mut());
        (emitted, self.sim.next_event_at().map(SimTime::as_nanos))
    }

    /// Injects routed envelopes (already in merge order) and advances
    /// the domain through every event strictly below `horizon`
    /// (`None` = run to quiescence). Returns the envelopes emitted this
    /// epoch and the next local event time.
    fn advance(
        &mut self,
        inject: Vec<Envelope>,
        horizon: Option<u64>,
    ) -> (Vec<Envelope>, Option<u64>) {
        for env in inject {
            let shared = Rc::clone(&self.ctx.shared);
            let deliver_at = SimTime::from_nanos(env.deliver_ns);
            let chan = env.chan;
            let payload = env.payload;
            let handle = self.ctx.handle.clone();
            debug_assert!(deliver_at >= handle.now(), "pdes causality violation");
            self.ctx.handle.spawn(async move {
                handle.sleep_until(deliver_at).await;
                let deliver = shared
                    .rx
                    .borrow()
                    .get(&chan)
                    .cloned()
                    .unwrap_or_else(|| panic!("channel {chan} delivered before bind_rx"));
                shared.delivered.set(shared.delivered.get() + 1);
                deliver(payload);
            });
        }
        match horizon {
            Some(h) => self.sim.run_events_before(SimTime::from_nanos(h)),
            None => self.sim.run(),
        }
        let emitted = std::mem::take(&mut *self.ctx.shared.outbox.borrow_mut());
        (emitted, self.sim.next_event_at().map(SimTime::as_nanos))
    }

    fn finish(mut self) -> DomainReport {
        let finish = self.finish.take().expect("finish hook consumed twice");
        let artifact = finish(&self.ctx);
        DomainReport {
            name: self.ctx.name.clone(),
            artifact,
            metrics: self.ctx.handle.metrics(),
            final_now_ns: self.ctx.handle.now().as_nanos(),
            live_tasks: self.sim.live_tasks(),
            delivered: self.ctx.shared.delivered.get(),
        }
    }
}

/// Commands the coordinator sends to a worker thread.
enum Cmd {
    /// Advance every hosted domain one epoch: per-domain injected
    /// envelope batches (in hosting order) plus the shared horizon.
    Advance {
        batches: Vec<Vec<Envelope>>,
        horizon: Option<u64>,
    },
    /// Run finish hooks and return the per-domain reports.
    Finish,
}

/// Replies from a worker thread, one per command (plus one initial
/// reply straight after setup).
enum Reply {
    /// `(domain index, emitted, next event time)` per hosted domain.
    Advanced(Vec<(u32, Vec<Envelope>, Option<u64>)>),
    Done(Vec<(u32, DomainReport)>),
}

struct Coordinator {
    seed: u64,
    policy: SchedulePolicy,
    channels: Vec<ChannelMeta>,
    lookahead_ns: Option<u64>,
}

impl Coordinator {
    fn run(self, domains: Vec<DomainSlot>, workers: usize) -> PdesReport {
        let n = domains.len();
        // Split into coordinator-hosted and worker-hosted domains. With
        // one worker everything is local: the sequential reference path.
        let mut local: Vec<(u32, DomainSlot)> = Vec::new();
        let mut remote: Vec<RemoteDomain> = Vec::new();
        for (i, slot) in domains.into_iter().enumerate() {
            let i = i as u32;
            match slot {
                DomainSlot::Remote { name, setup } if workers > 1 => {
                    remote.push(RemoteDomain { id: i, name, setup });
                }
                slot => local.push((i, slot)),
            }
        }
        let threads = workers.min(remote.len());
        let mut per_thread: Vec<Vec<RemoteDomain>> = (0..threads).map(|_| Vec::new()).collect();
        for (j, d) in remote.into_iter().enumerate() {
            per_thread[j % threads].push(d);
        }
        // The hosting map: which domain ids each worker thread owns, in
        // the order its Advance batches are laid out.
        let hosted: Vec<Vec<u32>> = per_thread
            .iter()
            .map(|b| b.iter().map(|d| d.id).collect())
            .collect();

        let (slots, epochs, envelopes) = thread::scope(|scope| {
            let mut links: Vec<(mpsc::Sender<Cmd>, mpsc::Receiver<Reply>)> = Vec::new();
            for bundle in per_thread {
                let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd>();
                let (rep_tx, rep_rx) = mpsc::channel::<Reply>();
                let seed = self.seed;
                let policy = self.policy;
                scope.spawn(move || worker_main(bundle, seed, policy, cmd_rx, rep_tx));
                links.push((cmd_tx, rep_rx));
            }

            let mut local_rt: Vec<(u32, DomainRuntime)> = local
                .into_iter()
                .map(|(i, slot)| {
                    let rt = match slot {
                        DomainSlot::Remote { name, setup } => {
                            DomainRuntime::build(i, name, self.seed, self.policy, setup)
                        }
                        DomainSlot::Local { name, setup } => {
                            DomainRuntime::build(i, name, self.seed, self.policy, setup)
                        }
                    };
                    (i, rt)
                })
                .collect();

            // Per-domain next-event time and routed-but-uninjected
            // envelopes; per-channel occupancy for the capacity check.
            let mut next: Vec<Option<u64>> = vec![None; n];
            let mut pending: Vec<Vec<Envelope>> = (0..n).map(|_| Vec::new()).collect();
            let mut in_flight: Vec<usize> = vec![0; self.channels.len()];
            let mut epochs = 0u64;
            let mut envelopes = 0u64;

            // Initial state: setups may already have emitted (sends from
            // setup are stamped `t = 0`).
            let mut outputs: Vec<(u32, Vec<Envelope>, Option<u64>)> = Vec::new();
            for (i, rt) in &mut local_rt {
                let (emitted, nx) = rt.initial_out();
                outputs.push((*i, emitted, nx));
            }
            for (_, rep_rx) in &links {
                match rep_rx.recv() {
                    Ok(Reply::Advanced(out)) => outputs.extend(out),
                    _ => panic!("pdes worker thread died during setup"),
                }
            }
            self.absorb(
                outputs,
                &mut next,
                &mut pending,
                &mut in_flight,
                &mut envelopes,
            );

            loop {
                // LBTS: earliest event anywhere — local queues or routed
                // envelopes awaiting delivery. Nothing left => done.
                let lbts = next
                    .iter()
                    .flatten()
                    .copied()
                    .chain(pending.iter().flatten().map(|e| e.deliver_ns))
                    .min();
                let Some(lbts) = lbts else { break };
                let horizon = self.lookahead_ns.map(|l| lbts.saturating_add(l));
                epochs += 1;

                // Fan out to workers first so they run while the
                // coordinator advances its own domains.
                for (t, (cmd_tx, _)) in links.iter().enumerate() {
                    let batches = hosted[t]
                        .iter()
                        .map(|&i| take_batch(&mut pending[i as usize], &mut in_flight))
                        .collect();
                    if cmd_tx.send(Cmd::Advance { batches, horizon }).is_err() {
                        panic!("pdes worker thread died");
                    }
                }
                let mut outputs: Vec<(u32, Vec<Envelope>, Option<u64>)> = Vec::new();
                for (i, rt) in &mut local_rt {
                    let batch = take_batch(&mut pending[*i as usize], &mut in_flight);
                    let (emitted, nx) = rt.advance(batch, horizon);
                    outputs.push((*i, emitted, nx));
                }
                for (_, rep_rx) in &links {
                    match rep_rx.recv() {
                        Ok(Reply::Advanced(out)) => outputs.extend(out),
                        _ => panic!("pdes worker thread panicked during an epoch"),
                    }
                }
                self.absorb(
                    outputs,
                    &mut next,
                    &mut pending,
                    &mut in_flight,
                    &mut envelopes,
                );
            }

            // Quiescent: collect reports in domain order.
            let mut slots: Vec<Option<DomainReport>> = (0..n).map(|_| None).collect();
            for (cmd_tx, _) in &links {
                let _ = cmd_tx.send(Cmd::Finish);
            }
            for (i, rt) in local_rt {
                slots[i as usize] = Some(rt.finish());
            }
            for (_, rep_rx) in &links {
                match rep_rx.recv() {
                    Ok(Reply::Done(done)) => {
                        for (i, r) in done {
                            slots[i as usize] = Some(r);
                        }
                    }
                    _ => panic!("pdes worker thread panicked during finish"),
                }
            }
            (slots, epochs, envelopes)
        });

        PdesReport {
            domains: slots
                .into_iter()
                .map(|r| r.expect("domain produced no report"))
                .collect(),
            epochs,
            envelopes,
            lookahead_ns: self.lookahead_ns,
        }
    }

    /// Applies one round of domain outputs: records next-event times and
    /// routes emitted envelopes into per-destination pending queues in
    /// merge order. Outputs are sorted by domain id first so the result
    /// is independent of reply arrival order.
    fn absorb(
        &self,
        mut outputs: Vec<(u32, Vec<Envelope>, Option<u64>)>,
        next: &mut [Option<u64>],
        pending: &mut [Vec<Envelope>],
        in_flight: &mut [usize],
        envelopes: &mut u64,
    ) {
        outputs.sort_by_key(|(i, _, _)| *i);
        for (i, emitted, nx) in outputs {
            next[i as usize] = nx;
            for env in emitted {
                let meta = self.channels[env.chan as usize];
                in_flight[env.chan as usize] += 1;
                assert!(
                    in_flight[env.chan as usize] <= meta.capacity,
                    "pdes channel {} overflowed its capacity {}",
                    env.chan,
                    meta.capacity
                );
                pending[meta.dst as usize].push(env);
                *envelopes += 1;
            }
        }
        for queue in pending.iter_mut() {
            queue.sort_by_key(Envelope::key);
        }
    }
}

/// Drains a domain's pending queue for injection, releasing channel
/// occupancy.
fn take_batch(pending: &mut Vec<Envelope>, in_flight: &mut [usize]) -> Vec<Envelope> {
    let batch = std::mem::take(pending);
    for env in &batch {
        in_flight[env.chan as usize] -= 1;
    }
    batch
}

/// A worker thread's main loop: build hosted domains, report initial
/// state, then serve Advance/Finish commands until told to stop.
fn worker_main(
    bundle: Vec<RemoteDomain>,
    seed: u64,
    policy: SchedulePolicy,
    cmd_rx: mpsc::Receiver<Cmd>,
    rep_tx: mpsc::Sender<Reply>,
) {
    let mut runtimes: Vec<(u32, DomainRuntime)> = bundle
        .into_iter()
        .map(|d| {
            let rt = DomainRuntime::build(d.id, d.name, seed, policy, d.setup);
            (d.id, rt)
        })
        .collect();
    let initial = runtimes
        .iter_mut()
        .map(|(i, rt)| {
            let (emitted, nx) = rt.initial_out();
            (*i, emitted, nx)
        })
        .collect();
    if rep_tx.send(Reply::Advanced(initial)).is_err() {
        return;
    }
    while let Ok(cmd) = cmd_rx.recv() {
        match cmd {
            Cmd::Advance { batches, horizon } => {
                let out = runtimes
                    .iter_mut()
                    .zip(batches)
                    .map(|((i, rt), batch)| {
                        let (emitted, nx) = rt.advance(batch, horizon);
                        (*i, emitted, nx)
                    })
                    .collect();
                if rep_tx.send(Reply::Advanced(out)).is_err() {
                    return;
                }
            }
            Cmd::Finish => {
                let done = runtimes.drain(..).map(|(i, rt)| (i, rt.finish())).collect();
                let _ = rep_tx.send(Reply::Done(done));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A ping-pong ring: each of `k` domains forwards a token to the
    /// next, `rounds` times around. Returns the full render.
    fn ring(seed: u64, k: u32, rounds: u64, workers: usize) -> String {
        let mut b = PdesBuilder::new(seed);
        let mut links = Vec::new();
        for i in 0..k {
            let (tx, rx) = b.channel::<u64>(
                DomainId(i),
                DomainId((i + 1) % k),
                Duration::from_nanos(250),
            );
            links.push((tx, rx));
        }
        // Domain i sends on links[i] and receives on links[(i + k - 1) % k].
        let mut rxs: Vec<Option<RxToken<u64>>> = links.iter().map(|_| None).collect();
        let mut txs: Vec<Option<TxToken<u64>>> = links.iter().map(|_| None).collect();
        for (i, (tx, rx)) in links.into_iter().enumerate() {
            txs[i] = Some(tx);
            rxs[(i + 1) % k as usize] = Some(rx);
        }
        for i in 0..k {
            let tx = txs[i as usize].take().unwrap();
            let rx = rxs[i as usize].take().unwrap();
            b.add_domain(&format!("d{i}"), move |ctx| {
                let tx = ctx.bind_tx(tx);
                let rx = ctx.bind_rx(rx);
                let h = ctx.handle();
                let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
                let log2 = Rc::clone(&log);
                ctx.handle().spawn(async move {
                    if i == 0 {
                        tx.send(0);
                    }
                    loop {
                        let v = rx.recv().await;
                        log2.borrow_mut().push(h.now().as_nanos());
                        if v >= rounds * k as u64 {
                            break;
                        }
                        tx.send(v + 1);
                    }
                });
                Box::new(move |ctx: &DomainCtx| {
                    format!(
                        "{:?} rng={}",
                        log.borrow(),
                        ctx.handle().with_rng(|r| r.next_u64())
                    )
                    .into_bytes()
                })
            });
        }
        b.run(workers).render()
    }

    #[test]
    fn ring_is_byte_identical_across_worker_counts() {
        let seq = ring(42, 5, 8, 1);
        for workers in [2, 3, 4, 8] {
            assert_eq!(seq, ring(42, 5, 8, workers), "workers={workers}");
        }
        // A different seed gives a different (but still stable) run.
        assert_ne!(seq, ring(43, 5, 8, 1));
        assert_eq!(ring(43, 5, 8, 1), ring(43, 5, 8, 4));
    }

    #[test]
    fn one_domain_matches_plain_simulation() {
        // A single local domain with no channels must replay exactly the
        // stream a plain Simulation would: same seed, same RNG draws,
        // same timestamps.
        let mut plain = Simulation::new(9);
        let plain_log = Rc::new(RefCell::new(Vec::new()));
        {
            let log = Rc::clone(&plain_log);
            let h2 = plain.handle();
            plain.spawn(async move {
                for _ in 0..4 {
                    let d = h2.with_rng(|r| r.next_u64_below(100));
                    h2.sleep(Duration::from_nanos(d + 1)).await;
                    log.borrow_mut().push((h2.now().as_nanos(), d));
                }
            });
        }
        plain.run();
        let expected = format!("{:?}", plain_log.borrow());

        let mut b = PdesBuilder::new(9);
        b.add_local_domain("only", |ctx| {
            let h = ctx.handle();
            let log = Rc::new(RefCell::new(Vec::new()));
            let log2 = Rc::clone(&log);
            ctx.handle().spawn(async move {
                for _ in 0..4 {
                    let d = h.with_rng(|r| r.next_u64_below(100));
                    h.sleep(Duration::from_nanos(d + 1)).await;
                    log2.borrow_mut().push((h.now().as_nanos(), d));
                }
            });
            Box::new(move |_: &DomainCtx| format!("{:?}", log.borrow()).into_bytes())
        });
        let report = b.run(4);
        assert_eq!(report.domains[0].artifact, expected.as_bytes());
        assert_eq!(
            report.epochs, 1,
            "no channels => one run-to-quiescence epoch"
        );
    }

    #[test]
    fn same_time_envelopes_merge_in_channel_seq_order() {
        // Two producers send to one consumer with equal latency at the
        // same instant; the consumer must see channel 0's value first
        // (merge key (deliver, chan, seq)), at any worker count.
        let run = |workers: usize| {
            let mut b = PdesBuilder::new(1);
            let c0 = b.domain_id(0);
            let p1 = b.domain_id(1);
            let p2 = b.domain_id(2);
            let (t1, r1) = b.channel::<&'static str>(p1, c0, Duration::from_nanos(100));
            let (t2, r2) = b.channel::<&'static str>(p2, c0, Duration::from_nanos(100));
            b.add_domain("consumer", move |ctx| {
                let r1 = ctx.bind_rx(r1);
                let r2 = ctx.bind_rx(r2);
                let h = ctx.handle();
                let seen = Rc::new(RefCell::new(Vec::new()));
                let seen2 = Rc::clone(&seen);
                ctx.handle().spawn(async move {
                    // Both deliveries land at t=100; look after that.
                    h.sleep(Duration::from_nanos(200)).await;
                    let mut got = Vec::new();
                    while let Some(v) = r1.try_recv() {
                        got.push(v);
                    }
                    while let Some(v) = r2.try_recv() {
                        got.push(v);
                    }
                    *seen2.borrow_mut() = got;
                });
                Box::new(move |_: &DomainCtx| format!("{:?}", seen.borrow()).into_bytes())
            });
            b.add_domain("p1", move |ctx| {
                let t1 = ctx.bind_tx(t1);
                t1.send("from-p1");
                Box::new(|_: &DomainCtx| Vec::new())
            });
            b.add_domain("p2", move |ctx| {
                let t2 = ctx.bind_tx(t2);
                t2.send("from-p2");
                Box::new(|_: &DomainCtx| Vec::new())
            });
            b.run(workers)
        };
        let seq = run(1);
        assert_eq!(
            seq.domains[0].artifact, br#"["from-p1", "from-p2"]"#,
            "channel id breaks the same-time tie"
        );
        for workers in [2, 4] {
            assert_eq!(seq.render(), run(workers).render(), "workers={workers}");
        }
    }

    #[test]
    fn remote_domains_actually_run_on_worker_threads() {
        let seen = Arc::new(AtomicUsize::new(0));
        let main_thread = thread::current().id();
        let mut b = PdesBuilder::new(5);
        for i in 0..3u32 {
            let seen = Arc::clone(&seen);
            b.add_domain(&format!("d{i}"), move |ctx| {
                if thread::current().id() != main_thread {
                    seen.fetch_add(1, Ordering::SeqCst);
                }
                let h = ctx.handle();
                ctx.handle().spawn(async move {
                    h.sleep(Duration::from_nanos(10)).await;
                });
                Box::new(|_: &DomainCtx| Vec::new())
            });
        }
        b.run(4);
        assert_eq!(
            seen.load(Ordering::SeqCst),
            3,
            "all domains off the main thread"
        );

        // With workers=1 everything stays inline on the caller.
        let seen1 = Arc::new(AtomicUsize::new(0));
        let mut b = PdesBuilder::new(5);
        let s = Arc::clone(&seen1);
        b.add_domain("d", move |ctx| {
            if thread::current().id() != main_thread {
                s.fetch_add(1, Ordering::SeqCst);
            }
            let h = ctx.handle();
            ctx.handle().spawn(async move {
                h.sleep(Duration::from_nanos(10)).await;
            });
            Box::new(|_: &DomainCtx| Vec::new())
        });
        b.run(1);
        assert_eq!(seen1.load(Ordering::SeqCst), 0);
    }

    #[test]
    #[should_panic(expected = "overflowed its capacity")]
    fn bounded_channel_overflow_panics() {
        let mut b = PdesBuilder::new(3);
        let a = b.domain_id(0);
        let z = b.domain_id(1);
        let (tx, rx) = b.channel_bounded::<u64>(a, z, Duration::from_nanos(50), 2);
        b.add_domain("a", move |ctx| {
            let tx = ctx.bind_tx(tx);
            for i in 0..3 {
                tx.send(i);
            }
            Box::new(|_: &DomainCtx| Vec::new())
        });
        b.add_domain("z", move |ctx| {
            let _rx = ctx.bind_rx(rx);
            Box::new(|_: &DomainCtx| Vec::new())
        });
        b.run(1);
    }

    #[test]
    #[should_panic(expected = "bind_tx: channel 0 is sent from domain 0, not 1")]
    fn binding_tx_in_wrong_domain_panics() {
        let mut b = PdesBuilder::new(3);
        let a = b.domain_id(0);
        let z = b.domain_id(1);
        let (tx, rx) = b.channel::<u64>(a, z, Duration::from_nanos(50));
        b.add_domain("a", move |_ctx| {
            let _never_bound = rx; // the send side is the bug under test
            Box::new(|_: &DomainCtx| Vec::new())
        });
        b.add_domain("z", move |ctx| {
            let _tx = ctx.bind_tx(tx);
            Box::new(|_: &DomainCtx| Vec::new())
        });
        b.run(1);
    }

    #[test]
    fn domain_seeds_are_independent_but_domain_zero_keeps_raw_seed() {
        assert_eq!(domain_seed(1234, 0), 1234);
        assert_ne!(domain_seed(1234, 1), domain_seed(1234, 2));
        assert_ne!(domain_seed(1234, 1), domain_seed(4321, 1));
    }
}
