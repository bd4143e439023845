//! End-to-end experiment runners: build a cluster, load an application,
//! drive it with N simulated threads × depth coroutines, measure
//! throughput and latency over a virtual-time window.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use smart::{SmartConfig, SmartContext, SmartThread};
use smart_fault::{FaultInjector, FaultPlan};
use smart_ford::{backoff_after_abort, SmallBank, Tatp};
use smart_race::{RaceConfig, RaceHashTable};
use smart_rnic::{BladeConfig, Cluster, ClusterConfig};
use smart_rt::metrics::Counter;
use smart_rt::{Duration, Simulation};
use smart_serve::{AdmissionConfig, MembershipPlan, RatePlan, ServeSpec};
use smart_sherman::{ShermanConfig, ShermanTree};
use smart_trace::LogHistogram;
use smart_workloads::latency::LatencyRecorder;
use smart_workloads::smallbank::SmallBankGenerator;
use smart_workloads::tatp::TatpGenerator;
use smart_workloads::ycsb::{Mix, YcsbGenerator, YcsbOp};

/// Common measurement output.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Application operations completed in the window.
    pub ops: u64,
    /// Million application operations per second.
    pub mops: f64,
    /// Median operation latency.
    pub median: Duration,
    /// 99th-percentile operation latency.
    pub p99: Duration,
    /// Average unsuccessful CAS retries per recorded operation
    /// (hash-table runs; 0 otherwise).
    pub avg_retries: f64,
    /// Retry-count distribution over the window (hash-table runs).
    pub retry_hist: Vec<u64>,
    /// Abort rate over the window (transaction runs).
    pub abort_rate: f64,
    /// Fault completions injected by the chaos layer over the whole run,
    /// warm-up included (0 without a fault plan).
    pub faults_injected: u64,
    /// Error completions the recovery layer observed (re-failures of the
    /// same work request included).
    pub faults_seen: u64,
    /// Work requests that failed at least once and later completed
    /// successfully through the recovery path.
    pub faults_recovered: u64,
    /// Median recovery latency (first error completion to eventual
    /// success).
    pub recovery_p50: Duration,
    /// 99th-percentile recovery latency.
    pub recovery_p99: Duration,
    /// Full recovery-latency distribution in nanoseconds, merged across
    /// threads (drives the CDF in `fig_fault_recovery`).
    pub recovery_hist: LogHistogram,
    /// Credit-conservation audit findings across all threads. Must stay
    /// empty: every injected error CQE replenishes exactly one credit,
    /// so faults never strand or mint throttle budget.
    pub conservation: Vec<String>,
    /// Simulator scheduling events (task polls + timer fires) processed
    /// over the whole run, from [`smart_rt::metrics::ExecutorMetrics`].
    /// This is the denominator of the wall-clock `ns/event` figure in the
    /// `smart-bench` perf harness. Excluded from the scheduler-equivalence
    /// goldens: purging cancelled timers changes how many events the
    /// executor processes without changing simulated behaviour.
    pub sim_events: u64,
}

/// Shared per-run measurement plumbing.
pub(crate) struct Probe {
    pub(crate) ops: Counter,
    pub(crate) measuring: Rc<Cell<bool>>,
    pub(crate) stop: Rc<Cell<bool>>,
    pub(crate) latency: Rc<RefCell<LatencyRecorder>>,
}

impl Probe {
    pub(crate) fn new() -> Self {
        Probe {
            ops: Counter::new(),
            measuring: Rc::new(Cell::new(false)),
            stop: Rc::new(Cell::new(false)),
            latency: Rc::new(RefCell::new(LatencyRecorder::new())),
        }
    }
}

/// Virtual time granted after the measurement window for workers to
/// finish their in-flight operation and exit: the run quiesces, so the
/// credit-conservation audit in [`FaultProbe::fill`] is meaningful (and
/// generous enough to cover a pending fault-recovery backoff or a blade
/// crash window from a chaos plan).
pub(crate) const DRAIN: Duration = Duration::from_millis(5);

/// Chaos-layer plumbing: installs the injector (when the run has a fault
/// plan) and tracks every thread so recovery outcomes can be aggregated
/// into the report after the run.
pub(crate) struct FaultProbe {
    injector: Option<Rc<FaultInjector>>,
    threads: RefCell<Vec<Rc<SmartThread>>>,
}

impl FaultProbe {
    pub(crate) fn install(cluster: &Cluster, plan: &Option<FaultPlan>) -> Self {
        FaultProbe {
            injector: plan.clone().map(|pl| FaultInjector::install(cluster, pl)),
            threads: RefCell::new(Vec::new()),
        }
    }

    pub(crate) fn track(&self, thread: &Rc<SmartThread>) {
        self.threads.borrow_mut().push(Rc::clone(thread));
    }

    pub(crate) fn fill(&self, report: &mut RunReport) {
        let mut hist = LogHistogram::new();
        for th in self.threads.borrow().iter() {
            report.faults_seen += th.stats().faults_seen.get();
            report.faults_recovered += th.stats().faults_recovered.get();
            hist.merge(&th.stats().recovery_ns.borrow());
            report
                .conservation
                .extend(th.throttle().conservation_violations());
        }
        report.faults_injected = self
            .injector
            .as_ref()
            .map_or(0, |i| i.stats().total_injected());
        report.recovery_p50 = Duration::from_nanos(hist.percentile(500));
        report.recovery_p99 = Duration::from_nanos(hist.percentile(990));
        report.recovery_hist = hist;
    }
}

/// Prepares a per-run framework config: for short measurement windows the
/// `C_max` probe interval is scaled down so that a full update phase plus
/// stable phase fits the run, and the warm-up is extended to cover the
/// first update phase (measuring inside it would observe the probing
/// candidates rather than the tuned `C_max`).
pub(crate) fn tune_for_window(
    cfg: &SmartConfig,
    warmup: Duration,
    measure: Duration,
) -> (SmartConfig, Duration) {
    let mut cfg = cfg.clone();
    let mut warmup = warmup;
    if cfg.work_req_throttle {
        if measure < Duration::from_millis(20) {
            cfg.probe_interval = Duration::from_millis(1);
        }
        let update_phase = cfg.probe_interval * (cfg.c_max_candidates.len() as u32 + 2);
        warmup = warmup.max(update_phase);
    }
    if cfg.conflict_backoff && (cfg.dynamic_backoff_limit || cfg.coroutine_throttle) {
        // The γ controller needs ~20 ms to walk c_max to its bound and
        // t_max to its converged value (1 ms steps, geometric moves).
        warmup = warmup.max(Duration::from_millis(30));
    }
    (cfg, warmup)
}

// ---------------------------------------------------------------------------
// Hash table (RACE / SMART-HT)
// ---------------------------------------------------------------------------

/// Hash-table experiment parameters.
#[derive(Clone, Debug)]
pub struct HtParams {
    /// Framework configuration (the RACE vs SMART-HT axis).
    pub smart: SmartConfig,
    /// Compute nodes (scale-out axis, Figure 7d–f).
    pub compute_nodes: usize,
    /// Memory blades (the paper uses 2).
    pub blades: usize,
    /// Threads per compute node.
    pub threads: usize,
    /// Coroutines per thread (concurrency depth, default 8).
    pub depth: usize,
    /// Keys loaded before the run.
    pub keys: u64,
    /// Zipfian skew (0.99 in the paper).
    pub theta: f64,
    /// Read/write mix.
    pub mix: Mix,
    /// Optional inter-operation pacing (latency-throughput curves).
    pub pace: Option<Duration>,
    /// Warm-up virtual time.
    pub warmup: Duration,
    /// Measurement virtual time.
    pub measure: Duration,
    /// Seed.
    pub seed: u64,
    /// Optional trace sink installed into the simulation (op-level
    /// latency attribution + Perfetto export).
    pub trace: Option<smart_trace::TraceSink>,
    /// Optional chaos schedule injected into the run (must eventually
    /// heal; permanent errors would abort the benchmark workers).
    pub fault: Option<FaultPlan>,
}

impl HtParams {
    /// Paper-consistent defaults: 2 blades, depth 8, θ = 0.99.
    pub fn new(smart: SmartConfig, threads: usize, keys: u64, mix: Mix) -> Self {
        HtParams {
            smart,
            compute_nodes: 1,
            blades: 2,
            threads,
            depth: 8,
            keys,
            theta: 0.99,
            mix,
            pace: None,
            warmup: Duration::from_millis(2),
            measure: Duration::from_millis(5),
            seed: 42,
            trace: None,
            fault: None,
        }
    }
}

pub(crate) fn ht_table_config(keys: u64) -> RaceConfig {
    // Size for ~50 % slot occupancy: slots = 2^depth × buckets × 8.
    let buckets_per_subtable = 1 << 12;
    let slots_per_subtable = (buckets_per_subtable * 8) as u64;
    let want = (keys * 2).max(slots_per_subtable);
    let depth = (want.div_ceil(slots_per_subtable))
        .next_power_of_two()
        .trailing_zeros() as u8;
    RaceConfig {
        buckets_per_subtable,
        initial_depth: depth,
        ..Default::default()
    }
}

/// Runs a hash-table experiment.
pub fn run_ht(p: &HtParams) -> RunReport {
    let mut sim = Simulation::new(p.seed);
    if let Some(sink) = &p.trace {
        sim.handle().install_tracer(sink.clone());
    }
    let region = 64 * 1024 * 1024 + p.keys * 96;
    let cluster = Cluster::new(
        sim.handle(),
        ClusterConfig {
            compute_nodes: p.compute_nodes,
            memory_blades: p.blades,
            blade: BladeConfig {
                region_bytes: region,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let chaos = FaultProbe::install(&cluster, &p.fault);
    let table = RaceHashTable::create(cluster.blades(), ht_table_config(p.keys));
    for k in 0..p.keys {
        table.load(&k.to_le_bytes(), &k.to_be_bytes());
    }
    let base_gen = YcsbGenerator::new(p.keys, p.theta, p.mix, p.seed);
    let probe = Probe::new();
    let (tuned, warmup) = tune_for_window(&p.smart, p.warmup, p.measure);

    for node in 0..p.compute_nodes {
        let mut cfg = tuned.clone();
        cfg.expected_threads = p.threads;
        cfg.coroutines_per_thread = p.depth;
        let ctx = SmartContext::new(cluster.compute(node), cluster.blades(), cfg);
        for t in 0..p.threads {
            let thread = ctx.create_thread();
            chaos.track(&thread);
            for c in 0..p.depth {
                let coro = thread.coroutine();
                let table = Rc::clone(&table);
                let mut gen =
                    base_gen.fork(p.seed ^ ((node as u64) << 40) ^ ((t as u64) << 20) ^ c as u64);
                let ops = probe.ops.clone();
                let measuring = Rc::clone(&probe.measuring);
                let stop = Rc::clone(&probe.stop);
                let latency = Rc::clone(&probe.latency);
                let pace = p.pace;
                let handle = sim.handle();
                sim.spawn(async move {
                    while !stop.get() {
                        if let Some(d) = pace {
                            handle.sleep(d).await;
                        }
                        let start = handle.now();
                        match gen.next_op() {
                            YcsbOp::Lookup(k) => {
                                let _ = table.get(&coro, &k.to_le_bytes()).await;
                            }
                            YcsbOp::Update(k) => {
                                let _ = table
                                    .update(
                                        &coro,
                                        &k.to_le_bytes(),
                                        &handle.now().as_nanos().to_le_bytes(),
                                    )
                                    .await;
                            }
                        }
                        ops.incr();
                        if measuring.get() {
                            latency.borrow_mut().record(handle.now() - start);
                        }
                    }
                });
            }
        }
    }

    sim.run_for(warmup);
    probe.measuring.set(true);
    let ops0 = probe.ops.get();
    let retries0 = table.stats().cas_retries.get();
    let hist0 = table.stats().retry_histogram();
    sim.run_for(p.measure);
    let ops = probe.ops.get() - ops0;
    let hist1 = table.stats().retry_histogram();
    let hist: Vec<u64> = hist1.iter().zip(hist0.iter()).map(|(a, b)| a - b).collect();
    let hist_ops: u64 = hist.iter().sum();
    let retries = table.stats().cas_retries.get() - retries0;
    probe.measuring.set(false);
    probe.stop.set(true);
    sim.run_for(DRAIN);
    let lat = probe.latency.borrow();
    let mut report = RunReport {
        ops,
        mops: ops as f64 / p.measure.as_secs_f64() / 1e6,
        median: lat.median(),
        p99: lat.p99(),
        avg_retries: if hist_ops == 0 {
            0.0
        } else {
            retries as f64 / hist_ops as f64
        },
        retry_hist: hist,
        sim_events: sim.handle().metrics().events(),
        ..RunReport::default()
    };
    chaos.fill(&mut report);
    report
}

// ---------------------------------------------------------------------------
// Distributed transactions (FORD+ / SMART-DTX)
// ---------------------------------------------------------------------------

/// Which OLTP benchmark to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DtxWorkload {
    /// SmallBank (85 % read-write).
    SmallBank,
    /// TATP (80 % read-only).
    Tatp,
}

/// Transaction experiment parameters.
#[derive(Clone, Debug)]
pub struct DtxParams {
    /// Framework configuration (the FORD+ vs SMART-DTX axis).
    pub smart: SmartConfig,
    /// Threads on the (single) compute node.
    pub threads: usize,
    /// Coroutines per thread.
    pub depth: usize,
    /// Benchmark.
    pub workload: DtxWorkload,
    /// Rows: accounts (SmallBank) or subscribers (TATP).
    pub rows: u64,
    /// Optional inter-transaction pacing.
    pub pace: Option<Duration>,
    /// Warm-up virtual time.
    pub warmup: Duration,
    /// Measurement virtual time.
    pub measure: Duration,
    /// Seed.
    pub seed: u64,
    /// Optional trace sink installed into the simulation.
    pub trace: Option<smart_trace::TraceSink>,
    /// Optional chaos schedule injected into the run (must eventually
    /// heal; permanent errors would abort the benchmark workers).
    pub fault: Option<FaultPlan>,
}

impl DtxParams {
    /// Paper-consistent defaults: 2 memory blades, depth 8.
    pub fn new(smart: SmartConfig, threads: usize, workload: DtxWorkload, rows: u64) -> Self {
        DtxParams {
            smart,
            threads,
            depth: 8,
            workload,
            rows,
            pace: None,
            warmup: Duration::from_millis(2),
            measure: Duration::from_millis(5),
            seed: 7,
            trace: None,
            fault: None,
        }
    }
}

/// Runs a transaction experiment (always 2 memory blades, as in §6.2.2).
pub fn run_dtx(p: &DtxParams) -> RunReport {
    let mut sim = Simulation::new(p.seed);
    if let Some(sink) = &p.trace {
        sim.handle().install_tracer(sink.clone());
    }
    let cluster = Cluster::new(
        sim.handle(),
        ClusterConfig {
            compute_nodes: 1,
            memory_blades: 2,
            blade: BladeConfig {
                region_bytes: 64 * 1024 * 1024 + p.rows * 512,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let chaos = FaultProbe::install(&cluster, &p.fault);
    enum App {
        Bank(Rc<SmallBank>),
        Tatp(Rc<Tatp>),
    }
    let app = Rc::new(match p.workload {
        DtxWorkload::SmallBank => App::Bank(SmallBank::create(cluster.blades(), p.rows, 10_000)),
        DtxWorkload::Tatp => App::Tatp(Tatp::create(cluster.blades(), p.rows)),
    });
    let probe = Probe::new();
    let aborted0 = Counter::new();
    let (tuned, warmup) = tune_for_window(&p.smart, p.warmup, p.measure);

    let mut cfg = tuned;
    cfg.expected_threads = p.threads;
    cfg.coroutines_per_thread = p.depth;
    let ctx = SmartContext::new(cluster.compute(0), cluster.blades(), cfg);
    for t in 0..p.threads {
        let thread = ctx.create_thread();
        chaos.track(&thread);
        for c in 0..p.depth {
            let coro = thread.coroutine();
            let app = Rc::clone(&app);
            let ops = probe.ops.clone();
            let measuring = Rc::clone(&probe.measuring);
            let stop = Rc::clone(&probe.stop);
            let latency = Rc::clone(&probe.latency);
            let pace = p.pace;
            let handle = sim.handle();
            let seed = p.seed ^ ((t as u64) << 20) ^ ((c as u64) << 8);
            let mut bank_gen = SmallBankGenerator::new(p.rows, seed);
            let mut tatp_gen = TatpGenerator::new(p.rows, seed);
            let log = match &*app {
                App::Bank(b) => b.db().alloc_log_region(),
                App::Tatp(t) => t.db().alloc_log_region(),
            };
            sim.spawn(async move {
                while !stop.get() {
                    if let Some(d) = pace {
                        handle.sleep(d).await;
                    }
                    let start = handle.now();
                    let mut attempt = 0u32;
                    match &*app {
                        App::Bank(bank) => {
                            let txn = bank_gen.next_txn();
                            while bank.execute(&coro, log, &txn).await.is_err() {
                                attempt += 1;
                                backoff_after_abort(&coro, attempt).await;
                            }
                        }
                        App::Tatp(tatp) => {
                            let txn = tatp_gen.next_txn();
                            while tatp.execute(&coro, log, &txn).await.is_err() {
                                attempt += 1;
                                backoff_after_abort(&coro, attempt).await;
                            }
                        }
                    }
                    ops.incr();
                    if measuring.get() {
                        latency.borrow_mut().record(handle.now() - start);
                    }
                }
            });
        }
    }

    let stats = match &*app {
        App::Bank(b) => b.stats().clone(),
        App::Tatp(t) => t.stats().clone(),
    };
    sim.run_for(warmup);
    probe.measuring.set(true);
    let ops0 = probe.ops.get();
    let committed0 = stats.committed.get();
    aborted0.add(stats.aborted.get());
    sim.run_for(p.measure);
    let ops = probe.ops.get() - ops0;
    let committed = stats.committed.get() - committed0;
    let aborted = stats.aborted.get() - aborted0.get();
    probe.measuring.set(false);
    probe.stop.set(true);
    sim.run_for(DRAIN);
    let lat = probe.latency.borrow();
    let mut report = RunReport {
        ops,
        mops: ops as f64 / p.measure.as_secs_f64() / 1e6,
        median: lat.median(),
        p99: lat.p99(),
        abort_rate: if committed + aborted == 0 {
            0.0
        } else {
            aborted as f64 / (committed + aborted) as f64
        },
        sim_events: sim.handle().metrics().events(),
        ..RunReport::default()
    };
    chaos.fill(&mut report);
    report
}

// ---------------------------------------------------------------------------
// B+Tree (Sherman+ / Sherman+ w/ SL / SMART-BT)
// ---------------------------------------------------------------------------

/// The three systems of Figure 12.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BtVariant {
    /// Sherman with per-cacheline versions, per-thread QPs.
    ShermanPlus,
    /// Sherman+ plus speculative lookup, still per-thread QPs.
    ShermanPlusSl,
    /// Speculative lookup plus the full SMART stack.
    SmartBt,
}

impl BtVariant {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BtVariant::ShermanPlus => "Sherman+",
            BtVariant::ShermanPlusSl => "Sherman+ w/ SL",
            BtVariant::SmartBt => "SMART-BT",
        }
    }

    fn configs(self, threads: usize) -> (ShermanConfig, SmartConfig) {
        match self {
            BtVariant::ShermanPlus => (
                ShermanConfig::default(),
                SmartConfig::baseline(smart::QpPolicy::PerThreadQp, threads),
            ),
            BtVariant::ShermanPlusSl => (
                ShermanConfig::with_speculative_lookup(),
                SmartConfig::baseline(smart::QpPolicy::PerThreadQp, threads),
            ),
            BtVariant::SmartBt => (
                ShermanConfig::with_speculative_lookup(),
                SmartConfig::smart_full(threads),
            ),
        }
    }
}

/// B+Tree experiment parameters.
#[derive(Clone, Debug)]
pub struct BtParams {
    /// System under test.
    pub variant: BtVariant,
    /// Compute nodes (each server doubles as compute and memory blade,
    /// §6.2.3).
    pub compute_nodes: usize,
    /// Threads per compute node (94 in the paper: 96 cores − 2 blade
    /// threads).
    pub threads: usize,
    /// Coroutines per thread.
    pub depth: usize,
    /// Keys loaded before the run.
    pub keys: u64,
    /// Read/write mix.
    pub mix: Mix,
    /// Zipfian skew.
    pub theta: f64,
    /// Overrides the variant's tree configuration (ablations: HOCL
    /// on/off, handover cap, speculative-cache size).
    pub tree_override: Option<ShermanConfig>,
    /// Warm-up virtual time (also warms the speculative cache).
    pub warmup: Duration,
    /// Measurement virtual time.
    pub measure: Duration,
    /// Seed.
    pub seed: u64,
    /// Optional trace sink installed into the simulation.
    pub trace: Option<smart_trace::TraceSink>,
    /// Optional chaos schedule injected into the run (must eventually
    /// heal; permanent errors would abort the benchmark workers).
    pub fault: Option<FaultPlan>,
}

impl BtParams {
    /// Paper-consistent defaults.
    pub fn new(variant: BtVariant, threads: usize, keys: u64, mix: Mix) -> Self {
        BtParams {
            variant,
            compute_nodes: 1,
            threads,
            depth: 8,
            keys,
            mix,
            theta: 0.99,
            tree_override: None,
            warmup: Duration::from_millis(3),
            measure: Duration::from_millis(5),
            seed: 13,
            trace: None,
            fault: None,
        }
    }
}

/// Runs a B+Tree experiment. Blades mirror compute nodes (the paper
/// co-locates a memory blade with every server).
pub fn run_bt(p: &BtParams) -> RunReport {
    let mut sim = Simulation::new(p.seed);
    if let Some(sink) = &p.trace {
        sim.handle().install_tracer(sink.clone());
    }
    let blades = p.compute_nodes.max(2);
    let cluster = Cluster::new(
        sim.handle(),
        ClusterConfig {
            compute_nodes: p.compute_nodes,
            memory_blades: blades,
            blade: BladeConfig {
                region_bytes: 64 * 1024 * 1024 + p.keys * 64,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let chaos = FaultProbe::install(&cluster, &p.fault);
    let (mut tree_cfg, smart_cfg) = p.variant.configs(p.threads);
    if let Some(over) = &p.tree_override {
        tree_cfg = over.clone();
    }
    let tree0 = ShermanTree::create(cluster.blades(), tree_cfg.clone());
    for k in 0..p.keys {
        tree0.load(k, k.wrapping_mul(3));
    }
    let base_gen = YcsbGenerator::new(p.keys, p.theta, p.mix, p.seed);
    let probe = Probe::new();
    let (tuned, warmup) = tune_for_window(&smart_cfg, p.warmup, p.measure);
    let mut trees = vec![Rc::clone(&tree0)];
    for _ in 1..p.compute_nodes {
        trees.push(ShermanTree::attach(
            cluster.blades(),
            tree_cfg.clone(),
            tree0.root_ptr(),
        ));
    }

    for (node, node_tree) in trees.iter().enumerate() {
        let mut cfg = tuned.clone();
        cfg.expected_threads = p.threads;
        cfg.coroutines_per_thread = p.depth;
        let ctx = SmartContext::new(cluster.compute(node), cluster.blades(), cfg);
        let tree = Rc::clone(node_tree);
        for t in 0..p.threads {
            let thread = ctx.create_thread();
            chaos.track(&thread);
            for c in 0..p.depth {
                let coro = thread.coroutine();
                let tree = Rc::clone(&tree);
                let mut gen =
                    base_gen.fork(p.seed ^ ((node as u64) << 40) ^ ((t as u64) << 20) ^ c as u64);
                let ops = probe.ops.clone();
                let measuring = Rc::clone(&probe.measuring);
                let stop = Rc::clone(&probe.stop);
                let latency = Rc::clone(&probe.latency);
                let handle = sim.handle();
                sim.spawn(async move {
                    while !stop.get() {
                        let start = handle.now();
                        match gen.next_op() {
                            YcsbOp::Lookup(k) => {
                                let _ = tree.get(&coro, k).await;
                            }
                            YcsbOp::Update(k) => {
                                tree.insert(&coro, k, start.as_nanos()).await;
                            }
                        }
                        ops.incr();
                        if measuring.get() {
                            latency.borrow_mut().record(handle.now() - start);
                        }
                    }
                });
            }
        }
    }

    sim.run_for(warmup);
    probe.measuring.set(true);
    let ops0 = probe.ops.get();
    sim.run_for(p.measure);
    let ops = probe.ops.get() - ops0;
    probe.measuring.set(false);
    probe.stop.set(true);
    sim.run_for(DRAIN);
    let lat = probe.latency.borrow();
    let mut report = RunReport {
        ops,
        mops: ops as f64 / p.measure.as_secs_f64() / 1e6,
        median: lat.median(),
        p99: lat.p99(),
        sim_events: sim.handle().metrics().events(),
        ..RunReport::default()
    };
    chaos.fill(&mut report);
    report
}

/// The standard serve scenario at a given client population and offered
/// load scale: a three-phase diurnal plan (ramp → steady → churn) whose
/// rates are multiplied by `scale`, an admission controller provisioned
/// at three quarters of the steady peak, and one blade leave+join window
/// straddling the steady/churn boundary. `fig_serve` and the tier-1
/// determinism gates in `tests/serve.rs` both run exactly this spec, so
/// a regression in either shows up in both.
pub fn serve_spec(clients: usize, scale: f64, seed: u64) -> ServeSpec {
    let peak = 4_000_000.0 * scale;
    let plan = RatePlan::new()
        .phase("ramp", Duration::from_millis(5), 0.0, peak)
        .phase("steady", Duration::from_millis(15), peak, peak)
        .phase("churn", Duration::from_millis(10), peak, peak / 2.0);
    let mut spec = ServeSpec::new(seed, clients, plan);
    spec.threads = 8;
    spec.depth = 16;
    spec.blades = 3;
    spec.shards = 24;
    spec.accounts = 8_192;
    spec.admission = Some(AdmissionConfig {
        rate: (peak * 0.75) as u64,
        burst: 512,
        max_queue: 8_192,
    });
    spec.membership =
        MembershipPlan::new().leave_at(Duration::from_millis(12), 1, Duration::from_millis(8));
    spec
}
