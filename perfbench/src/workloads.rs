//! The three benchmark workloads: how each one is set up, how one runner
//! call is made and timed, and how its output is checked.
//!
//! Every call goes through a public runner of the repository, with the
//! same parameters on every call, so the simulated results (the `model.*`
//! values and the exact counters) repeat exactly for one seed.

use std::time::{Duration as HostDuration, Instant};

use smart::{run_microbench_metered, MicroOp, MicrobenchSpec, QpPolicy, SmartConfig, SmartContext};
use smart_bench::{run_ht, serve_spec, HtParams};
use smart_race::{RaceConfig, RaceHashTable};
use smart_rnic::{BladeConfig, Cluster, ClusterConfig, DomainPlan};
use smart_rt::{Duration, SchedulePolicy, Simulation};
use smart_serve::{run_serve, run_serve_decomposed, ServeSpec, SessionPool};
use smart_trace::{AttributionReport, Category, LogHistogram, TraceSink};
use smart_workloads::ycsb::Mix;

use crate::host;

/// Ring capacity of the sinks a traced call installs. Attribution sums
/// every span whatever the ring keeps, so a small ring bounds memory only.
const TRACE_EVENTS: usize = 1024;

/// Engine workers for `serve_decomposed`. Two workers run three OS
/// threads, which on a host with fewer than four CPUs measures
/// oversubscription rather than the engine; the multi-worker leg is left
/// for hosts with at least four CPUs.
const SERVE_ENGINE_WORKERS: usize = 1;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// SMART-HT, YCSB write-heavy, classic single-domain `run_ht`.
    HtWrite,
    /// The Figure 3 point: 96 threads of 8-byte READs.
    VerbsRead,
    /// The serve scenario through the PDES engine at one worker.
    ServeDecomposed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HtWrite,
        Workload::VerbsRead,
        Workload::ServeDecomposed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HtWrite => "ht_write",
            Workload::VerbsRead => "verbs_read",
            Workload::ServeDecomposed => "serve_decomposed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A metric value: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// One simulated-time attribution share set, from a traced call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Shares {
    pub dblock: f64,
    pub credit: f64,
    pub pipeline: f64,
    pub fabric: f64,
    pub backoff: f64,
}

impl Shares {
    fn of(attr: &AttributionReport) -> Shares {
        let total: u64 = attr.kinds().map(|(_, k)| k.total_ns()).sum();
        let share = |cat| {
            let ns: u64 = attr.kinds().map(|(_, k)| k.category_ns(cat)).sum();
            if total == 0 {
                0.0
            } else {
                ns as f64 / total as f64
            }
        };
        Shares {
            dblock: share(Category::DbLock),
            credit: share(Category::Credit),
            pipeline: share(Category::Pipeline),
            fabric: share(Category::Fabric),
            backoff: share(Category::Backoff),
        }
    }
}

/// The result of one runner call: host cost, simulated results, and the
/// outcome of its output checks.
#[derive(Clone, Debug)]
pub struct Call {
    /// Host wall time of the runner call.
    pub wall: HostDuration,
    /// Process CPU time (user + system) over the call.
    pub cpu: HostDuration,
    /// Simulated operations the call attempted.
    pub attempted: u64,
    /// Simulated operations that ended in an error.
    pub failed: u64,
    /// Output-check failures; empty when the call's output is correct.
    pub problems: Vec<String>,
    /// Hash of every simulated result the call reported (`model.digest`).
    pub digest: u64,
    /// Exact counters and simulated results, by metric name, with unit.
    pub exact: Vec<Metric>,
    /// Attribution shares, present on a traced call.
    pub shares: Option<Shares>,
}

impl Call {
    /// The exact counter or simulated result named `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.exact
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |&(_, v, _)| v)
    }
}

/// FNV-1a over the bytes of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |d, b| {
        (d ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1_000.0
}

fn ht_params(seed: u64) -> HtParams {
    // ROADMAP's fig07 table: 1 node x 16 threads x 8 coroutines, 20k
    // keys, 2 blades, Zipf 0.99. The SMART-HT controller stretches the
    // 1 ms warm-up to its 30 ms convergence time.
    let mut p = HtParams::new(SmartConfig::smart_full(16), 16, 20_000, Mix::WriteHeavy);
    p.warmup = Duration::from_millis(1);
    p.measure = Duration::from_millis(2);
    p.seed = seed;
    p
}

fn verbs_spec(seed: u64) -> MicrobenchSpec {
    // A 4 ms window keeps one call near a second of host time, so a timed
    // run holds tens of calls and its median rides out bursts of host
    // noise that a few multi-second calls would each absorb.
    let mut spec = MicrobenchSpec::new(
        SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, 96),
        96,
        8,
    );
    spec.op = MicroOp::Read(8);
    spec.warmup = Duration::from_millis(1);
    spec.measure = Duration::from_millis(4);
    spec.seed = seed;
    spec
}

fn serve_workload_spec(seed: u64) -> ServeSpec {
    serve_spec(100_000, 1.0, seed)
}

fn serve_plan(spec: &ServeSpec) -> DomainPlan {
    DomainPlan::per_blade(1, spec.blades as u32)
}

/// Times one set-up of `w`: the public calls its runner makes before the
/// first simulated event, with the runner's parameters. The built state
/// is dropped inside the timed region, as the runner drops it too.
pub fn setup_once(w: Workload, seed: u64) -> HostDuration {
    let start = Instant::now();
    match w {
        Workload::HtWrite => {
            let p = ht_params(seed);
            let sim = Simulation::new(p.seed);
            let cluster = Cluster::new_with_plan(
                sim.handle(),
                ClusterConfig {
                    compute_nodes: p.compute_nodes,
                    memory_blades: p.blades,
                    blade: BladeConfig {
                        region_bytes: 64 * 1024 * 1024 + p.keys * 96,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                DomainPlan::for_workers(1, p.compute_nodes as u32, p.blades as u32),
            );
            let table = RaceHashTable::create(cluster.blades(), ht_table_config(p.keys));
            for k in 0..p.keys {
                table.load(&k.to_le_bytes(), &k.to_be_bytes());
            }
            std::hint::black_box(&table);
        }
        Workload::VerbsRead => {
            let spec = verbs_spec(seed);
            let sim = Simulation::with_policy(spec.seed, SchedulePolicy::Fifo);
            let cluster = Cluster::new_with_plan(
                sim.handle(),
                ClusterConfig {
                    compute_nodes: 1,
                    memory_blades: spec.blades,
                    blade: BladeConfig {
                        region_bytes: spec.region_bytes,
                        ..Default::default()
                    },
                    rnic: spec.rnic.clone(),
                    ..Default::default()
                },
                DomainPlan::for_workers(1, 1, spec.blades as u32),
            );
            for blade in cluster.blades() {
                blade.alloc(spec.region_bytes - 64, 8);
            }
            let mut cfg = spec.smart.clone();
            cfg.expected_threads = spec.threads;
            let ctx = SmartContext::new(cluster.compute(0), cluster.blades(), cfg);
            std::hint::black_box(&ctx);
        }
        Workload::ServeDecomposed => {
            let spec = serve_workload_spec(seed);
            let plan = serve_plan(&spec);
            let cells = spec.accounts.div_ceil(spec.shards as u64) * 8;
            let cfg = ClusterConfig {
                compute_nodes: 1,
                memory_blades: spec.blades,
                blade: BladeConfig {
                    region_bytes: spec.shards as u64 * cells + (1 << 20),
                    ..Default::default()
                },
                ..Default::default()
            };
            // Every domain of the decomposed run builds its own replica
            // of the cluster; the serve domain also builds the pool.
            for _ in 0..plan.domains() {
                let sim = Simulation::new(spec.seed);
                let cluster = Cluster::new_with_plan(sim.handle(), cfg.clone(), plan.clone());
                std::hint::black_box(&cluster);
            }
            let queue_cap = spec.admission.as_ref().map_or(usize::MAX, |c| c.max_queue);
            let pool = SessionPool::new(spec.clients, queue_cap);
            std::hint::black_box(&pool);
        }
    }
    start.elapsed()
}

/// The RACE table geometry `run_ht` uses for `keys` keys: about half of
/// the slots occupied, 4096 buckets of 8 slots per subtable.
fn ht_table_config(keys: u64) -> RaceConfig {
    let buckets_per_subtable = 1 << 12;
    let slots_per_subtable = (buckets_per_subtable * 8) as u64;
    let want = (keys * 2).max(slots_per_subtable);
    let depth = want
        .div_ceil(slots_per_subtable)
        .next_power_of_two()
        .trailing_zeros() as u8;
    RaceConfig {
        buckets_per_subtable,
        initial_depth: depth,
        ..Default::default()
    }
}

/// Makes one runner call of `w`, timed and checked. A traced call
/// installs a [`TraceSink`] through the runner's own tracing argument and
/// reads the simulated-time attribution from it.
pub fn call(w: Workload, seed: u64, traced: bool) -> Call {
    match w {
        Workload::HtWrite => call_ht(seed, traced),
        Workload::VerbsRead => call_verbs(seed, traced),
        Workload::ServeDecomposed => call_serve(seed, traced),
    }
}

/// Times `f` in host wall and process CPU time.
fn timed<R>(f: impl FnOnce() -> R) -> (R, HostDuration, HostDuration) {
    let cpu0 = host::process_cpu();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed();
    let cpu = host::process_cpu().saturating_sub(cpu0);
    (out, wall, cpu)
}

fn call_ht(seed: u64, traced: bool) -> Call {
    let mut p = ht_params(seed);
    let sink = traced.then(|| TraceSink::with_capacity(TRACE_EVENTS));
    p.trace = sink.clone();
    let (r, wall, cpu) = timed(|| run_ht(&p));

    let mut problems = Vec::new();
    problems.extend(r.conservation.iter().map(|v| format!("conservation: {v}")));
    if r.ops == 0 || r.sim_events == 0 {
        problems.push(format!("no work: ops {} events {}", r.ops, r.sim_events));
    }
    if r.faults_seen != 0 {
        problems.push(format!(
            "{} error completions without a fault plan",
            r.faults_seen
        ));
    }
    let updates: u64 = r.retry_hist.iter().sum();
    let retries = r.avg_retries * updates as f64;
    let cas_success = if updates == 0 {
        0.0
    } else {
        updates as f64 / (updates as f64 + retries)
    };
    let digest = fnv1a(&format!(
        "{} {:?} {} {} {} {:?}",
        r.ops,
        r.mops,
        r.median.as_nanos(),
        r.p99.as_nanos(),
        r.sim_events,
        r.retry_hist
    ));
    let failed = if problems.is_empty() { 0 } else { r.ops };
    Call {
        wall,
        cpu,
        attempted: r.ops,
        failed,
        problems,
        digest,
        exact: vec![
            ("rt.events", r.sim_events as f64, "count"),
            (
                "rt.events_per_op",
                r.sim_events as f64 / r.ops.max(1) as f64,
                "count",
            ),
            ("core.cas_retries_per_op", r.avg_retries, "count"),
            ("core.cas_success_ratio", cas_success, "ratio"),
            ("model.mops", r.mops, "Mops"),
            ("model.p50_us", us(r.median), "sim_us"),
            ("model.p99_us", us(r.p99), "sim_us"),
        ],
        shares: sink.map(|s| Shares::of(&s.attribution())),
    }
}

fn call_verbs(seed: u64, traced: bool) -> Call {
    let mut spec = verbs_spec(seed);
    let sink = traced.then(|| TraceSink::with_capacity(TRACE_EVENTS));
    spec.trace = sink.clone();
    let ((r, m), wall, cpu) = timed(|| run_microbench_metered(&spec));

    let mut problems = Vec::new();
    if r.ops == 0 || m.events() == 0 {
        problems.push(format!("no work: ops {} events {}", r.ops, m.events()));
    }
    for (name, ratio) in [("wqe", r.wqe_hit_ratio), ("mtt", r.mtt_hit_ratio)] {
        if !(0.0..=1.0).contains(&ratio) {
            problems.push(format!("{name} hit ratio {ratio} outside [0, 1]"));
        }
    }
    if !r.mops.is_finite() || !r.dram_bytes_per_op.is_finite() {
        problems.push(format!(
            "non-finite result: mops {} dram {}",
            r.mops, r.dram_bytes_per_op
        ));
    }
    let digest = fnv1a(&format!(
        "{} {:?} {:?} {:?} {:?} {}",
        r.ops,
        r.mops,
        r.dram_bytes_per_op,
        r.wqe_hit_ratio,
        r.mtt_hit_ratio,
        m.events()
    ));
    let failed = if problems.is_empty() { 0 } else { r.ops };
    let events = m.events();
    Call {
        wall,
        cpu,
        attempted: r.ops,
        failed,
        problems,
        digest,
        exact: vec![
            ("rt.events", events as f64, "count"),
            (
                "rt.events_per_op",
                events as f64 / r.ops.max(1) as f64,
                "count",
            ),
            ("rt.polls", m.polls as f64, "count"),
            ("rt.wakes", m.wakes as f64, "count"),
            ("rt.timers_fired", m.timers_fired as f64, "count"),
            ("rt.timers_cancelled", m.timers_cancelled as f64, "count"),
            ("rt.tasks_spawned", m.tasks_spawned as f64, "count"),
            ("rnic.wqe_hit_ratio", r.wqe_hit_ratio, "ratio"),
            ("rnic.mtt_hit_ratio", r.mtt_hit_ratio, "ratio"),
            ("rnic.dram_bytes_per_op", r.dram_bytes_per_op, "B"),
            ("model.mops", r.mops, "Mops"),
        ],
        shares: sink.map(|s| Shares::of(&s.attribution())),
    }
}

fn call_serve(seed: u64, traced: bool) -> Call {
    let spec = serve_workload_spec(seed);
    let plan = serve_plan(&spec);
    let (d, wall, cpu) = timed(|| run_serve_decomposed(&spec, &plan, SERVE_ENGINE_WORKERS, traced));
    let r = &d.report;

    let mut problems = Vec::new();
    problems.extend(r.conservation.iter().map(|v| format!("conservation: {v}")));
    if r.completed() + r.failed() != r.admitted() {
        problems.push(format!(
            "admitted {} but completed {} + failed {}",
            r.admitted(),
            r.completed(),
            r.failed()
        ));
    }
    if r.completed() == 0 || d.epochs == 0 {
        problems.push(format!(
            "no work: completed {} epochs {}",
            r.completed(),
            d.epochs
        ));
    }
    if traced && d.trace.as_deref().is_none_or(str::is_empty) {
        problems.push("traced call returned no trace".to_string());
    }
    let mut lat = LogHistogram::new();
    for ph in &r.phases {
        lat.merge(&ph.latency);
    }
    let steady_p99 = r
        .phases
        .iter()
        .find(|ph| ph.name == "steady")
        .map_or(0, |ph| ph.latency.quantile(0.99));
    let plan_ns: u64 = r.phases.iter().map(|ph| ph.dur_ns).sum();
    let mops = r.completed() as f64 * 1_000.0 / plan_ns.max(1) as f64;
    let digest = fnv1a(&format!(
        "{} {} {}\n{}",
        r.completed(),
        r.sim_events,
        d.epochs,
        r.stream_signature()
    ));
    let failed = if problems.is_empty() {
        r.failed()
    } else {
        r.admitted()
    };
    Call {
        wall,
        cpu,
        attempted: r.admitted(),
        failed,
        problems,
        digest,
        exact: vec![
            ("rt.events", r.sim_events as f64, "count"),
            (
                "rt.events_per_op",
                r.sim_events as f64 / r.completed().max(1) as f64,
                "count",
            ),
            ("rt.pdes.epochs", d.epochs as f64, "count"),
            ("rt.pdes.envelopes", d.envelopes as f64, "count"),
            (
                "rt.pdes.events_per_epoch",
                r.sim_events as f64 / d.epochs.max(1) as f64,
                "count",
            ),
            (
                "rt.pdes.cross_domain_wrs",
                d.cross_domain_wrs as f64,
                "count",
            ),
            ("serve.offered", r.offered() as f64, "count"),
            ("serve.admitted", r.admitted() as f64, "count"),
            ("serve.completed", r.completed() as f64, "count"),
            (
                "serve.shed_share",
                r.shed() as f64 / r.offered().max(1) as f64,
                "ratio",
            ),
            ("serve.queue_high_water", r.queue_high_water as f64, "count"),
            ("serve.steady_p99_us", steady_p99 as f64 / 1_000.0, "sim_us"),
            ("fault.injected", r.faults_injected as f64, "count"),
            ("fault.recovered", r.faults_recovered as f64, "count"),
            (
                "fault.recovery_p99_us",
                r.recovery.quantile(0.99) as f64 / 1_000.0,
                "sim_us",
            ),
            ("model.mops", mops, "Mops"),
            (
                "model.p50_us",
                lat.quantile(0.50) as f64 / 1_000.0,
                "sim_us",
            ),
            (
                "model.p99_us",
                lat.quantile(0.99) as f64 / 1_000.0,
                "sim_us",
            ),
        ],
        shares: None,
    }
}

/// Host wall time of the classic single-domain `run_serve` on the same
/// spec as `serve_decomposed`: the base of `rt.pdes.overhead_vs_single`.
pub fn classic_serve_wall(seed: u64) -> HostDuration {
    let spec = serve_workload_spec(seed);
    timed(|| run_serve(&spec)).1
}
