//! The micro-benchmark driver (§3.1's "bench tool", the artifact's
//! `test_rdma`): measures raw READ/WRITE/CAS throughput for any thread
//! count, concurrency depth and allocation policy.
//!
//! Each thread runs one coroutine that repeatedly posts `depth` work
//! requests at uniformly random 8-byte-aligned offsets in the remote
//! region, rings the doorbell, and waits for all acknowledgements —
//! exactly the paper's loop. Throughput and the PCIe-inbound DRAM traffic
//! per WR (Figure 4b) are measured over a virtual-time window after a
//! warm-up.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use smart_rnic::{Cluster, ClusterConfig, RemoteAddr, RnicConfig};
use smart_rt::{SchedulePolicy, Simulation};

use crate::config::SmartConfig;
use crate::context::SmartContext;

/// Operation mix issued by the micro-benchmark.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MicroOp {
    /// RDMA READ of the given payload size.
    Read(u32),
    /// RDMA WRITE of the given payload size.
    Write(u32),
    /// RDMA CAS on random addresses (rarely conflicting).
    Cas,
}

/// Varies the number of active threads over time (Table 1's dynamically
/// changing workload).
#[derive(Clone, Copy, Debug)]
pub struct DynamicLoad {
    /// How often the active thread count changes.
    pub interval: Duration,
    /// Active threads in the low phase.
    pub low_threads: usize,
    /// Active threads in the high phase.
    pub high_threads: usize,
}

/// A micro-benchmark configuration.
#[derive(Clone, Debug)]
pub struct MicrobenchSpec {
    /// Framework configuration (policy + SMART feature toggles).
    pub smart: SmartConfig,
    /// Number of benchmark threads.
    pub threads: usize,
    /// Work requests posted per batch (the concurrency depth `k`).
    pub depth: usize,
    /// Operation type and payload.
    pub op: MicroOp,
    /// Number of memory blades.
    pub blades: usize,
    /// Remote region size per blade (addresses are uniform within it).
    pub region_bytes: u64,
    /// Virtual-time warm-up before measuring.
    pub warmup: Duration,
    /// Virtual-time measurement window.
    pub measure: Duration,
    /// PRNG seed.
    pub seed: u64,
    /// Optional dynamically changing load (Table 1).
    pub dynamic: Option<DynamicLoad>,
    /// RNIC model parameters (ablations override cache sizes, doorbell
    /// counts, penalties, ...).
    pub rnic: RnicConfig,
    /// Optional trace sink installed into the simulation: every batch is
    /// recorded as a `"micro"` op with per-category latency attribution.
    pub trace: Option<smart_trace::TraceSink>,
    /// Executor schedule policy: `Fifo` (the default) or a seeded
    /// tie-break perturbation for `smart-check` schedule exploration.
    pub schedule: SchedulePolicy,
}

impl MicrobenchSpec {
    /// A spec with the paper's defaults: 8-byte READs, uniform addresses,
    /// one memory blade, 64 MB region, 2 ms warmup + 5 ms measurement.
    pub fn new(smart: SmartConfig, threads: usize, depth: usize) -> Self {
        MicrobenchSpec {
            smart,
            threads,
            depth,
            op: MicroOp::Read(8),
            blades: 1,
            region_bytes: 64 * 1024 * 1024,
            warmup: Duration::from_millis(2),
            measure: Duration::from_millis(5),
            seed: 42,
            dynamic: None,
            rnic: RnicConfig::default(),
            trace: None,
            schedule: SchedulePolicy::Fifo,
        }
    }
}

/// Results of one micro-benchmark run.
#[derive(Clone, Debug)]
pub struct MicrobenchReport {
    /// Completed work requests during the window.
    pub ops: u64,
    /// Millions of operations per second.
    pub mops: f64,
    /// Average PCIe-inbound DRAM bytes per WR (Figure 4b's metric).
    pub dram_bytes_per_op: f64,
    /// WQE-cache hit ratio during the whole run.
    pub wqe_hit_ratio: f64,
    /// MTT/MPT cache hit ratio during the whole run.
    pub mtt_hit_ratio: f64,
}

/// Runs the micro-benchmark to completion and reports throughput.
///
/// ```rust
/// use smart::{run_microbench, MicrobenchSpec, QpPolicy, SmartConfig};
/// use smart_rt::Duration;
///
/// let mut spec = MicrobenchSpec::new(
///     SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, 4),
///     4, // threads
///     8, // outstanding work requests per thread
/// );
/// spec.warmup = Duration::from_micros(200);
/// spec.measure = Duration::from_micros(500);
/// let report = run_microbench(&spec);
/// assert!(report.mops > 1.0);
/// ```
pub fn run_microbench(spec: &MicrobenchSpec) -> MicrobenchReport {
    run_microbench_metered(spec).0
}

/// Like [`run_microbench`], additionally returning the executor's
/// scheduling metrics for the whole run. The `smart-bench` perf harness
/// uses the event count as the denominator of its wall-clock `ns/event`
/// figure; the report itself is unchanged so result goldens keep their
/// bytes.
pub fn run_microbench_metered(
    spec: &MicrobenchSpec,
) -> (MicrobenchReport, smart_rt::metrics::ExecutorMetrics) {
    let mut sim = Simulation::with_policy(spec.seed, spec.schedule);
    if let Some(sink) = &spec.trace {
        sim.handle().install_tracer(sink.clone());
    }
    let cluster = Cluster::new(
        sim.handle(),
        ClusterConfig {
            compute_nodes: 1,
            memory_blades: spec.blades,
            blade: smart_rnic::BladeConfig {
                region_bytes: spec.region_bytes,
                ..Default::default()
            },
            rnic: spec.rnic.clone(),
            ..Default::default()
        },
    );
    // Reserve the whole region so random offsets land in valid memory.
    for blade in cluster.blades() {
        blade.alloc(spec.region_bytes - 64, 8);
    }
    let mut smart_cfg = spec.smart.clone();
    smart_cfg.expected_threads = spec.threads;
    let ctx = SmartContext::new(cluster.compute(0), cluster.blades(), smart_cfg);

    let active: Rc<Cell<usize>> = Rc::new(Cell::new(spec.threads));
    if let Some(dynamic) = spec.dynamic {
        let active = Rc::clone(&active);
        let handle = sim.handle();
        active.set(dynamic.high_threads);
        sim.spawn(async move {
            let mut high = true;
            loop {
                handle.sleep(dynamic.interval).await;
                high = !high;
                active.set(if high {
                    dynamic.high_threads
                } else {
                    dynamic.low_threads
                });
            }
        });
    }

    let depth = spec.depth.max(1);
    let op = spec.op;
    let blades = spec.blades as u64;
    let slots = (spec.region_bytes - 64) / 8 - 2;
    for t in 0..spec.threads {
        let thread = ctx.create_thread();
        let coro = thread.coroutine();
        let handle = sim.handle();
        let active = Rc::clone(&active);
        sim.spawn(async move {
            loop {
                if thread.index() >= active.get() {
                    handle.sleep(Duration::from_micros(20)).await;
                    continue;
                }
                let _op = coro.op_scope_named("micro").await;
                for _ in 0..depth {
                    let blade = cluster_blade_id(t as u64, handle.rand_below(blades));
                    let offset = 64 + handle.rand_below(slots) * 8;
                    let addr = RemoteAddr::new(smart_rnic::BladeId(blade), offset);
                    match op {
                        MicroOp::Read(len) => {
                            coro.read(addr, len);
                        }
                        MicroOp::Write(len) => {
                            coro.write(addr, vec![0u8; len as usize]);
                        }
                        MicroOp::Cas => {
                            coro.cas(addr, 0, 1);
                        }
                    }
                }
                coro.post_send().await;
                coro.sync().await;
            }
        });
    }

    sim.run_for(spec.warmup);
    let node = cluster.compute(0);
    let before = node.counters();
    sim.run_for(spec.measure);
    let after = node.counters();

    let ops = after.ops_completed - before.ops_completed;
    let secs = spec.measure.as_secs_f64();
    let wqe_total = after.wqe_hits + after.wqe_misses;
    let mtt_total = after.mtt_hits + after.mtt_misses;
    let report = MicrobenchReport {
        ops,
        mops: ops as f64 / secs / 1e6,
        dram_bytes_per_op: after.dram_bytes_per_op_since(&before),
        wqe_hit_ratio: if wqe_total == 0 {
            1.0
        } else {
            after.wqe_hits as f64 / wqe_total as f64
        },
        mtt_hit_ratio: if mtt_total == 0 {
            1.0
        } else {
            after.mtt_hits as f64 / mtt_total as f64
        },
    };
    (report, sim.handle().metrics())
}

fn cluster_blade_id(_thread: u64, pick: u64) -> u32 {
    pick as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QpPolicy;

    fn quick(spec: &mut MicrobenchSpec) {
        spec.warmup = Duration::from_micros(300);
        spec.measure = Duration::from_millis(1);
    }

    #[test]
    fn single_thread_produces_reasonable_iops() {
        let mut spec = MicrobenchSpec::new(SmartConfig::baseline(QpPolicy::PerThreadQp, 1), 1, 8);
        quick(&mut spec);
        let r = run_microbench(&spec);
        // One thread, depth 8, ~3.5 µs RTT => roughly 1.5–3.5 MOPS.
        assert!(r.mops > 0.8, "got {} MOPS", r.mops);
        assert!(r.mops < 6.0, "got {} MOPS", r.mops);
    }

    #[test]
    fn throughput_scales_with_threads_under_thread_aware_policy() {
        let mk = |threads| {
            let mut spec = MicrobenchSpec::new(
                SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, threads),
                threads,
                8,
            );
            quick(&mut spec);
            run_microbench(&spec)
        };
        let one = mk(1);
        let sixteen = mk(16);
        assert!(
            sixteen.mops > one.mops * 8.0,
            "1 thread {} MOPS vs 16 threads {} MOPS",
            one.mops,
            sixteen.mops
        );
    }

    #[test]
    fn writes_also_flow() {
        let mut spec = MicrobenchSpec::new(SmartConfig::baseline(QpPolicy::PerThreadQp, 4), 4, 8);
        spec.op = MicroOp::Write(8);
        quick(&mut spec);
        let r = run_microbench(&spec);
        assert!(r.mops > 1.0, "got {} MOPS", r.mops);
    }
}
