//! Domain-decomposed hash-table runner: memory blades as real PDES
//! engine domains.
//!
//! [`run_ht_decomposed`] turns the memory blades into domains of a
//! [`smart_rt::pdes::PdesBuilder`] run: compute-side verbs cross to them
//! over [`BladeRequest`](smart_rnic::BladeRequest)/[`BladeReply`](smart_rnic::BladeReply)
//! channels at fabric one-way latency (the conservative lookahead), and
//! the warmup → measure → drain schedule becomes a phase-controller
//! coroutine inside the compute domain. Decomposed timing is
//! self-consistent but not byte-comparable to the classic single-domain
//! [`crate::run_ht`] (see [`smart_rnic::engine`]); the determinism gate
//! is *worker-count invariance for a fixed plan*, asserted by
//! `tests/scheduler_equiv.rs` at engine workers 1/2/4/8.
//!
//! [`smart_trace::TraceSink`] is not `Send`, so the runner takes a
//! `with_trace` flag, creates the sink inside the compute domain, and
//! returns the rendered Chrome JSON as a plain `String`.

use std::cell::RefCell;
use std::rc::Rc;

use smart::SmartContext;
use smart_fault::FaultInjector;
use smart_race::RaceHashTable;
use smart_rnic::{
    blade_link, spawn_blade_engine, BladeConfig, BladeId, Cluster, ClusterConfig, DomainPlan,
    NodeId, RemotePort,
};
use smart_rt::pdes::{DomainCtx, DomainId, PdesBuilder};
use smart_trace::TraceSink;
use smart_workloads::ycsb::{YcsbGenerator, YcsbOp};

use crate::runners::{ht_table_config, tune_for_window, FaultProbe, HtParams, Probe, RunReport};

/// Ring capacity for decomposed trace sinks, matching the equivalence
/// goldens in `tests/scheduler_equiv.rs`.
const DECOMPOSED_TRACE_EVENTS: usize = 1024;

/// Outcome of a [`run_ht_decomposed`] run: the classic report plus the
/// engine's partition counters. Everything except `report.sim_events` is
/// independent of the engine worker count.
#[derive(Clone, Debug)]
pub struct DecomposedHt {
    /// The benchmark report. `sim_events` sums scheduling events over
    /// *all* domains (it is excluded from the equivalence fingerprints).
    pub report: RunReport,
    /// Chrome trace JSON from the compute domain, when requested.
    pub trace: Option<String>,
    /// Scheduling domains in the plan (1 compute + blade domains).
    pub domains: u32,
    /// Conservative epochs the engine executed.
    pub epochs: u64,
    /// Envelopes routed across domains, requests and replies combined.
    pub envelopes: u64,
    /// Request envelopes delivered into blade domains. In a fault-free
    /// run this equals `cross_domain_wrs` — every crossing work request
    /// becomes exactly one [`smart_rnic::BladeRequest`].
    pub blade_requests: u64,
    /// Work requests the compute side counted as crossing the partition
    /// ([`smart_rnic::Cluster::cross_domain_wrs`], summed over nodes —
    /// diagnostics-only, never part of golden-visible output).
    pub cross_domain_wrs: u64,
    /// Concatenated blade-domain artifacts: per-blade `served`/`epoch`
    /// lines from the authoritative blades.
    pub blade_log: String,
}

/// Measure-window deltas the phase controller captures mid-run; the
/// finish hook folds them into the final [`RunReport`].
type HtWindow = (u64, Vec<u64>, u64);

/// Runs a hash-table experiment decomposed over `plan`: compute nodes,
/// fabric requester side and all client state live in domain 0 (a local
/// domain on the coordinator thread); each blade domain of the plan runs
/// its blades as real engine domains via
/// [`spawn_blade_engine`], executable by up to `engine_workers` OS
/// threads.
///
/// Every domain replays the same deterministic bootstrap (cluster build,
/// table create + load use only the bump allocator and direct writes), so
/// the blade domains' copies are authoritative without any state
/// shipping. A fault plan is installed in full on the compute domain
/// (post-side draws, QP errors and the shadow crash/restart timeline that
/// drives `MrRevoked` epochs) and lowered onto the blade domains
/// ([`smart_fault::FaultPlan::lower_onto`]) so the authoritative blades
/// crash and restart on the same schedule.
///
/// The result is byte-identical for every `engine_workers` value — that
/// is the PDES contract this runner inherits — but *not* byte-comparable
/// to [`crate::run_ht`]'s shared-graph timing (see
/// [`smart_rnic::engine`]).
///
/// # Panics
///
/// Panics if `p.trace` is set (the sink cannot cross thread boundaries;
/// pass `with_trace`), if the plan is single-domain or hosts a compute
/// node outside domain 0, or if the plan does not cover `p`'s cluster
/// shape.
pub fn run_ht_decomposed(
    p: &HtParams,
    plan: &DomainPlan,
    engine_workers: usize,
    with_trace: bool,
) -> DecomposedHt {
    assert!(
        p.trace.is_none(),
        "decomposed runs own their trace sink; leave p.trace empty and pass with_trace"
    );
    assert!(
        !plan.is_single(),
        "decomposed runner needs a partition with at least one blade domain"
    );
    for n in 0..p.compute_nodes {
        assert_eq!(
            plan.node_domain(NodeId(n as u32)),
            DomainId(0),
            "compute nodes must live in domain 0"
        );
    }

    let region = 64 * 1024 * 1024 + p.keys * 96;
    let cfg = ClusterConfig {
        compute_nodes: p.compute_nodes,
        memory_blades: p.blades,
        blade: BladeConfig {
            region_bytes: region,
            ..Default::default()
        },
        ..Default::default()
    };
    let fabric = cfg.fabric.clone();

    let mut b = PdesBuilder::new(p.seed);
    // Channel pairs for every crossing blade; a blade co-located in
    // domain 0 keeps the classic same-domain path (no port attached).
    let mut req_ends = Vec::new();
    let mut blade_ends: Vec<Vec<_>> = (0..plan.domains()).map(|_| Vec::new()).collect();
    for i in 0..p.blades {
        let d = plan.blade_domain(BladeId(i as u32));
        if d == DomainId(0) {
            continue;
        }
        let link = blade_link(&mut b, DomainId(0), d, &fabric);
        req_ends.push((i, link.req_tx, link.rep_rx));
        blade_ends[d.index()].push((i, link.req_rx, link.rep_tx));
    }

    type HtOut = (RunReport, Option<String>, u64);
    let out: Rc<RefCell<Option<HtOut>>> = Rc::new(RefCell::new(None));
    let out0 = Rc::clone(&out);
    let (p0, cfg0, plan0) = (p.clone(), cfg.clone(), plan.clone());
    b.add_local_domain("compute", move |ctx: &DomainCtx| {
        let h = ctx.handle();
        let sink = with_trace.then(|| TraceSink::with_capacity(DECOMPOSED_TRACE_EVENTS));
        if let Some(s) = &sink {
            h.install_tracer(s.clone());
        }
        let cluster = Cluster::new_with_plan(h.clone(), cfg0, plan0);
        for (i, tx, rx) in req_ends {
            let port = RemotePort::install(&h, ctx.bind_tx(tx), ctx.bind_rx(rx));
            cluster.blade(i).attach_remote(port);
        }
        let chaos = FaultProbe::install(&cluster, &p0.fault);
        let table = RaceHashTable::create(cluster.blades(), ht_table_config(p0.keys));
        for k in 0..p0.keys {
            table.load(&k.to_le_bytes(), &k.to_be_bytes());
        }
        let base_gen = YcsbGenerator::new(p0.keys, p0.theta, p0.mix, p0.seed);
        let probe = Probe::new();
        let (tuned, warmup) = tune_for_window(&p0.smart, p0.warmup, p0.measure);

        let mut contexts = Vec::new();
        for node in 0..p0.compute_nodes {
            let mut cfg = tuned.clone();
            cfg.expected_threads = p0.threads;
            cfg.coroutines_per_thread = p0.depth;
            let sctx = SmartContext::new(cluster.compute(node), cluster.blades(), cfg);
            contexts.push(Rc::clone(&sctx));
            for t in 0..p0.threads {
                let thread = sctx.create_thread();
                chaos.track(&thread);
                for c in 0..p0.depth {
                    let coro = thread.coroutine();
                    let table = Rc::clone(&table);
                    let mut gen = base_gen
                        .fork(p0.seed ^ ((node as u64) << 40) ^ ((t as u64) << 20) ^ c as u64);
                    let ops = probe.ops.clone();
                    let measuring = Rc::clone(&probe.measuring);
                    let stop = Rc::clone(&probe.stop);
                    let latency = Rc::clone(&probe.latency);
                    let pace = p0.pace;
                    let hh = h.clone();
                    h.spawn(async move {
                        while !stop.get() {
                            if let Some(d) = pace {
                                hh.sleep(d).await;
                            }
                            let start = hh.now();
                            match gen.next_op() {
                                YcsbOp::Lookup(k) => {
                                    let _ = table.get(&coro, &k.to_le_bytes()).await;
                                }
                                YcsbOp::Update(k) => {
                                    let _ = table
                                        .update(
                                            &coro,
                                            &k.to_le_bytes(),
                                            &hh.now().as_nanos().to_le_bytes(),
                                        )
                                        .await;
                                }
                            }
                            ops.incr();
                            if measuring.get() {
                                latency.borrow_mut().record(hh.now() - start);
                            }
                        }
                    });
                }
            }
        }

        // Phase controller: the decomposed stand-in for the classic
        // runner's imperative `run_for` schedule. Workers exit at `stop`,
        // the controller coroutines exit at their next wake-up once
        // quiesced, and the engine then runs to quiescence — no explicit
        // drain window is needed; in-flight recoveries finish on their
        // own.
        let window: Rc<RefCell<Option<HtWindow>>> = Rc::new(RefCell::new(None));
        {
            let win = Rc::clone(&window);
            let table = Rc::clone(&table);
            let ops_ctr = probe.ops.clone();
            let measuring = Rc::clone(&probe.measuring);
            let stop = Rc::clone(&probe.stop);
            let measure = p0.measure;
            let hh = h.clone();
            h.spawn(async move {
                hh.sleep(warmup).await;
                measuring.set(true);
                let ops0 = ops_ctr.get();
                let retries0 = table.stats().cas_retries.get();
                let hist0 = table.stats().retry_histogram();
                hh.sleep(measure).await;
                let ops = ops_ctr.get() - ops0;
                let hist1 = table.stats().retry_histogram();
                let hist: Vec<u64> = hist1.iter().zip(hist0.iter()).map(|(a, b)| a - b).collect();
                let retries = table.stats().cas_retries.get() - retries0;
                measuring.set(false);
                stop.set(true);
                for sctx in &contexts {
                    sctx.quiesce_controllers();
                }
                *win.borrow_mut() = Some((ops, hist, retries));
            });
        }

        let measure = p0.measure;
        Box::new(move |_: &DomainCtx| {
            let (ops, hist, retries) = window
                .borrow_mut()
                .take()
                .expect("phase controller must run to completion");
            let hist_ops: u64 = hist.iter().sum();
            let lat = probe.latency.borrow();
            let mut report = RunReport {
                ops,
                mops: ops as f64 / measure.as_secs_f64() / 1e6,
                median: lat.median(),
                p99: lat.p99(),
                avg_retries: if hist_ops == 0 {
                    0.0
                } else {
                    retries as f64 / hist_ops as f64
                },
                retry_hist: hist,
                ..RunReport::default()
            };
            drop(lat);
            chaos.fill(&mut report);
            let artifact = format!(
                "ops={} median={:?} p99={:?} retries={:.4} faults={}/{}/{}",
                report.ops,
                report.median,
                report.p99,
                report.avg_retries,
                report.faults_injected,
                report.faults_seen,
                report.faults_recovered
            )
            .into_bytes();
            *out0.borrow_mut() = Some((
                report,
                sink.map(|s| s.chrome_json()),
                cluster.cross_domain_wrs(),
            ));
            artifact
        })
    });

    for d in 1..plan.domains() {
        let ends = std::mem::take(&mut blade_ends[d as usize]);
        let owned: Vec<usize> = ends.iter().map(|(i, _, _)| *i).collect();
        let (cfg1, plan1) = (cfg.clone(), plan.clone());
        let keys = p.keys;
        let sub = p
            .fault
            .as_ref()
            .map(|pl| pl.lower_onto(plan)[d as usize].1.clone());
        b.add_domain(&format!("blades-{owned:?}"), move |ctx: &DomainCtx| {
            let h = ctx.handle();
            let cluster = Cluster::new_with_plan(h.clone(), cfg1, plan1);
            // Replicated deterministic bootstrap: same table layout and
            // preload as domain 0, so this domain's own blades hold
            // authoritative bytes and everything else is an inert shadow.
            let table = RaceHashTable::create(cluster.blades(), ht_table_config(keys));
            for k in 0..keys {
                table.load(&k.to_le_bytes(), &k.to_be_bytes());
            }
            if let Some(sub) = sub {
                if !sub.events().is_empty() {
                    // Only the scheduled crash/restart timeline matters
                    // here — nothing posts in this domain, so the hook's
                    // probabilistic draws never fire (the driver task
                    // keeps its own reference to the injector).
                    let _ = FaultInjector::install(&cluster, sub);
                }
            }
            let rnic = cluster.config().rnic.clone();
            let fab = cluster.config().fabric.clone();
            let mut blades = Vec::new();
            for (i, rx, tx) in ends {
                let blade = Rc::clone(cluster.blade(i));
                spawn_blade_engine(&blade, &rnic, &fab, ctx.bind_rx(rx), ctx.bind_tx(tx));
                blades.push((i, blade));
            }
            Box::new(move |_: &DomainCtx| {
                let mut s = String::new();
                for (i, blade) in &blades {
                    s.push_str(&format!(
                        "blade{} served={} epoch={}\n",
                        i,
                        blade.ops_served(),
                        blade.epoch()
                    ));
                }
                s.into_bytes()
            })
        });
    }

    let engine = b.run(engine_workers);
    let (mut report, trace, cross_domain_wrs) =
        out.borrow_mut().take().expect("compute domain must finish");
    report.sim_events = engine.events();
    let blade_requests: u64 = engine.domains[1..].iter().map(|d| d.delivered).sum();
    let blade_log: String = engine.domains[1..]
        .iter()
        .map(|d| String::from_utf8_lossy(&d.artifact).into_owned())
        .collect();
    DecomposedHt {
        report,
        trace,
        domains: plan.domains(),
        epochs: engine.epochs,
        envelopes: engine.envelopes,
        blade_requests,
        cross_domain_wrs,
        blade_log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart::SmartConfig;
    use smart_rt::Duration;
    use smart_workloads::ycsb::Mix;

    #[test]
    fn decomposed_ht_is_worker_invariant_and_counts_envelopes() {
        let mut p = HtParams::new(SmartConfig::smart_full(2), 2, 400, Mix::ReadHeavy);
        p.warmup = Duration::from_micros(300);
        p.measure = Duration::from_millis(1);
        let plan = DomainPlan::per_blade(1, p.blades as u32);
        let seq = run_ht_decomposed(&p, &plan, 1, true);
        let par = run_ht_decomposed(&p, &plan, 3, true);
        assert_eq!(format!("{:?}", seq.report), format!("{:?}", par.report));
        assert_eq!(seq.trace, par.trace);
        assert_eq!(seq.blade_log, par.blade_log);
        assert_eq!(seq.epochs, par.epochs);
        assert_eq!(seq.envelopes, par.envelopes);
        assert!(seq.report.ops > 0, "no progress through blade domains");
        // Every crossing work request is one request envelope plus one
        // reply envelope; nothing else crosses.
        assert_eq!(seq.envelopes, 2 * seq.blade_requests);
        assert_eq!(
            seq.cross_domain_wrs, seq.blade_requests,
            "fault-free run: every crossing WR reaches its blade domain"
        );
    }
}
