//! Domain-decomposed serve runner: memory blades as real PDES engine
//! domains.
//!
//! [`run_serve_decomposed`] is the serving-layer twin of
//! `smart_bench::run_ht_decomposed`: the compute node, arrival engine,
//! admission controller, session pool and all worker coroutines live in
//! domain 0 (a local domain on the coordinator thread); each blade
//! domain of the [`DomainPlan`] runs its blades behind
//! [`spawn_blade_engine`], reachable only through typed
//! request/completion envelopes whose channel latency is the fabric
//! one-way delay.
//!
//! Every domain replays the same deterministic bootstrap (cluster
//! build, slab carve, balance seeding use only the bump allocator and
//! direct writes), so each blade domain's own blades are authoritative
//! without shipping state. The membership script's fault plan (plus
//! chaos) is installed in full on domain 0 — post-side draws and the
//! shadow crash timeline that drives `MrRevoked` epochs — and lowered
//! onto the blade domains so the authoritative blades crash and rejoin
//! on the same schedule.
//!
//! The balance-conservation audit is split across the partition: domain
//! 0 sums only the blades it owns, every blade domain's finish artifact
//! carries `sum=` lines for its own slabs, and the runner combines the
//! two against `accounts × initial_balance + ledger`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use smart::{ShardRouter, SmartConfig, SmartContext, SmartThread};
use smart_fault::FaultInjector;
use smart_rnic::{
    blade_link, spawn_blade_engine, BladeConfig, BladeId, Cluster, ClusterConfig, DomainPlan,
    NodeId, RemotePort,
};
use smart_rt::pdes::{DomainCtx, DomainId, PdesBuilder};
use smart_rt::Duration;
use smart_trace::{Actor, Args, Category, LogHistogram, TraceSink};

use crate::admission::{AdmissionController, Rejected};
use crate::arrival::ArrivalEngine;
use crate::engine::{describe_admission, execute, op_word, Accum, Slabs};
use crate::report::{digest_fold, ServeReport};
use crate::session::{Request, SessionPool};
use crate::ServeSpec;

/// Ring capacity for decomposed trace sinks, matching the equivalence
/// goldens in `tests/scheduler_equiv.rs`.
pub const DECOMPOSED_TRACE_EVENTS: usize = 1024;

/// Outcome of a [`run_serve_decomposed`] run: the classic report plus
/// the engine's partition counters. Everything except
/// `report.sim_events` is independent of the engine worker count.
#[derive(Clone, Debug)]
pub struct DecomposedServe {
    /// The serve report. `sim_events` sums scheduling events over *all*
    /// domains.
    pub report: ServeReport,
    /// Chrome trace JSON from the serve domain, when requested.
    pub trace: Option<String>,
    /// Scheduling domains in the plan (1 serve + blade domains).
    pub domains: u32,
    /// Conservative epochs the engine executed.
    pub epochs: u64,
    /// Envelopes routed across domains, requests and replies combined.
    pub envelopes: u64,
    /// Request envelopes delivered into blade domains. In a fault-free
    /// run this equals `cross_domain_wrs`.
    pub blade_requests: u64,
    /// Work requests the compute side counted as crossing the partition
    /// (diagnostics-only, never part of golden-visible output).
    pub cross_domain_wrs: u64,
    /// Concatenated blade-domain artifacts: per-blade
    /// `sum`/`served`/`epoch` lines from the authoritative blades.
    pub blade_log: String,
}

/// Runs a serve scenario decomposed over `plan`, executable by up to
/// `engine_workers` OS threads.
///
/// The result is byte-identical for every `engine_workers` value — the
/// PDES determinism contract — but *not* byte-comparable to
/// [`crate::run_serve`]'s shared-graph timing (see
/// [`smart_rnic::engine`]).
///
/// # Panics
///
/// Panics if `spec.trace` is set (pass `with_trace` instead), if the
/// plan is single-domain or hosts the compute node outside domain 0, or
/// if the plan does not cover the cluster shape.
pub fn run_serve_decomposed(
    spec: &ServeSpec,
    plan: &DomainPlan,
    engine_workers: usize,
    with_trace: bool,
) -> DecomposedServe {
    assert!(
        spec.trace.is_none(),
        "decomposed runs own their trace sink; leave spec.trace empty and pass with_trace"
    );
    assert!(
        !plan.is_single(),
        "decomposed runner needs a partition with at least one blade domain"
    );
    assert_eq!(
        plan.node_domain(NodeId(0)),
        DomainId(0),
        "the compute node must live in domain 0"
    );

    let cells = spec.accounts.div_ceil(spec.shards as u64) * 8;
    let region = (spec.shards as u64 * cells) + (1 << 20);
    let cfg = ClusterConfig {
        compute_nodes: 1,
        memory_blades: spec.blades,
        blade: BladeConfig {
            region_bytes: region,
            ..Default::default()
        },
        ..Default::default()
    };
    let fabric = cfg.fabric.clone();

    let mut b = PdesBuilder::new(spec.seed);
    // Channel pairs for every crossing blade; a blade co-located in
    // domain 0 keeps the classic same-domain path (no port attached).
    let mut req_ends = Vec::new();
    let mut blade_ends: Vec<Vec<_>> = (0..plan.domains()).map(|_| Vec::new()).collect();
    for i in 0..spec.blades {
        let d = plan.blade_domain(BladeId(i as u32));
        if d == DomainId(0) {
            continue;
        }
        let link = blade_link(&mut b, DomainId(0), d, &fabric);
        req_ends.push((i, link.req_tx, link.rep_rx));
        blade_ends[d.index()].push((i, link.req_rx, link.rep_tx));
    }

    // (report, trace, cross_domain_wrs, domain-0 slab sum, expected total)
    type ServeOut = (ServeReport, Option<String>, u64, u64, u64);
    let out: Rc<RefCell<Option<ServeOut>>> = Rc::new(RefCell::new(None));
    let out0 = Rc::clone(&out);
    let (spec0, cfg0, plan0) = (spec.clone(), cfg.clone(), plan.clone());
    b.add_local_domain("serve", move |ctx: &DomainCtx| {
        let h = ctx.handle();
        let sink = with_trace.then(|| TraceSink::with_capacity(DECOMPOSED_TRACE_EVENTS));
        if let Some(s) = &sink {
            h.install_tracer(s.clone());
        }
        let cluster = Cluster::new_with_plan(h.clone(), cfg0, plan0.clone());
        for (i, tx, rx) in req_ends {
            let port = RemotePort::install(&h, ctx.bind_tx(tx), ctx.bind_rx(rx));
            cluster.blade(i).attach_remote(port);
        }
        let fault_plan = spec0.membership.fault_plan().merge(&spec0.chaos);
        let injector = FaultInjector::install(&cluster, fault_plan);

        let router = Rc::new(ShardRouter::new(spec0.blades, spec0.shards));
        let slabs = Rc::new(Slabs::carve(cluster.blades(), spec0.shards, spec0.accounts));
        for account in 0..spec0.accounts {
            let home = router.home(slabs.shard_of(account));
            cluster.blades()[home].write_u64(slabs.cell(account, home), spec0.initial_balance);
        }

        let accum = Rc::new(Accum::new(&spec0.plan));
        let queue_cap = spec0.admission.as_ref().map_or(usize::MAX, |c| c.max_queue);
        let pool = Rc::new(SessionPool::new(spec0.clients, queue_cap));

        // Worker coroutines: the bounded execution side of the session
        // pool, identical to the inline engine's.
        let mut smart_cfg = SmartConfig::smart_full(spec0.threads);
        smart_cfg.expected_threads = spec0.threads;
        smart_cfg.coroutines_per_thread = spec0.depth;
        let sctx = SmartContext::new(cluster.compute(0), cluster.blades(), smart_cfg);
        let mut threads: Vec<Rc<SmartThread>> = Vec::new();
        let mut workers = Vec::new();
        for _ in 0..spec0.threads {
            let thread = sctx.create_thread();
            for _ in 0..spec0.depth {
                let coro = thread.coroutine();
                let queue = pool.queue().clone();
                let (pool, accum) = (Rc::clone(&pool), Rc::clone(&accum));
                let (router, slabs) = (Rc::clone(&router), Rc::clone(&slabs));
                let blades = cluster.blades().to_vec();
                let handle = h.clone();
                workers.push(h.spawn(async move {
                    while let Some(req) = queue.recv().await {
                        let outcome = execute(&coro, &req, &slabs, &router, &blades).await;
                        let mut phases = accum.phases.borrow_mut();
                        let ph = &mut phases[req.phase];
                        match outcome {
                            Ok(delta) => {
                                accum.ledger.set(accum.ledger.get().wrapping_add(delta));
                                ph.completed += 1;
                                let lat = handle.now().as_nanos() - req.at.as_nanos() as u64;
                                ph.latency.record(lat);
                                drop(phases);
                                pool.complete(req.client);
                            }
                            Err(_) => ph.failed += 1,
                        }
                    }
                }));
            }
            threads.push(thread);
        }
        let workers = Rc::new(workers);

        // Membership driver.
        h.spawn(
            spec0
                .membership
                .clone()
                .drive(h.clone(), Rc::clone(&router)),
        );

        // Phase clerk: marks transitions and snapshots the merged
        // recovery histogram at every phase boundary.
        let snaps: Rc<RefCell<Vec<LogHistogram>>> = Rc::new(RefCell::new(Vec::new()));
        {
            let handle = h.clone();
            let threads = threads.clone();
            let snaps = Rc::clone(&snaps);
            let plan = spec0.plan.clone();
            h.spawn(async move {
                let start = handle.now();
                let mut at = Duration::ZERO;
                for (i, p) in plan.phases().iter().enumerate() {
                    handle.with_tracer(|sink| {
                        sink.instant(
                            handle.now().as_nanos(),
                            Actor::SYSTEM,
                            Category::Serve,
                            "phase_start",
                            Args::one("phase", i as u64),
                        );
                    });
                    at += p.dur;
                    handle.sleep_until(start + at).await;
                    let mut merged = LogHistogram::new();
                    for t in &threads {
                        merged.merge(&t.stats().recovery_ns.borrow());
                    }
                    snaps.borrow_mut().push(merged);
                }
            });
        }

        // Dispatcher: the open-loop arrival source plus admission
        // decisions; closes the queue when the schedule ends so the
        // workers drain and exit on their own.
        let controller = spec0.admission.as_ref().map(AdmissionController::new);
        {
            let mut engine = ArrivalEngine::new(
                spec0.seed,
                spec0.plan.clone(),
                spec0.clients as u64,
                spec0.accounts,
                spec0.theta,
                spec0.probe_pct,
            );
            let queue = pool.queue().clone();
            let accum = Rc::clone(&accum);
            let handle = h.clone();
            h.spawn(async move {
                let start = handle.now();
                while let Some(a) = engine.next_arrival() {
                    handle.sleep_until(start + a.at).await;
                    let decision = match &controller {
                        Some(c) => c.admit(handle.now(), queue.len()),
                        None => Ok(()),
                    };
                    let mut phases = accum.phases.borrow_mut();
                    let ph = &mut phases[a.phase];
                    ph.offered += 1;
                    match decision {
                        Ok(()) => {
                            let req = Request {
                                at: a.at,
                                client: a.client,
                                phase: a.phase,
                                op: a.op,
                            };
                            match queue.try_push(req) {
                                Ok(()) => {
                                    ph.admitted += 1;
                                    drop(phases);
                                    let mut d = accum.digest.get();
                                    d = digest_fold(d, a.at.as_nanos() as u64);
                                    d = digest_fold(d, a.client);
                                    d = digest_fold(d, op_word(&a.op));
                                    accum.digest.set(d);
                                }
                                Err(_) => ph.shed_queue += 1,
                            }
                        }
                        Err(why) => {
                            match why {
                                Rejected::Throttled => ph.shed_throttled += 1,
                                Rejected::QueueFull => ph.shed_queue += 1,
                            }
                            drop(phases);
                            handle.with_tracer(|sink| {
                                sink.instant(
                                    handle.now().as_nanos(),
                                    Actor::SYSTEM,
                                    Category::Serve,
                                    "shed",
                                    Args::two("phase", a.phase as u64, "why", why as u64),
                                );
                            });
                        }
                    }
                }
                queue.close();
            });
        }

        // Watcher: the decomposed stand-in for the inline engine's
        // `run_for` + drain-slice schedule. It waits out the plan, polls
        // the drain budget in 1 ms slices, then quiesces the controller
        // coroutines so the engine can run to quiescence — in-flight
        // recoveries finish on their own.
        let stranded = Rc::new(Cell::new(0usize));
        {
            let hh = h.clone();
            let workers = Rc::clone(&workers);
            let stranded = Rc::clone(&stranded);
            let sctx = Rc::clone(&sctx);
            let total = spec0.plan.total();
            let drain = spec0.drain;
            h.spawn(async move {
                let start = hh.now();
                hh.sleep_until(start + total).await;
                let slice = Duration::from_millis(1);
                let mut drained = Duration::ZERO;
                while workers.iter().any(|w| !w.is_finished()) && drained < drain {
                    hh.sleep(slice).await;
                    drained += slice;
                }
                stranded.set(workers.iter().filter(|w| !w.is_finished()).count());
                sctx.quiesce_controllers();
            });
        }

        Box::new(move |_: &DomainCtx| {
            // Audits. Domain 0 sums only the blades it owns: every other
            // blade's authoritative bytes live in its own domain, whose
            // finish artifact carries the sum.
            let mut conservation = Vec::new();
            if stranded.get() > 0 {
                conservation.push(format!(
                    "{} worker coroutine(s) still stranded after the {}ms drain budget",
                    stranded.get(),
                    spec0.drain.as_millis()
                ));
            }
            for t in &threads {
                conservation.extend(t.throttle().conservation_violations());
            }
            let mut local_sum: u64 = 0;
            for shard in 0..spec0.shards {
                for (bi, blade) in cluster.blades().iter().enumerate() {
                    if plan0.blade_domain(BladeId(bi as u32)) != DomainId(0) {
                        continue;
                    }
                    for cell in 0..slabs.cells_per_shard {
                        local_sum = local_sum
                            .wrapping_add(blade.read_u64(slabs.bases[shard][bi] + cell * 8));
                    }
                }
            }
            let expected = spec0
                .accounts
                .wrapping_mul(spec0.initial_balance)
                .wrapping_add(accum.ledger.get());

            // Per-phase recovery CDFs from the clerk's boundary snapshots.
            let mut whole_recovery = LogHistogram::new();
            for t in &threads {
                whole_recovery.merge(&t.stats().recovery_ns.borrow());
            }
            {
                let snaps = snaps.borrow();
                let mut phases = accum.phases.borrow_mut();
                let empty = LogHistogram::new();
                for (i, ph) in phases.iter_mut().enumerate() {
                    let at_end = snaps.get(i);
                    let at_start = if i == 0 {
                        Some(&empty)
                    } else {
                        snaps.get(i - 1)
                    };
                    if let (Some(end), Some(start)) = (at_end, at_start) {
                        ph.recovery = end.diff(start);
                    }
                }
                if let (Some(last_snap), Some(last_phase)) = (snaps.last(), phases.last_mut()) {
                    let tail = whole_recovery.diff(last_snap);
                    if tail.count() > 0 {
                        last_phase.recovery.merge(&tail);
                    }
                }
            }

            let (mut seen, mut recovered) = (0u64, 0u64);
            for t in &threads {
                seen += t.stats().faults_seen.get();
                recovered += t.stats().faults_recovered.get();
            }

            let phases = accum.phases.borrow().to_vec();
            let report = ServeReport {
                seed: spec0.seed,
                clients: spec0.clients as u64,
                distinct_served: pool.distinct_served(),
                max_session_ops: pool.max_session_ops(),
                workers: (spec0.threads, spec0.depth),
                admission_desc: describe_admission(&spec0.admission),
                membership_windows: spec0.membership.events().len(),
                final_epoch: router.epoch(),
                queue_high_water: pool.queue().high_water(),
                phases,
                ops_digest: accum.digest.get(),
                faults_injected: injector.stats().total_injected(),
                faults_seen: seen,
                faults_recovered: recovered,
                recovery: whole_recovery,
                conservation,
                sim_events: 0, // filled by the runner from the engine report
            };
            let artifact = format!(
                "digest={:016x} served={} epoch={}",
                report.ops_digest, report.distinct_served, report.final_epoch
            )
            .into_bytes();
            *out0.borrow_mut() = Some((
                report,
                sink.map(|s| s.chrome_json()),
                cluster.cross_domain_wrs(),
                local_sum,
                expected,
            ));
            artifact
        })
    });

    for d in 1..plan.domains() {
        let ends = std::mem::take(&mut blade_ends[d as usize]);
        let owned: Vec<usize> = ends.iter().map(|(i, _, _)| *i).collect();
        let (cfg1, plan1) = (cfg.clone(), plan.clone());
        let (nblades, shards, accounts, initial) = (
            spec.blades,
            spec.shards,
            spec.accounts,
            spec.initial_balance,
        );
        let sub = spec
            .membership
            .fault_plan()
            .merge(&spec.chaos)
            .lower_onto(plan)[d as usize]
            .1
            .clone();
        b.add_domain(&format!("blades-{owned:?}"), move |ctx: &DomainCtx| {
            let h = ctx.handle();
            let cluster = Cluster::new_with_plan(h.clone(), cfg1, plan1);
            // Replicated deterministic bootstrap: the same slab carve and
            // balance seeding as domain 0, so this domain's own blades
            // hold authoritative cells and the rest are inert shadows.
            let router = ShardRouter::new(nblades, shards);
            let slabs = Slabs::carve(cluster.blades(), shards, accounts);
            for account in 0..accounts {
                let home = router.home(slabs.shard_of(account));
                cluster.blades()[home].write_u64(slabs.cell(account, home), initial);
            }
            if !sub.events().is_empty() {
                // Only the scheduled crash/restart timeline matters here
                // — nothing posts in this domain, so the hook's
                // probabilistic draws never fire (the driver task keeps
                // its own reference to the injector).
                let _ = FaultInjector::install(&cluster, sub);
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
                    let mut sum: u64 = 0;
                    for shard in 0..shards {
                        for cell in 0..slabs.cells_per_shard {
                            sum =
                                sum.wrapping_add(blade.read_u64(slabs.bases[shard][*i] + cell * 8));
                        }
                    }
                    s.push_str(&format!(
                        "blade{} sum={} served={} epoch={}\n",
                        i,
                        sum,
                        blade.ops_served(),
                        blade.epoch()
                    ));
                }
                s.into_bytes()
            })
        });
    }

    let engine = b.run(engine_workers);
    let (mut report, trace, cross_domain_wrs, local_sum, expected) =
        out.borrow_mut().take().expect("serve domain must finish");
    report.sim_events = engine.events();
    let blade_requests: u64 = engine.domains[1..].iter().map(|d| d.delivered).sum();
    let blade_log: String = engine.domains[1..]
        .iter()
        .map(|d| String::from_utf8_lossy(&d.artifact).into_owned())
        .collect();
    // Combine the split balance audit: domain 0's local sum plus every
    // blade domain's authoritative slab sums.
    let mut total = local_sum;
    for line in blade_log.lines() {
        if let Some(v) = line.split_whitespace().find_map(|w| w.strip_prefix("sum=")) {
            total = total.wrapping_add(v.parse::<u64>().expect("blade artifact sum"));
        }
    }
    if total != expected {
        report.conservation.push(format!(
            "balance ledger mismatch: blades hold {total}, ledger expects {expected}"
        ));
    }
    DecomposedServe {
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
    use crate::arrival::RatePlan;
    use crate::membership::MembershipPlan;

    fn small_spec() -> ServeSpec {
        let plan = RatePlan::new()
            .phase("ramp", Duration::from_millis(2), 0.0, 60_000.0)
            .phase("peak", Duration::from_millis(2), 120_000.0, 120_000.0);
        let mut spec = ServeSpec::new(11, 400, plan);
        spec.threads = 2;
        spec.depth = 4;
        spec.blades = 3;
        spec.shards = 6;
        spec.accounts = 256;
        spec.drain = Duration::from_millis(20);
        spec
    }

    #[test]
    fn decomposed_serve_is_worker_invariant_and_conserves_balances() {
        let spec = small_spec();
        let plan = DomainPlan::per_blade(1, spec.blades as u32);
        let seq = run_serve_decomposed(&spec, &plan, 1, false);
        let par = run_serve_decomposed(&spec, &plan, 3, false);
        assert_eq!(format!("{:?}", seq.report), format!("{:?}", par.report));
        assert_eq!(seq.blade_log, par.blade_log);
        assert_eq!(seq.epochs, par.epochs);
        assert_eq!(seq.envelopes, par.envelopes);
        let completed: u64 = seq.report.phases.iter().map(|p| p.completed).sum();
        assert!(completed > 0, "no requests completed through blade domains");
        assert!(
            seq.report.conservation.is_empty(),
            "audit failures: {:?}",
            seq.report.conservation
        );
        assert_eq!(seq.envelopes, 2 * seq.blade_requests);
    }

    #[test]
    fn decomposed_serve_survives_membership_churn() {
        let mut spec = small_spec();
        spec.membership =
            MembershipPlan::new().leave_at(Duration::from_millis(1), 1, Duration::from_millis(1));
        let plan = DomainPlan::for_workers(2, 1, spec.blades as u32);
        let seq = run_serve_decomposed(&spec, &plan, 1, false);
        let par = run_serve_decomposed(&spec, &plan, 2, false);
        assert_eq!(format!("{:?}", seq.report), format!("{:?}", par.report));
        assert!(
            seq.report.faults_injected > 0,
            "membership crash not lowered"
        );
        assert_eq!(
            seq.report.final_epoch, 2,
            "leave + join flips the epoch twice"
        );
    }
}
