//! Layer microbenchmarks: host nanoseconds per call of one layer's public
//! function, timed in isolation.
//!
//! Each benchmark is a closure that does one batch of calls and returns
//! how many calls it made. The batch is repeated to fill a fixed host-time
//! budget; the reported figure is the median ns/call over a few such
//! fills, so one descheduling does not move it.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration as HostDuration, Instant};

use smart::{QpPolicy, SmartConfig, SmartContext};
use smart_race::{RaceConfig, RaceHashTable};
use smart_rnic::lru::LruCache;
use smart_rnic::{BladeConfig, BladeId, Cluster, ClusterConfig, DomainPlan, RemoteAddr};
use smart_rt::detmap::DetMap;
use smart_rt::pdes::{DomainCtx, DomainFinish, PdesBuilder};
use smart_rt::rng::SimRng;
use smart_rt::{Duration, Simulation};
use smart_trace::{Actor, SyncOp, TraceSink};
use smart_workloads::ycsb::{Mix, YcsbGenerator};
use smart_workloads::zipf::Zipfian;

use crate::host::median;
use crate::spans::Spans;

/// Host time one fill of a microbenchmark takes.
const FILL: HostDuration = HostDuration::from_millis(40);
/// Fills per microbenchmark; the median is reported.
const FILLS: usize = 3;

/// Times `batch` (which returns the calls it made) over [`FILLS`] fills of
/// [`FILL`] host time each and returns the median ns/call.
fn ns_per_call(mut batch: impl FnMut() -> u64) -> f64 {
    // One untimed batch lets lazy set-up and caches settle.
    black_box(batch());
    let mut per_fill = Vec::with_capacity(FILLS);
    for _ in 0..FILLS {
        let start = Instant::now();
        let mut calls = 0u64;
        while start.elapsed() < FILL {
            calls += batch();
        }
        per_fill.push(start.elapsed().as_nanos() as f64 / calls.max(1) as f64);
    }
    median(&per_fill)
}

/// A named microbenchmark returning ns/call.
type Bench = (&'static str, fn() -> f64);

/// One microbenchmark result.
pub struct Micro {
    pub name: &'static str,
    pub ns: f64,
}

/// Runs every layer microbenchmark, each inside its own span.
pub fn run_all(spans: &mut Spans) -> Vec<Micro> {
    let benches: [Bench; 12] = [
        ("rt.spawn_ns", spawn),
        ("rt.poll_wake_ns", poll_wake),
        ("rt.timer_ns", timer),
        ("rt.detmap_ns", detmap),
        ("rt.pdes.epoch_roundtrip_ns", pdes_epoch_roundtrip),
        ("rt.pdes.envelope_ns", pdes_envelope),
        ("rnic.wr_post_to_cqe_ns", wr_post_to_cqe),
        ("rnic.lru_touch_ns", lru_touch),
        ("trace.masked_probe_ns", masked_probe),
        ("race.lookup_warm_ns", race_lookup_warm),
        ("workloads.zipf_next_ns", zipf_next),
        ("workloads.ycsb_next_ns", ycsb_next),
    ];
    let mut out = Vec::with_capacity(benches.len());
    for (name, bench) in benches {
        let id = spans.enter(format!("micro/{name}"));
        let ns = bench();
        spans.exit(id);
        out.push(Micro { name, ns });
    }
    out
}

/// Executor spawn: a task that completes on its first poll.
fn spawn() -> f64 {
    const TASKS: u64 = 1_000;
    ns_per_call(|| {
        let mut sim = Simulation::new(1);
        for _ in 0..TASKS {
            sim.spawn(async {});
        }
        sim.run();
        TASKS
    })
}

/// Executor wake and re-poll: a task yielding to the scheduler.
fn poll_wake() -> f64 {
    const YIELDS: u64 = 10_000;
    let mut sim = Simulation::new(1);
    ns_per_call(|| {
        sim.block_on(async {
            for _ in 0..YIELDS {
                smart_rt::yield_now().await;
            }
        });
        YIELDS
    })
}

/// Timer wheel insert and fire: a task sleeping short, varied delays.
fn timer() -> f64 {
    const SLEEPS: u64 = 10_000;
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    ns_per_call(|| {
        let h = h.clone();
        sim.block_on(async move {
            for i in 0..SLEEPS {
                h.sleep(Duration::from_nanos(1 + i % 1_000)).await;
            }
        });
        SLEEPS
    })
}

/// `DetMap` insert, get and remove of scattered keys (three calls).
fn detmap() -> f64 {
    const KEYS: u64 = 1_000;
    let mut rng = SimRng::new(3);
    let keys: Vec<u64> = (0..KEYS).map(|_| rng.next_u64()).collect();
    let mut map: DetMap<u64> = DetMap::new();
    ns_per_call(|| {
        for &k in &keys {
            map.insert(k, k);
        }
        for &k in &keys {
            black_box(map.get(&k));
        }
        for &k in &keys {
            black_box(map.remove(&k));
        }
        3 * KEYS
    })
}

/// A two-domain engine run: `client` sends `burst` envelopes per round
/// and waits for as many replies, `rounds` times. Returns the engine's
/// epoch and envelope counts.
fn pdes_run(rounds: u64, burst: u64) -> (u64, u64) {
    let latency = Duration::from_nanos(1_000);
    let mut b = PdesBuilder::new(5);
    let (client, server) = (b.domain_id(0), b.domain_id(1));
    let (req_tx, req_rx) = b.channel::<u64>(client, server, latency);
    let (rep_tx, rep_rx) = b.channel::<u64>(server, client, latency);
    let done = |_: &DomainCtx| Vec::new();
    b.add_domain("client", move |ctx| {
        let (tx, rx) = (ctx.bind_tx(req_tx), ctx.bind_rx(rep_rx));
        ctx.handle().spawn(async move {
            for round in 0..rounds {
                for i in 0..burst {
                    tx.send(round * burst + i);
                }
                for _ in 0..burst {
                    black_box(rx.recv().await);
                }
            }
        });
        Box::new(done) as DomainFinish
    });
    b.add_domain("server", move |ctx| {
        let (rx, tx) = (ctx.bind_rx(req_rx), ctx.bind_tx(rep_tx));
        ctx.handle().spawn(async move {
            for _ in 0..rounds * burst {
                tx.send(rx.recv().await + 1);
            }
        });
        Box::new(done) as DomainFinish
    });
    let report = b.run(1);
    (report.epochs, report.envelopes)
}

/// One engine epoch of a two-domain ping-pong with one envelope in
/// flight: the barrier, horizon and merge cost per epoch.
fn pdes_epoch_roundtrip() -> f64 {
    ns_per_call(|| pdes_run(500, 1).0)
}

/// One envelope routed and merged, in bursts of 256 per epoch so the
/// per-epoch cost is spread thin.
fn pdes_envelope() -> f64 {
    ns_per_call(|| pdes_run(8, 256).1)
}

/// A one-thread, one-blade cluster with a SMART context, a small region
/// reserved for random reads.
fn one_thread_cluster(sim: &Simulation, region: u64) -> (Cluster, Rc<SmartContext>) {
    let cluster = Cluster::new_with_plan(
        sim.handle(),
        ClusterConfig {
            compute_nodes: 1,
            memory_blades: 1,
            blade: BladeConfig {
                region_bytes: region,
                ..Default::default()
            },
            ..Default::default()
        },
        DomainPlan::single(1, 1),
    );
    let ctx = SmartContext::new(
        cluster.compute(0),
        cluster.blades(),
        SmartConfig::baseline(QpPolicy::PerThreadQp, 1),
    );
    (cluster, ctx)
}

/// One uncontended 8-byte READ from post to completion.
fn wr_post_to_cqe() -> f64 {
    const WRS: u64 = 1_000;
    let mut sim = Simulation::new(7);
    let (cluster, ctx) = one_thread_cluster(&sim, 1 << 20);
    let base = cluster.blades()[0].alloc(64 * 1024, 8);
    let coro = Rc::new(ctx.create_thread().coroutine());
    let h = sim.handle();
    ns_per_call(|| {
        let (coro, h) = (Rc::clone(&coro), h.clone());
        sim.block_on(async move {
            for _ in 0..WRS {
                let offset = base + h.rand_below(8 * 1024) * 8;
                coro.read(RemoteAddr::new(BladeId(0), offset), 8);
                coro.post_send().await;
                black_box(coro.sync().await);
            }
        });
        WRS
    })
}

/// WQE-cache LRU touch of a resident key.
fn lru_touch() -> f64 {
    const CAPACITY: u64 = 1_024;
    let mut cache = LruCache::new(CAPACITY as usize);
    for k in 0..CAPACITY {
        cache.insert(k);
    }
    let mut rng = SimRng::new(4);
    ns_per_call(|| {
        for _ in 0..1_000 {
            black_box(cache.touch(&rng.next_u64_below(CAPACITY)));
        }
        1_000
    })
}

/// A synchronization probe on a sink whose default mask excludes it:
/// the cost every lock acquire pays while tracing is on.
fn masked_probe() -> f64 {
    let sink = TraceSink::with_capacity(1_024);
    let t = Cell::new(0u64);
    ns_per_call(|| {
        for i in 0..1_000 {
            t.set(t.get() + 1);
            sink.sync_probe(
                t.get(),
                Actor::thread(1),
                "probe",
                SyncOp::Acquire,
                black_box(i),
            );
        }
        1_000
    })
}

/// A RACE lookup of a loaded key after the table has been read once.
fn race_lookup_warm() -> f64 {
    const KEYS: u64 = 2_000;
    let mut sim = Simulation::new(9);
    let (cluster, ctx) = one_thread_cluster(&sim, 16 << 20);
    let table = RaceHashTable::create(
        cluster.blades(),
        RaceConfig {
            buckets_per_subtable: 1 << 10,
            initial_depth: 0,
            ..Default::default()
        },
    );
    for k in 0..KEYS {
        table.load(&k.to_le_bytes(), &k.to_be_bytes());
    }
    let coro = Rc::new(ctx.create_thread().coroutine());
    ns_per_call(|| {
        let (coro, table) = (Rc::clone(&coro), Rc::clone(&table));
        sim.block_on(async move {
            for k in 0..KEYS {
                let v = table.get(&coro, &k.to_le_bytes()).await;
                assert_eq!(v.as_deref(), Some(&k.to_be_bytes()[..]), "key {k}");
            }
        });
        KEYS
    })
}

/// Zipf(0.99) draw over the `ht_write` key space.
fn zipf_next() -> f64 {
    let mut z = Zipfian::new(20_000, 0.99);
    let mut rng = SimRng::new(2);
    ns_per_call(|| {
        for _ in 0..1_000 {
            black_box(z.next(&mut rng));
        }
        1_000
    })
}

/// YCSB write-heavy operation draw over the `ht_write` key space.
fn ycsb_next() -> f64 {
    let mut g = YcsbGenerator::new(20_000, 0.99, Mix::WriteHeavy, 42);
    ns_per_call(|| {
        for _ in 0..1_000 {
            black_box(g.next_op());
        }
        1_000
    })
}
