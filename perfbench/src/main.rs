//! Host-time benchmark of the SMART simulator.
//!
//! ```text
//! perfbench --workload <ht_write|verbs_read|serve_decomposed> --seed <n>
//!           --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! With `--trace 0` it times runner calls of the workload for about
//! `--seconds` seconds, tracing off, and reports the end-to-end metrics
//! (`wall_s`, `setup_s`, `cpu_s`, `peak_rss_mb`); the three times are
//! scaled to a nominal host speed that a reference kernel measures
//! between the calls. With `--trace 1` it
//! makes one untraced and one traced runner call, runs the layer
//! microbenchmarks, and reports the per-layer metrics. Every runner call's
//! output is checked; the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the exit code is
//! nonzero when a check failed.

mod host;
mod micro;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::Spans;
use workloads::{Call, Metric, Workload};

/// Set-ups timed before each runner call: at least this many, and more
/// until [`SETUP_TIME_PER_CALL`] has gone. `setup_s` is the median of
/// all of them.
const SETUP_REPS_PER_CALL: usize = 3;
/// Host time of set-ups before each runner call. A set-up of tens of
/// microseconds is then sampled hundreds of times per call, so its median
/// is steady; a set-up of milliseconds still gets its minimum reps.
const SETUP_TIME_PER_CALL: Duration = Duration::from_millis(10);

/// Every per-layer metric with its unit, in report order. A metric that
/// does not apply to a workload (a PDES counter on a single-domain
/// workload, a latency the runner does not report) reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("rt.events", "count"),
    ("rt.events_per_op", "count"),
    ("rt.polls", "count"),
    ("rt.wakes", "count"),
    ("rt.timers_fired", "count"),
    ("rt.timers_cancelled", "count"),
    ("rt.tasks_spawned", "count"),
    ("rt.ns_per_event", "ns"),
    ("rt.spawn_ns", "ns"),
    ("rt.poll_wake_ns", "ns"),
    ("rt.timer_ns", "ns"),
    ("rt.detmap_ns", "ns"),
    ("rt.pdes.epochs", "count"),
    ("rt.pdes.envelopes", "count"),
    ("rt.pdes.events_per_epoch", "count"),
    ("rt.pdes.cross_domain_wrs", "count"),
    ("rt.pdes.overhead_vs_single", "ratio"),
    ("rt.pdes.epoch_roundtrip_ns", "ns"),
    ("rt.pdes.envelope_ns", "ns"),
    ("rnic.wqe_hit_ratio", "ratio"),
    ("rnic.mtt_hit_ratio", "ratio"),
    ("rnic.dram_bytes_per_op", "B"),
    ("rnic.wr_post_to_cqe_ns", "ns"),
    ("rnic.lru_touch_ns", "ns"),
    ("rnic.dblock_share", "ratio"),
    ("rnic.pipeline_share", "ratio"),
    ("rnic.fabric_share", "ratio"),
    ("core.cas_retries_per_op", "count"),
    ("core.cas_success_ratio", "ratio"),
    ("core.backoff_share", "ratio"),
    ("core.credit_share", "ratio"),
    ("race.lookup_warm_ns", "ns"),
    ("serve.offered", "count"),
    ("serve.admitted", "count"),
    ("serve.completed", "count"),
    ("serve.shed_share", "ratio"),
    ("serve.queue_high_water", "count"),
    ("serve.steady_p99_us", "sim_us"),
    ("fault.injected", "count"),
    ("fault.recovered", "count"),
    ("fault.recovery_p99_us", "sim_us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.masked_probe_ns", "ns"),
    ("workloads.zipf_next_ns", "ns"),
    ("workloads.ycsb_next_ns", "ns"),
    ("model.mops", "Mops"),
    ("model.p50_us", "sim_us"),
    ("model.p99_us", "sim_us"),
    ("model.digest", "hash"),
    ("failed_share", "ratio"),
    ("self.rt_share", "ratio"),
    ("self.pdes_share", "ratio"),
    ("self.unexplained_share", "ratio"),
    ("host.reference_ns", "ns"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10;
    let mut trace = false;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        spans,
    })
}

/// Everything one invocation measured and checked.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// Folds one runner call into the totals and prints its counters.
    fn add_call(&mut self, label: &str, c: &Call) {
        self.attempted += c.attempted;
        self.failed += c.failed;
        self.problems
            .extend(c.problems.iter().map(|p| format!("{label}: {p}")));
        let mut line = format!(
            "{label}: wall {:.4} s cpu {:.2} s digest {:016x}",
            c.wall.as_secs_f64(),
            c.cpu.as_secs_f64(),
            c.digest
        );
        for (name, value, unit) in &c.exact {
            let _ = write!(line, " {name}={value} {unit}");
        }
        println!("{line}");
    }

    /// Records a problem unless `calls` all carry one digest.
    fn same_digest(&mut self, calls: &[&Call]) {
        if let Some(first) = calls.first() {
            if calls.iter().any(|c| c.digest != first.digest) {
                let all: Vec<String> = calls.iter().map(|c| format!("{:016x}", c.digest)).collect();
                self.problems.push(format!(
                    "model.digest differs between calls: {}",
                    all.join(" ")
                ));
            }
        }
    }

    /// Share of attempted operations that failed. Once any check has
    /// failed, every operation of the invocation counts as failed.
    fn failed_share(&mut self) -> f64 {
        if !self.problems.is_empty() {
            self.failed = self.attempted.max(1);
        }
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The untraced timed run: runner calls until about `seconds` of host
/// time has gone, never fewer than one. Set-ups are timed before each
/// call, so a burst of host noise reaches only a few of them.
///
/// A block of the reference kernel runs before the first call and after
/// every call, for at least a twentieth of the call it follows: a long
/// call gets a longer look at the host speed around it. Each call, and
/// the set-ups before it, is scaled by
/// [`host::REF_NOMINAL_NS`] over the median reference speed of the blocks
/// on either side of it. A shared host can run up to 2x slower for
/// minutes at a time as other tenants come and go; the scaled times leave
/// that out and keep what the simulator itself costs.
///
/// `wall_s` and `cpu_s` are means over the scaled calls: what is left
/// after scaling scatters evenly about the simulator's own cost, so all
/// calls count, and CPU time is read in 10 ms ticks, too coarse to take
/// per call. `setup_s` is the median of the scaled set-ups, which
/// number in the hundreds or thousands.
fn timed_run(args: &Args, out: &mut Outcome) {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut before = host::reference_block(Duration::ZERO);
    let mut rounds: Vec<f64> = Vec::new();
    let mut raw_walls: Vec<f64> = Vec::new();
    let mut wall = 0.0;
    let mut cpu = 0.0;
    let mut setups: Vec<f64> = Vec::new();
    let mut references: Vec<f64> = Vec::new();
    let mut calls: Vec<Call> = Vec::new();
    loop {
        let round_start = Instant::now();
        let mut raw_setups = Vec::new();
        while raw_setups.len() < SETUP_REPS_PER_CALL || round_start.elapsed() < SETUP_TIME_PER_CALL
        {
            raw_setups.push(workloads::setup_once(w, args.seed).as_secs_f64());
        }
        let c = workloads::call(w, args.seed, false);
        let after = host::reference_block(c.wall / 20);
        let reference = host::median(&[before.as_slice(), after.as_slice()].concat());
        let scale = host::REF_NOMINAL_NS / reference;
        let label = format!("call {}", calls.len());
        out.add_call(&label, &c);
        println!("{label}: reference {reference:.2} ns/iteration, scale {scale:.4}");
        raw_walls.push(c.wall.as_secs_f64());
        wall += c.wall.as_secs_f64() * scale;
        cpu += c.cpu.as_secs_f64() * scale;
        setups.extend(raw_setups.iter().map(|t| t * scale));
        references.push(reference);
        calls.push(c);
        before = after;
        rounds.push(round_start.elapsed().as_secs_f64());
        let next = Duration::from_secs_f64(host::median(&rounds));
        if start.elapsed() + next > budget {
            break;
        }
    }
    out.same_digest(&calls.iter().collect::<Vec<_>>());
    println!(
        "{} setups; scaled median {:.3} ms, min {:.3} ms, max {:.3} ms",
        setups.len(),
        host::median(&setups) * 1e3,
        setups.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
        setups.iter().copied().fold(0.0, f64::max) * 1e3
    );
    println!(
        "{} calls; unscaled wall median {:.4} s; reference median {:.2} ns/iteration",
        calls.len(),
        host::median(&raw_walls),
        host::median(&references)
    );
    println!("failed_share {} ratio", out.failed_share());
    out.metrics = vec![
        ("wall_s", wall / calls.len() as f64, "s"),
        ("setup_s", host::median(&setups), "s"),
        ("cpu_s", cpu / calls.len() as f64, "s"),
        ("peak_rss_mb", host::peak_rss_mib(), "MiB"),
    ];
}

/// The traced run: an untraced and a traced runner call, the classic
/// single-domain serve call for the PDES overhead, and the layer
/// microbenchmarks.
fn traced_run(args: &Args, spans: &mut Spans, out: &mut Outcome) {
    let w = args.workload;
    let id = spans.enter("setup");
    workloads::setup_once(w, args.seed);
    spans.exit(id);
    let id = spans.enter("runner");
    let plain = workloads::call(w, args.seed, false);
    spans.exit(id);
    let id = spans.enter("runner/traced");
    let traced = workloads::call(w, args.seed, true);
    spans.exit(id);
    out.add_call("untraced", &plain);
    out.add_call("traced", &traced);
    out.same_digest(&[&plain, &traced]);

    let wall = plain.wall.as_secs_f64();
    let mut m: Vec<Metric> = plain.exact.clone();
    m.push((
        "rt.ns_per_event",
        wall * 1e9 / plain.get("rt.events").max(1.0),
        "ns",
    ));
    m.push((
        "trace.overhead_ratio",
        traced.wall.as_secs_f64() / wall,
        "ratio",
    ));
    if w == Workload::ServeDecomposed {
        let id = spans.enter("runner/classic_serve");
        let classic = workloads::classic_serve_wall(args.seed);
        spans.exit(id);
        m.push((
            "rt.pdes.overhead_vs_single",
            wall / classic.as_secs_f64(),
            "ratio",
        ));
    }
    if let Some(s) = traced.shares {
        m.push(("rnic.dblock_share", s.dblock, "ratio"));
        m.push(("rnic.pipeline_share", s.pipeline, "ratio"));
        m.push(("rnic.fabric_share", s.fabric, "ratio"));
        m.push(("core.backoff_share", s.backoff, "ratio"));
        m.push(("core.credit_share", s.credit, "ratio"));
    }
    m.push(("model.digest", (plain.digest >> 12) as f64, "hash"));

    let id = spans.enter("reference");
    let reference = host::median(&host::reference_block(Duration::ZERO));
    spans.exit(id);
    m.push(("host.reference_ns", reference, "ns"));

    let micros = micro::run_all(spans);
    let ns = |name: &str| micros.iter().find(|x| x.name == name).map_or(0.0, |x| x.ns);
    m.extend(micros.iter().map(|x| (x.name, x.ns, "ns")));

    // Estimated host self-time per layer: exact call count x the layer's
    // microbenchmark ns/call, as a share of the untraced wall time.
    let events = plain.get("rt.events");
    let timers = plain.get("rt.timers_fired");
    let rt_ns = (events - timers) * ns("rt.poll_wake_ns")
        + timers * ns("rt.timer_ns")
        + plain.get("rt.tasks_spawned") * ns("rt.spawn_ns");
    let pdes_ns = plain.get("rt.pdes.epochs") * ns("rt.pdes.epoch_roundtrip_ns")
        + plain.get("rt.pdes.envelopes") * ns("rt.pdes.envelope_ns");
    let rt_share = rt_ns / (wall * 1e9);
    let pdes_share = pdes_ns / (wall * 1e9);
    m.push(("self.rt_share", rt_share, "ratio"));
    m.push(("self.pdes_share", pdes_share, "ratio"));
    m.push((
        "self.unexplained_share",
        1.0 - rt_share - pdes_share,
        "ratio",
    ));
    m.push(("failed_share", out.failed_share(), "ratio"));

    // Every listed metric, in list order; inapplicable ones read 0.
    out.metrics = PER_LAYER
        .iter()
        .map(
            |&(name, unit)| match m.iter().find(|(n, _, _)| *n == name) {
                Some(&(_, value, u)) => {
                    assert_eq!(u, unit, "unit of {name}");
                    (name, value, unit)
                }
                None => (name, 0.0, unit),
            },
        )
        .collect();
    for (name, _, _) in &m {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "{name} is missing from PER_LAYER"
        );
    }
}

/// A JSON number: finite values as Rust prints them (every digit), and 0
/// for the non-finite values JSON cannot carry.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("host: {}", host::fingerprint());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut spans = Spans::new(args.trace);
    let mut out = Outcome::default();
    let root = spans.enter(format!("workload/{}", args.workload.name()));
    if args.trace {
        traced_run(&args, &mut spans, &mut out);
    } else {
        timed_run(&args, &mut out);
    }
    spans.exit(root);
    if args.trace {
        for (name, ns) in spans.self_times() {
            println!("span self-time {name}: {:.6} s", ns as f64 / 1e9);
        }
        if let Some(path) = &args.spans {
            if let Err(e) = std::fs::write(path, spans.to_json()) {
                eprintln!("perfbench: writing spans to {path}: {e}");
            }
        }
    }
    for p in &out.problems {
        println!("check failed: {p}");
    }
    println!("{}", result_json(&out));
    if out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
