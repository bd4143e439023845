//! Scheduler-equivalence gate: the executor's timer queue is an
//! implementation detail, and replacing it must not move a single event.
//! A mixed workload — a fig03-style microbench under both `SchedulePolicy`
//! variants, plus a chaos-plan hash-table run through the full recovery
//! stack — is replayed against golden files captured from the original
//! `BinaryHeap` scheduler. The Perfetto JSON export (every event, with
//! nanosecond timestamps, in emission order) and the report fingerprints
//! must match byte-for-byte.
//!
//! Regenerate after an *intentional* semantic change with:
//! `SMART_UPDATE_GOLDENS=1 cargo test -q --test scheduler_equiv`
//! and review the golden diff like any other code change.
//!
//! The second half of this file is the **decomposed-plan matrix**
//! gating the blade engine domains: fig07 and fig_serve run under
//! `per_blade` and `for_workers` partitions, and an 8-seed chaos sweep
//! under `per_blade`, each at 1/2/4/8 engine workers. Every leg — report
//! bytes, blade-domain artifacts, epoch/envelope counters and trace JSON
//! — must reproduce the 1-worker reference exactly. The reference
//! fingerprints are published under `target/equiv/` for the CI `pdes`
//! job to upload.

use std::cell::Cell;
use std::path::PathBuf;

use smart_bench::{run_ht, run_ht_decomposed, serve_spec, HtParams, RunReport};
use smart_lab::smart::{run_microbench, MicroOp, MicrobenchSpec, QpPolicy, SmartConfig};
use smart_lab::smart_fault::FaultPlan;
use smart_lab::smart_rnic::DomainPlan;
use smart_lab::smart_rt::{Duration, SchedulePolicy};
use smart_lab::smart_serve::run_serve_decomposed;
use smart_lab::smart_trace::TraceSink;
use smart_lab::smart_workloads::ycsb::Mix;

/// Ring capacity for the golden traces: small enough to keep the checked
/// in files reviewable, large enough that the tail window spans many
/// timer fires, wakes and op completions.
const TRACE_EVENTS: usize = 1024;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

/// Compares `got` against the committed golden, or rewrites the golden
/// when `SMART_UPDATE_GOLDENS=1` is set.
fn assert_golden(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var("SMART_UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}; regenerate with SMART_UPDATE_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{name} diverged from the heap-scheduler golden; if the schedule \
         change is intentional, regenerate with SMART_UPDATE_GOLDENS=1 \
         and review the diff"
    );
}

/// One fig03-style microbench point (thread-aware doorbell QPs, depth 8)
/// with a tracer installed, under the given tie-break policy.
fn fig03_run(schedule: SchedulePolicy) -> (String, String) {
    let sink = TraceSink::with_capacity(TRACE_EVENTS);
    let mut spec = MicrobenchSpec::new(
        SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, 4),
        4,
        8,
    );
    spec.op = MicroOp::Read(8);
    spec.warmup = Duration::from_micros(300);
    spec.measure = Duration::from_millis(1);
    spec.seed = 42;
    spec.trace = Some(sink.clone());
    spec.schedule = schedule;
    let report = run_microbench(&spec);
    (format!("{report:?}\n"), sink.chrome_json())
}

/// A chaos-plan hash-table run: a QP error mid-batch and a blade crash
/// mid-window, recovered through the full retry/re-establish stack, with
/// the tracer on. This exercises `with_timeout` (and therefore cancelled
/// sleeps) on the recovery path.
fn fault_run() -> (String, String) {
    let sink = TraceSink::with_capacity(TRACE_EVENTS);
    let plan = FaultPlan::new()
        .qp_error_at(Duration::from_micros(400), 0, None)
        .blade_crash_at(Duration::from_micros(1_200), 0, Duration::from_micros(100));
    let mut p = HtParams::new(SmartConfig::smart_full(4), 4, 2_000, Mix::UpdateOnly);
    p.warmup = Duration::from_millis(1);
    p.measure = Duration::from_millis(2);
    p.seed = 1907;
    p.trace = Some(sink.clone());
    p.fault = Some(plan);
    let report = run_ht(&p);
    (report_fingerprint(&report), sink.chrome_json())
}

/// Renders every behavioural field of a [`RunReport`]. `sim_events` is
/// deliberately excluded: it counts executor bookkeeping (polls + timer
/// fires), and purging cancelled timers legitimately changes it without
/// changing any simulated outcome.
fn report_fingerprint(r: &RunReport) -> String {
    let RunReport {
        ops,
        mops,
        median,
        p99,
        avg_retries,
        retry_hist,
        abort_rate,
        faults_injected,
        faults_seen,
        faults_recovered,
        recovery_p50,
        recovery_p99,
        recovery_hist: _,
        conservation,
        sim_events: _,
    } = r;
    format!(
        "ops={ops}\nmops={mops:?}\nmedian={median:?}\np99={p99:?}\n\
         avg_retries={avg_retries:?}\nretry_hist={retry_hist:?}\n\
         abort_rate={abort_rate:?}\nfaults_injected={faults_injected}\n\
         faults_seen={faults_seen}\nfaults_recovered={faults_recovered}\n\
         recovery_p50={recovery_p50:?}\nrecovery_p99={recovery_p99:?}\n\
         conservation={conservation:?}\n"
    )
}

#[test]
fn fig03_fifo_matches_heap_scheduler_golden() {
    let (report, trace) = fig03_run(SchedulePolicy::Fifo);
    assert!(trace.len() > 1_000, "trace export is implausibly small");
    assert_golden("scheduler_equiv_fig03_fifo.report.txt", &report);
    assert_golden("scheduler_equiv_fig03_fifo.trace.json", &trace);
}

#[test]
fn fig03_seeded_salts_match_heap_scheduler_goldens() {
    for salt in [1u64, 2] {
        let (report, trace) = fig03_run(SchedulePolicy::SeededTieBreak(salt));
        assert_golden(
            &format!("scheduler_equiv_fig03_salt{salt}.report.txt"),
            &report,
        );
        assert_golden(
            &format!("scheduler_equiv_fig03_salt{salt}.trace.json"),
            &trace,
        );
    }
}

#[test]
fn fault_plan_run_matches_heap_scheduler_golden() {
    let (report, trace) = fault_run();
    assert!(
        !report.contains("faults_recovered=0\n"),
        "the chaos plan must actually exercise the recovery path:\n{report}"
    );
    assert_golden("scheduler_equiv_fault.report.txt", &report);
    assert_golden("scheduler_equiv_fault.trace.json", &trace);
}

// ---------------------------------------------------------------------------
// Decomposed-plan differential matrix (blades as real engine domains)
// ---------------------------------------------------------------------------

/// Engine worker counts every decomposed cell runs at. A decomposed cell
/// fixes its [`DomainPlan`] up front, so every count here executes the
/// identical partition and the bytes must not move at all.
///
/// A single-*core* host is deliberately **not** a skip: byte identity
/// must hold under any time-slicing the kernel picks, so running the
/// matrix on one core tests exactly the claim we care about.
const ENGINE_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Writes the reference fingerprint under `target/equiv/` so the CI
/// `pdes` job can upload the whole matrix as a build artifact.
fn publish_fingerprint(name: &str, fp: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/equiv");
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(name), fp);
    }
}

/// Runs one decomposed cell at every engine worker count and asserts the
/// full fingerprint (report bytes, blade artifacts, engine counters and
/// trace JSON) is byte-identical to the 1-worker reference.
fn assert_decomposed_equivalent<F>(label: &str, run: F)
where
    F: Fn(usize) -> String,
{
    let ref_fp = run(ENGINE_WORKERS[0]);
    assert!(
        !ref_fp.is_empty(),
        "{label}: sequential leg produced an empty fingerprint"
    );
    publish_fingerprint(&format!("{label}.fp.txt"), &ref_fp);
    for &workers in &ENGINE_WORKERS[1..] {
        let fp = run(workers);
        assert_eq!(
            fp, ref_fp,
            "{label}: decomposed bytes diverged between 1 and {workers} engine workers"
        );
    }
}

#[test]
fn matrix_fig07_decomposed_plans_are_byte_identical_across_engine_workers() {
    let mut p = HtParams::new(SmartConfig::smart_full(4), 4, 2_000, Mix::WriteHeavy);
    p.warmup = Duration::from_micros(500);
    p.measure = Duration::from_millis(1);
    p.seed = 42;
    let blades = p.blades as u32;
    for (pname, plan) in [
        ("per_blade", DomainPlan::per_blade(1, blades)),
        ("for_workers4", DomainPlan::for_workers(4, 1, blades)),
    ] {
        let p = p.clone();
        assert_decomposed_equivalent(&format!("fig07_decomposed_{pname}"), move |workers| {
            let d = run_ht_decomposed(&p, &plan, workers, true);
            format!(
                "{}blade_log:\n{}epochs={} envelopes={} blade_requests={}\ntrace:\n{}\n",
                report_fingerprint(&d.report),
                d.blade_log,
                d.epochs,
                d.envelopes,
                d.blade_requests,
                d.trace.as_deref().unwrap_or("")
            )
        });
    }
}

#[test]
fn matrix_serve_decomposed_plans_are_byte_identical_across_engine_workers() {
    let mut spec = serve_spec(800, 0.05, 42);
    spec.threads = 2;
    spec.depth = 4;
    let blades = spec.blades as u32;
    for (pname, plan) in [
        ("per_blade", DomainPlan::per_blade(1, blades)),
        ("for_workers4", DomainPlan::for_workers(4, 1, blades)),
    ] {
        let spec = spec.clone();
        assert_decomposed_equivalent(&format!("fig_serve_decomposed_{pname}"), move |workers| {
            let d = run_serve_decomposed(&spec, &plan, workers, true);
            format!(
                "{}\n{:?}\nblade_log:\n{}epochs={} envelopes={}\ntrace:\n{}\n",
                d.report.render(),
                d.report,
                d.blade_log,
                d.epochs,
                d.envelopes,
                d.trace.as_deref().unwrap_or("")
            )
        });
    }
}

#[test]
fn decomposed_envelope_accounting_matches_cross_domain_wrs() {
    // Fault-free runs in the two pinned bench shapes: every work request
    // that crosses the partition becomes exactly one request envelope at
    // its blade domain (plus one completion envelope back), and the
    // node-side crossing counter agrees with the engine's delivery count.
    for (label, cfg) in [
        (
            "fig03",
            SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, 2),
        ),
        ("fig07", SmartConfig::smart_full(2)),
    ] {
        let mut p = HtParams::new(cfg, 2, 500, Mix::ReadHeavy);
        p.warmup = Duration::from_micros(300);
        p.measure = Duration::from_millis(1);
        p.seed = 7;
        let plan = DomainPlan::per_blade(1, p.blades as u32);
        let d = run_ht_decomposed(&p, &plan, 2, false);
        assert!(d.report.ops > 0, "{label}: no ops through blade domains");
        assert_eq!(
            d.cross_domain_wrs, d.blade_requests,
            "{label}: node crossing counter != request envelopes delivered"
        );
        assert_eq!(
            d.envelopes,
            2 * d.blade_requests,
            "{label}: request/completion envelope pairing broken"
        );
    }
}

#[test]
fn matrix_fault_seed_sweep_is_byte_identical_across_workers() {
    // Eight seeded chaos plans (random packet loss / RNR / latency
    // spikes / crash events) through the blade domains, each replayed at
    // every engine worker count. No trace here — eight full
    // recovery-path runs per leg is the cost budget; the other cells
    // already pin trace bytes. With two blades, `per_blade` and
    // `for_workers(4, ..)` are the same partition, so one plan suffices.
    let injected = Cell::new(0u64);
    assert_decomposed_equivalent("fault_sweep_decomposed_per_blade", |workers| {
        let mut fp = String::new();
        for seed in 0..8u64 {
            let plan = FaultPlan::random(seed, Duration::from_millis(1), 1, 2);
            let mut p = HtParams::new(SmartConfig::smart_full(4), 4, 1_000, Mix::UpdateOnly);
            p.warmup = Duration::from_micros(300);
            p.measure = Duration::from_millis(1);
            p.seed = 1907 + seed;
            p.fault = Some(plan);
            let d = run_ht_decomposed(
                &p,
                &DomainPlan::per_blade(1, p.blades as u32),
                workers,
                false,
            );
            assert!(
                d.report.conservation.is_empty(),
                "seed {seed} at {workers} engine workers broke conservation: {:?}",
                d.report.conservation
            );
            injected.set(injected.get() + d.report.faults_injected);
            fp.push_str(&format!(
                "seed={seed}\n{}blade_log:\n{}epochs={} envelopes={}\n",
                report_fingerprint(&d.report),
                d.blade_log,
                d.epochs,
                d.envelopes
            ));
        }
        fp
    });
    assert!(injected.get() > 0, "the sweep must actually inject faults");
}
