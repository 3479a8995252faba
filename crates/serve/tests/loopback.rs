//! End-to-end loopback acceptance for the simulation service.
//!
//! The load-bearing assertion is the **determinism guarantee** from
//! `DESIGN.md` §3b: for every `ProcModel::ALL` registry variant, a job
//! served over the wire returns `SimResult`/`Stats`/`SchedStats`
//! bit-identical to an in-process `CompiledSim::run_batch` of the same
//! program — and the server compiles each model exactly once, at bind
//! time (cache counters stay frozen while jobs run; a warm restart
//! loads every model from the cache).

use std::path::PathBuf;

use arm_isa::program::Program;
use processors::sim::{CompiledSim, ProcModel};
use rcpn::batch::BatchRunner;
use rcpn_bench::record::SweepRecord;
use rcpn_serve::client::{Admission, Client, ClientError};
use rcpn_serve::server::{ServeConfig, Server};
use workloads::Workload;

const MAX_CYCLES: u64 = 4_000_000_000;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcpn-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Binds a server, runs it on a background thread, and returns the
/// address plus the join handle (joined after `Client::shutdown`).
fn spawn_server(config: ServeConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(config).expect("server binds");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("server runs"));
    (addr, handle)
}

#[test]
fn served_results_bit_identical_to_run_batch_for_every_registry_model() {
    let dir = scratch_dir("loopback");
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).expect("client connects");

    // Cold cache: every registry model was compiled (a miss) at bind
    // time, none bypassed (default configs are serializable).
    let info = client.hello().expect("hello");
    let models: Vec<&str> = ProcModel::ALL.iter().map(|m| m.label()).collect();
    assert_eq!(info.models, models, "server warms the whole registry, in order");
    assert_eq!(
        (info.cache_hits, info.cache_misses, info.cache_bypasses),
        (0, ProcModel::ALL.len() as u64, 0),
        "cold bind compiles each registry model exactly once"
    );

    // Submit all models × all six kernels up front, collect later: the
    // inbox must pair streamed completions back up regardless of order.
    let workloads = Workload::suite(0.0);
    let mut jobs = Vec::new();
    for &model in &ProcModel::ALL {
        for (w, workload) in workloads.iter().enumerate() {
            let (job_id, admission) =
                client.submit(model.label(), &workload.program, MAX_CYCLES).expect("submit");
            assert_eq!(admission, Admission::Accepted, "queue capacity covers the suite");
            jobs.push((job_id, model, w));
        }
    }

    for (job_id, model, w) in jobs {
        let workload = &workloads[w];
        let served = client.collect(job_id).expect("collect");
        // The in-process gold run: same compiled model, same program,
        // through the run_batch seam the guarantee is anchored to.
        let local = CompiledSim::of(model)
            .run_batch(std::slice::from_ref(&workload.program), MAX_CYCLES, &BatchRunner::new(1))
            .remove(0);
        assert_eq!(
            served.result.exit,
            Some(workload.expected),
            "{}/{}",
            model.label(),
            workload.kernel
        );
        assert_eq!(served.result, local.result, "{}/{} result", model.label(), workload.kernel);
        assert_eq!(served.stats, local.stats, "{}/{} Stats", model.label(), workload.kernel);
        assert_eq!(served.sched, local.sched, "{}/{} SchedStats", model.label(), workload.kernel);
    }

    // Serving 18 jobs performed zero compilations: the warm-up counters
    // are frozen after bind.
    let after = client.hello().expect("hello after jobs");
    assert_eq!(
        (after.cache_hits, after.cache_misses, after.cache_bypasses),
        (0, ProcModel::ALL.len() as u64, 0),
        "jobs instantiate from warmed artifacts — 0 recompiles per job"
    );

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("server thread joins cleanly");

    // Warm restart over the same cache directory: every model reloads.
    let restarted =
        Server::bind(ServeConfig { cache_dir: Some(dir.clone()), ..ServeConfig::default() })
            .expect("warm rebind");
    assert_eq!(
        restarted.cache_counters(),
        (ProcModel::ALL.len() as u64, 0, 0),
        "warm restart hits the cache for every model, lowering no spec"
    );
    drop(restarted);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_admission_queue_answers_busy_not_buffering() {
    // workers: 0 makes backpressure deterministic — nothing drains the
    // queue, so exactly `queue_capacity` submissions are accepted.
    let (addr, handle) =
        spawn_server(ServeConfig { workers: 0, queue_capacity: 2, ..ServeConfig::default() });
    let mut client = Client::connect(addr).expect("client connects");
    let program = &Workload::suite(0.0)[0].program;

    let (_, first) = client.submit("strongarm", program, MAX_CYCLES).expect("submit 1");
    let (_, second) = client.submit("strongarm", program, MAX_CYCLES).expect("submit 2");
    let (_, third) = client.submit("strongarm", program, MAX_CYCLES).expect("submit 3");
    assert_eq!(first, Admission::Accepted);
    assert_eq!(second, Admission::Accepted);
    assert_eq!(third, Admission::Busy, "a full queue is a typed reply, not a buffer");

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("server drains queued-but-unrun jobs and exits");
}

#[test]
fn unknown_model_fails_the_job_not_the_connection() {
    let (addr, handle) = spawn_server(ServeConfig { workers: 1, ..ServeConfig::default() });
    let mut client = Client::connect(addr).expect("client connects");
    let workload = &Workload::suite(0.0)[0];

    let err = client.submit("pentium4", &workload.program, MAX_CYCLES).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("pentium4") && msg.contains("strongarm"),
        "diagnostic lists models: {msg}"
    );

    // The connection survives a failed job.
    let (job_id, admission) =
        client.submit("strongarm", &workload.program, MAX_CYCLES).expect("submit after failure");
    assert_eq!(admission, Admission::Accepted);
    let outcome = client.collect(job_id).expect("collect");
    assert_eq!(outcome.result.exit, Some(workload.expected));

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("server joins");
}

#[test]
fn oversized_image_fails_the_job_not_the_worker() {
    // One worker: if a bad image killed it, the good job below would
    // never complete.
    let (addr, handle) = spawn_server(ServeConfig { workers: 1, ..ServeConfig::default() });
    let mut client = Client::connect(addr).expect("client connects");

    // `mov r0, #7; swi #0` loaded past the end of the 1 MiB memory, and
    // two words at the top of the address space (the end wraps in u32).
    let past_end = Program {
        words: vec![0xE3A0_0007, 0xEF00_0000],
        base: 0x0020_0000,
        entry: 0x0020_0000,
        labels: Default::default(),
    };
    let wraps = Program { base: 0xFFFF_FFFC, entry: 0xFFFF_FFFC, ..past_end.clone() };
    for program in [&past_end, &wraps] {
        match client.submit("strongarm", program, MAX_CYCLES) {
            Err(ClientError::JobFailed { error, .. }) => {
                assert!(error.contains("memory"), "diagnostic names the memory: {error}");
            }
            other => panic!("image at {:#x}: expected JobFailed, got {other:?}", program.base),
        }
    }

    // The worker is still alive and the connection still serves.
    let workload = &Workload::suite(0.0)[0];
    let (job_id, admission) =
        client.submit("strongarm", &workload.program, MAX_CYCLES).expect("submit after failure");
    assert_eq!(admission, Admission::Accepted);
    let outcome = client.collect(job_id).expect("collect");
    assert_eq!(outcome.result.exit, Some(workload.expected));

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("server joins");
}

#[test]
fn live_sweep_record_parses_and_is_internally_consistent() {
    let (addr, handle) = spawn_server(ServeConfig { workers: 1, ..ServeConfig::default() });
    let mut client = Client::connect(addr).expect("client connects");

    let json = client.run_sweep(0.0).expect("server records a sweep");
    let record = SweepRecord::parse(&json).expect("house format parses");
    let expected_rows = ProcModel::ALL.len() * Workload::suite(0.0).len();
    assert_eq!(record.rows.len(), expected_rows, "models × kernels rows");
    assert_eq!(record.summary.jobs as usize, expected_rows);
    assert!(record.summary.identical, "a single run is identical to itself");
    // Rows carry the default-variant labels, so a served record diffs
    // directly against a committed sweep baseline.
    assert!(
        record.rows.iter().all(|r| r.variant.ends_with("/tables:per-place-class")),
        "default variant labels"
    );

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("server joins");
}
