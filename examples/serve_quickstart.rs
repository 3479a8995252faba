//! Simulation-as-a-service in one process: start an `rcpn-serve` server
//! on an ephemeral port, submit jobs with the client library, and stream
//! the results back.
//!
//! ```text
//! cargo run --release --example serve_quickstart
//! ```
//!
//! The same flow works across processes with the bins:
//! `rcpn-serve serve --cache DIR` in one terminal,
//! `rcpn-client drive ADDR --check` in another.

use rcpn_serve::client::{Admission, Client};
use rcpn_serve::server::{ServeConfig, Server};
use workloads::Workload;

fn main() {
    // Bind on an ephemeral port; this compiles (warms) every registry
    // model exactly once. Pass `cache_dir: Some(..)` to warm from an
    // artifact cache instead — a restart then loads the stored models
    // rather than lowering their specs.
    let server =
        Server::bind(ServeConfig { workers: 2, ..ServeConfig::default() }).expect("bind server");
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run().expect("serve"));

    let mut client = Client::connect(addr).expect("connect");
    let info = client.hello().expect("hello");
    println!(
        "connected to {addr}: models [{}], {} workers, queue {}",
        info.models.join(", "),
        info.workers,
        info.queue_capacity
    );

    // Submit the whole fig10 suite against every served model, then
    // collect. The server streams completions as they finish; the client
    // pairs them back up by job id.
    let workloads = Workload::suite(0.0);
    let mut jobs = Vec::new();
    for model in &info.models {
        for w in &workloads {
            let (job_id, admission) =
                client.submit(model, &w.program, 4_000_000_000).expect("submit");
            assert_eq!(admission, Admission::Accepted, "queue covers the suite");
            jobs.push((job_id, model.clone(), w));
        }
    }
    for (job_id, model, w) in jobs {
        let outcome = client.collect(job_id).expect("collect");
        assert_eq!(outcome.result.exit, Some(w.expected), "gold checksum");
        println!(
            "{model}/{}: {} cycles, {} instrs, CPI {:.3}",
            w.kernel,
            outcome.result.cycles,
            outcome.result.instrs,
            outcome.result.cpi()
        );
    }

    client.shutdown().expect("shutdown");
    server_thread.join().expect("clean server exit");
    println!("server shut down cleanly");
}
