//! Compile a generated ARM simulator once, persist its model as an
//! artifact, and load it back from the content-addressed cache — no spec
//! lowering; loading regenerates the simulator from the stored model.
//!
//! ```text
//! cargo run --release --example artifact_cache [cache-dir]
//! ```
//!
//! The first run compiles all three ARM models and stores them (three
//! cache misses); every later run reloads them from disk (three hits).
//! Inspect the stored entries with `cargo run -p rcpn-bench --bin
//! rcpn-cache -- ls <cache-dir>`.

use processors::sim::{CompiledSim, ProcModel};
use rcpn::artifact::{inspect, ArtifactCache};
use workloads::{Kernel, Workload};

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| ".rcpn-cache".to_string());
    let cache = ArtifactCache::open(&dir).expect("open artifact cache");
    let w = Workload::build(Kernel::Crc, Kernel::Crc.test_size());

    for model in ProcModel::ALL {
        let config = model.default_config();
        let t0 = std::time::Instant::now();
        let sim = CompiledSim::load_or_compile(model, &config, &cache)
            .expect("compile or reload the model artifact");
        let acquired = t0.elapsed();
        let r = sim.instantiate(&w.program).run(1_000_000);
        assert_eq!(r.exit, Some(w.expected), "checksum mismatch — simulator bug");
        println!(
            "{:<12} acquired in {:>9.3?}  ({} cycles on {}, CPI {:.3})",
            model.figure_name(),
            acquired,
            r.cycles,
            w.kernel,
            r.cpi(),
        );
    }
    // Counter names match the `BENCH_sweep.json` summary fields
    // (`cache_hits`/`cache_misses`/`cache_bypasses`) so greps written
    // against the bench record also match the example output.
    println!(
        "cache {dir}: cache_hits={} cache_misses={} cache_bypasses={}",
        cache.hits(),
        cache.misses(),
        cache.bypasses()
    );
    for path in cache.entries().expect("list cache") {
        let info = inspect(&std::fs::read(&path).expect("read entry")).expect("entry parses");
        println!(
            "  {} — v{}, spec {:016x}, {} bytes, checksum {}",
            path.file_name().and_then(|n| n.to_str()).unwrap_or("?"),
            info.format_version,
            info.spec_hash,
            info.total_len,
            if info.checksum_ok { "ok" } else { "BAD" },
        );
    }
}
