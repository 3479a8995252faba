//! The benchmark's own checks: generators against their gold models, the
//! workloads loading the layers they were chosen for, the printed metrics
//! matching `BENCHMARK.json`, and wrong results counted instead of
//! panicking. Run with `cargo test --release` (the workload tests simulate
//! real programs).

use std::path::PathBuf;

use arm_isa::iss::Iss;
use processors::sim::CompiledSim;
use rcpn_perfbench::gen::{pointer_chase, short_mix, GenProgram};
use rcpn_perfbench::run::{run_iss, run_rcpn, run_ss, Bench, Subject};
use rcpn_perfbench::workload::{self, Config, Kind, Metric};
use workloads::{Kernel, Workload};

fn assert_gold(g: &GenProgram) {
    let mut iss = Iss::from_program(&g.program);
    iss.run(50_000_000).unwrap_or_else(|e| panic!("{}: {e}", g.name));
    assert!(iss.halted(), "{} must terminate", g.name);
    assert_eq!(iss.exit_code(), g.expected, "{}: ISS exit vs gold model", g.name);
    assert_eq!(iss.output(), g.output.as_slice(), "{}: ISS output vs gold model", g.name);
}

#[test]
fn generated_programs_terminate_and_match_their_gold_models() {
    for seed in [0, 1, 0xDEAD_BEEF, u64::MAX] {
        for i in 0..workload::CHASE_PROGRAMS {
            assert_gold(&pointer_chase(seed, i));
        }
        for i in 0..workload::MIX_PROGRAMS {
            assert_gold(&short_mix(seed, i));
        }
    }
}

#[test]
fn generators_are_pure_functions_of_the_seed() {
    assert_eq!(pointer_chase(7, 2).program, pointer_chase(7, 2).program);
    assert_eq!(short_mix(7, 3).program, short_mix(7, 3).program);
    assert_ne!(pointer_chase(7, 2).program, pointer_chase(8, 2).program);
    assert_ne!(short_mix(7, 3).program, short_mix(8, 3).program);
}

#[test]
fn a_wrong_expected_checksum_is_a_counted_failure_not_a_panic() {
    let mut b = Bench::new(false);
    let mut s = Subject::kernel(&mut b, &Workload::build(Kernel::Crc, 32));
    assert_eq!((b.attempted, b.failed), (1, 0), "the reference run agrees with gold");
    s.expected ^= 1;
    let sim = CompiledSim::strongarm();
    run_rcpn(&mut b, &sim, &s, 1);
    run_ss(&mut b, &s, 1);
    run_iss(&mut b, &s, 1);
    assert_eq!((b.attempted, b.failed), (4, 3));
    assert!(b.failures().iter().all(|f| f.contains("!= gold")), "{:?}", b.failures());
}

/// `(name, unit)` pairs of declared or printed metrics.
type Names = Vec<(String, String)>;

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// Every metric `BENCHMARK.json` declares, as (end-to-end, per-layer).
fn declared(text: &str) -> (Names, Names) {
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    let (mut e2e, mut layers) = (Vec::new(), Vec::new());
    let mut in_e2e = false;
    for line in text.lines() {
        if line.contains("\"end_to_end\"") || line.contains("\"per_layer\"") {
            in_e2e = line.contains("end_to_end");
        }
        if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
            if in_e2e { &mut e2e } else { &mut layers }.push((name, unit));
        }
    }
    (e2e, layers)
}

fn run(kind: Kind, trace: bool) -> (Bench, Vec<Metric>) {
    let cfg = Config {
        kind,
        seed: 5,
        seconds: 0.05,
        trace,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "perfbench-test-{}-{}-{trace}",
            std::process::id(),
            kind.name()
        )),
    };
    let mut b = Bench::new(trace);
    let metrics = workload::run(&mut b, &cfg).expect("workload runs");
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    assert_eq!(b.failed, 0, "{:?}", b.failures());
    (b, metrics)
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("{name} printed")).value
}

/// Runs both modes of a workload and checks that they print exactly the
/// declared metrics with the declared units; returns the traced metrics.
fn check_declared(kind: Kind) -> Vec<Metric> {
    let text = benchmark_json();
    let (e2e, layers) = declared(&text);
    let names = |ms: &[Metric]| -> Names {
        ms.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect()
    };
    let (_, untraced) = run(kind, false);
    assert_eq!(names(&untraced), e2e, "{}: end-to-end metrics", kind.name());
    let (b, traced) = run(kind, true);
    assert_eq!(names(&traced), layers, "{}: per-layer metrics", kind.name());
    assert!(!b.tracer.spans().is_empty());
    for m in untraced.iter().chain(&traced) {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    assert!(
        text.contains(&format!("{{\"name\": \"{}\", \"why\": \"", kind.name())),
        "why of {}",
        kind.name()
    );
    traced
}

#[test]
fn paper_kernels_hit_the_dcache_and_print_the_declared_metrics() {
    let m = check_declared(Kind::PaperKernels);
    assert!(value(&m, "memsys.strongarm.dcache_miss_ratio") < 0.05);
    assert!(value(&m, "engine.strongarm.place_skip_ratio") < 0.1);
}

#[test]
fn pointer_chase_misses_the_dcache_and_prints_the_declared_metrics() {
    let m = check_declared(Kind::PointerChase);
    assert!(value(&m, "memsys.strongarm.dcache_miss_ratio") > 0.3);
    assert!(value(&m, "engine.strongarm.place_skip_ratio") > 0.1);
}

#[test]
fn serve_short_jobs_prints_the_declared_metrics() {
    let m = check_declared(Kind::ServeShortJobs);
    assert!(value(&m, "serve.latency_samples") > 0.0);
    assert_eq!(value(&m, "serve.busy_replies"), 0.0);
}
