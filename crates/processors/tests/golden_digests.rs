//! Golden behaviour digests. Every registry model runs each fig10 kernel
//! at its test size under every candidate-table mode, with
//! `two_list_everywhere` off and on: 108 traced runs. An FNV-1a digest
//! of the full trace, every [`Stats`] counter, `r0`–`r15`, the retired
//! instruction count and the output bytes must equal the committed
//! `fixtures/golden_digests.txt`. The digests freeze simulated behaviour
//! independently of any live oracle, so a dispatch path, scheduler or
//! table mode can be deleted without taking its bit-identity guarantee
//! with it.
//!
//! The digests cover traced runs only, while every benchmark and served
//! job runs untraced: `tracing_changes_nothing_simulated` pins the two
//! paths to each other on the default configuration.
//!
//! When the timing model changes on purpose, re-bless with
//! `RCPN_BLESS=1 cargo test -p processors --test golden_digests` and
//! commit the fixture (the `elf_fixtures.rs` flow). Any other diff is
//! simulation drift.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

use processors::sim::{CompiledSim, ProcModel, SimResult};
use rcpn::engine::{EngineConfig, TableMode, TraceEvent};
use rcpn::stats::{SchedStats, Stats};
use workloads::{Kernel, Workload};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_digests.txt");

const TABLE_MODES: [(TableMode, &str); 3] = [
    (TableMode::PerPlaceClass, "per-place-class"),
    (TableMode::PerPlace, "per-place"),
    (TableMode::FullScan, "full-scan"),
];

/// FNV-1a (64-bit) of `bytes`, continuing from `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Runs one configuration to a drained exit and digests its outcome.
fn digest(proc: ProcModel, kernel: Kernel, table_mode: TableMode, two_list: bool) -> u64 {
    let mut config = proc.default_config();
    config.engine =
        EngineConfig { table_mode, two_list_everywhere: two_list, trace: true, ..config.engine };
    let w = Workload::build(kernel, kernel.test_size());
    let mut sim = CompiledSim::new(proc, &config).instantiate(&w.program);
    let result = sim.run(50_000_000);
    assert_eq!(result.fault, None, "{}/{kernel}: faulted", proc.label());
    assert_eq!(result.exit, Some(w.expected), "{}/{kernel}: wrong checksum", proc.label());

    let trace = sim.engine.take_trace();
    let mut words = vec![trace.len() as u64];
    for event in trace {
        let (tag, cycle, id, seq) = match event {
            TraceEvent::Fired { cycle, transition, seq } => (0, cycle, transition.index(), seq),
            TraceEvent::Generated { cycle, source, seq } => (1, cycle, source.index(), seq),
            TraceEvent::Retired { cycle, place, seq } => (2, cycle, place.index(), seq),
            TraceEvent::Flushed { cycle, place, seq } => (3, cycle, place.index(), seq),
        };
        words.extend([tag, cycle, id as u64, seq]);
    }
    // Exhaustive, so a new counter that is not digested is a compile error.
    let Stats {
        cycles,
        retired,
        generated,
        emitted,
        flushed,
        reservations,
        leaked_reservations,
        guard_fails,
        capacity_blocks,
        stalls,
        two_list_commits,
        fires,
        source_fires,
        place_stalls,
        occupancy,
    } = sim.engine.stats();
    words.extend([
        cycles,
        retired,
        generated,
        emitted,
        flushed,
        reservations,
        leaked_reservations,
        guard_fails,
        capacity_blocks,
        stalls,
        two_list_commits,
    ]);
    for v in [fires, source_fires, place_stalls, occupancy] {
        words.push(v.len() as u64);
        words.extend(v);
    }
    words.extend((0..15).map(|r| u64::from(sim.reg(r))));
    words.extend([u64::from(sim.res().pc), result.instrs, sim.output().len() as u64]);
    let h = words.iter().fold(0xcbf2_9ce4_8422_2325, |h, w| fnv(h, &w.to_le_bytes()));
    fnv(h, sim.output())
}

#[test]
fn simulation_matches_committed_golden_digests() {
    let mut jobs = Vec::new();
    for proc in ProcModel::ALL {
        for kernel in Kernel::ALL {
            for mode in TABLE_MODES {
                jobs.extend([false, true].map(|two_list| (proc, kernel, mode, two_list)));
            }
        }
    }
    // The runs are independent: workers pull them off a shared counter.
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let mut digests: Vec<(usize, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(p, k, (m, _), tl)) = jobs.get(i) else { return done };
                        done.push((i, digest(p, k, m, tl)));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("digest worker panicked")).collect()
    });
    digests.sort_unstable();
    let mut fresh = String::new();
    for ((proc, kernel, (_, mode), two_list), (_, d)) in jobs.iter().zip(digests) {
        let tl = if *two_list { "two-list-everywhere" } else { "two-list-feedback" };
        writeln!(fresh, "{} {kernel} {mode} {tl} {d:016x}", proc.label()).expect("String write");
    }

    if std::env::var_os("RCPN_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(FIXTURE, &fresh).expect("write blessed fixture");
        return;
    }
    let committed = std::fs::read_to_string(FIXTURE).expect("committed fixture (see bless flow)");
    let drift: Vec<String> = committed
        .lines()
        .zip(fresh.lines())
        .filter(|(c, f)| c != f)
        .map(|(c, f)| format!("  committed {c}\n  fresh     {f}"))
        .collect();
    assert!(
        drift.is_empty() && committed.lines().count() == fresh.lines().count(),
        "simulation drift in {} golden digests; re-bless only if the timing model changed \
         on purpose:\n{}",
        drift.len(),
        drift.join("\n")
    );
}

/// What an untraced run must share with a traced one.
type Outcome = (SimResult, Stats, SchedStats, Vec<u32>, Vec<u8>);

/// Runs `kernel` at its test size on `proc`'s default configuration, with
/// the trace on or off.
fn outcome(proc: ProcModel, kernel: Kernel, trace: bool) -> Outcome {
    let mut config = proc.default_config();
    config.engine.trace = trace;
    let w = Workload::build(kernel, kernel.test_size());
    let mut sim = CompiledSim::new(proc, &config).instantiate(&w.program);
    let result = sim.run(50_000_000);
    assert_eq!(result.exit, Some(w.expected), "{}/{kernel}: wrong checksum", proc.label());
    let regs = (0..15).map(|r| sim.reg(r)).collect();
    (result, sim.engine.stats().clone(), sim.sched().clone(), regs, sim.output().to_vec())
}

#[test]
fn tracing_changes_nothing_simulated() {
    for proc in ProcModel::ALL {
        assert!(!proc.default_config().engine.trace, "{}: default is untraced", proc.label());
        for kernel in Kernel::ALL {
            assert_eq!(
                outcome(proc, kernel, false),
                outcome(proc, kernel, true),
                "{}/{kernel}: the untraced run differs from the traced one",
                proc.label()
            );
        }
    }
}
