//! # rcpn-bench — the measurement harness for the paper's figures
//!
//! Everything here exists to produce *honest* numbers: model compilation
//! stays outside every timed region, and every timed run must exit with
//! its workload's gold checksum before its time is reported — a
//! mis-simulating configuration is a panic, never a data point. Recorded
//! results land in the repo-root `BENCH_*.json` files; `README.md` maps
//! each file to the paper figure or claim it reproduces.
//!
//! Helpers shared by the Criterion benches and the `figures`/`sweep`
//! binaries: timed runs of each simulator over each benchmark, the table
//! generators for Figure 10 (simulation performance in Mcycles/s),
//! Figure 11 (CPI), the Figure 1/2 model-size comparison, the Section 4
//! optimization ablations, and the Section 5 model-effort summary — plus
//! the [`sweep`] module, which batches the full
//! {kernel × table-mode × engine-config} job matrix across worker threads
//! on the compiled-model seam and records `BENCH_sweep.json`.

pub mod record;
pub mod sweep;

use std::time::Instant;

use arm_isa::iss::Iss;
use baseline_sim::SsArm;
use processors::res::SimConfig;
use processors::sim::{CompiledSim, ProcModel};
use rcpn::artifact::{ArtifactCache, ArtifactError};
use rcpn::engine::{EngineConfig, SchedulerMode, TableMode};
use workloads::Workload;

/// Cycle budget nothing should ever hit.
pub const MAX_CYCLES: u64 = 4_000_000_000;

/// One timed simulator run.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub instrs: u64,
    /// Host seconds.
    pub seconds: f64,
}

impl Measurement {
    /// Million simulated cycles per host second (Figure 10's metric).
    pub fn mcps(&self) -> f64 {
        self.cycles as f64 / self.seconds / 1.0e6
    }

    /// Cycles per instruction (Figure 11's metric).
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.instrs as f64
    }
}

/// Which simulator to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Simulator {
    /// The SimpleScalar-style baseline (the paper's comparator).
    Baseline,
    /// RCPN-generated XScale.
    RcpnXScale,
    /// RCPN-generated StrongARM.
    RcpnStrongArm,
    /// RCPN-generated SuperARM (the spec-defined seven-stage core).
    RcpnSuperArm,
    /// RCPN-generated StrongARM running the exhaustive-sweep scheduler
    /// oracle (same simulation, no activity skipping) — recorded alongside
    /// the default engine so the scheduler's speedup is a measured number.
    RcpnStrongArmExhaustive,
    /// RCPN-generated StrongARM with spec lowering forced to
    /// [`rcpn::spec::Lowering::Closures`] — the pre-IR `Box<dyn Fn>`
    /// dispatch, recorded alongside the default (IR) engine so the
    /// micro-op-IR win is a measured number, kernel by kernel.
    RcpnStrongArmClosure,
    /// RCPN-generated StrongARM compiled with
    /// [`EngineConfig::superblocks`] off — IR lowering but per-op
    /// dispatch through the candidate walk, recorded alongside the
    /// default (superblock) engine so the superblock win is a measured
    /// number, kernel by kernel.
    RcpnStrongArmPerOp,
    /// The functional ISS (no timing; context number).
    FunctionalIss,
}

impl Simulator {
    /// The Figure 10 measurement matrix: the paper's simulators, every
    /// [`ProcModel`] of the processor registry, plus the
    /// exhaustive-scheduler oracle. The fig10 bench, the `figures` table,
    /// and the `bench_gate` CI gate all iterate this list, so it is the
    /// single source of truth for which rows exist in `BENCH_fig10.json`
    /// — extending it extends all three in lockstep (and the
    /// registry-guard test fails if a `ProcModel` is missing here).
    pub const FIG10: [Simulator; 7] = [
        Simulator::Baseline,
        Simulator::RcpnXScale,
        Simulator::RcpnStrongArm,
        Simulator::RcpnSuperArm,
        Simulator::RcpnStrongArmExhaustive,
        Simulator::RcpnStrongArmClosure,
        Simulator::RcpnStrongArmPerOp,
    ];

    /// For RCPN-backed simulators: the processor-registry model plus the
    /// scheduler it runs — the single place a [`Simulator`] row is tied
    /// to a [`ProcModel`]. `None` for the non-RCPN comparators.
    pub fn rcpn_config(self) -> Option<(ProcModel, SchedulerMode)> {
        match self {
            Simulator::RcpnXScale => Some((ProcModel::XScale, SchedulerMode::ActivityDriven)),
            Simulator::RcpnStrongArm => Some((ProcModel::StrongArm, SchedulerMode::ActivityDriven)),
            Simulator::RcpnSuperArm => Some((ProcModel::SuperArm, SchedulerMode::ActivityDriven)),
            Simulator::RcpnStrongArmExhaustive => {
                Some((ProcModel::StrongArm, SchedulerMode::Exhaustive))
            }
            Simulator::RcpnStrongArmClosure | Simulator::RcpnStrongArmPerOp => {
                Some((ProcModel::StrongArm, SchedulerMode::ActivityDriven))
            }
            Simulator::Baseline | Simulator::FunctionalIss => None,
        }
    }

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            Simulator::Baseline => "SimpleScalar-Arm",
            Simulator::RcpnStrongArmExhaustive => "RCPN-StrongArm-Exhaustive",
            Simulator::RcpnStrongArmClosure => "RCPN-StrongArm-Closure",
            Simulator::RcpnStrongArmPerOp => "RCPN-StrongArm-PerOp",
            Simulator::FunctionalIss => "Functional-ISS",
            rcpn => rcpn.rcpn_config().expect("RCPN simulator").0.figure_name(),
        }
    }
}

/// Runs one simulator over one workload, timed, verifying the checksum.
///
/// # Panics
///
/// Panics if the simulation does not exit with the gold checksum — a
/// mis-simulating benchmark must never be timed.
pub fn measure(sim: Simulator, w: &Workload) -> Measurement {
    if let Some(compiled) = compiled_sim(sim) {
        return measure_compiled(&compiled, w);
    }
    match sim {
        Simulator::Baseline => {
            let mut s = SsArm::new(&w.program);
            let t0 = Instant::now();
            let r = s.run(MAX_CYCLES);
            let seconds = t0.elapsed().as_secs_f64();
            assert_eq!(r.exit, Some(w.expected), "baseline/{}", w.kernel);
            Measurement { cycles: r.cycles, instrs: r.instrs, seconds }
        }
        Simulator::FunctionalIss => {
            let mut s = Iss::from_program(&w.program);
            let t0 = Instant::now();
            s.run(u64::MAX).expect("iss clean");
            let seconds = t0.elapsed().as_secs_f64();
            assert_eq!(s.exit_code(), w.expected, "iss/{}", w.kernel);
            Measurement { cycles: s.instr_count(), instrs: s.instr_count(), seconds }
        }
        rcpn => unreachable!("{rcpn:?} is RCPN-backed and measured above"),
    }
}

/// The processor model and full simulator configuration an RCPN-backed
/// [`Simulator`] compiles with, or `None` for the non-RCPN comparators.
fn rcpn_sim_config(sim: Simulator) -> Option<(ProcModel, SimConfig)> {
    let (proc, scheduler) = sim.rcpn_config()?;
    let mut config = proc.default_config();
    config.engine.scheduler = scheduler;
    if sim == Simulator::RcpnStrongArmClosure {
        // The closure row reproduces the pre-IR engine wholesale:
        // `Box<dyn Fn>` dispatch and no superblocks (pass-through steps
        // would otherwise still form guardless blocks).
        config.lowering = rcpn::spec::Lowering::Closures;
        config.engine.superblocks = false;
    }
    if sim == Simulator::RcpnStrongArmPerOp {
        config.engine.superblocks = false;
    }
    Some((proc, config))
}

/// The compiled (generated) simulator for an RCPN-backed [`Simulator`],
/// or `None` for the non-RCPN comparators. Build it once and pass it to
/// [`measure_compiled`] to keep model compilation out of the timed region
/// and out of per-iteration bench loops.
pub fn compiled_sim(sim: Simulator) -> Option<CompiledSim> {
    let (proc, config) = rcpn_sim_config(sim)?;
    Some(CompiledSim::new(proc, &config))
}

/// Like [`compiled_sim`], but served through an artifact cache: a hit
/// loads the stored model instead of lowering the spec, a miss compiles
/// and stores, and the closure-lowered ablation row (unserializable)
/// compiles without touching the store. `Ok(None)` for the non-RCPN
/// comparators.
///
/// # Errors
///
/// Propagates any [`ArtifactError`] other than a decode failure (which
/// falls back to a fresh compile) — in practice I/O errors writing the
/// cache directory.
pub fn compiled_sim_cached(
    sim: Simulator,
    cache: &ArtifactCache,
) -> Result<Option<CompiledSim>, ArtifactError> {
    match rcpn_sim_config(sim) {
        Some((proc, config)) => CompiledSim::load_or_compile(proc, &config, cache).map(Some),
        None => Ok(None),
    }
}

/// Runs one instantiation of a compiled simulator over one workload,
/// timed, verifying the checksum. Only the simulation itself is inside
/// the timed region — neither model compilation nor per-program
/// instantiation — matching how the baseline and ablation paths
/// construct their simulators before starting the clock.
///
/// # Panics
///
/// Panics if the simulation does not exit with the gold checksum.
pub fn measure_compiled(compiled: &CompiledSim, w: &Workload) -> Measurement {
    let mut s = compiled.instantiate(&w.program);
    let t0 = Instant::now();
    let r = s.run(MAX_CYCLES);
    let seconds = t0.elapsed().as_secs_f64();
    assert_eq!(r.exit, Some(w.expected), "{}/{}", compiled.model().figure_name(), w.kernel);
    Measurement { cycles: r.cycles, instrs: r.instrs, seconds }
}

/// The ablation configurations, with labels: engine config plus the
/// decode-cache flag.
pub fn ablation_configs() -> Vec<(&'static str, EngineConfig, bool)> {
    vec![
        ("full-optimizations", EngineConfig::default(), true),
        (
            "tables:per-place",
            EngineConfig { table_mode: TableMode::PerPlace, ..Default::default() },
            true,
        ),
        (
            "tables:full-scan",
            EngineConfig { table_mode: TableMode::FullScan, ..Default::default() },
            true,
        ),
        (
            "two-list-everywhere",
            EngineConfig { two_list_everywhere: true, ..Default::default() },
            true,
        ),
        (
            "sched:exhaustive",
            EngineConfig { scheduler: SchedulerMode::Exhaustive, ..Default::default() },
            true,
        ),
        ("dispatch:per-op", EngineConfig { superblocks: false, ..Default::default() }, true),
        ("no-decode-cache", EngineConfig::default(), false),
    ]
}

/// Runs one ablation row (engine config + decode-cache flag), timed.
///
/// # Panics
///
/// Panics if the run does not exit with the gold checksum.
pub fn measure_ablation(w: &Workload, engine: EngineConfig, decode_cache: bool) -> Measurement {
    let config = SimConfig { engine, decode_cache, ..SimConfig::strongarm() };
    let mut s = CompiledSim::new(ProcModel::StrongArm, &config).instantiate(&w.program);
    let t0 = Instant::now();
    let r = s.run(MAX_CYCLES);
    let seconds = t0.elapsed().as_secs_f64();
    assert_eq!(r.exit, Some(w.expected), "ablation/{}", w.kernel);
    Measurement { cycles: r.cycles, instrs: r.instrs, seconds }
}

/// Builds the benchmark suite at a size scale: 1.0 = the paper-style bench
/// sizes, smaller for quick runs.
pub fn suite(scale: f64) -> Vec<Workload> {
    Workload::suite(scale)
}

/// Arithmetic mean (the paper's "Average" bars).
pub fn average(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Kernel;

    #[test]
    fn measurement_math() {
        let m = Measurement { cycles: 2_000_000, instrs: 1_000_000, seconds: 0.5 };
        assert!((m.mcps() - 4.0).abs() < 1e-9);
        assert!((m.cpi() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn small_measurements_run() {
        let w = Workload::build(Kernel::Crc, 64);
        for sim in Simulator::FIG10.into_iter().chain([Simulator::FunctionalIss]) {
            let m = measure(sim, &w);
            assert!(m.cycles > 0);
        }
    }

    /// The registry guard: a processor added to [`ProcModel::ALL`] must
    /// appear on every measurement harness — the fig10 matrix (bench,
    /// figures table, CI gate) and the sweep engine axis. This is what
    /// makes "new processor silently missing from a harness" a test
    /// failure instead of a data gap.
    #[test]
    fn processor_registry_reaches_every_harness() {
        for proc in ProcModel::ALL {
            assert!(
                Simulator::FIG10.iter().any(|s| s.rcpn_config().map(|(p, _)| p) == Some(proc)),
                "{proc:?} missing from the fig10 matrix"
            );
            assert!(
                crate::sweep::engine_axis().iter().any(|v| v.proc == proc),
                "{proc:?} missing from the sweep engine axis"
            );
        }
    }

    #[test]
    fn ablations_change_speed_never_simulated_time() {
        let w = Workload::build(Kernel::Crc, 64);
        let base = measure_ablation(&w, EngineConfig::default(), true);
        for (name, cfg, dec) in ablation_configs() {
            let m = measure_ablation(&w, cfg, dec);
            assert_eq!(m.cycles, base.cycles, "{name}");
        }
    }

    #[test]
    fn average_is_arithmetic() {
        assert!((average(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
