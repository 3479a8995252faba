//! Sweep-style batched evaluation over the compiled-model seam.
//!
//! The dominant use of a fast cycle-accurate simulator is not one run but
//! a *sweep*: many configurations × many workloads, evaluated together
//! (design-space exploration, regression matrices). This module enumerates
//! that job matrix — {kernel × table-mode × engine-config}, with both
//! processor models on the engine axis — compiles each engine variant
//! **once**, and fans the jobs across a [`BatchRunner`], each worker
//! instantiating its engine from the shared compiled artifact.
//!
//! Determinism is the load-bearing property: a [`SweepRun`]'s per-job
//! statistics and its merged aggregate are bit-identical between a serial
//! run and a parallel run at any worker count. `cargo run --bin sweep`
//! drives this module, checks that invariant end to end, and records the
//! measured serial-vs-parallel wall clock in `BENCH_sweep.json`.

use std::time::Instant;

use processors::res::SimConfig;
use processors::sim::{CompiledSim, ProcModel};
use rcpn::artifact::{ArtifactCache, ArtifactError};
use rcpn::batch::{merge_stats, BatchRunner};
use rcpn::engine::{EngineConfig, SchedulerMode, TableMode};
use rcpn::spec::Lowering;
use rcpn::stats::{SchedStats, Stats};
use workloads::{Kernel, Workload};

use crate::MAX_CYCLES;

/// One point on the engine axis of the sweep matrix: a processor model
/// compiled under one engine configuration.
#[derive(Debug, Clone)]
pub struct EngineVariant {
    /// Row label, e.g. `"strongarm/tables:full-scan"`.
    pub label: String,
    /// The processor model.
    pub proc: ProcModel,
    /// The engine configuration the model is compiled with.
    pub engine: EngineConfig,
    /// How spec-synthesized read steps are lowered (the dispatch axis:
    /// micro-op IR by default, closures for the ablation row).
    pub lowering: Lowering,
}

impl EngineVariant {
    /// A variant labeled `"<proc>/<mode>"`.
    pub fn new(proc: ProcModel, mode: &str, engine: EngineConfig) -> Self {
        EngineVariant {
            label: format!("{}/{mode}", proc.label()),
            proc,
            engine,
            lowering: Lowering::Auto,
        }
    }

    /// [`EngineVariant::new`] with an explicit spec-lowering mode.
    pub fn with_lowering(proc: ProcModel, mode: &str, lowering: Lowering) -> Self {
        EngineVariant {
            label: format!("{}/{mode}", proc.label()),
            proc,
            engine: EngineConfig::default(),
            lowering,
        }
    }

    /// The simulator configuration for this variant (model defaults with
    /// the variant's engine config and lowering mode).
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            engine: self.engine.clone(),
            lowering: self.lowering,
            ..self.proc.default_config()
        }
    }
}

/// The default engine axis: every registered processor model
/// ([`ProcModel::ALL`]) × every candidate-table mode, the
/// exhaustive-sweep scheduler oracle on every model (so every sweep
/// records both the activity-driven engine and its oracle), plus the
/// two-list-everywhere evaluation scheme on StrongARM.
pub fn engine_axis() -> Vec<EngineVariant> {
    let modes = [
        ("tables:per-place-class", TableMode::PerPlaceClass),
        ("tables:per-place", TableMode::PerPlace),
        ("tables:full-scan", TableMode::FullScan),
    ];
    let mut axis = Vec::new();
    for proc in ProcModel::ALL {
        for (name, mode) in modes {
            let engine = EngineConfig { table_mode: mode, ..Default::default() };
            axis.push(EngineVariant::new(proc, name, engine));
        }
        axis.push(EngineVariant::new(
            proc,
            "sched:exhaustive",
            EngineConfig { scheduler: SchedulerMode::Exhaustive, ..Default::default() },
        ));
    }
    axis.push(EngineVariant::new(
        ProcModel::StrongArm,
        "two-list-everywhere",
        EngineConfig { two_list_everywhere: true, ..Default::default() },
    ));
    // The dispatch ablations: the same StrongARM spec lowered to closures
    // instead of micro-op IR, and IR lowering with superblock dispatch
    // disabled (per-op candidate-walk interpretation). Speed knobs only —
    // the cross-engine identity check pins both cycle-identical to the IR
    // rows.
    axis.push(EngineVariant {
        label: format!("{}/dispatch:closures", ProcModel::StrongArm.label()),
        proc: ProcModel::StrongArm,
        // The pre-IR engine wholesale: no superblocks either (pass-through
        // steps would otherwise still form guardless blocks).
        engine: EngineConfig { superblocks: false, ..Default::default() },
        lowering: Lowering::Closures,
    });
    axis.push(EngineVariant::new(
        ProcModel::StrongArm,
        "dispatch:per-op",
        EngineConfig { superblocks: false, ..Default::default() },
    ));
    axis
}

/// A fully enumerated sweep: the two axes, the per-variant compiled
/// artifacts, and the flat job list.
///
/// Compilation happens exactly once per engine variant, in [`Sweep::new`];
/// running the sweep (serially or in parallel, any number of times) only
/// instantiates engines from the shared artifacts.
pub struct Sweep {
    /// The engine axis.
    pub variants: Vec<EngineVariant>,
    /// One compiled simulator per variant (index-aligned with `variants`).
    pub artifacts: Vec<CompiledSim>,
    /// The workload axis.
    pub workloads: Vec<Workload>,
    /// The job matrix, row-major over (variant, workload) indices. Job
    /// numbering is fixed by this enumeration order, which is what the
    /// deterministic-merge invariant is anchored to.
    pub jobs: Vec<(usize, usize)>,
}

impl Sweep {
    /// Enumerates the full default matrix — [`engine_axis`] × all six
    /// kernels at `scale` — and compiles every engine variant.
    pub fn new(scale: f64) -> Sweep {
        Sweep::with(engine_axis(), Workload::matrix(&Kernel::ALL, &[scale]))
    }

    /// Enumerates an explicit matrix and compiles its engine variants.
    pub fn with(variants: Vec<EngineVariant>, workloads: Vec<Workload>) -> Sweep {
        let artifacts =
            variants.iter().map(|v| CompiledSim::new(v.proc, &v.sim_config())).collect();
        let jobs =
            (0..variants.len()).flat_map(|v| (0..workloads.len()).map(move |w| (v, w))).collect();
        Sweep { variants, artifacts, workloads, jobs }
    }

    /// [`Sweep::new`] with engine variants loaded from (or stored into)
    /// an artifact cache instead of lowered from their specs — see
    /// [`Sweep::with_cached`].
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when a freshly compiled artifact cannot be
    /// stored into the cache.
    pub fn new_cached(scale: f64, cache: &ArtifactCache) -> Result<Sweep, ArtifactError> {
        Sweep::with_cached(engine_axis(), Workload::matrix(&Kernel::ALL, &[scale]), cache)
    }

    /// [`Sweep::with`], but each engine variant goes through
    /// [`CompiledSim::load_or_compile`]: reloaded from `cache` when a
    /// valid artifact exists, compiled and stored otherwise.
    /// Unserializable variants (closure lowering) are compiled directly
    /// and counted as cache bypasses. Read the cache's hit/miss/bypass
    /// counters afterwards to see what happened; [`render_json`] records
    /// them in the sweep summary.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when a freshly compiled artifact cannot be
    /// stored into the cache.
    pub fn with_cached(
        variants: Vec<EngineVariant>,
        workloads: Vec<Workload>,
        cache: &ArtifactCache,
    ) -> Result<Sweep, ArtifactError> {
        let artifacts = variants
            .iter()
            .map(|v| CompiledSim::load_or_compile(v.proc, &v.sim_config(), cache))
            .collect::<Result<Vec<_>, _>>()?;
        let jobs =
            (0..variants.len()).flat_map(|v| (0..workloads.len()).map(move |w| (v, w))).collect();
        Ok(Sweep { variants, artifacts, workloads, jobs })
    }

    /// Assembles a sweep over *already compiled* artifacts — no
    /// compilation, no cache traffic. This is the constructor the
    /// `rcpn-serve` job server uses to record a sweep from the models it
    /// warmed at bind time: the variants supply the row labels, the
    /// index-aligned artifacts supply the engines.
    ///
    /// # Panics
    ///
    /// Panics if `variants` and `artifacts` are not the same length —
    /// the two axes must be index-aligned.
    pub fn over_artifacts(
        variants: Vec<EngineVariant>,
        artifacts: Vec<CompiledSim>,
        workloads: Vec<Workload>,
    ) -> Sweep {
        assert_eq!(variants.len(), artifacts.len(), "variants and artifacts must be index-aligned");
        let jobs =
            (0..variants.len()).flat_map(|v| (0..workloads.len()).map(move |w| (v, w))).collect();
        Sweep { variants, artifacts, workloads, jobs }
    }

    /// Number of jobs in the matrix.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs every job of the matrix on `runner`, returning per-job rows in
    /// job order plus the deterministic merged aggregate.
    ///
    /// # Panics
    ///
    /// Panics if any simulation fails to exit with its gold checksum — a
    /// mis-simulating configuration must never be reported.
    pub fn run(&self, runner: &BatchRunner) -> SweepRun {
        let t0 = Instant::now();
        let rows = runner.run(&self.jobs, |_idx, &(v, w)| {
            let workload = &self.workloads[w];
            let mut sim = self.artifacts[v].instantiate(&workload.program);
            let job_t0 = Instant::now();
            let r = sim.run(MAX_CYCLES);
            let seconds = job_t0.elapsed().as_secs_f64();
            assert_eq!(
                r.exit,
                Some(workload.expected),
                "{}/{} exited with the wrong checksum",
                self.variants[v].label,
                workload.kernel,
            );
            SweepRow {
                variant: self.variants[v].label.clone(),
                kernel: workload.kernel,
                size: workload.size,
                cycles: r.cycles,
                instrs: r.instrs,
                seconds,
                stats: sim.engine.stats().clone(),
                sched: sim.sched().clone(),
            }
        });
        let wall_seconds = t0.elapsed().as_secs_f64();
        let merged = merge_stats(rows.iter().map(|r| &r.stats));
        SweepRun { rows, merged, wall_seconds, workers: runner.workers() }
    }
}

impl Sweep {
    /// Panics unless the engine axis was a pure *speed* axis for this
    /// run: every variant of the same processor model must simulate each
    /// workload to identical cycle and instruction counts, and the
    /// `sched:exhaustive` oracle rows must be bit-identical in their full
    /// [`Stats`] block to their activity-driven default siblings
    /// (`tables:per-place-class`). The sweep binary runs this on the full
    /// matrix before recording results.
    pub fn assert_cross_engine_identity(&self, run: &SweepRun) {
        let nw = self.workloads.len();
        let row = |v: usize, w: usize| &run.rows[v * nw + w];
        let proc_of = |label: &str| label.split('/').next().unwrap_or("").to_string();
        let find = |label: &str| self.variants.iter().position(|v| v.label == label);
        for w in 0..nw {
            let kernel = self.workloads[w].kernel;
            let mut per_proc: Vec<(String, u64, u64, String)> = Vec::new();
            for (v, variant) in self.variants.iter().enumerate() {
                let r = row(v, w);
                let proc = proc_of(&variant.label);
                match per_proc.iter().find(|(p, ..)| *p == proc) {
                    None => per_proc.push((proc, r.cycles, r.instrs, variant.label.clone())),
                    Some((_, cycles, instrs, first)) => assert_eq!(
                        (r.cycles, r.instrs),
                        (*cycles, *instrs),
                        "{}/{kernel} diverged from {first}/{kernel}: engine knobs must never \
                         change simulated timing",
                        variant.label,
                    ),
                }
            }
            for proc in ProcModel::ALL.map(ProcModel::label) {
                let (Some(act), Some(exh)) = (
                    find(&format!("{proc}/tables:per-place-class")),
                    find(&format!("{proc}/sched:exhaustive")),
                ) else {
                    continue;
                };
                assert_eq!(
                    row(act, w).stats,
                    row(exh, w).stats,
                    "{proc}/{kernel}: activity-driven Stats diverged from the exhaustive oracle"
                );
            }
        }
    }
}

/// One completed job of a sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Engine-variant label of the job.
    pub variant: String,
    /// Workload kernel of the job.
    pub kernel: Kernel,
    /// Workload problem size.
    pub size: usize,
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub instrs: u64,
    /// Host seconds of this job alone (noisy under parallel execution; use
    /// [`SweepRun::wall_seconds`] for throughput comparisons).
    pub seconds: f64,
    /// The engine's full statistics block.
    pub stats: Stats,
    /// The engine's scheduler counters (evaluated vs skipped work;
    /// deterministic per variant, so included in the identity check).
    pub sched: SchedStats,
}

/// The result of running a [`Sweep`]: rows in job order, the merged
/// aggregate, and the wall clock of the whole batch.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// Per-job results, in job order (independent of worker scheduling).
    pub rows: Vec<SweepRow>,
    /// All row stats merged in job order.
    pub merged: Stats,
    /// Wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
    /// Worker count the batch ran with.
    pub workers: usize,
}

impl SweepRun {
    /// True when `self` and `other` simulated the exact same thing:
    /// per-job cycles, instruction counts and full statistics blocks are
    /// bit-identical, and so are the merged aggregates. Wall-clock fields
    /// are ignored — that is where the two runs are *supposed* to differ.
    pub fn simulation_identical(&self, other: &SweepRun) -> bool {
        self.rows.len() == other.rows.len()
            && self.merged == other.merged
            && self.rows.iter().zip(&other.rows).all(|(a, b)| {
                a.variant == b.variant
                    && a.kernel == b.kernel
                    && a.size == b.size
                    && a.cycles == b.cycles
                    && a.instrs == b.instrs
                    && a.stats == b.stats
                    && a.sched == b.sched
            })
    }

    /// Total simulated cycles across the batch.
    pub fn total_cycles(&self) -> u64 {
        self.merged.cycles
    }
}

/// Renders the sweep record as JSON lines (the `BENCH_*.json` house
/// format): one `"sweep"` row per job, then one `"sweep-summary"` row
/// with the serial-vs-parallel wall-clock measurement and — when the
/// sweep was built through an artifact cache — the cache's
/// hit/miss/bypass counters.
///
/// Per-job rows (and their `job_seconds`/`mcps` timing) come from the
/// **serial** run: under parallel execution the workers time-share cores,
/// so parallel per-job clocks would understate real single-run speed.
/// The two runs' simulation results are asserted identical elsewhere; the
/// parallel run contributes only its wall clock and worker count.
pub fn render_json(
    serial: &SweepRun,
    parallel: &SweepRun,
    cache: Option<&ArtifactCache>,
) -> String {
    let mut out = String::new();
    for row in &serial.rows {
        let mcps = row.cycles as f64 / row.seconds / 1.0e6;
        let cpi = row.cycles as f64 / row.instrs as f64;
        out.push_str(&format!(
            "{{\"group\":\"sweep\",\"bench\":\"{}/{}\",\"size\":{},\"cycles\":{},\
             \"instrs\":{},\"cpi\":{:.4},\"job_seconds\":{:.6},\"mcps\":{:.3},\
             \"place_visits\":{},\"place_skips\":{},\"trans_visits\":{},\
             \"trans_visits_skipped\":{},\"guard_ir_evals\":{},\"guard_hook_evals\":{},\
             \"actions_fused\":{},\"superblocks_entered\":{},\"ops_inlined\":{},\
             \"chains_entered\":{},\"chain_links_fired\":{}}}\n",
            row.variant,
            row.kernel,
            row.size,
            row.cycles,
            row.instrs,
            cpi,
            row.seconds,
            mcps,
            row.sched.place_visits,
            row.sched.place_skips,
            row.sched.trans_visits,
            row.sched.trans_visits_skipped,
            row.sched.guard_ir_evals,
            row.sched.guard_hook_evals,
            row.sched.actions_fused,
            row.sched.superblocks_entered,
            row.sched.ops_inlined,
            row.sched.chains_entered,
            row.sched.chain_links_fired,
        ));
    }
    let speedup = serial.wall_seconds / parallel.wall_seconds;
    let cache_fields = cache.map_or(String::new(), |c| {
        format!(
            ",\"cache_hits\":{},\"cache_misses\":{},\"cache_bypasses\":{}",
            c.hits(),
            c.misses(),
            c.bypasses(),
        )
    });
    out.push_str(&format!(
        "{{\"group\":\"sweep-summary\",\"jobs\":{},\"workers\":{},\"total_cycles\":{},\
         \"total_retired\":{},\"serial_seconds\":{:.6},\"parallel_seconds\":{:.6},\
         \"speedup\":{:.3}{cache_fields},\"identical\":{}}}\n",
        parallel.rows.len(),
        parallel.workers,
        parallel.total_cycles(),
        parallel.merged.retired,
        serial.wall_seconds,
        parallel.wall_seconds,
        speedup,
        serial.simulation_identical(parallel),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep() -> Sweep {
        // Two variants × two kernels: enough to exercise the matrix
        // without dominating test time.
        let variants = vec![
            EngineVariant::new(ProcModel::StrongArm, "tables:per-place-class", Default::default()),
            EngineVariant::new(
                ProcModel::StrongArm,
                "tables:full-scan",
                EngineConfig { table_mode: TableMode::FullScan, ..Default::default() },
            ),
        ];
        Sweep::with(variants, Workload::matrix(&[Kernel::Crc, Kernel::Adpcm], &[0.0]))
    }

    #[test]
    fn matrix_is_row_major_over_variants_then_workloads() {
        let s = tiny_sweep();
        assert_eq!(s.len(), 4);
        assert_eq!(s.jobs, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let s = tiny_sweep();
        let serial = s.run(&BatchRunner::new(1));
        let parallel = s.run(&BatchRunner::new(4));
        assert!(serial.simulation_identical(&parallel));
        // Table mode is a speed knob, never a timing-model knob: both
        // variants must simulate the same cycle counts.
        assert_eq!(serial.rows[0].cycles, serial.rows[2].cycles);
        assert_eq!(serial.rows[1].cycles, serial.rows[3].cycles);
    }

    /// The full default axis passes the cross-engine identity check on a
    /// small workload slice (the sweep binary re-asserts it on the full
    /// matrix every run).
    #[test]
    fn full_axis_cross_engine_identity_on_test_sizes() {
        let s = Sweep::with(engine_axis(), Workload::matrix(&[Kernel::Crc], &[0.0]));
        let run = s.run(&BatchRunner::new(2));
        s.assert_cross_engine_identity(&run);
        // Every registered processor model carries an oracle variant on
        // the axis.
        for proc in ProcModel::ALL.map(ProcModel::label) {
            assert!(s.variants.iter().any(|v| v.label == format!("{proc}/sched:exhaustive")));
        }
    }

    #[test]
    fn exhaustive_oracle_simulates_identically_and_skips_nothing() {
        let variants = vec![
            EngineVariant::new(ProcModel::StrongArm, "tables:per-place-class", Default::default()),
            EngineVariant::new(
                ProcModel::StrongArm,
                "sched:exhaustive",
                EngineConfig { scheduler: SchedulerMode::Exhaustive, ..Default::default() },
            ),
        ];
        let s = Sweep::with(variants, Workload::matrix(&[Kernel::Crc], &[0.0]));
        let run = s.run(&BatchRunner::new(1));
        assert_eq!(run.rows[0].cycles, run.rows[1].cycles, "scheduler is a speed knob only");
        assert_eq!(run.rows[0].stats, run.rows[1].stats, "Stats are scheduler-independent");
        assert!(run.rows[0].sched.place_skips > 0, "activity variant shows sparsity");
        assert_eq!(run.rows[1].sched.place_skips, 0, "the oracle never skips");
    }

    /// The dispatch axis is a speed knob only: the closure-lowered row
    /// simulates identically to the IR row, with the counters proving
    /// which dispatch each one ran.
    #[test]
    fn dispatch_closures_row_is_identical_with_zero_ir_activity() {
        let variants = vec![
            EngineVariant::new(ProcModel::StrongArm, "tables:per-place-class", Default::default()),
            EngineVariant {
                label: "strongarm/dispatch:closures".to_string(),
                proc: ProcModel::StrongArm,
                engine: EngineConfig { superblocks: false, ..Default::default() },
                lowering: Lowering::Closures,
            },
        ];
        let s = Sweep::with(variants, Workload::matrix(&[Kernel::Crc], &[0.0]));
        let run = s.run(&BatchRunner::new(1));
        let (ir, cl) = (&run.rows[0], &run.rows[1]);
        assert_eq!(ir.cycles, cl.cycles, "lowering must never change simulated timing");
        assert_eq!(ir.stats, cl.stats);
        assert_eq!(ir.sched.dispatch_normalized(), cl.sched.dispatch_normalized());
        assert!(ir.sched.guard_ir_evals > 0, "IR row must run the IR interpreter");
        assert!(ir.sched.actions_fused > 0, "IR row must fuse read steps");
        assert_eq!(cl.sched.guard_ir_evals, 0, "closure row must not run IR");
        assert_eq!(cl.sched.actions_fused, 0);
        assert_eq!(cl.sched.superblocks_entered, 0, "closure guards block superblock formation");
    }

    /// The superblock axis is a speed knob only: the per-op row simulates
    /// identically to the superblock (default) row, with the counters
    /// proving which dispatch each one ran.
    #[test]
    fn dispatch_per_op_row_is_identical_with_zero_superblock_activity() {
        let variants = vec![
            EngineVariant::new(ProcModel::StrongArm, "tables:per-place-class", Default::default()),
            EngineVariant::new(
                ProcModel::StrongArm,
                "dispatch:per-op",
                EngineConfig { superblocks: false, ..Default::default() },
            ),
        ];
        let s = Sweep::with(variants, Workload::matrix(&[Kernel::Crc], &[0.0]));
        let run = s.run(&BatchRunner::new(1));
        let (sb, po) = (&run.rows[0], &run.rows[1]);
        assert_eq!(sb.cycles, po.cycles, "superblocks must never change simulated timing");
        assert_eq!(sb.stats, po.stats);
        assert_eq!(sb.sched.dispatch_normalized(), po.sched.dispatch_normalized());
        assert!(sb.sched.superblocks_entered > 0, "default row must dispatch superblocks");
        assert!(sb.sched.ops_inlined > 0);
        assert_eq!(po.sched.superblocks_entered, 0, "per-op row must not form superblocks");
        assert_eq!(po.sched.ops_inlined, 0);
    }

    #[test]
    fn json_record_has_one_line_per_job_plus_summary() {
        let s = tiny_sweep();
        let run = s.run(&BatchRunner::new(2));
        let serial = s.run(&BatchRunner::new(1));
        let json = render_json(&serial, &run, None);
        assert_eq!(json.lines().count(), s.len() + 1);
        assert!(json.contains("\"group\":\"sweep-summary\""));
        assert!(json.contains("\"identical\":true"));
        assert!(!json.contains("cache_hits"), "no cache fields without a cache");
    }

    /// A cached sweep populates the artifact cache on its first build
    /// (misses + one bypass for the unserializable closure row), reloads
    /// 100% on the second, and both simulate bit-identically to an
    /// uncached compile.
    #[test]
    fn cached_sweep_reloads_bit_identically() {
        let dir = std::env::temp_dir().join(format!("rcpn-sweep-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let variants = || {
            vec![
                EngineVariant::new(
                    ProcModel::StrongArm,
                    "tables:per-place-class",
                    Default::default(),
                ),
                EngineVariant {
                    label: "strongarm/dispatch:closures".to_string(),
                    proc: ProcModel::StrongArm,
                    engine: EngineConfig { superblocks: false, ..Default::default() },
                    lowering: Lowering::Closures,
                },
            ]
        };
        let workloads = || Workload::matrix(&[Kernel::Crc], &[0.0]);
        let fresh = Sweep::with(variants(), workloads()).run(&BatchRunner::new(1));

        let cache = ArtifactCache::open(&dir).expect("cache dir");
        let first = Sweep::with_cached(variants(), workloads(), &cache).expect("populate");
        assert_eq!((cache.hits(), cache.misses(), cache.bypasses()), (0, 1, 1));
        let second = Sweep::with_cached(variants(), workloads(), &cache).expect("reload");
        assert_eq!((cache.hits(), cache.misses(), cache.bypasses()), (1, 1, 2));

        let from_store = first.run(&BatchRunner::new(1));
        let from_reload = second.run(&BatchRunner::new(1));
        assert!(fresh.simulation_identical(&from_store), "stored compile diverged");
        assert!(fresh.simulation_identical(&from_reload), "reloaded artifact diverged");

        let json = render_json(&from_reload, &from_reload, Some(&cache));
        assert!(json.contains("\"cache_hits\":1"));
        assert!(json.contains("\"cache_misses\":1"));
        assert!(json.contains("\"cache_bypasses\":2"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
