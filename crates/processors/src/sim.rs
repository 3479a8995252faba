//! A convenience wrapper around the generated cycle-accurate engines.
//!
//! Follows the paper's model → compile → run pipeline: [`CompiledSim`] is
//! the compiled (generated) simulator for a processor/configuration pair,
//! and [`CaSim`] is one runnable instance of it bound to a program.

use std::path::Path;

use arm_isa::program::{MemLayout, Program};
use rcpn::artifact::{ArtifactCache, ArtifactError};
use rcpn::batch::BatchRunner;
use rcpn::compiled::CompiledModel;
use rcpn::engine::Engine;
use rcpn::ids::RegId;
use rcpn::spec::PipelineSpec;
use rcpn::stats::{SchedStats, Stats};

use crate::armtok::ArmTok;
use crate::registry::arm_hooks;
use crate::res::{ArmRes, SimConfig};

/// Which processor model a [`CaSim`] runs.
///
/// This enum is the processor *registry*: every harness in the workspace
/// — the sweep matrix, the fig10 figure/bench/gate rows, the batch
/// determinism suite, the cosim tests — enumerates [`ProcModel::ALL`] and
/// reads the per-variant facts from the methods below, so a new processor
/// added here flows into every harness (and the registry-guard tests fail
/// if one is bypassed with a hardcoded list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcModel {
    /// The five-stage StrongARM SA-110.
    StrongArm,
    /// The superpipelined Intel XScale.
    XScale,
    /// The seven-stage superpipelined in-order StrongARM variant
    /// (spec-defined; see [`crate::superarm`]).
    SuperArm,
}

impl ProcModel {
    /// Every processor model, in registry order. Harnesses iterate this —
    /// never a hand-maintained list.
    pub const ALL: [ProcModel; 3] = [ProcModel::StrongArm, ProcModel::XScale, ProcModel::SuperArm];

    /// The lowercase label used in sweep-variant rows and CLI output
    /// (e.g. `"strongarm"` in `"strongarm/tables:full-scan"`).
    pub fn label(self) -> &'static str {
        match self {
            ProcModel::StrongArm => "strongarm",
            ProcModel::XScale => "xscale",
            ProcModel::SuperArm => "superarm",
        }
    }

    /// The paper-figure legend name (e.g. `"RCPN-StrongArm"` in
    /// `BENCH_fig10.json` rows).
    pub fn figure_name(self) -> &'static str {
        match self {
            ProcModel::StrongArm => "RCPN-StrongArm",
            ProcModel::XScale => "RCPN-XScale",
            ProcModel::SuperArm => "RCPN-SuperArm",
        }
    }

    /// The model's default simulator configuration.
    pub fn default_config(self) -> SimConfig {
        match self {
            ProcModel::StrongArm => SimConfig::strongarm(),
            ProcModel::XScale => SimConfig::xscale(),
            ProcModel::SuperArm => SimConfig::superarm(),
        }
    }

    /// Compiles the model under `config` (the single model→compiler
    /// dispatch point; everything else goes through [`CompiledSim`]).
    pub fn compile(self, config: &SimConfig) -> CompiledModel<ArmTok, ArmRes> {
        match self {
            ProcModel::StrongArm => crate::strongarm::compile(config),
            ProcModel::XScale => crate::xscale::compile(config),
            ProcModel::SuperArm => crate::superarm::compile(config),
        }
    }

    /// The model's pipeline description (the input to [`ProcModel::compile`]
    /// and to [`ProcModel::spec_hash`]).
    pub fn spec(self) -> PipelineSpec<ArmTok, ArmRes> {
        match self {
            ProcModel::StrongArm => crate::strongarm::spec(),
            ProcModel::XScale => crate::xscale::spec(),
            ProcModel::SuperArm => crate::superarm::spec(),
        }
    }

    /// The content hash identifying this model's description under
    /// `config` — the spec-hash half of the artifact cache key (see
    /// [`rcpn::spec::PipelineSpec::content_hash`]; the lowering choice is
    /// part of the hash, the engine config is the key's other half).
    pub fn spec_hash(self, config: &SimConfig) -> u64 {
        let mut s = self.spec();
        s.lowering(config.lowering);
        s.content_hash()
    }
}

/// A compiled ARM cycle-accurate simulator: the processor model analyzed
/// and partially evaluated, ready to be bound to programs.
///
/// Compile once, [`CompiledSim::instantiate`] per program — instantiation
/// is cheap (the model and its hot tables are shared), which is what makes
/// batched multi-program simulation affordable.
///
/// ```
/// use arm_isa::asm::assemble;
/// use processors::sim::{CompiledSim, ProcModel};
/// use processors::res::SimConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let compiled = CompiledSim::new(ProcModel::StrongArm, &SimConfig::strongarm());
/// let p1 = assemble("mov r0, #6\nswi #0\n")?;
/// let p2 = assemble("mov r0, #7\nswi #0\n")?;
/// assert_eq!(compiled.instantiate(&p1).run(10_000).exit, Some(6));
/// assert_eq!(compiled.instantiate(&p2).run(10_000).exit, Some(7));
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct CompiledSim {
    compiled: CompiledModel<ArmTok, ArmRes>,
    model: ProcModel,
    config: SimConfig,
}

impl CompiledSim {
    /// Compiles `model` under `config`.
    pub fn new(model: ProcModel, config: &SimConfig) -> Self {
        CompiledSim { compiled: model.compile(config), model, config: config.clone() }
    }

    /// Compiles `model` with its default configuration.
    pub fn of(model: ProcModel) -> Self {
        Self::new(model, &model.default_config())
    }

    /// Reloads the compiled simulator for `(model, config)` from `cache`,
    /// or compiles (and stores) it on a cache miss. Configurations whose
    /// models cannot be serialized — closure lowering — are compiled and
    /// returned without touching the cache (counted as a bypass).
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when a freshly compiled artifact cannot be
    /// stored. Invalid or stale cache entries are not errors; they are
    /// recompiled over.
    pub fn load_or_compile(
        model: ProcModel,
        config: &SimConfig,
        cache: &ArtifactCache,
    ) -> Result<Self, ArtifactError> {
        let hash = model.spec_hash(config);
        let compiled =
            cache.load_or_compile(hash, &config.engine, &arm_hooks(), || model.compile(config))?;
        Ok(CompiledSim { compiled, model, config: config.clone() })
    }

    /// Serializes the compiled simulator to `path` as a versioned
    /// [`rcpn::artifact`] file, stamped with this model/config's spec
    /// hash.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::UnnamedClosure`] when the configuration lowers
    /// with closures (unserializable), [`ArtifactError::Io`] on write
    /// failure.
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        self.compiled.save_artifact(path, self.model.spec_hash(&self.config))
    }

    /// Decodes a [`CompiledSim`] from an artifact file previously written
    /// by [`CompiledSim::save`] (or the cache), for `(model, config)`.
    /// No spec is lowered: the stored model is validated and its tables
    /// regenerated. The artifact's spec hash must match the model
    /// description this build would produce.
    ///
    /// # Errors
    ///
    /// Any decode-side [`ArtifactError`]: I/O, bad magic, version or
    /// spec-hash mismatch, checksum failure, corruption, unknown hooks.
    pub fn load(model: ProcModel, config: &SimConfig, path: &Path) -> Result<Self, ArtifactError> {
        let hash = model.spec_hash(config);
        let compiled = CompiledModel::load_artifact(path, Some(hash), &arm_hooks())?;
        Ok(CompiledSim { compiled, model, config: config.clone() })
    }

    /// Compiled StrongARM with default configuration.
    pub fn strongarm() -> Self {
        Self::of(ProcModel::StrongArm)
    }

    /// Compiled XScale with default configuration.
    pub fn xscale() -> Self {
        Self::of(ProcModel::XScale)
    }

    /// The processor model.
    pub fn model(&self) -> ProcModel {
        self.model
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The underlying compiled RCPN artifact.
    pub fn compiled_model(&self) -> &CompiledModel<ArmTok, ArmRes> {
        &self.compiled
    }

    /// Binds the compiled simulator to a program: fresh machine state
    /// (memory image, caches, scoreboard) over the shared tables.
    pub fn instantiate(&self, program: &Program) -> CaSim {
        self.instantiate_with(program, MemLayout::default())
    }

    /// [`CompiledSim::instantiate`] under an explicit memory layout
    /// (memory size and stack top derived by a loader instead of the
    /// [`arm_isa::program`] defaults).
    pub fn instantiate_with(&self, program: &Program, layout: MemLayout) -> CaSim {
        let machine = ArmRes::machine_with(program, &self.config, layout);
        CaSim { engine: self.compiled.instantiate(machine), model: self.model }
    }

    /// Binds the compiled simulator to a loaded ELF image: the image's
    /// program under the image's derived memory layout.
    pub fn instantiate_image(&self, image: &rcpn_loader::LoadedImage) -> CaSim {
        self.instantiate_with(&image.program, image.layout)
    }

    /// Runs one program batch through this compiled simulator, fanned
    /// across `runner`'s workers.
    ///
    /// Each worker instantiates its own engine from the shared compiled
    /// artifact (per-run state — memory image, caches, decode cache —
    /// never crosses threads), runs it to completion or `max_cycles`, and
    /// reports the [`SimResult`] plus the engine's [`Stats`]. Results come
    /// back in program order regardless of worker count, and since each
    /// simulation is deterministic, the whole batch is bit-identical to a
    /// serial run (`BatchRunner::new(1)`).
    pub fn run_batch(
        &self,
        programs: &[Program],
        max_cycles: u64,
        runner: &BatchRunner,
    ) -> Vec<BatchOutcome> {
        runner.run(programs, |_idx, program| {
            let mut sim = self.instantiate(program);
            let result = sim.run(max_cycles);
            BatchOutcome {
                result,
                stats: sim.engine.stats().clone(),
                sched: sim.engine.sched().clone(),
            }
        })
    }
}

/// One per-program result of [`CompiledSim::run_batch`]: the architectural
/// outcome plus the engine's microarchitectural statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// Architectural outcome (cycles, instructions, exit code, fault).
    pub result: SimResult,
    /// Engine statistics of the run (fires, stalls, occupancy, ...).
    pub stats: Stats,
    /// Host-side scheduler counters (visited vs skipped work; depends on
    /// the configured [`rcpn::engine::SchedulerMode`], but deterministic
    /// for a fixed configuration, so it participates in the batch
    /// determinism contract).
    pub sched: SchedStats,
}

impl std::fmt::Debug for CompiledSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledSim").field("model", &self.model).finish()
    }
}

/// Result of driving a simulation to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    /// Cycles simulated.
    pub cycles: u64,
    /// Architectural instructions completed.
    pub instrs: u64,
    /// Exit code, if the program called `swi #0`.
    pub exit: Option<u32>,
    /// Fault message, if the simulation faulted.
    pub fault: Option<String>,
}

impl SimResult {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instrs == 0 {
            f64::NAN
        } else {
            self.cycles as f64 / self.instrs as f64
        }
    }
}

/// A generated ARM cycle-accurate simulator (the paper's deliverable).
pub struct CaSim {
    /// The underlying RCPN engine (public for stats and inspection).
    pub engine: Engine<ArmTok, ArmRes>,
    model: ProcModel,
}

impl CaSim {
    /// Builds a StrongARM simulator with default configuration.
    pub fn strongarm(program: &Program) -> Self {
        Self::with_config(ProcModel::StrongArm, program, &SimConfig::strongarm())
    }

    /// Builds an XScale simulator with default configuration.
    pub fn xscale(program: &Program) -> Self {
        Self::with_config(ProcModel::XScale, program, &SimConfig::xscale())
    }

    /// Builds a SuperARM simulator with default configuration.
    pub fn superarm(program: &Program) -> Self {
        Self::with_config(ProcModel::SuperArm, program, &SimConfig::superarm())
    }

    /// Builds a simulator for an explicit model/configuration pair
    /// (compiles the model and instantiates it in one step; use
    /// [`CompiledSim`] to amortize compilation over many programs).
    pub fn with_config(model: ProcModel, program: &Program, config: &SimConfig) -> Self {
        CompiledSim::new(model, config).instantiate(program)
    }

    /// The processor model.
    pub fn model(&self) -> ProcModel {
        self.model
    }

    /// Runs until program exit (with the pipeline fully drained so the
    /// architectural state is final), fault, or the cycle budget is
    /// exhausted.
    ///
    /// Quiescent stretches are fast-forwarded
    /// ([`Engine::step_then_skip`]); the result, statistics, trace and
    /// machine state equal a loop of [`CaSim::step`] calls under the same
    /// stop rule.
    pub fn run(&mut self, max_cycles: u64) -> SimResult {
        let limit = self.engine.cycle().saturating_add(max_cycles);
        while !self.engine.halted() && self.engine.cycle() < limit {
            self.engine.step_then_skip(limit);
            if self.engine.machine().res.exit.is_some() && self.engine.live_tokens() == 0 {
                break;
            }
        }
        self.result()
    }

    /// Steps one cycle.
    pub fn step(&mut self) {
        self.engine.step();
    }

    /// The current result snapshot.
    pub fn result(&self) -> SimResult {
        let res = &self.engine.machine().res;
        SimResult {
            cycles: self.engine.stats().cycles,
            instrs: res.instr_done,
            exit: res.exit,
            fault: res.fault.clone(),
        }
    }

    /// Whether the simulation has halted.
    pub fn halted(&self) -> bool {
        self.engine.halted()
    }

    /// Host-side scheduler counters of the underlying engine (evaluated
    /// vs skipped places/tokens/transitions — the activity scheduler's
    /// observability block).
    pub fn sched(&self) -> &SchedStats {
        self.engine.sched()
    }

    /// Architectural value of register `n` (0–14).
    ///
    /// # Panics
    ///
    /// Panics if `n > 14` (the PC is not an architectural register here;
    /// read [`ArmRes::pc`] instead).
    pub fn reg(&self, n: usize) -> u32 {
        assert!(n < 15, "r{n} is not scoreboarded");
        self.engine.machine().regs.value_of(RegId::from_index(n))
    }

    /// The machine resources (memory, caches, predictor, PC, output, ...).
    pub fn res(&self) -> &ArmRes {
        &self.engine.machine().res
    }

    /// Bytes written via the semihosting interface.
    pub fn output(&self) -> &[u8] {
        &self.engine.machine().res.output
    }

    /// Provides the byte stream consumed by `swi #4`
    /// ([`arm_isa::syscall::SWI_GETC`]).
    pub fn set_input(&mut self, bytes: Vec<u8>) {
        self.engine.machine_mut().res.input = arm_isa::syscall::SysInput::new(bytes);
    }

    /// System calls executed with no implementation behind them (an
    /// unimplemented call is diagnosable instead of wrong-but-quiet).
    pub fn unknown_swis(&self) -> u64 {
        self.engine.machine().res.unknown_swis
    }
}

impl std::fmt::Debug for CaSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaSim")
            .field("model", &self.model)
            .field("cycles", &self.engine.stats().cycles)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_isa::asm::assemble;

    /// The compiled artifact is the thing batch workers share by
    /// reference; this is the compile-time proof that sharing is legal.
    #[test]
    fn compiled_sim_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledSim>();
    }

    /// The activity-driven scheduler must (a) skip real work on a real
    /// kernel — otherwise the tentpole is dead code — and (b) be
    /// bit-identical to the exhaustive oracle in everything simulated.
    #[test]
    fn activity_scheduler_skips_work_and_matches_exhaustive_oracle() {
        use rcpn::engine::SchedulerMode;
        let program = assemble(
            "mov r0, #0\nmov r1, #200\nloop:\nadd r0, r0, #3\nsubs r1, r1, #1\nbne loop\nswi #0\n",
        )
        .unwrap();
        let mut outcomes = Vec::new();
        for scheduler in [SchedulerMode::ActivityDriven, SchedulerMode::Exhaustive] {
            let config = SimConfig {
                engine: rcpn::engine::EngineConfig { scheduler, ..Default::default() },
                ..SimConfig::strongarm()
            };
            let mut sim = CompiledSim::new(ProcModel::StrongArm, &config).instantiate(&program);
            let result = sim.run(100_000);
            assert_eq!(result.exit, Some(600), "{scheduler:?}");
            outcomes.push((result, sim.engine.stats().clone(), sim.sched().clone()));
        }
        let (act, exh) = (&outcomes[0], &outcomes[1]);
        assert_eq!(act.0, exh.0, "SimResult must not depend on the scheduler");
        assert_eq!(act.1, exh.1, "Stats must not depend on the scheduler");
        assert!(act.2.place_skips > 0, "no sparsity on a real kernel: {:?}", act.2);
        assert!(act.2.trans_visits_skipped > 0);
        assert_eq!(exh.2.place_skips, 0, "the oracle never skips");
        assert!(
            act.2.place_visits + act.2.place_skips <= exh.2.place_visits,
            "activity scheduling must not visit more than the oracle sweeps"
        );
        assert_eq!(act.1.retired, exh.1.retired);
    }

    /// `CaSim::run` fast-forwards quiescent cycles. It must end exactly
    /// where a loop of `step` calls under the same stop rule ends, on a
    /// linked-list walk whose every node load misses the D-cache.
    #[test]
    fn run_equals_stepping_on_a_dcache_missing_walk() {
        const NODES: u32 = 64;
        const NODE_WORDS: u32 = 8; // one 32-byte D-cache line per node
        let mut program = assemble(&format!(
            "    ldr r1, =nodes\n    mov r2, #{NODES}\n    mov r0, #0\nwalk:\n    ldr r3, [r1, #4]\n    \
             ldr r1, [r1]\n    add r0, r0, r3\n    subs r2, r2, #1\n    bne walk\n    swi #0\n    \
             .pool\n    .align 32\nnodes:\n"
        ))
        .unwrap();
        let nodes = program.label("nodes").unwrap();
        assert_eq!(nodes, program.image_end(), "the nodes follow the code");
        // Node i links to node (i + 5) mod NODES, one cycle through all.
        for i in 0..NODES {
            let next = nodes + (i + 5) % NODES * NODE_WORDS * 4;
            program.words.extend([next, 3 * i + 1]);
            program.words.extend([0; NODE_WORDS as usize - 2]);
        }
        let expected: u32 = (0..NODES).map(|i| 3 * i + 1).sum();
        const LIMIT: u64 = 1_000_000;
        for model in ProcModel::ALL {
            let config = SimConfig {
                engine: rcpn::engine::EngineConfig {
                    trace: true,
                    collect_occupancy: true,
                    ..Default::default()
                },
                ..model.default_config()
            };
            let compiled = CompiledSim::new(model, &config);
            let mut run = compiled.instantiate(&program);
            let mut stepped = compiled.instantiate(&program);
            let result = run.run(LIMIT);
            while !stepped.halted() && stepped.engine.cycle() < LIMIT {
                stepped.step();
                if stepped.res().exit.is_some() && stepped.engine.live_tokens() == 0 {
                    break;
                }
            }
            assert_eq!(result.exit, Some(expected), "{model:?}");
            assert!(run.res().dcache.stats().misses >= u64::from(NODES), "{model:?}");
            assert!(run.engine.fast_forwarded_cycles() > 0, "{model:?}: nothing skipped");
            assert_eq!(stepped.engine.fast_forwarded_cycles(), 0);
            assert_eq!(result, stepped.result(), "{model:?}");
            assert_eq!(run.engine.stats(), stepped.engine.stats(), "{model:?}");
            assert_eq!(run.sched(), stepped.sched(), "{model:?}");
            assert_eq!(run.engine.take_trace(), stepped.engine.take_trace(), "{model:?}");
            for n in 0..15 {
                assert_eq!(run.reg(n), stepped.reg(n), "{model:?}: r{n}");
            }
            assert_eq!(run.output(), stepped.output(), "{model:?}");
        }
    }

    #[test]
    fn run_batch_matches_serial_in_order() {
        let compiled = CompiledSim::strongarm();
        let programs: Vec<Program> =
            (0u32..6).map(|i| assemble(&format!("mov r0, #{i}\nswi #0\n")).unwrap()).collect();
        let serial = compiled.run_batch(&programs, 10_000, &BatchRunner::new(1));
        for (i, out) in serial.iter().enumerate() {
            assert_eq!(out.result.exit, Some(i as u32), "results stay in program order");
            assert_eq!(out.stats.cycles, out.result.cycles);
        }
        let parallel = compiled.run_batch(&programs, 10_000, &BatchRunner::new(4));
        assert_eq!(parallel, serial, "parallel batch must be bit-identical to serial");
    }
}
