//! Differential oracle for the spec-generated processor models.
//!
//! `strongarm::compile` and `xscale::compile` now *lower* a
//! [`rcpn::spec::PipelineSpec`]; the original closure-wired builders are
//! kept (test-only) as `strongarm::legacy` / `xscale::legacy`. This module
//! pins the lowering's bit-identity contract: for every candidate-table
//! mode (plus the two-list-everywhere fixpoint scheme and the exhaustive
//! scheduler oracle), a spec-generated model must simulate **exactly** like
//! its hand-wired twin — full trace (transition/place/token ids, in
//! order), the complete [`Stats`] block, the [`SchedStats`] counters, and
//! the final architectural state. Anything the lowering registers in a
//! different order or wires differently shows up here as a first-divergence
//! assertion.
//!
//! Since the micro-op IR refactor the same harness also pins the
//! **dispatch** axis: the default models lower their synthesized read
//! steps to IR ([`rcpn::spec::Lowering::Auto`]) and are compared against
//! their [`rcpn::spec::Lowering::Closures`] twins — the pre-IR
//! representation kept as the compile-time fallback oracle. [`SchedStats`]
//! is compared through [`SchedStats::dispatch_normalized`]: the
//! `guard_ir_evals` / `guard_hook_evals` / `actions_fused` counters are
//! *supposed* to differ between representations (that is their purpose);
//! everything else, including their sum, must not.

use arm_isa::asm::assemble;
use arm_isa::program::Program;
use rcpn::compiled::CompiledModel;
use rcpn::engine::{EngineConfig, SchedulerMode, TableMode, TraceEvent};
use rcpn::ids::RegId;
use rcpn::stats::{SchedStats, Stats};
use workloads::{Kernel, Workload};

use crate::armtok::ArmTok;
use crate::res::{ArmRes, SimConfig};
use crate::{strongarm, xscale};

/// Everything a run produces: the trace, both stats blocks, and the
/// architectural outcome.
#[derive(Debug, PartialEq)]
struct Outcome {
    trace: Vec<TraceEvent>,
    stats: Stats,
    sched: SchedStats,
    regs: Vec<u32>,
    exit: Option<u32>,
    instrs: u64,
}

/// Runs one compiled model over `program` with the `CaSim::run` drain
/// semantics and collects the full outcome.
fn run(compiled: &CompiledModel<ArmTok, ArmRes>, program: &Program, config: &SimConfig) -> Outcome {
    let mut e = compiled.instantiate(ArmRes::machine(program, config));
    let limit = 50_000_000u64;
    while !e.halted() && e.cycle() < limit {
        e.step();
        if e.machine().res.exit.is_some() && e.live_tokens() == 0 {
            break;
        }
    }
    let regs = (0..15).map(|i| e.machine().regs.value_of(RegId::from_index(i))).collect();
    let (exit, instrs) = (e.machine().res.exit, e.machine().res.instr_done);
    Outcome {
        trace: e.take_trace(),
        stats: e.stats().clone(),
        sched: e.sched().clone(),
        regs,
        exit,
        instrs,
    }
}

/// The engine configurations the identity is pinned under: every
/// candidate-table mode, the two-list-everywhere fixpoint scheme, and the
/// exhaustive scheduler oracle — all with tracing on.
fn configs() -> Vec<(&'static str, EngineConfig)> {
    let mut cfgs: Vec<(&'static str, EngineConfig)> = vec![
        ("tables:per-place-class", EngineConfig::default()),
        (
            "tables:per-place",
            EngineConfig { table_mode: TableMode::PerPlace, ..Default::default() },
        ),
        (
            "tables:full-scan",
            EngineConfig { table_mode: TableMode::FullScan, ..Default::default() },
        ),
        ("two-list-everywhere", EngineConfig { two_list_everywhere: true, ..Default::default() }),
        (
            "sched:exhaustive",
            EngineConfig { scheduler: SchedulerMode::Exhaustive, ..Default::default() },
        ),
        ("dispatch:per-op", EngineConfig { superblocks: false, ..Default::default() }),
    ];
    for (_, c) in &mut cfgs {
        c.trace = true;
    }
    cfgs
}

/// Programs chosen to fire every sub-net and hazard path: a real kernel
/// (loops, loads, flags), block transfers with calls (LdStM micro-ops,
/// condition-failed skips), and a PC-write + multiply + serialization mix.
fn programs() -> Vec<Program> {
    let mut ps = vec![Workload::build(Kernel::Crc, 48).program];
    ps.push(
        assemble(
            "    mov r0, #7
                 bl f
                 ldmeqia r4, {r1, r2}   ; condition-failed block transfer
                 swi #0
            f:   push {r4, lr}
                 ldr r4, =tbl
                 ldmia r4, {r1, r2, r3}
                 mla r0, r1, r2, r3
                 umull r5, r6, r0, r3
                 add r0, r0, r5
                 pop {r4, pc}           ; load into PC (serializing)
            tbl: .word 3, 5, 11",
        )
        .expect("assembles"),
    );
    ps.push(
        assemble(
            "    mov r0, #3
                 bl double              ; ALU PC write (mov pc, lr) at execute
                 bl double
                 ldr r1, =buf
                 str r0, [r1]
                 ldrb r2, [r1]
                 cmp r2, r0
                 addeq r0, r0, #1
                 swi #0
            double:
                 add r0, r0, r0
                 mov pc, lr
            buf: .space 8",
        )
        .expect("assembles"),
    );
    ps
}

fn assert_identical(
    name: &str,
    spec: impl Fn(&SimConfig) -> CompiledModel<ArmTok, ArmRes>,
    legacy: impl Fn(&SimConfig) -> CompiledModel<ArmTok, ArmRes>,
    base: SimConfig,
) {
    for (mode, engine) in configs() {
        let config = SimConfig { engine, ..base.clone() };
        let s = spec(&config);
        let l = legacy(&config);
        for (pi, program) in programs().iter().enumerate() {
            let a = run(&s, program, &config);
            let b = run(&l, program, &config);
            assert!(a.exit.is_some(), "{name}/{mode}/p{pi}: program must exit");
            if let Some(k) = a.trace.iter().zip(&b.trace).position(|(x, y)| x != y) {
                panic!(
                    "{name}/{mode}/p{pi}: trace diverges at event {k}: spec {:?} vs legacy {:?}",
                    a.trace[k], b.trace[k]
                );
            }
            assert_eq!(a.trace.len(), b.trace.len(), "{name}/{mode}/p{pi}: trace length");
            assert_eq!(a.stats, b.stats, "{name}/{mode}/p{pi}: Stats");
            assert_eq!(
                a.sched.dispatch_normalized(),
                b.sched.dispatch_normalized(),
                "{name}/{mode}/p{pi}: SchedStats (dispatch-normalized)"
            );
            assert_eq!(
                (a.regs, a.exit, a.instrs),
                (b.regs, b.exit, b.instrs),
                "{name}/{mode}/p{pi}: architectural state"
            );
        }
    }
}

#[test]
fn strongarm_spec_is_bit_identical_to_handwritten_oracle() {
    assert_identical(
        "strongarm",
        strongarm::compile,
        strongarm::legacy::compile,
        SimConfig::strongarm(),
    );
}

#[test]
fn xscale_spec_is_bit_identical_to_handwritten_oracle() {
    assert_identical("xscale", xscale::compile, xscale::legacy::compile, SimConfig::xscale());
}

/// Forces the closure representation of spec-synthesized read steps (the
/// compile-time fallback oracle for the IR dispatch path).
fn closure_lowered(
    compile: fn(&SimConfig) -> CompiledModel<ArmTok, ArmRes>,
) -> impl Fn(&SimConfig) -> CompiledModel<ArmTok, ArmRes> {
    move |config| {
        let config = SimConfig { lowering: rcpn::spec::Lowering::Closures, ..config.clone() };
        compile(&config)
    }
}

#[test]
fn strongarm_ir_dispatch_is_bit_identical_to_closure_dispatch() {
    assert_identical(
        "strongarm-ir",
        strongarm::compile,
        closure_lowered(strongarm::compile),
        SimConfig::strongarm(),
    );
}

#[test]
fn xscale_ir_dispatch_is_bit_identical_to_closure_dispatch() {
    assert_identical(
        "xscale-ir",
        xscale::compile,
        closure_lowered(xscale::compile),
        SimConfig::xscale(),
    );
}

#[test]
fn superarm_ir_dispatch_is_bit_identical_to_closure_dispatch() {
    assert_identical(
        "superarm-ir",
        crate::superarm::compile,
        closure_lowered(crate::superarm::compile),
        SimConfig::superarm(),
    );
}

/// Forces per-op dispatch ([`EngineConfig::superblocks`] off) — the
/// differential oracle for the superblock fast path.
fn per_op(
    compile: impl Fn(&SimConfig) -> CompiledModel<ArmTok, ArmRes>,
) -> impl Fn(&SimConfig) -> CompiledModel<ArmTok, ArmRes> {
    move |config| {
        let mut config = config.clone();
        config.engine.superblocks = false;
        compile(&config)
    }
}

/// Superblock dispatch is bit-identical to per-op dispatch for every ARM
/// model under every engine configuration of [`configs`] (both
/// schedulers, every table mode, the fixpoint scheme): same trace, same
/// [`Stats`], same dispatch-normalized [`SchedStats`], same architectural
/// state.
#[test]
fn superblock_dispatch_is_bit_identical_to_per_op_dispatch() {
    for proc in crate::sim::ProcModel::ALL {
        assert_identical(
            proc.label(),
            move |config| proc.compile(config),
            per_op(move |config| proc.compile(config)),
            proc.default_config(),
        );
    }
}

/// The dispatch refactor must actually engage: every default ARM model
/// compiles its read steps to IR (with the CheckReady+AcquireOperands
/// pairs fused), runs them through the IR interpreter — `guard_ir_evals`
/// and `actions_fused` prove it — while its `Lowering::Closures` twin
/// shows zero IR activity, and both still route custom guards through the
/// hook path.
#[test]
fn ir_path_is_exercised_and_closure_twin_is_not() {
    let program = &programs()[0];
    for proc in crate::sim::ProcModel::ALL {
        let config = proc.default_config();
        let ir = proc.compile(&config);
        assert!(ir.ir_transitions() > 0, "{proc:?}: no IR transitions compiled");
        assert!(ir.fused_transitions() > 0, "{proc:?}: no fused read steps");
        assert!(ir.superblocks() > 0, "{proc:?}: no superblocks formed");
        let a = run(&ir, program, &config);
        assert!(a.exit.is_some());
        assert!(a.sched.guard_ir_evals > 0, "{proc:?}: IR guards never evaluated");
        assert!(a.sched.actions_fused > 0, "{proc:?}: fused acquires never fired");
        assert!(a.sched.superblocks_entered > 0, "{proc:?}: superblocks never dispatched");
        assert!(a.sched.ops_inlined > 0, "{proc:?}: no ops interpreted inside superblocks");

        let closure_config =
            SimConfig { lowering: rcpn::spec::Lowering::Closures, ..config.clone() };
        let cl = proc.compile(&closure_config);
        assert_eq!(cl.ir_transitions(), 0, "{proc:?}: closure twin compiled IR");
        let b = run(&cl, program, &closure_config);
        assert_eq!(b.sched.guard_ir_evals, 0, "{proc:?}: closure twin ran IR guards");
        assert_eq!(b.sched.actions_fused, 0);
        assert!(b.sched.guard_hook_evals >= a.sched.guard_hook_evals);
        assert_eq!(a.sched.guard_evals(), b.sched.guard_evals(), "{proc:?}: total guard evals");

        // The per-op twin compiles no superblock tables and never enters
        // the fast path.
        let mut per_op_config = config.clone();
        per_op_config.engine.superblocks = false;
        let po = proc.compile(&per_op_config);
        assert_eq!(po.superblocks(), 0, "{proc:?}: per-op twin formed superblocks");
        let c = run(&po, program, &per_op_config);
        assert_eq!(c.sched.superblocks_entered, 0, "{proc:?}: per-op twin entered superblocks");
        assert_eq!(c.sched.ops_inlined, 0);
        assert_eq!(a.stats, c.stats, "{proc:?}: superblocks changed simulation");
    }
}

/// The generated structure matches the hand-wired one entity for entity —
/// a cheap shape check that localizes ordering bugs faster than a trace
/// diff when lowering changes.
#[test]
fn spec_models_mirror_oracle_structure() {
    for (name, spec, legacy) in [
        (
            "strongarm",
            strongarm::compile as fn(&SimConfig) -> CompiledModel<ArmTok, ArmRes>,
            strongarm::legacy::compile as fn(&SimConfig) -> CompiledModel<ArmTok, ArmRes>,
        ),
        ("xscale", xscale::compile, xscale::legacy::compile),
    ] {
        let config = SimConfig::default();
        let (s, l) = (spec(&config), legacy(&config));
        let (sm, lm) = (s.model(), l.model());
        assert_eq!(sm.stage_count(), lm.stage_count(), "{name}: stages");
        assert_eq!(sm.place_count(), lm.place_count(), "{name}: places");
        assert_eq!(sm.transition_count(), lm.transition_count(), "{name}: transitions");
        assert_eq!(sm.source_count(), lm.source_count(), "{name}: sources");
        assert_eq!(sm.subnet_count(), lm.subnet_count(), "{name}: sub-nets");
        for p in sm.place_ids() {
            assert_eq!(sm.place(p).name(), lm.place(p).name(), "{name}: place {p} name");
            assert_eq!(sm.place(p).stage(), lm.place(p).stage(), "{name}: place {p} stage");
            assert_eq!(
                sm.analysis().is_two_list(p),
                lm.analysis().is_two_list(p),
                "{name}: place {p} two-list"
            );
        }
        for t in sm.transition_ids() {
            let (st, lt) = (sm.transition(t), lm.transition(t));
            assert_eq!(st.input(), lt.input(), "{name}: transition {t} input");
            assert_eq!(st.dest(), lt.dest(), "{name}: transition {t} dest");
            assert_eq!(st.subnet(), lt.subnet(), "{name}: transition {t} sub-net");
            assert_eq!(st.priority(), lt.priority(), "{name}: transition {t} priority");
        }
        assert_eq!(
            sm.analysis().order(),
            lm.analysis().order(),
            "{name}: evaluation order must match"
        );
    }
}
