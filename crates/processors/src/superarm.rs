//! SuperARM: a seven-stage superpipelined in-order StrongARM variant —
//! the scenario-diversity model that exists *because* the spec API makes
//! a new pipeline a page of description rather than a day of closure
//! wiring.
//!
//! ```text
//! F1 ─ F2 ─ D ─ E ─ M1 ─ M2 ─ WB(end)
//! ```
//!
//! The fetch and memory stages of the SA-110 are each split in two (the
//! classic path to higher clock rates), keeping the predict-not-taken
//! front end. The stretch is visible in the timing: redirects resolved at
//! execute now squash *two* fetch latches (a two-cycle branch bubble
//! instead of StrongARM's one), loads into the PC squash three, and the
//! forwarding window spans three latches (E, M1, M2) so results stay
//! bypassable until writeback. Operation-class semantics are shared with
//! the other ARM cores — the only thing this file says is the pipeline's
//! *shape*, which is exactly the paper's modeling claim.

use arm_isa::program::Program;
use rcpn::compiled::CompiledModel;
use rcpn::engine::Engine;
use rcpn::spec::{Forward, PipelineSpec, SquashOrder};

use crate::armtok::{ArmClass, ArmTok};
use crate::registry::keys;
use crate::res::{ArmRes, SimConfig};
use crate::semantics::*;

/// Builds a SuperARM cycle-accurate engine for `program`.
///
/// Convenience over [`compile`] + [`ArmRes::machine`]; build the compiled
/// model once and instantiate it per program when running many programs.
///
/// # Panics
///
/// Panics if the internal model fails validation (a bug, not a user
/// error).
pub fn build(program: &Program, config: &SimConfig) -> Engine<ArmTok, ArmRes> {
    compile(config).instantiate(ArmRes::machine(program, config))
}

/// The SuperARM pipeline description: six single-capacity latches plus
/// writeback, forwarding from E/M1/M2, redirects resolved leaving D
/// (`exec`) and leaving E (`mem`), one path per [`ArmClass`].
pub fn spec() -> PipelineSpec<ArmTok, ArmRes> {
    let mut s = PipelineSpec::new("SuperARM");
    for stage in ["F1", "F2", "D", "E", "M1", "M2"] {
        s.pipe(stage, 1);
    }
    s.forwards(&["E", "M1", "M2"]);
    s.hazard_policy(SquashOrder::FrontFirst);
    s.operand_policy(ArmOperandPolicy);
    s.redirect("exec", "D"); // resolved leaving D: squash F1, F2
    s.redirect("mem", "E"); // resolved leaving E: squash F1, F2, D

    s.class(ArmClass::DataProc.name())
        .step("F2")
        .step("D")
        .read(Forward::All)
        .step("E")
        .flushes("exec")
        .act_ctx_named(keys::EXEC_DATAPROC, |m, t, fx, cx| exec_dataproc(m, t, fx, &cx.flush))
        .step("M1")
        .step("M2")
        .step("end")
        .act_named(keys::EXEC_WRITEBACK, exec_writeback);

    s.class(ArmClass::Mul.name())
        .step("F2")
        .step("D")
        .read(Forward::All)
        .step("E")
        .act_named(keys::EXEC_MUL, exec_mul)
        .step("M1")
        .step("M2")
        .step("end")
        .act_named(keys::EXEC_WRITEBACK, exec_writeback);

    s.class(ArmClass::LdSt.name())
        .step("F2")
        .step("D")
        .read(Forward::All)
        .step("E")
        .act_named(keys::EXEC_ADDR, exec_addr)
        .step("M1")
        .flushes("mem")
        .act_ctx_named(keys::EXEC_MEM, |m, t, fx, cx| exec_mem(m, t, fx, &cx.flush))
        .step("M2")
        .step("end")
        .act_named(keys::EXEC_WRITEBACK, exec_writeback);

    s.class(ArmClass::LdStM.name())
        .step("F2")
        .step("D")
        .read_then_named(Forward::All, keys::EXEC_BLOCK_ADDR, exec_block_addr)
        .alt("end")
        .priority(0)
        .guard_named(keys::LDM_BUBBLE, ldm_bubble)
        .annuls()
        .act_named(keys::LDM_SKIP, |m, t, _fx| {
            clear_serialize(m, t);
            m.res.instr_done += 1;
        })
        .step("E")
        .priority(1)
        .reads_forward()
        .guard_ctx_named(keys::LDM_UOP_READY, |m, t, cx| ldm_uop_ready(m, t, &cx.fwd))
        .act_ctx_named(keys::LDM_UOP_ISSUE, |m, t, fx, cx| {
            ldm_uop_issue(m, t, fx, &cx.fwd, cx.from)
        })
        .step("M1")
        .flushes("mem")
        .act_ctx_named(keys::EXEC_MEM, |m, t, fx, cx| exec_mem(m, t, fx, &cx.flush))
        .step("M2")
        .step("end")
        .act_named(keys::EXEC_WRITEBACK, exec_writeback);

    s.class(ArmClass::Branch.name())
        .step("F2")
        .step("D")
        .read(Forward::None)
        .step("E")
        .flushes("exec")
        .act_ctx_named(keys::EXEC_BRANCH, |m, t, fx, cx| exec_branch(m, t, fx, &cx.flush))
        .step("M1")
        .step("M2")
        .step("end")
        .act_named(keys::EXEC_WRITEBACK, exec_writeback);

    s.class(ArmClass::System.name())
        .step("F2")
        .step("D")
        .read(Forward::All)
        .step("E")
        .flushes("exec")
        .act_ctx_named(keys::EXEC_SYSTEM, |m, t, fx, cx| exec_system(m, t, fx, &cx.flush))
        .step("M1")
        .step("M2")
        .step("end")
        .act_named(keys::EXEC_WRITEBACK, exec_writeback);

    s.source("fetch")
        .to("F1")
        .guard_named(keys::FETCH_READY, fetch_ready)
        .produce_named(keys::FETCH_PRODUCE, fetch_produce);
    s.on_squash_named(keys::CLEAR_SERIALIZE, clear_serialize);
    s
}

/// Compiles the SuperARM model into its generated-simulator artifact.
///
/// # Panics
///
/// Panics if the spec fails to lower or the model fails validation (a
/// bug, not a user error).
pub fn compile(config: &SimConfig) -> CompiledModel<ArmTok, ArmRes> {
    let mut s = spec();
    s.lowering(config.lowering);
    let model = s.lower().expect("SuperARM spec lowers");
    CompiledModel::compile_with(model, config.engine.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_isa::asm::assemble;

    #[test]
    fn superarm_model_shape() {
        let p = assemble("mov r0, #1\nswi #0\n").unwrap();
        let engine = build(&p, &SimConfig::superarm());
        let model = engine.model();
        assert_eq!(model.subnet_count(), 6);
        // Six pipeline places + end: a seven-stage pipe counting writeback.
        assert_eq!(model.place_count(), 7);
        let a = model.analysis();
        for name in ["E", "M1", "M2"] {
            assert!(a.is_two_list(model.find_place(name).unwrap()), "{name} must be two-list");
        }
        for name in ["F1", "F2", "D"] {
            assert!(!a.is_two_list(model.find_place(name).unwrap()), "{name} single-list");
        }
    }

    #[test]
    fn deeper_pipe_pays_a_larger_branch_penalty_than_strongarm() {
        // A branchy loop: same architectural work, more squashed fetches.
        let p = assemble(
            "    mov r0, #0
                 mov r1, #40
            lp:  add r0, r0, #2
                 subs r1, r1, #1
                 bne lp
                 swi #0",
        )
        .unwrap();
        let mut sup = build(&p, &SimConfig::superarm());
        let mut sa = crate::strongarm::build(&p, &SimConfig::strongarm());
        for e in [&mut sup, &mut sa] {
            while !e.halted() && e.cycle() < 100_000 {
                e.step();
                if e.machine().res.exit.is_some() && e.live_tokens() == 0 {
                    break;
                }
            }
            assert_eq!(e.machine().res.exit, Some(80));
        }
        assert!(
            sup.stats().cycles > sa.stats().cycles,
            "superpipeline must take more cycles on branchy code: {} vs {}",
            sup.stats().cycles,
            sa.stats().cycles
        );
        assert!(sup.machine().res.squashes >= sa.machine().res.squashes);
    }
}
