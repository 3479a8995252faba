//! The StrongARM (SA-110) RCPN model: a classic five-stage pipeline
//! (Fetch, Issue/Decode, Execute, Buffer/Memory, Writeback), predict-
//! not-taken front end, forwarding from the E- and M-stage latches.
//!
//! The model is a [`PipelineSpec`]: four latches, the forwarding set, two
//! redirect rules, and one path per operation class — the paper's claim
//! that a processor is *described* and the simulator *generated*. The six
//! class sub-nets ("there are six RCPN sub-nets in the StrongArm model")
//! fall out of the six paths; the ready/acquire wiring is synthesized by
//! [`ArmOperandPolicy`]. The closure-wired original survives as the
//! `legacy` test oracle: the spec-generated model is pinned bit-identical
//! to it (trace, `Stats`, `SchedStats`) in `crate::spec_oracle`.

use arm_isa::program::Program;
use rcpn::compiled::CompiledModel;
use rcpn::engine::Engine;
use rcpn::spec::{Forward, PipelineSpec, SquashOrder};

use crate::armtok::{ArmClass, ArmTok};
use crate::registry::keys;
use crate::res::{ArmRes, SimConfig};
use crate::semantics::*;

/// Builds a StrongARM cycle-accurate engine for `program`.
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

/// The StrongARM pipeline description: latches F/D/E/M on stages L1–L4,
/// forwarding from E and M, redirects resolved leaving D (`exec`: ALU PC
/// writes, branches) and leaving E (`mem`: loads into PC), one path per
/// [`ArmClass`].
pub fn spec() -> PipelineSpec<ArmTok, ArmRes> {
    let mut s = PipelineSpec::new("StrongARM");
    s.stage("L1", 1).stage("L2", 1).stage("L3", 1).stage("L4", 1);
    s.latch("F", "L1").latch("D", "L2").latch("E", "L3").latch("M", "L4");
    s.forwards(&["E", "M"]);
    s.hazard_policy(SquashOrder::FrontFirst);
    s.operand_policy(ArmOperandPolicy);
    s.redirect("exec", "D"); // resolved leaving D: squash F
    s.redirect("mem", "E"); // resolved leaving E: squash F, D

    s.class(ArmClass::DataProc.name())
        .step("D")
        .read(Forward::All)
        .step("E")
        .flushes("exec")
        .act_ctx_named(keys::EXEC_DATAPROC, |m, t, fx, cx| exec_dataproc(m, t, fx, &cx.flush))
        .step("M")
        .step("end")
        .act_named(keys::EXEC_WRITEBACK, exec_writeback);

    s.class(ArmClass::Mul.name())
        .step("D")
        .read(Forward::All)
        .step("E")
        .act_named(keys::EXEC_MUL, exec_mul)
        .step("M")
        .step("end")
        .act_named(keys::EXEC_WRITEBACK, exec_writeback);

    s.class(ArmClass::LdSt.name())
        .step("D")
        .read(Forward::All)
        .step("E")
        .act_named(keys::EXEC_ADDR, exec_addr)
        .step("M")
        .flushes("mem")
        .act_ctx_named(keys::EXEC_MEM, |m, t, fx, cx| exec_mem(m, t, fx, &cx.flush))
        .step("end")
        .act_named(keys::EXEC_WRITEBACK, exec_writeback);

    s.class(ArmClass::LdStM.name())
        .step("D")
        .read_then_named(Forward::All, keys::EXEC_BLOCK_ADDR, exec_block_addr)
        // Condition failed or empty register list: the whole block transfer
        // is a one-cycle bubble.
        .alt("end")
        .priority(0)
        .guard_named(keys::LDM_BUBBLE, ldm_bubble)
        .annuls()
        .act_named(keys::LDM_SKIP, |m, t, _fx| {
            clear_serialize(m, t);
            m.res.instr_done += 1;
        })
        // Issue one micro-op per cycle; the continuation re-enters D.
        .step("E")
        .priority(1)
        .reads_forward()
        .guard_ctx_named(keys::LDM_UOP_READY, |m, t, cx| ldm_uop_ready(m, t, &cx.fwd))
        .act_ctx_named(keys::LDM_UOP_ISSUE, |m, t, fx, cx| {
            ldm_uop_issue(m, t, fx, &cx.fwd, cx.from)
        })
        .step("M")
        .flushes("mem")
        .act_ctx_named(keys::EXEC_MEM, |m, t, fx, cx| exec_mem(m, t, fx, &cx.flush))
        .step("end")
        .act_named(keys::EXEC_WRITEBACK, exec_writeback);

    s.class(ArmClass::Branch.name())
        .step("D")
        .read(Forward::None)
        .step("E")
        .flushes("exec")
        .act_ctx_named(keys::EXEC_BRANCH, |m, t, fx, cx| exec_branch(m, t, fx, &cx.flush))
        .step("M")
        .step("end")
        .act_named(keys::EXEC_WRITEBACK, exec_writeback);

    s.class(ArmClass::System.name())
        .step("D")
        .read(Forward::All)
        .step("E")
        .flushes("exec")
        .act_ctx_named(keys::EXEC_SYSTEM, |m, t, fx, cx| exec_system(m, t, fx, &cx.flush))
        .step("M")
        .step("end")
        .act_named(keys::EXEC_WRITEBACK, exec_writeback);

    s.source("fetch")
        .to("F")
        .guard_named(keys::FETCH_READY, fetch_ready)
        .produce_named(keys::FETCH_PRODUCE, fetch_produce);
    s.on_squash_named(keys::CLEAR_SERIALIZE, clear_serialize);
    s
}

/// Compiles the StrongARM model into its generated-simulator artifact.
///
/// The model structure is program-independent (the program image lives in
/// the machine resources), so one compiled model can instantiate engines
/// for any number of programs.
///
/// # Panics
///
/// Panics if the spec fails to lower or the model fails validation (a
/// bug, not a user error).
pub fn compile(config: &SimConfig) -> CompiledModel<ArmTok, ArmRes> {
    let mut s = spec();
    s.lowering(config.lowering);
    let model = s.lower().expect("StrongARM spec lowers");
    CompiledModel::compile_with(model, config.engine.clone())
}

/// The original closure-wired StrongARM model, kept verbatim as the
/// differential oracle for the spec lowering (`crate::spec_oracle` pins
/// bit-identity of trace, `Stats` and `SchedStats`).
#[cfg(test)]
pub(crate) mod legacy {
    use rcpn::builder::ModelBuilder;
    use rcpn::compiled::CompiledModel;
    use rcpn::ids::{OpClassId, PlaceId};

    use crate::armtok::{ArmClass, ArmTok};
    use crate::res::{ArmRes, SimConfig};
    use crate::semantics::*;

    /// Compiles the hand-wired StrongARM model.
    pub fn compile(config: &SimConfig) -> CompiledModel<ArmTok, ArmRes> {
        let mut b = ModelBuilder::<ArmTok, ArmRes>::new();

        // Pipeline latches (stages) and the instruction states (places).
        let l1 = b.stage("L1", 1);
        let l2 = b.stage("L2", 1);
        let l3 = b.stage("L3", 1);
        let l4 = b.stage("L4", 1);
        let p_f = b.place("F", l1); // fetched, awaiting issue
        let p_d = b.place("D", l2); // issued, operands read
        let p_e = b.place("E", l3); // executed
        let p_m = b.place("M", l4); // memory done / buffered
        let end = b.end_place();

        // Operation classes, in ArmClass order.
        let classes: Vec<OpClassId> =
            ArmClass::ALL.iter().map(|c| b.class_net(c.name()).0).collect();
        for (i, c) in classes.iter().enumerate() {
            assert_eq!(c.index(), i, "class ids must follow ArmClass order");
        }

        // Forwarding sources: the E-output and M-output latches.
        let fwd: [PlaceId; 2] = [p_e, p_m];
        let flush_e: [PlaceId; 1] = [p_f]; // redirect resolved at execute
        let flush_m: [PlaceId; 2] = [p_f, p_d]; // redirect resolved at memory

        // --- DataProc -----------------------------------------------------
        {
            let c = classes[ArmClass::DataProc as usize];
            b.transition(c, "dp_issue")
                .from(p_f)
                .to(p_d)
                .reads_state(p_e)
                .reads_state(p_m)
                .guard(move |m, t| ready(m, t, &fwd))
                .action(move |m, t, fx| acquire(m, t, fx, &fwd))
                .done();
            b.transition(c, "dp_exec")
                .from(p_d)
                .to(p_e)
                .action(move |m, t, fx| exec_dataproc(m, t, fx, &flush_e))
                .done();
            b.transition(c, "dp_mem").from(p_e).to(p_m).done();
            b.transition(c, "dp_wb").from(p_m).to(end).action(exec_writeback).done();
        }

        // --- Mul ----------------------------------------------------------
        {
            let c = classes[ArmClass::Mul as usize];
            b.transition(c, "mul_issue")
                .from(p_f)
                .to(p_d)
                .reads_state(p_e)
                .reads_state(p_m)
                .guard(move |m, t| ready(m, t, &fwd))
                .action(move |m, t, fx| acquire(m, t, fx, &fwd))
                .done();
            b.transition(c, "mul_exec").from(p_d).to(p_e).action(exec_mul).done();
            b.transition(c, "mul_mem").from(p_e).to(p_m).done();
            b.transition(c, "mul_wb").from(p_m).to(end).action(exec_writeback).done();
        }

        // --- LoadStore ----------------------------------------------------
        {
            let c = classes[ArmClass::LdSt as usize];
            b.transition(c, "ld_issue")
                .from(p_f)
                .to(p_d)
                .reads_state(p_e)
                .reads_state(p_m)
                .guard(move |m, t| ready(m, t, &fwd))
                .action(move |m, t, fx| acquire(m, t, fx, &fwd))
                .done();
            b.transition(c, "ld_addr").from(p_d).to(p_e).action(exec_addr).done();
            b.transition(c, "ld_mem")
                .from(p_e)
                .to(p_m)
                .action(move |m, t, fx| exec_mem(m, t, fx, &flush_m))
                .done();
            b.transition(c, "ld_wb").from(p_m).to(end).action(exec_writeback).done();
        }

        // --- LoadStoreMultiple --------------------------------------------
        {
            let c = classes[ArmClass::LdStM as usize];
            b.transition(c, "ldm_issue")
                .from(p_f)
                .to(p_d)
                .reads_state(p_e)
                .reads_state(p_m)
                .guard(move |m, t| ready(m, t, &fwd))
                .action(move |m, t, fx| {
                    acquire(m, t, fx, &fwd);
                    exec_block_addr(m, t, fx);
                })
                .done();
            // Condition failed or empty register list: the whole block
            // transfer is a one-cycle bubble.
            b.transition(c, "ldm_skip")
                .from(p_d)
                .to(end)
                .priority(0)
                .guard(ldm_bubble)
                .action(|m, t, fx| {
                    annul(m, t, fx);
                    m.res.instr_done += 1;
                })
                .done();
            // Issue one micro-op per cycle; the continuation token
            // re-enters D.
            let p_d_cont = p_d;
            b.transition(c, "ldm_uop")
                .from(p_d)
                .to(p_e)
                .priority(1)
                .reads_state(p_e)
                .reads_state(p_m)
                .guard(move |m, t| ldm_uop_ready(m, t, &fwd))
                .action(move |m, t, fx| ldm_uop_issue(m, t, fx, &fwd, p_d_cont))
                .done();
            b.transition(c, "ldm_mem")
                .from(p_e)
                .to(p_m)
                .action(move |m, t, fx| exec_mem(m, t, fx, &flush_m))
                .done();
            b.transition(c, "ldm_wb").from(p_m).to(end).action(exec_writeback).done();
        }

        // --- Branch -------------------------------------------------------
        {
            let c = classes[ArmClass::Branch as usize];
            b.transition(c, "br_issue")
                .from(p_f)
                .to(p_d)
                .guard(|m, t| ready(m, t, &[]))
                .action(|m, t, fx| acquire(m, t, fx, &[]))
                .done();
            b.transition(c, "br_exec")
                .from(p_d)
                .to(p_e)
                .action(move |m, t, fx| exec_branch(m, t, fx, &flush_e))
                .done();
            b.transition(c, "br_mem").from(p_e).to(p_m).done();
            b.transition(c, "br_wb").from(p_m).to(end).action(exec_writeback).done();
        }

        // --- System -------------------------------------------------------
        {
            let c = classes[ArmClass::System as usize];
            b.transition(c, "sys_issue")
                .from(p_f)
                .to(p_d)
                .reads_state(p_e)
                .reads_state(p_m)
                .guard(move |m, t| ready(m, t, &fwd))
                .action(move |m, t, fx| acquire(m, t, fx, &fwd))
                .done();
            b.transition(c, "sys_exec")
                .from(p_d)
                .to(p_e)
                .action(move |m, t, fx| exec_system(m, t, fx, &flush_e))
                .done();
            b.transition(c, "sys_mem").from(p_e).to(p_m).done();
            b.transition(c, "sys_wb").from(p_m).to(end).action(exec_writeback).done();
        }

        // --- Instruction-independent sub-net (fetch) ----------------------
        b.source("fetch").to(p_f).guard(fetch_ready).produce(fetch_produce).done();

        b.on_squash(clear_serialize);

        let model = b.build().expect("StrongARM model validates");
        CompiledModel::compile_with(model, config.engine.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_has_six_subnets_and_two_list_on_forward_latches() {
        let p = arm_isa::asm::assemble("mov r0, #1\nswi #0\n").unwrap();
        let engine = build(&p, &SimConfig::strongarm());
        let model = engine.model();
        // Six class sub-nets, as the paper reports for StrongARM.
        assert_eq!(model.subnet_count(), 6);
        assert_eq!(model.op_class_count(), 6);
        // The forwarded latches E and M are two-list; F and D are not.
        let analysis = model.analysis();
        assert!(analysis.is_two_list(model.find_place("E").unwrap()));
        assert!(analysis.is_two_list(model.find_place("M").unwrap()));
        assert!(!analysis.is_two_list(model.find_place("F").unwrap()));
        assert!(!analysis.is_two_list(model.find_place("D").unwrap()));
    }

    #[test]
    fn spec_classes_follow_armclass_order() {
        let model = spec().lower().expect("lowers");
        for c in ArmClass::ALL {
            assert_eq!(model.op_class(c.id()).name(), c.name());
        }
    }
}
