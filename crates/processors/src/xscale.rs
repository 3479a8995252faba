//! The Intel XScale RCPN model (paper, Figure 9): a superpipelined,
//! in-order-issue / out-of-order-completion core with three back-end pipes:
//!
//! ```text
//!                      ┌─ X1 ─ X2 ─────────── XWB   (main/ALU)
//! F1 ─ F2 ─ ID ─ RF ───┼─ D1 ─ D2 ─────────── DWB   (memory)
//!                      └─ M1 ─ M2 ─ Mx ────── MWB   (MAC/multiply)
//! ```
//!
//! A BTB front end predicts branch targets; branches resolve in X1.
//! Independent ALU instructions complete in XWB while older loads are
//! still in the memory pipe — the out-of-order completion the paper calls
//! out — with WAW hazards fenced by the register scoreboard.
//!
//! Like [`crate::strongarm`], the model is a [`PipelineSpec`]: eleven
//! latches, a six-latch forwarding set, one `front` redirect rule
//! (nearest-first squash of ID/F2/F1), and one path per class; only the
//! *paths* differ from StrongARM — the paper's generic-modeling claim.
//! The closure-wired original survives as the `legacy` test oracle.

use arm_isa::program::Program;
use rcpn::compiled::CompiledModel;
use rcpn::engine::Engine;
use rcpn::spec::{Forward, PipelineSpec, SquashOrder};

use crate::armtok::{ArmClass, ArmTok};
use crate::registry::keys;
use crate::res::{ArmRes, SimConfig};
use crate::semantics::*;

/// Builds an XScale cycle-accurate engine for `program`.
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

/// The XScale pipeline description: the shared F1–F2–ID–RF front end,
/// three back-end pipes (X, D, MAC), forwarding from all six back-end
/// latches, and redirects resolved leaving RF (branches, ALU PC writes)
/// or D1 (loads into PC) — both squashing the front end nearest-first.
pub fn spec() -> PipelineSpec<ArmTok, ArmRes> {
    let mut s = PipelineSpec::new("XScale");
    for stage in ["F1", "F2", "ID", "RF", "X1", "X2", "D1", "D2", "M1", "M2", "Mx"] {
        s.pipe(stage, 1);
    }
    s.forwards(&["X1", "X2", "D1", "D2", "M2", "Mx"]);
    s.hazard_policy(SquashOrder::NearestFirst);
    s.operand_policy(ArmOperandPolicy);
    s.redirect("front", "RF"); // squash ID, F2, F1

    s.class(ArmClass::DataProc.name())
        .step("F2")
        .step("ID")
        .step("RF")
        .read(Forward::All)
        .step("X1")
        .flushes("front")
        .act_ctx_named(keys::EXEC_DATAPROC, |m, t, fx, cx| exec_dataproc(m, t, fx, &cx.flush))
        .step("X2")
        .step("end")
        .act_named(keys::EXEC_WRITEBACK, exec_writeback);

    s.class(ArmClass::Mul.name())
        .step("F2")
        .step("ID")
        .step("RF")
        .read(Forward::All)
        .step("M1")
        .step("M2")
        .act_named(keys::EXEC_MUL, exec_mul)
        .step("Mx")
        .step("end")
        .act_named(keys::EXEC_WRITEBACK, exec_writeback);

    s.class(ArmClass::LdSt.name())
        .step("F2")
        .step("ID")
        .step("RF")
        .read(Forward::All)
        .step("D1")
        .act_named(keys::EXEC_ADDR, exec_addr)
        .step("D2")
        .flushes("front")
        .act_ctx_named(keys::EXEC_MEM, |m, t, fx, cx| exec_mem(m, t, fx, &cx.flush))
        .step("end")
        .act_named(keys::EXEC_WRITEBACK, exec_writeback);

    s.class(ArmClass::LdStM.name())
        .step("F2")
        .step("ID")
        .step("RF")
        .read_then_named(Forward::All, keys::EXEC_BLOCK_ADDR, exec_block_addr)
        .alt("end")
        .priority(0)
        .guard_named(keys::LDM_BUBBLE, ldm_bubble)
        .annuls()
        .act_named(keys::LDM_SKIP, |m, t, _fx| {
            clear_serialize(m, t);
            m.res.instr_done += 1;
        })
        .step("D1")
        .priority(1)
        .reads_forward()
        .guard_ctx_named(keys::LDM_UOP_READY, |m, t, cx| ldm_uop_ready(m, t, &cx.fwd))
        .act_ctx_named(keys::LDM_UOP_ISSUE, |m, t, fx, cx| {
            ldm_uop_issue(m, t, fx, &cx.fwd, cx.from)
        })
        .step("D2")
        .flushes("front")
        .act_ctx_named(keys::EXEC_MEM, |m, t, fx, cx| exec_mem(m, t, fx, &cx.flush))
        .step("end")
        .act_named(keys::EXEC_WRITEBACK, exec_writeback);

    s.class(ArmClass::Branch.name())
        .step("F2")
        .step("ID")
        .step("RF")
        .read(Forward::None)
        .step("X1")
        .flushes("front")
        .act_ctx_named(keys::EXEC_BRANCH, |m, t, fx, cx| exec_branch(m, t, fx, &cx.flush))
        .step("X2")
        .step("end")
        .act_named(keys::EXEC_WRITEBACK, exec_writeback);

    s.class(ArmClass::System.name())
        .step("F2")
        .step("ID")
        .step("RF")
        .read(Forward::All)
        .step("X1")
        .flushes("front")
        .act_ctx_named(keys::EXEC_SYSTEM, |m, t, fx, cx| exec_system(m, t, fx, &cx.flush))
        .step("X2")
        .step("end")
        .act_named(keys::EXEC_WRITEBACK, exec_writeback);

    s.source("fetch")
        .to("F1")
        .guard_named(keys::FETCH_READY, fetch_ready)
        .produce_named(keys::FETCH_PRODUCE, fetch_produce);
    s.on_squash_named(keys::CLEAR_SERIALIZE, clear_serialize);
    s
}

/// Compiles the XScale model into its generated-simulator artifact.
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
    let model = s.lower().expect("XScale spec lowers");
    CompiledModel::compile_with(model, config.engine.clone())
}

/// The original closure-wired XScale model, kept verbatim as the
/// differential oracle for the spec lowering (`crate::spec_oracle`).
#[cfg(test)]
pub(crate) mod legacy {
    use rcpn::builder::ModelBuilder;
    use rcpn::compiled::CompiledModel;
    use rcpn::ids::{OpClassId, PlaceId};

    use crate::armtok::{ArmClass, ArmTok};
    use crate::res::{ArmRes, SimConfig};
    use crate::semantics::*;

    /// Compiles the hand-wired XScale model.
    pub fn compile(config: &SimConfig) -> CompiledModel<ArmTok, ArmRes> {
        let mut b = ModelBuilder::<ArmTok, ArmRes>::new();

        // Stages.
        let s_f1 = b.stage("F1", 1);
        let s_f2 = b.stage("F2", 1);
        let s_id = b.stage("ID", 1);
        let s_rf = b.stage("RF", 1);
        let s_x1 = b.stage("X1", 1);
        let s_x2 = b.stage("X2", 1);
        let s_d1 = b.stage("D1", 1);
        let s_d2 = b.stage("D2", 1);
        let s_m1 = b.stage("M1", 1);
        let s_m2 = b.stage("M2", 1);
        let s_mx = b.stage("Mx", 1);

        // Places.
        let p_f1 = b.place("F1", s_f1);
        let p_f2 = b.place("F2", s_f2);
        let p_id = b.place("ID", s_id);
        let p_rf = b.place("RF", s_rf);
        let p_x1 = b.place("X1", s_x1);
        let p_x2 = b.place("X2", s_x2);
        let p_d1 = b.place("D1", s_d1);
        let p_d2 = b.place("D2", s_d2);
        let p_m1 = b.place("M1", s_m1);
        let p_m2 = b.place("M2", s_m2);
        let p_mx = b.place("Mx", s_mx);
        let end = b.end_place();

        let classes: Vec<OpClassId> =
            ArmClass::ALL.iter().map(|c| b.class_net(c.name()).0).collect();
        for (i, c) in classes.iter().enumerate() {
            assert_eq!(c.index(), i, "class ids must follow ArmClass order");
        }

        // Forwarding sources: ALU latches, address/memory latches, MAC
        // latches.
        let fwd: [PlaceId; 6] = [p_x1, p_x2, p_d1, p_d2, p_m2, p_mx];
        let flush_front: [PlaceId; 3] = [p_id, p_f2, p_f1];

        // Shared front-end shape per class: F1 -> F2 -> ID -> RF(read).
        let front = |b: &mut ModelBuilder<ArmTok, ArmRes>, c: OpClassId, tag: &str| {
            b.transition(c, &format!("{tag}_f2")).from(p_f1).to(p_f2).done();
            b.transition(c, &format!("{tag}_id")).from(p_f2).to(p_id).done();
        };
        // --- DataProc -----------------------------------------------------
        {
            let c = classes[ArmClass::DataProc as usize];
            front(&mut b, c, "dp");
            b.transition(c, "dp_rf")
                .from(p_id)
                .to(p_rf)
                .reads_state(p_x1)
                .reads_state(p_x2)
                .reads_state(p_d1)
                .reads_state(p_d2)
                .reads_state(p_m2)
                .reads_state(p_mx)
                .guard(move |m, t| ready(m, t, &fwd))
                .action(move |m, t, fx| acquire(m, t, fx, &fwd))
                .done();
            b.transition(c, "dp_x1")
                .from(p_rf)
                .to(p_x1)
                .action(move |m, t, fx| exec_dataproc(m, t, fx, &flush_front))
                .done();
            b.transition(c, "dp_x2").from(p_x1).to(p_x2).done();
            b.transition(c, "dp_xwb").from(p_x2).to(end).action(exec_writeback).done();
        }

        // --- Mul (MAC pipe) -----------------------------------------------
        {
            let c = classes[ArmClass::Mul as usize];
            front(&mut b, c, "mul");
            b.transition(c, "mul_rf")
                .from(p_id)
                .to(p_rf)
                .reads_state(p_x1)
                .reads_state(p_x2)
                .reads_state(p_d1)
                .reads_state(p_d2)
                .reads_state(p_m2)
                .reads_state(p_mx)
                .guard(move |m, t| ready(m, t, &fwd))
                .action(move |m, t, fx| acquire(m, t, fx, &fwd))
                .done();
            b.transition(c, "mul_m1").from(p_rf).to(p_m1).done();
            b.transition(c, "mul_m2").from(p_m1).to(p_m2).action(exec_mul).done();
            b.transition(c, "mul_mx").from(p_m2).to(p_mx).done();
            b.transition(c, "mul_mwb").from(p_mx).to(end).action(exec_writeback).done();
        }

        // --- LoadStore (memory pipe) --------------------------------------
        {
            let c = classes[ArmClass::LdSt as usize];
            front(&mut b, c, "ld");
            b.transition(c, "ld_rf")
                .from(p_id)
                .to(p_rf)
                .reads_state(p_x1)
                .reads_state(p_x2)
                .reads_state(p_d1)
                .reads_state(p_d2)
                .reads_state(p_m2)
                .reads_state(p_mx)
                .guard(move |m, t| ready(m, t, &fwd))
                .action(move |m, t, fx| acquire(m, t, fx, &fwd))
                .done();
            b.transition(c, "ld_d1").from(p_rf).to(p_d1).action(exec_addr).done();
            b.transition(c, "ld_d2")
                .from(p_d1)
                .to(p_d2)
                .action(move |m, t, fx| exec_mem(m, t, fx, &flush_front))
                .done();
            b.transition(c, "ld_dwb").from(p_d2).to(end).action(exec_writeback).done();
        }

        // --- LoadStoreMultiple --------------------------------------------
        {
            let c = classes[ArmClass::LdStM as usize];
            front(&mut b, c, "ldm");
            b.transition(c, "ldm_rf")
                .from(p_id)
                .to(p_rf)
                .reads_state(p_x1)
                .reads_state(p_x2)
                .reads_state(p_d1)
                .reads_state(p_d2)
                .reads_state(p_m2)
                .reads_state(p_mx)
                .guard(move |m, t| ready(m, t, &fwd))
                .action(move |m, t, fx| {
                    acquire(m, t, fx, &fwd);
                    exec_block_addr(m, t, fx);
                })
                .done();
            b.transition(c, "ldm_skip")
                .from(p_rf)
                .to(end)
                .priority(0)
                .guard(ldm_bubble)
                .action(|m, t, fx| {
                    annul(m, t, fx);
                    m.res.instr_done += 1;
                })
                .done();
            let p_rf_cont = p_rf;
            b.transition(c, "ldm_uop")
                .from(p_rf)
                .to(p_d1)
                .priority(1)
                .reads_state(p_x1)
                .reads_state(p_x2)
                .reads_state(p_d1)
                .reads_state(p_d2)
                .reads_state(p_m2)
                .reads_state(p_mx)
                .guard(move |m, t| ldm_uop_ready(m, t, &fwd))
                .action(move |m, t, fx| ldm_uop_issue(m, t, fx, &fwd, p_rf_cont))
                .done();
            b.transition(c, "ldm_d2")
                .from(p_d1)
                .to(p_d2)
                .action(move |m, t, fx| exec_mem(m, t, fx, &flush_front))
                .done();
            b.transition(c, "ldm_dwb").from(p_d2).to(end).action(exec_writeback).done();
        }

        // --- Branch -------------------------------------------------------
        {
            let c = classes[ArmClass::Branch as usize];
            front(&mut b, c, "br");
            b.transition(c, "br_rf")
                .from(p_id)
                .to(p_rf)
                .guard(|m, t| ready(m, t, &[]))
                .action(|m, t, fx| acquire(m, t, fx, &[]))
                .done();
            b.transition(c, "br_x1")
                .from(p_rf)
                .to(p_x1)
                .action(move |m, t, fx| exec_branch(m, t, fx, &flush_front))
                .done();
            b.transition(c, "br_x2").from(p_x1).to(p_x2).done();
            b.transition(c, "br_xwb").from(p_x2).to(end).action(exec_writeback).done();
        }

        // --- System -------------------------------------------------------
        {
            let c = classes[ArmClass::System as usize];
            front(&mut b, c, "sys");
            b.transition(c, "sys_rf")
                .from(p_id)
                .to(p_rf)
                .reads_state(p_x1)
                .reads_state(p_x2)
                .reads_state(p_d1)
                .reads_state(p_d2)
                .reads_state(p_m2)
                .reads_state(p_mx)
                .guard(move |m, t| ready(m, t, &fwd))
                .action(move |m, t, fx| acquire(m, t, fx, &fwd))
                .done();
            b.transition(c, "sys_x1")
                .from(p_rf)
                .to(p_x1)
                .action(move |m, t, fx| exec_system(m, t, fx, &flush_front))
                .done();
            b.transition(c, "sys_x2").from(p_x1).to(p_x2).done();
            b.transition(c, "sys_xwb").from(p_x2).to(end).action(exec_writeback).done();
        }

        // --- Instruction-independent sub-net (fetch, BTB-predicted) -------
        b.source("fetch").to(p_f1).guard(fetch_ready).produce(fetch_produce).done();

        b.on_squash(clear_serialize);

        let model = b.build().expect("XScale model validates");
        CompiledModel::compile_with(model, config.engine.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xscale_model_shape() {
        let p = arm_isa::asm::assemble("mov r0, #1\nswi #0\n").unwrap();
        let engine = build(&p, &SimConfig::xscale());
        let model = engine.model();
        assert_eq!(model.subnet_count(), 6);
        // Deeper pipeline than StrongARM: 11 pipeline places + end.
        assert_eq!(model.place_count(), 12);
        // All six forwarding latches are two-list; the front end is not.
        let a = model.analysis();
        for name in ["X1", "X2", "D1", "D2", "M2", "Mx"] {
            assert!(a.is_two_list(model.find_place(name).unwrap()), "{name} must be two-list");
        }
        for name in ["F1", "F2", "ID"] {
            assert!(!a.is_two_list(model.find_place(name).unwrap()), "{name} single-list");
        }
    }
}
