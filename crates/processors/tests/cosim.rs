//! Co-simulation: the cycle-accurate RCPN models must produce exactly the
//! architectural results of the functional ISS (gold model) — same exit
//! code, same registers, same output bytes — on programs exercising every
//! operation class and hazard type.

use arm_isa::asm::assemble;
use arm_isa::iss::Iss;
use arm_isa::program::Program;
use processors::sim::{CaSim, ProcModel};

/// Runs a program on the ISS and every registered CA model; checks
/// architectural agreement and returns the (strongarm, xscale) results
/// (the pair the timing-relationship assertions reason about).
fn cosim(src: &str) -> (processors::SimResult, processors::SimResult) {
    let program: Program = assemble(src).expect("assembles");

    let mut iss = Iss::from_program(&program);
    iss.run(2_000_000).expect("ISS runs clean");
    assert!(iss.halted(), "gold model must exit");

    let mut results = Vec::new();
    for proc in ProcModel::ALL {
        let name = proc.label();
        let mut ca = CaSim::with_config(proc, &program, &proc.default_config());
        let result = ca.run(20_000_000);
        assert_eq!(result.fault, None, "{name} faulted");
        assert_eq!(result.exit, Some(iss.exit_code()), "{name} exit code differs from ISS");
        assert_eq!(ca.output(), iss.output(), "{name} output differs");
        for r in 0..13 {
            assert_eq!(
                ca.reg(r),
                iss.regs[r],
                "{name} r{r} differs from ISS (iss={:#x} ca={:#x})",
                iss.regs[r],
                ca.reg(r)
            );
        }
        assert_eq!(result.instrs, iss.instr_count(), "{name} instruction count differs from ISS");
        results.push((proc, result));
    }
    let pick = |target: ProcModel| {
        results.iter().find(|(p, _)| *p == target).expect("registry model ran").1.clone()
    };
    (pick(ProcModel::StrongArm), pick(ProcModel::XScale))
}

#[test]
fn straightline_alu() {
    let (sa, xs) = cosim(
        "mov r0, #10
         add r0, r0, #32
         sub r1, r0, #2
         orr r0, r0, r1
         eor r0, r0, r1, lsl #2
         swi #0",
    );
    assert!(sa.cycles > 0 && xs.cycles > sa.cycles, "deeper pipe takes longer to drain");
}

#[test]
fn raw_hazard_chain() {
    cosim(
        "mov r0, #1
         add r1, r0, r0
         add r2, r1, r1
         add r3, r2, r2
         add r0, r3, r3
         swi #0",
    );
}

#[test]
fn flags_and_conditionals() {
    cosim(
        "mov r0, #5
         cmp r0, #5
         moveq r1, #1
         movne r1, #2
         cmp r0, #9
         addlt r1, r1, #10
         addge r1, r1, #100
         mov r0, r1
         swi #0",
    );
}

#[test]
fn loops_and_branches() {
    let (sa, _) = cosim(
        "    mov r0, #0
             mov r1, #50
        top: add r0, r0, r1
             subs r1, r1, #1
             bne top
             swi #0",
    );
    // 50 iterations of 3 instructions plus prologue: CPI must be sane.
    assert!(sa.cpi() > 1.0 && sa.cpi() < 6.0, "cpi = {}", sa.cpi());
}

#[test]
fn function_call_and_return() {
    cosim(
        "    mov r0, #3
             bl double
             bl double
             swi #0
        double:
             add r0, r0, r0
             mov pc, lr",
    );
}

#[test]
fn memory_roundtrip() {
    cosim(
        "    ldr r1, =buf
             mov r0, #11
             str r0, [r1]
             mov r2, #22
             str r2, [r1, #4]
             ldr r3, [r1]
             ldr r4, [r1, #4]
             add r0, r3, r4
             swi #0
        buf: .space 16",
    );
}

#[test]
fn byte_and_halfword_access() {
    cosim(
        "    ldr r1, =data
             ldrb r0, [r1]
             ldrb r2, [r1, #1]
             add r0, r0, r2
             ldrh r3, [r1, #2]
             add r0, r0, r3
             ldrsb r4, [r1, #4]
             add r0, r0, r4
             ldrsh r5, [r1, #6]
             add r0, r0, r5
             strh r0, [r1, #8]
             ldrh r6, [r1, #8]
             mov r0, r6
             swi #0
        data: .byte 5, 7
             .half 300
             .byte 0xFF, 0      ; -1 as signed byte
             .half 0x8000       ; negative as signed halfword
             .space 8",
    );
}

#[test]
fn pre_post_index_writeback() {
    cosim(
        "    ldr r1, =arr
             mov r0, #0
             mov r2, #4
        lp:  ldr r3, [r1], #4
             add r0, r0, r3
             subs r2, r2, #1
             bne lp
             ldr r4, [r1, #-16]!
             add r0, r0, r4
             swi #0
        arr: .word 10, 20, 30, 40",
    );
}

#[test]
fn block_transfers() {
    cosim(
        "    mov r0, #1
             mov r1, #2
             mov r2, #3
             mov r3, #4
             ldr r4, =save
             stmia r4, {r0-r3}
             mov r0, #0
             mov r1, #0
             mov r2, #0
             mov r3, #0
             ldmia r4, {r0-r3}
             add r0, r0, r1
             add r0, r0, r2
             add r0, r0, r3
             swi #0
        save: .space 16",
    );
}

/// Block transfers with an empty register list, as raw words (the
/// assembler rejects `{}`): `ldmia r0, {}`, `ldmia r0!, {}` right after a
/// write to its base, and `stmdb sp!, {}`. The ISS moves no data and
/// writes the base back unchanged (a zero-byte window); every model must
/// retire each one as a one-cycle bubble with the same registers, exit
/// and instruction count, instead of panicking on an empty list.
#[test]
fn empty_register_list_block_transfers() {
    cosim(
        "    mov r0, #7
             ldr r2, =buf
             .word 0xE8900000    ; ldmia r0, {}
             mov r0, r2
             .word 0xE8B00000    ; ldmia r0!, {}
             sub r3, r0, r2      ; base unchanged: 0
             mov r4, sp
             .word 0xE92D0000    ; stmdb sp!, {}
             sub r4, r4, sp      ; sp unchanged: 0
             ldr r5, [r2]
             mov r0, #7
             add r0, r0, r3
             add r0, r0, r4
             add r0, r0, r5
             swi #0
        buf: .word 0",
    );
}

#[test]
fn push_pop_calls() {
    cosim(
        "    mov r0, #7
             bl f
             swi #0
        f:   push {r4, lr}
             mov r4, r0
             bl g
             add r0, r0, r4
             pop {r4, pc}
        g:   add r0, r0, #1
             mov pc, lr",
    );
}

#[test]
fn multiplies() {
    cosim(
        "    mov r0, #7
             mov r1, #6
             mul r2, r0, r1
             mla r3, r0, r1, r2
             mov r4, #0xFF
             orr r4, r4, r4, lsl #8 ; 0xFFFF
             umull r5, r6, r4, r4
             add r0, r2, r3
             add r0, r0, r5
             add r0, r0, r6
             swi #0",
    );
}

#[test]
fn long_dependent_memory_chain() {
    // Pointer chasing: every load depends on the previous one.
    cosim(
        "    ldr r1, =n0
             mov r0, #0
             mov r2, #3
        lp:  ldr r1, [r1]
             subs r2, r2, #1
             bne lp
             ldr r0, [r1, #4]
             swi #0
        n0:  .word n1, 0
        n1:  .word n2, 0
        n2:  .word n3, 0
        n3:  .word n3, 99",
    );
}

#[test]
fn store_load_forwarding_through_memory() {
    cosim(
        "    ldr r1, =slot
             mov r0, #123
             str r0, [r1]
             ldr r2, [r1]
             add r0, r2, #1
             swi #0
        slot: .word 0",
    );
}

#[test]
fn output_syscalls() {
    let (_, _) = cosim(
        "    mov r0, #'h'
             swi #1
             mov r0, #'i'
             swi #1
             mov r0, #42
             swi #2
             mov r0, #0
             swi #0",
    );
}

/// The value-returning semihosting calls (`swi #4` GETC, `swi #6` BRK)
/// through the cycle-accurate pipelines: the r0 write must participate in
/// the scoreboard (the `add` right after each call is a RAW hazard on the
/// SWI's destination), and every model must agree with the ISS.
/// `swi #5` (CLOCK) is excluded: its value is timing-model-dependent by
/// design and is covered by `clock_swi_is_monotonic_and_model_dependent`.
#[test]
fn input_and_brk_syscalls() {
    let src = "   mov r4, #0
             loop:
             swi #4
             cmn r0, #1
             beq done
             add r4, r4, r0
             b loop
             done:
             mov r0, #0
             swi #6
             add r5, r0, #128
             mov r0, r5
             swi #6
             add r6, r0, #0
             mov r0, r4
             swi #0";
    let program: Program = assemble(src).expect("assembles");
    let input = b"\x05\x07\x0B".to_vec();

    let mut iss = Iss::from_program(&program);
    iss.set_input(input.clone());
    iss.run(2_000_000).expect("ISS runs clean");
    assert!(iss.halted());
    assert_eq!(iss.exit_code(), 0x17, "checksum of the input bytes");

    for proc in ProcModel::ALL {
        let name = proc.label();
        let mut ca = CaSim::with_config(proc, &program, &proc.default_config());
        ca.set_input(input.clone());
        let result = ca.run(20_000_000);
        assert_eq!(result.fault, None, "{name} faulted");
        assert_eq!(result.exit, Some(iss.exit_code()), "{name} exit differs");
        assert_eq!(ca.unknown_swis(), 0, "{name} saw no unknown SWIs");
        for r in 0..13 {
            assert_eq!(ca.reg(r), iss.regs[r], "{name} r{r} differs from ISS");
        }
        assert_eq!(ca.res().brk, iss.brk(), "{name} break position differs");
    }
}

/// `swi #5` reads the simulator clock: monotonically increasing within a
/// run, and *different* across timing models (cycles on the CA pipelines,
/// instructions on the ISS) — divergence here is the documented contract.
#[test]
fn clock_swi_is_monotonic_and_model_dependent() {
    let src = "   swi #5
             mov r4, r0
             swi #5
             sub r0, r0, r4
             swi #0";
    let program: Program = assemble(src).expect("assembles");
    let mut iss = Iss::from_program(&program);
    iss.run(1_000).expect("ISS runs clean");
    assert_eq!(iss.exit_code(), 2, "ISS clock is retired instructions: two apart");
    for proc in ProcModel::ALL {
        let mut ca = CaSim::with_config(proc, &program, &proc.default_config());
        let result = ca.run(1_000_000);
        assert_eq!(result.fault, None, "{} faulted", proc.label());
        let delta = result.exit.expect("exits");
        assert!(delta > 0, "{}: clock must advance between reads", proc.label());
    }
}

/// Unknown SWIs are counted — not silent — on every model and the ISS.
#[test]
fn unknown_swis_are_counted_everywhere() {
    let src = "   swi #99
             swi #200
             mov r0, #3
             swi #0";
    let program: Program = assemble(src).expect("assembles");
    let mut iss = Iss::from_program(&program);
    iss.run(1_000).expect("ISS runs clean");
    assert_eq!(iss.exit_code(), 3);
    assert_eq!(iss.unknown_swis(), 2);
    for proc in ProcModel::ALL {
        let mut ca = CaSim::with_config(proc, &program, &proc.default_config());
        let result = ca.run(1_000_000);
        assert_eq!(result.exit, Some(3), "{}", proc.label());
        assert_eq!(ca.unknown_swis(), 2, "{} must count unknown SWIs", proc.label());
    }
}

#[test]
fn shift_by_register_and_rrx() {
    cosim(
        "    mov r0, #1
             mov r1, #4
             mov r2, r0, lsl r1     ; 16
             movs r3, r2, lsr #1    ; 8, C=0
             mov r4, r2, rrx        ; 8
             add r0, r2, r3
             add r0, r0, r4
             swi #0",
    );
}

#[test]
fn xscale_out_of_order_completion_preserves_results() {
    // A load (long miss path) followed by independent ALU work: completion
    // is out of order on XScale but architectural state must match.
    cosim(
        "    ldr r1, =data
             ldr r2, [r1]        ; memory pipe
             mov r3, #5          ; completes earlier in X pipe
             add r4, r3, #6
             add r0, r2, r4
             swi #0
        data: .word 1000",
    );
}

#[test]
fn dense_hazard_mix() {
    // A stress mix: every class, every hazard family, in a loop.
    cosim(
        "    ldr r4, =table
             mov r5, #0          ; checksum
             mov r6, #8          ; iterations
        loop:
             ldr r0, [r4], #4
             add r1, r0, r0, lsl #2
             mul r2, r1, r0
             str r2, [r4, #28]
             ldr r3, [r4, #28]
             cmp r3, r2
             addeq r5, r5, r3
             subs r6, r6, #1
             bne loop
             mov r0, r5
             swi #0
        table: .word 1, 2, 3, 4, 5, 6, 7, 8
             .space 64",
    );
}
