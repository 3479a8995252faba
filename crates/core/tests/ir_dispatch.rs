//! Behavioral tests for the micro-op IR dispatch path: per-op semantics,
//! the fold/fusion pass, bit-identity between the IR, fused-IR and
//! closure representations of the same model, and program validation.
//!
//! The processor crates pin the same contract on the real ARM models
//! (`spec_oracle`); these tests pin it on minimal hand-built models where
//! a divergence localizes to a single micro-op.

use std::cell::RefCell;
use std::collections::VecDeque;

use rcpn::compiled::CompiledModel;
use rcpn::error::BuildError;
use rcpn::prelude::*;

/// Token with one destination and two sources — enough for RAW/WAW
/// hazards and forwarding.
#[derive(Debug, Clone)]
struct Tok {
    class: OpClassId,
    srcs: [Operand; 2],
    dst: Operand,
}

impl InstrData for Tok {
    fn op_class(&self) -> OpClassId {
        self.class
    }
    fn src_operands(&self) -> &[Operand] {
        &self.srcs
    }
    fn src_operands_mut(&mut self) -> &mut [Operand] {
        &mut self.srcs
    }
    fn dst_count(&self) -> usize {
        1
    }
    fn dst_operand(&self, i: usize) -> &Operand {
        assert_eq!(i, 0);
        &self.dst
    }
    fn dst_operand_mut(&mut self, i: usize) -> &mut Operand {
        assert_eq!(i, 0);
        &mut self.dst
    }
}

/// Per-engine program feed.
#[derive(Debug, Default)]
struct Feed {
    q: RefCell<VecDeque<Tok>>,
}

fn feed_machine(n: usize) -> Machine<Feed> {
    let mut rf = RegisterFile::new();
    let regs = rf.add_bank("r", 4);
    let feed = Feed::default();
    {
        let mut q = feed.q.borrow_mut();
        for i in 0..n {
            // tok i: dst r[(i+2)%4] <- r[i%4] + r[(i+1)%4]; the rolling
            // pattern creates RAW hazards resolved via forwarding and WAW
            // hazards resolved by stalling.
            q.push_back(Tok {
                class: OpClassId::from_index(0),
                srcs: [Operand::reg(regs[i % 4]), Operand::reg(regs[(i + 1) % 4])],
                dst: Operand::reg(regs[(i + 2) % 4]),
            });
        }
    }
    let mut m = Machine::new(rf, feed);
    for (i, &r) in regs.iter().enumerate() {
        m.regs.poke(r, i as u32 + 1);
    }
    m
}

/// How the three-stage test pipeline represents its issue (read) step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flavor {
    /// `[CheckReady]` guard + `[AcquireOperands]` action — fuses.
    IrFused,
    /// `[CheckReady, CallHook(true)]` guard — same semantics, unfusable.
    IrUnfused,
    /// The closure twin of the same discipline.
    Closure,
}

/// P1 --issue--> P2 --exec--> P3 --wb--> end, forwarding from P3.
fn pipeline(flavor: Flavor) -> Model<Tok, Feed> {
    let mut b = ModelBuilder::<Tok, Feed>::new();
    let s1 = b.stage("S1", 1);
    let s2 = b.stage("S2", 1);
    let s3 = b.stage("S3", 1);
    let p1 = b.place("P1", s1);
    let p2 = b.place("P2", s2);
    let p3 = b.place("P3", s3);
    let end = b.end_place();
    let (alu, _) = b.class_net("Alu");
    let mask = rcpn::ir::place_mask(&[p3]).expect("small net");

    let true_hook = b.hook_guard(|_m, _t| true);
    let tb = b.transition(alu, "issue").from(p1).to(p2).reads_state(p3);
    match flavor {
        Flavor::IrFused => tb
            .guard_ir(Program::new(vec![MicroOp::CheckReady { fwd_mask: mask }]))
            .action_ir(Program::new(vec![MicroOp::AcquireOperands { fwd_mask: mask }]))
            .done(),
        Flavor::IrUnfused => tb
            .guard_ir(Program::new(vec![
                MicroOp::CheckReady { fwd_mask: mask },
                MicroOp::CallHook(true_hook),
            ]))
            .action_ir(Program::new(vec![MicroOp::AcquireOperands { fwd_mask: mask }]))
            .done(),
        Flavor::Closure => tb
            .guard(move |m, t: &Tok| {
                t.srcs.iter().all(|s| s.can_read(&m.regs) || s.can_read_in(&m.regs, p3))
                    && t.dst.can_write(&m.regs)
            })
            .action(move |m, t, fx| {
                for s in &mut t.srcs {
                    if s.can_read(&m.regs) {
                        s.read(&m.regs);
                    } else {
                        s.read_fwd(&m.regs);
                    }
                }
                let tok = fx.token();
                t.dst.reserve_write(&mut m.regs, tok, PlaceId::from_index(0));
            })
            .done(),
    };
    b.transition(alu, "exec")
        .from(p2)
        .to(p3)
        .action(|m, t, fx| {
            let v = t.srcs[0].value().wrapping_add(t.srcs[1].value());
            let tok = fx.token();
            t.dst.set(&mut m.regs, tok, v);
        })
        .done();
    b.transition(alu, "wb")
        .from(p3)
        .to(end)
        .action(|m, t, fx| t.dst.writeback(&mut m.regs, fx.token()))
        .done();
    b.source("feed").to(p1).produce(|m, _fx| m.res.q.borrow_mut().pop_front()).done();
    b.build().expect("pipeline validates")
}

struct Outcome {
    trace: Vec<rcpn::engine::TraceEvent>,
    stats: Stats,
    sched: SchedStats,
    regs: Vec<u32>,
}

fn run(compiled: &CompiledModel<Tok, Feed>, n_toks: usize, cycles: u64) -> Outcome {
    let mut e = compiled.instantiate(feed_machine(n_toks));
    e.run(cycles);
    let regs = (0..4).map(|i| e.machine().regs.value_of(RegId::from_index(i))).collect();
    Outcome { trace: e.take_trace(), stats: e.stats().clone(), sched: e.sched().clone(), regs }
}

fn traced(cfg: EngineConfig) -> EngineConfig {
    EngineConfig { trace: true, ..cfg }
}

/// The heart of the refactor: the IR representation (fused and unfused)
/// and the closure representation of the same read step simulate
/// bit-identically — trace, `Stats`, normalized `SchedStats` and final
/// architectural state — while the raw dispatch counters expose which
/// representation ran.
#[test]
fn ir_fused_unfused_and_closure_read_steps_are_bit_identical() {
    let compile =
        |f: Flavor| CompiledModel::compile_with(pipeline(f), traced(EngineConfig::default()));
    let fused = compile(Flavor::IrFused);
    let unfused = compile(Flavor::IrUnfused);
    let closure = compile(Flavor::Closure);

    assert_eq!(fused.fused_transitions(), 1, "the CheckReady+Acquire pair must fuse");
    assert_eq!(unfused.fused_transitions(), 0, "a two-op guard must not fuse");
    assert!(unfused.ir_transitions() > 0);
    assert_eq!(closure.ir_transitions(), 0);

    let (a, b, c) = (run(&fused, 12, 60), run(&unfused, 12, 60), run(&closure, 12, 60));
    assert!(a.stats.retired >= 12, "workload must drain: {}", a.stats.summary());
    assert!(a.stats.guard_fails > 0, "hazards must exercise the guard-fail path");

    for (name, o) in [("unfused", &b), ("closure", &c)] {
        assert_eq!(a.trace, o.trace, "fused vs {name}: trace");
        assert_eq!(a.stats, o.stats, "fused vs {name}: Stats");
        assert_eq!(
            a.sched.dispatch_normalized(),
            o.sched.dispatch_normalized(),
            "fused vs {name}: normalized SchedStats"
        );
        assert_eq!(a.regs, o.regs, "fused vs {name}: architectural state");
    }

    assert!(a.sched.actions_fused > 0, "fused acquires must fire");
    assert_eq!(a.sched.actions_fused, a.stats.fires[0], "every issue fire is fused");
    assert_eq!(b.sched.actions_fused, 0);
    assert!(a.sched.guard_ir_evals > 0 && b.sched.guard_ir_evals > 0);
    assert_eq!(c.sched.guard_ir_evals, 0);
    assert_eq!(a.sched.guard_evals(), c.sched.guard_evals());
}

/// The identity holds under every compiled variant, not just the default.
#[test]
fn ir_vs_closure_identity_across_table_modes_and_schedulers() {
    let configs = [
        EngineConfig { table_mode: TableMode::PerPlace, ..Default::default() },
        EngineConfig { table_mode: TableMode::FullScan, ..Default::default() },
        EngineConfig { two_list_everywhere: true, ..Default::default() },
        EngineConfig { scheduler: SchedulerMode::Exhaustive, ..Default::default() },
    ];
    for cfg in configs {
        let a = run(
            &CompiledModel::compile_with(pipeline(Flavor::IrFused), traced(cfg.clone())),
            9,
            50,
        );
        let b = run(
            &CompiledModel::compile_with(pipeline(Flavor::Closure), traced(cfg.clone())),
            9,
            50,
        );
        assert_eq!(a.trace, b.trace, "{cfg:?}");
        assert_eq!(a.stats, b.stats, "{cfg:?}");
        assert_eq!(a.regs, b.regs, "{cfg:?}");
    }
}

/// Operand-less payload for the single-op chains.
#[derive(Debug)]
struct Plain;
impl InstrData for Plain {
    fn op_class(&self) -> OpClassId {
        OpClassId::from_index(0)
    }
}

/// Builds a trivial two-place chain whose single mid transition carries
/// `prog` as its IR action.
fn chain_with_action(prog: Program) -> Model<Plain, u64> {
    let mut b = ModelBuilder::<Plain, u64>::new();
    let s1 = b.stage("S1", 1);
    let s2 = b.stage("S2", 1);
    let p1 = b.place("P1", s1);
    let p2 = b.place("P2", s2);
    let end = b.end_place();
    let (c, _) = b.class_net("C");
    b.transition(c, "mid").from(p1).to(p2).action_ir(prog).done();
    b.transition(c, "out").from(p2).to(end).done();
    b.source("src")
        .to(p1)
        .produce(|m, _fx| {
            m.res += 1;
            (m.res <= 4).then_some(Plain)
        })
        .done();
    b.build().expect("chain validates")
}

#[test]
fn set_delay_op_extends_destination_residency() {
    // Without SetDelay a token needs 1 cycle in P2; with SetDelay(4) it
    // parks 4 cycles, which shows up as later retirement.
    let fast = chain_with_action(Program::new(vec![]));
    let slow = chain_with_action(Program::new(vec![MicroOp::SetDelay(4)]));
    let run = |model: Model<Plain, u64>| {
        let mut e = Engine::new(model, Machine::new(RegisterFile::new(), 0u64));
        e.run(30);
        e.stats().clone()
    };
    let (f, s) = (run(fast), run(slow));
    assert_eq!(f.retired, s.retired, "delay changes timing, not outcome");
    // Occupancy proxy: more total cycles where tokens sit in flight means
    // the stalled pipe backs up into stalls.
    assert!(s.stalls > f.stalls, "longer residency must back the pipe up: {f:?} vs {s:?}");
}

#[test]
fn emit_redirect_op_flushes_places_like_fx_flush() {
    // The mid transition squashes P1 every time it fires: with a
    // capacity-4 front stage and a width-2 source, younger tokens are
    // resident behind the firing one and get flushed.
    let mut b = ModelBuilder::<Plain, u64>::new();
    let s1 = b.stage("S1", 4);
    let s2 = b.stage("S2", 1);
    let p1 = b.place("P1", s1);
    let p2 = b.place("P2", s2);
    let end = b.end_place();
    let (c, _) = b.class_net("C");
    b.transition(c, "mid")
        .from(p1)
        .to(p2)
        .action_ir(Program::new(vec![MicroOp::EmitRedirect { flush: Box::from([p1]) }]))
        .done();
    b.transition(c, "out").from(p2).to(end).done();
    b.source("src")
        .to(p1)
        .width(2)
        .produce(|m, _fx| {
            m.res += 1;
            Some(Plain)
        })
        .done();
    let model = b.build().expect("validates");
    let mut e = Engine::new(model, Machine::new(RegisterFile::new(), 0u64));
    e.run(40);
    assert!(e.stats().flushed > 0, "EmitRedirect must squash: {}", e.stats().summary());
    assert_eq!(
        e.stats().generated,
        e.stats().retired + e.stats().flushed + e.live_tokens() as u64,
        "every token either retires, is squashed, or is in flight"
    );
}

#[test]
fn reserve_res_op_matches_static_reservation_arc() {
    // Twin models: a ResArc `.reserve(p2, 3)` vs an IR `ReserveRes` with
    // the same target — identical Stats (including reservation counts and
    // the capacity blocks the occupied destination stage causes: the next
    // mid firing is rejected until the reservation expires).
    let build = |via_ir: bool| {
        let mut b = ModelBuilder::<Plain, u64>::new();
        let s1 = b.stage("S1", 1);
        let s2 = b.stage("S2", 1);
        let p1 = b.place("P1", s1);
        let p2 = b.place("P2", s2);
        let end = b.end_place();
        let (c, _) = b.class_net("C");
        let tb = b.transition(c, "mid").from(p1).to(p2);
        if via_ir {
            tb.action_ir(Program::new(vec![MicroOp::ReserveRes { place: p2, expire: 3 }])).done();
        } else {
            tb.reserve(p2, 3).done();
        }
        b.transition(c, "out").from(p2).to(end).done();
        b.source("src")
            .to(p1)
            .produce(|m, _fx| {
                m.res += 1;
                Some(Plain)
            })
            .done();
        let model = b.build().expect("validates");
        let mut e = Engine::new(model, Machine::new(RegisterFile::new(), 0u64));
        e.run(50);
        e.stats().clone()
    };
    let (ir, arc) = (build(true), build(false));
    assert!(ir.reservations > 0, "reservations must be created");
    assert!(ir.capacity_blocks > 0, "the occupied stage must block the source-fed place");
    assert_eq!(ir, arc, "ReserveRes must be bit-identical to the static ResArc");
}

#[test]
fn release_res_op_frees_the_scoreboard() {
    // Every token reserves r0 at issue; ReleaseRes on the mid transition
    // releases it, so the next token can issue immediately. Without the
    // release, each token would hold r0 to retirement and the guard would
    // serialize harder.
    let build = |release: bool| {
        let mut b = ModelBuilder::<Tok, Feed>::new();
        let s1 = b.stage("S1", 1);
        let s2 = b.stage("S2", 1);
        let p1 = b.place("P1", s1);
        let p2 = b.place("P2", s2);
        let end = b.end_place();
        let (c, _) = b.class_net("Alu");
        let issue = b
            .transition(c, "issue")
            .from(p1)
            .to(p2)
            .guard_ir(Program::new(vec![MicroOp::CheckReady { fwd_mask: 0 }]))
            .action_ir(Program::new(vec![MicroOp::AcquireOperands { fwd_mask: 0 }]));
        issue.done();
        let ops = if release { vec![MicroOp::ReleaseRes] } else { vec![] };
        b.transition(c, "out").from(p2).to(end).action_ir(Program::new(ops)).done();
        b.source("feed").to(p1).produce(|m, _fx| m.res.q.borrow_mut().pop_front()).done();
        let model = b.build().expect("validates");
        let m = feed_machine(0);
        {
            let mut q = m.res.q.borrow_mut();
            let r0 = m.regs.find("r0").unwrap();
            for _ in 0..5 {
                q.push_back(Tok {
                    class: OpClassId::from_index(0),
                    srcs: [Operand::Absent, Operand::Absent],
                    dst: Operand::reg(r0),
                });
            }
        }
        let mut e = Engine::new(model, m);
        e.run(40);
        (e.stats().clone(), e.machine().regs.reserved_cells())
    };
    let (with, cells_with) = build(true);
    let (without, cells_without) = build(false);
    assert_eq!(cells_with, 0, "ReleaseRes must leave no reservations behind");
    assert_eq!(cells_without, 0, "retire releases leftovers (leak counter)");
    assert!(without.leaked_reservations > 0, "without ReleaseRes the retire path force-releases");
    assert_eq!(with.leaked_reservations, 0, "ReleaseRes cleans up before retirement");
    assert_eq!(with.retired, without.retired);
}

#[test]
fn write_back_op_commits_destinations() {
    let mut b = ModelBuilder::<Tok, Feed>::new();
    let s1 = b.stage("S1", 1);
    let p1 = b.place("P1", s1);
    let end = b.end_place();
    let (c, _) = b.class_net("Alu");
    let exec_hook = b.hook_action(|m, t: &mut Tok, fx| {
        let v = t.srcs[0].value().wrapping_mul(10);
        let tok = fx.token();
        t.dst.set(&mut m.regs, tok, v);
    });
    b.transition(c, "all")
        .from(p1)
        .to(end)
        .guard_ir(Program::new(vec![MicroOp::CheckReady { fwd_mask: 0 }]))
        .action_ir(Program::new(vec![
            MicroOp::AcquireOperands { fwd_mask: 0 },
            MicroOp::CallHook(exec_hook),
            MicroOp::WriteBack,
        ]))
        .done();
    b.source("feed").to(p1).produce(|m, _fx| m.res.q.borrow_mut().pop_front()).done();
    let model = b.build().expect("validates");
    let mut m = feed_machine(0);
    {
        let r0 = m.regs.find("r0").unwrap();
        let r1 = m.regs.find("r1").unwrap();
        m.regs.poke(r0, 7);
        m.res.q.borrow_mut().push_back(Tok {
            class: OpClassId::from_index(0),
            srcs: [Operand::reg(r0), Operand::Absent],
            dst: Operand::reg(r1),
        });
    }
    let mut e = Engine::new(model, m);
    e.run(10);
    assert_eq!(e.stats().retired, 1);
    let r1 = e.machine().regs.find("r1").unwrap();
    assert_eq!(e.machine().regs.value_of(r1), 70, "acquire → hook → writeback pipeline");
    assert_eq!(e.machine().regs.reserved_cells(), 0, "WriteBack must clear the reservation");
    assert_eq!(e.stats().leaked_reservations, 0);
}

/// How the exec step makes its result bypassable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PublishFlavor {
    /// `Operand::set` in a closure-style hook — latch + publish at once.
    SetClosure,
    /// `Operand::set_value` in the hook, then a `Publish` micro-op.
    SetValueThenPublishOp,
    /// `Operand::set_value` only — the result is never published, so
    /// consumers must wait for the register-file commit at writeback.
    NoPublish,
}

/// The [`pipeline`] shape with the exec step's publish discipline split
/// out — compute into the latch, optionally publish, write back at retire
/// — and a pass-through stage between exec and writeback so publishing
/// opens a real forwarding window before the register-file commit.
fn publish_pipeline(flavor: PublishFlavor) -> Model<Tok, Feed> {
    let mut b = ModelBuilder::<Tok, Feed>::new();
    let s1 = b.stage("S1", 1);
    let s2 = b.stage("S2", 1);
    let s3 = b.stage("S3", 1);
    let s4 = b.stage("S4", 1);
    let p1 = b.place("P1", s1);
    let p2 = b.place("P2", s2);
    let p3 = b.place("P3", s3);
    let p4 = b.place("P4", s4);
    let end = b.end_place();
    let (alu, _) = b.class_net("Alu");
    let mask = rcpn::ir::place_mask(&[p3, p4]).expect("small net");
    let compute = b.hook_action(|_m, t: &mut Tok, _fx| {
        let v = t.srcs[0].value().wrapping_add(t.srcs[1].value());
        t.dst.set_value(v);
    });
    b.transition(alu, "issue")
        .from(p1)
        .to(p2)
        .reads_state(p3)
        .guard_ir(Program::new(vec![MicroOp::CheckReady { fwd_mask: mask }]))
        .action_ir(Program::new(vec![MicroOp::AcquireOperands { fwd_mask: mask }]))
        .done();
    let exec = b.transition(alu, "exec").from(p2).to(p3);
    match flavor {
        PublishFlavor::SetClosure => exec
            .action(|m, t, fx| {
                let v = t.srcs[0].value().wrapping_add(t.srcs[1].value());
                let tok = fx.token();
                t.dst.set(&mut m.regs, tok, v);
            })
            .done(),
        PublishFlavor::SetValueThenPublishOp => {
            exec.action_ir(Program::new(vec![MicroOp::CallHook(compute), MicroOp::Publish])).done()
        }
        PublishFlavor::NoPublish => {
            exec.action_ir(Program::new(vec![MicroOp::CallHook(compute)])).done()
        }
    };
    b.transition(alu, "mem").from(p3).to(p4).done();
    b.transition(alu, "wb")
        .from(p4)
        .to(end)
        .action(|m, t, fx| t.dst.writeback(&mut m.regs, fx.token()))
        .done();
    b.source("feed").to(p1).produce(|m, _fx| m.res.q.borrow_mut().pop_front()).done();
    b.build().expect("pipeline validates")
}

/// The `Publish` op is the exact publish half of `Operand::set`: a
/// `set_value` hook followed by `Publish` simulates bit-identically to a
/// closure doing `set`, while omitting the publish keeps results correct
/// but kills forwarding (consumers stall until the writeback commit).
#[test]
fn publish_op_matches_closure_publish_and_enables_forwarding() {
    let compile = |f: PublishFlavor| {
        CompiledModel::compile_with(publish_pipeline(f), traced(EngineConfig::default()))
    };
    let a = run(&compile(PublishFlavor::SetClosure), 12, 80);
    let b = run(&compile(PublishFlavor::SetValueThenPublishOp), 12, 80);
    // The unpublished pipe serializes on the register file, so give it
    // enough cycles to drain.
    let c = run(&compile(PublishFlavor::NoPublish), 12, 160);

    assert_eq!(a.trace, b.trace, "Publish op vs closure set: trace");
    assert_eq!(a.stats, b.stats, "Publish op vs closure set: Stats");
    assert_eq!(a.regs, b.regs, "Publish op vs closure set: architectural state");

    assert_eq!(a.stats.retired, c.stats.retired, "publishing never changes results");
    assert_eq!(a.regs, c.regs, "publishing never changes results");
    assert!(
        c.stats.stalls > a.stats.stalls,
        "without Publish, consumers must wait for writeback: {} vs {}",
        c.stats.stalls,
        a.stats.stalls
    );
}

/// Condition-checked payload for the `CheckCond`/`Annul` path.
#[derive(Debug, Clone)]
struct CondTok {
    pass: bool,
}

impl InstrData for CondTok {
    fn op_class(&self) -> OpClassId {
        OpClassId::from_index(0)
    }
    fn cond_passes(&self) -> bool {
        self.pass
    }
    fn set_annulled(&mut self) {}
}

/// `CheckCond` guards route tokens by their pre-resolved condition —
/// `expect: false` selects the annul path — and a single-candidate
/// `CheckCond` transition dispatches through a superblock, bit-identically
/// to the per-op interpreter.
#[test]
fn check_cond_routes_tokens_and_superblocks_stay_bit_identical() {
    let build = || {
        let mut b = ModelBuilder::<CondTok, RefCell<VecDeque<bool>>>::new();
        let s1 = b.stage("S1", 1);
        let s2 = b.stage("S2", 1);
        let p1 = b.place("P1", s1);
        let p2 = b.place("P2", s2);
        let end = b.end_place();
        let (c, _) = b.class_net("C");
        // Condition failed: annul and retire immediately (tid 0).
        b.transition(c, "skip")
            .from(p1)
            .to(end)
            .priority(0)
            .guard_ir(Program::new(vec![MicroOp::CheckCond { expect: false }]))
            .action_ir(Program::new(vec![MicroOp::Annul]))
            .done();
        // Condition passed: advance (tid 1).
        b.transition(c, "adv")
            .from(p1)
            .to(p2)
            .priority(1)
            .guard_ir(Program::new(vec![MicroOp::CheckCond { expect: true }]))
            .done();
        // Single candidate with a CheckCond guard: forms a superblock
        // with a non-empty guard range (tid 2).
        b.transition(c, "out")
            .from(p2)
            .to(end)
            .guard_ir(Program::new(vec![MicroOp::CheckCond { expect: true }]))
            .done();
        b.source("feed")
            .to(p1)
            .produce(|m, _fx| m.res.borrow_mut().pop_front().map(|pass| CondTok { pass }))
            .done();
        b.build().expect("validates")
    };
    let feed: Vec<bool> = (0..10).map(|i| i % 3 != 0).collect();
    let n_pass = feed.iter().filter(|&&p| p).count() as u64;
    let n_fail = feed.len() as u64 - n_pass;
    let outcome = |superblocks: bool| {
        let cfg = traced(EngineConfig { superblocks, ..Default::default() });
        let compiled = CompiledModel::compile_with(build(), cfg);
        assert_eq!(
            compiled.superblocks() > 0,
            superblocks,
            "sb tables must exist iff superblocks are enabled"
        );
        let mut e = compiled
            .instantiate(Machine::new(RegisterFile::new(), RefCell::new(feed.clone().into())));
        e.run(60);
        assert_eq!(e.stats().fires[0], n_fail, "skip fires once per failed condition");
        assert_eq!(e.stats().fires[1], n_pass, "adv fires once per passed condition");
        assert_eq!(e.stats().fires[2], n_pass, "out fires once per advanced token");
        assert_eq!(e.stats().retired, n_pass + n_fail);
        (e.take_trace(), e.stats().clone(), e.sched().clone())
    };
    let (sb_trace, sb_stats, sb_sched) = outcome(true);
    let (po_trace, po_stats, po_sched) = outcome(false);
    assert_eq!(sb_trace, po_trace, "superblocks must not change the trace");
    assert_eq!(sb_stats, po_stats, "superblocks must not change Stats");
    assert_eq!(sb_sched.dispatch_normalized(), po_sched.dispatch_normalized());
    assert_eq!(sb_sched.superblocks_entered, n_pass, "out dispatches through its superblock");
    assert!(sb_sched.ops_inlined >= n_pass, "the CheckCond guard op is interpreted inline");
    assert_eq!(po_sched.superblocks_entered, 0);
    assert_eq!(po_sched.ops_inlined, 0);
}

#[test]
fn invalid_programs_are_build_errors() {
    let build = |guard: Option<Program>, action: Option<Program>| {
        let mut b = ModelBuilder::<Plain, u64>::new();
        let s1 = b.stage("S1", 1);
        let p1 = b.place("P1", s1);
        let end = b.end_place();
        let (c, _) = b.class_net("C");
        let mut tb = b.transition(c, "t").from(p1).to(end);
        if let Some(g) = guard {
            tb = tb.guard_ir(g);
        }
        if let Some(a) = action {
            tb = tb.action_ir(a);
        }
        tb.done();
        b.source("s").to(p1).produce(|_m, _fx| None).done();
        b.build()
    };
    // Mutating op in a guard program.
    let e = build(Some(Program::new(vec![MicroOp::AcquireOperands { fwd_mask: 0 }])), None)
        .unwrap_err();
    assert!(matches!(e, BuildError::InvalidProgram { .. }), "{e}");
    assert!(e.to_string().contains("non-guard op"), "{e}");
    // CheckReady in an action program.
    let e = build(None, Some(Program::new(vec![MicroOp::CheckReady { fwd_mask: 0 }]))).unwrap_err();
    assert!(e.to_string().contains("non-action op"), "{e}");
    // Dangling hook indices, both tables.
    let e = build(Some(Program::new(vec![MicroOp::CallHook(3)])), None).unwrap_err();
    assert!(e.to_string().contains("hook 3"), "{e}");
    let e = build(None, Some(Program::new(vec![MicroOp::CallHook(0)]))).unwrap_err();
    assert!(e.to_string().contains("hook 0"), "{e}");
    // Dangling place in a program op.
    let e = build(
        None,
        Some(Program::new(vec![MicroOp::ReserveRes { place: PlaceId::from_index(99), expire: 1 }])),
    )
    .unwrap_err();
    assert!(matches!(e, BuildError::UnknownPlace { .. }), "{e}");
    // An acquire without a matching CheckReady guard would silently latch
    // stale operand values in release builds; both the unguarded and the
    // mask-mismatched forms are rejected at build time.
    let e = build(None, Some(Program::new(vec![MicroOp::AcquireOperands { fwd_mask: 1 }])))
        .unwrap_err();
    assert!(e.to_string().contains("requires a CheckReady"), "{e}");
    let e = build(
        Some(Program::new(vec![MicroOp::CheckReady { fwd_mask: 2 }])),
        Some(Program::new(vec![MicroOp::AcquireOperands { fwd_mask: 1 }])),
    )
    .unwrap_err();
    assert!(e.to_string().contains("requires a CheckReady"), "{e}");
}

/// A reservation into a place the compile step does not know as a
/// reservation target would never be released by the expiry scan; the
/// engine rejects it loudly (always, not only in debug builds) instead
/// of silently wedging the stage.
#[test]
#[should_panic(expected = "not a compiled reservation target")]
fn fx_reserve_into_unknown_place_panics() {
    let mut b = ModelBuilder::<Plain, u64>::new();
    let s1 = b.stage("S1", 1);
    let s2 = b.stage("S2", 1);
    let p1 = b.place("P1", s1);
    let p2 = b.place("P2", s2);
    let end = b.end_place();
    let (c, _) = b.class_net("C");
    // Closure action reserving p2, which no ResArc or ReserveRes names.
    b.transition(c, "mid").from(p1).to(p2).action(move |_m, _t, fx| fx.reserve(p2, 3)).done();
    b.transition(c, "out").from(p2).to(end).done();
    b.source("s").to(p1).produce(|_m, _fx| Some(Plain)).done();
    let model = b.build().expect("validates");
    let mut e = Engine::new(model, Machine::new(RegisterFile::new(), 0u64));
    e.run(10);
}

#[test]
fn empty_ir_programs_compile_to_no_guard_no_action() {
    // An empty guard program and an action that folds to nothing must
    // leave the transition guardless/actionless — `has_guard`/`has_action`
    // stay honest, which the engine's skip paths rely on.
    let mut b = ModelBuilder::<Plain, u64>::new();
    let s1 = b.stage("S1", 1);
    let p1 = b.place("P1", s1);
    let end = b.end_place();
    let (c, _) = b.class_net("C");
    b.transition(c, "t")
        .from(p1)
        .to(end)
        .guard_ir(Program::new(vec![]))
        .action_ir(Program::new(vec![MicroOp::EmitRedirect { flush: Box::from([]) }]))
        .done();
    b.source("s")
        .to(p1)
        .produce(|m, _fx| {
            m.res += 1;
            (m.res <= 3).then_some(Plain)
        })
        .done();
    let model = b.build().expect("validates");
    let compiled = CompiledModel::compile(model);
    assert_eq!(compiled.ir_transitions(), 0, "both programs fold away entirely");
    let mut e = compiled.instantiate(Machine::new(RegisterFile::new(), 0u64));
    e.run(10);
    assert_eq!(e.stats().retired, 3);
    assert_eq!(e.sched().guard_ir_evals, 0, "a dropped guard is never evaluated");
}
