//! Differential property test: the activity-driven scheduler against the
//! exhaustive-sweep oracle.
//!
//! Random small pipeline models × random programs are executed under both
//! [`SchedulerMode`]s, for every candidate-table mode and for the
//! two-list-everywhere fixpoint scheme. The contract is *bit-identity of
//! everything simulated*: the full trace (generation, firing, retirement
//! and flush events, in order) and the complete [`Stats`] block must not
//! depend on the scheduler — skipped work must be provably work that
//! would have had no effect.
//!
//! The generated models deliberately exercise every wake-up path of the
//! dirty-place worklist: multi-cycle place delays and data-dependent
//! token delays (timer wake-ups), machine-state guards that flip with the
//! cycle counter (stall re-arming), join transitions with extra inputs,
//! reservation arcs (expiry scans), micro-op emission and flushes
//! (mid-cycle re-dirtying), and stage-capacity back-pressure.
//!
//! Every activity-scheduler run is also checked against a loop of
//! [`Engine::step`] calls: [`Engine::run`] fast-forwards quiescent
//! cycles, and must leave the same trace, [`Stats`], [`SchedStats`],
//! registers and machine cycle. A second family with long place and
//! token delays and no closure guards makes those skips common; the
//! cycle-flipping guards of the first family are what a skip rule that
//! trusted closure guards would get wrong.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

use proptest::prelude::*;
use rcpn::engine::TraceEvent;
use rcpn::prelude::*;

/// Instruction payload: a class plus an immediate the guards/actions key on.
#[derive(Debug, Clone)]
struct Tok {
    class: OpClassId,
    imm: u32,
}

impl InstrData for Tok {
    fn op_class(&self) -> OpClassId {
        self.class
    }
}

/// Program feed (per-engine resource; refilled per run from the spec).
#[derive(Debug, Default)]
struct Feed {
    program: RefCell<VecDeque<Tok>>,
}

/// A randomly generated model + program, deterministic to rebuild (model
/// closures are pure functions of the spec, so two builds simulate
/// identically).
#[derive(Debug, Clone)]
struct Spec {
    /// Pipeline depth: one place per stage, 2..=4.
    n_stages: usize,
    /// Stage capacities, 1..=2.
    caps: Vec<u32>,
    /// Place delays: 0..=2, or 0..=12 in the long-delay family.
    delays: Vec<u32>,
    /// Class-B alternative edges `place i → place j` (`j == n_stages`
    /// means the end place).
    skips: Vec<(usize, usize)>,
    /// When nonzero: class-B spine transitions carry the machine-state
    /// guard `cycle % guard_every != 0` (flips every few cycles).
    guard_every: u32,
    /// Class B's first transition overrides the token delay with
    /// `imm % token_delay_mod` (data-dependent latency — the parked-token
    /// case).
    token_delays: bool,
    /// 4 (delays 0..=3), or 13 in the long-delay family.
    token_delay_mod: u32,
    /// Class B's final transition deposits a reservation token into
    /// place `.0` expiring after `.1` cycles.
    reserve: Option<(usize, u32)>,
    /// Class A's final transition emits a follow-up micro-op for tokens
    /// with `imm % 4 == 0` (terminates: the emitted token gets `imm + 1`).
    emit: bool,
    /// When nonzero: class-B retirement flushes place 0 for tokens with
    /// `imm % flush_every == 0`.
    flush_every: u32,
    /// The program: `(is_class_b, imm)` per instruction.
    program: Vec<(bool, u32)>,
    /// Fetch width, 1..=2.
    width: u32,
}

fn build_model(spec: &Spec) -> (Model<Tok, Feed>, OpClassId, OpClassId) {
    let n = spec.n_stages;
    let mut b = ModelBuilder::<Tok, Feed>::new();
    let stages: Vec<_> =
        (0..n).map(|i| b.stage(&format!("S{i}"), spec.caps[i % spec.caps.len()])).collect();
    let places: Vec<_> = (0..n)
        .map(|i| {
            b.place_with_delay(&format!("P{i}"), stages[i], spec.delays[i % spec.delays.len()])
        })
        .collect();
    let end = b.end_place();
    let (ca, _) = b.class_net("A");
    let (cb, _) = b.class_net("B");
    let dest = |j: usize| if j >= n { end } else { places[j] };

    // Class A spine. Retirement folds the token and its cycle into the
    // `acc()` register, so the register file records when each class-A
    // token retired; optional terminating micro-op emission.
    for i in 0..n {
        let t = b.transition(ca, &format!("a{i}")).from(places[i]).to(dest(i + 1)).priority(0);
        let t = if i + 1 == n {
            let (p0, emit) = (places[0], spec.emit);
            t.action(move |m, tok, fx| {
                let folded = m.regs.value_of(acc()).wrapping_mul(31) ^ tok.imm ^ m.cycle as u32;
                m.regs.poke(acc(), folded);
                if emit && tok.imm % 4 == 0 {
                    fx.emit(Tok { class: tok.class, imm: tok.imm + 1 }, p0, 1);
                }
            })
        } else {
            t
        };
        t.done();
    }

    // Class B spine: cycle-flipping guards, data-dependent delay, a
    // reservation arc and a conditional flush at the end.
    for i in 0..n {
        let mut t = b.transition(cb, &format!("b{i}")).from(places[i]).to(dest(i + 1)).priority(0);
        if spec.guard_every > 0 {
            let ge = u64::from(spec.guard_every);
            t = t.guard(move |m, _tok| m.cycle % ge != 0);
        }
        if i == 0 && spec.token_delays {
            let modulus = spec.token_delay_mod;
            t = t.action(move |_m, tok, fx| fx.set_token_delay(tok.imm % modulus));
        }
        if i + 1 == n {
            if let Some((rp, expire)) = spec.reserve {
                t = t.reserve(places[rp % n], expire);
            }
            if spec.flush_every > 0 {
                let fe = spec.flush_every;
                let p0 = places[0];
                t = t.action(move |_m, tok, fx| {
                    if tok.imm % fe == 0 {
                        fx.flush(p0);
                    }
                });
            }
        }
        t.done();
    }

    // Class-B alternative edges (skips), guarded on the token. The first
    // one is a join: it additionally consumes the oldest ready token of
    // the next place (exercising the extra-input miss → stall → re-arm
    // wake-up path).
    for (k, &(i, j)) in spec.skips.iter().enumerate() {
        let (i, j) = (i % n, (j % (n + 1)).max(i + 1));
        let mut t = b
            .transition(cb, &format!("skip{k}"))
            .from(places[i])
            .to(dest(j))
            .priority(1 + k as u32)
            .guard(|_m, tok: &Tok| tok.imm % 3 == 0);
        if k == 0 {
            t = t.extra_input(places[(i + 1) % n]);
        }
        t.done();
    }

    b.source("fetch")
        .to(places[0])
        .width(spec.width)
        .produce(|m: &mut Machine<Feed>, _fx| m.res.program.borrow_mut().pop_front())
        .done();

    (b.build().expect("generated spec must be a valid model"), ca, cb)
}

/// The register class-A retirements fold into (the file's only one).
fn acc() -> RegId {
    RegId::from_index(0)
}

/// Cycle budget of every run.
const CYCLES: u64 = 300;

/// Everything a run leaves observable.
#[derive(Debug, PartialEq)]
struct Observed {
    trace: Vec<TraceEvent>,
    stats: Stats,
    sched: SchedStats,
    acc: u32,
    /// The machine's mirror of the engine cycle.
    machine_cycle: u64,
}

/// Runs the spec under `cfg` for [`CYCLES`] cycles, through
/// [`Engine::run`] or (`stepped`) a loop of [`Engine::step`], returning
/// what it left observable and how many cycles were fast-forwarded.
fn run_spec(spec: &Spec, mut cfg: EngineConfig, stepped: bool) -> (Observed, u64) {
    cfg.trace = true;
    let (model, ca, cb) = build_model(spec);
    let feed = Feed::default();
    feed.program.borrow_mut().extend(
        spec.program.iter().map(|&(is_b, imm)| Tok { class: if is_b { cb } else { ca }, imm }),
    );
    let mut regs = RegisterFile::new();
    assert_eq!(regs.add_register("acc"), acc());
    let mut e = Engine::with_config(model, Machine::new(regs, feed), cfg);
    if stepped {
        for _ in 0..CYCLES {
            e.step();
        }
    } else {
        e.run(CYCLES);
    }
    let observed = Observed {
        trace: e.take_trace(),
        stats: e.stats().clone(),
        sched: e.sched().clone(),
        acc: e.machine().regs.value_of(acc()),
        machine_cycle: e.machine().cycle,
    };
    (observed, e.fast_forwarded_cycles())
}

/// The four compiled variants every spec runs under.
fn configs() -> [EngineConfig; 4] {
    [
        EngineConfig::default(),
        EngineConfig { table_mode: TableMode::PerPlace, ..Default::default() },
        EngineConfig { table_mode: TableMode::FullScan, ..Default::default() },
        EngineConfig { two_list_everywhere: true, ..Default::default() },
    ]
}

/// Checks the spec under every variant: the activity scheduler's
/// [`Engine::run`] against its own step loop and against the exhaustive
/// oracle, which never fast-forwards. Returns the cycles fast-forwarded.
fn check_spec(spec: &Spec) -> Result<u64, TestCaseError> {
    let mut fast_forwarded = 0;
    for base in configs() {
        let act_cfg = EngineConfig { scheduler: SchedulerMode::ActivityDriven, ..base.clone() };
        let exh_cfg = EngineConfig { scheduler: SchedulerMode::Exhaustive, ..base.clone() };
        let (act, ff) = run_spec(spec, act_cfg.clone(), false);
        let (stepped, _) = run_spec(spec, act_cfg, true);
        let (exh, exh_ff) = run_spec(spec, exh_cfg, false);
        prop_assert_eq!(
            &act,
            &stepped,
            "run diverged from stepping under {:?} for {:?}",
            base,
            spec
        );
        prop_assert_eq!(&act.trace, &exh.trace, "trace diverged under {:?} for {:?}", base, spec);
        prop_assert_eq!(&act.stats, &exh.stats, "stats diverged under {:?} for {:?}", base, spec);
        prop_assert_eq!(act.acc, exh.acc, "registers diverged under {:?} for {:?}", base, spec);
        prop_assert_eq!(exh_ff, 0, "the oracle never fast-forwards");
        // The oracle, by definition, never skips; the activity scheduler
        // never visits more than the oracle.
        prop_assert_eq!(exh.sched.place_skips, 0);
        prop_assert!(
            act.sched.place_visits + act.sched.place_skips <= exh.sched.place_visits,
            "activity visits+skips {} exceed oracle visits {}",
            act.sched.place_visits + act.sched.place_skips,
            exh.sched.place_visits
        );
        fast_forwarded += ff;
    }
    Ok(fast_forwarded)
}

/// Cases of the long-delay property.
const LONG_CASES: u32 = 48;

thread_local! {
    /// Long-delay cases run so far, and how many of them fast-forwarded.
    static LONG_TALLY: Cell<(u32, u32)> = const { Cell::new((0, 0)) };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random models + random programs simulate bit-identically under the
    /// activity-driven scheduler and the exhaustive oracle, across all
    /// candidate-table modes and the two-list-everywhere fixpoint scheme,
    /// and the activity scheduler's `Engine::run` matches stepping.
    #[test]
    fn activity_scheduler_is_bit_identical_to_exhaustive_oracle(
        n_stages in 2usize..=4,
        caps in proptest::collection::vec(1u32..=2, 1..=4),
        delays in proptest::collection::vec(0u32..=2, 1..=4),
        skips in proptest::collection::vec((0usize..4, 1usize..=4), 0..3),
        guard_every in 0u32..=4,
        token_delays in any::<bool>(),
        reserve_raw in (0usize..4, 0u32..=3),
        use_reserve in any::<bool>(),
        emit in any::<bool>(),
        flush_every in 0u32..=5,
        program in proptest::collection::vec((any::<bool>(), 0u32..64), 1..32),
        width in 1u32..=2,
    ) {
        let spec = Spec {
            n_stages,
            caps,
            delays,
            skips,
            guard_every: if guard_every < 2 { 0 } else { guard_every },
            token_delays,
            token_delay_mod: 4,
            reserve: use_reserve.then_some(reserve_raw),
            emit,
            flush_every: if flush_every < 2 { 0 } else { flush_every },
            program,
            width,
        };
        check_spec(&spec)?;
    }

    /// The compiled reverse index is exactly the input/extra-input arcs of
    /// the model — the dependency structure the worklist reasons about.
    #[test]
    fn dependents_index_matches_model_arcs(
        n_stages in 2usize..=4,
        skips in proptest::collection::vec((0usize..4, 1usize..=4), 0..3),
    ) {
        let spec = Spec {
            n_stages,
            caps: vec![2],
            delays: vec![0],
            skips,
            guard_every: 0,
            token_delays: false,
            token_delay_mod: 4,
            reserve: None,
            emit: false,
            flush_every: 0,
            program: vec![(false, 0)],
            width: 1,
        };
        let (model, _, _) = build_model(&spec);
        let compiled = CompiledModel::compile(model);
        for p in compiled.model().place_ids() {
            let deps = compiled.dependents_of(p);
            prop_assert!(deps.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
            for t in compiled.model().transition_ids() {
                let td = compiled.model().transition(t);
                let is_dep = td.input() == p || td.extra_inputs().contains(&p);
                prop_assert_eq!(
                    deps.contains(&t), is_dep,
                    "place {:?} vs transition {:?}", p, t
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(LONG_CASES))]

    /// The long-delay family: place and token delays up to 12 cycles and
    /// no closure guards, so pipelines often wait with nothing moving and
    /// [`Engine::run`] fast-forwards. Same checks as the first family; and
    /// some of the generated cases must fast-forward, or the property says
    /// nothing about the skip.
    #[test]
    fn long_delays_fast_forward_bit_identically_to_stepping(
        n_stages in 2usize..=4,
        caps in proptest::collection::vec(1u32..=2, 1..=4),
        delays in proptest::collection::vec(0u32..=12, 1..=4),
        skips in proptest::collection::vec((0usize..4, 1usize..=4), 0..3),
        token_delays in any::<bool>(),
        reserve_raw in (0usize..4, 0u32..=12),
        use_reserve in any::<bool>(),
        emit in any::<bool>(),
        flush_every in 0u32..=5,
        program in proptest::collection::vec((any::<bool>(), 0u32..64), 1..32),
        width in 1u32..=2,
    ) {
        let spec = Spec {
            n_stages,
            caps,
            delays,
            skips,
            guard_every: 0,
            token_delays,
            token_delay_mod: 13,
            reserve: use_reserve.then_some(reserve_raw),
            emit,
            flush_every: if flush_every < 2 { 0 } else { flush_every },
            program,
            width,
        };
        let fast_forwarded = check_spec(&spec)?;
        let (cases, skipping) = LONG_TALLY.get();
        let tally = (cases + 1, skipping + u32::from(fast_forwarded > 0));
        LONG_TALLY.set(tally);
        if tally.0 == LONG_CASES {
            prop_assert!(tally.1 > 0, "no long-delay case fast-forwarded");
        }
    }
}
