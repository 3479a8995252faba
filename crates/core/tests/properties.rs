//! Property-based tests on the RCPN core data structures: the register
//! scoreboard's hazard discipline and the static analysis' ordering
//! guarantees hold for arbitrary inputs.

use proptest::prelude::*;
use rcpn::ids::{PlaceId, RegId, TokenId};
use rcpn::reg::{Operand, RegisterFile, Writer};
use rcpn::token::{TokenKind, TokenPool};

fn tid(n: u32) -> TokenId {
    // TokenIds normally come from the engine pool; for scoreboard-only
    // tests any distinct ids work.
    let mut pool = rcpn::token::TokenPool::<u32>::new();
    let mut last = None;
    for _ in 0..=n {
        last = Some(pool.alloc(
            rcpn::token::TokenKind::Instruction,
            Some(0),
            PlaceId::from_index(0),
            0,
            0,
        ));
    }
    last.expect("allocated at least one")
}

/// Linear-scan reference of the writers scoreboard: one optional
/// [`Writer`] per cell, every query and update a plain loop over cells.
/// It is the held-set-free definition [`RegisterFile`] must agree with.
struct RefBoard {
    cells: Vec<u32>,
    writers: Vec<Option<Writer>>,
    /// Cells of every register, in declaration order.
    regs: Vec<Vec<usize>>,
}

impl RefBoard {
    fn add_register(&mut self) {
        self.regs.push(vec![self.cells.len()]);
        self.cells.push(0);
        self.writers.push(None);
    }

    fn add_overlapping(&mut self, over: &[usize]) {
        let mut cells = Vec::new();
        for &r in over {
            for &c in &self.regs[r] {
                if !cells.contains(&c) {
                    cells.push(c);
                }
            }
        }
        self.regs.push(cells);
    }

    fn writer_of(&self, r: usize) -> Option<Writer> {
        self.regs[r].iter().find_map(|&c| self.writers[c])
    }

    fn reservable_by(&self, r: usize, token: TokenId) -> bool {
        self.regs[r].iter().all(|&c| self.writers[c].is_none_or(|w| w.token == token))
    }

    fn reserve_write(&mut self, r: usize, token: TokenId, place: PlaceId) {
        for &c in &self.regs[r] {
            self.writers[c] = Some(Writer { token, place, value: None });
        }
    }

    fn publish(&mut self, r: usize, token: TokenId, value: u32) {
        for &c in &self.regs[r] {
            if let Some(w) = self.writers[c].as_mut().filter(|w| w.token == token) {
                w.value = Some(value);
            }
        }
    }

    fn writeback(&mut self, r: usize, token: TokenId, value: u32) {
        for &c in &self.regs[r] {
            self.cells[c] = value;
            if self.writers[c].is_some_and(|w| w.token == token) {
                self.writers[c] = None;
            }
        }
    }

    fn note_move(&mut self, token: TokenId, place: PlaceId) {
        for w in self.writers.iter_mut().flatten().filter(|w| w.token == token) {
            w.place = place;
        }
    }

    fn release(&mut self, token: TokenId) -> usize {
        let mut n = 0;
        for w in &mut self.writers {
            if w.is_some_and(|x| x.token == token) {
                *w = None;
                n += 1;
            }
        }
        n
    }
}

/// Every query [`RegisterFile`] answers from the scoreboard, on every
/// register, against the reference.
fn assert_boards_agree(
    rf: &RegisterFile,
    reference: &RefBoard,
    place: PlaceId,
    mask: u64,
) -> Result<(), TestCaseError> {
    for r in 0..reference.regs.len() {
        let reg = RegId::from_index(r);
        let want = reference.writer_of(r);
        prop_assert_eq!(rf.writer_of(reg).copied(), want, "writer_of r{}", r);
        prop_assert_eq!(rf.readable(reg), want.is_none(), "readable r{}", r);
        prop_assert_eq!(rf.value_of(reg), reference.cells[reference.regs[r][0]], "value r{}", r);
        prop_assert_eq!(rf.forwarded(reg), want.and_then(|w| w.value), "forwarded r{}", r);
        let fwd_here = want.is_some_and(|w| w.place == place && w.value.is_some());
        prop_assert_eq!(rf.can_read_in(reg, place), fwd_here, "can_read_in r{}", r);
        let fwd_masked = want.is_some_and(|w| {
            w.value.is_some() && w.place.index() < 64 && (mask >> w.place.index()) & 1 == 1
        });
        prop_assert_eq!(rf.can_read_masked(reg, mask), fwd_masked, "can_read_masked r{}", r);
    }
    let reserved = reference.writers.iter().filter(|w| w.is_some()).count();
    prop_assert_eq!(rf.reserved_cells(), reserved);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The held-set scoreboard answers exactly like a linear scan over
    /// every cell, under random reserve / publish / writeback / move /
    /// release sequences: register files of up to 150 cells (so held
    /// sets span several 64-bit words), overlapping registers, registers
    /// declared after reservations exist, and pool slots recycled under
    /// a bumped generation — both after a release (the engine's
    /// discipline) and with the old generation's reservations leaked, so
    /// two generations of one slot hold cells side by side.
    #[test]
    fn held_sets_match_linear_scan_reference(
        bank in 1usize..150,
        overlaps in proptest::collection::vec((0usize..150, 0usize..150, 0usize..150), 0..4),
        ops in proptest::collection::vec((0u8..9, 0usize..1024, 0usize..1024, any::<u32>()), 1..96),
    ) {
        let mut rf = RegisterFile::new();
        let mut reference = RefBoard { cells: Vec::new(), writers: Vec::new(), regs: Vec::new() };
        rf.add_bank("r", bank);
        (0..bank).for_each(|_| reference.add_register());
        for (a, b, c) in overlaps {
            let over = [a % bank, b % bank, c % bank];
            let ids: Vec<RegId> = over.iter().map(|&r| RegId::from_index(r)).collect();
            rf.add_overlapping("ov", &ids);
            reference.add_overlapping(&over);
        }

        let mut pool = TokenPool::<u32>::new();
        // Every id ever allocated, live or not: stale ids stay valid
        // scoreboard arguments (the file never consults the pool).
        let mut ids: Vec<TokenId> = Vec::new();
        let mut live: Vec<TokenId> = Vec::new();
        for (kind, a, b, v) in ops {
            let place = PlaceId::from_index(a % 70);
            let mask = (u64::from(v) << 32 | u64::from(v)).rotate_left(a as u32);
            let n_regs = reference.regs.len();
            let token = if ids.is_empty() { None } else { Some(ids[b % ids.len()]) };
            match (kind, token) {
                (0, _) | (_, None) if live.len() < 6 => {
                    let id = pool.alloc(TokenKind::Instruction, Some(0), place, 0, 0);
                    ids.push(id);
                    live.push(id);
                }
                (1, Some(t)) if reference.reservable_by(a % n_regs, t) => {
                    rf.reserve_write(RegId::from_index(a % n_regs), t, place);
                    reference.reserve_write(a % n_regs, t, place);
                }
                (2, Some(t)) => {
                    rf.publish(RegId::from_index(a % n_regs), t, v);
                    reference.publish(a % n_regs, t, v);
                }
                (3, Some(t)) => {
                    rf.writeback(RegId::from_index(a % n_regs), t, v);
                    reference.writeback(a % n_regs, t, v);
                }
                (4, Some(t)) => {
                    rf.note_move(t, place);
                    reference.note_move(t, place);
                }
                (5, Some(t)) => {
                    prop_assert_eq!(rf.release(t), reference.release(t), "release {:?}", t);
                }
                // Free a live token's slot: kind 6 releases its cells
                // first (the engine's discipline), kind 7 leaks them past
                // the generation bump.
                (6, _) | (7, _) if !live.is_empty() => {
                    let t = live.swap_remove(b % live.len());
                    if kind == 6 {
                        prop_assert_eq!(rf.release(t), reference.release(t), "release {:?}", t);
                    }
                    pool.take(t);
                }
                (8, _) if n_regs < 200 => {
                    rf.add_register("late");
                    reference.add_register();
                }
                _ => {}
            }
            assert_boards_agree(&rf, &reference, place, mask)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// reserve → publish → writeback always restores readability and
    /// commits the value, for any register count and register choice.
    #[test]
    fn reserve_writeback_roundtrip(n_regs in 1usize..24, pick in 0usize..24, v in any::<u32>()) {
        let pick = pick % n_regs;
        let mut rf = RegisterFile::new();
        let regs = rf.add_bank("r", n_regs);
        let t = tid(1);
        let mut op = Operand::reg(regs[pick]);
        prop_assert!(op.can_write(&rf));
        op.reserve_write(&mut rf, t, PlaceId::from_index(0));
        prop_assert!(!op.can_read(&rf));
        prop_assert!(!op.can_write(&rf));
        op.set(&mut rf, t, v);
        op.writeback(&mut rf, t);
        prop_assert!(op.can_read(&rf), "writeback restores readability");
        prop_assert_eq!(rf.value_of(regs[pick]), v);
        prop_assert_eq!(rf.reserved_cells(), 0);
        // Untouched registers keep their reset value.
        for (k, &r) in regs.iter().enumerate() {
            if k != pick {
                prop_assert_eq!(rf.value_of(r), 0);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A random interleaving of reservations and releases never leaves the
    /// scoreboard inconsistent: released registers read their last
    /// committed value; live reservations always block readers/writers.
    #[test]
    fn scoreboard_consistency(ops in proptest::collection::vec((0usize..8, 0u8..3, any::<u32>()), 1..64)) {
        let mut rf = RegisterFile::new();
        let regs = rf.add_bank("r", 8);
        // Model state: committed value per register, live writer token.
        let mut committed = [0u32; 8];
        let mut writer: [Option<TokenId>; 8] = [None; 8];
        let mut next_tok = 0u32;

        for (r, action, v) in ops {
            let reg = regs[r];
            match action {
                // Try to reserve.
                0 => {
                    if writer[r].is_none() {
                        next_tok += 1;
                        let t = tid(next_tok);
                        rf.reserve_write(reg, t, PlaceId::from_index(0));
                        writer[r] = Some(t);
                    }
                }
                // Publish + writeback if reserved.
                1 => {
                    if let Some(t) = writer[r].take() {
                        rf.publish(reg, t, v);
                        rf.writeback(reg, t, v);
                        committed[r] = v;
                    }
                }
                // Squash if reserved.
                _ => {
                    if let Some(t) = writer[r].take() {
                        rf.release(t);
                    }
                }
            }
            // Invariants after every step.
            for k in 0..8 {
                if writer[k].is_some() {
                    prop_assert!(!rf.readable(regs[k]), "r{} reserved but readable", k);
                    prop_assert!(!rf.writable(regs[k]));
                } else {
                    prop_assert!(rf.readable(regs[k]), "r{} free but blocked", k);
                    prop_assert_eq!(rf.value_of(regs[k]), committed[k], "r{} value", k);
                }
            }
        }
        // Total reservations in the scoreboard match the model.
        let live = writer.iter().filter(|w| w.is_some()).count();
        prop_assert_eq!(rf.reserved_cells(), live);
    }

    /// The analysis' evaluation order is a valid reverse-topological order
    /// for arbitrary acyclic nets: every transition's destination is
    /// evaluated before its input.
    #[test]
    fn order_is_reverse_topological(edges in proptest::collection::vec((0usize..12, 0usize..12), 0..40)) {
        use rcpn::builder::ModelBuilder;
        use rcpn::ids::OpClassId;
        use rcpn::token::InstrData;

        #[derive(Debug)]
        struct Tok(OpClassId);
        impl InstrData for Tok {
            fn op_class(&self) -> OpClassId { self.0 }
        }

        // Build a DAG by only keeping forward edges (i < j).
        let mut b = ModelBuilder::<Tok, ()>::new();
        let stages: Vec<_> = (0..12).map(|i| b.stage(&format!("S{i}"), 2)).collect();
        let places: Vec<_> =
            stages.iter().enumerate().map(|(i, &s)| b.place(&format!("P{i}"), s)).collect();
        let (c, _) = b.class_net("C");
        let mut used = std::collections::HashSet::new();
        let mut kept: Vec<(usize, usize)> = Vec::new();
        for (k, (a, bb)) in edges.into_iter().enumerate() {
            let (lo, hi) = (a.min(bb), a.max(bb));
            if lo == hi || !used.insert((lo, hi)) {
                continue;
            }
            b.transition(c, &format!("t{k}"))
                .from(places[lo])
                .to(places[hi])
                .priority(k as u32)
                .done();
            kept.push((lo, hi));
        }
        let model = b.build().expect("acyclic net builds");
        let analysis = model.analysis();
        let mut pos = vec![0usize; model.place_count()];
        for (i, p) in analysis.order().iter().enumerate() {
            pos[p.index()] = i;
        }
        for (lo, hi) in kept {
            prop_assert!(
                pos[places[hi].index()] < pos[places[lo].index()],
                "dest P{} must be evaluated before input P{}", hi, lo
            );
        }
        prop_assert_eq!(analysis.two_list_count(), 0, "a DAG without references needs no two-list");
    }
}
