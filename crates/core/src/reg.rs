//! The three-level register model used by RCPN to capture data hazards
//! (paper, Section 3.1).
//!
//! RCPN deliberately keeps data hazards *out* of the token game. Instead it
//! models registers at three levels:
//!
//! 1. [`RegisterFile`] — the actual storage cells, plus the *writers*
//!    scoreboard: for every cell, which in-flight instruction (if any) has
//!    reserved it for writing, what state (place) that instruction is
//!    currently in, and — once computed — the value it will write.
//! 2. **Register** — a named index that maps onto one or more storage cells.
//!    Multiple registers may point at the same cells to model overlapping
//!    storage (ARM banked registers, SPARC register windows).
//! 3. [`RegRef`] — a per-instruction reference to a register with an
//!    internal value slot; the pipeline-latch copy of the operand. Decode
//!    replaces each register symbol of an operation class with a `RegRef`.
//!
//! The fixed `RegRef` interface from the paper maps onto this module as:
//!
//! | paper            | here                      |
//! |------------------|---------------------------|
//! | `canRead()`      | [`RegRef::can_read`]      |
//! | `read()`         | [`RegRef::read`]          |
//! | `canWrite()`     | [`RegRef::can_write`]     |
//! | `reserveWrite()` | [`RegRef::reserve_write`] |
//! | `writeback()`    | [`RegRef::writeback`]     |
//! | `canRead(s)`     | [`RegRef::can_read_in`]   |
//! | `read(s)`        | [`RegRef::read_fwd`]      |
//!
//! One substitution relative to the paper (recorded in `DESIGN.md`): the
//! paper's `read(s)` reaches into the internal storage of the *writer's*
//! RegRef. Here, a writer publishes its computed value into the scoreboard
//! entry ([`RegRef::set`]), and `read_fwd` reads it from there. The value
//! observed is the same — it *is* the writer's internal value — but no
//! aliased access into another live token is needed.

use std::fmt;

use crate::ids::{PlaceId, RegId, TokenId};

/// Scoreboard entry: the in-flight instruction that has reserved a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writer {
    /// Token of the writing instruction.
    pub token: TokenId,
    /// The state (place) the writer currently resides in. Updated by the
    /// engine as the token moves through the pipeline.
    pub place: PlaceId,
    /// The value the writer will write, once it has been computed.
    pub value: Option<u32>,
}

#[derive(Debug, Clone)]
struct RegDef {
    name: String,
    cells: Vec<u16>,
}

/// Register storage plus the writers scoreboard.
///
/// Besides the per-cell `writers` entries, the file keeps one *held set*
/// per token pool slot: a bitset over the cells, sized to the file, that
/// covers every cell whose writer lives in that slot. [`note_move`] and
/// [`release`] visit only the moving token's held set, so a token move
/// costs what the token holds rather than a scan of the whole scoreboard.
/// A held set may also list cells the slot no longer (or, under a bumped
/// generation, not yet) owns; every visit checks the writer's full
/// [`TokenId`] before acting, so stale bits cost a probe, never a wrong
/// update.
///
/// [`note_move`]: RegisterFile::note_move
/// [`release`]: RegisterFile::release
///
/// # Examples
///
/// ```
/// use rcpn::reg::RegisterFile;
///
/// let mut rf = RegisterFile::new();
/// let r0 = rf.add_register("r0");
/// rf.poke(r0, 42);
/// assert_eq!(rf.value_of(r0), 42);
/// ```
#[derive(Debug, Clone)]
pub struct RegisterFile {
    cells: Vec<u32>,
    writers: Vec<Option<Writer>>,
    /// Held sets, `words` bitset words per token slot (slot `s` owns
    /// `held[s * words..(s + 1) * words]`); grown on first reservation.
    held: Vec<u64>,
    /// Bitset words per held set: `cells.len()` rounded up to 64.
    words: usize,
    regs: Vec<RegDef>,
}

impl RegisterFile {
    /// Creates an empty register file.
    pub fn new() -> Self {
        RegisterFile {
            cells: Vec::new(),
            writers: Vec::new(),
            held: Vec::new(),
            words: 0,
            regs: Vec::new(),
        }
    }

    /// Declares a register backed by one fresh storage cell.
    pub fn add_register(&mut self, name: &str) -> RegId {
        let cell = self.cells.len() as u16;
        self.cells.push(0);
        self.writers.push(None);
        let words = self.cells.len().div_ceil(64);
        if words != self.words {
            // Widen every held set to the new stride (registers are
            // normally declared before any reservation exists).
            let mut held = vec![0; self.held.len() / self.words.max(1) * words];
            for (new, old) in held.chunks_mut(words).zip(self.held.chunks(self.words.max(1))) {
                new[..old.len()].copy_from_slice(old);
            }
            self.held = held;
            self.words = words;
        }
        self.regs.push(RegDef { name: name.to_string(), cells: vec![cell] });
        RegId::from_index(self.regs.len() - 1)
    }

    /// Declares `n` registers named `prefix0..prefix{n-1}`, returning their ids.
    pub fn add_bank(&mut self, prefix: &str, n: usize) -> Vec<RegId> {
        (0..n).map(|i| self.add_register(&format!("{prefix}{i}"))).collect()
    }

    /// Declares a register that overlaps the storage of existing registers.
    ///
    /// Reading the new register reads the first cell of the first overlapped
    /// register; writing it writes (and reserving it reserves) every
    /// overlapped cell. This models ARM-style banked registers or SPARC
    /// register windows, where modifying one register affects others.
    ///
    /// # Panics
    ///
    /// Panics if `over` is empty.
    pub fn add_overlapping(&mut self, name: &str, over: &[RegId]) -> RegId {
        assert!(!over.is_empty(), "overlapping register must cover at least one register");
        let mut cells = Vec::new();
        for r in over {
            for &c in &self.regs[r.index()].cells {
                if !cells.contains(&c) {
                    cells.push(c);
                }
            }
        }
        self.regs.push(RegDef { name: name.to_string(), cells });
        RegId::from_index(self.regs.len() - 1)
    }

    /// Number of declared registers.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// Whether no registers have been declared.
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// The name a register was declared with.
    pub fn name(&self, reg: RegId) -> &str {
        &self.regs[reg.index()].name
    }

    /// Looks up a register by name.
    pub fn find(&self, name: &str) -> Option<RegId> {
        self.regs.iter().position(|r| r.name == name).map(RegId::from_index)
    }

    /// Architectural value of a register (its primary cell).
    #[inline]
    pub fn value_of(&self, reg: RegId) -> u32 {
        self.cells[self.regs[reg.index()].cells[0] as usize]
    }

    /// Directly sets the architectural value, bypassing hazard tracking.
    /// Intended for initialization and for functional-simulator use.
    #[inline]
    pub fn poke(&mut self, reg: RegId, value: u32) {
        for &c in &self.regs[reg.index()].cells {
            self.cells[c as usize] = value;
        }
    }

    /// The scoreboard entry covering a register, if any cell is reserved.
    #[inline]
    pub fn writer_of(&self, reg: RegId) -> Option<&Writer> {
        self.regs[reg.index()].cells.iter().find_map(|&c| self.writers[c as usize].as_ref())
    }

    /// True if no in-flight instruction has reserved any cell of `reg`.
    #[inline]
    pub fn readable(&self, reg: RegId) -> bool {
        self.regs[reg.index()].cells.iter().all(|&c| self.writers[c as usize].is_none())
    }

    /// True if `reg` can be reserved for writing (no outstanding writer on
    /// any of its cells). Guards write-after-write and write-after-read
    /// hazards as described in the paper.
    #[inline]
    pub fn writable(&self, reg: RegId) -> bool {
        self.readable(reg)
    }

    /// Reserves every cell of `reg` for `token`, currently in state `place`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if a cell is already reserved by a different
    /// token; models must check [`RegisterFile::writable`] in the guard.
    #[inline]
    pub fn reserve_write(&mut self, reg: RegId, token: TokenId, place: PlaceId) {
        let base = token.slot() * self.words;
        if self.held.len() < base + self.words {
            self.grow_held(base + self.words);
        }
        for &c in &self.regs[reg.index()].cells {
            debug_assert!(
                self.writers[c as usize].is_none_or(|w| w.token == token),
                "reserve_write on already-reserved cell of {}",
                self.regs[reg.index()].name
            );
            self.writers[c as usize] = Some(Writer { token, place, value: None });
            self.held[base + c as usize / 64] |= 1 << (c % 64);
        }
    }

    /// Extends the held sets to `len` words: a token slot reserves for the
    /// first time. The pool reuses slots, so this stops once the pipeline
    /// has been full once.
    #[cold]
    fn grow_held(&mut self, len: usize) {
        self.held.resize(len, 0);
    }

    /// Publishes the computed value of an in-flight write, making it
    /// available to forwarding reads ([`RegRef::read_fwd`]).
    pub fn publish(&mut self, reg: RegId, token: TokenId, value: u32) {
        for &c in &self.regs[reg.index()].cells {
            if let Some(w) = &mut self.writers[c as usize] {
                if w.token == token {
                    w.value = Some(value);
                }
            }
        }
    }

    /// Commits `value` to the storage of `reg` and clears the reservation
    /// held by `token` (other tokens' reservations are left untouched).
    #[inline]
    pub fn writeback(&mut self, reg: RegId, token: TokenId, value: u32) {
        for &c in &self.regs[reg.index()].cells {
            self.cells[c as usize] = value;
            if let Some(w) = &self.writers[c as usize] {
                if w.token == token {
                    self.writers[c as usize] = None;
                    self.held[token.slot() * self.words + c as usize / 64] &= !(1 << (c % 64));
                }
            }
        }
    }

    /// True if the writer of `reg` is in state `place` and its value has
    /// been computed — the paper's `canRead(s)`.
    #[inline]
    pub fn can_read_in(&self, reg: RegId, place: PlaceId) -> bool {
        match self.writer_of(reg) {
            Some(w) => w.place == place && w.value.is_some(),
            None => false,
        }
    }

    /// The forwarded (published) value of the in-flight writer of `reg`.
    #[inline]
    pub fn forwarded(&self, reg: RegId) -> Option<u32> {
        self.writer_of(reg).and_then(|w| w.value)
    }

    /// The bitmask form of `canRead(s)` over a whole forwarding set: true
    /// if the in-flight writer of `reg` has published its value *and*
    /// resides in a place whose index bit is set in `mask`.
    ///
    /// Because a register has at most one in-flight writer, testing the
    /// writer's place against the mask is exactly equivalent to probing
    /// each forwarding place in turn with [`RegisterFile::can_read_in`] —
    /// which place matches never changes the value read (the writer's
    /// published value). This is the flat test the micro-op IR
    /// ([`crate::ir`]) compiles forwarding-set membership down to.
    #[inline]
    pub fn can_read_masked(&self, reg: RegId, mask: u64) -> bool {
        match self.writer_of(reg) {
            Some(w) => {
                w.value.is_some() && w.place.index() < 64 && (mask >> w.place.index()) & 1 == 1
            }
            None => false,
        }
    }

    /// Records that `token` has moved to `place`; updates every scoreboard
    /// entry the token holds. Called by the engine on every token move;
    /// visits only the token's held set.
    #[inline]
    pub fn note_move(&mut self, token: TokenId, place: PlaceId) {
        let base = token.slot() * self.words;
        for k in 0..self.words {
            let Some(&word) = self.held.get(base + k) else { return };
            let mut bits = word;
            while bits != 0 {
                let c = k * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if let Some(w) = &mut self.writers[c] {
                    if w.token == token {
                        w.place = place;
                    }
                }
            }
        }
    }

    /// Releases every reservation held by `token` (retire/squash/flush
    /// path). Returns the number of cells released. Visits only the
    /// token's held set, dropping every bit that no longer names a cell
    /// written by this slot.
    pub fn release(&mut self, token: TokenId) -> usize {
        let mut n = 0;
        let base = token.slot() * self.words;
        for k in 0..self.words {
            let Some(&word) = self.held.get(base + k) else { break };
            let (mut bits, mut keep) = (word, 0);
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                let c = k * 64 + b as usize;
                match self.writers[c] {
                    Some(w) if w.token == token => {
                        self.writers[c] = None;
                        n += 1;
                    }
                    // Another generation of the same slot still holds it.
                    Some(w) if w.token.slot == token.slot => keep |= 1 << b,
                    _ => {}
                }
            }
            self.held[base + k] = keep;
        }
        n
    }

    /// Number of cells currently reserved by any token.
    pub fn reserved_cells(&self) -> usize {
        self.writers.iter().filter(|w| w.is_some()).count()
    }

    /// Clears all reservations and zeroes all storage.
    pub fn reset(&mut self) {
        self.cells.fill(0);
        self.writers.fill(None);
        self.held.fill(0);
    }
}

impl Default for RegisterFile {
    fn default() -> Self {
        Self::new()
    }
}

/// A per-instruction reference to a register, with internal value storage —
/// the pipeline-latch copy of an operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegRef {
    reg: RegId,
    val: u32,
}

impl RegRef {
    /// Creates a reference to `reg` with internal value 0.
    pub fn new(reg: RegId) -> Self {
        RegRef { reg, val: 0 }
    }

    /// The referenced register.
    #[inline]
    pub fn reg(&self) -> RegId {
        self.reg
    }

    /// The internal (latched) value.
    #[inline]
    pub fn value(&self) -> u32 {
        self.val
    }

    /// `canRead()` — true if the register has no pending writer.
    #[inline]
    pub fn can_read(&self, rf: &RegisterFile) -> bool {
        rf.readable(self.reg)
    }

    /// `read()` — latches the architectural register value internally.
    #[inline]
    pub fn read(&mut self, rf: &RegisterFile) {
        self.val = rf.value_of(self.reg);
    }

    /// `canWrite()` — true if the register can be reserved for writing.
    #[inline]
    pub fn can_write(&self, rf: &RegisterFile) -> bool {
        rf.writable(self.reg)
    }

    /// `reserveWrite()` — reserves the register for the containing
    /// instruction (`token`, currently in `place`).
    #[inline]
    pub fn reserve_write(&self, rf: &mut RegisterFile, token: TokenId, place: PlaceId) {
        rf.reserve_write(self.reg, token, place);
    }

    /// Stores the computed result internally and publishes it for
    /// forwarding. The paper stores into the RegRef only; publication is the
    /// mechanism by which other instructions' `read(s)` observe it.
    #[inline]
    pub fn set(&mut self, rf: &mut RegisterFile, token: TokenId, value: u32) {
        self.val = value;
        rf.publish(self.reg, token, value);
    }

    /// Stores a value internally without publishing it — the latch half of
    /// [`RegRef::set`]. Pair with [`RegRef::publish`] when the publication
    /// point is a separate pipeline step (the IR `Publish` micro-op).
    #[inline]
    pub fn set_value(&mut self, value: u32) {
        self.val = value;
    }

    /// Publishes the internally latched value for forwarding — the
    /// publication half of [`RegRef::set`].
    #[inline]
    pub fn publish(&self, rf: &mut RegisterFile, token: TokenId) {
        rf.publish(self.reg, token, self.val);
    }

    /// `writeback()` — commits the internal value to the register file and
    /// clears this instruction's reservation.
    #[inline]
    pub fn writeback(&self, rf: &mut RegisterFile, token: TokenId) {
        rf.writeback(self.reg, token, self.val);
    }

    /// `canRead(s)` — true if the in-flight writer of the register is in
    /// state `place` and has published its value (the feedback/bypass path).
    #[inline]
    pub fn can_read_in(&self, rf: &RegisterFile, place: PlaceId) -> bool {
        rf.can_read_in(self.reg, place)
    }

    /// `read(s)` — latches the forwarded value from the in-flight writer.
    ///
    /// # Panics
    ///
    /// Panics if no forwarded value is available; models must check
    /// [`RegRef::can_read_in`] in the guard first, mirroring the paper's
    /// pairing rule for the interfaces.
    #[inline]
    pub fn read_fwd(&mut self, rf: &RegisterFile) {
        self.val = rf
            .forwarded(self.reg)
            .expect("read_fwd without a published forwarding value; check can_read_in in guard");
    }
}

/// A uniform operand: either a register reference or a constant.
///
/// Decode replaces each symbol of an operation class with an `Operand`; a
/// symbol pointing at a register becomes [`Operand::Reg`], one pointing at a
/// constant becomes [`Operand::Imm`]. The `Imm` variant implements the same
/// interface with constant semantics (always readable, `writeback` is a
/// no-op), exactly as the paper's `Const` object, so guards and transitions
/// can treat all operands uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A register operand.
    Reg(RegRef),
    /// A constant operand.
    Imm(u32),
    /// An unused operand slot (always readable, value 0, writes ignored).
    Absent,
}

impl Operand {
    /// Creates a register operand.
    pub fn reg(reg: RegId) -> Self {
        Operand::Reg(RegRef::new(reg))
    }

    /// Creates a constant operand.
    pub fn imm(value: u32) -> Self {
        Operand::Imm(value)
    }

    /// The latched value of the operand.
    #[inline]
    pub fn value(&self) -> u32 {
        match self {
            Operand::Reg(r) => r.value(),
            Operand::Imm(v) => *v,
            Operand::Absent => 0,
        }
    }

    /// The register id, if this is a register operand.
    #[inline]
    pub fn reg_id(&self) -> Option<RegId> {
        match self {
            Operand::Reg(r) => Some(r.reg()),
            _ => None,
        }
    }

    /// `canRead()`.
    #[inline]
    pub fn can_read(&self, rf: &RegisterFile) -> bool {
        match self {
            Operand::Reg(r) => r.can_read(rf),
            Operand::Imm(_) | Operand::Absent => true,
        }
    }

    /// `read()`.
    #[inline]
    pub fn read(&mut self, rf: &RegisterFile) {
        if let Operand::Reg(r) = self {
            r.read(rf);
        }
    }

    /// `canWrite()`.
    #[inline]
    pub fn can_write(&self, rf: &RegisterFile) -> bool {
        match self {
            Operand::Reg(r) => r.can_write(rf),
            Operand::Imm(_) | Operand::Absent => true,
        }
    }

    /// `reserveWrite()`.
    #[inline]
    pub fn reserve_write(&self, rf: &mut RegisterFile, token: TokenId, place: PlaceId) {
        if let Operand::Reg(r) = self {
            r.reserve_write(rf, token, place);
        }
    }

    /// Stores a computed value (and publishes it if a register operand).
    #[inline]
    pub fn set(&mut self, rf: &mut RegisterFile, token: TokenId, value: u32) {
        match self {
            Operand::Reg(r) => r.set(rf, token, value),
            Operand::Imm(v) => *v = value,
            Operand::Absent => {}
        }
    }

    /// Stores a computed value without publishing it (latch half of
    /// [`Operand::set`]; see [`RegRef::set_value`]).
    #[inline]
    pub fn set_value(&mut self, value: u32) {
        match self {
            Operand::Reg(r) => r.set_value(value),
            Operand::Imm(v) => *v = value,
            Operand::Absent => {}
        }
    }

    /// Publishes the latched value for forwarding — no-op for constants
    /// (they are never supplied by a forwarding path). The IR `Publish`
    /// micro-op calls this on every destination operand.
    #[inline]
    pub fn publish(&self, rf: &mut RegisterFile, token: TokenId) {
        if let Operand::Reg(r) = self {
            r.publish(rf, token);
        }
    }

    /// `writeback()` — no-op for constants, as in the paper.
    #[inline]
    pub fn writeback(&self, rf: &mut RegisterFile, token: TokenId) {
        if let Operand::Reg(r) = self {
            r.writeback(rf, token);
        }
    }

    /// `canRead(s)` — constants are never supplied by a forwarding path.
    #[inline]
    pub fn can_read_in(&self, rf: &RegisterFile, place: PlaceId) -> bool {
        match self {
            Operand::Reg(r) => r.can_read_in(rf, place),
            Operand::Imm(_) | Operand::Absent => false,
        }
    }

    /// Masked `canRead(s)`: the writer of the operand's register has
    /// published and sits in a place covered by `mask`
    /// ([`RegisterFile::can_read_masked`]).
    #[inline]
    pub fn can_read_fwd_masked(&self, rf: &RegisterFile, mask: u64) -> bool {
        match self {
            Operand::Reg(r) => rf.can_read_masked(r.reg(), mask),
            Operand::Imm(_) | Operand::Absent => false,
        }
    }

    /// True if the operand can be supplied now: from the register file, or
    /// forwarded from a writer in a place covered by `mask` — the bitmask
    /// twin of the spec layer's list-based obtainability probe.
    #[inline]
    pub fn obtainable_masked(&self, rf: &RegisterFile, mask: u64) -> bool {
        self.can_read(rf) || self.can_read_fwd_masked(rf, mask)
    }

    /// Latches the operand from its best available source (register file
    /// first, then the masked forwarding scoreboard). Must be guarded by
    /// [`Operand::obtainable_masked`].
    #[inline]
    pub fn obtain_masked(&mut self, rf: &RegisterFile, mask: u64) {
        if self.can_read(rf) {
            self.read(rf);
        } else if self.can_read_fwd_masked(rf, mask) {
            self.read_fwd(rf);
        } else {
            debug_assert!(false, "obtain_masked() without obtainable_masked() guard");
        }
    }

    /// `read(s)`.
    ///
    /// # Panics
    ///
    /// Panics for register operands without a published forwarding value;
    /// see [`RegRef::read_fwd`].
    #[inline]
    pub fn read_fwd(&mut self, rf: &RegisterFile) {
        if let Operand::Reg(r) = self {
            r.read_fwd(rf);
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{}", r.reg()),
            Operand::Imm(v) => write!(f, "#{v}"),
            Operand::Absent => write!(f, "-"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(n: u32) -> TokenId {
        TokenId { slot: n, gen: 0 }
    }
    fn pid(n: usize) -> PlaceId {
        PlaceId::from_index(n)
    }

    fn rf_with(n: usize) -> (RegisterFile, Vec<RegId>) {
        let mut rf = RegisterFile::new();
        let regs = rf.add_bank("r", n);
        (rf, regs)
    }

    #[test]
    fn plain_read_write_cycle() {
        let (mut rf, regs) = rf_with(2);
        rf.poke(regs[0], 10);
        let mut src = RegRef::new(regs[0]);
        let mut dst = RegRef::new(regs[1]);
        let t = tid(1);

        assert!(src.can_read(&rf));
        assert!(dst.can_write(&rf));
        src.read(&rf);
        dst.reserve_write(&mut rf, t, pid(0));
        assert!(!rf.readable(regs[1]), "reserved register must not be readable");
        assert!(!rf.writable(regs[1]), "reserved register must not be writable");

        dst.set(&mut rf, t, src.value() + 5);
        dst.writeback(&mut rf, t);
        assert_eq!(rf.value_of(regs[1]), 15);
        assert!(rf.readable(regs[1]), "writeback must clear the reservation");
    }

    #[test]
    fn waw_hazard_blocks_second_writer() {
        let (mut rf, regs) = rf_with(1);
        let a = RegRef::new(regs[0]);
        a.reserve_write(&mut rf, tid(1), pid(0));
        let b = RegRef::new(regs[0]);
        assert!(!b.can_write(&rf), "WAW: second writer must stall");
    }

    #[test]
    fn raw_hazard_blocks_reader_until_writeback() {
        let (mut rf, regs) = rf_with(1);
        let mut w = RegRef::new(regs[0]);
        w.reserve_write(&mut rf, tid(1), pid(0));
        let r = RegRef::new(regs[0]);
        assert!(!r.can_read(&rf), "RAW: reader must stall on pending write");
        w.set(&mut rf, tid(1), 99);
        assert!(!r.can_read(&rf), "publishing is not writeback");
        w.writeback(&mut rf, tid(1));
        assert!(r.can_read(&rf));
        assert_eq!(rf.value_of(regs[0]), 99);
    }

    #[test]
    fn forwarding_requires_state_and_value() {
        let (mut rf, regs) = rf_with(1);
        let mut w = RegRef::new(regs[0]);
        let t = tid(4);
        w.reserve_write(&mut rf, t, pid(2));

        let mut r = RegRef::new(regs[0]);
        // Writer in the right state but value not yet published.
        assert!(!r.can_read_in(&rf, pid(2)));
        w.set(&mut rf, t, 7);
        assert!(r.can_read_in(&rf, pid(2)), "value published, state matches");
        assert!(!r.can_read_in(&rf, pid(3)), "state mismatch");
        r.read_fwd(&rf);
        assert_eq!(r.value(), 7);
    }

    #[test]
    fn note_move_updates_writer_state() {
        let (mut rf, regs) = rf_with(1);
        let w = RegRef::new(regs[0]);
        let t = tid(4);
        w.reserve_write(&mut rf, t, pid(1));
        rf.note_move(t, pid(2));
        assert_eq!(rf.writer_of(regs[0]).unwrap().place, pid(2));
    }

    #[test]
    fn release_clears_squashed_reservations() {
        let (mut rf, regs) = rf_with(3);
        RegRef::new(regs[0]).reserve_write(&mut rf, tid(1), pid(0));
        RegRef::new(regs[1]).reserve_write(&mut rf, tid(1), pid(0));
        RegRef::new(regs[2]).reserve_write(&mut rf, tid(2), pid(0));
        assert_eq!(rf.release(tid(1)), 2);
        assert!(rf.readable(regs[0]));
        assert!(rf.readable(regs[1]));
        assert!(!rf.readable(regs[2]), "other token's reservation survives");
    }

    #[test]
    fn overlapping_registers_conflict() {
        let mut rf = RegisterFile::new();
        let lo = rf.add_register("lo");
        let hi = rf.add_register("hi");
        let pair = rf.add_overlapping("pair", &[lo, hi]);

        RegRef::new(pair).reserve_write(&mut rf, tid(1), pid(0));
        assert!(!rf.readable(lo), "overlapped register must see the hazard");
        assert!(!rf.readable(hi));

        let mut p = RegRef::new(pair);
        p.set(&mut rf, tid(1), 0xABCD);
        p.writeback(&mut rf, tid(1));
        assert_eq!(rf.value_of(lo), 0xABCD, "writing pair writes all overlapped cells");
        assert_eq!(rf.value_of(hi), 0xABCD);
        assert!(rf.readable(lo));
    }

    #[test]
    fn const_operand_has_const_semantics() {
        let (mut rf, _) = rf_with(1);
        let mut c = Operand::imm(12);
        assert!(c.can_read(&rf), "const canRead is always true");
        assert!(c.can_write(&rf));
        assert!(!c.can_read_in(&rf, pid(0)));
        c.read(&rf);
        assert_eq!(c.value(), 12);
        c.writeback(&mut rf, tid(0)); // must be a no-op
        assert_eq!(rf.reserved_cells(), 0);
    }

    #[test]
    fn absent_operand_is_inert() {
        let (mut rf, _) = rf_with(1);
        let mut a = Operand::Absent;
        assert!(a.can_read(&rf));
        a.read(&rf);
        assert_eq!(a.value(), 0);
        a.set(&mut rf, tid(0), 5);
        assert_eq!(a.value(), 0);
        assert!(a.reg_id().is_none());
    }

    #[test]
    fn find_by_name() {
        let (rf, regs) = rf_with(4);
        assert_eq!(rf.find("r2"), Some(regs[2]));
        assert_eq!(rf.find("nope"), None);
        assert_eq!(rf.name(regs[3]), "r3");
    }

    #[test]
    fn masked_forwarding_matches_the_list_probe() {
        let (mut rf, regs) = rf_with(2);
        let mut w = RegRef::new(regs[0]);
        let t = tid(4);
        w.reserve_write(&mut rf, t, pid(2));
        let op = Operand::reg(regs[0]);

        // Unpublished: neither form forwards.
        assert!(!rf.can_read_masked(regs[0], u64::MAX));
        assert!(!op.obtainable_masked(&rf, u64::MAX));

        w.set(&mut rf, t, 7);
        for place in 0..8usize {
            let mask = 1u64 << place;
            assert_eq!(
                op.can_read_fwd_masked(&rf, mask),
                op.can_read_in(&rf, pid(place)),
                "mask bit {place} must agree with the per-place probe"
            );
        }
        let mut fwd = Operand::reg(regs[0]);
        assert!(fwd.obtainable_masked(&rf, 1 << 2));
        fwd.obtain_masked(&rf, 1 << 2);
        assert_eq!(fwd.value(), 7, "masked obtain latches the forwarded value");

        // A free register obtains from the file regardless of the mask.
        rf.poke(regs[1], 9);
        let mut free = Operand::reg(regs[1]);
        assert!(free.obtainable_masked(&rf, 0));
        free.obtain_masked(&rf, 0);
        assert_eq!(free.value(), 9);
        assert!(Operand::imm(3).obtainable_masked(&rf, 0), "constants are always obtainable");
    }

    #[test]
    fn set_value_then_publish_matches_set() {
        let (mut rf, regs) = rf_with(1);
        let mut w = RegRef::new(regs[0]);
        let t = tid(4);
        w.reserve_write(&mut rf, t, pid(2));
        w.set_value(7);
        assert_eq!(w.value(), 7, "value latched internally");
        assert!(!rf.can_read_masked(regs[0], u64::MAX), "not yet published");
        w.publish(&mut rf, t);
        assert!(rf.can_read_masked(regs[0], 1 << 2), "published for forwarding");
        assert_eq!(rf.forwarded(regs[0]), Some(7));

        // Operand forms: Imm::set_value mutates the constant (like set),
        // publish is a no-op on non-register operands.
        let mut c = Operand::imm(1);
        c.set_value(9);
        assert_eq!(c.value(), 9);
        c.publish(&mut rf, t);
        let a = Operand::Absent;
        a.publish(&mut rf, t);
    }

    #[test]
    fn reset_clears_everything() {
        let (mut rf, regs) = rf_with(2);
        rf.poke(regs[0], 5);
        RegRef::new(regs[1]).reserve_write(&mut rf, tid(1), pid(0));
        rf.reset();
        assert_eq!(rf.value_of(regs[0]), 0);
        assert_eq!(rf.reserved_cells(), 0);
    }
}
