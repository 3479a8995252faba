//! Tokens and the token pool.
//!
//! RCPN distinguishes two groups of tokens (paper, Section 3):
//!
//! * **Instruction tokens** carry the decoded data of one instruction being
//!   executed in the pipeline. Each instruction token flows through the
//!   sub-net of its operation class.
//! * **Reservation tokens** carry no data; their presence in a place marks
//!   the corresponding pipeline stage as occupied (e.g. a branch stalling
//!   the fetch latch).
//!
//! Tokens live in a generational pool so that ids recorded elsewhere (the
//! register scoreboard, traces) can detect when a token has retired or been
//! squashed and its slot recycled.

use crate::ids::{OpClassId, PlaceId, TokenId};
use crate::reg::Operand;

/// Payload carried by instruction tokens.
///
/// Implemented by the ISA-specific decoded-instruction type. The engine only
/// needs to know the operation class of the payload; everything else is
/// interpreted by the model's guards and actions.
///
/// The **operand views** (`src_operands`, `dst_operand`, …) expose the
/// payload's resolved [`Operand`]s to the micro-op IR ([`crate::ir`]):
/// `CheckReady`/`AcquireOperands`/`WriteBack` operate on exactly these
/// slices. The defaults present an operand-less payload, which keeps
/// every existing token type working unchanged — IR operand ops over such
/// payloads are trivially satisfied no-ops. A payload that wants its read
/// steps lowered to IR overrides the views (and its
/// [`crate::spec::OperandPolicy`] opts in with `lowers_to_ir`).
pub trait InstrData: 'static {
    /// The operation class of this instruction, which selects the sub-net
    /// its token flows through. The class may change over the lifetime of a
    /// token — typically once, at decode, when a raw fetched word becomes a
    /// classified instruction.
    fn op_class(&self) -> OpClassId;

    /// The source operands the IR `CheckReady`/`AcquireOperands` micro-ops
    /// probe and latch. Defaults to no operands.
    fn src_operands(&self) -> &[Operand] {
        &[]
    }

    /// Mutable view of the source operands (latched in place by
    /// `AcquireOperands`). Defaults to no operands.
    fn src_operands_mut(&mut self) -> &mut [Operand] {
        &mut []
    }

    /// Number of destination operands (`CheckReady` reservability checks,
    /// `AcquireOperands` reservations, `WriteBack` commits). Destinations
    /// are indexed rather than sliced because payloads commonly keep them
    /// in separate fields (`dst`, `dst2`). Defaults to zero.
    fn dst_count(&self) -> usize {
        0
    }

    /// The `i`-th destination operand, `i < dst_count()`.
    ///
    /// # Panics
    ///
    /// The default panics: it is unreachable while `dst_count()` is 0.
    fn dst_operand(&self, i: usize) -> &Operand {
        panic!("token exposes no destination operand (index {i})")
    }

    /// Mutable access to the `i`-th destination operand.
    ///
    /// # Panics
    ///
    /// The default panics: it is unreachable while `dst_count()` is 0.
    fn dst_operand_mut(&mut self, i: usize) -> &mut Operand {
        panic!("token exposes no destination operand (index {i})")
    }

    /// Whether this instruction has been annulled (its condition failed
    /// and it flows through the pipe as a bubble). Probed by models;
    /// set by the IR `Annul` micro-op. Defaults to `false`.
    fn annulled(&self) -> bool {
        false
    }

    /// Marks the instruction annulled (IR `Annul`). The default is a
    /// no-op for payloads that carry no annul flag.
    fn set_annulled(&mut self) {}

    /// Whether the instruction's predication/condition holds, for
    /// payloads that pre-resolve it into the token (IR `CheckCond`).
    /// Payloads whose condition depends on machine state outside the
    /// token (e.g. ARM's CPSR) must keep condition checks in closure
    /// guards instead — this view sees only the token. Defaults to
    /// `true` (unconditional).
    fn cond_passes(&self) -> bool {
        true
    }
}

/// Whether a token is an instruction token or a reservation token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// Carries instruction data; processed by [`crate::engine::Engine`].
    Instruction,
    /// Carries no data; occupies stage capacity until it expires.
    Reservation,
}

/// One in-flight token.
#[derive(Debug)]
pub struct Token<D> {
    pub(crate) id: TokenId,
    pub(crate) kind: TokenKind,
    pub(crate) place: PlaceId,
    /// First cycle at which the token may enable an output transition.
    pub(crate) ready_at: u64,
    /// Cycle at which the token entered its current place.
    pub(crate) arrived_at: u64,
    /// Global allocation sequence number; preserves program order.
    pub(crate) seq: u64,
    /// Payload; `None` for reservation tokens.
    pub(crate) data: Option<D>,
}

impl<D> Token<D> {
    /// The token's id.
    #[inline]
    pub fn id(&self) -> TokenId {
        self.id
    }

    /// Whether this is an instruction or reservation token.
    #[inline]
    pub fn kind(&self) -> TokenKind {
        self.kind
    }

    /// The place the token currently resides in.
    #[inline]
    pub fn place(&self) -> PlaceId {
        self.place
    }

    /// The first cycle at which the token may leave its place.
    #[inline]
    pub fn ready_at(&self) -> u64 {
        self.ready_at
    }

    /// The cycle at which the token entered its current place.
    #[inline]
    pub fn arrived_at(&self) -> u64 {
        self.arrived_at
    }

    /// Allocation sequence number; lower means older (program order).
    #[inline]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The instruction payload, if any.
    #[inline]
    pub fn data(&self) -> Option<&D> {
        self.data.as_ref()
    }

    /// Mutable access to the instruction payload, if any.
    #[inline]
    pub fn data_mut(&mut self) -> Option<&mut D> {
        self.data.as_mut()
    }
}

struct Slot<D> {
    gen: u32,
    token: Option<Token<D>>,
}

/// Generational pool of tokens.
///
/// Slots are recycled through a free list; each reuse bumps the slot's
/// generation so stale [`TokenId`]s resolve to `None`.
pub struct TokenPool<D> {
    slots: Vec<Slot<D>>,
    free: Vec<u32>,
    next_seq: u64,
    live: usize,
}

impl<D> TokenPool<D> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        TokenPool { slots: Vec::new(), free: Vec::new(), next_seq: 0, live: 0 }
    }

    /// Number of live tokens.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total number of tokens ever allocated.
    #[inline]
    pub fn allocated(&self) -> u64 {
        self.next_seq
    }

    /// Allocates a token and returns its id.
    pub fn alloc(
        &mut self,
        kind: TokenKind,
        data: Option<D>,
        place: PlaceId,
        arrived_at: u64,
        ready_at: u64,
    ) -> TokenId {
        debug_assert_eq!(kind == TokenKind::Reservation, data.is_none());
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live += 1;
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(Slot { gen: 0, token: None });
                (self.slots.len() - 1) as u32
            }
        };
        let gen = self.slots[slot as usize].gen;
        let id = TokenId { slot, gen };
        self.slots[slot as usize].token =
            Some(Token { id, kind, place, ready_at, arrived_at, seq, data });
        id
    }

    /// Looks up a live token.
    #[inline]
    pub fn get(&self, id: TokenId) -> Option<&Token<D>> {
        let slot = self.slots.get(id.slot())?;
        if slot.gen != id.gen {
            return None;
        }
        slot.token.as_ref()
    }

    /// Looks up a live token mutably.
    #[inline]
    pub fn get_mut(&mut self, id: TokenId) -> Option<&mut Token<D>> {
        let slot = self.slots.get_mut(id.slot())?;
        if slot.gen != id.gen {
            return None;
        }
        slot.token.as_mut()
    }

    /// Removes a token from the pool, returning it.
    ///
    /// The slot's generation is bumped so the id can no longer resolve.
    ///
    /// # Panics
    ///
    /// Panics if the id does not refer to a live token.
    pub fn take(&mut self, id: TokenId) -> Token<D> {
        self.vacate(id).take().expect("token already taken")
    }

    /// Drops a token in place, returning only its sequence number — the
    /// form of [`TokenPool::take`] for tokens whose payload is dead
    /// (retirement, join consumption, reservation expiry), which never
    /// moves the payload out of its slot.
    ///
    /// The slot's generation is bumped so the id can no longer resolve.
    ///
    /// # Panics
    ///
    /// Panics if the id does not refer to a live token.
    #[inline]
    pub fn discard(&mut self, id: TokenId) -> u64 {
        let token = self.vacate(id);
        let seq = token.as_ref().expect("token already taken").seq;
        *token = None;
        seq
    }

    /// Frees `id`'s slot (generation bump, free list, live count) and
    /// returns its token cell for the caller to empty.
    fn vacate(&mut self, id: TokenId) -> &mut Option<Token<D>> {
        let slot = &mut self.slots[id.slot()];
        assert_eq!(slot.gen, id.gen, "stale token id {id}");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(id.slot); // id.slot is the raw u32
        self.live -= 1;
        &mut slot.token
    }

    /// Reinserts a token previously removed with [`TokenPool::take`] under a
    /// fresh id (the payload and bookkeeping fields are preserved; the seq
    /// number is kept so program order survives re-insertion).
    pub fn reinsert(&mut self, mut token: Token<D>) -> TokenId {
        self.live += 1;
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(Slot { gen: 0, token: None });
                (self.slots.len() - 1) as u32
            }
        };
        let gen = self.slots[slot as usize].gen;
        let id = TokenId { slot, gen };
        token.id = id;
        self.slots[slot as usize].token = Some(token);
        id
    }

    /// Iterates over all live tokens.
    pub fn iter(&self) -> impl Iterator<Item = &Token<D>> {
        self.slots.iter().filter_map(|s| s.token.as_ref())
    }
}

impl<D> Default for TokenPool<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D: std::fmt::Debug> std::fmt::Debug for TokenPool<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TokenPool")
            .field("live", &self.live)
            .field("allocated", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn place(i: usize) -> PlaceId {
        PlaceId::from_index(i)
    }

    #[test]
    fn alloc_get_take() {
        let mut pool: TokenPool<u32> = TokenPool::new();
        let id = pool.alloc(TokenKind::Instruction, Some(42), place(0), 1, 2);
        assert_eq!(pool.live(), 1);
        let tok = pool.get(id).unwrap();
        assert_eq!(tok.data(), Some(&42));
        assert_eq!(tok.place(), place(0));
        assert_eq!(tok.arrived_at(), 1);
        assert_eq!(tok.ready_at(), 2);
        let tok = pool.take(id);
        assert_eq!(tok.data, Some(42));
        assert_eq!(pool.live(), 0);
        assert!(pool.get(id).is_none(), "taken id must not resolve");
    }

    #[test]
    fn recycled_slot_gets_new_generation() {
        let mut pool: TokenPool<u32> = TokenPool::new();
        let a = pool.alloc(TokenKind::Instruction, Some(1), place(0), 0, 0);
        pool.take(a);
        let b = pool.alloc(TokenKind::Instruction, Some(2), place(0), 0, 0);
        assert_eq!(a.slot(), b.slot());
        assert_ne!(a, b);
        assert!(pool.get(a).is_none());
        assert_eq!(pool.get(b).unwrap().data(), Some(&2));
    }

    #[test]
    fn seq_numbers_increase() {
        let mut pool: TokenPool<u32> = TokenPool::new();
        let a = pool.alloc(TokenKind::Instruction, Some(1), place(0), 0, 0);
        let b = pool.alloc(TokenKind::Instruction, Some(2), place(0), 0, 0);
        assert!(pool.get(a).unwrap().seq() < pool.get(b).unwrap().seq());
        assert_eq!(pool.allocated(), 2);
    }

    #[test]
    fn reservation_tokens_have_no_data() {
        let mut pool: TokenPool<u32> = TokenPool::new();
        let id = pool.alloc(TokenKind::Reservation, None, place(3), 5, 6);
        let tok = pool.get(id).unwrap();
        assert_eq!(tok.kind(), TokenKind::Reservation);
        assert!(tok.data().is_none());
    }

    #[test]
    fn reinsert_preserves_seq() {
        let mut pool: TokenPool<u32> = TokenPool::new();
        let a = pool.alloc(TokenKind::Instruction, Some(7), place(0), 0, 0);
        let seq = pool.get(a).unwrap().seq();
        let tok = pool.take(a);
        let b = pool.reinsert(tok);
        assert_ne!(a, b);
        assert_eq!(pool.get(b).unwrap().seq(), seq);
        assert_eq!(pool.get(b).unwrap().id(), b);
    }

    #[test]
    fn discard_returns_seq_and_frees_the_slot() {
        let mut pool: TokenPool<u32> = TokenPool::new();
        let a = pool.alloc(TokenKind::Instruction, Some(1), place(0), 0, 0);
        let b = pool.alloc(TokenKind::Instruction, Some(2), place(0), 0, 0);
        let seq_b = pool.get(b).unwrap().seq();
        assert_eq!(pool.discard(b), seq_b);
        assert_eq!(pool.live(), 1, "live count stays exact");
        assert!(pool.get(b).is_none(), "discarded id must not resolve");
        assert_eq!(pool.get(a).unwrap().data(), Some(&1), "other tokens are untouched");

        // The slot went back on the free list under a bumped generation.
        let c = pool.alloc(TokenKind::Reservation, None, place(1), 0, 0);
        assert_eq!(c.slot(), b.slot());
        assert_eq!(c.generation(), b.generation().wrapping_add(1));
        assert!(pool.get(b).is_none(), "the reused slot does not resurrect the old id");
        assert_eq!(pool.get(c).unwrap().seq(), 2);
        assert_eq!(pool.live(), 2);

        assert_eq!(pool.discard(a), 0);
        assert_eq!(pool.discard(c), 2);
        assert_eq!(pool.live(), 0);
        assert_eq!(pool.iter().count(), 0);
    }

    #[test]
    fn discard_and_take_reject_a_stale_id_alike() {
        let stale_msg = |f: fn(&mut TokenPool<u32>, TokenId)| {
            let mut pool: TokenPool<u32> = TokenPool::new();
            let a = pool.alloc(TokenKind::Instruction, Some(1), place(0), 0, 0);
            pool.take(a);
            let _b = pool.alloc(TokenKind::Instruction, Some(2), place(0), 0, 0);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut pool, a)))
                .expect_err("a stale id must panic");
            (err.downcast_ref::<String>().cloned().unwrap_or_default(), pool.live())
        };
        let take = stale_msg(|p, id| {
            let _ = p.take(id);
        });
        let discard = stale_msg(|p, id| {
            let _ = p.discard(id);
        });
        assert!(take.0.contains("stale token id"), "{}", take.0);
        assert_eq!(take, discard, "same message, and the pool is left untouched");
        assert_eq!(discard.1, 1);
    }

    #[test]
    fn iter_visits_live_tokens() {
        let mut pool: TokenPool<u32> = TokenPool::new();
        let a = pool.alloc(TokenKind::Instruction, Some(1), place(0), 0, 0);
        let _b = pool.alloc(TokenKind::Instruction, Some(2), place(0), 0, 0);
        pool.take(a);
        let vals: Vec<u32> = pool.iter().map(|t| *t.data().unwrap()).collect();
        assert_eq!(vals, vec![2]);
    }
}
