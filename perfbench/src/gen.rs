//! Seeded program generators, each with a Rust gold model.
//!
//! The simulators only ever see assembled images; the seed stays here.
//! Every generator is a pure function of `(seed, index)`, so the same seed
//! rebuilds the same programs and the same gold checksums.

use arm_isa::asm::assemble;
use arm_isa::program::Program;
use workloads::rng::XorShift32;

/// A generated program with its gold results.
#[derive(Debug, Clone)]
pub struct GenProgram {
    /// Short display name (`chase-0`, `mix-07`, ...).
    pub name: String,
    /// The assembled image.
    pub program: Program,
    /// Exit code (`r0` at `swi #0`) computed by the gold model.
    pub expected: u32,
    /// Bytes the program writes through `swi #1`, from the gold model.
    pub output: Vec<u8>,
}

/// Nodes in one pointer-chase list: 16 bytes each, 128 KiB in all — four
/// times XScale's 32 KiB D-cache and eight times StrongARM's 16 KiB.
const CHASE_NODES: usize = 8192;

/// Node visits per pointer-chase program. Fewer than [`CHASE_NODES`], so
/// every visit lands on a node the walk has not touched yet.
const CHASE_STEPS: u32 = 3000;

const NODE_BYTES: u32 = 16;

/// A non-zero xorshift seed derived from the benchmark seed, the
/// generator and the program index (splitmix64 finaliser).
fn rng_for(seed: u64, stream: u64, index: usize) -> XorShift32 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((index as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    XorShift32::new((z as u32) | 1)
}

/// Gold model of the pointer-chase walk (mirrors the assembly below).
fn chase_gold(next: &[u32], value: &[u32], head: u32, steps: u32, mult: u32) -> u32 {
    let mut acc = 0u32;
    let mut node = head as usize;
    for _ in 0..steps {
        let v = value[node];
        node = next[node] as usize;
        if v & 1 == 0 {
            acc = acc.wrapping_add(v >> 3);
        } else {
            acc ^= v;
        }
        if v & 2 != 0 {
            acc = acc.wrapping_add(v.wrapping_mul(mult));
        }
    }
    acc
}

/// Program `index` of the pointer-chase workload for `seed`: a walk over
/// a random single-cycle linked list (Sattolo's shuffle) of
/// [`CHASE_NODES`] nodes, with a data-dependent branch and a conditional
/// multiply per node. Almost every visit misses the D-cache, so the
/// pipelines spend most cycles stalled on memory.
pub fn pointer_chase(seed: u64, index: usize) -> GenProgram {
    let mut rng = rng_for(seed, 1, index);
    let n = CHASE_NODES;
    // Sattolo: a uniformly random cyclic permutation, so the walk never
    // closes early.
    let mut next: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u32) as usize;
        next.swap(i, j);
    }
    let value: Vec<u32> = (0..n).map(|_| rng.next_u32()).collect();
    let head = rng.below(n as u32);
    let mult = rng.next_u32() | 1;
    let expected = chase_gold(&next, &value, head, CHASE_STEPS, mult);

    let src = format!(
        "; pointer chase: {n} nodes, {CHASE_STEPS} visits
    ldr   r1, =nodes
    ldr   r4, ={head_off}
    add   r1, r1, r4
    ldr   r2, ={CHASE_STEPS}
    ldr   r6, =0x{mult:08x}
    mov   r0, #0
walk:
    ldr   r3, [r1, #4]        ; node value
    ldr   r1, [r1]            ; next node (the dependent miss)
    tst   r3, #1
    beq   even
    eor   r0, r0, r3
    b     join
even:
    add   r0, r0, r3, lsr #3
join:
    tst   r3, #2
    mulne r5, r3, r6
    addne r0, r0, r5
    subs  r2, r2, #1
    bne   walk
    swi   #0
    .pool
    .align 32
nodes:
",
        head_off = head * NODE_BYTES,
    );
    let mut program = assemble(&src).expect("pointer-chase template assembles");
    let nodes = program.label("nodes").expect("nodes label");
    assert_eq!(nodes, program.image_end(), "node array starts right after the code");
    for i in 0..n {
        program.words.extend([nodes + next[i] * NODE_BYTES, value[i], rng.next_u32(), 0]);
    }
    GenProgram { name: format!("chase-{index}"), program, expected, output: Vec::new() }
}

/// Table words addressed by the short programs' loads and stores.
const MIX_TABLE: usize = 16;

/// One operation of a short generated program, over `r0`–`r5` and the
/// table at `r8` (`r9` is the index scratch register).
#[derive(Debug, Clone, Copy)]
enum MixOp {
    Add { d: usize, n: usize, m: usize },
    EorLsl { d: usize, n: usize, m: usize, s: u32 },
    SubLsr { d: usize, n: usize, m: usize, s: u32 },
    OrrImm { d: usize, n: usize, imm: u32 },
    Mul { d: usize, m: usize, s: usize },
    Load { d: usize, n: usize },
    Store { m: usize, n: usize },
    CondAdd { d: usize, n: usize, m: usize },
}

impl MixOp {
    fn random(rng: &mut XorShift32) -> MixOp {
        let mut r = || rng.below(6) as usize;
        let (d, n, m) = (r(), r(), r());
        let s = 1 + (n as u32 + m as u32) % 7;
        match rng.below(8) {
            0 => MixOp::Add { d, n, m },
            1 => MixOp::EorLsl { d, n, m, s },
            2 => MixOp::SubLsr { d, n, m, s },
            3 => MixOp::OrrImm { d, n, imm: rng.below(256) },
            // `mul` needs rd != rm on ARMv4.
            4 => MixOp::Mul { d, m: if m == d { (d + 1) % 6 } else { m }, s: n },
            5 => MixOp::Load { d, n },
            6 => MixOp::Store { m, n },
            _ => MixOp::CondAdd { d, n, m },
        }
    }

    fn asm(self, out: &mut String) {
        let mask = MIX_TABLE - 1;
        let line = match self {
            MixOp::Add { d, n, m } => format!("    add   r{d}, r{n}, r{m}\n"),
            MixOp::EorLsl { d, n, m, s } => format!("    eor   r{d}, r{n}, r{m}, lsl #{s}\n"),
            MixOp::SubLsr { d, n, m, s } => format!("    sub   r{d}, r{n}, r{m}, lsr #{s}\n"),
            MixOp::OrrImm { d, n, imm } => format!("    orr   r{d}, r{n}, #{imm}\n"),
            MixOp::Mul { d, m, s } => format!("    mul   r{d}, r{m}, r{s}\n"),
            MixOp::Load { d, n } => {
                format!("    and   r9, r{n}, #{mask}\n    ldr   r{d}, [r8, r9, lsl #2]\n")
            }
            MixOp::Store { m, n } => {
                format!("    and   r9, r{n}, #{mask}\n    str   r{m}, [r8, r9, lsl #2]\n")
            }
            MixOp::CondAdd { d, n, m } => {
                format!("    tst   r{n}, #1\n    addne r{d}, r{d}, r{m}\n")
            }
        };
        out.push_str(&line);
    }

    fn apply(self, r: &mut [u32; 6], table: &mut [u32; MIX_TABLE]) {
        let idx = |v: u32| (v as usize) & (MIX_TABLE - 1);
        match self {
            MixOp::Add { d, n, m } => r[d] = r[n].wrapping_add(r[m]),
            MixOp::EorLsl { d, n, m, s } => r[d] = r[n] ^ (r[m] << s),
            MixOp::SubLsr { d, n, m, s } => r[d] = r[n].wrapping_sub(r[m] >> s),
            MixOp::OrrImm { d, n, imm } => r[d] = r[n] | imm,
            MixOp::Mul { d, m, s } => r[d] = r[m].wrapping_mul(r[s]),
            MixOp::Load { d, n } => r[d] = table[idx(r[n])],
            MixOp::Store { m, n } => table[idx(r[n])] = r[m],
            MixOp::CondAdd { d, n, m } => {
                if r[n] & 1 != 0 {
                    r[d] = r[d].wrapping_add(r[m]);
                }
            }
        }
    }
}

/// Program `index` of the short-job mix for `seed`: a loop of 16–160
/// iterations over 3–8 random ALU, multiply, load/store and conditional
/// operations — a few hundred to a few thousand cycles — that folds its
/// registers into the exit code and writes the low byte through `swi #1`.
pub fn short_mix(seed: u64, index: usize) -> GenProgram {
    let mut rng = rng_for(seed, 2, index);
    let iters = 16 + rng.below(145);
    let ops: Vec<MixOp> = (0..3 + rng.below(6)).map(|_| MixOp::random(&mut rng)).collect();
    let init: [u32; 6] = std::array::from_fn(|_| rng.next_u32());
    let mut table: [u32; MIX_TABLE] = std::array::from_fn(|_| rng.next_u32());

    let mut src = String::from("; short generated job\n    ldr   r8, =table\n");
    for (i, v) in init.iter().enumerate() {
        src.push_str(&format!("    ldr   r{i}, =0x{v:08x}\n"));
    }
    src.push_str(&format!("    ldr   r7, ={iters}\nbody:\n"));
    for op in &ops {
        op.asm(&mut src);
    }
    src.push_str("    subs  r7, r7, #1\n    bne   body\n");
    for i in 1..6 {
        src.push_str(&format!("    add   r0, r0, r{i}, lsl #{i}\n"));
    }
    src.push_str("    swi   #1\n    swi   #0\n    .pool\ntable:\n");
    workloads::rng::emit_words(&mut src, &table);
    let program = assemble(&src).expect("short-mix template assembles");

    let mut r = init;
    for _ in 0..iters {
        for op in &ops {
            op.apply(&mut r, &mut table);
        }
    }
    let mut acc = r[0];
    for (i, v) in r.iter().enumerate().skip(1) {
        acc = acc.wrapping_add(v << i);
    }
    GenProgram { name: format!("mix-{index:02}"), program, expected: acc, output: vec![acc as u8] }
}
