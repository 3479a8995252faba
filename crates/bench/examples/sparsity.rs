//! Prints the activity-driven scheduler's sparsity counters and the
//! guard-dispatch counters for each RCPN simulator over the benchmark
//! kernels: how many place scans, token examinations and
//! candidate-transition evaluations the dirty-place worklist skipped
//! relative to the exhaustive Figure-8 sweep (which is also run, as the
//! 0%-skip reference), how guard evaluations split between the micro-op
//! IR interpreter (`ir`, with `fused` ready/acquire fires) and the
//! closure hook path (`hook`), how many firings dispatched through a
//! compiled superblock (`sblocks`, with `inlined` micro-ops interpreted
//! on the fast path) — the per-op and closure-lowered StrongARM rows are
//! the successively weaker dispatch references — and how many cycles
//! `CaSim::run` fast-forwarded as exact repeats of a quiescent cycle
//! (`ff`; never under the exhaustive sweep).
//!
//! ```text
//! cargo run --release -p rcpn-bench --example sparsity
//! ```

use rcpn_bench::{compiled_sim, Simulator, MAX_CYCLES};
use workloads::{Kernel, Workload};

fn main() {
    println!(
        "{:<32}{:>10}{:>13}{:>11}{:>8}{:>12}{:>11}{:>11}{:>12}{:>12}{:>10}{:>10}",
        "simulator/kernel",
        "cycles",
        "place_visits",
        "skips",
        "ratio",
        "guard_ir",
        "guard_hook",
        "fused",
        "sblocks",
        "inlined",
        "trans",
        "ff"
    );
    for sim in [
        Simulator::RcpnStrongArm,
        Simulator::RcpnXScale,
        Simulator::RcpnStrongArmExhaustive,
        Simulator::RcpnStrongArmClosure,
        Simulator::RcpnStrongArmPerOp,
    ] {
        let compiled = compiled_sim(sim).expect("RCPN simulator");
        let mut fast_forwarded = 0;
        for kernel in Kernel::ALL {
            let size = (kernel.bench_size() / 20).max(kernel.test_size());
            let w = Workload::build(kernel, size);
            let mut s = compiled.instantiate(&w.program);
            let r = s.run(MAX_CYCLES);
            assert_eq!(r.exit, Some(w.expected), "{}/{}", sim.name(), kernel);
            let sc = s.sched();
            if sim == Simulator::RcpnStrongArmClosure {
                assert_eq!(sc.guard_ir_evals, 0, "closure row must not dispatch through IR");
            } else {
                assert!(sc.guard_ir_evals > 0, "IR row must dispatch through IR");
            }
            if matches!(sim, Simulator::RcpnStrongArmClosure | Simulator::RcpnStrongArmPerOp) {
                assert_eq!(sc.superblocks_entered, 0, "oracle row must not enter superblocks");
                assert_eq!(sc.ops_inlined, 0);
            } else {
                // Superblock formation is lookup- and scheduler-independent:
                // the exhaustive-sweep row dispatches through them too.
                assert!(sc.superblocks_entered > 0, "IR row must dispatch superblocks");
                assert!(sc.ops_inlined > 0, "superblock firings must interpret inline ops");
            }
            let ff = s.engine.fast_forwarded_cycles();
            if sim == Simulator::RcpnStrongArmExhaustive {
                assert_eq!(ff, 0, "the exhaustive sweep must not fast-forward");
            }
            fast_forwarded += ff;
            println!(
                "{:<32}{:>10}{:>13}{:>11}{:>7.1}%{:>12}{:>11}{:>11}{:>12}{:>12}{:>10}{:>10}",
                format!("{}/{}", sim.name(), kernel.name()),
                r.cycles,
                sc.place_visits,
                sc.place_skips,
                100.0 * sc.place_skip_ratio(),
                sc.guard_ir_evals,
                sc.guard_hook_evals,
                sc.actions_fused,
                sc.superblocks_entered,
                sc.ops_inlined,
                sc.trans_visits,
                ff,
            );
        }
        if sim == Simulator::RcpnStrongArm {
            assert!(fast_forwarded > 0, "the default StrongARM must fast-forward some cycles");
        }
    }
}
