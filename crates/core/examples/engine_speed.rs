//! Engine-core speed probe at several pipeline depths. It asserts that
//! each pipeline stays full: one token fetched and one retired per cycle.
use rcpn::prelude::*;
use std::time::Instant;

#[derive(Debug)]
struct Tok(OpClassId);
impl InstrData for Tok {
    fn op_class(&self) -> OpClassId {
        self.0
    }
}

fn build(depth: usize) -> Engine<Tok, u64> {
    let mut b = ModelBuilder::<Tok, u64>::new();
    let stages: Vec<_> = (0..depth).map(|i| b.stage(&format!("S{i}"), 1)).collect();
    let places: Vec<_> =
        stages.iter().enumerate().map(|(i, &s)| b.place(&format!("P{i}"), s)).collect();
    let end = b.end_place();
    let (c, _) = b.class_net("C");
    for i in 0..depth - 1 {
        b.transition(c, &format!("t{i}")).from(places[i]).to(places[i + 1]).done();
    }
    b.transition(c, "tend").from(places[depth - 1]).to(end).done();
    let p0 = places[0];
    b.source("src")
        .to(p0)
        .produce(move |m, _fx| {
            m.res += 1;
            Some(Tok(c))
        })
        .done();
    Engine::new(b.build().unwrap(), Machine::new(RegisterFile::new(), 0u64))
}

fn main() {
    let n = 3_000_000u64;
    for depth in [1usize, 2, 4, 8] {
        let mut e = build(depth);
        let t0 = Instant::now();
        e.run(n);
        let dt = t0.elapsed().as_secs_f64();
        // A full pipeline: one token fetched per cycle, and every token
        // but the `depth` still in flight retired.
        assert_eq!(e.stats().generated, n, "depth {depth}: one fetch per cycle");
        assert_eq!(e.stats().retired, n - depth as u64, "depth {depth}: one retirement per cycle");
        eprintln!(
            "depth {depth}: {:.1} Mcyc/s ({:.0} ns/cycle, {:.1} ns/move)",
            n as f64 / dt / 1e6,
            dt / n as f64 * 1e9,
            dt / n as f64 * 1e9 / (depth as f64 + 1.0)
        );
    }
}
