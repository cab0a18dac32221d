//! Simulation micro-benchmark: throughput of the bit-parallel dual-rail
//! engine against the scalar interpreters, on the exact workload the
//! random-pattern rung runs.
//!
//! Four workloads, each reported as a `sim_micro` record carrying
//! patterns/sec:
//!
//! * `rp_rung` — the packed random-pattern rung ([`checks::random_patterns`])
//!   on a clean boxed instance (no early exit: the full pattern budget runs).
//! * `rp_rung_scalar` — the scalar reference rung
//!   ([`random_patterns_scalar`]) on the same instance and
//!   pattern stream: the speedup denominator.
//! * `packed_bool` — raw two-valued `eval_block` sweeps.
//! * `packed_ternary` — raw dual-rail `eval_ternary_block` sweeps.
//!
//! A `sim_micro_summary` record carries `rp_speedup` (packed over scalar);
//! in full (non-`--quick`) mode the binary exits nonzero if the speedup
//! falls below 20×. The committed `BENCH_sim.json` holds the baseline rows;
//! CI re-runs this binary and gates on a >25% patterns/sec regression via
//! `bbec report --compare`.
//!
//! ```text
//! cargo run --release -p bbec-bench --bin sim_micro -- \
//!     [--quick] [--out FILE] [--phase NAME]
//! ```

use bbec_core::{checks, CheckSettings, PartialCircuit};
use bbec_netlist::bitsim::BitSim;
use bbec_netlist::{generators, Circuit};
use bbec_oracle::scalar::random_patterns_scalar;
use bbec_trace::{AttrValue, Tracer};
use std::time::Instant;

/// Deterministic SplitMix64 so every run measures the same pattern stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

struct Measurement {
    workload: &'static str,
    patterns: u64,
    millis: f64,
}

impl Measurement {
    fn patterns_per_sec(&self) -> f64 {
        if self.millis <= 0.0 {
            0.0
        } else {
            self.patterns as f64 / (self.millis / 1e3)
        }
    }
}

/// The rung instance: a clean carve of the '181 ALU. No planted error, so
/// both rung variants sweep the full pattern budget.
fn rung_instance() -> (Circuit, PartialCircuit) {
    let spec = generators::alu_181();
    let partial = PartialCircuit::black_box_gates(&spec, &[5, 9]).expect("clean carve");
    (spec, partial)
}

fn bench_rung(patterns: usize, scalar: bool) -> Measurement {
    let (spec, partial) = rung_instance();
    let settings = CheckSettings {
        random_patterns: patterns,
        dynamic_reordering: false,
        ..CheckSettings::default()
    };
    let t0 = Instant::now();
    let out = if scalar {
        random_patterns_scalar(&spec, &partial, &settings)
    } else {
        checks::random_patterns(&spec, &partial, &settings)
    }
    .expect("rung runs");
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    assert!(out.counterexample.is_none(), "clean instance must stay clean");
    Measurement {
        workload: if scalar { "rp_rung_scalar" } else { "rp_rung" },
        patterns: out.stats.patterns,
        millis,
    }
}

fn bench_packed_bool(blocks: usize) -> Measurement {
    let c = generators::alu_181();
    let n = c.inputs().len();
    let mut sim = BitSim::new(&c);
    let mut rng = Rng(0xBBEC_5101);
    let mut words = vec![0u64; n];
    let mut sink = 0u64;
    let t0 = Instant::now();
    for _ in 0..blocks {
        for w in words.iter_mut() {
            *w = rng.next();
        }
        let out = sim.eval_block(&words).expect("complete circuit");
        sink ^= out[0];
    }
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(sink);
    Measurement { workload: "packed_bool", patterns: blocks as u64 * 64, millis }
}

fn bench_packed_ternary(blocks: usize) -> Measurement {
    let c = generators::alu_181();
    let n = c.inputs().len();
    let mut sim = BitSim::new(&c);
    let mut rng = Rng(0xBBEC_5102);
    let mut ones = vec![0u64; n];
    let mut xs = vec![0u64; n];
    let mut sink = 0u64;
    let t0 = Instant::now();
    for _ in 0..blocks {
        for i in 0..n {
            let x = rng.next() & rng.next();
            xs[i] = x;
            ones[i] = rng.next() & !x;
        }
        let (o, x) = sim.eval_ternary_block(&ones, &xs).expect("complete circuit");
        sink ^= o[0] ^ x[0];
    }
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(sink);
    Measurement { workload: "packed_ternary", patterns: blocks as u64 * 64, millis }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    let out = flag("--out").unwrap_or_else(|| "BENCH_sim.json".to_string());
    let phase = flag("--phase").unwrap_or_else(|| "current".to_string());

    let (rung_patterns, blocks) = if quick { (20_000, 1_000) } else { (400_000, 40_000) };

    let rows = [
        bench_rung(rung_patterns, false),
        bench_rung(rung_patterns, true),
        bench_packed_bool(blocks),
        bench_packed_ternary(blocks),
    ];
    let speedup = rows[0].patterns_per_sec() / rows[1].patterns_per_sec().max(1e-9);

    let tracer = Tracer::new();
    println!("sim_micro (phase {phase}{}):", if quick { ", quick" } else { "" });
    for r in &rows {
        println!(
            "  {:<16} {:>10} patterns in {:>9.2} ms = {:>13.0} patterns/s",
            r.workload,
            r.patterns,
            r.millis,
            r.patterns_per_sec(),
        );
        tracer.record_event(
            "sim_micro",
            vec![
                ("workload".to_string(), AttrValue::from(r.workload)),
                ("phase".to_string(), AttrValue::from(phase.as_str())),
                ("quick".to_string(), quick.into()),
                ("patterns".to_string(), r.patterns.into()),
                ("millis".to_string(), r.millis.into()),
                ("patterns_per_sec".to_string(), r.patterns_per_sec().into()),
            ],
        );
    }
    println!("  rp speedup (packed / scalar): {speedup:.1}x");
    tracer.record_event(
        "sim_micro_summary",
        vec![
            ("phase".to_string(), AttrValue::from(phase.as_str())),
            ("quick".to_string(), quick.into()),
            ("workloads".to_string(), rows.len().into()),
            ("rp_speedup".to_string(), speedup.into()),
        ],
    );
    std::fs::write(&out, tracer.finish().to_jsonl()).expect("write benchmark output");
    println!("wrote {out}");

    if !quick && speedup < 20.0 {
        eprintln!("sim_micro: FAIL — rp speedup {speedup:.1}x below the 20x floor");
        std::process::exit(1);
    }
}
