//! Front-end wall-clock benchmark: AIGER parsing, levelization and the
//! structural sweep on an industrial-scale (~100k-gate) random circuit.
//!
//! The circuit is generated deterministically, serialized to ASCII AIGER
//! in memory, and then pushed through the three front-end stages the
//! `check` subcommand runs before any BDD is built:
//!
//! 1. **parse** — bytes to [`bbec_netlist::Circuit`], including the
//!    topological order computed at build time,
//! 2. **levelize** — per-gate depth/statistics pass,
//! 3. **sweep** — [`bbec_netlist::strash::sweep`] structural reduction.
//!
//! Results are written as a schema-valid JSONL trace stream (validate
//! with the `trace-schema` binary of `bbec-trace`) and gated in CI by
//! `bbec report --compare` against the committed `BENCH_frontend.json`
//! baseline.
//!
//! ```text
//! cargo run --release -p bbec-bench --bin frontend -- [--quick] [--out FILE]
//! ```
//!
//! `--quick` shrinks the circuit for CI smoke runs; `--out` defaults to
//! `BENCH_frontend.json`.

use bbec_netlist::{aiger, generators, strash};
use bbec_trace::{AttrValue, Tracer};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_frontend.json".to_string());

    // The generator prunes logic outside the output cones and the AIGER
    // lowering re-expands gates into ANDs+inverters; 200k requested gates
    // land the *parsed* circuit — the one the front-end actually chews —
    // above the 100k-gate mark.
    let (inputs, gates, outputs, reps) =
        if quick { (64, 10_000, 32, 1) } else { (256, 220_000, 64, 3) };
    let circuit = generators::random_logic("frontend", inputs, gates, outputs, 0xBBEC);
    let text = aiger::write_ascii(&circuit);
    let bytes = text.as_bytes();
    println!(
        "frontend: {} gates, {} inputs, {} outputs, {:.1} MiB of ASCII AIGER",
        circuit.gates().len(),
        inputs,
        outputs,
        bytes.len() as f64 / (1024.0 * 1024.0)
    );

    // Best-of-`reps` per stage; the stages re-run as one sequence so each
    // repetition measures the same parse -> levelize -> sweep chain.
    let mut best = [f64::INFINITY; 3];
    let mut gates_after = 0usize;
    let mut merged = 0usize;
    let mut depth = 0usize;
    for _ in 0..reps {
        let t = Instant::now();
        let parsed = aiger::parse(bytes).expect("self-produced AIGER parses");
        let parse_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let stats = parsed.circuit.stats();
        let level_ms = t.elapsed().as_secs_f64() * 1e3;
        depth = stats.depth;

        let t = Instant::now();
        let swept = strash::sweep(&parsed.circuit);
        let sweep_ms = t.elapsed().as_secs_f64() * 1e3;
        gates_after = swept.stats.gates_after;
        merged = swept.stats.merged_points;

        for (slot, ms) in best.iter_mut().zip([parse_ms, level_ms, sweep_ms]) {
            *slot = slot.min(ms);
        }
    }
    let total: f64 = best.iter().sum();
    // AIGER lowering expands every gate into ANDs+inverters, so the parsed
    // gate count (not the generator's) is the honest "before" figure.
    let parsed_gates = aiger::parse(bytes).expect("parses").circuit.gates().len();
    let reduction = 1.0 - gates_after as f64 / parsed_gates as f64;
    for (stage, ms) in ["parse", "levelize", "sweep"].iter().zip(best) {
        println!("  {stage:<8} {ms:9.2} ms");
    }
    println!(
        "  total    {total:9.2} ms   depth {depth}, {parsed_gates} -> {gates_after} gate(s) \
         ({merged} merged, {:.1}% reduction)",
        reduction * 100.0
    );

    let tracer = Tracer::new();
    for (stage, ms) in ["parse", "levelize", "sweep"].iter().zip(best) {
        tracer.record_event(
            "frontend_bench",
            vec![
                ("stage".to_string(), AttrValue::from(*stage)),
                ("millis".to_string(), ms.into()),
                ("gates".to_string(), parsed_gates.into()),
                ("quick".to_string(), quick.into()),
            ],
        );
    }
    tracer.record_event(
        "frontend_bench_summary",
        vec![
            ("total_millis".to_string(), total.into()),
            ("gates_before".to_string(), parsed_gates.into()),
            ("gates_after".to_string(), gates_after.into()),
            ("merged_points".to_string(), merged.into()),
            ("reduction".to_string(), reduction.into()),
            ("depth".to_string(), depth.into()),
            ("quick".to_string(), quick.into()),
        ],
    );
    std::fs::write(&out, tracer.finish().to_jsonl()).expect("write benchmark output");
    println!("wrote {out}");

    assert!(
        quick || total < 2_000.0,
        "front-end must stay under 2s on 100k gates (took {total:.0} ms)"
    );
}
