//! AIGER front-end integration tests: golden fixtures, format round
//! trips, and simulation equivalence across BLIF <-> AIGER conversions.

use bbec::netlist::{aiger, blif, generators, Circuit, Tv};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

fn fixture(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/aiger").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Exhaustive binary equivalence of two circuits with identical
/// interfaces (small input counts only).
fn assert_eval_equal(a: &Circuit, b: &Circuit, what: &str) {
    assert_eq!(a.inputs().len(), b.inputs().len(), "{what}: input arity");
    assert_eq!(a.outputs().len(), b.outputs().len(), "{what}: output arity");
    let n = a.inputs().len();
    if n <= 12 {
        for bits in 0..(1u32 << n) {
            let v: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(a.eval(&v).unwrap(), b.eval(&v).unwrap(), "{what}: inputs {v:?}");
        }
    } else {
        let mut rng = StdRng::seed_from_u64(0xA16E);
        for _ in 0..256 {
            let v: Vec<bool> = (0..n).map(|_| rng.random_bool(0.5)).collect();
            assert_eq!(a.eval(&v).unwrap(), b.eval(&v).unwrap(), "{what}: inputs {v:?}");
        }
    }
}

/// Sampled *ternary* equivalence — the property the sweep and the AIGER
/// lowering must preserve for the checker's Kleene-semantics rungs.
fn assert_ternary_equal_sampled(a: &Circuit, b: &Circuit, what: &str) {
    let n = a.inputs().len();
    let mut rng = StdRng::seed_from_u64(0x7E51);
    for _ in 0..200 {
        let v: Vec<Tv> = (0..n)
            .map(|_| match rng.random_range(0..3u32) {
                0 => Tv::Zero,
                1 => Tv::One,
                _ => Tv::X,
            })
            .collect();
        assert_eq!(
            a.eval_ternary(&v).unwrap(),
            b.eval_ternary(&v).unwrap(),
            "{what}: ternary inputs {v:?}"
        );
    }
}

#[test]
fn golden_ascii_fixture_parses_to_known_functions() {
    let parsed = aiger::parse(&fixture("and_xor.aag")).expect("golden ASCII parses");
    assert!(parsed.boxes.is_empty());
    let c = &parsed.circuit;
    assert_eq!(c.inputs().len(), 2);
    assert_eq!(c.outputs().len(), 2);
    // f = a AND b, g = a XOR b over all four assignments.
    for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
        let out = c.eval(&[a, b]).unwrap();
        assert_eq!(out[0], a && b, "f({a},{b})");
        assert_eq!(out[1], a ^ b, "g({a},{b})");
    }
}

#[test]
fn golden_binary_fixture_matches_ascii_twin() {
    let ascii = aiger::parse(&fixture("and_xor.aag")).expect("ASCII parses");
    let binary = aiger::parse(&fixture("and_xor.aig")).expect("binary parses");
    assert_eval_equal(&ascii.circuit, &binary.circuit, "and_xor ascii vs binary");
}

#[test]
fn golden_box_fixtures_demote_annotated_inputs() {
    for name in ["partial_box.aag", "partial_box.aig"] {
        let parsed = aiger::parse(&fixture(name)).expect("box fixture parses");
        assert_eq!(parsed.boxes.len(), 1, "{name}");
        let bx = &parsed.boxes[0];
        assert_eq!(bx.name, "BB1");
        assert_eq!(bx.inputs, vec!["a", "b"]);
        assert_eq!(bx.outputs, vec!["bb"]);
        let c = &parsed.circuit;
        // The annotated net left the input list and became undriven.
        assert_eq!(c.inputs().len(), 3, "{name}");
        let undriven = c.undriven_signals();
        assert_eq!(undriven.len(), 1, "{name}");
        assert_eq!(c.signal_name(undriven[0]), "bb", "{name}");
        // f = bb OR c: an X box output leaves f unknown unless c = 1.
        let out = c.eval_ternary(&[Tv::Zero, Tv::Zero, Tv::One]).unwrap();
        assert_eq!(out[0], Tv::One);
        let out = c.eval_ternary(&[Tv::Zero, Tv::Zero, Tv::Zero]).unwrap();
        assert_eq!(out[0], Tv::X);
    }
}

#[test]
fn blif_aiger_round_trip_preserves_simulation() {
    for circuit in [
        generators::ripple_carry_adder(3),
        generators::magnitude_comparator(4),
        generators::random_logic("rt", 8, 60, 4, 0xBEEF),
    ] {
        let name = circuit.name().to_string();
        // BLIF -> circuit -> ASCII AIGER -> circuit.
        let via_blif = blif::parse(&blif::write(&circuit)).expect("BLIF round trip");
        let via_aag =
            aiger::parse(aiger::write_ascii(&via_blif).as_bytes()).expect("AIGER round trip");
        assert_eval_equal(&circuit, &via_aag.circuit, &name);
        assert_ternary_equal_sampled(&circuit, &via_aag.circuit, &name);
        // Binary AIGER agrees with the ASCII form.
        let via_aig = aiger::parse(&aiger::write_binary(&circuit)).expect("binary round trip");
        assert_eval_equal(&via_aag.circuit, &via_aig.circuit, &name);
        // And back out to BLIF again: the chain is closed.
        let back = blif::parse(&blif::write(&via_aig.circuit)).expect("BLIF re-export");
        assert_eval_equal(&circuit, &back, &name);
    }
}

#[test]
fn box_annotations_survive_write_parse_cycles() {
    let parsed = aiger::parse(&fixture("partial_box.aag")).expect("parses");
    let ascii = aiger::write_ascii_with_boxes(&parsed.circuit, &parsed.boxes);
    let again = aiger::parse(ascii.as_bytes()).expect("re-parses");
    assert_eq!(again.boxes, parsed.boxes);
    let binary = aiger::write_binary_with_boxes(&parsed.circuit, &parsed.boxes);
    let once_more = aiger::parse(&binary).expect("binary re-parses");
    assert_eq!(once_more.boxes, parsed.boxes);
    // Boxed circuits carry undriven nets, so binary eval is unavailable;
    // ternary simulation (box outputs read X) is the meaningful check.
    assert_ternary_equal_sampled(&parsed.circuit, &once_more.circuit, "boxed round trip");
}

#[test]
fn box_pins_naming_internal_nets_are_rejected() {
    // The box is fed by the internal net `n1`. AIGER names only inputs,
    // and the reader mints its own `n<k>` names for AND nodes, so the pin
    // must not bind to whatever the reader happened to call `n1`.
    let partial = blif::parse_allow_undriven(
        ".model p\n.inputs a b c\n.outputs f\n\
         .names a b n1\n11 1\n.names bb c f\n1- 1\n-1 1\n.end\n",
    )
    .expect("partial BLIF parses");
    let boxes = [aiger::AigerBox {
        name: "BB".to_string(),
        inputs: vec!["n1".to_string()],
        outputs: vec!["bb".to_string()],
    }];
    let ascii = aiger::write_ascii_with_boxes(&partial, &boxes);
    let binary = aiger::write_binary_with_boxes(&partial, &boxes);
    for (what, bytes) in [("ascii", ascii.as_bytes()), ("binary", binary.as_slice())] {
        let err = aiger::parse(bytes).expect_err(what).to_string();
        assert!(err.contains("`BB`") && err.contains("`n1`"), "{what}: {err}");
    }
}
