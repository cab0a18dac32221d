//! AIGER (And-Inverter Graph) reader and writer.
//!
//! Supports both the ASCII (`aag`, typically `.aag` files) and binary
//! (`aig`, `.aig`) formats of the AIGER exchange format, combinational
//! subset only — latches are rejected. Reading maps the AND-inverter
//! graph onto the netlist IR with inverters folded where a gate kind can
//! absorb them (`And(¬a, ¬b)` loads as `Nor(a, b)`, constant and
//! duplicate operands collapse); writing strash-encodes every
//! [`GateKind`] into two-input ANDs plus inverter literals.
//!
//! Black boxes ride in the comment section with the same convention the
//! BLIF fixtures use: a line
//!
//! ```text
//! bbec-box ADDER | a b cin | s cout
//! ```
//!
//! names a box, its input pins and its output nets. Every pin must name
//! an AIGER input of the file (by symbol or as the default `i<pos>`):
//! internal nets have no names in AIGER. Box *outputs* are listed among
//! the AIGER inputs (the format has no notion of an undriven net); the
//! reader demotes every annotated output from primary input to undriven
//! signal, recovering the partial-implementation shape the checker
//! expects.

use crate::circuit::{Circuit, NetlistError, SignalId};
use crate::gate::GateKind;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// A black-box annotation carried in the AIGER comment section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AigerBox {
    /// Box instance name.
    pub name: String,
    /// Nets feeding the box.
    pub inputs: Vec<String>,
    /// Nets the box drives (undriven in the loaded circuit).
    pub outputs: Vec<String>,
}

/// A parsed AIGER file: the circuit plus any box annotations.
#[derive(Debug, Clone)]
pub struct Aiger {
    /// The loaded circuit; box outputs are undriven signals.
    pub circuit: Circuit,
    /// Black-box annotations, in file order.
    pub boxes: Vec<AigerBox>,
}

/// Marker introducing a box annotation in the comment section.
const BOX_MARKER: &str = "bbec-box ";

/// Parses an AIGER file, ASCII or binary (sniffed from the header).
///
/// # Errors
///
/// [`NetlistError::Parse`] on malformed headers, truncated binary
/// sections, latches, undefined or cyclic references, and box pins that
/// name anything but an AIGER input the file declares.
pub fn parse(bytes: &[u8]) -> Result<Aiger, NetlistError> {
    let mut r = ByteReader { bytes, pos: 0 };
    let header = r.line()?;
    let mut fields = header.split_whitespace();
    let format = fields.next().unwrap_or("");
    let binary = match format {
        "aag" => false,
        "aig" => true,
        other => return Err(NetlistError::Parse(format!("not an AIGER header: `{other}`"))),
    };
    let nums: Vec<u64> = fields
        .map(|t| {
            t.parse::<u64>()
                .map_err(|_| NetlistError::Parse(format!("bad AIGER header field `{t}`")))
        })
        .collect::<Result<_, _>>()?;
    if nums.len() < 5 {
        return Err(NetlistError::Parse("AIGER header needs M I L O A".to_string()));
    }
    if nums[5..].iter().any(|&n| n != 0) {
        return Err(NetlistError::Parse(
            "AIGER 1.9 extensions (bad/constraint/justice/fairness) unsupported".to_string(),
        ));
    }
    let (max_var, num_in, num_latch, num_out, num_and) =
        (nums[0], nums[1], nums[2], nums[3], nums[4]);
    if num_latch > 0 {
        return Err(NetlistError::Parse("sequential AIGER (latches) unsupported".to_string()));
    }
    if max_var < num_in + num_and {
        return Err(NetlistError::Parse(format!(
            "AIGER header inconsistent: M={max_var} < I+A={}",
            num_in + num_and
        )));
    }
    let lit_ok = |lit: u64| -> Result<u64, NetlistError> {
        if lit / 2 > max_var {
            Err(NetlistError::Parse(format!("literal {lit} exceeds maxvar {max_var}")))
        } else {
            Ok(lit)
        }
    };

    // Structure sections.
    let mut inputs: Vec<u64> = Vec::with_capacity(num_in as usize);
    let mut outputs: Vec<u64> = Vec::with_capacity(num_out as usize);
    let mut ands: Vec<(u64, u64, u64)> = Vec::with_capacity(num_and as usize);
    if binary {
        // Inputs are implicit: literals 2, 4, …, 2I.
        for i in 0..num_in {
            inputs.push(2 * (i + 1));
        }
        for _ in 0..num_out {
            outputs.push(lit_ok(r.literal_line()?)?);
        }
        for i in 0..num_and {
            let lhs = 2 * (num_in + i + 1);
            let delta0 = r.delta()?;
            let rhs0 = lhs
                .checked_sub(delta0)
                .ok_or_else(|| NetlistError::Parse(format!("and {lhs}: delta exceeds lhs")))?;
            let delta1 = r.delta()?;
            let rhs1 = rhs0
                .checked_sub(delta1)
                .ok_or_else(|| NetlistError::Parse(format!("and {lhs}: delta exceeds rhs0")))?;
            ands.push((lit_ok(lhs)?, rhs0, rhs1));
        }
    } else {
        for _ in 0..num_in {
            let lit = lit_ok(r.literal_line()?)?;
            if lit < 2 || lit & 1 != 0 {
                return Err(NetlistError::Parse(format!("bad input literal {lit}")));
            }
            inputs.push(lit);
        }
        for _ in 0..num_out {
            outputs.push(lit_ok(r.literal_line()?)?);
        }
        for _ in 0..num_and {
            let line = r.line()?;
            let mut t = line.split_whitespace();
            let mut next = || -> Result<u64, NetlistError> {
                t.next()
                    .ok_or_else(|| NetlistError::Parse("truncated and line".to_string()))?
                    .parse::<u64>()
                    .map_err(|_| NetlistError::Parse("bad and literal".to_string()))
            };
            let (lhs, rhs0, rhs1) = (next()?, next()?, next()?);
            if lhs < 2 || lhs & 1 != 0 {
                return Err(NetlistError::Parse(format!("bad and lhs {lhs}")));
            }
            ands.push((lit_ok(lhs)?, lit_ok(rhs0)?, lit_ok(rhs1)?));
        }
    }

    // Symbol table and comments.
    let mut input_names: HashMap<usize, String> = HashMap::new();
    let mut output_names: HashMap<usize, String> = HashMap::new();
    let mut boxes: Vec<AigerBox> = Vec::new();
    let mut in_comments = false;
    while let Ok(line) = r.line() {
        let line = line.trim();
        if in_comments {
            let body = line.strip_prefix('#').map(str::trim_start).unwrap_or(line);
            if let Some(spec) = body.strip_prefix(BOX_MARKER) {
                boxes.push(parse_box(spec)?);
            }
            continue;
        }
        if line == "c" {
            in_comments = true;
            continue;
        }
        if line.is_empty() {
            continue;
        }
        let (kind, rest) = line.split_at(1);
        let mut t = rest.splitn(2, ' ');
        let pos: usize = t
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| NetlistError::Parse(format!("bad symbol line `{line}`")))?;
        let name = t
            .next()
            .ok_or_else(|| NetlistError::Parse(format!("symbol line without name `{line}`")))?
            .to_string();
        match kind {
            "i" if pos < inputs.len() => {
                input_names.insert(pos, name);
            }
            "o" if pos < outputs.len() => {
                output_names.insert(pos, name);
            }
            _ => {
                return Err(NetlistError::Parse(format!("bad symbol line `{line}`")));
            }
        }
    }

    build_circuit(inputs, outputs, ands, input_names, output_names, boxes)
}

/// Parses AIGER from text (ASCII format convenience wrapper).
///
/// # Errors
///
/// As [`parse`].
pub fn parse_str(text: &str) -> Result<Aiger, NetlistError> {
    parse(text.as_bytes())
}

fn parse_box(spec: &str) -> Result<AigerBox, NetlistError> {
    let mut parts = spec.split('|');
    let name = parts.next().unwrap_or("").trim().to_string();
    let ins = parts.next();
    let outs = parts.next();
    let (Some(ins), Some(outs)) = (ins, outs) else {
        return Err(NetlistError::Parse(format!("malformed box annotation `{BOX_MARKER}{spec}`")));
    };
    if name.is_empty() {
        return Err(NetlistError::Parse("box annotation without a name".to_string()));
    }
    Ok(AigerBox {
        name,
        inputs: ins.split_whitespace().map(str::to_string).collect(),
        outputs: outs.split_whitespace().map(str::to_string).collect(),
    })
}

fn build_circuit(
    inputs: Vec<u64>,
    outputs: Vec<u64>,
    ands: Vec<(u64, u64, u64)>,
    input_names: HashMap<usize, String>,
    output_names: HashMap<usize, String>,
    boxes: Vec<AigerBox>,
) -> Result<Aiger, NetlistError> {
    let box_outputs: Vec<&str> =
        boxes.iter().flat_map(|bx| bx.outputs.iter().map(String::as_str)).collect();
    let mut b = Circuit::builder("aiger");
    // Positive-phase signal of each defined variable.
    let mut var_sig: HashMap<u64, SignalId> = HashMap::new();
    // Memoized inverters and constants, so shared negations fold.
    let mut not_cache: HashMap<u64, SignalId> = HashMap::new();
    let mut const_cache: [Option<SignalId>; 2] = [None, None];
    // Names of the AIGER inputs the file declares: the only nets a box pin
    // may name. Every other signal is one this reader mints (`n<k>`), so a
    // pin matching it would bind to an unrelated net.
    let mut declared: HashSet<String> = HashSet::with_capacity(inputs.len());

    for (pos, &lit) in inputs.iter().enumerate() {
        let var = lit / 2;
        let default;
        let name = match input_names.get(&pos) {
            Some(n) => n.as_str(),
            None => {
                default = format!("i{pos}");
                &default
            }
        };
        if b.contains_signal(name) {
            return Err(NetlistError::Parse(format!("duplicate input name `{name}`")));
        }
        let sig = if box_outputs.contains(&name) {
            // A black-box output: declared, but not a primary input.
            b.signal(name)
        } else {
            b.input(name)
        };
        if var_sig.insert(var, sig).is_some() {
            return Err(NetlistError::Parse(format!("duplicate input literal {lit}")));
        }
        declared.insert(name.to_string());
    }

    for &(lhs, rhs0, rhs1) in &ands {
        let var = lhs / 2;
        if var_sig.contains_key(&var) {
            return Err(NetlistError::Parse(format!("literal {lhs} defined twice")));
        }
        let sig = build_and(&mut b, &var_sig, &mut not_cache, &mut const_cache, rhs0, rhs1)
            .map_err(|lit| {
                NetlistError::Parse(format!(
                    "and {lhs} reads literal {lit} before it is defined (cyclic or unordered file)"
                ))
            })?;
        var_sig.insert(var, sig);
    }

    for (pos, &lit) in outputs.iter().enumerate() {
        let default;
        let name = match output_names.get(&pos) {
            Some(n) => n.as_str(),
            None => {
                default = format!("o{pos}");
                &default
            }
        };
        let sig = literal_signal(&mut b, &var_sig, &mut not_cache, &mut const_cache, lit)
            .map_err(|lit| NetlistError::Parse(format!("output reads undefined literal {lit}")))?;
        b.output(name, sig);
    }

    // Box pins must name AIGER inputs the file declares.
    for bx in &boxes {
        for net in bx.inputs.iter().chain(&bx.outputs) {
            if !declared.contains(net) {
                return Err(NetlistError::Parse(format!(
                    "box `{}` pin `{net}` is not an AIGER input declared by the file",
                    bx.name
                )));
            }
        }
    }

    let circuit = if box_outputs.is_empty() { b.build()? } else { b.build_allow_undriven()? };
    Ok(Aiger { circuit, boxes })
}

/// Resolves an AIGER literal to a circuit signal, minting memoized
/// constants and inverters on demand. `Err` carries the offending
/// literal when its variable is undefined.
fn literal_signal(
    b: &mut crate::circuit::CircuitBuilder,
    var_sig: &HashMap<u64, SignalId>,
    not_cache: &mut HashMap<u64, SignalId>,
    const_cache: &mut [Option<SignalId>; 2],
    lit: u64,
) -> Result<SignalId, u64> {
    if lit < 2 {
        let bit = lit as usize;
        return Ok(*const_cache[bit].get_or_insert_with(|| b.constant(bit == 1)));
    }
    let var = lit / 2;
    let base = *var_sig.get(&var).ok_or(lit)?;
    if lit & 1 == 0 {
        Ok(base)
    } else {
        Ok(*not_cache.entry(var).or_insert_with(|| b.not(base)))
    }
}

/// Builds one AND node, folding constants, duplicates and double
/// negations into the strongest gate kind available.
fn build_and(
    b: &mut crate::circuit::CircuitBuilder,
    var_sig: &HashMap<u64, SignalId>,
    not_cache: &mut HashMap<u64, SignalId>,
    const_cache: &mut [Option<SignalId>; 2],
    rhs0: u64,
    rhs1: u64,
) -> Result<SignalId, u64> {
    // Constant operands.
    if rhs0 == 0 || rhs1 == 0 {
        return literal_signal(b, var_sig, not_cache, const_cache, 0);
    }
    if rhs0 == 1 {
        return literal_signal(b, var_sig, not_cache, const_cache, rhs1);
    }
    if rhs1 == 1 {
        return literal_signal(b, var_sig, not_cache, const_cache, rhs0);
    }
    // Duplicate operand: And(x, x) = x (also holds for X).
    if rhs0 == rhs1 {
        return literal_signal(b, var_sig, not_cache, const_cache, rhs0);
    }
    // Note: And(x, ¬x) is NOT folded to 0 — under the checker's ternary
    // semantics it evaluates to X when x does, and the load must preserve
    // the ternary function of the file as written.
    if rhs0 & 1 == 1 && rhs1 & 1 == 1 {
        // Both operands inverted: absorb as Nor(a, b).
        let a = literal_signal(b, var_sig, not_cache, const_cache, rhs0 & !1)?;
        let c = literal_signal(b, var_sig, not_cache, const_cache, rhs1 & !1)?;
        return Ok(b.nor2(a, c));
    }
    let a = literal_signal(b, var_sig, not_cache, const_cache, rhs0)?;
    let c = literal_signal(b, var_sig, not_cache, const_cache, rhs1)?;
    Ok(b.and2(a, c))
}

/// Byte cursor over an AIGER file; lines are ASCII, deltas are the
/// binary format's 7-bit variable-length chunks.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl ByteReader<'_> {
    fn line(&mut self) -> Result<&str, NetlistError> {
        if self.pos >= self.bytes.len() {
            return Err(NetlistError::Parse("unexpected end of file".to_string()));
        }
        let start = self.pos;
        let end = self.bytes[start..]
            .iter()
            .position(|&c| c == b'\n')
            .map(|i| start + i)
            .unwrap_or(self.bytes.len());
        self.pos = end + 1;
        std::str::from_utf8(&self.bytes[start..end])
            .map(|s| s.trim_end_matches('\r'))
            .map_err(|_| NetlistError::Parse("non-UTF-8 text section".to_string()))
    }

    fn literal_line(&mut self) -> Result<u64, NetlistError> {
        let line = self.line()?;
        line.trim()
            .parse::<u64>()
            .map_err(|_| NetlistError::Parse(format!("expected literal, got `{line}`")))
    }

    fn delta(&mut self) -> Result<u64, NetlistError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| NetlistError::Parse("truncated binary and section".to_string()))?;
            self.pos += 1;
            if shift >= 64 {
                return Err(NetlistError::Parse("binary delta overflows u64".to_string()));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// An AND-inverter graph lowered from a [`Circuit`], shared by the ASCII
/// and binary writers. Variables: 1..=I are the AIGER inputs (primary
/// inputs followed by undriven box-output nets, in signal order), then
/// one per AND node.
struct Aig {
    /// Input net names, in variable order.
    input_names: Vec<String>,
    /// `(rhs0, rhs1)` per AND node; node `i` is variable `I + 1 + i`.
    ands: Vec<(u64, u64)>,
    /// Output literals with port names.
    outputs: Vec<(String, u64)>,
}

impl Aig {
    fn from_circuit(circuit: &Circuit) -> Aig {
        let mut input_names: Vec<String> = Vec::new();
        let mut sig_lit: HashMap<SignalId, u64> = HashMap::new();
        for &s in circuit.inputs() {
            input_names.push(circuit.signal_name(s).to_string());
            sig_lit.insert(s, 2 * input_names.len() as u64);
        }
        // Undriven signals something actually reads become extra AIGER
        // inputs (black-box outputs). Dead stumps left behind by gate
        // pruning are dropped — the text formats never mention them either.
        let mut read = vec![false; circuit.signal_count()];
        for gate in circuit.gates() {
            for &s in &gate.inputs {
                read[s.index()] = true;
            }
        }
        for &(_, s) in circuit.outputs() {
            read[s.index()] = true;
        }
        for s in circuit.undriven_signals() {
            if !circuit.is_input(s) && read[s.index()] {
                input_names.push(circuit.signal_name(s).to_string());
                sig_lit.insert(s, 2 * input_names.len() as u64);
            }
        }
        let num_in = input_names.len() as u64;
        let mut ands: Vec<(u64, u64)> = Vec::new();
        // Structural hashing at the AIG level: identical AND nodes share
        // a variable.
        let mut cons: HashMap<(u64, u64), u64> = HashMap::new();
        let mut and_lit = |ands: &mut Vec<(u64, u64)>, a: u64, b: u64| -> u64 {
            if a == 0 || b == 0 {
                return 0;
            }
            if a == 1 || a == b {
                return b;
            }
            if b == 1 {
                return a;
            }
            let key = (a.max(b), a.min(b));
            if let Some(&lit) = cons.get(&key) {
                return lit;
            }
            ands.push(key);
            let lit = 2 * (num_in + ands.len() as u64);
            cons.insert(key, lit);
            lit
        };
        for &g in circuit.topo_order() {
            let gate = &circuit.gates()[g as usize];
            let ins: Vec<u64> = gate.inputs.iter().map(|s| sig_lit[s]).collect();
            let lit = match gate.kind {
                GateKind::Const0 => 0,
                GateKind::Const1 => 1,
                GateKind::Buf => ins[0],
                GateKind::Not => ins[0] ^ 1,
                GateKind::And | GateKind::Nand => {
                    let conj = ins.iter().fold(1, |acc, &x| and_lit(&mut ands, acc, x));
                    conj ^ u64::from(gate.kind == GateKind::Nand)
                }
                GateKind::Or | GateKind::Nor => {
                    let conj = ins.iter().fold(1, |acc, &x| and_lit(&mut ands, acc, x ^ 1));
                    conj ^ u64::from(gate.kind == GateKind::Or)
                }
                GateKind::Xor | GateKind::Xnor => {
                    let parity = ins.iter().fold(0, |acc, &x| {
                        // a ⊕ b = ¬(¬(a ∧ ¬b) ∧ ¬(¬a ∧ b))
                        let t0 = and_lit(&mut ands, acc, x ^ 1);
                        let t1 = and_lit(&mut ands, acc ^ 1, x);
                        and_lit(&mut ands, t0 ^ 1, t1 ^ 1) ^ 1
                    });
                    parity ^ u64::from(gate.kind == GateKind::Xnor)
                }
            };
            sig_lit.insert(gate.output, lit);
        }
        let outputs =
            circuit.outputs().iter().map(|(name, s)| (name.clone(), sig_lit[s])).collect();
        Aig { input_names, ands, outputs }
    }

    fn max_var(&self) -> u64 {
        (self.input_names.len() + self.ands.len()) as u64
    }
}

fn symbol_and_comment_section(aig: &Aig, boxes: &[AigerBox]) -> String {
    let mut out = String::new();
    for (pos, name) in aig.input_names.iter().enumerate() {
        let _ = writeln!(out, "i{pos} {name}");
    }
    for (pos, (name, _)) in aig.outputs.iter().enumerate() {
        let _ = writeln!(out, "o{pos} {name}");
    }
    if !boxes.is_empty() {
        out.push_str("c\n");
        for bx in boxes {
            let _ = writeln!(
                out,
                "{BOX_MARKER}{} | {} | {}",
                bx.name,
                bx.inputs.join(" "),
                bx.outputs.join(" ")
            );
        }
    }
    out
}

/// Serializes a circuit to ASCII AIGER (`aag`).
pub fn write_ascii(circuit: &Circuit) -> String {
    write_ascii_with_boxes(circuit, &[])
}

/// Serializes a circuit to ASCII AIGER with box annotations in the
/// comment section; box outputs (undriven nets) are emitted as inputs.
pub fn write_ascii_with_boxes(circuit: &Circuit, boxes: &[AigerBox]) -> String {
    let aig = Aig::from_circuit(circuit);
    let num_in = aig.input_names.len() as u64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "aag {} {} 0 {} {}",
        aig.max_var(),
        num_in,
        aig.outputs.len(),
        aig.ands.len()
    );
    for i in 0..num_in {
        let _ = writeln!(out, "{}", 2 * (i + 1));
    }
    for (_, lit) in &aig.outputs {
        let _ = writeln!(out, "{lit}");
    }
    for (i, &(rhs0, rhs1)) in aig.ands.iter().enumerate() {
        let lhs = 2 * (num_in + 1 + i as u64);
        let _ = writeln!(out, "{lhs} {rhs0} {rhs1}");
    }
    out.push_str(&symbol_and_comment_section(&aig, boxes));
    out
}

/// Serializes a circuit to binary AIGER (`aig`).
pub fn write_binary(circuit: &Circuit) -> Vec<u8> {
    write_binary_with_boxes(circuit, &[])
}

/// Serializes a circuit to binary AIGER with box annotations.
pub fn write_binary_with_boxes(circuit: &Circuit, boxes: &[AigerBox]) -> Vec<u8> {
    let aig = Aig::from_circuit(circuit);
    let num_in = aig.input_names.len() as u64;
    let mut out: Vec<u8> = Vec::new();
    out.extend_from_slice(
        format!("aig {} {} 0 {} {}\n", aig.max_var(), num_in, aig.outputs.len(), aig.ands.len())
            .as_bytes(),
    );
    for (_, lit) in &aig.outputs {
        out.extend_from_slice(format!("{lit}\n").as_bytes());
    }
    for (i, &(rhs0, rhs1)) in aig.ands.iter().enumerate() {
        let lhs = 2 * (num_in + 1 + i as u64);
        debug_assert!(rhs0 >= rhs1 && lhs > rhs0, "binary AIGER ordering");
        push_delta(&mut out, lhs - rhs0);
        push_delta(&mut out, rhs0 - rhs1);
    }
    out.extend_from_slice(symbol_and_comment_section(&aig, boxes).as_bytes());
    out
}

fn push_delta(out: &mut Vec<u8>, mut delta: u64) {
    loop {
        let chunk = (delta & 0x7f) as u8;
        delta >>= 7;
        if delta == 0 {
            out.push(chunk);
            break;
        }
        out.push(chunk | 0x80);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ternary::Tv;

    fn assert_bool_equal(a: &Circuit, b: &Circuit) {
        assert_eq!(a.inputs().len(), b.inputs().len());
        for bits in 0..1u32 << a.inputs().len() {
            let v: Vec<bool> = (0..a.inputs().len()).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(a.eval(&v).unwrap(), b.eval(&v).unwrap(), "at {bits:b}");
        }
    }

    const TOY_AAG: &str = "\
aag 5 2 0 2 3
2
4
10
11
6 2 4
8 3 5
10 7 9
i0 x
i1 y
o0 f
o1 g
";

    #[test]
    fn parse_ascii_semantics() {
        // f = ¬(¬(x∧y) ∧ ¬(¬x∧¬y)) = xnor? Let's check: 6 = x∧y,
        // 8 = ¬x∧¬y, 10 = ¬6∧¬8 → f(lit 10) = ¬(x∧y)∧¬(¬x∧¬y) = x⊕y,
        // g(lit 11) = ¬f.
        let aiger = parse_str(TOY_AAG).unwrap();
        let c = &aiger.circuit;
        assert!(aiger.boxes.is_empty());
        assert_eq!(c.inputs().len(), 2);
        assert_eq!(c.outputs().len(), 2);
        for bits in 0..4u32 {
            let x = bits & 1 == 1;
            let y = bits >> 1 & 1 == 1;
            let out = c.eval(&[x, y]).unwrap();
            assert_eq!(out[0], x ^ y, "f at {bits:02b}");
            assert_eq!(out[1], !(x ^ y), "g at {bits:02b}");
        }
    }

    #[test]
    fn inverters_fold_into_nor() {
        let aiger = parse_str(TOY_AAG).unwrap();
        let c = &aiger.circuit;
        // 8 = ¬x∧¬y and 10 = ¬6∧¬8 load as Nor gates; the only inverter
        // left is the one on output g (lit 11).
        assert_eq!(c.gates().len(), 4, "{:?}", c.gates());
        assert_eq!(c.gates().iter().filter(|g| g.kind == GateKind::Not).count(), 1);
        assert_eq!(c.gates().iter().filter(|g| g.kind == GateKind::Nor).count(), 2);
    }

    #[test]
    fn ascii_round_trip_all_kinds() {
        let mut b = Circuit::builder("kinds");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.input("z");
        let g1 = b.gate(GateKind::And, &[x, y, z]);
        let g2 = b.gate(GateKind::Nor, &[x, y, z]);
        let g3 = b.nand2(x, y);
        let g4 = b.gate(GateKind::Xor, &[x, y, z]);
        let g5 = b.xnor2(y, z);
        let g6 = b.not(x);
        let g7 = b.constant(true);
        for (i, g) in [g1, g2, g3, g4, g5, g6, g7].into_iter().enumerate() {
            b.output(&format!("g{i}"), g);
        }
        let c = b.build().unwrap();
        let text = write_ascii(&c);
        let c2 = parse_str(&text).unwrap().circuit;
        assert_bool_equal(&c, &c2);
    }

    #[test]
    fn binary_round_trip_matches_ascii() {
        let c = crate::generators::ripple_carry_adder(3);
        let from_ascii = parse_str(&write_ascii(&c)).unwrap().circuit;
        let from_binary = parse(&write_binary(&c)).unwrap().circuit;
        assert_bool_equal(&c, &from_ascii);
        assert_bool_equal(&c, &from_binary);
        assert_eq!(from_ascii.gates().len(), from_binary.gates().len());
    }

    #[test]
    fn box_annotations_demote_inputs() {
        let mut b = Circuit::builder("partial");
        let x = b.input("x");
        let bb = b.signal("bb_out");
        let f = b.or2(x, bb);
        b.output("f", f);
        let c = b.build_allow_undriven().unwrap();
        let boxes = vec![AigerBox {
            name: "BB1".to_string(),
            inputs: vec!["x".to_string()],
            outputs: vec!["bb_out".to_string()],
        }];
        for bytes in [write_ascii_with_boxes(&c, &boxes).into_bytes(), {
            write_binary_with_boxes(&c, &boxes)
        }] {
            let aiger = parse(&bytes).unwrap();
            assert_eq!(aiger.boxes, boxes);
            let c2 = &aiger.circuit;
            assert_eq!(c2.inputs().len(), 1, "bb_out demoted");
            let bb2 = c2.find_signal("bb_out").unwrap();
            assert!(c2.driver_of(bb2).is_none());
            // Ternary semantics (the undriven box output reads X) match.
            for x in [Tv::Zero, Tv::One, Tv::X] {
                assert_eq!(c.eval_ternary(&[x]).unwrap(), c2.eval_ternary(&[x]).unwrap());
            }
        }
    }

    #[test]
    fn ternary_preserved_through_round_trip() {
        // The AND/inverter encoding of Xor must not strengthen ternary
        // results (X in → X out stays X).
        let mut b = Circuit::builder("t");
        let x = b.input("x");
        let y = b.input("y");
        let f = b.xor2(x, y);
        b.output("f", f);
        let c = b.build().unwrap();
        let c2 = parse_str(&write_ascii(&c)).unwrap().circuit;
        for x in [Tv::Zero, Tv::One, Tv::X] {
            for y in [Tv::Zero, Tv::One, Tv::X] {
                assert_eq!(
                    c.eval_ternary(&[x, y]).unwrap(),
                    c2.eval_ternary(&[x, y]).unwrap(),
                    "at {x:?} {y:?}"
                );
            }
        }
    }

    #[test]
    fn rejects_latches_and_garbage() {
        assert!(parse_str("aag 1 0 1 0 0\n2 3\n").is_err());
        assert!(parse_str("hello world").is_err());
        assert!(parse_str("aag 1 1 0\n").is_err());
        // Truncated binary and section.
        assert!(parse(b"aig 3 1 0 1 2\n6\n").is_err());
        // Undefined literal.
        assert!(parse_str("aag 3 1 0 1 1\n2\n6\n6 4 2\n").is_err());
    }

    #[test]
    fn constant_outputs() {
        let aiger = parse_str("aag 1 1 0 2 0\n2\n1\n0\n").unwrap();
        let c = &aiger.circuit;
        assert_eq!(c.eval(&[false]).unwrap(), vec![true, false]);
        assert_eq!(c.eval(&[true]).unwrap(), vec![true, false]);
    }

    #[test]
    fn unnamed_ports_get_defaults() {
        let aiger = parse_str("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n").unwrap();
        let c = &aiger.circuit;
        assert_eq!(c.signal_name(c.inputs()[0]), "i0");
        assert_eq!(c.outputs()[0].0, "o0");
    }
}
