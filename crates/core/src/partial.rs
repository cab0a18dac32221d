//! Partial implementations: circuits with black boxes.

use crate::report::CheckError;
use bbec_netlist::{Circuit, SignalId};
use rand::Rng;
use std::collections::{HashMap, HashSet};

/// One black box: an unfinished region with fixed input and output pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlackBox {
    /// Display name.
    pub name: String,
    /// Signals of the partial circuit feeding the box, in pin order.
    pub inputs: Vec<SignalId>,
    /// Signals driven by the box; they are undriven in the host circuit.
    pub outputs: Vec<SignalId>,
}

/// A combinational circuit with black boxes.
///
/// The host [`Circuit`] contains all finished logic; every black-box output
/// is an undriven signal of the host. Boxes are stored in topological order
/// (a box may only read signals that depend on *earlier* boxes), which the
/// input-exact check of the paper requires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialCircuit {
    circuit: Circuit,
    boxes: Vec<BlackBox>,
}

impl PartialCircuit {
    /// Wraps a host circuit and box list, validating the structure.
    ///
    /// Boxes are re-sorted into topological order automatically.
    ///
    /// # Errors
    ///
    /// [`CheckError::InvalidPartial`] if a box output is driven inside the
    /// host, claimed by two boxes, or if the box dependency graph is cyclic.
    pub fn new(circuit: Circuit, boxes: Vec<BlackBox>) -> Result<PartialCircuit, CheckError> {
        let undriven: HashSet<SignalId> = circuit.undriven_signals().into_iter().collect();
        let mut claimed: HashSet<SignalId> = HashSet::new();
        for b in &boxes {
            if b.outputs.is_empty() {
                return Err(CheckError::InvalidPartial(format!("box `{}` has no outputs", b.name)));
            }
            for &o in &b.outputs {
                if !undriven.contains(&o) {
                    return Err(CheckError::InvalidPartial(format!(
                        "box `{}` output `{}` is driven inside the host circuit",
                        b.name,
                        circuit.signal_name(o)
                    )));
                }
                if !claimed.insert(o) {
                    return Err(CheckError::InvalidPartial(format!(
                        "signal `{}` claimed by two boxes",
                        circuit.signal_name(o)
                    )));
                }
            }
            for &i in &b.inputs {
                if i.index() >= circuit.signal_count() {
                    return Err(CheckError::InvalidPartial(format!(
                        "box `{}` reads an unknown signal",
                        b.name
                    )));
                }
            }
        }
        // A box must be implementable as a combinational block: its input
        // cone may not contain any of its own outputs, otherwise every
        // completion would create a combinational cycle.
        for b in &boxes {
            let cone = transitive_sources(&circuit, &b.inputs);
            if let Some(&o) = b.outputs.iter().find(|o| cone.contains(o)) {
                return Err(CheckError::InvalidPartial(format!(
                    "box `{}` input cone contains its own output `{}` (non-convex region)",
                    b.name,
                    circuit.signal_name(o)
                )));
            }
        }
        let boxes = topo_sort_boxes(&circuit, boxes)?;
        Ok(PartialCircuit { circuit, boxes })
    }

    /// The host circuit (black-box outputs are its undriven signals).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The black boxes, in topological order.
    pub fn boxes(&self) -> &[BlackBox] {
        &self.boxes
    }

    /// All black-box output signals, box by box (the paper's `Z₁ … Z_l`).
    pub fn box_outputs(&self) -> Vec<SignalId> {
        self.boxes.iter().flat_map(|b| b.outputs.iter().copied()).collect()
    }

    /// Total number of black-box output signals (`l` in the paper).
    pub fn num_box_outputs(&self) -> usize {
        self.boxes.iter().map(|b| b.outputs.len()).sum()
    }

    /// Black-boxes a host's undriven signals, the carve for netlists
    /// without box annotations: one box `BB1` drives them all, or with
    /// `per_signal` each gets a box `BB<k>` of its own. Every box observes
    /// all primary inputs, the sound default without pin annotations (it
    /// can only make the input-exact check more permissive). `Ok(None)`
    /// when no signal is undriven.
    ///
    /// # Errors
    ///
    /// As [`PartialCircuit::new`].
    pub fn carve_undriven(
        circuit: Circuit,
        per_signal: bool,
    ) -> Result<Option<PartialCircuit>, CheckError> {
        let undriven = circuit.undriven_signals();
        if undriven.is_empty() {
            return Ok(None);
        }
        let inputs = circuit.inputs().to_vec();
        let boxes = if per_signal {
            undriven
                .iter()
                .enumerate()
                .map(|(i, &o)| BlackBox {
                    name: format!("BB{}", i + 1),
                    inputs: inputs.clone(),
                    outputs: vec![o],
                })
                .collect()
        } else {
            vec![BlackBox { name: "BB1".to_string(), inputs, outputs: undriven }]
        };
        PartialCircuit::new(circuit, boxes).map(Some)
    }

    /// Builds a partial implementation by moving one set of gates of a
    /// complete circuit into a single black box.
    ///
    /// The box's outputs are the removed-gate outputs still observable
    /// (read by remaining gates or primary outputs); its inputs are the
    /// signals the removed region reads from the rest of the circuit.
    ///
    /// # Errors
    ///
    /// [`CheckError::InvalidPartial`] if `gates` is empty or the removed
    /// region has no observable output.
    pub fn black_box_gates(full: &Circuit, gates: &[u32]) -> Result<PartialCircuit, CheckError> {
        Self::black_box_partition(full, std::slice::from_ref(&gates.to_vec()))
    }

    /// Builds a partial implementation with one black box per gate set.
    ///
    /// # Errors
    ///
    /// As [`PartialCircuit::black_box_gates`]; additionally if the induced
    /// box dependency graph is cyclic.
    pub fn black_box_partition(
        full: &Circuit,
        gate_sets: &[Vec<u32>],
    ) -> Result<PartialCircuit, CheckError> {
        let mut all: Vec<u32> = Vec::new();
        let mut owner: HashMap<u32, usize> = HashMap::new();
        for (bi, set) in gate_sets.iter().enumerate() {
            if set.is_empty() {
                return Err(CheckError::InvalidPartial(format!("box {bi} is empty")));
            }
            for &g in set {
                if g as usize >= full.gates().len() {
                    return Err(CheckError::InvalidPartial(format!(
                        "gate {g} out of range for box {bi}"
                    )));
                }
                if owner.insert(g, bi).is_some() {
                    return Err(CheckError::InvalidPartial(format!(
                        "gate {g} assigned to two boxes"
                    )));
                }
                all.push(g);
            }
        }
        let host = full.without_gates(&all);
        let removed: HashSet<u32> = all.iter().copied().collect();
        let mut boxes = Vec::new();
        for (bi, set) in gate_sets.iter().enumerate() {
            let in_box: HashSet<u32> = set.iter().copied().collect();
            let driven_in_box: HashSet<SignalId> =
                set.iter().map(|&g| full.gates()[g as usize].output).collect();
            let mut outputs: Vec<SignalId> = set
                .iter()
                .map(|&g| full.gates()[g as usize].output)
                .filter(|s| {
                    // Observable outside this box (note: reads by this box's
                    // own gates do not count).
                    let read_elsewhere = host.gates().iter().any(|gate| gate.inputs.contains(s))
                        || host.outputs().iter().any(|&(_, o)| o == *s)
                        || removed.iter().any(|&g| {
                            !in_box.contains(&g) && full.gates()[g as usize].inputs.contains(s)
                        });
                    read_elsewhere
                })
                .collect();
            outputs.sort_unstable();
            outputs.dedup();
            if outputs.is_empty() {
                return Err(CheckError::InvalidPartial(format!(
                    "box {bi} has no observable output"
                )));
            }
            let mut inputs: Vec<SignalId> = set
                .iter()
                .flat_map(|&g| full.gates()[g as usize].inputs.iter().copied())
                .filter(|s| !driven_in_box.contains(s))
                .collect();
            inputs.sort_unstable();
            inputs.dedup();
            boxes.push(BlackBox { name: format!("BB{}", bi + 1), inputs, outputs });
        }
        Self::new(host, boxes)
    }

    /// The paper's experimental setup: move `fraction` of the gates into
    /// `num_boxes` black boxes, chosen pseudo-randomly.
    ///
    /// Each box is a randomly placed contiguous *window* of the topological
    /// gate order. Windows are convex by construction (every path between
    /// two window gates runs through gates of the same window), pairwise
    /// disjoint, and naturally ordered, so the box DAG is acyclic and each
    /// box is implementable as a combinational block — the structural
    /// invariants the paper's input-exact check relies on.
    ///
    /// # Errors
    ///
    /// [`CheckError::InvalidPartial`] if the request selects no gates or a
    /// box ends up unobservable (retry with another seed).
    pub fn random_black_boxes<R: Rng + ?Sized>(
        full: &Circuit,
        fraction: f64,
        num_boxes: usize,
        rng: &mut R,
    ) -> Result<PartialCircuit, CheckError> {
        let sets = Self::random_convex_partition(full, fraction, num_boxes, rng);
        Self::black_box_partition(full, &sets)
    }

    /// The gate-set selection behind [`PartialCircuit::random_black_boxes`],
    /// exposed so an experiment harness can mutate the *remaining* gates and
    /// re-extract the same boxes from the faulty circuit.
    pub fn random_convex_partition<R: Rng + ?Sized>(
        full: &Circuit,
        fraction: f64,
        num_boxes: usize,
        rng: &mut R,
    ) -> Vec<Vec<u32>> {
        let n = full.gates().len();
        // At least one gate per requested box, but never more than exist.
        let count = ((n as f64 * fraction).round() as usize).max(num_boxes).min(n);
        let num_boxes = num_boxes.min(count).max(1);
        let box_size = (count / num_boxes).max(1);
        // Place `num_boxes` disjoint windows of `box_size` gates into the
        // topological order: draw the gaps around them as a random
        // composition of the slack.
        let slack = n - box_size * num_boxes;
        let mut cuts: Vec<usize> = (0..num_boxes).map(|_| rng.random_range(0..=slack)).collect();
        cuts.sort_unstable();
        let topo = full.topo_order();
        let mut sets = Vec::with_capacity(num_boxes);
        for (i, cut) in cuts.iter().enumerate() {
            let start = cut + i * box_size;
            let set: Vec<u32> = topo[start..start + box_size].to_vec();
            sets.push(set);
        }
        sets
    }
}

/// Orders boxes topologically by their data dependencies.
fn topo_sort_boxes(circuit: &Circuit, boxes: Vec<BlackBox>) -> Result<Vec<BlackBox>, CheckError> {
    let n = boxes.len();
    if n <= 1 {
        return Ok(boxes);
    }
    // Which box does each box-output signal belong to?
    let mut owner: HashMap<SignalId, usize> = HashMap::new();
    for (bi, b) in boxes.iter().enumerate() {
        for &o in &b.outputs {
            owner.insert(o, bi);
        }
    }
    // Box j depends on box i if any signal in the cone of j's inputs is an
    // output of box i.
    let mut deps: Vec<HashSet<usize>> = vec![HashSet::new(); n];
    for (bj, b) in boxes.iter().enumerate() {
        let cone = transitive_sources(circuit, &b.inputs);
        for s in cone {
            if let Some(&bi) = owner.get(&s) {
                if bi != bj {
                    deps[bj].insert(bi);
                }
            }
        }
    }
    // Kahn.
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    while order.len() < n {
        let next = (0..n).find(|&j| !placed[j] && deps[j].iter().all(|&i| placed[i])).ok_or_else(
            || CheckError::InvalidPartial("cyclic dependency between black boxes".to_string()),
        )?;
        placed[next] = true;
        order.push(next);
    }
    let mut boxes: Vec<Option<BlackBox>> = boxes.into_iter().map(Some).collect();
    Ok(order.into_iter().map(|i| boxes[i].take().expect("each box placed once")).collect())
}

/// Closes a gate set under paths between its members: every gate that is
/// both downstream of some member and upstream of another joins the set.
/// The result is a convex region replaceable by one combinational block —
/// use it to turn a hand-picked suspect set into a valid box for
/// [`PartialCircuit::black_box_gates`].
pub fn convex_closure(circuit: &Circuit, set: &[u32]) -> Vec<u32> {
    let in_set: HashSet<u32> = set.iter().copied().collect();
    // Reader map: which gates consume each signal?
    let mut readers: Vec<Vec<u32>> = vec![Vec::new(); circuit.signal_count()];
    for (gi, gate) in circuit.gates().iter().enumerate() {
        for &s in &gate.inputs {
            readers[s.index()].push(gi as u32);
        }
    }
    // Downstream of the set.
    let mut down = vec![false; circuit.gates().len()];
    let mut stack: Vec<u32> = set.to_vec();
    for &g in set {
        down[g as usize] = true;
    }
    while let Some(g) = stack.pop() {
        let out = circuit.gates()[g as usize].output;
        for &r in &readers[out.index()] {
            if !std::mem::replace(&mut down[r as usize], true) {
                stack.push(r);
            }
        }
    }
    // Upstream of the set.
    let mut up = vec![false; circuit.gates().len()];
    let mut stack: Vec<u32> = set.to_vec();
    for &g in set {
        up[g as usize] = true;
    }
    while let Some(g) = stack.pop() {
        for &s in &circuit.gates()[g as usize].inputs {
            if let Some(di) = circuit.driver_index_of(s) {
                if !std::mem::replace(&mut up[di as usize], true) {
                    stack.push(di);
                }
            }
        }
    }
    let mut closed: Vec<u32> = (0..circuit.gates().len() as u32)
        .filter(|&g| in_set.contains(&g) || (down[g as usize] && up[g as usize]))
        .collect();
    closed.sort_unstable();
    closed
}

/// All signals in the transitive fanin of `roots` (including the roots).
fn transitive_sources(circuit: &Circuit, roots: &[SignalId]) -> HashSet<SignalId> {
    let mut seen: HashSet<SignalId> = HashSet::new();
    let mut stack: Vec<SignalId> = roots.to_vec();
    while let Some(s) = stack.pop() {
        if !seen.insert(s) {
            continue;
        }
        if let Some(gate) = circuit.driver_of(s) {
            stack.extend(gate.inputs.iter().copied());
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbec_netlist::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn adder() -> Circuit {
        generators::ripple_carry_adder(4)
    }

    #[test]
    fn black_box_single_gate() {
        let c = adder();
        let p = PartialCircuit::black_box_gates(&c, &[0]).unwrap();
        assert_eq!(p.boxes().len(), 1);
        let b = &p.boxes()[0];
        assert_eq!(b.outputs.len(), 1);
        assert_eq!(b.inputs.len(), c.gates()[0].inputs.len());
        assert_eq!(p.circuit().gates().len(), c.gates().len() - 1);
        assert_eq!(p.num_box_outputs(), 1);
    }

    #[test]
    fn box_boundary_is_cut_correctly() {
        let c = adder();
        // Remove the first full-adder entirely (5 gates).
        let p = PartialCircuit::black_box_gates(&c, &[0, 1, 2, 3, 4]).unwrap();
        let b = &p.boxes()[0];
        // Observable outputs: sum0 and the carry into stage 1.
        assert_eq!(b.outputs.len(), 2);
        // Inputs: a0, b0, cin.
        assert_eq!(b.inputs.len(), 3);
    }

    #[test]
    fn internal_signals_are_not_box_outputs() {
        let c = adder();
        let p = PartialCircuit::black_box_gates(&c, &[0, 1, 2, 3, 4]).unwrap();
        // The adder's internal xor (gate 0 output) feeds only removed gates,
        // so it must not be listed as a box output.
        let internal = c.gates()[0].output;
        assert!(!p.boxes()[0].outputs.contains(&internal));
    }

    #[test]
    fn partition_into_two_boxes_is_topologically_ordered() {
        let c = adder();
        // Stage 0 gates and stage 2 gates.
        let p =
            PartialCircuit::black_box_partition(&c, &[vec![10, 11, 12], vec![0, 1, 2]]).unwrap();
        assert_eq!(p.boxes().len(), 2);
        // After sorting, the box with the earlier gates must come first: its
        // outputs feed (transitively) the later box's inputs.
        let first = &p.boxes()[0];
        assert!(
            first.outputs.iter().any(|&o| {
                let cone = transitive_sources(p.circuit(), &p.boxes()[1].inputs);
                cone.contains(&o)
            }),
            "first box must feed the second"
        );
    }

    #[test]
    fn rejects_overlapping_boxes_and_bad_gates() {
        let c = adder();
        assert!(PartialCircuit::black_box_partition(&c, &[vec![0], vec![0]]).is_err());
        assert!(PartialCircuit::black_box_partition(&c, &[vec![999]]).is_err());
        assert!(PartialCircuit::black_box_partition(&c, &[vec![]]).is_err());
    }

    #[test]
    fn random_selection_respects_fraction_and_box_count() {
        let c = generators::magnitude_comparator(8);
        let mut rng = StdRng::seed_from_u64(3);
        let p = PartialCircuit::random_black_boxes(&c, 0.1, 1, &mut rng).unwrap();
        assert_eq!(p.boxes().len(), 1);
        let removed = c.gates().len() - p.circuit().gates().len();
        let expect = (c.gates().len() as f64 * 0.1).round() as usize;
        // Convex closure may add path gates on top of the raw selection.
        assert!(removed >= expect, "removed {removed} < requested {expect}");
        assert!(removed <= c.gates().len() / 2, "closure exploded: {removed}");
        let p5 = PartialCircuit::random_black_boxes(&c, 0.2, 5, &mut rng).unwrap();
        assert!(p5.boxes().len() <= 5 && p5.boxes().len() >= 2);
    }

    #[test]
    fn random_selection_is_reproducible() {
        let c = adder();
        let a =
            PartialCircuit::random_black_boxes(&c, 0.3, 2, &mut StdRng::seed_from_u64(7)).unwrap();
        let b =
            PartialCircuit::random_black_boxes(&c, 0.3, 2, &mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn undriven_carves_give_every_box_all_inputs() {
        let full = generators::ripple_carry_adder(2);
        let host = PartialCircuit::black_box_gates(&full, &[0, 1]).unwrap().circuit().clone();
        let undriven = host.undriven_signals().len();
        assert!(undriven > 1);
        let one = PartialCircuit::carve_undriven(host.clone(), false).unwrap().unwrap();
        let split = PartialCircuit::carve_undriven(host.clone(), true).unwrap().unwrap();
        assert_eq!((one.boxes().len(), split.boxes().len()), (1, undriven));
        for b in one.boxes().iter().chain(split.boxes()) {
            assert_eq!(b.inputs, host.inputs(), "box `{}`", b.name);
        }
        assert!(PartialCircuit::carve_undriven(full, false).unwrap().is_none());
    }

    #[test]
    fn explicit_construction_validates_outputs() {
        let mut b = Circuit::builder("p");
        let x = b.input("x");
        let z = b.signal("z");
        let f = b.and2(x, z);
        b.output("f", f);
        let host = b.build_allow_undriven().unwrap();
        // Claiming a *driven* signal as box output must fail.
        let bad = BlackBox { name: "B".to_string(), inputs: vec![x], outputs: vec![f] };
        assert!(PartialCircuit::new(host.clone(), vec![bad]).is_err());
        // Claiming the undriven signal works.
        let good = BlackBox { name: "B".to_string(), inputs: vec![x], outputs: vec![z] };
        let p = PartialCircuit::new(host, vec![good]).unwrap();
        assert_eq!(p.box_outputs(), vec![z]);
    }
}
