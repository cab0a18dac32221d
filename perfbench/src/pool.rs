//! Instance pools: every check instance a workload can draw, generated
//! deterministically from [`POOL_SEED`] and serialised to the text the
//! program reads (BLIF, or ASCII AIGER with `bbec-box` annotations).
//!
//! The pools are fixed so that `reference.txt` can hold the ground truth
//! of every instance; the run seed only decides which shallow instances a
//! round draws and in which order they are checked (see [`round`]).

use crate::reference::{Reference, Truth};
use bbec_core::Method;
use bbec_core::PartialCircuit;
use bbec_netlist::aiger::{self, AigerBox};
use bbec_netlist::mutate::Mutation;
use bbec_netlist::{benchmarks, blif, generators, Circuit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// The seed of every carve and mutation in the pools: the paper
/// reproduction's fixed seed-2001 carves.
pub const POOL_SEED: u64 = 2001;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1Ladder,
    WideCones,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::Table1Ladder, Workload::WideCones, Workload::ServeMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Ladder => "table1-ladder",
            Workload::WideCones => "wide-cones",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How an instance is serialised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// BLIF; undriven signals form one black box over all primary inputs
    /// (the `bbec check` and `bbec serve` convention for text formats).
    Blif,
    /// ASCII AIGER; the implementation carries `bbec-box` annotations.
    Aiger,
}

/// One check instance, as text only.
#[derive(Debug, Clone)]
pub struct Instance {
    /// `<design>/clean` or `<design>/mNN`.
    pub id: String,
    /// Index of the design within the workload's pool.
    pub design: usize,
    pub format: Format,
    pub spec: Arc<String>,
    pub imp: String,
}

/// Mutated carves per design in each pool (the wide-cones design gets
/// more, so a round can draw many front-end-bound checks from it).
const MUTATIONS: usize = 24;
const WIDE_MUTATIONS: usize = 64;

/// Gates in the box of an AIGER carve.
const AIGER_BOX_GATES: usize = 4;

/// The serve-mixed designs: four suite circuits and one disjoint-cone
/// design, each with a fixed carve.
const SERVE_SUITE: [&str; 4] = ["alu4", "C432", "C880", "C1908"];

/// How a design is carved and serialised.
enum Carve {
    /// `fraction` of the gates as one convex window of the topological
    /// order (as in the paper's experiments), serialised as BLIF.
    Window(f64),
    /// A few gates of one seeded output cone that read primary inputs
    /// only, serialised as AIGER with a `bbec-box` annotation. AIGER keeps
    /// no internal net names, so box pins must be primary inputs (box
    /// outputs the writer emits as named inputs) to survive the round trip.
    InputFed,
}

/// Builds the pool of a workload: per design, the clean carve followed by
/// paper-style mutations outside the box.
pub fn pool(workload: Workload) -> Vec<Instance> {
    let mut out = Vec::new();
    match workload {
        Workload::Table1Ladder => {
            for (d, bench) in benchmarks::suite().into_iter().enumerate() {
                push_design(&mut out, d, bench.name, &bench.circuit, Carve::Window(0.1), MUTATIONS);
            }
        }
        Workload::WideCones => {
            let spec = generators::disjoint_cones(16, 8, 120, POOL_SEED);
            push_design(&mut out, 0, "dcones16", &spec, Carve::InputFed, WIDE_MUTATIONS);
        }
        Workload::ServeMixed => {
            for (d, name) in SERVE_SUITE.iter().enumerate() {
                let bench = benchmarks::by_name(name).expect("suite circuit exists");
                push_design(&mut out, d, bench.name, &bench.circuit, Carve::Window(0.1), MUTATIONS);
            }
            let spec = generators::disjoint_cones(12, 8, 100, POOL_SEED);
            push_design(
                &mut out,
                SERVE_SUITE.len(),
                "dcones12",
                &spec,
                Carve::Window(0.01),
                MUTATIONS,
            );
        }
    }
    out
}

/// Carves `spec` and appends the clean partial plus `mutations` mutated
/// ones.
fn push_design(
    out: &mut Vec<Instance>,
    design: usize,
    name: &str,
    spec: &Circuit,
    carve: Carve,
    mutations: usize,
) {
    let mut rng = StdRng::seed_from_u64(POOL_SEED ^ fnv(name));
    let (sets, format) = match carve {
        Carve::Window(fraction) => {
            (PartialCircuit::random_convex_partition(spec, fraction, 1, &mut rng), Format::Blif)
        }
        Carve::InputFed => (vec![input_fed_gates(spec, &mut rng)], Format::Aiger),
    };
    let boxed: HashSet<u32> = sets.iter().flatten().copied().collect();
    let allowed: Vec<u32> = (0..spec.gates().len() as u32).filter(|g| !boxed.contains(g)).collect();
    let spec_text = Arc::new(match format {
        Format::Blif => blif::write(spec),
        Format::Aiger => aiger::write_ascii(spec),
    });
    let mut hosts = vec![("clean".to_string(), spec.clone())];
    for k in 0..mutations {
        let m = Mutation::random(spec, &allowed, &mut rng).expect("designs have unboxed gates");
        hosts.push((format!("m{k:02}"), m.apply(spec).expect("mutations fit by construction")));
    }
    for (label, host) in hosts {
        let partial = PartialCircuit::black_box_partition(&host, &sets)
            .expect("a mutation outside the box keeps the carve valid");
        let imp = match format {
            Format::Blif => blif::write(partial.circuit()),
            Format::Aiger => {
                let c = partial.circuit();
                let names = |sigs: &[bbec_netlist::SignalId]| {
                    sigs.iter().map(|&s| c.signal_name(s).to_string()).collect()
                };
                let boxes: Vec<AigerBox> = partial
                    .boxes()
                    .iter()
                    .map(|b| AigerBox {
                        name: b.name.clone(),
                        inputs: names(&b.inputs),
                        outputs: names(&b.outputs),
                    })
                    .collect();
                aiger::write_ascii_with_boxes(c, &boxes)
            }
        };
        out.push(Instance {
            id: format!("{name}/{label}"),
            design,
            format,
            spec: Arc::clone(&spec_text),
            imp,
        });
    }
}

/// The box of [`Carve::InputFed`].
fn input_fed_gates(spec: &Circuit, rng: &mut StdRng) -> Vec<u32> {
    let (_, root) = spec.outputs()[rng.random_range(0..spec.outputs().len())];
    let mut gates: Vec<u32> = spec
        .fanin_cone_gates(&[root])
        .into_iter()
        .filter(|&g| spec.gates()[g as usize].inputs.iter().all(|&s| spec.is_input(s)))
        .collect();
    gates.sort_unstable();
    gates.truncate(AIGER_BOX_GATES);
    gates
}

/// What a round draws per design besides the clean carve.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Include every mutated carve that only a BDD rung convicts.
    pub bdd_errors: bool,
    /// Random-pattern-convicted mutated carves drawn by the seed.
    pub shallow: usize,
}

/// The instances of design `d` a round checks: its clean carve, with
/// `bdd_errors` every mutated carve the ladder proves wrong only with BDDs
/// (fixed), and `shallow` of the ones the random-pattern rung convicts
/// (drawn by `rng`). Masked mutations (no error at any rung) run the same
/// full ladder as the clean carve and are left out.
pub fn draw(
    pool: &[Instance],
    reference: &Reference,
    d: usize,
    mix: Mix,
    rng: &mut StdRng,
) -> Vec<usize> {
    let members: Vec<usize> = (0..pool.len()).filter(|&i| pool[i].design == d).collect();
    let (&clean, edits) = members.split_first().expect("every design has a clean carve");
    let truth = |i: usize| reference.truth(&pool[i].id);
    let mut easy: Vec<usize> =
        edits.iter().copied().filter(|&i| truth(i).is_some_and(Truth::is_shallow)).collect();
    shuffle(&mut easy, rng);
    let mut picked = vec![clean];
    if mix.bdd_errors {
        picked.extend(
            edits.iter().copied().filter(
                |&i| matches!(truth(i), Some(Truth::Error(m)) if m != Method::RandomPatterns),
            ),
        );
    }
    picked.extend(easy.into_iter().take(mix.shallow));
    picked
}

/// One round of a check workload: pool indices in check order.
///
/// The deep part of each design's draw is fixed, so every round does the
/// same BDD work; the seed draws the shallow part and shuffles the order.
pub fn round(pool: &[Instance], reference: &Reference, seed: u64, mix: Mix) -> Vec<usize> {
    let designs = pool.iter().map(|i| i.design + 1).max().unwrap_or(0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picked: Vec<usize> =
        (0..designs).flat_map(|d| draw(pool, reference, d, mix, &mut rng)).collect();
    shuffle(&mut picked, &mut rng);
    picked
}

pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// FNV-1a, for deriving per-design seeds from names.
pub fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
