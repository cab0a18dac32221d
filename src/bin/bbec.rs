//! `bbec` — command-line black-box equivalence checking.
//!
//! ```text
//! bbec check    --spec <file> --impl <file> [options]   decide completability
//! bbec localize --spec <file> --impl <file> [options]   find repair sites
//! bbec stats    <file>                                  print netlist statistics
//! bbec convert  <in> <out>                              convert between formats
//! bbec unroll   <in.bench> <out> --frames K             time-frame expand a
//!                                                       sequential .bench (DFFs)
//! bbec sat      <file.cnf>                              solve a DIMACS formula
//! bbec export-suite <dir>                               write the nine benchmark
//!                                                       substitutes as .blif/.bench/.v
//! bbec fuzz     [options]                               differential-fuzz all
//!                                                       engines against the
//!                                                       exhaustive oracle
//! bbec report   <file.jsonl>... | --compare BASE NEW    aggregate ledger/trace/
//!                                                       bench JSONL, or gate a
//!                                                       regression
//! bbec serve    [options]                               persistent check service:
//!                                                       JSONL requests on stdin (or
//!                                                       a unix socket), structural
//!                                                       result cache, dirty-cone
//!                                                       incremental re-checking
//!
//! Netlist formats are chosen by extension: .blif, .bench, .aag (ASCII
//! AIGER), .aig (binary AIGER), .v (write-only). In the implementation
//! file, signals that are used but never driven are treated as black-box
//! outputs. AIGER files may carry `bbec-box` comment annotations naming
//! each box and its pins; when present they define the black boxes
//! directly (instead of the --boxes grouping of undriven signals).
//!
//! options:
//!   --method <rp|01x|local|oe|ie|ladder|sat-01x|sat-oe>  (default: ladder)
//!   --boxes <one|per-signal>   group undriven signals into one box (default)
//!                              or one box per signal
//!   --patterns N               random patterns for rp/ladder (default 5000)
//!   --no-reorder               disable dynamic BDD reordering
//!   --node-limit N             cap live BDD nodes per check (default 4000000);
//!                              an exceeded check reports "budget exceeded"
//!   --step-limit N             cap BDD apply steps per check (default: none)
//!   --jobs N                   worker threads for the ladder's per-output
//!                              rungs (default: available parallelism); the
//!                              job count never changes the verdict
//!   --cache-bits N             computed-table capacity exponent: the
//!                              apply/ITE cache holds 2^N entries
//!                              (default 22, clamped to 10..=30)
//!   --no-sweep                 skip the structural-sweeping preprocessor
//!                              (check sweeps both sides by default; the
//!                              sweep is verdict-invariant, so this only
//!                              changes performance and reported sizes)
//!   --quiet                    verdict only (exit code 0 = completable,
//!                              1 = error found, 2 = usage/IO error)
//!   --trace-summary            print a span/counter/histogram tree after a
//!                              check (observability, see DESIGN.md)
//!   --trace-out FILE.jsonl     stream the structured trace event stream to
//!                              disk as it happens (one JSON object per
//!                              line, schema v2); heartbeats and flight-
//!                              recorder postmortems survive a crash
//!   --progress                 live heartbeat lines on stderr (at most one
//!                              per second) while a check runs: region/rung,
//!                              cumulative steps, live BDD nodes, budget
//!                              fraction consumed, elapsed time and ETA
//!   --ledger FILE.jsonl        append one schema-validated run record to a
//!                              cross-run ledger: verdict, per-rung
//!                              wall/steps/peak-nodes, cache hit rates and
//!                              host metadata, keyed by a structural hash of
//!                              (spec, impl, carve) plus a settings hash
//!
//! report options (`bbec report`):
//!   --compare BASE NEW         regression gate: compare two JSONL streams
//!                              and exit 1 when NEW regresses beyond the
//!                              tolerance (0 = pass, 2 = usage/IO error)
//!   --event NAME               record event selecting the rows (required
//!                              with --compare, e.g. bdd_micro)
//!   --key ATTR                 attribute grouping rows (e.g. workload)
//!   --metric ATTR              attribute holding the gated number
//!   --mode M                   higher-better|lower-better (default
//!                              higher-better)
//!   --tolerance T              allowed relative change (default 0.25)
//!   --baseline-filter a=v      only baseline rows with attribute a = v
//!
//! Without --compare, `bbec report FILE...` renders an aggregate view of
//! each file: ledger runs grouped by instance/settings key with a
//! cross-run wall-clock diff, per-rung time breakdowns from
//! `core.ladder_rung` spans, histogram quantiles and record tallies.
//!
//! fuzz options (plus --patterns/--no-reorder/--trace-* above):
//!   --seed N                   master seed (default 0); every case derives
//!                              deterministically from it
//!   --budget-ms N              wall-clock budget (default 30000)
//!   --cases N                  hard case cap (default: budget-only)
//!   --fixture-dir DIR          where to write the shrunken BLIF pair of a
//!                              violation (default tests/fixtures/fuzz-out)
//!   --replay FILE              replay one *_spec.blif/*_impl.blif fixture
//!                              through every engine instead of fuzzing
//!   --inject-unsound RUNG      self-test: flip this engine's verdict
//!                              (rp|0,1,X|loc.|oe|ie|...) and expect the
//!                              harness to catch it
//!   --bdd                      fuzz the BDD package itself instead of the
//!                              engines: random operator sequences on <=12
//!                              variables checked against exhaustive truth
//!                              tables (semantics, canonicity, invariants)
//!
//! fuzz exit codes: 0 = no violation, 1 = violation found (shrunk fixture
//! written), 2 = usage/IO error.
//!
//! serve options (plus --patterns/--no-reorder/--node-limit/--step-limit/
//! --cache-bits/--ledger/--trace-* above):
//!   --max-jobs N               worker threads draining the job queue
//!                              (default 1 = deterministic response order)
//!   --cache-entries N          full-result cache entries (default 1024);
//!                              per-cone entries get an 8x budget
//!   --socket PATH              accept one connection at a time on a unix
//!                              socket instead of stdin/stdout
//!
//! Requests are JSON objects, one per line: {"type":"check","id":...,
//! "spec_path"/"impl_path" or inline "spec_blif"/"impl_blif", optional
//! "boxes","priority","cache" and settings overrides}, plus {"type":"ping"}
//! and {"type":"shutdown"}. Responses are schema-validated JSONL; see
//! crates/core/src/service/protocol.rs. Sweeping is off by default in the
//! service (a request opts in with "sweep":true). Exit code 0 on EOF or
//! shutdown, 2 on I/O errors.
//! ```

use bbec::core::diagnose::locate_single_gate_repairs;
use bbec::core::{checks, sat_checks, BlackBox, CheckSettings, PartialCircuit, Verdict};
use bbec::netlist::{aiger, bench, blif, verilog, Circuit};
use std::path::Path;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: bbec <check|localize|fuzz|stats|convert> [options]  (see --help in source header)"
    );
    exit(2)
}

fn read_circuit(path: &str) -> Circuit {
    read_circuit_with_boxes(path).0
}

/// Reads a circuit plus any black boxes the format itself declares
/// (AIGER `bbec-box` annotations). Text formats return no boxes — their
/// black-box convention is "undriven signal", applied later.
fn read_circuit_with_boxes(path: &str) -> (Circuit, Vec<BlackBox>) {
    let ext = Path::new(path).extension().and_then(|e| e.to_str());
    if matches!(ext, Some("aag" | "aig")) {
        let bytes = std::fs::read(path).unwrap_or_else(|e| {
            eprintln!("bbec: cannot read `{path}`: {e}");
            exit(2)
        });
        let parsed = aiger::parse(&bytes).unwrap_or_else(|e| {
            eprintln!("bbec: cannot parse `{path}`: {e}");
            exit(2)
        });
        let resolve = |name: &str| {
            parsed.circuit.find_signal(name).unwrap_or_else(|| {
                eprintln!("bbec: box annotation names unknown signal `{name}` in `{path}`");
                exit(2)
            })
        };
        let boxes = parsed
            .boxes
            .iter()
            .map(|bx| BlackBox {
                name: bx.name.clone(),
                inputs: bx.inputs.iter().map(|n| resolve(n)).collect(),
                outputs: bx.outputs.iter().map(|n| resolve(n)).collect(),
            })
            .collect();
        return (parsed.circuit, boxes);
    }
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bbec: cannot read `{path}`: {e}");
        exit(2)
    });
    let result = match ext {
        Some("blif") => blif::parse(&text),
        Some("bench") => bench::parse(
            Path::new(path).file_stem().and_then(|s| s.to_str()).unwrap_or("bench"),
            &text,
        ),
        other => {
            eprintln!("bbec: unsupported input format `{}`", other.unwrap_or(""));
            exit(2)
        }
    };
    // Partial implementations legitimately contain undriven signals; the
    // parsers reject them under strict validation, so retry leniently by
    // reparsing through the builder path on failure.
    match result {
        Ok(c) => (c, Vec::new()),
        Err(err) => {
            // BLIF/bench strict parse failed — try the partial-friendly path.
            match reparse_allow_undriven(path, &text) {
                Some(c) => (c, Vec::new()),
                None => {
                    eprintln!("bbec: cannot parse `{path}`: {err}");
                    exit(2)
                }
            }
        }
    }
}

/// Fallback parse that tolerates undriven signals (black-box outputs).
fn reparse_allow_undriven(path: &str, text: &str) -> Option<Circuit> {
    match Path::new(path).extension().and_then(|e| e.to_str()) {
        Some("blif") => blif::parse_allow_undriven(text).ok(),
        Some("bench") => bench::parse_allow_undriven(
            Path::new(path).file_stem().and_then(|s| s.to_str()).unwrap_or("bench"),
            text,
        )
        .ok(),
        _ => None,
    }
}

fn partial_from(
    implementation: Circuit,
    format_boxes: Vec<BlackBox>,
    per_signal: bool,
) -> PartialCircuit {
    if !format_boxes.is_empty() {
        // The file's own annotations define the boxes, pins included.
        return PartialCircuit::new(implementation, format_boxes).unwrap_or_else(|e| {
            eprintln!("bbec: invalid box annotations: {e}");
            exit(2)
        });
    }
    match PartialCircuit::carve_undriven(implementation, per_signal) {
        Ok(Some(partial)) => partial,
        Ok(None) => {
            eprintln!(
                "bbec: the implementation has no undriven signals — nothing is black-boxed; \
                 treating it as a complete design with zero boxes is not supported, \
                 use a classic equivalence checker (or leave some logic out)."
            );
            exit(2)
        }
        Err(e) => {
            eprintln!("bbec: invalid partial implementation: {e}");
            exit(2)
        }
    }
}

struct Options {
    spec: Option<String>,
    implementation: Option<String>,
    method: String,
    per_signal: bool,
    patterns: usize,
    reorder: bool,
    quiet: bool,
    sweep: bool,
    frames: usize,
    node_limit: Option<usize>,
    step_limit: Option<u64>,
    jobs: usize,
    cache_bits: Option<u32>,
    trace_summary: bool,
    trace_out: Option<String>,
    progress: bool,
    ledger: Option<String>,
    compare: Option<(String, String)>,
    event: Option<String>,
    key: Option<String>,
    metric: Option<String>,
    mode: String,
    tolerance: f64,
    baseline_filter: Option<String>,
    seed: u64,
    budget_ms: u64,
    cases: Option<u64>,
    fixture_dir: Option<String>,
    replay: Option<String>,
    inject: Option<String>,
    bdd: bool,
    max_jobs: usize,
    cache_entries: usize,
    socket: Option<String>,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Options {
    let mut o = Options {
        spec: None,
        implementation: None,
        method: "ladder".to_string(),
        per_signal: false,
        patterns: 5000,
        reorder: true,
        quiet: false,
        sweep: true,
        frames: 4,
        node_limit: None,
        step_limit: None,
        jobs: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        cache_bits: None,
        trace_summary: false,
        trace_out: None,
        progress: false,
        ledger: None,
        compare: None,
        event: None,
        key: None,
        metric: None,
        mode: "higher-better".to_string(),
        tolerance: 0.25,
        baseline_filter: None,
        seed: 0,
        budget_ms: 30_000,
        cases: None,
        fixture_dir: None,
        replay: None,
        inject: None,
        bdd: false,
        max_jobs: 1,
        cache_entries: 1024,
        socket: None,
        positional: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--spec" => {
                i += 1;
                o.spec = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--impl" => {
                i += 1;
                o.implementation = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--method" => {
                i += 1;
                o.method = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--boxes" => {
                i += 1;
                o.per_signal = match args.get(i).map(String::as_str) {
                    Some("one") => false,
                    Some("per-signal") => true,
                    _ => usage(),
                };
            }
            "--patterns" => {
                i += 1;
                o.patterns = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--no-reorder" => o.reorder = false,
            "--no-sweep" => o.sweep = false,
            "--quiet" => o.quiet = true,
            "--node-limit" => {
                i += 1;
                o.node_limit =
                    Some(args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--step-limit" => {
                i += 1;
                o.step_limit =
                    Some(args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--jobs" => {
                i += 1;
                o.jobs = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--cache-bits" => {
                i += 1;
                o.cache_bits =
                    Some(args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--trace-summary" => o.trace_summary = true,
            "--trace-out" => {
                i += 1;
                o.trace_out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--progress" => o.progress = true,
            "--ledger" => {
                i += 1;
                o.ledger = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--compare" => {
                let base = args.get(i + 1).cloned().unwrap_or_else(|| usage());
                let new = args.get(i + 2).cloned().unwrap_or_else(|| usage());
                i += 2;
                o.compare = Some((base, new));
            }
            "--event" => {
                i += 1;
                o.event = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--key" => {
                i += 1;
                o.key = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--metric" => {
                i += 1;
                o.metric = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--mode" => {
                i += 1;
                o.mode = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--tolerance" => {
                i += 1;
                o.tolerance = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--baseline-filter" => {
                i += 1;
                o.baseline_filter = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--seed" => {
                i += 1;
                o.seed = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--budget-ms" => {
                i += 1;
                o.budget_ms = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--cases" => {
                i += 1;
                o.cases = Some(args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--fixture-dir" => {
                i += 1;
                o.fixture_dir = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--replay" => {
                i += 1;
                o.replay = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--bdd" => o.bdd = true,
            "--max-jobs" => {
                i += 1;
                o.max_jobs = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--cache-entries" => {
                i += 1;
                o.cache_entries =
                    args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--socket" => {
                i += 1;
                o.socket = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--inject-unsound" => {
                i += 1;
                o.inject = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--frames" => {
                i += 1;
                o.frames = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            other if !other.starts_with("--") => o.positional.push(other.to_string()),
            _ => usage(),
        }
        i += 1;
    }
    o
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let command = args[0].clone();
    let o = parse_options(&args[1..]);
    let mut settings = CheckSettings {
        dynamic_reordering: o.reorder,
        random_patterns: o.patterns,
        ..CheckSettings::default()
    };
    if let Some(n) = o.node_limit {
        settings.node_limit = Some(n);
    }
    settings.step_limit = o.step_limit;
    if let Some(bits) = o.cache_bits {
        settings.cache_bits = bits;
    }
    if o.trace_summary || o.trace_out.is_some() {
        settings.tracer = bbec::trace::Tracer::new();
        if let Some(path) = &o.trace_out {
            // Stream events to disk as they are emitted: heartbeats and
            // flight-recorder postmortems reach the file even if the run
            // never gets to finish().
            match bbec::trace::FileSink::create(path) {
                Ok(sink) => settings.tracer.set_sink(Box::new(sink)),
                Err(e) => {
                    eprintln!("bbec: cannot create trace stream `{path}`: {e}");
                    exit(2)
                }
            }
        }
    }
    if o.progress {
        // The engine records heartbeats into the tracer (when armed) and
        // always mirrors them as stderr lines; the BDD manager ticks it
        // from the amortised budget pulse. BBEC_PROGRESS_INTERVAL_MS is a
        // debug/test knob; users get the 1 Hz default.
        let interval_ms = std::env::var("BBEC_PROGRESS_INTERVAL_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1000u64);
        settings.progress = bbec::trace::Progress::with_observer(
            settings.tracer.clone(),
            std::time::Duration::from_millis(interval_ms),
            std::sync::Arc::new(|hb| eprintln!("{}", heartbeat_line(hb))),
        );
    }
    match command.as_str() {
        "stats" => {
            let path = o.positional.first().cloned().unwrap_or_else(|| usage());
            let c = read_circuit(&path);
            let st = c.stats();
            println!(
                "{}: {} inputs, {} outputs, {} gates, depth {}",
                c.name(),
                st.inputs,
                st.outputs,
                st.gates,
                st.depth
            );
            for (kind, count) in st.by_kind {
                println!("  {kind:<6} {count}");
            }
            let undriven = c.undriven_signals();
            if !undriven.is_empty() {
                println!("  {} undriven signal(s) (black-box outputs)", undriven.len());
            }
        }
        "convert" => {
            if o.positional.len() != 2 {
                usage();
            }
            let (c, boxes) = read_circuit_with_boxes(&o.positional[0]);
            let out_path = &o.positional[1];
            // AIGER round trips box annotations; the text formats encode
            // boxes as undriven signals, which the writers already do. A
            // text-format partial has undriven nets but no named boxes —
            // synthesize one annotation per live undriven net so the AIGER
            // output stays a partial implementation instead of silently
            // promoting box outputs to primary inputs. Box inputs default
            // to all primary inputs, matching how `check` interprets
            // annotation-free undriven nets.
            let aiger_boxes = || -> Vec<aiger::AigerBox> {
                if !boxes.is_empty() {
                    return boxes
                        .iter()
                        .map(|b| aiger::AigerBox {
                            name: b.name.clone(),
                            inputs: b
                                .inputs
                                .iter()
                                .map(|&s| c.signal_name(s).to_string())
                                .collect(),
                            outputs: b
                                .outputs
                                .iter()
                                .map(|&s| c.signal_name(s).to_string())
                                .collect(),
                        })
                        .collect();
                }
                let mut read = vec![false; c.signal_count()];
                for gate in c.gates() {
                    for &s in &gate.inputs {
                        read[s.index()] = true;
                    }
                }
                for &(_, s) in c.outputs() {
                    read[s.index()] = true;
                }
                let all_inputs: Vec<String> =
                    c.inputs().iter().map(|&s| c.signal_name(s).to_string()).collect();
                c.undriven_signals()
                    .iter()
                    .filter(|&&s| read[s.index()])
                    .map(|&s| aiger::AigerBox {
                        name: format!("BOX_{}", c.signal_name(s)),
                        inputs: all_inputs.clone(),
                        outputs: vec![c.signal_name(s).to_string()],
                    })
                    .collect()
            };
            let bytes: Vec<u8> = match Path::new(out_path).extension().and_then(|e| e.to_str()) {
                Some("blif") => blif::write(&c).into_bytes(),
                Some("bench") => bench::write(&c)
                    .unwrap_or_else(|e| {
                        eprintln!("bbec: cannot express circuit in .bench: {e}");
                        exit(2)
                    })
                    .into_bytes(),
                Some("v") => verilog::write(&c).into_bytes(),
                Some("aag") => aiger::write_ascii_with_boxes(&c, &aiger_boxes()).into_bytes(),
                Some("aig") => aiger::write_binary_with_boxes(&c, &aiger_boxes()),
                other => {
                    eprintln!("bbec: unsupported output format `{}`", other.unwrap_or(""));
                    exit(2)
                }
            };
            std::fs::write(out_path, bytes).unwrap_or_else(|e| {
                eprintln!("bbec: cannot write `{out_path}`: {e}");
                exit(2)
            });
            if !o.quiet {
                println!("wrote {out_path}");
            }
        }
        "export-suite" => {
            let dir = o.positional.first().cloned().unwrap_or_else(|| usage());
            std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
                eprintln!("bbec: cannot create `{dir}`: {e}");
                exit(2)
            });
            for b in bbec::netlist::benchmarks::suite() {
                let base = Path::new(&dir).join(b.name.to_lowercase());
                let mut written = Vec::new();
                std::fs::write(base.with_extension("blif"), blif::write(&b.circuit))
                    .unwrap_or_else(|e| {
                        eprintln!("bbec: write failed: {e}");
                        exit(2)
                    });
                written.push("blif");
                if let Ok(text) = bench::write(&b.circuit) {
                    std::fs::write(base.with_extension("bench"), text).ok();
                    written.push("bench");
                }
                std::fs::write(base.with_extension("v"), verilog::write(&b.circuit)).ok();
                written.push("v");
                if !o.quiet {
                    println!(
                        "{:<8} {:>3} in {:>3} out {:>5} gates -> {} ({})",
                        b.name,
                        b.circuit.inputs().len(),
                        b.circuit.outputs().len(),
                        b.circuit.gates().len(),
                        base.display(),
                        written.join("/")
                    );
                }
            }
        }
        "unroll" => {
            if o.positional.len() != 2 {
                usage();
            }
            let in_path = &o.positional[0];
            let text = std::fs::read_to_string(in_path).unwrap_or_else(|e| {
                eprintln!("bbec: cannot read `{in_path}`: {e}");
                exit(2)
            });
            let stem = Path::new(in_path).file_stem().and_then(|s| s.to_str()).unwrap_or("seq");
            let parsed = bbec::netlist::bench::parse_sequential(stem, &text).unwrap_or_else(|e| {
                eprintln!("bbec: cannot parse `{in_path}`: {e}");
                exit(2)
            });
            let n_regs = parsed.state.len();
            let seq = bbec::core::unroll::SequentialCircuit::from_bench(
                parsed,
                vec![false; n_regs], // all-zero reset, the .bench convention
            )
            .unwrap_or_else(|e| {
                eprintln!("bbec: {e}");
                exit(2)
            });
            let unrolled = bbec::core::unroll::unroll(&seq, o.frames).unwrap_or_else(|e| {
                eprintln!("bbec: {e}");
                exit(2)
            });
            let out_path = &o.positional[1];
            let rendered = match Path::new(out_path).extension().and_then(|e| e.to_str()) {
                Some("blif") => blif::write(&unrolled),
                Some("v") => verilog::write(&unrolled),
                Some("bench") => bench::write(&unrolled).unwrap_or_else(|e| {
                    eprintln!("bbec: cannot express unrolling in .bench: {e}");
                    exit(2)
                }),
                other => {
                    eprintln!("bbec: unsupported output format `{}`", other.unwrap_or(""));
                    exit(2)
                }
            };
            std::fs::write(out_path, rendered).unwrap_or_else(|e| {
                eprintln!("bbec: cannot write `{out_path}`: {e}");
                exit(2)
            });
            if !o.quiet {
                println!("unrolled {n_regs} register(s) over {} frame(s) -> {out_path}", o.frames);
            }
        }
        "sat" => {
            let path = o.positional.first().cloned().unwrap_or_else(|| usage());
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("bbec: cannot read `{path}`: {e}");
                exit(2)
            });
            let cnf = bbec::sat::dimacs::Cnf::parse(&text).unwrap_or_else(|e| {
                eprintln!("bbec: {e}");
                exit(2)
            });
            let mut solver = cnf.to_solver();
            if solver.solve().is_sat() {
                let model = solver.model();
                if !o.quiet {
                    print!("SATISFIABLE\nv");
                    for (i, &v) in model.iter().enumerate() {
                        print!(" {}{}", if v { "" } else { "-" }, i + 1);
                    }
                    println!(" 0");
                } else {
                    println!("SATISFIABLE");
                }
                exit(0)
            } else {
                println!("UNSATISFIABLE");
                exit(1)
            }
        }
        "check" => {
            let (Some(spec_path), Some(impl_path)) = (&o.spec, &o.implementation) else {
                usage();
            };
            let spec = read_circuit(spec_path);
            let (implementation, format_boxes) = read_circuit_with_boxes(impl_path);
            let partial = partial_from(implementation, format_boxes, o.per_signal);
            // The ledger keys the run by the instance as the user posed it
            // (pre-sweep): the sweep is part of the keyed settings, not of
            // the instance identity.
            let instance_key =
                o.ledger.as_ref().map(|_| bbec::core::ledger::instance_key(&spec, &partial));
            let check_start = std::time::Instant::now();
            // Record the effective run configuration in the trace stream
            // so archived traces are self-describing.
            settings.tracer.record_event(
                "run_settings",
                vec![
                    ("method".to_string(), o.method.as_str().into()),
                    (
                        "cache_bits".to_string(),
                        bbec::bdd::clamp_cache_bits(settings.cache_bits).into(),
                    ),
                    ("jobs".to_string(), o.jobs.into()),
                    ("patterns".to_string(), settings.random_patterns.into()),
                    ("reorder".to_string(), settings.dynamic_reordering.into()),
                    ("sweep".to_string(), o.sweep.into()),
                ],
            );
            // Sweep both sides once, up front, so every method (including
            // the free-function rungs) benefits; the engines then run with
            // sweeping off to avoid re-sweeping.
            let (spec, partial) = if o.sweep {
                let pre = bbec::core::preprocess::preprocess(&spec, &partial, &settings)
                    .unwrap_or_else(|e| {
                        eprintln!("bbec: {e}");
                        exit(2)
                    });
                if !o.quiet {
                    println!(
                        "sweep: spec {} -> {} gate(s), impl {} -> {} gate(s) \
                         ({} point(s) merged, {} shared)",
                        pre.report.spec.gates_before,
                        pre.report.spec.gates_after,
                        pre.report.imp.gates_before,
                        pre.report.imp.gates_after,
                        pre.report.spec.merged_points + pre.report.imp.merged_points,
                        pre.report.shared_points,
                    );
                }
                (pre.spec, pre.partial)
            } else {
                (spec, partial)
            };
            let (verdict, ladder_report) =
                run_method(&o.method, &spec, &partial, &settings, o.jobs, o.quiet);
            if let Some(path) = &o.ledger {
                append_check_ledger(
                    &o,
                    path,
                    instance_key.unwrap(),
                    impl_path,
                    &settings,
                    ladder_report.as_ref(),
                    check_start.elapsed(),
                );
            }
            emit_trace(&o, &settings.tracer);
            match verdict {
                Verdict::NoErrorFound => {
                    if !o.quiet {
                        println!("NO ERROR FOUND: the partial implementation is consistent with the spec");
                    }
                    exit(0)
                }
                Verdict::ErrorFound => {
                    if !o.quiet {
                        println!("ERROR FOUND: no black-box implementation can repair this design");
                    }
                    exit(1)
                }
            }
        }
        "serve" => {
            // `settings.sweep` stays false: sweeping is a per-request
            // opt-in ("sweep":true) in the service, since the structural
            // cache keys pre-sweep instances and the default keeps
            // cold/warm golden runs cheap and identical.
            let config = bbec::core::service::ServiceConfig {
                settings: settings.clone(),
                max_jobs: o.max_jobs,
                cache_entries: o.cache_entries,
                ledger: o.ledger.as_ref().map(std::path::PathBuf::from),
                ..Default::default()
            };
            let service = bbec::core::service::Service::new(config);
            let result = match &o.socket {
                Some(path) => serve_unix(&service, path),
                None => service.serve(std::io::stdin().lock(), std::io::stdout()),
            };
            match result {
                Ok(stats) => {
                    if !o.quiet {
                        let cache = service.cache_stats();
                        let pool = service.pool_stats();
                        eprintln!(
                            "bbec serve: {} request(s), {} response(s); cache: {} full hit(s), \
                             {} cone hit(s), {} collision(s); pool: {} recycled",
                            stats.requests,
                            stats.responses,
                            cache.full_hits,
                            cache.cone_hits,
                            cache.collisions,
                            pool.recycled,
                        );
                    }
                    emit_trace(&o, &settings.tracer);
                    exit(0)
                }
                Err(e) => {
                    eprintln!("bbec serve: {e}");
                    exit(2)
                }
            }
        }
        "fuzz" => {
            run_fuzz_command(&o, settings);
        }
        "report" => {
            run_report_command(&o);
        }
        "localize" => {
            let (Some(spec_path), Some(impl_path)) = (&o.spec, &o.implementation) else {
                usage();
            };
            let spec = read_circuit(spec_path);
            let faulty = read_circuit(impl_path);
            let all: Vec<u32> = (0..faulty.gates().len() as u32).collect();
            match locate_single_gate_repairs(&spec, &faulty, &all, &settings) {
                Ok(sites) if sites.is_empty() => {
                    println!("no single-gate repair site exists");
                    exit(1)
                }
                Ok(sites) => {
                    println!("{} confirmed single-gate repair site(s):", sites.len());
                    for s in sites {
                        let g = &faulty.gates()[s.gates[0] as usize];
                        println!(
                            "  gate {} ({}) -> signal `{}`",
                            s.gates[0],
                            g.kind,
                            faulty.signal_name(g.output)
                        );
                    }
                    exit(0)
                }
                Err(e) => {
                    eprintln!("bbec: {e}");
                    exit(2)
                }
            }
        }
        _ => usage(),
    }
}

/// Parses `--inject-unsound`: accepts both the harness labels (`loc.`,
/// `0,1,X`, …) and the CLI method names (`local`, `01x`, …).
fn parse_inject(name: &str) -> bbec::oracle::Engine {
    use bbec::oracle::Engine;
    let aliased = match name {
        "rp" => "r.p.",
        "01x" => "0,1,X",
        "local" => "loc.",
        other => other,
    };
    Engine::from_label(aliased).unwrap_or_else(|| {
        eprintln!("bbec: unknown engine `{name}` for --inject-unsound");
        exit(2)
    })
}

/// The `bbec fuzz` subcommand: differential fuzzing of every engine
/// against the exhaustive oracle, or replay of one saved fixture.
fn run_fuzz_command(o: &Options, settings: CheckSettings) -> ! {
    use bbec::oracle::{self, HarnessConfig};

    if o.bdd {
        run_bdd_fuzz_command(o, &settings);
    }

    let mut harness = HarnessConfig {
        settings: CheckSettings { tracer: bbec::trace::Tracer::disabled(), ..settings.clone() },
        ..HarnessConfig::default()
    };
    // Per-engine pattern counts stay small unless the user asks otherwise:
    // fuzz throughput matters more than single-case depth.
    if o.patterns == 5000 {
        harness.settings.random_patterns = 256;
    }
    harness.inject = o.inject.as_deref().map(parse_inject);

    if let Some(path) = &o.replay {
        let outcome = oracle::replay(Path::new(path), &harness).unwrap_or_else(|e| {
            eprintln!("bbec: {e}");
            exit(2)
        });
        for (engine, v) in &outcome.verdicts {
            let shown = match v {
                oracle::EngineVerdict::Error(_) => "error".to_string(),
                oracle::EngineVerdict::Clean => "clean".to_string(),
                oracle::EngineVerdict::Skipped(why) => format!("skipped ({why})"),
            };
            println!("  {engine:<8} -> {shown}");
        }
        if outcome.violations.is_empty() {
            println!("replay: all contracts hold");
            exit(0)
        }
        for v in &outcome.violations {
            println!("replay violation: {v}");
        }
        exit(1)
    }

    let config = oracle::FuzzConfig {
        seed: o.seed,
        budget: std::time::Duration::from_millis(o.budget_ms),
        max_cases: o.cases,
        harness,
        fixture_dir: Some(
            o.fixture_dir.clone().unwrap_or_else(|| "tests/fixtures/fuzz-out".to_string()).into(),
        ),
        ..oracle::FuzzConfig::default()
    };
    let fuzz_start = std::time::Instant::now();
    let summary = oracle::run_fuzz(&config, &settings.tracer);
    if let Some(path) = &o.ledger {
        append_fuzz_ledger(
            o,
            path,
            "fuzz",
            &config.harness.settings,
            summary.violation.is_some(),
            fuzz_start.elapsed(),
            vec![
                ("cases_run".to_string(), summary.cases_run),
                ("patterns_simulated".to_string(), summary.patterns_simulated),
                ("cases_per_sec".to_string(), summary.cases_per_sec().round() as u64),
                ("patterns_per_sec".to_string(), summary.patterns_per_sec().round() as u64),
            ],
        );
    }
    emit_trace(o, &settings.tracer);
    if !o.quiet {
        println!(
            "fuzz: {} case(s) run, {} skipped, {} with engine errors, {} oracle-decided (seed {})",
            summary.cases_run,
            summary.cases_skipped,
            summary.cases_with_errors,
            summary.oracle_decided,
            o.seed
        );
        println!(
            "fuzz: throughput {:.1} case/s, {:.0} pattern/s ({} patterns in {} ms)",
            summary.cases_per_sec(),
            summary.patterns_per_sec(),
            summary.patterns_simulated,
            summary.elapsed.as_millis()
        );
    }
    match &summary.violation {
        None => {
            if !o.quiet {
                println!("fuzz: no contract violations");
            }
            exit(0)
        }
        Some(v) => {
            println!(
                "fuzz: VIOLATION in case {} (seed {:#018x}), kinds: {}",
                v.name,
                v.seed,
                v.kinds.join(", ")
            );
            for d in &v.details {
                println!("  {d}");
            }
            println!("  shrunk {} -> {} gate(s)", v.original_gates, v.shrunk_gates);
            if let Some((spec_path, impl_path)) = &v.fixture {
                println!("  fixture: {} + {}", spec_path.display(), impl_path.display());
                println!("  replay:  bbec fuzz --replay {}", spec_path.display());
            }
            exit(1)
        }
    }
}

/// The `bbec fuzz --bdd` mode: differential fuzzing of the BDD package
/// against an exhaustive truth-table reference.
fn run_bdd_fuzz_command(o: &Options, settings: &CheckSettings) -> ! {
    use bbec::oracle;

    let config = oracle::BddFuzzConfig {
        seed: o.seed,
        budget: std::time::Duration::from_millis(o.budget_ms),
        max_cases: o.cases,
        ..oracle::BddFuzzConfig::default()
    };
    let fuzz_start = std::time::Instant::now();
    let summary = oracle::run_bdd_fuzz(&config, &settings.tracer);
    if let Some(path) = &o.ledger {
        append_fuzz_ledger(
            o,
            path,
            "fuzz-bdd",
            settings,
            summary.violation.is_some(),
            fuzz_start.elapsed(),
            Vec::new(),
        );
    }
    emit_trace(o, &settings.tracer);
    if !o.quiet {
        println!(
            "bdd fuzz: {} case(s) run, {} operation(s) checked (seed {})",
            summary.cases_run, summary.ops_checked, o.seed
        );
    }
    match &summary.violation {
        None => {
            if !o.quiet {
                println!("bdd fuzz: no contract violations");
            }
            exit(0)
        }
        Some(v) => {
            println!("bdd fuzz: VIOLATION in {v}");
            println!("  replay:  bbec fuzz --bdd --seed {} --cases {}", o.seed, v.case + 1);
            exit(1)
        }
    }
}

/// Appends a ledger line for a fuzz session. Fuzzing crosses many
/// generated instances, so the master seed stands in for the structural
/// instance key and the rung list stays empty.
fn append_fuzz_ledger(
    o: &Options,
    path: &str,
    tool: &str,
    settings: &CheckSettings,
    violation: bool,
    wall: std::time::Duration,
    extras: Vec<(String, u64)>,
) {
    use bbec::core::ledger;
    let record = ledger::RunRecord {
        instance_key: format!("{:016x}", o.seed),
        settings_key: ledger::settings_key(settings, &[]),
        label: format!("{tool}-seed-{}", o.seed),
        tool: tool.to_string(),
        verdict: if violation { "violation_found" } else { "clean" }.to_string(),
        wall_ms: wall.as_millis() as u64,
        jobs: 1,
        unix_ms: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64),
        host: bbec::trace::HostMeta::capture(),
        rungs: Vec::new(),
        extras,
    };
    record.append(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("bbec: cannot append to ledger `{path}`: {e}");
        exit(2)
    });
    if !o.quiet {
        println!("ledger: {tool} run appended to {path}");
    }
}

/// The `bbec report` subcommand: either a `--compare BASE NEW` regression
/// gate (exit 1 on regression) or an aggregate view of ledger/trace/bench
/// JSONL files.
fn run_report_command(o: &Options) -> ! {
    use bbec::trace::compare::{self, CompareSpec, Mode};
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("bbec: cannot read `{p}`: {e}");
            exit(2)
        })
    };
    if let Some((base_path, cur_path)) = &o.compare {
        let require = |v: &Option<String>, flag: &str| {
            v.clone().unwrap_or_else(|| {
                eprintln!("bbec: report --compare needs {flag}");
                exit(2)
            })
        };
        let spec = CompareSpec {
            event: require(&o.event, "--event NAME"),
            key: require(&o.key, "--key ATTR"),
            metric: require(&o.metric, "--metric ATTR"),
            mode: Mode::parse(&o.mode).unwrap_or_else(|e| {
                eprintln!("bbec: {e}");
                exit(2)
            }),
            tolerance: o.tolerance,
            baseline_filter: o.baseline_filter.as_ref().map(|f| match f.split_once('=') {
                Some((k, v)) => (k.to_string(), v.to_string()),
                None => {
                    eprintln!("bbec: --baseline-filter wants attr=value");
                    exit(2)
                }
            }),
        };
        let (base_text, cur_text) = (read(base_path), read(cur_path));
        // A baseline measured on a different core count is not comparable
        // for scaling benchmarks — note it, but let the gate decide.
        if let (Some(b), Some(c)) =
            (compare::host_parallelism(&base_text), compare::host_parallelism(&cur_text))
        {
            if b != c {
                eprintln!(
                    "bbec: note: baseline host_parallelism is {b} but current is {c}; \
                     wall-clock and speedup comparisons across different hosts are advisory"
                );
            }
        }
        let report = compare::compare(&base_text, &cur_text, &spec).unwrap_or_else(|e| {
            eprintln!("bbec: {e}");
            exit(2)
        });
        for row in &report.rows {
            println!("report: {}", compare::render_row(row, &spec));
        }
        if report.pass {
            exit(0)
        }
        eprintln!("bbec: regression beyond tolerance");
        exit(1)
    }
    if o.positional.is_empty() {
        usage();
    }
    for path in &o.positional {
        render_report_file(path, &read(path));
    }
    exit(0)
}

/// Aggregate view of one JSONL file: ledger runs grouped by instance and
/// settings key (with a cross-run wall-clock diff), per-rung wall-clock
/// from `core.ladder_rung` spans, histogram quantiles, record tallies.
fn render_report_file(path: &str, text: &str) {
    use bbec::trace::json::{parse, Value};
    use std::collections::BTreeMap;

    struct LedgerRun {
        label: String,
        verdict: String,
        wall_ms: f64,
        rungs: Vec<(String, f64, bool)>,
    }

    let mut ledger: BTreeMap<(String, String), Vec<LedgerRun>> = BTreeMap::new();
    let mut rung_spans: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    struct HistogramLine {
        name: String,
        count: u64,
        max: u64,
        buckets: Vec<(u64, u64)>,
    }

    let mut histograms: Vec<HistogramLine> = Vec::new();
    let mut records: BTreeMap<String, u64> = BTreeMap::new();

    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).unwrap_or_else(|e| {
            eprintln!("bbec: {path}:{}: {e}", lineno + 1);
            exit(2)
        });
        let str_of =
            |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap_or("?").to_string();
        match v.get("type").and_then(Value::as_str) {
            Some("run") => {
                let rungs = v
                    .get("rungs")
                    .and_then(Value::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .map(|r| {
                        (
                            str_of(r, "method"),
                            r.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0),
                            matches!(r.get("finished"), Some(Value::Bool(true))),
                        )
                    })
                    .collect();
                ledger
                    .entry((str_of(&v, "instance_key"), str_of(&v, "settings_key")))
                    .or_default()
                    .push(LedgerRun {
                        label: str_of(&v, "label"),
                        verdict: str_of(&v, "verdict"),
                        wall_ms: v.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0),
                        rungs,
                    });
            }
            Some("span") if v.get("name").and_then(Value::as_str) == Some("core.ladder_rung") => {
                let method = v
                    .get("attrs")
                    .and_then(|a| a.get("method"))
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string();
                let dur_us = v.get("dur_us").and_then(Value::as_f64).unwrap_or(0.0);
                let entry = rung_spans.entry(method).or_insert((0, 0.0));
                entry.0 += 1;
                entry.1 += dur_us;
            }
            Some("histogram") => {
                let buckets = v
                    .get("buckets")
                    .and_then(Value::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|pair| {
                        let pair = pair.as_array()?;
                        Some((pair.first()?.as_f64()? as u64, pair.get(1)?.as_f64()? as u64))
                    })
                    .collect();
                histograms.push(HistogramLine {
                    name: str_of(&v, "name"),
                    count: v.get("count").and_then(Value::as_f64).unwrap_or(0.0) as u64,
                    max: v.get("max").and_then(Value::as_f64).unwrap_or(0.0) as u64,
                    buckets,
                });
            }
            Some("record") => {
                *records.entry(str_of(&v, "name")).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    println!("report: {path}");
    if !ledger.is_empty() {
        let total: usize = ledger.values().map(Vec::len).sum();
        println!("  ledger: {} run(s) in {} instance/settings group(s)", total, ledger.len());
        for ((ikey, skey), runs) in &ledger {
            let last = runs.last().unwrap();
            println!(
                "    instance {ikey} settings {skey} ({}): {} run(s), last verdict {}",
                last.label,
                runs.len(),
                last.verdict
            );
            // Cross-run diff: the latest run against the best earlier one.
            let best_prev =
                runs[..runs.len() - 1].iter().map(|r| r.wall_ms).fold(f64::INFINITY, f64::min);
            if best_prev.is_finite() {
                let pct = if best_prev > 0.0 {
                    format!(" ({:+.1}%)", (last.wall_ms / best_prev - 1.0) * 100.0)
                } else {
                    String::new()
                };
                println!(
                    "      wall {:.0} ms vs best earlier {:.0} ms{pct}",
                    last.wall_ms, best_prev
                );
            } else {
                println!("      wall {:.0} ms", last.wall_ms);
            }
            for (method, wall_ms, finished) in &last.rungs {
                println!(
                    "      rung {method:<6} {wall_ms:>8.0} ms{}",
                    if *finished { "" } else { "  (budget exceeded)" }
                );
            }
        }
    }
    if !rung_spans.is_empty() {
        println!("  rung wall-clock (core.ladder_rung spans):");
        let total: f64 = rung_spans.values().map(|(_, d)| d).sum();
        for (method, (count, dur_us)) in &rung_spans {
            let share = if total > 0.0 { dur_us / total * 100.0 } else { 0.0 };
            println!(
                "    {method:<6} {count:>4} span(s) {:>10.1} ms  {share:>5.1}%",
                dur_us / 1000.0
            );
        }
    }
    if !histograms.is_empty() {
        println!("  histogram quantiles (lower bucket bounds):");
        for h in &histograms {
            let q = |x: f64| bbec::trace::Histogram::quantile_from_buckets(&h.buckets, h.count, x);
            println!(
                "    {}: n={} p50>={} p90>={} p99>={} max={}",
                h.name,
                h.count,
                q(0.5),
                q(0.9),
                q(0.99),
                h.max
            );
        }
    }
    if !records.is_empty() {
        let shown: Vec<String> = records.iter().map(|(n, c)| format!("{n} x{c}")).collect();
        println!("  records: {}", shown.join(", "));
    }
}

/// Serves connections on a unix socket, one at a time, until a `shutdown`
/// request; the socket file is (re)created on bind and removed on exit.
#[cfg(unix)]
fn serve_unix(
    service: &bbec::core::service::Service,
    path: &str,
) -> std::io::Result<bbec::core::service::ServeStats> {
    use std::os::unix::net::UnixListener;
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let mut totals = bbec::core::service::ServeStats::default();
    for stream in listener.incoming() {
        let stream = stream?;
        let reader = std::io::BufReader::new(stream.try_clone()?);
        let stats = service.serve(reader, stream)?;
        totals.requests += stats.requests;
        totals.responses += stats.responses;
        if stats.shutdown {
            totals.shutdown = true;
            break;
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(totals)
}

#[cfg(not(unix))]
fn serve_unix(
    _service: &bbec::core::service::Service,
    _path: &str,
) -> std::io::Result<bbec::core::service::ServeStats> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "--socket requires a unix platform; use stdin/stdout",
    ))
}

/// Drains the tracer (if armed) into the requested sinks: the JSONL event
/// stream and/or the human-readable summary tree. Runs before the check's
/// exit code is decided, so traces survive both verdicts.
fn emit_trace(o: &Options, tracer: &bbec::trace::Tracer) {
    if !tracer.enabled() {
        return;
    }
    let trace = tracer.finish();
    if let Some(path) = &o.trace_out {
        if tracer.has_sink() {
            // Events streamed to disk as they happened; finish() flushed
            // the counter/histogram tail through the sink already.
            if !o.quiet {
                println!("trace streamed to {path} ({} events)", trace.events().len());
            }
        } else {
            if let Some(err) = tracer.sink_error() {
                eprintln!("bbec: trace stream to `{path}` failed ({err}); writing buffered copy");
            }
            std::fs::write(path, trace.to_jsonl()).unwrap_or_else(|e| {
                eprintln!("bbec: cannot write trace `{path}`: {e}");
                exit(2)
            });
            if !o.quiet {
                println!("trace written to {path} ({} events)", trace.events().len());
            }
        }
    }
    if o.trace_summary {
        print!("{}", trace.summary());
    }
}

fn run_method(
    method: &str,
    spec: &Circuit,
    partial: &PartialCircuit,
    settings: &CheckSettings,
    jobs: usize,
    quiet: bool,
) -> (Verdict, Option<checks::LadderReport>) {
    let report = |outcome: Result<bbec::core::CheckOutcome, bbec::core::CheckError>| {
        let outcome = outcome.unwrap_or_else(|e| {
            eprintln!("bbec: {e}");
            exit(2)
        });
        if !quiet {
            if let Some(cex) = &outcome.counterexample {
                println!("counterexample inputs: {:?}", cex.inputs);
            }
            println!(
                "method {}: {:?} ({} impl nodes, {} peak, {:?})",
                outcome.method,
                outcome.verdict,
                outcome.stats.impl_nodes,
                outcome.stats.peak_check_nodes,
                outcome.stats.duration
            );
        }
        outcome.verdict
    };
    match method {
        "rp" => (report(checks::random_patterns(spec, partial, settings)), None),
        "01x" => (report(checks::symbolic_01x(spec, partial, settings)), None),
        "local" => (report(checks::local_check(spec, partial, settings)), None),
        "oe" => (report(checks::output_exact(spec, partial, settings)), None),
        "ie" => (report(checks::input_exact(spec, partial, settings)), None),
        "sat-01x" => (report(sat_checks::sat_dual_rail(spec, partial, settings)), None),
        "sat-oe" => {
            (report(sat_checks::sat_output_exact(spec, partial, settings, 1_000_000)), None)
        }
        "ladder" => {
            // The parallel engine shards the per-output rungs over `jobs`
            // workers; with one job it runs the same decomposition
            // sequentially, so the verdict is independent of the job count.
            let ladder = bbec::core::ParallelChecker::new(settings.clone(), jobs);
            let ladder_report = ladder.run(spec, partial).unwrap_or_else(|e| {
                eprintln!("bbec: {e}");
                exit(2)
            });
            if !quiet {
                for stage in &ladder_report.stages {
                    match stage {
                        checks::StageResult::Finished(o) => println!(
                            "  {:<6} -> {:?} ({:?}, {} steps)",
                            o.method.label(),
                            o.verdict,
                            o.stats.duration,
                            o.stats.apply_steps
                        ),
                        checks::StageResult::BudgetExceeded { method, reason, .. } => println!(
                            "  {:<6} -> budget exceeded after {:?} ({reason})",
                            method.label(),
                            stage.elapsed()
                        ),
                    }
                }
                let skipped = ladder_report.budget_exceeded();
                if ladder_report.verdict() == Verdict::NoErrorFound && !skipped.is_empty() {
                    println!(
                        "  note: verdict is from the strongest rung that finished; {} \
                         stronger check(s) exceeded the budget",
                        skipped.len()
                    );
                }
            }
            (ladder_report.verdict(), Some(ladder_report))
        }
        _ => usage(),
    }
}

/// One `--progress` heartbeat as a stderr line.
fn heartbeat_line(hb: &bbec::trace::Heartbeat) -> String {
    let task = if hb.task.is_empty() { String::new() } else { format!(" {}", hb.task) };
    let mut line = format!(
        "bbec: [{}]{task} {} steps, {} live nodes, {:.1}s",
        hb.region,
        hb.steps,
        hb.live_nodes,
        hb.elapsed_ms as f64 / 1000.0
    );
    if let Some(f) = hb.budget_used {
        line.push_str(&format!(", budget {:.0}%", f * 100.0));
    }
    if let Some(eta) = hb.eta_ms {
        line.push_str(&format!(", eta ~{:.1}s", eta as f64 / 1000.0));
    }
    line
}

/// Appends one run record for a finished `check` to the ledger at `path`.
fn append_check_ledger(
    o: &Options,
    path: &str,
    instance_key: String,
    impl_path: &str,
    settings: &CheckSettings,
    report: Option<&checks::LadderReport>,
    wall: std::time::Duration,
) {
    use bbec::core::ledger;
    let Some(report) = report else {
        eprintln!("bbec: --ledger records ladder runs; method `{}` was not recorded", o.method);
        return;
    };
    // The effective configuration includes the CLI-level sweep decision,
    // which main() applies before the engines see the settings.
    let key_settings = CheckSettings { sweep: o.sweep, ..settings.clone() };
    let skey = ledger::settings_key(&key_settings, &checks::CheckLadder::default().stages);
    let label = Path::new(impl_path).file_stem().and_then(|s| s.to_str()).unwrap_or("check");
    let record = ledger::RunRecord::from_ladder(
        instance_key,
        skey,
        label,
        report,
        wall.as_millis() as u64,
        o.jobs as u64,
    );
    record.append(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("bbec: cannot append to ledger `{path}`: {e}");
        exit(2)
    });
    if !o.quiet {
        println!("ledger: run {} appended to {path}", record.instance_key);
    }
}
