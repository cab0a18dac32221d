//! The cross-run ledger: append-only JSONL records of check runs, keyed by
//! a structural instance hash, for longitudinal regression analysis.
//!
//! A trace file describes *one* run in depth; the ledger describes *many*
//! runs shallowly — one line per run, carrying the verdict, per-rung
//! wall/step/peak-node figures, cache hit rates and host provenance. The
//! CLI appends a record per `bbec check --ledger PATH` invocation and the
//! `bbec report` subcommand aggregates, diffs and regression-gates the
//! accumulated file.
//!
//! Two keys identify a line:
//!
//! * [`instance_key`] — an FNV-1a hash over the *structure* of the
//!   specification, the implementation and its black-box carve (gate
//!   kinds, wiring and box pin signatures by signal index; never names),
//!   so re-parsing a renamed netlist keys to the same instance;
//! * [`settings_key`] — a hash of the verdict-relevant settings (ladder
//!   stages, limits, seed, sweep, cache size), so runs are only compared
//!   like-for-like.
//!
//! Ledger files are **not** trace streams: they are multi-run and
//! append-only, so the trace schema's meta-header/monotone-`seq` stream
//! invariants do not apply. They get their own per-line validation
//! ([`validate_ledger_line`]) with the same zero-dependency JSON core.

use crate::checks::{LadderReport, StageResult};
use crate::partial::PartialCircuit;
use crate::report::{CheckOutcome, CheckSettings, Method};
use bbec_netlist::Circuit;
use bbec_trace::json::{self, ObjectWriter, Value};
use bbec_trace::HostMeta;
use std::io::Write;
use std::path::Path;

/// Version stamp written into every ledger line.
pub const LEDGER_SCHEMA_VERSION: u64 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;
/// Offset basis of the *alternate* hash family (the primary basis with its
/// halves swapped): same byte walk, decorrelated state trajectory. The
/// service result cache stores both hashes and verifies the alternate one
/// on every primary hit, so a 64-bit collision downgrades to a miss
/// instead of serving a wrong cached verdict.
const FNV_ALT_OFFSET: u64 = 0x8422_2325_cbf2_9ce4;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn with_basis(basis: u64) -> Self {
        Fnv(basis)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
}

fn hash_circuit(h: &mut Fnv, circuit: &Circuit) {
    h.usize(circuit.inputs().len());
    h.usize(circuit.outputs().len());
    h.usize(circuit.gates().len());
    for &s in circuit.inputs() {
        h.usize(s.index());
    }
    for gate in circuit.gates() {
        h.bytes(gate.kind.name().as_bytes());
        h.usize(gate.inputs.len());
        for &s in &gate.inputs {
            h.usize(s.index());
        }
        h.usize(gate.output.index());
    }
    for &(_, root) in circuit.outputs() {
        h.usize(root.index());
    }
}

fn instance_material(h: &mut Fnv, spec: &Circuit, partial: &PartialCircuit) {
    hash_circuit(h, spec);
    hash_circuit(h, partial.circuit());
    h.usize(partial.boxes().len());
    for b in partial.boxes() {
        h.usize(b.inputs.len());
        for &s in &b.inputs {
            h.usize(s.index());
        }
        h.usize(b.outputs.len());
        for &s in &b.outputs {
            h.usize(s.index());
        }
    }
}

/// Finalizing avalanche (splitmix64) applied to the alternate hash so its
/// low bits differ from the primary's even on correlated inputs.
fn avalanche(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Primary structural instance hash as a raw `u64` ([`instance_key`] is
/// its hex rendering). The service result cache keys on this value.
pub fn instance_hash(spec: &Circuit, partial: &PartialCircuit) -> u64 {
    let mut h = Fnv::new();
    instance_material(&mut h, spec, partial);
    h.0
}

/// Alternate structural instance hash over the *same* material as
/// [`instance_hash`], from a different offset basis with a finalizing
/// avalanche — independent enough that two instances colliding on the
/// primary hash almost surely separate here. Cache entries store both and
/// verify this one on every hit (collision guard).
pub fn instance_hash_alt(spec: &Circuit, partial: &PartialCircuit) -> u64 {
    let mut h = Fnv::with_basis(FNV_ALT_OFFSET);
    instance_material(&mut h, spec, partial);
    avalanche(h.0)
}

/// Structural hash of a (spec, implementation, carve) triple: gate kinds
/// and wiring by signal index, black-box pin signatures by signal index,
/// never any names — renaming every wire keys to the same instance.
pub fn instance_key(spec: &Circuit, partial: &PartialCircuit) -> String {
    format!("{:016x}", instance_hash(spec, partial))
}

/// Raw `u64` form of [`settings_key`].
pub fn settings_hash(settings: &CheckSettings, stages: &[Method]) -> u64 {
    let mut h = Fnv::new();
    h.u64(u64::from(settings.dynamic_reordering));
    h.usize(settings.reorder_threshold);
    h.usize(settings.random_patterns);
    h.u64(settings.seed);
    h.u64(settings.node_limit.map_or(u64::MAX, |v| v as u64));
    h.u64(settings.step_limit.unwrap_or(u64::MAX));
    h.u64(settings.time_limit.map_or(u64::MAX, |d| d.as_millis() as u64));
    h.u64(u64::from(settings.sweep));
    h.u64(u64::from(settings.cache_bits));
    h.usize(stages.len());
    for m in stages {
        h.bytes(m.label().as_bytes());
    }
    h.0
}

/// Hash of the verdict-relevant settings plus the stage list, so ledger
/// comparisons only pair runs with like configurations. Observability
/// settings (tracer, progress) and the warm manager pool deliberately do
/// not participate.
pub fn settings_key(settings: &CheckSettings, stages: &[Method]) -> String {
    format!("{:016x}", settings_hash(settings, stages))
}

/// Per-rung slice of a [`RunRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RungRecord {
    /// Paper column label of the method (`r.p.`, `0,1,X`, `loc.`, …).
    pub method: String,
    /// Whether the rung ran to completion (false = budget exceeded).
    pub finished: bool,
    /// Whether the rung reported an error (always false when unfinished).
    pub error_found: bool,
    /// Wall-clock time of the rung in milliseconds.
    pub wall_ms: u64,
    /// Apply steps charged during the rung.
    pub apply_steps: u64,
    /// Peak additional live BDD nodes during the rung.
    pub peak_nodes: u64,
    /// Computed-table hits during the rung.
    pub cache_hits: u64,
    /// Computed-table misses during the rung.
    pub cache_misses: u64,
}

impl RungRecord {
    pub(crate) fn from_stage(stage: &StageResult) -> RungRecord {
        let stats = stage.stats().unwrap_or_default();
        RungRecord {
            method: stage.method().label().to_string(),
            finished: !stage.is_budget_exceeded(),
            error_found: stage.outcome().is_some_and(CheckOutcome::is_error),
            wall_ms: stage.elapsed().as_millis() as u64,
            apply_steps: stats.apply_steps,
            peak_nodes: stats.peak_check_nodes as u64,
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
        }
    }

    pub(crate) fn to_json(&self) -> String {
        let mut w = ObjectWriter::new();
        w.str("method", &self.method);
        w.bool("finished", self.finished);
        w.bool("error_found", self.error_found);
        w.u64("wall_ms", self.wall_ms);
        w.u64("apply_steps", self.apply_steps);
        w.u64("peak_nodes", self.peak_nodes);
        w.u64("cache_hits", self.cache_hits);
        w.u64("cache_misses", self.cache_misses);
        w.finish()
    }
}

/// One ledger line: the durable summary of one check run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// Structural instance hash ([`instance_key`]).
    pub instance_key: String,
    /// Settings hash ([`settings_key`]).
    pub settings_key: String,
    /// Display label for humans (e.g. the netlist file stem); never used
    /// for matching.
    pub label: String,
    /// Producing tool (`check`, `fuzz`, …).
    pub tool: String,
    /// Overall verdict (`error_found` / `no_error_found`).
    pub verdict: String,
    /// Wall-clock time of the whole run in milliseconds.
    pub wall_ms: u64,
    /// Worker threads used for the sharded phase.
    pub jobs: u64,
    /// Unix timestamp (milliseconds) when the record was written.
    pub unix_ms: u64,
    /// Host provenance (parallelism, OS, architecture).
    pub host: HostMeta,
    /// Per-rung breakdown, in execution order.
    pub rungs: Vec<RungRecord>,
    /// Tool-specific extra counters (e.g. fuzz throughput), serialized as
    /// additional top-level numeric keys. The schema validator tolerates
    /// unknown keys, so extras never break older readers.
    pub extras: Vec<(String, u64)>,
}

impl RunRecord {
    /// Builds a record from a finished ladder run.
    pub fn from_ladder(
        instance_key: String,
        settings_key: String,
        label: &str,
        report: &LadderReport,
        wall_ms: u64,
        jobs: u64,
    ) -> RunRecord {
        RunRecord {
            instance_key,
            settings_key,
            label: label.to_string(),
            tool: "check".to_string(),
            verdict: report.verdict().as_str().to_string(),
            wall_ms,
            jobs,
            unix_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_millis() as u64),
            host: HostMeta::capture(),
            rungs: report.stages.iter().map(RungRecord::from_stage).collect(),
            extras: Vec::new(),
        }
    }

    /// Serialises the record as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut w = ObjectWriter::new();
        w.str("type", "run");
        w.u64("schema", LEDGER_SCHEMA_VERSION);
        w.str("instance_key", &self.instance_key);
        w.str("settings_key", &self.settings_key);
        w.str("label", &self.label);
        w.str("tool", &self.tool);
        w.str("verdict", &self.verdict);
        w.u64("wall_ms", self.wall_ms);
        w.u64("jobs", self.jobs);
        w.u64("unix_ms", self.unix_ms);
        w.u64("host_parallelism", self.host.parallelism);
        w.str("os", self.host.os);
        w.str("arch", self.host.arch);
        for (key, value) in &self.extras {
            w.u64(key, *value);
        }
        let rungs: Vec<String> = self.rungs.iter().map(RungRecord::to_json).collect();
        w.raw("rungs", &format!("[{}]", rungs.join(",")));
        w.finish()
    }

    /// Appends the record to the ledger at `path` (created if absent).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures opening or writing the file.
    pub fn append(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        file.write_all(self.to_json_line().as_bytes())?;
        file.write_all(b"\n")?;
        file.flush()
    }
}

fn require_str(v: &Value, key: &str) -> Result<(), String> {
    match v.get(key) {
        Some(Value::String(_)) => Ok(()),
        Some(_) => Err(format!("'{key}' must be a string")),
        None => Err(format!("missing required key '{key}'")),
    }
}

fn require_num(v: &Value, key: &str) -> Result<(), String> {
    match v.get(key) {
        Some(Value::Number(_)) => Ok(()),
        Some(_) => Err(format!("'{key}' must be a number")),
        None => Err(format!("missing required key '{key}'")),
    }
}

fn require_bool(v: &Value, key: &str) -> Result<(), String> {
    match v.get(key) {
        Some(Value::Bool(_)) => Ok(()),
        Some(_) => Err(format!("'{key}' must be a boolean")),
        None => Err(format!("missing required key '{key}'")),
    }
}

/// Validates one ledger line against the run-record schema.
pub fn validate_ledger_line(line: &str) -> Result<(), String> {
    let v = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    if !v.is_object() {
        return Err("line is not a JSON object".to_string());
    }
    match v.get("type").and_then(Value::as_str) {
        Some("run") => {}
        Some(other) => return Err(format!("unknown ledger record type '{other}'")),
        None => return Err("missing required key 'type'".to_string()),
    }
    require_num(&v, "schema")?;
    for key in ["instance_key", "settings_key", "label", "tool", "verdict", "os", "arch"] {
        require_str(&v, key)?;
    }
    for key in ["wall_ms", "jobs", "unix_ms", "host_parallelism"] {
        require_num(&v, key)?;
    }
    let rungs = v
        .get("rungs")
        .ok_or("missing required key 'rungs'")?
        .as_array()
        .ok_or("'rungs' must be an array")?;
    for (i, rung) in rungs.iter().enumerate() {
        if !rung.is_object() {
            return Err(format!("rung {i} must be an object"));
        }
        require_str(rung, "method").map_err(|e| format!("rung {i}: {e}"))?;
        for key in ["finished", "error_found"] {
            require_bool(rung, key).map_err(|e| format!("rung {i}: {e}"))?;
        }
        for key in ["wall_ms", "apply_steps", "peak_nodes", "cache_hits", "cache_misses"] {
            require_num(rung, key).map_err(|e| format!("rung {i}: {e}"))?;
        }
    }
    Ok(())
}

/// Validates a whole ledger file (blank lines allowed, records are
/// independent — there is no stream header). Returns the record count.
pub fn validate_ledger(input: &str) -> Result<usize, String> {
    let mut n = 0;
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_ledger_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::CheckLadder;
    use crate::samples;

    fn sample_report() -> (String, String, LadderReport) {
        let (spec, partial) = samples::completable_pair();
        let settings = CheckSettings {
            dynamic_reordering: false,
            random_patterns: 100,
            ..CheckSettings::default()
        };
        let ladder = CheckLadder::with_settings(settings.clone());
        let report = ladder.run(&spec, &partial).unwrap();
        let ikey = instance_key(&spec, &partial);
        let skey = settings_key(&settings, &ladder.stages);
        (ikey, skey, report)
    }

    #[test]
    fn instance_key_is_structural_and_name_independent() {
        let (spec, partial) = samples::completable_pair();
        let k1 = instance_key(&spec, &partial);
        let k2 = instance_key(&spec, &partial);
        assert_eq!(k1, k2, "deterministic");
        assert_eq!(k1.len(), 16);

        // A different carve of the same spec keys differently.
        let other = PartialCircuit::black_box_gates(&spec, &[1]).unwrap();
        assert_ne!(k1, instance_key(&spec, &other));

        // A different spec keys differently.
        let (spec2, partial2) = samples::detected_only_by_local();
        assert_ne!(k1, instance_key(&spec2, &partial2));
    }

    #[test]
    fn alternate_hash_is_independent_of_the_primary() {
        let (spec, partial) = samples::completable_pair();
        assert_eq!(
            instance_hash_alt(&spec, &partial),
            instance_hash_alt(&spec, &partial),
            "deterministic"
        );
        assert_ne!(
            instance_hash(&spec, &partial),
            instance_hash_alt(&spec, &partial),
            "the two hash families must not coincide"
        );
        // A structural change moves both hashes.
        let other = PartialCircuit::black_box_gates(&spec, &[1]).unwrap();
        assert_ne!(instance_hash(&spec, &partial), instance_hash(&spec, &other));
        assert_ne!(instance_hash_alt(&spec, &partial), instance_hash_alt(&spec, &other));
    }

    #[test]
    fn settings_key_tracks_verdict_relevant_knobs_only() {
        let base = CheckSettings::default();
        let stages = CheckLadder::default().stages;
        let k = settings_key(&base, &stages);
        assert_eq!(k, settings_key(&base, &stages), "deterministic");

        let mut tighter = base.clone();
        tighter.step_limit = Some(1000);
        assert_ne!(k, settings_key(&tighter, &stages));

        // Observability does not perturb the key.
        let mut traced = base.clone();
        traced.tracer = bbec_trace::Tracer::new();
        traced.progress = bbec_trace::Progress::new(
            bbec_trace::Tracer::disabled(),
            std::time::Duration::from_millis(1),
        );
        assert_eq!(k, settings_key(&traced, &stages));
    }

    #[test]
    fn run_record_round_trips_and_validates() {
        let (ikey, skey, report) = sample_report();
        let record = RunRecord::from_ladder(ikey.clone(), skey, "sample", &report, 12, 1);
        let line = record.to_json_line();
        validate_ledger_line(&line).unwrap_or_else(|e| panic!("{e}\n{line}"));
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("instance_key").and_then(Value::as_str), Some(ikey.as_str()));
        assert_eq!(v.get("verdict").and_then(Value::as_str), Some("no_error_found"));
        let rungs = v.get("rungs").and_then(Value::as_array).unwrap();
        assert_eq!(rungs.len(), report.stages.len());
        assert_eq!(rungs[0].get("method").and_then(Value::as_str), Some("r.p."));
        assert!(v.get("host_parallelism").and_then(Value::as_f64).unwrap() >= 1.0);
    }

    #[test]
    fn append_accumulates_a_valid_multi_run_file() {
        let (ikey, skey, report) = sample_report();
        let dir = std::env::temp_dir().join(format!("bbec-ledger-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        let _ = std::fs::remove_file(&path);
        for i in 0..3 {
            let r = RunRecord::from_ladder(ikey.clone(), skey.clone(), "sample", &report, i, 1);
            r.append(&path).unwrap();
        }
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(validate_ledger(&content), Ok(3));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn validation_rejects_malformed_records() {
        for (line, why) in [
            ("not json", "invalid JSON"),
            (r#"{"type":"wat"}"#, "unknown type"),
            (r#"{"type":"run","schema":1}"#, "missing keys"),
        ] {
            assert!(validate_ledger_line(line).is_err(), "should reject ({why}): {line}");
        }
        // A full record with one rung field of the wrong type.
        let (ikey, skey, report) = sample_report();
        let good = RunRecord::from_ladder(ikey, skey, "s", &report, 1, 1).to_json_line();
        let bad = good.replace("\"finished\":true", "\"finished\":\"yes\"");
        assert!(validate_ledger_line(&bad).is_err(), "boolean fields are type-checked");
        assert!(validate_ledger("\n\n").is_ok(), "blank lines are tolerated");
    }
}
