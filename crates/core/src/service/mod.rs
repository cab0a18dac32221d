//! `bbec serve` — a persistent check service with a structural result
//! cache and dirty-cone incremental re-checking.
//!
//! A long-lived process answering batched JSONL check requests (stdin or a
//! unix socket; see [`protocol`] for the wire format). Three layers make
//! repeated checks of evolving designs cheap:
//!
//! 1. **Full-result cache** — results are keyed on the ledger's structural
//!    [`crate::ledger::instance_hash`] combined with
//!    [`crate::ledger::settings_hash`], so re-submitting an unchanged
//!    instance (even renamed: the hash is structural) answers from memory
//!    with **zero** BDD work.
//! 2. **Dirty-cone incremental re-checking** — on a miss, the service
//!    runs [`ParallelChecker`] (one job) with a cone lookup: each
//!    [`crate::plan_shards`] cone is hashed individually, cones whose
//!    subcircuits are unchanged replay their cached per-cone ladder
//!    reports, and only the *dirty* cones re-run the per-output rungs.
//!    The engine merges cached and fresh cone reports alike, so verdicts
//!    and counterexamples are bit-identical to a cold run.
//! 3. **Warm manager pool** — every check draws its BDD manager from a
//!    [`bbec_bdd::ManagerPool`], which resets (rather than reallocates)
//!    managers between requests.
//!
//! Degraded results (any budget-exceeded rung) are **never cached**: a
//! timeout is not a fact about the instance. Cache entries carry a second,
//! independent structural hash that is verified on every hit, so a 64-bit
//! key collision downgrades to a miss instead of serving a wrong verdict
//! (see [`cache`]).
//!
//! Observability: each request runs under a `service.request` span (with
//! `cached`/`cones`/`cones_reused` attributes) and each planned cone gets
//! a `service.cone` span with a `reused` flag, recorded by the lookup
//! before any cone runs — the incremental property tests assert *which*
//! cones re-ran straight from the trace. The cones that do run show up
//! under the engine's `core.parallel_phase` and `core.parallel_shard`
//! spans. With
//! `--ledger`, every request appends a standard run record with tool
//! `"serve"`.

pub mod cache;
pub mod protocol;
pub mod queue;

use crate::checks::{CheckLadder, StageResult};
use crate::ledger::{self, RungRecord};
use crate::parallel::ParallelChecker;
use crate::partial::PartialCircuit;
use crate::report::{CheckError, CheckSettings, Method};
use bbec_netlist::{blif, Circuit};
use cache::{CacheStats, CachedResult, ResultCache};
use protocol::{BoxCarve, CheckRequest, CheckResponse, Request, RequestSource, SettingsOverrides};
use queue::JobQueue;
use std::io::{BufRead, Write};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Base check settings; per-request overrides start from these. The
    /// service installs its warm manager pool into them.
    pub settings: CheckSettings,
    /// Ladder stages, in execution order (default: the paper's five rungs).
    pub stages: Vec<Method>,
    /// CEGAR refinement budget for SAT output-exact stages.
    pub sat_refinement_budget: usize,
    /// Worker threads draining the job queue. `1` (the default) executes
    /// requests sequentially in intake order — fully deterministic output
    /// order, which the golden tests and CI rely on.
    pub max_jobs: usize,
    /// Full-result cache entries (per-cone entries get an 8x budget).
    pub cache_entries: usize,
    /// Bounded job-queue capacity; intake blocks when it is full.
    pub queue_capacity: usize,
    /// Warm BDD managers kept for reuse.
    pub pool_capacity: usize,
    /// Append one run record per check request to this ledger file.
    pub ledger: Option<std::path::PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let CheckLadder { stages, sat_refinement_budget, .. } = CheckLadder::default();
        ServiceConfig {
            settings: CheckSettings::default(),
            stages,
            sat_refinement_budget,
            max_jobs: 1,
            cache_entries: 1024,
            queue_capacity: 256,
            pool_capacity: 4,
            ledger: None,
        }
    }
}

/// What one request line produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A response line to write and carry on.
    Line(String),
    /// The `bye` line of a shutdown request: write it, then stop intake.
    Bye(String),
}

/// Totals of one [`Service::serve`] session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Non-blank request lines read.
    pub requests: u64,
    /// Response lines written.
    pub responses: u64,
    /// Whether a `shutdown` request (rather than EOF) ended the session.
    pub shutdown: bool,
}

enum Job {
    /// A response computed at intake time (pong, parse error).
    Ready(String),
    /// A parsed request for a worker to execute.
    Exec(Box<CheckRequest>),
}

/// The persistent check service. Thread-safe: one instance may be shared
/// by the intake thread and every worker.
pub struct Service {
    config: ServiceConfig,
    pool: bbec_bdd::ManagerPool,
    cache: Mutex<ResultCache>,
    ledger_lock: Mutex<()>,
}

impl Service {
    /// Builds a service, installing a warm manager pool of
    /// [`ServiceConfig::pool_capacity`] into the base settings.
    pub fn new(mut config: ServiceConfig) -> Service {
        let pool = bbec_bdd::ManagerPool::new(config.pool_capacity);
        config.settings.pool = Some(pool.clone());
        Service {
            pool,
            cache: Mutex::new(ResultCache::new(config.cache_entries)),
            ledger_lock: Mutex::new(()),
            config,
        }
    }

    /// Warm-pool counters.
    pub fn pool_stats(&self) -> bbec_bdd::PoolStats {
        self.pool.stats()
    }

    /// Result-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().expect("cache lock poisoned").stats()
    }

    /// The effective base settings (pool installed).
    pub fn settings(&self) -> &CheckSettings {
        &self.config.settings
    }

    /// In-process check API — the same cache/incremental/pool path as the
    /// wire protocol, minus parsing. Used by the differential harness's
    /// served engine and the property tests.
    ///
    /// # Errors
    ///
    /// As [`CheckLadder::run`] ([`CheckError`]); budget-exceeded rungs are
    /// reported in the response, not raised.
    pub fn check_instance(
        &self,
        id: &str,
        spec: &Circuit,
        partial: &PartialCircuit,
        use_cache: bool,
    ) -> Result<CheckResponse, CheckError> {
        self.check_pair(id, spec, partial, &self.config.settings, use_cache)
    }

    /// Handles one raw request line, sequentially (parse + execute).
    pub fn handle_line(&self, line: &str) -> Reply {
        match protocol::parse_request(line) {
            Err(e) => Reply::Line(protocol::error_line(None, &e)),
            Ok(Request::Shutdown) => Reply::Bye(protocol::bye_line()),
            Ok(Request::Ping { id }) => Reply::Line(protocol::pong_line(&id)),
            Ok(Request::Check(req)) => Reply::Line(self.handle_check(&req)),
        }
    }

    /// Runs the service over a line stream until EOF or a `shutdown`
    /// request. With `max_jobs <= 1` requests execute sequentially in
    /// intake order; otherwise a bounded priority queue feeds `max_jobs`
    /// workers and responses interleave in completion order (each line
    /// written atomically).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures reading requests or writing responses.
    pub fn serve<R: BufRead, W: Write + Send>(
        &self,
        reader: R,
        mut writer: W,
    ) -> std::io::Result<ServeStats> {
        let mut stats = ServeStats::default();
        if self.config.max_jobs <= 1 {
            for line in reader.lines() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                stats.requests += 1;
                let (text, bye) = match self.handle_line(&line) {
                    Reply::Line(l) => (l, false),
                    Reply::Bye(l) => (l, true),
                };
                writeln!(writer, "{text}")?;
                writer.flush()?;
                stats.responses += 1;
                if bye {
                    stats.shutdown = true;
                    break;
                }
            }
            return Ok(stats);
        }
        self.serve_concurrent(reader, &mut writer)
    }

    fn serve_concurrent<R: BufRead, W: Write + Send>(
        &self,
        reader: R,
        writer: &mut W,
    ) -> std::io::Result<ServeStats> {
        let queue = JobQueue::new(self.config.queue_capacity);
        let out = Mutex::new(&mut *writer);
        let responses = std::sync::atomic::AtomicU64::new(0);
        let write_error: Mutex<Option<std::io::Error>> = Mutex::new(None);
        let intake = std::thread::scope(|scope| {
            for _ in 0..self.config.max_jobs {
                scope.spawn(|| {
                    while let Some(job) = queue.pop() {
                        let line = match job {
                            Job::Ready(l) => l,
                            Job::Exec(req) => self.handle_check(&req),
                        };
                        let mut w = out.lock().expect("writer lock poisoned");
                        if let Err(e) = writeln!(w, "{line}").and_then(|()| w.flush()) {
                            *write_error.lock().expect("error lock poisoned") = Some(e);
                            queue.close();
                            break;
                        }
                        responses.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    }
                });
            }
            let intake = (|| -> std::io::Result<(u64, bool)> {
                let mut requests = 0;
                for line in reader.lines() {
                    let line = line?;
                    if line.trim().is_empty() {
                        continue;
                    }
                    requests += 1;
                    match protocol::parse_request(&line) {
                        // Control messages and parse errors jump the queue.
                        Ok(Request::Shutdown) => return Ok((requests, true)),
                        Ok(Request::Ping { id }) => {
                            queue.push(i64::MAX, Job::Ready(protocol::pong_line(&id)));
                        }
                        Ok(Request::Check(req)) => {
                            let priority = req.priority;
                            queue.push(priority, Job::Exec(req));
                        }
                        Err(e) => {
                            queue.push(i64::MAX, Job::Ready(protocol::error_line(None, &e)));
                        }
                    }
                }
                Ok((requests, false))
            })();
            queue.close();
            intake
        });
        if let Some(e) = write_error.into_inner().expect("error lock poisoned") {
            return Err(e);
        }
        let (requests, shutdown) = intake?;
        let mut stats = ServeStats { requests, responses: responses.into_inner(), shutdown };
        if shutdown {
            writeln!(writer, "{}", protocol::bye_line())?;
            writer.flush()?;
            stats.responses += 1;
        }
        Ok(stats)
    }

    /// Applies per-request overrides to the base settings (`0` = unbounded
    /// for the limits).
    fn effective_settings(&self, o: &SettingsOverrides) -> CheckSettings {
        let mut s = self.config.settings.clone();
        if let Some(p) = o.patterns {
            s.random_patterns = p;
        }
        if let Some(r) = o.reorder {
            s.dynamic_reordering = r;
        }
        if let Some(w) = o.sweep {
            s.sweep = w;
        }
        if let Some(n) = o.node_limit {
            s.node_limit = if n == 0 { None } else { Some(n as usize) };
        }
        if let Some(n) = o.step_limit {
            s.step_limit = if n == 0 { None } else { Some(n) };
        }
        if let Some(ms) = o.time_limit_ms {
            s.time_limit = if ms == 0 { None } else { Some(Duration::from_millis(ms)) };
        }
        s
    }

    fn handle_check(&self, req: &CheckRequest) -> String {
        let id = Some(req.id.as_str());
        let (spec_text, impl_text) = match &req.source {
            RequestSource::Paths { spec, implementation } => {
                let s = match std::fs::read_to_string(spec) {
                    Ok(t) => t,
                    Err(e) => {
                        return protocol::error_line(id, &format!("cannot read spec '{spec}': {e}"))
                    }
                };
                let i = match std::fs::read_to_string(implementation) {
                    Ok(t) => t,
                    Err(e) => {
                        return protocol::error_line(
                            id,
                            &format!("cannot read implementation '{implementation}': {e}"),
                        )
                    }
                };
                (s, i)
            }
            RequestSource::Inline { spec, implementation } => {
                (spec.clone(), implementation.clone())
            }
        };
        let spec = match blif::parse(&spec_text) {
            Ok(c) => c,
            Err(e) => return protocol::error_line(id, &format!("spec: {e}")),
        };
        let implementation = match blif::parse_allow_undriven(&impl_text) {
            Ok(c) => c,
            Err(e) => return protocol::error_line(id, &format!("implementation: {e}")),
        };
        let partial = match PartialCircuit::carve_undriven(
            implementation,
            req.boxes == BoxCarve::PerSignal,
        ) {
            Ok(Some(p)) => p,
            Ok(None) => {
                return protocol::error_line(
                    id,
                    "the implementation has no undriven signals — nothing is black-boxed",
                )
            }
            Err(e) => {
                return protocol::error_line(id, &format!("invalid partial implementation: {e}"))
            }
        };
        let settings = self.effective_settings(&req.overrides);
        match self.check_pair(&req.id, &spec, &partial, &settings, req.use_cache) {
            Ok(resp) => {
                self.append_ledger(&req.id, &settings, &spec, &partial, &resp);
                resp.to_json_line()
            }
            Err(e) => protocol::error_line(id, &e.to_string()),
        }
    }

    /// The full check path: request span, cache lookup, incremental
    /// dirty-cone run, cache fill.
    fn check_pair(
        &self,
        id: &str,
        spec: &Circuit,
        partial: &PartialCircuit,
        settings: &CheckSettings,
        use_cache: bool,
    ) -> Result<CheckResponse, CheckError> {
        let start = Instant::now();
        // One child tracer per request: concurrent workers record into
        // private buffers, grafted under the service tracer afterwards.
        let parent_tracer = settings.tracer.clone();
        let child = parent_tracer.child();
        let mut s = settings.clone();
        s.tracer = child.clone();
        let result = self.check_inner(id, spec, partial, &s, use_cache, start);
        parent_tracer.adopt(&child.finish());
        result
    }

    fn check_inner(
        &self,
        id: &str,
        spec: &Circuit,
        partial: &PartialCircuit,
        s: &CheckSettings,
        use_cache: bool,
        start: Instant,
    ) -> Result<CheckResponse, CheckError> {
        let span = s.tracer.span("service.request");
        span.set_attr("id", id);

        let shash = ledger::settings_hash(s, &self.config.stages);
        let ih = ledger::instance_hash(spec, partial);
        let ia = ledger::instance_hash_alt(spec, partial);
        let (full_key, full_alt) = (combine(ih, shash), combine(ia, shash));
        if use_cache {
            let hit = self.cache.lock().expect("cache lock poisoned").get_full(full_key, full_alt);
            if let Some(hit) = hit {
                span.set_attr("cached", true);
                span.set_attr("cones", hit.cones);
                span.set_attr("cones_reused", hit.cones);
                return Ok(CheckResponse {
                    id: id.to_string(),
                    verdict: hit.verdict,
                    method: hit.method,
                    cached: true,
                    cones: hit.cones,
                    cones_reused: hit.cones,
                    budget_exceeded: false,
                    wall_ms: start.elapsed().as_millis() as u64,
                    apply_steps: 0,
                    rungs: hit.rungs,
                    counterexample: hit.counterexample,
                });
            }
        }
        span.set_attr("cached", false);

        // Cone keys hash each shard with the settings of the per-output
        // rungs only: a cone report is what those rungs produced.
        let mut phase_a = self.config.stages.clone();
        phase_a.retain(|&m| ParallelChecker::is_per_output(m));
        let shash_a = ledger::settings_hash(s, &phase_a);
        let checker = ParallelChecker {
            settings: s.clone(),
            jobs: 1,
            stages: self.config.stages.clone(),
            sat_refinement_budget: self.config.sat_refinement_budget,
        };
        let mut keys: Vec<(u64, u64)> = Vec::new();
        let mut cones_reused = 0;
        let (report, fresh) = checker.run_reusing(spec, partial, |i, shard| {
            let h = ledger::instance_hash(&shard.spec, &shard.partial);
            let a = ledger::instance_hash_alt(&shard.spec, &shard.partial);
            let (key, alt) = (combine(h, shash_a), combine(a, shash_a));
            keys.push((key, alt));
            let hit = use_cache
                .then(|| self.cache.lock().expect("cache lock poisoned").get_cone(key, alt))
                .flatten();
            let cone_span = s.tracer.span("service.cone");
            cone_span.set_attr("cone", i);
            cone_span.set_attr("outputs", shard.output_positions.len());
            cone_span.set_attr("reused", hit.is_some());
            cones_reused += usize::from(hit.is_some());
            hit
        })?;
        let cones = keys.len();

        // Fresh BDD work: the cones that ran plus the joint rungs.
        let steps = |st: &StageResult| st.stats().map_or(0, |x| x.apply_steps);
        let mut fresh_steps: u64 = report
            .stages
            .iter()
            .filter(|st| !ParallelChecker::is_per_output(st.method()))
            .map(steps)
            .sum();
        for (i, cone) in fresh {
            fresh_steps += cone.stages.iter().map(steps).sum::<u64>();
            if use_cache && !cone.stages.iter().any(StageResult::is_budget_exceeded) {
                let (key, alt) = keys[i];
                self.cache.lock().expect("cache lock poisoned").put_cone(key, alt, cone);
            }
        }

        let budget_exceeded = !report.budget_exceeded().is_empty();
        let verdict = report.verdict().as_str().to_string();
        let method = report.deciding_method().map(|m| m.label().to_string());
        let rungs: Vec<RungRecord> = report.stages.iter().map(RungRecord::from_stage).collect();
        let counterexample = report.counterexample().cloned();
        if use_cache && !budget_exceeded {
            self.cache.lock().expect("cache lock poisoned").put_full(
                full_key,
                full_alt,
                CachedResult {
                    verdict: verdict.clone(),
                    method: method.clone(),
                    rungs: rungs.clone(),
                    counterexample: counterexample.clone(),
                    cones,
                },
            );
        }
        span.set_attr("cones", cones);
        span.set_attr("cones_reused", cones_reused);
        Ok(CheckResponse {
            id: id.to_string(),
            verdict,
            method,
            cached: false,
            cones,
            cones_reused,
            budget_exceeded,
            wall_ms: start.elapsed().as_millis() as u64,
            apply_steps: fresh_steps,
            rungs,
            counterexample,
        })
    }

    fn append_ledger(
        &self,
        label: &str,
        settings: &CheckSettings,
        spec: &Circuit,
        partial: &PartialCircuit,
        resp: &CheckResponse,
    ) {
        let Some(path) = &self.config.ledger else { return };
        let record = ledger::RunRecord {
            instance_key: ledger::instance_key(spec, partial),
            settings_key: ledger::settings_key(settings, &self.config.stages),
            label: label.to_string(),
            tool: "serve".to_string(),
            verdict: resp.verdict.clone(),
            wall_ms: resp.wall_ms,
            jobs: 1,
            unix_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_millis() as u64),
            host: bbec_trace::HostMeta::capture(),
            rungs: resp.rungs.clone(),
            extras: vec![
                ("cached".to_string(), u64::from(resp.cached)),
                ("cones".to_string(), resp.cones as u64),
                ("cones_reused".to_string(), resp.cones_reused as u64),
                ("apply_steps".to_string(), resp.apply_steps),
            ],
        };
        let _guard = self.ledger_lock.lock().expect("ledger lock poisoned");
        if let Err(e) = record.append(path) {
            eprintln!("bbec serve: ledger append failed: {e}");
        }
    }
}

/// Mixes a structural instance hash with a settings hash into one cache
/// key; applied to the primary and alternate families alike, preserving
/// their independence.
fn combine(instance: u64, settings: u64) -> u64 {
    (instance ^ settings.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;

    fn quick_settings() -> CheckSettings {
        CheckSettings {
            dynamic_reordering: false,
            random_patterns: 100,
            ..CheckSettings::default()
        }
    }

    fn quick_service() -> Service {
        Service::new(ServiceConfig { settings: quick_settings(), ..ServiceConfig::default() })
    }

    #[test]
    fn full_cache_hit_answers_with_zero_fresh_steps() {
        let svc = quick_service();
        let (spec, partial) = samples::completable_pair();
        let cold = svc.check_instance("r1", &spec, &partial, true).unwrap();
        assert!(!cold.cached);
        assert!(cold.apply_steps > 0, "a cold run does BDD work");
        let warm = svc.check_instance("r2", &spec, &partial, true).unwrap();
        assert!(warm.cached);
        assert_eq!(warm.apply_steps, 0, "a full hit must do zero BDD work");
        assert_eq!(warm.verdict, cold.verdict);
        assert_eq!(warm.counterexample, cold.counterexample);
        assert_eq!(warm.rungs, cold.rungs, "cached rung records replay the cold run verbatim");
        assert_eq!(svc.cache_stats().full_hits, 1);
        assert!(svc.pool_stats().recycled > 0, "managers must be recycled, not dropped");
    }

    /// A cold served request reports every rung exactly as the parallel
    /// engine does, budget-exceeded rungs included.
    #[test]
    fn served_verdicts_match_the_parallel_engine() {
        // Five steps let 0,1,X finish and cut loc., oe and ie short, so
        // budget-exceeded rungs of both phases are compared too.
        let tight = CheckSettings { step_limit: Some(5), ..quick_settings() };
        let mut aborted = 0;
        for (settings, (spec, partial)) in [
            (quick_settings(), samples::completable_pair()),
            (quick_settings(), samples::detected_only_by_local()),
            (quick_settings(), samples::detected_only_by_input_exact()),
            (tight, samples::completable_pair()),
        ] {
            let svc = Service::new(ServiceConfig { settings, ..ServiceConfig::default() });
            let served = svc.check_instance("x", &spec, &partial, true).unwrap();
            assert!(!served.cached);
            let reference =
                ParallelChecker::new(svc.settings().clone(), 1).run(&spec, &partial).unwrap();
            assert_eq!(served.verdict, reference.verdict().as_str());
            assert_eq!(served.counterexample.as_ref(), reference.counterexample());
            assert_eq!(served.method.as_deref(), reference.deciding_method().map(Method::label));
            // Every rung field but the wall-clock time must agree.
            let timeless = |r: &RungRecord| RungRecord { wall_ms: 0, ..r.clone() };
            let want: Vec<RungRecord> =
                reference.stages.iter().map(RungRecord::from_stage).collect();
            assert_eq!(
                served.rungs.iter().map(timeless).collect::<Vec<_>>(),
                want.iter().map(timeless).collect::<Vec<_>>()
            );
            // Nothing was cached, so every rung's steps are fresh work.
            assert_eq!(served.apply_steps, want.iter().map(|r| r.apply_steps).sum::<u64>());
            aborted += want.iter().filter(|r| !r.finished).count();
        }
        assert!(aborted > 0, "the step limit must cut a rung short");
    }

    #[test]
    fn uncached_requests_bypass_the_cache_entirely() {
        let svc = quick_service();
        let (spec, partial) = samples::completable_pair();
        let a = svc.check_instance("a", &spec, &partial, false).unwrap();
        let b = svc.check_instance("b", &spec, &partial, false).unwrap();
        assert!(!a.cached && !b.cached);
        assert_eq!(a.apply_steps, b.apply_steps, "identical cold runs");
        let s = svc.cache_stats();
        assert_eq!((s.full_hits, s.cone_hits, s.entries), (0, 0, 0));
    }

    #[test]
    fn sequential_serve_speaks_the_protocol() {
        let svc = quick_service();
        let input = "\n{\"type\":\"ping\",\"id\":\"p\"}\n{\"type\":\"nope\"}\n{\"type\":\"shutdown\"}\n{\"type\":\"ping\",\"id\":\"after\"}\n";
        let mut out = Vec::new();
        let stats = svc.serve(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "ping, error, bye — nothing after shutdown:\n{text}");
        for line in &lines {
            protocol::validate_response_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        assert!(lines[0].contains("\"pong\""));
        assert!(lines[1].contains("\"error\""));
        assert!(lines[2].contains("\"bye\""));
        assert_eq!(stats, ServeStats { requests: 3, responses: 3, shutdown: true });
    }

    #[test]
    fn concurrent_serve_answers_every_request() {
        let settings = CheckSettings {
            dynamic_reordering: false,
            random_patterns: 50,
            ..CheckSettings::default()
        };
        let svc = Service::new(ServiceConfig { settings, max_jobs: 3, ..ServiceConfig::default() });
        let mut input = String::new();
        for i in 0..6 {
            input.push_str(&format!("{{\"type\":\"ping\",\"id\":\"p{i}\"}}\n"));
        }
        input.push_str("{\"type\":\"shutdown\"}\n");
        let mut out = Vec::new();
        let stats = svc.serve(input.as_bytes(), &mut out).unwrap();
        assert!(stats.shutdown);
        assert_eq!(stats.responses, 7, "six pongs and a bye");
        let text = String::from_utf8(out).unwrap();
        for line in text.lines() {
            protocol::validate_response_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        for i in 0..6 {
            assert!(text.contains(&format!("\"id\":\"p{i}\"")), "pong p{i} missing:\n{text}");
        }
        assert!(text.lines().last().unwrap().contains("\"bye\""));
    }

    #[test]
    fn inline_blif_checks_end_to_end() {
        let svc = quick_service();
        // Spec: f = (a & b) | c; implementation leaves ab undriven (boxed).
        let spec = ".model spec\\n.inputs a b c\\n.outputs f\\n.names a b ab\\n11 1\\n.names ab c f\\n1- 1\\n-1 1\\n.end";
        let imp = ".model imp\\n.inputs a b c\\n.outputs f\\n.names ab c f\\n1- 1\\n-1 1\\n.end";
        let line = format!(
            "{{\"type\":\"check\",\"id\":\"inline\",\"spec_blif\":\"{spec}\",\"impl_blif\":\"{imp}\"}}"
        );
        let Reply::Line(resp) = svc.handle_line(&line) else { panic!("expected a line") };
        protocol::validate_response_line(&resp).unwrap_or_else(|e| panic!("{e}: {resp}"));
        assert!(resp.contains("\"verdict\":\"no_error_found\""), "{resp}");
    }
}
