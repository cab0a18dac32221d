//! The `serve-mixed` workload: one client in a closed loop, talking JSONL
//! to [`Service::serve`] with the `bbec serve` defaults (`--max-jobs 1`,
//! cache 1024, pool 4, no sweep).

use crate::check::Observed;
use crate::pool::{draw, shuffle, Instance, Mix};
use crate::reference::{parse_rung, Reference, LADDER};
use crate::Sample;
use bbec_bdd::PoolStats;
use bbec_core::service::cache::CacheStats;
use bbec_core::service::{protocol, Service, ServiceConfig};
use bbec_core::{CheckSettings, Counterexample};
use bbec_trace::json::{self, ObjectWriter, Value};
use bbec_trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, BufRead, Read, Write};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::Instant;

/// The request stream of one round, as pool indices (a repeated index is
/// an exact resubmission). Per design: the clean carve first (a cold,
/// first-sight check), then the edits [`draw`] picks (cache writes and
/// dirty-cone re-checks);
/// every one of those is submitted once more at a seeded later point (a
/// full cache hit unless a budget ran out). Designs interleave by seed.
pub fn round(pool: &[Instance], reference: &Reference, seed: u64, mix: Mix) -> Vec<usize> {
    let designs = pool.iter().map(|i| i.design + 1).max().unwrap_or(0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queues: Vec<Vec<usize>> = Vec::new();
    for d in 0..designs {
        let mut picked = draw(pool, reference, d, mix, &mut rng);
        let clean = picked.remove(0);
        shuffle(&mut picked, &mut rng);
        // Popped from the back: the clean carve goes last into the vector.
        picked.push(clean);
        queues.push(picked);
    }
    let mut firsts = Vec::new();
    while queues.iter().any(|q| !q.is_empty()) {
        let live: Vec<usize> = (0..queues.len()).filter(|&d| !queues[d].is_empty()).collect();
        let d = live[rng.random_range(0..live.len())];
        firsts.push(queues[d].pop().expect("live queue"));
    }
    let mut stream: Vec<(usize, bool)> = firsts.iter().map(|&i| (i, false)).collect();
    for &i in &firsts {
        let at = stream.iter().position(|&e| e == (i, false)).expect("original is in the stream");
        let slot = rng.random_range(at + 1..=stream.len());
        stream.insert(slot, (i, true));
    }
    stream.into_iter().map(|(i, _)| i).collect()
}

/// A check request line with the instance inline and the request's own
/// step budget.
pub fn request_line(id: &str, inst: &Instance, step_limit: u64) -> String {
    let mut w = ObjectWriter::new();
    w.str("type", "check");
    w.str("id", id);
    w.str("spec_blif", &inst.spec);
    w.str("impl_blif", &inst.imp);
    w.u64("step_limit", step_limit);
    w.finish()
}

/// The `bbec serve` configuration: CLI defaults, tracing into `tracer`.
pub fn config(tracer: Tracer) -> ServiceConfig {
    ServiceConfig {
        settings: CheckSettings { tracer, ..CheckSettings::default() },
        ..ServiceConfig::default()
    }
}

/// Counters of one round's service.
pub struct ServiceCounters {
    pub cache: CacheStats,
    pub pool: PoolStats,
}

/// Runs one round against a fresh service: sends each request, waits for
/// its response, sends the next.
pub fn serve_round(
    requests: &[(usize, String)],
    config: ServiceConfig,
) -> Result<(Vec<Sample>, ServiceCounters), String> {
    let service = Service::new(config);
    let (req_tx, req_rx) = mpsc::channel::<String>();
    let (resp_tx, resp_rx) = mpsc::channel::<String>();
    let samples = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            service.serve(
                LineReader { rx: req_rx, buf: Vec::new(), pos: 0 },
                LineWriter { tx: resp_tx, buf: Vec::new() },
            )
        });
        let mut samples = Vec::with_capacity(requests.len());
        for (index, line) in requests {
            let start = Instant::now();
            if req_tx.send(line.clone()).is_err() {
                break;
            }
            let Ok(response) = resp_rx.recv() else { break };
            let latency_ms = start.elapsed().as_secs_f64() * 1e3;
            let parsed = parse_response(&response);
            let (cached, cones_rechecked, cold) =
                parsed.as_ref().map_or((false, 0, false), |p| (p.1, p.2, p.3));
            samples.push(Sample {
                index: *index,
                latency_ms,
                result: parsed.map(|p| p.0),
                cached,
                cones_rechecked,
                cold,
            });
        }
        drop(req_tx);
        let served = server.join().map_err(|_| "the service thread panicked".to_string())?;
        served.map_err(|e| format!("serve: {e}"))?;
        Ok::<_, String>(samples)
    })?;
    if samples.len() != requests.len() {
        return Err(format!(
            "the service answered {} of {} requests",
            samples.len(),
            requests.len()
        ));
    }
    Ok((samples, ServiceCounters { cache: service.cache_stats(), pool: service.pool_stats() }))
}

/// Reads a response line: the observed outcome, whether it was a full
/// cache hit, how many cones were re-checked, and whether it was a cold
/// check (no cone reused).
fn parse_response(line: &str) -> Result<(Observed, bool, u64, bool), String> {
    protocol::validate_response_line(line)?;
    let v = json::parse(line)?;
    if v.get("type").and_then(Value::as_str) != Some("result") {
        return Err(format!("error response: {line}"));
    }
    let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let flag = |v: &Value, key: &str| matches!(v.get(key), Some(Value::Bool(true)));
    let mut obs = Observed::default();
    for rung in v.get("rungs").and_then(Value::as_array).unwrap_or(&[]) {
        let method = rung
            .get("method")
            .and_then(Value::as_str)
            .and_then(parse_rung)
            .ok_or("unknown rung")?;
        if !flag(rung, "finished") {
            obs.aborted.push(method);
        }
        if let Some(k) = LADDER.iter().position(|&m| m == method) {
            obs.stats_ms[k] += num(rung, "wall_ms");
        }
    }
    if v.get("verdict").and_then(Value::as_str) == Some("error_found") {
        let method = v.get("method").and_then(Value::as_str).and_then(parse_rung);
        obs.error_rung = Some(method.ok_or("an error verdict names no rung")?);
        if let Some(cex) = v.get("counterexample") {
            let inputs = cex
                .get("inputs")
                .and_then(Value::as_array)
                .ok_or("counterexample without inputs")?;
            obs.counterexample = Some(Counterexample {
                inputs: inputs.iter().map(|b| b.as_f64() == Some(1.0)).collect(),
                output: cex.get("output").and_then(Value::as_f64).map(|o| o as usize),
            });
        }
    }
    let cached = flag(&v, "cached");
    let cold = !cached && num(&v, "cones_reused") == 0.0;
    Ok((obs, cached, num(&v, "cones_rechecked") as u64, cold))
}

/// The service's request stream: one line per channel message.
struct LineReader {
    rx: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for LineReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for LineReader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            // A closed channel reads as end of input.
            if let Ok(line) = self.rx.recv() {
                self.buf.extend_from_slice(line.as_bytes());
                self.buf.push(b'\n');
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// The service's response stream: each complete line goes to the client.
struct LineWriter {
    tx: Sender<String>,
    buf: Vec<u8>,
}

impl Write for LineWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        while let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=nl).collect();
            let text = String::from_utf8_lossy(&line[..nl]).into_owned();
            self.tx
                .send(text)
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "client gone"))?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
