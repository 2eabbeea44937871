//! `serve_hot` and `serve_churn`: the real `stellar_serve` binary as a child
//! process with its cache directory under `benchmark/out`, one client, one
//! request in flight.
//!
//! `serve_hot` keeps 64 keys resident and draws Zipf(1.1) over them, so
//! every timed request is a memory-tier hit. `serve_churn` runs generations
//! of 70 % unseen keys, 25 % recent and 5 % old repeats behind an
//! invalidate, more keys than the memory tier holds, and restarts the
//! service once half-way so the rest of that generation is served from the
//! durable tier. One iteration is one batch (hot) or one generation
//! (churn). Responses are checked after each iteration's timed loop, and
//! that time is left out of its wall time.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::adapters::{self, ReplayKind, ServeReplay};
use crate::gen::{self, Rng, ServeKey, ServeOp, Zipf};
use crate::host::{self, Usage};
use crate::json;
use crate::run::{Checks, Iteration, Layers, Measured, RunArgs, Spans, Workload};
use crate::stats;
use crate::trace::Tracer;

const HOT_BATCH: usize = 5_000;
const HOT_BATCH_QUICK: usize = 1_000;
const HOT_WARMUP: usize = 2_000;
/// Batches the in-process replay makes at most: its spans stay in memory.
const REPLAY_BATCHES: usize = 30;
/// Durable writes `serve_churn`'s traced run times to price a store.
const STORE_PROBES: usize = 40;

/// A running `stellar_serve`. Dropping it kills and reaps the child if it
/// was not shut down.
struct Service {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    /// Query responses this incarnation has given.
    answered: u64,
}

impl Service {
    fn spawn(dir: &Path) -> Result<Service, String> {
        let exe = host::repo_binary("stellar_serve")?;
        let mut child = Command::new(&exe)
            .arg("--cache-dir")
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let stdin = child.stdin.take().ok_or("no stdin pipe")?;
        let stdout = BufReader::new(child.stdout.take().ok_or("no stdout pipe")?);
        Ok(Service {
            child,
            stdin,
            stdout,
            answered: 0,
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends one newline-terminated line (in one write, so the service wakes
    /// once) and reads the one-line reply into `reply`.
    fn request(&mut self, line: &str, reply: &mut String) -> Result<(Instant, Instant), String> {
        debug_assert!(line.ends_with('\n'));
        reply.clear();
        let start = Instant::now();
        self.stdin
            .write_all(line.as_bytes())
            .map_err(|e| format!("service stdin: {e}"))?;
        let n = self
            .stdout
            .read_line(reply)
            .map_err(|e| format!("service stdout: {e}"))?;
        let end = Instant::now();
        if n == 0 {
            return Err("service closed its output".to_string());
        }
        Ok((start, end))
    }

    /// The service's own accounting: `(hits, misses, disk_hits, evictions)`.
    fn stats(&mut self) -> Result<[u64; 4], String> {
        let mut reply = String::new();
        self.request("{\"cmd\":\"stats\"}\n", &mut reply)?;
        let v = json::parse(adapters::unseal_line(&reply)?)?;
        let field = |k: &str| v.get(k).and_then(json::Value::as_f64).map(|x| x as u64);
        match (
            field("hits"),
            field("misses"),
            field("disk_hits"),
            field("evictions"),
        ) {
            (Some(h), Some(m), Some(d), Some(e)) => Ok([h, m, d, e]),
            _ => Err(format!("stats reply lacks a counter: {}", reply.trim_end())),
        }
    }

    /// Asks the service to exit, waits for it, and returns its CPU time and
    /// peak memory as they stood just before.
    fn shutdown(mut self) -> Result<Usage, String> {
        let usage = host::usage_of_pid(self.pid());
        self.stdin
            .write_all(b"{\"cmd\":\"shutdown\"}\n")
            .map_err(|e| format!("service stdin: {e}"))?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("stellar_serve exited with {status}"));
        }
        Ok(usage)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What a query response must say.
pub struct Expect<'a> {
    pub id: u64,
    pub cached: bool,
    /// The entry the miss that created this key returned, for a hit.
    pub entry: Option<&'a str>,
}

/// Checks one sealed query response and returns its `entry` text: the
/// envelope unseals, the id is echoed, `cached` is as expected, and a hit's
/// entry is byte-identical to the miss that created it.
pub fn verify_response<'a>(line: &'a str, expect: &Expect<'_>) -> Result<&'a str, String> {
    let payload = adapters::unseal_line(line)?;
    let at = payload
        .find(",\"entry\":")
        .ok_or("response carries no entry")?;
    let head = json::parse(&format!("{}}}", &payload[..at]))?;
    let want_id = format!("q{}", expect.id);
    if head.get("id").and_then(json::Value::as_str) != Some(want_id.as_str()) {
        return Err(format!(
            "response to {want_id} echoes id {:?}",
            head.get("id")
        ));
    }
    if head.get("cached").and_then(json::Value::as_bool) != Some(expect.cached) {
        return Err(format!("{want_id}: cached is not {}", expect.cached));
    }
    let entry = payload[at + ",\"entry\":".len()..]
        .strip_suffix('}')
        .ok_or("response is not an object")?;
    match expect.entry {
        Some(first) if first != entry => Err(format!(
            "{want_id}: a hit's entry differs from the miss that created it"
        )),
        _ => Ok(entry),
    }
}

fn scratch_name(workload: &str) -> String {
    format!("{workload}-{}", std::process::id())
}

fn remove_scratch(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

// -------------------------------------------------------------- serve_hot

pub struct Hot {
    service: Service,
    dir: PathBuf,
    keys: Vec<ServeKey>,
    /// Each key's entry, from the miss that created it.
    entries: Vec<String>,
    zipf: Zipf,
    rng: Rng,
    batch: usize,
    next_id: u64,
    replies: Vec<String>,
    p50s: Vec<f64>,
    response_bytes: f64,
}

impl Hot {
    /// Sends `count` Zipf-drawn queries and returns what was asked, with
    /// the replies left in `self.replies`. Popularity rank `r` is key
    /// `r + n` in batch `n`: skewed within a batch, while over a run every
    /// key takes every rank, so the cost of the key a seed happened to make
    /// most popular (responses differ by up to half in size) averages out.
    fn batch(&mut self, count: usize, n: u64, tr: &mut Tracer) -> Result<Batch, String> {
        let keys = self.keys.len();
        let asked: Vec<(u64, usize)> = (0..count)
            .map(|i| {
                (
                    self.next_id + i as u64,
                    (self.zipf.sample(&mut self.rng) + n as usize) % keys,
                )
            })
            .collect();
        self.next_id += count as u64;
        let lines: Vec<String> = asked
            .iter()
            .map(|(id, k)| self.keys[*k].line(*id) + "\n")
            .collect();
        self.replies.resize_with(count, String::new);
        let mut replies = std::mem::take(&mut self.replies);
        let mut latencies_us = Vec::with_capacity(count);
        let service = &mut self.service;
        let t0 = Instant::now();
        for (line, reply) in lines.iter().zip(replies.iter_mut()) {
            let (start, end) = service.request(line, reply)?;
            tr.record("serve.roundtrip", n, start, end);
            latencies_us.push((end - start).as_secs_f64() * 1e6);
        }
        let looped = t0.elapsed();
        service.answered += count as u64;
        self.replies = replies;
        Ok(Batch {
            asked,
            latencies_us,
            looped,
        })
    }
}

/// One batch sent: `(request id, key index)` of every query, each one's
/// latency, and the time the request loop took.
struct Batch {
    asked: Vec<(u64, usize)>,
    latencies_us: Vec<f64>,
    looped: Duration,
}

impl Workload for Hot {
    fn setup(args: &RunArgs, tr: &mut Tracer) -> Result<Hot, String> {
        // With one request in flight, client and service never run at the
        // same time. On two CPUs every request then pays two cross-CPU
        // wake-ups, which a hypervisor stretches from 5 us to 500 us at
        // will: most of the measurement, and none of it the program's. On
        // one CPU a request is two context switches.
        host::pin_to_one_cpu();
        let dir = host::fresh_scratch(&scratch_name("serve_hot")).map_err(|e| e.to_string())?;
        let mut w = Hot {
            service: Service::spawn(&dir)?,
            dir,
            keys: gen::hot_keys(args.seed),
            entries: Vec::new(),
            zipf: Zipf::new(gen::HOT_KEYS, gen::HOT_ZIPF_S),
            rng: Rng::new(args.seed, "serve_hot.script"),
            batch: if args.quick {
                HOT_BATCH_QUICK
            } else {
                HOT_BATCH
            },
            next_id: 0,
            replies: Vec::new(),
            p50s: Vec::new(),
            response_bytes: 0.0,
        };
        // Warm every key: each first answer is a miss whose entry later hits
        // must repeat byte for byte.
        let mut reply = String::new();
        for k in 0..w.keys.len() {
            let id = w.next_id;
            w.next_id += 1;
            let line = w.keys[k].line(id) + "\n";
            w.service.request(&line, &mut reply)?;
            let expect = Expect {
                id,
                cached: false,
                entry: None,
            };
            w.entries
                .push(verify_response(&reply, &expect)?.to_string());
        }
        w.service.answered += w.keys.len() as u64;
        let warmup = HOT_WARMUP.min(w.batch);
        w.batch(warmup, 0, tr)?;
        Ok(w)
    }

    fn measured(&self) -> Measured {
        Measured::Child(self.service.pid())
    }

    fn iterate(
        &mut self,
        n: u64,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<Iteration, String> {
        let t0 = Instant::now();
        let Batch {
            asked,
            latencies_us,
            looped,
        } = self.batch(self.batch, n, tr)?;
        let mut bytes = 0u64;
        for ((id, k), reply) in asked.iter().zip(&self.replies) {
            bytes += reply.len() as u64;
            let expect = Expect {
                id: *id,
                cached: true,
                entry: Some(&self.entries[*k]),
            };
            checks.verdict(verify_response(reply, &expect).map(|_| ()));
        }
        self.p50s.push(stats::median(&latencies_us));
        self.response_bytes = bytes as f64 / asked.len() as f64;
        Ok(Iteration {
            work: asked.len() as f64,
            output_bytes: bytes,
            excluded: t0.elapsed().saturating_sub(looped),
            latencies_us,
        })
    }

    fn final_checks(&mut self, checks: &mut Checks) -> Result<(), String> {
        let answered = self.service.answered;
        let [hits, misses, ..] = self.service.stats()?;
        let keys = self.keys.len() as u64;
        checks.check(misses == keys && hits + misses == answered, || {
            format!("service counted {hits} hits and {misses} misses for {answered} queries over {keys} keys")
        });
        Ok(())
    }

    fn layers(
        &mut self,
        _args: &RunArgs,
        budget: Duration,
        _spans: &Spans,
        tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<(), String> {
        // The same script replayed in-process through the library's public
        // functions, one span per call.
        let dir =
            host::fresh_scratch(&scratch_name("serve_hot-replay")).map_err(|e| e.to_string())?;
        let replay = ServeReplay::open(&dir)?;
        tr.set_enabled(false);
        for (k, key) in self.keys.iter().enumerate() {
            replay.respond(&key.line(k as u64), k as u64, tr);
        }
        tr.set_enabled(true);
        let names = [
            "serve.request",
            "bench.cache.parse",
            "core.cache.key",
            "bench.cache.hit",
            "bench.cache.render",
            "bench.durable.seal",
        ];
        let mut per_batch: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
        let mut rng = Rng::new(0, "serve_hot.replay");
        let started = Instant::now();
        let mut id = 0u64;
        while (started.elapsed() < budget && per_batch[0].len() < REPLAY_BATCHES)
            || per_batch[0].is_empty()
        {
            let mark = tr.mark();
            let shift = per_batch[0].len();
            for _ in 0..self.batch {
                id += 1;
                let line =
                    self.keys[(self.zipf.sample(&mut rng) + shift) % self.keys.len()].line(id);
                let (sealed, kind) = replay.respond(&line, id, tr);
                std::hint::black_box(sealed);
                if kind
                    != (ReplayKind::Query {
                        cached: true,
                        disk: false,
                    })
                {
                    return Err(format!("replayed hot query {id} was {kind:?}"));
                }
            }
            let totals = tr.totals_since(mark);
            for (name, samples) in names.iter().zip(per_batch.iter_mut()) {
                let t = totals.get(name).copied().unwrap_or_default();
                samples.push(t.self_ns as f64 / 1e3 / t.count.max(1) as f64);
            }
        }
        drop(replay);
        remove_scratch(&dir)?;
        let us: Vec<f64> = per_batch.iter().map(|s| stats::median(s)).collect();
        out.insert("bench.cache.parse_us", us[1]);
        out.insert("core.cache.key_us", us[2]);
        out.insert("bench.cache.hit_us", us[3]);
        out.insert("bench.cache.render_us", us[4]);
        out.insert("bench.durable.seal_us", us[5]);
        out.insert(
            "serve.io_us",
            stats::median(&self.p50s) - us.iter().sum::<f64>(),
        );
        out.insert("serve.response_bytes", self.response_bytes);
        out.insert("bench.cache.hit_share", 1.0);
        Ok(())
    }

    fn teardown(self) -> Result<(), String> {
        self.service.shutdown()?;
        remove_scratch(&self.dir)
    }
}

// ------------------------------------------------------------ serve_churn

pub struct Churn {
    service: Option<Service>,
    dir: PathBuf,
    rng: Rng,
    next_id: u64,
    /// Keys seen in the current generation, with the entry their miss gave.
    seen: HashMap<ServeKey, String>,
    exited: Usage,
    /// `(hits, misses, disk_hits, evictions)` of incarnations that exited.
    exited_stats: [u64; 4],
    restart_after: Duration,
    timed_since: Option<Instant>,
    restarted: bool,
    quick: bool,
    generations: u64,
    replies: Vec<String>,
}

impl Churn {
    fn service(&mut self) -> Result<&mut Service, String> {
        self.service
            .as_mut()
            .ok_or_else(|| "service is not running".to_string())
    }

    /// Stops the service and starts it again on the same cache directory.
    fn restart(&mut self, checks: &mut Checks) -> Result<(), String> {
        let mut old = self.service.take().ok_or("service is not running")?;
        let stats = old.stats()?;
        let answered = old.answered;
        checks.check(stats[0] + stats[1] == answered, || {
            format!(
                "before restart: {} hits + {} misses != {answered} queries",
                stats[0], stats[1]
            )
        });
        for (sum, s) in self.exited_stats.iter_mut().zip(stats) {
            *sum += s;
        }
        let usage = old.shutdown()?;
        self.exited.cpu += usage.cpu;
        self.exited.peak_rss_mib = self.exited.peak_rss_mib.max(usage.peak_rss_mib);
        self.service = Some(Service::spawn(&self.dir)?);
        self.restarted = true;
        Ok(())
    }

    /// The mean size of the entries this generation's misses stored.
    fn entry_bytes(&self) -> usize {
        let total: usize = self.seen.values().map(String::len).sum();
        total / self.seen.len().max(1)
    }

    fn due_for_restart(&self, n: u64) -> bool {
        if self.restarted {
            return false;
        }
        match self.timed_since {
            Some(_) if self.quick => n >= 1,
            Some(t) => t.elapsed() >= self.restart_after,
            None => false,
        }
    }
}

impl Workload for Churn {
    fn setup(args: &RunArgs, tr: &mut Tracer) -> Result<Churn, String> {
        if gen::churn_cells().len() <= adapters::MEMORY_TIER_CAPACITY {
            return Err(
                "a churn generation must hold more keys than the service's memory tier".to_string(),
            );
        }
        let dir = host::fresh_scratch(&scratch_name("serve_churn")).map_err(|e| e.to_string())?;
        // Half-way through the timed loop.
        let loop_share = if args.traced {
            Self::TRACED_LOOP_SHARE / 2.0
        } else {
            0.5
        };
        let mut w = Churn {
            service: Some(Service::spawn(&dir)?),
            dir,
            rng: Rng::new(args.seed, "serve_churn.script"),
            next_id: 0,
            seen: HashMap::new(),
            exited: Usage::default(),
            exited_stats: [0; 4],
            restart_after: Duration::from_secs_f64(args.seconds * loop_share),
            timed_since: None,
            restarted: false,
            quick: args.quick,
            generations: 0,
            replies: Vec::new(),
        };
        w.iterate(0, tr, &mut Checks::default())?;
        w.generations = 0;
        w.timed_since = Some(Instant::now());
        Ok(w)
    }

    fn measured(&self) -> Measured {
        self.service
            .as_ref()
            .map_or(Measured::This, |s| Measured::Child(s.pid()))
    }

    fn exited(&self) -> Usage {
        self.exited
    }

    fn iterate(
        &mut self,
        n: u64,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<Iteration, String> {
        let t0 = Instant::now();
        let mut ops = gen::churn_generation(&mut self.rng);
        if self.quick {
            ops.truncate(ops.len() / 4);
        }
        let restart_at = self.due_for_restart(n).then_some(ops.len() / 2);
        let first_id = self.next_id;
        self.next_id += ops.len() as u64;
        let lines: Vec<String> = ops
            .iter()
            .zip(first_id..)
            .map(|(op, id)| match op {
                ServeOp::Query(k) => k.line(id) + "\n",
                ServeOp::Invalidate => "{\"cmd\":\"invalidate\"}\n".to_string(),
            })
            .collect();
        self.replies.resize_with(ops.len(), String::new);
        let mut replies = std::mem::take(&mut self.replies);
        let mut latencies_us = Vec::with_capacity(ops.len());
        let t_loop = Instant::now();
        for (i, (line, reply)) in lines.iter().zip(replies.iter_mut()).enumerate() {
            if restart_at == Some(i) {
                let t_restart = Instant::now();
                self.restart(checks)?;
                tr.record("serve.restart", n, t_restart, Instant::now());
            }
            let service = self.service()?;
            let (start, end) = service.request(line, reply)?;
            tr.record("serve.roundtrip", n, start, end);
            if matches!(ops[i], ServeOp::Query(_)) {
                service.answered += 1;
                latencies_us.push((end - start).as_secs_f64() * 1e6);
            }
        }
        let looped = t_loop.elapsed();

        let mut bytes = 0u64;
        for ((op, id), reply) in ops.iter().zip(first_id..).zip(&replies) {
            bytes += reply.len() as u64;
            match op {
                ServeOp::Invalidate => {
                    self.seen.clear();
                    let ok = adapters::unseal_line(reply)
                        .is_ok_and(|p| p.contains("\"invalidated\":true"));
                    checks.check(ok, || {
                        format!("invalidate was answered with {}", reply.trim_end())
                    });
                }
                ServeOp::Query(key) => {
                    let first = self.seen.get(key).map(String::as_str);
                    let expect = Expect {
                        id,
                        cached: first.is_some(),
                        entry: first,
                    };
                    match verify_response(reply, &expect) {
                        Ok(entry) if first.is_none() => {
                            self.seen.insert(key.clone(), entry.to_string());
                            checks.check(true, String::new);
                        }
                        r => checks.verdict(r.map(|_| ())),
                    }
                }
            }
        }
        self.replies = replies;
        self.generations += 1;
        Ok(Iteration {
            work: latencies_us.len() as f64,
            output_bytes: bytes,
            excluded: t0.elapsed().saturating_sub(looped),
            latencies_us,
        })
    }

    fn final_checks(&mut self, checks: &mut Checks) -> Result<(), String> {
        let answered = self.service()?.answered;
        let [hits, misses, ..] = self.service()?.stats()?;
        checks.check(hits + misses == answered, || {
            format!("service counted {hits} hits + {misses} misses for {answered} queries")
        });
        checks.check(self.restarted, || {
            "the service was never restarted".to_string()
        });
        Ok(())
    }

    fn layers(
        &mut self,
        _args: &RunArgs,
        budget: Duration,
        _spans: &Spans,
        tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<(), String> {
        let live = self.service()?.stats()?;
        let total: Vec<f64> = self
            .exited_stats
            .iter()
            .zip(live)
            .map(|(a, b)| (a + b) as f64)
            .collect();
        let queries = (total[0] + total[1]).max(1.0);
        out.insert("bench.cache.hit_share", total[0] / queries);
        out.insert("bench.cache.disk_hit_share", total[2] / queries);
        out.insert(
            "bench.cache.evictions",
            total[3] / self.generations.max(1) as f64,
        );

        // Generations replayed in-process, one span per library call.
        let dir =
            host::fresh_scratch(&scratch_name("serve_churn-replay")).map_err(|e| e.to_string())?;
        let replay = ServeReplay::open(&dir)?;
        let names = [
            "bench.cache.miss",
            "bench.cache.disk_hit",
            "bench.cache.invalidate",
            "bench.cache.parse",
            "core.cache.key",
            "bench.cache.render",
            "bench.durable.seal",
        ];
        let mut per_gen: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
        let mut rng = Rng::new(0, "serve_churn.replay");
        let started = Instant::now();
        let mut id = 0u64;
        while started.elapsed() < budget || per_gen[0].is_empty() {
            let mark = tr.mark();
            for op in gen::churn_generation(&mut rng) {
                id += 1;
                let line = match op {
                    ServeOp::Query(k) => k.line(id),
                    ServeOp::Invalidate => "{\"cmd\":\"invalidate\"}".to_string(),
                };
                std::hint::black_box(replay.respond(&line, id, tr));
            }
            let totals = tr.totals_since(mark);
            for (name, samples) in names.iter().zip(per_gen.iter_mut()) {
                if let Some(t) = totals.get(name) {
                    samples.push(t.self_ns as f64 / 1e3 / t.count as f64);
                }
            }
            if self.quick {
                break;
            }
        }
        drop(replay);
        // What the checkout's disk charges for one store, so that a change
        // of disk is not read as a change of code.
        let write_us = host::durable_write_us(&dir, self.entry_bytes(), STORE_PROBES)
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        remove_scratch(&dir)?;
        let us: Vec<f64> = per_gen.iter().map(|s| stats::median(s)).collect();
        out.insert("scratch.durable_write_us", write_us);
        if us[0] > 0.0 {
            out.insert("bench.cache.durable_write_share", write_us / us[0]);
        }
        out.insert("bench.cache.miss_us", us[0]);
        out.insert("bench.cache.disk_hit_us", us[1]);
        out.insert("bench.cache.invalidate_us", us[2]);
        out.insert("bench.cache.parse_us", us[3]);
        out.insert("core.cache.key_us", us[4]);
        out.insert("bench.cache.render_us", us[5]);
        out.insert("bench.durable.seal_us", us[6]);
        Ok(())
    }

    fn teardown(mut self) -> Result<(), String> {
        if let Some(s) = self.service.take() {
            s.shutdown()?;
        }
        remove_scratch(&self.dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(id: &str, cached: bool, entry: &str) -> String {
        adapters::seal_payload(&format!(
            "{{\"schema\":\"stellar-serve-v1\",\"id\":\"{id}\",\"cached\":{cached},\"entry\":{entry}}}"
        )) + "\n"
    }

    #[test]
    fn a_well_formed_response_passes_and_yields_its_entry() {
        let expect = Expect {
            id: 3,
            cached: false,
            entry: None,
        };
        assert_eq!(
            verify_response(&sealed("q3", false, "{\"a\":[1,2]}"), &expect),
            Ok("{\"a\":[1,2]}")
        );
    }

    #[test]
    fn every_way_a_response_can_be_wrong_is_caught() {
        let hit = |entry| Expect {
            id: 3,
            cached: true,
            entry,
        };
        let good = sealed("q3", true, "{\"a\":1}");
        assert!(verify_response(&good, &hit(Some("{\"a\":1}"))).is_ok());
        // The wrong id, the wrong cached flag, an entry unlike the miss's.
        assert!(verify_response(&sealed("q4", true, "{\"a\":1}"), &hit(None)).is_err());
        assert!(verify_response(&sealed("q3", false, "{\"a\":1}"), &hit(None)).is_err());
        assert!(verify_response(&good, &hit(Some("{\"a\":2}"))).is_err());
        // One flipped byte fails the envelope's checksum.
        assert!(verify_response(&good.replacen("\"a\":1", "\"a\":7", 1), &hit(None)).is_err());
        // An error response carries no entry.
        let error = adapters::seal_payload(
            "{\"schema\":\"stellar-serve-v1\",\"id\":\"q3\",\"error\":\"x\"}",
        );
        assert!(verify_response(&error, &hit(None)).is_err());
    }
}
