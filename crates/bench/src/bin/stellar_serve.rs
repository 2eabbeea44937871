//! `stellar_serve` — the resident exploration service.
//!
//! Reads line-oriented JSON requests on stdin and answers each with one
//! envelope-sealed line on stdout, backed by the content-addressed
//! design cache: identical and repeated queries are served in
//! microseconds instead of re-running the search. The process stays
//! resident, so the memory tier survives across requests and the durable
//! tier survives across restarts.
//!
//! A query is keyed once; both cache tiers hold the rendered entry, so a
//! hit copies those bytes into the response between the echoed id and
//! the seal — nothing is decoded or rendered again.
//!
//! Protocol (one JSON object per line):
//!
//! * `{"spec":"matmul","bounds":[4,4,4],"max_coeff":1}` — run (or
//!   serve) the search; optional `"id"` (echoed back), `"max_pes"`,
//!   `"keep"`. Response: a sealed `stellar-serve-v1` payload embedding
//!   the ranking + funnel as a `stellar-design-cache-v1` entry, plus
//!   `"cached"` telling whether the answer was served or computed.
//! * `{"cmd":"invalidate"}` — bump the cache generation nonce (the PR 3
//!   stale-report rule: every existing entry becomes stale at once).
//! * `{"cmd":"stats"}` — report cumulative cache accounting.
//! * `{"cmd":"shutdown"}` — exit cleanly (EOF does the same).
//!
//! Malformed lines — including ones that are not UTF-8 — produce a sealed
//! error response (echoing the line's `id` when one could be read); they
//! never kill the service. Exit code 2 is reserved for startup failures
//! (unusable cache directory or arguments).

use std::io::{BufRead, Write};

use stellar_bench::cache::{
    parse_serve_line, render_serve_entry, render_serve_error, serve_line_id, DesignCache,
    ServeCommand,
};
use stellar_bench::durable;
use stellar_bench::report;
use stellar_core::cache::QueryKey;

const USAGE: &str = "\
usage: stellar_serve [options]
      --cache-dir DIR  durable cache directory (default: STELLAR_CACHE_DIR,
                       then out/cache)
      --memory-only    no durable tier: cache only within this process";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cache_dir = report::cache_dir().unwrap_or_else(|| report::out_dir().join("cache"));
    let mut memory_only = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cache-dir" => match it.next() {
                Some(d) => cache_dir = d.into(),
                None => {
                    eprintln!("stellar_serve: --cache-dir expects a value\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--memory-only" => memory_only = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("stellar_serve: unknown argument {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let cache = if memory_only {
        DesignCache::in_memory(stellar_bench::cache::DEFAULT_CAPACITY)
    } else {
        match DesignCache::open(&cache_dir) {
            Ok(c) => c,
            Err(e) => {
                eprintln!(
                    "stellar_serve: cannot open cache at {}: {e}",
                    cache_dir.display()
                );
                std::process::exit(2);
            }
        }
    };
    eprintln!(
        "stellar_serve: ready (cache: {}, generation {})",
        cache
            .dir()
            .map_or_else(|| "memory-only".to_string(), |d| d.display().to_string()),
        cache.nonce()
    );

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().split(b'\n') {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("stellar_serve: stdin closed: {e}");
                break;
            }
        };
        if line.iter().all(u8::is_ascii_whitespace) {
            continue;
        }
        let response = respond(&cache, &line);
        if response.is_none() {
            break; // shutdown
        }
        let sealed = durable::seal(&response.unwrap_or_default());
        if writeln!(out, "{sealed}")
            .and_then(|()| out.flush())
            .is_err()
        {
            break; // client went away
        }
    }
}

/// Answers one protocol line; `None` means shut down.
fn respond(cache: &DesignCache, line: &[u8]) -> Option<String> {
    let Ok(line) = std::str::from_utf8(line) else {
        let id = serve_line_id(&String::from_utf8_lossy(line));
        return Some(render_serve_error(
            id.as_deref(),
            "request line is not valid UTF-8",
        ));
    };
    let cmd = match parse_serve_line(line) {
        Ok(c) => c,
        Err(e) => return Some(render_serve_error(serve_line_id(line).as_deref(), &e)),
    };
    Some(match cmd {
        ServeCommand::Shutdown => return None,
        ServeCommand::Stats => cache.stats().render_json(&cache.nonce()),
        ServeCommand::Invalidate => match cache.invalidate() {
            Ok(nonce) => format!(
                "{{\"schema\":\"{}\",\"invalidated\":true,\"nonce\":\"{nonce}\"}}",
                stellar_bench::cache::SERVE_SCHEMA
            ),
            Err(e) => render_serve_error(None, &format!("invalidate failed: {e}")),
        },
        ServeCommand::Query(req) => {
            let query = match req.to_query() {
                Ok(q) => q,
                Err(e) => return Some(render_serve_error(req.id.as_deref(), &e)),
            };
            let key = QueryKey::of(&query.func, &query.bounds, &query.opts);
            match cache.entry(&key, &query.func, &query.bounds, &query.opts) {
                Ok((entry, cached)) => render_serve_entry(req.id.as_deref(), cached, &entry),
                Err(e) => render_serve_error(req.id.as_deref(), &format!("search failed: {e}")),
            }
        }
    })
}
