//! DecodeEngine benchmark with an append-only perf trajectory.
//!
//! Measures spanning-forest decoding of a 10k-vertex connectivity sketch
//! along three one-shot paths:
//!
//! * **reference** — the pinned pre-kernel decoder
//!   ([`ForestSketch::decode_reference`]): per-cell indexed adds into
//!   freshly allocated lanes, a proxy detector built per group.
//! * **kernel ×1** — the bank-level batched group query
//!   ([`ForestSketch::decode_with`] at one thread): whole contiguous rows
//!   lane-summed into reused scratch, decoded in place.
//! * **kernel ×8** — the same kernel with the Boruvka group queries
//!   fanned across 8 scoped threads (clamped to the host's parallelism,
//!   so a single-core runner reports ≈ the ×1 number).
//!
//! plus a **read-heavy delta workload** — the steady-state serving shape:
//! small deltas trickle in while queries outnumber updates > 10:1. The
//! `fresh` row decodes from scratch on every query; the `cached` row
//! answers through a generation-keyed [`DecodeCache`], so repeat queries
//! are pure hits and the post-delta miss is one fresh decode. The
//! record's `groups_reused`/`groups_recomputed` fields always read 0;
//! they stay so every record in the file has the same schema.
//!
//! Every number is gated on **bit identity** before any clock starts:
//! the three one-shot paths must agree edge for edge, and the cached
//! workload must match a fresh decode at every query point.
//!
//! Results append one record per run to `BENCH_decode.json` (override
//! the path with `BENCH_DECODE_OUT`): git sha (+`-dirty` flag), UTC
//! date, per-config rows, and the derived speedups. The file is a JSON
//! array and is never truncated — CI uploads it as an artifact alongside
//! `BENCH_bank.json`, so the decode perf trajectory is recorded per
//! commit instead of living in scrollback.
//!
//! Method: per measurement, one warm-up run, then `RUNS` timed runs; the
//! reported number is the minimum (least-noise estimator).

use graph_sketches::ForestSketch;
use gs_sketch::par::DecodePlan;
use gs_sketch::{CellBanked, DecodeCache, EdgeUpdate, LinearSketch};
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

const RUNS: usize = 3;

/// Read-heavy workload shape: per delta round, `DELTA_LEN` updates then
/// `QUERIES` decodes — 100 queries against 8 updates, a 12.5:1 ratio.
const ROUNDS: usize = 4;
const DELTA_LEN: usize = 2;
const QUERIES: usize = 25;

/// Minimum wall time of `RUNS` runs of `f`, in nanoseconds.
fn time_ns(mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn churn(n: usize, len: usize) -> Vec<EdgeUpdate> {
    (0..len)
        .map(|i| {
            let u = (i * 13) % n;
            let v = (u + 1 + (i * 7) % (n - 1)) % n;
            EdgeUpdate {
                u,
                v,
                delta: if i % 5 == 0 { -1 } else { 1 },
            }
        })
        .filter(|up| up.u != up.v)
        .collect()
}

fn git_sha() -> String {
    let sha = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .is_some_and(|o| !o.stdout.is_empty());
    if dirty {
        format!("{sha}-dirty")
    } else {
        sha
    }
}

fn utc_date() -> String {
    Command::new("date")
        .args(["-u", "+%Y-%m-%dT%H:%M:%SZ"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| {
            let secs = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            format!("epoch:{secs}")
        })
}

/// Appends `record` to the JSON array in `path`, creating the array if
/// the file is missing or not in trajectory format. Existing records are
/// never modified or dropped.
fn append_record(path: &str, record: &str) {
    let prior = std::fs::read_to_string(path).unwrap_or_default();
    let trimmed = prior.trim();
    let json = if trimmed.starts_with('[') && trimmed.ends_with(']') {
        let body = trimmed[1..trimmed.len() - 1].trim_end();
        if body.is_empty() {
            format!("[\n{record}\n]\n")
        } else {
            format!("[{body},\n{record}\n]\n")
        }
    } else {
        format!("[\n{record}\n]\n")
    };
    std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
}

/// One pass of the read-heavy workload: per round, absorb one small
/// delta, then answer `QUERIES` queries. Returns total nanoseconds.
/// Restores the sketch's lane state afterwards (outside the clock) by
/// replaying every delta negated, so passes are measured on identical
/// measurement state. Counters and dirty bits keep advancing across
/// passes — exactly what the cache is keyed to tolerate.
fn read_heavy_pass(
    sketch: &mut ForestSketch,
    deltas: &[Vec<EdgeUpdate>],
    plan: &DecodePlan,
    cache: Option<&mut DecodeCache<graph_sketches::connectivity::Forest>>,
) -> f64 {
    let mut cache = cache;
    let t = Instant::now();
    for delta in deltas {
        sketch.absorb(delta);
        for _ in 0..QUERIES {
            match cache.as_deref_mut() {
                Some(c) => {
                    black_box(sketch.decode_cached(c, plan));
                }
                None => {
                    black_box(sketch.decode_with(plan));
                }
            }
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    let inverse: Vec<EdgeUpdate> = deltas
        .iter()
        .flatten()
        .map(|u| EdgeUpdate {
            u: u.u,
            v: u.v,
            delta: -u.delta,
        })
        .collect();
    sketch.absorb(&inverse);
    ns
}

fn main() {
    let n = 10_000;
    let updates = churn(n, 30_000);
    let seed = 0xDEC0;
    let mut sketch = ForestSketch::new(n, seed);
    sketch.absorb_batch(&updates);

    // Determinism gate: the three one-shot paths must agree edge for
    // edge before any of them is worth timing.
    let reference = sketch.decode_reference();
    let seq = sketch.decode_with(&DecodePlan::with_threads(1));
    let par8 = sketch.decode_with(&DecodePlan::with_threads(8));
    assert_eq!(
        reference.edges, seq.edges,
        "kernel decode drifted from the reference"
    );
    assert_eq!(seq.edges, par8.edges, "parallel decode drifted");

    let reference_ns = time_ns(|| {
        black_box(sketch.decode_reference());
    });
    let seq_ns = time_ns(|| {
        black_box(sketch.decode_with(&DecodePlan::with_threads(1)));
    });
    let par8_ns = time_ns(|| {
        black_box(sketch.decode_with(&DecodePlan::with_threads(8)));
    });

    // ---- read-heavy delta workload. The bulk-load dirty bits are
    // drained first so the measured state matches earlier records.
    sketch.drain_dirty();
    let plan = DecodePlan::with_threads(1);
    let deltas: Vec<Vec<EdgeUpdate>> = (0..ROUNDS)
        .map(|r| {
            (0..DELTA_LEN)
                .map(|i| {
                    let k = 31_000 + r * DELTA_LEN + i;
                    let u = (k * 13) % n;
                    let v = (u + 1 + (k * 7) % (n - 1)) % n;
                    EdgeUpdate { u, v, delta: 1 }
                })
                .filter(|up| up.u != up.v)
                .collect()
        })
        .collect();
    let delta_updates: usize = deltas.iter().map(Vec::len).sum();
    let queries = ROUNDS * QUERIES;

    // Identity gate: at the post-delta miss and on a repeat hit, the
    // cached answer must match a from-scratch decode edge for edge.
    {
        let mut cache = DecodeCache::with_disabled(false);
        for delta in &deltas {
            sketch.absorb(delta);
            let fresh = sketch.decode_with(&plan);
            assert_eq!(
                sketch.decode_cached(&mut cache, &plan).edges,
                fresh.edges,
                "cached decode drifted from fresh after a delta"
            );
            assert_eq!(
                sketch.decode_cached(&mut cache, &plan).edges,
                fresh.edges,
                "cache hit drifted from fresh"
            );
        }
        let inverse: Vec<EdgeUpdate> = deltas
            .iter()
            .flatten()
            .map(|u| EdgeUpdate {
                u: u.u,
                v: u.v,
                delta: -u.delta,
            })
            .collect();
        sketch.absorb(&inverse);
    }

    let mut fresh_ns = f64::INFINITY;
    for round in 0..=RUNS {
        let ns = read_heavy_pass(&mut sketch, &deltas, &plan, None);
        if round > 0 {
            fresh_ns = fresh_ns.min(ns);
        }
    }
    let mut cached_ns = f64::INFINITY;
    let mut cache_stats = (0u64, 0u64, 0u64, 0u64); // hits, misses, reused, recomputed
    for round in 0..=RUNS {
        let mut cache = DecodeCache::with_disabled(false);
        let ns = read_heavy_pass(&mut sketch, &deltas, &plan, Some(&mut cache));
        if round > 0 && ns < cached_ns {
            cached_ns = ns;
            cache_stats = (
                cache.hits(),
                cache.misses(),
                cache.groups_reused(),
                cache.groups_recomputed(),
            );
        }
    }

    let kernel_speedup = reference_ns / seq_ns;
    let parallel_speedup = reference_ns / par8_ns;
    let thread_speedup = seq_ns / par8_ns;
    let cached_speedup = fresh_ns / cached_ns;

    let (hits, misses, reused, recomputed) = cache_stats;
    let rows = format!(
        "      {{ \"config\": \"reference\", \"ns\": {reference_ns:.0} }},\n      \
         {{ \"config\": \"kernel-1thread\", \"ns\": {seq_ns:.0} }},\n      \
         {{ \"config\": \"kernel-8threads\", \"ns\": {par8_ns:.0} }},\n      \
         {{ \"config\": \"read-heavy-fresh\", \"ns\": {fresh_ns:.0}, \
         \"queries\": {queries}, \"delta_updates\": {delta_updates} }},\n      \
         {{ \"config\": \"read-heavy-cached\", \"ns\": {cached_ns:.0}, \
         \"queries\": {queries}, \"delta_updates\": {delta_updates}, \
         \"hits\": {hits}, \"misses\": {misses}, \
         \"groups_reused\": {reused}, \"groups_recomputed\": {recomputed} }}"
    );
    let record = format!(
        "  {{\n    \"sha\": \"{}\",\n    \"date\": \"{}\",\n    \"n\": {n},\n    \
         \"updates\": {},\n    \"forest_edges\": {},\n    \"cells\": {},\n    \
         \"host_parallelism\": {},\n    \"rows\": [\n{rows}\n    ],\n    \
         \"speedups\": {{ \"kernel\": {kernel_speedup:.2}, \
         \"threads\": {thread_speedup:.2}, \"total\": {parallel_speedup:.2}, \
         \"read_heavy_cached\": {cached_speedup:.1} }},\n    \
         \"bit_identical\": true\n  }}",
        git_sha(),
        utc_date(),
        updates.len(),
        reference.edges.len(),
        sketch.cell_count(),
        DecodePlan::auto().threads(),
    );
    // cargo runs benches with the package (not workspace) root as cwd;
    // anchor the default at the workspace root so the trajectory file is
    // the committed one.
    let out = std::env::var("BENCH_DECODE_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_decode.json").into());
    append_record(&out, &record);

    println!("== decode engine (10k-vertex connectivity sketch) ==");
    println!(
        "reference: {:>9.1} ms   kernel x1: {:>9.1} ms ({kernel_speedup:.2}x)   \
         kernel x8: {:>9.1} ms ({parallel_speedup:.2}x total, {thread_speedup:.2}x from threads)",
        reference_ns / 1e6,
        seq_ns / 1e6,
        par8_ns / 1e6,
    );
    println!(
        "read-heavy ({queries} queries : {delta_updates} updates): \
         fresh {:>9.1} ms   cached {:>9.1} ms ({cached_speedup:.1}x, \
         {hits} hits / {misses} misses, {reused} groups reused / {recomputed} recomputed)",
        fresh_ns / 1e6,
        cached_ns / 1e6,
    );
    println!("appended record to {out}");
}
