//! The generation-keyed decode cache, pinned end to end: cached answers
//! must be **bit-identical** to fresh decodes for every task, across
//! engine snapshots, after delta application, and straight through
//! lane-overflow poisoning — the cache only ever decides whether an
//! answer is recomputed, never what it is. The fresh-decode oracle is
//! the same code path with the cache disabled (`GS_NO_DECODE_CACHE=1`
//! in CI, `DecodeCache::with_disabled` here), so both modes run the
//! same assertions.

use graph_sketches::api::{SketchAnswer, SketchSpec, SketchTask};
use graph_sketches::{ForestSketch, SketchFile};
use gs_graph::gen;
use gs_sketch::par::DecodePlan;
use gs_sketch::{DecodeCache, EdgeUpdate, LinearSketch};
use gs_stream::engine::{EngineConfig, SketchEngine};
use gs_stream::GraphStream;

/// A churny update batch in each task's update convention (weighted
/// tasks get value-carrying updates, everything else unit churn).
fn updates_for(task: SketchTask, n: usize) -> Vec<EdgeUpdate> {
    match task {
        SketchTask::Mst | SketchTask::WeightedSparsify => (0..60)
            .flat_map(|i| {
                let (u, v, w) = (i % n, (i + 1 + i % (n - 1)) % n, 1 + (i * 7) % 60);
                let ins = EdgeUpdate::weighted(u, v, w as u64, 1);
                (u != v).then_some(ins).into_iter().chain(
                    (u != v && i % 3 == 0).then_some(EdgeUpdate::weighted(u, v, w as u64, -1)),
                )
            })
            .collect(),
        _ => {
            let g = gen::gnp(n, 0.35, 7 + task as u64);
            GraphStream::with_churn(&g, 220, 11 + task as u64).edge_updates()
        }
    }
}

#[test]
fn every_task_cached_decode_is_bit_identical_under_churn() {
    let plan = DecodePlan::with_threads(2);
    for task in SketchTask::ALL {
        let spec = SketchSpec::new(task, 14).with_eps(0.75).with_max_weight(64);
        let mut sketch = spec.build();
        let mut cache = DecodeCache::with_disabled(false);
        let updates = updates_for(task, 14);
        let per = updates.len().div_ceil(4).max(1);
        for chunk in updates.chunks(per) {
            sketch.absorb(chunk);
            let fresh = sketch.decode_with(&plan);
            // Recompute path: the chunk moved some bank's stamp.
            assert_eq!(sketch.decode_cached(&mut cache, &plan), fresh, "{task:?}");
            // Pure-hit path: nothing moved since.
            let hits = cache.hits();
            assert_eq!(sketch.decode_cached(&mut cache, &plan), fresh, "{task:?}");
            assert_eq!(cache.hits(), hits + 1, "{task:?} repeat query missed");
        }
        assert_eq!(cache.misses(), 4, "{task:?} chunk count vs misses");
        assert_eq!(cache.invalidations(), 3, "{task:?} stale memos discarded");
    }
}

#[test]
fn disabled_cache_is_the_oracle_for_every_task() {
    let plan = DecodePlan::with_threads(2);
    for task in SketchTask::ALL {
        let spec = SketchSpec::new(task, 12).with_eps(0.75).with_max_weight(64);
        let mut sketch = spec.build();
        let mut cache = DecodeCache::with_disabled(true);
        sketch.absorb(&updates_for(task, 12));
        let fresh = sketch.decode_with(&plan);
        for _ in 0..2 {
            assert_eq!(sketch.decode_cached(&mut cache, &plan), fresh, "{task:?}");
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 2), "{task:?}");
    }
}

#[test]
fn engine_cache_reuses_answers_across_snapshots() {
    let n = 16;
    let spec = SketchSpec::new(SketchTask::Connectivity, n).with_seed(21);
    let g = gen::gnp(n, 0.3, 5);
    let updates = GraphStream::with_churn(&g, 150, 9).edge_updates();
    let config = EngineConfig::new(4).with_workers(2).with_seed(spec.seed);
    let mut engine = SketchEngine::new(config, || spec.build());
    let mut cache: DecodeCache<SketchAnswer> = DecodeCache::with_disabled(false);
    let plan = DecodePlan::sequential();
    for chunk in updates.chunks(60) {
        engine.ingest(chunk);
        let cached = engine.answer_cached(&mut cache, &plan);
        assert_eq!(cached, engine.answer(&plan));
        // The second read between ingests never merges or decodes.
        let hits = cache.hits();
        assert_eq!(engine.answer_cached(&mut cache, &plan), cached);
        assert_eq!(cache.hits(), hits + 1);
    }
    // Draining the engine moves the counter key: the post-drain answer
    // is recomputed, and still matches the fresh read (empty engine).
    let misses = cache.misses();
    let _ = engine.delta_snapshot();
    let drained = engine.answer_cached(&mut cache, &plan);
    assert_eq!(drained, engine.answer(&plan));
    assert_eq!(cache.misses(), misses + 1);
    engine.seal();
}

#[test]
fn cache_survives_delta_apply_and_stays_fresh() {
    let n = 12;
    let spec = SketchSpec::new(SketchTask::Connectivity, n).with_seed(33);
    let g = gen::connected_gnp(n, 0.35, 17);
    let updates: Vec<EdgeUpdate> = g
        .edges()
        .iter()
        .map(|&(u, v, w)| EdgeUpdate {
            u,
            v,
            delta: w as i64,
        })
        .collect();
    let mid = updates.len() / 2;
    // The consumer holds the first half; the producer ships the second
    // half as a drained delta record.
    let mut consumer = SketchFile::new(spec, spec.build()).unwrap();
    consumer.state.absorb(&updates[..mid]);
    let mut producer = SketchFile::new(spec, spec.build()).unwrap();
    producer.state.absorb(&updates[mid..]);
    let delta = producer.delta_bytes();

    let plan = DecodePlan::sequential();
    let mut cache = DecodeCache::with_disabled(false);
    let before = consumer.state.decode_cached(&mut cache, &plan);
    assert_eq!(before, consumer.state.decode_with(&plan));
    // Applying the delta goes through the banks' mutators, so the memo
    // is invalidated and the recomputed answer reflects the full stream.
    consumer.apply_delta(&delta).unwrap();
    let invalidations = cache.invalidations();
    let after = consumer.state.decode_cached(&mut cache, &plan);
    assert_eq!(cache.invalidations(), invalidations + 1);
    assert_eq!(after, consumer.state.decode_with(&plan));
    match after {
        SketchAnswer::Connectivity { connected, .. } => {
            assert!(connected, "full stream spans a connected graph")
        }
        other => panic!("unexpected answer {other:?}"),
    }
}

#[test]
fn overflow_poison_invalidates_and_cached_matches_fresh() {
    let mut s = ForestSketch::new(8, 0xBAD);
    let mut cache = DecodeCache::with_disabled(false);
    let plan = DecodePlan::sequential();
    s.update_edge(0, 1, 1);
    let _ = s.decode_cached(&mut cache, &plan);
    // Two max-magnitude deltas on one edge wrap the i64 `w` counter:
    // the sketch is poisoned, and both updates advanced the generation.
    s.update_edge(3, 4, i64::MAX);
    s.update_edge(3, 4, i64::MAX);
    assert!(LinearSketch::lane_overflow(&s).is_some());
    let invalidations = cache.invalidations();
    let cached = s.decode_cached(&mut cache, &plan);
    assert_eq!(cache.invalidations(), invalidations + 1);
    // A poisoned measurement decodes deterministically over the wrapped
    // lanes; cached and fresh must still agree bit for bit.
    assert_eq!(cached.edges, s.decode_with(&plan).edges);
}

#[test]
fn unchanged_sketch_queries_do_zero_recompute_work() {
    let g = gen::connected_gnp(20, 0.25, 41);
    let mut s = ForestSketch::new(20, 43);
    for &(u, v, w) in g.edges() {
        s.update_edge(u, v, w as i64);
    }
    let mut cache = DecodeCache::with_disabled(false);
    let plan = DecodePlan::sequential();
    let first = s.decode_cached(&mut cache, &plan);
    let misses = cache.misses();
    // Zero touched rows since the memo was armed: repeat queries are
    // pure hits — no decode entered.
    for _ in 0..5 {
        assert_eq!(s.decode_cached(&mut cache, &plan).edges, first.edges);
    }
    assert_eq!(cache.hits(), 5);
    assert_eq!(cache.misses(), misses);
}
