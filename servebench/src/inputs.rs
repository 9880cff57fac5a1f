//! The three workloads and their inputs.
//!
//! Every input is generated from the benchmark's `--seed` through
//! `gs_workloads::GeneratorSpec` and encoded into protocol payloads
//! before any server starts, so no timing includes generation and the
//! same seed always yields byte-identical frames.

use graph_sketches::api::{SketchSpec, SketchTask};
use graph_sketches::{frame, SketchFile};
use gs_sketch::LinearSketch;
use gs_workloads::{GeneratorSpec, Trace};
use std::ops::Range;

/// Open-loop offered rate of `ingest-churn`, in updates per second:
/// about half the saturated single-connection rate measured when the
/// benchmark was written (see NOTES.md).
pub const CHURN_OFFERED_UPS: f64 = 40_000.0;
/// Blocks an `ingest-churn` run is split into.
pub const CHURN_BLOCKS: usize = 3;
/// Updates per `ingest-churn` frame.
pub const CHURN_BATCH: usize = 256;
/// Vertices of the `ingest-churn` and `query-mix` tenants.
pub const DASH_N: usize = 2048;
/// Updates `query-mix` preloads during set-up.
pub const MIX_PRELOAD: usize = 84_000;
/// Updates per `query-mix` ingest.
pub const MIX_BATCH: usize = 8;
/// Total `INGEST` frames per second connection A of `multi-tenant`
/// offers, round robin over its six tenants.
pub const MULTI_FRAMES_PER_SEC: f64 = 60.0;
/// Share of `--seconds` connection A of `multi-tenant` runs for.
pub const MULTI_INGEST_SHARE: f64 = 0.8;

/// Seed of every generated graph. The benchmark's `--seed` draws the
/// vertex labels and the sketch seeds, not the graphs: decode cost
/// depends on a graph's structure, and structure drawn per seed moved
/// the medians between runs by more than the benchmark's bounds.
const GRAPH_SEED: u64 = 0x5EB_E0C4;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One connectivity tenant under an open-loop update stream, then a
    /// saturated pass.
    IngestChurn,
    /// One preloaded connectivity tenant under a closed loop of small
    /// ingests and queries.
    QueryMix,
    /// Six small tenants of different tasks, raw batches and delta
    /// records on one connection, queries and checkpoints on another.
    MultiTenant,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::IngestChurn,
        Workload::QueryMix,
        Workload::MultiTenant,
    ];

    /// The workload's `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestChurn => "ingest-churn",
            Workload::QueryMix => "query-mix",
            Workload::MultiTenant => "multi-tenant",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one tenant's frames are encoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Encoding {
    /// `AGMSKU1` raw update batches, routed through the engine.
    Raw,
    /// `AGMSKD2` delta records, folded into the checkpoint base.
    Delta,
}

/// One `INGEST` payload and the slice of the tenant's trace it carries.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// The encoded payload.
    pub bytes: Vec<u8>,
    /// The trace updates it carries.
    pub updates: Range<usize>,
}

/// One tenant: its spec, the trace it replays, and the trace encoded as
/// frames.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantInput {
    /// Tenant name on the server.
    pub name: String,
    /// The sketch spec the tenant is created with.
    pub spec: SketchSpec,
    /// The generated update stream (and its generator).
    pub trace: Trace,
    /// The stream as `INGEST` payloads, in order.
    pub frames: Vec<Frame>,
    /// Leading frames sent during set-up (followed by one checkpoint).
    pub preload: usize,
    /// Frame encoding.
    pub encoding: Encoding,
}

impl TenantInput {
    /// Updates carried by the first `frames` frames.
    pub fn prefix_updates(&self, frames: usize) -> usize {
        if frames == 0 {
            0
        } else {
            self.frames[frames - 1].updates.end
        }
    }
}

/// SplitMix64 finalizer: derives independent seeds from the benchmark
/// seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Relabels a trace's vertices through a permutation drawn from
/// `seed` (Fisher–Yates over a SplitMix64 stream): the same graph and
/// update order under new vertex ids.
fn relabel(trace: &mut Trace, seed: u64) {
    let mut perm: Vec<usize> = (0..trace.n).collect();
    for i in (1..perm.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    for up in &mut trace.updates {
        up.u = perm[up.u];
        up.v = perm[up.v];
    }
}

/// Splits a trace into frames of `batch` updates.
fn frames_of(trace: &Trace, spec: &SketchSpec, batch: usize, encoding: Encoding) -> Vec<Frame> {
    let mut file = match encoding {
        Encoding::Raw => None,
        Encoding::Delta => Some(
            SketchFile::new(*spec, spec.build()).expect("a freshly built sketch matches its spec"),
        ),
    };
    let mut out = Vec::with_capacity(trace.updates.len().div_ceil(batch));
    let mut start = 0;
    while start < trace.updates.len() {
        let end = (start + batch).min(trace.updates.len());
        let chunk = &trace.updates[start..end];
        let bytes = match file.as_mut() {
            None => frame::encode_updates(chunk),
            Some(f) => {
                f.state.absorb(chunk);
                f.delta_bytes()
            }
        };
        out.push(Frame {
            bytes,
            updates: start..end,
        });
        start = end;
    }
    out
}

fn tenant(
    name: &str,
    task: SketchTask,
    generator: GeneratorSpec,
    seed: u64,
    batch: usize,
    preload: usize,
    encoding: Encoding,
) -> TenantInput {
    let mut trace = generator.generate();
    relabel(&mut trace, seed);
    let mut spec = SketchSpec::new(task, trace.n).with_seed(seed);
    if let GeneratorSpec::WeightChurn { max_weight, .. } = generator {
        spec = spec.with_max_weight(max_weight);
    }
    let frames = frames_of(&trace, &spec, batch, encoding);
    TenantInput {
        name: name.to_string(),
        spec,
        trace,
        frames,
        preload,
        encoding,
    }
}

/// Builds a workload's tenants for a run of `seconds` seconds. Traces
/// are long enough that no phase runs out of frames at several times
/// the rates measured when the benchmark was written.
pub fn build(workload: Workload, seed: u64, seconds: f64) -> Vec<TenantInput> {
    match workload {
        Workload::IngestChurn => {
            // 40% of the run at the offered rate and 30% saturated
            // (≈85k updates/s when written): 120k updates per second of
            // run leave room for a faster server. A tenant that runs out
            // ends its phase early.
            let want = (seconds * 120_000.0) as usize + 64 * CHURN_BATCH;
            let generator = GeneratorSpec::PowerLawChurn {
                n: DASH_N,
                attach: 4,
                churn: want / 2,
                seed: mix(GRAPH_SEED, 1),
            };
            vec![tenant(
                "churn",
                SketchTask::Connectivity,
                generator,
                mix(seed, 2),
                CHURN_BATCH,
                0,
                Encoding::Raw,
            )]
        }
        Workload::QueryMix => {
            // Preload, then up to 1000 closed-loop cycles per second.
            let want = MIX_PRELOAD + (seconds * 1000.0) as usize * MIX_BATCH;
            let generator = GeneratorSpec::PowerLawChurn {
                n: DASH_N,
                attach: 4,
                churn: want / 2,
                seed: mix(GRAPH_SEED, 3),
            };
            let mut t = tenant(
                "dash",
                SketchTask::Connectivity,
                generator,
                mix(seed, 4),
                MIX_BATCH,
                0,
                Encoding::Raw,
            );
            // Re-frame: the preload rides in 256-update frames, the
            // measured loop in MIX_BATCH-update frames.
            let pre = Trace {
                updates: t.trace.updates[..MIX_PRELOAD].to_vec(),
                ..t.trace.clone()
            };
            let mut frames = frames_of(&pre, &t.spec, CHURN_BATCH, Encoding::Raw);
            t.preload = frames.len();
            let rest = Trace {
                updates: t.trace.updates[MIX_PRELOAD..].to_vec(),
                ..t.trace.clone()
            };
            frames.extend(
                frames_of(&rest, &t.spec, MIX_BATCH, Encoding::Raw)
                    .into_iter()
                    .map(|f| Frame {
                        bytes: f.bytes,
                        updates: f.updates.start + MIX_PRELOAD..f.updates.end + MIX_PRELOAD,
                    }),
            );
            t.frames = frames;
            vec![t]
        }
        Workload::MultiTenant => {
            // Frames each tenant needs: its round-robin share of
            // connection A's schedule, plus the set-up gate frames.
            let per_tenant =
                (seconds * MULTI_INGEST_SHARE * MULTI_FRAMES_PER_SEC / 6.0).ceil() as usize + 4;
            let churn = |batch: usize| per_tenant * batch / 2 + 1;
            vec![
                tenant(
                    "mst",
                    SketchTask::Mst,
                    GeneratorSpec::WeightChurn {
                        n: 128,
                        p: 0.08,
                        max_weight: 64,
                        churn: churn(128),
                        seed: mix(GRAPH_SEED, 10),
                    },
                    mix(seed, 11),
                    128,
                    0,
                    Encoding::Raw,
                ),
                tenant(
                    "mincut",
                    SketchTask::MinCut,
                    GeneratorSpec::MinCutAdversary {
                        half: 12,
                        bridge: 3,
                        churn: churn(32),
                        seed: mix(GRAPH_SEED, 12),
                    },
                    mix(seed, 13),
                    32,
                    0,
                    Encoding::Raw,
                ),
                tenant(
                    "sparsify",
                    SketchTask::Sparsify,
                    GeneratorSpec::SparsifierAdversary {
                        n: 24,
                        blocks: 2,
                        p_in: 0.4,
                        p_out: 0.05,
                        churn: churn(32),
                        seed: mix(GRAPH_SEED, 14),
                    },
                    mix(seed, 15),
                    32,
                    0,
                    Encoding::Raw,
                ),
                tenant(
                    "kconn",
                    SketchTask::KConnect,
                    GeneratorSpec::PowerLawChurn {
                        n: 128,
                        attach: 3,
                        churn: churn(128),
                        seed: mix(GRAPH_SEED, 16),
                    },
                    mix(seed, 17),
                    128,
                    0,
                    Encoding::Raw,
                ),
                tenant(
                    "triangles",
                    SketchTask::Subgraphs,
                    GeneratorSpec::PowerLawChurn {
                        n: 64,
                        attach: 4,
                        churn: churn(64),
                        seed: mix(GRAPH_SEED, 18),
                    },
                    mix(seed, 19),
                    64,
                    0,
                    Encoding::Raw,
                ),
                tenant(
                    "conn-delta",
                    SketchTask::Connectivity,
                    GeneratorSpec::PowerLawChurn {
                        n: 512,
                        attach: 3,
                        churn: churn(256),
                        seed: mix(GRAPH_SEED, 20),
                    },
                    mix(seed, 21),
                    256,
                    0,
                    Encoding::Delta,
                ),
            ]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(tenants: &[TenantInput]) -> Vec<Vec<u8>> {
        tenants
            .iter()
            .flat_map(|t| {
                std::iter::once(t.spec.to_json().into_bytes())
                    .chain(t.frames.iter().map(|f| f.bytes.clone()))
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs_and_another_seed_differs() {
        for w in Workload::ALL {
            let a = bytes(&build(w, 7, 0.5));
            let b = bytes(&build(w, 7, 0.5));
            assert_eq!(a, b, "{} is not deterministic", w.name());
            let c = bytes(&build(w, 8, 0.5));
            assert_ne!(a, c, "{} ignores the seed", w.name());
        }
    }

    #[test]
    fn frames_cover_each_trace_in_order() {
        for w in Workload::ALL {
            for t in build(w, 3, 0.5) {
                let mut at = 0;
                for f in &t.frames {
                    assert_eq!(f.updates.start, at, "{} frames skip updates", t.name);
                    at = f.updates.end;
                }
                assert_eq!(at, t.trace.updates.len());
                assert_eq!(t.prefix_updates(t.frames.len()), at);
            }
        }
    }

    #[test]
    fn query_mix_preloads_exactly_its_preload() {
        let t = &build(Workload::QueryMix, 1, 0.5)[0];
        assert_eq!(t.prefix_updates(t.preload), MIX_PRELOAD);
        assert_eq!(t.frames[t.preload].updates.len(), MIX_BATCH);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
