//! The correctness gate: every verified `QUERY` answer must be
//! byte-identical to an offline `SketchSpec::build` → `absorb` →
//! `decode_with` of the same update prefix, and each verified answer is
//! scored against the exact `gs_graph` baseline of that prefix.

use crate::inputs::TenantInput;
use graph_sketches::api::{SketchAnswer, SketchSpec, SketchTask};
use graph_sketches::AnySketch;
use gs_graph::subgraph::Pattern;
use gs_graph::{cuts, stoer_wagner, Graph, UnionFind};
use gs_sketch::par::DecodePlan;
use gs_sketch::LinearSketch;
use gs_workloads::UpdateKind;
use serde::{Deserialize, Value};
use std::collections::BTreeMap;

/// Answers verified per tenant at most; beyond this an evenly spaced
/// subset (always including the last answer) is verified.
pub const MAX_CHECKS_PER_TENANT: usize = 120;

/// Random cuts the sparsifier audit tries.
const AUDIT_TRIALS: usize = 120;

/// One served answer to verify: the tenant, the frame counts it may
/// have seen (`lo..=hi`), and the payload bytes.
#[derive(Clone, Debug)]
pub struct Check {
    /// Index of the tenant in the workload's inputs.
    pub tenant: usize,
    /// Frames certainly applied when the query was sent.
    pub lo: u64,
    /// Frames at most applied when its answer arrived.
    pub hi: u64,
    /// The served answer payload.
    pub answer: Vec<u8>,
}

/// What verification found.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// Answers compared against an offline decode.
    pub verified: usize,
    /// Human-readable mismatches; each is a failed operation.
    pub mismatches: Vec<String>,
    /// Verified answers scored against the exact baseline.
    pub scored: usize,
    /// Scored answers inside the task's guarantee.
    pub within: usize,
    /// Per tenant: `(scored, within)`.
    pub per_tenant: BTreeMap<String, (usize, usize)>,
}

/// The offline twin of one tenant: a sketch absorbing the trace prefix
/// and the exact multigraph of the same prefix.
struct Offline<'a> {
    input: &'a TenantInput,
    sketch: AnySketch,
    applied: usize,
    /// Net count per `(u, v, weight)`; weight is 1 for unit traces.
    edges: BTreeMap<(usize, usize, u64), i64>,
}

impl<'a> Offline<'a> {
    fn new(input: &'a TenantInput) -> Self {
        Offline {
            input,
            sketch: input.spec.build(),
            applied: 0,
            edges: BTreeMap::new(),
        }
    }

    fn advance(&mut self, prefix: usize) {
        let ups = &self.input.trace.updates[self.applied..prefix];
        self.sketch.absorb(ups);
        let weighted = self.input.trace.kind == UpdateKind::Weighted;
        for up in ups {
            let (w, sign) = if weighted {
                (up.weight(), up.sign())
            } else {
                (1, up.delta)
            };
            let key = (up.u.min(up.v), up.u.max(up.v), w);
            let c = self.edges.entry(key).or_insert(0);
            *c += sign;
            if *c == 0 {
                self.edges.remove(&key);
            }
        }
        self.applied = prefix;
    }

    fn answer(&self) -> String {
        self.sketch.decode_with(&DecodePlan::sequential()).to_json()
    }

    /// The exact graph of the prefix, as `Trace::materialize` builds it:
    /// multiplicity (or copies × weight) is the edge weight. Prefixes of
    /// generated traces never go negative.
    fn graph(&self) -> Graph {
        let mut g = Graph::new(self.input.trace.n);
        for (&(u, v, w), &c) in &self.edges {
            g.add_edge(u, v, w * c.max(0) as u64);
        }
        g
    }

    /// Exact minimum spanning forest weight of the prefix, with every
    /// live `(pair, weight)` copy a separate candidate edge: mid-stream a
    /// decoy copy and the real edge coexist as parallel edges.
    fn msf_weight(&self) -> u64 {
        let mut uf = UnionFind::new(self.input.trace.n);
        let mut edges: Vec<(u64, usize, usize)> =
            self.edges.keys().map(|&(u, v, w)| (w, u, v)).collect();
        edges.sort_unstable();
        edges
            .into_iter()
            .filter(|&(_, u, v)| uf.union(u, v))
            .map(|(w, _, _)| w)
            .sum()
    }
}

/// Keeps at most [`MAX_CHECKS_PER_TENANT`] evenly spaced checks (the
/// last always kept).
fn thin(checks: Vec<Check>) -> Vec<Check> {
    let n = checks.len();
    if n <= MAX_CHECKS_PER_TENANT {
        return checks;
    }
    let keep = MAX_CHECKS_PER_TENANT;
    let picks: std::collections::BTreeSet<usize> =
        (0..keep).map(|i| (i * (n - 1)) / (keep - 1)).collect();
    checks
        .into_iter()
        .enumerate()
        .filter(|(i, _)| picks.contains(i))
        .map(|(_, c)| c)
        .collect()
}

/// Verifies served answers against offline decodes, then scores them.
pub fn verify(tenants: &[TenantInput], checks: Vec<Check>) -> Verdict {
    let mut by_tenant: Vec<Vec<Check>> = vec![Vec::new(); tenants.len()];
    for c in checks {
        by_tenant[c.tenant].push(c);
    }
    let mut verdict = Verdict::default();
    for (input, mut checks) in tenants.iter().zip(by_tenant) {
        // A tenant's answers were served in order, so their states are
        // non-decreasing; sorting by the window keeps that order.
        checks.sort_by_key(|c| (c.lo, c.hi));
        let mut off = Offline::new(input);
        let mut applied_frames = 0u64;
        let (mut scored, mut within) = (0, 0);
        for c in thin(checks) {
            verdict.verified += 1;
            let lo = c.lo.max(applied_frames);
            let mut matched = false;
            for frames in lo..=c.hi.max(lo) {
                let prefix = input.prefix_updates(frames as usize);
                off.advance(prefix);
                applied_frames = frames;
                if off.answer().as_bytes() == c.answer.as_slice() {
                    matched = true;
                    break;
                }
            }
            if !matched {
                verdict.mismatches.push(format!(
                    "{}: answer after frames {}..={} differs from the offline decode",
                    input.name, c.lo, c.hi
                ));
                continue;
            }
            let Some(answer) = Value::from_json(&String::from_utf8_lossy(&c.answer))
                .ok()
                .and_then(|v| SketchAnswer::from_value(&v).ok())
            else {
                verdict
                    .mismatches
                    .push(format!("{}: answer is not SketchAnswer JSON", input.name));
                continue;
            };
            scored += 1;
            within += within_guarantee(&input.spec, &off, &answer) as usize;
        }
        verdict.scored += scored;
        verdict.within += within;
        verdict
            .per_tenant
            .insert(input.name.clone(), (scored, within));
    }
    verdict
}

/// Whether an answer is inside its task's guarantee on the exact graph
/// of the offline twin's prefix: exact verdicts for connectivity and k-connectivity, relative
/// error ≤ ε for min cut, worst random-cut error ≤ ε for sparsifiers,
/// additive γ error ≤ ε for subgraph fractions, and weight within
/// `(1+ε)` of the exact minimum spanning forest.
fn within_guarantee(spec: &SketchSpec, off: &Offline, answer: &SketchAnswer) -> bool {
    if let (SketchTask::Mst, SketchAnswer::Msf { total_weight, .. }) = (spec.task, answer) {
        let exact = off.msf_weight() as f64;
        let approx = *total_weight as f64;
        return approx >= exact * 0.999 && approx <= (1.0 + spec.eps) * exact + 1.0;
    }
    let g = &off.graph();
    match (spec.task, answer) {
        (SketchTask::Connectivity, SketchAnswer::Connectivity { components, .. }) => {
            *components == g.components().component_count()
        }
        (SketchTask::KConnect, SketchAnswer::KConnected { k, connected }) => {
            *connected == (g.is_connected() && stoer_wagner::min_cut_value(g) >= *k as u64)
        }
        (
            SketchTask::MinCut,
            SketchAnswer::MinCut {
                resolved, value, ..
            },
        ) => {
            let exact = stoer_wagner::min_cut_value(g);
            *resolved
                && if exact == 0 {
                    *value == 0
                } else {
                    (*value as f64 - exact as f64).abs() / exact as f64 <= spec.eps
                }
        }
        (
            SketchTask::SimpleSparsify | SketchTask::Sparsify | SketchTask::WeightedSparsify,
            SketchAnswer::Sparsifier { edges, .. },
        ) => {
            let h = Graph::from_weighted_edges(g.n(), edges.iter().copied());
            cuts::random_cut_audit(g, &h, AUDIT_TRIALS, spec.seed ^ 0xA0D1_7000) <= spec.eps
        }
        (SketchTask::Subgraphs, SketchAnswer::Subgraphs { gammas, .. }) => {
            let pairs: std::collections::BTreeSet<(usize, usize)> = g
                .edges()
                .iter()
                .map(|&(u, v, _)| (u.min(v), u.max(v)))
                .collect();
            let simple = Graph::from_edges(g.n(), pairs);
            let mut decoded = 0;
            let ok = gammas.iter().all(|(name, est)| {
                let (Some(est), Some(p)) = (est, pattern(name)) else {
                    return true;
                };
                decoded += 1;
                (est - gs_graph::subgraph::gamma(&simple, &p)).abs() <= spec.eps
            });
            ok && decoded > 0
        }
        _ => false,
    }
}

fn pattern(name: &str) -> Option<Pattern> {
    match name {
        "triangle" => Some(Pattern::triangle()),
        "path3" => Some(Pattern::path3()),
        "edge+isolated" => Some(Pattern::edge_plus_isolated()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{build, Workload};
    use gs_sketch::EdgeUpdate;

    fn prefix(input: &TenantInput, frames: usize) -> &[EdgeUpdate] {
        &input.trace.updates[..input.prefix_updates(frames)]
    }

    #[test]
    fn offline_answers_pass_and_a_wrong_answer_is_reported() {
        let tenants = build(Workload::MultiTenant, 5, 0.5);
        let mut checks = Vec::new();
        for (i, t) in tenants.iter().enumerate() {
            let mut s = t.spec.build();
            s.absorb(prefix(t, 3));
            let answer = s.decode_with(&DecodePlan::sequential()).to_json();
            checks.push(Check {
                tenant: i,
                lo: 3,
                hi: 3,
                answer: answer.into_bytes(),
            });
        }
        let v = verify(&tenants, checks.clone());
        assert_eq!(v.verified, tenants.len());
        assert!(v.mismatches.is_empty(), "{:?}", v.mismatches);
        assert_eq!(v.scored, tenants.len());

        // A window that includes the true prefix still matches.
        checks[0].lo = 1;
        checks[0].hi = 5;
        assert!(verify(&tenants, checks.clone()).mismatches.is_empty());

        // A wrong answer is a mismatch, never a silent pass.
        checks[1].answer = b"{}".to_vec();
        let v = verify(&tenants, checks);
        assert_eq!(v.mismatches.len(), 1);
    }
}
