//! The two things a workload can drive: a real `graph-sketch serve`
//! process over the frame protocol ([`RemoteConn`]), or an in-process
//! mirror of the server's handlers that wraps a span around every call
//! into a layer's public function ([`LocalConn`], the traced run).
//!
//! The mirror repeats the server's handler sequence call for call:
//!
//! * ingest: `frame::decode_updates` → `SketchEngine::offer`, or for a
//!   delta record `SketchDelta::from_bytes` → `SketchFile::apply_delta_parsed`;
//! * query: `DecodeCache::answer_hit`, and on a miss `SketchEngine::flush`
//!   → base `clone` → `SketchEngine::snapshot` → `AnySketch::try_merge`
//!   → `LinearSketch::decode_cached`, then `SketchAnswer::to_json`;
//! * checkpoint: `flush` → `SketchEngine::delta_snapshot` → `try_merge`
//!   into the base → `SketchFile::to_bytes` → write + rename.
//!
//! Work the server does not do — the single-threaded absorb baseline and
//! the fresh decode of the same merged state — runs after the request's
//! span has closed, so it never counts toward a request's time.

use crate::spans::SpanLog;
use graph_sketches::api::{SketchAnswer, SketchSpec};
use graph_sketches::frame::{self, Opcode, Response, ServiceStats};
use graph_sketches::wire::{SketchDelta, DELTA_MAGIC};
use graph_sketches::{AnySketch, SketchFile};
use gs_serve::Client;
use gs_sketch::par::DecodePlan;
use gs_sketch::{BankStamp, DecodeCache, EdgeUpdate, LinearSketch};
use gs_stream::engine::{BudgetClaim, EngineConfig, OfferError, SketchEngine, WorkerBudget};
use serde::{Deserialize, Value};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Worker budget the server runs with (`--workers`).
pub const SERVER_WORKERS: usize = 2;
/// The server's default `BUSY` retry delay, which the mirror repeats.
pub const RETRY_AFTER_MS: u32 = 25;

/// One response, as the load generator sees it.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// `OK` with its payload.
    Ok(Vec<u8>),
    /// `BUSY`: retry after the given milliseconds.
    Busy(u32),
    /// A typed error or a transport failure.
    Err(String),
}

/// One connection to a server, real or mirrored.
pub trait Conn: Send {
    /// `CREATE` a tenant.
    fn create(&mut self, tenant: &str, spec: &SketchSpec) -> Reply;
    /// `INGEST` one payload; `updates` are the updates it carries (the
    /// mirror's single-threaded baseline absorbs them).
    fn ingest(&mut self, tenant: &str, bytes: &[u8], updates: &[EdgeUpdate]) -> Reply;
    /// `QUERY` with the server's sequential decode plan.
    fn query(&mut self, tenant: &str) -> Reply;
    /// `CHECKPOINT` every dirty tenant.
    fn checkpoint(&mut self) -> Reply;
    /// Nanoseconds spent so far on work beside the requests (the
    /// mirror's baseline absorb and fresh decode); the load generator
    /// subtracts it from the latencies it times.
    fn side_ns(&self) -> u64 {
        0
    }
}

fn reply_of(r: Result<Response, gs_serve::ClientError>) -> Reply {
    match r {
        Ok(Response::Ok { payload, .. }) => Reply::Ok(payload),
        Ok(Response::Busy { retry_after_ms, .. }) => Reply::Busy(retry_after_ms),
        Ok(Response::Err { code, msg, .. }) => Reply::Err(format!("{code}: {msg}")),
        Err(e) => Reply::Err(e.to_string()),
    }
}

/// A running `graph-sketch serve` process.
pub struct ServerProc {
    child: Child,
    /// Held so the server's stdout stays open for its lifetime.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServerProc {
    /// Starts the server on a loopback port with `--workers 2` and
    /// periodic checkpoints off, and waits for its readiness line.
    pub fn spawn(bin: &Path, state_dir: &Path) -> Result<ServerProc, String> {
        std::fs::create_dir_all(state_dir)
            .map_err(|e| format!("state dir {}: {e}", state_dir.display()))?;
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--state-dir")
            .arg(state_dir)
            .args(["--tcp", "127.0.0.1:0", "--checkpoint-secs", "0", "--quiet"])
            .args(["--workers", &SERVER_WORKERS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("serving tcp ")) {
            (Ok(_), Some(addr)) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server did not announce a listener: {line:?}"));
            }
        };
        Ok(ServerProc {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// Opens a connection.
    pub fn connect(&self) -> Result<RemoteConn, String> {
        Client::connect_tcp(&self.addr)
            .map(|client| RemoteConn { client })
            .map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Minor page faults the server has taken so far.
    pub fn minor_faults(&self) -> Option<u64> {
        minor_faults(&format!("/proc/{}/stat", self.child.id()))
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Kills the server and waits for it to exit.
    pub fn stop(mut self) {
        self.kill_and_wait();
    }

    fn kill_and_wait(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill_and_wait();
    }
}

/// Field 10 (`minflt`) of a `/proc/<pid>/stat` file. The command name
/// in field 2 may hold spaces, so fields are counted after its `)`.
pub fn minor_faults(stat_path: &str) -> Option<u64> {
    let stat = std::fs::read_to_string(stat_path).ok()?;
    stat.rsplit_once(')')?
        .1
        .split_whitespace()
        .nth(7)?
        .parse()
        .ok()
}

/// A protocol connection to a [`ServerProc`].
pub struct RemoteConn {
    client: Client,
}

impl RemoteConn {
    /// `PING` round trip with an 8-byte payload.
    pub fn ping(&mut self) -> Result<(), String> {
        self.client
            .ping(&[0u8; 8])
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// `STATS` for every tenant.
    pub fn stats(&mut self) -> Result<ServiceStats, String> {
        let json = self.client.stats("").map_err(|e| e.to_string())?;
        let v = Value::from_json(&json).map_err(|e| e.to_string())?;
        ServiceStats::from_value(&v).map_err(|e| e.to_string())
    }
}

impl Conn for RemoteConn {
    fn create(&mut self, tenant: &str, spec: &SketchSpec) -> Reply {
        reply_of(
            self.client
                .request(Opcode::Create, tenant, spec.to_json().into_bytes()),
        )
    }

    fn ingest(&mut self, tenant: &str, bytes: &[u8], _updates: &[EdgeUpdate]) -> Reply {
        reply_of(self.client.request(Opcode::Ingest, tenant, bytes.to_vec()))
    }

    fn query(&mut self, tenant: &str) -> Reply {
        reply_of(
            self.client
                .request(Opcode::Query, tenant, frame::encode_query(0)),
        )
    }

    fn checkpoint(&mut self) -> Reply {
        reply_of(self.client.request(Opcode::Checkpoint, "", Vec::new()))
    }
}

/// The mirror of one server tenant, plus the baseline twin.
struct Replica {
    name: String,
    base: SketchFile,
    engine: SketchEngine<AnySketch>,
    _claim: BudgetClaim,
    dirty: bool,
    updates_ingested: u64,
    deltas_applied: u64,
    cache: DecodeCache<SketchAnswer>,
    /// Single-threaded `AnySketch::absorb` of the same batches.
    baseline: AnySketch,
}

/// The mirror of the server's shared state.
pub struct LocalServer {
    tenants: RwLock<BTreeMap<String, Arc<Mutex<Replica>>>>,
    budget: Arc<WorkerBudget>,
    state_dir: PathBuf,
}

impl LocalServer {
    /// A mirror with the server's worker budget, checkpointing into
    /// `state_dir`.
    pub fn new(state_dir: &Path) -> Result<Arc<LocalServer>, String> {
        std::fs::create_dir_all(state_dir)
            .map_err(|e| format!("state dir {}: {e}", state_dir.display()))?;
        Ok(Arc::new(LocalServer {
            tenants: RwLock::new(BTreeMap::new()),
            budget: WorkerBudget::new(SERVER_WORKERS),
            state_dir: state_dir.to_path_buf(),
        }))
    }

    fn lookup(&self, name: &str) -> Option<Arc<Mutex<Replica>>> {
        self.tenants
            .read()
            .expect("registry lock poisoned")
            .get(name)
            .cloned()
    }

    /// Decode-cache counters summed over tenants: `(hits, misses,
    /// groups reused, groups recomputed)`.
    pub fn cache_counters(&self) -> (u64, u64, u64, u64) {
        let mut c = (0, 0, 0, 0);
        for t in self
            .tenants
            .read()
            .expect("registry lock poisoned")
            .values()
        {
            let t = t.lock().expect("tenant lock poisoned");
            c.0 += t.cache.hits();
            c.1 += t.cache.misses();
            c.2 += t.cache.groups_reused();
            c.3 += t.cache.groups_recomputed();
        }
        c
    }
}

/// Measurements the mirror takes beside its spans.
#[derive(Default)]
pub struct Probes {
    /// Per task: (baseline absorb ns, updates absorbed).
    pub absorb: BTreeMap<&'static str, (f64, f64)>,
    /// Per task: `decode_cached` ns on miss queries.
    pub decode_cached: BTreeMap<&'static str, Vec<f64>>,
    /// Per task: fresh `decode_with` ns on the same merged state.
    pub decode_fresh: BTreeMap<&'static str, Vec<f64>>,
    /// Updates decoded by `frame::decode_updates`.
    pub decoded_updates: f64,
    /// `offer` calls.
    pub offers: u64,
    /// `offer` calls refused as busy.
    pub offers_refused: u64,
    /// Deepest worker queue seen after an offer, in batches.
    pub queue_depth_max: usize,
    /// Bytes of each answer payload.
    pub answer_bytes: Vec<f64>,
    /// Bytes of each delta record applied.
    pub delta_bytes: Vec<f64>,
    /// Bytes of each checkpoint written.
    pub state_bytes: Vec<f64>,
    /// Miss answers whose cached decode differed from the fresh decode.
    pub fresh_mismatches: Vec<String>,
    /// Nanoseconds spent on the measurements above.
    pub side_ns: u64,
}

impl Probes {
    /// Adds another connection's measurements.
    pub fn add(&mut self, other: &Probes) {
        for (task, (ns, n)) in &other.absorb {
            let e = self.absorb.entry(task).or_default();
            e.0 += ns;
            e.1 += n;
        }
        for (task, v) in &other.decode_cached {
            self.decode_cached.entry(task).or_default().extend(v);
        }
        for (task, v) in &other.decode_fresh {
            self.decode_fresh.entry(task).or_default().extend(v);
        }
        self.decoded_updates += other.decoded_updates;
        self.offers += other.offers;
        self.offers_refused += other.offers_refused;
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.answer_bytes.extend(&other.answer_bytes);
        self.delta_bytes.extend(&other.delta_bytes);
        self.state_bytes.extend(&other.state_bytes);
        self.fresh_mismatches
            .extend_from_slice(&other.fresh_mismatches);
        self.side_ns += other.side_ns;
    }
}

/// One connection to a [`LocalServer`], with its own span log.
pub struct LocalConn {
    server: Arc<LocalServer>,
    /// This connection's spans.
    pub log: SpanLog,
    /// Measurements beside the spans.
    pub probes: Probes,
    next_req: u64,
    /// Request ids are `conn_id << 40 | sequence`, unique across
    /// connections.
    conn_id: u64,
}

impl LocalConn {
    /// A connection numbered `conn_id`, timing spans from `epoch`.
    pub fn new(server: Arc<LocalServer>, conn_id: u64, epoch: Instant) -> Self {
        LocalConn {
            server,
            log: SpanLog::new(epoch),
            probes: Probes::default(),
            next_req: 0,
            conn_id,
        }
    }

    fn req(&mut self) -> u64 {
        self.next_req += 1;
        self.conn_id << 40 | self.next_req
    }

    /// Mirror of the server's `checkpoint_tenant`; returns the bytes
    /// written (`None` when the tenant was clean).
    fn checkpoint_tenant(&mut self, t: &mut Replica, req: u64) -> Result<Option<usize>, String> {
        if !t.dirty {
            return Ok(None);
        }
        let log = &mut self.log;
        log.leaf("engine.flush", req, || t.engine.flush());
        let shards = log.leaf("engine.delta_snapshot", req, || t.engine.delta_snapshot());
        log.leaf("api.merge", req, || {
            shards
                .iter()
                .try_for_each(|s| t.base.state.try_merge(s))
                .map_err(|e| e.to_string())
        })?;
        let bytes = log.leaf("wire.to_bytes", req, || t.base.to_bytes());
        let dir = &self.server.state_dir;
        log.leaf("server.write_rename", req, || {
            let tmp = dir.join(format!("{}.state.tmp.{}", t.name, std::process::id()));
            std::fs::write(&tmp, &bytes)
                .and_then(|()| std::fs::rename(&tmp, dir.join(format!("{}.state", t.name))))
                .map_err(|e| format!("checkpoint of {}: {e}", t.name))
        })?;
        t.dirty = false;
        Ok(Some(bytes.len()))
    }
}

impl Conn for LocalConn {
    fn side_ns(&self) -> u64 {
        self.probes.side_ns
    }

    fn create(&mut self, tenant: &str, spec: &SketchSpec) -> Reply {
        let req = self.req();
        let root = self.log.enter("server.create", req);
        let reply = (|| {
            let state = spec.try_build().map_err(|e| e.to_string())?;
            let base = SketchFile::new(*spec, state).map_err(|e| e.to_string())?;
            let server = Arc::clone(&self.server);
            let mut registry = server.tenants.write().expect("registry lock poisoned");
            if registry.contains_key(tenant) {
                return Err(format!("tenant {tenant:?} already exists"));
            }
            // The server's `build_tenant`: an even share of the budget.
            let want = (server.budget.total() / (registry.len() + 1)).max(1);
            let claim = server.budget.claim(want);
            let workers = claim.workers();
            let config = EngineConfig::new((workers * 2).max(2))
                .with_workers(workers)
                .with_seed(spec.seed);
            let s = *spec;
            let mut replica = Replica {
                name: tenant.to_string(),
                base,
                engine: SketchEngine::new(config, || s.build()),
                _claim: claim,
                dirty: true,
                updates_ingested: 0,
                deltas_applied: 0,
                cache: DecodeCache::new(),
                baseline: s.build(),
            };
            self.checkpoint_tenant(&mut replica, req)?;
            registry.insert(tenant.to_string(), Arc::new(Mutex::new(replica)));
            Ok(())
        })();
        self.log.exit(root);
        match reply {
            Ok(()) => Reply::Ok(Vec::new()),
            Err(e) => Reply::Err(e),
        }
    }

    fn ingest(&mut self, tenant: &str, bytes: &[u8], updates: &[EdgeUpdate]) -> Reply {
        let req = self.req();
        let root = self.log.enter("server.ingest", req);
        let Some(tenant) = self.server.lookup(tenant) else {
            self.log.exit(root);
            return Reply::Err(format!("no tenant {tenant:?}"));
        };
        let mut t = tenant.lock().expect("tenant lock poisoned");
        let log = &mut self.log;
        let reply = if bytes.starts_with(DELTA_MAGIC) {
            self.probes.delta_bytes.push(bytes.len() as f64);
            match log.leaf("wire.delta_parse", req, || SketchDelta::from_bytes(bytes)) {
                Err(e) => Reply::Err(e.to_string()),
                Ok(delta) => {
                    match log.leaf("wire.delta_apply", req, || {
                        t.base.apply_delta_parsed(&delta)
                    }) {
                        Err(e) => Reply::Err(e.to_string()),
                        Ok(()) => {
                            t.deltas_applied += 1;
                            t.dirty = true;
                            Reply::Ok(Vec::new())
                        }
                    }
                }
            }
        } else {
            match log.leaf("frame.decode_updates", req, || frame::decode_updates(bytes)) {
                Err(e) => Reply::Err(e.to_string()),
                Ok(batch) => {
                    self.probes.decoded_updates += batch.len() as f64;
                    self.probes.offers += 1;
                    match log.leaf("engine.offer", req, || t.engine.offer(&batch)) {
                        Ok(()) => {
                            t.updates_ingested += batch.len() as u64;
                            t.dirty = true;
                            Reply::Ok(Vec::new())
                        }
                        Err(OfferError::Busy { .. }) => {
                            self.probes.offers_refused += 1;
                            Reply::Busy(RETRY_AFTER_MS)
                        }
                        Err(OfferError::Invalid(e)) => Reply::Err(e.to_string()),
                    }
                }
            }
        };
        self.log.exit(root);
        // Outside the request: queue depth and the baseline absorb.
        let side = Instant::now();
        let task = t.base.spec.task.command();
        if matches!(reply, Reply::Ok(_)) {
            if !bytes.starts_with(DELTA_MAGIC) {
                let depth = t.engine.stats().queue_depths.into_iter().max();
                self.probes.queue_depth_max = self.probes.queue_depth_max.max(depth.unwrap_or(0));
            }
            let started = Instant::now();
            t.baseline.absorb(updates);
            let ns = started.elapsed().as_nanos() as f64;
            let e = self.probes.absorb.entry(task).or_default();
            e.0 += ns;
            e.1 += updates.len() as f64;
        }
        self.probes.side_ns += side.elapsed().as_nanos() as u64;
        reply
    }

    fn query(&mut self, tenant: &str) -> Reply {
        let req = self.req();
        let root = self.log.enter("server.query", req);
        let Some(tenant) = self.server.lookup(tenant) else {
            self.log.exit(root);
            return Reply::Err(format!("no tenant {tenant:?}"));
        };
        let mut t = tenant.lock().expect("tenant lock poisoned");
        let log = &mut self.log;
        // Every query the workloads send asks for `threads = 0`.
        let plan = DecodePlan::sequential();
        let key = vec![BankStamp {
            generation: t.updates_ingested,
            drains: t.deltas_applied,
        }];
        let mut cache = std::mem::take(&mut t.cache);
        let mut fresh = None;
        let answer = match log.leaf("cache.probe", req, || cache.answer_hit(&key)) {
            Some(answer) => answer,
            None => {
                log.leaf("engine.flush", req, || t.engine.flush());
                let mut merged = log.leaf("api.clone", req, || t.base.state.clone());
                let snap = log.leaf("engine.snapshot", req, || t.engine.snapshot());
                if let Err(e) = log.leaf("api.merge", req, || merged.try_merge(&snap)) {
                    t.cache = cache;
                    log.exit(root);
                    return Reply::Err(e.to_string());
                }
                // The server's `merged_state` drops the snapshot here.
                drop(snap);
                let span = log.enter("api.decode_cached", req);
                let a = cache.answer_banked(key, |c| {
                    let mut inner: DecodeCache<SketchAnswer> = c
                        .take_detail()
                        .unwrap_or_else(|| DecodeCache::with_disabled(c.is_disabled()));
                    let (reused, recomputed) = (inner.groups_reused(), inner.groups_recomputed());
                    let a = merged.decode_cached(&mut inner, &plan);
                    c.note_groups(
                        inner.groups_reused() - reused,
                        inner.groups_recomputed() - recomputed,
                    );
                    c.set_detail(inner);
                    a
                });
                log.exit(span);
                let cached_ns = log.spans()[span].dur();
                // Beside the request: a fresh decode of the same merged
                // state. It runs before `merged` drops so the drop stays
                // inside the request, where the server pays it too; its
                // span is subtracted from the request's time.
                let probe = log.enter("probe.decode_fresh", req);
                let fresh_json = merged.decode_with(&plan).to_json();
                log.exit(probe);
                let fresh_ns = log.spans()[probe].dur();
                self.probes.side_ns += fresh_ns;
                fresh = Some((cached_ns, fresh_ns, fresh_json));
                a
            }
        };
        t.cache = cache;
        let payload = log.leaf("api.answer_json", req, || answer.to_json().into_bytes());
        self.log.exit(root);
        let task = t.base.spec.task.command();
        drop(t);
        self.probes.answer_bytes.push(payload.len() as f64);
        if let Some((cached_ns, fresh_ns, fresh_json)) = fresh {
            let p = &mut self.probes;
            p.decode_cached
                .entry(task)
                .or_default()
                .push(cached_ns as f64);
            p.decode_fresh
                .entry(task)
                .or_default()
                .push(fresh_ns as f64);
            if fresh_json.as_bytes() != payload.as_slice() {
                p.fresh_mismatches
                    .push(format!("{task}: cached decode differs from fresh decode"));
            }
        }
        Reply::Ok(payload)
    }

    fn checkpoint(&mut self) -> Reply {
        let req = self.req();
        let root = self.log.enter("server.checkpoint", req);
        let tenants: Vec<_> = self
            .server
            .tenants
            .read()
            .expect("registry lock poisoned")
            .values()
            .cloned()
            .collect();
        let mut persisted = 0;
        let mut failure = None;
        for tenant in tenants {
            let mut t = tenant.lock().expect("tenant lock poisoned");
            match self.checkpoint_tenant(&mut t, req) {
                Ok(Some(len)) => {
                    persisted += 1;
                    self.probes.state_bytes.push(len as f64);
                }
                Ok(None) => {}
                Err(e) => failure = Some(e),
            }
        }
        self.log.exit(root);
        match failure {
            Some(e) => Reply::Err(e),
            None => Reply::Ok(persisted.to_string().into_bytes()),
        }
    }
}
