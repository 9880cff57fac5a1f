//! The load generator: set-up, the pre-clock gate, and the three
//! workload loops, written once against [`Conn`] so the same schedule
//! drives the real server and the traced in-process mirror.

use crate::inputs::{
    mix, TenantInput, Workload, CHURN_BATCH, CHURN_BLOCKS, CHURN_OFFERED_UPS, MULTI_FRAMES_PER_SEC,
    MULTI_INGEST_SHARE,
};
use crate::stats::{classify, due_latency, generator_lateness, mean, QueryClass};
use crate::target::{Conn, Reply};
use crate::verify::{Check, MAX_CHECKS_PER_TENANT};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Longest a frame keeps retrying `BUSY` before it counts as
/// unacknowledged.
const BUSY_GIVE_UP: Duration = Duration::from_secs(10);
/// Frames each non-preloaded tenant receives before the gate query.
const GATE_FRAMES: usize = 2;
/// `query-mix` think time before each cycle. With no or a short think
/// time the next ingest lands while the server's threads are still
/// settling from the previous answer, and the ingest latency spreads
/// over two modes whose mix moves from run to run.
const MIX_THINK: Duration = Duration::from_millis(20);
/// `multi-tenant` connection B starts a query round this often (at once
/// if the previous round overran), like a dashboard refreshing on a
/// timer. Paced rounds keep the rounds per run, the checkpoints, and the
/// share of rounds that find new frames the same whatever the query
/// speed; unpaced, faster queries meant more rounds that found nothing
/// new, which changed what the query medians averaged over.
const ROUND_EVERY: Duration = Duration::from_millis(250);
/// Each round starts up to this much past its tick, drawn from the
/// seed. Without it the checkpoints lock onto one phase of connection
/// A's round robin, so a run either always or never stalls the frame of
/// the largest tenant, and the ingest tail splits between runs.
const ROUND_JITTER_MS: u64 = 100;
/// `multi-tenant` connection B checkpoints after every this many rounds.
const CHECKPOINT_EVERY_ROUNDS: u32 = 2;

/// Per-tenant frame counters shared by the connections of one run.
/// `sent` counts frames handed to the transport (retries excluded),
/// `acked` frames the server acknowledged; frames apply in order.
pub struct Progress {
    sent: Vec<AtomicU64>,
    acked: Vec<AtomicU64>,
    /// Set when connection A has sent its last frame.
    done: AtomicBool,
}

impl Progress {
    /// Counters for `tenants` tenants, all zero.
    pub fn new(tenants: usize) -> Self {
        Progress {
            sent: (0..tenants).map(|_| AtomicU64::new(0)).collect(),
            acked: (0..tenants).map(|_| AtomicU64::new(0)).collect(),
            done: AtomicBool::new(false),
        }
    }

    fn sent(&self, t: usize) -> u64 {
        self.sent[t].load(Ordering::SeqCst)
    }

    fn acked(&self, t: usize) -> u64 {
        self.acked[t].load(Ordering::SeqCst)
    }
}

/// Everything one connection observed.
#[derive(Default)]
pub struct RunLog {
    /// Headline `INGEST` latencies, ms (from due time in an open loop,
    /// from send time in a closed loop; `BUSY` retries included).
    pub ingest_ms: Vec<f64>,
    /// Generator lateness of each open-loop frame, ms.
    pub lateness_ms: Vec<f64>,
    /// `BUSY` responses retried.
    pub busy_retries: u64,
    /// Frames sent (ingest, query and checkpoint; retries excluded).
    pub attempted: u64,
    /// `ERR` responses and transport failures.
    pub errors: Vec<String>,
    /// Frames still unacknowledged when the run ended.
    pub unacked: u64,
    /// Miss-class `QUERY` latencies, ms.
    pub miss_ms: Vec<f64>,
    /// Repeat-class `QUERY` latencies, ms.
    pub repeat_ms: Vec<f64>,
    /// Queries whose class the generator could not tell.
    pub ambiguous: u64,
    /// Served answers to verify offline.
    pub checks: Vec<Check>,
    /// Repeat answers that differ from the answer they repeat.
    pub repeat_mismatches: Vec<String>,
    /// Updates acknowledged.
    pub updates_acked: u64,
    /// Updates acknowledged per second until a verifying query saw them.
    pub ingest_ups: f64,
    /// `CHECKPOINT` latencies, ms.
    pub checkpoint_ms: Vec<f64>,
    /// Set when a tenant ran out of generated frames.
    pub ran_out: bool,
}

impl RunLog {
    /// Appends another connection's log.
    pub fn absorb(&mut self, other: RunLog) {
        self.ingest_ms.extend(other.ingest_ms);
        self.lateness_ms.extend(other.lateness_ms);
        self.busy_retries += other.busy_retries;
        self.attempted += other.attempted;
        self.errors.extend(other.errors);
        self.unacked += other.unacked;
        self.miss_ms.extend(other.miss_ms);
        self.repeat_ms.extend(other.repeat_ms);
        self.ambiguous += other.ambiguous;
        self.checks.extend(other.checks);
        self.repeat_mismatches.extend(other.repeat_mismatches);
        self.updates_acked += other.updates_acked;
        self.ingest_ups = self.ingest_ups.max(other.ingest_ups);
        self.checkpoint_ms.extend(other.checkpoint_ms);
        self.ran_out |= other.ran_out;
    }

    /// Failed operations: errors, unacknowledged frames and repeat
    /// answers that changed (offline mismatches are added by the caller).
    pub fn failed(&self) -> u64 {
        (self.errors.len() + self.repeat_mismatches.len()) as u64 + self.unacked
    }

    /// Keeps a tenant's checks bounded: past twice the verification cap,
    /// every other check is dropped (the newest is always kept).
    fn push_check(&mut self, check: Check) {
        let t = check.tenant;
        self.checks.push(check);
        let mine = self.checks.iter().filter(|c| c.tenant == t).count();
        if mine > 2 * MAX_CHECKS_PER_TENANT {
            let mut k = 0;
            self.checks.retain(|c| {
                if c.tenant != t {
                    return true;
                }
                k += 1;
                k % 2 == 0 || k == mine
            });
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sends tenant `t`'s next frame, retrying `BUSY` after the delay the
/// server asks for. `false` when the frame failed or stayed unacknowledged.
fn send_next(
    conn: &mut dyn Conn,
    tenants: &[TenantInput],
    t: usize,
    prog: &Progress,
    log: &mut RunLog,
) -> bool {
    let input = &tenants[t];
    let i = prog.sent(t) as usize;
    let Some(frame) = input.frames.get(i) else {
        log.ran_out = true;
        return false;
    };
    let updates = &input.trace.updates[frame.updates.clone()];
    prog.sent[t].fetch_add(1, Ordering::SeqCst);
    log.attempted += 1;
    let started = Instant::now();
    loop {
        match conn.ingest(&input.name, &frame.bytes, updates) {
            Reply::Ok(_) => {
                prog.acked[t].fetch_add(1, Ordering::SeqCst);
                log.updates_acked += updates.len() as u64;
                return true;
            }
            Reply::Busy(after) => {
                log.busy_retries += 1;
                if started.elapsed() > BUSY_GIVE_UP {
                    log.unacked += 1;
                    return false;
                }
                std::thread::sleep(Duration::from_millis(after.clamp(1, 1000) as u64));
            }
            Reply::Err(e) => {
                log.errors.push(format!("ingest {}: {e}", input.name));
                return false;
            }
        }
    }
}

/// The query bookkeeping of a run: the previous frame window and
/// answer per tenant. The gate's queries arm the server's memo, so the
/// run continues from the gate's bookkeeping.
pub struct Querier {
    prev: Vec<Option<(u64, u64)>>,
    last: Vec<Vec<u8>>,
}

impl Querier {
    fn new(tenants: usize) -> Self {
        Querier {
            prev: vec![None; tenants],
            last: vec![Vec::new(); tenants],
        }
    }

    /// Sends one `QUERY`, classifies it, and files its answer: a miss
    /// (or unclassifiable) answer for offline verification, a repeat
    /// answer against the answer it repeats. Returns the latency and
    /// class, `None` on failure.
    fn query(
        &mut self,
        conn: &mut dyn Conn,
        tenants: &[TenantInput],
        t: usize,
        prog: &Progress,
        log: &mut RunLog,
    ) -> Option<(f64, QueryClass)> {
        let lo = prog.acked(t);
        log.attempted += 1;
        let (started, side) = (Instant::now(), conn.side_ns());
        let reply = conn.query(&tenants[t].name);
        let latency = ms(started.elapsed()) - (conn.side_ns() - side) as f64 / 1e6;
        let hi = prog.sent(t);
        let answer = match reply {
            Reply::Ok(a) => a,
            Reply::Busy(_) => {
                log.errors
                    .push(format!("query {}: unexpected BUSY", tenants[t].name));
                return None;
            }
            Reply::Err(e) => {
                log.errors.push(format!("query {}: {e}", tenants[t].name));
                return None;
            }
        };
        let class = classify(self.prev[t], lo, hi);
        self.prev[t] = Some((lo, hi));
        if class == QueryClass::Repeat {
            if answer != self.last[t] {
                log.repeat_mismatches.push(format!(
                    "{}: repeat answer differs from the answer it repeats",
                    tenants[t].name
                ));
            }
        } else {
            log.push_check(Check {
                tenant: t,
                lo,
                hi,
                answer: answer.clone(),
            });
        }
        self.last[t] = answer;
        Some((latency, class))
    }

    /// [`Querier::query`], filing the latency under its class.
    fn timed(
        &mut self,
        conn: &mut dyn Conn,
        tenants: &[TenantInput],
        t: usize,
        prog: &Progress,
        log: &mut RunLog,
    ) -> bool {
        match self.query(conn, tenants, t, prog, log) {
            Some((l, QueryClass::Miss)) => log.miss_ms.push(l),
            Some((l, QueryClass::Repeat)) => log.repeat_ms.push(l),
            Some((_, QueryClass::Ambiguous)) => log.ambiguous += 1,
            None => return false,
        }
        true
    }
}

/// Set-up: creates every tenant, sends preload frames and checkpoints
/// once if anything was preloaded.
pub fn setup(
    conn: &mut dyn Conn,
    tenants: &[TenantInput],
    prog: &Progress,
    log: &mut RunLog,
) -> Result<(), String> {
    for t in tenants {
        match conn.create(&t.name, &t.spec) {
            Reply::Ok(_) => {}
            other => return Err(format!("create {}: {other:?}", t.name)),
        }
    }
    let mut preloaded = false;
    for (i, t) in tenants.iter().enumerate() {
        for _ in 0..t.preload {
            if !send_next(conn, tenants, i, prog, log) {
                return Err(format!("preload of {} failed: {:?}", t.name, log.errors));
            }
            preloaded = true;
        }
    }
    if preloaded {
        if let Reply::Err(e) = conn.checkpoint() {
            return Err(format!("set-up checkpoint: {e}"));
        }
    }
    Ok(())
}

/// The pre-clock gate: a few frames into each tenant that was not
/// preloaded, then one query per tenant. The returned checks must verify
/// before the clock starts.
pub fn gate(
    conn: &mut dyn Conn,
    tenants: &[TenantInput],
    prog: &Progress,
    log: &mut RunLog,
) -> Result<(Vec<Check>, Querier), String> {
    let mut q = Querier::new(tenants.len());
    let mut gate_log = RunLog::default();
    for (i, t) in tenants.iter().enumerate() {
        if t.preload == 0 {
            for _ in 0..GATE_FRAMES {
                if !send_next(conn, tenants, i, prog, &mut gate_log) {
                    return Err(format!(
                        "gate ingest of {} failed: {:?}",
                        t.name, gate_log.errors
                    ));
                }
            }
        }
        if q.query(conn, tenants, i, prog, &mut gate_log).is_none() {
            return Err(format!(
                "gate query of {} failed: {:?}",
                t.name, gate_log.errors
            ));
        }
    }
    log.attempted += gate_log.attempted;
    log.busy_retries += gate_log.busy_retries;
    Ok((gate_log.checks, q))
}

/// Sleeps until `due` (returns at once if it has passed).
fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Runs one workload for `seconds` over `conns` (one connection, or two
/// for `multi-tenant`).
pub fn run<C: Conn>(
    workload: Workload,
    conns: &mut [C],
    tenants: &[TenantInput],
    prog: &Progress,
    q: &mut Querier,
    seconds: f64,
    seed: u64,
) -> RunLog {
    match workload {
        Workload::IngestChurn => ingest_churn(&mut conns[0], tenants, prog, q, seconds),
        Workload::QueryMix => query_mix(&mut conns[0], tenants, prog, q, seconds),
        Workload::MultiTenant => {
            let (a, b) = conns.split_at_mut(1);
            multi_tenant(&mut a[0], &mut b[0], tenants, prog, q, seconds, seed)
        }
    }
}

/// `ingest-churn`, in [`CHURN_BLOCKS`] blocks so host drift during a
/// run reaches every phase alike. Each block is an open loop at
/// [`CHURN_OFFERED_UPS`] (40% of its time), a closed-loop interlude of
/// ingest → query → repeat query (30%), then a saturated pass (30%)
/// closed by a verifying query, which also drains the engine before the
/// next block's open loop.
fn ingest_churn(
    conn: &mut dyn Conn,
    tenants: &[TenantInput],
    prog: &Progress,
    q: &mut Querier,
    seconds: f64,
) -> RunLog {
    let mut log = RunLog::default();
    let block = seconds / CHURN_BLOCKS as f64;
    let interval = Duration::from_secs_f64(CHURN_BATCH as f64 / CHURN_OFFERED_UPS);
    let (mut saturated_updates, mut saturated_secs) = (0, 0.0);
    for _ in 0..CHURN_BLOCKS {
        let frames = (0.4 * block / interval.as_secs_f64()) as u32;
        let start = Instant::now() + Duration::from_millis(2);
        let at = |i: Instant| i.saturating_duration_since(start).as_secs_f64();
        let mut free_at = start;
        for k in 0..frames {
            let due = start + interval * k;
            sleep_until(due);
            let (sent, side) = (Instant::now(), conn.side_ns());
            log.lateness_ms
                .push(1e3 * generator_lateness(at(due), at(free_at), at(sent)));
            if !send_next(conn, tenants, 0, prog, &mut log) {
                return log;
            }
            free_at = Instant::now();
            let done = free_at - Duration::from_nanos(conn.side_ns() - side);
            log.ingest_ms.push(1e3 * due_latency(at(due), at(done)));
        }
        let interlude_end = Instant::now() + Duration::from_secs_f64(0.3 * block);
        while Instant::now() < interlude_end {
            if !send_next(conn, tenants, 0, prog, &mut log)
                || !q.timed(conn, tenants, 0, prog, &mut log)
                || !q.timed(conn, tenants, 0, prog, &mut log)
            {
                return log;
            }
        }
        let t0 = Instant::now();
        let acked0 = log.updates_acked;
        let end = t0 + Duration::from_secs_f64(0.3 * block);
        while Instant::now() < end {
            if !send_next(conn, tenants, 0, prog, &mut log) {
                if log.ran_out {
                    break;
                }
                return log;
            }
        }
        if !q.timed(conn, tenants, 0, prog, &mut log) {
            return log;
        }
        saturated_updates += log.updates_acked - acked0;
        saturated_secs += t0.elapsed().as_secs_f64();
    }
    log.ingest_ups = saturated_updates as f64 / saturated_secs;
    log
}

/// `query-mix`: a closed loop of think → ingest (8 updates) → query →
/// repeat query on one connection.
fn query_mix(
    conn: &mut dyn Conn,
    tenants: &[TenantInput],
    prog: &Progress,
    q: &mut Querier,
    seconds: f64,
) -> RunLog {
    let mut log = RunLog::default();
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    let mut seen = t0;
    while Instant::now() < end {
        std::thread::sleep(MIX_THINK);
        let (sent, side) = (Instant::now(), conn.side_ns());
        if !send_next(conn, tenants, 0, prog, &mut log) {
            break;
        }
        log.ingest_ms
            .push(ms(sent.elapsed()) - (conn.side_ns() - side) as f64 / 1e6);
        if !q.timed(conn, tenants, 0, prog, &mut log) {
            break;
        }
        seen = Instant::now();
        if !q.timed(conn, tenants, 0, prog, &mut log) {
            break;
        }
    }
    log.ingest_ups = log.updates_acked as f64 / (seen - t0).as_secs_f64().max(1e-9);
    log
}

/// `multi-tenant`: connection A offers raw batches and delta records
/// round robin at [`MULTI_FRAMES_PER_SEC`]; connection B runs a query
/// round (query → repeat query per tenant) every [`ROUND_EVERY`] with a
/// `CHECKPOINT` after every [`CHECKPOINT_EVERY_ROUNDS`] rounds, then a
/// final verifying round once A is done. Query samples are per-round
/// means over the six tenants, so the median is never taken across the
/// boundary of two tenants' cost classes.
fn multi_tenant(
    a: &mut dyn Conn,
    b: &mut dyn Conn,
    tenants: &[TenantInput],
    prog: &Progress,
    q: &mut Querier,
    seconds: f64,
    seed: u64,
) -> RunLog {
    let t0 = Instant::now();
    let (mut log_a, mut log_b) = std::thread::scope(|s| {
        let ingest = s.spawn(|| {
            let mut log = RunLog::default();
            let interval = Duration::from_secs_f64(1.0 / MULTI_FRAMES_PER_SEC);
            let frames = (MULTI_INGEST_SHARE * seconds * MULTI_FRAMES_PER_SEC) as u32;
            let start = Instant::now() + Duration::from_millis(2);
            let at = |i: Instant| i.saturating_duration_since(start).as_secs_f64();
            let mut free_at = start;
            for k in 0..frames {
                let due = start + interval * k;
                sleep_until(due);
                let (sent, side) = (Instant::now(), a.side_ns());
                log.lateness_ms
                    .push(1e3 * generator_lateness(at(due), at(free_at), at(sent)));
                if !send_next(a, tenants, k as usize % tenants.len(), prog, &mut log) {
                    break;
                }
                free_at = Instant::now();
                let done = free_at - Duration::from_nanos(a.side_ns() - side);
                log.ingest_ms.push(1e3 * due_latency(at(due), at(done)));
            }
            prog.done.store(true, Ordering::SeqCst);
            log
        });
        let mut log = RunLog::default();
        let start = Instant::now();
        let mut round = 0;
        'rounds: while !prog.done.load(Ordering::SeqCst) {
            let jitter = Duration::from_millis(mix(seed, round.into()) % ROUND_JITTER_MS);
            sleep_until(start + ROUND_EVERY * round + jitter);
            round += 1;
            let (mut miss, mut repeat) = (Vec::new(), Vec::new());
            for t in 0..tenants.len() {
                for _ in 0..2 {
                    match q.query(b, tenants, t, prog, &mut log) {
                        Some((l, QueryClass::Miss)) => miss.push(l),
                        Some((l, QueryClass::Repeat)) => repeat.push(l),
                        Some((_, QueryClass::Ambiguous)) => log.ambiguous += 1,
                        None => break 'rounds,
                    }
                }
            }
            if !miss.is_empty() {
                log.miss_ms.push(mean(&miss));
            }
            if !repeat.is_empty() {
                log.repeat_ms.push(mean(&repeat));
            }
            if round % CHECKPOINT_EVERY_ROUNDS == 0 {
                log.attempted += 1;
                let started = Instant::now();
                match b.checkpoint() {
                    Reply::Ok(_) => log.checkpoint_ms.push(ms(started.elapsed())),
                    other => log.errors.push(format!("checkpoint: {other:?}")),
                }
            }
        }
        (
            ingest.join().expect("ingest connection thread panicked"),
            log,
        )
    });
    // Final round: nothing is in flight, so every answer has one exact
    // prefix; ingest throughput counts until these answers arrive.
    for t in 0..tenants.len() {
        if log_b.errors.is_empty() {
            let _ = q.query(b, tenants, t, prog, &mut log_b);
        }
    }
    log_a.ingest_ups = log_a.updates_acked as f64 / t0.elapsed().as_secs_f64();
    log_a.absorb(log_b);
    log_a
}
