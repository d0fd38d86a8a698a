//! Multi-tenant session pool: admission control plus a shard of
//! OS-thread workers, each running sessions that own independent
//! deterministic worlds.
//!
//! The paper's NPSS vision is a *shared* simulation service — many
//! engineers submitting engine simulations against a pool of machines,
//! not one hand-driven run. This module is the session layer for that
//! traffic shape:
//!
//! * a [`TokenBucket`] per tenant meters submission rate;
//! * a bounded FIFO admission queue sheds load with typed
//!   [`Rejected::QueueFull`] answers instead of unbounded latency;
//! * admitted sessions shard to `N` named worker threads
//!   (`pool-worker-{i}`), whose handles are retained and joined at
//!   shutdown — a long-running service must not leak threads or lose
//!   panics silently.
//!
//! **Determinism argument.** The pool itself is wall-clock machinery,
//! but every session runs a closure that builds its *own* world
//! (per-world process counters, per-world metrics registry, seeded
//! virtual-time scheduling). No state is shared between session jobs, so
//! pool interleaving cannot perturb a session's transcript or metrics:
//! the same seeded session is bit-identical solo or under a saturated
//! pool. Pool-level telemetry (`pool.*` counters, gauges, histograms)
//! lives in the pool's own [`MetricsRegistry`], never in a session
//! world's, so world snapshots stay byte-comparable across runs.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::error::{SchError, SchResult};
use crate::obs::MetricsRegistry;

/// A per-tenant token bucket. Pure state machine over an explicit clock:
/// callers pass `now_s` (wall seconds in the live pool, virtual seconds
/// in the sessions study's queueing model, `npss/tests/bench_records.rs`),
/// which is what makes the same limiter usable in both and unit-testable
/// without sleeping.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last_s: f64,
}

impl TokenBucket {
    /// A bucket that refills at `rate` tokens/second up to `burst`
    /// capacity, starting full. `rate = f64::INFINITY` disables limiting.
    pub fn new(rate: f64, burst: f64) -> Self {
        Self { rate, burst, tokens: burst, last_s: 0.0 }
    }

    /// Take one token at time `now_s`, or report how long until one
    /// accrues. Time may not run backwards; a stale `now_s` refills
    /// nothing.
    pub fn try_take(&mut self, now_s: f64) -> Result<(), f64> {
        if self.rate.is_infinite() {
            return Ok(());
        }
        let dt = (now_s - self.last_s).max(0.0);
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        self.last_s = self.last_s.max(now_s);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else if self.rate > 0.0 {
            Err((1.0 - self.tokens) / self.rate)
        } else {
            Err(f64::INFINITY)
        }
    }
}

/// Why a session was refused at the front door. Every variant has a
/// retry-after hint so a polite client can back off instead of spinning.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejected {
    /// The tenant's token bucket is empty.
    RateLimited {
        /// The tenant that was throttled.
        tenant: String,
        /// Seconds until the bucket accrues one token.
        retry_after_s: f64,
    },
    /// The admission queue is at capacity.
    QueueFull {
        /// Sessions waiting when the request arrived.
        depth: usize,
        /// The configured queue bound.
        capacity: usize,
        /// Estimated seconds until a queue slot frees.
        retry_after_s: f64,
    },
    /// The pool has shut down and no worker is left to run the session;
    /// its retry-after hint is infinite.
    Closed,
}

impl Rejected {
    /// The retry-after hint, whichever variant.
    pub fn retry_after_s(&self) -> f64 {
        match self {
            Rejected::RateLimited { retry_after_s, .. } => *retry_after_s,
            Rejected::QueueFull { retry_after_s, .. } => *retry_after_s,
            Rejected::Closed => f64::INFINITY,
        }
    }
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::RateLimited { tenant, retry_after_s } => {
                write!(f, "tenant '{tenant}' rate limited; retry after {retry_after_s:.3} s")
            }
            Rejected::QueueFull { depth, capacity, retry_after_s } => {
                write!(
                    f,
                    "admission queue full ({depth}/{capacity}); retry after {retry_after_s:.3} s"
                )
            }
            Rejected::Closed => write!(f, "session pool is shut down"),
        }
    }
}

/// Sizing and admission-control knobs for a [`SessionPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads (each runs one session at a time).
    pub workers: usize,
    /// Bound on sessions admitted but not yet started.
    pub queue_capacity: usize,
    /// Per-tenant token refill rate (sessions/second);
    /// `f64::INFINITY` disables rate limiting.
    pub tenant_rate: f64,
    /// Per-tenant burst capacity (bucket size).
    pub tenant_burst: f64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self { workers: 4, queue_capacity: 64, tenant_rate: f64::INFINITY, tenant_burst: 8.0 }
    }
}

/// The most worker threads one pool starts. A larger count is refused
/// before anything is allocated or spawned.
const MAX_WORKERS: usize = 256;

/// Fallback service-time estimate (seconds) for the queue-full
/// retry-after hint before any session has completed.
const DEFAULT_SERVICE_ESTIMATE_S: f64 = 0.05;

struct Job<R> {
    queued_at: Instant,
    run: Box<dyn FnOnce() -> R + Send>,
    done: mpsc::Sender<std::thread::Result<R>>,
}

struct State<R> {
    queue: VecDeque<Job<R>>,
    buckets: BTreeMap<String, TokenBucket>,
    shutdown: bool,
}

struct Shared<R> {
    state: Mutex<State<R>>,
    wake: Condvar,
    metrics: MetricsRegistry,
}

/// Take the guard even when a session job panicked while a worker held
/// the lock: queue state is a VecDeque plus token buckets, both of which
/// are valid after any partial operation visible here.
fn lock<R>(shared: &Shared<R>) -> std::sync::MutexGuard<'_, State<R>> {
    shared.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The live session pool: admission control in front of `N` OS-thread
/// workers. `R` is the session report type produced by submitted jobs.
pub struct SessionPool<R: Send + 'static> {
    shared: Arc<Shared<R>>,
    config: PoolConfig,
    started: Instant,
    workers: Vec<JoinHandle<()>>,
}

/// A claim on one admitted session's eventual report.
pub struct SessionTicket<R> {
    tenant: String,
    rx: mpsc::Receiver<std::thread::Result<R>>,
}

impl<R> SessionTicket<R> {
    /// Block until the session finishes. [`SchError::SessionPanicked`]
    /// reports a job that panicked in its worker (the pool survives).
    pub fn wait(self) -> SchResult<R> {
        match self.rx.recv() {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(_)) | Err(_) => Err(SchError::SessionPanicked { tenant: self.tenant }),
        }
    }
}

impl<R: Send + 'static> SessionPool<R> {
    /// Start the pool: spawn `config.workers` named worker threads.
    /// Refuses more than 256 workers, and a pool that could never admit a
    /// session: no workers, no queue, a rate that is negative or NaN, or a
    /// finite rate whose bucket cannot hold one token. If a spawn fails,
    /// the workers already started are shut down and joined.
    pub fn start(config: PoolConfig) -> SchResult<Self> {
        let PoolConfig { workers, queue_capacity, tenant_rate, tenant_burst } = config;
        if workers == 0 {
            return Err(SchError::Other("session pool needs at least one worker".into()));
        }
        if workers > MAX_WORKERS {
            return Err(SchError::Other(format!(
                "session pool takes at most {MAX_WORKERS} workers, got {workers}"
            )));
        }
        if queue_capacity == 0 {
            return Err(SchError::Other(
                "session pool needs a queue capacity of at least one".into(),
            ));
        }
        if tenant_rate.is_nan() || tenant_rate < 0.0 {
            return Err(SchError::Other(format!(
                "tenant rate must be zero or more, got {tenant_rate}"
            )));
        }
        if tenant_rate.is_finite() && (tenant_burst.is_nan() || tenant_burst < 1.0) {
            let why =
                format!("a finite tenant rate needs a burst of at least one, got {tenant_burst}");
            return Err(SchError::Other(why));
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                buckets: BTreeMap::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            metrics: MetricsRegistry::new(),
        });
        let mut pool =
            Self { shared, config, started: Instant::now(), workers: Vec::with_capacity(workers) };
        for i in 0..workers {
            let shared = Arc::clone(&pool.shared);
            let spawned = std::thread::Builder::new()
                .name(format!("pool-worker-{i}"))
                .spawn(move || worker_loop(&shared));
            // On `?`, dropping `pool` shuts down and joins the workers
            // spawned so far.
            pool.workers
                .push(spawned.map_err(|e| SchError::Other(format!("spawn pool-worker-{i}: {e}")))?);
        }
        Ok(pool)
    }

    /// Pool-level telemetry: `pool.admitted`, `pool.rejected.*`,
    /// `pool.completed` counters; `pool.queue_depth` / `pool.busy_workers`
    /// gauges; `pool.wait_s` / `pool.session_s` histograms. This registry
    /// is the pool's own — never a session world's — so world metric
    /// snapshots stay byte-comparable.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// Wall seconds since the pool started (the live limiter clock).
    fn now_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Offer a session job for `tenant`. On admission the job is queued
    /// for the next free worker and a ticket for its report is returned;
    /// otherwise a typed [`Rejected`] explains why and when to retry.
    pub fn submit<F>(&self, tenant: &str, job: F) -> Result<SessionTicket<R>, Rejected>
    where
        F: FnOnce() -> R + Send + 'static,
    {
        let now = self.now_s();
        let m = &self.shared.metrics;
        let mut s = lock(&self.shared);
        if s.shutdown {
            return Err(Rejected::Closed);
        }
        let bucket = s
            .buckets
            .entry(tenant.to_owned())
            .or_insert_with(|| TokenBucket::new(self.config.tenant_rate, self.config.tenant_burst));
        if let Err(retry_after_s) = bucket.try_take(now) {
            drop(s);
            m.counter_add("pool.rejected.rate_limited", 1);
            return Err(Rejected::RateLimited { tenant: tenant.to_owned(), retry_after_s });
        }
        let depth = s.queue.len();
        if depth >= self.config.queue_capacity {
            drop(s);
            m.counter_add("pool.rejected.queue_full", 1);
            let per_session = m
                .histogram("pool.session_s")
                .filter(|h| h.count > 0)
                .map(|h| h.mean())
                .unwrap_or(DEFAULT_SERVICE_ESTIMATE_S);
            let retry_after_s = per_session * (depth as f64 / self.config.workers as f64).max(1.0);
            return Err(Rejected::QueueFull {
                depth,
                capacity: self.config.queue_capacity,
                retry_after_s,
            });
        }
        let (tx, rx) = mpsc::channel();
        s.queue.push_back(Job { queued_at: Instant::now(), run: Box::new(job), done: tx });
        let depth = s.queue.len();
        drop(s);
        m.counter_add("pool.admitted", 1);
        m.gauge_set("pool.queue_depth", depth as i64);
        self.shared.wake.notify_one();
        Ok(SessionTicket { tenant: tenant.to_owned(), rx })
    }

    /// Drain the queue, stop the workers, and join every handle. Called
    /// by `Drop` as well, so a pool can never leak its threads.
    pub fn shutdown(&mut self) {
        {
            let mut s = lock(&self.shared);
            s.shutdown = true;
        }
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            // A worker that panicked outside a job is a bug, but joining
            // must not cascade the panic into shutdown.
            let _ = handle.join();
        }
    }
}

impl<R: Send + 'static> Drop for SessionPool<R> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop<R: Send + 'static>(shared: &Shared<R>) {
    loop {
        let job = {
            let mut s = lock(shared);
            loop {
                if let Some(job) = s.queue.pop_front() {
                    shared.metrics.gauge_set("pool.queue_depth", s.queue.len() as i64);
                    break job;
                }
                if s.shutdown {
                    return;
                }
                s = shared.wake.wait(s).unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        shared.metrics.observe("pool.wait_s", job.queued_at.elapsed().as_secs_f64());
        shared.metrics.gauge_add("pool.busy_workers", 1);
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(job.run));
        shared.metrics.observe("pool.session_s", started.elapsed().as_secs_f64());
        shared.metrics.gauge_add("pool.busy_workers", -1);
        match &outcome {
            Ok(_) => shared.metrics.counter_add("pool.completed", 1),
            Err(_) => shared.metrics.counter_add("pool.session_panics", 1),
        }
        // A dropped ticket is fine — the session ran for its side effects.
        let _ = job.done.send(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_meters_and_reports_retry_after() {
        let mut b = TokenBucket::new(2.0, 2.0);
        assert!(b.try_take(0.0).is_ok());
        assert!(b.try_take(0.0).is_ok());
        let retry = b.try_take(0.0).unwrap_err();
        assert!((retry - 0.5).abs() < 1e-12, "2/s refill -> 0.5 s to one token, got {retry}");
        // After the hinted wait the take succeeds.
        assert!(b.try_take(0.5).is_ok());
        // Refill caps at burst.
        let mut b = TokenBucket::new(1.0, 3.0);
        for _ in 0..3 {
            assert!(b.try_take(100.0).is_ok());
        }
        assert!(b.try_take(100.0).is_err());
    }

    #[test]
    fn infinite_rate_never_limits() {
        let mut b = TokenBucket::new(f64::INFINITY, 1.0);
        for _ in 0..1000 {
            assert!(b.try_take(0.0).is_ok());
        }
    }

    #[test]
    fn zero_rate_reports_infinite_retry() {
        let mut b = TokenBucket::new(0.0, 1.0);
        assert!(b.try_take(0.0).is_ok());
        assert_eq!(b.try_take(0.0).unwrap_err(), f64::INFINITY);
    }

    #[test]
    fn live_pool_runs_thousands_of_sessions_and_counts_them() {
        let mut pool: SessionPool<u64> = SessionPool::start(PoolConfig {
            workers: 8,
            queue_capacity: 5000,
            ..PoolConfig::default()
        })
        .unwrap();
        let tickets: Vec<_> = (0..2000u64)
            .map(|i| pool.submit(&format!("tenant-{}", i % 7), move || i * i).unwrap())
            .collect();
        let mut sum = 0u64;
        for t in tickets {
            sum += t.wait().unwrap();
        }
        let expect: u64 = (0..2000u64).map(|i| i * i).sum();
        assert_eq!(sum, expect);
        let m = pool.metrics().clone();
        assert_eq!(m.counter("pool.admitted"), 2000);
        assert_eq!(m.counter("pool.completed"), 2000);
        assert_eq!(m.counter("pool.rejected.rate_limited"), 0);
        assert_eq!(m.gauge("pool.busy_workers"), 0);
        pool.shutdown();
        assert!(m.histogram("pool.session_s").unwrap().count == 2000);
    }

    #[test]
    fn live_pool_rejects_with_types_and_survives_panics() {
        let mut pool: SessionPool<()> = SessionPool::start(PoolConfig {
            workers: 1,
            queue_capacity: 2,
            tenant_rate: 0.0,
            tenant_burst: 2.0,
        })
        .unwrap();
        // Burst of 2 admits, third is rate limited.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let t1 = pool
            .submit("a", move || {
                let (l, c) = &*g;
                let mut open = l.lock().unwrap();
                while !*open {
                    open = c.wait(open).unwrap();
                }
            })
            .unwrap();
        // Wait until the worker has picked t1 up, so queue depths below
        // are deterministic.
        while pool.metrics().gauge("pool.busy_workers") < 1 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let t2 = pool.submit("a", || ()).unwrap();
        match pool.submit("a", || ()) {
            Err(Rejected::RateLimited { tenant, retry_after_s }) => {
                assert_eq!(tenant, "a");
                assert_eq!(retry_after_s, f64::INFINITY);
            }
            other => panic!("expected RateLimited, got {:?}", other.is_ok()),
        }
        // A second tenant fills the queue: the lone worker is parked on
        // the gate, so the two remaining jobs sit queued at capacity.
        let t3 = pool.submit("b", || ()).unwrap();
        match pool.submit("b", || ()) {
            Err(Rejected::QueueFull { capacity, retry_after_s, .. }) => {
                assert_eq!(capacity, 2);
                assert!(retry_after_s > 0.0);
            }
            Err(r) => panic!("expected QueueFull, got {r}"),
            Ok(_) => panic!("expected QueueFull, got an admission"),
        }
        // Open the gate; everything drains.
        {
            let (l, c) = &*gate;
            *l.lock().unwrap() = true;
            c.notify_all();
        }
        t1.wait().unwrap();
        t2.wait().unwrap();
        t3.wait().unwrap();
        // A panicking job is surfaced on its ticket and the pool survives
        // (a fresh tenant: "a" and "b" spent their zero-refill buckets).
        let boom = pool.submit("c", || panic!("session bug")).unwrap();
        match boom.wait() {
            Err(SchError::SessionPanicked { tenant }) => assert_eq!(tenant, "c"),
            other => panic!("expected SessionPanicked, got {other:?}"),
        }
        let after = pool.submit("c", || ()).unwrap();
        after.wait().unwrap();
        assert_eq!(pool.metrics().counter("pool.session_panics"), 1);
        pool.shutdown();
    }

    #[test]
    fn start_refuses_a_pool_that_could_never_admit() {
        let refused = [
            (PoolConfig { workers: 0, ..PoolConfig::default() }, "worker"),
            (PoolConfig { workers: usize::MAX, ..PoolConfig::default() }, "at most 256 workers"),
            (PoolConfig { queue_capacity: 0, ..PoolConfig::default() }, "queue capacity"),
            (PoolConfig { tenant_rate: f64::NAN, ..PoolConfig::default() }, "tenant rate"),
            (PoolConfig { tenant_rate: -1.0, ..PoolConfig::default() }, "tenant rate"),
            (PoolConfig { tenant_rate: 2.0, tenant_burst: 0.5, ..PoolConfig::default() }, "burst"),
            (
                PoolConfig { tenant_rate: 0.0, tenant_burst: f64::NAN, ..PoolConfig::default() },
                "burst",
            ),
        ];
        for (config, why) in refused {
            let shown = format!("{config:?}");
            match SessionPool::<()>::start(config) {
                Err(SchError::Other(e)) => assert!(e.contains(why), "{shown}: {e}"),
                Err(e) => panic!("{shown}: unexpected error {e}"),
                Ok(_) => panic!("{shown}: a pool that can never admit was started"),
            }
        }
        // A zero rate (a burst, then nothing) and an infinite one stay valid.
        for tenant_rate in [0.0, f64::INFINITY] {
            SessionPool::<()>::start(PoolConfig { tenant_rate, ..PoolConfig::default() }).unwrap();
        }
    }

    #[test]
    fn shutdown_joins_named_workers() {
        let mut pool: SessionPool<usize> =
            SessionPool::start(PoolConfig { workers: 3, ..PoolConfig::default() }).unwrap();
        let names: Vec<Option<String>> =
            pool.workers.iter().map(|h| h.thread().name().map(str::to_owned)).collect();
        assert_eq!(
            names,
            vec![
                Some("pool-worker-0".into()),
                Some("pool-worker-1".into()),
                Some("pool-worker-2".into())
            ]
        );
        let t = pool.submit("t", || 7).unwrap();
        assert_eq!(t.wait().unwrap(), 7);
        pool.shutdown();
        assert!(pool.workers.is_empty(), "shutdown must join and drain every handle");
    }

    #[test]
    fn submit_after_shutdown_is_refused_not_stranded() {
        let mut pool: SessionPool<u32> =
            SessionPool::start(PoolConfig { workers: 2, ..PoolConfig::default() }).unwrap();
        pool.shutdown();
        match pool.submit("late", || 7) {
            Err(r) => {
                assert_eq!(r, Rejected::Closed);
                assert_eq!(r.retry_after_s(), f64::INFINITY);
            }
            // No worker is left to run an admitted job, so its ticket
            // would never resolve.
            Ok(ticket) => {
                let outcome = ticket.rx.recv_timeout(std::time::Duration::from_millis(500));
                panic!("admitted after shutdown; ticket resolved: {}", outcome.is_ok());
            }
        }
    }
}
