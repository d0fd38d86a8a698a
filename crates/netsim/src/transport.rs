//! Reliable, ordered message transport over the simulated topology.
//!
//! Processes register an [`Endpoint`] under an address of the form
//! `host:process`. A [`Route`] between two addresses resolves, once per
//! network epoch, everything a send would otherwise find by name: the
//! hosts' state, the fault plan, the minimum-latency path and the
//! receiver's [`Mailbox`]. Sending on it computes the virtual transfer
//! time for the payload size, stamps the envelope with its arrival
//! instant, and enqueues it in the mailbox. Failure injection (downed hosts, removed links) surfaces
//! as send-time errors, exactly where a connection failure would surface
//! in the real system.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes, BytesMut};

use crate::faults::FaultPlan;
use crate::link::{decode_frame, FrameMsg, HeldMsg, LinkBatcher, LinkConfig, OpenFrame, Records};
use crate::metrics::{Counter, MetricsRegistry};
use crate::topology::{NodeId, Path, Topology};

/// Transport errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Destination address has no registered endpoint.
    UnknownAddress(String),
    /// Source or destination host is not in the topology.
    UnknownHost(String),
    /// Destination host is administratively down.
    HostDown(String),
    /// No route between the two hosts (link failure / partition).
    Unreachable { from: String, to: String },
    /// The endpoint's registration was replaced, so nothing will reach
    /// it any more.
    Disconnected(String),
    /// The message was lost by injected fault (see [`FaultPlan`]).
    Dropped {
        /// Sending host.
        from: String,
        /// Receiving host.
        to: String,
    },
    /// No message arrived within the receive timeout.
    Timeout,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownAddress(a) => write!(f, "no endpoint registered at '{a}'"),
            NetError::UnknownHost(h) => write!(f, "host '{h}' not in topology"),
            NetError::HostDown(h) => write!(f, "host '{h}' is down"),
            NetError::Unreachable { from, to } => {
                write!(f, "no route from '{from}' to '{to}'")
            }
            NetError::Disconnected(a) => write!(f, "endpoint '{a}' has gone away"),
            NetError::Dropped { from, to } => {
                write!(f, "message from '{from}' to '{to}' lost by fault injection")
            }
            NetError::Timeout => write!(f, "receive timed out"),
        }
    }
}

impl std::error::Error for NetError {}

/// A message in flight. Its addresses share the text their endpoints
/// registered, so carrying them costs no copy.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sender's full address (`host:process`).
    pub from: Arc<str>,
    /// Destination address.
    pub to: Arc<str>,
    /// Opaque payload (wire-format bytes at the Schooner layer).
    pub payload: Bytes,
    /// Virtual time at which the sender issued the message.
    pub sent_at: f64,
    /// Virtual time at which the message reaches the destination host.
    pub arrive_at: f64,
}

/// Fate of one logical message in a flush. Flushes append these to a
/// buffer the caller lends, in link order and buffer order within a
/// link.
#[derive(Debug, Clone)]
pub struct FlushRecord {
    /// Opaque caller tag passed at append time (Schooner stores
    /// `(line id, call id)` for span attribution).
    pub tag: (u64, u64),
    /// Virtual time the message was appended.
    pub sent_at: f64,
    /// Arrival instant on success, or why delivery failed.
    pub result: Result<f64, NetError>,
}

/// Take the guard even when a previous holder panicked: a queue of
/// whole envelopes is never left half-updated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One endpoint's queue of envelopes, in delivery order. The queue
/// keeps its capacity, so a warm endpoint receives without allocating.
///
/// A clone is a handle on the same queue that can only ask whether
/// mail is waiting: a scheduler that steps actors
/// ([`has_mail`](Mailbox::has_mail)) reads that without taking the
/// queue's lock.
#[derive(Clone)]
pub struct Mailbox {
    inner: Arc<MailboxInner>,
}

struct MailboxInner {
    queue: Mutex<Queue>,
    /// Envelopes queued: written under `queue`'s lock with `Release`
    /// after every push and pop, read with `Acquire` by anyone.
    pending: AtomicUsize,
    /// Signalled by an enqueue while a thread waits in
    /// [`Endpoint::recv`], and only then.
    arrived: Condvar,
}

#[derive(Default)]
struct Queue {
    envelopes: VecDeque<Envelope>,
    /// Threads blocked in [`Endpoint::recv`].
    waiters: usize,
    /// The endpoint's registration was replaced: no send reaches it.
    closed: bool,
}

impl Mailbox {
    fn new() -> Self {
        let inner = MailboxInner {
            queue: Mutex::default(),
            pending: AtomicUsize::new(0),
            arrived: Condvar::new(),
        };
        Self { inner: Arc::new(inner) }
    }

    /// Whether an envelope is waiting. An answer of `false` that
    /// synchronizes with the receiver's last pop also shows everything
    /// the receiving thread did before that pop.
    pub fn has_mail(&self) -> bool {
        self.inner.pending.load(Ordering::Acquire) > 0
    }

    /// Append an admitted envelope; returns its arrival time.
    fn push(&self, env: Envelope) -> f64 {
        let arrive_at = env.arrive_at;
        let mut q = lock(&self.inner.queue);
        q.envelopes.push_back(env);
        self.inner.pending.store(q.envelopes.len(), Ordering::Release);
        let waiting = q.waiters > 0;
        // Signalled after the lock is released, so a waiter woken on
        // this CPU does not find it still held.
        drop(q);
        if waiting {
            self.inner.arrived.notify_all();
        }
        arrive_at
    }

    fn pop(&self, q: &mut Queue) -> Option<Envelope> {
        let env = q.envelopes.pop_front()?;
        self.inner.pending.store(q.envelopes.len(), Ordering::Release);
        Some(env)
    }

    fn close(&self) {
        lock(&self.inner.queue).closed = true;
    }
}

/// One registered endpoint.
struct EpEntry {
    /// Registration id, so a stale [`Endpoint`]'s Drop cannot tear down a
    /// re-registered address.
    id: u64,
    /// Virtual birth time for crash fencing: a process endpoint created
    /// at `birth` stops existing once a [`FaultPlan`] crash window opens
    /// on its host after `birth`. `None` for durable endpoints
    /// (managers, servers, lines) that model the *infrastructure*, which
    /// restarts with the host, rather than a process instance.
    birth: Option<f64>,
    mailbox: Mailbox,
}

/// What the transport derives from one directed host pair, computed on
/// the pair's first message and shared by every later one: the route
/// and the per-link message and byte counters.
struct LinkRecord {
    from_host: String,
    to_host: String,
    /// Minimum-latency route; `None` when the pair is partitioned.
    route: Option<Path>,
    /// `net.msg.{from}->{to}`.
    msgs: Counter,
    /// `net.bytes.{from}->{to}`.
    bytes: Counter,
}

impl LinkRecord {
    fn path(&self) -> Result<&Path, NetError> {
        self.route.as_ref().ok_or_else(|| NetError::Unreachable {
            from: self.from_host.clone(),
            to: self.to_host.clone(),
        })
    }
}

/// A resolved route from one address to another: everything a send
/// would otherwise find by name — the downed-host verdict, the fault
/// plan, the pair's link record, the destination's mailbox and birth,
/// both registered address copies — found once, in one network epoch.
///
/// [`Network::send_on`] re-resolves a route whose epoch is stale, so a
/// route held across registrations, endpoint drops, host state, fault
/// plans and topology changes answers exactly as a fresh
/// [`Network::send`] would. A send on a current route hashes nothing
/// and reads no lock but the destination mailbox's. An unregistered
/// destination or a partitioned pair is a cached *outcome*, reported at
/// the same step of the admission order as before.
#[derive(Clone)]
pub struct Route {
    /// The network epoch the fields below were resolved in.
    epoch: u64,
    /// The sender's registered copy of its address, or a fresh copy
    /// for a sender with no endpoint.
    from: Arc<str>,
    /// The destination's registered copy of its address, or a fresh
    /// copy when nothing is registered there.
    to: Arc<str>,
    /// Lengths of the host parts of `from` and `to`.
    host_lens: (usize, usize),
    /// `HostDown` for the first administratively downed end.
    down: Option<NetError>,
    plan: Option<Arc<FaultPlan>>,
    /// The pair's link record; `UnknownHost` for a host the topology
    /// does not know.
    link: Result<Arc<LinkRecord>, NetError>,
    /// The destination's mailbox and crash-fencing birth; `None` when
    /// nothing is registered at `to`.
    dest: Option<(Mailbox, Option<f64>)>,
}

impl Route {
    /// The destination address.
    pub fn addr(&self) -> &str {
        &self.to
    }

    /// The sending and receiving hosts.
    fn hosts(&self) -> (&str, &str) {
        (&self.from[..self.host_lens.0], &self.to[..self.host_lens.1])
    }

    /// Link state at `t`: administratively downed hosts, then the fault
    /// plan's windows. A logical message (`drop_ordinal`) also consumes
    /// the link's seeded drop ordinal; a frame leaving later re-checks
    /// the windows only, because its members consumed theirs at append.
    fn check_link(&self, t: f64, drop_ordinal: bool) -> Result<(), NetError> {
        if let Some(down) = &self.down {
            return Err(down.clone());
        }
        let (from_host, to_host) = self.hosts();
        match self.plan.as_deref() {
            Some(p) if drop_ordinal => p.check_send(from_host, to_host, t),
            Some(p) => p.check_window(from_host, to_host, t),
            None => Ok(()),
        }
    }

    /// The route rule: the pair's link record and its path.
    fn path(&self) -> Result<(&LinkRecord, &Path), NetError> {
        let link = self.link.as_deref().map_err(Clone::clone)?;
        Ok((link, link.path()?))
    }

    /// The arrival law: a message of `bytes` leaving at `t` arrives one
    /// route transfer later, stretched by any latency spike active at
    /// `t`.
    fn arrival(&self, path: &Path, t: f64, bytes: usize) -> f64 {
        let transfer = path.transfer_seconds(bytes);
        t + self.plan.as_ref().map_or(transfer, |p| p.adjust_transfer(t, transfer))
    }
}

/// Open frames, `[from_host][to_host]`. Nested BTreeMaps so a message
/// finds its batcher by `&str` and bulk flushes walk links in a
/// deterministic (name-sorted) order.
type LinkTable = BTreeMap<String, BTreeMap<String, LinkBatcher>>;

struct NetInner {
    topo: RwLock<Topology>,
    /// Link records memoised for the current topology epoch: every
    /// entry is dropped by [`Network::with_topology_mut`]. At most one
    /// per ordered node pair, freed with the network.
    link_records: RwLock<HashMap<(NodeId, NodeId), Arc<LinkRecord>>>,
    /// Keyed by the one shared copy of each address, which every
    /// envelope to or from the endpoint carries.
    endpoints: RwLock<HashMap<Arc<str>, EpEntry>>,
    down_hosts: RwLock<HashMap<String, bool>>,
    faults: RwLock<Option<Arc<FaultPlan>>>,
    /// Bumped after every change a [`Route`] caches: a registration, an
    /// endpoint's drop, a host going up or down, a fault plan, a
    /// topology mutation.
    epoch: AtomicU64,
    next_ep: AtomicU64,
    metrics: MetricsRegistry,
    /// Whether link-layer batching is installed; off keeps every send
    /// on the one-envelope-per-message path.
    batching: AtomicBool,
    /// Links holding an open frame, so a flush with nothing anywhere to
    /// flush takes no lock.
    open_frames: AtomicUsize,
    /// Lock order: `links` before `endpoints` before `topo` before
    /// `link_records`.
    links: Mutex<LinkTable>,
}

/// Handle to the shared simulated network. Cloning is cheap.
#[derive(Clone)]
pub struct Network {
    inner: Arc<NetInner>,
}

/// Split `host:process` into its host part.
fn host_of(addr: &str) -> &str {
    addr.split_once(':').map(|(h, _)| h).unwrap_or(addr)
}

impl Network {
    /// Create a network over the given topology.
    pub fn new(topo: Topology) -> Self {
        Self {
            inner: Arc::new(NetInner {
                topo: RwLock::new(topo),
                link_records: RwLock::new(HashMap::new()),
                endpoints: RwLock::new(HashMap::new()),
                down_hosts: RwLock::new(HashMap::new()),
                faults: RwLock::new(None),
                epoch: AtomicU64::new(0),
                next_ep: AtomicU64::new(1),
                metrics: MetricsRegistry::new(),
                batching: AtomicBool::new(false),
                open_frames: AtomicUsize::new(0),
                links: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Start a new epoch: every route resolved before re-resolves on
    /// its next send. Called after the change is made.
    fn bump_epoch(&self) {
        self.inner.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Register an endpoint at `addr` (`host:process`). The host part must
    /// exist in the topology. Re-registering an address replaces the old
    /// endpoint (its receiver starts seeing `Disconnected`).
    pub fn register(&self, addr: impl Into<String>) -> Result<Endpoint, NetError> {
        self.register_inner(addr.into(), None)
    }

    /// Register a **process** endpoint born at virtual time `birth_t`.
    /// Process endpoints are subject to crash fencing: once a
    /// [`FaultPlan`] crash window opens on their host after `birth_t`,
    /// sends to them fail with [`NetError::UnknownAddress`] — the
    /// process's state died with the host, so the address no longer
    /// names anything, even after the host restarts.
    pub fn register_process(
        &self,
        addr: impl Into<String>,
        birth_t: f64,
    ) -> Result<Endpoint, NetError> {
        self.register_inner(addr.into(), Some(birth_t))
    }

    fn register_inner(&self, addr: String, birth: Option<f64>) -> Result<Endpoint, NetError> {
        let host = host_of(&addr).to_owned();
        if self.inner.topo.read().unwrap().node(&host).is_none() {
            return Err(NetError::UnknownHost(host));
        }
        let addr: Arc<str> = addr.into();
        let mailbox = Mailbox::new();
        let id = self.inner.next_ep.fetch_add(1, Ordering::Relaxed);
        let entry = EpEntry { id, birth, mailbox: mailbox.clone() };
        let replaced = self.inner.endpoints.write().unwrap().insert(addr.clone(), entry);
        self.bump_epoch();
        if let Some(old) = replaced {
            old.mailbox.close();
        }
        Ok(Endpoint { addr, host, mailbox, id, net: self.clone() })
    }

    /// Mark a host up or down. Sends to or from a down host fail.
    pub fn set_host_up(&self, host: &str, up: bool) {
        self.inner.down_hosts.write().unwrap().insert(host.to_owned(), !up);
        self.bump_epoch();
    }

    fn is_down(&self, host: &str) -> bool {
        self.inner.down_hosts.read().unwrap().get(host).copied().unwrap_or(false)
    }

    /// Install (or replace) the deterministic fault-injection plan. The
    /// plan is consulted on every subsequent send. `None` heals the
    /// network.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.inner.faults.write().unwrap() = plan.map(Arc::new);
        self.bump_epoch();
    }

    /// Mutate the topology (e.g. remove links for failure injection).
    /// Starts a new topology epoch: every memoised route is dropped
    /// before the write lock is released, so no send can pair the new
    /// graph with an old route.
    pub fn with_topology_mut<R>(&self, f: impl FnOnce(&mut Topology) -> R) -> R {
        let mut topo = self.inner.topo.write().unwrap();
        let out = f(&mut topo);
        self.inner.link_records.write().unwrap().clear();
        self.bump_epoch();
        out
    }

    /// Read the topology.
    pub fn with_topology<R>(&self, f: impl FnOnce(&Topology) -> R) -> R {
        f(&self.inner.topo.read().unwrap())
    }

    /// The network's metrics registry. Higher layers (Schooner's `obs`,
    /// mplite) adopt this same registry so one snapshot covers the whole
    /// stack.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The memoised record of the directed pair `from -> to`, computing
    /// it on first use within this topology epoch.
    fn link_record(&self, from: &str, to: &str) -> Result<Arc<LinkRecord>, NetError> {
        let topo = self.inner.topo.read().unwrap();
        let f = topo.node(from).ok_or_else(|| NetError::UnknownHost(from.into()))?;
        let t = topo.node(to).ok_or_else(|| NetError::UnknownHost(to.into()))?;
        if let Some(rec) = self.inner.link_records.read().unwrap().get(&(f, t)) {
            return Ok(rec.clone());
        }
        // Computed under the topology read lock, so the route belongs
        // to the epoch it is filed under.
        let m = &self.inner.metrics;
        let rec = Arc::new(LinkRecord {
            from_host: from.to_owned(),
            to_host: to.to_owned(),
            route: topo.shortest_path(f, t),
            msgs: m.counter_handle(format!("net.msg.{from}->{to}")),
            bytes: m.counter_handle(format!("net.bytes.{from}->{to}")),
        });
        self.inner.link_records.write().unwrap().insert((f, t), rec.clone());
        Ok(rec)
    }

    /// Virtual transfer time between two hosts for a payload size.
    pub fn transfer_seconds(&self, from: &str, to: &str, bytes: usize) -> Result<f64, NetError> {
        Ok(self.link_record(from, to)?.path()?.transfer_seconds(bytes))
    }

    /// Resolve the route from address `from` to address `to` in the
    /// current epoch. Resolving never fails: an unknown host, a downed
    /// host, a partition or an unregistered destination is kept as the
    /// outcome a send on the route reports.
    pub fn route(&self, from: &str, to: &str) -> Route {
        // Read before anything it guards: a change made while resolving
        // leaves the route stale, so its next send re-resolves.
        let epoch = self.inner.epoch.load(Ordering::Acquire);
        let (from_host, to_host) = (host_of(from), host_of(to));
        let down = [from_host, to_host]
            .into_iter()
            .find(|h| self.is_down(h))
            .map(|h| NetError::HostDown(h.into()));
        let plan = self.inner.faults.read().unwrap().clone();
        let link = self.link_record(from_host, to_host);
        let eps = self.inner.endpoints.read().unwrap();
        let host_lens = (from_host.len(), to_host.len());
        let (from, to, dest) = ends(&eps, from, to);
        Route { epoch, from, to, host_lens, down, plan, link, dest }
    }

    /// Re-resolve `route` if the network changed since it was resolved.
    fn refresh(&self, route: &mut Route) {
        if route.epoch != self.inner.epoch.load(Ordering::Acquire) {
            let (from, to) = (route.from.clone(), route.to.clone());
            *route = self.route(&from, &to);
        }
    }

    /// Count a failed send under its fault family.
    fn count_fault<T>(&self, result: &Result<T, NetError>) {
        let m = &self.inner.metrics;
        match result {
            Err(NetError::Dropped { .. }) => m.counter_add("net.fault.dropped", 1),
            Err(NetError::Unreachable { .. }) => m.counter_add("net.fault.partitioned", 1),
            Err(NetError::HostDown(_)) => m.counter_add("net.fault.hostdown", 1),
            _ => {}
        }
    }

    /// Send `payload` from `from` (an address) to `to` (an address),
    /// stamping virtual times. `sent_at` is the sender's current virtual
    /// time; the envelope's `arrive_at` adds the route's transfer time.
    /// The same as resolving the [`route`](Network::route) and sending
    /// on it once.
    pub fn send(
        &self,
        from: &str,
        to: &str,
        payload: Bytes,
        sent_at: f64,
    ) -> Result<f64, NetError> {
        self.send_on(&mut self.route(from, to), payload, sent_at)
    }

    /// [`send`](Network::send) on a route resolved earlier; a stale
    /// route is re-resolved first.
    pub fn send_on(
        &self,
        route: &mut Route,
        payload: Bytes,
        sent_at: f64,
    ) -> Result<f64, NetError> {
        self.refresh(route);
        // Successful sends are counted inside `send_inner`, *before*
        // the envelope reaches the receiver's queue: the receiver may
        // act on the message (and something may read the metrics)
        // the moment it is delivered, so counting afterwards races.
        let result = self.send_inner(route, payload, sent_at);
        self.count_fault(&result);
        result
    }

    fn send_inner(&self, route: &Route, payload: Bytes, sent_at: f64) -> Result<f64, NetError> {
        route.check_link(sent_at, true)?;
        let (link, path) = route.path()?;
        let arrive_at = route.arrival(path, sent_at, payload.len());
        let mailbox = self.mailbox(route, sent_at)?;
        // Count the message before it becomes visible to the receiver:
        // a metrics snapshot taken right after delivery must already
        // include every message that caused the state it observes.
        count_message(link, payload.len() as u64);
        let (from, to) = (route.from.clone(), route.to.clone());
        Ok(mailbox.push(Envelope { from, to, payload, sent_at, arrive_at }))
    }

    // ----- admission rules, each stated once -----
    //
    // `send`, the batcher's append and its flush all admit a message by
    // the same rules in the same order: link state
    // (`Route::check_link`), route (`Route::path`), arrival law
    // (`Route::arrival`), destination mailbox (`mailbox` below),
    // counting (`count_message`).

    /// The mailbox registered at the route's destination, as of virtual
    /// time `t`. Crash fencing: a process endpoint born before a crash
    /// of its host no longer exists — the address resolves to nothing,
    /// which the RPC layer classifies as a stale binding.
    fn mailbox<'r>(&self, route: &'r Route, t: f64) -> Result<&'r Mailbox, NetError> {
        let unknown = || NetError::UnknownAddress(route.to.to_string());
        let (mailbox, birth) = route.dest.as_ref().ok_or_else(unknown)?;
        if let (Some(birth), Some(plan)) = (birth, &route.plan) {
            let (_, to_host) = route.hosts();
            if plan.crash_count(to_host, t) > plan.crash_count(to_host, *birth) {
                self.inner.metrics.counter_add("net.fault.fenced", 1);
                return Err(unknown());
            }
        }
        Ok(mailbox)
    }

    /// Install (or clear) link-layer batching. With it installed,
    /// [`send_batched`](Network::send_batched) /
    /// [`send_gather`](Network::send_gather) coalesce messages into
    /// per-link frames; without it they degrade to plain
    /// [`send`](Network::send). Messages already buffered stay on their
    /// links until a flush.
    pub fn set_link_config(&self, cfg: Option<LinkConfig>) {
        self.inner.batching.store(cfg.is_some(), Ordering::Relaxed);
    }

    /// Total (latency seconds, seconds per byte) of the minimum-latency
    /// route between two hosts — the decomposition batching amortizes:
    /// a frame pays the latency term once for all its messages.
    pub fn link_cost(&self, from: &str, to: &str) -> Result<(f64, f64), NetError> {
        Ok(self.link_record(from, to)?.path()?.cost())
    }

    /// Append `payload` to the batched link toward `to`. Convenience
    /// wrapper over [`send_gather`](Network::send_gather) that drops the
    /// outcomes of any flush the append causes.
    pub fn send_batched(
        &self,
        from: &str,
        to: &str,
        payload: Bytes,
        sent_at: f64,
        tag: (u64, u64),
    ) -> Result<Option<f64>, NetError> {
        let write = &mut |b: &mut BytesMut| b.put_slice(&payload);
        let (spare, flushed) = (&mut BytesMut::new(), &mut Vec::new());
        let route = &mut self.route(from, to);
        self.send_gather(route, sent_at, tag, payload.len(), spare, flushed, write)
    }

    /// Scatter-gather append on `route`: `write` emits exactly
    /// `payload_len` bytes of payload in place — into `spare`, which the
    /// caller lends, when the link holds nothing yet, else *directly
    /// into the link frame buffer*. The message is buffered until a
    /// flush threshold fires (size, message count, or linger age; see
    /// the constants on [`LinkConfig`]) or the sender flushes explicitly
    /// with [`flush_link`](Network::flush_link). A flush that finds one
    /// message delivers it as the plain envelope it was written as; only
    /// two or more make a frame.
    ///
    /// Semantics match the unbatched path per logical message: fault
    /// windows and drop ordinals are consumed *at append time* with
    /// this message's send instant, `net.msg`/`net.bytes` count logical
    /// messages, and each message's arrival is computed from its own
    /// payload size — so a frame flushed at its members' send instant
    /// delivers at exactly the unbatched arrival times.
    ///
    /// Every message a flush triggered by this append delivers or fails
    /// is appended to `flushed` as a [`FlushRecord`] — also when the
    /// append itself then fails, so the caller must read `flushed`
    /// before acting on an error. This message's own record is among
    /// them when its frame filled and left at once.
    ///
    /// With batching off the message is written into `spare` and leaves
    /// as a plain envelope at once: the result is its arrival instant,
    /// where a batched append returns `None` and the message's fate is
    /// the [`FlushRecord`] that carries its tag. Either way a message
    /// written into `spare` takes its buffer, leaving it empty; a spare
    /// reclaimed from an earlier message (see [`Bytes::try_into_mut`])
    /// with room for `payload_len` bytes makes that write allocate
    /// nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn send_gather(
        &self,
        route: &mut Route,
        sent_at: f64,
        tag: (u64, u64),
        payload_len: usize,
        spare: &mut BytesMut,
        flushed: &mut Vec<FlushRecord>,
        write: &mut dyn FnMut(&mut BytesMut),
    ) -> Result<Option<f64>, NetError> {
        if !self.inner.batching.load(Ordering::Relaxed) {
            let payload = fill(spare, payload_len, write);
            return self.send_on(route, payload, sent_at).map(Some);
        }
        self.refresh(route);
        let result = self.gather_inner(route, sent_at, tag, payload_len, spare, flushed, write);
        self.count_fault(&result);
        result.map(|()| None)
    }

    #[allow(clippy::too_many_arguments)]
    fn gather_inner(
        &self,
        route: &Route,
        sent_at: f64,
        tag: (u64, u64),
        payload_len: usize,
        spare: &mut BytesMut,
        flushed: &mut Vec<FlushRecord>,
        write: &mut dyn FnMut(&mut BytesMut),
    ) -> Result<(), NetError> {
        let (from_host, to_host) = route.hosts();
        let mut links = self.inner.links.lock().unwrap();
        if !links.get(from_host).is_some_and(|out| out.contains_key(to_host)) {
            links
                .entry(from_host.to_owned())
                .or_default()
                .insert(to_host.to_owned(), Default::default());
        }
        let batcher = links
            .get_mut(from_host)
            .and_then(|out| out.get_mut(to_host))
            .expect("batcher inserted above");

        // Pre-append thresholds: a frame that cannot absorb this
        // message (size/count) or whose oldest member has lingered past
        // its deadline leaves first.
        if let Some(f) = &batcher.frame {
            let over_linger = sent_at - f.first_sent >= LinkConfig::LINGER_S;
            let over_bytes = f.payload_bytes + payload_len as u64 > LinkConfig::MAX_FRAME_BYTES;
            let over_msgs = batcher.tags.len() + 1 > LinkConfig::MAX_FRAME_MSGS;
            if over_linger || over_bytes || over_msgs {
                self.flush_batcher(batcher, route, sent_at, flushed);
            }
        }

        // Per-message admission at the send instant, by the unbatched
        // path's rules (this consumes the link's drop ordinal for this
        // logical message); the arrival law waits for the flush.
        route.check_link(sent_at, true)?;
        let (link, _) = route.path()?;
        self.mailbox(route, sent_at)?;

        // Commit: gather the payload into the held message or the frame
        // (from here on that is the one holder of the message's
        // addresses, send instant and length), and count it. An empty
        // link holds the message as the envelope it would leave as,
        // addressed by the copies the endpoints registered.
        match &mut batcher.frame {
            Some(frame) => frame.push(&route.from, &route.to, sent_at, payload_len, write),
            None => {
                let payload = fill(spare, payload_len, write);
                let (from, to) = (route.from.clone(), route.to.clone());
                batcher.frame = Some(OpenFrame::held(HeldMsg { from, to, sent_at, payload }));
                self.inner.open_frames.fetch_add(1, Ordering::AcqRel);
            }
        }
        batcher.tags.push(tag);
        count_message(link, payload_len as u64);

        // Post-append thresholds: a frame that just filled leaves now,
        // carrying this message with it.
        let frame = batcher.frame.as_ref().expect("appended above");
        let full = frame.payload_bytes >= LinkConfig::MAX_FRAME_BYTES
            || batcher.tags.len() >= LinkConfig::MAX_FRAME_MSGS;
        if full {
            self.flush_batcher(batcher, route, sent_at, flushed);
        }
        Ok(())
    }

    /// Flush the open frame on `route`'s link, if any, appending its
    /// messages' outcomes to `flushed`. `now` is the flusher's virtual
    /// time; the frame leaves at the latest of `now` and its members'
    /// send instants. Senders call this before awaiting a reply so no
    /// request is ever stranded in a buffer — also after batching was
    /// switched off, which stops new appends but not this flush. With
    /// no frame open on any link it takes no lock.
    pub fn flush_link(&self, route: &mut Route, now: f64, flushed: &mut Vec<FlushRecord>) {
        if self.inner.open_frames.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut links = self.inner.links.lock().unwrap();
        let (from_host, to_host) = route.hosts();
        let Some(batcher) = links.get_mut(from_host).and_then(|out| out.get_mut(to_host)) else {
            return;
        };
        if batcher.frame.is_some() {
            self.refresh(route);
            self.flush_batcher(batcher, route, now, flushed);
        }
    }

    /// Flush every open frame on every link (teardown / test sync) and
    /// return their messages' outcomes.
    pub fn flush_all(&self, now: f64) -> Vec<FlushRecord> {
        let mut flushed = Vec::new();
        let mut links = self.inner.links.lock().unwrap();
        for (from_host, outbound) in links.iter_mut() {
            for (to_host, batcher) in outbound {
                if batcher.frame.is_some() {
                    // A route between the bare host names carries the
                    // link's state; each message finds its own ends.
                    let route = self.route(from_host, to_host);
                    self.flush_batcher(batcher, &route, now, &mut flushed);
                }
            }
        }
        flushed
    }

    /// Number of messages buffered (unflushed) on a link.
    pub fn pending_batched(&self, from_host: &str, to_host: &str) -> usize {
        let links = self.inner.links.lock().unwrap();
        links.get(from_host).and_then(|out| out.get(to_host)).map_or(0, |b| b.tags.len())
    }

    /// Flush `batcher`'s open frame. `route` is any current route over
    /// the batcher's link: it carries the link's state, and the ends of
    /// every message it also addresses.
    fn flush_batcher(
        &self,
        batcher: &mut LinkBatcher,
        route: &Route,
        now: f64,
        flushed: &mut Vec<FlushRecord>,
    ) {
        let Some(frame) = batcher.frame.take() else { return };
        self.inner.open_frames.fetch_sub(1, Ordering::AcqRel);
        let flush_t = frame.max_sent.max(now);
        // Link-level check at flush time: a crash, flap, or partition
        // that opened since append fails every message the flush carries.
        let link_err = route.check_link(flush_t, false).err();
        let first = flushed.len();
        let mut deliver = |tag: (u64, u64), msg: FrameMsg| {
            let sent_at = msg.sent_at;
            let result = match &link_err {
                Some(e) => {
                    let failed = Err(e.clone());
                    self.count_fault(&failed);
                    failed
                }
                None => self.deliver_flushed(route, msg, flush_t),
            };
            flushed.push(FlushRecord { tag, sent_at, result });
        };
        match frame.records {
            // A lone message leaves as the envelope it was written
            // as: no frame is built, checksummed or decoded for it.
            Records::Held(HeldMsg { from, to, sent_at, payload }) => {
                deliver(batcher.tags[0], FrameMsg { from: &from, to: &to, sent_at, payload });
            }
            Records::Framed(builder) => {
                // Decode our own frame on every flush: delivery
                // consumes the decoded records — addresses, send
                // instants, payload slices — so a codec regression
                // cannot pass silently.
                let wire = builder.finish();
                let decoded = decode_frame(&wire).expect("link frame failed to decode");
                debug_assert_eq!(decoded.len(), batcher.tags.len());
                for (&tag, msg) in batcher.tags.iter().zip(decoded) {
                    deliver(tag, msg);
                }
            }
        }
        batcher.tags.clear();
        // The batching counters are named at the link's first flush.
        let (flushes, fill) = batcher.counters.get_or_insert_with(|| {
            let m = &self.inner.metrics;
            let (from, to) = route.hosts();
            (
                m.counter_handle(format!("net.batch.flushes.{from}->{to}")),
                m.counter_handle(format!("net.batch.fill.{from}->{to}")),
            )
        });
        flushes.add(1);
        fill.add((flushed.len() - first) as u64);
    }

    /// Deliver one flushed message, held or decoded from its frame.
    /// Arrival is computed from the message's *own* payload size at the
    /// flush instant — the same parallel-wire law as the unbatched path,
    /// so a frame flushed at its members' send instants is time-identical
    /// to per-envelope sends. What batching changes is link *occupancy*:
    /// the route latency is paid once per frame, not once per message.
    fn deliver_flushed(&self, route: &Route, msg: FrameMsg, flush_t: f64) -> Result<f64, NetError> {
        let (_, path) = route.path()?;
        let arrive_at = route.arrival(path, flush_t, msg.payload.len());
        let FrameMsg { from, to, sent_at, payload } = msg;
        // The envelope is what the flush carried, addresses and all (as
        // the registered copies of the text the record carries). A
        // message between other ends of the link finds its own.
        let own;
        let route = if *route.from == *from && *route.to == *to {
            route
        } else {
            let (from, to, dest) = ends(&self.inner.endpoints.read().unwrap(), from, to);
            let host_lens = (host_of(&from).len(), host_of(&to).len());
            own = Route { from, to, host_lens, dest, ..route.clone() };
            &own
        };
        let mailbox = self.mailbox(route, flush_t)?;
        let (from, to) = (route.from.clone(), route.to.clone());
        Ok(mailbox.push(Envelope { from, to, payload, sent_at, arrive_at }))
    }
}

/// Count one *logical* message on its link (frames are not messages).
fn count_message(link: &LinkRecord, bytes: u64) {
    link.msgs.add(1);
    link.bytes.add(bytes);
}

/// Write a `payload_len`-byte payload into `spare` and take it out as
/// the message's buffer, leaving `spare` empty.
fn fill(spare: &mut BytesMut, payload_len: usize, write: &mut dyn FnMut(&mut BytesMut)) -> Bytes {
    spare.clear();
    spare.reserve(payload_len);
    write(spare);
    debug_assert_eq!(spare.len(), payload_len, "writer emitted a different length than declared");
    std::mem::take(spare).freeze()
}

/// The route's ends: the registered copy of each address (a fresh one
/// for an address with no endpoint) and the destination's mailbox and
/// birth.
#[allow(clippy::type_complexity)]
fn ends(
    eps: &HashMap<Arc<str>, EpEntry>,
    from: &str,
    to: &str,
) -> (Arc<str>, Arc<str>, Option<(Mailbox, Option<f64>)>) {
    let from = eps.get_key_value(from).map_or_else(|| from.into(), |(addr, _)| addr.clone());
    match eps.get_key_value(to) {
        Some((addr, entry)) => (from, addr.clone(), Some((entry.mailbox.clone(), entry.birth))),
        None => (from, to.into(), None),
    }
}

/// A registered receiver bound to one address.
pub struct Endpoint {
    addr: Arc<str>,
    host: String,
    mailbox: Mailbox,
    /// Our registration id, kept for identity comparison so a
    /// re-registered address is not torn down by the old endpoint's Drop.
    id: u64,
    net: Network,
}

impl Endpoint {
    /// This endpoint's full address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The host this endpoint lives on.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The network this endpoint belongs to.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Send from this endpoint. Returns the envelope's arrival time.
    pub fn send(&self, to: &str, payload: Bytes, sent_at: f64) -> Result<f64, NetError> {
        self.net.send(&self.addr, to, payload, sent_at)
    }

    /// A handle on this endpoint's mailbox that can only ask whether
    /// mail is waiting.
    pub fn mailbox(&self) -> Mailbox {
        self.mailbox.clone()
    }

    /// Block until a message arrives (or the wall-clock timeout expires —
    /// the timeout is real time, a liveness guard, not simulated time).
    pub fn recv(&self, timeout: Duration) -> Result<Envelope, NetError> {
        let mb = &self.mailbox.inner;
        let mut q = lock(&mb.queue);
        // A zero timeout is one look, with no clock read.
        let started = (!timeout.is_zero()).then(Instant::now);
        loop {
            if let Some(env) = self.mailbox.pop(&mut q) {
                return Ok(env);
            }
            if q.closed {
                return Err(NetError::Disconnected(self.addr.to_string()));
            }
            let left = started.map_or(Duration::ZERO, |t0| timeout.saturating_sub(t0.elapsed()));
            if left.is_zero() {
                return Err(NetError::Timeout);
            }
            q.waiters += 1;
            q = mb.arrived.wait_timeout(q, left).unwrap_or_else(|p| p.into_inner()).0;
            q.waiters -= 1;
        }
    }

    /// Non-blocking receive. An empty mailbox is seen without taking
    /// its lock.
    pub fn try_recv(&self) -> Option<Envelope> {
        if !self.mailbox.has_mail() {
            return None;
        }
        self.mailbox.pop(&mut lock(&self.mailbox.inner.queue))
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        // Only remove the registration if it still points at us; a
        // re-registration may have replaced it.
        let mut eps = self.net.inner.endpoints.write().unwrap();
        if let Some(entry) = eps.get(&*self.addr) {
            if entry.id == self.id {
                eps.remove(&*self.addr);
                self.net.bump_epoch();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Link, NodeKind};

    fn net3() -> Network {
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Host);
        let b = t.add_node("b", NodeKind::Host);
        let c = t.add_node("c", NodeKind::Host);
        let sw = t.add_node("sw", NodeKind::Switch);
        t.add_link(a, sw, Link::ethernet());
        t.add_link(b, sw, Link::ethernet());
        t.add_link(c, sw, Link::internet());
        Network::new(t)
    }

    #[test]
    fn round_trip_message() {
        let net = net3();
        let _pa = net.register("a:main").unwrap();
        let pb = net.register("b:svc").unwrap();
        let arrive = net.send("a:main", "b:svc", Bytes::from_static(b"hello"), 1.0).unwrap();
        let env = pb.recv(Duration::from_secs(1)).unwrap();
        assert_eq!(&env.payload[..], b"hello");
        assert_eq!(&*env.from, "a:main");
        assert!((env.arrive_at - arrive).abs() < 1e-12);
        assert!(env.arrive_at > env.sent_at);
    }

    #[test]
    fn arrival_time_reflects_link_class() {
        let net = net3();
        let _pb = net.register("b:svc").unwrap();
        let _pc = net.register("c:svc").unwrap();
        let t_lan = net.send("a:x", "b:svc", Bytes::from_static(&[0; 100]), 0.0).unwrap();
        let t_wan = net.send("a:x", "c:svc", Bytes::from_static(&[0; 100]), 0.0).unwrap();
        assert!(t_wan > t_lan * 5.0, "WAN {t_wan} should dwarf LAN {t_lan}");
    }

    #[test]
    fn unknown_address_and_host() {
        let net = net3();
        assert_eq!(
            net.send("a:x", "b:ghost", Bytes::new(), 0.0),
            Err(NetError::UnknownAddress("b:ghost".into()))
        );
        assert!(matches!(
            net.send("a:x", "zz:svc", Bytes::new(), 0.0),
            Err(NetError::UnknownHost(_))
        ));
        assert!(matches!(net.register("zz:svc"), Err(NetError::UnknownHost(_))));
    }

    #[test]
    fn down_host_rejects_traffic() {
        let net = net3();
        let _pb = net.register("b:svc").unwrap();
        net.set_host_up("b", false);
        assert_eq!(
            net.send("a:x", "b:svc", Bytes::new(), 0.0),
            Err(NetError::HostDown("b".into()))
        );
        net.set_host_up("b", true);
        assert!(net.send("a:x", "b:svc", Bytes::new(), 0.0).is_ok());
    }

    #[test]
    fn link_failure_is_unreachable() {
        let net = net3();
        let _pc = net.register("c:svc").unwrap();
        net.with_topology_mut(|t| {
            let c = t.node("c").unwrap();
            let sw = t.node("sw").unwrap();
            t.remove_links(c, sw);
        });
        assert!(matches!(
            net.send("a:x", "c:svc", Bytes::new(), 0.0),
            Err(NetError::Unreachable { .. })
        ));
    }

    #[test]
    fn fifo_ordering_preserved() {
        let net = net3();
        let pb = net.register("b:svc").unwrap();
        for i in 0..10u8 {
            net.send("a:x", "b:svc", Bytes::copy_from_slice(&[i]), i as f64).unwrap();
        }
        for i in 0..10u8 {
            let env = pb.recv(Duration::from_secs(1)).unwrap();
            assert_eq!(env.payload[0], i);
        }
    }

    #[test]
    fn recv_timeout() {
        let net = net3();
        let pb = net.register("b:svc").unwrap();
        assert_eq!(pb.recv(Duration::from_millis(10)).unwrap_err(), NetError::Timeout);
    }

    /// The sum of every counter in `net`'s snapshot whose name starts
    /// with `prefix`.
    fn counter_sum(net: &Network, prefix: &str) -> u64 {
        let json = net.metrics().snapshot_json();
        let key = format!("\"{prefix}");
        json.lines()
            .filter_map(|l| l.trim().strip_prefix(&key)?.rsplit_once(": "))
            .map(|(_, v)| v.trim_end_matches(',').parse::<u64>().unwrap())
            .sum()
    }

    #[test]
    fn traffic_counters_accumulate_over_links() {
        let net = net3();
        let _pb = net.register("b:svc").unwrap();
        let _pc = net.register("c:svc").unwrap();
        net.send("a:x", "b:svc", Bytes::from_static(&[0; 64]), 0.0).unwrap();
        net.send("a:x", "b:svc", Bytes::from_static(&[0; 36]), 0.0).unwrap();
        net.send("b:svc", "c:svc", Bytes::from_static(&[0; 11]), 0.0).unwrap();
        assert_eq!((counter_sum(&net, "net.msg."), counter_sum(&net, "net.bytes.")), (3, 111));
    }

    #[test]
    fn metrics_record_per_link_traffic_and_faults() {
        let net = net3();
        let _pb = net.register("b:svc").unwrap();
        net.send("a:x", "b:svc", Bytes::from_static(&[0; 64]), 0.0).unwrap();
        net.send("a:x", "b:svc", Bytes::from_static(&[0; 36]), 0.0).unwrap();
        assert_eq!(net.metrics().counter("net.msg.a->b"), 2);
        assert_eq!(net.metrics().counter("net.bytes.a->b"), 100);
        net.set_host_up("b", false);
        let _ = net.send("a:x", "b:svc", Bytes::new(), 0.0);
        assert_eq!(net.metrics().counter("net.fault.hostdown"), 1);
        net.set_host_up("b", true);
        net.with_topology_mut(|t| {
            let b = t.node("b").unwrap();
            let sw = t.node("sw").unwrap();
            t.remove_links(b, sw);
        });
        let _ = net.send("a:x", "b:svc", Bytes::new(), 0.0);
        assert_eq!(net.metrics().counter("net.fault.partitioned"), 1);
    }

    #[test]
    fn fault_plan_gates_sends_by_virtual_time() {
        let net = net3();
        let _pb = net.register("b:svc").unwrap();
        net.set_fault_plan(Some(
            FaultPlan::new(1).partition(&["a"], &["b"], 1.0, 2.0).host_flap("c", 0.0, 5.0),
        ));
        assert!(net.send("a:x", "b:svc", Bytes::new(), 0.5).is_ok());
        assert!(matches!(
            net.send("a:x", "b:svc", Bytes::new(), 1.5),
            Err(NetError::Unreachable { .. })
        ));
        assert!(matches!(
            net.send("c:x", "b:svc", Bytes::new(), 1.5),
            Err(NetError::HostDown(h)) if h == "c"
        ));
        // Backing off past the window heals the link.
        assert!(net.send("a:x", "b:svc", Bytes::new(), 2.0).is_ok());
        net.set_fault_plan(None);
        assert!(net.send("c:x", "b:svc", Bytes::new(), 1.5).is_ok());
    }

    #[test]
    fn fault_plan_latency_spike_stretches_arrivals() {
        let net = net3();
        let _pb = net.register("b:svc").unwrap();
        let base = net.send("a:x", "b:svc", Bytes::from_static(&[0; 100]), 0.0).unwrap();
        net.set_fault_plan(Some(FaultPlan::new(1).latency_spike(10.0, 11.0, 2.0, 0.5)));
        let spiked = net.send("a:x", "b:svc", Bytes::from_static(&[0; 100]), 10.0).unwrap();
        assert!((spiked - 10.0 - (2.0 * base + 0.5)).abs() < 1e-9);
    }

    #[test]
    fn crash_fences_process_endpoints_but_not_durable_ones() {
        let net = net3();
        let _proc = net.register_process("b:proc-1", 0.0).unwrap();
        let _srv = net.register("b:server").unwrap();
        net.set_fault_plan(Some(FaultPlan::new(1).host_crash("b", 1.0).host_restart("b", 2.0)));

        // Before the crash both are reachable.
        assert!(net.send("a:x", "b:proc-1", Bytes::new(), 0.5).is_ok());
        assert!(net.send("a:x", "b:server", Bytes::new(), 0.5).is_ok());
        // During the window the host is down for everyone.
        assert!(matches!(
            net.send("a:x", "b:proc-1", Bytes::new(), 1.5),
            Err(NetError::HostDown(_))
        ));
        // After the restart the durable endpoint answers again, but the
        // process endpoint died with the host.
        assert!(net.send("a:x", "b:server", Bytes::new(), 2.5).is_ok());
        assert_eq!(
            net.send("a:x", "b:proc-1", Bytes::new(), 2.5),
            Err(NetError::UnknownAddress("b:proc-1".into()))
        );
        // A replacement process born after the restart is reachable.
        let _proc2 = net.register_process("b:proc-2", 2.2).unwrap();
        assert!(net.send("a:x", "b:proc-2", Bytes::new(), 2.5).is_ok());
        net.set_fault_plan(None);
    }

    const SGI: &str = "lerc-sgi-4d480:svc";
    const L1: &str = "lerc-sparc10:l1";
    const LINK: (&str, &str) = ("lerc-sparc10", "lerc-sgi-4d480");

    /// Append a `len`-byte message toward [`SGI`] through `send_gather`,
    /// collecting flush outcomes into `out`.
    fn append(
        net: &Network,
        from: &str,
        t: f64,
        tag: (u64, u64),
        len: usize,
        out: &mut Vec<FlushRecord>,
    ) -> Result<Option<f64>, NetError> {
        let write = &mut |b: &mut BytesMut| b.put_slice(&vec![b'p'; len]);
        let route = &mut net.route(from, SGI);
        net.send_gather(route, t, tag, len, &mut BytesMut::new(), out, write)
    }

    /// A testbed network with batching on and [`SGI`] registered.
    fn batched() -> (Network, Endpoint) {
        let net = Network::new(crate::npss_testbed());
        net.set_link_config(Some(LinkConfig));
        let svc = net.register(SGI).unwrap();
        (net, svc)
    }

    /// Nothing is left on the link to report twice.
    fn assert_link_drained(net: &Network, t: f64) {
        assert_eq!(net.pending_batched(LINK.0, LINK.1), 0);
        let mut later = Vec::new();
        net.flush_link(&mut net.route(L1, SGI), t, &mut later);
        assert!(later.is_empty(), "reported again: {later:?}");
    }

    fn tags(out: &[FlushRecord]) -> Vec<(u64, u64)> {
        out.iter().map(|r| r.tag).collect()
    }

    /// A linger flush before an append that is then refused admission:
    /// the flushed message's failure is reported, not lost with the
    /// append's own error.
    #[test]
    fn an_append_refused_after_a_linger_flush_reports_the_flush() {
        let (net, _svc) = batched();
        let mut out = Vec::new();
        assert_eq!(append(&net, L1, 0.0, (1, 1), 4, &mut out), Ok(None));
        assert!(out.is_empty(), "a lone message is held until a flush");
        net.set_fault_plan(Some(FaultPlan::new(1).partition(&[LINK.0], &[LINK.1], 1.0, 2.0)));
        let err = append(&net, "lerc-sparc10:l2", 1.5, (2, 1), 4, &mut out).unwrap_err();
        assert!(matches!(err, NetError::Unreachable { .. }), "{err:?}");
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!((out[0].tag, out[0].sent_at), ((1, 1), 0.0));
        assert!(matches!(out[0].result, Err(NetError::Unreachable { .. })), "{out:?}");
        assert_link_drained(&net, 3.0);
    }

    /// Switching batching off strands nothing: a message held when it
    /// goes off leaves with the next flush, at the plain path's arrival.
    #[test]
    fn a_message_held_when_batching_goes_off_leaves_with_the_next_flush() {
        let (net, svc) = batched();
        let mut out = Vec::new();
        assert_eq!(append(&net, L1, 0.5, (1, 1), 4, &mut out), Ok(None));
        net.set_link_config(None);
        net.flush_link(&mut net.route(L1, SGI), 0.5, &mut out);

        let plain = Network::new(crate::npss_testbed());
        let _svc = plain.register(SGI).unwrap();
        let arrive = plain.send(L1, SGI, Bytes::from_static(b"pppp"), 0.5).unwrap();
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!((out[0].tag, out[0].sent_at), ((1, 1), 0.5));
        assert_eq!(out[0].result.clone().map(f64::to_bits), Ok(arrive.to_bits()));
        let env = svc.try_recv().expect("the held message reached its mailbox");
        assert_eq!((&env.payload[..], env.arrive_at.to_bits()), (&b"pppp"[..], arrive.to_bits()));
        assert_link_drained(&net, 0.5);
    }

    /// Each flush threshold fires exactly at its constant.
    #[test]
    fn each_flush_threshold_fires_at_its_constant() {
        let mut out = Vec::new();

        // Count: the 31st append stays buffered; the 32nd leaves with
        // its frame.
        let (net, _svc) = batched();
        let last = LinkConfig::MAX_FRAME_MSGS as u64 - 1;
        for i in 0..last {
            append(&net, L1, 0.0, (1, i), 4, &mut out).unwrap();
        }
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(net.pending_batched(LINK.0, LINK.1), LinkConfig::MAX_FRAME_MSGS - 1);
        append(&net, L1, 0.0, (1, last), 4, &mut out).unwrap();
        assert_eq!(tags(&out), (0..=last).map(|i| (1, i)).collect::<Vec<_>>());
        assert_link_drained(&net, 0.0);

        // Bytes: the append that brings the payload to the limit leaves
        // with the frame; one that would pass it flushes the frame first.
        let (net, _svc) = batched();
        let half = LinkConfig::MAX_FRAME_BYTES as usize / 2;
        out.clear();
        append(&net, L1, 0.0, (2, 0), half, &mut out).unwrap();
        append(&net, L1, 0.0, (2, 1), half, &mut out).unwrap();
        assert_eq!(tags(&out), [(2, 0), (2, 1)]);
        assert_link_drained(&net, 0.0);
        out.clear();
        append(&net, L1, 0.0, (3, 0), half, &mut out).unwrap();
        append(&net, L1, 0.0, (3, 1), half + 1, &mut out).unwrap();
        assert_eq!(tags(&out), [(3, 0)]);
        assert_eq!(net.pending_batched(LINK.0, LINK.1), 1);

        // Linger: an append just short of the age joins the frame; one
        // at the age flushes the frame, at its own instant, first.
        let (net, _svc) = batched();
        let just_short = f64::from_bits(LinkConfig::LINGER_S.to_bits() - 1);
        out.clear();
        append(&net, L1, 0.0, (4, 0), 4, &mut out).unwrap();
        append(&net, L1, just_short, (4, 1), 4, &mut out).unwrap();
        assert!(out.is_empty(), "{out:?}");
        append(&net, L1, LinkConfig::LINGER_S, (4, 2), 4, &mut out).unwrap();
        assert_eq!(tags(&out), [(4, 0), (4, 1)]);
        let plain = Network::new(crate::npss_testbed());
        let _svc = plain.register(SGI).unwrap();
        let arrive = plain.send(L1, SGI, Bytes::from_static(b"pppp"), LinkConfig::LINGER_S);
        assert_eq!(out[0].result.clone().map(f64::to_bits), arrive.map(f64::to_bits));
        assert_eq!(net.pending_batched(LINK.0, LINK.1), 1);
    }

    /// A `recv` blocked on a thread of its own wakes on a send, and
    /// returns `Timeout` when nothing is sent.
    #[test]
    fn a_blocked_recv_wakes_on_a_send_and_times_out_without_one() {
        let net = net3();
        let pb = net.register("b:svc").unwrap();
        let waiters = || lock(&pb.mailbox.inner.queue).waiters;
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let t0 = Instant::now();
                (pb.recv(Duration::from_secs(30)), t0.elapsed())
            });
            while waiters() == 0 {
                std::thread::yield_now();
            }
            net.send("a:x", "b:svc", Bytes::from_static(b"wake"), 0.5).unwrap();
            let (got, waited) = waiter.join().unwrap();
            assert_eq!(&got.unwrap().payload[..], b"wake");
            assert!(waited < Duration::from_secs(30), "woken by the send, not the deadline");
        });
        assert_eq!(waiters(), 0);

        let timeout = Duration::from_millis(20);
        let (got, waited) = std::thread::scope(|s| {
            s.spawn(|| {
                let t0 = Instant::now();
                (pb.recv(timeout), t0.elapsed())
            })
            .join()
            .unwrap()
        });
        assert_eq!(got.unwrap_err(), NetError::Timeout);
        assert!(waited >= timeout, "gave up after {waited:?}");
        assert!(!pb.mailbox().has_mail());
        assert_eq!(waiters(), 0);
    }

    /// Re-registering an address leaves the old endpoint disconnected
    /// once it has drained what reached it before.
    #[test]
    fn a_replaced_endpoint_drains_then_reports_disconnected() {
        let net = net3();
        let old = net.register("b:svc").unwrap();
        net.send("a:x", "b:svc", Bytes::from_static(b"before"), 0.0).unwrap();
        let new = net.register("b:svc").unwrap();
        net.send("a:x", "b:svc", Bytes::from_static(b"after"), 0.0).unwrap();
        assert_eq!(&old.recv(Duration::from_secs(1)).unwrap().payload[..], b"before");
        assert!(matches!(old.recv(Duration::from_secs(1)), Err(NetError::Disconnected(_))));
        assert_eq!(&new.try_recv().unwrap().payload[..], b"after");
        drop(old);
        assert!(net.send("a:x", "b:svc", Bytes::new(), 0.0).is_ok(), "the old drop kept the new");
    }

    #[test]
    fn cross_thread_delivery() {
        let net = net3();
        let pb = net.register("b:svc").unwrap();
        let net2 = net.clone();
        let h = std::thread::spawn(move || {
            net2.send("a:x", "b:svc", Bytes::from_static(b"ping"), 0.5).unwrap();
        });
        let env = pb.recv(Duration::from_secs(1)).unwrap();
        assert_eq!(&env.payload[..], b"ping");
        h.join().unwrap();
    }
}
