//! The Schooner system façade: wiring the substrates together.
//!
//! A [`Schooner`] instance owns one simulated world: the network topology,
//! the machine park, the per-host file stores, the program registry, a
//! persistent Manager, and one Server per machine. Modules open *lines*
//! through [`Schooner::open_line`] and from then on speak the library
//! protocol (`start_remote` / `call` / `move_procedure` / `quit`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use hetsim::{FileStore, HostCost, MachinePark};
use netsim::metrics::{Counter, MetricsRegistry};
use netsim::{LinkConfig, NetError, Network, Topology};

use crate::error::{SchError, SchResult};
use crate::line::LineHandle;
use crate::manager::{spawn_manager, ManagerHandle};
use crate::obs::Obs;
use crate::program::{ProgramImage, ProgramRegistry};
use crate::server::spawn_server;
use crate::supervise::{CheckpointStore, Snapshot, SupervisionMap, SupervisionPolicy};
use crate::world::World;
use ledger::{Journal, LedgerHandle};

/// Address of the Manager process for the program rooted at `host`.
pub fn manager_addr(host: &str) -> String {
    format!("{host}:schooner-manager")
}

/// Address of the per-machine Server on `host`.
pub fn server_addr(host: &str) -> String {
    format!("{host}:schooner-server")
}

/// How a world is deployed: where its Manager runs and whether its
/// links batch call requests.
#[derive(Debug, Clone)]
pub struct SchoonerConfig {
    /// Host the Manager process runs on.
    pub manager_host: String,
    /// Link-layer batching. `None` (the default) sends every call
    /// request as its own network message; `Some` coalesces call
    /// requests per `(sending host, receiving host)` link into framed
    /// batches (see [`netsim::LinkConfig`]). Manager and reply traffic
    /// is never batched — only the client-side call-request data plane,
    /// which is issued in deterministic virtual-time order.
    pub link_batching: Option<LinkConfig>,
}

impl Default for SchoonerConfig {
    fn default() -> Self {
        Self { manager_host: "lerc-sparc10".to_owned(), link_batching: None }
    }
}

impl SchoonerConfig {
    /// Start a builder from the defaults; override just the fields that
    /// matter: `SchoonerConfig::builder().manager_host(..).build()`.
    pub fn builder() -> SchoonerConfigBuilder {
        SchoonerConfigBuilder { config: Self::default() }
    }
}

/// Builder for [`SchoonerConfig`]: one chained setter per field over the
/// default configuration.
#[derive(Debug, Clone)]
pub struct SchoonerConfigBuilder {
    config: SchoonerConfig,
}

impl SchoonerConfigBuilder {
    /// Host the Manager process runs on.
    pub fn manager_host(mut self, host: &str) -> Self {
        self.config.manager_host = host.to_owned();
        self
    }

    /// Coalesce call requests into per-link framed batches.
    pub fn link_batching(mut self, cfg: LinkConfig) -> Self {
        self.config.link_batching = Some(cfg);
        self
    }

    /// Finish the configuration.
    pub fn build(self) -> SchoonerConfig {
        self.config
    }
}

/// Flops charged per scalar converted during marshaling.
const PER_SCALAR_FLOPS: f64 = 80.0;

/// Virtual seconds a host spends converting `scalars` values between
/// its native format and the wire, charged through the host's cost
/// handle.
pub(crate) fn marshal_seconds(cost: &HostCost, scalars: usize) -> f64 {
    cost.compute_seconds(scalars as f64 * PER_SCALAR_FLOPS)
}

/// The counters the RPC path adds to, resolved once per world so a
/// call updates them without a registry lookup by name.
#[derive(Clone)]
pub(crate) struct RpcCounters {
    /// `rpc.calls`
    pub(crate) calls: Counter,
    /// `rpc.request_bytes`
    pub(crate) request_bytes: Counter,
    /// `rpc.reply_bytes`
    pub(crate) reply_bytes: Counter,
    /// `uts.encode_bytes`, on both sides of the wire.
    pub(crate) encode_bytes: Counter,
    /// `uts.fast_path_hits`, on both sides of the wire.
    pub(crate) fast_path_hits: Counter,
    /// `rpc.retries.stale`
    pub(crate) stale_retries: Counter,
    /// `rpc.retries.policy`
    pub(crate) policy_retries: Counter,
    /// `rpc.failovers`
    pub(crate) failovers: Counter,
    /// `rpc.fenced_replies`
    pub(crate) fenced_replies: Counter,
    /// `rpc.manager_lookups`
    pub(crate) manager_lookups: Counter,
}

impl RpcCounters {
    fn resolve(m: &MetricsRegistry) -> Self {
        Self {
            calls: m.counter_handle("rpc.calls"),
            request_bytes: m.counter_handle("rpc.request_bytes"),
            reply_bytes: m.counter_handle("rpc.reply_bytes"),
            encode_bytes: m.counter_handle("uts.encode_bytes"),
            fast_path_hits: m.counter_handle("uts.fast_path_hits"),
            stale_retries: m.counter_handle("rpc.retries.stale"),
            policy_retries: m.counter_handle("rpc.retries.policy"),
            failovers: m.counter_handle("rpc.failovers"),
            fenced_replies: m.counter_handle("rpc.fenced_replies"),
            manager_lookups: m.counter_handle("rpc.manager_lookups"),
        }
    }
}

/// Everything a runtime component needs to participate in the simulation.
#[derive(Clone)]
pub struct RuntimeCtx {
    /// The simulated network.
    pub net: Network,
    /// The machine park (architectures, speeds, load).
    pub park: MachinePark,
    /// Per-host virtual file stores.
    pub files: FileStore,
    /// Registry of installable program images.
    pub registry: ProgramRegistry,
    /// The typed observability sink: events, call spans, and the metrics
    /// registry (shared with [`RuntimeCtx::net`]'s).
    pub obs: Obs,
    /// Per-executable supervision policies, consulted by the Manager
    /// when a supervised process dies.
    pub supervision: SupervisionMap,
    /// Cost-model configuration.
    pub config: Arc<SchoonerConfig>,
    /// World-local counter giving every process a unique address suffix.
    /// Per-world (not process-global) so that two identical worlds built
    /// in the same OS process number their processes identically — the
    /// metrics snapshot and event transcript of a seeded run are then
    /// byte-reproducible no matter how many worlds ran before it.
    pub proc_counter: Arc<AtomicU64>,
    /// The Manager's retained checkpoints. Held in the shared context
    /// (not privately by the Manager worker) so journal-driven recovery
    /// can seed it *before* the Manager serves its first restore.
    pub checkpoints: CheckpointStore,
    /// Incarnation counter for supervised processes. The next respawn
    /// takes `fetch_add(1)`; recovery from a journal floor-bumps it via
    /// `RuntimeCtx::bump_incarnation_floor` so post-recovery
    /// incarnations are strictly newer than anything journaled.
    pub incarnations: Arc<AtomicU64>,
    /// Delivery failures of *batched* call requests, keyed by the
    /// message tag `(line, call)`. When one line's flush carries another
    /// line's coalesced request and that delivery fails, the failure is
    /// parked here; the owning line claims it at collect time and feeds
    /// it into its [`CallPolicy`](crate::CallPolicy) exactly as a
    /// synchronous send error would have been. Written only through
    /// the runtime's park, take and clear methods, which keep
    /// `parked` equal to its length.
    pub batch_failures: Arc<Mutex<HashMap<(u64, u64), NetError>>>,
    /// Entries in [`RuntimeCtx::batch_failures`]: a collect that finds
    /// none parked takes no lock.
    pub(crate) parked: Arc<AtomicUsize>,
    /// The world's actors — Manager, Servers, processes — which run
    /// whenever a line (or the Manager itself) waits for a message.
    pub(crate) world: World,
    /// The RPC path's counters in [`RuntimeCtx::obs`]'s registry.
    pub(crate) rpc: RpcCounters,
}

impl RuntimeCtx {
    /// The world's durable-journal handle (shared with
    /// [`RuntimeCtx::obs`]; unattached until
    /// [`Schooner::attach_journal`]).
    pub fn ledger(&self) -> &LedgerHandle {
        self.obs.ledger()
    }

    /// Ensure the next allocated incarnation is at least `floor`.
    /// Raising the counter is always safe: fencing discards replies
    /// from incarnations *older* than a line's binding, so skipping
    /// numbers can never mis-fence.
    pub(crate) fn bump_incarnation_floor(&self, floor: u64) {
        self.incarnations.fetch_max(floor, Ordering::SeqCst);
    }

    /// Park the delivery failure of a batched message owned by another
    /// line (or by a call this line will only examine at collect time).
    pub(crate) fn park_batch_failure(&self, tag: (u64, u64), err: NetError) {
        let mut parked = self.batch_failures.lock().unwrap();
        parked.insert(tag, err);
        self.parked.store(parked.len(), Ordering::Release);
    }

    /// Claim the parked delivery failure for `(line, call)`, if any.
    pub fn take_batch_failure(&self, tag: (u64, u64)) -> Option<NetError> {
        if self.parked.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut parked = self.batch_failures.lock().unwrap();
        let taken = parked.remove(&tag);
        self.parked.store(parked.len(), Ordering::Release);
        taken
    }

    /// Drop every parked failure belonging to `line` — called when the
    /// line quits so abandoned tickets cannot leak entries.
    pub(crate) fn clear_batch_failures(&self, line: u64) {
        if self.parked.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut parked = self.batch_failures.lock().unwrap();
        parked.retain(|(l, _), _| *l != line);
        self.parked.store(parked.len(), Ordering::Release);
    }
}

/// A running Schooner world.
pub struct Schooner {
    ctx: RuntimeCtx,
    manager: Option<ManagerHandle>,
    line_counter: AtomicU64,
}

impl Schooner {
    /// Build a world over an explicit topology and machine park. Starts a
    /// Server on every park host present in the topology and the Manager
    /// on `config.manager_host`.
    pub fn new(topology: Topology, park: MachinePark, config: SchoonerConfig) -> SchResult<Self> {
        let net = Network::new(topology);
        net.set_link_config(config.link_batching);
        // The world's sink adopts the network's registry so transport
        // counters and RPC metrics land in one snapshot.
        let obs = Obs::with_metrics(net.metrics().clone());
        let rpc = RpcCounters::resolve(net.metrics());
        let checkpoints = CheckpointStore::new();
        let ctx = RuntimeCtx {
            net,
            park,
            files: FileStore::new(),
            registry: ProgramRegistry::new(),
            obs,
            supervision: SupervisionMap::new(),
            config: Arc::new(config),
            proc_counter: Arc::new(AtomicU64::new(1)),
            checkpoints,
            incarnations: Arc::new(AtomicU64::new(1)),
            batch_failures: Arc::new(Mutex::new(HashMap::new())),
            parked: Arc::new(AtomicUsize::new(0)),
            world: World::default(),
            rpc,
        };
        let hosts: Vec<String> = ctx
            .park
            .hosts()
            .into_iter()
            .filter(|h| ctx.net.with_topology(|t| t.node(h).is_some()))
            .map(str::to_owned)
            .collect();
        if !hosts.iter().any(|h| *h == ctx.config.manager_host) {
            return Err(SchError::Other(format!(
                "manager host '{}' is not a machine in the topology",
                ctx.config.manager_host
            )));
        }
        for h in &hosts {
            spawn_server(ctx.clone(), h)?;
        }
        let manager = spawn_manager(ctx.clone())?;
        Ok(Self { ctx, manager: Some(manager), line_counter: AtomicU64::new(1) })
    }

    /// The standard NPSS world: the two-site testbed topology and machine
    /// park, Manager on the LeRC Sparc 10.
    pub fn standard() -> SchResult<Self> {
        Self::new(netsim::npss_testbed(), hetsim::standard_park(), SchoonerConfig::default())
    }

    /// The standard world with a custom config.
    pub fn standard_with(config: SchoonerConfig) -> SchResult<Self> {
        Self::new(netsim::npss_testbed(), hetsim::standard_park(), config)
    }

    /// Shared runtime context.
    pub fn ctx(&self) -> &RuntimeCtx {
        &self.ctx
    }

    /// The Manager's address.
    pub fn manager_address(&self) -> String {
        manager_addr(&self.ctx.config.manager_host)
    }

    /// Register a program image under `path` and install it on `hosts`.
    pub fn install_program(
        &self,
        path: &str,
        image: ProgramImage,
        hosts: &[&str],
    ) -> SchResult<()> {
        self.ctx.registry.register(path, image)?;
        for h in hosts {
            self.ctx.registry.install(&self.ctx.files, path, h)?;
        }
        Ok(())
    }

    /// Install the supervision policy applied when a process started
    /// from `path` is declared dead. Paths without a policy restart in
    /// place.
    pub fn set_supervision_policy(&self, path: &str, policy: SupervisionPolicy) {
        self.ctx.supervision.set(path, policy);
    }

    /// Attach a fresh durable journal at `path` (truncating any
    /// existing file). From this moment every obs event, checkpoint
    /// write, eviction, and supervision verdict is appended to it; the
    /// journal outlives the world, so a later process can rebuild
    /// Manager state from the file alone.
    pub fn attach_journal(&self, path: &std::path::Path) -> SchResult<()> {
        let journal = Journal::create(path).map_err(|e| SchError::Other(e.to_string()))?;
        self.ctx.obs.ledger().attach(journal).map_err(|e| SchError::Other(e.to_string()))
    }

    /// Re-attach an *existing* journal at `path` for crash recovery:
    /// replay it (discarding a torn final record, if any), keep the
    /// surviving history, and continue appending with the next sequence
    /// number. Returns the replay so the caller can rebuild state from
    /// the records.
    pub fn resume_journal(&self, path: &std::path::Path) -> SchResult<ledger::Replay> {
        let (journal, replay) =
            Journal::open_append(path).map_err(|e| SchError::Other(e.to_string()))?;
        self.ctx.obs.ledger().attach(journal).map_err(|e| SchError::Other(e.to_string()))?;
        Ok(replay)
    }

    /// Append the current metrics snapshot to the attached journal,
    /// returning its sequence id (`None` when no journal is attached).
    /// Makes `replay --metrics` on the file answer exactly what the live
    /// registry would, as of this sequence point.
    pub fn journal_metrics_snapshot(&self) -> Option<u64> {
        let handle = self.ctx.obs.ledger();
        if !handle.is_attached() {
            return None;
        }
        let json = self.ctx.obs.metrics().snapshot_json();
        // t = 0.0 clamps up to the journal's monotone virtual clock.
        handle.append(0.0, ledger::RecordKind::MetricsSnapshot { json })
    }

    /// Pre-seed this (fresh) world's checkpoint store and incarnation
    /// floor from a replayed journal: the store ends up holding exactly
    /// the snapshots the crashed world's Manager retained (journaled
    /// evictions replay too), and no incarnation number from the dead
    /// world can ever be reissued.
    pub fn seed_recovery(&self, repo: &ledger::Repository) {
        for cp in repo.retained_checkpoints() {
            self.ctx.checkpoints.put(
                cp.line,
                cp.path,
                Snapshot {
                    state: bytes::Bytes::copy_from_slice(cp.state),
                    taken_at: cp.taken_at,
                    incarnation: cp.incarnation,
                },
            );
        }
        self.ctx.bump_incarnation_floor(repo.max_incarnation() + 1);
    }

    /// Register a module with the Manager and open a new line for it. The
    /// module's code runs on `host` (the AVS machine, in NPSS terms).
    pub fn open_line(&self, module: &str, host: &str) -> SchResult<LineHandle> {
        let n = self.line_counter.fetch_add(1, Ordering::Relaxed);
        LineHandle::open(self.ctx.clone(), self.manager_address(), module, host, n)
    }

    /// Shut the world down: all processes, all Servers, the Manager —
    /// then commit the attached journal, if any, so the file holds every
    /// record even while an [`Obs`] clone (an executive's, say) outlives
    /// the world.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if let Some(manager) = self.manager.take() {
            manager.shutdown(&self.ctx);
            // Actors hold a `RuntimeCtx`, which holds the world.
            self.ctx.world.clear();
            let _ = self.ctx.obs.ledger().commit();
        }
    }
}

impl Drop for Schooner {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_overrides_only_named_fields() {
        let c = SchoonerConfig::builder().manager_host("ua-sparc10").build();
        assert_eq!(c.manager_host, "ua-sparc10");
        assert!(c.link_batching.is_none());
    }
}
