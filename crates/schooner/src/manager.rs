//! The Schooner Manager.
//!
//! One Manager exists per executing program. It is **persistent** — in the
//! extended model it outlives individual simulation runs and is explicitly
//! created and terminated — and it is responsible for:
//!
//! * the dynamic startup protocol: modules contact it at runtime and ask
//!   for remote procedures to be started on specific machines (it forwards
//!   the work to the per-machine Servers);
//! * the procedure-location mapping tables — one **per line**, plus one
//!   for **shared** procedures, consulted in that order — with upper/
//!   lower-case Fortran name synonyms (names are keyed case-insensitively,
//!   the resolution adopted after the Cray port);
//! * runtime **type-checking** of bindings: an import specification is
//!   checked against the stored export specification before a location is
//!   handed out;
//! * per-line **shutdown**: `sch_i_quit` (or an error) terminates only the
//!   remote procedures of the affected line;
//! * **procedure migration**, including the state-variable transfer
//!   extension for procedures whose specs carry a `state(...)` clause.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::Bytes;
use ledger::RecordKind;
use netsim::{Endpoint, NetError, VirtualClock};
use uts::check::check_import_against_export;
use uts::spec::{Direction, ProcSpec};

use crate::error::{SchError, SchResult};
use crate::message::{MapInfo, Msg, StartedInfo, WireFault};
use crate::obs::EventKind;
use crate::supervise::{CheckpointStore, Health, HealthMonitor, Snapshot, SupervisionPolicy};
use crate::system::{manager_addr, server_addr, RuntimeCtx};
use crate::world::{Actor, Step};

/// Handle to the world's Manager.
pub(crate) struct ManagerHandle {
    addr: String,
}

impl ManagerHandle {
    /// Terminate the Manager (which first terminates every process it
    /// knows about and every Server) and run the world until every
    /// actor has seen its shutdown message.
    pub(crate) fn shutdown(self, ctx: &RuntimeCtx) {
        let host = self.addr.split(':').next().unwrap_or_default().to_owned();
        let _ =
            ctx.net.send(&format!("{host}:system"), &self.addr, Msg::ManagerShutdown.encode(), 0.0);
        ctx.world.run_until_idle();
    }
}

/// Consecutive heartbeat misses before the Manager declares a suspect
/// process dead and runs its supervision policy.
const HEARTBEAT_MISS_THRESHOLD: u32 = 2;

/// Register the Manager on `ctx.config.manager_host` with the world.
pub(crate) fn spawn_manager(ctx: RuntimeCtx) -> SchResult<ManagerHandle> {
    let addr = manager_addr(&ctx.config.manager_host);
    let endpoint = ctx.net.register(addr.clone())?;
    let monitor = HealthMonitor::new(HEARTBEAT_MISS_THRESHOLD);
    let checkpoints = ctx.checkpoints.clone();
    let world = ctx.world.clone();
    let mailbox = endpoint.mailbox();
    let manager = ManagerWorker {
        ctx,
        endpoint,
        clock: VirtualClock::new(),
        lines: BTreeMap::new(),
        shared: NameDb::default(),
        backlog: VecDeque::new(),
        monitor,
        checkpoints,
        next_line: 1,
        next_req: 1,
    };
    world.spawn(manager, mailbox);
    Ok(ManagerHandle { addr })
}

/// One procedure's entry in a mapping table.
#[derive(Debug, Clone)]
struct ProcEntry {
    /// Address of the process exporting it.
    addr: String,
    /// Host that process runs on.
    host: String,
    /// Executable path it was started from (needed for migration).
    path: String,
    /// The exact exported name at the process (after case folding).
    remote_name: String,
    /// The export specification.
    spec: ProcSpec,
    /// Incarnation of the instance currently serving this entry.
    incarnation: u64,
}

impl ProcEntry {
    /// The binding a caller receives for this entry.
    fn map_info(&self) -> MapInfo {
        MapInfo {
            addr: self.addr.clone(),
            remote_name: self.remote_name.clone(),
            export_spec: self.spec.to_source(),
            incarnation: self.incarnation,
        }
    }
}

/// Where a replacement process gets its state from.
enum StateFrom {
    /// The latest retained checkpoint, if any (crash recovery).
    Checkpoint,
    /// A blob fetched live from the old instance before it is fenced
    /// (migration); `None` when that process declares no state.
    Live(Option<Bytes>),
}

/// A name database: keys are case-folded so that upper- and lower-case
/// spellings are synonyms. Entries are shared, so resolving a name hands
/// out the entry without copying its strings or its specification; a
/// rebind copies only an entry some resolution still holds.
#[derive(Debug, Clone, Default)]
struct NameDb {
    map: HashMap<String, Arc<ProcEntry>>,
}

impl NameDb {
    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    fn get(&self, name: &str) -> Option<&Arc<ProcEntry>> {
        self.map.get(&Self::key(name))
    }

    fn contains(&self, name: &str) -> bool {
        self.map.contains_key(&Self::key(name))
    }

    fn insert(&mut self, name: &str, entry: ProcEntry) {
        self.map.insert(Self::key(name), Arc::new(entry));
    }

    /// Distinct process addresses in this database.
    fn addrs(&self) -> Vec<String> {
        let mut v: Vec<String> = self.map.values().map(|e| e.addr.clone()).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Rebind every entry that pointed at `old_addr` to a new location.
    /// `name_map` maps case-folded original names to the new remote names.
    fn rebind(
        &mut self,
        old_addr: &str,
        new_addr: &str,
        new_host: &str,
        name_map: &[String],
        new_incarnation: u64,
    ) {
        for entry in self.map.values_mut() {
            if entry.addr == old_addr {
                let entry = Arc::make_mut(entry);
                entry.addr = new_addr.to_owned();
                entry.host = new_host.to_owned();
                entry.incarnation = new_incarnation;
                if let Some(n) =
                    name_map.iter().find(|n| n.eq_ignore_ascii_case(&entry.remote_name))
                {
                    entry.remote_name = n.clone();
                }
            }
        }
    }
}

/// State of one line.
#[derive(Debug, Default)]
struct LineState {
    module: String,
    db: NameDb,
}

struct ManagerWorker {
    ctx: RuntimeCtx,
    endpoint: Endpoint,
    clock: VirtualClock,
    /// Ordered by id, so a world torn down with lines still open shuts
    /// them down (and journals it) in the same order every run.
    lines: BTreeMap<u64, LineState>,
    shared: NameDb,
    /// Messages received while awaiting a specific reply.
    backlog: VecDeque<Msg>,
    /// Heartbeat accounting for supervised addresses.
    monitor: HealthMonitor,
    /// Recent `state(...)` snapshots per supervised process — the
    /// world-shared store from [`RuntimeCtx::checkpoints`], so recovery
    /// code outside the Manager can pre-seed it from a journal.
    checkpoints: CheckpointStore,
    next_line: u64,
    next_req: u64,
}

impl Actor for ManagerWorker {
    fn step(&mut self) -> Step {
        let msg = match self.backlog.pop_front() {
            Some(m) => m,
            None => {
                let Some(env) = self.endpoint.try_recv() else { return Step::Idle };
                self.clock.merge(env.arrive_at);
                let Ok(m) = Msg::decode(env.payload) else { return Step::Worked };
                m
            }
        };
        if self.dispatch(msg) {
            Step::Worked
        } else {
            Step::Done
        }
    }

    fn has_backlog(&self) -> bool {
        !self.backlog.is_empty()
    }
}

/// Virtual seconds of Manager bookkeeping per handled request.
const MANAGER_OVERHEAD_S: f64 = 0.4e-3;

impl ManagerWorker {
    fn send(&self, to: &str, msg: &Msg) -> SchResult<()> {
        self.endpoint.send(to, msg.encode(), self.clock.now())?;
        Ok(())
    }

    /// Wait for the reply `want` accepts — it hands back the reply's
    /// payload, or the message itself, which is buffered for the
    /// dispatch loop. The wait drives the world (the Server or process
    /// that owes the reply runs inside it); a world gone quiescent means
    /// the reply is lost.
    fn await_reply<T>(&mut self, want: impl Fn(Msg) -> Result<T, Msg>) -> SchResult<T> {
        loop {
            let env =
                self.ctx.world.recv(&self.endpoint).map_err(|_| SchError::ManagerUnavailable)?;
            self.clock.merge(env.arrive_at);
            let Ok(msg) = Msg::decode(env.payload) else { continue };
            match want(msg) {
                Ok(payload) => return Ok(payload),
                Err(msg) => self.backlog.push_back(msg),
            }
        }
    }

    fn fresh_req(&mut self) -> u64 {
        let r = self.next_req;
        self.next_req += 1;
        r
    }

    /// The name database of a process scope: a line's, or the shared
    /// one for scope 0.
    fn db(&self, scope: u64) -> &NameDb {
        if scope == 0 {
            &self.shared
        } else {
            &self.lines[&scope].db
        }
    }

    fn db_mut(&mut self, scope: u64) -> &mut NameDb {
        if scope == 0 {
            &mut self.shared
        } else {
            &mut self.lines.get_mut(&scope).expect("scope of a located entry").db
        }
    }

    /// Handle one message; returns false to terminate.
    fn dispatch(&mut self, msg: Msg) -> bool {
        self.clock.advance(MANAGER_OVERHEAD_S);
        match msg {
            Msg::OpenLine { req, module, reply_to } => {
                let line = self.next_line;
                self.next_line += 1;
                self.lines
                    .insert(line, LineState { module: module.clone(), db: NameDb::default() });
                self.ctx.obs.emit(self.clock.now(), EventKind::LineOpened { line, module });
                let _ = self.send(&reply_to, &Msg::LineOpened { req, line });
            }
            Msg::StartRequest { req, line, path, host, shared, reply_to } => {
                let result =
                    self.handle_start(line, &path, &host, shared).map_err(|e| WireFault::from(&e));
                let _ = self.send(&reply_to, &Msg::StartReply { req, result });
            }
            Msg::MapRequest { req, line, name, import_spec, suspect_addr, reply_to } => {
                let result = self
                    .handle_map(line, &name, &import_spec, &suspect_addr)
                    .map_err(|e| WireFault::from(&e));
                let _ = self.send(&reply_to, &Msg::MapReply { req, result });
            }
            Msg::CheckpointRequest { req, line, name, reply_to } => {
                let result = self.handle_checkpoint(line, &name).map_err(|e| WireFault::from(&e));
                let _ = self.send(&reply_to, &Msg::CheckpointReply { req, result });
            }
            Msg::RestoreRequest { req, line, name, reply_to } => {
                let result = self.handle_restore(line, &name).map_err(|e| WireFault::from(&e));
                let _ = self.send(&reply_to, &Msg::RestoreReply { req, result });
            }
            Msg::IQuit { req, line, reply_to } => {
                self.shutdown_line(line);
                // Parked batched-delivery failures for the departing
                // line will never be claimed; drop them here too in case
                // the module died without running its handle's cleanup.
                self.ctx.clear_batch_failures(line);
                let _ = self.send(&reply_to, &Msg::IQuitAck { req });
            }
            Msg::MoveRequest { req, line, name, target_host, reply_to } => {
                let result =
                    self.handle_move(line, &name, &target_host).map_err(|e| WireFault::from(&e));
                let _ = self.send(&reply_to, &Msg::MoveReply { req, result });
            }
            Msg::ManagerShutdown => {
                while let Some((&l, _)) = self.lines.first_key_value() {
                    self.shutdown_line(l);
                }
                for addr in self.shared.addrs() {
                    let _ = self.send(&addr, &Msg::ProcShutdown);
                }
                self.shared = NameDb::default();
                for host in self.ctx.park.hosts() {
                    let _ = self.send(&server_addr(host), &Msg::ServerShutdown);
                }
                self.ctx.obs.emit(self.clock.now(), EventKind::ManagerShutdown);
                return false;
            }
            // Stale replies from completed exchanges are ignored.
            _ => {}
        }
        true
    }

    /// Start `path` on `host`, registering the exports in the line's (or
    /// the shared) database.
    fn handle_start(
        &mut self,
        line: u64,
        path: &str,
        host: &str,
        shared: bool,
    ) -> SchResult<StartedInfo> {
        if !shared && !self.lines.contains_key(&line) {
            return Err(SchError::UnknownLine(line));
        }
        let scope = if shared { 0 } else { line };
        let info = self.start_process_on(scope, path, host)?;

        // Parse the export spec and pre-check for duplicates before
        // mutating any table.
        let spec = uts::parse_spec_file(&info.spec_src)?;
        let exports = spec.decls.iter().filter(|d| d.direction == Direction::Export);
        if let Some(dup) = exports.clone().find(|d| self.db(scope).contains(&d.name)) {
            // Undo: terminate the just-started process.
            let _ = self.send(&info.addr, &Msg::ProcShutdown);
            return Err(SchError::DuplicateProcedure { name: dup.name.clone(), line });
        }

        let db = self.db_mut(scope);
        for decl in exports {
            let remote_name = info
                .proc_names
                .iter()
                .find(|n| n.eq_ignore_ascii_case(&decl.name))
                .cloned()
                .unwrap_or_else(|| decl.name.clone());
            db.insert(
                &decl.name,
                ProcEntry {
                    addr: info.addr.clone(),
                    host: host.to_owned(),
                    path: path.to_owned(),
                    remote_name,
                    spec: decl.clone(),
                    incarnation: info.incarnation,
                },
            );
        }
        self.ctx.obs.emit(
            self.clock.now(),
            EventKind::ExportsRegistered {
                count: spec.decls.len(),
                path: path.to_owned(),
                addr: info.addr.clone(),
                line: (scope != 0).then_some(scope),
            },
        );
        Ok(info)
    }

    /// Ask the Server on `host` to start a process and wait for its reply.
    /// Every start — initial, migration, or crash recovery — gets a fresh,
    /// strictly larger incarnation number (from the world-shared counter,
    /// so a journal-driven recovery can floor-bump past dead history).
    fn start_process_on(&mut self, scope: u64, path: &str, host: &str) -> SchResult<StartedInfo> {
        let req = self.fresh_req();
        let incarnation = self.ctx.incarnations.fetch_add(1, Ordering::SeqCst);
        self.send(
            &server_addr(host),
            &Msg::StartProcess {
                req,
                line: scope,
                path: path.to_owned(),
                incarnation,
                reply_to: self.endpoint.addr().to_owned(),
            },
        )?;
        let info = self
            .await_reply(|m| match m {
                Msg::ProcessStarted { req: r, result } if r == req => Ok(result),
                m => Err(m),
            })?
            .map_err(WireFault::into_error)?;
        // Journal every incarnation actually issued, so a journal-seeded
        // successor world floor-bumps past it and can never hand the
        // number out again.
        self.journal_verdict(&info.addr, info.incarnation, "started");
        Ok(info)
    }

    /// Resolve a name for a line — its own database first, then shared —
    /// returning the shared entry and its process scope (the line, or 0
    /// for a shared procedure).
    fn locate(&self, line: u64, name: &str) -> SchResult<(Arc<ProcEntry>, u64)> {
        let state = self.lines.get(&line).ok_or(SchError::UnknownLine(line))?;
        if let Some(e) = state.db.get(name) {
            return Ok((Arc::clone(e), line));
        }
        self.shared
            .get(name)
            .map(|e| (Arc::clone(e), 0))
            .ok_or_else(|| SchError::UnknownProcedure(name.to_owned()))
    }

    fn handle_map(
        &mut self,
        line: u64,
        name: &str,
        import_spec: &str,
        suspect_addr: &str,
    ) -> SchResult<MapInfo> {
        let (mut entry, scope) = self.locate(line, name)?;

        // A caller reported the current binding unreachable. Probe it
        // with a heartbeat; only a dead verdict triggers recovery, so
        // one slandered healthy process is never restarted.
        if !suspect_addr.is_empty() && suspect_addr == entry.addr {
            let verdict = match self.monitor.health(&entry.addr) {
                Health::Dead => Health::Dead,
                _ => self.probe(&entry.addr.clone()),
            };
            match verdict {
                Health::Healthy => {}
                Health::Suspect(_) => {
                    // Below the declare-dead threshold: make the caller
                    // back off and retry rather than recovering early.
                    return Err(SchError::ProcessGone(entry.addr.clone()));
                }
                Health::Dead => {
                    entry = self.recover(scope, name, &entry)?;
                }
            }
        }

        if !import_spec.is_empty() {
            let imports = uts::parse_spec_file(import_spec)?;
            let import =
                imports.decls.iter().find(|d| d.name.eq_ignore_ascii_case(name)).ok_or_else(
                    || SchError::Other(format!("import spec does not declare '{name}'")),
                )?;
            check_import_against_export(import, &entry.spec)?;
        }
        self.ctx.obs.emit(
            self.clock.now(),
            EventKind::Mapped { name: name.to_owned(), line, addr: entry.addr.clone() },
        );
        Ok(entry.map_info())
    }

    /// Send one heartbeat to `addr` and update the monitor with the
    /// outcome. A vanished endpoint is dead on the spot; an unreachable
    /// host or a silent process counts as one missed beat.
    fn probe(&mut self, addr: &str) -> Health {
        let req = self.fresh_req();
        let ping = Msg::Ping { req, reply_to: self.endpoint.addr().to_owned() };
        match self.endpoint.send(addr, ping.encode(), self.clock.now()) {
            Err(NetError::UnknownAddress(_)) | Err(NetError::Disconnected(_)) => {
                // The endpoint itself is gone (the process died with its
                // host): no amount of waiting will bring a beat back.
                self.ctx
                    .obs
                    .emit(self.clock.now(), EventKind::ProbeEndpointGone { addr: addr.to_owned() });
                return Health::Dead;
            }
            Err(_) => return self.record_probe_miss(addr),
            Ok(_) => {}
        }
        // A live process answers inside this wait; a silent one leaves
        // the world quiescent, which is the missed beat.
        match self.await_reply(|m| match m {
            Msg::Pong { req: r, .. } if r == req => Ok(()),
            m => Err(m),
        }) {
            Ok(_) => {
                self.monitor.record_beat(addr);
                self.ctx
                    .obs
                    .emit(self.clock.now(), EventKind::HeartbeatAnswered { addr: addr.to_owned() });
                Health::Healthy
            }
            Err(_) => self.record_probe_miss(addr),
        }
    }

    fn record_probe_miss(&mut self, addr: &str) -> Health {
        let verdict = self.monitor.record_miss(addr);
        let (n, t) = match verdict {
            Health::Suspect(n) => (n, self.monitor.threshold()),
            _ => (self.monitor.threshold(), self.monitor.threshold()),
        };
        self.ctx.obs.emit(
            self.clock.now(),
            EventKind::HeartbeatMiss { n, threshold: t, addr: addr.to_owned() },
        );
        verdict
    }

    /// Run the supervision policy for a process declared dead: respawn it
    /// (in place or on a replica) under a fresh incarnation from its
    /// latest checkpoint. Returns the rebound entry for `name`.
    fn recover(&mut self, scope: u64, name: &str, dead: &ProcEntry) -> SchResult<Arc<ProcEntry>> {
        self.ctx.obs.emit(
            self.clock.now(),
            EventKind::DeathVerdict { addr: dead.addr.clone(), incarnation: dead.incarnation },
        );
        self.journal_verdict(&dead.addr, dead.incarnation, "dead");
        let candidates: Vec<String> = match self.ctx.supervision.get(&dead.path) {
            SupervisionPolicy::Escalate => {
                self.ctx
                    .obs
                    .emit(self.clock.now(), EventKind::FailureEscalated { name: name.to_owned() });
                self.journal_verdict(&dead.addr, dead.incarnation, "escalated");
                return Err(SchError::Escalated(name.to_owned()));
            }
            SupervisionPolicy::RestartInPlace => vec![dead.host.clone()],
            SupervisionPolicy::MigrateTo(hosts) => {
                let mut v = hosts;
                v.push(dead.host.clone());
                v
            }
        };
        let rebound =
            self.replace(scope, name, dead, &candidates, StateFrom::Checkpoint, |m, host, e| {
                m.ctx.obs.emit(
                    m.clock.now(),
                    EventKind::RespawnFailed {
                        path: dead.path.clone(),
                        host: host.to_owned(),
                        cause: e.to_string(),
                    },
                );
                // If every candidate refuses (e.g. still inside the crash
                // window), report the old address as gone — that class
                // stays retryable across the wire, so the caller's
                // backoff keeps driving recovery until a respawn succeeds.
                SchError::ProcessGone(dead.addr.clone())
            })?;
        self.ctx.obs.emit(
            self.clock.now(),
            EventKind::Respawned {
                path: dead.path.clone(),
                host: rebound.host.clone(),
                incarnation: rebound.incarnation,
                addr: rebound.addr.clone(),
            },
        );
        Ok(rebound)
    }

    /// Move the process exporting `name` (visible to `line`) to
    /// `target_host`, transferring declared state.
    fn handle_move(&mut self, line: u64, name: &str, target_host: &str) -> SchResult<MapInfo> {
        let (entry, scope) = self.locate(line, name)?;
        // Capture state from the old instance before it is shut down.
        let state = self.fetch_state(scope, &entry.addr)?;
        let rebound = self.replace(
            scope,
            name,
            &entry,
            &[target_host.to_owned()],
            StateFrom::Live(state),
            |_, _, e| e,
        )?;
        self.ctx.obs.emit(
            self.clock.now(),
            EventKind::Moved {
                name: name.to_owned(),
                old: entry.addr.clone(),
                new: rebound.addr.clone(),
            },
        );
        Ok(rebound.map_info())
    }

    /// Replace the process behind `old` — crash recovery and migration
    /// alike: start a new instance on the first of `hosts` whose Server
    /// accepts it, install its state, shut the old instance down (a
    /// false death verdict must not leave it answering for its
    /// successor; callers' caches go stale and fall back to the
    /// Manager), rebind the scope's table and forget the old address's
    /// health. Each refusal goes to `refused`, which reports it and
    /// returns the error to give if no host accepts. Returns the rebound
    /// entry for `name`.
    fn replace(
        &mut self,
        scope: u64,
        name: &str,
        old: &ProcEntry,
        hosts: &[String],
        state: StateFrom,
        mut refused: impl FnMut(&Self, &str, SchError) -> SchError,
    ) -> SchResult<Arc<ProcEntry>> {
        let mut started = None;
        let mut last = None;
        for host in hosts {
            match self.start_process_on(scope, &old.path, host) {
                Ok(info) => {
                    started = Some((info, host));
                    break;
                }
                Err(e) => last = Some(refused(self, host, e)),
            }
        }
        let Some((info, host)) = started else {
            return Err(last.unwrap_or_else(|| SchError::ProcessGone(old.addr.clone())));
        };
        match state {
            StateFrom::Checkpoint => {
                self.restore_checkpoint(scope, &old.path, &info.addr)?;
            }
            StateFrom::Live(Some(blob)) => self.install_state(&info.addr, blob)?,
            StateFrom::Live(None) => {}
        }
        let _ = self.send(&old.addr, &Msg::ProcShutdown);
        let db = self.db_mut(scope);
        db.rebind(&old.addr, &info.addr, host, &info.proc_names, info.incarnation);
        let rebound = Arc::clone(db.get(name).expect("entry survived rebind"));
        self.monitor.forget(&old.addr);
        Ok(rebound)
    }

    /// The `state(...)` blob of the process at `addr` (`GetState`), or
    /// `None` when none of its procedures declares state.
    fn fetch_state(&mut self, scope: u64, addr: &str) -> SchResult<Option<Bytes>> {
        if !self.db(scope).map.values().any(|e| e.addr == addr && !e.spec.state.is_empty()) {
            return Ok(None);
        }
        let req = self.fresh_req();
        self.send(addr, &Msg::GetState { req, reply_to: self.endpoint.addr().to_owned() })?;
        let state = self.await_reply(|m| match m {
            Msg::StateReply { req: r, result } if r == req => Ok(result),
            m => Err(m),
        })?;
        state.map(Some).map_err(|wf| SchError::StateTransfer(wf.detail))
    }

    /// Install a `state(...)` blob into the process at `addr` (`SetState`).
    fn install_state(&mut self, addr: &str, state: Bytes) -> SchResult<()> {
        let req = self.fresh_req();
        self.send(addr, &Msg::SetState { req, state, reply_to: self.endpoint.addr().to_owned() })?;
        self.await_reply(|m| match m {
            Msg::SetStateAck { req: r, result } if r == req => Ok(result),
            m => Err(m),
        })?
        .map_err(|wf| SchError::StateTransfer(wf.detail))
    }

    /// Push the latest checkpoint retained for `(scope, path)` into the
    /// process at `addr`. Returns the restored byte count (0 when no
    /// checkpoint is retained).
    fn restore_checkpoint(&mut self, scope: u64, path: &str, addr: &str) -> SchResult<u64> {
        let Some(snap) = self.checkpoints.get(scope, path) else {
            return Ok(0);
        };
        self.install_state(addr, snap.state.clone())?;
        self.ctx.obs.emit(
            self.clock.now(),
            EventKind::CheckpointRestored { path: path.to_owned(), taken_at: snap.taken_at },
        );
        Ok(snap.state.len() as u64)
    }

    /// Capture a snapshot of the `state(...)` variables of the process
    /// exporting `name` and retain it for crash recovery. Returns the
    /// snapshot size in bytes (0 for a process declaring no state).
    fn handle_checkpoint(&mut self, line: u64, name: &str) -> SchResult<u64> {
        let (entry, scope) = self.locate(line, name)?;
        let Some(state) = self.fetch_state(scope, &entry.addr)? else {
            return Ok(0);
        };
        let n = state.len() as u64;
        let taken_at = self.clock.now();
        let evicted = self.checkpoints.put(
            scope,
            &entry.path,
            Snapshot { state: state.clone(), taken_at, incarnation: entry.incarnation },
        );
        // Journal the durable copy of this store write — and every
        // retention eviction it caused, so a replayed store agrees with
        // the live one snapshot-for-snapshot.
        if self.ctx.ledger().is_attached() {
            self.ctx.ledger().append(
                taken_at,
                RecordKind::Checkpoint {
                    line: scope,
                    path: entry.path.clone(),
                    incarnation: entry.incarnation,
                    taken_at,
                    state: state.to_vec(),
                },
            );
            for old in &evicted {
                self.ctx.ledger().append(
                    taken_at,
                    RecordKind::CheckpointEvicted {
                        line: scope,
                        path: entry.path.clone(),
                        taken_at: old.taken_at,
                    },
                );
            }
        }
        self.ctx.obs.emit(
            self.clock.now(),
            EventKind::Checkpointed { name: name.to_owned(), bytes: n, at: taken_at },
        );
        Ok(n)
    }

    /// Push the latest retained checkpoint of the process exporting
    /// `name` back into its *current* instance. Used by journal-driven
    /// recovery, where the store was pre-seeded from a replayed ledger
    /// rather than captured live.
    fn handle_restore(&mut self, line: u64, name: &str) -> SchResult<u64> {
        let (entry, scope) = self.locate(line, name)?;
        self.restore_checkpoint(scope, &entry.path, &entry.addr)
    }

    /// Append a supervision-verdict record to the attached journal, if any.
    fn journal_verdict(&self, addr: &str, incarnation: u64, verdict: &str) {
        if self.ctx.ledger().is_attached() {
            self.ctx.ledger().append(
                self.clock.now(),
                RecordKind::Verdict {
                    addr: addr.to_owned(),
                    incarnation,
                    verdict: verdict.to_owned(),
                },
            );
        }
    }

    /// Terminate the remote procedures of one line only.
    fn shutdown_line(&mut self, line: u64) {
        if let Some(state) = self.lines.remove(&line) {
            self.checkpoints.forget_line(line);
            for addr in state.db.addrs() {
                self.monitor.forget(&addr);
                let _ = self.send(&addr, &Msg::ProcShutdown);
            }
            self.ctx.obs.emit(
                self.clock.now(),
                EventKind::LineShutdown { line, module: state.module.clone() },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use netsim::Endpoint;
    use uts::Value;

    use crate::message::{FaultCode, MapInfo, Msg, WireFault};
    use crate::{FnProcedure, ProgramImage, Schooner};

    /// Send `msg` to the Manager from `ep` and drive the world until the
    /// reply arrives.
    fn ask(sch: &Schooner, ep: &Endpoint, msg: Msg) -> Msg {
        ep.send(&sch.manager_address(), msg.encode(), 0.0).unwrap();
        Msg::decode(sch.ctx().world.recv(ep).unwrap().payload).unwrap()
    }

    fn map(sch: &Schooner, ep: &Endpoint, line: u64) -> MapInfo {
        let req = Msg::MapRequest {
            req: 1,
            line,
            name: "double".into(),
            import_spec: String::new(),
            suspect_addr: String::new(),
            reply_to: ep.addr().to_owned(),
        };
        match ask(sch, ep, req) {
            Msg::MapReply { result: Ok(info), .. } => info,
            other => panic!("map answered {other:?}"),
        }
    }

    /// A move names a line the Manager never opened: it is refused with
    /// `UnknownLine`, as a map, checkpoint or restore from that line is,
    /// and the shared procedure it names stays where it is.
    #[test]
    fn move_from_an_unknown_line_is_refused() {
        let sch = Schooner::standard().unwrap();
        let image =
            ProgramImage::new("doubler", r#"export double prog("x" val float, "y" res float)"#)
                .unwrap()
                .with_procedure("double", || {
                    Box::new(FnProcedure::new(|args: &[Value]| match args[0] {
                        Value::Float(x) => Ok(vec![Value::Float(2.0 * x)]),
                        _ => Err("bad argument".into()),
                    }))
                })
                .unwrap();
        sch.install_program("/demo/doubler", image, &["lerc-cray-ymp", "lerc-rs6000"]).unwrap();
        let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
        line.start_shared("/demo/doubler", "lerc-cray-ymp").unwrap();

        let ep = sch.ctx().net.register("lerc-sparc10:forger").unwrap();
        let before = map(&sch, &ep, line.id());
        let forged = Msg::MoveRequest {
            req: 2,
            line: 999,
            name: "double".into(),
            target_host: "lerc-rs6000".into(),
            reply_to: ep.addr().to_owned(),
        };
        match ask(&sch, &ep, forged) {
            Msg::MoveReply { req: 2, result: Err(WireFault { code, detail }) } => {
                assert_eq!(code, FaultCode::UnknownLine);
                assert_eq!(detail, "999");
            }
            other => panic!("move from an unknown line answered {other:?}"),
        }
        assert_eq!(map(&sch, &ep, line.id()), before, "the process must not have moved");
        assert_eq!(line.call("double", &[Value::Float(4.0)]).unwrap(), vec![Value::Float(8.0)]);
        line.quit().unwrap();
        sch.shutdown();
    }
}
