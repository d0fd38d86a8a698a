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

/// Register the Manager on `ctx.config.manager_host` with the world.
pub(crate) fn spawn_manager(ctx: RuntimeCtx) -> SchResult<ManagerHandle> {
    let addr = manager_addr(&ctx.config.manager_host);
    let endpoint = ctx.net.register(addr.clone())?;
    let monitor = HealthMonitor::new(ctx.config.heartbeat_miss_threshold);
    let checkpoints = ctx.checkpoints.clone();
    let world = ctx.world.clone();
    world.spawn(ManagerWorker {
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
    });
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

/// A name database: keys are case-folded so that upper- and lower-case
/// spellings are synonyms.
#[derive(Debug, Clone, Default)]
struct NameDb {
    map: HashMap<String, ProcEntry>,
}

impl NameDb {
    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    fn get(&self, name: &str) -> Option<&ProcEntry> {
        self.map.get(&Self::key(name))
    }

    fn contains(&self, name: &str) -> bool {
        self.map.contains_key(&Self::key(name))
    }

    fn insert(&mut self, name: &str, entry: ProcEntry) {
        self.map.insert(Self::key(name), entry);
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
}

impl ManagerWorker {
    fn send(&self, to: &str, msg: &Msg) -> SchResult<()> {
        self.endpoint.send(to, msg.encode(), self.clock.now())?;
        Ok(())
    }

    /// Wait for a reply satisfying `pred`, buffering everything else.
    /// The wait drives the world (the Server or process that owes the
    /// reply runs inside it); a world gone quiescent means the reply is
    /// lost.
    fn await_reply(&mut self, pred: impl Fn(&Msg) -> bool) -> SchResult<Msg> {
        loop {
            let env =
                self.ctx.world.recv(&self.endpoint).map_err(|_| SchError::ManagerUnavailable)?;
            self.clock.merge(env.arrive_at);
            let Ok(msg) = Msg::decode(env.payload) else { continue };
            if pred(&msg) {
                return Ok(msg);
            }
            self.backlog.push_back(msg);
        }
    }

    fn fresh_req(&mut self) -> u64 {
        let r = self.next_req;
        self.next_req += 1;
        r
    }

    /// Handle one message; returns false to terminate.
    fn dispatch(&mut self, msg: Msg) -> bool {
        self.clock.advance(self.ctx.config.manager_overhead_s);
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
        let proc_line = if shared { 0 } else { line };
        let info = self.start_process_on(proc_line, path, host)?;

        // Parse the export spec and pre-check for duplicates before
        // mutating any table.
        let spec = uts::parse_spec_file(&info.spec_src)?;
        let db =
            if shared { &self.shared } else { &self.lines.get(&line).expect("checked above").db };
        for decl in &spec.decls {
            if decl.direction != Direction::Export {
                continue;
            }
            if db.contains(&decl.name) {
                // Undo: terminate the just-started process.
                let _ = self.send(&info.addr, &Msg::ProcShutdown);
                return Err(SchError::DuplicateProcedure { name: decl.name.clone(), line });
            }
        }

        let db = if shared {
            &mut self.shared
        } else {
            &mut self.lines.get_mut(&line).expect("checked above").db
        };
        for decl in &spec.decls {
            if decl.direction != Direction::Export {
                continue;
            }
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
                line: if shared { None } else { Some(line) },
            },
        );
        Ok(info)
    }

    /// Ask the Server on `host` to start a process and wait for its reply.
    /// Every start — initial, migration, or crash recovery — gets a fresh,
    /// strictly larger incarnation number (from the world-shared counter,
    /// so a journal-driven recovery can floor-bump past dead history).
    fn start_process_on(&mut self, line: u64, path: &str, host: &str) -> SchResult<StartedInfo> {
        let req = self.fresh_req();
        let incarnation = self.ctx.incarnations.fetch_add(1, Ordering::SeqCst);
        self.send(
            &server_addr(host),
            &Msg::StartProcess {
                req,
                line,
                path: path.to_owned(),
                incarnation,
                reply_to: self.endpoint.addr().to_owned(),
            },
        )?;
        let reply =
            self.await_reply(|m| matches!(m, Msg::ProcessStarted { req: r, .. } if *r == req))?;
        match reply {
            Msg::ProcessStarted { result, .. } => {
                let info = result.map_err(WireFault::into_error)?;
                // Journal every incarnation actually issued, so a
                // journal-seeded successor world floor-bumps past it and
                // can never hand the number out again.
                self.journal_verdict(&info.addr, info.incarnation, "started");
                Ok(info)
            }
            _ => unreachable!("await_reply predicate"),
        }
    }

    /// Resolve a name for a line — its own database first, then shared —
    /// returning a clone of the entry and whether it is shared.
    fn locate(&self, line: u64, name: &str) -> SchResult<(ProcEntry, bool)> {
        if let Some(state) = self.lines.get(&line) {
            if let Some(e) = state.db.get(name) {
                return Ok((e.clone(), false));
            }
        } else {
            return Err(SchError::UnknownLine(line));
        }
        self.shared
            .get(name)
            .map(|e| (e.clone(), true))
            .ok_or_else(|| SchError::UnknownProcedure(name.to_owned()))
    }

    fn handle_map(
        &mut self,
        line: u64,
        name: &str,
        import_spec: &str,
        suspect_addr: &str,
    ) -> SchResult<MapInfo> {
        let (mut entry, in_shared) = self.locate(line, name)?;

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
                    return Err(SchError::ProcessGone(entry.addr));
                }
                Health::Dead => {
                    entry = self.recover(line, in_shared, name, &entry)?;
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
        Ok(MapInfo {
            addr: entry.addr.clone(),
            remote_name: entry.remote_name.clone(),
            export_spec: entry.spec.to_source(),
            incarnation: entry.incarnation,
        })
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
        match self.await_reply(|m| matches!(m, Msg::Pong { req: r, .. } if *r == req)) {
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
    /// (in place or on a replica) under a fresh incarnation, restore its
    /// latest checkpoint, and rebind the mapping tables. Returns the
    /// rebound entry for `name`.
    fn recover(
        &mut self,
        line: u64,
        in_shared: bool,
        name: &str,
        dead: &ProcEntry,
    ) -> SchResult<ProcEntry> {
        let old_addr = dead.addr.clone();
        self.ctx.obs.emit(
            self.clock.now(),
            EventKind::DeathVerdict { addr: old_addr.clone(), incarnation: dead.incarnation },
        );
        self.journal_verdict(&old_addr, dead.incarnation, "dead");
        let candidates: Vec<String> = match self.ctx.supervision.get(&dead.path) {
            SupervisionPolicy::Escalate => {
                self.ctx
                    .obs
                    .emit(self.clock.now(), EventKind::FailureEscalated { name: name.to_owned() });
                self.journal_verdict(&old_addr, dead.incarnation, "escalated");
                return Err(SchError::Escalated(name.to_owned()));
            }
            SupervisionPolicy::RestartInPlace => vec![dead.host.clone()],
            SupervisionPolicy::MigrateTo(hosts) => {
                let mut v = hosts;
                v.push(dead.host.clone());
                v
            }
        };

        let proc_line = if in_shared { 0 } else { line };
        let mut started = None;
        for host in &candidates {
            match self.start_process_on(proc_line, &dead.path, host) {
                Ok(info) => {
                    started = Some((info, host.clone()));
                    break;
                }
                Err(e) => {
                    self.ctx.obs.emit(
                        self.clock.now(),
                        EventKind::RespawnFailed {
                            path: dead.path.clone(),
                            host: host.clone(),
                            cause: e.to_string(),
                        },
                    );
                }
            }
        }
        let Some((info, new_host)) = started else {
            // Every candidate host refused (e.g. still inside the crash
            // window). Report the old address as gone — that class stays
            // retryable across the wire, so the caller's backoff keeps
            // driving recovery until a respawn succeeds.
            return Err(SchError::ProcessGone(old_addr));
        };

        // Restore the latest checkpoint, if one was captured.
        if let Some(snap) = self.checkpoints.get(proc_line, &dead.path) {
            let req = self.fresh_req();
            self.send(
                &info.addr,
                &Msg::SetState {
                    req,
                    state: snap.state.clone(),
                    reply_to: self.endpoint.addr().to_owned(),
                },
            )?;
            let reply =
                self.await_reply(|m| matches!(m, Msg::SetStateAck { req: r, .. } if *r == req))?;
            match reply {
                Msg::SetStateAck { result, .. } => {
                    result.map_err(|wf| SchError::StateTransfer(wf.detail))?
                }
                _ => unreachable!(),
            }
            self.ctx.obs.emit(
                self.clock.now(),
                EventKind::CheckpointRestored { path: dead.path.clone(), taken_at: snap.taken_at },
            );
        }

        let db = if in_shared {
            &mut self.shared
        } else {
            &mut self.lines.get_mut(&line).expect("present").db
        };
        db.rebind(&old_addr, &info.addr, &new_host, &info.proc_names, info.incarnation);
        let rebound = db.get(name).expect("entry survived rebind").clone();
        self.monitor.forget(&old_addr);
        // Best effort: if the death verdict was a false positive (the old
        // instance survives behind a healed link), terminate it so it
        // cannot answer for its successor.
        let _ = self.send(&old_addr, &Msg::ProcShutdown);
        self.ctx.obs.emit(
            self.clock.now(),
            EventKind::Respawned {
                path: dead.path.clone(),
                host: new_host.clone(),
                incarnation: info.incarnation,
                addr: info.addr.clone(),
            },
        );
        Ok(rebound)
    }

    /// Capture a snapshot of the `state(...)` variables of the process
    /// exporting `name` and retain it for crash recovery. Returns the
    /// snapshot size in bytes (0 for a process declaring no state).
    fn handle_checkpoint(&mut self, line: u64, name: &str) -> SchResult<u64> {
        let (entry, in_shared) = self.locate(line, name)?;
        let proc_line = if in_shared { 0 } else { line };
        let db = if in_shared { &self.shared } else { &self.lines[&line].db };
        let has_state = db.map.values().any(|e| e.addr == entry.addr && !e.spec.state.is_empty());
        if !has_state {
            return Ok(0);
        }
        let req = self.fresh_req();
        self.send(&entry.addr, &Msg::GetState { req, reply_to: self.endpoint.addr().to_owned() })?;
        let reply =
            self.await_reply(|m| matches!(m, Msg::StateReply { req: r, .. } if *r == req))?;
        let state = match reply {
            Msg::StateReply { result, .. } => {
                result.map_err(|wf| SchError::StateTransfer(wf.detail))?
            }
            _ => unreachable!(),
        };
        let n = state.len() as u64;
        let taken_at = self.clock.now();
        let evicted = self.checkpoints.put(
            proc_line,
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
                    line: proc_line,
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
                        line: proc_line,
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
    /// `name` back into its *current* instance via `set_state`. Used by
    /// journal-driven recovery, where the store was pre-seeded from a
    /// replayed ledger rather than captured live. Returns the restored
    /// byte count (0 when no checkpoint is retained).
    fn handle_restore(&mut self, line: u64, name: &str) -> SchResult<u64> {
        let (entry, in_shared) = self.locate(line, name)?;
        let proc_line = if in_shared { 0 } else { line };
        let Some(snap) = self.checkpoints.get(proc_line, &entry.path) else {
            return Ok(0);
        };
        let req = self.fresh_req();
        self.send(
            &entry.addr,
            &Msg::SetState {
                req,
                state: snap.state.clone(),
                reply_to: self.endpoint.addr().to_owned(),
            },
        )?;
        let reply =
            self.await_reply(|m| matches!(m, Msg::SetStateAck { req: r, .. } if *r == req))?;
        match reply {
            Msg::SetStateAck { result, .. } => {
                result.map_err(|wf| SchError::StateTransfer(wf.detail))?
            }
            _ => unreachable!(),
        }
        self.ctx.obs.emit(
            self.clock.now(),
            EventKind::CheckpointRestored { path: entry.path.clone(), taken_at: snap.taken_at },
        );
        Ok(snap.state.len() as u64)
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

    /// Move the process exporting `name` (visible to `line`) to
    /// `target_host`, transferring declared state.
    fn handle_move(&mut self, line: u64, name: &str, target_host: &str) -> SchResult<MapInfo> {
        let (entry, in_shared) = {
            if let Some(state) = self.lines.get(&line) {
                if let Some(e) = state.db.get(name) {
                    (e.clone(), false)
                } else if let Some(e) = self.shared.get(name) {
                    (e.clone(), true)
                } else {
                    return Err(SchError::UnknownProcedure(name.to_owned()));
                }
            } else if let Some(e) = self.shared.get(name) {
                (e.clone(), true)
            } else {
                return Err(SchError::UnknownLine(line));
            }
        };
        let old_addr = entry.addr.clone();

        // Does any procedure of that process declare migration state?
        let db = if in_shared { &self.shared } else { &self.lines[&line].db };
        let has_state = db.map.values().any(|e| e.addr == old_addr && !e.spec.state.is_empty());

        // Capture state from the old instance before it is shut down.
        let state_blob = if has_state {
            let req = self.fresh_req();
            self.send(
                &old_addr,
                &Msg::GetState { req, reply_to: self.endpoint.addr().to_owned() },
            )?;
            let reply =
                self.await_reply(|m| matches!(m, Msg::StateReply { req: r, .. } if *r == req))?;
            match reply {
                Msg::StateReply { result, .. } => {
                    Some(result.map_err(|wf| SchError::StateTransfer(wf.detail))?)
                }
                _ => unreachable!(),
            }
        } else {
            None
        };

        // Start the replacement.
        let proc_line = if in_shared { 0 } else { line };
        let info = self.start_process_on(proc_line, &entry.path, target_host)?;

        // Install state into the new instance.
        if let Some(blob) = state_blob {
            let req = self.fresh_req();
            self.send(
                &info.addr,
                &Msg::SetState { req, state: blob, reply_to: self.endpoint.addr().to_owned() },
            )?;
            let reply =
                self.await_reply(|m| matches!(m, Msg::SetStateAck { req: r, .. } if *r == req))?;
            match reply {
                Msg::SetStateAck { result, .. } => {
                    result.map_err(|wf| SchError::StateTransfer(wf.detail))?
                }
                _ => unreachable!(),
            }
        }

        // Shut down the old instance; callers' caches go stale and will
        // fall back to the Manager on their next call.
        let _ = self.send(&old_addr, &Msg::ProcShutdown);

        // Rebind the mapping tables.
        let db = if in_shared {
            &mut self.shared
        } else {
            &mut self.lines.get_mut(&line).expect("present").db
        };
        db.rebind(&old_addr, &info.addr, target_host, &info.proc_names, info.incarnation);
        let rebound = db.get(name).expect("entry survived rebind").clone();
        self.monitor.forget(&old_addr);
        self.ctx.obs.emit(
            self.clock.now(),
            EventKind::Moved {
                name: name.to_owned(),
                old: old_addr.clone(),
                new: info.addr.clone(),
            },
        );
        Ok(MapInfo {
            addr: rebound.addr,
            remote_name: rebound.remote_name,
            export_spec: rebound.spec.to_source(),
            incarnation: rebound.incarnation,
        })
    }
}
