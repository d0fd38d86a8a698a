//! Lines: the client side of the extended Schooner model.
//!
//! A *line* is one sequential thread of control — the equivalent of a
//! whole Schooner program in the original model. Any procedure in a line
//! can request the initiation of further remote procedures; procedures
//! started this way belong to the requesting line and are callable only
//! from it. Lines execute independently of each other with no
//! synchronization, so concurrency is possible but controlled; duplicate
//! procedure names are permitted across lines (each line gets its own
//! instance) but not within one.
//!
//! [`LineHandle`] packages the Schooner library calls a module makes:
//! `open` (the `sch_contact` registration of the dynamic startup
//! protocol), `start_remote`, `call`, `move_procedure`, and `quit`
//! (`sch_i_quit`). Each handle owns a virtual clock that advances with
//! the communication and computation its calls cause.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use hetsim::HostCost;
use netsim::{Endpoint, Envelope, FlushRecord, NetError, Route, VirtualClock};
use uts::spec::ProcSpec;
use uts::{Architecture, Value};

use crate::error::{SchError, SchResult};
use crate::message::{reclaim, FaultCode, MapInfo, Msg, StartedInfo, WireFault};
use crate::obs::{EventKind, Obs, Phase};
use crate::policy::{CallPolicy, JitterRng};
use crate::stub::CompiledStub;
use crate::system::{marshal_seconds, RuntimeCtx};

/// The host part of a `host:process` address.
fn host_part(addr: &str) -> &str {
    addr.split_once(':').map(|(h, _)| h).unwrap_or(addr)
}

/// Identifier of a line, assigned by the Manager.
pub type LineId = u64;

/// A resolved, cached binding to a remote procedure. Built once per
/// Manager resolution and shared (`Arc`) by the cache, every in-flight
/// ticket, and the events of every call made through it.
#[derive(Debug)]
struct Binding {
    addr: Arc<str>,
    remote_name: Arc<str>,
    stub: CompiledStub,
    /// Incarnation of the process instance this binding points at;
    /// replies stamped with an older incarnation are fenced.
    incarnation: u64,
}

/// The binding a line called last, under its cache key, and the route
/// its requests take, kept beside it: calling the same procedure again
/// finds both without a lookup.
struct Bound {
    key: String,
    binding: Arc<Binding>,
    route: Route,
}

/// The in-flight (or already-failed) half of a split-phase call.
///
/// A ticket is created by [`LineHandle::issue_with`], which performs the
/// request side of one call attempt — resolve, marshal, transmit — and
/// returns without waiting. The caller may then do other work (or issue
/// calls on *other* lines) while the request travels and the remote
/// procedure computes; [`LineHandle::collect`] later blocks for the
/// reply and runs the full [`CallPolicy`] recovery machinery if the
/// attempt failed. A line holds at most one ticket at a time — a line is
/// still one sequential thread of control; the parallelism comes from
/// overlapping tickets *across* lines.
#[derive(Debug)]
pub struct CallTicket {
    bufs: TicketBufs,
    policy: CallPolicy,
    /// The line's virtual time when the call started (deadline anchor).
    started: f64,
    state: TicketState,
}

/// The call's name, its lower-cased cache key and its arguments. The
/// ticket is their one holder between issue and collect, in buffers its
/// line lends it: a line has at most one call in flight, so one set
/// serves every call, handed back cleared at collect (no argument
/// outlives its call).
#[derive(Debug, Default)]
struct TicketBufs {
    name: String,
    key: String,
    args: Vec<Value>,
}

impl TicketBufs {
    fn fill(&mut self, name: &str, args: &[Value]) {
        self.name.push_str(name);
        self.key.push_str(name);
        self.key.make_ascii_lowercase();
        self.args.extend_from_slice(args);
    }

    fn clear(&mut self) {
        self.name.clear();
        self.key.clear();
        self.args.clear();
    }
}

#[derive(Debug)]
enum TicketState {
    /// The request is on the (virtual) wire.
    InFlight { call: u64, binding: Arc<Binding>, request_bytes: u64 },
    /// The issue attempt itself failed; the error is re-examined under
    /// the policy at collect time, exactly as a blocking call would.
    Failed(SchError),
}

impl CallTicket {
    /// The procedure name this ticket calls.
    pub fn name(&self) -> &str {
        &self.bufs.name
    }

    /// The input arguments this ticket was issued with. The ticket is
    /// their one holder between issue and collect; callers that need
    /// them afterwards copy them before collecting.
    pub fn args(&self) -> &[Value] {
        &self.bufs.args
    }

    /// Whether the issue attempt put a request on the wire (false when
    /// it failed before transmitting; the failure surfaces at collect).
    pub fn in_flight(&self) -> bool {
        matches!(self.state, TicketState::InFlight { .. })
    }
}

/// Cumulative transport statistics for one line.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LineStats {
    /// Remote calls completed.
    pub calls: u64,
    /// Wire bytes of arguments sent.
    pub request_bytes: u64,
    /// Wire bytes of results received.
    pub reply_bytes: u64,
    /// Cache-miss name lookups that went to the Manager.
    pub manager_lookups: u64,
    /// Calls that had to retry after finding a stale binding.
    pub stale_retries: u64,
    /// Retries driven by an explicit [`CallPolicy`] (backoff pauses).
    pub policy_retries: u64,
    /// Successful migration-based failovers driven by a [`CallPolicy`].
    pub failovers: u64,
    /// Replies discarded because they were stamped by an incarnation
    /// older than the current binding (delayed pre-crash answers).
    pub fenced_replies: u64,
}

/// A module's handle on its line.
pub struct LineHandle {
    id: LineId,
    module: String,
    host: String,
    arch: Architecture,
    /// The line's host's compute cost, which its marshaling is charged
    /// through.
    cost: HostCost,
    ctx: RuntimeCtx,
    manager: String,
    endpoint: Endpoint,
    clock: VirtualClock,
    imports: HashMap<String, ProcSpec>,
    cache: HashMap<String, Arc<Binding>>,
    /// The cache entry called last, with its route; `None` once that
    /// entry is replaced or dropped.
    bound: Option<Bound>,
    /// Address of the process this line last started, resolved or moved;
    /// [`LineHandle::remote_host`] reads its host.
    remote: Option<Arc<str>>,
    /// Address of the last binding that failed with a stale error,
    /// reported to the Manager on the next lookup so it can probe it.
    suspect: Option<String>,
    next_req: u64,
    stats: LineStats,
    quit_sent: bool,
    /// An issued ticket awaits collection; further requests on the line
    /// are refused until then (one in-flight call per line).
    in_flight: bool,
    /// Scratch buffer reused for every request encode; its allocation
    /// survives across calls so steady-state marshaling is copy-only.
    encode_buf: BytesMut,
    /// The wire buffer the next request is written into, unless a
    /// batched link adds it to an open frame: a reply buffer reclaimed
    /// after its results were decoded, or empty while lent out.
    spare: BytesMut,
    /// Outcomes of the link flushes this line's sends trigger, lent to
    /// the transport and emptied by `absorb_flush_reports`.
    flushed: Vec<FlushRecord>,
    /// The buffers the next ticket borrows; empty while one is out.
    ticket_bufs: TicketBufs,
}

impl LineHandle {
    /// Register a module with the Manager and open its line. Normally
    /// called through `Schooner::open_line`.
    pub(crate) fn open(
        ctx: RuntimeCtx,
        manager: String,
        module: &str,
        host: &str,
        serial: u64,
    ) -> SchResult<Self> {
        let (arch, cost) = ctx
            .park
            .arch_of(host)
            .zip(ctx.park.cost(host))
            .ok_or_else(|| SchError::Other(format!("host '{host}' has no machine")))?;
        let endpoint = ctx.net.register(format!("{host}:line-{serial}"))?;
        let mut handle = Self {
            id: 0,
            module: module.to_owned(),
            host: host.to_owned(),
            arch,
            cost,
            ctx,
            manager,
            endpoint,
            clock: VirtualClock::new(),
            imports: HashMap::new(),
            cache: HashMap::new(),
            bound: None,
            remote: None,
            suspect: None,
            next_req: 1,
            stats: LineStats::default(),
            quit_sent: false,
            in_flight: false,
            encode_buf: BytesMut::new(),
            spare: BytesMut::new(),
            flushed: Vec::new(),
            ticket_bufs: TicketBufs::default(),
        };
        let req = handle.fresh_req();
        handle.send_manager(&Msg::OpenLine {
            req,
            module: module.to_owned(),
            reply_to: handle.endpoint.addr().to_owned(),
        })?;
        handle.id = handle.await_reply(|m| match m {
            Msg::LineOpened { req: r, line } if r == req => Ok(line),
            m => Err(m),
        })?;
        Ok(handle)
    }

    /// The line id assigned by the Manager.
    pub fn id(&self) -> LineId {
        self.id
    }

    /// The module name this line was opened for.
    pub fn module(&self) -> &str {
        &self.module
    }

    /// The host the module runs on.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The host of the process this line last started, resolved or
    /// moved: where its calls go after any failover or move, or `None`
    /// before the first start.
    pub fn remote_host(&self) -> Option<&str> {
        self.remote.as_deref().map(host_part)
    }

    /// This line's current virtual time, in seconds.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Merge an external virtual timestamp into this line's clock
    /// (Lamport max; the clock never moves backwards). A wave scheduler
    /// calls this before issuing, so every line in a wave starts from
    /// the same instant and the wave's virtual makespan is the *maximum*
    /// of its calls rather than their sum. Returns the clock after the
    /// merge.
    pub fn sync_to(&self, secs: f64) -> f64 {
        self.clock.merge(secs)
    }

    /// Transport statistics.
    pub fn stats(&self) -> LineStats {
        self.stats
    }

    /// The shared observability sink: typed events, call spans keyed by
    /// `(line, call id)`, and the world's metrics registry.
    pub fn obs(&self) -> &Obs {
        &self.ctx.obs
    }

    /// Register import specifications for later calls. Calls to
    /// procedures without a registered import use the export specification
    /// unchecked (the import-equals-export common case).
    pub fn register_imports(&mut self, spec_src: &str) -> SchResult<()> {
        let file = uts::parse_spec_file(spec_src)?;
        for decl in file.decls {
            self.imports.insert(decl.name.to_ascii_lowercase(), decl);
        }
        Ok(())
    }

    /// Ask the Manager to start the executable at `path` on `machine`,
    /// within this line (the `sch_contact_schx` startup request a module
    /// issues with the values of its machine and pathname widgets).
    pub fn start_remote(&mut self, path: &str, machine: &str) -> SchResult<Vec<String>> {
        self.start_inner(path, machine, false)
    }

    /// Start the executable as a **shared** procedure: not part of this
    /// line, available to every line.
    pub fn start_shared(&mut self, path: &str, machine: &str) -> SchResult<Vec<String>> {
        self.start_inner(path, machine, true)
    }

    fn start_inner(&mut self, path: &str, machine: &str, shared: bool) -> SchResult<Vec<String>> {
        self.ensure_live()?;
        let req = self.fresh_req();
        self.send_manager(&Msg::StartRequest {
            req,
            line: self.id,
            path: path.to_owned(),
            host: machine.to_owned(),
            shared,
            reply_to: self.endpoint.addr().to_owned(),
        })?;
        let StartedInfo { proc_names, addr, .. } = self
            .await_reply(|m| match m {
                Msg::StartReply { req: r, result } if r == req => Ok(result),
                m => Err(m),
            })?
            .map_err(WireFault::into_error)?;
        self.remote = Some(addr.as_str().into());
        self.ctx.obs.emit(
            self.clock.now(),
            EventKind::RemoteStarted {
                line: self.id,
                path: path.to_owned(),
                machine: machine.to_owned(),
                addr,
            },
        );
        Ok(proc_names)
    }

    /// Invoke a remote procedure with the input arguments (`val`/`var`
    /// parameters in spec order); returns the outputs (`res`/`var`).
    ///
    /// Equivalent to [`LineHandle::call_with`] under the default
    /// [`CallPolicy`]: one stale-cache retry, no deadline, no failover.
    pub fn call(&mut self, name: &str, args: &[Value]) -> SchResult<Vec<Value>> {
        self.call_with(name, args, &CallPolicy::default())
    }

    /// Invoke a remote procedure under an explicit [`CallPolicy`].
    ///
    /// The policy controls the whole fault-handling lifecycle, all in
    /// virtual time:
    ///
    /// * a **deadline** bounds the call's total virtual duration —
    ///   crossing it returns [`SchError::DeadlineExceeded`];
    /// * failures the policy classifies as retryable (stale bindings
    ///   always; any transient transport fault when the call is declared
    ///   idempotent) are retried up to `max_retries` times per binding,
    ///   separated by exponential **backoff** pauses with seeded jitter;
    /// * once a binding's retries are exhausted, each **failover** machine
    ///   is tried in turn by migrating the procedure there via the
    ///   Manager ([`LineHandle::move_procedure`]) and starting a fresh
    ///   retry budget;
    /// * when everything is exhausted the caller receives
    ///   [`SchError::PolicyExhausted`] carrying the attempt count and the
    ///   final underlying error. Degradation-aware callers (see
    ///   `npss::exec::RemoteExec`) may then substitute a local baseline if
    ///   the policy says [`OnExhaustion::Degrade`](crate::OnExhaustion).
    ///
    /// Errors outside the policy's retry set — remote faults, type
    /// mismatches, unknown names — are returned immediately, untouched.
    ///
    /// `call_with` is exactly [`LineHandle::issue_with`] followed by
    /// [`LineHandle::collect`]: the split-phase API with no work between
    /// the halves. The event, span, and metric sequence of the two forms
    /// is identical. It returns a fresh vector; a caller that keeps its
    /// own issues and collects with [`LineHandle::collect_into`].
    pub fn call_with(
        &mut self,
        name: &str,
        args: &[Value],
        policy: &CallPolicy,
    ) -> SchResult<Vec<Value>> {
        let ticket = self.issue_with(name, args, policy)?;
        self.collect(ticket)
    }

    /// Invoke a remote procedure with the default policy, split-phase:
    /// issue the request and return without waiting for the reply.
    pub fn issue(&mut self, name: &str, args: &[Value]) -> SchResult<CallTicket> {
        self.issue_with(name, args, &CallPolicy::default())
    }

    /// Issue the request half of a call under an explicit [`CallPolicy`]
    /// and return a [`CallTicket`] without waiting for the reply.
    ///
    /// The attempt's request side — binding resolution, argument
    /// marshaling, transmission — runs here, charging the Marshal and
    /// Transmit phases of the call's span; the line's clock stops at the
    /// moment the request leaves. While the ticket is outstanding the
    /// line accepts no other request (one in-flight call per line — a
    /// line is one sequential thread of control); callers overlap work
    /// by issuing on *several* lines and then collecting each. An issue-
    /// side failure is not returned here: it is recorded in the ticket
    /// and surfaces from [`LineHandle::collect`], which owns the
    /// policy's whole retry/failover lifecycle.
    pub fn issue_with(
        &mut self,
        name: &str,
        args: &[Value],
        policy: &CallPolicy,
    ) -> SchResult<CallTicket> {
        self.ensure_live()?;
        let mut bufs = std::mem::take(&mut self.ticket_bufs);
        bufs.fill(name, args);
        let started = self.clock.now();
        let state = if policy.deadline_s.is_some_and(|limit| limit < 0.0) {
            // A deadline already in the past fails before any attempt,
            // exactly as the blocking loop's entry check did.
            TicketState::Failed(SchError::DeadlineExceeded {
                what: name.to_owned(),
                deadline_s: policy.deadline_s.unwrap_or_default(),
            })
        } else {
            match self.resolve_and_issue(&bufs.key, name, args) {
                Ok((call, binding, request_bytes)) => {
                    TicketState::InFlight { call, binding, request_bytes }
                }
                Err(e) => TicketState::Failed(e),
            }
        };
        self.in_flight = true;
        Ok(CallTicket { bufs, policy: policy.clone(), started, state })
    }

    /// Collect the reply half of a split-phase call: block until the
    /// ticket's reply arrives (fencing stale incarnations), then
    /// unmarshal the results. On failure the ticket's [`CallPolicy`]
    /// takes over with the same lifecycle as a blocking
    /// [`LineHandle::call_with`] — stale-binding refresh, bounded
    /// retries with seeded backoff, migration failover, deadline
    /// enforcement anchored at issue time — with the already-spent issue
    /// attempt counted. Collecting consumes the ticket and frees the
    /// line for its next request, whatever the outcome.
    pub fn collect(&mut self, ticket: CallTicket) -> SchResult<Vec<Value>> {
        let mut out = Vec::new();
        self.collect_into(ticket, &mut out)?;
        Ok(out)
    }

    /// [`LineHandle::collect`] into a vector the caller keeps: `out` is
    /// cleared first, holds the results on success and is empty on
    /// error. A caller that reuses one vector per line collects without
    /// allocating for its results.
    pub fn collect_into(&mut self, ticket: CallTicket, out: &mut Vec<Value>) -> SchResult<()> {
        out.clear();
        self.in_flight = false;
        let CallTicket { mut bufs, policy, started, state } = ticket;
        let result = self.collect_under_policy(&bufs, &policy, started, state, out);
        bufs.clear();
        self.ticket_bufs = bufs;
        if result.is_err() {
            out.clear();
        }
        result
    }

    /// The body of [`LineHandle::collect`]: the issued attempt's outcome,
    /// then the policy's retry/failover lifecycle.
    fn collect_under_policy(
        &mut self,
        bufs: &TicketBufs,
        policy: &CallPolicy,
        started: f64,
        state: TicketState,
        out: &mut Vec<Value>,
    ) -> SchResult<()> {
        let TicketBufs { name, key, args } = bufs;
        let mut rng = JitterRng::new(policy.seed, name);
        let mut failover = policy.failover.iter();
        let mut backoff = policy.backoff_initial_s;
        let mut attempts: u32 = 1;
        let mut attempts_here: u32 = 1;
        // The issued attempt's outcome enters the policy loop as attempt
        // one; later iterations run whole attempts themselves.
        let mut pending: Option<SchResult<()>> = Some(match state {
            TicketState::InFlight { call, binding, request_bytes } => {
                self.collect_attempt(call, &binding, request_bytes, out)
            }
            TicketState::Failed(e) => Err(e),
        });
        loop {
            let err = match pending.take() {
                Some(Ok(())) => return Ok(()),
                Some(Err(e)) => e,
                None => {
                    if let Some(limit) = policy.deadline_s {
                        if self.clock.now() - started > limit {
                            return Err(SchError::DeadlineExceeded {
                                what: name.clone(),
                                deadline_s: limit,
                            });
                        }
                    }
                    attempts += 1;
                    attempts_here += 1;
                    match self.resolve_and_call(key, name, args, out) {
                        Ok(()) => return Ok(()),
                        Err(e) => e,
                    }
                }
            };
            if err.is_stale_binding() {
                // The process behind the cached address is gone; the next
                // resolve falls back to the Manager for a fresh location,
                // carrying the failed address so the Manager can probe it.
                self.stats.stale_retries += 1;
                self.ctx.rpc.stale_retries.add(1);
                if let Some(addr) = stale_addr(&err) {
                    self.suspect = Some(addr);
                }
                self.cache.remove(key);
                self.forget(key);
            }
            if !policy.retries_error(&err) {
                return Err(err);
            }
            if attempts_here > policy.max_retries {
                let mut moved = false;
                for target in failover.by_ref() {
                    self.ctx.obs.emit(
                        self.clock.now(),
                        EventKind::FailoverMove {
                            line: self.id,
                            name: name.clone(),
                            target: target.clone(),
                            cause: err.to_string(),
                        },
                    );
                    match self.move_procedure(name, target) {
                        Ok(()) => {
                            self.stats.failovers += 1;
                            self.ctx.rpc.failovers.add(1);
                            moved = true;
                            break;
                        }
                        Err(move_err) => {
                            self.ctx.obs.emit(
                                self.clock.now(),
                                EventKind::FailoverFailed {
                                    line: self.id,
                                    target: target.clone(),
                                    cause: move_err.to_string(),
                                },
                            );
                        }
                    }
                }
                if !moved {
                    return Err(SchError::PolicyExhausted {
                        what: name.clone(),
                        attempts,
                        last: Box::new(err),
                    });
                }
                attempts_here = 0;
                backoff = policy.backoff_initial_s;
                continue;
            }
            if backoff > 0.0 {
                let pause = backoff * (1.0 + policy.jitter_frac * rng.next_unit());
                self.clock.advance(pause);
                self.ctx.obs.emit(
                    self.clock.now(),
                    EventKind::CallRetry {
                        line: self.id,
                        attempt: attempts_here,
                        name: name.clone(),
                        backoff_s: Some(pause),
                        cause: err.to_string(),
                    },
                );
                backoff = (backoff * policy.backoff_multiplier).min(policy.backoff_max_s);
            } else {
                self.ctx.obs.emit(
                    self.clock.now(),
                    EventKind::CallRetry {
                        line: self.id,
                        attempt: attempts_here,
                        name: name.clone(),
                        backoff_s: None,
                        cause: err.to_string(),
                    },
                );
            }
            self.stats.policy_retries += 1;
            self.ctx.rpc.policy_retries.add(1);
        }
    }

    /// One resolution-plus-call attempt against the current cache.
    fn resolve_and_call(
        &mut self,
        key: &str,
        name: &str,
        args: &[Value],
        out: &mut Vec<Value>,
    ) -> SchResult<()> {
        let (call, binding, request_bytes) = self.resolve_and_issue(key, name, args)?;
        self.collect_attempt(call, &binding, request_bytes, out)
    }

    /// Resolve the binding (the one called last, else the cache's,
    /// else the Manager's) and issue one request; returns the in-flight
    /// attempt's identity.
    fn resolve_and_issue(
        &mut self,
        key: &str,
        name: &str,
        args: &[Value],
    ) -> SchResult<(u64, Arc<Binding>, u64)> {
        if self.bound.as_ref().is_none_or(|bound| bound.key != key) {
            let binding = match self.cache.get(key) {
                Some(binding) => Arc::clone(binding),
                None => {
                    let binding = Arc::new(self.map_via_manager(name)?);
                    self.remote = Some(Arc::clone(&binding.addr));
                    self.cache.insert(key.to_owned(), Arc::clone(&binding));
                    binding
                }
            };
            self.bind(key, binding);
        }
        self.issue_attempt(args)
    }

    /// Make `binding`, cached under `key`, the one the line calls
    /// through, beside the route to its address (the route kept from
    /// the last binding when that goes to the same address).
    fn bind(&mut self, key: &str, binding: Arc<Binding>) {
        let (mut kept, route) = match self.bound.take() {
            Some(Bound { key, route, .. }) if route.addr() == &*binding.addr => (key, route),
            old => {
                let route = self.ctx.net.route(self.endpoint.addr(), &binding.addr);
                (old.map(|bound| bound.key).unwrap_or_default(), route)
            }
        };
        kept.clear();
        kept.push_str(key);
        self.bound = Some(Bound { key: kept, binding, route });
    }

    /// Stop calling through the binding cached under `key`, which was
    /// just replaced or dropped.
    fn forget(&mut self, key: &str) {
        if self.bound.as_ref().is_some_and(|bound| bound.key == key) {
            self.bound = None;
        }
    }

    /// The request side of one attempt on the bound binding: open the
    /// span, marshal, and transmit. Returns `(call id, binding, request
    /// bytes)` with the request on the wire; an error abandons the span.
    fn issue_attempt(&mut self, args: &[Value]) -> SchResult<(u64, Arc<Binding>, u64)> {
        let binding = Arc::clone(&self.bound.as_ref().expect("bound by the caller").binding);
        let call = self.fresh_req();
        let obs = self.ctx.obs.clone();
        obs.span_start(
            self.id,
            call,
            &binding.remote_name,
            &self.host,
            host_part(&binding.addr),
            self.clock.now(),
        );
        match self.issue_attempt_span(call, &binding, args) {
            Ok(request_bytes) => Ok((call, binding, request_bytes)),
            Err(e) => {
                obs.span_abandon(self.id, call);
                Err(e)
            }
        }
    }

    /// The body of the request side, with every duration attributed to
    /// the open span for `call`. Any error abandons the span in the
    /// caller.
    fn issue_attempt_span(
        &mut self,
        call: u64,
        binding: &Binding,
        args: &[Value],
    ) -> SchResult<u64> {
        let obs = self.ctx.obs.clone();
        binding.stub.marshal_inputs_into(&mut self.encode_buf, args, self.arch)?;
        self.ctx.rpc.encode_bytes.add(self.encode_buf.len() as u64);
        self.ctx.rpc.fast_path_hits.add(1);
        let marshal_s = marshal_seconds(&self.cost, binding.stub.input_scalars);
        self.clock.advance(marshal_s);
        obs.span_phase(self.id, call, Phase::Marshal, marshal_s);
        let request_bytes = self.encode_buf.len() as u64;
        obs.emit(
            self.clock.now(),
            EventKind::CallIssued {
                line: self.id,
                proc: binding.remote_name.clone(),
                addr: binding.addr.clone(),
            },
        );
        // Scatter-gather transmit: the request is encoded into the line's
        // spare buffer, which leaves as a plain message, unless a batched
        // link already holds a message, when it goes straight into that
        // link's frame. Either way the marshal plan's output in
        // `encode_buf` is copied once, into the wire.
        let sent_at = self.clock.now();
        let wire_len = Msg::call_request_wire_len(
            &binding.remote_name,
            self.encode_buf.len(),
            self.endpoint.addr(),
        );
        let line_id = self.id;
        let encode_buf = &self.encode_buf;
        let endpoint = &self.endpoint;
        let route = &mut self.bound.as_mut().expect("bound by the caller").route;
        let sent = self.ctx.net.send_gather(
            route,
            sent_at,
            (line_id, call),
            wire_len,
            &mut self.spare,
            &mut self.flushed,
            &mut |b| {
                Msg::encode_call_request_into(
                    b,
                    call,
                    line_id,
                    &binding.remote_name,
                    encode_buf,
                    endpoint.addr(),
                )
            },
        );
        // A request that left on its own envelope is on the wire until
        // it arrives; a batched one is charged when its frame flushes.
        if let Ok(Some(arrive_at)) = sent {
            obs.span_phase(self.id, call, Phase::Transmit, arrive_at - sent_at);
        }
        // A failed append may still have flushed other lines' messages:
        // their outcomes are absorbed before the error is returned.
        let absorbed = self.absorb_flush_reports((self.id, call));
        sent?;
        absorbed?;
        Ok(request_bytes)
    }

    /// Fold the link flush outcomes in `self.flushed` into the world's
    /// state, emptying it. Every delivered message — whichever line
    /// issued it — gets its time on the wire charged to the Transmit
    /// phase of its own call span (the span table ignores tags with no
    /// open span). A delivery failure of *this* line's `own` call is
    /// returned as the attempt's error; failures of other lines'
    /// coalesced messages are parked in the shared mailbox for their
    /// owners to claim at collect time.
    fn absorb_flush_reports(&mut self, own: (u64, u64)) -> SchResult<()> {
        let mut own_err: Option<NetError> = None;
        for rec in self.flushed.drain(..) {
            match rec.result {
                Ok(arrive_at) => {
                    self.ctx.obs.span_phase(
                        rec.tag.0,
                        rec.tag.1,
                        Phase::Transmit,
                        arrive_at - rec.sent_at,
                    );
                }
                Err(e) if rec.tag == own => own_err = Some(e),
                Err(e) => self.ctx.park_batch_failure(rec.tag, e),
            }
        }
        own_err.map_or(Ok(()), |e| Err(e.into()))
    }

    /// The reply side of one attempt: await the reply (closing the span)
    /// and unmarshal the results into `out`; an error abandons the span.
    fn collect_attempt(
        &mut self,
        call: u64,
        binding: &Binding,
        request_bytes: u64,
        out: &mut Vec<Value>,
    ) -> SchResult<()> {
        let obs = self.ctx.obs.clone();
        match self.collect_attempt_span(call, binding, request_bytes, out) {
            Ok(()) => {
                obs.span_end(self.id, call, self.clock.now());
                Ok(())
            }
            Err(e) => {
                obs.span_abandon(self.id, call);
                Err(e)
            }
        }
    }

    /// The body of the reply side, attributed to the open span.
    fn collect_attempt_span(
        &mut self,
        call: u64,
        binding: &Binding,
        request_bytes: u64,
        out: &mut Vec<Value>,
    ) -> SchResult<()> {
        let obs = self.ctx.obs.clone();
        // Batched transport: the request may still be coalesced in the
        // link buffer, or may have failed in a flush driven by another
        // line on this host. Claim any parked failure first, then force
        // the frame out so the request is on the wire before blocking
        // for its reply (no-ops when batching is off).
        if let Some(e) = self.ctx.take_batch_failure((self.id, call)) {
            return Err(e.into());
        }
        let net = &self.ctx.net;
        let mut unbound;
        let route = match &mut self.bound {
            Some(bound) if bound.route.addr() == &*binding.addr => &mut bound.route,
            _ => {
                unbound = net.route(self.endpoint.addr(), &binding.addr);
                &mut unbound
            }
        };
        net.flush_link(route, self.clock.now(), &mut self.flushed);
        self.absorb_flush_reports((self.id, call))?;
        let bytes = self.await_call_reply(call, binding.incarnation)?.map_err(|e| {
            if e.code == FaultCode::ProcessGone {
                // Prefer the address we actually dialled: it is the
                // cache entry that went stale.
                SchError::ProcessGone(binding.addr.to_string())
            } else {
                e.into_error()
            }
        })?;
        self.stats.calls += 1;
        self.stats.request_bytes += request_bytes;
        self.stats.reply_bytes += bytes.len() as u64;
        let rpc = &self.ctx.rpc;
        rpc.calls.add(1);
        rpc.request_bytes.add(request_bytes);
        rpc.reply_bytes.add(bytes.len() as u64);
        binding.stub.unmarshal_outputs_into(bytes.clone(), self.arch, out)?;
        reclaim(&mut self.spare, bytes);
        let unmarshal_s = marshal_seconds(&self.cost, binding.stub.output_scalars);
        self.clock.advance(unmarshal_s);
        obs.span_phase(self.id, call, Phase::Unmarshal, unmarshal_s);
        obs.emit(
            self.clock.now(),
            EventKind::ReplyReceived {
                line: self.id,
                proc: binding.remote_name.clone(),
                addr: binding.addr.clone(),
            },
        );
        Ok(())
    }

    /// Block until the `CallReply` for `call` arrives and return its
    /// payload. Replies stamped by an incarnation older than
    /// `min_incarnation` are **fenced** — discarded and counted —
    /// *before* call-id matching, so a delayed answer from a pre-crash
    /// instance can never satisfy a call made to its successor. Other
    /// non-matching messages are stale and dropped.
    fn await_call_reply(
        &mut self,
        call: u64,
        min_incarnation: u64,
    ) -> SchResult<Result<Bytes, WireFault>> {
        loop {
            let env = self.recv()?;
            let Ok(Msg::CallReply { call: c, incarnation, result }) = Msg::decode(env.payload)
            else {
                continue;
            };
            if incarnation > 0 && incarnation < min_incarnation {
                self.stats.fenced_replies += 1;
                self.ctx.rpc.fenced_replies.add(1);
                self.ctx.obs.emit(
                    self.clock.now(),
                    EventKind::ReplyFenced { line: self.id, incarnation, binding: min_incarnation },
                );
            } else if c == call {
                self.ctx.obs.span_phase(self.id, call, Phase::Reply, env.arrive_at - env.sent_at);
                return Ok(result);
            }
        }
    }

    /// Ask the Manager to capture a checkpoint of the process exporting
    /// `name`: its `state(...)` variables are marshaled architecture-
    /// neutrally and retained for crash recovery. Returns the snapshot
    /// size in bytes — 0 for a process declaring no state.
    pub fn checkpoint(&mut self, name: &str) -> SchResult<u64> {
        self.snapshot_exchange(name, false)
    }

    /// Ask the Manager to push the latest retained checkpoint of the
    /// process exporting `name` back into its current instance — the
    /// inverse of [`Self::checkpoint`], used when the checkpoint store
    /// was pre-seeded from a replayed journal. Returns the restored
    /// snapshot size in bytes — 0 when no checkpoint is retained.
    pub fn restore(&mut self, name: &str) -> SchResult<u64> {
        self.snapshot_exchange(name, true)
    }

    /// One checkpoint (or, with `restore`, restore) exchange with the
    /// Manager; returns the snapshot size in bytes.
    fn snapshot_exchange(&mut self, name: &str, restore: bool) -> SchResult<u64> {
        self.ensure_live()?;
        let req = self.fresh_req();
        let (line, name, reply_to) = (self.id, name.to_owned(), self.endpoint.addr().to_owned());
        self.send_manager(&if restore {
            Msg::RestoreRequest { req, line, name, reply_to }
        } else {
            Msg::CheckpointRequest { req, line, name, reply_to }
        })?;
        self.await_reply(|m| match m {
            Msg::CheckpointReply { req: r, result } if r == req && !restore => Ok(result),
            Msg::RestoreReply { req: r, result } if r == req && restore => Ok(result),
            m => Err(m),
        })?
        .map_err(WireFault::into_error)
    }

    /// The network address this line receives replies on. Exposed so
    /// fault-injection tests can forge delayed messages to it.
    pub fn reply_addr(&self) -> &str {
        self.endpoint.addr()
    }

    /// Move the named procedure's process to `target_machine`. Stale
    /// caches in other callers recover automatically on their next call.
    pub fn move_procedure(&mut self, name: &str, target_machine: &str) -> SchResult<()> {
        self.ensure_live()?;
        let req = self.fresh_req();
        self.send_manager(&Msg::MoveRequest {
            req,
            line: self.id,
            name: name.to_owned(),
            target_host: target_machine.to_owned(),
            reply_to: self.endpoint.addr().to_owned(),
        })?;
        let info = self
            .await_reply(|m| match m {
                Msg::MoveReply { req: r, result } if r == req => Ok(result),
                m => Err(m),
            })?
            .map_err(WireFault::into_error)?;
        let binding = self.binding_from_info(info)?;
        self.remote = Some(Arc::clone(&binding.addr));
        let key = name.to_ascii_lowercase();
        self.forget(&key);
        self.cache.insert(key, Arc::new(binding));
        Ok(())
    }

    /// Notify the Manager that this module is going away; the remote
    /// procedures of this line — and only this line — are terminated.
    pub fn quit(&mut self) -> SchResult<()> {
        if self.quit_sent {
            return Ok(());
        }
        let req = self.fresh_req();
        self.send_manager(&self.iquit(req))?;
        self.await_reply(|m| match m {
            Msg::IQuitAck { req: r } if r == req => Ok(()),
            m => Err(m),
        })?;
        self.quit_sent = true;
        self.cache.clear();
        self.bound = None;
        self.ctx.clear_batch_failures(self.id);
        Ok(())
    }

    // ----- internals -----

    fn ensure_live(&self) -> SchResult<()> {
        if self.quit_sent {
            Err(SchError::UnknownLine(self.id))
        } else if self.in_flight {
            // A line is one thread of control: any new request or manager
            // operation would race the outstanding reply on the wire.
            Err(SchError::Other(format!("line {} already has a call in flight", self.id)))
        } else {
            Ok(())
        }
    }

    fn fresh_req(&mut self) -> u64 {
        let r = self.next_req;
        self.next_req += 1;
        r
    }

    /// This line's `sch_i_quit` notice.
    fn iquit(&self, req: u64) -> Msg {
        Msg::IQuit { req, line: self.id, reply_to: self.endpoint.addr().to_owned() }
    }

    fn send_manager(&self, msg: &Msg) -> SchResult<()> {
        self.endpoint
            .send(&self.manager, msg.encode(), self.clock.now())
            .map_err(|_| SchError::ManagerUnavailable)?;
        Ok(())
    }

    /// The next message for this line, merged into its clock. Waiting
    /// drives the world: the Manager, Server or process that owes the
    /// message runs here, on the waiting thread. A world gone quiescent
    /// with the mailbox still empty means the message is lost.
    fn recv(&mut self) -> SchResult<Envelope> {
        let env = self.ctx.world.recv(&self.endpoint).map_err(|e| match e {
            NetError::Timeout => SchError::ManagerUnavailable,
            e => e.into(),
        })?;
        self.clock.merge(env.arrive_at);
        Ok(env)
    }

    /// Block until the reply `want` accepts arrives and return the
    /// payload it extracts; `want` hands any other message back, and it
    /// is discarded (a line is sequential, so anything not answering the
    /// current request is stale).
    fn await_reply<T>(&mut self, want: impl Fn(Msg) -> Result<T, Msg>) -> SchResult<T> {
        loop {
            let env = self.recv()?;
            if let Ok(Ok(payload)) = Msg::decode(env.payload).map(&want) {
                return Ok(payload);
            }
        }
    }

    fn map_via_manager(&mut self, name: &str) -> SchResult<Binding> {
        self.stats.manager_lookups += 1;
        self.ctx.rpc.manager_lookups.add(1);
        let import_spec =
            self.imports.get(&name.to_ascii_lowercase()).map(|d| d.to_source()).unwrap_or_default();
        let req = self.fresh_req();
        let suspect_addr = self.suspect.take().unwrap_or_default();
        self.send_manager(&Msg::MapRequest {
            req,
            line: self.id,
            name: name.to_owned(),
            import_spec,
            suspect_addr,
            reply_to: self.endpoint.addr().to_owned(),
        })?;
        let info = self
            .await_reply(|m| match m {
                Msg::MapReply { req: r, result } if r == req => Ok(result),
                m => Err(m),
            })?
            .map_err(WireFault::into_error)?;
        self.binding_from_info(info)
    }

    fn binding_from_info(&self, info: MapInfo) -> SchResult<Binding> {
        let export = uts::parse_spec_file(&info.export_spec)?;
        let spec = export
            .decls
            .first()
            .ok_or_else(|| SchError::Protocol("empty export spec in MapInfo".into()))?;
        Ok(Binding {
            addr: info.addr.into(),
            remote_name: info.remote_name.into(),
            stub: CompiledStub::compile(spec),
            incarnation: info.incarnation,
        })
    }
}

/// The failed remote address inside a stale-binding error, if it names one.
fn stale_addr(err: &SchError) -> Option<String> {
    match err {
        SchError::ProcessGone(addr)
        | SchError::Net(NetError::UnknownAddress(addr))
        | SchError::Net(NetError::Disconnected(addr)) => Some(addr.clone()),
        _ => None,
    }
}

impl Drop for LineHandle {
    fn drop(&mut self) {
        self.ctx.clear_batch_failures(self.id);
        if !self.quit_sent {
            // Best effort: tell the Manager this module is gone so the
            // line's processes are reclaimed; do not block on the ack.
            let _ = self.send_manager(&self.iquit(self.next_req));
        }
    }
}

#[cfg(test)]
mod tests {
    use uts::Value;

    use crate::message::SPARE_CAP;
    use crate::{FnProcedure, LineHandle, Procedure, ProgramImage, Schooner};

    fn echo() -> Box<dyn Procedure> {
        Box::new(FnProcedure::new(|args: &[Value]| Ok(vec![args[0].clone()])))
    }

    /// A 64 KiB echo leaves no spare above the cap on either side: the
    /// line keeps neither its request nor its reply buffer, and the
    /// process keeps neither, so the small call after it is answered in
    /// a small buffer, which the line keeps again.
    #[test]
    fn no_side_keeps_a_bulk_buffer_as_its_spare() {
        let image = ProgramImage::new(
            "echo",
            r#"
export small prog("x" val double, "y" res double)
export bulk prog("x" val array[8192] of double, "y" res array[8192] of double)
"#,
        )
        .unwrap()
        .with_procedure("small", echo)
        .unwrap()
        .with_procedure("bulk", echo)
        .unwrap();
        let sch = Schooner::standard().unwrap();
        sch.install_program("/t/echo", image, &["lerc-cray-ymp"]).unwrap();
        let mut line = sch.open_line("echo", "ua-sparc10").unwrap();
        line.start_remote("/t/echo", "lerc-cray-ymp").unwrap();
        let small = |line: &mut LineHandle| {
            line.call("small", &[Value::Double(0.5)]).unwrap();
            line.spare.capacity()
        };
        let before = small(&mut line);
        assert!((1..=SPARE_CAP).contains(&before), "spare of {before} bytes after a small call");

        let bulk = [Value::doubles(&[0.25; 8192])];
        assert_eq!(line.call("bulk", &bulk).unwrap(), bulk);
        assert!(line.stats().reply_bytes > 64 * 1024);
        assert_eq!(line.spare.capacity(), 0, "the bulk reply was dropped");
        let after = small(&mut line);
        assert!((1..=SPARE_CAP).contains(&after), "spare of {after} bytes after a bulk call");
        line.quit().unwrap();
        sch.shutdown();
    }
}
