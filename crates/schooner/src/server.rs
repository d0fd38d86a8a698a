//! Schooner Servers and remote-procedure processes.
//!
//! There is one Server per machine involved in a computation; Servers are
//! used by the Manager to start processes on remote machines. Starting a
//! process means: resolve the executable path against the machine's file
//! store and the program registry, instantiate its procedures, apply the
//! machine's Fortran name-case convention to the exported names (the Cray
//! upper-cases, everyone else lower-cases), and register a process actor
//! that serves calls until it is shut down or migrated away. Servers and
//! processes are actors: they run when a waiting caller drives the
//! world, never on a thread of their own.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use netsim::{Endpoint, VirtualClock};
use uts::Architecture;

use crate::error::{SchError, SchResult};
use crate::message::{FaultCode, Msg, StartedInfo, WireFault};
use crate::obs::{EventKind, Phase};
use crate::proc::Procedure;
use crate::stub::CompiledStub;
use crate::system::{server_addr, RuntimeCtx};
use crate::world::{Actor, Step};

/// Register the Server for `host` with the world.
pub(crate) fn spawn_server(ctx: RuntimeCtx, host: &str) -> SchResult<()> {
    let endpoint = ctx.net.register(server_addr(host))?;
    let world = ctx.world.clone();
    world.spawn(ServerWorker { ctx, host: host.to_owned(), endpoint, clock: VirtualClock::new() });
    Ok(())
}

struct ServerWorker {
    ctx: RuntimeCtx,
    host: String,
    endpoint: Endpoint,
    clock: VirtualClock,
}

impl Actor for ServerWorker {
    fn step(&mut self) -> Step {
        let Some(env) = self.endpoint.try_recv() else { return Step::Idle };
        self.clock.merge(env.arrive_at);
        match Msg::decode(env.payload) {
            Ok(Msg::StartProcess { req, line, path, incarnation, reply_to }) => {
                self.clock.advance(self.ctx.config.process_startup_s);
                let result =
                    self.start_process(line, &path, incarnation).map_err(|e| WireFault::from(&e));
                let reply = Msg::ProcessStarted { req, result };
                let _ = self.endpoint.send(&reply_to, reply.encode(), self.clock.now());
            }
            Ok(Msg::ServerShutdown) => return Step::Done,
            _ => {}
        }
        Step::Worked
    }
}

impl ServerWorker {
    fn start_process(&mut self, line: u64, path: &str, incarnation: u64) -> SchResult<StartedInfo> {
        let image = self.ctx.registry.resolve(&self.ctx.files, path, &self.host)?;
        let arch = self
            .ctx
            .park
            .arch_of(&self.host)
            .ok_or_else(|| SchError::Other(format!("host '{}' has no machine", self.host)))?;
        let procs = image.instantiate()?;

        // Apply the target compiler's name-case convention: the process
        // exports the names its "linker" produced.
        let case = arch.fortran_case();
        let mut folded: HashMap<String, Box<dyn Procedure>> = HashMap::new();
        let mut stubs: HashMap<Arc<str>, Arc<CompiledStub>> = HashMap::new();
        let mut names: Vec<String> = Vec::new();
        for (name, p) in procs {
            let fname = case.apply(&name);
            let stub = image
                .stub(&name)
                .ok_or_else(|| SchError::Other(format!("missing spec for '{name}'")))?;
            stubs.insert(fname.as_str().into(), stub.clone());
            folded.insert(fname.clone(), p);
            names.push(fname);
        }
        names.sort();

        let addr =
            format!("{}:proc-{}", self.host, self.ctx.proc_counter.fetch_add(1, Ordering::Relaxed));
        // Processes are born at the server's current virtual time; the
        // transport fences their endpoint if the host crashes later.
        let endpoint = self.ctx.net.register_process(addr.clone(), self.clock.now())?;
        let worker = ProcessWorker {
            addr: addr.as_str().into(),
            ctx: self.ctx.clone(),
            host: self.host.clone(),
            arch,
            line,
            incarnation,
            endpoint,
            clock: VirtualClock::starting_at(self.clock.now()),
            procs: folded,
            stubs,
        };
        self.ctx.obs.emit(
            self.clock.now(),
            EventKind::ProcessSpawned {
                host: self.host.clone(),
                addr: addr.clone(),
                path: path.to_owned(),
                line,
            },
        );
        self.ctx.world.spawn(worker);

        Ok(StartedInfo {
            addr,
            spec_src: image.spec_src().to_owned(),
            proc_names: names,
            incarnation,
        })
    }
}

/// One remote-procedure process: owns the procedure instances of one
/// executable image and serves calls over its endpoint.
struct ProcessWorker {
    ctx: RuntimeCtx,
    host: String,
    arch: Architecture,
    /// Owning line; 0 means shared (callable from any line).
    line: u64,
    /// Manager-assigned incarnation of this instance, stamped into every
    /// reply so callers can fence pre-crash answers.
    incarnation: u64,
    endpoint: Endpoint,
    /// The endpoint's address, shared into every `Computed` event.
    addr: Arc<str>,
    clock: VirtualClock,
    procs: HashMap<String, Box<dyn Procedure>>,
    /// The image's compiled stubs under this process's folded names.
    stubs: HashMap<Arc<str>, Arc<CompiledStub>>,
}

impl Actor for ProcessWorker {
    fn step(&mut self) -> Step {
        let Some(env) = self.endpoint.try_recv() else { return Step::Idle };
        self.clock.merge(env.arrive_at);
        let Ok(msg) = Msg::decode(env.payload) else { return Step::Worked };
        match msg {
            Msg::CallRequest { call, line, proc_name, args, reply_to } => {
                // A fault raised by the procedure body travels with
                // the `RemoteFault` code and its bare message as the
                // detail, so the caller re-wraps it exactly once.
                let t0 = self.clock.now();
                let result =
                    self.serve_call(line, &proc_name, args).map_err(|e| WireFault::from(&e));
                // Server-side unmarshal + execute + marshal, charged to
                // the caller's open span as the Compute phase (the
                // reply is sent after this, so the span is still open).
                self.ctx.obs.span_phase(line, call, Phase::Compute, self.clock.now() - t0);
                let reply = Msg::CallReply { call, incarnation: self.incarnation, result };
                let _ = self.endpoint.send(&reply_to, reply.encode(), self.clock.now());
            }
            Msg::Ping { req, reply_to } => {
                let reply = Msg::Pong { req, incarnation: self.incarnation };
                let _ = self.endpoint.send(&reply_to, reply.encode(), self.clock.now());
            }
            Msg::GetState { req, reply_to } => {
                let result = self.collect_state().map_err(|e| WireFault::from(&e));
                let reply = Msg::StateReply { req, result };
                let _ = self.endpoint.send(&reply_to, reply.encode(), self.clock.now());
            }
            Msg::SetState { req, state, reply_to } => {
                let result = self.install_state(state).map_err(|e| WireFault::from(&e));
                let reply = Msg::SetStateAck { req, result };
                let _ = self.endpoint.send(&reply_to, reply.encode(), self.clock.now());
            }
            Msg::ProcShutdown => {
                self.ctx.obs.emit(
                    self.clock.now(),
                    EventKind::ProcessShutdown { addr: self.endpoint.addr().to_owned() },
                );
                self.drain_with_gone_faults();
                return Step::Done;
            }
            _ => {}
        }
        Step::Worked
    }
}

impl ProcessWorker {
    /// Calls that raced our shutdown (FIFO order is per-sender, so a
    /// caller may have posted a request while the Manager's `ProcShutdown`
    /// was in flight) are answered with a `ProcessGone` fault, which the
    /// caller's stub recognizes and resolves by re-asking the Manager.
    fn drain_with_gone_faults(&mut self) {
        while let Some(env) = self.endpoint.try_recv() {
            if let Ok(msg) = Msg::decode(env.payload) {
                let reply = match msg {
                    Msg::CallRequest { call, reply_to, .. } => Some((
                        reply_to,
                        Msg::CallReply {
                            call,
                            incarnation: self.incarnation,
                            result: Err(WireFault::new(
                                FaultCode::ProcessGone,
                                self.endpoint.addr(),
                            )),
                        },
                    )),
                    Msg::GetState { req, reply_to } => Some((
                        reply_to,
                        Msg::StateReply {
                            req,
                            result: Err(WireFault::new(
                                FaultCode::ProcessGone,
                                self.endpoint.addr(),
                            )),
                        },
                    )),
                    _ => None,
                };
                if let Some((to, m)) = reply {
                    let _ = self.endpoint.send(&to, m.encode(), self.clock.now());
                }
            }
        }
    }

    fn marshal_cost(&self, scalars: usize) -> f64 {
        self.ctx
            .park
            .compute_seconds(&self.host, scalars as f64 * self.ctx.config.per_scalar_flops)
            .unwrap_or(0.0)
    }

    fn serve_call(&mut self, caller_line: u64, proc_name: &str, args: Bytes) -> SchResult<Bytes> {
        if self.line != 0 && caller_line != self.line {
            return Err(SchError::Other(format!(
                "procedure '{proc_name}' belongs to line {}, not line {caller_line}",
                self.line
            )));
        }
        let (proc_name_shared, stub) = self
            .stubs
            .get_key_value(proc_name)
            .ok_or_else(|| SchError::UnknownProcedure(proc_name.to_owned()))?;
        // Unmarshal through this machine's native format.
        let values = stub.unmarshal_inputs(args, self.arch)?;
        self.clock.advance(self.marshal_cost(stub.input_scalars));

        let proc = self
            .procs
            .get_mut(proc_name)
            .ok_or_else(|| SchError::UnknownProcedure(proc_name.to_owned()))?;
        let flops = proc.flops(&values);
        let results = proc.call(&values).map_err(SchError::from)?;
        let compute = self.ctx.park.compute_seconds(&self.host, flops).unwrap_or(0.0);
        self.clock.advance(compute);
        self.ctx.obs.emit(
            self.clock.now(),
            EventKind::Computed {
                addr: self.addr.clone(),
                proc: proc_name_shared.clone(),
                flops,
                compute_s: compute,
            },
        );

        let out = stub.marshal_outputs(&results, self.arch)?;
        self.clock.advance(self.marshal_cost(stub.output_scalars));
        let m = self.ctx.obs.metrics();
        m.counter_add("uts.encode_bytes", out.len() as u64);
        m.counter_add("uts.fast_path_hits", 1);
        Ok(out)
    }

    /// Package the migration state of every procedure in this process:
    /// `u32 name-len, name, u32 blob-len, blob` per procedure in sorted
    /// name order, where each blob is the UTS-marshaled state.
    fn collect_state(&self) -> SchResult<Bytes> {
        let mut names: Vec<&str> = self.stubs.keys().map(|k| &**k).collect();
        names.sort();
        let mut buf = BytesMut::new();
        for name in names {
            let stub = &self.stubs[name];
            let proc = &self.procs[name];
            let blob = stub.marshal_state(&proc.get_state(), self.arch)?;
            buf.put_u32(name.len() as u32);
            buf.put_slice(name.as_bytes());
            buf.put_u32(blob.len() as u32);
            buf.put_slice(&blob);
        }
        Ok(buf.freeze())
    }

    fn install_state(&mut self, mut state: Bytes) -> SchResult<()> {
        while state.remaining() > 0 {
            if state.remaining() < 4 {
                return Err(SchError::StateTransfer("truncated state frame".into()));
            }
            let nlen = state.get_u32() as usize;
            if state.remaining() < nlen {
                return Err(SchError::StateTransfer("truncated state name".into()));
            }
            let name = String::from_utf8(state.split_to(nlen).to_vec())
                .map_err(|e| SchError::StateTransfer(format!("bad state name: {e}")))?;
            if state.remaining() < 4 {
                return Err(SchError::StateTransfer("truncated state blob length".into()));
            }
            let blen = state.get_u32() as usize;
            if state.remaining() < blen {
                return Err(SchError::StateTransfer("truncated state blob".into()));
            }
            let blob = state.split_to(blen);

            // State arrives keyed by the *source* process's folded names;
            // fold to our own convention via case-insensitive match.
            let (our_name, stub) =
                self.stubs.iter().find(|(k, _)| k.eq_ignore_ascii_case(&name)).ok_or_else(
                    || SchError::StateTransfer(format!("no procedure '{name}' in target process")),
                )?;
            let values = stub.unmarshal_state(blob, self.arch)?;
            self.procs
                .get_mut(&**our_name)
                .expect("stub/proc maps are parallel")
                .set_state(values)
                .map_err(|f| SchError::StateTransfer(f.message().to_owned()))?;
        }
        Ok(())
    }
}
