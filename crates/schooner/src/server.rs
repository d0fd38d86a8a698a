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

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use hetsim::HostCost;
use ledger::codec::{put_bytes, put_str, Reader};
use netsim::{Endpoint, Route, VirtualClock};
use uts::{Architecture, Value};

use crate::error::{SchError, SchResult};
use crate::message::{reclaim, FaultCode, Msg, StartedInfo, WireFault};
use crate::obs::{EventKind, Phase};
use crate::proc::Procedure;
use crate::stub::CompiledStub;
use crate::system::{marshal_seconds, server_addr, RuntimeCtx};
use crate::world::{Actor, Step};

/// Register the Server for `host` with the world.
pub(crate) fn spawn_server(ctx: RuntimeCtx, host: &str) -> SchResult<()> {
    let endpoint = ctx.net.register(server_addr(host))?;
    let world = ctx.world.clone();
    let mailbox = endpoint.mailbox();
    let server = ServerWorker { ctx, host: host.to_owned(), endpoint, clock: VirtualClock::new() };
    world.spawn(server, mailbox);
    Ok(())
}

/// Virtual seconds a Server spends forking a new process.
const PROCESS_STARTUP_S: f64 = 30e-3;

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
                self.clock.advance(PROCESS_STARTUP_S);
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
        let park = &self.ctx.park;
        let (arch, cost) = park
            .arch_of(&self.host)
            .zip(park.cost(&self.host))
            .ok_or_else(|| SchError::Other(format!("host '{}' has no machine", self.host)))?;
        // Apply the target compiler's name-case convention: the process
        // exports the names its "linker" produced.
        let case = arch.fortran_case();
        let procs = image.instantiate()?;
        let mut exports: Vec<Export> = Vec::with_capacity(procs.len());
        let mut names: Vec<String> = Vec::new();
        for (name, proc) in procs {
            let stub = image
                .stub(&name)
                .ok_or_else(|| SchError::Other(format!("missing spec for '{name}'")))?
                .clone();
            let folded = case.apply(&name);
            let export = Export { name: folded.as_str().into(), stub, proc };
            // A name that folds onto an earlier one replaces it.
            match exports.iter_mut().find(|e| e.name == export.name) {
                Some(earlier) => *earlier = export,
                None => exports.push(export),
            }
            names.push(folded);
        }
        names.sort();

        let addr =
            format!("{}:proc-{}", self.host, self.ctx.proc_counter.fetch_add(1, Ordering::Relaxed));
        // Processes are born at the server's current virtual time; the
        // transport fences their endpoint if the host crashes later.
        let endpoint = self.ctx.net.register_process(addr.clone(), self.clock.now())?;
        let mailbox = endpoint.mailbox();
        let worker = ProcessWorker {
            addr: addr.as_str().into(),
            ctx: self.ctx.clone(),
            arch,
            cost,
            line,
            incarnation,
            endpoint,
            reply_route: None,
            clock: VirtualClock::starting_at(self.clock.now()),
            exports,
            args: Vec::new(),
            results: Vec::new(),
            spare: BytesMut::new(),
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
        self.ctx.world.spawn(worker, mailbox);

        Ok(StartedInfo {
            addr,
            spec_src: image.spec_src().to_owned(),
            proc_names: names,
            incarnation,
        })
    }
}

/// One exported procedure of a process.
struct Export {
    /// The name under this process's Fortran case convention, shared
    /// into every `Computed` event.
    name: Arc<str>,
    stub: Arc<CompiledStub>,
    proc: Box<dyn Procedure>,
}

/// One remote-procedure process: owns the procedure instances of one
/// executable image and serves calls over its endpoint.
struct ProcessWorker {
    ctx: RuntimeCtx,
    arch: Architecture,
    /// The host's compute cost, which marshaling and procedure bodies
    /// are charged through.
    cost: HostCost,
    /// Owning line; 0 means shared (callable from any line).
    line: u64,
    /// Manager-assigned incarnation of this instance, stamped into every
    /// reply so callers can fence pre-crash answers.
    incarnation: u64,
    endpoint: Endpoint,
    /// The route of the last call's `reply_to`, which the next call's
    /// reply most likely takes too.
    reply_route: Option<Route>,
    /// The endpoint's address, shared into every `Computed` event.
    addr: Arc<str>,
    clock: VirtualClock,
    /// The image's procedures, one per folded name: an image exports a
    /// few, so a call finds its own by comparing names, not hashing.
    exports: Vec<Export>,
    /// The arguments of the call being served, decoded into one vector
    /// the process keeps; it is empty between calls.
    args: Vec<Value>,
    /// The outputs of the call being served, written by the procedure
    /// into one vector the process keeps; cleared once the reply is
    /// marshaled, so it too is empty between calls.
    results: Vec<Value>,
    /// The buffer the next reply is written into: a request buffer
    /// reclaimed once its call was answered, or empty while lent out.
    spare: BytesMut,
}

impl Actor for ProcessWorker {
    fn step(&mut self) -> Step {
        let Some(env) = self.endpoint.try_recv() else { return Step::Idle };
        self.clock.merge(env.arrive_at);
        let Ok(msg) = Msg::decode(env.payload.clone()) else { return Step::Worked };
        match msg {
            Msg::CallRequest { call, line, proc_name, args, reply_to } => {
                // A fault raised by the procedure body travels with
                // the `RemoteFault` code and its bare message as the
                // detail, so the caller re-wraps it exactly once.
                let t0 = self.clock.now();
                let reply = self.serve_call(call, line, &proc_name, args).unwrap_or_else(|e| {
                    let result = Err(WireFault::from(&e));
                    Msg::CallReply { call, incarnation: self.incarnation, result }.encode()
                });
                // Server-side unmarshal + execute + marshal, charged to
                // the caller's open span as the Compute phase (the
                // reply is sent after this, so the span is still open).
                self.ctx.obs.span_phase(line, call, Phase::Compute, self.clock.now() - t0);
                let net = &self.ctx.net;
                let route = match &mut self.reply_route {
                    Some(route) if route.addr() == &*reply_to => route,
                    slot => slot.insert(net.route(self.endpoint.addr(), &reply_to)),
                };
                let _ = net.send_on(route, reply, self.clock.now());
            }
            Msg::Ping { req, reply_to } => {
                self.reply(&reply_to, Msg::Pong { req, incarnation: self.incarnation });
            }
            Msg::GetState { req, reply_to } => {
                let result = self.collect_state().map_err(|e| WireFault::from(&e));
                self.reply(&reply_to, Msg::StateReply { req, result });
            }
            Msg::SetState { req, state, reply_to } => {
                let result = self.install_state(state).map_err(|e| WireFault::from(&e));
                self.reply(&reply_to, Msg::SetStateAck { req, result });
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
        // Every field borrowed from the request, `reply_to` included, is
        // gone once its reply is sent.
        reclaim(&mut self.spare, env.payload);
        Step::Worked
    }
}

impl ProcessWorker {
    fn reply(&self, to: &str, msg: Msg) {
        let _ = self.endpoint.send(to, msg.encode(), self.clock.now());
    }

    /// Calls that raced our shutdown (FIFO order is per-sender, so a
    /// caller may have posted a request while the Manager's `ProcShutdown`
    /// was in flight) are answered with a `ProcessGone` fault, which the
    /// caller's stub recognizes and resolves by re-asking the Manager.
    fn drain_with_gone_faults(&self) {
        let gone = || Err(WireFault::new(FaultCode::ProcessGone, self.endpoint.addr()));
        while let Some(env) = self.endpoint.try_recv() {
            match Msg::decode(env.payload) {
                Ok(Msg::CallRequest { call, reply_to, .. }) => {
                    let reply =
                        Msg::CallReply { call, incarnation: self.incarnation, result: gone() };
                    self.reply(&reply_to, reply);
                }
                Ok(Msg::GetState { req, reply_to }) => {
                    self.reply(&reply_to, Msg::StateReply { req, result: gone() });
                }
                _ => {}
            }
        }
    }

    /// Serve one call and return its encoded `CallReply`: the results
    /// are marshaled straight into the reply's one buffer, the process's
    /// spare when it has one.
    fn serve_call(
        &mut self,
        call: u64,
        caller_line: u64,
        proc_name: &str,
        args: Bytes,
    ) -> SchResult<Bytes> {
        if self.line != 0 && caller_line != self.line {
            return Err(SchError::Other(format!(
                "procedure '{proc_name}' belongs to line {}, not line {caller_line}",
                self.line
            )));
        }
        let Export { name, stub, proc } =
            self.exports
                .iter_mut()
                .find(|e| *e.name == *proc_name)
                .ok_or_else(|| SchError::UnknownProcedure(proc_name.to_owned()))?;
        // Unmarshal through this machine's native format.
        stub.unmarshal_inputs_into(args, self.arch, &mut self.args)?;
        self.clock.advance(marshal_seconds(&self.cost, stub.input_scalars));

        let flops = proc.flops(&self.args);
        let called = proc.call(&self.args, &mut self.results);
        self.args.clear();
        if let Err(fault) = called {
            self.results.clear();
            return Err(fault.into());
        }
        let compute = self.cost.compute_seconds(flops);
        self.clock.advance(compute);
        self.ctx.obs.emit(
            self.clock.now(),
            EventKind::Computed {
                addr: self.addr.clone(),
                proc: name.clone(),
                flops,
                compute_s: compute,
            },
        );

        let mut reply = std::mem::take(&mut self.spare);
        reply.reserve(Msg::CALL_REPLY_HEADER_LEN + stub.output_plan.size_hint());
        let marshaled = Msg::encode_call_reply_into(&mut reply, call, self.incarnation, |b| {
            stub.marshal_outputs_after(b, &self.results, self.arch)
        });
        self.results.clear();
        marshaled?;
        self.clock.advance(marshal_seconds(&self.cost, stub.output_scalars));
        let rpc = &self.ctx.rpc;
        rpc.encode_bytes.add((reply.len() - Msg::CALL_REPLY_HEADER_LEN) as u64);
        rpc.fast_path_hits.add(1);
        Ok(reply.freeze())
    }

    /// Package the migration state of every procedure in this process:
    /// `u32 name-len, name, u32 blob-len, blob` per procedure in sorted
    /// name order, where each blob is the UTS-marshaled state.
    fn collect_state(&self) -> SchResult<Bytes> {
        let mut exports: Vec<&Export> = self.exports.iter().collect();
        exports.sort_by(|a, b| a.name.cmp(&b.name));
        let mut buf = Vec::new();
        for Export { name, stub, proc } in exports {
            put_str(&mut buf, name);
            put_bytes(&mut buf, &stub.marshal_state(&proc.get_state(), self.arch)?);
        }
        Ok(buf.into())
    }

    fn install_state(&mut self, state: Bytes) -> SchResult<()> {
        let mut r = Reader::new(&state);
        let bad_frame = |e| SchError::StateTransfer(format!("bad state frame: {e}"));
        while !r.is_empty() {
            let name = r.str().map_err(bad_frame)?;
            let blob = state.slice(r.bytes().map_err(bad_frame)?.1);
            // State arrives keyed by the *source* process's folded names;
            // fold to our own convention via case-insensitive match.
            let export =
                self.exports.iter_mut().find(|e| e.name.eq_ignore_ascii_case(name)).ok_or_else(
                    || SchError::StateTransfer(format!("no procedure '{name}' in target process")),
                )?;
            let values = export.stub.unmarshal_state(blob, self.arch)?;
            export
                .proc
                .set_state(values)
                .map_err(|f| SchError::StateTransfer(f.message().to_owned()))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;
    use netsim::Endpoint;
    use uts::Value;

    use crate::message::Msg;
    use crate::{ProgramImage, Schooner, StatefulProcedure};

    /// Two stateful procedures in one image, so a state frame carries two
    /// `[name][blob]` records of different shapes.
    fn two_state_image() -> ProgramImage {
        let spec = r#"
export accum prog("x" val double, "total" res double) state("total" double)
export tally prog("n" val integer, "count" res integer) state("hist" array[2] of float, "count" integer)
"#;
        ProgramImage::new("pair", spec)
            .unwrap()
            .with_procedure("accum", || {
                Box::new(StatefulProcedure::new(
                    0.0f64,
                    |total: &mut f64, args: &[Value]| {
                        *total += args[0].as_f64().ok_or("not numeric")?;
                        Ok(vec![Value::Double(*total)])
                    },
                    |total: &f64| vec![Value::Double(*total)],
                    |vals: Vec<Value>| vals.first().and_then(Value::as_f64).ok_or("bad".into()),
                ))
            })
            .unwrap()
            .with_procedure("tally", || {
                Box::new(StatefulProcedure::new(
                    ([0.0f32; 2], 0i64),
                    |(hist, count): &mut ([f32; 2], i64), args: &[Value]| {
                        let n = args[0].as_i64().ok_or("not an integer")?;
                        hist[(n & 1) as usize] += 1.0;
                        *count += 1;
                        Ok(vec![Value::Integer(*count)])
                    },
                    |(hist, count): &([f32; 2], i64)| {
                        vec![Value::floats(hist), Value::Integer(*count)]
                    },
                    |vals: Vec<Value>| match vals.as_slice() {
                        [hist, Value::Integer(count)] => {
                            let h = hist.as_floats().ok_or("bad hist")?;
                            Ok(([h[0], h[1]], *count))
                        }
                        _ => Err("bad state".into()),
                    },
                ))
            })
            .unwrap()
    }

    /// Send `msg` (stamped to reply to `ep`) and drive the world until the
    /// reply arrives; `None` if the world goes quiescent without one.
    fn exchange(sch: &Schooner, ep: &Endpoint, to: &str, msg: Msg) -> Option<Msg> {
        ep.send(to, msg.encode(), 0.0).unwrap();
        let env = sch.ctx().world.recv(ep).ok()?;
        Some(Msg::decode(env.payload).unwrap())
    }

    /// Every truncation and every single-bit flip of a real two-procedure
    /// state frame, sent as `SetState`, is answered with a `SetStateAck`
    /// (a typed fault or `Ok`) — the process neither panics nor goes
    /// silent — and it still serves calls afterwards.
    #[test]
    fn damaged_state_frames_are_acked_never_fatal() {
        let sch = Schooner::standard().unwrap();
        sch.install_program("/x/pair", two_state_image(), &["lerc-cray-ymp"]).unwrap();
        let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
        line.start_remote("/x/pair", "lerc-cray-ymp").unwrap();
        line.call("accum", &[Value::Double(2.5)]).unwrap();
        line.call("tally", &[Value::Integer(3)]).unwrap();

        let ep = sch.ctx().net.register("lerc-sparc10:prober").unwrap();
        let reply_to = ep.addr().to_owned();
        let map = Msg::MapRequest {
            req: 1,
            line: line.id(),
            name: "accum".into(),
            import_spec: String::new(),
            suspect_addr: String::new(),
            reply_to: reply_to.clone(),
        };
        let Some(Msg::MapReply { result: Ok(info), .. }) =
            exchange(&sch, &ep, &sch.manager_address(), map)
        else {
            panic!("map failed")
        };
        let proc_addr = info.addr;
        let get = Msg::GetState { req: 2, reply_to: reply_to.clone() };
        let Some(Msg::StateReply { result: Ok(blob), .. }) = exchange(&sch, &ep, &proc_addr, get)
        else {
            panic!("get_state failed")
        };

        let mut damaged: Vec<Bytes> = (0..blob.len()).map(|cut| blob.slice(..cut)).collect();
        for i in 0..blob.len() {
            for bit in 0..8 {
                let mut raw = blob.to_vec();
                raw[i] ^= 1 << bit;
                damaged.push(Bytes::from(raw));
            }
        }
        let (mut ok, mut faults) = (0, 0);
        for (req, state) in (10u64..).zip(damaged.into_iter().chain([blob.clone()])) {
            let set = Msg::SetState { req, state: state.clone(), reply_to: reply_to.clone() };
            match exchange(&sch, &ep, &proc_addr, set) {
                Some(Msg::SetStateAck { req: r, result }) if r == req => match result {
                    Ok(()) => ok += 1,
                    Err(_) => faults += 1,
                },
                other => panic!("SetState of {state:?} answered {other:?}"),
            }
        }
        assert!(ok > 1 && faults > 0, "{ok} installed, {faults} refused");
        // The last frame sent was the intact one: the process resumes
        // from it.
        assert_eq!(line.call("accum", &[Value::Double(1.0)]).unwrap(), vec![Value::Double(3.5)]);
        assert_eq!(line.call("tally", &[Value::Integer(4)]).unwrap(), vec![Value::Integer(2)]);
        line.quit().unwrap();
        sch.shutdown();
    }

    /// The state frame's bytes themselves (`[u32 len][name][u32
    /// len][blob]` per procedure), not just their round trip.
    #[test]
    fn two_procedure_state_frame_is_pinned() {
        let sch = Schooner::standard().unwrap();
        sch.install_program("/x/pair", two_state_image(), &["lerc-cray-ymp"]).unwrap();
        let mut line = sch.open_line("m", "lerc-sparc10").unwrap();
        line.start_remote("/x/pair", "lerc-cray-ymp").unwrap();
        line.call("accum", &[Value::Double(2.5)]).unwrap();
        line.call("tally", &[Value::Integer(3)]).unwrap();
        let ep = sch.ctx().net.register("lerc-sparc10:prober").unwrap();
        let reply_to = ep.addr().to_owned();
        let map = Msg::MapRequest {
            req: 1,
            line: line.id(),
            name: "accum".into(),
            import_spec: String::new(),
            suspect_addr: String::new(),
            reply_to: reply_to.clone(),
        };
        let Some(Msg::MapReply { result: Ok(info), .. }) =
            exchange(&sch, &ep, &sch.manager_address(), map)
        else {
            panic!("map failed")
        };
        let get = Msg::GetState { req: 2, reply_to };
        let Some(Msg::StateReply { result: Ok(blob), .. }) = exchange(&sch, &ep, &info.addr, get)
        else {
            panic!("get_state failed")
        };
        assert_eq!((blob.len(), ledger::frame::crc32(&blob)), (48, 0x52E8_04A6));
        line.quit().unwrap();
        sch.shutdown();
    }
}
