//! # mplite — a PVM-flavoured message-passing baseline
//!
//! The paper positions Schooner against systems like PVM, p4, and APPL:
//! general message-passing libraries oriented toward affordable parallel
//! speedup rather than RPC-style composition. This crate is a small
//! faithful stand-in for that programming model over the same simulated
//! testbed, used by the benchmark harness to compare the two styles on
//! identical exchanges:
//!
//! * [`MpSystem::spawn`] starts a task (a thread) on a machine and
//!   returns its task id;
//! * tasks exchange **tagged messages** whose payloads are packed with
//!   [`PackBuffer`]/[`UnpackBuffer`] — in the **sender's native format**,
//!   because PVM-style pack/unpack converts at the receiver only if the
//!   *user* remembered which architecture the sender was and unpacks
//!   accordingly. (That bookkeeping is exactly what UTS's self-describing
//!   intermediate representation removes.)
//!
//! There is no name service, no type checking, no per-line cleanup: the
//! user tracks task ids, message layouts, and shutdown by hand — which is
//! the comparison the paper draws.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use hetsim::MachinePark;
use netsim::{Endpoint, MetricsRegistry, NetError, Network, Topology, VirtualClock};
use std::sync::Mutex;
use uts::arch::{FloatRepr, IntRepr};
use uts::native::{cray, vax};
use uts::Architecture;

/// Task identifier (PVM's "tid").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

/// A packed message buffer, written in one architecture's native format.
#[derive(Debug, Clone)]
pub struct PackBuffer {
    arch: Architecture,
    buf: BytesMut,
}

impl PackBuffer {
    /// Start a buffer in `arch`'s native format.
    pub fn new(arch: Architecture) -> Self {
        Self { arch, buf: BytesMut::new() }
    }

    /// The architecture this buffer is packed for.
    pub fn arch(&self) -> Architecture {
        self.arch
    }

    /// Pack a 32-bit-semantics integer.
    pub fn pack_int(&mut self, v: i32) -> &mut Self {
        match self.arch.int_repr() {
            IntRepr::I32Big => self.buf.put_slice(&v.to_be_bytes()),
            IntRepr::I32Little => self.buf.put_slice(&v.to_le_bytes()),
            IntRepr::I64Cray => self.buf.put_slice(&(v as i64).to_be_bytes()),
        }
        self
    }

    /// Pack a single-precision float.
    pub fn pack_f32(&mut self, v: f32) -> &mut Self {
        match self.arch.float_repr() {
            FloatRepr::IeeeBig => self.buf.put_slice(&v.to_be_bytes()),
            FloatRepr::IeeeLittle => self.buf.put_slice(&v.to_le_bytes()),
            FloatRepr::Cray => {
                self.buf.put_slice(&cray::encode(v as f64).expect("f32 fits Cray").to_be_bytes())
            }
            FloatRepr::Vax => {
                self.buf.put_slice(&vax::encode_f(v).expect("finite f32 in VAX range"))
            }
        }
        self
    }

    /// Pack a slice of floats in one pass: the representation dispatch is
    /// hoisted out of the loop and the buffer grows once, so the common
    /// IEEE cases reduce to a single endian-converting sweep.
    pub fn pack_f32s(&mut self, vs: &[f32]) -> &mut Self {
        let width = if self.arch.float_repr() == FloatRepr::Cray { 8 } else { 4 };
        self.buf.reserve(vs.len() * width);
        match self.arch.float_repr() {
            FloatRepr::IeeeBig => {
                for v in vs {
                    self.buf.put_slice(&v.to_be_bytes());
                }
            }
            FloatRepr::IeeeLittle => {
                for v in vs {
                    self.buf.put_slice(&v.to_le_bytes());
                }
            }
            FloatRepr::Cray => {
                for v in vs {
                    self.buf
                        .put_slice(&cray::encode(*v as f64).expect("f32 fits Cray").to_be_bytes());
                }
            }
            FloatRepr::Vax => {
                for v in vs {
                    self.buf.put_slice(&vax::encode_f(*v).expect("finite f32 in VAX range"));
                }
            }
        }
        self
    }

    /// Finish packing.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Reader for a received buffer. The caller must know both the layout
/// and the **sender's** architecture — get either wrong and you read
/// garbage, which is the hazard UTS exists to remove.
#[derive(Debug)]
pub struct UnpackBuffer {
    arch: Architecture,
    buf: Bytes,
}

impl UnpackBuffer {
    /// Wrap received bytes packed by `arch`.
    pub fn new(arch: Architecture, buf: Bytes) -> Self {
        Self { arch, buf }
    }

    /// Unpack an integer.
    pub fn unpack_int(&mut self) -> Result<i32, String> {
        let width = self.arch.int_repr().width();
        if self.buf.remaining() < width {
            return Err("unpack_int: buffer exhausted".into());
        }
        Ok(match self.arch.int_repr() {
            IntRepr::I32Big => self.buf.get_i32(),
            IntRepr::I32Little => self.buf.get_i32_le(),
            IntRepr::I64Cray => self.buf.get_i64() as i32,
        })
    }

    /// Unpack a single-precision float.
    pub fn unpack_f32(&mut self) -> Result<f32, String> {
        match self.arch.float_repr() {
            FloatRepr::IeeeBig => {
                if self.buf.remaining() < 4 {
                    return Err("unpack_f32: buffer exhausted".into());
                }
                Ok(self.buf.get_f32())
            }
            FloatRepr::IeeeLittle => {
                if self.buf.remaining() < 4 {
                    return Err("unpack_f32: buffer exhausted".into());
                }
                Ok(self.buf.get_f32_le())
            }
            FloatRepr::Cray => {
                if self.buf.remaining() < 8 {
                    return Err("unpack_f32: buffer exhausted".into());
                }
                Ok(cray::decode(self.buf.get_u64()).map_err(|e| e.to_string())? as f32)
            }
            FloatRepr::Vax => {
                if self.buf.remaining() < 4 {
                    return Err("unpack_f32: buffer exhausted".into());
                }
                let mut b = [0u8; 4];
                self.buf.copy_to_slice(&mut b);
                vax::decode_f(b).map_err(|e| e.to_string())
            }
        }
    }

    /// Unpack `n` floats in one pass: the length check and representation
    /// dispatch happen once, then a single sweep fills a pre-sized vector.
    pub fn unpack_f32s(&mut self, n: usize) -> Result<Vec<f32>, String> {
        let width = if self.arch.float_repr() == FloatRepr::Cray { 8 } else { 4 };
        if self.buf.remaining() < n * width {
            return Err("unpack_f32s: buffer exhausted".into());
        }
        let mut out = Vec::with_capacity(n);
        match self.arch.float_repr() {
            FloatRepr::IeeeBig => {
                for _ in 0..n {
                    out.push(self.buf.get_f32());
                }
            }
            FloatRepr::IeeeLittle => {
                for _ in 0..n {
                    out.push(self.buf.get_f32_le());
                }
            }
            FloatRepr::Cray => {
                for _ in 0..n {
                    out.push(cray::decode(self.buf.get_u64()).map_err(|e| e.to_string())? as f32);
                }
            }
            FloatRepr::Vax => {
                for _ in 0..n {
                    let mut b = [0u8; 4];
                    self.buf.copy_to_slice(&mut b);
                    out.push(vax::decode_f(b).map_err(|e| e.to_string())?);
                }
            }
        }
        Ok(out)
    }
}

/// A received message.
#[derive(Debug)]
pub struct MpMessage {
    /// Sender task.
    pub from: TaskId,
    /// User tag.
    pub tag: u32,
    /// Packed payload (in the *sender's* native format).
    pub payload: Bytes,
    /// Virtual arrival time.
    pub arrive_at: f64,
}

struct Registry {
    addr_of: HashMap<TaskId, (String, Architecture)>,
}

/// The message-passing world.
pub struct MpSystem {
    net: Network,
    park: MachinePark,
    registry: Arc<Mutex<Registry>>,
    next_tid: AtomicU64,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// What a spawned task can do.
pub struct TaskCtx {
    tid: TaskId,
    arch: Architecture,
    host: String,
    endpoint: Endpoint,
    clock: VirtualClock,
    park: MachinePark,
    registry: Arc<Mutex<Registry>>,
    metrics: MetricsRegistry,
}

impl TaskCtx {
    /// This task's id.
    pub(crate) fn tid(&self) -> TaskId {
        self.tid
    }

    /// This task's machine architecture.
    pub fn arch(&self) -> Architecture {
        self.arch
    }

    /// This task's current virtual time.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Account local computation.
    pub fn compute(&self, flops: f64) {
        let secs = self.park.compute_seconds(&self.host, flops).unwrap_or(0.0);
        self.clock.advance(secs);
    }

    /// The architecture of another task (the receiver must track this to
    /// unpack correctly; mplite at least lets you ask).
    pub fn arch_of(&self, tid: TaskId) -> Option<Architecture> {
        self.registry.lock().unwrap().addr_of.get(&tid).map(|(_, a)| *a)
    }

    /// Send a packed buffer to a task with a tag.
    pub fn send(&self, to: TaskId, tag: u32, payload: Bytes) -> Result<(), String> {
        let addr = self
            .registry
            .lock()
            .unwrap()
            .addr_of
            .get(&to)
            .map(|(a, _)| a.clone())
            .ok_or_else(|| format!("no task {to:?}"))?;
        let user_bytes = payload.len() as u64;
        let mut framed = BytesMut::with_capacity(payload.len() + 12);
        framed.put_u64(self.tid.0);
        framed.put_u32(tag);
        framed.put_slice(&payload);
        self.endpoint.send(&addr, framed.freeze(), self.clock.now()).map_err(|e| e.to_string())?;
        // User-payload accounting (frame header excluded), comparable to
        // Schooner's rpc.request_bytes in the A7 ablation.
        self.metrics.counter_add("mp.send.messages", 1);
        self.metrics.counter_add("mp.send.bytes", user_bytes);
        Ok(())
    }

    /// Blocking receive of the next message with `tag` (other tags are
    /// discarded, as this baseline has no reordering buffer).
    pub fn recv(&self, tag: u32, timeout: Duration) -> Result<MpMessage, String> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let remaining = deadline
                .checked_duration_since(std::time::Instant::now())
                .ok_or("recv timed out")?;
            let env = match self.endpoint.recv(remaining.min(Duration::from_millis(50))) {
                Ok(env) => env,
                Err(NetError::Timeout) => continue,
                Err(e) => return Err(e.to_string()),
            };
            self.clock.merge(env.arrive_at);
            let mut payload = env.payload;
            if payload.remaining() < 12 {
                continue;
            }
            let from = TaskId(payload.get_u64());
            let msg_tag = payload.get_u32();
            if msg_tag != tag {
                continue;
            }
            self.metrics.counter_add("mp.recv.messages", 1);
            self.metrics.counter_add("mp.recv.bytes", payload.remaining() as u64);
            return Ok(MpMessage { from, tag: msg_tag, payload, arrive_at: env.arrive_at });
        }
    }
}

impl MpSystem {
    /// Build over a topology and machine park.
    pub fn new(topology: Topology, park: MachinePark) -> Self {
        Self {
            net: Network::new(topology),
            park,
            registry: Arc::new(Mutex::new(Registry { addr_of: HashMap::new() })),
            next_tid: AtomicU64::new(1),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// The standard NPSS testbed.
    pub fn standard() -> Self {
        Self::new(netsim::npss_testbed(), hetsim::standard_park())
    }

    /// Register (but do not thread-spawn) a task context — for tasks the
    /// caller drives directly, e.g. the "master" in a master/worker
    /// program.
    pub fn register(&self, host: &str) -> Result<TaskCtx, String> {
        let tid = TaskId(self.next_tid.fetch_add(1, Ordering::Relaxed));
        let arch = self.park.arch_of(host).ok_or_else(|| format!("unknown host '{host}'"))?;
        let addr = format!("{host}:mp-{}", tid.0);
        let endpoint = self.net.register(addr.clone()).map_err(|e| e.to_string())?;
        self.registry.lock().unwrap().addr_of.insert(tid, (addr, arch));
        Ok(TaskCtx {
            tid,
            arch,
            host: host.to_owned(),
            endpoint,
            clock: VirtualClock::new(),
            park: self.park.clone(),
            registry: self.registry.clone(),
            metrics: self.net.metrics().clone(),
        })
    }

    /// Spawn a task (a thread) running `body` on `host`.
    pub fn spawn(
        &self,
        host: &str,
        body: impl FnOnce(TaskCtx) + Send + 'static,
    ) -> Result<TaskId, String> {
        let ctx = self.register(host)?;
        let tid = ctx.tid();
        let handle = std::thread::Builder::new()
            .name(format!("mplite-{}", tid.0))
            .spawn(move || body(ctx))
            .map_err(|e| e.to_string())?;
        self.handles.lock().unwrap().push(handle);
        Ok(tid)
    }

    /// The world's metrics registry: per-link transport counters plus
    /// the `mp.send.*` / `mp.recv.*` message and user-byte totals every
    /// task records into it.
    pub fn metrics(&self) -> &MetricsRegistry {
        self.net.metrics()
    }

    /// Wait for every spawned task to finish.
    pub fn join_all(&self) {
        for h in self.handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip_same_arch() {
        for arch in Architecture::ALL {
            let mut pb = PackBuffer::new(arch);
            pb.pack_int(42).pack_f32(1.5).pack_f32s(&[2.5, -3.25]);
            let bytes = pb.finish();
            let mut ub = UnpackBuffer::new(arch, bytes);
            assert_eq!(ub.unpack_int().unwrap(), 42, "{arch}");
            assert_eq!(ub.unpack_f32().unwrap(), 1.5);
            assert_eq!(ub.unpack_f32s(2).unwrap(), vec![2.5, -3.25]);
        }
    }

    #[test]
    fn wrong_arch_assumption_reads_garbage() {
        // The hazard UTS removes: unpack with the wrong architecture and
        // you get a wrong value (or an error), silently.
        let mut pb = PackBuffer::new(Architecture::SunSparc10);
        pb.pack_f32(1.5);
        let bytes = pb.finish();
        let mut ub = UnpackBuffer::new(Architecture::IntelI860, bytes);
        let v = ub.unpack_f32().unwrap();
        assert_ne!(v, 1.5, "byte-swapped read must differ");
    }

    #[test]
    fn ping_pong_between_machines() {
        let mp = MpSystem::standard();
        let master = mp.register("lerc-sparc10").unwrap();
        let master_tid = master.tid();
        mp.spawn("lerc-cray-ymp", move |ctx| {
            let msg = ctx.recv(7, Duration::from_secs(5)).unwrap();
            // The worker must know the master's architecture to unpack.
            let sender_arch = ctx.arch_of(msg.from).unwrap();
            let mut ub = UnpackBuffer::new(sender_arch, msg.payload);
            let x = ub.unpack_f32().unwrap();
            ctx.compute(10_000.0);
            let mut pb = PackBuffer::new(ctx.arch());
            pb.pack_f32(x * 2.0);
            ctx.send(msg.from, 8, pb.finish()).unwrap();
        })
        .unwrap();

        let worker_arch = Architecture::CrayYmp;
        let mut pb = PackBuffer::new(master.arch());
        pb.pack_f32(21.25);
        // Find the worker's tid: it is the only other task.
        let worker_tid = TaskId(master_tid.0 + 1);
        master.send(worker_tid, 7, pb.finish()).unwrap();
        let reply = master.recv(8, Duration::from_secs(5)).unwrap();
        let mut ub = UnpackBuffer::new(worker_arch, reply.payload);
        assert_eq!(ub.unpack_f32().unwrap(), 42.5);
        assert!(master.now() > 0.0, "virtual time advanced");
        mp.join_all();
    }

    #[test]
    fn messages_with_other_tags_are_discarded() {
        let mp = MpSystem::standard();
        let a = mp.register("lerc-sparc10").unwrap();
        let b = mp.register("lerc-sgi-4d480").unwrap();
        let mut pb = PackBuffer::new(a.arch());
        pb.pack_int(1);
        a.send(b.tid(), 1, pb.finish()).unwrap();
        let mut pb = PackBuffer::new(a.arch());
        pb.pack_int(2);
        a.send(b.tid(), 2, pb.finish()).unwrap();
        // Waiting for tag 2 drops the tag-1 message.
        let msg = b.recv(2, Duration::from_secs(2)).unwrap();
        let mut ub = UnpackBuffer::new(a.arch(), msg.payload);
        assert_eq!(ub.unpack_int().unwrap(), 2);
        assert!(b.recv(1, Duration::from_millis(100)).is_err(), "tag-1 was discarded");
    }

    #[test]
    fn metrics_count_messages_and_user_bytes() {
        let mp = MpSystem::standard();
        let a = mp.register("lerc-sparc10").unwrap();
        let b = mp.register("lerc-sgi-4d480").unwrap();
        let mut pb = PackBuffer::new(a.arch());
        pb.pack_int(1).pack_f32(2.0);
        let payload = pb.finish();
        let n = payload.len() as u64;
        a.send(b.tid(), 3, payload).unwrap();
        b.recv(3, Duration::from_secs(2)).unwrap();
        let m = mp.metrics();
        assert_eq!(m.counter("mp.send.messages"), 1);
        assert_eq!(m.counter("mp.send.bytes"), n, "frame header excluded");
        assert_eq!(m.counter("mp.recv.messages"), 1);
        assert_eq!(m.counter("mp.recv.bytes"), n);
        // The transport's own per-link counter sees the framed message.
        assert_eq!(m.counter("net.msg.lerc-sparc10->lerc-sgi-4d480"), 1);
        assert_eq!(m.counter("net.bytes.lerc-sparc10->lerc-sgi-4d480"), n + 12);
    }

    #[test]
    fn send_to_unknown_task_errors() {
        let mp = MpSystem::standard();
        let a = mp.register("lerc-sparc10").unwrap();
        assert!(a.send(TaskId(999), 0, Bytes::new()).is_err());
        assert!(mp.register("nonesuch").is_err());
    }

    #[test]
    fn cray_integers_are_wider_on_the_wire() {
        let mut sparc = PackBuffer::new(Architecture::SunSparc10);
        sparc.pack_int(7);
        let mut cray_buf = PackBuffer::new(Architecture::CrayYmp);
        cray_buf.pack_int(7);
        assert_eq!(sparc.finish().len(), 4);
        assert_eq!(cray_buf.finish().len(), 8);
    }
}
