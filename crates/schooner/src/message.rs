//! The Schooner runtime protocol.
//!
//! Every interaction between modules, the Manager, the Servers, and the
//! remote-procedure processes is one of these messages, carried as a
//! binary payload over the simulated network. Argument and result values
//! travel inside [`Msg::CallRequest`]/[`Msg::CallReply`] as UTS wire-format
//! byte strings; the protocol itself uses a compact framing so message
//! sizes — which drive the network cost model — stay realistic.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use bytes::{BufMut, Bytes, BytesMut};
use ledger::codec::Reader;

use crate::codec::{self, Field};
use crate::error::{SchError, SchResult};

/// Machine-readable classification of a fault crossing the wire.
///
/// Replies used to carry bare strings; retry logic needs to distinguish
/// "the process is gone" from "the implementation raised a fault", so
/// error replies now carry a code plus the human-readable detail. A
/// code's discriminant is its byte on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FaultCode {
    /// No procedure with the requested name is visible.
    UnknownProcedure = 1,
    /// The line id is not known to the Manager.
    UnknownLine = 2,
    /// The executable path is not installed on the target host.
    UnknownExecutable = 3,
    /// A procedure with this name already exists in the line.
    Duplicate = 4,
    /// The procedure implementation reported a failure.
    RemoteFault = 5,
    /// The process addressed is gone (shut down, migrated away, died).
    ProcessGone = 6,
    /// Migration state capture or install failed.
    StateTransfer = 7,
    /// A message could not be decoded.
    Protocol = 8,
    /// The Manager (or another required service) is unavailable.
    Unavailable = 9,
    /// The supervision policy for a crashed procedure is to escalate the
    /// failure to the caller instead of recovering.
    Escalated = 11,
    // Byte 12 was the credit stall of the retired link flow control. It
    // stays reserved: a peer that sends it decodes to `Other` instead of
    // being misread as whatever reuses the number.
    /// Anything else; the detail string carries the description.
    Other = 10,
}

impl FaultCode {
    /// All codes, for exhaustive encode/decode testing.
    pub const ALL: [FaultCode; 11] = [
        FaultCode::UnknownProcedure,
        FaultCode::UnknownLine,
        FaultCode::UnknownExecutable,
        FaultCode::Duplicate,
        FaultCode::RemoteFault,
        FaultCode::ProcessGone,
        FaultCode::StateTransfer,
        FaultCode::Protocol,
        FaultCode::Unavailable,
        FaultCode::Escalated,
        FaultCode::Other,
    ];

    /// The code whose wire byte is `b`; an unknown byte (forward
    /// compatibility) is still an error, [`FaultCode::Other`].
    fn from_u8(b: u8) -> FaultCode {
        FaultCode::ALL.into_iter().find(|&c| c as u8 == b).unwrap_or(FaultCode::Other)
    }
}

/// A typed fault inside an error reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFault {
    /// What kind of failure this is.
    pub code: FaultCode,
    /// Human-readable detail (for [`FaultCode::RemoteFault`], the bare
    /// message the procedure implementation raised).
    pub detail: String,
}

impl WireFault {
    /// Build a fault.
    pub fn new(code: FaultCode, detail: impl Into<String>) -> Self {
        Self { code, detail: detail.into() }
    }

    /// Reconstruct the typed error on the caller's side.
    pub fn into_error(self) -> SchError {
        match self.code {
            FaultCode::UnknownProcedure => SchError::UnknownProcedure(self.detail),
            FaultCode::UnknownLine => {
                let id = self.detail.parse().unwrap_or(0);
                SchError::UnknownLine(id)
            }
            FaultCode::RemoteFault => SchError::RemoteFault(self.detail),
            FaultCode::ProcessGone => SchError::ProcessGone(self.detail),
            FaultCode::StateTransfer => SchError::StateTransfer(self.detail),
            FaultCode::Protocol => SchError::Protocol(self.detail),
            FaultCode::Unavailable => SchError::ManagerUnavailable,
            FaultCode::Escalated => SchError::Escalated(self.detail),
            // UnknownExecutable and Duplicate carry their rendered text:
            // the caller keeps the description without re-parsing fields.
            FaultCode::UnknownExecutable | FaultCode::Duplicate | FaultCode::Other => {
                SchError::Other(self.detail)
            }
        }
    }
}

impl std::fmt::Display for WireFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.detail)
    }
}

impl From<&SchError> for WireFault {
    fn from(e: &SchError) -> Self {
        match e {
            SchError::UnknownProcedure(name) => {
                WireFault::new(FaultCode::UnknownProcedure, name.clone())
            }
            SchError::UnknownLine(id) => WireFault::new(FaultCode::UnknownLine, id.to_string()),
            SchError::UnknownExecutable { .. } => {
                WireFault::new(FaultCode::UnknownExecutable, e.to_string())
            }
            SchError::DuplicateProcedure { .. } => {
                WireFault::new(FaultCode::Duplicate, e.to_string())
            }
            SchError::RemoteFault(msg) => WireFault::new(FaultCode::RemoteFault, msg.clone()),
            SchError::ProcessGone(addr) => WireFault::new(FaultCode::ProcessGone, addr.clone()),
            SchError::StateTransfer(msg) => WireFault::new(FaultCode::StateTransfer, msg.clone()),
            SchError::Protocol(msg) => WireFault::new(FaultCode::Protocol, msg.clone()),
            SchError::ManagerUnavailable => WireFault::new(FaultCode::Unavailable, e.to_string()),
            SchError::Escalated(msg) => WireFault::new(FaultCode::Escalated, msg.clone()),
            _ => WireFault::new(FaultCode::Other, e.to_string()),
        }
    }
}

/// Information returned when a process has been started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartedInfo {
    /// Address of the new process (`host:proc-N`).
    pub addr: String,
    /// Source text of the process's export specification file.
    pub spec_src: String,
    /// Exported procedure names, as the target compiler produced them
    /// (i.e. after Fortran case folding).
    pub proc_names: Vec<String>,
    /// Manager-assigned incarnation number of this process instance.
    /// Strictly increasing across respawns, so replies from a pre-crash
    /// instance can be fenced by comparison.
    pub incarnation: u64,
}

/// Information returned by a successful name mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapInfo {
    /// Address of the process exporting the procedure.
    pub addr: String,
    /// The procedure's name *at the remote end* (case-folded for its
    /// compiler) — the name to put in call requests.
    pub remote_name: String,
    /// Source text of the matching export specification.
    pub export_spec: String,
    /// Incarnation of the process currently exporting the procedure.
    pub incarnation: u64,
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    // ----- module ↔ Manager -----
    /// Register a module and open a new line (the `sch_contact` part of
    /// the dynamic startup protocol).
    OpenLine { req: u64, module: String, reply_to: String },
    /// Reply: the line id assigned.
    LineOpened { req: u64, line: u64 },
    /// Ask the Manager to start `path` on `host`, within `line` (or as a
    /// shared procedure when `shared`).
    StartRequest { req: u64, line: u64, path: String, host: String, shared: bool, reply_to: String },
    /// Reply to [`Msg::StartRequest`].
    StartReply { req: u64, result: Result<StartedInfo, WireFault> },
    /// Resolve a procedure name visible to `line`; carries the import
    /// spec so the Manager can type-check the binding. A non-empty
    /// `suspect_addr` reports the address the caller just failed to
    /// reach, prompting the Manager's health monitor to probe it before
    /// answering.
    MapRequest {
        req: u64,
        line: u64,
        name: String,
        import_spec: String,
        suspect_addr: String,
        reply_to: String,
    },
    /// Reply to [`Msg::MapRequest`].
    MapReply { req: u64, result: Result<MapInfo, WireFault> },
    /// A module is going away; terminate the remote procedures of its
    /// line only (`sch_i_quit`).
    IQuit { req: u64, line: u64, reply_to: String },
    /// Acknowledgement of [`Msg::IQuit`].
    IQuitAck { req: u64 },
    /// Move a procedure visible to `line` (its own, or a shared one) to
    /// `target_host`; an unknown `line` is refused like any other request.
    MoveRequest { req: u64, line: u64, name: String, target_host: String, reply_to: String },
    /// Reply to [`Msg::MoveRequest`].
    MoveReply { req: u64, result: Result<MapInfo, WireFault> },
    /// Terminate the Manager (explicit, since the Manager is persistent).
    ManagerShutdown,

    // ----- Manager ↔ Server -----
    /// Ask the Server to instantiate `path` as a process, stamped with
    /// the Manager-assigned `incarnation`.
    StartProcess { req: u64, line: u64, path: String, incarnation: u64, reply_to: String },
    /// Reply to [`Msg::StartProcess`].
    ProcessStarted { req: u64, result: Result<StartedInfo, WireFault> },
    /// Terminate the Server.
    ServerShutdown,

    // ----- caller ↔ process -----
    /// Invoke `proc_name` with wire-encoded input arguments.
    CallRequest { call: u64, line: u64, proc_name: WireStr, args: Bytes, reply_to: WireStr },
    /// Wire-encoded output results, or a fault. `incarnation` identifies
    /// the process instance that answered (0 when unknown, e.g. a
    /// transport-level fault synthesized outside any process); callers
    /// fence replies whose incarnation predates their current binding.
    CallReply { call: u64, incarnation: u64, result: Result<Bytes, WireFault> },
    /// Collect migration state (wire-encoded state variables).
    GetState { req: u64, reply_to: String },
    /// Reply to [`Msg::GetState`].
    StateReply { req: u64, result: Result<Bytes, WireFault> },
    /// Install migration state into a freshly started process.
    SetState { req: u64, state: Bytes, reply_to: String },
    /// Reply to [`Msg::SetState`].
    SetStateAck { req: u64, result: Result<(), WireFault> },
    /// Terminate the process.
    ProcShutdown,

    // ----- supervision -----
    /// Health probe (Manager → process): "are you alive?".
    Ping { req: u64, reply_to: String },
    /// Probe answer, carrying the responding instance's incarnation.
    Pong { req: u64, incarnation: u64 },
    /// Ask the Manager to checkpoint the named procedure of `line`: pull
    /// its `state(...)` variables via GetState and retain the
    /// architecture-neutral snapshot for crash recovery.
    CheckpointRequest { req: u64, line: u64, name: String, reply_to: String },
    /// Reply to [`Msg::CheckpointRequest`]; `Ok(n)` is the size in bytes
    /// of the retained snapshot (0 for stateless procedures).
    CheckpointReply { req: u64, result: Result<u64, WireFault> },
    /// Ask the Manager to push the latest retained checkpoint of the
    /// named procedure back into its current instance via SetState —
    /// the inverse of [`Msg::CheckpointRequest`], used after a
    /// journal-replayed store has been pre-seeded.
    RestoreRequest { req: u64, line: u64, name: String, reply_to: String },
    /// Reply to [`Msg::RestoreRequest`]; `Ok(n)` is the size in bytes of
    /// the restored snapshot (0 when no checkpoint is retained).
    RestoreReply { req: u64, result: Result<u64, WireFault> },
}

/// A string field decoded in place: a UTF-8-checked view into the
/// received message buffer, so decoding it copies nothing. It reads as a
/// `str`; building one from a `&str` copies the text once.
#[derive(Clone, PartialEq, Eq)]
pub struct WireStr(Bytes);

impl std::ops::Deref for WireStr {
    type Target = str;
    // Every constructor checks UTF-8 or copies from a `str`.
    #[allow(clippy::expect_used)]
    fn deref(&self) -> &str {
        std::str::from_utf8(&self.0).expect("a WireStr is UTF-8 from construction")
    }
}

impl From<&str> for WireStr {
    fn from(s: &str) -> Self {
        WireStr(Bytes::copy_from_slice(s.as_bytes()))
    }
}

impl From<String> for WireStr {
    fn from(s: String) -> Self {
        WireStr(Bytes::from(s.into_bytes()))
    }
}

impl std::fmt::Debug for WireStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// The same bytes as a `String` field; decodes as a slice of the input.
impl Field<Bytes> for WireStr {
    fn put(&self, out: &mut impl BufMut) {
        Field::<Bytes>::put(&self.0, out);
    }
    #[inline(always)]
    fn get(r: &mut Reader, input: &Bytes) -> Result<Self, String> {
        Ok(WireStr(input.slice(r.str_with_range()?.1)))
    }
}

/// The UTS-version byte of a map/move request or a [`MapInfo`]. The
/// runtime speaks one codec, so the byte is a constant on the wire
/// (message lengths predate that and are part of the byte-identity
/// surface); a peer announcing anything else is refused, not guessed at.
struct UtsVersion;

impl<In: ?Sized> Field<In> for UtsVersion {
    fn put(&self, out: &mut impl BufMut) {
        out.put_u8(uts::WIRE_V2);
    }
    fn get(r: &mut Reader, _: &In) -> Result<Self, String> {
        match r.u8()? {
            uts::WIRE_V2 => Ok(UtsVersion),
            v => Err(format!("unsupported UTS wire version {v}")),
        }
    }
}

/// `1` and the value, or `0`, the fault's code byte and its detail.
impl<In: ?Sized, T: Field<In>> Field<In> for Result<T, WireFault> {
    fn put(&self, out: &mut impl BufMut) {
        match self {
            Ok(v) => {
                out.put_u8(1);
                v.put(out);
            }
            Err(e) => {
                out.put_u8(0);
                out.put_u8(e.code as u8);
                Field::<In>::put(&e.detail, out);
            }
        }
    }
    fn get(r: &mut Reader, input: &In) -> Result<Self, String> {
        match r.u8()? {
            1 => T::get(r, input).map(Ok),
            0 => {
                let code = FaultCode::from_u8(r.u8()?);
                Ok(Err(WireFault { code, detail: Field::get(r, input)? }))
            }
            other => Err(format!("invalid result tag {other}")),
        }
    }
}

/// The names' count is a `u16`, after the incarnation.
impl<In: ?Sized> Field<In> for StartedInfo {
    fn put(&self, out: &mut impl BufMut) {
        Field::<In>::put(&self.addr, out);
        Field::<In>::put(&self.spec_src, out);
        out.put_u64(self.incarnation);
        out.put_u16(self.proc_names.len() as u16);
        self.proc_names.iter().for_each(|n| Field::<In>::put(n, out));
    }
    fn get(r: &mut Reader, input: &In) -> Result<Self, String> {
        let (addr, spec_src, incarnation) =
            (Field::get(r, input)?, Field::get(r, input)?, r.u64()?);
        // Each name is at least its 4-byte length.
        let n = r.count_u16(4)?;
        let mut proc_names = Vec::with_capacity(n);
        for _ in 0..n {
            proc_names.push(Field::get(r, input)?);
        }
        Ok(StartedInfo { addr, spec_src, proc_names, incarnation })
    }
}

/// The UTS-version byte comes last.
impl<In: ?Sized> Field<In> for MapInfo {
    fn put(&self, out: &mut impl BufMut) {
        Field::<In>::put(&self.addr, out);
        Field::<In>::put(&self.remote_name, out);
        Field::<In>::put(&self.export_spec, out);
        out.put_u64(self.incarnation);
        Field::<In>::put(&UtsVersion, out);
    }
    fn get(r: &mut Reader, input: &In) -> Result<Self, String> {
        let info = MapInfo {
            addr: Field::get(r, input)?,
            remote_name: Field::get(r, input)?,
            export_spec: Field::get(r, input)?,
            incarnation: r.u64()?,
        };
        UtsVersion::get(r, input)?;
        Ok(info)
    }
}

// Payload fields (`args`, `state`, the `Ok` blobs) decode as slices of
// the received `Bytes`, not copies.
codec::tagged! {
    Msg from Bytes, "message";
    1 OpenLine { req, module, reply_to }
    2 LineOpened { req, line }
    3 StartRequest { req, line, path, host, shared, reply_to }
    4 StartReply { req, result }
    5 MapRequest { req, line, name, import_spec, suspect_addr, [UtsVersion] reply_to }
    6 MapReply { req, result }
    7 IQuit { req, line, reply_to }
    8 IQuitAck { req }
    9 MoveRequest { req, line, name, target_host, [UtsVersion] reply_to }
    10 MoveReply { req, result }
    11 ManagerShutdown {}
    12 StartProcess { req, line, path, incarnation, reply_to }
    13 ProcessStarted { req, result }
    14 ServerShutdown {}
    15 CallRequest { call, line, proc_name, args, reply_to }
    16 CallReply { call, incarnation, result }
    17 GetState { req, reply_to }
    18 StateReply { req, result }
    19 SetState { req, state, reply_to }
    20 SetStateAck { req, result }
    21 ProcShutdown {}
    22 Ping { req, reply_to }
    23 Pong { req, incarnation }
    24 CheckpointRequest { req, line, name, reply_to }
    25 CheckpointReply { req, result }
    26 RestoreRequest { req, line, name, reply_to }
    27 RestoreReply { req, result }
}

impl Msg {
    /// Exact wire size of a [`Msg::CallRequest`] with these fields —
    /// what [`Msg::encode_call_request_into`] will emit. Computed ahead
    /// of the gather so the link layer can make its framing decisions
    /// before a single byte is written.
    pub fn call_request_wire_len(proc_name: &str, args_len: usize, reply_to: &str) -> usize {
        1 + 8 + 8 + (4 + proc_name.len()) + (4 + args_len) + (4 + reply_to.len())
    }

    /// Encode a [`Msg::CallRequest`] directly into `out` — the
    /// scatter-gather fast path, writing the marshal plan's output
    /// straight into the line's lent wire buffer or a link frame buffer
    /// with no per-call `Bytes` allocation. It restates the table's
    /// `CallRequest` row from
    /// borrowed fields; a test pins the two byte-identical.
    pub fn encode_call_request_into(
        out: &mut BytesMut,
        call: u64,
        line: u64,
        proc_name: &str,
        args: &[u8],
        reply_to: &str,
    ) {
        out.put_u8(15);
        out.put_u64(call);
        out.put_u64(line);
        for field in [proc_name.as_bytes(), args, reply_to.as_bytes()] {
            out.put_u32(field.len() as u32);
            out.put_slice(field);
        }
    }

    /// Bytes a [`Msg::CallReply`] carrying `Ok` puts before its payload:
    /// tag, call, incarnation, result tag and the payload's length.
    pub const CALL_REPLY_HEADER_LEN: usize = 1 + 8 + 8 + 1 + 4;

    /// Encode a [`Msg::CallReply`] carrying `Ok(payload)` directly into
    /// `out`, where `write` appends the payload — the gather path a
    /// process marshals its results through, so the reply is assembled
    /// in its one buffer. The payload's length is backfilled once `write`
    /// returns; its error is returned as is, with `out` partly written.
    /// It restates the table's `CallReply` row; a test pins the two
    /// byte-identical.
    pub fn encode_call_reply_into<E>(
        out: &mut BytesMut,
        call: u64,
        incarnation: u64,
        write: impl FnOnce(&mut BytesMut) -> Result<(), E>,
    ) -> Result<(), E> {
        out.put_u8(16);
        out.put_u64(call);
        out.put_u64(incarnation);
        out.put_u8(1);
        let at = out.len();
        out.put_u32(0);
        write(out)?;
        let len = (out.len() - at - 4) as u32;
        out[at..at + 4].copy_from_slice(&len.to_be_bytes());
        Ok(())
    }

    /// Encode this message into transport bytes.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(64);
        self.put(&mut b);
        b.freeze()
    }

    /// Decode a message from transport bytes.
    pub fn decode(buf: Bytes) -> SchResult<Msg> {
        codec::decode(&buf).map_err(SchError::Protocol)
    }
}

/// Largest buffer a line or process keeps as its spare: a bulk payload's
/// buffer is freed once read rather than held for the rest of the run.
pub(crate) const SPARE_CAP: usize = 16 * 1024;

/// Keep the storage of a received call message as `spare`, the buffer
/// the side's next call message is written into. It is kept only when
/// `spare` is empty (a side keeps one), nothing else still holds it (a
/// zero-copy `array of byte` value may) and its capacity is at most
/// [`SPARE_CAP`]; otherwise it is dropped as before.
pub(crate) fn reclaim(spare: &mut BytesMut, buf: Bytes) {
    // A view longer than the cap is never kept: skip moving its bytes to
    // the front of the storage only to drop it.
    if spare.capacity() > 0 || buf.len() > SPARE_CAP {
        return;
    }
    if let Ok(mut buf) = buf.try_into_mut() {
        if buf.capacity() <= SPARE_CAP {
            buf.clear();
            *spare = buf;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(m: Msg) {
        let enc = m.encode();
        let dec = Msg::decode(enc).unwrap();
        assert_eq!(dec, m);
    }

    /// One of every message variant; every payload decoder (`StartedInfo`,
    /// `MapInfo`, bytes, counts, faults) appears under at least one of them.
    fn all_variants() -> Vec<Msg> {
        let all = vec![
            Msg::OpenLine { req: 1, module: "shaft".into(), reply_to: "a:1".into() },
            Msg::LineOpened { req: 1, line: 7 },
            Msg::StartRequest {
                req: 2,
                line: 7,
                path: "/npss/shaft".into(),
                host: "lerc-cray-ymp".into(),
                shared: true,
                reply_to: "a:1".into(),
            },
            Msg::StartReply {
                req: 2,
                result: Ok(StartedInfo {
                    addr: "cray:proc-3".into(),
                    spec_src: "export f prog()".into(),
                    proc_names: vec!["F".into(), "G".into()],
                    incarnation: 4,
                }),
            },
            Msg::StartReply {
                req: 2,
                result: Err(WireFault::new(FaultCode::Other, "no such file")),
            },
            Msg::MapRequest {
                req: 3,
                line: 7,
                name: "shaft".into(),
                import_spec: "import shaft prog()".into(),
                suspect_addr: "cray:proc-3".into(),
                reply_to: "a:1".into(),
            },
            Msg::MapReply {
                req: 3,
                result: Ok(MapInfo {
                    addr: "cray:proc-3".into(),
                    remote_name: "SHAFT".into(),
                    export_spec: "export SHAFT prog()".into(),
                    incarnation: 9,
                }),
            },
            Msg::MapReply {
                req: 3,
                result: Err(WireFault::new(FaultCode::UnknownProcedure, "unknown")),
            },
            Msg::IQuit { req: 4, line: 7, reply_to: "a:1".into() },
            Msg::IQuitAck { req: 4 },
            Msg::MoveRequest {
                req: 5,
                line: 7,
                name: "shaft".into(),
                target_host: "lerc-rs6000".into(),
                reply_to: "a:1".into(),
            },
            Msg::MoveReply {
                req: 5,
                result: Err(WireFault::new(FaultCode::ProcessGone, "cray:proc-3")),
            },
            Msg::ManagerShutdown,
            Msg::StartProcess {
                req: 6,
                line: 7,
                path: "/npss/shaft".into(),
                incarnation: 2,
                reply_to: "mgr".into(),
            },
            Msg::ProcessStarted {
                req: 6,
                result: Err(WireFault::new(FaultCode::UnknownExecutable, "not installed")),
            },
            Msg::ServerShutdown,
            Msg::CallRequest {
                call: 9,
                line: 7,
                proc_name: "SHAFT".into(),
                args: Bytes::from_static(&[1, 2, 3]),
                reply_to: "a:1".into(),
            },
            Msg::CallReply { call: 9, incarnation: 3, result: Ok(Bytes::from_static(&[4, 5])) },
            Msg::CallReply {
                call: 9,
                incarnation: 0,
                result: Err(WireFault::new(FaultCode::RemoteFault, "fault")),
            },
            Msg::GetState { req: 10, reply_to: "mgr".into() },
            Msg::StateReply { req: 10, result: Ok(Bytes::from_static(&[7])) },
            Msg::SetState { req: 11, state: Bytes::new(), reply_to: "mgr".into() },
            Msg::SetStateAck { req: 11, result: Ok(()) },
            Msg::SetStateAck {
                req: 11,
                result: Err(WireFault::new(FaultCode::StateTransfer, "type")),
            },
            Msg::ProcShutdown,
            Msg::Ping { req: 12, reply_to: "mgr".into() },
            Msg::Pong { req: 12, incarnation: 5 },
            Msg::CheckpointRequest {
                req: 13,
                line: 7,
                name: "shaft".into(),
                reply_to: "a:1".into(),
            },
            Msg::CheckpointReply { req: 13, result: Ok(64) },
            Msg::CheckpointReply {
                req: 13,
                result: Err(WireFault::new(FaultCode::StateTransfer, "no state")),
            },
            Msg::RestoreRequest { req: 14, line: 7, name: "shaft".into(), reply_to: "a:1".into() },
            Msg::RestoreReply { req: 14, result: Ok(64) },
            Msg::RestoreReply {
                req: 14,
                result: Err(WireFault::new(FaultCode::StateTransfer, "no state")),
            },
        ];
        // Compile-time exhaustiveness, as in obs's `one_of_each`: a new
        // variant breaks this match until it is listed here, and
        // `every_tag_has_a_sample` fails until the list holds one of it.
        for m in &all {
            use Msg::*;
            match m {
                OpenLine { .. }
                | LineOpened { .. }
                | StartRequest { .. }
                | StartReply { .. }
                | MapRequest { .. }
                | MapReply { .. }
                | IQuit { .. }
                | IQuitAck { .. }
                | MoveRequest { .. }
                | MoveReply { .. }
                | ManagerShutdown
                | StartProcess { .. }
                | ProcessStarted { .. }
                | ServerShutdown
                | CallRequest { .. }
                | CallReply { .. }
                | GetState { .. }
                | StateReply { .. }
                | SetState { .. }
                | SetStateAck { .. }
                | ProcShutdown
                | Ping { .. }
                | Pong { .. }
                | CheckpointRequest { .. }
                | CheckpointReply { .. }
                | RestoreRequest { .. }
                | RestoreReply { .. } => {}
            }
        }
        all
    }

    #[test]
    fn every_tag_has_a_sample() {
        let tags: std::collections::BTreeSet<u8> =
            all_variants().iter().map(|m| m.encode()[0]).collect();
        assert!(tags.into_iter().eq(1..=27));
    }

    #[test]
    fn all_variants_round_trip() {
        all_variants().into_iter().for_each(round_trip);
    }

    /// The encoding itself, not just its round trip: a change made the
    /// same way on both sides (endianness, length width) moves this.
    #[test]
    fn all_variants_encode_to_pinned_bytes() {
        let bytes: Vec<u8> = all_variants().iter().flat_map(|m| m.encode().to_vec()).collect();
        assert_eq!((bytes.len(), ledger::frame::crc32(&bytes)), (889, 0x6D7F_5B28));
        assert_eq!(FaultCode::ALL.map(|c| c as u8), [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 10]);
        assert_eq!(FaultCode::from_u8(12), FaultCode::Other, "byte 12 is reserved");
    }

    /// A `StartReply` whose `u16` name count promises 65 535 names that
    /// are not there is refused before anything is reserved for them.
    #[test]
    fn forged_proc_name_count_is_a_protocol_error() {
        let reply = Msg::StartReply {
            req: 2,
            result: Ok(StartedInfo {
                addr: "cray:proc-3".into(),
                spec_src: String::new(),
                proc_names: Vec::new(),
                incarnation: 4,
            }),
        };
        let mut raw = reply.encode().to_vec();
        let n = raw.len();
        raw[n - 2..].copy_from_slice(&u16::MAX.to_be_bytes());
        match Msg::decode(Bytes::from(raw)) {
            Err(SchError::Protocol(why)) => assert!(why.contains("count 65535"), "{why}"),
            other => panic!("forged count decoded to {other:?}"),
        }
    }

    /// A damaged message decodes to a typed error or to some well-formed
    /// message (one that survives its own round trip) — never a panic.
    fn decodes_without_panicking(raw: Vec<u8>) {
        if let Ok(m) = Msg::decode(Bytes::from(raw)) {
            assert_eq!(Msg::decode(m.encode()), Ok(m));
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_of_every_variant_decodes_or_fails_typed() {
        for msg in all_variants() {
            let enc = msg.encode();
            for cut in 0..enc.len() {
                decodes_without_panicking(enc[..cut].to_vec());
            }
            for i in 0..enc.len() {
                for bit in 0..8 {
                    let mut bad = enc.to_vec();
                    bad[i] ^= 1 << bit;
                    decodes_without_panicking(bad);
                }
            }
        }
    }

    #[test]
    fn fault_codes_round_trip_and_reconstruct() {
        for code in FaultCode::ALL {
            round_trip(Msg::CallReply {
                call: 1,
                incarnation: 0,
                result: Err(WireFault::new(code, "detail")),
            });
        }
        let e = WireFault::new(FaultCode::UnknownProcedure, "shaft").into_error();
        assert_eq!(e, SchError::UnknownProcedure("shaft".into()));
        let e = WireFault::new(FaultCode::UnknownLine, "17").into_error();
        assert_eq!(e, SchError::UnknownLine(17));
        let e = WireFault::new(FaultCode::Unavailable, "anything").into_error();
        assert_eq!(e, SchError::ManagerUnavailable);
        let round = WireFault::from(&SchError::ProcessGone("a:p".into())).into_error();
        assert_eq!(round, SchError::ProcessGone("a:p".into()));
        let text_kept = WireFault::from(&SchError::UnknownExecutable {
            path: "/npss/shaft".into(),
            host: "cray".into(),
        })
        .into_error();
        assert!(text_kept.to_string().contains("/npss/shaft"));
    }

    #[test]
    fn gather_encode_matches_encode_and_predicted_len() {
        let msg = Msg::CallRequest {
            call: 42,
            line: 7,
            proc_name: "SHAFT".into(),
            args: Bytes::from(vec![9u8; 37]),
            reply_to: "lerc-rs6000:line-3".into(),
        };
        let boxed = msg.encode();
        let mut gathered = BytesMut::new();
        Msg::encode_call_request_into(
            &mut gathered,
            42,
            7,
            "SHAFT",
            &[9u8; 37],
            "lerc-rs6000:line-3",
        );
        assert_eq!(&gathered[..], &boxed[..]);
        assert_eq!(Msg::call_request_wire_len("SHAFT", 37, "lerc-rs6000:line-3"), boxed.len());
    }

    #[test]
    fn gather_reply_matches_encode_and_header_len() {
        for payload in [Vec::new(), vec![7u8; 5], vec![0xA5; 70_000]] {
            let boxed = Msg::CallReply {
                call: 42,
                incarnation: 3,
                result: Ok(Bytes::from(payload.clone())),
            }
            .encode();
            let mut gathered = BytesMut::new();
            Msg::encode_call_reply_into(&mut gathered, 42, 3, |b| {
                b.put_slice(&payload);
                Ok::<_, ()>(())
            })
            .unwrap();
            assert_eq!(&gathered[..], &boxed[..]);
            assert_eq!(Msg::CALL_REPLY_HEADER_LEN + payload.len(), boxed.len());
        }
        let mut failed = BytesMut::new();
        let err = Msg::encode_call_reply_into(&mut failed, 1, 1, |_| Err("no outputs"));
        assert_eq!(err, Err("no outputs"));
    }

    /// A decoded `CallRequest`'s strings are views of the received
    /// buffer, and a non-UTF-8 name is refused as `String` fields are.
    #[test]
    fn call_request_strings_decode_in_place() {
        let enc = Msg::CallRequest {
            call: 1,
            line: 2,
            proc_name: "SHAFT".into(),
            args: Bytes::from_static(&[1, 2]),
            reply_to: "a:line-1".into(),
        }
        .encode();
        let Ok(Msg::CallRequest { proc_name, reply_to, .. }) = Msg::decode(enc.clone()) else {
            panic!("decodes")
        };
        assert_eq!((&*proc_name, &*reply_to), ("SHAFT", "a:line-1"));
        let inside = enc.as_ptr_range();
        assert!(inside.contains(&proc_name.as_ptr()) && inside.contains(&reply_to.as_ptr()));
        let mut bad = enc.to_vec();
        bad[1 + 8 + 8 + 4] = 0xFF;
        match Msg::decode(Bytes::from(bad)) {
            Err(SchError::Protocol(why)) => assert_eq!(why, "invalid UTF-8 at byte 17"),
            other => panic!("non-UTF-8 name decoded to {other:?}"),
        }
    }

    /// The version byte keeps its place in the encoding; any value but
    /// the one codec the runtime speaks is a protocol error, where the
    /// old negotiation clamped it into range and carried on.
    #[test]
    fn foreign_uts_version_is_a_protocol_error() {
        let reply_to = "a:1".to_owned();
        let map = Msg::MapRequest {
            req: 3,
            line: 7,
            name: "shaft".into(),
            import_spec: String::new(),
            suspect_addr: String::new(),
            reply_to: reply_to.clone(),
        };
        let mv = Msg::MoveRequest {
            req: 5,
            line: 7,
            name: "shaft".into(),
            target_host: "lerc-rs6000".into(),
            reply_to: reply_to.clone(),
        };
        let reply = Msg::MapReply {
            req: 3,
            result: Ok(MapInfo {
                addr: "cray:proc-3".into(),
                remote_name: "SHAFT".into(),
                export_spec: "export SHAFT prog()".into(),
                incarnation: 9,
            }),
        };
        // The byte sits before the length-prefixed `reply_to` in the two
        // requests and is the last byte of an `Ok` `MapInfo`.
        let before_reply_to = 4 + reply_to.len() + 1;
        for (msg, from_end) in [(map, before_reply_to), (mv, before_reply_to), (reply, 1)] {
            let enc = msg.encode();
            let at = enc.len() - from_end;
            assert_eq!(enc[at], uts::WIRE_V2, "{msg:?}");
            for foreign in [1u8, 0xFF] {
                let mut raw = enc.to_vec();
                raw[at] = foreign;
                match Msg::decode(Bytes::from(raw)) {
                    Err(SchError::Protocol(why)) => {
                        assert!(why.contains(&format!("wire version {foreign}")), "{why}");
                    }
                    other => panic!("version {foreign} of {msg:?} decoded to {other:?}"),
                }
            }
        }
    }

    /// `LineOpened`'s tag in the table.
    const T_LINE_OPENED: u8 = 2;

    #[test]
    fn garbage_rejected_cleanly() {
        assert!(Msg::decode(Bytes::from_static(&[99])).is_err());
        assert!(Msg::decode(Bytes::from_static(&[T_LINE_OPENED, 0, 0])).is_err());
        assert!(Msg::decode(Bytes::new()).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut enc = Msg::IQuitAck { req: 1 }.encode().to_vec();
        enc.push(0);
        assert!(Msg::decode(Bytes::from(enc)).is_err());
    }

    #[test]
    fn call_request_size_tracks_payload() {
        let small = Msg::CallRequest {
            call: 1,
            line: 1,
            proc_name: "f".into(),
            args: Bytes::from_static(&[0; 8]),
            reply_to: "a:1".into(),
        }
        .encode()
        .len();
        let big = Msg::CallRequest {
            call: 1,
            line: 1,
            proc_name: "f".into(),
            args: Bytes::from(vec![0u8; 8 + 1024]),
            reply_to: "a:1".into(),
        }
        .encode()
        .len();
        assert_eq!(big - small, 1024);
    }
}
