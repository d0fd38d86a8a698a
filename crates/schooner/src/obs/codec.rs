//! Binary codec for [`EventKind`] journal records.
//!
//! The ledger stores obs events as opaque payloads; this module is the
//! schema. Every variant encodes as `[u8 tag][fields]` with big-endian
//! integers, IEEE-754 bit patterns for floats (exact round trip, no
//! formatting), and `u32`-length-prefixed UTF-8 strings. The codec is
//! **field-exact**: `decode_event(encode_event(e)) == e` for every
//! variant, so a journal replay renders the same legacy `Display`
//! transcript the live run produced.
//!
//! Unknown tags and truncated payloads decode to an error string — the
//! caller (CLI `replay`, tests) decides whether that is fatal; the
//! ledger layer has already CRC-validated the frame, so an undecodable
//! payload means a version skew, not bit rot.

use super::event::EventKind;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_f64(out, x);
        }
    }
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_u64(out, x);
        }
    }
}

const T_REMOTE_STARTED: u8 = 1;
const T_CALL_ISSUED: u8 = 2;
const T_REPLY_RECEIVED: u8 = 3;
const T_CALL_RETRY: u8 = 4;
const T_FAILOVER_MOVE: u8 = 5;
const T_FAILOVER_FAILED: u8 = 6;
const T_REPLY_FENCED: u8 = 7;
const T_DEGRADED: u8 = 8;
const T_LINE_OPENED: u8 = 9;
const T_EXPORTS_REGISTERED: u8 = 10;
const T_MAPPED: u8 = 11;
const T_PROBE_ENDPOINT_GONE: u8 = 12;
const T_HEARTBEAT_ANSWERED: u8 = 13;
const T_HEARTBEAT_MISS: u8 = 14;
const T_DEATH_VERDICT: u8 = 15;
const T_FAILURE_ESCALATED: u8 = 16;
const T_RESPAWN_FAILED: u8 = 17;
const T_CHECKPOINT_RESTORED: u8 = 18;
const T_RESPAWNED: u8 = 19;
const T_CHECKPOINTED: u8 = 20;
const T_LINE_SHUTDOWN: u8 = 21;
const T_MOVED: u8 = 22;
const T_MANAGER_SHUTDOWN: u8 = 23;
const T_PROCESS_SPAWNED: u8 = 24;
const T_COMPUTED: u8 = 25;
const T_PROCESS_SHUTDOWN: u8 = 26;
const T_BARRIER: u8 = 27;
const T_ROLLBACK: u8 = 28;
// Tag 29 was the free-form `Note` event of the retired `Trace` facade.
// It stays reserved: a journal holding one decodes to the unknown-tag
// error instead of being misread as whatever reuses the number.

/// Encode one event for the journal.
pub fn encode_event(e: &EventKind) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    encode_event_into(&mut out, e);
    out
}

/// Encode one event, appended to `out` — what [`Obs::emit`](super::Obs::emit)
/// hands the journal, encoding straight into its buffer.
pub fn encode_event_into(out: &mut Vec<u8>, e: &EventKind) {
    use EventKind::*;
    match e {
        RemoteStarted { line, path, machine, addr } => {
            out.push(T_REMOTE_STARTED);
            put_u64(out, *line);
            put_str(out, path);
            put_str(out, machine);
            put_str(out, addr);
        }
        CallIssued { line, proc, addr } => {
            out.push(T_CALL_ISSUED);
            put_u64(out, *line);
            put_str(out, proc);
            put_str(out, addr);
        }
        ReplyReceived { line, proc, addr } => {
            out.push(T_REPLY_RECEIVED);
            put_u64(out, *line);
            put_str(out, proc);
            put_str(out, addr);
        }
        CallRetry { line, attempt, name, backoff_s, cause } => {
            out.push(T_CALL_RETRY);
            put_u64(out, *line);
            put_u32(out, *attempt);
            put_str(out, name);
            put_opt_f64(out, *backoff_s);
            put_str(out, cause);
        }
        FailoverMove { line, name, target, cause } => {
            out.push(T_FAILOVER_MOVE);
            put_u64(out, *line);
            put_str(out, name);
            put_str(out, target);
            put_str(out, cause);
        }
        FailoverFailed { line, target, cause } => {
            out.push(T_FAILOVER_FAILED);
            put_u64(out, *line);
            put_str(out, target);
            put_str(out, cause);
        }
        ReplyFenced { line, incarnation, binding } => {
            out.push(T_REPLY_FENCED);
            put_u64(out, *line);
            put_u64(out, *incarnation);
            put_u64(out, *binding);
        }
        Degraded { line, module, cause } => {
            out.push(T_DEGRADED);
            put_u64(out, *line);
            put_str(out, module);
            put_str(out, cause);
        }
        LineOpened { line, module } => {
            out.push(T_LINE_OPENED);
            put_u64(out, *line);
            put_str(out, module);
        }
        ExportsRegistered { count, path, addr, line } => {
            out.push(T_EXPORTS_REGISTERED);
            put_u64(out, *count as u64);
            put_str(out, path);
            put_str(out, addr);
            put_opt_u64(out, *line);
        }
        Mapped { name, line, addr } => {
            out.push(T_MAPPED);
            put_str(out, name);
            put_u64(out, *line);
            put_str(out, addr);
        }
        ProbeEndpointGone { addr } => {
            out.push(T_PROBE_ENDPOINT_GONE);
            put_str(out, addr);
        }
        HeartbeatAnswered { addr } => {
            out.push(T_HEARTBEAT_ANSWERED);
            put_str(out, addr);
        }
        HeartbeatMiss { n, threshold, addr } => {
            out.push(T_HEARTBEAT_MISS);
            put_u32(out, *n);
            put_u32(out, *threshold);
            put_str(out, addr);
        }
        DeathVerdict { addr, incarnation } => {
            out.push(T_DEATH_VERDICT);
            put_str(out, addr);
            put_u64(out, *incarnation);
        }
        FailureEscalated { name } => {
            out.push(T_FAILURE_ESCALATED);
            put_str(out, name);
        }
        RespawnFailed { path, host, cause } => {
            out.push(T_RESPAWN_FAILED);
            put_str(out, path);
            put_str(out, host);
            put_str(out, cause);
        }
        CheckpointRestored { path, taken_at } => {
            out.push(T_CHECKPOINT_RESTORED);
            put_str(out, path);
            put_f64(out, *taken_at);
        }
        Respawned { path, host, incarnation, addr } => {
            out.push(T_RESPAWNED);
            put_str(out, path);
            put_str(out, host);
            put_u64(out, *incarnation);
            put_str(out, addr);
        }
        Checkpointed { name, bytes, at } => {
            out.push(T_CHECKPOINTED);
            put_str(out, name);
            put_u64(out, *bytes);
            put_f64(out, *at);
        }
        LineShutdown { line, module } => {
            out.push(T_LINE_SHUTDOWN);
            put_u64(out, *line);
            put_str(out, module);
        }
        Moved { name, old, new } => {
            out.push(T_MOVED);
            put_str(out, name);
            put_str(out, old);
            put_str(out, new);
        }
        ManagerShutdown => out.push(T_MANAGER_SHUTDOWN),
        ProcessSpawned { host, addr, path, line } => {
            out.push(T_PROCESS_SPAWNED);
            put_str(out, host);
            put_str(out, addr);
            put_str(out, path);
            put_u64(out, *line);
        }
        Computed { addr, proc, flops, compute_s } => {
            out.push(T_COMPUTED);
            put_str(out, addr);
            put_str(out, proc);
            put_f64(out, *flops);
            put_f64(out, *compute_s);
        }
        ProcessShutdown { addr } => {
            out.push(T_PROCESS_SHUTDOWN);
            put_str(out, addr);
        }
        Barrier { step, t } => {
            out.push(T_BARRIER);
            put_u64(out, *step as u64);
            put_f64(out, *t);
        }
        Rollback { step, cause, t, recovery, max } => {
            out.push(T_ROLLBACK);
            put_u64(out, *step as u64);
            put_str(out, cause);
            put_f64(out, *t);
            put_u32(out, *recovery);
            put_u32(out, *max);
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.bytes.len() - self.pos < n {
            return Err(format!("event payload truncated at byte {}", self.pos));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        let mut w = [0u8; 4];
        w.copy_from_slice(self.take(4)?);
        Ok(u32::from_be_bytes(w))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let mut w = [0u8; 8];
        w.copy_from_slice(self.take(8)?);
        Ok(u64::from_be_bytes(w))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| "invalid UTF-8".to_string())
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            other => Err(format!("bad Option discriminant {other}")),
        }
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            other => Err(format!("bad Option discriminant {other}")),
        }
    }
}

/// Decode one journaled event payload.
pub fn decode_event(bytes: &[u8]) -> Result<EventKind, String> {
    use EventKind::*;
    let mut r = Reader { bytes, pos: 0 };
    let tag = r.u8()?;
    let event = match tag {
        T_REMOTE_STARTED => {
            RemoteStarted { line: r.u64()?, path: r.str()?, machine: r.str()?, addr: r.str()? }
        }
        T_CALL_ISSUED => {
            CallIssued { line: r.u64()?, proc: r.str()?.into(), addr: r.str()?.into() }
        }
        T_REPLY_RECEIVED => {
            ReplyReceived { line: r.u64()?, proc: r.str()?.into(), addr: r.str()?.into() }
        }
        T_CALL_RETRY => CallRetry {
            line: r.u64()?,
            attempt: r.u32()?,
            name: r.str()?,
            backoff_s: r.opt_f64()?,
            cause: r.str()?,
        },
        T_FAILOVER_MOVE => {
            FailoverMove { line: r.u64()?, name: r.str()?, target: r.str()?, cause: r.str()? }
        }
        T_FAILOVER_FAILED => FailoverFailed { line: r.u64()?, target: r.str()?, cause: r.str()? },
        T_REPLY_FENCED => ReplyFenced { line: r.u64()?, incarnation: r.u64()?, binding: r.u64()? },
        T_DEGRADED => Degraded { line: r.u64()?, module: r.str()?, cause: r.str()? },
        T_LINE_OPENED => LineOpened { line: r.u64()?, module: r.str()? },
        T_EXPORTS_REGISTERED => ExportsRegistered {
            count: r.u64()? as usize,
            path: r.str()?,
            addr: r.str()?,
            line: r.opt_u64()?,
        },
        T_MAPPED => Mapped { name: r.str()?, line: r.u64()?, addr: r.str()? },
        T_PROBE_ENDPOINT_GONE => ProbeEndpointGone { addr: r.str()? },
        T_HEARTBEAT_ANSWERED => HeartbeatAnswered { addr: r.str()? },
        T_HEARTBEAT_MISS => HeartbeatMiss { n: r.u32()?, threshold: r.u32()?, addr: r.str()? },
        T_DEATH_VERDICT => DeathVerdict { addr: r.str()?, incarnation: r.u64()? },
        T_FAILURE_ESCALATED => FailureEscalated { name: r.str()? },
        T_RESPAWN_FAILED => RespawnFailed { path: r.str()?, host: r.str()?, cause: r.str()? },
        T_CHECKPOINT_RESTORED => CheckpointRestored { path: r.str()?, taken_at: r.f64()? },
        T_RESPAWNED => {
            Respawned { path: r.str()?, host: r.str()?, incarnation: r.u64()?, addr: r.str()? }
        }
        T_CHECKPOINTED => Checkpointed { name: r.str()?, bytes: r.u64()?, at: r.f64()? },
        T_LINE_SHUTDOWN => LineShutdown { line: r.u64()?, module: r.str()? },
        T_MOVED => Moved { name: r.str()?, old: r.str()?, new: r.str()? },
        T_MANAGER_SHUTDOWN => ManagerShutdown,
        T_PROCESS_SPAWNED => {
            ProcessSpawned { host: r.str()?, addr: r.str()?, path: r.str()?, line: r.u64()? }
        }
        T_COMPUTED => Computed {
            addr: r.str()?.into(),
            proc: r.str()?.into(),
            flops: r.f64()?,
            compute_s: r.f64()?,
        },
        T_PROCESS_SHUTDOWN => ProcessShutdown { addr: r.str()? },
        T_BARRIER => Barrier { step: r.u64()? as usize, t: r.f64()? },
        T_ROLLBACK => Rollback {
            step: r.u64()? as usize,
            cause: r.str()?,
            t: r.f64()?,
            recovery: r.u32()?,
            max: r.u32()?,
        },
        other => return Err(format!("unknown event tag {other}")),
    };
    if r.pos != bytes.len() {
        return Err(format!("{} trailing bytes after event", bytes.len() - r.pos));
    }
    Ok(event)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One populated sample of **every** variant. Built through an
    /// exhaustive match so adding a variant without extending this list
    /// (and the codec) fails to compile rather than silently passing.
    fn one_of_each() -> Vec<EventKind> {
        use EventKind::*;
        let all = vec![
            RemoteStarted {
                line: 3,
                path: "/npss/modules/duct".into(),
                machine: "lerc-cray-ymp".into(),
                addr: "lerc-cray-ymp:proc-7".into(),
            },
            CallIssued { line: 1, proc: "DUCT".into(), addr: "h:proc-2".into() },
            ReplyReceived { line: 1, proc: "DUCT".into(), addr: "h:proc-2".into() },
            CallRetry {
                line: 2,
                attempt: 3,
                name: "duct".into(),
                backoff_s: Some(0.25),
                cause: "host 'x' is down".into(),
            },
            CallRetry {
                line: 2,
                attempt: 1,
                name: "duct".into(),
                backoff_s: None,
                cause: "timeout".into(),
            },
            FailoverMove {
                line: 2,
                name: "duct".into(),
                target: "lerc-rs6000".into(),
                cause: "down".into(),
            },
            FailoverFailed { line: 2, target: "lerc-rs6000".into(), cause: "also down".into() },
            ReplyFenced { line: 2, incarnation: 1, binding: 2 },
            Degraded { line: 2, module: "duct".into(), cause: "exhausted".into() },
            LineOpened { line: 4, module: "demo".into() },
            ExportsRegistered { count: 2, path: "/p".into(), addr: "h:proc-1".into(), line: None },
            ExportsRegistered {
                count: 1,
                path: "/p".into(),
                addr: "h:proc-1".into(),
                line: Some(5),
            },
            Mapped { name: "duct".into(), line: 4, addr: "h:proc-1".into() },
            ProbeEndpointGone { addr: "h:proc-1".into() },
            HeartbeatAnswered { addr: "h:proc-1".into() },
            HeartbeatMiss { n: 1, threshold: 2, addr: "h:proc-1".into() },
            DeathVerdict { addr: "h:proc-1".into(), incarnation: 1 },
            FailureEscalated { name: "duct".into() },
            RespawnFailed { path: "/p".into(), host: "h".into(), cause: "refused".into() },
            CheckpointRestored { path: "/npss/accum".into(), taken_at: 1.5 },
            Respawned {
                path: "/p".into(),
                host: "h".into(),
                incarnation: 2,
                addr: "h:proc-9".into(),
            },
            Checkpointed { name: "accum".into(), bytes: 17, at: 1.5 },
            LineShutdown { line: 4, module: "demo".into() },
            Moved { name: "duct".into(), old: "a:proc-1".into(), new: "b:proc-2".into() },
            ManagerShutdown,
            ProcessSpawned {
                host: "lerc-cray-ymp".into(),
                addr: "lerc-cray-ymp:proc-7".into(),
                path: "/demo/doubler".into(),
                line: 1,
            },
            Computed {
                addr: "h:proc-7".into(),
                proc: "DOUBLE".into(),
                flops: 100.0,
                compute_s: 0.5,
            },
            ProcessShutdown { addr: "h:proc-7".into() },
            Barrier { step: 10, t: 0.2 },
            Rollback { step: 11, cause: "boom".into(), t: 0.2, recovery: 1, max: 2 },
        ];
        // Compile-time exhaustiveness: touching every variant here means
        // a new variant breaks this match until the codec handles it.
        for e in &all {
            match e {
                RemoteStarted { .. }
                | CallIssued { .. }
                | ReplyReceived { .. }
                | CallRetry { .. }
                | FailoverMove { .. }
                | FailoverFailed { .. }
                | ReplyFenced { .. }
                | Degraded { .. }
                | LineOpened { .. }
                | ExportsRegistered { .. }
                | Mapped { .. }
                | ProbeEndpointGone { .. }
                | HeartbeatAnswered { .. }
                | HeartbeatMiss { .. }
                | DeathVerdict { .. }
                | FailureEscalated { .. }
                | RespawnFailed { .. }
                | CheckpointRestored { .. }
                | Respawned { .. }
                | Checkpointed { .. }
                | LineShutdown { .. }
                | Moved { .. }
                | ManagerShutdown
                | ProcessSpawned { .. }
                | Computed { .. }
                | ProcessShutdown { .. }
                | Barrier { .. }
                | Rollback { .. } => {}
            }
        }
        all
    }

    #[test]
    fn every_variant_round_trips_field_exact() {
        for e in one_of_each() {
            let encoded = encode_event(&e);
            let decoded = decode_event(&encoded)
                .unwrap_or_else(|err| panic!("decode of {e:?} failed: {err}"));
            assert_eq!(decoded, e);
        }
    }

    #[test]
    fn round_trip_preserves_legacy_display_and_who() {
        for e in one_of_each() {
            let decoded = decode_event(&encode_event(&e)).unwrap();
            assert_eq!(decoded.to_string(), e.to_string());
            assert_eq!(decoded.who(), e.who());
        }
    }

    #[test]
    fn truncation_and_unknown_tags_are_errors() {
        for e in one_of_each() {
            let encoded = encode_event(&e);
            for cut in 0..encoded.len() {
                assert!(
                    decode_event(&encoded[..cut]).is_err(),
                    "truncated {e:?} at {cut} must not decode"
                );
            }
        }
        assert!(decode_event(&[0xFE]).is_err());
        // A `Note` as the retired facade wrote it: tag 29, two strings.
        let mut note = vec![29];
        put_str(&mut note, "x");
        put_str(&mut note, "anything at all");
        assert_eq!(decode_event(&note).unwrap_err(), "unknown event tag 29");
        assert!(decode_event(&[]).is_err());
    }

    /// Every single-bit flip of every variant decodes to an error or to
    /// an event that encodes back to exactly the flipped bytes — never a
    /// panic.
    #[test]
    fn bit_flips_are_errors_or_round_trip() {
        for e in one_of_each() {
            let encoded = encode_event(&e);
            for bit in 0..encoded.len() * 8 {
                let mut flipped = encoded.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                if let Ok(decoded) = decode_event(&flipped) {
                    assert_eq!(encode_event(&decoded), flipped, "{e:?} bit {bit}");
                }
            }
        }
    }

    /// Encoding straight into the journal's buffer writes exactly the
    /// file a materialized payload does, for every variant.
    #[test]
    fn append_event_writes_what_append_of_the_payload_writes() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let (in_place, materialized) =
            (dir.join(format!("codec-in-place-{pid}")), dir.join(format!("codec-payload-{pid}")));
        let a = ledger::Journal::create(&in_place).unwrap();
        let b = ledger::Journal::create(&materialized).unwrap();
        for (i, e) in one_of_each().iter().enumerate() {
            let t = 0.125 * i as f64;
            let seq = a.append_event(t, |buf| encode_event_into(buf, e)).unwrap();
            let payload = encode_event(e);
            assert_eq!(b.append(t, ledger::RecordKind::Event { payload }).unwrap(), seq);
        }
        a.commit().unwrap();
        b.commit().unwrap();
        let (a_bytes, b_bytes) =
            (std::fs::read(&in_place).unwrap(), std::fs::read(&materialized).unwrap());
        assert_eq!(ledger::replay(&in_place).unwrap().records.len(), one_of_each().len());
        assert_eq!(a_bytes, b_bytes);
        std::fs::remove_file(&in_place).ok();
        std::fs::remove_file(&materialized).ok();
    }

    #[test]
    fn trailing_bytes_are_errors() {
        let mut encoded = encode_event(&EventKind::ManagerShutdown);
        encoded.push(0);
        assert!(decode_event(&encoded).is_err());
    }
}
