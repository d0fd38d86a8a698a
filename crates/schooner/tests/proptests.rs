//! Randomized tests: the protocol codec is total and lossless, and the
//! marshaling pipeline preserves values across random architecture pairs.
//!
//! These were property-based tests; they now draw their cases from a
//! deterministic SplitMix64 generator so the sweep needs no external
//! crates and replays identically on every run.

use bytes::Bytes;

use schooner::message::{FaultCode, MapInfo, Msg, StartedInfo, WireFault};
use schooner::stub::CompiledStub;
use uts::{Architecture, Value};

/// Deterministic case generator.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn flag(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    fn printable(&mut self, max_len: usize) -> String {
        let len = self.below(max_len + 1);
        (0..len).map(|_| (0x20 + self.below(95) as u8) as char).collect()
    }

    fn ident(&mut self, max_len: usize) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789:-_";
        let len = 1 + self.below(max_len);
        (0..len).map(|_| ALPHABET[self.below(ALPHABET.len())] as char).collect()
    }

    fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.below(max_len + 1);
        (0..len).map(|_| self.below(256) as u8).collect()
    }
}

fn gen_fault(g: &mut Gen) -> WireFault {
    let code = FaultCode::ALL[g.below(FaultCode::ALL.len())];
    WireFault::new(code, g.printable(40))
}

fn gen_started(g: &mut Gen) -> StartedInfo {
    StartedInfo {
        addr: g.ident(24),
        spec_src: g.printable(80),
        proc_names: (0..g.below(4)).map(|_| g.ident(12)).collect(),
        incarnation: g.next_u64(),
    }
}

fn gen_mapinfo(g: &mut Gen) -> MapInfo {
    MapInfo {
        addr: g.ident(24),
        remote_name: g.ident(12),
        export_spec: g.printable(80),
        incarnation: g.next_u64(),
    }
}

fn gen_msg(g: &mut Gen) -> Msg {
    match g.below(20) {
        0 => Msg::OpenLine { req: g.next_u64(), module: g.ident(16), reply_to: g.ident(16) },
        1 => Msg::LineOpened { req: g.next_u64(), line: g.next_u64() },
        2 => Msg::StartRequest {
            req: g.next_u64(),
            line: g.next_u64(),
            path: g.ident(20),
            host: g.ident(16),
            shared: g.flag(),
            reply_to: g.ident(16),
        },
        3 => {
            let result = if g.flag() { Ok(gen_started(g)) } else { Err(gen_fault(g)) };
            Msg::StartReply { req: g.next_u64(), result }
        }
        4 => Msg::MapRequest {
            req: g.next_u64(),
            line: g.next_u64(),
            name: g.ident(12),
            import_spec: g.printable(60),
            suspect_addr: g.ident(16),
            reply_to: g.ident(16),
        },
        5 => {
            let result = if g.flag() { Ok(gen_mapinfo(g)) } else { Err(gen_fault(g)) };
            Msg::MapReply { req: g.next_u64(), result }
        }
        6 => Msg::IQuit { req: g.next_u64(), line: g.next_u64(), reply_to: g.ident(16) },
        7 => Msg::IQuitAck { req: g.next_u64() },
        8 => Msg::CallRequest {
            call: g.next_u64(),
            line: g.next_u64(),
            proc_name: g.ident(12).into(),
            args: Bytes::from(g.bytes(48)),
            reply_to: g.ident(16).into(),
        },
        9 => {
            let result = if g.flag() { Ok(Bytes::from(g.bytes(64))) } else { Err(gen_fault(g)) };
            Msg::CallReply { call: g.next_u64(), incarnation: g.next_u64(), result }
        }
        10 => {
            let result = if g.flag() { Ok(gen_mapinfo(g)) } else { Err(gen_fault(g)) };
            Msg::MoveReply { req: g.next_u64(), result }
        }
        11 => {
            let result = if g.flag() { Ok(Bytes::from(g.bytes(64))) } else { Err(gen_fault(g)) };
            Msg::StateReply { req: g.next_u64(), result }
        }
        12 => {
            let result = if g.flag() { Ok(()) } else { Err(gen_fault(g)) };
            Msg::SetStateAck { req: g.next_u64(), result }
        }
        13 => Msg::ManagerShutdown,
        14 => Msg::ServerShutdown,
        15 => Msg::ProcShutdown,
        16 => Msg::Ping { req: g.next_u64(), reply_to: g.ident(16) },
        17 => Msg::Pong { req: g.next_u64(), incarnation: g.next_u64() },
        18 => Msg::CheckpointRequest {
            req: g.next_u64(),
            line: g.next_u64(),
            name: g.ident(12),
            reply_to: g.ident(16),
        },
        _ => {
            let result = if g.flag() { Ok(g.next_u64()) } else { Err(gen_fault(g)) };
            Msg::CheckpointReply { req: g.next_u64(), result }
        }
    }
}

/// Every protocol message survives encode/decode unchanged.
#[test]
fn message_codec_round_trips() {
    let mut g = Gen::new(31);
    for _ in 0..400 {
        let msg = gen_msg(&mut g);
        let encoded = msg.encode();
        let decoded = Msg::decode(encoded).unwrap();
        assert_eq!(decoded, msg);
    }
}

/// Random bytes never panic the decoder.
#[test]
fn message_decoder_total_on_garbage() {
    let mut g = Gen::new(32);
    for _ in 0..400 {
        let bytes = g.bytes(128);
        let _ = Msg::decode(Bytes::from(bytes));
    }
}

/// The full marshal pipeline (caller native → wire → callee native)
/// preserves single-precision payloads across every architecture pair —
/// the property the Table 1/2 exactness rests on.
#[test]
fn f32_payloads_survive_any_architecture_pair() {
    let mut g = Gen::new(33);
    let file = uts::parse_spec_file(
        r#"export f prog("xs" val array[4] of float, "n" val integer, "y" res float)"#,
    )
    .unwrap();
    let stub = CompiledStub::compile(&file.decls[0]);
    for _ in 0..200 {
        let xs: Vec<f32> = (0..4).map(|_| (2.0e30 * g.unit() - 1.0e30) as f32).collect();
        let n = g.next_u64() as u32 as i32;
        let from = Architecture::ALL[g.below(Architecture::ALL.len())];
        let to = Architecture::ALL[g.below(Architecture::ALL.len())];
        let args = vec![Value::floats(&xs), Value::Integer(n as i64)];
        let wire = stub.marshal_inputs(&args, from).unwrap();
        let got = stub.unmarshal_inputs(wire, to).unwrap();
        assert_eq!(got, args, "{from} -> {to}");
    }
}
