//! # ledger — the durable event ledger
//!
//! The NPSS executive of the paper assumes a long-lived Manager
//! coordinating simulations across unreliable hosts. Everything the
//! Manager knows — checkpoints, supervision verdicts, observability
//! events, metrics — used to live in memory, so a Manager crash erased
//! the very state that made the *rest* of the world fault-tolerant.
//! This crate gives that state a life outside any single process: an
//! **append-only, CRC-framed, strictly-sequenced journal** on disk.
//!
//! The pieces:
//!
//! * [`codec`] — the big-endian byte codec (writers and one position-
//!   reporting [`codec::Reader`]) that record bodies and frame headers are
//!   read and written through, shared with the Schooner control plane and
//!   the obs event codec.
//! * [`frame`] — the on-disk framing: a fixed file header followed by
//!   `[len][crc32][body]` frames. A torn final frame (crash mid-write)
//!   is detected and cleanly discarded on replay; a *complete* frame
//!   whose CRC fails is a typed [`LedgerError::Corrupt`].
//! * [`Sequencer`] — assigns strictly increasing record ids and clamps
//!   virtual timestamps to be monotone non-decreasing.
//! * [`Journal`] — the writer: every append frames one [`Record`] in
//!   place in one buffer, and the buffer is group-committed in a single
//!   `write_all` at every state record (anything but an obs event), so
//!   the file is as fresh as the last checkpoint, verdict, barrier or
//!   sample; only events after it are still in memory.
//! * [`replay`] / [`Repository`] — the readers: scan a journal back into
//!   records (the file read into one buffer, of which every event
//!   payload, a [`Blob`], is a view), then answer latest-checkpoint-per-
//!   path, retained-checkpoint sets (respecting journaled evictions), and
//!   metrics as of a sequence point.
//! * [`LedgerHandle`] — a cloneable attach-once handle that subsystems
//!   hold whether or not a journal is configured; appends through an
//!   unattached handle are no-ops, so journaling stays zero-setup for
//!   worlds that do not want it.
//!
//! The crate is deliberately dependency-free (std only) and knows
//! nothing about Schooner or the engine: payloads it cannot interpret
//! (obs events, UTS-encoded checkpoint state) ride through as opaque
//! bytes, and the crates that produced them decode them on the way out.

pub mod blob;
pub mod codec;
pub mod error;
pub mod frame;
pub mod journal;
pub mod record;
pub mod repository;
pub mod sequencer;

pub use blob::Blob;
pub use error::LedgerError;
pub use journal::{replay, Journal, LedgerHandle, Replay};
pub use record::{CheckpointRec, Record, RecordKind, RecordTag};
pub use repository::Repository;
pub use sequencer::Sequencer;
