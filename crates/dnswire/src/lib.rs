//! # dnswire — DNS wire-format encoding and decoding
//!
//! A self-contained implementation of the subset of the DNS protocol
//! (RFC 1034/1035, plus the CHAOS class of RFC 5395 as used by
//! `version.bind` fingerprinting) required by the *Going Wild* (IMC 2015)
//! reproduction.
//!
//! The crate provides:
//!
//! * [`Name`] — domain names with label semantics, case-insensitive
//!   equality, and support for DNS *0x20 encoding* (randomized label
//!   casing used as an anti-spoofing / side-channel encoding, see
//!   Dagon et al., CCS 2008).
//! * [`Message`] — full message encode/decode with header flags,
//!   question and resource-record sections, and message-compression
//!   pointer *decoding* (we always emit uncompressed names, which is
//!   valid on the wire and keeps the encoder simple and predictable).
//! * [`RData`] — typed record data for A, NS, CNAME, SOA, PTR, MX, TXT
//!   and AAAA records; anything else round-trips as opaque bytes.
//! * [`MessageBuilder`] — an ergonomic builder for queries and responses.
//! * [`MessageView`] — the borrowed form: the one wire parser, which
//!   checks a packet and lends out header, names and records in place;
//!   [`Message::decode`] is its owning collector.
//! * [`ReplyWriter`] — a response written straight onto the wire from a
//!   view of its query.
//!
//! The decoder is defensive: it never panics on untrusted input, bounds
//! every read, and rejects compression-pointer loops. This matters
//! because the *Going Wild* measurement consumes responses from millions
//! of arbitrary — and sometimes actively hostile — resolvers.
//!
//! ```
//! use dnswire::{MessageBuilder, Message, Name, RecordType};
//!
//! let query = MessageBuilder::query(0x1234, Name::parse("example.com.").unwrap(), RecordType::A)
//!     .recursion_desired(true)
//!     .build();
//! let wire = query.encode();
//! let decoded = Message::decode(&wire).unwrap();
//! assert_eq!(decoded.header.id, 0x1234);
//! assert_eq!(decoded.questions[0].qtype, RecordType::A);
//! ```

pub mod error;
pub mod message;
pub mod name;
pub mod reply;
pub mod types;
pub mod view;
pub mod zeroxtwenty;

pub use error::{DecodeError, NameError};
pub use message::{Header, Message, MessageBuilder, Question, RData, ResourceRecord};
pub use name::Name;
pub use reply::ReplyWriter;
pub use types::{Opcode, Rcode, RecordClass, RecordType};
pub use view::{MessageView, NameView, QuestionView, RDataView, RecordView};
pub use zeroxtwenty::{decode_0x20, encode_0x20};
