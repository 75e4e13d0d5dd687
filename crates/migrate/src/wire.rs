//! The versioned migration wire format.
//!
//! Everything a migration moves — guest pages, vCPU state, round
//! boundaries — crosses the [`Transport`](crate::Transport) as **frames**:
//! a fixed 16-byte header followed by a payload. The stream opens with a
//! [`FrameKind::Hello`] carrying magic, version, page size and guest size
//! (so an incompatible destination rejects the stream before any memory is
//! touched), every frame carries a FNV-1a checksum verified *before* its
//! payload is applied, zero pages can be run-length-coalesced into a single
//! [`FrameKind::ZeroRun`] frame, and each pre-copy round is terminated by an
//! explicit [`FrameKind::EndOfRound`] marker.
//!
//! ## Frame layout (all integers little-endian)
//!
//! ```text
//! offset 0   kind         u8   (Hello / Page / ZeroRun / VcpuState / EndOfRound)
//! offset 1   mode         u8   (Page only: raw / zero marker / XBZRLE delta)
//! offset 2   payload_len  u16
//! offset 4   checksum     u32  (four-lane FNV-1a-64, folded; see below)
//! offset 8   arg          u64  (kind-specific: page index, first page, round, ...)
//! offset 16  payload      [u8; payload_len]
//! ```
//!
//! ## Checksum (format version 4)
//!
//! Word-wise FNV-1a-64, `mix(h, w) = (h ^ w) · P`, run as four lanes, so a
//! page costs four independent 128-multiply chains, not one 512-deep chain
//! (it runs twice per page moved: at encode and at verify). Lane 0 starts
//! at `mix(mix(OFFSET, header_word), arg)`, the header with its checksum
//! zeroed; `header_word` carries `payload_len`, so tail padding is
//! unambiguous. Lanes 1–3 start at three fixed, distinct constants. Each
//! 32-byte payload block feeds its words 0–3 to lanes 0–3; the remaining
//! words, then the tail zero-padded to a word, go to lane 0. The lanes
//! combine as `h = mix(mix(mix(h0, h1), h2), h3)`, folded to the `u32`
//! `h ^ (h >> 32)`.
//!
//! `P` is odd, so `mix` is a bijection in each argument. Each lane is thus
//! a bijection of each of its words, and the combine one of each lane with
//! the others fixed: a change confined to one word — every single-bit flip
//! — always changes the 64-bit value. Only the 32-bit fold can collide, as
//! in version 3.
//!
//! A build decodes exactly `WIRE_VERSION`: nothing persists a stream, so
//! an older build's stream fails at its Hello with a typed
//! [`Error::WireProtocol`] checksum error.
//!
//! ## Accounting alignment
//!
//! The direct (in-memory) engines in [`engines`](crate::engines) charge the
//! link with exactly the byte counts this format produces —
//! [`FRAME_HEADER_BYTES`] per page record, `HELLO_WIRE_BYTES` per stream,
//! `END_OF_ROUND_WIRE_BYTES` per round, `VCPU_STATE_WIRE_BYTES` per
//! vCPU (header included) — which is what makes a loopback-transport
//! migration report `==`-equal to the direct path (pinned by proptest in
//! [`stream`](crate::stream)).

use rvisor_types::{Error, Result, PAGE_SIZE};
use rvisor_vcpu::cpu::{PrivMode, NUM_CSRS};
use rvisor_vcpu::isa::NUM_REGS;
use rvisor_vcpu::VcpuState;

/// Stream magic: `"RVM1"`.
const WIRE_MAGIC: u32 = 0x3152_564D;
/// The wire-format version, the only one this build decodes. Bump on any
/// incompatible change. Version 2 made the checksum word-wise FNV-1a-64;
/// version 3 added [`FrameKind::ChunkRef`] / [`FrameKind::ChunkData`];
/// version 4 runs the checksum as four lanes (module docs), layout
/// unchanged, so v3 streams no longer decode: they fail at their Hello's
/// checksum.
const WIRE_VERSION: u16 = 4;
/// Fixed size of every frame header.
pub const FRAME_HEADER_BYTES: u64 = 16;
/// On-wire size of the Hello frame (header + magic/version/page-size/guest-size).
pub(crate) const HELLO_WIRE_BYTES: u64 = FRAME_HEADER_BYTES + 18;
/// On-wire size of an end-of-round marker (header only).
pub(crate) const END_OF_ROUND_WIRE_BYTES: u64 = FRAME_HEADER_BYTES;
/// On-wire size of one vCPU's state frame, *header included*: the modelled
/// 4 KiB per-vCPU state figure of the engines covers its own framing.
pub(crate) const VCPU_STATE_WIRE_BYTES: u64 = 4096;
/// Payload bytes of one vCPU state frame (registers + CSRs, zero-padded).
const VCPU_STATE_PAYLOAD_BYTES: usize = (VCPU_STATE_WIRE_BYTES - FRAME_HEADER_BYTES) as usize;

/// Total on-wire bytes for the vCPU state of `n_vcpus` vCPUs (at least one
/// frame is always sent, mirroring the engines' `max(1)` accounting).
pub(crate) fn vcpu_state_wire_bytes(n_vcpus: usize) -> u64 {
    VCPU_STATE_WIRE_BYTES * n_vcpus.max(1) as u64
}

/// Serialized size of a chunk id (fingerprint `u64` + ordinal `u32`).
const CHUNK_ID_BYTES: u64 = 12;
/// On-wire size of a [`FrameKind::ChunkRef`] frame (header + chunk id).
const CHUNK_REF_WIRE_BYTES: u64 = FRAME_HEADER_BYTES + CHUNK_ID_BYTES;
/// On-wire size of a [`FrameKind::ChunkData`] frame carrying one full page
/// (header + chunk id + page bytes).
const CHUNK_DATA_WIRE_BYTES: u64 = FRAME_HEADER_BYTES + CHUNK_ID_BYTES + PAGE_SIZE;

/// Total on-wire bytes of one deduplicated backup stream: the Hello
/// handshake, one [`FrameKind::ChunkData`] per novel page, one
/// [`FrameKind::ChunkRef`] per page the DR endpoint already stores, the
/// vCPU state, and the closing end-of-round marker. No run encodes these
/// frames: the orchestrator charges the fabric with exactly this figure, and
/// the `dedup_backup_stream_matches_accounting` test pins it to a stream
/// that the test-only chunk-frame encoder (`put_chunk_ref`,
/// `put_chunk_data`) writes.
pub fn dedup_backup_wire_bytes(novel_pages: u64, deduped_pages: u64, n_vcpus: usize) -> u64 {
    HELLO_WIRE_BYTES
        + novel_pages * CHUNK_DATA_WIRE_BYTES
        + deduped_pages * CHUNK_REF_WIRE_BYTES
        + vcpu_state_wire_bytes(n_vcpus)
        + END_OF_ROUND_WIRE_BYTES
}

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Stream opener: magic, version, page size, guest size.
    Hello = 1,
    /// One guest page (raw, zero marker, or XBZRLE delta — see `mode`).
    Page = 2,
    /// A run of consecutive all-zero pages (`arg` = first page, payload =
    /// count), the run-length form of the zero-page marker.
    ZeroRun = 3,
    /// One vCPU's architectural state (`arg` = vCPU index).
    VcpuState = 4,
    /// End of a pre-copy round (`arg` = round number); the source flushes
    /// the transport here.
    EndOfRound = 5,
    /// Deduplicated-backup reference to a chunk the DR endpoint already
    /// stores (`arg` = page index, payload = chunk id). Since wire v3.
    ChunkRef = 6,
    /// Deduplicated-backup chunk the DR endpoint does not yet store
    /// (`arg` = page index, payload = chunk id + page bytes). Since wire v3.
    ChunkData = 7,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<FrameKind> {
        match v {
            1 => Some(FrameKind::Hello),
            2 => Some(FrameKind::Page),
            3 => Some(FrameKind::ZeroRun),
            4 => Some(FrameKind::VcpuState),
            5 => Some(FrameKind::EndOfRound),
            6 => Some(FrameKind::ChunkRef),
            7 => Some(FrameKind::ChunkData),
            _ => None,
        }
    }
}

/// Page-frame payload encodings (the `mode` header byte).
pub(crate) const MODE_RAW: u8 = 0;
/// The page is all zero; payload is the 1-byte marker.
pub(crate) const MODE_ZERO: u8 = 1;
/// XBZRLE delta against the destination's current copy of the page.
pub(crate) const MODE_DELTA: u8 = 2;

/// A decoded frame header. Its checksum is verified and its payload length
/// is the length of the frame's payload, so neither is kept.
#[derive(Debug, Clone, Copy)]
pub struct FrameHeader {
    /// What the frame carries.
    pub(crate) kind: FrameKind,
    /// Page encoding mode (meaningful for [`FrameKind::Page`] only).
    pub(crate) mode: u8,
    /// Kind-specific argument (page index, first page of a run, vCPU
    /// index, round number, total pages for Hello).
    pub(crate) arg: u64,
}

/// A decoded frame: header plus a zero-copy view of its payload inside the
/// received burst.
#[derive(Debug, Clone, Copy)]
pub struct WireFrame<'a> {
    /// The frame header.
    pub(crate) header: FrameHeader,
    /// The payload bytes (borrowed from the burst buffer).
    pub(crate) payload: &'a [u8],
}

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV64_PRIME)
}

/// Starting values of checksum lanes 1–3: fixed, distinct, and not derived
/// from lane 0 (the SplitMix64 constants).
const LANE_SEEDS: [u64; 3] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
];

/// Checksum over the header (checksum field zeroed) and payload: four
/// interleaved word-wise FNV-1a-64 lanes, combined and XOR-folded to 32
/// bits (wire format version 4, see the module docs).
fn frame_checksum(kind: u8, mode: u8, payload_len: u16, arg: u64, payload: &[u8]) -> u32 {
    // The header with its checksum field zeroed, as two little-endian words.
    let header_word = kind as u64 | (mode as u64) << 8 | (payload_len as u64) << 16;
    let mut h = mix(mix(FNV64_OFFSET, header_word), arg);
    let [mut h1, mut h2, mut h3] = LANE_SEEDS;
    let (blocks, rest) = payload.as_chunks::<32>();
    for block in blocks {
        h = mix(h, read_u64(&block[0..]));
        h1 = mix(h1, read_u64(&block[8..]));
        h2 = mix(h2, read_u64(&block[16..]));
        h3 = mix(h3, read_u64(&block[24..]));
    }
    let (words, tail) = rest.as_chunks::<8>();
    for word in words {
        h = mix(h, u64::from_le_bytes(*word));
    }
    if !tail.is_empty() {
        // Ragged tail zero-padded to one word; the true length is already
        // mixed in via the header word, so padding is unambiguous.
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = mix(h, u64::from_le_bytes(last));
    }
    let h = mix(mix(mix(h, h1), h2), h3);
    (h ^ (h >> 32)) as u32
}

const HEADER: usize = FRAME_HEADER_BYTES as usize;

/// Append a frame to `out`: 16-byte header, then the payload, each written
/// exactly once (`extend_from_slice`, no zero-fill pass over the payload
/// area). Raw page frames stay copy-once: the page bytes go straight from
/// the guest-memory view into the burst buffer.
fn put_frame(out: &mut Vec<u8>, kind: FrameKind, mode: u8, arg: u64, payload: &[u8]) {
    debug_assert!(payload.len() <= u16::MAX as usize, "payload too large");
    let payload_len = payload.len() as u16;
    let checksum = frame_checksum(kind as u8, mode, payload_len, arg, payload);
    let mut header = [0u8; HEADER];
    header[0] = kind as u8;
    header[1] = mode;
    header[2..4].copy_from_slice(&payload_len.to_le_bytes());
    header[4..8].copy_from_slice(&checksum.to_le_bytes());
    header[8..16].copy_from_slice(&arg.to_le_bytes());
    out.reserve(HEADER + payload.len());
    out.extend_from_slice(&header);
    out.extend_from_slice(payload);
}

/// Append the stream-opening Hello frame.
pub(crate) fn put_hello(out: &mut Vec<u8>, total_pages: u64, memory_bytes: u64) {
    let mut p = [0u8; 18];
    p[0..4].copy_from_slice(&WIRE_MAGIC.to_le_bytes());
    p[4..6].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    p[6..10].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
    p[10..18].copy_from_slice(&memory_bytes.to_le_bytes());
    put_frame(out, FrameKind::Hello, 0, total_pages, &p);
}

/// Append a raw page frame (copy-once from the borrowed page contents).
pub(crate) fn put_page_raw(out: &mut Vec<u8>, page: u64, contents: &[u8]) {
    put_frame(out, FrameKind::Page, MODE_RAW, page, contents);
}

/// Append a single zero-page marker frame (1-byte payload, matching the
/// direct path's 1-byte zero-marker accounting).
pub(crate) fn put_page_zero(out: &mut Vec<u8>, page: u64) {
    put_frame(out, FrameKind::Page, MODE_ZERO, page, &[0u8]);
}

/// Append an XBZRLE delta frame.
pub(crate) fn put_page_delta(out: &mut Vec<u8>, page: u64, delta: &[u8]) {
    put_frame(out, FrameKind::Page, MODE_DELTA, page, delta);
}

/// Append a run of `count` consecutive all-zero pages starting at
/// `first_page` as one frame (8-byte payload regardless of run length).
pub(crate) fn put_zero_run(out: &mut Vec<u8>, first_page: u64, count: u64) {
    put_frame(
        out,
        FrameKind::ZeroRun,
        MODE_ZERO,
        first_page,
        &count.to_le_bytes(),
    );
}

/// Append an end-of-round marker.
pub(crate) fn put_end_of_round(out: &mut Vec<u8>, round: u32) {
    put_frame(out, FrameKind::EndOfRound, 0, round as u64, &[]);
}

/// Append one vCPU's state, zero-padded to the fixed modelled size.
pub(crate) fn put_vcpu_state(out: &mut Vec<u8>, index: u32, state: &VcpuState) {
    let mut p = [0u8; VCPU_STATE_PAYLOAD_BYTES];
    p[0..8].copy_from_slice(&state.pc.to_le_bytes());
    p[8..16].copy_from_slice(&state.ptbr.to_le_bytes());
    p[16] = match state.mode {
        PrivMode::User => 0,
        PrivMode::Supervisor => 1,
    };
    p[17] = NUM_REGS as u8;
    p[18] = NUM_CSRS as u8;
    let mut at = 19;
    for r in &state.regs {
        p[at..at + 8].copy_from_slice(&r.to_le_bytes());
        at += 8;
    }
    for c in &state.csrs {
        p[at..at + 8].copy_from_slice(&c.to_le_bytes());
        at += 8;
    }
    put_frame(out, FrameKind::VcpuState, 0, index as u64, &p);
}

fn read_u64(p: &[u8]) -> u64 {
    u64::from_le_bytes(p[..8].try_into().expect("8 bytes"))
}

/// Decode a vCPU state payload written by [`put_vcpu_state`].
pub(crate) fn decode_vcpu_state(payload: &[u8]) -> Result<VcpuState> {
    let need = 19 + 8 * (NUM_REGS + NUM_CSRS);
    if payload.len() < need {
        return Err(Error::WireProtocol {
            detail: format!("vCPU state payload is {} bytes, need {need}", payload.len()),
            offset: 0,
        });
    }
    if payload[17] as usize != NUM_REGS || payload[18] as usize != NUM_CSRS {
        return Err(Error::WireProtocol {
            detail: format!(
                "vCPU state register file shape {}x{} does not match {NUM_REGS}x{NUM_CSRS}",
                payload[17], payload[18]
            ),
            offset: 0,
        });
    }
    let mut state = VcpuState {
        pc: read_u64(&payload[0..8]),
        ptbr: read_u64(&payload[8..16]),
        mode: if payload[16] == 0 {
            PrivMode::User
        } else {
            PrivMode::Supervisor
        },
        ..VcpuState::default()
    };
    let mut at = 19;
    for r in &mut state.regs {
        *r = read_u64(&payload[at..at + 8]);
        at += 8;
    }
    for c in &mut state.csrs {
        *c = read_u64(&payload[at..at + 8]);
        at += 8;
    }
    Ok(state)
}

/// Sequential zero-copy frame reader over one received burst.
///
/// Every frame's checksum is verified **before** the frame is handed to the
/// caller, so a corrupted frame surfaces as a typed
/// [`Error::WireProtocol`] without any of its payload reaching guest
/// memory.
#[derive(Debug)]
pub(crate) struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    /// Read frames from `buf` (one transport burst).
    pub fn new(buf: &'a [u8]) -> Self {
        FrameReader { buf, pos: 0 }
    }

    /// Byte offset of the next unread frame within the burst.
    pub(crate) fn offset(&self) -> u64 {
        self.pos as u64
    }

    fn fault(&self, detail: String) -> Error {
        Error::WireProtocol {
            detail,
            offset: self.pos as u64,
        }
    }

    /// Decode the next frame, or `None` at the end of the burst.
    pub(crate) fn next_frame(&mut self) -> Result<Option<WireFrame<'a>>> {
        if self.pos == self.buf.len() {
            return Ok(None);
        }
        let rest = &self.buf[self.pos..];
        if rest.len() < HEADER {
            return Err(self.fault(format!(
                "truncated frame header: {} bytes left, need {HEADER}",
                rest.len()
            )));
        }
        let kind_raw = rest[0];
        let kind = FrameKind::from_u8(kind_raw)
            .ok_or_else(|| self.fault(format!("unknown frame kind {kind_raw}")))?;
        let mode = rest[1];
        let payload_len = u16::from_le_bytes([rest[2], rest[3]]);
        let stored_checksum = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        let arg = read_u64(&rest[8..16]);
        let end = HEADER + payload_len as usize;
        if rest.len() < end {
            return Err(self.fault(format!(
                "frame payload of {payload_len} bytes runs past the burst end"
            )));
        }
        let payload = &rest[HEADER..end];
        let computed = frame_checksum(kind_raw, mode, payload_len, arg, payload);
        if computed != stored_checksum {
            return Err(self.fault(format!(
                "checksum mismatch on {kind:?} frame (arg {arg}): stored {stored_checksum:#010x}, computed {computed:#010x}"
            )));
        }
        self.pos += end;
        Ok(Some(WireFrame {
            header: FrameHeader { kind, mode, arg },
            payload,
        }))
    }
}

/// Decoded contents of a Hello frame: the source's geometry. The magic and
/// the version are checked while decoding, so neither is kept.
#[derive(Debug, Clone, Copy)]
pub struct Hello {
    /// Page size of the source.
    pub(crate) page_size: u32,
    /// Total pages of the source guest.
    pub(crate) total_pages: u64,
    /// Total guest memory bytes of the source.
    pub(crate) memory_bytes: u64,
}

/// Validate and decode a Hello frame (magic and version are checked here;
/// geometry checks against the destination are the sink's job).
pub(crate) fn decode_hello(frame: &WireFrame<'_>) -> Result<Hello> {
    let err = |detail: String| Error::WireProtocol { detail, offset: 0 };
    if frame.header.kind != FrameKind::Hello {
        return Err(err(format!(
            "stream must open with a Hello frame, got {:?}",
            frame.header.kind
        )));
    }
    if frame.payload.len() < 18 {
        return Err(err("Hello payload truncated".into()));
    }
    let magic = u32::from_le_bytes(frame.payload[0..4].try_into().expect("4 bytes"));
    if magic != WIRE_MAGIC {
        return Err(err(format!(
            "bad stream magic {magic:#010x} (want {WIRE_MAGIC:#010x})"
        )));
    }
    let version = u16::from_le_bytes([frame.payload[4], frame.payload[5]]);
    if version != WIRE_VERSION {
        return Err(err(format!(
            "unsupported wire version {version} (this build speaks only {WIRE_VERSION})"
        )));
    }
    Ok(Hello {
        page_size: u32::from_le_bytes(frame.payload[6..10].try_into().expect("4 bytes")),
        total_pages: frame.header.arg,
        memory_bytes: read_u64(&frame.payload[10..18]),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn chunk_id_payload(fingerprint: u64, ordinal: u32) -> [u8; CHUNK_ID_BYTES as usize] {
        let mut p = [0u8; CHUNK_ID_BYTES as usize];
        p[0..8].copy_from_slice(&fingerprint.to_le_bytes());
        p[8..12].copy_from_slice(&ordinal.to_le_bytes());
        p
    }

    /// Append a chunk *reference* for `page`: the DR endpoint already stores
    /// these bytes, only the 12-byte chunk id crosses the wire.
    fn put_chunk_ref(out: &mut Vec<u8>, page: u64, fingerprint: u64, ordinal: u32) {
        put_frame(
            out,
            FrameKind::ChunkRef,
            MODE_RAW,
            page,
            &chunk_id_payload(fingerprint, ordinal),
        );
    }

    /// Append a novel chunk for `page`: chunk id followed by the page bytes.
    fn put_chunk_data(out: &mut Vec<u8>, page: u64, fingerprint: u64, ordinal: u32, bytes: &[u8]) {
        let mut payload = Vec::with_capacity(CHUNK_ID_BYTES as usize + bytes.len());
        payload.extend_from_slice(&chunk_id_payload(fingerprint, ordinal));
        payload.extend_from_slice(bytes);
        put_frame(out, FrameKind::ChunkData, MODE_RAW, page, &payload);
    }

    /// Decode the chunk id of a [`FrameKind::ChunkRef`] or
    /// [`FrameKind::ChunkData`] payload, returning `(fingerprint, ordinal)`.
    fn decode_chunk_id(payload: &[u8]) -> Result<(u64, u32)> {
        if payload.len() < CHUNK_ID_BYTES as usize {
            return Err(Error::WireProtocol {
                detail: format!(
                    "chunk id payload is {} bytes, need {CHUNK_ID_BYTES}",
                    payload.len()
                ),
                offset: 0,
            });
        }
        Ok((
            read_u64(&payload[0..8]),
            u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes")),
        ))
    }

    /// Decode a [`FrameKind::ChunkData`] payload into its chunk id and page
    /// bytes.
    fn decode_chunk_data(payload: &[u8]) -> Result<((u64, u32), &[u8])> {
        let id = decode_chunk_id(payload)?;
        Ok((id, &payload[CHUNK_ID_BYTES as usize..]))
    }

    /// Recompute the checksum of the frame at the start of `frame` over its
    /// current header and payload, so a test's edits reach the semantic
    /// checks.
    pub(crate) fn reseal(frame: &mut [u8]) {
        let payload_len = u16::from_le_bytes([frame[2], frame[3]]);
        let arg = read_u64(&frame[8..16]);
        let payload = &frame[HEADER..HEADER + payload_len as usize];
        let checksum = frame_checksum(frame[0], frame[1], payload_len, arg, payload);
        frame[4..8].copy_from_slice(&checksum.to_le_bytes());
    }

    fn roundtrip_all() -> Vec<u8> {
        let mut out = Vec::new();
        put_hello(&mut out, 64, 64 * PAGE_SIZE);
        put_page_raw(&mut out, 7, &[0xabu8; PAGE_SIZE as usize]);
        put_page_zero(&mut out, 8);
        put_zero_run(&mut out, 9, 5);
        put_page_delta(&mut out, 14, &[1, 0, 2, 0, 0xee, 0xff]);
        put_end_of_round(&mut out, 3);
        let mut state = VcpuState {
            pc: 0x1234,
            ptbr: 0x8000,
            ..VcpuState::default()
        };
        state.regs[5] = 42;
        state.csrs[3] = 99;
        put_vcpu_state(&mut out, 0, &state);
        out
    }

    #[test]
    fn frames_roundtrip_with_exact_accounting() {
        let buf = roundtrip_all();
        let expected_len = HELLO_WIRE_BYTES
            + (FRAME_HEADER_BYTES + PAGE_SIZE)
            + (FRAME_HEADER_BYTES + 1)
            + (FRAME_HEADER_BYTES + 8)
            + (FRAME_HEADER_BYTES + 6)
            + END_OF_ROUND_WIRE_BYTES
            + VCPU_STATE_WIRE_BYTES;
        assert_eq!(buf.len() as u64, expected_len);

        let mut r = FrameReader::new(&buf);
        let hello = r.next_frame().unwrap().unwrap();
        let h = decode_hello(&hello).unwrap();
        assert_eq!(h.total_pages, 64);
        assert_eq!(h.page_size as u64, PAGE_SIZE);

        let raw = r.next_frame().unwrap().unwrap();
        assert_eq!(raw.header.kind, FrameKind::Page);
        assert_eq!(raw.header.mode, MODE_RAW);
        assert_eq!(raw.header.arg, 7);
        assert!(raw.payload.iter().all(|&b| b == 0xab));

        let zero = r.next_frame().unwrap().unwrap();
        assert_eq!(
            (zero.header.kind, zero.header.mode),
            (FrameKind::Page, MODE_ZERO)
        );
        let run = r.next_frame().unwrap().unwrap();
        assert_eq!(run.header.kind, FrameKind::ZeroRun);
        assert_eq!(run.header.arg, 9);
        assert_eq!(read_u64(run.payload), 5);

        let delta = r.next_frame().unwrap().unwrap();
        assert_eq!(delta.header.mode, MODE_DELTA);
        assert_eq!(delta.payload, &[1, 0, 2, 0, 0xee, 0xff]);

        let eor = r.next_frame().unwrap().unwrap();
        assert_eq!(eor.header.kind, FrameKind::EndOfRound);
        assert_eq!(eor.header.arg, 3);

        let vs = r.next_frame().unwrap().unwrap();
        assert_eq!(vs.header.kind, FrameKind::VcpuState);
        let state = decode_vcpu_state(vs.payload).unwrap();
        assert_eq!(state.pc, 0x1234);
        assert_eq!(state.regs[5], 42);
        assert_eq!(state.csrs[3], 99);
        assert_eq!(state.ptbr, 0x8000);
        assert_eq!(state.mode, PrivMode::Supervisor);

        assert!(r.next_frame().unwrap().is_none());
        assert_eq!(r.offset(), buf.len() as u64);
    }

    #[test]
    fn corruption_is_detected_before_delivery() {
        let clean = roundtrip_all();
        // Flip one byte in every position of the second frame (the raw
        // page): header corruption and payload corruption must both fail.
        let second_frame_start = HELLO_WIRE_BYTES as usize;
        for at in [
            second_frame_start,      // kind byte
            second_frame_start + 1,  // mode byte
            second_frame_start + 2,  // length
            second_frame_start + 9,  // arg
            second_frame_start + 20, // payload
            clean.len() - 1,         // last byte of the final frame
        ] {
            let mut buf = clean.clone();
            buf[at] ^= 0x40;
            let mut r = FrameReader::new(&buf);
            let mut result = Ok(());
            loop {
                match r.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            let err = result.expect_err("corruption must surface");
            assert!(
                matches!(err, Error::WireProtocol { .. }),
                "byte {at}: wrong error {err:?}"
            );
        }
    }

    /// Decode a one-frame burst, returning the decoder's verdict.
    fn decode_one(buf: &[u8]) -> Result<()> {
        FrameReader::new(buf).next_frame().map(|_| ())
    }

    #[test]
    fn every_flipped_bit_is_rejected_for_every_payload_shape() {
        // Payload lengths around the checksum's word (8) boundary and the
        // 32-byte block its four lanes stride by: empty, sub-word, whole
        // words, words + a ragged tail, whole blocks + words + a tail.
        for len in [0, 1, 7, 8, 9, 31, 32, 33, 39, 40, 63, 64, 65, 95, 96, 100] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let mut clean = Vec::new();
            put_page_delta(&mut clean, 5, &payload);
            decode_one(&clean).expect("the clean frame decodes");
            for at in 0..clean.len() {
                for bit in 0..8 {
                    let mut buf = clean.clone();
                    buf[at] ^= 1 << bit;
                    assert!(
                        matches!(decode_one(&buf), Err(Error::WireProtocol { .. })),
                        "payload of {len}: flipping bit {bit} of byte {at} passed"
                    );
                }
            }
        }
        // Page-sized payloads and ChunkData's page + 12-byte id (words and
        // a ragged tail): one bit of every byte.
        let page: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 131 + 7) as u8).collect();
        let mut raw = Vec::new();
        put_page_raw(&mut raw, 9, &page);
        let mut chunk = Vec::new();
        put_chunk_data(&mut chunk, 9, 0xfeed_f00d, 3, &page);
        for clean in [raw, chunk] {
            decode_one(&clean).expect("the clean frame decodes");
            for at in 0..clean.len() {
                let mut buf = clean.clone();
                buf[at] ^= 1 << (at % 8);
                assert!(
                    matches!(decode_one(&buf), Err(Error::WireProtocol { .. })),
                    "flipping byte {at} of a {}-byte frame passed",
                    clean.len()
                );
            }
        }
    }

    #[test]
    fn truncated_bursts_fail_with_offsets() {
        let clean = roundtrip_all();
        // Cut mid-header and mid-payload of the second frame.
        for cut in [
            HELLO_WIRE_BYTES as usize + 4,
            HELLO_WIRE_BYTES as usize + HEADER + 100,
        ] {
            let buf = &clean[..cut];
            let mut r = FrameReader::new(buf);
            r.next_frame().unwrap().unwrap(); // hello is intact
            let err = r.next_frame().expect_err("truncation must surface");
            match err {
                Error::WireProtocol { offset, .. } => {
                    assert_eq!(offset, HELLO_WIRE_BYTES)
                }
                other => panic!("wrong error {other:?}"),
            }
        }
    }

    #[test]
    fn hello_rejects_bad_magic_and_version() {
        let mut out = Vec::new();
        put_hello(&mut out, 4, 4 * PAGE_SIZE);
        // Not a Hello at all.
        let mut page = Vec::new();
        put_page_zero(&mut page, 0);
        let mut r = FrameReader::new(&page);
        let f = r.next_frame().unwrap().unwrap();
        assert!(decode_hello(&f).is_err());

        // Corrupt magic / version, re-sealing the checksum so only the
        // semantic validation can catch it.
        for (at, detail) in [(HEADER, "magic"), (HEADER + 4, "version")] {
            let mut buf = out.clone();
            buf[at] ^= 0xff;
            reseal(&mut buf);
            let mut r = FrameReader::new(&buf);
            let f = r.next_frame().unwrap().unwrap();
            let err = decode_hello(&f).expect_err(detail);
            assert!(
                matches!(err, Error::WireProtocol { .. }),
                "{detail}: {err:?}"
            );
        }
    }

    #[test]
    fn dedup_backup_stream_matches_accounting() {
        // Encode a full dedup backup stream — 2 novel chunks, 3 references —
        // and pin the accounting function to the actual encoded length.
        let novel = [
            (4u64, 0x1111u64, 0u32, vec![0xaau8; PAGE_SIZE as usize]),
            (9, 0x2222, 1, vec![0xbbu8; PAGE_SIZE as usize]),
        ];
        let refs = [(0u64, 0x3333u64, 0u32), (1, 0x3333, 0), (2, 0x4444, 2)];
        let mut out = Vec::new();
        put_hello(&mut out, 64, 64 * PAGE_SIZE);
        for (page, fp, ord, bytes) in &novel {
            put_chunk_data(&mut out, *page, *fp, *ord, bytes);
        }
        for (page, fp, ord) in &refs {
            put_chunk_ref(&mut out, *page, *fp, *ord);
        }
        put_vcpu_state(&mut out, 0, &VcpuState::default());
        put_end_of_round(&mut out, 0);
        assert_eq!(out.len() as u64, dedup_backup_wire_bytes(2, 3, 1));

        let mut r = FrameReader::new(&out);
        let hello = r.next_frame().unwrap().unwrap();
        assert!(decode_hello(&hello).is_ok());
        for (page, fp, ord, bytes) in &novel {
            let f = r.next_frame().unwrap().unwrap();
            assert_eq!(f.header.kind, FrameKind::ChunkData);
            assert_eq!(f.header.arg, *page);
            let (id, data) = decode_chunk_data(f.payload).unwrap();
            assert_eq!(id, (*fp, *ord));
            assert_eq!(data, &bytes[..]);
        }
        for (page, fp, ord) in &refs {
            let f = r.next_frame().unwrap().unwrap();
            assert_eq!(f.header.kind, FrameKind::ChunkRef);
            assert_eq!(f.header.arg, *page);
            assert_eq!(decode_chunk_id(f.payload).unwrap(), (*fp, *ord));
        }
        r.next_frame().unwrap().unwrap(); // vCPU state
        let eor = r.next_frame().unwrap().unwrap();
        assert_eq!(eor.header.kind, FrameKind::EndOfRound);
        assert!(r.next_frame().unwrap().is_none());

        // A truncated chunk id is a typed error, not a panic.
        assert!(decode_chunk_id(&[0u8; 4]).is_err());
        assert!(decode_chunk_data(&[0u8; 4]).is_err());
    }

    /// A Hello announcing `version`, re-sealed so only the semantic version
    /// check decides.
    fn hello_with_version(version: u16) -> Vec<u8> {
        let mut buf = Vec::new();
        put_hello(&mut buf, 4, 4 * PAGE_SIZE);
        buf[HEADER + 4..HEADER + 6].copy_from_slice(&version.to_le_bytes());
        reseal(&mut buf);
        buf
    }

    #[test]
    fn hello_accepts_only_the_current_version() {
        assert_eq!(WIRE_VERSION, 4);
        let buf = hello_with_version(WIRE_VERSION);
        let f = FrameReader::new(&buf).next_frame().unwrap().unwrap();
        assert!(decode_hello(&f).is_ok());
        for version in [WIRE_VERSION - 1, WIRE_VERSION + 1] {
            let buf = hello_with_version(version);
            let f = FrameReader::new(&buf).next_frame().unwrap().unwrap();
            assert!(
                matches!(decode_hello(&f), Err(Error::WireProtocol { .. })),
                "version {version} must reject"
            );
        }
    }

    #[test]
    fn a_version_3_hello_fails_at_its_checksum() {
        // `put_hello(out, 4, 4 * PAGE_SIZE)` as a version-3 build wrote it:
        // the same bytes, version 3, sealed with the single-chain checksum.
        const V3_HELLO_CHECKSUM: u32 = 0x7f90_3eb8;
        let mut buf = hello_with_version(3);
        buf[4..8].copy_from_slice(&V3_HELLO_CHECKSUM.to_le_bytes());
        match FrameReader::new(&buf).next_frame() {
            Err(Error::WireProtocol { detail, offset: 0 }) => {
                assert!(detail.contains("checksum"), "{detail}")
            }
            other => panic!("a v3 Hello must fail its checksum, got {other:?}"),
        }
    }

    /// Checksums recorded from this format's encoder: any silent change to
    /// the checksum or the frame layout fails here.
    #[test]
    fn golden_checksums_pin_the_wire_format() {
        let page: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 131 + 7) as u8).collect();
        let encode = |put: &dyn Fn(&mut Vec<u8>)| {
            let mut out = Vec::new();
            put(&mut out);
            out
        };
        for (name, frame, len, want) in [
            (
                "empty EndOfRound",
                encode(&|o| put_end_of_round(o, 3)),
                16,
                0x012a_31d8,
            ),
            (
                "1-byte zero marker",
                encode(&|o| put_page_zero(o, 8)),
                17,
                0xde37_e6f7,
            ),
            (
                "Hello",
                encode(&|o| put_hello(o, 64, 64 * PAGE_SIZE)),
                34,
                0x7a02_b8b2,
            ),
            (
                "4 096-byte raw page",
                encode(&|o| put_page_raw(o, 9, &page)),
                4112,
                0x8433_76ec,
            ),
            (
                "4 108-byte ChunkData",
                encode(&|o| put_chunk_data(o, 9, 0xfeed_f00d, 3, &page)),
                4124,
                0x1c57_5536,
            ),
        ] {
            assert_eq!(frame.len(), len, "{name}");
            let stored = u32::from_le_bytes(frame[4..8].try_into().unwrap());
            assert_eq!(stored, want, "{name}: {stored:#010x}");
        }
    }

    #[test]
    fn swapped_words_and_blocks_are_rejected() {
        // Swap the `len` bytes at payload offsets `a` and `b` of a frame
        // whose 8-byte words are all distinct.
        let rejects_swap = |payload_len: u32, a: usize, b: usize, len: usize| {
            let payload: Vec<u8> = (0..payload_len).map(|i| (i * 37 + 11) as u8).collect();
            let mut buf = Vec::new();
            put_page_delta(&mut buf, 5, &payload);
            decode_one(&buf).expect("the clean frame decodes");
            let (a, b) = (HEADER + a, HEADER + b);
            let first = buf[a..a + len].to_vec();
            buf.copy_within(b..b + len, a);
            buf[b..b + len].copy_from_slice(&first);
            matches!(decode_one(&buf), Err(Error::WireProtocol { .. }))
        };
        // Two words of one block, on every pair of lanes, in a one-block
        // payload (where lanes that started equal would just trade values)
        // and in the middle block of three.
        for (payload_len, block) in [(32, 0), (96, 32)] {
            for a in (block..block + 32).step_by(8) {
                for b in (a + 8..block + 32).step_by(8) {
                    assert!(
                        rejects_swap(payload_len, a, b, 8),
                        "{payload_len} bytes: swapping words at {a} and {b} passed"
                    );
                }
            }
        }
        // Two whole blocks.
        for (a, b) in [(0, 32), (0, 64), (32, 64)] {
            assert!(
                rejects_swap(96, a, b, 32),
                "swapping blocks at {a} and {b} passed"
            );
        }
    }

    #[test]
    fn vcpu_state_rejects_mismatched_register_shape() {
        let mut out = Vec::new();
        put_vcpu_state(&mut out, 0, &VcpuState::default());
        let mut r = FrameReader::new(&out);
        let f = r.next_frame().unwrap().unwrap();
        let mut payload = f.payload.to_vec();
        payload[17] = NUM_REGS as u8 + 1;
        assert!(decode_vcpu_state(&payload).is_err());
        assert!(decode_vcpu_state(&payload[..16]).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Any sequence of page frames decodes back to exactly what was
            /// encoded, and the encoded size is the documented accounting.
            #[test]
            fn page_frames_roundtrip(
                pages in proptest::collection::vec(
                    (0u64..1 << 20, proptest::collection::vec(proptest::num::u8::ANY, 0..256)),
                    1..12
                ),
            ) {
                let mut out = Vec::new();
                let mut expected = 0u64;
                for (page, bytes) in &pages {
                    put_page_delta(&mut out, *page, bytes);
                    expected += FRAME_HEADER_BYTES + bytes.len() as u64;
                }
                prop_assert_eq!(out.len() as u64, expected);
                let mut r = FrameReader::new(&out);
                for (page, bytes) in &pages {
                    let f = r.next_frame().unwrap().unwrap();
                    prop_assert_eq!(f.header.kind, FrameKind::Page);
                    prop_assert_eq!(f.header.arg, *page);
                    prop_assert_eq!(f.payload, &bytes[..]);
                }
                prop_assert!(r.next_frame().unwrap().is_none());
            }

            /// Flipping any bit of a one-frame burst — raw page, zero
            /// marker, zero run, delta or `ChunkData`, random contents,
            /// header or payload — fails decoding with a typed error: no
            /// corruption passes silently.
            #[test]
            fn single_byte_corruption_never_passes(
                shape in 0usize..5,
                contents in proptest::collection::vec(proptest::num::u8::ANY, PAGE_SIZE as usize),
                delta_len in 0usize..300,
                at in 0usize..(1 << 16),
                bit in 0u32..8,
            ) {
                let mut out = Vec::new();
                match shape {
                    0 => put_page_raw(&mut out, 3, &contents),
                    1 => put_page_zero(&mut out, 3),
                    2 => put_zero_run(&mut out, 3, contents[0] as u64 + 2),
                    3 => put_page_delta(&mut out, 3, &contents[..delta_len]),
                    _ => put_chunk_data(&mut out, 3, 0xabcd, 1, &contents),
                }
                let at = at % out.len();
                out[at] ^= 1 << bit;
                let outcome = FrameReader::new(&out).next_frame();
                prop_assert!(
                    matches!(outcome, Err(Error::WireProtocol { .. })),
                    "shape {shape}: flipping bit {bit} of byte {at} passed: {outcome:?}"
                );
            }
        }
    }
}
