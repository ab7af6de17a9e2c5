//! [`Segment`]: the unit of traffic carried by the simulator.
//!
//! A `Segment` owns the *real, serialized* IPv4 + L4 header bytes plus a
//! *virtual* payload length. Header-mangling code (the entire AC/DC
//! datapath) operates on genuine wire bytes — parse, rewrite, incremental
//! checksum — while the simulator avoids allocating and copying bulk
//! payloads. Checksums treat the payload as zeros, so they stay end-to-end
//! verifiable (see crate docs).
//!
//! # The parse-once contract
//!
//! Each segment lazily caches a [`PacketMeta`] — the full set of header
//! fields the hot path consumes — built by a single parse at first access
//! ([`Segment::try_meta`]). The in-place mutators below (window rewrite,
//! ECN patch, flag/reserved-bit edits, PACK insertion and removal) patch
//! the bytes, the checksum, *and* the cached meta together, so downstream
//! layers keep reading cached fields after the datapath has rewritten the
//! packet. Only the raw escape hatches [`Segment::ip_mut`] and
//! [`Segment::tcp_mut`] invalidate the cache, forcing a re-parse at the
//! next access. See DESIGN.md §9.
//!
//! The cache is split for speed and `Send + Sync`: constructors and the
//! coherent mutators — which all hold `&mut` or ownership — write a
//! plain `Option<PacketMeta>` field at zero synchronization cost, while
//! the rare lazy fill through `&self` (a re-parse after a raw mutable
//! view invalidated the cache) lands in a [`OnceLock`] fallback slot.
//! That makes `Segment` freely movable between the run-to-completion
//! workers of `acdc-workers` (DESIGN.md §13) with no interior-mutability
//! hazards (a `const` assertion in the crate root keeps it `Send +
//! Sync`) without paying the `Once` synchronization path on every
//! locally built packet.

use std::sync::OnceLock;

use bytes::{Bytes, BytesMut};

use crate::checksum::checksum_adjust;
use crate::tcp::option_kind;
#[cfg(test)]
use crate::Error;
use crate::{
    Ecn, Ipv4Packet, Ipv4Repr, PackOption, PacketMeta, Result, SeqNumber, TcpFlags, TcpOption,
    TcpPacket, TcpRepr, UdpPacket, UdpRepr, PROTO_TCP, PROTO_UDP,
};

/// A 5-tuple-minus-protocol flow key (the simulator is IPv4/TCP only; the
/// paper hashes on addresses, ports and VLAN — we have no VLANs).
///
/// This is the *one* flow identity used across the workspace: the vSwitch
/// flow table shards on it, the host NIC demuxes on it, and the workload
/// FCT bookkeeping labels samples with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src_ip: [u8; 4],
    /// Destination IPv4 address.
    pub dst_ip: [u8; 4],
    /// Source TCP port.
    pub src_port: u16,
    /// Destination TCP port.
    pub dst_port: u16,
}

impl FlowKey {
    /// The key of the reverse direction (ACKs of this flow).
    #[inline]
    pub fn reverse(&self) -> FlowKey {
        FlowKey {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
        }
    }

    /// FNV-1a over the 12 key bytes: a fast, deterministic, well-spread
    /// hash for flow-table sharding. Unlike `DefaultHasher` it has no
    /// per-hasher setup cost, which matters at one-to-two lookups per
    /// packet on the datapath fast path.
    #[inline]
    pub fn hash64(&self) -> u64 {
        const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = OFFSET_BASIS;
        let mut step = |b: u8| h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        self.src_ip.iter().copied().for_each(&mut step);
        self.dst_ip.iter().copied().for_each(&mut step);
        self.src_port.to_be_bytes().into_iter().for_each(&mut step);
        self.dst_port.to_be_bytes().into_iter().for_each(&mut step);
        h
    }
}

impl core::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}.{}.{}.{}:{} -> {}.{}.{}.{}:{}",
            self.src_ip[0],
            self.src_ip[1],
            self.src_ip[2],
            self.src_ip[3],
            self.src_port,
            self.dst_ip[0],
            self.dst_ip[1],
            self.dst_ip[2],
            self.dst_ip[3],
            self.dst_port
        )
    }
}

/// A simulated packet: serialized headers + virtual payload length + a
/// lazily-built cache of parsed header metadata.
///
/// # Pooled backing storage
///
/// The header buffer is rented from the process-wide
/// [`SegmentPool`](crate::pool::SegmentPool): constructors and `Clone`
/// take a recycled (fully overwritten) buffer, and `Drop` returns the
/// storage to the pool — so the NIC → vSwitch → endpoint pipeline
/// recycles one small allocation per packet instead of paying the
/// allocator round-trip. Per-worker code can steer the return to its own
/// pool shard with [`Segment::recycle_into`] / [`Segment::clone_in`].
#[derive(Debug)]
pub struct Segment {
    buf: BytesMut,
    payload_len: usize,
    /// Eager parse cache: filled by constructors and kept coherent by the
    /// maintained mutators (all of which hold `&mut`). Takes precedence
    /// over [`Segment::lazy_meta`].
    meta: Option<PacketMeta>,
    /// Lazy `&self` fill for the cold path — a re-parse after a raw
    /// mutable view cleared the eager cache. Both slots are reset
    /// together on invalidation.
    lazy_meta: OnceLock<PacketMeta>,
}

impl Segment {
    /// Build a TCP segment. `ip.payload_len` is overwritten from the TCP
    /// header length plus `payload_len`; checksums are filled.
    pub fn new_tcp(ip: Ipv4Repr, tcp: TcpRepr, payload_len: usize) -> Segment {
        let tcp_hdr_len = tcp.header_len();
        let ip_repr = Ipv4Repr {
            protocol: PROTO_TCP,
            payload_len: tcp_hdr_len + payload_len,
            ..ip
        };
        let total_hdr = ip_repr.header_len() + tcp_hdr_len;
        let mut buf = crate::pool::global().take(total_hdr);
        {
            let mut ipp = Ipv4Packet::new_unchecked(&mut buf[..]);
            ip_repr.emit(&mut ipp);
        }
        {
            let mut tcpp = TcpPacket::new_unchecked(&mut buf[ip_repr.header_len()..]);
            tcp.emit(&mut tcpp);
            tcpp.fill_checksum(ip_repr.src_addr, ip_repr.dst_addr, payload_len);
        }
        // The emitter is the "single parse" of a locally built segment: it
        // already holds every field the meta cache wants, so downstream
        // consumers never parse at all. Exotic options (explicit EOL,
        // Unknown) fall back to lazy first-access parsing so the cache
        // always matches what `PacketMeta::parse` would say.
        let meta = tcp_meta_from_reprs(&ip_repr, &tcp, tcp_hdr_len);
        Segment {
            buf,
            payload_len,
            meta,
            lazy_meta: OnceLock::new(),
        }
    }

    /// Build a UDP datagram (the vSwitch forwards these untouched; the
    /// paper leaves UDP congestion enforcement as future work).
    pub fn new_udp(ip: Ipv4Repr, udp: UdpRepr, payload_len: usize) -> Segment {
        let ip_repr = Ipv4Repr {
            protocol: PROTO_UDP,
            payload_len: udp.header_len() + payload_len,
            ..ip
        };
        let total_hdr = ip_repr.header_len() + udp.header_len();
        let mut buf = crate::pool::global().take(total_hdr);
        {
            let mut ipp = Ipv4Packet::new_unchecked(&mut buf[..]);
            ip_repr.emit(&mut ipp);
        }
        {
            let udp_repr = UdpRepr { payload_len, ..udp };
            let mut udpp = UdpPacket::new_unchecked(&mut buf[ip_repr.header_len()..]);
            udp_repr.emit(&mut udpp);
            udpp.fill_checksum(ip_repr.src_addr, ip_repr.dst_addr, payload_len);
        }
        let meta = PacketMeta {
            flow: FlowKey {
                src_ip: ip_repr.src_addr,
                dst_ip: ip_repr.dst_addr,
                src_port: udp.src_port,
                dst_port: udp.dst_port,
            },
            protocol: PROTO_UDP,
            ecn: ip_repr.ecn,
            ip_header_len: ip_repr.header_len() as u8,
            l4_header_len: crate::udp::HEADER_LEN as u8,
            flags: TcpFlags::empty(),
            seq: SeqNumber::ZERO,
            ack: SeqNumber::ZERO,
            window: 0,
            vm_ece: false,
            fack: false,
            pack_off: None,
            pack: None,
            wscale: None,
            mss: None,
        };
        Segment {
            buf,
            payload_len,
            meta: Some(meta),
            lazy_meta: OnceLock::new(),
        }
    }

    /// Is this a TCP segment (as opposed to UDP)?
    ///
    /// Deliberately does *not* fill the meta cache: pass-through paths
    /// (non-TCP traffic, a disabled datapath) route on this single byte
    /// and never pay a parse. Panic-free on truncated buffers.
    #[inline]
    pub fn is_tcp(&self) -> bool {
        match self.cached_meta() {
            Some(m) => m.protocol == PROTO_TCP,
            None => self.buf.get(crate::ipv4::field::PROTOCOL) == Some(&PROTO_TCP),
        }
    }

    /// Reconstruct a segment from raw header bytes (e.g. off a trace) plus
    /// a virtual payload length. The validating parse doubles as the
    /// cache fill: the returned segment already carries its meta.
    pub fn from_header_bytes(buf: BytesMut, payload_len: usize) -> Result<Segment> {
        let meta = PacketMeta::parse(&buf)?;
        Ok(Segment {
            buf,
            payload_len,
            meta: Some(meta),
            lazy_meta: OnceLock::new(),
        })
    }

    /// Clone, renting the copy's backing buffer through `handle` — the
    /// per-worker variant of `Clone` (which rents from the global pool's
    /// rotating shards). The FACK build path uses this so a worker's
    /// feedback packets draw on its own pool shard.
    pub fn clone_in(&self, handle: &crate::pool::PoolHandle<'_>) -> Segment {
        Segment {
            buf: handle.take_copy(&self.buf),
            payload_len: self.payload_len,
            meta: self.meta,
            lazy_meta: self.lazy_meta.clone(),
        }
    }

    /// Consume the segment, returning its backing buffer through
    /// `handle` instead of `Drop`'s rotating global return — the
    /// per-worker recycle for segments a worker absorbs (e.g. consumed
    /// FACKs).
    pub fn recycle_into(mut self, handle: &crate::pool::PoolHandle<'_>) {
        let buf = core::mem::take(&mut self.buf);
        handle.put(buf);
        // `self` drops here with an empty husk; `Drop` discards it.
    }

    /// The cached header metadata, parsing (once) on a cache miss.
    ///
    /// This is the hot-path accessor: the first caller on a segment's
    /// journey (normally NIC checksum verification) pays the single parse
    /// and every later layer reads the cached copy. Malformed headers
    /// return `Err` — callers drop and count, never panic.
    #[inline]
    pub fn try_meta(&self) -> Result<PacketMeta> {
        if let Some(m) = self.cached_meta() {
            return Ok(*m);
        }
        let m = PacketMeta::parse(&self.buf)?;
        // A racing filler parsed the same immutable bytes: either copy wins.
        Ok(*self.lazy_meta.get_or_init(|| m))
    }

    /// Whichever cache slot currently holds a parse (eager wins).
    #[inline]
    fn cached_meta(&self) -> Option<&PacketMeta> {
        self.meta.as_ref().or_else(|| self.lazy_meta.get())
    }

    /// Is the meta cache currently populated? (Test hook for the
    /// invalidation rules; not meaningful on the hot path.)
    #[inline]
    pub fn meta_is_cached(&self) -> bool {
        self.cached_meta().is_some()
    }

    /// Reset both cache slots (raw mutable views: anything may change).
    #[inline]
    fn invalidate_meta(&mut self) {
        self.meta = None;
        self.lazy_meta = OnceLock::new();
    }

    /// Install a known-coherent parse in the eager slot, clearing any
    /// stale lazy fill.
    #[inline]
    fn set_meta(&mut self, m: PacketMeta) {
        self.meta = Some(m);
        self.lazy_meta = OnceLock::new();
    }

    /// Apply `patch` to the cached meta, if one is cached. Mutators that
    /// keep the cache coherent use this: a cold cache stays cold (the
    /// next `try_meta` re-parses the — already updated — bytes). A
    /// lazily-filled cache is promoted into the eager slot first, so
    /// every patched parse lives where later patches find it.
    #[inline]
    fn patch_meta(&mut self, patch: impl FnOnce(&mut PacketMeta)) {
        if self.meta.is_none() {
            self.meta = self.lazy_meta.take();
        }
        if let Some(m) = &mut self.meta {
            patch(m);
        }
    }

    /// The serialized header bytes (IP + TCP, no payload).
    #[inline]
    pub fn header_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Freeze and return a copy of the header bytes.
    pub fn header_bytes_cloned(&self) -> Bytes {
        Bytes::copy_from_slice(&self.buf)
    }

    /// Virtual payload length in bytes.
    #[inline]
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// Total length on the wire: headers + payload.
    #[inline]
    pub fn wire_len(&self) -> usize {
        self.buf.len() + self.payload_len
    }

    /// Immutable IP header view.
    #[inline]
    pub fn ip(&self) -> Ipv4Packet<&[u8]> {
        Ipv4Packet::new_unchecked(&self.buf[..])
    }

    /// Mutable IP header view. Invalidates the meta cache: the caller can
    /// change anything, so the next meta access re-parses. Datapath code
    /// uses the maintained mutators instead.
    pub fn ip_mut(&mut self) -> Ipv4Packet<&mut [u8]> {
        self.invalidate_meta();
        Ipv4Packet::new_unchecked(&mut self.buf[..])
    }

    /// Immutable TCP header view (panics when called on a UDP segment —
    /// check [`Segment::is_tcp`] first on mixed paths).
    #[inline]
    pub fn tcp(&self) -> TcpPacket<&[u8]> {
        debug_assert!(self.is_tcp(), "tcp() on a UDP segment");
        let ihl = self.ip().header_len();
        TcpPacket::new_unchecked(&self.buf[ihl..])
    }

    /// Immutable UDP header view (panics when called on a TCP segment).
    pub fn udp(&self) -> UdpPacket<&[u8]> {
        debug_assert!(!self.is_tcp(), "udp() on a TCP segment");
        let ihl = self.ip().header_len();
        UdpPacket::new_unchecked(&self.buf[ihl..])
    }

    /// Mutable TCP header view. Invalidates the meta cache, like
    /// [`Segment::ip_mut`].
    pub fn tcp_mut(&mut self) -> TcpPacket<&mut [u8]> {
        self.invalidate_meta();
        let ihl = self.ip().header_len();
        TcpPacket::new_unchecked(&mut self.buf[ihl..])
    }

    /// The flow key of this segment's direction (TCP or UDP ports).
    ///
    /// Convenience for locally constructed segments and tests; wire-input
    /// paths use [`Segment::try_meta`] so malformed frames are dropped
    /// and counted rather than panicking here.
    pub fn flow_key(&self) -> FlowKey {
        self.try_meta().expect("flow_key on malformed segment").flow
    }

    /// ECN codepoint from the IP header.
    #[inline]
    pub fn ecn(&self) -> Ecn {
        match self.cached_meta() {
            Some(m) => m.ecn,
            None => self.ip().ecn(),
        }
    }

    /// Set the ECN codepoint, incrementally patching the IP checksum and
    /// the cached meta.
    #[inline]
    pub fn set_ecn(&mut self, ecn: Ecn) {
        Ipv4Packet::new_unchecked(&mut self.buf[..]).set_ecn_update_checksum(ecn);
        self.patch_meta(|m| m.ecn = ecn);
    }

    /// Mark this segment CE (what a WRED/ECN switch does), keeping the IP
    /// checksum valid.
    #[inline]
    pub fn mark_ce(&mut self) {
        self.set_ecn(Ecn::Ce);
    }

    /// TCP flags.
    #[inline]
    pub fn tcp_flags(&self) -> TcpFlags {
        match self.cached_meta() {
            Some(m) => m.flags,
            None => self.tcp().flags(),
        }
    }

    /// Overwrite the advertised window — the AC/DC enforcement write
    /// (§3.3 / §4): a 2-byte patch plus RFC 1624 incremental checksum,
    /// with the cached meta updated in step.
    #[inline]
    pub fn rewrite_window(&mut self, window: u16) {
        debug_assert!(self.is_tcp(), "rewrite_window on a UDP segment");
        let ihl = self.ip().header_len();
        TcpPacket::new_unchecked(&mut self.buf[ihl..]).set_window_update_checksum(window);
        self.patch_meta(|m| m.window = window);
    }

    /// Overwrite the TCP flag byte, patching checksum and meta.
    #[inline]
    pub fn set_tcp_flags(&mut self, flags: TcpFlags) {
        debug_assert!(self.is_tcp(), "set_tcp_flags on a UDP segment");
        let ihl = self.ip().header_len();
        TcpPacket::new_unchecked(&mut self.buf[ihl..]).set_flags_update_checksum(flags);
        self.patch_meta(|m| m.flags = flags);
    }

    /// Clear TCP flag bits (e.g. stripping ECE before the guest sees it),
    /// patching checksum and meta.
    #[inline]
    pub fn clear_tcp_flags(&mut self, flags: TcpFlags) {
        debug_assert!(self.is_tcp(), "clear_tcp_flags on a UDP segment");
        let ihl = self.ip().header_len();
        TcpPacket::new_unchecked(&mut self.buf[ihl..]).clear_flags_update_checksum(flags);
        self.patch_meta(|m| m.flags = m.flags.difference(flags));
    }

    /// Set the AC/DC reserved-bit markers, patching checksum and meta.
    #[inline]
    pub fn set_reserved(&mut self, vm_ece: bool, fack: bool) {
        debug_assert!(self.is_tcp(), "set_reserved on a UDP segment");
        let ihl = self.ip().header_len();
        TcpPacket::new_unchecked(&mut self.buf[ihl..]).set_reserved_update_checksum(vm_ece, fack);
        self.patch_meta(|m| {
            m.vm_ece = vm_ece;
            m.fack = fack;
        });
    }

    /// Clear both AC/DC reserved-bit markers, patching checksum and meta.
    #[inline]
    pub fn clear_reserved(&mut self) {
        debug_assert!(self.is_tcp(), "clear_reserved on a UDP segment");
        let ihl = self.ip().header_len();
        TcpPacket::new_unchecked(&mut self.buf[ihl..]).clear_reserved_update_checksum();
        self.patch_meta(|m| {
            m.vm_ece = false;
            m.fack = false;
        });
    }

    /// Flip the lowest bit of the raw TCP window *without* fixing the
    /// checksum — deliberate header damage for fault injection. The meta
    /// is kept in step with the (corrupted) bytes so classification after
    /// the fault still reads the truth; non-TCP segments pass unharmed.
    #[inline]
    pub fn corrupt_window_bit(&mut self) {
        if !self.is_tcp() {
            return;
        }
        let ihl = self.ip().header_len();
        let mut tcp = TcpPacket::new_unchecked(&mut self.buf[ihl..]);
        let w = tcp.window() ^ 0x0001;
        tcp.set_window(w);
        self.patch_meta(|m| m.window = w);
    }

    /// Change the virtual payload length in place (TCP only): patches the
    /// IP total length and both checksums incrementally. Used to turn a
    /// cloned data packet into a feedback-only fake ACK.
    #[inline]
    pub fn set_virtual_payload_len(&mut self, new_len: usize) {
        debug_assert!(self.is_tcp(), "set_virtual_payload_len on a UDP segment");
        if new_len == self.payload_len {
            return;
        }
        let ihl = self.ip().header_len();
        let thl = self.buf.len() - ihl;
        Ipv4Packet::new_unchecked(&mut self.buf[..])
            .set_total_len_update_checksum((ihl + thl + new_len) as u16);
        let old_l4 = (thl + self.payload_len) as u32;
        let new_l4 = (thl + new_len) as u32;
        let mut tcp = TcpPacket::new_unchecked(&mut self.buf[ihl..]);
        let mut ck = tcp.checksum();
        ck = checksum_adjust(ck, (old_l4 >> 16) as u16, (new_l4 >> 16) as u16);
        ck = checksum_adjust(ck, old_l4 as u16, new_l4 as u16);
        tcp.set_checksum(ck);
        self.payload_len = new_len;
        // Meta carries no length-derived fields; nothing to patch.
    }

    /// Append a PACK feedback option to the TCP header in place: EOL
    /// padding is rewritten to NOP so the appended option stays reachable,
    /// the header grows by [`PackOption::WIRE_LEN`] bytes, and both
    /// checksums are patched incrementally (no re-emit, no allocation
    /// beyond the buffer growth). Returns `false` — leaving the segment
    /// untouched — when the option does not fit, one is already present,
    /// or the options region does not parse.
    pub fn append_pack_in_place(&mut self, pack: PackOption) -> bool {
        let Ok(meta) = self.try_meta() else {
            return false;
        };
        if !meta.is_tcp() || meta.pack_off.is_some() {
            return false;
        }
        let ihl = usize::from(meta.ip_header_len);
        let thl = usize::from(meta.l4_header_len);
        if thl + PackOption::WIRE_LEN > crate::tcp::MAX_HEADER_LEN {
            return false;
        }
        let opts_start = ihl + crate::tcp::HEADER_LEN;
        let Some(pad_start) = options_padding_start(&self.buf[opts_start..ihl + thl]) else {
            return false;
        };
        let old_words = self.tcp_header_words(ihl);
        for b in &mut self.buf[opts_start + pad_start..ihl + thl] {
            *b = option_kind::NOP;
        }
        let old_buf_len = self.buf.len();
        self.buf.resize(old_buf_len + PackOption::WIRE_LEN, 0);
        pack.emit(&mut self.buf[old_buf_len..]);
        let new_thl = thl + PackOption::WIRE_LEN;
        TcpPacket::new_unchecked(&mut self.buf[ihl..]).set_header_len(new_thl);
        Ipv4Packet::new_unchecked(&mut self.buf[..])
            .set_total_len_update_checksum((ihl + new_thl + self.payload_len) as u16);
        let new_words = self.tcp_header_words(ihl);
        self.adjust_tcp_checksum(
            ihl,
            &old_words,
            &new_words,
            (thl + self.payload_len) as u32,
            (new_thl + self.payload_len) as u32,
        );
        let mut m = meta;
        m.l4_header_len = new_thl as u8;
        m.pack_off = Some((ihl + thl) as u16);
        m.pack = Some(pack);
        self.set_meta(m);
        true
    }

    /// Remove the PACK option from the TCP header in place (the inverse of
    /// [`Segment::append_pack_in_place`]): later options/padding shift
    /// down, the header shrinks, checksums are patched incrementally.
    /// Returns `false` when no PACK option is present.
    pub fn strip_pack_in_place(&mut self) -> bool {
        let Ok(meta) = self.try_meta() else {
            return false;
        };
        let Some(pack_off) = meta.pack_off else {
            return false;
        };
        let off = usize::from(pack_off);
        let ihl = usize::from(meta.ip_header_len);
        let thl = usize::from(meta.l4_header_len);
        debug_assert!(off + PackOption::WIRE_LEN <= ihl + thl);
        let old_words = self.tcp_header_words(ihl);
        let end = self.buf.len();
        self.buf.copy_within(off + PackOption::WIRE_LEN..end, off);
        self.buf.truncate(end - PackOption::WIRE_LEN);
        let new_thl = thl - PackOption::WIRE_LEN;
        TcpPacket::new_unchecked(&mut self.buf[ihl..]).set_header_len(new_thl);
        Ipv4Packet::new_unchecked(&mut self.buf[..])
            .set_total_len_update_checksum((ihl + new_thl + self.payload_len) as u16);
        let new_words = self.tcp_header_words(ihl);
        self.adjust_tcp_checksum(
            ihl,
            &old_words,
            &new_words,
            (thl + self.payload_len) as u32,
            (new_thl + self.payload_len) as u32,
        );
        let mut m = meta;
        m.l4_header_len = new_thl as u8;
        m.pack_off = None;
        m.pack = None;
        self.set_meta(m);
        true
    }

    /// Snapshot the TCP header as 16-bit words (missing tail words read as
    /// zero — a zero word contributes nothing to the Internet checksum, so
    /// grown/shrunk headers diff cleanly against each other).
    fn tcp_header_words(&self, ihl: usize) -> [u16; MAX_TCP_WORDS] {
        let mut words = [0u16; MAX_TCP_WORDS];
        let data = &self.buf[ihl..];
        for (i, w) in words.iter_mut().enumerate() {
            let off = i * 2;
            if off + 2 <= data.len() {
                *w = u16::from_be_bytes([data[off], data[off + 1]]);
            }
        }
        words
    }

    /// Fold the word-level diff of two header snapshots (plus a
    /// pseudo-header length change) into the TCP checksum, RFC 1624 style.
    fn adjust_tcp_checksum(
        &mut self,
        ihl: usize,
        old: &[u16; MAX_TCP_WORDS],
        new: &[u16; MAX_TCP_WORDS],
        old_l4_len: u32,
        new_l4_len: u32,
    ) {
        // The checksum field itself (TCP bytes 16..18) is the output, not
        // an input, of the adjustment.
        const CHECKSUM_WORD: usize = 8;
        let mut tcp = TcpPacket::new_unchecked(&mut self.buf[ihl..]);
        let mut ck = tcp.checksum();
        for (i, (o, n)) in old.iter().zip(new.iter()).enumerate() {
            if i != CHECKSUM_WORD && o != n {
                ck = checksum_adjust(ck, *o, *n);
            }
        }
        if old_l4_len != new_l4_len {
            ck = checksum_adjust(ck, (old_l4_len >> 16) as u16, (new_l4_len >> 16) as u16);
            ck = checksum_adjust(ck, old_l4_len as u16, new_l4_len as u16);
        }
        tcp.set_checksum(ck);
    }

    /// Does this segment carry payload, SYN, or FIN (i.e. occupy sequence
    /// space and need acknowledgement)?
    #[inline]
    pub fn occupies_seq_space(&self) -> bool {
        self.payload_len > 0 || self.tcp_flags().intersects(TcpFlags::SYN | TcpFlags::FIN)
    }

    /// Is this a "pure ACK": no payload, no SYN/FIN/RST?
    #[inline]
    pub fn is_pure_ack(&self) -> bool {
        self.payload_len == 0
            && self.tcp_flags().contains(TcpFlags::ACK)
            && !self
                .tcp_flags()
                .intersects(TcpFlags::SYN | TcpFlags::FIN | TcpFlags::RST)
    }

    /// Parse the TCP header into a full `TcpRepr`.
    pub fn tcp_repr(&self) -> Result<TcpRepr> {
        TcpRepr::parse(&self.tcp())
    }

    /// Verify both checksums (IP header and L4 with virtual payload).
    /// Doubles as the cache fill: verification is the first thing a NIC
    /// does to an arriving frame, so the single parse happens here and
    /// every later layer hits the cache. Malformed headers fail.
    pub fn verify_checksums(&self) -> bool {
        let Ok(meta) = self.try_meta() else {
            return false;
        };
        let ip = self.ip();
        if !ip.verify_checksum() {
            return false;
        }
        if meta.is_tcp() {
            self.tcp()
                .verify_checksum(ip.src_addr(), ip.dst_addr(), self.payload_len)
        } else {
            self.udp()
                .verify_checksum(ip.src_addr(), ip.dst_addr(), self.payload_len)
        }
    }
}

impl Clone for Segment {
    /// Clones rent their buffer from the global pool (rotating shards);
    /// see [`Segment::clone_in`] for the shard-pinned per-worker form.
    fn clone(&self) -> Segment {
        Segment {
            buf: crate::pool::global().take_copy(&self.buf),
            payload_len: self.payload_len,
            meta: self.meta,
            lazy_meta: self.lazy_meta.clone(),
        }
    }
}

impl Drop for Segment {
    /// Returns the backing buffer to the global pool. Buffers already
    /// handed elsewhere ([`Segment::recycle_into`] leaves an empty husk)
    /// are discarded by the pool's zero-capacity check.
    fn drop(&mut self) {
        crate::pool::global().put(core::mem::take(&mut self.buf));
    }
}

/// Number of 16-bit words in a maximum-size TCP header.
const MAX_TCP_WORDS: usize = crate::tcp::MAX_HEADER_LEN / 2;

/// Walk the options region; return the byte index where trailing padding
/// begins (the first terminating EOL, or `opts.len()` if options run to
/// the end), or `None` if an option is malformed — in which case bytes
/// appended past the walk's stopping point would be unreachable to any
/// parser and in-place insertion must be refused.
/// Build the meta cache for a freshly emitted TCP segment straight from
/// the representations — the emitter already knows every field, so a
/// locally built packet costs *zero* parses over its whole lifetime.
///
/// Returns `None` (leave the cache cold, parse lazily) for option lists a
/// wire walk would interpret differently than a naive sweep: an explicit
/// `EndOfList` terminates the walk, and `Unknown` options may collide with
/// EOL/NOP kind bytes or carry bogus lengths. The meta-coherence proptests
/// pin this fast path to `PacketMeta::parse` of the emitted bytes.
fn tcp_meta_from_reprs(ip: &Ipv4Repr, tcp: &TcpRepr, tcp_hdr_len: usize) -> Option<PacketMeta> {
    let mut meta = PacketMeta {
        flow: FlowKey {
            src_ip: ip.src_addr,
            dst_ip: ip.dst_addr,
            src_port: tcp.src_port,
            dst_port: tcp.dst_port,
        },
        protocol: PROTO_TCP,
        ecn: ip.ecn,
        ip_header_len: ip.header_len() as u8,
        l4_header_len: tcp_hdr_len as u8,
        flags: tcp.flags,
        seq: tcp.seq,
        ack: tcp.ack,
        window: tcp.window,
        vm_ece: tcp.vm_ece,
        fack: tcp.fack,
        pack_off: None,
        pack: None,
        wscale: None,
        mss: None,
    };
    let mut off = (ip.header_len() + crate::tcp::HEADER_LEN) as u16;
    for opt in &tcp.options {
        match *opt {
            TcpOption::EndOfList | TcpOption::Unknown(..) => return None,
            TcpOption::MaxSegmentSize(v) => meta.mss = Some(v),
            TcpOption::WindowScale(v) => meta.wscale = Some(v),
            TcpOption::Pack(p) => {
                meta.pack = Some(p);
                meta.pack_off = Some(off);
            }
            TcpOption::NoOperation | TcpOption::SackPermitted | TcpOption::Timestamps(..) => {}
        }
        off += opt.wire_len() as u16;
    }
    Some(meta)
}

fn options_padding_start(opts: &[u8]) -> Option<usize> {
    let mut i = 0usize;
    while i < opts.len() {
        match opts[i] {
            option_kind::EOL => return Some(i),
            option_kind::NOP => i += 1,
            _ => {
                if i + 1 >= opts.len() {
                    return None;
                }
                let len = usize::from(opts[i + 1]);
                if len < 2 || i + len > opts.len() {
                    return None;
                }
                i += len;
            }
        }
    }
    Some(opts.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip_repr() -> Ipv4Repr {
        Ipv4Repr {
            src_addr: [10, 0, 0, 1],
            dst_addr: [10, 0, 0, 9],
            protocol: PROTO_TCP,
            ecn: Ecn::Ect0,
            payload_len: 0, // overwritten by Segment::new_tcp
            ttl: 64,
        }
    }

    fn tcp_repr() -> TcpRepr {
        let mut r = TcpRepr::new(40000, 5001);
        r.seq = SeqNumber(1000);
        r.ack = SeqNumber(2000);
        r.flags = TcpFlags::ACK;
        r.window = 1234;
        r
    }

    #[test]
    fn meta_cache_survives_cross_thread_move() {
        let seg = Segment::new_tcp(ip_repr(), tcp_repr(), 100);
        let meta = seg.try_meta().unwrap();
        let back = std::thread::spawn(move || seg).join().unwrap();
        assert!(back.meta_is_cached());
        assert_eq!(back.try_meta().unwrap(), meta);
    }

    #[test]
    fn construction_produces_consistent_lengths_and_checksums() {
        let seg = Segment::new_tcp(ip_repr(), tcp_repr(), 1448);
        assert_eq!(seg.payload_len(), 1448);
        assert_eq!(seg.wire_len(), 20 + 20 + 1448);
        assert_eq!(seg.ip().total_len() as usize, seg.wire_len());
        assert!(seg.verify_checksums());
    }

    #[test]
    fn flow_key_and_reverse() {
        let seg = Segment::new_tcp(ip_repr(), tcp_repr(), 0);
        let k = seg.flow_key();
        assert_eq!(k.src_port, 40000);
        assert_eq!(k.dst_port, 5001);
        let r = k.reverse();
        assert_eq!(r.src_ip, [10, 0, 0, 9]);
        assert_eq!(r.reverse(), k);
    }

    #[test]
    fn flow_key_hash_is_stable_and_direction_sensitive() {
        let seg = Segment::new_tcp(ip_repr(), tcp_repr(), 0);
        let k = seg.flow_key();
        assert_eq!(k.hash64(), k.hash64());
        assert_ne!(k.hash64(), k.reverse().hash64());
    }

    #[test]
    fn constructors_prepopulate_and_reparse_is_lazy() {
        // Locally built segments are born with their meta: the emitter is
        // the single "parse" of their lifetime.
        let seg = Segment::new_tcp(ip_repr(), tcp_repr(), 100);
        assert!(seg.meta_is_cached());
        let m = seg.try_meta().unwrap();
        assert_eq!(m.window, 1234);
        assert_eq!(m.seq, SeqNumber(1000));
        // The pre-populated cache matches a from-scratch parse exactly.
        assert_eq!(m, PacketMeta::parse(seg.header_bytes()).unwrap());
        // Clones carry the cache.
        assert!(seg.clone().meta_is_cached());

        // After a raw-view invalidation the rebuild is lazy: nothing is
        // parsed until the next accessor call.
        let mut seg = seg;
        let _ = seg.tcp_mut();
        assert!(!seg.meta_is_cached());
        seg.try_meta().unwrap();
        assert!(seg.meta_is_cached());
    }

    #[test]
    fn exotic_options_fall_back_to_lazy_parse() {
        // An explicit EndOfList makes the emit-time fast path bail; the
        // cache must then be built by a real parse on first access and the
        // two must agree.
        let mut r = tcp_repr();
        r.options = vec![TcpOption::MaxSegmentSize(1448), TcpOption::EndOfList];
        let seg = Segment::new_tcp(ip_repr(), r, 0);
        assert!(!seg.meta_is_cached());
        let m = seg.try_meta().unwrap();
        assert_eq!(m, PacketMeta::parse(seg.header_bytes()).unwrap());
        assert_eq!(m.mss, Some(1448));
    }

    #[test]
    fn raw_mutable_views_invalidate_meta() {
        let mut seg = Segment::new_tcp(ip_repr(), tcp_repr(), 0);
        seg.try_meta().unwrap();
        let _ = seg.tcp_mut();
        assert!(!seg.meta_is_cached());
        seg.try_meta().unwrap();
        let _ = seg.ip_mut();
        assert!(!seg.meta_is_cached());
    }

    #[test]
    fn maintained_mutators_keep_meta_coherent() {
        let mut seg = Segment::new_tcp(ip_repr(), tcp_repr(), 100);
        seg.try_meta().unwrap();
        seg.rewrite_window(99);
        seg.mark_ce();
        seg.set_reserved(true, false);
        assert!(seg.meta_is_cached());
        let m = seg.try_meta().unwrap();
        assert_eq!(m.window, 99);
        assert_eq!(m.ecn, Ecn::Ce);
        assert!(m.vm_ece);
        // The cached view matches a from-scratch parse and the checksums
        // are still valid.
        assert_eq!(m, PacketMeta::parse(seg.header_bytes()).unwrap());
        assert!(seg.verify_checksums());
    }

    #[test]
    fn ce_marking_keeps_ip_checksum_valid() {
        let mut seg = Segment::new_tcp(ip_repr(), tcp_repr(), 100);
        assert_eq!(seg.ecn(), Ecn::Ect0);
        seg.mark_ce();
        assert_eq!(seg.ecn(), Ecn::Ce);
        assert!(seg.ip().verify_checksum());
    }

    #[test]
    fn pure_ack_classification() {
        let ack = Segment::new_tcp(ip_repr(), tcp_repr(), 0);
        assert!(ack.is_pure_ack());
        assert!(!ack.occupies_seq_space());

        let data = Segment::new_tcp(ip_repr(), tcp_repr(), 10);
        assert!(!data.is_pure_ack());
        assert!(data.occupies_seq_space());

        let mut syn = tcp_repr();
        syn.flags = TcpFlags::SYN;
        let syn = Segment::new_tcp(ip_repr(), syn, 0);
        assert!(!syn.is_pure_ack());
        assert!(syn.occupies_seq_space());
    }

    #[test]
    fn window_rewrite_through_segment_views() {
        let mut seg = Segment::new_tcp(ip_repr(), tcp_repr(), 0);
        seg.tcp_mut().set_window_update_checksum(99);
        assert_eq!(seg.tcp().window(), 99);
        assert!(seg.verify_checksums());
    }

    #[test]
    fn append_and_strip_pack_in_place() {
        let pack = PackOption {
            total_bytes: 100_000,
            marked_bytes: 20_000,
        };
        let mut seg = Segment::new_tcp(ip_repr(), tcp_repr(), 0);
        let before = seg.header_bytes().to_vec();
        assert!(seg.append_pack_in_place(pack));
        assert_eq!(
            seg.header_bytes().len(),
            before.len() + PackOption::WIRE_LEN
        );
        assert_eq!(seg.tcp().pack_option(), Some(pack));
        assert!(seg.verify_checksums());
        let m = seg.try_meta().unwrap();
        assert_eq!(m.pack, Some(pack));
        assert_eq!(m, PacketMeta::parse(seg.header_bytes()).unwrap());
        // A second append is refused.
        assert!(!seg.append_pack_in_place(pack));

        assert!(seg.strip_pack_in_place());
        assert_eq!(seg.header_bytes().len(), before.len());
        assert_eq!(seg.tcp().pack_option(), None);
        assert!(seg.verify_checksums());
        let m = seg.try_meta().unwrap();
        assert_eq!(m.pack, None);
        assert_eq!(m, PacketMeta::parse(seg.header_bytes()).unwrap());
        // Nothing left to strip.
        assert!(!seg.strip_pack_in_place());
    }

    #[test]
    fn append_pack_converts_eol_padding_to_nop() {
        // A Timestamps option emits 10 bytes, padded to 12 with EOL; the
        // appended PACK must stay reachable past that padding.
        let mut r = tcp_repr();
        r.options = vec![crate::TcpOption::Timestamps(7, 8)];
        let mut seg = Segment::new_tcp(ip_repr(), r, 0);
        let pack = PackOption {
            total_bytes: 9,
            marked_bytes: 3,
        };
        assert!(seg.append_pack_in_place(pack));
        assert_eq!(seg.tcp().pack_option(), Some(pack));
        assert!(seg
            .tcp()
            .options_iter()
            .any(|o| matches!(o, crate::TcpOption::Timestamps(7, 8))));
        assert!(seg.verify_checksums());
        assert_eq!(
            seg.try_meta().unwrap(),
            PacketMeta::parse(seg.header_bytes()).unwrap()
        );
    }

    #[test]
    fn append_pack_refuses_full_header() {
        let mut r = tcp_repr();
        // 4 timestamps = 40 option bytes: a full 60-byte header with no
        // room for 12 more.
        r.options = vec![crate::TcpOption::Timestamps(1, 2); 4];
        let mut seg = Segment::new_tcp(ip_repr(), r, 0);
        let before = seg.header_bytes().to_vec();
        assert!(!seg.append_pack_in_place(PackOption::default()));
        assert_eq!(seg.header_bytes(), &before[..]);
        assert!(seg.verify_checksums());
    }

    #[test]
    fn set_virtual_payload_len_keeps_checksums_valid() {
        let mut seg = Segment::new_tcp(ip_repr(), tcp_repr(), 1448);
        seg.set_virtual_payload_len(0);
        assert_eq!(seg.payload_len(), 0);
        assert_eq!(seg.wire_len(), 40);
        assert_eq!(seg.ip().total_len(), 40);
        assert!(seg.verify_checksums());
    }

    #[test]
    fn corrupt_window_bit_breaks_checksum_but_not_meta() {
        let mut seg = Segment::new_tcp(ip_repr(), tcp_repr(), 0);
        let w = seg.try_meta().unwrap().window;
        seg.corrupt_window_bit();
        assert!(!seg.verify_checksums());
        assert_eq!(seg.try_meta().unwrap().window, w ^ 1);
        assert_eq!(seg.tcp().window(), w ^ 1);
    }

    #[test]
    fn from_header_bytes_round_trip() {
        let seg = Segment::new_tcp(ip_repr(), tcp_repr(), 777);
        let buf = BytesMut::from(seg.header_bytes());
        let seg2 = Segment::from_header_bytes(buf, 777).unwrap();
        assert!(seg2.meta_is_cached());
        assert_eq!(seg2.wire_len(), seg.wire_len());
        assert_eq!(seg2.flow_key(), seg.flow_key());
        assert!(seg2.verify_checksums());
    }

    #[test]
    fn from_header_bytes_rejects_unknown_protocol() {
        let mut seg = Segment::new_tcp(ip_repr(), tcp_repr(), 0);
        seg.ip_mut().set_protocol(47); // GRE: not ours
        let buf = BytesMut::from(seg.header_bytes());
        assert_eq!(
            Segment::from_header_bytes(buf, 0).unwrap_err(),
            Error::Unsupported
        );
    }

    #[test]
    fn try_meta_reports_malformed_instead_of_panicking() {
        let mut seg = Segment::new_tcp(ip_repr(), tcp_repr(), 0);
        seg.ip_mut().set_protocol(47);
        assert_eq!(seg.try_meta().unwrap_err(), Error::Unsupported);
        assert!(!seg.verify_checksums());
    }

    #[test]
    fn udp_segment_round_trip() {
        let udp = UdpRepr {
            src_port: 6000,
            dst_port: 7000,
            payload_len: 0, // overwritten by new_udp
        };
        let seg = Segment::new_udp(ip_repr(), udp, 512);
        assert!(!seg.is_tcp());
        assert_eq!(seg.wire_len(), 20 + 8 + 512);
        assert!(seg.verify_checksums());
        let k = seg.flow_key();
        assert_eq!(k.src_port, 6000);
        assert_eq!(k.dst_port, 7000);
        let buf = BytesMut::from(seg.header_bytes());
        let seg2 = Segment::from_header_bytes(buf, 512).unwrap();
        assert_eq!(seg2.flow_key(), k);
        assert!(seg2.verify_checksums());
    }

    #[test]
    fn udp_segment_ce_marking_keeps_ip_checksum() {
        let udp = UdpRepr {
            src_port: 1,
            dst_port: 2,
            payload_len: 0,
        };
        let mut seg = Segment::new_udp(
            Ipv4Repr {
                ecn: Ecn::Ect0,
                ..ip_repr()
            },
            udp,
            100,
        );
        seg.mark_ce();
        assert_eq!(seg.ecn(), Ecn::Ce);
        assert!(seg.verify_checksums());
    }
}
