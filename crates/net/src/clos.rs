//! The datacenter fabric: a two-tier Clos (leaf/spine) with ECMP-striped
//! transfers, and the workspace's only fabric model.
//!
//! [`ClosFabric`] models the topology real datacenters use: hosts live in
//! racks behind leaf switches, leaves connect to `spines` independent spine
//! switches, and a striped burst hashes its streams ECMP-style across the
//! live spines so cross-rack streams ride *independent* paths and genuinely
//! complete earlier in simulated time. The worst case — one shared
//! backbone, so disjoint host pairs contend and multi-stream migration never
//! wins simulated time — is its one-rack preset, built from a
//! [`FabricParams`](crate::FabricParams) by `ClosParams::from` and
//! documented in the [`fabric`](crate::fabric) module.
//!
//! # Model parameters and assumptions
//!
//! Following *On Heuristic Models, Assumptions, and Parameters*, every
//! assumption is a named [`ClosParams`] field:
//!
//! * **Per-host NIC capacity** (`nic_bytes_per_second`) — as in the
//!   single-spine model, a host serializes all of its traffic through one
//!   NIC.
//! * **Per-rack leaf capacity** (`leaf_uplink_bytes_per_second`) — each rack
//!   owns one leaf switch whose backplane and uplink share a single busy
//!   mark: rack-local *and* cross-rack traffic both occupy the rack's leaf.
//!   This shared-backplane assumption is what makes the one-rack preset
//!   *exactly* the single-spine fabric (the leaf plays the backbone's role).
//! * **Independent spine paths** (`spines`, `spine_bytes_per_second`) —
//!   cross-rack traffic crosses exactly one spine per stream, chosen by a
//!   deterministic ECMP hash of the endpoint pair and the stream index.
//!   Streams mapped to different spines serialize concurrently; the burst
//!   completes when its slowest component does. The hash is load-oblivious,
//!   as real ECMP is: it never peeks at spine occupancy.
//! * **Two latency classes** (`rack_latency`, `cross_latency`) — rack-local
//!   bursts pay the leaf hop, cross-rack bursts pay the full
//!   leaf-spine-leaf path; each is paid once per burst.
//! * **MTU chunking and store-and-forward occupancy** — per-stream
//!   `ceil(payload / mtu)` chunks each pay `chunk_overhead` framing bytes,
//!   and a burst occupies every resource it touches (both NICs, both
//!   leaves, every chosen spine) until its *last* byte has serialized.
//!   Whole-burst occupancy is deliberately conservative: a one-stream burst
//!   and a one-element striped burst leave identical marks.
//! * **Spine failure degrades, never partitions** —
//!   [`ClosFabric::fail_spine`] removes one spine's capacity and the ECMP
//!   hash re-spreads over the survivors; the last live spine cannot be
//!   failed, so every endpoint pair always has a path.
//!
//! All timing is `u128` integer-nanosecond arithmetic stored as
//! [`Nanoseconds`]; same-seed simulations replay `==`-identically.

use serde::{Deserialize, Serialize};

use rvisor_obs::{ArgValue, Trace};
use rvisor_types::{Error, Nanoseconds, Result};

use crate::fabric::DEFAULT_CHUNK_OVERHEAD;

/// Static per-spine wire-byte counter names (obs counter names must be
/// `&'static str`). Spines beyond index 7 clamp onto the last name; the
/// per-spine byte count the fabric keeps stays exact.
const SPINE_COUNTER_NAMES: [&str; 8] = [
    "fabric.spine0.wire_bytes",
    "fabric.spine1.wire_bytes",
    "fabric.spine2.wire_bytes",
    "fabric.spine3.wire_bytes",
    "fabric.spine4.wire_bytes",
    "fabric.spine5.wire_bytes",
    "fabric.spine6.wire_bytes",
    "fabric.spine7.wire_bytes",
];

/// Named, validated parameters of a [`ClosFabric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClosParams {
    /// Number of racks (each with one leaf switch).
    pub racks: usize,
    /// Hosts per rack under the contiguous assignment of
    /// [`ClosFabric::new`] (endpoint `e` lives in rack `e / hosts_per_rack`).
    pub hosts_per_rack: usize,
    /// Line rate of every host NIC, in bytes per second.
    pub nic_bytes_per_second: u64,
    /// Capacity of each rack's leaf switch, in bytes per second. The leaf
    /// backplane and uplink share this single capacity (see module docs).
    pub leaf_uplink_bytes_per_second: u64,
    /// Number of independent spine switches.
    pub spines: usize,
    /// Capacity of one spine path, in bytes per second.
    pub spine_bytes_per_second: u64,
    /// One-way latency for rack-local transfers (one leaf hop).
    pub rack_latency: Nanoseconds,
    /// One-way latency for cross-rack transfers (leaf-spine-leaf).
    pub cross_latency: Nanoseconds,
    /// Maximum payload bytes per on-wire chunk (the MTU).
    pub mtu: u64,
    /// Framing overhead added to every chunk.
    pub chunk_overhead: u64,
}

impl ClosParams {
    /// A jumbo-frame datacenter Clos: 10 Gbit/s NICs, 20 Gbit/s leaves and
    /// four 5 Gbit/s spines — deliberately oversubscribed per spine so a
    /// single cross-rack stream is spine-bound (625 MB/s) while two or more
    /// ECMP-spread streams are NIC-bound (1.25 GB/s): a genuine 2× striping
    /// win in simulated time.
    pub fn datacenter(racks: usize, hosts_per_rack: usize) -> Self {
        ClosParams {
            racks,
            hosts_per_rack,
            nic_bytes_per_second: 1_250_000_000,
            leaf_uplink_bytes_per_second: 2_500_000_000,
            spines: 4,
            spine_bytes_per_second: 625_000_000,
            rack_latency: Nanoseconds::from_micros(10),
            cross_latency: Nanoseconds::from_micros(50),
            mtu: 9000,
            chunk_overhead: DEFAULT_CHUNK_OVERHEAD,
        }
    }

    /// Validate the parameters: counts and bandwidths must be non-zero and
    /// the MTU must exceed the per-chunk overhead.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.racks == 0 {
            return Err(Error::Net("a Clos fabric needs at least one rack".into()));
        }
        if self.hosts_per_rack == 0 {
            return Err(Error::Net(
                "a Clos fabric needs at least one host per rack".into(),
            ));
        }
        if self.spines == 0 {
            return Err(Error::Net("a Clos fabric needs at least one spine".into()));
        }
        if self.nic_bytes_per_second == 0 {
            return Err(Error::Net("Clos NIC bandwidth must be non-zero".into()));
        }
        if self.leaf_uplink_bytes_per_second == 0 {
            return Err(Error::Net("Clos leaf bandwidth must be non-zero".into()));
        }
        if self.spine_bytes_per_second == 0 {
            return Err(Error::Net("Clos spine bandwidth must be non-zero".into()));
        }
        if self.mtu == 0 {
            return Err(Error::Net("Clos MTU must be non-zero".into()));
        }
        if self.chunk_overhead >= self.mtu {
            return Err(Error::Net(format!(
                "chunk overhead ({}) must be smaller than the MTU ({})",
                self.chunk_overhead, self.mtu
            )));
        }
        Ok(())
    }

    /// Bytes that actually cross the wire for a `payload`-byte stream:
    /// payload plus `chunk_overhead` for each of `ceil(payload / mtu)` chunks.
    pub fn wire_bytes(&self, payload: u64) -> u64 {
        let chunks = payload.div_ceil(self.mtu.max(1));
        payload.saturating_add(chunks.saturating_mul(self.chunk_overhead))
    }

    /// The rate a rack-local transfer serializes at: the slower of a NIC
    /// and the rack's leaf.
    pub(crate) fn local_bytes_per_second(&self) -> u64 {
        self.nic_bytes_per_second
            .min(self.leaf_uplink_bytes_per_second)
    }

    /// The rate a *single-stream* cross-rack transfer serializes at: the
    /// slowest of a NIC, a leaf and one spine path. Striped bursts can beat
    /// this by spreading streams over several spines.
    fn cross_bytes_per_second(&self) -> u64 {
        self.local_bytes_per_second()
            .min(self.spine_bytes_per_second)
    }

    /// Time for `payload` bytes to cross an idle rack-local path.
    pub(crate) fn local_transfer_time(&self, payload: u64) -> Nanoseconds {
        self.rack_latency.saturating_add(serialization(
            self.wire_bytes(payload),
            self.local_bytes_per_second(),
        ))
    }

    /// Time for `payload` bytes to cross an idle cross-rack path as one
    /// stream.
    fn cross_transfer_time(&self, payload: u64) -> Nanoseconds {
        self.cross_latency.saturating_add(serialization(
            self.wire_bytes(payload),
            self.cross_bytes_per_second(),
        ))
    }
}

/// Integer-nanosecond serialization time of `wire` bytes at `rate`
/// bytes/second.
fn serialization(wire: u64, rate: u64) -> Nanoseconds {
    Nanoseconds(((wire as u128 * 1_000_000_000) / rate.max(1) as u128) as u64)
}

/// SplitMix64 finalizer over the endpoint pair: the deterministic seed of
/// the ECMP stream-to-spine mapping. Stream `i` of pair `(from, to)` takes
/// live-spine slot `(pair_hash + i) % live_spines` — round-robin from a
/// pair-specific offset, so any `n >= live_spines` streams spread perfectly.
fn pair_hash(from: usize, to: usize) -> u64 {
    let mut z = ((from as u64) << 32) ^ (to as u64) ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One endpoint's NIC: its rack, a busy-until mark and traffic counters.
/// The rack rides beside the mark every transfer reads anyway, so a
/// 10k-host fabric pays no second cache miss per endpoint for it.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    rack: usize,
    free_at: Nanoseconds,
    bytes_sent: u64,
    bytes_received: u64,
}

/// A two-tier leaf/spine fabric connecting dense endpoints `0..n`.
///
/// Rack-local transfers cross the source NIC, the rack's leaf and the
/// destination NIC; cross-rack transfers additionally cross one ECMP-chosen
/// spine per stream. All state is integer nanoseconds: a run's transfer
/// timeline is a pure function of the call sequence.
#[derive(Debug, Clone)]
pub struct ClosFabric {
    params: ClosParams,
    nics: Vec<Mark>,
    leaf_free_at: Vec<Nanoseconds>,
    spine_free_at: Vec<Nanoseconds>,
    spine_live: Vec<bool>,
    spine_wire_bytes: Vec<u64>,
    bytes_carried: u64,
    wire_bytes_carried: u64,
    transfers: u64,
    scratch_wire: Vec<u64>,
    trace: Trace,
}

impl ClosFabric {
    /// Create a Clos fabric with `endpoints` idle NICs assigned to racks
    /// contiguously: endpoint `e` lives in rack `e / hosts_per_rack`.
    /// Requires `2 <= endpoints <= racks * hosts_per_rack`. A
    /// [`FabricParams`](crate::FabricParams) converts into the one-rack
    /// single-spine preset.
    pub fn new(endpoints: usize, params: impl Into<ClosParams>) -> Result<Self> {
        let params = params.into();
        if endpoints > params.racks.saturating_mul(params.hosts_per_rack) {
            return Err(Error::Net(format!(
                "{endpoints} endpoints exceed {} racks x {} hosts",
                params.racks, params.hosts_per_rack
            )));
        }
        let racks_of = (0..endpoints)
            .map(|e| e / params.hosts_per_rack.max(1))
            .collect();
        Self::with_rack_assignment(params, racks_of)
    }

    /// Create a Clos fabric with an explicit endpoint-to-rack assignment
    /// (`racks_of[e]` is endpoint `e`'s rack, each `< params.racks`). The
    /// orchestrator uses this to give the DR endpoint its own rack.
    pub fn with_rack_assignment(params: ClosParams, racks_of: Vec<usize>) -> Result<Self> {
        params.validate()?;
        if racks_of.len() < 2 {
            return Err(Error::Net("a fabric needs at least two endpoints".into()));
        }
        if let Some(&bad) = racks_of.iter().find(|&&r| r >= params.racks) {
            return Err(Error::Net(format!(
                "endpoint rack {bad} out of range: fabric has {} racks",
                params.racks
            )));
        }
        Ok(ClosFabric {
            params,
            nics: racks_of
                .into_iter()
                .map(|rack| Mark {
                    rack,
                    ..Mark::default()
                })
                .collect(),
            leaf_free_at: vec![Nanoseconds::ZERO; params.racks],
            spine_free_at: vec![Nanoseconds::ZERO; params.spines],
            spine_live: vec![true; params.spines],
            spine_wire_bytes: vec![0; params.spines],
            bytes_carried: 0,
            wire_bytes_carried: 0,
            transfers: 0,
            scratch_wire: vec![0; params.spines],
            trace: Trace::off(),
        })
    }

    /// The rack endpoint `e` lives in (panics if out of range).
    pub fn rack_of(&self, e: usize) -> usize {
        self.nics[e].rack
    }

    /// Number of spines still carrying traffic.
    fn live_spines(&self) -> usize {
        self.spine_live.iter().filter(|&&l| l).count()
    }

    /// Earliest instant the core the fabric's traffic crosses is free: the
    /// leaf of a one-rack fabric (every transfer there is rack-local and
    /// leaves the spine cold), otherwise the least-busy live spine. This is
    /// the adaptive planner's backlog signal and the hot-spine deferral's
    /// occupancy query.
    pub fn free_at(&self) -> Nanoseconds {
        if let [leaf] = self.leaf_free_at[..] {
            return leaf;
        }
        self.spine_free_at
            .iter()
            .zip(&self.spine_live)
            .filter(|&(_, &live)| live)
            .map(|(&t, _)| t)
            .min()
            .unwrap_or(Nanoseconds::ZERO)
    }

    /// Remove spine `spine` from service: its capacity is gone and the
    /// ECMP hash re-spreads over the survivors. The fabric degrades, it
    /// never partitions — failing the last live spine is an error.
    pub fn fail_spine(&mut self, spine: usize) -> Result<()> {
        match self.spine_live.get(spine) {
            None => Err(Error::Net(format!(
                "spine {spine} out of range: fabric has {} spines",
                self.spine_live.len()
            ))),
            Some(false) => Err(Error::Net(format!("spine {spine} is already failed"))),
            Some(true) if self.live_spines() == 1 => Err(Error::Net(
                "cannot fail the last live spine: the fabric would partition".into(),
            )),
            Some(true) => {
                self.spine_live[spine] = false;
                Ok(())
            }
        }
    }

    /// Total on-wire bytes carried (payload plus chunk framing).
    pub fn wire_bytes_carried(&self) -> u64 {
        self.wire_bytes_carried
    }

    /// Attach a trace: transfers emit spans on the `fabric` track plus
    /// per-spine wire-byte counters and a `fabric.stripe_speedup`
    /// histogram (percent; 200 = the striped burst finished twice as fast
    /// as one aggregate cross-rack stream would have).
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    fn check_pair(&self, from: usize, to: usize) -> Result<()> {
        if from == to {
            return Err(Error::Net(format!(
                "fabric transfer from endpoint {from} to itself"
            )));
        }
        if from >= self.nics.len() || to >= self.nics.len() {
            return Err(Error::Net(format!(
                "fabric endpoint out of range: {from} -> {to} with {} endpoints",
                self.nics.len()
            )));
        }
        Ok(())
    }

    /// The `slot`-th live spine (slot counted over live spines only).
    fn nth_live(&self, slot: usize) -> usize {
        let mut seen = 0;
        for (i, &live) in self.spine_live.iter().enumerate() {
            if live {
                if seen == slot {
                    return i;
                }
                seen += 1;
            }
        }
        // Unreachable while at least one spine is live and
        // slot < live_spines(); fall back to spine 0 defensively.
        0
    }

    /// The spine stream `stream` of pair `(from, to)` crosses right now.
    fn spine_for(&self, from: usize, to: usize, stream: usize) -> usize {
        let live = self.live_spines().max(1);
        let slot = ((pair_hash(from, to) as usize).wrapping_add(stream)) % live;
        self.nth_live(slot)
    }

    /// Whether two endpoints share a rack (out-of-range endpoints have none).
    fn same_rack(&self, from: usize, to: usize) -> bool {
        self.nics.get(from).map(|n| n.rack) == self.nics.get(to).map(|n| n.rack)
    }

    /// One-way propagation latency between two endpoints.
    pub fn latency(&self, from: usize, to: usize) -> Nanoseconds {
        if self.same_rack(from, to) {
            self.params.rack_latency
        } else {
            self.params.cross_latency
        }
    }

    /// Time for `payload` bytes to cross an idle path `from -> to` as one
    /// stream.
    pub fn transfer_time(&self, from: usize, to: usize, payload: u64) -> Nanoseconds {
        if self.same_rack(from, to) {
            self.params.local_transfer_time(payload)
        } else {
            self.params.cross_transfer_time(payload)
        }
    }

    /// Earliest instant a single-stream transfer between `from` and `to`
    /// could start: both NICs, both leaves and (cross-rack) the stream-0
    /// ECMP spine must be free. A multi-stream burst may start later if its
    /// other spines are busier — this is still a valid floor.
    pub fn path_free_at(&self, from: usize, to: usize) -> Result<Nanoseconds> {
        self.check_pair(from, to)?;
        let (rf, rt) = (self.nics[from].rack, self.nics[to].rack);
        let mut free = self.nics[from]
            .free_at
            .max(self.nics[to].free_at)
            .max(self.leaf_free_at[rf]);
        if rf != rt {
            free = free
                .max(self.leaf_free_at[rt])
                .max(self.spine_free_at[self.spine_for(from, to, 0)]);
        }
        Ok(free)
    }

    /// Move `payload` bytes from `from` to `to`, starting no earlier than
    /// `now`; returns the simulated arrival time. Exactly
    /// `transfer_striped(&[payload])`.
    pub fn transfer(
        &mut self,
        from: usize,
        to: usize,
        now: Nanoseconds,
        payload: u64,
    ) -> Result<Nanoseconds> {
        self.transfer_striped(from, to, now, &[payload])
    }

    /// Move a striped burst of parallel streams from `from` to `to`,
    /// starting no earlier than `now`; `stripes[i]` is stream `i`'s payload
    /// bytes. Returns the arrival time of the *whole* burst.
    ///
    /// Rack-local bursts share the NIC/leaf path exactly as the
    /// single-spine model shares its backbone — striping is never faster
    /// inside a rack. Cross-rack, each stream crosses the spine chosen by
    /// the deterministic ECMP hash; streams on different spines serialize
    /// concurrently, so a burst whose streams spread over `k` spines can
    /// finish up to `k` times sooner than one aggregate stream on an
    /// oversubscribed spine tier — the simulated-time payoff of
    /// `migration_streams` on a real topology. A one-stripe burst is a
    /// `transfer` span, a wider one a `transfer-striped` span.
    pub fn transfer_striped(
        &mut self,
        from: usize,
        to: usize,
        now: Nanoseconds,
        stripes: &[u64],
    ) -> Result<Nanoseconds> {
        self.check_pair(from, to)?;
        let (rf, rt) = (self.nics[from].rack, self.nics[to].rack);
        let mut payload_total = 0u64;
        let mut wire_total = 0u64;
        let mut active_streams = 0u64;
        for &payload in stripes {
            payload_total = payload_total.saturating_add(payload);
            wire_total = wire_total.saturating_add(self.params.wire_bytes(payload));
            if payload > 0 {
                active_streams += 1;
            }
        }

        let (start, busy_until, arrival) = if rf == rt {
            // Rack-local: NICs + the shared leaf, single fair-shared window.
            let start = now
                .max(self.nics[from].free_at)
                .max(self.nics[to].free_at)
                .max(self.leaf_free_at[rf]);
            let busy_until = start.saturating_add(serialization(
                wire_total,
                self.params.local_bytes_per_second(),
            ));
            self.nics[from].free_at = busy_until;
            self.nics[to].free_at = busy_until;
            self.leaf_free_at[rf] = busy_until;
            (
                start,
                busy_until,
                busy_until.saturating_add(self.params.rack_latency),
            )
        } else {
            // Cross-rack: group each stream's wire bytes onto its ECMP spine.
            self.scratch_wire.iter_mut().for_each(|w| *w = 0);
            for (i, &payload) in stripes.iter().enumerate() {
                if payload > 0 {
                    let g = self.spine_for(from, to, i);
                    self.scratch_wire[g] =
                        self.scratch_wire[g].saturating_add(self.params.wire_bytes(payload));
                }
            }
            // Empty bursts still pin a spine so the start instant (and the
            // busy marks they refresh) match the single-stream path.
            if active_streams == 0 {
                let g = self.spine_for(from, to, 0);
                self.scratch_wire[g] = 0;
            }
            let mut start = now
                .max(self.nics[from].free_at)
                .max(self.nics[to].free_at)
                .max(self.leaf_free_at[rf])
                .max(self.leaf_free_at[rt]);
            let touched_zero = active_streams == 0;
            for (g, &w) in self.scratch_wire.iter().enumerate() {
                if w > 0 || (touched_zero && g == self.spine_for(from, to, 0)) {
                    start = start.max(self.spine_free_at[g]);
                }
            }
            // Shared-path window (NICs and leaves serialize every byte) vs
            // the slowest spine's window; the burst ends at the later one.
            let shared = serialization(wire_total, self.params.local_bytes_per_second());
            let mut slowest_spine = Nanoseconds::ZERO;
            for &w in &self.scratch_wire {
                if w > 0 {
                    slowest_spine =
                        slowest_spine.max(serialization(w, self.params.spine_bytes_per_second));
                }
            }
            let busy_until = start.saturating_add(shared.max(slowest_spine));
            self.nics[from].free_at = busy_until;
            self.nics[to].free_at = busy_until;
            self.leaf_free_at[rf] = busy_until;
            self.leaf_free_at[rt] = busy_until;
            for g in 0..self.scratch_wire.len() {
                let w = self.scratch_wire[g];
                if w > 0 || (touched_zero && g == self.spine_for(from, to, 0)) {
                    self.spine_free_at[g] = busy_until;
                }
                self.spine_wire_bytes[g] = self.spine_wire_bytes[g].saturating_add(w);
            }
            (
                start,
                busy_until,
                busy_until.saturating_add(self.params.cross_latency),
            )
        };

        self.nics[from].bytes_sent += payload_total;
        self.nics[to].bytes_received += payload_total;
        self.bytes_carried = self.bytes_carried.saturating_add(payload_total);
        self.wire_bytes_carried = self.wire_bytes_carried.saturating_add(wire_total);
        self.transfers += active_streams.max(1);

        if self.trace.is_on() {
            self.emit_burst_trace(
                if stripes.len() == 1 {
                    "transfer"
                } else {
                    "transfer-striped"
                },
                from,
                to,
                now,
                start,
                busy_until,
                arrival,
                payload_total,
                wire_total,
                active_streams.max(1),
                rf != rt,
            );
        }
        Ok(arrival)
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_burst_trace(
        &self,
        name: &'static str,
        from: usize,
        to: usize,
        now: Nanoseconds,
        start: Nanoseconds,
        busy_until: Nanoseconds,
        arrival: Nanoseconds,
        payload: u64,
        wire: u64,
        streams: u64,
        cross_rack: bool,
    ) {
        let queue_wait = start.saturating_sub(now);
        let serialization_ns = busy_until.saturating_sub(start);
        self.trace.span(
            "fabric",
            name,
            now,
            arrival,
            &[
                ("from", ArgValue::U64(from as u64)),
                ("to", ArgValue::U64(to as u64)),
                ("payload", ArgValue::U64(payload)),
                ("wire", ArgValue::U64(wire)),
                ("streams", ArgValue::U64(streams)),
                ("cross_rack", ArgValue::U64(cross_rack as u64)),
                ("queue_wait_ns", ArgValue::U64(queue_wait.as_nanos())),
                (
                    "serialization_ns",
                    ArgValue::U64(serialization_ns.as_nanos()),
                ),
            ],
        );
        self.trace
            .observe("fabric.queue_wait_ns", queue_wait.as_nanos());
        self.trace
            .observe("fabric.serialization_ns", serialization_ns.as_nanos());
        self.trace.add("fabric.transfers", 1);
        self.trace.add("fabric.payload_bytes", payload);
        self.trace.add("fabric.wire_bytes", wire);
        if cross_rack {
            for (g, &w) in self.scratch_wire.iter().enumerate() {
                if w > 0 {
                    self.trace
                        .add(SPINE_COUNTER_NAMES[g.min(SPINE_COUNTER_NAMES.len() - 1)], w);
                }
            }
            // Stripe speedup: how much sooner this burst serialized than
            // one aggregate stream through a single spine would have
            // (percent; 100 = parity, 200 = twice as fast).
            if wire > 0 && serialization_ns.as_nanos() > 0 {
                let single = serialization(wire, self.params.cross_bytes_per_second());
                self.trace.observe(
                    "fabric.stripe_speedup",
                    single.as_nanos().saturating_mul(100) / serialization_ns.as_nanos(),
                );
            }
        }
        self.trace
            .counter("fabric", "bytes_carried", arrival, self.bytes_carried);
        self.trace.counter(
            "fabric",
            "wire_bytes_carried",
            arrival,
            self.wire_bytes_carried,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FabricParams;
    use proptest::prelude::*;

    impl ClosFabric {
        /// The fabric's parameters.
        pub(crate) fn params(&self) -> ClosParams {
            self.params
        }

        /// Number of endpoints.
        pub(crate) fn endpoints(&self) -> usize {
            self.nics.len()
        }

        /// Number of racks.
        pub(crate) fn racks(&self) -> usize {
            self.params.racks
        }

        /// Number of spines the fabric was built with (live or failed).
        pub(crate) fn spines(&self) -> usize {
            self.spine_live.len()
        }

        /// Number of transfers performed (a striped burst counts each active
        /// stream).
        pub(crate) fn transfers(&self) -> u64 {
            self.transfers
        }

        /// Reset all busy-time marks and counters; failed spines come back to
        /// life (between benchmark runs).
        pub(crate) fn reset(&mut self) {
            for nic in &mut self.nics {
                *nic = Mark {
                    rack: nic.rack,
                    ..Mark::default()
                };
            }
            self.leaf_free_at
                .iter_mut()
                .for_each(|t| *t = Nanoseconds::ZERO);
            self.spine_free_at
                .iter_mut()
                .for_each(|t| *t = Nanoseconds::ZERO);
            self.spine_live.iter_mut().for_each(|l| *l = true);
            self.spine_wire_bytes.iter_mut().for_each(|w| *w = 0);
            self.bytes_carried = 0;
            self.wire_bytes_carried = 0;
            self.transfers = 0;
        }

        /// Busy-until mark of spine `spine`, or `None` if failed/out of range.
        fn spine_free_at(&self, spine: usize) -> Option<Nanoseconds> {
            (self.spine_live.get(spine) == Some(&true)).then(|| self.spine_free_at[spine])
        }

        /// Wire bytes carried by spine `spine` so far (0 if out of range).
        fn spine_wire_bytes(&self, spine: usize) -> u64 {
            self.spine_wire_bytes.get(spine).copied().unwrap_or(0)
        }

        /// Total payload bytes carried.
        pub(crate) fn bytes_carried(&self) -> u64 {
            self.bytes_carried
        }

        /// Payload bytes sent by endpoint `i`.
        pub(crate) fn bytes_sent_by(&self, i: usize) -> u64 {
            self.nics.get(i).map_or(0, |n| n.bytes_sent)
        }

        /// Payload bytes received by endpoint `i`.
        pub(crate) fn bytes_received_by(&self, i: usize) -> u64 {
            self.nics.get(i).map_or(0, |n| n.bytes_received)
        }
    }

    const MB: u64 = 1_000_000;

    fn dc(racks: usize, hosts: usize) -> ClosFabric {
        ClosFabric::new(racks * hosts, ClosParams::datacenter(racks, hosts)).unwrap()
    }

    #[test]
    fn params_validation_rejects_degenerate_values() {
        assert!(ClosParams::datacenter(4, 8).validate().is_ok());
        for tweak in [
            |p: &mut ClosParams| p.racks = 0,
            |p: &mut ClosParams| p.hosts_per_rack = 0,
            |p: &mut ClosParams| p.spines = 0,
            |p: &mut ClosParams| p.nic_bytes_per_second = 0,
            |p: &mut ClosParams| p.leaf_uplink_bytes_per_second = 0,
            |p: &mut ClosParams| p.spine_bytes_per_second = 0,
            |p: &mut ClosParams| p.mtu = 0,
            |p: &mut ClosParams| p.chunk_overhead = p.mtu,
        ] {
            let mut p = ClosParams::datacenter(4, 8);
            tweak(&mut p);
            assert!(p.validate().is_err());
        }
        // Too many endpoints for the rack plan, too few endpoints, bad rack.
        assert!(ClosFabric::new(33, ClosParams::datacenter(4, 8)).is_err());
        assert!(ClosFabric::new(1, ClosParams::datacenter(4, 8)).is_err());
        assert!(
            ClosFabric::with_rack_assignment(ClosParams::datacenter(2, 2), vec![0, 2]).is_err()
        );
    }

    #[test]
    fn rack_assignment_is_contiguous_by_default() {
        let f = dc(3, 4);
        assert_eq!(f.endpoints(), 12);
        assert_eq!(f.racks(), 3);
        assert_eq!(f.rack_of(0), 0);
        assert_eq!(f.rack_of(3), 0);
        assert_eq!(f.rack_of(4), 1);
        assert_eq!(f.rack_of(11), 2);
        let g =
            ClosFabric::with_rack_assignment(ClosParams::datacenter(3, 4), vec![2, 0, 1]).unwrap();
        assert_eq!(g.rack_of(0), 2);
        assert_eq!(g.rack_of(2), 1);
    }

    #[test]
    fn four_streams_cross_rack_beat_one_stream_with_multiple_spines() {
        // The ISSUE 8 acceptance criterion, at the fabric level: on a
        // >= 2-spine Clos, a 4-stream cross-rack burst completes strictly
        // earlier in simulated time than the same bytes as one stream.
        let total = 64 * MB;
        let mut one = dc(4, 8);
        let mut four = dc(4, 8);
        let single = one
            .transfer_striped(0, 8, Nanoseconds::ZERO, &[total])
            .unwrap();
        let split = [total / 4, total / 4, total / 4, total - 3 * (total / 4)];
        let striped = four
            .transfer_striped(0, 8, Nanoseconds::ZERO, &split)
            .unwrap();
        assert!(
            striped < single,
            "4 ECMP-spread streams must beat 1 spine-bound stream: {striped:?} vs {single:?}"
        );
        // The datacenter preset is NIC-bound at >= 2 streams and
        // spine-bound at 1: the win is the full 2x (modulo framing).
        let gain = single.as_nanos() as f64 / striped.as_nanos() as f64;
        assert!(gain > 1.9, "expected ~2x, got {gain}");
        // Same payload either way.
        assert_eq!(one.bytes_carried(), four.bytes_carried());
        assert_eq!(four.transfers(), 4);
    }

    #[test]
    fn rack_local_striping_is_invariant() {
        // Inside a rack there is no spine to spread over: striping pays
        // framing and shares the leaf, exactly like the single-spine model.
        let total = 16 * MB;
        let mut one = dc(4, 8);
        let mut four = dc(4, 8);
        let single = one
            .transfer_striped(0, 1, Nanoseconds::ZERO, &[total])
            .unwrap();
        let split = [total / 4; 4];
        let striped = four
            .transfer_striped(0, 1, Nanoseconds::ZERO, &split)
            .unwrap();
        assert!(striped >= single, "rack-local striping must never win");
        // Rack-local traffic on a multi-rack fabric leaves every spine cold.
        assert_eq!(one.free_at(), Nanoseconds::ZERO);
    }

    #[test]
    fn ecmp_spreads_streams_over_all_spines() {
        let mut f = dc(4, 8);
        f.transfer_striped(0, 8, Nanoseconds::ZERO, &[MB, MB, MB, MB])
            .unwrap();
        for s in 0..4 {
            assert!(
                f.spine_wire_bytes(s) > 0,
                "round-robin-from-offset must touch every spine"
            );
        }
    }

    #[test]
    fn spine_failure_degrades_but_never_partitions() {
        let mut f = dc(4, 8);
        let healthy = f
            .clone()
            .transfer_striped(0, 8, Nanoseconds::ZERO, &[16 * MB; 4])
            .unwrap();
        f.fail_spine(1).unwrap();
        assert_eq!(f.live_spines(), 3);
        assert!(f.spine_free_at(1).is_none());
        assert!(f.fail_spine(1).is_err(), "double failure is an error");
        assert!(f.fail_spine(9).is_err(), "out of range");
        // One spine down: the hot spine now carries 2 of 4 streams, which on
        // the datacenter preset exactly matches the shared NIC window — the
        // burst must not get *faster*, and usually gets slower.
        let degraded = f
            .clone()
            .transfer_striped(0, 8, Nanoseconds::ZERO, &[16 * MB; 4])
            .unwrap();
        assert!(degraded >= healthy);
        // Traffic still flows, and the last spine is protected.
        f.fail_spine(0).unwrap();
        f.fail_spine(2).unwrap();
        assert!(f.fail_spine(3).is_err(), "last live spine must survive");
        assert_eq!(f.live_spines(), 1);
        // All four streams now squeeze through the one surviving spine:
        // strictly slower than the healthy ECMP spread.
        let one_spine = f
            .clone()
            .transfer_striped(0, 8, Nanoseconds::ZERO, &[16 * MB; 4])
            .unwrap();
        assert!(
            one_spine > healthy,
            "one surviving spine must slow a 4-stream burst: {one_spine:?} vs {healthy:?}"
        );
        assert!(f.transfer(0, 8, Nanoseconds::ZERO, MB).is_ok());
        // Reset revives failed spines.
        f.reset();
        assert_eq!(f.live_spines(), 4);
        assert_eq!(f.bytes_carried(), 0);
    }

    #[test]
    fn path_free_at_matches_single_stream_start() {
        let mut f = dc(4, 8);
        // Occupy the pair's stream-0 spine with other-rack traffic.
        f.transfer(16, 24, Nanoseconds::ZERO, 8 * MB).unwrap();
        let free = f.path_free_at(0, 8).unwrap();
        let idle_time = f.transfer_time(0, 8, MB);
        let arrival = f.transfer(0, 8, Nanoseconds::ZERO, MB).unwrap();
        assert_eq!(arrival, free.saturating_add(idle_time));
    }

    #[test]
    fn one_stripe_is_a_transfer_from_either_entry_point() {
        // Rack-local and cross-rack, on a fabric already carrying traffic.
        for to in [1, 8] {
            let run = |striped: bool| {
                let mut f = dc(4, 8);
                f.transfer(16, 24, Nanoseconds::ZERO, 8 * MB).unwrap();
                let (trace, recorder) = Trace::recording();
                f.set_trace(trace);
                let arrivals = [MB, 0, 3 * MB + 7].map(|p| {
                    if striped {
                        f.transfer_striped(0, to, Nanoseconds::ZERO, &[p]).unwrap()
                    } else {
                        f.transfer(0, to, Nanoseconds::ZERO, p).unwrap()
                    }
                });
                let counters = (
                    f.transfers(),
                    f.bytes_carried(),
                    f.wire_bytes_carried(),
                    (0..4).map(|s| f.spine_wire_bytes(s)).collect::<Vec<_>>(),
                );
                let recorder = recorder.borrow();
                let recorded = (recorder.events().to_vec(), recorder.metrics().clone());
                (arrivals, counters, recorded)
            };
            let (plain, striped) = (run(false), run(true));
            assert_eq!(plain.0, striped.0, "to {to}: arrivals");
            assert_eq!(plain.1, striped.1, "to {to}: counters");
            assert!(plain.2 == striped.2, "to {to}: recorded trace");
            assert!(plain.2 .0.iter().any(|e| e.name == "transfer"));
        }
    }

    /// The closed-form single-spine model the one-rack preset must
    /// reproduce: `start = max(now, nic[from], nic[to], backbone)`,
    /// `busy = start + ser(Σ per-stream wire)`, `arrival = busy + latency`.
    struct Oracle {
        p: FabricParams,
        nic: Vec<Nanoseconds>,
        backbone: Nanoseconds,
        sent: Vec<u64>,
        received: Vec<u64>,
        transfers: u64,
    }

    impl Oracle {
        fn new(p: FabricParams, endpoints: usize) -> Self {
            Oracle {
                p,
                nic: vec![Nanoseconds::ZERO; endpoints],
                backbone: Nanoseconds::ZERO,
                sent: vec![0; endpoints],
                received: vec![0; endpoints],
                transfers: 0,
            }
        }

        fn wire(&self, payload: u64) -> u64 {
            payload + payload.div_ceil(self.p.mtu) * self.p.chunk_overhead
        }

        fn ser(&self, wire: u64) -> Nanoseconds {
            let rate = self
                .p
                .nic_bytes_per_second
                .min(self.p.backbone_bytes_per_second);
            Nanoseconds((wire as u128 * 1_000_000_000 / rate as u128) as u64)
        }

        fn transfer_time(&self, payload: u64) -> Nanoseconds {
            self.p.latency + self.ser(self.wire(payload))
        }

        fn path_free_at(&self, from: usize, to: usize) -> Nanoseconds {
            self.nic[from].max(self.nic[to]).max(self.backbone)
        }

        fn burst(
            &mut self,
            from: usize,
            to: usize,
            now: Nanoseconds,
            stripes: &[u64],
        ) -> Nanoseconds {
            let start = now.max(self.path_free_at(from, to));
            let busy = start + self.ser(stripes.iter().map(|&s| self.wire(s)).sum());
            (self.nic[from], self.nic[to], self.backbone) = (busy, busy, busy);
            self.sent[from] += stripes.iter().sum::<u64>();
            self.received[to] += stripes.iter().sum::<u64>();
            self.transfers += stripes.iter().filter(|&&s| s > 0).count().max(1) as u64;
            busy + self.p.latency
        }
    }

    #[test]
    fn single_spine_fabric_implements_the_model() {
        let p = FabricParams::datacenter();
        let mut f = ClosFabric::new(4, p).unwrap();
        assert_eq!((f.racks(), f.spines(), f.live_spines()), (1, 1, 1));
        assert_eq!(f.rack_of(3), 0);
        assert_eq!(f.spine_free_at(1), None);
        assert!(f.fail_spine(0).is_err());
        assert_eq!(f.latency(0, 1), p.latency);
        let t = f.transfer(0, 1, Nanoseconds::ZERO, MB).unwrap();
        // The backlog the planner reads is the backbone's (the leaf's),
        // not the spine's, which no one-rack transfer crosses.
        assert_eq!(f.free_at(), t.saturating_sub(p.latency));
        assert_eq!(f.spine_free_at(0), Some(Nanoseconds::ZERO));
    }

    proptest! {
        /// The ISSUE 8 equivalence pin, now against the closed-form oracle:
        /// the one-rack preset built from any valid `FabricParams` matches
        /// the single-spine model's arrivals, path and core marks, latency,
        /// idle transfer time, per-endpoint and total counters across random
        /// payload sequences, stream splits and start instants, and refuses
        /// to fail its only spine.
        #[test]
        fn one_rack_one_spine_clos_equals_single_spine_fabric(
            nic in 1_000u64..10_000_000_000,
            backbone in 1_000u64..10_000_000_000,
            latency_ns in 0u64..10_000_000,
            endpoints in 2usize..6,
            bursts in proptest::collection::vec(
                (
                    0usize..6, 0usize..6,            // from/to (mod endpoints, skip equal)
                    0u64..50_000_000,                 // start instant
                    proptest::collection::vec(0u64..10_000_000, 1..5), // stripes
                ),
                1..12,
            ),
        ) {
            let fp = FabricParams {
                nic_bytes_per_second: nic,
                backbone_bytes_per_second: backbone,
                latency: Nanoseconds(latency_ns),
                mtu: 1500,
                chunk_overhead: 90,
            };
            let mut oracle = Oracle::new(fp, endpoints);
            let mut clos = ClosFabric::new(endpoints, fp).unwrap();
            prop_assert!(clos.fail_spine(0).is_err());
            let mut wire = 0;
            for (from, to, start, stripes) in &bursts {
                let (from, to) = (from % endpoints, to % endpoints);
                if from == to {
                    continue;
                }
                let now = Nanoseconds(*start);
                let a = oracle.burst(from, to, now, stripes);
                wire += stripes.iter().map(|&s| oracle.wire(s)).sum::<u64>();
                let b = clos.transfer_striped(from, to, now, stripes).unwrap();
                prop_assert_eq!(a, b);
                prop_assert_eq!(oracle.path_free_at(from, to), clos.path_free_at(from, to).unwrap());
                prop_assert_eq!(oracle.backbone, clos.free_at());
                prop_assert_eq!(fp.latency, clos.latency(from, to));
                prop_assert_eq!(oracle.transfer_time(stripes[0]), clos.transfer_time(from, to, stripes[0]));
            }
            for e in 0..endpoints {
                prop_assert_eq!(oracle.sent[e], clos.bytes_sent_by(e));
                prop_assert_eq!(oracle.received[e], clos.bytes_received_by(e));
            }
            prop_assert_eq!(oracle.sent.iter().sum::<u64>(), clos.bytes_carried());
            prop_assert_eq!(wire, clos.wire_bytes_carried());
            prop_assert_eq!(oracle.transfers, clos.transfers());
        }

        /// Clos arrival times are monotone per pair and deterministic.
        #[test]
        fn clos_transfers_are_monotonic_and_deterministic(
            sizes in proptest::collection::vec(0u64..10_000_000, 1..16)
        ) {
            let run = || {
                let mut f = dc(4, 8);
                let mut times = Vec::new();
                for &s in &sizes {
                    times.push(f.transfer(0, 8, Nanoseconds::ZERO, s).unwrap());
                }
                times
            };
            let first = run();
            for w in first.windows(2) {
                prop_assert!(w[1] >= w[0]);
            }
            prop_assert_eq!(&first, &run());
        }

        /// Disjoint cross-rack pairs on disjoint spines genuinely overlap:
        /// neither pair's arrival depends on whether the other pair also
        /// transferred, as long as they hash to different spines.
        #[test]
        fn striping_never_loses_to_the_aggregate_cross_rack(
            total in 1u64..100_000_000, n in 1usize..8
        ) {
            let mut one = dc(4, 8);
            let mut many = dc(4, 8);
            let single = one.transfer_striped(0, 8, Nanoseconds::ZERO, &[total]).unwrap();
            let per = total / n as u64;
            let mut split = vec![per; n];
            split[0] = total - per * (n as u64 - 1);
            let striped = many.transfer_striped(0, 8, Nanoseconds::ZERO, &split).unwrap();
            // The shared NIC/leaf window plus per-stream framing bounds the
            // win; the spine spread bounds the loss. Striping cross-rack
            // can tie or win but must never lose by more than the framing
            // of the extra streams.
            let framing_slack = serialization(
                (n as u64) * one.params().chunk_overhead * 2,
                one.params().cross_bytes_per_second(),
            );
            prop_assert!(striped <= single.saturating_add(framing_slack));
        }
    }
}
