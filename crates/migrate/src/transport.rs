//! Transports: the simulated channel a migration's wire bytes cross.
//!
//! [`Transport`] has two halves.
//!
//! * **The channel model** — [`Transport::free_at`],
//!   [`Transport::transmit_bytes`], [`Transport::transmit_striped`],
//!   [`Transport::latency`], [`Transport::transfer_time`] and
//!   [`Transport::bytes_sent`] — is what every engine uses. A round is one
//!   *simulated* transfer: each stripe lane streams its frames to the sink
//!   itself, in cache-sized segments through one reused buffer, and the
//!   round's per-stripe bytes are charged with a single `transmit_striped`;
//!   the Hello and the vCPU state are one `transmit_bytes` each. The
//!   transport times and counts bytes; it does not carry them.
//! * **The burst carrier** — [`Transport::send`], [`Transport::send_built`],
//!   [`Transport::deliver`] and [`Transport::recycle`] — accumulates frames
//!   into one in-flight burst and hands it out whole. No engine calls it:
//!   it is kept for code that drives the two halves of a stream from outside
//!   one whole round at a time (the repository benchmark's harness loop),
//!   through
//!   [`MigrationSource::encode_round`](crate::MigrationSource::encode_round),
//!   `send_hello` and `send_vcpu_states`, which are its only callers in this
//!   crate. A `deliver` of `n` bytes times and counts exactly like
//!   `transmit_bytes(now, n)` (pinned by test).
//!
//! Two implementations ship:
//!
//! * [`LoopbackTransport`] — timed by a single point-to-point [`Link`];
//!   byte-for-byte and nanosecond-for-nanosecond what the tests' direct
//!   accounting oracle charges (pinned by proptest).
//! * [`FabricTransport`] — timed by a shared [`ClosFabric`]: per-host NIC
//!   serialization, leaf and spine contention with every other migration
//!   and DR stream, and MTU chunk framing, so migration duration and
//!   downtime come from modelled bytes-on-wire.

use rvisor_net::{ClosFabric, Link};
use rvisor_types::{Nanoseconds, Result};

/// A simulated byte-stream channel between a migration source and sink.
pub trait Transport {
    /// Earliest simulated instant a new burst could start transmitting.
    fn free_at(&self) -> Nanoseconds;

    /// Append one encoded frame to the in-flight burst.
    fn send(&mut self, frame: &[u8]) -> Result<()>;

    /// Append one frame by encoding it directly into the transport's burst
    /// buffer. This is the zero-bounce path for page frames: the encoder's
    /// `fill` writes the frame (header + payload) straight into the burst,
    /// so raw page bytes go guest memory → burst with a single copy.
    fn send_built(&mut self, build: &mut dyn FnMut(&mut Vec<u8>)) -> Result<()>;

    /// Transmit the accumulated burst starting no earlier than `now`.
    /// Returns the simulated arrival time and the delivered bytes; the
    /// caller hands the buffer back via [`Transport::recycle`] once the
    /// sink has applied it.
    fn deliver(&mut self, now: Nanoseconds) -> Result<(Nanoseconds, Vec<u8>)>;

    /// Account and time a burst of `bytes` crossing the channel starting no
    /// earlier than `now`, *without* routing the bytes through the internal
    /// burst buffer. Busy-time marks and the [`Transport::bytes_sent`]
    /// counter advance exactly as a [`Transport::deliver`] of the same size
    /// would. The engines charge their control bursts (Hello, vCPU state)
    /// with it; rounds go through [`Transport::transmit_striped`].
    fn transmit_bytes(&mut self, now: Nanoseconds, bytes: u64) -> Result<Nanoseconds>;

    /// Like [`Transport::transmit_bytes`], but as parallel streams fairly
    /// sharing the channel: `stripes[i]` is stream `i`'s payload bytes.
    ///
    /// On a point-to-point [`LoopbackTransport`] fair sharing of one pipe
    /// completes the aggregate exactly when a single stream would, so this
    /// is `transmit_bytes` of the sum — which is what keeps a multi-stream
    /// loopback migration `==`-report-equal to a one-stream one. On a
    /// [`FabricTransport`] each stream pays its own MTU chunk framing
    /// ([`ClosFabric::transfer_striped`]).
    fn transmit_striped(&mut self, now: Nanoseconds, stripes: &[u64]) -> Result<Nanoseconds> {
        self.transmit_bytes(now, stripes.iter().sum())
    }

    /// Return a delivered burst buffer for reuse by the next round.
    fn recycle(&mut self, buf: Vec<u8>);

    /// One-way propagation latency of the underlying channel (drives the
    /// post-copy demand-fault penalty).
    fn latency(&self) -> Nanoseconds;

    /// Modelled time for `bytes` to cross the idle channel (drives the
    /// post-copy per-fault service time).
    fn transfer_time(&self, bytes: u64) -> Nanoseconds;

    /// Total bytes charged to the channel so far, by
    /// [`Transport::transmit_bytes`], [`Transport::transmit_striped`] and
    /// [`Transport::deliver`] alike.
    fn bytes_sent(&self) -> u64;
}

/// The burst/spare buffer pair every transport implementation shares: one
/// recycling protocol, written once. Frames accumulate in `burst`; on
/// delivery the burst is handed out whole and the previously recycled
/// buffer takes its place, so steady-state rounds allocate nothing.
#[derive(Debug, Default)]
struct BurstBuffer {
    burst: Vec<u8>,
    spare: Vec<u8>,
    bytes_sent: u64,
}

impl BurstBuffer {
    fn append(&mut self, frame: &[u8]) {
        self.burst.extend_from_slice(frame);
    }

    fn build(&mut self, build: &mut dyn FnMut(&mut Vec<u8>)) {
        build(&mut self.burst);
    }

    fn len(&self) -> u64 {
        self.burst.len() as u64
    }

    /// Hand the burst out for delivery, installing the recycled spare as
    /// the next round's (empty) burst.
    fn take(&mut self) -> Vec<u8> {
        self.bytes_sent += self.burst.len() as u64;
        std::mem::replace(&mut self.burst, std::mem::take(&mut self.spare))
    }

    fn recycle(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        self.spare = buf;
    }
}

/// In-process delivery timed by one point-to-point [`Link`].
///
/// Borrows the link mutably so the caller's link keeps its busy-time
/// account across migrations (back-to-back transfers queue).
#[derive(Debug)]
pub struct LoopbackTransport<'l> {
    link: &'l mut Link,
    buf: BurstBuffer,
}

impl<'l> LoopbackTransport<'l> {
    /// Create a loopback transport over `link`.
    pub fn new(link: &'l mut Link) -> Self {
        LoopbackTransport {
            link,
            buf: BurstBuffer::default(),
        }
    }
}

impl Transport for LoopbackTransport<'_> {
    fn free_at(&self) -> Nanoseconds {
        self.link.free_at()
    }

    fn send(&mut self, frame: &[u8]) -> Result<()> {
        self.buf.append(frame);
        Ok(())
    }

    fn send_built(&mut self, build: &mut dyn FnMut(&mut Vec<u8>)) -> Result<()> {
        self.buf.build(build);
        Ok(())
    }

    fn deliver(&mut self, now: Nanoseconds) -> Result<(Nanoseconds, Vec<u8>)> {
        let done = self.link.transmit(now, self.buf.len());
        Ok((done, self.buf.take()))
    }

    fn transmit_bytes(&mut self, now: Nanoseconds, bytes: u64) -> Result<Nanoseconds> {
        self.buf.bytes_sent += bytes;
        Ok(self.link.transmit(now, bytes))
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        self.buf.recycle(buf);
    }

    fn latency(&self) -> Nanoseconds {
        self.link.model().latency
    }

    fn transfer_time(&self, bytes: u64) -> Nanoseconds {
        self.link.model().transfer_time(bytes)
    }

    fn bytes_sent(&self) -> u64 {
        self.buf.bytes_sent
    }
}

/// Delivery across a shared [`ClosFabric`], between two endpoint indices —
/// a multi-rack leaf/spine fabric or its one-rack single-spine preset alike.
///
/// Borrows the fabric mutably: the busy-time marks the migration leaves on
/// its NICs, leaves and spines are visible to every later transfer, which is
/// how rebalance storms and DR backup traffic contend with each other.
#[derive(Debug)]
pub struct FabricTransport<'f> {
    fabric: &'f mut ClosFabric,
    from: usize,
    to: usize,
    /// Earliest simulated instant any burst of this stream may start.
    /// Callers embedded in a larger simulation (the orchestrator) set this
    /// to their current clock so a migration started at `t` cannot occupy
    /// the fabric in the past — which is what makes it contend with backup
    /// streams issued at the same instant.
    start_floor: Nanoseconds,
    buf: BurstBuffer,
}

impl<'f> FabricTransport<'f> {
    /// Create a transport carrying one migration from endpoint `from` to
    /// endpoint `to` of `fabric`.
    pub fn new(fabric: &'f mut ClosFabric, from: usize, to: usize) -> Result<Self> {
        Self::starting_at(fabric, from, to, Nanoseconds::ZERO)
    }

    /// Like [`FabricTransport::new`], but no burst starts before `floor`
    /// (the caller's current simulated time).
    pub fn starting_at(
        fabric: &'f mut ClosFabric,
        from: usize,
        to: usize,
        floor: Nanoseconds,
    ) -> Result<Self> {
        fabric.path_free_at(from, to)?; // validates the endpoint pair
        Ok(FabricTransport {
            fabric,
            from,
            to,
            start_floor: floor,
            buf: BurstBuffer::default(),
        })
    }
}

impl Transport for FabricTransport<'_> {
    fn free_at(&self) -> Nanoseconds {
        self.fabric
            .path_free_at(self.from, self.to)
            .expect("endpoints validated at construction")
            .max(self.start_floor)
    }

    fn send(&mut self, frame: &[u8]) -> Result<()> {
        self.buf.append(frame);
        Ok(())
    }

    fn send_built(&mut self, build: &mut dyn FnMut(&mut Vec<u8>)) -> Result<()> {
        self.buf.build(build);
        Ok(())
    }

    fn deliver(&mut self, now: Nanoseconds) -> Result<(Nanoseconds, Vec<u8>)> {
        let done = self.fabric.transfer(
            self.from,
            self.to,
            now.max(self.start_floor),
            self.buf.len(),
        )?;
        Ok((done, self.buf.take()))
    }

    fn transmit_bytes(&mut self, now: Nanoseconds, bytes: u64) -> Result<Nanoseconds> {
        self.buf.bytes_sent += bytes;
        self.fabric
            .transfer(self.from, self.to, now.max(self.start_floor), bytes)
    }

    fn transmit_striped(&mut self, now: Nanoseconds, stripes: &[u64]) -> Result<Nanoseconds> {
        self.buf.bytes_sent += stripes.iter().sum::<u64>();
        self.fabric
            .transfer_striped(self.from, self.to, now.max(self.start_floor), stripes)
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        self.buf.recycle(buf);
    }

    fn latency(&self) -> Nanoseconds {
        self.fabric.latency(self.from, self.to)
    }

    fn transfer_time(&self, bytes: u64) -> Nanoseconds {
        self.fabric.transfer_time(self.from, self.to, bytes)
    }

    fn bytes_sent(&self) -> u64 {
        self.buf.bytes_sent
    }
}

/// A transport that fails on demand, for the engines' failure-order tests.
#[cfg(test)]
pub(crate) mod refusing {
    use super::*;
    use rvisor_types::Error;

    /// A loopback that refuses the `fail_on`-th transfer charged to it
    /// (`transmit_bytes` or `transmit_striped`), as a transport whose
    /// endpoint failed mid-migration does; with `fail_on` 0 it refuses
    /// nothing and only counts.
    pub(crate) struct RefusingTransport<'l> {
        inner: LoopbackTransport<'l>,
        /// Transfers asked for so far, the refused one included.
        pub(crate) calls: u32,
        fail_on: u32,
    }

    impl<'l> RefusingTransport<'l> {
        pub(crate) fn new(link: &'l mut Link, fail_on: u32) -> Self {
            RefusingTransport {
                inner: LoopbackTransport::new(link),
                calls: 0,
                fail_on,
            }
        }
    }

    /// The error a refused transfer fails with.
    pub(crate) fn refusal() -> Error {
        Error::Migration("endpoint failed".into())
    }

    impl Transport for RefusingTransport<'_> {
        fn free_at(&self) -> Nanoseconds {
            self.inner.free_at()
        }
        fn send(&mut self, frame: &[u8]) -> Result<()> {
            self.inner.send(frame)
        }
        fn send_built(&mut self, build: &mut dyn FnMut(&mut Vec<u8>)) -> Result<()> {
            self.inner.send_built(build)
        }
        fn deliver(&mut self, now: Nanoseconds) -> Result<(Nanoseconds, Vec<u8>)> {
            self.inner.deliver(now)
        }
        fn transmit_bytes(&mut self, now: Nanoseconds, bytes: u64) -> Result<Nanoseconds> {
            self.calls += 1;
            if self.calls == self.fail_on {
                return Err(refusal());
            }
            self.inner.transmit_bytes(now, bytes)
        }
        fn recycle(&mut self, buf: Vec<u8>) {
            self.inner.recycle(buf)
        }
        fn latency(&self) -> Nanoseconds {
            self.inner.latency()
        }
        fn transfer_time(&self, bytes: u64) -> Nanoseconds {
            self.inner.transfer_time(bytes)
        }
        fn bytes_sent(&self) -> u64 {
            self.inner.bytes_sent()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvisor_net::{FabricParams, LinkModel};

    #[test]
    fn loopback_times_bursts_like_the_bare_link() {
        let mut reference = Link::new(LinkModel::gigabit());
        let expect = reference.transmit(Nanoseconds::ZERO, 1000);

        let mut link = Link::new(LinkModel::gigabit());
        let mut t = LoopbackTransport::new(&mut link);
        assert_eq!(t.free_at(), Nanoseconds::ZERO);
        t.send(&[0u8; 600]).unwrap();
        t.send(&[1u8; 400]).unwrap();
        let (done, buf) = t.deliver(Nanoseconds::ZERO).unwrap();
        assert_eq!(done, expect);
        assert_eq!(buf.len(), 1000);
        assert_eq!(&buf[..600], &[0u8; 600][..]);
        assert_eq!(t.bytes_sent(), 1000);
        t.recycle(buf);
        // The next burst reuses the recycled buffer and queues behind.
        t.send(&[2u8; 100]).unwrap();
        let (done2, buf2) = t.deliver(Nanoseconds::ZERO).unwrap();
        assert!(done2 > done);
        assert_eq!(buf2.len(), 100);
        assert_eq!(t.latency(), LinkModel::gigabit().latency);
        assert!(t.transfer_time(1 << 20) > t.latency());
    }

    #[test]
    fn fabric_transport_contends_with_other_traffic() {
        let mut fabric = ClosFabric::new(4, FabricParams::office_lan()).unwrap();
        // Another tenant's transfer keeps the backbone busy first.
        let other_done = fabric.transfer(2, 3, Nanoseconds::ZERO, 4 << 20).unwrap();

        let mut t = FabricTransport::new(&mut fabric, 0, 1).unwrap();
        assert!(t.free_at() >= other_done.saturating_sub(FabricParams::office_lan().latency));
        t.send(&[7u8; 4096]).unwrap();
        let (done, buf) = t.deliver(Nanoseconds::ZERO).unwrap();
        assert!(done > other_done, "must queue behind the busy backbone");
        assert_eq!(buf.len(), 4096);
        t.recycle(buf);
        assert_eq!(t.bytes_sent(), 4096);
        assert!(FabricTransport::new(&mut fabric, 1, 1).is_err());
    }

    #[test]
    fn transmit_bytes_times_and_counts_like_deliver() {
        // Loopback: transmit_bytes of n == deliver of an n-byte burst.
        let mut ref_link = Link::new(LinkModel::gigabit());
        let mut reference = LoopbackTransport::new(&mut ref_link);
        reference.send(&[0u8; 1234]).unwrap();
        let (ref_done, buf) = reference.deliver(Nanoseconds::ZERO).unwrap();
        reference.recycle(buf);

        let mut link = Link::new(LinkModel::gigabit());
        let mut t = LoopbackTransport::new(&mut link);
        let done = t.transmit_bytes(Nanoseconds::ZERO, 1234).unwrap();
        assert_eq!(done, ref_done);
        assert_eq!(t.bytes_sent(), reference.bytes_sent());
        // Striped on a point-to-point pipe is the aggregate.
        let striped = t.transmit_striped(Nanoseconds::ZERO, &[1000, 234]).unwrap();
        let serial = reference.transmit_bytes(Nanoseconds::ZERO, 1234).unwrap();
        assert_eq!(striped, serial);
        assert_eq!(t.bytes_sent(), reference.bytes_sent());

        // Over a fabric the floor applies and striping pays per-stream framing.
        let mut fabric = ClosFabric::new(2, FabricParams::office_lan()).unwrap();
        let floor = Nanoseconds::from_secs(1);
        let mut ft = FabricTransport::starting_at(&mut fabric, 0, 1, floor).unwrap();
        let one = ft.transmit_bytes(Nanoseconds::ZERO, 1_000_000).unwrap();
        assert!(one > floor);
        let striped = ft
            .transmit_striped(Nanoseconds::ZERO, &[500_000, 500_000])
            .unwrap();
        assert!(striped > one, "the striped burst queues behind the first");
        assert_eq!(ft.bytes_sent(), 2_000_000);
    }

    #[test]
    fn start_floor_keeps_streams_out_of_the_past() {
        let mut fabric = ClosFabric::new(2, FabricParams::office_lan()).unwrap();
        let floor = Nanoseconds::from_secs(100);
        let mut t = FabricTransport::starting_at(&mut fabric, 0, 1, floor).unwrap();
        // The fabric is idle since t=0, but this stream belongs to a caller
        // whose clock already reads 100 s.
        assert_eq!(t.free_at(), floor);
        t.send(&[0u8; 1000]).unwrap();
        let (done, buf) = t.deliver(Nanoseconds::ZERO).unwrap();
        assert!(
            done > floor,
            "the burst must not occupy the fabric before the floor"
        );
        t.recycle(buf);
        // The busy-marks it leaves behind gate later same-instant traffic.
        assert!(fabric.path_free_at(0, 1).unwrap() >= floor);
    }
}
