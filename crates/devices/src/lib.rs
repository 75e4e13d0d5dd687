//! # rvisor-devices
//!
//! Device-model infrastructure: the MMIO and port-I/O buses the VMM uses to
//! dispatch guest I/O exits, and the basic platform devices every VM gets
//! (serial console, real-time clock, countdown timer).
//!
//! Device models implement [`MmioDevice`] and/or [`PortDevice`] and are
//! registered on a [`MmioBus`] / [`PortBus`]. When a vCPU exit reports an
//! MMIO or port access, the VMM forwards it to the bus, which routes it to
//! the owning device. No device delivers interrupts: each keeps the event a
//! guest would be interrupted for in a status register it reads (the
//! serial line status, the timer's expiration count).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bus;
pub mod rtc;
pub mod serial;
pub mod timer;

pub use bus::{MmioBus, MmioDevice, PortBus, PortDevice};
pub use rtc::Rtc;
pub use serial::SerialConsole;
pub use timer::CountdownTimer;
