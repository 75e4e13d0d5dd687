//! # rvisor-devices
//!
//! The basic platform devices every VM gets: a serial console, a real-time
//! clock and a countdown timer.
//!
//! Each VM owns one of each as a plain field. When a vCPU exit reports an
//! MMIO or port access, the VM matches the address against its fixed
//! device windows (`rvisor::layout`) and calls the owning device's `read`
//! or `write` with the offset into its window; nothing else ever touches
//! the device, so no device is shared or locked. The VM also owns the
//! simulated time and passes `now` to the devices that read it. No device
//! delivers interrupts: each keeps the event a guest would be interrupted
//! for in a status register it reads (the serial line status, the timer's
//! expiration count).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod rtc;
pub mod serial;
pub mod timer;

pub use rtc::Rtc;
pub use serial::SerialConsole;
pub use timer::CountdownTimer;
