//! The paravirtual hypercall interface.
//!
//! Paravirtualized guests replace expensive trapping operations with explicit
//! calls into the hypervisor. rvisor's interface is intentionally tiny; it
//! exists so the paravirt execution mode has a realistic fast path and so
//! guests have a cheap console.

use rvisor_types::Nanoseconds;

/// Hypercall numbers understood by the VMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HypercallNr {
    /// No-op; returns its argument (used for latency measurement).
    Ping,
    /// Write the low byte of the argument to the serial console.
    ConsolePutChar,
    /// Return the current simulated time in nanoseconds.
    GetTime,
    /// Voluntarily yield the CPU for the rest of the slice.
    Yield,
    /// Report the guest's idle intent; argument is a hint in nanoseconds.
    Idle,
}

impl HypercallNr {
    /// Decode a hypercall number from the instruction's immediate.
    pub(crate) fn from_raw(nr: u16) -> Option<Self> {
        Some(match nr {
            0 => HypercallNr::Ping,
            1 => HypercallNr::ConsolePutChar,
            2 => HypercallNr::GetTime,
            3 => HypercallNr::Yield,
            4 => HypercallNr::Idle,
            _ => return None,
        })
    }

    /// The raw number the guest must use.
    pub fn raw(self) -> u16 {
        match self {
            HypercallNr::Ping => 0,
            HypercallNr::ConsolePutChar => 1,
            HypercallNr::GetTime => 2,
            HypercallNr::Yield => 3,
            HypercallNr::Idle => 4,
        }
    }
}

/// The result the VMM produces for a handled hypercall.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HypercallResult {
    /// Value placed in the guest's result register.
    pub(crate) return_value: u64,
    /// Whether the vCPU should stop its slice (yield/idle).
    pub(crate) end_slice: bool,
}

/// Handle a hypercall that does not need device access.
///
/// Console output is handled by the VM itself (it owns the serial device);
/// this helper covers the pure ones and is shared by the VM and tests.
pub(crate) fn handle_pure(nr: HypercallNr, arg: u64, now: Nanoseconds) -> HypercallResult {
    match nr {
        HypercallNr::Ping => HypercallResult {
            return_value: arg,
            end_slice: false,
        },
        HypercallNr::GetTime => HypercallResult {
            return_value: now.as_nanos(),
            end_slice: false,
        },
        HypercallNr::Yield => HypercallResult {
            return_value: 0,
            end_slice: true,
        },
        HypercallNr::Idle => HypercallResult {
            return_value: 0,
            end_slice: true,
        },
        HypercallNr::ConsolePutChar => HypercallResult {
            return_value: 0,
            end_slice: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_roundtrip() {
        for nr in [
            HypercallNr::Ping,
            HypercallNr::ConsolePutChar,
            HypercallNr::GetTime,
            HypercallNr::Yield,
            HypercallNr::Idle,
        ] {
            assert_eq!(HypercallNr::from_raw(nr.raw()), Some(nr));
        }
        assert_eq!(HypercallNr::from_raw(999), None);
    }

    #[test]
    fn pure_handlers() {
        let now = Nanoseconds::from_millis(5);
        assert_eq!(handle_pure(HypercallNr::Ping, 42, now).return_value, 42);
        assert_eq!(
            handle_pure(HypercallNr::GetTime, 0, now).return_value,
            5_000_000
        );
        assert!(handle_pure(HypercallNr::Yield, 0, now).end_slice);
        assert!(handle_pure(HypercallNr::Idle, 100, now).end_slice);
        assert!(!handle_pure(HypercallNr::ConsolePutChar, b'x' as u64, now).end_slice);
    }
}
