//! A simple interrupt controller.
//!
//! Devices assert numbered interrupt lines; the controller latches them as
//! pending until the guest (via the VMM) claims and completes them — the
//! usual split between *pending* and *in service*. Lines can be masked.
//! Priorities are fixed: lower line numbers are more urgent, as on a classic
//! PIC.

use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Number of interrupt lines supported.
const NUM_LINES: u32 = 64;

/// Counters describing interrupt activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterruptStats {
    /// Total assertions (edges) observed.
    pub asserted: u64,
    /// Interrupts claimed by the guest.
    pub claimed: u64,
    /// Interrupts completed by the guest.
    pub completed: u64,
    /// Assertions that were dropped because the line was masked.
    pub masked_drops: u64,
}

#[derive(Debug, Default, Clone, Serialize, Deserialize)]
struct ControllerState {
    pending: u64,
    in_service: u64,
    masked: u64,
    stats: InterruptStats,
}

/// The interrupt controller shared by all devices of a VM.
#[derive(Debug, Clone, Default)]
pub struct InterruptController {
    state: Arc<Mutex<ControllerState>>,
}

impl InterruptController {
    /// Create a controller with all lines unmasked and idle.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle that asserts `line`, for handing to a device.
    pub fn line(&self, line: u32) -> InterruptLine {
        InterruptLine {
            controller: self.clone(),
            line: line % NUM_LINES,
        }
    }

    /// Assert `line` (edge-triggered): latch it pending unless masked.
    fn assert_line(&self, line: u32) {
        let line = line % NUM_LINES;
        let mut s = self.state.lock();
        s.stats.asserted += 1;
        if s.masked & (1 << line) != 0 {
            s.stats.masked_drops += 1;
            return;
        }
        s.pending |= 1 << line;
    }

    /// Mask a line; subsequent assertions are dropped.
    pub fn mask(&self, line: u32) {
        self.state.lock().masked |= 1 << (line % NUM_LINES);
    }

    /// Unmask a line.
    #[cfg(test)]
    fn unmask(&self, line: u32) {
        self.state.lock().masked &= !(1 << (line % NUM_LINES));
    }

    /// Whether a line is masked.
    #[cfg(test)]
    fn is_masked(&self, line: u32) -> bool {
        self.state.lock().masked & (1 << (line % NUM_LINES)) != 0
    }

    /// Whether any interrupt is pending delivery.
    #[cfg(test)]
    pub(crate) fn has_pending(&self) -> bool {
        self.state.lock().pending != 0
    }

    /// Whether a specific line is pending.
    pub fn is_pending(&self, line: u32) -> bool {
        self.state.lock().pending & (1 << (line % NUM_LINES)) != 0
    }

    /// Claim the highest-priority (lowest-numbered) pending interrupt,
    /// moving it from *pending* to *in service*.
    pub fn claim(&self) -> Option<u32> {
        let mut s = self.state.lock();
        if s.pending == 0 {
            return None;
        }
        let line = s.pending.trailing_zeros();
        s.pending &= !(1 << line);
        s.in_service |= 1 << line;
        s.stats.claimed += 1;
        Some(line)
    }

    /// Complete a previously claimed interrupt. Returns whether it was in service.
    pub fn complete(&self, line: u32) -> bool {
        let line = line % NUM_LINES;
        let mut s = self.state.lock();
        if s.in_service & (1 << line) == 0 {
            return false;
        }
        s.in_service &= !(1 << line);
        s.stats.completed += 1;
        true
    }

    /// Activity counters.
    pub fn stats(&self) -> InterruptStats {
        self.state.lock().stats
    }

    /// Serializable state for snapshots (pending/in-service/mask bits).
    pub fn save(&self) -> (u64, u64, u64) {
        let s = self.state.lock();
        (s.pending, s.in_service, s.masked)
    }

    /// Restore state captured by [`InterruptController::save`].
    pub fn restore(&self, pending: u64, in_service: u64, masked: u64) {
        let mut s = self.state.lock();
        s.pending = pending;
        s.in_service = in_service;
        s.masked = masked;
    }
}

/// A device-side handle for asserting one interrupt line.
#[derive(Debug, Clone)]
pub struct InterruptLine {
    controller: InterruptController,
    line: u32,
}

impl InterruptLine {
    /// The line number this handle asserts.
    pub fn line(&self) -> u32 {
        self.line
    }

    /// Assert the line.
    pub fn assert_irq(&self) {
        self.controller.assert_line(self.line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assert_claim_complete_cycle() {
        let ic = InterruptController::new();
        assert!(!ic.has_pending());
        assert_eq!(ic.claim(), None);

        ic.assert_line(5);
        assert!(ic.has_pending());
        assert!(ic.is_pending(5));
        assert_eq!(ic.claim(), Some(5));
        assert!(!ic.is_pending(5));
        assert!(ic.complete(5));
        assert!(!ic.complete(5));

        let stats = ic.stats();
        assert_eq!(stats.asserted, 1);
        assert_eq!(stats.claimed, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn priority_is_lowest_line_first() {
        let ic = InterruptController::new();
        ic.assert_line(10);
        ic.assert_line(3);
        ic.assert_line(40);
        assert_eq!(ic.claim(), Some(3));
        assert_eq!(ic.claim(), Some(10));
        assert_eq!(ic.claim(), Some(40));
        assert_eq!(ic.claim(), None);
    }

    #[test]
    fn masking_drops_assertions() {
        let ic = InterruptController::new();
        ic.mask(7);
        assert!(ic.is_masked(7));
        ic.assert_line(7);
        assert!(!ic.has_pending());
        assert_eq!(ic.stats().masked_drops, 1);
        ic.unmask(7);
        assert!(!ic.is_masked(7));
        ic.assert_line(7);
        assert!(ic.is_pending(7));
    }

    #[test]
    fn lines_wrap_modulo_num_lines() {
        let ic = InterruptController::new();
        ic.assert_line(NUM_LINES + 2);
        assert!(ic.is_pending(2));
    }

    #[test]
    fn duplicate_assertions_coalesce() {
        let ic = InterruptController::new();
        ic.assert_line(4);
        ic.assert_line(4);
        ic.assert_line(4);
        assert_eq!(ic.claim(), Some(4));
        assert_eq!(ic.claim(), None);
        assert_eq!(ic.stats().asserted, 3);
    }

    #[test]
    fn line_handle_asserts_its_line() {
        let ic = InterruptController::new();
        let line = ic.line(9);
        assert_eq!(line.line(), 9);
        line.assert_irq();
        assert_eq!(ic.claim(), Some(9));
    }

    #[test]
    fn save_restore_roundtrip() {
        let ic = InterruptController::new();
        ic.assert_line(1);
        ic.assert_line(2);
        ic.claim();
        ic.mask(60);
        let (p, i, m) = ic.save();

        let other = InterruptController::new();
        other.restore(p, i, m);
        assert!(other.is_pending(2));
        assert!(!other.is_pending(1)); // line 1 was claimed (in service)
        assert!(other.is_masked(60));
        assert!(other.complete(1));
    }

    #[test]
    fn clones_share_state() {
        let ic = InterruptController::new();
        let view = ic.clone();
        ic.assert_line(3);
        assert!(view.is_pending(3));
    }
}
