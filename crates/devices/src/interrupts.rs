//! A simple interrupt controller.
//!
//! Devices assert numbered interrupt lines; the controller latches each
//! asserted line as pending. Lines are edge-triggered, so repeated
//! assertions of a pending line coalesce.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of interrupt lines supported.
const NUM_LINES: u32 = 64;

/// The interrupt controller shared by all devices of a VM.
#[derive(Debug, Clone, Default)]
pub struct InterruptController {
    pending: Arc<AtomicU64>,
}

impl InterruptController {
    /// Create a controller with every line idle.
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

    /// Assert `line` (edge-triggered): latch it pending.
    fn assert_line(&self, line: u32) {
        self.pending
            .fetch_or(1 << (line % NUM_LINES), Ordering::Relaxed);
    }

    /// Whether a specific line is pending.
    pub fn is_pending(&self, line: u32) -> bool {
        self.pending.load(Ordering::Relaxed) & (1 << (line % NUM_LINES)) != 0
    }
}

/// A device-side handle for asserting one interrupt line.
#[derive(Debug, Clone)]
pub struct InterruptLine {
    controller: InterruptController,
    line: u32,
}

impl InterruptLine {
    /// Assert the line.
    pub fn assert_irq(&self) {
        self.controller.assert_line(self.line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(ic.is_pending(4));
        assert!((0..NUM_LINES)
            .filter(|&l| l != 4)
            .all(|l| !ic.is_pending(l)));
    }

    #[test]
    fn line_handle_asserts_its_line() {
        let ic = InterruptController::new();
        let line = ic.line(9);
        assert!(!ic.is_pending(9));
        line.assert_irq();
        assert!(ic.is_pending(9));
        assert!(!ic.is_pending(8));
    }

    #[test]
    fn clones_share_state() {
        let ic = InterruptController::new();
        let view = ic.clone();
        ic.assert_line(3);
        assert!(view.is_pending(3));
    }
}
