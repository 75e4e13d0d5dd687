//! The direct engines: the test suite's accounting oracle.
//!
//! Memory-to-memory copies over a bare [`Link`] that *charge* the bytes the
//! wire format would carry instead of encoding them — an independent count
//! of every byte and nanosecond of all three engines, which the stream
//! tests pin [`execute`](crate::execute) over a loopback against. Compiled
//! under `cfg(test)` only; these shipped as `StopAndCopy::migrate`,
//! `PreCopy::migrate` and `PostCopy::migrate` until the wire path became
//! the one way to run a migration, and their bodies are unchanged.

use rvisor_memory::GuestMemory;
use rvisor_net::Link;
use rvisor_obs::Trace;
use rvisor_types::{Nanoseconds, Result, PAGE_SIZE};
use rvisor_vcpu::VcpuState;

use crate::compress::{xbzrle_apply_in_place, EncodedPage, PageCompression, PageCompressor};
use crate::dirty::DirtySource;
use crate::engines::{check_same_size, emit_migration_span, emit_round_span, PER_PAGE_OVERHEAD};
use crate::plan::MigrationPlan;
use crate::report::{MigrationKind, MigrationReport, RoundStat};
use crate::wire;

/// Modelled on-wire size of one vCPU's non-memory state (registers, device
/// state), framing included — one [`wire::FrameKind::VcpuState`] frame.
const VCPU_STATE_BYTES: u64 = wire::VCPU_STATE_WIRE_BYTES;

fn copy_pages(
    source: &GuestMemory,
    dest: &GuestMemory,
    pages: &[u64],
    link: &mut Link,
    now: Nanoseconds,
) -> Result<(Nanoseconds, u64)> {
    copy_pages_with(source, dest, pages, link, now, None)
}

/// Copy pages, optionally running them through a [`PageCompressor`].
///
/// Zero-copy on both sides: each source page is borrowed in place
/// ([`GuestMemory::with_page`]) and handed to the compressor as `&[u8]`, and
/// the destination reconstructs it *into its own page* (raw overwrite,
/// zeroing, or in-place XBZRLE patching via `xbzrle_apply_in_place`),
/// exactly as the real protocol would;
/// only the reconstructed bytes land, so memory equality at the end of a
/// migration proves the codec round-trips. The uncompressed path performs no
/// heap allocation per page (the guarantee pinned by the
/// `alloc_guard` integration test).
fn copy_pages_with(
    source: &GuestMemory,
    dest: &GuestMemory,
    pages: &[u64],
    link: &mut Link,
    now: Nanoseconds,
    mut compressor: Option<&mut PageCompressor>,
) -> Result<(Nanoseconds, u64)> {
    // Stack bounce buffer for the uncompressed path (initialized once per
    // call, overwritten in full per page): the source read lock is released
    // before the destination write lock is taken, so two concurrent
    // opposite-direction migrations over the same pair of memories can
    // never deadlock on lock order. Still zero heap allocations per page.
    let mut bounce = [0u8; PAGE_SIZE as usize];
    let mut delta = Vec::new();
    let mut bytes = 0u64;
    for &p in pages {
        match compressor.as_deref_mut() {
            Some(c) => {
                // Sequential, never nested: encode under the source read
                // lock, then apply under the destination write lock. A raw
                // or zero page crosses in the bounce buffer, a delta in
                // `delta`.
                let is_delta = source.with_page(p, |contents| match c.encode(p, contents) {
                    EncodedPage::Raw => {
                        bounce.copy_from_slice(contents);
                        bytes += PAGE_SIZE;
                        false
                    }
                    EncodedPage::Zero => {
                        bounce.fill(0);
                        bytes += 1;
                        false
                    }
                    EncodedPage::Delta(d) => {
                        delta.clear();
                        delta.extend_from_slice(d);
                        bytes += d.len() as u64;
                        true
                    }
                })?;
                if is_delta {
                    dest.with_page_mut(p, |current| xbzrle_apply_in_place(current, &delta))??;
                } else {
                    dest.with_page_mut(p, |target| target.copy_from_slice(&bounce))?;
                }
                bytes += PER_PAGE_OVERHEAD;
            }
            None => {
                source.with_page(p, |contents| bounce.copy_from_slice(contents))?;
                dest.with_page_mut(p, |target| target.copy_from_slice(&bounce))?;
                bytes += PAGE_SIZE + PER_PAGE_OVERHEAD;
            }
        }
    }
    // Every round's burst is terminated by an end-of-round marker frame on
    // the wire; the direct path charges it so both paths account alike.
    bytes += wire::END_OF_ROUND_WIRE_BYTES;
    let done = link.transmit(now, bytes);
    Ok((done, bytes))
}

/// Pause, copy all memory and state, resume on the destination. The guest
/// is paused for the entire duration, so downtime equals total time.
pub(crate) fn stop_and_copy(
    source: &GuestMemory,
    dest: &GuestMemory,
    vcpus: &[VcpuState],
    link: &mut Link,
    trace: &Trace,
) -> Result<MigrationReport> {
    check_same_size(source, dest)?;
    let start = link.free_at();
    // Stream opener: version/geometry handshake (the guest is already
    // paused for a cold migration, so it counts toward downtime).
    let after_hello = link.transmit(start, wire::HELLO_WIRE_BYTES);
    let all_pages: Vec<u64> = (0..source.total_pages()).collect();
    let (after_pages, bytes) = copy_pages(source, dest, &all_pages, link, after_hello)?;
    let state_bytes = VCPU_STATE_BYTES * vcpus.len().max(1) as u64;
    let done = link.transmit(after_pages, state_bytes);
    let elapsed = done.saturating_sub(start);
    let round = RoundStat {
        pages: all_pages.len() as u64,
        bytes,
        duration: after_pages.saturating_sub(after_hello),
    };
    emit_round_span(trace, "round", 1, round, after_hello, after_pages);
    let report = MigrationReport {
        kind: MigrationKind::StopAndCopy,
        downtime: elapsed,
        total_time: elapsed,
        rounds: 1,
        bytes_transferred: wire::HELLO_WIRE_BYTES + bytes + state_bytes,
        pages_transferred: all_pages.len() as u64,
        memory_size: source.total_size(),
        converged: true,
        remote_faults: 0,
        avg_fault_latency: Nanoseconds::ZERO,
        rounds_breakdown: vec![round],
    };
    emit_migration_span(trace, &report, start, done, None);
    Ok(report)
}

/// Iterative pre-copy while `dirty_source` keeps writing into the source.
pub(crate) fn pre_copy(
    source: &GuestMemory,
    dest: &GuestMemory,
    vcpus: &[VcpuState],
    link: &mut Link,
    dirty_source: &mut dyn DirtySource,
    config: &MigrationPlan,
    trace: &Trace,
) -> Result<MigrationReport> {
    config.validate()?;
    check_same_size(source, dest)?;
    let start = link.free_at();
    // Stream opener (version/geometry handshake) while the guest runs.
    let mut now = link.transmit(start, wire::HELLO_WIRE_BYTES);
    let mut total_bytes = wire::HELLO_WIRE_BYTES;
    let mut total_pages = 0u64;
    let mut rounds = 0u32;
    let mut converged = false;
    let mut compressor = match config.compression {
        PageCompression::None => None,
        mode => Some(PageCompressor::with_cache_capacity(
            mode,
            config.xbzrle_cache_pages,
        )),
    };

    // Round 1: everything. Clear the dirty bitmap first so only writes
    // that happen *during* the transfer count for the next round.
    source.clear_dirty();
    let mut to_send: Vec<u64> = (0..source.total_pages()).collect();
    // One harvest buffer is swapped with `to_send` each round; once both
    // have grown to the working set, steady-state rounds allocate nothing.
    let mut harvest: Vec<u64> = Vec::new();
    // Sized for the worst case (max_rounds iterations + the stop phase)
    // up front, so pushes inside the loop never reallocate and the
    // steady-state round stays allocation-free (alloc-guard-pinned).
    let mut breakdown: Vec<RoundStat> = Vec::with_capacity(config.max_rounds as usize + 1);

    loop {
        rounds += 1;
        let round_start = now;
        let (done, bytes) =
            copy_pages_with(source, dest, &to_send, link, now, compressor.as_mut())?;
        total_bytes += bytes;
        total_pages += to_send.len() as u64;
        let round_duration = done.saturating_sub(round_start);
        let stat = RoundStat {
            pages: to_send.len() as u64,
            bytes,
            duration: round_duration,
        };
        breakdown.push(stat);
        emit_round_span(trace, "round", rounds, stat, round_start, done);
        // The guest ran (and dirtied memory) for the whole round.
        dirty_source.run_for(source, round_duration)?;
        now = done;

        source.drain_dirty_into(&mut harvest);
        std::mem::swap(&mut to_send, &mut harvest);
        if to_send.len() as u64 <= config.dirty_page_threshold {
            converged = true;
            break;
        }
        if rounds >= config.max_rounds {
            break;
        }
    }

    // Stop phase: the guest is paused; transfer the residual dirty set and state.
    let pause_start = now;
    let (after_residual, residual_bytes) =
        copy_pages_with(source, dest, &to_send, link, now, compressor.as_mut())?;
    total_bytes += residual_bytes;
    total_pages += to_send.len() as u64;
    let stop_stat = RoundStat {
        pages: to_send.len() as u64,
        bytes: residual_bytes,
        duration: after_residual.saturating_sub(pause_start),
    };
    breakdown.push(stop_stat);
    emit_round_span(
        trace,
        "stop-phase",
        rounds + 1,
        stop_stat,
        pause_start,
        after_residual,
    );
    let state_bytes = VCPU_STATE_BYTES * vcpus.len().max(1) as u64;
    let done = link.transmit(after_residual, state_bytes);
    total_bytes += state_bytes;

    let report = MigrationReport {
        kind: MigrationKind::PreCopy,
        downtime: done.saturating_sub(pause_start),
        total_time: done.saturating_sub(start),
        rounds,
        bytes_transferred: total_bytes,
        pages_transferred: total_pages,
        memory_size: source.total_size(),
        converged,
        remote_faults: 0,
        avg_fault_latency: Nanoseconds::ZERO,
        rounds_breakdown: breakdown,
    };
    emit_migration_span(trace, &report, start, done, compressor.map(|c| c.stats()));
    Ok(report)
}

/// Post-copy: the guest pauses only while vCPU state moves; all memory is
/// pulled afterwards — a configurable fraction synchronously (demand
/// faults, each paying a round trip) and the rest by the background sweep.
pub(crate) fn post_copy(
    source: &GuestMemory,
    dest: &GuestMemory,
    vcpus: &[VcpuState],
    link: &mut Link,
    config: &MigrationPlan,
    trace: &Trace,
) -> Result<MigrationReport> {
    config.validate()?;
    check_same_size(source, dest)?;
    let start = link.free_at();
    // Stream opener crosses before the pause (connection setup).
    let after_hello = link.transmit(start, wire::HELLO_WIRE_BYTES);
    // Downtime: only the vCPU/device state.
    let state_bytes = VCPU_STATE_BYTES * vcpus.len().max(1) as u64;
    let resumed_at = link.transmit(after_hello, state_bytes);
    let downtime = resumed_at.saturating_sub(after_hello);

    // All memory still has to cross the link; demand faults additionally pay
    // a propagation round trip each because the guest is blocked on them.
    let total_pages = source.total_pages();
    let fault_pages = ((total_pages as f64) * config.postcopy_fault_fraction).round() as u64;
    let fault_pages = fault_pages.min(total_pages);

    let all_pages: Vec<u64> = (0..total_pages).collect();
    let (after_pages, bytes) = copy_pages(source, dest, &all_pages, link, resumed_at)?;

    let per_fault_latency = link.model().transfer_time(PAGE_SIZE + PER_PAGE_OVERHEAD);
    // Demand faults serialize with the background stream; model their extra
    // cost as one additional propagation delay each (the request direction).
    let fault_penalty = Nanoseconds(link.model().latency.as_nanos() * fault_pages);
    let done = after_pages.saturating_add(fault_penalty);

    let round = RoundStat {
        pages: total_pages,
        bytes,
        duration: after_pages.saturating_sub(resumed_at),
    };
    emit_round_span(trace, "round", 1, round, resumed_at, after_pages);
    let report = MigrationReport {
        kind: MigrationKind::PostCopy,
        downtime,
        total_time: done.saturating_sub(start),
        rounds: 1,
        bytes_transferred: wire::HELLO_WIRE_BYTES + bytes + state_bytes,
        pages_transferred: total_pages,
        memory_size: source.total_size(),
        converged: true,
        remote_faults: fault_pages,
        avg_fault_latency: per_fault_latency.saturating_add(link.model().latency),
        rounds_breakdown: vec![round],
    };
    emit_migration_span(trace, &report, start, done, None);
    Ok(report)
}
