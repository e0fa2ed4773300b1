//! PIN-like memory-trace recording (§2.4).
//!
//! The paper's preliminary profiler *"uses Intel PIN to collect the
//! runtime virtual memory addresses from each load/store instruction
//! within each fixed-size sampling window"*, plus *"the linear memory
//! addresses of the JMP instructions retired"* to locate loops. This
//! module is our instrumentation layer:
//!
//! * [`TraceRecorder`] — the sink: an append-only stream of
//!   [`TraceRecord`]s (loads, stores, loop back-edges).
//! * [`TracedBuf`] — an `f64` buffer whose indexed reads/writes emit
//!   trace records at realistic byte addresses, so real kernels can run
//!   unmodified except for using `TracedBuf` instead of `Vec<f64>`.
//!
//! Recording is exact (every access), which is what the profiler's
//! window statistics need; kernels used for tracing are sized
//! accordingly.

use std::cell::RefCell;
use std::rc::Rc;

/// One instrumented event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceRecord {
    /// A load from the given byte address.
    Load(u64),
    /// A store to the given byte address.
    Store(u64),
    /// A retired loop back-edge (the "JMP" sample): carries the static
    /// loop id it belongs to.
    LoopBranch(u32),
}

impl TraceRecord {
    /// The data address, if this is a memory record.
    pub fn address(&self) -> Option<u64> {
        match *self {
            TraceRecord::Load(a) | TraceRecord::Store(a) => Some(a),
            TraceRecord::LoopBranch(_) => None,
        }
    }
}

/// A recorded execution trace.
#[derive(Debug, Clone, Default)]
pub struct MemoryTrace {
    records: Vec<TraceRecord>,
}

impl MemoryTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// All records in program order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Count of memory (load/store) records.
    pub fn memory_ops(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.address().is_some())
            .count()
    }
}

/// Shared, append-only trace sink.
///
/// Kernels hold clones of the recorder (cheap `Rc`); single-threaded by
/// design — tracing happens in the profiling harness, not inside the
/// simulated machine.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    trace: Rc<RefCell<MemoryTrace>>,
}

impl TraceRecorder {
    /// A new, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a load.
    #[inline]
    pub fn load(&self, addr: u64) {
        self.trace
            .borrow_mut()
            .records
            .push(TraceRecord::Load(addr));
    }

    /// Record a store.
    #[inline]
    pub fn store(&self, addr: u64) {
        self.trace
            .borrow_mut()
            .records
            .push(TraceRecord::Store(addr));
    }

    /// Record a loop back-edge for static loop `loop_id`.
    #[inline]
    pub fn loop_branch(&self, loop_id: u32) {
        self.trace
            .borrow_mut()
            .records
            .push(TraceRecord::LoopBranch(loop_id));
    }

    /// Extract the trace recorded so far, leaving the recorder empty.
    pub fn take(&self) -> MemoryTrace {
        std::mem::take(&mut self.trace.borrow_mut())
    }
}

/// An instrumented `f64` buffer.
///
/// Each buffer gets a distinct virtual base address (64-byte aligned,
/// separated by a guard gap) so traces from multiple arrays interleave
/// realistically.
#[derive(Debug)]
pub struct TracedBuf {
    data: Vec<f64>,
    base: u64,
    rec: TraceRecorder,
}

/// Allocates virtual base addresses for traced buffers.
#[derive(Debug)]
pub struct AddressSpace {
    next_base: u64,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// A fresh address space starting at a page-aligned base.
    pub fn new() -> Self {
        AddressSpace {
            next_base: 0x1000_0000,
        }
    }

    /// Allocate a zeroed traced buffer of `len` doubles.
    pub fn alloc(&mut self, len: usize, rec: &TraceRecorder) -> TracedBuf {
        let bytes = (len * 8) as u64;
        let base = self.next_base;
        // 4 KiB guard + alignment between buffers.
        self.next_base += (bytes + 4096 + 63) & !63;
        TracedBuf {
            data: vec![0.0; len],
            base,
            rec: rec.clone(),
        }
    }
}

impl TracedBuf {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The buffer's virtual base address.
    pub fn base(&self) -> u64 {
        self.base
    }

    #[inline]
    fn addr(&self, i: usize) -> u64 {
        self.base + (i * 8) as u64
    }

    /// Traced read.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.rec.load(self.addr(i));
        self.data[i]
    }

    /// Traced write.
    #[inline]
    pub fn set(&mut self, i: usize, v: f64) {
        self.rec.store(self.addr(i));
        self.data[i] = v;
    }

    /// Untraced initialisation access (setup code is not part of the
    /// measured region, exactly like warmup in the paper's profiler).
    pub fn init(&mut self, i: usize, v: f64) {
        self.data[i] = v;
    }

    /// Untraced readback for checksums.
    pub fn peek(&self, i: usize) -> f64 {
        self.data[i]
    }

    /// Untraced view of the underlying data.
    pub fn raw(&self) -> &[f64] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_appear_in_program_order() {
        let rec = TraceRecorder::new();
        rec.load(100);
        rec.store(200);
        rec.loop_branch(7);
        let t = rec.take();
        assert_eq!(
            t.records(),
            &[
                TraceRecord::Load(100),
                TraceRecord::Store(200),
                TraceRecord::LoopBranch(7)
            ]
        );
        assert_eq!(t.memory_ops(), 2);
    }

    #[test]
    fn take_drains_the_recorder() {
        let rec = TraceRecorder::new();
        rec.load(1);
        assert_eq!(rec.take().len(), 1);
        assert_eq!(rec.take().len(), 0);
    }

    #[test]
    fn default_recorder_records() {
        let rec = TraceRecorder::default();
        rec.load(1);
        rec.store(2);
        rec.loop_branch(3);
        let t = rec.take();
        assert_eq!(
            t.records(),
            &[
                TraceRecord::Load(1),
                TraceRecord::Store(2),
                TraceRecord::LoopBranch(3)
            ]
        );
    }

    #[test]
    fn traced_buf_emits_correct_addresses() {
        let rec = TraceRecorder::new();
        let mut space = AddressSpace::new();
        let mut buf = space.alloc(16, &rec);
        let base = buf.base();
        buf.set(0, 1.5);
        let _ = buf.get(3);
        let t = rec.take();
        assert_eq!(
            t.records(),
            &[TraceRecord::Store(base), TraceRecord::Load(base + 24)]
        );
        assert_eq!(buf.peek(0), 1.5);
    }

    #[test]
    fn buffers_do_not_overlap() {
        let rec = TraceRecorder::new();
        let mut space = AddressSpace::new();
        let a = space.alloc(1000, &rec);
        let b = space.alloc(1000, &rec);
        let a_end = a.base() + 8000;
        assert!(b.base() > a_end, "guard gap missing");
        assert_eq!(b.base() % 64, 0, "alignment");
    }

    #[test]
    fn init_and_peek_are_untraced() {
        let rec = TraceRecorder::new();
        let mut space = AddressSpace::new();
        let mut buf = space.alloc(4, &rec);
        buf.init(2, 9.0);
        assert_eq!(buf.peek(2), 9.0);
        assert!(rec.take().is_empty());
    }
}
