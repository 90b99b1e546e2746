package mem

import (
	"bytes"
	"testing"
)

const wbTestLine = 0x4000 // line-aligned

// TestWriteBufferCrossSMAtomicMerge: two SMs' same-cycle atomic adds to
// one address each see the committed value plus only their own pending
// deltas, nothing reaches memory before Flush, and flushing both buffers
// (in SM order) lands every delta.
func TestWriteBufferCrossSMAtomicMerge(t *testing.T) {
	m := NewMemory()
	m.WriteU(wbTestLine, 10, 4)
	b0, b1 := NewWriteBuffer(m), NewWriteBuffer(m)

	if old := b0.AtomicAdd(wbTestLine, 1, 4); old != 10 {
		t.Fatalf("SM 0 first atomic returned %d, want 10", old)
	}
	if old := b0.AtomicAdd(wbTestLine, 2, 4); old != 11 {
		t.Fatalf("SM 0 second atomic returned %d, want 11 (own delta)", old)
	}
	if old := b1.AtomicAdd(wbTestLine, 5, 4); old != 10 {
		t.Fatalf("SM 1 atomic returned %d, want 10 (SM 0's deltas are not committed)", old)
	}
	if v := b0.LoadGlobal(wbTestLine, 4); v != 13 {
		t.Errorf("SM 0 sees %d, want 13", v)
	}
	if v := b1.LoadGlobal(wbTestLine, 4); v != 15 {
		t.Errorf("SM 1 sees %d, want 15", v)
	}
	if v := m.ReadU(wbTestLine, 4); v != 10 {
		t.Fatalf("memory holds %d before any flush, want 10", v)
	}

	b0.Flush()
	if v := b1.LoadGlobal(wbTestLine, 4); v != 18 {
		t.Errorf("after SM 0's flush SM 1 sees %d, want 18", v)
	}
	b1.Flush()
	if v := m.ReadU(wbTestLine, 4); v != 18 {
		t.Errorf("memory holds %d after both flushes, want 18", v)
	}
	if !b0.Empty() || !b1.Empty() {
		t.Error("buffers not empty after Flush")
	}
}

// TestWriteBufferAtomicAfterPlainStore: an atomic on bytes that carry a
// staged plain store degrades to a plain store of (visible value +
// delta), so program order within the SM holds, and a later SM's delta
// lands on top of it.
func TestWriteBufferAtomicAfterPlainStore(t *testing.T) {
	m := NewMemory()
	m.WriteU(wbTestLine, 1, 4)
	b0, b1 := NewWriteBuffer(m), NewWriteBuffer(m)

	b0.StoreGlobal(wbTestLine, 100, 4)
	if old := b0.AtomicAdd(wbTestLine, 7, 4); old != 100 {
		t.Fatalf("atomic after store returned %d, want the staged 100", old)
	}
	if v := b0.LoadGlobal(wbTestLine, 4); v != 107 {
		t.Errorf("SM 0 sees %d, want 107", v)
	}
	if len(b0.deltas) != 0 {
		t.Errorf("atomic on a dirty word staged %d deltas, want a plain store", len(b0.deltas))
	}
	if old := b1.AtomicAdd(wbTestLine, 1, 4); old != 1 {
		t.Fatalf("SM 1 atomic returned %d, want the committed 1", old)
	}

	b0.Flush()
	b1.Flush()
	if v := m.ReadU(wbTestLine, 4); v != 108 {
		t.Errorf("memory holds %d, want 108 (SM 0's store, then SM 1's delta)", v)
	}
}

// TestWriteBufferOverlayLine: the owning SM's compression reads see its
// staged plain stores and pending atomic deltas on the line, and nothing
// staged for other lines.
func TestWriteBufferOverlayLine(t *testing.T) {
	m := NewMemory()
	committed := make([]byte, wbLineSize)
	for i := range committed {
		committed[i] = byte(i)
	}
	m.Write(wbTestLine, committed)
	b := NewWriteBuffer(m)
	b.StoreGlobal(wbTestLine+4, 0xAABBCCDD, 4)
	b.AtomicAdd(wbTestLine+8, 3, 4)
	b.StoreGlobal(wbTestLine+wbLineSize, 0xFF, 1) // next line
	b.AtomicAdd(wbTestLine+wbLineSize+8, 9, 4)    // next line

	buf := append([]byte(nil), committed...)
	b.OverlayLine(wbTestLine, buf)
	want := append([]byte(nil), committed...)
	copy(want[4:], []byte{0xDD, 0xCC, 0xBB, 0xAA})
	want[8] += 3 // little-endian word 0x0b0a0908 + 3, no carry
	if !bytes.Equal(buf, want) {
		t.Errorf("overlay:\n got %x\nwant %x", buf, want)
	}
	if v := m.ReadU(wbTestLine+4, 4); v != 0x07060504 {
		t.Errorf("OverlayLine wrote through to memory: %#x", v)
	}
}

// TestWriteBufferFlushOrder: Flush applies atomic deltas first, then
// plain stores, merging partial lines with the committed bytes. A store
// staged after an atomic on the same word therefore wins, as program
// order says it must.
func TestWriteBufferFlushOrder(t *testing.T) {
	m := NewMemory()
	m.WriteU(wbTestLine, 5, 4)
	m.WriteU(wbTestLine+16, 0x1234, 4)
	b := NewWriteBuffer(m)

	b.AtomicAdd(wbTestLine, 10, 4) // clean word: staged as a delta
	b.StoreGlobal(wbTestLine, 42, 4)
	b.AtomicAdd(wbTestLine+8, 2, 4)
	b.StoreGlobal(wbTestLine+12, 7, 1)
	if v := b.LoadGlobal(wbTestLine, 4); v != 42 {
		t.Errorf("SM sees %d, want its later store 42", v)
	}
	b.Flush()

	for _, c := range []struct {
		addr  uint64
		width uint8
		want  uint64
	}{
		{wbTestLine, 4, 42},          // delta, then the later store
		{wbTestLine + 8, 4, 2},       // delta on an untouched word
		{wbTestLine + 12, 1, 7},      // partial-line store
		{wbTestLine + 16, 4, 0x1234}, // committed bytes survive the merge
	} {
		if v := m.ReadU(c.addr, c.width); v != c.want {
			t.Errorf("memory[%#x] = %d, want %d", c.addr, v, c.want)
		}
	}
	if !b.Empty() {
		t.Error("buffer not empty after Flush")
	}
}
