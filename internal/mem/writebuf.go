package mem

import (
	"math/bits"

	"github.com/caba-sim/caba/internal/compress"
)

// WriteBuffer stages one SM's functional global-memory writes during the
// parallel phase (phase A) of the two-phase tick and flushes them into the
// shared backing Memory at the cycle barrier. Phase-A workers then only
// ever read the shared page map — all writers run on the main goroutine —
// which is what makes the concurrent tick race-free without locks.
//
// The visibility model is cycle-deferred cross-SM stores: a store or
// atomic becomes visible to other SMs at the end of the cycle it issued
// in, while the issuing SM reads its own staged writes through the buffer
// immediately (stores from one warp are visible to the SM's other warps
// and to its store-buffer compression reads within the same tick). This
// is the model's definition, not an emulation of a serial loop that
// writes memory mid-tick: that loop lets SM i+1 see SM i's same-cycle
// stores, and it computes different results (DESIGN.md §8). The same
// staging runs at every SMWorkers setting, so serial and parallel
// execution are bit-identical by construction.
//
// Atomic adds are staged as deltas so concurrent-cycle updates from many
// SMs to one address (e.g. a shared histogram bucket) all land: each SM's
// delta is applied read-modify-write against the committed value at
// flush. The value an atomic returns is the committed value plus this
// SM's own pending deltas. When the target bytes already carry a staged
// plain store, the atomic degrades to a plain store of (visible value +
// delta), preserving program order within the SM. Flush applies deltas
// first, then plain stores: a store staged after a delta on the same
// bytes wins, and deltas from every SM land on the committed value.
type WriteBuffer struct {
	mem *Memory

	lines map[uint64]*bufLine
	order []uint64 // staged lines in creation order

	deltas   []stagedDelta
	deltaIdx map[uint64]int // addr -> index in deltas

	free []*bufLine // recycled line buffers
}

const wbLineSize = compress.LineSize

// bufLine holds staged bytes for one cache line; mask bit i covers byte i.
type bufLine struct {
	data [wbLineSize]byte
	mask [wbLineSize / 64]uint64
}

type stagedDelta struct {
	addr  uint64
	v     uint64
	width uint8
}

// NewWriteBuffer builds a staging buffer over m.
func NewWriteBuffer(m *Memory) *WriteBuffer {
	return &WriteBuffer{
		mem:      m,
		lines:    make(map[uint64]*bufLine),
		deltaIdx: make(map[uint64]int),
	}
}

// Empty reports whether nothing is staged.
func (b *WriteBuffer) Empty() bool { return len(b.order) == 0 && len(b.deltas) == 0 }

func (b *WriteBuffer) line(la uint64) *bufLine {
	l := b.lines[la]
	if l == nil {
		if n := len(b.free); n > 0 {
			l = b.free[n-1]
			b.free = b.free[:n-1]
		} else {
			l = new(bufLine)
		}
		b.lines[la] = l
		b.order = append(b.order, la)
	}
	return l
}

// span resolves the one or two staged lines a width-byte access at addr
// touches (width ≤ 8, so it never crosses more than one line boundary).
// Hoisting the map lookups out of the per-byte loops is measurable: the
// execution engines call the byte-overlay paths once per active lane.
func (b *WriteBuffer) span(addr uint64, width uint8) (la uint64, l, l2 *bufLine) {
	la = addr &^ uint64(wbLineSize-1)
	l = b.lines[la]
	if last := (addr + uint64(width) - 1) &^ uint64(wbLineSize-1); last != la {
		l2 = b.lines[last]
	} else {
		l2 = l
	}
	return la, l, l2
}

// dirty reports whether any of the width bytes at addr carry a staged
// plain store.
func (b *WriteBuffer) dirty(addr uint64, width uint8) bool {
	if len(b.order) == 0 {
		return false
	}
	la, l, l2 := b.span(addr, width)
	if l == nil && l2 == nil {
		return false
	}
	for i := uint64(0); i < uint64(width); i++ {
		a := addr + i
		ln := l
		if a&^uint64(wbLineSize-1) != la {
			ln = l2
		}
		if ln != nil {
			off := a & (wbLineSize - 1)
			if ln.mask[off/64]&(1<<(off%64)) != 0 {
				return true
			}
		}
	}
	return false
}

// StoreGlobal stages width bytes of v at addr (little-endian).
func (b *WriteBuffer) StoreGlobal(addr, v uint64, width uint8) {
	for i := uint64(0); i < uint64(width); i++ {
		a := addr + i
		l := b.line(a &^ uint64(wbLineSize-1))
		off := a & (wbLineSize - 1)
		l.data[off] = byte(v >> (8 * i))
		l.mask[off/64] |= 1 << (off % 64)
	}
}

// LoadGlobal returns the value visible to the owning SM: the committed
// bytes overlaid with this SM's staged stores, plus its pending atomic
// delta when the bytes carry no staged store.
func (b *WriteBuffer) LoadGlobal(addr uint64, width uint8) uint64 {
	v := b.mem.ReadU(addr, width)
	anyStore := false
	if len(b.order) != 0 {
		la, l, l2 := b.span(addr, width)
		if l != nil || l2 != nil {
			for i := uint64(0); i < uint64(width); i++ {
				a := addr + i
				ln := l
				if a&^uint64(wbLineSize-1) != la {
					ln = l2
				}
				if ln == nil {
					continue
				}
				off := a & (wbLineSize - 1)
				if ln.mask[off/64]&(1<<(off%64)) != 0 {
					v = v&^(0xFF<<(8*i)) | uint64(ln.data[off])<<(8*i)
					anyStore = true
				}
			}
		}
	}
	if !anyStore && len(b.deltas) != 0 {
		if di, ok := b.deltaIdx[addr]; ok && b.deltas[di].width == width {
			v += b.deltas[di].v
		}
	}
	return v
}

// AtomicAdd stages an atomic read-modify-write and returns the old value
// visible to this SM.
func (b *WriteBuffer) AtomicAdd(addr, v uint64, width uint8) uint64 {
	if b.dirty(addr, width) {
		old := b.LoadGlobal(addr, width)
		b.StoreGlobal(addr, old+v, width)
		return old
	}
	old := b.mem.ReadU(addr, width)
	if di, ok := b.deltaIdx[addr]; ok && b.deltas[di].width == width {
		old += b.deltas[di].v
		b.deltas[di].v += v
		return old
	}
	b.deltaIdx[addr] = len(b.deltas)
	b.deltas = append(b.deltas, stagedDelta{addr: addr, v: v, width: width})
	return old
}

// OverlayLine applies this SM's staged writes for the line at lineAddr
// onto buf (which the caller filled with the committed bytes), so the SM's
// same-cycle compression/verification reads see its own stores.
func (b *WriteBuffer) OverlayLine(lineAddr uint64, buf []byte) {
	if l := b.lines[lineAddr]; l != nil {
		for w, m := range l.mask {
			for ; m != 0; m &= m - 1 {
				off := w*64 + bits.TrailingZeros64(m)
				buf[off] = l.data[off]
			}
		}
	}
	for i := range b.deltas {
		d := &b.deltas[i]
		if d.addr >= lineAddr && d.addr+uint64(d.width) <= lineAddr+wbLineSize {
			off := d.addr - lineAddr
			var cur uint64
			for j := uint64(0); j < uint64(d.width); j++ {
				cur |= uint64(buf[off+j]) << (8 * j)
			}
			cur += d.v
			for j := uint64(0); j < uint64(d.width); j++ {
				buf[off+j] = byte(cur >> (8 * j))
			}
		}
	}
}

// Flush commits every staged write into the backing Memory: atomic deltas
// first (read-modify-write against the committed value), then the staged
// line bytes. The simulator calls it at the cycle barrier in ascending
// SM-index order, before replaying the SM's outbox.
func (b *WriteBuffer) Flush() {
	for i := range b.deltas {
		d := &b.deltas[i]
		b.mem.WriteU(d.addr, b.mem.ReadU(d.addr, d.width)+d.v, d.width)
	}
	if len(b.deltas) != 0 {
		b.deltas = b.deltas[:0]
		clear(b.deltaIdx)
	}
	if len(b.order) != 0 {
		var buf [wbLineSize]byte
		for _, la := range b.order {
			l := b.lines[la]
			full := true
			for _, m := range l.mask {
				if m != ^uint64(0) {
					full = false
					break
				}
			}
			if full {
				b.mem.Write(la, l.data[:])
			} else {
				b.mem.Read(la, buf[:])
				for w, m := range l.mask {
					for ; m != 0; m &= m - 1 {
						off := w*64 + bits.TrailingZeros64(m)
						buf[off] = l.data[off]
					}
				}
				b.mem.Write(la, buf[:])
			}
			l.mask = [wbLineSize / 64]uint64{}
			b.free = append(b.free, l)
			delete(b.lines, la)
		}
		b.order = b.order[:0]
	}
}
