package mem

import (
	"encoding/binary"
	"fmt"
)

// Physical is the functional backing store for a machine's physical memory.
// Frames are allocated lazily, so sparse physical address spaces cost only
// what they touch. All values are little-endian, matching x86.
//
// Physical is not safe for concurrent use, and needs no lock: an instance
// belongs to one machine at a time, and a recycled one to the arena of the
// Runner worker that ran it. Only the goroutine running that machine and the
// workload coroutines it switches into touch it, and those coroutine
// switches already order every access, as the race detector sees.
//
// The sized accessors (ReadUint64 and friends) are the memory hot path of
// every functional op the cores perform: they go straight at the frame's
// bytes under a one-entry frame cache, skipping the byte-slice staging and
// the per-access map lookup of the general ReadBytes/WriteBytes path.
type Physical struct {
	frames map[FrameNumber][]byte
	// lastFrame/lastData cache the most recently touched frame: functional
	// accesses are heavily page-local (array sweeps, stacks, spin flags), so
	// most lookups hit without hashing the frame number.
	lastFrame FrameNumber
	lastData  []byte
	// size is the total bytes of installed DRAM; accesses beyond it panic,
	// catching allocator bugs early.
	size uint64
}

// NewPhysical creates a physical memory of the given size in bytes.
func NewPhysical(size uint64) *Physical {
	return &Physical{frames: make(map[FrameNumber][]byte), size: size}
}

// Size reports the installed capacity in bytes.
func (p *Physical) Size() uint64 { return p.size }

func (p *Physical) frame(f FrameNumber) []byte {
	if uint64(f.Addr()) >= p.size {
		panic(fmt.Sprintf("mem: physical access beyond installed DRAM: frame %#x, size %#x", uint64(f), p.size))
	}
	fr, ok := p.frames[f]
	if !ok {
		fr = make([]byte, PageSize)
		p.frames[f] = fr
	}
	return fr
}

// page resolves the frame containing addr through the one-entry cache.
func (p *Physical) page(addr PAddr) []byte {
	f := FrameOf(addr)
	if p.lastData != nil && f == p.lastFrame {
		return p.lastData
	}
	fr := p.frame(f)
	p.lastFrame, p.lastData = f, fr
	return fr
}

// ReadBytes copies len(dst) bytes starting at addr into dst.
func (p *Physical) ReadBytes(addr PAddr, dst []byte) {
	for len(dst) > 0 {
		f := FrameOf(addr)
		off := uint64(addr) & (PageSize - 1)
		n := copy(dst, p.frame(f)[off:])
		dst = dst[n:]
		addr += PAddr(n)
	}
}

// WriteBytes copies src into memory starting at addr.
func (p *Physical) WriteBytes(addr PAddr, src []byte) {
	for len(src) > 0 {
		f := FrameOf(addr)
		off := uint64(addr) & (PageSize - 1)
		n := copy(p.frame(f)[off:], src)
		src = src[n:]
		addr += PAddr(n)
	}
}

// ReadUint64 reads a little-endian 64-bit value.
func (p *Physical) ReadUint64(addr PAddr) uint64 {
	if off := uint64(addr) & (PageSize - 1); off+8 <= PageSize {
		return binary.LittleEndian.Uint64(p.page(addr)[off:])
	}
	var buf [8]byte
	p.ReadBytes(addr, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// WriteUint64 writes a little-endian 64-bit value.
func (p *Physical) WriteUint64(addr PAddr, v uint64) {
	if off := uint64(addr) & (PageSize - 1); off+8 <= PageSize {
		binary.LittleEndian.PutUint64(p.page(addr)[off:], v)
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	p.WriteBytes(addr, buf[:])
}

// ReadUint32 reads a little-endian 32-bit value.
func (p *Physical) ReadUint32(addr PAddr) uint32 {
	if off := uint64(addr) & (PageSize - 1); off+4 <= PageSize {
		return binary.LittleEndian.Uint32(p.page(addr)[off:])
	}
	var buf [4]byte
	p.ReadBytes(addr, buf[:])
	return binary.LittleEndian.Uint32(buf[:])
}

// WriteUint32 writes a little-endian 32-bit value.
func (p *Physical) WriteUint32(addr PAddr, v uint32) {
	if off := uint64(addr) & (PageSize - 1); off+4 <= PageSize {
		binary.LittleEndian.PutUint32(p.page(addr)[off:], v)
		return
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	p.WriteBytes(addr, buf[:])
}

// ReadUint8 reads a single byte.
func (p *Physical) ReadUint8(addr PAddr) uint8 {
	return p.page(addr)[uint64(addr)&(PageSize-1)]
}

// WriteUint8 writes a single byte.
func (p *Physical) WriteUint8(addr PAddr, v uint8) {
	p.page(addr)[uint64(addr)&(PageSize-1)] = v
}

// ZeroFrame clears an entire physical frame (used when the kernel hands out a
// fresh page).
func (p *Physical) ZeroFrame(f FrameNumber) {
	clear(p.frame(f))
}

// TouchedFrames reports how many frames have been materialized, which tests
// use to confirm lazy allocation.
func (p *Physical) TouchedFrames() int {
	return len(p.frames)
}

// Reset restores fresh-machine semantics — every byte zero, installed
// capacity set to size — while keeping materialized frames (and the frame
// map) allocated, so a reused memory re-runs its workload without re-paying
// lazy frame allocation. Frames beyond the new size are dropped; they would
// panic on access anyway.
func (p *Physical) Reset(size uint64) {
	p.size = size
	//ccsvm:orderinvariant // each frame is dropped or zeroed on its own
	for f, fr := range p.frames {
		if uint64(f.Addr()) >= size {
			delete(p.frames, f)
			continue
		}
		clear(fr)
	}
	p.lastFrame, p.lastData = 0, nil
}
