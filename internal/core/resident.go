package core

import "shortcutmining/internal/sram"

// resident tracks where one produced feature map currently lives: the
// on-chip portion (a logical buffer in the bank pool) and the spilled
// portion (bytes in DRAM). The baseline keeps everything spilled; full
// Shortcut Mining keeps everything on chip when capacity allows. A run
// holds one resident per layer, indexed by the producing layer; live
// marks the ones that record a feature map (the input image, and every
// executed layer with consumers).
type resident struct {
	buf     *sram.Buffer // nil when nothing is on chip
	total   int64
	onChip  int64
	spilled int64 // bytes available in DRAM (capacity spills or full copies)

	consumersLeft int32
	lastUse       int32
	live          bool
}

// dramBytes is the portion a consumer must fetch from DRAM.
func (r *resident) dramBytes() int64 { return r.total - r.onChip }

// dropBuffer detaches and frees the on-chip portion (used when a
// design point without retention releases a feature map whose data is
// already fully in DRAM).
func (r *resident) dropBuffer(pool *sram.Pool) error {
	if r.buf == nil {
		return nil
	}
	if r.buf.Pinned() {
		if err := pool.Unpin(r.buf); err != nil {
			return err
		}
	}
	if !r.buf.Freed() {
		if err := pool.Free(r.buf); err != nil {
			return err
		}
	}
	r.buf = nil
	r.onChip = 0
	return nil
}
