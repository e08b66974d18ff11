package sram

import (
	"errors"
	"testing"
)

func TestGrowUsesSpareCapacityFirst(t *testing.T) {
	p := newTestPool(t, 8, 1024)
	b, err := p.Alloc(RoleOutput, "o", 1000) // 1 bank, 24 bytes spare
	if err != nil {
		t.Fatal(err)
	}
	added, err := p.Grow(b, 24)
	if err != nil {
		t.Fatal(err)
	}
	if added != 24 || b.NumBanks() != 1 || b.Bytes() != 1024 {
		t.Errorf("added=%d banks=%d bytes=%d", added, b.NumBanks(), b.Bytes())
	}
	mustCheck(t, p)
}

func TestGrowAcquiresBanks(t *testing.T) {
	p := newTestPool(t, 4, 1024)
	b, _ := p.Alloc(RoleOutput, "o", 1024)
	added, err := p.Grow(b, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if added != 2048 || b.NumBanks() != 3 || b.Bytes() != 3072 {
		t.Errorf("added=%d banks=%d bytes=%d", added, b.NumBanks(), b.Bytes())
	}
	mustCheck(t, p)
}

func TestGrowBoundedByFreeBanks(t *testing.T) {
	p := newTestPool(t, 2, 1024)
	b, _ := p.Alloc(RoleOutput, "o", 1024)
	added, err := p.Grow(b, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if added != 1024 { // only one free bank
		t.Errorf("added = %d, want 1024", added)
	}
	if p.FreeBanks() != 0 {
		t.Errorf("free = %d", p.FreeBanks())
	}
	mustCheck(t, p)
}

func TestGrowZeroAndFreed(t *testing.T) {
	p := newTestPool(t, 2, 1024)
	b, _ := p.Alloc(RoleOutput, "o", 100)
	if added, err := p.Grow(b, 0); err != nil || added != 0 {
		t.Errorf("grow 0 = %d, %v", added, err)
	}
	if err := p.Free(b); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Grow(b, 10); !errors.Is(err, ErrReleased) {
		t.Errorf("grow after free: %v", err)
	}
}

func TestReleaseTailBanksKeepsPrefix(t *testing.T) {
	p := newTestPool(t, 8, 1024)
	b, err := p.Alloc(RoleRetained, "sc", 4000) // 4 banks, payload 4000
	if err != nil {
		t.Fatal(err)
	}
	banks := b.Banks()
	if err := p.ReleaseTailBanks(b, 2); err != nil {
		t.Fatal(err)
	}
	rest := b.Banks()
	if len(rest) != 2 || rest[0] != banks[0] || rest[1] != banks[1] {
		t.Errorf("banks = %v, want prefix of %v", rest, banks)
	}
	if b.Bytes() != 2048 { // payload clamped to remaining capacity
		t.Errorf("bytes = %d", b.Bytes())
	}
	if p.Stats().BanksEvicted != 2 {
		t.Errorf("evicted = %d", p.Stats().BanksEvicted)
	}
	mustCheck(t, p)
	// Full tail release frees the buffer.
	if err := p.ReleaseTailBanks(b, 2); err != nil {
		t.Fatal(err)
	}
	if !b.Freed() || p.FreeBanks() != 8 {
		t.Error("full tail release did not free")
	}
	mustCheck(t, p)
}

func TestReleaseTailBanksGuards(t *testing.T) {
	p := newTestPool(t, 4, 1024)
	b, _ := p.Alloc(RoleRetained, "sc", 2048)
	if err := p.Pin(b); err != nil {
		t.Fatal(err)
	}
	if err := p.ReleaseTailBanks(b, 1); !errors.Is(err, ErrPinned) {
		t.Errorf("tail release on pinned: %v", err)
	}
	if err := p.Unpin(b); err != nil {
		t.Fatal(err)
	}
	if err := p.ReleaseTailBanks(b, 5); err == nil {
		t.Error("over-release accepted")
	}
	if err := p.ReleaseTailBanks(b, -1); err == nil {
		t.Error("negative release accepted")
	}
	if err := p.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := p.ReleaseTailBanks(b, 0); !errors.Is(err, ErrReleased) {
		t.Errorf("tail release after free: %v", err)
	}
}

func TestReleaseTailShortPayload(t *testing.T) {
	// Payload smaller than remaining capacity is untouched by a tail
	// release of an empty-capacity bank.
	p := newTestPool(t, 4, 1024)
	b, _ := p.Alloc(RoleRetained, "sc", 1100) // 2 banks, payload 1100
	if err := p.ReleaseTailBanks(b, 1); err != nil {
		t.Fatal(err)
	}
	if b.Bytes() != 1024 { // clamped to one bank
		t.Errorf("bytes = %d", b.Bytes())
	}
	mustCheck(t, p)
}
