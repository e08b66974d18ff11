package sram

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

// opCode drives the randomized pool exerciser. Each byte of the quick
// input decodes into one pool operation applied to a live buffer (or an
// allocation when none applies).
type opCode byte

const (
	opAlloc opCode = iota
	opAllocUpTo
	opFree
	opSwitch
	opPin
	opUnpin
	opRelease
	opReleaseTail // tail release, then regrowth
	opReleaseGrow // head release, then regrowth
	opGrow
	opCount
)

// applyOps replays a random operation tape against a fresh pool and
// checks invariants after every step. Every buffer's layout lives in
// the pool's shared link arrays, so every step also checks for
// aliasing: Banks() copies taken before the step must not change, and
// buffers the step does not touch must keep their layout. It returns an error describing the first
// violation.
func applyOps(numBanks, bankBytes int, tape []byte) error {
	p, err := NewPool(Config{NumBanks: numBanks, BankBytes: bankBytes})
	if err != nil {
		return err
	}
	var live []*Buffer
	pick := func(b byte) *Buffer {
		if len(live) == 0 {
			return nil
		}
		return live[int(b)%len(live)]
	}
	drop := func(target *Buffer) {
		for i, b := range live {
			if b == target {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	// grow extends b and checks that its existing layout is a prefix of
	// the grown one.
	grow := func(b *Buffer, arg byte) error {
		prev := b.Banks()
		if _, err := p.Grow(b, int64(arg%5)*int64(bankBytes)/2+1); err != nil {
			return err
		}
		if got := b.Banks(); !slices.Equal(got[:len(prev)], prev) {
			return fmt.Errorf("grow rewrote layout %v into %v", prev, got)
		}
		return p.CheckInvariants()
	}
	// releaseThenGrow applies a head or tail release, checks the
	// surviving layout, and grows the survivor back into the pool.
	releaseThenGrow := func(b *Buffer, arg byte, tail bool) error {
		prev := b.Banks()
		n := int(arg) % (len(prev) + 1)
		keep := prev[n:]
		var err error
		if tail {
			keep = prev[:len(prev)-n]
			err = p.ReleaseTailBanks(b, n)
		} else {
			err = p.ReleaseBanks(b, n)
		}
		if err != nil {
			return err
		}
		if b.Freed() {
			drop(b)
			return nil
		}
		if got := b.Banks(); !slices.Equal(got, keep) {
			return fmt.Errorf("release(%d, tail=%v) of %v left %v", n, tail, prev, got)
		}
		if err := p.CheckInvariants(); err != nil {
			return err
		}
		return grow(b, arg)
	}
	type bankCopy struct {
		buf     *Buffer
		view    []int // returned by Banks() before the step
		want    []int // private duplicate of view
		touched bool  // the step may change this buffer's layout
	}
	for i := 0; i+1 < len(tape); i += 2 {
		op, arg := opCode(tape[i])%opCount, tape[i+1]
		copies := make([]bankCopy, len(live))
		for j, b := range live {
			c := b.Banks()
			copies[j] = bankCopy{buf: b, view: c, want: slices.Clone(c)}
		}
		touch := func(b *Buffer) {
			for j := range copies {
				if copies[j].buf == b {
					copies[j].touched = true
				}
			}
		}
		switch op {
		case opAlloc:
			bytes := int64(arg%7+1) * int64(bankBytes) / 2
			if bytes == 0 {
				bytes = 1
			}
			b, err := p.Alloc(Role(arg%4), fmt.Sprintf("fm%d", i), bytes)
			if err == nil {
				live = append(live, b)
			}
		case opAllocUpTo:
			bytes := int64(arg%9+1) * int64(bankBytes)
			if b, got := p.AllocUpTo(RoleRetained, fmt.Sprintf("sc%d", i), bytes); b != nil {
				if got <= 0 || got > bytes {
					return fmt.Errorf("step %d: AllocUpTo returned %d of %d", i, got, bytes)
				}
				live = append(live, b)
			}
		case opFree:
			if b := pick(arg); b != nil && !b.Pinned() {
				if err := p.Free(b); err != nil {
					return fmt.Errorf("step %d: %v", i, err)
				}
				drop(b)
			}
		case opSwitch:
			if b := pick(arg); b != nil {
				if err := p.SetRole(b, Role(arg%4)); err != nil {
					return fmt.Errorf("step %d: %v", i, err)
				}
			}
		case opPin:
			if b := pick(arg); b != nil {
				if err := p.Pin(b); err != nil {
					return fmt.Errorf("step %d: %v", i, err)
				}
			}
		case opUnpin:
			if b := pick(arg); b != nil {
				if err := p.Unpin(b); err != nil {
					return fmt.Errorf("step %d: %v", i, err)
				}
			}
		case opRelease:
			if b := pick(arg); b != nil && !b.Pinned() {
				touch(b)
				n := int(arg) % (b.NumBanks() + 1)
				if err := p.ReleaseBanks(b, n); err != nil {
					return fmt.Errorf("step %d: %v", i, err)
				}
				if b.Freed() {
					drop(b)
				}
			}
		case opReleaseTail, opReleaseGrow:
			if b := pick(arg); b != nil && !b.Pinned() {
				touch(b)
				if err := releaseThenGrow(b, arg, op == opReleaseTail); err != nil {
					return fmt.Errorf("step %d: %v", i, err)
				}
			}
		case opGrow:
			if b := pick(arg); b != nil {
				touch(b)
				if err := grow(b, arg); err != nil {
					return fmt.Errorf("step %d: %v", i, err)
				}
			}
		}
		for _, c := range copies {
			if !slices.Equal(c.view, c.want) {
				return fmt.Errorf("step %d (op %d): Banks() copy of %q changed from %v to %v", i, op, c.buf.Tag(), c.want, c.view)
			}
			if !c.touched && !c.buf.Freed() && !slices.Equal(c.buf.Banks(), c.want) {
				return fmt.Errorf("step %d (op %d): untouched buffer %q moved from %v to %v", i, op, c.buf.Tag(), c.want, c.buf.Banks())
			}
		}
		if err := p.CheckInvariants(); err != nil {
			return fmt.Errorf("step %d (op %d): %v", i, op, err)
		}
		if p.FreeBanks()+p.UsedBanks() != numBanks {
			return fmt.Errorf("step %d: bank conservation broken: %d+%d != %d",
				i, p.FreeBanks(), p.UsedBanks(), numBanks)
		}
	}
	// Drain: everything must be freeable and the pool must return to
	// its initial state.
	for _, b := range live {
		if b.Pinned() {
			if err := p.Unpin(b); err != nil {
				return err
			}
		}
		if err := p.Free(b); err != nil {
			return err
		}
	}
	if p.FreeBanks() != numBanks {
		return fmt.Errorf("drain left %d of %d banks free", p.FreeBanks(), numBanks)
	}
	return p.CheckInvariants()
}

func TestQuickPoolInvariants(t *testing.T) {
	f := func(tape []byte, banks, bankKB uint8) bool {
		nb := int(banks%32) + 1
		bb := (int(bankKB%8) + 1) * 256
		if err := applyOps(nb, bb, tape); err != nil {
			t.Logf("banks=%d bankBytes=%d: %v", nb, bb, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickAllocNeverOverlaps(t *testing.T) {
	// Property: any sequence of full allocations yields disjoint bank
	// sets whose union size equals the used-bank count.
	f := func(sizes []uint16) bool {
		p, err := NewPool(Config{NumBanks: 64, BankBytes: 512})
		if err != nil {
			return false
		}
		owned := map[int]bool{}
		total := 0
		for i, s := range sizes {
			bytes := int64(s%4096) + 1
			b, err := p.Alloc(RoleInput, fmt.Sprintf("f%d", i), bytes)
			if err != nil {
				break
			}
			for _, bank := range b.Banks() {
				if owned[bank] {
					return false
				}
				owned[bank] = true
			}
			total += b.NumBanks()
		}
		return total == p.UsedBanks() && len(owned) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickReleasePreservesSuffix(t *testing.T) {
	// Property: ReleaseBanks(n) leaves exactly the bank suffix and the
	// payload shrinks by the released capacity (clamped at zero).
	f := func(nBanks, rel uint8) bool {
		p, err := NewPool(Config{NumBanks: 32, BankBytes: 1024})
		if err != nil {
			return false
		}
		n := int(nBanks%16) + 1
		payload := int64(n)*1024 - 100
		b, err := p.Alloc(RoleRetained, "sc", payload)
		if err != nil {
			return false
		}
		before := b.Banks()
		r := int(rel) % (n + 1)
		if err := p.ReleaseBanks(b, r); err != nil {
			return false
		}
		if r == n {
			return b.Freed() && p.FreeBanks() == 32
		}
		after := b.Banks()
		if len(after) != n-r {
			return false
		}
		for i := range after {
			if after[i] != before[r+i] {
				return false
			}
		}
		wantBytes := payload - int64(r)*1024
		if wantBytes < 0 {
			wantBytes = 0
		}
		return b.Bytes() == wantBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBankMovesAllocateNothing pins the per-bank pool moves of P4
// recycling as allocation-free: growing an existing buffer by one bank
// and releasing one head bank only reslice the buffer's own bank list
// and the pool's free list.
func TestBankMovesAllocateNothing(t *testing.T) {
	const bank = 1024
	p, err := NewPool(Config{NumBanks: 96, BankBytes: bank})
	if err != nil {
		t.Fatal(err)
	}
	src, err := p.Alloc(RoleRetained, "shortcut", 40*bank)
	if err != nil {
		t.Fatal(err)
	}
	// An output that once held 41 banks keeps the capacity to regrow.
	out, err := p.Alloc(RoleOutput, "out", 41*bank)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ReleaseTailBanks(out, 40); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := p.ReleaseBanks(src, 1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReleaseBanks(b, 1): %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if added, err := p.Grow(out, bank); err != nil || added != bank {
			t.Fatalf("Grow: added %d, err %v", added, err)
		}
	}); n != 0 {
		t.Errorf("Grow of one bank: %v allocs, want 0", n)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
