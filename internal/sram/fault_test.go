package sram

import (
	"errors"
	"testing"
)

func poolOf(t *testing.T, banks, bankBytes int) *Pool {
	t.Helper()
	p, err := NewPool(Config{NumBanks: banks, BankBytes: bankBytes})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRetireFreeBank(t *testing.T) {
	p := poolOf(t, 8, 1024)
	if err := p.RetireBank(3); err != nil {
		t.Fatalf("RetireBank: %v", err)
	}
	if !p.IsFailed(3) {
		t.Error("bank 3 should read as failed")
	}
	if p.FailedBanks() != 1 || p.InService() != 7 || p.FreeBanks() != 7 {
		t.Errorf("counts after retire: failed=%d inService=%d free=%d",
			p.FailedBanks(), p.InService(), p.FreeBanks())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	// Retired bank is never handed out again.
	b, err := p.Alloc(RoleOutput, "x", 7*1024)
	if err != nil {
		t.Fatalf("Alloc after retire: %v", err)
	}
	for _, bank := range b.Banks() {
		if bank == 3 {
			t.Error("retired bank 3 was allocated")
		}
	}
	if _, err := p.Alloc(RoleOutput, "y", 1024); !errors.Is(err, ErrInsufficient) {
		t.Errorf("pool should be exhausted at 7 usable banks, got %v", err)
	}
}

func TestRetireErrors(t *testing.T) {
	p := poolOf(t, 4, 1024)
	if err := p.RetireBank(-1); err == nil {
		t.Error("negative bank must fail")
	}
	if err := p.RetireBank(4); err == nil {
		t.Error("out-of-range bank must fail")
	}
	b, err := p.Alloc(RoleOutput, "x", 2048)
	if err != nil {
		t.Fatal(err)
	}
	owned := b.Banks()[0]
	if err := p.RetireBank(owned); !errors.Is(err, ErrBankOwned) {
		t.Errorf("retiring owned bank: got %v, want ErrBankOwned", err)
	}
	free := 0
	for p.IsFailed(free) || p.Owner(free) != nil {
		free++
	}
	if err := p.RetireBank(free); err != nil {
		t.Fatal(err)
	}
	if err := p.RetireBank(free); !errors.Is(err, ErrBankFailed) {
		t.Errorf("double retire: got %v, want ErrBankFailed", err)
	}
}

func TestOwner(t *testing.T) {
	p := poolOf(t, 4, 1024)
	b, err := p.Alloc(RoleOutput, "x", 2048)
	if err != nil {
		t.Fatal(err)
	}
	for _, bank := range b.Banks() {
		if p.Owner(bank) != b {
			t.Errorf("Owner(%d) != allocated buffer", bank)
		}
	}
	if p.Owner(-1) != nil || p.Owner(99) != nil {
		t.Error("out-of-range Owner must be nil")
	}
	freeBank := -1
	for i := 0; i < 4; i++ {
		if p.Owner(i) == nil {
			freeBank = i
		}
	}
	if freeBank < 0 {
		t.Fatal("no free bank found")
	}
}

func TestRelocateBank(t *testing.T) {
	p := poolOf(t, 6, 1024)
	b, err := p.Alloc(RoleRetained, "sc", 3*1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Pin(b); err != nil {
		t.Fatal(err)
	}
	before := b.Banks()
	victim := before[1]
	if err := p.RelocateBank(b, victim); err != nil {
		t.Fatalf("RelocateBank: %v", err)
	}
	after := b.Banks()
	if len(after) != 3 {
		t.Fatalf("bank count changed: %v", after)
	}
	if after[0] != before[0] || after[2] != before[2] {
		t.Errorf("unaffected positions moved: %v -> %v", before, after)
	}
	if after[1] == victim {
		t.Error("victim bank still in layout")
	}
	if !p.IsFailed(victim) {
		t.Error("victim not marked failed")
	}
	if p.Owner(after[1]) != b {
		t.Error("spare bank not owned by buffer")
	}
	if p.PinnedBanks() != 3 {
		t.Errorf("pinned count = %d, want 3", p.PinnedBanks())
	}
	if b.Bytes() != 3*1024 {
		t.Errorf("payload changed: %d", b.Bytes())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestRelocateNoSpare(t *testing.T) {
	p := poolOf(t, 2, 1024)
	b, err := p.Alloc(RoleOutput, "x", 2048)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RelocateBank(b, b.Banks()[0]); !errors.Is(err, ErrInsufficient) {
		t.Errorf("relocate with full pool: got %v, want ErrInsufficient", err)
	}
	if err := p.RelocateBank(b, 99); err == nil {
		t.Error("relocate of bank not in buffer must fail once a spare exists")
	}
}

func TestRelocateWrongBank(t *testing.T) {
	p := poolOf(t, 4, 1024)
	b, err := p.Alloc(RoleOutput, "x", 1024)
	if err != nil {
		t.Fatal(err)
	}
	other, err := p.Alloc(RoleOutput, "y", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RelocateBank(b, other.Banks()[0]); err == nil {
		t.Error("relocating a bank owned by another buffer must fail")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShrinkToZeroFreeThenRetire(t *testing.T) {
	// Retire every free bank one by one; pool must stay consistent and
	// end with zero capacity.
	p := poolOf(t, 5, 1024)
	for i := 0; i < 5; i++ {
		if err := p.RetireBank(i); err != nil {
			t.Fatalf("retire %d: %v", i, err)
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("invariants after retiring %d: %v", i, err)
		}
	}
	if p.InService() != 0 || p.FreeBanks() != 0 {
		t.Errorf("inService=%d free=%d, want 0/0", p.InService(), p.FreeBanks())
	}
	if b, got := p.AllocUpTo(RoleOutput, "x", 1024); b != nil || got != 0 {
		t.Error("dead pool must not allocate")
	}
	if p.Stats().BanksFailed != 5 {
		t.Errorf("BanksFailed = %d, want 5", p.Stats().BanksFailed)
	}
}

func TestAllocUpToNeverPanics(t *testing.T) {
	// The exact-fit path used to go through Alloc with a panic on the
	// "unreachable" error; exercise full, partial, and empty cases.
	p := poolOf(t, 4, 1024)
	b, got := p.AllocUpTo(RoleRetained, "full", 4*1024)
	if b == nil || got != 4*1024 || p.Stats().PartialAllocs != 0 {
		t.Fatalf("full fit: got %d, partials %d", got, p.Stats().PartialAllocs)
	}
	if err := p.Free(b); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(RoleOutput, "x", 3*1024); err != nil {
		t.Fatal(err)
	}
	b, got = p.AllocUpTo(RoleRetained, "partial", 4*1024)
	if b == nil || got != 1024 || p.Stats().PartialAllocs != 1 {
		t.Fatalf("partial fit: got %d, partials %d", got, p.Stats().PartialAllocs)
	}
	if b2, got2 := p.AllocUpTo(RoleRetained, "none", 1024); b2 != nil || got2 != 0 {
		t.Error("empty pool must return nil, 0")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRetireBankCorruptFreeList(t *testing.T) {
	// A bank that is unowned but missing from the free list is a
	// corruption RetireBank must refuse to mask.
	p := poolOf(t, 3, 1024)
	p.free = p.free[:len(p.free)-1] // simulate corruption
	gone := p.owner[0]
	_ = gone
	bank := -1
	for i := range p.owner {
		onFree := false
		for _, f := range p.free {
			if int(f) == i {
				onFree = true
			}
		}
		if !onFree && p.owner[i] == -1 {
			bank = i
		}
	}
	if bank < 0 {
		t.Fatal("setup failed")
	}
	if err := p.RetireBank(bank); err == nil {
		t.Error("retiring a bank missing from the free list must fail")
	}
}
