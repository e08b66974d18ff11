package sram

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func newTestPool(t *testing.T, banks, bankBytes int) *Pool {
	t.Helper()
	p, err := NewPool(Config{NumBanks: banks, BankBytes: bankBytes})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustCheck(t *testing.T, p *Pool) {
	t.Helper()
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{NumBanks: 4, BankBytes: 1024}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (Config{NumBanks: 0, BankBytes: 1024}).Validate(); err == nil {
		t.Error("zero banks accepted")
	}
	if err := (Config{NumBanks: 4, BankBytes: 0}).Validate(); err == nil {
		t.Error("zero bank bytes accepted")
	}
	if _, err := NewPool(Config{}); err == nil {
		t.Error("NewPool with zero config accepted")
	}
}

func TestConfigBanksFor(t *testing.T) {
	c := Config{NumBanks: 8, BankBytes: 1000}
	cases := []struct {
		bytes int64
		want  int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {999, 1}, {1000, 1}, {1001, 2}, {8000, 8},
	}
	for _, tc := range cases {
		if got := c.BanksFor(tc.bytes); got != tc.want {
			t.Errorf("BanksFor(%d) = %d, want %d", tc.bytes, got, tc.want)
		}
	}
	if c.TotalBytes() != 8000 {
		t.Errorf("TotalBytes = %d", c.TotalBytes())
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	p := newTestPool(t, 8, 1024)
	b, err := p.Alloc(RoleInput, "fm0", 3000)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumBanks() != 3 {
		t.Errorf("banks = %d, want 3", b.NumBanks())
	}
	if b.Bytes() != 3000 {
		t.Errorf("bytes = %d", b.Bytes())
	}
	if b.CapacityBytes() != 3072 {
		t.Errorf("capacity = %d", b.CapacityBytes())
	}
	if p.FreeBanks() != 5 || p.UsedBanks() != 3 {
		t.Errorf("free=%d used=%d", p.FreeBanks(), p.UsedBanks())
	}
	mustCheck(t, p)
	if err := p.Free(b); err != nil {
		t.Fatal(err)
	}
	if p.FreeBanks() != 8 {
		t.Errorf("free after Free = %d", p.FreeBanks())
	}
	if !b.Freed() {
		t.Error("buffer not marked freed")
	}
	mustCheck(t, p)
}

func TestAllocRejectsNonPositive(t *testing.T) {
	p := newTestPool(t, 4, 1024)
	if _, err := p.Alloc(RoleInput, "z", 0); err == nil {
		t.Error("zero-byte alloc accepted")
	}
	if _, err := p.Alloc(RoleInput, "z", -10); err == nil {
		t.Error("negative alloc accepted")
	}
}

func TestAllocInsufficientLeavesPoolUnchanged(t *testing.T) {
	p := newTestPool(t, 4, 1024)
	if _, err := p.Alloc(RoleInput, "a", 3*1024); err != nil {
		t.Fatal(err)
	}
	_, err := p.Alloc(RoleOutput, "b", 2*1024)
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("want ErrInsufficient, got %v", err)
	}
	if p.FreeBanks() != 1 {
		t.Errorf("failed alloc consumed banks: free=%d", p.FreeBanks())
	}
	mustCheck(t, p)
}

func TestAllocUpToFullWhenItFits(t *testing.T) {
	p := newTestPool(t, 8, 1024)
	b, got := p.AllocUpTo(RoleRetained, "sc", 2048)
	if b == nil || got != 2048 {
		t.Fatalf("got %d bytes", got)
	}
	if b.NumBanks() != 2 {
		t.Errorf("banks = %d", b.NumBanks())
	}
	mustCheck(t, p)
}

func TestAllocUpToPartial(t *testing.T) {
	p := newTestPool(t, 4, 1024)
	if _, err := p.Alloc(RoleInput, "a", 2*1024); err != nil {
		t.Fatal(err)
	}
	b, got := p.AllocUpTo(RoleRetained, "sc", 10*1024)
	if b == nil {
		t.Fatal("nil buffer from partial alloc")
	}
	if got != 2*1024 {
		t.Errorf("retained %d bytes, want %d", got, 2*1024)
	}
	if p.FreeBanks() != 0 {
		t.Errorf("free = %d", p.FreeBanks())
	}
	if p.Stats().PartialAllocs != 1 {
		t.Errorf("partial allocs = %d", p.Stats().PartialAllocs)
	}
	mustCheck(t, p)
}

func TestAllocUpToEmptyPool(t *testing.T) {
	p := newTestPool(t, 2, 1024)
	if _, err := p.Alloc(RoleInput, "a", 2*1024); err != nil {
		t.Fatal(err)
	}
	b, got := p.AllocUpTo(RoleRetained, "sc", 1024)
	if b != nil || got != 0 {
		t.Errorf("expected nil/0 from full pool, got %v/%d", b, got)
	}
	if b2, got2 := p.AllocUpTo(RoleRetained, "sc", 0); b2 != nil || got2 != 0 {
		t.Error("AllocUpTo(0) should return nil")
	}
	mustCheck(t, p)
}

func TestAllocUpToCapsAtRequest(t *testing.T) {
	// When the last free bank is bigger than the residual request, the
	// payload must report the request, not the bank capacity.
	p := newTestPool(t, 2, 1024)
	if _, err := p.Alloc(RoleInput, "a", 1024); err != nil {
		t.Fatal(err)
	}
	b, got := p.AllocUpTo(RoleRetained, "sc", 100)
	if b == nil || got != 100 {
		t.Fatalf("got %d, want 100", got)
	}
	if b.Bytes() != 100 {
		t.Errorf("payload = %d", b.Bytes())
	}
}

func TestSetRoleIsZeroCopy(t *testing.T) {
	p := newTestPool(t, 8, 1024)
	b, err := p.Alloc(RoleOutput, "fm1", 3000)
	if err != nil {
		t.Fatal(err)
	}
	payload := []float32{1, 2, 3}
	b.Payload = payload
	banksBefore := b.Banks()
	if err := p.SetRole(b, RoleInput); err != nil {
		t.Fatal(err)
	}
	if b.Role() != RoleInput {
		t.Errorf("role = %v", b.Role())
	}
	banksAfter := b.Banks()
	if len(banksBefore) != len(banksAfter) {
		t.Fatal("bank count changed on role switch")
	}
	for i := range banksBefore {
		if banksBefore[i] != banksAfter[i] {
			t.Errorf("bank %d moved: %d → %d", i, banksBefore[i], banksAfter[i])
		}
	}
	if got, ok := b.Payload.([]float32); !ok || &got[0] != &payload[0] {
		t.Error("payload identity lost on role switch")
	}
	if p.Stats().RoleSwitches != 1 {
		t.Errorf("role switches = %d", p.Stats().RoleSwitches)
	}
	// Same-role switch is a no-op for stats.
	if err := p.SetRole(b, RoleInput); err != nil {
		t.Fatal(err)
	}
	if p.Stats().RoleSwitches != 1 {
		t.Errorf("no-op switch counted")
	}
}

func TestPinBlocksFreeAndRelease(t *testing.T) {
	p := newTestPool(t, 8, 1024)
	b, err := p.Alloc(RoleRetained, "sc", 2048)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Pin(b); err != nil {
		t.Fatal(err)
	}
	if !b.Pinned() {
		t.Error("not pinned")
	}
	if err := p.Free(b); !errors.Is(err, ErrPinned) {
		t.Errorf("Free on pinned: %v", err)
	}
	if err := p.ReleaseBanks(b, 1); !errors.Is(err, ErrPinned) {
		t.Errorf("ReleaseBanks on pinned: %v", err)
	}
	if p.PinnedBanks() != 2 {
		t.Errorf("pinned banks = %d", p.PinnedBanks())
	}
	if err := p.Unpin(b); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(b); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, p)
}

func TestDoublePinIdempotent(t *testing.T) {
	p := newTestPool(t, 2, 1024)
	b, _ := p.Alloc(RoleRetained, "sc", 100)
	if err := p.Pin(b); err != nil {
		t.Fatal(err)
	}
	if err := p.Pin(b); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Pins != 1 {
		t.Errorf("pins = %d, want 1", p.Stats().Pins)
	}
}

func TestUseAfterFree(t *testing.T) {
	p := newTestPool(t, 4, 1024)
	b, _ := p.Alloc(RoleInput, "fm", 100)
	if err := p.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(b); !errors.Is(err, ErrReleased) {
		t.Errorf("double free: %v", err)
	}
	if err := p.SetRole(b, RoleOutput); !errors.Is(err, ErrReleased) {
		t.Errorf("SetRole after free: %v", err)
	}
	if err := p.Pin(b); !errors.Is(err, ErrReleased) {
		t.Errorf("Pin after free: %v", err)
	}
	if err := p.Unpin(b); !errors.Is(err, ErrReleased) {
		t.Errorf("Unpin after free: %v", err)
	}
	if err := p.ReleaseBanks(b, 0); !errors.Is(err, ErrReleased) {
		t.Errorf("ReleaseBanks after free: %v", err)
	}
}

func TestReleaseBanksIncremental(t *testing.T) {
	p := newTestPool(t, 8, 1024)
	b, err := p.Alloc(RoleRetained, "sc", 4000) // 4 banks
	if err != nil {
		t.Fatal(err)
	}
	banks := b.Banks()
	if err := p.ReleaseBanks(b, 2); err != nil {
		t.Fatal(err)
	}
	if b.NumBanks() != 2 {
		t.Errorf("banks = %d", b.NumBanks())
	}
	// Remaining banks are the original suffix, in order.
	rest := b.Banks()
	if rest[0] != banks[2] || rest[1] != banks[3] {
		t.Errorf("banks = %v, want suffix of %v", rest, banks)
	}
	if b.Bytes() != 4000-2048 {
		t.Errorf("bytes = %d", b.Bytes())
	}
	if p.FreeBanks() != 6 {
		t.Errorf("free = %d", p.FreeBanks())
	}
	if p.Stats().BanksRecycled != 2 {
		t.Errorf("recycled = %d", p.Stats().BanksRecycled)
	}
	mustCheck(t, p)
	// Releasing the rest frees the buffer entirely.
	if err := p.ReleaseBanks(b, 2); err != nil {
		t.Fatal(err)
	}
	if !b.Freed() {
		t.Error("full release did not free buffer")
	}
	if p.FreeBanks() != 8 {
		t.Errorf("free = %d", p.FreeBanks())
	}
	mustCheck(t, p)
}

func TestReleaseBanksClampsPayload(t *testing.T) {
	p := newTestPool(t, 4, 1024)
	b, _ := p.Alloc(RoleRetained, "sc", 1100) // 2 banks, payload 1100
	if err := p.ReleaseBanks(b, 1); err != nil {
		t.Fatal(err)
	}
	if b.Bytes() != 76 { // 1100-1024
		t.Errorf("bytes = %d", b.Bytes())
	}
	// A second release of more banks than remain is rejected.
	if err := p.ReleaseBanks(b, 2); err == nil {
		t.Error("over-release accepted")
	}
	if err := p.ReleaseBanks(b, -1); err == nil {
		t.Error("negative release accepted")
	}
}

func TestRecycledBanksImmediatelyReusable(t *testing.T) {
	// The P4 scenario: the pool is full, the add consumes shortcut
	// banks and allocates output banks from the recycled space.
	p := newTestPool(t, 4, 1024)
	sc, err := p.Alloc(RoleRetained, "shortcut", 2*1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(RoleInput, "in", 2*1024); err != nil {
		t.Fatal(err)
	}
	if p.FreeBanks() != 0 {
		t.Fatal("pool should be full")
	}
	// Consume half the shortcut, then place half the output.
	if err := p.ReleaseBanks(sc, 1); err != nil {
		t.Fatal(err)
	}
	out1, err := p.Alloc(RoleOutput, "out", 1024)
	if err != nil {
		t.Fatalf("recycled bank not reusable: %v", err)
	}
	if err := p.ReleaseBanks(sc, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(RoleOutput, "out2", 1024); err != nil {
		t.Fatalf("second recycled bank not reusable: %v", err)
	}
	_ = out1
	mustCheck(t, p)
}

func TestPeakTracking(t *testing.T) {
	p := newTestPool(t, 8, 1024)
	a, _ := p.Alloc(RoleInput, "a", 4*1024)
	b, _ := p.Alloc(RoleOutput, "b", 2*1024)
	if err := p.Pin(b); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin(b); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(a); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.PeakUsedBanks != 6 {
		t.Errorf("peak used = %d, want 6", st.PeakUsedBanks)
	}
	if st.PeakPinnedBanks != 2 {
		t.Errorf("peak pinned = %d, want 2", st.PeakPinnedBanks)
	}
}

func TestBuffersSortedAndRoles(t *testing.T) {
	p := newTestPool(t, 8, 1024)
	a, _ := p.Alloc(RoleInput, "a", 100)
	b, _ := p.Alloc(RoleOutput, "b", 100)
	c, _ := p.Alloc(RoleRetained, "c", 100)
	bufs := p.Buffers()
	if len(bufs) != 3 || bufs[0] != a || bufs[1] != b || bufs[2] != c {
		t.Errorf("Buffers order wrong")
	}
	if RoleInput.String() != "input" || RoleOutput.String() != "output" ||
		RoleRetained.String() != "retained" || RoleScratch.String() != "scratch" {
		t.Error("role strings wrong")
	}
}

func TestFreeClearsPayload(t *testing.T) {
	p := newTestPool(t, 2, 1024)
	b, _ := p.Alloc(RoleInput, "a", 100)
	b.Payload = "data"
	if err := p.Free(b); err != nil {
		t.Fatal(err)
	}
	if b.Payload != nil {
		t.Error("payload survived Free")
	}
}

// TestPoolObserver: the occupancy high-water marks in Stats, which
// observed runs expose as the pool peak gauges, ratchet up across
// alloc and pin and hold through unpin and free.
func TestPoolObserver(t *testing.T) {
	p := newTestPool(t, 8, 1024)
	peaks := func(when string, used, pinned int) {
		t.Helper()
		if s := p.Stats(); s.PeakUsedBanks != used || s.PeakPinnedBanks != pinned {
			t.Errorf("after %s: peaks used=%d pinned=%d, want %d, %d",
				when, s.PeakUsedBanks, s.PeakPinnedBanks, used, pinned)
		}
	}
	peaks("new pool", 0, 0)
	b, err := p.Alloc(RoleOutput, "fm0", 2048)
	if err != nil {
		t.Fatal(err)
	}
	peaks("alloc", 2, 0)
	if err := p.Pin(b); err != nil {
		t.Fatal(err)
	}
	peaks("pin", 2, 2)
	if err := p.Unpin(b); err != nil {
		t.Fatal(err)
	}
	peaks("unpin", 2, 2)
	if err := p.Free(b); err != nil {
		t.Fatal(err)
	}
	peaks("free", 2, 2)
	if _, err := p.Alloc(RoleInput, "fm1", 3072); err != nil {
		t.Fatal(err)
	}
	peaks("a larger alloc", 3, 2)
	mustCheck(t, p)
}

// TestCheckInvariantsReportsDoubleClaims corrupts a pool so that one
// bank is claimed twice, every way it can be, and pins the error text
// that names both claimants. It also breaks each part of a buffer's
// list (a back-link, the tail, the count) and closes a list into a
// loop, which must be reported, not walked forever.
func TestCheckInvariantsReportsDoubleClaims(t *testing.T) {
	setup := func() (*Pool, *Buffer, *Buffer) {
		p := newTestPool(t, 6, 1024)
		a, err := p.Alloc(RoleOutput, "a", 2048) // banks 0, 1
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Alloc(RoleOutput, "b", 1024) // bank 2
		if err != nil {
			t.Fatal(err)
		}
		mustCheck(t, p)
		return p, a, b
	}
	// Each corruption returns the text the error must contain.
	cases := []struct {
		name    string
		corrupt func(p *Pool, a, b *Buffer) string
	}{
		{"free twice", func(p *Pool, a, b *Buffer) string {
			p.free = append(p.free, p.free[0])
			return fmt.Sprintf("bank %d on free list and free list", p.free[0])
		}},
		{"free and owned", func(p *Pool, a, b *Buffer) string {
			p.free = append(p.free, a.head)
			p.owner[a.head] = ownerFree
			return fmt.Sprintf(`bank %d owned by "a" and free list`, a.head)
		}},
		// A list reaches one bank twice only by looping back on itself:
		// here b's single bank links to itself. Two buffers sharing a
		// bank would trip the owner check first or second depending on
		// the map order the buffers are visited in.
		{"owned twice", func(p *Pool, a, b *Buffer) string {
			p.next[b.tail] = b.head
			return fmt.Sprintf(`bank %d owned by "b" and buffer "b"`, b.head)
		}},
		{"cycle", func(p *Pool, a, b *Buffer) string {
			p.next[a.tail] = a.head
			return fmt.Sprintf(`bank %d owned by "a" and buffer "a"`, a.head)
		}},
		{"broken back-link", func(p *Pool, a, b *Buffer) string {
			p.prev[a.tail] = -1
			return fmt.Sprintf(`bank %d of "a" links back to -1, not %d`, a.tail, a.head)
		}},
		{"tail short of the list's end", func(p *Pool, a, b *Buffer) string {
			a.tail = a.head
			return fmt.Sprintf(`buffer "a" ends at bank 1, its tail is %d`, a.head)
		}},
		{"count off", func(p *Pool, a, b *Buffer) string {
			a.n++
			return `buffer "a" lists 2 banks, counts 3`
		}},
	}
	for _, c := range cases {
		p, a, b := setup()
		want := c.corrupt(p, a, b)
		err := p.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want it to contain %q", c.name, err, want)
		}
		// Banks walks at most the buffer's count, loop or not.
		if got := a.Banks(); len(got) > a.NumBanks() {
			t.Errorf("%s: Banks() = %v for a %d-bank buffer", c.name, got, a.NumBanks())
		}
	}
}
