package sram

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refBuffer and refPool are the slice-based pool this package used
// before bank lists moved into the pool-wide link arrays: every buffer
// owns a []int of banks and resliced it in place. They are kept,
// unchanged apart from names and comments, as the oracle the linked
// Pool must match bank for bank (TestPoolMatchesOracle, FuzzPoolOps).
type refBuffer struct {
	pool   *refPool
	id     int
	role   Role
	tag    string
	banks  []int
	bytes  int64 // valid payload bytes, ≤ capacity
	pinned bool
	freed  bool

	Payload any
}

func (b *refBuffer) Banks() []int { return append([]int(nil), b.banks...) }

func (b *refBuffer) NumBanks() int { return len(b.banks) }

func (b *refBuffer) Bytes() int64 { return b.bytes }

func (b *refBuffer) CapacityBytes() int64 {
	return int64(len(b.banks)) * int64(b.pool.cfg.BankBytes)
}

func (b *refBuffer) Freed() bool { return b.freed }

type refPool struct {
	cfg       Config
	owner     []int  // bank -> buffer id, or -1 when free
	free      []int  // free bank indices, LIFO
	failed    []bool // bank -> retired from service (fault injection)
	numFailed int
	buffers   map[int]*refBuffer
	nextID    int
	pinned    int // banks owned by pinned buffers, kept incrementally
	observer  func(usedBanks, pinnedBanks int)

	stats Stats
}

func newRefPool(cfg Config) (*refPool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &refPool{
		cfg:     cfg,
		owner:   make([]int, cfg.NumBanks),
		free:    make([]int, cfg.NumBanks),
		failed:  make([]bool, cfg.NumBanks),
		buffers: make(map[int]*refBuffer),
	}
	for i := range p.owner {
		p.owner[i] = -1
		p.free[i] = cfg.NumBanks - 1 - i
	}
	return p, nil
}

func (p *refPool) FreeBanks() int { return len(p.free) }

func (p *refPool) UsedBanks() int { return p.cfg.NumBanks - len(p.free) - p.numFailed }

func (p *refPool) IsFailed(bank int) bool {
	return bank >= 0 && bank < len(p.failed) && p.failed[bank]
}

func (p *refPool) Owner(bank int) *refBuffer {
	if bank < 0 || bank >= len(p.owner) || p.owner[bank] < 0 {
		return nil
	}
	return p.buffers[p.owner[bank]]
}

func (p *refPool) Stats() Stats { return p.stats }

func (p *refPool) PinnedBanks() int { return p.pinned }

func (p *refPool) pop() int {
	bank := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return bank
}

func (p *refPool) grab(n int) []int {
	banks := make([]int, n)
	for i := range banks {
		banks[i] = p.pop()
	}
	return banks
}

func (p *refPool) noteUsage() {
	used, pinned := p.UsedBanks(), p.PinnedBanks()
	if used > p.stats.PeakUsedBanks {
		p.stats.PeakUsedBanks = used
	}
	if pinned > p.stats.PeakPinnedBanks {
		p.stats.PeakPinnedBanks = pinned
	}
	if p.observer != nil {
		p.observer(used, pinned)
	}
}

func (p *refPool) Alloc(role Role, tag string, bytes int64) (*refBuffer, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("sram: alloc of %d bytes for %q", bytes, tag)
	}
	need := p.cfg.BanksFor(bytes)
	if need > len(p.free) {
		return nil, fmt.Errorf("%w: need %d banks for %q, have %d", ErrInsufficient, need, tag, len(p.free))
	}
	b := &refBuffer{pool: p, id: p.nextID, role: role, tag: tag, banks: p.grab(need), bytes: bytes}
	p.nextID++
	for _, bank := range b.banks {
		p.owner[bank] = b.id
	}
	p.buffers[b.id] = b
	p.stats.Allocs++
	p.noteUsage()
	return b, nil
}

func (p *refPool) AllocUpTo(role Role, tag string, bytes int64) (*refBuffer, int64) {
	if bytes <= 0 {
		return nil, 0
	}
	n := p.cfg.BanksFor(bytes)
	partial := n > len(p.free)
	if partial {
		n = len(p.free)
	}
	if n == 0 {
		return nil, 0
	}
	got := int64(n) * int64(p.cfg.BankBytes)
	if got > bytes {
		got = bytes
	}
	b := &refBuffer{pool: p, id: p.nextID, role: role, tag: tag, banks: p.grab(n), bytes: got}
	p.nextID++
	for _, bank := range b.banks {
		p.owner[bank] = b.id
	}
	p.buffers[b.id] = b
	p.stats.Allocs++
	if partial {
		p.stats.PartialAllocs++
	}
	p.noteUsage()
	return b, got
}

func (p *refPool) RetireBank(bank int) error {
	if bank < 0 || bank >= p.cfg.NumBanks {
		return fmt.Errorf("sram: retire out-of-range bank %d", bank)
	}
	if p.failed[bank] {
		return fmt.Errorf("%w: bank %d", ErrBankFailed, bank)
	}
	if p.owner[bank] != -1 {
		b := p.buffers[p.owner[bank]]
		return fmt.Errorf("%w: bank %d holds %q", ErrBankOwned, bank, b.tag)
	}
	for i, f := range p.free {
		if f == bank {
			p.free = append(p.free[:i], p.free[i+1:]...)
			p.failed[bank] = true
			p.numFailed++
			p.stats.BanksFailed++
			return nil
		}
	}
	return fmt.Errorf("sram: bank %d unowned but not on free list", bank)
}

func (p *refPool) RelocateBank(b *refBuffer, bank int) error {
	if b.freed {
		return fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if len(p.free) == 0 {
		return fmt.Errorf("%w: no spare bank to relocate bank %d of %q", ErrInsufficient, bank, b.tag)
	}
	pos := -1
	for i, own := range b.banks {
		if own == bank {
			pos = i
			break
		}
	}
	if pos < 0 {
		return fmt.Errorf("sram: bank %d not owned by %q", bank, b.tag)
	}
	spare := p.pop()
	b.banks[pos] = spare
	p.owner[spare] = b.id
	p.owner[bank] = -1
	p.failed[bank] = true
	p.numFailed++
	p.stats.BanksFailed++
	p.stats.Relocations++
	p.noteUsage()
	return nil
}

func (p *refPool) Free(b *refBuffer) error {
	if b.freed {
		return fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if b.pinned {
		return fmt.Errorf("%w: cannot free %q", ErrPinned, b.tag)
	}
	for _, bank := range b.banks {
		p.owner[bank] = -1
		p.free = append(p.free, bank)
	}
	b.banks = nil
	b.bytes = 0
	b.freed = true
	b.Payload = nil
	delete(p.buffers, b.id)
	p.stats.Frees++
	p.noteUsage()
	return nil
}

func (p *refPool) SetRole(b *refBuffer, role Role) error {
	if b.freed {
		return fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if b.role != role {
		b.role = role
		p.stats.RoleSwitches++
	}
	return nil
}

func (p *refPool) Pin(b *refBuffer) error {
	if b.freed {
		return fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if !b.pinned {
		b.pinned = true
		p.pinned += len(b.banks)
		p.stats.Pins++
		p.noteUsage()
	}
	return nil
}

func (p *refPool) Unpin(b *refBuffer) error {
	if b.freed {
		return fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if b.pinned {
		b.pinned = false
		p.pinned -= len(b.banks)
		p.noteUsage()
	}
	return nil
}

func (p *refPool) ReleaseBanks(b *refBuffer, n int) error {
	if b.freed {
		return fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if b.pinned {
		return fmt.Errorf("%w: cannot release banks of %q", ErrPinned, b.tag)
	}
	if n < 0 || n > len(b.banks) {
		return fmt.Errorf("sram: release %d of %d banks of %q", n, len(b.banks), b.tag)
	}
	for _, bank := range b.banks[:n] {
		p.owner[bank] = -1
		p.free = append(p.free, bank)
	}
	b.banks = b.banks[n:]
	released := int64(n) * int64(p.cfg.BankBytes)
	if b.bytes > released {
		b.bytes -= released
	} else {
		b.bytes = 0
	}
	p.stats.BanksRecycled += int64(n)
	if len(b.banks) == 0 {
		b.freed = true
		b.Payload = nil
		delete(p.buffers, b.id)
		p.stats.Frees++
	}
	return nil
}

func (p *refPool) ReleaseTailBanks(b *refBuffer, n int) error {
	if b.freed {
		return fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if b.pinned {
		return fmt.Errorf("%w: cannot release banks of %q", ErrPinned, b.tag)
	}
	if n < 0 || n > len(b.banks) {
		return fmt.Errorf("sram: release %d of %d tail banks of %q", n, len(b.banks), b.tag)
	}
	keep := len(b.banks) - n
	for _, bank := range b.banks[keep:] {
		p.owner[bank] = -1
		p.free = append(p.free, bank)
	}
	b.banks = b.banks[:keep]
	if c := b.CapacityBytes(); b.bytes > c {
		b.bytes = c
	}
	p.stats.BanksEvicted += int64(n)
	if len(b.banks) == 0 {
		b.freed = true
		b.Payload = nil
		delete(p.buffers, b.id)
		p.stats.Frees++
	}
	return nil
}

func (p *refPool) Grow(b *refBuffer, bytes int64) (int64, error) {
	if b.freed {
		return 0, fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if bytes <= 0 {
		return 0, nil
	}
	added := int64(0)
	if spare := b.CapacityBytes() - b.bytes; spare > 0 {
		if spare > bytes {
			spare = bytes
		}
		b.bytes += spare
		added += spare
		bytes -= spare
	}
	for bytes > 0 && len(p.free) > 0 {
		bank := p.pop()
		p.owner[bank] = b.id
		b.banks = append(b.banks, bank)
		if b.pinned {
			p.pinned++
		}
		chunk := int64(p.cfg.BankBytes)
		if chunk > bytes {
			chunk = bytes
		}
		b.bytes += chunk
		added += chunk
		bytes -= chunk
	}
	p.noteUsage()
	return added, nil
}

func (p *refPool) CheckInvariants() error {
	const markFree = -1
	mark := make([]int, p.cfg.NumBanks)
	seen := 0
	who := func(m int) string {
		if m == markFree {
			return "free list"
		}
		return fmt.Sprintf("buffer %q", p.buffers[m-1].tag)
	}
	for _, bank := range p.free {
		if bank < 0 || bank >= p.cfg.NumBanks {
			return fmt.Errorf("sram: free list has out-of-range bank %d", bank)
		}
		if m := mark[bank]; m != 0 {
			return fmt.Errorf("sram: bank %d on free list and %s", bank, who(m))
		}
		mark[bank] = markFree
		seen++
		if p.owner[bank] != -1 {
			return fmt.Errorf("sram: free bank %d has owner %d", bank, p.owner[bank])
		}
		if p.failed[bank] {
			return fmt.Errorf("sram: retired bank %d on free list", bank)
		}
	}
	for id, b := range p.buffers {
		if b.freed {
			return fmt.Errorf("sram: freed buffer %q still registered", b.tag)
		}
		if b.id != id {
			return fmt.Errorf("sram: buffer id mismatch %d vs %d", b.id, id)
		}
		for _, bank := range b.banks {
			if bank < 0 || bank >= p.cfg.NumBanks {
				return fmt.Errorf("sram: buffer %q has out-of-range bank %d", b.tag, bank)
			}
			if m := mark[bank]; m != 0 {
				return fmt.Errorf("sram: bank %d owned by %q and %s", bank, b.tag, who(m))
			}
			mark[bank] = b.id + 1
			seen++
			if p.owner[bank] != b.id {
				return fmt.Errorf("sram: bank %d owner map says %d, buffer is %d", bank, p.owner[bank], b.id)
			}
			if p.failed[bank] {
				return fmt.Errorf("sram: retired bank %d owned by %q", bank, b.tag)
			}
		}
		if b.bytes > b.CapacityBytes() {
			return fmt.Errorf("sram: buffer %q payload %d exceeds capacity %d", b.tag, b.bytes, b.CapacityBytes())
		}
		if b.bytes < 0 {
			return fmt.Errorf("sram: buffer %q negative payload", b.tag)
		}
	}
	failed := 0
	for _, f := range p.failed {
		if f {
			failed++
		}
	}
	if failed != p.numFailed {
		return fmt.Errorf("sram: failed-bank count %d, marks say %d", p.numFailed, failed)
	}
	if seen+failed != p.cfg.NumBanks {
		return fmt.Errorf("sram: %d banks accounted for (+%d retired), pool has %d", seen, failed, p.cfg.NumBanks)
	}
	pinned := 0
	for _, b := range p.buffers {
		if b.pinned {
			pinned += len(b.banks)
		}
	}
	if pinned != p.pinned {
		return fmt.Errorf("sram: pinned-bank count %d, buffers say %d", p.pinned, pinned)
	}
	return nil
}

// Pool operations a tape byte decodes into; each op reads two more
// bytes of arguments.
const (
	poolOpAlloc = iota
	poolOpAllocUpTo
	poolOpGrow
	poolOpRelease
	poolOpReleaseTail
	poolOpRelocate
	poolOpRetire
	poolOpPin
	poolOpUnpin
	poolOpFree
	poolOpSetRole
	poolOpCount
)

// poolPair runs one op sequence on a Pool and on the reference. bufs
// and refs hold every buffer ever made, freed ones included, so ops on
// freed buffers are exercised too; bufs[i] is refs[i]'s twin.
type poolPair struct {
	p    *Pool
	ref  *refPool
	bufs []*Buffer
	refs []*refBuffer
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// step applies one op to both pools and returns a description of it,
// or an error naming the first disagreement in their results.
func (pp *poolPair) step(op, a, b byte) (string, error) {
	bankBytes := int64(pp.p.cfg.BankBytes)
	bytes := (int64(a%12) + 1) * bankBytes / 3
	pick := func(x byte) int { return int(x) % len(pp.bufs) }
	var got, want string
	var desc string
	switch op % poolOpCount {
	case poolOpAlloc, poolOpAllocUpTo:
		var nb *Buffer
		var rb *refBuffer
		if op%poolOpCount == poolOpAlloc {
			desc = fmt.Sprintf("Alloc(%d)", bytes)
			var err1, err2 error
			nb, err1 = pp.p.Alloc(Role(b%4), "t", bytes)
			rb, err2 = pp.ref.Alloc(Role(b%4), "t", bytes)
			got, want = errText(err1), errText(err2)
		} else {
			desc = fmt.Sprintf("AllocUpTo(%d)", bytes)
			var g1, g2 int64
			nb, g1 = pp.p.AllocUpTo(Role(b%4), "t", bytes)
			rb, g2 = pp.ref.AllocUpTo(Role(b%4), "t", bytes)
			got, want = fmt.Sprint(g1), fmt.Sprint(g2)
		}
		if (nb == nil) != (rb == nil) {
			return desc, fmt.Errorf("buffer %v, reference %v", nb != nil, rb != nil)
		}
		if nb != nil {
			pp.bufs, pp.refs = append(pp.bufs, nb), append(pp.refs, rb)
		}
	case poolOpRetire:
		bank := int(b) % (pp.p.cfg.NumBanks + 1)
		desc = fmt.Sprintf("RetireBank(%d)", bank)
		got, want = errText(pp.p.RetireBank(bank)), errText(pp.ref.RetireBank(bank))
	default:
		if len(pp.bufs) == 0 {
			return "no buffer yet", nil
		}
		i := pick(a)
		nb, rb := pp.bufs[i], pp.refs[i]
		var err1, err2 error
		switch op % poolOpCount {
		case poolOpGrow:
			by := int64(b%9) * bankBytes / 2
			desc = fmt.Sprintf("Grow(buffer %d, %d)", i, by)
			var g1, g2 int64
			g1, err1 = pp.p.Grow(nb, by)
			g2, err2 = pp.ref.Grow(rb, by)
			if g1 != g2 {
				return desc, fmt.Errorf("added %d, reference %d", g1, g2)
			}
		case poolOpRelease, poolOpReleaseTail:
			n := int(b) % (len(rb.banks) + 2)
			tail := op%poolOpCount == poolOpReleaseTail
			desc = fmt.Sprintf("Release(buffer %d, %d, tail=%v)", i, n, tail)
			if tail {
				err1, err2 = pp.p.ReleaseTailBanks(nb, n), pp.ref.ReleaseTailBanks(rb, n)
			} else {
				err1, err2 = pp.p.ReleaseBanks(nb, n), pp.ref.ReleaseBanks(rb, n)
			}
		case poolOpRelocate:
			// Even arguments name one of the buffer's own banks, odd ones
			// any bank at all.
			bank := int(b/2) % pp.p.cfg.NumBanks
			if b%2 == 0 && len(rb.banks) > 0 {
				bank = rb.banks[int(b/2)%len(rb.banks)]
			}
			desc = fmt.Sprintf("RelocateBank(buffer %d, %d)", i, bank)
			err1, err2 = pp.p.RelocateBank(nb, bank), pp.ref.RelocateBank(rb, bank)
		case poolOpPin:
			desc = fmt.Sprintf("Pin(buffer %d)", i)
			err1, err2 = pp.p.Pin(nb), pp.ref.Pin(rb)
		case poolOpUnpin:
			desc = fmt.Sprintf("Unpin(buffer %d)", i)
			err1, err2 = pp.p.Unpin(nb), pp.ref.Unpin(rb)
		case poolOpFree:
			desc = fmt.Sprintf("Free(buffer %d)", i)
			err1, err2 = pp.p.Free(nb), pp.ref.Free(rb)
		case poolOpSetRole:
			desc = fmt.Sprintf("SetRole(buffer %d, %d)", i, b%4)
			err1, err2 = pp.p.SetRole(nb, Role(b%4)), pp.ref.SetRole(rb, Role(b%4))
		}
		got, want = errText(err1), errText(err2)
	}
	if got != want {
		return desc, fmt.Errorf("result %q, reference %q", got, want)
	}
	return desc, pp.agree()
}

// agree compares everything observable about the two pools: each
// buffer's banks, payload and flags, every bank's owner, the free list
// in pop order, the counters, and the invariant checks.
func (pp *poolPair) agree() error {
	for i, b := range pp.bufs {
		r := pp.refs[i]
		if b.Freed() != r.freed || b.pinned != r.pinned || b.Bytes() != r.bytes || b.NumBanks() != len(r.banks) {
			return fmt.Errorf("buffer %d: freed %v pinned %v %d B %d banks, reference %v %v %d B %d banks",
				i, b.Freed(), b.pinned, b.Bytes(), b.NumBanks(), r.freed, r.pinned, r.bytes, len(r.banks))
		}
		if got, want := b.Banks(), r.Banks(); !slices.Equal(got, want) {
			return fmt.Errorf("buffer %d: banks %v, reference %v", i, got, want)
		}
	}
	for bank := range pp.p.cfg.NumBanks {
		got, want := -1, -1
		if b := pp.p.Owner(bank); b != nil {
			got = b.ID()
		}
		if r := pp.ref.Owner(bank); r != nil {
			want = r.id
		}
		if got != want || pp.p.IsFailed(bank) != pp.ref.IsFailed(bank) {
			return fmt.Errorf("bank %d: owner %d failed %v, reference %d %v",
				bank, got, pp.p.IsFailed(bank), want, pp.ref.IsFailed(bank))
		}
	}
	free := make([]int, len(pp.p.free))
	for i, bank := range pp.p.free {
		free[i] = int(bank)
	}
	if !slices.Equal(free, pp.ref.free) {
		return fmt.Errorf("free list %v, reference %v", free, pp.ref.free)
	}
	if got, want := pp.p.Stats(), pp.ref.Stats(); got != want {
		return fmt.Errorf("stats %+v, reference %+v", got, want)
	}
	if pp.p.UsedBanks() != pp.ref.UsedBanks() || pp.p.PinnedBanks() != pp.ref.PinnedBanks() {
		return fmt.Errorf("used/pinned %d/%d, reference %d/%d",
			pp.p.UsedBanks(), pp.p.PinnedBanks(), pp.ref.UsedBanks(), pp.ref.PinnedBanks())
	}
	if got, want := errText(pp.p.CheckInvariants()), errText(pp.ref.CheckInvariants()); got != want {
		return fmt.Errorf("invariants %q, reference %q", got, want)
	}
	return nil
}

// runPoolOps decodes a tape — pool size, bank size, then three bytes
// per op — and runs it on both pools, failing at the first
// disagreement with the ops that led to it.
func runPoolOps(t *testing.T, tape []byte) {
	t.Helper()
	if len(tape) < 2 {
		return
	}
	cfg := Config{NumBanks: int(tape[0])%32 + 1, BankBytes: 256 << (tape[1] % 3)}
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pp := &poolPair{p: p, ref: ref}
	var log []string
	for i := 2; i+2 < len(tape); i += 3 {
		desc, err := pp.step(tape[i], tape[i+1], tape[i+2])
		log = append(log, desc)
		if err != nil {
			t.Fatalf("%+v, after %d ops (last %s): %v\nops: %v", cfg, len(log), desc, err, log)
		}
	}
}

// TestPoolMatchesOracle runs seeded random op sequences on the linked
// Pool and the slice-based reference: bank identity, owners, free-list
// order, counters and every error must match after every op.
func TestPoolMatchesOracle(t *testing.T) {
	for seed := range int64(300) {
		rng := rand.New(rand.NewSource(seed))
		tape := make([]byte, 2+3*200)
		rng.Read(tape)
		runPoolOps(t, tape)
	}
}

// FuzzPoolOps is TestPoolMatchesOracle over arbitrary tapes.
func FuzzPoolOps(f *testing.F) {
	for seed := range int64(8) {
		rng := rand.New(rand.NewSource(seed))
		tape := make([]byte, 2+3*40)
		rng.Read(tape)
		f.Add(tape)
	}
	f.Fuzz(runPoolOps)
}
