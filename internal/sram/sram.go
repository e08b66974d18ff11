// Package sram models the on-chip buffer architecture that Shortcut
// Mining is built on: a pool of physical SRAM banks from which
// *logical buffers* are composed at run time.
//
// The package provides exactly the primitives the paper's procedures
// need:
//
//   - logical buffer formation over free banks (procedure P1),
//   - zero-copy role switching, so one layer's output buffer becomes
//     the next layer's input buffer (P2),
//   - pinning, so a shortcut feature map survives across any number of
//     intermediate layers (P3),
//   - incremental bank release, so the element-wise add can recycle
//     consumed shortcut banks into output banks (P4),
//   - partial (best-effort) allocation for graceful spilling when the
//     pool is oversubscribed (P5).
//
// The pool never moves data: a logical buffer is an ordered list of
// bank indices plus a byte count, and every operation preserves that
// mapping. The lists are threaded through pool-wide per-bank link
// arrays, so forming, growing, recycling and spilling a buffer never
// allocates. Conservation invariants are checked by CheckInvariants and
// exercised with property-based tests.
package sram

import (
	"errors"
	"fmt"
	"sort"
)

// Role describes what a logical buffer currently holds. Roles carry no
// mechanism — switching them is free — but they drive accounting and
// make traces and invariants legible.
type Role int

const (
	// RoleInput marks the buffer feeding the currently running layer.
	RoleInput Role = iota
	// RoleOutput marks the buffer the current layer writes.
	RoleOutput
	// RoleRetained marks a pinned shortcut feature map waiting for its
	// consumer (the "mined" data).
	RoleRetained
	// RoleScratch marks transient allocations (e.g. pooling halos).
	RoleScratch
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleInput:
		return "input"
	case RoleOutput:
		return "output"
	case RoleRetained:
		return "retained"
	case RoleScratch:
		return "scratch"
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// Package errors. Callers branch on these to implement spill policies.
var (
	// ErrInsufficient reports that the pool has too few free banks for
	// a full allocation.
	ErrInsufficient = errors.New("sram: insufficient free banks")
	// ErrPinned reports an operation that is illegal on a pinned
	// buffer (freeing or releasing its banks).
	ErrPinned = errors.New("sram: buffer is pinned")
	// ErrReleased reports use of a buffer after it was freed.
	ErrReleased = errors.New("sram: buffer already freed")
	// ErrBankFailed reports an operation on a bank already retired
	// from service.
	ErrBankFailed = errors.New("sram: bank retired from service")
	// ErrBankOwned reports a retirement attempt on a bank that still
	// holds live data (the caller must migrate or spill first).
	ErrBankOwned = errors.New("sram: bank still owned")
)

// Config sizes a pool.
type Config struct {
	NumBanks  int // physical banks
	BankBytes int // capacity of each bank
}

// TotalBytes is the aggregate pool capacity.
func (c Config) TotalBytes() int64 { return int64(c.NumBanks) * int64(c.BankBytes) }

// BanksFor returns how many banks are needed to hold n bytes.
func (c Config) BanksFor(n int64) int {
	if n <= 0 {
		return 0
	}
	return int((n + int64(c.BankBytes) - 1) / int64(c.BankBytes))
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumBanks <= 0 {
		return fmt.Errorf("sram: NumBanks must be positive, got %d", c.NumBanks)
	}
	if c.BankBytes <= 0 {
		return fmt.Errorf("sram: BankBytes must be positive, got %d", c.BankBytes)
	}
	return nil
}

// Buffer is a logical buffer: an ordered list of banks holding one
// feature map (or a retained prefix of one). Buffers are created and
// owned by a Pool; the zero value is not usable. The list itself lives
// in the pool's per-bank next/prev links; the buffer keeps only its
// ends and its length, so moving a bank in or out relinks two entries
// and Banks walks the list into a fresh copy.
type Buffer struct {
	pool       *Pool
	role       Role
	tag        string
	bytes      int64 // valid payload bytes, ≤ capacity
	id         int32
	head, tail int32 // first and last bank in layout order, -1 when empty
	n          int32 // banks on the list
	pinned     bool
	freed      bool

	// Payload is an optional opaque value the functional-verification
	// mode attaches to prove that role switches and retention preserve
	// data identity without copies. The pool never touches it beyond
	// clearing it on Free.
	Payload any
}

// ID returns the buffer's pool-unique identity.
func (b *Buffer) ID() int { return int(b.id) }

// Role returns the buffer's current role.
func (b *Buffer) Role() Role { return b.role }

// Tag returns the caller-provided identity (typically the producing
// layer's name).
func (b *Buffer) Tag() string { return b.tag }

// Banks returns the buffer's bank indices in layout order. The slice
// is a copy.
func (b *Buffer) Banks() []int {
	if b.n == 0 {
		return nil
	}
	out := make([]int, 0, b.n)
	for bank := b.head; bank >= 0 && len(out) < cap(out); bank = b.pool.next[bank] {
		out = append(out, int(bank))
	}
	return out
}

// NumBanks returns how many banks the buffer currently occupies.
func (b *Buffer) NumBanks() int { return int(b.n) }

// Bytes returns the valid payload byte count.
func (b *Buffer) Bytes() int64 { return b.bytes }

// CapacityBytes returns the total capacity of the buffer's banks.
func (b *Buffer) CapacityBytes() int64 {
	return int64(b.n) * int64(b.pool.cfg.BankBytes)
}

// Pinned reports whether the buffer is pinned.
func (b *Buffer) Pinned() bool { return b.pinned }

// Freed reports whether the buffer has been returned to the pool.
func (b *Buffer) Freed() bool { return b.freed }

// Pool is a physical bank pool. It is not safe for concurrent use; the
// schedulers are single-threaded per accelerator instance, matching
// the single control FSM of the hardware.
type Pool struct {
	cfg Config
	// Four NumBanks-long views of one allocation. owner maps a bank to
	// its buffer's id, ownerFree or ownerFailed; next and prev link each
	// owned bank to its neighbours in its buffer's layout (-1 at the
	// ends); free holds the free banks, popped LIFO.
	owner, next, prev, free []int32
	numFailed               int
	buffers                 map[int32]*Buffer
	nextID                  int32
	pinned                  int // banks owned by pinned buffers, kept incrementally

	stats Stats
}

// Stats accumulates pool telemetry for the experiments.
type Stats struct {
	Allocs        int64 `json:"Allocs"`
	PartialAllocs int64 `json:"PartialAllocs"`
	Frees         int64 `json:"Frees"`
	RoleSwitches  int64 `json:"RoleSwitches"`
	Pins          int64 `json:"Pins"`
	BanksRecycled int64 `json:"BanksRecycled"` // banks moved by ReleaseBanks (P4)
	BanksEvicted  int64 `json:"BanksEvicted"`  // banks moved by ReleaseTailBanks (eviction policies)
	BanksFailed   int64 `json:"BanksFailed"`   // banks retired from service (fault injection)
	Relocations   int64 `json:"Relocations"`   // banks whose contents moved to a spare (RelocateBank)

	PeakUsedBanks   int `json:"PeakUsedBanks"`
	PeakPinnedBanks int `json:"PeakPinnedBanks"`
}

// Owner marks of banks that no buffer holds.
const (
	ownerFree   = -1
	ownerFailed = -2 // retired from service (fault injection)
)

// NewPool builds a pool; all banks start free.
func NewPool(cfg Config) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.NumBanks
	links := make([]int32, 4*n)
	p := &Pool{
		cfg:     cfg,
		owner:   links[:n:n],
		next:    links[n : 2*n : 2*n],
		prev:    links[2*n : 3*n : 3*n],
		free:    links[3*n : 4*n : 4*n],
		buffers: make(map[int32]*Buffer),
	}
	for i := range p.owner {
		p.owner[i] = ownerFree
		// Pop order low→high keeps layouts deterministic for tests.
		p.free[i] = int32(n - 1 - i)
	}
	return p, nil
}

// Config returns the pool configuration.
func (p *Pool) Config() Config { return p.cfg }

// FreeBanks returns the number of unowned banks.
func (p *Pool) FreeBanks() int { return len(p.free) }

// UsedBanks returns the number of owned banks.
func (p *Pool) UsedBanks() int { return p.cfg.NumBanks - len(p.free) - p.numFailed }

// FailedBanks returns the number of banks retired from service.
func (p *Pool) FailedBanks() int { return p.numFailed }

// InService returns the number of banks still usable (total minus
// retired) — the effective pool size graceful degradation works with.
func (p *Pool) InService() int { return p.cfg.NumBanks - p.numFailed }

// IsFailed reports whether the bank has been retired from service.
func (p *Pool) IsFailed(bank int) bool {
	return bank >= 0 && bank < len(p.owner) && p.owner[bank] == ownerFailed
}

// Owner returns the live buffer owning the bank, or nil when the bank
// is free, failed, or out of range.
func (p *Pool) Owner(bank int) *Buffer {
	if bank < 0 || bank >= len(p.owner) || p.owner[bank] < 0 {
		return nil
	}
	return p.buffers[p.owner[bank]]
}

// FreeBytes returns the free capacity.
func (p *Pool) FreeBytes() int64 { return int64(len(p.free)) * int64(p.cfg.BankBytes) }

// PinnedBanks returns the number of banks owned by pinned buffers.
// The count is maintained incrementally (Pin/Unpin/Grow) so noteUsage
// can ratchet Stats.PeakPinnedBanks on every pool mutation without an
// O(n) scan; CheckInvariants verifies it against the buffer map.
func (p *Pool) PinnedBanks() int { return p.pinned }

// Stats returns a copy of the accumulated telemetry.
func (p *Pool) Stats() Stats { return p.stats }

// RestoreStats overwrites the accumulated telemetry — the
// checkpoint/restore seam. A pool rebuilt from a mid-run snapshot
// continues the original counters and high-water marks (noteUsage
// keeps taking maxima on top), so the finished RunStats is
// bit-identical to an uninterrupted run.
func (p *Pool) RestoreStats(s Stats) { p.stats = s }

// Buffers returns the live buffers sorted by ID (deterministic; used
// by traces and invariant checks).
func (p *Pool) Buffers() []*Buffer {
	out := make([]*Buffer, 0, len(p.buffers))
	// scmvet:ok determinism collected set is sorted by ID before it is returned
	for _, b := range p.buffers {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// pop takes the most recently freed bank off the free list.
func (p *Pool) pop() int32 {
	bank := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return bank
}

// join links bank after behind bank before on b's list; -1 on either
// side stands for the list's end.
func (p *Pool) join(b *Buffer, before, after int32) {
	if before >= 0 {
		p.next[before] = after
	} else {
		b.head = after
	}
	if after >= 0 {
		p.prev[after] = before
	} else {
		b.tail = before
	}
}

// appendBank links a bank onto the buffer's tail.
func (p *Pool) appendBank(b *Buffer, bank int32) {
	p.owner[bank] = b.id
	p.join(b, b.tail, bank)
	p.join(b, bank, -1)
	b.n++
}

// newBuffer registers an empty buffer under the next id.
func (p *Pool) newBuffer(role Role, tag string, bytes int64) *Buffer {
	b := &Buffer{pool: p, id: p.nextID, role: role, tag: tag, bytes: bytes, head: -1, tail: -1}
	p.nextID++
	p.buffers[b.id] = b
	return b
}

// cut returns n banks of b's list, from first on, to the free list in
// layout order and joins the banks on either side of them.
func (p *Pool) cut(b *Buffer, first int32, n int) {
	if n == 0 {
		return
	}
	before, bank := p.prev[first], first
	for range n {
		next := p.next[bank]
		p.owner[bank] = ownerFree
		p.free = append(p.free, bank)
		bank = next
	}
	p.join(b, before, bank)
	b.n -= int32(n)
}

// unregister marks an emptied buffer freed.
func (p *Pool) unregister(b *Buffer) {
	b.head, b.tail, b.n = -1, -1, 0
	b.bytes = 0
	b.freed = true
	b.Payload = nil
	delete(p.buffers, b.id)
}

// noteUsage ratchets the occupancy high-water marks in Stats after
// every mutation that may have grown them.
func (p *Pool) noteUsage() {
	used, pinned := p.UsedBanks(), p.PinnedBanks()
	if used > p.stats.PeakUsedBanks {
		p.stats.PeakUsedBanks = used
	}
	if pinned > p.stats.PeakPinnedBanks {
		p.stats.PeakPinnedBanks = pinned
	}
}

// Alloc forms a logical buffer of exactly `bytes` payload bytes
// (procedure P1). It fails with ErrInsufficient when the pool lacks
// free banks, leaving the pool unchanged.
func (p *Pool) Alloc(role Role, tag string, bytes int64) (*Buffer, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("sram: alloc of %d bytes for %q", bytes, tag)
	}
	need := p.cfg.BanksFor(bytes)
	if need > len(p.free) {
		return nil, fmt.Errorf("%w: need %d banks for %q, have %d", ErrInsufficient, need, tag, len(p.free))
	}
	b := p.newBuffer(role, tag, bytes)
	for range need {
		p.appendBank(b, p.pop())
	}
	p.stats.Allocs++
	p.noteUsage()
	return b, nil
}

// AllocUpTo forms a logical buffer covering as much of `bytes` as the
// free banks allow (procedure P5, partial retention). It returns the
// buffer (nil when the pool is completely full) and the payload bytes
// actually covered; the caller spills the remainder to DRAM. Unlike
// Alloc it cannot fail: a short pool yields a partial buffer, an empty
// pool yields nil.
func (p *Pool) AllocUpTo(role Role, tag string, bytes int64) (*Buffer, int64) {
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
	b := p.newBuffer(role, tag, got)
	for range n {
		p.appendBank(b, p.pop())
	}
	p.stats.Allocs++
	if partial {
		p.stats.PartialAllocs++
	}
	p.noteUsage()
	return b, got
}

// RetireBank removes a FREE bank from service permanently — the
// predictive-retirement step of the fault model. The bank leaves the
// free list and is never handed out again; the pool operates with a
// smaller effective size from here on. A bank holding live data must
// be migrated first (RelocateBank or a tail spill): retiring an owned
// bank is an error, and retiring twice is an error.
func (p *Pool) RetireBank(bank int) error {
	if bank < 0 || bank >= p.cfg.NumBanks {
		return fmt.Errorf("sram: retire out-of-range bank %d", bank)
	}
	switch own := p.owner[bank]; {
	case own == ownerFailed:
		return fmt.Errorf("%w: bank %d", ErrBankFailed, bank)
	case own != ownerFree:
		return fmt.Errorf("%w: bank %d holds %q", ErrBankOwned, bank, p.buffers[own].tag)
	}
	for i, f := range p.free {
		if int(f) == bank {
			p.free = append(p.free[:i], p.free[i+1:]...)
			p.owner[bank] = ownerFailed
			p.numFailed++
			p.stats.BanksFailed++
			return nil
		}
	}
	return fmt.Errorf("sram: bank %d unowned but not on free list", bank)
}

// RelocateBank migrates the contents of an owned bank onto a spare
// free bank and retires the original — graceful degradation when a
// failing bank still holds live data and the pool has slack. The
// spare takes the failed bank's position in the buffer's layout, so
// payload byte order (and therefore functional-mode data identity) is
// preserved. Fails with ErrInsufficient when no free bank exists; the
// caller then falls back to a P5 tail spill.
func (p *Pool) RelocateBank(b *Buffer, bank int) error {
	if b.freed {
		return fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if len(p.free) == 0 {
		return fmt.Errorf("%w: no spare bank to relocate bank %d of %q", ErrInsufficient, bank, b.tag)
	}
	if bank < 0 || bank >= len(p.owner) || p.owner[bank] != b.id {
		return fmt.Errorf("sram: bank %d not owned by %q", bank, b.tag)
	}
	spare := p.pop()
	p.owner[spare] = b.id
	after := p.next[bank]
	p.join(b, p.prev[bank], spare)
	p.join(b, spare, after)
	p.owner[bank] = ownerFailed
	p.numFailed++
	p.stats.BanksFailed++
	p.stats.Relocations++
	// Pinned-bank count is unchanged: same bank count, same buffer.
	p.noteUsage()
	return nil
}

// Free returns the buffer's banks to the pool. Pinned buffers must be
// unpinned first — the scheduler, not the pool, decides when retained
// data is dead.
func (p *Pool) Free(b *Buffer) error {
	if b.freed {
		return fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if b.pinned {
		return fmt.Errorf("%w: cannot free %q", ErrPinned, b.tag)
	}
	p.cut(b, b.head, int(b.n))
	p.unregister(b)
	p.stats.Frees++
	p.noteUsage()
	return nil
}

// SetRole renames the buffer's role — the zero-copy buffer switching
// of procedure P2. The banks, payload bytes and Payload are untouched.
func (p *Pool) SetRole(b *Buffer, role Role) error {
	if b.freed {
		return fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if b.role != role {
		b.role = role
		p.stats.RoleSwitches++
	}
	return nil
}

// Pin marks the buffer as retained shortcut data (procedure P3): it
// cannot be freed or have banks released until Unpin.
func (p *Pool) Pin(b *Buffer) error {
	if b.freed {
		return fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if !b.pinned {
		b.pinned = true
		p.pinned += int(b.n)
		p.stats.Pins++
		p.noteUsage()
	}
	return nil
}

// Unpin clears the retention mark.
func (p *Pool) Unpin(b *Buffer) error {
	if b.freed {
		return fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if b.pinned {
		b.pinned = false
		p.pinned -= int(b.n)
		p.noteUsage()
	}
	return nil
}

// ReleaseBanks returns the first n banks of the buffer to the pool —
// the incremental recycling of procedure P4: as the element-wise add
// consumes the retained shortcut prefix, those banks immediately
// become available for the add's own output. The buffer's payload
// shrinks by the released capacity. Releasing every bank frees the
// buffer.
func (p *Pool) ReleaseBanks(b *Buffer, n int) error {
	if b.freed {
		return fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if b.pinned {
		return fmt.Errorf("%w: cannot release banks of %q", ErrPinned, b.tag)
	}
	if n < 0 || n > int(b.n) {
		return fmt.Errorf("sram: release %d of %d banks of %q", n, b.n, b.tag)
	}
	p.cut(b, b.head, n)
	released := int64(n) * int64(p.cfg.BankBytes)
	if b.bytes > released {
		b.bytes -= released
	} else {
		b.bytes = 0
	}
	p.stats.BanksRecycled += int64(n)
	if b.n == 0 {
		p.unregister(b)
		p.stats.Frees++
	}
	return nil
}

// ReleaseTailBanks returns the LAST n banks of the buffer to the pool,
// keeping the payload prefix intact — the eviction primitive: a
// retained feature map shrinks from its tail, whose bytes the caller
// spills to DRAM. Releasing every bank frees the buffer.
func (p *Pool) ReleaseTailBanks(b *Buffer, n int) error {
	if b.freed {
		return fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if b.pinned {
		return fmt.Errorf("%w: cannot release banks of %q", ErrPinned, b.tag)
	}
	if n < 0 || n > int(b.n) {
		return fmt.Errorf("sram: release %d of %d tail banks of %q", n, b.n, b.tag)
	}
	first := b.tail
	for range n - 1 {
		first = p.prev[first]
	}
	p.cut(b, first, n)
	if c := b.CapacityBytes(); b.bytes > c {
		b.bytes = c
	}
	p.stats.BanksEvicted += int64(n)
	if b.n == 0 {
		p.unregister(b)
		p.stats.Frees++
	}
	return nil
}

// Grow appends free banks to the buffer until it covers `bytes` more
// payload, returning the payload bytes actually added (bounded by the
// free banks and by existing spare capacity in the last bank). Growing
// is how the add layer's output expands into banks recycled from the
// consumed shortcut operand (P4).
func (p *Pool) Grow(b *Buffer, bytes int64) (int64, error) {
	if b.freed {
		return 0, fmt.Errorf("%w: %q", ErrReleased, b.tag)
	}
	if bytes <= 0 {
		return 0, nil
	}
	added := int64(0)
	// Spare capacity in already-owned banks absorbs payload first.
	if spare := b.CapacityBytes() - b.bytes; spare > 0 {
		if spare > bytes {
			spare = bytes
		}
		b.bytes += spare
		added += spare
		bytes -= spare
	}
	for bytes > 0 && len(p.free) > 0 {
		p.appendBank(b, p.pop())
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

// CheckInvariants verifies bank conservation: every bank is either on
// the free list, owned by exactly one live buffer, or retired from
// service; free-list entries are unique; retired banks are never owned
// or free; every buffer's list is well linked (each bank's prev is the
// bank before it, the list runs from head to tail and holds as many
// banks as the buffer counts); and every buffer's payload fits its
// banks. Each step of a list walk claims a bank not seen before or
// returns an error, so a corrupted list that loops cannot hang it.
func (p *Pool) CheckInvariants() error {
	// mark[bank] is 0 while unseen, markFree on the free list, and
	// buffer id + 1 when owned; who names a mark only for an error.
	const markFree = -1
	mark := make([]int32, p.cfg.NumBanks)
	seen := 0
	who := func(m int32) string {
		if m == markFree {
			return "free list"
		}
		return fmt.Sprintf("buffer %q", p.buffers[m-1].tag)
	}
	for _, bank := range p.free {
		if bank < 0 || int(bank) >= p.cfg.NumBanks {
			return fmt.Errorf("sram: free list has out-of-range bank %d", bank)
		}
		if m := mark[bank]; m != 0 {
			return fmt.Errorf("sram: bank %d on free list and %s", bank, who(m))
		}
		mark[bank] = markFree
		seen++
		if p.owner[bank] == ownerFailed {
			return fmt.Errorf("sram: retired bank %d on free list", bank)
		}
		if p.owner[bank] != ownerFree {
			return fmt.Errorf("sram: free bank %d has owner %d", bank, p.owner[bank])
		}
	}
	// scmvet:ok determinism invariant scan; only the first error of an already-corrupt pool can vary
	for id, b := range p.buffers {
		if b.freed {
			return fmt.Errorf("sram: freed buffer %q still registered", b.tag)
		}
		if b.id != id {
			return fmt.Errorf("sram: buffer id mismatch %d vs %d", b.id, id)
		}
		last, n := int32(-1), int32(0)
		for bank := b.head; bank != -1; bank = p.next[bank] {
			if bank < 0 || int(bank) >= p.cfg.NumBanks {
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
			if p.prev[bank] != last {
				return fmt.Errorf("sram: bank %d of %q links back to %d, not %d", bank, b.tag, p.prev[bank], last)
			}
			last = bank
			n++
		}
		if last != b.tail {
			return fmt.Errorf("sram: buffer %q ends at bank %d, its tail is %d", b.tag, last, b.tail)
		}
		if n != b.n {
			return fmt.Errorf("sram: buffer %q lists %d banks, counts %d", b.tag, n, b.n)
		}
		if b.bytes > b.CapacityBytes() {
			return fmt.Errorf("sram: buffer %q payload %d exceeds capacity %d", b.tag, b.bytes, b.CapacityBytes())
		}
		if b.bytes < 0 {
			return fmt.Errorf("sram: buffer %q negative payload", b.tag)
		}
	}
	failed := 0
	for _, own := range p.owner {
		if own == ownerFailed {
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
	// scmvet:ok determinism order-independent sum
	for _, b := range p.buffers {
		if b.pinned {
			pinned += int(b.n)
		}
	}
	if pinned != p.pinned {
		return fmt.Errorf("sram: pinned-bank count %d, buffers say %d", p.pinned, pinned)
	}
	return nil
}
