package core

import (
	"fmt"

	"shortcutmining/internal/dram"
	"shortcutmining/internal/fault"
	"shortcutmining/internal/sram"
	"shortcutmining/internal/trace"
)

// This file is the executor side of the fault model (see package
// fault for the hardware story). Bank events fire at layer entry,
// before the layer touches any operand, matching a controller that
// services the error-logger interrupt between layer descriptors:
//
//   - a transient SRAM error is scrubbed in place (cycle cost, no data
//     loss);
//   - a hard-failing FREE bank is simply retired;
//   - a hard-failing OWNED bank is migrated — to a spare free bank
//     when one exists (same layout position, so payload order and
//     functional bit-exactness are preserved), otherwise by spilling
//     the owning buffer's tail from the failed bank onward to DRAM
//     (procedure P5 applied to a shrinking pool) — and then retired.
//
// DMA transient failures and bandwidth degradation live in
// transferSpan (observe.go) and retryLoop below.

// applyFaults fires the injector's events scheduled at layer l.
func (e *executor) applyFaults(l layerRef) error {
	if e.inj == nil {
		return nil
	}
	prevFactor := e.inj.Factor()
	events := e.inj.ApplyLayer(l.index)
	if f := e.inj.Factor(); f != prevFactor {
		e.obs.factorChanged()
		e.record(trace.Event{Kind: trace.KindFault, Layer: l.name,
			Note: fmt.Sprintf("bw-degrade factor=%g", f)})
	}
	for _, ev := range events {
		switch ev.Kind {
		case fault.BankTransient:
			n := int64(ev.Count)
			if len(ev.Banks) > 0 {
				n = int64(len(ev.Banks))
			}
			e.flt.TransientErrors += n
			scrub := n * e.bankCopyCycles()
			e.flt.MigrationCycles += scrub
			e.layerFaultCycles += scrub
			e.record(trace.Event{Kind: trace.KindFault, Layer: l.name,
				Banks: int(n), Note: "bank-transient (scrubbed)"})
		case fault.BankFail:
			victims := ev.Banks
			if len(victims) == 0 {
				victims = e.pickVictims(ev.Count)
			}
			for _, bank := range victims {
				if e.pool.IsFailed(bank) {
					continue // explicit spec hit the same bank twice
				}
				if bank >= e.cfg.Pool.NumBanks {
					continue // spec written for a larger pool
				}
				if err := e.failBank(l, bank); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// layerRef is the (index, name) pair applyFaults needs; OpInput and
// OpConcat layers inject like any other.
type layerRef struct {
	index int
	name  string
}

// pickVictims draws n distinct in-service banks with the injector's
// seeded RNG.
func (e *executor) pickVictims(n int) []int {
	var pool []int
	for b := 0; b < e.cfg.Pool.NumBanks; b++ {
		if !e.pool.IsFailed(b) {
			pool = append(pool, b)
		}
	}
	if n > len(pool) {
		n = len(pool)
	}
	victims := make([]int, 0, n)
	for i := 0; i < n; i++ {
		j := e.inj.Pick(len(pool))
		victims = append(victims, pool[j])
		pool = append(pool[:j], pool[j+1:]...)
	}
	return victims
}

// failBank retires one bank, migrating its contents first when owned.
func (e *executor) failBank(l layerRef, bank int) error {
	e.flt.BankFailures++
	owner := e.pool.Owner(bank)
	if owner == nil {
		if err := e.pool.RetireBank(bank); err != nil {
			return fault.Errf(fault.Fatal, fault.CheckInvariant, l.name,
				"retiring free bank %d: %w", bank, err)
		}
		e.record(trace.Event{Kind: trace.KindFault, Layer: l.name, Banks: 1,
			Note: fmt.Sprintf("bank-fail bank=%d (free)", bank)})
		return nil
	}
	if e.pool.FreeBanks() > 0 {
		if err := e.pool.RelocateBank(owner, bank); err != nil {
			return fault.Errf(fault.Fatal, fault.CheckInvariant, l.name,
				"relocating bank %d of %q: %w", bank, owner.Tag(), err)
		}
		cost := e.bankCopyCycles()
		e.flt.Relocations++
		e.flt.MigrationCycles += cost
		e.layerFaultCycles += cost
		e.record(trace.Event{Kind: trace.KindRelocate, Layer: l.name, Tag: owner.Tag(),
			Banks: 1, Note: fmt.Sprintf("bank-fail bank=%d -> spare", bank)})
		return nil
	}
	return e.spillFailedBank(l, owner, bank)
}

// spillFailedBank handles a bank failure with no spare: the owning
// buffer releases its tail from the failed bank's position onward,
// the released payload spills to DRAM, and the bank is retired. The
// surviving prefix keeps its pin; the resident bookkeeping (and the
// functional-mode DRAM image) shrink to match.
func (e *executor) spillFailedBank(l layerRef, owner *sram.Buffer, bank int) error {
	pos := -1
	for i, b := range owner.Banks() {
		if b == bank {
			pos = i
			break
		}
	}
	if pos < 0 {
		return fault.Errf(fault.Fatal, fault.CheckInvariant, l.name,
			"bank %d owner bookkeeping is inconsistent", bank)
	}
	wasPinned := owner.Pinned()
	if wasPinned {
		if err := e.pool.Unpin(owner); err != nil {
			return err
		}
	}
	oldBytes := owner.Bytes()
	tail := owner.NumBanks() - pos
	if err := e.pool.ReleaseTailBanks(owner, tail); err != nil {
		return err
	}
	if err := e.pool.RetireBank(bank); err != nil {
		return fault.Errf(fault.Fatal, fault.CheckInvariant, l.name,
			"retiring spilled bank %d: %w", bank, err)
	}
	freed := owner.Freed()
	newBytes := int64(0)
	if !freed {
		newBytes = owner.Bytes()
		if wasPinned {
			if err := e.pool.Pin(owner); err != nil {
				return err
			}
		}
	}
	delta := oldBytes - newBytes
	if delta > 0 {
		_, start, dur, err := e.transferSpan(dram.ClassSpillWrite, delta)
		if err != nil {
			return err
		}
		e.flt.FaultSpillBytes += delta
		e.recordSpan(trace.Event{Kind: trace.KindSpill, Layer: l.name, Tag: owner.Tag(),
			Class: dram.ClassSpillWrite.String(), Bytes: delta,
			Note: fmt.Sprintf("bank-fail bank=%d no spare", bank)}, start, dur)
	}
	e.record(trace.Event{Kind: trace.KindFault, Layer: l.name, Banks: 1,
		Note: fmt.Sprintf("bank-fail bank=%d (spilled %d B)", bank, delta)})

	// Shrink the resident that tracked this buffer so consumers fetch
	// the spilled suffix from DRAM.
	for p := range e.residents {
		r := &e.residents[p]
		if r.buf != owner {
			continue
		}
		r.onChip = newBytes
		if freed {
			r.buf = nil
		}
		if e.fn != nil {
			e.fn.evict(e, p, r)
		}
		break
	}
	return nil
}

// retryLoop replays injected DMA transient failures for one transfer:
// each failed attempt costs the (degraded) transfer occupancy plus an
// exponentially doubling backoff, tallied separately from payload
// traffic. Exhausting the attempt budget is fatal.
func (e *executor) retryLoop(c dram.Class, payload, moved, dur int64) error {
	if e.inj == nil {
		return nil
	}
	backoff := e.cfg.DMABackoffCycles
	if backoff <= 0 {
		backoff = DefaultDMABackoffCycles
	}
	attempts := 1
	for e.inj.TransferFails() {
		if attempts >= e.wd.Attempts() {
			return fault.Errf(fault.Fatal, fault.CheckStuckProgress, e.curLayer,
				"transfer of %d bytes (%s) failed %d attempts", moved, c, attempts)
		}
		attempts++
		cost := dur + backoff
		e.flt.DMARetries++
		e.flt.DMARetryCycles += cost
		e.flt.RetryBytes += e.ch.RecordRetry(c, payload)
		e.layerFaultCycles += cost
		e.recordSpan(trace.Event{Kind: trace.KindRetry, Layer: e.curLayer,
			Class: c.String(), Bytes: moved,
			Note: fmt.Sprintf("attempt %d backoff %d", attempts, backoff)}, e.memCursor, cost)
		e.memCursor += cost
		backoff *= 2
	}
	return nil
}

// bankCopyCycles is the modeled cost of moving (or scrubbing) one
// bank's contents through the on-chip datapath.
func (e *executor) bankCopyCycles() int64 {
	bw := int64(e.cfg.PE.VectorWidth) * int64(e.cfg.DType.Bytes())
	if bw <= 0 {
		bw = 64
	}
	return (e.bankBytes() + bw - 1) / bw
}
