// Package core implements the paper's contribution: the Shortcut
// Mining accelerator scheduler, built from five procedures over the
// sram bank pool —
//
//	P1 logical buffer formation,
//	P2 zero-copy role switching (output becomes next input),
//	P3 shortcut retention across any number of intermediate layers,
//	P4 incremental bank recycling at the element-wise add,
//	P5 partial retention with graceful spilling,
//
// — together with the conventional baseline scheduler (static
// ping-pong buffers, per-layer DRAM round trips) and the role-switch-
// only ablation the experiments compare against. One executor
// parameterized by a Features set implements all of them, so every
// design point shares the tiling, DRAM, and PE models and differs only
// in buffer policy.
package core

import (
	"fmt"

	"shortcutmining/internal/compress"
	"shortcutmining/internal/dram"
	"shortcutmining/internal/energy"
	"shortcutmining/internal/fault"
	"shortcutmining/internal/pe"
	"shortcutmining/internal/sram"
	"shortcutmining/internal/tensor"
)

// Strategy names a buffer-management design point.
type Strategy int

const (
	// Baseline is the conventional accelerator: static ping-pong
	// input/output buffers, every feature map round-trips through
	// DRAM.
	Baseline Strategy = iota
	// FMReuse enables only role switching (P1+P2): each layer's output
	// stays on chip for the immediately following layer, but shortcut
	// operands still round-trip.
	FMReuse
	// SCM is full Shortcut Mining: P1–P5.
	SCM
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Baseline:
		return "baseline"
	case FMReuse:
		return "fm-reuse"
	case SCM:
		return "scm"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy converts a CLI string into a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "baseline":
		return Baseline, nil
	case "fm-reuse", "fmreuse":
		return FMReuse, nil
	case "scm", "shortcut-mining":
		return SCM, nil
	}
	return Baseline, fmt.Errorf("core: unknown strategy %q", s)
}

// Strategies lists the design points in comparison order.
func Strategies() []Strategy { return []Strategy{Baseline, FMReuse, SCM} }

// Features is the ablation switchboard (experiment E8). Zero value =
// baseline; Strategy.Features returns the canonical sets.
type Features struct {
	RoleSwitch         bool `json:"RoleSwitch"`         // P1+P2: reuse output as next layer's input
	ShortcutRetention  bool `json:"ShortcutRetention"`  // P3: pin shortcut fmaps across layers
	IncrementalRecycle bool `json:"IncrementalRecycle"` // P4: recycle consumed shortcut banks into the add's output
	PartialRetention   bool `json:"PartialRetention"`   // P5: retain what fits instead of all-or-nothing

	// StreamingRecycle extends P4 to windowed layers (extension,
	// experiment E18 — not part of the paper's canonical SCM): a conv
	// or pool whose input makes its final pass may release consumed
	// input banks to its own output, keeping a sliding-window margin
	// resident. It relieves the output-retention squeeze at layers
	// whose input and output together exceed the pool.
	StreamingRecycle bool `json:"StreamingRecycle"`
}

// Features returns the canonical feature set of the strategy.
func (s Strategy) Features() Features {
	switch s {
	case FMReuse:
		return Features{RoleSwitch: true, PartialRetention: true}
	case SCM:
		return Features{RoleSwitch: true, ShortcutRetention: true, IncrementalRecycle: true, PartialRetention: true}
	default:
		return Features{}
	}
}

// Config is the accelerator platform shared by every strategy.
type Config struct {
	PE     pe.Config
	Pool   sram.Config // feature-map bank pool (the baseline statically splits it)
	DRAM   dram.Config
	Energy energy.Model

	WeightBufBytes int64 // dedicated (double-buffered) weight SRAM
	// WeightBandwidthGBps is the dedicated weight DDR channel (the
	// prototype board has two SODIMMs: feature maps on one, weights on
	// the other). Zero means weights share the feature-map channel.
	WeightBandwidthGBps float64
	DType               tensor.DataType
	Batch               int
	// AmortizeWeights models batch processing with a layer-inner batch
	// loop: each layer's weights stream once per batch instead of once
	// per image. Feature-map traffic and compute still scale with the
	// batch (the pool holds one image's working set).
	AmortizeWeights bool

	// ReserveBanks stay unretained so spilled regions always have
	// streaming buffers; retention allocations may not dip into them.
	ReserveBanks int
	// ControlCycles is the fixed per-layer scheduling overhead.
	ControlCycles int64
	// Eviction selects what happens when a retained output needs banks
	// held by pinned shortcut data (design-space study, experiment
	// E15). The paper's design never evicts retained data.
	Eviction EvictionPolicy
	// DetailedTiming replaces the per-layer max(compute, mem)
	// approximation with a tile-level double-buffered pipeline model
	// (experiment E19). Traffic results are identical; cycle counts
	// grow by the pipeline fill/drain/imbalance bubbles.
	DetailedTiming bool

	// Compression is the optional interlayer feature-map codec applied
	// at the DRAM boundary (experiment E25, scm-sim -compress). Nil
	// means uncompressed. Weights are never compressed; see
	// dram.Class.Compressible for the eligible classes.
	Compression *compress.Config `json:",omitempty"`

	// Faults is the optional fault-injection plan replayed against the
	// run (experiment E22, scm-sim -faults). Nil means fault-free.
	Faults *fault.Spec `json:",omitempty"`
	// DMAMaxAttempts bounds attempts per DMA transfer (initial try
	// plus retries) under injected transient failures; exhausting it
	// is a fatal stuck-progress RunError. Zero means the default
	// (fault.DefaultMaxDMAAttempts).
	DMAMaxAttempts int
	// DMABackoffCycles is the wait after the first failed transfer
	// attempt; it doubles on every further retry (exponential
	// backoff). Zero means DefaultDMABackoffCycles.
	DMABackoffCycles int64
	// WatchdogLayerCycles, when positive, bounds the modeled cycles of
	// any single layer; exceeding it is a fatal liveness RunError.
	WatchdogLayerCycles int64
}

// DefaultDMABackoffCycles is the initial retry backoff when the config
// does not set one.
const DefaultDMABackoffCycles int64 = 64

// EvictionPolicy is the retention-conflict policy of procedure P5.
type EvictionPolicy int

const (
	// RetainPinned (the paper's policy) never evicts pinned shortcut
	// data; the conflicting output spills instead.
	RetainPinned EvictionPolicy = iota
	// EvictFarthest spills tail banks of the pinned feature map whose
	// next use is farthest in the future (Belady-style) when that next
	// use is farther than the output's.
	EvictFarthest
)

// String implements fmt.Stringer.
func (p EvictionPolicy) String() string {
	if p == EvictFarthest {
		return "evict-farthest"
	}
	return "retain-pinned"
}

// Default returns the calibrated platform used by the experiments
// (see DESIGN.md "Calibration notes" and EXPERIMENTS.md): a 64×56 MAC
// array at 200 MHz (3584 DSPs — a full Virtex-7 VC709, see
// internal/fpga), a 34-bank × 16 KiB feature-map pool (544 KiB),
// 512 KiB of double-buffered weight SRAM, a feature-map DDR channel
// with 1.0 GB/s effective bandwidth under short strided bursts, and a
// dedicated 12.8 GB/s weight channel (the board's second SODIMM).
func Default() Config {
	return Config{
		PE:                  pe.Config{Tn: 64, Tm: 56, ClockMHz: 200, VectorWidth: 64},
		Pool:                sram.Config{NumBanks: 34, BankBytes: 16 << 10},
		DRAM:                dram.Config{BandwidthGBps: 1.0, BurstBytes: 64, EnergyPJForB: 160},
		Energy:              energy.Default(),
		WeightBufBytes:      512 << 10,
		WeightBandwidthGBps: 12.8,
		DType:               tensor.Fixed16,
		Batch:               1,
		ReserveBanks:        6,
		ControlCycles:       500,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.PE.Validate(); err != nil {
		return err
	}
	if err := c.Pool.Validate(); err != nil {
		return err
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if err := c.Energy.Validate(); err != nil {
		return err
	}
	if c.WeightBufBytes <= 0 {
		return fmt.Errorf("core: weight buffer must be positive, got %d", c.WeightBufBytes)
	}
	if c.WeightBandwidthGBps < 0 {
		return fmt.Errorf("core: negative weight bandwidth %g", c.WeightBandwidthGBps)
	}
	if c.Batch <= 0 {
		return fmt.Errorf("core: batch must be positive, got %d", c.Batch)
	}
	if c.ReserveBanks < 0 || c.ReserveBanks >= c.Pool.NumBanks {
		return fmt.Errorf("core: reserve %d out of range for %d banks", c.ReserveBanks, c.Pool.NumBanks)
	}
	if c.ControlCycles < 0 {
		return fmt.Errorf("core: negative control cycles")
	}
	if !c.DType.Valid() {
		return fmt.Errorf("core: unknown data type %v", c.DType)
	}
	if c.DMAMaxAttempts < 0 {
		return fmt.Errorf("core: negative DMA attempt budget %d", c.DMAMaxAttempts)
	}
	if c.DMABackoffCycles < 0 {
		return fmt.Errorf("core: negative DMA backoff %d", c.DMABackoffCycles)
	}
	if c.WatchdogLayerCycles < 0 {
		return fmt.Errorf("core: negative watchdog bound %d", c.WatchdogLayerCycles)
	}
	if err := c.Compression.Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// MemCycles converts a layer's traffic on ch into channel-occupancy
// cycles. With a dedicated weight channel the two streams overlap and
// the slower one gates the layer; otherwise everything shares one
// pipe. A bandwidth factor below 1 (injected degradation) stretches
// the feature-map stream by 1/factor; the weight channel is modeled
// fault-free (it is a separate physical SODIMM on the prototype board).
func (c *Config) MemCycles(ch *dram.Channel, delta dram.Traffic, factor float64) int64 {
	clock := c.PE.ClockMHz
	if c.WeightBandwidthGBps <= 0 {
		return stretch(ch.CyclesAt(delta.Total(), clock), factor)
	}
	fm := stretch(ch.CyclesAt(delta.FeatureMap(), clock), factor)
	wBytesPerCycle := c.WeightBandwidthGBps * 1e9 / (clock * 1e6)
	w := int64(float64(delta[dram.ClassWeightRead])/wBytesPerCycle + 0.999999)
	return max(w, fm)
}

// stretch divides a cycle count by a bandwidth factor below 1,
// rounding up; a factor of 1 leaves it as it is.
func stretch(cycles int64, factor float64) int64 {
	if factor < 1 {
		return int64(float64(cycles)/factor + 0.999999)
	}
	return cycles
}

// WithPoolBytes returns a copy of the config whose pool capacity is
// approximately totalBytes, preserving the bank size (used by the
// buffer sweep, experiment E6).
func (c Config) WithPoolBytes(totalBytes int64) Config {
	banks := int((totalBytes + int64(c.Pool.BankBytes) - 1) / int64(c.Pool.BankBytes))
	if banks < c.ReserveBanks+1 {
		banks = c.ReserveBanks + 1
	}
	c.Pool.NumBanks = banks
	return c
}
