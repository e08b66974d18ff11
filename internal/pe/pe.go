// Package pe models the processing-element array: a Tn×Tm grid of
// fixed-point MAC units (Tn input channels × Tm output channels in
// parallel), the organization used by the tiled accelerators the paper
// builds on and compares against. The model is cycle-approximate: it
// charges the loop-nest iteration count implied by the mapping, which
// captures the utilization loss from dimension rounding without
// simulating individual wires.
package pe

import (
	"fmt"

	"shortcutmining/internal/nn"
)

// Config sizes the array.
type Config struct {
	Tn       int     // parallel input channels (array rows)
	Tm       int     // parallel output channels (array columns)
	ClockMHz float64 // accelerator clock
	// VectorWidth is the element-wise datapath width (adders used by
	// pooling/eltwise layers, typically = Tm).
	VectorWidth int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Tn <= 0 || c.Tm <= 0 {
		return fmt.Errorf("pe: array dimensions must be positive, got %dx%d", c.Tn, c.Tm)
	}
	if c.ClockMHz <= 0 {
		return fmt.Errorf("pe: clock must be positive, got %g", c.ClockMHz)
	}
	if c.VectorWidth <= 0 {
		return fmt.Errorf("pe: vector width must be positive, got %d", c.VectorWidth)
	}
	return nil
}

// NumMACs returns the MAC count of the array.
func (c Config) NumMACs() int { return c.Tn * c.Tm }

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// LayerCycles returns the compute cycles for one invocation of the
// layer on a single image. The array processes, per cycle, Tn×Tm MACs
// of one kernel position of one output pixel; full input- and
// output-channel tiles are rounded up, which is where utilization is
// lost on channel counts that do not divide the array.
func (c Config) LayerCycles(l *nn.Layer) int64 {
	switch l.Kind {
	case nn.OpConv:
		g := l.NumGroups()
		spatial := int64(l.Out.H) * int64(l.Out.W)
		perPixel := int64(g) * int64(l.K*l.K) *
			int64(ceilDiv(l.In[0].C/g, c.Tn)) * int64(ceilDiv(l.OutC/g, c.Tm))
		return spatial * perPixel
	case nn.OpFC:
		return int64(ceilDiv(l.In[0].Elems(), c.Tn)) * int64(ceilDiv(l.OutC, c.Tm))
	case nn.OpPool:
		// One comparator/adder pass per window element per output.
		return int64(l.Out.Elems()) * int64(l.K*l.K) / int64(c.VectorWidth)
	case nn.OpGlobalPool:
		return int64(l.In[0].Elems()) / int64(c.VectorWidth)
	case nn.OpEltwiseAdd:
		return int64(l.Out.Elems()) * int64(len(l.In)-1) / int64(c.VectorWidth)
	case nn.OpShuffle:
		// A permuting copy through the vector datapath.
		return int64(l.Out.Elems()) / int64(c.VectorWidth)
	case nn.OpConcat, nn.OpInput:
		// Concatenation is a buffer-layout operation; it moves no data
		// through the datapath in either design.
		return 0
	}
	return 0
}

// Utilization returns achieved MACs per cycle divided by peak for the
// given layer (1.0 when the channel counts divide the array exactly).
// Non-MAC layers report 0.
func (c Config) Utilization(l *nn.Layer) float64 {
	if l.Kind != nn.OpConv && l.Kind != nn.OpFC {
		return 0
	}
	cycles := c.LayerCycles(l)
	if cycles == 0 {
		return 0
	}
	return float64(l.MACs()) / (float64(cycles) * float64(c.NumMACs()))
}
