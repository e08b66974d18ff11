package main

import (
	"context"
	"fmt"

	"shortcutmining/internal/core"
	"shortcutmining/internal/nn"
)

// simSystem is sim-sweep: core.Simulate called in process from one
// goroutine, the way dse.Explore calls it, with one *nn.Network per
// zoo model shared across calls.
type simSystem struct {
	nets map[string]*nn.Network
}

func (s *simSystem) clients() int                               { return 1 }
func (s *simSystem) prepare(ctx context.Context, rep int) error { return nil }
func (s *simSystem) teardown(ctx context.Context) error         { return nil }
func (s *simSystem) quiesce(ctx context.Context) error          { return nil }
func (s *simSystem) cache() (hits, misses int64)                { return 0, 0 }

// setup builds the shared networks and runs each (network, strategy)
// pair once on the calibrated platform.
func (s *simSystem) setup(ctx context.Context, rep int) error {
	s.nets = map[string]*nn.Network{}
	for _, ns := range simCombos {
		net := s.nets[ns.Network]
		if net == nil {
			var err error
			if net, err = nn.Build(ns.Network); err != nil {
				return err
			}
			s.nets[ns.Network] = net
		}
		if _, err := core.SimulateContext(ctx, net, core.Default(), ns.Strategy, nil); err != nil {
			return err
		}
	}
	return nil
}

// op is one core.Simulate call; a traced op drives core.NewRun and
// Run.Step, the loop Simulate runs, with a span per phase.
func (s *simSystem) op(ctx context.Context, c *client, i int64, d doc) error {
	net := s.nets[d.Network]
	cfg := d.Point.config()
	var err error
	if c.rec == nil {
		c.last, err = core.SimulateContext(ctx, net, cfg, d.Strategy, nil)
		return err
	}
	path := func(name string) int32 { return pathCount("sim-sweep", d, len(net.Layers), name) }
	c.last, err = tracedCore(ctx, c.rec, i, c.opSpan, net, cfg, d.Strategy, nil, path)
	return err
}

// check requires the per-layer cycles to sum to the run's total.
func (s *simSystem) check(c *client, i int64, d doc) error {
	var sum int64
	for _, l := range c.last.Layers {
		sum += l.Cycles
	}
	if sum != c.last.TotalCycles {
		return fmt.Errorf("%s/%s at %v: layer cycles sum to %d, TotalCycles is %d",
			d.Network, d.Strategy, d.Point, sum, c.last.TotalCycles)
	}
	return nil
}

func (s *simSystem) verify(ctx context.Context, p pending) error { return nil }
