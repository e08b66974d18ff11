package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"shortcutmining/internal/cluster"
	"shortcutmining/internal/core"
	"shortcutmining/internal/dse"
	"shortcutmining/internal/fpga"
	"shortcutmining/internal/journal"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/sched"
	"shortcutmining/internal/serve"
	"shortcutmining/internal/stats"
	"shortcutmining/internal/trace"
)

// Span names: the benchmark's own, then one per layer entry point.
const (
	spanOp       = "op"
	spanReplay   = "replay"
	spanValidate = "core.validate"
	spanNewRun   = "core.new_run"
	spanSteps    = "core.steps"
	spanFinish   = "core.finish"
	spanBuild    = "nn.build"
	spanDecode   = "nn.decode"
	spanConfig   = "serve.config_decode"
	spanKey      = "serve.key"
	spanEncode   = "serve.encode"
	spanAppend   = "journal.append"
	spanSweep    = "dse.sweep"
	spanSchedule = "sched.run"
	spanCluster  = "cluster.run"
)

// jobLayerEvery is the cadence at which the traced run replays the
// costly layers (journal, dse, sched, cluster) on ops that do not use
// them.
const jobLayerEvery = 16

// checkpointLayers is serve-durable's Options.CheckpointLayers.
const checkpointLayers = 8

// span is one timed call. All spans of one op share its op id.
type span struct {
	name       string
	op         int64
	parent     int32 // index of the parent span in the same recorder; -1 for a root
	start, end int64 // ns since the trace epoch
	// path is how many times the op's own work ran this layer; 0 marks
	// a replayed layer the op did not use.
	path int32
}

// recorder keeps one client's spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	spans []span
	// steps accumulates Step time per layer kind (the final Step, which
	// also assembles the result, counts as core.finish instead).
	steps  [nn.OpShuffle + 1]stepTally // indexed by nn.OpKind
	layers int64                       // layers stepped, final Steps included
}

type stepTally struct{ ns, n int64 }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) begin(name string, op int64, parent int32) int32 {
	r.spans = append(r.spans, span{name: name, op: op, parent: parent, start: r.now()})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i, path int32) {
	r.spans[i].end = r.now()
	r.spans[i].path = path
}

// tracedCore runs net the way core.Simulate does — NewRun, then Step
// until done — with a span per phase under parent.
func tracedCore(ctx context.Context, r *recorder, op int64, parent int32, net *nn.Network,
	cfg core.Config, strat core.Strategy, reg *metrics.Registry, path func(string) int32) (stats.RunStats, error) {
	s := r.begin(spanValidate, op, parent)
	err := cfg.Validate()
	if err == nil {
		err = net.Validate()
	}
	r.end(s, path(spanValidate))
	if err != nil {
		return stats.RunStats{}, err
	}
	s = r.begin(spanNewRun, op, parent)
	run, err := core.NewRun(net, cfg, strat, nil, reg)
	r.end(s, path(spanNewRun))
	if err != nil {
		return stats.RunStats{}, err
	}
	last := len(net.Layers) - 1
	s = r.begin(spanSteps, op, parent)
	for li, l := range net.Layers {
		if li == last {
			r.end(s, path(spanSteps))
			s = r.begin(spanFinish, op, parent)
		}
		t0 := r.now()
		_, err := run.Step(ctx)
		if li < last {
			r.steps[l.Kind].ns += r.now() - t0
			r.steps[l.Kind].n++
		}
		if err != nil {
			r.end(s, 0)
			return stats.RunStats{}, err
		}
	}
	r.end(s, path(spanFinish))
	r.layers += int64(len(net.Layers))
	return run.Result()
}

// pathCount is how many times op d of the workload runs layer name
// inside the system under test: the spans bench.residual_us subtracts.
func pathCount(workload string, d doc, layers int, name string) int32 {
	core := name == spanNewRun || name == spanSteps || name == spanFinish
	switch workload {
	case "sim-sweep":
		if core {
			return 1
		}
	case "serve-hot":
		if name == spanBuild || name == spanKey || name == spanEncode {
			return 1
		}
	case "serve-cold":
		if core || name == spanDecode || name == spanConfig || name == spanKey || name == spanEncode {
			return 1
		}
	case "serve-durable":
		if name == spanAppend { // accepted, running, terminal, plus checkpoints
			if d.Kind == kindSimulate {
				return int32(3 + layers/checkpointLayers)
			}
			return 3
		}
		switch d.Kind {
		case kindSimulate:
			if core || name == spanBuild || name == spanConfig || name == spanKey || name == spanEncode {
				return 1
			}
		case kindSweep:
			if name == spanBuild || name == spanSweep {
				return 1
			}
		case kindSchedule:
			if name == spanSchedule {
				return 1
			}
		case kindCluster:
			if name == spanCluster {
				return 1
			}
		}
	}
	return 0
}

// replyDoc mirrors the /v1/simulate reply the server encodes.
type replyDoc struct {
	Cached bool            `json:"cached"`
	Stats  *stats.RunStats `json:"stats"`
}

// replay times op i's document through each layer's public entry point,
// under one replay span. sim-sweep ran core inside the op already.
func (r *runner) replay(ctx context.Context, c *client, i int64, d doc) error {
	rec := c.rec
	root := rec.begin(spanReplay, i, -1)
	defer rec.end(root, 0)
	layers := 0
	path := func(name string) int32 { return pathCount(r.o.workload, d, layers, name) }
	timed := func(name string, f func() error) error {
		s := rec.begin(name, i, root)
		err := f()
		rec.end(s, path(name))
		if err != nil {
			return fmt.Errorf("replay %s: %w", name, err)
		}
		return nil
	}

	var net *nn.Network
	if err := timed(spanBuild, func() (err error) { net, err = nn.Build(d.Network); return err }); err != nil {
		return err
	}
	layers = len(net.Layers)
	graph := r.shared.graphs[d.Network]
	if err := timed(spanDecode, func() error { _, err := nn.DecodeJSON(bytes.NewReader(graph)); return err }); err != nil {
		return err
	}
	cfgJSON := d.Point.configJSON()
	if err := timed(spanConfig, func() error { _, err := core.DecodeConfigJSON(bytes.NewReader(cfgJSON)); return err }); err != nil {
		return err
	}
	cfg := d.config()
	req := serve.Request{Net: net, Cfg: cfg, Strategy: d.Strategy, Observe: d.Observe}
	if err := timed(spanKey, func() error { _, err := serve.RequestKey(req); return err }); err != nil {
		return err
	}
	res := c.last
	if r.o.workload != "sim-sweep" {
		var reg *metrics.Registry
		if d.Observe {
			reg = metrics.New()
		}
		var err error
		if res, err = tracedCore(ctx, rec, i, root, net, cfg, d.Strategy, reg, path); err != nil {
			return fmt.Errorf("replay core: %w", err)
		}
	}
	if err := timed(spanEncode, func() error {
		c.buf.Reset()
		enc := json.NewEncoder(&c.buf)
		enc.SetIndent("", "  ")
		return enc.Encode(replyDoc{Stats: &res})
	}); err != nil {
		return err
	}
	every := i%jobLayerEvery == 0
	if every || path(spanAppend) > 0 {
		payload := fmt.Appendf(nil, `{"graph":%s,"config":%s,"strategy":%q}`, graph, cfgJSON, d.Strategy)
		if err := timed(spanAppend, func() error {
			return c.journal.Append(journal.Record{Job: fmt.Sprintf("r%d", i), Op: journal.OpAccepted, Kind: d.Kind, Payload: payload})
		}); err != nil {
			return err
		}
	}
	if every || d.Kind == kindSweep {
		if err := timed(spanSweep, func() error {
			_, err := dse.ExploreContext(ctx, r.shared.sweepNet, core.Default(), d.sweepSpace(), fpga.VC709(), 1)
			return err
		}); err != nil {
			return err
		}
	}
	if every || d.Kind == kindSchedule {
		if err := timed(spanSchedule, func() error {
			spec, err := sched.ParseSpec(d.scheduleSpec())
			if err == nil {
				_, err = sched.RunContext(ctx, core.Default(), spec, nil)
			}
			return err
		}); err != nil {
			return err
		}
	}
	if every || d.Kind == kindCluster {
		if err := timed(spanCluster, func() error {
			spec, err := sched.ParseSpec(d.clusterSpec())
			if err == nil {
				_, err = cluster.RunContext(ctx, core.Default(), spec, nil, nil)
			}
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered int64
		reach := s.start
		for _, k := range kids {
			lo, hi := max(spans[k].start, reach), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// residuals returns, for every op span, its duration minus the time
// of the layer spans on its path (each weighted by its path count):
// what the op spent outside the layers the benchmark can time.
func residuals(spans []span) []int64 {
	onPath := map[int64]int64{}
	for _, s := range spans {
		if s.path > 0 {
			onPath[s.op] += int64(s.path) * (s.end - s.start)
		}
	}
	var out []int64
	for _, s := range spans {
		if s.name == spanOp {
			out = append(out, s.end-s.start-onPath[s.op])
		}
	}
	return out
}

// layerMetrics reduces the clients' spans to the span-derived per-layer
// metrics and the per-name layer table.
func layerMetrics(clients []*client) (map[string]float64, []Layer, error) {
	durs := map[string][]float64{} // µs
	selfs := map[string][]float64{}
	var resid []float64
	var steps [nn.OpShuffle + 1]stepTally
	var layers, stepNS int64
	for _, c := range clients {
		rec := c.rec
		self := selfTimes(rec.spans)
		for k, s := range rec.spans {
			durs[s.name] = append(durs[s.name], float64(s.end-s.start)/1e3)
			selfs[s.name] = append(selfs[s.name], float64(self[k])/1e3)
			if s.name == spanSteps || s.name == spanFinish {
				stepNS += s.end - s.start
			}
		}
		for _, v := range residuals(rec.spans) {
			resid = append(resid, float64(v)/1e3)
		}
		for k := range steps {
			steps[k].ns += rec.steps[k].ns
			steps[k].n += rec.steps[k].n
		}
		layers += rec.layers
	}

	var table []Layer
	for name, ds := range durs {
		s := sortedCopy(ds)
		table = append(table, Layer{
			Name: name, Count: len(s), P50US: quantile(s, 0.5), P99US: quantile(s, 0.99),
			SelfP50US: median(selfs[name]),
		})
	}
	sort.Slice(table, func(i, j int) bool { return table[i].Name < table[j].Name })

	values := map[string]float64{}
	for _, m := range []struct {
		metric, span string
		q, scale     float64
	}{
		{"core.validate_us", spanValidate, 0.5, 1},
		{"core.new_run_us", spanNewRun, 0.5, 1},
		{"core.finish_us", spanFinish, 0.5, 1},
		{"nn.build_us", spanBuild, 0.5, 1},
		{"nn.decode_us", spanDecode, 0.5, 1},
		{"serve.key_us", spanKey, 0.5, 1},
		{"serve.config_decode_us", spanConfig, 0.5, 1},
		{"serve.encode_us", spanEncode, 0.5, 1},
		{"journal.append_us_p50", spanAppend, 0.5, 1},
		{"journal.append_us_p99", spanAppend, 0.99, 1},
		{"dse.sweep_ms", spanSweep, 0.5, 1e-3},
		{"sched.run_ms", spanSchedule, 0.5, 1e-3},
		{"cluster.run_ms", spanCluster, 0.5, 1e-3},
	} {
		ds := durs[m.span]
		if len(ds) == 0 {
			return nil, nil, fmt.Errorf("traced run recorded no %s span", m.span)
		}
		values[m.metric] = quantile(sortedCopy(ds), m.q) * m.scale
	}
	for _, k := range stepKinds {
		if steps[k].n == 0 {
			return nil, nil, fmt.Errorf("traced run stepped no %s layer", k)
		}
		values["core.step_ns."+k.String()] = float64(steps[k].ns) / float64(steps[k].n)
	}
	values["core.layers_per_s"] = float64(layers) / (float64(stepNS) / 1e9)
	values["bench.residual_us"] = median(resid)
	return values, table, nil
}

// probeCore measures core alone, with nothing else running, on the
// simulate documents of the first traced ops: heap allocations per
// layer, and the cost of attaching a metrics registry or a trace
// recorder relative to neither.
func (r *runner) probeCore(ctx context.Context, from int64) (map[string]float64, error) {
	type item struct {
		net   *nn.Network
		cfg   core.Config
		strat core.Strategy
	}
	var items []item
	var layers int64
	for i := from; len(items) < 32; i++ {
		d, err := r.plan.doc(i)
		if err != nil {
			return nil, err
		}
		if d.Kind != kindSimulate {
			continue
		}
		net, err := nn.Build(d.Network)
		if err != nil {
			return nil, err
		}
		items = append(items, item{net, d.config(), d.Strategy})
		layers += int64(len(net.Layers))
	}
	pass := func(rec func() trace.Recorder, reg func() *metrics.Registry) (time.Duration, error) {
		start := time.Now()
		for _, it := range items {
			if _, err := core.SimulateObservedContext(ctx, it.net, it.cfg, it.strat, rec(), reg()); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	noRec := func() trace.Recorder { return nil }
	noReg := func() *metrics.Registry { return nil }
	withRec := func() trace.Recorder { return &trace.Buffer{} }

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := pass(noRec, noReg); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)

	var plain, observed, traced time.Duration
	for range 5 {
		for _, p := range []struct {
			sum *time.Duration
			rec func() trace.Recorder
			reg func() *metrics.Registry
		}{{&plain, noRec, noReg}, {&observed, noRec, metrics.New}, {&traced, withRec, noReg}} {
			d, err := pass(p.rec, p.reg)
			if err != nil {
				return nil, err
			}
			*p.sum += d
		}
	}
	return map[string]float64{
		"core.allocs_per_layer":        float64(m1.Mallocs-m0.Mallocs) / float64(layers),
		"core.observed_overhead_ratio": float64(observed) / float64(plain),
		"core.traced_overhead_ratio":   float64(traced) / float64(plain),
	}, nil
}

// writeTrace writes every client's spans as Chrome trace-event JSON,
// which Perfetto (ui.perfetto.dev) opens.
func writeTrace(path string, clients []*client) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	sep := ""
	for _, c := range clients {
		fmt.Fprintf(w, `%s{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"client %d"}}`, sep, c.id, c.id)
		sep = ",\n"
		for _, s := range c.rec.spans {
			parent := ""
			if s.parent >= 0 {
				parent = c.rec.spans[s.parent].name
			}
			fmt.Fprintf(w, `%s{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"parent":%q,"on_path":%d}}`,
				sep, s.name, c.id, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.op, parent, s.path)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
