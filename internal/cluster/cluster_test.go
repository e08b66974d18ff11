package cluster

import (
	"encoding/json"
	"sync"
	"testing"

	"shortcutmining/internal/core"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/sched"
	"shortcutmining/internal/trace"
)

func testSpec(t *testing.T, s string) *sched.Spec {
	t.Helper()
	spec, err := sched.ParseSpec(s)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", s, err)
	}
	return spec
}

const testScenario = "seed=11;chips=3;stream=squeezenet:n=3,gap=500000;stream=resnet34:n=2,gap=800000,poisson"

func TestClusterReconciles(t *testing.T) {
	cfg := core.Default()
	for _, topo := range []string{"ring", "mesh", "all"} {
		for _, place := range []string{"hash", "leastload", "affinity"} {
			spec := testSpec(t, testScenario+";topo="+topo+";place="+place)
			res, err := Run(cfg, spec, nil, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", topo, place, err)
			}
			if err := res.Reconcile(); err != nil {
				t.Errorf("%s/%s: %v", topo, place, err)
			}
			if res.MakespanCycles <= 0 {
				t.Errorf("%s/%s: makespan %d", topo, place, res.MakespanCycles)
			}
		}
	}
}

// TestShardedBitIdentical is the suspend-at-every-boundary determinism
// check: each request's own RunStats (cycles AND per-class traffic)
// must match an uncontended single-tenant run exactly, no matter how
// many chip boundaries sliced it.
func TestShardedBitIdentical(t *testing.T) {
	cfg := core.Default()
	// hash placement maximizes boundaries: nearly every layer is a cut.
	spec := testSpec(t, "seed=5;chips=3;place=hash;stream=squeezenet:n=2,gap=300000")
	res, err := Run(cfg, spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Reconcile(); err != nil {
		t.Fatal(err)
	}
	s := res.Streams[0]
	if s.Crossings == 0 {
		t.Fatal("hash placement produced no chip crossings; the test is vacuous")
	}
	net, err := nn.Build("squeezenet")
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	scfg.Batch = 1
	scfg.AmortizeWeights = false
	single, err := core.Simulate(net, scfg, core.SCM, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.SingleTenantCycles != single.TotalCycles {
		t.Errorf("single-tenant baseline %d != core.Simulate %d", s.SingleTenantCycles, single.TotalCycles)
	}
	if s.ServiceCycles != int64(s.Completed)*single.TotalCycles {
		t.Errorf("sharded service cycles %d != %d × %d", s.ServiceCycles, s.Completed, single.TotalCycles)
	}
	for c := range single.Traffic {
		if s.Traffic[c] != int64(s.Completed)*single.Traffic[c] {
			t.Errorf("traffic class %d: sharded %d != %d × single-tenant %d",
				c, s.Traffic[c], s.Completed, single.Traffic[c])
		}
	}
}

func TestClusterDeterminism(t *testing.T) {
	cfg := core.Default()
	spec := testSpec(t, testScenario+";topo=mesh;place=affinity")
	a, err := Run(cfg, spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Error("identical specs produced different results")
	}
}

func TestPlacementPoliciesDiffer(t *testing.T) {
	cfg := core.Default()
	makespan := map[string]int64{}
	crossings := map[string]int64{}
	for _, place := range []string{"hash", "leastload", "affinity"} {
		spec := testSpec(t, testScenario+";topo=ring;place="+place)
		res, err := Run(cfg, spec, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Reconcile(); err != nil {
			t.Fatalf("%s: %v", place, err)
		}
		var cross int64
		for _, s := range res.Streams {
			cross += s.Crossings
		}
		makespan[place] = res.MakespanCycles
		crossings[place] = cross
	}
	if makespan["hash"] == makespan["affinity"] && makespan["hash"] == makespan["leastload"] {
		t.Errorf("all placements produced the same makespan: %v", makespan)
	}
	if crossings["hash"] <= crossings["affinity"] {
		t.Errorf("hash crossings (%d) should exceed affinity crossings (%d)",
			crossings["hash"], crossings["affinity"])
	}
	if makespan["hash"] <= makespan["affinity"] {
		t.Errorf("hash makespan (%d) should exceed affinity makespan (%d): ping-pong placement must cost",
			makespan["hash"], makespan["affinity"])
	}
}

// TestClusterConcurrentRuns exercises concurrent shard execution under
// -race: independent Run calls share no mutable state, so N goroutines
// running the same scenario must produce byte-identical results.
func TestClusterConcurrentRuns(t *testing.T) {
	cfg := core.Default()
	spec := testSpec(t, testScenario+";topo=mesh;place=leastload")
	const workers = 4
	results := make([]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := Run(cfg, spec, nil, nil)
			if err != nil {
				errs[w] = err
				return
			}
			j, err := json.Marshal(res)
			if err != nil {
				errs[w] = err
				return
			}
			results[w] = string(j)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if results[w] != results[0] {
			t.Errorf("worker %d diverged from worker 0", w)
		}
	}
}

func TestClusterRejectsBadSpecs(t *testing.T) {
	cfg := core.Default()
	single := testSpec(t, "stream=squeezenet:n=1")
	if _, err := Run(cfg, single, nil, nil); err == nil {
		t.Error("cluster.Run accepted a single-chip spec")
	}
	if _, err := Run(cfg, nil, nil, nil); err == nil {
		t.Error("cluster.Run accepted a nil spec")
	}
}

func TestClusterMetricsAndTrace(t *testing.T) {
	cfg := core.Default()
	reg := metrics.New()
	var buf trace.Buffer
	spec := testSpec(t, testScenario+";topo=ring;place=hash")
	res, err := Run(cfg, spec, reg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Reconcile(); err != nil {
		t.Fatal(err)
	}
	links := buf.OfKind(trace.KindLink)
	if int64(len(links)) == 0 {
		t.Error("no link-occupancy trace events recorded")
	}
	var spanBytes int64
	for _, e := range links {
		if e.Tag == "" || e.DurCycles <= 0 {
			t.Fatalf("malformed link span: %+v", e)
		}
	}
	// Every granted window appears once per hop; on a 2-chip-distance
	// ring route a transfer yields multiple spans, so spans ≥ transfers.
	if int64(len(links)) < res.Noc.Transfers {
		t.Errorf("%d link spans < %d transfers", len(links), res.Noc.Transfers)
	}
	_ = spanBytes

	snap := reg.Snapshot()
	found := map[string]bool{}
	for _, c := range snap.Counters {
		found[c.Name] = true
	}
	for _, g := range snap.Gauges {
		found[g.Name] = true
	}
	for _, want := range []string{MetricRequests, MetricCrossings, MetricInterchipBytes,
		MetricMakespanCycles, MetricChipCompute, MetricNocTransfers, MetricNocBackpressure} {
		if !found[want] {
			t.Errorf("metric family %s missing from snapshot", want)
		}
	}
}

func TestResultTables(t *testing.T) {
	cfg := core.Default()
	spec := testSpec(t, testScenario+";topo=all;place=affinity")
	res, err := Run(cfg, spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if md := res.Table().Markdown(); md == "" {
		t.Error("empty QoS table")
	}
	if md := res.ChipTable().Markdown(); md == "" {
		t.Error("empty chip table")
	}
	for _, q := range res.Requests {
		if q.Latency < q.ServiceCycles {
			t.Errorf("request %s#%d latency %d < service %d", q.Stream, q.Seq, q.Latency, q.ServiceCycles)
		}
	}
	if res.Noc.Topology != "all" {
		t.Errorf("fabric stats topology %q, want all", res.Noc.Topology)
	}
}
