package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"shortcutmining/internal/cluster"
	"shortcutmining/internal/core"
	"shortcutmining/internal/dram"
	"shortcutmining/internal/dse"
	"shortcutmining/internal/fpga"
	"shortcutmining/internal/journal"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/sched"
	"shortcutmining/internal/serve"
)

// Deep-check cadences: every 64th synchronous reply is re-run in
// process, and every 16th async job's result.
const (
	checkSyncEvery = 64
	checkJobEvery  = 16
)

// durableCacheBytes is serve-durable's result-cache budget.
const durableCacheBytes = 16 << 20

// serveSystem is one of the serve workloads: an in-process serve.Engine
// behind its HTTP handler on a loopback port.
type serveSystem struct {
	workload string
	plan     *plan
	shared   *sharedInputs
	dir      string

	engine  *serve.Engine
	journal *journal.Journal
	srv     *http.Server
	served  chan struct{}
	base    string
}

func newServeSystem(workload string, p *plan, shared *sharedInputs, dir string) *serveSystem {
	return &serveSystem{workload: workload, plan: p, shared: shared, dir: dir}
}

func (s *serveSystem) clients() int { return clientCount }

func (s *serveSystem) cache() (hits, misses int64) {
	cs := s.engine.CacheStats()
	return cs.Hits, cs.Misses
}

// setupDir is the journal directory set-up repetition rep recovers.
func (s *serveSystem) setupDir(rep int) string {
	return filepath.Join(s.dir, fmt.Sprintf("journal-setup-%d", rep))
}

// prepare fills serve-durable's journal with the pre-run, once, and
// gives each set-up repetition a fresh copy to recover (recovery
// compacts the journal it opens).
func (s *serveSystem) prepare(ctx context.Context, rep int) error {
	if s.workload != "serve-durable" {
		return nil
	}
	src := filepath.Join(s.dir, "journal-prerun")
	if rep == 0 {
		if err := s.prerun(ctx, src); err != nil {
			return fmt.Errorf("pre-run: %w", err)
		}
	}
	return copyDir(src, s.setupDir(rep))
}

// prerunInflight bounds the pre-run's unfinished jobs, below the
// engine's default queue depth, so that no submission is refused (a
// refused job would still leave records in the journal).
const prerunInflight = 32

// prerun sends plan ops [0, durablePrerun) through an engine writing
// dir's journal, and waits for every job to finish. Compaction is off
// so the journal keeps every record.
func (s *serveSystem) prerun(ctx context.Context, dir string) error {
	jr, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return err
	}
	eng := serve.NewEngine(serve.Options{
		Workers: clientCount, Journal: jr, CheckpointLayers: checkpointLayers, CompactEvery: 1 << 30,
	})
	var jobs []*serve.Job
	for i := int64(0); i < durablePrerun; i++ {
		if i >= prerunInflight {
			<-jobs[i-prerunInflight].Done() // stay clear of the engine's 64-deep queue
		}
		d, err := s.plan.doc(i)
		if err != nil {
			return err
		}
		j, err := submit(eng, d, s.shared)
		if err != nil {
			return err
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		<-j.Done()
		if v := j.View(); v.State != serve.JobDone {
			return fmt.Errorf("job %s: %s %s", v.ID, v.State, v.Error)
		}
	}
	if err := eng.Drain(ctx); err != nil {
		return err
	}
	return jr.Close()
}

// submit hands doc d to eng through its Go API.
func submit(eng *serve.Engine, d doc, shared *sharedInputs) (*serve.Job, error) {
	switch d.Kind {
	case kindSimulate:
		net, err := nn.Build(d.Network)
		if err != nil {
			return nil, err
		}
		return eng.SubmitSimulate(serve.Request{Net: net, Cfg: d.config(), Strategy: d.Strategy})
	case kindSweep:
		return eng.SubmitSweep(serve.SweepRequest{Net: shared.sweepNet, Base: core.Default(), Space: d.sweepSpace(), Parallel: 1})
	case kindSchedule:
		spec, err := sched.ParseSpec(d.scheduleSpec())
		if err != nil {
			return nil, err
		}
		return eng.SubmitSchedule(serve.ScheduleRequest{Cfg: core.Default(), Spec: spec})
	default:
		spec, err := sched.ParseSpec(d.clusterSpec())
		if err != nil {
			return nil, err
		}
		return eng.SubmitCluster(serve.ClusterRequest{Cfg: core.Default(), Spec: spec})
	}
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// setup starts the engine and its HTTP server. serve-durable first
// recovers its journal; serve-hot and serve-cold then send plan ops
// [0, warmOps): serve-hot's 18 keys, which warm its cache, and for
// serve-cold a first request per (network, strategy).
func (s *serveSystem) setup(ctx context.Context, rep int) error {
	opts := serve.Options{Workers: clientCount}
	var recs []journal.Record
	if s.workload == "serve-durable" {
		var err error
		if s.journal, recs, err = journal.Open(s.setupDir(rep), journal.Options{}); err != nil {
			return err
		}
		opts.Journal, opts.CheckpointLayers = s.journal, checkpointLayers
		// A budget the job mix fills within the first seconds, so that
		// heap_live_mb reads a full cache, not how far a trial got.
		opts.CacheBytes = durableCacheBytes
	}
	s.engine = serve.NewEngine(opts)
	if s.journal != nil {
		got, err := s.engine.Recover(recs)
		if err != nil {
			return err
		}
		if got.Restored != durablePrerun {
			return fmt.Errorf("recovery restored %d jobs, want %d (%v)", got.Restored, durablePrerun, got)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: serve.NewHandler(s.engine)}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	if s.workload == "serve-durable" {
		return nil
	}
	c := &client{http: &http.Client{}}
	defer c.http.CloseIdleConnections()
	for i := range warmOps {
		d, err := s.plan.doc(i)
		if err != nil {
			return err
		}
		if err := s.op(ctx, c, i, d); err != nil {
			return fmt.Errorf("first request for %s/%s: %w", d.Network, d.Strategy, err)
		}
	}
	return nil
}

func (s *serveSystem) teardown(ctx context.Context) error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.Shutdown(ctx)
	<-s.served
	err = errors.Join(err, s.engine.Drain(ctx))
	if s.journal != nil {
		err = errors.Join(err, s.journal.Close())
		s.journal = nil
	}
	s.srv, s.engine = nil, nil
	return err
}

// quiesceGap is how long the journal must stay unchanged for quiesce.
const quiesceGap = 2 * time.Millisecond

// quiesce waits for serve-durable's journal to settle: a worker appends
// a job's terminal record after the job reads done, and an append can
// start a compaction in a goroutine of its own. Stats waits for an
// append or a compaction holding the journal, so two equal readings
// quiesceGap apart mean neither ran in between. The other workloads
// leave no work behind their replies.
func (s *serveSystem) quiesce(ctx context.Context) error {
	if s.journal == nil {
		return nil
	}
	prev := s.journal.Stats()
	for {
		time.Sleep(quiesceGap)
		if err := ctx.Err(); err != nil {
			return err
		}
		cur := s.journal.Stats()
		if cur == prev {
			return nil
		}
		prev = cur
	}
}

// body builds op d's request into c.body and returns its path.
func (s *serveSystem) body(c *client, d doc) string {
	b := append(c.body[:0], '{')
	path := "/v1/simulate"
	switch {
	case s.workload == "serve-hot":
		b = fmt.Appendf(b, `"network":%q,"strategy":%q`, d.Network, d.Strategy)
	case s.workload == "serve-cold":
		b = append(b, `"graph":`...)
		b = append(b, s.shared.graphs[d.Network]...)
		b = fmt.Appendf(b, `,"config":%s,"strategy":%q,"observe":%t`, d.Point.configJSON(), d.Strategy, d.Observe)
	case d.Kind == kindSimulate:
		b = fmt.Appendf(b, `"network":%q,"config":%s,"strategy":%q,"async":true`, d.Network, d.Point.configJSON(), d.Strategy)
	case d.Kind == kindSweep:
		space, _ := json.Marshal(d.sweepSpace()) // a dse.Space always encodes
		path = "/v1/sweep"
		b = fmt.Appendf(b, `"network":%q,"space":%s,"parallel":1`, d.Network, space)
	case d.Kind == kindSchedule:
		path = "/v1/schedule"
		b = fmt.Appendf(b, `"spec":%q`, d.scheduleSpec())
	default:
		path = "/v1/cluster"
		b = fmt.Appendf(b, `"spec":%q`, d.clusterSpec())
	}
	c.body = append(b, '}')
	return path
}

// send makes one request and reads the whole reply into c.buf.
func (s *serveSystem) send(ctx context.Context, c *client, method, path string, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// op sends d. A synchronous op ends with the reply; an async job ends
// when a poll (one per millisecond) finds it in a terminal state.
func (s *serveSystem) op(ctx context.Context, c *client, i int64, d doc) error {
	path := s.body(c, d)
	code, err := s.send(ctx, c, http.MethodPost, path, c.body)
	if err != nil {
		return err
	}
	want := http.StatusOK
	if s.workload == "serve-durable" {
		want = http.StatusAccepted
	}
	if code != want {
		if code == http.StatusTooManyRequests {
			c.rejected++
		}
		return fmt.Errorf("POST %s: HTTP %d: %s", path, code, bytes.TrimSpace(c.buf.Bytes()))
	}
	if s.workload != "serve-durable" {
		return nil
	}
	id := jsonString(c.buf.Bytes(), "job")
	for {
		time.Sleep(time.Millisecond)
		c.polls++
		if code, err = s.send(ctx, c, http.MethodGet, "/v1/jobs/"+id, nil); err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("GET job %s: HTTP %d", id, code)
		}
		switch state := serve.JobState(jsonString(c.buf.Bytes(), "state")); {
		case state == serve.JobDone:
			return nil
		case state.Terminal():
			return fmt.Errorf("%s job %s ended %s", d.Kind, id, state)
		}
	}
}

// jsonString extracts the first string value of key from a JSON
// document: enough for the top-level job id and state, which come
// before any nested object in the server's replies.
func jsonString(doc []byte, key string) string {
	k := bytes.Index(doc, []byte(`"`+key+`":`))
	if k < 0 {
		return ""
	}
	rest := bytes.TrimLeft(doc[k+len(key)+3:], " ")
	if len(rest) == 0 || rest[0] != '"' {
		return ""
	}
	rest = rest[1:]
	if end := bytes.IndexByte(rest, '"'); end >= 0 {
		return string(rest[:end])
	}
	return ""
}

// check confirms the reply came from where the workload expects (the
// cache on serve-hot, a fresh run on serve-cold) and queues the deep
// checks.
func (s *serveSystem) check(c *client, i int64, d doc) error {
	reply := c.buf.Bytes()
	if s.workload == "serve-durable" {
		if i%checkJobEvery != 0 {
			return nil
		}
		var view struct {
			Stats, Outcomes, Schedule, Cluster json.RawMessage
		}
		if err := json.Unmarshal(reply, &view); err != nil {
			return err
		}
		raw := view.Stats
		switch d.Kind {
		case kindSweep:
			raw = view.Outcomes
		case kindSchedule:
			raw = view.Schedule
		case kindCluster:
			raw = view.Cluster
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			return fmt.Errorf("%s job result: %w", d.Kind, err)
		}
		c.checks = append(c.checks, pending{op: i, sum: sha256.Sum256(compact.Bytes())})
		return nil
	}
	want := []byte(`"cached": ` + strconv.FormatBool(s.workload == "serve-hot"))
	if !bytes.Contains(reply[:min(len(reply), 64)], want) {
		return fmt.Errorf("reply does not start with %s", want)
	}
	if i%checkSyncEvery != 0 {
		return nil
	}
	var r struct {
		Stats struct {
			TotalCycles int64
			Traffic     dram.Traffic
		} `json:"stats"`
	}
	if err := json.Unmarshal(reply, &r); err != nil {
		return err
	}
	c.checks = append(c.checks, pending{op: i, totalCycles: r.Stats.TotalCycles, traffic: r.Stats.Traffic})
	return nil
}

// verify re-runs op p.op in process and compares: TotalCycles and
// per-class traffic for a simulate reply, the whole result document
// for an async job.
func (s *serveSystem) verify(ctx context.Context, p pending) error {
	d, err := s.plan.doc(p.op)
	if err != nil {
		return err
	}
	if s.workload == "serve-durable" {
		got, err := runJob(ctx, d, s.shared)
		if err != nil {
			return err
		}
		if sha256.Sum256(got) != p.sum {
			return fmt.Errorf("%s job result differs from an in-process run", d.Kind)
		}
		return nil
	}
	var net *nn.Network
	if s.workload == "serve-cold" {
		net, err = nn.DecodeJSON(bytes.NewReader(s.shared.graphs[d.Network]))
	} else {
		net, err = nn.Build(d.Network)
	}
	if err != nil {
		return err
	}
	cfg, err := decodeConfig(d)
	if err != nil {
		return err
	}
	var reg *metrics.Registry
	if d.Observe {
		reg = metrics.New()
	}
	res, err := core.SimulateObservedContext(ctx, net, cfg, d.Strategy, nil, reg)
	if err != nil {
		return err
	}
	if res.TotalCycles != p.totalCycles || res.Traffic != p.traffic {
		return fmt.Errorf("%s/%s: served TotalCycles %d traffic %v, in-process %d %v",
			d.Network, d.Strategy, p.totalCycles, p.traffic, res.TotalCycles, res.Traffic)
	}
	return nil
}

// runJob computes job d in process and returns its result as JSON.
func runJob(ctx context.Context, d doc, shared *sharedInputs) ([]byte, error) {
	var res any
	var err error
	switch d.Kind {
	case kindSimulate:
		var net *nn.Network
		if net, err = nn.Build(d.Network); err == nil {
			res, err = core.SimulateContext(ctx, net, d.config(), d.Strategy, nil)
		}
	case kindSweep:
		res, err = dse.ExploreContext(ctx, shared.sweepNet, core.Default(), d.sweepSpace(), fpga.VC709(), 1)
	case kindSchedule:
		var spec *sched.Spec
		if spec, err = sched.ParseSpec(d.scheduleSpec()); err == nil {
			res, err = sched.RunContext(ctx, core.Default(), spec, nil)
		}
	default:
		var spec *sched.Spec
		if spec, err = sched.ParseSpec(d.clusterSpec()); err == nil {
			res, err = cluster.RunContext(ctx, core.Default(), spec, nil, nil)
		}
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}
