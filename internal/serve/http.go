package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"time"

	"shortcutmining/internal/canonjson"
	"shortcutmining/internal/core"
	"shortcutmining/internal/dse"
	"shortcutmining/internal/jsonindent"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/sched"
	"shortcutmining/internal/stats"
	"shortcutmining/internal/trace"
)

// maxBodyBytes bounds request documents (an inline network graph plus
// config comfortably fits).
const maxBodyBytes = 4 << 20

// DefaultRequestTimeout bounds how long a synchronous /v1/simulate
// call waits when the client does not ask for a specific timeout.
const DefaultRequestTimeout = 2 * time.Minute

// netBody is the network-and-platform part of the simulate and sweep
// documents.
type netBody struct {
	// Network names a model-zoo network; Graph is an inline network in
	// the JSON graph format. Exactly one must be set.
	Network string          `json:"network,omitempty"`
	Graph   json.RawMessage `json:"graph,omitempty"`
	// Config overrides platform fields (absent fields keep the
	// calibrated defaults, fault spec included).
	Config json.RawMessage `json:"config,omitempty"`

	// graph is the inline graph as readSimulate read and built it in
	// place; Graph then stays nil.
	graph *builtGraph
}

// builtGraph is an inline graph's network and build error.
type builtGraph struct {
	net *nn.Network
	err error
}

// simulateBody is the POST /v1/simulate document.
type simulateBody struct {
	netBody
	// Strategy is baseline | fm-reuse | scm (default scm).
	Strategy string `json:"strategy,omitempty"`
	// Observe embeds a per-run metrics snapshot in the result.
	Observe bool `json:"observe,omitempty"`
	// Trace embeds the cycle-level event stream in the result, closed
	// by a request-level span carrying this request's ID (synchronous
	// only; traced runs bypass the result cache).
	Trace bool `json:"trace,omitempty"`
	// Async returns 202 + a job id instead of waiting.
	Async bool `json:"async,omitempty"`
	// TimeoutMS bounds the synchronous wait (default 2 minutes).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// sweepBody is the POST /v1/sweep document.
type sweepBody struct {
	netBody
	Space    *dse.Space `json:"space,omitempty"` // default DefaultSpace
	Parallel int        `json:"parallel,omitempty"`
	Pareto   bool       `json:"pareto,omitempty"`
}

// scenarioBody is the POST /v1/schedule and POST /v1/cluster document.
// Both kinds are always asynchronous (a contended scenario can run for
// minutes of simulated time): the reply is 202 + a job id, and the
// Result lands in GET /v1/jobs/{id} under "schedule" or "cluster". A
// cluster scenario must carry chips>1 (plus optional topo=, place=,
// linkgbps=, hoplat= clauses); a schedule scenario at most one chip.
type scenarioBody struct {
	// Config overrides platform fields, like in /v1/simulate. It comes
	// first so a journaled document reads {"config":…,"scenario":…}.
	Config json.RawMessage `json:"config,omitempty"`
	// Spec is the compact scheduling grammar, e.g.
	// "seed=7;policy=rr;stream=resnet34:n=4,gap=2000000;stream=squeezenet:n=6,gap=500000,poisson"
	// or "seed=7;chips=4;topo=mesh;place=affinity;stream=resnet34:n=4,gap=2000000".
	Spec string `json:"spec,omitempty"`
	// Scenario is the structured alternative to Spec. Exactly one of
	// the two must be set.
	Scenario *sched.Spec `json:"scenario,omitempty"`
}

type simulateReply struct {
	Cached    bool            `json:"cached"`
	RequestID string          `json:"request_id,omitempty"`
	Stats     *stats.RunStats `json:"stats"`
	// Trace is the recorded event stream of a "trace":true request,
	// including the request-level span; feed it to trace.WritePerfetto
	// for a timeline searchable by the request ID.
	Trace []trace.Event `json:"trace,omitempty"`
}

type jobReply struct {
	Job   string   `json:"job"`
	State JobState `json:"state"`
}

type errorReply struct {
	Error string `json:"error"`
}

// NewHandler wires the engine's HTTP JSON API:
//
//	POST /v1/simulate   one simulation (sync by default, async opt-in)
//	POST /v1/sweep      asynchronous design-space sweep job
//	POST /v1/schedule   asynchronous multi-tenant scheduling job
//	POST /v1/cluster    asynchronous multi-chip sharded scheduling job
//	GET  /v1/jobs/{id}  job status + result
//	GET  /healthz       liveness / drain status
//	GET  /metrics       server metrics, Prometheus text format
//
// Every request passes through the correlation middleware: the
// X-Request-ID header is honored (or an ID minted), echoed in the
// response, written to the engine's structured access log, stamped
// into job records, and — for traced simulations — into the
// request-level trace span.
func NewHandler(e *Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) { handleSimulate(e, w, r) })
	for _, k := range []*jobKind{sweepKind, scheduleKind, clusterKind} {
		mux.HandleFunc("POST /v1/"+k.name, func(w http.ResponseWriter, r *http.Request) { handleAsync(e, k, w, r) })
	}
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) { handleJob(e, w, r) })
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { handleHealth(e, w) })
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) { handleMetrics(e, w) })
	return withRequestID(e, mux)
}

// bufs recycles the scratch buffers replies, network keys and
// checkpoint snapshots are encoded into and Cache.Put sizes entries
// in; bodies recycles the
// buffers request bodies are read into, which are far smaller than a
// reply.
var (
	bufs   = sync.Pool{New: func() any { return new([]byte) }}
	bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// The largest buffers the pools keep. A scratch buffer has room for
// the largest zoo network's reply (about 90 KB); a body buffer for any
// zoo graph inline. A larger one, from an inline graph near
// maxBodyBytes, is left to the collector rather than held by a pool.
const (
	maxPooledBuf  = 256 << 10
	maxPooledBody = 64 << 10
)

// putBuf returns p to bufs unless it outgrew maxPooledBuf.
func putBuf(p *[]byte) {
	if cap(*p) <= maxPooledBuf {
		bufs.Put(p)
	}
}

// writeJSON writes v as the indented reply jsonindent.Encode writes. It
// encodes before it commits the status, so a value that cannot be
// encoded becomes a 500 error reply rather than a 200 with no body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding reply: %w", err))
		return
	}
	p := bufs.Get().(*[]byte)
	defer putBuf(p)
	// Two-space indentation makes a reply about 1.7–1.9× its compact
	// size; 2× leaves room for it and the newline.
	*p = append(jsonindent.AppendIndent(slices.Grow((*p)[:0], 2*len(b)+1), b, "", "  "), '\n')
	writeBody(w, code, *p)
}

// writeSimulateReply writes the untraced simulate reply, byte for byte
// what writeJSON(simulateReply{…}) writes, with the stats encoded by
// RunStats.WriteJSON straight into a pooled buffer.
func writeSimulateReply(w http.ResponseWriter, cached bool, reqID string, res *stats.RunStats) {
	p := bufs.Get().(*[]byte)
	defer putBuf(p)
	jw := jsonindent.NewWriter((*p)[:0], "", "  ")
	jw.Open('{')
	jw.Key("cached").Bool(cached)
	if reqID != "" {
		jw.Key("request_id").String(reqID)
	}
	jw.Key("stats")
	res.WriteJSON(&jw)
	jw.Close('}')
	b, err := jw.Bytes()
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding reply: %w", err))
		return
	}
	*p = append(b, '\n')
	writeBody(w, http.StatusOK, *p)
}

// writeBody commits code and writes an encoded JSON reply.
func writeBody(w http.ResponseWriter, code int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// scmvet:ok ignorederr the response status is already committed; nothing useful can be done
	w.Write(b)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorReply{Error: err.Error()})
}

// statusFor maps engine sentinels onto HTTP codes.
func statusFor(err error) int {
	switch {
	case errors.As(err, new(invalidError)):
		return http.StatusBadRequest
	case errors.Is(err, ErrBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError
	}
}

// decodeJSON decodes exactly one JSON document from r into v: unknown
// fields and anything but whitespace after the document are errors.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	switch trailing, err := canonjson.AfterDocument(dec); {
	case trailing:
		return errors.New("decoding request: unexpected data after the JSON document")
	case err != nil:
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// resolve builds the network from either a zoo name or an inline
// graph document, and the platform from the config overrides.
func (b netBody) resolve() (*nn.Network, core.Config, error) {
	var net *nn.Network
	var err error
	switch {
	case b.Network != "" && b.hasGraph():
		return nil, core.Config{}, errors.New("set either network or graph, not both")
	case b.Network != "":
		net, err = nn.Build(b.Network)
	case b.graph != nil:
		net, err = b.graph.net, b.graph.err
	case b.Graph != nil:
		net, err = nn.DecodeJSON(bytes.NewReader(b.Graph))
	default:
		return nil, core.Config{}, errors.New("request needs a network name or an inline graph")
	}
	if err != nil {
		return nil, core.Config{}, err
	}
	cfg, err := resolveConfig(b.Config)
	return net, cfg, err
}

// hasGraph reports whether the document carries an inline graph.
func (b netBody) hasGraph() bool { return b.Graph != nil || b.graph != nil }

// resolveConfig applies optional overrides to the calibrated defaults.
func resolveConfig(raw json.RawMessage) (core.Config, error) {
	if raw == nil {
		return core.Default(), nil
	}
	return core.DecodeConfigJSON(bytes.NewReader(raw))
}

// parseStrategy parses a strategy name; "" means SCM.
func parseStrategy(name string) (core.Strategy, error) {
	if name == "" {
		return core.SCM, nil
	}
	return core.ParseStrategy(name)
}

// decodeSimulate decodes a simulate document into its Request. It
// reads the body once; a document in canonjson's subset is decoded in
// that one pass, its graph built in place, and any other goes through
// decodeJSON, whose errors are the API's.
func decodeSimulate(r io.Reader, reqID string) (simulateBody, Request, error) {
	buf := bodies.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodies.Put(buf)
		}
	}()
	buf.Reset()
	_, rerr := buf.ReadFrom(r)
	data := buf.Bytes()
	var body simulateBody
	if rerr != nil || !readSimulate(data, &body) {
		body = simulateBody{}
		if err := decodeJSON(canonjson.Replay(data, rerr), &body); err != nil {
			return body, Request{}, err
		}
	}
	req, err := body.request(reqID)
	return body, req, err
}

// simulateKeys are simulateBody's member names, netBody's included.
var simulateKeys = []string{"network", "graph", "config", "strategy", "observe", "trace", "async", "timeout_ms"}

// readSimulate reads a simulate document in canonjson's subset into
// body and reports whether it was one. Config keeps its own decoder:
// its bytes are copied out of data, which the caller reuses.
func readSimulate(data []byte, body *simulateBody) bool {
	cr := canonjson.NewReader(data)
	var build func() (*nn.Network, error)
	cr.Object(simulateKeys, func(i int) {
		switch i {
		case 0:
			body.Network = cr.Str()
		case 1:
			build = nn.ReadJSON(cr)
		case 2:
			body.Config = bytes.Clone(cr.Raw())
		case 3:
			body.Strategy = cr.Str()
		case 4:
			body.Observe = cr.Bool()
		case 5:
			body.Trace = cr.Bool()
		case 6:
			body.Async = cr.Bool()
		case 7:
			body.TimeoutMS = int64(cr.Int())
		}
	})
	// The graph is built only once the whole document is known to be
	// in the subset, so a body that falls back builds it once.
	if cr.End(); !cr.OK() {
		return false
	}
	if build != nil {
		net, err := build()
		body.graph = &builtGraph{net: net, err: err}
	}
	return true
}

// request validates a decoded simulate document and resolves it into
// its Request.
func (body simulateBody) request(reqID string) (Request, error) {
	if body.TimeoutMS < 0 || body.TimeoutMS > math.MaxInt64/int64(time.Millisecond) {
		return Request{}, fmt.Errorf("timeout_ms %d out of range [0, %d]", body.TimeoutMS, math.MaxInt64/int64(time.Millisecond))
	}
	// A warm zoo name is hashed from its memoized state, so the network
	// is built only when a run needs it (Request.built).
	var net *nn.Network
	var cfg core.Config
	var err error
	if !body.hasGraph() && warmZoo(body.Network) {
		cfg, err = resolveConfig(body.Config)
	} else {
		net, cfg, err = body.resolve()
	}
	if err != nil {
		return Request{}, err
	}
	strategy, err := parseStrategy(body.Strategy)
	if err != nil {
		return Request{}, err
	}
	return Request{Net: net, Cfg: cfg, Strategy: strategy, Observe: body.Observe, RequestID: reqID, zoo: body.Network}, nil
}

// handleSimulate serves POST /v1/simulate on e: it decodes the
// document, then runs it synchronously or submits it as a job.
func handleSimulate(e *Engine, w http.ResponseWriter, r *http.Request) {
	body, req, err := decodeSimulate(http.MaxBytesReader(w, r.Body, maxBodyBytes), RequestIDFrom(r.Context()))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if body.Async {
		if body.Trace {
			writeError(w, http.StatusBadRequest, errors.New("trace is synchronous-only; drop async or trace"))
			return
		}
		req, err := req.built() // the journaled payload embeds the graph
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		acceptJob(w, e, simulateKind, req, req.RequestID)
		return
	}

	timeout := DefaultRequestTimeout
	if body.TimeoutMS > 0 {
		timeout = time.Duration(body.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	if body.Trace {
		res, events, err := e.SimulateTraced(ctx, req)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, simulateReply{RequestID: req.RequestID, Stats: &res, Trace: events})
		return
	}
	res, cached, err := e.Simulate(ctx, req)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeSimulateReply(w, cached, req.RequestID, &res)
}

// handleAsync serves the job-submitting route of kind k: the body
// decodes through the kind's row and the job is submitted.
func handleAsync(e *Engine, k *jobKind, w http.ResponseWriter, r *http.Request) {
	reqID := RequestIDFrom(r.Context())
	req, err := k.body(http.MaxBytesReader(w, r.Body, maxBodyBytes), reqID)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	acceptJob(w, e, k, req, reqID)
}

// acceptJob submits req as a job of kind k and writes the 202 reply,
// or the submission's error.
func acceptJob(w http.ResponseWriter, e *Engine, k *jobKind, req any, reqID string) {
	j, err := e.submit(k, req, reqID)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, jobReply{Job: j.ID(), State: JobQueued})
}

// resolveScenario picks the spec from a (grammar string, structured
// scenario) pair, exactly one of which must be set.
func resolveScenario(specStr string, scenario *sched.Spec) (*sched.Spec, error) {
	switch {
	case specStr != "" && scenario != nil:
		return nil, errors.New("set either spec or scenario, not both")
	case specStr != "":
		return sched.ParseSpec(specStr)
	case scenario != nil:
		if err := scenario.Validate(); err != nil {
			return nil, err
		}
		return scenario, nil
	default:
		return nil, errors.New("request needs a spec string or a structured scenario")
	}
}

func handleJob(e *Engine, w http.ResponseWriter, r *http.Request) {
	j, ok := e.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

// healthReply is the GET /healthz document: structured readiness.
// Status is "ok", "degraded" (still serving — journal write failures
// or recovery in progress, detailed in Reasons), or "draining".
type healthReply struct {
	Status   string     `json:"status"`
	Reasons  []string   `json:"reasons,omitempty"`
	Draining bool       `json:"draining"`
	Workers  int        `json:"workers"`
	Busy     int        `json:"busy"`
	Queued   int        `json:"queued"`
	Cache    CacheStats `json:"cache"`
}

func handleHealth(e *Engine, w http.ResponseWriter) {
	status, reasons := e.Health()
	reply := healthReply{
		Status:   status,
		Reasons:  reasons,
		Draining: status == "draining",
		Workers:  e.pool.Workers(),
		Busy:     e.pool.Busy(),
		Queued:   e.pool.QueueLen(),
		Cache:    e.CacheStats(),
	}
	code := http.StatusOK // degraded still serves: 200, details in the body
	if reply.Draining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, reply)
}

func handleMetrics(e *Engine, w http.ResponseWriter) {
	e.syncGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// scmvet:ok ignorederr best-effort scrape; a failed write only affects the scraper
	e.reg.WriteProm(w)
}
