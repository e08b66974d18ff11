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
	"time"

	"shortcutmining/internal/core"
	"shortcutmining/internal/dse"
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
	// Spec is the compact scheduling grammar, e.g.
	// "seed=7;policy=rr;stream=resnet34:n=4,gap=2000000;stream=squeezenet:n=6,gap=500000,poisson"
	// or "seed=7;chips=4;topo=mesh;place=affinity;stream=resnet34:n=4,gap=2000000".
	Spec string `json:"spec,omitempty"`
	// Scenario is the structured alternative to Spec. Exactly one of
	// the two must be set.
	Scenario *sched.Spec `json:"scenario,omitempty"`
	// Config overrides platform fields, like in /v1/simulate.
	Config json.RawMessage `json:"config,omitempty"`
}

type simulateReply struct {
	Cached    bool            `json:"cached"`
	RequestID string          `json:"request_id,omitempty"`
	Stats     *stats.RunStats `json:"stats"`
	// Trace is the recorded event stream of a "trace":true request,
	// including the request-level span; feed it to trace.WritePerfetto
	// (or scm-trace) for a timeline searchable by the request ID.
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
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		if body, req, ok := parseSimulate(w, r); ok {
			serveSimulate(e, w, r, body, req)
		}
	})
	for _, k := range []*jobKind{sweepKind, scheduleKind, clusterKind} {
		mux.HandleFunc("POST /v1/"+k.name, func(w http.ResponseWriter, r *http.Request) { handleAsync(e, k, w, r) })
	}
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) { handleJob(e, w, r) })
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { handleHealth(e, w) })
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) { handleMetrics(e, w) })
	return withRequestID(e, mux)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// scmvet:ok ignorederr the response status is already committed; nothing useful can be done
	enc.Encode(v)
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
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("decoding request: unexpected data after the JSON document")
	}
	return nil
}

// resolve builds the network from either a zoo name or an inline
// graph document, and the platform from the config overrides.
func (b netBody) resolve() (*nn.Network, core.Config, error) {
	var net *nn.Network
	var err error
	switch {
	case b.Network != "" && b.Graph != nil:
		return nil, core.Config{}, errors.New("set either network or graph, not both")
	case b.Network != "":
		net, err = nn.Build(b.Network)
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

// parseSimulate decodes and validates a POST /v1/simulate document into
// an executable Request. On failure the error response has been written
// and ok is false.
func parseSimulate(w http.ResponseWriter, r *http.Request) (simulateBody, Request, bool) {
	body, req, err := decodeSimulate(http.MaxBytesReader(w, r.Body, maxBodyBytes), RequestIDFrom(r.Context()))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return body, req, false
	}
	return body, req, true
}

// decodeSimulate decodes a simulate document into its Request.
func decodeSimulate(r io.Reader, reqID string) (simulateBody, Request, error) {
	var body simulateBody
	if err := decodeJSON(r, &body); err != nil {
		return body, Request{}, err
	}
	if body.TimeoutMS < 0 || body.TimeoutMS > math.MaxInt64/int64(time.Millisecond) {
		return body, Request{}, fmt.Errorf("timeout_ms %d out of range [0, %d]", body.TimeoutMS, math.MaxInt64/int64(time.Millisecond))
	}
	net, cfg, err := body.resolve()
	if err != nil {
		return body, Request{}, err
	}
	strategy, err := parseStrategy(body.Strategy)
	if err != nil {
		return body, Request{}, err
	}
	return body, Request{Net: net, Cfg: cfg, Strategy: strategy, Observe: body.Observe, RequestID: reqID}, nil
}

// serveSimulate executes a parsed simulate request on e and writes the
// response. It reports whether the reply came from e's result cache
// (always false for async, traced, and failed requests) so a sharding
// front can count forwarded cache hits.
func serveSimulate(e *Engine, w http.ResponseWriter, r *http.Request, body simulateBody, req Request) bool {
	if body.Async {
		if body.Trace {
			writeError(w, http.StatusBadRequest, errors.New("trace is synchronous-only; drop async or trace"))
			return false
		}
		acceptJob(w, e, simulateKind, req, req.RequestID)
		return false
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
			return false
		}
		writeJSON(w, http.StatusOK, simulateReply{RequestID: req.RequestID, Stats: &res, Trace: events})
		return false
	}
	res, cached, err := e.Simulate(ctx, req)
	if err != nil {
		writeError(w, statusFor(err), err)
		return false
	}
	writeJSON(w, http.StatusOK, simulateReply{Cached: cached, RequestID: req.RequestID, Stats: &res})
	return cached
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
