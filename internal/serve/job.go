package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"shortcutmining/internal/cluster"
	"shortcutmining/internal/dse"
	"shortcutmining/internal/fpga"
	"shortcutmining/internal/sched"
	"shortcutmining/internal/stats"
)

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle: Queued → Running → one of Done / Failed / Canceled /
// Interrupted.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
	// JobInterrupted marks a job that was running when the process died
	// and could not be resumed from a checkpoint: classified, not lost.
	// Only crash recovery produces it.
	JobInterrupted JobState = "interrupted"
)

// ReasonTimeout is the Reason a job carries when it failed because its
// configured JobTimeout expired (as opposed to a caller hanging up,
// which cancels).
const ReasonTimeout = "timeout"

// Job is one tracked asynchronous execution. All accessors are safe
// for concurrent use; results are read-only once terminal.
type Job struct {
	id    string
	kind  string
	reqID string // serving-layer correlation ID, "" for direct submissions
	clock Clock

	mu       sync.Mutex
	state    JobState           // guarded by mu
	errMsg   string             // guarded by mu
	reason   string             // guarded by mu: machine-readable failure class ("timeout", …)
	created  time.Time          // guarded by mu
	started  time.Time          // guarded by mu
	finished time.Time          // guarded by mu
	result   View               // guarded by mu: only the result fields its kind's run set
	cancel   context.CancelFunc // guarded by mu

	done chan struct{}
}

// newJob allocates the next job handle, stamped with the originating
// request's correlation ID (may be empty for direct engine use).
func (e *Engine) newJob(kind, requestID string) *Job {
	e.mu.Lock()
	e.seq++
	id := fmt.Sprintf("j%06d", e.seq)
	e.mu.Unlock()
	return e.adoptJob(id, kind, requestID)
}

// ID returns the job identifier ("j000042").
func (j *Job) ID() string { return j.id }

// RequestID returns the correlation ID of the HTTP request that
// submitted the job, or "" for direct submissions.
func (j *Job) RequestID() string { return j.reqID }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// terminal reports whether the job has finished (any outcome).
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// Terminal reports whether the state is a terminal one.
func (s JobState) Terminal() bool {
	switch s {
	case JobDone, JobFailed, JobCanceled, JobInterrupted:
		return true
	}
	return false
}

// status snapshots the fields the journal's terminal record needs.
func (j *Job) status() (state JobState, errMsg, reason string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg, j.reason
}

// expired reports whether the job has been terminal longer than ttl.
func (j *Job) expired(now time.Time, ttl time.Duration) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal() && !j.finished.IsZero() && now.Sub(j.finished) >= ttl
}

func (j *Job) setCancel(c context.CancelFunc) {
	j.mu.Lock()
	j.cancel = c
	j.mu.Unlock()
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.started = j.clock()
	j.mu.Unlock()
}

// finish records a run's outcome: res carries the result fields its
// kind's run set, kept only on success.
func (j *Job) finish(res View, err error) {
	j.mu.Lock()
	j.finished = j.clock()
	switch {
	case err == nil:
		j.state = JobDone
		j.result = res
	case errors.Is(err, context.DeadlineExceeded):
		// The engine's JobTimeout expired: the service failed to finish
		// the work it accepted, which is a failure of the job, not a
		// client hanging up.
		j.state = JobFailed
		j.errMsg = err.Error()
		j.reason = ReasonTimeout
	case errors.Is(err, context.Canceled):
		j.state = JobCanceled
		j.errMsg = err.Error()
	default:
		j.state = JobFailed
		j.errMsg = err.Error()
	}
	j.mu.Unlock()
	close(j.done)
}

// View is the JSON representation served by GET /v1/jobs/{id}.
type View struct {
	ID        string   `json:"id"`
	Kind      string   `json:"kind"`
	RequestID string   `json:"request_id,omitempty"`
	State     JobState `json:"state"`
	Cached    bool     `json:"cached,omitempty"`
	Error     string   `json:"error,omitempty"`
	// Reason classifies a failure in machine-readable form ("timeout",
	// "interrupted", …); empty for successes.
	Reason   string          `json:"reason,omitempty"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started,omitempty"`
	Finished *time.Time      `json:"finished,omitempty"`
	Stats    *stats.RunStats `json:"stats,omitempty"`
	Outcomes []dse.Outcome   `json:"outcomes,omitempty"`
	// Schedule is the per-stream QoS outcome of a kind="schedule" job.
	Schedule *sched.Result `json:"schedule,omitempty"`
	// Cluster is the sharded outcome of a kind="cluster" job.
	Cluster *cluster.Result `json:"cluster,omitempty"`
}

// View snapshots the job.
func (j *Job) View() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := j.result
	v.ID, v.Kind, v.RequestID, v.State = j.id, j.kind, j.reqID, j.state
	v.Error, v.Reason, v.Created = j.errMsg, j.reason, j.created
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// jobKind is one row of the job-kind table: everything the engine, the
// journal, recovery and the HTTP layer know about one kind of async
// job. Submission, journaling, recovery and the 202 handler are written
// once against the table; adding a kind means adding a row. Requests
// are the row's own type (Request, SweepRequest, ScheduleRequest).
// A kind has one request document and one decoder: the accepted record
// journals the document its route accepts, and recovery reads it back
// through the same body and check as the route.
type jobKind struct {
	// name is the job kind in views and journal records, and the
	// /v1/{name} route.
	name string
	// body decodes a request document, an HTTP body or a journaled
	// accepted payload, into a request carrying the correlation ID
	// reqID.
	body func(r io.Reader, reqID string) (any, error)
	// check validates a request at submit time and at recovery and
	// returns it ready for run; a failure is a bad request (HTTP 400).
	check func(req any) (any, error)
	// doc renders a request as the route's document, which body reads
	// back; the accepted record journals it.
	doc func(req any) (any, error)
	// run executes a request for job j; the returned View carries only
	// the result fields, which Job.finish stores on success.
	run func(e *Engine, ctx context.Context, j *Job, req any) (View, error)
}

var (
	simulateKind = &jobKind{
		name: "simulate",
		body: func(r io.Reader, reqID string) (any, error) {
			_, req, err := decodeSimulate(r, reqID)
			if err != nil {
				return nil, err
			}
			return req.built()
		},
		check: func(req any) (any, error) {
			r := req.(Request)
			var err error
			r.key, err = RequestKey(r)
			return r, err
		},
		doc: func(req any) (any, error) {
			r := req.(Request)
			nb, err := netDoc(r.Net, r.Cfg)
			return simulateBody{netBody: nb, Strategy: r.Strategy.String(), Observe: r.Observe}, err
		},
		run: func(e *Engine, ctx context.Context, j *Job, req any) (View, error) {
			return e.runSimulate(ctx, j, req.(Request), nil)
		},
	}

	sweepKind = &jobKind{
		name: "sweep",
		body: func(r io.Reader, reqID string) (any, error) {
			var b sweepBody
			if err := decodeJSON(r, &b); err != nil {
				return nil, err
			}
			net, cfg, err := b.resolve()
			if err != nil {
				return nil, err
			}
			space := dse.DefaultSpace()
			if b.Space != nil {
				space = *b.Space
			}
			return SweepRequest{Net: net, Base: cfg, Space: space, Parallel: b.Parallel, Pareto: b.Pareto, RequestID: reqID}, nil
		},
		check: func(req any) (any, error) {
			r := req.(SweepRequest)
			if r.Net == nil {
				return nil, errors.New("serve: sweep has no network")
			}
			if r.Space.Size() == 0 {
				return nil, errors.New("serve: sweep has an empty design space")
			}
			return r, nil
		},
		doc: func(req any) (any, error) {
			r := req.(SweepRequest)
			nb, err := netDoc(r.Net, r.Base)
			return sweepBody{netBody: nb, Space: &r.Space, Parallel: r.Parallel, Pareto: r.Pareto}, err
		},
		run: func(e *Engine, ctx context.Context, _ *Job, req any) (View, error) {
			r := req.(SweepRequest)
			outcomes, err := timed(e, func() ([]dse.Outcome, error) {
				return dse.ExploreContext(ctx, r.Net, r.Base, r.Space, fpga.VC709(), r.Parallel)
			})
			if err == nil && r.Pareto {
				outcomes = dse.ParetoFront(outcomes)
			}
			return View{Outcomes: outcomes}, err
		},
	}

	scheduleKind = scenarioKind("schedule", false, "multi-chip scenarios go to /v1/cluster",
		func(ctx context.Context, r ScheduleRequest) (View, error) {
			res, err := sched.RunContext(ctx, r.Cfg, r.Spec, nil)
			return View{Schedule: res}, err
		})

	clusterKind = scenarioKind("cluster", true, "single-chip scenarios go to /v1/schedule",
		func(ctx context.Context, r ScheduleRequest) (View, error) {
			res, err := cluster.RunContext(ctx, r.Cfg, r.Spec, nil, nil)
			return View{Cluster: res}, err
		})

	// jobKinds is the table, keyed by kind name.
	jobKinds = map[string]*jobKind{"simulate": simulateKind, "sweep": sweepKind, "schedule": scheduleKind, "cluster": clusterKind}
)

// scenarioKind builds the schedule and cluster rows. They share the
// request type and document; each checks the scenario's chip count
// against its own direction (chips>1 for cluster, at most one for
// schedule), pointing a misrouted request at the other route.
func scenarioKind(name string, multiChip bool, other string, run func(context.Context, ScheduleRequest) (View, error)) *jobKind {
	return &jobKind{
		name: name,
		body: func(r io.Reader, reqID string) (any, error) {
			var b scenarioBody
			if err := decodeJSON(r, &b); err != nil {
				return nil, err
			}
			spec, err := resolveScenario(b.Spec, b.Scenario)
			if err != nil {
				return nil, err
			}
			cfg, err := resolveConfig(b.Config)
			if err != nil {
				return nil, err
			}
			return ScheduleRequest{Cfg: cfg, Spec: spec, RequestID: reqID}, nil
		},
		check: func(req any) (any, error) {
			r := req.(ScheduleRequest)
			if r.Spec == nil {
				return nil, fmt.Errorf("serve: %s has no spec", name)
			}
			if err := r.Spec.Validate(); err != nil {
				return nil, err
			}
			if (r.Spec.Chips > 1) != multiChip {
				return nil, fmt.Errorf("%s scenario has chips=%d; %s", name, r.Spec.Chips, other)
			}
			return r, r.Cfg.Validate()
		},
		doc: func(req any) (any, error) {
			r := req.(ScheduleRequest)
			c, err := configDoc(r.Cfg)
			return scenarioBody{Config: c, Scenario: r.Spec}, err
		},
		run: func(e *Engine, ctx context.Context, _ *Job, req any) (View, error) {
			return timed(e, func() (View, error) { return run(ctx, req.(ScheduleRequest)) })
		},
	}
}
