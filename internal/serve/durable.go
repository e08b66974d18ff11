package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"shortcutmining/internal/core"
	"shortcutmining/internal/dse"
	"shortcutmining/internal/journal"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/sched"
	"shortcutmining/internal/stats"
)

// journalErrWindow is how long after a failed journal append the
// engine reports itself degraded. Measured on the injected Clock.
const journalErrWindow = time.Minute

// noteJournalErr records a journal failure for health reporting.
func (e *Engine) noteJournalErr(err error) {
	e.mJournalFailures.Inc()
	e.mu.Lock()
	e.lastJournalErr = err
	e.lastJournalErrAt = e.clock()
	e.mu.Unlock()
}

// journalAppend writes one record through the journal. Journal
// failures never fail the job — availability wins over durability —
// but they are counted and degrade /healthz until the write path
// recovers.
func (e *Engine) journalAppend(rec journal.Record) {
	if e.opts.Journal == nil {
		return
	}
	if err := e.opts.Journal.Append(rec); err != nil {
		e.noteJournalErr(err)
		e.logger.Error("journal append failed", "job", rec.Job, "op", string(rec.Op), "error", err)
		return
	}
	e.maybeCompactJournal()
}

// maybeCompactJournal kicks off a background compaction every
// CompactEvery acknowledged appends — the uptime half of the
// bounded-journal contract (Recover compacts the other half at boot).
// Without it, terminal-job records, superseded checkpoint snapshots,
// and rotated segments would accumulate for the life of the process.
func (e *Engine) maybeCompactJournal() {
	if e.journalAppends.Add(1)%int64(e.opts.CompactEvery) != 0 {
		return
	}
	if !e.compacting.CompareAndSwap(false, true) {
		return // one at a time; the next cadence tick retries
	}
	go func() {
		defer e.compacting.Store(false)
		err := e.opts.Journal.Compact()
		if err != nil && !errors.Is(err, journal.ErrClosed) {
			e.noteJournalErr(err)
			e.logger.Error("journal compaction failed", "error", err)
		}
	}()
}

// journalJob writes one lifecycle record for j.
func (e *Engine) journalJob(j *Job, op journal.Op, layer int, reason string, payload []byte) {
	if e.opts.Journal == nil {
		return
	}
	e.journalAppend(journal.Record{
		Job: j.id, Op: op, Kind: j.kind, RequestID: j.reqID,
		Layer: layer, Reason: reason, Payload: payload,
	})
}

// journalTerminal writes j's terminal record, whichever outcome it
// reached.
func (e *Engine) journalTerminal(j *Job) {
	if e.opts.Journal == nil {
		return
	}
	state, errMsg, reason := j.status()
	var op journal.Op
	switch state {
	case JobDone:
		op = journal.OpDone
	case JobFailed:
		op = journal.OpFailed
	case JobCanceled:
		op = journal.OpCanceled
	case JobInterrupted:
		op = journal.OpInterrupted
	default:
		return // not terminal; nothing to record
	}
	e.journalAppend(journal.Record{
		Job: j.id, Op: op, Kind: j.kind, RequestID: j.reqID,
		Error: errMsg, Reason: reason,
	})
}

// Health reports the engine's readiness: "ok", "degraded" (still
// serving, but durability or recovery is impaired — reasons say why),
// or "draining".
func (e *Engine) Health() (string, []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining {
		return "draining", []string{"draining: refusing new submissions"}
	}
	var reasons []string
	if e.recovering {
		reasons = append(reasons, "recovery in progress")
	}
	if e.lastJournalErr != nil && e.clock().Sub(e.lastJournalErrAt) < journalErrWindow {
		reasons = append(reasons, fmt.Sprintf("journal: %v", e.lastJournalErr))
	}
	if len(reasons) > 0 {
		return "degraded", reasons
	}
	return "ok", nil
}

// checkpointable reports whether an async simulate request is eligible
// for layer-boundary checkpointing: a journal is configured, a cadence
// is set, and the run carries no attachment that core refuses to
// snapshot (observation registry, fault-injection RNG).
func (e *Engine) checkpointable(req Request) bool {
	return e.opts.Journal != nil && e.opts.CheckpointLayers > 0 &&
		!req.Observe && req.Cfg.Faults.Empty()
}

// execCheckpointed is exec for the durable path: the simulation runs
// through the core.Run resumable API, suspending and snapshotting into
// a journal checkpoint record every CheckpointLayers boundaries. snap,
// when non-nil, continues a previously journaled checkpoint.
func (e *Engine) execCheckpointed(ctx context.Context, req Request, j *Job, snap *core.RunSnapshot) (stats.RunStats, error) {
	start := e.clock()
	res, err := e.runCheckpointed(ctx, req, j, snap)
	e.mJobSeconds.Observe(e.clock().Sub(start).Seconds())
	e.countOutcome(err)
	return res, err
}

func (e *Engine) runCheckpointed(ctx context.Context, req Request, j *Job, snap *core.RunSnapshot) (stats.RunStats, error) {
	var r *core.Run
	var err error
	if snap != nil {
		r, err = core.RestoreRun(req.Net, req.Cfg, snap)
	} else {
		r, err = core.NewRun(req.Net, req.Cfg, req.Strategy, nil, nil)
	}
	if err != nil {
		return stats.RunStats{}, err
	}
	k := e.opts.CheckpointLayers
	for {
		done, err := r.Step(ctx)
		if err != nil {
			return stats.RunStats{}, err
		}
		if done {
			break
		}
		if k > 0 && r.NextLayer()%k == 0 {
			// Suspend vacates the pool so the run state is serializable;
			// the spill/reload cost lands in SchedStats, never RunStats,
			// so the final result stays bit-identical.
			if _, err := r.Suspend(); err != nil {
				return stats.RunStats{}, err
			}
			cp, cpErr := r.Snapshot()
			var b []byte
			if cpErr == nil {
				b, cpErr = json.Marshal(cp)
			}
			if cpErr != nil {
				// The job keeps running, but this interval's crash-resume
				// coverage is gone — after a crash it restarts from the
				// previous checkpoint (or layer 0). Count and log it so
				// the gap is visible, not assumed covered.
				e.mCheckpointFailures.Inc()
				e.logger.Error("checkpoint snapshot failed; crash-resume coverage lost for this interval",
					"job", j.id, "layer", r.NextLayer(), "error", cpErr)
			} else {
				e.journalJob(j, journal.OpCheckpoint, cp.Next, "", b)
				e.mCheckpoints.Inc()
			}
			e.opts.Chaos.Hit("checkpoint")
			// The next Step auto-resumes the suspended run.
		}
	}
	return r.Result()
}

// payloadDoc is the journaled re-submission document carried by
// OpAccepted records: everything recovery needs to rebuild the request
// in a process that shares no memory with the one that accepted it.
// Exactly the fields for the record's Kind are set.
type payloadDoc struct {
	// simulate + sweep
	Graph  json.RawMessage `json:"graph,omitempty"`
	Config json.RawMessage `json:"config,omitempty"`
	// simulate
	Strategy string `json:"strategy,omitempty"`
	Observe  bool   `json:"observe,omitempty"`
	// sweep
	Space    *dse.Space `json:"space,omitempty"`
	Parallel int        `json:"parallel,omitempty"`
	Pareto   bool       `json:"pareto,omitempty"`
	// schedule + cluster (the record's Kind says which; a cluster
	// scenario carries chips>1 in the spec itself)
	Scenario *sched.Spec `json:"scenario,omitempty"`
}

// encodePayload marshals a payload document. The (doc, err) signature
// lets call sites write encodePayload(simPayload(req)) — but Go
// evaluates arguments eagerly, so the sites themselves guard the whole
// call with Options.Journal != nil; that guard, not the backstop check
// here, is what skips the graph+config encode when nothing would be
// journaled.
func (e *Engine) encodePayload(doc payloadDoc, err error) ([]byte, error) {
	if e.opts.Journal == nil {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: encoding journal payload: %w", err)
	}
	return json.Marshal(doc)
}

func encodeGraphConfig(net *nn.Network, cfg core.Config) (json.RawMessage, json.RawMessage, error) {
	var g, c bytes.Buffer
	if err := nn.EncodeJSON(&g, net); err != nil {
		return nil, nil, err
	}
	if err := core.EncodeConfigJSON(&c, cfg); err != nil {
		return nil, nil, err
	}
	return g.Bytes(), c.Bytes(), nil
}

func simPayload(req Request) (payloadDoc, error) {
	g, c, err := encodeGraphConfig(req.Net, req.Cfg)
	if err != nil {
		return payloadDoc{}, err
	}
	return payloadDoc{Graph: g, Config: c, Strategy: req.Strategy.String(), Observe: req.Observe}, nil
}

func sweepPayload(req SweepRequest) (payloadDoc, error) {
	g, c, err := encodeGraphConfig(req.Net, req.Base)
	if err != nil {
		return payloadDoc{}, err
	}
	space := req.Space
	return payloadDoc{Graph: g, Config: c, Space: &space, Parallel: req.Parallel, Pareto: req.Pareto}, nil
}

func schedulePayload(req ScheduleRequest) (payloadDoc, error) {
	var c bytes.Buffer
	if err := core.EncodeConfigJSON(&c, req.Cfg); err != nil {
		return payloadDoc{}, err
	}
	return payloadDoc{Config: json.RawMessage(c.Bytes()), Scenario: req.Spec}, nil
}

func clusterPayload(req ClusterRequest) (payloadDoc, error) {
	var c bytes.Buffer
	if err := core.EncodeConfigJSON(&c, req.Cfg); err != nil {
		return payloadDoc{}, err
	}
	return payloadDoc{Config: json.RawMessage(c.Bytes()), Scenario: req.Spec}, nil
}

func decodeGraphConfig(doc payloadDoc) (*nn.Network, core.Config, error) {
	if doc.Graph == nil {
		return nil, core.Config{}, fmt.Errorf("payload has no network graph")
	}
	net, err := nn.DecodeJSON(bytes.NewReader(doc.Graph))
	if err != nil {
		return nil, core.Config{}, err
	}
	cfg := core.Default()
	if doc.Config != nil {
		if cfg, err = core.DecodeConfigJSON(bytes.NewReader(doc.Config)); err != nil {
			return nil, core.Config{}, err
		}
	}
	return net, cfg, nil
}

func decodeSimPayload(doc payloadDoc, reqID string) (Request, error) {
	net, cfg, err := decodeGraphConfig(doc)
	if err != nil {
		return Request{}, err
	}
	strat := core.SCM
	if doc.Strategy != "" {
		if strat, err = core.ParseStrategy(doc.Strategy); err != nil {
			return Request{}, err
		}
	}
	return Request{Net: net, Cfg: cfg, Strategy: strat, Observe: doc.Observe, RequestID: reqID}, nil
}

func decodeSweepPayload(doc payloadDoc, reqID string) (SweepRequest, error) {
	net, cfg, err := decodeGraphConfig(doc)
	if err != nil {
		return SweepRequest{}, err
	}
	if doc.Space == nil || doc.Space.Size() == 0 {
		return SweepRequest{}, fmt.Errorf("payload has no design space")
	}
	return SweepRequest{
		Net: net, Base: cfg, Space: *doc.Space,
		Parallel: doc.Parallel, Pareto: doc.Pareto, RequestID: reqID,
	}, nil
}

func decodeSchedulePayload(doc payloadDoc, reqID string) (ScheduleRequest, error) {
	if doc.Scenario == nil {
		return ScheduleRequest{}, fmt.Errorf("payload has no scenario")
	}
	if err := doc.Scenario.Validate(); err != nil {
		return ScheduleRequest{}, err
	}
	cfg := core.Default()
	if doc.Config != nil {
		var err error
		if cfg, err = core.DecodeConfigJSON(bytes.NewReader(doc.Config)); err != nil {
			return ScheduleRequest{}, err
		}
	}
	return ScheduleRequest{Cfg: cfg, Spec: doc.Scenario, RequestID: reqID}, nil
}

func decodeClusterPayload(doc payloadDoc, reqID string) (ClusterRequest, error) {
	if doc.Scenario == nil {
		return ClusterRequest{}, fmt.Errorf("payload has no scenario")
	}
	if err := doc.Scenario.Validate(); err != nil {
		return ClusterRequest{}, err
	}
	if doc.Scenario.Chips < 2 {
		return ClusterRequest{}, fmt.Errorf("cluster payload has chips=%d", doc.Scenario.Chips)
	}
	cfg := core.Default()
	if doc.Config != nil {
		var err error
		if cfg, err = core.DecodeConfigJSON(bytes.NewReader(doc.Config)); err != nil {
			return ClusterRequest{}, err
		}
	}
	return ClusterRequest{Cfg: cfg, Spec: doc.Scenario, RequestID: reqID}, nil
}

// RecoveryReport summarizes what Recover did with the replayed
// journal.
type RecoveryReport struct {
	// Requeued jobs were accepted but had not started; they run again
	// from the beginning under their original ID.
	Requeued int `json:"requeued"`
	// Resumed jobs continue from their last journaled checkpoint.
	Resumed int `json:"resumed"`
	// Interrupted jobs were running with no usable checkpoint; they are
	// terminal with state "interrupted" — classified, not lost.
	Interrupted int `json:"interrupted"`
	// Restored jobs were already terminal; their outcome is visible in
	// the job history again (results are not journaled, states are).
	Restored int `json:"restored"`
}

func (r RecoveryReport) String() string {
	return fmt.Sprintf("requeued %d, resumed %d, interrupted %d, restored %d",
		r.Requeued, r.Resumed, r.Interrupted, r.Restored)
}

// jobSeq parses the numeric suffix of a job ID ("j000042" → 42,
// "s2-j000007" → 7). The prefix is whatever the accepting engine's
// JobPrefix was; only the trailing counter matters for resuming the
// sequence without collisions.
func jobSeq(id string) (int, bool) {
	i := len(id)
	for i > 0 && id[i-1] >= '0' && id[i-1] <= '9' {
		i--
	}
	if i == 0 || i == len(id) {
		return 0, false // all digits (no prefix) or no digits at all
	}
	n, err := strconv.Atoi(id[i:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

func stateForOp(op journal.Op) JobState {
	switch op {
	case journal.OpDone:
		return JobDone
	case journal.OpFailed:
		return JobFailed
	case journal.OpCanceled:
		return JobCanceled
	default:
		return JobInterrupted
	}
}

// adoptJob builds a queued job under a recovered ID instead of
// allocating a fresh one, so clients polling a pre-crash job ID keep
// working.
func (e *Engine) adoptJob(id, kind, reqID string) *Job {
	return &Job{id: id, kind: kind, reqID: reqID, clock: e.clock,
		state: JobQueued, created: e.clock(), done: make(chan struct{})}
}

// insertRestored registers an already-terminal job in the history.
func (e *Engine) insertRestored(j *Job) {
	close(j.done)
	e.mu.Lock()
	e.jobs[j.id] = j
	e.jobOrder = append(e.jobOrder, j.id)
	e.pruneLocked()
	e.mu.Unlock()
}

// restoreTerminalJob rebuilds a terminal job from its last record.
func (e *Engine) restoreTerminalJob(id string, last journal.Record) {
	j := &Job{id: id, kind: last.Kind, reqID: last.RequestID, clock: e.clock,
		state: stateForOp(last.Op), errMsg: last.Error, reason: last.Reason,
		created: last.Time, finished: last.Time, done: make(chan struct{})}
	e.insertRestored(j)
}

// interruptJob marks a recovered job terminally interrupted, durably.
func (e *Engine) interruptJob(id string, last journal.Record, why string) {
	j := &Job{id: id, kind: last.Kind, reqID: last.RequestID, clock: e.clock,
		state: JobInterrupted, errMsg: why, reason: "interrupted",
		created: last.Time, finished: e.clock(), done: make(chan struct{})}
	e.insertRestored(j)
	e.journalTerminal(j)
}

// jobReplay is one job's folded journal history.
type jobReplay struct {
	last       journal.Record // latest lifecycle record (checkpoints excluded)
	accepted   *journal.Record
	checkpoint *journal.Record // latest checkpoint
}

// Recover replays the records returned by journal.Open and brings
// every journaled job back to a defined state: terminal jobs reappear
// in the history, checkpointed simulate jobs resume mid-network,
// accepted-but-unstarted jobs are re-enqueued under their original
// IDs, and orphaned running jobs become terminal "interrupted". It
// must be called once, after NewEngine and before serving traffic.
//
// Recovery also compacts the journal: records of jobs that ended
// before the crash are dropped (their states are restored in-memory;
// results were never journaled), so the journal tracks incomplete work
// plus whatever this process appends.
func (e *Engine) Recover(records []journal.Record) (RecoveryReport, error) {
	var rep RecoveryReport
	if e.opts.Journal == nil {
		return rep, fmt.Errorf("serve: Recover needs Options.Journal")
	}
	e.mu.Lock()
	e.recovering = true
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.recovering = false
		e.mu.Unlock()
	}()
	e.opts.Chaos.Hit("recover")

	byJob := make(map[string]*jobReplay)
	var order []string
	maxSeq := 0
	for i := range records {
		rec := records[i]
		rp := byJob[rec.Job]
		if rp == nil {
			rp = &jobReplay{}
			byJob[rec.Job] = rp
			order = append(order, rec.Job)
		}
		switch rec.Op {
		case journal.OpAccepted:
			if rp.accepted == nil {
				rp.accepted = &records[i]
			}
			rp.last = rec
		case journal.OpCheckpoint:
			rp.checkpoint = &records[i] // job logically stays "running"
		default:
			rp.last = rec
		}
		if n, ok := jobSeq(rec.Job); ok && n > maxSeq {
			maxSeq = n
		}
	}
	e.mu.Lock()
	if e.seq < maxSeq {
		e.seq = maxSeq
	}
	e.mu.Unlock()

	// Compact before re-admission appends anything — and even when the
	// replay is empty: every Open starts a fresh segment, so a restart
	// loop would otherwise leak one empty segment per boot. Terminal
	// jobs' records go; a live job keeps its payload, lifecycle, and
	// newest checkpoint.
	if err := e.opts.Journal.Compact(); err != nil {
		e.noteJournalErr(err)
		e.logger.Error("journal compaction failed", "error", err)
	}

	outcome := func(name string) *metrics.Counter {
		return e.reg.Counter(MetricRecoveredJobs, "journaled jobs recovered at startup, by outcome",
			metrics.L("outcome", name))
	}
	for _, id := range order {
		rp := byJob[id]
		switch {
		case rp.last.Op.Terminal():
			e.restoreTerminalJob(id, rp.last)
			rep.Restored++
			outcome("restored").Inc()
		case rp.last.Op == journal.OpRunning:
			if rp.checkpoint != nil && rp.last.Kind == "simulate" {
				if err := e.resumeJob(id, rp); err == nil {
					rep.Resumed++
					outcome("resumed").Inc()
					continue
				} else {
					e.logger.Error("checkpoint resume failed; classifying interrupted", "job", id, "error", err)
				}
			}
			e.interruptJob(id, rp.last, "process died mid-run; no usable checkpoint")
			rep.Interrupted++
			outcome("interrupted").Inc()
		default: // accepted, never started
			if err := e.requeueJob(id, rp); err != nil {
				e.logger.Error("requeue failed; classifying interrupted", "job", id, "error", err)
				e.interruptJob(id, rp.last, fmt.Sprintf("accepted job could not be re-enqueued: %v", err))
				rep.Interrupted++
				outcome("interrupted").Inc()
				continue
			}
			rep.Requeued++
			outcome("requeued").Inc()
		}
	}
	return rep, nil
}

// acceptedDoc decodes a job's accepted-record payload.
func acceptedDoc(rp *jobReplay) (payloadDoc, error) {
	var doc payloadDoc
	if rp.accepted == nil || rp.accepted.Payload == nil {
		return doc, fmt.Errorf("no accepted payload journaled")
	}
	if err := json.Unmarshal(rp.accepted.Payload, &doc); err != nil {
		return doc, fmt.Errorf("decoding accepted payload: %w", err)
	}
	return doc, nil
}

// requeueJob re-enqueues an accepted-but-unstarted job from its
// journaled payload, under its original ID.
func (e *Engine) requeueJob(id string, rp *jobReplay) error {
	doc, err := acceptedDoc(rp)
	if err != nil {
		return err
	}
	reqID := rp.accepted.RequestID
	j := e.adoptJob(id, rp.accepted.Kind, reqID)
	var task func(ctx context.Context)
	switch rp.accepted.Kind {
	case "simulate":
		req, err := decodeSimPayload(doc, reqID)
		if err != nil {
			return err
		}
		task = e.simTask(req, j, nil)
	case "sweep":
		req, err := decodeSweepPayload(doc, reqID)
		if err != nil {
			return err
		}
		task = e.sweepTask(req, j)
	case "schedule":
		req, err := decodeSchedulePayload(doc, reqID)
		if err != nil {
			return err
		}
		task = e.scheduleTask(req, j)
	case "cluster":
		req, err := decodeClusterPayload(doc, reqID)
		if err != nil {
			return err
		}
		task = e.clusterTask(req, j)
	default:
		return fmt.Errorf("unknown job kind %q", rp.accepted.Kind)
	}
	_, err = e.admit(j, rp.accepted.Payload, task)
	return err
}

// resumeJob restores a checkpointed simulate job: the journaled
// core.RunSnapshot continues from its layer boundary instead of
// recomputing from layer 0.
func (e *Engine) resumeJob(id string, rp *jobReplay) error {
	doc, err := acceptedDoc(rp)
	if err != nil {
		return err
	}
	reqID := rp.accepted.RequestID
	req, err := decodeSimPayload(doc, reqID)
	if err != nil {
		return err
	}
	var snap core.RunSnapshot
	if err := json.Unmarshal(rp.checkpoint.Payload, &snap); err != nil {
		return fmt.Errorf("decoding checkpoint: %w", err)
	}
	if err := snap.Validate(req.Net); err != nil {
		return err
	}
	j := e.adoptJob(id, "simulate", reqID)
	_, err = e.admit(j, rp.accepted.Payload, e.simTask(req, j, &snap))
	return err
}
