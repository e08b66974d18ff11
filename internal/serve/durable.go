package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// journalJob writes one lifecycle record for j; rec supplies the op
// and its op-specific fields.
func (e *Engine) journalJob(j *Job, rec journal.Record) {
	rec.Job, rec.Kind, rec.RequestID = j.id, j.kind, j.reqID
	e.journalAppend(rec)
}

// journalTerminal writes j's terminal record, whichever outcome it
// reached. A terminal JobState spells its journal op.
func (e *Engine) journalTerminal(j *Job) {
	if state, errMsg, reason := j.status(); state.Terminal() {
		e.journalJob(j, journal.Record{Op: journal.Op(state), Error: errMsg, Reason: reason})
	}
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

// runCheckpointed runs a simulation through the core.Run resumable
// API, suspending and snapshotting into a journal checkpoint record
// every CheckpointLayers boundaries. snap, when non-nil, continues a
// previously journaled checkpoint.
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
				e.journalJob(j, journal.Record{Op: journal.OpCheckpoint, Layer: cp.Next, Payload: b})
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

// encodePayload renders req as its kind's accepted-record payload.
func encodePayload(k *jobKind, req any) ([]byte, error) {
	doc, err := k.encode(req)
	if err != nil {
		return nil, fmt.Errorf("serve: encoding journal payload: %w", err)
	}
	return json.Marshal(doc)
}

// decodePayload rebuilds the request an accepted record journaled,
// through the row of the record's kind.
func decodePayload(accepted *journal.Record) (*jobKind, any, error) {
	if accepted == nil || accepted.Payload == nil {
		return nil, nil, fmt.Errorf("no accepted payload journaled")
	}
	var doc payloadDoc
	if err := json.Unmarshal(accepted.Payload, &doc); err != nil {
		return nil, nil, fmt.Errorf("decoding accepted payload: %w", err)
	}
	k, ok := jobKinds[accepted.Kind]
	if !ok {
		return nil, nil, fmt.Errorf("unknown job kind %q", accepted.Kind)
	}
	req, err := k.decode(doc, accepted.RequestID)
	return k, req, err
}

// encodeWith renders v through one of the model packages' canonical
// JSON encoders.
func encodeWith[T any](encode func(io.Writer, T) error, v T) (json.RawMessage, error) {
	var b bytes.Buffer
	err := encode(&b, v)
	return b.Bytes(), err
}

func encodeGraphConfig(net *nn.Network, cfg core.Config) (json.RawMessage, json.RawMessage, error) {
	g, err := encodeWith(nn.EncodeJSON, net)
	if err != nil {
		return nil, nil, err
	}
	c, err := encodeWith(core.EncodeConfigJSON, cfg)
	return g, c, err
}

func decodeGraphConfig(doc payloadDoc) (*nn.Network, core.Config, error) {
	if doc.Graph == nil {
		return nil, core.Config{}, fmt.Errorf("payload has no network graph")
	}
	return netBody{Graph: doc.Graph, Config: doc.Config}.resolve()
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
		state: JobState(last.Op), errMsg: last.Error, reason: last.Reason,
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
			if rp.checkpoint != nil {
				if err := e.requeueJob(id, rp, rp.checkpoint); err == nil {
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
			if err := e.requeueJob(id, rp, nil); err != nil {
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

// requeueJob re-admits a recovered job under its original ID from its
// journaled payload. With a checkpoint, a simulation continues from
// that layer boundary instead of recomputing from layer 0.
func (e *Engine) requeueJob(id string, rp *jobReplay, checkpoint *journal.Record) error {
	k, req, err := decodePayload(rp.accepted)
	if err != nil {
		return err
	}
	j := e.adoptJob(id, k.name, rp.accepted.RequestID)
	run := func(ctx context.Context) (View, error) { return k.run(e, ctx, j, req) }
	if checkpoint != nil {
		r, ok := req.(Request)
		if !ok {
			return fmt.Errorf("checkpoint on a %s job", k.name)
		}
		var snap core.RunSnapshot
		if err := json.Unmarshal(checkpoint.Payload, &snap); err != nil {
			return fmt.Errorf("decoding checkpoint: %w", err)
		}
		if err := snap.Validate(r.Net); err != nil {
			return err
		}
		run = func(ctx context.Context) (View, error) { return e.runSimulate(ctx, j, r, &snap) }
	}
	_, err = e.admit(j, rp.accepted.Payload, run)
	return err
}
