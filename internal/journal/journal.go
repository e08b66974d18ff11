// Package journal is the serving tier's durable job ledger: an
// append-only, fsync-on-commit write-ahead journal of job lifecycle
// records. The serve engine writes every async job's transitions
// (accepted → running → checkpoint… → done/failed/canceled) through
// it, and a restarted process replays the journal to recover accepted
// work instead of silently losing it. A job's checkpoints form a
// chain: each carries only what changed since the one before, and
// recovery folds them back into one run state.
//
// The design follows the same separation the simulator applies on
// chip — durable state (the pinned shortcut banks; here, the ledger)
// is kept apart from volatile execution state (the streaming buffers;
// here, the worker pool) — so a crash forfeits only the work in
// flight, never the record of what was accepted.
//
// On-disk format: numbered segment files ("wal-000001.jsonl") of
// CRC-framed JSONL records, one record per line:
//
//	crc32c(json) as 8 lowercase hex digits, one space, the JSON
//	document, '\n'
//
// Append marshals, frames, writes, and fsyncs before returning, so a
// record that Append acknowledged survives SIGKILL. Replay reads the
// segments in order; a torn tail (partial last line, CRC mismatch on
// the final record — the signature of a crash mid-write) is truncated
// away, while corruption anywhere else is a classified error, never a
// panic. Segments rotate at a byte threshold. The journal indexes the
// frames of its live set — every record of every job not yet terminal,
// its chain of checkpoints included — and Compact copies exactly those
// frames into a fresh segment, so the journal does not grow without
// bound and compaction never re-reads or re-decodes its history.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Classified decode errors. Every corruption surfaces as one of these
// sentinels (wrapped with position detail) so callers can tell a torn
// tail from mid-file damage and from malformed records.
var (
	// ErrFrame reports a line that is not "crc hex, space, payload".
	ErrFrame = errors.New("journal: malformed record frame")
	// ErrChecksum reports a frame whose CRC does not match its payload.
	ErrChecksum = errors.New("journal: record checksum mismatch")
	// ErrRecord reports a well-framed payload that is not a valid record.
	ErrRecord = errors.New("journal: malformed record")
	// ErrClosed reports an append to a closed journal.
	ErrClosed = errors.New("journal: closed")
	// ErrDamaged reports an append refused because a previous failed
	// write left unacknowledged bytes in the active segment that could
	// not be truncated away. Each refused append retries the repair.
	ErrDamaged = errors.New("journal: active segment damaged")
)

// Op is a job lifecycle transition.
type Op string

// The journaled lifecycle: a job is accepted, starts running,
// optionally checkpoints every K layers (each checkpoint extending the
// job's chain, none replacing another), and ends in exactly one
// terminal op. Interrupted is written by recovery, not by the engine:
// it classifies a job that was running when the process died and had
// no checkpoint to resume from.
const (
	OpAccepted    Op = "accepted"
	OpRunning     Op = "running"
	OpCheckpoint  Op = "checkpoint"
	OpDone        Op = "done"
	OpFailed      Op = "failed"
	OpCanceled    Op = "canceled"
	OpInterrupted Op = "interrupted"
)

// valid reports whether the op is one of the journaled lifecycle ops.
func (o Op) valid() bool {
	switch o {
	case OpAccepted, OpRunning, OpCheckpoint, OpDone, OpFailed, OpCanceled, OpInterrupted:
		return true
	}
	return false
}

// Terminal reports whether the op ends a job's lifecycle.
func (o Op) Terminal() bool {
	return o == OpDone || o == OpFailed || o == OpCanceled || o == OpInterrupted
}

// Record is one journal entry. Payload carries the op-specific
// document: the full request for OpAccepted (so recovery can re-run
// it) and, for OpCheckpoint, a core.RunSnapshot holding the layers run
// since the job's previous checkpoint (recovery folds the chain).
type Record struct {
	// Seq is the journal-assigned monotone sequence number.
	Seq uint64 `json:"seq"`
	// Time is the wall-clock stamp from the journal's injected clock.
	Time time.Time `json:"time"`
	// Job is the engine job ID the record belongs to.
	Job string `json:"job"`
	// Op is the lifecycle transition.
	Op Op `json:"op"`
	// Kind is the job kind (simulate | sweep | schedule | cluster), set on
	// OpAccepted so recovery knows how to decode Payload.
	Kind string `json:"kind,omitempty"`
	// RequestID is the serving-layer correlation ID (OpAccepted).
	RequestID string `json:"request_id,omitempty"`
	// Layer is the next-layer index of a checkpoint record.
	Layer int `json:"layer,omitempty"`
	// Error is the failure reason of OpFailed / OpCanceled /
	// OpInterrupted records.
	Error string `json:"error,omitempty"`
	// Reason classifies a terminal record beyond its op ("timeout",
	// "interrupted", …) — mirrors the job's Reason field.
	Reason string `json:"reason,omitempty"`
	// Payload is the op-specific document.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// castagnoli is the CRC-32C table (the polynomial used by modern
// storage stacks; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EncodeRecord renders one CRC-framed journal line.
func EncodeRecord(rec Record) ([]byte, error) {
	if !rec.Op.valid() {
		return nil, fmt.Errorf("%w: unknown op %q", ErrRecord, rec.Op)
	}
	if rec.Job == "" {
		return nil, fmt.Errorf("%w: record has no job id", ErrRecord)
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRecord, err)
	}
	line := make([]byte, 0, len(payload)+10)
	line = fmt.Appendf(line, "%08x ", crc32.Checksum(payload, castagnoli))
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// DecodeRecord parses one journal line (without the trailing newline).
// Every malformed input yields a classified error — ErrFrame,
// ErrChecksum, or ErrRecord — never a panic.
func DecodeRecord(line []byte) (Record, error) {
	payload, err := framePayload(line)
	if err != nil {
		return Record{}, err
	}
	var rec Record
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrRecord, err)
	}
	if !rec.Op.valid() {
		return Record{}, fmt.Errorf("%w: unknown op %q", ErrRecord, rec.Op)
	}
	if rec.Job == "" {
		return Record{}, fmt.Errorf("%w: record has no job id", ErrRecord)
	}
	return rec, nil
}

// framePayload checks one journal line (without the trailing newline)
// against its CRC frame and returns the JSON document it carries.
func framePayload(line []byte) ([]byte, error) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, fmt.Errorf("%w: line of %d bytes", ErrFrame, len(line))
	}
	want64, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("%w: bad checksum field %q", ErrFrame, line[:8])
	}
	payload := line[9:]
	if got := crc32.Checksum(payload, castagnoli); got != uint32(want64) {
		return nil, fmt.Errorf("%w: have %08x, frame says %08x", ErrChecksum, got, uint32(want64))
	}
	return payload, nil
}

// Stats is a point-in-time view of the journal counters.
type Stats struct {
	Appends      int64 `json:"appends"`
	AppendErrors int64 `json:"append_errors"`
	SyncErrors   int64 `json:"sync_errors"`
	Rotations    int64 `json:"rotations"`
	Compactions  int64 `json:"compactions"`
	// Repairs counts failed appends whose unacknowledged bytes were
	// truncated back out of the active segment.
	Repairs int64 `json:"repairs"`
	// TornRecords counts records dropped by torn-tail truncation at
	// open (0 after a clean shutdown).
	TornRecords int64 `json:"torn_records"`
	// Segments and Bytes describe the on-disk footprint.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// LiveRecords and LiveBytes measure the live set, the frames a
	// compaction keeps: every record of every job that has not reached
	// a terminal op. Right after a compaction, Bytes equals LiveBytes.
	LiveRecords int64 `json:"live_records"`
	LiveBytes   int64 `json:"live_bytes"`
}

// Options configures a journal. The zero value is usable.
type Options struct {
	// SegmentBytes is the rotation threshold; <= 0 means 4 MiB.
	SegmentBytes int64
	// Now supplies record timestamps; nil means the caller's records
	// are stamped with the zero time (the serve engine injects its
	// Clock so the whole process has one wall-clock seam).
	Now func() time.Time
	// WriteErr, when non-nil, is consulted before every physical write
	// ("write") and fsync ("sync") — the chaos-injection seam. A
	// returned error aborts the append and is reported to the caller.
	// An injected "write" error first lands a partial frame in the
	// segment (the short write a real ENOSPC produces), so chaos runs
	// exercise the same truncate-back repair as physical faults.
	WriteErr func(op string) error
	// Latency, when non-nil, returns an artificial delay applied before
	// each physical write (the chaos slow-disk model).
	Latency func() time.Duration
}

// Journal is an open, appendable journal. All methods are safe for
// concurrent use.
type Journal struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File // guarded by mu: active segment
	seg     int      // guarded by mu: active segment index
	size    int64    // guarded by mu: acknowledged bytes in the active segment
	seq     uint64   // guarded by mu: last acknowledged sequence number
	closed  bool     // guarded by mu
	damaged bool     // guarded by mu: unacknowledged bytes sit past size in the active segment
	stats   Stats    // guarded by mu
	// live indexes the live set by job ID: where each frame a compaction
	// keeps sits on disk, in append order. It holds locations, not bytes.
	live map[string][]frame // guarded by mu
}

// frame locates one acknowledged record on disk: its segment, the byte
// offset and length of its CRC-framed line (newline included), and its
// sequence number.
type frame struct {
	seg int
	off int64
	n   int64
	seq uint64
}

// segmentName renders the file name of segment i.
func segmentName(i int) string { return fmt.Sprintf("wal-%06d.jsonl", i) }

// segmentIndex parses a segment file name, reporting ok=false for
// foreign files.
func segmentIndex(name string) (int, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".jsonl") {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".jsonl"))
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// segments lists the journal's segment indices in ascending order.
func segments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: reading %s: %w", dir, err)
	}
	var idx []int
	for _, e := range entries {
		if n, ok := segmentIndex(e.Name()); ok && !e.IsDir() {
			idx = append(idx, n)
		}
	}
	sort.Ints(idx)
	return idx, nil
}

// scanSegment reads and decodes segment seg of dir. last marks the
// journal's final segment, where a torn tail (an unterminated or
// undecodable final line — the signature of a crash mid-write) ends
// the scan instead of failing it; anywhere else corruption is a
// classified error. It returns the records, where each one's frame
// sits, and the byte offset of the torn tail (-1 when there is none).
// It never writes: Open truncates at that offset, ReadAll stops there.
func scanSegment(dir string, seg int, last bool) ([]Record, []frame, int64, error) {
	path := filepath.Join(dir, segmentName(seg))
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("journal: reading segment: %w", err)
	}
	var recs []Record
	var frames []frame
	offset := 0
	for offset < len(data) {
		nl := bytes.IndexByte(data[offset:], '\n')
		if nl < 0 {
			if !last {
				return nil, nil, 0, fmt.Errorf("journal: %s: unterminated record at byte %d in non-final segment: %w",
					filepath.Base(path), offset, ErrFrame)
			}
			return recs, frames, int64(offset), nil
		}
		rec, derr := DecodeRecord(data[offset : offset+nl])
		if derr != nil {
			if last && offset+nl+1 == len(data) {
				// Torn final record (e.g. crash between write and sync
				// left a half-flushed page).
				return recs, frames, int64(offset), nil
			}
			return nil, nil, 0, fmt.Errorf("journal: %s: record at byte %d: %w", filepath.Base(path), offset, derr)
		}
		recs = append(recs, rec)
		frames = append(frames, frame{seg: seg, off: int64(offset), n: int64(nl + 1), seq: rec.Seq})
		offset += nl + 1
	}
	return recs, frames, -1, nil
}

// Open opens (creating if needed) the journal in dir, replays every
// existing segment, truncates a torn tail, and positions the journal
// to append. It returns the recovered records in sequence order, and
// indexes the live set among them so that Compact need not replay.
// Mid-journal corruption (a bad record that is not the torn tail)
// fails Open with a classified error: the operator must decide, the
// journal will not silently skip history.
func Open(dir string, opts Options) (*Journal, []Record, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: creating %s: %w", dir, err)
	}
	idx, err := segments(dir)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{dir: dir, opts: opts, seg: 0, live: make(map[string][]frame)}
	var recovered []Record
	for i, n := range idx {
		recs, frames, torn, err := scanSegment(dir, n, i == len(idx)-1)
		if err != nil {
			return nil, nil, err
		}
		if torn >= 0 {
			if err := os.Truncate(filepath.Join(dir, segmentName(n)), torn); err != nil {
				return nil, nil, fmt.Errorf("journal: truncating torn tail of %s: %w", segmentName(n), err)
			}
			j.stats.TornRecords++
		}
		for k, r := range recs {
			j.trackLocked(r.Job, r.Op, frames[k])
		}
		recovered = append(recovered, recs...)
		j.seg = n
	}
	for _, r := range recovered {
		if r.Seq > j.seq {
			j.seq = r.Seq
		}
	}
	j.stats.Segments = len(idx)
	for _, n := range idx {
		if fi, err := os.Stat(filepath.Join(dir, segmentName(n))); err == nil {
			j.stats.Bytes += fi.Size()
		}
	}
	// Always append to a fresh segment: old segments stay immutable
	// after recovery, so a replayed prefix can never be half-rewritten.
	if err := j.openSegmentLocked(j.seg + 1); err != nil {
		return nil, nil, err
	}
	return j, recovered, nil
}

// openSegmentLocked creates segment n and makes it the append target.
// The caller holds j.mu (or is constructing the journal).
func (j *Journal) openSegmentLocked(n int) error {
	path := filepath.Join(j.dir, segmentName(n))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: creating segment: %w", err)
	}
	// The new segment must itself survive a crash: fsync the directory
	// so the directory entry is durable before any record lands in it.
	if err := syncDir(j.dir); err != nil {
		closeErr := f.Close()
		return errors.Join(fmt.Errorf("journal: syncing directory: %w", err), closeErr)
	}
	if j.f != nil {
		if err := j.f.Close(); err != nil {
			closeErr := f.Close()
			return errors.Join(fmt.Errorf("journal: closing previous segment: %w", err), closeErr)
		}
	}
	j.f = f
	j.seg = n
	j.size = 0
	j.stats.Segments++
	return nil
}

// syncDir fsyncs a directory so file creations/removals inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	return errors.Join(syncErr, closeErr)
}

// Append assigns the next sequence number, stamps the record, writes
// it to the active segment, and fsyncs before returning: a nil error
// means the record survives SIGKILL. On error the record is not
// acknowledged and the active segment is truncated back to the last
// acknowledged byte, so the failed record can neither replay as
// committed (a failed fsync leaves its bytes in the file) nor become
// mid-segment corruption once a later append succeeds (a short write
// leaves a partial frame). If the truncation itself fails, the
// journal refuses further appends with ErrDamaged — retrying the
// repair on each attempt — so the damage stays a torn tail the next
// Open can truncate, never buried history.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.damaged && !j.repairLocked() {
		j.stats.AppendErrors++
		return fmt.Errorf("%w: unacknowledged bytes past offset %d", ErrDamaged, j.size)
	}
	if j.opts.Now != nil {
		rec.Time = j.opts.Now()
	}
	rec.Seq = j.seq + 1
	line, err := EncodeRecord(rec)
	if err != nil {
		j.stats.AppendErrors++
		return err
	}
	if j.size+int64(len(line)) > j.opts.SegmentBytes && j.size > 0 {
		if err := j.openSegmentLocked(j.seg + 1); err != nil {
			j.stats.AppendErrors++
			return err
		}
		j.stats.Rotations++
	}
	if j.opts.Latency != nil {
		if d := j.opts.Latency(); d > 0 {
			time.Sleep(d)
		}
	}
	if j.opts.WriteErr != nil {
		if err := j.opts.WriteErr("write"); err != nil {
			// Land the short write a real ENOSPC would produce before
			// failing, so injected write faults drive the same repair
			// path as physical ones.
			// scmvet:ok ignorederr best-effort fault emulation; the append fails with the injected error either way
			j.f.Write(line[:len(line)/2])
			return j.failAppendLocked(false, err)
		}
	}
	if _, err := j.f.Write(line); err != nil {
		return j.failAppendLocked(false, fmt.Errorf("journal: writing record: %w", err))
	}
	if j.opts.WriteErr != nil {
		if err := j.opts.WriteErr("sync"); err != nil {
			return j.failAppendLocked(true, err)
		}
	}
	if err := j.f.Sync(); err != nil {
		// A failed fsync means the record's durability is unknown; the
		// caller must treat it as not committed (and the engine degrades
		// its health) even though the bytes may be in the page cache.
		return j.failAppendLocked(true, fmt.Errorf("journal: fsync: %w", err))
	}
	j.trackLocked(rec.Job, rec.Op, frame{seg: j.seg, off: j.size, n: int64(len(line)), seq: rec.Seq})
	j.seq = rec.Seq
	j.size += int64(len(line))
	j.stats.Bytes += int64(len(line))
	j.stats.Appends++
	return nil
}

// trackLocked folds one acknowledged frame of job into the live-set
// index. This is the compaction policy: a terminal op drops every frame
// of the job, and any other op is kept until then. Checkpoints are kept
// too — each carries only the layers since the previous one, so the
// chain is the job's state. The caller holds j.mu.
func (j *Journal) trackLocked(job string, op Op, f frame) {
	if op.Terminal() {
		for _, l := range j.live[job] {
			j.countLocked(l, -1)
		}
		delete(j.live, job)
		return
	}
	j.live[job] = append(j.live[job], f)
	j.countLocked(f, 1)
}

// countLocked adds (sign 1) or removes (sign -1) frame f in the live-set
// counters. The caller holds j.mu.
func (j *Journal) countLocked(f frame, sign int64) {
	j.stats.LiveRecords += sign
	j.stats.LiveBytes += sign * f.n
}

// failAppendLocked accounts a failed append whose bytes may have
// reached the active segment, repairs the segment, and passes the
// classified error through. The caller holds j.mu.
func (j *Journal) failAppendLocked(sync bool, err error) error {
	j.stats.AppendErrors++
	if sync {
		j.stats.SyncErrors++
	}
	j.damaged = true
	j.repairLocked()
	return err
}

// repairLocked truncates the active segment back to the last
// acknowledged size and repositions the write offset, erasing the
// bytes of any record whose Append returned an error. It reports
// whether the segment is clean again; on failure the journal stays
// damaged and every Append retries the repair before writing. The
// caller holds j.mu.
func (j *Journal) repairLocked() bool {
	if !j.damaged {
		return true
	}
	if j.f == nil {
		return false
	}
	if err := j.f.Truncate(j.size); err != nil {
		return false
	}
	if _, err := j.f.Seek(j.size, io.SeekStart); err != nil {
		return false
	}
	// Persist the truncation so the erased bytes cannot resurface from
	// the page cache after a crash (any tail they could leave behind is
	// past every acknowledged record, but a clean cut is cheaper than
	// relying on torn-tail recovery).
	if err := j.f.Sync(); err != nil {
		j.stats.SyncErrors++
		return false
	}
	j.damaged = false
	j.stats.Repairs++
	return true
}

// Seq returns the last acknowledged sequence number.
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Stats returns the current counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Compact rewrites the journal down to its live set: every record of
// every job that has not reached a terminal op. It reads exactly those
// frames from wherever they sit, checks their checksums, writes them in
// sequence order into a fresh segment and fsyncs it; only then does it
// repoint the index at the copies and remove every older segment.
// Nothing is decoded or re-encoded — the frames are copied byte for
// byte and keep their sequence numbers — so the work done under the
// lock is proportional to the live bytes, not to the history. A
// compaction that fails before its fsync succeeds truncates the fresh
// segment back to empty and leaves the index and the older segments as
// they were.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.damaged && !j.repairLocked() {
		return fmt.Errorf("%w: unacknowledged bytes past offset %d", ErrDamaged, j.size)
	}
	frames := j.liveFramesLocked()
	buf, err := j.readFramesLocked(frames)
	if err != nil {
		return err
	}
	old, err := segments(j.dir)
	if err != nil {
		return err
	}
	if err := j.openSegmentLocked(j.seg + 1); err != nil {
		return err
	}
	if _, err := j.f.Write(buf); err != nil {
		j.damaged = true
		j.repairLocked()
		return fmt.Errorf("journal: compaction write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.stats.SyncErrors++
		j.damaged = true
		j.repairLocked()
		return fmt.Errorf("journal: compaction fsync: %w", err)
	}
	// The copies are durable: the index may point at them now, and only
	// now may history disappear.
	for _, f := range frames {
		*f = frame{seg: j.seg, off: j.size, n: f.n, seq: f.seq}
		j.size += f.n
	}
	for _, n := range old {
		if err := os.Remove(filepath.Join(j.dir, segmentName(n))); err != nil {
			return fmt.Errorf("journal: removing compacted segment: %w", err)
		}
		j.stats.Segments--
	}
	if err := syncDir(j.dir); err != nil {
		return fmt.Errorf("journal: syncing directory after compaction: %w", err)
	}
	j.stats.Compactions++
	j.recountBytesLocked()
	return nil
}

// liveFramesLocked lists the live set's frames in sequence order, as
// pointers into the index so that Compact can repoint them at their
// copies. The caller holds j.mu.
func (j *Journal) liveFramesLocked() []*frame {
	frames := make([]*frame, 0, j.stats.LiveRecords)
	for _, lj := range j.live {
		for i := range lj {
			frames = append(frames, &lj[i])
		}
	}
	sort.Slice(frames, func(a, b int) bool { return frames[a].seq < frames[b].seq })
	return frames
}

// readFramesLocked reads frames, in order, into one buffer, opening each
// segment they sit in once. Every frame's checksum is verified, so a
// compaction never replaces intact history with a damaged copy. The
// caller holds j.mu.
func (j *Journal) readFramesLocked(frames []*frame) (buf []byte, err error) {
	files := make(map[int]*os.File)
	defer func() {
		for _, f := range files {
			err = errors.Join(err, f.Close())
		}
	}()
	buf = make([]byte, j.stats.LiveBytes)
	var pos int64
	for _, f := range frames {
		src := files[f.seg]
		if src == nil {
			if src, err = os.Open(filepath.Join(j.dir, segmentName(f.seg))); err != nil {
				return nil, fmt.Errorf("journal: compaction read: %w", err)
			}
			files[f.seg] = src
		}
		line := buf[pos : pos+f.n]
		if _, err := src.ReadAt(line, f.off); err != nil {
			return nil, fmt.Errorf("journal: compaction read of %s at byte %d: %w", segmentName(f.seg), f.off, err)
		}
		if line[f.n-1] != '\n' {
			return nil, fmt.Errorf("journal: %s: record at byte %d: %w: unterminated", segmentName(f.seg), f.off, ErrFrame)
		}
		if _, err := framePayload(line[:f.n-1]); err != nil {
			return nil, fmt.Errorf("journal: %s: record at byte %d: %w", segmentName(f.seg), f.off, err)
		}
		pos += f.n
	}
	return buf, nil
}

// recountBytesLocked refreshes the on-disk byte tally after
// compaction. The caller holds j.mu.
func (j *Journal) recountBytesLocked() {
	idx, err := segments(j.dir)
	if err != nil {
		return // counters are advisory; the next Stats call may be stale
	}
	var total int64
	for _, n := range idx {
		if fi, err := os.Stat(filepath.Join(j.dir, segmentName(n))); err == nil {
			total += fi.Size()
		}
	}
	j.stats.Bytes = total
	j.stats.Segments = len(idx)
}

// Close syncs and closes the active segment. Further Appends fail with
// ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.f == nil {
		return nil
	}
	syncErr := j.f.Sync()
	closeErr := j.f.Close()
	j.f = nil
	if syncErr != nil {
		j.stats.SyncErrors++
		return fmt.Errorf("journal: close fsync: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("journal: close: %w", closeErr)
	}
	return nil
}

// ReadAll replays every record in dir without opening the journal for
// writing — the inspection path used by tests and tooling. Unlike
// Open, it never mutates the on-disk state: a torn tail is skipped,
// not truncated.
func ReadAll(dir string) ([]Record, error) {
	idx, err := segments(dir)
	if err != nil {
		return nil, err
	}
	var out []Record
	for i, n := range idx {
		recs, _, _, err := scanSegment(dir, n, i == len(idx)-1)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}
