package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeClock returns a deterministic, strictly increasing clock.
func fakeClock() func() time.Time {
	t := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

func mustAppend(t testing.TB, j *Journal, rec Record) {
	t.Helper()
	if err := j.Append(rec); err != nil {
		t.Fatalf("Append(%+v): %v", rec, err)
	}
}

// TestAppendReplayRoundtrip: records written through Append come back
// from a reopened journal in order, with sequence numbers and
// payloads intact.
func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	j, recovered, err := Open(dir, Options{Now: fakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh journal recovered %d records", len(recovered))
	}
	payload, _ := json.Marshal(map[string]string{"network": "resnet34"})
	mustAppend(t, j, Record{Job: "j000001", Op: OpAccepted, Kind: "simulate", RequestID: "r-1", Payload: payload})
	mustAppend(t, j, Record{Job: "j000001", Op: OpRunning})
	mustAppend(t, j, Record{Job: "j000001", Op: OpCheckpoint, Layer: 8, Payload: payload})
	mustAppend(t, j, Record{Job: "j000001", Op: OpDone, Payload: payload})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Job: "x", Op: OpDone}); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close = %v, want ErrClosed", err)
	}

	_, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("recovered %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d has seq %d", i, r.Seq)
		}
		if r.Job != "j000001" {
			t.Errorf("record %d job = %q", i, r.Job)
		}
		if r.Time.IsZero() {
			t.Errorf("record %d has zero timestamp", i)
		}
	}
	if recs[2].Op != OpCheckpoint || recs[2].Layer != 8 {
		t.Errorf("checkpoint record = %+v", recs[2])
	}
	if string(recs[3].Payload) != string(payload) {
		t.Errorf("payload lost: %s", recs[3].Payload)
	}
}

// TestTornTailTruncation: a partial final line (crash mid-write) is
// truncated on open; the intact prefix survives.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Job: "j1", Op: OpAccepted, Kind: "simulate"})
	mustAppend(t, j, Record{Job: "j1", Op: OpRunning})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn write: append half a record with no newline.
	seg := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"seq":3,"job":"j1","op":"do`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2 (torn third dropped)", len(recs))
	}
	if st := j2.Stats(); st.TornRecords != 1 {
		t.Errorf("TornRecords = %d, want 1", st.TornRecords)
	}
	// The truncation is physical: a third open sees a clean journal.
	if _, recs3, err := Open(dir, Options{}); err != nil || len(recs3) != 2 {
		t.Errorf("post-truncation open: %d records, err %v", len(recs3), err)
	}
}

// TestTornTerminatedTailTruncation: a complete-looking final line with
// a bad CRC (half-flushed page) is likewise truncated.
func TestTornTerminatedTailTruncation(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Job: "j1", Op: OpAccepted})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("00000000 {\"seq\":2,\"job\":\"j1\",\"op\":\"done\"}\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with corrupt terminated tail: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d records, want 1", len(recs))
	}
}

// TestMidFileCorruptionClassified: damage that is NOT the torn tail
// fails Open with a classified error instead of silently skipping
// history.
func TestMidFileCorruptionClassified(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustAppend(t, j, Record{Job: fmt.Sprintf("j%d", i), Op: OpAccepted})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[2] ^= 0xff // flip a CRC byte of the first record
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, Options{})
	if err == nil {
		t.Fatal("open with mid-file corruption succeeded")
	}
	if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrFrame) {
		t.Errorf("corruption error not classified: %v", err)
	}
}

// TestSegmentRotation: appends past the byte threshold roll into new
// segments, and replay stitches them back together in order.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		mustAppend(t, j, Record{Job: fmt.Sprintf("j%06d", i), Op: OpAccepted, Kind: "simulate"})
	}
	st := j.Stats()
	if st.Rotations == 0 {
		t.Fatalf("no rotations after %d appends with a 256-byte segment cap: %+v", n, st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	idx, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) < 3 {
		t.Errorf("segments on disk = %v, want several", idx)
	}
	_, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("recovered %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if want := fmt.Sprintf("j%06d", i); r.Job != want {
			t.Fatalf("record %d out of order: job %q, want %q", i, r.Job, want)
		}
	}
}

// TestCompaction: Compact keeps only the records of jobs that have not
// reached a terminal op, removes old segments, and the survivors replay
// cleanly.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustAppend(t, j, Record{Job: fmt.Sprintf("j%d", i), Op: OpAccepted})
		mustAppend(t, j, Record{Job: fmt.Sprintf("j%d", i), Op: OpDone})
	}
	mustAppend(t, j, Record{Job: "live", Op: OpAccepted})
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Compactions != 1 || st.Segments != 1 {
		t.Errorf("post-compaction stats = %+v, want 1 compaction, 1 segment", st)
	}
	// The journal stays appendable after compaction.
	mustAppend(t, j, Record{Job: "live", Op: OpRunning})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Job != "live" || recs[1].Op != OpRunning {
		t.Fatalf("post-compaction replay = %+v, want live accepted+running", recs)
	}
	if recs[0].Seq >= recs[1].Seq {
		t.Errorf("sequence order lost across compaction: %d then %d", recs[0].Seq, recs[1].Seq)
	}
}

// TestInjectedIOErrors: the chaos seam turns writes and fsyncs into
// classified failures; a failed append is not acknowledged and the
// journal keeps working once the fault clears.
func TestInjectedIOErrors(t *testing.T) {
	dir := t.TempDir()
	var failing bool
	injected := errors.New("chaos: injected journal I/O error")
	j, _, err := Open(dir, Options{WriteErr: func(op string) error {
		if failing {
			return fmt.Errorf("%w (%s)", injected, op)
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Job: "j1", Op: OpAccepted})
	failing = true
	if err := j.Append(Record{Job: "j1", Op: OpRunning}); !errors.Is(err, injected) {
		t.Fatalf("append under injection = %v, want injected error", err)
	}
	failing = false
	mustAppend(t, j, Record{Job: "j1", Op: OpRunning})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.AppendErrors != 1 || st.Appends != 2 {
		t.Errorf("stats = %+v, want 1 append error, 2 appends", st)
	}
	_, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2 (failed append unacknowledged)", len(recs))
	}
}

// TestFailedWriteRepair: an injected write fault lands a short write
// (the ENOSPC signature) mid-segment, and the journal truncates it
// back out — later successful appends land after the last acknowledged
// record, so the journal reopens cleanly instead of failing with
// mid-file corruption.
func TestFailedWriteRepair(t *testing.T) {
	dir := t.TempDir()
	var failOp string
	j, _, err := Open(dir, Options{WriteErr: func(op string) error {
		if op == failOp {
			return fmt.Errorf("injected %s failure", op)
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Job: "j1", Op: OpAccepted})
	failOp = "write"
	if err := j.Append(Record{Job: "j1", Op: OpRunning}); err == nil {
		t.Fatal("append under write fault succeeded")
	}
	failOp = ""
	// The append after the fault must not land behind partial bytes.
	mustAppend(t, j, Record{Job: "j1", Op: OpRunning})
	mustAppend(t, j, Record{Job: "j1", Op: OpDone})
	if st := j.Stats(); st.Repairs != 1 {
		t.Errorf("Repairs = %d, want 1", st.Repairs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after repaired write fault: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3 (failed append erased)", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d seq = %d, want %d (monotone, no gaps from the repair)", i, r.Seq, i+1)
		}
	}
}

// TestFailedSyncRepair: when the write lands but the fsync fails, the
// record's bytes are truncated back out — the caller was told the
// append failed, so the record must not replay as committed, and the
// sequence number must not appear twice.
func TestFailedSyncRepair(t *testing.T) {
	dir := t.TempDir()
	var failSync bool
	j, _, err := Open(dir, Options{WriteErr: func(op string) error {
		if failSync && op == "sync" {
			return fmt.Errorf("injected sync failure")
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Job: "j1", Op: OpAccepted})
	failSync = true
	if err := j.Append(Record{Job: "j1", Op: OpRunning, Error: "unacknowledged"}); err == nil {
		t.Fatal("append under sync fault succeeded")
	}
	failSync = false
	mustAppend(t, j, Record{Job: "j1", Op: OpDone})
	if st := j.Stats(); st.Repairs != 1 || st.SyncErrors != 1 {
		t.Errorf("stats = %+v, want 1 repair, 1 sync error", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2 (unacknowledged record must not replay)", len(recs))
	}
	seen := map[uint64]bool{}
	for _, r := range recs {
		if r.Error == "unacknowledged" {
			t.Fatalf("record the caller was told failed replayed as committed: %+v", r)
		}
		if seen[r.Seq] {
			t.Fatalf("duplicate sequence number %d on disk", r.Seq)
		}
		seen[r.Seq] = true
	}
}

// TestCompactSelf: compaction works from the journal's own live-set
// index, including one rebuilt by Open alone — no caller-supplied
// replay is needed. Of a live job's checkpoints only the newest
// survives.
func TestCompactSelf(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		mustAppend(t, j, Record{Job: fmt.Sprintf("j%d", i), Op: OpAccepted})
		mustAppend(t, j, Record{Job: fmt.Sprintf("j%d", i), Op: OpDone})
	}
	mustAppend(t, j, Record{Job: "live", Op: OpAccepted})
	mustAppend(t, j, Record{Job: "live", Op: OpCheckpoint, Layer: 8})
	mustAppend(t, j, Record{Job: "live", Op: OpCheckpoint, Layer: 16})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, _, err = Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Compactions != 1 || st.Segments != 1 {
		t.Errorf("post-compaction stats = %+v, want 1 compaction, 1 segment", st)
	}
	mustAppend(t, j, Record{Job: "live", Op: OpRunning})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Op != OpAccepted || recs[1].Layer != 16 || recs[2].Op != OpRunning {
		t.Fatalf("post-compaction replay = %+v, want live accepted, newest checkpoint, running", recs)
	}
}

// TestEncodeDecodeErrors pins the record-level validation.
func TestEncodeDecodeErrors(t *testing.T) {
	if _, err := EncodeRecord(Record{Op: OpDone}); !errors.Is(err, ErrRecord) {
		t.Errorf("encode without job = %v, want ErrRecord", err)
	}
	if _, err := EncodeRecord(Record{Job: "j", Op: "sideways"}); !errors.Is(err, ErrRecord) {
		t.Errorf("encode with bad op = %v, want ErrRecord", err)
	}
	cases := []struct {
		name string
		line string
		want error
	}{
		{"empty", "", ErrFrame},
		{"short", "abc", ErrFrame},
		{"no space", "0123456789abcdef", ErrFrame},
		{"bad hex", "zzzzzzzz {}", ErrFrame},
		{"crc mismatch", "00000000 {\"seq\":1,\"job\":\"j\",\"op\":\"done\"}", ErrChecksum},
	}
	for _, tc := range cases {
		if _, err := DecodeRecord([]byte(tc.line)); !errors.Is(err, tc.want) {
			t.Errorf("%s: DecodeRecord = %v, want %v", tc.name, err, tc.want)
		}
	}
	// A correctly framed payload that is not a record.
	line, err := EncodeRecord(Record{Job: "j", Op: OpDone})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeRecord(line[:len(line)-1])
	if err != nil || rec.Job != "j" {
		t.Fatalf("roundtrip = %+v, %v", rec, err)
	}
	if !OpDone.Terminal() || OpCheckpoint.Terminal() {
		t.Error("Terminal misclassifies ops")
	}
}

// TestForeignFilesIgnored: non-segment files in the directory are not
// treated as journal state.
func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-abc.jsonl"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("recovered %d records from foreign files", len(recs))
	}
	mustAppend(t, j, Record{Job: "j1", Op: OpAccepted})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadAllNonDestructive: ReadAll skips a torn tail without
// truncating the file.
func TestReadAllNonDestructive(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Job: "j1", Op: OpAccepted})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(1))
	before, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("torn"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(dir)
	if err != nil || len(recs) != 1 {
		t.Fatalf("ReadAll = %d recs, %v", len(recs), err)
	}
	after, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)+4 {
		t.Errorf("ReadAll mutated the segment: %d bytes, had %d+4", len(after), len(before))
	}
	if !strings.HasSuffix(string(after), "torn") {
		t.Error("torn tail removed by ReadAll")
	}
}

// referenceCompact is the compaction policy as the serve engine applied
// it to a full replay before the journal indexed its own live set: a
// job whose lifecycle reached a terminal op contributes nothing, and of
// a live job's checkpoints only the newest survives. Every other record
// keeps its order and sequence number. Compact must leave exactly
// EncodeRecord of its output on disk.
func referenceCompact(recs []Record) []Record {
	terminal := make(map[string]bool)
	newestCkpt := make(map[string]uint64)
	for _, r := range recs {
		if r.Op.Terminal() {
			terminal[r.Job] = true
		}
		if r.Op == OpCheckpoint && r.Seq >= newestCkpt[r.Job] {
			newestCkpt[r.Job] = r.Seq
		}
	}
	var out []Record
	for _, r := range recs {
		if terminal[r.Job] {
			continue
		}
		if r.Op == OpCheckpoint && r.Seq != newestCkpt[r.Job] {
			continue
		}
		out = append(out, r)
	}
	return out
}

// encodeAll renders records as the bytes of one segment.
func encodeAll(t testing.TB, recs []Record) []byte {
	t.Helper()
	var out []byte
	for _, r := range recs {
		line, err := EncodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, line...)
	}
	return out
}

// onlySegment returns the bytes of the journal's one segment.
func onlySegment(t testing.TB, dir string) []byte {
	t.Helper()
	idx, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 1 {
		t.Fatalf("segments on disk = %v, want exactly one", idx)
	}
	b, err := os.ReadFile(filepath.Join(dir, segmentName(idx[0])))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// history drives a seeded, lifecycle-ordered interleaving of jobs
// through a journal: each job is accepted, starts running, checkpoints
// any number of times, and ends in one terminal op. Some appends fail
// at their write or their fsync through Options.WriteErr, and the
// journal can be closed and reopened, with or without a torn tail.
type history struct {
	t    *testing.T
	rng  *rand.Rand
	dir  string
	opts Options
	j    *Journal
	fail string // the WriteErr op the next append fails at; "" for none
	jobs int    // jobs started so far
	live []*histJob
}

// histJob is one job of a history that has not reached its terminal op.
type histJob struct {
	id    string
	step  int // 0: accepted is next, 1: running is next, 2: running
	layer int // layer of the newest checkpoint
}

var (
	histKinds     = []string{"simulate", "sweep", "schedule", "cluster"}
	histTerminals = []Op{OpDone, OpFailed, OpCanceled, OpInterrupted}
)

func newHistory(t *testing.T, seed, segmentBytes int64) *history {
	h := &history{t: t, rng: rand.New(rand.NewSource(seed)), dir: t.TempDir()}
	h.opts = Options{SegmentBytes: segmentBytes, Now: fakeClock(), WriteErr: func(op string) error {
		if op == h.fail {
			return fmt.Errorf("injected %s failure", op)
		}
		return nil
	}}
	h.open()
	return h
}

// open opens the history's journal and returns the replayed records.
func (h *history) open() []Record {
	h.t.Helper()
	j, recs, err := Open(h.dir, h.opts)
	if err != nil {
		h.t.Fatal(err)
	}
	h.j = j
	return recs
}

// payload returns a JSON document of about n bytes.
func payload(n int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"pad":%q}`, strings.Repeat("x", n)))
}

// step appends one record: a new job's acceptance or the next lifecycle
// op of a live one. One append in ten fails at its write or its fsync;
// a later step retries the same op.
func (h *history) step() {
	h.t.Helper()
	if len(h.live) == 0 || (len(h.live) < 6 && h.rng.Intn(4) == 0) {
		h.jobs++
		h.live = append(h.live, &histJob{id: fmt.Sprintf("j%06d", h.jobs)})
	}
	k := h.rng.Intn(len(h.live))
	job := h.live[k]
	rec := Record{Job: job.id}
	switch {
	case job.step == 0:
		rec.Op, rec.Kind, rec.RequestID = OpAccepted, histKinds[h.rng.Intn(len(histKinds))], "r-"+job.id
		rec.Payload = payload(20 + h.rng.Intn(200))
	case job.step == 1:
		rec.Op = OpRunning
	case h.rng.Intn(3) > 0:
		rec.Op, rec.Layer = OpCheckpoint, job.layer+8
		rec.Payload = payload(40 + 10*rec.Layer)
	default:
		rec.Op = histTerminals[h.rng.Intn(len(histTerminals))]
		if rec.Op != OpDone {
			rec.Error, rec.Reason = "stopped", string(rec.Op)
		}
	}
	if h.rng.Intn(10) == 0 {
		h.fail = []string{"write", "sync"}[h.rng.Intn(2)]
		err := h.j.Append(rec)
		h.fail = ""
		if err == nil {
			h.t.Fatalf("append of %+v succeeded under an injected fault", rec)
		}
		return
	}
	mustAppend(h.t, h.j, rec)
	switch {
	case rec.Op.Terminal():
		h.live = append(h.live[:k], h.live[k+1:]...)
	case rec.Op == OpCheckpoint:
		job.layer = rec.Layer
	default:
		job.step++
	}
}

// reopen closes the journal and opens it again, first leaving a torn
// final record behind when torn is set, and returns the replay.
func (h *history) reopen(torn bool) []Record {
	h.t.Helper()
	if err := h.j.Close(); err != nil {
		h.t.Fatal(err)
	}
	if torn {
		idx, err := segments(h.dir)
		if err != nil {
			h.t.Fatal(err)
		}
		f, err := os.OpenFile(filepath.Join(h.dir, segmentName(idx[len(idx)-1])), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			h.t.Fatal(err)
		}
		if _, err := f.WriteString(`0badf00d {"seq":`); err != nil {
			h.t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			h.t.Fatal(err)
		}
	}
	recs := h.open()
	if st := h.j.Stats(); torn && st.TornRecords != 1 {
		h.t.Fatalf("TornRecords = %d after reopening over a torn tail, want 1", st.TornRecords)
	}
	return recs
}

// compact runs one Compact and requires the journal to hold, in one
// segment, exactly EncodeRecord of the reference policy applied to the
// full replay taken just before.
func (h *history) compact() {
	h.t.Helper()
	before, err := ReadAll(h.dir)
	if err != nil {
		h.t.Fatal(err)
	}
	kept := referenceCompact(before)
	want := encodeAll(h.t, kept)
	prev := h.j.Stats()
	if err := h.j.Compact(); err != nil {
		h.t.Fatal(err)
	}
	if got := onlySegment(h.t, h.dir); !bytes.Equal(got, want) {
		h.t.Fatalf("compacted segment differs from the reference policy:\n got %d bytes %q\nwant %d bytes %q", len(got), got, len(want), want)
	}
	st := h.j.Stats()
	if st.Compactions != prev.Compactions+1 || st.Segments != 1 || st.Bytes != int64(len(want)) {
		h.t.Fatalf("stats after compaction = %+v, want one more compaction, 1 segment, %d bytes", st, len(want))
	}
	if st.LiveRecords != int64(len(kept)) || st.LiveBytes != int64(len(want)) {
		h.t.Fatalf("live set after compaction = %d records / %d bytes, want %d / %d", st.LiveRecords, st.LiveBytes, len(kept), len(want))
	}
}

// TestCompactEquivalence: across seeded interleavings of many jobs,
// with segment rotation, failed writes and fsyncs, and reopens with and
// without a torn tail, every Compact leaves exactly what the reference
// policy keeps of the full replay. Compaction reclaims every older
// segment, the journal stays appendable afterwards, and a reopen
// replays the survivors and then the later appends in sequence order.
func TestCompactEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			h := newHistory(t, seed, 256+128*(seed%4))
			for i := 0; i < 300; i++ {
				h.step()
				switch r := h.rng.Intn(100); {
				case i == 150:
					h.reopen(seed%2 == 0)
				case r < 3:
					h.compact()
				case r < 4:
					h.reopen(h.rng.Intn(2) == 0)
					if h.rng.Intn(2) == 0 {
						h.compact() // from the index Open built alone
					}
				}
			}
			h.compact()
			kept, err := ReadAll(h.dir)
			if err != nil {
				t.Fatal(err)
			}
			late := Record{Job: "late", Op: OpAccepted, Kind: "simulate"}
			mustAppend(t, h.j, late)
			replay := h.reopen(false)
			if len(replay) != len(kept)+1 || replay[len(replay)-1].Job != late.Job {
				t.Fatalf("reopen replayed %d records, want the %d survivors and then the late append", len(replay), len(kept))
			}
			if !bytes.Equal(encodeAll(t, replay[:len(kept)]), encodeAll(t, kept)) {
				t.Fatal("reopen replayed different survivors than the compacted segment holds")
			}
			for i := 1; i < len(replay); i++ {
				if replay[i].Seq <= replay[i-1].Seq {
					t.Fatalf("replay out of sequence order at %d: seq %d after %d", i, replay[i].Seq, replay[i-1].Seq)
				}
			}
			if err := h.j.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// goldenHistory is the fixed history behind testdata/compacted.golden.
func goldenHistory(t *testing.T) *history {
	h := newHistory(t, 5, 512)
	for i := 0; i < 400; i++ {
		h.step()
		if i%100 == 99 {
			h.compact()
		}
		if i == 250 {
			h.reopen(true)
		}
	}
	h.compact()
	return h
}

// TestCompactGolden: the compacted segment of a fixed seeded history is
// byte-identical to testdata/compacted.golden, which the implementation
// before the live-set index wrote for the same history (a full replay
// under the lock, the reference policy, every survivor re-encoded).
func TestCompactGolden(t *testing.T) {
	h := goldenHistory(t)
	defer h.j.Close()
	want, err := os.ReadFile(filepath.Join("testdata", "compacted.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := onlySegment(t, h.dir); !bytes.Equal(got, want) {
		t.Fatalf("compacted segment (%d bytes) differs from testdata/compacted.golden (%d bytes)", len(got), len(want))
	}
}

// BenchmarkCompact times one Compact of a 512-record history whose only
// live work is two in-flight resnet34-sized simulate jobs. A job is an
// accepted request, running, a checkpoint every 8 of its 56 layers
// (the snapshot carries every finished layer's stats, so it grows by
// about 340 bytes a layer from 1.2 KB), and a terminal op. The history
// is 55 finished jobs, one job canceled before it ran, and the two
// live jobs, checkpointed up to layers 48 and 40.
func BenchmarkCompact(b *testing.B) {
	tmpl := b.TempDir()
	j, _, err := Open(tmpl, Options{Now: fakeClock()})
	if err != nil {
		b.Fatal(err)
	}
	job := func(id string, lastLayer int, end Op) {
		mustAppend(b, j, Record{Job: id, Op: OpAccepted, Kind: "simulate", Payload: payload(8 << 10)})
		if end == OpCanceled {
			mustAppend(b, j, Record{Job: id, Op: end})
			return
		}
		mustAppend(b, j, Record{Job: id, Op: OpRunning})
		for l := 8; l <= lastLayer; l += 8 {
			mustAppend(b, j, Record{Job: id, Op: OpCheckpoint, Layer: l, Payload: payload(1200 + 340*l)})
		}
		if end != "" {
			mustAppend(b, j, Record{Job: id, Op: end})
		}
	}
	for i := 0; i < 55; i++ {
		job(fmt.Sprintf("j%06d", i), 48, OpDone)
	}
	job("canceled", 0, OpCanceled)
	job("live-a", 48, "")
	job("live-b", 40, "")
	if st := j.Stats(); st.Appends != 512 {
		b.Fatalf("history has %d records, want 512", st.Appends)
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	files, err := os.ReadDir(tmpl)
	if err != nil {
		b.Fatal(err)
	}
	segs := make(map[string][]byte)
	for _, f := range files {
		if segs[f.Name()], err = os.ReadFile(filepath.Join(tmpl, f.Name())); err != nil {
			b.Fatal(err)
		}
	}
	dir := filepath.Join(b.TempDir(), "wal")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			b.Fatal(err)
		}
		for name, data := range segs {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				b.Fatal(err)
			}
		}
		j, _, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := j.Compact(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// TestCompactFailureKeepsHistory: a live frame that no longer matches
// its checksum on disk fails Compact before anything is rewritten. The
// older segments, the live-set counters and the compaction count stay
// as they were, the journal keeps appending, and once the frame is
// intact again the next Compact keeps exactly the reference set.
func TestCompactFailureKeepsHistory(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	mustAppend(t, j, Record{Job: "live", Op: OpAccepted, Payload: payload(16)})
	for i := 0; i < 4; i++ {
		mustAppend(t, j, Record{Job: fmt.Sprintf("j%d", i), Op: OpAccepted})
		mustAppend(t, j, Record{Job: fmt.Sprintf("j%d", i), Op: OpDone})
	}
	first := filepath.Join(dir, segmentName(1))
	intact, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	damaged := bytes.Clone(intact)
	damaged[len(damaged)-3] ^= 0x01 // inside the live record's JSON
	if err := os.WriteFile(first, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if err := j.Compact(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Compact over a damaged live frame = %v, want ErrChecksum", err)
	}
	after, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("failed compaction changed the segments: %v, had %v", after, before)
	}
	if got := j.Stats(); got != st {
		t.Errorf("failed compaction changed the stats: %+v, had %+v", got, st)
	}
	if err := os.WriteFile(first, intact, 0o644); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Job: "live", Op: OpRunning})
	all, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeAll(t, referenceCompact(all))
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := onlySegment(t, dir); !bytes.Equal(got, want) {
		t.Fatalf("compaction after the repair kept %q, want %q", got, want)
	}
}
