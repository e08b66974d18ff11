package serve

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shortcutmining/internal/journal"
)

// fuzzKinds indexes the job-kind table for FuzzJobDecode's kind byte.
var fuzzKinds = []*jobKind{simulateKind, sweepKind, scheduleKind, clusterKind}

// FuzzJobDecode holds every row of the job-kind table to the trust
// boundary contract. A kind has one decoder, its body plus check, which
// reads both an HTTP body and a journaled accepted payload, so the
// seeds are the bodies http.golden posts and the payloads
// journal.golden accepts. A document either fails with an error (a 400
// reply, an interrupted recovery) or yields a request whose payload
// round-trips: decode → doc → decode → doc gives the same bytes. It
// may not panic.
func FuzzJobDecode(f *testing.F) {
	for i, k := range fuzzKinds {
		for _, seed := range goldenBodies(f, "/v1/"+k.name) {
			f.Add(byte(i), seed)
		}
	}
	for _, rec := range goldenAccepted(f) {
		for i, k := range fuzzKinds {
			if k.name == rec.Kind {
				f.Add(byte(i), []byte(rec.Payload))
			}
		}
	}
	f.Fuzz(func(t *testing.T, kind byte, body []byte) {
		k := fuzzKinds[int(kind)%len(fuzzKinds)]
		_, req, err := decodePayload(&journal.Record{Kind: k.name, Payload: body})
		if err != nil {
			if err.Error() == "" {
				t.Fatalf("%s: error without a message", k.name)
			}
			return
		}
		payloadRoundTrips(t, k, req)
	})
}

// payloadRoundTrips checks that req's accepted payload decodes back to
// a request with the same payload.
func payloadRoundTrips(t *testing.T, k *jobKind, req any) {
	t.Helper()
	first, err := encodePayload(k, req)
	if err != nil {
		t.Fatalf("decoded %s request does not encode: %v", k.name, err)
	}
	_, again, err := decodePayload(&journal.Record{Kind: k.name, Payload: first})
	if err != nil {
		t.Fatalf("%s payload does not decode: %v\n%s", k.name, err, first)
	}
	second, err := encodePayload(k, again)
	if err != nil {
		t.Fatalf("re-decoded %s request does not encode: %v", k.name, err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("%s payload does not round-trip:\n%s\nvs\n%s", k.name, first, second)
	}
}

// goldenBodies returns the POST bodies testdata/http.golden sends to
// path.
func goldenBodies(tb testing.TB, path string) [][]byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "http.golden"))
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if body, ok := strings.CutPrefix(sc.Text(), "=== POST "+path+" "); ok {
			out = append(out, []byte(body))
		}
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return out
}

// goldenAccepted returns the accepted records of testdata/journal.golden.
func goldenAccepted(tb testing.TB) []journal.Record {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "journal.golden"))
	if err != nil {
		tb.Fatal(err)
	}
	var out []journal.Record
	for _, line := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
		rec, err := journal.DecodeRecord(line)
		if err != nil {
			tb.Fatal(err)
		}
		if rec.Op == journal.OpAccepted {
			out = append(out, rec)
		}
	}
	return out
}
