package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"shortcutmining/internal/nn"
)

// coldBody is a serve-cold style simulate document: the compact
// resnet34 graph inline, a platform override and a strategy.
func coldBody(tb testing.TB) []byte {
	tb.Helper()
	var full, compact bytes.Buffer
	if err := nn.EncodeJSON(&full, nn.MustBuild("resnet34")); err != nil {
		tb.Fatal(err)
	}
	if err := json.Compact(&compact, full.Bytes()); err != nil {
		tb.Fatal(err)
	}
	return append(append([]byte(`{"graph":`), compact.Bytes()...),
		`,"config":{"Pool":{"NumBanks":34,"BankBytes":16384},"PE":{"Tn":32,"Tm":32},"DRAM":{"BandwidthGBps":12.8}},"strategy":"scm","observe":false}`...)
}

// decodeAndKey is the cold request's path up to the cache lookup.
func decodeAndKey(body []byte) error {
	_, req, err := decodeSimulate(bytes.NewReader(body), "")
	if err == nil {
		_, err = RequestKey(req)
	}
	return err
}

// TestColdRequestBytes bounds the bytes decodeSimulate plus RequestKey
// allocate for a compact resnet34 inline body: a host-speed-independent
// guard on the one-pass decode and the reflection-free network key.
// With a reflection decode of the body, another of the graph and a
// reflection encode of the network for the hash they allocated about
// 123 KB per request.
func TestColdRequestBytes(t *testing.T) {
	body := coldBody(t)
	if err := decodeAndKey(body); err != nil {
		t.Fatal(err)
	}
	var failed bool
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if decodeAndKey(body) != nil {
				failed = true
			}
		}
	})
	if failed {
		t.Fatal("a cold decode failed")
	}
	const limit = 96 << 10
	if got := r.AllocedBytesPerOp(); got > limit {
		t.Errorf("cold decode and key allocate %d B per request, want at most %d", got, limit)
	}
	t.Logf("cold decode and key (%d B body): %d B, %d allocs per request", len(body), r.AllocedBytesPerOp(), r.AllocsPerOp())
}

// coldVariants are the cold body and variants of it outside
// canonjson's subset, each decoded by the reflection fallback; the
// float one is rejected, as it always was.
func coldVariants(tb testing.TB) []struct {
	name    string
	body    []byte
	wantErr bool
} {
	cold := string(coldBody(tb))
	return []struct {
		name    string
		body    []byte
		wantErr bool
	}{
		{"canonical", []byte(cold), false},
		{"case-key-after-graph", []byte(strings.Replace(cold, `"strategy":`, `"Strategy":`, 1)), false},
		{"case-key-late-in-graph", []byte(cold[:strings.LastIndex(cold, `"kernel":`)] + `"Kernel":` + cold[strings.LastIndex(cold, `"kernel":`)+len(`"kernel":`):]), false},
		{"non-ascii-name", []byte(strings.ReplaceAll(cold, `"avgpool"`, `"avgpoöl"`)), false},
		{"escaped-name", []byte(strings.ReplaceAll(cold, `"avgpool"`, `"avg\u0070ool"`)), false},
		{"float-in-graph", []byte(cold[:strings.LastIndex(cold, `"stride":1`)] + `"stride":1.0` + cold[strings.LastIndex(cold, `"stride":1`)+len(`"stride":1`):]), true},
	}
}

// BenchmarkColdDecodeKey times decodeSimulate plus RequestKey on the
// cold body and on variants of it that take the fallback decoder.
func BenchmarkColdDecodeKey(b *testing.B) {
	for _, v := range coldVariants(b) {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := decodeAndKey(v.body); (err != nil) != v.wantErr {
					b.Fatal(err)
				}
			}
		})
	}
}

// decodeReference is decodeSimulate's reference: the reflection decode
// of the body followed by the same validation and resolve, reading the
// same limited stream.
func decodeReference(r io.Reader) (simulateBody, Request, error) {
	var body simulateBody
	if err := decodeJSON(r, &body); err != nil {
		return body, Request{}, err
	}
	req, err := body.request("")
	return body, req, err
}

// checkAgainstReference decodes body (cut off after limit bytes, as
// http.MaxBytesReader does) with decodeSimulate and with the reference
// and requires the same error text or the same request.
func checkAgainstReference(t *testing.T, body []byte, limit int64) {
	t.Helper()
	gotBody, got, err := decodeSimulate(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit), "")
	wantBody, want, wantErr := decodeReference(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit))
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("error %v, reference %v\nbody: %.300q", err, wantErr, body)
	}
	if err != nil {
		return
	}
	if got, err = got.built(); err != nil {
		t.Fatal(err)
	}
	if want, err = want.built(); err != nil {
		t.Fatal(err)
	}
	gotNet, err := nn.AppendJSON(nil, got.Net)
	if err != nil {
		t.Fatal(err)
	}
	wantNet, err := nn.AppendJSON(nil, want.Net)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotNet, wantNet) {
		t.Fatalf("network differs from the reference's:\n%s\nvs\n%s", gotNet, wantNet)
	}
	if !reflect.DeepEqual(got.Cfg, want.Cfg) || got.Strategy != want.Strategy || got.Observe != want.Observe || got.zoo != want.zoo {
		t.Fatalf("request %+v differs from the reference's %+v", got, want)
	}
	if gotBody.Trace != wantBody.Trace || gotBody.Async != wantBody.Async || gotBody.TimeoutMS != wantBody.TimeoutMS {
		t.Fatalf("reply options trace %t async %t timeout %d, reference %t %t %d",
			gotBody.Trace, gotBody.Async, gotBody.TimeoutMS, wantBody.Trace, wantBody.Async, wantBody.TimeoutMS)
	}
}

// simulateSeeds are simulate documents inside and just outside
// canonjson's subset.
func simulateSeeds(tb testing.TB) [][]byte {
	cold := string(coldBody(tb))
	const tiny = `{"name":"t","input":{"c":4,"h":8,"w":8},"layers":[{"name":"c","op":"conv","inputs":["input"],"out_channels":4,"kernel":3,"stride":1,"pad":1}]}`
	graph := func(g, rest string) string { return `{"graph":` + g + rest + `}` }
	seeds := []string{
		cold,
		graph(tiny, ""),
		graph(tiny, `,"strategy":"fm-reuse","observe":true,"trace":true,"async":false,"timeout_ms":5000`),
		graph(tiny, `,"config":{"Batch":2}`),
		graph(tiny, `,"config":null`),
		graph(tiny, `,"config":{"Batch":2.5}`),
		graph(tiny, `,"config":{"Bogus":1}`),
		graph(tiny, `,"config":[1,-0,1e2,true,null,"s",{}]`),
		graph(tiny, `,"config":{"Batch":1,"Batch":2}`),
		graph(tiny, `,"network":"resnet18"`),
		graph(tiny, `,"network":""`),
		graph(`null`, ""),
		graph(`{}`, ""),
		graph(strings.Replace(tiny, `"layers":[`, `"layers":null,"x":[`, 1), ""),
		graph(strings.Replace(tiny, `["input"]`, `null`, 1), ""),
		graph(strings.Replace(tiny, `"name":"t"`, `"Name":"t"`, 1), ""),
		graph(strings.Replace(tiny, `"name":"t"`, `"name":"\u0074"`, 1), ""),
		graph(strings.Replace(tiny, `"name":"t"`, `"name":"é"`, 1), ""),
		graph(strings.Replace(tiny, `"name":"t"`, `"name":"t","name":"u"`, 1), ""),
		graph(strings.Replace(tiny, `["input"]`, `["input"],"inputs":["input"]`, 1), ""),
		graph(tiny, `,"graph":`+tiny),
		graph(strings.Replace(tiny, `"kernel":3`, `"kernel":3.0`, 1), ""),
		graph(strings.Replace(tiny, `"kernel":3`, `"kernel":1e2`, 1), ""),
		graph(strings.Replace(tiny, `"pad":1`, `"pad":-0`, 1), ""),
		graph(strings.Replace(tiny, `"c":4`, `"c":99999999999999999999`, 1), ""),
		graph(strings.Replace(tiny, `"op":"conv"`, `"op":"magic"`, 1), ""),
		graph(tiny, `,"timeout_ms":-1`),
		graph(tiny, `,"timeout_ms":1.0`),
		graph(tiny, `,"timeout_ms":-0`),
		graph(tiny, `,"timeout_ms":9223372036854775807`),
		graph(tiny, `,"timeout_ms":9223372036854775808`),
		graph(tiny, `,"Strategy":"scm"`),
		graph(tiny, `,"strategy":"sc\u006d"`),
		graph(tiny, `,"strategy":"scm","strategy":"baseline"`),
		graph(tiny, `,"strategy":"turbo"`),
		graph(tiny, `,"observe":null`),
		graph(tiny, `,"bogus":1`),
		graph(tiny, "") + ` trailing`,
		graph(tiny, "") + graph(tiny, ""),
		graph(tiny, "") + " \n",
		graph(tiny, "")[:len(tiny)],
		`{"network":"densechain"}`,
		`{"network":"NoSuchNet"}`,
		`{"network":null}`,
		`[]`,
		``,
	}
	out := goldenBodies(tb, "/v1/simulate")
	for _, s := range seeds {
		out = append(out, []byte(s))
	}
	return out
}

// FuzzDecodeSimulate holds the one-pass simulate decode to its
// reflection reference: for every body, cut off at every limit,
// decodeSimulate returns the reference's error text, or a request with
// the same network encoding, platform, strategy, observe flag and reply
// options. Neither may panic. The limit byte models a body over
// maxBodyBytes; 0 means maxBodyBytes itself.
func FuzzDecodeSimulate(f *testing.F) {
	for _, seed := range simulateSeeds(f) {
		f.Add(seed, uint16(0))
		f.Add(seed, uint16(len(seed)/2))
	}
	f.Fuzz(func(t *testing.T, body []byte, limit uint16) {
		n := int64(limit)
		if n == 0 {
			n = maxBodyBytes
		}
		checkAgainstReference(t, body, n)
	})
}

// TestDecodeSimulateOverLimit: a body over maxBodyBytes fails with the
// reference's error, whether the limit falls inside the document or in
// whitespace after it.
func TestDecodeSimulateOverLimit(t *testing.T) {
	doc := coldBody(t)
	inside := append(append([]byte(nil), doc[:len(doc)-1]...), bytes.Repeat([]byte(" "), maxBodyBytes)...)
	after := append(append([]byte(nil), doc...), bytes.Repeat([]byte(" "), maxBodyBytes)...)
	for _, body := range [][]byte{append(inside, '}'), after} {
		checkAgainstReference(t, body, maxBodyBytes)
		if _, _, err := decodeSimulate(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxBodyBytes), ""); err == nil {
			t.Errorf("a %d B body decoded under the %d B limit", len(body), maxBodyBytes)
		}
	}
}

// TestDecodeJSONReadErrorAfterDocument: a read error that comes after
// a whole document — MaxBytesReader's limit falling in trailing
// whitespace, or any failing stream — is reported as that error, not
// as trailing data; real trailing bytes still are.
func TestDecodeJSONReadErrorAfterDocument(t *testing.T) {
	doc := coldBody(t)
	padded := append(append([]byte(nil), doc...), bytes.Repeat([]byte(" "), maxBodyBytes)...)
	var body simulateBody
	err := decodeJSON(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(padded)), maxBodyBytes), &body)
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) || !strings.HasPrefix(err.Error(), "decoding request: ") {
		t.Errorf("over-limit padded body: %v, want the decoding-request MaxBytesReader error", err)
	}
	if _, _, err := decodeSimulate(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(padded)), maxBodyBytes), ""); !errors.As(err, &tooLarge) {
		t.Errorf("decodeSimulate of the over-limit padded body: %v, want the MaxBytesReader error", err)
	}

	broken := errors.New("connection reset")
	r := io.MultiReader(bytes.NewReader([]byte(`{"network":"densechain"} `)), iotest.ErrReader(broken))
	if err := decodeJSON(r, &simulateBody{}); !errors.Is(err, broken) {
		t.Errorf("stream failing after the document: %v, want %v", err, broken)
	}
	for _, trailing := range []string{`{"network":"densechain"} x`, `{"network":"densechain"}{}`, `{"network":"densechain"} "`} {
		if err := decodeJSON(strings.NewReader(trailing), &simulateBody{}); err == nil || err.Error() != "decoding request: unexpected data after the JSON document" {
			t.Errorf("decodeJSON(%q) = %v, want the trailing-data error", trailing, err)
		}
	}
}

// TestReadSimulateTakesCanonicalBodies: the one-pass reader takes
// documents in the subset and hands the rest to the reference.
func TestReadSimulateTakesCanonicalBodies(t *testing.T) {
	const tiny = `{"name":"t","input":{"c":4,"h":8,"w":8},"layers":[{"name":"c","op":"conv","inputs":["input"],"out_channels":4,"kernel":3,"stride":1,"pad":1}]}`
	for _, c := range []struct {
		body string
		ok   bool
	}{
		{string(coldBody(t)), true},
		{`{"network":"densechain","strategy":"scm","observe":true,"trace":false,"async":false,"timeout_ms":100}`, true},
		{"{\n  \"network\": \"densechain\"\n}\n", true},
		{`{"Network":"densechain"}`, false},
		{`{"network":"densechain","config":{"Name":"\u0041"}}`, false},
		{`{"network":null}`, false},
		{`{"graph":` + tiny + `,"Strategy":"scm"}`, false},
		{`{"graph":` + strings.Replace(tiny, `"kernel":3`, `"Kernel":3`, 1) + `}`, false},
		{`{"graph":` + strings.Replace(tiny, `"kernel":3`, `"kernel":3.0`, 1) + `}`, false},
	} {
		var body simulateBody
		if ok := readSimulate([]byte(c.body), &body); ok != c.ok {
			t.Errorf("readSimulate(%.60q) = %t, want %t", c.body, ok, c.ok)
		}
	}
}

// TestPoolsDropLargeBuffers: a body buffer grown past maxPooledBody and
// a scratch buffer grown past maxPooledBuf are left to the collector,
// so one large request does not keep its buffers in a pool.
func TestPoolsDropLargeBuffers(t *testing.T) {
	body := append(coldBody(t), bytes.Repeat([]byte(" "), 2*maxPooledBody)...)
	if err := decodeAndKey(body); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 0, maxPooledBuf+1)
	putBuf(&big)
	for i := 0; i < 16; i++ {
		if b := bodies.Get().(*bytes.Buffer); b.Cap() > maxPooledBody {
			t.Fatalf("bodies kept a %d B buffer", b.Cap())
		}
		if p := bufs.Get().(*[]byte); cap(*p) > maxPooledBuf {
			t.Fatalf("bufs kept a %d B buffer", cap(*p))
		}
	}
}
