package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"shortcutmining/internal/nn"
)

// fillRandom sets every exported field reachable from v to a random
// value, so a field added to RunSnapshot or anything it holds reaches
// the comparison below without the test naming it. Strings mix in
// characters encoding/json escapes; floats span the magnitudes where
// it switches to exponent form; slices are nil, empty or short.
func fillRandom(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Int, reflect.Int32, reflect.Int64:
		switch rng.Intn(3) {
		case 0:
			v.SetInt(0)
		case 1:
			v.SetInt(rng.Int63n(1000) - 10)
		default:
			v.SetInt(rng.Int63() - math.MaxInt64/2)
		}
	case reflect.Float64:
		v.SetFloat((rng.Float64() - 0.25) * math.Pow(10, float64(rng.Intn(50)-25)))
	case reflect.String:
		const alphabet = "aZ09 -_.<>&\"\\/\n\t é€"
		r := []rune(alphabet)
		s := make([]rune, rng.Intn(12))
		for i := range s {
			s[i] = r[rng.Intn(len(r))]
		}
		v.SetString(string(s))
		if rng.Intn(10) == 0 {
			v.SetString(string(s) + "\xff") // invalid UTF-8
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillRandom(rng, v.Index(i))
		}
	case reflect.Slice:
		switch n := rng.Intn(4); n {
		case 0:
			v.SetZero()
		default:
			v.Set(reflect.MakeSlice(v.Type(), n-1, n-1))
			for i := 0; i < v.Len(); i++ {
				fillRandom(rng, v.Index(i))
			}
		}
	case reflect.Pointer:
		// Only RunStats.Compression and RunStats.Metrics are pointers;
		// a snapshot never carries Metrics (observed runs refuse to
		// snapshot), and the stats encoder hands it to reflection anyway.
		if rng.Intn(2) == 0 || v.Type().Elem().Name() == "Snapshot" {
			v.SetZero()
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		fillRandom(rng, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillRandom(rng, v.Field(i))
			}
		}
	default:
		panic("fillRandom: unhandled kind " + v.Kind().String())
	}
}

// TestSnapshotAppendJSONMatchesReflection holds the checkpoint encoder
// to json.Marshal, byte for byte, on random snapshots and on every link
// of a real chain.
func TestSnapshotAppendJSONMatchesReflection(t *testing.T) {
	check := func(s *RunSnapshot) {
		t.Helper()
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("prefix")
		got, err := s.AppendJSON(prefix)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[len(prefix):], want) || !bytes.HasPrefix(got, prefix) {
			t.Fatalf("AppendJSON differs from json.Marshal\n got %s\nwant %s", got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		var s RunSnapshot
		fillRandom(rng, reflect.ValueOf(&s).Elem())
		check(&s)
	}
	check(&RunSnapshot{})
	for _, link := range snapshotChain(t, nn.MustBuild("resnet18"), Default(), SCM, 3, 20) {
		check(link)
	}

	var bad RunSnapshot
	bad.Scratch.ClockMHz = math.NaN()
	dst := []byte("keep")
	if got, err := bad.AppendJSON(dst); err == nil || string(got) != "keep" {
		t.Errorf("AppendJSON of a NaN = %q, %v; want dst unextended and an error", got, err)
	}
}

// BenchmarkSnapshotAppendJSON encodes every link of a resnet152
// checkpoint chain at eight layers per link into a reused buffer: the
// checkpoint payloads of one durable simulate job.
func BenchmarkSnapshotAppendJSON(b *testing.B) {
	net := nn.MustBuild("resnet152")
	chain := snapshotChain(b, net, Default(), SCM, 8, len(net.Layers))
	var buf []byte
	var err error
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, link := range chain {
			if buf, err = link.AppendJSON(buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
