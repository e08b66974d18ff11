package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"shortcutmining/internal/compress"
	"shortcutmining/internal/fault"
	"shortcutmining/internal/tensor"
)

func TestDecodeConfigJSONPartialOverridesDefaults(t *testing.T) {
	src := `{"Pool": {"NumBanks": 64, "BankBytes": 16384}, "Batch": 4, "DType": "fixed8"}`
	cfg, err := DecodeConfigJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Pool.NumBanks != 64 || cfg.Batch != 4 || cfg.DType != tensor.Fixed8 {
		t.Errorf("overrides lost: %+v", cfg)
	}
	// Untouched fields keep calibrated defaults.
	def := Default()
	if cfg.PE != def.PE || cfg.WeightBufBytes != def.WeightBufBytes {
		t.Errorf("defaults clobbered: %+v", cfg)
	}
}

func TestDecodeConfigJSONValidates(t *testing.T) {
	if _, err := DecodeConfigJSON(strings.NewReader(`{"Batch": 0}`)); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := DecodeConfigJSON(strings.NewReader(`{"Bogus": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := DecodeConfigJSON(strings.NewReader(`{`)); err == nil {
		t.Error("malformed json accepted")
	}
	if _, err := DecodeConfigJSON(strings.NewReader(`{"DType": 16}`)); err == nil {
		t.Error("numeric dtype accepted")
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	orig := Default()
	orig.Batch = 3
	orig.Eviction = EvictFarthest
	orig.DType = tensor.Float32
	var buf bytes.Buffer
	if err := EncodeConfigJSON(&buf, orig); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"float32"`) {
		t.Errorf("dtype not encoded as string:\n%s", buf.String())
	}
	back, err := DecodeConfigJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back != orig {
		t.Errorf("round trip changed config:\n%+v\n%+v", orig, back)
	}
}

// canonicalConfig clears the empty slices of cfg that the encoding
// omits: a decoded "events": [] and an absent "events" are the same
// plan.
func canonicalConfig(cfg Config) Config {
	if f := cfg.Faults; f != nil {
		g := *f
		g.Events = nil
		for _, e := range f.Events {
			if len(e.Banks) == 0 {
				e.Banks = nil
			}
			g.Events = append(g.Events, e)
		}
		cfg.Faults = &g
	}
	if c := cfg.Compression; c != nil && len(c.Classes) == 0 {
		d := *c
		d.Classes = nil
		cfg.Compression = &d
	}
	return cfg
}

// FuzzDecodeConfigJSON feeds DecodeConfigJSON what an HTTP body or a
// journal payload carries. No input may panic; every accepted config
// must survive EncodeConfigJSON and decode back to an equal config,
// and its encoding must be a fixed point.
func FuzzDecodeConfigJSON(f *testing.F) {
	full := Default()
	full.Batch = 2
	full.DType = tensor.Float32
	full.Eviction = EvictFarthest
	var err error
	if full.Faults, err = fault.ParseSpec("seed=42;bank-fail@4:n=3;dma-drop:p=0.02;bw-degrade@2:factor=0.5"); err != nil {
		f.Fatal(err)
	}
	if full.Compression, err = compress.ParseSpec("zvc:sparsity=0.5,enc=2,dec=2"); err != nil {
		f.Fatal(err)
	}
	for _, cfg := range []Config{Default(), full} {
		var buf bytes.Buffer
		if err := EncodeConfigJSON(&buf, cfg); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, s := range []string{
		`{}`, `null`, `{"Batch": 0}`, `{"DType": "fp32"}`, `{"DType": 16}`, `{"Bogus": 1}`,
		`{"Pool": {"NumBanks": 64, "BankBytes": 16384}, "Batch": 4, "DType": "fixed8"}`,
		`{"Faults": {"seed": 1, "events": []}, "Compression": {"codec": "fixed", "ratio": 2, "classes": []}}`,
		`{"Faults": {"events": [{"kind": 0, "layer": 1, "banks": []}]}}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := DecodeConfigJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := EncodeConfigJSON(&first, cfg); err != nil {
			t.Fatalf("accepted config does not encode: %v", err)
		}
		back, err := DecodeConfigJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("encoding of an accepted config is refused: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(canonicalConfig(back), canonicalConfig(cfg)) {
			t.Fatalf("round trip changed the config:\n%+v\n%+v", cfg, back)
		}
		var second bytes.Buffer
		if err := EncodeConfigJSON(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
