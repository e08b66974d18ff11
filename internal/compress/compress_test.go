package compress

import (
	"encoding/json"
	"testing"
	"testing/quick"

	"shortcutmining/internal/dram"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"fixed ok", Config{Codec: CodecFixed, Ratio: 2}, true},
		{"fixed ratio 1", Config{Codec: CodecFixed, Ratio: 1}, false},
		{"fixed ratio 0", Config{Codec: CodecFixed}, false},
		{"zvc ok", Config{Codec: CodecZVC, Sparsity: 0.5}, true},
		{"zvc zero sparsity", Config{Codec: CodecZVC}, true},
		{"zvc sparsity 1", Config{Codec: CodecZVC, Sparsity: 1}, false},
		{"zvc negative sparsity", Config{Codec: CodecZVC, Sparsity: -0.1}, false},
		{"zvc wide elem", Config{Codec: CodecZVC, ElemBytes: 9}, false},
		{"unknown codec", Config{Codec: "lz4", Ratio: 2}, false},
		{"negative enc", Config{Codec: CodecFixed, Ratio: 2, EncodeCyclesPerKiB: -1}, false},
		{"weight class", Config{Codec: CodecFixed, Ratio: 2, Classes: []dram.Class{dram.ClassWeightRead}}, false},
		{"dup class", Config{Codec: CodecFixed, Ratio: 2, Classes: []dram.Class{dram.ClassIFMRead, dram.ClassIFMRead}}, false},
		{"bad class", Config{Codec: CodecFixed, Ratio: 2, Classes: []dram.Class{dram.Class(99)}}, false},
		{"class subset ok", Config{Codec: CodecFixed, Ratio: 2, Classes: []dram.Class{dram.ClassIFMRead, dram.ClassOFMWrite}}, true},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
	}
	var nilCfg *Config
	if err := nilCfg.Validate(); err != nil {
		t.Errorf("nil config should validate: %v", err)
	}
}

func TestFixedWireBytes(t *testing.T) {
	cfg := Config{Codec: CodecFixed, Ratio: 2}
	if got := cfg.WireBytes(dram.ClassIFMRead, 1000); got != 500 {
		t.Errorf("1000B at 2:1 = %d, want 500", got)
	}
	// ceil: 1001/2 = 500.5 -> 501
	if got := cfg.WireBytes(dram.ClassIFMRead, 1001); got != 501 {
		t.Errorf("1001B at 2:1 = %d, want 501", got)
	}
	// weights pass through untouched
	if got := cfg.WireBytes(dram.ClassWeightRead, 1000); got != 1000 {
		t.Errorf("weights compressed to %d, want 1000", got)
	}
	if got := cfg.WireBytes(dram.ClassIFMRead, 0); got != 0 {
		t.Errorf("zero logical -> %d, want 0", got)
	}
	// tiny transfers never vanish
	if got := cfg.WireBytes(dram.ClassIFMRead, 1); got != 1 {
		t.Errorf("1B -> %d, want 1", got)
	}
}

func TestZVCWireBytes(t *testing.T) {
	// 1024 bytes of 2-byte elements = 512 elements. At 50% sparsity:
	// bitmap 512/8 = 64B, kept 256 elements = 512B -> 576B wire.
	cfg := Config{Codec: CodecZVC, Sparsity: 0.5, ElemBytes: 2}
	if got := cfg.WireBytes(dram.ClassOFMWrite, 1024); got != 576 {
		t.Errorf("zvc 1024B sparsity .5 = %d, want 576", got)
	}
	// Zero sparsity still pays the bitmap but clamps at logical.
	dense := Config{Codec: CodecZVC, Sparsity: 0}
	if got := dense.WireBytes(dram.ClassOFMWrite, 1024); got != 1024 {
		t.Errorf("dense zvc = %d, want clamp to 1024", got)
	}
	// Odd tail byte is carried raw.
	if got := cfg.WireBytes(dram.ClassOFMWrite, 1025); got != 577 {
		t.Errorf("zvc 1025B = %d, want 577", got)
	}
}

func TestWireBytesNeverInflatesQuick(t *testing.T) {
	cfgs := []Config{
		{Codec: CodecFixed, Ratio: 1.3},
		{Codec: CodecFixed, Ratio: 8},
		{Codec: CodecZVC, Sparsity: 0},
		{Codec: CodecZVC, Sparsity: 0.9, ElemBytes: 1},
		{Codec: CodecZVC, Sparsity: 0.25, ElemBytes: 4},
	}
	for _, cfg := range cfgs {
		cfg := cfg
		f := func(logical int64, clRaw uint8) bool {
			if logical < 0 {
				logical = -logical
			}
			logical %= 1 << 30
			cl := dram.Class(int(clRaw) % dram.NumClasses)
			wire := cfg.WireBytes(cl, logical)
			if logical == 0 {
				return wire == 0
			}
			return wire >= 1 && wire <= logical
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("cfg %+v: %v", cfg, err)
		}
	}
}

func TestCodecCyclesDirections(t *testing.T) {
	cfg := Config{Codec: CodecFixed, Ratio: 2, EncodeCyclesPerKiB: 3, DecodeCyclesPerKiB: 5}
	const logical = 2048 // 2 KiB
	check := func(cl dram.Class, wantEnc, wantDec int64) {
		t.Helper()
		enc, dec := cfg.CodecCycles(cl, logical)
		if enc != wantEnc || dec != wantDec {
			t.Errorf("%s: got enc=%d dec=%d, want enc=%d dec=%d", cl, enc, dec, wantEnc, wantDec)
		}
	}
	check(dram.ClassIFMRead, 0, 10)
	check(dram.ClassShortcutRead, 0, 10)
	check(dram.ClassSpillRead, 0, 10)
	check(dram.ClassOFMWrite, 6, 0)
	check(dram.ClassSpillWrite, 6, 0)
	check(dram.ClassInterchip, 6, 10)
	check(dram.ClassWeightRead, 0, 0)
	// Partial KiB rounds up.
	if enc, _ := cfg.CodecCycles(dram.ClassOFMWrite, 1); enc != 3 {
		t.Errorf("1B encode = %d cycles, want 3 (one started KiB)", enc)
	}
}

func TestClassSubset(t *testing.T) {
	cfg := Config{Codec: CodecFixed, Ratio: 4, Classes: []dram.Class{dram.ClassShortcutRead}}
	if got := cfg.WireBytes(dram.ClassShortcutRead, 4096); got != 1024 {
		t.Errorf("subset class compressed to %d, want 1024", got)
	}
	if got := cfg.WireBytes(dram.ClassIFMRead, 4096); got != 4096 {
		t.Errorf("excluded class compressed to %d, want 4096", got)
	}
	if enc, dec := cfg.CodecCycles(dram.ClassIFMRead, 4096); enc != 0 || dec != 0 {
		t.Errorf("excluded class charged codec cycles enc=%d dec=%d", enc, dec)
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	specs := []string{
		"fixed:ratio=2",
		"fixed:ratio=1.5,enc=1,dec=1",
		"zvc",
		"zvc:sparsity=0.55,elem=2,enc=2,dec=2",
		"zvc:sparsity=0.6,classes=ifm+ofm+shortcut",
		"fixed:ratio=4,classes=interchip",
	}
	for _, s := range specs {
		cfg, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		out := cfg.String()
		cfg2, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", out, s, err)
		}
		if cfg2.String() != out {
			t.Errorf("String not a fixed point: %q -> %q -> %q", s, out, cfg2.String())
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"lz4:ratio=2",
		"fixed",         // ratio missing -> Validate fails
		"fixed:",        // trailing colon
		"fixed:ratio",   // not key=value
		"fixed:ratio=x", // bad float
		"fixed:ratio=2,bogus=1",
		"zvc:sparsity=1", // out of range
		"zvc:elem=0x2",   // bad int
		"zvc:classes=",   // empty class list
		"zvc:classes=ifm+weights",
		"fixed:ratio=2,classes=ifm+ifm",
	}
	for _, s := range bad {
		if cfg, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) = %+v, want error", s, cfg)
		}
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := &Config{Codec: CodecZVC, Sparsity: 0.5, ElemBytes: 2,
		EncodeCyclesPerKiB: 2, DecodeCyclesPerKiB: 3,
		Classes: []dram.Class{dram.ClassIFMRead, dram.ClassInterchip}}
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.String() != cfg.String() {
		t.Errorf("JSON round trip changed spec: %q vs %q", back.String(), cfg.String())
	}
}

// TestCompressorInterface pins that *Config satisfies dram.Compressor —
// the seam the channel uses.
func TestCompressorInterface(t *testing.T) {
	var _ dram.Compressor = &Config{}
}
