// Package compress models interlayer feature-map compression — the
// third DRAM-traffic-reduction axis next to shortcut mining (P1–P5)
// and layer fusion. Feature maps crossing the chip boundary are
// encoded at the producer and decoded at the consumer, so the wire
// moves fewer bytes than the layers exchange logically, at a
// deterministic per-transfer cycle cost. Weights are never compressed
// (read-only, preloaded, compressed offline if at all); the eligible
// class set is dram.Class.Compressible.
//
// Two codec models are provided:
//
//   - fixed: a flat logical/wire ratio, the simplest what-if knob
//     (wire = ceil(logical / ratio)).
//   - zvc: zero-value compression in the style of Shao et al.
//     (arXiv 2110.06155) — a one-bit-per-element occupancy bitmap plus
//     the packed non-zero elements, keyed on the configured activation
//     sparsity and element width, so the achieved ratio falls out of
//     the model instead of being asserted.
//
// Both are pure deterministic functions of (class, logical bytes):
// the same config always yields the same wire bytes and codec cycles,
// which is what keeps checkpoint/restore and cluster handoffs
// bit-identical under compression.
package compress

import (
	"fmt"
	"strconv"
	"strings"

	"shortcutmining/internal/dram"
)

// Codec names the compression model.
type Codec string

const (
	// CodecFixed applies a flat compression ratio to every eligible
	// transfer: wire = ceil(logical / Ratio).
	CodecFixed Codec = "fixed"
	// CodecZVC models zero-value compression: a 1-bit-per-element
	// occupancy bitmap plus the packed non-zero elements, derived from
	// Sparsity and ElemBytes.
	CodecZVC Codec = "zvc"
)

// Config is one interlayer codec: the model, its parameters, and the
// encode/decode engine cost. The zero value is invalid; build configs
// through ParseSpec or set Codec explicitly and Validate.
type Config struct {
	Codec Codec `json:"codec"`

	// Ratio is the flat logical/wire ratio of CodecFixed, > 1.
	Ratio float64 `json:"ratio,omitempty"`

	// Sparsity is the zero-element fraction CodecZVC assumes for
	// feature maps, in [0, 1). ElemBytes is the activation element
	// width in bytes (defaults to 2, the calibrated platform's
	// Fixed16).
	Sparsity  float64 `json:"sparsity,omitempty"`
	ElemBytes int     `json:"elem_bytes,omitempty"`

	// EncodeCyclesPerKiB / DecodeCyclesPerKiB are the codec engine
	// cost, charged per started KiB of *logical* payload on the
	// encoding (store-side) and decoding (load-side) halves of a
	// transfer. Zero models a free (fully pipelined) codec.
	EncodeCyclesPerKiB int64 `json:"enc_cycles_per_kib,omitempty"`
	DecodeCyclesPerKiB int64 `json:"dec_cycles_per_kib,omitempty"`

	// Classes optionally restricts compression to a subset of the
	// compressible classes. Empty means every dram.Class.Compressible
	// class. Non-compressible classes are rejected by Validate.
	Classes []dram.Class `json:"classes,omitempty"`
}

// DefaultElemBytes is the element width assumed when ElemBytes is 0:
// two bytes, matching the calibrated platform's Fixed16 datatype.
const DefaultElemBytes = 2

// Validate checks the codec configuration.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	switch c.Codec {
	case CodecFixed:
		if c.Ratio <= 1 {
			return fmt.Errorf("compress: fixed codec needs ratio > 1, got %g", c.Ratio)
		}
	case CodecZVC:
		if c.Sparsity < 0 || c.Sparsity >= 1 {
			return fmt.Errorf("compress: zvc sparsity %g outside [0, 1)", c.Sparsity)
		}
		if c.ElemBytes < 0 {
			return fmt.Errorf("compress: negative element width %d", c.ElemBytes)
		}
		if c.ElemBytes > 8 {
			return fmt.Errorf("compress: element width %d exceeds 8 bytes", c.ElemBytes)
		}
	default:
		return fmt.Errorf("compress: unknown codec %q (want %q or %q)", c.Codec, CodecFixed, CodecZVC)
	}
	if c.EncodeCyclesPerKiB < 0 || c.DecodeCyclesPerKiB < 0 {
		return fmt.Errorf("compress: negative codec cycle cost (enc=%d dec=%d)",
			c.EncodeCyclesPerKiB, c.DecodeCyclesPerKiB)
	}
	seen := map[dram.Class]bool{}
	for _, cl := range c.Classes {
		if cl < 0 || int(cl) >= dram.NumClasses {
			return fmt.Errorf("compress: unknown traffic class %d", int(cl))
		}
		if !cl.Compressible() {
			return fmt.Errorf("compress: class %s is not compressible", cl)
		}
		if seen[cl] {
			return fmt.Errorf("compress: class %s listed twice", cl)
		}
		seen[cl] = true
	}
	return nil
}

// applies reports whether this codec touches the given class.
func (c *Config) applies(cl dram.Class) bool {
	if !cl.Compressible() {
		return false
	}
	if len(c.Classes) == 0 {
		return true
	}
	for _, want := range c.Classes {
		if want == cl {
			return true
		}
	}
	return false
}

// elemBytes resolves the configured element width.
func (c *Config) elemBytes() int64 {
	if c.ElemBytes > 0 {
		return int64(c.ElemBytes)
	}
	return DefaultElemBytes
}

// WireBytes implements dram.Compressor: the post-codec payload for a
// logical transfer of the given class. Classes the codec does not
// apply to pass through unchanged. The result is clamped to
// [1, logical]: a codec never inflates a transfer in this model (a
// real encoder falls back to raw + a tag bit), and never erases one.
func (c *Config) WireBytes(cl dram.Class, logical int64) int64 {
	if logical <= 0 {
		return 0
	}
	if !c.applies(cl) {
		return logical
	}
	var wire int64
	switch c.Codec {
	case CodecFixed:
		wire = int64(float64(logical) / c.Ratio)
		if float64(wire)*c.Ratio < float64(logical) {
			wire++
		}
	case CodecZVC:
		eb := c.elemBytes()
		n := logical / eb     // whole elements
		rem := logical - n*eb // trailing partial element, stored raw
		kept := n - int64(float64(n)*c.Sparsity)
		wire = (n+7)/8 + kept*eb + rem
	default:
		wire = logical
	}
	if wire < 1 {
		wire = 1
	}
	if wire > logical {
		wire = logical
	}
	return wire
}

// CodecCycles returns the encode- and decode-side engine cycles for a
// logical transfer of the given class. Reads (IFM, shortcut, spill
// reload) pay decode; writes (OFM, spill) pay encode; interchip
// handoffs pay both — encode at the source chip, decode at the
// destination. Cost is per started KiB of logical payload, so it
// scales with the tensor, not with the achieved ratio.
func (c *Config) CodecCycles(cl dram.Class, logical int64) (enc, dec int64) {
	if logical <= 0 || !c.applies(cl) {
		return 0, 0
	}
	kib := (logical + 1023) / 1024
	switch cl {
	case dram.ClassOFMWrite, dram.ClassSpillWrite:
		return kib * c.EncodeCyclesPerKiB, 0
	case dram.ClassIFMRead, dram.ClassShortcutRead, dram.ClassSpillRead:
		return 0, kib * c.DecodeCyclesPerKiB
	case dram.ClassInterchip:
		return kib * c.EncodeCyclesPerKiB, kib * c.DecodeCyclesPerKiB
	}
	return 0, 0
}

// classTokens lists the grammar tokens for the classes= key in grammar
// order; classToken walks it so rendered specs (which become cache keys
// and checkpoint fields) never depend on map iteration order.
var classTokens = []struct {
	tok string
	cl  dram.Class
}{
	{"ifm", dram.ClassIFMRead},
	{"ofm", dram.ClassOFMWrite},
	{"shortcut", dram.ClassShortcutRead},
	{"spillw", dram.ClassSpillWrite},
	{"spillr", dram.ClassSpillRead},
	{"interchip", dram.ClassInterchip},
}

// classNames maps grammar tokens to classes for the classes= key.
var classNames = func() map[string]dram.Class {
	m := make(map[string]dram.Class, len(classTokens))
	for _, e := range classTokens {
		m[e.tok] = e.cl
	}
	return m
}()

// classToken inverts classNames (classes are validated first).
func classToken(cl dram.Class) string {
	for _, e := range classTokens {
		if e.cl == cl {
			return e.tok
		}
	}
	return cl.String()
}

// ParseSpec parses the compact codec grammar used by CLI flags and the
// compress= clause of scheduling specs:
//
//	codec[:key=value[,key=value...]]
//
// Codecs and their keys:
//
//	fixed:ratio=2            flat 2:1 compression
//	zvc:sparsity=0.6         ZVC at 60% zero activations
//
// Shared keys: enc=<cycles/KiB>, dec=<cycles/KiB> (codec engine cost),
// elem=<bytes> (zvc element width, default 2), and
// classes=<tok>+<tok>+... restricting the eligible classes to a subset
// of {ifm, ofm, shortcut, spillw, spillr, interchip}.
//
// Examples:
//
//	fixed:ratio=2,enc=1,dec=1
//	zvc:sparsity=0.55,elem=2,enc=2,dec=2,classes=ifm+ofm+shortcut
//
// The grammar deliberately avoids ';' so a spec nests verbatim inside
// the semicolon-separated scheduling grammar.
func ParseSpec(s string) (*Config, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("compress: empty spec")
	}
	head, rest, hasParams := strings.Cut(s, ":")
	cfg := &Config{}
	switch Codec(strings.TrimSpace(head)) {
	case CodecFixed:
		cfg.Codec = CodecFixed
	case CodecZVC:
		cfg.Codec = CodecZVC
	default:
		return nil, fmt.Errorf("compress: unknown codec %q in %q (want fixed or zvc)", head, s)
	}
	if hasParams {
		if strings.TrimSpace(rest) == "" {
			return nil, fmt.Errorf("compress: trailing ':' with no parameters in %q", s)
		}
		for _, kv := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("compress: parameter %q is not key=value in %q", kv, s)
			}
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			var err error
			switch key {
			case "ratio":
				cfg.Ratio, err = strconv.ParseFloat(val, 64)
			case "sparsity":
				cfg.Sparsity, err = strconv.ParseFloat(val, 64)
			case "elem":
				cfg.ElemBytes, err = strconv.Atoi(val)
			case "enc":
				cfg.EncodeCyclesPerKiB, err = strconv.ParseInt(val, 10, 64)
			case "dec":
				cfg.DecodeCyclesPerKiB, err = strconv.ParseInt(val, 10, 64)
			case "classes":
				cfg.Classes, err = parseClasses(val)
			default:
				return nil, fmt.Errorf("compress: unknown key %q in %q", key, s)
			}
			if err != nil {
				return nil, fmt.Errorf("compress: bad value for %s in %q: %v", key, s, err)
			}
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// parseClasses decodes the classes= token list.
func parseClasses(val string) ([]dram.Class, error) {
	if val == "" {
		return nil, fmt.Errorf("empty class list")
	}
	var out []dram.Class
	for _, tok := range strings.Split(val, "+") {
		cl, ok := classNames[strings.TrimSpace(tok)]
		if !ok {
			return nil, fmt.Errorf("unknown class token %q", tok)
		}
		out = append(out, cl)
	}
	return out, nil
}

// String renders the config back into the ParseSpec grammar, with keys
// in a fixed order so the output is deterministic and re-parseable.
func (c *Config) String() string {
	if c == nil {
		return ""
	}
	var sb strings.Builder
	sb.WriteString(string(c.Codec))
	var params []string
	if c.Codec == CodecFixed && c.Ratio != 0 {
		params = append(params, fmt.Sprintf("ratio=%g", c.Ratio))
	}
	if c.Codec == CodecZVC && c.Sparsity != 0 {
		params = append(params, fmt.Sprintf("sparsity=%g", c.Sparsity))
	}
	if c.ElemBytes != 0 {
		params = append(params, fmt.Sprintf("elem=%d", c.ElemBytes))
	}
	if c.EncodeCyclesPerKiB != 0 {
		params = append(params, fmt.Sprintf("enc=%d", c.EncodeCyclesPerKiB))
	}
	if c.DecodeCyclesPerKiB != 0 {
		params = append(params, fmt.Sprintf("dec=%d", c.DecodeCyclesPerKiB))
	}
	if len(c.Classes) > 0 {
		toks := make([]string, len(c.Classes))
		for i, cl := range c.Classes {
			toks[i] = classToken(cl)
		}
		params = append(params, "classes="+strings.Join(toks, "+"))
	}
	if len(params) > 0 {
		sb.WriteString(":")
		sb.WriteString(strings.Join(params, ","))
	}
	return sb.String()
}
