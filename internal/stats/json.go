package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"shortcutmining/internal/dram"
	"shortcutmining/internal/jsonindent"
)

// AppendJSON appends r as JSON without reflection. With indent "" it
// writes exactly what json.Marshal writes for r; otherwise it writes
// what jsonindent.AppendIndent makes of that with the same prefix and
// indent, so a caller can splice r into an indented document at any
// depth. A NaN or infinite float is an error, as it is for
// json.Marshal; on error dst is returned unextended.
//
// RunStats has no MarshalJSON delegating here on purpose: encoding/json
// re-validates and copies whatever a MarshalJSON method returns, which
// made json.Marshal of a resnet34 result 3× slower (48 → 144 µs on a
// 2-vCPU Xeon) with twice the bytes. The tests hold this encoder to
// the reflection output instead.
func (r *RunStats) AppendJSON(dst []byte, prefix, indent string) ([]byte, error) {
	w := jsonWriter{b: dst, prefix: prefix, indent: indent, colon: `":`}
	if indent != "" {
		w.line = append(append(make([]byte, 0, 32), '\n'), prefix...)
		w.colon = `": `
	}
	w.open('{')
	w.str("Network", r.Network)
	w.str("Strategy", r.Strategy)
	w.int("Batch", int64(r.Batch))
	w.float("ClockMHz", r.ClockMHz)
	w.key("Layers")
	if r.Layers == nil {
		w.b = append(w.b, "null"...)
	} else {
		w.open('[')
		for i := range r.Layers {
			w.next()
			w.layer(&r.Layers[i])
		}
		w.close(']')
	}
	w.traffic("Traffic", &r.Traffic)
	w.int("ComputeCycles", r.ComputeCycles)
	w.int("MemCycles", r.MemCycles)
	w.int("TotalCycles", r.TotalCycles)
	w.int("SRAMBytes", r.SRAMBytes)
	w.int("MACs", r.MACs)
	w.int("PeakUsedBanks", int64(r.PeakUsedBanks))
	w.int("PeakPinnedBanks", int64(r.PeakPinnedBanks))
	w.int("RoleSwitches", r.RoleSwitches)
	w.int("BanksRecycled", r.BanksRecycled)
	w.int("BanksEvicted", r.BanksEvicted)

	w.key("Energy")
	w.open('{')
	w.float("DRAMPJ", r.Energy.DRAMPJ)
	w.float("SRAMPJ", r.Energy.SRAMPJ)
	w.float("MACPJ", r.Energy.MACPJ)
	w.close('}')

	f := &r.Faults
	w.key("Faults")
	w.open('{')
	w.int("BankFailures", f.BankFailures)
	w.int("TransientErrors", f.TransientErrors)
	w.int("Relocations", f.Relocations)
	w.int("FaultSpillBytes", f.FaultSpillBytes)
	w.int("MigrationCycles", f.MigrationCycles)
	w.int("DMARetries", f.DMARetries)
	w.int("DMARetryCycles", f.DMARetryCycles)
	w.int("RetryBytes", f.RetryBytes)
	w.int("DegradedCycles", f.DegradedCycles)
	w.close('}')

	if c := r.Compression; c != nil {
		w.key("Compression")
		w.open('{')
		w.str("Codec", c.Codec)
		w.traffic("Logical", &c.Logical)
		w.traffic("Wire", &c.Wire)
		w.int("SavedBytes", c.SavedBytes)
		w.int("EncodeCycles", c.EncodeCycles)
		w.int("DecodeCycles", c.DecodeCycles)
		w.close('}')
	}
	if r.Metrics != nil {
		// Only observed runs carry a snapshot; it keeps the reflection
		// encoder, indented at its depth.
		w.key("Metrics")
		w.value(r.Metrics)
	}
	w.close('}')
	if w.err != nil {
		return dst, w.err
	}
	return w.b, nil
}

func (w *jsonWriter) layer(l *LayerStats) {
	w.open('{')
	w.str("Name", l.Name)
	w.str("Kind", l.Kind)
	w.str("Stage", l.Stage)
	w.int("ComputeCycles", l.ComputeCycles)
	w.int("MemCycles", l.MemCycles)
	w.int("Cycles", l.Cycles)
	w.traffic("Traffic", &l.Traffic)
	w.int("SRAMBytes", l.SRAMBytes)
	if l.CodecCycles != 0 {
		w.int("CodecCycles", l.CodecCycles)
	}
	w.int("ReusedInputBytes", l.ReusedInputBytes)
	w.int("RetainedBytes", l.RetainedBytes)
	w.int("SpilledBytes", l.SpilledBytes)
	w.int("RecycledBanks", l.RecycledBanks)
	w.close('}')
}

// jsonWriter appends one JSON document member by member, laid out the
// way jsonindent.AppendIndent lays out compact JSON (compact when
// indent is ""). The first error sticks.
type jsonWriter struct {
	b              []byte
	prefix, indent string
	line           []byte // "\n", the prefix and depth indents, grown to the deepest level so far
	colon          string // a key's closing quote and colon, and a space when indented
	depth          int
	empty          bool // the innermost open object or array has no member yet
	err            error
}

// newline starts a line at the current depth.
func (w *jsonWriter) newline() {
	if w.indent == "" {
		return
	}
	n := 1 + len(w.prefix) + w.depth*len(w.indent)
	for len(w.line) < n {
		w.line = append(w.line, w.indent...)
	}
	w.b = append(w.b, w.line[:n]...)
}

func (w *jsonWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

// close ends the innermost object or array; an empty one stays on the
// line it opened on.
func (w *jsonWriter) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.b = append(w.b, c)
	w.empty = false
}

// next starts a member of the innermost object or array.
func (w *jsonWriter) next() {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.empty = false
	w.newline()
}

// key starts an object member. Keys are Go field names: nothing in
// them needs escaping.
func (w *jsonWriter) key(k string) {
	w.next()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, w.colon...)
}

func (w *jsonWriter) str(k, v string) {
	w.key(k)
	w.b = jsonindent.AppendString(w.b, v)
}

func (w *jsonWriter) int(k string, v int64) {
	w.key(k)
	w.b = strconv.AppendInt(w.b, v, 10)
}

// float writes v as encoding/json does: like strconv's shortest 'f'
// form, but 'e' below 1e-6 and from 1e21 up, with the exponent's
// leading zero dropped.
func (w *jsonWriter) float(k string, v float64) {
	w.key(k)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if w.err == nil {
			w.err = fmt.Errorf("stats: unsupported value %v in %s", v, k)
		}
		return
	}
	format := byte('f')
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, v, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(w.b); n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

// traffic writes a traffic tally as the array encoding/json makes of it.
func (w *jsonWriter) traffic(k string, t *dram.Traffic) {
	w.key(k)
	w.open('[')
	for _, v := range t {
		w.next()
		w.b = strconv.AppendInt(w.b, v, 10)
	}
	w.close(']')
}

// value writes v through json.Marshal, indented at the current depth.
func (w *jsonWriter) value(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		return
	}
	if w.indent == "" {
		w.b = append(w.b, b...)
		return
	}
	w.b = jsonindent.AppendIndent(w.b, b, w.prefix+strings.Repeat(w.indent, w.depth), w.indent)
}
