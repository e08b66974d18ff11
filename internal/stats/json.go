package stats

import "shortcutmining/internal/jsonindent"

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
	w := jsonindent.NewWriter(dst, prefix, indent)
	r.WriteJSON(&w)
	b, err := w.Bytes()
	if err != nil {
		return dst, err
	}
	return b, nil
}

// WriteJSON writes r as AppendJSON does, as one value of w's document.
func (r *RunStats) WriteJSON(w *jsonindent.Writer) {
	w.Open('{')
	w.Key("Network").String(r.Network)
	w.Key("Strategy").String(r.Strategy)
	w.Key("Batch").Int(int64(r.Batch))
	w.Key("ClockMHz").Float(r.ClockMHz)
	w.Key("Layers")
	if r.Layers == nil {
		w.Null()
	} else {
		w.Open('[')
		for i := range r.Layers {
			writeLayer(w.Next(), &r.Layers[i])
		}
		w.Close(']')
	}
	w.Key("Traffic").Ints(r.Traffic[:])
	w.Key("ComputeCycles").Int(r.ComputeCycles)
	w.Key("MemCycles").Int(r.MemCycles)
	w.Key("TotalCycles").Int(r.TotalCycles)
	w.Key("SRAMBytes").Int(r.SRAMBytes)
	w.Key("MACs").Int(r.MACs)
	w.Key("PeakUsedBanks").Int(int64(r.PeakUsedBanks))
	w.Key("PeakPinnedBanks").Int(int64(r.PeakPinnedBanks))
	w.Key("RoleSwitches").Int(r.RoleSwitches)
	w.Key("BanksRecycled").Int(r.BanksRecycled)
	w.Key("BanksEvicted").Int(r.BanksEvicted)

	w.Key("Energy").Open('{')
	w.Key("DRAMPJ").Float(r.Energy.DRAMPJ)
	w.Key("SRAMPJ").Float(r.Energy.SRAMPJ)
	w.Key("MACPJ").Float(r.Energy.MACPJ)
	w.Close('}')

	f := &r.Faults
	w.Key("Faults").Open('{')
	w.Key("BankFailures").Int(f.BankFailures)
	w.Key("TransientErrors").Int(f.TransientErrors)
	w.Key("Relocations").Int(f.Relocations)
	w.Key("FaultSpillBytes").Int(f.FaultSpillBytes)
	w.Key("MigrationCycles").Int(f.MigrationCycles)
	w.Key("DMARetries").Int(f.DMARetries)
	w.Key("DMARetryCycles").Int(f.DMARetryCycles)
	w.Key("RetryBytes").Int(f.RetryBytes)
	w.Key("DegradedCycles").Int(f.DegradedCycles)
	w.Close('}')

	if c := r.Compression; c != nil {
		w.Key("Compression").Open('{')
		w.Key("Codec").String(c.Codec)
		w.Key("Logical").Ints(c.Logical[:])
		w.Key("Wire").Ints(c.Wire[:])
		w.Key("SavedBytes").Int(c.SavedBytes)
		w.Key("EncodeCycles").Int(c.EncodeCycles)
		w.Key("DecodeCycles").Int(c.DecodeCycles)
		w.Close('}')
	}
	if r.Metrics != nil {
		// Only observed runs carry a snapshot; it keeps the reflection
		// encoder, indented at its depth.
		w.Key("Metrics").Value(r.Metrics)
	}
	w.Close('}')
}

func writeLayer(w *jsonindent.Writer, l *LayerStats) {
	w.Open('{')
	w.Key("Name").String(l.Name)
	w.Key("Kind").String(l.Kind)
	w.Key("Stage").String(l.Stage)
	w.Key("ComputeCycles").Int(l.ComputeCycles)
	w.Key("MemCycles").Int(l.MemCycles)
	w.Key("Cycles").Int(l.Cycles)
	w.Key("Traffic").Ints(l.Traffic[:])
	w.Key("SRAMBytes").Int(l.SRAMBytes)
	if l.CodecCycles != 0 {
		w.Key("CodecCycles").Int(l.CodecCycles)
	}
	w.Key("ReusedInputBytes").Int(l.ReusedInputBytes)
	w.Key("RetainedBytes").Int(l.RetainedBytes)
	w.Key("SpilledBytes").Int(l.SpilledBytes)
	w.Key("RecycledBanks").Int(l.RecycledBanks)
	w.Close('}')
}
