package core

import "shortcutmining/internal/jsonindent"

// AppendJSON appends s exactly as json.Marshal writes it, without
// reflection: a checkpointing job encodes one snapshot every K layers,
// into a pooled buffer. The layer records go through
// stats.RunStats.WriteJSON. TestSnapshotAppendJSONMatchesReflection
// holds the two encoders byte-equal on random snapshots. A NaN or
// infinite float is an error, as it is for json.Marshal; on error dst
// is returned unextended.
func (s *RunSnapshot) AppendJSON(dst []byte) ([]byte, error) {
	w := jsonindent.NewWriter(dst, "", "")
	w.Open('{')
	w.Key("version").Int(int64(s.Version))
	w.Key("network").String(s.Network)
	if s.Label != "" {
		w.Key("label").String(s.Label)
	}
	f := &s.Features
	w.Key("features").Open('{')
	w.Key("RoleSwitch").Bool(f.RoleSwitch)
	w.Key("ShortcutRetention").Bool(f.ShortcutRetention)
	w.Key("IncrementalRecycle").Bool(f.IncrementalRecycle)
	w.Key("PartialRetention").Bool(f.PartialRetention)
	w.Key("StreamingRecycle").Bool(f.StreamingRecycle)
	w.Close('}')
	if s.Platform != "" {
		w.Key("platform").String(s.Platform)
	}
	w.Key("from").Int(int64(s.From))
	w.Key("next").Int(int64(s.Next))
	w.Key("clock").Int(s.Clock)
	w.Key("mem_cursor").Int(s.MemCursor)
	sc := &s.Sched
	w.Key("sched").Open('{')
	w.Key("suspends").Int(sc.Suspends)
	w.Key("resumes").Int(sc.Resumes)
	w.Key("spill_bytes").Int(sc.SpillBytes)
	w.Key("reload_bytes").Int(sc.ReloadBytes)
	w.Key("spill_cycles").Int(sc.SpillCycles)
	w.Key("reload_cycles").Int(sc.ReloadCycles)
	w.Close('}')
	if len(s.Saved) > 0 {
		w.Key("saved").Open('[')
		for i := range s.Saved {
			sb := &s.Saved[i]
			w.Next().Open('{')
			w.Key("producer").Int(int64(sb.Producer))
			w.Key("role").Int(int64(sb.Role))
			w.Key("tag").String(sb.Tag)
			w.Key("banks").Int(int64(sb.Banks))
			if sb.Pinned {
				w.Key("pinned").Bool(true)
			}
			w.Close('}')
		}
		w.Close(']')
	}
	if len(s.Residents) > 0 {
		w.Key("residents").Open('[')
		for i := range s.Residents {
			rs := &s.Residents[i]
			w.Next().Open('{')
			w.Key("producer").Int(int64(rs.Producer))
			w.Key("total").Int(rs.Total)
			w.Key("on_chip").Int(rs.OnChip)
			w.Key("spilled").Int(rs.Spilled)
			w.Key("consumers_left").Int(int64(rs.ConsumersLeft))
			w.Key("last_use").Int(int64(rs.LastUse))
			w.Close('}')
		}
		w.Close(']')
	}
	w.Key("traffic").Ints(s.Traffic[:])
	w.Key("raw_traffic").Ints(s.RawTraffic[:])
	w.Key("logical_traffic").Ints(s.LogicalTraffic[:])
	ps := &s.PoolStats
	w.Key("pool_stats").Open('{')
	w.Key("Allocs").Int(ps.Allocs)
	w.Key("PartialAllocs").Int(ps.PartialAllocs)
	w.Key("Frees").Int(ps.Frees)
	w.Key("RoleSwitches").Int(ps.RoleSwitches)
	w.Key("Pins").Int(ps.Pins)
	w.Key("BanksRecycled").Int(ps.BanksRecycled)
	w.Key("BanksEvicted").Int(ps.BanksEvicted)
	w.Key("BanksFailed").Int(ps.BanksFailed)
	w.Key("Relocations").Int(ps.Relocations)
	w.Key("PeakUsedBanks").Int(int64(ps.PeakUsedBanks))
	w.Key("PeakPinnedBanks").Int(int64(ps.PeakPinnedBanks))
	w.Close('}')
	if s.EncodeCycles != 0 {
		w.Key("encode_cycles").Int(s.EncodeCycles)
	}
	if s.DecodeCycles != 0 {
		w.Key("decode_cycles").Int(s.DecodeCycles)
	}
	w.Key("scratch")
	s.Scratch.WriteJSON(&w)
	w.Close('}')
	b, err := w.Bytes()
	if err != nil {
		return dst, err
	}
	return b, nil
}
