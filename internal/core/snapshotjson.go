package core

import (
	"strconv"

	"shortcutmining/internal/dram"
	"shortcutmining/internal/jsonindent"
)

// AppendJSON appends s exactly as json.Marshal writes it, without
// reflection: a checkpointing job encodes one snapshot every K layers,
// into a pooled buffer. The layer records go through
// stats.RunStats.AppendJSON. TestSnapshotAppendJSONMatchesReflection
// holds the two encoders byte-equal on random snapshots. A NaN or
// infinite float is an error, as it is for json.Marshal; on error dst
// is returned unextended.
func (s *RunSnapshot) AppendJSON(dst []byte) ([]byte, error) {
	b := appendMember(append(dst, '{'), `"version":`, int64(s.Version))
	b = jsonindent.AppendString(append(b, `,"network":`...), s.Network)
	if s.Label != "" {
		b = jsonindent.AppendString(append(b, `,"label":`...), s.Label)
	}
	f := &s.Features
	b = strconv.AppendBool(append(b, `,"features":{"RoleSwitch":`...), f.RoleSwitch)
	b = strconv.AppendBool(append(b, `,"ShortcutRetention":`...), f.ShortcutRetention)
	b = strconv.AppendBool(append(b, `,"IncrementalRecycle":`...), f.IncrementalRecycle)
	b = strconv.AppendBool(append(b, `,"PartialRetention":`...), f.PartialRetention)
	b = strconv.AppendBool(append(b, `,"StreamingRecycle":`...), f.StreamingRecycle)
	b = append(b, '}')
	if s.Platform != "" {
		b = jsonindent.AppendString(append(b, `,"platform":`...), s.Platform)
	}
	b = appendMember(b, `,"from":`, int64(s.From))
	b = appendMember(b, `,"next":`, int64(s.Next))
	b = appendMember(b, `,"clock":`, s.Clock)
	b = appendMember(b, `,"mem_cursor":`, s.MemCursor)
	sc := &s.Sched
	b = appendMember(b, `,"sched":{"suspends":`, sc.Suspends)
	b = appendMember(b, `,"resumes":`, sc.Resumes)
	b = appendMember(b, `,"spill_bytes":`, sc.SpillBytes)
	b = appendMember(b, `,"reload_bytes":`, sc.ReloadBytes)
	b = appendMember(b, `,"spill_cycles":`, sc.SpillCycles)
	b = appendMember(b, `,"reload_cycles":`, sc.ReloadCycles)
	b = append(b, '}')
	if len(s.Saved) > 0 {
		b = append(b, `,"saved":[`...)
		for i := range s.Saved {
			sb := &s.Saved[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = appendMember(b, `{"producer":`, int64(sb.Producer))
			b = appendMember(b, `,"role":`, int64(sb.Role))
			b = jsonindent.AppendString(append(b, `,"tag":`...), sb.Tag)
			b = appendMember(b, `,"banks":`, int64(sb.Banks))
			if sb.Pinned {
				b = append(b, `,"pinned":true`...)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(s.Residents) > 0 {
		b = append(b, `,"residents":[`...)
		for i := range s.Residents {
			rs := &s.Residents[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = appendMember(b, `{"producer":`, int64(rs.Producer))
			b = appendMember(b, `,"total":`, rs.Total)
			b = appendMember(b, `,"on_chip":`, rs.OnChip)
			b = appendMember(b, `,"spilled":`, rs.Spilled)
			b = appendMember(b, `,"consumers_left":`, int64(rs.ConsumersLeft))
			b = appendMember(b, `,"last_use":`, int64(rs.LastUse))
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = appendTraffic(append(b, `,"traffic":`...), &s.Traffic)
	b = appendTraffic(append(b, `,"raw_traffic":`...), &s.RawTraffic)
	b = appendTraffic(append(b, `,"logical_traffic":`...), &s.LogicalTraffic)
	ps := &s.PoolStats
	b = appendMember(b, `,"pool_stats":{"Allocs":`, ps.Allocs)
	b = appendMember(b, `,"PartialAllocs":`, ps.PartialAllocs)
	b = appendMember(b, `,"Frees":`, ps.Frees)
	b = appendMember(b, `,"RoleSwitches":`, ps.RoleSwitches)
	b = appendMember(b, `,"Pins":`, ps.Pins)
	b = appendMember(b, `,"BanksRecycled":`, ps.BanksRecycled)
	b = appendMember(b, `,"BanksEvicted":`, ps.BanksEvicted)
	b = appendMember(b, `,"BanksFailed":`, ps.BanksFailed)
	b = appendMember(b, `,"Relocations":`, ps.Relocations)
	b = appendMember(b, `,"PeakUsedBanks":`, int64(ps.PeakUsedBanks))
	b = appendMember(b, `,"PeakPinnedBanks":`, int64(ps.PeakPinnedBanks))
	b = append(b, '}')
	if s.EncodeCycles != 0 {
		b = appendMember(b, `,"encode_cycles":`, s.EncodeCycles)
	}
	if s.DecodeCycles != 0 {
		b = appendMember(b, `,"decode_cycles":`, s.DecodeCycles)
	}
	b, err := s.Scratch.AppendJSON(append(b, `,"scratch":`...), "", "")
	if err != nil {
		return dst, err
	}
	return append(b, '}'), nil
}

// appendMember appends key, already quoted and followed by its colon,
// and the integer v.
func appendMember(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendTraffic appends a traffic tally as the array encoding/json
// makes of it.
func appendTraffic(b []byte, t *dram.Traffic) []byte {
	b = append(b, '[')
	for i, v := range t {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return append(b, ']')
}
