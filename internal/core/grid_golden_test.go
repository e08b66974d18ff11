package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shortcutmining/internal/nn"
	"shortcutmining/internal/trace"
)

// gridGoldenPath pins the byte identity of the simulator over a
// design-space grid: one line per run,
//
//	<network> <strategy> <banks>x<bank KiB> <eviction> <stats digest> <trace digest>
//
// where each digest is the first 16 hex digits of the sha256 of the
// RunStats JSON (or of the error text, prefixed "err:") and of the
// JSON of the recorded trace events.
var gridGoldenPath = filepath.Join("testdata", "grid_golden.txt")

// Grid axes: small banks stress the per-bank pool moves (P4 recycling,
// eviction), 271 banks leaves most networks unconstrained.
var (
	gridBanks    = []int{16, 40, 128, 271}
	gridBankKiB  = []int{4, 8, 16, 32}
	gridEviction = []EvictionPolicy{RetainPinned, EvictFarthest}
)

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// gridLine runs one grid point untraced and traced, checks that
// tracing does not change the statistics, and returns the golden line.
func gridLine(t *testing.T, net *nn.Network, cfg Config, strat Strategy) string {
	t.Helper()
	key := fmt.Sprintf("%s %s %dx%d %s", net.Name, strat, cfg.Pool.NumBanks, cfg.Pool.BankBytes>>10, cfg.Eviction)
	plain, perr := Simulate(net, cfg, strat, nil)
	var buf trace.Buffer
	traced, terr := Simulate(net, cfg, strat, &buf)
	if perr != nil || terr != nil {
		if perr == nil || terr == nil || perr.Error() != terr.Error() {
			t.Fatalf("%s: untraced error %v, traced error %v", key, perr, terr)
		}
		return fmt.Sprintf("%s err:%s -", key, digest([]byte(perr.Error())))
	}
	ps, ts := runJSON(t, plain), runJSON(t, traced)
	if ps != ts {
		t.Fatalf("%s: tracing changed RunStats\n traced   %s\n untraced %s", key, ts, ps)
	}
	events, err := json.Marshal(buf.Events)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s %s %s", key, digest([]byte(ps)), digest(events))
}

// TestGridByteIdentity pins RunStats and trace events over every zoo
// network × strategy × {16, 40, 128, 271} banks × {4, 8, 16, 32} KiB
// banks × both eviction policies (1,536 runs) against
// testdata/grid_golden.txt. It exists so hot-path rewrites of the bank
// pool and the executor (allocation-free bank moves, trace gating)
// can prove they changed no simulated number and no emitted event.
// Regenerate with SCM_UPDATE_GOLDEN=1 only for a deliberate behavior
// change.
func TestGridByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full design-space grid")
	}
	var got []string
	for _, name := range nn.ZooNames() {
		net := nn.MustBuild(name)
		for _, strat := range Strategies() {
			for _, banks := range gridBanks {
				for _, kib := range gridBankKiB {
					for _, ev := range gridEviction {
						cfg := Default()
						cfg.Pool.NumBanks = banks
						cfg.Pool.BankBytes = kib << 10
						cfg.Eviction = ev
						got = append(got, gridLine(t, net, cfg, strat))
					}
				}
			}
		}
	}
	if os.Getenv("SCM_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(gridGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d runs)", gridGoldenPath, len(got))
		return
	}
	f, err := os.Open(gridGoldenPath)
	if err != nil {
		t.Fatalf("reading grid golden (run with SCM_UPDATE_GOLDEN=1 to create): %v", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("grid golden has %d runs, the grid produced %d", len(want), len(got))
	}
	drift := 0
	for i := range got {
		if got[i] != want[i] {
			if drift++; drift <= 10 {
				t.Errorf("drift:\n got  %s\n want %s", got[i], want[i])
			}
		}
	}
	if drift > 10 {
		t.Errorf("... %d of %d runs drifted in total", drift, len(got))
	}
}
