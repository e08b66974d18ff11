package main

import (
	"strings"
	"testing"
)

// TestReportModeErrors: -report with a flag that narrows or reshapes
// the suite exits 2 before anything runs.
func TestReportModeErrors(t *testing.T) {
	for _, c := range []string{"-e E3", "-csv", "-list", "-pool-kib 1024"} {
		var stdout, stderr strings.Builder
		args := append([]string{"-report"}, strings.Fields(c)...)
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("scm-exp -report %s: exit %d, stdout %d bytes; want exit 2 and no output", c, code, stdout.Len())
		}
	}
}
