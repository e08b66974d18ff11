package chaos

import "testing"

// FuzzChaosSpec asserts the grammar's contract: arbitrary input yields
// either a validated spec or an error, never a panic, and an accepted
// spec's canonical form is stable. The canonical forms are compared,
// not the structs: a clause that injects nothing ("stall:p=0,ms=1")
// renders as nothing.
func FuzzChaosSpec(f *testing.F) {
	for _, s := range []string{
		"",
		"seed=42",
		"seed=7;journal-io:p=0.1;crash@checkpoint:n=2",
		"slow-disk:ms=5",
		"stall:p=0.05,ms=200",
		"stall:p=0,ms=1",
		"crash@recover",
		"crash@a@b:n=3",
		" seed=1 ; journal-io: p = 0.5 ; ",
		"journal-io:p=NaN",
		"tornado:p=0.1",
		"journal-io:p",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		spec, err := ParseSpec(input)
		if err != nil {
			if spec != nil {
				t.Errorf("ParseSpec(%q) returned both a spec and an error", input)
			}
			return
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("ParseSpec(%q) returned an invalid spec: %v", input, err)
		}
		printed := spec.String()
		again, err := ParseSpec(printed)
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", printed, input, err)
		}
		if got := again.String(); got != printed {
			t.Errorf("canonical form unstable: %q -> %q -> %q", input, printed, got)
		}
		// The injector must replay any accepted spec without blowing up.
		inj, err := New(spec)
		if err != nil {
			t.Fatalf("New(%q): %v", printed, err)
		}
		inj.JournalWriteErr("append")
		inj.StallDelay()
		inj.Hit("checkpoint")
	})
}
