// Package bench describes the machine a benchmark report came from.
// The repository's benchmark (the nested benchmark/ module) stamps
// every report it writes with CurrentHost, and its -compare warns when
// the reports it is given come from different hosts.
package bench

import "runtime"

// Host describes the machine the numbers came from — without it a
// trajectory across commits is uninterpretable.
type Host struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
}

// CurrentHost snapshots the running process's host facts.
func CurrentHost() Host {
	return Host{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
}
