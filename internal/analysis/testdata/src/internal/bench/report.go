package bench

// Host is a configured schema root (DefaultConfig.SnapshotRoots) and is
// fully clean, so it doubles as proof that a compliant schema produces
// no snapshotstable noise.
type Host struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
}
